"""Loss functions returning ``(scalar_loss, gradient_wrt_input)``."""

from __future__ import annotations

import numpy as np


def bce_with_logits(
    logits: np.ndarray, targets: np.ndarray, reduction: str = "mean"
) -> tuple[float, np.ndarray]:
    """Numerically stable binary cross-entropy on raw logits.

    ``loss = mean(max(z,0) - z*t + log(1 + exp(-|z|)))`` with gradient
    ``(sigmoid(z) - t) / n``; both vectorised over any shape. With
    ``reduction="sum"`` the loss is summed and the gradient left
    unscaled (``sigmoid(z) - t``), which makes one batched call
    gradient-equivalent to accumulating N per-sample calls — what the
    batched GNN trainer needs to mirror its per-sample loop.
    """
    z = np.asarray(logits, dtype=float)
    t = np.asarray(targets, dtype=float)
    if z.shape != t.shape:
        raise ValueError(f"shape mismatch: logits {z.shape} vs targets {t.shape}")
    if reduction not in ("mean", "sum"):
        raise ValueError(f"reduction must be 'mean' or 'sum', got {reduction!r}")
    loss = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    sig = 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))
    if reduction == "sum":
        return float(loss.sum()), sig - t
    return float(loss.mean()), (sig - t) / z.size
