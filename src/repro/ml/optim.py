"""The Adam optimizer."""

from __future__ import annotations

import numpy as np

from repro.ml.layers import Param


class Adam:
    """Adam (Kingma & Ba) with bias correction, fused over all parameters.

    The constructor copies every parameter into one flat ``theta`` vector
    (and its gradient into one flat ``grad``) and rebinds each
    ``Param.value`` / ``Param.grad`` as a reshaped view of them, so layers
    keep reading and accumulating in place while :meth:`step` runs one
    update over the whole model. The ops are elementwise and in the
    per-parameter order, so results are bitwise those of a loop over
    parameters.
    """

    def __init__(
        self,
        params: list[Param],
        lr: float = 1e-2,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.theta = np.concatenate([p.value.ravel() for p in params])
        self.grad = np.concatenate([p.grad.ravel() for p in params])
        start = 0
        for p in params:
            end = start + p.value.size
            shape = p.value.shape
            p.value = self.theta[start:end].reshape(shape)
            p.grad = self.grad[start:end].reshape(shape)
            start = end
        self._m = np.zeros_like(self.theta)
        self._v = np.zeros_like(self.theta)
        self._t = 0

    def step(self) -> None:
        """Apply one update and clear gradients."""
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        m, v, grad = self._m, self._v, self.grad
        m *= b1
        m += (1 - b1) * grad
        v *= b2
        v += (1 - b2) * grad**2
        m_hat = m / (1 - b1**self._t)
        v_hat = v / (1 - b2**self._t)
        self.theta -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        grad.fill(0.0)
