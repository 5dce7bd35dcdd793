"""Naive-Bayes pin-compatibility link predictor.

The cheapest MuxLink backend: estimate ``P(consumer_type | driver_type)``
from the observed wires with Laplace smoothing and score a candidate link
by its log-likelihood (plus a degree-compatibility term). No training
iterations — this is the default fitness oracle inside tight GA loops and
doubles as a sanity baseline for the learned predictors.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.muxlink.features import N_TYPES, type_index
from repro.attacks.muxlink.graph import ObservedGraph
from repro.errors import AttackError
from repro.registry import register_predictor

#: level-delta histogram bins: Δ <= -2, -1, 0, 1, 2, 3, >= 4
_N_DELTA_BINS = 7


def _delta_bin(delta: int) -> int:
    return int(np.clip(delta + 2, 0, _N_DELTA_BINS - 1))


@register_predictor("bayes")
class BayesLinkPredictor:
    """Log-likelihood scorer over (driver type → consumer type) statistics."""

    name = "bayes"

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha <= 0:
            raise AttackError(f"Laplace alpha must be positive, got {alpha}")
        self.alpha = alpha
        self._log_cond: np.ndarray | None = None
        self._log_delta: np.ndarray | None = None
        self._mean_degree: float = 0.0
        self._graph: ObservedGraph | None = None

    def fit(self, graph: ObservedGraph, seed_or_rng=None) -> None:
        """Estimate conditional type and level-delta statistics from wires."""
        counts = np.full((N_TYPES, N_TYPES), self.alpha, dtype=np.float64)
        for u, v in graph.directed_edges:
            counts[type_index(graph.gtypes[u]), type_index(graph.gtypes[v])] += 1.0
        self._log_cond = np.log(counts / counts.sum(axis=1, keepdims=True))
        self.fit_level_model(graph)
        degrees = [graph.degree(i) for i in range(graph.n_nodes)]
        self._mean_degree = float(np.mean(degrees)) if degrees else 0.0
        self._graph = graph

    def fit_level_model(self, graph: ObservedGraph) -> None:
        """Histogram of level deltas over observed wires (Laplace-smoothed)."""
        counts = np.full(_N_DELTA_BINS, self.alpha, dtype=np.float64)
        for u, v in graph.directed_edges:
            counts[_delta_bin(graph.levels[v] - graph.levels[u])] += 1.0
        self._log_delta = np.log(counts / counts.sum())

    def score_links(self, pairs: list[tuple[int, int]]) -> np.ndarray:
        """Log-likelihood that ``u`` truly drives ``v``, per candidate link.

        Three terms: the conditional type likelihood; the level-locality
        likelihood (real wires span ~1 logic level, D-MUX decoys drawn
        from arbitrary locations rarely do); and a degree-compatibility
        tie-breaker (drivers of many consumers are a priori more
        plausible sources). All are elementwise table lookups and
        arithmetic grouped ``(cond + delta) + (bonus - penalty)``, so the
        per-link reference in ``tests/reference/`` matches bit for bit.
        """
        if self._log_cond is None or self._graph is None:
            raise AttackError("predictor not fitted")
        graph = self._graph
        tu = np.array([type_index(graph.gtypes[u]) for u, _ in pairs], dtype=np.intp)
        tv = np.array([type_index(graph.gtypes[v]) for _, v in pairs], dtype=np.intp)
        deltas = np.array(
            [graph.levels[v] - graph.levels[u] for u, v in pairs], dtype=np.int64
        )
        dbins = np.clip(deltas + 2, 0, _N_DELTA_BINS - 1)
        deg_u = np.array([graph.degree(u) for u, _ in pairs], dtype=np.float64)
        mean = self._mean_degree
        return (self._log_cond[tu, tv] + self._log_delta[dbins]) + (
            0.1 * np.log1p(deg_u) - (0.05 * np.abs(deg_u - mean)) / max(1.0, mean)
        )
