"""The MuxLink attack driver.

Pipeline (matching Fig. 1 y of the AutoLock paper):

1. extract the observed graph and the MUX link queries;
2. train a link predictor self-supervised on the observed wires;
3. score both candidate links of every key-MUX;
4. aggregate per-key-bit margins (the two MUXes of a shared-key pair vote
   on the same bit) and threshold into 0 / 1 / undecided.

Ground truth is touched only by the scoring step inherited from
:class:`~repro.attacks.base.Attack`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.attacks.base import Attack, AttackReport
# Importing the predictor modules self-registers them in the predictor
# registry, so a bare `import repro.attacks.muxlink.attack` still sees
# all three backends.
import repro.attacks.muxlink.bayes  # noqa: F401
import repro.attacks.muxlink.gnn  # noqa: F401
import repro.attacks.muxlink.mlp_predictor  # noqa: F401
from repro.attacks.muxlink.graph import (
    KEYGATE_KIND_BIT,
    extract_keygates,
    extract_observed,
)
from repro.errors import AttackError
from repro.locking.base import LockedCircuit
from repro.obs import metrics as obs_metrics
from repro.registry import PREDICTORS, register_attack
from repro.utils.rng import derive_rng

_FIT_SECONDS = obs_metrics.METRICS.histogram(
    "autolock_predictor_fit_seconds",
    "Per-predictor self-supervised training wall time",
    labels=("predictor",),
)
_SCORE_SECONDS = obs_metrics.METRICS.histogram(
    "autolock_predictor_score_seconds",
    "Per-predictor batched link-scoring wall time",
    labels=("predictor",),
)
_BATCH_LINKS = obs_metrics.METRICS.histogram(
    "autolock_predictor_batch_links",
    "Candidate links handed to one batched score_links call",
    labels=("predictor",),
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096),
)


@register_attack("muxlink")
class MuxLinkAttack(Attack):
    """Link-prediction attack on MUX-based locking.

    Parameters
    ----------
    predictor:
        ``"bayes"`` (no training, fastest), ``"mlp"`` (structural-feature
        MLP, the default fitness oracle), or ``"gnn"`` (enclosing-subgraph
        GNN, closest to the published DGCNN attack).
    threshold:
        Minimum |margin| to commit to a key bit; below it the bit is
        reported undecided (MuxLink's deciphering threshold).
    keygates:
        Also decide non-MUX key gates (``xor``/``and_or`` insertions) by
        reading the observed gate kind per
        :data:`~repro.attacks.muxlink.graph.KEYGATE_KIND_BIT`. Off by
        default so the historical pure-MUX behaviour is untouched.
    predictor_kwargs:
        Forwarded to the predictor constructor (epochs, hops, ...).
    """

    def __init__(
        self,
        predictor: str = "mlp",
        threshold: float = 0.0,
        ensemble: int = 1,
        keygates: bool = False,
        **predictor_kwargs,
    ) -> None:
        if predictor not in PREDICTORS:
            raise AttackError(
                f"unknown predictor {predictor!r}; "
                f"choose from {PREDICTORS.available()}"
            )
        if ensemble < 1:
            raise AttackError(f"ensemble size must be >= 1, got {ensemble}")
        self.predictor_name = predictor
        self.threshold = float(threshold)
        self.ensemble = ensemble
        self.keygates = bool(keygates)
        self.predictor_kwargs = predictor_kwargs
        self.name = f"muxlink-{predictor}"

    def run(self, locked: LockedCircuit, seed_or_rng=None) -> AttackReport:
        started = time.perf_counter()
        rng = derive_rng(seed_or_rng)
        graph, queries = extract_observed(locked.netlist)

        guesses: dict[str, int | None] = {k: None for k in locked.netlist.key_inputs}
        n_keygate_sites = 0
        if self.keygates:
            # Kind-read of the non-MUX key gates: the observed gate type
            # of an xor/and_or insertion leaks its bit outright.
            for site in extract_keygates(locked.netlist):
                if guesses.get(site.key_name) is None:
                    guesses[site.key_name] = KEYGATE_KIND_BIT[site.kind]
                    n_keygate_sites += 1
        if not queries:
            # Nothing MUX-locked (e.g. an RLL design): only key-gate
            # reads (if enabled) decide bits; the rest stay undecided.
            extra = {"n_sites": 0, "note": "no MUX sites"}
            if self.keygates:
                extra["n_keygate_sites"] = n_keygate_sites
            return self._report(locked, guesses, started, extra=extra)

        margins: dict[str, float] = {}
        site_scores: dict[str, tuple[float, float]] = {}
        n_links = 0
        final_losses: list[float] = []
        for _member in range(self.ensemble):
            predictor = PREDICTORS.create(
                self.predictor_name, **self.predictor_kwargs
            )
            fit_started = time.perf_counter()
            predictor.fit(graph, rng)
            _FIT_SECONDS.observe(
                time.perf_counter() - fit_started,
                predictor=self.predictor_name,
            )
            history = getattr(predictor, "train_history", None)
            if history:
                final_losses.append(history[-1])

            # One predictor call for every candidate link of every site:
            # batching amortises feature extraction across the whole
            # population of queries. Scores come back in request order
            # and are re-accumulated per site below.
            flat_pairs: list[tuple[int, int]] = []
            for q in queries:
                d0 = graph.index[q.d0]
                d1 = graph.index[q.d1]
                for consumer in q.consumers:
                    c = graph.index[consumer]
                    flat_pairs.append((d0, c))
                    flat_pairs.append((d1, c))
            _BATCH_LINKS.observe(len(flat_pairs), predictor=self.predictor_name)
            score_started = time.perf_counter()
            flat_scores = predictor.score_links(flat_pairs)
            _SCORE_SECONDS.observe(
                time.perf_counter() - score_started,
                predictor=self.predictor_name,
            )

            member_margins: dict[str, float] = {}
            cursor = 0
            for q in queries:
                s0 = s1 = 0.0
                for _consumer in q.consumers:
                    s0 += flat_scores[cursor]
                    s1 += flat_scores[cursor + 1]
                    cursor += 2
                    n_links += 2
                site_scores[q.mux] = (float(s0), float(s1))
                # Positive margin: the d0 link looks genuine -> key bit 0.
                member_margins[q.key_name] = (
                    member_margins.get(q.key_name, 0.0) + float(s0 - s1)
                )
            # Normalise each member's margin scale before voting so ensemble
            # members with larger logit ranges do not dominate.
            scale = max(
                1e-9,
                float(np.std(list(member_margins.values())))
                if len(member_margins) > 1
                else 1.0,
            )
            for key_name, margin in member_margins.items():
                margins[key_name] = margins.get(key_name, 0.0) + margin / scale

        for key_name, margin in margins.items():
            if margin > self.threshold:
                guesses[key_name] = 0
            elif margin < -self.threshold:
                guesses[key_name] = 1
            else:
                guesses[key_name] = None

        extra = {
            "n_sites": len(queries),
            "n_scored_links": n_links,
            "margins": dict(margins),
            "site_scores": site_scores,
            "predictor": self.predictor_name,
            "ensemble": self.ensemble,
        }
        if self.keygates:
            extra["n_keygate_sites"] = n_keygate_sites
        if final_losses:
            extra["final_train_loss"] = final_losses[-1]
        return self._report(locked, guesses, started, extra=extra)
