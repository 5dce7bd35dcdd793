"""Delta re-locking: amortised genotype → phenotype mapping.

:func:`repro.locking.genome_lock.lock_with_genes` is a one-shot builder:
it deep-copies the original netlist and lets every gene insertion
invalidate (and thus rebuild) the full fanout map and topological order.
The GA calls it once per *candidate* against the *same* base circuit, so
nearly all of that work is recomputed identically thousands of times —
profiling the fitness hot path shows ~78%% of re-lock time in per-gene
``topological_order`` calls and another ~23%% in fanout rebuilds.

:class:`DeltaRelocker` keeps one immutable base and applies each
genotype as a delta on a :class:`~repro.netlist.cow.CowNetlist` view:
the base's fanout map and site index (lockable wires and reachability
bitsets) are computed once, cached on the base, and copied into each
candidate's view, gene insertions patch them incrementally, and
acyclicity is verified with a single topological sort per candidate
instead of one per gene. Both builders run the same gene-application body
(:func:`~repro.locking.genome_lock.apply_genes`) and differ only in the
netlist they start from, so the produced
:class:`~repro.locking.base.LockedCircuit` is structurally identical to
the scratch builder's output — same gate names, same insertion order,
same key, same scheme label, same error messages for invalid genotypes
(property-tested in ``tests/test_locking_delta.py``).
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.errors import LockingError, NetlistError
from repro.locking.base import LockedCircuit
from repro.locking.genome_lock import apply_genes
from repro.locking.primitives import Gene
from repro.netlist.cow import CowNetlist
from repro.netlist.netlist import Netlist
from repro.obs import metrics as obs_metrics

__all__ = ["DeltaRelocker"]

_RELOCK_SECONDS = obs_metrics.METRICS.histogram(
    "autolock_relock_seconds",
    "Delta re-lock (genotype -> phenotype) wall time",
)


class DeltaRelocker:
    """Re-lock one base circuit with many genotypes, incrementally.

    Parameters
    ----------
    original:
        The unlocked base design. Its fanout map and site index are the
        base's own caches, so mutating it between re-locks is safe: the
        next view reads freshly rebuilt ones.

    Notes
    -----
    The relocker is a drop-in replacement for
    ``lock_with_genes(original, genes, key_prefix)`` — same validation,
    same outputs, same exceptions. Construction is free: the base caches
    are built on the first :meth:`lock` and never pickled, so fitness
    functions create their relocker eagerly and still pickle cheaply
    into worker processes.
    """

    def __init__(self, original: Netlist) -> None:
        self.original = original

    def _start(self, name: str) -> CowNetlist:
        return CowNetlist.from_base(self.original, name)

    def lock(
        self, genes: Sequence[Gene], key_prefix: str = "keyinput"
    ) -> LockedCircuit:
        """Apply ``genes`` in order as a delta against the base.

        Shares :func:`~repro.locking.genome_lock.apply_genes` with
        ``lock_with_genes``; see there for the encoding contract.
        """
        started = time.perf_counter()
        locked = apply_genes(self.original, genes, self._start, key_prefix)
        # The per-gene ``check_acyclic`` guard is a no-op on the view;
        # validate the finished phenotype once instead.
        try:
            locked.netlist.topological_order()
        except NetlistError as exc:  # pragma: no cover - genes are pre-checked
            raise LockingError(f"delta re-lock built a cyclic netlist: {exc}") from exc
        _RELOCK_SECONDS.observe(time.perf_counter() - started)
        return locked

    __call__ = lock
