"""Re-locking one base circuit with many genotypes.

The GA re-locks the *same* base circuit once per candidate.
:class:`DeltaRelocker` binds that base to
:func:`~repro.locking.genome_lock.apply_genes`, which builds each
genotype as a delta on a copy-on-write work copy of the base: the base's
fanout map and site index are computed once, cached on the base and
forked into each candidate's work copy.
"""

from __future__ import annotations

from typing import Sequence

from repro.locking.base import LockedCircuit
from repro.locking.genome_lock import apply_genes
from repro.locking.primitives import Gene
from repro.netlist.netlist import Netlist

__all__ = ["DeltaRelocker"]


class DeltaRelocker:
    """Re-lock one base circuit with many genotypes, incrementally.

    Same validation, outputs and exceptions as ``lock_with_genes``,
    except that the locked netlist is the work copy itself. Mutating
    ``original`` between re-locks is safe: the next work copy reads its
    freshly rebuilt caches. Construction is free and the base caches are
    never pickled, so fitness functions create their relocker eagerly
    and still pickle cheaply into worker processes.
    """

    def __init__(self, original: Netlist) -> None:
        self.original = original

    def lock(
        self, genes: Sequence[Gene], key_prefix: str = "keyinput"
    ) -> LockedCircuit:
        """Apply ``genes`` in order as a delta against the base."""
        return apply_genes(self.original, genes, key_prefix)

    __call__ = lock
