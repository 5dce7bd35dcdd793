"""Locking-scheme interface and the locked-circuit container."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

from repro.errors import LockingError
from repro.locking.key import Key
from repro.netlist.netlist import Netlist


@dataclass
class LockedCircuit:
    """A locked netlist together with its ground truth.

    ``insertions`` records, per key bit, exactly what the scheme did —
    the attacks use it to *score* their key guesses (never to make them),
    and the evolutionary engine uses it to map netlists back to genotypes.
    ``original`` is kept for oracle construction and equivalence checks.
    """

    netlist: Netlist
    key: Key
    scheme: str
    original: Netlist
    insertions: list[Any] = field(default_factory=list)

    @property
    def key_length(self) -> int:
        return len(self.key)

    def correct_key_dict(self) -> dict[str, int]:
        """The correct key as the plain dict the simulator expects."""
        return dict(self.key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LockedCircuit(scheme={self.scheme!r}, design={self.netlist.name!r}, "
            f"K={self.key_length})"
        )


class LockingScheme(abc.ABC):
    """Interface all locking schemes implement.

    Subclasses must be deterministic given (netlist, key_length, seed):
    the experiment harness and the GA both rely on replayability.
    """

    #: short scheme identifier used in reports ("rll", "dmux", ...)
    name: str = "abstract"

    @abc.abstractmethod
    def lock(
        self, netlist: Netlist, key_length: int, seed_or_rng=None
    ) -> LockedCircuit:
        """Return a locked copy of ``netlist`` with ``key_length`` key bits.

        Implementations must never mutate ``netlist`` and must raise
        :class:`~repro.errors.LockingError` when the design cannot host
        the requested key length.
        """

    @staticmethod
    def _require_positive_key(key_length: int) -> None:
        if key_length < 1:
            raise LockingError(f"key length must be >= 1, got {key_length}")

    @staticmethod
    def _fresh_key_names(netlist: Netlist, length: int, prefix: str) -> list[str]:
        names = []
        for i in range(length):
            name = f"{prefix}{i}"
            if netlist.is_signal(name):
                raise LockingError(
                    f"signal {name!r} already exists; choose another key prefix"
                )
            names.append(name)
        return names
