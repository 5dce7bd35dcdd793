"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with one clause while still
distinguishing parse errors from locking errors, etc.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class NetlistError(ReproError):
    """Structural problem in a netlist (unknown signal, cycle, bad arity)."""


class BenchParseError(NetlistError):
    """Malformed ISCAS ``.bench`` input."""

    def __init__(self, message: str, line_no: int | None = None) -> None:
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class SimulationError(ReproError):
    """Simulation-time failure (missing input values, width mismatch)."""


class CnfError(ReproError):
    """Malformed CNF formula, clause or solver call."""


class LockingError(ReproError):
    """A locking scheme could not be applied (no sites, key too long)."""


class AttackError(ReproError):
    """An attack failed to run (not: failed to break the scheme)."""


class EvolutionError(ReproError):
    """The evolutionary engine was misconfigured or a genotype is invalid."""


class RegistryError(ReproError):
    """A plugin registry lookup or registration failed (unknown name,
    duplicate registration, bad constructor parameters)."""


class SpecError(ReproError):
    """An experiment/sweep specification is malformed (unknown field,
    invalid value, inconsistent configuration)."""


class StoreError(ReproError):
    """An experiment store operation failed (unknown backend, capability
    not supported, persistent busy/lock contention)."""
