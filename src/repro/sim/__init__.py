"""Bit-parallel logic simulation and equivalence checking.

The simulator packs 64 input patterns per ``uint64`` word and evaluates the
netlist once per word in topological order, which makes oracle queries for
the SAT attack, functional-equivalence checks for the locking invariant,
and output-corruption metrics all cheap enough to run inside test loops.
"""

from repro.sim.patterns import (
    exhaustive_patterns,
    pack_bits,
    random_patterns,
    unpack_bits,
)
from repro.sim.simulator import (
    SimOracle,
    SimResult,
    oracle_fn,
    simulate,
)
from repro.sim.equivalence import EquivalenceResult, check_equivalence, output_error_rate

__all__ = [
    "pack_bits",
    "unpack_bits",
    "random_patterns",
    "exhaustive_patterns",
    "SimResult",
    "simulate",
    "SimOracle",
    "oracle_fn",
    "EquivalenceResult",
    "check_equivalence",
    "output_error_rate",
]
