"""Benchmark circuit suite.

The logic-locking literature evaluates on ISCAS-85. This package ships the
genuine ``c17`` netlist plus a deterministic synthetic generator that
reproduces each larger ISCAS-85 circuit's interface size, gate count and
gate-type mix. The substitution preserves what the experiments depend
on: the lockable-wire pool, the local structure MuxLink learns from and
the SAT attack's problem size follow from interface width, gate count,
depth and gate-type mix, not from the exact Boolean function. All
circuits are reproducible: the same name always yields the same netlist.
"""

from repro.circuits.generator import CircuitProfile, generate_circuit
from repro.circuits.profiles import ISCAS85_PROFILES
from repro.circuits.registry import (
    available_circuits,
    known_circuit,
    load_circuit,
    synthetic_suite,
)

__all__ = [
    "CircuitProfile",
    "generate_circuit",
    "ISCAS85_PROFILES",
    "available_circuits",
    "known_circuit",
    "load_circuit",
    "synthetic_suite",
]
