"""Levelised bit-parallel netlist simulation.

:func:`simulate` is the hot path: evaluate every gate once per 64-pattern
word, in topological order. :func:`oracle_fn` packages an unlocked design
as the black-box oracle interface the SAT attack expects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import SimulationError
from repro.netlist.gates import GateType, evaluate_words
from repro.netlist.netlist import Netlist
from repro.sim.patterns import (
    constant_words,
    n_words_for,
    pack_bits,
    unpack_bits,
)


@dataclass
class SimResult:
    """Simulation outcome: packed words for every signal.

    ``words[signal]`` is a uint64 array of ``ceil(n_patterns / 64)`` words;
    :func:`~repro.sim.patterns.unpack_bits` recovers per-pattern values.
    """

    netlist: Netlist
    n_patterns: int
    words: dict[str, np.ndarray]


def simulate(
    netlist: Netlist,
    packed_inputs: Mapping[str, np.ndarray],
    n_patterns: int,
) -> SimResult:
    """Simulate ``netlist`` on pre-packed input words.

    ``packed_inputs`` must assign a word array of the right length to every
    primary input *and* key input. Returns packed values for all signals.
    """
    n_words = n_words_for(n_patterns)
    words: dict[str, np.ndarray] = {}
    for sig in netlist.all_inputs:
        if sig not in packed_inputs:
            raise SimulationError(f"missing value for input {sig!r}")
        arr = np.asarray(packed_inputs[sig], dtype=np.uint64)
        if arr.shape != (n_words,):
            raise SimulationError(
                f"input {sig!r}: expected {n_words} words, got shape {arr.shape}"
            )
        words[sig] = arr

    for name in netlist.topological_order():
        gate = netlist.gates[name]
        if gate.gtype is GateType.CONST0:
            words[name] = constant_words(0, n_patterns)
        elif gate.gtype is GateType.CONST1:
            words[name] = constant_words(1, n_patterns)
        else:
            words[name] = evaluate_words(
                gate.gtype, [words[src] for src in gate.fanins]
            )
    return SimResult(netlist=netlist, n_patterns=n_patterns, words=words)


class SimOracle:
    """An activated (unlocked) design as a black-box oracle.

    Callable with a single ``{input: bit}`` assignment (the interface the
    oracle-guided SAT attack expects), returning ``{output: bit}``. The
    single-query path builds one uint64 word per input directly — no
    per-query vector allocation or pack/unpack round trip. For many
    accumulated queries (e.g. re-checking every recorded DIP),
    :meth:`batch` answers them all in one bit-parallel simulation.
    """

    def __init__(self, netlist: Netlist) -> None:
        if netlist.key_inputs:
            raise SimulationError(
                "oracle must be an activated (unlocked) design without key inputs"
            )
        self.netlist = netlist

    def __call__(self, assignment: Mapping[str, int]) -> dict[str, int]:
        netlist = self.netlist
        # One pattern: bit 0 of a single word carries the value, so the
        # packed representation of [b] is just the word b.
        words = {
            sig: np.array([assignment[sig] & 1], dtype=np.uint64)
            for sig in netlist.inputs
        }
        result = simulate(netlist, words, 1)
        one = np.uint64(1)
        return {o: int(result.words[o][0] & one) for o in netlist.outputs}

    def batch(
        self, assignments: list[Mapping[str, int]]
    ) -> list[dict[str, int]]:
        """Answer many queries in one bit-parallel simulation.

        Equivalent to ``[oracle(a) for a in assignments]`` but evaluates
        every gate once per 64 queries instead of once per query.
        """
        if not assignments:
            return []
        n = len(assignments)
        netlist = self.netlist
        packed = {
            sig: pack_bits(
                np.fromiter(
                    (a[sig] & 1 for a in assignments), dtype=np.uint8, count=n
                )
            )
            for sig in netlist.inputs
        }
        result = simulate(netlist, packed, n)
        outs = {o: unpack_bits(result.words[o], n) for o in netlist.outputs}
        return [
            {o: int(outs[o][j]) for o in netlist.outputs} for j in range(n)
        ]


def oracle_fn(netlist: Netlist) -> SimOracle:
    """Wrap an (unlocked) netlist as a black-box oracle.

    Returns a :class:`SimOracle`: call it per pattern, or use its
    :meth:`~SimOracle.batch` method to resolve accumulated queries in one
    simulation pass.
    """
    return SimOracle(netlist)
