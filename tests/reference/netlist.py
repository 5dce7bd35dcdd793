"""Test-side netlist checkers.

The runtime never needs these; the tests use them as ground truth:

* :func:`validate_netlist` / :func:`dangling_signals` — whole-netlist
  structural checks on what the locking schemes and the parser emit.
* :func:`simulate_bits` / :func:`bits` — the plain 0/1-vector front end
  over :func:`repro.sim.simulate`.
* :func:`mux_sites` — the two MUX sites a D-MUX insertion record
  describes, with their correct and decoy sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import NetlistError, SimulationError
from repro.netlist.gates import check_arity
from repro.sim.patterns import constant_words, pack_bits, unpack_bits
from repro.sim.simulator import SimResult, simulate


def validate_netlist(netlist, require_outputs: bool = True) -> None:
    """Check structural well-formedness of ``netlist``.

    Verifies (in order):

    1. input / key-input / gate names are unique across all three namespaces;
    2. every gate fanin references an existing signal;
    3. every gate respects its type's arity bounds;
    4. every declared output names an existing signal, without duplicates;
    5. the gate graph is acyclic;
    6. (optional) at least one primary output exists.
    """
    seen: set[str] = set()
    for kind, names in (
        ("input", netlist.inputs),
        ("key input", netlist.key_inputs),
        ("gate", list(netlist.gates)),
    ):
        for name in names:
            if name in seen:
                raise NetlistError(f"duplicate signal name {name!r} (as {kind})")
            seen.add(name)

    for gate in netlist.gates.values():
        check_arity(gate.gtype, len(gate.fanins))
        for src in gate.fanins:
            if src not in seen:
                raise NetlistError(
                    f"gate {gate.name!r} references undefined signal {src!r}"
                )

    out_seen: set[str] = set()
    for out in netlist.outputs:
        if out not in seen:
            raise NetlistError(f"output {out!r} has no driver")
        if out in out_seen:
            raise NetlistError(f"output {out!r} declared twice")
        out_seen.add(out)

    netlist.topological_order()  # raises on cycles

    if require_outputs and not netlist.outputs:
        raise NetlistError("netlist declares no primary outputs")


def dangling_signals(netlist) -> list[str]:
    """Signals that drive nothing and are not primary outputs.

    Dangling logic is legal but usually indicates a locking bug, so the
    tests check that transformations do not create any.
    """
    fanouts = netlist.fanouts()
    outputs = set(netlist.outputs)
    return sorted(
        s
        for s in netlist.signals()
        if not fanouts.get(s) and s not in outputs
    )


def simulate_bits(
    netlist,
    input_bits: Mapping[str, np.ndarray | list[int]],
    key: Mapping[str, int] | None = None,
) -> SimResult:
    """Simulate from per-pattern 0/1 vectors (packing handled internally).

    ``input_bits`` covers the primary inputs; ``key`` (if the design is
    locked) assigns a constant 0/1 per key input, broadcast to every
    pattern.
    """
    if not netlist.inputs:
        raise SimulationError("netlist has no primary inputs")
    if not input_bits:
        raise SimulationError(
            f"input_bits is empty; expected vectors for the "
            f"{len(netlist.inputs)} primary inputs"
        )
    missing = [s for s in netlist.inputs if s not in input_bits]
    if missing:
        raise SimulationError(
            f"input_bits is missing primary inputs {missing[:4]}"
            + ("..." if len(missing) > 4 else "")
        )
    unknown = [s for s in input_bits if s not in netlist.inputs]
    if unknown:
        hint = (
            "; key inputs belong in key=, not input_bits"
            if any(s in netlist.key_inputs for s in unknown)
            else ""
        )
        raise SimulationError(
            f"input_bits assigns non-input signals {unknown[:4]}"
            + ("..." if len(unknown) > 4 else "")
            + hint
        )
    lengths = {len(np.asarray(v)) for v in input_bits.values()}
    if len(lengths) != 1:
        raise SimulationError(
            f"input vectors have differing lengths: {sorted(lengths)}"
        )
    n_patterns = lengths.pop()

    packed: dict[str, np.ndarray] = {
        sig: pack_bits(np.asarray(vec)) for sig, vec in input_bits.items()
    }
    key = dict(key or {})
    missing_keys = [k for k in netlist.key_inputs if k not in key]
    if missing_keys:
        raise SimulationError(
            f"locked netlist requires key bits for {missing_keys[:4]}"
            + ("..." if len(missing_keys) > 4 else "")
        )
    extra = [k for k in key if k not in netlist.key_inputs]
    if extra:
        raise SimulationError(f"key assigns unknown key inputs {extra[:4]}")
    for name, bit in key.items():
        packed[name] = constant_words(int(bit) & 1, n_patterns)
    return simulate(netlist, packed, n_patterns)


def bits(result: SimResult, signal: str) -> np.ndarray:
    """Per-pattern 0/1 values of ``signal`` in ``result`` (uint8 vector)."""
    if signal not in result.words:
        raise SimulationError(f"no simulated value for signal {signal!r}")
    return unpack_bits(result.words[signal], result.n_patterns)


@dataclass(frozen=True)
class MuxSite:
    """One inserted MUX as the attacker sees it, plus ground truth.

    ``true_src``/``false_src`` are the correct and decoy data inputs of
    ``mux`` driving ``consumer``; ``key_bit`` is the correct value of
    ``key_name``.
    """

    mux: str
    consumer: str
    true_src: str
    false_src: str
    key_name: str
    key_bit: int


def mux_sites(rec) -> tuple[MuxSite, MuxSite]:
    """The two MUX sites a :class:`~repro.locking.dmux.MuxPairInsertion` created."""
    return (
        MuxSite(rec.mux_i, rec.g_i, rec.f_i, rec.f_j, rec.key_name_i, rec.key_bit_i),
        MuxSite(rec.mux_j, rec.g_j, rec.f_j, rec.f_i, rec.key_name_j, rec.key_bit_j),
    )
