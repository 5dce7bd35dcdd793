"""ISCAS-85 circuit profiles for the synthetic suite.

Interface widths, gate counts and depths follow the published ISCAS-85
characteristics (Brglez & Fujiwara, 1985); gate-type mixes approximate
each circuit's documented composition (e.g. the XOR-rich c499, the
AND/NOR multiplier fabric of c6288). The synthetic circuits carry a
``_syn`` suffix to make the substitution explicit everywhere they are
reported (see :mod:`repro.circuits` for why it is sound).
"""

from __future__ import annotations

from repro.circuits.generator import CircuitProfile

_NAND_HEAVY = {
    "NAND": 0.40, "NOR": 0.12, "AND": 0.14, "OR": 0.08,
    "NOT": 0.16, "XOR": 0.04, "XNOR": 0.02, "BUF": 0.04,
}
_XOR_RICH = {
    "NAND": 0.18, "NOR": 0.06, "AND": 0.22, "OR": 0.08,
    "NOT": 0.10, "XOR": 0.26, "XNOR": 0.06, "BUF": 0.04,
}
_MULTIPLIER = {
    "NAND": 0.06, "NOR": 0.36, "AND": 0.40, "OR": 0.02,
    "NOT": 0.12, "XOR": 0.02, "XNOR": 0.01, "BUF": 0.01,
}

#: name -> (n_inputs, n_outputs, n_gates, depth, type mix)
_SPECS: dict[str, tuple[int, int, int, int, dict[str, float]]] = {
    "c432_syn": (36, 7, 160, 17, _NAND_HEAVY),
    "c499_syn": (41, 32, 202, 11, _XOR_RICH),
    "c880_syn": (60, 26, 383, 24, _NAND_HEAVY),
    "c1355_syn": (41, 32, 546, 24, _XOR_RICH),
    "c1908_syn": (33, 25, 880, 40, _NAND_HEAVY),
    "c2670_syn": (233, 140, 1193, 32, _NAND_HEAVY),
    "c3540_syn": (50, 22, 1669, 47, _NAND_HEAVY),
    "c5315_syn": (178, 123, 2307, 49, _NAND_HEAVY),
    "c6288_syn": (32, 32, 2416, 124, _MULTIPLIER),
    "c7552_syn": (207, 108, 3512, 43, _NAND_HEAVY),
}

ISCAS85_PROFILES: dict[str, CircuitProfile] = {
    name: CircuitProfile(
        name=name,
        n_inputs=pi,
        n_outputs=po,
        n_gates=gates,
        target_depth=depth,
        type_weights=dict(mix),
        # Fixed, name-derived seed: the suite is fully deterministic.
        seed=sum(ord(c) for c in name) * 7919,
    )
    for name, (pi, po, gates, depth, mix) in _SPECS.items()
}
