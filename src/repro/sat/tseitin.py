"""Tseitin encoding of netlists into CNF.

Each signal gets one CNF variable; each gate contributes the clauses that
make its output variable equivalent to its Boolean function. The encoder
supports *bindings* — pre-assigned variables for chosen signals — which is
how the SAT attack instantiates two copies of a locked circuit that share
primary-input variables but carry independent key variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import CnfError
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.sat.cnf import Cnf


@dataclass(frozen=True)
class CircuitEncoding:
    """Result of :func:`encode_netlist`: the signal → CNF-variable map."""

    netlist: Netlist
    cnf: Cnf
    var_of: dict[str, int]

    def lit(self, signal: str, value: bool | int = True) -> int:
        """Literal asserting ``signal == value``."""
        if signal not in self.var_of:
            raise CnfError(f"signal {signal!r} was not encoded")
        var = self.var_of[signal]
        return var if value else -var


def _encode_and(cnf: Cnf, y: int, ins: list[int], negate: bool) -> None:
    """y = AND(ins), or y = NAND(ins) when ``negate``."""
    y_out = -y if negate else y
    for a in ins:
        cnf.add_clause([-y_out, a])
    cnf.add_clause([y_out] + [-a for a in ins])


def _encode_or(cnf: Cnf, y: int, ins: list[int], negate: bool) -> None:
    """y = OR(ins), or y = NOR(ins) when ``negate``."""
    y_out = -y if negate else y
    for a in ins:
        cnf.add_clause([y_out, -a])
    cnf.add_clause([-y_out] + list(ins))


def _encode_xor2(cnf: Cnf, y: int, a: int, b: int) -> None:
    """y = a XOR b."""
    cnf.add_clauses(
        [[-y, a, b], [-y, -a, -b], [y, -a, b], [y, a, -b]]
    )


def _encode_xor(cnf: Cnf, y: int, ins: list[int], negate: bool) -> None:
    """y = XOR(ins) (parity), or XNOR when ``negate``; n-ary via a chain."""
    acc = ins[0]
    for nxt in ins[1:-1]:
        tmp = cnf.new_var()
        _encode_xor2(cnf, tmp, acc, nxt)
        acc = tmp
    target = -y if negate else y
    _encode_xor2(cnf, target, acc, ins[-1])


def _encode_mux(cnf: Cnf, y: int, s: int, d0: int, d1: int) -> None:
    """y = d0 when s=0, d1 when s=1 (with the two redundant strengthening
    clauses that help unit propagation)."""
    cnf.add_clauses(
        [
            [-y, s, d0],
            [-y, -s, d1],
            [y, s, -d0],
            [y, -s, -d1],
            [y, -d0, -d1],
            [-y, d0, d1],
        ]
    )


def encode_netlist(
    netlist: Netlist,
    cnf: Cnf | None = None,
    bindings: Mapping[str, int] | None = None,
    name_prefix: str = "",
) -> CircuitEncoding:
    """Encode ``netlist`` into ``cnf`` (a fresh formula if ``None``).

    Parameters
    ----------
    bindings:
        Pre-assigned CNF variables for selected signals (typically primary
        inputs shared between circuit copies). All other signals get fresh
        variables.
    name_prefix:
        Prefix for the debug names of freshly created variables, so the two
        copies in a miter can be told apart in ``Cnf.var_names``.
    """
    if cnf is None:
        cnf = Cnf()
    var_of: dict[str, int] = {}
    bindings = dict(bindings or {})
    for sig, var in bindings.items():
        if not netlist.is_signal(sig):
            raise CnfError(f"binding for unknown signal {sig!r}")
        if not 1 <= var <= cnf.n_vars:
            raise CnfError(f"binding {sig!r} -> {var} is not an allocated variable")
        var_of[sig] = var

    def var_for(sig: str) -> int:
        if sig not in var_of:
            var_of[sig] = cnf.new_var(f"{name_prefix}{sig}")
        return var_of[sig]

    for sig in netlist.all_inputs:
        var_for(sig)

    for name in netlist.topological_order():
        gate = netlist.gates[name]
        y = var_for(name)
        ins = [var_for(src) for src in gate.fanins]
        t = gate.gtype
        if t is GateType.CONST0:
            cnf.add_clause([-y])
        elif t is GateType.CONST1:
            cnf.add_clause([y])
        elif t is GateType.BUF:
            cnf.add_clauses([[-y, ins[0]], [y, -ins[0]]])
        elif t is GateType.NOT:
            cnf.add_clauses([[-y, -ins[0]], [y, ins[0]]])
        elif t in (GateType.AND, GateType.NAND):
            _encode_and(cnf, y, ins, negate=t is GateType.NAND)
        elif t in (GateType.OR, GateType.NOR):
            _encode_or(cnf, y, ins, negate=t is GateType.NOR)
        elif t in (GateType.XOR, GateType.XNOR):
            _encode_xor(cnf, y, ins, negate=t is GateType.XNOR)
        elif t is GateType.MUX:
            _encode_mux(cnf, y, *ins)
        else:  # pragma: no cover - exhaustive over GateType
            raise CnfError(f"cannot encode gate type {t!r}")
    return CircuitEncoding(netlist=netlist, cnf=cnf, var_of=var_of)
