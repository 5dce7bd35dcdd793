"""ISCAS ``.bench`` format parser and writer.

The ``.bench`` format is the lingua franca of the logic-locking literature
(ISCAS-85/89 suites, the D-MUX and MuxLink artifacts all ship it):

.. code-block:: text

    # c17
    INPUT(1)
    INPUT(2)
    OUTPUT(22)
    22 = NAND(10, 16)
    10 = NAND(1, 3)

Extensions honoured here:

* ``MUX(s, d0, d1)`` gates (used by MUX-based locking artifacts).
* ``KEYINPUT(k0)`` lines, our explicit marker for key inputs when writing
  locked designs. On parse, inputs named ``keyinput*`` (the convention used
  by the published locked benchmarks) are also classified as key inputs.
* ``CONST0()`` / ``CONST1()`` constant drivers.

Sequential primitives (``DFF``/``LATCH``) are rejected with a clear
message: the simulator, the SAT attack's Tseitin encoding and every
locking primitive model combinational logic only, as the ISCAS-85
evaluation in the paper does.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.errors import BenchParseError, NetlistError
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist

_NAME = r"[A-Za-z0-9_\.\$\[\]]+"
_INPUT_RE = re.compile(rf"^INPUT\s*\(\s*({_NAME})\s*\)$", re.IGNORECASE)
_KEYINPUT_RE = re.compile(rf"^KEYINPUT\s*\(\s*({_NAME})\s*\)$", re.IGNORECASE)
_OUTPUT_RE = re.compile(rf"^OUTPUT\s*\(\s*({_NAME})\s*\)$", re.IGNORECASE)
_GATE_RE = re.compile(
    rf"^({_NAME})\s*=\s*([A-Za-z01]+)\s*\(\s*([^)]*)\)$"
)

_TYPE_ALIASES = {
    "BUFF": "BUF",
    "BUFFER": "BUF",
    "INV": "NOT",
}

#: Inputs whose name matches this pattern are treated as key inputs when no
#: explicit ``KEYINPUT`` marker is present (convention of published locked
#: benchmarks, e.g. ``keyinput0 ... keyinput63``).
_KEY_NAME_RE = re.compile(r"^keyinput\d*$", re.IGNORECASE)


def parse_bench(text: str, name: str = "design") -> Netlist:
    """Parse ``.bench`` source text into a :class:`Netlist`.

    Raises :class:`BenchParseError` on malformed input, with the line
    number of the offending line (a combinational cycle spans several
    lines, so that error carries none).
    """
    netlist = Netlist(name)
    pending_outputs: list[tuple[str, int]] = []
    gate_lines: list[tuple[str, GateType, list[str], int]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _INPUT_RE.match(line)
        key = _KEYINPUT_RE.match(line)
        if m or key:
            sig = (m or key).group(1)
            if netlist.is_signal(sig):
                raise BenchParseError(f"input {sig!r} declared twice", line_no)
            if key or _KEY_NAME_RE.match(sig):
                netlist.add_key_input(sig)
            else:
                netlist.add_input(sig)
            continue
        m = _OUTPUT_RE.match(line)
        if m:
            pending_outputs.append((m.group(1), line_no))
            continue
        m = _GATE_RE.match(line)
        if m:
            out, type_str, args_str = m.group(1), m.group(2).upper(), m.group(3)
            type_str = _TYPE_ALIASES.get(type_str, type_str)
            if type_str in ("DFF", "LATCH"):
                raise BenchParseError(
                    f"sequential element {type_str} is not supported: "
                    "only combinational netlists can be simulated, "
                    "attacked and locked; cut flip-flops into "
                    "pseudo-primary inputs/outputs first",
                    line_no,
                )
            try:
                gtype = GateType(type_str)
            except ValueError:
                raise BenchParseError(f"unknown gate type {type_str!r}", line_no)
            fanins = [a.strip() for a in args_str.split(",") if a.strip()]
            gate_lines.append((out, gtype, fanins, line_no))
            continue
        raise BenchParseError(f"unrecognised line: {raw.strip()!r}", line_no)

    # Gates may reference signals defined later in the file; declare all gate
    # outputs first, then validate fanins.
    declared = set(netlist.inputs) | set(netlist.key_inputs)
    for out, _gtype, _fanins, line_no in gate_lines:
        if out in declared:
            raise BenchParseError(f"signal {out!r} defined twice", line_no)
        declared.add(out)
    for out, gtype, fanins, line_no in gate_lines:
        for src in fanins:
            if src not in declared:
                raise BenchParseError(
                    f"gate {out!r} references undefined signal {src!r}", line_no
                )

    # Insert directly (bypassing add_gate's existence checks, already done).
    from repro.netlist.gates import Gate, check_arity

    for out, gtype, fanins, line_no in gate_lines:
        try:
            check_arity(gtype, len(fanins))
        except Exception as exc:
            raise BenchParseError(str(exc), line_no)
        netlist.gates[out] = Gate(out, gtype, tuple(fanins))
    netlist._invalidate()

    for sig, line_no in pending_outputs:
        if not netlist.is_signal(sig):
            raise BenchParseError(f"OUTPUT({sig}) has no driver", line_no)
        if sig in netlist.outputs:
            raise BenchParseError(f"OUTPUT({sig}) declared twice", line_no)
        netlist.outputs.append(sig)

    # Confirm acyclicity eagerly so downstream code can trust the parse.
    try:
        netlist.topological_order()
    except NetlistError as exc:
        raise BenchParseError(str(exc)) from None
    return netlist


def parse_bench_file(path: str | Path, name: str | None = None) -> Netlist:
    """Parse a ``.bench`` file; the design name defaults to the file stem."""
    path = Path(path)
    return parse_bench(path.read_text(), name or path.stem)


def write_bench(netlist: Netlist, include_key_marker: bool = True) -> str:
    """Serialise ``netlist`` to ``.bench`` text.

    ``include_key_marker=True`` writes key inputs as ``KEYINPUT(..)`` lines
    (lossless round-trip); ``False`` writes them as plain ``INPUT`` lines
    for compatibility with third-party tools.
    """
    lines = [f"# {netlist.name}"]
    lines += [
        f"# {len(netlist.inputs)} inputs, {len(netlist.key_inputs)} key inputs, "
        f"{len(netlist.outputs)} outputs, {len(netlist.gates)} gates"
    ]
    for sig in netlist.inputs:
        lines.append(f"INPUT({sig})")
    for sig in netlist.key_inputs:
        marker = "KEYINPUT" if include_key_marker else "INPUT"
        lines.append(f"{marker}({sig})")
    for sig in netlist.outputs:
        lines.append(f"OUTPUT({sig})")
    lines.append("")
    for name in netlist.topological_order():
        gate = netlist.gates[name]
        lines.append(f"{name} = {gate.gtype.value}({', '.join(gate.fanins)})")
    return "\n".join(lines) + "\n"


def write_bench_file(netlist: Netlist, path: str | Path, **kwargs) -> None:
    """Write ``netlist`` to ``path`` in ``.bench`` format."""
    Path(path).write_text(write_bench(netlist, **kwargs))
