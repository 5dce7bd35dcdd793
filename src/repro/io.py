"""Serialisation of locked designs.

A locked design is stored as a ``.bench`` netlist plus a JSON sidecar
carrying the key, the scheme identifier and the ground-truth insertion
records — the information a locking *designer* keeps in the vault while
shipping only the netlist to the foundry.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.errors import LockingError
from repro.locking.base import LockedCircuit
from repro.locking.dmux import MuxPairInsertion
from repro.locking.key import Key
from repro.locking.primitives import KeyGateInsertion
from repro.locking.rll import XorInsertion
from repro.netlist.bench import parse_bench_file, write_bench_file
from repro.netlist.netlist import Netlist

_INSERTION_TYPES = {
    "mux_pair": MuxPairInsertion,
    "xor": XorInsertion,
    "keygate": KeyGateInsertion,
}


def _insertion_tag(record) -> str:
    for tag, cls in _INSERTION_TYPES.items():
        # Exact-type match: KeyGateInsertion carries its own primitive
        # ``kind`` field, XorInsertion is the RLL net-cut record.
        if type(record) is cls:
            return tag
    raise LockingError(f"cannot serialise insertion record {type(record).__name__}")


def save_locked_design(locked: LockedCircuit, directory: str | Path) -> Path:
    """Write ``<name>.bench`` + ``<name>.lock.json`` into ``directory``.

    Returns the sidecar path. The original netlist is written alongside as
    ``<name>.original.bench`` so experiments can be replayed standalone.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = locked.netlist.name
    write_bench_file(locked.netlist, directory / f"{stem}.bench")
    write_bench_file(locked.original, directory / f"{stem}.original.bench")
    sidecar = {
        "scheme": locked.scheme,
        "design": locked.netlist.name,
        "original": locked.original.name,
        "key_names": list(locked.key.names),
        "key_bits": list(locked.key.bits),
        "insertions": [
            {"type": _insertion_tag(rec), **dataclasses.asdict(rec)}
            for rec in locked.insertions
        ],
    }
    path = directory / f"{stem}.lock.json"
    path.write_text(json.dumps(sidecar, indent=2) + "\n")
    return path


def _record_from_dict(tag: str, data: dict):
    cls = _INSERTION_TYPES.get(tag)
    if cls is None:
        raise LockingError(f"unknown insertion record type {tag!r}")
    if cls is XorInsertion:
        data = dict(data)
        data["rewired_pins"] = tuple(
            (gate, int(pin)) for gate, pin in data["rewired_pins"]
        )
    return cls(**data)


def load_locked_design(sidecar_path: str | Path) -> LockedCircuit:
    """Load a locked design previously written by :func:`save_locked_design`.

    Raises :class:`LockingError` if the sidecar's key names are not
    exactly the netlist's key inputs.
    """
    sidecar_path = Path(sidecar_path)
    data = json.loads(sidecar_path.read_text())
    stem = data["design"]
    directory = sidecar_path.parent
    netlist: Netlist = parse_bench_file(directory / f"{stem}.bench", stem)
    original: Netlist = parse_bench_file(
        directory / f"{stem}.original.bench", data["original"]
    )
    key = Key(tuple(data["key_names"]), tuple(int(b) for b in data["key_bits"]))
    missing = sorted(set(netlist.key_inputs) - set(key.names))
    extra = sorted(set(key.names) - set(netlist.key_inputs))
    if missing or extra:
        raise LockingError(
            f"{sidecar_path.name}: key names do not match {stem}.bench's key "
            f"inputs (missing {missing}, extra {extra})"
        )
    insertions = [
        _record_from_dict(rec.pop("type"), rec) for rec in data["insertions"]
    ]
    return LockedCircuit(
        netlist=netlist,
        key=key,
        scheme=data["scheme"],
        original=original,
        insertions=insertions,
    )
