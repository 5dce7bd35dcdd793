"""Gate-level netlist substrate.

This package provides the combinational-netlist data model used by every
other subsystem: parsing and writing ISCAS ``.bench`` files, statistics,
and the mutation primitives (gate insertion and pin rewiring) that the
locking schemes are built on.
"""

from repro.netlist.gates import Gate, GateType
from repro.netlist.netlist import Netlist
from repro.netlist.bench import parse_bench, parse_bench_file, write_bench, write_bench_file
from repro.netlist.verilog import write_verilog
from repro.netlist.stats import NetlistStats, compute_stats

__all__ = [
    "Gate",
    "GateType",
    "Netlist",
    "parse_bench",
    "parse_bench_file",
    "write_bench",
    "write_bench_file",
    "write_verilog",
    "NetlistStats",
    "compute_stats",
]
