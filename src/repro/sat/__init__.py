"""SAT substrate: CNF formulas, circuit encoding, and solvers.

Provides everything the oracle-guided SAT attack needs without external
solver binaries: a CNF container, Tseitin encoding of netlists, DIMACS
I/O, and a CDCL solver with watched literals, VSIDS, first-UIP learning
and Luby restarts.
"""

from repro.sat.cnf import Cnf
from repro.sat.tseitin import encode_netlist, CircuitEncoding
from repro.sat.dimacs import parse_dimacs, write_dimacs
from repro.sat.cdcl import CdclSolver, SolverResult, SolverStats

__all__ = [
    "Cnf",
    "encode_netlist",
    "CircuitEncoding",
    "parse_dimacs",
    "write_dimacs",
    "CdclSolver",
    "SolverResult",
    "SolverStats",
]
