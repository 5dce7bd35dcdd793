"""SAT substrate: CNF formulas, circuit encoding, and solvers.

Provides everything the oracle-guided SAT attack needs without external
solver binaries: a CNF container, Tseitin encoding of netlists, and a
CDCL solver with watched literals, VSIDS, first-UIP learning
and Luby restarts.
"""

from repro.sat.cnf import Cnf
from repro.sat.tseitin import encode_netlist, CircuitEncoding
from repro.sat.cdcl import CdclSolver, SolverResult, SolverStats

__all__ = [
    "Cnf",
    "encode_netlist",
    "CircuitEncoding",
    "CdclSolver",
    "SolverResult",
    "SolverStats",
]
