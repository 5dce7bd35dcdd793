"""Reference DPLL solver.

Deliberately simple (unit propagation + pure-literal elimination +
chronological backtracking) so its behaviour is easy to audit. Oracle
for :class:`repro.sat.cdcl.CdclSolver` on random formulas.
"""

from __future__ import annotations

from repro.sat.cnf import Cnf


class DpllSolver:
    """Classic recursive DPLL over a :class:`Cnf`."""

    def __init__(self, cnf: Cnf) -> None:
        self._cnf = cnf

    def solve(self) -> dict[int, bool] | None:
        """Return a satisfying assignment (total) or ``None`` if UNSAT."""
        clauses = [list(c) for c in self._cnf.clauses]
        model = self._search(clauses, {})
        if model is None:
            return None
        # Extend to a total assignment: unconstrained variables default False.
        for var in range(1, self._cnf.n_vars + 1):
            model.setdefault(var, False)
        return model

    def _search(
        self, clauses: list[list[int]], assignment: dict[int, bool]
    ) -> dict[int, bool] | None:
        clauses, assignment, ok = self._propagate(clauses, dict(assignment))
        if not ok:
            return None
        if not clauses:
            return assignment

        # Pure-literal elimination: a variable occurring with one polarity
        # only can be satisfied greedily.
        polarity: dict[int, int] = {}
        for clause in clauses:
            for lit in clause:
                var = abs(lit)
                polarity[var] = polarity.get(var, 0) | (1 if lit > 0 else 2)
        pures = [v for v, p in polarity.items() if p in (1, 2)]
        if pures:
            for var in pures:
                assignment[var] = polarity[var] == 1
            clauses = self._reduce(clauses, assignment)
            return self._search(clauses, assignment)

        # Branch on the first literal of the shortest clause.
        branch_clause = min(clauses, key=len)
        lit = branch_clause[0]
        for value in (lit > 0, lit <= 0):
            trial = dict(assignment)
            trial[abs(lit)] = value
            result = self._search(self._reduce(clauses, trial), trial)
            if result is not None:
                return result
        return None

    @staticmethod
    def _reduce(
        clauses: list[list[int]], assignment: dict[int, bool]
    ) -> list[list[int]]:
        reduced: list[list[int]] = []
        for clause in clauses:
            new_clause: list[int] = []
            satisfied = False
            for lit in clause:
                var = abs(lit)
                if var in assignment:
                    if assignment[var] == (lit > 0):
                        satisfied = True
                        break
                else:
                    new_clause.append(lit)
            if not satisfied:
                reduced.append(new_clause)
        return reduced

    def _propagate(
        self, clauses: list[list[int]], assignment: dict[int, bool]
    ) -> tuple[list[list[int]], dict[int, bool], bool]:
        """Exhaustive unit propagation. Returns (clauses, assignment, ok)."""
        changed = True
        while changed:
            changed = False
            clauses = self._reduce(clauses, assignment)
            for clause in clauses:
                if not clause:
                    return clauses, assignment, False
                if len(clause) == 1:
                    lit = clause[0]
                    assignment[abs(lit)] = lit > 0
                    changed = True
                    break
        return clauses, assignment, True
