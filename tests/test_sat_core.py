"""CNF container, DPLL reference solver."""

import pytest

from repro.errors import CnfError
from reference.dpll import DpllSolver
from repro.sat import Cnf


# --------------------------------------------------------------------- Cnf
def test_new_vars_and_names():
    cnf = Cnf()
    a = cnf.new_var("a")
    b, c = cnf.new_vars(2, prefix="x")
    assert (a, b, c) == (1, 2, 3)
    assert cnf.var_names == {1: "a", 2: "x0", 3: "x1"}


def test_add_clause_validation():
    cnf = Cnf()
    a = cnf.new_var()
    with pytest.raises(CnfError):
        cnf.add_clause([0])
    with pytest.raises(CnfError):
        cnf.add_clause([a + 5])
    with pytest.raises(CnfError):
        cnf.add_clause([])


def test_tautology_dropped_and_duplicates_collapsed():
    cnf = Cnf()
    a, b = cnf.new_vars(2)
    cnf.add_clause([a, -a])
    assert cnf.n_clauses == 0
    cnf.add_clause([a, a, b])
    assert cnf.clauses == [(a, b)]


def test_evaluate():
    cnf = Cnf()
    a, b = cnf.new_vars(2)
    cnf.add_clauses([[a], [-a, b]])
    assert cnf.evaluate({1: True, 2: True})
    assert not cnf.evaluate({1: True, 2: False})
    with pytest.raises(CnfError):
        cnf.evaluate({1: True})


def test_copy_independent():
    cnf = Cnf()
    a = cnf.new_var()
    cnf.add_clause([a])
    dup = cnf.copy()
    dup.add_clause([-a])
    assert cnf.n_clauses == 1 and dup.n_clauses == 2


# -------------------------------------------------------------------- DPLL
def test_dpll_sat():
    cnf = Cnf()
    a, b = cnf.new_vars(2)
    cnf.add_clauses([[a, b], [-a, b]])
    model = DpllSolver(cnf).solve()
    assert model is not None and model[b]
    assert cnf.evaluate(model)


def test_dpll_unsat():
    cnf = Cnf()
    a = cnf.new_var()
    b = cnf.new_var()
    cnf.add_clauses([[a, b], [a, -b], [-a, b], [-a, -b]])
    assert DpllSolver(cnf).solve() is None


def test_dpll_model_is_total():
    cnf = Cnf()
    cnf.new_vars(4)
    cnf.add_clause([1])
    model = DpllSolver(cnf).solve()
    assert set(model) == {1, 2, 3, 4}
