"""Cross-module integration: the full workflow of Fig. 1 on one circuit.

load circuit → lock (baseline schemes + evolved) → attack with every
attack → metrics → serialise → reload → verify. This is the end-to-end
path a user of the library walks; each step feeds the next.
"""

import pytest

from repro.attacks import MuxLinkAttack, RandomGuessAttack, SatAttack, ScopeAttack
from repro.circuits import load_circuit
from repro.ec import AutoLock, AutoLockConfig
from repro.io import load_locked_design, save_locked_design
from repro.locking import DMuxLocking, RandomLogicLocking
from repro.metrics import corruption_report, overhead_report
from repro.netlist import write_verilog
from repro.sim import check_equivalence

from reference.netlist import validate_netlist


@pytest.fixture(scope="module")
def circuit():
    return load_circuit("rand_200_42")


@pytest.fixture(scope="module")
def locked_designs(circuit):
    return {
        "rll": RandomLogicLocking().lock(circuit, 12, seed_or_rng=1),
        "dmux": DMuxLocking("shared").lock(circuit, 12, seed_or_rng=1),
    }


def test_all_locked_designs_equivalent_under_key(circuit, locked_designs):
    for name, locked in locked_designs.items():
        validate_netlist(locked.netlist)
        res = check_equivalence(
            circuit, locked.netlist, key_right=dict(locked.key), seed_or_rng=2
        )
        assert res.equal, f"{name}: correct key must restore the function"


def test_attack_matrix_shapes(locked_designs):
    """The canonical attack-vs-scheme result shape from the literature."""
    rll, dmux = locked_designs["rll"], locked_designs["dmux"]

    scope_rll = ScopeAttack().run(rll, seed_or_rng=0)
    scope_dmux = ScopeAttack().run(dmux, seed_or_rng=0)
    assert scope_rll.accuracy == 1.0
    assert scope_dmux.accuracy == 0.5

    muxlink_rll = MuxLinkAttack(predictor="bayes").run(rll, seed_or_rng=0)
    assert muxlink_rll.extra["n_sites"] == 0

    sat_dmux = SatAttack().run(dmux, seed_or_rng=0)
    assert sat_dmux.extra["functional_equivalent"]

    random_dmux = RandomGuessAttack().run(dmux, seed_or_rng=0)
    assert 0.0 <= random_dmux.accuracy <= 1.0


def test_metrics_pipeline(circuit, locked_designs):
    for locked in locked_designs.values():
        oh = overhead_report(
            circuit, locked.netlist, locked.key, locked.scheme, 256, 0
        )
        assert oh.gate_overhead > 0
        cr = corruption_report(locked, n_wrong_keys=3, n_patterns=256, seed_or_rng=0)
        assert cr.correct_key_error == 0.0
        assert cr.mean_random_wrong_error > 0.0


def test_evolved_design_full_cycle(circuit, tmp_path):
    """AutoLock output survives serialisation and keeps every invariant."""
    config = AutoLockConfig(
        key_length=6, population_size=4, generations=2,
        fitness_predictor="bayes", report_predictor="bayes", seed=5,
    )
    result = AutoLock(config).run(circuit)
    locked = result.locked

    # Serialise + reload.
    sidecar = save_locked_design(locked, tmp_path)
    again = load_locked_design(sidecar)
    assert again.netlist.structurally_equal(locked.netlist)

    # Reloaded design still attackable and functionally intact.
    res = check_equivalence(
        circuit, again.netlist, key_right=dict(again.key), seed_or_rng=1
    )
    assert res.equal
    report = MuxLinkAttack(predictor="bayes").run(again, seed_or_rng=2)
    assert report.extra["n_sites"] == 12  # 6 shared-key genes -> 12 MUXes

    # Verilog export of the evolved design is well-formed.
    text = write_verilog(again.netlist)
    assert "endmodule" in text


def test_sat_attack_breaks_evolved_locking(circuit):
    """Evolution targets MuxLink, not the oracle-guided threat model —
    the SAT attack must still succeed (the paper's scoping)."""
    config = AutoLockConfig(
        key_length=5, population_size=4, generations=2,
        fitness_predictor="bayes", report_predictor="bayes", seed=6,
    )
    result = AutoLock(config).run(circuit)
    report = SatAttack().run(result.locked, seed_or_rng=0)
    assert report.extra["status"] == "completed"
    assert report.extra["functional_equivalent"]
