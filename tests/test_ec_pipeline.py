"""Attack-backed fitness functions and the AutoLock pipeline."""

import pytest

from repro.circuits import load_circuit
from repro.ec import AutoLock, AutoLockConfig
from repro.ec.fitness import FitnessCache, MultiObjectiveFitness, SpecFitness
from repro.ec.genotype import random_genotype
from repro.sim import check_equivalence

from reference.netlist import validate_netlist


@pytest.fixture(scope="module")
def circuit():
    return load_circuit("rand_150_5")


def test_muxlink_fitness_deterministic_and_cached(circuit):
    cache = FitnessCache()
    fitness = SpecFitness(
        circuit, "muxlink", {"predictor": "bayes"}, attack_seed=1, cache=cache
    )
    genes = random_genotype(circuit, 6, seed_or_rng=1)
    first = fitness(genes)
    second = fitness(genes)
    assert first == second
    assert 0.0 <= first <= 1.0
    assert cache.hits == 1 and cache.misses == 1
    assert fitness.evaluations == 1, "second call must come from the cache"


def test_muxlink_fitness_distinguishes_genotypes(circuit):
    fitness = SpecFitness(circuit, "muxlink", {"predictor": "bayes"}, attack_seed=2)
    values = {
        fitness(random_genotype(circuit, 6, seed_or_rng=s)) for s in range(6)
    }
    assert len(values) > 1, "fitness landscape must not be flat"


def test_multiobjective_fitness_vector(circuit):
    fitness = MultiObjectiveFitness(circuit, predictor="bayes", attack_seed=3)
    genes = random_genotype(circuit, 6, seed_or_rng=2)
    objectives = fitness(genes)
    assert len(objectives) == fitness.n_objectives == 3
    accuracy, depth, anti_corruption = objectives
    assert 0.0 <= accuracy <= 1.0
    assert depth >= 0.0
    assert 0.0 <= anti_corruption <= 1.0
    # Objective subsets and custom orders are honoured.
    custom = MultiObjectiveFitness(
        circuit, predictor="bayes",
        objectives=("area", "muxlink"), attack_seed=3,
    )
    area, acc2 = custom(genes)
    assert area > 0.0, "adding MUXes must cost area"
    assert 0.0 <= acc2 <= 1.0
    with pytest.raises(ValueError, match="unknown objectives"):
        MultiObjectiveFitness(circuit, objectives=("bogus",))
    with pytest.raises(ValueError, match="at least one"):
        MultiObjectiveFitness(circuit, objectives=())


def test_multiobjective_depth_and_corruption_vary(circuit):
    """The E8 trade-off needs objectives that differ across genotypes."""
    fitness = MultiObjectiveFitness(
        circuit, predictor="bayes", objectives=("depth", "corruption"),
        attack_seed=4,
    )
    vectors = {fitness(random_genotype(circuit, 6, seed_or_rng=s)) for s in range(8)}
    depths = {v[0] for v in vectors}
    corr = {v[1] for v in vectors}
    assert len(depths) > 1, "depth objective is flat across genotypes"
    assert len(corr) > 1, "corruption objective is flat across genotypes"


def test_autolock_pipeline_small(circuit):
    config = AutoLockConfig(
        key_length=8,
        population_size=4,
        generations=3,
        fitness_predictor="bayes",
        report_predictor="bayes",
        report_ensemble=1,
        seed=11,
    )
    result = AutoLock(config).run(circuit)

    # Locked design is valid and functionally correct under its key.
    validate_netlist(result.locked.netlist)
    assert result.locked.key_length == 8
    res = check_equivalence(
        circuit, result.locked.netlist, key_right=dict(result.locked.key),
        seed_or_rng=1,
    )
    assert res.equal

    # Report accounting.
    assert len(result.baseline_population_accuracies) == 4
    assert result.fitness_evaluations > 0
    assert result.accuracy_drop_pp == pytest.approx(
        (result.baseline_accuracy - result.evolved_accuracy) * 100.0
    )
    assert "AutoLock" in result.summary()
    assert len(result.ga.history) == 3


def test_autolock_improves_fitness(circuit):
    """The GA champion's fitness must not be worse than generation 0's."""
    config = AutoLockConfig(
        key_length=8,
        population_size=5,
        generations=4,
        fitness_predictor="bayes",
        report_predictor="bayes",
        seed=13,
    )
    result = AutoLock(config).run(circuit)
    assert result.ga.best_fitness <= result.ga.initial_best + 1e-12
