"""GA and NSGA-II engines on cheap synthetic fitness functions.

Using attack-free fitness keeps these tests fast while still exercising
the full evolutionary machinery (selection, crossover, mutation, repair,
elitism, early stopping, Pareto ranking).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ec.fitness import FitnessCache
from repro.ec.ga import GaConfig, GeneticAlgorithm
from repro.ec.genotype import genotype_is_valid
from repro.ec.nsga2 import (
    Nsga2,
    Nsga2Config,
    crowding_distance,
    dominates,
    fast_non_dominated_sort,
)
from repro.errors import EvolutionError


def ones_fitness(genes):
    """Minimised by all key bits = 0."""
    return sum(g.k for g in genes) / len(genes)


# ------------------------------------------------------------------- GA
def test_ga_config_validation():
    with pytest.raises(EvolutionError):
        GaConfig(population_size=1)
    with pytest.raises(EvolutionError):
        GaConfig(population_size=4, elitism=4)
    with pytest.raises(EvolutionError):
        GaConfig(selection="bogus")
    with pytest.raises(EvolutionError):
        GaConfig(crossover="bogus")
    with pytest.raises(EvolutionError):
        GaConfig(mutation="bogus")
    with pytest.raises(EvolutionError):
        GaConfig(crossover_rate=1.5)


@pytest.mark.parametrize("generations", [0, -1])
def test_ga_config_rejects_generations_below_one(generations):
    # Both loop modes must run a generation; at 0 they would disagree
    # on how much of the initial population gets evaluated.
    with pytest.raises(EvolutionError, match="generations must be >= 1"):
        GaConfig(generations=generations, population_size=4)


def test_ga_minimises_key_bits(rand100):
    config = GaConfig(
        key_length=10,
        population_size=10,
        generations=12,
        mutation="key_only",
        seed=1,
    )
    result = GeneticAlgorithm(config).run(rand100, ones_fitness)
    assert result.best_fitness <= 0.1, "GA must drive key bits toward zero"
    assert result.best_fitness <= result.initial_best
    assert len(result.history) <= 12
    assert result.evaluations > 0
    assert genotype_is_valid(rand100, result.best_genotype)


def test_ga_history_monotone_best(rand100):
    config = GaConfig(key_length=8, population_size=8, generations=8,
                      mutation="key_only", elitism=2, seed=2)
    result = GeneticAlgorithm(config).run(rand100, ones_fitness)
    bests = [s.best for s in result.history]
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bests, bests[1:])), (
        "elitism must make best fitness non-increasing"
    )


def test_ga_early_stop_on_target(rand100):
    config = GaConfig(key_length=6, population_size=8, generations=50,
                      mutation="key_only", target_fitness=0.0, seed=3)
    result = GeneticAlgorithm(config).run(rand100, ones_fitness)
    assert result.best_fitness == 0.0
    assert len(result.history) < 50


def test_ga_patience_stop(rand100):
    constant = lambda genes: 1.0
    config = GaConfig(key_length=4, population_size=6, generations=60,
                      patience=3, seed=4)
    result = GeneticAlgorithm(config).run(rand100, constant)
    assert result.stopped_early
    assert len(result.history) <= 6


def test_ga_initial_population_respected(rand100):
    from repro.ec.genotype import random_genotype

    initial = [random_genotype(rand100, 5, seed_or_rng=s) for s in range(4)]
    config = GaConfig(key_length=5, population_size=6, generations=2, seed=5)
    result = GeneticAlgorithm(config).run(
        rand100, ones_fitness, initial_population=initial
    )
    assert result.evaluations == 12


def test_ga_initial_population_length_check(rand100):
    from repro.ec.genotype import random_genotype

    config = GaConfig(key_length=5, population_size=4, generations=1, seed=0)
    bad = [random_genotype(rand100, 3, seed_or_rng=1)]
    with pytest.raises(EvolutionError, match="genes"):
        GeneticAlgorithm(config).run(rand100, ones_fitness, initial_population=bad)


def test_ga_hall_of_fame_unique_and_sorted(rand100):
    config = GaConfig(key_length=6, population_size=8, generations=6,
                      mutation="key_only", seed=6)
    result = GeneticAlgorithm(config).run(rand100, ones_fitness)
    fits = [f for f, _ in result.hall_of_fame]
    assert fits == sorted(fits)
    from repro.ec.genotype import genotype_key

    keys = [genotype_key(g) for _, g in result.hall_of_fame]
    assert len(keys) == len(set(keys))


def test_fitness_cache():
    cache = FitnessCache()
    assert cache.get(("a",)) is None
    cache.put(("a",), 0.5)
    assert cache.get(("a",)) == 0.5
    assert cache.hits == 1 and cache.misses == 1


# ----------------------------------------------------------------- NSGA-II
def test_dominates():
    assert dominates((0.1, 0.2), (0.2, 0.3))
    assert dominates((0.1, 0.3), (0.1, 0.4))
    assert not dominates((0.1, 0.4), (0.2, 0.3))
    assert not dominates((0.1, 0.2), (0.1, 0.2))
    with pytest.raises(EvolutionError):
        dominates((0.1,), (0.1, 0.2))


def test_fast_non_dominated_sort_matches_bruteforce():
    objs = [(1, 5), (2, 2), (5, 1), (3, 3), (4, 4), (2, 6)]
    fronts = fast_non_dominated_sort(objs)
    assert sorted(fronts[0]) == [0, 1, 2]
    assert sorted(fronts[1]) == [3, 5]
    assert fronts[2] == [4]


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 10), st.integers(0, 10)), min_size=1, max_size=20
))
def test_front_zero_is_exactly_nondominated(objs):
    fronts = fast_non_dominated_sort(objs)
    nondominated = {
        i for i in range(len(objs))
        if not any(dominates(objs[j], objs[i]) for j in range(len(objs)))
    }
    assert set(fronts[0]) == nondominated
    assert sorted(i for f in fronts for i in f) == list(range(len(objs)))


def test_crowding_distance_boundaries():
    objs = [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0), (0.6, 0.6)]
    front = [0, 1, 2]
    crowd = crowding_distance(objs, front)
    assert crowd[0] == float("inf") and crowd[2] == float("inf")
    assert 0 < crowd[1] < float("inf")
    assert crowding_distance(objs, [0, 1]) == {0: float("inf"), 1: float("inf")}


def test_nsga2_config_validation():
    with pytest.raises(EvolutionError):
        Nsga2Config(population_size=2)
    with pytest.raises(EvolutionError):
        Nsga2Config(crossover="bogus")


def test_nsga2_front_tradeoff(rand100):
    """Two antagonistic objectives -> front must contain both extremes."""

    def two_objectives(genes):
        ones = sum(g.k for g in genes) / len(genes)
        return (ones, 1.0 - ones)

    config = Nsga2Config(key_length=8, population_size=12, generations=6, seed=7)
    result = Nsga2(config).run(rand100, two_objectives)
    assert result.front_genotypes, "front cannot be empty"
    # Front must be mutually non-dominated.
    for i, a in enumerate(result.front_objectives):
        for j, b in enumerate(result.front_objectives):
            if i != j:
                assert not dominates(a, b)
    firsts = [o[0] for o in result.front_objectives]
    assert min(firsts) <= 0.25 and max(firsts) >= 0.75, (
        f"front lacks spread: {sorted(firsts)}"
    )
    assert result.evaluations > 0
    assert len(result.history) == 6
