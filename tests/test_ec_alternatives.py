"""Alternative single-trajectory optimisers (research plan bullet 5)."""

import dataclasses
import zlib

import pytest

from repro.circuits import load_circuit
from repro.ec import HillClimber, RandomSearch, SimulatedAnnealing
from repro.ec.evaluator import AsyncEvaluator, SerialEvaluator
from repro.ec.genotype import genotype_is_valid
from repro.errors import EvolutionError


@pytest.fixture(scope="module")
def circuit():
    return load_circuit("rand_120_8")


def ones_fitness(genes):
    return sum(g.k for g in genes) / len(genes)


@pytest.mark.parametrize("searcher_cls", [RandomSearch, HillClimber, SimulatedAnnealing],
                         ids=["random", "hill", "anneal"])
def test_search_improves_and_tracks_budget(searcher_cls, circuit):
    searcher = searcher_cls(key_length=8, evaluations=40, seed=3)
    result = searcher.run(circuit, ones_fitness)
    assert result.evaluations == 40
    assert len(result.trajectory) == 40
    # Trajectory records best-so-far: non-increasing.
    assert all(b <= a + 1e-12 for a, b in zip(result.trajectory, result.trajectory[1:]))
    assert result.best_fitness == result.trajectory[-1]
    assert result.best_fitness <= result.trajectory[0]
    assert genotype_is_valid(circuit, result.best_genotype)
    assert ones_fitness(result.best_genotype) == pytest.approx(result.best_fitness)


def test_hill_climber_beats_random_on_smooth_landscape(circuit):
    """On the trivially smooth bit-count landscape, local search with key
    flips must reach the optimum while random search rarely does at K=12."""
    from repro.ec.operators import MutationConfig

    hill = HillClimber(
        key_length=12, evaluations=120,
        mutation=MutationConfig(flip_key=0.2, relocate=0.0, reroute_partner=0.0),
        seed=5,
    ).run(circuit, ones_fitness)
    rand = RandomSearch(key_length=12, evaluations=120, seed=5).run(
        circuit, ones_fitness
    )
    assert hill.best_fitness <= rand.best_fitness
    assert hill.best_fitness <= 1.0 / 12 + 1e-9


def test_annealing_accepts_then_converges(circuit):
    result = SimulatedAnnealing(
        key_length=8, evaluations=60, t_start=0.2, t_end=0.01, seed=7
    ).run(circuit, ones_fitness)
    assert result.best_fitness <= result.trajectory[0]


def test_parameter_validation(circuit):
    with pytest.raises(EvolutionError):
        RandomSearch(key_length=8, evaluations=0)
    with pytest.raises(EvolutionError):
        SimulatedAnnealing(key_length=8, evaluations=10, t_start=0.0)
    with pytest.raises(EvolutionError):
        SimulatedAnnealing(key_length=8, evaluations=10, t_start=0.1, t_end=0.5)


def test_determinism(circuit):
    a = SimulatedAnnealing(key_length=6, evaluations=30, seed=11).run(
        circuit, ones_fitness
    )
    b = SimulatedAnnealing(key_length=6, evaluations=30, seed=11).run(
        circuit, ones_fitness
    )
    assert a.best_fitness == b.best_fitness
    assert a.trajectory == b.trajectory


def gene_fitness(genes):
    """A rugged landscape: each gene's key bit plus a hash of its fields."""
    return sum(
        g.k + zlib.crc32(repr(dataclasses.astuple(g)).encode()) % 1000 / 1000
        for g in genes
    ) / (2 * len(genes))


#: best-so-far trajectories of ``gene_fitness`` on rand_100_7 (K=8, 30
#: evaluations, seed 11), captured before annealing reused the hill
#: climber's proposal rule and default mutation.
HILL_TRAJECTORY = [
    0.5890625, 0.53725, 0.4743125, 0.4743125, 0.4743125, 0.4743125,
    0.4670625, 0.4670625, 0.4670625, 0.407625, 0.407625, 0.3716875,
    0.3716875, 0.3716875, 0.3716875, 0.3716875, 0.3716875, 0.3716875,
    0.36575, 0.36575, 0.36575, 0.31175, 0.31175, 0.3045625, 0.3045625,
    0.3045625, 0.3045625, 0.3044375, 0.3044375, 0.3044375,
]
ANNEAL_TRAJECTORY = [
    0.5890625, 0.53725, 0.4743125, 0.4743125, 0.4529375, 0.4469375,
    0.40575, 0.3503125, 0.3503125, 0.33625, 0.33625, 0.27575, 0.27575,
    0.27575, 0.27575, 0.27575, 0.27575, 0.27575, 0.27575, 0.27575,
    0.27575, 0.27575, 0.27575, 0.27575, 0.27575, 0.1815, 0.1815, 0.1815,
    0.1815, 0.1815,
]


@pytest.mark.parametrize(
    "searcher_cls, golden",
    [(HillClimber, HILL_TRAJECTORY), (SimulatedAnnealing, ANNEAL_TRAJECTORY)],
    ids=["hill", "anneal"],
)
def test_sequential_search_trajectory_golden(searcher_cls, golden):
    result = searcher_cls(key_length=8, evaluations=30, seed=11).run(
        load_circuit("rand_100_7"), gene_fitness
    )
    assert result.trajectory == pytest.approx(golden, abs=1e-12)
    assert result.best_fitness == pytest.approx(golden[-1], abs=1e-12)


@pytest.mark.parametrize(
    "searcher_cls", [RandomSearch, HillClimber, SimulatedAnnealing],
    ids=["random", "hill", "anneal"],
)
def test_trajectory_search_pool_matches_serial(searcher_cls):
    """The searchers walk one trajectory whatever the evaluator: a pool
    (random search pipelining its whole budget) gives the serial result."""
    circuit = load_circuit("rand_100_7")

    def search(evaluator):
        result = searcher_cls(
            key_length=8, evaluations=25, seed=11,
            alphabet=("mux", "xor", "and_or"),
        ).run(circuit, gene_fitness, evaluator=evaluator)
        return dataclasses.replace(result, runtime_s=0.0)

    serial = search(SerialEvaluator())
    with AsyncEvaluator(workers=2) as evaluator:
        pooled = search(evaluator)
    assert pooled == serial
    assert serial.evaluations == len(serial.trajectory) == 25
