"""Adversarial co-evolution: genomes, the arms race, resume, CLI."""

import hashlib
import json
from contextlib import closing
from pathlib import Path

import pytest

from repro.api import (
    EXPERIMENT_NAMESPACE,
    ExperimentSpec,
    SweepSpec,
    read_results,
    run_experiment,
    run_sweep,
)
from repro.attacks.scope import ScopeAttack
from repro.circuits import load_circuit
from repro.coevo import AttackerGenome
from repro.coevo.genome import baseline_genome
from repro.ec.fitness import FitnessCache, SpecFitness, scope_scored_bits
from repro.ec.genotype import genotype_key, random_genotype
from repro.errors import EvolutionError, RegistryError, SpecError
from repro.store import open_store
from repro.utils.rng import derive_rng

from reference.fitness import LockVsPanelFitness

#: small but real arms race: three epochs on the registered 100-gate
#: circuit, muxlink/bayes baseline — the seed is chosen so the epoch-0
#: elite measurably loses to the final best attacker (see
#: test_arms_race_hardens_locks).
EPOCHS = 3
BASE = ExperimentSpec(
    circuit="rand_100_7",
    key_length=8,
    engine="coevo",
    engine_params=dict(
        epochs=EPOCHS,
        lock_population=8,
        lock_generations=3,
        attacker_population=4,
        elite_size=1,
        panel_size=2,
        hall_size=4,
    ),
    seed=7,
    # The lock GA is sync-generational at any worker count.
    async_mode=False,
)


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory):
    """One cold serial run on a fresh store, with artifacts."""
    root = tmp_path_factory.mktemp("coevo")
    spec = BASE.with_updates(cache_path=str(root / "coevo.sqlite"))
    return run_experiment(spec, out_dir=root / "artifacts")


# ------------------------------------------------------------------ genome
def test_genome_unknown_fields_rejected():
    with pytest.raises(SpecError, match="unknown attacker-genome fields"):
        AttackerGenome.from_dict({"bogus_field": 1})
    with pytest.raises(SpecError, match="known fields"):
        AttackerGenome.from_dict({"also_bogus": 1})


def test_genome_type_and_range_checks():
    with pytest.raises(SpecError, match="wants a bool"):
        AttackerGenome.from_dict({"keygates": 1})
    with pytest.raises(SpecError, match="must be in"):
        AttackerGenome.from_dict({"ensemble": 99})


def test_genome_registry_validation():
    with pytest.raises(RegistryError, match="available"):
        baseline_genome({"attack": "nope"})
    with pytest.raises(RegistryError, match="available"):
        baseline_genome({"predictor": "nope"})


def test_genome_key_tuple_survives_cache_json_roundtrip():
    genome = baseline_genome({"attack": "saam", "degree_weight": 0.25})
    key = genotype_key([genome])
    restored = tuple(tuple(g) for g in json.loads(json.dumps(key)))
    assert restored == key


def test_genome_variation_deterministic():
    genome = baseline_genome()
    a = genome.mutate(derive_rng(3))
    b = genome.mutate(derive_rng(3))
    assert a == b and a != genome
    other = baseline_genome({"attack": "saam"})
    assert genome.crossover(other, derive_rng(5)) == genome.crossover(
        other, derive_rng(5)
    )


def test_genome_to_attack_forwards_only_accepted_knobs():
    saam = baseline_genome({"attack": "saam", "saam_threshold": 0.2})
    name, params = saam.to_attack()
    assert name == "saam" and params["threshold"] == 0.2
    assert "predictor" not in params and "margin" not in params
    bayes = baseline_genome({"predictor": "bayes", "epochs": 30})
    _, params = bayes.to_attack()
    assert "epochs" not in params, "bayes takes no training budget"


def test_saam_registered():
    from repro.registry import ATTACKS

    assert "saam" in ATTACKS.available()


# --------------------------------------------------------------- arms race
def test_arms_race_hardens_locks(serial_run):
    """Epoch-N elite strictly beats the epoch-0 elite against the
    epoch-N best attacker — the subsystem's acceptance criterion."""
    epochs = serial_run.engine_result.epochs
    assert len(epochs) >= 3
    last = epochs[-1]
    assert last.elite_vs_best < last.epoch0_vs_best
    record = serial_run.record["engine"]
    assert record["improvement"] > 0
    assert record["improvement"] == pytest.approx(
        last.epoch0_vs_best - last.elite_vs_best
    )
    # The champion is the final lock elite, so the locked design rebuilds.
    assert record["best_genotype"] == last.lock_best
    assert serial_run.rebuild_locked() is serial_run.locked


def test_epoch_records_carry_both_populations(serial_run):
    attackers = BASE.engine_params["attacker_population"]
    for epoch in serial_run.record["engine"]["epochs"]:
        assert len(epoch["attacker_population"]) == attackers
        assert epoch["lock_hall"] and epoch["panel"]
        for entry in epoch["attacker_population"]:
            AttackerGenome.from_dict(entry["genome"]).validate()
        for entry in epoch["lock_hall"]:
            assert len(entry["genotype"]) == BASE.key_length


def test_worker_count_byte_identical(serial_run):
    parallel = run_experiment(BASE.with_updates(workers=4))
    a = serial_run.record["engine"]["epochs"]
    b = parallel.record["engine"]["epochs"]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert parallel.fingerprint == serial_run.fingerprint


def test_warm_replay_and_epoch_resume(serial_run):
    spec = serial_run.spec
    assert serial_run.fresh_evaluations > 0 and not serial_run.from_cache
    cold_epochs = serial_run.record["engine"]["epochs"]

    warm = run_experiment(spec)
    assert warm.from_cache and warm.fresh_evaluations == 0
    assert warm.record["engine"]["epochs"] == cold_epochs

    # Drop only the finished record: the per-epoch checkpoints must
    # restore the whole trajectory with zero fresh evaluations.
    with closing(open_store(spec.cache_path)) as store:
        store.wipe_namespace(EXPERIMENT_NAMESPACE)
        reads = []
        get = store.get

        def recorded_get(namespace, key):
            reads.append((namespace, key))
            return get(namespace, key)

        store.get = recorded_get
        resumed = run_experiment(spec, store=store)
    assert not resumed.from_cache
    assert resumed.record["engine"]["replayed_epochs"] == EPOCHS
    assert resumed.fresh_evaluations == 0
    assert resumed.record["engine"]["epochs"] == cold_epochs
    # The checkpoints sit where earlier releases wrote them.
    checkpoints = f"rand_100_7|role=coevo-epochs|spec={spec.fingerprint()}"
    assert reads[0] == ("experiment", f'[["spec","{spec.fingerprint()}"]]')
    assert [key for ns, key in reads if ns == checkpoints] == [
        f'[["epoch",{epoch}]]' for epoch in range(EPOCHS)
    ]


def test_artifacts_one_record_with_every_epoch(serial_run):
    lines = read_results(Path(serial_run.record["manifest"]).parent)
    assert len(lines) == 1
    (record,) = lines
    assert record["fingerprint"] == serial_run.fingerprint
    assert [e["epoch"] for e in record["engine"]["epochs"]] == list(
        range(EPOCHS)
    )


def test_coevo_sweep_points_replay_from_the_store(tmp_path):
    sweep = SweepSpec(
        base=ExperimentSpec(
            circuit="rand_100_7", key_length=8, engine="coevo",
            engine_params=dict(
                epochs=1, lock_population=4, lock_generations=1,
                attacker_population=2,
            ),
            async_mode=False,
        ),
        axes={"seed": [1, 2]},
        cache_path=str(tmp_path / "sweep.sqlite"),
    )
    cold = run_sweep(sweep)
    assert cold.fresh_evaluations > 0 and cold.n_from_cache == 0
    warm = run_sweep(sweep)
    assert warm.fresh_evaluations == 0 and warm.n_from_cache == 2
    assert [r.record["engine"]["epochs"] for r in warm.results] == [
        r.record["engine"]["epochs"] for r in cold.results
    ]


#: mixed-alphabet arms race: XOR and AND/OR genes are scope-scored, and
#: epochs 1 and 2 score locks against 2-attacker panels.
MIXED = ExperimentSpec(
    circuit="rand_150_5",
    key_length=6,
    engine="coevo",
    attack="muxlink",
    attack_params={"predictor": "bayes"},
    alphabet=("mux", "xor", "and_or"),
    seed=3,
    engine_params={
        "epochs": 3,
        "lock_population": 4,
        "lock_generations": 2,
        "attacker_population": 3,
    },
)


def test_mixed_alphabet_record_golden(monkeypatch):
    """Record, fresh evaluations and cache hits of the mixed-alphabet
    run without a store. The engine asks for one fitness cache per
    namespace, so epochs 1 and 2, whose lock phases share a panel
    namespace, reuse one cache: the counts equal a store-backed run's."""
    import repro.coevo.engine as coevo_engine

    asked = []

    class RecordedCache(FitnessCache):
        def __post_init__(self):
            asked.append(self.namespace)
            super().__post_init__()

    monkeypatch.setattr(coevo_engine, "FitnessCache", RecordedCache)
    result = run_experiment(MIXED)
    assert asked and len(asked) == len(set(asked))
    blob = json.dumps(result.deterministic_record(), sort_keys=True)
    assert [len(e["panel"]) for e in result.record["engine"]["epochs"]] == [
        1, 2, 2,
    ]
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "c8f55db9db14003463198ca9625cc665b654c371456eec190259fde6833d4075"
    )
    assert (result.fresh_evaluations, result.cache_hits) == (25, 14)


# --------------------------------------------------------------------- spec
def test_spec_unknown_fields_rejected():
    with pytest.raises(SpecError, match="unknown ExperimentSpec fields"):
        ExperimentSpec.from_dict({"circuit": "c17", "engine": "coevo", "bogus": 1})


@pytest.mark.parametrize(
    ("params", "error", "match"),
    [
        ({"bogus": 1}, SpecError, "unknown coevo engine_params"),
        ({"seed": 3}, SpecError, "may not override spec-level fields"),
        ({"key_length": 4}, SpecError, "may not override spec-level fields"),
        ({"mutation_rate": 0.0}, EvolutionError, "mutation_rate"),
        ({"lock_generations": 0}, EvolutionError, "generations must be >= 1"),
        ({"hall_size": 1}, EvolutionError, "hall_size >= panel_size"),
    ],
)
def test_bad_engine_params_rejected(params, error, match):
    spec = BASE.with_updates(engine_params={**BASE.engine_params, **params})
    with pytest.raises(error, match=match):
        run_experiment(spec)


@pytest.mark.parametrize(
    "updates", [{"attack": None}, {"attack_params": {"attack": "saam"}}]
)
def test_baseline_attack_comes_from_spec_attack(updates):
    with pytest.raises(SpecError, match="baseline attack from spec.attack"):
        run_experiment(BASE.with_updates(**updates))


@pytest.mark.parametrize(
    "updates", [{"async_mode": True}, {"async_mode": None, "workers": 2}]
)
def test_async_mode_rejected(updates):
    spec = BASE.with_updates(**updates)
    assert spec.resolved_async_mode()
    with pytest.raises(SpecError, match="async_mode=false"):
        run_experiment(spec)


def test_spec_fingerprint_ignores_execution_knobs():
    b = BASE.with_updates(
        workers=8, cache_path="x.sqlite", tag="t", trace="t.jsonl"
    )
    assert BASE.fingerprint() == b.fingerprint()
    assert BASE.fingerprint() != BASE.with_updates(seed=8).fingerprint()


def test_spec_fingerprint_resolves_attacker_defaults():
    explicit = BASE.with_updates(attack="muxlink")
    assert explicit.fingerprint() == BASE.fingerprint()
    assert (
        BASE.with_updates(attack="saam").fingerprint() != BASE.fingerprint()
    )


def test_spec_json_roundtrip():
    spec = BASE.with_updates(attack="saam", attack_params={"kind_read": False})
    assert ExperimentSpec.from_json(spec.to_json()) == spec


# ---------------------------------------------------------------------- cli
def test_cli_rejects_unknown_genome_field(capsys):
    from repro.cli import main

    assert main(["coevo", "rand_100_7", "--attacker", '{"bogus": 1}']) == 2
    err = capsys.readouterr().err
    assert "unknown attacker-genome fields" in err and "degree_weight" in err


def test_cli_rejects_unknown_predictor_and_attack(capsys):
    from repro.cli import main

    assert main(["coevo", "rand_100_7", "--predictor", "nope"]) == 2
    assert "available: bayes, gnn, mlp" in capsys.readouterr().err
    assert (
        main(["coevo", "rand_100_7", "--attacker", '{"attack": "nope"}']) == 2
    )
    assert "available: muxlink" in capsys.readouterr().err


def test_cli_rejects_bad_attacker_json(capsys):
    from repro.cli import main

    assert main(["coevo", "rand_100_7", "--attacker", "{not json"]) == 2
    assert "not valid JSON" in capsys.readouterr().err


# ------------------------------------------------------------ panel fitness
#: the attackers the panel tests draw from: link prediction (with and
#: without key-gate awareness), structural SAAM, and constant propagation.
PANEL_GENOMES = {
    "bayes": baseline_genome({"predictor": "bayes"}),
    "bayes-keygates": baseline_genome(
        {"predictor": "bayes", "keygates": True}
    ),
    "saam": baseline_genome({"attack": "saam"}),
    "scope": baseline_genome({"attack": "scope"}),
}
PANELS = (
    ("bayes",),
    ("saam", "scope"),
    ("bayes-keygates", "saam", "scope"),
)


@pytest.fixture(scope="module")
def rand150():
    return load_circuit("rand_150_5")


@pytest.mark.parametrize(
    "alphabet", [("mux",), ("mux", "xor", "and_or"), ("xor",)],
    ids=["mux", "mixed", "xor"],
)
def test_panel_fitness_matches_reference(rand150, alphabet):
    """SpecFitness over a panel equals the per-member-scope oracle bit
    for bit, at every panel size."""
    genotypes = [
        random_genotype(rand150, 6, seed, alphabet=alphabet)
        for seed in range(6)
    ]
    for names in PANELS:
        panel = [PANEL_GENOMES[name] for name in names]
        reference = LockVsPanelFitness(rand150, panel)
        fitness = SpecFitness(
            rand150, panel=[genome.to_attack() for genome in panel]
        )
        for genes in genotypes:
            assert fitness(genes) == reference(genes), (names, genes)
        assert fitness.evaluations == len(genotypes)


def test_panel_of_one_is_the_single_attack_fitness(rand150):
    genome = PANEL_GENOMES["bayes-keygates"]
    name, params = genome.to_attack()
    single = SpecFitness(rand150, name, params)
    panel = SpecFitness(rand150, panel=[genome.to_attack()])
    for seed in range(4):
        genes = random_genotype(
            rand150, 6, seed, alphabet=("mux", "xor", "and_or")
        )
        assert panel(genes) == single(genes)


def test_panel_fitness_runs_scope_once_per_design(rand150, monkeypatch):
    """One constant-propagation run per fresh evaluation serves the
    whole panel; cache hits run nothing."""
    keyed_runs = []
    run = ScopeAttack.run

    def counting_run(self, locked, *args, **kwargs):
        if kwargs.get("key_names") is not None:
            keyed_runs.append(kwargs["key_names"])
        return run(self, locked, *args, **kwargs)

    monkeypatch.setattr(ScopeAttack, "run", counting_run)
    genes = next(
        g
        for g in (
            random_genotype(rand150, 6, seed, alphabet=("mux", "xor"))
            for seed in range(20)
        )
        if 0 < sum(scope_scored_bits(g)) < len(g)
    )
    panel = [PANEL_GENOMES[name] for name in PANELS[-1]]
    fitness = SpecFitness(
        rand150, panel=[genome.to_attack() for genome in panel]
    )
    fitness(genes)
    assert len(keyed_runs) == 1
    assert len(keyed_runs[0]) == sum(scope_scored_bits(genes))
    fitness(genes)
    assert len(keyed_runs) == 1 and fitness.evaluations == 1
