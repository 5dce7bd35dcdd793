"""run_experiment / run_sweep: determinism, caching, artifacts, engines."""

import dataclasses
import json

import pytest

from repro.api import (
    ExperimentSpec,
    SweepSpec,
    read_manifest,
    read_results,
    run_experiment,
    run_sweep,
)
from repro.api.runner import EXPERIMENT_NAMESPACE, record_key
from repro.ec.evaluator import SerialEvaluator


def c17_spec(**overrides) -> ExperimentSpec:
    base = dict(
        circuit="c17",
        key_length=2,
        scheme="dmux",
        attack="muxlink",
        attack_params={"predictor": "bayes"},
        metrics=("overhead", "equivalence"),
        seed=1,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# -------------------------------------------------------------- static
def test_static_run_on_c17_is_seed_deterministic():
    a = run_experiment(c17_spec())
    b = run_experiment(c17_spec())
    assert a.deterministic_record() == b.deterministic_record()
    assert a.attack_report.accuracy == b.attack_report.accuracy
    assert a.locked.key == b.locked.key
    # A different seed must be allowed to produce a different locking.
    c = run_experiment(c17_spec(seed=2))
    assert c.fingerprint != a.fingerprint


def test_static_run_shapes():
    result = run_experiment(c17_spec())
    assert result.record["kind"] == "static"
    assert result.fresh_evaluations == 1
    assert 0.0 <= result.record["attack"]["accuracy"] <= 1.0
    assert result.metrics["equivalence"]["equal"] is True
    assert result.record["metrics"]["overhead"]["key_length"] == 2
    # The record is pure JSON.
    json.dumps(result.record)


def test_lock_only_run_without_attack():
    result = run_experiment(c17_spec(attack=None, metrics=("stats",)))
    assert result.attack_report is None
    assert result.fresh_evaluations == 0
    assert result.record["attack"] is None


# -------------------------------------------------------------- engines
def test_engine_run_deterministic_and_rebuildable():
    spec = c17_spec(
        circuit="rand_100_9",
        key_length=4,
        metrics=(),
        engine="ga",
        engine_params={"population_size": 4, "generations": 2},
        seed=2,
    )
    a = run_experiment(spec)
    b = run_experiment(spec)
    assert a.deterministic_record() == b.deterministic_record()
    assert a.engine_result.best_fitness == b.engine_result.best_fitness
    assert a.record["engine"]["best_genotype"], "record must carry champion"
    # locked is reconstructible from the record alone
    rebuilt = b.rebuild_locked()
    assert rebuilt.key.bits == a.locked.key.bits


@pytest.mark.parametrize("engine,params", [
    ("random_search", {"evaluations": 6}),
    ("hill_climber", {"evaluations": 6}),
    ("simulated_annealing", {"evaluations": 6}),
])
def test_trajectory_engines_run(engine, params):
    spec = c17_spec(
        circuit="rand_100_9", key_length=4, metrics=(),
        engine=engine, engine_params=params, seed=3,
    )
    result = run_experiment(spec)
    rec = result.record["engine"]
    assert rec["evaluations"] == 6
    assert 0.0 <= rec["best_fitness"] <= rec["initial_best"] <= 1.0
    assert result.engine_outcome.engine == engine


def test_nsga2_engine_run():
    spec = c17_spec(
        circuit="rand_150_5", key_length=4, metrics=(),
        engine="nsga2",
        engine_params={
            "population_size": 4, "generations": 2,
            "objectives": ["muxlink", "depth"],
        },
        seed=5,
    )
    result = run_experiment(spec)
    rec = result.record["engine"]
    assert rec["front_size"] == len(rec["front_objectives"]) >= 1
    assert all(len(o) == 2 for o in rec["front_objectives"])


def test_autolock_engine_rejects_foreign_attack():
    from repro.errors import SpecError

    spec = c17_spec(
        circuit="rand_100_9", key_length=4, metrics=(),
        attack="scope", engine="autolock",
    )
    with pytest.raises(SpecError, match="MuxLink-driven pipeline"):
        run_experiment(spec)


def test_autolock_engine_rejects_inert_knobs():
    """Knobs the pipeline would silently ignore are errors, not no-ops —
    every spec field feeds the fingerprint, so an inert knob would cause
    false experiment-cache misses."""
    from repro.errors import SpecError

    base = dict(
        circuit="rand_100_9", key_length=4, metrics=(), engine="autolock",
        engine_params={"population_size": 4, "generations": 2},
    )
    with pytest.raises(SpecError, match="attack_seed would have no effect"):
        run_experiment(c17_spec(**base, attack_seed=99))
    with pytest.raises(SpecError, match="no.*effect on this engine"):
        run_experiment(
            c17_spec(**base, attack_params={"predictor": "bayes", "epochs": 5})
        )
    # The worker count is the spec's, never the pipeline's.
    with pytest.raises(SpecError, match="may not override spec-level"):
        run_experiment(c17_spec(**{
            **base, "engine_params": {**base["engine_params"], "workers": 2},
        }))
    # So is the store: the run's owner opens spec.cache_path.
    with pytest.raises(SpecError, match="may not override spec-level"):
        run_experiment(c17_spec(**{
            **base,
            "engine_params": {**base["engine_params"], "cache_path": "x.db"},
        }))


def test_nsga2_engine_forwards_predictor_params():
    """attack_params beyond the predictor name reach the oracle instead
    of being silently dropped (a bogus one must surface as an error)."""
    from repro.errors import RegistryError

    spec = c17_spec(
        circuit="rand_150_5", key_length=4, metrics=(),
        attack_params={"predictor": "bayes", "bogus_param": 42},
        engine="nsga2",
        engine_params={"population_size": 4, "generations": 1,
                       "objectives": ["muxlink", "depth"]},
    )
    with pytest.raises(RegistryError, match="bogus_param"):
        run_experiment(spec)


def test_unknown_engine_params_rejected():
    from repro.errors import SpecError

    spec = c17_spec(
        circuit="rand_100_9", key_length=4, metrics=(),
        engine="ga", engine_params={"poulation_size": 4},
    )
    with pytest.raises(SpecError, match="unknown ga engine_params"):
        run_experiment(spec)


def test_engine_run_records_resolved_loop_mode():
    spec = c17_spec(
        circuit="rand_100_9", key_length=4, metrics=(),
        engine="ga",
        engine_params={"population_size": 4, "generations": 2},
        seed=2,
    )
    sync = run_experiment(spec)
    assert sync.record["async_mode"] is False
    # Static runs have no search loop.
    assert run_experiment(c17_spec()).record["async_mode"] is None
    # Steady state at one worker == steady state at any parallelism:
    # same fingerprint, same deterministic record.
    a = run_experiment(spec.with_updates(async_mode=True))
    b = run_experiment(spec.with_updates(workers=2))
    assert a.record["async_mode"] is True
    assert a.fingerprint == b.fingerprint
    assert a.deterministic_record() == b.deterministic_record()
    assert a.fingerprint != sync.fingerprint


def test_cli_run_async_sync_flags(tmp_path, capsys):
    from repro.cli import main

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(c17_spec(
        circuit="rand_100_9", key_length=4, metrics=(),
        engine="ga",
        engine_params={"population_size": 4, "generations": 2},
        seed=2,
    ).to_json())
    assert main(["run", str(spec_path), "--async"]) == 0
    assert "loop=async" in capsys.readouterr().out
    assert main(["run", str(spec_path), "--sync"]) == 0
    assert "loop=async" not in capsys.readouterr().out


# ----------------------------------------------------- cache + artifacts
def test_experiment_cache_replays_with_zero_fresh_evaluations(tmp_path):
    cache = str(tmp_path / "cache.sqlite")
    spec = c17_spec(cache_path=cache)
    first = run_experiment(spec)
    assert first.fresh_evaluations == 1 and not first.from_cache
    second = run_experiment(spec)
    assert second.from_cache
    assert second.fresh_evaluations == 0
    assert (
        second.deterministic_record()["attack"]
        == first.deterministic_record()["attack"]
    )
    # Metric data survives the replay (as the record's JSON dicts).
    assert second.metrics["equivalence"]["equal"] is True
    assert second.metrics["overhead"]["key_length"] == 2
    # A relabelled but otherwise identical spec replays the same record,
    # re-tagged for this run.
    relabelled = run_experiment(spec.with_updates(tag="again"))
    assert relabelled.from_cache and relabelled.record["tag"] == "again"


def test_run_artifacts_written_and_parse(tmp_path):
    out = tmp_path / "out"
    result = run_experiment(c17_spec(), out_dir=out)
    records = read_results(out)
    manifest = read_manifest(out)
    assert len(records) == 1
    assert records[0]["fingerprint"] == result.fingerprint
    assert manifest["n_records"] == 1
    assert manifest["spec"]["circuit"] == "c17"


def test_sweep_shares_one_evaluator_and_warm_cache(tmp_path):
    cache = str(tmp_path / "cache.sqlite")
    sweep = SweepSpec(
        name="two_point",
        base=c17_spec(metrics=()),
        axes={"key_length": [2, 3]},
        cache_path=cache,
    )
    shared = SerialEvaluator()
    cold = run_sweep(sweep, out_dir=tmp_path / "cold", evaluator=shared)
    assert cold.fresh_evaluations == 2
    assert cold.n_from_cache == 0
    # Both points went through the single injected evaluator.
    warm = run_sweep(sweep, out_dir=tmp_path / "warm")
    assert warm.fresh_evaluations == 0, "warm cache must replay every point"
    assert warm.n_from_cache == 2

    records = read_results(tmp_path / "warm")
    manifest = read_manifest(tmp_path / "warm")
    assert len(records) == 2
    assert all(r["fresh_evaluations"] == 0 for r in records)
    assert manifest["n_points"] == 2
    assert manifest["replayed_from_cache"] == 2


def test_sweep_repeated_identical_point_reuses_record(tmp_path):
    """A duplicated grid point is served from the shared cache in-sweep."""
    cache = str(tmp_path / "cache.sqlite")
    sweep = SweepSpec(
        base=c17_spec(metrics=()),
        axes={"*dup": [{"tag": "first"}, {"tag": "first"}]},
        cache_path=cache,
    )
    # Identical deterministic fields -> identical fingerprint -> second
    # point replays the first point's record with zero fresh attacks.
    result = run_sweep(sweep)
    assert result.fresh_evaluations == 1
    assert result.n_from_cache == 1


def test_engine_sweep_routes_all_points_through_one_evaluator(tmp_path):
    """Both sweep points' populations flow through the single shared
    evaluator instance — the seam the process pool plugs into."""
    sweep = SweepSpec(
        base=ExperimentSpec(
            circuit="rand_100_9", key_length=4,
            attack="muxlink", attack_params={"predictor": "bayes"},
            engine="ga",
            engine_params={"population_size": 4, "generations": 2},
        ),
        axes={"seed": [0, 1]},
    )
    shared = SerialEvaluator()
    result = run_sweep(sweep, evaluator=shared)
    assert len(result.results) == 2
    # 2 points x (4 genomes x 2 generations) each, all through `shared`.
    assert shared.total.size == 2 * 4 * 2


def test_sweep_sizes_each_points_evaluator_from_its_workers(monkeypatch):
    """A ``workers`` axis sizes every point's evaluator, as a distributed
    worker does, instead of the sweep-level worker count."""
    from repro.api import runner

    asked = []
    real = runner.open_evaluator

    def spy(workers, **kwargs):
        asked.append(workers)
        return real(workers, **kwargs)

    monkeypatch.setattr(runner, "open_evaluator", spy)
    sweep = SweepSpec(
        base=ExperimentSpec(
            circuit="rand_100_9", key_length=4,
            attack="muxlink", attack_params={"predictor": "bayes"},
            engine="ga", engine_params={"population_size": 4, "generations": 1},
            async_mode=False,
        ),
        axes={"workers": [1, 2]},
    )
    result = run_sweep(sweep)
    assert asked == [1, 2]
    assert (
        result.results[0].deterministic_record()["engine"]
        == result.results[1].deterministic_record()["engine"]
    )


def test_run_experiment_owns_the_evaluator_of_an_engine_spec(monkeypatch):
    """An engine spec with no injected evaluator gets exactly one, sized
    by ``spec.workers`` and closed when the run ends; a static spec and
    a run on an injected evaluator open none."""
    from repro.api import runner
    from repro.ec.evaluator import AsyncEvaluator

    opened = []
    real = runner.open_evaluator

    def spy(workers, **kwargs):
        evaluator = real(workers, **kwargs)
        entry = {"workers": workers, "evaluator": evaluator, "closed": 0}
        close = evaluator.close

        def counted_close():
            entry["closed"] += 1
            close()

        evaluator.close = counted_close
        opened.append(entry)
        return evaluator

    monkeypatch.setattr(runner, "open_evaluator", spy)
    engine_spec = c17_spec(
        circuit="rand_100_9", key_length=4, metrics=(), engine="ga",
        engine_params={"population_size": 4, "generations": 1},
        async_mode=False, workers=2,
    )
    run_experiment(engine_spec)
    assert [(e["workers"], e["closed"]) for e in opened] == [(2, 1)]
    assert isinstance(opened[0]["evaluator"], AsyncEvaluator)

    opened.clear()
    run_experiment(c17_spec(workers=2))
    run_experiment(engine_spec, evaluator=SerialEvaluator())
    assert opened == []


def _spy_open_store(monkeypatch) -> list[dict]:
    """Record every store a run owner opens, and how often it is closed."""
    import repro.dist.worker as worker_module
    import repro.store

    real = repro.store.open_store
    opened = []

    def spy(path):
        store = real(path)
        entry = {"store": store, "closed": 0}
        close = store.close

        def counted_close():
            entry["closed"] += 1
            close()

        store.close = counted_close
        opened.append(entry)
        return store

    monkeypatch.setattr(repro.store, "open_store", spy)
    monkeypatch.setattr(worker_module, "open_store", spy)
    return opened


def test_run_owners_open_the_store_once(monkeypatch, tmp_path):
    """The run's owner opens one store and closes it; every cache and
    record of the run — the AutoLock fitness and report caches of every
    point included — uses that handle, and an injected store is used
    as is and left open."""
    from repro.dist import SweepScheduler, Worker
    from repro.store import open_store

    spec = c17_spec(
        circuit="rand_100_9", key_length=4, metrics=(), engine="autolock",
        engine_params={
            "population_size": 4, "generations": 1,
            "report_predictor": "bayes", "report_ensemble": 1,
        },
    )
    sweep = SweepSpec(
        base=spec, axes={"seed": [1, 2]},
        cache_path=str(tmp_path / "sweep.sqlite"),
    )
    scheduler = SweepScheduler(
        dataclasses.replace(sweep, cache_path=str(tmp_path / "queue.sqlite"))
    )
    scheduler.enqueue()
    scheduler._store.close()
    injected = open_store(tmp_path / "injected.sqlite")
    opened = _spy_open_store(monkeypatch)

    run_experiment(spec.with_updates(cache_path=str(tmp_path / "run.sqlite")))
    assert [e["closed"] for e in opened] == [1]

    opened.clear()
    result = run_experiment(spec, store=injected)
    assert opened == [] and not result.from_cache
    assert injected.get(EXPERIMENT_NAMESPACE, record_key(spec)) is not None
    injected.close()

    run_sweep(sweep)
    assert [e["closed"] for e in opened] == [1]

    opened.clear()
    report = Worker(
        store_path=str(tmp_path / "queue.sqlite"),
        sweep_id=scheduler.sweep_id,
    ).run()
    assert report.points_completed == 2
    assert [e["closed"] for e in opened] == [1]


def test_stored_namespaces_and_keys_are_pinned(tmp_path):
    """The bytes a run stores do not move: stores written by earlier
    releases keep replaying. One ``ga`` and one ``coevo`` run share the
    store; ``<hash>`` is a 12-hex-digit panel or elite fingerprint."""
    import re
    from contextlib import closing

    from repro.store import open_store

    path = str(tmp_path / "store.sqlite")
    ga = ExperimentSpec(
        circuit="rand_100_9", key_length=4, engine="ga", attack="muxlink",
        attack_params={"predictor": "bayes"},
        engine_params={"population_size": 4, "generations": 1},
        seed=1, cache_path=path,
    )
    coevo = ExperimentSpec(
        circuit="rand_100_7", key_length=4, engine="coevo", attack="muxlink",
        attack_params={"predictor": "bayes"},
        engine_params={"epochs": 1, "lock_population": 4,
                       "lock_generations": 1, "attacker_population": 2},
        seed=1, async_mode=False, cache_path=path,
    )
    assert (ga.fingerprint(), coevo.fingerprint()) == (
        "8f5120b13e510345", "4b1873767e7d56cf"
    )
    run_experiment(ga)
    run_experiment(coevo)
    with closing(open_store(path)) as store:
        namespaces = [
            re.sub(r"=[0-9a-f]{12}\|", "=<hash>|", ns)
            for ns in store.namespaces()
        ]
        assert namespaces == [
            "experiment",
            "rand_100_7|attack_seed=41072|elite=<hash>|role=coevo-attacker",
            "rand_100_7|attack_seed=41072|panel=<hash>|role=coevo-lock",
            "rand_100_7|attack_seed=41072|role=coevo-duel",
            "rand_100_7|role=coevo-epochs|spec=4b1873767e7d56cf",
            "rand_100_9|attack=muxlink|attack_seed=41072|predictor=bayes"
            "|role=fitness",
        ]
        assert sorted(store.load_namespace("experiment")) == [
            '[["spec","4b1873767e7d56cf"]]', '[["spec","8f5120b13e510345"]]',
        ]
        assert list(store.load_namespace(
            "rand_100_7|role=coevo-epochs|spec=4b1873767e7d56cf"
        )) == ['[["epoch",0]]']
        gene = r'\["mux"(,"[^"]+"){4},[01]\]'
        fitness = store.load_namespace(
            "rand_100_9|attack=muxlink|attack_seed=41072|predictor=bayes"
            "|role=fitness"
        )
        assert fitness and all(
            re.fullmatch(rf"\[{gene}(,{gene}){{3}}\]", key) for key in fitness
        )


def test_engine_sweep_warm_cache_zero_fresh(tmp_path):
    cache = str(tmp_path / "cache.sqlite")
    spec = c17_spec(
        circuit="rand_100_9", key_length=4, metrics=(),
        engine="ga", engine_params={"population_size": 4, "generations": 2},
        seed=2, cache_path=cache,
    )
    first = run_experiment(spec)
    assert first.fresh_evaluations > 0
    second = run_experiment(spec)
    assert second.from_cache and second.fresh_evaluations == 0


# ------------------------------------------------------------------ CLI
def test_cli_run_subcommand(tmp_path, capsys):
    from repro.cli import main

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(c17_spec().to_json())
    out = tmp_path / "artifacts"
    assert main(["run", str(spec_path), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "acc=" in captured
    assert read_manifest(out)["n_records"] == 1


def test_cli_run_rejects_bad_spec(tmp_path, capsys):
    from repro.cli import main

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"circuit": "c17", "attack": "laser"}))
    assert main(["run", str(spec_path)]) == 2
    assert "unknown attack" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["evolve", "run", "sweep"])
def test_cli_directory_cache_is_an_error_line(verb, tmp_path, capsys):
    """A directory where the store file should be exits 2 with one
    ``error:`` line, like any other unusable store."""
    from repro.cli import main

    cache = tmp_path / "cache-dir"
    cache.mkdir()
    spec = {"circuit": "c17", "key_length": 2, "attack": "muxlink",
            "attack_params": {"predictor": "bayes"}, "cache_path": str(cache)}
    spec_path = tmp_path / "spec.json"
    if verb == "sweep":
        spec = {"base": spec, "axes": {"seed": [1, 2]},
                "cache_path": str(cache)}
    spec_path.write_text(json.dumps(spec))
    argv = {
        "evolve": ["evolve", "c17", "--key-length", "2", "--population",
                   "2", "--generations", "1", "--cache", str(cache)],
        "run": ["run", str(spec_path)],
        "sweep": ["sweep", str(spec_path)],
    }[verb]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is a directory" in err


def test_cli_run_rejects_malformed_json_and_missing_file(tmp_path, capsys):
    from repro.cli import main

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["run", str(broken)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    assert main(["run", str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err

    assert main(["sweep", str(broken)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_sweep_subcommand(tmp_path, capsys):
    from repro.cli import main

    sweep_path = tmp_path / "sweep.json"
    sweep = SweepSpec(
        name="cli_demo",
        base=c17_spec(metrics=()),
        axes={"key_length": [2, 3]},
        cache_path=str(tmp_path / "cache.sqlite"),
    )
    sweep_path.write_text(sweep.to_json())
    out = tmp_path / "artifacts"
    assert main(["sweep", str(sweep_path), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "2 points" in captured
    assert read_manifest(out)["n_records"] == 2
    # Re-running with the warm shared cache reports zero fresh evaluations.
    assert main(["sweep", str(sweep_path)]) == 0
    assert "0 fresh attack evaluations" in capsys.readouterr().out


def test_cli_plugins_lists_registries(capsys):
    from repro.cli import main

    assert main(["plugins"]) == 0
    out = capsys.readouterr().out
    for needle in ("schemes:", "primitives:", "attacks:", "predictors:",
                   "engines:", "metrics:", "muxlink", "nsga2",
                   "MuxPrimitive", "XorPrimitive", "AndOrPrimitive"):
        assert needle in out
