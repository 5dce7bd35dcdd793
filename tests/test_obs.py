"""Telemetry subsystem: metrics registry, span tracer, summarize, logs.

The disabled path is the contract that matters most — ``repro.obs`` is
imported by the search loop, evaluators, and runner unconditionally, so
with no ``--trace`` flag it must cost a single attribute check and
allocate nothing. The golden-trajectory suites exercise "installed but
off" implicitly; here the fast path, the enabled semantics, and the
end-to-end ``--trace`` → ``trace summarize`` pipeline get pinned
explicitly.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.api import ExperimentSpec, run_experiment
from repro.cli import main
from repro.obs import trace as obs_trace
from repro.obs.logs import configure_logging, get_logger
from repro.obs.metrics import LATENCY_BUCKETS, METRICS, MetricsRegistry
from repro.obs.summarize import format_table, load_spans, summarize


def _static_spec(**overrides) -> ExperimentSpec:
    base = dict(
        circuit="rand_150_5",
        key_length=4,
        scheme="dmux",
        attack="muxlink",
        attack_params={"predictor": "bayes"},
        seed=1,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# -- metrics registry ----------------------------------------------------

def test_counter_inc_labels_and_monotonicity():
    reg = MetricsRegistry()
    c = reg.counter("autolock_test_total", "help", labels=("op",))
    c.inc(op="a")
    c.inc(2, op="a")
    c.inc(op="b")
    assert c.value(op="a") == 3
    assert c.value(op="b") == 1
    assert c.value(op="never") == 0
    with pytest.raises(ValueError):
        c.inc(-1, op="a")
    with pytest.raises(ValueError):
        c.inc(op="a", wrong_label="x")


def test_gauge_set_and_inc():
    reg = MetricsRegistry()
    g = reg.gauge("autolock_test_depth")
    g.set(7)
    assert g.value() == 7.0
    g.inc(-3)
    assert g.value() == 4.0  # gauges may go down


def test_histogram_buckets_sum_count_and_quantiles():
    reg = MetricsRegistry()
    h = reg.histogram("autolock_test_seconds", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.05, 0.5, 5.0):
        h.observe(value)
    snap = h.snapshot_values()[""]
    assert snap["count"] == 4
    assert snap["sum"] == pytest.approx(5.6)
    # quantiles report the bucket upper bound holding the target rank
    assert snap["p50"] == 0.1
    assert snap["p95"] == 10.0
    text = reg.render_prometheus()
    assert 'autolock_test_seconds_bucket{le="0.1"} 2' in text
    assert 'autolock_test_seconds_bucket{le="1"} 3' in text
    assert 'autolock_test_seconds_bucket{le="10"} 4' in text
    assert 'autolock_test_seconds_bucket{le="+Inf"} 4' in text
    assert "autolock_test_seconds_count 4" in text


def test_histogram_observation_above_every_bucket_lands_in_inf():
    reg = MetricsRegistry()
    h = reg.histogram("autolock_test_seconds", buckets=(0.1,))
    h.observe(99.0)
    text = reg.render_prometheus()
    assert 'autolock_test_seconds_bucket{le="0.1"} 0' in text
    assert 'autolock_test_seconds_bucket{le="+Inf"} 1' in text
    assert "autolock_test_seconds_count 1" in text


def test_registry_idempotent_and_conflict_checked():
    reg = MetricsRegistry()
    first = reg.counter("autolock_x_total", labels=("k",))
    assert reg.counter("autolock_x_total", labels=("k",)) is first
    with pytest.raises(ValueError):
        reg.gauge("autolock_x_total")  # kind mismatch
    with pytest.raises(ValueError):
        reg.counter("autolock_x_total", labels=("other",))  # label mismatch
    with pytest.raises(ValueError):
        reg.counter("bad name!")


def test_prometheus_rendering_sorts_and_escapes_labels():
    reg = MetricsRegistry()
    c = reg.counter("autolock_esc_total", "with \\ and \"", labels=("p",))
    c.inc(p='say "hi"\nplease\\now')
    text = reg.render_prometheus()
    assert "# HELP autolock_esc_total" in text
    assert "# TYPE autolock_esc_total counter" in text
    assert '{p="say \\"hi\\"\\nplease\\\\now"}' in text
    assert text.endswith("\n")


def test_snapshot_shape():
    reg = MetricsRegistry()
    reg.counter("autolock_a_total").inc()
    reg.histogram("autolock_b_seconds")
    snap = reg.snapshot()
    assert snap["autolock_a_total"]["kind"] == "counter"
    assert snap["autolock_a_total"]["values"][""] == 1
    assert snap["autolock_b_seconds"]["values"] == {}  # no observations yet


def test_global_registry_has_the_instrumented_families():
    # Importing the instrumented modules registers their metrics; the
    # /metrics endpoint and dashboards rely on these names existing.
    import repro.api.runner  # noqa: F401
    import repro.dist.worker  # noqa: F401
    import repro.ec.evaluator  # noqa: F401
    import repro.serve.server  # noqa: F401

    names = set(METRICS.snapshot())
    for family in (
        "autolock_experiments_total",
        "autolock_eval_batch_seconds",
        "autolock_cache_lookups_total",
        "autolock_loop_backlog",
        "autolock_http_requests_total",
        "autolock_queue_points",
        "autolock_worker_points_total",
    ):
        assert family in names
    assert LATENCY_BUCKETS == tuple(sorted(LATENCY_BUCKETS))


# -- tracer ---------------------------------------------------------------

def test_disabled_fast_path_is_one_shared_object():
    assert not obs_trace.enabled()
    first = obs_trace.span("anything", k=1)
    second = obs_trace.span("other")
    assert first is second, "disabled span() must not allocate"
    with first as s:
        s.set(more=2)  # all no-ops
    with obs_trace.tracing(None):
        assert not obs_trace.enabled()


def test_spans_nest_and_link_parents(tmp_path):
    path = tmp_path / "trace.jsonl"
    with obs_trace.tracing(path, run="t"):
        assert obs_trace.enabled()
        with obs_trace.span("outer", a=1):
            with obs_trace.span("inner") as inner:
                inner.set(b=2)
        with obs_trace.span("sibling"):
            pass
    assert not obs_trace.enabled()
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0]["meta"]["run"] == "t"
    by_name = {r["name"]: r for r in lines[1:]}
    assert by_name["inner"]["parent"] == by_name["outer"]["span"]
    assert by_name["outer"]["parent"] is None
    assert by_name["sibling"]["parent"] is None
    assert by_name["inner"]["attrs"] == {"b": 2}
    assert by_name["outer"]["wall_s"] >= by_name["inner"]["wall_s"]


def test_span_records_error_attr_and_still_emits(tmp_path):
    path = tmp_path / "trace.jsonl"
    with pytest.raises(RuntimeError):
        with obs_trace.tracing(path):
            with obs_trace.span("boom"):
                raise RuntimeError("x")
    record = [json.loads(l) for l in path.read_text().splitlines()][-1]
    assert record["name"] == "boom"
    assert record["attrs"]["error"] == "RuntimeError"


def test_outermost_tracing_owner_wins(tmp_path):
    outer, inner = tmp_path / "outer.jsonl", tmp_path / "inner.jsonl"
    with obs_trace.tracing(outer):
        with obs_trace.tracing(inner):  # joins, does not switch files
            with obs_trace.span("joined"):
                pass
        assert obs_trace.enabled(), "inner exit must not stop the tracer"
    assert not inner.exists()
    assert any('"joined"' in l for l in outer.read_text().splitlines())


def test_start_tracing_twice_raises(tmp_path):
    obs_trace.start_tracing(tmp_path / "a.jsonl")
    try:
        with pytest.raises(RuntimeError):
            obs_trace.start_tracing(tmp_path / "b.jsonl")
    finally:
        obs_trace.stop_tracing()


def test_derive_worker_path():
    derived = obs_trace.derive_worker_path("out/run.jsonl", "w-1")
    assert str(derived) == "out/run-w-1.jsonl"
    assert str(obs_trace.derive_worker_path("t", "w")) == "t-w.jsonl"


# -- summarize ------------------------------------------------------------

def _span(file, span, parent, name, wall, cpu=0.0):
    return {"file": file, "span": span, "parent": parent, "name": name,
            "wall_s": wall, "cpu_s": cpu}


def test_summarize_self_time_and_coverage():
    spans = [
        _span(0, 1, None, "root", 10.0),
        _span(0, 2, 1, "stage.a", 6.0),
        _span(0, 3, 1, "stage.b", 3.0),
        _span(0, 4, 2, "stage.a.child", 5.0),
    ]
    summary = summarize(spans)
    rows = {r["name"]: r for r in summary["rows"]}
    assert rows["root"]["self_s"] == pytest.approx(1.0)
    assert rows["stage.a"]["self_s"] == pytest.approx(1.0)
    assert summary["root_wall_s"] == pytest.approx(10.0)
    assert summary["coverage"] == pytest.approx(0.9)
    # sorted by cumulative wall, descending
    assert summary["rows"][0]["name"] == "root"
    assert summary["rows"][1]["name"] == "stage.a"


def test_summarize_keeps_multi_file_span_ids_apart():
    # Same span ids in two files (two worker processes) must not link.
    spans = [
        _span(0, 1, None, "worker.run", 4.0),
        _span(0, 2, 1, "worker.point", 4.0),
        _span(1, 1, None, "worker.run", 6.0),
        _span(1, 2, 1, "worker.point", 5.0),
    ]
    summary = summarize(spans)
    assert summary["root_wall_s"] == pytest.approx(10.0)
    assert summary["coverage"] == pytest.approx(0.9)
    rows = {r["name"]: r for r in summary["rows"]}
    assert rows["worker.point"]["calls"] == 2


def test_load_spans_skips_meta_and_torn_lines(tmp_path):
    a = tmp_path / "a.jsonl"
    a.write_text(
        json.dumps({"meta": {"pid": 1}}) + "\n"
        + json.dumps(_span(0, 1, None, "x", 1.0)) + "\n"
        + '{"torn'  # killed writer mid-line
    )
    spans = load_spans([a])
    assert [s["name"] for s in spans] == ["x"]
    assert spans[0]["file"] == 0


def test_format_table_has_header_rows_and_footer():
    summary = summarize([
        _span(0, 1, None, "root", 2.0),
        _span(0, 2, 1, "leaf", 1.9),
    ])
    text = format_table(summary)
    assert "stage" in text and "calls" in text and "p95_s" in text
    assert "root" in text and "leaf" in text
    assert "coverage 95.0%" in text
    assert "leaf" not in format_table(summary, limit=1)


# -- logs -----------------------------------------------------------------

def test_configure_logging_writes_to_stdout_with_worker_prefix(capsys):
    configure_logging("INFO", worker_id="w-42")
    get_logger("dist.worker").info("claimed point abc")
    out = capsys.readouterr().out
    assert "[w-42] autolock.dist.worker: claimed point abc" in out
    assert "INFO" in out


def test_configure_logging_idempotent_and_env_level(capsys, monkeypatch):
    configure_logging("INFO")
    configure_logging("INFO")
    root = logging.getLogger("autolock")
    assert len(root.handlers) == 1, "re-configuring must not stack handlers"
    monkeypatch.setenv("AUTOLOCK_LOG", "WARNING")
    configure_logging()  # level from the environment
    get_logger("x").info("hidden")
    get_logger("x").warning("shown")
    out = capsys.readouterr().out
    assert "hidden" not in out and "shown" in out
    configure_logging("INFO")  # restore for later tests


# -- end to end: --trace through the runner and CLI -----------------------

def test_traced_experiment_writes_spans_and_summarizes(tmp_path):
    trace_path = tmp_path / "run.jsonl"
    spec = _static_spec(trace=str(trace_path))
    result = run_experiment(spec)
    assert result.record, "traced run must still produce a record"
    assert not obs_trace.enabled(), "runner must stop its own tracer"

    spans = load_spans([trace_path])
    names = {s["name"] for s in spans}
    assert {"experiment", "experiment.lock", "experiment.attack"} <= names
    summary = summarize(spans)
    assert summary["coverage"] >= 0.5  # lock+attack dominate a static run

    # identical spec minus the trace: same fingerprint, same record
    untraced = run_experiment(_static_spec())
    assert untraced.fingerprint == result.fingerprint
    assert (
        untraced.deterministic_record() == result.deterministic_record()
    )


def test_cli_trace_summarize_table_json_and_coverage_gate(
    tmp_path, capsys
):
    trace_path = tmp_path / "run.jsonl"
    run_experiment(_static_spec(trace=str(trace_path)))

    assert main(["trace", "summarize", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "experiment.attack" in out and "coverage" in out

    assert main(["trace", "summarize", str(trace_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spans"] >= 3
    assert 0.0 <= payload["coverage"] <= 1.0

    assert main([
        "trace", "summarize", str(trace_path), "--min-coverage", "101",
    ]) == 1
    capsys.readouterr()
    assert main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 2


def test_cli_run_passes_trace_flag_through(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_static_spec().to_dict()))
    trace_path = tmp_path / "cli.jsonl"
    assert main([
        "run", str(spec_path), "--trace", str(trace_path),
    ]) == 0
    capsys.readouterr()
    assert {"experiment"} <= {s["name"] for s in load_spans([trace_path])}


def _child_must_be_untraced_and_open_its_own(path):
    assert not obs_trace.enabled(), "fork must not leak the parent tracer"
    with obs_trace.tracing(path, owner="child"):
        with obs_trace.span("child.work"):
            pass


def test_forked_child_drops_inherited_tracer_and_traces_itself(tmp_path):
    """A forked worker shares the parent's file offset; writing through
    the inherited tracer would interleave bytes into the parent's file.
    The at-fork hook drops it so the child's own ``tracing()`` call —
    which yields to an already-active tracer — opens its derived file."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    ctx = multiprocessing.get_context("fork")
    parent_path = tmp_path / "parent.jsonl"
    child_path = tmp_path / "child.jsonl"
    with obs_trace.tracing(parent_path, owner="parent"):
        with obs_trace.span("parent.spawn"):
            child = ctx.Process(
                target=_child_must_be_untraced_and_open_its_own,
                args=(str(child_path),),
            )
            child.start()
            child.join()
    assert child.exitcode == 0
    child_names = {s["name"] for s in load_spans([child_path])}
    assert child_names == {"child.work"}
    parent_names = {s["name"] for s in load_spans([parent_path])}
    assert "child.work" not in parent_names
    assert "parent.spawn" in parent_names


# -- fresh-evaluation counter ----------------------------------------------
def test_fresh_evaluation_counter_covers_every_attack_backed_evaluation():
    """``autolock_fresh_evaluations_total`` counts every fresh attack run:
    the AutoLock GA fitness *and* its report stage, and every co-evolution
    fitness and duel, in-process and on a two-worker pool alike (a pool
    worker scores; the dispatching process counts)."""
    from repro.circuits import load_circuit
    from repro.coevo import CoevoEngine
    from repro.ec import AsyncEvaluator, SerialEvaluator
    from repro.ec.autolock import AutoLock, AutoLockConfig
    from repro.ec.fitness import FRESH_EVALUATIONS

    circuit = load_circuit("rand_100_7")
    for workers in (1, 2):
        with (
            SerialEvaluator() if workers == 1 else AsyncEvaluator(workers)
        ) as evaluator:
            before = FRESH_EVALUATIONS.value()
            result = AutoLock(AutoLockConfig(
                key_length=4, population_size=4, generations=1,
                fitness_predictor="bayes", report_predictor="bayes",
                report_ensemble=1, seed=3,
            )).run(circuit, evaluator=evaluator)
            assert result.report_evaluations > 0
            assert FRESH_EVALUATIONS.value() - before == (
                result.fitness_evaluations + result.report_evaluations
            )

            before = FRESH_EVALUATIONS.value()
            coevo = CoevoEngine(
                circuit, key_length=4, epochs=1, lock_population=4,
                lock_generations=1, attacker_population=2, elite_size=1,
                panel_size=1, hall_size=2, seed=3,
            ).run(evaluator)
        assert coevo.fresh_evaluations > 0
        assert FRESH_EVALUATIONS.value() - before == coevo.fresh_evaluations
