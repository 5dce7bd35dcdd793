"""Async steady-state loop vs sync generational loop — throughput.

Not a paper experiment: this bench pins the perf win of the unified
search loop's steady-state mode (``repro.ec.loop``). Attack-in-the-loop
fitness costs are wildly skewed in practice (a hard candidate can cost an
order of magnitude more MuxLink time than an easy one), and the sync
generational loop barriers every generation on its slowest candidate. The
steady-state loop breeds and submits a replacement the moment any
evaluation completes, so the pool stays saturated.

The fitness here makes that skew explicit: a deterministic hash of the
genotype picks ~1-in-16 candidates to sleep ``SLOW_S`` while the rest
sleep ``BASE_S``. Same GA configuration, same seed, same 4-worker
``AsyncEvaluator`` — only the loop mode differs. The report asserts the
steady-state mode clears >= 1.5x the sync mode's fresh-evaluation
throughput at full scale (the assertion is skipped under smoke scaling,
where wall-clocks are too small to be meaningful).

``python benchmarks/bench_async_loop.py`` emits ``BENCH_async_loop.json``
(override with ``BENCH_ASYNC_LOOP_OUT``) so CI can archive the numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

try:
    from conftest import print_header, scaled
except ImportError:  # direct `python benchmarks/bench_....py` execution
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import print_header, scaled

from repro.circuits import load_circuit
from repro.ec import AsyncEvaluator, CachedFitness, GaConfig, GeneticAlgorithm
from repro.ec.genotype import genotype_key

_CIRCUIT = "rand_150_5"
_WORKERS = 4
_POPULATION = 8
_GENERATIONS = 12
_ASYNC_BACKLOG = 32
_BASE_S = 0.01
_SLOW_S = 0.08
_SLOW_EVERY = 4
_TARGET_SPEEDUP = 1.5


def _scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


class SkewedCostFitness(CachedFitness):
    """Picklable fitness with deterministic, strongly skewed eval cost.

    A stable hash of the genotype decides whether this candidate is one
    of the ~1-in-``slow_every`` expensive ones. Cache-fronted so elites
    resolve as hits in sync mode, exactly as a production attack-backed
    fitness would.
    """

    def __init__(self, base_s: float, slow_s: float, slow_every: int) -> None:
        super().__init__()
        self.base_s = base_s
        self.slow_s = slow_s
        self.slow_every = slow_every

    def score(self, genes) -> float:
        key = genotype_key(genes)
        digest = hashlib.md5(repr(key).encode()).hexdigest()
        slow = int(digest, 16) % self.slow_every == 0
        time.sleep(self.slow_s if slow else self.base_s)
        return sum(g.k for g in genes) / len(genes)


def _run_mode(circuit, async_mode: bool, *, population, generations, workers,
              base_s, slow_s, backlog=None):
    config = GaConfig(
        key_length=8,
        population_size=population,
        generations=generations,
        mutation="key_only",
        seed=7,
        async_mode=async_mode,
        async_backlog=backlog if async_mode else None,
    )
    fitness = SkewedCostFitness(base_s, slow_s, _SLOW_EVERY)
    with AsyncEvaluator(workers=workers) as evaluator:
        started = time.perf_counter()
        result = GeneticAlgorithm(config).run(
            circuit, fitness, evaluator=evaluator
        )
        wall_s = time.perf_counter() - started
        dispatched = evaluator.total.dispatched
    return result, wall_s, dispatched


def run_async_loop(out_json: str | None = None) -> dict:
    scale = _scale()
    population = scaled(_POPULATION, minimum=4)
    generations = scaled(_GENERATIONS, minimum=2)
    base_s = _BASE_S * min(1.0, scale)
    slow_s = _SLOW_S * min(1.0, scale)
    circuit = load_circuit(_CIRCUIT)

    sync_result, sync_wall, sync_dispatched = _run_mode(
        circuit, False, population=population, generations=generations,
        workers=_WORKERS, base_s=base_s, slow_s=slow_s,
    )
    async_result, async_wall, async_dispatched = _run_mode(
        circuit, True, population=population, generations=generations,
        workers=_WORKERS, base_s=base_s, slow_s=slow_s,
        backlog=_ASYNC_BACKLOG,
    )
    _auto_result, auto_wall, auto_dispatched = _run_mode(
        circuit, True, population=population, generations=generations,
        workers=_WORKERS, base_s=base_s, slow_s=slow_s, backlog="auto",
    )

    sync_tp = sync_dispatched / sync_wall if sync_wall > 0 else 0.0
    async_tp = async_dispatched / async_wall if async_wall > 0 else 0.0
    auto_tp = auto_dispatched / auto_wall if auto_wall > 0 else 0.0
    report = {
        "circuit": _CIRCUIT,
        "workers": _WORKERS,
        "population": population,
        "generations": generations,
        "async_backlog": _ASYNC_BACKLOG,
        "slow_every": _SLOW_EVERY,
        "base_s": base_s,
        "slow_s": slow_s,
        "sync_wall_s": sync_wall,
        "async_wall_s": async_wall,
        "sync_fresh_evaluations": sync_dispatched,
        "async_fresh_evaluations": async_dispatched,
        "sync_evals_per_s": sync_tp,
        "async_evals_per_s": async_tp,
        "auto_wall_s": auto_wall,
        "auto_fresh_evaluations": auto_dispatched,
        "auto_evals_per_s": auto_tp,
        "throughput_ratio": async_tp / sync_tp if sync_tp > 0 else None,
        "auto_throughput_ratio": auto_tp / sync_tp if sync_tp > 0 else None,
        "sync_best_fitness": sync_result.best_fitness,
        "async_best_fitness": async_result.best_fitness,
        "target_speedup": _TARGET_SPEEDUP,
        "asserted": scale >= 1.0,
        "guarded": bool(os.environ.get("REPRO_BENCH_GUARD")),
    }
    if report["asserted"] and report["throughput_ratio"] is not None:
        assert report["throughput_ratio"] >= _TARGET_SPEEDUP, (
            f"steady-state throughput only {report['throughput_ratio']:.2f}x "
            f"sync at {_WORKERS} workers (target {_TARGET_SPEEDUP}x): {report}"
        )
        assert report["auto_throughput_ratio"] >= _TARGET_SPEEDUP, (
            f"auto-backlog throughput only "
            f"{report['auto_throughput_ratio']:.2f}x sync: {report}"
        )
    if report["guarded"]:
        # CI perf-regression guard (smoke scale): the steady-state and
        # auto-tuned paths must never lose to the sync barrier loop.
        for key in ("throughput_ratio", "auto_throughput_ratio"):
            assert report[key] is None or report[key] >= 1.0, (
                f"{key} regressed below sync throughput: {report}"
            )
    if out_json:
        Path(out_json).write_text(json.dumps(report, indent=2) + "\n")
    return report


def run_disabled_telemetry_overhead(out_json: str | None = None) -> dict:
    """Pin the cost of the disabled telemetry fast path at < 2%.

    Spans are off by default; every instrumented call site then pays one
    module-global check returning a shared null object. This measures
    that per-call cost directly, runs one smoke-scale sync loop for a
    wall-clock baseline, and asserts that even a grossly padded span
    count (16 per fresh evaluation — the real loop emits a handful)
    stays under 2% of the loop's wall time.
    """
    from repro.obs import trace as obs_trace

    assert not obs_trace.enabled(), "telemetry must be off by default"
    assert obs_trace.span("a") is obs_trace.span("b"), (
        "disabled span() must return the shared null object, not allocate"
    )

    calls = 100_000
    started = time.perf_counter()
    for _ in range(calls):
        with obs_trace.span("noop"):
            pass
    per_span_s = (time.perf_counter() - started) / calls

    scale = _scale()
    population = scaled(_POPULATION, minimum=4)
    generations = scaled(_GENERATIONS, minimum=2)
    circuit = load_circuit(_CIRCUIT)
    _result, wall_s, dispatched = _run_mode(
        circuit, False, population=population, generations=generations,
        workers=_WORKERS, base_s=_BASE_S * min(1.0, scale),
        slow_s=_SLOW_S * min(1.0, scale),
    )

    padded_spans = 16 * max(1, dispatched)
    overhead_ratio = (padded_spans * per_span_s) / wall_s if wall_s else 0.0
    report = {
        "per_span_s": per_span_s,
        "loop_wall_s": wall_s,
        "fresh_evaluations": dispatched,
        "padded_spans": padded_spans,
        "overhead_ratio": overhead_ratio,
        "budget_ratio": 0.02,
    }
    assert overhead_ratio < 0.02, (
        f"disabled-telemetry fast path costs {overhead_ratio:.2%} of a "
        f"smoke-scale loop (budget 2%): {report}"
    )
    if out_json:
        Path(out_json).write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_async_loop_throughput(benchmark):
    report = benchmark.pedantic(run_async_loop, rounds=1, iterations=1)
    print_header(
        "ASYNC",
        "Steady-state vs generational search-loop throughput",
        "ROADMAP: async evaluation overlapping breeding with attack runs",
    )
    for key, value in report.items():
        print(f"  {key}: {value}")
    assert report["sync_fresh_evaluations"] > 0
    assert report["async_fresh_evaluations"] > 0
    # The timing assertion itself runs inside run_async_loop and only at
    # full scale (bench_smoke runs shrink the sleeps past usefulness).


if __name__ == "__main__":
    out = os.environ.get("BENCH_ASYNC_LOOP_OUT", "BENCH_async_loop.json")
    summary = run_async_loop(out_json=out)
    print(json.dumps(summary, indent=2))
    print(f"wrote {out}")
