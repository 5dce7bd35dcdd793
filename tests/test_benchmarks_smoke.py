"""Smoke-run every ``benchmarks/bench_e*.py`` entry point on a tiny circuit.

The paper-reproduction benchmarks only used to execute at full scale, so
API drift in the code they exercise surfaced months later at
paper-reproduction time. Each smoke test here imports one bench module,
shrinks its workload knobs (tiny registry circuit, minimal
``REPRO_BENCH_SCALE``, single-element sweep matrices) and calls its
``run_*`` entry point, asserting it still produces a result. Marked
``bench_smoke`` so CI can select them explicitly:

    PYTHONPATH=src python -m pytest -m bench_smoke -q
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

#: Tiny-but-lockable stand-in for every circuit a bench asks for. Needs
#: enough gates that D-MUX locking at the benches' key lengths can still
#: find insertion sites.
TINY_CIRCUIT = "rand_150_5"

#: (module, entry point) for every benchmark.
BENCH_ENTRY_POINTS = [
    ("bench_e1_headline_accuracy_drop", "run_headline"),
    ("bench_e2_workflow_stages", "run_workflow"),
    ("bench_e3_muxlink_vs_dmux", "run_matrix"),
    ("bench_e3_muxlink_vs_dmux", "run_gnn_spotcheck"),
    ("bench_e4_sat_attack", "run_sat_matrix"),
    ("bench_e5_oracle_less", "run_oracle_less_matrix"),
    ("bench_e6_ga_convergence", "run_convergence"),
    ("bench_e7_operator_ablation", "run_ablation"),
    ("bench_e8_multiobjective", "run_nsga2"),
    ("bench_e9_overhead", "run_overhead"),
    ("bench_e10_functional", "run_functional"),
    ("bench_e11_heuristic_comparison", "run_comparison"),
    ("bench_sweep_throughput", "run_throughput"),
    ("bench_campaign_service", "run_campaign_service"),
    ("bench_async_loop", "run_async_loop"),
    ("bench_async_loop", "run_disabled_telemetry_overhead"),
    ("bench_delta_relock", "run_delta_relock"),
    ("bench_alphabet_ablation", "run_alphabet_ablation"),
]


def _load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_bench(module_name: str):
    """Import a bench module, resolving its ``import conftest`` to the
    benchmarks/ conftest (pytest owns the ``conftest`` name for the tests/
    tree, so it is swapped in only for the duration of the import)."""
    bench_conftest = _load_module("_bench_conftest", BENCH_DIR / "conftest.py")
    saved = sys.modules.get("conftest")
    sys.modules["conftest"] = bench_conftest
    try:
        return _load_module(f"_smoke_{module_name}", BENCH_DIR / f"{module_name}.py")
    finally:
        if saved is not None:
            sys.modules["conftest"] = saved
        else:
            sys.modules.pop("conftest", None)


@pytest.mark.bench_smoke
@pytest.mark.parametrize("module_name,entry", BENCH_ENTRY_POINTS)
def test_bench_entry_point_smoke(module_name, entry, monkeypatch, tmp_path):
    import repro.api.runner as api_runner
    from repro.circuits import load_circuit

    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
    # The one bench that always writes its report: keep it out of the
    # working directory.
    monkeypatch.setenv(
        "BENCH_SERVE_OUT", str(tmp_path / "BENCH_campaign_service.json")
    )
    tiny = load_circuit(TINY_CIRCUIT)
    module = _load_bench(module_name)
    # Registered under its name for the run, so the classes it defines
    # (bench_async_loop's SkewedCostFitness) pickle by reference: a pool
    # evaluator refuses a fitness it cannot pickle.
    monkeypatch.setitem(sys.modules, module.__name__, module)

    # The benches route circuit resolution through the declarative
    # runner's single load point; a few also load directly for staging.
    # Route every path to the tiny stand-in.
    monkeypatch.setattr(api_runner, "load_circuit", lambda name: tiny.copy())
    if hasattr(module, "load_circuit"):
        monkeypatch.setattr(
            module, "load_circuit", lambda name: tiny.copy(), raising=True
        )
    # Shrink the sweep matrices the modules expose as knobs.
    if hasattr(module, "_CIRCUITS"):
        monkeypatch.setattr(module, "_CIRCUITS", module._CIRCUITS[:1])
    if hasattr(module, "_KEYS"):
        monkeypatch.setattr(module, "_KEYS", [8])
    if hasattr(module, "_VARIANTS"):
        monkeypatch.setattr(module, "_VARIANTS", module._VARIANTS[:2])

    result = getattr(module, entry)()
    assert result is not None, f"{module_name}.{entry} returned nothing"
    if isinstance(result, list):
        assert result, f"{module_name}.{entry} produced an empty result"
