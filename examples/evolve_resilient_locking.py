#!/usr/bin/env python3
"""Full AutoLock evolution with convergence trace and design export.

The paper's headline experiment at a configurable budget, expressed as
one declarative :class:`~repro.api.ExperimentSpec`: evolve a MUX-based
locking against MuxLink on a chosen circuit, print the per-generation
convergence trace, re-evaluate the champion with an independent
ensembled attack, and export the evolved design (.bench + .lock.json +
structural Verilog) plus the run's JSONL/manifest artifacts for
downstream tooling.

Run:  python examples/evolve_resilient_locking.py [circuit] [K] [pop] [gens] [workers]
e.g.  python examples/evolve_resilient_locking.py c1908_syn 32 12 12 4

``workers >= 2`` fans fitness evaluation out across processes; results
are identical to the serial run. Attack evaluations — and the finished
experiment record itself — persist to
``evolved_designs/fitness_cache.sqlite``: re-running the same
configuration costs zero fresh attacks (delete the file to start over).
"""

import sys
from pathlib import Path

from repro.api import ExperimentSpec, run_experiment
from repro.io import save_locked_design
from repro.netlist.verilog import write_verilog_file
from repro.sim import check_equivalence


def main() -> None:
    circuit_name = sys.argv[1] if len(sys.argv) > 1 else "c1355_syn"
    key_length = int(sys.argv[2]) if len(sys.argv) > 2 else 24
    population = int(sys.argv[3]) if len(sys.argv) > 3 else 10
    generations = int(sys.argv[4]) if len(sys.argv) > 4 else 10
    workers = int(sys.argv[5]) if len(sys.argv) > 5 else 1

    out_dir = Path("evolved_designs")
    spec = ExperimentSpec(
        circuit=circuit_name,
        key_length=key_length,
        attack="muxlink",
        attack_params={"predictor": "mlp"},
        engine="autolock",
        engine_params={
            "population_size": population,
            "generations": generations,
            "report_predictor": "mlp",
            "report_ensemble": 3,
        },
        seed=7,
        workers=workers,
        cache_path=str(out_dir / "fitness_cache.sqlite"),
    )
    print(f"evolving {circuit_name} (K={key_length}, pop={population}, "
          f"gens={generations}, workers={workers})...")
    print(f"spec fingerprint: {spec.fingerprint()}")
    run = run_experiment(spec, out_dir=out_dir / "artifacts")

    if run.from_cache:
        rec = run.record["engine"]
        print("\nreplayed finished record from the experiment cache "
              "(0 fresh attack evaluations)")
        print(f"baseline {rec['baseline_accuracy']:.3f} -> "
              f"evolved {rec['evolved_accuracy']:.3f} "
              f"(drop {rec['accuracy_drop_pp']:+.1f} pp)")
    else:
        result = run.engine_result
        print("\nconvergence (fitness = MuxLink accuracy, lower is better):")
        print(f"{'gen':>4} {'best':>7} {'mean':>7} {'std':>7}")
        for stats in result.ga.history:
            print(f"{stats.generation:>4} {stats.best:>7.3f} "
                  f"{stats.mean:>7.3f} {stats.std:>7.3f}")
        print()
        print(result.summary())
        print(f"baseline population accuracies: "
              f"{[round(a, 3) for a in result.baseline_population_accuracies]}")
        print(f"fresh attack evaluations: {run.fresh_evaluations} "
              f"(cache hits: {run.cache_hits})")

    locked = run.rebuild_locked()
    equivalence = check_equivalence(
        locked.original,
        locked.netlist,
        key_right=dict(locked.key),
        seed_or_rng=0,
    )
    print(f"functional correctness: {equivalence.equal} ({equivalence.method})")

    sidecar = save_locked_design(locked, out_dir)
    verilog_path = out_dir / f"{locked.netlist.name}.v"
    write_verilog_file(locked.netlist, verilog_path)
    print(f"\nexported: {sidecar}")
    print(f"exported: {verilog_path}")
    print(f"artifacts: {out_dir / 'artifacts'} (results.jsonl + manifest.json)")


if __name__ == "__main__":
    main()
