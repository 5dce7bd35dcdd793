"""The ledger's workloads, one operation each, and the output checks.

An *operation* is one complete user-visible run through the public API:
one AutoLock run (``run_experiment``) or one whole sweep (``run_sweep``).
Every operation of a benchmark run repeats the same spec at the same
seed, so its deterministic record must repeat exactly; that digest check
joins the per-operation output checks below.

Why these three (see README.md for the measured traffic):

* ``evolve-mlp-c1908`` — the paper's configuration, single process:
  MLP training dominates, genotype bookkeeping is second.
* ``evolve-bayes-c7552-w2`` — nothing is trained; the serial parent's
  genotype sampling/repair and the report stage's scratch re-lock
  dominate. MLP/GNN changes must not move it. Not in BENCHMARK.json:
  its pure-Python wall swings too far with machine speed (README.md).
* ``sweep-gnn-mixed-c880-w2`` — GNN training dominates and genotype work
  is about 1%, so it bypasses genotype changes. The only workload with
  key-gate primitives, the ``scope`` attack, and store traffic.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

MIXED_ALPHABET = ["mux", "xor", "and_or"]


@dataclass(frozen=True)
class Workload:
    name: str
    circuit: str
    key_length: int
    population: int
    generations: int
    predictor: str
    workers: int
    sweep: bool = False
    report_ensemble: int = 3
    #: layers the traced run must see called at least once.
    required: tuple[str, ...] = ()

    def engine_params(self) -> dict:
        params = {
            "population_size": self.population,
            "generations": self.generations,
            "report_predictor": self.predictor,
        }
        if self.report_ensemble != 3:
            params["report_ensemble"] = self.report_ensemble
        return params

    def build(self, seed: int, op_dir: Path):
        """The spec (or sweep) one operation runs; a pure function of seed."""
        from repro.api.spec import ExperimentSpec, SweepSpec

        spec = ExperimentSpec(
            circuit=self.circuit,
            key_length=self.key_length,
            engine="autolock",
            attack="muxlink",
            attack_params={"predictor": self.predictor},
            engine_params=self.engine_params(),
            seed=seed,
            workers=self.workers,
        )
        if not self.sweep:
            return spec
        return SweepSpec(
            base=spec,
            axes={"alphabet": [["mux"], MIXED_ALPHABET]},
            name=self.name,
            workers=self.workers,
            cache_path=str(op_dir / "store.sqlite"),
        )


_GENOTYPE = ("genotype.sample", "genotype.repair", "primitive.sample",
             "primitive.apply", "netlist.has_path")
_ATTACK = ("attack.run", "graph.extract", "relock.delta", "relock.scratch",
           "autolock.run", "ga.run")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evolve-mlp-c1908", "c1908_syn", key_length=32, population=4,
            generations=2, predictor="mlp", workers=1,
            required=_GENOTYPE + _ATTACK + (
                "predictor.mlp.fit", "predictor.mlp.score", "features.matrix",
                "features.train_pairs", "ml.train", "optim.step",
            ),
        ),
        Workload(
            "evolve-bayes-c7552-w2", "c7552_syn", key_length=16, population=4,
            generations=2, predictor="bayes", workers=2,
            required=_GENOTYPE + _ATTACK + (
                "predictor.bayes.fit", "predictor.bayes.score", "pool.task",
                "evaluator.wait",
            ),
        ),
        Workload(
            "sweep-gnn-mixed-c880-w2", "c880_syn", key_length=8, population=3,
            generations=1, predictor="gnn", workers=2, sweep=True,
            report_ensemble=1,
            required=_ATTACK + (
                "predictor.gnn.fit", "predictor.gnn.score", "subgraph.extract",
                "optim.step", "scope.run", "store.get", "store.put",
                "pool.task", "evaluator.wait",
            ),
        ),
        # Minimum-length workload for selftest.py only; not in BENCHMARK.json.
        Workload(
            "smoke-rand", "rand_150_5", key_length=4, population=4,
            generations=1, predictor="bayes", workers=1,
            required=("genotype.sample", "attack.run", "predictor.bayes.fit"),
        ),
    )
}


# ---------------------------------------------------------------------------
# output checks: each takes one RunResult and returns a failure or None
# ---------------------------------------------------------------------------
def check_unlocks(run) -> str | None:
    """The correct key makes the champion's locked netlist equivalent."""
    from repro.sim.equivalence import check_equivalence

    locked = run.locked
    result = check_equivalence(
        locked.original, locked.netlist,
        key_right=locked.correct_key_dict(), seed_or_rng=0,
    )
    if not result.equal:
        return f"champion not equivalent under the correct key ({result.method})"
    return None


def check_genotype(run) -> str | None:
    """The champion genotype applies to the original without repair."""
    from repro.ec.genotype import genotype_is_valid

    genes = run.engine_outcome.best_genotype
    if not genes or not genotype_is_valid(run.locked.original, genes):
        return "champion genotype is not valid on the original netlist"
    return None


def reported_accuracies(record: dict) -> list[float]:
    engine = record["engine"]
    return [
        engine["baseline_accuracy"],
        engine["evolved_accuracy"],
        engine["best_fitness"],
        *engine["baseline_population_accuracies"],
    ]


def check_accuracies(run) -> str | None:
    """Every reported accuracy is a probability."""
    bad = [a for a in reported_accuracies(run.record) if not 0.0 <= a <= 1.0]
    return f"accuracies outside [0, 1]: {bad}" if bad else None


CHECKS: list[Callable] = [check_unlocks, check_genotype, check_accuracies]


@dataclass
class OpResult:
    wall_s: float
    seed: int = 0
    fresh_evals: int = 0
    cache_hits: int = 0
    digest: str = ""
    accuracy_drop_pp: float = 0.0
    store_bytes: int = 0
    failures: list[str] = field(default_factory=list)


def run_op(
    workload: Workload, seed: int, op_dir: Path, timed=contextlib.nullcontext
) -> OpResult:
    """Run one operation; time it, then check its outputs (untimed).

    ``timed`` is entered around exactly the timed call; the traced run
    passes its root span there.
    """
    from repro.api.runner import run_experiment, run_sweep

    op_dir.mkdir(parents=True, exist_ok=True)
    job = workload.build(seed, op_dir)
    with timed():
        started = time.perf_counter()
        if workload.sweep:
            runs = run_sweep(job).results
        else:
            runs = [run_experiment(job)]
        wall_s = time.perf_counter() - started
    result = OpResult(wall_s=wall_s, seed=seed)
    result.store_bytes = sum(
        p.stat().st_size for p in op_dir.rglob("*") if p.is_file()
    )
    for run in runs:
        result.fresh_evals += run.fresh_evaluations
        result.cache_hits += run.cache_hits
        for check in CHECKS:
            failure = check(run)
            if failure:
                result.failures.append(f"{check.__name__}: {failure}")
    result.accuracy_drop_pp = sum(
        r.record["engine"]["accuracy_drop_pp"] for r in runs
    ) / len(runs)
    blob = json.dumps(
        [r.deterministic_record() for r in runs], sort_keys=True, default=str
    )
    result.digest = hashlib.sha256(blob.encode()).hexdigest()
    return result
