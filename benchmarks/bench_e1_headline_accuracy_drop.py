"""E1 — the paper's headline ("First Insights", §II).

"First experimental results (without parameter tuning) indicate the
capability of AutoLock to generate locked netlists that successfully
decrease the attack accuracy by 25 percentage points."

We run the full pipeline on two mid-size circuits — expressed as one
declarative sweep over the ``circuit`` axis, so both points share the
experiment backend — and report the mean initial-population MuxLink
accuracy vs the evolved champion's, measured by an independent
(ensembled) attack configuration.

Shape expectation: drop >= ~15 pp on each circuit (paper: ~25 pp;
exact magnitude depends on budget — see the E1–E11 experiments in
README.md, "Declarative experiments" and "Layout").
"""

from __future__ import annotations

from conftest import print_header, scaled

from repro.api import ExperimentSpec, SweepSpec, run_sweep

_CIRCUITS = ["c1908_syn", "c2670_syn"]


def run_headline() -> list:
    sweep = SweepSpec(
        name="e1_headline",
        base=ExperimentSpec(
            circuit=_CIRCUITS[0],
            key_length=32,
            attack="muxlink",
            engine="autolock",
            engine_params={
                "population_size": scaled(12, minimum=4),
                "generations": scaled(12, minimum=3),
                "fitness_ensemble": 2,
                "report_ensemble": 3,
            },
            seed=7,
        ),
        axes={"circuit": list(_CIRCUITS)},
    )
    return [
        (run.spec.circuit, run.engine_result)
        for run in run_sweep(sweep).results
    ]


def test_e1_headline_accuracy_drop(benchmark):
    results = benchmark.pedantic(run_headline, rounds=1, iterations=1)
    print_header(
        "E1",
        "AutoLock headline: MuxLink accuracy drop after evolution",
        '§II "First Insights" (≈25 pp drop, untuned GA)',
    )
    print(f"{'circuit':<12} {'baseline':>9} {'evolved':>9} {'drop(pp)':>9} "
          f"{'evals':>6} {'time(s)':>8}")
    drops = []
    for cname, res in results:
        print(
            f"{cname:<12} {res.baseline_accuracy:>9.3f} "
            f"{res.evolved_accuracy:>9.3f} {res.accuracy_drop_pp:>+9.1f} "
            f"{res.fitness_evaluations:>6d} {res.runtime_s:>8.1f}"
        )
        drops.append(res.accuracy_drop_pp)
    print(f"\npaper reports: ~25 pp drop | measured mean: {sum(drops)/len(drops):+.1f} pp")

    for (cname, res), drop in zip(results, drops):
        assert res.baseline_accuracy > 0.60, (
            f"{cname}: baseline attack too weak ({res.baseline_accuracy:.3f}) "
            "for a meaningful drop"
        )
        assert drop >= 15.0, f"{cname}: drop {drop:+.1f} pp, expected >= 15 pp"
