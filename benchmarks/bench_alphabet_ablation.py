"""Alphabet ablation — mux-only vs mixed locking-primitive alphabets.

The composable-primitive API opens the genotype to XOR/XNOR and AND/OR
key gates alongside the paper's D-MUX pairs. This bench runs the same GA
budget over three alphabets and reports, per alphabet:

* **resilience** — champion composite attack accuracy (MuxLink link
  prediction on MUX bits + the oracle-less key-gate heuristic on the
  rest; lower = more resilient);
* **overhead** — gates the champion adds (per-primitive accounting:
  2 gates per MUX gene, 1 per key gate) and its area-overhead fraction.

Shape expectations from the construction: pure-MUX champions are the
most resilient (key gates leak to constant propagation) but the most
expensive; alphabets containing key-gate primitives can only trade
resilience for area. The JSON artifact ``BENCH_alphabet.json`` (path
override: ``BENCH_ALPHABET_OUT``) records the table for CI archiving.
"""

from __future__ import annotations

import json
import os

from conftest import print_header, scaled

from repro.api import ExperimentSpec, SweepSpec, run_sweep
from repro.api.engines import genotype_from_record
from repro.locking.primitives import genotype_overhead

_CIRCUITS = ["c432_syn"]
_ALPHABETS = [
    ["mux"],
    ["mux", "xor"],
    ["mux", "xor", "and_or"],
]


def run_alphabet_ablation() -> list[dict]:
    sweep = SweepSpec(
        name="alphabet_ablation",
        base=ExperimentSpec(
            circuit=_CIRCUITS[0],
            key_length=scaled(16, minimum=4),
            engine="ga",
            engine_params={
                "population_size": scaled(8, minimum=4),
                "generations": scaled(6, minimum=2),
            },
            attack="muxlink",
            attack_params={"predictor": "bayes"},
            seed=17,
        ),
        axes={"alphabet": [list(a) for a in _ALPHABETS]},
    )
    rows: list[dict] = []
    for run in run_sweep(sweep).results:
        engine = run.record["engine"]
        genes = genotype_from_record(engine["best_genotype"])
        base_gates = len(run.locked.original) if run.locked else None
        kinds: dict[str, int] = {}
        for gene in genes:
            kinds[gene.kind] = kinds.get(gene.kind, 0) + 1
        rows.append(
            {
                "alphabet": list(run.spec.alphabet),
                "fingerprint": run.fingerprint,
                "resilience": float(engine["best_fitness"]),
                "initial_best": float(engine["initial_best"]),
                "champion_kinds": kinds,
                "gates_added": genotype_overhead(genes),
                "base_gates": base_gates,
            }
        )
    return rows


def _assert_shape(rows: list[dict]) -> None:
    """Shape assertions shared by the pytest and CI script entry points."""
    by_alpha = {tuple(r["alphabet"]): r for r in rows}
    mux_only = by_alpha[("mux",)]
    # Pure MUX champions use 2 gates per key bit — the cost ceiling; any
    # champion that kept a key-gate gene sits strictly below it.
    for alpha, row in by_alpha.items():
        assert row["gates_added"] <= mux_only["gates_added"], (
            f"{alpha}: mixed alphabets cannot cost more gates than pure MUX"
        )
        n_keygates = sum(
            n for kind, n in row["champion_kinds"].items() if kind != "mux"
        )
        assert row["gates_added"] == mux_only["gates_added"] - n_keygates
        # Key-gate bits leak to the oracle-less heuristic: resilience can
        # only degrade (or match, if evolution discards them) vs pure MUX.
        assert row["resilience"] >= mux_only["resilience"] - 1e-9, (
            f"{alpha}: keygate genes cannot beat pure MUX resilience"
        )


def _emit_report(rows: list[dict], asserted: bool) -> str:
    out = os.environ.get("BENCH_ALPHABET_OUT", "BENCH_alphabet.json")
    report = {
        "bench": "alphabet_ablation",
        "circuit": _CIRCUITS[0],
        "alphabets": [list(a) for a in _ALPHABETS],
        "rows": rows,
        "asserted": asserted,
    }
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return out


def test_alphabet_ablation(benchmark):
    rows = benchmark.pedantic(run_alphabet_ablation, rounds=1, iterations=1)
    print_header(
        "ALPHA",
        "Locking-alphabet ablation: resilience vs overhead per primitive mix",
        "AutoLock as composition search over locking building blocks",
    )
    print(f"{'alphabet':<22} {'resilience':>10} {'gates+':>7} {'kinds'}")
    for row in rows:
        print(
            f"{'+'.join(row['alphabet']):<22} {row['resilience']:>10.3f} "
            f"{row['gates_added']:>7} {row['champion_kinds']}"
        )

    _assert_shape(rows)
    out = _emit_report(rows, asserted=True)
    print(f"report: {out}")


if __name__ == "__main__":  # pragma: no cover - CI entry
    rows = run_alphabet_ablation()
    _assert_shape(rows)
    path = _emit_report(rows, asserted=True)
    print(f"wrote {path}")
    for row in rows:
        print(
            f"{'+'.join(row['alphabet']):<22} resilience="
            f"{row['resilience']:.3f} gates_added={row['gates_added']}"
        )
