"""Fast self-test of the ledger at minimum length on a random circuit.

Run from the repository root::

    python3 perfbench/selftest.py

It runs the ``smoke-rand`` workload (``rand_150_5``, key length 4) with
tracing off and on, asserts that every metric BENCHMARK.json names is
emitted with its unit, and that a deliberately broken output check
raises the failure rate. Takes about ten seconds; exits non-zero on
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE = "smoke-rand"


def _run(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", SMOKE,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=170,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def _check_emitted(result: dict, declared: list[dict]) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys: {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 2:
        raise AssertionError(f"smoke run failed: {result}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise AssertionError(
            f"metric/unit mismatch: {sorted(set(got.items()) ^ set(want.items()))}"
        )


def _check_broken_output_check_counts() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import run
    import workloads

    work = ROOT / ".bench_work" / "selftest"
    args = argparse.Namespace(workload=SMOKE, seed=3, seconds=0.5)
    workloads.CHECKS.append(lambda _run: "deliberately broken check")
    try:
        ledger, metrics, shown = run.end_to_end(
            args, workloads.WORKLOADS[SMOKE], work
        )
    finally:
        workloads.CHECKS.pop()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    if shown["failure_rate"][0] != 1.0 or metrics["success_rate"][0] != 0.0:
        raise AssertionError(f"broken check not counted: {shown}")
    if ledger.failed != len(ledger.ops) or ledger.failed < 2:
        raise AssertionError(f"{ledger.failed} of {len(ledger.ops)} ops failed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _check_emitted(_run(0), spec["end_to_end"])
    _check_emitted(_run(1), spec["per_layer"])
    _check_broken_output_check_counts()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
