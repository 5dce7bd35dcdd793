"""Campaign-service overhead — direct SQLite vs the HTTP campaign server.

Not a paper experiment: this bench tracks the cost of putting the
campaign server (``repro.serve``) between workers and the store. It runs
one static attack sweep twice from cold — distributed workers sharing
the SQLite file directly, then the same sweep through
``open_store("http://...")`` against a :class:`CampaignServer` fronting
an identical file — checks the records are byte-identical after
nondeterministic-field stripping, and reports wall-clock for both modes
plus raw per-request latency of the hot queue path (claim/heartbeat/
complete round-trips per second).

``python benchmarks/bench_campaign_service.py`` emits
``BENCH_campaign_service.json`` (override the path with
``BENCH_SERVE_OUT``) so CI can archive the numbers run over run.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

try:
    from conftest import print_header, scaled
except ImportError:  # direct `python benchmarks/bench_....py` execution
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import print_header, scaled

from repro.api import ExperimentSpec, SweepSpec, run_sweep
from repro.serve import TOKEN_ENV, CampaignServer, HttpStore

_CIRCUITS = ["rand_150_5"]
_WORKERS = 2
_TOKEN = "bench-campaign-token"


def _sweep(cache_path: str) -> SweepSpec:
    return SweepSpec(
        name="campaign_service",
        base=ExperimentSpec(
            circuit=_CIRCUITS[0],
            key_length=4,
            scheme="dmux",
            attack="muxlink",
            attack_params={"predictor": "bayes"},
            seed=1,
        ),
        axes={"key_length": [4, 6, 8], "seed": [1, 2]},
        cache_path=cache_path,
    )


def _stripped(results) -> list[str]:
    return [
        json.dumps(r.deterministic_record(), sort_keys=True) for r in results
    ]


def _queue_roundtrips_per_s(
    store: HttpStore, n: int, sweep_id: str = "bench_rt"
) -> float:
    """Claim→heartbeat→complete latency on an n-point throwaway sweep."""
    store.enqueue_points(sweep_id, {f"rt{i}": {} for i in range(n)})
    started = time.perf_counter()
    requests = 0
    while True:
        point = store.claim(sweep_id, "bench", 30.0)
        if point is None:
            break
        store.heartbeat(sweep_id, point.fingerprint, "bench", 30.0)
        store.complete(sweep_id, point.fingerprint, "bench")
        requests += 3
    return requests / (time.perf_counter() - started)


def run_campaign_service(out_json: str | None = None) -> dict:
    workers = max(2, scaled(_WORKERS, minimum=2))
    os.environ[TOKEN_ENV] = _TOKEN
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        direct_sweep = _sweep(os.path.join(tmp, "direct.sqlite"))
        started = time.perf_counter()
        direct = run_sweep(direct_sweep, distributed=workers)
        direct_s = time.perf_counter() - started

        with CampaignServer(
            os.path.join(tmp, "served.sqlite"), token=_TOKEN, port=0
        ) as server:
            served_sweep = _sweep(server.url)
            started = time.perf_counter()
            served = run_sweep(served_sweep, distributed=workers)
            served_s = time.perf_counter() - started
            rps = _queue_roundtrips_per_s(
                HttpStore(server.url), scaled(50, minimum=5)
            )

        if _stripped(direct.results) != _stripped(served.results):
            raise AssertionError(
                "records served over HTTP diverge from direct SQLite"
            )

        n_points = len(direct.results)
        report = {
            "points": n_points,
            "workers": workers,
            "direct_wall_s": direct_s,
            "served_wall_s": served_s,
            "http_overhead_x": served_s / max(direct_s, 1e-9),
            "queue_requests_per_s": rps,
            "fresh_evaluations": served.fresh_evaluations,
        }

    print_header(
        "campaign_service",
        "Campaign server overhead: direct SQLite vs HTTP store",
        "infrastructure trajectory (no paper anchor)",
    )
    print(
        f"{n_points} points x {workers} workers: "
        f"direct {direct_s:.2f}s, via server {served_s:.2f}s "
        f"({report['http_overhead_x']:.2f}x)"
    )
    print(f"queue hot path: {rps:.0f} requests/s")

    out_path = out_json or os.environ.get(
        "BENCH_SERVE_OUT", "BENCH_campaign_service.json"
    )
    Path(out_path).write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {out_path}")
    return report


if __name__ == "__main__":
    run_campaign_service()
