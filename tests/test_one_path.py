"""One implementation path per capability, checked by source scans.

Each row names a capability that once had a second code path (or a
shape the codebase moved away from), the regex that finds the old path,
the files it scans, and the rule the matches must obey:

* ``absent`` — no file in scope matches;
* ``at_most_one`` — at most one matching line in scope;
* ``only_in`` — matches only in the ``allowed`` files;
* ``in_each`` — every listed file matches.

A scope is a directory (scanned recursively, bytecode caches skipped),
a file, or a glob relative to the repository root. A listed file that is
gone fails its row, so the list gets updated instead of silently
scanning nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Row:
    name: str
    pattern: str
    scope: tuple[str, ...]
    rule: str = "absent"
    allowed: tuple[str, ...] = ()
    why: str = ""


ROWS = [
    Row(
        "One link-distance path", r"_bounded_distances_to", ("src",),
        why="the MLP link distances come from the radius-2 balls in "
        "features.py; the per-link BFS oracle lives in tests/reference",
    ),
    Row(
        "One GNN transpose", r"lexsort",
        ("src/repro/attacks/muxlink/gnn.py",),
        why="S^T of a symmetric block shares S's CSR pattern and "
        "segment-sum plan; the lexsort transpose lives in tests/reference",
    ),
    Row(
        "One lock-side scorer", r"class LockVsPanelFitness", ("src",),
        why="SpecFitness scores a lock against one attack or a panel; the "
        "per-member-scope panel scorer lives in tests/reference",
    ),
    Row(
        "One evaluator interface", r"supports_async|future-capable",
        ("src",),
        why="every evaluator has submit and evaluate, so nothing may check "
        "what an evaluator can serve",
    ),
    Row(
        "One memo path: one fresh-evaluation counter",
        r"FRESH_EVALUATIONS.inc", ("src",), rule="at_most_one",
        why="CachedFitness is the one place that counts a fresh evaluation",
    ),
    Row(
        "One memo path: evaluators never write cache counters",
        r"\.(hits|misses) *[-+]=", ("src/repro/ec/evaluator.py",),
        why="evaluators never rewind cache counters",
    ),
    Row(
        "One subgraph batch path",
        r"_CHUNK_CELLS|from_subgraphs|normalized_adjacency|pos_flat",
        ("src",),
        why="the extractor returns one stacked SubgraphBatch that the GNN "
        "reads as is; the dense per-pair blocks live in tests/reference",
    ),
    Row(
        "One observed-graph build",
        r"drop_stale_caches|_adj_version|_cache_version|def add_node"
        r"|def add_edge|def extract_keygates",
        ("src",),
        why="extract_observed builds each ObservedGraph once, in one walk "
        "that also yields its MUX queries and key-gate sites",
    ),
    Row(
        "One pool evaluator: no ProcessPoolEvaluator",
        r"ProcessPoolEvaluator", ("src",),
        why="AsyncEvaluator is the only pool evaluator",
    ),
    Row(
        "One pool evaluator: built only by open_evaluator",
        r"AsyncEvaluator\(", ("src",), rule="only_in",
        allowed=("src/repro/ec/evaluator.py",),
        why="build evaluators with open_evaluator, not AsyncEvaluator(...)",
    ),
    Row(
        "One loop-mode rule",
        r"def resolve_async|def resolved_async_mode", ("src",),
        rule="only_in", allowed=("src/repro/api/spec.py",),
        why="engine configs take a plain async_mode bool; only "
        "ExperimentSpec.resolved_async_mode derives it from workers",
    ),
    Row(
        "No legacy per-engine loop code: every engine drives SearchLoop",
        r"SearchLoop",
        ("src/repro/ec/ga.py", "src/repro/ec/nsga2.py",
         "src/repro/ec/alternatives.py"),
        rule="in_each",
    ),
    Row(
        "No legacy per-engine loop code: no hand-rolled breeding loop",
        r"while len\(next_pop\)", ("src/repro/ec/*.py",),
    ),
    Row(
        "Registry-only dispatch (no engine imports MuxGene)", r"MuxGene",
        ("src/repro/api/engines.py", "src/repro/ec/loop.py",
         "src/repro/ec/ga.py", "src/repro/ec/nsga2.py",
         "src/repro/ec/alternatives.py", "src/repro/ec/autolock.py",
         "src/repro/ec/evaluator.py"),
        why="engines dispatch genes through the PRIMITIVES registry",
    ),
    Row(
        "One store RPC table",
        r"def kv_op|def queue_op|def entry_updated_at", ("src",),
        why="the server and HttpStore forward StoreBackend methods by name "
        "(SERVED_METHODS in store/base.py); entry write times are read "
        "from the SQLite file by tests/reference/store.py",
    ),
    Row(
        "One sweep path: the scheduler assembles no results",
        r"def collect|\bRunWriter\b", ("src/repro/dist",),
        why="run_sweep replays a distributed sweep's stored records; the "
        "scheduler only enqueues, drives and reconciles",
    ),
    Row(
        "One loop mode for the trajectory searches",
        r"async_mode\s*:|self\.async_mode", ("src/repro/ec/alternatives.py",),
        why="the single-trajectory searches always run the steady-state "
        "loop, which walks one trajectory on any evaluator",
    ),
    Row(
        "One evaluator owner: no scope helper",
        r"evaluator_scope", ("src",),
        why="engines, AutoLock and co-evolution use the evaluator they are "
        "handed; nothing opens one on their behalf",
    ),
    Row(
        "One evaluator owner: only the run owners open evaluators",
        r"(open_evaluator|evaluator_scope)\(", ("src",), rule="only_in",
        allowed=("src/repro/ec/evaluator.py", "src/repro/api/runner.py",
                 "src/repro/dist/worker.py"),
        why="run_experiment, run_sweep and the distributed Worker open a "
        "run's evaluator and close it",
    ),
    Row(
        "One pool path",
        r"not picklable|_warned_unpicklable|falling back",
        ("src/repro/ec/evaluator.py",),
        why="the pool evaluator raises TypeError for a fitness it cannot "
        "pickle instead of scoring it in the dispatching process",
    ),
    Row(
        "One store wire table: the client restates no served method",
        r"def (load_namespace|get|put_many|wipe_namespace|delete_many"
        r"|vacuum|disk_usage|namespaces|status|enqueue_points|heartbeat"
        r"|release_worker|fail|requeue_expired|retry_failed|queue_counts"
        r"|mark_done|points)\(",
        ("src/repro/serve/client.py",),
        why="HttpStore builds its forwarding methods from SERVED_METHODS "
        "and the StoreBackend signatures; only claim and complete add "
        "behaviour",
    ),
    Row(
        "One store owner",
        r"open_store\(", ("src",), rule="only_in",
        allowed=("src/repro/store/base.py", "src/repro/store/gc.py",
                 "src/repro/api/runner.py", "src/repro/dist/worker.py",
                 "src/repro/dist/scheduler.py", "src/repro/serve/server.py",
                 "src/repro/cli.py"),
        why="run_experiment, run_sweep, the distributed worker and "
        "scheduler, the campaign server, gc_store and the CLI store verbs "
        "open a run's store and close it; everything else uses the handle",
    ),
    Row(
        "Caches never open stores",
        r"open_store|is_url|cache_path", ("src/repro/ec", "src/repro/coevo"),
        why="FitnessCache, AutoLock and CoevoEngine take an open store",
    ),
    Row(
        "Records are not genotypes",
        r"_memo_key|experiment_cache", ("src",),
        why="experiment records and epoch checkpoints are read and written "
        "with store.get/store.put_many under their own keys, not through "
        "a genotype FitnessCache",
    ),
]


def _files(scope: str) -> list[Path]:
    if any(ch in scope for ch in "*?["):
        return sorted(ROOT.glob(scope))
    path = ROOT / scope
    if path.is_dir():
        return sorted(
            p for p in path.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts
        )
    return [path]


def _matches(path: Path, regex: re.Pattern) -> list[str]:
    text = path.read_text(encoding="utf-8", errors="replace")
    rel = path.relative_to(ROOT)
    return [
        f"{rel}:{number}: {line.strip()}"
        for number, line in enumerate(text.splitlines(), start=1)
        if regex.search(line)
    ]


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_one_path(row: Row) -> None:
    regex = re.compile(row.pattern)
    files = [f for scope in row.scope for f in _files(scope)]
    gone = [str(f.relative_to(ROOT)) for f in files if not f.is_file()]
    assert files and not gone, (
        f"{row.name}: {gone or row.scope} is gone — update this row"
    )
    found = {f: _matches(f, regex) for f in files}
    hits = [line for lines in found.values() for line in lines]
    message = f"{row.name} ({row.why}):\n" + "\n".join(hits)
    if row.rule == "absent":
        assert not hits, message
    elif row.rule == "at_most_one":
        assert len(hits) <= 1, message
    elif row.rule == "only_in":
        allowed = {ROOT / a for a in row.allowed}
        assert all(f in allowed for f, lines in found.items() if lines), message
    elif row.rule == "in_each":
        missing = [str(f.relative_to(ROOT)) for f, lines in found.items()
                   if not lines]
        assert not missing, f"{row.name}: no match in {missing}"
    else:
        raise AssertionError(f"unknown rule {row.rule!r}")
