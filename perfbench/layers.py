"""Per-layer tracing for the traced benchmark run.

The program has no spans of its own at the layers this ledger needs, so
the benchmark wraps the public entry points of each module from the
outside. Two rules make the numbers trustworthy:

* A function is wrapped at *every* module binding that holds it. A
  ``from repro.ec.genotype import repair_genotype`` in ``repro.ec.ga``
  copies the function object, so patching only the defining module would
  miss that caller. :meth:`Tracer.wrap_function` finds every binding by
  identity and replaces each one.
* Pool children are forked from the traced parent and inherit the
  wrappers. Each child resets its counters at fork and rewrites its own
  span file whenever its outermost span closes, because pool workers exit
  without running ``atexit`` hooks. The parent merges those files.

A layer's self time is its span's duration minus the time its child
spans cover, tracked with one span stack per thread.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import Future
from pathlib import Path

#: spans that only group other layers; their self time is the share of
#: wall no named layer explains (``trace.unattributed_share``).
CONTAINERS = ("op", "autolock.run", "ga.run")

#: per-operation metric -> span whose total time it reports.
SPAN_SECONDS = {
    "genotype.sample_s": "genotype.sample",
    "genotype.repair_s": "genotype.repair",
    "relock.delta_s": "relock.delta",
    "relock.scratch_s": "relock.scratch",
    "graph.extract_s": "graph.extract",
    "features.matrix_s": "features.matrix",
    "features.train_pairs_s": "features.train_pairs",
    "subgraph.extract_s": "subgraph.extract",
    **{f"predictor.{p}.{stage}_s": f"predictor.{p}.{stage}"
       for p in ("mlp", "bayes", "gnn") for stage in ("fit", "score")},
    "ml.train_s": "ml.train",
    "optim.step_s": "optim.step",
    "attack.run_s": "attack.run",
    "scope.run_s": "scope.run",
    "evaluator.wait_s": "evaluator.wait",
    "ga.run_s": "ga.run",
    "store.get_s": "store.get",
    "store.put_s": "store.put",
}
#: per-operation metric -> span whose call count it reports.
SPAN_CALLS = {
    "genotype.sample_calls": "genotype.sample",
    "genotype.repair_calls": "genotype.repair",
    "primitive.sample_calls": "primitive.sample",
    "primitive.apply_calls": "primitive.apply",
    "netlist.has_path_calls": "netlist.has_path",
    "netlist.topo_calls": "netlist.topo",
    "relock.delta_calls": "relock.delta",
    "relock.scratch_calls": "relock.scratch",
    "features.vector_calls": "features.vector",
    **{f"predictor.{p}.fit_calls": f"predictor.{p}.fit"
       for p in ("mlp", "bayes", "gnn")},
    "optim.step_calls": "optim.step",
    "attack.run_calls": "attack.run",
    "scope.run_calls": "scope.run",
    "store.get_calls": "store.get",
    "store.put_calls": "store.put",
}
#: per-operation metric -> counter recorded by a wrapper hook.
COUNTS = {
    **{f"predictor.{p}.links_scored": f"predictor.{p}.links_scored"
       for p in ("mlp", "bayes", "gnn")},
    "autolock.init_s": "autolock.init_s",
    "autolock.ga_s": "autolock.ga_s",
    "autolock.report_s": "autolock.report_s",
}


class Tracer:
    """Per-process span aggregation: calls, total and self time per layer."""

    def __init__(self, span_dir: Path) -> None:
        self.span_dir = Path(span_dir)
        self.span_dir.mkdir(parents=True, exist_ok=True)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        self.is_child = False
        #: record only inside the timed region of an operation, so the
        #: untimed output checks never count as layer work.
        self.active = False
        self.reset()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- state ---------------------------------------------------------
    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._autolock: list[dict[str, float]] = []

    def _after_fork(self) -> None:
        self.reset()
        self.is_child = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_s),
            "counts": dict(self.counts),
        }

    def _flush_child(self) -> None:
        path = self.span_dir / f"span-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)

    # -- spans ---------------------------------------------------------
    @contextlib.contextmanager
    def timed(self, name: str = "op"):
        """Activate recording for one timed region under a root span."""
        self.active = True
        frame = self.enter(name)
        try:
            yield
        finally:
            self.leave(frame)
            self.active = False

    def enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def leave(self, frame: list) -> float:
        stack = self._stack()
        stack.pop()
        elapsed = time.perf_counter() - frame[1]
        name = frame[0]
        self.calls[name] += 1
        self.total[name] += elapsed
        self.self_s[name] += elapsed - frame[2]
        if stack:
            stack[-1][2] += elapsed
        elif self.is_child:
            self._flush_child()
        return elapsed

    # -- wrapping ------------------------------------------------------
    def _wrapper(self, name: str, fn, before=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            frame = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(frame)

        traced.__wrapped_layer__ = name
        return traced

    def _install(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(self, module, attr: str, name: str, before=None) -> int:
        """Wrap ``module.attr`` at every ``repro`` binding of the same object.

        Returns the number of bindings replaced; a function the program no
        longer has wraps nothing, and its layer reads zero.
        """
        original = getattr(module, attr, None)
        if original is None:
            return 0
        traced = self._wrapper(name, original, before)
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._install(mod, key, traced)
                    bound += 1
        return bound

    def wrap_method(self, cls, attr: str, name: str, before=None) -> None:
        """Wrap ``cls.attr`` where it is defined, so every subclass sees it."""
        owner = next(k for k in cls.__mro__ if attr in vars(k))
        original = vars(owner)[attr]
        if hasattr(original, "__wrapped_layer__"):
            return
        self._install(owner, attr, self._wrapper(name, original, before))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._installed):
            setattr(owner, attr, value)
        self._installed.clear()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    # -- pool waiting ----------------------------------------------------
    def wrap_future_wait(self) -> None:
        """Time the parent's main thread blocked on unfinished futures."""
        tracer = self
        original = Future.result

        @functools.wraps(original)
        def result(fut, timeout=None):
            if (
                not tracer.active
                or tracer.is_child
                or fut.done()
                or threading.current_thread() is not threading.main_thread()
            ):
                return original(fut, timeout)
            frame = tracer.enter("evaluator.wait")
            try:
                return original(fut, timeout)
            finally:
                tracer.leave(frame)

        self._install(Future, "result", result)

    # -- autolock phases -------------------------------------------------
    def wrap_autolock_phases(self, autolock_cls, ga_cls) -> None:
        """Split ``AutoLock.run`` into init / GA / report phases."""
        tracer = self
        run_autolock = vars(autolock_cls)["run"]
        run_ga = vars(ga_cls)["run"]

        @functools.wraps(run_autolock)
        def autolock_run(*args, **kwargs):
            if not tracer.active:
                return run_autolock(*args, **kwargs)
            marks = {"start": time.perf_counter()}
            tracer._autolock.append(marks)
            frame = tracer.enter("autolock.run")
            try:
                return run_autolock(*args, **kwargs)
            finally:
                tracer.leave(frame)
                tracer._autolock.pop()
                end = time.perf_counter()
                ga0 = marks.get("ga0", end)
                ga1 = marks.get("ga1", end)
                tracer.count("autolock.init_s", ga0 - marks["start"])
                tracer.count("autolock.ga_s", ga1 - ga0)
                tracer.count("autolock.report_s", end - ga1)

        @functools.wraps(run_ga)
        def ga_run(*args, **kwargs):
            if not tracer.active:
                return run_ga(*args, **kwargs)
            marks = tracer._autolock[-1] if tracer._autolock else {}
            marks["ga0"] = time.perf_counter()
            frame = tracer.enter("ga.run")
            try:
                return run_ga(*args, **kwargs)
            finally:
                tracer.leave(frame)
                marks["ga1"] = time.perf_counter()

        self._install(autolock_cls, "run", autolock_run)
        self._install(ga_cls, "run", ga_run)

    # -- merging ---------------------------------------------------------
    def child_snapshots(self) -> list[dict]:
        return [
            json.loads(path.read_text())
            for path in sorted(self.span_dir.glob("span-*.json"))
        ]

    def clear_child_files(self) -> None:
        for path in self.span_dir.glob("span-*"):
            path.unlink()


def merge(parent: dict, children: list[dict]) -> dict:
    """Sum span aggregates across processes; keeps the parent's own too."""
    merged = {k: defaultdict(float) for k in ("calls", "total", "self", "counts")}
    for snap in [parent, *children]:
        for section, values in snap.items():
            for key, value in values.items():
                merged[section][key] += value
    merged["child_busy_s"] = sum(c["total"].get("pool.task", 0.0) for c in children)
    merged["parent"] = parent
    return merged


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer the ledger reports; see README.md for the map."""
    import repro.api.runner  # noqa: F401  (binds everything below)
    import repro.circuits.registry as circuits_registry
    import repro.ec.autolock as autolock
    import repro.ec.evaluator as evaluator
    import repro.ec.ga as ga
    import repro.ec.genotype as genotype
    import repro.locking.genome_lock as genome_lock
    from repro.attacks.muxlink import features, graph, subgraph
    from repro.attacks.muxlink.attack import MuxLinkAttack
    from repro.attacks.muxlink.bayes import BayesLinkPredictor
    from repro.attacks.muxlink.gnn import GnnLinkPredictor
    from repro.attacks.muxlink.mlp_predictor import MlpLinkPredictor
    from repro.attacks.scope import ScopeAttack
    from repro.locking.delta import DeltaRelocker
    from repro.locking.primitives import get_primitive
    from repro.ml import network
    from repro.ml.optim import Adam
    from repro.netlist.netlist import Netlist
    from repro.registry import PRIMITIVES
    from repro.store.sqlite_store import SQLiteStore

    fn = tracer.wrap_function
    fn(circuits_registry, "_load_cached", "circuits.load")
    fn(genotype, "random_genotype", "genotype.sample")

    def count_repair(original, genes, *args, **kwargs):
        tracer.count("genotype.genes_checked", len(genes))

    fn(genotype, "repair_genotype", "genotype.repair", before=count_repair)

    def count_resample(*args, **kwargs):
        stack = tracer._stack()
        if stack and stack[-1][0] == "genotype.repair":
            tracer.count("genotype.genes_resampled")

    fn(genotype, "_sample_any", "genotype.sample_gene", before=count_resample)
    fn(genome_lock, "lock_with_genes", "relock.scratch")
    fn(graph, "extract_observed", "graph.extract")
    fn(features, "link_feature_matrix", "features.matrix")
    fn(features, "make_training_pairs", "features.train_pairs")
    fn(features, "link_feature_vector", "features.vector")
    fn(subgraph, "extract_enclosing_subgraphs", "subgraph.extract")
    fn(network, "fit", "ml.train")
    fn(evaluator, "_eval_epoch", "pool.task")

    meth = tracer.wrap_method
    meth(DeltaRelocker, "lock", "relock.delta")
    for kind in PRIMITIVES.available():
        primitive = type(get_primitive(kind))
        meth(primitive, "sample", "primitive.sample")
        meth(primitive, "apply_gene", "primitive.apply")
    meth(Netlist, "has_path", "netlist.has_path")
    meth(Netlist, "topological_order", "netlist.topo")
    for label, cls in (
        ("mlp", MlpLinkPredictor),
        ("bayes", BayesLinkPredictor),
        ("gnn", GnnLinkPredictor),
    ):
        def count_links(_self, pairs, _label=label):
            tracer.count(f"predictor.{_label}.links_scored", len(pairs))

        meth(cls, "fit", f"predictor.{label}.fit")
        meth(cls, "score_links", f"predictor.{label}.score", before=count_links)
    meth(Adam, "step", "optim.step")
    meth(MuxLinkAttack, "run", "attack.run")
    meth(ScopeAttack, "run", "scope.run")
    meth(SQLiteStore, "get", "store.get")
    meth(SQLiteStore, "load_namespace", "store.get")
    meth(SQLiteStore, "put_many", "store.put")
    tracer.wrap_future_wait()
    tracer.wrap_autolock_phases(autolock.AutoLock, ga.GeneticAlgorithm)
