"""Command-line interface: ``autolock <subcommand>``.

Subcommands
-----------
``lock``     lock a benchmark circuit with any registered scheme and save it
``attack``   run any registered attack against a saved locked design
``evolve``   run the full AutoLock pipeline on a benchmark circuit
``run``      execute a declarative experiment spec (JSON) end to end
``sweep``    expand and execute a sweep spec (JSON) over one shared pool;
             ``--workers-distributed N`` fans the *points* out across N
             worker processes cooperating through the experiment store
``worker``   join a distributed sweep as one worker process (any machine
             that can reach the store file or campaign server URL)
``serve``    front a local store as a campaign server: HTTP kv + work
             queue + streaming results + live dashboard, so workers on
             other machines join with ``--store http://host:8787``
``store``    operate on a shared experiment store: ``store status``
             (inspect), ``store retry`` (requeue failed sweep points),
             ``store gc`` (drop unreachable experiment records + compact);
             every subcommand accepts a campaign URL as the store path
``trace``    work with ``--trace`` span files: ``trace summarize`` folds
             one or more JSONL traces into a per-stage time-attribution
             table (self/cumulative wall time, call counts, p50/p95)
``plugins``  list every registered scheme / locking primitive / attack /
             predictor / engine / metric / store backend
``info``     print statistics of a benchmark circuit or the whole suite

All component names are resolved through :mod:`repro.registry`, so a
newly registered plugin is immediately usable from every subcommand. Any
:class:`~repro.errors.ReproError` a subcommand raises (unknown circuit,
bad spec, unreadable store, ...) prints as ``error: <message>`` and exits
with code 2. A reader that closes the pipe early (``autolock info | head
-1``) ends the command with exit code 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from repro._version import __version__
from repro.errors import ReproError


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.circuits import available_circuits, load_circuit
    from repro.netlist import compute_stats

    names = [args.circuit] if args.circuit else available_circuits()
    for name in names:
        print(compute_stats(load_circuit(name)).as_row())
    return 0


def _cmd_lock(args: argparse.Namespace) -> int:
    from repro.circuits import load_circuit
    from repro.io import save_locked_design
    from repro.registry import SCHEMES

    scheme_params = {}
    if args.strategy is not None:
        scheme_params["strategy"] = args.strategy
    scheme = SCHEMES.create(args.scheme, **scheme_params)
    circuit = load_circuit(args.circuit)
    locked = scheme.lock(circuit, args.key_length, seed_or_rng=args.seed)
    sidecar = save_locked_design(locked, args.output)
    print(f"locked {args.circuit} with {locked.scheme} K={args.key_length}")
    print(f"saved: {sidecar}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.io import load_locked_design
    from repro.registry import ATTACKS

    attack_params = {}
    if args.predictor is not None:
        attack_params["predictor"] = args.predictor
    if args.ensemble is not None:
        attack_params["ensemble"] = args.ensemble
    attack = ATTACKS.create(args.attack, **attack_params)
    locked = load_locked_design(args.design)
    report = attack.run(locked, seed_or_rng=args.seed)
    print(report.as_row())
    for k, v in sorted(report.extra.items()):
        if isinstance(v, (int, float, str, bool)):
            print(f"  {k}: {v}")
    return 0


def _print_autolock_result(result, cache_path) -> None:
    print(result.summary())
    for stats in result.ga.history:
        print(
            f"  gen {stats.generation:3d}  best={stats.best:.3f} "
            f"mean={stats.mean:.3f} std={stats.std:.3f} "
            f"evals={stats.cache_misses} hits={stats.cache_hits} "
            f"({stats.eval_wall_s:.1f}s)"
        )
    fresh = result.fitness_evaluations + result.report_evaluations
    hits = result.cache_hits + result.report_cache_hits
    print(f"attack evaluations: {fresh} fresh, {hits} cache hits")
    if cache_path:
        print(f"fitness cache: {cache_path}")


def _spec_overrides(args: argparse.Namespace) -> dict:
    """Spec fields set by the shared experiment flags that were given.

    A flag left at ``None`` keeps the spec's value. ``--alphabet`` is
    resolved here against the PRIMITIVES registry, so an unknown name
    raises :class:`~repro.errors.RegistryError` (and an empty list
    :class:`~repro.errors.LockingError`) before any spec file is read —
    both exit 2, like unknown ``--attack`` / ``--scheme`` names.
    """
    fields = {
        "workers": args.workers,
        "cache_path": args.cache,
        "async_mode": getattr(args, "async_mode", None),  # coevo has none
        "trace": args.trace,
    }
    if args.alphabet is not None:
        from repro.locking.primitives import resolve_alphabet

        names = tuple(n.strip() for n in args.alphabet.split(",") if n.strip())
        fields["alphabet"] = resolve_alphabet(names)
    return {name: value for name, value in fields.items() if value is not None}


def _cmd_evolve(args: argparse.Namespace) -> int:
    from repro.api import ExperimentSpec, run_experiment
    from repro.io import save_locked_design

    spec = ExperimentSpec(
        circuit=args.circuit,
        key_length=args.key_length,
        attack="muxlink",
        attack_params={"predictor": args.predictor},
        engine="autolock",
        engine_params={
            "population_size": args.population,
            "generations": args.generations,
        },
        seed=args.seed,
        **_spec_overrides(args),
    )
    result = run_experiment(spec)
    if result.from_cache:
        rec = result.record["engine"]
        print(
            f"AutoLock on {args.circuit} (replayed from experiment cache): "
            f"baseline MuxLink accuracy {rec['baseline_accuracy']:.3f} -> "
            f"evolved {rec['evolved_accuracy']:.3f} "
            f"(drop {rec['accuracy_drop_pp']:+.1f} pp)"
        )
        print("attack evaluations: 0 fresh (record served by experiment cache)")
    else:
        _print_autolock_result(result.engine_result, args.cache)
    if args.output:
        sidecar = save_locked_design(result.rebuild_locked(), args.output)
        print(f"saved: {sidecar}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import ExperimentSpec, run_experiment

    overrides = _spec_overrides(args)
    spec = ExperimentSpec.from_file(args.spec).with_updates(**overrides)
    result = run_experiment(spec, out_dir=args.out)
    print(result.describe())
    for name, value in result.metrics.items():
        row = getattr(value, "as_row", None)
        print(f"  {name}: {row() if callable(row) else value}")
    if args.out:
        print(f"artifacts: {args.out}/results.jsonl + manifest.json")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.api import SweepSpec, run_sweep
    from repro.errors import SpecError

    overrides = _spec_overrides(args)
    alphabet = overrides.pop("alphabet", None)
    sweep = dataclasses.replace(SweepSpec.from_file(args.spec), **overrides)
    if alphabet is not None:
        from repro.api.spec import MERGE_AXIS_PREFIX

        axis_sets_alphabet = any(
            key == "alphabet"
            or (
                key.startswith(MERGE_AXIS_PREFIX)
                and any(
                    isinstance(v, dict) and "alphabet" in v
                    for v in values
                )
            )
            for key, values in sweep.axes.items()
        )
        if axis_sets_alphabet:
            # An axis value would silently override the base field
            # during expansion; refuse rather than half-apply.
            raise SpecError(
                "sweep spec already sweeps an 'alphabet' axis; "
                "--alphabet would be overridden — drop one of the two"
            )
        # Applies to every expanded point, like --workers / --cache.
        sweep = dataclasses.replace(
            sweep, base=sweep.base.with_updates(alphabet=alphabet)
        )
    result = run_sweep(
        sweep,
        out_dir=args.out,
        distributed=args.workers_distributed,
        resume=args.resume,
    )
    for run in result.results:
        print(run.describe())
    print(
        f"sweep {sweep.name}: {len(result.results)} points, "
        f"{result.fresh_evaluations} fresh attack evaluations, "
        f"{result.n_from_cache} replayed from cache"
    )
    if result.distributed:
        dist = result.distributed
        print(
            f"  distributed: {dist.get('workers', 0)} workers, "
            f"sweep_id={dist.get('sweep_id')}, "
            f"{dist.get('completed_this_run', 0)} completed this run"
        )
    if args.out:
        print(f"artifacts: {result.results_path} + {result.manifest_path}")
    return 0


def _cmd_coevo(args: argparse.Namespace) -> int:
    import json

    from repro.api import ExperimentSpec, run_experiment
    from repro.errors import SpecError

    overrides = _spec_overrides(args)
    attacker: dict = {}
    if args.attacker is not None:
        try:
            attacker = json.loads(args.attacker)
        except json.JSONDecodeError as exc:
            raise SpecError(f"--attacker is not valid JSON: {exc}") from exc
        if not isinstance(attacker, dict):
            raise SpecError(
                f"--attacker must be a JSON object of attacker-genome "
                f"fields, got {attacker!r}"
            )
    if args.predictor is not None:
        attacker["predictor"] = args.predictor
    spec = ExperimentSpec(
        circuit=args.circuit,
        key_length=args.key_length,
        attack=attacker.pop("attack", "muxlink"),
        attack_params=attacker,
        engine="coevo",
        engine_params={
            "epochs": args.epochs,
            "lock_population": args.lock_pop,
            "lock_generations": args.lock_generations,
            "attacker_population": args.attacker_pop,
        },
        seed=args.seed,
        async_mode=False,
        **overrides,
    )
    result = run_experiment(spec, out_dir=args.out)
    print(result.describe())
    record = result.record["engine"]
    print(
        f"  elite_vs_best={record['elite_vs_best']:.3f} "
        f"improvement={record['improvement']:+.3f} "
        f"best_attacker={record['best_attacker']['attack']}"
    )
    for epoch in record["epochs"]:
        best = epoch["attacker_best"]
        attack = best["attack"]
        if attack == "muxlink":
            attack = f"muxlink/{best['predictor']}"
        print(
            f"  epoch {epoch['epoch']}: lock_fitness="
            f"{epoch['lock_best_fitness']:.3f} "
            f"best_attacker={attack} "
            f"elite_vs_best={epoch['elite_vs_best']:.3f} "
            f"epoch0_vs_best={epoch['epoch0_vs_best']:.3f}"
        )
    if args.out:
        print(f"artifacts: {args.out}/results.jsonl + manifest.json")
    return 0


def _apply_token(token: str | None) -> None:
    """Export ``--token`` for every HttpStore this process (and its
    worker children) opens; an explicit flag wins over the environment."""
    if token:
        import os

        from repro.serve.client import TOKEN_ENV

        os.environ[TOKEN_ENV] = token


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import TOKEN_ENV, CampaignServer

    token = args.token
    generated = False
    if not token:
        import os
        import secrets

        token = os.environ.get(TOKEN_ENV, "")
        if not token:
            token = secrets.token_urlsafe(16)
            generated = True
    server = CampaignServer(
        args.path,
        host=args.host,
        port=args.port,
        token=token,
        results_path=args.results,
    )
    print(f"campaign server: {server.url} (store {server.store_path})")
    if generated:
        print(f"token (generated): {token}")
        print(f"  workers: autolock worker --store {server.url} "
              f"--sweep-id ID --token {token}")
    print(f"dashboard: {server.url}/status?token={token}")
    print(f"results stream: {server.url}/stream/results (chunked NDJSON)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.api import SweepSpec
    from repro.dist import SweepScheduler, Worker

    _apply_token(args.token)
    if args.store is not None:
        if args.store_path is not None and args.store_path != args.store:
            print(
                "error: worker got two different stores "
                f"({args.store_path!r} and --store {args.store!r}); "
                "pass one",
                file=sys.stderr,
            )
            return 2
        args.store_path = args.store
    if args.spec is not None:
        sweep = SweepSpec.from_file(args.spec)
        if args.store_path is not None:
            sweep = dataclasses.replace(sweep, cache_path=args.store_path)
        # Idempotent: rows already enqueued (by the scheduler or a
        # sibling worker) are left exactly as they are.
        scheduler = SweepScheduler(sweep)
        scheduler.enqueue()
        store_path = sweep.cache_path
        sweep_id = scheduler.sweep_id
    else:
        if args.store_path is None or args.sweep_id is None:
            print(
                "error: worker needs either --spec SWEEP.json or both "
                "a store path and --sweep-id",
                file=sys.stderr,
            )
            return 2
        store_path = args.store_path
        sweep_id = args.sweep_id
    worker = Worker(
        store_path=str(store_path),
        sweep_id=sweep_id,
        lease_ttl=args.ttl,
        max_points=args.max_points,
        trace=args.trace,
    )
    from repro.obs import configure_logging

    configure_logging(
        "DEBUG" if args.verbose else None, worker_id=worker.worker_id
    )
    print(f"worker {worker.worker_id} joining sweep {sweep_id} on {store_path}")
    report = worker.run()
    print(report.describe())
    return 0


def _with_store(args: argparse.Namespace, action: str, fn):
    """Run ``fn(args.path)`` for a ``store`` verb and return its result.

    Exports ``--token``, refuses a missing local file (opening a SQLite
    store creates it, and inspecting a typo'd path must not fabricate an
    empty database; a URL has no local file, so reachability surfaces
    from ``fn``), and turns any store failure into one
    ``error: cannot <action> '<path>': …`` line through :func:`main`.
    """
    import sqlite3
    from pathlib import Path

    from repro.errors import StoreError
    from repro.store import is_url

    _apply_token(args.token)
    if not is_url(args.path) and not Path(args.path).exists():
        raise StoreError(f"no store at {args.path!r}")
    try:
        return fn(args.path)
    except (ReproError, sqlite3.DatabaseError) as exc:
        raise StoreError(f"cannot {action} {args.path!r}: {exc}") from exc


def _cmd_store_status(args: argparse.Namespace) -> int:
    import json as _json
    from contextlib import closing

    from repro.store import open_store

    def read_status(path):
        with closing(open_store(path)) as store:
            return store.status()

    status = _with_store(args, "read store", read_status)
    if args.json:
        print(_json.dumps(status, indent=2, sort_keys=True))
        return 0
    print(f"store: {status['path']} ({status['backend']})")
    print(f"entries: {status['entries']}")
    for namespace, count in status["namespaces"].items():
        print(f"  {namespace:<60} {count}")
    if status["sweeps"]:
        print("sweeps:")
        for sweep_id, counts in status["sweeps"].items():
            summary = ", ".join(
                f"{state}={n}" for state, n in sorted(counts.items())
            )
            print(f"  {sweep_id:<20} {summary}")
    else:
        print("sweeps: (none)")
    cache = status.get("cache")
    if cache is not None:
        # Status came via a campaign server: its live kv-get ledger.
        print(
            f"cache: {cache['hits']} hits, {cache['misses']} misses, "
            f"{cache['fresh_evaluations']} fresh evaluations recorded"
        )
    elif "fresh_evaluations" in status:
        print(
            f"fresh evaluations recorded: {status['fresh_evaluations']}"
        )
    server = status.get("server")
    if server:
        # Status came from a campaign server: surface its vitals too.
        print(
            f"server: {server['url']} (up {server['uptime_s']}s), "
            f"{len(server['workers'])} worker(s) seen, "
            f"{server['throughput']['completed_last_60s']} completed/min, "
            f"results log {server['results_bytes']} bytes"
        )
    return 0


def _cmd_store_retry(args: argparse.Namespace) -> int:
    """Requeue failed sweep points.

    Exit codes: 0 = at least one point requeued; 1 = the sweep exists but
    has nothing failed to retry; 2 = missing or unreadable store, or
    unknown sweep id.
    """
    from contextlib import closing

    from repro.errors import StoreError
    from repro.store import open_store

    def retry(path):
        with closing(open_store(path)) as store:
            counts = store.queue_counts(args.sweep_id)
            return counts, store.retry_failed(args.sweep_id) if counts else 0

    counts, requeued = _with_store(args, "retry on", retry)
    if not counts:
        raise StoreError(
            f"store has no sweep {args.sweep_id!r} (see `autolock store status`)"
        )
    if requeued == 0:
        print(
            f"sweep {args.sweep_id}: no failed points to retry "
            f"({', '.join(f'{k}={v}' for k, v in sorted(counts.items()))})"
        )
        return 1
    print(
        f"sweep {args.sweep_id}: requeued {requeued} failed point(s) "
        "with a fresh attempt budget; start workers (`autolock worker` or "
        "`autolock sweep --workers-distributed N --resume`) to run them"
    )
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    import json as _json

    from repro.store import gc_store

    report = _with_store(args, "gc store", gc_store)
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"store: {report['path']}")
    print(
        f"experiment records: {report['examined']} examined, "
        f"{report['dropped']} dropped (fingerprint no longer resolves), "
        f"{report['kept']} kept"
    )
    print(
        f"compacted: {report['bytes_before']} -> {report['bytes_after']} "
        f"bytes ({report['bytes_reclaimed']} reclaimed)"
    )
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    """Fold trace JSONL files into a per-stage time-attribution table.

    Exit codes: 0 = table printed (and coverage gate passed, if any);
    1 = ``--min-coverage`` gate failed; 2 = missing/empty trace files.
    """
    import json as _json
    from pathlib import Path

    from repro.obs import format_table, load_spans, summarize

    for path in args.paths:
        if not Path(path).exists():
            print(f"error: no trace file at {path!r}", file=sys.stderr)
            return 2
    spans = load_spans(args.paths)
    if not spans:
        print(
            "error: no spans found — was the run started with --trace?",
            file=sys.stderr,
        )
        return 2
    summary = summarize(spans)
    if args.json:
        payload = dict(summary)
        if args.limit:
            payload["rows"] = payload["rows"][: args.limit]
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_table(summary, limit=args.limit))
    if args.min_coverage is not None:
        if summary["coverage"] * 100.0 < args.min_coverage:
            print(
                f"error: coverage {summary['coverage'] * 100.0:.1f}% is "
                f"below the --min-coverage gate ({args.min_coverage:.1f}%)",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_plugins(args: argparse.Namespace) -> int:
    from repro import registry

    for title, reg in (
        ("schemes", registry.SCHEMES),
        ("primitives", registry.PRIMITIVES),
        ("attacks", registry.ATTACKS),
        ("predictors", registry.PREDICTORS),
        ("engines", registry.ENGINES),
        ("metrics", registry.METRICS),
        ("stores", registry.STORES),
    ):
        print(f"{title}:")
        for name in reg.available():
            factory = reg.get(name)
            target = getattr(factory, "__qualname__", repr(factory))
            print(f"  {name:<22} {target}")
    return 0


def _add_token_flag(parser: argparse.ArgumentParser) -> None:
    """``--token``: campaign-server bearer token (http:// stores)."""
    parser.add_argument(
        "--token", default=None, metavar="TOKEN",
        help="campaign-server bearer token for http:// store paths "
        "(default: the AUTOLOCK_TOKEN environment variable)",
    )


def _add_loop_mode_flags(parser: argparse.ArgumentParser) -> None:
    """``--async`` / ``--sync``: pick the engine search-loop mode."""
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--async", dest="async_mode", action="store_true", default=None,
        help="steady-state search loop: breed and submit offspring the "
        "moment any evaluation completes (default when workers > 1; "
        "results are deterministic at any worker count)",
    )
    mode.add_argument(
        "--sync", dest="async_mode", action="store_false", default=None,
        help="classic generational loop, byte-identical to a serial run "
        "(default when workers <= 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="autolock",
        description="AutoLock: evolutionary design of logic locking (DSN 2023 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared through argparse parents: every verb that takes one
    # holds the same Action. ``None`` keeps the spec's value (see
    # _spec_overrides).
    trace = argparse.ArgumentParser(add_help=False)
    trace.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write nested timing spans to this JSONL file (summarise "
        "with `autolock trace summarize PATH`); worker processes derive "
        "per-worker files from the same stem. Excluded from experiment "
        "fingerprints — results are byte-identical with or without it.",
    )
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="evaluation worker processes, >= 1 (default: the spec's "
        "value; 1 = serial). For a given loop mode the record is "
        "byte-identical at any worker count.",
    )
    experiment.add_argument(
        "--cache", default=None, metavar="PATH",
        help="experiment store (a SQLite file or a campaign-server URL) "
        "persisting attack evaluations, epoch checkpoints and finished "
        "records; a repeated or interrupted run replays them instead of "
        "recomputing (delete the file to start fresh)",
    )
    experiment.add_argument(
        "--alphabet", default=None, metavar="P1,P2,...",
        help="comma-separated locking primitives the genotype may compose "
        "(see `autolock plugins`; default mux — the paper's pure D-MUX "
        "search space). The resolved alphabet feeds the experiment "
        "fingerprint.",
    )
    experiment_flags = [experiment, trace]

    p_info = sub.add_parser("info", help="benchmark circuit statistics")
    p_info.add_argument("circuit", nargs="?", help="circuit name (default: all)")
    p_info.set_defaults(func=_cmd_info)

    p_lock = sub.add_parser("lock", help="lock a benchmark circuit")
    p_lock.add_argument("circuit")
    p_lock.add_argument(
        "--scheme", default="dmux",
        help="registered locking scheme (see `autolock plugins`)",
    )
    p_lock.add_argument(
        "--strategy", choices=["shared", "two_key"], default=None,
        help="D-MUX key-wiring strategy (dmux scheme only)",
    )
    p_lock.add_argument("--key-length", type=int, default=32)
    p_lock.add_argument("--seed", type=int, default=0)
    p_lock.add_argument("--output", default="locked_designs")
    p_lock.set_defaults(func=_cmd_lock)

    p_attack = sub.add_parser("attack", help="attack a saved locked design")
    p_attack.add_argument("design", help="path to the .lock.json sidecar")
    p_attack.add_argument(
        "--attack", default="muxlink",
        help="registered attack (see `autolock plugins`)",
    )
    p_attack.add_argument(
        "--predictor", choices=["bayes", "mlp", "gnn"], default=None,
        help="MuxLink predictor backend (muxlink attack only)",
    )
    p_attack.add_argument("--ensemble", type=int, default=None)
    p_attack.add_argument("--seed", type=int, default=0)
    p_attack.set_defaults(func=_cmd_attack)

    p_evolve = sub.add_parser(
        "evolve", help="run the AutoLock pipeline", parents=experiment_flags
    )
    p_evolve.add_argument("circuit")
    p_evolve.add_argument("--key-length", type=int, default=32)
    p_evolve.add_argument("--population", type=int, default=12)
    p_evolve.add_argument("--generations", type=int, default=12)
    p_evolve.add_argument(
        "--predictor", choices=["bayes", "mlp", "gnn"], default="mlp"
    )
    p_evolve.add_argument("--seed", type=int, default=0)
    p_evolve.add_argument("--output", default=None)
    _add_loop_mode_flags(p_evolve)
    p_evolve.set_defaults(func=_cmd_evolve)

    p_run = sub.add_parser(
        "run", help="execute a declarative experiment spec (JSON file)",
        parents=experiment_flags,
    )
    p_run.add_argument("spec", help="path to an ExperimentSpec JSON file")
    p_run.add_argument(
        "--out", default=None, metavar="DIR",
        help="write results.jsonl + manifest.json artifacts to DIR",
    )
    _add_loop_mode_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="execute a sweep spec (JSON file) over a shared pool",
        parents=experiment_flags,
    )
    p_sweep.add_argument("spec", help="path to a SweepSpec JSON file")
    p_sweep.add_argument(
        "--out", default=None, metavar="DIR",
        help="write results.jsonl + manifest.json artifacts to DIR",
    )
    p_sweep.add_argument(
        "--workers-distributed", type=int, default=None, metavar="N",
        help="distribute sweep *points* across N local worker processes "
        "cooperating through the store's work queue",
    )
    p_sweep.add_argument(
        "--resume", action="store_true", default=False,
        help="keep the store's existing queue bookkeeping for this sweep "
        "(attempt counts, done markers); without it the queue rows are "
        "rescheduled — finished experiment records replay from the store "
        "either way, with zero fresh attack evaluations",
    )
    _add_loop_mode_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_coevo = sub.add_parser(
        "coevo",
        help="adversarial co-evolution: attacker panels vs. the lock "
        "population",
        parents=experiment_flags,
    )
    p_coevo.add_argument("circuit")
    p_coevo.add_argument("--key-length", type=int, default=16)
    p_coevo.add_argument(
        "--epochs", type=int, default=3,
        help="arms-race epochs (one lock GA + one attacker generation each)",
    )
    p_coevo.add_argument(
        "--lock-pop", type=int, default=8, metavar="N",
        help="lock population per epoch",
    )
    p_coevo.add_argument(
        "--lock-generations", type=int, default=4, metavar="N",
        help="lock GA generations per epoch",
    )
    p_coevo.add_argument(
        "--attacker-pop", type=int, default=6, metavar="N",
        help="attacker population per epoch",
    )
    p_coevo.add_argument(
        "--attacker", default=None, metavar="JSON",
        help="baseline attacker-genome overrides as a JSON object "
        "(field names from repro.coevo.GENOME_FIELDS, e.g. "
        '\'{"attack": "saam"}\')',
    )
    p_coevo.add_argument(
        "--predictor", default=None,
        help="shorthand for the baseline genome's muxlink predictor "
        "backend (see `autolock plugins`)",
    )
    p_coevo.add_argument("--seed", type=int, default=0)
    p_coevo.add_argument(
        "--out", default=None, metavar="DIR",
        help="write the run record (every epoch, both populations) as "
        "results.jsonl + manifest",
    )
    p_coevo.set_defaults(func=_cmd_coevo)

    p_worker = sub.add_parser(
        "worker",
        help="join a distributed sweep as one worker process",
        description="Claim and run sweep points from a shared store until "
        "the queue drains. Point it either at a sweep spec (--spec, which "
        "also enqueues idempotently) or at an existing queue "
        "(STORE --sweep-id ID). Run any number of these, on any machine "
        "that can reach the store file.",
        parents=[trace],
    )
    p_worker.add_argument(
        "store_path", nargs="?", default=None,
        help="path to the shared store (e.g. sweep.sqlite) or a campaign "
        "server URL (http://host:8787)",
    )
    p_worker.add_argument(
        "--store", default=None, metavar="STORE",
        help="same as the positional store path; reads naturally for "
        "campaign URLs (`autolock worker --store http://host:8787 ...`)",
    )
    p_worker.add_argument(
        "--spec", default=None, metavar="SWEEP.json",
        help="sweep spec to join; enqueues missing points, derives the "
        "sweep id, and uses the spec's cache_path unless STORE is given",
    )
    p_worker.add_argument(
        "--sweep-id", default=None, metavar="ID",
        help="sweep fingerprint to serve (printed by `autolock sweep` and "
        "`autolock store status`)",
    )
    p_worker.add_argument(
        "--ttl", type=float, default=60.0,
        help="lease seconds per claimed point (heartbeat renews it)",
    )
    p_worker.add_argument(
        "--max-points", type=int, default=None,
        help="exit after completing this many points (default: drain)",
    )
    p_worker.add_argument(
        "--verbose", action="store_true", default=False,
        help="DEBUG-level worker logging (default level: the AUTOLOCK_LOG "
        "environment variable, else INFO)",
    )
    _add_token_flag(p_worker)
    p_worker.set_defaults(func=_cmd_worker)

    p_serve = sub.add_parser(
        "serve",
        help="front a local store as an HTTP campaign server",
        description="Serve a local SQLite store to a fleet of workers "
        "over plain HTTP: kv + work-queue endpoints, "
        "bearer-token auth, a streaming results tail "
        "(/stream/results, chunked NDJSON, resumable via ?offset=), and "
        "a live dashboard (/status). Workers on other machines join "
        "with `autolock worker --store http://host:PORT --sweep-id ID "
        "--token TOKEN`.",
    )
    p_serve.add_argument(
        "path", help="local store file to front (e.g. sweep.sqlite)"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1; use 0.0.0.0 for a fleet)",
    )
    p_serve.add_argument(
        "--port", type=int, default=8787,
        help="bind port (default 8787; 0 picks a free port)",
    )
    p_serve.add_argument(
        "--token", default=None, metavar="TOKEN",
        help="bearer token workers must present (default: AUTOLOCK_TOKEN "
        "from the environment, else a fresh token is generated and "
        "printed)",
    )
    p_serve.add_argument(
        "--results", default=None, metavar="PATH",
        help="results.jsonl the streaming endpoint tails (default: "
        "<store>.results.jsonl next to the store file)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_store = sub.add_parser(
        "store", help="inspect a shared experiment store"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_status = store_sub.add_parser(
        "status", help="namespaces, entry counts, and sweep queue states"
    )
    p_status.add_argument("path", help="store file path")
    p_status.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    _add_token_flag(p_status)
    p_status.set_defaults(func=_cmd_store_status)
    p_retry = store_sub.add_parser(
        "retry",
        help="requeue a sweep's failed points with a fresh attempt budget",
        description="Flip every 'failed' point of one sweep back to "
        "'pending' (attempts reset, error cleared), then exit. Exit "
        "codes: 0 = requeued >= 1 point, 1 = nothing failed to retry, "
        "2 = missing or unreadable store / unknown sweep.",
    )
    p_retry.add_argument("path", help="store file path (e.g. sweep.sqlite)")
    p_retry.add_argument(
        "sweep_id",
        help="sweep fingerprint (printed by `autolock sweep` and "
        "`autolock store status`)",
    )
    _add_token_flag(p_retry)
    p_retry.set_defaults(func=_cmd_store_retry)
    p_gc = store_sub.add_parser(
        "gc",
        help="drop unreachable experiment records and compact the store",
        description="Garbage-collect the experiment-record namespace: "
        "drop records whose stored spec no longer fingerprints to its "
        "own key (schema drift, removed plugins, unparsable specs), then "
        "compact the backing file (VACUUM on SQLite) and report the "
        "bytes reclaimed. Per-genotype fitness namespaces are never "
        "touched.",
    )
    p_gc.add_argument("path", help="store file path")
    p_gc.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    _add_token_flag(p_gc)
    p_gc.set_defaults(func=_cmd_store_gc)

    p_trace = sub.add_parser(
        "trace", help="inspect --trace span files"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_summarize = trace_sub.add_parser(
        "summarize",
        help="per-stage time-attribution table from trace JSONL files",
        description="Fold one or more --trace JSONL files (pass every "
        "per-worker file of a distributed sweep together) into a table "
        "of call counts, cumulative/self wall time, CPU time, and "
        "p50/p95 per span name. Coverage is the share of root-span wall "
        "time attributed to named child spans.",
    )
    p_summarize.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="trace JSONL file(s) written via --trace",
    )
    p_summarize.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="show only the top N stages by cumulative wall time",
    )
    p_summarize.add_argument(
        "--min-coverage", type=float, default=None, metavar="PCT",
        help="exit 1 unless coverage >= PCT percent (CI gate)",
    )
    p_summarize.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    p_summarize.set_defaults(func=_cmd_trace_summarize)

    p_plugins = sub.add_parser(
        "plugins", help="list every registered plugin by registry"
    )
    p_plugins.set_defaults(func=_cmd_plugins)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; a :class:`ReproError` exits 2 with its message,
    and a reader that closes the pipe early exits 1 in silence."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # ``autolock info | head -1``: point stdout at devnull so the
        # interpreter's exit-time flush cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
