"""Goldens of the command-line surface.

Pins, per verb, the option strings the parser accepts and the help text
of every verb-specific flag; the ``ExperimentSpec`` / ``SweepSpec`` each
experiment verb builds from its flags (with none of the shared flags,
and with all of them); and the stdout of a cold ``evolve``, its warm
``--cache`` replay and a ``coevo`` run on ``rand_`` circuits.

The shared experiment flags (``--workers``, ``--cache``, ``--alphabet``,
``--trace``) are pinned by option string and by the specs they build,
not by help text.
"""

from __future__ import annotations

import argparse
import json
import re

import pytest

import repro.api
from repro.cli import build_parser, main

SHARED_FLAGS = ("--workers", "--cache", "--alphabet", "--trace")
EXPERIMENT_VERBS = ("evolve", "run", "sweep", "coevo")


def verb_parsers() -> dict[str, argparse.ArgumentParser]:
    """Every leaf parser, keyed by its verb path (``"store gc"``)."""
    out: dict[str, argparse.ArgumentParser] = {}

    def walk(prefix: str, parser: argparse.ArgumentParser) -> None:
        subs = [
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        if not subs:
            out[prefix] = parser
            return
        for name, child in subs[0].choices.items():
            walk(f"{prefix} {name}".strip(), child)

    walk("", build_parser())
    return out


# ------------------------------------------------------------- options
OPTIONS = {
    "attack": ["--attack", "--ensemble", "--help", "--predictor", "--seed",
               "-h"],
    "coevo": ["--alphabet", "--attacker", "--attacker-pop", "--cache",
              "--epochs", "--help", "--key-length", "--lock-generations",
              "--lock-pop", "--out", "--predictor", "--seed", "--trace",
              "--workers", "-h"],
    "evolve": ["--alphabet", "--async", "--cache", "--generations", "--help",
               "--key-length", "--output", "--population", "--predictor",
               "--seed", "--sync", "--trace", "--workers", "-h"],
    "info": ["--help", "-h"],
    "lock": ["--help", "--key-length", "--output", "--scheme", "--seed",
             "--strategy", "-h"],
    "plugins": ["--help", "-h"],
    "run": ["--alphabet", "--async", "--cache", "--help", "--out", "--sync",
            "--trace", "--workers", "-h"],
    "serve": ["--help", "--host", "--port", "--results", "--token", "-h"],
    "store gc": ["--help", "--json", "--token", "-h"],
    "store retry": ["--help", "--token", "-h"],
    "store status": ["--help", "--json", "--token", "-h"],
    "sweep": ["--alphabet", "--async", "--cache", "--help", "--out",
              "--resume", "--sync", "--trace", "--workers",
              "--workers-distributed", "-h"],
    "trace summarize": ["--help", "--json", "--limit", "--min-coverage",
                        "-h"],
    "worker": ["--help", "--max-points", "--spec", "--store", "--sweep-id",
               "--token", "--trace", "--ttl", "--verbose", "-h"],
}


def test_every_verb_accepts_exactly_its_pinned_options():
    parsers = verb_parsers()
    assert sorted(parsers) == sorted(OPTIONS)
    for verb, parser in parsers.items():
        assert sorted(parser._option_string_actions) == OPTIONS[verb], verb


# ----------------------------------------------------------- help text
_ASYNC_HELP = (
    "steady-state search loop: breed and submit offspring the moment any "
    "evaluation completes (default when workers > 1; results are "
    "deterministic at any worker count)"
)
_SYNC_HELP = (
    "classic generational loop, byte-identical to a serial run (default "
    "when workers <= 1)"
)
_TOKEN_HELP = (
    "campaign-server bearer token for http:// store paths (default: the "
    "AUTOLOCK_TOKEN environment variable)"
)
_OUT_HELP = "write results.jsonl + manifest.json artifacts to DIR"

HELP = {
    "attack": {
        "--attack": "registered attack (see `autolock plugins`)",
        "--ensemble": None,
        "--predictor": "MuxLink predictor backend (muxlink attack only)",
        "--seed": None,
        "design": "path to the .lock.json sidecar",
    },
    "coevo": {
        "--attacker": "baseline attacker-genome overrides as a JSON object "
        "(field names from repro.coevo.GENOME_FIELDS, e.g. "
        '\'{"attack": "saam"}\')',
        "--attacker-pop": "attacker population per epoch",
        "--epochs": "arms-race epochs (one lock GA + one attacker "
        "generation each)",
        "--key-length": None,
        "--lock-generations": "lock GA generations per epoch",
        "--lock-pop": "lock population per epoch",
        "--out": "write the run record (every epoch, both populations) as "
        "results.jsonl + manifest",
        "--predictor": "shorthand for the baseline genome's muxlink "
        "predictor backend (see `autolock plugins`)",
        "--seed": None,
        "circuit": None,
    },
    "evolve": {
        "--async": _ASYNC_HELP,
        "--generations": None,
        "--key-length": None,
        "--output": None,
        "--population": None,
        "--predictor": None,
        "--seed": None,
        "--sync": _SYNC_HELP,
        "circuit": None,
    },
    "info": {"circuit": "circuit name (default: all)"},
    "lock": {
        "--key-length": None,
        "--output": None,
        "--scheme": "registered locking scheme (see `autolock plugins`)",
        "--seed": None,
        "--strategy": "D-MUX key-wiring strategy (dmux scheme only)",
        "circuit": None,
    },
    "plugins": {},
    "run": {
        "--async": _ASYNC_HELP,
        "--out": _OUT_HELP,
        "--sync": _SYNC_HELP,
        "spec": "path to an ExperimentSpec JSON file",
    },
    "serve": {
        "--host": "bind address (default 127.0.0.1; use 0.0.0.0 for a fleet)",
        "--port": "bind port (default 8787; 0 picks a free port)",
        "--results": "results.jsonl the streaming endpoint tails (default: "
        "<store>.results.jsonl next to the store file)",
        "--token": "bearer token workers must present (default: "
        "AUTOLOCK_TOKEN from the environment, else a fresh token is "
        "generated and printed)",
        "path": "local store file to front (e.g. sweep.sqlite)",
    },
    "store gc": {
        "--json": "emit machine-readable JSON",
        "--token": _TOKEN_HELP,
        "path": "store file path",
    },
    "store retry": {
        "--token": _TOKEN_HELP,
        "path": "store file path (e.g. sweep.sqlite)",
        "sweep_id": "sweep fingerprint (printed by `autolock sweep` and "
        "`autolock store status`)",
    },
    "store status": {
        "--json": "emit machine-readable JSON",
        "--token": _TOKEN_HELP,
        "path": "store file path",
    },
    "sweep": {
        "--async": _ASYNC_HELP,
        "--out": _OUT_HELP,
        "--resume": "keep the store's existing queue bookkeeping for this "
        "sweep (attempt counts, done markers); without it the queue rows "
        "are rescheduled — finished experiment records replay from the "
        "store either way, with zero fresh attack evaluations",
        "--sync": _SYNC_HELP,
        "--workers-distributed": "distribute sweep *points* across N local "
        "worker processes cooperating through the store's work queue",
        "spec": "path to a SweepSpec JSON file",
    },
    "trace summarize": {
        "--json": "emit machine-readable JSON",
        "--limit": "show only the top N stages by cumulative wall time",
        "--min-coverage": "exit 1 unless coverage >= PCT percent (CI gate)",
        "paths": "trace JSONL file(s) written via --trace",
    },
    "worker": {
        "--max-points": "exit after completing this many points (default: "
        "drain)",
        "--spec": "sweep spec to join; enqueues missing points, derives the "
        "sweep id, and uses the spec's cache_path unless STORE is given",
        "--store": "same as the positional store path; reads naturally for "
        "campaign URLs (`autolock worker --store http://host:8787 ...`)",
        "--sweep-id": "sweep fingerprint to serve (printed by `autolock "
        "sweep` and `autolock store status`)",
        "--token": _TOKEN_HELP,
        "--trace": "write nested timing spans to this JSONL file (summarise "
        "with `autolock trace summarize PATH`); worker processes derive "
        "per-worker files from the same stem. Excluded from experiment "
        "fingerprints — results are byte-identical with or without it.",
        "--ttl": "lease seconds per claimed point (heartbeat renews it)",
        "--verbose": "DEBUG-level worker logging (default level: the "
        "AUTOLOCK_LOG environment variable, else INFO)",
        "store_path": "path to the shared store (e.g. sweep.sqlite) or a "
        "campaign server URL (http://host:8787)",
    },
}


def test_verb_specific_flags_keep_their_help_text():
    for verb, parser in verb_parsers().items():
        helps = {}
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if verb in EXPERIMENT_VERBS and set(action.option_strings) & set(
                SHARED_FLAGS
            ):
                continue
            helps["/".join(action.option_strings) or action.dest] = action.help
        assert helps == HELP[verb], verb


# ------------------------------------------------------- built specs
class _Captured(Exception):
    """Stops a verb right after it built its spec."""


def _capture_spec(monkeypatch, argv: list[str], runner: str) -> dict:
    """The ``to_dict()`` of the spec ``main(argv)`` hands to ``runner``."""
    seen = {}

    def fake(spec, **_):
        seen["spec"] = spec
        raise _Captured

    monkeypatch.setattr(repro.api, runner, fake)
    with pytest.raises(_Captured):
        main(argv)
    return seen["spec"].to_dict()


_SHARED_ARGS = [
    "--workers", "3", "--cache", "store.sqlite", "--alphabet", "mux,xor",
    "--trace", "spans.jsonl",
]
#: What every shared flag changes on a point spec (``--sync`` / ``--async``
#: are set by each case where the verb has them).
_SHARED_FIELDS = {
    "alphabet": ["mux", "xor"],
    "cache_path": "store.sqlite",
    "trace": "spans.jsonl",
    "workers": 3,
}

_SPEC_DEFAULTS = {
    "alphabet": ["mux"],
    "async_mode": None,
    "attack": "muxlink",
    "attack_params": {},
    "attack_seed": None,
    "cache_path": None,
    "metric_params": {},
    "metrics": [],
    "scheme": "dmux",
    "scheme_params": {},
    "seed": 0,
    "tag": "",
    "trace": None,
    "workers": 1,
}

EVOLVE_SPEC = {
    **_SPEC_DEFAULTS,
    "attack_params": {"predictor": "mlp"},
    "circuit": "rand_100_9",
    "engine": "autolock",
    "engine_params": {"generations": 12, "population_size": 12},
    "key_length": 32,
}
COEVO_SPEC = {
    **_SPEC_DEFAULTS,
    "async_mode": False,
    "circuit": "rand_100_7",
    "engine": "coevo",
    "engine_params": {
        "attacker_population": 6,
        "epochs": 3,
        "lock_generations": 4,
        "lock_population": 8,
    },
    "key_length": 16,
}
RUN_FILE = {
    "circuit": "rand_100_9",
    "key_length": 6,
    "engine": "ga",
    "engine_params": {"population_size": 4, "generations": 2},
    "attack": "muxlink",
    "attack_params": {"predictor": "bayes"},
    "workers": 2,
    "seed": 5,
}
RUN_SPEC = {
    **_SPEC_DEFAULTS,
    "attack_params": {"predictor": "bayes"},
    "circuit": "rand_100_9",
    "engine": "ga",
    "engine_params": {"generations": 2, "population_size": 4},
    "key_length": 6,
    "seed": 5,
    "workers": 2,
}
SWEEP_FILE = {
    "name": "grid",
    "base": {
        "circuit": "rand_100_9",
        "key_length": 4,
        "engine": "ga",
        "engine_params": {"population_size": 4, "generations": 1},
        "attack": "muxlink",
        "attack_params": {"predictor": "bayes"},
        "seed": 1,
    },
    "axes": {"seed": [1, 2]},
    "workers": 2,
}
SWEEP_BASE = {
    **_SPEC_DEFAULTS,
    "attack_params": {"predictor": "bayes"},
    "circuit": "rand_100_9",
    "engine": "ga",
    "engine_params": {"generations": 1, "population_size": 4},
    "key_length": 4,
    "seed": 1,
}
SWEEP_SPEC = {
    "async_mode": None,
    "axes": {"seed": [1, 2]},
    "base": SWEEP_BASE,
    "cache_path": None,
    "name": "grid",
    "trace": None,
    "workers": 2,
}


def test_evolve_builds_its_pinned_spec(monkeypatch):
    assert _capture_spec(
        monkeypatch, ["evolve", "rand_100_9"], "run_experiment"
    ) == EVOLVE_SPEC
    assert _capture_spec(
        monkeypatch, ["evolve", "rand_100_9", *_SHARED_ARGS, "--sync"],
        "run_experiment",
    ) == {**EVOLVE_SPEC, **_SHARED_FIELDS, "async_mode": False}


def test_coevo_builds_its_pinned_spec(monkeypatch):
    assert _capture_spec(
        monkeypatch, ["coevo", "rand_100_7"], "run_experiment"
    ) == COEVO_SPEC
    assert _capture_spec(
        monkeypatch, ["coevo", "rand_100_7", *_SHARED_ARGS], "run_experiment"
    ) == {**COEVO_SPEC, **_SHARED_FIELDS}


def test_run_applies_the_shared_flags_to_the_file_spec(tmp_path, monkeypatch):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(RUN_FILE))
    assert _capture_spec(
        monkeypatch, ["run", str(path)], "run_experiment"
    ) == RUN_SPEC
    assert _capture_spec(
        monkeypatch, ["run", str(path), *_SHARED_ARGS, "--async"],
        "run_experiment",
    ) == {**RUN_SPEC, **_SHARED_FIELDS, "async_mode": True}


def test_sweep_applies_the_shared_flags_to_the_file_sweep(
    tmp_path, monkeypatch
):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SWEEP_FILE))
    assert _capture_spec(monkeypatch, ["sweep", str(path)], "run_sweep") == (
        SWEEP_SPEC
    )
    # The alphabet lands on the base spec; the rest on the sweep itself.
    assert _capture_spec(
        monkeypatch, ["sweep", str(path), *_SHARED_ARGS, "--sync"],
        "run_sweep",
    ) == {
        **SWEEP_SPEC,
        "async_mode": False,
        "base": {**SWEEP_BASE, "alphabet": ["mux", "xor"]},
        "cache_path": "store.sqlite",
        "trace": "spans.jsonl",
        "workers": 3,
    }


# -------------------------------------------------------------- stdout
_EVOLVE_ARGS = [
    "evolve", "rand_100_9", "--key-length", "4", "--population", "4",
    "--generations", "2", "--predictor", "bayes", "--seed", "2",
]

EVOLVE_COLD = """\
AutoLock on rand_100_9: baseline MuxLink accuracy 0.812 -> evolved 0.500 \
(drop +31.2 pp, 4 evaluations, T)
  gen   0  best=0.750 mean=0.938 std=0.108 evals=4 hits=0 (T)
  gen   1  best=0.750 mean=0.812 std=0.108 evals=0 hits=4 (T)
attack evaluations: 8 fresh, 5 cache hits
fitness cache: STORE
"""

EVOLVE_WARM = """\
AutoLock on rand_100_9 (replayed from experiment cache): baseline MuxLink \
accuracy 0.812 -> evolved 0.500 (drop +31.2 pp)
attack evaluations: 0 fresh (record served by experiment cache)
"""

COEVO_OUT = """\
[914791fe] circuit=rand_100_7 K=6 scheme=dmux engine=coevo attack=muxlink \
best=0.750 fresh=15
  elite_vs_best=0.833 improvement=+0.000 best_attacker=sat
  epoch 0: lock_fitness=0.667 best_attacker=sat elite_vs_best=0.833 \
epoch0_vs_best=0.833
  epoch 1: lock_fitness=0.750 best_attacker=sat elite_vs_best=0.833 \
epoch0_vs_best=0.833
"""


def _normalised(text: str, store: str = "") -> str:
    text = re.sub(r"\d+\.\ds", "T", text)
    return text.replace(store, "STORE") if store else text


def test_evolve_stdout_cold_then_warm_replay(tmp_path, capsys):
    store = str(tmp_path / "evolve.sqlite")
    assert main([*_EVOLVE_ARGS, "--cache", store]) == 0
    assert _normalised(capsys.readouterr().out, store) == EVOLVE_COLD
    assert main([*_EVOLVE_ARGS, "--cache", store]) == 0
    assert _normalised(capsys.readouterr().out, store) == EVOLVE_WARM


def test_coevo_stdout(capsys):
    assert main([
        "coevo", "rand_100_7", "--key-length", "6", "--epochs", "2",
        "--lock-pop", "4", "--lock-generations", "1", "--attacker-pop", "3",
        "--seed", "7", "--predictor", "bayes",
    ]) == 0
    assert _normalised(capsys.readouterr().out) == COEVO_OUT
