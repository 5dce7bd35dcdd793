"""Design serialisation and the command-line interface."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.errors import LockingError
from repro.io import load_locked_design, save_locked_design
from repro.locking import DMuxLocking, RandomLogicLocking
from repro.sim import check_equivalence


# --------------------------------------------------------------------- io
@pytest.mark.parametrize("scheme_factory", [
    lambda: RandomLogicLocking(),
    lambda: DMuxLocking("shared"),
    lambda: DMuxLocking("two_key"),
], ids=["rll", "dmux-shared", "dmux-two_key"])
def test_save_load_roundtrip(tmp_path, rand100, scheme_factory):
    locked = scheme_factory().lock(rand100, 8, seed_or_rng=3)
    sidecar = save_locked_design(locked, tmp_path)
    assert sidecar.exists()
    again = load_locked_design(sidecar)
    assert again.netlist.structurally_equal(locked.netlist)
    assert again.original.structurally_equal(locked.original)
    assert again.key == locked.key
    assert again.scheme == locked.scheme
    assert len(again.insertions) == len(locked.insertions)
    assert again.insertions == locked.insertions
    res = check_equivalence(
        again.original, again.netlist, key_right=dict(again.key), seed_or_rng=0
    )
    assert res.equal


def test_sidecar_is_readable_json(tmp_path, dmux_locked):
    sidecar = save_locked_design(dmux_locked, tmp_path)
    data = json.loads(sidecar.read_text())
    assert data["scheme"] == "dmux-shared"
    assert len(data["key_bits"]) == 8
    assert all(rec["type"] == "mux_pair" for rec in data["insertions"])


def test_load_rejects_unknown_insertion(tmp_path, dmux_locked):
    sidecar = save_locked_design(dmux_locked, tmp_path)
    data = json.loads(sidecar.read_text())
    data["insertions"][0]["type"] = "alien"
    sidecar.write_text(json.dumps(data))
    with pytest.raises(LockingError, match="unknown insertion"):
        load_locked_design(sidecar)


@pytest.mark.parametrize("tamper", ["drop", "rename"])
def test_load_rejects_key_names_that_do_not_match_the_netlist(
    tmp_path, dmux_locked, tamper
):
    """A sidecar whose key names differ from the .bench key inputs fails at
    load time, naming the missing and extra inputs."""
    sidecar = save_locked_design(dmux_locked, tmp_path)
    data = json.loads(sidecar.read_text())
    dropped = data["key_names"].pop(3)
    bit = data["key_bits"].pop(3)
    if tamper == "rename":
        data["key_names"].append("ghost")
        data["key_bits"].append(bit)
    sidecar.write_text(json.dumps(data))
    extra = ["ghost"] if tamper == "rename" else []
    with pytest.raises(
        LockingError, match=re.escape(f"missing {[dropped]}, extra {extra}")
    ):
        load_locked_design(sidecar)


# -------------------------------------------------------------------- cli
def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


@pytest.mark.parametrize(
    "flag", ["--workers", "--cache", "--alphabet", "--trace"]
)
def test_shared_experiment_flags_are_declared_once(flag):
    """evolve / run / sweep / coevo take the shared flags from one parent
    parser, so each verb holds the very same Action object."""
    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    actions = [
        sub.choices[verb]._option_string_actions[flag]
        for verb in ("evolve", "run", "sweep", "coevo")
    ]
    assert all(action is actions[0] for action in actions)
    assert actions[0].default is None


def test_cli_info(capsys):
    assert main(["info", "c17"]) == 0
    out = capsys.readouterr().out
    assert "c17" in out and "gates=6" in out


def test_cli_info_all(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "c432_syn" in out and "c7552_syn" in out


def test_cli_lock_and_attack(tmp_path, capsys):
    assert main([
        "lock", "rand_80_3", "--scheme", "dmux", "--key-length", "6",
        "--seed", "5", "--output", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "saved:" in out
    sidecar = next(tmp_path.glob("*.lock.json"))

    assert main([
        "attack", str(sidecar), "--attack", "muxlink",
        "--predictor", "bayes", "--seed", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "muxlink-bayes" in out

    assert main(["attack", str(sidecar), "--attack", "scope"]) == 0
    assert main(["attack", str(sidecar), "--attack", "random"]) == 0
    assert main(["attack", str(sidecar), "--attack", "sat"]) == 0
    out = capsys.readouterr().out
    assert "n_dips" in out


def test_cli_attack_unknown_name_exits_nonzero(tmp_path, capsys):
    """No silent RandomGuess fallback: unknown attacks fail loudly."""
    assert main([
        "lock", "rand_80_3", "--scheme", "dmux", "--key-length", "6",
        "--seed", "5", "--output", str(tmp_path),
    ]) == 0
    capsys.readouterr()
    sidecar = next(tmp_path.glob("*.lock.json"))

    assert main(["attack", str(sidecar), "--attack", "mystery"]) == 2
    err = capsys.readouterr().err
    assert "unknown attack 'mystery'" in err
    assert "muxlink" in err and "random" in err and "sat" in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


@pytest.mark.parametrize("verb", ["evolve", "coevo", "run"])
def test_cli_workers_below_one_exits_2(tmp_path, capsys, verb):
    """``--workers`` must be >= 1 on every experiment verb: 0 is refused
    by the spec's own check, never silently read as serial."""
    if verb == "run":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "circuit": "rand_100_9", "key_length": 4, "engine": "ga",
            "engine_params": {"population_size": 4, "generations": 1},
            "attack": "muxlink", "attack_params": {"predictor": "bayes"},
        }))
        argv = ["run", str(spec)]
    else:
        argv = [verb, "rand_100_9", "--key-length", "4"]
    assert main([*argv, "--workers", "0"]) == 2
    assert "workers must be >= 1" in capsys.readouterr().err


def test_cli_lock_unknown_scheme_exits_nonzero(capsys):
    assert main(["lock", "rand_80_3", "--scheme", "alien"]) == 2
    err = capsys.readouterr().err
    assert "unknown locking scheme 'alien'" in err
    assert "dmux" in err and "rll" in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


def test_cli_evolve(tmp_path, capsys):
    assert main([
        "evolve", "rand_100_9", "--key-length", "4", "--population", "4",
        "--generations", "2", "--predictor", "bayes", "--seed", "2",
        "--output", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "AutoLock on rand_100_9" in out
    assert "gen   0" in out or "gen 0" in out.replace("  ", " ")
    assert list(tmp_path.glob("*.lock.json"))


def test_cli_alphabet_unknown_primitive_exits_two(capsys):
    """Unknown --alphabet names fail loudly, listing the registry —
    the same contract as unknown --attack / --scheme."""
    assert main([
        "evolve", "rand_100_9", "--key-length", "4", "--population", "4",
        "--generations", "1", "--predictor", "bayes",
        "--alphabet", "mux,mystery",
    ]) == 2
    err = capsys.readouterr().err
    assert "unknown locking primitive 'mystery'" in err
    assert "mux" in err and "xor" in err and "and_or" in err


def test_cli_alphabet_empty_exits_two(capsys):
    assert main([
        "evolve", "rand_100_9", "--key-length", "4", "--population", "4",
        "--generations", "1", "--predictor", "bayes", "--alphabet", ",",
    ]) == 2
    assert "at least one primitive" in capsys.readouterr().err


def test_cli_run_alphabet_override(tmp_path, capsys):
    """--alphabet on `autolock run` overrides the spec and the record
    names per-gene primitive kinds."""
    import json

    spec = {
        "circuit": "rand_100_9",
        "key_length": 6,
        "engine": "ga",
        "engine_params": {"population_size": 4, "generations": 2},
        "attack": "muxlink",
        "attack_params": {"predictor": "bayes"},
        "seed": 5,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main([
        "run", str(path), "--alphabet", "mux,xor",
        "--out", str(tmp_path / "artifacts"),
    ]) == 0
    out = capsys.readouterr().out
    assert "alphabet=mux,xor" in out
    record = json.loads(
        (tmp_path / "artifacts" / "results.jsonl").read_text().splitlines()[0]
    )
    assert record["spec"]["alphabet"] == ["mux", "xor"]
    kinds = {g["kind"] for g in record["engine"]["best_genotype"]}
    assert kinds <= {"mux", "xor"} and kinds

    assert main(["run", str(path), "--alphabet", "nope"]) == 2
    assert "unknown locking primitive 'nope'" in capsys.readouterr().err


def test_cli_sweep_alphabet_flag_conflicts_with_axis(tmp_path, capsys):
    """--alphabet on a sweep that already sweeps an alphabet axis is
    refused: the axis would silently override the flag."""
    import json

    sweep = {
        "name": "clash",
        "base": {
            "circuit": "rand_100_9", "key_length": 4, "engine": "ga",
            "engine_params": {"population_size": 4, "generations": 1},
            "attack": "muxlink", "attack_params": {"predictor": "bayes"},
            "seed": 1,
        },
        "axes": {"alphabet": [["mux"], ["mux", "xor"]]},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    assert main(["sweep", str(path), "--alphabet", "mux"]) == 2
    assert "already sweeps an 'alphabet' axis" in capsys.readouterr().err


def test_cli_sweep_alphabet_flag_conflicts_with_merge_axis(tmp_path, capsys):
    """A merge axis whose partial specs set alphabet conflicts too."""
    import json

    sweep = {
        "name": "clash_merge",
        "base": {
            "circuit": "rand_100_9", "key_length": 4, "engine": "ga",
            "engine_params": {"population_size": 4, "generations": 1},
            "attack": "muxlink", "attack_params": {"predictor": "bayes"},
            "seed": 1,
        },
        "axes": {
            "*variant": [
                {"alphabet": ["mux"]},
                {"alphabet": ["mux", "xor"]},
            ]
        },
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    assert main(["sweep", str(path), "--alphabet", "mux"]) == 2
    assert "already sweeps an 'alphabet' axis" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["info", "lock", "evolve"])
def test_cli_unknown_circuit_exits_2_without_traceback(verb):
    """A ReproError from any verb is one ``error:`` line and exit 2."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", verb, "nosuch"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "unknown circuit 'nosuch'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_info_survives_a_reader_that_closes_the_pipe():
    """``autolock info | head -1``: the reader closes the pipe after one
    line, and the CLI exits non-zero with nothing on stderr."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")  # one write per line
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "info"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    assert proc.stdout.readline().startswith("c17")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) != 0
    assert stderr == ""


def test_cli_evolve_on_a_json_cache_exits_2_naming_it(tmp_path, capsys):
    """JSON fitness caches are no longer read: a clear error, not a
    sqlite3 traceback, and the old file is left untouched."""
    old = tmp_path / "old.json"
    old.write_text('{"c17|role=fitness": {}}')
    assert main([
        "evolve", "c17", "--key-length", "2", "--population", "2",
        "--generations", "1", "--predictor", "bayes", "--cache", str(old),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(old) in err and "JSON fitness caches are no longer read" in err
    assert old.read_text() == '{"c17|role=fitness": {}}'
