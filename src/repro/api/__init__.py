"""Declarative experiment API: specs, registries, runner, artifacts.

The unified entry point for every experiment in this repository::

    from repro.api import ExperimentSpec, run_experiment

    spec = ExperimentSpec(
        circuit="c1355_syn",
        key_length=16,
        scheme="dmux",
        attack="muxlink",
        attack_params={"predictor": "mlp"},
        engine="ga",
        engine_params={"population_size": 10, "generations": 8},
        seed=3,
    )
    result = run_experiment(spec)

Specs serialise losslessly to JSON (``autolock run spec.json``), sweeps
expand grid axes over a base spec (``autolock sweep sweep.json``), and
every component name — scheme, locking primitive, attack, predictor,
engine, metric — is resolved through :mod:`repro.registry`, so plugging
in a new implementation requires exactly one ``@register_*`` decorator.
"""

from repro.api.artifacts import (
    MANIFEST_FILENAME,
    RESULTS_FILENAME,
    RunWriter,
    json_safe,
    read_manifest,
    read_results,
)
from repro.api.engines import DEFAULT_ATTACK_SEED, EngineOutcome, SpecFitness
from repro.api.runner import (
    EXPERIMENT_NAMESPACE,
    RunResult,
    SweepResult,
    run_experiment,
    run_sweep,
)
from repro.api.spec import ExperimentSpec, SweepSpec

__all__ = [
    "ExperimentSpec",
    "SweepSpec",
    "RunResult",
    "SweepResult",
    "run_experiment",
    "run_sweep",
    "EngineOutcome",
    "SpecFitness",
    "DEFAULT_ATTACK_SEED",
    "EXPERIMENT_NAMESPACE",
    "RunWriter",
    "json_safe",
    "read_results",
    "read_manifest",
    "RESULTS_FILENAME",
    "MANIFEST_FILENAME",
]
