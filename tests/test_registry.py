"""Plugin registries: registration, lookup, creation, error reporting."""

import pytest

from repro import registry
from repro.errors import RegistryError
from repro.registry import (
    ATTACKS,
    ENGINES,
    METRICS,
    PREDICTORS,
    SCHEMES,
    Registry,
    create_attack,
    create_engine,
    create_scheme,
)


# ------------------------------------------------------------- built-ins
def test_builtin_schemes_registered():
    assert SCHEMES.available() == ["dmux", "rll"]


def test_builtin_attacks_registered():
    assert ATTACKS.available() == [
        "muxlink", "random", "saam", "sat", "scope", "snapshot"
    ]


def test_builtin_predictors_registered():
    assert PREDICTORS.available() == ["bayes", "gnn", "mlp"]


def test_builtin_engines_registered():
    assert ENGINES.available() == [
        "autolock", "coevo", "ga", "hill_climber", "nsga2", "random_search",
        "simulated_annealing",
    ]


def test_builtin_metrics_registered():
    assert METRICS.available() == [
        "corruption", "equivalence", "overhead", "stats",
    ]


def test_create_scheme_with_params():
    scheme = create_scheme("dmux", strategy="two_key")
    assert scheme.strategy == "two_key"
    assert create_scheme("rll").name == "rll"


def test_create_attack_with_params():
    attack = create_attack("muxlink", predictor="bayes", ensemble=2)
    assert attack.predictor_name == "bayes"
    assert attack.ensemble == 2


def test_create_predictor():
    assert PREDICTORS.create("bayes").name == "bayes"


def test_create_engine_adapters_carry_names():
    for name in ENGINES.available():
        assert create_engine(name).name == name


# --------------------------------------------------------------- errors
def test_unknown_name_error_lists_available():
    with pytest.raises(RegistryError, match="muxlink, random, saam, sat"):
        create_attack("does_not_exist")


def test_bad_constructor_params_wrapped():
    with pytest.raises(RegistryError, match="cannot construct.*rll"):
        create_scheme("rll", strategy="shared")


def test_registry_contains_and_len():
    assert "muxlink" in registry.ATTACKS
    assert "nope" not in registry.ATTACKS
    assert len(registry.ATTACKS) == len(ATTACKS.available())
    assert list(registry.ATTACKS) == ATTACKS.available()


# --------------------------------------------------- custom registration
def test_decorator_registration_and_replace():
    reg = Registry("widget")

    @reg.register("spinny")
    class Spinny:
        def __init__(self, speed=1):
            self.speed = speed

    assert reg.available() == ["spinny"]
    assert reg.create("spinny", speed=3).speed == 3

    with pytest.raises(RegistryError, match="already registered"):
        reg.register("spinny", Spinny)

    class Spinny2(Spinny):
        pass

    reg.register("spinny", Spinny2, replace=True)
    assert isinstance(reg.create("spinny"), Spinny2)


def test_direct_factory_registration():
    reg = Registry("thing")
    reg.register("fixed", lambda: 42)
    assert reg.create("fixed") == 42


def test_lazy_provider_import():
    reg = Registry("ghost", providers=("repro.attacks",))
    # Providers resolve on first access, not at construction.
    assert reg._entries == {}
    assert reg.available() == []  # providers register elsewhere, not here


def test_plugin_attack_usable_from_cli_dispatch(monkeypatch):
    """A freshly registered attack is creatable with no dispatch edits."""
    from repro.attacks.base import Attack

    class NullAttack(Attack):
        name = "null"

        def run(self, locked, seed_or_rng=None):  # pragma: no cover
            raise NotImplementedError

    registry.ATTACKS.register("null_test_attack", NullAttack)
    try:
        assert isinstance(create_attack("null_test_attack"), NullAttack)
    finally:
        registry.ATTACKS._entries.pop("null_test_attack", None)
