"""String-keyed plugin registries for the experiment layer.

Every extensible component family — locking schemes, locking
primitives, attacks, MuxLink link predictors, search engines, design
metrics, store backends — registers its concrete implementations here
under a short name. The declarative experiment API (:mod:`repro.api`)
and the CLI resolve those names at run time, so adding a scenario means
registering one class, not editing dispatch chains in a dozen entry
points::

    from repro.registry import ATTACKS, register_attack

    @register_attack("my_attack")
    class MyAttack(Attack):
        ...

    attack = ATTACKS.create("my_attack", budget=100)
    ATTACKS.available()  # [..., "my_attack", ...]

The lookup API is each registry's own :meth:`Registry.create`,
:meth:`Registry.get` and :meth:`Registry.available`; ``create_scheme``,
``create_attack`` and ``create_engine`` are shorthands for the first.

Registries populate lazily: the first lookup imports the provider
modules, whose import-time decorators self-register the built-ins. This
keeps :mod:`repro.registry` import-cheap (no heavy numpy/ML imports) and
free of circular imports — providers import this module, never the other
way around at module scope.
"""

from __future__ import annotations

import importlib
from typing import Callable, Iterator, TypeVar

from repro.errors import RegistryError

T = TypeVar("T")


class Registry:
    """A lazily-populated mapping from names to factories.

    ``providers`` are module paths imported on first access; importing
    them triggers the ``@register_*`` decorators that fill the registry.
    Entries are factories (classes or callables); :meth:`create`
    instantiates one with keyword arguments.
    """

    def __init__(self, kind: str, providers: tuple[str, ...] = ()) -> None:
        self.kind = kind
        self._providers = providers
        self._entries: dict[str, Callable[..., object]] = {}
        self._populated = False

    # -- registration ---------------------------------------------------
    def register(
        self, name: str, factory: Callable[..., T] | None = None, *,
        replace: bool = False,
    ):
        """Register ``factory`` under ``name``; usable as a decorator.

        Re-registering an existing name raises unless ``replace=True``
        (the escape hatch tests and downstream plugins use to override a
        built-in).
        """

        def _add(f: Callable[..., T]) -> Callable[..., T]:
            if not replace and name in self._entries:
                raise RegistryError(
                    f"{self.kind} {name!r} is already registered "
                    f"({self._entries[name]!r}); pass replace=True to override"
                )
            self._entries[name] = f
            return f

        if factory is None:
            return _add
        return _add(factory)

    # -- lookup ---------------------------------------------------------
    def _populate(self) -> None:
        if self._populated:
            return
        # Flag first so a provider that consults the registry mid-import
        # cannot recurse; cleared on failure so the real ImportError
        # resurfaces on every lookup instead of "available: (none)".
        self._populated = True
        try:
            for module in self._providers:
                importlib.import_module(module)
        except BaseException:
            self._populated = False
            raise

    def get(self, name: str) -> Callable[..., object]:
        """Return the factory registered under ``name``."""
        self._populate()
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; "
                f"available: {', '.join(self.available()) or '(none)'}"
            ) from None

    def create(self, name: str, **kwargs) -> object:
        """Instantiate the ``name`` entry with ``kwargs``.

        A ``TypeError`` from the factory signature (unknown parameter,
        missing argument) is re-raised as :class:`RegistryError` so
        spec-file typos surface with the registry context attached.
        """
        factory = self.get(name)
        try:
            return factory(**kwargs)
        except TypeError as exc:
            raise RegistryError(
                f"cannot construct {self.kind} {name!r} "
                f"with parameters {sorted(kwargs)}: {exc}"
            ) from exc

    def available(self) -> list[str]:
        """Sorted names accepted by :meth:`get` / :meth:`create`."""
        self._populate()
        return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        self._populate()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.available())

    def __len__(self) -> int:
        self._populate()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.kind!r}, {len(self._entries)} entries)"


#: Locking schemes: name -> LockingScheme factory.
SCHEMES = Registry("locking scheme", providers=("repro.locking",))
#: Locking primitives (genotype alphabet): name -> LockPrimitive factory.
PRIMITIVES = Registry("locking primitive", providers=("repro.locking.primitives",))
#: Attacks: name -> Attack factory.
ATTACKS = Registry("attack", providers=("repro.attacks",))
#: MuxLink link predictors: name -> predictor factory.
PREDICTORS = Registry("link predictor", providers=("repro.attacks.muxlink",))
#: Search engines driving run_experiment: name -> EngineAdapter factory.
ENGINES = Registry("search engine", providers=("repro.api.engines",))
#: Design metrics computed on a locked circuit: name -> metric callable.
METRICS = Registry("metric", providers=("repro.api.metrics",))
#: Experiment-store backends: name -> StoreBackend factory taking ``path``.
STORES = Registry("store backend", providers=("repro.store",))

register_scheme = SCHEMES.register
register_primitive = PRIMITIVES.register
register_attack = ATTACKS.register
register_predictor = PREDICTORS.register
register_engine = ENGINES.register
register_metric = METRICS.register
register_store = STORES.register


def create_scheme(name: str, **kwargs):
    """Instantiate the locking scheme registered under ``name``."""
    return SCHEMES.create(name, **kwargs)


def create_attack(name: str, **kwargs):
    """Instantiate the attack registered under ``name``."""
    return ATTACKS.create(name, **kwargs)


def create_engine(name: str, **kwargs):
    """Instantiate the search-engine adapter registered under ``name``."""
    return ENGINES.create(name, **kwargs)


__all__ = [
    "Registry",
    "SCHEMES",
    "PRIMITIVES",
    "ATTACKS",
    "PREDICTORS",
    "ENGINES",
    "METRICS",
    "STORES",
    "register_scheme",
    "register_primitive",
    "register_attack",
    "register_predictor",
    "register_engine",
    "register_metric",
    "register_store",
    "create_scheme",
    "create_attack",
    "create_engine",
]
