"""Composable locking primitives: the genotype alphabet of AutoLock.

The paper's headline contribution is *automatic design of logic locking*:
the GA evolves **compositions of locking building blocks**, not just
placements of one scheme. This module is the API those building blocks
plug into — a :class:`LockPrimitive` owns everything one gene kind needs:

* **gene sampling** (a random applicable locking site),
* **applicability checking** against the current netlist,
* **application** (``apply_gene`` → ground-truth insertion record),
* **repair participation** (re-sampling a conflicting gene of its kind),
* **per-gene mutation neighbourhoods** (the kind-specific local move),
* **decoding** insertion records back into genes, and
* **overhead accounting** (gates added per gene).

Concrete primitives register under the ``PRIMITIVES`` registry
(:data:`repro.registry.PRIMITIVES`), so a genotype becomes a
*heterogeneous* sequence of tagged genes: every gene carries a ``kind``
naming its primitive, and all EC machinery (sampling, repair, operators,
fitness, engines) dispatches through the registry rather than on
concrete gene classes. Three built-ins ship here:

``mux``
    The D-MUX pair of the paper (:class:`~repro.locking.dmux.MuxGene`,
    two MUXes per gene, one shared key bit) — the default alphabet, and
    the only kind MuxLink's link prediction can score.
``xor``
    The EPIC-style XOR/XNOR key gate (Roy et al.), as a *wire-level* cut:
    one fan-out branch is rerouted through the key gate, so the gene
    occupies exactly one ``(driver, consumer)`` wire — the same conflict
    universe as a MUX gene, which is what lets the kinds compose. (The
    whole-net variant remains :class:`~repro.locking.rll.RandomLogicLocking`.)
``and_or``
    An AND/OR masking key gate: key bit 1 inserts ``AND(f, key)`` (the
    correct key passes the signal), key bit 0 inserts ``OR(f, key)``.
    Like XOR/XNOR it leaks to constant propagation, giving the alphabet a
    deliberately weak-but-cheap member for overhead/resilience trade-offs.

Non-MUX primitives declare ``scoring = "scope"``: their key bits are
invisible to link prediction, so fitness scores them with the oracle-less
constant-propagation heuristic (the SCOPE shape used for RLL in E4/E5)
and aggregates both into one resilience accuracy — see
:mod:`repro.ec.fitness`.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass
from typing import ClassVar, Protocol, runtime_checkable

from repro.errors import LockingError
from repro.locking.dmux import (
    MuxGene,
    MuxPairInsertion,
    apply_gene as _apply_mux_gene,
    free_wires,
    gene_applicable as _mux_gene_applicable,
    sample_gene as _sample_mux_gene,
)
from repro.locking.rll import XorInsertion
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.registry import PRIMITIVES, register_primitive

#: the paper's single-scheme D-MUX search space; every alphabet knob
#: defaults to it.
DEFAULT_ALPHABET: tuple[str, ...] = ("mux",)


@runtime_checkable
class Gene(Protocol):
    """What every primitive's gene dataclass provides.

    ``kind`` names the owning primitive; ``k`` is the gene's correct key
    bit; ``wires`` lists the ``(driver, consumer)`` netlist wires the
    gene occupies (the cross-kind conflict universe); ``key_tuple`` is
    the canonical hashable identity used for fitness caching.
    """

    kind: str
    k: int

    @property
    def wires(self) -> tuple[tuple[str, str], ...]:
        ...  # pragma: no cover - protocol

    def with_key(self, k: int) -> "Gene":
        ...  # pragma: no cover - protocol

    def key_tuple(self) -> tuple:
        ...  # pragma: no cover - protocol


Genotype = list  # list[Gene]; kept loose for heterogeneous sequences


@dataclass(frozen=True)
class KeyGateInsertion:
    """Ground-truth record of one wire-level key gate (xor / and_or).

    ``f → g`` (pin ``pin``) is the wire that was cut; ``keygate`` the
    inserted gate driving ``g`` instead; ``key_bit`` the correct value
    of ``key_name``. ``kind`` names the primitive that applied it.
    """

    kind: str
    key_name: str
    key_bit: int
    f: str
    g: str
    pin: int
    keygate: str

    @property
    def consumer_pins(self) -> tuple[tuple[str, int], ...]:
        return ((self.g, self.pin),)


@dataclass(frozen=True)
class XorGene:
    """One wire-level XOR/XNOR key-gate site: ``{f, g, k}``.

    ``k = 0`` inserts XOR (identity under the correct key), ``k = 1``
    inserts XNOR — the published RLL convention.
    """

    kind: ClassVar[str] = "xor"

    f: str
    g: str
    k: int

    def __post_init__(self) -> None:
        if self.k not in (0, 1):
            raise LockingError(f"key bit must be 0/1, got {self.k}")

    @property
    def wires(self) -> tuple[tuple[str, str], ...]:
        return ((self.f, self.g),)

    def with_key(self, k: int) -> "XorGene":
        return XorGene(self.f, self.g, k)

    def key_tuple(self) -> tuple:
        return (self.kind, self.f, self.g, self.k)


@dataclass(frozen=True)
class AndOrGene:
    """One wire-level AND/OR masking key-gate site: ``{f, g, k}``.

    ``k = 1`` inserts ``AND(f, key)`` (key 1 passes ``f``), ``k = 0``
    inserts ``OR(f, key)`` (key 0 passes ``f``); flipping the key bit
    swaps the gate type, mirroring the XOR/XNOR pairing.
    """

    kind: ClassVar[str] = "and_or"

    f: str
    g: str
    k: int

    def __post_init__(self) -> None:
        if self.k not in (0, 1):
            raise LockingError(f"key bit must be 0/1, got {self.k}")

    @property
    def wires(self) -> tuple[tuple[str, str], ...]:
        return ((self.f, self.g),)

    def with_key(self, k: int) -> "AndOrGene":
        return AndOrGene(self.f, self.g, k)

    def key_tuple(self) -> tuple:
        return (self.kind, self.f, self.g, self.k)


class LockPrimitive(abc.ABC):
    """One entry of the locking alphabet; see the module docstring.

    Implementations must be stateless (one shared instance serves every
    engine) and deterministic given an RNG — the golden-trajectory tests
    pin exact RNG consumption for the ``mux`` primitive.
    """

    #: registry name; genes carry it as their ``kind``
    kind: str = "abstract"
    #: how fitness scores this kind's key bits: ``"link"`` (MuxLink link
    #: prediction) or ``"scope"`` (oracle-less constant propagation)
    scoring: str = "scope"
    #: gates inserted per gene (overhead accounting)
    gates_per_gene: int = 1
    #: the gene dataclass this primitive samples / decodes
    gene_cls: type = object

    # -- sampling / application -----------------------------------------
    @abc.abstractmethod
    def sample(
        self, netlist: Netlist, rng, used_pins: set | None = None
    ) -> Gene | None:
        """A random applicable gene avoiding ``used_pins``, or ``None``."""

    @abc.abstractmethod
    def applicable(self, netlist: Netlist, gene: Gene) -> bool:
        """True if ``gene`` can be applied to ``netlist`` right now."""

    @abc.abstractmethod
    def apply_gene(self, netlist: Netlist, gene: Gene, key_name: str):
        """Apply ``gene`` in place, wiring it to ``key_name``; returns the
        ground-truth insertion record. Raises :class:`LockingError` when
        the gene no longer applies."""

    # -- variation -------------------------------------------------------
    @abc.abstractmethod
    def neighbor(
        self, netlist: Netlist, gene: Gene, used: set, rng
    ) -> Gene | None:
        """A kind-specific local move of ``gene`` (or ``None`` if stuck)."""

    # -- decoding --------------------------------------------------------
    def can_decode(self, insertion) -> bool:
        """True if :meth:`decode` understands this insertion record."""
        return False

    def decode(self, insertion) -> Gene:
        """Insertion record → gene; raises :class:`LockingError` when the
        record carries no single-key-bit gene of this kind."""
        raise LockingError(
            f"primitive {self.kind!r} cannot decode "
            f"{type(insertion).__name__}"
        )

    # -- records ---------------------------------------------------------
    def gene_record(self, gene: Gene) -> dict:
        """JSON-safe gene form; inverse of :meth:`gene_from_record`."""
        return {"kind": self.kind, **dataclasses.asdict(gene)}

    def gene_from_record(self, data: dict) -> Gene:
        return self.gene_cls(**data)

    def overhead_gates(self, gene: Gene) -> int:
        """Gates this gene adds to the netlist."""
        return self.gates_per_gene


@register_primitive("mux")
class MuxPrimitive(LockPrimitive):
    """The paper's D-MUX pair gene (shared key bit, two MUXes)."""

    kind = "mux"
    scoring = "link"
    gates_per_gene = 2
    gene_cls = MuxGene

    def sample(self, netlist, rng, used_pins=None):
        return _sample_mux_gene(netlist, rng, used_pins=used_pins)

    def applicable(self, netlist, gene):
        return _mux_gene_applicable(netlist, gene)

    def apply_gene(self, netlist, gene, key_name):
        return _apply_mux_gene(netlist, gene, key_name)

    def neighbor(self, netlist, gene, used, rng, max_tries: int = 60):
        """Swap the decoy wire ``(f_j, g_j)`` for a fresh one.

        The historical ``reroute_partner`` operator — the degree of
        freedom MuxLink exploits. RNG consumption is pinned by the
        golden trajectories; do not reorder the draws.
        """
        wires = free_wires(netlist, used)
        if not wires:
            return None
        for _ in range(max_tries):
            f_j, g_j = wires[int(rng.integers(0, len(wires)))]
            candidate = MuxGene(
                gene.f_i, gene.g_i, f_j, g_j, int(rng.integers(0, 2))
            )
            if _mux_gene_applicable(netlist, candidate):
                return candidate
        return None

    def can_decode(self, insertion) -> bool:
        return isinstance(insertion, MuxPairInsertion)

    def decode(self, insertion):
        if not isinstance(insertion, MuxPairInsertion):
            return super().decode(insertion)
        if insertion.key_name_i != insertion.key_name_j:
            raise LockingError(
                "two_key insertions have no single-bit genotype"
            )
        return MuxGene(
            insertion.f_i,
            insertion.g_i,
            insertion.f_j,
            insertion.g_j,
            insertion.key_bit_i,
        )


class _KeyGatePrimitive(LockPrimitive):
    """Shared machinery of the wire-level key-gate primitives."""

    scoring = "scope"
    gates_per_gene = 1

    def _gate_type(self, k: int) -> GateType:
        raise NotImplementedError

    def _check(self, netlist: Netlist, gene) -> int:
        """Full applicability check; returns the consumer pin or raises."""
        consumer = netlist.gates.get(gene.g)
        if consumer is None:
            raise LockingError(f"gene consumer {gene.g!r} is not a gate")
        if consumer.gtype is GateType.MUX:
            raise LockingError(
                f"refusing to lock a MUX key-gate pin ({gene.g})"
            )
        if gene.f in netlist.key_inputs:
            raise LockingError(f"driver {gene.f!r} is a key input")
        src = netlist.gates.get(gene.f)
        if src is not None and src.gtype in (
            GateType.MUX, GateType.CONST0, GateType.CONST1,
        ):
            raise LockingError(
                f"driver {gene.f!r} is a MUX output or constant"
            )
        for pin, fanin in enumerate(consumer.fanins):
            if fanin == gene.f:
                return pin
        raise LockingError(f"wire {gene.f}->{gene.g} does not exist")

    def sample(self, netlist, rng, used_pins=None, max_tries: int = 400):
        wires = free_wires(netlist, used_pins or ())
        if not wires:
            return None
        for _ in range(max_tries):
            f, g = wires[int(rng.integers(0, len(wires)))]
            gene = self.gene_cls(f, g, int(rng.integers(0, 2)))
            if self.applicable(netlist, gene):
                return gene
        return None

    def applicable(self, netlist, gene):
        try:
            self._check(netlist, gene)
        except LockingError:
            return False
        return True

    def apply_gene(self, netlist, gene, key_name):
        pin = self._check(netlist, gene)
        if not netlist.is_signal(key_name):
            netlist.add_key_input(key_name)
        elif key_name not in netlist.key_inputs:
            raise LockingError(f"{key_name!r} exists but is not a key input")
        keygate = netlist.fresh_name(f"kg_{key_name}")
        netlist.add_gate(keygate, self._gate_type(gene.k), [gene.f, key_name])
        netlist.rewire_pin(gene.g, pin, keygate)
        netlist.check_acyclic()  # defensive: stays acyclic by construction
        return KeyGateInsertion(
            kind=self.kind,
            key_name=key_name,
            key_bit=gene.k,
            f=gene.f,
            g=gene.g,
            pin=pin,
            keygate=keygate,
        )

    def neighbor(self, netlist, gene, used, rng, max_tries: int = 60):
        """Slide the key gate along the driver: keep ``f``, pick another
        of its fan-out wires (key bit preserved)."""
        wires = [
            w
            for w in netlist.site_index().pool(netlist).driven_by(gene.f)
            if w not in used and w[1] != gene.g
        ]
        if not wires:
            return None
        for _ in range(min(max_tries, 2 * len(wires))):
            f, g = wires[int(rng.integers(0, len(wires)))]
            candidate = self.gene_cls(f, g, gene.k)
            if self.applicable(netlist, candidate):
                return candidate
        return None

    def can_decode(self, insertion) -> bool:
        if isinstance(insertion, KeyGateInsertion):
            return insertion.kind == self.kind
        return False

    def decode(self, insertion):
        if isinstance(insertion, KeyGateInsertion) and insertion.kind == self.kind:
            return self.gene_cls(insertion.f, insertion.g, insertion.key_bit)
        return super().decode(insertion)


@register_primitive("xor")
class XorPrimitive(_KeyGatePrimitive):
    """Wire-level EPIC XOR/XNOR key gate."""

    kind = "xor"
    gene_cls = XorGene

    def _gate_type(self, k: int) -> GateType:
        return GateType.XNOR if k else GateType.XOR

    def can_decode(self, insertion) -> bool:
        return super().can_decode(insertion) or isinstance(
            insertion, XorInsertion
        )

    def decode(self, insertion):
        if isinstance(insertion, XorInsertion):
            # RLL cuts whole nets; only a single-consumer cut carries a
            # wire-level gene.
            if len(insertion.rewired_pins) != 1:
                raise LockingError(
                    f"net cut on {insertion.locked_signal!r} rewires "
                    f"{len(insertion.rewired_pins)} consumers and has no "
                    "single-wire gene"
                )
            (consumer, _pin), = insertion.rewired_pins
            return XorGene(
                insertion.locked_signal, consumer, insertion.key_bit
            )
        return super().decode(insertion)


@register_primitive("and_or")
class AndOrPrimitive(_KeyGatePrimitive):
    """Wire-level AND/OR masking key gate."""

    kind = "and_or"
    gene_cls = AndOrGene

    def _gate_type(self, k: int) -> GateType:
        return GateType.AND if k else GateType.OR


# ---------------------------------------------------------------------------
# dispatch helpers
# ---------------------------------------------------------------------------
_instances: dict[str, tuple[object, LockPrimitive]] = {}


def get_primitive(kind: str) -> LockPrimitive:
    """The shared instance of the primitive registered under ``kind``.

    Instances are cached per factory identity (works for class and
    function factories alike), so replacing a registry entry (tests,
    downstream plugins) invalidates the cache for that name.
    """
    factory = PRIMITIVES.get(kind)
    cached = _instances.get(kind)
    if cached is not None and cached[0] is factory:
        return cached[1]
    primitive = factory()
    _instances[kind] = (factory, primitive)
    return primitive


def primitive_for_gene(gene) -> LockPrimitive:
    """The primitive owning ``gene`` (dispatch on its ``kind`` tag)."""
    kind = getattr(gene, "kind", None)
    if kind is None:
        raise LockingError(
            f"{type(gene).__name__} carries no primitive kind tag"
        )
    return get_primitive(kind)


def primitive_for_insertion(insertion) -> LockPrimitive | None:
    """The registered primitive able to decode ``insertion`` (or None)."""
    for kind in PRIMITIVES:
        primitive = get_primitive(kind)
        if primitive.can_decode(insertion):
            return primitive
    return None


def normalize_alphabet(alphabet) -> tuple[str, ...]:
    """Shape-normalise an alphabet without touching the registry.

    ``None`` means :data:`DEFAULT_ALPHABET`; any other sequence becomes
    a tuple. A plain string is rejected here — ``tuple("mux,xor")``
    would silently explode into characters and fail much later with a
    baffling duplicate-primitives error.
    """
    if alphabet is None:
        return DEFAULT_ALPHABET
    if isinstance(alphabet, str):
        raise LockingError(
            f"alphabet must be a sequence of primitive names, got the "
            f"string {alphabet!r} — did you mean "
            f"{tuple(p.strip() for p in alphabet.split(','))!r}?"
        )
    if isinstance(alphabet, (set, frozenset)):
        # Order is trajectory- and fingerprint-significant; a set's
        # hash-randomised iteration order would silently make the same
        # program irreproducible across processes.
        raise LockingError(
            "alphabet must be an ordered sequence of primitive names, "
            f"got the set {sorted(alphabet)!r} — pass a list or tuple"
        )
    try:
        return tuple(alphabet)
    except TypeError:
        raise LockingError(
            f"alphabet must be a sequence of primitive names, "
            f"got {alphabet!r}"
        ) from None


def resolve_alphabet(alphabet) -> tuple[str, ...]:
    """Normalise and validate an alphabet: a tuple of primitive names.

    :func:`normalize_alphabet` plus content checks: order is significant
    — sampling draws kind indices, so a reordered alphabet walks a
    different trajectory. Unknown names raise through the registry with
    the available primitives listed; empties and duplicates raise
    :class:`LockingError`.
    """
    names = normalize_alphabet(alphabet)
    if not names:
        raise LockingError("alphabet must name at least one primitive")
    if len(set(names)) != len(names):
        raise LockingError(f"alphabet has duplicate primitives: {list(names)}")
    for name in names:
        PRIMITIVES.get(name)
    return names


def genotype_overhead(genes) -> int:
    """Total gates a genotype adds (per-primitive overhead accounting)."""
    return sum(primitive_for_gene(g).overhead_gates(g) for g in genes)


__all__ = [
    "DEFAULT_ALPHABET",
    "Gene",
    "Genotype",
    "KeyGateInsertion",
    "XorGene",
    "AndOrGene",
    "LockPrimitive",
    "MuxPrimitive",
    "XorPrimitive",
    "AndOrPrimitive",
    "get_primitive",
    "primitive_for_gene",
    "primitive_for_insertion",
    "normalize_alphabet",
    "resolve_alphabet",
    "genotype_overhead",
]
