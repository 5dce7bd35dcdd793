"""Copy-on-write netlist views: the work copies of genotype and re-lock code.

:class:`CowNetlist` is a :class:`~repro.netlist.netlist.Netlist` seeded
from an immutable *base* design whose derived state is maintained
**incrementally** instead of being invalidated wholesale on every
mutation. The plain ``Netlist`` drops its fanout map, topological order
and site index after each ``add_gate``/``rewire_pin`` and rebuilds them
from scratch on the next query — fine for one-shot construction, ruinous
for code that applies a whole genotype gene by gene to the same base.
Every locking builder works on a view:
:func:`~repro.locking.genome_lock.apply_genes` (behind
``lock_with_genes`` and :class:`~repro.locking.delta.DeltaRelocker`) and
:meth:`DMuxLocking.lock <repro.locking.dmux.DMuxLocking.lock>` insert
into one, and :func:`~repro.ec.genotype.random_genotype`,
:func:`~repro.ec.genotype.repair_genotype` and
:func:`~repro.ec.genotype.genotype_is_valid` sample, repair and validate
on one.

The view changes three behaviours:

* **Incremental fanouts.** The fanout map starts as a shallow snapshot
  of the base's map, sharing the base's per-signal consumer lists. A
  mutation touching signal ``s`` first *owns* that one list (copies it),
  then patches it in place — only the touched fanout regions are ever
  copied, and ``fanouts()`` never triggers a rebuild.
* **Incremental site index.** The view takes a private copy of the
  base's :class:`~repro.netlist.sites.SiteIndex` (lockable-wire pool and
  reachability bitsets) and every mutator updates it, so sampling draws
  from the pool and ``has_path`` reads one bit instead of rescanning the
  gates or walking the graph.
* **Deferred acyclicity.** :meth:`check_acyclic` is a no-op. The locking
  primitives call it defensively after every insertion, but their
  reachability checks already reject cycle-creating genes *before*
  mutating; the view's owner runs one full :meth:`topological_order`
  per genotype at the end, so every built genotype is still verified —
  once, not once per gene.

The gates dict is copied from the base (gates are immutable, so a dict
copy is a deep copy), and insertion order matches a plain
``base.copy()`` build exactly — every iteration-order-sensitive consumer
(graph extraction, simulation, metrics) sees the identical structure.
The cached topological order is still invalidated by mutations and
recomputed lazily.
"""

from __future__ import annotations

from repro.errors import NetlistError
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist


class CowNetlist(Netlist):
    """A mutable copy-on-write view over an immutable base netlist."""

    def __init__(self, name: str = "design") -> None:
        super().__init__(name)
        # Signals whose fanout list is private to this view (safe to
        # mutate in place). Everything else still aliases the base map.
        self._owned: set[str] = set()

    @classmethod
    def from_base(cls, base: Netlist, name: str | None = None) -> "CowNetlist":
        """A view of ``base`` ready for incremental locking mutations.

        Reads the base's cached fanout map and site index (each built
        once per base and dropped if the base is ever mutated), so views
        of the same base share that work.
        """
        view = cls(name or base.name)
        view.inputs = list(base.inputs)
        view.key_inputs = list(base.key_inputs)
        view.outputs = list(base.outputs)
        view.gates = dict(base.gates)
        # Shallow snapshot: per-signal lists are shared with the base
        # until a mutation owns them.
        view._fanout_cache = dict(base.fanouts())
        view._owned = set()
        view._site_index = base.site_index().fork(base)
        return view

    def __getstate__(self) -> dict:
        # The fanout map is the view's live state, not a cache.
        state = super().__getstate__()
        state["_fanout_cache"] = self._fanout_cache
        state["_owned"] = set(self._fanout_cache)
        return state

    # ------------------------------------------------------------------
    # incremental cache maintenance
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        # Mutations still invalidate the topological order (recomputed
        # lazily, at most once per candidate), but never the fanout map
        # or the site index: the overridden mutators below patch both.
        self._topo_cache = None

    def _own(self, signal: str) -> list[tuple[str, int]]:
        """The private (mutable) fanout list of ``signal``."""
        assert self._fanout_cache is not None
        if signal not in self._owned:
            self._fanout_cache[signal] = list(self._fanout_cache[signal])
            self._owned.add(signal)
        return self._fanout_cache[signal]

    def fanouts(self) -> dict[str, list[tuple[str, int]]]:
        assert self._fanout_cache is not None
        return self._fanout_cache

    def check_acyclic(self) -> None:
        """No-op: acyclicity is validated once per candidate by the
        caller (the gene-level reachability checks reject cycle-creating
        insertions before any mutation happens)."""

    # ------------------------------------------------------------------
    # mutators (base behaviour + incremental fanout/index patches)
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> None:
        super().add_input(name)
        self._fanout_cache[name] = []
        self._owned.add(name)
        self.site_index().added(self, name)

    def add_key_input(self, name: str) -> None:
        super().add_key_input(name)
        self._fanout_cache[name] = []
        self._owned.add(name)
        self.site_index().added(self, name)

    def add_gate(self, name: str, gtype: GateType, fanins) -> "Gate":
        gate = super().add_gate(name, gtype, fanins)
        self._fanout_cache[name] = []
        self._owned.add(name)
        for pin, src in enumerate(gate.fanins):
            self._own(src).append((name, pin))
        self.site_index().added(self, name)
        return gate

    def remove_gate(self, name: str) -> None:
        gate = self.gates.get(name)
        super().remove_gate(name)
        for pin, src in enumerate(gate.fanins):
            self._own(src).remove((name, pin))
        del self._fanout_cache[name]
        self._owned.discard(name)
        # Rare outside locking: rebuild the index lazily from the view.
        self._site_index = None

    def rewire_pin(self, gate_name: str, pin: int, new_src: str) -> None:
        gate = self.gates.get(gate_name)
        if gate is None:
            raise NetlistError(f"no gate named {gate_name!r}")
        old_src = gate.fanins[pin] if pin < len(gate.fanins) else None
        super().rewire_pin(gate_name, pin, new_src)
        if old_src is not None:
            self._own(old_src).remove((gate_name, pin))
        self._own(new_src).append((gate_name, pin))
        self.site_index().rewired(self, gate_name, pin, old_src)

    def widen_gate(self, gate_name: str, new_src: str) -> None:
        super().widen_gate(gate_name, new_src)
        pin = len(self.gates[gate_name].fanins) - 1
        self._own(new_src).append((gate_name, pin))
        self.site_index().rewired(self, gate_name, pin, None)
