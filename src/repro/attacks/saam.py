"""SAAM — structural analysis attack on MUX-based locking.

An oracle-less loose-node / out-degree analysis (the SAAM heuristic
sketched in the ROADMAP): every key-MUX hypothesis "key bit = h" rejects
the data input ``d_{1-h}``, and in a sanely synthesised netlist no
internal signal may be left driving nothing. The true driver of a MUX
site typically feeds *only* that MUX (its original consumers were
rewired to the MUX output), while a decoy is a tap off a signal that
keeps its own fanout — so the hypothesis that leaves the *fewer /
less-anomalous* dangling nodes behind is the likelier key bit.

Scoring per site: ``penalty(h)`` charges 1 for each hard-dangling node
(observed out-degree 0 and not a primary output) hypothesis ``h``
strands, plus a ``degree_weight``-scaled soft term ``1 / (1 + outdeg)``
for degree-anomalous (low-fanout) rejects. Shared-key MUXes vote on the
same bit, mirroring the MuxLink margin convention (positive margin →
bit 0). D-MUX "shared" pairs are symmetric by construction — both data
inputs dangle equally under either hypothesis — so SAAM reports those
bits undecided (the 0.5 floor), exactly the blindness D-MUX was
designed to induce.

With ``kind_read`` (default on) SAAM also reads non-MUX key gates: the
observed XOR/XNOR/AND/OR kind of an ``xor``/``and_or`` insertion leaks
its key bit outright (:data:`~repro.attacks.muxlink.graph.KEYGATE_KIND_BIT`),
which cracks naive RLL without any learning.
"""

from __future__ import annotations

import time

from repro.attacks.base import Attack, AttackReport
from repro.attacks.muxlink.graph import extract_observed, read_keygate_kinds
from repro.locking.base import LockedCircuit
from repro.registry import register_attack


@register_attack("saam")
class SaamAttack(Attack):
    """Loose-node / out-degree structural attack.

    Parameters
    ----------
    degree_weight:
        Weight of the soft degree-anomaly term relative to the hard
        dangling-node count.
    kind_read:
        Also decide non-MUX key gates from their observed gate kind.
    threshold:
        Minimum |margin| to commit to a key bit; below it the bit stays
        undecided.
    """

    name = "saam"

    def __init__(
        self,
        degree_weight: float = 0.5,
        kind_read: bool = True,
        threshold: float = 0.0,
    ) -> None:
        self.degree_weight = float(degree_weight)
        self.kind_read = bool(kind_read)
        self.threshold = float(threshold)

    def run(self, locked: LockedCircuit, seed_or_rng=None) -> AttackReport:
        started = time.perf_counter()
        netlist = locked.netlist
        graph, queries = extract_observed(netlist)

        guesses: dict[str, int | None] = {k: None for k in netlist.key_inputs}
        kind_bits = read_keygate_kinds(graph) if self.kind_read else {}
        guesses.update(kind_bits)

        # Observed out-degrees (directed wires; key-MUX links are already
        # absent from the observed graph, so a node that only fed MUX
        # sites counts as fanout-free — exactly the "loose node" signal).
        outdeg = [0] * graph.n_nodes
        for u, _v in graph.directed_edges:
            outdeg[u] += 1
        po_set = set(netlist.outputs)

        def penalty(node: int) -> float:
            """Structural cost of *rejecting* ``node`` as a decoy."""
            deg = outdeg[node]
            cost = self.degree_weight / (1.0 + deg)
            if deg == 0 and graph.nodes[node] not in po_set:
                cost += 1.0
            return cost

        margins: dict[str, float] = {}
        site_penalties: dict[str, tuple[float, float]] = {}
        for q in queries:
            p0 = penalty(graph.index[q.d1])  # hypothesis 0 rejects d1
            p1 = penalty(graph.index[q.d0])  # hypothesis 1 rejects d0
            site_penalties[q.mux] = (p0, p1)
            # Positive margin: hypothesis 0 strands less -> key bit 0.
            margins[q.key_name] = margins.get(q.key_name, 0.0) + (p1 - p0)

        for key_name, margin in margins.items():
            if margin > self.threshold:
                guesses[key_name] = 0
            elif margin < -self.threshold:
                guesses[key_name] = 1
            else:
                guesses[key_name] = None

        extra = {
            "n_sites": len(queries),
            "n_keygate_sites": len(kind_bits),
            "margins": dict(margins),
            "site_penalties": site_penalties,
            "degree_weight": self.degree_weight,
        }
        return self._report(locked, guesses, started, extra=extra)
