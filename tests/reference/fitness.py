"""Reference lock-vs-panel fitness: one scope run per panel member.

The runtime scores a lock against an attacker panel with
``SpecFitness(panel=...)``, which runs constant propagation once per
locked design and hands its report to every member. This is the
straightforward version it replaced: each member runs its attack and
then its own scope attack, and the member accuracies are averaged in
panel order.
"""

from __future__ import annotations

from typing import Sequence

from repro.attacks.scope import ScopeAttack
from repro.coevo.genome import AttackerGenome
from repro.ec.fitness import DEFAULT_ATTACK_SEED, resilience_accuracy
from repro.locking.delta import DeltaRelocker
from repro.locking.primitives import Gene
from repro.netlist.netlist import Netlist
from repro.registry import create_attack


class LockVsPanelFitness:
    """Lock fitness: mean attack accuracy over the attacker panel."""

    def __init__(
        self,
        original: Netlist,
        panel: Sequence[AttackerGenome],
        attack_seed: int = DEFAULT_ATTACK_SEED,
    ) -> None:
        self.panel = tuple(panel)
        self.attack_seed = attack_seed
        self._relocker = DeltaRelocker(original)
        self._scope = ScopeAttack()
        self._attacks = []
        for genome in self.panel:
            name, params = genome.to_attack()
            self._attacks.append(create_attack(name, **params))

    def __call__(self, genes: Sequence[Gene]) -> float:
        locked = self._relocker.lock(genes)
        total = 0.0
        for attack in self._attacks:
            report = attack.run(locked, seed_or_rng=self.attack_seed)
            total += resilience_accuracy(
                locked, genes, report, self._scope, self.attack_seed
            )
        return total / len(self.panel)
