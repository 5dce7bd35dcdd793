"""Adversarial co-evolution: attacker panels vs. the lock population.

Two populations evolve in alternating epochs. The *lock* side reuses the
existing genotypes, operators and :class:`~repro.ec.ga.GeneticAlgorithm`
unchanged; it is scored by :class:`~repro.ec.fitness.SpecFitness` over a
hall-of-fame panel of the strongest attackers seen so far (mean attack
accuracy, lower = more resilient). The *attacker* side evolves
:class:`~repro.coevo.genome.AttackerGenome` configuration vectors —
attack choice, predictor choice and hyperparameters drawn from the
``ATTACKS``/``PREDICTORS`` registries — whose fitness is key-recovery
accuracy against the current lock elite, scored in one batched evaluator
pass per generation.

See :mod:`repro.coevo.engine` for the arms-race driver. Declaratively
it is the ``coevo`` search engine of :mod:`repro.api.engines`:
``ExperimentSpec(engine="coevo", …)`` runs through ``run_experiment``,
sweeps and distributed campaigns (``autolock coevo`` on the CLI).
"""

from repro.coevo.engine import (
    CoevoEngine,
    CoevoEpoch,
    CoevoResult,
    AttackerVsEliteFitness,
)
from repro.coevo.genome import (
    GENOME_FIELDS,
    AttackerGenome,
    GenomeField,
)

__all__ = [
    "AttackerGenome",
    "AttackerVsEliteFitness",
    "CoevoEngine",
    "CoevoEpoch",
    "CoevoResult",
    "GENOME_FIELDS",
    "GenomeField",
]
