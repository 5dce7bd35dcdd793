"""AutoLock: automatic design of logic locking with evolutionary computation.

Reproduction of Wang et al., DSN 2023 (Doctoral Forum). README.md
documents the command line and the packages below; the paper's
experiments are the ``benchmarks/bench_e*.py`` scripts.

Public API highlights
---------------------
- :mod:`repro.netlist` — gate-level netlist model + ``.bench`` I/O
- :mod:`repro.sim` — bit-parallel simulation, equivalence checking
- :mod:`repro.sat` — CNF/Tseitin substrate and CDCL solver
- :mod:`repro.circuits` — benchmark circuit registry (c17 + synthetic ISCAS)
- :mod:`repro.locking` — RLL and D-MUX locking schemes
- :mod:`repro.attacks` — MuxLink, SAT attack, oracle-less baselines
- :mod:`repro.ec` — GA / NSGA-II engines and the AutoLock pipeline
- :mod:`repro.registry` — string-keyed plugin registries (schemes,
  attacks, predictors, engines, metrics)
- :mod:`repro.api` — declarative ``ExperimentSpec``/``SweepSpec`` layer:
  ``run_experiment``/``run_sweep`` + JSONL/manifest artifacts
"""

from repro._version import __version__

__all__ = ["__version__"]
