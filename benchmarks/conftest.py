"""Shared benchmark configuration.

Every bench prints the table/series of its experiment (E1–E11, listed
under "Declarative experiments" and "Layout" in README.md) and
asserts the *shape* the paper reports — who wins, roughly by how much —
never absolute numbers. ``REPRO_BENCH_SCALE`` (default 1.0) scales
population sizes / generations / pattern counts toward the paper's
(unstated) budget; 0.5 halves everything for quick smoke runs.
"""

from __future__ import annotations

import os

import pytest


def scaled(value: int, minimum: int = 1) -> int:
    """Scale an integer workload knob by REPRO_BENCH_SCALE."""
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    return max(minimum, int(round(value * scale)))


@pytest.fixture
def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def print_header(exp_id: str, title: str, paper_anchor: str) -> None:
    """Uniform experiment banner so bench logs are self-describing."""
    print()
    print("=" * 78)
    print(f"[{exp_id}] {title}")
    print(f"    paper anchor: {paper_anchor}")
    print("=" * 78)
