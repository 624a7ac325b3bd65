"""Run artifacts: per-iteration trace rows, rankings, and failure logs.

These are plain-data containers (floats and tuples, no arrays) so they can
be serialized without caring where they came from. The swarm engine fills
them in; the experiment runner writes them to disk.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .swarm import SwarmConfig


@dataclass(frozen=True)
class EvaluationFailure:
    """One fitness evaluation that raised instead of returning a value."""

    iteration: int
    model_id: int
    reason: str


@dataclass(frozen=True)
class ConvergenceRow:
    """Swarm snapshot taken after one iteration.

    `w` is the inertia weight that was applied during the iteration.
    `model_fitness` holds each particle's personal-best objective value
    (nan if the particle has produced no successful evaluation yet) and
    `positions` the current, possibly clamped, 5-vector of every particle.
    """

    iteration: int
    w: float
    gbest_model_id: int
    gbest_fitness: float
    model_fitness: tuple[float, ...]
    positions: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.model_fitness) != len(self.positions):
            raise ValueError("one fitness entry per particle expected")


@dataclass(frozen=True)
class RankingEntry:
    model_id: int
    d: int
    fitness: float
    position: tuple[float, ...]


@dataclass(frozen=True)
class RunRecord:
    """Everything one optimization run produced.

    `converged_at` is the last iteration at which the global best improved
    (0 if it never improved past its initial value); the run itself always
    executes the full iteration budget.
    """

    config: "SwarmConfig"
    rows: tuple[ConvergenceRow, ...]
    ranking: tuple[RankingEntry, ...]
    failures: tuple[EvaluationFailure, ...]
    converged_at: int
    initial_gbest_fitness: float
