"""Particle swarm engine over the competing model parameterizations.

Eight particles, one per model in the catalog, share a 5-dimensional
search space. A particle only "owns" its first `model.d` coordinates;
the remaining ones are carried through every update but never reach the
fitness function. The swarm state is a set of arrays with one row per
particle, and every iteration scores all particles with one batched
fitness call. Velocity and position are clamped each iteration, and
the inertia weight either stays at 1 (mode "none") or decays linearly
over the first half of the run (mode "adaptive").
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable, Literal, Mapping, Sequence

import numpy as np

from .beam_structure import SEARCH_DIMS, ModelSpec, model_catalog
from .modal import EigenSolveError
from .objective import ObjectiveKind
from .records import (
    ConvergenceRow,
    EvaluationFailure,
    RankingEntry,
    RunRecord,
    sort_ranking,
)

InertiaMode = Literal["none", "adaptive"]


@dataclass(frozen=True)
class SwarmConfig:
    """Hyperparameters and bounds for one optimization run.

    Position bounds are moduli in N/m^2; velocity bounds are moduli per
    iteration. `v_min` is a magnitude floor, not a signed minimum: every
    velocity component keeps |v| >= v_min in either direction.
    """

    c1: float = 2.0
    c2: float = 2.0
    n_iterations: int = 500
    n_particles: int = 8
    w_start: float = 1.2
    w_end: float = 0.4
    w_f: float = 0.5
    inertia_mode: InertiaMode = "adaptive"
    m_max: float = 7.5e10
    m_min: float = 5.5e10
    v_max: float = 2.0e10
    v_min: float = 1.0e9
    init_mean: float = 7.2e10
    init_std: float = math.sqrt(0.5e20)
    objective_kind: ObjectiveKind = "AIC"
    seed: int = 0
    # Keeps the uncorrected inertia decrement (w_start - w_end)/(N - w_f)
    # reachable for comparison runs; the default decrement reaches w_end
    # exactly when the decay window closes.
    legacy_inertia_decrement: bool = False

    def validate(self) -> None:
        """Raise ValueError naming the offending field on the first
        violated constraint. Types are checked first: integer fields take
        integers, real fields finite reals, and a bool is neither."""
        # Annotations are strings here (postponed evaluation).
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (
                isinstance(value, bool) or not isinstance(value, numbers.Integral)
            ):
                raise ValueError(f"{f.name} must be an integer")
            if f.type == "float" and (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
            ):
                raise ValueError(f"{f.name} must be a finite number")
            if f.type == "bool" and not isinstance(value, bool):
                raise ValueError(f"{f.name} must be a boolean")
        if self.c1 < 0:
            raise ValueError("c1 must be non-negative")
        if self.c2 < 0:
            raise ValueError("c2 must be non-negative")
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be at least 1")
        if self.n_particles < 1:
            raise ValueError("n_particles must be at least 1")
        if self.inertia_mode not in ("none", "adaptive"):
            raise ValueError("inertia_mode must be 'none' or 'adaptive'")
        if self.inertia_mode == "adaptive":
            if not 0.0 < self.w_f <= 1.0:
                raise ValueError("w_f must lie in (0, 1]")
            if self.w_end > self.w_start:
                raise ValueError("w_end must not exceed w_start")
            if self.w_end < 0:
                raise ValueError("w_end must be non-negative")
            if self.legacy_inertia_decrement and self.n_iterations <= self.w_f:
                # The legacy decrement divides by n_iterations - w_f.
                raise ValueError("w_f must be below n_iterations for the legacy decrement")
        if not self.m_min < self.m_max:
            raise ValueError("m_min must be below m_max")
        if not 0.0 < self.v_min < self.v_max:
            raise ValueError("v_min must satisfy 0 < v_min < v_max")
        if self.init_std <= 0:
            raise ValueError("init_std must be positive")
        if self.objective_kind not in ("AIC", "SSE"):
            raise ValueError("objective_kind must be 'AIC' or 'SSE'")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class SwarmState:
    """The swarm after `iteration` steps. Row i of every array belongs to
    the particle searching for `models[i]`; the arrays are made read-only.

    `pbest_fitness` is nan until the particle first scores. `gbest` is the
    row whose personal best is the global best.
    """

    models: tuple[ModelSpec, ...]
    position: np.ndarray
    velocity: np.ndarray
    pbest_position: np.ndarray
    pbest_fitness: np.ndarray
    gbest: int
    iteration: int

    def __post_init__(self) -> None:
        rows = (len(self.models), SEARCH_DIMS)
        for name in ("position", "velocity", "pbest_position", "pbest_fitness"):
            arr = getattr(self, name)
            expected = rows[:1] if name == "pbest_fitness" else rows
            if arr.shape != expected:
                raise ValueError(f"{name} must have shape {expected}")
            arr.setflags(write=False)

    @property
    def gbest_position(self) -> np.ndarray:
        return self.pbest_position[self.gbest]

    @property
    def gbest_fitness(self) -> float:
        return float(self.pbest_fitness[self.gbest])

    @property
    def gbest_model_id(self) -> int:
        return self.models[self.gbest].model_id


# Scores a (P, 5) stack of positions, row i for models[i]. Returns the
# (P,) objective values and, keyed by row, the eigensolver error of every
# row that failed (its value is ignored). Any other exception aborts.
FitnessFn = Callable[
    [Sequence[ModelSpec], np.ndarray],
    tuple[np.ndarray, Mapping[int, EigenSolveError]],
]


@dataclass
class RngStream:
    """Seeded random source with a frozen draw order.

    Initialization consumes, per particle in index order: d standard
    normals (position offsets), then d uniform magnitudes, then d sign
    draws. Every iteration afterwards consumes, per particle in index
    order, one (r1, r2) uniform pair per search dimension, r1 first.
    Identical seeds therefore reproduce identical trajectories no matter
    how fitness evaluations are scheduled.
    """

    seed: int
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def normals(self, n: int) -> np.ndarray:
        return self._rng.standard_normal(n)

    def magnitudes(self, n: int, low: float, high: float) -> np.ndarray:
        return self._rng.uniform(low, high, n)

    def signs(self, n: int) -> np.ndarray:
        return np.where(self._rng.random(n) < 0.5, -1.0, 1.0)

    def uniform_pairs(self, n_particles: int) -> np.ndarray:
        """(r1, r2) for each dimension of each particle, shape (P, 5, 2).
        One draw fills particle by particle, so it equals P draws of
        shape (5, 2) in particle order."""
        return self._rng.random((n_particles, SEARCH_DIMS, 2))


def inertia_schedule(config: SwarmConfig, iteration: int) -> float:
    """Inertia weight in force at the given (0-based) iteration.

    Mode "none" pins the coefficient at 1. Adaptive mode walks linearly
    from w_start down by a fixed decrement per iteration while
    iteration < N*w_f, then holds. The default decrement
    (w_start - w_end)/(N*w_f) lands exactly on w_end when the window
    closes; the legacy decrement divides by (N - w_f) instead and never
    gets there.
    """
    if config.inertia_mode == "none":
        return 1.0
    cutoff = math.floor(config.n_iterations * config.w_f)
    if config.legacy_inertia_decrement:
        dec = (config.w_start - config.w_end) / (config.n_iterations - config.w_f)
        return config.w_start - dec * min(iteration, cutoff)
    if iteration >= cutoff:
        return config.w_end
    dec = (config.w_start - config.w_end) / (config.n_iterations * config.w_f)
    return config.w_start - dec * iteration


def clamp_velocity(raw: np.ndarray, v_min: float, v_max: float) -> np.ndarray:
    """Clip each component to [-v_max, v_max], then push any component
    whose magnitude fell below v_min back out to v_min, keeping its sign
    (a zero counts as positive)."""
    clipped = np.clip(raw, -v_max, v_max)
    sign = np.where(clipped >= 0.0, 1.0, -1.0)
    return np.where(np.abs(clipped) < v_min, sign * v_min, clipped)


def _evaluate(
    models: tuple[ModelSpec, ...],
    position: np.ndarray,
    iteration: int,
    fitness: FitnessFn,
    failures: list[EvaluationFailure] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """One batched fitness call: the values and a mask of the rows that
    scored. Failures are logged in particle order."""
    values, errors = fitness(models, position)
    scored = np.ones(len(models), dtype=bool)
    for i in sorted(errors):
        scored[i] = False
        if failures is not None:
            failures.append(
                EvaluationFailure(
                    iteration=iteration,
                    model_id=models[i].model_id,
                    reason=str(errors[i]),
                )
            )
    return np.asarray(values, dtype=float), scored


def _best_row(pbest_fitness: np.ndarray) -> int:
    """The first row holding the lowest personal best."""
    scored = np.flatnonzero(~np.isnan(pbest_fitness))
    if scored.size == 0:
        raise RuntimeError("no particle produced a successful evaluation")
    return int(scored[np.argmin(pbest_fitness[scored])])


def init_swarm(
    config: SwarmConfig,
    catalog: Sequence[ModelSpec],
    rng: RngStream,
    fitness: FitnessFn,
    failures: list[EvaluationFailure] | None = None,
) -> SwarmState:
    """Draw initial positions (normal around init_mean, clamped) and
    velocities (uniform magnitude, random sign) for the active dimensions
    of each model, evaluate everyone, and seed pbest/gbest."""
    models = tuple(catalog)
    position = np.zeros((len(models), SEARCH_DIMS))
    velocity = np.zeros((len(models), SEARCH_DIMS))
    for i, model in enumerate(models):
        d = model.d
        q = rng.normals(d)
        position[i, :d] = np.clip(
            config.init_mean + q * config.init_std, config.m_min, config.m_max
        )
        magnitudes = rng.magnitudes(d, config.v_min, config.v_max)
        signs = rng.signs(d)
        velocity[i, :d] = signs * magnitudes

    values, scored = _evaluate(models, position, 0, fitness, failures)
    pbest_fitness = np.where(scored, values, math.nan)
    return SwarmState(
        models=models,
        position=position,
        velocity=velocity,
        pbest_position=position,
        pbest_fitness=pbest_fitness,
        gbest=_best_row(pbest_fitness),
        iteration=0,
    )


def step(
    state: SwarmState,
    config: SwarmConfig,
    fitness: FitnessFn,
    rng: RngStream,
    failures: list[EvaluationFailure] | None = None,
) -> SwarmState:
    """Advance the swarm one iteration.

    All particles move against the same frozen gbest, then evaluate, then
    personal bests update on strict improvement, and only afterwards does
    the global best get recomputed (a tie leaves it with its holder). A
    row whose evaluation raised an eigensolver error keeps its pbest and
    is logged; the swarm keeps going.
    """
    w = inertia_schedule(config, state.iteration)
    draws = rng.uniform_pairs(len(state.models))
    r1 = draws[..., 0]
    r2 = draws[..., 1]
    raw = (
        w * state.velocity
        + config.c1 * r1 * (state.pbest_position - state.position)
        + config.c2 * r2 * (state.gbest_position - state.position)
    )
    velocity = clamp_velocity(raw, config.v_min, config.v_max)
    position = np.clip(state.position + velocity, config.m_min, config.m_max)

    iteration = state.iteration + 1
    values, scored = _evaluate(state.models, position, iteration, fitness, failures)
    improved = scored & (np.isnan(state.pbest_fitness) | (values < state.pbest_fitness))
    pbest_position = np.where(improved[:, None], position, state.pbest_position)
    pbest_fitness = np.where(improved, values, state.pbest_fitness)

    best = _best_row(pbest_fitness)
    return SwarmState(
        models=state.models,
        position=position,
        velocity=velocity,
        pbest_position=pbest_position,
        pbest_fitness=pbest_fitness,
        gbest=best if pbest_fitness[best] < state.gbest_fitness else state.gbest,
        iteration=iteration,
    )


def _snapshot(state: SwarmState, config: SwarmConfig) -> ConvergenceRow:
    return ConvergenceRow(
        iteration=state.iteration,
        w=inertia_schedule(config, state.iteration - 1),
        gbest_model_id=state.gbest_model_id,
        gbest_fitness=state.gbest_fitness,
        model_fitness=tuple(state.pbest_fitness.tolist()),
        positions=tuple(map(tuple, state.position.tolist())),
    )


def _ranking(state: SwarmState) -> tuple[RankingEntry, ...]:
    entries = [
        RankingEntry(model_id=model.model_id, d=model.d, fitness=value, position=tuple(position))
        for model, value, position in zip(
            state.models, state.pbest_fitness.tolist(), state.pbest_position.tolist()
        )
    ]
    return sort_ranking(entries)


def run(
    config: SwarmConfig,
    fitness: FitnessFn,
    catalog: Sequence[ModelSpec] | None = None,
) -> RunRecord:
    """Initialize from config.seed, execute the full iteration budget, and
    return the trace, the final ranking, and the failure log. Identical
    (config, seed) pairs produce identical records."""
    config.validate()
    if catalog is None:
        catalog = model_catalog()
    if len(catalog) != config.n_particles:
        raise ValueError("catalog size must match n_particles")

    rng = RngStream(config.seed)
    failures: list[EvaluationFailure] = []
    state = init_swarm(config, catalog, rng, fitness, failures)
    initial_gbest = state.gbest_fitness

    rows = []
    converged_at = 0
    for _ in range(config.n_iterations):
        previous_gbest = state.gbest_fitness
        state = step(state, config, fitness, rng, failures)
        if state.gbest_fitness < previous_gbest:
            converged_at = state.iteration
        rows.append(_snapshot(state, config))

    return RunRecord(
        config=config,
        rows=tuple(rows),
        ranking=_ranking(state),
        failures=tuple(failures),
        converged_at=converged_at,
        initial_gbest_fitness=initial_gbest,
    )
