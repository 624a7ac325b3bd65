"""Particle swarm engine over the competing model parameterizations.

Eight particles, one per model in the catalog, share a 5-dimensional
search space. A particle only "owns" its first `model.d` coordinates;
the remaining ones are carried through every update but never reach the
fitness function. Velocity and position are clamped each iteration, and
the inertia weight either stays at 1 (mode "none") or decays linearly
over the first half of the run (mode "adaptive").
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Literal, Sequence

import numpy as np

from .beam_structure import SEARCH_DIMS, ModelSpec, model_catalog
from .modal import EigenSolveError
from .objective import ObjectiveKind, ObjectiveValue
from .records import (
    ConvergenceRow,
    EvaluationFailure,
    RankingEntry,
    RunRecord,
    sort_ranking,
)

InertiaMode = Literal["none", "adaptive"]


def _frozen_array(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


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
class Particle:
    """One candidate model's search state. Arrays are read-only; updates
    go through dataclasses.replace."""

    model: ModelSpec
    position: np.ndarray
    velocity: np.ndarray
    pbest_position: np.ndarray
    pbest_fitness: ObjectiveValue | None
    active_dims: int

    def __post_init__(self) -> None:
        for name in ("position", "velocity", "pbest_position"):
            arr = _frozen_array(getattr(self, name))
            if arr.shape != (SEARCH_DIMS,):
                raise ValueError(f"{name} must be a {SEARCH_DIMS}-vector")
            object.__setattr__(self, name, arr)
        if self.active_dims != self.model.d:
            raise ValueError("active_dims must equal the model's d")


@dataclass(frozen=True)
class SwarmState:
    particles: tuple[Particle, ...]
    gbest_position: np.ndarray
    gbest_fitness: ObjectiveValue
    gbest_model_id: int
    iteration: int
    w_current: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "gbest_position", _frozen_array(self.gbest_position))


FitnessFn = Callable[[Particle], ObjectiveValue]


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

    def uniform_pairs(self) -> np.ndarray:
        """(r1, r2) for each dimension of one particle, shape (5, 2)."""
        return self._rng.random((SEARCH_DIMS, 2))


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


def update_velocity(
    p: Particle,
    gbest_position: np.ndarray,
    w: float,
    c1: float,
    c2: float,
    rng: RngStream,
    *,
    v_max: float = 2.0e10,
    v_min: float = 1.0e9,
) -> np.ndarray:
    """One velocity step: inertia plus cognitive and social attraction,
    fresh r1, r2 per dimension, then clamping. All 5 dimensions move,
    including ones the particle's model never evaluates."""
    draws = rng.uniform_pairs()
    r1 = draws[:, 0]
    r2 = draws[:, 1]
    raw = (
        w * p.velocity
        + c1 * r1 * (p.pbest_position - p.position)
        + c2 * r2 * (np.asarray(gbest_position) - p.position)
    )
    return clamp_velocity(raw, v_min, v_max)


def update_position(
    p: Particle,
    *,
    m_min: float = 5.5e10,
    m_max: float = 7.5e10,
) -> np.ndarray:
    """Advance the position by the already-updated velocity and clamp
    every component into [m_min, m_max]."""
    return np.clip(p.position + p.velocity, m_min, m_max)


def _evaluate(
    p: Particle,
    iteration: int,
    fitness: FitnessFn,
    failures: list[EvaluationFailure] | None,
) -> ObjectiveValue | None:
    try:
        return fitness(p)
    except EigenSolveError as exc:
        if failures is not None:
            failures.append(
                EvaluationFailure(
                    iteration=iteration,
                    model_id=p.model.model_id,
                    reason=str(exc),
                )
            )
        return None


def _pick_gbest(
    particles: Sequence[Particle],
    current: tuple[np.ndarray, ObjectiveValue, int] | None,
) -> tuple[np.ndarray, ObjectiveValue, int]:
    """Strictly-improving scan over personal bests; on ties the earlier
    particle keeps the title."""
    best = current
    for p in particles:
        if p.pbest_fitness is None:
            continue
        if best is None or p.pbest_fitness.value < best[1].value:
            best = (p.pbest_position, p.pbest_fitness, p.model.model_id)
    if best is None:
        raise RuntimeError("no particle produced a successful evaluation")
    return best


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
    particles = []
    for model in catalog:
        d = model.d
        position = np.zeros(SEARCH_DIMS)
        q = rng.normals(d)
        position[:d] = np.clip(
            config.init_mean + q * config.init_std, config.m_min, config.m_max
        )
        velocity = np.zeros(SEARCH_DIMS)
        magnitudes = rng.magnitudes(d, config.v_min, config.v_max)
        signs = rng.signs(d)
        velocity[:d] = signs * magnitudes
        p = Particle(
            model=model,
            position=position,
            velocity=velocity,
            pbest_position=position,
            pbest_fitness=None,
            active_dims=d,
        )
        score = _evaluate(p, 0, fitness, failures)
        if score is not None:
            p = replace(p, pbest_fitness=score)
        particles.append(p)

    gbest_position, gbest_fitness, gbest_model_id = _pick_gbest(particles, None)
    return SwarmState(
        particles=tuple(particles),
        gbest_position=gbest_position,
        gbest_fitness=gbest_fitness,
        gbest_model_id=gbest_model_id,
        iteration=0,
        w_current=inertia_schedule(config, 0),
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
    the global best get recomputed. A fitness evaluation that raises an
    eigensolver error leaves that particle's pbest untouched and logs the
    failure; the swarm keeps going.
    """
    w = state.w_current
    moved = []
    for p in state.particles:
        velocity = update_velocity(
            p,
            state.gbest_position,
            w,
            config.c1,
            config.c2,
            rng,
            v_max=config.v_max,
            v_min=config.v_min,
        )
        p = replace(p, velocity=velocity)
        p = replace(p, position=update_position(p, m_min=config.m_min, m_max=config.m_max))
        moved.append(p)

    this_iteration = state.iteration + 1
    updated = []
    for p in moved:
        score = _evaluate(p, this_iteration, fitness, failures)
        if score is not None and (
            p.pbest_fitness is None or score.value < p.pbest_fitness.value
        ):
            p = replace(p, pbest_position=p.position, pbest_fitness=score)
        updated.append(p)

    gbest_position, gbest_fitness, gbest_model_id = _pick_gbest(
        updated,
        (state.gbest_position, state.gbest_fitness, state.gbest_model_id),
    )
    return SwarmState(
        particles=tuple(updated),
        gbest_position=gbest_position,
        gbest_fitness=gbest_fitness,
        gbest_model_id=gbest_model_id,
        iteration=this_iteration,
        w_current=inertia_schedule(config, this_iteration),
    )


def _snapshot(state: SwarmState, used_w: float) -> ConvergenceRow:
    fitnesses = tuple(
        p.pbest_fitness.value if p.pbest_fitness is not None else math.nan
        for p in state.particles
    )
    positions = tuple(tuple(float(x) for x in p.position) for p in state.particles)
    return ConvergenceRow(
        iteration=state.iteration,
        w=used_w,
        gbest_model_id=state.gbest_model_id,
        gbest_fitness=state.gbest_fitness.value,
        model_fitness=fitnesses,
        positions=positions,
    )


def _ranking(particles: Sequence[Particle]) -> tuple[RankingEntry, ...]:
    entries = [
        RankingEntry(
            model_id=p.model.model_id,
            d=p.model.d,
            fitness=p.pbest_fitness.value if p.pbest_fitness is not None else math.nan,
            position=tuple(float(x) for x in p.pbest_position),
        )
        for p in particles
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
    initial_gbest = state.gbest_fitness.value

    rows = []
    converged_at = 0
    for _ in range(config.n_iterations):
        used_w = state.w_current
        previous_gbest = state.gbest_fitness.value
        state = step(state, config, fitness, rng, failures)
        if state.gbest_fitness.value < previous_gbest:
            converged_at = state.iteration
        rows.append(_snapshot(state, used_w))

    return RunRecord(
        config=config,
        rows=tuple(rows),
        ranking=_ranking(state.particles),
        failures=tuple(failures),
        converged_at=converged_at,
        initial_gbest_fitness=initial_gbest,
    )
