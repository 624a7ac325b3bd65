"""Particle swarm engine over the competing model parameterizations.

Eight particles, one per model in the catalog, share a 5-dimensional
search space. A particle only "owns" its first `model.d` coordinates;
the remaining ones are carried through every update but never reach the
fitness function. The swarm state is a set of arrays with one row per
particle. Most iterations improve no personal best, so a run moves the
swarm through a window of k iterations as if none did, scores its
(k, P, 5) positions with one batched fitness call given the P personal
bests (a row proven unable to beat its particle's may come back +inf,
unsolved), and keeps the iterations up to the first that improved a
best: those of a one-at-a-time run, bit for bit. Velocity and position
are clamped each iteration, and the inertia weight either stays at 1
(mode "none") or decays linearly over the first half of the run (mode
"adaptive"). One order ranks the particles, `best_first`: the global
best is the particle it puts first, and the final ranking lists all of
them in it. A run returns a `RunRecord`: its trace is one table with a
row per iteration, the columns of convergence.csv.
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

InertiaMode = Literal["none", "adaptive"]

# Most iterations a run scores with one fitness call. A window starts at one
# iteration, doubles after a window that improved no personal best, and
# halves after one that did.
WINDOW_MAX = 16


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
        # The velocity update adds the inertia term w * v, with |v| <= v_max
        # and w never above w_start (1 in mode "none"), to two attractions,
        # each at most c * (m_max - m_min). An overflow in any term or in
        # their sum would give an infinite velocity or inf - inf = nan.
        span = self.m_max - self.m_min
        if not math.isfinite(span):
            raise ValueError("m_max - m_min overflows; the position span must be finite")
        w_max = max(self.w_start, 1.0) if self.inertia_mode == "adaptive" else 1.0
        inertia = w_max * self.v_max
        if not math.isfinite(inertia):
            raise ValueError("w_start is too large: w_start * v_max overflows")
        if not math.isfinite(inertia + (self.c1 + self.c2) * span):
            key = "c1" if self.c1 >= self.c2 else "c2"
            raise ValueError(
                f"{key} is too large: w * v_max + (c1 + c2) * (m_max - m_min) overflows"
            )
        # The position update adds a velocity of at most v_max to a position
        # in [m_min, m_max].
        if not (math.isfinite(self.m_max + self.v_max) and math.isfinite(self.m_min - self.v_max)):
            raise ValueError("v_max is too large: m_max + v_max or m_min - v_max overflows")
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

    `pbest_fitness` is nan until the particle first scores. `gbest` is
    derived, not given: the row that `best_first` puts first. A state in
    which no particle has scored raises RuntimeError.
    """

    models: tuple[ModelSpec, ...]
    position: np.ndarray
    velocity: np.ndarray
    pbest_position: np.ndarray
    pbest_fitness: np.ndarray
    iteration: int
    gbest: int = field(init=False)

    def __post_init__(self) -> None:
        rows = (len(self.models), SEARCH_DIMS)
        for name in ("position", "velocity", "pbest_position", "pbest_fitness"):
            arr = getattr(self, name)
            expected = rows[:1] if name == "pbest_fitness" else rows
            if arr.shape != expected:
                raise ValueError(f"{name} must have shape {expected}")
            arr.setflags(write=False)
        gbest = int(best_first(self.models, self.pbest_fitness)[0])
        if math.isnan(self.pbest_fitness[gbest]):  # nan sorts last: none scored
            raise RuntimeError("no particle produced a successful evaluation")
        object.__setattr__(self, "gbest", gbest)

    @property
    def gbest_position(self) -> np.ndarray:
        return self.pbest_position[self.gbest]

    @property
    def gbest_fitness(self) -> float:
        return float(self.pbest_fitness[self.gbest])

    @property
    def gbest_model_id(self) -> int:
        return self.models[self.gbest].model_id


@dataclass(frozen=True)
class EvaluationFailure:
    """One fitness evaluation that raised instead of returning a value."""

    iteration: int
    model_id: int
    reason: str


@dataclass(frozen=True)
class RankingEntry:
    model_id: int
    d: int
    fitness: float
    position: tuple[float, ...]


@dataclass(frozen=True)
class RunRecord:
    """Everything one optimization run produced.

    `rows` is the trace, a read-only float64 table with one row per
    iteration and 4 + 6P columns for P particles, in the order of
    convergence.csv: the iteration (from 1), the inertia weight applied
    during it, the global best's model id and fitness, the P personal-best
    fitnesses (nan until a particle first scores), then the P current,
    clamped 5-vector positions, particle by particle.

    `converged_at` is the last iteration at which the global best improved
    (0 if it never improved past its initial value); the run itself always
    executes the full iteration budget.
    """

    config: SwarmConfig
    rows: np.ndarray
    ranking: tuple[RankingEntry, ...]
    failures: tuple[EvaluationFailure, ...]
    converged_at: int
    initial_gbest_fitness: float


def best_first(models: Sequence[ModelSpec], fitness: np.ndarray) -> np.ndarray:
    """Row indices ordered best first: lowest fitness (nan last), then
    fewer parameters, then lower model id."""
    return np.lexsort(([m.model_id for m in models], [m.d for m in models], fitness))


# Scores a window of k iterations of the P particles `models` (the same tuple
# on every call of a run): (k, P, 5) positions, position [i, p] for models[p],
# against the (P,) personal bests as thresholds (nan: the particle's rows must
# be solved). Initialization is a window of one. Returns the k P objective
# values in row order i P + p, +inf for a row proven not to beat its
# particle's threshold, and, keyed by that row, the eigensolver error of every
# row that failed (its value is ignored). Any other exception aborts the run,
# even on a row the window would have dropped; with positions clamped to
# m_min > 0 no FE fitness row raises one.
FitnessFn = Callable[
    [Sequence[ModelSpec], np.ndarray, np.ndarray],
    tuple[np.ndarray, Mapping[int, EigenSolveError]],
]


@dataclass
class RngStream:
    """Seeded random source with a frozen draw order.

    Initialization consumes, per particle in index order: d standard
    normals (position offsets), then d uniform magnitudes, then d sign
    draws. Every iteration afterwards consumes, per particle in index
    order, one (r1, r2) uniform pair per search dimension, r1 first;
    `run` draws the pairs of all its iterations at once, right after
    initialization. Identical seeds therefore reproduce identical
    trajectories no matter how fitness evaluations are scheduled.
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

    def uniform_pairs(self, *count: int) -> np.ndarray:
        """(r1, r2) for each dimension of `count` particles, shape
        (*count, 5, 2). One draw fills particle by particle, so it equals
        draws of shape (5, 2) in row-major order: (N, P) gives the pairs
        of N iterations of P particles."""
        return self._rng.random((*count, SEARCH_DIMS, 2))


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
    # Clipping does not change a sign, so with 0 < v_min < v_max (as
    # `SwarmConfig.validate` requires) each sign's components are clipped to
    # its own band, [v_min, v_max] or [-v_max, -v_min]: six ufuncs, not seven.
    positive = np.minimum(np.maximum(raw, v_min), v_max)
    return np.where(raw >= 0.0, positive, np.maximum(np.minimum(raw, -v_min), -v_max))


def _log(failures, errors, particles: tuple[ModelSpec, ...], iteration: int, rows: int) -> None:
    """Log the failures of the first `rows` rows in row order, row r as
    particle r mod P at `iteration` + r // P."""
    n = len(particles)
    for r in sorted(errors) if failures is not None else ():
        if r < rows:
            model_id = particles[r % n].model_id
            failures.append(EvaluationFailure(iteration + r // n, model_id, str(errors[r])))


def init_swarm(
    config: SwarmConfig,
    catalog: Sequence[ModelSpec],
    rng: RngStream,
    fitness: FitnessFn,
    failures: list[EvaluationFailure] | None = None,
) -> SwarmState:
    """Draw initial positions (normal around init_mean, clamped) and
    velocities (uniform magnitude, random sign) for the active dimensions
    of each model, evaluate everyone, and seed the personal bests."""
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

    values, errors = fitness(models, position[None], np.full(len(models), math.nan))
    _log(failures, errors, models, 0, len(models))
    pbest_fitness = np.array(values, dtype=float)
    pbest_fitness[list(errors)] = math.nan
    return SwarmState(
        models=models,
        position=position,
        velocity=velocity,
        pbest_position=position,
        pbest_fitness=pbest_fitness,
        iteration=0,
    )


def _window(
    state: SwarmState,
    config: SwarmConfig,
    fitness: FitnessFn,
    pairs: np.ndarray,
    weights: Sequence[float],
    failures: list[EvaluationFailure] | None = None,
    rows: np.ndarray | None = None,
) -> tuple[SwarmState, bool]:
    """Advance through a window of k iterations: their (k, P, 5, 2) random
    pairs and inertia weights.

    The particles move against the window's bests, one fitness call scores
    their (k, P, 5) positions, and the window is kept through its first
    iteration in which a scored row beat its personal best, or whole; later
    rows are dropped unlogged. Personal bests update on strict improvement,
    the global best derives from them (`best_first` breaks ties), and a row
    that raised an eigensolver error keeps its pbest and is logged.
    `rows`, the window's (k, 4 + 6P) slice of the trace table (see
    `RunRecord`), gets the bests and positions of the kept iterations; its
    iteration and w columns are left as they are. Returns the new state and
    whether a best improved.
    """
    n, k, t = len(state.models), len(weights), state.iteration
    pbest_position, pbest_fitness = state.pbest_position, state.pbest_fitness
    attract_pbest, attract_gbest = config.c1 * pairs[..., 0], config.c2 * pairs[..., 1]
    positions, velocities = np.empty((k, n, SEARCH_DIMS)), []
    position, velocity, gbest_position = state.position, state.velocity, state.gbest_position
    for i, w in enumerate(weights):
        raw = (
            w * velocity
            + attract_pbest[i] * (pbest_position - position)
            + attract_gbest[i] * (gbest_position - position)
        )
        velocity = clamp_velocity(raw, config.v_min, config.v_max)
        velocities.append(velocity)
        position = np.minimum(
            np.maximum(position + velocity, config.m_min), config.m_max, out=positions[i]
        )

    values, errors = fitness(state.models, positions, pbest_fitness)
    values = np.asarray(values, dtype=float).reshape(k, n)
    improved = np.isnan(pbest_fitness) | (values < pbest_fitness)
    if errors:  # a failed row scored nothing
        improved.flat[list(errors)] = False
    first = np.flatnonzero(improved)
    kept = int(first[0]) // n + 1 if first.size else k
    _log(failures, errors, state.models, t + 1, kept * n)
    if first.size:
        last = improved[kept - 1]
        pbest_position = np.where(last[:, None], positions[kept - 1], pbest_position)
        pbest_fitness = np.where(last, values[kept - 1], pbest_fitness)
    after = SwarmState(
        models=state.models, position=positions[kept - 1], velocity=velocities[kept - 1],
        pbest_position=pbest_position, pbest_fitness=pbest_fitness, iteration=t + kept,
    )
    if rows is not None:  # the bests change only in the last kept iteration
        for bests, part in ((state, rows[: kept - 1]), (after, rows[kept - 1 : kept])):
            part[:, 2], part[:, 3] = bests.gbest_model_id, bests.gbest_fitness
            part[:, 4 : 4 + n] = bests.pbest_fitness
        rows[:kept, 4 + n :] = positions[:kept].reshape(kept, -1)
    return after, bool(first.size)


def step(
    state: SwarmState,
    config: SwarmConfig,
    fitness: FitnessFn,
    rng: RngStream,
    failures: list[EvaluationFailure] | None = None,
) -> SwarmState:
    """Advance the swarm one iteration: a window of one, with the next
    pairs of `rng`."""
    pairs = rng.uniform_pairs(len(state.models))[None]
    weights = [inertia_schedule(config, state.iteration)]
    return _window(state, config, fitness, pairs, weights, failures)[0]


def _ranking(state: SwarmState) -> tuple[RankingEntry, ...]:
    entries = [
        RankingEntry(model_id=model.model_id, d=model.d, fitness=value, position=tuple(position))
        for model, value, position in zip(
            state.models, state.pbest_fitness.tolist(), state.pbest_position.tolist()
        )
    ]
    return tuple(entries[i] for i in best_first(state.models, state.pbest_fitness))


def run(
    config: SwarmConfig,
    fitness: FitnessFn,
    catalog: Sequence[ModelSpec] | None = None,
) -> RunRecord:
    """Initialize from config.seed, execute the full iteration budget, and
    return the trace, the final ranking, and the failure log. There is one
    particle per catalog model (the full catalog by default). Identical
    (config, seed) pairs produce identical records."""
    config.validate()
    if catalog is None:
        catalog = model_catalog()

    rng = RngStream(config.seed)
    failures: list[EvaluationFailure] = []
    state = init_swarm(config, catalog, rng, fitness, failures)
    initial_gbest = state.gbest_fitness
    n_iterations = config.n_iterations
    pairs = rng.uniform_pairs(n_iterations, len(state.models))
    weights = [inertia_schedule(config, i) for i in range(n_iterations)]

    rows = np.empty((n_iterations, 4 + 6 * len(state.models)))
    rows[:, 0], rows[:, 1] = np.arange(1, n_iterations + 1), weights
    converged_at, k = 0, 1
    while (t := state.iteration) < n_iterations:
        k = min(k, n_iterations - t)
        previous_gbest = state.gbest_fitness
        state, improved = _window(
            state, config, fitness, pairs[t : t + k], weights[t : t + k], failures, rows[t : t + k]
        )
        if state.gbest_fitness < previous_gbest:
            converged_at = state.iteration
        k = max(k // 2, 1) if improved else min(2 * k, WINDOW_MAX)

    rows.setflags(write=False)
    return RunRecord(
        config=config,
        rows=rows,
        ranking=_ranking(state),
        failures=tuple(failures),
        converged_at=converged_at,
        initial_gbest_fitness=initial_gbest,
    )
