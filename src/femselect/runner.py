"""Experiment orchestration: presets, config files, and run artifacts.

Wires the FE fitness pipeline into the swarm, exposes the four standard
simulation presets, and writes a convergence trace plus a final ranking
to disk with byte-stable formatting (identical config and seed always
reproduce identical files).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .beam_structure import (
    ELEMENT_COUNT,
    SEARCH_DIMS,
    ModelSpec,
    build_h_beam_geometry,
    h_beam_section,
    measured_data,
    model_catalog,
    nominal_material,
)
from .fem import assemble, beam_element_matrices, element_dof_indices, transform_to_global
# Neither is called here: candidates reach the mirror blocks as class moduli,
# and mode shapes come from those blocks. The benchmark tracer patches both
# by these names.
from .beam_structure import element_modulus_vector  # noqa: F401
from .modal import solve_generalized_eigen  # noqa: F401
from .modal import (
    RIGID_BODY_RATIO,
    ConvergenceError,
    EigenSolveError,
    ModalResult,
    free_free_result,
    frequencies_from_eigenvalues,
    generalized_eigenvalues,
    mirror_eigenpairs,
    mirror_partners,
    mirror_standard_form,
    planar_standard_form,
    rigid_body_modes,
    rigid_mode_errors,
)
from .objective import SIGMA_SQ_FLOOR, ObjectiveKind, ObjectiveValue, aic, residuals, sse
from .swarm import RunRecord, SwarmConfig
from . import swarm as swarm_engine


class ConfigError(Exception):
    """Base class for configuration problems."""


class ConfigNotFoundError(ConfigError):
    pass


class ConfigParseError(ConfigError):
    pass


class ConfigValidationError(ConfigError):
    """A config value violated an invariant; `key` names the offender."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


# Simulation number -> (inertia mode, objective kind).
PRESETS: dict[int, tuple[str, str]] = {
    1: ("none", "AIC"),
    2: ("none", "SSE"),
    3: ("adaptive", "AIC"),
    4: ("adaptive", "SSE"),
}


def _preset_settings(preset: object) -> tuple[str, str]:
    """(inertia mode, objective kind) of a preset; anything but an int
    key of PRESETS raises ConfigValidationError naming `preset`."""
    if isinstance(preset, bool) or not isinstance(preset, int) or preset not in PRESETS:
        raise ConfigValidationError("preset", f"unknown preset {preset}")
    return PRESETS[preset]


@dataclass(frozen=True)
class ExperimentConfig:
    swarm: SwarmConfig
    preset: int | None = None
    output_dir: Path = Path("runs")
    emit_mode_shapes: bool = False

    def validate(self) -> None:
        if self.preset is not None:
            settings = zip(("inertia_mode", "objective_kind"), _preset_settings(self.preset))
            for key, required in settings:
                if (value := getattr(self.swarm, key)) != required:
                    raise ConfigValidationError(
                        key, f"preset {self.preset} requires {key}={required!r}, got {value!r}"
                    )
        try:
            self.swarm.validate()
        except ValueError as exc:
            key = str(exc).split()[0]
            raise ConfigValidationError(key, str(exc)) from exc
        # Positions are element moduli; the sphere tests of the bare swarm
        # may search below zero, an FE experiment may not.
        if self.swarm.m_min <= 0.0:
            raise ConfigValidationError("m_min", "m_min must be a positive modulus")


def preset_config(
    simulation: int,
    seed: int = 0,
    output_dir: str | Path = Path("runs"),
) -> ExperimentConfig:
    """Standard settings for simulation 1-4: c1 = c2 = 2 everywhere, the
    objective and inertia mode as tabulated."""
    mode, kind = _preset_settings(simulation)
    cfg = ExperimentConfig(
        swarm=SwarmConfig(inertia_mode=mode, objective_kind=kind, seed=seed),
        preset=simulation,
        output_dir=Path(output_dir),
    )
    cfg.validate()
    return cfg


_TOP_LEVEL_KEYS = {"preset", "seed", "output_dir", "emit_mode_shapes", "swarm"}
_SWARM_KEYS = {f.name for f in dataclasses.fields(SwarmConfig)}


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a JSON experiment description.

    Recognized top-level keys: preset, seed, output_dir, emit_mode_shapes,
    and a swarm object with SwarmConfig fields. Unknown keys anywhere are
    rejected. A preset key pins inertia_mode and objective_kind; swarm
    overrides may restate but not contradict them.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigNotFoundError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    # Not only JSONDecodeError: text nested past the recursion limit raises
    # RecursionError, and an integer literal past Python's digit limit (or
    # text that is not UTF-8) a plain ValueError.
    except (ValueError, RecursionError) as exc:
        raise ConfigParseError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigParseError(f"{path}: top level must be a JSON object")

    for key in data:
        if key not in _TOP_LEVEL_KEYS:
            raise ConfigValidationError(key, f"unknown key: {key}")

    swarm_data = data.get("swarm", {})
    if not isinstance(swarm_data, dict):
        raise ConfigValidationError("swarm", "swarm must be an object")
    for key in swarm_data:
        if key not in _SWARM_KEYS:
            raise ConfigValidationError(key, f"unknown swarm key: {key}")

    kwargs = dict(swarm_data)
    preset = data.get("preset")
    if preset is not None:
        mode, kind = _preset_settings(preset)
        kwargs.setdefault("inertia_mode", mode)
        kwargs.setdefault("objective_kind", kind)
    if "seed" in data:
        if "seed" in swarm_data and swarm_data["seed"] != data["seed"]:
            raise ConfigValidationError("seed", "seed given twice with different values")
        kwargs["seed"] = data["seed"]

    swarm_config = SwarmConfig(**kwargs)

    emit = data.get("emit_mode_shapes", False)
    if not isinstance(emit, bool):
        raise ConfigValidationError("emit_mode_shapes", "emit_mode_shapes must be a boolean")
    output_dir = data.get("output_dir", "runs")
    if not isinstance(output_dir, str):
        raise ConfigValidationError("output_dir", "output_dir must be a string")

    config = ExperimentConfig(
        swarm=swarm_config,
        preset=preset,
        output_dir=Path(output_dir),
        emit_mode_shapes=emit,
    )
    config.validate()
    return config


class ModelEvaluator:
    """Fitness pipeline of the standard H-beam against the measured
    frequencies, with the expensive parts hoisted out of the loop.

    The global stiffness is linear in each element modulus (shear modulus
    scales with E at fixed Poisson ratio), and the mass matrix never
    changes. So the build assembles one unit-modulus stiffness per
    element, splits each into planar halves and whitens them by the
    inverse square roots of the mass blocks (`planar_standard_form`,
    numpy alone). The frame is symmetric about y = 0 and every catalog
    model gives mirror partners (elements 1 and 4, 2 and 3, 11 and 12,
    derived from the geometry) one modulus, so the whitened stiffnesses
    of each class of partners are summed and each half is split by the
    mirror (`mirror_standard_form`), which also gives each block's map
    back to the 78 DOFs through its plane's mass root and mirror basis.
    Only the class blocks and the maps are kept. Fitness, `describe`
    (`spectrum`) and mode shapes (`eigenpairs`) all take a candidate as a
    model and a position, whose class moduli `_class_moduli` gathers and
    checks under the model's cached `_plan`; a candidate's blocks are
    weighted sums of the class blocks (`_class_sums`). The spectrum is
    four standard eigenvalue solves of 16 or 23 DOFs, and a batch of
    candidates shares one eigenvalue call.

    Every build yields the same arrays, so a process builds one through
    `_default_evaluator()` and every run, score and description shares
    it. The arrays are read-only: no caller can change what a later run
    sees.
    """

    def __init__(self):
        geometry = build_h_beam_geometry()
        material = nominal_material()
        section = h_beam_section()
        self.measured = measured_data()

        n = geometry.n_dofs
        stack = np.zeros((ELEMENT_COUNT, n, n))
        # The mass does not depend on the modulus; summed in element order
        # it equals `assemble(...).m_global` exactly.
        m_global = np.zeros((n, n))
        unit_shear = material.shear_modulus(1.0)
        for element in geometry.elements:
            local = beam_element_matrices(
                E=1.0,
                G=unit_shear,
                section=section,
                density=material.density,
                length=geometry.element_length(element),
            )
            global_mats = transform_to_global(local, element.frame)
            dofs = element_dof_indices(element.node_a, element.node_b)
            idx = np.ix_(dofs, dofs)
            stack[element.element_id - 1][idx] = global_mats.stiffness
            m_global[idx] += global_mats.mass
        self.m_global = m_global
        self._frame = (geometry, material, section)

        node_partner, element_partner = mirror_partners(geometry)
        # Each class of mirror partners shares one modulus: the first
        # element of a class stands for it, and the pairs are checked.
        elements = np.arange(ELEMENT_COUNT)
        self._classes = np.flatnonzero(elements <= element_partner)
        self._mirror_pairs = np.column_stack([elements, element_partner])[
            elements < element_partner
        ]
        whitened, roots = planar_standard_form(stack, m_global)
        summed = whitened[self._classes]
        for a, b in self._mirror_pairs:
            summed[self._classes == a] += whitened[b]
        self._mirror_blocks, self._mode_maps = mirror_standard_form(summed, roots, node_partner)
        self.rigid_modes = rigid_body_modes(geometry.nodes, m_global)
        self._ranks = np.asarray(self.measured.mode_indices) - 1
        self._plan = functools.lru_cache(maxsize=32)(self._derive_plan)
        # One evaluator serves every run of the process.
        for arr in (self.m_global, self._classes, self._mirror_pairs, *self._mirror_blocks,
                    *self._mode_maps, self.rigid_modes, self._ranks):
            arr.setflags(write=False)

    @functools.cached_property
    def _shape_head(self) -> str:
        """Header and rows 1-6 (the rigid modes at 0 Hz) of mode_shapes.csv,
        built on the first write and reused by every later one."""
        n = self.rigid_modes.shape[1]
        header = "mode,frequency_hz," + ",".join(f"phi_{i}" for i in range(1, n + 1))
        return "\n".join([header, *_shape_lines(1, np.zeros(6), self.rigid_modes)])

    # No run calls `stiffness`: the benchmark tracer patches it by this name,
    # and tests compare the dense reference at its K.
    def stiffness(self, moduli: np.ndarray) -> np.ndarray:
        """Full global K of this evaluator's frame at these element moduli,
        by `fem.assemble`, for the dense reference."""
        geometry, material, section = self._frame
        return assemble(geometry, moduli, material, section).k_global

    def _derive_plan(self, models: tuple[ModelSpec, ...]) -> tuple[np.ndarray, ...]:
        """Each model's d, and the (P, 9) flat indices into (P, 5) positions
        of its mirror classes' search dimensions, cached per tuple by
        `_plan`. A model whose groups split mirror partners raises
        ValueError at any position, as the mirror split needs one modulus
        per pair."""
        dims = np.stack([model.element_dims for model in models])
        left, right = self._mirror_pairs.T
        differ = np.any(dims[:, left] != dims[:, right], axis=0)
        if np.any(differ):
            a, b = self._mirror_pairs[np.argmax(differ)] + 1
            raise ValueError(f"elements {a} and {b} are mirror partners and need one modulus")
        flat = dims[:, self._classes] + SEARCH_DIMS * np.arange(len(models))[:, None]
        plan = (np.array([model.d for model in models]), flat)
        for arr in plan:
            arr.setflags(write=False)
        return plan

    def _eigenvalues(self, moduli: np.ndarray) -> tuple[np.ndarray, dict[int, EigenSolveError]]:
        """Ascending spectra of (P, 9) mirror-class moduli, one row each,
        from one eigenvalue call on the mirror blocks; nan rows for the
        errors returned."""
        stacks = self._class_sums(moduli)
        try:
            return generalized_eigenvalues(stacks), {}
        except ConvergenceError:
            pass
        # One failed block fails the whole call: solve each row's blocks
        # again to charge the failure to its own row.
        eigenvalues = np.full((len(moduli), self.m_global.shape[0]), math.nan)
        errors: dict[int, EigenSolveError] = {}
        for i in range(len(moduli)):
            try:
                eigenvalues[i] = generalized_eigenvalues(tuple(stack[i] for stack in stacks))
            except ConvergenceError as exc:
                errors[i] = exc
        return eigenvalues, errors

    def _class_sums(self, moduli: np.ndarray) -> tuple[np.ndarray, ...]:
        """The mirror block stacks (P, 2, k, k) of (P, 9) class moduli."""
        # Stacked (1, 9) @ (9, N) products round as `row @ flat` does; one
        # (P, 9) @ (9, N) product does not, and scores must not depend on P.
        return tuple(
            (moduli[:, None] @ blocks.reshape(len(blocks), -1)).reshape(-1, *blocks.shape[1:])
            for blocks in self._mirror_blocks
        )

    def spectrum(self, model: ModelSpec, position: np.ndarray) -> ModalResult:
        """Free-free frequencies of one candidate by the mirror blocks. An
        invalid position or a mirror-splitting model raises ValueError, as
        in `evaluate`; StructureError unless six rigid-body modes appear."""
        class_moduli = self._class_moduli(np.asarray(position)[None, None], self._plan((model,)))
        eigenvalues, errors = self._eigenvalues(class_moduli)
        if errors:
            raise errors[0]
        return free_free_result(eigenvalues[0])

    def eigenpairs(
        self, model: ModelSpec, position: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """`mirror_eigenpairs` of one candidate: the ascending eigenvalues,
        each one's block and its block eigenvector, which
        `_mode_maps[block] @ vector` makes an M-normalized mode shape.
        ValueError as in `evaluate`.

        The blocks are summed at E / max E and the eigenvalues scaled back,
        so the solve sees one input at E and at any s E whose ratios round
        alike (equal moduli always do), and its vectors do not depend on the
        scale of the moduli. Summed at E, the sums, and LAPACK's rescaling
        of a block far from unit norm, would round differently at each
        scale."""
        class_moduli = self._class_moduli(np.asarray(position)[None, None], self._plan((model,)))
        scale = class_moduli.max()
        blocks = tuple(stack[0] for stack in self._class_sums(class_moduli / scale))
        return mirror_eigenpairs(blocks, scale)

    def evaluate_batch(
        self,
        models: Sequence[ModelSpec],
        positions: np.ndarray,
        objective_kind: ObjectiveKind,
    ) -> tuple[ObjectiveValue, dict[int, EigenSolveError]]:
        """Score row i of the (P, 5) positions as models[i]: class moduli
        -> whitened mirror blocks -> eigenvalues -> measured-rank
        frequencies -> residuals -> objective, with one eigenvalue call
        for all rows. Returns the scores as (P,) arrays and the eigensolver
        error of each failed row, whose score is nan. Invalid positions and
        mirror-splitting models raise ValueError. A row's score does not
        depend on the other rows."""
        plan = self._plan(tuple(models))
        positions = np.asarray(positions, dtype=float)
        if positions.shape != (expected := (len(models), SEARCH_DIMS)):
            raise ValueError(f"positions must have shape {expected}")
        moduli = self._class_moduli(positions[None], plan)
        score, errors, _ = self._score(moduli, plan[0], objective_kind)
        return score, errors

    def _class_moduli(self, positions: np.ndarray, plan: tuple[np.ndarray, ...]) -> np.ndarray:
        """(k P, 9) class moduli of (k, P, 5) positions under a `_plan` of P
        models, row i P + p for position [i, p]; ValueError if invalid."""
        positions = np.asarray(positions, dtype=float)
        d, flat = plan
        if positions.shape[1:] != (len(d), SEARCH_DIMS):
            raise ValueError(f"positions must have shape (k, {len(d)}, 5), not {positions.shape}")
        class_moduli = positions.reshape(len(positions), -1).take(flat, axis=1).reshape(-1, 9)
        # Every active dimension is some class's: two reductions pass a valid
        # batch (nan fails the first), and only a failure looks closer.
        if not (class_moduli.min() > 0.0 and class_moduli.max() < math.inf):
            if np.any(class_moduli <= 0.0):
                raise ValueError("active position dimensions must be positive moduli")
            raise ValueError("element moduli must be finite")
        return class_moduli

    def _score(
        self, class_moduli: np.ndarray, d: np.ndarray, objective_kind: ObjectiveKind
    ) -> tuple[ObjectiveValue, dict[int, EigenSolveError], np.ndarray]:
        """The exact score of any rows: (P, 9) class moduli and (P,) d ->
        scores, the errors of failed rows (nan scores) and the spectra."""
        eigenvalues, errors = self._eigenvalues(class_moduli)
        # A failed solve's error, not its nan row's structure error, names it.
        errors = {**rigid_mode_errors(eigenvalues), **errors}
        r = residuals(self.measured, frequencies_from_eigenvalues(eigenvalues[:, self._ranks]))
        score = aic(r, d) if objective_kind == "AIC" else sse(r, d)
        if errors:
            failed = list(errors)
            score.value[failed] = math.nan
            score.sigma_squared[failed] = math.nan
        return score, errors, eigenvalues

    def evaluate(
        self,
        model: ModelSpec,
        position: np.ndarray,
        objective_kind: ObjectiveKind,
    ) -> ObjectiveValue:
        """One candidate's score: `evaluate_batch` with a single row.
        Deterministic for identical inputs."""
        score, errors = self.evaluate_batch(
            (model,), np.asarray(position, dtype=float)[None], objective_kind
        )
        if errors:
            raise errors[0]
        return dataclasses.replace(
            score,
            value=float(score.value[0]),
            sigma_squared=float(score.sigma_squared[0]),
            d=model.d,
        )


@functools.cache
def _default_evaluator() -> ModelEvaluator:
    """The one evaluator of the process, built on first use and shared by
    every run and description after it; its arrays are read-only.

    Code that builds an evaluator under a patch of what the build reads
    (such as a transform that couples the planar halves) calls
    `ModelEvaluator()` directly, never this: a cached evaluator would
    hide the patch, or keep it for every later run.
    """
    return ModelEvaluator()


# Solved points the screen keeps per particle: a ring of its last ones.
SCREEN_RING = 32
# Slack of a computed eigenvalue as a share of its spectrum's largest: a
# backward-stable solve errs by p(n) eps ||K|| (LAPACK Users' Guide 4.7) and
# forming K by a few eps ||K||; 16 n eps with n = 23, the largest block,
# covers both. At nominal moduli the computed rigid eigenvalues (exactly 0)
# are <= 2.5e-6, eps lam_max 1.7e-5, the slack 6.2e-3, 1e-6 lam_7 0.11. The
# slack bounds eigenvalues; SCREEN_MARGIN covers the rounding of the score.
SCREEN_SLACK = 16 * 23 * np.finfo(float).eps
# A row is skipped only if its bound beats the threshold t by a margin of
# SCREEN_MARGIN max(1, |t|). The bound's residuals are the exact path's own
# f - sqrt(lam)/2pi at a bracket end, squared and summed in its order, so its
# sum S is not above the computed score's (a clamp moved by rounding alone
# adds under 1e-24 Hz^2). AIC = n ln(max(S/n, floor)) + 2d is monotone in S:
# it beats t + margin iff max(S, n floor) > n exp((t + margin - 2d)/n).
# Rounding that limit (sums, exp, products), the computed score (log, the
# 2^-44 snap, + 2d) and that excess of S over n floor err by under
# 2e-12 max(1, |t|), a 2e-3 part of the margin; the rest keeps a skipped
# row's computed score above t. SSE: S/2 > t + margin iff S > 2 (t + margin).
SCREEN_MARGIN = 1e-9
# Iterations of a window bracketed at once. A particle's ring is held once
# per iteration of a block, so that a block's rows divide the rings as they
# are. With 8 particles the rings take 20 fields x 32 slots x 32 columns,
# 160 KB, allocated once a run; a full block's temporaries, its (9, 32, 32)
# ratios and each (5, 32, 32) bound, 72 KB and 40 KB, allocated every call.
# malloc maps a block of 128 KB or more afresh, page faults and all: a block
# of 16 iterations would take 288 KB of ratios, and one of 8 would take 144 KB.
SCREEN_BLOCK = 4


class _Screen:
    """Fitness of one run that solves only the rows whose score might beat
    their `threshold`, the particle's personal best. K(E) = sum_c E_c W_c
    with PSD class blocks, so alpha lam_i(E') <= lam_i(E) <= beta lam_i(E')
    for any solved point E', alpha and beta the extreme ratios E_c / E'_c
    (Courant-Fischer). Widened by SCREEN_SLACK, the points kept for a
    particle bracket a row's computed eigenvalues at index 6 and at the
    measured ranks. Clamping the measured eigenvalues (2 pi f)^2 into the
    brackets gives the smallest residuals, 0 inside a bracket, and their
    squared sum S bounds the score: a row whose S exceeds the limit its
    threshold sets (see SCREEN_MARGIN), and whose bracket proves the six
    rigid modes, comes back +inf, unsolved. `ModelEvaluator._score` solves
    every other row, as `evaluate_batch` does. Every run scores through it.

    A row that repeats a point solved earlier in the run, such as a
    particle parked on its personal best, is answered from the run's memo
    and not solved again. The memo keys on the particle and the bytes of
    the row's class moduli, all a row's score depends on (its d is its
    particle's), and holds the score and the eigensolver error, or None,
    that the first solve gave. A row's score does not depend on the other
    rows of its batch, and a failed batch is re-solved one row at a time,
    so an answer is bit for bit what a new solve returns, failures
    included. Only solved rows enter the rings, so they hold distinct
    points.
    """

    def __init__(self, evaluator: ModelEvaluator, objective_kind: ObjectiveKind):
        self.evaluator = evaluator
        self.kind = objective_kind
        self.models: tuple[ModelSpec, ...] | None = None
        # Kept columns, ascending: index 6, then the measured ranks as the
        # last of them (rank 7 is index 6 itself).
        self._columns = np.union1d([6], evaluator._ranks)
        self._measured = evaluator.measured.frequencies_hz[:, None]
        self._lam = (2.0 * np.pi * self._measured) ** 2

    def _start(self, models: tuple[ModelSpec, ...]) -> None:
        """Start a run of the particles `models`: their plan and empty rings."""
        self.models, self.plan = models, self.evaluator._plan(tuple(models))
        self._penalty = 2.0 * self.plan[0]
        # Field x ring slot x column; fields: 9 class moduli, lam -/+ tau at
        # the kept columns, slack of a spectrum at most as high. Column i P + p
        # holds particle p's ring, for each iteration i of a block. Empty: nan.
        shape = (10 + 2 * len(self._columns), SCREEN_RING, SCREEN_BLOCK * len(models))
        self.points = np.full(shape, math.nan)
        self.pushes = np.zeros(len(models), dtype=int)
        # (particle, class moduli bytes) -> (score, eigensolver error or None)
        self.solved: dict[tuple[int, bytes], tuple[float, EigenSolveError | None]] = {}

    def __call__(self, models, positions, threshold):
        if models is not self.models:
            self._start(models)
        moduli = self.evaluator._class_moduli(positions, self.plan)
        threshold = np.asarray(threshold, dtype=float)
        values = np.full(len(moduli), math.inf)
        rows = np.flatnonzero(~self._cannot_improve(moduli, threshold))
        if not rows.size:
            return values, {}
        n, solved, rows = len(models), self.solved, rows.tolist()
        keys = [(r % n, moduli[r].tobytes()) for r in rows]
        new = {}  # each point not solved before, at its first row in the call
        for key, r in zip(keys, rows):
            if key not in solved:
                new.setdefault(key, r)
        if new:
            fresh = np.array(list(new.values()))
            points, d = moduli[fresh], self.plan[0][fresh % n]
            score, errors, spectra = self.evaluator._score(points, d, self.kind)
            for i, (key, value) in enumerate(zip(new, score.value.tolist())):
                solved[key] = (value, errors.get(i))
            self._keep(fresh, points, spectra)
        answers = [solved[key] for key in keys]
        values[rows] = [value for value, _ in answers]
        return values, {r: e for r, (_, e) in zip(rows, answers) if e is not None}

    def bracket(self, moduli: np.ndarray) -> tuple[np.ndarray, ...]:
        """Bounds (k, R) on the computed eigenvalues at the kept columns of
        (R, 9) class moduli, and the (R,) slack of their rigid ones. Row r
        is bracketed by the ring of particle r mod P."""
        k, width = len(self._columns), self.points.shape[-1]
        # One empty (nan) slot at least: a call before any solve bounds nothing.
        points = self.points[:, : min(max(self.pushes.max(), 1), SCREEN_RING)]
        rows = moduli.T.copy()  # (9, R): a block's rows lie side by side
        low, high = np.empty((2, k, len(moduli)))
        slack = np.empty(len(moduli))
        for start in range(0, len(moduli), width):
            part = slice(start, start + width)
            block = rows[:, part]
            ring = points[..., : block.shape[1]]
            # Rows as (9, 1, b) against their rings as (9, slots, b).
            ratio = block[:, None] / ring[:9]
            alpha, beta = np.minimum.reduce(ratio), np.maximum.reduce(ratio)
            gap = beta * ring[-1]
            # fmax and fmin skip nan: empty slots and failed rows bound nothing.
            np.fmax.reduce(alpha * ring[9 : 9 + k] - gap, axis=1, out=low[:, part])
            np.fmin.reduce(beta * ring[9 + k : 9 + 2 * k] + gap, axis=1, out=high[:, part])
            np.fmin.reduce(gap, axis=0, out=slack[part])
        return low, high, slack

    def _limit(self, threshold: np.ndarray) -> np.ndarray | None:
        """What a row's squared residual sum must exceed to be skipped, per
        particle of the (P,) thresholds (see SCREEN_MARGIN); None before any
        particle has scored, when nothing can be bounded."""
        if np.isnan(threshold).all():
            return None
        limit = threshold + SCREEN_MARGIN * np.maximum(1.0, np.abs(threshold))
        if self.kind == "AIC":
            n = len(self._lam)
            return n * np.exp((limit - self._penalty) / n)
        return 2.0 * limit

    def _cannot_improve(self, moduli, threshold) -> np.ndarray:
        """Which rows of (k P, 9) class moduli are proven unable to beat
        their particle's entry of the (P,) thresholds."""
        if (limit := self._limit(threshold)) is None:
            return np.zeros(len(moduli), dtype=bool)
        low, high, slack = self.bracket(moduli)
        n = len(self._lam)
        lam = np.minimum(np.maximum(self._lam, low[-n:]), high[-n:])
        # Nan brackets (no point kept) give nan sums, which skip nothing.
        r = np.where(lam != self._lam, self._measured - frequencies_from_eigenvalues(lam), 0.0)
        total = (r * r).sum(axis=0).reshape(-1, len(threshold))
        if self.kind == "AIC":
            total = np.maximum(total, n * SIGMA_SQ_FLOOR)
        # Rigid eigenvalues lie within `slack` of 0, lam_6 above low[0]: six.
        return (total > limit).ravel() & (slack < RIGID_BODY_RATIO * low[0])

    def _keep(self, rows, moduli, spectra) -> None:
        """Push the solved rows into their particles' rings in row order. A
        point brackets a row of any model, so the first batch fills every
        ring."""
        lam, tau = spectra[:, self._columns], SCREEN_SLACK * spectra[:, -1:]
        fields = (moduli, lam - tau, lam + tau, SCREEN_SLACK * (spectra[:, -1:] + tau))
        point = np.concatenate(fields, axis=1).T[..., None]
        if not self.pushes.any():
            self.points[:, : len(rows)] = point
            self.pushes[:] = len(rows)
        else:
            # A window may solve a particle once per iteration, so each row
            # takes the slot after the particle's previous row.
            n = len(self.pushes)
            particles, pushes, slots = rows % n, self.pushes.tolist(), []
            for i in particles.tolist():
                slots.append(pushes[i] % SCREEN_RING)
                pushes[i] += 1
            # The slot in every copy of the particle's ring.
            columns = particles[:, None] + n * np.arange(SCREEN_BLOCK)
            self.points[:, np.array(slots)[:, None], columns] = point
            self.pushes[:] = pushes


def evaluate_model(
    model: ModelSpec,
    position: np.ndarray,
    objective_kind: ObjectiveKind = "AIC",
) -> ObjectiveValue:
    """Score one candidate on the standard structure and measured data."""
    return _default_evaluator().evaluate(model, position, objective_kind)


# 17 significant digits: enough to round-trip a double exactly, so files
# are byte-stable across runs.
_format_number = "{:.17g}".format


_CSV_HEADER = (
    "iteration,w,gbest_model,gbest_fitness,"
    + ",".join(f"fit_m{i}" for i in range(1, 9))
    + ","
    + ",".join(f"pos_m{i}_{j}" for i in range(1, 9) for j in range(1, 6))
)
# Iteration, w, gbest model, then 17 digits ("%.17g" % x is "{:.17g}".format(x)).
_CSV_ROW = "%d,%.17g,%d," + ",".join(["%.17g"] * (_CSV_HEADER.count(",") - 2))


def render_convergence_csv(record: RunRecord) -> str:
    """The trace, one row per iteration, of a record with the eight
    particles of the full catalog (ValueError otherwise)."""
    if (n := (record.rows.shape[1] - 4) // 6) != 8:
        raise ValueError(f"convergence.csv has columns for 8 particles; the record has {n}")
    # 64 rows of Python floats at a time, not the whole table at once.
    table = record.rows
    rows = (
        _CSV_ROW % tuple(row)
        for start in range(0, len(table), 64)
        for row in table[start : start + 64].tolist()
    )
    return "\n".join([_CSV_HEADER, *rows]) + "\n"


def _to_json(obj) -> str:
    """Fixed-format JSON: insertion-ordered keys, floats at 17 significant
    digits, non-finite floats as null."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "null"
        return _format_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_to_json(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_result_json(config: ExperimentConfig, record: RunRecord) -> str:
    payload = {
        "config": {
            "preset": config.preset,
            "emit_mode_shapes": config.emit_mode_shapes,
            "swarm": dataclasses.asdict(record.config),
        },
        "seed": record.config.seed,
        "converged_at": record.converged_at,
        "ranking": [
            {
                "model_id": entry.model_id,
                "d": entry.d,
                "fitness": entry.fitness,
                "position": list(entry.position),
            }
            for entry in record.ranking
        ],
        "failures": [
            {
                "iteration": f.iteration,
                "model_id": f.model_id,
                "reason": f.reason,
            }
            for f in record.failures
        ],
    }
    return _to_json(payload) + "\n"


def _write_atomic(path: Path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then move it into
    place: a reader sees the old file or the whole new one, never a part."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, newline="\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _shape_lines(first: int, frequencies: np.ndarray, shapes: np.ndarray) -> list[str]:
    """mode_shapes.csv rows of modes `first`, `first` + 1, ...: number,
    frequency, then the shape."""
    # Adding 0.0 turns every -0 cell into 0.
    table = np.column_stack([np.arange(first, first + len(shapes)), frequencies, shapes]) + 0.0
    row = "%d," + ",".join(["%.17g"] * (shapes.shape[1] + 1))  # as _CSV_ROW
    return [row % tuple(r) for r in table.tolist()]


def _write_mode_shapes(path: Path, evaluator: ModelEvaluator, record: RunRecord) -> None:
    """The first 13 M-orthonormal mode shapes of the winning model at its
    best position, one per row. Rows 1-6 are the evaluator's
    `rigid_modes` at 0 Hz, the same text for every run (`_shape_head`);
    rows 7-13 are the elastic pairs 7-13 of the mirror blocks, each signed
    so that its largest |component| (the first one on a tie) is positive.
    StructureError unless the spectrum shows six rigid-body modes."""
    best = record.ranking[0]
    model = next(m for m in model_catalog() if m.model_id == best.model_id)
    eigenvalues, blocks, vectors = evaluator.eigenpairs(model, best.position)
    free_free_result(eigenvalues)  # StructureError unless six rigid-body modes
    elastic = np.stack([evaluator._mode_maps[b] @ v for b, v in zip(blocks[6:13], vectors[6:13])])
    largest = elastic[np.arange(len(elastic)), np.abs(elastic).argmax(axis=1)]
    elastic[largest < 0.0] *= -1.0
    rows = _shape_lines(7, frequencies_from_eigenvalues(eigenvalues[6:13]), elastic)
    _write_atomic(path, "\n".join([evaluator._shape_head, *rows]) + "\n")


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Execute one full optimization and write convergence.csv plus
    result.json (and optionally mode_shapes.csv) into output_dir."""
    config.validate()
    evaluator = _default_evaluator()
    record = swarm_engine.run(config.swarm, _Screen(evaluator, config.swarm.objective_kind))

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_atomic(out / "convergence.csv", render_convergence_csv(record))
    _write_atomic(out / "result.json", render_result_json(config, record))
    if config.emit_mode_shapes:
        _write_mode_shapes(out / "mode_shapes.csv", evaluator, record)
    return record


def describe(
    what: str,
    model_id: int | None = None,
    position: Sequence[float] | np.ndarray | None = None,
) -> str:
    """Inspection dumps: 'geometry' (node/element JSON), 'catalog' (the
    eight model definitions), or 'modal' (frequency table CSV for one
    model, nominal stiffness unless a position is given)."""
    if what == "geometry":
        geometry = build_h_beam_geometry()
        payload = {
            "nodes": [[float(c) for c in node] for node in geometry.nodes],
            "elements": [
                {"id": e.element_id, "node_a": e.node_a, "node_b": e.node_b}
                for e in geometry.elements
            ],
            "joints": list(geometry.joints),
        }
        return _to_json(payload) + "\n"

    if what == "catalog":
        lines = ["model  d  element groups"]
        for model in model_catalog():
            groups = " | ".join(
                "{" + ",".join(str(i) for i in sorted(group)) + "}"
                for group in model.groups
            )
            lines.append(f"m{model.model_id}     {model.d}  {groups}")
        return "\n".join(lines) + "\n"

    if what == "modal":
        if model_id is None:
            raise ValueError("modal description needs a model id")
        catalog = {m.model_id: m for m in model_catalog()}
        if model_id not in catalog:
            raise ValueError(f"unknown model id {model_id}")
        model = catalog[model_id]
        if position is None:
            pos = np.zeros(5)
            pos[: model.d] = nominal_material().youngs_modulus_mean
        else:
            pos = np.asarray(position, dtype=float)

        result = _default_evaluator().spectrum(model, pos)
        lines = ["mode,frequency_hz,rigid_body"]
        for i, freq in enumerate(result.frequencies_hz):
            rigid = 1 if i < result.rigid_body_count else 0
            lines.append(f"{i + 1},{_format_number(float(freq))},{rigid}")
        return "\n".join(lines) + "\n"

    raise ValueError(f"unknown description target {what!r}")
