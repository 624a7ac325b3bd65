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
    element_modulus_vector,
    h_beam_section,
    measured_data,
    model_catalog,
    nominal_material,
)
from .fem import assemble, beam_element_matrices, element_dof_indices, transform_to_global
# `solve_generalized_eigen` is not called here (mode shapes come from the
# mirror blocks); the benchmark tracer patches it by this name.
from .modal import solve_generalized_eigen  # noqa: F401
from .modal import (
    RIGID_BODY_RATIO,
    ConvergenceError,
    EigenSolveError,
    ModalResult,
    free_free_frequencies,
    free_free_result,
    frequencies_from_eigenvalues,
    generalized_eigenvalues,
    mirror_eigenpairs,
    mirror_partners,
    mirror_standard_form,
    planar_standard_form,
    rigid_body_modes,
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
    emit_mode_shapes: bool = False,
) -> ExperimentConfig:
    """Standard settings for simulation 1-4: c1 = c2 = 2 everywhere, the
    objective and inertia mode as tabulated."""
    mode, kind = _preset_settings(simulation)
    cfg = ExperimentConfig(
        swarm=SwarmConfig(inertia_mode=mode, objective_kind=kind, seed=seed),
        preset=simulation,
        output_dir=Path(output_dir),
        emit_mode_shapes=emit_mode_shapes,
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
    except json.JSONDecodeError as exc:
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
    Only the class blocks and the maps are kept. A candidate's blocks are
    weighted sums of the class blocks (`_class_sums`), which fitness,
    `describe` (`spectrum`) and mode shapes (`eigenpairs`) all use; the
    spectrum is four standard eigenvalue solves of 16 or 23 DOFs, and a
    batch of candidates shares one eigenvalue call.

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

    # No run calls `stiffness`: the benchmark tracer patches it by this name,
    # and tests compare the dense reference at its K.
    def stiffness(self, moduli: np.ndarray) -> np.ndarray:
        """Full global K of this evaluator's frame at these element moduli,
        by `fem.assemble`, for the dense reference."""
        geometry, material, section = self._frame
        return assemble(geometry, moduli, material, section).k_global

    def _require_mirror(self, per_element: np.ndarray) -> None:
        """ValueError unless each row of (P, 12) per-element moduli or search
        dimensions agrees on every mirror pair, as the mirror split needs."""
        left, right = self._mirror_pairs.T
        differ = np.any(per_element[:, left] != per_element[:, right], axis=0)
        if np.any(differ):
            a, b = self._mirror_pairs[np.argmax(differ)] + 1
            raise ValueError(f"elements {a} and {b} are mirror partners and need one modulus")

    def _derive_plan(self, models: tuple[ModelSpec, ...]) -> tuple[np.ndarray, ...]:
        """Each model's d, and the (P, 9) flat indices into (P, 5) positions
        of its mirror classes' search dimensions, cached per tuple by
        `_plan`. A model whose groups split mirror partners raises
        ValueError at any position."""
        dims = np.stack([model.element_dims for model in models])
        self._require_mirror(dims)
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

    def _mirror_classes(self, moduli: np.ndarray) -> np.ndarray:
        """(1, 9) mirror-class moduli of 12 element moduli; ValueError
        unless they are finite and agree on every mirror pair."""
        moduli = np.asarray(moduli, dtype=float)[None]
        if not np.all(np.isfinite(moduli)):
            raise ValueError("element moduli must be finite")
        self._require_mirror(moduli)
        return moduli[:, self._classes]

    def spectrum(self, moduli: np.ndarray) -> ModalResult:
        """Free-free frequencies at these element moduli by the planar
        solve; StructureError unless six rigid-body modes appear."""
        eigenvalues, errors = self._eigenvalues(self._mirror_classes(moduli))
        if errors:
            raise errors[0]
        return free_free_result(eigenvalues[0])

    def eigenpairs(self, moduli: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """`mirror_eigenpairs` at these element moduli: the ascending
        eigenvalues, each one's block and its block eigenvector, which
        `_mode_maps[block] @ vector` makes an M-normalized mode shape.
        ValueError unless the moduli are finite and agree on every mirror
        pair.

        The blocks are summed at E / max|E| and the eigenvalues scaled back,
        so the solve sees one input at E and at any s E whose ratios round
        alike (equal moduli always do), and its vectors do not depend on the
        scale of the moduli. Summed at E, the sums, and LAPACK's rescaling
        of a block far from unit norm, would round differently at each
        scale."""
        class_moduli = self._mirror_classes(moduli)
        scale = np.abs(class_moduli).max() or 1.0
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
        # The six rigid modes lie below the top measured rank, so the columns
        # up to it count them; only an error needs the count of them all.
        frequencies, structure_errors = free_free_frequencies(eigenvalues[:, : self._ranks[-1] + 1])
        if structure_errors:
            structure_errors = free_free_frequencies(eigenvalues)[1]
        errors = {**structure_errors, **errors}
        r = residuals(self.measured, frequencies[:, self._ranks])
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
# Iterations of a window bracketed at once. malloc maps a block of 128 KB or
# more afresh, page faults and all, and a 16-iteration bracket's (9, 128, 32)
# ratios take 295 KB: 128 faults a call. Four iterations' take 74 KB.
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
    """

    def __init__(self, evaluator: ModelEvaluator, objective_kind: ObjectiveKind):
        self.evaluator = evaluator
        self.kind = objective_kind
        self.models: tuple[ModelSpec, ...] | None = None
        self._columns = np.concatenate([[6], evaluator._ranks])  # kept: index 6, the ranks
        self._measured = evaluator.measured.frequencies_hz[:, None]
        self._lam = (2.0 * np.pi * self._measured) ** 2

    def _start(self, models: tuple[ModelSpec, ...]) -> None:
        """Start a run of the particles `models`: their plan and empty rings."""
        self.models, self.plan = models, self.evaluator._plan(tuple(models))
        self._penalty = 2.0 * self.plan[0]
        # Field x particle x ring slot; fields: 9 class moduli, lam -/+ tau at
        # the kept columns, slack of a spectrum at most as high. Empty: nan.
        self.points = np.full((10 + 2 * len(self._columns), len(models), SCREEN_RING), math.nan)
        self.pushes = np.zeros(len(models), dtype=int)

    def __call__(self, models, positions, threshold):
        if models is not self.models:
            self._start(models)
        moduli = self.evaluator._class_moduli(positions, self.plan)
        threshold = np.asarray(threshold, dtype=float)
        values = np.full(len(moduli), math.inf)
        rows = np.flatnonzero(~self._cannot_improve(moduli, threshold))
        if not rows.size:
            return values, {}
        d = self.plan[0][rows % len(models)]
        score, errors, spectra = self.evaluator._score(moduli[rows], d, self.kind)
        values[rows] = score.value
        self._keep(rows, moduli[rows], spectra)
        return values, {int(rows[i]): error for i, error in errors.items()}

    def bracket(self, moduli: np.ndarray) -> tuple[np.ndarray, ...]:
        """Bounds (k, R) on the computed eigenvalues at the kept columns of
        (R, 9) class moduli, and the (R,) slack of their rigid ones. Row r
        is bracketed by the ring of particle r mod P."""
        if len(moduli) > (block := SCREEN_BLOCK * len(self.models)):
            parts = (self.bracket(moduli[i : i + block]) for i in range(0, len(moduli), block))
            return tuple(np.concatenate(part, axis=-1) for part in zip(*parts))
        k = len(self._columns)
        # One empty (nan) slot at least: a call before any solve bounds nothing.
        points = self.points[..., None, :, : min(max(self.pushes.max(), 1), SCREEN_RING)]
        # Rows as (9, windows, P, 1) against rings as (9, 1, P, slots).
        rows = moduli.reshape(-1, len(self.models), 9).transpose(2, 0, 1)[..., None]
        ratio = rows / points[:9]
        alpha, beta = ratio.min(axis=0), ratio.max(axis=0)
        slack = beta * points[-1]
        low = alpha * points[9 : 9 + k] - slack
        high = beta * points[9 + k : 9 + 2 * k] + slack
        # fmax and fmin skip nan: empty slots and failed rows bound nothing.
        low, high = np.fmax.reduce(low, axis=3), np.fmin.reduce(high, axis=3)
        return low.reshape(k, -1), high.reshape(k, -1), np.fmin.reduce(slack, axis=2).ravel()

    def _cannot_improve(self, moduli, threshold) -> np.ndarray:
        """Which rows of (k P, 9) class moduli are proven unable to beat
        their particle's entry of the (P,) thresholds."""
        if np.isnan(threshold).all():  # no particle has scored: nothing to bound
            return np.zeros(len(moduli), dtype=bool)
        low, high, slack = self.bracket(moduli)
        lam = np.minimum(np.maximum(self._lam, low[1:]), high[1:])
        # Nan brackets (no point kept) give nan sums, which skip nothing.
        r = np.where(lam != self._lam, self._measured - frequencies_from_eigenvalues(lam), 0.0)
        total = (r * r).sum(axis=0).reshape(-1, len(threshold))
        limit = threshold + SCREEN_MARGIN * np.maximum(1.0, np.abs(threshold))
        if self.kind == "AIC":
            n = len(r)
            total = np.maximum(total, n * SIGMA_SQ_FLOOR)
            limit = n * np.exp((limit - self._penalty) / n)
        else:
            limit = 2.0 * limit
        # Rigid eigenvalues lie within `slack` of 0, lam_6 above low[0]: six.
        return (total > limit).ravel() & (slack < RIGID_BODY_RATIO * low[0])

    def _keep(self, rows, moduli, spectra) -> None:
        """Push the solved rows into their particles' rings in row order. A
        point brackets a row of any model, so the first batch fills every
        ring."""
        lam, tau = spectra[:, self._columns], SCREEN_SLACK * spectra[:, -1:]
        fields = (moduli, lam - tau, lam + tau, SCREEN_SLACK * (spectra[:, -1:] + tau))
        point = np.concatenate(fields, axis=1).T
        if not self.pushes.any():
            self.points[..., : len(rows)] = point[:, None]
            self.pushes[:] = len(rows)
        else:
            # A window may solve a particle once per iteration, so each row
            # takes the slot after the particle's previous row.
            particles, pushes, slots = rows % len(self.pushes), self.pushes.tolist(), []
            for i in particles.tolist():
                slots.append(pushes[i] % SCREEN_RING)
                pushes[i] += 1
            self.points[:, particles, slots] = point
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


def _write_mode_shapes(path: Path, evaluator: ModelEvaluator, record: RunRecord) -> None:
    """The first 13 M-orthonormal mode shapes of the winning model at its
    best position, one per row. Rows 1-6 are the evaluator's
    `rigid_modes` at 0 Hz; rows 7-13 are the elastic pairs 7-13 of the
    mirror blocks, each signed so that its largest |component| (the first
    one on a tie) is positive. StructureError unless the spectrum shows
    six rigid-body modes."""
    best = record.ranking[0]
    model = next(m for m in model_catalog() if m.model_id == best.model_id)
    moduli = element_modulus_vector(model, np.asarray(best.position))
    eigenvalues, blocks, vectors = evaluator.eigenpairs(moduli)
    free_free_result(eigenvalues)  # StructureError unless six rigid-body modes
    elastic = np.stack([evaluator._mode_maps[b] @ v for b, v in zip(blocks[6:13], vectors[6:13])])
    largest = elastic[np.arange(len(elastic)), np.abs(elastic).argmax(axis=1)]
    elastic[largest < 0.0] *= -1.0
    frequencies = np.concatenate([np.zeros(6), frequencies_from_eigenvalues(eigenvalues[6:13])])
    shapes = np.vstack([evaluator.rigid_modes, elastic])
    # Adding 0.0 turns every -0 cell into 0.
    table = np.column_stack([np.arange(1, 14), frequencies, shapes]) + 0.0
    n = shapes.shape[1]
    header = "mode,frequency_hz," + ",".join(f"phi_{i}" for i in range(1, n + 1))
    row = "%d," + ",".join(["%.17g"] * (n + 1))  # as _CSV_ROW
    _write_atomic(path, "\n".join([header, *(row % tuple(r) for r in table.tolist())]) + "\n")


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

        result = _default_evaluator().spectrum(element_modulus_vector(model, pos))
        lines = ["mode,frequency_hz,rigid_body"]
        for i, freq in enumerate(result.frequencies_hz):
            rigid = 1 if i < result.rigid_body_count else 0
            lines.append(f"{i + 1},{_format_number(float(freq))},{rigid}")
        return "\n".join(lines) + "\n"

    raise ValueError(f"unknown description target {what!r}")
