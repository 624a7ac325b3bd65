"""Experiment orchestration: presets, config files, and run artifacts.

Wires the FE fitness pipeline into the swarm, exposes the four standard
simulation presets, and writes a convergence trace plus a final ranking
to disk with byte-stable formatting (identical config and seed always
reproduce identical files).
"""

from __future__ import annotations

import dataclasses
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
    BeamGeometry,
    CrossSection,
    Material,
    MeasuredData,
    ModelSpec,
    build_h_beam_geometry,
    element_modulus_vector,
    h_beam_section,
    measured_data,
    model_catalog,
    nominal_material,
)
# `assemble` is not called here; the benchmark tracer patches it by this
# name, so it stays importable from this module.
from .fem import (  # noqa: F401
    assemble,
    beam_element_matrices,
    element_dof_indices,
    transform_to_global,
)
from .modal import (
    ConvergenceError,
    EigenSolveError,
    ModalResult,
    free_free_frequencies,
    free_free_result,
    frequencies_from_eigenvalues,
    generalized_eigenvalues,
    planar_standard_form,
    solve_generalized_eigen,
)
from .objective import ObjectiveKind, ObjectiveValue, aic, residuals, sse
from .records import RunRecord
from .swarm import SwarmConfig
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


@dataclass(frozen=True)
class ExperimentConfig:
    swarm: SwarmConfig
    preset: int | None = None
    output_dir: Path = Path("runs")
    emit_mode_shapes: bool = False

    def validate(self) -> None:
        if self.preset is not None:
            if isinstance(self.preset, bool) or self.preset not in PRESETS:
                raise ConfigValidationError("preset", f"unknown preset {self.preset}")
            mode, kind = PRESETS[self.preset]
            if self.swarm.inertia_mode != mode:
                raise ConfigValidationError(
                    "inertia_mode",
                    f"preset {self.preset} requires inertia_mode={mode!r}, "
                    f"got {self.swarm.inertia_mode!r}",
                )
            if self.swarm.objective_kind != kind:
                raise ConfigValidationError(
                    "objective_kind",
                    f"preset {self.preset} requires objective_kind={kind!r}, "
                    f"got {self.swarm.objective_kind!r}",
                )
        try:
            self.swarm.validate()
        except ValueError as exc:
            key = str(exc).split()[0]
            raise ConfigValidationError(key, str(exc)) from exc


def preset_config(
    simulation: int,
    seed: int = 0,
    output_dir: str | Path = Path("runs"),
    emit_mode_shapes: bool = False,
) -> ExperimentConfig:
    """Standard settings for simulation 1-4: c1 = c2 = 2 everywhere, the
    objective and inertia mode as tabulated."""
    if simulation not in PRESETS:
        raise ConfigValidationError("preset", f"unknown preset {simulation}")
    mode, kind = PRESETS[simulation]
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
        if isinstance(preset, bool) or not isinstance(preset, int) or preset not in PRESETS:
            raise ConfigValidationError("preset", f"unknown preset {preset}")
        mode, kind = PRESETS[preset]
        if kwargs.setdefault("inertia_mode", mode) != mode:
            raise ConfigValidationError(
                "inertia_mode", f"preset {preset} fixes inertia_mode={mode!r}"
            )
        if kwargs.setdefault("objective_kind", kind) != kind:
            raise ConfigValidationError(
                "objective_kind", f"preset {preset} fixes objective_kind={kind!r}"
            )
    if "seed" in data:
        if "seed" in swarm_data and swarm_data["seed"] != data["seed"]:
            raise ConfigValidationError("seed", "seed given twice with different values")
        kwargs["seed"] = data["seed"]

    try:
        swarm_config = SwarmConfig(**kwargs)
    except TypeError as exc:
        raise ConfigValidationError("swarm", str(exc)) from exc

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
    """Fitness pipeline with the expensive parts hoisted out of the loop.

    The global stiffness is linear in each element modulus (shear modulus
    scales with E at fixed Poisson ratio), so one unit-modulus stiffness
    per element is precomputed and a candidate's K is a weighted sum of
    the stack. The mass matrix never changes, so the unit stiffnesses are
    also kept split into planar halves and whitened by the mass factors
    (`planar_standard_form`); a candidate's spectrum is then a weighted
    sum of that stack and two half-size standard eigenvalue solves. A
    batch of candidates shares one eigenvalue call.
    """

    def __init__(
        self,
        geometry: BeamGeometry | None = None,
        material: Material | None = None,
        section: CrossSection | None = None,
        measured: MeasuredData | None = None,
    ):
        self.geometry = geometry if geometry is not None else build_h_beam_geometry()
        self.material = material if material is not None else nominal_material()
        self.section = section if section is not None else h_beam_section()
        self.measured = measured if measured is not None else measured_data()

        n = self.geometry.n_dofs
        if max(self.measured.mode_indices) > n:
            raise ValueError(f"need at least {max(self.measured.mode_indices)} modes, got {n}")
        stack = np.zeros((ELEMENT_COUNT, n, n))
        # The mass does not depend on the modulus; summed in element order
        # it equals `assemble(...).m_global` exactly.
        m_global = np.zeros((n, n))
        unit_shear = self.material.shear_modulus(1.0)
        for element in self.geometry.elements:
            local = beam_element_matrices(
                E=1.0,
                G=unit_shear,
                section=self.section,
                density=self.material.density,
                length=self.geometry.element_length(element),
            )
            global_mats = transform_to_global(local, element.frame)
            dofs = element_dof_indices(element.node_a, element.node_b)
            idx = np.ix_(dofs, dofs)
            stack[element.element_id - 1][idx] = global_mats.stiffness
            m_global[idx] += global_mats.mass
        self._unit_stiffness = stack
        self.m_global = m_global
        self._whitened_stiffness = planar_standard_form(stack, m_global)
        self._ranks = np.asarray(self.measured.mode_indices) - 1

    def stiffness(self, moduli: np.ndarray) -> np.ndarray:
        """Full global K, for the dense reference and mode shapes."""
        return np.tensordot(moduli, self._unit_stiffness, axes=1)

    def _eigenvalues(self, moduli: np.ndarray) -> tuple[np.ndarray, dict[int, EigenSolveError]]:
        """Ascending planar spectra of (P, 12) element moduli, one row each,
        from one eigenvalue call; nan rows for the errors returned."""
        if not np.all(np.isfinite(moduli)):
            raise ValueError("element moduli must be finite")
        whitened = self._whitened_stiffness
        flat = whitened.reshape(ELEMENT_COUNT, -1)
        blocks = np.empty((len(moduli), flat.shape[1]))
        # One vector-matrix product per row: a single (P, 12) @ (12, N)
        # product rounds differently, and scores must not depend on P.
        for i, row in enumerate(moduli):
            blocks[i] = row @ flat
        blocks = blocks.reshape(len(moduli), *whitened.shape[1:])
        try:
            return generalized_eigenvalues(blocks), {}
        except ConvergenceError:
            pass
        # One failed block fails the whole stack: solve each pair again to
        # charge the failure to its own row.
        eigenvalues = np.full((len(moduli), 2 * whitened.shape[-1]), math.nan)
        errors: dict[int, EigenSolveError] = {}
        for i, pair in enumerate(blocks):
            try:
                eigenvalues[i] = generalized_eigenvalues(pair)
            except ConvergenceError as exc:
                errors[i] = exc
        return eigenvalues, errors

    def spectrum(self, moduli: np.ndarray) -> ModalResult:
        """Free-free frequencies at these element moduli by the planar
        solve; StructureError unless six rigid-body modes appear."""
        eigenvalues, errors = self._eigenvalues(np.asarray(moduli, dtype=float)[None])
        if errors:
            raise errors[0]
        return free_free_result(eigenvalues[0])

    def evaluate_batch(
        self,
        models: Sequence[ModelSpec],
        positions: np.ndarray,
        objective_kind: ObjectiveKind,
    ) -> tuple[ObjectiveValue, dict[int, EigenSolveError]]:
        """Score row i of the (P, 5) positions as models[i]: element
        moduli -> whitened K blocks -> eigenvalues -> measured-rank
        frequencies -> residuals -> objective, with one eigenvalue call
        for all rows. Returns the scores as (P,) arrays and the
        eigensolver error of each failed row, whose score is nan. Invalid
        positions raise ValueError. A row's score does not depend on the
        other rows."""
        positions = np.asarray(positions, dtype=float)
        if positions.shape != (len(models), SEARCH_DIMS):
            raise ValueError(f"positions must have shape ({len(models)}, {SEARCH_DIMS})")
        d = np.array([model.d for model in models])
        if np.any(positions[np.arange(SEARCH_DIMS) < d[:, None]] <= 0.0):
            raise ValueError("active position dimensions must be positive moduli")
        element_dims = np.stack([model.element_dims for model in models])
        moduli = np.take_along_axis(positions, element_dims, axis=1)

        eigenvalues, errors = self._eigenvalues(moduli)
        frequencies, structure_errors = free_free_frequencies(eigenvalues)
        errors = {**structure_errors, **errors}
        r = residuals(self.measured, frequencies[:, self._ranks])
        score = aic(r, d) if objective_kind == "AIC" else sse(r, d)
        if errors:
            failed = list(errors)
            score.value[failed] = math.nan
            score.sigma_squared[failed] = math.nan
        return score, errors

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


_shared_evaluator: ModelEvaluator | None = None


def _default_evaluator() -> ModelEvaluator:
    global _shared_evaluator
    if _shared_evaluator is None:
        _shared_evaluator = ModelEvaluator()
    return _shared_evaluator


def evaluate_model(
    model: ModelSpec,
    position: np.ndarray,
    objective_kind: ObjectiveKind = "AIC",
) -> ObjectiveValue:
    """Score one candidate on the standard structure and measured data."""
    return _default_evaluator().evaluate(model, position, objective_kind)


def _format_number(value: float) -> str:
    """17 significant digits: enough to round-trip a double exactly, so
    files are byte-stable across runs."""
    return f"{value:.17g}"


_CSV_HEADER = (
    "iteration,w,gbest_model,gbest_fitness,"
    + ",".join(f"fit_m{i}" for i in range(1, 9))
    + ","
    + ",".join(f"pos_m{i}_{j}" for i in range(1, 9) for j in range(1, 6))
)


def render_convergence_csv(record: RunRecord) -> str:
    lines = [_CSV_HEADER]
    for row in record.rows:
        parts = [
            str(row.iteration),
            _format_number(row.w),
            str(row.gbest_model_id),
            _format_number(row.gbest_fitness),
        ]
        parts.extend(_format_number(v) for v in row.model_fitness)
        for position in row.positions:
            parts.extend(_format_number(x) for x in position)
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"


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
    if isinstance(obj, Path):
        return json.dumps(str(obj))
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
    """Eigenvectors of the winning model at its best position, first 13
    modes, one mode per row."""
    best = record.ranking[0]
    model = next(m for m in model_catalog() if m.model_id == best.model_id)
    moduli = element_modulus_vector(model, np.asarray(best.position))
    k = evaluator.stiffness(moduli)
    eigenvalues, eigenvectors = solve_generalized_eigen(k, evaluator.m_global)
    frequencies = frequencies_from_eigenvalues(eigenvalues)

    n_modes = min(13, len(frequencies))
    n_dofs = eigenvectors.shape[0]
    header = "mode,frequency_hz," + ",".join(f"phi_{i}" for i in range(1, n_dofs + 1))
    lines = [header]
    for mode in range(n_modes):
        parts = [str(mode + 1), _format_number(float(frequencies[mode]))]
        parts.extend(_format_number(float(x)) for x in eigenvectors[:, mode])
        lines.append(",".join(parts))
    _write_atomic(path, "\n".join(lines) + "\n")


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Execute one full optimization and write convergence.csv plus
    result.json (and optionally mode_shapes.csv) into output_dir."""
    config.validate()
    evaluator = ModelEvaluator()
    kind = config.swarm.objective_kind

    def fitness(models, positions):
        score, errors = evaluator.evaluate_batch(models, positions, kind)
        return score.value, errors

    record = swarm_engine.run(config.swarm, fitness)

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
