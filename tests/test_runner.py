import argparse
import contextlib
import dataclasses
import io
import json
import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NOMINAL_AIC, NOMINAL_SIGMA_SQUARED, NOMINAL_SSE, rigid_body_basis
from femselect import cli, runner
from femselect.beam_structure import ModelSpec, element_modulus_vector, model_catalog
from femselect.cli import main
from femselect.fem import assemble
from femselect.modal import (
    ConvergenceError,
    StructureError,
    frequencies_from_eigenvalues,
    generalized_eigenvalues,
    planar_dof_split,
    rigid_body_count,
    solve_generalized_eigen,
)
from femselect.objective import aic, residuals, sse
from femselect.runner import (
    PRESETS,
    ConfigNotFoundError,
    ConfigParseError,
    ConfigValidationError,
    ExperimentConfig,
    ModelEvaluator,
    describe,
    evaluate_model,
    load_config,
    preset_config,
    render_convergence_csv,
    run_experiment,
)
from femselect import swarm
from femselect.swarm import RngStream, SwarmConfig, best_first


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def tiny_config(tmp_path, n_iterations=6, seed=0, **swarm):
    swarm_data = {"n_iterations": n_iterations, **swarm}
    return ExperimentConfig(
        swarm=SwarmConfig(seed=seed, **swarm_data),
        output_dir=tmp_path / "out",
    )


class TestPresets:
    def test_mapping(self):
        assert PRESETS == {
            1: ("none", "AIC"),
            2: ("none", "SSE"),
            3: ("adaptive", "AIC"),
            4: ("adaptive", "SSE"),
        }

    @pytest.mark.parametrize("simulation", [1, 2, 3, 4])
    def test_preset_config(self, simulation, tmp_path):
        config = preset_config(simulation, seed=11, output_dir=tmp_path)
        mode, kind = PRESETS[simulation]
        assert config.preset == simulation
        assert config.swarm.inertia_mode == mode
        assert config.swarm.objective_kind == kind
        assert config.swarm.c1 == 2.0 and config.swarm.c2 == 2.0
        assert config.swarm.n_iterations == 500
        assert config.swarm.seed == 11
        assert config.output_dir == tmp_path

    def test_unknown_simulation(self):
        with pytest.raises(ConfigValidationError) as excinfo:
            preset_config(5)
        assert excinfo.value.key == "preset"

    def test_float_preset_rejected(self):
        config = ExperimentConfig(swarm=SwarmConfig(inertia_mode="none"), preset=1.0)
        for check in (config.validate, lambda: preset_config(1.0)):
            with pytest.raises(ConfigValidationError) as excinfo:
                check()
            assert excinfo.value.key == "preset"


class TestLoadConfig:
    def test_minimal_preset_file(self, tmp_path):
        path = write_config(tmp_path, {"preset": 3, "seed": 5})
        config = load_config(path)
        assert config.preset == 3
        assert config.swarm.inertia_mode == "adaptive"
        assert config.swarm.objective_kind == "AIC"
        assert config.swarm.seed == 5
        assert config.output_dir.name == "runs"
        assert config.emit_mode_shapes is False

    def test_explicit_swarm_fields(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "output_dir": "elsewhere",
                "emit_mode_shapes": True,
                "swarm": {
                    "inertia_mode": "none",
                    "objective_kind": "SSE",
                    "n_iterations": 60,
                    "c1": 1.5,
                    "seed": 9,
                },
            },
        )
        config = load_config(path)
        assert config.preset is None
        assert config.swarm.n_iterations == 60
        assert config.swarm.c1 == 1.5
        assert config.swarm.seed == 9
        assert config.output_dir.name == "elsewhere"
        assert config.emit_mode_shapes is True

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigNotFoundError):
            load_config(tmp_path / "nope.json")

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigParseError):
            load_config(path)

    @pytest.mark.parametrize(
        "text", ["[" * 100000 + "]" * 100000, '{"seed": ' + "7" * 5000 + "}", b"{\xff}"]
    )
    def test_every_failure_to_load_the_json_names_the_file(self, tmp_path, text):
        # Past the recursion limit, past int()'s digit limit and in bytes
        # that are not UTF-8, loading raises no JSONDecodeError.
        path = tmp_path / "broken.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(ConfigParseError) as excinfo:
            load_config(path)
        assert str(excinfo.value).startswith(f"{path}: ")

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigParseError):
            load_config(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, {"preset": 1, "spam": 1})
        with pytest.raises(ConfigValidationError) as excinfo:
            load_config(path)
        assert excinfo.value.key == "spam"

    def test_unknown_swarm_key(self, tmp_path):
        path = write_config(tmp_path, {"swarm": {"velocity_cap": 1}})
        with pytest.raises(ConfigValidationError) as excinfo:
            load_config(path)
        assert excinfo.value.key == "velocity_cap"

    def test_invalid_value_names_field(self, tmp_path):
        path = write_config(tmp_path, {"swarm": {"c1": -1.0}})
        with pytest.raises(ConfigValidationError) as excinfo:
            load_config(path)
        assert excinfo.value.key == "c1"

    def test_preset_contradiction_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"preset": 1, "swarm": {"inertia_mode": "adaptive"}}
        )
        with pytest.raises(ConfigValidationError) as excinfo:
            load_config(path)
        assert excinfo.value.key == "inertia_mode"

    def test_preset_objective_contradiction_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"preset": 1, "swarm": {"objective_kind": "SSE"}}
        )
        with pytest.raises(ConfigValidationError) as excinfo:
            load_config(path)
        assert excinfo.value.key == "objective_kind"

    def test_preset_restating_matching_values_ok(self, tmp_path):
        path = write_config(
            tmp_path,
            {"preset": 2, "swarm": {"inertia_mode": "none", "objective_kind": "SSE"}},
        )
        config = load_config(path)
        assert config.preset == 2

    def test_bad_preset_value(self, tmp_path):
        for bad in (7, "3"):
            path = write_config(tmp_path, {"preset": bad})
            with pytest.raises(ConfigValidationError) as excinfo:
                load_config(path)
            assert excinfo.value.key == "preset"

    def test_seed_conflict(self, tmp_path):
        path = write_config(tmp_path, {"seed": 1, "swarm": {"seed": 2}})
        with pytest.raises(ConfigValidationError) as excinfo:
            load_config(path)
        assert excinfo.value.key == "seed"

    def test_seed_agreement_ok(self, tmp_path):
        path = write_config(tmp_path, {"seed": 4, "swarm": {"seed": 4}})
        assert load_config(path).swarm.seed == 4

    def test_boolean_preset_rejected(self, tmp_path):
        path = write_config(tmp_path, {"preset": True})
        with pytest.raises(ConfigValidationError) as excinfo:
            load_config(path)
        assert excinfo.value.key == "preset"

    def test_string_iteration_count_rejected(self, tmp_path):
        path = write_config(tmp_path, {"swarm": {"n_iterations": "5"}})
        with pytest.raises(ConfigValidationError) as excinfo:
            load_config(path)
        assert excinfo.value.key == "n_iterations"

    def test_fractional_seed_rejected(self, tmp_path):
        path = write_config(tmp_path, {"seed": 1.5})
        with pytest.raises(ConfigValidationError) as excinfo:
            load_config(path)
        assert excinfo.value.key == "seed"

    def test_infinite_init_std_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"swarm": {"init_std": Infinity}}')
        with pytest.raises(ConfigValidationError) as excinfo:
            load_config(path)
        assert excinfo.value.key == "init_std"

    def test_nan_coefficient_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"swarm": {"c1": NaN}}')
        with pytest.raises(ConfigValidationError) as excinfo:
            load_config(path)
        assert excinfo.value.key == "c1"

    def test_output_dir_must_be_string(self, tmp_path):
        path = write_config(tmp_path, {"output_dir": 7})
        with pytest.raises(ConfigValidationError) as excinfo:
            load_config(path)
        assert excinfo.value.key == "output_dir"

    def test_emit_mode_shapes_must_be_boolean(self, tmp_path):
        path = write_config(tmp_path, {"emit_mode_shapes": 1})
        with pytest.raises(ConfigValidationError) as excinfo:
            load_config(path)
        assert excinfo.value.key == "emit_mode_shapes"


class TestEvaluateModel:
    def test_deterministic(self, catalog):
        position = np.array([6.3e10, 7.1e10, 0.0, 0.0, 0.0])
        a = evaluate_model(catalog[1], position, "AIC")
        b = evaluate_model(catalog[1], position, "AIC")
        assert a.value == b.value

    # Goldens from the 40-digit reference (conftest). Tolerances are above
    # the larger measured error of the two float64 paths: SSE 7.7e-13
    # planar and 1.5e-12 dense, AIC 1.5e-13 planar and 3.0e-13 dense.
    def test_sse_golden_at_nominal(self, catalog):
        out = evaluate_model(catalog[0], np.full(5, 7.2e10), "SSE")
        assert out.value == pytest.approx(NOMINAL_SSE, rel=5e-12)
        assert out.sigma_squared == pytest.approx(NOMINAL_SIGMA_SQUARED, rel=5e-12)

    def test_aic_golden_at_nominal(self, catalog):
        out = evaluate_model(catalog[0], np.full(5, 7.2e10), "AIC")
        assert out.value == pytest.approx(NOMINAL_AIC, rel=1e-12)

    def test_parameter_penalty_separates_nested_models(self, catalog):
        uniform = np.full(5, 7.2e10)
        lean = evaluate_model(catalog[0], uniform, "AIC")
        rich = evaluate_model(catalog[4], uniform, "AIC")
        # same stiffness field, four extra parameters
        assert rich.value - lean.value == 8.0
        same_sse_lean = evaluate_model(catalog[0], uniform, "SSE")
        same_sse_rich = evaluate_model(catalog[4], uniform, "SSE")
        assert same_sse_lean.value == same_sse_rich.value

    def test_inactive_dimensions_never_reach_fitness(self, catalog):
        base = np.array([6.8e10, 6.1e10, 0.0, 0.0, 0.0])
        junk = np.array([6.8e10, 6.1e10, 3.3e3, -9.9e12, float(np.pi)])
        a = evaluate_model(catalog[1], base, "AIC")
        b = evaluate_model(catalog[1], junk, "AIC")
        assert a == b

    def test_stiffer_structure_moves_frequencies_up(self, catalog):
        soft = evaluate_model(catalog[0], np.full(5, 5.5e10), "SSE")
        stiff = evaluate_model(catalog[0], np.full(5, 7.5e10), "SSE")
        assert soft.value != stiff.value


# Position values in an active dimension that every candidate path rejects,
# with the message each one gives.
FINITE = "element moduli must be finite"
POSITIVE = "active position dimensions must be positive moduli"
BAD_VALUES = [(math.nan, FINITE), (math.inf, FINITE), (0.0, POSITIVE), (-7.2e10, POSITIVE)]
# Elements 2 and 3 are mirror partners; no catalog model splits them.
MIRROR_SPLIT = ModelSpec(9, (frozenset({2}), frozenset(set(range(1, 13)) - {2})), 2)


class TestModelEvaluator:
    def test_mass_equals_assembled_mass(self, evaluator, geometry, material, section):
        direct = assemble(geometry, np.full(12, 6.4e10), material, section)
        assert np.array_equal(evaluator.m_global, direct.m_global)

    def test_mass_independent_of_moduli(self):
        evaluator = ModelEvaluator()
        m_copy = evaluator.m_global.copy()
        evaluator.stiffness(np.full(12, 6.0e10))
        np.testing.assert_array_equal(evaluator.m_global, m_copy)

    def test_shared_evaluator_is_read_only(self):
        evaluator = runner._default_evaluator()
        with pytest.raises(ValueError, match="read-only"):
            evaluator.m_global[0, 0] = 1.0
        for array in (*evaluator._mirror_blocks, *evaluator._mode_maps, evaluator._ranks):
            assert not array.flags.writeable

    @pytest.mark.parametrize(
        "model, value, message",
        [
            *((model_catalog()[4], value, message) for value, message in BAD_VALUES),
            (MIRROR_SPLIT, 7.2e10, "elements 2 and 3 are mirror partners and need one modulus"),
        ],
        ids=["nan", "inf", "zero", "negative", "mirror_split"],
    )
    def test_every_candidate_path_rejects_alike(self, evaluator, model, value, message):
        # Fitness, `describe` and mode shapes share one validator: the same
        # candidate fails each of them with the same text. The last case is
        # a valid position of a model that splits a mirror pair.
        position = np.full(5, 7.2e10)
        position[4] = value  # active for model 5
        calls = (
            lambda: evaluator.evaluate(model, position, "AIC"),
            lambda: evaluator.spectrum(model, position),
            lambda: evaluator.eigenpairs(model, position),
        )
        for call in calls:
            with pytest.raises(ValueError) as excinfo:
                call()
            assert str(excinfo.value) == message


def in_bound_positions(seed: int, n: int = 8) -> np.ndarray:
    return np.random.default_rng(seed).uniform(5.5e10, 7.5e10, (n, 5))


class FailingEigvalsh:
    """Stands in for `np.linalg.eigvalsh`: a call on a stack that has a row
    `bad_row` raises LinAlgError, and so does a later call on the blocks
    that row had in that stack; every other call is solved as usual."""

    def __init__(self, bad_row: int):
        self.real = np.linalg.eigvalsh
        self.bad_row = bad_row
        self.bad_blocks = None
        self.stack_rows = []

    def __call__(self, blocks):
        if blocks.ndim == 4 and -len(blocks) <= self.bad_row < len(blocks):
            self.stack_rows.append(len(blocks))
            self.bad_blocks = blocks[self.bad_row].copy()
            raise np.linalg.LinAlgError("stack did not converge")
        if self.bad_blocks is not None and np.array_equal(blocks, self.bad_blocks):
            raise np.linalg.LinAlgError(f"row {self.bad_row} did not converge")
        return self.real(blocks)


def row_by_row_score(evaluator, model, position, kind):
    """One candidate's score built step by step, one vector-matrix
    product per mirror stack: the reference the batched path must equal."""
    moduli = element_modulus_vector(model, position)[evaluator._classes]
    blocks = tuple(
        (moduli @ stack.reshape(len(stack), -1)).reshape(stack.shape[1:])
        for stack in evaluator._mirror_blocks
    )
    eigenvalues = generalized_eigenvalues(blocks)
    assert rigid_body_count(eigenvalues) == 6
    r = residuals(evaluator.measured, frequencies_from_eigenvalues(eigenvalues)[evaluator._ranks])
    return aic(r, model.d) if kind == "AIC" else sse(r, model.d)


class TestEvaluateBatch:
    @pytest.mark.parametrize("kind", ["AIC", "SSE"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_equal_scalar_evaluate_bit_for_bit(self, evaluator, catalog, kind, seed):
        for rows in (slice(None), slice(2, 5)):  # P = 8 and P = 3
            models, positions = catalog[rows], in_bound_positions(seed)[rows]
            batch, errors = evaluator.evaluate_batch(models, positions, kind)
            assert errors == {}
            for i, (model, position) in enumerate(zip(models, positions)):
                scalar = evaluator.evaluate(model, position, kind)
                single, _ = evaluator.evaluate_batch((model,), position[None], kind)
                assert batch.value[i] == scalar.value == single.value[0]
                assert batch.sigma_squared[i] == scalar.sigma_squared

    @pytest.mark.parametrize("n_rows", [1, 3, 8])
    def test_stacked_products_equal_row_products(self, evaluator, catalog, monkeypatch, n_rows):
        solved = []
        real = runner.generalized_eigenvalues
        monkeypatch.setattr(runner, "generalized_eigenvalues", lambda b: solved.append(b) or real(b))
        models = catalog[8 - n_rows :]
        positions = in_bound_positions(n_rows, n_rows)
        evaluator.evaluate_batch(models, positions, "AIC")
        (stacks,) = solved
        assert len(stacks) == len(evaluator._mirror_blocks) == 2
        for stack, blocks in zip(stacks, evaluator._mirror_blocks):
            flat = blocks.reshape(len(blocks), -1)
            for row, model, position in zip(stack, models, positions):
                moduli = position[model.element_dims[evaluator._classes]]
                assert np.array_equal(row, (moduli @ flat).reshape(blocks.shape[1:]))

    @pytest.mark.parametrize("kind", ["AIC", "SSE"])
    @pytest.mark.parametrize("seed", range(5))
    def test_batch_equals_row_by_row_reference(self, evaluator, catalog, kind, seed):
        positions = in_bound_positions(10 + seed)
        batch, errors = evaluator.evaluate_batch(catalog, positions, kind)
        assert errors == {}
        for i, (model, position) in enumerate(zip(catalog, positions)):
            reference = row_by_row_score(evaluator, model, position, kind)
            assert batch.value[i] == reference.value
            assert batch.sigma_squared[i] == reference.sigma_squared

    def test_rejects_a_model_that_breaks_the_mirror(self, evaluator):
        with pytest.raises(ValueError, match="elements 2 and 3"):
            evaluator.evaluate_batch((MIRROR_SPLIT,), in_bound_positions(0, 1), "AIC")
        # The groups decide, not the values: equal moduli on the split too.
        with pytest.raises(ValueError, match="elements 2 and 3"):
            evaluator.evaluate_batch((MIRROR_SPLIT,), np.full((1, 5), 7.0e10), "AIC")

    def test_rejects_invalid_positions(self, evaluator, catalog):
        positions = in_bound_positions(0)
        with pytest.raises(ValueError):
            evaluator.evaluate_batch(catalog, positions[:, :4], "AIC")
        bad = positions.copy()
        bad[4, 4] = 0.0  # active for model 5
        with pytest.raises(ValueError, match="positive"):
            evaluator.evaluate_batch(catalog, bad, "AIC")
        bad[4, 4] = math.inf
        with pytest.raises(ValueError, match="finite"):
            evaluator.evaluate_batch(catalog, bad, "AIC")

    def test_rejects_a_window(self, evaluator, catalog):
        # A batch is one iteration: the (k, P, 5) window of a fitness call
        # is the screen's to take, not the batch's.
        window = in_bound_positions(0, 2 * 8).reshape(2, 8, 5)
        with pytest.raises(ValueError) as excinfo:
            evaluator.evaluate_batch(catalog, window, "AIC")
        assert str(excinfo.value) == "positions must have shape (8, 5)"

    def test_stack_failure_is_charged_to_its_row(self, evaluator, catalog, monkeypatch):
        positions = in_bound_positions(3)
        expected, _ = evaluator.evaluate_batch(catalog, positions, "AIC")
        monkeypatch.setattr(np.linalg, "eigvalsh", FailingEigvalsh(3))
        score, errors = evaluator.evaluate_batch(catalog, positions, "AIC")
        assert list(errors) == [3]
        assert isinstance(errors[3], ConvergenceError)
        assert math.isnan(score.value[3])
        others = [i for i in range(8) if i != 3]
        assert np.array_equal(score.value[others], expected.value[others])
        # a single evaluation raises its row's error
        monkeypatch.setattr(np.linalg, "eigvalsh", FailingEigvalsh(0))
        with pytest.raises(ConvergenceError, match="row 0"):
            evaluator.evaluate(catalog[3], positions[3], "AIC")

    def test_structure_failure_is_charged_to_its_row(self, evaluator, catalog, monkeypatch):
        real = runner.generalized_eigenvalues

        def lift_row_5(blocks):
            eigenvalues = real(blocks)
            eigenvalues[5] += 1.0e6  # no rigid-body cluster left
            return eigenvalues

        positions = in_bound_positions(4)
        expected, _ = evaluator.evaluate_batch(catalog, positions, "SSE")
        monkeypatch.setattr(runner, "generalized_eigenvalues", lift_row_5)
        score, errors = evaluator.evaluate_batch(catalog, positions, "SSE")
        assert list(errors) == [5]
        assert isinstance(errors[5], StructureError)
        others = [i for i in range(8) if i != 5]
        assert np.array_equal(score.value[others], expected.value[others])

    def test_run_logs_failures_against_the_right_model(self, evaluator, tmp_path, monkeypatch):
        # Every row solved, so stack row i is particle i; a screened run's
        # stack is the next two tests'.
        monkeypatch.setattr(np.linalg, "eigvalsh", FailingEigvalsh(3))
        config = tiny_config(tmp_path, n_iterations=2, seed=0).swarm
        record = swarm.run(config, unscreened(evaluator, config.objective_kind))
        assert [(f.iteration, f.model_id) for f in record.failures] == [(0, 4), (1, 4), (2, 4)]
        assert all("row 3 did not converge" in f.reason for f in record.failures)
        assert record.ranking[-1].model_id == 4
        assert math.isnan(record.ranking[-1].fitness)
        assert not any(math.isnan(e.fitness) for e in record.ranking[:-1])

    def test_screened_run_logs_failures_against_the_right_model(self, tmp_path, monkeypatch):
        # A screened run solves only the rows it cannot rule out, so stack
        # row i need not be particle i. The last stack row fails: particle
        # 8's, which never scores, so has no threshold and is always solved.
        failing = FailingEigvalsh(-1)
        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        n = 2
        record = run_experiment(tiny_config(tmp_path, n_iterations=n, seed=0))
        assert min(failing.stack_rows) < 8  # some rows were skipped
        logged = [(f.iteration, f.model_id) for f in record.failures]
        assert logged == [(i, 8) for i in range(n + 1)]
        assert all("row -1 did not converge" in f.reason for f in record.failures)
        assert record.ranking[-1].model_id == 8
        assert math.isnan(record.ranking[-1].fitness)
        assert not any(math.isnan(e.fitness) for e in record.ranking[:-1])

    def test_failure_inside_a_screened_stack_is_charged_to_its_particle(
        self, tmp_path, monkeypatch
    ):
        # Stack row 3 fails in every call that solves four rows or more.
        # The stack is the rows `_score` receives: not the rows the screen
        # skips, nor the repeats it answers from its memo. So it is not
        # particle 4's row, and in a window of several iterations it need not
        # be the first iteration's: the failure goes to the particle and
        # iteration whose row it is, and only the failure of an iteration the
        # window keeps is logged. A repeat of a failed point is answered with
        # its error, so it is logged again at its own iteration, as a
        # deterministic LAPACK failure would be.
        calls, starts = [], [0]
        real_skip, real_keep = runner._Screen._cannot_improve, runner._Screen._keep
        real_window = swarm._window

        def recorded(screen, moduli, threshold):
            skip = real_skip(screen, moduli, threshold)
            calls.append([moduli, np.flatnonzero(~skip).tolist(), []])
            return skip

        def keep(screen, rows, moduli, spectra):
            # The rows pushed are the rows `_score` received, in its order.
            assert np.array_equal(moduli, scored[-1])
            calls[-1][2] = rows.tolist()
            return real_keep(screen, rows, moduli, spectra)

        def window(state, *args):
            starts.append(state.iteration + 1)
            return real_window(state, *args)

        monkeypatch.setattr(runner._Screen, "_cannot_improve", recorded)
        monkeypatch.setattr(runner._Screen, "_keep", keep)
        scored = scored_rows(monkeypatch)
        monkeypatch.setattr(swarm, "_window", window)
        monkeypatch.setattr(np.linalg, "eigvalsh", FailingEigvalsh(3))
        n = 40
        record = run_experiment(tiny_config(tmp_path, n_iterations=n, seed=0))
        assert len(scored) == sum(1 for *_, stack in calls if stack)
        failed, charged, dropped, later, repeats = set(), [], [], False, 0
        for start, end, (moduli, rows, stack) in zip(starts, [*starts[1:], n + 1], calls):
            bad = stack[3] if len(stack) > 3 else None
            if bad is not None:
                failed.add((bad % 8, moduli[bad].tobytes()))
                later |= start < start + bad // 8 < end
            for r in rows:
                if (r % 8, moduli[r].tobytes()) in failed:
                    iteration = start + r // 8
                    (charged if iteration < end else dropped).append((iteration, r % 8 + 1))
                    repeats += iteration < end and r != bad
        assert [(f.iteration, f.model_id) for f in record.failures] == charged
        assert charged[0] == (0, 4) and any(model != 4 for _, model in charged)
        assert later and dropped  # a kept failure past a window's first iteration, a dropped one
        assert repeats  # a kept repeat of a failed point, logged again
        assert all("row 3 did not converge" in f.reason for f in record.failures)


def objective_bound_skips(screen, moduli, threshold):
    """The skip decision of a screen by the objective's own formula, with
    the screen's bracket and margin: frequency brackets, the smallest
    residuals they allow, then `aic` or `sse` of those. `moduli` are the P
    rows of one iteration, with their (P,) thresholds. Returns the score
    bounds and the rows to skip."""
    low, high, slack = screen.bracket(moduli)
    measured = screen.evaluator.measured.frequencies_hz[:, None]
    # Rows: index 6, then the measured ranks as the last len(measured).
    f_low, f_high = (frequencies_from_eigenvalues(bound[-len(measured) :]) for bound in (low, high))
    r = measured - np.minimum(np.maximum(measured, f_low), f_high)
    bound = (aic if screen.kind == "AIC" else sse)(r.T, screen.plan[0]).value
    margin = 1e-9 * np.maximum(1.0, np.abs(threshold))
    skip = (bound > threshold + margin) & (slack < runner.RIGID_BODY_RATIO * low[0])
    return bound, skip


def scored_rows(monkeypatch):
    """A list that gets the class moduli of each `_score` call from now on."""
    received, real = [], ModelEvaluator._score

    def recorded(self, class_moduli, *args):
        received.append(class_moduli.copy())
        return real(self, class_moduli, *args)

    monkeypatch.setattr(ModelEvaluator, "_score", recorded)
    return received


def unscreened(evaluator, kind):
    """The swarm's fitness without a screen: every row solved, one
    `evaluate_batch` per iteration of the window."""

    def fitness(models, positions, threshold):
        values, errors = [], {}
        for i, iteration in enumerate(positions):
            score, failed = evaluator.evaluate_batch(models, iteration, kind)
            values.append(score.value)
            errors.update({i * len(models) + r: error for r, error in failed.items()})
        return np.concatenate(values), errors

    return fitness


class TestScreen:
    @pytest.mark.parametrize("spread", [None, 1e-3, 1e-12])
    @pytest.mark.parametrize("seed", range(4))
    def test_bracket_holds_the_computed_eigenvalues(self, evaluator, catalog, seed, spread):
        # Several solved points per particle drawn over the search box, then
        # a new point: drawn the same way, or the first point moved by a
        # relative `spread`, where the slack alone must cover the roundoff.
        screen = runner._Screen(evaluator, "AIC")
        # Index 6 and the measured ranks, rank 7 being index 6 itself.
        columns = np.union1d([6], evaluator._ranks)
        assert columns.tolist() == [6, 7, 9, 10, 12]
        draws = in_bound_positions(100 + seed, 8 * 6).reshape(6, 8, 5)
        for positions in draws[:-1]:
            screen(catalog, positions[None], np.full(8, math.nan))
        # The first batch fills every ring, then each particle adds its own.
        assert np.all(screen.pushes == 8 + 4)
        if spread is not None:
            noise = np.random.default_rng(seed).uniform(-1.0, 1.0, draws[0].shape)
            draws[-1] = draws[0] * (1.0 + spread * noise)
        moduli = evaluator._class_moduli(draws[-1:], evaluator._plan(tuple(catalog)))
        eigenvalues, errors = evaluator._eigenvalues(moduli)
        assert errors == {}
        low, high, slack = screen.bracket(moduli)
        assert np.all(low <= eigenvalues[:, columns].T)
        assert np.all(eigenvalues[:, columns].T <= high)
        assert np.all(np.abs(eigenvalues[:, :6]).T <= slack)
        assert np.all(slack < runner.RIGID_BODY_RATIO * low[0])

    def test_repeated_point_is_skipped_only_below_its_threshold(self, evaluator, catalog):
        screen = runner._Screen(evaluator, "SSE")
        positions = in_bound_positions(7)
        first, _ = screen(catalog, positions[None], np.full(8, math.nan))
        exact, _ = evaluator.evaluate_batch(catalog, positions, "SSE")
        assert np.array_equal(first, exact.value)
        threshold = exact.value - 1.0
        threshold[::2] = math.nan
        again, _ = screen(catalog, positions[None], threshold)
        assert np.array_equal(again[::2], exact.value[::2])
        assert np.all(np.isinf(again[1::2]))
        # At its own score the row could tie, so it is solved.
        again, _ = screen(catalog, positions[None], exact.value)
        assert np.array_equal(again, exact.value)

    def test_first_call_with_thresholds_solves_every_row(self, evaluator, catalog):
        # Nothing is kept before the first solve, so nothing can be skipped.
        positions = in_bound_positions(9)
        exact, _ = evaluator.evaluate_batch(catalog, positions, "AIC")
        screen = runner._Screen(evaluator, "AIC")
        values, errors = screen(catalog, positions[None], exact.value - 1.0)
        assert errors == {} and np.array_equal(values, exact.value)

    @pytest.mark.parametrize("preset", [1, 2, 3, 4])
    def test_skipped_rows_cannot_beat_their_threshold(self, evaluator, preset):
        config = dataclasses.replace(preset_config(preset, seed=preset).swarm, n_iterations=100)
        screen = runner._Screen(evaluator, config.objective_kind)
        solved, skipped = unscreened(evaluator, config.objective_kind), []

        def checked(models, positions, threshold):
            values, errors = screen(models, positions, threshold)
            exact, exact_errors = solved(models, positions, threshold)
            assert errors.keys() == exact_errors.keys()
            rows = np.isinf(values)
            limit = np.tile(threshold, len(positions))  # each row's particle's
            assert not np.any(rows & np.isnan(limit))
            assert np.all(exact[rows] >= limit[rows])
            assert np.array_equal(values[~rows], exact[~rows], equal_nan=True)
            skipped.append(rows.sum())
            return values, errors

        swarm.run(config, checked)
        assert sum(skipped) > 0.5 * 8 * config.n_iterations

    def test_runs_of_any_length_are_screened(self, tmp_path, monkeypatch):
        rows = []
        real = runner.generalized_eigenvalues
        monkeypatch.setattr(
            runner, "generalized_eigenvalues", lambda b: rows.append(len(b[0])) or real(b)
        )
        for n in (1, 2, 4):
            rows.clear()
            run_experiment(tiny_config(tmp_path, n_iterations=n, seed=0))
            # Iteration 0 solves every row; the later ones skip some.
            assert rows[0] == 8 and sum(rows[1:]) < 8 * n

    @pytest.mark.parametrize("preset", [1, 2, 3, 4])
    def test_squared_residual_bound_decides_as_the_objective_bound(self, evaluator, preset):
        config = dataclasses.replace(preset_config(preset, seed=preset).swarm, n_iterations=100)
        screen = runner._Screen(evaluator, config.objective_kind)
        real = screen._cannot_improve
        decided = []

        def compared(moduli, threshold):
            skip = real(moduli, threshold)
            if np.isnan(threshold).all():  # the first batch: nothing kept yet
                assert not skip.any()
                return skip
            # One iteration (P rows) at a time: the thresholds below are per row.
            for i in range(0, len(moduli), 8):
                rows = moduli[i : i + 8]
                bound, expected = objective_bound_skips(screen, rows, threshold)
                assert np.array_equal(skip[i : i + 8], expected)
                # Thresholds half a margin either side of where each bound
                # stops skipping: the rows the bracket proves rigid skip below
                # it, and no row skips above it.
                proven = objective_bound_skips(screen, rows, bound - 1.0)[1]
                width = 1e-9 * np.maximum(1.0, np.abs(bound))
                for shift, skips in ((1.5, proven), (0.5, np.zeros_like(proven))):
                    near = bound - shift * width
                    assert np.array_equal(real(rows, near), skips)
                    assert np.array_equal(objective_bound_skips(screen, rows, near)[1], skips)
                decided.append((np.isfinite(bound).sum(), len(bound)))
            return skip

        screen._cannot_improve = compared
        swarm.run(config, screen)
        # Every row of every window after the first batch is bounded.
        assert all(finite == rows for finite, rows in decided)
        assert sum(rows for _, rows in decided) >= 8 * config.n_iterations

    def test_squared_residual_bound_applies_the_variance_floor(self, evaluator, catalog):
        # One kept point, and a row within a factor 4 of it on every class:
        # every measured frequency lies inside its bracket, so the bound's
        # residuals are 0 and the floored variance alone sets the score.
        screen = runner._Screen(evaluator, "AIC")
        models = (catalog[0],)
        position = np.full((1, 1, 5), 7.2e10)
        screen(models, position, np.full(1, math.nan))
        moduli = evaluator._class_moduli(position, screen.plan) * np.where(
            np.arange(9) % 2, 0.25, 4.0
        )
        floor = aic(np.zeros((1, 5)), screen.plan[0]).value
        bound, _ = objective_bound_skips(screen, moduli, floor)
        assert np.array_equal(bound, floor)
        for shift, skips in ((-1.0, True), (1.0, False)):
            threshold = floor + shift
            assert objective_bound_skips(screen, moduli, threshold)[1].tolist() == [skips]
            assert screen._cannot_improve(moduli, threshold).tolist() == [skips]

    @pytest.mark.parametrize("value", [0.0, -6.0e10, -math.inf, math.inf, math.nan])
    def test_screen_and_batch_reject_an_active_dimension_alike(
        self, evaluator, catalog, value
    ):
        positions = in_bound_positions(2)
        positions[4, 4] = value  # active for model 5
        messages = []
        for fitness in (
            lambda p: runner._Screen(evaluator, "AIC")(catalog, p[None], np.full(8, math.nan)),
            lambda p: evaluator.evaluate_batch(catalog, p, "AIC"),
        ):
            with pytest.raises(ValueError) as excinfo:
                fitness(positions)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert ("positive" if value <= 0.0 else "finite") in messages[0]

    def test_screen_and_batch_accept_nan_in_an_inactive_dimension(self, evaluator, catalog):
        positions = in_bound_positions(2)
        positions[0, 1:] = math.nan  # model 1 uses dimension 1 alone
        screen = runner._Screen(evaluator, "SSE")
        screened, errors = screen(catalog, positions[None], np.full(8, math.nan))
        exact, exact_errors = evaluator.evaluate_batch(catalog, positions, "SSE")
        assert errors == exact_errors == {}
        assert np.array_equal(screened, exact.value)
        # A later call, with thresholds, takes the same checks.
        again, _ = screen(catalog, positions[None], exact.value + 1.0)
        assert np.all(np.isinf(again) | (again == exact.value))

    def test_window_rows_go_to_their_particles_rings_in_row_order(self, evaluator, catalog):
        screen = runner._Screen(evaluator, "SSE")
        screen(catalog, in_bound_positions(0)[None], np.full(8, math.nan))  # fills every ring
        window = in_bound_positions(1, 3 * 8).reshape(3, 8, 5)  # three iterations
        screen(catalog, window, np.full(8, math.nan))
        assert np.all(screen.pushes == 8 + 3)
        moduli = evaluator._class_moduli(window, screen.plan)
        # Field x slot x column, particle p's ring in columns p, p + 8, ...
        assert screen.points.shape == (20, runner.SCREEN_RING, 8 * runner.SCREEN_BLOCK)
        for r in range(3 * 8):
            for copy in range(runner.SCREEN_BLOCK):
                column = r % 8 + 8 * copy
                assert np.array_equal(screen.points[:9, 8 + r // 8, column], moduli[r])

    @pytest.mark.parametrize("shape", [(3, 7, 5), (24, 5), (1, 1, 8, 5)])
    def test_a_window_of_other_particles_is_rejected_by_its_shape(self, evaluator, catalog, shape):
        screen = runner._Screen(evaluator, "AIC")
        screen(catalog, in_bound_positions(0)[None], np.full(8, math.nan))
        with pytest.raises(ValueError) as excinfo:
            screen(catalog, np.full(shape, 7.0e10), np.full(8, 1.0))
        assert str(excinfo.value) == f"positions must have shape (k, 8, 5), not {shape}"

    def test_every_call_takes_the_window_protocol(self, evaluator, monkeypatch):
        # Each call of a preset run gets the run's one particle tuple, a
        # (k, 8, 5) window of k iterations and, as thresholds, the personal
        # bests at the window's start: all nan in the initial scoring.
        config = dataclasses.replace(preset_config(1, seed=0).swarm, n_iterations=200)
        screen = runner._Screen(evaluator, config.objective_kind)
        calls, bests = [], []
        real_window = swarm._window

        def window(state, *args):
            bests.append(state.pbest_fitness)
            return real_window(state, *args)

        def recorded(models, positions, threshold):
            calls.append((models, np.shape(positions), np.array(threshold)))
            return screen(models, positions, threshold)

        monkeypatch.setattr(swarm, "_window", window)
        swarm.run(config, recorded)
        (models, shape, threshold), *windows = calls
        assert shape == (1, 8, 5) and np.isnan(threshold).all()
        assert len(windows) == len(bests) and len(models) == 8
        for (called, shape, threshold), pbest in zip(windows, bests):
            assert called is models
            assert len(shape) == 3 and 1 <= shape[0] <= swarm.WINDOW_MAX and shape[1:] == (8, 5)
            assert np.array_equal(threshold, pbest)
        assert max(shape[0] for _, shape, _ in windows) == swarm.WINDOW_MAX

    def test_a_window_is_bracketed_as_its_iterations(self, evaluator, catalog):
        screen = runner._Screen(evaluator, "AIC")
        for seed in range(3):
            screen(catalog, in_bound_positions(seed)[None], np.full(8, math.nan))
        # More iterations than one block of the bracket takes.
        window = in_bound_positions(3, 6 * 8).reshape(6, 8, 5)
        screen(catalog, window, np.full(8, math.nan))
        moduli = evaluator._class_moduli(window, screen.plan)
        together = screen.bracket(moduli)
        for j in range(6):
            rows = slice(8 * j, 8 * j + 8)
            for whole, alone in zip(together, screen.bracket(moduli[rows])):
                assert np.array_equal(whole[..., rows], alone)

    @pytest.mark.parametrize("iterations", [1, 4, 5, 16])
    @pytest.mark.parametrize("windows", [1, 3])
    def test_bracket_equals_a_loop_over_rows_and_kept_points(
        self, evaluator, catalog, windows, iterations
    ):
        # A first batch, then `windows` windows of 16 iterations, every row
        # solved: 24 points per particle (a ring partly filled) or 56 (a
        # full ring that has wrapped). Then the bracket of a window of
        # `iterations` iterations, on either side of SCREEN_BLOCK, against
        # the formula row by row and kept point by kept point in floats.
        screen = runner._Screen(evaluator, "AIC")
        plan = evaluator._plan(tuple(catalog))
        first = in_bound_positions(0)[None]
        screen(catalog, first, np.full(8, math.nan))
        kept = [list(evaluator._class_moduli(first, plan)) for _ in catalog]  # in every ring
        for w in range(windows):
            window = in_bound_positions(1 + w, 16 * 8).reshape(16, 8, 5)
            screen(catalog, window, np.full(8, math.nan))
            for r, row in enumerate(evaluator._class_moduli(window, plan)):
                kept[r % 8].append(row)
        assert np.all(screen.pushes == 8 + 16 * windows)
        rings = [np.array(points[-runner.SCREEN_RING :]) for points in kept]
        window = in_bound_positions(10, iterations * 8).reshape(iterations, 8, 5)
        moduli = evaluator._class_moduli(window, plan)

        eps, columns = runner.SCREEN_SLACK, [6, 7, 9, 10, 12]
        expected = np.empty((2 * len(columns) + 1, len(moduli)))
        for p, ring in enumerate(rings):
            spectra = evaluator._eigenvalues(ring)[0]
            points = []
            for point, spectrum in zip(ring.tolist(), spectra.tolist()):
                tau = eps * spectrum[-1]
                lam = [spectrum[c] for c in columns]
                points.append((point, [x - tau for x in lam], [x + tau for x in lam],
                               eps * (spectrum[-1] + tau)))
            for r in range(p, len(moduli), 8):
                lows, highs, gaps = [], [], []
                for point, low, high, slack in points:
                    ratios = [a / b for a, b in zip(moduli[r].tolist(), point)]
                    alpha, beta = min(ratios), max(ratios)
                    gap = beta * slack
                    lows.append([alpha * x - gap for x in low])
                    highs.append([beta * x + gap for x in high])
                    gaps.append(gap)
                expected[:, r] = [*map(max, zip(*lows)), *map(min, zip(*highs)), min(gaps)]

        low, high, slack = screen.bracket(moduli)
        assert low.shape == high.shape == (5, len(moduli)) and slack.shape == (len(moduli),)
        bracket = np.concatenate([low, high, slack[None]])
        assert bracket.tobytes() == expected.tobytes()

    def test_two_column_rigid_test_flags_as_the_full_count(self, evaluator, catalog, monkeypatch):
        # Crafted ascending spectra with 6, 5 and 7 eigenvalues below
        # t = 1e-6 lam[6] (index 6), 5 with lam[5] = t itself, and a row whose
        # solve fails (nan), scored one at a time and all together: `_score`
        # names the same rows as `rigid_body_count` of each whole spectrum,
        # each with its count, and a failed row keeps its ConvergenceError.
        real = evaluator.spectrum(catalog[0], np.full(5, 6.5e10))
        base = (2.0 * np.pi * real.frequencies_hz) ** 2
        spectra = np.tile(base, (6, 1))
        spectra[0, :6] = np.linspace(-1e-3, 1e-3, 6)  # six
        spectra[1, 5] = 1e-3 * base[6]  # five
        spectra[2, :7] = np.arange(-7.0, 0.0)  # seven: lam[6] < 0, so t < 0
        spectra[3, 5] = 1e-6 * base[6]  # five: lam[5] is not below t
        spectra[4, :7] = -np.arange(7.0, 0.0, -1.0) * 1e-9  # seven, tiny
        spectra[5] = math.nan  # the solve fails
        assert np.all(np.diff(spectra[:5], axis=1) >= 0.0)
        found = {1: 5, 2: 7, 3: 5, 4: 7}
        served = {}

        def generalized(blocks):
            if blocks[0].ndim == 4:  # a batch; one failed row fails it
                if np.isnan(served["rows"]).any():
                    raise ConvergenceError("batch did not converge")
                return served["rows"]
            row = served["rows"][served["next"]]  # then each row alone
            served["next"] += 1
            if np.isnan(row).any():
                raise ConvergenceError("row did not converge")
            return row

        monkeypatch.setattr(runner, "generalized_eigenvalues", generalized)
        d = np.ones(6, dtype=int)
        moduli = np.full((6, 9), 6.5e10)
        for rows in [[i] for i in range(6)] + [list(range(6))]:
            served.update(rows=spectra[rows], next=0)
            score, errors, eigenvalues = evaluator._score(moduli[rows], d[rows], "AIC")
            assert np.array_equal(eigenvalues, spectra[rows], equal_nan=True)
            counts = [rigid_body_count(spectra[row]) for row in rows]
            expected = {i: count for i, count in enumerate(counts) if count != 6}
            assert sorted(errors) == sorted(expected)
            for i, row in enumerate(rows):
                if row == 5:
                    assert type(errors[i]) is ConvergenceError
                    assert str(errors[i]) == "row did not converge"
                elif row:
                    assert type(errors[i]) is StructureError
                    assert str(errors[i]) == f"expected 6 rigid-body modes, found {expected[i]}"
                    assert str(errors[i]).endswith(f"found {found[row]}")
            assert np.isfinite(score.value).tolist() == [row == 0 for row in rows]

    def test_rows_solved_per_preset_are_pinned(self, evaluator, monkeypatch):
        # The rows that reach `_score` in 100-iteration runs at seed 0, then
        # in the 500-iteration preset 1 run of seed 326935, whose particles
        # park on a bound corner that is their personal best: without the
        # memo the screen re-solved each such row every iteration, 1,120
        # rows in all. A change to the screen that skips fewer rows, or
        # more, or solves a point twice, shows here.
        received, rows = scored_rows(monkeypatch), []
        runs = [(1, 0, 100), (2, 0, 100), (3, 0, 100), (4, 0, 100), (1, 326935, 500)]
        for preset, seed, n in runs:
            received.clear()
            config = dataclasses.replace(preset_config(preset, seed=seed).swarm, n_iterations=n)
            screen = runner._Screen(evaluator, config.objective_kind)
            swarm.run(config, screen)
            rows.append(sum(map(len, received)))
            # One memo entry per row solved: no point is solved twice.
            assert len(screen.solved) == rows[-1]
        assert rows == [127, 127, 173, 185, 242]

    def test_a_parked_particle_is_answered_from_the_memo(self, evaluator, catalog, monkeypatch):
        # Particle 3 sits on the point it solved first, its personal best,
        # for a whole window. The threshold ties its score, so the bracket
        # cannot skip those rows; the memo answers them, bit for bit.
        screen = runner._Screen(evaluator, "AIC")
        first = in_bound_positions(5)
        values, _ = screen(catalog, first[None], np.full(8, math.nan))
        received = scored_rows(monkeypatch)
        window = in_bound_positions(6, 4 * 8).reshape(4, 8, 5)
        window[:, 3] = first[3]
        threshold = np.full(8, math.nan)
        threshold[3] = values[3]
        again, errors = screen(catalog, window, threshold)
        parked = evaluator._class_moduli(first[None], screen.plan)[3]
        (rows,) = received
        assert errors == {} and len(rows) == 4 * 7
        assert not any(np.array_equal(row, parked) for row in rows)
        exact, _ = evaluator.evaluate_batch((catalog[3],), first[3][None], "AIC")
        assert again[3::8].tobytes() == np.full(4, exact.value[0]).tobytes()
        assert again[3::8].tobytes() == np.full(4, values[3]).tobytes()
        assert np.all(screen.pushes == 8 + np.where(np.arange(8) == 3, 0, 4))

    def test_repeats_within_a_window_are_solved_once(self, evaluator, catalog, monkeypatch):
        screen = runner._Screen(evaluator, "SSE")
        screen(catalog, in_bound_positions(0)[None], np.full(8, math.nan))
        received = scored_rows(monkeypatch)
        positions = in_bound_positions(1)
        values, _ = screen(catalog, np.stack([positions] * 3), np.full(8, math.nan))
        (rows,) = received
        exact, _ = evaluator.evaluate_batch(catalog, positions, "SSE")
        assert np.array_equal(rows, evaluator._class_moduli(positions[None], screen.plan))
        assert values.tobytes() == np.tile(exact.value, 3).tobytes()
        # Only the rows solved are pushed: one slot per particle.
        assert np.all(screen.pushes == 8 + 1) and len(screen.solved) == 16

    def test_the_memo_keys_on_the_particle(self, evaluator, catalog, monkeypatch):
        # m1 at E and m2 at (E, E) give equal class moduli, but m2 has one
        # more parameter: AIC values exactly 2 apart, both solved.
        models = (catalog[0], catalog[1])
        positions = np.full((1, 2, 5), 6.3e10)
        screen = runner._Screen(evaluator, "AIC")
        moduli = evaluator._class_moduli(positions, evaluator._plan(models))
        assert np.array_equal(moduli[0], moduli[1])
        received = scored_rows(monkeypatch)
        values, _ = screen(models, positions, np.full(2, math.nan))
        assert [len(rows) for rows in received] == [2]
        assert values[1] - values[0] == 2.0

    def test_another_models_tuple_solves_again(self, evaluator, catalog, monkeypatch):
        # Another particle tuple starts a new run, with an empty memo, even
        # one of the same models.
        screen = runner._Screen(evaluator, "AIC")
        positions = in_bound_positions(8)[None]
        first, _ = screen(catalog, positions, np.full(8, math.nan))
        received = scored_rows(monkeypatch)
        again, _ = screen((*catalog,), positions, np.full(8, math.nan))
        assert [len(rows) for rows in received] == [8]
        assert again.tobytes() == first.tobytes() and len(screen.solved) == 8

    @pytest.mark.parametrize("preset", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_windowed_run_equals_one_iteration_windows(self, evaluator, monkeypatch, preset, seed):
        config = dataclasses.replace(preset_config(preset, seed=seed).swarm, n_iterations=100)
        windowed = swarm.run(config, runner._Screen(evaluator, config.objective_kind))
        monkeypatch.setattr(swarm, "WINDOW_MAX", 1)
        stepped = swarm.run(config, runner._Screen(evaluator, config.objective_kind))
        assert np.array_equal(windowed.rows, stepped.rows)
        assert dataclasses.replace(windowed, rows=None) == dataclasses.replace(stepped, rows=None)
        assert render_convergence_csv(windowed) == render_convergence_csv(stepped)

    def test_a_preset_run_makes_few_fitness_calls(self, evaluator):
        # Most iterations improve no personal best, so windows grow: a
        # 500-iteration preset 1 run takes far fewer calls than 501.
        config = preset_config(1, seed=0).swarm
        screen = runner._Screen(evaluator, config.objective_kind)
        rows = []

        def counted(models, positions, threshold):
            rows.append(positions.shape[0] * positions.shape[1])
            return screen(models, positions, threshold)

        record = swarm.run(config, counted)
        assert len(record.rows) == 500
        assert len(rows) <= 150
        assert sum(rows) >= 8 * 501

    @pytest.mark.parametrize("preset", [2, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sse_runs_replay_through_the_unscreened_batch(self, evaluator, tmp_path, preset, seed):
        base = preset_config(preset, seed=seed, output_dir=tmp_path)
        config = dataclasses.replace(base, swarm=dataclasses.replace(base.swarm, n_iterations=150))
        record = run_experiment(config)
        rng = RngStream(seed)
        fitness = unscreened(evaluator, config.swarm.objective_kind)
        state = swarm.init_swarm(config.swarm, model_catalog(), rng, fitness)
        for row in record.rows:
            state = swarm.step(state, config.swarm, fitness, rng)
            assert np.array_equal(row[4:12], state.pbest_fitness, equal_nan=True)
            assert np.array_equal(row[12:], state.position.ravel())
            assert row[2] == state.gbest_model_id
            assert row[3] == state.gbest_fitness
        assert [e.position for e in record.ranking] == [
            tuple(state.pbest_position[i]) for i in best_first(state.models, state.pbest_fitness)
        ]


class TestRunExperiment:
    def test_runs_share_the_catalog_but_not_the_screen(self, tmp_path, monkeypatch):
        # The screen restarts when its models are not the ones it last saw;
        # on the one cached catalog only a fresh screen per run does that.
        screens = []
        real = runner._Screen
        monkeypatch.setattr(runner, "_Screen", lambda *a: screens.append(real(*a)) or screens[-1])
        config = tiny_config(tmp_path, n_iterations=40, seed=3)
        first, second = run_experiment(config), run_experiment(config)
        assert screens[0] is not screens[1]
        assert screens[0].models is screens[1].models is model_catalog()
        assert np.array_equal(first.rows, second.rows)
        assert dataclasses.replace(first, rows=None) == dataclasses.replace(second, rows=None)

    def test_artifacts_and_trace_contract(self, tmp_path):
        config = tiny_config(tmp_path, n_iterations=6, seed=0)
        record = run_experiment(config)
        out = config.output_dir
        csv_path = out / "convergence.csv"
        json_path = out / "result.json"
        assert csv_path.exists() and json_path.exists()

        raw = csv_path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().strip("\n").split("\n")
        assert lines[0] == (
            "iteration,w,gbest_model,gbest_fitness,"
            "fit_m1,fit_m2,fit_m3,fit_m4,fit_m5,fit_m6,fit_m7,fit_m8,"
            + ",".join(f"pos_m{i}_{j}" for i in range(1, 9) for j in range(1, 6))
        )
        assert len(lines) == 1 + 6
        for line in lines[1:]:
            assert len(line.split(",")) == 52

        iterations = [int(line.split(",")[0]) for line in lines[1:]]
        assert iterations == [1, 2, 3, 4, 5, 6]
        gbest = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(b <= a for a, b in zip(gbest, gbest[1:]))
        for line in lines[1:]:
            positions = [float(x) for x in line.split(",")[12:]]
            assert all(5.5e10 <= x <= 7.5e10 for x in positions)

        assert len(record.rows) == 6

    def test_result_json_layout(self, tmp_path):
        config = tiny_config(tmp_path, n_iterations=5, seed=3)
        run_experiment(config)
        text = (config.output_dir / "result.json").read_text()
        parsed = json.loads(text)
        assert list(parsed) == ["config", "seed", "converged_at", "ranking", "failures"]
        assert list(parsed["config"]) == ["preset", "emit_mode_shapes", "swarm"]
        assert parsed["seed"] == 3
        assert "output_dir" not in text
        swarm_echo = parsed["config"]["swarm"]
        assert swarm_echo["n_iterations"] == 5
        assert swarm_echo["seed"] == 3
        assert swarm_echo["inertia_mode"] == "adaptive"
        ranked_ids = [entry["model_id"] for entry in parsed["ranking"]]
        assert sorted(ranked_ids) == list(range(1, 9))
        for entry in parsed["ranking"]:
            assert len(entry["position"]) == 5
        assert parsed["failures"] == []
        assert isinstance(parsed["converged_at"], int)

    def test_byte_stable_across_directories(self, tmp_path):
        config_a = tiny_config(tmp_path / "a", n_iterations=5, seed=8)
        config_b = tiny_config(tmp_path / "b", n_iterations=5, seed=8)
        run_experiment(config_a)
        run_experiment(config_b)
        for name in ("convergence.csv", "result.json"):
            assert (config_a.output_dir / name).read_bytes() == (
                config_b.output_dir / name
            ).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        config_a = tiny_config(tmp_path / "a", n_iterations=5, seed=0)
        config_b = tiny_config(tmp_path / "b", n_iterations=5, seed=1)
        run_experiment(config_a)
        run_experiment(config_b)
        assert (config_a.output_dir / "convergence.csv").read_bytes() != (
            config_b.output_dir / "convergence.csv"
        ).read_bytes()

    def test_mode_shapes_artifact(self, tmp_path):
        config = ExperimentConfig(
            swarm=SwarmConfig(n_iterations=4, seed=0),
            output_dir=tmp_path / "out",
            emit_mode_shapes=True,
        )
        run_experiment(config)
        lines = (config.output_dir / "mode_shapes.csv").read_text().strip().split("\n")
        assert lines[0].startswith("mode,frequency_hz,phi_1,")
        assert len(lines) == 1 + 13
        assert len(lines[1].split(",")) == 2 + 78

    def test_reused_evaluator_writes_the_same_bytes(self, tmp_path):
        def shapes_run(name, seed=5, kind="AIC"):
            config = ExperimentConfig(
                swarm=SwarmConfig(n_iterations=3, seed=seed, objective_kind=kind),
                output_dir=tmp_path / name,
                emit_mode_shapes=True,
            )
            run_experiment(config)
            return config.output_dir

        runner._default_evaluator.cache_clear()
        fresh = shapes_run("fresh")
        evaluator = runner._default_evaluator()
        shapes_run("other", seed=6, kind="SSE")
        reused = shapes_run("reused")
        assert runner._default_evaluator() is evaluator
        for name in ("convergence.csv", "result.json", "mode_shapes.csv"):
            assert (reused / name).read_bytes() == (fresh / name).read_bytes()

    def test_invalid_config_rejected(self, tmp_path):
        config = ExperimentConfig(
            swarm=SwarmConfig(seed=-2), output_dir=tmp_path / "out"
        )
        with pytest.raises(ConfigValidationError) as excinfo:
            run_experiment(config)
        assert excinfo.value.key == "seed"
        assert not (tmp_path / "out").exists()

    def test_failed_write_keeps_earlier_artifact(self, tmp_path, monkeypatch):
        config = tiny_config(tmp_path, n_iterations=2, seed=0)
        run_experiment(config)
        out = config.output_dir
        earlier = (out / "result.json").read_bytes()
        real_write = Path.write_text

        def fail_halfway(path, text, *args, **kwargs):
            if "result.json" in path.name:
                real_write(path, text[: len(text) // 2], *args, **kwargs)
                raise OSError("disk full")
            return real_write(path, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", fail_halfway)
        rerun = dataclasses.replace(config, swarm=dataclasses.replace(config.swarm, seed=1))
        with pytest.raises(OSError):
            run_experiment(rerun)
        monkeypatch.undo()
        assert sorted(p.name for p in out.iterdir()) == ["convergence.csv", "result.json"]
        assert (out / "result.json").read_bytes() == earlier
        # the artifact written before the failure is complete
        rows = (out / "convergence.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 2

    def test_csv_numbers_round_trip(self, tmp_path):
        config = tiny_config(tmp_path, n_iterations=3, seed=2)
        record = run_experiment(config)
        text = render_convergence_csv(record)
        for row, line in zip(record.rows.tolist(), text.strip().split("\n")[1:]):
            cells = line.split(",")
            assert float(cells[1]) == row[1]
            assert float(cells[3]) == row[3]
            assert [float(c) for c in cells[12:]] == row[12:]



def write_mode_shapes(path, evaluator, model_id, position):
    """mode_shapes.csv of a record whose winner is `model_id` at `position`:
    its text, frequencies (13,) and shapes (13, 78)."""
    best = SimpleNamespace(model_id=model_id, position=tuple(position))
    runner._write_mode_shapes(path, evaluator, SimpleNamespace(ranking=[best]))
    text = path.read_text()
    table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    assert table.shape == (13, 2 + 78)
    assert np.array_equal(table[:, 0], np.arange(1, 14))
    return text, table[:, 1], table[:, 2:]


# Nominal and five seeded in-box positions.
SHAPE_POSITIONS = [np.full(5, 7.2e10)] + [
    np.random.default_rng(seed).uniform(5.5e10, 7.5e10, 5) for seed in range(5)
]


class TestModeShapes:
    """mode_shapes.csv against the dense solve of an independently assembled
    pair (`fem.assemble`, `solve_generalized_eigen`)."""

    @pytest.mark.parametrize("model_index", range(8))
    def test_rows_solve_the_dense_pair(
        self, tmp_path, evaluator, catalog, geometry, material, section, model_index
    ):
        model = catalog[model_index]
        for position in SHAPE_POSITIONS:
            _, frequencies, phi = write_mode_shapes(
                tmp_path / "mode_shapes.csv", evaluator, model.model_id, position
            )
            system = assemble(geometry, element_modulus_vector(model, position), material, section)
            k, m = system.k_global, system.m_global
            eigenvalues, _ = solve_generalized_eigen(k, m)
            reference = frequencies_from_eigenvalues(eigenvalues[6:13])
            assert np.all(frequencies[:6] == 0.0)
            np.testing.assert_allclose(frequencies[6:], reference, rtol=1e-9, atol=0.0)
            k_norm = np.linalg.norm(k, 2)
            for i, row in enumerate(phi):
                k_phi = k @ row
                if i < 6:
                    assert np.linalg.norm(k_phi) <= 1e-8 * k_norm * np.linalg.norm(row)
                else:
                    lam = (2.0 * np.pi * frequencies[i]) ** 2
                    residual = np.linalg.norm(k_phi - lam * (m @ row))
                    assert residual <= 1e-8 * np.linalg.norm(k_phi)
            assert np.abs(phi @ m @ phi.T - np.eye(13)).max() <= 1e-8

    def test_rigid_rows_are_the_ordered_gram_schmidt_of_the_rigid_fields(
        self, tmp_path, evaluator, catalog, geometry
    ):
        m = evaluator.m_global
        expected = []
        for field in rigid_body_basis(geometry.nodes):
            for q in expected:
                field = field - (q @ m @ field) * q
            expected.append(field / np.sqrt(field @ m @ field))
        for model in catalog:
            for position in SHAPE_POSITIONS[:2]:
                _, _, phi = write_mode_shapes(
                    tmp_path / "mode_shapes.csv", evaluator, model.model_id, position
                )
                np.testing.assert_allclose(phi[:6], expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("model_index", range(8))
    def test_elastic_rows_are_signed_and_planar(self, tmp_path, evaluator, catalog, model_index):
        in_plane, out_of_plane = planar_dof_split(78)
        for position in SHAPE_POSITIONS:
            text, _, phi = write_mode_shapes(
                tmp_path / "mode_shapes.csv", evaluator, catalog[model_index].model_id, position
            )
            cells = text.replace("\n", ",").split(",")
            assert "-0" not in cells
            for row in phi[6:]:
                assert row[np.argmax(np.abs(row))] > 0.0
                assert np.all(row[in_plane] == 0.0) or np.all(row[out_of_plane] == 0.0)

    @pytest.mark.parametrize("scale", [1e-300, 1e200])
    def test_shapes_do_not_depend_on_the_modulus_scale(self, tmp_path, evaluator, catalog, scale):
        nominal = SHAPE_POSITIONS[0]
        for model in catalog:
            path = tmp_path / "mode_shapes.csv"
            _, frequencies, phi = write_mode_shapes(path, evaluator, model.model_id, nominal)
            _, scaled_frequencies, scaled_phi = write_mode_shapes(
                path, evaluator, model.model_id, scale * nominal
            )
            np.testing.assert_allclose(scaled_phi, phi, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(
                scaled_frequencies, np.sqrt(scale) * frequencies, rtol=1e-12, atol=0.0
            )

    def test_moduli_near_the_smallest_double_write_finite_rows(self, tmp_path):
        # K phi underflows to 0 at moduli of 1e-300, so the dense solve's
        # residual check fails here (exit 4); the mirror blocks need none.
        path = write_config(tmp_path, {
            "preset": 1,
            "output_dir": str(tmp_path / "out"),
            "emit_mode_shapes": True,
            "swarm": {"n_iterations": 3, "m_min": 1e-300, "m_max": 3e-300, "v_max": 1e-300,
                      "v_min": 1e-302, "init_mean": 2e-300, "init_std": 3e-301},
        })
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--config", str(path)]) == 0
        table = np.loadtxt(tmp_path / "out" / "mode_shapes.csv", delimiter=",", skiprows=1)
        assert table.shape == (13, 2 + 78)
        assert np.all(np.isfinite(table))
        assert np.all(table[6:, 1] > 0.0)


class TestCsvRowFormat:
    def test_percent_format_equals_str_format(self):
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, 7.5e10, 1 / 3]
        bits = np.random.default_rng(0).integers(0, 2**64, 10_000, dtype=np.uint64)
        for x in special + bits.view(np.float64).tolist():
            assert "%.17g" % x == "{:.17g}".format(x)

    @pytest.mark.parametrize("preset", [1, 3])
    def test_rows_equal_the_per_number_rendering(self, tmp_path, preset):
        base = preset_config(preset, seed=preset, output_dir=tmp_path)
        record = run_experiment(
            dataclasses.replace(base, swarm=dataclasses.replace(base.swarm, n_iterations=50))
        )
        number = "{:.17g}".format
        lines = [runner._CSV_HEADER]
        for iteration, w, gbest_model, *numbers in record.rows.tolist():
            lines.append(
                f"{int(iteration)},{number(w)},{int(gbest_model)},"
                + ",".join(map(number, numbers))
            )
        assert render_convergence_csv(record) == "\n".join(lines) + "\n"
        assert (tmp_path / "convergence.csv").read_text() == render_convergence_csv(record)


    def test_rows_across_the_conversion_chunks(self, tmp_path):
        # 64 rows become Python floats at a time; 130 rows cross two chunk
        # boundaries.
        record = run_experiment(tiny_config(tmp_path, n_iterations=130, seed=3))
        lines = [runner._CSV_ROW % tuple(row) for row in record.rows.tolist()]
        assert render_convergence_csv(record) == "\n".join([runner._CSV_HEADER, *lines]) + "\n"

    def test_other_particle_counts_are_rejected_by_name(self, catalog):
        config = SwarmConfig(n_iterations=2, objective_kind="SSE")
        record = swarm.run(config, lambda m, p, t: (np.ones(len(m)), {}), catalog=catalog[:4])
        with pytest.raises(ValueError, match="columns for 8 particles; the record has 4"):
            render_convergence_csv(record)


class TestRanking:
    def test_sorts_by_fitness_then_d_then_id(self):
        catalog = {m.model_id: m for m in model_catalog()}
        models = [catalog[i] for i in (4, 2, 6, 1, 3)]
        fitness = np.array([2.0, 1.0, 2.0, math.nan, 2.0])
        out = best_first(models, fitness)
        assert [models[i].model_id for i in out] == [2, 6, 3, 4, 1]

    def test_record_ranking_is_already_sorted(self, tmp_path):
        config = tiny_config(tmp_path, n_iterations=4, seed=5)
        record = run_experiment(config)
        keys = [(e.fitness, e.d, e.model_id) for e in record.ranking]
        assert keys == sorted(keys)
        assert record.rows[-1, 2] == record.ranking[0].model_id


class TestDescribe:
    def test_geometry_dump(self):
        payload = json.loads(describe("geometry"))
        assert len(payload["nodes"]) == 13
        assert len(payload["elements"]) == 12
        assert payload["joints"] == [2, 10]
        ids = [e["id"] for e in payload["elements"]]
        assert ids == list(range(1, 13))

    def test_catalog_dump(self):
        text = describe("catalog")
        lines = text.strip().split("\n")
        assert len(lines) == 9
        assert lines[0].startswith("model")
        assert "m5     5  {1,4,6,7,8,9} | {2,3} | {11,12} | {5} | {10}" in text
        assert "m1     1  {1,2,3,4,5,6,7,8,9,10,11,12}" in text

    def test_modal_dump_nominal(self):
        lines = describe("modal", model_id=1).strip().split("\n")
        assert lines[0] == "mode,frequency_hz,rigid_body"
        assert len(lines) == 1 + 78
        flags = [int(line.split(",")[2]) for line in lines[1:]]
        assert flags[:6] == [1] * 6
        assert set(flags[6:]) == {0}
        seventh = float(lines[7].split(",")[1])
        assert seventh == pytest.approx(56.138239, rel=1e-5)

    def test_modal_dump_with_position(self):
        stiffer = describe(
            "modal", model_id=1, position=np.array([7.5e10, 0, 0, 0, 0])
        )
        nominal = describe("modal", model_id=1)
        f_stiff = float(stiffer.strip().split("\n")[7].split(",")[1])
        f_nom = float(nominal.strip().split("\n")[7].split(",")[1])
        assert f_stiff > f_nom

    def test_modal_requires_model(self):
        with pytest.raises(ValueError):
            describe("modal")
        with pytest.raises(ValueError):
            describe("modal", model_id=99)

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            describe("spectrum")


class TestCli:
    def test_describe_catalog_exit_zero(self, capsys):
        assert main(["describe", "catalog"]) == 0
        out = capsys.readouterr().out
        assert "m1" in out and "m8" in out

    def test_describe_modal_without_model_is_usage_error(self, capsys):
        assert main(["describe", "modal"]) == 2
        assert "error" in capsys.readouterr().err

    def test_describe_position_must_have_five_values(self, capsys):
        assert main(["describe", "modal", "--model", "1", "--position", "1,2"]) == 2

    @pytest.mark.parametrize("value, message", BAD_VALUES)
    def test_describe_rejects_a_bad_position(self, capsys, value, message):
        position = ",".join(str(v) for v in [7.2e10] * 4 + [value])
        assert main(["describe", "modal", "--model", "5", "--position", position]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "none.json")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_usage_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["preset", "--simulation", "9", "--seed", "0", "--out", "x"])
        assert excinfo.value.code == 2

    def test_the_shared_parser_keeps_nothing_between_calls(self, tmp_path, capsys):
        # One parser serves every call of the process: each parse starts
        # from the defaults, never from the previous call's values.
        catalog_text = describe("catalog")
        config_out, override_out = tmp_path / "config_out", tmp_path / "override_out"
        path = write_config(
            tmp_path, {"seed": 1, "swarm": {"n_iterations": 2}, "output_dir": str(config_out)}
        )
        argv = ["run", "--config", str(path)]
        assert main([*argv, "--seed", "7", "--out", str(override_out)]) == 0
        assert f"artifacts written to {override_out}\n" in capsys.readouterr().out
        first = {p.name: p.read_bytes() for p in override_out.iterdir()}
        assert json.loads(first["result.json"])["seed"] == 7

        assert main(argv) == 0
        assert f"artifacts written to {config_out}\n" in capsys.readouterr().out
        assert json.loads((config_out / "result.json").read_text())["seed"] == 1
        assert {p.name: p.read_bytes() for p in override_out.iterdir()} == first

        rejected = ["preset", "--simulation", "9", "--seed", "0", "--out", "x"]
        with pytest.raises(SystemExit):
            cli._build_parser.__wrapped__().parse_args(rejected)
        fresh = capsys.readouterr().err
        assert "invalid choice: 9" in fresh
        with pytest.raises(SystemExit) as excinfo:
            main(rejected)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err == fresh

        assert main(["describe", "catalog"]) == 0
        assert capsys.readouterr().out == catalog_text

    def test_warm_runs_build_no_parser_catalog_or_rigid_rows(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, {
            "preset": 2,
            "output_dir": str(tmp_path / "warm"),
            "emit_mode_shapes": True,
            "swarm": {"n_iterations": 2},
        })
        assert main(["run", "--config", str(path)]) == 0  # builds what the process keeps
        built, shape_rows = [], []
        parser_init, spec_init, lines = (
            argparse.ArgumentParser.__init__, ModelSpec.__post_init__, runner._shape_lines
        )
        monkeypatch.setattr(
            argparse.ArgumentParser, "__init__",
            lambda self, *a, **k: built.append("parser") or parser_init(self, *a, **k),
        )
        monkeypatch.setattr(ModelSpec, "__post_init__", lambda s: built.append("spec") or spec_init(s))
        monkeypatch.setattr(
            runner, "_shape_lines", lambda first, *a: shape_rows.append(first) or lines(first, *a)
        )
        for seed in (1, 2):
            out = tmp_path / f"seed{seed}"
            assert main(["run", "--config", str(path), "--seed", str(seed), "--out", str(out)]) == 0
            assert (out / "mode_shapes.csv").exists()
        assert built == []
        assert shape_rows == [7, 7]  # the elastic rows; rows 1-6 are reused

    def test_run_subcommand_with_overrides(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"seed": 1, "swarm": {"n_iterations": 4}, "output_dir": str(tmp_path / "ignored")},
        )
        out_dir = tmp_path / "real"
        assert main(["run", "--config", str(path), "--seed", "6", "--out", str(out_dir)]) == 0
        stdout = capsys.readouterr().out
        assert "best model" in stdout and "artifacts written" in stdout
        parsed = json.loads((out_dir / "result.json").read_text())
        assert parsed["seed"] == 6
        assert not (tmp_path / "ignored").exists()

    @pytest.mark.parametrize(
        "text",
        [
            '{"preset": true, "swarm": {"n_iterations": 2}}',
            '{"swarm": {"n_iterations": "5"}}',
            '{"seed": 1.5, "swarm": {"n_iterations": 2}}',
            '{"swarm": {"n_iterations": 2, "init_std": Infinity}}',
            '{"swarm": {"n_iterations": 2, "c1": NaN}}',
            '{"swarm": {"n_iterations": 1, "w_f": 1.0, "legacy_inertia_decrement": true}}',
            '{"swarm": {"n_iterations": 3, "c1": 1e308, "c2": 1e308}}',
            '{"swarm": {"n_iterations": 3, "m_min": -1e308, "m_max": 1e308}}',
            '{"swarm": {"n_iterations": 200, "m_min": -1e9}}',
            '{"swarm": {"n_particles": 8}}',
            '{"swarm": {"n_iterations": 2, "w_start": 1e300}}',
            '{"swarm": {"n_iterations": 2, "c1": 4e297, "c2": 4e297, '
            '"w_start": 8e297, "v_max": 1e10}}',
            '{"swarm": {"n_iterations": 2, "m_min": 1e308, "m_max": 1.5e308, "v_max": 1e308, '
            '"v_min": 1.0, "c1": 0.1, "c2": 0.1, "init_mean": 1.2e308}}',
            # Refused at allocation, before any memory is touched.
            '{"preset": 1, "swarm": {"n_iterations": 1000000000000000}}',
            # json.loads fails past the recursion limit and past the digit
            # limit of int(), with errors that are not JSONDecodeError.
            "[" * 100000 + "]" * 100000,
            '{"seed": ' + "7" * 5000 + "}",
        ],
    )
    def test_malformed_config_values_exit_two(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "Traceback" not in err
        assert not out_dir.exists()

    def test_sweep_matches_preset_runs(self, tmp_path, capsys):
        sweep_dir = tmp_path / "sweep"
        args = ["--simulation", "1", "--out", str(sweep_dir)]
        assert main(["sweep", *args, "--seed", "3", "--seeds", "2"]) == 0
        stdout = capsys.readouterr().out
        assert sorted(p.name for p in sweep_dir.iterdir()) == ["seed3", "seed4"]
        assert stdout.count("best model") == 2 and stdout.count("artifacts written") == 2
        assert stdout.splitlines()[-1].startswith("winners: m")

        preset_dir = tmp_path / "preset"
        assert main(["preset", "--simulation", "1", "--seed", "4", "--out", str(preset_dir)]) == 0
        for name in ("convergence.csv", "result.json"):
            assert (sweep_dir / "seed4" / name).read_bytes() == (preset_dir / name).read_bytes()

    def test_sweep_builds_one_evaluator(self, tmp_path, capsys, monkeypatch):
        builds = []
        build = ModelEvaluator.__init__

        def counted(self):
            builds.append(self)
            build(self)

        monkeypatch.setattr(ModelEvaluator, "__init__", counted)
        runner._default_evaluator.cache_clear()
        args = ["--simulation", "1", "--seed", "0", "--seeds", "3", "--out", str(tmp_path)]
        assert main(["sweep", *args]) == 0
        assert len(builds) == 1

    def test_sweep_needs_a_seed(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["sweep", "--simulation", "1", "--seeds", "0", "--out", str(out_dir)]) == 2
        assert "--seeds" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_describe_non_finite_position_exits_two(self, capsys):
        code = main(["describe", "modal", "--model", "1", "--position", "nan,7e10,7e10,7e10,7e10"])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_output_collision_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        path = write_config(tmp_path, {"swarm": {"n_iterations": 3}})
        code = main(["run", "--config", str(path), "--out", str(blocker / "sub")])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


# In-range values for each key; a config built from these alone mostly
# runs (a preset may still contradict inertia_mode or objective_kind).
plausible_values = {
    "preset": st.integers(1, 4),
    "seed": st.integers(0, 2**40),
    "output_dir": st.text(max_size=8),
    "emit_mode_shapes": st.booleans(),
    "c1": st.floats(0.0, 4.0),
    "c2": st.floats(0.0, 4.0),
    "n_iterations": st.integers(1, 3),
    "w_start": st.floats(0.4, 1.5),
    "w_end": st.floats(0.0, 0.4),
    "w_f": st.floats(0.05, 1.0),
    "inertia_mode": st.sampled_from(["none", "adaptive"]),
    "m_max": st.floats(6.5e10, 8.0e10),
    "m_min": st.floats(5.0e10, 6.0e10),
    "v_max": st.floats(1.0e10, 3.0e10),
    "v_min": st.floats(1.0e8, 2.0e9),
    "init_mean": st.floats(5.0e10, 8.0e10),
    "init_std": st.floats(1.0e8, 2.0e10),
    "objective_kind": st.sampled_from(["AIC", "SSE"]),
    "legacy_inertia_decrement": st.booleans(),
}


def any_value(name: str):
    if name == "n_iterations":
        # Any JSON value but a large integer, so that no run takes long.
        small = st.integers(-1, 3)
        return small | json_values.filter(lambda v: not isinstance(v, int))
    return plausible_values[name] | st.floats() | json_values


def not_an_object(strategy):
    return strategy.filter(lambda v: not isinstance(v, dict))


def config_objects_from(values):
    """Config objects whose swarm always sets n_iterations."""
    swarm = st.fixed_dictionaries(
        {"n_iterations": values("n_iterations")},
        optional={
            name: values(name) for name in sorted(runner._SWARM_KEYS - {"n_iterations"})
        },
    )
    return st.fixed_dictionaries(
        {"swarm": swarm},
        optional={
            name: values(name) for name in ("preset", "seed", "output_dir", "emit_mode_shapes")
        },
    )


config_objects = (
    config_objects_from(plausible_values.get)
    | config_objects_from(any_value)
    | not_an_object(json_values)
    | st.fixed_dictionaries({"swarm": not_an_object(json_values)})
)


class TestConfigFuzz:
    """Any JSON config ends in a documented exit code, never a traceback."""

    @settings(max_examples=120)
    @given(data=config_objects)
    def test_cli_exit_code_is_documented(self, tmp_path_factory, data):
        tmp = tmp_path_factory.mktemp("fuzz")
        path = tmp / "config.json"
        path.write_text(json.dumps(data))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", str(path), "--out", str(tmp / "out")])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in stderr.getvalue()

    @settings(max_examples=200)
    @given(data=config_objects)
    def test_load_config_raises_only_config_errors(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "config.json"
        path.write_text(json.dumps(data))
        try:
            config = load_config(path)
        except runner.ConfigError:
            return
        config.validate()
