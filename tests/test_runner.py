import contextlib
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NOMINAL_AIC, NOMINAL_SIGMA_SQUARED, NOMINAL_SSE
from femselect import runner
from femselect.cli import main
from femselect.fem import assemble
from femselect.modal import ConvergenceError, StructureError
from femselect.records import RankingEntry, sort_ranking
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
from femselect.swarm import SwarmConfig


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

    # Goldens from the 40-digit reference (conftest). Tolerances are the
    # larger measured error of the two float64 paths: SSE 1.6e-12 planar
    # and 4.9e-12 dense, AIC 3.0e-13 planar and 9.5e-13 dense.
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


class TestModelEvaluator:
    def test_mass_equals_assembled_mass(self, evaluator, geometry, material, section):
        direct = assemble(geometry, np.full(12, 6.4e10), material, section)
        assert np.array_equal(evaluator.m_global, direct.m_global)

    def test_stiffness_stack_matches_direct_assembly(
        self, geometry, material, section, nominal_moduli
    ):
        evaluator = ModelEvaluator()
        direct = assemble(geometry, nominal_moduli, material, section)
        np.testing.assert_allclose(
            evaluator.stiffness(nominal_moduli), direct.k_global, rtol=1e-12, atol=1e-3
        )
        np.testing.assert_allclose(evaluator.m_global, direct.m_global)

    def test_mass_independent_of_moduli(self):
        evaluator = ModelEvaluator()
        m_copy = evaluator.m_global.copy()
        evaluator.stiffness(np.full(12, 6.0e10))
        np.testing.assert_array_equal(evaluator.m_global, m_copy)


def in_bound_positions(seed: int, n: int = 8) -> np.ndarray:
    return np.random.default_rng(seed).uniform(5.5e10, 7.5e10, (n, 5))


class FailingEigvalsh:
    """Stands in for `np.linalg.eigvalsh`: a call on a stack of pairs
    raises LinAlgError, and so does the call on the single pair of row
    `bad_row`; every other pair is solved as usual."""

    def __init__(self, bad_row: int):
        self.real = np.linalg.eigvalsh
        self.bad_row = bad_row
        self.pair_calls = 0

    def __call__(self, blocks):
        if blocks.ndim == 4:
            self.pair_calls = 0
            raise np.linalg.LinAlgError("stack did not converge")
        row = self.pair_calls
        self.pair_calls += 1
        if row == self.bad_row:
            raise np.linalg.LinAlgError(f"row {row} did not converge")
        return self.real(blocks)


class TestEvaluateBatch:
    @pytest.mark.parametrize("kind", ["AIC", "SSE"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_equal_scalar_evaluate_bit_for_bit(self, evaluator, catalog, kind, seed):
        positions = in_bound_positions(seed)
        batch, errors = evaluator.evaluate_batch(catalog, positions, kind)
        assert errors == {}
        for i, (model, position) in enumerate(zip(catalog, positions)):
            scalar = evaluator.evaluate(model, position, kind)
            single, _ = evaluator.evaluate_batch((model,), position[None], kind)
            assert batch.value[i] == scalar.value == single.value[0]
            assert batch.sigma_squared[i] == scalar.sigma_squared

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

    def test_run_logs_failures_against_the_right_model(self, tmp_path, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", FailingEigvalsh(3))
        record = run_experiment(tiny_config(tmp_path, n_iterations=2, seed=0))
        assert [(f.iteration, f.model_id) for f in record.failures] == [(0, 4), (1, 4), (2, 4)]
        assert all("row 3 did not converge" in f.reason for f in record.failures)
        assert record.ranking[-1].model_id == 4
        assert math.isnan(record.ranking[-1].fitness)
        assert not any(math.isnan(e.fitness) for e in record.ranking[:-1])


class TestRunExperiment:
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
        for row, line in zip(record.rows, text.strip().split("\n")[1:]):
            cells = line.split(",")
            assert float(cells[1]) == row.w
            assert float(cells[3]) == row.gbest_fitness
            flat = [x for pos in row.positions for x in pos]
            assert [float(c) for c in cells[12:]] == flat


class TestRanking:
    def test_sorts_by_fitness_then_d_then_id(self):
        entries = [
            RankingEntry(model_id=4, d=4, fitness=2.0, position=(0.0,) * 5),
            RankingEntry(model_id=2, d=2, fitness=1.0, position=(0.0,) * 5),
            RankingEntry(model_id=6, d=2, fitness=2.0, position=(0.0,) * 5),
            RankingEntry(model_id=1, d=1, fitness=math.nan, position=(0.0,) * 5),
            RankingEntry(model_id=3, d=3, fitness=2.0, position=(0.0,) * 5),
        ]
        out = sort_ranking(entries)
        assert [e.model_id for e in out] == [2, 6, 3, 4, 1]

    def test_record_ranking_is_already_sorted(self, tmp_path):
        config = tiny_config(tmp_path, n_iterations=4, seed=5)
        record = run_experiment(config)
        assert record.ranking == sort_ranking(record.ranking)
        values = [e.fitness for e in record.ranking]
        assert values == sorted(values)


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

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "none.json")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_usage_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["preset", "--simulation", "9", "--seed", "0", "--out", "x"])
        assert excinfo.value.code == 2

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
        ],
    )
    def test_malformed_config_values_exit_two(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "Traceback" not in err
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
    "n_particles": st.just(8),
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
