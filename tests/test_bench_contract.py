"""What the benchmark harness under perfbench/ relies on in the package.

The tracer patches callables by name from outside the package, the
output checks re-score winners through the dense modal path, and the
driver writes config files and command lines for the CLI. A rename or a
deleted config key there would make the benchmark read zero for a layer
or fail to run, so these tests pin the names, the evaluate signature,
the configs and the command lines. They also pin that the set-up the
benchmark times loads neither scipy nor the CLI, and that every run
with or without mode shapes loads no scipy.
"""

import contextlib
import importlib.util
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from femselect import cli, runner, swarm
from femselect.beam_structure import model_catalog

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = PERFBENCH.parent / "src"
SCIPY_LOADED = "any(n == 'scipy' or n.startswith('scipy.') for n in sys.modules)"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def bench():
    return _load("run")


def test_every_layer_target_resolves(tracing):
    targets = tracing.layer_targets(cli, runner, swarm)
    assert targets
    assert tracing.Tracer(targets).missing == []


def test_evaluate_keeps_its_positional_signature():
    params = list(inspect.signature(runner.ModelEvaluator.evaluate).parameters)
    assert params == ["self", "model", "position", "objective_kind"]


def test_tracer_sees_one_eigen_solve_per_evaluation(tracing):
    tracer = tracing.Tracer(tracing.layer_targets(cli, runner, swarm))
    with tracer.phase():
        evaluator = runner.ModelEvaluator()
        for model in model_catalog():
            evaluator.evaluate(model, np.full(5, 7.0e10), "AIC")
    _, calls = tracer.phase_totals()[0]
    assert calls["runner.evaluate"] == 8
    assert calls["modal.eigvals"] == calls["runner.evaluate"]
    assert tracing.span_problems(tracer) == []


def test_a_batch_solves_every_block_inside_one_eigen_call(monkeypatch):
    # The tracer's modal.eigvals span wraps runner.generalized_eigenvalues,
    # so it covers the solve only if every eigvalsh of a batch runs there.
    real_solve, real_eigvalsh = runner.generalized_eigenvalues, np.linalg.eigvalsh
    depth, solves, inside = [0], [], []

    def solve(blocks):
        solves.append(None)
        depth[0] += 1
        try:
            return real_solve(blocks)
        finally:
            depth[0] -= 1

    def eigvalsh(a, *args, **kwargs):
        inside.append(depth[0] > 0)
        return real_eigvalsh(a, *args, **kwargs)

    evaluator = runner._default_evaluator()
    positions = np.random.default_rng(0).uniform(5.5e10, 7.5e10, (8, 5))
    monkeypatch.setattr(runner, "generalized_eigenvalues", solve)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    _, errors = evaluator.evaluate_batch(model_catalog(), positions, "AIC")
    assert errors == {}
    assert len(solves) == 1
    assert inside and all(inside)


def test_tracer_sees_each_layer_of_one_batch_once(tracing):
    # The batched path calls the eigen solve and the objective through the
    # runner names the tracer patches, once per batch however many rows.
    evaluator = runner._default_evaluator()
    positions = np.random.default_rng(1).uniform(5.5e10, 7.5e10, (8, 5))
    tracer = tracing.Tracer(tracing.layer_targets(cli, runner, swarm))
    with tracer.phase():
        _, errors = evaluator.evaluate_batch(model_catalog(), positions, "AIC")
    assert errors == {}
    assert tracing.span_problems(tracer) == []
    _, calls = tracer.phase_totals()[0]
    assert calls["modal.eigvals"] == 1
    assert calls["objective.residuals"] == 1
    assert calls["objective"] == 1


def test_one_batched_eigen_solve_per_swarm_iteration(tracing, tmp_path, monkeypatch):
    # Iteration 0 solves every row in one call; a later window of
    # iterations solves the rows its screen cannot rule out in one call, or
    # none at all. A window holds one iteration or more, so no iteration
    # takes more than one call.
    config = runner.ExperimentConfig(
        swarm=swarm.SwarmConfig(n_iterations=40, seed=0), output_dir=tmp_path / "out"
    )
    tracer = tracing.Tracer(tracing.layer_targets(cli, runner, swarm))
    eigen_spans_before_call = []
    real_call = runner._Screen.__call__

    def call(screen, *args):
        eigen_spans_before_call.append(list(tracer.name).count(tracer.names.index("modal.eigvals")))
        return real_call(screen, *args)

    monkeypatch.setattr(runner._Screen, "__call__", call)
    with tracer.phase():
        runner.run_experiment(config)
    assert tracing.span_problems(tracer) == []
    _, calls = tracer.phase_totals()[0]
    assert calls["swarm"] == 1
    per_call = np.diff([*eigen_spans_before_call, calls["modal.eigvals"]])
    assert 1 < len(per_call) < config.swarm.n_iterations + 1  # some window spans iterations
    assert per_call[0] == 1
    assert np.all(per_call <= 1)

    names = np.array(tracer.names)[np.array(tracer.name)]
    parent = np.array(tracer.parent)
    (swarm_span,) = np.flatnonzero(names == "swarm")
    for span in np.flatnonzero(names == "modal.eigvals"):
        while span not in (swarm_span, -1):
            span = parent[span]
        assert span == swarm_span


def test_runs_of_one_process_share_one_evaluator_build(tracing, tmp_path):
    tracer = tracing.Tracer(tracing.layer_targets(cli, runner, swarm))
    runner._default_evaluator.cache_clear()
    with tracer.phase():
        for seed in (0, 1):
            runner.run_experiment(
                runner.ExperimentConfig(
                    swarm=swarm.SwarmConfig(n_iterations=2, seed=seed),
                    output_dir=tmp_path / f"seed{seed}",
                )
            )
    assert tracing.span_problems(tracer) == []
    _, calls = tracer.phase_totals()[0]
    assert calls["swarm"] == 2
    assert calls["runner.evaluator_build"] == 1
    assert calls["fem.setup"] > 0

    names = np.array(tracer.names)[np.array(tracer.name)]
    parent = np.array(tracer.parent)
    (build,) = np.flatnonzero(names == "runner.evaluator_build")
    assert np.all(parent[names == "fem.setup"] == build)


def test_benchmark_configs_still_load(bench, tmp_path):
    for seed in range(4):
        op = bench.short_run_op(seed, tmp_path / f"short{seed}")
        assert op.argv[:2] == ["run", "--config"]
        config = runner.load_config(op.argv[2])
        assert config.preset == 1 + seed % 4 and config.emit_mode_shapes


def test_benchmark_command_lines_parse(bench, tmp_path):
    parser = cli._build_parser()
    for _, make in bench.WORKLOADS.values():
        op = make(0, tmp_path / "out")
        assert parser.parse_args(op.argv).command in ("preset", "run")


def test_reference_checker_agrees_with_the_fitness_path():
    checks = _load("checks")
    checker = checks.OutputChecker()
    position = [6.1e10, 7.3e10, 6.6e10, 5.9e10, 7.0e10]
    for model in model_catalog():
        fast = runner.evaluate_model(model, np.array(position), "SSE").value
        reference = checker.score(model.model_id, position, "SSE")
        assert math.isclose(fast, reference, rel_tol=checks.SCORE_RTOL)


@pytest.mark.parametrize("seed", [317903, 656999])
def test_checker_accepts_runs_that_end_on_a_tie(bench, tmp_path, seed):
    # Two models end on exactly the same fitness here; the global best in
    # convergence.csv must still be the ranking's winner.
    op = bench.short_run_op(seed, tmp_path / "out")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(op.argv) == 0
    checker = _load("checks").OutputChecker()
    assert checker.check(op.out, op.seed, op.kind, op.n_iterations, op.shapes) == []


def _python(code: str, *args: str) -> list[str]:
    """Lines a fresh interpreter prints for `python -c code args`."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=120, check=True, env=env,
    )
    return done.stdout.split()


def test_setup_code_loads_no_scipy(bench):
    # setup_s times this code; the fitness path must not pay for scipy.
    elapsed, loaded = _python(f"{bench.SETUP_CODE}\nprint({SCIPY_LOADED})", str(SRC))
    assert float(elapsed) > 0.0
    assert loaded == "False"


def test_setup_code_loads_no_cli(bench):
    # The CLI keeps its parser for the process; setup_s must not build or
    # import it, so a move in setup_s cannot come from the CLI.
    loaded = "[m in sys.modules for m in ('argparse', 'femselect.cli')]"
    elapsed, *flags = _python(f"{bench.SETUP_CODE}\nprint(*{loaded})", str(SRC))
    assert float(elapsed) > 0.0
    assert flags == ["False", "False"]


def test_no_run_loads_scipy(tmp_path):
    # Mode shapes come from the mirror blocks, by numpy alone, as fitness does.
    configs = []
    for shapes in (False, True):
        config = tmp_path / f"shapes{int(shapes)}.json"
        config.write_text(json.dumps({
            "preset": 2,
            "output_dir": str(tmp_path / config.stem),
            "emit_mode_shapes": shapes,
            "swarm": {"n_iterations": 2},
        }))
        configs.append(str(config))
    code = f"""
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from femselect.cli import main
for config in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--config", config])
    print(code, {SCIPY_LOADED})
"""
    assert _python(code, str(SRC), *configs) == ["0", "False", "0", "False"]
    assert not (tmp_path / "shapes0" / "mode_shapes.csv").exists()
    assert (tmp_path / "shapes1" / "mode_shapes.csv").stat().st_size > 0
