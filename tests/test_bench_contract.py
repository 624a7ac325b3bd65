"""What the benchmark harness under perfbench/ relies on in the package.

The tracer patches callables by name from outside the package, and the
output checks re-score winners through the dense modal path. A rename
there would make the benchmark read zero for a layer or fail to load,
so these tests pin the names and the evaluate signature.
"""

import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from femselect import cli, runner, swarm
from femselect.beam_structure import model_catalog

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


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


def test_one_batched_eigen_solve_per_swarm_iteration(tracing, tmp_path):
    config = runner.ExperimentConfig(
        swarm=swarm.SwarmConfig(n_iterations=3, seed=0), output_dir=tmp_path / "out"
    )
    tracer = tracing.Tracer(tracing.layer_targets(cli, runner, swarm))
    with tracer.phase():
        runner.run_experiment(config)
    assert tracing.span_problems(tracer) == []
    _, calls = tracer.phase_totals()[0]
    assert calls["swarm"] == 1
    assert calls["modal.eigvals"] == config.swarm.n_iterations + 1

    names = np.array(tracer.names)[np.array(tracer.name)]
    parent = np.array(tracer.parent)
    (swarm_span,) = np.flatnonzero(names == "swarm")
    for span in np.flatnonzero(names == "modal.eigvals"):
        while span not in (swarm_span, -1):
            span = parent[span]
        assert span == swarm_span


def test_reference_checker_agrees_with_the_fitness_path():
    checks = _load("checks")
    checker = checks.OutputChecker()
    position = [6.1e10, 7.3e10, 6.6e10, 5.9e10, 7.0e10]
    for model in model_catalog():
        fast = runner.evaluate_model(model, np.array(position), "SSE").value
        reference = checker.score(model.model_id, position, "SSE")
        assert math.isclose(fast, reference, rel_tol=checks.SCORE_RTOL)
