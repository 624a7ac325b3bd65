"""Acceptance gate: ten numbered criteria, one verdict line each.

Verdicts are collected as the criteria run and printed in a summary
section at the end of the pytest session (see pytest_terminal_summary in
conftest). The swarm sweeps (criteria 7, 8, 10) execute twenty full
preset runs and take a couple of minutes.
"""

import math
import time

import numpy as np
import pytest

from conftest import rigid_body_basis, straight_beam_geometry
from femselect.beam_structure import model_catalog
from femselect.fem import assemble
from femselect.modal import (
    frequencies_from_eigenvalues,
    natural_frequencies,
    solve_generalized_eigen,
)
from femselect.objective import SIGMA_SQ_FLOOR, aic, sse
from femselect.runner import (
    ModelEvaluator,
    preset_config,
    run_experiment,
)
from femselect.swarm import (
    RngStream,
    SwarmConfig,
    inertia_schedule,
    init_swarm,
    run as swarm_run,
    step,
)

BETA_L = np.array([4.7300, 7.8532, 10.9956])
MEASURED_HZ = np.array([53.9, 117.3, 208.4, 254.0, 445.0])
MEASURED_RANKS = (7, 8, 10, 11, 13)
SEEDS = list(range(10))


_VERDICTS: list[str] = []


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    _VERDICTS.append(line)
    print(line)


def sphere_fitness(models, positions, threshold=None):
    """Sum of squares of the active coordinates, row by row of a (k, P, 5)
    window."""
    values = []
    for iteration in positions:
        for model, position in zip(models, iteration):
            x = position[: model.d]
            values.append(float(np.sum(x * x)))
    return np.array(values), {}


def sphere_config(seed: int) -> SwarmConfig:
    return SwarmConfig(
        inertia_mode="adaptive",
        objective_kind="SSE",
        m_min=-10.0,
        m_max=10.0,
        v_max=20.0,
        v_min=1e-3,
        init_mean=5.0,
        init_std=2.0,
        seed=seed,
    )


@pytest.fixture(scope="module")
def sphere_runs():
    runs = []
    for seed in SEEDS:
        config = sphere_config(seed)
        started = time.perf_counter()
        record = swarm_run(config, sphere_fitness)
        elapsed = time.perf_counter() - started
        runs.append((config, record, elapsed))
    return runs


def _preset_sweep(tmp_path_factory, simulation: int):
    base = tmp_path_factory.mktemp(f"preset{simulation}")
    runs = []
    for seed in SEEDS:
        config = preset_config(simulation, seed=seed, output_dir=base / f"seed{seed}")
        started = time.perf_counter()
        record = run_experiment(config)
        elapsed = time.perf_counter() - started
        runs.append((config, record, elapsed))
    return runs


@pytest.fixture(scope="module")
def preset1_runs(tmp_path_factory):
    return _preset_sweep(tmp_path_factory, 1)


@pytest.fixture(scope="module")
def preset3_runs(tmp_path_factory):
    return _preset_sweep(tmp_path_factory, 3)


def test_criterion_01_straight_beam_matches_closed_form(material, section):
    started = time.perf_counter()
    geometry = straight_beam_geometry(length=1.2, n_elements=12)
    system = assemble(geometry, np.full(12, 7.2e10), material, section)
    eigenvalues, shapes = solve_generalized_eigen(system.k_global, system.m_global)
    frequencies = frequencies_from_eigenvalues(eigenvalues)

    soft = []
    for i in range(6, len(frequencies)):
        translations = shapes[:, i].reshape(-1, 6)[:, :3]
        fraction = np.sum(translations[:, 1] ** 2) / np.sum(translations**2)
        if fraction > 0.99:
            soft.append(frequencies[i])
    elapsed = time.perf_counter() - started

    analytic = (
        BETA_L**2
        / (2.0 * np.pi * 1.2**2)
        * np.sqrt(7.2e10 * section.i_strong / (material.density * section.area))
    )
    errors = np.abs(np.array(soft[:3]) - analytic) / analytic
    ok = len(soft) >= 3 and np.all(errors < 0.01) and elapsed < 1.0
    report(
        1,
        ok,
        f"bending modes {np.round(soft[:3], 2).tolist()} Hz vs closed form "
        f"{np.round(analytic, 2).tolist()} Hz, worst {errors.max():.2%}, {elapsed:.2f}s",
    )
    assert len(soft) >= 3
    assert np.all(errors < 0.01)
    assert elapsed < 1.0


def test_criterion_02_six_rigid_body_modes(geometry, material, section, nominal_moduli):
    system = assemble(geometry, nominal_moduli, material, section)
    eigenvalues, _ = solve_generalized_eigen(system.k_global, system.m_global)
    threshold = 1e-6 * eigenvalues[6]
    n_small = int(np.sum(eigenvalues < threshold))

    k = system.k_global
    k_norm = np.linalg.norm(k, 2)
    worst = 0.0
    for phi in rigid_body_basis(geometry.nodes):
        ratio = np.linalg.norm(k @ phi) / (k_norm * np.linalg.norm(phi))
        worst = max(worst, ratio)

    ok = n_small == 6 and worst <= 1e-8
    report(
        2,
        ok,
        f"{n_small} eigenvalues under 1e-6 x seventh, "
        f"explicit rigid vectors worst ratio {worst:.2e}",
    )
    assert n_small == 6
    assert worst <= 1e-8


def test_criterion_03_quadrupled_moduli_double_frequencies(
    geometry, material, section, nominal_moduli
):
    base = natural_frequencies(
        assemble(geometry, nominal_moduli, material, section)
    ).frequencies_hz
    scaled = natural_frequencies(
        assemble(geometry, 4.0 * nominal_moduli, material, section)
    ).frequencies_hz
    ratios = scaled[6:] / base[6:]
    worst = np.abs(ratios - 2.0).max()
    ok = worst < 1e-9 * 2.0
    report(3, ok, f"elastic frequency ratio 2 within {worst / 2.0:.2e} relative")
    assert worst < 1e-9 * 2.0


def test_criterion_04_objective_identities():
    rng = np.random.default_rng(2024)
    worst_identity = 0.0
    increment_breaks = 0
    checked = 0
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-7, 3)
        r = rng.normal(scale=scale, size=5)
        d = int(rng.integers(1, 6))
        out = aic(r, d)
        if out.sigma_squared > SIGMA_SQ_FLOOR:
            implied = out.n * math.log(2.0 * sse(r).value / out.n) + 2.0 * d
            err = abs(out.value - implied) / max(1.0, abs(out.value))
            worst_identity = max(worst_identity, err)
            checked += 1
        if d < 5 and aic(r, d + 1).value - out.value != 2.0:
            increment_breaks += 1
    # the exact-increment contract also covers the floored branch
    for d in range(1, 5):
        if aic(np.zeros(5), d + 1).value - aic(np.zeros(5), d).value != 2.0:
            increment_breaks += 1

    ok = worst_identity <= 1e-12 and increment_breaks == 0
    report(
        4,
        ok,
        f"identity worst {worst_identity:.2e} over {checked} vectors, "
        f"{increment_breaks} exact-increment violations",
    )
    assert worst_identity <= 1e-12
    assert increment_breaks == 0


def test_criterion_05_nominal_spectrum_inside_measurement_band(
    geometry, material, section, nominal_moduli
):
    started = time.perf_counter()
    result = natural_frequencies(assemble(geometry, nominal_moduli, material, section))
    elapsed = time.perf_counter() - started
    computed = result.frequencies_hz[np.array(MEASURED_RANKS) - 1]
    errors = np.abs(computed - MEASURED_HZ) / MEASURED_HZ
    ok = bool(np.all(errors < 0.20) and elapsed < 1.0)
    report(
        5,
        ok,
        f"ranks {list(MEASURED_RANKS)} -> {np.round(computed, 1).tolist()} Hz, "
        f"worst deviation {errors.max():.1%}, solve {elapsed * 1e3:.0f}ms",
    )
    assert np.all(errors < 0.20)
    assert elapsed < 1.0


def test_criterion_06_sphere_reduction(sphere_runs):
    reductions = []
    slow = 0
    for _, record, elapsed in sphere_runs:
        ratio = record.rows[-1, 3] / record.initial_gbest_fitness
        reductions.append(ratio)
        if elapsed >= 1.0:
            slow += 1
    hits = sum(1 for r in reductions if r <= 1e-3)
    ok = hits == 10 and slow == 0
    report(
        6,
        ok,
        f"{hits}/10 seeds reduced gbest by 1e3+, worst ratio {max(reductions):.2e}, "
        f"{slow} runs over 1s",
    )
    assert hits == 10
    assert slow == 0


def test_criterion_07_model_selection_outcomes(preset1_runs, preset3_runs):
    p1_winners = [int(record.rows[-1, 2]) for _, record, _ in preset1_runs]
    p1_m1 = sum(1 for w in p1_winners if w == 1)
    p3_first = [record.ranking[0] for _, record, _ in preset3_runs]
    p3_low_d = sum(1 for entry in p3_first if entry.d <= 2)
    slow = sum(
        1 for _, _, elapsed in preset1_runs + preset3_runs if elapsed >= 120.0
    )

    clause_a = p1_m1 > 5
    clause_b = p3_low_d > 5
    ok = clause_a and clause_b and slow == 0
    report(
        7,
        ok,
        f"no-inertia AIC winner tally {sorted(p1_winners)} (m1 in {p1_m1}/10), "
        f"adaptive AIC low-d first in {p3_low_d}/10, {slow} runs over 2min",
    )
    assert slow == 0
    assert clause_b, f"d<=2 model ranked first in only {p3_low_d}/10 adaptive runs"
    assert clause_a, (
        f"m1 won {p1_m1}/10 no-inertia AIC runs "
        f"(winners {sorted(p1_winners)}); strict majority required"
    )


def test_criterion_07_m1_optimum_is_the_least_squares_scale(preset1_runs):
    # Why clause a of criterion 7 fails. m1 scales every modulus by one E,
    # so K scales by E and every frequency by sqrt(E): f(E) = s f(E0) with
    # s = sqrt(E / E0). The SSE, and with it the AIC, is least at the
    # least-squares scale s* = <f_measured, f(E0)> / |f(E0)|^2 (clamped to
    # the search box, where the SSE is convex in s). No search can take m1
    # below that AIC, and every preset 1 winner is below it.
    evaluator, m1 = ModelEvaluator(), model_catalog()[0]
    config = preset1_runs[0][0].swarm
    e0 = 7.2e10
    nominal = evaluator.spectrum(np.full(12, e0)).frequencies_hz[evaluator._ranks]
    measured = evaluator.measured.frequencies_hz
    scale = (measured @ nominal) / (nominal @ nominal)
    best = np.zeros(5)
    best[0] = np.clip(e0 * scale**2, config.m_min, config.m_max)
    closed = evaluator.evaluate(m1, best, "AIC").value
    grid = np.zeros((2001, 5))
    grid[:, 0] = np.linspace(config.m_min, config.m_max, len(grid))
    scanned = evaluator.evaluate_batch((m1,) * len(grid), grid, "AIC")[0].value.min()
    assert config.m_min < best[0] < config.m_max
    assert closed <= scanned < closed + 1e-5
    for _, record, _ in preset1_runs:
        (m1_entry,) = [entry for entry in record.ranking if entry.model_id == 1]
        assert m1_entry.fitness >= closed
        assert record.ranking[0].fitness < closed


def test_criterion_08_convergence_before_budget(preset3_runs):
    converged = [record.converged_at for _, record, _ in preset3_runs]
    hits = sum(1 for c in converged if c < 500)
    ok = hits >= 8
    report(8, ok, f"{hits}/10 adaptive runs settled early, converged_at {converged}")
    assert hits >= 8


def test_criterion_09_byte_identical_reruns(tmp_path):
    config_a = preset_config(2, seed=0, output_dir=tmp_path / "first")
    config_b = preset_config(2, seed=0, output_dir=tmp_path / "second")
    run_experiment(config_a)
    run_experiment(config_b)
    same = True
    for name in ("convergence.csv", "result.json"):
        if (config_a.output_dir / name).read_bytes() != (
            config_b.output_dir / name
        ).read_bytes():
            same = False
    report(9, same, "convergence.csv and result.json byte-identical across reruns")
    assert same


def _assert_trace_invariants(config, record, fitness):
    """Monotone gbest, position and velocity containment, and agreement
    between the stored trace and a fresh stepwise replay."""
    values = [record.initial_gbest_fitness] + record.rows[:, 3].tolist()
    assert all(b <= a for a, b in zip(values, values[1:])), "gbest regressed"

    positions = record.rows[:, 12:]
    assert np.all((config.m_min <= positions) & (positions <= config.m_max))

    rng = RngStream(config.seed)
    state = init_swarm(config, model_catalog(), rng, fitness)
    for row in record.rows:
        used_w = inertia_schedule(config, state.iteration)
        state = step(state, config, fitness, rng)
        assert row[0] == state.iteration
        assert row[1] == used_w
        assert row[3] == state.gbest_fitness
        assert row[2] == state.gbest_model_id
        assert np.array_equal(row[4:12], state.pbest_fitness, equal_nan=True)
        assert np.array_equal(row[12:], state.position.ravel())
        magnitudes = np.abs(state.velocity)
        assert np.all(magnitudes >= config.v_min)
        assert np.all(magnitudes <= config.v_max)


def _assert_inactive_dims_inert(record, fitness_of):
    catalog = {m.model_id: m for m in model_catalog()}
    for entry in record.ranking:
        if math.isnan(entry.fitness):
            continue
        model = catalog[entry.model_id]
        position = np.asarray(entry.position)
        zeroed = position.copy()
        zeroed[model.d :] = 0.0
        assert fitness_of(model, position) == fitness_of(model, zeroed)


def test_criterion_10_invariants_on_all_traces(sphere_runs, preset1_runs, preset3_runs):
    evaluator = ModelEvaluator()

    checked = 0
    for config, record, _ in sphere_runs:
        _assert_trace_invariants(config, record, sphere_fitness)

        def sphere_of(model, position):
            active = position[: model.d]
            return float(np.sum(active * active))

        _assert_inactive_dims_inert(record, sphere_of)
        checked += 1

    for config, record, _ in preset1_runs + preset3_runs:
        swarm = config.swarm
        kind = swarm.objective_kind

        def fem_fitness(models, positions, threshold=None):
            # The replay steps: each call scores a window of one iteration.
            score, errors = evaluator.evaluate_batch(models, positions[0], kind)
            return score.value, errors

        _assert_trace_invariants(swarm, record, fem_fitness)
        _assert_inactive_dims_inert(
            record, lambda model, position: evaluator.evaluate(model, position, kind)
        )
        checked += 1

    report(
        10,
        checked == 30,
        f"monotonicity, bounds, and inactive-dimension inertness held on "
        f"{checked}/30 traces (replayed stepwise)",
    )
    assert checked == 30
