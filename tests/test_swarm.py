import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femselect import swarm
from femselect.beam_structure import model_catalog
from femselect.modal import ConvergenceError
from femselect.runner import preset_config, render_convergence_csv, run_experiment
from femselect.swarm import (
    RngStream,
    SwarmConfig,
    SwarmState,
    _window,
    clamp_velocity,
    inertia_schedule,
    init_swarm,
    run,
    step,
)


def quad_value(model, position) -> float:
    """Cheap deterministic stand-in: quadratic bowl over the active
    coordinates, minimum at 6.5e10."""
    x = position[: model.d]
    return float(np.sum(((x - 6.5e10) / 1.0e10) ** 2))


def window_rows(models, positions):
    """(model, position) of each row of a (k, P, 5) window, in row order
    i P + p; (P, 5) positions are a window of one."""
    window = np.reshape(positions, (-1, len(models), 5))
    return [(model, x) for iteration in window for model, x in zip(models, iteration)]


def quad_fitness(models, positions, threshold=None):
    return np.array([quad_value(m, x) for m, x in window_rows(models, positions)]), {}


def constant_fitness(models, positions, threshold=None):
    return np.ones(np.size(positions) // 5), {}


def flaky_fitness(models, positions, threshold=None):
    """quad_fitness, except that model 3 always fails to solve."""
    values, _ = quad_fitness(models, positions)
    errors = {
        r: ConvergenceError("synthetic blowup")
        for r, (m, _) in enumerate(window_rows(models, positions))
        if m.model_id == 3
    }
    return values, errors


def noisy_fitness(models, positions, threshold=None):
    """Row by row: quad_value plus noise drawn from the bits of each
    position, and a ConvergenceError for about one row in 25."""
    values, errors = [], {}
    for r, (model, x) in enumerate(window_rows(models, positions)):
        u = np.random.default_rng(x.view(np.uint64).tolist()).random()
        values.append(quad_value(model, x) + 10.0 * u)
        if u < 0.04:
            errors[r] = ConvergenceError("synthetic noise")
    return np.array(values), errors


class PresetNormalsRng(RngStream):
    """Forces every initial normal draw to one value; all other draws
    follow the seeded stream."""

    def __init__(self, q: float):
        super().__init__(0)
        self._q = q

    def normals(self, n: int) -> np.ndarray:
        return np.full(n, self._q)


class PresetPairsRng(RngStream):
    def __init__(self, pairs):
        super().__init__(0)
        self._pairs = np.asarray(pairs, dtype=float)

    def uniform_pairs(self, count: int) -> np.ndarray:
        return np.broadcast_to(self._pairs, (count, 5, 2))


class TestSwarmConfig:
    def test_defaults(self):
        config = SwarmConfig()
        assert config.c1 == 2.0 and config.c2 == 2.0
        assert config.n_iterations == 500
        assert config.w_start == 1.2 and config.w_end == 0.4 and config.w_f == 0.5
        assert config.inertia_mode == "adaptive"
        assert config.m_max == 7.5e10 and config.m_min == 5.5e10
        assert config.v_max == 2.0e10 and config.v_min == 1.0e9
        assert config.init_mean == 7.2e10
        assert config.init_std == pytest.approx(7.0710678118654755e9)
        assert config.objective_kind == "AIC"
        assert config.seed == 0
        assert config.legacy_inertia_decrement is False
        config.validate()

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SwarmConfig().c1 = 3.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("c1", -0.5),
            ("c2", -2.0),
            ("n_iterations", 0),
            ("inertia_mode", "linear"),
            ("w_f", 0.0),
            ("w_f", 1.5),
            ("w_end", 1.3),
            ("w_end", -0.1),
            ("m_min", 8.0e10),
            ("c1", 1.0e308),
            ("w_start", 1.0e300),
            ("v_min", 0.0),
            ("v_min", 3.0e10),
            ("init_std", 0.0),
            ("objective_kind", "BIC"),
            ("seed", -1),
        ],
    )
    def test_validate_names_offending_field(self, field, value):
        config = dataclasses.replace(SwarmConfig(), **{field: value})
        with pytest.raises(ValueError) as excinfo:
            config.validate()
        assert str(excinfo.value).split()[0] == field

    @pytest.mark.parametrize(
        "bounds",
        [
            {"m_min": 1e308, "m_max": 1.5e308, "init_mean": 1.2e308},
            {"m_min": -1.5e308, "m_max": -1e308, "init_mean": -1.2e308},
        ],
    )
    def test_validate_names_v_max_when_the_position_update_overflows(self, bounds):
        # The velocity bound itself is finite here; only position + velocity
        # leaves the float range.
        config = dataclasses.replace(
            SwarmConfig(), v_max=1e308, v_min=1.0, c1=0.1, c2=0.1, **bounds
        )
        with pytest.raises(ValueError) as excinfo:
            config.validate()
        assert str(excinfo.value).split()[0] == "v_max"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("c1", math.nan),
            ("v_max", math.inf),
            ("init_std", math.inf),
            ("m_min", -math.inf),
            ("w_start", "1.2"),
            ("c2", True),
            ("n_iterations", "5"),
            ("n_iterations", 5.0),
            ("seed", 1.5),
            ("legacy_inertia_decrement", 1),
        ],
    )
    def test_validate_rejects_wrong_type_or_non_finite(self, field, value):
        config = dataclasses.replace(SwarmConfig(), **{field: value})
        with pytest.raises(ValueError) as excinfo:
            config.validate()
        assert str(excinfo.value).split()[0] == field

    def test_validate_accepts_numpy_scalars(self):
        SwarmConfig(c1=np.float64(1.5), seed=np.int64(3), n_iterations=np.int32(4)).validate()

    def test_legacy_decrement_needs_more_iterations_than_w_f(self):
        config = SwarmConfig(n_iterations=1, w_f=1.0, legacy_inertia_decrement=True)
        with pytest.raises(ValueError) as excinfo:
            config.validate()
        assert str(excinfo.value).split()[0] == "w_f"
        SwarmConfig(n_iterations=2, w_f=1.0, legacy_inertia_decrement=True).validate()

    def test_inertia_none_skips_weight_constraints(self):
        SwarmConfig(inertia_mode="none", w_f=0.0, w_end=5.0).validate()


class TestInertiaSchedule:
    def test_mode_none_is_unity(self):
        config = SwarmConfig(inertia_mode="none")
        assert inertia_schedule(config, 0) == 1.0
        assert inertia_schedule(config, 499) == 1.0

    def test_adaptive_default_walk(self):
        config = SwarmConfig()
        assert inertia_schedule(config, 0) == 1.2
        assert inertia_schedule(config, 1) == pytest.approx(1.2 - 0.0032, abs=1e-15)
        assert inertia_schedule(config, 249) == pytest.approx(0.4032, abs=1e-12)
        assert inertia_schedule(config, 250) == 0.4
        assert inertia_schedule(config, 499) == 0.4

    def test_decay_window_closes_exactly_on_w_end(self):
        config = SwarmConfig(n_iterations=10, w_f=0.5)
        values = [inertia_schedule(config, i) for i in range(10)]
        np.testing.assert_allclose(
            values, [1.2, 1.04, 0.88, 0.72, 0.56, 0.4, 0.4, 0.4, 0.4, 0.4], atol=1e-15
        )

    def test_legacy_decrement_plateaus_above_w_end(self):
        config = SwarmConfig(legacy_inertia_decrement=True)
        dec = (1.2 - 0.4) / (500 - 0.5)
        assert inertia_schedule(config, 1) == pytest.approx(1.2 - dec, abs=1e-15)
        plateau = inertia_schedule(config, 250)
        assert plateau == pytest.approx(1.2 - dec * 250, abs=1e-15)
        assert plateau == pytest.approx(0.79959959959959965, abs=1e-12)
        assert inertia_schedule(config, 499) == plateau
        assert plateau > config.w_end

    @given(i=st.integers(0, 499), j=st.integers(0, 499))
    def test_non_increasing_and_bounded(self, i, j):
        config = SwarmConfig()
        wi, wj = inertia_schedule(config, i), inertia_schedule(config, j)
        assert 0.4 <= wi <= 1.2
        if i < j:
            assert wi >= wj


class TestClampVelocity:
    def test_within_bounds_untouched(self):
        out = clamp_velocity(np.array([1.5e9, -1.8e10]), 1.0e9, 2.0e10)
        np.testing.assert_array_equal(out, [1.5e9, -1.8e10])

    def test_excess_clips_to_v_max(self):
        out = clamp_velocity(np.array([3.0e10, -5.0e10]), 1.0e9, 2.0e10)
        np.testing.assert_array_equal(out, [2.0e10, -2.0e10])

    def test_small_magnitudes_pushed_to_floor(self):
        out = clamp_velocity(np.array([5.0e8, -5.0e8]), 1.0e9, 2.0e10)
        np.testing.assert_array_equal(out, [1.0e9, -1.0e9])

    def test_zero_goes_positive(self):
        out = clamp_velocity(np.array([0.0]), 1.0e9, 2.0e10)
        np.testing.assert_array_equal(out, [1.0e9])

    def test_boundary_values_stay(self):
        out = clamp_velocity(np.array([1.0e9, -1.0e9, 2.0e10]), 1.0e9, 2.0e10)
        np.testing.assert_array_equal(out, [1.0e9, -1.0e9, 2.0e10])

    @given(
        raw=st.lists(
            st.floats(-1e12, 1e12, allow_nan=False), min_size=1, max_size=5
        )
    )
    def test_magnitudes_land_in_band(self, raw):
        out = clamp_velocity(np.array(raw), 1.0e9, 2.0e10)
        assert np.all(np.abs(out) >= 1.0e9)
        assert np.all(np.abs(out) <= 2.0e10)
        nonzero = np.array(raw) != 0.0
        assert np.all(np.sign(out[nonzero]) == np.sign(np.array(raw)[nonzero]))


class TestVelocityAndPosition:
    def moved(self, catalog, config, position, velocity, pbest, gbest, pairs):
        """Row 0's velocity and position after one step in which row 1
        holds the global best at `gbest`."""
        model = catalog[4]  # five active dimensions
        state = SwarmState(
            models=(model, model),
            position=np.array([position, gbest], dtype=float),
            velocity=np.array([velocity, [1.0e9] * 5], dtype=float),
            pbest_position=np.array([pbest, gbest], dtype=float),
            pbest_fitness=np.array([2.0, 1.0]),
            iteration=0,
        )
        after = step(state, config, constant_fitness, PresetPairsRng(pairs))
        return after.velocity[0], after.position[0]

    def test_update_formula(self, catalog):
        velocity, _ = self.moved(
            catalog,
            SwarmConfig(inertia_mode="none"),  # w = 1, c1 = c2 = 2
            position=[6.0e10] * 5,
            velocity=[1.0e9] * 5,
            pbest=[6.5e10] * 5,
            gbest=[7.0e10] * 5,
            pairs=[[0.25, 0.5]] * 5,
        )
        # 1e9 + 2*0.25*5e9 + 2*0.5*1e10 = 1.35e10
        np.testing.assert_allclose(velocity, 1.35e10, rtol=1e-15)

    def test_r1_weighs_pbest_and_r2_weighs_gbest(self, catalog):
        velocity, _ = self.moved(
            catalog,
            SwarmConfig(w_start=0.0, w_end=0.0),  # w = 0
            position=[6.0e10] * 5,
            velocity=[1.0e9] * 5,
            pbest=[6.5e10] * 5,
            gbest=[9.9e10] * 5,
            pairs=[[1.0, 0.0]] * 5,
        )
        # r2 = 0 removes the social term entirely
        np.testing.assert_allclose(velocity, 2.0 * (6.5e10 - 6.0e10), rtol=1e-15)

    def test_inertia_only_flow_hits_floor(self, catalog):
        velocity, _ = self.moved(
            catalog,
            SwarmConfig(w_start=0.3, w_end=0.3),  # w = 0.3
            position=[6.0e10] * 5,
            velocity=[1.0e9] * 5,
            pbest=[6.0e10] * 5,
            gbest=[6.0e10] * 5,
            pairs=[[0.7, 0.9]] * 5,
        )
        # raw 3e8 falls under the magnitude floor
        np.testing.assert_array_equal(velocity, np.full(5, 1.0e9))

    def test_position_advance_and_clamp(self, catalog):
        velocity, position = self.moved(
            catalog,
            SwarmConfig(inertia_mode="none", c1=0.0, c2=0.0),
            position=[7.4e10, 5.6e10, 6.0e10, 6.0e10, 6.0e10],
            velocity=[2.0e10, -2.0e10, 1.0e9, -1.0e9, 0.0],
            pbest=[6.0e10] * 5,
            gbest=[6.0e10] * 5,
            pairs=[[0.5, 0.5]] * 5,
        )
        # the zero velocity is pushed out to the floor before the move
        np.testing.assert_array_equal(velocity, [2.0e10, -2.0e10, 1.0e9, -1.0e9, 1.0e9])
        np.testing.assert_array_equal(
            position, [7.5e10, 5.5e10, 6.1e10, 5.9e10, 6.1e10]
        )


class TestRngStream:
    def test_draws_come_from_one_seeded_stream(self):
        rng = RngStream(99)
        ref = np.random.default_rng(99)
        np.testing.assert_array_equal(rng.normals(3), ref.standard_normal(3))
        np.testing.assert_array_equal(
            rng.magnitudes(2, 1.0e9, 2.0e10), ref.uniform(1.0e9, 2.0e10, 2)
        )
        np.testing.assert_array_equal(
            rng.signs(4), np.where(ref.random(4) < 0.5, -1.0, 1.0)
        )
        np.testing.assert_array_equal(rng.uniform_pairs(3), ref.random((3, 5, 2)))

    def test_same_seed_same_stream(self):
        a, b = RngStream(5), RngStream(5)
        np.testing.assert_array_equal(a.normals(10), b.normals(10))
        np.testing.assert_array_equal(a.uniform_pairs(8), b.uniform_pairs(8))

    @given(seed=st.integers(0, 2**32 - 1), n_particles=st.integers(1, 8))
    def test_one_draw_equals_sequential_particle_draws(self, seed, n_particles):
        batched = RngStream(seed).uniform_pairs(n_particles)
        ref = np.random.default_rng(seed)
        sequential = np.stack([ref.random((5, 2)) for _ in range(n_particles)])
        np.testing.assert_array_equal(batched, sequential)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_iterations=st.integers(1, 20),
        n_particles=st.integers(1, 8),
    )
    def test_one_draw_equals_sequential_iteration_draws(self, seed, n_iterations, n_particles):
        # `run` draws the pairs of every iteration at once after initialization.
        batched = RngStream(seed).uniform_pairs(n_iterations, n_particles)
        rng = RngStream(seed)
        sequential = np.stack([rng.uniform_pairs(n_particles) for _ in range(n_iterations)])
        np.testing.assert_array_equal(batched, sequential)

    def test_signs_are_plus_minus_one(self):
        out = RngStream(1).signs(1000)
        assert set(np.unique(out)) == {-1.0, 1.0}


class TestInitSwarm:
    def test_centred_draw_lands_on_init_mean(self, catalog):
        config = SwarmConfig()
        state = init_swarm(config, catalog, PresetNormalsRng(0.0), quad_fitness)
        for model, position in zip(state.models, state.position):
            np.testing.assert_array_equal(position[: model.d], 7.2e10)

    def test_three_sigma_draw_clamps_to_m_max(self, catalog):
        config = SwarmConfig()
        state = init_swarm(config, catalog, PresetNormalsRng(3.0), quad_fitness)
        for model, position in zip(state.models, state.position):
            np.testing.assert_array_equal(position[: model.d], 7.5e10)

    def test_low_draw_clamps_to_m_min(self, catalog):
        config = SwarmConfig()
        state = init_swarm(config, catalog, PresetNormalsRng(-3.0), quad_fitness)
        for model, position in zip(state.models, state.position):
            np.testing.assert_array_equal(position[: model.d], 5.5e10)

    def test_inactive_dimensions_start_at_zero(self, catalog):
        state = init_swarm(SwarmConfig(), catalog, RngStream(3), quad_fitness)
        for model, position, velocity in zip(state.models, state.position, state.velocity):
            np.testing.assert_array_equal(position[model.d :], 0.0)
            np.testing.assert_array_equal(velocity[model.d :], 0.0)

    def test_velocities_respect_band(self, catalog):
        config = SwarmConfig()
        state = init_swarm(config, catalog, RngStream(17), quad_fitness)
        for model, velocity in zip(state.models, state.velocity):
            active = velocity[: model.d]
            assert np.all(np.abs(active) >= config.v_min)
            assert np.all(np.abs(active) <= config.v_max)

    def test_pbest_seeds_from_first_evaluation(self, catalog):
        state = init_swarm(SwarmConfig(), catalog, RngStream(4), quad_fitness)
        np.testing.assert_array_equal(state.pbest_position, state.position)
        np.testing.assert_array_equal(
            state.pbest_fitness, quad_fitness(state.models, state.position)[0]
        )
        assert state.iteration == 0

    def test_gbest_is_the_best_initial_pbest(self, catalog):
        state = init_swarm(SwarmConfig(), catalog, RngStream(4), quad_fitness)
        best = int(np.argmin(state.pbest_fitness))
        assert state.gbest == best
        assert state.gbest_fitness == state.pbest_fitness.min()
        assert state.gbest_model_id == state.models[best].model_id
        np.testing.assert_array_equal(state.gbest_position, state.pbest_position[best])

    def test_tied_start_gives_the_global_best_to_fewer_parameters(self, catalog):
        # m5 (d = 5) comes first in the catalog, m6 (d = 2) wins the tie
        state = init_swarm(SwarmConfig(), (catalog[4], catalog[5]), RngStream(0), constant_fitness)
        assert state.gbest_model_id == 6

    def test_draw_order_matches_documented_contract(self, catalog):
        config = SwarmConfig(seed=31)
        state = init_swarm(config, catalog, RngStream(31), quad_fitness)
        ref = np.random.default_rng(31)
        for model, position, velocity in zip(state.models, state.position, state.velocity):
            d = model.d
            expect_pos = np.clip(
                config.init_mean + ref.standard_normal(d) * config.init_std,
                config.m_min,
                config.m_max,
            )
            expect_vel = ref.uniform(config.v_min, config.v_max, d) * np.where(
                ref.random(d) < 0.5, -1.0, 1.0
            )
            np.testing.assert_array_equal(position[:d], expect_pos)
            np.testing.assert_array_equal(velocity[:d], expect_vel)


class TestStep:
    def test_ties_leave_bests_alone(self, catalog):
        config = SwarmConfig()
        rng = RngStream(0)
        state = init_swarm(config, catalog, rng, constant_fitness)
        after = step(state, config, constant_fitness, rng)
        assert after.iteration == 1
        assert after.gbest_model_id == state.gbest_model_id
        assert after.gbest_fitness == 1.0
        np.testing.assert_array_equal(after.pbest_position, state.pbest_position)

    @staticmethod
    def tied_after_one_step(models):
        """Row 0 improves to 1.0 and ties row 1, which held the global
        best at 1.0."""
        state = SwarmState(
            models=models,
            position=np.full((2, 5), 6.0e10),
            velocity=np.full((2, 5), 1.0e9),
            pbest_position=np.full((2, 5), 6.0e10),
            pbest_fitness=np.array([3.0, 1.0]),
            iteration=0,
        )
        assert state.gbest == 1
        after = step(state, SwarmConfig(), constant_fitness, RngStream(0))
        assert after.pbest_fitness.tolist() == [1.0, 1.0]
        return after

    def test_later_tie_does_not_take_the_global_best(self, catalog):
        # the holder m1 (d = 1) sorts before the tying m2 (d = 2)
        after = self.tied_after_one_step((catalog[1], catalog[0]))
        assert after.gbest == 1

    def test_tie_goes_to_the_row_that_sorts_first(self, catalog):
        # the tying m1 (d = 1) sorts before the holder m2 (d = 2)
        after = self.tied_after_one_step((catalog[0], catalog[1]))
        assert after.gbest == 0
        assert after.gbest_model_id == 1

    def test_inactive_dimensions_snap_to_lower_bound(self, catalog):
        config = SwarmConfig()
        rng = RngStream(8)
        state = init_swarm(config, catalog, rng, quad_fitness)
        state = step(state, config, quad_fitness, rng)
        for model, position in zip(state.models, state.position):
            np.testing.assert_array_equal(position[model.d :], config.m_min)

    def test_failures_leave_pbest_untouched_and_log(self, catalog):
        config = SwarmConfig()
        rng = RngStream(0)
        failures = []
        initial = init_swarm(config, catalog, rng, flaky_fitness, failures)
        state = step(initial, config, flaky_fitness, rng, failures)
        state = step(state, config, flaky_fitness, rng, failures)
        assert math.isnan(state.pbest_fitness[2])
        np.testing.assert_array_equal(state.pbest_position[2], initial.position[2])
        assert [f.iteration for f in failures] == [0, 1, 2]
        assert all(f.model_id == 3 for f in failures)
        assert all("blowup" in f.reason for f in failures)
        healthy = np.delete(state.pbest_fitness, 2)
        assert not np.any(np.isnan(healthy))

    def test_failures_are_logged_in_particle_order(self, catalog):
        def two_fail(models, positions, threshold=None):
            values, _ = quad_fitness(models, positions)
            return values, {5: ConvergenceError("late"), 1: ConvergenceError("early")}

        failures = []
        init_swarm(SwarmConfig(), catalog, RngStream(0), two_fail, failures)
        assert [(f.model_id, f.reason) for f in failures] == [(2, "early"), (6, "late")]

    def test_all_failures_raise(self, catalog):
        def broken(models, positions, threshold=None):
            error = ConvergenceError("nothing works")
            return np.zeros(len(models)), {i: error for i in range(len(models))}

        with pytest.raises(RuntimeError):
            init_swarm(SwarmConfig(), catalog, RngStream(0), broken)

    def test_value_error_aborts(self, catalog):
        def invalid(models, positions, threshold=None):
            raise ValueError("bad position")

        with pytest.raises(ValueError):
            init_swarm(SwarmConfig(), catalog, RngStream(0), invalid)

    def test_constant_velocity_walk_without_attraction(self, catalog):
        config = SwarmConfig(c1=0.0, c2=0.0, inertia_mode="none")
        rng = RngStream(12)
        state = init_swarm(config, catalog, rng, quad_fitness)
        after = step(state, config, quad_fitness, rng)
        for model, before_v, before_p, v, p in zip(
            state.models, state.velocity, state.position, after.velocity, after.position
        ):
            d = model.d
            # with w = 1 and no attraction the active velocity persists
            np.testing.assert_array_equal(v[:d], before_v[:d])
            np.testing.assert_array_equal(
                p[:d], np.clip(before_p[:d] + before_v[:d], config.m_min, config.m_max)
            )

    def test_step_applies_the_schedule_at_its_iteration(self, catalog):
        config = SwarmConfig(n_iterations=10, c1=0.0, c2=0.0)
        rng = RngStream(0)
        state = init_swarm(config, catalog, rng, quad_fitness)
        for _ in range(3):
            w = inertia_schedule(config, state.iteration)
            expected = clamp_velocity(w * state.velocity, config.v_min, config.v_max)
            state = step(state, config, quad_fitness, rng)
            np.testing.assert_array_equal(state.velocity, expected)


class TestRun:
    def test_identical_seeds_identical_records(self):
        config = SwarmConfig(n_iterations=12, seed=21, objective_kind="SSE")
        a = run(config, quad_fitness)
        b = run(config, quad_fitness)
        assert a.rows.shape == (12, 4 + 6 * 8)
        assert np.array_equal(a.rows, b.rows)
        assert a.ranking == b.ranking
        assert a.converged_at == b.converged_at

    def test_matches_independent_replay(self):
        config = SwarmConfig(n_iterations=6, seed=7, objective_kind="SSE")
        record = run(config, quad_fitness)

        catalog = model_catalog()
        ref = np.random.default_rng(7)
        positions, velocities = [], []
        for model in catalog:
            d = model.d
            pos = np.zeros(5)
            pos[:d] = np.clip(
                config.init_mean + ref.standard_normal(d) * config.init_std,
                config.m_min,
                config.m_max,
            )
            vel = np.zeros(5)
            mags = ref.uniform(config.v_min, config.v_max, d)
            signs = np.where(ref.random(d) < 0.5, -1.0, 1.0)
            vel[:d] = signs * mags
            positions.append(pos)
            velocities.append(vel)

        def score(pos, model):
            x = pos[: model.d]
            return float(np.sum(((x - 6.5e10) / 1.0e10) ** 2))

        pbest_pos = [p.copy() for p in positions]
        pbest_fit = [score(p, m) for p, m in zip(positions, catalog)]
        g = int(np.argmin(pbest_fit))
        gbest_pos, gbest_fit = pbest_pos[g].copy(), pbest_fit[g]

        for it in range(1, 7):
            w = inertia_schedule(config, it - 1)
            for i in range(8):
                draws = ref.random((5, 2))
                raw = (
                    w * velocities[i]
                    + config.c1 * draws[:, 0] * (pbest_pos[i] - positions[i])
                    + config.c2 * draws[:, 1] * (gbest_pos - positions[i])
                )
                clipped = np.clip(raw, -config.v_max, config.v_max)
                sign = np.where(clipped >= 0.0, 1.0, -1.0)
                velocities[i] = np.where(
                    np.abs(clipped) < config.v_min, sign * config.v_min, clipped
                )
                positions[i] = np.clip(
                    positions[i] + velocities[i], config.m_min, config.m_max
                )
            for i in range(8):
                s = score(positions[i], catalog[i])
                if s < pbest_fit[i]:
                    pbest_fit[i] = s
                    pbest_pos[i] = positions[i].copy()
            g = int(np.argmin(pbest_fit))
            if pbest_fit[g] < gbest_fit:
                gbest_pos, gbest_fit = pbest_pos[g].copy(), pbest_fit[g]

            row = record.rows[it - 1]
            assert row[0] == it
            assert row[1] == w
            assert np.array_equal(row[12:].reshape(8, 5), positions)
            assert row[3] == gbest_fit

    def test_trace_shape_and_monotone_gbest(self):
        config = SwarmConfig(n_iterations=20, seed=2, objective_kind="SSE")
        record = run(config, quad_fitness)
        assert record.rows[:, 0].tolist() == list(range(1, 21))
        values = [record.initial_gbest_fitness] + record.rows[:, 3].tolist()
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_w_column_follows_schedule(self):
        config = SwarmConfig(n_iterations=10, seed=0, objective_kind="SSE")
        record = run(config, quad_fitness)
        for idx, w in enumerate(record.rows[:, 1]):
            assert w == inertia_schedule(config, idx)

    def test_converged_at_is_last_improvement(self):
        config = SwarmConfig(n_iterations=30, seed=9, objective_kind="SSE")
        record = run(config, quad_fitness)
        last = 0
        previous = record.initial_gbest_fitness
        for iteration, _, _, gbest_fitness in record.rows[:, :4].tolist():
            if gbest_fitness < previous:
                last = iteration
            previous = gbest_fitness
        assert record.converged_at == last

    def test_never_improving_run_reports_zero(self):
        config = SwarmConfig(n_iterations=5, seed=1, objective_kind="SSE")
        record = run(config, constant_fitness)
        assert record.converged_at == 0
        # total tie: ranking falls back to parameter count then model id
        assert [entry.model_id for entry in record.ranking] == [1, 2, 6, 7, 3, 8, 4, 5]

    def test_ranking_sorted_by_fitness(self):
        config = SwarmConfig(n_iterations=15, seed=3, objective_kind="SSE")
        record = run(config, quad_fitness)
        values = [entry.fitness for entry in record.ranking]
        assert values == sorted(values)
        assert sorted(entry.model_id for entry in record.ranking) == list(range(1, 9))

    def test_failing_model_ranks_last_with_nan(self):
        config = SwarmConfig(n_iterations=4, seed=0, objective_kind="SSE")
        record = run(config, flaky_fitness)
        assert record.ranking[-1].model_id == 3
        assert math.isnan(record.ranking[-1].fitness)
        assert np.isnan(record.rows[:, 4 + 2]).all()  # model 3's personal best
        assert len(record.failures) == 5  # init plus four iterations

    def test_smaller_catalog_runs_one_row_per_model(self, catalog):
        config = SwarmConfig(n_iterations=2, objective_kind="SSE")
        record = run(config, quad_fitness, catalog=catalog[:4])
        assert sorted(entry.model_id for entry in record.ranking) == [1, 2, 3, 4]
        assert record.rows.shape == (2, 4 + 6 * 4)

    def test_invalid_config_rejected_before_work(self):
        with pytest.raises(ValueError):
            run(SwarmConfig(seed=-1), quad_fitness)

    @settings(max_examples=15)
    @given(seed=st.integers(0, 10_000))
    def test_invariants_hold_across_seeds(self, seed):
        config = SwarmConfig(n_iterations=4, seed=seed, objective_kind="SSE")
        rng = RngStream(seed)
        state = init_swarm(config, model_catalog(), rng, quad_fitness)
        for _ in range(4):
            state = step(state, config, quad_fitness, rng)
            assert np.all(state.position >= config.m_min)
            assert np.all(state.position <= config.m_max)
            for model, velocity in zip(state.models, state.velocity):
                active = velocity[: model.d]
                assert np.all(np.abs(active) >= config.v_min)
                assert np.all(np.abs(active) <= config.v_max)
            current, _ = quad_fitness(state.models, state.position)
            assert np.all(state.pbest_fitness <= current)
            assert state.gbest_fitness == state.pbest_fitness.min()


class TestWindows:
    K = 8

    def setup_window(self, catalog):
        config = SwarmConfig(n_iterations=20, objective_kind="SSE")
        rng = RngStream(5)
        state = init_swarm(config, catalog, rng, quad_fitness)
        weights = [inertia_schedule(config, i) for i in range(self.K)]
        return config, state, rng.uniform_pairs(self.K, len(catalog)), weights

    @pytest.mark.parametrize("at", [0, 3, 7])  # first, middle and last iteration
    def test_window_ends_at_its_first_improvement(self, catalog, at):
        config, state, pairs, weights = self.setup_window(catalog)
        # Tables of nan: a cell `_window` leaves alone stays nan.
        table = lambda k: np.full((k, 4 + 6 * len(catalog)), np.nan)
        ahead = table(self.K)  # where the particles go when no best changes
        never = lambda models, positions, threshold: (np.tile(threshold + 1.0, len(positions)), {})
        _window(state, config, never, pairs, weights, None, ahead)
        assert not np.isnan(ahead[:, 2:]).any()
        # Particle 0 improves at window iteration `at`, particle 1 fails
        # there, and particle 2 fails one iteration later, which is dropped.
        def from_iteration(first):
            def fitness(models, positions, threshold):
                values, errors = np.tile(threshold + 1.0, len(positions)), {}
                for r in range(len(values)):
                    row = (first + r // len(catalog), r % len(catalog))
                    if row == (at, 0):
                        values[r] = threshold[0] - 1.0
                    if row in ((at, 1), (at + 1, 2)):
                        errors[r] = ConvergenceError("synthetic")
                return values, errors

            return fitness

        windowed = ([], table(self.K))
        after, improved = _window(state, config, from_iteration(0), pairs, weights, *windowed)
        assert improved and after.iteration == at + 1
        stepped, one = ([], table(at + 1)), state
        for i in range(at + 1):
            one, _ = _window(
                one, config, from_iteration(i), pairs[i : i + 1], weights[i : i + 1],
                stepped[0], stepped[1][i : i + 1],
            )
        assert windowed[0] == stepped[0]
        assert np.array_equal(windowed[1][: at + 1], stepped[1], equal_nan=True)
        assert np.array_equal(windowed[1][:at], ahead[:at], equal_nan=True)
        # The iteration and w columns, and the dropped rows, are left alone.
        assert np.isnan(windowed[1][:, :2]).all() and np.isnan(windowed[1][at + 1 :]).all()
        assert [(f.iteration, f.model_id) for f in windowed[0]] == [(at + 1, 2)]
        assert after.pbest_fitness[0] == state.pbest_fitness[0] - 1.0
        for name in ("position", "velocity", "pbest_position", "pbest_fitness"):
            np.testing.assert_array_equal(getattr(after, name), getattr(one, name))

    def test_run_equals_one_iteration_windows(self, monkeypatch):
        config = SwarmConfig(n_iterations=200, seed=3, objective_kind="SSE")
        windows, returned = [], []
        real = swarm._window

        def recorded(state, *args):
            after, improved = real(state, *args)
            windows.append((len(args[3]), after.iteration - state.iteration, improved))
            return after, improved

        def counted(models, positions, threshold):
            values, errors = noisy_fitness(models, positions, threshold)
            returned.append(len(errors))
            return values, errors

        monkeypatch.setattr(swarm, "_window", recorded)
        windowed = run(config, counted)
        monkeypatch.setattr(swarm, "_window", real)
        monkeypatch.setattr(swarm, "WINDOW_MAX", 1)
        stepped = run(config, noisy_fitness)
        assert render_convergence_csv(windowed) == render_convergence_csv(stepped)
        assert windowed.failures == stepped.failures
        assert windowed.converged_at == stepped.converged_at
        assert [e.model_id for e in windowed.ranking] == [e.model_id for e in stepped.ranking]
        # The first improvement of a longer window fell on its first, a
        # middle and its last iteration, and some failure was dropped.
        ends = {kept if kept < k else "last" for k, kept, improved in windows if improved and k > 2}
        assert {1, "last"} <= ends and ends - {1, "last"}
        assert sum(returned) > len(windowed.failures)


class TestTraceTable:
    """`RunRecord.rows` is convergence.csv as numbers: a read-only
    (N, 4 + 6P) table that the rendered file parses back to."""

    def test_rows_are_read_only(self):
        record = run(SwarmConfig(n_iterations=3, objective_kind="SSE"), quad_fitness)
        with pytest.raises(ValueError):
            record.rows[0, 3] = 0.0

    def test_four_models_give_28_columns(self, catalog):
        config = SwarmConfig(n_iterations=7, objective_kind="SSE")
        assert run(config, quad_fitness, catalog=catalog[:4]).rows.shape == (7, 28)

    def test_csv_parses_back_to_the_table_with_nan_bests(self):
        record = run(SwarmConfig(n_iterations=50, seed=4, objective_kind="SSE"), flaky_fitness)
        assert np.isnan(record.rows[:, 4 + 2]).all()
        parsed = np.loadtxt(io.StringIO(render_convergence_csv(record)), delimiter=",", skiprows=1)
        assert np.array_equal(parsed, record.rows, equal_nan=True)

    def test_preset_csv_file_parses_back_to_the_table(self, tmp_path):
        record = run_experiment(preset_config(1, seed=0, output_dir=tmp_path))
        parsed = np.loadtxt(tmp_path / "convergence.csv", delimiter=",", skiprows=1)
        assert parsed.shape == (500, 52)
        assert np.array_equal(parsed, record.rows, equal_nan=True)


class TestSwarmState:
    def test_gbest_position_read_only(self, catalog):
        state = init_swarm(SwarmConfig(), catalog, RngStream(0), quad_fitness)
        with pytest.raises(ValueError):
            state.gbest_position[0] = 1.0

    def test_arrays_read_only(self, catalog):
        state = init_swarm(SwarmConfig(), catalog, RngStream(0), quad_fitness)
        state = step(state, SwarmConfig(), quad_fitness, RngStream(1))
        for name in ("position", "velocity", "pbest_position", "pbest_fitness"):
            with pytest.raises(ValueError):
                getattr(state, name)[0] = 1.0

    def test_wrong_shape_rejected(self, catalog):
        good = {
            "position": np.zeros((2, 5)),
            "velocity": np.zeros((2, 5)),
            "pbest_position": np.zeros((2, 5)),
            "pbest_fitness": np.zeros(2),
        }
        bad_shapes = {
            "position": (2, 4),
            "velocity": (1, 5),
            "pbest_position": (5,),
            "pbest_fitness": (3,),
        }
        for name, shape in bad_shapes.items():
            arrays = {**good, name: np.zeros(shape)}
            with pytest.raises(ValueError, match=name):
                SwarmState(models=tuple(catalog[:2]), iteration=0, **arrays)

    def test_no_scored_particle_rejected(self, catalog):
        with pytest.raises(RuntimeError, match="no particle"):
            SwarmState(
                models=tuple(catalog[:2]),
                position=np.zeros((2, 5)),
                velocity=np.zeros((2, 5)),
                pbest_position=np.zeros((2, 5)),
                pbest_fitness=np.full(2, np.nan),
                iteration=0,
            )
