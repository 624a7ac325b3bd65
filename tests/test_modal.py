import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NOMINAL_AIC,
    NOMINAL_SIGMA_SQUARED,
    NOMINAL_SSE,
    straight_beam_geometry,
)
from femselect import runner
from femselect.beam_structure import element_modulus_vector
from femselect.fem import ElementMatrices, GlobalSystem, assemble
from femselect.modal import (
    RESIDUAL_TOLERANCE,
    RIGID_BODY_RATIO,
    RIGID_MODES,
    ConvergenceError,
    DecompositionError,
    EigenSolveError,
    ModalResult,
    StructureError,
    frequencies_from_eigenvalues,
    generalized_eigenvalues,
    mirror_partners,
    mirror_standard_form,
    natural_frequencies,
    planar_dof_split,
    planar_standard_form,
    rigid_body_count,
    rigid_mode_errors,
    select_modes,
    solve_generalized_eigen,
)

BETA_L = np.array([4.7300407, 7.8532046, 10.9956078])


@pytest.fixture(scope="module")
def h_system(geometry, material, section, nominal_moduli):
    return assemble(geometry, nominal_moduli, material, section)


def random_spd_pair(rng, n):
    a = rng.normal(size=(n, n))
    k = a @ a.T + 0.1 * np.eye(n)
    b = rng.normal(size=(n, n))
    m = b @ b.T + n * np.eye(n)
    return k, m


class TestRigidBodyCount:
    def test_six_small_eigenvalues(self):
        eig = np.array([1e-9, 2e-9, 3e-9, 4e-9, 5e-9, 6e-9, 100.0, 200.0])
        assert rigid_body_count(eig) == 6

    def test_no_small_eigenvalues(self):
        assert rigid_body_count(np.linspace(1.0, 10.0, 20)) == 0

    def test_short_spectrum_counts_zero(self):
        assert rigid_body_count(np.zeros(6)) == 0

    def test_threshold_is_relative_to_seventh(self):
        eig = np.array([0.9e-6, 1.1e-6, 2e-6, 3e-6, 4e-6, 5e-6, 1.0, 2.0])
        # threshold = 1e-6 * 1.0, strict comparison
        assert rigid_body_count(eig) == 1

    def test_scale_invariance(self):
        eig = np.array([1e-12] * 6 + [1.0] * 10)
        assert rigid_body_count(eig) == rigid_body_count(eig * 1e8) == 6


class TestRigidModeErrors:
    def test_two_columns_name_the_rows_the_full_count_rejects(self):
        # Ascending spectra around t = 1e-6 lam[6]: six, five, lam[5] = t
        # itself (five), lam[6] < 0 so t < 0 (seven, and eight), lam[6] = 0
        # so t = 0 (six below it), and a failed solve (nan). Every row is
        # judged as `rigid_body_count` counts it, alone and in the stack.
        spectra = np.tile(np.concatenate([np.zeros(6), np.geomspace(1e3, 1e7, 14)]), (8, 1))
        spectra[0, :6] = np.linspace(-1e-4, 1e-4, 6)
        spectra[1, 5] = 1e-3 * spectra[1, 6]
        spectra[2, 5] = RIGID_BODY_RATIO * spectra[2, 6]
        spectra[3, :7] = np.arange(-7.0, 0.0)
        spectra[4, :8] = -np.arange(8.0, 0.0, -1.0) * 1e-9
        spectra[5, :7] = [-6e-9, -5e-9, -4e-9, -3e-9, -2e-9, -1e-9, 0.0]
        spectra[6, :] = np.arange(1.0, 21.0)
        spectra[7] = math.nan
        assert np.all(np.diff(spectra[:7], axis=1) >= 0.0)
        counts = [rigid_body_count(row) for row in spectra]
        assert counts == [6, 5, 5, 7, 8, 6, 0, 0]
        expected = {i: n for i, n in enumerate(counts) if n != 6}
        errors = rigid_mode_errors(spectra)
        assert list(errors) == list(expected)
        for i, error in errors.items():
            assert type(error) is StructureError
            assert str(error) == f"expected 6 rigid-body modes, found {expected[i]}"
        for i, row in enumerate(spectra):
            alone = {j: str(e) for j, e in rigid_mode_errors(row[None]).items()}
            assert alone == ({0: str(errors[i])} if i in expected else {})


class TestSolver:
    def test_matches_general_driver_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for n in (4, 9, 16):
            k, m = random_spd_pair(rng, n)
            eigenvalues, _ = solve_generalized_eigen(k, m)
            reference = np.sort(scipy.linalg.eig(k, m, right=False).real)
            np.testing.assert_allclose(eigenvalues, reference, rtol=1e-8, atol=1e-10)

    def test_mass_orthonormal_vectors(self):
        rng = np.random.default_rng(5)
        k, m = random_spd_pair(rng, 12)
        _, vectors = solve_generalized_eigen(k, m)
        np.testing.assert_allclose(vectors.T @ m @ vectors, np.eye(12), atol=1e-10)

    def test_eigenvalues_ascend(self):
        rng = np.random.default_rng(2)
        k, m = random_spd_pair(rng, 20)
        eigenvalues, _ = solve_generalized_eigen(k, m)
        assert np.all(np.diff(eigenvalues) >= 0.0)

    def test_residual_contract_on_h_system(self, h_system):
        eigenvalues, vectors = solve_generalized_eigen(h_system.k_global, h_system.m_global)
        n_rigid = rigid_body_count(eigenvalues)
        assert n_rigid == 6
        k, m = h_system.k_global, h_system.m_global
        k_norm = np.linalg.norm(k, 2)
        for i in range(len(eigenvalues)):
            k_phi = k @ vectors[:, i]
            if i < n_rigid:
                assert np.linalg.norm(k_phi) <= 1e-9 * k_norm * np.linalg.norm(vectors[:, i])
            else:
                residual = k_phi - eigenvalues[i] * (m @ vectors[:, i])
                assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(k_phi)

    def test_fast_path_matches_full_solve(self, h_system):
        full, _ = solve_generalized_eigen(h_system.k_global, h_system.m_global)
        blocks = planar_standard_form(h_system.k_global[None], h_system.m_global)[0][0]
        fast = generalized_eigenvalues((blocks,))
        # elastic eigenvalues agree tightly; the rigid cluster is roundoff
        # noise in both drivers, so only its magnitude is checked
        np.testing.assert_allclose(fast[6:], full[6:], rtol=1e-10)
        assert np.all(np.abs(fast[:6]) < RIGID_BODY_RATIO * full[6])
        assert np.all(np.abs(full[:6]) < RIGID_BODY_RATIO * full[6])

    def test_rejects_indefinite_mass(self):
        k = np.eye(4)
        m = np.diag([1.0, 1.0, -1.0, 1.0])
        with pytest.raises(DecompositionError):
            solve_generalized_eigen(k, m)
        with pytest.raises(EigenSolveError):
            solve_generalized_eigen(k, np.zeros((4, 4)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_generalized_eigen(np.eye(3), np.eye(4))
        with pytest.raises(ValueError):
            solve_generalized_eigen(np.ones(3), np.ones(3))

    def test_convergence_error_carries_achieved_ratio(self):
        err = ConvergenceError("residual too large", achieved=3.2e-7)
        assert err.achieved == 3.2e-7
        assert isinstance(err, EigenSolveError)

    @settings(max_examples=25)
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 12))
    def test_property_random_pairs_satisfy_contract(self, seed, n):
        rng = np.random.default_rng(seed)
        k, m = random_spd_pair(rng, n)
        eigenvalues, vectors = solve_generalized_eigen(k, m)
        assert eigenvalues.shape == (n,)
        assert vectors.shape == (n, n)
        residual = k @ vectors - (m @ vectors) * eigenvalues
        k_phi_norm = np.linalg.norm(k @ vectors, axis=0)
        assert np.all(np.linalg.norm(residual, axis=0) <= 1e-9 * k_phi_norm)


class TestPlanarSplit:
    def test_split_partitions_the_dofs(self):
        in_plane, out_of_plane = planar_dof_split(78)
        assert in_plane.size == out_of_plane.size == 39
        assert set(in_plane % 6) == {0, 1, 5}
        assert set(out_of_plane % 6) == {2, 3, 4}
        assert sorted(np.concatenate([in_plane, out_of_plane]).tolist()) == list(range(78))

    def test_h_frame_halves_are_exactly_uncoupled(self, h_system):
        in_plane, out_of_plane = planar_dof_split(78)
        for matrix in (h_system.k_global, h_system.m_global):
            assert np.all(matrix[np.ix_(in_plane, out_of_plane)] == 0.0)

    def test_each_half_keeps_three_rigid_modes(self, h_system):
        blocks = planar_standard_form(h_system.k_global[None], h_system.m_global)[0][0]
        spectrum = generalized_eigenvalues((blocks,))
        threshold = RIGID_BODY_RATIO * spectrum[6]
        for block in blocks:
            assert int(np.sum(np.linalg.eigvalsh(block) < threshold)) == 3

    def test_coupled_mass_rejected(self, h_system):
        m = h_system.m_global.copy()
        m[0, 2] = m[2, 0] = 1e-6
        with pytest.raises(StructureError):
            planar_standard_form(h_system.k_global[None], m)

    def test_coupled_stiffness_rejected(self, h_system):
        k = h_system.k_global.copy()
        k[5, 4] = k[4, 5] = 1.0
        with pytest.raises(StructureError):
            planar_standard_form(k[None], h_system.m_global)

    def test_evaluator_rejects_coupled_mass(self, monkeypatch):
        real_transform = runner.transform_to_global

        def coupled_transform(local, frame):
            mats = real_transform(local, frame)
            m = mats.mass.copy()
            m[0, 3] = m[3, 0] = 1e-9
            return ElementMatrices(stiffness=mats.stiffness, mass=m)

        monkeypatch.setattr(runner, "transform_to_global", coupled_transform)
        with pytest.raises(StructureError):
            runner.ModelEvaluator()

    def test_evaluator_rejects_coupled_stiffness(self, monkeypatch):
        real_transform = runner.transform_to_global

        def coupled_transform(local, frame):
            mats = real_transform(local, frame)
            k = mats.stiffness.copy()
            k[0, 2] = k[2, 0] = 1e-9
            return ElementMatrices(stiffness=k, mass=mats.mass)

        monkeypatch.setattr(runner, "transform_to_global", coupled_transform)
        with pytest.raises(StructureError):
            runner.ModelEvaluator()

    @pytest.mark.parametrize("kind", ["indefinite", "singular"])
    def test_mass_without_full_rank_rejected(self, h_system, kind):
        in_plane, _ = planar_dof_split(78)
        m = h_system.m_global.copy()
        dof = in_plane[4]
        if kind == "indefinite":
            m[dof, dof] = -m[dof, dof]
        else:
            # Project one in-plane direction out: the block stays symmetric
            # and uncoupled but loses rank, and roundoff alone may leave its
            # smallest eigenvalue positive.
            v = np.zeros(78)
            v[in_plane[3]], v[dof] = 1.0, -1.0
            p = np.eye(78) - np.outer(v, v) / 2.0
            m = p @ m @ p
        with pytest.raises(DecompositionError):
            planar_standard_form(h_system.k_global[None], m)

    def test_whitened_blocks_are_exactly_symmetric(self, evaluator):
        for blocks in evaluator._mirror_blocks:
            np.testing.assert_array_equal(blocks, blocks.swapaxes(-1, -2))

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4])
    def test_whitening_matches_triangular_solves(self, evaluator, seed):
        # The reference whitens each half by its mass Cholesky factor with
        # two triangular solves, L^-1 K L^-T; both forms have the
        # eigenvalues of the pair (K, M). A backward-stable symmetric solve
        # errs by a small multiple of eps * ||W||, and ||W|| is about 7e5
        # times the seventh eigenvalue here, so the two forms differ at
        # ranks 7-13 by up to 1.3e-11 relative (0.43 eps ||W|| at most over
        # these six moduli) and are compared on that absolute scale.
        moduli = (
            np.full(12, 7.2e10)
            if seed is None
            else np.random.default_rng(seed).uniform(5.5e10, 7.5e10, 12)
        )
        k = evaluator.stiffness(moduli)
        m = evaluator.m_global
        reference = []
        for b in planar_dof_split(78):
            l_factor = scipy.linalg.cholesky(m[np.ix_(b, b)], lower=True)
            half = scipy.linalg.solve_triangular(l_factor, k[np.ix_(b, b)], lower=True)
            w = scipy.linalg.solve_triangular(l_factor, half.T, lower=True)
            reference.extend(np.linalg.eigvalsh(0.5 * (w + w.T)))
        reference = np.sort(reference)
        blocks = planar_standard_form(k[None], m)[0][0]
        ranks = slice(6, 13)
        np.testing.assert_allclose(
            generalized_eigenvalues((blocks,))[ranks],
            reference[ranks],
            rtol=0.0,
            atol=2.0 * np.finfo(float).eps * reference[-1],
        )

    @pytest.mark.parametrize("model_index", range(8))
    def test_mirror_split_matches_planar_blocks(self, evaluator, catalog, model_index):
        # Ranks 7-13 of the four mirror blocks against the two 39x39
        # planar blocks of the same K, at nominal and at seeded in-box
        # positions; both solves err by a small multiple of eps * ||W||.
        model = catalog[model_index]
        positions = [np.full(5, 7.2e10)] + [
            np.random.default_rng(seed).uniform(5.5e10, 7.5e10, 5) for seed in range(4)
        ]
        ranks = slice(6, 13)
        for position in positions:
            moduli = element_modulus_vector(model, position)
            blocks, _ = planar_standard_form(evaluator.stiffness(moduli)[None], evaluator.m_global)
            reference = generalized_eigenvalues((blocks[0],))
            mirror = (2.0 * np.pi * evaluator.spectrum(model, position).frequencies_hz) ** 2
            np.testing.assert_allclose(
                mirror[ranks],
                reference[ranks],
                rtol=0.0,
                atol=2.0 * np.finfo(float).eps * reference[-1],
            )

    def test_mirror_blocks_keep_the_rigid_modes(self, evaluator, catalog):
        # In-plane: ux symmetric, uy and rz antisymmetric; out-of-plane: uz
        # and ry symmetric, rx antisymmetric.
        spectrum = evaluator.spectrum(catalog[0], np.full(5, 7.2e10))
        threshold = RIGID_BODY_RATIO * (2.0 * np.pi * spectrum.frequencies_hz[6]) ** 2
        counts = []
        for blocks in evaluator._mirror_blocks:
            summed = np.tensordot(np.full(9, 7.2e10), blocks, axes=1)
            counts.append([int(np.sum(np.linalg.eigvalsh(b) < threshold)) for b in summed])
        assert [b.shape[-1] for b in evaluator._mirror_blocks] == [16, 23]
        assert counts == [[1, 1], [2, 2]]

    def test_mode_maps_form_an_m_orthonormal_basis(self, h_system, geometry):
        # Each map R_b B lives on its own plane's rows. Side by side the four
        # form T, and T^T M T = R_b M_b R_b per plane in the orthonormal
        # mirror basis. R_b comes from an `eigh` of M_b with backward error
        # about eps ||M_b||, which R_b M_b R_b carries as about
        # eps kappa(M_b); 39 eps kappa(M_b) bounds it with room to spare
        # (kappa 1.1e5, bound 9.4e-10, measured 7.6e-12).
        whitened, roots = planar_standard_form(h_system.k_global[None], h_system.m_global)
        _, maps = mirror_standard_form(whitened, roots, mirror_partners(geometry)[0])
        in_plane, out_of_plane = planar_dof_split(78)
        # Flat order: in-plane blocks at 0 and 2, out-of-plane at 1 and 3.
        for other_rows, plane_maps in ((out_of_plane, maps[0::2]), (in_plane, maps[1::2])):
            for block_map in plane_maps:
                assert np.all(block_map[other_rows] == 0.0)
        t = np.hstack(maps)
        assert t.shape == (78, 78)
        m = h_system.m_global
        kappa = max(np.linalg.cond(m[np.ix_(b, b)]) for b in (in_plane, out_of_plane))
        np.testing.assert_allclose(
            t.T @ m @ t, np.eye(78), rtol=0.0, atol=39 * np.finfo(float).eps * kappa
        )

    @pytest.mark.parametrize("model_index", range(8))
    def test_eigenpairs_solve_their_blocks(self, evaluator, catalog, model_index):
        # Each eigenvalue's block and vector solve that block, and ranks 7-13
        # are the fitness path's within their error of eps * ||W||.
        for seed in (None, 0, 1):
            position = (
                np.full(5, 7.2e10)
                if seed is None
                else np.random.default_rng(seed).uniform(5.5e10, 7.5e10, 5)
            )
            model = catalog[model_index]
            eigenvalues, blocks, vectors = evaluator.eigenpairs(model, position)
            class_moduli = element_modulus_vector(model, position)[evaluator._classes]
            summed = [
                block
                for stack in evaluator._mirror_blocks
                for block in np.tensordot(class_moduli, stack, axes=1)
            ]
            assert np.all(np.diff(eigenvalues) >= 0.0)
            assert np.bincount(blocks).tolist() == [len(w) for w in summed]
            for lam, b, v in zip(eigenvalues, blocks, vectors):
                assert np.linalg.norm(summed[b] @ v - lam * v) <= 1e-13 * eigenvalues[-1]
            fitness = (2.0 * np.pi * evaluator.spectrum(model, position).frequencies_hz) ** 2
            np.testing.assert_allclose(
                eigenvalues[6:13],
                fitness[6:13],
                rtol=0.0,
                atol=2.0 * np.finfo(float).eps * eigenvalues[-1],
            )

    def test_eigenpairs_report_a_failed_solve_as_convergence_error(
        self, evaluator, catalog, monkeypatch
    ):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError, match="did not converge"):
            evaluator.eigenpairs(catalog[0], np.full(5, 7.2e10))

    def test_evaluator_rejects_a_frame_without_mirror_partners(self, monkeypatch):
        real_geometry = runner.build_h_beam_geometry

        def shifted_geometry():
            geometry = real_geometry()
            nodes = geometry.nodes.copy()
            nodes[12, 1] += 1e-3
            return dataclasses.replace(geometry, nodes=nodes)

        monkeypatch.setattr(runner, "build_h_beam_geometry", shifted_geometry)
        with pytest.raises(StructureError, match="mirror partner"):
            runner.ModelEvaluator()

    def test_evaluator_rejects_mass_that_breaks_the_mirror(self, monkeypatch):
        real_matrices = runner.beam_element_matrices
        calls = []

        def heavier_first_element(**kwargs):
            mats = real_matrices(**kwargs)
            calls.append(None)
            if len(calls) == 1:
                return ElementMatrices(stiffness=mats.stiffness, mass=1.01 * mats.mass)
            return mats

        monkeypatch.setattr(runner, "beam_element_matrices", heavier_first_element)
        with pytest.raises(StructureError, match="mirror coupling"):
            runner.ModelEvaluator()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_evaluator_rejects_non_finite_moduli(self, evaluator, catalog, bad):
        position = np.full(5, 7.2e10)
        position[0] = bad
        with pytest.raises(ValueError):
            evaluator.spectrum(catalog[0], position)

    def test_evaluator_spectrum_matches_dense_solve(self, evaluator, catalog, h_system):
        planar = evaluator.spectrum(catalog[0], np.full(5, 7.2e10))
        dense = natural_frequencies(h_system)
        assert rigid_body_count((2 * np.pi * planar.frequencies_hz) ** 2) == RIGID_MODES
        np.testing.assert_allclose(planar.frequencies_hz[6:], dense.frequencies_hz[6:], rtol=1e-10)


class TestMpmathReference:
    """Both float64 paths against a 40-digit solve of the nominal pair.

    The reference takes the assembled float64 K and the evaluator's M as
    exact inputs, splits them by DOF residue (computed here, not by the
    code under test), and solves each 39x39 half in mpmath: Cholesky of
    the mass block, explicit whitening, Jacobi eigenvalues. About 2 s.
    """

    @pytest.fixture(scope="class")
    def reference(self, evaluator):
        mpmath = pytest.importorskip("mpmath")
        k = evaluator.stiffness(np.full(12, 7.2e10))
        m = evaluator.m_global
        in_plane = [i for i in range(78) if i % 6 in (0, 1, 5)]
        out_of_plane = [i for i in range(78) if i % 6 not in (0, 1, 5)]
        assert np.all(k[np.ix_(in_plane, out_of_plane)] == 0.0)
        assert np.all(m[np.ix_(in_plane, out_of_plane)] == 0.0)
        with mpmath.workdps(40):
            eigenvalues = []
            for dofs in (in_plane, out_of_plane):
                k_half = mpmath.matrix(k[np.ix_(dofs, dofs)].tolist())
                l_inv = mpmath.inverse(mpmath.cholesky(mpmath.matrix(m[np.ix_(dofs, dofs)].tolist())))
                values = mpmath.eigsy(l_inv * k_half * l_inv.T, eigvals_only=True)
                eigenvalues.extend(values[i] for i in range(len(dofs)))
            eigenvalues.sort()
            yield mpmath, eigenvalues

    @staticmethod
    def _worst_relative_error(mpmath, computed, reference, ranks):
        return max(
            float(abs(mpmath.mpf(float(computed[r - 1])) / reference[r - 1] - 1)) for r in ranks
        )

    def test_elastic_ranks_of_both_paths(self, reference, evaluator, catalog):
        # Measured worst relative eigenvalue errors over ranks 7-13 on
        # OpenBLAS 0.3.31 (Haswell kernels): planar 3.9e-13, dense 7.8e-12.
        mpmath, exact = reference
        system = GlobalSystem(
            k_global=evaluator.stiffness(np.full(12, 7.2e10)),
            m_global=evaluator.m_global,
        )
        spectrum = evaluator.spectrum(catalog[0], np.full(5, 7.2e10))
        planar = (2.0 * np.pi * spectrum.frequencies_hz) ** 2
        dense = (2.0 * np.pi * natural_frequencies(system).frequencies_hz) ** 2
        ranks = range(7, 14)
        assert self._worst_relative_error(mpmath, planar, exact, ranks) <= 5e-12
        assert self._worst_relative_error(mpmath, dense, exact, ranks) <= 2e-11

    def test_pinned_nominal_objective(self, reference, measured):
        mpmath, exact = reference
        with mpmath.workdps(40):
            residuals = [
                mpmath.mpf(float(f)) - mpmath.sqrt(exact[r - 1]) / (2 * mpmath.pi)
                for f, r in zip(measured.frequencies_hz, measured.mode_indices)
            ]
            total = mpmath.fsum(r * r for r in residuals)
            sse = total / 2
            sigma_squared = total / len(residuals)
            aic = len(residuals) * mpmath.log(sigma_squared) + 2
        # A last-bit change in the float64 K moves the reference itself: K
        # summed from unit-modulus element stiffnesses gives an SSE 1.9e-13
        # away from that of the element-loop K of fem.assemble.
        assert float(sse) == pytest.approx(NOMINAL_SSE, rel=2e-13)
        assert float(sigma_squared) == pytest.approx(NOMINAL_SIGMA_SQUARED, rel=2e-13)
        assert float(aic) == pytest.approx(NOMINAL_AIC, rel=2e-13)


class TestFrequencies:
    def test_mapping(self):
        eig = np.array([(2 * np.pi * 10.0) ** 2, (2 * np.pi * 2.5) ** 2])
        np.testing.assert_allclose(frequencies_from_eigenvalues(eig), [10.0, 2.5])

    def test_roundoff_negatives_clamp_to_zero(self):
        np.testing.assert_array_equal(
            frequencies_from_eigenvalues(np.array([-1e-8, 0.0])), [0.0, 0.0]
        )


class TestNaturalFrequencies:
    def test_straight_beam_matches_analytical_bending(self, material, section):
        geometry = straight_beam_geometry()
        system = assemble(geometry, np.full(12, 7.2e10), material, section)
        eigenvalues, shapes = solve_generalized_eigen(system.k_global, system.m_global)
        assert rigid_body_count(eigenvalues) == 6
        frequencies = frequencies_from_eigenvalues(eigenvalues)

        # pick out the modes deflecting along global y, the compliant plane
        soft = []
        for i in range(6, len(frequencies)):
            translations = shapes[:, i].reshape(-1, 6)[:, :3]
            fraction = np.sum(translations[:, 1] ** 2) / np.sum(translations**2)
            if fraction > 0.99:
                soft.append(frequencies[i])

        analytic = (
            BETA_L**2
            / (2 * np.pi * 1.2**2)
            * np.sqrt(7.2e10 * section.i_strong / (material.density * section.area))
        )
        np.testing.assert_allclose(soft[:3], analytic, rtol=0.01)

    def test_h_beam_has_six_rigid_modes(self, h_system):
        result = natural_frequencies(h_system)
        assert rigid_body_count((2 * np.pi * result.frequencies_hz) ** 2) == RIGID_MODES
        np.testing.assert_allclose(result.frequencies_hz[:6], 0.0, atol=1e-2)
        assert np.all(np.diff(result.frequencies_hz) >= 0.0)

    def test_h_beam_nominal_spectrum_regression(self, h_system, measured):
        result = natural_frequencies(h_system)
        selected = select_modes(result, measured)
        np.testing.assert_allclose(
            selected,
            [56.138239, 127.310193, 224.763536, 264.171059, 455.196343],
            rtol=1e-6,
        )

    def test_constrained_system_is_rejected(self, h_system):
        # shifting K by alpha*M moves every eigenvalue up by alpha, which
        # destroys the rigid-body cluster
        shifted = GlobalSystem(
            k_global=h_system.k_global + 1e6 * h_system.m_global,
            m_global=h_system.m_global,
        )
        with pytest.raises(StructureError):
            natural_frequencies(shifted)


class TestSelectModes:
    def test_picks_measured_ranks(self, measured):
        result = ModalResult(frequencies_hz=np.arange(1.0, 21.0))
        np.testing.assert_array_equal(
            select_modes(result, measured), [7.0, 8.0, 10.0, 11.0, 13.0]
        )

    def test_requires_enough_modes(self, measured):
        result = ModalResult(frequencies_hz=np.arange(1.0, 13.0))
        with pytest.raises(ValueError):
            select_modes(result, measured)


class TestConfig:
    def test_defaults(self):
        assert RESIDUAL_TOLERANCE == 1e-9

    def test_ratio_constant(self):
        assert RIGID_BODY_RATIO == 1e-6
