import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import rigid_body_basis
from femselect.beam_structure import build_h_beam_geometry
from femselect.fem import (
    ElementMatrices,
    assemble,
    beam_element_matrices,
    element_dof_indices,
    expand_frame,
    transform_to_global,
)

E_NOM = 7.2e10
LENGTH = 0.1


@pytest.fixture(scope="module")
def local_mats(section, material):
    return beam_element_matrices(
        E=E_NOM,
        G=material.shear_modulus(E_NOM),
        section=section,
        density=material.density,
        length=LENGTH,
    )


class TestElementMatrices:
    def test_symmetry(self, local_mats):
        np.testing.assert_allclose(local_mats.stiffness, local_mats.stiffness.T)
        np.testing.assert_allclose(local_mats.mass, local_mats.mass.T)

    def test_stiffness_positive_semidefinite_with_six_rigid_modes(self, local_mats):
        eig = np.linalg.eigvalsh(local_mats.stiffness)
        assert eig[0] > -1e-9 * eig[-1]
        assert np.count_nonzero(eig < 1e-9 * eig[-1]) == 6

    def test_mass_positive_definite(self, local_mats):
        eig = np.linalg.eigvalsh(local_mats.mass)
        assert eig[0] > 0.0

    def test_axial_block(self, local_mats, section):
        ea_l = E_NOM * section.area / LENGTH
        k = local_mats.stiffness
        assert k[0, 0] == pytest.approx(ea_l, rel=1e-15)
        assert k[0, 6] == pytest.approx(-ea_l, rel=1e-15)
        assert k[6, 6] == pytest.approx(ea_l, rel=1e-15)

    def test_torsion_block(self, local_mats, section, material):
        gj_l = material.shear_modulus(E_NOM) * section.torsion_constant / LENGTH
        k = local_mats.stiffness
        assert k[3, 3] == pytest.approx(gj_l, rel=1e-15)
        assert k[3, 9] == pytest.approx(-gj_l, rel=1e-15)

    def test_bending_block_width_direction(self, local_mats, section):
        # deflection along local y spreads fibres across the width
        ei = E_NOM * section.i_weak
        k = local_mats.stiffness
        assert k[1, 1] == pytest.approx(12 * ei / LENGTH**3, rel=1e-15)
        assert k[1, 5] == pytest.approx(6 * ei / LENGTH**2, rel=1e-15)
        assert k[5, 5] == pytest.approx(4 * ei / LENGTH, rel=1e-15)
        assert k[5, 11] == pytest.approx(2 * ei / LENGTH, rel=1e-15)
        assert k[1, 7] == pytest.approx(-12 * ei / LENGTH**3, rel=1e-15)

    def test_bending_block_thickness_direction(self, local_mats, section):
        # deflection along local z bends about the width axis, so the
        # rotation coupling switches sign relative to the other plane
        ei = E_NOM * section.i_strong
        k = local_mats.stiffness
        assert k[2, 2] == pytest.approx(12 * ei / LENGTH**3, rel=1e-15)
        assert k[2, 4] == pytest.approx(-6 * ei / LENGTH**2, rel=1e-15)
        assert k[4, 4] == pytest.approx(4 * ei / LENGTH, rel=1e-15)
        assert k[4, 10] == pytest.approx(2 * ei / LENGTH, rel=1e-15)

    def test_local_rigid_motions_cost_nothing(self, local_mats):
        k = local_mats.stiffness
        scale = np.linalg.norm(k, 2)
        positions = np.array([[0.0, 0.0, 0.0], [LENGTH, 0.0, 0.0]])
        for phi in rigid_body_basis(positions):
            assert np.linalg.norm(k @ phi) <= 1e-8 * scale * np.linalg.norm(phi)

    def test_translational_mass_totals(self, local_mats, section, material):
        rho_a_l = material.density * section.area * LENGTH
        m = local_mats.mass
        for axis in range(3):
            t = np.zeros(12)
            t[[axis, axis + 6]] = 1.0
            assert t @ m @ t == pytest.approx(rho_a_l, rel=1e-12)

    def test_rotary_mass_total(self, local_mats, section, material):
        t = np.zeros(12)
        t[[3, 9]] = 1.0
        expected = material.density * section.polar_moment * LENGTH
        assert t @ local_mats.mass @ t == pytest.approx(expected, rel=1e-12)

    def test_consistent_mass_bending_pattern(self, local_mats, section, material):
        rho_a_l = material.density * section.area * LENGTH
        m = local_mats.mass
        assert m[1, 1] == pytest.approx(156 / 420 * rho_a_l, rel=1e-12)
        assert m[1, 7] == pytest.approx(54 / 420 * rho_a_l, rel=1e-12)
        assert m[1, 5] == pytest.approx(22 * LENGTH / 420 * rho_a_l, rel=1e-12)
        assert m[1, 11] == pytest.approx(-13 * LENGTH / 420 * rho_a_l, rel=1e-12)

    def test_stiffness_linear_in_modulus(self, section, material):
        base = beam_element_matrices(
            E=1.0, G=material.shear_modulus(1.0), section=section,
            density=material.density, length=LENGTH,
        )
        scaled = beam_element_matrices(
            E=3.5, G=material.shear_modulus(3.5), section=section,
            density=material.density, length=LENGTH,
        )
        np.testing.assert_allclose(scaled.stiffness, 3.5 * base.stiffness, rtol=1e-14)
        np.testing.assert_allclose(scaled.mass, base.mass)

    def test_rejects_nonpositive_inputs(self, section, material):
        with pytest.raises(ValueError):
            beam_element_matrices(
                E=0.0, G=1.0, section=section, density=1.0, length=LENGTH
            )
        with pytest.raises(ValueError):
            beam_element_matrices(
                E=1.0, G=1.0, section=section, density=1.0, length=0.0
            )


class TestTransform:
    def test_identity_frame_is_a_no_op(self, local_mats):
        out = transform_to_global(local_mats, np.eye(3))
        np.testing.assert_allclose(out.stiffness, local_mats.stiffness)
        np.testing.assert_allclose(out.mass, local_mats.mass)

    def test_rotation_preserves_spectrum(self, local_mats):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[2] *= -1.0
        out = transform_to_global(local_mats, q)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out.stiffness),
            np.linalg.eigvalsh(local_mats.stiffness),
            rtol=1e-9, atol=1e-3,
        )
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out.mass),
            np.linalg.eigvalsh(local_mats.mass),
            rtol=1e-9, atol=1e-12,
        )

    def test_quarter_turn_swaps_bending_planes(self, local_mats):
        # rotating the section 90 degrees about the member axis exchanges
        # the roles of the two principal bending stiffnesses
        quarter = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, -1.0, 0.0],
        ])
        out = transform_to_global(local_mats, quarter)
        k = local_mats.stiffness
        r = out.stiffness
        assert r[1, 1] == pytest.approx(k[2, 2], rel=1e-12)
        assert r[2, 2] == pytest.approx(k[1, 1], rel=1e-12)
        assert r[0, 0] == pytest.approx(k[0, 0], rel=1e-12)
        assert r[3, 3] == pytest.approx(k[3, 3], rel=1e-12)

    def test_expand_frame_is_block_diagonal(self):
        frame = np.eye(3)[[1, 2, 0]]
        t = expand_frame(frame)
        assert t.shape == (12, 12)
        for block in range(4):
            sl = slice(3 * block, 3 * block + 3)
            np.testing.assert_array_equal(t[sl, sl], frame)

    def test_rejects_bad_frames(self):
        with pytest.raises(ValueError):
            expand_frame(np.eye(2))
        with pytest.raises(ValueError):
            expand_frame(2.0 * np.eye(3))
        with pytest.raises(ValueError):
            expand_frame(np.diag([1.0, 1.0, -1.0]))


class TestAssembly:
    def test_dof_indices(self):
        np.testing.assert_array_equal(
            element_dof_indices(2, 5),
            [12, 13, 14, 15, 16, 17, 30, 31, 32, 33, 34, 35],
        )

    def test_shapes_and_symmetry(self, geometry, material, section, nominal_moduli):
        system = assemble(geometry, nominal_moduli, material, section)
        assert system.k_global.shape == (78, 78)
        np.testing.assert_allclose(system.k_global, system.k_global.T)
        np.testing.assert_allclose(system.m_global, system.m_global.T)

    def test_global_stiffness_psd_and_mass_pd(self, geometry, material, section, nominal_moduli):
        system = assemble(geometry, nominal_moduli, material, section)
        k_eig = np.linalg.eigvalsh(system.k_global)
        assert k_eig[0] > -1e-9 * k_eig[-1]
        assert np.linalg.eigvalsh(system.m_global)[0] > 0.0

    def test_free_free_rigid_motions_cost_nothing(self, geometry, material, section, nominal_moduli):
        system = assemble(geometry, nominal_moduli, material, section)
        scale = np.linalg.norm(system.k_global, 2)
        for phi in rigid_body_basis(geometry.nodes):
            assert np.linalg.norm(system.k_global @ phi) <= (
                1e-8 * scale * np.linalg.norm(phi)
            )

    def test_total_mass(self, geometry, material, section, nominal_moduli):
        system = assemble(geometry, nominal_moduli, material, section)
        expected = material.density * section.area * 1.2  # 12 elements x 0.1 m
        for axis in range(3):
            t = np.zeros(78)
            t[axis::6] = 1.0
            assert t @ system.m_global @ t == pytest.approx(expected, rel=1e-12)

    def test_stiffness_linear_in_moduli(self, geometry, material, section, nominal_moduli):
        a = assemble(geometry, nominal_moduli, material, section)
        b = assemble(geometry, 2.0 * nominal_moduli, material, section)
        np.testing.assert_allclose(b.k_global, 2.0 * a.k_global, rtol=1e-14)
        np.testing.assert_allclose(b.m_global, a.m_global)

    def test_stiffness_superposes_over_elements(self, geometry, material, section):
        rng = np.random.default_rng(3)
        m1 = rng.uniform(5.5e10, 7.5e10, size=12)
        m2 = rng.uniform(5.5e10, 7.5e10, size=12)
        k1 = assemble(geometry, m1, material, section).k_global
        k2 = assemble(geometry, m2, material, section).k_global
        k12 = assemble(geometry, m1 + m2, material, section).k_global
        np.testing.assert_allclose(k12, k1 + k2, rtol=1e-12, atol=1e-6)

    def test_single_element_modulus_moves_only_its_dofs(self, geometry, material, section, nominal_moduli):
        bumped = nominal_moduli.copy()
        bumped[6] *= 1.5  # element 7, middle of the crossbar
        base = assemble(geometry, nominal_moduli, material, section).k_global
        after = assemble(geometry, bumped, material, section).k_global
        delta = after - base
        element = geometry.elements[6]
        idx = set(element_dof_indices(element.node_a, element.node_b).tolist())
        rows, cols = np.nonzero(np.abs(delta) > 1e-6)
        assert set(rows.tolist()) <= idx and set(cols.tolist()) <= idx
        assert np.abs(delta).max() > 0.0

    def test_rejects_bad_moduli(self, geometry, material, section):
        with pytest.raises(ValueError):
            assemble(geometry, np.full(11, 7e10), material, section)
        with pytest.raises(ValueError):
            moduli = np.full(12, 7e10)
            moduli[4] = -1.0
            assemble(geometry, moduli, material, section)

    @given(
        moduli=arrays(
            np.float64,
            (12,),
            elements=st.floats(min_value=5.5e10, max_value=7.5e10),
        )
    )
    def test_assembly_invariants_hold_across_the_search_box(self, moduli):
        geometry = build_h_beam_geometry()
        from femselect.beam_structure import h_beam_section, nominal_material

        system = assemble(geometry, moduli, nominal_material(), h_beam_section())
        np.testing.assert_allclose(system.k_global, system.k_global.T)
        eig = np.linalg.eigvalsh(system.k_global)
        assert eig[0] > -1e-9 * eig[-1]
