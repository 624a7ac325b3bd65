import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from femselect.beam_structure import (
    DOF_PER_NODE,
    ELEMENT_COUNT,
    ELEMENT_LENGTH,
    NODE_COUNT,
    SEARCH_DIMS,
    CrossSection,
    Material,
    MeasuredData,
    ModelSpec,
    build_h_beam_geometry,
    element_modulus_vector,
    measured_data,
    model_catalog,
)
from femselect.modal import mirror_partners


class TestGeometry:
    def test_counts(self, geometry):
        assert geometry.n_nodes == NODE_COUNT == 13
        assert len(geometry.elements) == ELEMENT_COUNT == 12
        assert geometry.n_dofs == 13 * DOF_PER_NODE == 78

    def test_all_elements_same_length(self, geometry):
        for element in geometry.elements:
            assert geometry.element_length(element) == pytest.approx(ELEMENT_LENGTH)

    def test_element_ids_are_1_to_12(self, geometry):
        assert [e.element_id for e in geometry.elements] == list(range(1, 13))

    def test_member_extents(self, geometry):
        xs = geometry.nodes[:, 0]
        ys = geometry.nodes[:, 1]
        assert xs.min() == pytest.approx(0.0)
        assert xs.max() == pytest.approx(0.6)
        # left leg spans 0.4 m, right leg 0.2 m, both centred on the crossbar
        left = ys[np.isclose(xs, 0.0)]
        right = ys[np.isclose(xs, 0.6)]
        assert left.min() == pytest.approx(-0.2) and left.max() == pytest.approx(0.2)
        assert right.min() == pytest.approx(-0.1) and right.max() == pytest.approx(0.1)
        assert np.allclose(geometry.nodes[:, 2], 0.0)

    def test_joint_adjacency_matches_group_structure(self, geometry):
        left_joint, right_joint = geometry.joints
        def touching(node):
            return {
                e.element_id
                for e in geometry.elements
                if node in (e.node_a, e.node_b)
            }
        assert touching(left_joint) == {2, 3, 5}
        assert touching(right_joint) == {10, 11, 12}

    def test_structure_is_connected(self, geometry):
        reached = {0}
        frontier = [0]
        adjacency = {}
        for e in geometry.elements:
            adjacency.setdefault(e.node_a, set()).add(e.node_b)
            adjacency.setdefault(e.node_b, set()).add(e.node_a)
        while frontier:
            node = frontier.pop()
            for other in adjacency.get(node, ()):
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
        assert reached == set(range(NODE_COUNT))

    def test_frames_are_proper_rotations(self, geometry):
        for element in geometry.elements:
            f = element.frame
            np.testing.assert_allclose(f @ f.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(f) == pytest.approx(1.0)

    def test_frame_x_axis_runs_along_member(self, geometry):
        for element in geometry.elements:
            delta = geometry.nodes[element.node_b] - geometry.nodes[element.node_a]
            np.testing.assert_allclose(
                element.frame[0], delta / np.linalg.norm(delta), atol=1e-12
            )

    def test_frame_y_axis_points_out_of_plane(self, geometry):
        for element in geometry.elements:
            np.testing.assert_allclose(element.frame[1], [0.0, 0.0, 1.0], atol=1e-12)

    def test_nodes_are_read_only(self, geometry):
        with pytest.raises(ValueError):
            geometry.nodes[0, 0] = 99.0


class TestCrossSection:
    def test_rectangle_properties(self, section):
        assert section.width == 0.0322
        assert section.thickness == 0.0098
        assert section.area == pytest.approx(0.0322 * 0.0098, rel=1e-15)
        assert section.i_strong == pytest.approx(0.0322 * 0.0098**3 / 12, rel=1e-15)
        assert section.i_weak == pytest.approx(0.0322**3 * 0.0098 / 12, rel=1e-15)
        assert section.polar_moment == pytest.approx(section.i_strong + section.i_weak)

    def test_torsion_constant_closed_form(self, section):
        a, b = 0.0322, 0.0098
        expected = a * b**3 * (1 / 3 - 0.21 * (b / a) * (1 - b**4 / (12 * a**4)))
        assert section.torsion_constant == pytest.approx(expected, rel=1e-15)
        assert section.torsion_constant == pytest.approx(8.1665392e-09, rel=1e-6)

    def test_torsion_below_polar_moment(self, section):
        assert 0 < section.torsion_constant < section.polar_moment

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            CrossSection.from_rectangle(0.0, 0.01)
        with pytest.raises(ValueError):
            CrossSection.from_rectangle(0.03, -0.01)

    @given(
        w=st.floats(min_value=1e-3, max_value=1.0),
        t=st.floats(min_value=1e-3, max_value=1.0),
    )
    def test_torsion_constant_bounded_for_any_rectangle(self, w, t):
        section = CrossSection.from_rectangle(w, t)
        assert 0 < section.torsion_constant < section.polar_moment


class TestMaterial:
    def test_nominal_values(self, material):
        assert material.youngs_modulus_mean == 7.2e10
        assert material.density == 2793.0
        assert material.poisson_ratio == 0.33

    def test_shear_modulus(self, material):
        e = 7.2e10
        assert material.shear_modulus(e) == pytest.approx(e / (2 * 1.33), rel=1e-15)

    def test_shear_modulus_scales_linearly(self, material):
        assert material.shear_modulus(2.0) == pytest.approx(2 * material.shear_modulus(1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            Material(youngs_modulus_mean=-1.0)
        with pytest.raises(ValueError):
            Material(density=0.0)
        with pytest.raises(ValueError):
            Material(poisson_ratio=0.5)


class TestModelCatalog:
    def test_eight_models_in_id_order(self, catalog):
        assert [m.model_id for m in catalog] == list(range(1, 9))

    def test_one_catalog_per_process_that_no_caller_can_change(self):
        # Every caller shares the cached tuple, so its specs must be immutable.
        catalog = model_catalog()
        assert model_catalog() is catalog
        for spec in catalog:
            with pytest.raises(dataclasses.FrozenInstanceError):
                spec.d = 3
            with pytest.raises(ValueError, match="read-only"):
                spec.element_dims[0] = 0

    def test_parameter_counts(self, catalog):
        assert [m.d for m in catalog] == [1, 2, 3, 4, 5, 2, 2, 3]

    def test_every_d_is_the_number_of_groups(self, catalog):
        assert all(m.d == len(m.groups) for m in catalog)

    def test_every_model_partitions_the_elements(self, catalog):
        for model in catalog:
            ids = sorted(i for group in model.groups for i in group)
            assert ids == list(range(1, 13))

    def test_groups_are_closed_under_the_mirror(self, geometry, catalog):
        # The fitness path splits K by the mirror y -> -y, which needs
        # mirror partners to share a modulus in every model.
        _, element_partner = mirror_partners(geometry)
        assert sorted(
            (i + 1, int(j) + 1) for i, j in enumerate(element_partner) if i < j
        ) == [(1, 4), (2, 3), (11, 12)]
        for model in catalog:
            for group in model.groups:
                assert {int(element_partner[e - 1]) + 1 for e in group} == group

    def test_model_2_separates_joint_neighbourhoods(self, catalog):
        m2 = catalog[1]
        assert set(m2.groups[0]) == {1, 4, 6, 7, 8, 9}
        assert set(m2.groups[1]) == {2, 3, 5, 10, 11, 12}

    def test_model_5_has_fully_refined_joints(self, catalog):
        m5 = catalog[4]
        assert [set(g) for g in m5.groups] == [
            {1, 4, 6, 7, 8, 9},
            {2, 3},
            {11, 12},
            {5},
            {10},
        ]

    def test_model_6_splits_off_long_leg(self, catalog):
        assert set(catalog[5].groups[0]) == {1, 2, 3, 4}

    def test_model_7_splits_at_crossbar_middle(self, catalog):
        assert set(catalog[6].groups[0]) == {1, 2, 3, 4, 5, 6}

    def test_model_8_three_regions(self, catalog):
        m8 = catalog[7]
        assert [set(g) for g in m8.groups] == [
            {1, 2, 3, 4, 5},
            {6, 7, 8, 9},
            {10, 11, 12},
        ]

    def test_refinement_chain_2_to_5(self, catalog):
        # each of models 3-5 refines the previous partition, so feasible
        # stiffness fields only grow along the chain
        def partition(m):
            return {frozenset(g) for g in m.groups}
        for coarse, fine in [(1, 2), (2, 3), (3, 4)]:
            for group in partition(catalog[fine]):
                assert any(group <= g for g in partition(catalog[coarse]))


class TestModelSpec:
    def test_d_is_derived_from_the_groups(self):
        assert ModelSpec(1, (frozenset(range(1, 13)),)).d == 1
        with pytest.raises(TypeError):
            ModelSpec(1, (frozenset(range(1, 13)),), 1)

    def test_rejects_overlapping_groups(self):
        with pytest.raises(ValueError):
            ModelSpec(1, (frozenset({1, 2}), frozenset(range(2, 13))))

    def test_rejects_incomplete_partition(self):
        with pytest.raises(ValueError):
            ModelSpec(1, (frozenset(range(1, 12)),))


class TestElementModulusVector:
    def test_uniform_model_broadcasts(self, catalog):
        moduli = element_modulus_vector(catalog[0], np.array([6.1e10, 0, 0, 0, 0]))
        np.testing.assert_allclose(moduli, 6.1e10)

    def test_group_mapping(self, catalog):
        m5 = catalog[4]
        position = np.array([1.0, 2.0, 3.0, 4.0, 5.0]) * 1e10
        moduli = element_modulus_vector(m5, position)
        for j, group in enumerate(m5.groups):
            for element_id in group:
                assert moduli[element_id - 1] == position[j]

    def test_rejects_wrong_shape(self, catalog):
        with pytest.raises(ValueError):
            element_modulus_vector(catalog[0], np.array([7.2e10]))

    def test_rejects_nonpositive_active_dimension(self, catalog):
        with pytest.raises(ValueError):
            element_modulus_vector(catalog[1], np.array([7.2e10, -1.0, 0, 0, 0]))

    @given(junk=st.lists(st.floats(-1e12, 1e12, allow_nan=False), min_size=3, max_size=3))
    def test_inactive_dimensions_are_ignored(self, junk):
        m2 = model_catalog()[1]
        base = np.array([6.0e10, 7.0e10, 0.0, 0.0, 0.0])
        noisy = np.array([6.0e10, 7.0e10, *junk])
        np.testing.assert_array_equal(
            element_modulus_vector(m2, base), element_modulus_vector(m2, noisy)
        )


class TestMeasuredData:
    def test_values(self, measured):
        np.testing.assert_allclose(
            measured.frequencies_hz, [53.9, 117.3, 208.4, 254.0, 445.0]
        )
        assert measured.mode_indices == (7, 8, 10, 11, 13)
        assert len(measured.frequencies_hz) == 5

    def test_indices_must_increase(self):
        with pytest.raises(ValueError):
            MeasuredData(np.array([1.0, 2.0]), (5, 5))

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            MeasuredData(np.array([1.0, 2.0, 3.0]), (1, 2))
