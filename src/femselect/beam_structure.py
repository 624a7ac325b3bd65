"""Unsymmetrical H-beam test structure.

Geometry, material data, measured modal targets, and the catalog of eight
competing stiffness parameterizations. A parameterization groups the twelve
beam elements into sets that share one Young's modulus value, so each model
is a point (or manifold) in a five-dimensional modulus search space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ELEMENT_COUNT = 12
NODE_COUNT = 13
DOF_PER_NODE = 6
SEARCH_DIMS = 5
ELEMENT_LENGTH = 0.1  # m, uniform mesh


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float).copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Material:
    """Isotropic aluminium data. `youngs_modulus_mean` is the nominal value
    that particle initialization is centred on; per-element moduli are
    supplied separately at assembly time."""

    youngs_modulus_mean: float = 7.2e10  # N/m^2
    density: float = 2793.0  # kg/m^3
    poisson_ratio: float = 0.33

    def __post_init__(self) -> None:
        if self.youngs_modulus_mean <= 0.0:
            raise ValueError("youngs_modulus_mean must be positive")
        if self.density <= 0.0:
            raise ValueError("density must be positive")
        if not 0.0 < self.poisson_ratio < 0.5:
            raise ValueError("poisson_ratio must lie in (0, 0.5)")

    def shear_modulus(self, youngs_modulus: float) -> float:
        """G for a given E at this material's Poisson ratio."""
        return youngs_modulus / (2.0 * (1.0 + self.poisson_ratio))


@dataclass(frozen=True)
class CrossSection:
    """Rectangular section, 32.2 mm x 9.8 mm.

    `i_strong` is the second moment about the axis parallel to the width
    (fibres spread across the thickness) and drives bending that deflects
    along the thickness direction; `i_weak` is about the axis parallel to
    the thickness and drives in-plane bending.
    """

    width: float
    thickness: float
    area: float
    i_strong: float
    i_weak: float
    torsion_constant: float

    def __post_init__(self) -> None:
        for name in ("width", "thickness", "area", "i_strong", "i_weak"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.torsion_constant < self.i_strong + self.i_weak:
            raise ValueError("torsion_constant must lie in (0, i_strong + i_weak)")

    @property
    def polar_moment(self) -> float:
        """Geometric polar second moment, used for torsional mass inertia."""
        return self.i_strong + self.i_weak

    @classmethod
    def from_rectangle(cls, width: float, thickness: float) -> "CrossSection":
        area = width * thickness
        i_strong = width * thickness**3 / 12.0
        i_weak = width**3 * thickness / 12.0
        # Saint-Venant constant for a solid rectangle, closed-form fit
        a, b = max(width, thickness), min(width, thickness)
        torsion = a * b**3 * (1.0 / 3.0 - 0.21 * (b / a) * (1.0 - b**4 / (12.0 * a**4)))
        return cls(width, thickness, area, i_strong, i_weak, torsion)


def h_beam_section() -> CrossSection:
    """The 32.2 mm x 9.8 mm rectangular section shared by every element."""
    return CrossSection.from_rectangle(0.0322, 0.0098)


def nominal_material() -> Material:
    return Material()


@dataclass(frozen=True)
class BeamElement:
    """Two-node element; `frame` rows are the local axes in global
    coordinates (local x along the member, local y out of the structure
    plane, local z in plane across the member)."""

    element_id: int
    node_a: int
    node_b: int
    frame: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "frame", _readonly(self.frame))


@dataclass(frozen=True)
class BeamGeometry:
    """13 nodes and 12 equal-length elements forming the H.

    The 400 mm left leg (elements 1-4, bottom to top) and the 200 mm right
    leg (elements 11-12) each attach at their own midpoint to an end of the
    600 mm crossbar (elements 5-10, left to right). `joints` holds the two
    shared nodes. All member axes lie in one plane; the 32.2 mm width of
    every section points out of it.
    """

    nodes: np.ndarray
    elements: tuple[BeamElement, ...]
    joints: tuple[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", _readonly(self.nodes))

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_dofs(self) -> int:
        return self.n_nodes * DOF_PER_NODE

    def element_length(self, element: BeamElement) -> float:
        return float(np.linalg.norm(self.nodes[element.node_b] - self.nodes[element.node_a]))


def _member_frame(p_a: np.ndarray, p_b: np.ndarray) -> np.ndarray:
    # Local y points out of the structure plane (global Z), so the section's
    # 32.2 mm width faces out of plane and the 9.8 mm thickness lies in plane.
    # In-plane bending is then the compliant direction, which is what the
    # measured spectrum requires.
    ex = p_b - p_a
    ex = ex / np.linalg.norm(ex)
    ey = np.array([0.0, 0.0, 1.0])
    ez = np.cross(ex, ey)
    return np.vstack([ex, ey, ez])


def build_h_beam_geometry() -> BeamGeometry:
    """Construct the H-beam mesh.

    Node layout: 0-4 left leg bottom to top (node 2 is the left joint),
    5-9 crossbar interior, 10 right joint, 11/12 right leg below/above.
    Element numbering runs 1-2 up the lower left leg, 3-4 up the upper left
    leg, 5-10 along the crossbar, 11-12 up the right leg.
    """
    nodes = np.array(
        [
            [0.0, -0.2, 0.0],
            [0.0, -0.1, 0.0],
            [0.0, 0.0, 0.0],  # left joint
            [0.0, 0.1, 0.0],
            [0.0, 0.2, 0.0],
            [0.1, 0.0, 0.0],
            [0.2, 0.0, 0.0],
            [0.3, 0.0, 0.0],
            [0.4, 0.0, 0.0],
            [0.5, 0.0, 0.0],
            [0.6, 0.0, 0.0],  # right joint
            [0.6, -0.1, 0.0],
            [0.6, 0.1, 0.0],
        ]
    )
    connectivity = [
        (1, 0, 1),
        (2, 1, 2),
        (3, 2, 3),
        (4, 3, 4),
        (5, 2, 5),
        (6, 5, 6),
        (7, 6, 7),
        (8, 7, 8),
        (9, 8, 9),
        (10, 9, 10),
        (11, 11, 10),
        (12, 10, 12),
    ]
    elements = tuple(
        BeamElement(eid, a, b, _member_frame(nodes[a], nodes[b])) for eid, a, b in connectivity
    )
    return BeamGeometry(nodes=nodes, elements=elements, joints=(2, 10))


@dataclass(frozen=True)
class ModelSpec:
    """One competing parameterization: an ordered partition of the element
    ids into `d` groups that share a modulus value."""

    model_id: int
    groups: tuple[frozenset[int], ...]
    d: int
    # The search dimension that feeds each element, in element-id order.
    element_dims: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.d != len(self.groups):
            raise ValueError("d must equal the number of groups")
        all_ids: set[int] = set()
        for group in self.groups:
            if all_ids & group:
                raise ValueError("groups must be disjoint")
            all_ids |= group
        if all_ids != set(range(1, ELEMENT_COUNT + 1)):
            raise ValueError("groups must partition element ids 1..12")
        dims = np.empty(ELEMENT_COUNT, dtype=np.intp)
        for j, group in enumerate(self.groups):
            dims[[element_id - 1 for element_id in group]] = j
        dims.setflags(write=False)
        object.__setattr__(self, "element_dims", dims)


_CATALOG_GROUPS: list[tuple[set[int], ...]] = [
    ({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},),
    ({1, 4, 6, 7, 8, 9}, {2, 3, 5, 10, 11, 12}),
    ({1, 4, 6, 7, 8, 9}, {2, 3, 11, 12}, {5, 10}),
    ({1, 4, 6, 7, 8, 9}, {2, 3}, {11, 12}, {5, 10}),
    ({1, 4, 6, 7, 8, 9}, {2, 3}, {11, 12}, {5}, {10}),
    ({1, 2, 3, 4}, {5, 6, 7, 8, 9, 10, 11, 12}),
    ({1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 11, 12}),
    ({1, 2, 3, 4, 5}, {6, 7, 8, 9}, {10, 11, 12}),
]


def model_catalog() -> tuple[ModelSpec, ...]:
    """All eight competing parameterizations, in id order.

    Model 2 separates the elements adjacent to the two structural joints
    from the rest; model 6 splits off the left leg; model 7 splits the
    structure at the crossbar middle; model 8 keeps left leg plus first
    crossbar element, crossbar interior, and right end as three groups.
    """
    return tuple(
        ModelSpec(i + 1, tuple(frozenset(g) for g in groups), len(groups))
        for i, groups in enumerate(_CATALOG_GROUPS)
    )


def element_modulus_vector(model: ModelSpec, position: np.ndarray) -> np.ndarray:
    """Expand a particle position into the 12 per-element modulus values.

    Dimension j of `position` feeds every element in `model.groups[j]`;
    dimensions beyond `model.d` are ignored.
    """
    position = np.asarray(position, dtype=float)
    if position.shape != (SEARCH_DIMS,):
        raise ValueError(f"position must have shape ({SEARCH_DIMS},)")
    active = position[: model.d]
    if np.any(active <= 0.0):
        raise ValueError("active position dimensions must be positive moduli")
    return position[model.element_dims]


@dataclass(frozen=True)
class MeasuredData:
    """Measured natural frequencies and the 1-based ranks they occupy in the
    model's ascending frequency list (six rigid-body modes come first)."""

    frequencies_hz: np.ndarray
    mode_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "frequencies_hz", _readonly(self.frequencies_hz))
        if len(self.mode_indices) != len(self.frequencies_hz):
            raise ValueError("mode_indices and frequencies_hz must have equal length")
        if any(b <= a for a, b in zip(self.mode_indices, self.mode_indices[1:])):
            raise ValueError("mode_indices must be strictly increasing")

    @property
    def n_modes(self) -> int:
        return len(self.mode_indices)


def measured_data() -> MeasuredData:
    """The five measured frequencies of the suspended H-beam."""
    return MeasuredData(
        frequencies_hz=np.array([53.9, 117.3, 208.4, 254.0, 445.0]),
        mode_indices=(7, 8, 10, 11, 13),
    )
