"""3D Euler-Bernoulli beam finite elements and free-free global assembly.

Each two-node element carries 12 degrees of freedom, ordered per node as
(ux, uy, uz, rx, ry, rz): axial stretch, torsion about the member axis, and
cubic bending in the two principal planes. Mass matrices are consistent
(built from the same shape functions as the stiffness); no shear
deformation and no bending rotary inertia.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beam_structure import (
    DOF_PER_NODE,
    ELEMENT_COUNT,
    BeamGeometry,
    CrossSection,
    Material,
    _readonly,
)

_ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class ElementMatrices:
    """12x12 symmetric stiffness and consistent mass of one element."""

    stiffness: np.ndarray
    mass: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "stiffness", _readonly(self.stiffness))
        object.__setattr__(self, "mass", _readonly(self.mass))


@dataclass(frozen=True)
class GlobalSystem:
    """Assembled free-free system: 78x78 stiffness and mass, 6 DOFs per
    node in node order, translations then rotations."""

    k_global: np.ndarray
    m_global: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "k_global", _readonly(self.k_global))
        object.__setattr__(self, "m_global", _readonly(self.m_global))


def _bending_stiffness(ei: float, length: float, flip: bool) -> np.ndarray:
    """4x4 cubic bending block over (deflection_a, rotation_a, deflection_b,
    rotation_b). `flip` negates the deflection-rotation couplings, as needed
    for the plane whose rotation axis is antiparallel to the deflection
    cross product."""
    ll = length
    s = -1.0 if flip else 1.0
    k = ei / ll**3 * np.array(
        [
            [12.0, s * 6.0 * ll, -12.0, s * 6.0 * ll],
            [s * 6.0 * ll, 4.0 * ll**2, s * -6.0 * ll, 2.0 * ll**2],
            [-12.0, s * -6.0 * ll, 12.0, s * -6.0 * ll],
            [s * 6.0 * ll, 2.0 * ll**2, s * -6.0 * ll, 4.0 * ll**2],
        ]
    )
    return k


def _bending_mass(rho_a_l: float, length: float, flip: bool) -> np.ndarray:
    ll = length
    s = -1.0 if flip else 1.0
    m = rho_a_l / 420.0 * np.array(
        [
            [156.0, s * 22.0 * ll, 54.0, s * -13.0 * ll],
            [s * 22.0 * ll, 4.0 * ll**2, s * 13.0 * ll, -3.0 * ll**2],
            [54.0, s * 13.0 * ll, 156.0, s * -22.0 * ll],
            [s * -13.0 * ll, -3.0 * ll**2, s * -22.0 * ll, 4.0 * ll**2],
        ]
    )
    return m


# DOF indices of the two bending planes within the 12-vector
_XY_PLANE = np.array([1, 5, 7, 11])  # uy, rz at both nodes, uses i_weak
_XZ_PLANE = np.array([2, 4, 8, 10])  # uz, ry at both nodes, uses i_strong


def beam_element_matrices(
    E: float,
    G: float,
    section: CrossSection,
    density: float,
    length: float,
) -> ElementMatrices:
    """Local stiffness and consistent mass for one element.

    Axial terms are EA/L, torsion GJ/L, and the bending blocks follow the
    12EI/L^3, 6EI/L^2, 4EI/L, 2EI/L cubic pattern. Bending that deflects
    along local z (the thickness direction) uses `i_strong`; bending that
    deflects along local y (the width direction) uses `i_weak`. Torsional
    inertia uses the geometric polar moment.
    """
    if E <= 0.0 or G <= 0.0 or length <= 0.0:
        raise ValueError("E, G, and length must all be positive")

    k = np.zeros((12, 12))
    m = np.zeros((12, 12))

    ea_l = E * section.area / length
    k[np.ix_([0, 6], [0, 6])] = ea_l * np.array([[1.0, -1.0], [-1.0, 1.0]])
    gj_l = G * section.torsion_constant / length
    k[np.ix_([3, 9], [3, 9])] = gj_l * np.array([[1.0, -1.0], [-1.0, 1.0]])
    k[np.ix_(_XY_PLANE, _XY_PLANE)] = _bending_stiffness(E * section.i_weak, length, flip=False)
    k[np.ix_(_XZ_PLANE, _XZ_PLANE)] = _bending_stiffness(E * section.i_strong, length, flip=True)

    rho_a_l = density * section.area * length
    linear = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])
    m[np.ix_([0, 6], [0, 6])] = rho_a_l * linear
    m[np.ix_([3, 9], [3, 9])] = density * section.polar_moment * length * linear
    m[np.ix_(_XY_PLANE, _XY_PLANE)] = _bending_mass(rho_a_l, length, flip=False)
    m[np.ix_(_XZ_PLANE, _XZ_PLANE)] = _bending_mass(rho_a_l, length, flip=True)

    return ElementMatrices(stiffness=k, mass=m)


def expand_frame(frame: np.ndarray) -> np.ndarray:
    """Block-diagonal 12x12 expansion of a 3x3 rotation."""
    frame = np.asarray(frame, dtype=float)
    if frame.shape != (3, 3):
        raise ValueError("frame must be 3x3")
    if not np.allclose(frame @ frame.T, np.eye(3), atol=_ORTHO_TOL):
        raise ValueError("frame must be orthonormal")
    if not np.isclose(np.linalg.det(frame), 1.0, atol=_ORTHO_TOL):
        raise ValueError("frame must be a proper rotation (determinant +1)")
    return np.kron(np.eye(4), frame)


def transform_to_global(local: ElementMatrices, frame: np.ndarray) -> ElementMatrices:
    """Rotate element matrices into the global frame: T' K T with T the
    block-diagonal expansion of `frame` (rows = local axes in global
    coordinates)."""
    t = expand_frame(frame)
    return ElementMatrices(
        stiffness=t.T @ local.stiffness @ t,
        mass=t.T @ local.mass @ t,
    )


def element_dof_indices(element_node_a: int, element_node_b: int) -> np.ndarray:
    """Global DOF indices of an element's 12 local DOFs."""
    return np.concatenate(
        [
            DOF_PER_NODE * element_node_a + np.arange(DOF_PER_NODE),
            DOF_PER_NODE * element_node_b + np.arange(DOF_PER_NODE),
        ]
    )


def assemble(
    geometry: BeamGeometry,
    moduli: np.ndarray,
    material: Material,
    section: CrossSection,
) -> GlobalSystem:
    """Assemble the global free-free system for per-element moduli.

    Stiffness is linear in each modulus (the shear modulus scales with E at
    fixed Poisson ratio); the mass matrix does not depend on `moduli`.
    """
    moduli = np.asarray(moduli, dtype=float)
    if moduli.shape != (ELEMENT_COUNT,):
        raise ValueError(f"moduli must have shape ({ELEMENT_COUNT},)")
    if np.any(moduli <= 0.0):
        raise ValueError("all moduli must be positive")

    n = geometry.n_dofs
    k_global = np.zeros((n, n))
    m_global = np.zeros((n, n))
    for element in geometry.elements:
        e = moduli[element.element_id - 1]
        local = beam_element_matrices(
            E=e,
            G=material.shear_modulus(e),
            section=section,
            density=material.density,
            length=geometry.element_length(element),
        )
        global_mats = transform_to_global(local, element.frame)
        idx = element_dof_indices(element.node_a, element.node_b)
        k_global[np.ix_(idx, idx)] += global_mats.stiffness
        m_global[np.ix_(idx, idx)] += global_mats.mass

    return GlobalSystem(k_global=k_global, m_global=m_global)
