"""Generalized symmetric eigensolution and natural-frequency extraction.

Two paths solve K phi = lambda M phi. The dense path (LAPACK via scipy)
factors the full M, verifies the residual contract on the returned pairs,
and is the reference for frequencies and mode shapes. The planar path
serves fitness evaluations and uses numpy alone: a frame lying in the
z = 0 plane decouples exactly into in-plane (ux, uy, rz) and out-of-plane
(uz, rx, ry) DOFs, so each half is pre-whitened once by the inverse
square root of its own mass block and every candidate costs two standard
symmetric eigenvalue solves of half the size. scipy is imported only
inside the dense functions, so a run that asks for no mode shapes never
loads it. Rigid-body modes are detected by a scale-free eigenvalue ratio
against the seventh-smallest eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beam_structure import DOF_PER_NODE, MeasuredData
from .fem import GlobalSystem

RIGID_BODY_RATIO = 1e-6
# Relative residual every pair of the dense solve must meet.
RESIDUAL_TOLERANCE = 1e-9
_EXPECTED_RIGID_MODES = 6
# Per-node DOFs (ux, uy, uz, rx, ry, rz) that stay in the z = 0 plane.
_IN_PLANE_DOFS = (0, 1, 5)


class EigenSolveError(Exception):
    """Base class for eigensolution failures."""


class DecompositionError(EigenSolveError):
    """The mass matrix is not positive definite."""


class ConvergenceError(EigenSolveError):
    """The solver failed to meet the residual contract."""

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class StructureError(EigenSolveError):
    """The assembled system does not show the expected six rigid-body modes."""


@dataclass(frozen=True)
class ModalResult:
    """Ascending natural frequencies of an assembled system, with the
    rigid-body cluster counted; mode shapes included only when requested."""

    frequencies_hz: np.ndarray
    rigid_body_count: int
    mode_shapes: np.ndarray | None = None


def _check_pair(k: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k = np.asarray(k, dtype=float)
    m = np.asarray(m, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape != m.shape:
        raise ValueError("K and M must be square matrices of equal shape")
    return k, m


def _require_positive_definite(m: np.ndarray) -> None:
    import scipy.linalg

    try:
        scipy.linalg.cholesky(m, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise DecompositionError(f"mass matrix is not positive definite: {exc}") from exc


def rigid_body_count(eigenvalues: np.ndarray) -> int | np.ndarray:
    """Modes whose eigenvalue falls below RIGID_BODY_RATIO times the
    seventh-smallest eigenvalue. Zero when fewer than seven modes exist.
    A (P, n) stack of ascending spectra gives a (P,) array of counts."""
    eigenvalues = np.asarray(eigenvalues)
    if eigenvalues.shape[-1] < _EXPECTED_RIGID_MODES + 1:
        return 0 if eigenvalues.ndim == 1 else np.zeros(eigenvalues.shape[0], dtype=int)
    threshold = RIGID_BODY_RATIO * eigenvalues[..., _EXPECTED_RIGID_MODES]
    counts = np.sum(eigenvalues < threshold[..., None], axis=-1)
    return int(counts) if eigenvalues.ndim == 1 else counts


def solve_generalized_eigen(k: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve K phi = lambda M phi for a symmetric K and SPD M.

    Returns ascending eigenvalues and M-orthonormal eigenvector columns.
    With tol = RESIDUAL_TOLERANCE, every elastic pair must satisfy
    ||K phi - lambda M phi|| <= tol ||K phi|| and every rigid-body pair
    ||K phi|| <= tol ||K|| ||phi||, else a ConvergenceError carrying the
    worst achieved ratio is raised.
    """
    import scipy.linalg

    k, m = _check_pair(k, m)
    _require_positive_definite(m)
    try:
        eigenvalues, eigenvectors = scipy.linalg.eigh(k, m)
    except scipy.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense symmetric solver did not converge: {exc}") from exc

    n_rigid = rigid_body_count(eigenvalues)
    k_phi = k @ eigenvectors
    m_phi = m @ eigenvectors
    residual = np.linalg.norm(k_phi - m_phi * eigenvalues, axis=0)
    k_phi_norm = np.linalg.norm(k_phi, axis=0)
    k_norm = np.linalg.norm(k, 2)

    tol = RESIDUAL_TOLERANCE
    worst = 0.0
    for i in range(eigenvalues.size):
        if i < n_rigid:
            ratio = k_phi_norm[i] / (k_norm * np.linalg.norm(eigenvectors[:, i]))
        else:
            ratio = residual[i] / k_phi_norm[i] if k_phi_norm[i] > 0.0 else np.inf
        worst = max(worst, ratio)
    if worst > tol:
        raise ConvergenceError(
            f"residual contract violated: achieved {worst:.3e} > tolerance {tol:.3e}",
            achieved=worst,
        )
    return eigenvalues, eigenvectors


def _dense_eigenvalues(k: np.ndarray, m: np.ndarray) -> np.ndarray:
    import scipy.linalg

    k, m = _check_pair(k, m)
    try:
        return scipy.linalg.eigh(k, m, eigvals_only=True)
    except scipy.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense symmetric solver did not converge: {exc}") from exc


def planar_dof_split(n_dofs: int) -> tuple[np.ndarray, np.ndarray]:
    """In-plane and out-of-plane global DOF indices of a frame in z = 0."""
    in_plane = np.isin(np.arange(n_dofs) % DOF_PER_NODE, _IN_PLANE_DOFS)
    return np.flatnonzero(in_plane), np.flatnonzero(~in_plane)


def planar_standard_form(k_stack: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Whiten a stack of (E, n, n) stiffnesses of a frame in z = 0.

    Each half b of the DOF split gets R_b = M_bb^(-1/2), the symmetric
    inverse root from one `np.linalg.eigh` of the mass block, and every
    stiffness becomes the symmetrized R_b K_bb R_b; the result has shape
    (E, 2, n/2, n/2) with the in-plane block first, and the eigenvalues
    of a stiffness's two blocks are those of (K, M). A mass block that is
    not positive definite raises DecompositionError. Any non-zero
    coupling entry between the halves, in K or in M, raises
    StructureError: the split is exact or not used.
    """
    k_stack = np.asarray(k_stack, dtype=float)
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or k_stack.shape[1:] != m.shape:
        raise ValueError("need an (E, n, n) stiffness stack and an (n, n) mass matrix")
    blocks = planar_dof_split(m.shape[0])
    in_plane, out_of_plane = blocks
    coupling = np.ix_(in_plane, out_of_plane)
    if np.any(k_stack[(slice(None), *coupling)] != 0.0) or np.any(m[coupling] != 0.0):
        raise StructureError("in-plane and out-of-plane DOFs are coupled")
    whitened = np.empty((k_stack.shape[0], 2, in_plane.size, in_plane.size))
    for j, b in enumerate(blocks):
        d, q = np.linalg.eigh(m[np.ix_(b, b)])
        # Roundoff leaves a singular block a smallest eigenvalue of either
        # sign near eps * d[-1], so positive is not enough: the block must
        # have full numerical rank.
        if not d[0] > b.size * np.finfo(float).eps * d[-1]:
            raise DecompositionError(
                "mass matrix is not positive definite: eigenvalues of a planar "
                f"block span [{d[0]:.3e}, {d[-1]:.3e}]"
            )
        root = (q / np.sqrt(d)) @ q.T
        w = root @ k_stack[:, b[:, None], b] @ root
        whitened[:, j] = 0.5 * (w + w.transpose(0, 2, 1))
    return whitened


def generalized_eigenvalues(blocks: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a planar pair from its standard-form
    blocks (2, n, n), as made by `planar_standard_form`; the fast path
    for fitness evaluations. A (P, 2, n, n) stack of pairs is solved in
    one call and gives (P, 2n); the solve of each block does not depend
    on the stack around it."""
    try:
        per_block = np.linalg.eigvalsh(blocks)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"planar symmetric solver did not converge: {exc}") from exc
    merged = per_block.reshape(*per_block.shape[:-2], -1)
    return np.sort(merged, axis=-1, kind="stable")


def frequencies_from_eigenvalues(eigenvalues: np.ndarray) -> np.ndarray:
    """sqrt(max(lambda, 0)) / 2 pi; roundoff negatives in the rigid cluster
    clamp to zero Hz."""
    return np.sqrt(np.clip(eigenvalues, 0.0, None)) / (2.0 * np.pi)


def free_free_frequencies(
    eigenvalues: np.ndarray,
) -> tuple[np.ndarray, dict[int, StructureError]]:
    """Frequencies of a (P, n) stack of ascending free-free spectra, with
    a StructureError for each row that does not show exactly six
    rigid-body modes."""
    counts = rigid_body_count(eigenvalues)
    errors = {
        int(i): StructureError(
            f"expected {_EXPECTED_RIGID_MODES} rigid-body modes, found {counts[i]}"
        )
        for i in np.flatnonzero(counts != _EXPECTED_RIGID_MODES)
    }
    return frequencies_from_eigenvalues(eigenvalues), errors


def free_free_result(
    eigenvalues: np.ndarray, mode_shapes: np.ndarray | None = None
) -> ModalResult:
    """Frequencies of an ascending free-free spectrum.

    Raises StructureError unless exactly six rigid-body modes are present.
    """
    frequencies, errors = free_free_frequencies(np.asarray(eigenvalues)[None])
    if errors:
        raise errors[0]
    return ModalResult(
        frequencies_hz=frequencies[0],
        rigid_body_count=_EXPECTED_RIGID_MODES,
        mode_shapes=mode_shapes,
    )


def natural_frequencies(system: GlobalSystem, with_shapes: bool = False) -> ModalResult:
    """Full ascending frequency list of an assembled free-free system, by
    the dense solve of the whole pair.

    Raises StructureError unless exactly six rigid-body modes are present.
    """
    if with_shapes:
        eigenvalues, eigenvectors = solve_generalized_eigen(system.k_global, system.m_global)
        return free_free_result(eigenvalues, eigenvectors)
    _require_positive_definite(system.m_global)
    return free_free_result(_dense_eigenvalues(system.k_global, system.m_global))


def select_modes(result: ModalResult, measured: MeasuredData) -> np.ndarray:
    """Frequencies at the measured 1-based ranks of the ascending list."""
    if len(result.frequencies_hz) < max(measured.mode_indices):
        raise ValueError(
            f"need at least {max(measured.mode_indices)} modes, "
            f"got {len(result.frequencies_hz)}"
        )
    if result.rigid_body_count != _EXPECTED_RIGID_MODES:
        raise ValueError("mode selection requires a free-free result with six rigid-body modes")
    ranks = np.asarray(measured.mode_indices) - 1
    return result.frequencies_hz[ranks]
