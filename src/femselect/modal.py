"""Generalized symmetric eigensolution and natural-frequency extraction.

Two paths solve K phi = lambda M phi. The dense path (LAPACK via scipy)
factors the full M, verifies the residual contract on the returned pairs,
and is the reference for the tests and the benchmark's output checks; no
run calls it. The planar path serves fitness, `describe` and mode shapes
and uses numpy alone: a frame lying in the z = 0 plane decouples exactly
into in-plane (ux, uy, rz) and out-of-plane (uz, rx, ry) DOFs, so each
half is pre-whitened once by the inverse square root of its own mass
block. A frame that is also symmetric about y = 0, with mirror partners
sharing one modulus, splits each whitened half once more into the DOF
combinations the mirror keeps and those it negates, so every candidate
costs four standard symmetric eigenvalue solves of about a quarter of the
size. A block eigenvector maps back to a mode shape through its plane's
mass root and mirror basis. scipy is imported only inside the dense
functions, so no run loads it. Rigid-body modes are detected by a
scale-free eigenvalue ratio against the seventh-smallest eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beam_structure import DOF_PER_NODE, BeamGeometry, MeasuredData
from .fem import GlobalSystem

RIGID_BODY_RATIO = 1e-6
# Relative residual every pair of the dense solve must meet.
RESIDUAL_TOLERANCE = 1e-9
_EXPECTED_RIGID_MODES = 6
# Per-node DOFs (ux, uy, uz, rx, ry, rz) that stay in the z = 0 plane,
# and the others, each in ascending order as `planar_dof_split` keeps them.
_IN_PLANE_DOFS = (0, 1, 5)
_OUT_OF_PLANE_DOFS = (2, 3, 4)
# Sign each per-node DOF takes under the mirror y -> -y.
_MIRROR_SIGNS = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
# Largest symmetric-antisymmetric coupling `mirror_standard_form` may drop,
# relative to the largest entry of the block it splits. On a mirror-
# symmetric frame the coupling is roundoff of the whitening (4e-12 on the
# H-beam); a frame or mass that breaks the mirror leaves coupling of the
# order of its asymmetry.
MIRROR_COUPLING_TOLERANCE = 1e-10


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


def planar_standard_form(k_stack: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whiten a stack of (E, n, n) stiffnesses of a frame in z = 0.

    Each half b of the DOF split gets R_b = M_bb^(-1/2), the symmetric
    inverse root from one `np.linalg.eigh` of the mass block, and every
    stiffness becomes the symmetrized R_b K_bb R_b. Returns the whitened
    stack (E, 2, n/2, n/2), in-plane block first, and the roots
    (2, n/2, n/2) in the same order. The eigenvalues of a stiffness's two
    blocks are those of (K, M), and R_b u for a block eigenvector u is an
    M-normalized eigenvector of the pair. A mass block that is
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
    roots = np.empty((2, in_plane.size, in_plane.size))
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
        roots[j] = (q / np.sqrt(d)) @ q.T
        w = roots[j] @ k_stack[:, b[:, None], b] @ roots[j]
        whitened[:, j] = 0.5 * (w + w.transpose(0, 2, 1))
    return whitened, roots


def mirror_partners(geometry: BeamGeometry) -> tuple[np.ndarray, np.ndarray]:
    """0-based node and element partners under the mirror y -> -y.

    A node's partner is the node at (x, -y, z), which is the node itself
    on the axis; an element's partner joins the partners of its two
    nodes. A node or an
    element without a partner raises StructureError.
    """
    nodes = geometry.nodes
    matches = np.all(nodes[:, None, :] == nodes[None, :, :] * [1.0, -1.0, 1.0], axis=-1)
    unmatched = np.flatnonzero(~matches.any(axis=1))
    if unmatched.size:
        raise StructureError(f"node {unmatched[0]} has no mirror partner")
    node_partner = matches.argmax(axis=1)
    by_ends = {frozenset((e.node_a, e.node_b)): i for i, e in enumerate(geometry.elements)}
    element_partner = []
    for element in geometry.elements:
        ends = frozenset((node_partner[element.node_a], node_partner[element.node_b]))
        if ends not in by_ends:
            raise StructureError(f"element {element.element_id} has no mirror partner")
        element_partner.append(by_ends[ends])
    return node_partner, np.array(element_partner)


def _mirror_basis(
    node_partner: np.ndarray, signs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Mirror basis of one plane's DOFs (three per node), unnormalized:
    first the symmetric combinations, which the mirror keeps, then the
    antisymmetric ones, which it negates. A DOF a of a node on the axis
    gives e_a; a DOF a and its partner b, with mirror sign s, give
    e_a + s e_b and e_a - s e_b. Returns the 0/+-1 columns, which of them
    combine a pair, and the number of symmetric ones."""
    n = len(signs) * len(node_partner)
    columns: dict[float, list[np.ndarray]] = {1.0: [], -1.0: []}
    for node, partner in enumerate(node_partner):
        if partner < node:
            continue
        for k, sign in enumerate(signs):
            a, b = len(signs) * node + k, len(signs) * partner + k
            if partner == node:
                column = np.zeros(n)
                column[a] = 1.0
                columns[sign].append(column)
                continue
            for parity in (1.0, -1.0):
                column = np.zeros(n)
                column[a], column[b] = 1.0, parity * sign
                columns[parity].append(column)
    basis = np.column_stack(columns[1.0] + columns[-1.0])
    return basis, np.count_nonzero(basis, axis=0) == 2, len(columns[1.0])


def mirror_standard_form(
    whitened: np.ndarray, roots: np.ndarray, node_partner: np.ndarray
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Split the planar standard form (whitened (E, 2, n, n) blocks and
    their mass roots (2, n, n), as made by `planar_standard_form`) of a
    frame symmetric about y = 0 by its mirror, with one mirror basis per
    plane.

    Each block W becomes B^T W B in the orthonormal mirror basis B, and
    its two diagonal blocks, symmetrized, are kept. B is the 0/+-1 basis
    U of `_mirror_basis` with each pair column divided by sqrt(2), so
    U^T W U is formed first and entry (i, j) scaled by 1, 1/sqrt(2) or
    exactly 1/2 as i and j combine pairs; a rounded 1/sqrt(2) squared is
    not 1/2. Only a W that the mirror maps onto itself splits exactly, so
    a dropped coupling entry above MIRROR_COUPLING_TOLERANCE times max|W|
    raises StructureError.

    Returns two block stacks and four maps. The first stack (E, 2, k, k)
    holds the in-plane symmetric and the out-of-plane antisymmetric
    blocks, the second (E, 2, n-k, n-k) the other two; the eigenvalues
    of the four blocks are those of W's two. The maps take block
    eigenvectors to mode shapes over all 2n DOFs, one (2n, size) map per
    block in the blocks' flat order: in-plane symmetric, out-of-plane
    antisymmetric, in-plane antisymmetric, out-of-plane symmetric. The
    map of a block is R_b B, R_b the mass root of its plane and B the
    block's orthonormal mirror columns, scattered into the rows of its
    plane; the rows of the other plane are exactly 0.
    """
    n_dofs = 2 * roots.shape[-1]
    planes = zip((_IN_PLANE_DOFS, _OUT_OF_PLANE_DOFS), planar_dof_split(n_dofs))
    halves = []
    for j, (dofs, rows) in enumerate(planes):
        basis, pairs, n_sym = _mirror_basis(node_partner, _MIRROR_SIGNS[list(dofs)])
        n_pairs = pairs.astype(int)
        entry_scale = 0.5 ** (np.add.outer(n_pairs, n_pairs) / 2)
        t = (basis.T @ whitened[:, j] @ basis) * entry_scale
        coupling = np.abs(t[:, :n_sym, n_sym:]).max()
        largest = np.abs(whitened[:, j]).max()
        if not coupling <= MIRROR_COUPLING_TOLERANCE * largest:
            raise StructureError(
                f"mirror coupling {coupling / largest:.3e} of max|W| exceeds "
                f"{MIRROR_COUPLING_TOLERANCE:.0e}: the frame is not mirror-symmetric"
            )
        t = 0.5 * (t + t.transpose(0, 2, 1))
        columns = np.zeros((n_dofs, basis.shape[1]))
        columns[rows] = roots[j] @ (basis * np.sqrt(0.5) ** pairs)
        halves.append([(t[:, h, h], columns[:, h]) for h in (slice(n_sym), slice(n_sym, None))])
    (in_sym, in_anti), (out_sym, out_anti) = halves
    blocks, maps = zip(in_sym, out_anti, in_anti, out_sym)
    return (np.stack(blocks[:2], axis=1), np.stack(blocks[2:], axis=1)), maps


def mirror_eigenpairs(
    blocks: tuple[np.ndarray, ...], scale: float
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Eigenpairs of summed mirror blocks, a (2, k, k) array per stack of
    `mirror_standard_form`, each block solved by `np.linalg.eigh`. Returns
    the merged ascending eigenvalues (n,) times `scale`, as
    `generalized_eigenvalues` orders them, the flat index of each one's
    block (the order of `mirror_standard_form`'s maps) and its unit block
    eigenvector. The eigenvalues are scaled before they are merged, so
    blocks summed at E / s and scaled by s sort as the spectrum at E."""
    try:
        solved = [np.linalg.eigh(stack) for stack in blocks]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"planar symmetric solver did not converge: {exc}") from exc
    values = np.concatenate([w.ravel() for w, _ in solved]) * scale
    vectors = [u for _, v in solved for block in v for u in block.T]
    sizes = [len(block) for _, v in solved for block in v]
    block_of = np.repeat(np.arange(len(sizes)), sizes)
    order = np.argsort(values, kind="stable")
    return values[order], block_of[order], [vectors[i] for i in order]


def rigid_body_modes(nodes: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The six rigid-body fields of a frame with nodes (N, 3), as rows
    (6, 6 N): unit translations along x, y and z, then unit rotations
    about the x, y and z axes through the origin, M-orthonormalized in
    that order by the Cholesky factor L of their M-Gram matrix (rows
    L^-1 Phi^T, a Gram-Schmidt that keeps the order)."""
    fields = np.zeros((6, len(nodes), DOF_PER_NODE))
    for axis, theta in enumerate(np.eye(3)):
        fields[axis, :, axis] = 1.0
        fields[3 + axis, :, :3] = np.cross(theta, nodes)
        fields[3 + axis, :, 3 + axis] = 1.0
    fields = fields.reshape(6, -1)
    return np.linalg.solve(np.linalg.cholesky(fields @ m @ fields.T), fields)


def generalized_eigenvalues(blocks: np.ndarray | tuple[np.ndarray, ...]) -> np.ndarray:
    """Ascending eigenvalues of a pair from its standard-form blocks; the
    fast path for fitness evaluations.

    `blocks` is one (2, n, n) array, as made by `planar_standard_form`,
    or a tuple of block arrays, as made by `mirror_standard_form`; the
    eigenvalues of every block are merged. A leading (P,) axis on every
    array solves P pairs in one call and gives (P, total); the solve of
    each block does not depend on the stack around it.
    """
    stacks = (blocks,) if isinstance(blocks, np.ndarray) else blocks
    try:
        per_stack = [np.linalg.eigvalsh(stack) for stack in stacks]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"planar symmetric solver did not converge: {exc}") from exc
    merged = np.concatenate([v.reshape(*v.shape[:-2], -1) for v in per_stack], axis=-1)
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
