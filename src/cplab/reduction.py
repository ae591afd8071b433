"""Hamiltonian reduction at the q-diagonal and p-diagonal slices.

A level-set point can be conjugated so that q (or p) is diagonal while the
level-set matrix i g (1 - v^T v) is preserved; the preserving diagonalizers
are exactly those with unit column sums (v C = v).  Resolving the moment
map then forces the conjugated partner matrix into Calogero form:

    q-slice:  p -> diag(p_i) + i g / (q_i - q_j)   off the diagonal,
    p-slice:  q -> diag(q_i) - i g / (I_i - I_j)   off the diagonal.

The sign difference between the slices (Slice.sign) comes from the
antisymmetry of [p, q]; both embeddings land exactly on the same level set.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateSpectrum,
    NonConvergedEigensolve,
    NotOnLevelSet,
    OffDiagonalMismatch,
    ParticleCollision,
    ZeroColumnSum,
)
from .phase import (MatrixPhasePoint, as_time, coupling_value, fill_diagonal,
                    finite_matrix, moment_deviation)

# relative guards against 1/(x_i - x_j) blowups and near-degenerate spectra;
# the eigensolve guard sits above sqrt(eps), where defective pairs land
COLLISION_RTOL = 1e-9
DEGENERACY_RTOL = 3e-8
ZERO_SUM_RTOL = 1e-10


class Slice(Enum):
    """The slice convention, known here only.

    sign: that of i g/(x_i - x_j) in the resolved block, +1 on Q_DIAG and -1
    on P_DIAG.  order(a, b): (a, b) on Q_DIAG, (b, a) on P_DIAG; this one
    involution maps (diagonal, resolved) matrices to (q, p), and stored
    (positions, momenta) to canonical (coordinate, momentum), and back.
    """

    Q_DIAG = "Q_DIAG"
    P_DIAG = "P_DIAG"

    def __init__(self, value):
        self.sign = 1 if value == "Q_DIAG" else -1  # an attribute: no member lookup

    @property
    def other(self) -> "Slice":
        return Slice.P_DIAG if self is Slice.Q_DIAG else Slice.Q_DIAG

    def order(self, a, b) -> tuple:
        return (a, b) if self.sign > 0 else (b, a)


def calogero_block(diff: np.ndarray, g: float, sign: int = 1) -> np.ndarray:
    """sign * i g / (x_i - x_j) off the diagonal, zero on it.

    diff is pair_differences of one vector or a stack (..., n) of
    coordinates, divided by unchecked (see guarded_differences).
    """
    return sign * 1j * g / diff  # 1/inf = 0 on the diagonal


def inverse_square_kernel(x: np.ndarray) -> np.ndarray:
    """W_ij = 1 / (x_i - x_j)^2 off the diagonal, zero on it.

    Every pair sum of the closed forms contracts W or its row sums
    S = W.1: sum_{i<j} c_ij / (x_i - x_j)^2 = sum(c * W) / 2 for symmetric c.
    x holds checked coordinates (see calogero_block), so W is not guarded.
    """
    return -calogero_block(pair_differences(x), 1.0) ** 2


@dataclass(frozen=True)
class ReducedPoint:
    """Multi-particle state on a slice.

    On Q_DIAG the positions are the eigenvalues of q and the momenta the
    diagonal of the resolved p; on P_DIAG the positions are the eigenvalues
    of p (canonically the dual momenta) and the momenta the diagonal of the
    resolved q.
    """

    positions: np.ndarray
    momenta: np.ndarray
    g: float
    t: float | complex = 0.0
    slice: Slice = Slice.Q_DIAG

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.positions, dtype=complex))
        b = np.atleast_1d(np.asarray(self.momenta, dtype=complex))
        if a.ndim != 1:
            raise ValueError("positions and momenta must be equal-length vectors")
        particle_guard(a, b)
        object.__setattr__(self, "positions", a)
        object.__setattr__(self, "momenta", b)
        object.__setattr__(self, "g", coupling_value(self.g))
        object.__setattr__(self, "t", as_time(self.t))

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class Diagonalizer:
    """Eigen decomposition with columns scaled to unit entry sum (v C = v).

    residual: max |C^-1 A C - diag(eigenvalues)|; a stack stacks every field.
    """

    C: np.ndarray
    eigenvalues: np.ndarray
    residual: np.ndarray


def _reject(error: type, bad: np.ndarray, text: str, *rows):
    """Raise error("row i: " + text.format(row i of rows)) for the first failing row i.

    Return if no row of bad fails; one point's mask (a numpy bool) gets no prefix.
    """
    if not (np.count_nonzero(bad) if bad.shape else bad):
        return
    i = np.unravel_index(np.argmax(bad), bad.shape)
    row = f"row {', '.join(str(k) for k in i)}: " if i else ""
    raise error(row + text.format(*(r[i] for r in rows)))


def pair_differences(x: np.ndarray) -> np.ndarray:
    """x_i - x_j of each row of the stack x (..., n), with inf on the diagonal."""
    n = x.shape[-1]
    diff = x[..., :, None] - x[..., None, :]
    # each row's n x n differences, flattened: the diagonal is every (n + 1)-th entry
    diff.reshape(x.shape[:-1] + (n * n,))[..., :: n + 1] = np.inf
    return diff


def _gap_test(x: np.ndarray, rtol: float, error: type, what: str) -> np.ndarray:
    """pair_differences(x), once no row's gap lies below rtol (1 + max |x|); else error."""
    diff = pair_differences(x)
    # the ufunc reductions skip the ndarray method wrappers on this hot path
    gap = np.minimum.reduce(np.abs(diff), axis=(-2, -1), initial=np.inf)
    threshold = rtol * (1.0 + np.maximum.reduce(np.abs(x), axis=-1, initial=0.0))
    _reject(error, gap < threshold, what + " gap {:.3e} below threshold {:.3e}",
            gap, threshold)
    return diff


def guarded_differences(x: np.ndarray) -> np.ndarray:
    """pair_differences(x), once no gap of a row lies below COLLISION_RTOL (1 + max |x|).

    The collision test, run where unchecked coordinates come in: ParticleCollision.
    """
    return _gap_test(x, COLLISION_RTOL, ParticleCollision, "particle")


def particle_guard(positions: np.ndarray, momenta: np.ndarray):
    """The checks of a ReducedPoint on stacks (..., n) of coordinates.

    Equal shapes, at least one particle, finite entries, and no collision.
    """
    if positions.shape != momenta.shape:
        raise ValueError("positions and momenta must be equal-length vectors")
    if positions.shape[-1] < 1:
        raise ValueError("a reduced point needs at least one particle")
    _finite_guard(positions, momenta)
    guarded_differences(positions)


def _finite_guard(positions: np.ndarray, momenta: np.ndarray):
    """ValueError, naming the first failing row, for a non-finite coordinate."""
    if not (np.isfinite(positions).all() and np.isfinite(momenta).all()):
        finite = np.isfinite(positions).all(axis=-1) & np.isfinite(momenta).all(axis=-1)
        _reject(ValueError, ~finite, "non-finite particle coordinates")


def normalized_diagonalizer(A: np.ndarray, tol: float = 1e-9) -> Diagonalizer:
    """Diagonalize A with eigenvectors scaled to unit column sums.

    A is one matrix or a stack (..., n, n).  Three checks, each naming the
    first failing matrix of a stack: the gap test at DEGENERACY_RTOL, zero
    column sums, and the residual of the one solve C^-1 A C.  Eigenvalues
    are sorted by (Re, Im) so that particle labels are deterministic.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[-1]
    if n < 1:
        raise ValueError("n must be >= 1")
    try:
        w, V = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails
        raise NonConvergedEigensolve(str(exc)) from exc
    # each row's sort order, offset by the row's start in the flattened stack
    flat = (np.lexsort((w.imag, w.real), axis=-1)
            + n * np.arange(w.size // n).reshape(w.shape[:-1] + (1,)))
    w = w.reshape(-1)[flat]
    # the eigenvectors are gathered as rows of the transpose and stay
    # contiguous, so the column sums below add in one order at any stack shape
    V = np.swapaxes(np.swapaxes(V, -1, -2).reshape(-1, n)[flat], -1, -2)
    _gap_test(w, DEGENERACY_RTOL, DegenerateSpectrum, "eigenvalue")

    sums = V.sum(axis=-2)
    _reject(ZeroColumnSum, (np.abs(sums) < ZERO_SUM_RTOL).any(axis=-1),
            "an eigenvector has near-zero entry sum")
    C = V / sums[..., None, :]

    scale = 1.0 + np.abs(A).max(axis=(-2, -1))
    D = np.linalg.solve(C, A @ C)
    residual = np.abs(fill_diagonal(D, np.diagonal(D, 0, -2, -1) - w)).max(axis=(-2, -1))
    _reject(NonConvergedEigensolve, residual > max(tol, 1e-12) * scale,
            "diagonalization residual {:.3e} exceeds tolerance", residual)
    return Diagonalizer(C=C, eigenvalues=w, residual=residual)


def resolve_at_slice(q: np.ndarray, p: np.ndarray, slice: Slice,
                     tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """(positions, resolved partner) of (q, p) at the chosen slice: the eigen core.

    The positions (..., n) are the eigenvalues of the slice matrix, and the
    resolved partner (..., n, n), whose diagonal holds the momenta, is the
    partner matrix in the unit-column-sum eigenbasis; every check of
    normalized_diagonalizer applies, and a degenerate spectrum is a
    ParticleCollision.  Nothing asks for the level set, so the off-level-set
    nodes of dynamics.contour_pushforward resolve too.
    """
    target, partner = slice.order(q, p)
    try:
        diag = normalized_diagonalizer(target, tol)
    except DegenerateSpectrum as exc:
        raise ParticleCollision(str(exc)) from exc
    return diag.eigenvalues, np.linalg.solve(diag.C, partner @ diag.C)


def reduced_coordinates(q: np.ndarray, p: np.ndarray, g, slice: Slice,
                        tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """(positions, momenta) of the level-set points (q, p) at the chosen slice.

    q and p are (..., n, n): one point or a stack of them; the coordinates
    are (..., n).  Each point passes the level-set test, the eigen core
    resolve_at_slice (a non-degenerate unit-column-sum eigensolve of the
    slice matrix) and the off-diagonal Calogero check of the resolved
    partner (vacuous at n = 1), which signals a wrong coupling or an
    off-level-set input; its coordinates are checked finite.  They need no
    collision guard: the degeneracy threshold lies above it.  A failure
    names the first failing row of a stack.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    gv = coupling_value(g)
    dev = moment_deviation(q, p, gv)
    _reject(NotOnLevelSet, ~(dev < tol),
            f"moment-map deviation {{:.3e}} exceeds tol {tol:.3e}", dev)
    pos, M = resolve_at_slice(q, p, slice, tol)
    miss = np.abs(M - calogero_block(pair_differences(pos), gv, slice.sign))
    mismatch = fill_diagonal(miss, 0.0).max(axis=(-2, -1))
    _reject(OffDiagonalMismatch, mismatch > tol,
            f"off-diagonal deviates from i*g/dx by {{:.3e}} (tol {tol:.3e}); "
            "wrong coupling or off-level-set input", mismatch)
    mom = np.diagonal(M, 0, -2, -1).copy()
    _finite_guard(pos, mom)
    return pos, mom


def reduce(pt: MatrixPhasePoint, slice: Slice, g, tol: float = 1e-8) -> ReducedPoint:
    """Reduce a level-set point at the chosen slice (see reduced_coordinates)."""
    pos, mom = reduced_coordinates(pt.q, pt.p, g, slice, tol)
    return ReducedPoint(pos, mom, g, pt.t, slice)


def embed(x: ReducedPoint) -> MatrixPhasePoint:
    """Rebuild the slice-diagonal matrix representative of a reduced point."""
    q, p = embedded_matrices(x.positions, x.momenta, x.g, x.slice)
    return MatrixPhasePoint(q, p, x.t)


def point_arrays(obj) -> tuple[np.ndarray, np.ndarray, float | complex]:
    """(q, p, t) of obj: a matrix point's own, a reduced point's embedded matrices.

    The one dispatch on a description.  A reduced point is embedded as
    plain arrays, with no MatrixPhasePoint around them: its coordinates are
    checked finite already, so the one check of a matrix point that can
    fail is that g / (x_i - x_j) overflows, which raises the same
    ValueError.  Anything else is a TypeError.
    """
    if isinstance(obj, MatrixPhasePoint):
        return obj.q, obj.p, obj.t
    if isinstance(obj, ReducedPoint):
        q, p = embedded_matrices(obj.positions, obj.momenta, obj.g, obj.slice)
        return finite_matrix(q, "q"), finite_matrix(p, "p"), obj.t
    raise TypeError(f"expected a matrix or reduced point, got {type(obj)!r}")


def matrix_point(obj) -> MatrixPhasePoint:
    """The matrix point of obj (see point_arrays): a matrix point itself, else one built."""
    return obj if isinstance(obj, MatrixPhasePoint) else MatrixPhasePoint(*point_arrays(obj))


def embedded_matrices(positions: np.ndarray, momenta: np.ndarray, g: float,
                      slice: Slice) -> tuple[np.ndarray, np.ndarray]:
    """(q, p) of the slice-diagonal representatives, as arrays.

    positions and momenta are (..., n): one reduced point or a stack of
    them, perhaps unchecked (RK4 stage states, sampled stacks): the
    Calogero block divides by guarded_differences.
    """
    n = positions.shape[-1]
    diagonal = fill_diagonal(np.zeros(positions.shape + (n,), dtype=complex), positions)
    resolved = fill_diagonal(
        calogero_block(guarded_differences(positions), g, slice.sign), momenta)
    return slice.order(diagonal, resolved)


def dual_of(x: ReducedPoint) -> ReducedPoint:
    """Re-reduce the embedded point at the opposite slice."""
    return reduce(embed(x), x.slice.other, x.g)


def match_permutation(reference: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """Greedy nearest-value assignment, row by row of stacks (..., n); adequate at desk scale.

    Each reference value in turn takes the nearest free candidate (the
    first of equals).  Returns indices perm with
    take_along_axis(candidate, perm, -1) ~ reference.
    """
    reference = np.asarray(reference)
    candidate = np.asarray(candidate)
    if reference.shape != candidate.shape:
        raise ValueError("permutation matching needs equal-length vectors")
    dist = np.abs(candidate[..., None, :] - reference[..., :, None])
    perm = np.empty(candidate.shape, dtype=int)
    for i in range(candidate.shape[-1]):
        j = dist[..., i, :].argmin(axis=-1)
        perm[..., i] = j
        np.put_along_axis(dist, j[..., None, None], np.inf, axis=-1)  # candidate j is taken
    return perm


def matched_deviation(positions: np.ndarray, momenta: np.ndarray,
                      other_positions: np.ndarray, other_momenta: np.ndarray) -> np.ndarray:
    """Max-norm distance of each row of two stacks (..., n) of coordinates.

    The other coordinates are relabeled by match_permutation of the positions.
    """
    perm = match_permutation(positions, other_positions)
    dp = np.abs(np.take_along_axis(other_positions, perm, -1) - positions).max(axis=-1)
    dm = np.abs(np.take_along_axis(other_momenta, perm, -1) - momenta).max(axis=-1)
    return np.maximum(dp, dm)


def permuted_deviation(x: ReducedPoint, y: ReducedPoint) -> float:
    """Max-norm distance between reduced points up to particle relabeling."""
    return float(matched_deviation(x.positions, x.momenta, y.positions, y.momenta))
