"""Hamiltonian reduction at the q-diagonal and p-diagonal slices.

A level-set point can be conjugated so that q (or p) is diagonal while the
level-set matrix i g (1 - v^T v) is preserved; the preserving diagonalizers
are exactly those with unit column sums (v C = v).  Resolving the moment
map then forces the conjugated partner matrix into Calogero form:

    q-slice:  p -> diag(p_i) + i g / (q_i - q_j)   off the diagonal,
    p-slice:  q -> diag(q_i) - i g / (I_i - I_j)   off the diagonal.

The sign difference between the slices comes from the antisymmetry of
[p, q]; both embeddings land exactly on the same level set.
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
                    moment_deviation)

# relative guards against 1/(x_i - x_j) blowups and near-degenerate spectra;
# the eigensolve guard sits above sqrt(eps), where defective pairs land
COLLISION_RTOL = 1e-9
DEGENERACY_RTOL = 3e-8
ZERO_SUM_RTOL = 1e-10


class Slice(Enum):
    Q_DIAG = "Q_DIAG"
    P_DIAG = "P_DIAG"

    @property
    def other(self) -> "Slice":
        return Slice.P_DIAG if self is Slice.Q_DIAG else Slice.Q_DIAG


def offdiag_sign(s: Slice) -> int:
    """Sign of i*g/(x_i - x_j) in the resolved off-diagonal block."""
    return 1 if s is Slice.Q_DIAG else -1


def calogero_block(x: np.ndarray, g: float, sign: int = 1) -> np.ndarray:
    """sign * i g / (x_i - x_j) off the diagonal, zero on it.

    x is one vector of n coordinates or a stack (..., n) of them; the
    differences it divides by pass the collision guard first.
    """
    return sign * 1j * g / guarded_differences(x)  # 1/inf = 0 on the diagonal


def inverse_square_kernel(x: np.ndarray) -> np.ndarray:
    """W_ij = 1 / (x_i - x_j)^2 off the diagonal, zero on it.

    Every pair sum of the closed forms contracts W or its row sums
    S = W.1: sum_{i<j} c_ij / (x_i - x_j)^2 = sum(c * W) / 2 for symmetric c.
    """
    return -calogero_block(x, 1.0) ** 2


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

    For a stack of matrices every field is stacked alike.
    """

    C: np.ndarray
    eigenvalues: np.ndarray
    residual: np.ndarray
    rank_one_residual: np.ndarray


def _first(bad: np.ndarray) -> tuple[tuple, str]:
    """Index of the first failing row of a stack check, and the message prefix naming it.

    One point (bad of shape ()) gets the empty prefix.
    """
    i = np.unravel_index(np.argmax(bad), np.shape(bad))
    return i, f"row {', '.join(str(k) for k in i)}: " if i else ""


def pair_differences(x: np.ndarray) -> np.ndarray:
    """x_i - x_j of each row of the stack x (..., n), with inf on the diagonal."""
    n = x.shape[-1]
    diff = x[..., :, None] - x[..., None, :]
    # each row's n x n differences, flattened: the diagonal is every (n + 1)-th entry
    diff.reshape(x.shape[:-1] + (n * n,))[..., :: n + 1] = np.inf
    return diff


def min_gap(x: np.ndarray) -> np.ndarray:
    """min over i != j of |x_i - x_j| for each row of the stack x (..., n); inf if n < 2."""
    return np.abs(pair_differences(x)).min(axis=(-2, -1), initial=np.inf)


def guarded_differences(x: np.ndarray) -> np.ndarray:
    """pair_differences(x), once no gap of a row lies below COLLISION_RTOL (1 + max |x|).

    The one collision test: ParticleCollision, naming the first failing row
    of a stack, if two coordinates of a row meet.
    """
    diff = pair_differences(x)
    gap = np.abs(diff).min(axis=(-2, -1), initial=np.inf)
    threshold = COLLISION_RTOL * (1.0 + np.abs(x).max(axis=-1, initial=0.0))
    close = gap < threshold
    if (close.any() if x.ndim > 1 else close):  # one row compares two scalars
        i, row = _first(close)
        raise ParticleCollision(
            f"{row}particle gap {gap[i]:.3e} below threshold {threshold[i]:.3e}")
    return diff


def collision_guard(x: np.ndarray):
    """ParticleCollision, naming the first failing row, if two coordinates of a row meet."""
    guarded_differences(x)


def particle_guard(positions: np.ndarray, momenta: np.ndarray):
    """The checks of a ReducedPoint on stacks (..., n) of coordinates.

    Equal shapes, at least one particle, finite entries, and no collision.
    """
    if positions.shape != momenta.shape:
        raise ValueError("positions and momenta must be equal-length vectors")
    if positions.shape[-1] < 1:
        raise ValueError("a reduced point needs at least one particle")
    _finite_guard(positions, momenta)
    collision_guard(positions)


def _finite_guard(positions: np.ndarray, momenta: np.ndarray):
    """ValueError, naming the first failing row, for a non-finite coordinate."""
    if not (np.isfinite(positions).all() and np.isfinite(momenta).all()):
        finite = np.isfinite(positions).all(axis=-1) & np.isfinite(momenta).all(axis=-1)
        _, row = _first(~finite)
        raise ValueError(f"{row}non-finite particle coordinates")


def normalized_diagonalizer(A: np.ndarray, tol: float = 1e-9) -> Diagonalizer:
    """Diagonalize A with eigenvectors scaled to unit column sums.

    A is one matrix or a stack (..., n, n); a failed check names the first
    failing matrix of a stack.  Eigenvalues are sorted lexicographically
    by (Re, Im) so that particle labels are deterministic; all comparisons
    elsewhere are made up to permutation anyway.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[-1]
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

    gap = min_gap(w)
    gap_thr = DEGENERACY_RTOL * (1.0 + np.abs(w).max(axis=-1, initial=0.0))
    degenerate = gap < gap_thr
    if np.count_nonzero(degenerate):
        i, row = _first(degenerate)
        raise DegenerateSpectrum(f"{row}eigenvalue gap {gap[i]:.3e} below {gap_thr[i]:.3e}")

    sums = V.sum(axis=-2)
    zero = (np.abs(sums) < ZERO_SUM_RTOL).any(axis=-1)
    if np.count_nonzero(zero):
        _, row = _first(zero)
        raise ZeroColumnSum(f"{row}an eigenvector has near-zero entry sum")
    C = V / sums[..., None, :]

    scale = 1.0 + np.abs(A).max(axis=(-2, -1))
    D = np.linalg.solve(C, A @ C)
    residual = np.abs(fill_diagonal(D, np.diagonal(D, 0, -2, -1) - w)).max(axis=(-2, -1))
    failed = residual > max(tol, 1e-12) * scale
    if np.count_nonzero(failed):
        i, row = _first(failed)
        raise NonConvergedEigensolve(
            f"{row}diagonalization residual {residual[i]:.3e} exceeds tolerance")
    proj = np.eye(n) - np.ones((n, n), dtype=complex)
    rank_one_residual = np.abs(np.linalg.solve(C, proj @ C) - proj).max(axis=(-2, -1))
    return Diagonalizer(C=C, eigenvalues=w, residual=residual,
                        rank_one_residual=rank_one_residual)


def reduced_coordinates(q: np.ndarray, p: np.ndarray, g, slice: Slice,
                        tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """(positions, momenta) of the level-set points (q, p) at the chosen slice.

    q and p are (..., n, n): one point or a stack of them; the coordinates
    are (..., n).  Each point passes the level-set test, a non-degenerate
    unit-column-sum eigensolve of the slice matrix (a degenerate spectrum
    is a ParticleCollision) and the off-diagonal Calogero check of the
    resolved partner, which signals a wrong coupling or an off-level-set
    input; its coordinates are checked finite.  They need no collision
    guard: the degeneracy threshold lies above it.  A failure names the
    first failing row of a stack.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    gv = coupling_value(g)
    dev = moment_deviation(q, p, gv)
    off = ~(dev < tol)
    if np.count_nonzero(off):
        i, row = _first(off)
        raise NotOnLevelSet(f"{row}moment-map deviation {dev[i]:.3e} exceeds tol {tol:.3e}")
    target, partner = (q, p) if slice is Slice.Q_DIAG else (p, q)
    if q.shape[-1] == 1:  # the eigensolve path is several times slower for one particle
        pos, mom = target[..., 0].astype(complex), partner[..., 0].astype(complex)
    else:
        try:
            diag = normalized_diagonalizer(target, tol)
        except DegenerateSpectrum as exc:
            raise ParticleCollision(str(exc)) from exc
        pos = diag.eigenvalues
        M = np.linalg.solve(diag.C, partner @ diag.C)
        miss = np.abs(M - calogero_block(pos, gv, offdiag_sign(slice)))
        mismatch = fill_diagonal(miss, 0.0).max(axis=(-2, -1))
        wrong = mismatch > tol
        if np.count_nonzero(wrong):
            i, row = _first(wrong)
            raise OffDiagonalMismatch(
                f"{row}off-diagonal deviates from i*g/dx by {mismatch[i]:.3e} "
                f"(tol {tol:.3e}); wrong coupling or off-level-set input")
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


def matrix_point(obj) -> MatrixPhasePoint:
    """The matrix point of obj: a matrix point itself, a reduced point embedded."""
    if isinstance(obj, MatrixPhasePoint):
        return obj
    if isinstance(obj, ReducedPoint):
        return embed(obj)
    raise TypeError(f"expected a matrix or reduced point, got {type(obj)!r}")


def embedded_matrices(positions: np.ndarray, momenta: np.ndarray, g: float,
                      slice: Slice) -> tuple[np.ndarray, np.ndarray]:
    """(q, p) of the slice-diagonal representatives, as arrays.

    positions and momenta are (..., n): one reduced point or a stack of
    them; calogero_block guards the differences it divides by.
    """
    n = positions.shape[-1]
    diagonal = fill_diagonal(np.zeros(positions.shape + (n,), dtype=complex), positions)
    resolved = fill_diagonal(calogero_block(positions, g, offdiag_sign(slice)), momenta)
    if slice is Slice.Q_DIAG:
        return diagonal, resolved
    return resolved, diagonal


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
