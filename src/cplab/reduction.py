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
from .phase import MatrixPhasePoint, coupling_value, on_level_set

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
    """sign * i g / (x_i - x_j) off the diagonal, zero on it."""
    K = sign * 1j * g / (x[:, None] - x[None, :] + np.eye(x.shape[0]))
    np.fill_diagonal(K, 0.0)
    return K


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
    t: float = 0.0
    slice: Slice = Slice.Q_DIAG

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.positions, dtype=complex))
        b = np.atleast_1d(np.asarray(self.momenta, dtype=complex))
        if a.ndim != 1 or a.shape != b.shape:
            raise ValueError("positions and momenta must be equal-length vectors")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("non-finite particle coordinates")
        g = coupling_value(self.g)
        collision_guard(a)
        object.__setattr__(self, "positions", a)
        object.__setattr__(self, "momenta", b)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "t", float(self.t))

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class Diagonalizer:
    """Eigen decomposition with columns scaled to unit entry sum (v C = v)."""

    C: np.ndarray
    eigenvalues: np.ndarray
    residual: float
    rank_one_residual: float


def collision_threshold(x: np.ndarray) -> float:
    return COLLISION_RTOL * (1.0 + float(np.abs(x).max(initial=0.0)))


def min_gap(x: np.ndarray) -> float:
    if x.size < 2:
        return np.inf
    diff = x[:, None] - x[None, :]
    off = np.abs(diff[~np.eye(x.size, dtype=bool)])
    return float(off.min())


def collision_guard(x: np.ndarray):
    if min_gap(x) < collision_threshold(x):
        raise ParticleCollision(
            f"particle gap {min_gap(x):.3e} below threshold {collision_threshold(x):.3e}"
        )


def normalized_diagonalizer(A: np.ndarray, tol: float = 1e-9) -> Diagonalizer:
    """Diagonalize A with eigenvectors scaled to unit column sums.

    Eigenvalues are sorted lexicographically by (Re, Im) so that particle
    labels are deterministic; all comparisons elsewhere are made up to
    permutation anyway.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    try:
        w, V = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails
        raise NonConvergedEigensolve(str(exc)) from exc
    order = np.lexsort((w.imag, w.real))
    w, V = w[order], V[:, order]

    gap = min_gap(w)
    gap_thr = DEGENERACY_RTOL * (1.0 + float(np.abs(w).max(initial=0.0)))
    if gap < gap_thr:
        raise DegenerateSpectrum(f"eigenvalue gap {gap:.3e} below {gap_thr:.3e}")

    sums = V.sum(axis=0)
    if np.any(np.abs(sums) < ZERO_SUM_RTOL):
        raise ZeroColumnSum("an eigenvector has near-zero entry sum")
    C = V / sums

    scale = 1.0 + float(np.abs(A).max())
    D = np.linalg.solve(C, A @ C)
    residual = float(np.abs(D - np.diag(w)).max())
    if residual > max(tol, 1e-12) * scale:
        raise NonConvergedEigensolve(
            f"diagonalization residual {residual:.3e} exceeds tolerance"
        )
    ones = np.ones((n, n), dtype=complex)
    proj = np.eye(n) - ones
    rank_one_residual = float(np.abs(np.linalg.solve(C, proj @ C) - proj).max())
    return Diagonalizer(C=C, eigenvalues=w, residual=residual,
                        rank_one_residual=rank_one_residual)


def reduce(pt: MatrixPhasePoint, slice: Slice, g, tol: float = 1e-8) -> ReducedPoint:
    """Reduce a level-set point at the chosen slice.

    Checks the off-diagonal Calogero structure of the resolved matrix; a
    mismatch signals a wrong coupling or an off-level-set input.
    """
    gv = coupling_value(g)
    ok, dev = on_level_set(pt, gv, tol)
    if not ok:
        raise NotOnLevelSet(f"moment-map deviation {dev:.3e} exceeds tol {tol:.3e}")
    if pt.n == 1:
        pos = pt.q[0, 0] if slice is Slice.Q_DIAG else pt.p[0, 0]
        mom = pt.p[0, 0] if slice is Slice.Q_DIAG else pt.q[0, 0]
        return ReducedPoint([pos], [mom], gv, pt.t, slice)

    target, partner = (pt.q, pt.p) if slice is Slice.Q_DIAG else (pt.p, pt.q)
    try:
        diag = normalized_diagonalizer(target, tol)
    except DegenerateSpectrum as exc:
        raise ParticleCollision(str(exc)) from exc
    pos = diag.eigenvalues
    M = np.linalg.solve(diag.C, partner @ diag.C)

    expect = calogero_block(pos, gv, offdiag_sign(slice))
    mask = ~np.eye(pt.n, dtype=bool)
    mismatch = float(np.abs((M - expect)[mask]).max())
    if mismatch > tol:
        raise OffDiagonalMismatch(
            f"off-diagonal deviates from i*g/dx by {mismatch:.3e} (tol {tol:.3e}); "
            "wrong coupling or off-level-set input"
        )
    return ReducedPoint(pos, np.diag(M).copy(), gv, pt.t, slice)


def embed(x: ReducedPoint) -> MatrixPhasePoint:
    """Rebuild the slice-diagonal matrix representative of a reduced point."""
    a = x.positions
    collision_guard(a)
    resolved = np.diag(x.momenta) + calogero_block(a, x.g, offdiag_sign(x.slice))
    if x.slice is Slice.Q_DIAG:
        return MatrixPhasePoint(np.diag(a), resolved, x.t)
    return MatrixPhasePoint(resolved, np.diag(a), x.t)


def dual_of(x: ReducedPoint, tol: float = 1e-8) -> ReducedPoint:
    """Re-reduce the embedded point at the opposite slice."""
    return reduce(embed(x), x.slice.other, x.g, tol)


def match_permutation(reference: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """Greedy nearest-value assignment; adequate at desk scale (n <= 8).

    Returns indices perm with candidate[perm] ~ reference.
    """
    reference = np.asarray(reference)
    candidate = np.asarray(candidate)
    if reference.shape != candidate.shape:
        raise ValueError("permutation matching needs equal-length vectors")
    free = list(range(candidate.size))
    perm = np.empty(candidate.size, dtype=int)
    for i, r in enumerate(reference):
        j = min(free, key=lambda k: abs(candidate[k] - r))
        perm[i] = j
        free.remove(j)
    return perm


def permuted_deviation(x: ReducedPoint, y: ReducedPoint) -> float:
    """Max-norm distance between reduced points up to particle relabeling."""
    perm = match_permutation(x.positions, y.positions)
    dp = np.abs(y.positions[perm] - x.positions).max()
    dm = np.abs(y.momenta[perm] - x.momenta).max()
    return float(max(dp, dm))
