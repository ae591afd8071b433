"""Lax and isomonodromic pairs, characteristic polynomials, spectral matching.

Pairs are stored as four explicit n x n blocks of a 2n x 2n matrix; the
gauge (C (x) Id_2) then acts blockwise, so the reduced pair is obtained by
plain substitution of the embedded slice representative.

The P_IV pair ships in two variants.  "printed" reproduces the published
matrices verbatim; it is not zero-curvature compatible (its lambda-residue
trace evolves along the flow, which no rational B can match).  "corrected"
flips the sign of the (1,1) residue block, making the residue rank-n with
constant trace, and uses the B derived from the deformation equations:

    A = [[-pq/l, qp+th0+th1-(pqp+th0 p)/l], [1+q/l, -l+t+(qp+th0)/l]]
    B = [[t/2, -(qp+th0+th1)], [-1, l - q - t/2]]

which reproduces the P_IV equations of motion exactly (see CONVENTIONS.md).
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (DimensionMismatch, NonConvergedEigensolve, PoleAtLambda,
                     UnsupportedSystem)
from .hamiltonians import matrix_vector_field
from .phase import (MatrixPhasePoint, SystemKind, SystemSpec, TangentPair,
                    add_to_diagonal)
from .reduction import (ReducedPoint, Slice, embed, inverse_square_kernel,
                        matrix_point, reduce)

POLE_EPS = 1e-12
SPECTRAL_TOL = 1e-8  # spectral_match's verdict: largest det ratio deviation accepted
# entries of spectral_match's largest slogdet stack: 2n + 1 matrices 2n x 2n at n = 12
SLOGDET_ENTRIES = 25 * 24 * 24


class LaxPair(NamedTuple):
    """The pair (L, M) at one point and one spectral parameter."""

    L: np.ndarray
    M: np.ndarray


def _zero_stack(spec: SystemSpec, q, p, T, lam, p4_variant: str):
    """The inputs as arrays, a zero (..., 2n, 2n) stack over their leading axes, its blocks."""
    if spec.kind is SystemKind.P_IV and p4_variant not in ("corrected", "printed"):
        raise ValueError(f"unknown P_IV variant {p4_variant!r}")
    q, p, T = np.asarray(q, dtype=complex), np.asarray(p, dtype=complex), np.asarray(T)
    lam = np.asarray(lam, dtype=complex)
    n = q.shape[-1]
    shape = np.broadcast_shapes(q.shape[:-2], p.shape[:-2], lam.shape, T.shape)
    A = np.zeros(shape + (2 * n, 2 * n), dtype=complex)
    return q, p, T, lam, A, (A[..., :n, :n], A[..., :n, n:], A[..., n:, :n], A[..., n:, n:])


def lax_l(spec: SystemSpec, q: np.ndarray, p: np.ndarray, T, lam,
          p4_variant: str = "corrected") -> np.ndarray:
    """L over stacked points and spectral parameters.

    q and p are (..., n, n); the effective time T = spec.time(t) and lam
    broadcast over the leading axes, and L comes back as a (..., 2n, 2n)
    array, filled block by block.  The coefficients lam^2 and theta/lam
    are formed in Python complex arithmetic, one lambda at a time: numpy's
    vectorised complex loops round them differently, and this way every
    point of a stack is bitwise the matrix of its own lax_pair call.
    """
    k = spec.kind
    lam = np.asarray(lam, dtype=complex)
    if k in (SystemKind.P_II, SystemKind.P_IV) and np.any(np.abs(lam) < POLE_EPS):
        raise PoleAtLambda(f"{k.value} pair has a pole at lambda = 0")
    q, p, T, lam, L, (L11, L12, L21, L22) = _zero_stack(spec, q, p, T, lam, p4_variant)
    l = lam[..., None, None]

    def per_lambda(f):
        return np.reshape([f(z) for z in lam.ravel().tolist()], lam.shape)

    # one block at a time, so that at most one stack-sized temporary is alive
    if k is SystemKind.FREE:
        L11[...] = p
        L22[...] = -p
    elif k is SystemKind.HARM_OSC:
        L11[...] = p
        L12[...] = spec.omega * q
        L21[...] = L12
        L22[...] = -p
    elif k is SystemKind.P_I:
        L11[...] = p
        L12[...] = -q
        add_to_diagonal(L12, lam)
        L21[...] = l * q
        add_to_diagonal(L21, per_lambda(lambda z: z ** 2))
        L21 += q @ q
        add_to_diagonal(L21, T / 2)
        L22[...] = -p
    elif k is SystemKind.P_II:
        L11[...] = 1j * q @ q
        add_to_diagonal(L11, 1j * (per_lambda(lambda z: z ** 2) / 2))
        add_to_diagonal(L11, 1j * (T / 2))
        L22[...] = -L11
        theta_over_lam = per_lambda(lambda z: spec.theta / z)
        L12[...] = l * q
        L12 -= 1j * p
        add_to_diagonal(L12, -theta_over_lam)
        L21[...] = l * q
        L21 += 1j * p
        add_to_diagonal(L21, -theta_over_lam)
    elif k is SystemKind.P_IV:
        th0, th1 = spec.theta0, spec.theta1
        qp, pq = q @ p, p @ q
        L22[...] = qp
        add_to_diagonal(L22, th0)
        L22 /= l
        add_to_diagonal(L22, T - lam)
        X = add_to_diagonal(qp, th0 + th1)
        L11[...] = pq / l
        if p4_variant == "corrected":
            np.negative(L11, out=L11)
        L12[...] = X - (pq @ p + th0 * p) / l
        L21[...] = q / l
        add_to_diagonal(L21, 1.0)
    else:
        raise UnsupportedSystem(f"no printed pair for {k}")
    return L


def lax_m(spec: SystemSpec, q: np.ndarray, p: np.ndarray, T, lam,
          p4_variant: str = "corrected") -> np.ndarray:
    """M over the stacks of lax_l; polynomial in lambda, so it has no pole check."""
    k = spec.kind
    q, p, T, lam, M, (M11, M12, M21, M22) = _zero_stack(spec, q, p, T, lam, p4_variant)
    if k is SystemKind.HARM_OSC:
        add_to_diagonal(M12, -(spec.omega / 2))
        add_to_diagonal(M21, spec.omega / 2)
    elif k is SystemKind.P_I:
        add_to_diagonal(M12, 0.5)
        M21[...] = q
        add_to_diagonal(M21, lam / 2)
    elif k is SystemKind.P_IV and p4_variant == "corrected":
        add_to_diagonal(M11, T / 2)
        M12[...] = -add_to_diagonal(q @ p, spec.theta0 + spec.theta1)
        add_to_diagonal(M21, -1.0)
        M22[...] = -q
        add_to_diagonal(M22, lam)
        add_to_diagonal(M22, -(T / 2))
    elif k in (SystemKind.P_II, SystemKind.P_IV):
        # [[i lam/2, q], [q, -i lam/2]]: the P_II pair's M, and the printed P_IV one
        add_to_diagonal(M11, 1j * (lam / 2))
        M12[...] = q
        M21[...] = q
        add_to_diagonal(M22, -1j * (lam / 2))
    elif k is not SystemKind.FREE:  # the free M is 0
        raise UnsupportedSystem(f"no printed pair for {k}")
    return M


def lax_pair(spec: SystemSpec, pt: MatrixPhasePoint, lam: complex) -> LaxPair:
    """The isomonodromic/isospectral pair at spectral parameter lam.

    One point of lax_l and lax_m; autonomous specs substitute tau for t
    inside both matrices.
    """
    T = spec.time(pt.t)
    return LaxPair(lax_l(spec, pt.q, pt.p, T, lam), lax_m(spec, pt.q, pt.p, T, lam))


def reduced_lax(spec: SystemSpec, x: ReducedPoint, lam: complex) -> LaxPair:
    """Pair assembled from reduced coordinates.

    The embedded point is the slice-diagonal orbit representative, so
    direct substitution realizes the (C (x) Id_2) gauge of the unreduced
    pair; the conjugation identity is exercised by spectral_match.
    """
    return lax_pair(spec, embed(x), lam)


def char_poly(L: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients in mu, leading first."""
    L = np.asarray(L, dtype=complex)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError("char_poly needs a square matrix")
    return charpoly_coefficients(L)


def faddeev_charpoly(L: np.ndarray) -> np.ndarray:
    """char_poly by the Faddeev-LeVerrier recurrence.

    Exact in rational arithmetic; here a float cross-check of the
    eigenvalue route.
    """
    L = np.asarray(L, dtype=complex)
    k = L.shape[0]
    coeffs = np.empty(k + 1, dtype=complex)
    coeffs[0] = 1.0
    M = np.zeros_like(L)
    for m in range(1, k + 1):
        M = L @ M + coeffs[m - 1] * np.eye(k)
        coeffs[m] = -np.trace(L @ M) / m
    return coeffs


def charpoly_coefficients(L: np.ndarray) -> np.ndarray:
    """Monic char-poly coefficients, leading first, of each matrix of a stack.

    One batched eigensolve over L (..., k, k), then the np.poly product
    recurrence c -> c * (mu - w_j) on all rows at once.
    """
    try:
        w = np.linalg.eigvals(L)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NonConvergedEigensolve(str(exc)) from exc
    k = w.shape[-1]
    c = np.zeros(w.shape[:-1] + (k + 1,), dtype=complex)
    c[..., 0] = 1.0
    for j in range(k):
        c[..., 1:j + 2] -= w[..., j:j + 1] * c[..., :j + 1]
    return c


def default_lambda_grid(n_per_circle: int = 10,
                        radii: tuple[float, float] = (0.5, 2.0)) -> list[complex]:
    """20 pole-free points on two circles around the origin."""
    grid = []
    for r in radii:
        for k in range(n_per_circle):
            grid.append(r * np.exp(1j * (2 * np.pi * k / n_per_circle + 0.37)))
    return grid


def spectral_match(spec: SystemSpec, a, b, lam_grid=None) -> tuple[bool, float]:
    """Compare the spectral curves det(mu - L(lambda)) of two descriptions.

    At each lambda both sides are monic of degree 2n in mu, so they are
    equal iff they agree at 2n points.  The deviation is the largest
    |det(mu - L_a) / det(mu - L_b) - 1| over 2n + 1 points of the circle
    |mu| = 2 max(||L_a||_inf, ||L_b||_inf), where every factor mu - eigenvalue
    is at least half the radius, so the ratio is well conditioned at any n.
    L is built once, for both sides over the grid.  Each slogdet call covers
    the 2n + 1 points of as many (lambda, side) pairs as fit in
    SLOGDET_ENTRIES matrix entries (every pair in one call up to n = 3, one
    pair per call at n = 12), so the stack never outgrows that of one pair
    at n = 12, and each pair's determinants are those of a call of its own.
    """
    grid = default_lambda_grid() if lam_grid is None else list(lam_grid)
    if not grid:
        raise ValueError("spectral_match needs a non-empty lambda grid")
    pa, pb = matrix_point(a), matrix_point(b)
    if pa.n != pb.n:
        raise DimensionMismatch(f"comparing n = {pa.n} against n = {pb.n}")
    k = 2 * pa.n
    circle = np.exp(2j * np.pi * np.arange(k + 1) / (k + 1))[:, None, None] * np.eye(k)
    # (lambda, side, 2n, 2n): the sides on the second axis, a before b
    L = lax_l(spec, np.stack([pa.q, pb.q]), np.stack([pa.p, pb.p]),
              np.array([spec.time(pa.t), spec.time(pb.t)]), np.array(grid)[:, None])
    radius = 2 * np.abs(L).sum(axis=-1).max(axis=(1, 2))
    scale = np.repeat(np.where(radius == 0, 1.0, radius), 2)  # one per (lambda, side)
    L = L.reshape(-1, k, k)
    sign = np.empty((len(L), k + 1), dtype=complex)
    logdet = np.empty((len(L), k + 1))
    step = max(1, SLOGDET_ENTRIES // ((k + 1) * k * k))
    for i in range(0, len(L), step):
        shifted = scale[i:i + step, None, None, None] * circle
        shifted -= L[i:i + step, None]  # mu - L
        sign[i:i + step], logdet[i:i + step] = np.linalg.slogdet(shifted)
    ratio = sign[0::2] / sign[1::2] * np.exp(logdet[0::2] - logdet[1::2])
    worst = float(np.abs(ratio - 1).max())  # a NaN deviation, from non-finite L, fails
    return worst < SPECTRAL_TOL, worst


def spectral_duality(spec: SystemSpec, pt: MatrixPhasePoint, g: float,
                     lam_grid=None) -> dict[str, float]:
    """spectral_match deviations of one level-set point and its two reductions.

    pt is reduced at the q-diagonal slice (reduced) and at the p-diagonal
    slice (dual); the three pairs of their Lax matrices are compared.
    """
    xq = reduce(pt, Slice.Q_DIAG, g, tol=1e-5)
    xp = reduce(pt, Slice.P_DIAG, g, tol=1e-5)
    pairs = {"unreduced_vs_reduced": (pt, xq), "unreduced_vs_dual": (pt, xp),
             "reduced_vs_dual": (xq, xp)}
    return {name: spectral_match(spec, a, b, lam_grid)[1]
            for name, (a, b) in pairs.items()}


def spectral_table(spec: SystemSpec, obj, lam_grid=None) -> np.ndarray:
    """The monic char-poly coefficients in mu of L(lambda), one row per lambda."""
    grid = default_lambda_grid() if lam_grid is None else list(lam_grid)
    pt = matrix_point(obj)
    return charpoly_coefficients(lax_l(spec, pt.q, pt.p, spec.time(pt.t), grid))


# ---------------------------------------------------------------------------
# zero curvature
# ---------------------------------------------------------------------------

def zero_curvature_residual(spec: SystemSpec, pt: MatrixPhasePoint, lam: complex,
                            perturb: TangentPair | None = None,
                            p4_variant: str = "corrected") -> float:
    """Max-norm of A_t - B_lam + [A, B] (isomonodromic) or L_t + [L, M],
    relative to max(|A_t|, |[A, B]|).

    A_t is the derivative of the L-builder along the straight ray
    (q, p, t) + s (qdot, pdot, 1), the equations of motion optionally
    perturbed to show that a wrong flow is detected.  The builders are
    polynomials of degree <= 3 there, so the 5-point central stencil is
    exact, as is one central difference of M (affine in lambda) for B_lam:
    an exact pair leaves roundoff only.  Autonomous specs freeze tau, drop
    the B_lam term, and check the Lax equation.
    """
    qdot, pdot = matrix_vector_field(spec, pt.q, pt.p, pt.t)
    if perturb is not None:
        qdot, pdot = qdot + perturb.dq, pdot + perturb.dp

    # the point itself, then the stencil points s = 1, -1, 2, -2 of the ray
    s = np.array([0.0, 1.0, -1.0, 2.0, -2.0])
    ray = s[:, None, None]
    L = lax_l(spec, pt.q + ray * qdot, pt.p + ray * pdot, spec.time(pt.t + s), lam,
              p4_variant)
    # M at the point, and at lam +- d for B_lam (d > 0 also at lam = 0)
    d = abs(lam) / 2 or 0.5
    M = lax_m(spec, pt.q, pt.p, spec.time(pt.t), [lam, lam + d, lam - d], p4_variant)
    At = (8 * (L[1] - L[2]) - (L[3] - L[4])) / 12
    commutator = L[0] @ M[0] - M[0] @ L[0]
    residual = At + commutator
    if not spec.autonomous:
        residual -= (M[1] - M[2]) / (2 * d)
    scale = max(np.abs(At).max(), np.abs(commutator).max()) or 1.0
    return float(np.abs(residual).max() / scale)


# ---------------------------------------------------------------------------
# gauge matrix F and the reduced M
# ---------------------------------------------------------------------------

def gauge_F(spec: SystemSpec, x: ReducedPoint) -> np.ndarray:
    """The gauge generator C^-1 dC/dt expressed in reduced coordinates.

    Off the diagonal F_ij = ([R, D])_ij / (d_i - d_j)^2 where D is the
    diagonalized matrix of the slice and R the matrix EOM right-hand side
    for it (qdot on Q_DIAG, pdot on P_DIAG).  The diagonal is completed by
    the row-sum rule plus the mean off-diagonal shift; on the level set
    this equals the column-sum rule implied by v C = v (both v C = v and
    C v^T = v^T propagate along the flow), and the scalar shift drops out
    of the Lax equation.
    """
    pt = embed(x)
    qdot, pdot = matrix_vector_field(spec, pt.q, pt.p, pt.t)
    R = qdot if x.slice is Slice.Q_DIAG else pdot
    D = np.diag(x.positions)
    F = (R @ D - D @ R) * inverse_square_kernel(x.positions)
    # printed completion: row sums plus the mean off-diagonal mass
    np.fill_diagonal(F, F.sum() / x.n - F.sum(axis=1))
    return F


def reduced_m(spec: SystemSpec, x: ReducedPoint, lam: complex) -> np.ndarray:
    """M of the reduced pair: M(embedded coordinates) - F (x) Id_2."""
    pt = embed(x)
    M = lax_m(spec, pt.q, pt.p, spec.time(pt.t), lam)
    F = gauge_F(spec, x)
    n = x.n
    M[:n, :n] -= F
    M[n:, n:] -= F
    return M
