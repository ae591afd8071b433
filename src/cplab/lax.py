"""Lax and isomonodromic pairs, characteristic polynomials, spectral matching.

L and M are Laurent polynomials in lambda, each held as one coefficient
table of 2n x 2n matrices of four n x n blocks; the gauge (C (x) Id_2) then
acts blockwise, so the reduced pair is obtained by plain substitution of
the embedded slice representative.

The P_IV pair ships in two variants.  "printed" reproduces the published
matrices verbatim; it is not zero-curvature compatible (its lambda-residue
trace evolves along the flow, which no rational B can match).  "corrected"
flips the sign of the (1,1) residue block, making the residue rank-n with
constant trace, and uses the B derived from the deformation equations:

    A = [[-pq/l, qp+th0+th1-(pqp+th0 p)/l], [1+q/l, -l+t+(qp+th0)/l]]
    B = [[t/2, -(qp+th0+th1)], [-1, l - q - t/2]]

which reproduces the P_IV equations of motion exactly (see CONVENTIONS.md).

P_II_poly's L is P_II's at the canonical image (q, P - q^2 - T/2) of its
point, and its M is P_II's, which reads q alone (see CONVENTIONS.md).
"""
from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonConvergedEigensolve, Overflow, PoleAtLambda
from .hamiltonians import matrix_vector_field
from .phase import FREE, HARM_OSC, P_I, P_II, P_IV, MatrixPhasePoint, SystemSpec
from .reduction import (ReducedPoint, Slice, embed, inverse_square_kernel, point_arrays,
                        reduce)

POLE_EPS = 1e-12
# spectral_match's verdict: largest scaled power-trace difference accepted
SPECTRAL_TOL = 1e-8
# spectral_match's sides held for reuse: one duality triple (a point, its
# reduction and its dual) and one more side
SIDE_CACHE_SIZE = 4
# power_traces' live stacks of its input's size: r - 1 babies and two giants
POWER_TRACE_STACKS = 5


class LaxPair(NamedTuple):
    """The pair (L, M) at one point and one spectral parameter."""

    L: np.ndarray
    M: np.ndarray


def _points(spec: SystemSpec, q, p, t, p4_variant: str):
    """q and p as complex arrays, T = spec.time(t) as an array, and the points' leading shape."""
    if spec.kind is P_IV and p4_variant not in ("corrected", "printed"):
        raise ValueError(f"unknown P_IV variant {p4_variant!r}")
    q, p = np.asarray(q, dtype=complex), np.asarray(p, dtype=complex)
    T = np.asarray(spec.time(t))
    return q, p, T, np.broadcast_shapes(q.shape[:-2], p.shape[:-2], T.shape)


def _table(lead: tuple, n: int, low: int, high: int, blocks: dict,
           scalars: dict) -> tuple[int, np.ndarray]:
    """(low, C): C the (*lead, high - low + 1, 2n, 2n) table of lambda^low .. lambda^high.

    Block (a, b) of the lambda^m coefficient is blocks[m, a, b] plus
    scalars[m, a, b] (broadcast over lead) times 1, each 0 where its key is
    absent.  The scalars are written along every block diagonal at once,
    through one einsum view (an in-place add there would buffer a copy).
    """
    S = np.zeros(lead + (high - low + 1, 2, 2), dtype=complex)
    for (m, a, b), s in scalars.items():
        S[..., m - low, a, b] = s
    C = np.zeros(lead + (high - low + 1, 2, n, 2, n), dtype=complex)
    np.einsum("...aibi->...abi", C)[...] = S[..., None]
    for (m, a, b), X in blocks.items():
        C[..., m - low, a, :, b, :] += X
    return low, C.reshape(lead + (high - low + 1, 2 * n, 2 * n))


def _evaluate(table: tuple[int, np.ndarray], lam) -> np.ndarray:
    """sum_j lam^(low + j) C_j of a table (low, C), as (..., 2n, 2n).

    lam's axes broadcast against C's leading axes in one np.matmul of the
    powers of lam with the flattened coefficients.  A table with a
    negative power raises PoleAtLambda where some |lam| < POLE_EPS.
    """
    low, C = table
    lam = np.asarray(lam, dtype=complex)
    if low < 0 and np.any(np.abs(lam) < POLE_EPS):
        raise PoleAtLambda(f"a pole of order {-low} at lambda = 0")
    J, K = C.shape[-3], C.shape[-1]
    powers = lam[..., None, None] ** np.arange(low, low + J)
    out = np.matmul(powers, C.reshape(C.shape[:-2] + (K * K,)))
    return out.reshape(out.shape[:-2] + (K, K))


def l_coefficients(spec: SystemSpec, q: np.ndarray, p: np.ndarray, t,
                   p4_variant: str = "corrected") -> tuple[int, np.ndarray]:
    """L as a Laurent table in lambda: (low, C), L(lambda) = sum_j lambda^(low + j) C_j.

    q and p are (..., n, n) and t broadcasts over their leading axes; C is
    (..., J, 2n, 2n).  Its powers: P_I lambda^0 .. lambda^2, P_II and
    P_II_poly lambda^-1 .. lambda^2, P_IV lambda^-1 .. lambda^1, HarmOsc
    and Free lambda^0 alone.  Keys below are (power, block row, block column).
    """
    q, p, T, lead = _points(spec, q, p, t, p4_variant)
    n, k = q.shape[-1], spec.kind
    if k is FREE:  # [[p, 0], [0, -p]]
        return _table(lead, n, 0, 0, {(0, 0, 0): p, (0, 1, 1): -p}, {})
    if k is HARM_OSC:  # [[p, w q], [w q, -p]]
        wq = spec.omega * q
        return _table(lead, n, 0, 0, {(0, 0, 0): p, (0, 0, 1): wq, (0, 1, 0): wq,
                                      (0, 1, 1): -p}, {})
    if k is P_I:  # [[p, l - q], [l^2 + l q + q^2 + T/2, -p]]
        return _table(lead, n, 0, 2, {(0, 0, 0): p, (0, 0, 1): -q, (0, 1, 0): q @ q,
                                      (0, 1, 1): -p, (1, 1, 0): q},
                      {(0, 1, 0): T / 2, (1, 0, 1): 1, (2, 1, 0): 1})
    if k is P_II:  # [[d, l q - i p - th/l], [l q + i p - th/l, -d]], d = i (l^2/2 + q^2 + T/2)
        iqq, ip = 1j * (q @ q), 1j * p
        return _table(lead, n, -1, 2, {(0, 0, 0): iqq, (0, 1, 1): -iqq, (0, 0, 1): -ip,
                                       (0, 1, 0): ip, (1, 0, 1): q, (1, 1, 0): q},
                      {(-1, 0, 1): -spec.theta, (-1, 1, 0): -spec.theta,
                       (0, 0, 0): 1j * (T / 2), (0, 1, 1): -1j * (T / 2),
                       (2, 0, 0): 0.5j, (2, 1, 1): -0.5j})
    if k is P_IV:  # the module docstring's A; "printed" flips its (1,1) residue
        th0, qp, pq = spec.theta0, q @ p, p @ q
        return _table(lead, n, -1, 1, {(-1, 0, 0): -pq if p4_variant == "corrected" else pq,
                                       (-1, 0, 1): -(pq @ p + th0 * p), (-1, 1, 0): q,
                                       (-1, 1, 1): qp, (0, 0, 1): qp},
                      {(-1, 1, 1): th0, (0, 0, 1): th0 + spec.theta1, (0, 1, 0): 1,
                       (0, 1, 1): T, (1, 1, 1): -1})
    return l_coefficients(*_p2_image(spec, q, p, T), t)  # P_II_poly


def _p2_image(spec: SystemSpec, q: np.ndarray, p: np.ndarray, T):
    """(P_II's spec, q, P - q^2 - T/2): a P_II_poly point (q, P) on P_II, by the
    canonical map generated by Tr(qP) - Tr(q^3)/3 - (T/2) Tr q.  Its time
    derivative, -(1/2) Tr q, shifts theta by -1/2, unless T is frozen."""
    theta = spec.theta if spec.autonomous else spec.theta - 0.5
    return (SystemSpec(P_II, spec.autonomous, theta, tau=spec.tau), q,
            p - q @ q - (T / 2)[..., None, None] * np.eye(q.shape[-1]))


def m_coefficients(spec: SystemSpec, q: np.ndarray, p: np.ndarray, t,
                   p4_variant: str = "corrected") -> tuple[int, np.ndarray]:
    """M as a table of l_coefficients' kind over lambda^0 .. lambda^1: (0, C).

    C is (..., 2, 2n, 2n); its lambda^1 coefficient is B_lambda, exactly.
    """
    q, p, T, lead = _points(spec, q, p, t, p4_variant)
    n, k = q.shape[-1], spec.kind
    if k is FREE:  # 0
        blocks, scalars = {}, {}
    elif k is HARM_OSC:  # (w/2) [[0, -1], [1, 0]]
        blocks, scalars = {}, {(0, 0, 1): -(spec.omega / 2), (0, 1, 0): spec.omega / 2}
    elif k is P_I:  # [[0, 1/2], [l/2 + q, 0]]
        blocks, scalars = {(0, 1, 0): q}, {(0, 0, 1): 0.5, (1, 1, 0): 0.5}
    elif k is P_IV and p4_variant == "corrected":  # the module docstring's B
        blocks = {(0, 0, 1): -(q @ p), (0, 1, 1): -q}
        scalars = {(0, 0, 0): T / 2, (0, 0, 1): -(spec.theta0 + spec.theta1),
                   (0, 1, 0): -1, (0, 1, 1): -(T / 2), (1, 1, 1): 1}
    else:  # P_II, P_II_poly and the printed P_IV: [[i l/2, q], [q, -i l/2]]
        blocks, scalars = {(0, 0, 1): q, (0, 1, 0): q}, {(1, 0, 0): 0.5j, (1, 1, 1): -0.5j}
    return _table(lead, n, 0, 1, blocks, scalars)


def lax_l(spec: SystemSpec, q: np.ndarray, p: np.ndarray, t, lam,
          p4_variant: str = "corrected") -> np.ndarray:
    """L over stacked points and spectral parameters: l_coefficients read at lam.

    q and p are (..., n, n); t broadcasts over their leading axes and lam's
    axes against those, so L comes back as a (..., 2n, 2n) array.  The
    P_II, P_II_poly and P_IV tables start at lambda^-1, so they raise
    PoleAtLambda where some |lam| < POLE_EPS.
    """
    return _evaluate(l_coefficients(spec, q, p, t, p4_variant), lam)


def lax_m(spec: SystemSpec, q: np.ndarray, p: np.ndarray, t, lam,
          p4_variant: str = "corrected") -> np.ndarray:
    """M over the stacks of lax_l: m_coefficients read at lam; polynomial, so no pole."""
    return _evaluate(m_coefficients(spec, q, p, t, p4_variant), lam)


def lax_pair(spec: SystemSpec, pt: MatrixPhasePoint, lam: complex) -> LaxPair:
    """The isomonodromic/isospectral pair at spectral parameter lam.

    One point of lax_l and lax_m; autonomous specs substitute tau for t
    inside both matrices.
    """
    return LaxPair(lax_l(spec, pt.q, pt.p, pt.t, lam), lax_m(spec, pt.q, pt.p, pt.t, lam))


def reduced_lax(spec: SystemSpec, x: ReducedPoint, lam: complex) -> LaxPair:
    """Pair assembled from reduced coordinates.

    The embedded point is the slice-diagonal orbit representative, so
    direct substitution realizes the (C (x) Id_2) gauge of the unreduced
    pair; the conjugation identity is exercised by spectral_match.
    """
    return lax_pair(spec, embed(x), lam)


def char_poly(L: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients in mu, leading first.

    L is one k x k matrix or a stack (..., k, k); one batched eigensolve,
    then the np.poly product recurrence c -> c * (mu - w_j) on all rows at
    once, so the result is (k + 1,) or (..., k + 1).
    """
    L = np.asarray(L, dtype=complex)
    if L.ndim < 2 or L.shape[-2] != L.shape[-1]:
        raise ValueError("char_poly needs a square matrix or a stack of them")
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


def newton_charpoly(L: np.ndarray) -> np.ndarray:
    """char_poly by Newton's identities on power_traces(L).

    m c_m = -sum_{j=1..m} c_{m-j} Tr L^j, so the coefficients come from the
    kernel that spectral_match and the isospectral monitor read; here a
    float cross-check of the eigen route.
    """
    traces = power_traces(np.asarray(L, dtype=complex))
    k = traces.shape[-1]
    c = np.empty(traces.shape[:-1] + (k + 1,), dtype=complex)
    c[..., 0] = 1.0
    for m in range(1, k + 1):
        c[..., m] = -(c[..., m - 1::-1] * traces[..., :m]).sum(axis=-1) / m
    return c


_LAMBDA_GRID = tuple(r * np.exp(1j * (2 * np.pi * k / 10 + 0.37)) for r in (0.5, 2.0)
                     for k in range(10))


def default_lambda_grid() -> list[complex]:
    """20 pole-free points, 10 on each of the circles |lambda| = 0.5 and 2.

    The points are computed once, at import; each call returns a new list of them.
    """
    return list(_LAMBDA_GRID)


def power_traces(A: np.ndarray) -> np.ndarray:
    """Tr A^k for k = 1 .. K of each K x K matrix of a stack (..., K, K), as (..., K).

    Baby steps and giant steps of stride r = min(ceil(K/2), POWER_TRACE_STACKS - 1):
    the babies A^2 .. A^r, one factor at a time, are held as r - 1 rows of
    K^2 entries per matrix; the giants A^r, A^2r, ... below A^K are held
    transposed, each (A^r)^T times the one before, in two buffers that
    they alternate between.  Since Tr (X Y) = <vec X^T, vec Y>, each giant
    A^g gives Tr A^(g+1) by one np.matvec against A's row and
    Tr A^(g+2) .. A^(g+r) by one against the babies' rows; Tr A .. A^r
    are diagonals.  So r - 1 + max(ceil(K/r) - 2, 0) batched np.matmul
    products give all K traces (ceil(K/2) - 1 at K <= 8, 5 at K = 16, 7 at
    K = 24), and besides A at most POWER_TRACE_STACKS stacks of its size
    are alive (and a flat copy of A if A is not C-contiguous).  By
    Newton's identities the K traces fix the characteristic polynomial
    (newton_charpoly runs that recurrence).  A stack of 0 x 0 matrices
    gives an empty (..., 0).  spectral_match calls it once per side, on
    that side's (lambda, 2n, 2n) stack; the isospectral monitor once per
    block of states, at both of its lambdas.
    """
    K, lead = A.shape[-1], A.shape[:-2]
    traces = np.empty(lead + (K,), dtype=complex)
    if K == 0:
        return traces
    r = min((K + 1) // 2, POWER_TRACE_STACKS - 1)
    np.einsum("...ii->...", A, out=traces[..., 0])
    P = A
    if r > 1:  # the babies A^2 .. A^r, P = A^r
        babies = np.empty(lead + (r - 1, K, K), dtype=complex)
        for b in range(r - 1):
            P = np.matmul(P, A, out=babies[..., b, :, :])
        np.einsum("...ii->...", babies, out=traces[..., 1:r])
        rows = babies.reshape(lead + (r - 1, K * K))
    row = A.reshape(lead + (1, K * K))
    giants = range(r, K, r)
    buffers = np.empty((min(len(giants), 2),) + A.shape, dtype=complex)
    vecs = buffers.reshape(buffers.shape[:-2] + (K * K,))
    for j, g in enumerate(giants):  # buffers[j % 2] <- (A^g)^T
        if j:
            np.matmul(P.mT, buffers[1 - j % 2], out=buffers[j % 2])
        else:
            np.copyto(buffers[0], P.mT)
        top = min(r, K - g)
        np.matvec(row, vecs[j % 2], out=traces[..., g:g + 1])
        if top > 1:
            np.matvec(rows[..., :top - 1, :], vecs[j % 2], out=traces[..., g + 1:g + top])
    return traces


def row_sum_norm(L: np.ndarray, axis=None) -> np.ndarray:
    """||L||_inf, the largest row-sum norm, of each matrix of the stack L (..., K, K).

    The maximum runs over the rows of each matrix and over the leading axes
    in axis (all when None, none when ()); those and the last two stay as
    axes of length 1, so the norm broadcasts against L.  It is 0 exactly
    where L is 0, and NaN where L has a NaN.  The one pass over L that
    power_trace_scale and each spectral_match side make.
    """
    rows = np.abs(L).sum(axis=-1)
    lead = tuple(range(rows.ndim - 1)) if axis is None else tuple(np.atleast_1d(axis))
    return rows.max(axis=lead + (-1,), keepdims=True)[..., None]


def _unit_where_zero(norm: np.ndarray) -> np.ndarray:
    """A row-sum norm as a scale: 1 where the norm is 0, the norm elsewhere."""
    return np.where(norm == 0, 1.0, norm)


def power_trace_scale(L: np.ndarray, axis=None) -> np.ndarray:
    """s = row_sum_norm(L, axis), or 1 where it is 0: L / s has its spectrum in |z| <= 1.

    Shaped as the norm, so it broadcasts against L.  L is scaled by
    multiplying with 1 / s: numpy divides a complex entry by a real s
    through that reciprocal, so both give equal values (signed zeros
    aside, which every reader's |.| drops), and the product is about three
    times faster.  The isospectral monitor takes one scale for the first
    state's L; a spectral_match side takes one per lambda from the same
    norm.
    """
    return _unit_where_zero(row_sum_norm(L, axis))


@functools.lru_cache(maxsize=SIDE_CACHE_SIZE)
def _spectral_side(spec: SystemSpec, n: int, q: bytes, p: bytes,
                   t) -> tuple[np.ndarray, np.ndarray]:
    """One side of spectral_match: (nu, traces) of the point (q, p, t), q and p
    the raw bytes of n x n complex matrices.

    L is built once over default_lambda_grid, a (lambda, 2n, 2n) stack;
    nu is its row_sum_norm per lambda, read in one pass over L (0 for a
    zero L), and the traces are Tr (L / s)^k, k = 1 .. 2n, with s the
    power_trace_scale of that norm (nu, or 1 where nu is 0), from one
    power_traces call on L scaled in place by 1 / s: n - 1 batched
    products up to n = 4, 7 at n = 12, and at most POWER_TRACE_STACKS
    stacks of L's size beside L.  The arrays are read-only: every call with
    this key gets them.
    """
    q, p = (np.frombuffer(m, dtype=complex).reshape(n, n) for m in (q, p))
    L = lax_l(spec, q, p, t, default_lambda_grid())
    norm = row_sum_norm(L, axis=())
    L *= 1 / _unit_where_zero(norm)
    side = norm[:, 0, 0], power_traces(L)
    for a in side:
        a.flags.writeable = False
    return side


def spectral_match(spec: SystemSpec, a, b) -> tuple[bool, float]:
    """Compare the spectral curves det(mu - L(lambda)) of two descriptions.

    a and b are matrix or reduced points, read as plain (q, p, t) arrays
    by reduction.point_arrays: a reduced point is embedded with no
    MatrixPhasePoint built.  At each lambda of default_lambda_grid both
    sides are monic of degree 2n in mu, so by Newton's identities they are
    equal iff their power traces Tr L^k, k = 1 .. 2n, agree.  Each side is
    powered on its own, at its own power_trace_scale (_spectral_side), and
    held in a cache of SIDE_CACHE_SIZE sides keyed by (spec, q, p, t): the
    three pairs of a duality triple power three sides, not six.  The sides
    then meet at one scale per lambda, s = max(nu_a, nu_b) of their
    row-sum norms (1 where both are 0), each trace moved there by
    (nu_side / s)^k <= 1, so each trace of A = L / s is at most 2n in
    modulus.  The deviation is the largest |Tr A_a^k - Tr A_b^k| over the
    grid and k; a NaN, from non-finite L, fails.  No determinant or
    eigensolve is made.  A spec whose theta parameters are stacks raises
    ValueError.
    """
    sides = point_arrays(a), point_arrays(b)
    na, nb = (len(q) for q, _, _ in sides)
    if na != nb:
        raise DimensionMismatch(f"comparing n = {na} against n = {nb}")
    for name in ("theta", "theta0", "theta1"):
        if not np.isscalar(getattr(spec, name)):
            raise ValueError(f"spectral_match reads one curve per side: {name} "
                             f"must be a scalar, not of shape {np.shape(getattr(spec, name))}")
    (nu_a, traces_a), (nu_b, traces_b) = (
        _spectral_side(spec, na, q.tobytes(), p.tobytes(), t) for q, p, t in sides)
    s = _unit_where_zero(np.maximum(nu_a, nu_b))
    k = np.arange(1, traces_a.shape[-1] + 1)
    deviation = traces_a * (nu_a / s)[:, None] ** k - traces_b * (nu_b / s)[:, None] ** k
    worst = float(np.abs(deviation).max())
    return worst < SPECTRAL_TOL, worst


def spectral_duality(spec: SystemSpec, pt: MatrixPhasePoint, g: float) -> dict[str, float]:
    """spectral_match deviations of one level-set point and its two reductions.

    pt is reduced at the q-diagonal slice (reduced) and at the p-diagonal
    slice (dual); the three pairs of their Lax matrices are compared, and
    spectral_match's cache powers each of the three sides once.
    """
    xq = reduce(pt, Slice.Q_DIAG, g, tol=1e-5)
    xp = reduce(pt, Slice.P_DIAG, g, tol=1e-5)
    pairs = {"unreduced_vs_reduced": (pt, xq), "unreduced_vs_dual": (pt, xp),
             "reduced_vs_dual": (xq, xp)}
    return {name: spectral_match(spec, a, b)[1] for name, (a, b) in pairs.items()}


def spectral_table(spec: SystemSpec, obj) -> np.ndarray:
    """The monic char-poly coefficients in mu of L(lambda), one row per grid lambda; finite."""
    q, p, t = point_arrays(obj)
    with np.errstate(over="ignore", invalid="ignore"):
        table = char_poly(lax_l(spec, q, p, t, default_lambda_grid()))
    if not np.isfinite(table).all():
        raise Overflow("char-poly coefficients are not finite")
    return table


# ---------------------------------------------------------------------------
# zero curvature
# ---------------------------------------------------------------------------

def zero_curvature_residual(spec: SystemSpec, pt: MatrixPhasePoint, lam: complex,
                            perturb: tuple | None = None,
                            p4_variant: str = "corrected") -> float:
    """Max-norm of A_t - B_lam + [A, B] (isomonodromic) or L_t + [L, M],
    relative to max(|A_t|, |[A, B]|).

    A_t is the derivative of the L-builder along the straight ray
    (q, p, t) + s (qdot, pdot, 1).  A plain pair perturb = (dq, dp) of
    n x n arrays is added to the equations of motion, to show that a wrong
    flow is detected; a pair of another shape raises DimensionMismatch.
    The builders are polynomials of degree <= 3 there, so the 5-point
    central stencil is exact, and B_lam is M's lambda^1 coefficient (M is
    affine in lambda): an exact pair leaves roundoff only.
    Autonomous specs freeze tau, drop the B_lam term, and check the Lax
    equation.
    """
    qdot, pdot = matrix_vector_field(spec, pt.q, pt.p, pt.t)
    if perturb is not None:
        dq, dp = perturb
        if np.shape(dq) != pt.q.shape or np.shape(dp) != pt.p.shape:
            raise DimensionMismatch(f"perturbation of shapes {np.shape(dq)}, "
                                    f"{np.shape(dp)} at a point of shape {pt.q.shape}")
        qdot, pdot = qdot + dq, pdot + dp

    # the point itself, then the stencil points s = 1, -1, 2, -2 of the ray
    s = np.array([0.0, 1.0, -1.0, 2.0, -2.0])
    ray = s[:, None, None]
    L = lax_l(spec, pt.q + ray * qdot, pt.p + ray * pdot, pt.t + s, lam, p4_variant)
    table = m_coefficients(spec, pt.q, pt.p, pt.t, p4_variant)
    M = _evaluate(table, lam)
    At = (8 * (L[1] - L[2]) - (L[3] - L[4])) / 12
    commutator = L[0] @ M - M @ L[0]
    residual = At + commutator
    if not spec.autonomous:
        residual -= table[1][1]
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
    R = x.slice.order(*matrix_vector_field(spec, pt.q, pt.p, pt.t))[0]
    D = np.diag(x.positions)
    F = (R @ D - D @ R) * inverse_square_kernel(x.positions)
    # printed completion: row sums plus the mean off-diagonal mass
    np.fill_diagonal(F, F.sum() / x.n - F.sum(axis=1))
    return F


def reduced_m(spec: SystemSpec, x: ReducedPoint, lam: complex) -> np.ndarray:
    """M of the reduced pair: M(embedded coordinates) - F (x) Id_2."""
    pt = embed(x)
    M = lax_m(spec, pt.q, pt.p, pt.t, lam)
    F = gauge_F(spec, x)
    n = x.n
    M[:n, :n] -= F
    M[n:, n:] -= F
    return M
