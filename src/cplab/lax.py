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

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergedEigensolve, PoleAtLambda, UnsupportedSystem
from .hamiltonians import matrix_vector_field, rk4_step
from .phase import MatrixPhasePoint, SystemKind, SystemSpec, TangentPair
from .reduction import ReducedPoint, Slice, embed, inverse_square_kernel

POLE_EPS = 1e-12


@dataclass(frozen=True)
class LaxSample:
    """Value of the pair (L, M) at one spectral parameter."""

    lam: complex
    L: np.ndarray
    M: np.ndarray | None = None

    def __post_init__(self):
        L = np.asarray(self.L, dtype=complex)
        if L.shape[0] != L.shape[1] or L.shape[0] % 2:
            raise ValueError("L must be square of even dimension 2n")
        if not np.all(np.isfinite(L)):
            raise ValueError("non-finite entries in L")
        object.__setattr__(self, "L", L)
        if self.M is not None:
            object.__setattr__(self, "M", np.asarray(self.M, dtype=complex))


@dataclass(frozen=True)
class SpectralSample:
    """lambda with the monic char-poly coefficients of L(lambda) in mu."""

    lam: complex
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if abs(c[0] - 1.0) > 1e-12:
            raise ValueError("coefficients must be monic (leading 1)")
        object.__setattr__(self, "coeffs", c)


def _blocks(a, b, c, d) -> np.ndarray:
    return np.block([[a, b], [c, d]])


def lax_pair(spec: SystemSpec, pt: MatrixPhasePoint, lam: complex,
             p4_variant: str = "corrected") -> LaxSample:
    """The isomonodromic/isospectral pair at spectral parameter lam.

    Autonomous specs substitute tau for t inside both matrices.
    """
    q, p = pt.q, pt.p
    n = pt.n
    I = np.eye(n, dtype=complex)
    Z = np.zeros((n, n), dtype=complex)
    T = spec.time(pt.t)
    k = spec.kind
    lam = complex(lam)

    if k is SystemKind.FREE:
        L = _blocks(p, Z, Z, -p)
        M = np.zeros((2 * n, 2 * n), dtype=complex)
        return LaxSample(lam, L, M)

    if k is SystemKind.HARM_OSC:
        om = spec.omega
        L = _blocks(p, om * q, om * q, -p)
        M = (om / 2) * _blocks(Z, -I, I, Z)
        return LaxSample(lam, L, M)

    if k is SystemKind.P_I:
        L = _blocks(p, lam * I - q,
                    lam ** 2 * I + lam * q + q @ q + (T / 2) * I, -p)
        M = _blocks(Z, I / 2, (lam / 2) * I + q, Z)
        return LaxSample(lam, L, M)

    if k is SystemKind.P_II:
        if abs(lam) < POLE_EPS:
            raise PoleAtLambda("P_II pair has a pole at lambda = 0")
        d = 1j * (lam ** 2 / 2) * I + 1j * q @ q + 1j * (T / 2) * I
        L = _blocks(d, lam * q - 1j * p - (spec.theta / lam) * I,
                    lam * q + 1j * p - (spec.theta / lam) * I, -d)
        M = _blocks(1j * (lam / 2) * I, q, q, -1j * (lam / 2) * I)
        return LaxSample(lam, L, M)

    if k is SystemKind.P_IV:
        if abs(lam) < POLE_EPS:
            raise PoleAtLambda("P_IV pair has a pole at lambda = 0")
        th0, th1 = spec.theta0, spec.theta1
        X = q @ p + (th0 + th1) * I
        res11 = (p @ q) / lam
        if p4_variant == "corrected":
            res11 = -res11
        elif p4_variant != "printed":
            raise ValueError(f"unknown P_IV variant {p4_variant!r}")
        L = _blocks(res11,
                    X - (p @ q @ p + th0 * p) / lam,
                    I + q / lam,
                    -lam * I + T * I + (q @ p + th0 * I) / lam)
        if p4_variant == "corrected":
            M = _blocks((T / 2) * I, -X, -I, lam * I - q - (T / 2) * I)
        else:
            M = _blocks(1j * (lam / 2) * I, q, q, -1j * (lam / 2) * I)
        return LaxSample(lam, L, M)

    raise UnsupportedSystem(f"no printed pair for {k}")


def reduced_lax(spec: SystemSpec, x: ReducedPoint, lam: complex,
                p4_variant: str = "corrected") -> LaxSample:
    """Pair assembled from reduced coordinates.

    The embedded point is the slice-diagonal orbit representative, so
    direct substitution realizes the (C (x) Id_2) gauge of the unreduced
    pair; the conjugation identity is exercised by spectral_match.
    """
    return lax_pair(spec, embed(x), lam, p4_variant)


def char_poly(L: np.ndarray, method: str = "eig") -> np.ndarray:
    """Monic characteristic polynomial coefficients in mu, leading first."""
    L = np.asarray(L, dtype=complex)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError("char_poly needs a square matrix")
    k = L.shape[0]
    if method == "eig":
        try:
            w = np.linalg.eigvals(L)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise NonConvergedEigensolve(str(exc)) from exc
        return np.atleast_1d(np.poly(w)).astype(complex)
    if method == "faddeev":
        # Faddeev-LeVerrier recurrence: exact in rational arithmetic,
        # here a float cross-check of the eigenvalue route
        coeffs = np.empty(k + 1, dtype=complex)
        coeffs[0] = 1.0
        M = np.zeros_like(L)
        for m in range(1, k + 1):
            M = L @ M + coeffs[m - 1] * np.eye(k)
            coeffs[m] = -np.trace(L @ M) / m
        return coeffs
    raise ValueError(f"unknown method {method!r}")


def default_lambda_grid(n_per_circle: int = 10,
                        radii: tuple[float, float] = (0.5, 2.0)) -> list[complex]:
    """20 pole-free points on two circles around the origin."""
    grid = []
    for r in radii:
        for k in range(n_per_circle):
            grid.append(r * np.exp(1j * (2 * np.pi * k / n_per_circle + 0.37)))
    return grid


def _lax_for(spec: SystemSpec, obj, lam: complex) -> np.ndarray:
    if isinstance(obj, MatrixPhasePoint):
        return lax_pair(spec, obj, lam).L
    if isinstance(obj, ReducedPoint):
        return reduced_lax(spec, obj, lam).L
    raise TypeError(f"cannot build a Lax matrix from {type(obj)!r}")


def spectral_match(spec: SystemSpec, a, b, lam_grid=None,
                   tol: float = 1e-8) -> tuple[bool, float]:
    """Compare char-poly coefficient vectors of two descriptions on a grid.

    Relative deviation per coefficient uses max(1, |c_a|, |c_b|) as the
    scale so that structurally-zero coefficients do not blow up the ratio.
    """
    grid = default_lambda_grid() if lam_grid is None else lam_grid
    worst = 0.0
    for lam in grid:
        ca = char_poly(_lax_for(spec, a, lam))
        cb = char_poly(_lax_for(spec, b, lam))
        scale = np.maximum(1.0, np.maximum(np.abs(ca), np.abs(cb)))
        worst = max(worst, float((np.abs(ca - cb) / scale).max()))
    return worst < tol, worst


def spectral_table(spec: SystemSpec, obj, lam_grid=None) -> list[SpectralSample]:
    grid = default_lambda_grid() if lam_grid is None else lam_grid
    return [SpectralSample(lam, char_poly(_lax_for(spec, obj, lam))) for lam in grid]


# ---------------------------------------------------------------------------
# zero curvature
# ---------------------------------------------------------------------------

def _richardson(f, h: float) -> np.ndarray:
    """(4 D(h/2) - D(h)) / 3 with central differences; O(h^4)."""
    def central(step):
        return (f(step) - f(-step)) / (2 * step)
    return (4.0 * central(h / 2) - central(h)) / 3.0


def zero_curvature_residual(spec: SystemSpec, pt: MatrixPhasePoint, lam: complex,
                            h: float = 1e-3, perturb: TangentPair | None = None,
                            p4_variant: str = "corrected") -> float:
    """Max-norm of A_t - B_lam + [A, B] (isomonodromic) or L_t + [L, M].

    A_t is the total derivative of the L-builder along the analytic flow
    (optionally perturbed, to demonstrate EOM-violation detection): central
    differences over short RK4 flow legs plus one Richardson step, so the
    residual of an exact pair scales as O(h^4).  A straight-ray displacement
    would be exact here (the builders are polynomial in q, p, t) and leave
    nothing but roundoff; the flow legs keep the convergence order
    observable.  Autonomous specs freeze tau, drop the B_lam term, and
    check the Lax equation instead.
    """
    if h <= 0:
        raise ValueError("h must be positive")

    def rhs(y, t):
        dq, dp = matrix_vector_field(spec, y[0], y[1], t)
        if perturb is None:
            return dq, dp
        return dq + perturb.dq, dp + perturb.dp

    def L_along(s: float) -> np.ndarray:
        q, p = rk4_step(rhs, (pt.q, pt.p), pt.t, s)
        return lax_pair(spec, MatrixPhasePoint(q, p, pt.t + s), lam, p4_variant).L

    sample = lax_pair(spec, pt, lam, p4_variant)
    At = _richardson(L_along, h)
    commutator = sample.L @ sample.M - sample.M @ sample.L
    if spec.autonomous:
        return float(np.abs(At + commutator).max())

    def M_at(dlam: float) -> np.ndarray:
        return lax_pair(spec, pt, lam + dlam, p4_variant).M

    Blam = _richardson(M_at, h)
    return float(np.abs(At - Blam + commutator).max())


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


def reduced_m(spec: SystemSpec, x: ReducedPoint, lam: complex,
              p4_variant: str = "corrected") -> np.ndarray:
    """M of the reduced pair: M(embedded coordinates) - F (x) Id_2."""
    sample = reduced_lax(spec, x, lam, p4_variant)
    F = gauge_F(spec, x)
    n = x.n
    shift = np.zeros((2 * n, 2 * n), dtype=complex)
    shift[:n, :n] = F
    shift[n:, n:] = F
    return sample.M - shift
