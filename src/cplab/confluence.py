"""The P_IV -> P_II confluence maps and their verification apparatus.

Both maps send a P_II-side point to a P_IV-side point with parameters

    theta0 = -1/(4 eps^6),   theta1 = theta + 1/(4 eps^6),

so that theta0 + theta1 = theta stays finite; the Hamiltonians then match
exactly at every eps,

    H_II(pt) = -eps * H_IV(image) + n * theta / (2 eps^2) - eps^2 R,

with R = Tr(w q w) - t Tr(w q) (the commonly printed assignment theta1 =
-theta leaves an uncancelled Tr q / (4 eps^6) term; see CONVENTIONS.md).
Both maps preserve the moment map exactly, [p', q'] = [p, q], so level-set
points map to level-set points with the same coupling.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonians import closed_form_hamiltonian, trace_hamiltonian
from .phase import MatrixPhasePoint, SystemKind, SystemSpec
from .reduction import ReducedPoint, Slice, embed, matrix_point, \
    normalized_diagonalizer, permuted_deviation, reduce

# eps_k = exp(2 pi i (k + 1/2) / 32): off the real axis, with |theta0| = 1/4,
# so no term of the identity is large and nothing cancels
UNIT_CIRCLE_EPS = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)


@dataclass(frozen=True)
class ConfluenceParams:
    """eps in (0, 1] or non-real with 0 < |eps| <= 1; the map kind, "conf" or "conf1".

    eps may also be a stack (k,) of such values; theta0, theta1, p4_spec and
    the maps are then stacked alike, with the stack axis leading.
    """

    eps: float | complex | np.ndarray
    theta: complex = 0.0
    kind: str = "conf"

    def __post_init__(self):
        self.check_kind(self.kind)
        for e in np.atleast_1d(self.eps):
            e = complex(e)
            if not (0 < abs(e) <= 1 and (e.imag or e.real > 0)):
                raise ValueError("eps must lie in (0, 1], or be non-real with |eps| <= 1")

    @staticmethod
    def check_kind(kind: str) -> None:
        """ValueError unless kind names a map, "conf" or "conf1"."""
        if kind not in ("conf", "conf1"):
            raise ValueError(f"unknown confluence kind {kind!r}")

    @property
    def theta0(self) -> complex:
        return -1.0 / (4 * self.eps ** 6)

    @property
    def theta1(self) -> complex:
        return self.theta + 1.0 / (4 * self.eps ** 6)


def p4_spec(cp: ConfluenceParams) -> SystemSpec:
    return SystemSpec(SystemKind.P_IV, theta0=cp.theta0, theta1=cp.theta1)


def map_time(t: float, cp: ConfluenceParams) -> float:
    return (1.0 - cp.eps ** 4 * t) / cp.eps ** 3


def canonical_shift(pt: MatrixPhasePoint) -> MatrixPhasePoint:
    """q -> q, p -> p + q^2 + t/2; links the two P_II normal forms."""
    I = np.eye(pt.n, dtype=complex)
    return MatrixPhasePoint(pt.q, pt.p + pt.q @ pt.q + (pt.t / 2) * I, pt.t)


def _leading(eps, ndim: int):
    """eps as it broadcasts against arrays of ndim axes: a stack of eps leads."""
    return eps if np.ndim(eps) == 0 else np.reshape(eps, np.shape(eps) + (1,) * ndim)


def conf_matrices(pt: MatrixPhasePoint, cp: ConfluenceParams) -> tuple:
    """(q, p, t) of conf_map's image, each stacked over a stack of eps."""
    e = _leading(cp.eps, 2)
    w = canonical_shift(pt).p if cp.kind == "conf" else pt.p
    q4 = -(0.5 * np.eye(pt.n, dtype=complex) + e ** 2 * pt.q) / e ** 3
    return q4, -e * w, map_time(pt.t, cp)


def conf_map(pt: MatrixPhasePoint, cp: ConfluenceParams) -> MatrixPhasePoint:
    """The confluence symplectomorphism onto P_IV with parameters p4_spec(cp).

    conf1 is linear in q and p and targets the polynomial P_II form; conf
    targets P_II and is conf1 after canonical_shift (quadratic in q on the
    p-side).
    """
    return MatrixPhasePoint(*conf_matrices(pt, cp))


def particle_conf_coordinates(positions: np.ndarray, momenta: np.ndarray, t,
                              cp: ConfluenceParams) -> tuple:
    """(positions, momenta, t) of the particle-wise confluence image.

    The map of conf_matrices on Q_DIAG slice coordinates; a stack of eps
    leads the image's axes.  The image is not collision-checked: its
    differences are -(x_i - x_j)/eps.
    """
    e = _leading(cp.eps, 1)
    w = momenta + positions ** 2 + t / 2 if cp.kind == "conf" else momenta
    a4 = -(0.5 + e ** 2 * positions) / e ** 3
    return a4, -e * w, map_time(t, cp)


def _identity_terms(point, cp: ConfluenceParams) -> tuple:
    """(H_target, image, shift) of the confluence identity at a point.

    H_target is H_II (conf) or the polynomial H_II (conf1) at theta =
    cp.theta, image = -eps H_IV(image point) and shift = n theta/(2 eps^2),
    the last two stacked over a stack of eps; the identity makes
    H_target - (image + shift) = -eps^2 R.  A matrix point goes through the
    traces, a reduced point, which must lie on the Q_DIAG slice, through the
    closed forms.
    """
    target = SystemSpec(SystemKind.P_II if cp.kind == "conf" else SystemKind.P_II_POLY,
                        theta=cp.theta)
    spec = p4_spec(cp)
    if isinstance(point, ReducedPoint):
        if point.slice is not Slice.Q_DIAG:
            raise ValueError("reduced confluence lives on the Q_DIAG slice")
        h_target = closed_form_hamiltonian(target, point.positions, point.momenta,
                                           point.g, point.t, Slice.Q_DIAG)
        a4, b4, t4 = particle_conf_coordinates(point.positions, point.momenta,
                                               point.t, cp)
        h4 = closed_form_hamiltonian(spec, a4, b4, point.g, t4, Slice.Q_DIAG)
    else:
        h_target = trace_hamiltonian(target, point.q, point.p, point.t)
        q4, p4, t4 = conf_matrices(point, cp)
        h4 = trace_hamiltonian(spec, q4, p4, t4)
    return h_target, -cp.eps * h4, point.n * cp.theta / (2 * cp.eps ** 2)


def remainder(pt: MatrixPhasePoint, cp: ConfluenceParams) -> complex:
    """R = Tr(w q w) - t Tr(w q): w = p + q^2 + t/2 (conf) or w = p (conf1)."""
    w = canonical_shift(pt).p if cp.kind == "conf" else pt.p
    return complex(np.trace(w @ pt.q @ w) - pt.t * np.trace(w @ pt.q))


def identity_defect(point, theta: complex, kind: str = "conf") -> float:
    """max_k |D(eps_k)| over UNIT_CIRCLE_EPS, relative to the largest term.

    D(eps) = H_target - (-eps H_IV(image) + n theta/(2 eps^2)) + eps^2 R is
    a Laurent polynomial in eps (orders -4..2 term by term) that the exact
    identity makes zero.  The DFT over the 32 points is unitary, so the
    maximum bounds every Laurent coefficient: every order is checked at once.
    """
    cp = ConfluenceParams(UNIT_CIRCLE_EPS, theta, kind)
    h_target, image, shift = _identity_terms(point, cp)
    r = UNIT_CIRCLE_EPS ** 2 * remainder(matrix_point(point), cp)
    scale = max(abs(h_target), np.abs(image).max(), np.abs(shift).max(), np.abs(r).max())
    return float(np.abs(h_target - (image + shift) + r).max() / scale)


def residual_ratio_sweep(point, cp_theta: complex, eps_values, kind: str = "conf") -> dict:
    """Residuals |eps^2 R| over an eps sweep and their halving ratios.

    Each residual is |H_target - (-eps H_IV(image) + n theta/(2 eps^2))|.
    Reported, not gated: at small eps they drown in the 1/(4 eps^6) terms
    and lose digits.  One ConfluenceParams(e, cp_theta, kind) per swept e;
    the kind is checked first, so an empty sweep refuses an unknown one too.
    """
    ConfluenceParams.check_kind(kind)
    residuals = []
    for e in eps_values:
        h_target, image, shift = _identity_terms(point, ConfluenceParams(e, cp_theta, kind))
        residuals.append(float(abs(h_target - (image + shift))))
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)
              if residuals[i + 1] > 0]
    return {"eps": list(eps_values), "residuals": residuals, "ratios": ratios}


def dual_confluence_breakdown(x: ReducedPoint, cp: ConfluenceParams) -> dict:
    """Quantify how the dual-slice reduction obstructs the confluence.

    Diagonalizing p_IV means diagonalizing p_II + q_II^2 (+ t/2), not p_II,
    so for the full map the image reduces from a different orbit point.
    Reported: the misalignment of the p_IV eigenbasis against the p_II one
    (the standard basis at the embedded point), and the failure of the
    naive particle-wise map to reproduce the actual reduced image.  The
    naive map is particle_conf_coordinates with the slice roles swapped, on
    coordinates, so only its P_DIAG image is checked as a point.  Both
    collapse to ~0 for the linear map (conf1) and for g -> 0.
    """
    if x.slice is not Slice.P_DIAG:
        raise ValueError("breakdown analysis starts from a P_DIAG point")
    image = conf_map(embed(x), cp)

    diag = normalized_diagonalizer(image.p, tol=1e-8)
    C = diag.C
    n = x.n
    col_order = np.abs(C).argmax(axis=0)
    if len(set(col_order.tolist())) == n:
        # column j peaks on axis col_order[j]: put it in column col_order[j]
        inverse = np.empty(n, dtype=int)
        inverse[col_order] = np.arange(n)
        misalignment = float(np.abs(C[:, inverse] - np.eye(n)).max())
    else:  # eigenbasis too scrambled to pair with coordinate axes
        misalignment = float(np.abs(C - np.eye(n)).max())

    actual = reduce(image, Slice.P_DIAG, x.g, tol=1e-6)
    # naive guess: the particle map on canonical coordinates, stored at the slice
    a4, b4, t4 = particle_conf_coordinates(*x.slice.order(x.positions, x.momenta), x.t, cp)
    naive_dual = ReducedPoint(*x.slice.order(a4, b4), x.g, t4, x.slice)
    naive_deviation = permuted_deviation(naive_dual, actual)
    return {
        "eigenbasis_misalignment": misalignment,
        "naive_map_deviation": naive_deviation,
        "deviation": float(np.max([misalignment, naive_deviation])),
    }
