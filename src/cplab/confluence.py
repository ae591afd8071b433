"""The P_IV -> P_II confluence maps and their verification apparatus.

Both maps send a P_II-side point to a P_IV-side point with parameters

    theta0 = -1/(4 eps^6),   theta1 = theta + 1/(4 eps^6),

so that theta0 + theta1 = theta stays finite; the Hamiltonians then match
as

    H_II(pt) = -eps * H_IV(image) + n * theta / (2 eps^2) + O(eps^2)

exactly in the eps-expansion (the commonly printed assignment theta1 =
-theta leaves an uncancelled Tr q / (4 eps^6) term; see CONVENTIONS.md).
Both maps preserve the moment map exactly, [p', q'] = [p, q], so level-set
points map to level-set points with the same coupling.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CplabError
from .hamiltonians import matrix_hamiltonian, reduced_hamiltonian
from .phase import MatrixPhasePoint, SystemKind, SystemSpec
from .reduction import ReducedPoint, Slice, embed, match_permutation, \
    normalized_diagonalizer, reduce
from .sampling import random_reduced

# the most draws sample_generic_point makes; over 2000 seeds the sampler
# needed at most 7
MAX_DRAWS = 100


@dataclass(frozen=True)
class ConfluenceParams:
    eps: float
    theta: complex = 0.0

    def __post_init__(self):
        if not (0 < self.eps <= 1):
            raise ValueError("eps must lie in (0, 1]")

    @property
    def theta0(self) -> complex:
        return -1.0 / (4 * self.eps ** 6)

    @property
    def theta1(self) -> complex:
        return self.theta + 1.0 / (4 * self.eps ** 6)


def p4_spec(cp: ConfluenceParams, autonomous: bool = False,
            tau: float | None = None) -> SystemSpec:
    return SystemSpec(SystemKind.P_IV, autonomous=autonomous, tau=tau,
                      theta0=cp.theta0, theta1=cp.theta1)


def map_time(t: float, cp: ConfluenceParams) -> float:
    return (1.0 - cp.eps ** 4 * t) / cp.eps ** 3


def conf_map(pt: MatrixPhasePoint, cp: ConfluenceParams):
    """Full confluence symplectomorphism (quadratic in q on the p-side)."""
    e = cp.eps
    I = np.eye(pt.n, dtype=complex)
    q4 = -(0.5 * I + e ** 2 * pt.q) / e ** 3
    p4 = -e * (pt.p + pt.q @ pt.q + (pt.t / 2) * I)
    image = MatrixPhasePoint(q4, p4, map_time(pt.t, cp))
    return image, {"theta0": cp.theta0, "theta1": cp.theta1}


def conf_map_linear(pt: MatrixPhasePoint, cp: ConfluenceParams):
    """The variant linear in both q and p, targeting the polynomial P_II form."""
    e = cp.eps
    I = np.eye(pt.n, dtype=complex)
    q4 = -(0.5 * I + e ** 2 * pt.q) / e ** 3
    p4 = -e * pt.p
    image = MatrixPhasePoint(q4, p4, map_time(pt.t, cp))
    return image, {"theta0": cp.theta0, "theta1": cp.theta1}


def canonical_shift(pt: MatrixPhasePoint) -> MatrixPhasePoint:
    """q -> q, p -> p + q^2 + t/2; links the two P_II normal forms."""
    I = np.eye(pt.n, dtype=complex)
    return MatrixPhasePoint(pt.q, pt.p + pt.q @ pt.q + (pt.t / 2) * I, pt.t)


def canonical_unshift(pt: MatrixPhasePoint) -> MatrixPhasePoint:
    I = np.eye(pt.n, dtype=complex)
    return MatrixPhasePoint(pt.q, pt.p - pt.q @ pt.q - (pt.t / 2) * I, pt.t)


def confluence_residual(pt: MatrixPhasePoint, cp: ConfluenceParams,
                        kind: str = "conf") -> float:
    """|H_target(pt) - (-eps H_IV(image) + n theta/(2 eps^2))|; O(eps^2)."""
    if kind == "conf":
        target_spec = SystemSpec(SystemKind.P_II, theta=cp.theta)
        image, _ = conf_map(pt, cp)
    elif kind == "conf1":
        target_spec = SystemSpec(SystemKind.P_II_POLY, theta=cp.theta)
        image, _ = conf_map_linear(pt, cp)
    else:
        raise ValueError(f"unknown confluence kind {kind!r}")
    h_target = matrix_hamiltonian(target_spec, pt)
    h_iv = matrix_hamiltonian(p4_spec(cp), image)
    shift = pt.n * cp.theta / (2 * cp.eps ** 2)
    return float(abs(h_target - (-cp.eps * h_iv + shift)))


def particle_conf_map(x: ReducedPoint, cp: ConfluenceParams,
                      kind: str = "conf") -> ReducedPoint:
    """Particle-wise confluence on the Q_DIAG slice coordinates."""
    e = cp.eps
    a4 = -(0.5 + e ** 2 * x.positions) / e ** 3
    if kind == "conf":
        b4 = -e * (x.momenta + x.positions ** 2 + x.t / 2)
    elif kind == "conf1":
        b4 = -e * x.momenta
    else:
        raise ValueError(f"unknown confluence kind {kind!r}")
    return ReducedPoint(a4, b4, x.g, map_time(x.t, cp), x.slice)


def reduced_confluence_residual(x: ReducedPoint, cp: ConfluenceParams,
                                kind: str = "conf") -> float:
    """Same residual through the closed-form reduced Hamiltonians (Q_DIAG)."""
    if x.slice is not Slice.Q_DIAG:
        raise ValueError("reduced confluence lives on the Q_DIAG slice")
    target_kind = SystemKind.P_II if kind == "conf" else SystemKind.P_II_POLY
    h_target = reduced_hamiltonian(SystemSpec(target_kind, theta=cp.theta), x)
    y = particle_conf_map(x, cp, kind)
    h_iv = reduced_hamiltonian(p4_spec(cp), y)
    shift = x.n * cp.theta / (2 * cp.eps ** 2)
    return float(abs(h_target - (-cp.eps * h_iv + shift)))


def eps2_remainder(pt: MatrixPhasePoint) -> float:
    """Smaller of the eps^2 remainder magnitudes of the two confluence maps.

    The remainder coefficient Tr(w q w) - t Tr(w q) (w = p for the linear
    map, w = p + q^2 + t/2 for the full one) can vanish accidentally,
    drowning the small-eps residual in the cancellation noise of the
    1/eps^6 parameter terms.
    """
    q, p, t = pt.q, pt.p, pt.t
    w = p + q @ q + (t / 2) * np.eye(pt.n)
    r_full = abs(np.trace(w @ q @ w) - t * np.trace(w @ q))
    r_lin = abs(np.trace(p @ q @ p) - t * np.trace(p @ q))
    return min(r_full, r_lin)


def sample_generic_point(rng: np.random.Generator, n: int = 2,
                         g: float | None = None):
    """First draw at t = 0.1 whose eps^2 remainders (eps2_remainder) exceed 1.

    Without g the draw is a matrix point with complex Gaussian q and p
    (imaginary parts scaled by 0.3); with g it is a Q_DIAG reduced point of
    that coupling, tested through its embedding.  Raises CplabError after
    MAX_DRAWS rejected draws.
    """
    for _ in range(MAX_DRAWS):
        if g is None:
            point = pt = MatrixPhasePoint(
                rng.normal(size=(n, n)) + 0.3j * rng.normal(size=(n, n)),
                rng.normal(size=(n, n)) + 0.3j * rng.normal(size=(n, n)), 0.1)
        else:
            point = random_reduced(rng, n, g, t=0.1)
            pt = embed(point)
        if eps2_remainder(pt) > 1.0:
            return point
    raise CplabError(f"no point with eps^2 remainders above 1 in {MAX_DRAWS} draws")


def residual_ratio_sweep(point, cp_theta: complex, eps_values,
                         kind: str = "conf", reduced: bool = False) -> dict:
    """Residuals over an eps sweep plus halving ratios (expect ~4 = O(eps^2))."""
    residuals = []
    for e in eps_values:
        cp = ConfluenceParams(eps=e, theta=cp_theta)
        if reduced:
            residuals.append(reduced_confluence_residual(point, cp, kind))
        else:
            residuals.append(confluence_residual(point, cp, kind))
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)
              if residuals[i + 1] > 0]
    return {"eps": list(eps_values), "residuals": residuals, "ratios": ratios}


def dual_confluence_breakdown(x: ReducedPoint, cp: ConfluenceParams,
                              use_linear: bool = False) -> dict:
    """Quantify how the dual-slice reduction obstructs the confluence.

    Diagonalizing p_IV means diagonalizing p_II + q_II^2 (+ t/2), not p_II,
    so for the full map the image reduces from a different orbit point.
    Reported: the misalignment of the p_IV eigenbasis against the p_II one
    (the standard basis at the embedded point), and the failure of the
    naive particle-wise map to reproduce the actual reduced image.  Both
    collapse to ~0 for the linear map and for g -> 0.
    """
    if x.slice is not Slice.P_DIAG:
        raise ValueError("breakdown analysis starts from a P_DIAG point")
    pt = embed(x)
    mapper = conf_map_linear if use_linear else conf_map
    image, _ = mapper(pt, cp)

    diag = normalized_diagonalizer(image.p, tol=1e-8)
    C = diag.C
    n = x.n
    col_order = np.empty(n, dtype=int)
    for j in range(n):
        col_order[j] = int(np.argmax(np.abs(C[:, j])))
    if len(set(col_order.tolist())) == n:
        P = np.zeros((n, n))
        for j, i in enumerate(col_order):
            P[j, i] = 1.0
        misalignment = float(np.abs(C @ P - np.eye(n)).max())
    else:  # eigenbasis too scrambled to pair with coordinate axes
        misalignment = float(np.abs(C - np.eye(n)).max())

    actual = reduce(image, Slice.P_DIAG, x.g, tol=1e-6)
    naive = particle_conf_map(
        ReducedPoint(x.momenta, x.positions, x.g, x.t, Slice.Q_DIAG),
        cp, "conf1" if use_linear else "conf")
    # naive guess in dual terms: positions from the p-map, momenta from q-map
    naive_dual = ReducedPoint(naive.momenta, naive.positions, x.g,
                              naive.t, Slice.P_DIAG)
    perm = match_permutation(naive_dual.positions, actual.positions)
    dev_pos = np.abs(actual.positions[perm] - naive_dual.positions).max()
    dev_mom = np.abs(actual.momenta[perm] - naive_dual.momenta).max()
    return {
        "eigenbasis_misalignment": misalignment,
        "naive_map_deviation": float(max(dev_pos, dev_mom)),
        "deviation": float(max(misalignment, dev_pos, dev_mom)),
    }
