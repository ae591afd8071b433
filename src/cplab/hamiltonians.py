"""Hamiltonians and equations of motion at the matrix and particle levels.

The normative value of every reduced/dual Hamiltonian is the matrix trace
evaluated at the embedded point; the closed forms below are re-derived
from that oracle (printed variants in the literature differ in coupling
normalizations, see CONVENTIONS.md) and must agree with it to 1e-10
relative.

Matrix gradients use the pairing dH = Tr(G_q dq) + Tr(G_p dp); Hamilton's
equations are qdot = G_p, pdot = -G_q.  On the p-diagonal slice the stored
(positions, momenta) are canonically conjugate with the roles swapped
(omega = sum dI ^ dphi), which the reduced vector field accounts for.

The vector fields and the RK4 step work on plain arrays: flows build a
point only where they hand one out.
"""
from __future__ import annotations

import numpy as np

from .errors import UnsupportedSystem
from .phase import MatrixPhasePoint, SystemKind, SystemSpec
from .reduction import (ReducedPoint, Slice, calogero_block, collision_guard,
                        embed, inverse_square_kernel, offdiag_sign)
from .traces import a4_pair_sum, a4_quad_sum, a4_total, a4_triple_sum


def matrix_hamiltonian(spec: SystemSpec, pt: MatrixPhasePoint) -> complex:
    """Tr H(q, p, t) with the operator ordering of the matrix systems."""
    q, p = pt.q, pt.p
    T = spec.time(pt.t)
    k = spec.kind
    if k is SystemKind.FREE:
        val = np.trace(p @ p) / 2
    elif k is SystemKind.HARM_OSC:
        val = np.trace(p @ p) / 2 + spec.omega ** 2 * np.trace(q @ q) / 2
    elif k is SystemKind.P_I:
        val = np.trace(p @ p) / 2 - np.trace(q @ q @ q) / 2 - (T / 4) * np.trace(q)
    elif k is SystemKind.P_II:
        w = q @ q + (T / 2) * np.eye(pt.n, dtype=complex)
        val = np.trace(p @ p) / 2 - np.trace(w @ w) / 2 - spec.theta * np.trace(q)
    elif k is SystemKind.P_II_POLY:
        val = (np.trace(p @ p) / 2 - np.trace(p @ q @ q)
               - (T / 2) * np.trace(p) - spec.theta * np.trace(q))
    elif k is SystemKind.P_IV:
        val = (np.trace(p @ q @ p) - np.trace(p @ q @ q) - T * np.trace(p @ q)
               + spec.theta0 * np.trace(p)
               - (spec.theta0 + spec.theta1) * np.trace(q))
    else:  # pragma: no cover
        raise UnsupportedSystem(str(k))
    return complex(val)


def matrix_gradients(spec: SystemSpec, q: np.ndarray, p: np.ndarray, t: float):
    """(G_q, G_p) under dH = Tr(G_q dq) + Tr(G_p dp)."""
    T = spec.time(t)
    I = np.eye(q.shape[0], dtype=complex)
    k = spec.kind
    if k is SystemKind.FREE:
        return np.zeros_like(q), p.copy()
    if k is SystemKind.HARM_OSC:
        return spec.omega ** 2 * q, p.copy()
    if k is SystemKind.P_I:
        return -1.5 * q @ q - (T / 4) * I, p.copy()
    if k is SystemKind.P_II:
        return -(2 * q @ q @ q + T * q) - spec.theta * I, p.copy()
    if k is SystemKind.P_II_POLY:
        gq = -(q @ p + p @ q) - spec.theta * I
        gp = p - q @ q - (T / 2) * I
        return gq, gp
    if k is SystemKind.P_IV:
        gq = p @ p - q @ p - p @ q - T * p - (spec.theta0 + spec.theta1) * I
        gp = q @ p + p @ q - q @ q - T * q + spec.theta0 * I
        return gq, gp
    raise UnsupportedSystem(str(k))  # pragma: no cover


def matrix_vector_field(spec: SystemSpec, q: np.ndarray, p: np.ndarray, t: float):
    """(qdot, pdot) = (G_p, -G_q)."""
    gq, gp = matrix_gradients(spec, q, p, t)
    return gp, -gq


def rk4_step(field, y: tuple, t: float, h: float) -> tuple:
    """One classical RK4 step of dy/dt = field(y, t) for a tuple y of arrays."""
    k1 = field(y, t)
    k2 = field(tuple(a + (h / 2) * b for a, b in zip(y, k1)), t + h / 2)
    k3 = field(tuple(a + (h / 2) * b for a, b in zip(y, k2)), t + h / 2)
    k4 = field(tuple(a + h * b for a, b in zip(y, k3)), t + h)
    return tuple(a + (h / 6) * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))


# ---------------------------------------------------------------------------
# closed-form reduced/dual Hamiltonians
# ---------------------------------------------------------------------------

def reduced_hamiltonian_oracle(spec: SystemSpec, x: ReducedPoint) -> complex:
    """Normative definition: the matrix trace at the embedded point."""
    return matrix_hamiltonian(spec, embed(x))


def reduced_hamiltonian(spec: SystemSpec, x: ReducedPoint) -> complex:
    """Closed-form fast path; agrees with the trace oracle to 1e-10 relative.

    Pair sums contract W_ij = 1/(a_i - a_j)^2 and its row sums S:
    sum_{i<j} 1/D^2 = sum W / 2 and sum_{i<j} (c_i + c_j)/D^2 = c.S.
    """
    a, b, g = x.positions, x.momenta, x.g
    T = spec.time(x.t)
    k = spec.kind
    red = x.slice is Slice.Q_DIAG
    g2 = g * g
    W = inverse_square_kernel(a)
    S = W.sum(axis=1)
    calogero = g2 * S.sum() / 2

    if k is SystemKind.FREE:
        if red:
            return complex(np.sum(b ** 2) / 2 + calogero)
        return complex(np.sum(a ** 2) / 2)

    if k is SystemKind.HARM_OSC:
        om2 = spec.omega ** 2
        if red:
            return complex(np.sum(b ** 2 + om2 * a ** 2) / 2 + calogero)
        return complex(np.sum(a ** 2 + om2 * b ** 2) / 2 + om2 * calogero)

    if k is SystemKind.P_I:
        if red:
            return complex(np.sum(b ** 2 / 2 - a ** 3 / 2 - (T / 4) * a) + calogero)
        diag = np.sum(a ** 2 / 2 - b ** 3 / 2 - (T / 4) * b)
        return complex(diag - 1.5 * g2 * (b @ S))

    if k is SystemKind.P_II:
        if red:
            diag = np.sum(b ** 2 / 2 - (a ** 2 + T / 2) ** 2 / 2 - spec.theta * a)
            return complex(diag + calogero)
        diag = np.sum(a ** 2 / 2 - (b ** 2 + T / 2) ** 2 / 2 - spec.theta * b)
        return complex(diag + _dual_p2_g2_block(b, W, T, g2)
                       - (g2 * g2 / 2) * a4_total(a))

    if k is SystemKind.P_II_POLY:
        if red:
            diag = np.sum(b ** 2 / 2 - a ** 2 * b - (T / 2) * b - spec.theta * a)
            return complex(diag + calogero)
        diag = np.sum(a ** 2 / 2 - a * b ** 2 - (T / 2) * a - spec.theta * b)
        return complex(diag - g2 * (a @ S))

    if k is SystemKind.P_IV:
        th0, th1 = spec.theta0, spec.theta1
        if red:
            diag = np.sum(a * b ** 2 - b * a ** 2 - T * a * b
                          + th0 * b - (th0 + th1) * a)
            return complex(diag + g2 * (a @ S))
        diag = np.sum(b * a ** 2 - a * b ** 2 - T * a * b
                      + th0 * a - (th0 + th1) * b)
        return complex(diag - g2 * (a @ S))

    raise UnsupportedSystem(str(k))  # pragma: no cover


def _dual_p2_g2_block(b, W, T, g2) -> complex:
    """-2 g^2 sum_{i<j} (b_i^2 + b_i b_j + b_j^2 + T/2) / (a_i - a_j)^2."""
    S = W.sum(axis=1)
    return -2 * g2 * ((b * b) @ S + (b @ W @ b) / 2 + T * S.sum() / 4)


def dual_p2_interaction_blocks(x: ReducedPoint, spec: SystemSpec) -> dict:
    """The g^2 and g^4 blocks of the dual P_II Hamiltonian, split by class.

    These are exactly the Tr Q^4 / Tr Q^2 interaction blocks of the traces
    module evaluated on (positions as denominators, momenta as diagonal).
    The quadruple block is identically zero and is left out of the closed
    form; it is kept here as the witness of that cancellation.
    """
    a, b, g = x.positions, x.momenta, x.g
    g2, g4 = g * g, g ** 4
    return {
        "g2_pair": complex(_dual_p2_g2_block(b, inverse_square_kernel(a),
                                             spec.time(x.t), g2)),
        "g4_pair": complex(-(g4 / 2) * a4_pair_sum(a)),
        "g4_triple": complex(-(g4 / 2) * a4_triple_sum(a)),
        "g4_quadruple": complex(-(g4 / 2) * a4_quad_sum(a)),
    }


# ---------------------------------------------------------------------------
# reduced vector fields via the embedding chain rule
# ---------------------------------------------------------------------------

def reduced_vector_field(spec: SystemSpec, positions: np.ndarray, momenta: np.ndarray,
                         g: float, t: float, slice: Slice):
    """(d positions/dt, d momenta/dt) of the reduced canonical flow.

    The matrix gradient at the embedded point, pulled back through the
    embedding: dH/d momenta is the diagonal of the resolved block's
    gradient, and dH/d positions adds to the diagonal block's diagonal the
    chain rule through K_ij = s i g/(a_i - a_j), whose a_i-derivative is
    -K_ij^2/(s i g) (and that of K_ji = -K_ij the opposite).

    Q_DIAG: positions are canonical coordinates, momenta their conjugates.
    P_DIAG: omega = sum dI ^ dphi, so the roles swap.
    """
    collision_guard(positions)
    sgn = offdiag_sign(slice)
    K = calogero_block(positions, g, sgn)
    diag, resolved = np.diag(positions), np.diag(momenta) + K
    if slice is Slice.Q_DIAG:
        g_diag, g_res = matrix_gradients(spec, diag, resolved, t)
    else:
        g_res, g_diag = matrix_gradients(spec, resolved, diag, t)
    dH_da = np.diag(g_diag) + (K * K * (g_res - g_res.T)).sum(axis=1) / (sgn * 1j * g)
    dH_db = np.diag(g_res).copy()
    if slice is Slice.Q_DIAG:
        return dH_db, -dH_da
    return -dH_db, dH_da


# ---------------------------------------------------------------------------
# duality maps
# ---------------------------------------------------------------------------

def p4_involution(x: ReducedPoint, theta0: complex, theta1: complex):
    """Anti-symplectic involution of the P_IV pair of reduced systems.

    In canonical coordinates this is q -> -p, p -> -q with the slice roles
    swapped, so at the level of the stored arrays both are negated.  The
    parameter relabeling (theta0 + theta1, -theta1) is derived from the
    n=1 polynomial identity and makes

        H_IV(x; th0, th1) = H_IV(sigma(x); th0*, th1*)

    exact for every n (the relabeling printed alongside it in reports,
    theta0 -> theta1, theta1 -> theta0 - theta1, does not satisfy the
    identity; see CONVENTIONS.md).
    """
    sx = ReducedPoint(-x.positions, -x.momenta, x.g, x.t, x.slice.other)
    return sx, theta0 + theta1, -theta1


def harmosc_selfduality(x: ReducedPoint, omega: float) -> ReducedPoint:
    """Self-duality map of the reduced harmonic oscillator: I = w q, phi = -p/w."""
    if omega == 0:
        raise ValueError("omega must be nonzero")
    if x.slice is not Slice.Q_DIAG:
        raise ValueError("self-duality map starts from the Q_DIAG slice")
    return ReducedPoint(omega * x.positions, -x.momenta / omega, x.g, x.t,
                        Slice.P_DIAG)

