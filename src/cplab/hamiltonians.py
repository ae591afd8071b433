"""Hamiltonians and equations of motion at the matrix and particle levels.

The normative value of every reduced/dual Hamiltonian is the matrix trace
evaluated at the embedded point.  The closed form evaluates that same
trace formula with the traces of the Calogero matrix in closed form
(printed variants in the literature differ in coupling normalizations,
see CONVENTIONS.md) and must agree with it to 1e-10 relative.

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
from .phase import MatrixPhasePoint, SystemKind, SystemSpec, add_to_diagonal, row_dot
from .reduction import (ReducedPoint, Slice, embedded_matrices, inverse_square_kernel,
                        offdiag_sign)
from .traces import diag_c2, tr_c3, tr_c4


def matrix_hamiltonian(spec: SystemSpec, pt: MatrixPhasePoint) -> complex:
    """Tr H(q, p, t) with the operator ordering of the matrix systems."""
    return complex(trace_hamiltonian(spec, pt.q, pt.p, spec.time(pt.t)))


def trace_hamiltonian(spec: SystemSpec, q: np.ndarray, p: np.ndarray, T):
    """Tr H at each point of a stack, with matrix_hamiltonian's ordering.

    q and p are (..., n, n); the effective time T = spec.time(t) broadcasts
    over the leading axes.
    """
    def tr(a):
        return np.trace(a, axis1=-2, axis2=-1)

    k = spec.kind
    if k is SystemKind.FREE:
        return tr(p @ p) / 2
    if k is SystemKind.HARM_OSC:
        return tr(p @ p) / 2 + spec.omega ** 2 * tr(q @ q) / 2
    if k is SystemKind.P_I:
        return tr(p @ p) / 2 - tr(q @ q @ q) / 2 - (T / 4) * tr(q)
    if k is SystemKind.P_II:
        w = add_to_diagonal(q @ q, T / 2)
        return tr(p @ p) / 2 - tr(w @ w) / 2 - spec.theta * tr(q)
    if k is SystemKind.P_II_POLY:
        return (tr(p @ p) / 2 - tr(p @ q @ q)
                - (T / 2) * tr(p) - spec.theta * tr(q))
    if k is SystemKind.P_IV:
        return (tr(p @ q @ p) - tr(p @ q @ q) - T * tr(p @ q)
                + spec.theta0 * tr(p)
                - (spec.theta0 + spec.theta1) * tr(q))
    raise UnsupportedSystem(str(k))  # pragma: no cover


def matrix_gradients(spec: SystemSpec, q: np.ndarray, p: np.ndarray, t: float):
    """(G_q, G_p) under dH = Tr(G_q dq) + Tr(G_p dp)."""
    T = spec.time(t)
    k = spec.kind
    if k is SystemKind.FREE:
        return np.zeros_like(q), p.copy()
    if k is SystemKind.HARM_OSC:
        return spec.omega ** 2 * q, p.copy()
    if k is SystemKind.P_I:
        return add_to_diagonal(-1.5 * q @ q, -(T / 4)), p.copy()
    if k is SystemKind.P_II:
        return add_to_diagonal(-(2 * q @ q @ q + T * q), -spec.theta), p.copy()
    if k is SystemKind.P_II_POLY:
        gq = add_to_diagonal(-(q @ p + p @ q), -spec.theta)
        gp = add_to_diagonal(p - q @ q, -(T / 2))
        return gq, gp
    if k is SystemKind.P_IV:
        gq = add_to_diagonal(p @ p - q @ p - p @ q - T * p, -(spec.theta0 + spec.theta1))
        gp = add_to_diagonal(q @ p + p @ q - q @ q - T * q, spec.theta0)
        return gq, gp
    raise UnsupportedSystem(str(k))  # pragma: no cover


def matrix_vector_field(spec: SystemSpec, q: np.ndarray, p: np.ndarray, t: float):
    """(qdot, pdot) = (G_p, -G_q)."""
    gq, gp = matrix_gradients(spec, q, p, t)
    return gp, -gq


def rk4_step(field, q: np.ndarray, p: np.ndarray, t: float, h: float) -> tuple:
    """One classical RK4 step of (q, p)' = field(q, p, t); returns the new (q, p)."""
    half = h / 2
    k1q, k1p = field(q, p, t)
    k2q, k2p = field(q + half * k1q, p + half * k1p, t + half)
    k3q, k3p = field(q + half * k2q, p + half * k2p, t + half)
    k4q, k4p = field(q + h * k3q, p + h * k3p, t + h)
    sixth = h / 6
    return (q + sixth * (k1q + 2 * k2q + 2 * k3q + k4q),
            p + sixth * (k1p + 2 * k2p + 2 * k3p + k4p))


# ---------------------------------------------------------------------------
# closed-form reduced/dual Hamiltonians
# ---------------------------------------------------------------------------

def reduced_hamiltonian_oracle(spec: SystemSpec, x: ReducedPoint) -> complex:
    """Normative definition: the matrix trace at the embedded point."""
    return complex(embedded_trace_hamiltonian(spec, x.positions, x.momenta, x.g,
                                              spec.time(x.t), x.slice))


def embedded_trace_hamiltonian(spec: SystemSpec, positions: np.ndarray,
                               momenta: np.ndarray, g: float, T, slice: Slice):
    """reduced_hamiltonian_oracle at each point of a stack (..., n) of coordinates."""
    return trace_hamiltonian(spec, *embedded_matrices(positions, momenta, g, slice), T)


def reduced_hamiltonian(spec: SystemSpec, x: ReducedPoint) -> complex:
    """Closed-form fast path; agrees with the trace oracle to 1e-10 relative."""
    return complex(closed_form_hamiltonian(spec, x.positions, x.momenta, x.g,
                                           spec.time(x.t), x.slice))


def closed_form_hamiltonian(spec: SystemSpec, positions: np.ndarray, momenta: np.ndarray,
                            g: float, T, slice: Slice):
    """reduced_hamiltonian at each point of a stack (..., n) of coordinates.

    trace_hamiltonian's formula at the embedded pair of one diagonal
    D = diag(a) and one Calogero matrix C with diagonal b and denominators
    a: (q, p) = (D, C) on Q_DIAG and (C, D) on P_DIAG.  q[k] and p[k] hold
    Tr q^k and Tr p^k for k <= 2, those of C from traces.diag_c2; the mixed
    traces are Tr(D C) = a.b, Tr(D^2 C) = Tr(D C D) = a^2.b and
    Tr(D C^2) = Tr(C D C) = a.diag C^2.  Tr q^3 and Tr q^4 are formed by the
    kinds that read them, with traces.tr_c3 and tr_c4 on P_DIAG.  The
    effective time T = spec.time(t) and the parameters of spec broadcast
    over the leading axes.
    """
    a, b = positions, momenta
    W = inverse_square_kernel(a)
    c2 = diag_c2(b, W, g)
    a2 = a * a
    n = a.shape[-1]
    tr_d = (n, a.sum(axis=-1), a2.sum(axis=-1))
    tr_c = (n, b.sum(axis=-1), c2.sum(axis=-1))
    d2c, dc2 = row_dot(a2, b), row_dot(a, c2)
    q_diag = slice is Slice.Q_DIAG
    if q_diag:
        q, p, pqq, pqp = tr_d, tr_c, d2c, dc2
    else:
        q, p, pqq, pqp = tr_c, tr_d, dc2, d2c
    pq = row_dot(a, b)
    k = spec.kind
    if k is SystemKind.FREE:
        return p[2] / 2
    if k is SystemKind.HARM_OSC:
        return p[2] / 2 + spec.omega ** 2 * q[2] / 2
    if k is SystemKind.P_I:
        q3 = (a2 * a).sum(axis=-1) if q_diag else tr_c3(b, W, g)
        return p[2] / 2 - q3 / 2 - (T / 4) * q[1]
    if k is SystemKind.P_II:
        q4 = (a2 * a2).sum(axis=-1) if q_diag else tr_c4(b, W, g)
        # Tr w^2 for w = q^2 + T/2
        return p[2] / 2 - (q4 + T * q[2] + q[0] * T ** 2 / 4) / 2 - spec.theta * q[1]
    if k is SystemKind.P_II_POLY:
        return p[2] / 2 - pqq - (T / 2) * p[1] - spec.theta * q[1]
    if k is SystemKind.P_IV:
        return (pqp - pqq - T * pq + spec.theta0 * p[1]
                - (spec.theta0 + spec.theta1) * q[1])
    raise UnsupportedSystem(str(k))  # pragma: no cover


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
    # the embedding guards the differences x_i - x_j it divides by: the
    # field's input check, and the only collision guard of RK4 stages 2-4
    q, p = embedded_matrices(positions, momenta, g, slice)
    g_q, g_p = matrix_gradients(spec, q, p, t)
    if slice is Slice.Q_DIAG:
        g_diag, g_res, K = g_q, g_p, p
    else:
        g_diag, g_res, K = g_p, g_q, q
    # K's diagonal (the momenta) only meets the zero diagonal of g_res - g_res.T
    sgn = offdiag_sign(slice)
    dH_da = g_diag.diagonal() + (K * K * (g_res - g_res.T)).sum(axis=1) / (sgn * 1j * g)
    dH_db = g_res.diagonal().copy()
    if slice is Slice.Q_DIAG:
        return dH_db, -dH_da
    return -dH_db, dH_da


# ---------------------------------------------------------------------------
# duality maps
# ---------------------------------------------------------------------------

def p4_involution(x: ReducedPoint, theta0: complex, theta1: complex):
    """Anti-symplectic involution of the P_IV pair of reduced systems.

    The one-point call of p4_involution_coordinates: returns the image
    point and the relabeled (theta0*, theta1*).
    """
    a, b, sl, th0, th1 = p4_involution_coordinates(x.positions, x.momenta, x.slice,
                                                   theta0, theta1)
    return ReducedPoint(a, b, x.g, x.t, sl), th0, th1


def p4_involution_coordinates(positions: np.ndarray, momenta: np.ndarray, slice: Slice,
                              theta0: complex, theta1: complex):
    """The P_IV involution on coordinates (..., n) at a slice.

    In canonical coordinates this is q -> -p, p -> -q with the slice roles
    swapped, so at the level of the stored arrays both are negated and the
    slice flips.  The parameter relabeling (theta0 + theta1, -theta1) is
    derived from the n=1 polynomial identity and makes

        H_IV(x; th0, th1) = H_IV(sigma(x); th0*, th1*)

    exact for every n (the relabeling printed alongside it in reports,
    theta0 -> theta1, theta1 -> theta0 - theta1, does not satisfy the
    identity; see CONVENTIONS.md).  Returns (positions, momenta, slice,
    theta0*, theta1*) of the image.
    """
    return -positions, -momenta, slice.other, theta0 + theta1, -theta1
