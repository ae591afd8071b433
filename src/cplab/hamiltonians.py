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
"""
from __future__ import annotations

import numpy as np

from .errors import UnsupportedSystem
from .phase import MatrixPhasePoint, SystemKind, SystemSpec, TangentPair
from .reduction import ReducedPoint, Slice, embed
from .traces import (a4_pair_sum, a4_quad_sum, a4_total, a4_triple_sum,
                     pairwise_inverse_square_sum)


def _eye(pt: MatrixPhasePoint) -> np.ndarray:
    return np.eye(pt.n, dtype=complex)


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
        w = q @ q + (T / 2) * _eye(pt)
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


def matrix_gradients(spec: SystemSpec, pt: MatrixPhasePoint):
    """(G_q, G_p) under dH = Tr(G_q dq) + Tr(G_p dp)."""
    q, p = pt.q, pt.p
    T = spec.time(pt.t)
    I = _eye(pt)
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


def matrix_vector_field(spec: SystemSpec, pt: MatrixPhasePoint) -> TangentPair:
    """(qdot, pdot) = (G_p, -G_q)."""
    gq, gp = matrix_gradients(spec, pt)
    return TangentPair(dq=gp, dp=-gq)


# ---------------------------------------------------------------------------
# closed-form reduced/dual Hamiltonians
# ---------------------------------------------------------------------------

def _pair_terms(x: np.ndarray):
    n = x.size
    for i in range(n):
        for j in range(i + 1, n):
            yield i, j, x[i] - x[j]


def reduced_hamiltonian_oracle(spec: SystemSpec, x: ReducedPoint) -> complex:
    """Normative definition: the matrix trace at the embedded point."""
    return matrix_hamiltonian(spec, embed(x))


def reduced_hamiltonian(spec: SystemSpec, x: ReducedPoint) -> complex:
    """Closed-form fast path; agrees with the trace oracle to 1e-10 relative."""
    a, b, g, n = x.positions, x.momenta, x.g, x.n
    T = spec.time(x.t)
    k = spec.kind
    red = x.slice is Slice.Q_DIAG
    g2 = g * g

    if k is SystemKind.FREE:
        if red:
            return complex(np.sum(b ** 2) / 2 + g2 * pairwise_inverse_square_sum(a))
        return complex(np.sum(a ** 2) / 2)

    if k is SystemKind.HARM_OSC:
        om2 = spec.omega ** 2
        if red:
            return complex(np.sum(b ** 2 + om2 * a ** 2) / 2
                           + g2 * pairwise_inverse_square_sum(a))
        return complex(np.sum(a ** 2 + om2 * b ** 2) / 2
                       + om2 * g2 * pairwise_inverse_square_sum(a))

    if k is SystemKind.P_I:
        if red:
            diag = np.sum(b ** 2 / 2 - a ** 3 / 2 - (T / 4) * a)
            return complex(diag + g2 * pairwise_inverse_square_sum(a))
        diag = np.sum(a ** 2 / 2 - b ** 3 / 2 - (T / 4) * b)
        inter = sum((b[i] + b[j]) / d ** 2 for i, j, d in _pair_terms(a))
        return complex(diag - 1.5 * g2 * inter)

    if k is SystemKind.P_II:
        if red:
            diag = np.sum(b ** 2 / 2 - (a ** 2 + T / 2) ** 2 / 2 - spec.theta * a)
            return complex(diag + g2 * pairwise_inverse_square_sum(a))
        diag = np.sum(a ** 2 / 2 - (b ** 2 + T / 2) ** 2 / 2 - spec.theta * b)
        pair = sum((b[i] ** 2 + b[i] * b[j] + b[j] ** 2 + T / 2) / d ** 2
                   for i, j, d in _pair_terms(a))
        return complex(diag - 2 * g2 * pair - (g2 * g2 / 2) * a4_total(a))

    if k is SystemKind.P_II_POLY:
        if red:
            diag = np.sum(b ** 2 / 2 - a ** 2 * b - (T / 2) * b - spec.theta * a)
            return complex(diag + g2 * pairwise_inverse_square_sum(a))
        diag = np.sum(a ** 2 / 2 - a * b ** 2 - (T / 2) * a - spec.theta * b)
        inter = sum((a[i] + a[j]) / d ** 2 for i, j, d in _pair_terms(a))
        return complex(diag - g2 * inter)

    if k is SystemKind.P_IV:
        th0, th1 = spec.theta0, spec.theta1
        if red:
            diag = np.sum(a * b ** 2 - b * a ** 2 - T * a * b
                          + th0 * b - (th0 + th1) * a)
            inter = sum((a[i] + a[j]) / d ** 2 for i, j, d in _pair_terms(a))
            return complex(diag + g2 * inter)
        diag = np.sum(b * a ** 2 - a * b ** 2 - T * a * b
                      + th0 * a - (th0 + th1) * b)
        inter = sum((a[i] + a[j]) / d ** 2 for i, j, d in _pair_terms(a))
        return complex(diag - g2 * inter)

    raise UnsupportedSystem(str(k))  # pragma: no cover


def dual_p2_interaction_blocks(x: ReducedPoint, spec: SystemSpec) -> dict:
    """The g^2 and g^4 blocks of the dual P_II Hamiltonian, split by class.

    These are exactly the Tr Q^4 / Tr Q^2 interaction blocks of the traces
    module evaluated on (positions as denominators, momenta as diagonal).
    The quadruple block is identically zero and is left out of the closed
    form; it is kept here as the witness of that cancellation.
    """
    a, b, g = x.positions, x.momenta, x.g
    T = spec.time(x.t)
    g2, g4 = g * g, g ** 4
    pair = sum((b[i] ** 2 + b[i] * b[j] + b[j] ** 2 + T / 2) / d ** 2
               for i, j, d in _pair_terms(a))
    return {
        "g2_pair": complex(-2 * g2 * pair),
        "g4_pair": complex(-(g4 / 2) * a4_pair_sum(a)),
        "g4_triple": complex(-(g4 / 2) * a4_triple_sum(a)),
        "g4_quadruple": complex(-(g4 / 2) * a4_quad_sum(a)),
    }


# ---------------------------------------------------------------------------
# reduced vector fields via the embedding chain rule
# ---------------------------------------------------------------------------

def _embed_gradient(spec: SystemSpec, x: ReducedPoint):
    """(dH/d positions, dH/d momenta) of the trace Hamiltonian at embed(x)."""
    pt = embed(x)
    gq, gp = matrix_gradients(spec, pt)
    if x.slice is Slice.Q_DIAG:
        g_diag, g_res, sgn = gq, gp, +1
    else:
        g_diag, g_res, sgn = gp, gq, -1
    a = x.positions
    n = x.n
    dH_db = np.diag(g_res).copy()
    dH_da = np.diag(g_diag).astype(complex).copy()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            # d/da_i of K_ij = s*i*g/(a_i-a_j) and of K_ji = s*i*g/(a_j-a_i)
            dK_ij = -sgn * 1j * x.g / (a[i] - a[j]) ** 2
            dK_ji = sgn * 1j * x.g / (a[j] - a[i]) ** 2
            dH_da[i] += g_res[j, i] * dK_ij + g_res[i, j] * dK_ji
    return dH_da, dH_db


def reduced_vector_field(spec: SystemSpec, x: ReducedPoint):
    """(d positions/dt, d momenta/dt) of the reduced canonical flow.

    Q_DIAG: positions are canonical coordinates, momenta their conjugates.
    P_DIAG: omega = sum dI ^ dphi, so the roles swap.
    """
    dH_da, dH_db = _embed_gradient(spec, x)
    if x.slice is Slice.Q_DIAG:
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

