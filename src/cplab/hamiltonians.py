"""Hamiltonians and equations of motion at the matrix and particle levels.

The normative value of every reduced/dual Hamiltonian is the matrix trace
evaluated at the embedded point.  The closed form evaluates that same
trace formula with the traces of the Calogero matrix in closed form
(printed variants in the literature differ in coupling normalizations,
see CONVENTIONS.md) and must agree with it to 1e-10 relative.

Matrix gradients use the pairing dH = Tr(G_q dq) + Tr(G_p dp); Hamilton's
equations are qdot = G_p, pdot = -G_q.  Every slice-dependent choice (which
of q, p is diagonal, the Calogero sign, which stored coordinate is the
canonical one) is read from reduction.Slice: its sign and its order.

The vector fields and the RK4 step work on plain arrays: a state is one
(2, ...) array, q over p, and a field returns (qdot, pdot) stacked the same
way.  A flow records its states as arrays: no point is built at a stage or
a step.
"""
from __future__ import annotations

import numpy as np

from .errors import UnsupportedSystem
from .phase import (FREE, HARM_OSC, P_I, P_II, P_II_POLY, P_IV, MatrixPhasePoint, SystemSpec,
                    add_to_diagonal, row_dot)
from .reduction import ReducedPoint, Slice, embedded_matrices, inverse_square_kernel
from .traces import diag_c2, tr_c3, tr_c4


def matrix_hamiltonian(spec: SystemSpec, pt: MatrixPhasePoint) -> complex:
    """Tr H(q, p, t) with the operator ordering of the matrix systems."""
    return complex(trace_hamiltonian(spec, pt.q, pt.p, pt.t))


def trace_hamiltonian(spec: SystemSpec, q: np.ndarray, p: np.ndarray, t):
    """Tr H at each point of a stack, with matrix_hamiltonian's ordering.

    q and p are (..., n, n); t broadcasts over the leading axes.
    """
    def tr(a):
        return np.trace(a, axis1=-2, axis2=-1)

    T = spec.time(t)
    k = spec.kind
    if k is FREE:
        return tr(p @ p) / 2
    if k is HARM_OSC:
        return tr(p @ p) / 2 + spec.omega ** 2 * tr(q @ q) / 2
    if k is P_I:
        return tr(p @ p) / 2 - tr(q @ q @ q) / 2 - (T / 4) * tr(q)
    if k is P_II:
        w = add_to_diagonal(q @ q, T / 2)
        return tr(p @ p) / 2 - tr(w @ w) / 2 - spec.theta * tr(q)
    if k is P_II_POLY:
        return (tr(p @ p) / 2 - tr(p @ q @ q)
                - (T / 2) * tr(p) - spec.theta * tr(q))
    if k is P_IV:
        return (tr(p @ q @ p) - tr(p @ q @ q) - T * tr(p @ q)
                + spec.theta0 * tr(p)
                - (spec.theta0 + spec.theta1) * tr(q))
    raise UnsupportedSystem(str(k))  # pragma: no cover


def matrix_gradients(spec: SystemSpec, q: np.ndarray, p: np.ndarray, t: float):
    """(G_q, G_p) under dH = Tr(G_q dq) + Tr(G_p dp).

    Where G_p = p (Free, HarmOsc, P_I, P_II) the input p itself is returned:
    a caller reads the gradients and never writes into them.
    """
    T = spec.time(t)
    k = spec.kind
    if k is FREE:
        return np.zeros(q.shape, q.dtype), p
    if k is HARM_OSC:
        return spec.omega ** 2 * q, p
    if k is P_I:
        return add_to_diagonal(-1.5 * q @ q, -(T / 4)), p
    if k is P_II:
        return add_to_diagonal(-(2 * q @ q @ q + T * q), -spec.theta), p
    if k is P_II_POLY:
        gq = add_to_diagonal(-(q @ p + p @ q), -spec.theta)
        gp = add_to_diagonal(p - q @ q, -(T / 2))
        return gq, gp
    if k is P_IV:
        gq = add_to_diagonal(p @ p - q @ p - p @ q - T * p, -(spec.theta0 + spec.theta1))
        gp = add_to_diagonal(q @ p + p @ q - q @ q - T * q, spec.theta0)
        return gq, gp
    raise UnsupportedSystem(str(k))  # pragma: no cover


def matrix_vector_field(spec: SystemSpec, q: np.ndarray, p: np.ndarray, t: float) -> np.ndarray:
    """(qdot, pdot) = (G_p, -G_q), stacked as one (2, ...) array."""
    gq, gp = matrix_gradients(spec, q, p, t)
    out = np.empty((2,) + gp.shape, np.promote_types(gp.dtype, gq.dtype))
    out[0] = gp
    np.negative(gq, out=out[1])
    return out


def rk4_step(field, y: np.ndarray, t: float, h: float, k1: np.ndarray) -> np.ndarray:
    """One RK4 step of y' = field(y, t) given k1 = field(y, t); the new y.

    y is a phase-space state packed as one (2, ...) array, q over p (or
    positions over momenta), and field returns its derivative in the same
    layout, so each stage is one array expression.
    """
    half = h / 2
    k2 = field(y + half * k1, t + half)
    k3 = field(y + half * k2, t + half)
    k4 = field(y + h * k3, t + h)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


# ---------------------------------------------------------------------------
# closed-form reduced/dual Hamiltonians
# ---------------------------------------------------------------------------

def embedded_trace_hamiltonian(spec: SystemSpec, positions: np.ndarray,
                               momenta: np.ndarray, g: float, t, slice: Slice):
    """Normative definition of the reduced Hamiltonian: the matrix trace at the
    embedded point, at each point of a stack (..., n) of coordinates."""
    return trace_hamiltonian(spec, *embedded_matrices(positions, momenta, g, slice), t)


def reduced_hamiltonian(spec: SystemSpec, x: ReducedPoint) -> complex:
    """Closed-form fast path; agrees with the trace oracle to 1e-10 relative."""
    return complex(closed_form_hamiltonian(spec, x.positions, x.momenta, x.g,
                                           x.t, x.slice))


def closed_form_hamiltonian(spec: SystemSpec, positions: np.ndarray, momenta: np.ndarray,
                            g: float, t, slice: Slice):
    """reduced_hamiltonian at each point of a stack (..., n) of coordinates.

    trace_hamiltonian's formula at the embedded pair of one diagonal
    D = diag(a) and one Calogero matrix C with diagonal b and denominators
    a: (q, p) = slice.order(D, C).  q[k] and p[k] hold Tr q^k and Tr p^k
    for k <= 2, those of C from traces.diag_c2; the mixed traces are
    Tr(D C) = a.b, Tr(D^2 C) = Tr(D C D) = a^2.b and
    Tr(D C^2) = Tr(C D C) = a.diag C^2.  Tr q^3 and Tr q^4 are formed by the
    kinds that read them, with traces.tr_c3 and tr_c4 where q = C.  t and
    the parameters of spec broadcast over the leading axes.
    """
    T = spec.time(t)
    a, b = positions, momenta
    W = inverse_square_kernel(a)
    c2 = diag_c2(b, W, g)
    a2 = a * a
    n = a.shape[-1]
    tr_d = (n, a.sum(axis=-1), a2.sum(axis=-1))
    tr_c = (n, b.sum(axis=-1), c2.sum(axis=-1))
    q, p = slice.order(tr_d, tr_c)
    pqq, pqp = slice.order(row_dot(a2, b), row_dot(a, c2))
    # Tr q^3 and Tr q^4, each formed only by the kind that reads it
    q3, q4 = slice.order((lambda: (a2 * a).sum(axis=-1), lambda: (a2 * a2).sum(axis=-1)),
                         (lambda: tr_c3(b, W, g), lambda: tr_c4(b, W, g)))[0]
    pq = row_dot(a, b)
    k = spec.kind
    if k is FREE:
        return p[2] / 2
    if k is HARM_OSC:
        return p[2] / 2 + spec.omega ** 2 * q[2] / 2
    if k is P_I:
        return p[2] / 2 - q3() / 2 - (T / 4) * q[1]
    if k is P_II:
        # Tr w^2 for w = q^2 + T/2
        return p[2] / 2 - (q4() + T * q[2] + q[0] * T ** 2 / 4) / 2 - spec.theta * q[1]
    if k is P_II_POLY:
        return p[2] / 2 - pqq - (T / 2) * p[1] - spec.theta * q[1]
    if k is P_IV:
        return (pqp - pqq - T * pq + spec.theta0 * p[1]
                - (spec.theta0 + spec.theta1) * q[1])
    raise UnsupportedSystem(str(k))  # pragma: no cover


# ---------------------------------------------------------------------------
# reduced vector fields via the embedding chain rule
# ---------------------------------------------------------------------------

def reduced_vector_field(spec: SystemSpec, positions: np.ndarray, momenta: np.ndarray,
                         g: float, t: float, slice: Slice) -> np.ndarray:
    """(d positions/dt, d momenta/dt) of the reduced canonical flow, stacked as (2, n).

    The matrix gradient at the embedded point, pulled back through the
    embedding: dH/d momenta is the diagonal of the resolved block's
    gradient, and dH/d positions adds to the diagonal block's diagonal the
    chain rule through K_ij = s i g/(a_i - a_j), whose a_i-derivative is
    -K_ij^2/(s i g) (and that of K_ji = -K_ij the opposite).

    These are Hamilton's equations in canonical (coordinate, momentum)
    order, slice.order of the stored (positions, momenta): on P_DIAG,
    omega = sum dI ^ dphi, so the roles swap.
    """
    # the embedding guards the differences x_i - x_j it divides by: the
    # field's input check, and the only collision guard of RK4 stages 2-4
    q, p = embedded_matrices(positions, momenta, g, slice)
    g_diag, g_res = slice.order(*matrix_gradients(spec, q, p, t))
    K = slice.order(q, p)[1]  # the resolved block
    # K's diagonal (the momenta) only meets the zero diagonal of g_res - g_res.T;
    # the row g_diag.diagonal() + (K * K * (g_res - g_res.T)).sum(axis=1) / (s i g),
    # formed in place by the same operations in the same order
    row = K * K
    row *= g_res - g_res.T
    dH_da = np.add.reduce(row, axis=1)
    dH_da /= slice.sign * 1j * g
    dH_da += g_diag.diagonal()
    dH_db = g_res.diagonal()
    dH_dc, dH_dm = slice.order(dH_da, dH_db)
    # the rows of slice.order(dH_dm, -dH_dc); the embedded matrices are complex
    out = np.empty((2,) + dH_da.shape, complex)
    i, j = slice.order(0, 1)
    out[i] = dH_dm
    np.negative(dH_dc, out=out[j])
    return out


# ---------------------------------------------------------------------------
# duality maps
# ---------------------------------------------------------------------------

def p4_involution_coordinates(positions: np.ndarray, momenta: np.ndarray, slice: Slice,
                              theta0: complex, theta1: complex):
    """Anti-symplectic involution of the P_IV pair, on coordinates (..., n) at a slice.

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
