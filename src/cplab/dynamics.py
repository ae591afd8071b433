"""Fixed-step RK4 flows with conservation monitors, and the flow/reduce commutation.

Reproducibility beats efficiency at desk scale: no adaptivity, collisions
abort with the partial trajectory attached to the exception, and every
non-autonomous stage evaluates the field at its stage time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Overflow, ParticleCollision
from .hamiltonians import matrix_vector_field, reduced_vector_field, rk4_step, \
    trace_hamiltonian
from .lax import lax_l, power_trace_scale, power_traces
from .phase import MatrixPhasePoint, SystemSpec, moment_deviation, relative_deviation
from .reduction import ReducedPoint, embedded_matrices, guarded_differences, \
    match_permutation, pair_differences, resolve_at_slice

MAX_STEPS = 10_000_000
OVERFLOW_NORM = 1e12
# trapezoidal node counts of contour_pushforward: the second shows that the
# first has converged
CONTOUR_NODES = (32, 64)
CONTOUR_RADIUS = 0.1  # contour radius, in (smallest particle gap) / max(1, max|V|)
# spectral parameters of monitor_invariants; a drift is reported under str(lambda)
MONITOR_LAMBDAS = (1 + 0j, 2j)
MONITOR_BLOCK = 256  # recorded states per Lax stack of power_trace_drift


@dataclass(frozen=True)
class Trajectory:
    """Times, states (States or a list of points) and the monitored coupling g of a flow."""

    times: np.ndarray
    states: States | list
    g: float | None = None

    @property
    def final(self):
        return self.states[-1]


class States:
    """A flow's states as arrays a, b of shape (len(times),) + start shape: its stored pair.

    An index builds a validated point (with a reduced start's g and slice),
    a slice a list of them.
    """

    def __init__(self, start, times: np.ndarray, a: np.ndarray, b: np.ndarray):
        self.start, self.times, self.a, self.b = start, times, a, b

    def __len__(self):
        return len(self.times)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        x, a, b, t = self.start, self.a[i], self.b[i], self.times[i]
        if isinstance(x, MatrixPhasePoint):
            return MatrixPhasePoint(a, b, t)
        return ReducedPoint(a, b, x.g, t, x.slice)

    def matrices(self, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(q, p) of the states in rows as (k, n, n) stacks; reduced states embedded."""
        a, b, x = self.a[rows], self.b[rows], self.start
        if isinstance(x, MatrixPhasePoint):
            return a, b
        return embedded_matrices(a, b, x.g, x.slice)


def step_count(t0: float, t1: float, h: float) -> int:
    """Number of uniform steps of size at most h from t0 to t1 (> t0).

    Raises ValueError for a non-positive h, an empty or reversed span, or
    a step count above MAX_STEPS or not finite.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if t1 <= t0:
        raise ValueError(f"t1 = {t1} must exceed t0 = {t0}")
    ratio = (t1 - t0) / h - 1e-12
    if not ratio <= MAX_STEPS:  # a non-finite ratio fails this too
        raise ValueError(f"step count {np.ceil(ratio):.0f} exceeds {MAX_STEPS}")
    return max(1, int(np.ceil(ratio)))


def integrate(spec: SystemSpec, start, t0: float, t1: float, h: float,
              g: float | None = None) -> Trajectory:
    """Classical RK4 from t0 to t1, recorded as States arrays; no point is built.

    The state is one (2, ...) array y, q over p (positions over momenta
    for a reduced start), stepped by rk4_step; each step makes one norm
    check on y and one record write.  The requested step is shrunk to the
    nearest exact divisor of the interval so the endpoint lands on t1 with
    uniform steps.  A state is recorded after the overflow check and, if
    reduced, one collision guard: the stage-1 field evaluation that reads
    it (handed to rk4_step), or guarded_differences for the final state;
    the field guards stages 2-4.  An Overflow or ParticleCollision leaves
    with the recorded prefix as its `partial`.  Nothing is evaluated on the
    record: its readers (monitors, reports) embed what they read.  g, else
    the start's coupling, is kept as the trajectory's g.
    """
    steps = step_count(t0, t1, h)
    h = (t1 - t0) / steps
    # the fields take q (the positions) first: the bench sizes a span by it
    if isinstance(start, MatrixPhasePoint):
        def rhs(y, t):
            return matrix_vector_field(spec, y[0], y[1], t)
        y = np.stack((start.q, start.p))
    else:
        def rhs(y, t):
            return reduced_vector_field(spec, y[0], y[1], start.g, t, start.slice)
        y = np.stack((start.positions, start.momenta))

    g = g if g is not None else getattr(start, "g", None)
    ab = np.empty((2, steps + 1) + y.shape[1:], dtype=complex)

    def so_far(m):
        times = t0 + np.arange(m) * h
        return Trajectory(times, States(start, times, ab[0, :m], ab[1, :m]), g)

    try:
        # a stage may overflow; the state check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(steps + 1):
                if k > 0:
                    y = rk4_step(rhs, y, t, h, k1)
                t = t0 + k * h
                norm = float(np.abs(y).max())
                if not math.isfinite(norm):
                    raise Overflow(f"non-finite state at t={t:.6g}")
                if norm > OVERFLOW_NORM:
                    raise Overflow(f"state norm {norm:.3e} exceeds {OVERFLOW_NORM:.0e}")
                if k < steps:
                    k1 = rhs(y, t)
                elif isinstance(start, ReducedPoint):
                    guarded_differences(y[0])
                ab[:, k] = y
    except (Overflow, ParticleCollision) as exc:
        exc.partial = so_far(k)  # states 0 .. k - 1
        raise
    return so_far(steps + 1)


def power_trace_drift(spec: SystemSpec, q: np.ndarray, p: np.ndarray, times: np.ndarray,
                      lam: complex) -> float:
    """max over k = 1 .. 2n and the states of |Tr A^k - Tr A^k at the first state|.

    A = L(lam) / s, s the power_trace_scale of L(lam) at the first state,
    so every eigenvalue of the first A lies in the unit disc; L is scaled
    by multiplying with 1 / s, as spectral_match scales.  The
    (states, n, n) stacks q, p are read MONITOR_BLOCK states at a time, one
    lax_l build each, into lax.power_traces, and no eigensolve is made.
    """
    inverse_scale = 1 / power_trace_scale(lax_l(spec, q[0], p[0], times[0], lam))
    traces = []
    for i in range(0, len(times), MONITOR_BLOCK):
        rows = slice(i, i + MONITOR_BLOCK)
        A = lax_l(spec, q[rows], p[rows], times[rows], lam)
        A *= inverse_scale
        traces.append(power_traces(A))
    traces = np.concatenate(traces)
    return float(np.abs(traces - traces[0]).max())


def monitor_invariants(spec: SystemSpec, traj: Trajectory) -> dict:
    """Per-step moment-map deviation, energy drift and power-trace drift at MONITOR_LAMBDAS.

    The states are embedded once; that stack gives the energies
    (trace_hamiltonian, whose drift is the relative_deviation of E from
    E0), the moment deviations (against the trajectory's
    coupling traj.g), and for each lambda the power_trace_drift of L, which
    is conserved exactly when det(mu - L(lambda)) is.  For autonomous specs
    the drifts are conserved-quantity checks; for non-autonomous ones they
    are reported as diagnostics only.
    """
    if not traj.states:
        raise ValueError("empty trajectory")
    q, p = traj.states.matrices()

    report: dict = {"autonomous": spec.autonomous,
                    "conservation_asserted": bool(spec.autonomous),
                    "moment_deviation_max":
                        float(moment_deviation(q, p, traj.g).max())}
    report["power_trace_drift"] = {str(lam): power_trace_drift(spec, q, p, traj.times, lam)
                                   for lam in MONITOR_LAMBDAS}
    energy = trace_hamiltonian(spec, q, p, traj.times)
    report["energy_drift"] = float(np.max(relative_deviation(energy, energy[0])))
    return report


def contour_pushforward(spec: SystemSpec, x: ReducedPoint) -> np.ndarray:
    """d/ds of the slice coordinates of embed(x) + s V at s = 0, V the matrix field.

    Cauchy's integral on |s| = r by the trapezoidal rule,
    (1/N) sum_k c(r z_k) / (r z_k) with z_k = exp(2 pi i (k + 1/2) / N):
    exact for c's s^0 .. s^N terms, and geometric in N beyond them.
    r = CONTOUR_RADIUS * (smallest particle gap, at most 1 + max|x|) /
    max(1, max|V|).  The nodes of every N of CONTOUR_NODES are resolved as
    one stack by the eigen core resolve_at_slice, and each row is relabeled
    to the centre's particles.  The ray leaves the level set at O(s^2),
    where reduce would refuse it; V is tangent to the level set, so the s^1
    term is the derivative of reduce along the flow (see CONVENTIONS.md).
    Returns the (len(CONTOUR_NODES), 2, n) readings: for each N,
    d positions/ds and d momenta/ds.
    """
    q0, p0 = embedded_matrices(x.positions, x.momenta, x.g, x.slice)
    dq, dp = matrix_vector_field(spec, q0, p0, x.t)
    gap = np.abs(pair_differences(x.positions)).min(
        initial=1.0 + np.abs(x.positions).max())
    r = CONTOUR_RADIUS * gap / max(1.0, float(np.abs(dq).max()), float(np.abs(dp).max()))
    z = np.concatenate([np.exp(2j * np.pi * (np.arange(N) + 0.5) / N)
                        for N in CONTOUR_NODES])
    s = (r * z)[:, None, None]
    pos, M = resolve_at_slice(q0 + s * dq, p0 + s * dp, x.slice)
    perm = match_permutation(np.broadcast_to(x.positions, pos.shape), pos)
    c = np.stack([np.take_along_axis(pos, perm, -1),
                  np.take_along_axis(np.diagonal(M, 0, -2, -1), perm, -1)], axis=1)
    return np.array([terms.mean(axis=0)
                     for terms in np.split(c / s, np.cumsum(CONTOUR_NODES)[:-1])])


def field_deviation(derivative: np.ndarray, field) -> float:
    """max |derivative - field| / max(1, max |field|) over every reading.

    field is a (positions, momenta) pair of a reduced vector field, and
    derivative stacks readings of it as contour_pushforward returns them.
    """
    f = np.array(field)
    return float(np.abs(derivative - f).max() / max(1.0, float(np.abs(f).max())))


def equivariance_check(spec: SystemSpec, x: ReducedPoint) -> tuple[float, np.ndarray]:
    """Relative gap between the pushforward of the matrix field and the reduced field at x.

    The flow/reduce commutation, measured at one point: field_deviation of
    the contour_pushforward readings (every N of CONTOUR_NODES, so a
    quadrature that has not converged shows) from reduced_vector_field at x.
    Zero up to roundoff wherever reducing commutes with the flow.  Returns
    the gap and the readings, on which a control field can be measured too.
    """
    field = reduced_vector_field(spec, x.positions, x.momenta, x.g, x.t, x.slice)
    readings = contour_pushforward(spec, x)
    return field_deviation(readings, field), readings


def dual_position_drift(traj: Trajectory) -> float:
    """Drift of the embedded partner-matrix spectrum along a reduced flow.

    Along the free reduced flow these are the action variables: positions
    of the dual system, constant while the reduced positions move.
    Raises TypeError unless the flow starts at a ReducedPoint.
    """
    start = traj.states.start
    if not isinstance(start, ReducedPoint):
        raise TypeError(f"expected a flow from a reduced point, got {type(start)!r}")
    q, p = traj.states.matrices()
    partner = start.slice.order(q, p)[1]
    eigs = np.sort_complex(np.linalg.eigvals(partner))
    later = eigs[1:]
    perm = match_permutation(np.broadcast_to(eigs[0], later.shape), later)
    return float(np.abs(np.take_along_axis(later, perm, -1) - eigs[0]).max(initial=0.0))
