"""Fixed-step RK4 flows with conservation monitors.

Reproducibility beats efficiency at desk scale: no adaptivity, collisions
abort with the partial trajectory attached to the exception, and every
non-autonomous stage evaluates the field at its stage time.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Overflow, ParticleCollision
from .hamiltonians import matrix_vector_field, reduced_vector_field, rk4_step, \
    trace_hamiltonian
from .lax import charpoly_coefficients, lax_l
from .phase import MatrixPhasePoint, SystemSpec, moment_deviation
from .reduction import ReducedPoint, Slice, embed, embedded_matrices, \
    match_permutation, permuted_deviation, reduce

MAX_STEPS = 10_000_000
OVERFLOW_NORM = 1e12
EQUIVARIANCE_STEP = 1e-3  # RK4 step of both legs of equivariance_check
# states per stacked diagnostic evaluation: bounds the (chunk, n, n) stacks of
# a long flow's energies and moment deviations
DIAGNOSTIC_CHUNK = 64


@dataclass(frozen=True)
class Trajectory:
    """Times, states, and per-step diagnostics of one integration."""

    times: np.ndarray
    states: list
    diagnostics: dict = field(default_factory=dict)
    g: float | None = None

    @property
    def final(self):
        return self.states[-1]


def step_count(t0: float, t1: float, h: float) -> int:
    """Number of uniform steps of size at most h from t0 to t1 (> t0).

    Raises ValueError for a non-positive h, an empty or reversed span, or
    more than MAX_STEPS steps.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if t1 <= t0:
        raise ValueError(f"t1 = {t1} must exceed t0 = {t0}")
    steps = max(1, int(np.ceil((t1 - t0) / h - 1e-12)))
    if steps > MAX_STEPS:
        raise ValueError(f"step count {steps} exceeds {MAX_STEPS}")
    return steps


def integrate(spec: SystemSpec, start, t0: float, t1: float, h: float,
              g: float | None = None) -> Trajectory:
    """Classical RK4 from t0 to t1.

    The requested step is shrunk to the nearest exact divisor of the
    interval so the endpoint lands on t1 with uniform steps.  Stages run on
    plain arrays; a point is built once per accepted step, after the
    overflow check, which the start state passes too.  Collisions are
    caught where they are guarded: in the reduced vector field at every
    stage and in ReducedPoint at every step.  Energies and moment
    deviations are evaluated over the stacked (embedded) states of the
    finished or partial trajectory, DIAGNOSTIC_CHUNK states at a time.
    """
    steps = step_count(t0, t1, h)
    h = (t1 - t0) / steps

    if isinstance(start, MatrixPhasePoint):
        q, p = start.q.copy(), start.p.copy()

        def rhs(q, p, t):
            return matrix_vector_field(spec, q, p, t)

        def point(q, p, t):
            return MatrixPhasePoint(q, p, t)
    else:
        q, p = start.positions.copy(), start.momenta.copy()

        def rhs(a, b, t):
            return reduced_vector_field(spec, a, b, start.g, t, start.slice)

        def point(a, b, t):
            return ReducedPoint(a, b, start.g, t, start.slice)

    g_monitor = g if g is not None else getattr(start, "g", None)
    times, states = [], []

    def so_far():
        energy, deviation = [np.array([])], [np.array([])]
        for i in range(0, len(states), DIAGNOSTIC_CHUNK):
            q, p = stacked_matrices(states[i:i + DIAGNOSTIC_CHUNK])
            T = spec.time(np.array(times[i:i + DIAGNOSTIC_CHUNK]))
            energy.append(trace_hamiltonian(spec, q, p, T))
            deviation.append(moment_deviation(q, p, g_monitor))
        diagnostics = {"energy": np.concatenate(energy),
                       "moment_deviation": np.concatenate(deviation)}
        return Trajectory(np.array(times), states, diagnostics, g_monitor)

    t = t0
    for k in range(steps + 1):
        try:
            if k > 0:
                # a stage may overflow; the state check below reports it
                with np.errstate(over="ignore", invalid="ignore"):
                    q, p = rk4_step(rhs, q, p, t, h)
                t = t0 + k * h
            norm = max(float(np.abs(q).max()), float(np.abs(p).max()))
            if not np.isfinite(norm):
                raise Overflow(f"non-finite state at t={t:.6g}", partial=so_far())
            if norm > OVERFLOW_NORM:
                raise Overflow(f"state norm {norm:.3e} exceeds {OVERFLOW_NORM:.0e}",
                               partial=so_far())
            state = point(q, p, t)
        except ParticleCollision as exc:
            exc.partial = so_far()
            raise
        times.append(t)
        states.append(state)

    return so_far()


def stacked_matrices(states: list) -> tuple[np.ndarray, np.ndarray]:
    """(q, p) of a non-empty list of points as (len(states), n, n) arrays.

    Reduced points are embedded at their slice, all in one array expression.
    """
    if isinstance(states[0], MatrixPhasePoint):
        return np.array([s.q for s in states]), np.array([s.p for s in states])
    x = states[0]
    return embedded_matrices(np.array([s.positions for s in states]),
                             np.array([s.momenta for s in states]), x.g, x.slice)


def monitor_invariants(spec: SystemSpec, traj: Trajectory, lam_monitor) -> dict:
    """Per-step moment-map deviation and char-poly coefficient drift.

    The moment deviations and energies are the trajectory's own
    diagnostics (against its coupling traj.g).  The states are stacked
    once; each lambda costs one Lax build over the stack and one batched
    eigensolve.  For autonomous specs the drifts are conserved-quantity
    checks; for non-autonomous ones they are reported as diagnostics only.
    """
    if not traj.states:
        raise ValueError("empty trajectory")
    q, p = stacked_matrices(traj.states)
    T = spec.time(traj.times)

    report: dict = {"autonomous": spec.autonomous,
                    "conservation_asserted": bool(spec.autonomous),
                    "moment_deviation_max":
                        float(traj.diagnostics["moment_deviation"].max())}
    drift = {}
    for lam in lam_monitor:
        coeffs = charpoly_coefficients(lax_l(spec, q, p, T, lam))
        scale = np.maximum(1.0, np.abs(coeffs[0]))
        drift[str(lam)] = float((np.abs(coeffs - coeffs[0]) / scale).max())
    report["charpoly_drift"] = drift
    report["energy_drift"] = float(np.abs(traj.diagnostics["energy"]
                                          - traj.diagnostics["energy"][0]).max())
    return report


def equivariance_check(spec: SystemSpec, x0: ReducedPoint, dt: float) -> float:
    """Flow-then-reduce versus reduce-then-flow, permutation matched."""
    t1 = x0.t + dt
    matrix_end = integrate(spec, embed(x0), x0.t, t1, EQUIVARIANCE_STEP, g=x0.g).final
    reduced_end = integrate(spec, x0, x0.t, t1, EQUIVARIANCE_STEP).final
    back = reduce(matrix_end, x0.slice, x0.g, tol=1e-5)
    return permuted_deviation(reduced_end, back)


def dual_position_drift(traj: Trajectory) -> float:
    """Drift of the embedded partner-matrix spectrum along a reduced flow.

    Along the free reduced flow these are the action variables: positions
    of the dual system, constant while the reduced positions move.
    """
    x = traj.states[0]
    q, p = stacked_matrices(traj.states)
    partner = p if x.slice is Slice.Q_DIAG else q
    eigs = np.sort_complex(np.linalg.eigvals(partner))
    later = eigs[1:]
    perm = match_permutation(np.broadcast_to(eigs[0], later.shape), later)
    return float(np.abs(np.take_along_axis(later, perm, -1) - eigs[0]).max(initial=0.0))
