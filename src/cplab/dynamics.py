"""Fixed-step RK4 flows with conservation monitors.

Reproducibility beats efficiency at desk scale: no adaptivity, collisions
abort with the partial trajectory attached to the exception, and every
non-autonomous stage evaluates the field at its stage time.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Overflow, ParticleCollision
from .hamiltonians import matrix_hamiltonian, matrix_vector_field, reduced_hamiltonian, \
    reduced_vector_field
from .lax import char_poly, lax_pair
from .phase import MatrixPhasePoint, SystemSpec, level_set_target, moment_map
from .reduction import ReducedPoint, Slice, collision_threshold, embed, min_gap, \
    match_permutation, reduce

MAX_STEPS = 10_000_000
OVERFLOW_NORM = 1e12


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


def _rk4_step(fn, t, y, h):
    k1 = fn(t, y)
    k2 = fn(t + h / 2, tuple(a + (h / 2) * b for a, b in zip(y, k1)))
    k3 = fn(t + h / 2, tuple(a + (h / 2) * b for a, b in zip(y, k2)))
    k4 = fn(t + h, tuple(a + h * b for a, b in zip(y, k3)))
    return tuple(a + (h / 6) * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))


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
    interval so the endpoint lands on t1 with uniform steps.
    """
    steps = step_count(t0, t1, h)
    h = (t1 - t0) / steps

    matrix_state = isinstance(start, MatrixPhasePoint)
    if matrix_state:
        y = (start.q.copy(), start.p.copy())

        def fn(t, y):
            V = matrix_vector_field(spec, MatrixPhasePoint(y[0], y[1], t))
            return (V.dq, V.dp)

        def pack(t, y):
            return MatrixPhasePoint(y[0], y[1], t)
    else:
        y = (start.positions.copy(), start.momenta.copy())

        def fn(t, y):
            pt = ReducedPoint(y[0], y[1], start.g, t, start.slice)
            return reduced_vector_field(spec, pt)

        def pack(t, y):
            return ReducedPoint(y[0], y[1], start.g, t, start.slice)

    g_monitor = g if g is not None else (None if matrix_state else start.g)
    times = [t0]
    states = [pack(t0, y)]
    energy = [matrix_hamiltonian(spec, states[0]) if matrix_state
              else reduced_hamiltonian(spec, states[0])]
    mu_dev = [_moment_deviation(states[0], g_monitor)] if matrix_state else []

    t = t0
    for k in range(steps):
        try:
            y = _rk4_step(fn, t, y, h)
        except ParticleCollision as exc:
            exc.partial = Trajectory(np.array(times), states,
                                     _pack_diag(energy, mu_dev), g_monitor)
            raise
        t = t0 + (k + 1) * h
        norm = max(float(np.abs(y[0]).max()), float(np.abs(y[1]).max()))
        if not np.isfinite(norm) or norm > OVERFLOW_NORM:
            raise Overflow(f"state norm {norm:.3e} exceeds {OVERFLOW_NORM:.0e}",
                           partial=Trajectory(np.array(times), states,
                                              _pack_diag(energy, mu_dev), g_monitor))
        if not matrix_state and min_gap(y[0]) < collision_threshold(y[0]):
            raise ParticleCollision(
                f"collision at t={t:.6g}",
                partial=Trajectory(np.array(times), states,
                                   _pack_diag(energy, mu_dev), g_monitor))
        state = pack(t, y)
        times.append(t)
        states.append(state)
        energy.append(matrix_hamiltonian(spec, state) if matrix_state
                      else reduced_hamiltonian(spec, state))
        if matrix_state:
            mu_dev.append(_moment_deviation(state, g_monitor))

    return Trajectory(np.array(times), states, _pack_diag(energy, mu_dev), g_monitor)


def _moment_deviation(pt: MatrixPhasePoint, g: float | None) -> float:
    mu = moment_map(pt)
    if g is None:
        return float(np.abs(mu).max())
    return float(np.abs(mu - level_set_target(pt.n, g)).max())


def _pack_diag(energy, mu_dev):
    d = {"energy": np.array(energy)}
    if mu_dev:
        d["moment_deviation"] = np.array(mu_dev)
    return d


def monitor_invariants(spec: SystemSpec, traj: Trajectory, lam_monitor,
                       g: float | None = None) -> dict:
    """Per-step moment-map deviation and char-poly coefficient drift.

    For autonomous specs the drifts are conserved-quantity checks; for
    non-autonomous ones they are reported as diagnostics only.
    """
    if not traj.states:
        raise ValueError("empty trajectory")
    gv = g if g is not None else traj.g
    matrix_state = isinstance(traj.states[0], MatrixPhasePoint)

    report: dict = {"autonomous": spec.autonomous,
                    "conservation_asserted": bool(spec.autonomous)}
    if matrix_state:
        devs = [_moment_deviation(s, gv) for s in traj.states]
        report["moment_deviation_max"] = float(np.max(devs))
        points = traj.states
    else:
        points = [embed(s) for s in traj.states]
        devs = [_moment_deviation(s, gv) for s in points]
        report["moment_deviation_max"] = float(np.max(devs))

    drift = {}
    for lam in lam_monitor:
        coeffs = np.array([char_poly(lax_pair(spec, s, lam).L) for s in points])
        scale = np.maximum(1.0, np.abs(coeffs[0]))
        drift[str(lam)] = float((np.abs(coeffs - coeffs[0]) / scale).max())
    report["charpoly_drift"] = drift
    report["energy_drift"] = float(np.abs(traj.diagnostics["energy"]
                                          - traj.diagnostics["energy"][0]).max())
    return report


def equivariance_check(spec: SystemSpec, x0: ReducedPoint, dt: float,
                       h: float = 1e-3) -> float:
    """Flow-then-reduce versus reduce-then-flow, permutation matched."""
    matrix_end = integrate(spec, embed(x0), x0.t, x0.t + dt, h, g=x0.g).final
    reduced_end = integrate(spec, x0, x0.t, x0.t + dt, h).final
    back = reduce(matrix_end, x0.slice, x0.g, tol=1e-5)
    perm = match_permutation(reduced_end.positions, back.positions)
    dev_pos = np.abs(back.positions[perm] - reduced_end.positions).max()
    dev_mom = np.abs(back.momenta[perm] - reduced_end.momenta).max()
    return float(max(dev_pos, dev_mom))


def dual_position_drift(traj: Trajectory) -> float:
    """Drift of the embedded partner-matrix spectrum along a reduced flow.

    Along the free reduced flow these are the action variables: positions
    of the dual system, constant while the reduced positions move.
    """
    ref = None
    worst = 0.0
    for s in traj.states:
        pt = embed(s)
        partner = pt.p if s.slice is Slice.Q_DIAG else pt.q
        eigs = np.sort_complex(np.linalg.eigvals(partner))
        if ref is None:
            ref = eigs
        else:
            perm = match_permutation(ref, eigs)
            worst = max(worst, float(np.abs(eigs[perm] - ref).max()))
    return worst
