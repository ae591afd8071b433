"""Matrix mKdV reductions: pointwise residual evaluators with convention switches.

Every evaluator takes a stack of matrices (..., m, m), a scalar or a 1-D
array being read as 1 x 1 matrices, with scalar or (...,) coefficients, and
answers row by row: row k of a stacked call is the one-sample call on row k.

The printed cubic-flow conventions are internally inconsistent (commutator
choice, the coefficient of (z v)_z, the orientation of the self-similar
variable), so residual evaluators are parameterized by ConventionSwitch
and a calibration step searches the finite switch set for the assignment
annihilating the scalar residuals, then freezes it.  All checks are
algebraic: derivatives come from differentiating the ODE closure, never
from a PDE grid.

Calibrated outcome (documented in CONVENTIONS.md): s_cubic = -1 as printed;
s_linear = 1 (printed: 2); s_z = -1, i.e. the self-similar closure is
v'' = 2 v^3 - z v + C, the travelling-wave closure v'' = 2 v^3 + w v + theta
after the orientation flip z -> -z.  The commutator switch is invisible to
scalar data and is kept at its printed value.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import CplabError, DimensionMismatch, NonScalarInput

COMM_CHOICES = ("UX_U", "U_UXX", "NONE")
SCALAR_SAMPLES = 24  # scalar points per residual in calibrate and switch_sensitivity


@dataclass(frozen=True)
class ConventionSwitch:
    """Sign/coefficient conventions; defaults are exactly as printed."""

    s_cubic: int = -1        # coefficient sign of 6 u u_x u
    s_comm: str = "UX_U"     # 3[u_x,u] vs 3[u,u_xx] vs absent
    s_linear: float = 2.0    # coefficient of (z v)_z in the self-similar form
    s_z: int = 1             # sign of the z v term in the self-similar closure

    def __post_init__(self):
        if self.s_cubic not in (1, -1) or self.s_z not in (1, -1):
            raise ValueError("sign switches must be +1 or -1")
        if self.s_comm not in COMM_CHOICES:
            raise ValueError(f"s_comm must be one of {COMM_CHOICES}")


def _as_stack(u, name: str) -> np.ndarray:
    """u as complex matrices (..., m, m); a scalar or a 1-D array is read as 1 x 1 matrices."""
    a = np.asarray(u, dtype=complex)
    if a.ndim < 2:
        a = a[..., None, None]
    if a.shape[-2] != a.shape[-1]:
        raise DimensionMismatch(f"{name} must be square")
    return a


def _coefficient(c) -> np.ndarray:
    """A scalar or a (...,) stack of coefficients, shaped to scale (..., m, m) row by row."""
    return np.asarray(c)[..., None, None]


def mmkdv_rhs(u, u_x, u_xx, u_xxx, sw: ConventionSwitch) -> np.ndarray:
    """u_xxx + 3 * (selected commutator) + s_cubic * 6 u u_x u, on stacks (..., m, m)."""
    u, u_x, u_xx, u_xxx = (_as_stack(m, n) for m, n in
                           zip((u, u_x, u_xx, u_xxx), ("u", "u_x", "u_xx", "u_xxx")))
    if sw.s_comm == "UX_U":
        comm = u_x @ u - u @ u_x
    elif sw.s_comm == "U_UXX":
        comm = u @ u_xx - u_xx @ u
    else:
        comm = np.zeros_like(u)
    return u_xxx + 3.0 * comm + sw.s_cubic * 6.0 * (u @ u_x @ u)


def tw_closure(v, wave_speed, theta) -> np.ndarray:
    """Travelling-wave inner ODE: v_zz = 2 v^3 + w v + theta, on stacks (..., m, m)."""
    v = _as_stack(v, "v")
    I = np.eye(v.shape[-1], dtype=complex)
    return 2.0 * v @ v @ v + _coefficient(wave_speed) * v + _coefficient(theta) * I


def ss_closure(v, z, const, sw: ConventionSwitch) -> np.ndarray:
    """Self-similar inner ODE after one integration: v_zz = 2 v^3 + s_z z v + C,
    on stacks (..., m, m)."""
    v = _as_stack(v, "v")
    I = np.eye(v.shape[-1], dtype=complex)
    return 2.0 * v @ v @ v + sw.s_z * _coefficient(z) * v + _coefficient(const) * I


def _cubic_derivative(v, p):
    """d/dz of v^3 along v_z = p, in matrix order."""
    return p @ v @ v + v @ p @ v + v @ v @ p


def _max_norm(a: np.ndarray) -> np.ndarray:
    """|a|_max of each matrix of the stack (..., m, m), as (...)."""
    return np.abs(a).max(axis=(-2, -1))


def tw_residual(v, p, z_speed, theta, sw: ConventionSwitch) -> np.ndarray:
    """Pointwise travelling-wave check; returns |w p - rhs|_max of each row
    under the closure v_zz = tw_closure(v, w, theta)."""
    v = _as_stack(v, "v")
    p = _as_stack(p, "p")
    w = _coefficient(z_speed)
    v_zz = tw_closure(v, z_speed, theta)
    v_zzz = 2.0 * _cubic_derivative(v, p) + w * p
    return _max_norm(w * p - mmkdv_rhs(v, p, v_zz, v_zzz, sw))


def ss_residual(v, p, z, theta, sw: ConventionSwitch) -> np.ndarray:
    """Self-similar form v_zzz + 3[v, v_zz] - 6 v v_z v + s_linear (z v)_z,
    closed by ss_closure; returns the max-norm of each row."""
    v = _as_stack(v, "v")
    p = _as_stack(p, "p")
    zc = _coefficient(z)
    v_zz = ss_closure(v, z, theta, sw)
    v_zzz = 2.0 * _cubic_derivative(v, p) + sw.s_z * (v + zc * p)
    lhs = (v_zzz + 3.0 * (v @ v_zz - v_zz @ v) - 6.0 * (v @ p @ v)
           + sw.s_linear * (v + zc * p))
    return _max_norm(lhs)


def _scalar_samples(rng):
    """SCALAR_SAMPLES scalar points (v, p, z, theta) as four stacks.

    One normal block, read per sample as re v, re p, im v, im p, z, re theta,
    im theta: the order in which one sample at a time would draw them.
    """
    x = rng.normal(size=(SCALAR_SAMPLES, 7))
    return x[:, 0] + 1j * x[:, 2], x[:, 1] + 1j * x[:, 3], x[:, 4], x[:, 5] + 1j * x[:, 6]


def calibrate() -> tuple[ConventionSwitch, dict]:
    """Search the finite switch set for the scalar-residual-annihilating one.

    The commutator switch is unobservable on scalar data (commutators
    vanish) and is left at its printed value; its effect is checked at the
    matrix level through mmkdv_rhs directly.
    """
    samples = _scalar_samples(np.random.default_rng(0))
    tw_winners, ss_winners = [], []
    for s_cubic in (1, -1):
        sw = ConventionSwitch(s_cubic=s_cubic)
        if np.max(tw_residual(*samples, sw)) < 1e-12:
            tw_winners.append(s_cubic)
    for s_z, s_linear in itertools.product((1, -1), (1.0, 2.0)):
        sw = ConventionSwitch(s_z=s_z, s_linear=s_linear)
        if np.max(ss_residual(*samples, sw)) < 1e-12:
            ss_winners.append((s_z, s_linear))
    if len(tw_winners) != 1 or len(ss_winners) != 1:
        raise CplabError(
            f"calibration not unique: tw={tw_winners}, ss={ss_winners}")
    chosen = ConventionSwitch(s_cubic=tw_winners[0], s_comm="UX_U",
                              s_z=ss_winners[0][0], s_linear=ss_winners[0][1])
    printed = ConventionSwitch()
    report = {
        "printed": {"s_cubic": printed.s_cubic, "s_comm": printed.s_comm,
                    "s_linear": printed.s_linear, "s_z": printed.s_z},
        "calibrated": {"s_cubic": chosen.s_cubic, "s_comm": chosen.s_comm,
                       "s_linear": chosen.s_linear, "s_z": chosen.s_z},
        "deviations_from_printed": sorted(
            name for name in ("s_cubic", "s_comm", "s_linear", "s_z")
            if getattr(chosen, name) != getattr(printed, name)),
    }
    return chosen, report


def switch_sensitivity(sw: ConventionSwitch) -> dict:
    """Worst residual after flipping each calibrated switch individually.

    s_cubic is probed through the travelling-wave residual, s_z / s_linear
    through the self-similar one (scalar data); s_comm through the direct
    matrix rhs on generic noncommuting input (scalar residuals cannot see
    it, since all commutators vanish for scalars).  Its samples come from
    seed 1, calibrate's from seed 0, so the two never share a sample.
    """
    rng = np.random.default_rng(1)
    samples = _scalar_samples(rng)
    out = {"s_cubic": float(np.max(tw_residual(*samples, replace(sw, s_cubic=-sw.s_cubic))))}
    for name, value in (("s_z", -sw.s_z),
                        ("s_linear", 3.0 - sw.s_linear)):
        out[name] = float(np.max(ss_residual(*samples, replace(sw, **{name: value}))))
    mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            for _ in range(4)]
    rhs = mmkdv_rhs(*mats, sw)
    out["s_comm"] = float(np.min(
        [np.abs(rhs - mmkdv_rhs(*mats, replace(sw, s_comm=alt))).max()
         for alt in COMM_CHOICES if alt != sw.s_comm]))
    return out


def deformation_check(sw: ConventionSwitch, samples) -> dict:
    """Scalar identity behind the 'speed-deformation' statement.

    The once-integrated self-similar inner ODE coincides with the
    travelling-wave inner ODE under the identification w = s_z * z plus
    absorption of the integration constant into theta.  Both sides are
    evaluated through their own closure implementations; the negative
    control skips the identification (w = z), which must fail whenever
    s_z = -1.  Its largest gap is reported, since a sample with small |z|
    has a small gap: w = z and w = -z then nearly agree.  samples are rows
    (v, p, z, C) of scalars, a sequence of tuples or an (N, 4) array; each
    closure is evaluated once, on the stack of all rows.
    """
    rows = list(samples)
    if any(np.ndim(row[0]) != 0 for row in rows):
        raise NonScalarInput("deformation check is a scalar identity")
    v, z, const = (np.array([row[k] for row in rows]) for k in (0, 2, 3))
    ss = ss_closure(v, z, const, sw)[..., 0, 0]
    deviations = np.abs(ss - tw_closure(v, sw.s_z * z, const)[..., 0, 0])
    gaps = np.abs(ss - tw_closure(v, z, const)[..., 0, 0])
    return {"max_deviation": float(np.max(deviations, initial=0.0)),
            "max_unidentified_gap": float(np.max(gaps, initial=0.0))}
