"""Matrix mKdV reductions: pointwise residual evaluators with convention switches.

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


def _as_matrix(u, name: str) -> np.ndarray:
    a = np.asarray(u, dtype=complex)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square")
    return a


def mmkdv_rhs(u, u_x, u_xx, u_xxx, sw: ConventionSwitch) -> np.ndarray:
    """u_xxx + 3 * (selected commutator) + s_cubic * 6 u u_x u."""
    u, u_x, u_xx, u_xxx = (_as_matrix(m, n) for m, n in
                           zip((u, u_x, u_xx, u_xxx), ("u", "u_x", "u_xx", "u_xxx")))
    if sw.s_comm == "UX_U":
        comm = u_x @ u - u @ u_x
    elif sw.s_comm == "U_UXX":
        comm = u @ u_xx - u_xx @ u
    else:
        comm = np.zeros_like(u)
    return u_xxx + 3.0 * comm + sw.s_cubic * 6.0 * (u @ u_x @ u)


def tw_closure(v: np.ndarray, wave_speed: complex, theta: complex) -> np.ndarray:
    """Travelling-wave inner ODE: v_zz = 2 v^3 + w v + theta."""
    I = np.eye(v.shape[0], dtype=complex)
    return 2.0 * v @ v @ v + wave_speed * v + theta * I


def ss_closure(v: np.ndarray, z: float, const: complex,
               sw: ConventionSwitch) -> np.ndarray:
    """Self-similar inner ODE after one integration: v_zz = 2 v^3 + s_z z v + C."""
    I = np.eye(v.shape[0], dtype=complex)
    return 2.0 * v @ v @ v + sw.s_z * z * v + const * I


def _cubic_derivative(v, p):
    """d/dz of v^3 along v_z = p, in matrix order."""
    return p @ v @ v + v @ p @ v + v @ v @ p


def tw_residual(v, p, z_speed: complex, theta: complex,
                sw: ConventionSwitch) -> float:
    """Pointwise travelling-wave check; returns |w p - rhs|_max under the
    closure v_zz = tw_closure(v, w, theta)."""
    v = _as_matrix(v, "v")
    p = _as_matrix(p, "p")
    v_zz = tw_closure(v, z_speed, theta)
    v_zzz = 2.0 * _cubic_derivative(v, p) + z_speed * p
    res = z_speed * p - mmkdv_rhs(v, p, v_zz, v_zzz, sw)
    return float(np.abs(res).max())


def ss_residual(v, p, z: float, theta: complex, sw: ConventionSwitch) -> float:
    """Self-similar form v_zzz + 3[v, v_zz] - 6 v v_z v + s_linear (z v)_z,
    closed by ss_closure; returns the max-norm."""
    v = _as_matrix(v, "v")
    p = _as_matrix(p, "p")
    v_zz = ss_closure(v, z, theta, sw)
    v_zzz = 2.0 * _cubic_derivative(v, p) + sw.s_z * (v + z * p)
    lhs = (v_zzz + 3.0 * (v @ v_zz - v_zz @ v) - 6.0 * (v @ p @ v)
           + sw.s_linear * (v + z * p))
    return float(np.abs(lhs).max())


def _scalar_samples(rng):
    for _ in range(SCALAR_SAMPLES):
        v, p = rng.normal(size=2) + 1j * rng.normal(size=2)
        z = float(rng.normal())
        th = complex(rng.normal() + 1j * rng.normal())
        yield v, p, z, th


def calibrate() -> tuple[ConventionSwitch, dict]:
    """Search the finite switch set for the scalar-residual-annihilating one.

    The commutator switch is unobservable on scalar data (commutators
    vanish) and is left at its printed value; its effect is checked at the
    matrix level through mmkdv_rhs directly.
    """
    rng = np.random.default_rng(0)
    samples = list(_scalar_samples(rng))
    tw_winners, ss_winners = [], []
    for s_cubic in (1, -1):
        sw = ConventionSwitch(s_cubic=s_cubic)
        if np.max([tw_residual(v, p, z, th, sw) for v, p, z, th in samples]) < 1e-12:
            tw_winners.append(s_cubic)
    for s_z, s_linear in itertools.product((1, -1), (1.0, 2.0)):
        sw = ConventionSwitch(s_z=s_z, s_linear=s_linear)
        if np.max([ss_residual(v, p, z, th, sw) for v, p, z, th in samples]) < 1e-12:
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
    samples = list(_scalar_samples(rng))
    out = {}
    flipped = replace(sw, s_cubic=-sw.s_cubic)
    out["s_cubic"] = float(np.max([tw_residual(v, p, z, th, flipped)
                                   for v, p, z, th in samples]))
    for name, value in (("s_z", -sw.s_z),
                        ("s_linear", 3.0 - sw.s_linear)):
        flipped = replace(sw, **{name: value})
        out[name] = float(np.max([ss_residual(v, p, z, th, flipped)
                                  for v, p, z, th in samples]))
    mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            for _ in range(4)]
    alternatives = [c for c in COMM_CHOICES if c != sw.s_comm]
    out["s_comm"] = float(np.min(
        [np.abs(mmkdv_rhs(*mats, sw) - mmkdv_rhs(*mats, replace(sw, s_comm=alt))).max()
         for alt in alternatives]))
    return out


def deformation_check(sw: ConventionSwitch, samples) -> dict:
    """Scalar identity behind the 'speed-deformation' statement.

    The once-integrated self-similar inner ODE coincides with the
    travelling-wave inner ODE under the identification w = s_z * z plus
    absorption of the integration constant into theta.  Both sides are
    evaluated through their own closure implementations; the negative
    control skips the identification (w = z), which must fail whenever
    s_z = -1.  Its largest gap is reported, since a sample with small |z|
    has a small gap: w = z and w = -z then nearly agree.
    """
    deviations, gaps = [], []
    for v, _p, z, const in samples:
        if np.ndim(v) != 0:
            raise NonScalarInput("deformation check is a scalar identity")
        vm = np.array([[v]], dtype=complex)
        ss = ss_closure(vm, z, const, sw)[0, 0]
        tw = tw_closure(vm, sw.s_z * z, const)[0, 0]
        deviations.append(abs(ss - tw))
        gaps.append(abs(ss - tw_closure(vm, z, const)[0, 0]))
    return {"max_deviation": float(np.max(deviations, initial=0.0)),
            "max_unidentified_gap": float(np.max(gaps, initial=0.0))}
