"""Unreduced matrix phase space: points, parameters, moment map, pairing.

The phase space is a pair of n x n complex matrices (q, p) with symplectic
form Tr dp ^ dq.  GL(n) acts by simultaneous conjugation; its moment map is
the commutator [p, q], and the Calogero-type level set fixes

    [p, q] = i g (1 - v^T v),   v = (1, ..., 1),

whose right-hand side has zeros on the diagonal and -i g elsewhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch


def _as_square_complex(m, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_time(t) -> float | complex:
    """A real time as a float; complex times serve the confluence identity.

    ValueError if the real or the imaginary part is not finite.
    """
    t = complex(t)
    # math, not cmath: numpy has imported math already, while cmath would load
    # an extension module for this one test
    if not (math.isfinite(t.real) and math.isfinite(t.imag)):
        raise ValueError(f"time must be finite, got {t}")
    return t if t.imag else t.real


@dataclass(frozen=True)
class MatrixPhasePoint:
    """A point (q, p) of gl(n) x gl(n) together with the Painlevé time t."""

    q: np.ndarray
    p: np.ndarray
    t: float | complex = 0.0

    def __post_init__(self):
        q = _as_square_complex(self.q, "q")
        p = _as_square_complex(self.p, "p")
        if q.shape != p.shape:
            raise DimensionMismatch(f"q has shape {q.shape}, p has shape {p.shape}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "t", as_time(self.t))

    @property
    def n(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True)
class TangentPair:
    """Tangent vector (dq, dp) at a matrix phase point."""

    dq: np.ndarray
    dp: np.ndarray

    def __post_init__(self):
        dq = _as_square_complex(self.dq, "dq")
        dp = _as_square_complex(self.dp, "dp")
        if dq.shape != dp.shape:
            raise DimensionMismatch("dq and dp must share a shape")
        object.__setattr__(self, "dq", dq)
        object.__setattr__(self, "dp", dp)


def coupling_value(g) -> float:
    """The Calogero coupling g as a float, checked finite and positive."""
    g = float(g)
    if not np.isfinite(g) or g <= 0:
        raise ValueError(f"coupling must be finite and positive, got {g}")
    return g


class SystemKind(Enum):
    P_I = "P_I"
    P_II = "P_II"
    P_II_POLY = "P_II_poly"
    P_IV = "P_IV"
    HARM_OSC = "HarmOsc"
    FREE = "Free"


@dataclass(frozen=True)
class SystemSpec:
    """Which Hamiltonian system, with its parameter record.

    Parameters not used by `kind` are stored but ignored.  Autonomous forms
    freeze the time dependence at tau.  The theta parameters may be stacks
    (k,) that broadcast over the leading axis of a stack of points, as the
    P_IV images of a stack of confluence parameters need.
    """

    kind: SystemKind
    autonomous: bool = False
    theta: complex = 0.0      # P_II / P_II_poly linear coefficient
    theta0: complex = 0.0     # P_IV
    theta1: complex = 0.0     # P_IV
    tau: float | None = None  # frozen time for autonomous forms
    omega: float = 1.0        # harmonic oscillator frequency

    def __post_init__(self):
        if self.autonomous and self.tau is None:
            raise ValueError("autonomous systems require tau")
        for name in ("theta", "theta0", "theta1"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if self.tau is not None and not np.isfinite(self.tau):
            raise ValueError("tau must be finite")
        if self.kind is SystemKind.HARM_OSC and not np.isfinite(self.omega):
            raise ValueError("omega must be finite")

    def time(self, t: float) -> float:
        """Effective time entering Hamiltonians and Lax matrices."""
        return self.tau if self.autonomous else t


def fill_diagonal(a: np.ndarray, value) -> np.ndarray:
    """Set the diagonal of each matrix of the stack a (..., n, n) in place.

    value is a scalar or the diagonal entries (..., n).  Returns a.
    """
    if a.ndim == 2:  # einsum's view is several times slower per call at small n
        a.flat[:: a.shape[-1] + 1] = value
    else:
        np.einsum("...ii->...i", a)[...] = value
    return a


def add_to_diagonal(a: np.ndarray, s) -> np.ndarray:
    """a + s * 1 in place on each matrix of the stack a (..., n, n); returns a.

    s is a scalar or broadcasts over the leading axes.  Adding s * eye(n)
    would change the off-diagonal entries by an exact 0 only.
    """
    if a.ndim == 2:  # einsum's view is several times slower per call at small n
        a.flat[:: a.shape[-1] + 1] += s
    else:
        np.einsum("...ii->...i", a)[...] += np.asarray(s)[..., None]
    return a


def row_dot(a: np.ndarray, b: np.ndarray):
    """sum_i a_i b_i of each row of the stacks (..., n), unconjugated.

    A matrix product, so one row rounds exactly as the vector product a @ b.
    """
    if a.ndim == 1:  # the stacked product is several times slower per call at small n
        return a @ b
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def moment_map(pt: MatrixPhasePoint) -> np.ndarray:
    """mu = [p, q] = p q - q p; traceless by construction."""
    return pt.p @ pt.q - pt.q @ pt.p


def level_set_target(n: int, g) -> np.ndarray:
    """i g (1 - v^T v): zero diagonal, -i g off the diagonal."""
    if n < 1:
        raise ValueError("n must be >= 1")
    gv = coupling_value(g)
    target = np.full((n, n), -1j * gv, dtype=complex)
    np.fill_diagonal(target, 0.0)
    return target


def moment_deviation(q: np.ndarray, p: np.ndarray, g=None):
    """max |[p, q] - i g (1 - v^T v)| of each point of the stack (..., n, n).

    Without g the target is 0.  One point gives a numpy scalar.
    """
    mu = p @ q - q @ p
    if g is not None:
        mu -= level_set_target(q.shape[-1], g)
    return np.abs(mu).max(axis=(-2, -1))


def symplectic_pairing(u: TangentPair, w: TangentPair) -> complex:
    """omega(u, w) = Tr(dp_u dq_w) - Tr(dp_w dq_u)."""
    if u.dq.shape != w.dq.shape:
        raise DimensionMismatch("tangent pairs live at different dimensions")
    return complex(np.trace(u.dp @ w.dq) - np.trace(w.dp @ u.dq))
