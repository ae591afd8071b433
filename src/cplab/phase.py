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
    if a.shape[0] == 0:
        raise ValueError(f"{name} is 0 x 0: a point needs at least one particle")
    return finite_matrix(a, name)


def finite_matrix(a: np.ndarray, name: str) -> np.ndarray:
    """a, once every entry is finite; else ValueError naming it."""
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


# the members as module globals: the kind dispatch of the formulas reads a
# global several times faster than an Enum attribute
P_I, P_II, P_II_POLY, P_IV, HARM_OSC, FREE = (
    SystemKind.P_I, SystemKind.P_II, SystemKind.P_II_POLY, SystemKind.P_IV,
    SystemKind.HARM_OSC, SystemKind.FREE)


@dataclass(frozen=True)
class SystemSpec:
    """Which Hamiltonian system, with its parameter record.

    Parameters not used by `kind` are stored but ignored.  Autonomous forms,
    and they alone, freeze the time at tau.  The theta parameters may be
    stacks (k,) that broadcast over the leading axis of a stack of points,
    as the P_IV images of a stack of confluence parameters need.
    """

    kind: SystemKind
    autonomous: bool = False
    theta: complex = 0.0      # P_II / P_II_poly linear coefficient
    theta0: complex = 0.0     # P_IV
    theta1: complex = 0.0     # P_IV
    tau: float | None = None  # frozen time for autonomous forms
    omega: float = 1.0        # harmonic oscillator frequency

    def __post_init__(self):
        if self.autonomous != (self.tau is not None):
            raise ValueError("tau is given exactly when the system is autonomous")
        for name in ("theta", "theta0", "theta1"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if self.tau is not None and not np.isfinite(self.tau):
            raise ValueError("tau must be finite")
        if self.kind is SystemKind.HARM_OSC and not np.isfinite(self.omega):
            raise ValueError("omega must be finite")

    def time(self, t: float) -> float:
        """The time the formulas read: tau for autonomous forms, else t."""
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
    would change the off-diagonal entries by an exact 0 only.  A C-contiguous
    matrix adds through one strided view of its buffer.
    """
    if a.ndim == 2:  # einsum's view is several times slower per call at small n
        if a.flags.c_contiguous:  # a.flat indexes through a slower iterator
            a.reshape(-1)[:: a.shape[-1] + 1] += s
        else:
            a.flat[:: a.shape[-1] + 1] += s
    else:
        np.einsum("...ii->...i", a)[...] += np.asarray(s)[..., None]
    return a


def row_dot(a: np.ndarray, b: np.ndarray):
    """sum_i a_i b_i of each row of the stacks (..., n), unconjugated.

    A matrix product, so one row rounds exactly as the vector product a @ b.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def relative_deviation(a, b):
    """|a - b| / max(1, |b|) entry by entry: b is the reference, and NaN stays NaN."""
    return np.abs(a - b) / np.maximum(1.0, np.abs(b))


def moment_map(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """mu = [p, q] = p q - q p of each point of the stack (..., n, n).

    Traceless by construction; one point gives one matrix.
    """
    return p @ q - q @ p


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
    mu = moment_map(q, p)
    if g is not None:
        mu -= level_set_target(q.shape[-1], g)
    return np.abs(mu).max(axis=(-2, -1))


def symplectic_pairing(u: tuple, w: tuple) -> complex:
    """omega(u, w) = Tr(dp_u dq_w) - Tr(dp_w dq_u) of tangent vectors (dq, dp)."""
    (dq_u, dp_u), (dq_w, dp_w) = u, w
    if dq_u.shape != dq_w.shape:
        raise DimensionMismatch("tangent vectors live at different dimensions")
    return complex(np.trace(dp_u @ dq_w) - np.trace(dp_w @ dq_u))
