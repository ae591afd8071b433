"""Closed-form trace expansions for the Calogero Lax-type matrix.

Q = diag(d_i) + (1-delta_ij) i g / (x_i - x_j) is linear in g, and Tr Q^l
is an even polynomial in g of degree <= l.  Closed forms are provided for
l = 3, 4; brute-force matrix powers serve as the oracle.  The l = 4
quartic block Tr(A^4) splits into pair, triple and quadruple index
classes; for each unordered triple all three pinch choices contribute, and
for each unordered quadruple all three cyclic orders do.  The quadruple
class sums to zero identically (see CONVENTIONS.md): a4_quad_sum is kept
as the witness of that cancellation and enters no closed form.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .phase import coupling_value
from .reduction import collision_guard


@dataclass(frozen=True)
class CalogeroMatrixSpec:
    """Diagonal entries, off-diagonal denominators, and the coupling."""

    diag: np.ndarray
    denom: np.ndarray
    g: float

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.diag, dtype=complex))
        x = np.atleast_1d(np.asarray(self.denom, dtype=complex))
        if d.shape != x.shape or d.ndim != 1:
            raise ValueError("diag and denom must be equal-length vectors")
        collision_guard(x)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "denom", x)
        object.__setattr__(self, "g", coupling_value(self.g))

    @property
    def n(self) -> int:
        return self.diag.shape[0]


def assemble(spec: CalogeroMatrixSpec, g: float | None = None) -> np.ndarray:
    """The matrix Q; an explicit g overrides the stored coupling."""
    gv = spec.g if g is None else float(g)
    n = spec.n
    Q = np.diag(spec.diag).astype(complex)
    if n > 1:
        diff = spec.denom[:, None] - spec.denom[None, :] + np.eye(n)
        off = 1j * gv / diff
        np.fill_diagonal(off, 0.0)
        Q = Q + off
    return Q


def trace_power_oracle(spec: CalogeroMatrixSpec, l: int, g: float | None = None) -> complex:
    """Tr(Q^l) by repeated matrix multiplication."""
    if l < 1:
        raise ValueError("l must be >= 1")
    return complex(np.trace(np.linalg.matrix_power(assemble(spec, g), l)))


def _pair_diffs(x: np.ndarray):
    n = x.size
    for i, j in itertools.combinations(range(n), 2):
        yield i, j, x[i] - x[j]


def a4_pair_sum(x: np.ndarray) -> complex:
    """Pair class of Tr(A^4): sum over i<j of 2 / (x_i - x_j)^4."""
    return sum(2.0 / d ** 4 for _, _, d in _pair_diffs(x))


def a4_triple_sum(x: np.ndarray) -> complex:
    """Triple class of Tr(A^4): 4 / (d_ab^2 d_ac^2) for each pinch a of each triple."""
    total = 0.0 + 0.0j
    for i, j, k in itertools.combinations(range(x.size), 3):
        dij, dik, djk = x[i] - x[j], x[i] - x[k], x[j] - x[k]
        total += 4.0 * (1.0 / (dij ** 2 * dik ** 2)
                        + 1.0 / (dij ** 2 * djk ** 2)
                        + 1.0 / (dik ** 2 * djk ** 2))
    return total


def a4_quad_sum(x: np.ndarray) -> complex:
    """Quadruple class of Tr(A^4): 8 / chain for each cyclic order of each 4-set."""
    def chain(a, b, c, d):
        return ((x[a] - x[b]) * (x[b] - x[c]) * (x[c] - x[d]) * (x[d] - x[a]))

    total = 0.0 + 0.0j
    for i, j, k, l in itertools.combinations(range(x.size), 4):
        total += 8.0 * (1.0 / chain(i, j, k, l)
                        + 1.0 / chain(i, j, l, k)
                        + 1.0 / chain(i, k, j, l))
    return total


def a4_total(x: np.ndarray) -> complex:
    """Tr(A^4): the pair and triple classes (the quadruple class is zero)."""
    return a4_pair_sum(x) + a4_triple_sum(x)


def pairwise_inverse_square_sum(x: np.ndarray) -> complex:
    """Sum over i<j of 1/(x_i - x_j)^2 (the Tr(A^2)/2 block)."""
    return sum(1.0 / d ** 2 for _, _, d in _pair_diffs(x))


def tr_q3_closed(spec: CalogeroMatrixSpec) -> complex:
    """Tr Q^3 = sum d_i^3 + 3 g^2 sum_{i<j} (d_i + d_j)/(x_i - x_j)^2."""
    d, x, g = spec.diag, spec.denom, spec.g
    inter = sum((d[i] + d[j]) / dd ** 2 for i, j, dd in _pair_diffs(x))
    return complex(np.sum(d ** 3) + 3.0 * g ** 2 * inter)


def tr_q4_closed(spec: CalogeroMatrixSpec) -> complex:
    """Tr Q^4 with the quartic block a4_total."""
    d, x, g = spec.diag, spec.denom, spec.g
    tr_d2a2 = sum((d[i] ** 2 + d[j] ** 2) / dd ** 2 for i, j, dd in _pair_diffs(x))
    tr_dada = sum(2.0 * d[i] * d[j] / dd ** 2 for i, j, dd in _pair_diffs(x))
    return complex(np.sum(d ** 4) + 2.0 * g ** 2 * (2.0 * tr_d2a2 + tr_dada)
                   + g ** 4 * a4_total(x))


def evenness_check(spec: CalogeroMatrixSpec, l: int, g_values) -> dict:
    """Verify Tr Q^l(g) = Tr Q^l(-g) and the absence of odd powers of g.

    Fits a degree-l polynomial in g through 2(l + 3) sampled couplings and
    compares odd against even coefficients.  The sample grid is symmetric
    about zero: with a symmetric design the fitted odd coefficients depend
    only on the antisymmetric part of the data, which keeps the Vandermonde
    conditioning out of the verdict.
    """
    if l > 12:
        raise ValueError("evenness check is desk-scale only (l <= 12)")
    sym_dev = 0.0
    for gv in g_values:
        plus = trace_power_oracle(spec, l, g=gv)
        minus = trace_power_oracle(spec, l, g=-gv)
        sym_dev = max(sym_dev, abs(plus - minus) / max(1.0, abs(plus)))

    half = np.linspace(0.35, 1.25, l + 3)
    gs = np.concatenate([-half[::-1], half])
    vals = np.array([trace_power_oracle(spec, l, g=gv) for gv in gs])
    V = np.vander(gs, l + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(V, vals, rcond=None)
    even = np.abs(coeffs[0::2]).max()
    odd = np.abs(coeffs[1::2]).max() if l >= 1 else 0.0
    return {
        "l": l,
        "symmetry_deviation": float(sym_dev),
        "max_even_coeff": float(even),
        "max_odd_coeff": float(odd),
        "odd_over_even": float(odd / even) if even > 0 else 0.0,
    }
