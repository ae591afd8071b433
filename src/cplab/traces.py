"""Closed-form trace expansions for the Calogero Lax-type matrix.

Q = diag(d_i) + (1-delta_ij) i g / (x_i - x_j) is linear in g, and Tr Q^l
is an even polynomial in g of degree <= l.  Closed forms are provided for
l = 3, 4; brute-force matrix powers serve as the oracle.  The l = 4
quartic block Tr(A^4) splits into pair, triple and quadruple index
classes; for each unordered triple all three pinch choices contribute, and
for each unordered quadruple all three cyclic orders do.  The quadruple
class sums to zero identically (see CONVENTIONS.md): a4_quad_sum is kept
as the witness of that cancellation and enters no closed form.  Every other
pair and triple sum contracts W_ij = 1/(x_i - x_j)^2 and its row sums
S = W.1 (reduction.inverse_square_kernel).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .phase import coupling_value
from .reduction import calogero_block, collision_guard, inverse_square_kernel


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
    return np.diag(spec.diag) + calogero_block(spec.denom, gv)


def trace_power_oracle(spec: CalogeroMatrixSpec, l: int, g: float | None = None) -> complex:
    """Tr(Q^l) by repeated matrix multiplication."""
    if l < 1:
        raise ValueError("l must be >= 1")
    return complex(np.trace(np.linalg.matrix_power(assemble(spec, g), l)))


def a4_pair_sum(x: np.ndarray) -> complex:
    """Pair class of Tr(A^4): sum over i<j of 2 / (x_i - x_j)^4 = sum W o W."""
    W = inverse_square_kernel(x)
    return complex((W * W).sum())


def a4_triple_sum(x: np.ndarray) -> complex:
    """Triple class of Tr(A^4): 4 / (d_ab^2 d_ac^2) for each pinch a of each triple.

    Summed over ordered pairs b != c at each pinch a: 2 (S.S - sum W o W).
    """
    W = inverse_square_kernel(x)
    S = W.sum(axis=1)
    return complex(2.0 * (S @ S - (W * W).sum()))


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
    """Tr(A^4) = 2 S.S - sum W o W: the pair and triple classes.

    The quadruple class is zero and left out.
    """
    W = inverse_square_kernel(x)
    S = W.sum(axis=1)
    return complex(2.0 * (S @ S) - (W * W).sum())


def tr_q3_closed(spec: CalogeroMatrixSpec) -> complex:
    """Tr Q^3 = sum d_i^3 + 3 g^2 sum_{i<j} (d_i + d_j)/(x_i - x_j)^2.

    The pair sum is d.S.
    """
    d, g = spec.diag, spec.g
    S = inverse_square_kernel(spec.denom).sum(axis=1)
    return complex(np.sum(d ** 3) + 3.0 * g ** 2 * (d @ S))


def tr_q4_closed(spec: CalogeroMatrixSpec) -> complex:
    """Tr Q^4 = sum d^4 + 2 g^2 (2 d^2.S + d.W.d) + g^4 a4_total."""
    d, x, g = spec.diag, spec.denom, spec.g
    W = inverse_square_kernel(x)
    tr_d2a2 = (d * d) @ W.sum(axis=1)
    tr_dada = d @ W @ d
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
