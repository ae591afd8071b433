"""Closed-form trace expansions for the Calogero Lax-type matrix.

Q = diag(d_i) + (1-delta_ij) i g / (x_i - x_j) is linear in g, and Tr Q^l
is an even polynomial in g of degree <= l.  The record of Q is a
ReducedPoint: its positions are the x_i, its momenta the d_i.  diag_c2,
tr_c3 and tr_c4 are the one closed form each of diag Q^2, Tr Q^3 and
Tr Q^4: the reduced and dual Hamiltonians read their traces from them,
each forming only the traces its kind reads, and brute-force matrix
powers serve as the oracle.  The l = 4 quartic block Tr(A^4) splits into
pair, triple and quadruple index classes; for each unordered triple all
three pinch choices contribute, and for each unordered quadruple all
three cyclic orders do.  The quadruple class sums to zero identically (see
CONVENTIONS.md): a4_quad_sum is kept as the witness of that cancellation
and enters no closed form.  Every other pair and triple sum contracts
W_ij = 1/(x_i - x_j)^2 and its row sums S = W.1
(reduction.inverse_square_kernel).
"""
from __future__ import annotations

import itertools

import numpy as np

from .phase import fill_diagonal, relative_deviation, row_dot
from .reduction import ReducedPoint, calogero_block, inverse_square_kernel, pair_differences


def trace_power_oracle(positions: np.ndarray, momenta: np.ndarray, g, l: int):
    """Tr(Q^l) by matrix powers, one value per row of the stacks (..., n).

    g is not checked, so a negative g is taken as given, and it broadcasts
    over the leading axes: one row at several couplings is one stack.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    g = np.asarray(g, dtype=float)[..., None, None]
    Q = fill_diagonal(calogero_block(pair_differences(positions), g), momenta)
    return np.trace(np.linalg.matrix_power(Q, l), axis1=-2, axis2=-1)


def a4_triple_sum(x: np.ndarray):
    """Triple class of Tr(A^4): 4 / (d_ab^2 d_ac^2) for each pinch a of each triple.

    Summed over ordered pairs b != c at each pinch a: 2 (S.S - sum W o W).
    x is (..., n), one value per row.
    """
    W = inverse_square_kernel(x)
    S = W.sum(axis=-1)
    return 2.0 * (row_dot(S, S) - (W * W).sum(axis=(-2, -1)))


def a4_quad_sum(x: np.ndarray):
    """Quadruple class of Tr(A^4): 8 / chain for each cyclic order of each 4-set.

    x is (..., n), one value per row.
    """
    def chain(a, b, c, d):
        return ((x[..., a] - x[..., b]) * (x[..., b] - x[..., c])
                * (x[..., c] - x[..., d]) * (x[..., d] - x[..., a]))

    total = np.zeros(x.shape[:-1], dtype=complex)
    for i, j, k, l in itertools.combinations(range(x.shape[-1]), 4):
        total += 8.0 * (1.0 / chain(i, j, k, l)
                        + 1.0 / chain(i, j, l, k)
                        + 1.0 / chain(i, k, j, l))
    return total


def a4_total(W: np.ndarray):
    """Tr(A^4) = 2 S.S - sum W o W: the pair and triple classes.

    Takes the kernel W = inverse_square_kernel(x) (..., n, n) that the
    caller holds.  The quadruple class is zero and left out.
    """
    S = W.sum(axis=-1)
    return 2.0 * row_dot(S, S) - (W * W).sum(axis=(-2, -1))


def diag_c2(d: np.ndarray, W: np.ndarray, g: float) -> np.ndarray:
    """diag C^2 = d^2 + g^2 S of C = diag(d) +- i g / (x_i - x_j).

    d is (..., n) and W = inverse_square_kernel(x) (..., n, n), built once
    by the caller; S = W.1.  This and the two traces below are even in g,
    so the sign of the off-diagonal block drops out and one kernel serves
    both slices; Tr C^2 is the sum of diag C^2.  The traces are (...), and
    their g may be a float or a (...) stack, one coupling per row.
    """
    return d * d + g ** 2 * W.sum(axis=-1)


def tr_c3(d: np.ndarray, W: np.ndarray, g: float):
    """Tr C^3 = sum d^3 + 3 g^2 d.S."""
    return (d ** 3).sum(axis=-1) + 3.0 * g ** 2 * row_dot(d, W.sum(axis=-1))


def tr_c4(d: np.ndarray, W: np.ndarray, g: float):
    """Tr C^4 = sum d^4 + 2 g^2 (2 d^2.S + d.W.d) + g^4 a4_total(W)."""
    S = W.sum(axis=-1)
    dWd = (d[..., None, :] @ W @ d[..., :, None])[..., 0, 0]
    return ((d ** 4).sum(axis=-1) + 2.0 * g ** 2 * (2.0 * row_dot(d * d, S) + dWd)
            + g ** 4 * a4_total(W))


def tr_q3_closed(x: ReducedPoint) -> complex:
    """Tr Q^3 = sum d_i^3 + 3 g^2 sum_{i<j} (d_i + d_j)/(x_i - x_j)^2, d the momenta."""
    return complex(tr_c3(x.momenta, inverse_square_kernel(x.positions), x.g))


def tr_q4_closed(x: ReducedPoint) -> complex:
    """Tr Q^4 = sum d^4 + 2 g^2 (2 d^2.S + d.W.d) + g^4 a4_total, d the momenta."""
    return complex(tr_c4(x.momenta, inverse_square_kernel(x.positions), x.g))


def evenness_check(x: ReducedPoint, l: int, g_values) -> dict:
    """Verify Tr Q^l(g) = Tr Q^l(-g) and the absence of odd powers of g.

    Fits a degree-l polynomial in g through 2(l + 3) sampled couplings and
    compares odd against even coefficients.  The sample grid is symmetric
    about zero: with a symmetric design the fitted odd coefficients depend
    only on the antisymmetric part of the data, which keeps the Vandermonde
    conditioning out of the verdict.  The oracle takes g_values, their
    negatives and the fit's couplings as one stack.
    """
    if l > 12:
        raise ValueError("evenness check is desk-scale only (l <= 12)")
    g_values = np.asarray(g_values, dtype=float)
    half = np.linspace(0.35, 1.25, l + 3)
    gs = np.concatenate([-half[::-1], half])
    k = len(g_values)
    traces = trace_power_oracle(x.positions, x.momenta,
                                np.concatenate([g_values, -g_values, gs]), l)
    plus, minus, vals = traces[:k], traces[k:2 * k], traces[2 * k:]
    sym_dev = relative_deviation(minus, plus).max(initial=0.0)
    V = np.vander(gs, l + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(V, vals, rcond=None)
    even = np.abs(coeffs[0::2]).max()
    odd = np.abs(coeffs[1::2]).max()
    return {
        "l": l,
        "symmetry_deviation": float(sym_dev),
        "max_even_coeff": float(even),
        "max_odd_coeff": float(odd),
        "odd_over_even": float(odd / even) if even != 0 else 0.0,
    }
