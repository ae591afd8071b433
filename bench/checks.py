"""Correctness checks computed apart from the program.

Every function here takes plain arrays (outputs of the program, or inputs the
benchmark generated) and returns a measured deviation; the workloads compare
it against a tolerance.  Nothing here calls into cplab, so a fault in the
program cannot hide itself by also corrupting the check.
"""
from __future__ import annotations

import numpy as np


def matched_distance(a, b) -> float:
    """Max-norm distance between two equal-length vectors up to permutation.

    Pairs are matched greedily by smallest remaining distance over all pairs,
    so a duplicated or missing value cannot hide behind a near neighbour.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        raise ValueError("matched_distance needs equal-length vectors")
    dist = np.abs(a[:, None] - b[None, :])
    worst = 0.0
    for _ in range(a.size):
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        worst = max(worst, float(dist[i, j]))
        dist[i, :] = np.inf
        dist[:, j] = np.inf
    return worst


def relative_matched_distance(a, b) -> float:
    """matched_distance relative to 1 + the largest magnitude in a."""
    scale = 1.0 + float(np.abs(np.asarray(a)).max(initial=0.0))
    return matched_distance(a, b) / scale


def calogero_pair(positions, momenta, g: float, q_slice: bool):
    """The slice-diagonal level-set representative (q, p) of a reduced point.

    q-slice: q = diag(x), p = diag(y) + i g / (x_i - x_j) off the diagonal;
    p-slice: p = diag(x), q = diag(y) - i g / (x_i - x_j) off the diagonal.
    """
    x = np.asarray(positions, dtype=complex)
    y = np.asarray(momenta, dtype=complex)
    n = x.size
    diff = x[:, None] - x[None, :] + np.eye(n)
    off = (1j if q_slice else -1j) * g / diff
    np.fill_diagonal(off, 0.0)
    resolved = np.diag(y) + off
    return (np.diag(x), resolved) if q_slice else (resolved, np.diag(x))


def stabilizer_conjugator(rng: np.random.Generator, n: int, scale: float):
    """A random G with G v^T = v^T and v G = v for v = (1, ..., 1), and G^-1.

    G is a truncated exponential of B = P X P with P = 1 - v^T v / n; every
    power of B annihilates v on both sides, so G commutes with v^T v and
    conjugating a level-set point by G keeps it on the level set.
    """
    proj = np.eye(n) - np.ones((n, n)) / n
    B = proj @ (scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))) @ proj
    G = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 24):
        term = term @ B / k
        G = G + term
    return G, np.linalg.inv(G)


def level_set_deviation(q, p, g: float) -> float:
    """Max-norm of [p, q] - i g (1 - v^T v)."""
    n = q.shape[0]
    target = np.full((n, n), -1j * g)
    np.fill_diagonal(target, 0.0)
    return float(np.abs(p @ q - q @ p - target).max())


def trace_hamiltonian(kind: str, q, p, tau: float, theta: complex = 0.0) -> complex:
    """Tr H of the autonomous matrix systems the flow workload integrates."""
    pp = np.trace(p @ p) / 2
    if kind == "Free":
        return complex(pp)
    if kind == "P_I":
        return complex(pp - np.trace(q @ q @ q) / 2 - (tau / 4) * np.trace(q))
    if kind == "P_II":
        w = q @ q + (tau / 2) * np.eye(q.shape[0])
        return complex(pp - np.trace(w @ w) / 2 - theta * np.trace(q))
    raise ValueError(f"no trace Hamiltonian for {kind!r}")


def relative_change(a: complex, b: complex) -> float:
    return abs(b - a) / max(1.0, abs(a))


def scaled_power_traces(L, r: float) -> np.ndarray:
    """tr((L/r)^k) for k = 1 .. dim L."""
    M = np.asarray(L, dtype=complex) / r
    out = np.empty(M.shape[0], dtype=complex)
    P = np.eye(M.shape[0], dtype=complex)
    for k in range(M.shape[0]):
        P = P @ M
        out[k] = np.trace(P)
    return out


def power_trace_deviation(La, Lb) -> float:
    """Largest difference of scaled power traces of two equal-size matrices.

    Both are scaled by the larger spectral norm, so every eigenvalue of the
    scaled matrices lies in the unit disc and each trace is bounded by the
    dimension: the deviation stays at roundoff for isospectral matrices at any
    size, unlike characteristic-polynomial coefficients.
    """
    La = np.asarray(La, dtype=complex)
    Lb = np.asarray(Lb, dtype=complex)
    if La.shape != Lb.shape:
        raise ValueError("power traces compare matrices of one size")
    r = max(np.linalg.norm(La, 2), np.linalg.norm(Lb, 2), 1e-300)
    return float(np.abs(scaled_power_traces(La, r) - scaled_power_traces(Lb, r)).max())
