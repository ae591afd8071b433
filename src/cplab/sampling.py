"""Seeded generators for well-separated random states.

Positions sit on a jittered grid so collision guards never fire; level-set
points can be dressed by a random stabilizer conjugation (any G with v as
simultaneous left/right eigenvector preserves 1 - v^T v, hence the level
set), producing generic orbit representatives that are diagonal in neither
q nor p.
"""
from __future__ import annotations

import numpy as np

from .phase import MatrixPhasePoint, SystemKind, SystemSpec
from .reduction import ReducedPoint, Slice, embed, particle_guard

JITTER = 0.3  # half-width of the uniform position jitter about the grid


def random_particle_stacks(rng: np.random.Generator, sizes, spread: float = 1.5,
                           complex_positions: bool = True,
                           mom_scale: float = 1.0) -> dict:
    """{n: (positions, momenta)}: one random reduced point per entry of sizes.

    Trial k has sizes[k] particles.  The trials are drawn in order, each
    drawing, in this order, the real jitter, the imaginary jitter (complex
    positions only), then the real and imaginary momentum normals, so the
    generator moves exactly as under one one-trial call per trial.  A trial
    fills its row of a preallocated per-size array with one rng.random call
    for its jitter and one rng.standard_normal call for its momenta: the
    generator fills an array of 2n values as it would two arrays of n.  The
    draws are then formed as uniform and normal form theirs, low + (high -
    low) u and 0.0 + z (which maps a -0.0 draw to +0.0), so the values are
    bitwise those of per-trial uniform and normal calls.  The trials of
    each size n form one (trials of size n, n) stack, its rows in trial
    order, that passes the checks of a ReducedPoint; the keys are the sizes
    in increasing order.
    """
    if min(sizes, default=1) < 1:
        raise ValueError("a reduced point needs at least one particle")
    counts = dict.fromkeys(sorted(sizes), 0)
    for n in sizes:
        counts[n] += 1
    # per size, (trials, rows, n): the jitter rows (re, im) and the momentum rows (re, im)
    jitter_rows = 2 if complex_positions else 1
    uniform = {n: np.empty((c, jitter_rows, n)) for n, c in counts.items()}
    normal = {n: np.empty((c, 2, n)) for n, c in counts.items()}
    row = dict.fromkeys(counts, 0)
    for n in sizes:
        i = row[n]
        row[n] = i + 1
        rng.random(out=uniform[n][i])
        rng.standard_normal(out=normal[n][i])
    stacks = {}
    for n in counts:
        jit = -JITTER + (JITTER - -JITTER) * uniform[n]
        nrm = 0.0 + normal[n]
        im_jit = jit[:, 1] if complex_positions else np.zeros(n)
        pos = spread * np.arange(n) + jit[:, 0] + 1j * im_jit
        mom = mom_scale * (nrm[:, 0] + 1j * nrm[:, 1])
        particle_guard(pos, mom)
        stacks[n] = pos, mom
    return stacks


def random_particles(rng: np.random.Generator, trials: int,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """(positions, momenta) of `trials` random reduced points, each (trials, n).

    The one-size call of random_particle_stacks, with its default draw.
    """
    if n < 1:
        raise ValueError("a reduced point needs at least one particle")
    if trials < 0:
        raise ValueError(f"the trial count must be >= 0, got {trials}")
    if not trials:
        return np.zeros((0, n), dtype=complex), np.zeros((0, n), dtype=complex)
    return random_particle_stacks(rng, [n] * trials)[n]


def random_reduced(rng: np.random.Generator, n: int, g: float,
                   slice: Slice = Slice.Q_DIAG, t: float = 0.0,
                   spread: float = 1.5, complex_positions: bool = True,
                   mom_scale: float = 1.0) -> ReducedPoint:
    """One random reduced point: a one-trial draw of random_particle_stacks."""
    pos, mom = random_particle_stacks(rng, [n], spread, complex_positions, mom_scale)[n]
    return ReducedPoint(pos[0], mom[0], g, t, slice)


def stabilizer_element(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random G = exp(B) with B annihilated by v on both sides."""
    v = np.ones((n, 1))
    proj = np.eye(n) - (v @ v.T) / n
    B = proj @ (0.4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))) @ proj
    G = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 16):
        term = term @ B / k
        G = G + term
    return G


def random_level_set_point(rng: np.random.Generator, n: int, g: float,
                           t: float = 0.0) -> MatrixPhasePoint:
    """Generic point of the level set (neither q nor p diagonal for n > 1)."""
    x = random_reduced(rng, n, g, Slice.Q_DIAG, t)
    pt = embed(x)
    if n == 1:
        return pt
    G = stabilizer_element(rng, n)
    Gi = np.linalg.inv(G)
    return MatrixPhasePoint(Gi @ pt.q @ G, Gi @ pt.p @ G, t)


def spec_for(kind: SystemKind, tau: float | None = None) -> SystemSpec:
    """Generic nonzero parameters for each kind, autonomous exactly when tau is given."""
    params = {
        SystemKind.FREE: {},
        SystemKind.HARM_OSC: {"omega": 1.3},
        SystemKind.P_I: {},
        SystemKind.P_II: {"theta": 0.31 + 0.12j},
        SystemKind.P_II_POLY: {"theta": 0.27 - 0.09j},
        SystemKind.P_IV: {"theta0": 0.41 + 0.05j, "theta1": -0.63 + 0.21j},
    }[kind]
    return SystemSpec(kind, autonomous=tau is not None, tau=tau, **params)
