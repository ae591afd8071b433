#!/usr/bin/env python3
"""Scan spectral duality across kinds and particle numbers.

For each kind and n, draws a generic level-set point (diagonal in neither
q nor p), reduces it at both slices, and prints the spectral_match
deviation between the unreduced, reduced, and dual Lax matrices over the
default 20-point lambda grid: the largest |Tr A_a^k - Tr A_b^k|, k = 1..2n,
with A = L / s and s the larger row-sum norm of the two sides, at roundoff
for exact dualities.
"""
import argparse

import numpy as np

from cplab.lax import spectral_duality
from cplab.sampling import random_level_set_point, spec_for
from cplab.selfcheck import FOUR_KINDS


def scan(seed: int, g: float, ns):
    rng = np.random.default_rng(seed)
    print(f"{'kind':10s} {'n':>2s}  unred/red    unred/dual   red/dual")
    for kind in FOUR_KINDS:
        spec = spec_for(kind, tau=1.0)
        for n in ns:
            devs = spectral_duality(spec, random_level_set_point(rng, n, g), g)
            print(f"{kind.value:10s} {n:2d}  "
                  + "  ".join(f"{d:.3e}" for d in devs.values()))


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--g", type=float, default=1.0)
    ap.add_argument("--n", type=int, nargs="+", default=[2, 3, 4, 5])
    args = ap.parse_args()
    scan(args.seed, args.g, args.n)
