#!/usr/bin/env python3
"""Show the dual-slice confluence obstruction quantitatively.

Sweeps the coupling: the eigenbasis misalignment between p of the mapped
system and p of the source vanishes with g (decoupled particles) and for
the linear map at any g, but stays order-one for the full map at g = O(1).
"""
import argparse

from cplab.confluence import ConfluenceParams, dual_confluence_breakdown
from cplab.reduction import ReducedPoint, Slice


def demo(eps: float, theta: float):
    print(f"eps = {eps}, theta = {theta}")
    print(f"{'g':>8s}  {'misalign (full)':>16s}  {'naive dev (full)':>17s}  "
          f"{'misalign (linear)':>18s}")
    for g in (1.0, 0.3, 0.1, 0.03, 0.01):
        xd = ReducedPoint([0.3, 1.7], [-0.2, 0.6], g, 0.1, Slice.P_DIAG)
        full = dual_confluence_breakdown(xd, ConfluenceParams(eps, theta))
        lin = dual_confluence_breakdown(xd, ConfluenceParams(eps, theta, "conf1"))
        print(f"{g:8.3f}  {full['eigenbasis_misalignment']:16.3e}  "
              f"{full['naive_map_deviation']:17.3e}  "
              f"{lin['eigenbasis_misalignment']:18.3e}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--theta", type=float, default=0.5)
    args = ap.parse_args()
    demo(args.eps, args.theta)
