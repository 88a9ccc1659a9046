#!/usr/bin/env python3
"""Sweep all three integrable-system presets over the supported Weyl fleet.

Prints one row per group with the computed Cartan-representation Prym
dimension next to the expected value for each preset. Everything is
exact; a MISMATCH anywhere is a bug.

Usage: python scripts/fleet_report.py [--genus G] [--degD D]

A genus or degD outside the presets' regime (genus < 2, degD < 0) is
refused before any row is printed, with one error line and exit code 2.
"""

import argparse
import sys
import time

from prymdim.errors import OutOfRegime
from prymdim.rhprym import isotypic_dims_solve, prym_dim_formula
from prymdim.weyl import (
    SUPPORTED,
    expected_base_dim,
    hitchin_preset,
    markman_preset,
    toda_preset,
    weyl_group,
)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--genus", type=int, default=2, help="base genus for hitchin/markman")
    ap.add_argument("--degD", dest="deg_d", type=int, default=2, help="twist degree for markman")
    args = ap.parse_args()

    fleet = [(letter, rank) for letter in "ABCDGF" for rank in SUPPORTED[letter]]
    # the presets' regime does not depend on the group: refuse an
    # out-of-regime genus or degD on the first one, before any row
    try:
        first = weyl_group(*fleet[0])
        hitchin_preset(first, args.genus)
        markman_preset(first, args.genus, args.deg_d)
    except OutOfRegime as exc:
        print(f"error: OutOfRegime: {exc}", file=sys.stderr)
        return 2
    header = (
        f"{'group':>6} {'|W|':>6} {'N':>3} {'dimG':>5} "
        f"{'toda':>10} {'hitchin':>12} {'markman':>12} {'time':>7}"
    )
    print(header)
    print("-" * len(header))
    bad = 0
    for letter, rank in fleet:
        t0 = time.monotonic()
        W = weyl_group(letter, rank)
        rr = W.reflection_rep

        toda = prym_dim_formula(toda_preset(W), rr)
        toda_s = f"{toda}={W.rank}" + ("" if toda == W.rank else " MISMATCH")

        hit = isotypic_dims_solve(hitchin_preset(W, args.genus))[rr]
        hit_want = expected_base_dim(W, args.genus)
        hit_s = f"{hit}={hit_want}" + ("" if hit == hit_want else " MISMATCH")

        mark = isotypic_dims_solve(markman_preset(W, args.genus, args.deg_d))[rr]
        mark_want = expected_base_dim(W, args.genus, args.deg_d)
        mark_s = f"{mark}={mark_want}" + ("" if mark == mark_want else " MISMATCH")

        bad += (toda != W.rank) + (hit != hit_want) + (mark != mark_want)
        n = len(W.group.conjugacy_classes())
        print(
            f"{W.label:>6} {W.group.order:>6} {n:>3} {W.lie_dim:>5} "
            f"{toda_s:>10} {hit_s:>12} {mark_s:>12} {time.monotonic() - t0:>6.1f}s"
        )
    print("-" * len(header))
    print("all presets match" if bad == 0 else f"{bad} MISMATCHES")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
