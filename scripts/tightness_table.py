#!/usr/bin/env python3
"""Tightness census: exact TDMA optimum versus the acyclic-subset LP bound.

Covers the full small grid in both modes.  Truncated chains and cyclic
networks with L+2 dividing K are tight.  The other cyclic networks can
have a strict gap: at even L it is certified in closed form, at odd L it
is measured by enumerating assignments.  Whether any cooperation scheme
closes that gap is open; the table reports the measured gap without
asserting either way.  Instances past a resource limit are skipped and
counted in the summary line.
"""

import argparse
import collections
import csv
import sys

from timdof import demand_graph, schemes, serialize, topology
from timdof.errors import ResourceLimitError


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--K-max", type=int, default=8)
    parser.add_argument("--L-max", type=int, default=3)
    parser.add_argument("--out", default="-", help="CSV path, - for stdout")
    args = parser.parse_args(argv)

    rows = []
    skipped = 0
    gaps = collections.Counter()  # (mode, L+2 divides K) -> strict gaps
    for mode in topology.GENERATED_MODES:
        for K in range(2, args.K_max + 1):
            for L in range(0, min(args.L_max, K - 1) + 1):
                t = topology.make_locally_connected(K, L, mode)
                _, _, best = schemes.optimal_tdma(t)
                try:
                    bound = demand_graph.best_assignment_upper_bound(t)
                except ResourceLimitError:
                    skipped += 1
                    continue
                gap = bound.value - best.sum_dof
                if gap > 0:
                    gaps[mode, K % (L + 2) == 0] += 1
                rows.append([
                    mode, K, L,
                    serialize.fraction_str(best.sum_dof),
                    serialize.fraction_str(bound.value),
                    serialize.fraction_str(gap),
                    "tight" if gap == 0 else "open",
                ])

    fh = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8", newline="")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["mode", "K", "L", "tdma_sum", "lp_bound", "gap", "status"])
    writer.writerows(rows)
    if fh is not sys.stdout:
        fh.close()
    summary = f"{len(rows)} instances, {gaps.total()} with a strict bound-vs-TDMA gap"
    if gaps:
        summary += " (" + ", ".join(
            f"{n} {mode} with L+2 {'dividing' if divides else 'not dividing'} K"
            for (mode, divides), n in sorted(gaps.items())) + ")"
    if skipped:
        summary += f"; {skipped} skipped at a resource limit"
    print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
