#!/usr/bin/env python3
"""Per-user DoF sweep: optimal TDMA, canonical pattern, and LP bound over L.

Writes one CSV row per (L, K) with K ranging over multiples of L+2 in
cyclic mode, the regime where all three quantities provably coincide at
2/(L+2) per user.  Exact rationals render as p/q.
"""

import argparse
import csv
import sys

from timdof import ResourceLimitError, demand_graph, schemes, serialize, topology


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--L-max", type=int, default=4)
    parser.add_argument("--multiples", type=int, nargs="+", default=[2, 3])
    parser.add_argument("--out", default="-", help="CSV path, - for stdout")
    args = parser.parse_args(argv)

    rows = []
    for L in range(1, args.L_max + 1):
        for mult in args.multiples:
            K = mult * (L + 2)
            t = topology.make_locally_connected(K, L, topology.CYCLIC)
            ca, cs = schemes.canonical_tdma(t)
            canonical = schemes.schedule_dof(cs, t, ca, method=schemes.METHOD_CANONICAL)
            bound = demand_graph.best_assignment_upper_bound(t)
            try:
                _, _, best = schemes.optimal_tdma(t)
                search = "exhaustive"
            except ResourceLimitError:
                # past the search cap: canonical meets the certified bound,
                # which already pins the optimum
                if bound.value / K != canonical.per_user:
                    raise RuntimeError(
                        f"K={K} L={L}: canonical pattern misses the certified bound")
                best, search = canonical, "canonical-only"
            rows.append([
                K, L, mult,
                serialize.fraction_str(best.per_user),
                serialize.fraction_str(canonical.per_user),
                serialize.fraction_str(bound.value / K),
                repr(float(best.per_user)),
                search,
            ])
            print(f"L={L} K={K}: per-user {serialize.fraction_str(best.per_user)}"
                  f" ({search})", file=sys.stderr)

    fh = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8", newline="")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["K", "L", "multiple", "tdma_per_user", "canonical_per_user",
                     "bound_per_user", "tdma_per_user_decimal", "search"])
    writer.writerows(rows)
    if fh is not sys.stdout:
        fh.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
