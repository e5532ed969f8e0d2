"""Print the level-curve schedule and dump a polyline gallery as CSV.

The gallery shows how the images of concentric source circles fatten from
near-circles into wall-to-wall superellipses while staying nested inside
the action band.  The CSV columns match the ``relpack figure`` export.
"""

import argparse
import csv
import sys

import numpy as np

from relpack import level_curve_point, make_params, shape_schedule


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--r", type=float, default=0.8)
    ap.add_argument("--circles", type=int, default=10)
    ap.add_argument("--points", type=int, default=256)
    ap.add_argument("--out", default=None, help="CSV path (default: stdout)")
    args = ap.parse_args(argv)

    params = make_params(args.n, args.r)
    print(f"# n={params.n} r={params.r} c={params.c:.6f} "
          f"epsilon={params.epsilon:.6g}", file=sys.stderr)
    print("#   area     halfwidth  halfheight  exponent", file=sys.stderr)
    for j in range(1, args.circles + 1):
        u = (j / args.circles) ** 2 * params.r**2 * (1.0 - 1e-12)
        A = np.pi * u
        h, a, m = shape_schedule(A, params)
        print(f"# {A:8.5f}  {a:9.6f}  {h:9.6f} {m:9.4f}", file=sys.stderr)

    t = np.linspace(0.0, 1.0, args.points + 1)
    fh = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["curve_id", "t", "Q", "P"])
        for j in range(1, args.circles + 1):
            u = (j / args.circles) ** 2 * params.r**2 * (1.0 - 1e-12)
            Q, P = level_curve_point(np.pi * u, t, params)
            for k in range(t.size):
                w.writerow([j, repr(float(t[k])), repr(float(Q[k])),
                            repr(float(P[k]))])
    finally:
        if args.out:
            fh.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
