"""Command-line front end.

Three subcommands:

``verify``
    Run the full invariant suite for one parameter set and emit the JSON
    report.  Exit code 0 when every check passes, 1 on any check failure,
    2 on invalid parameters or usage.
``figure``
    Export the images of concentric source circles plus the diameter as
    CSV polyline data (columns ``curve_id,kind,t,q,p,Q,P``), suitable for
    any plotting tool.
``embed``
    Evaluate the full embedding at one user-supplied ball point and print
    the rectangle coordinates, the complex chart point, and its action
    distance from the torus.

The env var RELPACK_THREADS sets the verification thread count (default:
every core the process may run on); it changes no reported number.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys

import numpy as np

from .chart import chart_j, clifford_distance
from .discmap import level_curve_point, phi, sigma
from .errors import RelpackError
from .params import make_params
from .verify import SampleSpec, run_all

__all__ = ["main"]


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relpack",
        description="Relative ball packing: verification, figure data, embedding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp):
        sp.add_argument("--n", type=int, default=2,
                        help="number of complex coordinates (default 2)")
        sp.add_argument("--r", type=float, default=0.8,
                        help="ball radius, r**2 < 2/(n+1) (default 0.8)")
        sp.add_argument("--eps", type=float, default=None,
                        help="collar width (default: maximal admissible)")

    sp = sub.add_parser("verify", help="run the invariant suite")
    add_params(sp)
    sp.add_argument("--samples", type=int, default=100000,
                    help="uniform-pool size (default 100000)")
    sp.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")
    sp.add_argument("--out", default=None, help="write the JSON report here")
    sp.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                    help="override a check tolerance (repeatable)")

    sp = sub.add_parser("figure", help="export curve-family polylines as CSV")
    add_params(sp)
    sp.add_argument("--circles", type=int, default=8,
                    help="number of concentric source circles (default 8)")
    sp.add_argument("--points-per-curve", type=int, default=512,
                    help="polyline resolution per curve (default 512)")
    sp.add_argument("--out", default=None, help="CSV path (default: stdout)")

    sp = sub.add_parser("embed", help="evaluate the embedding at one point")
    add_params(sp)
    sp.add_argument("--point", required=True,
                    help="comma-separated ball coordinates q1,p1,...,qn,pn")
    return parser


def _parse_tols(entries):
    out = {}
    for entry in entries:
        name, sep, value = entry.partition("=")
        if not sep:
            raise ValueError(f"--tol expects NAME=VALUE, got {entry!r}")
        out[name.strip()] = float(value)
    return out


def _cmd_verify(args) -> int:
    params = make_params(args.n, args.r, args.eps)
    tols = _parse_tols(args.tol)
    spec = SampleSpec("uniform-ball", args.samples, args.seed)
    report = run_all(params, spec, tolerances=tols or None)
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"{c.name:<22} {status}  margin={c.worst_margin:.6e} "
                  f"samples={c.samples_used}")
        print(f"overall: {'PASS' if report.overall else 'FAIL'}  -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0 if report.overall else 1


def _cmd_figure(args) -> int:
    params = make_params(args.n, args.r, args.eps)
    circles = args.circles
    npts = args.points_per_curve
    if circles < 1:
        raise ValueError("--circles must be at least 1")
    if npts < 8:
        raise ValueError("--points-per-curve must be at least 8")

    t = np.linspace(0.0, 1.0, npts + 1)
    rows = []
    for j in range(1, circles + 1):
        u = (j / circles) ** 2 * params.r**2
        if j == circles:
            # the outermost source circle is the open-ball boundary; shave
            # it inward by a relative 1e-12 so the map is defined on it
            u *= 1.0 - 1e-12
        q = np.sqrt(u) * np.cos(2.0 * np.pi * t)
        p = np.sqrt(u) * np.sin(2.0 * np.pi * t)
        Q, P = level_curve_point(np.pi * u, t, params)
        for i in range(t.size):
            rows.append((j, "circle", t[i], q[i], p[i], Q[i], P[i]))
    qmax = params.r * np.sqrt(1.0 - 1e-9)
    qd = (2.0 * t - 1.0) * qmax
    Q, P = sigma(qd, np.zeros_like(qd), params)
    for i in range(t.size):
        rows.append((0, "diameter", t[i], qd[i], 0.0, Q[i], P[i]))

    def write(fh):
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["curve_id", "kind", "t", "q", "p", "Q", "P"])
        for cid, kind, tv, qv, pv, Qv, Pv in rows:
            w.writerow([cid, kind, repr(float(tv)), repr(float(qv)),
                        repr(float(pv)), repr(float(Qv)), repr(float(Pv))])

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    else:
        write(sys.stdout)
    return 0


def _cmd_embed(args) -> int:
    params = make_params(args.n, args.r, args.eps)
    try:
        vals = [float(v) for v in args.point.split(",")]
    except ValueError:
        raise ValueError(f"--point must be comma-separated floats, got {args.point!r}")
    if len(vals) != 2 * params.n:
        raise ValueError(
            f"--point needs {2 * params.n} coordinates for n={params.n}, "
            f"got {len(vals)}"
        )
    point = np.asarray(vals)
    image = phi(point, params)
    z = chart_j(image)
    dist = clifford_distance(z, params)
    print("phi = (" + ", ".join(repr(float(v)) for v in image) + ")")
    print("z = " + ", ".join(f"({repr(float(zi.real))}, {repr(float(zi.imag))})"
                             for zi in z))
    print(f"clifford_distance = {repr(float(dist))}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--point" in argv[:-1]:  # else argparse reads "-0.3,..." as a flag
        i = argv.index("--point")
        argv[i : i + 2] = ["--point=" + argv[i + 1]]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"verify": _cmd_verify, "figure": _cmd_figure, "embed": _cmd_embed}
    try:
        return handlers[args.command](args)
    except (RelpackError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
