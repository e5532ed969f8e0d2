"""Set-up probe: one cold start of relpack in a fresh interpreter.

Times ``import relpack``, ``make_params`` for the workload, the first
``shape_schedule`` call (which builds the per-parameter engine) and the
first one-point ``sigma`` call, then prints the times as one JSON line.

    python3 perfbench/probe.py --src SRC --n 2 --r 0.8
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--r", type=float, required=True)
    args = ap.parse_args()

    t_import = time.perf_counter()
    import relpack

    t_params = time.perf_counter()
    params = relpack.make_params(args.n, args.r)
    t_engine = time.perf_counter()
    relpack.shape_schedule(0.5 * params.area_max, params)
    t_map = time.perf_counter()
    relpack.sigma(0.1 * args.r, 0.05 * args.r, params)
    t_end = time.perf_counter()

    if Path(relpack.__file__).resolve().parent.parent != Path(args.src).resolve():
        sys.exit(f"relpack imported from {relpack.__file__}, not from {args.src}")
    print(json.dumps({
        "import_s": t_params - t_import,
        "engine_build_ms": (t_map - t_engine) * 1e3,
        "setup_s": t_end - t_import,
    }))


if __name__ == "__main__":
    main()
