"""relpack benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 30 --trace 0

Run it from the root of a relpack checkout; it imports the package from
``src/``.  Set-up is timed in fresh interpreters (perfbench/probe.py), and
the workload runs in one more fresh interpreter (perfbench/worker.py), so
peak memory belongs to the workload alone.  With ``--trace 0`` it reports
the end-to-end metrics, timings rescaled to a reference host speed
(perfbench/speed.py), and prints the wall times they come from; with
``--trace 1`` it records spans around the calls into relpack's modules,
writes them to ``.perfbench/trace-<workload>-<seed>.jsonl`` and reports
the per-layer metrics.  Every metric is printed as ``name = value unit``;
the last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  An operation is one check of a certificate or
one point request, so ``failed / attempted`` is the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (END_TO_END, PER_LAYER, PRINTED_ONLY, TAIL_PERCENTILES,
                       WORKLOADS)

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child(cmd, env, deadline):
    """Run a helper to completion and return the JSON on its last line."""
    try:
        proc = subprocess.run(
            [sys.executable, *cmd], env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[0]} did not finish before the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{cmd[0]} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, k):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[k - 1]


def tail_percentile(count):
    """The highest tail percentile with at least ten of ``count`` beyond it."""
    return next((k for k in TAIL_PERCENTILES if count * (100 - k) >= 1000),
                TAIL_PERCENTILES[-1])


def measure(args, root):
    w = WORKLOADS[args.workload]
    src = root / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    env.pop("RELPACK_THREADS", None)
    if w.threads is not None:
        env["RELPACK_THREADS"] = w.threads
    deadline = time.monotonic() + DEADLINE_S

    probe = [str(HERE / "probe.py"), "--src", str(src),
             "--n", str(w.n), "--r", repr(w.r)]
    # half the set-up probes run before the workload and half after, so
    # their median samples the host's speed over the whole run
    probes = [child(probe, env, deadline) for _ in range(SETUP_PROBES // 2)]
    cmd = [str(HERE / "worker.py"), "--src", str(src),
           "--workload", w.name, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        out_dir = root / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{w.name}-{args.seed}.jsonl"
        cmd += ["--trace-out", str(trace_file)]
    res = child(cmd, env, deadline)
    probes += [child(probe, env, deadline)
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]

    def probe_median(key):
        return statistics.median(p[key] for p in probes)

    tails = {}
    if args.trace:
        values = dict(res["layers"])
        values["setup.import_s"] = probe_median("import_s")
        values["curves.engine_build_ms"] = probe_median("engine_build_ms")
        units = PER_LAYER
    else:
        values = {
            "setup_s": probe_median("setup_s"),
            "verify_ref_s": statistics.median(res["verify_ref_s"]),
            "verify_s": statistics.median(res["verify_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "error_rate": res["failed"] / res["attempted"],
            "host_speed": res["host_speed"],
        }
        for kind in ("embed", "invert"):
            ms, ref = res[f"{kind}_ms"], res[f"{kind}_ref_ms"]
            tails[kind] = tail_percentile(len(ms))
            values[f"{kind}_p50_ref_ms"] = percentile(ref, 50)
            values[f"{kind}_tail_ref_ms"] = percentile(ref, tails[kind])
            values[f"{kind}_p50_ms"] = percentile(ms, 50)
            values[f"{kind}_p95_ms"] = percentile(ms, 95)
        units = END_TO_END
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"no measurement for {sorted(missing)}")

    printed = dict(units)
    if not args.trace:
        printed.update(PRINTED_ONLY)
    for name, unit in printed.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(f"operations: {res['failed']} failed of {res['attempted']} attempted")
    print("certificate wall times: "
          + ", ".join(f"{t:.4g}" for t in res["verify_s"]) + " s")
    for kind, k in tails.items():
        count = len(res[f"{kind}_ms"])
        print(f"{kind} samples: {count}; {kind}_tail_ref_ms is p{k}, "
              f"{count * (100 - k) / 100:g} samples beyond it "
              f"({count * 0.05:g} beyond p95)")
    print(f"failed checks per certificate: {res['failed_checks']}")
    print(f"requests needing --point= (leading '-'): {res['leading_minus']}")
    if args.trace:
        overhead = values["verify.traced_s"] - res["verify_s"][0]
        print(f"tracing overhead on one certificate: {overhead:.6g} s")
        print(f"spans written to {trace_file.relative_to(root)}")
    for text in res["failures"]:
        print(f"failed: {text}")
    for text in res["problems"]:
        print(f"wrong output: {text}")
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def _terminate(signum, frame):
    # an exception inside subprocess.run kills and reaps the running helper
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    root = Path.cwd()
    if not (root / "src" / "relpack" / "__init__.py").is_file():
        print("perfbench: run from the root of a relpack checkout "
              "(src/relpack not found)", file=sys.stderr)
        return 2
    try:
        result = measure(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
