"""Check the benchmark itself: its output format, its metrics and its tracing.

    python3 perfbench/selfcheck.py

Run from the root of a relpack checkout.  It runs a short ``point-queries``
run untraced and traced with the same seed and checks that

* the last line holds exactly ``correct``, ``attempted``, ``failed`` and
  ``metrics``, with every metric BENCHMARK.json names, in its unit;
* every metric, and each printed-only figure of an untraced run, is also
  printed as a ``name = value unit`` line;
* the printed error rate is ``failed / attempted``;
* both runs report ``correct``; a traced run is correct only when its
  certificate and request outputs are byte-identical to an untraced
  certificate and request it makes first, so the wrappers pass values
  through.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

from workloads import END_TO_END, PER_LAYER, PRINTED_ONLY

HERE = Path(__file__).resolve().parent
WORKLOAD = "point-queries"
SEED = 7
SECONDS = 2.0


def run(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", WORKLOAD,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"run.py --trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return proc.stdout.strip().splitlines()


def check_run(lines, declared, extra, problems, label):
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"]:
        problems.append(f"{label}: the benchmark found wrong outputs")
    metrics = result["metrics"]
    if {k: v["unit"] for k, v in metrics.items()} != declared:
        problems.append(f"{label}: metrics or units differ from BENCHMARK.json")
    printed = dict(re.fullmatch(r"(\S+) = \S+ (\S+)", line).groups()
                   for line in lines[:-1] if re.fullmatch(r"\S+ = \S+ \S+", line))
    for name, unit in {**declared, **extra}.items():
        if printed.get(name) != unit:
            problems.append(f"{label}: {name} not printed with its unit {unit}")
    if "error_rate" in extra:
        rate = next(line for line in lines if line.startswith("error_rate = "))
        value = float(rate.split()[2])
        expected = result["failed"] / result["attempted"]
        if abs(value - expected) > 1e-6 * max(expected, 1e-12):
            problems.append(f"{label}: error_rate {value} is not "
                            "failed / attempted")


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if e2e != END_TO_END or layers != PER_LAYER:
        problems.append("BENCHMARK.json and perfbench/workloads.py disagree")
    check_run(run(0), e2e, PRINTED_ONLY, problems, "untraced")
    check_run(run(1), layers, {}, problems, "traced")

    for text in problems:
        print(f"FAIL {text}")
    print("selfcheck: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
