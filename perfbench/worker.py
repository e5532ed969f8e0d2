"""Run one workload in a fresh interpreter and print its raw measurements.

The session is closed-loop with one client: certificates alternate with
point requests, then (traced runs only) per-layer kernels run at N=1 and
N=16384.  The last line of standard output is one JSON object that run.py
turns into metrics.

    python3 perfbench/worker.py --src SRC --workload NAME --seed N \
        --seconds S [--trace-out FILE]

With ``--trace-out`` the run is traced and its spans are written to FILE.
Untraced runs sample the host's speed around and during every timed
operation (perfbench/speed.py) and report each timing both as wall time
and at reference speed; traced runs report wall times only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from speed import HostSpeed
from tracing import Tracer, duration, patched, self_time
from workloads import CHECK_NAMES, MAP_NAMES, WORKLOADS

ROUND_TRIP_TOL = 1e-9
BATCH = 16384
N1_REPEATS = 11
_FLOAT = r"[-+0-9.eE]+|nan|inf"


def ball_points(rng, n, r, count):
    """Uniform points strictly inside the radius-r ball of R^{2n}."""
    dim = 2 * n
    x = rng.standard_normal((count, dim))
    rad = r * (1.0 - 1e-9) * rng.random(count) ** (1.0 / dim)
    return x * (rad / np.linalg.norm(x, axis=1))[:, None]


def disc_points(rng, r, count):
    """Uniform factor points strictly inside the radius-r disc."""
    rad = r * (1.0 - 1e-9) * np.sqrt(rng.random(count))
    th = 2.0 * np.pi * rng.random(count)
    return rad * np.cos(th), rad * np.sin(th)


class Session:
    def __init__(self, relpack, workload, seed, trace):
        from relpack import cli, discmap, verify

        self.relpack, self.cli, self.discmap, self.verify = (
            relpack, cli, discmap, verify)
        self.w = workload
        self.seed = seed
        self.params = relpack.make_params(workload.n, workload.r)
        self.tracer = Tracer() if trace else None
        # sampled only in untraced runs; a traced run takes wall times only
        self.speed = HostSpeed()
        self.marks = {"verify": [], "embed": [], "invert": []}
        self.layers = []
        self.problems = []
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.out = {}

    def problem(self, text):
        """A wrong output: the run is not correct."""
        if len(self.problems) < 20:
            self.problems.append(text)

    def failure(self, text):
        """A failed operation: counted against the attempted ones."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(text)

    # -- certificates --------------------------------------------------------

    def certificate(self, maps=None):
        spec = self.verify.SampleSpec("uniform-ball", self.w.pool, self.seed)
        report = self.verify.run_all(self.params, spec, maps=maps)
        if maps is None:
            return report.to_json()
        with self.tracer.span("verify.to_json"):
            return report.to_json()

    def check_report(self, text):
        doc = json.loads(text)
        names = [c["name"] for c in doc["checks"]]
        p = doc["params"]
        if (p["n"], p["r"], p["epsilon"], p["seed"]) != (
                self.w.n, self.w.r, self.params.epsilon, self.seed):
            self.problem(f"report params {p} do not echo the request")
        if sorted(names) != sorted(CHECK_NAMES):
            self.problem(f"report checks {names} are not the nine checks")
        if doc["overall"] != all(c["passed"] for c in doc["checks"]):
            self.problem("report overall verdict disagrees with its checks")
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        self.attempted += len(names)
        self.failed += len(failed)
        return failed

    def traced_maps(self, recorded):
        tr = self.tracer
        d = self.discmap
        sigma = tr.wrap("discmap.sigma", d.sigma, count_points=True)

        def recording_sigma(q, p, params):
            recorded.append(np.column_stack([np.ravel(q), np.ravel(p)]))
            return sigma(q, p, params)

        return self.verify.MapSet(
            sigma=recording_sigma,
            sigma_inv=tr.wrap("discmap.inverse", d.sigma_inv, count_points=True),
            sigma_jacobian=tr.wrap("discmap.jacobian", d.sigma_jacobian,
                                   count_points=True),
        )

    def verify_patches(self):
        tr, v = self.tracer, self.verify
        targets = {(v, "sample"): tr.wrap("verify.sample", v.sample)}
        for name in CHECK_NAMES:
            fn = getattr(v, f"check_{name}")
            targets[(v, f"check_{name}")] = tr.wrap(f"verify.check_{name}", fn)
        targets[(v, "chart_j")] = tr.wrap("verify.chart_j", v.chart_j,
                                          count_points=True)
        targets[(v, "chart_symplectic_check")] = tr.wrap(
            "verify.chart_symplectic_check", v.chart_symplectic_check,
            count_points=True)
        targets[(self.discmap, "enclosed_area")] = tr.wrap(
            "discmap.enclosed_area", self.discmap.enclosed_area)
        return targets

    def certify(self, index, traced):
        """One certificate; a traced one also yields its per-layer figures."""
        if not traced:
            start = self.speed.start()
            text = self.certificate()
            self.marks["verify"].append((start, self.speed.stop()))
            return text
        recorded = []
        self.tracer.request = f"verify-{index}"
        with self.tracer.span("verify"):
            text = self.certificate(self.traced_maps(recorded))
        self.layers.append(self.verify_layers(self.tracer.request, recorded))
        self.tracer.request = None
        return text

    def verify_layers(self, request, recorded):
        spans = self.tracer.spans
        mine = [(i, s) for i, s in enumerate(spans) if s[4] == request]
        root = next(i for i, s in mine if s[0] == "verify")

        def total(name, parent=None):
            return sum(duration(s) for _, s in mine if s[0] == name
                       and (parent is None or s[3] == parent))

        def points(name):
            return sum(s[5] for _, s in mine if s[0] == name)

        out = {"verify.traced_s": duration(spans[root]),
               "verify.sample_s": total("verify.sample")}
        for c in CHECK_NAMES:
            out[f"verify.check.{c}_s"] = total(f"verify.check_{c}")
        out["verify.images_s"] = sum(total(f"discmap.{m}", root)
                                     for m in MAP_NAMES)
        out["verify.to_json_s"] = total("verify.to_json")
        for m in MAP_NAMES:
            out[f"verify.{m}_pts"] = points(f"discmap.{m}")
            out[f"discmap.{m}_s"] = total(f"discmap.{m}")
        mapped = np.concatenate(recorded)
        out["verify.sigma_distinct_ratio"] = (
            np.unique(mapped, axis=0).shape[0] / mapped.shape[0])
        calls = sum(1 for _, s in mine if s[0] == "discmap.enclosed_area")
        out["discmap.enclosed_area_ms"] = (
            1e3 * total("discmap.enclosed_area") / calls)
        out["chart.chart_j_us_per_pt"] = (
            1e6 * total("verify.chart_j") / points("verify.chart_j"))
        out["chart.symplectic_check_us_per_pt"] = (
            1e6 * total("verify.chart_symplectic_check")
            / points("verify.chart_symplectic_check"))
        return out

    # -- point requests ------------------------------------------------------

    def embed_argv(self, x):
        coords = ",".join(repr(float(v)) for v in x)
        # "--point=" because argparse reads "--point -0.3,..." as an option
        return ["embed", "--n", str(self.w.n), "--r", repr(self.w.r),
                "--point=" + coords]

    def embed(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def parse_embed(self, text):
        """Check an embed answer against the chart applied to its own phi."""
        lines = text.splitlines()
        image = np.array([float(v) for v in re.findall(_FLOAT, lines[0])])
        z = np.array([float(v) for v in re.findall(_FLOAT, lines[1])])
        dist = float(lines[2].rpartition("= ")[2])
        z_ref = self.relpack.chart_j(image)
        zz = np.column_stack([z_ref.real, z_ref.imag]).ravel()
        if (image.shape != (2 * self.w.n,) or not np.array_equal(z, zz)
                or dist != self.relpack.clifford_distance(z_ref, self.params)):
            raise ValueError(f"inconsistent embed output {text!r}")
        return image

    def request(self, x, traced, index=None):
        """One embed request, then a single-point inverse of each factor."""
        argv = self.embed_argv(x)
        if traced:
            self.tracer.request = f"request-{index}"
        self.attempted += 1
        start = self.speed.start()
        try:
            if traced:
                with self.tracer.span("cli.main"):
                    rc, text, err = self.embed(argv)
            else:
                rc, text, err = self.embed(argv)
        except Exception as exc:  # a request that raises has failed
            self.failure(f"embed {argv[-1]} raised {exc!r}")
            return None
        end = self.speed.stop()
        if rc != 0:
            self.failure(f"embed {argv[-1]} exited {rc}: {err.strip()}")
            return None
        self.marks["embed"].append((start, end))
        try:
            image = self.parse_embed(text)
        except (ValueError, IndexError) as exc:
            self.problem(str(exc))
            self.failure(str(exc))
            return text
        inverse = self.discmap.sigma_inv
        if traced:
            inverse = self.tracer.wrap("discmap.sigma_inv", inverse)
        for k in range(self.w.n):
            start = self.speed.start()
            try:
                q, p = inverse(image[2 * k], image[2 * k + 1], self.params)
            except Exception as exc:  # a request that raises has failed
                self.failure(f"sigma_inv of {argv[-1]} raised {exc!r}")
                return text
            self.marks["invert"].append((start, self.speed.stop()))
            miss = max(abs(q - x[2 * k]), abs(p - x[2 * k + 1]))
            if not miss <= ROUND_TRIP_TOL:
                msg = f"factor {k} of {argv[-1]} round-trips with error {miss:.3e}"
                self.problem(msg)
                self.failure(msg)
                return text
        return text

    def cli_patches(self):
        tr, c = self.tracer, self.cli
        return {(c, name): tr.wrap(f"cli.{name}", getattr(c, name))
                for name in ("phi", "chart_j", "clifford_distance")}

    def run(self, verifies, requests):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))
        pts = ball_points(rng, self.w.n, self.w.r, requests)
        # a CLI defect: "--point -0.3,..." fails to parse, so these points
        # need the "--point=" spelling
        self.out["leading_minus"] = int(np.sum(pts[:, 0] < 0.0))
        traced = self.tracer is not None
        texts, reference, patches = [], None, {}
        if traced:
            # untraced references: traced outputs must match them byte for
            # byte, and the certificate's wall time against the traced ones
            # is the tracing overhead
            texts.append(self.certify(None, False))
            reference = self.request(pts[0], False)
            patches = {**self.verify_patches(), **self.cli_patches()}
        # certificates and requests alternate, so every metric samples the
        # whole run rather than one stretch of it
        chunks = np.array_split(np.arange(requests), verifies)
        sampling = contextlib.nullcontext() if traced else self.speed
        with sampling, patched(patches):
            for i, chunk in enumerate(chunks):
                texts.append(self.certify(i, traced))
                for j in chunk:
                    text = self.request(pts[j], traced, j)
                    if j == 0 and traced and text != reference:
                        self.problem("traced embed output differs from untraced")
        failed = None
        for text in texts:
            failed = self.check_report(text)
        if any(t != texts[0] for t in texts):
            self.problem("reports for one seed differ between repeats "
                         "or between traced and untraced runs")
        self.out["failed_checks"] = failed
        self.timings(traced)
        if traced:
            layers = {k: statistics.median(d[k] for d in self.layers)
                      for k in self.layers[0]}
            spans = self.tracer.spans
            layers["cli.embed_self_ms"] = statistics.median(
                1e3 * self_time(spans, i) for i, s in enumerate(spans)
                if s[0] == "cli.main")
            self.out["layers"] = layers

    def timings(self, traced):
        """Wall times, and in untraced runs times at reference speed."""
        for kind, key, scale in (("verify", "verify_s", 1.0),
                                 ("embed", "embed_ms", 1e3),
                                 ("invert", "invert_ms", 1e3)):
            marks = self.marks[kind]
            if traced:
                self.out[key] = [scale * (end[0] - start[0])
                                 for start, end in marks]
                continue
            pairs = [self.speed.times(start, end) for start, end in marks]
            self.out[key] = [scale * wall for wall, _ in pairs]
            self.out[key.replace("_", "_ref_", 1)] = [
                scale * ref for _, ref in pairs]
        if not traced:
            self.out["host_speed"] = self.speed.mean_speed()

    # -- per-layer kernels ---------------------------------------------------

    def kernels(self):
        d, params, layers = self.discmap, self.params, self.out["layers"]
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 2]))
        q, p = disc_points(rng, self.w.r, BATCH)

        def timed(fn, *args):
            t0 = time.perf_counter()
            value = fn(*args)
            return time.perf_counter() - t0, value

        dt, (Q, P) = timed(d.sigma, q, p, params)
        layers[f"discmap.sigma_us_per_pt.n{BATCH}"] = 1e6 * dt / BATCH
        dt, _ = timed(d.sigma_inv, Q, P, params)
        layers[f"discmap.inverse_us_per_pt.n{BATCH}"] = 1e6 * dt / BATCH
        dt, _ = timed(d.sigma_jacobian, q, p, params)
        layers[f"discmap.jacobian_us_per_pt.n{BATCH}"] = 1e6 * dt / BATCH
        for name, fn, a, b in (("sigma", d.sigma, q, p),
                               ("inverse", d.sigma_inv, Q, P),
                               ("jacobian", d.sigma_jacobian, q, p)):
            layers[f"discmap.{name}_us_per_pt.n1"] = 1e6 * statistics.median(
                timed(fn, float(a[k]), float(b[k]), params)[0]
                for k in range(N1_REPEATS))
        A = np.pi * (q * q + p * p)
        layers[f"curves.shape_schedule_us_per_pt.n{BATCH}"] = (
            1e6 * statistics.median(
                timed(self.relpack.shape_schedule, A, params)[0]
                for _ in range(5)) / BATCH)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    import relpack

    if Path(relpack.__file__).resolve().parent.parent != Path(args.src).resolve():
        sys.exit(f"relpack imported from {relpack.__file__}, not from {args.src}")
    w = WORKLOADS[args.workload]
    s = Session(relpack, w, args.seed, args.trace_out is not None)
    # build the engine before anything is timed; set-up is measured apart
    relpack.sigma(0.1 * w.r, 0.0, s.params)
    verifies, requests = w.plan(args.seconds)
    s.run(verifies, requests)
    if args.trace_out is not None:
        s.kernels()
        s.tracer.write(args.trace_out)
    s.out.update(
        attempted=s.attempted,
        failed=s.failed,
        correct=not s.problems,
        problems=s.problems,
        failures=s.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(s.out))


if __name__ == "__main__":
    main()
