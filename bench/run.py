#!/usr/bin/env python3
"""Point-throughput benchmark for chipurcell.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One point is one ``chipurcell.cli.run_scenario`` call (or one
``cli.run_fresnel`` table), issued in a closed loop by one client: the next
point starts when the previous one returns. The seed generates the
scenario dicts (``workloads.py``); the package sees only those.

The timed loop repeats whole passes over the workload's points for about S
seconds (it stops at the pass boundary closest to S). Each repeat must
reproduce the first pass bit for bit. Latencies are measured in reference
seconds (see ReferenceClock) and averaged over a point's repeats. After
the loop, numeric mirror points are compared with the exact elementary
integrals, and the workload's anchors run twice against
``reference.json``. Inputs the package is known to fail on
(``workloads.KNOWN_DEFECTS``) then run once, outside the counts, and the
run reports whether they still fail.

--trace 0 prints the end-to-end metrics (BENCHMARK.json "end_to_end");
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of one pass, timings as medians over the traced passes. The last
line of standard output is the JSON result; failed points are listed
before it and, with the spans of the first traced pass, written to
bench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# A numeric rate must match its reference within NUMERIC_TOL of its scale
# (oracle.rates_from_integrals). The quadrature stops each channel at
# rel_tol = 1e-8 of the channel's complex magnitude; a point combines up to
# ten channels, and the code this was written against agrees with both
# oracles to <= 1e-8 of the scale. 100 x rel_tol leaves room for the error
# estimate's looseness and still fails any result accepted under the 1e-4
# "degraded" rule.
NUMERIC_TOL = 1e-6
# Closed forms are a few dozen floating-point operations: a change of
# evaluation order moves them by ~1e-15, anything past 1e-10 is a change.
CLOSED_TOL = 1e-10
SETUP_PROBES = 9
# Timings are reported in reference seconds: seconds on a machine on which
# calibration_seconds() returns K_REF_S (an idle 2-vCPU x86 VM, Python 3.11,
# numpy 2.4). On a shared VM the calibration loop's time varied 1.9x within
# minutes, and raw means over a run moved 13-21% between runs.
K_REF_S = 4.0e-4
CALIBRATE_EVERY_S = 0.05


class Failed(NamedTuple):
    error: str
    message: str


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up and run the warm-up point, then exit (times setup_s)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def import_package():
    """Import chipurcell from this checkout's src/, never from elsewhere."""
    if not (SRC / "chipurcell" / "__init__.py").is_file():
        sys.exit(f"error: no chipurcell sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from chipurcell import cli, errors

    return cli, (errors.PhysicsError, errors.QuadratureError)


def run_pass(cli, expected, points, clock=None, tracer=None):
    """Run every point once and return the results. A point that raises an
    expected error yields a Failed entry instead of a result."""
    results = []
    for i, p in enumerate(points):
        if tracer is not None:
            tracer.begin_point(i)
        if clock is not None:
            clock.calibrate_if_due()
        t0 = time.perf_counter()
        try:
            r = workloads.run_point(cli, p)
        except expected as exc:
            r = Failed(type(exc).__name__, str(exc))
        if clock is not None:
            clock.record(i, time.perf_counter() - t0)
        results.append(r)
    return results


class Checker:
    """Counts attempted and failed points and keeps the failed-point log."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.attempted = self.failed = self.completed = 0
        self.mismatches = 0       # wrong or non-deterministic results
        self.log = []

    def note(self, p, failure: str, pass_no) -> None:
        self.log.append({"workload": self.workload, "seed": self.seed,
                         "pass": pass_no, **p.label, "failure": failure})

    def record_pass(self, points, results, first, pass_no) -> None:
        """Count a pass; a repeat must equal the first pass exactly."""
        for p, r, ref in zip(points, results, first):
            self.attempted += 1
            if not isinstance(r, Failed):
                self.completed += 1
            if pass_no and r != ref:
                self.mismatches += 1
                self.failed += 1
                self.note(p, f"differs from pass 0: {r!r} vs {ref!r}", pass_no)
            elif isinstance(r, Failed):
                # logged once; its repeats in later passes still count
                self.failed += 1
                if not pass_no:
                    self.note(p, f"{r.error}: {r.message}", pass_no)

    def check_first_pass(self, points, results, passes) -> None:
        """Numeric mirror points against the exact integrals; a wrong point
        is wrong in every pass."""
        for p, r in zip(points, results):
            if isinstance(r, Failed) or p.label["geometry"] != "mirror" \
                    or p.label["limit"] != "numeric":
                continue
            why = numeric_mismatch(r, exact_mirror(p))
            if why:
                self.mismatches += 1
                self.failed += passes
                self.note(p, why, "all")

    def check_anchors(self, cli, expected, reference) -> None:
        """Each anchor twice: bit-identical, and equal to its reference."""
        anchors = workloads.ANCHORS[self.workload]
        entries = reference[self.workload]
        if [e["label"] for e in entries] != [json.loads(json.dumps(p.label)) for p in anchors]:
            sys.exit("error: reference.json does not match the anchors; "
                     "regenerate it with python3 bench/oracle.py")
        for p, entry in zip(anchors, entries):
            runs = run_pass(cli, expected, [p, p])
            self.attempted += 2
            errors = [r for r in runs if isinstance(r, Failed)]
            for r in errors:
                self.failed += 1
                self.note(p, f"{r.error}: {r.message}", "anchor")
            if errors:
                continue
            a, b = runs
            if repr(a) != repr(b):
                why = f"second run differs from the first: {b!r} vs {a!r}"
            else:
                why = reference_mismatch(p, entry, a)
            if why:
                self.mismatches += 1
                self.failed += 2
                self.note(p, why, "anchor")

    def probe_known_defects(self, cli, expected, reference) -> list:
        """Run each known-defect input once; not counted as attempted.

        Returns one entry per input with its outcome. An input that no
        longer raises must match its reference, or the run is not correct.
        """
        points = workloads.KNOWN_DEFECTS.get(self.workload, [])
        entries = reference.get("known_defects", {}).get(self.workload, [])
        if [e["label"] for e in entries] != [json.loads(json.dumps(p.label)) for p in points]:
            sys.exit("error: reference.json does not match the known defects; "
                     "regenerate it with python3 bench/oracle.py")
        report = []
        for p, entry in zip(points, entries):
            (r,) = run_pass(cli, expected, [p])
            if isinstance(r, Failed):
                outcome = f"still raises {r.error}: {r.message}"
            else:
                why = reference_mismatch(p, entry, r)
                if why:
                    self.mismatches += 1
                    self.note(p, "known-defect input returns a wrong result: " + why, "probe")
                outcome = "returns, " + ("wrong" if why else "matches its reference")
            report.append({**p.label, "outcome": outcome})
        return report


def reference_mismatch(p, entry, result):
    """Why ``result`` of point ``p`` disagrees with its reference entry, or None."""
    import oracle

    if "integrals" in entry:
        ints = [complex(*v) for v in entry["integrals"]]
        sc = entry["scales"]
        return numeric_mismatch(result, oracle.rates_from_integrals(
            p.scenario["molecule"], ints[:3], sc[:3], ints[3:], sc[3:]))
    if "values" in entry:
        return closed_mismatch(result, entry["values"])
    return numeric_mismatch(result, exact_mirror(p))


def exact_mirror(p):
    import oracle

    sign = 1.0 if p.label["handedness"] == "right" else -1.0
    return oracle.mirror_rates(p.scenario["molecule"], workloads.K0,
                               p.scenario["geometry"]["z_m"], sign)


def numeric_mismatch(result, expected):
    g_el, el_scale, g_ch, ch_scale = expected
    for name, got, want, scale in (("gamma_el", result[0], g_el, el_scale),
                                   ("gamma_ch", result[1], g_ch, ch_scale)):
        if not abs(got - want) <= NUMERIC_TOL * scale:
            return (f"{name} = {got!r}, reference {want!r}: off by "
                    f"{abs(got - want) / scale:.2e} of scale {scale:.3e}")
    return None


def closed_mismatch(result, values):
    if len(result) != len(values):
        return f"{len(result)} outputs, reference has {len(values)}"
    for i, (got, want) in enumerate(zip(result, values)):
        if got == want:
            continue
        if isinstance(want, str):      # a table row: numbers, then a status
            g, w = got.split(","), want.split(",")
            wv = [float(x) for x in w[:-1]]
            scale = max(abs(x) for x in wv)
            if len(g) != len(w) or g[-1] != w[-1] or any(
                    not abs(float(a) - b) <= CLOSED_TOL * scale for a, b in zip(g, wv)):
                return f"table row {i}: {got!r}, reference {want!r}"
        elif not abs(got - want) <= CLOSED_TOL * abs(want):
            return f"output {i} = {got!r}, reference {want!r}"
    return None


def calibration_seconds() -> float:
    """Time of the calibration loop: fastest of three runs, to drop interrupts.

    The loop does what the package does per node -- complex arithmetic in
    the interpreter, numpy scalar calls, small allocations -- so contention
    slows both alike."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0j
        for i in range(1, 400):
            z = complex(i, 1.0)
            x += np.sqrt(z) / (z + 1.0) - complex(np.exp(1j * i))
        times.append(time.perf_counter() - t0)
    return min(times)


class ReferenceClock:
    """Sums each point's latency in reference seconds.

    The calibration loop is timed every CALIBRATE_EVERY_S between points;
    each latency is scaled by K_REF_S over the mean of the calibration times
    just before and just after it.
    """

    def __init__(self, n: int):
        self.sums = [0.0] * n
        self.calibrations = []
        self._pending = []
        self._last = calibration_seconds()
        self._at = time.perf_counter()

    def calibrate_if_due(self) -> None:
        if time.perf_counter() - self._at >= CALIBRATE_EVERY_S:
            self.calibrate()

    def record(self, i: int, seconds: float) -> None:
        self._pending.append((i, seconds))

    def calibrate(self) -> None:
        k = calibration_seconds()
        scale = 2.0 * K_REF_S / (self._last + k)
        for i, dt in self._pending:
            self.sums[i] += dt * scale
        self._pending.clear()
        self.calibrations.append(k)
        self._last, self._at = k, time.perf_counter()


def setup_seconds(args) -> float:
    """Median over fresh processes that import the package, build the
    inputs and run the warm-up point, in reference seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        before = calibration_seconds()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
        dt = time.perf_counter() - t0
        times.append(dt * 2.0 * K_REF_S / (before + calibration_seconds()))
    return statistics.median(times)


def timed_loop(cli, expected, points, checker, seconds):
    """Repeat passes; returns each point's mean latency in reference seconds,
    the clock, the loop's wall time, the number of passes and the first
    pass's results."""
    clock = ReferenceClock(len(points))
    passes, first = 0, None
    t_begin = time.perf_counter()
    while True:
        results = run_pass(cli, expected, points, clock)
        first = first or results
        checker.record_pass(points, results, first, passes)
        passes += 1
        wall = time.perf_counter() - t_begin
        # stop where the loop ends closest to `seconds`
        if wall + 0.5 * wall / passes >= seconds:
            break
    clock.calibrate()
    return [s / passes for s in clock.sums], clock, wall, passes, first


def traced_loop(cli, expected, points, checker, seconds):
    import tracer as tracing

    tracer = tracing.Tracer()
    plain_walls, traced_walls, traces = [], [], []
    passes, first = 0, None
    t_begin = time.perf_counter()
    while True:
        for traced in (False, True):
            if traced:
                tracer.install()
                tracer.begin_pass()
            t0 = time.perf_counter()
            try:
                results = run_pass(cli, expected, points, tracer=tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            (traced_walls if traced else plain_walls).append(time.perf_counter() - t0)
            if traced:
                traces.append(tracer.trace)
            first = first or results
            checker.record_pass(points, results, first, passes)
            passes += 1
        wall = time.perf_counter() - t_begin
        if wall + 0.5 * wall / len(traces) >= seconds:
            break
    return tracer.absent, traces, plain_walls, traced_walls, passes, first


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, expected = import_package()
    points = workloads.generate(args.workload, args.seed)
    warmup = workloads.ANCHORS[args.workload][0]
    workloads.run_point(cli, warmup)
    if args.setup_probe:
        return 0
    reference = json.loads((HERE / "reference.json").read_text())

    checker = Checker(args.workload, args.seed)
    out = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "points_per_pass": len(points)}
    if args.trace:
        absent, traces, plain, traced, passes, first = traced_loop(
            cli, expected, points, checker, args.seconds)
    else:
        latency, clock, wall, passes, first = timed_loop(
            cli, expected, points, checker, args.seconds)
        completed = checker.completed
    checker.check_first_pass(points, first, passes)
    checker.check_anchors(cli, expected, reference)
    known = checker.probe_known_defects(cli, expected, reference)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        import tracer as tracing

        per_pass = [tracing.layer_metrics(t, len(points)) for t in traces]
        # counts repeat exactly (checked below); timings take the median
        metrics = {name: (value if all(m[name][0] == value for m in per_pass)
                          else statistics.median(m[name][0] for m in per_pass), unit)
                   for name, (value, unit) in per_pass[0].items()}
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        counts_repeat = all(t.counts() == traces[0].counts() for t in traces)
        out.update(absent_layers=absent, counts_repeat=counts_repeat,
                   spans=[list(s) for s in traces[0].spans])
        notes = [f"traced passes: {len(traces)}, untraced passes: {len(plain)}, "
                 f"per-layer values are per pass of {len(points)} points",
                 f"layer counts repeat exactly across traced passes: {counts_repeat}"]
        notes += [f"absent layer (not wrapped, reported as 0): {name}" for name in absent]
    else:
        p50, p90 = np.percentile(latency, [50, 90]) * 1e3
        ok = sum(not isinstance(r, Failed) for r in first)
        metrics = {
            "setup_s": (setup_seconds(args), "s"),
            "points_per_s": (ok / sum(latency), "1/s"),
            "point_ms_p50": (float(p50), "ms"),
            "point_ms_p90": (float(p90), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        n = len(latency)
        k = clock.calibrations
        notes = [f"timed loop: {passes} passes of {n} points in {wall:.3f} s of wall time, "
                 f"{completed / wall:.6g} points/s of wall time",
                 f"calibration loop: {len(k)} runs, {1e3 * min(k):.4f} to {1e3 * max(k):.4f} ms, "
                 f"median {1e3 * statistics.median(k):.4f} ms; reference {1e3 * K_REF_S} ms",
                 f"latency samples: {n} points, each the mean of its {passes} repeats "
                 f"(p90 has {n - int(0.9 * n)} beyond it)"]
    failed_frac = checker.failed / checker.attempted
    correct = checker.mismatches == 0

    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"failed_frac = {failed_frac!r} fraction ({checker.failed} of {checker.attempted})")
    for entry in checker.log:
        print("failed point: " + json.dumps(entry))
    for entry in known:
        print("known defect, not counted: " + json.dumps(entry))
    print(f"correct = {correct}")

    out.update(failed_points=checker.log, known_defects=known, metrics={k: v for k, (v, _) in metrics.items()})
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(out) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
