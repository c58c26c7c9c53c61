"""dyadlab benchmark: times ``run_suite`` end to end, or traces it by layer.

Usage (from the repository root):

    python3 bench/run.py --workload full-d2-n64 --seed 7 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json.  It calls
``run_suite`` back to back for ``--seconds`` seconds (after the first call,
a call starts only if the previous round says it will end in time), times
``SETUPS_PER_CALL`` fresh-process set-ups before each call (at least
``MIN_SETUPS`` in all) and reports medians.  ``--trace 1`` reports the
per-layer metrics instead, whatever ``--seconds`` says: one untraced call,
one call with every layer wrapped by ``layertrace.Tracer``, and one
``run_suite`` call per suite.

Every report is checked: a failed or hard-error check row counts as failed,
and when the canonical report.json differs from the golden table
(``golden.json``, for the seeds it lists) or from the run's first call,
every row of that call counts as failed.  Human-readable lines go to stdout
first; the last line is the JSON result.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import GOLDEN, ROOT, WORKLOADS, make_config, pin_environment, report_sha

BENCH = Path(__file__).resolve().parent
MIN_SETUPS = 7
SETUPS_PER_CALL = 2
SETUP_TIMEOUT_S = 60

# the span each workload's trace is predicted to spend the most self time in
PREDICTED_TOP = {
    "pairs-d1-n128": "operator.classify",
    "norms-d1-n512": "randnorms.randomized_norm",
    "full-d2-n64": "grid.bad_probability_mc",
}


# =============================================================================
# Correctness
# =============================================================================

class ReportCheck:
    """Counts check rows attempted and failed over the reports of one run."""

    def __init__(self, workload: str, seed: int):
        table = json.loads(GOLDEN.read_text(encoding="utf-8"))
        self.golden = table.get(workload, {}).get(str(seed))
        self.first_sha = None
        self.reports = 0
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def __call__(self, report, compare: bool = True) -> None:
        rows = len(report.checks)
        bad = sum(not c.passed for c in report.checks)
        if compare:
            sha = report_sha(report)
            expected = self.golden or self.first_sha
            if expected is not None and sha != expected:
                which = "golden table" if self.golden else "first call"
                self.notes.append(f"report sha256 {sha} differs from the {which}")
                bad = rows
            self.first_sha = self.first_sha or sha
        self.reports += 1
        self.attempted += rows
        self.failed += bad


# =============================================================================
# Measurements
# =============================================================================

def host_speed() -> dict:
    """Fixed reference work, timed to recognise a slow host; no metric uses it."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i
    t1 = time.perf_counter()
    a = np.random.default_rng(0).standard_normal((384, 384))
    for _ in range(8):
        a = a @ a
        a /= np.abs(a).max()
    t2 = time.perf_counter()
    return {"host.py_loop_s": t1 - t0, "host.numpy_matmul_s": t2 - t1}


def setup_once(workload: str, seed: int) -> float:
    out = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload,
                          str(seed)], cwd=ROOT, capture_output=True, text=True,
                         timeout=SETUP_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def timed_call(harness, cfg):
    t0 = time.perf_counter()
    report = harness.run_suite(cfg)
    return time.perf_counter() - t0, report


def measure_end_to_end(workload: str, seed: int, seconds: float, check: ReportCheck):
    from dyadlab import harness

    cfg = make_config(workload, seed)
    samples = {"run_s": [], "setup_s": [], "host.py_loop_s": [],
               "host.numpy_matmul_s": []}
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        for _ in range(SETUPS_PER_CALL):
            samples["setup_s"].append(setup_once(workload, seed))
        for key, val in host_speed().items():
            samples[key].append(val)
        run_s, report = timed_call(harness, cfg)
        check(report)
        del report      # keeps peak_rss_mib the peak of one call, not of two
        samples["run_s"].append(run_s)
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    while len(samples["setup_s"]) < MIN_SETUPS:
        samples["setup_s"].append(setup_once(workload, seed))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples["peak_rss_mib"] = [peak]
    return samples


def measure_layers(workload: str, seed: int, check: ReportCheck):
    from dyadlab import harness
    from layertrace import ROOT as TRACE_ROOT, Tracer

    cfg = make_config(workload, seed)
    untraced_s, report = timed_call(harness, cfg)
    check(report)
    with Tracer() as tracer:
        report = harness.run_suite(cfg)
    check(report)
    stats = tracer.stats
    suite_s = {}
    for suite in cfg.suites:
        suite_s[suite], report = timed_call(
            harness, dataclasses.replace(cfg, suites=(suite,)))
        check(report, compare=False)
    traced_s = stats[TRACE_ROOT].busy_s
    return stats, suite_s, traced_s - untraced_s, untraced_s


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_value(name: str, stats, suite_s: dict, overhead_s: float) -> float:
    """Value of one per-layer metric named in BENCHMARK.json."""
    if name.startswith("harness.suite_s."):
        return suite_s.get(name.rsplit(".", 1)[1], 0.0)
    if name == "harness.trace_overhead_s":
        return overhead_s
    span, field = name.rsplit(".", 1)
    st = stats[span]
    c = st.counters
    derived = {
        "exact_frac": lambda: _ratio(c.get("exact", 0.0), st.calls),
        "bad_frac": lambda: _ratio(c.get("bad", 0.0), st.calls),
        "useful_frac": lambda: _ratio(c.get("checked", 0.0), c.get("inner_calls", 0.0)),
        "trials_per_s": lambda: _ratio(c.get("trials", 0.0), st.busy_s),
        "pattern_atoms_per_s": lambda: _ratio(c.get("pattern_atoms", 0.0), st.busy_s),
        "gflop_computed": lambda: c.get("flop", 0.0) / 1e9,
        "gbyte_computed": lambda: c.get("byte", 0.0) / 1e9,
    }
    if field in derived:
        return derived[field]()
    if field in ("calls", "busy_s", "self_s"):
        return float(getattr(st, field))
    return c.get(field, 0.0)


# =============================================================================
# Output
# =============================================================================

def _summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3


def print_samples(samples: dict, units: dict) -> None:
    for key, values in samples.items():
        med, q1, q3 = _summary(values)
        unit = units.get(key, "s")
        print(f"{key:<24} median={med:.6g} {unit}  q1={q1:.6g}  q3={q3:.6g}  "
              f"n={len(values)}")


def print_trace(workload: str, stats, suite_s: dict, overhead_s: float,
                untraced_s: float) -> None:
    from layertrace import ROOT as TRACE_ROOT

    root = stats[TRACE_ROOT]
    print(f"traced run_s={root.busy_s:.6g} s  untraced run_s={untraced_s:.6g} s  "
          f"tracing overhead={overhead_s:.6g} s")
    spans = sorted(stats.items(), key=lambda kv: -kv[1].self_s)
    for name, st in spans:
        print(f"  {name:<34} calls={st.calls:<8d} busy_s={st.busy_s:<10.4f} "
              f"self_s={st.self_s:.4f}")
    attributed = sum(st.self_s for _, st in spans)
    print(f"self times sum to {attributed:.6g} s of {root.busy_s:.6g} s traced wall "
          f"(unattributed remainder {root.self_s:.6g} s, "
          f"residual {attributed - root.busy_s:.3g} s)")
    print(f"per-suite calls: {sum(suite_s.values()):.6g} s over {len(suite_s)} suites "
          f"against untraced run_s {untraced_s:.6g} s")
    top = next(name for name, _ in spans if name != TRACE_ROOT)
    predicted = PREDICTED_TOP[workload]
    verdict = "holds" if top == predicted else f"does not hold (largest is {top})"
    print(f"prediction: largest self time is {predicted}: {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pin_environment()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    check = ReportCheck(args.workload, args.seed)
    if args.trace:
        wanted = spec["per_layer"]
        stats, suite_s, overhead_s, untraced_s = measure_layers(
            args.workload, args.seed, check)
        print_trace(args.workload, stats, suite_s, overhead_s, untraced_s)
        values = {m["name"]: layer_value(m["name"], stats, suite_s, overhead_s)
                  for m in wanted}
    else:
        wanted = spec["end_to_end"]
        samples = measure_end_to_end(args.workload, args.seed, args.seconds, check)
        print_samples(samples, {m["name"]: m["unit"] for m in wanted})
        values = {m["name"]: statistics.median(samples[m["name"]]) for m in wanted}

    frac = check.failed / check.attempted
    print(f"checks_failed_frac       {frac:.6g} ratio  ({check.failed} of "
          f"{check.attempted} rows over n={check.reports} reports; golden sha256 "
          f"{'compared' if check.golden else 'not listed for this seed'})")
    for note in check.notes:
        print(f"check: {note}")
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
