"""Run the benchmark over several seeds and record the baseline.

Usage (from the repository root):

    python3 bench/baseline.py --seeds 1-10 [--workloads a,b] [--out bench/baseline.json]

Runs ``bench/run.py`` once per (workload, seed), one process at a time,
exactly as BENCHMARK.json's command runs it, then one traced run per
workload at the first seed.  For every end-to-end metric it records the
median, the quartiles of ``statistics.quantiles(values, n=4)`` and their
spread (q3 - q1) / median next to the metric's bound, and writes the host
provenance beside them.  Compare two commits by running this on each with
the same seeds.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import DROPPED, ROOT, THREAD_VARS, TRIALS_VAR, pin_environment

RUN_TIMEOUT_S = 900


def provenance() -> dict:
    """The host and library facts to keep beside the numbers."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        TRIALS_VAR: os.environ.get(TRIALS_VAR, "unset"),
    }


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    result["stdout"] = out.stdout.strip().splitlines()[:-1]
    return result


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    pin_environment()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    record = {"provenance": provenance(), "seeds": seeds, "dropped": DROPPED,
              "workloads": {}}
    for workload in names:
        runs = []
        for seed in seeds:
            res = run_once(spec, workload, seed, 0)
            runs.append(res)
            print(workload, seed, res["correct"], res["failed"], f"{res['wall_s']:.1f}s",
                  {k: round(v["value"], 4) for k, v in res["metrics"].items()},
                  flush=True)
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "max_wall_s": max(r["wall_s"] for r in runs)}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            entry[metric["name"]] = summarize(values, metric["bound"])
            print(f"  {metric['name']}: median {entry[metric['name']]['median']:.6g} "
                  f"spread {entry[metric['name']]['spread']:.4f} "
                  f"(bound {metric['bound']})", flush=True)
        traced = run_once(spec, workload, seeds[0], 1)
        entry["trace"] = {"seed": seeds[0], "wall_s": traced["wall_s"],
                          "summary": traced["stdout"],
                          "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        verdict = next(line for line in traced["stdout"] if line.startswith("prediction"))
        print(f"  traced run {traced['wall_s']:.1f}s: {verdict}", flush=True)
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
