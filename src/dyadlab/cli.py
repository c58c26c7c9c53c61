"""Command-line entry points: generate fixtures, run suites, re-emit reports.

Exit codes: 0 when every selected check passed, 1 when some assertion
failed, 2 on configuration or I/O errors.

The report bits are reproducible only with BLAS pinned to one thread
(``OPENBLAS_NUM_THREADS=1``, and ``OMP_NUM_THREADS`` / ``MKL_NUM_THREADS``
likewise) on the same OpenBLAS core set: another thread count or kernel set
(``OPENBLAS_CORETYPE``) can add the terms of a product in another order and
move the last bit of a value.  ``timings.json`` records the thread variables
and the numpy version of each run.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from dyadlab import accretive as acc
from dyadlab import grid as gr
from dyadlab import measure as ms
from dyadlab.harness import ALL_SUITES, ExperimentConfig, _Runner, emit_report, run_suite


def _load_config(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
    else:
        cfg = ExperimentConfig()
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if getattr(args, "suite", None):
        changes["suites"] = tuple(s.strip() for s in args.suite.split(",") if s.strip())
    return replace(cfg, **changes)     # __post_init__ validates the result


def cmd_gen(args) -> int:
    """Write the measure, grids and accretive systems that ``run`` builds.

    The fixtures are the random-grid pair of the suites that use random
    grids, built through the same runner, so ``loads_system`` of
    ``system_f.json`` is the grid of that run's first context.
    """
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pairf = _Runner(cfg).pair(grids="random")
    ms.save_measure(pairf.measure, out / "measure.json")
    for tag, ctx in (("f", pairf.ctx_f), ("g", pairf.ctx_g)):
        (out / f"system_{tag}.json").write_text(gr.dumps_system(ctx.system),
                                                encoding="utf-8")
        (out / f"accretive_{tag}.json").write_text(acc.dumps_accretive(ctx.accretive),
                                                   encoding="utf-8")
    (out / "config.json").write_text(cfg.to_json(), encoding="utf-8")
    print(f"wrote fixtures for {pairf.measure.atom_count} atoms to {out}")
    return 0


def cmd_run(args) -> int:
    cfg = _load_config(args)
    report = run_suite(cfg)
    for line in report.summary_lines():
        print(line)
    if args.out:
        written = emit_report(report, args.out)
        print(f"wrote {', '.join(str(p) for p in written)}")
    failed = [c for c in report.checks if not c.passed]
    print(f"{len(report.checks) - len(failed)}/{len(report.checks)} checks passed "
          f"(config {report.config_hash}, seed {report.seed})")
    return 0 if report.passed else 1


def cmd_report(args) -> int:
    src = Path(args.out) / "report.json"
    if not src.exists():
        print(f"no report at {src}", file=sys.stderr)
        return 2
    data = json.loads(src.read_text(encoding="utf-8"))
    for check in data["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {check['suite']}/{check['name']} ({check['anchor']})")
    return 0 if data["passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dyadlab",
                                     description="dyadic-martingale verification lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate fixture files")
    p_gen.add_argument("--config", default=None)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="run verification suites")
    p_run.add_argument("--config", default=None)
    p_run.add_argument("--suite", default=None,
                       help="comma-separated subset of " + ",".join(ALL_SUITES))
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="re-print a stored report")
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
