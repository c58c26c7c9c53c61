"""The ``full-d2-n64`` and ``norms-d1-n512`` reports against the golden
sha256 table.

The reports are built in a fresh interpreter whose BLAS threads are pinned
by ``bench/workloads.pin_environment`` before numpy loads, as
``bench/check_golden.py`` does; this test only reads ``bench/golden.json``.
The interpreter runs with ``OPENBLAS_VERBOSE=2``, so OpenBLAS names on
stderr the core whose kernels it picked, and a failure names that core and
the SIMD extensions numpy found on the CPU.
"""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SEEDS = (7, 11)

SCRIPT = """
import json, sys
sys.path.insert(0, {bench!r})
from workloads import make_config, pin_environment, report_sha
pin_environment()
from dyadlab.harness import run_suite
print(json.dumps({{str(seed): report_sha(run_suite(make_config({workload!r}, seed)))
                  for seed in {seeds!r}}}))
"""


def _simd_features() -> str:
    """The SIMD extensions numpy found on this CPU, by numpy's names."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:             # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return " ".join(sorted(name for name, found in __cpu_features__.items() if found)) \
        or "(none)"


def _assert_matches_golden(workload: str) -> None:
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))[workload]
    script = SCRIPT.format(bench=str(BENCH), workload=workload, seeds=SEEDS)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=600, env={**os.environ, "OPENBLAS_VERBOSE": "2"})
    assert done.returncode == 0, done.stderr
    fresh = json.loads(done.stdout.splitlines()[-1])
    want = {str(seed): golden[str(seed)] for seed in SEEDS}
    core = re.search(r"^Core: *(\S+)", done.stderr, re.MULTILINE)
    assert fresh == want, (
        f"{workload} report sha256 differs from bench/golden.json; the reports "
        f"ran on the OpenBLAS {core.group(1) if core else '(unnamed)'} core "
        "(the `Core:` line under OPENBLAS_VERBOSE=2), with numpy's SIMD "
        f"extensions {_simd_features()}. golden.json matches the "
        "SkylakeX kernels, not Haswell or Sandybridge: report bits depend on "
        "the BLAS build, CPU and thread count (see the FOUND lines on BLAS in "
        "CHANGES.md), so the table holds for one host set-up; run "
        "`python3 bench/check_golden.py` on the parent commit of this host "
        "before treating a mismatch as a change in the program")


def test_full_d2_n64_reports_match_golden():
    _assert_matches_golden("full-d2-n64")


def test_norms_d1_n512_reports_match_golden():
    _assert_matches_golden("norms-d1-n512")
