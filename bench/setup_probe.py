"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py <workload> <seed>

Prints one JSON line {"setup_s": ...}: the wall seconds from before
``import dyadlab`` until the workload's measure, fixture pairs and operator
are built.  ``run.py`` starts this several times per run, because an import
can only be timed once per process.
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from workloads import build_inputs, pin_environment  # noqa: E402


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    pin_environment()
    import dyadlab  # noqa: F401
    build_inputs(workload, seed)
    print(json.dumps({"setup_s": time.perf_counter() - T0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
