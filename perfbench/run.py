#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload kv_serve --seed 1 --seconds 15 --trace 0

Workloads: kv_serve, bt_ckpt, fleet_restart, restore_storm.  `--trace 0`
prints the end-to-end metrics, `--trace 1` the per-layer metrics of a traced
run (artifacts land in perfbench/out/).  The last line of standard output is
the JSON result; the exit code is non-zero when the build fails or any output
check fails.
"""

import os
import subprocess
import sys

TARGET = os.path.join("perfbench", "main.exe")
EXE = os.path.join("_build", "default", TARGET)
RUN_TIMEOUT_S = 175


def main():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            print(f"perfbench: {need} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    # keep every build artifact inside the checkout: no shared dune cache
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    try:
        return subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
