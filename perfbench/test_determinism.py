#!/usr/bin/env python3
"""Determinism test of the benchmark.

Run from the repository root:

    python3 perfbench/test_determinism.py [--workload NAME] [--seed N] [--held-out N]

For every workload it checks that
  - two runs with one seed give byte-identical virtual-time end-to-end
    metrics and byte-identical deterministic per-layer metrics (`sim.events`
    among them);
  - a held-out second seed passes every output check, traced and untraced;
  - each run prints exactly the metrics BENCHMARK.json lists.
Exits non-zero on the first difference.
"""

import argparse
import json
import subprocess
import sys

# End-to-end metrics measured in virtual time: equal for equal seeds.
VIRTUAL_E2E = ["ckpt_ms_p50", "restart_ms_p50", "stored_mb"]

# Per-layer metrics that count work or read the virtual clock.
DETERMINISTIC_LAYER = {
    "sim.events", "simos.events", "simnet.events", "simnet.retransmits",
    "simnet.window_stalls", "simnet.retx_ratio", "apps.kv.retry_ratio",
    "apps.kv.timeouts", "apps.kv.reconnects", "apps.kv.client_ms_p50",
    "apps.kv.client_ms_p99", "apps.kv.client_samples", "zapc.agent.events",
    "zapc.ctrl.msgs", "zapc.restart.conn_ms", "netckpt.net_ms",
    "netckpt.sockets", "zapc.detect_ms", "zapc.mttr_ms",
    "zapc.mig.blackout_ms", "zapc.mig.rounds", "zapc.mig.precopy_ratio",
    "zapc.storage.delta_resolved", "ckpt.image_mb", "ckpt.delta_ratio",
    "obs.spans", "host.alloc_mwords"}


def run(workload, seed, trace):
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "0", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: exit "
                 f"{proc.returncode}\n{proc.stdout}")
    return result["metrics"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--held-out", type=int, default=29)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    for w in names:
        a0, b0 = run(w, args.seed, 0), run(w, args.seed, 0)
        a1, b1 = run(w, args.seed, 1), run(w, args.seed, 1)
        for got, want in ((a0, e2e_names), (a1, layer_names)):
            if set(got) != want:
                sys.exit(f"FAIL {w}: metrics {sorted(set(got) ^ want)} "
                         "differ from BENCHMARK.json")
        same = [m for m in VIRTUAL_E2E if a0[m] == b0[m]]
        layer = [m for m in a1
                 if m in DETERMINISTIC_LAYER or m.startswith("zapc.critpath.")]
        same_layer = [m for m in layer if a1[m] == b1[m]]
        if len(same) != len(VIRTUAL_E2E) or len(same_layer) != len(layer):
            diff = [(m, a0[m], b0[m]) for m in VIRTUAL_E2E if a0[m] != b0[m]]
            diff += [(m, a1[m], b1[m]) for m in layer if a1[m] != b1[m]]
            sys.exit(f"FAIL {w}: seed {args.seed} is not deterministic: {diff}")
        run(w, args.held_out, 0)
        run(w, args.held_out, 1)
        print(f"ok {w}: {len(same)} virtual end-to-end and {len(layer)} "
              f"per-layer metrics repeat; seed {args.held_out} passes")


if __name__ == "__main__":
    main()
