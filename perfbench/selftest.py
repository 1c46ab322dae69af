"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For every workload, runs one short traced run and checks that
  - the run is correct (output checks, bitwise-equal traced parameters,
    identical counts across traced runs);
  - BENCHMARK.json lists exactly the metrics run.py prints, with its units;
  - every per-layer metric the workload should produce is non-zero, so a
    rename or move under src/ shows up here as a missing metric rather
    than as a silent zero in later runs;
  - the traced split has the expected shape: backward is the largest
    training phase on deep-ba, forward plus graph time dominates
    wide-multirel.
Exits non-zero and names each failure.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import run
from workloads import REPO_ROOT, WORKLOADS

# Per-layer metrics that are legitimately zero on a workload.
EXPECTED_ZERO = {
    "deep-ba": set(),
    "wide-multirel": {
        "ndiff.grad_subnormal_share",  # 1-layer d=8 gradients stay normal
        # With one layer these ops only touch the constant features, so they
        # are never recorded for backward.
        "ndiff.bwd.gather_rows_calls",
        "ndiff.bwd.segment_sum_calls",
        "ndiff.bwd.mul_calls",
    },
}


def traced_metrics(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_benchmark_json(failures: list):
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            failures.append(f"BENCHMARK.json {key} differs from run.py: {sorted(set(listed) ^ set(table))}")


def check_workload(workload: str, failures: list):
    result = traced_metrics(workload)
    if not result["correct"] or result["failed"]:
        failures.append(f"{workload}: traced run not correct ({result['failed']} of {result['attempted']} failed)")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    for name in run.PER_LAYER:
        if name not in EXPECTED_ZERO[workload] and not m.get(name):
            failures.append(f"{workload}: per-layer metric {name} is missing or zero")
    train_forward = m["model.model_forward_s"] - m["training.forward_scores_s"]
    phases = {
        "forward": train_forward,
        "backward": m["ndiff.backward_s"],
        "adam": m["training.adam_step_s"],
        "val_pass": m["training.val_pass_s"],
    }
    print(f"{workload}: training phases " + ", ".join(f"{k} {v:.3f} s" for k, v in phases.items()))
    if workload == "deep-ba" and max(phases, key=phases.get) != "backward":
        failures.append(f"deep-ba: backward is not the largest training phase: {phases}")
    if workload == "wide-multirel":
        forward_graph = m["model.model_forward_s"] + m["graph.partition_build_s"]
        total = m["training.train_s"] + m["training.forward_scores_s"] - m["training.val_pass_s"] \
            + m["graph.partition_build_s"]
        if forward_graph < 0.5 * total:
            failures.append(f"wide-multirel: forward plus graph time {forward_graph:.3f} s is under half of {total:.3f} s")


def main() -> int:
    failures = []
    check_benchmark_json(failures)
    for workload in WORKLOADS:
        check_workload(workload, failures)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
