"""pmpfraud benchmark runner.

    python3 perfbench/run.py --workload deep-ba --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload wide-multirel --seed 0 --seconds 40 --trace 1

Each run generates (or reuses) the inputs of (workload, seed) in a child
process, then drives only the public API: bundle.load_bundle, PmpModel,
training.train, training.forward_scores and training.evaluate. One sample
is the user pipeline set-up -> train -> score every node -> evaluate the
test split, and samples repeat until --seconds have passed and every input
has run. Every sample's outputs are checked; a failed operation or check
sets "correct" to false.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
pipelines with pipelines under perfbench/tracing.py, at least twice each,
and prints the per-layer metrics. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

# One BLAS thread: on a 2-core box a second BLAS thread roughly doubled the
# run-to-run spread of every timing. Set before numpy loads OpenBLAS; the
# generator child inherits it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from workloads import BATCH_SIZE, WORKLOADS, input_dir, input_seeds, use_repo_sources  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = {
    "setup_s": "s",
    "train_epoch_s": "s",
    "val_auc": "1",
    "score_nodes_per_s": "nodes/s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
}

HOT_OPS = ("matmul", "add", "mul", "add_rowvec", "row_scale", "affine", "sigmoid", "relu",
           "segment_sum", "gather_rows", "mean", "binary_cross_entropy", "reshape")

PER_LAYER = {
    "bundle.load_bundle_s": "s",
    "bundle.bytes_read": "B",
    "graph.partition_build_s": "s",
    "graph.partition_build_calls": "count",
    "graph.neighbor_segments_s": "s",
    "graph.neighbor_segments_calls": "count",
    "graph.neighbor_members": "count",
    "graph.bucket_segments_s": "s",
    "graph.bucket_members": "count",
    "model.model_forward_s": "s",
    "model.model_forward_self_s": "s",
    "model.loss_s": "s",
    "model.frontier_rows": "count",
    "model.frontier_useful_share": "1",
    "model.prob_clamped_share": "1",
    "layer.layer_forward_s": "s",
    "layer.layer_forward_calls": "count",
    "layer.aggregate_segments_s": "s",
    "layer.alpha_gate_s": "s",
    "layer.self_s": "s",
    **{f"ndiff.fwd.{op}_s": "s" for op in HOT_OPS},
    **{f"ndiff.fwd.{op}_calls": "count" for op in HOT_OPS},
    "ndiff.fwd.matmul_gflop": "GFLOP",
    "ndiff.fwd.gather_rows_mb": "MB",
    "ndiff.fwd.segment_sum_mb": "MB",
    "ndiff.backward_s": "s",
    **{f"ndiff.bwd.{op}_calls": "count" for op in HOT_OPS},
    "ndiff.grad_subnormal_share": "1",
    "training.train_s": "s",
    "training.self_s": "s",
    "training.adam_step_s": "s",
    "training.adam_steps": "count",
    "training.forward_scores_s": "s",
    "training.forward_scores_calls": "count",
    "training.val_pass_s": "s",
    "metrics.auc_s": "s",
    "metrics.compute_report_s": "s",
    "bench.trace_overhead_share": "1",
    "bench.uncovered_share": "1",
}

# Sample nodes compared between the chunked forward_scores and one model_forward.
CHECK_NODES = 64
SCORE_TOL = 1e-12


class StageFailed(Exception):
    """A pipeline operation raised; the sample is abandoned."""


class Ledger:
    """Attempted and failed operations: pipeline stages and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {name}", file=sys.stderr)

    def op(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as err:  # a benchmark boundary: record, count and move on
            self.failed += 1
            print(f"perfbench: {name} raised", file=sys.stderr)
            traceback.print_exc()
            raise StageFailed(name) from err


@dataclass
class Inputs:
    graph: object
    table: object
    partition: object
    model_seed: int
    index: int


@dataclass
class Sample:
    input_index: int
    train_s: float
    epochs: int
    score_s: list
    eval_s: list
    val_auc: float
    nodes: int
    state_hash: str


def model_config(wl):
    from pmpfraud.model import ModelConfig

    return ModelConfig(feature_dim=wl.feature_dim, hidden_dim=wl.hidden_dim,
                       num_layers=wl.num_layers, num_relations=len(wl.attach))


def set_up(dirs: list, index: int, wl, seed: int):
    """Bundle on disk to ready-to-call inputs; returns (seconds, Inputs)."""
    from pmpfraud import bundle, graph, model

    path = dirs[index]
    model_seed = input_seeds(seed, index, len(wl.attach))["model"]
    start = time.perf_counter()
    g, table = bundle.load_bundle(path)
    model.PmpModel(model_config(wl), seed=model_seed)
    partition = graph.PartitionIndex.from_table(g, table)
    return time.perf_counter() - start, Inputs(g, table, partition, model_seed, index)


def state_hash(model) -> str:
    h = hashlib.sha256()
    for name, arr in sorted(model.state().items()):
        h.update(f"{name}{arr.dtype}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def run_sample(inp: Inputs, wl, ledger: Ledger):
    """train -> score every node -> evaluate; returns (Sample, outputs) or None.

    Scoring and evaluation are short next to training, so each repeats
    ``wl.score_reps`` times and every repetition is a timing sample.
    """
    from pmpfraud import model, training

    m = model.PmpModel(model_config(wl), seed=inp.model_seed)
    config = training.TrainConfig(batch_size=BATCH_SIZE, max_epochs=wl.epochs, patience=wl.epochs,
                                  seed=inp.model_seed)
    ids = np.arange(inp.graph.num_nodes, dtype=np.int64)
    score_s, eval_s = [], []
    try:
        t0 = time.perf_counter()
        _, history = ledger.op("train", training.train, m, inp.graph, inp.table, config)
        train_s = time.perf_counter() - t0
        for _ in range(wl.score_reps):
            t0 = time.perf_counter()
            scores = ledger.op("forward_scores", training.forward_scores, m, inp.graph, inp.partition,
                               inp.table.features, ids)
            score_s.append(time.perf_counter() - t0)
        for _ in range(wl.score_reps):
            t0 = time.perf_counter()
            report = ledger.op("evaluate", training.evaluate, m, inp.graph, inp.table, "test")
            eval_s.append(time.perf_counter() - t0)
    except StageFailed:
        return None
    sample = Sample(input_index=inp.index, train_s=train_s, epochs=max(len(history.entries), 1),
                    score_s=score_s, eval_s=eval_s, val_auc=history.best_val_auc, nodes=ids.size,
                    state_hash=state_hash(m))
    return sample, (m, history, scores, report)


def verify(inp: Inputs, wl, outputs, ledger: Ledger, seed: int):
    """Output checks on one sample; each counts as one attempted operation."""
    from pmpfraud import metrics, model as model_mod

    m, history, scores, report = outputs
    losses = [loss for _, loss, _ in history.entries]
    ledger.check("train history has the requested epochs", len(history.entries) == wl.epochs)
    ledger.check("train losses are finite", bool(np.all(np.isfinite(losses))))
    ledger.check("scores are finite and inside (0, 1)",
                 bool(np.all(np.isfinite(scores)) and np.all((scores > 0) & (scores < 1))))
    n = inp.graph.num_nodes
    nodes = np.sort(np.random.default_rng(seed).choice(n, size=min(CHECK_NODES, n), replace=False))
    single = model_mod.model_forward(m, inp.graph, inp.partition, inp.table.features, nodes).data
    ledger.check("chunked forward_scores equals one model_forward",
                 bool(np.max(np.abs(single - scores[nodes])) <= SCORE_TOL))
    test = inp.table.split_ids("test")
    ledger.check("evaluate AUC equals metrics.auc of the scored test nodes",
                 abs(report.auc - metrics.auc(scores[test], inp.table.labels[test])) <= SCORE_TOL)


def ensure_inputs(wl, seed: int) -> list:
    path = input_dir(wl, seed)
    if not os.path.isdir(path):
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--workload", wl.name, "--seed", str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
    return [os.path.join(path, f"input{i}") for i in range(wl.inputs)]


def lower_quartile(values) -> float:
    """Reported timing statistic: host slow episodes only ever add time."""
    return values[0] if len(values) < 2 else statistics.quantiles(values, n=4, method="inclusive")[0]


def percentile_summary(values) -> str:
    """Median and the highest percentile with at least 10 samples beyond it."""
    values = sorted(values)
    n = len(values)
    tail = "-"
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            tail = f"p{p}={float(np.percentile(values, p)):.6g}"
            break
    return f"median={statistics.median(values):.6g} {tail} min={values[0]:.6g} max={values[-1]:.6g} n={n}"


def run_end_to_end(wl, args, dirs, ledger: Ledger) -> dict:
    setup_times, samples = [], []
    tried = 0
    start = time.perf_counter()
    # Every input runs at least once, so val_auc covers the same inputs on every run.
    # Set-up repeats before every sample, so its samples span the run as the others do.
    while tried < len(dirs) or time.perf_counter() - start < args.seconds:
        for _ in range(wl.setup_reps):
            dt, inp = set_up(dirs, tried % len(dirs), wl, args.seed)
            setup_times.append(dt)
        tried += 1
        out = run_sample(inp, wl, ledger)
        if out is None:
            continue
        sample, outputs = out
        verify(inp, wl, outputs, ledger, args.seed)
        samples.append(sample)
    if not samples:
        raise SystemExit("perfbench: every sample failed")

    auc_by_input = {s.input_index: s.val_auc for s in samples}
    score_pass_s = [t for s in samples for t in s.score_s]
    series = {
        "setup_s": setup_times,
        "train_epoch_s": [s.train_s / s.epochs for s in samples],
        "val_auc": [auc_by_input[i] for i in sorted(auc_by_input)],
        "score_nodes_per_s": [samples[0].nodes / t for t in score_pass_s],
        "eval_s": [t for s in samples for t in s.eval_s],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }
    reported = {
        "setup_s": lower_quartile(setup_times),
        "train_epoch_s": lower_quartile(series["train_epoch_s"]),
        "val_auc": statistics.fmean(series["val_auc"]),
        # The rate at the lower quartile of pass time, i.e. the upper quartile of rates.
        "score_nodes_per_s": samples[0].nodes / lower_quartile(score_pass_s),
        "eval_s": lower_quartile(series["eval_s"]),
        "peak_rss_mb": series["peak_rss_mb"][0],
    }
    for name, values in series.items():
        print(f"{wl.name} {name} [{END_TO_END[name]}] reported={reported[name]:.6g} {percentile_summary(values)}")
        print(f"{wl.name} {name} samples: " + " ".join(f"{v:.6g}" for v in values))
    share = ledger.failed / ledger.attempted
    print(f"{wl.name} failed_op_share [1] {share:.6g} of {ledger.attempted} attempted operations")
    return reported


def run_traced(wl, args, dirs, ledger: Ledger) -> dict:
    """Alternate untraced and traced pipelines on input 0, at least twice each.

    The first untraced pipeline is the reference: every traced one must end
    with bitwise-equal parameters and repeat its counts exactly.
    """
    from tracing import Tracer

    def pipeline():
        _, inp = set_up(dirs, 0, wl, args.seed)
        out = run_sample(inp, wl, ledger)
        if out is not None:
            verify(inp, wl, out[1], ledger, args.seed)
        return out

    ref = None
    runs, untraced_walls, traced_walls = [], [], []
    tries = 0
    start = time.perf_counter()
    while tries < 2 or time.perf_counter() - start < args.seconds:
        tries += 1
        w0 = time.perf_counter()
        out = pipeline()
        untraced_walls.append(time.perf_counter() - w0)
        if out is None:
            continue
        ref = ref or out[0]

        w0 = time.perf_counter()
        with Tracer() as tracer:
            t0 = tracer.now()
            out = pipeline()
            traced_clock = tracer.now() - t0
        traced_walls.append(time.perf_counter() - w0)
        for target in tracer.missing:
            print(f"perfbench: trace target missing: {target}", file=sys.stderr)
        if out is None:
            continue
        ledger.check("traced parameters bitwise equal to untraced", out[0].state_hash == ref.state_hash)
        m = tracer.metrics()
        m["bench.uncovered_share"] = 1.0 - tracer.top_level_s / traced_clock
        if runs:
            counts = {k: v for k, v in m.items() if is_count(k)}
            first = {k: v for k, v in runs[0].items() if is_count(k)}
            ledger.check("traced runs give identical counts", counts == first)
        runs.append(m)

    if not runs:
        raise SystemExit("perfbench: every traced pipeline failed")
    merged = {}
    for name in sorted(set().union(*runs)):
        values = [r.get(name, 0.0) for r in runs]
        merged[name] = values[0] if is_count(name) else statistics.median(values)
    merged["bench.trace_overhead_share"] = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    for name in sorted(merged):
        print(f"{wl.name} {name} {merged[name]:.6g}")
    print(f"{wl.name} traced pipelines {len(runs)}, untraced wall median {statistics.median(untraced_walls):.3f} s")
    return {name: merged.get(name, 0.0) for name in PER_LAYER}


def is_count(name: str) -> bool:
    """Deterministic per-layer metrics, which must repeat exactly across traced runs."""
    return not (name.endswith("_s") or name.startswith("bench."))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pmpfraud benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    use_repo_sources()
    wl = WORKLOADS[args.workload]
    dirs = ensure_inputs(wl, args.seed)
    ledger = Ledger()
    if args.trace:
        values, units = run_traced(wl, args, dirs, ledger), PER_LAYER
    else:
        values, units = run_end_to_end(wl, args, dirs, ledger), END_TO_END
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
