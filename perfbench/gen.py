"""Seeded input generator: writes the bundles of one (workload, seed) run.

    python3 perfbench/gen.py --workload deep-ba --seed 3

Output goes to .perfbench-cache/<workload>-s<seed>/input<i>/ and is built
in a temporary directory that is renamed into place, so an interrupted
run never leaves a half-written cache entry. The runner calls this in a
child process, so generation is neither timed nor counted in peak memory.
"""
from __future__ import annotations

import argparse
import os
import shutil

import numpy as np

from workloads import FRAUD_FRACTION, SPLIT_RATIOS, WORKLOADS, input_dir, input_seeds, use_repo_sources


def write_input(path: str, workload, seeds: dict):
    from pmpfraud import bundle, graph, synth

    n = workload.nodes
    edge_lists, labels = [], None
    for m, rel_seed in zip(workload.attach, seeds["relations"]):
        g, lab = synth.generate_ba_graph(n, m, FRAUD_FRACTION, rel_seed)
        if labels is None:
            labels = lab  # relation 0 places the fraud labels
        rows = np.repeat(np.arange(n, dtype=np.int64), g.degrees(0))
        edge_lists.append(np.stack([rows, g.col_indices[0]], axis=1))
    multi = graph.RelationalGraph.from_edge_lists(n, edge_lists)
    features = synth.generate_features(labels, workload.feature_dim, seed=seeds["features"])
    splits = synth.make_splits(n, SPLIT_RATIOS, seed=seeds["splits"], stratify_labels=labels)
    table = graph.NodeTable(features, labels, splits)
    bundle.write_bundle(path, multi, table, features_format=workload.features_format)


def generate(workload, seed: int) -> str:
    final = input_dir(workload, seed)
    if os.path.isdir(final):
        return final
    tmp = f"{final}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        for i in range(workload.inputs):
            write_input(os.path.join(tmp, f"input{i}"), workload, input_seeds(seed, i, len(workload.attach)))
        try:
            os.rename(tmp, final)
        except OSError:
            if not os.path.isdir(final):  # else a concurrent run finished first
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args(argv)
    use_repo_sources()
    print(generate(WORKLOADS[args.workload], args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
