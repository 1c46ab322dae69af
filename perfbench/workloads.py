"""Workload definitions shared by the input generator and the runner.

A run's inputs are a pure function of (workload, seed): ``input_seeds``
derives every seed the generator and the runner use from those two values.
"""
from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import dataclass

import numpy as np

FRAUD_FRACTION = 0.1
SPLIT_RATIOS = (0.4, 0.2, 0.4)
BATCH_SIZE = 512

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE_ROOT = os.path.join(REPO_ROOT, ".perfbench-cache")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    nodes: int
    attach: tuple  # BA attachment count per relation; one entry per relation
    features_format: str  # "csv" or "f32", as written by bundle.write_bundle
    feature_dim: int
    hidden_dim: int
    num_layers: int
    epochs: int  # train() runs exactly this many epochs (patience = epochs)
    inputs: int  # independent bundles per run; samples cycle through them
    setup_reps: int  # set-up repetitions before each sample
    score_reps: int  # whole-graph scoring passes and evaluate calls per sample


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="deep-ba",
            why="2-layer d=32 h=64 training on one BA relation; the saturated head makes backward the largest phase",
            nodes=3000,
            attach=(10,),
            features_format="f32",
            feature_dim=32,
            hidden_dim=64,
            num_layers=2,
            epochs=4,
            inputs=8,
            setup_reps=4,
            score_reps=3,
        ),
        Workload(
            name="wide-multirel",
            why="1-layer d=8 h=16 training on 3 BA relations from CSV; graph indexing and frontier building dominate",
            nodes=50000,
            attach=(10, 5, 2),
            features_format="csv",
            feature_dim=8,
            hidden_dim=16,
            num_layers=1,
            epochs=2,
            inputs=1,
            setup_reps=1,
            score_reps=1,
        ),
    )
}


def input_seeds(seed: int, index: int, num_relations: int) -> dict:
    """Seeds for input ``index`` of a run started with ``seed``."""
    state = np.random.SeedSequence([seed, index]).generate_state(num_relations + 3)
    vals = [int(v) for v in state]
    return {
        "relations": vals[:num_relations],
        "features": vals[num_relations],
        "splits": vals[num_relations + 1],
        "model": vals[num_relations + 2],
    }


def input_dir(workload: Workload, seed: int) -> str:
    """Cache directory holding bundles input0 .. input{k-1} of one run.

    The name carries a digest of the workload definition, so editing a
    workload never reuses inputs generated for the old one.
    """
    digest = hashlib.sha256(repr(workload).encode()).hexdigest()[:10]
    return os.path.join(CACHE_ROOT, f"{workload.name}-{digest}-s{seed}")


def use_repo_sources():
    """Make ``import pmpfraud`` load the package from this checkout's src/."""
    src = os.path.join(REPO_ROOT, "src")
    if not os.path.isdir(os.path.join(src, "pmpfraud")):
        raise SystemExit(f"perfbench: no pmpfraud package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
