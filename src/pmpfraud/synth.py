"""Synthetic graphs, features, and splits for experiments and benchmarks."""
from __future__ import annotations

import math
import numbers

import numpy as np

from .graph import RelationalGraph
from .ndiff import check_setting

__all__ = ["generate_ba_graph", "generate_features", "make_splits"]


def generate_ba_graph(n: int, m_attach: int, fraud_fraction: float, seed: int):
    """Preferential-attachment graph with randomly placed fraud labels.

    Starts from m_attach unconnected nodes; every later node attaches to
    m_attach distinct existing nodes with probability proportional to
    degree (the first arrival connects to all of the initial nodes), so
    the graph is connected and has exactly m_attach * (n - m_attach)
    edges. Returns (graph, labels) with round(n * fraud_fraction) fraud
    nodes chosen uniformly.
    """
    check_setting("n", n, numbers.Integral, lambda v: v >= 2, "an integer >= 2")
    check_setting("m_attach", m_attach, numbers.Integral, lambda v: 1 <= v < n, f"an integer in [1, n) = [1, {n})")
    check_setting("fraud_fraction", fraud_fraction, numbers.Real, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
    check_setting("seed", seed, numbers.Integral, lambda v: v >= 0, "a non-negative integer")
    rng = np.random.default_rng(seed)
    edges = np.empty((m_attach * (n - m_attach), 2), dtype=np.int64)
    # One entry per edge endpoint; sampling an index uniformly from this
    # list is sampling a node with probability proportional to its degree.
    repeated = []
    targets = list(range(m_attach))
    pos = 0
    for source in range(m_attach, n):
        for t in targets:
            edges[pos] = (source, t)
            pos += 1
        repeated.extend(targets)
        repeated.extend([source] * m_attach)
        if source + 1 < n:
            chosen = []
            while len(chosen) < m_attach:
                cand = repeated[rng.integers(len(repeated))]
                if cand not in chosen:
                    chosen.append(cand)
            targets = chosen
    graph = RelationalGraph.from_edge_lists(n, [edges])
    labels = np.zeros(n, dtype=np.int8)
    labels[rng.choice(n, size=int(round(n * fraud_fraction)), replace=False)] = 1
    return graph, labels


def generate_features(
    labels: np.ndarray,
    feature_dim: int = 8,
    mu_benign: float = 1.0,
    mu_fraud: float = 5.0,
    sigma: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Class-conditional Gaussian features, i.i.d. per dimension. Raises
    ValueError naming the setting unless ``feature_dim`` is a positive
    integer, ``sigma`` a finite number >= 0 and both means finite numbers."""
    check_setting("feature_dim", feature_dim, numbers.Integral, lambda v: v >= 1, "a positive integer")
    check_setting("sigma", sigma, numbers.Real, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
    for name, mu in (("mu_benign", mu_benign), ("mu_fraud", mu_fraud)):
        check_setting(name, mu, numbers.Real, math.isfinite, "a finite number")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    means = np.where(labels == 1, mu_fraud, mu_benign).astype(np.float64)
    return rng.normal(size=(labels.size, feature_dim)) * sigma + means[:, None]


def make_splits(n: int, ratios, seed: int = 0, stratify_labels=None) -> np.ndarray:
    """Assign each of n nodes to train (0) / val (1) / test (2).

    With ``stratify_labels`` given, each class is shuffled and cut
    separately, so class proportions per split land within one node of
    exact stratification.
    """
    ratios = tuple(float(r) for r in ratios)
    check_setting("ratios", ratios, tuple, lambda r: len(r) == 3 and min(r) >= 0 and abs(sum(r) - 1.0) <= 1e-9,
                  "three non-negative numbers summing to 1")
    rng = np.random.default_rng(seed)
    out = np.empty(n, dtype=np.int8)
    if stratify_labels is None:
        groups = [np.arange(n, dtype=np.int64)]
    else:
        stratify_labels = np.asarray(stratify_labels)
        if stratify_labels.shape != (n,):
            raise ValueError("stratify_labels must have one entry per node")
        groups = [np.flatnonzero(stratify_labels == v) for v in np.unique(stratify_labels)]
    for ids in groups:
        perm = rng.permutation(ids)
        c1 = int(round(ratios[0] * ids.size))
        c2 = int(round((ratios[0] + ratios[1]) * ids.size))
        out[perm[:c1]] = 0
        out[perm[c1:c2]] = 1
        out[perm[c2:]] = 2
    return out
