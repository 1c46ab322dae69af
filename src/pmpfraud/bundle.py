"""Dataset bundle directory format.

A bundle holds one dataset:

    meta.json       num_nodes, num_relations, feature_dim
    edges_r<k>.csv  one "src,dst" pair per line per relation k
    features.csv    N rows of d comma-separated values, or
    features.f32    row-major little-endian 4-byte floats (N * d values)
    labels.csv      "node,label" with label in {0, 1}
    splits.csv      "node,split" with split in {train, val, test}

Loaders validate counts, ranges, and finiteness, and raise BundleError
naming the offending file.
"""
from __future__ import annotations

import csv
import io
import json
import os

import numpy as np

from . import ndiff as nd
from .graph import SPLIT_NAMES, NodeTable, RelationalGraph

__all__ = ["BundleError", "load_bundle", "write_bundle"]


class BundleError(ValueError):
    """A bundle file is missing, malformed, or inconsistent with meta.json."""


def _require(path: str) -> str:
    if not os.path.exists(path):
        raise BundleError(f"missing file: {path}")
    return path


def _load_int_csv(path: str, expect_cols: int) -> np.ndarray:
    _require(path)
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    except ValueError as err:
        raise BundleError(f"{path}: {err}") from err
    if data.size == 0:
        return np.empty((0, expect_cols), dtype=np.int64)
    if data.shape[1] != expect_cols:
        raise BundleError(f"{path}: expected {expect_cols} columns, got {data.shape[1]}")
    return data


def load_bundle(path: str):
    """Read a bundle directory. Returns (RelationalGraph, NodeTable)."""
    meta_path = _require(os.path.join(path, "meta.json"))
    with open(meta_path) as fh:
        meta = json.load(fh)
    try:
        n = int(meta["num_nodes"])
        num_relations = int(meta["num_relations"])
        d = int(meta["feature_dim"])
    except (KeyError, TypeError, ValueError) as err:
        raise BundleError(f"{meta_path}: bad or missing field ({err})") from err
    if n <= 0 or num_relations <= 0 or d <= 0:
        raise BundleError(f"{meta_path}: num_nodes, num_relations, feature_dim must be positive")

    edge_lists = []
    for r in range(num_relations):
        edge_path = os.path.join(path, f"edges_r{r}.csv")
        edges = _load_int_csv(edge_path, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise BundleError(f"{edge_path}: node index out of range [0, {n})")
        edge_lists.append(edges)
    graph = RelationalGraph.from_edge_lists(n, edge_lists)

    csv_path = os.path.join(path, "features.csv")
    f32_path = os.path.join(path, "features.f32")
    if os.path.exists(csv_path):
        try:
            features = np.loadtxt(csv_path, delimiter=",", ndmin=2, dtype=np.float64)
        except ValueError as err:
            raise BundleError(f"{csv_path}: {err}") from err
        if features.shape[0] != n:
            raise BundleError(f"{csv_path}: row-count mismatch, expected {n} rows, got {features.shape[0]}")
        if features.shape[1] != d:
            raise BundleError(f"{csv_path}: expected {d} columns, got {features.shape[1]}")
    elif os.path.exists(f32_path):
        raw = np.fromfile(f32_path, dtype="<f4")
        if raw.size != n * d:
            raise BundleError(f"{f32_path}: row-count mismatch, expected {n * d} values, got {raw.size}")
        features = raw.astype(np.float64).reshape(n, d)
    else:
        raise BundleError(f"missing file: {csv_path} (or features.f32)")
    if not np.all(np.isfinite(features)):
        raise BundleError(f"{csv_path if os.path.exists(csv_path) else f32_path}: non-finite feature value")

    labels_path = os.path.join(path, "labels.csv")
    rows = _load_int_csv(labels_path, 2)
    if rows.shape[0] != n:
        raise BundleError(f"{labels_path}: row-count mismatch, expected {n} rows, got {rows.shape[0]}")
    if not np.array_equal(np.sort(rows[:, 0]), np.arange(n)):
        raise BundleError(f"{labels_path}: node column must cover 0..{n - 1} exactly once")
    if not np.isin(rows[:, 1], (0, 1)).all():
        raise BundleError(f"{labels_path}: label outside {{0, 1}}")
    labels = np.zeros(n, dtype=np.int8)
    labels[rows[:, 0]] = rows[:, 1]

    splits_path = _require(os.path.join(path, "splits.csv"))
    splits = np.full(n, -1, dtype=np.int8)
    seen = 0
    with open(splits_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise BundleError(f"{splits_path}: empty file")
        for line in reader:
            if len(line) != 2:
                raise BundleError(f"{splits_path}: expected 2 columns, got {len(line)}")
            try:
                node = int(line[0])
            except ValueError as err:
                raise BundleError(f"{splits_path}: node id {line[0]!r} is not an integer") from err
            name = line[1].strip()
            if not 0 <= node < n:
                raise BundleError(f"{splits_path}: node index out of range [0, {n})")
            if name not in SPLIT_NAMES:
                raise BundleError(f"{splits_path}: unknown split {name!r}")
            splits[node] = SPLIT_NAMES.index(name)
            seen += 1
    if seen != n or (splits < 0).any():
        raise BundleError(f"{splits_path}: row-count mismatch, expected one row per node")

    try:
        table = NodeTable(features, labels, splits)
    except ValueError as err:
        raise BundleError(f"{path}: {err}") from err
    return graph, table


def write_bundle(path: str, graph: RelationalGraph, table: NodeTable, features_format: str = "csv"):
    """Write a bundle directory readable by load_bundle, each file atomically."""
    if features_format not in ("csv", "f32"):
        raise ValueError("features_format must be 'csv' or 'f32'")
    os.makedirs(path, exist_ok=True)
    meta = {
        "num_nodes": graph.num_nodes,
        "num_relations": graph.num_relations,
        "feature_dim": table.feature_dim,
    }
    nd.write_file_atomic(os.path.join(path, "meta.json"), json.dumps(meta, indent=2).encode())
    for r in range(graph.num_relations):
        rows = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees(r))
        cols = graph.col_indices[r]
        upper = rows < cols
        edges = (f"{u},{v}" for u, v in zip(rows[upper], cols[upper]))
        nd.write_csv_atomic(os.path.join(path, f"edges_r{r}.csv"), "src,dst", edges)
    if features_format == "csv":
        text = io.StringIO()
        np.savetxt(text, table.features, delimiter=",", fmt="%.17g")
        nd.write_file_atomic(os.path.join(path, "features.csv"), text.getvalue().encode())
    else:
        nd.write_file_atomic(os.path.join(path, "features.f32"), table.features.astype("<f4").tobytes())
    labels = (f"{i},{int(y)}" for i, y in enumerate(table.labels))
    nd.write_csv_atomic(os.path.join(path, "labels.csv"), "node,label", labels)
    splits = (f"{i},{SPLIT_NAMES[int(s)]}" for i, s in enumerate(table.splits))
    nd.write_csv_atomic(os.path.join(path, "splits.csv"), "node,split", splits)
