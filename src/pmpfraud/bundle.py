"""Dataset bundle directory format.

A bundle holds one dataset:

    meta.json       num_nodes, num_relations, feature_dim
    edges_r<k>.csv  one "src,dst" pair per line per relation k
    features.csv    N rows of d comma-separated values, or
    features.f32    row-major little-endian 4-byte floats (N * d values)
    labels.csv      "node,label" with label in {0, 1}
    splits.csv      "node,split" with split in {train, val, test}

The meta.json sizes must be positive JSON integers; they are checked, not
coerced. labels.csv and splits.csv share one per-node reader, which requires
every node exactly once; split names become codes as they are parsed. The
edge, label and split CSVs must have their header line; one with nothing
below it has no rows, so a header-only edges file is a relation with no
edges. features.csv has no header line, and all four CSVs go through one
reader, so an empty features.csv is a row-count error.
Loaders validate counts, ranges, and finiteness, and raise BundleError
naming the offending file.
"""
from __future__ import annotations

import io
import json
import numbers
import os

import numpy as np

from . import ndiff as nd
from .graph import SPLIT_NAMES, NodeTable, RelationalGraph, split_index

__all__ = ["BundleError", "load_bundle", "write_bundle"]

_META_SIZES = ("num_nodes", "num_relations", "feature_dim")


class BundleError(ValueError):
    """A bundle file is missing, malformed, or inconsistent with meta.json."""


def _load_csv(path: str, columns: int, header: bool = True, dtype=np.int64, converters=None) -> np.ndarray:
    """The rows of a ``columns``-column CSV, below its header line when
    ``header`` is set; ``dtype`` and ``converters`` as for ``np.loadtxt``.

    A file with no rows (only its header line, blank lines or ``#``
    comments) has 0 rows; a file that should have a header line and is
    empty is an error.
    """
    try:
        # Peek before parsing: np.loadtxt warns on stderr when it finds no rows.
        with open(path) as fh:
            has_header = not header or bool(fh.readline())
            has_rows = any(line.split("#", 1)[0].strip() for line in iter(fh.readline, ""))
        data = np.empty((0, columns), dtype=dtype)
        if has_rows:
            data = np.loadtxt(path, delimiter=",", skiprows=int(header), dtype=dtype, ndmin=2, converters=converters)
    except FileNotFoundError:
        raise BundleError(f"missing file: {path}") from None
    except OSError as err:
        raise BundleError(f"{path}: cannot read: {err}") from None
    except ValueError as err:
        raise BundleError(f"{path}: {err}" + (f" ({err.__cause__})" if err.__cause__ else "")) from err
    if not has_header:
        raise BundleError(f"{path}: empty file, expected a header line")
    if data.shape[1] != columns:
        raise BundleError(f"{path}: expected {columns} columns, got {data.shape[1]}")
    return data


def _load_node_column(path: str, n: int, converters=None) -> np.ndarray:
    """Column 1 of a "node,value" CSV, indexed by node; every node must appear exactly once."""
    rows = _load_csv(path, 2, converters=converters)
    if rows.shape[0] != n:
        raise BundleError(f"{path}: row-count mismatch, expected {n} rows, got {rows.shape[0]}")
    if not np.array_equal(np.sort(rows[:, 0]), np.arange(n)):
        raise BundleError(f"{path}: node column must cover 0..{n - 1} exactly once")
    column = np.empty(n, dtype=np.int64)
    column[rows[:, 0]] = rows[:, 1]
    return column


def load_bundle(path: str):
    """Read a bundle directory. Returns (RelationalGraph, NodeTable)."""
    meta_path = os.path.join(path, "meta.json")
    try:
        meta = nd.read_json_object(meta_path)
        for key in _META_SIZES:
            nd.check_setting(f"{meta_path}: {key}", meta.get(key), numbers.Integral, lambda v: v >= 1,
                             "a positive integer")
    except ValueError as err:
        raise BundleError(str(err)) from err
    n, num_relations, d = (meta[key] for key in _META_SIZES)

    edge_lists = []
    for r in range(num_relations):
        edge_path = os.path.join(path, f"edges_r{r}.csv")
        edges = _load_csv(edge_path, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise BundleError(f"{edge_path}: node index out of range [0, {n})")
        edge_lists.append(edges)
    graph = RelationalGraph.from_edge_lists(n, edge_lists)

    csv_path = os.path.join(path, "features.csv")
    f32_path = os.path.join(path, "features.f32")
    if os.path.exists(csv_path):
        features = _load_csv(csv_path, d, header=False, dtype=np.float64)
        if features.shape[0] != n:
            raise BundleError(f"{csv_path}: row-count mismatch, expected {n} rows, got {features.shape[0]}")
    elif os.path.exists(f32_path):
        try:
            raw = np.fromfile(f32_path, dtype="<f4")
        except OSError as err:
            raise BundleError(f"{f32_path}: cannot read: {err}") from None
        if raw.size != n * d:
            raise BundleError(f"{f32_path}: row-count mismatch, expected {n * d} values, got {raw.size}")
        features = raw.reshape(n, d)  # NodeTable widens it to float64 in its own copy
    else:
        raise BundleError(f"missing file: {csv_path} (or {f32_path})")
    if not np.all(np.isfinite(features)):
        raise BundleError(f"{csv_path if os.path.exists(csv_path) else f32_path}: non-finite feature value")

    labels_path = os.path.join(path, "labels.csv")
    labels = _load_node_column(labels_path, n)
    if not np.isin(labels, (0, 1)).all():
        raise BundleError(f"{labels_path}: label outside {{0, 1}}")
    splits = _load_node_column(os.path.join(path, "splits.csv"), n, {1: lambda name: split_index(name.strip())})

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
        rows, cols = graph.row_indices(r), graph.col_indices[r]
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
