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
edges. Below the header line, a line of only whitespace or a ``#``
comment holds no row, wherever it is. features.csv has no header line,
and all four CSVs go through one reader, so an empty features.csv is a
row-count error.
Loaders validate counts, ranges, and finiteness, and raise BundleError
naming the offending file, and the line and column of a CSV row that does
not parse.
"""
from __future__ import annotations

import io
import itertools
import json
import numbers
import os
import re

import numpy as np

from . import files
from .graph import SPLIT_NAMES, NodeTable, RelationalGraph, split_index

__all__ = ["BundleError", "load_bundle", "write_bundle"]

_META_SIZES = ("num_nodes", "num_relations", "feature_dim")
_SPLIT_CODES = {name: split_index(name) for name in SPLIT_NAMES}


class BundleError(ValueError):
    """A bundle file is missing, malformed, or inconsistent with meta.json."""


def _holds_row(line: str) -> bool:
    """Whether a CSV line holds a row: more than whitespace before any ``#``."""
    return bool(line.split("#", 1)[0].strip())


def _load_csv(path: str, columns: int, header: bool = True, dtype=np.int64, converters=None) -> np.ndarray:
    """The rows of a ``columns``-column CSV, below its header line when
    ``header`` is set; ``dtype`` and ``converters`` as for ``np.loadtxt``.

    Below the header line, a line of only whitespace and a ``#`` comment
    holds no row, wherever it is, so a file of only such lines there has 0
    rows; a file that should have a header line and is empty is an error.
    """
    options = dict(delimiter=",", skiprows=int(header), dtype=dtype, ndmin=2, converters=converters)
    try:
        # Peek before parsing: np.loadtxt warns on stderr when it finds no rows.
        with open(path) as fh:
            has_header = not header or bool(fh.readline())
            has_rows = any(_holds_row(line) for line in iter(fh.readline, ""))
        data = np.empty((0, columns), dtype=dtype)
        if has_rows:
            try:
                data = np.loadtxt(path, **options)
            except ValueError:
                # np.loadtxt skips an empty line but reads one of whitespace as a one-field row, which never
                # parses. Read a refused file again with such lines emptied, so only a row that does not parse
                # is refused; numpy reads a path faster than these lines, so a good file is read once.
                with open(path) as fh:
                    data = np.loadtxt((line if _holds_row(line) else "\n" for line in fh), **options)
    except FileNotFoundError:
        raise BundleError(f"missing file: {path}") from None
    except OSError as err:
        raise BundleError(f"{path}: cannot read: {err}") from None
    except ValueError as err:
        raise BundleError(_at_line(path, err, int(header))) from err
    if not has_header:
        raise BundleError(f"{path}: empty file, expected a header line")
    if data.shape[1] != columns:
        raise BundleError(f"{path}: expected {columns} columns, got {data.shape[1]}")
    return data


def _at_line(path: str, err: ValueError, skipped: int) -> str:
    """``np.loadtxt``'s error on ``path`` naming the file's 1-based line,
    without numpy's advice to pass ``usecols``, which the reader fixes.

    numpy numbers the rows below the ``skipped`` lines that hold a row
    (``_holds_row``), from 0 when a field does not convert and from 1 when
    the column count changes; the line is counted here, only for a refused
    file.
    """
    message = str(err).split("; use `usecols`", 1)[0]
    found = re.search(r"at row (\d+)(, column \d+)?", message)
    line = None
    if found:
        with open(path) as fh:
            rows = (i for i, text in enumerate(fh, 1) if i > skipped and _holds_row(text))
            line = next(itertools.islice(rows, int(found[1]) - (found[2] is None), None), None)
    if line is None:
        return f"{path}: {message}"
    if err.__cause__:
        # A converter's error is the reason; numpy's text around it names a dtype the converter chose, not the file.
        return f"{path}: line {line}{found[2]}: {err.__cause__}"
    return f"{path}: " + message.replace(found[0], f"at line {line}{found[2] or ''}", 1)


def _split_code(name: str) -> int:
    """The code of a splits.csv name: a dict lookup, else ``split_index``
    of the stripped name, which parses a padded one and refuses the rest."""
    code = _SPLIT_CODES.get(name)
    return split_index(name.strip()) if code is None else code


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
        meta = files.read_json_object(meta_path)
        for key in _META_SIZES:
            files.check_setting(f"{meta_path}: {key}", meta.get(key), numbers.Integral, lambda v: v >= 1,
                                "a positive integer")
    except ValueError as err:
        raise BundleError(str(err)) from err
    n, num_relations, d = (meta[key] for key in _META_SIZES)

    edge_lists = []
    for r in range(num_relations):
        edge_path = os.path.join(path, f"edges_r{r}.csv")
        edges = _load_csv(edge_path, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise BundleError(f"{edge_path}: node index out of range [0, {n}) set by num_nodes in {meta_path}")
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
    splits = _load_node_column(os.path.join(path, "splits.csv"), n, {1: _split_code})

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
    files.write_file_atomic(os.path.join(path, "meta.json"), json.dumps(meta, indent=2).encode())
    for r in range(graph.num_relations):
        rows, cols = graph.row_indices(r), graph.col_indices[r]
        upper = rows < cols
        edges = (f"{u},{v}" for u, v in zip(rows[upper], cols[upper]))
        files.write_csv_atomic(os.path.join(path, f"edges_r{r}.csv"), "src,dst", edges)
    if features_format == "csv":
        text = io.StringIO()
        np.savetxt(text, table.features, delimiter=",", fmt="%.17g")
        files.write_file_atomic(os.path.join(path, "features.csv"), text.getvalue().encode())
    else:
        files.write_file_atomic(os.path.join(path, "features.f32"), table.features.astype("<f4").tobytes())
    labels = (f"{i},{int(y)}" for i, y in enumerate(table.labels))
    files.write_csv_atomic(os.path.join(path, "labels.csv"), "node,label", labels)
    splits = (f"{i},{SPLIT_NAMES[int(s)]}" for i, s in enumerate(table.splits))
    files.write_csv_atomic(os.path.join(path, "splits.csv"), "node,split", splits)
