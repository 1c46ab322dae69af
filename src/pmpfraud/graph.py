"""Multi-relational graph storage and label-partitioned neighbor indexing.

Graphs are undirected and stored per relation in compressed row form:
every edge appears in both directions, each adjacency row is sorted, and
there are no self-loops or duplicates. The arrays are frozen after
construction; training never mutates the graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "RelationalGraph",
    "NodeTable",
    "PartitionIndex",
    "SPLIT_NAMES",
    "SPLIT_TRAIN",
    "SPLIT_VAL",
    "SPLIT_TEST",
    "split_index",
    "homophily_score",
    "neighborhood_label_ratio",
    "ratio_bin_count",
    "RatioHistogram",
    "MAX_RATIO_BINS",
]

SPLIT_NAMES = ("train", "val", "test")
SPLIT_TRAIN, SPLIT_VAL, SPLIT_TEST = 0, 1, 2

# The most finite bins a label-ratio histogram may have.
MAX_RATIO_BINS = 10_000


def split_index(name: str) -> int:
    """The code of split ``name`` in ``SPLIT_NAMES``; ValueError names an unknown one."""
    if name not in SPLIT_NAMES:
        raise ValueError(f"unknown split {name!r}, expected one of {', '.join(SPLIT_NAMES)}")
    return SPLIT_NAMES.index(name)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class RelationalGraph:
    """Per-relation CSR adjacency over a shared node set."""

    def __init__(self, num_nodes: int, row_offsets: list, col_indices: list):
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        if len(row_offsets) != len(col_indices) or not row_offsets:
            raise ValueError("need matching, non-empty offset/index lists")
        self.num_nodes = int(num_nodes)
        self.num_relations = len(row_offsets)
        self.row_offsets = [_freeze(np.asarray(o, dtype=np.int64)) for o in row_offsets]
        self.col_indices = [_freeze(np.asarray(c, dtype=np.int64)) for c in col_indices]
        for r in range(self.num_relations):
            if self.row_offsets[r].shape != (self.num_nodes + 1,):
                raise ValueError(f"relation {r}: row_offsets must have length num_nodes + 1")
            if self.row_offsets[r][-1] != self.col_indices[r].size:
                raise ValueError(f"relation {r}: offsets do not cover col_indices")

    @classmethod
    def from_edge_lists(cls, num_nodes: int, edge_lists) -> "RelationalGraph":
        """Build from per-relation (m, 2) integer edge arrays.

        Input edges may be directed, duplicated, or contain self-loops;
        the result is symmetrized, deduplicated, and loop-free.
        """
        offsets, indices = [], []
        for r, edges in enumerate(edge_lists):
            e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
            if e.size and (e.min() < 0 or e.max() >= num_nodes):
                raise ValueError(f"relation {r}: node index out of range [0, {num_nodes})")
            both = np.concatenate([e, e[:, ::-1]]) if e.size else e
            if both.size:
                both = both[both[:, 0] != both[:, 1]]
            if both.size:
                keys = np.sort(both[:, 0] * num_nodes + both[:, 1])
                keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
                rows = keys // num_nodes
                cols = keys % num_nodes
            else:
                rows = cols = np.empty(0, dtype=np.int64)
            off = np.zeros(num_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=num_nodes), out=off[1:])
            offsets.append(off)
            indices.append(cols)
        return cls(num_nodes, offsets, indices)

    def degrees(self, relation: int) -> np.ndarray:
        return np.diff(self.row_offsets[relation])

    def row_indices(self, relation: int) -> np.ndarray:
        """The row of every entry of ``col_indices[relation]``: entry k is the
        edge (row_indices(relation)[k], col_indices[relation][k])."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees(relation))

    def neighbors(self, relation: int, node: int) -> np.ndarray:
        off = self.row_offsets[relation]
        return self.col_indices[relation][off[node] : off[node + 1]]

    def num_edges(self, relation: int) -> int:
        """Undirected edge count."""
        return int(self.col_indices[relation].size) // 2

    def neighbor_segments(self, relation: int, centers: np.ndarray):
        """All neighbors of each center, flattened, with parallel segment ids.

        One ``np.repeat`` builds the segment ids; position j of center i's
        output run then reads CSR entry ``j + starts[i] - run_starts[i]``."""
        centers = np.asarray(centers, dtype=np.int64)
        off = self.row_offsets[relation]
        starts = off[centers]
        counts = off[centers + 1] - starts
        seg_ids = np.repeat(np.arange(centers.size, dtype=np.int64), counts)
        run_starts = np.cumsum(counts) - counts
        entries = np.arange(seg_ids.size, dtype=np.int64) + (starts - run_starts)[seg_ids]
        return self.col_indices[relation][entries], seg_ids

    def union(self) -> "RelationalGraph":
        """Single-relation graph over the union of all relations' edge sets."""
        pairs = []
        for r in range(self.num_relations):
            pairs.append(np.stack([self.row_indices(r), self.col_indices[r]], axis=1))
        return RelationalGraph.from_edge_lists(self.num_nodes, [np.concatenate(pairs)])


class NodeTable:
    """Features, binary labels, and split assignment for every node.

    Labels: 1 fraud, 0 benign. Splits: 0 train, 1 val, 2 test. Both label
    classes must appear in the train split; features must be finite.

    The table owns read-only copies of its three arrays; the caller's stay
    as they were. Features are stored column-major (float64, Fortran
    order): ``ndiff.gather_segment_sum`` sums one column at a time, so
    layer 1 then reads each column of the table in place instead of
    transposing the whole table on every call.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray, splits: np.ndarray):
        features = np.array(features, dtype=np.float64, order="F")
        labels = np.array(labels, dtype=np.int8)
        splits = np.array(splits, dtype=np.int8)
        if features.ndim != 2:
            raise ValueError("features must be [num_nodes, feature_dim]")
        n = features.shape[0]
        if labels.shape != (n,) or splits.shape != (n,):
            raise ValueError("labels and splits must be 1-d with one row per node")
        if not np.all(np.isfinite(features)):
            raise ValueError("non-finite feature value")
        if labels.size and not np.isin(labels, (0, 1)).all():
            raise ValueError("label outside {0, 1}")
        if splits.size and not np.isin(splits, (SPLIT_TRAIN, SPLIT_VAL, SPLIT_TEST)).all():
            raise ValueError("split outside {train, val, test}")
        train_labels = labels[splits == SPLIT_TRAIN]
        if not ((train_labels == 1).any() and (train_labels == 0).any()):
            raise ValueError("train split must contain both classes")
        self.features = _freeze(features)
        self.labels = _freeze(labels)
        self.splits = _freeze(splits)

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def split_ids(self, name: str) -> np.ndarray:
        return np.flatnonzero(self.splits == split_index(name))


class PartitionIndex:
    """Each node's bucket as a neighbor: 0 train-fraud, 1 train-benign,
    2 everything else (unlabeled).

    Bucket membership uses the labels of train-split nodes only; every
    val or test node is unlabeled by construction. A node's bucket
    depends on that node alone, so one ``int8`` entry serves it in every
    relation and every neighborhood. Built once per (graph, node table)
    and never updated during training.
    """

    def __init__(self, graph: RelationalGraph, bucket):
        bucket = np.asarray(bucket, dtype=np.int8)
        if bucket.shape != (graph.num_nodes,):
            raise ValueError("bucket must have one entry per node")
        self.graph = graph
        self.bucket = _freeze(bucket)

    @classmethod
    def build(cls, graph: RelationalGraph, labels: np.ndarray, train_mask: np.ndarray) -> "PartitionIndex":
        labels = np.asarray(labels)
        train_mask = np.asarray(train_mask, dtype=bool)
        if labels.shape != (graph.num_nodes,) or train_mask.shape != (graph.num_nodes,):
            raise ValueError("labels and train_mask must have one entry per node")
        return cls(graph, np.select([train_mask & (labels == 1), train_mask & (labels == 0)], [0, 1], 2))

    @classmethod
    def from_table(cls, graph: RelationalGraph, table: NodeTable) -> "PartitionIndex":
        return cls.build(graph, table.labels, table.splits == SPLIT_TRAIN)


def _resolve_single_relation(graph: RelationalGraph, relation) -> tuple:
    """Return the (rows, cols) of every edge entry of an int relation or 'union'."""
    if relation == "union":
        g = graph.union() if graph.num_relations > 1 else graph
        return g.row_indices(0), g.col_indices[0]
    try:
        relation = int(relation)
    except ValueError:
        raise ValueError(f"relation must be an integer index or 'union', got {relation!r}") from None
    if not 0 <= relation < graph.num_relations:
        raise ValueError(f"relation index {relation} out of range: the graph has {graph.num_relations} relation(s)")
    return graph.row_indices(relation), graph.col_indices[relation]


def homophily_score(graph: RelationalGraph, labels: np.ndarray, relation=0) -> float:
    """Class-insensitive edge homophily, in [0, 1].

    For each class k: eta_k is the fraction of same-class endpoints among
    all edges incident to class-k nodes, minus the class share |C_k| / N,
    clipped at zero; the score averages the excess over the classes minus
    one. A class whose members have no neighbors contributes zero. The
    arithmetic is exact (integer fractions) with one final float rounding.

    ``relation`` is a relation index or the string "union" for the
    edge-set union across relations.
    """
    labels = np.asarray(labels)
    if labels.shape != (graph.num_nodes,):
        raise ValueError("labels must have one entry per node")
    rows, cols = _resolve_single_relation(graph, relation)
    n = graph.num_nodes
    total = Fraction(0)
    classes = (0, 1)
    for k in classes:
        members = labels[rows] == k
        denom = int(members.sum())
        if denom == 0:
            continue
        same = int((members & (labels[cols] == k)).sum())
        eta = Fraction(same, denom)
        share = Fraction(int((labels == k).sum()), n)
        if eta > share:
            total += eta - share
    return float(total / (len(classes) - 1))


@dataclass(frozen=True)
class RatioHistogram:
    """Histogram of fraud/benign labeled-neighbor ratios over train nodes.

    ``bins`` rows are (lo, hi, count) with fixed width; the last finite
    bin is open above. ``infinite_count`` holds nodes with labeled fraud
    neighbors but zero labeled benign neighbors. Nodes with no labeled
    neighbors at all are excluded and reported in ``excluded_count``.
    """

    bins: list
    infinite_count: int
    num_counted: int
    excluded_count: int
    bin_width: float
    max_ratio: float

    def rows(self):
        out = [(lo, hi, c) for lo, hi, c in self.bins]
        out.append((float("inf"), float("inf"), self.infinite_count))
        return out


def ratio_bin_count(bin_width: float, max_ratio: float) -> int:
    """The finite bin count ``ceil(max_ratio / bin_width)`` of a label-ratio
    histogram. Raises ValueError naming the setting unless both are positive
    finite numbers, and naming both unless the count is at most
    ``MAX_RATIO_BINS``."""
    for name, value in (("bin_width", bin_width), ("max_ratio", max_ratio)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a positive finite number, got {value}")
    bins = max_ratio / bin_width
    if not bins <= MAX_RATIO_BINS:
        raise ValueError(f"max_ratio / bin_width must be at most {MAX_RATIO_BINS} bins, "
                         f"got max_ratio {max_ratio} and bin_width {bin_width}")
    return int(np.ceil(bins))


def neighborhood_label_ratio(
    graph: RelationalGraph,
    partition: PartitionIndex,
    relation=0,
    bin_width: float = 0.1,
    max_ratio: float = 2.0,
) -> RatioHistogram:
    """Distribution of |fraud| / |benign| among labeled neighbors.

    Centers and labeled neighbors are the model's own buckets: train-fraud
    (0) and train-benign (1) nodes of ``partition``, never a val or test label.
    ``bin_width`` and ``max_ratio`` are checked by ``ratio_bin_count``.
    """
    num_bins = ratio_bin_count(bin_width, max_ratio)
    rows, cols = _resolve_single_relation(graph, relation)
    fr = np.bincount(rows[partition.bucket[cols] == 0], minlength=graph.num_nodes)
    be = np.bincount(rows[partition.bucket[cols] == 1], minlength=graph.num_nodes)
    centers = np.flatnonzero(partition.bucket < 2)
    fr, be = fr[centers], be[centers]
    labeled = fr + be > 0
    excluded = int((~labeled).sum())
    fr, be = fr[labeled], be[labeled]
    infinite = int((be == 0).sum())
    finite_fr, finite_be = fr[be > 0], be[be > 0]
    ratio = finite_fr / finite_be
    edges = np.arange(num_bins + 1) * bin_width
    idx = np.minimum((ratio / bin_width).astype(np.int64), num_bins - 1)
    hist = np.bincount(idx, minlength=num_bins)
    bins = [
        (float(edges[i]), float(edges[i + 1]) if i < num_bins - 1 else float("inf"), int(hist[i]))
        for i in range(num_bins)
    ]
    return RatioHistogram(
        bins=bins,
        infinite_count=infinite,
        num_counted=int(labeled.sum()),
        excluded_count=excluded,
        bin_width=bin_width,
        max_ratio=max_ratio,
    )
