"""Spectral and sensitivity diagnostics.

Two questions about a trained (or hand-specified) model:

* does the bucketed aggregation really act as a label-conditioned graph
  filter? We check the algebraic mask identity and report per-node filter
  responses against the normalized Laplacian spectrum;
* how much does each neighbor class move a center's output? We
  differentiate the fraud probability of one node with respect to every
  input feature row and sum the entries per neighbor class, using ground
  truth labels to classify neighbors.

All dense linear algebra is capped; graphs above the cap are refused
rather than silently subsampled.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ndiff as nd
from .graph import NodeTable, PartitionIndex, RelationalGraph, _resolve_single_relation
from .model import PmpModel, model_forward

__all__ = [
    "DEFAULT_DENSE_CAP",
    "DenseCapExceeded",
    "normalized_laplacian",
    "eigendecompose",
    "mask_matrices",
    "k_matrix",
    "SpectralReport",
    "spatial_spectral_check",
    "influence",
    "InfluenceReport",
    "influence_report",
]

DEFAULT_DENSE_CAP = 2000


class DenseCapExceeded(RuntimeError):
    """The graph is too large for dense spectral analysis."""


def _check_cap(n: int, cap: int):
    if n > cap:
        raise DenseCapExceeded(f"dense analysis capped at {cap} nodes, graph has {n}")


def normalized_laplacian(graph: RelationalGraph, relation: int = 0, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Dense symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2}.

    Isolated nodes keep an identity row: their D^{-1/2} entry is defined
    as zero, so they couple to nothing. Eigenvalues lie in [0, 2].
    """
    n = graph.num_nodes
    rows, cols = _resolve_single_relation(graph, relation)
    _check_cap(n, cap)
    adj = np.zeros((n, n), dtype=np.float64)
    adj[rows, cols] = 1.0
    deg = adj.sum(axis=1)
    inv_sqrt = np.zeros(n, dtype=np.float64)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    return np.eye(n) - inv_sqrt[:, None] * adj * inv_sqrt[None, :]


def eigendecompose(laplacian: np.ndarray):
    """Eigenvectors and ascending eigenvalues of a symmetric matrix."""
    lam, U = np.linalg.eigh(laplacian)
    return U, lam


def mask_matrices(labels: np.ndarray, train_mask: np.ndarray):
    """Diagonal indicators (F, B) of train-fraud and train-benign nodes."""
    labels = np.asarray(labels)
    train_mask = np.asarray(train_mask, dtype=bool)
    if labels.shape != train_mask.shape:
        raise ValueError("labels and train_mask must have the same shape")
    F = np.diag((train_mask & (labels == 1)).astype(np.float64))
    B = np.diag((train_mask & (labels == 0)).astype(np.float64))
    return F, B


def k_matrix(F: np.ndarray, B: np.ndarray, alpha: float) -> np.ndarray:
    """Diagonal blend mask K = F + alpha * (I - F - B).

    Entries: 1 on train-fraud nodes, 0 on train-benign nodes, alpha
    elsewhere. K + (I - K) = I holds exactly.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    n = F.shape[0]
    eye = np.eye(n)
    return F + alpha * eye - alpha * F - alpha * B


@dataclass(frozen=True)
class SpectralReport:
    """Filter view of one bucketed aggregation step at blend level alpha.

    ``filter_responses`` rows are (node_index, lambda, g_fr, g_be): the
    per-node response of the fraud channel (1 - lambda) * K_jj and benign
    channel (1 - lambda) * (1 - K_jj), with eigenvalues in ascending
    order. ``spatial_identity_error`` is the max abs difference between
    the three-bucket aggregation form and its two-channel mask form;
    ``reconstruction_error`` is the eigendecomposition residual.
    """

    alpha: float
    eigenvalues: np.ndarray
    reconstruction_error: float
    spatial_identity_error: float
    filter_responses: np.ndarray

    def to_csv(self, path: str, meta_line: str = ""):
        rows = [f"{int(j)},{lam:.17g},{g_fr:.17g},{g_be:.17g}" for j, lam, g_fr, g_be in self.filter_responses]
        nd.write_csv_atomic(path, "node_index,lambda,g_fr,g_be", rows, meta_line)


def spatial_spectral_check(
    graph: RelationalGraph,
    labels: np.ndarray,
    train_mask: np.ndarray,
    X: np.ndarray,
    W_fr: np.ndarray,
    W_be: np.ndarray,
    alpha: float,
    relation: int = 0,
    cap: int = DEFAULT_DENSE_CAP,
) -> SpectralReport:
    """Verify that bucketed aggregation is a two-channel masked filter.

    With shared weights and every unlabeled node blended at the same
    alpha, summing the three bucket terms equals routing every node
    through the fraud channel with mask K and the benign channel with
    mask I - K:

        F X W_fr + B X W_be + (I - F - B) X (a W_fr + (1-a) W_be)
            = K X W_fr + (I - K) X W_be.

    The report carries the max abs deviation of that identity, the
    Laplacian eigendecomposition residual, and per-node two-channel
    responses (1 - lambda_j) K_jj and (1 - lambda_j) (1 - K_jj).
    """
    n = graph.num_nodes
    _check_cap(n, cap)
    X = np.asarray(X, dtype=np.float64)
    W_fr = np.asarray(W_fr, dtype=np.float64)
    W_be = np.asarray(W_be, dtype=np.float64)
    if X.shape[0] != n:
        raise ValueError("X must have one row per node")
    L = normalized_laplacian(graph, relation, cap)
    F, B = mask_matrices(labels, train_mask)
    K = k_matrix(F, B, alpha)
    eye = np.eye(n)
    lhs = F @ X @ W_fr + B @ X @ W_be + (eye - F - B) @ X @ (alpha * W_fr + (1.0 - alpha) * W_be)
    rhs = K @ X @ W_fr + (eye - K) @ X @ W_be
    identity_error = float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0

    U, lam = eigendecompose(L)
    reconstruction = float(np.max(np.abs(U @ np.diag(lam) @ U.T - L)))

    k_diag = np.diag(K)
    order = np.argsort(lam, kind="stable")
    rows = np.column_stack(
        [
            order.astype(np.float64),
            lam[order],
            (1.0 - lam[order]) * k_diag[order],
            (1.0 - lam[order]) * (1.0 - k_diag[order]),
        ]
    )
    return SpectralReport(
        alpha=float(alpha),
        eigenvalues=lam,
        reconstruction_error=reconstruction,
        spatial_identity_error=identity_error,
        filter_responses=rows,
    )


def _union_neighbors(graph: RelationalGraph, node: int) -> np.ndarray:
    parts = [graph.neighbors(r, node) for r in range(graph.num_relations)]
    return np.unique(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)


def influence(
    model: PmpModel,
    graph: RelationalGraph,
    table: NodeTable,
    center: int,
    partition: PartitionIndex | None = None,
):
    """Summed output sensitivity to fraud and benign neighbors.

    Differentiates the center's fraud probability with respect to every
    input feature row and reduces each neighbor's gradient row to a
    scalar by summing its entries. Neighbors (union over relations) are
    classified by ground-truth label; the model itself still sees only
    the train-label partition. Returns (i_fraud, i_benign).
    """
    if table.labels[center] != 1:
        raise ValueError(f"node {center} is not a fraud node")
    neighbors = _union_neighbors(graph, center)
    if neighbors.size == 0:
        raise ValueError(f"node {center} has no neighbors")
    if partition is None:
        partition = PartitionIndex.from_table(graph, table)
    feats = nd.Tensor(table.features, requires_grad=True)
    z = model_forward(model, graph, partition, feats, np.array([center]), training=False)
    nd.backward(z)
    grad = feats.grad
    fraud_nb = neighbors[table.labels[neighbors] == 1]
    benign_nb = neighbors[table.labels[neighbors] == 0]
    i_fraud = float(grad[fraud_nb].sum()) if fraud_nb.size else 0.0
    i_benign = float(grad[benign_nb].sum()) if benign_nb.size else 0.0
    return i_fraud, i_benign


@dataclass(frozen=True)
class InfluenceReport:
    """Per-fraud-node influence rows plus a fixed-width histogram of i_f - i_b.

    ``rows`` are (node, i_fraud, i_benign, diff), one per fraud node in
    the chosen split; neighbor-less fraud nodes get exact zeros.
    ``reduction`` records how gradient rows were collapsed to scalars.
    """

    rows: list
    bin_edges: np.ndarray
    bin_counts: np.ndarray
    split: str
    reduction: str = "entry-sum"

    def mean_diff(self) -> float:
        return float(np.mean([r[3] for r in self.rows])) if self.rows else 0.0

    def to_csv(self, path: str, meta_line: str = ""):
        rows = [f"{node},{i_f:.17g},{i_b:.17g},{diff:.17g}" for node, i_f, i_b, diff in self.rows]
        nd.write_csv_atomic(path, "node,I_f,I_b,diff", rows, meta_line)


def influence_report(
    model: PmpModel,
    graph: RelationalGraph,
    table: NodeTable,
    split: str | None = None,
    num_bins: int = 30,
) -> InfluenceReport:
    """Influence of every fraud node in ``split`` (all splits if None)."""
    if num_bins < 1:
        raise ValueError(f"num_bins must be at least 1, got {num_bins}")
    if split is None:
        candidates = np.flatnonzero(table.labels == 1)
    else:
        ids = table.split_ids(split)
        candidates = ids[table.labels[ids] == 1]
    partition = PartitionIndex.from_table(graph, table)
    rows = []
    for node in candidates:
        if _union_neighbors(graph, int(node)).size == 0:
            rows.append((int(node), 0.0, 0.0, 0.0))
            continue
        i_f, i_b = influence(model, graph, table, int(node), partition=partition)
        rows.append((int(node), i_f, i_b, i_f - i_b))
    diffs = np.array([r[3] for r in rows], dtype=np.float64)
    if diffs.size:
        lo, hi = float(diffs.min()), float(diffs.max())
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        edges = np.linspace(lo, hi, num_bins + 1)
        counts, _ = np.histogram(diffs, bins=edges)
    else:
        edges = np.linspace(0.0, 1.0, num_bins + 1)
        counts = np.zeros(num_bins, dtype=np.int64)
    return InfluenceReport(rows=rows, bin_edges=edges, bin_counts=counts, split=split or "all")
