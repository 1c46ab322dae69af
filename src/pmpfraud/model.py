"""Stacked per-relation message passing with a shared probability head.

Each relation runs its own stack of layers over the same input features;
the per-relation outputs are concatenated, passed through one hidden
readout layer with ReLU, and mapped to a fraud probability by a sigmoid
head. Hidden layers use ReLU, the last message passing layer is linear,
and dropout follows each layer's activation during training.
"""
from __future__ import annotations

import json
import numbers
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import ndiff as nd
from .graph import PartitionIndex, RelationalGraph
from .layer import LayerVariant, PmpLayerParams, bucket_sums, layer_forward

__all__ = ["ModelConfig", "PmpModel", "layer_one_sums", "model_forward", "loss"]

_MODEL_SIDECAR = "model.json"


@dataclass(frozen=True)
class ModelConfig:
    feature_dim: int
    hidden_dim: int
    num_layers: int = 1
    num_relations: int = 1
    variant: LayerVariant = field(default_factory=LayerVariant.full)

    def __post_init__(self):
        for name in ("feature_dim", "hidden_dim", "num_layers", "num_relations"):
            nd.check_setting(name, getattr(self, name), numbers.Integral, lambda v: v >= 1, "a positive integer")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(
            feature_dim=d["feature_dim"],
            hidden_dim=d["hidden_dim"],
            num_layers=d["num_layers"],
            num_relations=d["num_relations"],
            variant=LayerVariant.from_dict(d["variant"]),
        )


class PmpModel:
    """Per-relation layer stacks, concat readout, sigmoid head."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        self.layers = []
        for _ in range(config.num_relations):
            stack = []
            for l in range(config.num_layers):
                d_in = config.feature_dim if l == 0 else config.hidden_dim
                stack.append(PmpLayerParams(d_in, config.hidden_dim, rng))
            self.layers.append(stack)
        d_cat = config.num_relations * config.hidden_dim
        bound = np.sqrt(6.0 / (d_cat + config.hidden_dim))
        self.readout_W = nd.Tensor(rng.uniform(-bound, bound, (d_cat, config.hidden_dim)), requires_grad=True)
        self.readout_b = nd.Tensor(np.zeros(config.hidden_dim), requires_grad=True)
        bound = np.sqrt(6.0 / (config.hidden_dim + 1))
        self.head_w = nd.Tensor(rng.uniform(-bound, bound, (config.hidden_dim, 1)), requires_grad=True)
        self.head_b = nd.Tensor(np.zeros(1), requires_grad=True)

    def parameters(self) -> dict:
        out = {}
        for r, stack in enumerate(self.layers):
            for l, p in enumerate(stack):
                out.update(p.tensors(prefix=f"rel{r}.layer{l}."))
        out["readout.W"] = self.readout_W
        out["readout.b"] = self.readout_b
        out["head.w"] = self.head_w
        out["head.b"] = self.head_b
        return out

    def state(self) -> dict:
        """Copies of all parameter arrays, keyed like parameters()."""
        return {k: v.data.copy() for k, v in self.parameters().items()}

    def load_state(self, state: dict):
        for k, p in self.parameters().items():
            if k not in state:
                raise ValueError(f"parameter {k}: missing")
            arr = np.asarray(state[k], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ValueError(f"parameter {k}: shape {arr.shape} != {p.data.shape}")
            p.data = arr.copy()

    def save(self, directory: str):
        nd.save_checkpoint(directory, self.parameters())
        sidecar = json.dumps(self.config.to_dict(), indent=2).encode()
        nd.write_file_atomic(os.path.join(directory, _MODEL_SIDECAR), sidecar)

    @classmethod
    def load(cls, directory: str) -> "PmpModel":
        path = os.path.join(directory, _MODEL_SIDECAR)
        sidecar = nd.read_json_object(path)
        try:
            model = cls(ModelConfig.from_dict(sidecar), seed=0)
        except (KeyError, ValueError) as err:
            raise ValueError(f"{path}: malformed model config ({err!r})") from err
        state = nd.load_checkpoint(directory)
        try:
            model.load_state(state)
        except ValueError as err:
            raise ValueError(f"{directory}: {err}") from err
        return model


def layer_one_sums(graph: RelationalGraph, partition: PartitionIndex, features) -> list:
    """Layer 1's bucket-sum table over every node, one tensor per relation.

    Layer 1 sums raw features, so its bucket sums depend on the graph, the
    train-label partition and the features, never on the weights or the
    variant: one table serves every batch and scoring chunk of a pass.
    Each table is [3n, d], row b * n + i holding node i's bucket-b sum.
    The CSR lists each node's neighbors in the order a batch lists them,
    so every row is bitwise the sum ``model_forward`` would make for that
    node on its own.
    """
    feats = features if isinstance(features, nd.Tensor) else nd.Tensor(features)
    n = graph.num_nodes
    tables = []
    for r in range(graph.num_relations):
        members = graph.col_indices[r]
        tables.append(bucket_sums(feats, members, graph.row_indices(r), partition.bucket[members], n))
    return tables


def model_forward(
    model: PmpModel,
    graph: RelationalGraph,
    partition: PartitionIndex,
    features,
    batch,
    training: bool = False,
    seed: int = 0,
    epoch: int = 0,
    batch_index: int = 0,
    dropout_p: float = 0.0,
    sums: list | None = None,
) -> nd.Tensor:
    """Fraud probabilities for ``batch``, strictly inside (0, 1).

    Representations are computed on demand for each layer's centers, so
    cost scales with the batch neighborhood, not the graph. Every layer
    reads its centers' bucket sums from a ``bucket_sums`` table. Layer 1's
    is ``sums``, the whole-graph tables of ``layer_one_sums`` for these
    graph, partition and features, when the caller built them
    once for a pass of many batches; layer 1 then lists no neighborhoods
    and sums nothing, and only gathers its centers' rows. Without
    ``sums`` layer 1 sums its own centers' neighborhoods straight from the
    feature table, whose rows its members and centers index by node id; a
    column-major table, as ``NodeTable`` stores it, is summed without a
    transposed copy. Both give bitwise the same scores. Each layer l >= 2
    sums layer l - 1's output over the one-hop frontier of its centers.
    Neighborhoods are listed once per layer: the same members mark the
    frontier and feed the aggregation. Frontiers come from marking ids in
    a node mask, and ids map to frontier rows through a dense lookup
    table, so neither step sorts. ``batch`` may be unsorted and repeat
    ids; score i belongs to batch[i]. ``features`` may be a
    gradient-enabled tensor for sensitivity analysis; a shared table
    carries no gradient back to it, so such callers pass no ``sums``.
    With ``training`` on and ``dropout_p`` > 0, dropout follows each
    layer; its masks are keyed by (seed, relation, layer, epoch,
    batch_index) and replay exactly.
    """
    cfg = model.config
    if graph.num_relations != cfg.num_relations:
        raise ValueError(f"model expects {cfg.num_relations} relations, graph has {graph.num_relations}")
    batch = np.asarray(batch, dtype=np.int64)
    if batch.ndim != 1 or batch.size == 0:
        raise ValueError("batch must be a non-empty 1-d list of node ids")
    if batch.min() < 0 or batch.max() >= graph.num_nodes:
        raise ValueError("batch node index out of range")
    feats = features if isinstance(features, nd.Tensor) else nd.Tensor(features)
    if feats.shape != (graph.num_nodes, cfg.feature_dim):
        raise ValueError(f"features must be [{graph.num_nodes}, {cfg.feature_dim}]")
    if sums is not None:
        shape = (3 * graph.num_nodes, cfg.feature_dim)
        if len(sums) != cfg.num_relations or any(t.shape != shape for t in sums):
            raise ValueError(f"sums must be {cfg.num_relations} layer-one table(s) of shape {list(shape)}")

    # Row of each frontier node (layers 2 and up); entries outside the current frontier are stale.
    row_of = np.empty(graph.num_nodes, dtype=np.int64)
    listed = 1 if sums is None else 2  # the lowest layer that lists its centers' neighborhoods
    per_relation = []
    for r in range(cfg.num_relations):
        fronts = [None] * (cfg.num_layers + 1)
        hoods = [None] * (cfg.num_layers + 1)
        fronts[cfg.num_layers] = batch
        for l in range(cfg.num_layers, listed - 1, -1):
            hoods[l] = graph.neighbor_segments(r, fronts[l])
            if l > 1:
                mark = np.zeros(graph.num_nodes, dtype=bool)
                mark[fronts[l]] = True
                mark[hoods[l][0]] = True
                fronts[l - 1] = np.flatnonzero(mark)
        h = h_gate_src = feats
        for l in range(1, cfg.num_layers + 1):
            centers = fronts[l]
            if l < listed:
                table, rows = sums[r], centers
            else:
                members, seg_ids = hoods[l]
                bucket = partition.bucket[members]  # by node id, before the remap to rows
                if l > 1:
                    row_of[fronts[l - 1]] = np.arange(fronts[l - 1].size)
                    members, centers = row_of[members], row_of[centers]
                table = bucket_sums(h, members, seg_ids, bucket, centers.size)
                rows = np.arange(centers.size)
            act = layer_forward(
                model.layers[r][l - 1],
                cfg.variant,
                table,
                rows,
                nd.gather_rows(h, centers),
                nd.gather_rows(h_gate_src, centers),
                use_relu=(l < cfg.num_layers),
            )
            if dropout_p > 0.0:
                key = np.random.SeedSequence(entropy=seed, spawn_key=(r, l, epoch, batch_index))
                h = nd.dropout(act, dropout_p, training, key)
            else:
                h = act
            h_gate_src = act
        per_relation.append(h)

    cat = per_relation[0] if len(per_relation) == 1 else nd.concat(per_relation, axis=1)
    hidden = nd.relu(nd.add_rowvec(nd.matmul(cat, model.readout_W), model.readout_b))
    logits = nd.add_rowvec(nd.matmul(hidden, model.head_w), model.head_b)
    return nd.sigmoid(nd.reshape(logits, (batch.size,)))


def loss(probs: nd.Tensor, labels: np.ndarray, batch, pos_weight: float | None = None) -> nd.Tensor:
    """Mean negated Bernoulli log likelihood of the batch labels.

    ``pos_weight``, when set, reweights fraud examples by that factor
    (weighted mean); by default every example counts equally.
    """
    batch = np.asarray(batch, dtype=np.int64)
    if batch.size == 0:
        raise ValueError("empty batch")
    y = np.asarray(labels)[batch].astype(np.float64)
    per_example = nd.binary_cross_entropy(probs, y)
    if pos_weight is None:
        return nd.mean(per_example)
    w = np.where(y == 1, float(pos_weight), 1.0)
    weighted = nd.mul(per_example, nd.Tensor(w))
    return nd.affine(nd.mean(weighted), y.size / w.sum())
