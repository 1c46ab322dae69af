"""Stacked per-relation message passing with a shared probability head.

Each relation runs its own stack of layers over the same input features;
the per-relation outputs are concatenated, passed through one hidden
readout layer with ReLU, and mapped to a fraud logit by a linear head.
Hidden layers use ReLU, the last message passing layer is linear, and
dropout follows each layer's activation during training. Each layer call
is one recorded op (``layer.layer_forward``) and so is the head
(``readout``). Training reads the logits (``model_logits``), which the
loss takes directly; scoring reads their logistic (``model_forward``).
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

__all__ = ["ModelConfig", "PmpModel", "check_sizes", "layer_one_sums", "model_logits", "model_forward", "readout",
           "loss"]

_MODEL_SIDECAR = "model.json"


def check_sizes(**sizes):
    """ValueError naming the first model size that is not a positive integer."""
    for name, value in sizes.items():
        nd.check_setting(name, value, numbers.Integral, lambda v: v >= 1, "a positive integer")


@dataclass(frozen=True)
class ModelConfig:
    feature_dim: int
    hidden_dim: int
    num_layers: int = 1
    num_relations: int = 1
    variant: LayerVariant = field(default_factory=LayerVariant.full)

    def __post_init__(self):
        check_sizes(feature_dim=self.feature_dim, hidden_dim=self.hidden_dim, num_layers=self.num_layers,
                    num_relations=self.num_relations)

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
    """Per-relation layer stacks, concat readout, logit head."""

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


def model_logits(
    model: PmpModel,
    graph: RelationalGraph,
    partition: PartitionIndex,
    features,
    batch,
    seed: int = 0,
    epoch: int = 0,
    batch_index: int = 0,
    dropout_p: float = 0.0,
    sums: list | None = None,
) -> nd.Tensor:
    """Fraud logits for ``batch``, one per id, from the ``readout`` op.

    Representations are computed on demand for each layer's centers, so
    cost scales with the batch neighborhood, not the graph. Every layer
    reads its centers' bucket sums from a ``bucket_sums`` table of exactly
    those centers. Layer 1's comes from ``sums``, the whole-graph tables of
    ``layer_one_sums`` for these graph, partition and features, when the
    caller built them once for a pass of many batches; layer 1 then lists
    no neighborhoods and sums nothing, and only gathers its centers' row of
    each block, whose adjoint adds back into the table. Without
    ``sums`` layer 1 sums its own centers' neighborhoods straight from the
    feature table, whose rows its members and centers index by node id; a
    column-major table, as ``NodeTable`` stores it, is summed without a
    transposed copy. Both give bitwise the same logits. Each layer l >= 2
    sums layer l - 1's output over the one-hop frontier of its centers.
    Neighborhoods are listed once per layer: the same members mark the
    frontier and feed the aggregation. Frontiers come from marking ids in
    a node mask, and ids map to frontier rows through a dense lookup
    table, so neither step sorts. ``batch`` may be unsorted and repeat
    ids; logit i belongs to batch[i]. ``features`` may be a
    gradient-enabled tensor for sensitivity analysis; layer 1's gradient
    then reaches it through ``sums`` only if the tables were built from it.
    With ``dropout_p`` > 0, dropout follows each layer; its masks are
    keyed by (seed, relation, layer, epoch, batch_index) and replay
    exactly.
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
    n = graph.num_nodes
    row_of = np.empty(n, dtype=np.int64)
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
                table = nd.gather_rows(sums[r], np.concatenate([centers, n + centers, 2 * n + centers]))
            else:
                members, seg_ids = hoods[l]
                bucket = partition.bucket[members]  # by node id, before the remap to rows
                if l > 1:
                    row_of[fronts[l - 1]] = np.arange(fronts[l - 1].size)
                    members, centers = row_of[members], row_of[centers]
                table = bucket_sums(h, members, seg_ids, bucket, centers.size)
            act = layer_forward(
                model.layers[r][l - 1],
                cfg.variant,
                table,
                nd.gather_rows(h, centers),
                nd.gather_rows(h_gate_src, centers),
                use_relu=(l < cfg.num_layers),
            )
            if dropout_p > 0.0:
                key = np.random.SeedSequence(entropy=seed, spawn_key=(r, l, epoch, batch_index))
                h = nd.dropout(act, dropout_p, key)
            else:
                h = act
            h_gate_src = act
        per_relation.append(h)

    return readout(model, per_relation)


def model_forward(*args, **kwargs) -> nd.Tensor:
    """Fraud probabilities for ``batch``, strictly inside (0, 1): the
    clamped logistic of ``model_logits``, which takes the same arguments."""
    return nd.sigmoid(model_logits(*args, **kwargs))


def readout(model: PmpModel, per_relation: list) -> nd.Tensor:
    """The batch's [b] logits from its [b, hidden] per-relation outputs,
    recorded as one op named ``readout``.

    With X the outputs side by side, W, b the readout layer and w, c the
    head:

        pre = X @ W + b,  hidden = relu(pre),  z = hidden @ w + c

    and with g the logits' upstream gradient as a column and
    G = (g w^T) * [pre > 0], the adjoint is

        dc = sum of g,  dw = hidden^T g,  db = column sums of G,
        dW = X^T G,  dX = G W^T, split back into the relations' blocks.

    The forward runs the arithmetic of the head composed of the engine's
    small ops (concat, matmul, add_rowvec, relu, matmul, add_rowvec,
    reshape) in their order, and so does the adjoint; no value fans out,
    so both are bitwise equal to that composition. A non-finite
    pre-activation raises, because ReLU would hide a NaN; every other
    intermediate reaches the logits, which ``ndiff`` checks.
    """
    params = (model.readout_W, model.readout_b, model.head_w, model.head_b)
    W, b, w, c = (t.data for t in params)
    X = per_relation[0].data if len(per_relation) == 1 else np.concatenate([t.data for t in per_relation], axis=1)
    k = X.shape[0]
    pre = X @ W
    pre += b
    if not np.all(np.isfinite(pre)):
        raise nd.NonFiniteError("readout: non-finite pre-activation")
    mask = pre > 0
    hidden = np.where(mask, pre, 0.0)
    z = hidden @ w
    z += c
    cuts = np.cumsum([t.shape[1] for t in per_relation])[:-1]

    def vjp(g):
        g = g.reshape(k, 1)
        g_pre = (g @ w.T) * mask
        g_X = np.split(g_pre @ W.T, cuts, axis=1)
        return (*g_X, X.T @ g_pre, g_pre.sum(axis=0), hidden.T @ g, g.sum(axis=0))

    return nd._make(z.reshape(k), "readout", (*per_relation, *params), vjp)


def loss(logits: nd.Tensor, labels: np.ndarray, batch, pos_weight: float | None = None) -> nd.Tensor:
    """Mean negated Bernoulli log likelihood of the batch labels, read from
    the batch's logits (``model_logits``).

    ``pos_weight``, when set, reweights fraud examples by that factor
    (weighted mean); by default every example counts equally.
    """
    batch = np.asarray(batch, dtype=np.int64)
    if batch.size == 0:
        raise ValueError("empty batch")
    y = np.asarray(labels)[batch].astype(np.float64)
    w = np.where(y == 1, 1.0 if pos_weight is None else float(pos_weight), 1.0)
    return nd.binary_cross_entropy(logits, y, w)
