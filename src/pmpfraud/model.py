"""Stacked per-relation message passing with a shared probability head.

Each relation runs its own stack of layers over the same input features;
the per-relation outputs are concatenated, passed through one hidden
readout layer with ReLU, and mapped to a fraud logit by a linear head.
Hidden layers use ReLU, the last message passing layer is linear, and
dropout follows each layer's activation during training. Training reads
the logits (``model_logits``), which the loss takes directly; scoring
reads their logistic (``model_forward``). Given an ``ndiff.GradientTape``,
each layer call, dropout, the head (``readout``) and the loss or the
logistic append one adjoint record to it, and the tape's walk writes the
weights' gradient into one flat array laid out like ``PmpModel.flat``.
"""
from __future__ import annotations

import hashlib
import json
import numbers
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import files
from . import ndiff as nd
from .graph import PartitionIndex, RelationalGraph
from .layer import LayerVariant, PmpLayerParams, bucket_sums, bucket_sums_adjoint, layer_forward

__all__ = ["ModelConfig", "PmpModel", "check_sizes", "layer_one_sums", "model_logits", "model_forward", "readout",
           "loss"]

_MODEL_JSON = "model.json"
_PARAMS_BIN = "params.bin"


def check_sizes(**sizes):
    """ValueError naming the first model size that is not a positive integer."""
    for name, value in sizes.items():
        files.check_setting(name, value, numbers.Integral, lambda v: v >= 1, "a positive integer")


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
    """Per-relation layer stacks, concat readout, logit head. Each layer
    holds only the blocks its variant reads. The weights are one float64
    array, ``flat``, in ``parameters()`` order; every block is a view of
    it, so write weights in place."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        self.layers = []
        for _ in range(config.num_relations):
            stack = []
            for l in range(config.num_layers):
                d_in = config.feature_dim if l == 0 else config.hidden_dim
                stack.append(PmpLayerParams(d_in, config.hidden_dim, config.variant, rng))
            self.layers.append(stack)
        d_cat = config.num_relations * config.hidden_dim
        bound = np.sqrt(6.0 / (d_cat + config.hidden_dim))
        self.readout_W = rng.uniform(-bound, bound, (d_cat, config.hidden_dim))
        self.readout_b = np.zeros(config.hidden_dim)
        bound = np.sqrt(6.0 / (config.hidden_dim + 1))
        self.head_w = rng.uniform(-bound, bound, (config.hidden_dim, 1))
        self.head_b = np.zeros(1)
        blocks = [getattr(owner, attr) for _, owner, attr in self._owners()]
        self.flat = np.concatenate(blocks, axis=None)
        parts = np.split(self.flat, np.cumsum([b.size for b in blocks])[:-1])
        for (_, owner, attr), block, part in zip(self._owners(), blocks, parts):
            setattr(owner, attr, part.reshape(block.shape))

    def _owners(self):
        """(name, holder, attribute) of every weight block, in ``flat``'s order."""
        for r, stack in enumerate(self.layers):
            for l, p in enumerate(stack):
                yield from ((f"rel{r}.layer{l}.{name}", p, name) for name in p.variant.weights)
        for attr in ("readout_W", "readout_b", "head_w", "head_b"):
            yield attr.replace("_", "."), self, attr

    def parameters(self) -> dict:
        """Every weight block by name, a view of ``flat``, in its order."""
        return {name: getattr(owner, attr) for name, owner, attr in self._owners()}

    def state(self) -> dict:
        """Copies of all parameter arrays, keyed like parameters()."""
        return {k: v.copy() for k, v in self.parameters().items()}

    def save(self, directory: str):
        """Write the checkpoint: ``params.bin``, ``flat`` as little-endian
        f64, then ``model.json``, the config (which fixes every parameter's
        name, shape and order) plus the blob's sha256. Each file is
        replaced atomically, ``model.json`` last."""
        os.makedirs(directory, exist_ok=True)
        blob = np.asarray(self.flat, dtype="<f8").tobytes()
        files.write_file_atomic(os.path.join(directory, _PARAMS_BIN), blob)
        sidecar = dict(self.config.to_dict(), sha256=hashlib.sha256(blob).hexdigest())
        files.write_file_atomic(os.path.join(directory, _MODEL_JSON), json.dumps(sidecar, indent=2).encode())

    @classmethod
    def load(cls, directory: str) -> "PmpModel":
        """The model ``save`` wrote to ``directory``, bit-exact. Raises
        ValueError naming the file at fault: a ``model.json`` that is not a
        model config or holds no sha256, or a ``params.bin`` that is missing,
        unreadable, of another length than the config implies or whose
        sha256 differs."""
        path = os.path.join(directory, _MODEL_JSON)
        sidecar = files.read_json_object(path)
        try:
            model = cls(ModelConfig.from_dict(sidecar), seed=0)
        except (KeyError, ValueError) as err:
            raise ValueError(f"{path}: malformed model config ({err!r})") from err
        if "sha256" not in sidecar:
            raise ValueError(f"{path}: no sha256 of {_PARAMS_BIN}, so the checkpoint cannot be checked")
        blob_path = os.path.join(directory, _PARAMS_BIN)
        try:
            with open(blob_path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            raise ValueError(f"{blob_path}: file is missing") from None
        except OSError as err:
            raise ValueError(f"{blob_path}: cannot read: {err}") from None
        expected = 8 * model.flat.size
        if len(raw) != expected:
            raise ValueError(f"{blob_path}: has {len(raw)} bytes, {path} expects {expected}")
        if hashlib.sha256(raw).hexdigest() != sidecar["sha256"]:
            raise ValueError(f"{blob_path}: sha256 does not match {path}, the file is corrupted")
        model.flat[...] = np.frombuffer(raw, dtype="<f8")
        return model


def layer_one_sums(graph: RelationalGraph, partition: PartitionIndex, features) -> list:
    """Layer 1's bucket-sum table over every node, one array per relation.

    Layer 1 sums raw features, so its bucket sums depend on the graph, the
    train-label partition and the features, never on the weights or the
    variant: one table serves every batch and scoring chunk of a pass.
    Each table is [3n, d], row b * n + i holding node i's bucket-b sum.
    The CSR lists each node's neighbors in the order a batch lists them,
    so every row is bitwise the sum ``model_forward`` would make for that
    node on its own. A table is a constant: no gradient flows into it.
    """
    feats = np.asarray(features, dtype=np.float64)
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
    tape: nd.GradientTape | None = None,
) -> np.ndarray:
    """Fraud logits for ``batch``, one per id, from ``readout``.

    Representations are computed on demand for each layer's centers, so
    cost scales with the batch neighborhood, not the graph. Every layer
    reads its centers' bucket sums from a ``bucket_sums`` table of exactly
    those centers. Layer 1's comes from ``sums``, the whole-graph tables of
    ``layer_one_sums`` for these graph, partition and features, when the
    caller built them once for a pass of many batches; layer 1 then lists
    no neighborhoods and sums nothing, and only gathers its centers' row of
    each block. Without ``sums`` layer 1 sums its own centers'
    neighborhoods straight from the feature table, whose rows its members
    and centers index by node id; a column-major table, as ``NodeTable``
    stores it, is summed without a transposed copy. Both give bitwise the
    same logits. Each layer l >= 2 sums layer l - 1's output over the
    one-hop frontier of its centers. Neighborhoods are listed once per
    layer: the same members mark the frontier and feed the aggregation.
    Frontiers come from marking ids in a node mask, and ids map to frontier
    rows through a dense lookup table, so neither step sorts. ``batch`` may
    be unsorted and repeat ids; logit i belongs to batch[i]. With
    ``dropout_p`` > 0, dropout follows each layer; its masks are keyed by
    (seed, relation, layer, epoch, batch_index) and replay exactly.

    Given ``tape``, every layer call, dropout and the readout record their
    adjoints on it; one made ``wrt_features`` takes no ``sums``, as the
    features' gradient needs layer 1 to sum the features itself.
    """
    cfg = model.config
    if graph.num_relations != cfg.num_relations:
        raise ValueError(f"model expects {cfg.num_relations} relations, graph has {graph.num_relations}")
    batch = np.asarray(batch, dtype=np.int64)
    if batch.ndim != 1 or batch.size == 0:
        raise ValueError("batch must be a non-empty 1-d list of node ids")
    if batch.min() < 0 or batch.max() >= graph.num_nodes:
        raise ValueError("batch node index out of range")
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (graph.num_nodes, cfg.feature_dim):
        raise ValueError(f"features must be [{graph.num_nodes}, {cfg.feature_dim}]")
    if sums is not None:
        shape = (3 * graph.num_nodes, cfg.feature_dim)
        if len(sums) != cfg.num_relations or any(t.shape != shape for t in sums):
            raise ValueError(f"sums must be {cfg.num_relations} layer-one table(s) of shape {list(shape)}")
        if tape is not None and tape.wrt_features:
            raise ValueError("the features' gradient needs layer 1 to sum the features itself, not sums")

    # Row of each frontier node (layers 2 and up); entries outside the current frontier are stale.
    n = graph.num_nodes
    row_of = np.empty(n, dtype=np.int64)
    listed = 1 if sums is None else 2  # the lowest layer that lists its centers' neighborhoods
    adaptive = cfg.variant.adaptive_combination_enabled
    per_relation = []
    for r in range(cfg.num_relations):
        records = []
        if tape is not None:
            tape.branches.append(records)
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
        h = act = features
        for l in range(1, cfg.num_layers + 1):
            centers, hood = fronts[l], None
            if l < listed:
                table = nd.gather_rows(sums[r], np.concatenate([centers, n + centers, 2 * n + centers]))
            else:
                members, seg_ids = hoods[l]
                bucket = partition.bucket[members]  # by node id, before the remap to rows
                if l > 1:
                    row_of[fronts[l - 1]] = np.arange(fronts[l - 1].size)
                    members, centers = row_of[members], row_of[centers]
                table = bucket_sums(h, members, seg_ids, bucket, centers.size)
                hood = members, seg_ids, bucket
            h_centers = nd.gather_rows(h, centers)
            # The gate reads the pre-dropout output; without dropout one gather serves both reads.
            h_gate = None if not adaptive else h_centers if act is h else nd.gather_rows(act, centers)
            grads = None if tape is None else {
                name: tape.blocks[f"rel{r}.layer{l - 1}.{name}"] for name in cfg.variant.weights
            }
            act, adjoint = layer_forward(model.layers[r][l - 1], table, h_centers, h_gate,
                                         use_relu=(l < cfg.num_layers), grads=grads)
            inputs = l > 1 or (tape is not None and tape.wrt_features)
            records.append(("layer", _layer_record(adjoint, h.shape[0], centers, hood if inputs else None)))
            h = act
            if dropout_p > 0.0:
                key = np.random.SeedSequence(entropy=seed, spawn_key=(r, l, epoch, batch_index))
                h, adjoint = nd.dropout(act, dropout_p, key)
                records.append(("dropout", adjoint))
        per_relation.append(h)

    z, adjoint = readout(model, per_relation, None if tape is None else tape.blocks)
    if tape is not None:
        tape.head.append(("readout", adjoint))
    return z


def _layer_record(adjoint, num_rows: int, centers, hood):
    """The record of one layer call: its adjoint and, given ``hood``, the
    (members, seg_ids, bucket) of its table, the adjoints of the gathers
    that fed it, onto ``num_rows`` rows (see ``ndiff.GradientTape``)."""

    def record(g):
        grads = adjoint(g, hood is not None)
        if hood is None:
            return [], []
        g_centers, g_table, g_gate = grads
        terms = [nd.scatter_rows(g_centers, centers, num_rows), bucket_sums_adjoint(g_table, *hood, num_rows)]
        return terms, [] if g_gate is None else [nd.scatter_rows(g_gate, centers, num_rows)]

    return record


def model_forward(*args, tape: nd.GradientTape | None = None, **kwargs) -> np.ndarray:
    """Fraud probabilities for ``batch``, strictly inside (0, 1): the
    clamped logistic of ``model_logits``, which takes the same arguments.
    Given ``tape``, the logistic records its adjoint after the readout's."""
    probs = nd.sigmoid(model_logits(*args, tape=tape, **kwargs))
    if tape is not None:
        tape.head.append(("sigmoid", lambda g: g * probs * (1.0 - probs)))
    return probs


def readout(model: PmpModel, per_relation: list, grads: dict | None = None):
    """The batch's [b] logits from its [b, hidden] per-relation outputs
    and, given ``grads``, the views of a flat gradient the head's blocks
    write to by name, the head's adjoint (else None).

    With X the outputs side by side, W, b the readout layer and w, c the
    head:

        pre = X @ W + b,  hidden = relu(pre),  z = hidden @ w + c

    and with g the logits' upstream gradient as a column and
    G = (g w^T) * [pre > 0], the adjoint writes

        dc = sum of g,  dw = hidden^T g,  db = column sums of G,  dW = X^T G

    and returns dX = G W^T, split back into the relations' blocks.

    The forward runs the arithmetic of the head composed of small ops
    (concat, matmul, add_rowvec, relu, matmul, add_rowvec, reshape) in
    their order, and so does the adjoint; no value fans out, so both are
    bitwise equal to that composition. A non-finite pre-activation raises,
    because ReLU would hide a NaN, and so does a non-finite logit.
    """
    W, b, w, c = model.readout_W, model.readout_b, model.head_w, model.head_b
    X = per_relation[0] if len(per_relation) == 1 else np.concatenate(per_relation, axis=1)
    k = X.shape[0]
    pre = X @ W
    pre += b
    if not np.all(np.isfinite(pre)):
        raise nd.NonFiniteError("readout: non-finite pre-activation")
    hidden = nd._relu_inplace(pre)
    z = hidden @ w
    z += c
    z = nd.check_finite(z.reshape(k), "readout")
    if grads is None:
        return z, None
    mask = hidden > 0
    cuts = np.cumsum([t.shape[1] for t in per_relation])[:-1]

    def adjoint(g):
        g = g.reshape(k, 1)
        g_pre = (g @ w.T) * mask
        np.matmul(X.T, g_pre, out=grads["readout.W"])
        np.sum(g_pre, axis=0, out=grads["readout.b"])
        np.matmul(hidden.T, g, out=grads["head.w"])
        np.sum(g, axis=0, out=grads["head.b"])
        return np.split(g_pre @ W.T, cuts, axis=1)

    return z, adjoint


def loss(logits: np.ndarray, labels: np.ndarray, batch, pos_weight: float | None = None,
         tape: nd.GradientTape | None = None) -> np.ndarray:
    """Mean negated Bernoulli log likelihood of the batch labels, read from
    the batch's logits (``model_logits``), as a 0-d array. Given ``tape``,
    it records its adjoint last.

    ``pos_weight``, when set, reweights fraud examples by that factor
    (weighted mean); by default every example counts equally.
    """
    batch = np.asarray(batch, dtype=np.int64)
    if batch.size == 0:
        raise ValueError("empty batch")
    y = np.asarray(labels)[batch].astype(np.float64)
    w = np.where(y == 1, 1.0 if pos_weight is None else float(pos_weight), 1.0)
    value, adjoint = nd.binary_cross_entropy(logits, y, w)
    if tape is not None:
        tape.head.append(("binary_cross_entropy", adjoint))
    return value
