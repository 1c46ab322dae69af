"""Mini-batch training with Adam and validation-AUC early stopping.

``train`` is the one training driver; ``cli.run_bench`` times it too.

The neighbor partition is built from train labels before the first epoch
and reused for every batch and validation pass; ``evaluate`` builds its own
the same way, one O(n) pass over the node table. At inference time only
training labels are known, so val and test nodes stay in the unlabeled
bucket.

Training batches record a reverse graph for the Adam step, from the
batch's logits through the loss. Scoring
(``forward_scores``, which serves the per-epoch validation pass and
``evaluate``) needs no gradients and runs under ``ndiff.no_grad()``, so it
records none; the scores are bitwise those of a recorded forward.

A model of two or more layers sums layer 1 from one table per pass.
Layer 1 sums raw features by bucket, which depends on the graph, the
partition and the features but not on the weights, so ``train`` builds
``model.layer_one_sums`` once per call and every batch and every
validation pass gathers its rows from it; ``forward_scores`` builds one
per call and shares it across its chunks. Without it, each batch of a
deep model re-sums layer 1 over its whole one-hop frontier, most of the
graph. A one-layer model builds none: its only layer's centers are the
batch itself, so each center's sums are read once per pass either way,
and a whole-graph table would add the sums of nodes no batch asks for and
hold 3 * d floats per node and relation.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from . import graph as graph_mod
from . import metrics as metrics_mod
from . import ndiff as nd
from .graph import NodeTable, RelationalGraph
from .model import PmpModel, layer_one_sums, loss as loss_fn, model_forward, model_logits
from .ndiff import check_setting

__all__ = ["TrainConfig", "Adam", "TrainingDiverged", "History", "train", "evaluate", "forward_scores"]

EVAL_BATCH_SIZE = 4096


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    weight_decay: float = 0.0
    dropout_p: float = 0.0
    batch_size: int = 512
    max_epochs: int = 200
    patience: int = 20
    seed: int = 0
    pos_weight: float | None = None

    def __post_init__(self):
        _check_rates(learning_rate=self.learning_rate, weight_decay=self.weight_decay)
        check_setting("dropout_p", self.dropout_p, numbers.Real, lambda v: 0 <= v < 1, "a number in [0, 1)")
        for name in ("batch_size", "max_epochs", "patience"):
            check_setting(name, getattr(self, name), numbers.Integral, lambda v: v >= 1, "a positive integer")
        check_setting("seed", self.seed, numbers.Integral, lambda v: v >= 0, "a non-negative integer")
        if self.pos_weight is not None:
            check_setting("pos_weight", self.pos_weight, numbers.Real, lambda v: math.isfinite(v) and v > 0,
                          "a finite, positive number or null")

    def to_dict(self) -> dict:
        return asdict(self)


def _check_rates(**rates):
    """ValueError naming the first rate that is not a finite, non-negative number."""
    for name, value in rates.items():
        check_setting(name, value, numbers.Real, lambda v: math.isfinite(v) and v >= 0,
                      "a finite, non-negative number")


class TrainingDiverged(ArithmeticError):
    """Loss, a gradient or a score became non-finite; ``batch_index`` -1 is the validation pass."""

    def __init__(self, epoch: int, batch_index: int, message: str = ""):
        self.epoch = epoch
        self.batch_index = batch_index
        where = "validation pass" if batch_index == -1 else f"batch {batch_index}"
        super().__init__(f"training diverged at epoch {epoch}, {where}: {message}")


class Adam:
    """Adam with decoupled weight decay.

    update = lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta),
    so with zero gradient a parameter shrinks by the factor
    (1 - lr * weight_decay) per step.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: dict, learning_rate: float, weight_decay: float = 0.0):
        _check_rates(learning_rate=learning_rate, weight_decay=weight_decay)
        self.params = dict(params)
        self.lr = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, grads: dict):
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise nd.NonFiniteError(f"non-finite gradient for parameter {name!r}")
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        for name, p in self.params.items():
            g = grads[name]
            m = self._m[name]
            v = self._v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.EPS)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data = p.data - self.lr * update


@dataclass
class History:
    """Per-epoch (train_loss, val_auc) plus which epoch was kept."""

    entries: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_auc: float = math.nan

    def append(self, epoch: int, train_loss: float, val_auc: float):
        self.entries.append((epoch, train_loss, val_auc))

    def to_csv(self, path: str, meta_line: str = ""):
        rows = [f"{epoch},{train_loss:.17g},{val_auc:.17g}" for epoch, train_loss, val_auc in self.entries]
        nd.write_csv_atomic(path, "epoch,train_loss,val_auc", rows, meta_line)


def _pass_sums(model: PmpModel, graph: RelationalGraph, partition, features):
    """Layer 1's shared bucket-sum tables for one pass, or None for a
    one-layer model, whose batches are its only layer's centers and gain
    nothing from a whole-graph table (see the module docstring). Only the
    depth decides: the tables have one layout for every variant."""
    if model.config.num_layers < 2:
        return None
    return layer_one_sums(graph, partition, features)


def forward_scores(model: PmpModel, graph: RelationalGraph, partition, features, ids: np.ndarray,
                   sums: list | None = None) -> np.ndarray:
    """Deterministic probabilities for a node list, computed in chunks of
    ``EVAL_BATCH_SIZE`` nodes.

    Scoring runs under ``ndiff.no_grad()``: no chunk records a reverse graph.
    ``sums`` are layer 1's tables from ``layer_one_sums`` over the same
    inputs; without them a model of two or more layers builds them once
    here and shares them across the chunks.
    """
    out = np.empty(ids.size, dtype=np.float64)
    with nd.no_grad():
        if sums is None:
            sums = _pass_sums(model, graph, partition, features)
        for start in range(0, ids.size, EVAL_BATCH_SIZE):
            chunk = ids[start : start + EVAL_BATCH_SIZE]
            z = model_forward(model, graph, partition, features, chunk, sums=sums)
            out[start : start + chunk.size] = z.data
    return out


def _val_auc(model, graph, partition, table: NodeTable, sums) -> float:
    ids = table.split_ids("val")
    labels = table.labels[ids]
    if ids.size == 0 or (labels == 1).sum() == 0 or (labels == 0).sum() == 0:
        return math.nan
    scores = forward_scores(model, graph, partition, table.features, ids, sums=sums)
    return metrics_mod.auc(scores, labels)


def _run_epoch(model: PmpModel, graph: RelationalGraph, partition, table: NodeTable, config: TrainConfig,
               opt: Adam, tape: nd.GradientTape, perm: np.ndarray, epoch: int, sums: list | None) -> float:
    """One epoch of ``train``: a pass over ``perm`` in batches of
    ``config.batch_size``, one Adam step per batch; returns the
    example-weighted mean train loss. Every batch reads layer 1 from
    ``sums`` when given (see ``model_logits``) and feeds its logits to the
    loss.

    ``model_logits`` and ``loss_fn`` are looked up as globals of this
    module, so a wrapper set on it sees every training batch, whoever
    calls ``train``.
    """
    total_loss = 0.0
    for batch_index, start in enumerate(range(0, perm.size, config.batch_size)):
        batch = perm[start : start + config.batch_size]
        try:
            logits = model_logits(
                model, graph, partition, table.features, batch, seed=config.seed, epoch=epoch,
                batch_index=batch_index, dropout_p=config.dropout_p, sums=sums,
            )
            batch_loss = loss_fn(logits, table.labels, batch, pos_weight=config.pos_weight)
            opt.step(tape.gradients(batch_loss))
        except nd.NonFiniteError as err:
            raise TrainingDiverged(epoch, batch_index, str(err)) from err
        total_loss += float(batch_loss.data) * batch.size
    return total_loss / perm.size


def train(model: PmpModel, graph: RelationalGraph, table: NodeTable, config: TrainConfig):
    """Train in place; returns (model, History) with the best-epoch weights.

    Selection tracks validation AUC; training stops after ``patience``
    epochs without improvement. If the val split cannot score an AUC
    (empty or single-class), selection is disabled and the final epoch is
    kept, with NaN recorded in the history.
    """
    partition = graph_mod.PartitionIndex.from_table(graph, table)
    sums = _pass_sums(model, graph, partition, table.features)
    params = model.parameters()
    opt = Adam(params, config.learning_rate, config.weight_decay)
    tape = nd.GradientTape(params)
    rng = np.random.default_rng(config.seed)
    train_ids = table.split_ids("train")
    history = History()
    best_state = model.state()
    best_auc = -math.inf
    stale = 0

    for epoch in range(config.max_epochs):
        perm = rng.permutation(train_ids)
        train_loss = _run_epoch(model, graph, partition, table, config, opt, tape, perm, epoch, sums)
        try:
            val_auc = _val_auc(model, graph, partition, table, sums)
        except nd.NonFiniteError as err:
            raise TrainingDiverged(epoch, -1, str(err)) from err
        history.append(epoch, train_loss, val_auc)
        if math.isnan(val_auc):
            # No usable validation signal; keep the latest weights.
            best_state = model.state()
            history.best_epoch = epoch
            continue
        if val_auc >= best_auc:
            # Ties keep the later epoch: equal validation AUC cannot pick a
            # winner, so prefer the state with more optimization behind it.
            # Only a strict improvement resets the patience counter.
            stale = 0 if val_auc > best_auc else stale + 1
            best_auc = val_auc
            best_state = model.state()
            history.best_epoch = epoch
            history.best_val_auc = val_auc
        else:
            stale += 1
        if stale >= config.patience:
            break

    model.load_state(best_state)
    return model, history


def evaluate(model: PmpModel, graph: RelationalGraph, table: NodeTable, split: str,
             seed: int = -1) -> metrics_mod.MetricsReport:
    """Metrics for one split at threshold 0.5, using the train-label partition."""
    partition = graph_mod.PartitionIndex.from_table(graph, table)
    ids = table.split_ids(split)
    if ids.size == 0:
        raise ValueError(f"split {split!r} is empty")
    scores = forward_scores(model, graph, partition, table.features, ids)
    return metrics_mod.compute_report(scores, table.labels[ids], split=split, seed=seed)
