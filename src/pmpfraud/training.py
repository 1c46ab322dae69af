"""Mini-batch training with Adam and validation-AUC early stopping.

``train`` is the one training driver; ``cli.run_bench`` times it too.

The neighbor partition is built from train labels before the first epoch
and reused for every batch and validation pass; ``evaluate`` builds its own
the same way, one O(n) pass over the node table. At inference time only
training labels are known, so val and test nodes stay in the unlabeled
bucket.

Each training batch records its adjoints on one ``ndiff.GradientTape``,
from the batch's logits through the loss, and the tape's walk writes the
batch's gradient into one flat array laid out like ``PmpModel.flat``, the
weights. Adam updates the weights from it with whole-array operations; the
best epoch is a copy of ``flat``. Scoring (``forward_scores``, which serves
the per-epoch validation pass and ``evaluate``) passes no tape, so it
records nothing; the scores are bitwise those of a recorded forward.

Training reads layer 1 from one table at every depth. Layer 1 sums raw
features by bucket, which depends on the graph, the partition and the
features but not on the weights, so ``train`` builds
``model.layer_one_sums`` once per call and every batch and every
validation pass gathers its centers' rows from it and lists no
neighborhoods. Each row adds its members in CSR order from 0.0, so it is
bitwise the sum a batch would make. The table holds 3 * d float64 per
node and relation for the length of the call (28.8 MB for 50,000 nodes,
3 relations and d = 8), and it sums every node once, where one epoch of
a one-layer model sums only its train and val centers: a one-epoch call
costs about 10% more, and every further epoch sums nothing.
``forward_scores`` builds one per call, shared across its chunks, only
for a model of two or more layers, whose chunks re-sum layer 1 over
their one-hop frontiers, most of the graph. A one-layer model's chunks
are its only layer's centers, so each scored node's sums are made once
either way, and a whole-graph table would add the sums of nodes no
chunk asks for: a one-layer ``evaluate`` of the test split would sum
2.5 times the nodes it scores.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from . import graph as graph_mod
from . import metrics as metrics_mod
from . import ndiff as nd
from .files import check_setting, write_csv_atomic
from .graph import NodeTable, RelationalGraph
from .model import PmpModel, layer_one_sums, loss as loss_fn, model_forward, model_logits

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
    """Adam with decoupled weight decay, updating one flat array in place.

    update = lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta),
    so with zero gradient a parameter shrinks by the factor
    (1 - lr * weight_decay) per step. Every operation is elementwise, so
    each entry moves exactly as it would in an array of its own.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, flat: np.ndarray, learning_rate: float, weight_decay: float = 0.0):
        _check_rates(learning_rate=learning_rate, weight_decay=weight_decay)
        self.flat = flat
        self.lr = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)

    def step(self, g: np.ndarray, blocks: dict):
        """One update from the gradient ``g``, laid out like ``flat``.
        ``blocks`` maps each block's name to its view of ``g``, in order; a
        non-finite gradient raises naming the first block holding one."""
        if not np.isfinite(g).all():
            name = next(name for name, grad in blocks.items() if not np.isfinite(grad).all())
            raise nd.NonFiniteError(f"non-finite gradient for parameter {name!r}")
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        self.m *= self.BETA1
        self.m += (1.0 - self.BETA1) * g
        self.v *= self.BETA2
        self.v += (1.0 - self.BETA2) * g * g
        update = (self.m / bc1) / (np.sqrt(self.v / bc2) + self.EPS)
        if self.weight_decay:
            update += self.weight_decay * self.flat
        self.flat -= self.lr * update


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
        write_csv_atomic(path, "epoch,train_loss,val_auc", rows, meta_line)


def forward_scores(model: PmpModel, graph: RelationalGraph, partition, features, ids: np.ndarray,
                   sums: list | None = None) -> np.ndarray:
    """Deterministic probabilities for a node list, computed in chunks of
    ``EVAL_BATCH_SIZE`` nodes.

    No chunk records adjoints. ``sums`` are layer 1's tables from
    ``layer_one_sums`` over the same inputs; without them a model of two or
    more layers builds them once here and shares them across the chunks,
    and a one-layer model sums each chunk's own neighborhoods (see the
    module docstring). Only the depth decides: the tables have one layout
    for every variant.
    """
    out = np.empty(ids.size, dtype=np.float64)
    if sums is None and model.config.num_layers >= 2:
        sums = layer_one_sums(graph, partition, features)
    for start in range(0, ids.size, EVAL_BATCH_SIZE):
        chunk = ids[start : start + EVAL_BATCH_SIZE]
        out[start : start + chunk.size] = model_forward(model, graph, partition, features, chunk, sums=sums)
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
    ``sums`` (see ``model_logits``), feeds its logits to the loss, and
    records both on ``tape``, whose walk gives Adam the batch's gradient.

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
                batch_index=batch_index, dropout_p=config.dropout_p, sums=sums, tape=tape,
            )
            batch_loss = loss_fn(logits, table.labels, batch, pos_weight=config.pos_weight, tape=tape)
            grads = tape.gradients(batch_loss)
            opt.step(tape.grad, grads)
        except nd.NonFiniteError as err:
            raise TrainingDiverged(epoch, batch_index, str(err)) from err
        total_loss += float(batch_loss) * batch.size
    return total_loss / perm.size


def train(model: PmpModel, graph: RelationalGraph, table: NodeTable, config: TrainConfig):
    """Train in place; returns (model, History) with the best-epoch weights.

    Selection tracks validation AUC; training stops after ``patience``
    epochs without improvement. If the val split cannot score an AUC
    (empty or single-class), selection is disabled and the final epoch is
    kept, with NaN recorded in the history.
    """
    partition = graph_mod.PartitionIndex.from_table(graph, table)
    sums = layer_one_sums(graph, partition, table.features)
    opt = Adam(model.flat, config.learning_rate, config.weight_decay)
    tape = nd.GradientTape(model.parameters())
    rng = np.random.default_rng(config.seed)
    train_ids = table.split_ids("train")
    history = History()
    best = model.flat.copy()
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
            best[...] = model.flat
            history.best_epoch = epoch
            continue
        if val_auc >= best_auc:
            # Ties keep the later epoch: equal validation AUC cannot pick a
            # winner, so prefer the state with more optimization behind it.
            # Only a strict improvement resets the patience counter.
            stale = 0 if val_auc > best_auc else stale + 1
            best_auc = val_auc
            best[...] = model.flat
            history.best_epoch = epoch
            history.best_val_auc = val_auc
        else:
            stale += 1
        if stale >= config.patience:
            break

    model.flat[...] = best
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
