"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: per-node Python loops, materialized
per-center weight matrices, O(P*N) pairwise metric counts. None of it
shares code with the production paths it checks, with these exceptions.

The differentiation engine lives here: ``Tensor``, whose operators record
their inputs and an adjoint rule, ``backward``, one reverse pass in
topological order that adds the terms of a fanned-out value as it reaches
them, and ``GradientTape``, a name-keyed registry over it. The program
once took its gradients from this engine; ``ndiff.GradientTape``, the
reverse pass written for the model, must equal it bitwise.
``sigmoid``, ``gather_rows``, ``gather_segment_sum``, ``bucket_sums``,
``dropout`` and ``binary_cross_entropy`` record ``ndiff``'s kernels and
adjoints as engine operators. ``matmul``, ``add_rowvec``, ``relu``,
``concat``, ``reshape``, ``sub``, ``add``, ``mul``, ``row_scale``,
``affine``, ``mean`` and ``per_example_cross_entropy`` are operators the
program never calls, ``influence_linear_check`` checks the engine itself,
``grad_check``, the central finite-difference checker, checks the engine's
gradients or those the walk writes (``tape_gradients``), and
``composed_layer_forward``, ``composed_readout`` and ``composed_loss`` are
the layer, the readout head and the loss as the engine's small ops record
them, node by node, which ``layer_forward``, ``readout`` and
``binary_cross_entropy`` must equal bitwise. ``composed_model_logits`` is
``model_logits`` built from them, the oracle of the model's whole reverse
pass. ``PerArrayAdam`` is the optimizer one parameter array at a time,
which the flat ``Adam`` must equal bitwise. ``frontier_model_forward``
checks only how ``model_forward`` feeds its layers, so it runs the
production layer and readout on inputs it indexes its own way.
"""
import copy
import math
from dataclasses import dataclass

import numpy as np

from pmpfraud import layer as layer_module
from pmpfraud import ndiff as nd
from pmpfraud.model import readout


# ---------------------------------------------------------------------------
# The differentiation engine
# ---------------------------------------------------------------------------


class Tensor:
    """A dense float64 array plus the adjoint rule of the operator that made it.

    Leaves are constructed directly (parameters pass requires_grad=True);
    every other tensor comes out of an operator of this module. ``grad`` is filled
    in by ``backward`` and has the same shape as ``data``.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def _make(data, op: str, parents, vjp):
    """Wrap an operator result, keeping the graph only where gradients flow."""
    if not np.all(np.isfinite(data)):
        raise nd.NonFiniteError(f"{op}: non-finite result")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.op = op
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    else:
        out.requires_grad = False
        out._parents = ()
        out._vjp = None
    return out


def backward(output: Tensor, seed=None, trace=None):
    """Run the reverse pass from ``output``.

    Accumulates into ``.grad`` of every reachable tensor that requires
    gradients. ``seed`` is the upstream gradient of ``output``; omitted, it
    defaults to ones and requires a single-element output. ``trace``, if a
    list, collects the op name of each recorded operation as it is visited
    (each exactly once).
    """
    if not output.requires_grad:
        raise ValueError("backward: output does not depend on any gradient-enabled tensor")
    if seed is None:
        if output.data.size != 1:
            raise nd.ShapeError("backward: implicit seed requires a single-element output")
        seed = np.ones(output.data.shape)
    else:
        seed = np.asarray(seed, dtype=np.float64)
        if seed.shape != output.data.shape:
            raise nd.ShapeError(
                f"backward: seed shape {seed.shape} does not match output shape {output.data.shape}"
            )

    # Iterative post-order walk; parents land before children in ``topo``.
    topo = []
    seen = set()
    stack = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    output.grad = seed.copy() if output.grad is None else output.grad + seed
    for node in reversed(topo):
        if node._vjp is None:
            continue
        if trace is not None:
            trace.append(node.op)
        parent_grads = node._vjp(node.grad)
        for parent, g in zip(node._parents, parent_grads):
            if g is None or not parent.requires_grad:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g


class GradientTape:
    """Named-parameter registry plus one reverse pass over a recorded graph.

    A tape is confined to one logical execution thread; independent tapes
    over disjoint graphs can run concurrently because all state lives on
    the tensors themselves.
    """

    def __init__(self, params: dict):
        for name, p in params.items():
            if not isinstance(p, Tensor) or not p.requires_grad:
                raise ValueError(f"GradientTape: parameter {name!r} is not a gradient-enabled Tensor")
        self.params = dict(params)

    def gradients(self, loss: Tensor, trace=None) -> dict:
        """Zero, run backward from ``loss``, and return grads keyed by name.

        Parameters the loss does not reach get exact zero gradients.
        """
        for p in self.params.values():
            p.grad = None
        backward(loss, trace=trace)
        return {
            name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for name, p in self.params.items()
        }


def sigmoid(x):
    """``ndiff.sigmoid`` as an engine operator."""
    out = nd.sigmoid(x.data)
    return _make(out, "sigmoid", (x,), lambda g: (g * out * (1.0 - out),))


def gather_rows(x, indices):
    """``ndiff.gather_rows`` as an engine operator; the adjoint scatter-adds
    the rows back."""
    idx, n = np.asarray(indices, dtype=np.int64), x.data.shape[0]
    return _make(nd.gather_rows(x.data, idx), "gather_rows", (x,), lambda g: (nd.scatter_rows(g, idx, n),))


def gather_segment_sum(x, rows, segment_ids, num_segments):
    """``ndiff.gather_segment_sum`` as an engine operator."""
    n = x.data.shape[0]
    out = nd.gather_segment_sum(x.data, rows, segment_ids, num_segments)
    return _make(out, "gather_segment_sum", (x,), lambda g: (nd.gather_segment_sum_adjoint(g, rows, segment_ids, n),))


def bucket_sums(h_prev, members, seg_ids, bucket, num_centers):
    """``layer.bucket_sums`` as one engine operator."""
    return gather_segment_sum(h_prev, members, bucket.astype(np.int64) * num_centers + seg_ids, 3 * num_centers)


def dropout(x, p, key):
    """``ndiff.dropout`` as an engine operator."""
    out, adjoint = nd.dropout(x.data, p, key)
    return _make(out, "dropout", (x,), lambda g: (adjoint(g),))


def binary_cross_entropy(logits, targets, weights):
    """``ndiff.binary_cross_entropy`` as an engine operator."""
    out, adjoint = nd.binary_cross_entropy(logits.data, targets, weights)
    return _make(out, "binary_cross_entropy", (logits,), lambda g: (adjoint(g),))


# ---------------------------------------------------------------------------
# Graphs, metrics and the model, naively
# ---------------------------------------------------------------------------


def reference_csr(num_nodes, edge_lists):
    """Per-relation (row_offsets, col_indices) by ``np.unique`` over the
    symmetrized, loop-free edge keys row * num_nodes + col."""
    offsets, indices = [], []
    for edges in edge_lists:
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        both = np.concatenate([e, e[:, ::-1]])
        both = both[both[:, 0] != both[:, 1]]
        keys = np.unique(both[:, 0] * num_nodes + both[:, 1])
        off = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // num_nodes, minlength=num_nodes), out=off[1:])
        offsets.append(off)
        indices.append(keys % num_nodes)
    return offsets, indices


def reference_partition(labels, train_mask):
    """Each node's bucket by a per-node loop: 0 train-fraud, 1 train-benign,
    2 every other node."""
    bucket = []
    for y, is_train in zip(labels, train_mask):
        if is_train and y == 1:
            bucket.append(0)
        elif is_train and y == 0:
            bucket.append(1)
        else:
            bucket.append(2)
    return np.array(bucket, dtype=np.int8)


def _bucket_neighbors(graph, partition, relation, node, b):
    nbrs = graph.neighbors(relation, node)
    return nbrs[partition.bucket[nbrs] == b]


def fraud_neighbors(graph, partition, relation, node):
    return _bucket_neighbors(graph, partition, relation, node, 0)


def benign_neighbors(graph, partition, relation, node):
    return _bucket_neighbors(graph, partition, relation, node, 1)


def unlabeled_neighbors(graph, partition, relation, node):
    return _bucket_neighbors(graph, partition, relation, node, 2)


def pairwise_auc(scores, labels):
    """O(P*N) pairwise comparison count, ties worth one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


def counted_metrics(scores, labels, threshold=0.5):
    """Confusion counts and derived F1-macro / G-Mean by direct loops."""
    tp = fp = tn = fn = 0
    for s, y in zip(scores, labels):
        pred = 1 if s >= threshold else 0
        if pred == 1 and y == 1:
            tp += 1
        elif pred == 1 and y == 0:
            fp += 1
        elif pred == 0 and y == 1:
            fn += 1
        else:
            tn += 1

    def f1(tp_, fp_, fn_):
        denom = 2 * tp_ + fp_ + fn_
        return 2.0 * tp_ / denom if denom else 0.0

    f1_pos = f1(tp, fp, fn)
    f1_neg = f1(tn, fn, fp)
    tpr = tp / (tp + fn) if tp + fn else 0.0
    tnr = tn / (tn + fp) if tn + fp else 0.0
    return {
        "confusion": {"tp": tp, "fp": fp, "fn": fn, "tn": tn},
        "f1_macro": 0.5 * (f1_pos + f1_neg),
        "g_mean": float(np.sqrt(tpr * tnr)),
    }


def add_at_rows(values, ids, num_rows):
    """Row scatter-sum by unbuffered ``np.add.at``: each output cell starts
    at 0.0 and adds its rows in input order."""
    values = np.asarray(values)
    out = np.zeros((num_rows, values.shape[1]), dtype=values.dtype)
    np.add.at(out, np.asarray(ids), values)
    return out


def _sigmoid(x):
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def naive_model_forward(model, graph, partition, features, batch, relu_margins=None):
    """Whole-graph, per-node reference forward with materialized weights.

    No dropout (callers must use dropout_p == 0). Computes every node's
    representation at every layer, relation by relation, then applies the
    readout and head to the requested batch rows. When ``relu_margins``
    is a list, the min |pre-activation| of every relu application is
    appended to it (finite-difference callers reject instances whose
    objective has a kink within the probe step).
    """
    cfg = model.config
    variant = cfg.variant
    features = np.asarray(features, dtype=np.float64)
    n = graph.num_nodes
    finals = []
    for r in range(cfg.num_relations):
        h_prev = features.copy()
        for l in range(cfg.num_layers):
            p = model.layers[r][l]
            w_self, b_self, m_fr = p.W_self, p.b_self, p.M_fr
            h_new = np.zeros((n, w_self.shape[1]))
            for i in range(n):
                h_i = h_prev[i]
                out = h_i @ w_self + b_self
                s_fr = sum((h_prev[j] for j in fraud_neighbors(graph, partition, r, i)), np.zeros_like(h_i))
                s_be = sum((h_prev[j] for j in benign_neighbors(graph, partition, r, i)), np.zeros_like(h_i))
                s_un = sum((h_prev[j] for j in unlabeled_neighbors(graph, partition, r, i)), np.zeros_like(h_i))
                if not variant.partition_enabled:
                    out = out + (s_fr + s_be + s_un) @ m_fr
                else:
                    if variant.root_specific_enabled:
                        w_fr_i = np.diag(h_i) @ m_fr + p.B_fr
                        w_be_i = np.diag(h_i) @ p.M_be + p.B_be
                    else:
                        w_fr_i, w_be_i = m_fr, p.M_be
                    if variant.adaptive_combination_enabled:
                        a_i = float(_sigmoid(np.array(h_i @ p.w_phi[:, 0] + p.b_phi[0])))
                        w_un_i = a_i * w_fr_i + (1.0 - a_i) * w_be_i
                    else:
                        w_un_i = p.M_un
                    out = out + s_fr @ w_fr_i + s_be @ w_be_i + s_un @ w_un_i
                if l < cfg.num_layers - 1:
                    if relu_margins is not None and out.size:
                        relu_margins.append(float(np.min(np.abs(out))))
                    out = np.maximum(out, 0.0)
                h_new[i] = out
            h_prev = h_new
        finals.append(h_prev)
    batch = np.asarray(batch, dtype=np.int64)
    cat = np.concatenate([h[batch] for h in finals], axis=1)
    pre = cat @ model.readout_W + model.readout_b
    if relu_margins is not None and pre.size:
        relu_margins.append(float(np.min(np.abs(pre))))
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ model.head_w + model.head_b
    return _sigmoid(logits[:, 0])


def frontier_model_forward(model, graph, partition, features, batch):
    """``model_forward`` without dropout, with every layer's frontier built
    first and layer 0's rows copied out of the feature table.

    Frontiers are ``np.union1d`` of the centers and their neighbors, ids
    map to frontier rows by ``np.searchsorted``, and layer 1 sums from the
    gathered copy of the layer-0 frontier rather than from the table.
    """
    cfg = model.config
    feats = np.asarray(features, dtype=np.float64)
    batch = np.asarray(batch, dtype=np.int64)
    per_relation = []
    for r in range(cfg.num_relations):
        fronts, hoods = [batch], []
        for _ in range(cfg.num_layers):
            members, seg_ids = graph.neighbor_segments(r, fronts[0])
            hoods.insert(0, (members, seg_ids))
            fronts.insert(0, np.union1d(fronts[0], members))
        h = feats[fronts[0]]
        for l in range(1, cfg.num_layers + 1):
            members, seg_ids = hoods[l - 1]
            pos = np.searchsorted(fronts[l - 1], fronts[l])
            sums = layer_module.bucket_sums(h, np.searchsorted(fronts[l - 1], members), seg_ids,
                                            partition.bucket[members], pos.size)
            h, _ = layer_module.layer_forward(model.layers[r][l - 1], sums, h[pos], h[pos],
                                              use_relu=(l < cfg.num_layers))
        per_relation.append(h)
    return nd.sigmoid(readout(model, per_relation)[0])


def matmul(a, b):
    """Matrix product of two 2-d tensors as an engine operator."""
    for x in (a, b):
        if x.data.ndim != 2:
            raise nd.ShapeError(f"matmul: expected 2-d operand, got shape {x.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise nd.ShapeError(f"matmul: inner dims differ, {a.data.shape} @ {b.data.shape}")
    ad, bd = a.data, b.data

    def vjp(g):
        return (g @ bd.T if a.requires_grad else None), (ad.T @ g if b.requires_grad else None)

    return _make(ad @ bd, "matmul", (a, b), vjp)


def add_rowvec(a, v):
    """A length-d row vector added to every row of an [n, d] tensor, as an
    engine operator."""
    if a.data.ndim != 2 or v.data.ndim != 1 or v.data.shape[0] != a.data.shape[1]:
        raise nd.ShapeError(f"add_rowvec: vector shape {v.data.shape} does not match {a.data.shape}")
    return _make(a.data + v.data[None, :], "add_rowvec", (a, v), lambda g: (g, g.sum(axis=0)))


def relu(x):
    """max(x, 0) as an engine operator."""
    mask = x.data > 0
    return _make(np.where(mask, x.data, 0.0), "relu", (x,), lambda g: (g * mask,))


def concat(tensors, axis):
    """Concatenation along ``axis`` as an engine operator; the adjoint
    splits the gradient back."""
    tensors = list(tensors)
    cuts = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    return _make(out, "concat", tuple(tensors), lambda g: tuple(np.split(g, cuts, axis=axis)))


def reshape(x, shape):
    """A reshaped copy as an engine operator."""
    old = x.data.shape
    return _make(np.reshape(x.data, shape).copy(), "reshape", (x,), lambda g: (g.reshape(old),))


def composed_readout(model, per_relation):
    """``model.readout`` with each step its own recorded op: concat (for two
    or more relations), the hidden layer, ReLU, the head, reshape."""
    cat = per_relation[0] if len(per_relation) == 1 else concat(per_relation, axis=1)
    hidden = relu(add_rowvec(matmul(cat, model.readout_W), model.readout_b))
    logits = add_rowvec(matmul(hidden, model.head_w), model.head_b)
    return reshape(logits, (cat.shape[0],))


def sub(a, b):
    """Elementwise difference as a differentiation engine operator."""
    return _make(a.data - b.data, "sub", (a, b), lambda g: (g, -g))


def add(a, b):
    """Elementwise sum of two same-shape tensors as an engine operator."""
    if a.data.shape != b.data.shape:
        raise nd.ShapeError(f"add: shapes differ, {a.data.shape} vs {b.data.shape}")
    return _make(a.data + b.data, "add", (a, b), lambda g: (g, g))


def mul(a, b):
    """Elementwise product of two same-shape tensors as an engine operator."""
    if a.data.shape != b.data.shape:
        raise nd.ShapeError(f"mul: shapes differ, {a.data.shape} vs {b.data.shape}")
    ad, bd = a.data, b.data
    return _make(ad * bd, "mul", (a, b), lambda g: (g * bd, g * ad))


def affine(x, scale, shift=0.0):
    """Elementwise scale * x + shift with python-scalar coefficients, as an
    engine operator."""
    scale = float(scale)
    return _make(scale * x.data + float(shift), "affine", (x,), lambda g: (scale * g,))


def mean(x):
    """Mean over all elements, as a 0-d tensor from an engine operator."""
    if x.data.size == 0:
        raise nd.ShapeError("mean: empty input")
    size, shape = x.data.size, x.data.shape
    return _make(np.asarray(np.mean(x.data)), "mean", (x,), lambda g: (np.full(shape, float(g) / size),))


def per_example_cross_entropy(logits, targets):
    """Each example's clamped cross-entropy under the logistic of
    ``logits`` as an engine operator; its adjoint g * (sigma(z) - t) is the
    one ``nd.binary_cross_entropy`` takes in logit space."""
    t = np.asarray(targets, dtype=np.float64)
    zd = logits.data
    pc = np.clip(nd._clamped_logistic(zd), nd.PROB_CLAMP, 1.0 - nd.PROB_CLAMP)
    out = -(t * np.log(pc) + (1.0 - t) * np.log1p(-pc))
    return _make(out, "per_example_cross_entropy", (logits,), lambda g: (g * (nd._logistic(zd) - t),))


def composed_loss(logits, labels, batch, pos_weight=None):
    """``model.loss`` as a chain of small ops: the per-example cross-entropy
    and its mean, or with ``pos_weight`` its weighted mean as
    mean(l * w) scaled by n / sum(w)."""
    y = np.asarray(labels)[np.asarray(batch, dtype=np.int64)].astype(np.float64)
    per_example = per_example_cross_entropy(logits, y)
    if pos_weight is None:
        return mean(per_example)
    w = np.where(y == 1, float(pos_weight), 1.0)
    return affine(mean(mul(per_example, Tensor(w))), y.size / w.sum())


def row_scale(a, s):
    """Row i of an [n, d] tensor times entry i of a length-n tensor, as an
    engine operator."""
    if a.data.ndim != 2:
        raise nd.ShapeError(f"row_scale: expected 2-d operand, got shape {a.data.shape}")
    if s.data.ndim != 1 or s.data.shape[0] != a.data.shape[0]:
        raise nd.ShapeError(f"row_scale: scale shape {s.data.shape} does not match {a.data.shape}")
    ad, sd = a.data, s.data

    def vjp(g):
        return g * sd[:, None], (g * ad).sum(axis=1)

    return _make(ad * sd[:, None], "row_scale", (a, s), vjp)


def alpha_gate(params, h):
    """Per-center blend coefficient in (0, 1) from an [k, d_in] batch, as
    four recorded ops."""
    z = add_rowvec(matmul(h, params.w_phi), params.b_phi)
    return sigmoid(reshape(z, (h.shape[0],)))


def _bucket_term(S, h_centers, M, B, root_specific):
    if root_specific:
        return add(matmul(mul(S, h_centers), M), matmul(S, B))
    return matmul(S, M)


def aggregate_segments(params, sums, h_centers, h_gate):
    """The neighbor aggregation of ``layer_forward``, one recorded op per
    step: three block gathers, the gate, the blend, the two bucket terms."""
    variant = params.variant
    k = h_centers.shape[0]
    S_fr, S_be, S_un = (gather_rows(sums, np.arange(b * k, (b + 1) * k)) for b in range(3))
    if not variant.partition_enabled:
        return matmul(add(add(S_fr, S_be), S_un), params.M_fr)
    rs = variant.root_specific_enabled
    if variant.adaptive_combination_enabled:
        a = alpha_gate(params, h_gate)
        S_fr = add(S_fr, row_scale(S_un, a))
        S_be = add(S_be, row_scale(S_un, affine(a, -1.0, 1.0)))
    total = add(
        _bucket_term(S_fr, h_centers, params.M_fr, getattr(params, "B_fr", None), rs),
        _bucket_term(S_be, h_centers, params.M_be, getattr(params, "B_be", None), rs),
    )
    return total if variant.adaptive_combination_enabled else add(total, matmul(S_un, params.M_un))


def composed_layer_forward(params, sums, h_centers, h_gate, use_relu=True):
    """``layer_forward`` with each step its own recorded op (10 for the
    baseline, 25 for the full variant): self term, aggregation, ReLU."""
    self_term = add_rowvec(matmul(h_centers, params.W_self), params.b_self)
    out = add(self_term, aggregate_segments(params, sums, h_centers, h_gate))
    return relu(out) if use_relu else out


class TapedModel:
    """``model``'s weights as gradient-enabled engine tensors over its own
    arrays: ``params`` by name, and per-relation ``layers`` and the head's
    four blocks as ``composed_layer_forward`` and ``composed_readout`` read
    them."""

    def __init__(self, model):
        self.config = model.config
        self.params = {name: Tensor(block, requires_grad=True) for name, block in model.parameters().items()}
        self.layers = []
        for r, stack in enumerate(model.layers):
            self.layers.append([])
            for l, p in enumerate(stack):
                taped = copy.copy(p)
                for name in p.variant.weights:
                    setattr(taped, name, self.params[f"rel{r}.layer{l}.{name}"])
                self.layers[-1].append(taped)
        self.readout_W, self.readout_b, self.head_w, self.head_b = (
            self.params[name] for name in ("readout.W", "readout.b", "head.w", "head.b"))


def composed_model_logits(taped, graph, partition, features, batch, seed=0, epoch=0, batch_index=0,
                          dropout_p=0.0, sums=None):
    """``model.model_logits`` on the engine, from ``composed_layer_forward``
    and ``composed_readout``, over a ``TapedModel``: the model as the engine
    recorded it before the program's reverse pass was written by hand.
    ``features`` may be a gradient-enabled tensor; ``sums``, the arrays of
    ``layer_one_sums``, are constants."""
    cfg = taped.config
    batch = np.asarray(batch, dtype=np.int64)
    feats = features if isinstance(features, Tensor) else Tensor(features)
    n = graph.num_nodes
    row_of = np.empty(n, dtype=np.int64)
    listed = 1 if sums is None else 2
    per_relation = []
    for r in range(cfg.num_relations):
        fronts = [None] * (cfg.num_layers + 1)
        hoods = [None] * (cfg.num_layers + 1)
        fronts[cfg.num_layers] = batch
        for l in range(cfg.num_layers, listed - 1, -1):
            hoods[l] = graph.neighbor_segments(r, fronts[l])
            if l > 1:
                mark = np.zeros(n, dtype=bool)
                mark[fronts[l]] = True
                mark[hoods[l][0]] = True
                fronts[l - 1] = np.flatnonzero(mark)
        h = h_gate_src = feats
        for l in range(1, cfg.num_layers + 1):
            centers = fronts[l]
            if l < listed:
                table = gather_rows(Tensor(sums[r]), np.concatenate([centers, n + centers, 2 * n + centers]))
            else:
                members, seg_ids = hoods[l]
                bucket = partition.bucket[members]
                if l > 1:
                    row_of[fronts[l - 1]] = np.arange(fronts[l - 1].size)
                    members, centers = row_of[members], row_of[centers]
                table = bucket_sums(h, members, seg_ids, bucket, centers.size)
            h_centers = gather_rows(h, centers)
            shared = h is h_gate_src and not h.requires_grad
            h_gate = h_centers if shared else gather_rows(h_gate_src, centers)
            act = composed_layer_forward(taped.layers[r][l - 1], table, h_centers, h_gate,
                                         use_relu=(l < cfg.num_layers))
            if dropout_p > 0.0:
                h = dropout(act, dropout_p, np.random.SeedSequence(entropy=seed, spawn_key=(r, l, epoch, batch_index)))
            else:
                h = act
            h_gate_src = act
        per_relation.append(h)
    return composed_readout(taped, per_relation)


@dataclass
class GradCheckReport:
    """Worst relative error per parameter block from central differences."""

    per_block: dict
    tolerance: float

    @property
    def max_relative_error(self) -> float:
        return max(self.per_block.values()) if self.per_block else 0.0

    @property
    def passed(self) -> bool:
        return self.max_relative_error < self.tolerance

    def __str__(self):
        status = "ok" if self.passed else "FAIL"
        return f"grad_check {status}: max relative error {self.max_relative_error:.3e} (tol {self.tolerance:.1e})"


def grad_check(function, parameters: dict, tolerance: float = 1e-4, analytic: dict | None = None) -> GradCheckReport:
    """Compare reverse-mode gradients of a scalar ``function()`` against
    central finite differences over every entry of every parameter.

    ``function`` must be deterministic and must read the arrays in
    ``parameters``, engine tensors or plain arrays, which are perturbed in
    place between calls; it returns an engine tensor or an array.
    ``analytic`` holds the gradients to check by name; by default they come
    from one engine reverse pass from ``function()``, over tensors. The
    step per entry is ``1e-6 * max(1, |x|)``; errors are relative with a
    unit floor, |a - fd| / max(1, |a|, |fd|).
    """
    def value():
        out = function()
        return float(np.reshape(out.data if isinstance(out, Tensor) else out, ()))

    if analytic is None:
        for p in parameters.values():
            p.grad = None
        out = function()
        if out.data.size != 1:
            raise nd.ShapeError("grad_check: function must return a scalar tensor")
        backward(out)
        analytic = {
            name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
            for name, p in parameters.items()
        }

    per_block = {}
    for name, p in parameters.items():
        data = p.data if isinstance(p, Tensor) else p
        worst = 0.0
        # By multi-index into the array itself: a flat reshape of a
        # parameter that is not C-contiguous would be a copy, and perturbing
        # it would never reach ``function``.
        for idx in np.ndindex(data.shape):
            x0 = data[idx]
            h = 1e-6 * max(1.0, abs(x0))
            data[idx] = x0 + h
            f_plus = value()
            data[idx] = x0 - h
            f_minus = value()
            data[idx] = x0
            fd = (f_plus - f_minus) / (2.0 * h)
            a = analytic[name][idx]
            rel = abs(a - fd) / max(1.0, abs(a), abs(fd))
            if rel > worst:
                worst = rel
        per_block[name] = worst
    return GradCheckReport(per_block=per_block, tolerance=tolerance)


def tape_gradients(model, output_of, wrt_features=False):
    """Copies of the gradients ``ndiff.GradientTape`` writes for ``model``,
    by name, from one walk back from ``output_of(tape)``, the single-element
    value of a forward recorded on that tape; with ``wrt_features`` the
    features' gradient too, under "features"."""
    tape = nd.GradientTape(model.parameters(), wrt_features=wrt_features)
    grads = {name: g.copy() for name, g in tape.gradients(output_of(tape)).items()}
    if wrt_features:
        grads["features"] = tape.features_grad
    return grads


def normalized_adjacency(graph, relation=0):
    """Dense D^{-1/2} A D^{-1/2} by a per-edge loop; isolated nodes keep
    zero rows."""
    n = graph.num_nodes
    deg = graph.degrees(relation)
    adj = np.zeros((n, n))
    for u in range(n):
        for v in graph.neighbors(relation, u):
            adj[u, v] = (1.0 / math.sqrt(deg[u])) * (1.0 / math.sqrt(deg[v]))
    return adj


def influence_linear_check(adjacency_norm, W, k, i, j):
    """Max abs error between engine and closed-form linear sensitivity.

    For the linear model H = A^k X W, the Jacobian block
    d H[i, :] / d X[j, :] equals (A^k)_{ij} * W. Builds the model through
    the differentiation engine, extracts the block column by column with
    seeded reverse passes, and returns the worst deviation.
    """
    A = np.asarray(adjacency_norm, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if k < 0:
        raise ValueError("k must be non-negative")
    n = A.shape[0]
    d_in, d_out = W.shape
    rng = np.random.default_rng(0)
    X = Tensor(rng.normal(size=(n, d_in)), requires_grad=True)
    A_t = Tensor(A)
    W_t = Tensor(W)

    expected = np.linalg.matrix_power(A, k)[i, j] * W
    block = np.empty((d_in, d_out), dtype=np.float64)
    for q in range(d_out):
        # Fresh graph per column; reverse passes must not share adjoints.
        H = X
        for _ in range(k):
            H = matmul(A_t, H)
        H = matmul(H, W_t)
        X.grad = None
        seed = np.zeros((n, d_out))
        seed[i, q] = 1.0
        backward(H, seed=seed)
        block[:, q] = X.grad[j]
    return float(np.max(np.abs(block - expected)))


class PerArrayAdam:
    """Adam with decoupled weight decay, one parameter array at a time: the
    optimizer as it stood before the weights became one flat array, kept
    as the oracle that the flat ``training.Adam`` must equal bitwise.

    ``params`` maps names to arrays; each step rebinds its entries.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: dict, learning_rate: float, weight_decay: float = 0.0):
        self.params = dict(params)
        self.lr = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self._m = {k: np.zeros_like(p) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p) for k, p in self.params.items()}

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
                update = update + self.weight_decay * p
            self.params[name] = p - self.lr * update
