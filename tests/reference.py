"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: per-node Python loops, materialized
per-center weight matrices, O(P*N) pairwise metric counts. None of it
shares code with the production paths it checks. The exceptions are built
on the differentiation engine. ``sub``, ``add``, ``mul``, ``row_scale``,
``affine``, ``mean`` and ``per_example_cross_entropy`` are operators the
program no longer records, ``influence_linear_check`` and ``grad_check``
(the central finite-difference checker) check the engine itself, and
``composed_layer_forward`` and ``composed_loss`` are the layer and the
loss as the engine's small ops record them, node by node, which the
one-op ``layer_forward`` and ``binary_cross_entropy`` must equal bitwise.
``frontier_model_forward`` checks only how ``model_forward``
feeds its layers, so it runs the production layer on inputs it indexes
its own way.
"""
import math
from dataclasses import dataclass

import numpy as np

from pmpfraud import ndiff as nd
from pmpfraud.layer import bucket_sums, layer_forward


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


def _bucket_neighbors(partition, relation, node, b):
    nbrs = partition.graph.neighbors(relation, node)
    return nbrs[partition.bucket[nbrs] == b]


def fraud_neighbors(partition, relation, node):
    return _bucket_neighbors(partition, relation, node, 0)


def benign_neighbors(partition, relation, node):
    return _bucket_neighbors(partition, relation, node, 1)


def unlabeled_neighbors(partition, relation, node):
    return _bucket_neighbors(partition, relation, node, 2)


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
            w_self = p.W_self.data
            b_self = p.b_self.data
            m_fr, b_fr = p.M_fr.data, p.B_fr.data
            m_be, b_be = p.M_be.data, p.B_be.data
            m_un = p.M_un.data
            w_phi = p.w_phi.data[:, 0]
            b_phi = p.b_phi.data[0]
            h_new = np.zeros((n, w_self.shape[1]))
            for i in range(n):
                h_i = h_prev[i]
                out = h_i @ w_self + b_self
                s_fr = sum((h_prev[j] for j in fraud_neighbors(partition, r, i)), np.zeros_like(h_i))
                s_be = sum((h_prev[j] for j in benign_neighbors(partition, r, i)), np.zeros_like(h_i))
                s_un = sum((h_prev[j] for j in unlabeled_neighbors(partition, r, i)), np.zeros_like(h_i))
                if not variant.partition_enabled:
                    out = out + (s_fr + s_be + s_un) @ m_fr
                else:
                    if variant.root_specific_enabled:
                        w_fr_i = np.diag(h_i) @ m_fr + b_fr
                        w_be_i = np.diag(h_i) @ m_be + b_be
                    else:
                        w_fr_i, w_be_i = m_fr, m_be
                    if variant.adaptive_combination_enabled:
                        a_i = float(_sigmoid(np.array(h_i @ w_phi + b_phi)))
                        w_un_i = a_i * w_fr_i + (1.0 - a_i) * w_be_i
                    else:
                        w_un_i = m_un
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
    pre = cat @ model.readout_W.data + model.readout_b.data
    if relu_margins is not None and pre.size:
        relu_margins.append(float(np.min(np.abs(pre))))
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ model.head_w.data + model.head_b.data
    return _sigmoid(logits[:, 0])


def frontier_model_forward(model, graph, partition, features, batch):
    """``model_forward`` without dropout, with every layer's frontier built
    first and layer 0's rows copied out of the feature table.

    Frontiers are ``np.union1d`` of the centers and their neighbors, ids
    map to frontier rows by ``np.searchsorted``, and layer 1 sums from the
    gathered copy of the layer-0 frontier rather than from the table.
    """
    cfg = model.config
    feats = features if isinstance(features, nd.Tensor) else nd.Tensor(np.asarray(features, dtype=np.float64))
    batch = np.asarray(batch, dtype=np.int64)
    per_relation = []
    for r in range(cfg.num_relations):
        fronts, hoods = [batch], []
        for _ in range(cfg.num_layers):
            members, seg_ids = graph.neighbor_segments(r, fronts[0])
            hoods.insert(0, (members, seg_ids))
            fronts.insert(0, np.union1d(fronts[0], members))
        h = nd.gather_rows(feats, fronts[0])
        for l in range(1, cfg.num_layers + 1):
            members, seg_ids = hoods[l - 1]
            pos = np.searchsorted(fronts[l - 1], fronts[l])
            sums = bucket_sums(h, np.searchsorted(fronts[l - 1], members), seg_ids,
                               partition.bucket[members], pos.size)
            h = layer_forward(
                model.layers[r][l - 1], cfg.variant, sums,
                nd.gather_rows(h, pos), nd.gather_rows(h, pos), use_relu=(l < cfg.num_layers),
            )
        per_relation.append(h)
    cat = nd.concat(per_relation, axis=1)
    hidden = nd.relu(nd.add_rowvec(nd.matmul(cat, model.readout_W), model.readout_b))
    logits = nd.add_rowvec(nd.matmul(hidden, model.head_w), model.head_b)
    return nd.sigmoid(nd.reshape(logits, (batch.size,)))


def sub(a, b):
    """Elementwise difference as a differentiation engine operator."""
    return nd._make(a.data - b.data, "sub", (a, b), lambda g: (g, -g))


def add(a, b):
    """Elementwise sum of two same-shape tensors as an engine operator."""
    if a.data.shape != b.data.shape:
        raise nd.ShapeError(f"add: shapes differ, {a.data.shape} vs {b.data.shape}")
    return nd._make(a.data + b.data, "add", (a, b), lambda g: (g, g))


def mul(a, b):
    """Elementwise product of two same-shape tensors as an engine operator."""
    if a.data.shape != b.data.shape:
        raise nd.ShapeError(f"mul: shapes differ, {a.data.shape} vs {b.data.shape}")
    ad, bd = a.data, b.data
    return nd._make(ad * bd, "mul", (a, b), lambda g: (g * bd, g * ad))


def affine(x, scale, shift=0.0):
    """Elementwise scale * x + shift with python-scalar coefficients, as an
    engine operator."""
    scale = float(scale)
    return nd._make(scale * x.data + float(shift), "affine", (x,), lambda g: (scale * g,))


def mean(x):
    """Mean over all elements, as a 0-d tensor from an engine operator."""
    if x.data.size == 0:
        raise nd.ShapeError("mean: empty input")
    size, shape = x.data.size, x.data.shape
    return nd._make(np.asarray(np.mean(x.data)), "mean", (x,), lambda g: (np.full(shape, float(g) / size),))


def per_example_cross_entropy(probs, targets):
    """Each example's clamped cross-entropy of a recorded sigmoid output as
    an engine operator; its adjoint g * (sigma(z) - t) goes straight to the
    logits z, as ``nd.binary_cross_entropy``'s does."""
    t = np.asarray(targets, dtype=np.float64)
    pc = np.clip(probs.data, nd.PROB_CLAMP, 1.0 - nd.PROB_CLAMP)
    out = -(t * np.log(pc) + (1.0 - t) * np.log1p(-pc))
    (logits,) = probs._parents
    zd = logits.data
    return nd._make(out, "per_example_cross_entropy", (logits,), lambda g: (g * (nd._logistic(zd) - t),))


def composed_loss(probs, labels, batch, pos_weight=None):
    """``model.loss`` as a chain of small ops: the per-example cross-entropy
    and its mean, or with ``pos_weight`` its weighted mean as
    mean(l * w) scaled by n / sum(w)."""
    y = np.asarray(labels)[np.asarray(batch, dtype=np.int64)].astype(np.float64)
    per_example = per_example_cross_entropy(probs, y)
    if pos_weight is None:
        return mean(per_example)
    w = np.where(y == 1, float(pos_weight), 1.0)
    return affine(mean(mul(per_example, nd.Tensor(w))), y.size / w.sum())


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

    return nd._make(ad * sd[:, None], "row_scale", (a, s), vjp)


def alpha_gate(params, h):
    """Per-center blend coefficient in (0, 1) from an [k, d_in] batch, as
    four recorded ops."""
    z = nd.add_rowvec(nd.matmul(h, params.w_phi), params.b_phi)
    return nd.sigmoid(nd.reshape(z, (h.shape[0],)))


def _bucket_term(S, h_centers, M, B, root_specific):
    if root_specific:
        return add(nd.matmul(mul(S, h_centers), M), nd.matmul(S, B))
    return nd.matmul(S, M)


def aggregate_segments(params, variant, sums, h_centers, h_gate):
    """The neighbor aggregation of ``layer_forward``, one recorded op per
    step: three block gathers, the gate, the blend, the two bucket terms."""
    k = h_centers.shape[0]
    S_fr, S_be, S_un = (nd.gather_rows(sums, np.arange(b * k, (b + 1) * k)) for b in range(3))
    if not variant.partition_enabled:
        return nd.matmul(add(add(S_fr, S_be), S_un), params.M_fr)
    rs = variant.root_specific_enabled
    if variant.adaptive_combination_enabled:
        a = alpha_gate(params, h_gate)
        S_fr = add(S_fr, row_scale(S_un, a))
        S_be = add(S_be, row_scale(S_un, affine(a, -1.0, 1.0)))
    total = add(
        _bucket_term(S_fr, h_centers, params.M_fr, params.B_fr, rs),
        _bucket_term(S_be, h_centers, params.M_be, params.B_be, rs),
    )
    return total if variant.adaptive_combination_enabled else add(total, nd.matmul(S_un, params.M_un))


def composed_layer_forward(params, variant, sums, h_centers, h_gate, use_relu=True):
    """``layer_forward`` with each step its own recorded op (10 for the
    baseline, 25 for the full variant): self term, aggregation, ReLU."""
    self_term = nd.add_rowvec(nd.matmul(h_centers, params.W_self), params.b_self)
    out = add(self_term, aggregate_segments(params, variant, sums, h_centers, h_gate))
    return nd.relu(out) if use_relu else out


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


def grad_check(function, parameters: dict, tolerance: float = 1e-4) -> GradCheckReport:
    """Compare reverse-mode gradients of a scalar ``function()`` against
    central finite differences over every entry of every parameter.

    ``function`` must be deterministic and must read the parameter tensors
    in ``parameters`` (their ``data`` is perturbed in place between calls).
    The step per entry is ``1e-6 * max(1, |x|)``; errors are relative
    with a unit floor, |a - fd| / max(1, |a|, |fd|).
    """
    for p in parameters.values():
        p.grad = None
    out = function()
    if out.data.size != 1:
        raise nd.ShapeError("grad_check: function must return a scalar tensor")
    nd.backward(out)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in parameters.items()
    }

    per_block = {}
    for name, p in parameters.items():
        worst = 0.0
        # By multi-index into ``p.data`` itself: a flat reshape of a
        # parameter that is not C-contiguous would be a copy, and perturbing
        # it would never reach ``function``.
        for idx in np.ndindex(p.data.shape):
            x0 = p.data[idx]
            h = 1e-6 * max(1.0, abs(x0))
            p.data[idx] = x0 + h
            f_plus = float(function().data)
            p.data[idx] = x0 - h
            f_minus = float(function().data)
            p.data[idx] = x0
            fd = (f_plus - f_minus) / (2.0 * h)
            a = analytic[name][idx]
            rel = abs(a - fd) / max(1.0, abs(a), abs(fd))
            if rel > worst:
                worst = rel
        per_block[name] = worst
    return GradCheckReport(per_block=per_block, tolerance=tolerance)


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
    X = nd.Tensor(rng.normal(size=(n, d_in)), requires_grad=True)
    A_t = nd.Tensor(A)
    W_t = nd.Tensor(W)

    expected = np.linalg.matrix_power(A, k)[i, j] * W
    block = np.empty((d_in, d_out), dtype=np.float64)
    for q in range(d_out):
        # Fresh graph per column; reverse passes must not share adjoints.
        H = X
        for _ in range(k):
            H = nd.matmul(A_t, H)
        H = nd.matmul(H, W_t)
        X.grad = None
        seed = np.zeros((n, d_out))
        seed[i, q] = 1.0
        nd.backward(H, seed=seed)
        block[:, q] = X.grad[j]
    return float(np.max(np.abs(block - expected)))
