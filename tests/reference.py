"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: per-node Python loops, materialized
per-center weight matrices, O(P*N) pairwise metric counts. None of it
shares code with the production paths it checks. The two exceptions check
the differentiation engine itself and are built on it: ``sub``, an operator
the model never uses, and ``influence_linear_check``. A third,
``frontier_model_forward``, checks only how ``model_forward`` feeds its
layers, so it runs the production layer on inputs it indexes its own way.
"""
import math

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
                model.layers[r][l - 1], cfg.variant, sums, np.arange(pos.size),
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
