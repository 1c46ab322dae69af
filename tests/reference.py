"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: per-node Python loops, materialized
per-center weight matrices, O(P*N) pairwise metric counts. None of it
shares code with the production paths it checks.
"""
import numpy as np


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
                s_fr = sum((h_prev[j] for j in partition.fraud_neighbors(r, i)), np.zeros_like(h_i))
                s_be = sum((h_prev[j] for j in partition.benign_neighbors(r, i)), np.zeros_like(h_i))
                s_un = sum((h_prev[j] for j in partition.unlabeled_neighbors(r, i)), np.zeros_like(h_i))
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
