"""Acceptance gate: one test per advertised guarantee, C1 through C12.

Each test prints a single PASS line with the measured value and the pinned
tolerance once its assertions hold (run with -s to see them). C10's
extended dataset comparison and all of C12 need real bundles and activate
only when PMPFRAUD_YELP_BUNDLE / PMPFRAUD_AMAZON_BUNDLE /
PMPFRAUD_TFINANCE_BUNDLE point at bundle directories.
"""
import os
import time

import numpy as np
import pytest

from pmpfraud import ndiff as nd
from pmpfraud.analysis import (
    eigendecompose,
    influence_report,
    normalized_laplacian,
    spatial_spectral_check,
)
from pmpfraud.bundle import load_bundle
from pmpfraud.cli import build_parser, run_bench
from pmpfraud.graph import NodeTable, PartitionIndex, RelationalGraph, homophily_score
from pmpfraud.layer import LayerVariant, PmpLayerParams
from pmpfraud.metrics import auc, compute_report
from pmpfraud.model import ModelConfig, PmpModel, loss, model_forward, model_logits
from pmpfraud.synth import generate_ba_graph, generate_features, make_splits
from pmpfraud.training import TrainConfig, evaluate, train

from .reference import (
    benign_neighbors,
    counted_metrics,
    fraud_neighbors,
    grad_check,
    influence_linear_check,
    naive_model_forward,
    normalized_adjacency,
    pairwise_auc,
    unlabeled_neighbors,
)
from .test_layer import aggregate


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _random_edges(rng, n, approx):
    pairs = rng.integers(0, n, size=(approx, 2))
    return pairs[pairs[:, 0] != pairs[:, 1]]


def _random_graph(rng, n, approx_edges, relations=1):
    lists = [_random_edges(rng, n, approx_edges) for _ in range(relations)]
    return RelationalGraph.from_edge_lists(n, lists)


def _random_table(rng, g, d, fraud_p=0.3, unlabeled_p=0.3):
    n = g.num_nodes
    labels = (rng.random(n) < fraud_p).astype(np.int8)
    labels[:2] = [1, 0]
    splits = np.zeros(n, dtype=np.int8)
    splits[2:][rng.random(n - 2) < unlabeled_p] = 2
    return NodeTable(rng.normal(size=(n, d)), labels, splits)


def _nudge(model, rng, scale=0.3):
    # Zero-initialized blocks would hide wiring bugs from the checks.
    for p in model.parameters().values():
        p.data = p.data + scale * rng.normal(size=p.data.shape)


def test_c01_full_model_gradients_match_finite_differences():
    started = time.time()
    worst = 0.0
    for trial in range(10):
        # Central differences need a smooth, well-conditioned objective:
        # regenerate any instance with a relu pre-activation within probe
        # range of its kink, or with a probability so saturated that
        # 1 - p keeps too few float bits for the loss difference to be
        # measurable (the analytic gradient is exact there, the FD quotient
        # is quantization noise).
        for attempt in range(50):
            rng = np.random.default_rng((5000 + trial, attempt))
            n = int(rng.integers(8, 31))
            d = int(rng.integers(2, 7))
            hidden = int(rng.integers(2, 6))
            num_layers = int(rng.integers(1, 3))
            num_relations = int(rng.integers(1, 3))
            g = _random_graph(rng, n, approx_edges=2 * n, relations=num_relations)
            table = _random_table(rng, g, d)
            partition = PartitionIndex.from_table(g, table)
            model = PmpModel(
                ModelConfig(feature_dim=d, hidden_dim=hidden, num_layers=num_layers,
                            num_relations=num_relations),
                seed=trial,
            )
            params = model.parameters()
            _nudge(model, rng)
            batch = rng.choice(n, size=min(8, n), replace=False)

            def objective():
                logits = model_logits(model, g, partition, table.features, batch)
                return loss(logits, table.labels, batch)

            margins = []
            probs = naive_model_forward(model, g, partition, table.features, batch,
                                        relu_margins=margins)
            if (min(margins) > 1e-4
                    and np.all((probs > 1e-4) & (probs < 1.0 - 1e-4))):
                break
        else:
            pytest.fail(f"trial {trial}: no smooth instance in 50 attempts")

        report = grad_check(objective, params, tolerance=1e-4)
        worst = max(worst, report.max_relative_error)
        assert report.passed, f"trial {trial}: max rel err {report.max_relative_error}"
    elapsed = time.time() - started
    assert elapsed < 120.0
    print(f"PASS C1: 10-seed full-model grad check, max rel err "
          f"{worst:.3g} < 1e-4, {elapsed:.1f}s < 120s")


def test_c02_partition_with_equal_matrices_collapses_to_baseline():
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(6000 + trial)
        n = int(rng.integers(10, 40))
        d = int(rng.integers(2, 6))
        g = _random_graph(rng, n, approx_edges=4 * n)
        table = _random_table(rng, g, d)
        partition = PartitionIndex.from_table(g, table)
        cfg = dict(feature_dim=d, hidden_dim=int(rng.integers(2, 6)),
                   num_layers=int(rng.integers(1, 3)), num_relations=1)
        partitioned = PmpModel(
            ModelConfig(variant=LayerVariant(True, False, False), **cfg), seed=trial)
        _nudge(partitioned, rng)
        for stack in partitioned.layers:
            for p in stack:
                p.M_be.data = p.M_fr.data.copy()
                p.M_un.data = p.M_fr.data.copy()
        baseline = PmpModel(
            ModelConfig(variant=LayerVariant.baseline(), **cfg), seed=trial)
        baseline.load_state(partitioned.state())
        batch = rng.choice(n, size=min(10, n), replace=False)
        a = model_forward(partitioned, g, partition, table.features, batch)
        b = model_forward(baseline, g, partition, table.features, batch)
        worst = max(worst, float(np.max(np.abs(a.data - b.data))))
    assert worst <= 1e-12, worst
    print(f"PASS C2: equal-matrix partition == shared-weight baseline on 20 "
          f"instances, max |diff| {worst:.3g} <= 1e-12")


def test_c03_fused_generator_path_matches_materialized_weights():
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(7000 + trial)
        n = int(rng.integers(5, 26))
        d_in = int(rng.integers(2, 6))
        d_out = int(rng.integers(2, 6))
        g = _random_graph(rng, n, approx_edges=4 * n)
        table = _random_table(rng, g, d_in)
        partition = PartitionIndex.from_table(g, table)
        params = PmpLayerParams(d_in, d_out, rng)
        for t in params.tensors().values():
            t.data = rng.normal(size=t.data.shape)
        h = rng.normal(size=(n, d_in))
        batch = rng.choice(n, size=min(8, n), replace=False)
        got = aggregate(params, LayerVariant.full(), partition, 0, nd.Tensor(h), batch).data
        want = np.zeros_like(got)
        for pos, u in enumerate(batch):
            h_u = h[u]
            w_fr = np.diag(h_u) @ params.M_fr.data + params.B_fr.data
            w_be = np.diag(h_u) @ params.M_be.data + params.B_be.data
            alpha = _sigmoid(h_u @ params.w_phi.data[:, 0] + params.b_phi.data[0])
            w_un = alpha * w_fr + (1.0 - alpha) * w_be
            s_fr = h[fraud_neighbors(partition, 0, u)].sum(axis=0)
            s_be = h[benign_neighbors(partition, 0, u)].sum(axis=0)
            s_un = h[unlabeled_neighbors(partition, 0, u)].sum(axis=0)
            want[pos] = s_fr @ w_fr + s_be @ w_be + s_un @ w_un
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-12, worst
    print(f"PASS C3: fused generator path == per-node diag(h)M+B on 50 draws, "
          f"max |diff| {worst:.3g} <= 1e-12")


def test_c04_masked_transformation_matches_k_matrix_form():
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(8000 + trial)
        n = int(rng.integers(10, 101))
        d = int(rng.integers(2, 6))
        d_out = int(rng.integers(2, 6))
        g = _random_graph(rng, n, approx_edges=3 * n)
        labels = (rng.random(n) < 0.3).astype(np.int8)
        partition = PartitionIndex.build(g, labels, rng.random(n) < 0.6)
        X = rng.normal(size=(n, d))
        W_fr = rng.normal(size=(d, d_out))
        W_be = rng.normal(size=(d, d_out))
        for alpha in (0.1, 0.5, 0.9):
            report = spatial_spectral_check(g, partition, X, W_fr, W_be, alpha)
            worst = max(worst, report.spatial_identity_error)
        for alpha in (0.0, 1.0):
            report = spatial_spectral_check(g, partition, X, W_fr, W_be, alpha)
            assert report.spatial_identity_error == 0.0
    assert worst <= 1e-10, worst
    print(f"PASS C4: three-bucket form == K-matrix form on 20 graphs, max "
          f"|diff| {worst:.3g} <= 1e-10 at alpha 0.1/0.5/0.9, exactly 0.0 at 0/1")


def test_c05_laplacian_spectrum_and_reconstruction():
    worst_recon = 0.0
    lam_lo, lam_hi = np.inf, -np.inf
    for trial in range(10):
        rng = np.random.default_rng(9000 + trial)
        n = int(rng.integers(5, 80))
        g = _random_graph(rng, n, approx_edges=3 * n)
        L = normalized_laplacian(g)
        U, lam = eigendecompose(L)
        worst_recon = max(worst_recon, float(np.linalg.norm(L - U @ np.diag(lam) @ U.T)))
        lam_lo, lam_hi = min(lam_lo, lam.min()), max(lam_hi, lam.max())
    assert worst_recon <= 1e-8, worst_recon
    assert lam_lo >= -1e-9 and lam_hi <= 2.0 + 1e-9, (lam_lo, lam_hi)

    k2 = RelationalGraph.from_edge_lists(2, [np.array([[0, 1]])])
    _, lam2 = eigendecompose(normalized_laplacian(k2))
    assert lam2[0] == 0.0 and lam2[1] == 2.0
    print(f"PASS C5: Frobenius recon {worst_recon:.3g} <= 1e-8, eigenvalues in "
          f"[{lam_lo:.2g}, {lam_hi:.10g}] within [0,2]+-1e-9, K2 spectrum exactly {{0, 2}}")


def test_c06_linear_model_influence_matches_adjacency_powers():
    worst = 0.0
    for trial in range(6):
        rng = np.random.default_rng(10_000 + trial)
        n = int(rng.integers(5, 41))
        g = _random_graph(rng, n, approx_edges=3 * n)
        A = normalized_adjacency(g)
        W = rng.normal(size=(int(rng.integers(2, 5)), int(rng.integers(2, 5))))
        for k in range(5):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            worst = max(worst, influence_linear_check(A, W, k, i, j))
    assert worst <= 1e-8, worst
    print(f"PASS C6: engine Jacobian == (A^k)_ij W for k in 0..4 on random "
          f"graphs (n <= 40), max |diff| {worst:.3g} <= 1e-8")


def test_c07_separable_synthetic_reaches_auc_99():
    started = time.time()
    aucs = []
    for seed in (0, 1, 2):
        g, labels = generate_ba_graph(500, 5, fraud_fraction=0.10, seed=seed)
        x = generate_features(labels, feature_dim=8, mu_benign=1.0, mu_fraud=5.0,
                              sigma=1.0, seed=seed + 100)
        splits = make_splits(500, (0.4, 0.2, 0.4), seed=seed + 200, stratify_labels=labels)
        table = NodeTable(x, labels, splits)
        model = PmpModel(ModelConfig(feature_dim=8, hidden_dim=64), seed=seed + 300)
        model, history = train(model, g, table,
                               TrainConfig(max_epochs=200, patience=20, seed=seed + 400))
        assert len(history.entries) <= 200
        aucs.append(evaluate(model, g, table, "test").auc)
        assert aucs[-1] >= 0.99, f"seed {seed}: test AUC {aucs[-1]}"
    elapsed = time.time() - started
    assert elapsed < 300.0
    print(f"PASS C7: BA(500,5) 10% fraud, 3/3 seeds test AUC >= 0.99 "
          f"(min {min(aucs):.5f}) within 200 epochs, {elapsed:.1f}s < 300s")


def _fraud_community_graph(n, m, fraud_fraction, extra_edges, seed):
    """BA base plus a sparse fraud subcommunity.

    Every fraud node gains extra_edges links to other fraud nodes, so fraud
    neighborhoods stay benign-majority while fraud-neighbor counts become
    informative.
    """
    g, labels = generate_ba_graph(n, m, fraud_fraction, seed)
    pairs = [(u, v) for u in range(n) for v in g.neighbors(0, u) if u < v]
    rng = np.random.default_rng(seed + 7)
    fraud = np.flatnonzero(labels == 1)
    for u in fraud:
        others = fraud[fraud != u]
        for v in rng.choice(others, size=extra_edges, replace=False):
            pairs.append((min(int(u), int(v)), max(int(u), int(v))))
    edges = np.unique(np.array(pairs, dtype=np.int64), axis=0)
    return RelationalGraph.from_edge_lists(n, [edges]), labels


def test_c08_partitioning_raises_fraud_neighbor_influence():
    wins = 0
    details = []
    for seed in range(5):
        g, labels = _fraud_community_graph(400, 4, 0.10, extra_edges=2, seed=seed)
        x = generate_features(labels, feature_dim=8, mu_benign=-1.0, mu_fraud=1.0,
                              sigma=1.0, seed=seed + 50)
        splits = make_splits(400, (0.4, 0.2, 0.4), seed=seed + 90, stratify_labels=labels)
        table = NodeTable(x, labels, splits)
        config = TrainConfig(max_epochs=60, patience=60, seed=seed + 400)
        diffs = {}
        for name, variant in (("pmp", LayerVariant.full()), ("baseline", LayerVariant.baseline())):
            model = PmpModel(
                ModelConfig(feature_dim=8, hidden_dim=16, variant=variant), seed=seed + 300)
            model, _ = train(model, g, table, config)
            diffs[name] = influence_report(model, g, table).mean_diff()
        wins += diffs["pmp"] > diffs["baseline"]
        details.append(f"{diffs['pmp']:+.3f}/{diffs['baseline']:+.3f}")
    assert wins >= 4, f"wins {wins}/5 ({', '.join(details)})"
    print(f"PASS C8: mean(I_f - I_b) over fraud nodes greater for PMP than "
          f"baseline in {wins}/5 paired seeds (pmp/base: {', '.join(details)})")


def test_c09_metric_oracles():
    rng = np.random.default_rng(11_000)
    worst = 0.0
    for case in range(10_000):
        n = int(rng.integers(2, 26))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [1, 0]
        if case % 2:
            scores = rng.integers(0, 5, size=n) / 4.0
        else:
            scores = rng.random(n)
        worst = max(worst, abs(auc(scores, labels) - pairwise_auc(scores, labels)))
    assert worst <= 1e-12, worst

    for case in range(200):
        n = int(rng.integers(3, 40))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [1, 0]
        scores = rng.integers(0, 5, size=n) / 4.0
        want = counted_metrics(scores, labels)
        report = compute_report(scores, labels, 0.5)
        assert report.confusion == want["confusion"]
        assert report.f1_macro == want["f1_macro"]
        assert report.g_mean == want["g_mean"]

    scores = rng.random(200)
    labels = rng.integers(0, 2, size=200)
    labels[:2] = [1, 0]
    base = auc(scores, labels)
    assert auc(100.0 * scores - 3.0, labels) == base
    assert auc(np.exp(scores), labels) == base
    print(f"PASS C9: AUC == pairwise oracle on 10k cases (max |diff| "
          f"{worst:.3g} <= 1e-12), F1-macro/G-Mean exact, monotone invariant")


_BUNDLE_CHECKS = [
    ("PMPFRAUD_YELP_BUNDLE", "yelp", 0.0538),
    ("PMPFRAUD_AMAZON_BUNDLE", "amazon", 0.0512),
    ("PMPFRAUD_TFINANCE_BUNDLE", "t-finance", 0.4363),
]


def test_c10_homophily_exact_and_dataset_values():
    rng = np.random.default_rng(12_000)
    for trial in range(10):
        n = int(rng.integers(6, 60))
        labels = (rng.random(n) < 0.4).astype(np.int8)
        labels[:2] = [1, 0]
        by_class = [np.flatnonzero(labels == k) for k in (0, 1)]
        pairs = []
        for members in by_class:
            # Same-class path plus random same-class chords: fully homophilic.
            pairs += [(int(a), int(b)) for a, b in zip(members, members[1:])]
            if members.size >= 2:
                for _ in range(members.size):
                    a, b = rng.choice(members, size=2, replace=False)
                    pairs.append((int(a), int(b)))
        g = RelationalGraph.from_edge_lists(n, [np.array(pairs, dtype=np.int64)])
        assert homophily_score(g, labels) == 1.0

    checked = []
    for env, name, expected in _BUNDLE_CHECKS:
        path = os.environ.get(env)
        if not path:
            continue
        g, table = load_bundle(path)
        relation = "union" if g.num_relations > 1 else 0
        got = homophily_score(g, table.labels, relation=relation)
        assert abs(got - expected) <= 1e-3, f"{name}: {got} vs {expected}"
        checked.append(f"{name} {got:.4f}")
    extended = ", ".join(checked) if checked else "skipped (no bundles supplied)"
    print(f"PASS C10: fully homophilic graphs score exactly 1.0 on 10 "
          f"constructions; dataset check +-1e-3: {extended}")


def test_c11_epoch_time_scales_linearly_with_edges():
    args = build_parser().parse_args(["bench"])  # the bench subcommand's defaults
    result = run_bench([10_000, 100_000, 1_000_000], d=args.d, hidden_dim=args.hidden_dim, m_attach=args.m_attach,
                       batch_size=args.batch_size, epochs=args.epochs, seed=args.seed)
    times = ", ".join(
        f"{e['edges']:.0e}: {e['seconds_per_epoch'] * 1e3:.1f}ms" for e in result["entries"])
    assert result["r_squared"] >= 0.9, result
    print(f"PASS C11: per-epoch time vs edges linear fit R^2 "
          f"{result['r_squared']:.4f} >= 0.9 ({times})")


def test_c12_yelp_auc_with_reported_hyperparameters():
    path = os.environ.get("PMPFRAUD_YELP_BUNDLE")
    if not path:
        pytest.skip("set PMPFRAUD_YELP_BUNDLE to run the full-dataset check")
    g, table = load_bundle(path)
    splits = make_splits(g.num_nodes, (0.4, 0.2, 0.4), seed=0, stratify_labels=table.labels)
    table = NodeTable(table.features, table.labels, splits)
    model = PmpModel(
        ModelConfig(feature_dim=table.feature_dim, hidden_dim=256, num_layers=1,
                    num_relations=g.num_relations),
        seed=0,
    )
    config = TrainConfig(learning_rate=0.01, weight_decay=0.0, dropout_p=0.0,
                         batch_size=512, max_epochs=200, patience=20, seed=0)
    model, _ = train(model, g, table, config)
    got = evaluate(model, g, table, "test").auc * 100.0
    assert abs(got - 93.97) <= 2.0, got
    print(f"PASS C12: Yelp test AUC {got:.2f} within +-2.0 of 93.97")
