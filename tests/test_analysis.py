"""Spectral identities and gradient-based neighbor influence."""
import math

import numpy as np
import pytest

from pmpfraud import analysis
from pmpfraud import ndiff as nd
from pmpfraud.analysis import (
    DenseCapExceeded,
    SpectralReport,
    eigendecompose,
    influence,
    influence_report,
    k_matrix,
    mask_matrices,
    normalized_laplacian,
    spatial_spectral_check,
)
from pmpfraud.graph import NodeTable, PartitionIndex, RelationalGraph
from pmpfraud.layer import LayerVariant
from pmpfraud.model import ModelConfig, PmpModel, model_forward

from .reference import grad_check, influence_linear_check, mean, normalized_adjacency


def random_graph(rng, n, factor=3):
    edges = [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(factor * n)]
    return RelationalGraph.from_edge_lists(n, [edges])


class TestLaplacian:
    def test_single_edge(self):
        g = RelationalGraph.from_edge_lists(2, [[(0, 1)]])
        L = normalized_laplacian(g)
        np.testing.assert_array_equal(L, [[1.0, -1.0], [-1.0, 1.0]])
        _, lam = eigendecompose(L)
        np.testing.assert_allclose(lam, [0.0, 2.0], rtol=0, atol=1e-12)

    def test_empty_graph_is_identity(self):
        g = RelationalGraph.from_edge_lists(4, [[]])
        np.testing.assert_array_equal(normalized_laplacian(g), np.eye(4))

    def test_isolated_node_keeps_identity_row(self):
        g = RelationalGraph.from_edge_lists(3, [[(0, 1)]])
        L = normalized_laplacian(g)
        np.testing.assert_array_equal(L[2], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(L[:, 2], [0.0, 0.0, 1.0])

    def test_symmetric_bitwise(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            L = normalized_laplacian(random_graph(rng, 30))
            np.testing.assert_array_equal(L, L.T)

    def test_eigenvalue_range_and_reconstruction(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            L = normalized_laplacian(random_graph(rng, 40))
            U, lam = eigendecompose(L)
            assert lam.min() >= -1e-9
            assert lam.max() <= 2.0 + 1e-9
            assert np.all(np.diff(lam) >= 0)
            np.testing.assert_allclose(U @ np.diag(lam) @ U.T, L, rtol=0, atol=1e-8)
            np.testing.assert_allclose(U.T @ U, np.eye(L.shape[0]), rtol=0, atol=1e-10)

    def test_adjacency_complement(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 20)
        np.testing.assert_array_equal(
            normalized_adjacency(g), np.eye(20) - normalized_laplacian(g)
        )

    def test_cap_refuses_large_graphs(self):
        g = RelationalGraph.from_edge_lists(11, [[(0, 1)]])
        with pytest.raises(DenseCapExceeded, match="11"):
            normalized_laplacian(g, cap=10)


def partition_of(labels, train, g=None):
    """The train-label partition of ``labels`` on ``g`` (an edgeless graph if None)."""
    if g is None:
        g = RelationalGraph.from_edge_lists(len(labels), [[]])
    return PartitionIndex.build(g, np.asarray(labels), np.asarray(train))


class TestMasks:
    def test_indicators(self):
        labels = np.array([1, 0, 1, 0])
        train = np.array([True, True, False, False])
        f, b = mask_matrices(partition_of(labels, train))
        np.testing.assert_array_equal(f, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(b, [0.0, 1.0, 0.0, 0.0])

    def test_indicators_are_the_partitions_buckets(self):
        # F and B read buckets 0 and 1 as given; no label is consulted
        g = RelationalGraph.from_edge_lists(4, [[]])
        f, b = mask_matrices(PartitionIndex(g, [2, 1, 0, 1]))
        np.testing.assert_array_equal(f, [0.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(b, [0.0, 1.0, 0.0, 1.0])

    def test_k_matrix_entries(self):
        labels = np.array([1, 0, 1])
        train = np.array([True, True, False])
        f, b = mask_matrices(partition_of(labels, train))
        np.testing.assert_array_equal(k_matrix(f, b, 0.3), [1.0, 0.0, 0.3])

    def test_k_boundaries(self):
        labels = np.array([1, 0, 1])
        train = np.array([True, True, False])
        f, b = mask_matrices(partition_of(labels, train))
        np.testing.assert_array_equal(k_matrix(f, b, 0.0), f)
        np.testing.assert_array_equal(k_matrix(f, b, 1.0), 1.0 - b)

    def test_k_complement_is_exact(self):
        labels = np.array([1, 0, 1, 0, 1])
        train = np.array([True] * 3 + [False] * 2)
        f, b = mask_matrices(partition_of(labels, train))
        k = k_matrix(f, b, 0.7)
        np.testing.assert_array_equal(k + (1.0 - k), np.ones(5))

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, float("nan")])
    def test_alpha_validation(self, alpha):
        f, b = mask_matrices(partition_of([1, 0], [True, True]))
        with pytest.raises(ValueError, match=rf"^alpha must lie in \[0, 1\], got {alpha}$"):
            k_matrix(f, b, alpha)


class TestSpatialSpectral:
    def run_check(self, rng, n=25, alpha=0.5):
        g = random_graph(rng, n)
        labels = rng.integers(0, 2, size=n)
        train = rng.random(n) < 0.5
        X = rng.normal(size=(n, 4))
        W_fr = rng.normal(size=(4, 3))
        W_be = rng.normal(size=(4, 3))
        return spatial_spectral_check(g, partition_of(labels, train, g), X, W_fr, W_be, alpha)

    def test_identity_holds_on_random_instances(self):
        rng = np.random.default_rng(3)
        for alpha in (0.1, 0.5, 0.9):
            report = self.run_check(rng, alpha=alpha)
            assert report.spatial_identity_error <= 1e-10
            assert report.reconstruction_error <= 1e-8

    def test_identity_is_exact_at_alpha_endpoints(self):
        # at alpha 0 or 1 the blended matrix is bitwise one of the two
        # weight matrices, so both sides run the same arithmetic
        rng = np.random.default_rng(4)
        for alpha in (0.0, 1.0):
            report = self.run_check(rng, alpha=alpha)
            assert report.spatial_identity_error == 0.0

    def test_filter_responses_match_definition(self):
        rng = np.random.default_rng(5)
        n = 15
        g = random_graph(rng, n)
        labels = rng.integers(0, 2, size=n)
        train = rng.random(n) < 0.5
        partition = partition_of(labels, train, g)
        report = spatial_spectral_check(
            g, partition, rng.normal(size=(n, 2)),
            rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), 0.25,
        )
        k_diag = k_matrix(*mask_matrices(partition), 0.25)
        lam = report.eigenvalues
        assert report.filter_responses.shape == (n, 4)
        for j, lam_j, g_fr, g_be in report.filter_responses:
            j = int(j)
            assert lam_j == lam[j]
            assert g_fr == (1.0 - lam_j) * k_diag[j]
            assert g_be == (1.0 - lam_j) * (1.0 - k_diag[j])
        np.testing.assert_array_equal(np.sort(lam), report.filter_responses[:, 1])

    def test_csv_output(self, tmp_path):
        rng = np.random.default_rng(6)
        report = self.run_check(rng, n=8)
        path = tmp_path / "spectral.csv"
        report.to_csv(str(path), meta_line="seed=6")
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=6"
        assert lines[1] == "node_index,lambda,g_fr,g_be"
        assert len(lines) == 10

    def test_cap(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 12)
        with pytest.raises(DenseCapExceeded):
            spatial_spectral_check(
                g, partition_of(np.zeros(12, dtype=int), np.ones(12, bool), g),
                np.zeros((12, 1)), np.zeros((1, 1)), np.zeros((1, 1)), 0.5, cap=10,
            )


def hand_model(values):
    """1-d, 1-hidden-unit model with every weight pinned."""
    cfg = ModelConfig(feature_dim=1, hidden_dim=1, variant=LayerVariant.full())
    model = PmpModel(cfg, seed=0)
    p = model.layers[0][0]
    p.W_self.data = np.array([[values["a"]]])
    p.b_self.data = np.array([values["c"]])
    p.M_fr.data = np.array([[values["mf"]]])
    p.B_fr.data = np.array([[values["bf"]]])
    p.M_be.data = np.array([[values["mb"]]])
    p.B_be.data = np.array([[values["bb"]]])
    model.readout_W.data = np.array([[values["wr"]]])
    model.readout_b.data = np.array([values["br"]])
    model.head_w.data = np.array([[values["wh"]]])
    model.head_b.data = np.array([values["bh"]])
    return model


class TestInfluence:
    def chain_fixture(self):
        # center 0 (fraud, val split) with one fraud and one benign train
        # neighbor; every weight is a hand-picked scalar
        g = RelationalGraph.from_edge_lists(3, [[(0, 1), (0, 2)]])
        table = NodeTable(
            features=np.array([[0.5], [1.0], [2.0]]),
            labels=np.array([1, 1, 0]),
            splits=np.array([1, 0, 0]),
        )
        v = dict(a=0.3, c=0.1, mf=0.7, bf=0.2, mb=-0.4, bb=0.05, wr=1.2, br=0.05, wh=0.9, bh=-0.1)
        return g, table, hand_model(v), v

    def test_matches_chain_rule(self):
        g, table, model, v = self.chain_fixture()
        x0, x1, x2 = 0.5, 1.0, 2.0
        w_fr = x0 * v["mf"] + v["bf"]
        w_be = x0 * v["mb"] + v["bb"]
        o = x0 * v["a"] + v["c"] + x1 * w_fr + x2 * w_be
        pre = max(o * v["wr"] + v["br"], 0.0) * v["wh"] + v["bh"]
        s = 1.0 / (1.0 + math.exp(-pre))
        outer = s * (1.0 - s) * v["wh"] * v["wr"]
        i_f, i_b = influence(model, g, table, 0)
        assert abs(i_f - outer * w_fr) < 1e-12
        assert abs(i_b - outer * w_be) < 1e-12

    def test_feature_gradient_matches_finite_differences(self):
        # two layers and two relations: the gradient reaches the features
        # through layer 1's sums and both layers' center rows
        rng = np.random.default_rng(8)
        n = 14
        g = RelationalGraph.from_edge_lists(n, [rng.integers(0, n, size=(2 * n, 2)) for _ in range(2)])
        labels = np.array([1, 0] * (n // 2))
        table = NodeTable(0.5 * rng.normal(size=(n, 3)), labels, np.zeros(n, dtype=np.int64))
        model = PmpModel(ModelConfig(feature_dim=3, hidden_dim=4, num_layers=2, num_relations=2), seed=8)
        for p in model.parameters().values():
            p.data = p.data + 0.1 * rng.normal(size=p.data.shape)
        partition = PartitionIndex.from_table(g, table)
        center = 0
        # a column-major copy, as NodeTable stores them
        feats = nd.Tensor(np.array(table.features, order="F"), requires_grad=True)
        report = grad_check(lambda: mean(model_forward(model, g, partition, feats, np.array([center]))),
                            {"features": feats}, tolerance=1e-6)
        assert report.passed, str(report)
        assert np.count_nonzero(feats.grad) > 20

        def score(shift):
            return float(model_forward(model, g, partition, table.features + shift, np.array([center])).data[0])

        neighbors = np.unique(np.concatenate([g.neighbors(r, center) for r in range(2)]))
        got = influence(model, g, table, center, partition=partition)
        for value, cls in zip(got, (1, 0)):
            rows = neighbors[labels[neighbors] == cls]
            assert rows.size and value != 0.0
            step = np.zeros((n, 3))
            step[rows] = 1e-6
            assert abs(value - (score(step) - score(-step)) / 2e-6) < 1e-6 * max(1.0, abs(value))

    def test_zero_model_has_zero_influence(self):
        g, table, model, _ = self.chain_fixture()
        model.load_state({k: np.zeros_like(p) for k, p in model.state().items()})
        assert influence(model, g, table, 0) == (0.0, 0.0)

    def test_neighbors_union_over_relations(self):
        g = RelationalGraph.from_edge_lists(3, [[(0, 1)], [(0, 2)]])
        table = NodeTable(
            features=np.array([[0.5], [1.0], [2.0]]),
            labels=np.array([1, 1, 0]),
            splits=np.array([1, 0, 0]),
        )
        cfg = ModelConfig(feature_dim=1, hidden_dim=2, num_relations=2)
        model = PmpModel(cfg, seed=3)
        i_f, i_b = influence(model, g, table, 0)
        assert i_f != 0.0
        assert i_b != 0.0

    def test_rejects_benign_center(self):
        g, table, model, _ = self.chain_fixture()
        with pytest.raises(ValueError, match="not a fraud node"):
            influence(model, g, table, 2)

    def test_rejects_isolated_center(self):
        g = RelationalGraph.from_edge_lists(3, [[(1, 2)]])
        table = NodeTable(
            features=np.array([[0.5], [1.0], [2.0]]),
            labels=np.array([1, 1, 0]),
            splits=np.array([1, 0, 0]),
        )
        model = PmpModel(ModelConfig(feature_dim=1, hidden_dim=1), seed=0)
        with pytest.raises(ValueError, match="no neighbors"):
            influence(model, g, table, 0)


class TestInfluenceReport:
    def dataset(self, rng, n=20):
        g = random_graph(rng, n)
        labels = rng.integers(0, 2, size=n)
        labels[:4] = [1, 1, 0, 0]
        splits = rng.choice([0, 0, 1, 2], size=n)
        splits[:4] = 0
        table = NodeTable(rng.normal(size=(n, 3)), labels, splits)
        model = PmpModel(ModelConfig(feature_dim=3, hidden_dim=4), seed=1)
        return g, table, model

    def test_covers_every_fraud_node(self):
        rng = np.random.default_rng(8)
        g, table, model = self.dataset(rng)
        report = influence_report(model, g, table)
        assert [r[0] for r in report.rows] == np.flatnonzero(table.labels == 1).tolist()
        assert report.split == "all"
        assert report.reduction == "entry-sum"

    def test_split_filter(self):
        rng = np.random.default_rng(9)
        g, table, model = self.dataset(rng)
        report = influence_report(model, g, table, split="train")
        want = [int(i) for i in table.split_ids("train") if table.labels[i] == 1]
        assert [r[0] for r in report.rows] == want
        assert report.split == "train"

    def test_isolated_fraud_node_gets_exact_zeros(self):
        g = RelationalGraph.from_edge_lists(4, [[(1, 2), (1, 3)]])
        table = NodeTable(
            features=np.zeros((4, 1)),
            labels=np.array([1, 1, 0, 0]),
            splits=np.array([0, 0, 0, 0]),
        )
        model = PmpModel(ModelConfig(feature_dim=1, hidden_dim=1), seed=2)
        report = influence_report(model, g, table)
        assert report.rows[0] == (0, 0.0, 0.0, 0.0)

    def test_histogram_and_mean(self):
        rng = np.random.default_rng(10)
        g, table, model = self.dataset(rng)
        report = influence_report(model, g, table, num_bins=7)
        diffs = [r[3] for r in report.rows]
        assert report.bin_counts.sum() == len(diffs)
        assert len(report.bin_edges) == 8
        assert report.mean_diff() == pytest.approx(np.mean(diffs), abs=1e-15)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(num_bins=0), "num_bins must be at least 1, got 0"),
        (dict(split="bogus"), "unknown split 'bogus', expected one of train, val, test"),
    ], ids=["bins", "split"])
    def test_bad_settings_raise_before_scoring(self, monkeypatch, kwargs, message):
        rng = np.random.default_rng(12)
        g, table, model = self.dataset(rng)
        monkeypatch.setattr(analysis, "influence", lambda *a, **k: pytest.fail("scored a node"))
        monkeypatch.setattr(analysis.PartitionIndex, "from_table", lambda *a: pytest.fail("built the partition"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            influence_report(model, g, table, **kwargs)

    def test_csv_output(self, tmp_path):
        rng = np.random.default_rng(11)
        g, table, model = self.dataset(rng)
        report = influence_report(model, g, table)
        path = tmp_path / "influence.csv"
        report.to_csv(str(path), meta_line="seed=11")
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=11"
        assert lines[1] == "node,I_f,I_b,diff"
        assert len(lines) == 2 + len(report.rows)


class TestLinearCheck:
    def test_zero_hops_is_exact(self):
        rng = np.random.default_rng(12)
        A = np.zeros((3, 3))
        W = rng.normal(size=(2, 4))
        assert influence_linear_check(A, W, 0, 1, 1) == 0.0
        assert influence_linear_check(A, W, 0, 1, 2) == 0.0

    def test_single_edge_one_hop_is_exact(self):
        g = RelationalGraph.from_edge_lists(2, [[(0, 1)]])
        A = normalized_adjacency(g)
        W = np.array([[1.5, -2.0], [0.25, 3.0]])
        assert influence_linear_check(A, W, 1, 0, 1) == 0.0

    def test_random_instances_within_tolerance(self):
        rng = np.random.default_rng(13)
        for trial in range(4):
            n = int(rng.integers(5, 30))
            A = normalized_adjacency(random_graph(rng, n))
            W = rng.normal(size=(3, 2))
            k = int(rng.integers(0, 4))
            i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
            assert influence_linear_check(A, W, k, i, j) <= 1e-10

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            influence_linear_check(np.eye(2), np.eye(2), -1, 0, 0)
