"""Synthetic data generators and the bundle directory format."""
import json
import math
import os

import numpy as np
import pytest

from pmpfraud import ndiff as nd
from pmpfraud.bundle import BundleError, load_bundle, write_bundle
from pmpfraud.graph import NodeTable
from pmpfraud.metrics import auc
from pmpfraud.synth import generate_ba_graph, generate_features, make_splits


def bfs_component(graph, start=0):
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in graph.neighbors(0, u).tolist():
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


class TestBaGraph:
    @pytest.mark.parametrize("n,m", [(500, 5), (50, 3), (5, 1)])
    def test_edge_count_is_m_times_n_minus_m(self, n, m):
        g, _ = generate_ba_graph(n, m, 0.1, seed=0)
        assert g.num_edges(0) == m * (n - m)

    def test_connected(self):
        g, _ = generate_ba_graph(200, 3, 0.1, seed=1)
        assert len(bfs_component(g)) == 200

    def test_attached_nodes_have_degree_at_least_m(self):
        g, _ = generate_ba_graph(120, 4, 0.1, seed=2)
        deg = g.degrees(0)
        assert np.all(deg[4:] >= 4)
        assert np.all(deg >= 1)

    def test_fraud_count_rounds(self):
        _, labels = generate_ba_graph(101, 2, 0.1, seed=3)
        assert labels.sum() == 10
        _, labels = generate_ba_graph(105, 2, 0.1, seed=3)
        assert labels.sum() == 10 or labels.sum() == 11

    def test_deterministic_per_seed(self):
        g1, l1 = generate_ba_graph(80, 3, 0.2, seed=7)
        g2, l2 = generate_ba_graph(80, 3, 0.2, seed=7)
        g3, _ = generate_ba_graph(80, 3, 0.2, seed=8)
        np.testing.assert_array_equal(g1.col_indices[0], g2.col_indices[0])
        np.testing.assert_array_equal(l1, l2)
        assert not np.array_equal(g1.col_indices[0], g3.col_indices[0])

    def test_hub_formation(self):
        # preferential attachment should concentrate degree on early nodes
        g, _ = generate_ba_graph(1000, 2, 0.1, seed=4)
        deg = g.degrees(0)
        assert deg[:20].mean() > 3 * deg[500:].mean()

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            generate_ba_graph(5, 5, 0.1, seed=0)
        with pytest.raises(ValueError):
            generate_ba_graph(5, 0, 0.1, seed=0)
        with pytest.raises(ValueError):
            generate_ba_graph(5, 1, 0.0, seed=0)


class TestFeatures:
    def test_class_conditional_means(self):
        labels = np.array([0] * 4000 + [1] * 4000)
        x = generate_features(labels, feature_dim=3, mu_benign=1.0, mu_fraud=5.0, sigma=1.0, seed=0)
        assert x.shape == (8000, 3)
        np.testing.assert_allclose(x[:4000].mean(), 1.0, atol=0.05)
        np.testing.assert_allclose(x[4000:].mean(), 5.0, atol=0.05)
        np.testing.assert_allclose(x[:4000].std(), 1.0, atol=0.05)

    def test_per_dimension_separability(self):
        # one Gaussian dimension with means 4 sigma apart separates classes
        # at the analytic rate Phi(4 / sqrt(2))
        expected = 0.9976611325094764
        assert abs(expected - 0.5 * (1.0 + math.erf(4.0 / (math.sqrt(2.0) * math.sqrt(2.0))))) < 1e-15
        labels = (np.arange(20000) % 2).astype(np.int64)
        x = generate_features(labels, feature_dim=2, seed=11)
        for dim in range(2):
            got = auc(x[:, dim], labels)
            assert abs(got - expected) < 4e-3

    def test_deterministic(self):
        labels = np.array([0, 1, 0])
        np.testing.assert_array_equal(
            generate_features(labels, seed=5), generate_features(labels, seed=5)
        )


class TestSplits:
    def test_tiny_exact_counts(self):
        s = make_splits(10, (0.4, 0.2, 0.4), seed=0)
        assert (s == 0).sum() == 4
        assert (s == 1).sum() == 2
        assert (s == 2).sum() == 4

    def test_ratio_cuts(self):
        s = make_splits(1000, (0.01, 0.1, 0.89), seed=1)
        assert (s == 0).sum() == 10
        assert (s == 1).sum() == 100
        assert (s == 2).sum() == 890

    def test_stratified_within_one_node(self):
        rng = np.random.default_rng(2)
        labels = (rng.random(997) < 0.3).astype(np.int64)
        s = make_splits(997, (0.6, 0.2, 0.2), seed=3, stratify_labels=labels)
        for cls in (0, 1):
            total = (labels == cls).sum()
            for split, ratio in ((0, 0.6), (1, 0.2), (2, 0.2)):
                got = ((labels == cls) & (s == split)).sum()
                assert abs(got - ratio * total) <= 1.0

    def test_deterministic_and_seed_sensitive(self):
        a = make_splits(50, (0.5, 0.25, 0.25), seed=4)
        b = make_splits(50, (0.5, 0.25, 0.25), seed=4)
        c = make_splits(50, (0.5, 0.25, 0.25), seed=5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            make_splits(10, (0.5, 0.5))
        with pytest.raises(ValueError):
            make_splits(10, (0.5, 0.6, -0.1))


def small_dataset(seed=0):
    g, labels = generate_ba_graph(30, 2, 0.3, seed=seed)
    x = generate_features(labels, feature_dim=4, seed=seed + 1)
    splits = make_splits(30, (0.5, 0.2, 0.3), seed=seed + 2, stratify_labels=labels)
    return g, NodeTable(x, labels, splits)


class TestBundleRoundtrip:
    def test_csv_roundtrip_is_exact(self, tmp_path):
        g, table = small_dataset()
        write_bundle(str(tmp_path), g, table, features_format="csv")
        g2, t2 = load_bundle(str(tmp_path))
        assert g2.num_nodes == g.num_nodes
        np.testing.assert_array_equal(g2.col_indices[0], g.col_indices[0])
        np.testing.assert_array_equal(g2.row_offsets[0], g.row_offsets[0])
        np.testing.assert_array_equal(t2.features, table.features)
        np.testing.assert_array_equal(t2.labels, table.labels)
        np.testing.assert_array_equal(t2.splits, table.splits)

    def test_f32_roundtrip_matches_cast(self, tmp_path):
        g, table = small_dataset(seed=3)
        write_bundle(str(tmp_path), g, table, features_format="f32")
        _, t2 = load_bundle(str(tmp_path))
        np.testing.assert_array_equal(t2.features, table.features.astype("<f4").astype(np.float64))

    @pytest.mark.parametrize("features_format", ["csv", "f32"])
    def test_every_file_is_written_atomically(self, tmp_path, monkeypatch, features_format):
        written = []
        atomic = nd.write_file_atomic

        def recording(path, data):
            written.append(os.path.basename(path))
            atomic(path, data)

        monkeypatch.setattr(nd, "write_file_atomic", recording)
        g, table = small_dataset(seed=4)
        write_bundle(str(tmp_path), g, table, features_format=features_format)
        assert sorted(written) == sorted(os.listdir(tmp_path))

    def test_multi_relation_roundtrip(self, tmp_path):
        g1, table = small_dataset(seed=5)
        g2, _ = generate_ba_graph(30, 3, 0.3, seed=6)
        from pmpfraud.graph import RelationalGraph

        g = RelationalGraph(
            30,
            [g1.row_offsets[0], g2.row_offsets[0]],
            [g1.col_indices[0], g2.col_indices[0]],
        )
        write_bundle(str(tmp_path), g, table)
        loaded, _ = load_bundle(str(tmp_path))
        assert loaded.num_relations == 2
        for r in range(2):
            np.testing.assert_array_equal(loaded.col_indices[r], g.col_indices[r])


class TestBundleValidation:
    def write_valid(self, path):
        g, table = small_dataset(seed=9)
        write_bundle(str(path), g, table)
        return g, table

    def test_missing_meta(self, tmp_path):
        with pytest.raises(BundleError, match="meta.json"):
            load_bundle(str(tmp_path))

    def test_bad_meta_field(self, tmp_path):
        self.write_valid(tmp_path)
        with open(tmp_path / "meta.json", "w") as fh:
            json.dump({"num_nodes": 30, "num_relations": 1}, fh)
        with pytest.raises(BundleError, match="meta.json"):
            load_bundle(str(tmp_path))

    def test_edge_out_of_range(self, tmp_path):
        self.write_valid(tmp_path)
        with open(tmp_path / "edges_r0.csv", "w") as fh:
            fh.write("src,dst\n0,99\n")
        with pytest.raises(BundleError, match="edges_r0.csv"):
            load_bundle(str(tmp_path))

    def test_feature_row_mismatch_names_file(self, tmp_path):
        self.write_valid(tmp_path)
        with open(tmp_path / "features.csv", "w") as fh:
            fh.write("0.0,0.0,0.0,0.0\n")
        with pytest.raises(BundleError, match="features.csv.*row-count mismatch"):
            load_bundle(str(tmp_path))

    def test_labels_must_cover_every_node(self, tmp_path):
        self.write_valid(tmp_path)
        with open(tmp_path / "labels.csv") as fh:
            lines = fh.read().splitlines()
        lines[1] = lines[2]
        with open(tmp_path / "labels.csv", "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(BundleError, match="labels.csv.*exactly once"):
            load_bundle(str(tmp_path))

    def test_unknown_split_name(self, tmp_path):
        self.write_valid(tmp_path)
        with open(tmp_path / "splits.csv", "w") as fh:
            fh.write("node,split\n" + "\n".join(f"{i},dev" for i in range(30)) + "\n")
        with pytest.raises(BundleError, match="splits.csv.*dev"):
            load_bundle(str(tmp_path))

    def test_table_errors_become_bundle_errors(self, tmp_path):
        self.write_valid(tmp_path)
        # all-benign train split is invalid at the table layer
        with open(tmp_path / "labels.csv", "w") as fh:
            fh.write("node,label\n" + "\n".join(f"{i},0" for i in range(30)) + "\n")
        with pytest.raises(BundleError, match="both classes"):
            load_bundle(str(tmp_path))

    def test_missing_features(self, tmp_path):
        self.write_valid(tmp_path)
        os.remove(tmp_path / "features.csv")
        with pytest.raises(BundleError, match="features"):
            load_bundle(str(tmp_path))
