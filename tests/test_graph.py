"""Graph storage, neighbor partitioning, homophily, and ratio histograms."""
from fractions import Fraction

import numpy as np
import pytest

from pmpfraud.graph import (
    MAX_RATIO_BINS,
    NodeTable,
    PartitionIndex,
    RatioHistogram,
    RelationalGraph,
    homophily_score,
    neighborhood_label_ratio,
    ratio_bin_count,
)

from .reference import (
    benign_neighbors,
    fraud_neighbors,
    reference_csr,
    reference_partition,
    unlabeled_neighbors,
)


def brute_neighbors(edges, n):
    """Adjacency sets from a raw (possibly messy) edge list."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def random_edges(rng, n, m):
    return [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(m)]


def make_table(features, labels, splits):
    return NodeTable(
        features=np.asarray(features, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.int64),
        splits=np.asarray(splits, dtype=np.int64),
    )


class TestRelationalGraph:
    def test_csr_matches_set_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = int(rng.integers(2, 40))
            edges = random_edges(rng, n, int(rng.integers(0, 120)))
            g = RelationalGraph.from_edge_lists(n, [edges])
            adj = brute_neighbors(edges, n)
            for u in range(n):
                got = g.neighbors(0, u)
                assert sorted(got.tolist()) == sorted(adj[u])
                assert np.all(np.diff(got) > 0), "neighbor lists must be sorted unique"

    def assert_matches_reference(self, n, edge_lists):
        g = RelationalGraph.from_edge_lists(n, edge_lists)
        want_offsets, want_cols = reference_csr(n, edge_lists)
        assert g.num_relations == len(edge_lists)
        for r in range(g.num_relations):
            np.testing.assert_array_equal(g.row_offsets[r], want_offsets[r], strict=True)
            np.testing.assert_array_equal(g.col_indices[r], want_cols[r], strict=True)
        return g

    def test_shuffled_duplicated_and_reversed_edges_match_unique_reference(self):
        rng = np.random.default_rng(11)
        for n, m in ((2, 3), (30, 200), (500, 4000)):
            edges = rng.integers(0, n, size=(m, 2))
            messy = np.concatenate([edges, edges[: m // 2], edges[:, ::-1]])
            messy = messy[rng.permutation(len(messy))]
            g = self.assert_matches_reference(n, [messy])
            clean = RelationalGraph.from_edge_lists(n, [edges])
            np.testing.assert_array_equal(g.col_indices[0], clean.col_indices[0])
            np.testing.assert_array_equal(g.row_offsets[0], clean.row_offsets[0])

    def test_self_loop_all_loop_and_empty_relations_match_unique_reference(self):
        loops = np.array([(0, 0), (3, 3), (3, 3), (5, 5)])
        with_loops = np.array([(0, 1), (1, 1), (4, 2), (2, 4), (2, 2), (5, 0)])
        empty = np.empty((0, 2), dtype=np.int64)
        g = self.assert_matches_reference(6, [with_loops, loops, empty])
        assert [g.num_edges(r) for r in range(3)] == [3, 0, 0]

    def test_three_relations_match_unique_reference(self):
        rng = np.random.default_rng(12)
        n = 60
        edge_lists = [rng.integers(0, n, size=(m, 2)) for m in (400, 90, 7)]
        self.assert_matches_reference(n, edge_lists)

    def test_duplicate_and_self_loop_edges_collapse(self):
        g = RelationalGraph.from_edge_lists(3, [[(0, 1), (1, 0), (0, 1), (2, 2)]])
        assert g.num_edges(0) == 1
        np.testing.assert_array_equal(g.neighbors(0, 2), [])

    def test_degrees_and_edge_count(self):
        g = RelationalGraph.from_edge_lists(4, [[(0, 1), (1, 2), (2, 3), (3, 0)]])
        np.testing.assert_array_equal(g.degrees(0), [2, 2, 2, 2])
        assert g.num_edges(0) == 4

    def test_row_indices_pair_every_entry_with_its_row(self):
        # node 1 is isolated in relation 0, which leaves an empty CSR row
        g = RelationalGraph.from_edge_lists(4, [[(0, 2), (2, 3), (0, 3)], []])
        rows = g.row_indices(0)
        assert rows.dtype == np.int64
        edges = {(int(u), int(v)) for u in range(4) for v in g.neighbors(0, u)}
        assert list(zip(rows.tolist(), g.col_indices[0].tolist())) == sorted(edges)
        assert g.row_indices(1).size == 0

    def test_multiple_relations_are_independent(self):
        g = RelationalGraph.from_edge_lists(3, [[(0, 1)], [(1, 2)]])
        assert g.num_relations == 2
        np.testing.assert_array_equal(g.neighbors(0, 0), [1])
        np.testing.assert_array_equal(g.neighbors(1, 0), [])
        np.testing.assert_array_equal(g.neighbors(1, 1), [2])

    def test_union_merges_relations(self):
        g = RelationalGraph.from_edge_lists(4, [[(0, 1), (1, 2)], [(1, 2), (2, 3)]])
        u = g.union()
        assert u.num_relations == 1
        np.testing.assert_array_equal(u.neighbors(0, 1), [0, 2])
        np.testing.assert_array_equal(u.neighbors(0, 2), [1, 3])
        assert u.num_edges(0) == 3

    def test_arrays_are_frozen(self):
        g = RelationalGraph.from_edge_lists(3, [[(0, 1)]])
        with pytest.raises(ValueError):
            g.col_indices[0][0] = 2

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError):
            RelationalGraph.from_edge_lists(3, [[(0, 3)]])
        with pytest.raises(ValueError):
            RelationalGraph.from_edge_lists(3, [[(-1, 0)]])

    @pytest.mark.parametrize("batch", [
        pytest.param([0, 3], id="sorted"),
        pytest.param([4, 0, 2, 4, 0, 1], id="unsorted-repeated"),
        pytest.param([5, 0, 6, 5, 3], id="zero-degree"),
        pytest.param([5, 6], id="only-zero-degree"),
        pytest.param([], id="empty"),
    ])
    def test_neighbor_segments_cover_batch(self, batch):
        # Nodes 5 and 6 have no neighbors.
        g = RelationalGraph.from_edge_lists(7, [[(0, 1), (0, 2), (3, 4), (2, 4), (1, 3)]])
        members, seg_ids = g.neighbor_segments(0, np.array(batch, dtype=np.int64))
        runs = [g.neighbors(0, c) for c in batch]
        assert members.dtype == seg_ids.dtype == np.int64
        np.testing.assert_array_equal(members, np.concatenate([np.empty(0, np.int64), *runs]))
        np.testing.assert_array_equal(seg_ids, np.repeat(np.arange(len(batch)), [r.size for r in runs]))


class TestNodeTable:
    def test_valid_table(self):
        t = make_table(np.eye(3), [0, 1, 0], [0, 0, 2])
        assert t.num_nodes == 3
        assert t.feature_dim == 3
        np.testing.assert_array_equal(t.split_ids("train"), [0, 1])
        np.testing.assert_array_equal(t.split_ids("test"), [2])
        np.testing.assert_array_equal(t.split_ids("val"), [])

    def test_rejects_non_finite_features(self):
        with pytest.raises(ValueError):
            make_table([[np.nan], [0.0]], [0, 1], [0, 0])

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            make_table([[0.0], [0.0]], [0, 2], [0, 0])

    def test_rejects_bad_splits(self):
        with pytest.raises(ValueError):
            make_table([[0.0], [0.0]], [0, 1], [0, 3])

    def test_rejects_single_class_train(self):
        with pytest.raises(ValueError):
            make_table([[0.0], [0.0], [0.0]], [0, 0, 1], [0, 0, 1])

    def test_arrays_are_frozen(self):
        t = make_table([[0.0], [1.0]], [0, 1], [0, 0])
        with pytest.raises(ValueError):
            t.labels[0] = 1

    def test_owns_copies_and_leaves_the_callers_arrays_writeable(self):
        features = np.array([[0.0, 1.0], [2.0, 3.0]])
        labels, splits = np.array([0, 1], dtype=np.int8), np.array([0, 0], dtype=np.int8)
        t = NodeTable(features, labels, splits)
        for given in (features, labels, splits):
            assert given.flags.writeable
            given[0] = 1
        np.testing.assert_array_equal(t.features, [[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(t.labels, [0, 1])
        np.testing.assert_array_equal(t.splits, [0, 0])
        assert not (t.features.flags.writeable or t.labels.flags.writeable or t.splits.flags.writeable)

    def test_features_are_column_major_float64(self):
        t = make_table([[0, 1], [2, 3]], [0, 1], [0, 0])
        assert t.features.dtype == np.float64 and t.features.flags.f_contiguous
        assert np.shares_memory(np.ascontiguousarray(t.features.T), t.features)


class TestPartitionIndex:
    def brute_partition(self, g, r, labels, train, u):
        fr, be, un = [], [], []
        for v in g.neighbors(r, u).tolist():
            if train[v] and labels[v] == 1:
                fr.append(v)
            elif train[v] and labels[v] == 0:
                be.append(v)
            else:
                un.append(v)
        return fr, be, un

    def test_against_brute_force(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            n = int(rng.integers(4, 30))
            edges = random_edges(rng, n, int(rng.integers(4, 80)))
            g = RelationalGraph.from_edge_lists(n, [edges])
            labels = rng.integers(0, 2, size=n)
            # keep a mix of train and held-out nodes
            splits = rng.choice([0, 0, 1, 2], size=n)
            train = splits == 0
            idx = PartitionIndex.build(g, labels, train)
            for u in range(n):
                fr, be, un = self.brute_partition(g, 0, labels, train, u)
                assert sorted(fraud_neighbors(idx, 0, u).tolist()) == sorted(fr)
                assert sorted(benign_neighbors(idx, 0, u).tolist()) == sorted(be)
                assert sorted(unlabeled_neighbors(idx, 0, u).tolist()) == sorted(un)

    def test_arrays_equal_ascending_bucket_oracle(self):
        rng = np.random.default_rng(13)
        for n, sizes in ((40, (300, 60, 0)), (120, (900, 400, 50))):
            g = RelationalGraph.from_edge_lists(n, [rng.integers(0, n, size=(m, 2)) for m in sizes])
            labels = rng.integers(0, 2, size=n)
            train = rng.choice([True, True, False], size=n)
            idx = PartitionIndex.build(g, labels, train)
            np.testing.assert_array_equal(idx.bucket, reference_partition(labels, train), strict=True)
            assert idx.bucket.dtype == np.int8
            assert not idx.bucket.flags.writeable

    def test_bucket_needs_one_entry_per_node(self):
        g = RelationalGraph.from_edge_lists(3, [[(0, 1)]])
        with pytest.raises(ValueError, match="one entry per node"):
            PartitionIndex(g, np.zeros(2, dtype=np.int8))

    @pytest.mark.parametrize("labels, train", [
        pytest.param([1, 0], [True, True, False], id="short-labels"),
        pytest.param([1, 0, 0], [True, True], id="short-train-mask"),
        pytest.param([1, 0, 0, 1], [True, True, False, False], id="both-long"),
    ])
    def test_build_needs_one_entry_per_node(self, labels, train):
        g = RelationalGraph.from_edge_lists(3, [[(0, 1)]])
        with pytest.raises(ValueError, match="labels and train_mask must have one entry per node"):
            PartitionIndex.build(g, np.array(labels), np.array(train))

    def test_val_labeled_node_lands_in_unlabeled_bucket(self):
        # label information outside the train split must not leak
        g = RelationalGraph.from_edge_lists(3, [[(0, 1), (0, 2)]])
        labels = np.array([0, 1, 1])
        splits = np.array([0, 1, 0])
        idx = PartitionIndex.build(g, labels, splits == 0)
        np.testing.assert_array_equal(fraud_neighbors(idx, 0, 0), [2])
        np.testing.assert_array_equal(unlabeled_neighbors(idx, 0, 0), [1])
        np.testing.assert_array_equal(benign_neighbors(idx, 0, 0), [])

    def test_from_table_uses_train_split_only(self):
        g = RelationalGraph.from_edge_lists(3, [[(0, 1), (0, 2)]])
        t = make_table([[0.0], [0.0], [0.0]], [0, 1, 0], [0, 0, 1])
        idx = PartitionIndex.from_table(g, t)
        np.testing.assert_array_equal(fraud_neighbors(idx, 0, 0), [1])
        np.testing.assert_array_equal(unlabeled_neighbors(idx, 0, 0), [2])


class TestHomophily:
    def test_path_alternating_labels_scores_zero(self):
        g = RelationalGraph.from_edge_lists(4, [[(0, 1), (1, 2), (2, 3)]])
        labels = np.array([1, 0, 0, 1])
        # fraud-incident edges all cross classes: eta_1 = 0 <= share 2/4
        # benign-incident edges agree 2 of 4: eta_0 = 1/2 = share, excess 0
        assert homophily_score(g, labels, 0) == 0.0

    def test_two_cliques_score_one(self):
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        g = RelationalGraph.from_edge_lists(6, [edges])
        labels = np.array([1, 1, 1, 0, 0, 0])
        assert homophily_score(g, labels, 0) == 1.0

    def test_triangle_plus_isolated_quarter(self):
        # benign triangle with perfect agreement, isolated fraud node
        # eta_be = 1, share 3/4, excess 1/4; fraud class has no edges -> 0
        g = RelationalGraph.from_edge_lists(4, [[(0, 1), (1, 2), (0, 2)]])
        labels = np.array([0, 0, 0, 1])
        assert homophily_score(g, labels, 0) == 0.25

    def test_exact_arithmetic_single_rounding(self):
        g = RelationalGraph.from_edge_lists(10, [[(0, 1), (2, 3)]])
        labels = np.zeros(10, dtype=np.int64)
        labels[[0, 1, 2]] = 1
        # fraud-incident directed edges (0,1) (1,0) (2,3): 2 of 3 agree
        # eta_1 = 2/3 vs share 3/10 -> excess 11/30; benign side 0
        assert homophily_score(g, labels, 0) == float(Fraction(11, 30))

    def test_union_relation(self):
        g = RelationalGraph.from_edge_lists(4, [[(0, 1)], [(2, 3)]])
        labels = np.array([1, 1, 0, 0])
        assert homophily_score(g, labels, 0) == 0.5
        assert homophily_score(g, labels, "union") == 1.0

    def test_score_is_bounded(self):
        rng = np.random.default_rng(9)
        for trial in range(12):
            n = int(rng.integers(3, 25))
            g = RelationalGraph.from_edge_lists(n, [random_edges(rng, n, 3 * n)])
            labels = rng.integers(0, 2, size=n)
            if len(np.unique(labels)) < 2:
                labels[0] = 1 - labels[0]
            s = homophily_score(g, labels, 0)
            assert 0.0 <= s <= 1.0


class TestRatioHistogram:
    def star_histogram(self, **kwargs):
        # node 0 sees 2 fraud + 1 benign train neighbors -> ratio 2.0
        # nodes 1..5 see only benign -> ratio 0.0; node 6 only fraud -> infinite
        # node 7 has one unlabeled (non-train) neighbor only -> excluded
        edges = [(0, 1), (0, 2), (0, 3), (5, 4), (6, 1), (7, 8)]
        g = RelationalGraph.from_edge_lists(9, [edges])
        labels = np.array([0, 1, 1, 0, 0, 0, 0, 0, 1])
        train = np.array([1, 1, 1, 1, 1, 1, 1, 1, 0], dtype=bool)
        return neighborhood_label_ratio(g, PartitionIndex.build(g, labels, train), **kwargs)

    def test_star_fixture(self):
        h = self.star_histogram()
        assert isinstance(h, RatioHistogram)
        assert h.infinite_count == 1
        assert h.excluded_count == 1
        assert h.num_counted == 7
        assert len(h.bins) == 20
        assert h.bins[0][2] == 5
        assert h.bins[-1][2] == 1, "ratio 2.0 falls in the open-topped last bin"
        assert sum(c for _, _, c in h.bins) + h.infinite_count == h.num_counted

    def test_bin_edges_and_open_top(self):
        h = self.star_histogram(bin_width=0.5, max_ratio=1.0)
        assert [(lo, hi) for lo, hi, _ in h.bins] == [(0.0, 0.5), (0.5, float("inf"))]
        assert [c for _, _, c in h.bins] == [5, 1]

    def test_rows_append_infinite_bucket(self):
        h = self.star_histogram()
        rows = h.rows()
        assert len(rows) == 21
        assert rows[-1] == (float("inf"), float("inf"), 1)

    @pytest.mark.parametrize("max_ratio, bin_width", [(1e300, 1e-300), (10.0, 1e-5)],
                             ids=["overflowing", "million-bins"])
    def test_too_many_bins_rejected_naming_both_settings(self, max_ratio, bin_width):
        with pytest.raises(ValueError) as info:
            self.star_histogram(bin_width=bin_width, max_ratio=max_ratio)
        assert str(info.value) == (f"max_ratio / bin_width must be at most {MAX_RATIO_BINS} bins, "
                                   f"got max_ratio {max_ratio} and bin_width {bin_width}")

    def test_bin_count_bound_is_inclusive(self):
        assert ratio_bin_count(0.5, 0.5 * MAX_RATIO_BINS) == MAX_RATIO_BINS
        assert len(self.star_histogram(bin_width=1.0, max_ratio=float(MAX_RATIO_BINS)).bins) == MAX_RATIO_BINS
        with pytest.raises(ValueError, match="must be at most"):
            ratio_bin_count(1.0, MAX_RATIO_BINS + 0.5)

    def test_counts_the_partitions_buckets(self):
        # A path 0-1-2-3 whose buckets are given outright: centers are the
        # bucket-0/1 nodes (0, 1, 3); node 2 (bucket 2) is neither a center
        # nor a labeled neighbor. Node 0 sees benign 1 (ratio 0), node 1 sees
        # fraud 0 (infinite), node 3 sees only node 2 (excluded).
        g = RelationalGraph.from_edge_lists(4, [[(0, 1), (1, 2), (2, 3)]])
        h = neighborhood_label_ratio(g, PartitionIndex(g, [0, 1, 2, 0]), bin_width=1.0, max_ratio=1.0)
        assert (h.num_counted, h.excluded_count, h.infinite_count) == (2, 1, 1)
        assert h.bins == [(0.0, float("inf"), 1)]
