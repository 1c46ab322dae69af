"""Single layer: bucketed aggregation, weight generation, blend gate, and
the layer and its adjoint against the layer composed of the engine's small
ops."""
import copy
import itertools
import weakref

import numpy as np
import pytest

from pmpfraud import ndiff as nd
from pmpfraud.graph import PartitionIndex, RelationalGraph
from pmpfraud.layer import LayerVariant, PmpLayerParams, bucket_sums, bucket_sums_adjoint, layer_forward

from .reference import (
    Tensor,
    add_at_rows,
    backward,
    benign_neighbors,
    bucket_sums as taped_bucket_sums,
    composed_layer_forward,
    fraud_neighbors,
    gather_rows,
    grad_check,
    unlabeled_neighbors,
)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _batch_sums(graph, partition, relation, h, batch):
    members, seg_ids = graph.neighbor_segments(relation, batch)
    return bucket_sums(h, members, seg_ids, partition.bucket[members], batch.size)


def blocks(params):
    """The layer's blocks by name."""
    return {name: getattr(params, name) for name in params.variant.weights}


def without_self_term(params):
    """A copy of ``params`` whose self term is exact zeros."""
    out = copy.copy(params)
    out.W_self = np.zeros_like(params.W_self)
    out.b_self = np.zeros_like(params.b_self)
    return out


def aggregate(params, graph, partition, relation, h, batch):
    """Neighbor aggregation for ``batch`` with ``h`` holding one row per node:
    the layer with its self term at exact zeros and no activation."""
    return forward(without_self_term(params), graph, partition, relation, h, batch, use_relu=False)


def forward(params, graph, partition, relation, h, batch, use_relu=True):
    """Whole layer (self term, aggregation, activation) for ``batch``."""
    h_c = nd.gather_rows(h, batch)
    return layer_forward(params, _batch_sums(graph, partition, relation, h, batch), h_c, h_c, use_relu=use_relu)[0]


def random_setup(rng, n=14, d_in=3, d_out=4, edge_factor=3, variant=LayerVariant.full()):
    edges = [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(edge_factor * n)]
    g = RelationalGraph.from_edge_lists(n, [edges])
    labels = rng.integers(0, 2, size=n)
    train = rng.random(n) < 0.7
    # make sure both labeled buckets are exercised somewhere
    labels[:2] = [0, 1]
    train[:2] = True
    idx = PartitionIndex.build(g, labels, train)
    params = PmpLayerParams(d_in, d_out, variant, rng)
    # nonzero gate and bias blocks, the zero init would mask bugs
    for name in ("b_self", "B_fr", "B_be", "w_phi", "b_phi"):
        if name in variant.weights:
            setattr(params, name, rng.normal(size=getattr(params, name).shape))
    h = rng.normal(size=(n, d_in))
    return g, idx, params, h


def materialized_aggregate(params, g, idx, h, batch):
    """Per-node loop with explicit diag(h) @ M + B matrices."""
    variant = params.variant
    out = np.zeros((len(batch), params.d_out))
    for pos, u in enumerate(batch):
        h_u = h[u]
        s_fr = h[fraud_neighbors(g, idx, 0, u)].sum(axis=0)
        s_be = h[benign_neighbors(g, idx, 0, u)].sum(axis=0)
        s_un = h[unlabeled_neighbors(g, idx, 0, u)].sum(axis=0)
        if not variant.partition_enabled:
            out[pos] = (s_fr + s_be + s_un) @ params.M_fr
            continue
        if variant.root_specific_enabled:
            w_fr = np.diag(h_u) @ params.M_fr + params.B_fr
            w_be = np.diag(h_u) @ params.M_be + params.B_be
        else:
            w_fr, w_be = params.M_fr, params.M_be
        if variant.adaptive_combination_enabled:
            a = float(_sigmoid(h_u @ params.w_phi[:, 0] + params.b_phi[0]))
            w_un = a * w_fr + (1.0 - a) * w_be
        else:
            w_un = params.M_un
        out[pos] = s_fr @ w_fr + s_be @ w_be + s_un @ w_un
    return out


ALL_VARIANTS = [
    LayerVariant(False, False, False),
    LayerVariant(True, False, False),
    LayerVariant(True, True, False),
    LayerVariant(True, False, True),
    LayerVariant(True, True, True),
]


def variant_id(v):
    flags = (v.partition_enabled, v.adaptive_combination_enabled, v.root_specific_enabled)
    return "".join("pat"[i] for i, f in enumerate(flags) if f) or "none"


class TestVariant:
    def test_refinements_require_partitioning(self):
        with pytest.raises(ValueError):
            LayerVariant(False, True, False)
        with pytest.raises(ValueError):
            LayerVariant(False, False, True)

    def test_dict_roundtrip(self):
        for v in ALL_VARIANTS:
            assert LayerVariant.from_dict(v.to_dict()) == v

    @pytest.mark.parametrize("d", [
        {"partition_enabled": "false", "adaptive_combination_enabled": False, "root_specific_enabled": False},
        {"partition_enabled": 1, "adaptive_combination_enabled": 0, "root_specific_enabled": 0},
        {"partition_enabled": True, "adaptive_combination_enabled": True},
        dict(LayerVariant.full().to_dict(), dropout_p=0.0),
        [True, True, True],
    ], ids=["string", "ints", "missing-key", "extra-key", "list"])
    def test_from_dict_takes_only_three_bools(self, d):
        with pytest.raises(ValueError, match="^variant must map each of .* to true or false, got "):
            LayerVariant.from_dict(d)

    def test_presets(self):
        assert LayerVariant.full() == LayerVariant(True, True, True)
        assert LayerVariant.baseline() == LayerVariant(False, False, False)


class TestParams:
    @pytest.mark.parametrize("variant, names", [
        (LayerVariant.full(), "W_self b_self M_fr B_fr M_be B_be w_phi b_phi"),
        (LayerVariant(True, False, True), "W_self b_self M_fr B_fr M_be B_be M_un"),
        (LayerVariant(True, True, False), "W_self b_self M_fr M_be w_phi b_phi"),
        (LayerVariant(True, False, False), "W_self b_self M_fr M_be M_un"),
        (LayerVariant.baseline(), "W_self b_self M_fr"),
    ], ids=["pat", "pt", "pa", "p", "none"])
    def test_a_layer_holds_exactly_the_blocks_its_variant_reads(self, variant, names):
        assert variant.weights == tuple(names.split())
        p = PmpLayerParams(3, 2, variant, np.random.default_rng(0))
        assert tuple(blocks(p)) == variant.weights
        for name in PmpLayerParams.FIELDS:
            assert hasattr(p, name) == (name in variant.weights), name

    def test_shapes(self):
        p = PmpLayerParams(3, 2, LayerVariant.full(), np.random.default_rng(0))
        assert list(blocks(p)) == list(LayerVariant.full().weights)
        assert p.W_self.shape == (3, 2)
        assert p.w_phi.shape == (3, 1)
        assert p.b_phi.shape == (1,)

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
    def test_glorot_bound_and_zero_biases(self, variant):
        p = PmpLayerParams(30, 20, variant, np.random.default_rng(1))
        bound = np.sqrt(6.0 / 50.0)
        for name, t in blocks(p).items():
            if name in ("W_self", "M_fr", "M_be", "M_un"):
                assert np.abs(t).max() <= bound
                assert np.abs(t).max() > 0.5 * bound
            else:
                assert not t.any(), name


def gate_values(params, h_gate):
    """The blend gate of each row of ``h_gate``, read off the layer.

    Each center's only bucket sum is e_0 in the unlabeled block, M_fr maps
    e_0 to 1 and M_be maps it to 0, and the self term is zero, so output
    column 0 is alpha * 1 + (1 - alpha) * 0, which is alpha exactly.
    """
    k, d_in = h_gate.shape
    probe = PmpLayerParams(d_in, params.d_out, LayerVariant(True, True, False), np.random.default_rng(0))
    for name in ("W_self", "M_fr", "M_be"):
        getattr(probe, name)[...] = 0.0
    probe.M_fr[0, 0] = 1.0
    probe.w_phi[...] = params.w_phi
    probe.b_phi[...] = params.b_phi
    sums = np.zeros((3 * k, d_in))
    sums[2 * k :, 0] = 1.0
    h_centers = np.zeros((k, d_in))
    out, _ = layer_forward(probe, sums, h_centers, h_gate, use_relu=False)
    return out[:, 0]


class TestGate:
    def test_zero_init_opens_at_half(self):
        p = PmpLayerParams(3, 2, LayerVariant.full(), np.random.default_rng(0))
        a = gate_values(p, np.random.default_rng(0).normal(size=(5, 3)))
        np.testing.assert_array_equal(a, np.full(5, 0.5))

    def test_matches_scalar_sigmoid(self):
        rng = np.random.default_rng(1)
        p = PmpLayerParams(4, 2, LayerVariant.full(), rng)
        p.w_phi = rng.normal(size=(4, 1))
        p.b_phi = rng.normal(size=1)
        h = rng.normal(size=(6, 4))
        a = gate_values(p, h)
        want = _sigmoid(h @ p.w_phi[:, 0] + p.b_phi[0])
        np.testing.assert_allclose(a, want, rtol=0, atol=1e-15)
        assert np.all(a > 0.0) and np.all(a < 1.0)


class TestWeightGeneration:
    """The fused path read back as per-center matrices.

    Centers 0..d_in-1 all carry h_i, and center c has one neighbor whose
    row is the unit vector e_c, so row c of the aggregation is row c of the
    matrix that center applies to that neighbor's bucket.
    """

    @staticmethod
    def applied_matrix(params, h_i, neighbor_label, neighbor_in_train):
        d = params.d_in
        g = RelationalGraph.from_edge_lists(2 * d, [[(c, d + c) for c in range(d)]])
        labels = np.full(2 * d, neighbor_label)
        train = np.arange(2 * d) >= d if neighbor_in_train else np.zeros(2 * d, dtype=bool)
        idx = PartitionIndex.build(g, labels, train)
        h = np.vstack([np.tile(h_i, (d, 1)), np.eye(d)])
        return aggregate(params, g, idx, 0, h, np.arange(d))

    def test_matches_diag_oracle(self):
        rng = np.random.default_rng(2)
        p = PmpLayerParams(4, 3, LayerVariant(True, False, True), rng)
        p.B_fr = rng.normal(size=(4, 3))
        p.B_be = rng.normal(size=(4, 3))
        h_i = rng.normal(size=4)
        w_fr = self.applied_matrix(p, h_i, 1, True)
        w_be = self.applied_matrix(p, h_i, 0, True)
        np.testing.assert_array_equal(w_fr, np.diag(h_i) @ p.M_fr + p.B_fr)
        np.testing.assert_array_equal(w_be, np.diag(h_i) @ p.M_be + p.B_be)

    def test_blend_endpoints(self):
        # a saturated gate sends the unlabeled bucket through one labeled
        # matrix; the gate's clamp keeps it off exact 0 and 1
        rng = np.random.default_rng(3)
        p = PmpLayerParams(3, 2, LayerVariant.full(), rng)
        p.B_fr = rng.normal(size=(3, 2))
        p.B_be = rng.normal(size=(3, 2))
        h_i = rng.normal(size=3)
        for b_phi, M, B in ((800.0, p.M_fr, p.B_fr), (-800.0, p.M_be, p.B_be)):
            p.b_phi = np.array([b_phi])
            got = self.applied_matrix(p, h_i, 0, False)
            np.testing.assert_allclose(got, np.diag(h_i) @ M + B, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("root_specific", [True, False])
    def test_blend_at_interior_gate(self, root_specific):
        # the unlabeled sum is blended before the generated maps, which is
        # the same per-center map alpha * W_fr(h) + (1 - alpha) * W_be(h)
        rng = np.random.default_rng(13)
        p = PmpLayerParams(3, 2, LayerVariant(True, True, root_specific), rng)
        B_fr, B_be = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        if root_specific:
            p.B_fr, p.B_be = B_fr, B_be
        p.w_phi = rng.normal(size=(3, 1))
        p.b_phi = np.array([0.3])
        h_i = rng.normal(size=3)
        a = float(_sigmoid(h_i @ p.w_phi[:, 0] + p.b_phi[0]))
        assert 0.2 < a < 0.8
        if root_specific:
            w_fr = np.diag(h_i) @ p.M_fr + p.B_fr
            w_be = np.diag(h_i) @ p.M_be + p.B_be
        else:
            w_fr, w_be = p.M_fr, p.M_be
        got = self.applied_matrix(p, h_i, 0, False)
        np.testing.assert_allclose(got, a * w_fr + (1.0 - a) * w_be, rtol=0, atol=1e-12)


class TestAggregate:
    def shared_weights_fixture(self):
        # node 0 sees two benign train neighbors carrying 2 and 3
        g = RelationalGraph.from_edge_lists(3, [[(0, 1), (0, 2)]])
        idx = PartitionIndex.build(g, np.array([1, 0, 0]), np.array([True] * 3))
        p = PmpLayerParams(1, 1, LayerVariant(True, False, False), np.random.default_rng(0))
        p.W_self = np.array([[0.0]])
        p.M_be = np.array([[2.0]])
        p.M_fr = np.array([[7.0]])
        p.M_un = np.array([[9.0]])
        h = np.array([[1.0], [2.0], [3.0]])
        return g, idx, p, h

    def test_hand_case_sum_times_weight(self):
        g, idx, p, h = self.shared_weights_fixture()
        out = aggregate(p, g, idx, 0, h, np.array([0]))
        assert out[0, 0] == 10.0  # (2 + 3) * 2, fraud and unlabeled empty

    def test_forward_adds_self_term(self):
        g, idx, p, h = self.shared_weights_fixture()
        p.W_self = np.array([[1.0]])
        out = forward(p, g, idx, 0, h, np.array([0]), use_relu=False)
        assert out[0, 0] == 11.0

    def test_isolated_node_aggregates_exact_zero(self):
        g = RelationalGraph.from_edge_lists(3, [[(1, 2)]])
        idx = PartitionIndex.build(g, np.array([1, 0, 1]), np.array([True] * 3))
        rng = np.random.default_rng(4)
        p = PmpLayerParams(2, 3, LayerVariant.full(), rng)
        h = rng.normal(size=(3, 2))
        out = aggregate(p, g, idx, 0, h, np.array([0]))
        np.testing.assert_array_equal(out, np.zeros((1, 3)))

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
    def test_fused_matches_materialized(self, variant):
        rng = np.random.default_rng(5)
        for trial in range(6):
            g, idx, params, h = random_setup(rng, variant=variant)
            batch = rng.permutation(g.num_nodes)[: g.num_nodes // 2]
            got = aggregate(params, g, idx, 0, h, batch)
            want = materialized_aggregate(params, g, idx, h, batch.tolist())
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_partition_off_sums_everything_under_one_matrix(self):
        rng = np.random.default_rng(6)
        g, idx, params, h = random_setup(rng, variant=LayerVariant.baseline())
        batch = np.arange(g.num_nodes)
        got = aggregate(params, g, idx, 0, h, batch)
        rows = np.zeros((g.num_nodes, params.d_in))
        for u in range(g.num_nodes):
            rows[u] = h[g.neighbors(0, u)].sum(axis=0)
        np.testing.assert_allclose(got, rows @ params.M_fr, rtol=0, atol=1e-12)

    def test_equal_matrices_collapse_to_baseline(self):
        # with both refinements off and all three maps equal, bucketing
        # cannot change the sum
        rng = np.random.default_rng(7)
        g, idx, split, h = random_setup(rng, variant=LayerVariant(True, False, False))
        merged = PmpLayerParams(split.d_in, split.d_out, LayerVariant.baseline(), rng)
        shared = rng.normal(size=(split.d_in, split.d_out))
        for name in ("M_fr", "M_be", "M_un"):
            setattr(split, name, shared.copy())
        merged.M_fr = shared.copy()
        batch = np.arange(g.num_nodes)
        np.testing.assert_allclose(aggregate(split, g, idx, 0, h, batch), aggregate(merged, g, idx, 0, h, batch),
                                   rtol=0, atol=1e-12)

    def test_adaptive_blend_of_equal_maps_ignores_gate(self):
        # alpha * W + (1 - alpha) * W = W for every gate value, so with
        # equal generators the gate parameters cannot matter
        rng = np.random.default_rng(8)
        g, idx, params, h = random_setup(rng)
        params.M_be = params.M_fr.copy()
        params.B_be = params.B_fr.copy()
        batch = np.arange(g.num_nodes)
        before = aggregate(params, g, idx, 0, h, batch)
        params.w_phi = rng.normal(size=params.w_phi.shape)
        params.b_phi = rng.normal(size=1)
        after = aggregate(params, g, idx, 0, h, batch)
        np.testing.assert_allclose(after, before, rtol=0, atol=1e-12)

    def test_adaptive_with_shared_plain_maps_matches_fixed_unlabeled(self):
        # root-specific off: the blend mixes M_fr and M_be directly, so
        # making all three maps equal must reproduce the M_un path
        rng = np.random.default_rng(12)
        g, idx, adaptive, h = random_setup(rng, variant=LayerVariant(True, True, False))
        fixed = PmpLayerParams(adaptive.d_in, adaptive.d_out, LayerVariant(True, False, False), rng)
        shared = rng.normal(size=(adaptive.d_in, adaptive.d_out))
        for p in (adaptive, fixed):
            for name in ("M_fr", "M_be", "M_un"):
                if name in p.variant.weights:
                    setattr(p, name, shared.copy())
        batch = np.arange(g.num_nodes)
        np.testing.assert_allclose(aggregate(adaptive, g, idx, 0, h, batch), aggregate(fixed, g, idx, 0, h, batch),
                                   rtol=0, atol=1e-12)


class TestSummationOrder:
    """Each bucket sum adds its members center by center, ascending id within
    a center, into one [3k, d] table whatever the variant; the baseline maps
    (fraud + benign) + unlabeled. Checked bitwise against an unbuffered
    ``np.add.at`` in that order, on neighborhoods where the order changes the
    rounding."""

    def instance(self, rng, variant):
        g, idx, params, h = random_setup(rng, n=40, d_in=4, d_out=4, edge_factor=6, variant=variant)
        batch = rng.permutation(g.num_nodes)
        runs = []
        for query in (fraud_neighbors, benign_neighbors, unlabeled_neighbors):
            members = [query(g, idx, 0, int(u)) for u in batch]
            seg_ids = [np.full(m.size, pos) for pos, m in enumerate(members)]
            runs.append((np.concatenate(members), np.concatenate(seg_ids)))
        return g, idx, params, h, batch, runs

    def aggregate_recording_sums(self, monkeypatch, params, g, idx, h, batch):
        sums = []
        real = nd.gather_segment_sum

        def spy(x, rows, segment_ids, num_segments):
            out = real(x, rows, segment_ids, num_segments)
            sums.append(out)
            return out

        monkeypatch.setattr(nd, "gather_segment_sum", spy)
        out = aggregate(params, g, idx, 0, h, batch)
        monkeypatch.undo()
        return out, sums

    def test_baseline_maps_fraud_plus_benign_plus_unlabeled_of_the_shared_table(self, monkeypatch):
        rng = np.random.default_rng(21)
        g, idx, params, h, batch, _ = self.instance(rng, LayerVariant.baseline())
        out, sums = self.aggregate_recording_sums(monkeypatch, params, g, idx, h, batch)
        assert len(sums) == 1
        for variant in ALL_VARIANTS[1:]:
            other = PmpLayerParams(params.d_in, params.d_out, variant, rng)
            _, partitioned = self.aggregate_recording_sums(monkeypatch, other, g, idx, h, batch)
            assert sums[0].tobytes() == partitioned[0].tobytes()
        k = batch.size
        s_fr, s_be, s_un = (sums[0][b * k : (b + 1) * k] for b in range(3))
        np.testing.assert_array_equal(out, ((s_fr + s_be) + s_un) @ params.M_fr)

    @pytest.mark.parametrize("variant", ALL_VARIANTS[1:], ids=variant_id)
    def test_each_bucket_adds_center_by_center(self, monkeypatch, variant):
        # one call sums all three buckets; block b of its k rows is bucket b
        g, idx, params, h, batch, runs = self.instance(np.random.default_rng(22), variant)
        _, sums = self.aggregate_recording_sums(monkeypatch, params, g, idx, h, batch)
        assert len(sums) == 1
        k = batch.size
        assert sums[0].shape == (3 * k, h.shape[1])
        for b, (members, seg_ids) in enumerate(runs):
            assert members.size
            want = add_at_rows(h[members], seg_ids, k)
            np.testing.assert_array_equal(sums[0][b * k : (b + 1) * k], want)


class TestBucketSumKernels:
    """``bucket_sums`` sums narrow rows one column at a time and rows of 32
    or more columns a whole row at a time; either way its table is bitwise
    the column kernel's (the taped oracle's), on neighborhoods listed
    center by center."""

    def table_pair(self, seed, d, batch=None, bucket=None):
        rng = np.random.default_rng(seed)
        g, idx, _, _ = random_setup(rng, n=40, d_in=1, edge_factor=6)
        h = rng.standard_normal((g.num_nodes, d)) * 10.0 ** rng.integers(-8, 9, size=(g.num_nodes, d))
        batch = rng.permutation(g.num_nodes) if batch is None else batch
        members, seg_ids = g.neighbor_segments(0, batch)
        args = members, seg_ids, idx.bucket[members] if bucket is None else bucket(members.size), batch.size
        return bucket_sums(h, *args), taped_bucket_sums(Tensor(h), *args).data, args

    @pytest.mark.parametrize("d", [4, 31, 32, 64])
    def test_every_width_gives_the_column_kernels_table(self, d):
        got, want, _ = self.table_pair(30, d)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d, kernel", [(31, "gather_segment_sum"), (32, "gather_segment_sum_sliced")])
    def test_the_kernel_is_chosen_by_row_width(self, monkeypatch, d, kernel):
        called = []
        for name in ("gather_segment_sum", "gather_segment_sum_sliced"):
            real = getattr(nd, name)
            monkeypatch.setattr(nd, name, lambda *args, name=name, real=real: called.append(name) or real(*args))
        h = np.ones((3, d))
        bucket_sums(h, np.array([0, 2, 1]), np.array([0, 0, 1]), np.array([2, 0, 2], dtype=np.int8), 2)
        assert called == [kernel]

    @pytest.mark.parametrize("d", [4, 32])
    @pytest.mark.parametrize("bucket", [0, 2])
    def test_one_center_whose_other_buckets_are_empty(self, d, bucket):
        got, want, (_, _, _, k) = self.table_pair(31, d, batch=np.array([5]),
                                                  bucket=lambda m: np.full(m, bucket, dtype=np.int8))
        assert k == 1 and got.shape == (3, d) and got.tobytes() == want.tobytes()
        assert [got[b].any() for b in range(3)] == [b == bucket for b in range(3)]

    @pytest.mark.parametrize("d", [4, 32])
    def test_members_not_listed_center_by_center_are_refused(self, d):
        _, _, (members, seg_ids, bucket, k) = self.table_pair(32, d)
        h = np.ones((40, d))
        shuffle = np.random.default_rng(0).permutation(members.size)
        with pytest.raises(nd.ShapeError, match="nondecreasing"):
            bucket_sums(h, members[shuffle], seg_ids[shuffle], bucket[shuffle], k)
        with pytest.raises(nd.ShapeError, match=r"center positions in \[0, "):
            bucket_sums(h, members, seg_ids + 1, bucket, k)


def layer_gradients(params, graph, partition, h, centers, upstream, use_relu=True):
    """The layer's output for ``centers``, whose centers' rows, gate rows and
    table all come from ``h``, and, from one call of its adjoint with the
    output's gradient ``upstream``, every block's gradient and the
    gradients of its inputs: "h_centers", "sums", "h_gate" and "h", whose
    terms add as ``ndiff.GradientTape`` adds them (centers' rows, table,
    gate's rows)."""
    members, seg_ids = graph.neighbor_segments(0, centers)
    bucket = partition.bucket[members]
    sums = bucket_sums(h, members, seg_ids, bucket, centers.size)
    grads = {name: np.full_like(block, np.nan) for name, block in blocks(params).items()}
    h_c = nd.gather_rows(h, centers)
    h_g = h_c if params.variant.adaptive_combination_enabled else None
    out, adjoint = layer_forward(params, sums, h_c, h_g, use_relu=use_relu, grads=grads)
    g_hc, g_sums, g_gate = adjoint(upstream, True)
    n = h.shape[0]
    terms = [nd.scatter_rows(g_hc, centers, n), bucket_sums_adjoint(g_sums, members, seg_ids, bucket, n)]
    terms += [] if g_gate is None else [nd.scatter_rows(g_gate, centers, n)]
    grads.update(h_centers=g_hc, sums=g_sums, h_gate=g_gate, h=terms[0])
    for term in terms[1:]:
        grads["h"] = grads["h"] + term
    return out, grads


class TestGradients:
    def test_full_layer_gradient_check(self):
        rng = np.random.default_rng(10)
        g, idx, params, h = random_setup(rng, n=10)
        batch = np.arange(g.num_nodes)
        mean_adjoint = np.full((g.num_nodes, params.d_out), 1.0 / (g.num_nodes * params.d_out))
        _, analytic = layer_gradients(params, g, idx, h, batch, mean_adjoint)
        report = grad_check(lambda: forward(params, g, idx, 0, h, batch).mean(), dict(blocks(params), h=h),
                            tolerance=1e-6, analytic=analytic)
        assert report.passed, str(report)

    def test_empty_buckets_leave_exact_zero_grads(self):
        # center 0 has only benign train neighbors; under the full variant
        # the fraud generator and the gate never touch the loss
        g = RelationalGraph.from_edge_lists(3, [[(0, 1), (0, 2)]])
        idx = PartitionIndex.build(g, np.array([0, 0, 0]), np.array([False, True, True]))
        rng = np.random.default_rng(11)
        params = PmpLayerParams(2, 2, LayerVariant.full(), rng)
        params.w_phi = rng.normal(size=(2, 1))
        h = rng.normal(size=(3, 2))
        _, grads = layer_gradients(params, g, idx, h, np.array([0]), np.full((1, 2), 0.5))
        for name in ("M_fr", "B_fr", "w_phi", "b_phi"):
            np.testing.assert_array_equal(grads[name], np.zeros_like(grads[name]))
        assert np.abs(grads["M_be"]).max() > 0


class TestOneRecordedOp:
    """``layer_forward``, the one record a layer call keeps, and its adjoint
    equal, bitwise, the layer composed of the engine's small ops
    (``reference.composed_layer_forward``)."""

    @staticmethod
    def instance(variant, seed):
        """A layer with every block random and inputs on which summation
        order changes the rounding, plus the output's upstream gradient."""
        rng = np.random.default_rng(seed)
        n, d_in, d_out = 30, 5, 6
        g, idx, params, _ = random_setup(rng, n=n, d_in=d_in, d_out=d_out, edge_factor=5, variant=variant)
        for name, block in blocks(params).items():
            setattr(params, name, rng.normal(size=block.shape))
        h = rng.normal(size=(n, d_in))
        centers = rng.integers(0, n, size=23)  # unsorted, repeated
        return g, idx, params, h, centers, rng.normal(size=(centers.size, d_out))

    @staticmethod
    def composed(params, g, idx, h, centers, upstream, use_relu):
        """The same output and gradients from one engine reverse pass through
        the composed layer."""
        taped = copy.copy(params)
        tensors = {name: Tensor(block, requires_grad=True) for name, block in blocks(params).items()}
        for name, t in tensors.items():
            setattr(taped, name, t)
        h = Tensor(h, requires_grad=True)
        members, seg_ids = g.neighbor_segments(0, centers)
        sums = taped_bucket_sums(h, members, seg_ids, idx.bucket[members], centers.size)
        h_c, h_g = gather_rows(h, centers), gather_rows(h, centers)
        out = composed_layer_forward(taped, sums, h_c, h_g, use_relu=use_relu)
        backward(out, seed=upstream)
        tensors.update(h=h, sums=sums, h_centers=h_c, h_gate=h_g)
        return out.data, {name: t.grad for name, t in tensors.items()}

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
    @pytest.mark.parametrize("use_relu", [True, False], ids=["relu", "linear"])
    def test_output_and_every_gradient_bitwise_equal_to_the_composed_layer(self, variant, use_relu):
        g, idx, params, h, centers, upstream = self.instance(variant, 100 + ALL_VARIANTS.index(variant))
        out, got = layer_gradients(params, g, idx, h, centers, upstream, use_relu=use_relu)
        want_out, want = self.composed(params, g, idx, h, centers, upstream, use_relu)
        assert out.tobytes() == want_out.tobytes()
        assert got.keys() == want.keys()
        for name in want:
            if want[name] is None:
                assert got[name] is None, name
            else:
                assert got[name].tobytes() == want[name].tobytes(), name
        for name in ("h", "sums", "h_centers", "W_self", "M_fr"):
            assert np.abs(want[name]).max() > 0, name
        if variant.adaptive_combination_enabled:
            assert np.abs(want["h_gate"]).max() > 0 and np.abs(want["w_phi"]).max() > 0

    def test_scoring_makes_no_adjoint(self):
        rng = np.random.default_rng(30)
        g, idx, params, h = random_setup(rng)
        centers = np.arange(g.num_nodes)
        h_c = nd.gather_rows(h, centers)
        out, adjoint = layer_forward(params, _batch_sums(g, idx, 0, h, centers), h_c, h_c)
        assert adjoint is None and out.shape == (g.num_nodes, params.d_out)

    @pytest.mark.parametrize("variant", [v for v in ALL_VARIANTS
                                         if v.adaptive_combination_enabled or not v.partition_enabled], ids=variant_id)
    def test_a_table_without_gradient_is_freed_after_the_forward(self, variant):
        # layer 1's shared table in training: the adjoint keeps a copy of the
        # unlabeled block its gate reads, or the baseline's summed block, not
        # the whole table
        rng = np.random.default_rng(33)
        g, idx, params, h = random_setup(rng, variant=variant)
        centers = np.arange(g.num_nodes)
        sums = _batch_sums(g, idx, 0, h, centers)
        table = weakref.ref(sums)
        h_c = nd.gather_rows(h, centers)
        grads = {name: np.full_like(block, np.nan) for name, block in blocks(params).items()}
        out, adjoint = layer_forward(params, sums, h_c, h_c, grads=grads)
        del sums
        assert table() is None
        assert adjoint(np.ones(out.shape), False) is None
        assert np.abs(grads["M_fr"]).max() > 0
        if variant.adaptive_combination_enabled:
            assert np.abs(grads["w_phi"]).max() > 0

    def overflow_instance(self, variant=LayerVariant.full()):
        rng = np.random.default_rng(31)
        g, idx, params, h = random_setup(rng, variant=variant)
        return g, idx, params, h, np.arange(g.num_nodes)

    def test_overflowing_gate_logit_raises(self):
        # the logistic would map the +inf logit to the clamp, finite
        g, idx, params, h, batch = self.overflow_instance()
        params.w_phi = np.full_like(params.w_phi, 1e308)
        h = np.abs(h) + 1.0
        with np.errstate(over="ignore"), pytest.raises(nd.NonFiniteError, match="^layer: non-finite gate logit$"):
            forward(params, g, idx, 0, h, batch)

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
    def test_overflowing_pre_activation_raises(self, variant):
        # every pre-activation is -inf, which ReLU would turn into zeros
        g, idx, params, h, batch = self.overflow_instance(variant)
        h = np.abs(h) + 1.0
        params.W_self = np.full_like(params.W_self, -1e308)
        with np.errstate(over="ignore"), pytest.raises(nd.NonFiniteError, match="^layer: non-finite pre-activation$"):
            forward(params, g, idx, 0, h, batch, use_relu=True)

    @pytest.mark.parametrize("sums_centers, num_centers, gate_rows, message", [
        (None, 4, 4, "sums must be the 4 centers' \\[12, 3\\] table, got shape \\(5, 3\\)"),
        # tables of 3m rows for m != k centers
        (4, 3, 3, "sums must be the 3 centers' \\[9, 3\\] table, got shape \\(12, 3\\)"),
        (5, 4, 4, "sums must be the 4 centers' \\[12, 3\\] table, got shape \\(15, 3\\)"),
        (4, 4, 3, "h_gate must be \\[4, 3\\]"),
        (4, 4, None, "h_gate must be \\[4, 3\\], got shape \\(\\)"),
    ], ids=["rows-not-3k", "fewer-centers", "more-table-rows", "gate-rows", "no-gate"])
    def test_shape_errors(self, sums_centers, num_centers, gate_rows, message):
        rng = np.random.default_rng(32)
        g, idx, params, h = random_setup(rng)
        if sums_centers is None:
            sums = np.ones((5, 3))
        else:
            sums = _batch_sums(g, idx, 0, h, np.arange(sums_centers))
        h_c = nd.gather_rows(h, np.arange(num_centers))
        h_g = None if gate_rows is None else nd.gather_rows(h, np.arange(gate_rows))
        with pytest.raises(nd.ShapeError, match=f"^layer: {message}"):
            layer_forward(params, sums, h_c, h_g)

    def test_centers_of_the_wrong_width_are_rejected(self):
        rng = np.random.default_rng(32)
        g, idx, params, h = random_setup(rng)
        h_c = np.ones((4, 2))
        with pytest.raises(nd.ShapeError, match=r"^layer: h_centers must be \[k, 3\], got shape \(4, 2\)$"):
            layer_forward(params, _batch_sums(g, idx, 0, h, np.arange(4)), h_c, h_c)
