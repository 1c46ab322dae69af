"""Single layer: bucketed aggregation, weight generation, blend gate, and
the one recorded op against the layer composed of the engine's small ops."""
import copy
import itertools
import weakref

import numpy as np
import pytest

from pmpfraud import ndiff as nd
from pmpfraud.graph import PartitionIndex, RelationalGraph
from pmpfraud.layer import LayerVariant, PmpLayerParams, bucket_sums, layer_forward

from .reference import (
    add_at_rows,
    benign_neighbors,
    composed_layer_forward,
    fraud_neighbors,
    grad_check,
    mean,
    unlabeled_neighbors,
)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _batch_sums(partition, relation, h, batch):
    members, seg_ids = partition.graph.neighbor_segments(relation, batch)
    return bucket_sums(h, members, seg_ids, partition.bucket[members], batch.size)


def without_self_term(params):
    """A view of ``params`` whose self term is constant exact zeros."""
    out = copy.copy(params)
    out.W_self = nd.Tensor(np.zeros_like(params.W_self.data))
    out.b_self = nd.Tensor(np.zeros_like(params.b_self.data))
    return out


def aggregate(params, variant, partition, relation, h, batch):
    """Neighbor aggregation for ``batch`` with ``h`` holding one row per node:
    the layer with its self term at exact zeros and no activation."""
    return forward(without_self_term(params), variant, partition, relation, h, batch, use_relu=False)


def forward(params, variant, partition, relation, h, batch, use_relu=True):
    """Whole layer (self term, aggregation, activation) for ``batch``."""
    h_c = nd.gather_rows(h, batch)
    return layer_forward(params, variant, _batch_sums(partition, relation, h, batch), h_c, h_c, use_relu=use_relu)


def random_setup(rng, n=14, d_in=3, d_out=4, edge_factor=3):
    edges = [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(edge_factor * n)]
    g = RelationalGraph.from_edge_lists(n, [edges])
    labels = rng.integers(0, 2, size=n)
    train = rng.random(n) < 0.7
    # make sure both labeled buckets are exercised somewhere
    labels[:2] = [0, 1]
    train[:2] = True
    idx = PartitionIndex.build(g, labels, train)
    params = PmpLayerParams(d_in, d_out, rng=rng)
    # nonzero gate and bias blocks, the zero init would mask bugs
    for name in ("b_self", "B_fr", "B_be", "w_phi", "b_phi"):
        t = getattr(params, name)
        t.data = rng.normal(size=t.data.shape)
    h = nd.Tensor(rng.normal(size=(n, d_in)))
    return g, idx, params, h


def materialized_aggregate(params, variant, idx, h, batch):
    """Per-node loop with explicit diag(h) @ M + B matrices."""
    out = np.zeros((len(batch), params.d_out))
    for pos, u in enumerate(batch):
        h_u = h.data[u]
        if variant.root_specific_enabled:
            w_fr = np.diag(h_u) @ params.M_fr.data + params.B_fr.data
            w_be = np.diag(h_u) @ params.M_be.data + params.B_be.data
        else:
            w_fr, w_be = params.M_fr.data, params.M_be.data
        s_fr = h.data[fraud_neighbors(idx, 0, u)].sum(axis=0)
        s_be = h.data[benign_neighbors(idx, 0, u)].sum(axis=0)
        s_un = h.data[unlabeled_neighbors(idx, 0, u)].sum(axis=0)
        if not variant.partition_enabled:
            out[pos] = (s_fr + s_be + s_un) @ params.M_fr.data
            continue
        if variant.adaptive_combination_enabled:
            a = float(_sigmoid(h_u @ params.w_phi.data[:, 0] + params.b_phi.data[0]))
            w_un = a * w_fr + (1.0 - a) * w_be
        else:
            w_un = params.M_un.data
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
    def test_zero_init_without_rng(self):
        p = PmpLayerParams(3, 2)
        for name in PmpLayerParams.FIELDS:
            assert not getattr(p, name).data.any(), name

    def test_shapes_and_naming(self):
        p = PmpLayerParams(3, 2, rng=np.random.default_rng(0))
        t = p.tensors("rel0.layer1.")
        assert set(t) == {f"rel0.layer1.{n}" for n in PmpLayerParams.FIELDS}
        assert t["rel0.layer1.W_self"].data.shape == (3, 2)
        assert t["rel0.layer1.w_phi"].data.shape == (3, 1)
        assert t["rel0.layer1.b_phi"].data.shape == (1,)

    def test_glorot_bound(self):
        p = PmpLayerParams(30, 20, rng=np.random.default_rng(1))
        bound = np.sqrt(6.0 / 50.0)
        for name in ("W_self", "M_fr", "M_be", "M_un"):
            data = getattr(p, name).data
            assert np.abs(data).max() <= bound
            assert np.abs(data).max() > 0.5 * bound


def gate_values(params, h_gate):
    """The blend gate of each row of ``h_gate``, read off the layer.

    Each center's only bucket sum is e_0 in the unlabeled block, M_fr maps
    e_0 to 1 and M_be maps it to 0, and the self term is zero, so output
    column 0 is alpha * 1 + (1 - alpha) * 0, which is alpha exactly.
    """
    k, d_in = h_gate.shape
    probe = without_self_term(params)
    probe.M_fr = nd.Tensor(np.zeros_like(params.M_fr.data))
    probe.M_fr.data[0, 0] = 1.0
    probe.M_be = nd.Tensor(np.zeros_like(params.M_be.data))
    sums = np.zeros((3 * k, d_in))
    sums[2 * k :, 0] = 1.0
    h_centers = nd.Tensor(np.zeros((k, d_in)))
    out = layer_forward(probe, LayerVariant(True, True, False), nd.Tensor(sums), h_centers, h_gate, use_relu=False)
    return out.data[:, 0]


class TestGate:
    def test_zero_init_opens_at_half(self):
        p = PmpLayerParams(3, 2)
        a = gate_values(p, nd.Tensor(np.random.default_rng(0).normal(size=(5, 3))))
        np.testing.assert_array_equal(a, np.full(5, 0.5))

    def test_matches_scalar_sigmoid(self):
        rng = np.random.default_rng(1)
        p = PmpLayerParams(4, 2, rng=rng)
        p.w_phi.data = rng.normal(size=(4, 1))
        p.b_phi.data = rng.normal(size=1)
        h = rng.normal(size=(6, 4))
        a = gate_values(p, nd.Tensor(h))
        want = _sigmoid(h @ p.w_phi.data[:, 0] + p.b_phi.data[0])
        np.testing.assert_allclose(a, want, rtol=0, atol=1e-15)
        assert np.all(a > 0.0) and np.all(a < 1.0)


class TestWeightGeneration:
    """The fused path read back as per-center matrices.

    Centers 0..d_in-1 all carry h_i, and center c has one neighbor whose
    row is the unit vector e_c, so row c of the aggregation is row c of the
    matrix that center applies to that neighbor's bucket.
    """

    @staticmethod
    def applied_matrix(params, variant, h_i, neighbor_label, neighbor_in_train):
        d = params.d_in
        g = RelationalGraph.from_edge_lists(2 * d, [[(c, d + c) for c in range(d)]])
        labels = np.full(2 * d, neighbor_label)
        train = np.arange(2 * d) >= d if neighbor_in_train else np.zeros(2 * d, dtype=bool)
        idx = PartitionIndex.build(g, labels, train)
        h = nd.Tensor(np.vstack([np.tile(h_i, (d, 1)), np.eye(d)]))
        return aggregate(params, variant, idx, 0, h, np.arange(d)).data

    def test_matches_diag_oracle(self):
        rng = np.random.default_rng(2)
        p = PmpLayerParams(4, 3, rng=rng)
        p.B_fr.data = rng.normal(size=(4, 3))
        p.B_be.data = rng.normal(size=(4, 3))
        h_i = rng.normal(size=4)
        variant = LayerVariant(True, False, True)
        w_fr = self.applied_matrix(p, variant, h_i, 1, True)
        w_be = self.applied_matrix(p, variant, h_i, 0, True)
        np.testing.assert_array_equal(w_fr, np.diag(h_i) @ p.M_fr.data + p.B_fr.data)
        np.testing.assert_array_equal(w_be, np.diag(h_i) @ p.M_be.data + p.B_be.data)

    def test_blend_endpoints(self):
        # a saturated gate sends the unlabeled bucket through one labeled
        # matrix; the gate's clamp keeps it off exact 0 and 1
        rng = np.random.default_rng(3)
        p = PmpLayerParams(3, 2, rng=rng)
        p.B_fr.data = rng.normal(size=(3, 2))
        p.B_be.data = rng.normal(size=(3, 2))
        h_i = rng.normal(size=3)
        for b_phi, M, B in ((800.0, p.M_fr, p.B_fr), (-800.0, p.M_be, p.B_be)):
            p.b_phi.data = np.array([b_phi])
            got = self.applied_matrix(p, LayerVariant.full(), h_i, 0, False)
            np.testing.assert_allclose(got, np.diag(h_i) @ M.data + B.data, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("root_specific", [True, False])
    def test_blend_at_interior_gate(self, root_specific):
        # the unlabeled sum is blended before the generated maps, which is
        # the same per-center map alpha * W_fr(h) + (1 - alpha) * W_be(h)
        rng = np.random.default_rng(13)
        p = PmpLayerParams(3, 2, rng=rng)
        p.B_fr.data = rng.normal(size=(3, 2))
        p.B_be.data = rng.normal(size=(3, 2))
        p.w_phi.data = rng.normal(size=(3, 1))
        p.b_phi.data = np.array([0.3])
        h_i = rng.normal(size=3)
        a = float(_sigmoid(h_i @ p.w_phi.data[:, 0] + p.b_phi.data[0]))
        assert 0.2 < a < 0.8
        if root_specific:
            w_fr = np.diag(h_i) @ p.M_fr.data + p.B_fr.data
            w_be = np.diag(h_i) @ p.M_be.data + p.B_be.data
        else:
            w_fr, w_be = p.M_fr.data, p.M_be.data
        variant = LayerVariant(True, True, root_specific)
        got = self.applied_matrix(p, variant, h_i, 0, False)
        np.testing.assert_allclose(got, a * w_fr + (1.0 - a) * w_be, rtol=0, atol=1e-12)


class TestAggregate:
    def shared_weights_fixture(self):
        # node 0 sees two benign train neighbors carrying 2 and 3
        g = RelationalGraph.from_edge_lists(3, [[(0, 1), (0, 2)]])
        idx = PartitionIndex.build(g, np.array([1, 0, 0]), np.array([True] * 3))
        p = PmpLayerParams(1, 1)
        p.M_be.data = np.array([[2.0]])
        p.M_fr.data = np.array([[7.0]])
        p.M_un.data = np.array([[9.0]])
        h = nd.Tensor(np.array([[1.0], [2.0], [3.0]]))
        return idx, p, h

    def test_hand_case_sum_times_weight(self):
        idx, p, h = self.shared_weights_fixture()
        variant = LayerVariant(True, False, False)
        out = aggregate(p, variant, idx, 0, h, np.array([0]))
        assert out.data[0, 0] == 10.0  # (2 + 3) * 2, fraud and unlabeled empty

    def test_forward_adds_self_term(self):
        idx, p, h = self.shared_weights_fixture()
        p.W_self.data = np.array([[1.0]])
        variant = LayerVariant(True, False, False)
        out = forward(p, variant, idx, 0, h, np.array([0]), use_relu=False)
        assert out.data[0, 0] == 11.0

    def test_isolated_node_aggregates_exact_zero(self):
        g = RelationalGraph.from_edge_lists(3, [[(1, 2)]])
        idx = PartitionIndex.build(g, np.array([1, 0, 1]), np.array([True] * 3))
        rng = np.random.default_rng(4)
        p = PmpLayerParams(2, 3, rng=rng)
        h = nd.Tensor(rng.normal(size=(3, 2)))
        out = aggregate(p, LayerVariant.full(), idx, 0, h, np.array([0]))
        np.testing.assert_array_equal(out.data, np.zeros((1, 3)))

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
    def test_fused_matches_materialized(self, variant):
        rng = np.random.default_rng(5)
        for trial in range(6):
            g, idx, params, h = random_setup(rng)
            batch = rng.permutation(g.num_nodes)[: g.num_nodes // 2]
            got = aggregate(params, variant, idx, 0, h, batch)
            want = materialized_aggregate(params, variant, idx, h, batch.tolist())
            np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)

    def test_partition_off_sums_everything_under_one_matrix(self):
        rng = np.random.default_rng(6)
        g, idx, params, h = random_setup(rng)
        batch = np.arange(g.num_nodes)
        got = aggregate(params, LayerVariant.baseline(), idx, 0, h, batch)
        rows = np.zeros((g.num_nodes, params.d_in))
        for u in range(g.num_nodes):
            rows[u] = h.data[g.neighbors(0, u)].sum(axis=0)
        np.testing.assert_allclose(got.data, rows @ params.M_fr.data, rtol=0, atol=1e-12)

    def test_equal_matrices_collapse_to_baseline(self):
        # with both refinements off and all three maps equal, bucketing
        # cannot change the sum
        rng = np.random.default_rng(7)
        g, idx, params, h = random_setup(rng)
        shared = rng.normal(size=(params.d_in, params.d_out))
        for name in ("M_fr", "M_be", "M_un"):
            getattr(params, name).data = shared.copy()
        batch = np.arange(g.num_nodes)
        split = aggregate(params, LayerVariant(True, False, False), idx, 0, h, batch)
        merged = aggregate(params, LayerVariant.baseline(), idx, 0, h, batch)
        np.testing.assert_allclose(split.data, merged.data, rtol=0, atol=1e-12)

    def test_adaptive_blend_of_equal_maps_ignores_gate(self):
        # alpha * W + (1 - alpha) * W = W for every gate value, so with
        # equal generators the gate parameters cannot matter
        rng = np.random.default_rng(8)
        g, idx, params, h = random_setup(rng)
        params.M_be.data = params.M_fr.data.copy()
        params.B_be.data = params.B_fr.data.copy()
        batch = np.arange(g.num_nodes)
        variant = LayerVariant(True, True, True)
        before = aggregate(params, variant, idx, 0, h, batch)
        params.w_phi.data = rng.normal(size=params.w_phi.data.shape)
        params.b_phi.data = rng.normal(size=1)
        after = aggregate(params, variant, idx, 0, h, batch)
        np.testing.assert_allclose(after.data, before.data, rtol=0, atol=1e-12)

    def test_adaptive_with_shared_plain_maps_matches_fixed_unlabeled(self):
        # root-specific off: the blend mixes M_fr and M_be directly, so
        # making all three maps equal must reproduce the M_un path
        rng = np.random.default_rng(12)
        g, idx, params, h = random_setup(rng)
        shared = rng.normal(size=(params.d_in, params.d_out))
        for name in ("M_fr", "M_be", "M_un"):
            getattr(params, name).data = shared.copy()
        batch = np.arange(g.num_nodes)
        adaptive = aggregate(params, LayerVariant(True, True, False), idx, 0, h, batch)
        fixed = aggregate(params, LayerVariant(True, False, False), idx, 0, h, batch)
        np.testing.assert_allclose(adaptive.data, fixed.data, rtol=0, atol=1e-12)


class TestSummationOrder:
    """Each bucket sum adds its members center by center, ascending id within
    a center, into one [3k, d] table whatever the variant; the baseline maps
    (fraud + benign) + unlabeled. Checked bitwise against an unbuffered
    ``np.add.at`` in that order, on neighborhoods where the order changes the
    rounding."""

    def instance(self, rng):
        g, idx, params, h = random_setup(rng, n=40, d_in=4, d_out=4, edge_factor=6)
        batch = rng.permutation(g.num_nodes)
        runs = []
        for query in (fraud_neighbors, benign_neighbors, unlabeled_neighbors):
            members = [query(idx, 0, int(u)) for u in batch]
            seg_ids = [np.full(m.size, pos) for pos, m in enumerate(members)]
            runs.append((np.concatenate(members), np.concatenate(seg_ids)))
        return idx, params, h, batch, runs

    def aggregate_recording_sums(self, monkeypatch, params, variant, idx, h, batch):
        sums = []
        real = nd.gather_segment_sum

        def spy(x, rows, segment_ids, num_segments):
            out = real(x, rows, segment_ids, num_segments)
            sums.append(out.data)
            return out

        monkeypatch.setattr(nd, "gather_segment_sum", spy)
        out = aggregate(params, variant, idx, 0, h, batch)
        monkeypatch.undo()
        return out, sums

    def test_baseline_maps_fraud_plus_benign_plus_unlabeled_of_the_shared_table(self, monkeypatch):
        idx, params, h, batch, _ = self.instance(np.random.default_rng(21))
        out, sums = self.aggregate_recording_sums(monkeypatch, params, LayerVariant.baseline(), idx, h, batch)
        assert len(sums) == 1
        for variant in ALL_VARIANTS[1:]:
            _, partitioned = self.aggregate_recording_sums(monkeypatch, params, variant, idx, h, batch)
            assert sums[0].tobytes() == partitioned[0].tobytes()
        k = batch.size
        s_fr, s_be, s_un = (sums[0][b * k : (b + 1) * k] for b in range(3))
        np.testing.assert_array_equal(out.data, ((s_fr + s_be) + s_un) @ params.M_fr.data)

    @pytest.mark.parametrize("variant", ALL_VARIANTS[1:], ids=variant_id)
    def test_each_bucket_adds_center_by_center(self, monkeypatch, variant):
        # one call sums all three buckets; block b of its k rows is bucket b
        idx, params, h, batch, runs = self.instance(np.random.default_rng(22))
        _, sums = self.aggregate_recording_sums(monkeypatch, params, variant, idx, h, batch)
        assert len(sums) == 1
        k = batch.size
        assert sums[0].shape == (3 * k, h.shape[1])
        for b, (members, seg_ids) in enumerate(runs):
            assert members.size
            want = add_at_rows(h.data[members], seg_ids, k)
            np.testing.assert_array_equal(sums[0][b * k : (b + 1) * k], want)


class TestGradients:
    def test_full_layer_gradient_check(self):
        rng = np.random.default_rng(10)
        g, idx, params, h = random_setup(rng, n=10)
        h.requires_grad = True
        batch = np.arange(g.num_nodes)
        blocks = dict(params.tensors(), h=h)

        def fn():
            return mean(forward(params, LayerVariant.full(), idx, 0, h, batch))

        report = grad_check(fn, blocks, tolerance=1e-6)
        assert report.passed, str(report)

    def test_empty_buckets_leave_exact_zero_grads(self):
        # center 0 has only benign train neighbors; under the full variant
        # the fraud generator and the gate never touch the loss
        g = RelationalGraph.from_edge_lists(3, [[(0, 1), (0, 2)]])
        idx = PartitionIndex.build(g, np.array([0, 0, 0]), np.array([False, True, True]))
        rng = np.random.default_rng(11)
        params = PmpLayerParams(2, 2, rng=rng)
        params.w_phi.data = rng.normal(size=(2, 1))
        h = nd.Tensor(rng.normal(size=(3, 2)))
        tape = nd.GradientTape(params.tensors())
        out = aggregate(params, LayerVariant.full(), idx, 0, h, np.array([0]))
        grads = tape.gradients(mean(out))
        for name in ("M_fr", "B_fr", "w_phi", "b_phi", "M_un", "W_self", "b_self"):
            np.testing.assert_array_equal(grads[name], np.zeros_like(grads[name]))
        assert np.abs(grads["M_be"]).max() > 0


class TestOneRecordedOp:
    """``layer_forward`` records one op whose forward and adjoint equal,
    bitwise, the layer composed of the engine's small ops
    (``reference.composed_layer_forward``)."""

    @staticmethod
    def run(fn, variant, use_relu, shared_gate, seed):
        """Output and every gradient, as bytes, of one seeded reverse pass
        through ``fn``, on an instance where summation order changes the
        rounding."""
        rng = np.random.default_rng(seed)
        n, d_in, d_out = 30, 5, 6
        g, idx, params, _ = random_setup(rng, n=n, d_in=d_in, d_out=d_out, edge_factor=5)
        for t in params.tensors().values():
            t.data = rng.normal(size=t.data.shape)
        h = nd.Tensor(rng.normal(size=(n, d_in)), requires_grad=True)
        centers = rng.integers(0, n, size=23)  # unsorted, repeated
        members, seg_ids = g.neighbor_segments(0, centers)
        sums = bucket_sums(h, members, seg_ids, idx.bucket[members], centers.size)
        h_c = nd.gather_rows(h, centers)
        h_g = h_c if shared_gate else nd.gather_rows(h, centers)
        out = fn(params, variant, sums, h_c, h_g, use_relu=use_relu)
        nd.backward(out, seed=rng.normal(size=out.shape))
        tensors = dict(params.tensors(), out=out, h=h, sums=sums, h_centers=h_c, h_gate=h_g)
        return {name: (t.data if name == "out" else t.grad) for name, t in tensors.items()}

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
    @pytest.mark.parametrize("use_relu", [True, False], ids=["relu", "linear"])
    @pytest.mark.parametrize("shared_gate", [False, True], ids=["own-gate-input", "gate-reads-centers"])
    def test_output_and_every_gradient_bitwise_equal_to_the_composed_layer(self, variant, use_relu, shared_gate):
        seed = 100 + ALL_VARIANTS.index(variant)
        got = self.run(layer_forward, variant, use_relu, shared_gate, seed)
        want = self.run(composed_layer_forward, variant, use_relu, shared_gate, seed)
        assert got.keys() == want.keys()
        for name in want:
            if want[name] is None:
                assert got[name] is None, name
            else:
                assert got[name].tobytes() == want[name].tobytes(), name
        for name in ("out", "h", "sums", "h_centers", "W_self", "M_fr"):
            assert np.abs(want[name]).max() > 0, name
        if variant.adaptive_combination_enabled:
            assert np.abs(want["h_gate"]).max() > 0 and np.abs(want["w_phi"]).max() > 0

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
    def test_records_one_node(self, variant):
        rng = np.random.default_rng(30)
        g, idx, params, h = random_setup(rng)
        h.requires_grad = True
        batch = np.arange(g.num_nodes)
        trace = []
        nd.backward(mean(forward(params, variant, idx, 0, h, batch)), trace=trace)
        assert sorted(trace) == ["gather_rows", "gather_segment_sum", "layer", "mean"]

    @pytest.mark.parametrize("variant", [v for v in ALL_VARIANTS
                                         if v.adaptive_combination_enabled or not v.partition_enabled], ids=variant_id)
    def test_a_table_without_gradient_is_freed_after_the_forward(self, variant):
        # layer 1's shared table in training: the recorded op keeps a copy of
        # the unlabeled block its gate adjoint reads, or the baseline's summed
        # block, not the whole table
        rng = np.random.default_rng(33)
        g, idx, params, h = random_setup(rng)
        centers = np.arange(g.num_nodes)
        sums = _batch_sums(idx, 0, h, centers)
        table = weakref.ref(sums.data)
        h_c = nd.gather_rows(h, centers)
        out = layer_forward(params, variant, sums, h_c, h_c)
        del sums
        assert out.requires_grad and table() is None
        nd.backward(out, seed=np.ones(out.shape))
        assert np.abs(params.M_fr.grad).max() > 0
        if variant.adaptive_combination_enabled:
            assert np.abs(params.w_phi.grad).max() > 0

    def overflow_instance(self):
        rng = np.random.default_rng(31)
        g, idx, params, h = random_setup(rng)
        return idx, params, h, np.arange(g.num_nodes)

    def test_overflowing_gate_logit_raises(self):
        # the logistic would map the +inf logit to the clamp, finite
        idx, params, h, batch = self.overflow_instance()
        params.w_phi.data = np.full_like(params.w_phi.data, 1e308)
        h.data = np.abs(h.data) + 1.0
        with np.errstate(over="ignore"), pytest.raises(nd.NonFiniteError, match="^layer: non-finite gate logit$"):
            forward(params, LayerVariant.full(), idx, 0, h, batch)

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
    def test_overflowing_pre_activation_raises(self, variant):
        # every pre-activation is -inf, which ReLU would turn into zeros
        idx, params, h, batch = self.overflow_instance()
        h.data = np.abs(h.data) + 1.0
        params.W_self.data = np.full_like(params.W_self.data, -1e308)
        with np.errstate(over="ignore"), pytest.raises(nd.NonFiniteError, match="^layer: non-finite pre-activation$"):
            forward(params, variant, idx, 0, h, batch, use_relu=True)

    @pytest.mark.parametrize("sums_centers, num_centers, gate_rows, message", [
        (None, 4, 4, "sums must be the 4 centers' \\[12, 3\\] table, got shape \\(5, 3\\)"),
        # tables of 3m rows for m != k centers
        (4, 3, 3, "sums must be the 3 centers' \\[9, 3\\] table, got shape \\(12, 3\\)"),
        (5, 4, 4, "sums must be the 4 centers' \\[12, 3\\] table, got shape \\(15, 3\\)"),
        (4, 4, 3, "h_gate must be \\[4, 3\\]"),
    ], ids=["rows-not-3k", "fewer-centers", "more-table-rows", "gate-rows"])
    def test_shape_errors(self, sums_centers, num_centers, gate_rows, message):
        rng = np.random.default_rng(32)
        g, idx, params, h = random_setup(rng)
        if sums_centers is None:
            sums = nd.Tensor(np.ones((5, 3)))
        else:
            sums = _batch_sums(idx, 0, h, np.arange(sums_centers))
        h_c, h_g = nd.gather_rows(h, np.arange(num_centers)), nd.gather_rows(h, np.arange(gate_rows))
        with pytest.raises(nd.ShapeError, match=f"^layer: {message}"):
            layer_forward(params, LayerVariant.full(), sums, h_c, h_g)

    def test_centers_of_the_wrong_width_are_rejected(self):
        rng = np.random.default_rng(32)
        g, idx, params, h = random_setup(rng)
        h_c = nd.Tensor(np.ones((4, 2)))
        with pytest.raises(nd.ShapeError, match=r"^layer: h_centers must be \[k, 3\], got shape \(4, 2\)$"):
            layer_forward(params, LayerVariant.full(), _batch_sums(idx, 0, h, np.arange(4)), h_c, h_c)
