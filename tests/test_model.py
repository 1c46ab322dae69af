"""Stacked model against a per-node naive reference and exact identities."""
import contextlib
import json
import math
import re

import numpy as np
import pytest

from pmpfraud import model as model_module
from pmpfraud import ndiff as nd
from pmpfraud.graph import NodeTable, PartitionIndex, RelationalGraph
from pmpfraud.layer import LayerVariant
from pmpfraud.model import ModelConfig, PmpModel, layer_one_sums, loss, model_forward, model_logits

from .reference import (
    composed_layer_forward, composed_loss, composed_readout, frontier_model_forward, grad_check, naive_model_forward,
)

VARIANTS = [
    LayerVariant(False, False, False),
    LayerVariant(True, False, False),
    LayerVariant(True, True, False),
    LayerVariant(True, False, True),
    LayerVariant(True, True, True),
]


def random_instance(rng, n=16, num_relations=1, num_layers=1, variant=None, d=3, hidden=4):
    edge_lists = [
        [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(3 * n)]
        for _ in range(num_relations)
    ]
    g = RelationalGraph.from_edge_lists(n, edge_lists)
    labels = rng.integers(0, 2, size=n)
    labels[:2] = [0, 1]
    train = rng.random(n) < 0.7
    train[:2] = True
    idx = PartitionIndex.build(g, labels, train)
    cfg = ModelConfig(
        feature_dim=d,
        hidden_dim=hidden,
        num_layers=num_layers,
        num_relations=num_relations,
        variant=variant or LayerVariant.full(),
    )
    model = PmpModel(cfg, seed=int(rng.integers(1 << 30)))
    # biases and gates initialize to zero; randomize them so the
    # comparison exercises every term
    for name, p in model.parameters().items():
        if not p.data.any():
            p.data = 0.3 * rng.normal(size=p.data.shape)
    x = rng.normal(size=(n, d))
    return g, idx, labels, model, x


class TestForward:
    def test_zero_parameters_give_exactly_half(self):
        rng = np.random.default_rng(0)
        g, idx, labels, model, x = random_instance(rng)
        model.load_state({k: np.zeros_like(v) for k, v in model.state().items()})
        probs = model_forward(model, g, idx, x, np.arange(g.num_nodes))
        np.testing.assert_array_equal(probs.data, np.full(g.num_nodes, 0.5))

    def test_output_shape_and_open_interval(self):
        rng = np.random.default_rng(1)
        g, idx, labels, model, x = random_instance(rng, num_layers=2)
        batch = np.array([3, 1, 7])
        probs = model_forward(model, g, idx, x, batch)
        assert probs.shape == (3,)
        assert np.all(probs.data > 0.0) and np.all(probs.data < 1.0)

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: repr(tuple(v.to_dict().values())))
    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_matches_naive_reference(self, variant, shape):
        num_relations, num_layers = shape
        rng = np.random.default_rng(42)
        for trial in range(3):
            g, idx, labels, model, x = random_instance(
                rng, num_relations=num_relations, num_layers=num_layers, variant=variant
            )
            batch = rng.permutation(g.num_nodes)[:7]
            got = model_forward(model, g, idx, x, batch)
            want = naive_model_forward(model, g, idx, x, batch)
            np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: repr(tuple(v.to_dict().values())))
    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bitwise_equal_to_gathered_frontier_oracle(self, variant, num_layers, order):
        # layer 1 sums straight from the table, in either memory order,
        # exactly as it did from a gathered copy of the layer-0 frontier
        rng = np.random.default_rng(13)
        g, idx, labels, model, x = random_instance(rng, num_relations=2, num_layers=num_layers, variant=variant)
        batch = np.array([9, 2, 9, 14, 0, 2, 2, 7])
        got = model_forward(model, g, idx, np.asarray(x, order=order), batch)
        want = frontier_model_forward(model, g, idx, x, batch)
        np.testing.assert_array_equal(got.data, want.data)

    def test_frontier_restriction_matches_whole_graph(self):
        # scores of a small batch equal the same rows of a full-graph pass
        rng = np.random.default_rng(3)
        g, idx, labels, model, x = random_instance(rng, num_layers=2)
        full = model_forward(model, g, idx, x, np.arange(g.num_nodes))
        batch = np.array([5, 0, 11])
        part = model_forward(model, g, idx, x, batch)
        np.testing.assert_allclose(part.data, full.data[batch], rtol=0, atol=1e-12)

    def test_batch_permutation_permutes_scores(self):
        rng = np.random.default_rng(4)
        g, idx, labels, model, x = random_instance(rng, num_layers=2)
        batch = np.arange(g.num_nodes)
        perm = rng.permutation(g.num_nodes)
        a = model_forward(model, g, idx, x, batch)
        b = model_forward(model, g, idx, x, batch[perm])
        np.testing.assert_array_equal(b.data, a.data[perm])

    def test_unsorted_batch_with_repeats_matches_unique_batch(self):
        # repeated and unsorted ids all map through the same frontier rows
        rng = np.random.default_rng(12)
        g, idx, labels, model, x = random_instance(rng, num_relations=2, num_layers=2)
        batch = np.array([9, 2, 9, 14, 0, 2, 2, 7])
        unique = np.unique(batch)
        a = model_forward(model, g, idx, x, unique)
        b = model_forward(model, g, idx, x, batch)
        np.testing.assert_array_equal(b.data, a.data[np.searchsorted(unique, batch)])

    def test_own_label_does_not_enter_own_score(self):
        # flipping a node's label (and train membership) changes its
        # neighbors' buckets elsewhere, but with one layer its own score
        # reads only neighbor labels
        rng = np.random.default_rng(5)
        g, idx, labels, model, x = random_instance(rng, num_layers=1)
        u = 5
        flipped = labels.copy()
        flipped[u] = 1 - flipped[u]
        train = rng.random(g.num_nodes) < 0.7
        train[:2] = True
        a = model_forward(model, g, PartitionIndex.build(g, labels, train), x, np.array([u]))
        b = model_forward(model, g, PartitionIndex.build(g, flipped, train), x, np.array([u]))
        np.testing.assert_array_equal(a.data, b.data)

    def test_two_identical_relations_reduce_to_one(self):
        # duplicate the relation and split the readout weight in half:
        # cat = [h, h], so [W/2; W/2] reproduces the single-relation score
        rng = np.random.default_rng(6)
        g1, idx1, labels, model1, x = random_instance(rng, num_relations=1)
        rows = np.repeat(np.arange(g1.num_nodes), g1.degrees(0))
        edges = np.stack([rows, g1.col_indices[0]], axis=1)
        g2 = RelationalGraph.from_edge_lists(g1.num_nodes, [edges, edges])
        # same bucketing on both copies of the relation
        idx2 = PartitionIndex(g2, idx1.bucket)
        cfg2 = ModelConfig(
            feature_dim=model1.config.feature_dim,
            hidden_dim=model1.config.hidden_dim,
            num_layers=1,
            num_relations=2,
            variant=model1.config.variant,
        )
        model2 = PmpModel(cfg2, seed=0)
        state1 = model1.state()
        state2 = {}
        for k, v in state1.items():
            if k.startswith("rel0."):
                state2[k] = v
                state2["rel1." + k[len("rel0.") :]] = v
            elif k == "readout.W":
                state2[k] = np.concatenate([v, v]) / 2.0
            else:
                state2[k] = v
        model2.load_state(state2)
        batch = np.arange(g1.num_nodes)
        a = model_forward(model1, g1, idx1, x, batch)
        b = model_forward(model2, g2, idx2, x, batch)
        np.testing.assert_allclose(b.data, a.data, rtol=0, atol=1e-12)

    def test_validation_errors(self):
        rng = np.random.default_rng(7)
        g, idx, labels, model, x = random_instance(rng)
        with pytest.raises(ValueError):
            model_forward(model, g, idx, x, np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            model_forward(model, g, idx, x, np.array([g.num_nodes]))
        with pytest.raises(ValueError):
            model_forward(model, g, idx, x[:, :2], np.array([0]))
        g2 = RelationalGraph.from_edge_lists(g.num_nodes, [[(0, 1)], [(1, 2)]])
        with pytest.raises(ValueError):
            model_forward(model, g2, idx, x, np.array([0]))


# The four variants of the paper's ablation: full, baseline, adaptive
# combination off, root-specific weights off.
ABLATION = [VARIANTS[4], VARIANTS[0], VARIANTS[3], VARIANTS[2]]


class TestLayerOneSums:
    @pytest.mark.parametrize("variant", ABLATION, ids=lambda v: repr(tuple(v.to_dict().values())))
    @pytest.mark.parametrize("num_relations", [1, 2])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_shared_table_scores_bitwise_equal_to_frontier_oracle(self, variant, num_relations, num_layers):
        rng = np.random.default_rng(21)
        g, idx, labels, model, x = random_instance(
            rng, num_relations=num_relations, num_layers=num_layers, variant=variant
        )
        batch = np.array([9, 2, 9, 14, 0, 2, 2, 7])
        sums = layer_one_sums(g, idx, x)
        shared = model_forward(model, g, idx, x, batch, sums=sums)
        own = model_forward(model, g, idx, x, batch)
        want = frontier_model_forward(model, g, idx, x, batch)
        np.testing.assert_array_equal(shared.data, want.data)
        np.testing.assert_array_equal(own.data, want.data)

    @pytest.mark.parametrize("variant", ABLATION, ids=lambda v: repr(tuple(v.to_dict().values())))
    @pytest.mark.parametrize("dropout_p", [0.0, 0.3])
    def test_shared_table_gradients_bitwise_equal_to_own_sums(self, variant, dropout_p):
        rng = np.random.default_rng(22)
        g, idx, labels, model, x = random_instance(rng, num_relations=2, num_layers=2, variant=variant)
        batch = np.array([9, 2, 9, 14, 0, 2, 2, 7])
        tape = nd.GradientTape(model.parameters())
        kw = dict(seed=5, epoch=1, batch_index=2, dropout_p=dropout_p)
        runs = []
        for sums in (None, layer_one_sums(g, idx, x)):
            logits = model_logits(model, g, idx, x, batch, sums=sums, **kw)
            runs.append((logits.data, tape.gradients(loss(logits, labels, batch))))
        (p_own, g_own), (p_shared, g_shared) = runs
        np.testing.assert_array_equal(p_shared, p_own)
        for name in g_own:
            np.testing.assert_array_equal(g_shared[name], g_own[name], err_msg=name)

    @pytest.mark.parametrize("variant", ABLATION, ids=lambda v: repr(tuple(v.to_dict().values())))
    def test_rows_are_each_nodes_own_bucket_sums(self, variant):
        rng = np.random.default_rng(23)
        g, idx, labels, model, x = random_instance(rng, num_relations=2, variant=variant)
        n = g.num_nodes
        for r, table in enumerate(layer_one_sums(g, idx, x)):
            for i in range(n):
                nbrs = g.neighbors(r, i)
                for b in range(3):
                    want = sum((x[j] for j in nbrs[idx.bucket[nbrs] == b]), np.zeros(x.shape[1]))
                    np.testing.assert_allclose(table.data[b * n + i], want, rtol=0, atol=1e-12)

    def test_every_ablation_variant_gets_the_same_table(self):
        tables = []
        for variant in ABLATION:
            rng = np.random.default_rng(23)
            g, idx, labels, model, x = random_instance(rng, num_relations=2, variant=variant)
            tables.append([t.data.tobytes() for t in layer_one_sums(g, idx, x)])
        assert all(t == tables[0] for t in tables[1:])

    def test_val_and_test_labels_never_reach_the_table(self):
        rng = np.random.default_rng(24)
        g, idx, labels, model, x = random_instance(rng, n=40, num_relations=2)
        splits = rng.integers(0, 3, size=g.num_nodes)
        splits[:2] = 0
        held_out = splits != 0
        flipped = labels.copy()
        flipped[held_out] = 1 - flipped[held_out]
        tables = [
            layer_one_sums(g, PartitionIndex.from_table(g, NodeTable(x, y, splits)), x)
            for y in (labels, flipped)
        ]
        for a, b in zip(*tables):
            assert a.data.tobytes() == b.data.tobytes()
        # a train label does reach it
        train_flip = labels.copy()
        train_flip[2:][splits[2:] == 0] ^= 1
        moved = layer_one_sums(g, PartitionIndex.from_table(g, NodeTable(x, train_flip, splits)), x)
        assert any(a.data.tobytes() != m.data.tobytes() for a, m in zip(tables[0], moved))

    def test_tables_of_the_wrong_shape_are_rejected(self):
        rng = np.random.default_rng(25)
        g, idx, labels, model, x = random_instance(rng, num_relations=2, num_layers=2)
        sums = layer_one_sums(g, idx, x)
        wrong_n = [nd.Tensor(t.data[:-3]) for t in sums]
        wrong_d = [nd.Tensor(t.data[:, :-1]) for t in sums]
        for bad in (sums[:1], wrong_n, wrong_d):
            with pytest.raises(ValueError, match="sums"):
                model_forward(model, g, idx, x, np.array([0]), sums=bad)


class TestDropout:
    def setup_instance(self):
        rng = np.random.default_rng(8)
        g, idx, labels, model, x = random_instance(rng, num_layers=2, hidden=8)
        return g, idx, model, x

    def test_training_masks_replay_exactly(self):
        g, idx, model, x = self.setup_instance()
        batch = np.arange(g.num_nodes)
        kw = dict(seed=3, epoch=2, batch_index=1, dropout_p=0.5)
        a = model_forward(model, g, idx, x, batch, **kw)
        b = model_forward(model, g, idx, x, batch, **kw)
        np.testing.assert_array_equal(a.data, b.data)
        plain = model_forward(model, g, idx, x, batch)
        assert not np.array_equal(a.data, plain.data)

    def test_key_components_vary_masks(self):
        g, idx, model, x = self.setup_instance()
        batch = np.arange(g.num_nodes)
        base = model_forward(model, g, idx, x, batch, seed=3, epoch=2, batch_index=1, dropout_p=0.5)
        for kw in (
            dict(seed=4, epoch=2, batch_index=1),
            dict(seed=3, epoch=3, batch_index=1),
            dict(seed=3, epoch=2, batch_index=2),
        ):
            other = model_forward(model, g, idx, x, batch, dropout_p=0.5, **kw)
            assert not np.array_equal(other.data, base.data)


class TestLoss:
    def test_half_probabilities_cost_ln2(self):
        out = loss(nd.Tensor(np.zeros(4)), np.array([0, 1, 1, 0]), np.arange(4))
        assert out.data == math.log(2.0)

    def test_perfect_confident_predictions_cost_almost_zero(self):
        out = loss(nd.Tensor(np.array([1e4, -1e4])), np.array([1, 0]), np.arange(2))
        assert 0.0 < out.data < 2e-12

    def test_matches_hand_formula(self):
        z = np.array([0.8, -1.4, 2.2])
        y = np.array([1, 0, 0])
        out = loss(nd.Tensor(z), y, np.arange(3))
        want = (math.log1p(math.exp(-0.8)) + math.log1p(math.exp(-1.4)) + math.log1p(math.exp(2.2))) / 3.0
        assert abs(out.data - want) < 1e-15

    def test_pos_weight_reweights_fraud_terms(self):
        z = np.array([0.8, -1.4])
        y = np.array([1, 0])
        out = loss(nd.Tensor(z), y, np.arange(2), pos_weight=3.0)
        want = (3.0 * math.log1p(math.exp(-0.8)) + math.log1p(math.exp(-1.4))) / 4.0
        assert abs(out.data - want) < 1e-15

    def test_labels_indexed_by_batch(self):
        labels = np.array([0, 1, 0])
        out = loss(nd.Tensor(np.array([2.2])), labels, np.array([1]))
        assert abs(out.data - math.log1p(math.exp(-2.2))) < 1e-15

    def test_gradient_flows_to_logits(self):
        raw = nd.Tensor(np.array([0.1, -0.4, 0.3]), requires_grad=True)
        out = loss(raw, np.array([1, 0, 1]), np.arange(3))
        nd.backward(out)
        # d/dz mean(bce(sigmoid(z), y)) = (sigmoid(z) - y) / n
        want = (1.0 / (1.0 + np.exp(-raw.data)) - np.array([1.0, 0.0, 1.0])) / 3.0
        np.testing.assert_allclose(raw.grad, want, rtol=0, atol=1e-12)


    @pytest.mark.parametrize("pos_weight", [None, 3.0])
    @pytest.mark.parametrize("seed", range(10))
    def test_one_op_bitwise_equal_to_the_composed_chain(self, pos_weight, seed):
        # n = 11 and weights of 3 make n / sum(w) and g / n inexact, so on
        # some of the seeds a reordering of the arithmetic, such as
        # sum(w * l) / sum(w) for the value, shows in the low bits
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=20)
        batch = rng.integers(0, 20, size=11)
        logits = 4.0 * rng.normal(size=11)
        runs = []
        for fn in (loss, composed_loss):
            z = nd.Tensor(logits.copy(), requires_grad=True)
            trace = []
            out = fn(z, labels, batch, pos_weight=pos_weight)
            nd.backward(out, trace=trace)
            runs.append((out, z.grad, trace))
        (got, g_got, trace), (want, g_want, _) = runs
        assert got.shape == want.shape == ()
        assert got.data.tobytes() == want.data.tobytes()
        assert g_got.tobytes() == g_want.tobytes()
        assert np.abs(g_got).min() > 0
        assert trace == ["binary_cross_entropy"]


class TestGradientCheck:
    def test_full_model_finite_differences(self):
        rng = np.random.default_rng(9)
        g, idx, labels, model, x = random_instance(rng, n=12, num_layers=2, hidden=3)
        batch = np.arange(g.num_nodes)

        def fn():
            return loss(model_logits(model, g, idx, x, batch), labels, batch)

        report = grad_check(fn, model.parameters(), tolerance=1e-6)
        assert report.passed, str(report)


class TestOneOpPerLayer:
    """Every layer call and the readout record one op each, and the model's
    logits, scores and gradients are bitwise those of the model composed of
    small ops."""

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: repr(tuple(v.to_dict().values())))
    @pytest.mark.parametrize("num_relations", [1, 2])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.3])
    def test_bitwise_equal_to_the_composed_layer(self, monkeypatch, variant, num_relations, num_layers, dropout_p):
        rng = np.random.default_rng(40)
        g, idx, labels, model, x = random_instance(
            rng, num_relations=num_relations, num_layers=num_layers, variant=variant
        )
        batch = np.array([9, 2, 9, 14, 0, 2, 2, 7])
        kw = dict(seed=5, epoch=1, batch_index=2, dropout_p=dropout_p)

        def run():
            # the shared table as training reads it, a gradient-enabled
            # feature table as the influence analysis reads it, and a shared
            # table built from such features, whose rows layer 1 gathers
            out = []
            grad_feats = nd.Tensor(x, requires_grad=True), nd.Tensor(x, requires_grad=True)
            cases = ((layer_one_sums(g, idx, x), x), (None, grad_feats[0]),
                     (layer_one_sums(g, idx, grad_feats[1]), grad_feats[1]))
            for sums, feats in cases:
                tape = nd.GradientTape(model.parameters())
                logits = model_logits(model, g, idx, feats, batch, sums=sums, **kw)
                probs = model_forward(model, g, idx, feats, batch, sums=sums, **kw)
                trace = []
                grads = tape.gradients(loss(logits, labels, batch), trace=trace)
                if isinstance(feats, nd.Tensor):
                    grads["features"] = feats.grad
                out.append((logits.data, probs.data, grads, trace))
            return out

        fused = run()
        monkeypatch.setattr(model_module, "readout", composed_readout)
        composed_head = run()
        monkeypatch.setattr(model_module, "layer_forward", composed_layer_forward)
        composed = run()
        for other in (composed_head, composed):
            for (z_got, p_got, g_got, trace), (z_want, p_want, g_want, _) in zip(fused, other):
                assert z_got.tobytes() == z_want.tobytes()
                assert p_got.tobytes() == p_want.tobytes()
                assert g_got.keys() == g_want.keys()
                for name in g_want:
                    assert g_got[name].tobytes() == g_want[name].tobytes(), name
                assert trace.count("layer") == num_relations * num_layers
                assert trace.count("readout") == 1
        assert all("readout" not in trace and "layer" not in trace for *_, trace in composed)
        assert np.abs(fused[1][2]["features"]).max() > 0
        assert np.abs(fused[2][2]["features"]).max() > 0
        assert fused[2][3].count("gather_rows") >= num_relations  # the shared table's adjoint ran

    @pytest.mark.parametrize("recording", [True, False])
    def test_non_finite_readout_weight_raises(self, recording):
        rng = np.random.default_rng(42)
        g, idx, labels, model, x = random_instance(rng, num_relations=2)
        model.readout_W.data[0, 0] = np.nan
        with contextlib.ExitStack() as scope:
            if not recording:
                scope.enter_context(nd.no_grad())
            with pytest.raises(nd.NonFiniteError, match="readout"):
                model_forward(model, g, idx, x, np.arange(g.num_nodes))

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: repr(tuple(v.to_dict().values())))
    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.3])
    def test_finite_differences(self, variant, num_layers, dropout_p):
        rng = np.random.default_rng(41)
        g, idx, labels, model, x = random_instance(rng, n=12, num_layers=num_layers, variant=variant, hidden=3)
        # At unit feature scale the 2-layer root-specific heads sit at the
        # cross-entropy's clamp, where its value is flat and its adjoint is
        # not; half the scale keeps every probability clear of it.
        x = 0.5 * x
        batch = np.arange(g.num_nodes)
        kw = dict(seed=7, epoch=0, batch_index=0, dropout_p=dropout_p)

        def fn():
            return loss(model_logits(model, g, idx, x, batch, **kw), labels, batch)

        probs = model_forward(model, g, idx, x, batch, **kw).data
        assert np.all((probs > 1e-4) & (probs < 1.0 - 1e-4))
        report = grad_check(fn, model.parameters(), tolerance=1e-6)
        assert report.passed, str(report)


class TestStateAndCheckpoint:
    def test_state_roundtrip(self):
        rng = np.random.default_rng(10)
        _, _, _, model, _ = random_instance(rng)
        state = model.state()
        other = PmpModel(model.config, seed=99)
        other.load_state(state)
        for k, v in other.state().items():
            np.testing.assert_array_equal(v, state[k])

    def test_state_is_a_copy(self):
        rng = np.random.default_rng(11)
        _, _, _, model, _ = random_instance(rng)
        state = model.state()
        state["head.w"][:] = 123.0
        assert not np.array_equal(model.head_w.data, state["head.w"])

    def test_load_state_validates_shapes(self):
        rng = np.random.default_rng(12)
        _, _, _, model, _ = random_instance(rng)
        state = model.state()
        state["head.w"] = np.zeros((7, 7))
        with pytest.raises(ValueError, match="head.w"):
            model.load_state(state)

    def test_model_json_with_dropout_p_still_loads(self, tmp_path):
        # model.json files written before the dropout rate moved to
        # TrainConfig carry a "dropout_p" key; loading ignores it
        rng = np.random.default_rng(14)
        g, idx, labels, model, x = random_instance(rng)
        model.save(str(tmp_path))
        sidecar = tmp_path / "model.json"
        assert "dropout_p" not in json.loads(sidecar.read_text())
        old = dict(json.loads(sidecar.read_text()), dropout_p=0.3)
        sidecar.write_text(json.dumps(old, indent=2))
        loaded = PmpModel.load(str(tmp_path))
        assert loaded.config == model.config
        assert not hasattr(loaded, "dropout_p")
        batch = np.arange(g.num_nodes)
        a = model_forward(model, g, idx, x, batch)
        b = model_forward(loaded, g, idx, x, batch)
        np.testing.assert_array_equal(a.data, b.data)

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        g, idx, labels, model, x = random_instance(rng, num_layers=2)
        model.save(str(tmp_path))
        loaded = PmpModel.load(str(tmp_path))
        assert loaded.config == model.config
        batch = np.arange(g.num_nodes)
        a = model_forward(model, g, idx, x, batch)
        b = model_forward(loaded, g, idx, x, batch)
        np.testing.assert_array_equal(a.data, b.data)


class TestConfig:
    def test_dict_roundtrip(self):
        cfg = ModelConfig(5, 8, num_layers=2, num_relations=3, variant=LayerVariant(True, False, True))
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(0, 4)
        with pytest.raises(ValueError):
            ModelConfig(4, 4, num_layers=0)

    @pytest.mark.parametrize("name", ["feature_dim", "hidden_dim", "num_layers", "num_relations"])
    @pytest.mark.parametrize("value", [8.5, True, "8", None])
    def test_sizes_must_be_integers(self, name, value):
        # from_dict passes JSON values through, so the sizes are checked, not coerced
        d = dict(ModelConfig(4, 8).to_dict(), **{name: value})
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got {re.escape(repr(value))}$"):
            ModelConfig.from_dict(d)
