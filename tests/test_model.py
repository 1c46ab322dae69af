"""Stacked model against a per-node naive reference and exact identities."""
import hashlib
import itertools
import json
import math
import re

import numpy as np
import pytest

from pmpfraud import model as model_module
from pmpfraud import ndiff as nd
from pmpfraud.graph import NodeTable, PartitionIndex, RelationalGraph
from pmpfraud.layer import LayerVariant, layer_forward
from pmpfraud.model import ModelConfig, PmpModel, layer_one_sums, loss, model_forward, model_logits
from pmpfraud.training import TrainConfig, train

from .reference import (
    GradientTape as EngineTape, TapedModel, Tensor, backward, composed_loss, composed_model_logits,
    frontier_model_forward, grad_check, naive_model_forward, sigmoid, tape_gradients,
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
        if not p.any():
            p[...] = 0.3 * rng.normal(size=p.shape)
    x = rng.normal(size=(n, d))
    return g, idx, labels, model, x


class TestForward:
    def test_zero_parameters_give_exactly_half(self):
        rng = np.random.default_rng(0)
        g, idx, labels, model, x = random_instance(rng)
        model.flat[...] = 0.0
        probs = model_forward(model, g, idx, x, np.arange(g.num_nodes))
        np.testing.assert_array_equal(probs, np.full(g.num_nodes, 0.5))

    def test_output_shape_and_open_interval(self):
        rng = np.random.default_rng(1)
        g, idx, labels, model, x = random_instance(rng, num_layers=2)
        batch = np.array([3, 1, 7])
        probs = model_forward(model, g, idx, x, batch)
        assert probs.shape == (3,)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

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
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

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
        np.testing.assert_array_equal(got, want)

    def test_frontier_restriction_matches_whole_graph(self):
        # scores of a small batch equal the same rows of a full-graph pass
        rng = np.random.default_rng(3)
        g, idx, labels, model, x = random_instance(rng, num_layers=2)
        full = model_forward(model, g, idx, x, np.arange(g.num_nodes))
        batch = np.array([5, 0, 11])
        part = model_forward(model, g, idx, x, batch)
        np.testing.assert_allclose(part, full[batch], rtol=0, atol=1e-12)

    def test_batch_permutation_permutes_scores(self):
        rng = np.random.default_rng(4)
        g, idx, labels, model, x = random_instance(rng, num_layers=2)
        batch = np.arange(g.num_nodes)
        perm = rng.permutation(g.num_nodes)
        a = model_forward(model, g, idx, x, batch)
        b = model_forward(model, g, idx, x, batch[perm])
        np.testing.assert_array_equal(b, a[perm])

    def test_unsorted_batch_with_repeats_matches_unique_batch(self):
        # repeated and unsorted ids all map through the same frontier rows
        rng = np.random.default_rng(12)
        g, idx, labels, model, x = random_instance(rng, num_relations=2, num_layers=2)
        batch = np.array([9, 2, 9, 14, 0, 2, 2, 7])
        unique = np.unique(batch)
        a = model_forward(model, g, idx, x, unique)
        b = model_forward(model, g, idx, x, batch)
        np.testing.assert_array_equal(b, a[np.searchsorted(unique, batch)])

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
        np.testing.assert_array_equal(a, b)

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
        params2 = model2.parameters()
        for k, p in model1.parameters().items():
            if k.startswith("rel0."):
                params2[k][...] = p
                params2["rel1." + k[len("rel0.") :]][...] = p
            elif k == "readout.W":
                params2[k][...] = np.concatenate([p, p]) / 2.0
            else:
                params2[k][...] = p
        batch = np.arange(g1.num_nodes)
        a = model_forward(model1, g1, idx1, x, batch)
        b = model_forward(model2, g2, idx2, x, batch)
        np.testing.assert_allclose(b, a, rtol=0, atol=1e-12)

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
        np.testing.assert_array_equal(shared, want)
        np.testing.assert_array_equal(own, want)

    @pytest.mark.parametrize("variant", ABLATION, ids=lambda v: repr(tuple(v.to_dict().values())))
    @pytest.mark.parametrize("dropout_p", [0.0, 0.3])
    def test_shared_table_gradients_bitwise_equal_to_own_sums(self, variant, dropout_p):
        rng = np.random.default_rng(22)
        g, idx, labels, model, x = random_instance(rng, num_relations=2, num_layers=2, variant=variant)
        batch = np.array([9, 2, 9, 14, 0, 2, 2, 7])
        kw = dict(seed=5, epoch=1, batch_index=2, dropout_p=dropout_p)
        runs = []
        for sums in (None, layer_one_sums(g, idx, x)):
            logits = []

            def batch_loss(tape):
                logits.append(model_logits(model, g, idx, x, batch, sums=sums, tape=tape, **kw))
                return loss(logits[-1], labels, batch, tape=tape)

            runs.append((tape_gradients(model, batch_loss), logits[-1]))
        (g_own, p_own), (g_shared, p_shared) = runs
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
                    np.testing.assert_allclose(table[b * n + i], want, rtol=0, atol=1e-12)

    def test_every_ablation_variant_gets_the_same_table(self):
        tables = []
        for variant in ABLATION:
            rng = np.random.default_rng(23)
            g, idx, labels, model, _ = random_instance(rng, num_relations=2, variant=variant)
            # random_instance draws its features after the variant's weights
            x = np.random.default_rng(24).normal(size=(g.num_nodes, 3))
            tables.append([t.tobytes() for t in layer_one_sums(g, idx, x)])
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
            assert a.tobytes() == b.tobytes()
        # a train label does reach it
        train_flip = labels.copy()
        train_flip[2:][splits[2:] == 0] ^= 1
        moved = layer_one_sums(g, PartitionIndex.from_table(g, NodeTable(x, train_flip, splits)), x)
        assert any(a.tobytes() != m.tobytes() for a, m in zip(tables[0], moved))

    def test_tables_of_the_wrong_shape_are_rejected(self):
        rng = np.random.default_rng(25)
        g, idx, labels, model, x = random_instance(rng, num_relations=2, num_layers=2)
        sums = layer_one_sums(g, idx, x)
        wrong_n = [t[:-3] for t in sums]
        wrong_d = [t[:, :-1] for t in sums]
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
        np.testing.assert_array_equal(a, b)
        plain = model_forward(model, g, idx, x, batch)
        assert not np.array_equal(a, plain)

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
            assert not np.array_equal(other, base)


class TestLoss:
    def test_half_probabilities_cost_ln2(self):
        out = loss(np.zeros(4), np.array([0, 1, 1, 0]), np.arange(4))
        assert out == math.log(2.0)

    def test_perfect_confident_predictions_cost_almost_zero(self):
        out = loss(np.array([1e4, -1e4]), np.array([1, 0]), np.arange(2))
        assert 0.0 < out < 2e-12

    def test_matches_hand_formula(self):
        z = np.array([0.8, -1.4, 2.2])
        y = np.array([1, 0, 0])
        out = loss(z, y, np.arange(3))
        want = (math.log1p(math.exp(-0.8)) + math.log1p(math.exp(-1.4)) + math.log1p(math.exp(2.2))) / 3.0
        assert abs(out - want) < 1e-15

    def test_pos_weight_reweights_fraud_terms(self):
        z = np.array([0.8, -1.4])
        y = np.array([1, 0])
        out = loss(z, y, np.arange(2), pos_weight=3.0)
        want = (3.0 * math.log1p(math.exp(-0.8)) + math.log1p(math.exp(-1.4))) / 4.0
        assert abs(out - want) < 1e-15

    def test_labels_indexed_by_batch(self):
        labels = np.array([0, 1, 0])
        out = loss(np.array([2.2]), labels, np.array([1]))
        assert abs(out - math.log1p(math.exp(-2.2))) < 1e-15

    def test_gradient_flows_to_logits(self):
        raw = np.array([0.1, -0.4, 0.3])
        tape = nd.GradientTape({})
        loss(raw, np.array([1, 0, 1]), np.arange(3), tape=tape)
        [(op, adjoint)] = tape.head
        # d/dz mean(bce(sigmoid(z), y)) = (sigmoid(z) - y) / n
        want = (1.0 / (1.0 + np.exp(-raw)) - np.array([1.0, 0.0, 1.0])) / 3.0
        assert op == "binary_cross_entropy"
        np.testing.assert_allclose(adjoint(np.ones(())), want, rtol=0, atol=1e-12)

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
        tape = nd.GradientTape({})
        got = loss(logits.copy(), labels, batch, pos_weight=pos_weight, tape=tape)
        [(op, adjoint)] = tape.head
        g_got = adjoint(np.ones(()))
        z = Tensor(logits.copy(), requires_grad=True)
        want = composed_loss(z, labels, batch, pos_weight=pos_weight)
        backward(want)
        assert got.shape == want.shape == ()
        assert got.tobytes() == want.data.tobytes()
        assert g_got.tobytes() == z.grad.tobytes()
        assert np.abs(g_got).min() > 0
        assert op == "binary_cross_entropy"


class TestGradientCheck:
    def test_full_model_finite_differences(self):
        rng = np.random.default_rng(9)
        g, idx, labels, model, x = random_instance(rng, n=12, num_layers=2, hidden=3)
        batch = np.arange(g.num_nodes)

        def fn(tape=None):
            return loss(model_logits(model, g, idx, x, batch, tape=tape), labels, batch, tape=tape)

        report = grad_check(fn, model.parameters(), tolerance=1e-6, analytic=tape_gradients(model, fn))
        assert report.passed, str(report)

    def test_feature_finite_differences_through_a_wide_second_layer(self):
        # At a hidden width of 32 layer 2 sums its table a whole row at a
        # time (``layer.bucket_sums``) while its adjoint still adds one
        # column at a time; the features' gradient crosses both.
        rng = np.random.default_rng(9)
        g, idx, labels, model, x = random_instance(rng, n=12, num_layers=2, hidden=32)
        x = 0.5 * x
        batch = np.arange(g.num_nodes)

        def fn(tape=None):
            return loss(model_logits(model, g, idx, x, batch, tape=tape), labels, batch, tape=tape)

        analytic = {"features": tape_gradients(model, fn, wrt_features=True)["features"]}
        assert np.abs(analytic["features"]).max() > 0
        report = grad_check(fn, {"features": x}, tolerance=1e-6, analytic=analytic)
        assert report.passed, str(report)


class TestOneOpPerLayer:
    """A training batch or a scored center keeps one adjoint record per
    layer, dropout, readout and loss (or logistic) call, and the model's
    logits, scores and gradients are bitwise those of the model composed of
    the engine's small ops."""

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: repr(tuple(v.to_dict().values())))
    @pytest.mark.parametrize("num_relations", [1, 2, 3])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.3])
    @pytest.mark.parametrize("d, hidden", [(3, 4), (3, 32), (32, 4)], ids=["narrow", "wide-hidden", "wide-features"])
    def test_bitwise_equal_to_the_composed_layer(self, variant, num_relations, num_layers, dropout_p, d, hidden):
        # Where a value is read several times (a layer's input by its
        # centers' rows, its table and its gate's rows; the features by
        # every relation) the walk must add the terms in the engine's order,
        # which is not the records' reverse order. n = 16 nodes and a batch
        # repeating ids make some sums of 3 or more terms round differently
        # in another order. Rows of 32 or more columns take the other
        # segment-sum kernel (``layer.bucket_sums``): at a hidden width of 32
        # every layer past the first does, at 32 features layer 1 does.
        rng = np.random.default_rng(40)
        g, idx, labels, model, x = random_instance(
            rng, num_relations=num_relations, num_layers=num_layers, variant=variant, d=d, hidden=hidden
        )
        batch = np.array([9, 2, 9, 14, 0, 2, 2, 7])
        kw = dict(seed=5, epoch=1, batch_index=2, dropout_p=dropout_p)
        # the shared table as training reads it, and the features read
        # directly with their gradient, for a batch's loss and, as the
        # influence analysis reads it, one center's probability (two
        # centers, as the readout's ReLU may shut either one off)
        cases = [(batch, layer_one_sums(g, idx, x), False, True), (batch, None, True, True),
                 (np.array([1]), None, True, False), (np.array([12]), None, True, False)]
        reached = []
        for ids, sums, wrt_features, through_loss in cases:
            tape = nd.GradientTape(model.parameters(), wrt_features=wrt_features)
            logits = model_logits(model, g, idx, x, ids, sums=sums, **kw)
            probs = model_forward(model, g, idx, x, ids, sums=sums, tape=None if through_loss else tape, **kw)
            trace = []
            if through_loss:
                output = loss(model_logits(model, g, idx, x, ids, sums=sums, tape=tape, **kw), labels, ids, tape=tape)
            else:
                output = probs
            grads = tape.gradients(output, trace=trace)

            taped = TapedModel(model)
            feats = Tensor(x, requires_grad=True) if wrt_features else x
            z = composed_model_logits(taped, g, idx, feats, ids, sums=sums, **kw)
            want = EngineTape(taped.params).gradients(composed_loss(z, labels, ids) if through_loss else sigmoid(z))
            assert logits.tobytes() == z.data.tobytes()
            assert probs.tobytes() == sigmoid(z).data.tobytes()
            assert grads.keys() == want.keys()
            for name in want:
                assert grads[name].tobytes() == want[name].tobytes(), name
            if wrt_features:
                assert tape.features_grad.tobytes() == feats.grad.tobytes()
                reached.append(np.abs(feats.grad).max() > 0)
            else:
                assert tape.features_grad is None
            head = ["binary_cross_entropy" if through_loss else "sigmoid", "readout"]
            stack = [op for _ in range(num_layers) for op in ["dropout", "layer"][dropout_p == 0.0:]]
            assert trace == head + stack * num_relations
        assert reached[0] and any(reached[1:])

    def test_a_feature_gradient_is_refused_through_a_shared_table(self):
        rng = np.random.default_rng(44)
        g, idx, labels, model, x = random_instance(rng)
        tape = nd.GradientTape(model.parameters(), wrt_features=True)
        with pytest.raises(ValueError, match="features' gradient"):
            model_logits(model, g, idx, x, np.array([1]), sums=layer_one_sums(g, idx, x), tape=tape)

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: repr(tuple(v.to_dict().values())))
    @pytest.mark.parametrize("recording", [True, False])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.3])
    def test_gate_rows_are_gathered_only_for_a_gate_and_once_per_array(self, monkeypatch, variant, recording,
                                                                       dropout_p):
        # A 3-layer training batch over the shared table: layer 1 gathers its
        # table rows and centers' rows, each deeper layer its centers' rows,
        # and the gate's rows only when it has a gate and reads another
        # array than the centers do: the pre-dropout output.
        rng = np.random.default_rng(43)
        g, idx, labels, model, x = random_instance(rng, num_relations=2, num_layers=3, variant=variant)
        gathered, gates = [], []
        gather_rows = nd.gather_rows

        def counting(x, indices):
            gathered.append(x)
            return gather_rows(x, indices)

        def layer(params, sums, h_centers, h_gate, **kwargs):
            gates.append(None if h_gate is None else h_gate is h_centers)
            return layer_forward(params, sums, h_centers, h_gate, **kwargs)

        monkeypatch.setattr(nd, "gather_rows", counting)
        monkeypatch.setattr(model_module, "layer_forward", layer)
        tape = nd.GradientTape(model.parameters()) if recording else None
        model_logits(model, g, idx, x, np.array([9, 2, 9, 14]), seed=1, dropout_p=dropout_p,
                     sums=layer_one_sums(g, idx, x), tape=tape)
        adaptive = variant.adaptive_combination_enabled
        assert len(gathered) == 2 * (2 + 2 * (1 + (adaptive and dropout_p > 0)))
        assert gates == 2 * [None if not adaptive else l == 1 or dropout_p == 0.0 for l in (1, 2, 3)]

    @pytest.mark.parametrize("recording", [True, False])
    def test_non_finite_readout_weight_raises(self, recording):
        rng = np.random.default_rng(42)
        g, idx, labels, model, x = random_instance(rng, num_relations=2)
        model.readout_W[0, 0] = np.nan
        tape = nd.GradientTape(model.parameters()) if recording else None
        with pytest.raises(nd.NonFiniteError, match="readout"):
            model_forward(model, g, idx, x, np.arange(g.num_nodes), tape=tape)

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

        def fn(tape=None):
            return loss(model_logits(model, g, idx, x, batch, tape=tape, **kw), labels, batch, tape=tape)

        probs = model_forward(model, g, idx, x, batch, **kw)
        assert np.all((probs > 1e-4) & (probs < 1.0 - 1e-4))
        report = grad_check(fn, model.parameters(), tolerance=1e-6, analytic=tape_gradients(model, fn))
        assert report.passed, str(report)


def assert_views_of_flat(model):
    """Every parameter's data is a view of ``model.flat``, in ``parameters()`` order, back to back."""
    start = model.flat.__array_interface__["data"][0]
    pos = 0
    for name, p in model.parameters().items():
        assert p.base is model.flat, name
        assert p.__array_interface__["data"][0] == start + 8 * pos, name
        pos += p.size
    assert pos == model.flat.size and model.flat.dtype == np.float64


class TestVariantWeights:
    @pytest.mark.parametrize("sizes, variant, size", [
        (dict(feature_dim=32, hidden_dim=64, num_layers=2), LayerVariant.full(), 35171),
        (dict(feature_dim=8, hidden_dim=16, num_relations=3), LayerVariant.full(), 2796),
        (dict(feature_dim=32, hidden_dim=64, num_layers=2), LayerVariant.baseline(), 16641),
    ], ids=["deep-ba", "wide-multirel", "deep-ba-baseline"])
    def test_flat_holds_only_the_blocks_the_variant_reads(self, sizes, variant, size):
        model = PmpModel(ModelConfig(variant=variant, **sizes))
        assert model.flat.size == size
        layer_blocks = [name for name in model.parameters() if name.startswith("rel")]
        assert layer_blocks == [f"rel{r}.layer{l}.{block}" for r in range(model.config.num_relations)
                                for l in range(model.config.num_layers) for block in variant.weights]

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("num_relations", [1, 2])
    def test_variants_built_from_one_seed_share_their_initial_blocks(self, num_layers, num_relations):
        states = [PmpModel(ModelConfig(feature_dim=3, hidden_dim=4, num_layers=num_layers,
                                       num_relations=num_relations, variant=variant), seed=5).state()
                  for variant in VARIANTS]
        for a, b in itertools.combinations(states, 2):
            shared = a.keys() & b.keys()
            assert {"rel0.layer0.M_fr", "readout.W", "head.w"} <= shared
            for name in shared:
                assert a[name].tobytes() == b[name].tobytes(), name


class TestStateAndCheckpoint:
    def test_parameters_stay_views_of_flat(self, tmp_path):
        rng = np.random.default_rng(15)
        g, _, labels, model, x = random_instance(rng, num_relations=2, num_layers=2)
        assert_views_of_flat(model)
        table = NodeTable(x, labels, np.where(np.arange(g.num_nodes) % 4 == 3, 1, 0))
        trained, _ = train(model, g, table, TrainConfig(batch_size=4, max_epochs=3, patience=3, weight_decay=0.01))
        assert trained is model
        assert_views_of_flat(model)
        model.save(str(tmp_path))
        loaded = PmpModel.load(str(tmp_path))
        assert_views_of_flat(loaded)
        assert loaded.flat.tobytes() == model.flat.tobytes()

    def test_state_roundtrip(self):
        rng = np.random.default_rng(10)
        _, _, _, model, _ = random_instance(rng)
        state = model.state()
        other = PmpModel(model.config, seed=99)
        other.flat[...] = model.flat
        assert list(other.state()) == list(state)
        for k, v in other.state().items():
            np.testing.assert_array_equal(v, state[k])

    def test_state_is_a_copy(self):
        rng = np.random.default_rng(11)
        _, _, _, model, _ = random_instance(rng)
        state = model.state()
        state["head.w"][:] = 123.0
        assert not np.array_equal(model.head_w, state["head.w"])

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
        np.testing.assert_array_equal(a, b)

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        g, idx, labels, model, x = random_instance(rng, num_layers=2)
        model.save(str(tmp_path))
        loaded = PmpModel.load(str(tmp_path))
        assert loaded.config == model.config
        batch = np.arange(g.num_nodes)
        a = model_forward(model, g, idx, x, batch)
        b = model_forward(loaded, g, idx, x, batch)
        np.testing.assert_array_equal(a, b)


class TestCheckpoint:
    def saved(self, tmp_path, **kw):
        rng = np.random.default_rng(33)
        _, _, _, model, _ = random_instance(rng, **kw)
        for p in model.parameters().values():
            p[...] = rng.normal(size=p.shape)
        model.save(str(tmp_path))
        return model

    def test_roundtrip_is_bit_exact(self, tmp_path):
        model = self.saved(tmp_path, num_relations=2, num_layers=2)
        loaded = PmpModel.load(str(tmp_path))
        assert loaded.config == model.config
        want = model.state()
        got = loaded.state()
        assert list(got) == list(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_blob_is_little_endian_f64_in_parameters_order(self, tmp_path):
        model = self.saved(tmp_path)
        blob = np.fromfile(tmp_path / "params.bin", dtype="<f8")
        np.testing.assert_array_equal(blob, np.concatenate([v.ravel() for v in model.state().values()]))

    def test_model_json_is_the_config_and_the_blobs_digest(self, tmp_path):
        model = self.saved(tmp_path)
        digest = hashlib.sha256((tmp_path / "params.bin").read_bytes()).hexdigest()
        assert json.loads((tmp_path / "model.json").read_text()) == {**model.config.to_dict(), "sha256": digest}

    def test_directory_holds_the_two_files_and_no_temp_file(self, tmp_path):
        model = self.saved(tmp_path)
        model.save(str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "params.bin"]

    def test_model_json_without_a_digest_is_refused_naming_it(self, tmp_path):
        self.saved(tmp_path)
        sidecar = tmp_path / "model.json"
        config = json.loads(sidecar.read_text())
        del config["sha256"]
        sidecar.write_text(json.dumps(config))
        with pytest.raises(ValueError, match=f"^{re.escape(str(sidecar))}: no sha256 of params.bin"):
            PmpModel.load(str(tmp_path))

    @pytest.mark.parametrize("change", [{"hidden_dim": 5}, {"num_layers": 2}], ids=["hidden_dim", "num_layers"])
    def test_model_json_of_another_parameter_count_is_refused_naming_it(self, tmp_path, change):
        self.saved(tmp_path)
        sidecar = tmp_path / "model.json"
        config = dict(json.loads(sidecar.read_text()), **change)
        sidecar.write_text(json.dumps(config))
        size = 8 * sum(p.size for p in PmpModel(ModelConfig.from_dict(config)).parameters().values())
        blob = tmp_path / "params.bin"
        with pytest.raises(ValueError) as err:
            PmpModel.load(str(tmp_path))
        assert str(err.value) == f"{blob}: has {blob.stat().st_size} bytes, {sidecar} expects {size}"


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
