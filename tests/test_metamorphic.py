"""Metamorphic checks: transformations of the input whose effect on the
scores is known without an oracle.

Each case trains a small model first, so the weights are the kind training
leaves behind rather than an initialization, then scores every node with
``forward_scores`` before and after transforming the graph, features,
labels, splits or relation order. The diagnostics that describe the
model's buckets (``ratio-hist`` and ``spectral``) get the val/test check
too.
"""
import itertools

import numpy as np
import pytest

from pmpfraud import model as model_module
from pmpfraud.analysis import spatial_spectral_check
from pmpfraud.graph import NodeTable, PartitionIndex, RelationalGraph, neighborhood_label_ratio
from pmpfraud.model import ModelConfig, PmpModel, layer_one_sums
from pmpfraud.training import TrainConfig, forward_scores, train

N, D = 60, 4
SHAPES = [(layers, relations) for layers in (1, 2) for relations in (1, 2)]
MULTIREL_SHAPES = [(layers, relations) for layers in (1, 2) for relations in (2, 3)]


def instance(edge_lists, features, labels, splits):
    g = RelationalGraph.from_edge_lists(len(labels), edge_lists)
    return g, NodeTable(features, labels, splits)


def permuted(values, perm):
    """``values`` with row i moved to row perm[i]."""
    out = np.empty_like(values)
    out[perm] = values
    return out


def scores(model, g, table):
    partition = PartitionIndex.from_table(g, table)
    return forward_scores(model, g, partition, table.features, np.arange(g.num_nodes))


def random_data(seed, relations):
    """(edge_lists, features, labels, splits) of a random N-node instance."""
    rng = np.random.default_rng(seed)
    edge_lists = [rng.integers(0, N, size=(3 * N, 2)) for _ in range(relations)]
    labels = (rng.random(N) < 0.3).astype(np.int64)
    splits = rng.choice([0, 1, 2], size=N, p=[0.5, 0.25, 0.25])
    labels[:2], splits[:2] = [0, 1], 0
    features = rng.normal(size=(N, D)) + 2.0 * labels[:, None]
    return edge_lists, features, labels, splits


def train_instance(layers, relations):
    """(model, edge_lists, features, labels, splits) after three epochs."""
    edge_lists, features, labels, splits = random_data(10 * layers + relations, relations)
    g, table = instance(edge_lists, features, labels, splits)
    model = PmpModel(ModelConfig(feature_dim=D, hidden_dim=8, num_layers=layers, num_relations=relations), seed=1)
    model, _ = train(model, g, table, TrainConfig(batch_size=16, max_epochs=3, patience=3, dropout_p=0.2, seed=2))
    return model, edge_lists, features, labels, splits


def swap_val_and_test(splits):
    return np.where(splits == 1, 2, np.where(splits == 2, 1, splits))


@pytest.fixture(scope="module", params=SHAPES, ids=[f"{l}layer-{r}rel" for l, r in SHAPES])
def trained(request):
    return train_instance(*request.param)


@pytest.fixture(scope="module", params=MULTIREL_SHAPES, ids=[f"{l}layer-{r}rel" for l, r in MULTIREL_SHAPES])
def trained_multirel(request):
    return train_instance(*request.param)


def test_appending_isolated_nodes_keeps_every_score(trained):
    # A node with no edges is nobody's neighbor, whatever its label, split
    # or features, so the nodes already there keep their scores bitwise.
    model, edge_lists, features, labels, splits = trained
    before = scores(model, *instance(edge_lists, features, labels, splits))
    rng = np.random.default_rng(3)
    k = 7
    after = scores(model, *instance(
        edge_lists,
        np.vstack([features, 5.0 * rng.normal(size=(k, D))]),
        np.concatenate([labels, rng.integers(0, 2, size=k)]),
        np.concatenate([splits, [0, 0, 1, 2, 0, 1, 2]]),
    ))
    assert after.shape == (N + k,)
    assert np.array_equal(after[:N], before)


def test_swapping_val_and_test_changes_no_score(trained):
    # Only train labels reach the partition: val and test nodes are both
    # unlabeled neighbors, so trading every val node for a test node and
    # back changes no whole-graph score, bitwise.
    model, edge_lists, features, labels, splits = trained
    swapped = swap_val_and_test(splits)
    assert (swapped != splits).sum() >= 10
    before = scores(model, *instance(edge_lists, features, labels, splits))
    assert np.array_equal(scores(model, *instance(edge_lists, features, labels, swapped)), before)


@pytest.mark.parametrize("relations", [1, 2])
def test_swapping_val_and_test_changes_no_diagnostic(relations):
    # ratio-hist and spectral describe the model's buckets, so, like the
    # scores, they may read train labels only: trading every val node for a
    # test node and back leaves every histogram row and every spectral
    # report bitwise as it was.
    edge_lists, features, labels, splits = random_data(100 + relations, relations)
    swapped = swap_val_and_test(splits)
    assert (swapped != splits).sum() >= 10
    rng = np.random.default_rng(5)
    X, W_fr, W_be = rng.normal(size=(N, 3)), rng.normal(size=(3, 2)), rng.normal(size=(3, 2))

    def diagnostics(splits):
        g, table = instance(edge_lists, features, labels, splits)
        partition = PartitionIndex.from_table(g, table)
        hists = [neighborhood_label_ratio(g, partition, r).rows() for r in (*range(relations), "union")]
        reports = [spatial_spectral_check(g, partition, X, W_fr, W_be, alpha, relation=r)
                   for r in range(relations) for alpha in (0.3, 0.5)]
        return hists, reports

    hists, reports = diagnostics(splits)
    swapped_hists, swapped_reports = diagnostics(swapped)
    assert all(sum(count for _, _, count in rows) > 0 for rows in hists)
    assert swapped_hists == hists
    for a, b in zip(reports, swapped_reports):
        assert np.array_equal(a.filter_responses, b.filter_responses)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert (a.spatial_identity_error, a.reconstruction_error) == (b.spatial_identity_error,
                                                                      b.reconstruction_error)


def test_doubling_features_doubles_layer_one_sums(trained):
    # Each table row is a sum of feature rows; scaling by a power of two is
    # exact in floating point, so the doubled table is bitwise twice the old.
    _, edge_lists, features, labels, splits = trained
    g, table = instance(edge_lists, features, labels, splits)
    partition = PartitionIndex.from_table(g, table)
    once = layer_one_sums(g, partition, table.features)
    twice = layer_one_sums(g, partition, 2.0 * table.features)
    assert len(once) == len(twice) == g.num_relations
    for a, b in zip(once, twice):
        assert a.any()
        assert np.array_equal(b, 2.0 * a)


def test_relabeling_nodes_permutes_the_scores(trained):
    # Message passing is permutation-equivariant, but not bitwise: the CSR
    # lists each neighborhood by node id, so after relabeling each sum adds
    # its terms in another order. Reordering a float64 sum of m terms moves
    # it by at most (m - 1) * eps * sum|x| (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2002, eq. 4.4). With degrees below 20, trained
    # weights below 1 and scores in (0, 1), that is of order 20 * eps =
    # 4.4e-15 per layer; these cases measure at most 1.7e-15. The tolerance,
    # 1e-12, is 200 times that, while a bucket chosen by node id moves
    # scores by more than 0.4.
    model, edge_lists, features, labels, splits = trained
    g, table = instance(edge_lists, features, labels, splits)
    assert max(int(g.degrees(r).max()) for r in range(g.num_relations)) < 20
    assert max(float(np.abs(p).max()) for p in model.parameters().values()) < 1.0
    before = scores(model, g, table)
    perm = np.random.default_rng(4).permutation(N)  # old id i becomes perm[i]
    after = scores(model, *instance(
        [perm[e] for e in edge_lists], permuted(features, perm), permuted(labels, perm), permuted(splits, perm)
    ))
    np.testing.assert_allclose(after[perm], before, rtol=0.0, atol=1e-12)



def relations_permuted(model, perm):
    """A copy of ``model`` whose relation j holds old relation perm[j]'s
    layer stack and readout row block."""
    H = model.config.hidden_dim
    old = model.state()
    new = dict(old)
    for j, r in enumerate(perm):
        for key, value in old.items():
            if key.startswith(f"rel{r}."):
                new[f"rel{j}." + key[len(f"rel{r}."):]] = value
    new["readout.W"] = np.concatenate([old["readout.W"][r * H : (r + 1) * H] for r in perm])
    out = PmpModel(model.config, seed=0)
    for key, p in out.parameters().items():
        p[...] = new[key]
    return out


def test_permuting_relations_with_their_stacks_and_readout_rows_keeps_every_score(trained_multirel, monkeypatch):
    # Relation j of the permuted graph is old relation perm[j] and gets old
    # stack perm[j], so each stack runs bitwise the same arithmetic on the
    # same inputs and the concat holds the same column blocks in another
    # order (checked below). The readout rows follow their blocks, so only
    # the readout's dot products change: each adds its n = R * H products
    # and the bias in another order. Any order of a float64 sum is within
    # n * eps * sum|terms| of the exact sum (Higham, Accuracy and Stability
    # of Numerical Algorithms, 2002, eq. 4.4), so two orders differ by at
    # most twice that. ReLU does not widen the gap, the head multiplies it by
    # at most sum|head_w| and the sigmoid's slope is at most 1/4. ``bound``
    # is that first-order estimate from this model's own terms; the test
    # allows 4 times it for the head's and the sigmoid's own roundings. The
    # cases measure at most 2.0e-15 against bounds of 2.3e-13 to 2.5e-11,
    # while readout rows left unpermuted move some score by more than 0.77.
    model, edge_lists, features, labels, splits = trained_multirel
    R, H = model.config.num_relations, model.config.hidden_dim
    cats = []
    real_readout = model_module.readout

    def recording_readout(model, per_relation, grads=None):
        cats.append(np.concatenate(per_relation, axis=1))
        return real_readout(model, per_relation, grads)

    monkeypatch.setattr(model_module, "readout", recording_readout)
    before = scores(model, *instance(edge_lists, features, labels, splits))
    cat = cats[-1]
    terms = np.abs(cat) @ np.abs(model.readout_W) + np.abs(model.readout_b)
    eps = np.finfo(np.float64).eps
    bound = 2 * (R * H + 1) * eps * terms.max() * np.abs(model.head_w).sum() / 4
    for perm in itertools.permutations(range(R)):
        after = scores(relations_permuted(model, perm), *instance([edge_lists[r] for r in perm], features, labels,
                                                                   splits))
        blocks = np.concatenate([cat[:, r * H : (r + 1) * H] for r in perm], axis=1)
        assert np.array_equal(cats[-1], blocks)
        np.testing.assert_allclose(after, before, rtol=0.0, atol=4 * bound)
