"""Metamorphic checks: transformations of the input whose effect on the
scores is known without an oracle.

Each case trains a small model first, so the weights are the kind training
leaves behind rather than an initialization, then scores every node with
``forward_scores`` before and after transforming the graph, features,
labels or splits.
"""
import numpy as np
import pytest

from pmpfraud.graph import NodeTable, PartitionIndex, RelationalGraph
from pmpfraud.model import ModelConfig, PmpModel, layer_one_sums
from pmpfraud.training import TrainConfig, forward_scores, train

N, D = 60, 4
SHAPES = [(layers, relations) for layers in (1, 2) for relations in (1, 2)]


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


@pytest.fixture(scope="module", params=SHAPES, ids=[f"{l}layer-{r}rel" for l, r in SHAPES])
def trained(request):
    """(model, edge_lists, features, labels, splits) after three epochs."""
    layers, relations = request.param
    rng = np.random.default_rng(10 * layers + relations)
    edge_lists = [rng.integers(0, N, size=(3 * N, 2)) for _ in range(relations)]
    labels = (rng.random(N) < 0.3).astype(np.int64)
    splits = rng.choice([0, 1, 2], size=N, p=[0.5, 0.25, 0.25])
    labels[:2], splits[:2] = [0, 1], 0
    features = rng.normal(size=(N, D)) + 2.0 * labels[:, None]
    g, table = instance(edge_lists, features, labels, splits)
    model = PmpModel(ModelConfig(feature_dim=D, hidden_dim=8, num_layers=layers, num_relations=relations), seed=1)
    model, _ = train(model, g, table, TrainConfig(batch_size=16, max_epochs=3, patience=3, dropout_p=0.2, seed=2))
    return model, edge_lists, features, labels, splits


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
    swapped = np.where(splits == 1, 2, np.where(splits == 2, 1, splits))
    assert (swapped != splits).sum() >= 10
    before = scores(model, *instance(edge_lists, features, labels, splits))
    assert np.array_equal(scores(model, *instance(edge_lists, features, labels, swapped)), before)


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
        assert a.data.any()
        assert np.array_equal(b.data, 2.0 * a.data)


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
    assert max(float(np.abs(p.data).max()) for p in model.parameters().values()) < 1.0
    before = scores(model, g, table)
    perm = np.random.default_rng(4).permutation(N)  # old id i becomes perm[i]
    after = scores(model, *instance(
        [perm[e] for e in edge_lists], permuted(features, perm), permuted(labels, perm), permuted(splits, perm)
    ))
    np.testing.assert_allclose(after[perm], before, rtol=0.0, atol=1e-12)

