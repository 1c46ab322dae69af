"""Optimizer arithmetic, the training loop, and split evaluation."""
import math

import numpy as np
import pytest

from pmpfraud import ndiff as nd, training
from pmpfraud.graph import NodeTable, PartitionIndex, RelationalGraph
from pmpfraud.layer import LayerVariant
from pmpfraud.model import ModelConfig, PmpModel, model_forward
from pmpfraud.synth import generate_ba_graph, generate_features, make_splits
from pmpfraud.training import (
    Adam,
    History,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    forward_scores,
    train,
)

from .reference import PerArrayAdam, counted_metrics


def small_dataset(seed=0, n=60):
    g, labels = generate_ba_graph(n, 2, 0.3, seed=seed)
    x = generate_features(labels, feature_dim=4, seed=seed + 1)
    splits = make_splits(n, (0.5, 0.25, 0.25), seed=seed + 2, stratify_labels=labels)
    return g, NodeTable(x, labels, splits)


def small_model(table, hidden=8, seed=0, variant=None):
    cfg = ModelConfig(
        feature_dim=table.feature_dim,
        hidden_dim=hidden,
        variant=variant or LayerVariant.full(),
    )
    return PmpModel(cfg, seed=seed)


class TestAdam:
    def test_single_step_closed_form(self):
        theta = np.array([1.0, -2.0])
        opt = Adam(theta, learning_rate=0.1)
        g = np.array([0.5, -3.0])
        opt.step(g, {"w": g})
        # bias corrections cancel at t=1: update = g / (|g| + eps)
        want = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
        np.testing.assert_array_equal(theta, want)

    def test_zero_gradient_with_decay_shrinks_multiplicatively(self):
        theta = np.array([4.0, -8.0])
        opt = Adam(theta, learning_rate=0.05, weight_decay=0.1)
        for step in range(3):
            opt.step(np.zeros(2), {"w": np.zeros(2)})
        want = np.array([4.0, -8.0]) * (1.0 - 0.05 * 0.1) ** 3
        np.testing.assert_allclose(theta, want, rtol=1e-14)

    def test_zero_learning_rate_is_identity(self):
        theta = np.array([3.0])
        opt = Adam(theta, learning_rate=0.0, weight_decay=0.5)
        opt.step(np.array([7.0]), {"w": np.array([7.0])})
        np.testing.assert_array_equal(theta, [3.0])

    def test_non_finite_gradient_raises(self):
        theta = np.array([1.0])
        opt = Adam(theta, learning_rate=0.1)
        with pytest.raises(nd.NonFiniteError, match="w"):
            opt.step(np.array([np.nan]), {"w": np.array([np.nan])})

    def test_non_finite_gradient_names_the_first_parameter_holding_one(self):
        theta = np.zeros(6)
        opt = Adam(theta, learning_rate=0.1)
        g = np.array([1.0, 1.0, 1.0, np.inf, np.nan, 1.0])
        blocks = {"a": g[:2].reshape(2, 1), "b": g[2:4], "c": g[4:]}
        with pytest.raises(nd.NonFiniteError, match="^non-finite gradient for parameter 'b'$"):
            opt.step(g, blocks)
        assert opt.t == 0 and not theta.any() and not opt.m.any() and not opt.v.any()

    @pytest.mark.parametrize("name, value", [
        ("learning_rate", -1.0), ("learning_rate", math.inf), ("learning_rate", math.nan),
        ("weight_decay", -1e-3), ("weight_decay", math.inf),
    ])
    def test_hyperparameter_validation(self, name, value):
        theta = np.array([1.0])
        rates = {"learning_rate": 0.1, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be a finite, non-negative number, got {value!r}$"):
            Adam(theta, **rates)

    def test_steps_follow_sign_of_gradient(self):
        theta = np.array([0.0])
        opt = Adam(theta, learning_rate=0.01)
        for step in range(5):
            opt.step(np.array([2.0]), {"w": np.array([2.0])})
        assert theta[0] < 0.0

    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    def test_flat_steps_equal_the_per_array_oracle_bitwise(self, weight_decay):
        # A model's flat array and its parameter views, against the
        # per-array optimizer over copies, stepping from a tape's flat
        # gradient and its views. The gradients hold exact zeros,
        # subnormals and entries that flip sign from step to step, so the
        # moments pass through zero, the subnormal range and cancellation.
        model = PmpModel(ModelConfig(feature_dim=3, hidden_dim=4, num_layers=2, num_relations=2), seed=1)
        params = model.parameters()
        opt = Adam(model.flat, learning_rate=0.01, weight_decay=weight_decay)
        oracle = PerArrayAdam({name: p.copy() for name, p in params.items()}, learning_rate=0.01,
                              weight_decay=weight_decay)
        tape = nd.GradientTape(params)
        rng = np.random.default_rng(2)
        tiny = np.finfo(np.float64).tiny
        signs = {name: rng.choice([-1.0, 1.0], size=p.shape) for name, p in params.items()}
        for step in range(20):
            for name, p in params.items():
                g = rng.normal(size=p.shape) * 10.0 ** rng.integers(-8, 3, size=p.shape)
                kind = rng.integers(0, 4, size=p.shape)
                g[kind == 0] = 0.0
                g[kind == 1] = tiny * rng.random(size=int((kind == 1).sum()))
                signs[name] = np.where(kind == 2, -signs[name], signs[name])
                tape.blocks[name][...] = signs[name] * g
            opt.step(tape.grad, tape.blocks)
            oracle.step({name: g.copy() for name, g in tape.blocks.items()})
            for name, p in params.items():
                assert p.tobytes() == oracle.params[name].tobytes(), (step, name)
        assert (tape.grad == 0).any() and ((tape.grad != 0) & (np.abs(tape.grad) < tiny)).any()


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.01
        assert cfg.batch_size == 512
        assert cfg.pos_weight is None

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(dropout_p=1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("name, value", [
        ("learning_rate", -0.1), ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", "fast"),
        ("weight_decay", -1e-3), ("weight_decay", True), ("weight_decay", math.inf),
        ("dropout_p", 1.0), ("dropout_p", -0.5),
        ("batch_size", 0), ("batch_size", 16.5), ("batch_size", True),
        ("max_epochs", 0), ("max_epochs", 3.0), ("patience", -1), ("patience", "20"),
        ("seed", -1), ("seed", 1.5), ("seed", False),
        ("pos_weight", 0.0), ("pos_weight", -2.0), ("pos_weight", "fast"), ("pos_weight", math.inf),
        ("pos_weight", math.nan),
    ])
    def test_rejection_names_field_and_value(self, name, value):
        with pytest.raises(ValueError) as info:
            TrainConfig(**{name: value})
        assert str(info.value).startswith(f"{name} must be ")
        assert str(info.value).endswith(f"got {value!r}")

    def test_numpy_scalars_pass(self):
        cfg = TrainConfig(learning_rate=np.float64(0.1), dropout_p=np.float32(0.25), batch_size=np.int64(8),
                          max_epochs=np.int32(2), patience=np.uint8(1), seed=np.int64(3), pos_weight=np.float64(2))
        assert cfg.batch_size == 8 and cfg.seed == 3

    def test_to_dict_covers_every_field(self):
        d = TrainConfig().to_dict()
        assert set(d) == {
            "learning_rate", "weight_decay", "dropout_p", "batch_size",
            "max_epochs", "patience", "seed", "pos_weight",
        }


class TestTrainLoop:
    def run(self, seed=0, **overrides):
        g, table = small_dataset(seed=seed)
        model = small_model(table, seed=seed)
        defaults = dict(batch_size=16, max_epochs=8, patience=3, seed=seed)
        defaults.update(overrides)
        cfg = TrainConfig(**defaults)
        model, history = train(model, g, table, cfg)
        return g, table, model, history

    def test_deterministic_replay(self):
        _, _, m1, h1 = self.run(seed=3)
        _, _, m2, h2 = self.run(seed=3)
        assert h1.entries == h2.entries
        assert h1.best_epoch == h2.best_epoch
        for k, v in m1.state().items():
            np.testing.assert_array_equal(v, m2.state()[k])

    def test_seed_changes_trajectory(self):
        _, _, _, h1 = self.run(seed=3)
        _, _, _, h2 = self.run(seed=4)
        assert h1.entries != h2.entries

    def test_loss_decreases_on_separable_data(self):
        _, _, _, history = self.run(seed=0, max_epochs=6, patience=6)
        losses = [e[1] for e in history.entries]
        assert losses[-1] < losses[0]

    def test_best_epoch_weights_are_restored(self):
        g, table, model, history = self.run(seed=1, max_epochs=10, patience=2)
        assert 0 <= history.best_epoch < len(history.entries)
        recorded = [e[2] for e in history.entries]
        assert history.best_val_auc == max(recorded)
        partition = PartitionIndex.from_table(g, table)
        ids = table.split_ids("val")
        scores = forward_scores(model, g, partition, table.features, ids)
        from pmpfraud.metrics import auc

        assert auc(scores, table.labels[ids]) == pytest.approx(history.best_val_auc, abs=1e-12)

    def test_early_stopping_bounds_epochs(self):
        _, _, _, history = self.run(seed=2, max_epochs=50, patience=2)
        assert len(history.entries) <= history.best_epoch + 2 + 1

    def test_single_class_val_disables_selection(self):
        g, table = small_dataset(seed=5)
        labels = table.labels.copy()
        # drain fraud out of the val split; train keeps both classes
        labels[table.splits == 1] = 0
        table2 = NodeTable(table.features, labels, table.splits)
        model = small_model(table2, seed=5)
        model, history = train(model, g, table2, TrainConfig(batch_size=16, max_epochs=4, patience=2, seed=5))
        assert all(math.isnan(e[2]) for e in history.entries)
        assert history.best_epoch == len(history.entries) - 1
        assert len(history.entries) == 4  # patience cannot trigger

    def test_divergence_reports_location(self):
        g, table = small_dataset(seed=6)
        model = small_model(table, seed=6)
        cfg = TrainConfig(learning_rate=1e200, batch_size=16, max_epochs=4, patience=2, seed=6)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
            train(model, g, table, cfg)
        assert info.value.epoch >= 0
        assert info.value.batch_index >= -1

    @pytest.mark.parametrize("aucs, best_epoch", [([0.6, 0.9, 0.7, 0.8], 1), ([0.9, 0.9, 0.5], 1)])
    def test_returns_the_best_epochs_weights(self, monkeypatch, aucs, best_epoch):
        # Scripted validation AUCs; patience 2 stops after the last one,
        # with epoch 1 the best (a tie keeps the later epoch). The returned
        # weights are bitwise those the best epoch's validation pass read.
        seen = []

        def scripted(model, *args):
            seen.append(model.flat.copy())
            return aucs[len(seen) - 1]

        monkeypatch.setattr(training, "_val_auc", scripted)
        _, _, model, history = self.run(seed=4, max_epochs=4, patience=2)
        assert history.best_epoch == best_epoch and len(seen) == len(aucs)
        assert model.flat.tobytes() == seen[best_epoch].tobytes()
        assert not np.array_equal(seen[best_epoch], seen[-1])

    def test_nan_in_one_parameters_gradient_diverges_naming_it(self, monkeypatch):
        g, table = small_dataset(seed=6)
        model = small_model(table, seed=6)
        before = model.flat.copy()
        gradients = nd.GradientTape.gradients

        def poisoned(tape, loss, *args, **kwargs):
            grads = gradients(tape, loss, *args, **kwargs)
            grads["rel0.layer0.M_be"][1, 0] = np.nan
            return grads

        monkeypatch.setattr(nd.GradientTape, "gradients", poisoned)
        with pytest.raises(TrainingDiverged) as info:
            train(model, g, table, TrainConfig(batch_size=16, max_epochs=2, seed=6))
        assert (info.value.epoch, info.value.batch_index) == (0, 0)
        assert str(info.value).endswith("non-finite gradient for parameter 'rel0.layer0.M_be'")
        assert model.flat.tobytes() == before.tobytes()

    def test_divergence_in_the_validation_pass_names_it(self, monkeypatch):
        g, table = small_dataset(seed=6)
        model = small_model(table, seed=6)

        def failing_scores(*args, **kwargs):
            raise nd.NonFiniteError("matmul: non-finite result")

        monkeypatch.setattr(training, "forward_scores", failing_scores)
        with pytest.raises(TrainingDiverged) as info:
            train(model, g, table, TrainConfig(batch_size=16, max_epochs=2, seed=6))
        assert (info.value.epoch, info.value.batch_index) == (0, -1)
        assert str(info.value) == "training diverged at epoch 0, validation pass: matmul: non-finite result"

    def test_partition_is_built_once(self, monkeypatch):
        calls = []
        original = PartitionIndex.from_table.__func__

        def counting(cls, graph, table):
            calls.append(1)
            return original(cls, graph, table)

        monkeypatch.setattr(PartitionIndex, "from_table", classmethod(counting))
        self.run(seed=7, max_epochs=5, patience=5)
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", [0, 1])
    def test_saturated_head_sends_no_subnormal_gradients(self, seed, monkeypatch):
        # 2 layers on separable BA(500, 5): the benign head saturates within
        # a few epochs. A sigmoid-then-loss adjoint turns each saturated
        # score into g * tiny, which reaches the parameters as subnormals.
        g, labels = generate_ba_graph(500, 5, fraud_fraction=0.10, seed=seed)
        x = generate_features(labels, feature_dim=8, mu_benign=1.0, mu_fraud=5.0,
                              sigma=1.0, seed=seed + 100)
        splits = make_splits(500, (0.4, 0.2, 0.4), seed=seed + 200, stratify_labels=labels)
        table = NodeTable(x, labels, splits)
        model = PmpModel(ModelConfig(feature_dim=8, hidden_dim=16, num_layers=2), seed=seed + 300)
        seen = []
        step = Adam.step

        def recording_step(self, g, blocks):
            seen.append(np.abs(g))
            return step(self, g, blocks)

        monkeypatch.setattr(Adam, "step", recording_step)
        train(model, g, table, TrainConfig(max_epochs=5, patience=5, seed=seed + 400))
        entries = np.concatenate(seen)
        assert entries.size == 5 * sum(p.size for p in model.parameters().values())
        tiny = np.finfo(np.float64).tiny
        assert not ((entries > 0) & (entries < tiny)).any()

    @pytest.mark.parametrize("variant", [LayerVariant.full(), LayerVariant.baseline(), LayerVariant(True, False, False),
                                         LayerVariant(True, False, True), LayerVariant(True, True, False)],
                             ids=["full", "baseline", "plain", "adaptive-off", "root-specific-off"])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("num_relations", [1, 2])
    def test_every_parameter_gets_a_gradient_from_a_training_batch(self, monkeypatch, variant, num_layers,
                                                                   num_relations):
        # a layer holds only the blocks its variant reads, and each walk
        # writes every block of the flat gradient, which it never zeroes
        g, table = small_dataset(seed=19)
        if num_relations == 2:
            g2, _ = generate_ba_graph(g.num_nodes, 1, 0.3, seed=20)
            g = RelationalGraph(g.num_nodes, g.row_offsets + g2.row_offsets, g.col_indices + g2.col_indices)
        cfg = ModelConfig(feature_dim=table.feature_dim, hidden_dim=5, num_layers=num_layers,
                          num_relations=num_relations, variant=variant)
        model = PmpModel(cfg, seed=19)
        missing = []
        gradients = nd.GradientTape.gradients

        def checking(tape, loss, *args, **kwargs):
            tape.grad[...] = np.nan
            grads = gradients(tape, loss, *args, **kwargs)
            missing.append([name for name, grad in grads.items() if np.isnan(grad).any()])
            return grads

        monkeypatch.setattr(nd.GradientTape, "gradients", checking)
        train(model, g, table, TrainConfig(batch_size=16, max_epochs=1, dropout_p=0.2, seed=19))
        assert len(missing) == math.ceil(table.split_ids("train").size / 16)
        assert all(names == [] for names in missing), missing[0]

    def test_train_config_dropout_changes_weights_and_replays(self):
        def trained_state(dropout_p):
            _, _, model, history = self.run(seed=8, max_epochs=2, patience=2, dropout_p=dropout_p)
            return model.state(), history.entries

        plain, _ = trained_state(0.0)
        dropped, entries = trained_state(0.25)
        again, entries_again = trained_state(0.25)
        assert any(not np.array_equal(dropped[k], plain[k]) for k in plain)
        assert entries_again == entries
        for k in dropped:
            np.testing.assert_array_equal(again[k], dropped[k])


class TestSharedLayerOneSums:
    """Layer 1's whole-graph bucket sums are built once per pass and change nothing."""

    @staticmethod
    def counting(monkeypatch):
        """Count ``layer_one_sums`` builds and record the ``sums`` every
        ``model_logits`` (training batch) and ``model_forward`` (scoring
        chunk) call receives."""
        builds, received = [], []
        build = training.layer_one_sums

        def counting_build(*args, **kwargs):
            builds.append(build(*args, **kwargs))
            return builds[-1]

        def recording(forward):
            def recording_forward(*args, sums=None, **kwargs):
                received.append(sums)
                return forward(*args, sums=sums, **kwargs)

            return recording_forward

        monkeypatch.setattr(training, "layer_one_sums", counting_build)
        for name in ("model_logits", "model_forward"):
            monkeypatch.setattr(training, name, recording(getattr(training, name)))
        return builds, received

    def test_train_builds_one_table_and_every_batch_and_val_pass_reads_it(self, monkeypatch):
        g, table = small_dataset(seed=14)
        model = PmpModel(ModelConfig(feature_dim=table.feature_dim, hidden_dim=6, num_layers=2), seed=14)
        builds, received = self.counting(monkeypatch)
        _, history = train(model, g, table, TrainConfig(batch_size=8, max_epochs=3, patience=3, seed=14))
        assert len(builds) == 1
        batches = -(-table.split_ids("train").size // 8)
        assert len(received) == len(history.entries) * (batches + 1)
        assert all(sums is builds[0] for sums in received)

    def test_forward_scores_builds_one_table_shared_by_its_chunks(self, monkeypatch):
        g, table = small_dataset(seed=15)
        model = PmpModel(ModelConfig(feature_dim=table.feature_dim, hidden_dim=6, num_layers=2), seed=15)
        partition = PartitionIndex.from_table(g, table)
        builds, received = self.counting(monkeypatch)
        monkeypatch.setattr(training, "EVAL_BATCH_SIZE", 7)
        forward_scores(model, g, partition, table.features, np.arange(g.num_nodes))
        assert len(builds) == 1 and len(received) == -(-g.num_nodes // 7)
        assert all(sums is builds[0] for sums in received)

    def test_one_layer_train_builds_one_table_and_one_layer_scoring_builds_none(self, monkeypatch):
        g, table = small_dataset(seed=16)
        model = small_model(table, seed=16)
        partition = PartitionIndex.from_table(g, table)
        builds, received = self.counting(monkeypatch)
        _, history = train(model, g, table, TrainConfig(batch_size=8, max_epochs=2, patience=2, seed=16))
        batches = -(-table.split_ids("train").size // 8)
        assert len(builds) == 1 and len(received) == len(history.entries) * (batches + 1)
        assert all(sums is builds[0] for sums in received)
        # a one-layer chunk's centers are its only layer's, so scoring sums them itself
        del received[:]
        monkeypatch.setattr(training, "EVAL_BATCH_SIZE", 7)
        forward_scores(model, g, partition, table.features, np.arange(g.num_nodes))
        evaluate(model, g, table, "test")
        assert len(builds) == 1 and received and all(sums is None for sums in received)

    def test_one_layer_train_lists_no_neighborhoods(self, monkeypatch):
        g, table = small_dataset(seed=16)
        builds, _ = self.counting(monkeypatch)
        listed = []
        neighbor_segments = RelationalGraph.neighbor_segments

        def counting_segments(graph, relation, centers):
            listed.append(relation)
            return neighbor_segments(graph, relation, centers)

        monkeypatch.setattr(RelationalGraph, "neighbor_segments", counting_segments)
        model, _ = train(small_model(table, seed=16), g, table,
                         TrainConfig(batch_size=8, max_epochs=2, patience=2, seed=16))
        assert len(builds) == 1 and listed == []
        evaluate(model, g, table, "test")  # one chunk, which lists its own neighborhoods
        assert listed == [0]

    @pytest.mark.parametrize("variant", [LayerVariant.full(), LayerVariant.baseline(),
                                         LayerVariant(True, False, True), LayerVariant(True, True, False)],
                             ids=["full", "baseline", "adaptive-off", "root-specific-off"])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("num_relations", [1, 2])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.3])
    def test_training_and_evaluation_bitwise_equal_to_per_batch_sums(self, monkeypatch, variant, num_layers,
                                                                     num_relations, dropout_p):
        g, table = small_dataset(seed=17)
        if num_relations == 2:
            g2, _ = generate_ba_graph(g.num_nodes, 1, 0.3, seed=18)
            g = RelationalGraph(g.num_nodes, g.row_offsets + g2.row_offsets, g.col_indices + g2.col_indices)
        cfg = ModelConfig(feature_dim=table.feature_dim, hidden_dim=5, num_layers=num_layers,
                          num_relations=num_relations, variant=variant)
        config = TrainConfig(batch_size=16, max_epochs=3, patience=3, dropout_p=dropout_p, seed=17)

        def run():
            model, history = train(PmpModel(cfg, seed=17), g, table, config)
            return model.state(), history, evaluate(model, g, table, "test").auc

        shared = run()
        monkeypatch.setattr(training, "layer_one_sums", lambda *args: None)
        own = run()
        for name, value in own[0].items():
            assert shared[0][name].tobytes() == value.tobytes(), name
        assert shared[1].entries == own[1].entries and shared[1].best_epoch == own[1].best_epoch
        assert shared[2] == own[2]


class TestEvaluate:
    def test_zero_model_scores_half_everywhere(self):
        g, table = small_dataset(seed=9)
        model = small_model(table, seed=9)
        model.flat[...] = 0.0
        report = evaluate(model, g, table, "test")
        assert report.auc == 0.5
        # every score is exactly 0.5, so every node is predicted fraud
        assert report.confusion["fn"] == 0
        assert report.confusion["tn"] == 0

    def test_report_matches_counted_oracle(self):
        g, table = small_dataset(seed=10)
        model = small_model(table, seed=10)
        ids = table.split_ids("test")
        partition = PartitionIndex.from_table(g, table)
        scores = forward_scores(model, g, partition, table.features, ids)
        want = counted_metrics(scores, table.labels[ids], 0.5)
        report = evaluate(model, g, table, "test")
        assert report.confusion == want["confusion"]
        assert report.f1_macro == pytest.approx(want["f1_macro"], abs=1e-15)
        assert report.g_mean == pytest.approx(want["g_mean"], abs=1e-15)
        assert report.split == "test"

    def test_empty_split_raises(self):
        g, table = small_dataset(seed=11)
        splits = table.splits.copy()
        splits[splits == 1] = 2
        table2 = NodeTable(table.features, table.labels, splits)
        model = small_model(table2, seed=11)
        with pytest.raises(ValueError, match="val"):
            evaluate(model, g, table2, "val")

    def test_scores_record_nothing_and_equal_a_recorded_loop(self, monkeypatch):
        g, table = small_dataset(seed=13)
        cfg = ModelConfig(feature_dim=table.feature_dim, hidden_dim=6, num_layers=2)
        model = PmpModel(cfg, seed=13)
        partition = PartitionIndex.from_table(g, table)
        ids = np.random.default_rng(13).permutation(g.num_nodes)
        tape = nd.GradientTape(model.parameters())
        recorded = [model_forward(model, g, partition, table.features, ids[s : s + 7], tape=tape)
                    for s in range(0, ids.size, 7)]
        assert len(tape.head) == 2 * len(recorded)
        tapes = []

        def spy(*args, **kwargs):
            tapes.append(kwargs.get("tape"))
            return model_forward(*args, **kwargs)

        monkeypatch.setattr(training, "model_forward", spy)
        monkeypatch.setattr(training, "EVAL_BATCH_SIZE", 7)
        scores = forward_scores(model, g, partition, table.features, ids)
        np.testing.assert_array_equal(scores, np.concatenate(recorded))
        assert tapes == [None] * len(recorded)

    def test_chunked_scores_match_single_pass(self, monkeypatch):
        g, table = small_dataset(seed=12)
        model = small_model(table, seed=12)
        partition = PartitionIndex.from_table(g, table)
        ids = np.arange(g.num_nodes)
        b = forward_scores(model, g, partition, table.features, ids)
        assert ids.size <= training.EVAL_BATCH_SIZE  # one chunk
        monkeypatch.setattr(training, "EVAL_BATCH_SIZE", 7)
        a = forward_scores(model, g, partition, table.features, ids)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestHistory:
    def test_csv_format(self, tmp_path):
        h = History()
        h.append(0, 0.5, 0.75)
        h.append(1, 0.25, 0.875)
        h.best_epoch = 1
        path = tmp_path / "history.csv"
        h.to_csv(str(path), meta_line="config_hash=abc seed=0")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_hash=abc seed=0"
        assert lines[1] == "epoch,train_loss,val_auc"
        assert lines[2].startswith("0,0.5,0.75")
        assert len(lines) == 4
