"""Differentiation engine checks: every operator against central finite
differences, plus the structural guarantees of the reverse pass."""
import math

import numpy as np
import pytest

from pmpfraud import ndiff as nd

from .reference import add_at_rows


def fd_tensor(rng, shape, low=0.2, high=1.5):
    """Random values bounded away from zero, safe around ReLU kinks."""
    signs = rng.choice([-1.0, 1.0], size=shape)
    return nd.Tensor(rng.uniform(low, high, size=shape) * signs, requires_grad=True)


def run_op_check(params, fn, tolerance=1e-6):
    report = nd.grad_check(fn, params, tolerance=tolerance)
    assert report.passed, str(report)


class TestOperatorGradients:
    """Gradient of every operator matches central finite differences."""

    def test_matmul(self):
        rng = np.random.default_rng(1)
        a = fd_tensor(rng, (4, 3))
        b = fd_tensor(rng, (3, 5))
        run_op_check({"a": a, "b": b}, lambda: nd.mean(nd.matmul(a, b)))

    def test_add_sub_mul(self):
        rng = np.random.default_rng(2)
        a = fd_tensor(rng, (5, 4))
        b = fd_tensor(rng, (5, 4))
        run_op_check({"a": a, "b": b}, lambda: nd.mean(nd.add(a, b)))
        run_op_check({"a": a, "b": b}, lambda: nd.mean(nd.sub(a, b)))
        run_op_check({"a": a, "b": b}, lambda: nd.mean(nd.mul(a, b)))

    def test_add_rowvec(self):
        rng = np.random.default_rng(3)
        a = fd_tensor(rng, (6, 3))
        v = fd_tensor(rng, (3,))
        run_op_check({"a": a, "v": v}, lambda: nd.mean(nd.sigmoid(nd.add_rowvec(a, v))))

    def test_row_scale(self):
        rng = np.random.default_rng(4)
        a = fd_tensor(rng, (6, 3))
        s = fd_tensor(rng, (6,))
        run_op_check({"a": a, "s": s}, lambda: nd.mean(nd.row_scale(a, s)))

    def test_affine(self):
        rng = np.random.default_rng(5)
        a = fd_tensor(rng, (4, 4))
        run_op_check({"a": a}, lambda: nd.mean(nd.affine(a, -1.7, 0.4)))

    def test_sigmoid(self):
        rng = np.random.default_rng(6)
        a = fd_tensor(rng, (5, 2))
        run_op_check({"a": a}, lambda: nd.mean(nd.sigmoid(a)))

    def test_relu(self):
        rng = np.random.default_rng(7)
        a = fd_tensor(rng, (5, 5))
        run_op_check({"a": a}, lambda: nd.mean(nd.relu(a)))

    def test_segment_sum(self):
        rng = np.random.default_rng(8)
        values = fd_tensor(rng, (7, 3))
        seg = np.array([0, 0, 1, 2, 2, 2, 4])
        run_op_check({"v": values}, lambda: nd.mean(nd.sigmoid(nd.segment_sum(values, seg, 5))))

    def test_gather_rows(self):
        rng = np.random.default_rng(9)
        x = fd_tensor(rng, (6, 3))
        idx = np.array([5, 0, 0, 2, 4])
        run_op_check({"x": x}, lambda: nd.mean(nd.sigmoid(nd.gather_rows(x, idx))))

    def test_dropout_fixed_key(self):
        rng = np.random.default_rng(10)
        x = fd_tensor(rng, (8, 4))
        run_op_check({"x": x}, lambda: nd.mean(nd.dropout(x, 0.4, True, key=(3, 1, 0, 2))))

    def test_concat(self):
        rng = np.random.default_rng(11)
        a = fd_tensor(rng, (3, 2))
        b = fd_tensor(rng, (3, 4))
        run_op_check({"a": a, "b": b}, lambda: nd.mean(nd.sigmoid(nd.concat([a, b], axis=1))))

    def test_reshape(self):
        rng = np.random.default_rng(12)
        a = fd_tensor(rng, (4, 3))
        run_op_check({"a": a}, lambda: nd.mean(nd.reshape(a, (12,))))

    def test_binary_cross_entropy(self):
        rng = np.random.default_rng(13)
        raw = fd_tensor(rng, (10,))
        targets = rng.integers(0, 2, size=10).astype(np.float64)
        run_op_check({"raw": raw}, lambda: nd.mean(nd.binary_cross_entropy(nd.sigmoid(raw), targets)))

    def test_composite_expression(self):
        rng = np.random.default_rng(14)
        w1 = fd_tensor(rng, (3, 4))
        w2 = fd_tensor(rng, (4, 1))
        x = nd.Tensor(rng.normal(size=(6, 3)))
        y = rng.integers(0, 2, size=6).astype(np.float64)

        def fn():
            hidden = nd.relu(nd.matmul(x, w1))
            probs = nd.sigmoid(nd.reshape(nd.matmul(hidden, w2), (6,)))
            return nd.mean(nd.binary_cross_entropy(probs, y))

        run_op_check({"w1": w1, "w2": w2}, fn)


class TestOperatorValues:
    def test_identity_loss_gradient_is_exactly_one(self):
        p = nd.Tensor(np.array([1.7]), requires_grad=True)
        out = nd.mean(p)
        nd.backward(out)
        assert p.grad[0] == 1.0

    def test_sigmoid_at_zero(self):
        x = nd.Tensor(np.array([0.0]), requires_grad=True)
        y = nd.sigmoid(x)
        assert y.data[0] == 0.5
        nd.backward(nd.mean(y))
        assert x.grad[0] == 0.25

    def test_sigmoid_open_interval_under_saturation(self):
        y = nd.sigmoid(nd.Tensor(np.array([-1e4, -50.0, 50.0, 1e4])))
        assert np.all(y.data > 0.0)
        assert np.all(y.data < 1.0)

    def test_relu_values(self):
        y = nd.relu(nd.Tensor(np.array([[-3.0, 0.0, 2.0]])))
        np.testing.assert_array_equal(y.data, [[0.0, 0.0, 2.0]])

    def test_segment_sum_values_and_empty_segment(self):
        values = nd.Tensor(np.array([[1.0], [2.0], [3.0]]), requires_grad=True)
        out = nd.segment_sum(values, np.array([0, 0, 2]), 3)
        np.testing.assert_array_equal(out.data, [[3.0], [0.0], [3.0]])
        nd.backward(out, seed=np.array([[5.0], [7.0], [11.0]]))
        np.testing.assert_array_equal(values.grad, [[5.0], [5.0], [11.0]])

    def test_bce_at_half_is_ln2(self):
        probs = nd.Tensor(np.array([0.5, 0.5]))
        out = nd.binary_cross_entropy(probs, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(out.data, [math.log(2.0), math.log(2.0)])

    def test_bce_clamps_certain_predictions(self):
        probs = nd.Tensor(np.array([1.0, 0.0]))
        out = nd.binary_cross_entropy(probs, np.array([1.0, 0.0]))
        assert np.all(out.data > 0.0)
        assert np.all(out.data < 2e-12)

    def test_dropout_eval_mode_is_identity(self):
        x = nd.Tensor(np.ones((4, 4)), requires_grad=True)
        assert nd.dropout(x, 0.5, False, key=0) is x
        assert nd.dropout(x, 0.0, True, key=0) is x

    def test_dropout_mask_replays_by_key(self):
        x = nd.Tensor(np.ones((16, 16)))
        a = nd.dropout(x, 0.5, True, key=(7, 2, 1, 0))
        b = nd.dropout(x, 0.5, True, key=(7, 2, 1, 0))
        c = nd.dropout(x, 0.5, True, key=(7, 2, 1, 1))
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)
        kept = a.data[a.data != 0]
        np.testing.assert_allclose(kept, 2.0)

    def test_mean_value(self):
        x = nd.Tensor(np.array([[1.0, 2.0], [3.0, 6.0]]))
        assert nd.mean(x).data == 3.0


class TestScatterMatchesAddAt:
    """The row scatter behind segment_sum and the gather_rows adjoint is
    bitwise equal to an np.add.at oracle. Values span 16 decades, so any
    change in summation order shows up in the low bits."""

    K = 12

    def case(self, seed, m=300, d=5):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, self.K - 1, size=m)  # unsorted, repeated
        ids[ids == 4] = 7  # segments 4 and K - 1 stay empty
        values = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-8, 9, size=(m, d))
        return ids, values

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_segment_sum_forward(self, seed):
        ids, values = self.case(seed)
        out = nd.segment_sum(nd.Tensor(values), ids, self.K).data
        expected = add_at_rows(values, ids, self.K)
        assert np.array_equal(out, expected)
        assert not out[4].any() and not out[-1].any()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gather_rows_backward(self, seed):
        ids, upstream = self.case(seed)
        x = nd.Tensor(np.ones((self.K, upstream.shape[1])), requires_grad=True)
        nd.backward(nd.gather_rows(x, ids), seed=upstream)
        assert np.array_equal(x.grad, add_at_rows(upstream, ids, self.K))

    def test_result_keeps_input_dtype(self):
        ids, values = self.case(3, m=20)
        out = nd.segment_sum(nd.Tensor(values, dtype=np.float32), ids, self.K)
        assert out.data.dtype == np.float32


class TestReversePass:
    def test_fanout_accumulates_additively(self):
        x = nd.Tensor(np.array([1.0, 2.0, 3.0, 4.0]), requires_grad=True)
        a = nd.affine(x, 2.0)
        b = nd.affine(x, 3.0)
        out = nd.mean(nd.add(a, b))
        nd.backward(out)
        np.testing.assert_array_equal(x.grad, np.full(4, 5.0 / 4.0))

    def test_each_recorded_op_visited_exactly_once(self):
        x = nd.Tensor(np.array([0.3, -0.2]), requires_grad=True)
        a = nd.sigmoid(x)
        b = nd.relu(x)
        out = nd.mean(nd.add(a, b))
        trace = []
        nd.backward(out, trace=trace)
        assert sorted(trace) == ["add", "mean", "relu", "sigmoid"]

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(20)
        w = nd.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        x = nd.Tensor(rng.normal(size=(5, 3)))
        tape = nd.GradientTape({"w": w})

        def f():
            return nd.mean(nd.sigmoid(nd.matmul(x, w)))

        def g():
            return nd.mean(nd.relu(nd.matmul(x, w)))

        a, b = 2.5, -0.75
        grad_f = tape.gradients(f())["w"]
        grad_g = tape.gradients(g())["w"]
        combined = tape.gradients(nd.add(nd.affine(f(), a), nd.affine(g(), b)))["w"]
        np.testing.assert_allclose(combined, a * grad_f + b * grad_g, rtol=0, atol=1e-12)

    def test_unreached_parameter_gets_exact_zero(self):
        used = nd.Tensor(np.array([[1.0]]), requires_grad=True)
        unused = nd.Tensor(np.array([[2.0]]), requires_grad=True)
        tape = nd.GradientTape({"used": used, "unused": unused})
        grads = tape.gradients(nd.mean(used))
        np.testing.assert_array_equal(grads["unused"], [[0.0]])
        assert grads["unused"].dtype == np.float64

    def test_implicit_seed_needs_single_element(self):
        x = nd.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(nd.ShapeError):
            nd.backward(nd.relu(x))

    def test_backward_without_grad_graph_raises(self):
        x = nd.Tensor(np.ones(3))
        with pytest.raises(ValueError):
            nd.backward(nd.mean(nd.relu(x)))


class TestErrors:
    def test_shape_mismatches(self):
        a = nd.Tensor(np.ones((2, 3)))
        b = nd.Tensor(np.ones((4, 5)))
        with pytest.raises(nd.ShapeError):
            nd.matmul(a, b)
        with pytest.raises(nd.ShapeError):
            nd.add(a, b)
        with pytest.raises(nd.ShapeError):
            nd.add_rowvec(a, nd.Tensor(np.ones(4)))
        with pytest.raises(nd.ShapeError):
            nd.row_scale(a, nd.Tensor(np.ones(3)))

    def test_segment_ids_out_of_range(self):
        v = nd.Tensor(np.ones((3, 2)))
        with pytest.raises(nd.ShapeError):
            nd.segment_sum(v, np.array([0, 1, 5]), 3)

    def test_gather_index_out_of_range(self):
        x = nd.Tensor(np.ones((3, 2)))
        with pytest.raises(nd.ShapeError):
            nd.gather_rows(x, np.array([0, 3]))

    def test_non_finite_result_raises_with_op_name(self):
        big = nd.Tensor(np.array([[1e308]]))
        with np.errstate(over="ignore"), pytest.raises(nd.NonFiniteError, match="affine"):
            nd.affine(big, 10.0)

    def test_dropout_p_validation(self):
        x = nd.Tensor(np.ones(3))
        with pytest.raises(ValueError):
            nd.dropout(x, 1.0, True, key=0)

    def test_tape_rejects_non_grad_parameter(self):
        with pytest.raises(ValueError):
            nd.GradientTape({"p": nd.Tensor(np.ones(2))})


class TestPrecision:
    def test_default_is_float64(self):
        assert nd.Tensor([1, 2, 3]).data.dtype == np.float64

    def test_optional_single_precision(self):
        x = nd.Tensor(np.ones((2, 2)), dtype=np.float32)
        y = nd.matmul(x, x)
        assert y.data.dtype == np.float32


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(33)
        params = {
            "layer.W": nd.Tensor(rng.normal(size=(4, 3)), requires_grad=True),
            "layer.b": nd.Tensor(rng.normal(size=3), requires_grad=True),
            "head.w": nd.Tensor(rng.normal(size=(3, 1)), requires_grad=True),
        }
        nd.save_checkpoint(str(tmp_path), params)
        loaded = nd.load_checkpoint(str(tmp_path))
        assert list(loaded) == list(params)
        for name, p in params.items():
            np.testing.assert_array_equal(loaded[name], p.data)

    def test_blob_is_little_endian_f64_in_manifest_order(self, tmp_path):
        params = {
            "a": nd.Tensor(np.array([[1.0, 2.0]]), requires_grad=True),
            "b": nd.Tensor(np.array([3.0]), requires_grad=True),
        }
        nd.save_checkpoint(str(tmp_path), params)
        blob = np.fromfile(tmp_path / "params.bin", dtype="<f8")
        np.testing.assert_array_equal(blob, [1.0, 2.0, 3.0])
