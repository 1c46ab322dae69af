"""Kernel and engine checks: every operator against central finite
differences, the kernels' adjoints against an unbuffered scatter-add, the
structural guarantees of the engine's reverse pass (the test oracle in
``reference.py``), and the file helpers of ``files``."""
import ast
import glob
import math
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

from pmpfraud import files
from pmpfraud import ndiff as nd

from .reference import (
    GradientTape, Tensor, add, add_at_rows, add_rowvec, affine, backward, binary_cross_entropy, concat, dropout,
    gather_rows, gather_segment_sum, grad_check, matmul, mean, mul, relu, reshape, row_scale, sigmoid, sub,
)


def fd_tensor(rng, shape, low=0.2, high=1.5):
    """Random values bounded away from zero, safe around ReLU kinks."""
    signs = rng.choice([-1.0, 1.0], size=shape)
    return Tensor(rng.uniform(low, high, size=shape) * signs, requires_grad=True)


def run_op_check(params, fn, tolerance=1e-6):
    report = grad_check(fn, params, tolerance=tolerance)
    assert report.passed, str(report)


class TestOperatorGradients:
    """Gradient of every operator matches central finite differences."""

    def test_matmul(self):
        rng = np.random.default_rng(1)
        a = fd_tensor(rng, (4, 3))
        b = fd_tensor(rng, (3, 5))
        run_op_check({"a": a, "b": b}, lambda: mean(matmul(a, b)))

    def test_add_sub_mul(self):
        rng = np.random.default_rng(2)
        a = fd_tensor(rng, (5, 4))
        b = fd_tensor(rng, (5, 4))
        run_op_check({"a": a, "b": b}, lambda: mean(add(a, b)))
        run_op_check({"a": a, "b": b}, lambda: mean(sub(a, b)))
        run_op_check({"a": a, "b": b}, lambda: mean(mul(a, b)))

    def test_add_rowvec(self):
        rng = np.random.default_rng(3)
        a = fd_tensor(rng, (6, 3))
        v = fd_tensor(rng, (3,))
        run_op_check({"a": a, "v": v}, lambda: mean(sigmoid(add_rowvec(a, v))))

    def test_row_scale(self):
        rng = np.random.default_rng(4)
        a = fd_tensor(rng, (6, 3))
        s = fd_tensor(rng, (6,))
        run_op_check({"a": a, "s": s}, lambda: mean(row_scale(a, s)))

    def test_affine(self):
        rng = np.random.default_rng(5)
        a = fd_tensor(rng, (4, 4))
        run_op_check({"a": a}, lambda: mean(affine(a, -1.7, 0.4)))

    def test_sigmoid(self):
        rng = np.random.default_rng(6)
        a = fd_tensor(rng, (5, 2))
        run_op_check({"a": a}, lambda: mean(sigmoid(a)))

    def test_relu(self):
        rng = np.random.default_rng(7)
        a = fd_tensor(rng, (5, 5))
        run_op_check({"a": a}, lambda: mean(relu(a)))

    def test_segment_sum(self):
        rng = np.random.default_rng(8)
        x = fd_tensor(rng, (4, 3))
        rows = np.array([3, 0, 3, 1, 2, 0, 3])  # unsorted, repeated, across segments
        seg = np.array([2, 0, 0, 4, 2, 2, 1])  # segment 3 stays empty
        run_op_check({"x": x}, lambda: mean(sigmoid(gather_segment_sum(x, rows, seg, 5))))

    def test_gather_rows(self):
        rng = np.random.default_rng(9)
        x = fd_tensor(rng, (6, 3))
        idx = np.array([5, 0, 0, 2, 4])
        run_op_check({"x": x}, lambda: mean(sigmoid(gather_rows(x, idx))))

    def test_dropout_fixed_key(self):
        rng = np.random.default_rng(10)
        x = fd_tensor(rng, (8, 4))
        run_op_check({"x": x}, lambda: mean(dropout(x, 0.4, key=(3, 1, 0, 2))))

    def test_concat(self):
        rng = np.random.default_rng(11)
        a = fd_tensor(rng, (3, 2))
        b = fd_tensor(rng, (3, 4))
        run_op_check({"a": a, "b": b}, lambda: mean(sigmoid(concat([a, b], axis=1))))

    def test_reshape(self):
        rng = np.random.default_rng(12)
        a = fd_tensor(rng, (4, 3))
        run_op_check({"a": a}, lambda: mean(reshape(a, (12,))))

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit-weights", "weighted"])
    def test_binary_cross_entropy(self, weighted):
        rng = np.random.default_rng(13)
        raw = fd_tensor(rng, (10,))
        targets = rng.integers(0, 2, size=10).astype(np.float64)
        weights = rng.uniform(0.5, 4.0, size=10) if weighted else np.ones(10)
        run_op_check({"raw": raw}, lambda: binary_cross_entropy(raw, targets, weights))

    def test_composite_expression(self):
        rng = np.random.default_rng(14)
        w1 = fd_tensor(rng, (3, 4))
        w2 = fd_tensor(rng, (4, 1))
        x = Tensor(rng.normal(size=(6, 3)))
        y = rng.integers(0, 2, size=6).astype(np.float64)

        def fn():
            hidden = relu(matmul(x, w1))
            return binary_cross_entropy(reshape(matmul(hidden, w2), (6,)), y, np.ones(6))

        run_op_check({"w1": w1, "w2": w2}, fn)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_column_major_parameter(self, order):
        # NodeTable stores features column-major; a flat reshape of such a
        # parameter is a copy that a perturbation would never reach.
        rng = np.random.default_rng(15)
        p = fd_tensor(rng, (3, 2))
        p.data = np.asarray(p.data, order=order)
        w = Tensor(rng.normal(size=(2, 4)))
        run_op_check({"p": p}, lambda: mean(matmul(mul(p, p), w)))
        assert p.data.flags.f_contiguous == (order == "F")


class TestOperatorValues:
    def test_identity_loss_gradient_is_exactly_one(self):
        p = Tensor(np.array([1.7]), requires_grad=True)
        out = mean(p)
        backward(out)
        assert p.grad[0] == 1.0

    def test_sigmoid_at_zero(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        y = sigmoid(x)
        assert y.data[0] == 0.5
        backward(mean(y))
        assert x.grad[0] == 0.25

    def test_sigmoid_open_interval_under_saturation(self):
        y = sigmoid(Tensor(np.array([-1e4, -50.0, 50.0, 1e4])))
        assert np.all(y.data > 0.0)
        assert np.all(y.data < 1.0)

    def test_relu_values(self):
        y = relu(Tensor(np.array([[-3.0, 0.0, 2.0]])))
        np.testing.assert_array_equal(y.data, [[0.0, 0.0, 2.0]])

    def test_segment_sum_values_and_empty_segment(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0]]), requires_grad=True)
        out = gather_segment_sum(x, np.array([0, 1, 2, 1]), np.array([0, 0, 2, 2]), 3)
        np.testing.assert_array_equal(out.data, [[3.0], [0.0], [5.0]])
        backward(out, seed=np.array([[5.0], [7.0], [11.0]]))
        np.testing.assert_array_equal(x.grad, [[5.0], [16.0], [11.0]])

    @pytest.mark.parametrize("weights", [[1.0, 1.0], [3.0, 1.0]])
    def test_bce_at_half_is_ln2(self, weights):
        out = binary_cross_entropy(Tensor(np.zeros(2)), np.array([1.0, 0.0]), np.array(weights))
        assert out.shape == ()
        assert out.data == math.log(2.0)

    def test_bce_clamps_certain_predictions(self):
        out = binary_cross_entropy(Tensor(np.array([1e4, -1e4])), np.array([1.0, 0.0]), np.ones(2))
        assert 0.0 < out.data < 2e-12

    def test_bce_is_the_weighted_mean(self):
        z, t, w = np.array([0.8, -1.4, 2.2]), np.array([1.0, 0.0, 0.0]), np.array([3.0, 1.0, 0.5])
        out = binary_cross_entropy(Tensor(z), t, w)
        per_example = np.logaddexp(0.0, np.where(t == 1, -z, z))  # -log sigma(z), -log(1 - sigma(z))
        assert abs(out.data - (w * per_example).sum() / w.sum()) < 1e-15

    @pytest.mark.parametrize("target", [0.0, 1.0])
    def test_bce_of_sigmoid_takes_adjoint_in_logit_space(self, target):
        z = Tensor(np.array([-1e4, -800.0, -720.0, -30.0, 0.0, 30.0, 800.0, 1e4]), requires_grad=True)
        t = np.full(z.size, target)
        n = z.size
        trace = []
        backward(binary_cross_entropy(z, t, np.ones(n)), trace=trace)
        assert trace == ["binary_cross_entropy"]
        exact = np.exp(-np.logaddexp(0.0, -z.data))
        eps = np.finfo(np.float64).eps
        np.testing.assert_allclose(z.grad, (exact - t) / n, rtol=4 * eps, atol=eps / n)
        # Past |z| ~ 745 exp underflows: a correctly saturated score gives
        # an exact 0, a wrongly saturated one the full -+1/n, never a subnormal.
        far = np.abs(z.data) >= 746
        correct = (z.data > 0) == (target == 1.0)
        np.testing.assert_array_equal(z.grad[far & correct], 0.0)
        np.testing.assert_array_equal(z.grad[far & ~correct], (1.0 - 2.0 * target) / n)
        magnitude = np.abs(z.grad[far])
        assert not ((magnitude > 0) & (magnitude < np.finfo(np.float64).tiny)).any()

    def test_dropout_at_zero_rate_keeps_every_entry(self):
        x = np.random.default_rng(0).normal(size=(4, 4))
        out, adjoint = nd.dropout(x, 0.0, key=0)
        assert out.tobytes() == x.tobytes()
        assert adjoint(x).tobytes() == x.tobytes()

    def test_dropout_mask_replays_by_key(self):
        x = Tensor(np.ones((16, 16)))
        a = dropout(x, 0.5, key=(7, 2, 1, 0))
        b = dropout(x, 0.5, key=(7, 2, 1, 0))
        c = dropout(x, 0.5, key=(7, 2, 1, 1))
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)
        kept = a.data[a.data != 0]
        np.testing.assert_allclose(kept, 2.0)

    @pytest.mark.parametrize("key, seq", [
        pytest.param(5, np.random.SeedSequence(5), id="int"),
        pytest.param(np.int64(5), np.random.SeedSequence(5), id="np.int64"),
        pytest.param((7, 2, 1, 0), np.random.SeedSequence([7, 2, 1, 0]), id="tuple"),
        pytest.param([7, 2, 1, 0], np.random.SeedSequence([7, 2, 1, 0]), id="list"),
        pytest.param(np.random.SeedSequence(3, spawn_key=(0, 1, 2, 4)),
                     np.random.SeedSequence(3, spawn_key=(0, 1, 2, 4)), id="SeedSequence"),
    ])
    def test_dropout_mask_is_philox_of_the_key_seed_sequence(self, key, seq):
        # Every key form draws the mask Philox draws from its SeedSequence,
        # so reruns with any of them stay byte-identical.
        keep = np.random.Generator(np.random.Philox(seq)).random((16, 16)) >= 0.25
        out = dropout(Tensor(np.ones((16, 16))), 0.25, key=key)
        np.testing.assert_array_equal(out.data, keep / 0.75)

    def test_mean_value(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 6.0]]))
        assert mean(x).data == 3.0

    def test_in_place_relu_is_bitwise_the_branching_one(self):
        # -0.0 and negative subnormals must come out +0.0, positive subnormals as they are
        x = np.array([[-0.0, 0.0, -1.0, 5e-324], [-5e-324, 3.0, -1e308, 1e308]])
        want = np.where(x > 0, x, 0.0)
        x = np.concatenate([x, np.random.default_rng(0).standard_normal((64, 4))])
        want = np.concatenate([want, np.where(x[2:] > 0, x[2:], 0.0)])
        out = nd._relu_inplace(x)
        assert out is x
        assert out.tobytes() == want.tobytes()


class TestScatterMatchesAddAt:
    """gather_segment_sum, both ways, and the gather_rows adjoint are bitwise
    equal to an np.add.at oracle. Values span 16 decades, so any change in
    summation order shows up in the low bits."""

    K = 12
    N = 9

    def case(self, seed, m=300, d=5):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, self.K - 1, size=m)  # unsorted, repeated
        ids[ids == 4] = 7  # segments 4 and K - 1 stay empty
        values = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-8, 9, size=(m, d))
        return ids, values

    def gather_case(self, seed, m=300, d=5):
        ids, _ = self.case(seed, m, d)
        rng = np.random.default_rng(seed + 100)
        rows = rng.integers(0, self.N, size=m)  # unsorted, repeated
        x = rng.standard_normal((self.N, d)) * 10.0 ** rng.integers(-8, 9, size=(self.N, d))
        return rows, ids, x

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_segment_sum_forward(self, seed):
        rows, ids, x = self.gather_case(seed)
        out = gather_segment_sum(Tensor(x), rows, ids, self.K).data
        expected = add_at_rows(x[rows], ids, self.K)
        assert np.array_equal(out, expected)
        assert not out[4].any() and not out[-1].any()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_segment_sum_backward(self, seed):
        # Row r collects, in input order, the upstream gradient of every
        # segment it was added to.
        rows, ids, _ = self.gather_case(seed)
        _, upstream = self.case(seed + 10, m=self.K)
        got = nd.gather_segment_sum_adjoint(upstream, rows, ids, self.N)
        assert np.array_equal(got, add_at_rows(upstream[ids], rows, self.N))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gather_rows_backward(self, seed):
        ids, upstream = self.case(seed)
        assert np.array_equal(nd.scatter_rows(upstream, ids, self.K), add_at_rows(upstream, ids, self.K))


class TestSlicedMatchesColumns:
    """gather_segment_sum_sliced, on members grouped by segment, is bitwise
    both gather_segment_sum and an np.add.at oracle: the two kernels are
    interchangeable at every width. Values span 16 decades; ``tobytes``
    also tells a -0.0 from a 0.0."""

    K = 20
    N = 30

    def case(self, seed, d, lengths):
        rng = np.random.default_rng(seed)
        ids = np.repeat(np.arange(lengths.size), lengths)
        rows = rng.integers(0, self.N, size=ids.size)  # unsorted, repeated
        x = rng.standard_normal((self.N, d)) * 10.0 ** rng.integers(-8, 9, size=(self.N, d))
        return x, rows, ids

    def assert_all_equal(self, x, rows, ids, num_segments):
        sliced = nd.gather_segment_sum_sliced(x, rows, ids, num_segments)
        expected = add_at_rows(x[rows], ids, num_segments)
        assert sliced.tobytes() == expected.tobytes()
        assert sliced.tobytes() == nd.gather_segment_sum(x, rows, ids, num_segments).tobytes()
        return sliced

    @pytest.mark.parametrize("d", [1, 8, 31, 32, 33, 64])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_widths(self, d, seed):
        lengths = np.random.default_rng(seed + 50).integers(0, 9, size=self.K)
        lengths[[3, 11]] = 0
        out = self.assert_all_equal(*self.case(seed, d, lengths), self.K)
        assert not out[3].any() and not out[11].any()

    @pytest.mark.parametrize("per_segment", [4, 1], ids=["more-members-than-rows", "fewer-members-than-rows"])
    def test_column_major_rows(self, per_segment):
        # NodeTable stores features column-major; the rows read are the same
        x, rows, ids = self.case(3, 33, np.full(self.K, per_segment))
        self.assert_all_equal(np.asfortranarray(x), rows, ids, self.K)

    @pytest.mark.parametrize("d", [1, 32])
    def test_empty_member_list(self, d):
        x = np.ones((self.N, d))
        out = self.assert_all_equal(x, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), self.K)
        assert out.shape == (self.K, d) and not out.any()

    @pytest.mark.parametrize("d", [1, 32])
    def test_one_segment(self, d):
        self.assert_all_equal(*self.case(4, d, np.array([7])), 1)

    @pytest.mark.parametrize("d", [8, 32])
    def test_segments_past_the_slice_cap_finish_in_member_order(self, d):
        cap = nd._SLICE_CAP
        lengths = np.array([3, cap + 1, 0, 3 * cap + 5, cap, 2 * cap, 1])
        self.assert_all_equal(*self.case(5, d, lengths), lengths.size)

    @pytest.mark.parametrize("d", [1, 32])
    def test_negative_zeros_sum_to_the_same_zero(self, d):
        # a segment of -0.0 rows sums, from 0.0, to 0.0; one of a single
        # -0.0 too, and mixed signs cancel to 0.0 either way
        x = np.full((4, d), -0.0)
        x[2] = 1e-300
        x[3] = -1e-300
        rows, ids = np.array([0, 1, 0, 1, 2, 3, 3, 2]), np.array([0, 0, 1, 2, 2, 2, 3, 3])
        out = self.assert_all_equal(x, rows, ids, 4)
        assert not np.signbit(out).any()

    def test_unsorted_segment_ids_are_refused(self):
        with pytest.raises(nd.ShapeError, match="nondecreasing"):
            nd.gather_segment_sum_sliced(np.ones((3, 2)), np.array([0, 1, 2]), np.array([0, 2, 1]), 3)

    @pytest.mark.parametrize("drop", [1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, (1 << 17) + 2])
    def test_a_decrease_anywhere_is_refused(self, drop):
        # the ids are compared in blocks; a decrease across a block edge counts
        ids = np.ones((1 << 17) + 3, dtype=np.int64)
        ids[drop:] = 0
        with pytest.raises(nd.ShapeError, match="^op: segment ids must be nondecreasing$"):
            nd.check_nondecreasing(ids, "op")
        nd.check_nondecreasing(np.sort(ids), "op")

    def test_out_of_range_ids_are_refused(self):
        x = np.ones((3, 2))
        for ids in ([0, 1, 3], [-1, 0, 1]):
            with pytest.raises(nd.ShapeError, match="segment id out of range"):
                nd.gather_segment_sum_sliced(x, np.array([0, 1, 2]), np.array(ids), 3)
        for rows in ([0, 3, 1], [0, -1, 1]):
            with pytest.raises(nd.ShapeError, match="row index out of range"):
                nd.gather_segment_sum_sliced(x, np.array(rows), np.array([0, 1, 2]), 3)
        with pytest.raises(nd.ShapeError):
            nd.gather_segment_sum_sliced(x, np.array([0, 1]), np.array([0, 1, 2]), 3)
        with pytest.raises(nd.ShapeError, match="2-d"):
            nd.gather_segment_sum_sliced(np.ones(3), np.array([0]), np.array([0]), 1)

class TestReversePass:
    def test_fanout_accumulates_additively(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]), requires_grad=True)
        a = affine(x, 2.0)
        b = affine(x, 3.0)
        out = mean(add(a, b))
        backward(out)
        np.testing.assert_array_equal(x.grad, np.full(4, 5.0 / 4.0))

    def test_each_recorded_op_visited_exactly_once(self):
        x = Tensor(np.array([0.3, -0.2]), requires_grad=True)
        a = sigmoid(x)
        b = relu(x)
        out = mean(add(a, b))
        trace = []
        backward(out, trace=trace)
        assert sorted(trace) == ["add", "mean", "relu", "sigmoid"]

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(20)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 3)))
        tape = GradientTape({"w": w})

        def f():
            return mean(sigmoid(matmul(x, w)))

        def g():
            return mean(relu(matmul(x, w)))

        a, b = 2.5, -0.75
        grad_f = tape.gradients(f())["w"]
        grad_g = tape.gradients(g())["w"]
        combined = tape.gradients(add(affine(f(), a), affine(g(), b)))["w"]
        np.testing.assert_allclose(combined, a * grad_f + b * grad_g, rtol=0, atol=1e-12)

    def test_matmul_skips_adjoint_of_non_grad_operand(self):
        rng = np.random.default_rng(21)
        x_data, w_data = rng.normal(size=(5, 3)), rng.normal(size=(3, 4))
        g = rng.normal(size=(5, 4))
        grads = []
        for x_grad in (True, False):
            x = Tensor(x_data, requires_grad=x_grad)
            w = Tensor(w_data, requires_grad=True)
            out = matmul(x, w)
            gx, gw = out._vjp(g)
            assert (gx is None) == (not x_grad)
            backward(mean(sigmoid(out)))
            grads.append(w.grad)
        np.testing.assert_array_equal(grads[0], grads[1])
        x = Tensor(x_data, requires_grad=True)
        gx, gw = matmul(x, Tensor(w_data))._vjp(g)
        assert gw is None
        np.testing.assert_array_equal(gx, g @ w_data.T)

    def test_unreached_parameter_gets_exact_zero(self):
        used = Tensor(np.array([[1.0]]), requires_grad=True)
        unused = Tensor(np.array([[2.0]]), requires_grad=True)
        tape = GradientTape({"used": used, "unused": unused})
        grads = tape.gradients(mean(used))
        np.testing.assert_array_equal(grads["unused"], [[0.0]])
        assert grads["unused"].dtype == np.float64

    def test_implicit_seed_needs_single_element(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(nd.ShapeError):
            backward(relu(x))

    def test_backward_without_grad_graph_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(ValueError):
            backward(mean(relu(x)))


class TestErrors:
    def test_shape_mismatches(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((4, 5)))
        with pytest.raises(nd.ShapeError):
            matmul(a, b)
        with pytest.raises(nd.ShapeError):
            add(a, b)
        with pytest.raises(nd.ShapeError):
            add_rowvec(a, Tensor(np.ones(4)))
        with pytest.raises(nd.ShapeError):
            row_scale(a, Tensor(np.ones(3)))

    def test_segment_ids_out_of_range(self):
        x = Tensor(np.ones((3, 2)))
        rows = np.array([0, 1, 2])
        for ids in ([0, 1, 5], [0, 3, 1], [0, -1, 1]):
            with pytest.raises(nd.ShapeError, match="segment id out of range"):
                gather_segment_sum(x, rows, np.array(ids), 3)

    def test_segment_rows_out_of_range(self):
        x = Tensor(np.ones((3, 2)))
        ids = np.array([0, 1, 2])
        for rows in ([0, 3, 1], [0, -1, 1]):
            with pytest.raises(nd.ShapeError, match="row index out of range"):
                gather_segment_sum(x, np.array(rows), ids, 3)
        with pytest.raises(nd.ShapeError):
            gather_segment_sum(x, np.array([0, 1]), ids, 3)

    def test_gather_index_out_of_range(self):
        x = Tensor(np.ones((3, 2)))
        with pytest.raises(nd.ShapeError):
            gather_rows(x, np.array([0, 3]))

    def test_non_finite_result_raises_with_op_name(self):
        big = Tensor(np.array([[1e308]]))
        with np.errstate(over="ignore"), pytest.raises(nd.NonFiniteError, match="affine"):
            affine(big, 10.0)

    @pytest.mark.parametrize("n_probs, n_targets, n_weights", [(3, 3, 2), (3, 2, 2), (0, 0, 0)],
                             ids=["weights", "targets", "empty"])
    def test_bce_shape_errors(self, n_probs, n_targets, n_weights):
        with pytest.raises(nd.ShapeError, match="binary_cross_entropy"):
            binary_cross_entropy(Tensor(np.zeros(n_probs)), np.ones(n_targets), np.ones(n_weights))

    def test_dropout_p_validation(self):
        x = Tensor(np.ones(3))
        with pytest.raises(ValueError):
            dropout(x, 1.0, key=0)

    def test_tape_rejects_non_grad_parameter(self):
        with pytest.raises(ValueError):
            GradientTape({"p": Tensor(np.ones(2))})

    @pytest.mark.parametrize("op, call", [
        ("sigmoid", lambda: nd.sigmoid(np.array([0.5, np.nan]))),
        ("gather_rows", lambda: nd.gather_rows(np.array([[1.0], [np.inf]]), np.array([1, 0]))),
        ("gather_segment_sum", lambda: nd.gather_segment_sum(np.full((2, 1), 1.7e308), np.array([0, 1]),
                                                             np.array([0, 0]), 1)),
        ("gather_segment_sum_sliced", lambda: nd.gather_segment_sum_sliced(
            np.full((2, 40), 1.7e308), np.array([0, 1]), np.array([0, 0]), 1)),
        ("dropout", lambda: nd.dropout(np.full((8, 8), np.finfo(np.float64).max), 0.5, key=1)),
        ("binary_cross_entropy", lambda: nd.binary_cross_entropy(np.array([0.5, np.nan]), np.ones(2), np.ones(2))),
    ])
    def test_every_kernel_refuses_a_non_finite_result_naming_itself(self, op, call):
        with np.errstate(all="ignore"), pytest.raises(nd.NonFiniteError, match=f"^{op}: non-finite result$"):
            call()

    def test_tape_walk_needs_a_single_element_output(self):
        with pytest.raises(nd.ShapeError, match="single element"):
            nd.GradientTape({}).gradients(np.zeros(2))


class TestPrecision:
    @pytest.mark.parametrize("values", [[1, 2, 3], np.ones(3, dtype=np.float32), np.ones(3)])
    def test_default_is_float64(self, values):
        assert Tensor(values).data.dtype == np.float64

    def test_no_dtype_option(self):
        with pytest.raises(TypeError):
            Tensor(np.ones(2), dtype=np.float32)


# Frees a 16 MiB array, then counts the minor faults of touching a second one.
_REFAULT_PROBE = """
import resource
import numpy as np
import pmpfraud.ndiff

def touch():
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    np.ones(2 << 20)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start

touch()
print(touch())
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap thresholds are set on glibc only")
def test_freed_arrays_stay_in_the_heap():
    """In a fresh process glibc's default thresholds hand the first 16 MiB
    block back to the OS and fault the second one in again (484 or 995
    faults on a 2-core Linux VM with madvise huge pages); importing the
    package keeps the freed block for reuse."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nd.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", _REFAULT_PROBE], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert int(out) < 256


@pytest.mark.parametrize("fail", ["fsync", "replace"])
def test_a_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch, fail):
    path = tmp_path / "model.json"
    path.write_bytes(b"old")

    def failing(*args):
        raise OSError(f"{fail} failed")

    monkeypatch.setattr(os, fail, failing)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: cannot write: {fail} failed$"):
        files.write_file_atomic(str(path), b"new")
    monkeypatch.undo()
    assert path.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


def _package_modules():
    """Each module of the package, by name, as a syntax tree."""
    package = os.path.dirname(os.path.abspath(nd.__file__))
    trees = {}
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path) as fh:
            trees[os.path.basename(path)[:-3]] = ast.parse(fh.read(), filename=path)
    return trees


def _names_read_from(module: str) -> dict:
    """For each other module of the package, the names it reads from
    ``module``: attributes of the module under any alias, and names
    imported from it."""
    used = {}
    for name, tree in _package_modules().items():
        if name == module:
            continue
        aliases, names = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module == module:
                    names.update(a.name for a in node.names)
                elif node.module is None:
                    aliases.update(a.asname or a.name for a in node.names if a.name == module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                names.add(node.attr)
        if names or aliases:
            used[name] = names
    return used


def test_every_exported_name_has_a_caller_in_the_program():
    # An operator or helper that only the tests call belongs with the test
    # oracles (tests/reference.py), not in the package.
    for name, module in (("ndiff", nd), ("files", files)):
        unused = sorted(set(module.__all__).difference(*_names_read_from(name).values()))
        assert unused == [], f"{name} exports names no module of the package reads: {unused}"


def test_only_the_model_and_its_callers_import_the_numerics():
    # Settings, JSON and file writes live in ``files``; a module that needs
    # only those does not import the kernels.
    importers = set(_names_read_from("ndiff"))
    assert importers <= {"layer", "model", "training", "analysis", "cli"}, sorted(importers)


def test_the_numerics_import_no_file_or_system_module():
    imported = set()
    for node in ast.walk(_package_modules()["ndiff"]):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert imported & {"json", "os", "contextlib", "ctypes"} == set()
