"""Differentiation engine checks: every operator against central finite
differences, plus the structural guarantees of the reverse pass."""
import ast
import glob
import json
import math
import os
import platform
import subprocess
import sys
import threading

import numpy as np
import pytest

from pmpfraud import ndiff as nd

from .reference import (
    add, add_at_rows, add_rowvec, affine, concat, grad_check, matmul, mean, mul, relu, reshape, row_scale, sub,
)


def fd_tensor(rng, shape, low=0.2, high=1.5):
    """Random values bounded away from zero, safe around ReLU kinks."""
    signs = rng.choice([-1.0, 1.0], size=shape)
    return nd.Tensor(rng.uniform(low, high, size=shape) * signs, requires_grad=True)


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
        run_op_check({"a": a, "v": v}, lambda: mean(nd.sigmoid(add_rowvec(a, v))))

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
        run_op_check({"a": a}, lambda: mean(nd.sigmoid(a)))

    def test_relu(self):
        rng = np.random.default_rng(7)
        a = fd_tensor(rng, (5, 5))
        run_op_check({"a": a}, lambda: mean(relu(a)))

    def test_segment_sum(self):
        rng = np.random.default_rng(8)
        x = fd_tensor(rng, (4, 3))
        rows = np.array([3, 0, 3, 1, 2, 0, 3])  # unsorted, repeated, across segments
        seg = np.array([2, 0, 0, 4, 2, 2, 1])  # segment 3 stays empty
        run_op_check({"x": x}, lambda: mean(nd.sigmoid(nd.gather_segment_sum(x, rows, seg, 5))))

    def test_gather_rows(self):
        rng = np.random.default_rng(9)
        x = fd_tensor(rng, (6, 3))
        idx = np.array([5, 0, 0, 2, 4])
        run_op_check({"x": x}, lambda: mean(nd.sigmoid(nd.gather_rows(x, idx))))

    def test_dropout_fixed_key(self):
        rng = np.random.default_rng(10)
        x = fd_tensor(rng, (8, 4))
        run_op_check({"x": x}, lambda: mean(nd.dropout(x, 0.4, key=(3, 1, 0, 2))))

    def test_concat(self):
        rng = np.random.default_rng(11)
        a = fd_tensor(rng, (3, 2))
        b = fd_tensor(rng, (3, 4))
        run_op_check({"a": a, "b": b}, lambda: mean(nd.sigmoid(concat([a, b], axis=1))))

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
        run_op_check({"raw": raw}, lambda: nd.binary_cross_entropy(raw, targets, weights))

    def test_composite_expression(self):
        rng = np.random.default_rng(14)
        w1 = fd_tensor(rng, (3, 4))
        w2 = fd_tensor(rng, (4, 1))
        x = nd.Tensor(rng.normal(size=(6, 3)))
        y = rng.integers(0, 2, size=6).astype(np.float64)

        def fn():
            hidden = relu(matmul(x, w1))
            return nd.binary_cross_entropy(reshape(matmul(hidden, w2), (6,)), y, np.ones(6))

        run_op_check({"w1": w1, "w2": w2}, fn)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_column_major_parameter(self, order):
        # NodeTable stores features column-major; a flat reshape of such a
        # parameter is a copy that a perturbation would never reach.
        rng = np.random.default_rng(15)
        p = fd_tensor(rng, (3, 2))
        p.data = np.asarray(p.data, order=order)
        w = nd.Tensor(rng.normal(size=(2, 4)))
        run_op_check({"p": p}, lambda: mean(matmul(mul(p, p), w)))
        assert p.data.flags.f_contiguous == (order == "F")


class TestOperatorValues:
    def test_identity_loss_gradient_is_exactly_one(self):
        p = nd.Tensor(np.array([1.7]), requires_grad=True)
        out = mean(p)
        nd.backward(out)
        assert p.grad[0] == 1.0

    def test_sigmoid_at_zero(self):
        x = nd.Tensor(np.array([0.0]), requires_grad=True)
        y = nd.sigmoid(x)
        assert y.data[0] == 0.5
        nd.backward(mean(y))
        assert x.grad[0] == 0.25

    def test_sigmoid_open_interval_under_saturation(self):
        y = nd.sigmoid(nd.Tensor(np.array([-1e4, -50.0, 50.0, 1e4])))
        assert np.all(y.data > 0.0)
        assert np.all(y.data < 1.0)

    def test_relu_values(self):
        y = relu(nd.Tensor(np.array([[-3.0, 0.0, 2.0]])))
        np.testing.assert_array_equal(y.data, [[0.0, 0.0, 2.0]])

    def test_segment_sum_values_and_empty_segment(self):
        x = nd.Tensor(np.array([[1.0], [2.0], [3.0]]), requires_grad=True)
        out = nd.gather_segment_sum(x, np.array([0, 1, 2, 1]), np.array([0, 0, 2, 2]), 3)
        np.testing.assert_array_equal(out.data, [[3.0], [0.0], [5.0]])
        nd.backward(out, seed=np.array([[5.0], [7.0], [11.0]]))
        np.testing.assert_array_equal(x.grad, [[5.0], [16.0], [11.0]])

    @pytest.mark.parametrize("weights", [[1.0, 1.0], [3.0, 1.0]])
    def test_bce_at_half_is_ln2(self, weights):
        out = nd.binary_cross_entropy(nd.Tensor(np.zeros(2)), np.array([1.0, 0.0]), np.array(weights))
        assert out.shape == ()
        assert out.data == math.log(2.0)

    def test_bce_clamps_certain_predictions(self):
        out = nd.binary_cross_entropy(nd.Tensor(np.array([1e4, -1e4])), np.array([1.0, 0.0]), np.ones(2))
        assert 0.0 < out.data < 2e-12

    def test_bce_is_the_weighted_mean(self):
        z, t, w = np.array([0.8, -1.4, 2.2]), np.array([1.0, 0.0, 0.0]), np.array([3.0, 1.0, 0.5])
        out = nd.binary_cross_entropy(nd.Tensor(z), t, w)
        per_example = np.logaddexp(0.0, np.where(t == 1, -z, z))  # -log sigma(z), -log(1 - sigma(z))
        assert abs(out.data - (w * per_example).sum() / w.sum()) < 1e-15

    @pytest.mark.parametrize("target", [0.0, 1.0])
    def test_bce_of_sigmoid_takes_adjoint_in_logit_space(self, target):
        z = nd.Tensor(np.array([-1e4, -800.0, -720.0, -30.0, 0.0, 30.0, 800.0, 1e4]), requires_grad=True)
        t = np.full(z.size, target)
        n = z.size
        trace = []
        nd.backward(nd.binary_cross_entropy(z, t, np.ones(n)), trace=trace)
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

    def test_dropout_at_zero_rate_is_identity(self):
        x = nd.Tensor(np.ones((4, 4)), requires_grad=True)
        assert nd.dropout(x, 0.0, key=0) is x

    def test_dropout_mask_replays_by_key(self):
        x = nd.Tensor(np.ones((16, 16)))
        a = nd.dropout(x, 0.5, key=(7, 2, 1, 0))
        b = nd.dropout(x, 0.5, key=(7, 2, 1, 0))
        c = nd.dropout(x, 0.5, key=(7, 2, 1, 1))
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
        out = nd.dropout(nd.Tensor(np.ones((16, 16))), 0.25, key=key)
        np.testing.assert_array_equal(out.data, keep / 0.75)

    def test_mean_value(self):
        x = nd.Tensor(np.array([[1.0, 2.0], [3.0, 6.0]]))
        assert mean(x).data == 3.0


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
        out = nd.gather_segment_sum(nd.Tensor(x), rows, ids, self.K).data
        expected = add_at_rows(x[rows], ids, self.K)
        assert np.array_equal(out, expected)
        assert not out[4].any() and not out[-1].any()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_segment_sum_backward(self, seed):
        # Row r collects, in input order, the upstream gradient of every
        # segment it was added to.
        rows, ids, x = self.gather_case(seed)
        _, upstream = self.case(seed + 10, m=self.K)
        t = nd.Tensor(x, requires_grad=True)
        nd.backward(nd.gather_segment_sum(t, rows, ids, self.K), seed=upstream)
        assert np.array_equal(t.grad, add_at_rows(upstream[ids], rows, self.N))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gather_rows_backward(self, seed):
        ids, upstream = self.case(seed)
        x = nd.Tensor(np.ones((self.K, upstream.shape[1])), requires_grad=True)
        nd.backward(nd.gather_rows(x, ids), seed=upstream)
        assert np.array_equal(x.grad, add_at_rows(upstream, ids, self.K))

class TestReversePass:
    def test_fanout_accumulates_additively(self):
        x = nd.Tensor(np.array([1.0, 2.0, 3.0, 4.0]), requires_grad=True)
        a = affine(x, 2.0)
        b = affine(x, 3.0)
        out = mean(add(a, b))
        nd.backward(out)
        np.testing.assert_array_equal(x.grad, np.full(4, 5.0 / 4.0))

    def test_each_recorded_op_visited_exactly_once(self):
        x = nd.Tensor(np.array([0.3, -0.2]), requires_grad=True)
        a = nd.sigmoid(x)
        b = relu(x)
        out = mean(add(a, b))
        trace = []
        nd.backward(out, trace=trace)
        assert sorted(trace) == ["add", "mean", "relu", "sigmoid"]

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(20)
        w = nd.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        x = nd.Tensor(rng.normal(size=(5, 3)))
        tape = nd.GradientTape({"w": w})

        def f():
            return mean(nd.sigmoid(matmul(x, w)))

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
            x = nd.Tensor(x_data, requires_grad=x_grad)
            w = nd.Tensor(w_data, requires_grad=True)
            out = matmul(x, w)
            gx, gw = out._vjp(g)
            assert (gx is None) == (not x_grad)
            nd.backward(mean(nd.sigmoid(out)))
            grads.append(w.grad)
        np.testing.assert_array_equal(grads[0], grads[1])
        x = nd.Tensor(x_data, requires_grad=True)
        gx, gw = matmul(x, nd.Tensor(w_data))._vjp(g)
        assert gw is None
        np.testing.assert_array_equal(gx, g @ w_data.T)

    def test_unreached_parameter_gets_exact_zero(self):
        used = nd.Tensor(np.array([[1.0]]), requires_grad=True)
        unused = nd.Tensor(np.array([[2.0]]), requires_grad=True)
        tape = nd.GradientTape({"used": used, "unused": unused})
        grads = tape.gradients(mean(used))
        np.testing.assert_array_equal(grads["unused"], [[0.0]])
        assert grads["unused"].dtype == np.float64

    def test_implicit_seed_needs_single_element(self):
        x = nd.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(nd.ShapeError):
            nd.backward(relu(x))

    def test_backward_without_grad_graph_raises(self):
        x = nd.Tensor(np.ones(3))
        with pytest.raises(ValueError):
            nd.backward(mean(relu(x)))


class TestNoGrad:
    def test_records_nothing_and_keeps_finiteness_check(self):
        w = nd.Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        with nd.no_grad():
            out = relu(matmul(nd.Tensor(np.ones((3, 1))), w))
            with pytest.raises(nd.NonFiniteError):
                affine(w, np.inf)
        assert not out.requires_grad and out._parents == () and out._vjp is None
        np.testing.assert_array_equal(out.data, np.maximum(np.ones((3, 1)) @ w.data, 0.0))
        assert relu(w)._parents == (w,)

    def test_backward_from_a_no_grad_output_raises(self):
        w = nd.Tensor(np.array([0.5, 1.5]), requires_grad=True)
        with nd.no_grad():
            out = mean(nd.sigmoid(w))
        with pytest.raises(ValueError, match="does not depend on any gradient-enabled tensor"):
            nd.backward(out)

    def test_scope_is_restored_after_an_error_and_when_nested(self):
        w = nd.Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(nd.NonFiniteError):
            with nd.no_grad():
                affine(w, np.nan)
        assert relu(w).requires_grad
        with nd.no_grad():
            with nd.no_grad():
                assert not relu(w).requires_grad
            assert not relu(w).requires_grad
        assert relu(w).requires_grad

    def test_scope_in_one_thread_does_not_stop_recording_in_another(self):
        w = nd.Tensor(np.ones(2), requires_grad=True)
        entered, checked = threading.Event(), threading.Event()
        inside = []

        def score():
            with nd.no_grad():
                entered.set()
                checked.wait(timeout=30)
                inside.append(relu(w).requires_grad)

        worker = threading.Thread(target=score)
        worker.start()
        assert entered.wait(timeout=30)
        recorded = relu(w)
        checked.set()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert recorded.requires_grad and recorded._parents == (w,)
        assert inside == [False]


class TestErrors:
    def test_shape_mismatches(self):
        a = nd.Tensor(np.ones((2, 3)))
        b = nd.Tensor(np.ones((4, 5)))
        with pytest.raises(nd.ShapeError):
            matmul(a, b)
        with pytest.raises(nd.ShapeError):
            add(a, b)
        with pytest.raises(nd.ShapeError):
            add_rowvec(a, nd.Tensor(np.ones(4)))
        with pytest.raises(nd.ShapeError):
            row_scale(a, nd.Tensor(np.ones(3)))

    def test_segment_ids_out_of_range(self):
        x = nd.Tensor(np.ones((3, 2)))
        rows = np.array([0, 1, 2])
        for ids in ([0, 1, 5], [0, 3, 1], [0, -1, 1]):
            with pytest.raises(nd.ShapeError, match="segment id out of range"):
                nd.gather_segment_sum(x, rows, np.array(ids), 3)

    def test_segment_rows_out_of_range(self):
        x = nd.Tensor(np.ones((3, 2)))
        ids = np.array([0, 1, 2])
        for rows in ([0, 3, 1], [0, -1, 1]):
            with pytest.raises(nd.ShapeError, match="row index out of range"):
                nd.gather_segment_sum(x, np.array(rows), ids, 3)
        with pytest.raises(nd.ShapeError):
            nd.gather_segment_sum(x, np.array([0, 1]), ids, 3)

    def test_gather_index_out_of_range(self):
        x = nd.Tensor(np.ones((3, 2)))
        with pytest.raises(nd.ShapeError):
            nd.gather_rows(x, np.array([0, 3]))

    def test_non_finite_result_raises_with_op_name(self):
        big = nd.Tensor(np.array([[1e308]]))
        with np.errstate(over="ignore"), pytest.raises(nd.NonFiniteError, match="affine"):
            affine(big, 10.0)

    @pytest.mark.parametrize("n_probs, n_targets, n_weights", [(3, 3, 2), (3, 2, 2), (0, 0, 0)],
                             ids=["weights", "targets", "empty"])
    def test_bce_shape_errors(self, n_probs, n_targets, n_weights):
        with pytest.raises(nd.ShapeError, match="binary_cross_entropy"):
            nd.binary_cross_entropy(nd.Tensor(np.zeros(n_probs)), np.ones(n_targets), np.ones(n_weights))

    def test_dropout_p_validation(self):
        x = nd.Tensor(np.ones(3))
        with pytest.raises(ValueError):
            nd.dropout(x, 1.0, key=0)

    def test_tape_rejects_non_grad_parameter(self):
        with pytest.raises(ValueError):
            nd.GradientTape({"p": nd.Tensor(np.ones(2))})


class TestPrecision:
    @pytest.mark.parametrize("values", [[1, 2, 3], np.ones(3, dtype=np.float32), np.ones(3)])
    def test_default_is_float64(self, values):
        assert nd.Tensor(values).data.dtype == np.float64

    def test_no_dtype_option(self):
        with pytest.raises(TypeError):
            nd.Tensor(np.ones(2), dtype=np.float32)


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
    engine keeps the freed block for reuse."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nd.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", _REFAULT_PROBE], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert int(out) < 256


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

    def test_manifest_without_digest_still_loads(self, tmp_path):
        params = {"a": nd.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)}
        nd.save_checkpoint(str(tmp_path), params)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["sha256"]
        manifest_path.write_text(json.dumps(manifest))
        np.testing.assert_array_equal(nd.load_checkpoint(str(tmp_path))["a"], [[1.0, 2.0]])

    def test_malformed_manifest_names_the_file(self, tmp_path):
        params = {"a": nd.Tensor(np.array([1.0]), requires_grad=True)}
        nd.save_checkpoint(str(tmp_path), params)
        (tmp_path / "manifest.json").write_text('{"params": [{"name": "a"}]}')
        with pytest.raises(ValueError, match="manifest.json"):
            nd.load_checkpoint(str(tmp_path))

    def test_save_leaves_no_temp_files(self, tmp_path):
        params = {"a": nd.Tensor(np.array([1.0]), requires_grad=True)}
        nd.save_checkpoint(str(tmp_path), params)
        nd.save_checkpoint(str(tmp_path), params)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "params.bin"]


def _ndiff_names_used_by_the_program():
    """Names every module of the package but ``ndiff`` itself reads from
    ``ndiff``: attributes of the module under any alias, and names imported
    from it."""
    package = os.path.dirname(os.path.abspath(nd.__file__))
    used = set()
    for path in glob.glob(os.path.join(package, "*.py")):
        if os.path.basename(path) == "ndiff.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module == "ndiff":
                    used.update(a.name for a in node.names)
                elif node.module is None:
                    aliases.update(a.asname or a.name for a in node.names if a.name == "ndiff")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                used.add(node.attr)
    return used


def test_every_exported_name_has_a_caller_in_the_program():
    # An operator or helper that only the tests call belongs with the test
    # oracles (tests/reference.py), not in the engine.
    unused = sorted(set(nd.__all__) - _ndiff_names_used_by_the_program())
    assert unused == [], f"ndiff exports names no module of the package reads: {unused}"
