"""Per-layer tracing from outside the program.

``Tracer`` wraps public functions of the pmpfraud modules at the name each
caller looks up (``from .x import y`` binds a copy, so the copy the caller
holds is the one replaced), records an inclusive and a self time per span
name, and counts work at the same boundaries. Nothing under src/ is edited;
leaving the ``with`` block restores every original.

Self time is a span's duration minus the part of it its child spans cover.
Bookkeeping the tracer does itself (recomputing frontiers, scanning
gradients) runs on a paused clock, so it is charged to no span.
"""
from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict

import numpy as np

# The smallest normal float64. pmpfraud's sigmoid clamps into
# [_TINY, _PROB_HI], so a probability equal to either bound sits at the clamp.
_TINY = np.finfo(np.float64).tiny
_PROB_HI = np.nextafter(1.0, 0.0)

NDIFF_OPS = (
    "matmul", "add", "sub", "mul", "add_rowvec", "row_scale", "affine", "sigmoid", "relu",
    "segment_sum", "gather_rows", "dropout", "concat", "mean", "binary_cross_entropy", "reshape",
)


class Tracer:
    """Context manager that installs the wrappers and collects metrics."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0.0, 0.0, 0])  # name -> [inclusive, self, calls]
        self.counts = defaultdict(float)
        self.top_level_s = 0.0
        self.missing = []  # wrap targets that no longer exist
        self._stack = []  # [name, time covered by children] per open span
        self._paused = 0.0
        self._restore = []

    # -- clock and spans ---------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextlib.contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    def timed(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            start = tracer.now()
            tracer._stack.append([name, 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                _, child = tracer._stack.pop()
                dur = tracer.now() - start
                span = tracer.spans[name]
                span[0] += dur
                span[1] += dur - child
                span[2] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                else:
                    tracer.top_level_s += dur
                if name == "training.forward_scores" and any(f[0] == "training.train" for f in tracer._stack):
                    tracer.spans["training.val_pass"][0] += dur

        return wrapper

    def _patch(self, owner, attr: str, make):
        """Replace ``owner.attr`` with ``make(original)`` until exit."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._restore.append((owner, attr, raw))

    def _span(self, owner, attr: str, name: str):
        self._patch(owner, attr, lambda fn: self.timed(name, fn))

    # -- installation --------------------------------------------------------

    def __enter__(self):
        from pmpfraud import bundle, graph, layer, metrics, model, ndiff, training

        self._neighbor_segments = graph.RelationalGraph.neighbor_segments
        self._patch(bundle, "load_bundle", self._wrap_load_bundle)
        self._span(graph.PartitionIndex, "build", "graph.partition_build")
        self._patch(graph.RelationalGraph, "neighbor_segments", self._wrap_neighbor_segments)
        self._patch(graph.PartitionIndex, "bucket_segments", self._wrap_bucket_segments)
        self._patch(training, "model_forward", self._wrap_model_forward)
        self._span(training, "loss_fn", "model.loss")
        self._span(model, "layer_forward", "layer.layer_forward")
        self._span(layer, "aggregate_segments", "layer.aggregate_segments")
        self._span(layer, "alpha_gate", "layer.alpha_gate")
        for op in NDIFF_OPS:
            self._patch(ndiff, op, lambda fn, op=op: self._wrap_op(op, fn))
        self._patch(ndiff.GradientTape, "gradients", self._wrap_gradients)
        self._span(training.Adam, "step", "training.adam_step")
        self._span(training, "train", "training.train")
        self._span(training, "forward_scores", "training.forward_scores")
        self._span(training, "evaluate", "training.evaluate")
        self._span(metrics, "auc", "metrics.auc")
        self._span(metrics, "compute_report", "metrics.compute_report")
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)
        return False

    # -- wrappers that also count --------------------------------------------

    def _wrap_load_bundle(self, fn):
        timed = self.timed("bundle.load_bundle", fn)

        def load_bundle(path):
            out = timed(path)
            with self.paused():
                for entry in os.scandir(path):
                    self.counts["bundle.bytes_read"] += entry.stat().st_size
            return out

        return load_bundle

    def _wrap_neighbor_segments(self, fn):
        timed = self.timed("graph.neighbor_segments", fn)

        def neighbor_segments(graph, relation, centers):
            members, seg_ids = timed(graph, relation, centers)
            self.counts["graph.neighbor_members"] += members.size
            return members, seg_ids

        return neighbor_segments

    def _wrap_bucket_segments(self, fn):
        timed = self.timed("graph.bucket_segments", fn)

        def bucket_segments(partition, relation, centers):
            segs = timed(partition, relation, centers)
            self.counts["graph.bucket_members"] += segs.fr_members.size + segs.be_members.size + segs.un_members.size
            return segs

        return bucket_segments

    def _wrap_model_forward(self, fn):
        timed = self.timed("model.model_forward", fn)
        neighbor_segments = self._neighbor_segments

        def model_forward(model, graph, partition, features, batch, *args, **kwargs):
            probs = timed(model, graph, partition, features, batch, *args, **kwargs)
            with self.paused():
                # Layer-0 rows the forward needs, rebuilt from the public graph API.
                batch = np.asarray(batch, dtype=np.int64)
                for r in range(graph.num_relations):
                    front = batch
                    for _ in range(model.config.num_layers):
                        members, _ = neighbor_segments(graph, r, front)
                        front = np.union1d(front, members)
                    self.counts["model.frontier_rows"] += front.size
                    self.counts["model.requested_rows"] += batch.size
                if kwargs.get("training", False):
                    p = probs.data
                    self.counts["model.train_probs"] += p.size
                    self.counts["model.train_probs_clamped"] += int(((p <= _TINY) | (p >= _PROB_HI)).sum())
            return probs

        return model_forward

    def _wrap_op(self, op: str, fn):
        timed = self.timed(f"ndiff.fwd.{op}", fn)
        counts = self.counts
        if op == "matmul":
            def wrapper(a, b):
                counts["ndiff.fwd.matmul_gflop"] += 2e-9 * a.data.shape[0] * a.data.shape[1] * b.data.shape[1]
                return timed(a, b)
        elif op == "gather_rows":
            def wrapper(x, indices):
                counts["ndiff.fwd.gather_rows_mb"] += 1e-6 * np.size(indices) * x.data.shape[1] * x.data.itemsize
                return timed(x, indices)
        elif op == "segment_sum":
            def wrapper(values, segment_ids, num_segments):
                counts["ndiff.fwd.segment_sum_mb"] += 1e-6 * values.data.nbytes
                return timed(values, segment_ids, num_segments)
        else:
            wrapper = timed
        return wrapper

    def _wrap_gradients(self, fn):
        def gradients(tape, loss, trace=None):
            ops = [] if trace is None else trace
            grads = fn(tape, loss, trace=ops)
            with self.paused():
                for op in ops:
                    self.counts[f"ndiff.bwd.{op}_calls"] += 1
                for g in grads.values():
                    a = np.abs(g)
                    self.counts["ndiff.grad_entries"] += a.size
                    self.counts["ndiff.grad_subnormal"] += int(((a > 0) & (a < _TINY)).sum())
            return grads

        return self.timed("ndiff.backward", gradients)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Flat {name: value} of every span time, call count and counter."""
        out = {}
        for name, (incl, self_s, calls) in self.spans.items():
            out[f"{name}_s"] = incl
            if calls:
                out[f"{name}_calls"] = calls
        out["model.model_forward_self_s"] = self.spans["model.model_forward"][1]
        out["layer.self_s"] = self.spans["layer.layer_forward"][1]
        out["training.self_s"] = self.spans["training.train"][1]
        out["training.adam_steps"] = self.spans["training.adam_step"][2]
        c = self.counts
        for key in ("bundle.bytes_read", "graph.neighbor_members", "graph.bucket_members", "model.frontier_rows",
                    "ndiff.fwd.matmul_gflop", "ndiff.fwd.gather_rows_mb", "ndiff.fwd.segment_sum_mb"):
            out[key] = c[key]
        out.update({k: v for k, v in c.items() if k.startswith("ndiff.bwd.")})
        out["model.frontier_useful_share"] = _share(c["model.requested_rows"], c["model.frontier_rows"])
        out["model.prob_clamped_share"] = _share(c["model.train_probs_clamped"], c["model.train_probs"])
        out["ndiff.grad_subnormal_share"] = _share(c["ndiff.grad_subnormal"], c["ndiff.grad_entries"])
        return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
