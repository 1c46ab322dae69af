"""Dense tensors with reverse-mode differentiation over a fixed operator set.

The operator set is deliberately small: exactly what the message passing
model records itself (the clamped logistic, row gathers and segment sums,
dropout, and a clamped cross-entropy on logits that is the batch's
weighted mean). Each operator records its inputs and an adjoint rule on
the output tensor; ``backward`` replays the recorded graph once in reverse
topological order, accumulating gradients additively wherever a value fans
out. The message passing layer and the readout head are one operator
each: ``layer.layer_forward`` and ``model.readout`` record them through
``_make`` with adjoints written from their equations.

The cross-entropy takes logits and has one adjoint, taken in logit space:
each example's weighted sigma(z) - t. Scores saturated on the correct side
then send back an exact zero rather than a subnormal, and the rest of the
reverse pass runs on normal numbers.

Inside a ``no_grad()`` scope operators record nothing: read-only scoring
keeps no reverse graph, and each intermediate is freed as soon as the next
op has read it.

Everything is float64. Operators validate shapes up front and refuse to
emit non-finite values instead of letting NaN or Inf propagate silently.
"""
from __future__ import annotations

import contextlib
import contextvars
import ctypes
import json
import os

import numpy as np

__all__ = [
    "Tensor",
    "GradientTape",
    "no_grad",
    "ShapeError",
    "NonFiniteError",
    "backward",
    "sigmoid",
    "gather_segment_sum",
    "gather_rows",
    "dropout",
    "binary_cross_entropy",
    "check_setting",
    "read_json_object",
    "write_file_atomic",
    "write_csv_atomic",
]

# Probabilities are clamped into this closed interval before any log.
PROB_CLAMP = 1e-12

_SIGMOID_LO = np.finfo(np.float64).tiny
_SIGMOID_HI = np.nextafter(1.0, 0.0)

# glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_arrays():
    """Fix glibc's malloc thresholds so freed arrays stay in the heap.

    By default glibc serves large blocks with their own mmap, raises that
    threshold and the heap's trim threshold as such blocks are freed, and
    hands the heap's free top back to the OS once it passes the latter.
    Which of a batch's or a scoring pass's temporaries go back then depends
    on everything the process allocated before, and every page handed back
    faults in again when the next batch or pass touches it: on the
    benchmark's deep-ba graphs a whole-graph scoring pass took anywhere from
    0 to about 4,100 minor faults, differing from one process to the next.
    With blocks under 32 MiB always taken from the heap and up to 256 MiB
    of its free top kept, a pass takes a few dozen and a training run a few
    hundred, every time. Other C libraries are left as they are.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_arrays()


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested operator."""


class NonFiniteError(ArithmeticError):
    """An operator produced NaN or Inf."""


class Tensor:
    """A dense float64 array plus the adjoint rule of the operator that made it.

    Leaves are constructed directly (parameters pass requires_grad=True);
    every other tensor comes out of an operator below. ``grad`` is filled
    in by ``backward`` and has the same shape as ``data``.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


# False inside a ``no_grad()`` scope. A context variable, so a scope entered
# in one thread (or task) never stops recording in another.
_RECORDING = contextvars.ContextVar("ndiff_recording", default=True)


@contextlib.contextmanager
def no_grad():
    """Scope in which operators record no parents or adjoints.

    Results are still checked for finiteness, but none requires gradients,
    so ``backward`` from one raises. Scopes nest, and leaving one, by
    return or by exception, restores the state it was entered in.
    """
    token = _RECORDING.set(False)
    try:
        yield
    finally:
        _RECORDING.reset(token)


def _make(data, op: str, parents, vjp):
    """Wrap an operator result, keeping the graph only where gradients flow."""
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"{op}: non-finite result")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.op = op
    if _RECORDING.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    else:
        out.requires_grad = False
        out._parents = ()
        out._vjp = None
    return out


def _require_2d(x: Tensor, op: str):
    if x.data.ndim != 2:
        raise ShapeError(f"{op}: expected 2-d operand, got shape {x.data.shape}")


def backward(output: Tensor, seed=None, trace=None):
    """Run the reverse pass from ``output``.

    Accumulates into ``.grad`` of every reachable tensor that requires
    gradients. ``seed`` is the upstream gradient of ``output``; omitted, it
    defaults to ones and requires a single-element output. ``trace``, if a
    list, collects the op name of each recorded operation as it is visited
    (each exactly once).
    """
    if not output.requires_grad:
        raise ValueError("backward: output does not depend on any gradient-enabled tensor")
    if seed is None:
        if output.data.size != 1:
            raise ShapeError("backward: implicit seed requires a single-element output")
        seed = np.ones(output.data.shape)
    else:
        seed = np.asarray(seed, dtype=np.float64)
        if seed.shape != output.data.shape:
            raise ShapeError(
                f"backward: seed shape {seed.shape} does not match output shape {output.data.shape}"
            )

    # Iterative post-order walk; parents land before children in ``topo``.
    topo = []
    seen = set()
    stack = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    output.grad = seed.copy() if output.grad is None else output.grad + seed
    for node in reversed(topo):
        if node._vjp is None:
            continue
        if trace is not None:
            trace.append(node.op)
        parent_grads = node._vjp(node.grad)
        for parent, g in zip(node._parents, parent_grads):
            if g is None or not parent.requires_grad:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g


class GradientTape:
    """Named-parameter registry plus one reverse pass over a recorded graph.

    A tape is confined to one logical execution thread; independent tapes
    over disjoint graphs can run concurrently because all state lives on
    the tensors themselves, and a ``no_grad()`` scope covers only the
    thread that entered it.
    """

    def __init__(self, params: dict):
        for name, p in params.items():
            if not isinstance(p, Tensor) or not p.requires_grad:
                raise ValueError(f"GradientTape: parameter {name!r} is not a gradient-enabled Tensor")
        self.params = dict(params)

    def gradients(self, loss: Tensor, trace=None) -> dict:
        """Zero, run backward from ``loss``, and return grads keyed by name.

        Parameters the loss does not reach get exact zero gradients.
        """
        for p in self.params.values():
            p.grad = None
        backward(loss, trace=trace)
        return {
            name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for name, p in self.params.items()
        }


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _logistic(xd: np.ndarray) -> np.ndarray:
    """Numerically stable, unclamped logistic: exactly 0 or 1 once exp underflows."""
    out = np.empty_like(xd)
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _clamped_logistic(xd: np.ndarray) -> np.ndarray:
    """The logistic clamped into the open interval (0, 1)."""
    out = _logistic(xd)
    return np.clip(out, _SIGMOID_LO, _SIGMOID_HI, out=out)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic, clamped into the open interval (0, 1)."""
    out = _clamped_logistic(x.data)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _make(out, "sigmoid", (x,), vjp)


def _scatter_add_rows(values: np.ndarray, ids: np.ndarray, num_rows: int) -> np.ndarray:
    """Sum row i of [m, d] ``values`` into row ``ids[i]`` of a [num_rows, d] result.

    A flat bincount over cells ids[i] * d + j adds each cell's rows in input
    order from 0.0, as an unbuffered scatter-add does, so float64 results
    are bitwise equal to one. Ids must already lie in [0, num_rows).
    """
    d = values.shape[1]
    cells = (ids[:, None] * d + np.arange(d)).ravel()
    out = np.bincount(cells, weights=values.ravel(), minlength=num_rows * d)
    return out.reshape(num_rows, d)


def gather_segment_sum(x: Tensor, rows: np.ndarray, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """out[s] = sum of x[rows[i]] over every i with segment_ids[i] == s.

    Empty segments are zero rows. One bincount per column of x.T builds no
    [m, d] gathered copy or cell index; each cell adds in input order from
    0.0, bitwise as an unbuffered scatter-add. The adjoint swaps the ids.
    """
    _require_2d(x, "gather_segment_sum")
    rows, seg = np.asarray(rows, dtype=np.int64), np.asarray(segment_ids, dtype=np.int64)
    if rows.ndim != 1 or seg.shape != rows.shape:
        raise ShapeError(f"gather_segment_sum: rows shape {rows.shape} and ids shape {seg.shape} differ or are not 1-d")
    for ids, bound, what in ((rows, x.data.shape[0], "row index"), (seg, num_segments, "segment id")):
        if ids.size and (ids.min() < 0 or ids.max() >= bound):
            raise ShapeError(f"gather_segment_sum: {what} out of range")

    def summed(v, into, src, size):
        out = np.empty((v.shape[1], size))
        for j, col in enumerate(np.ascontiguousarray(v.T)):
            out[j] = np.bincount(into, weights=col[src], minlength=size)
        return np.ascontiguousarray(out.T)

    out = summed(x.data, seg, rows, num_segments)
    return _make(out, "gather_segment_sum", (x,), lambda g: (summed(g, rows, seg, x.data.shape[0]),))


def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows of a 2-d tensor; the adjoint scatter-adds them back."""
    _require_2d(x, "gather_rows")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows: indices must be 1-d, got shape {idx.shape}")
    n = x.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError("gather_rows: index out of range")

    def vjp(g):
        return (_scatter_add_rows(g, idx, n),)

    return _make(x.data[idx], "gather_rows", (x,), vjp)


def dropout(x: Tensor, p: float, key) -> Tensor:
    """Inverted dropout with a counter-based mask.

    The mask is a pure function of ``key``, any seed ``np.random.Philox``
    takes (an int, a sequence of ints or a SeedSequence), so replaying the
    same key reproduces the same mask and finite differencing across a
    fixed key stays valid. With p == 0 the input tensor is returned
    unchanged, which is the identity map with identity adjoint.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    rng = np.random.Generator(np.random.Philox(key))
    keep = rng.random(x.data.shape) >= p
    factor = keep / (1.0 - p)
    return _make(x.data * factor, "dropout", (x,), lambda g: (g * factor,))


def binary_cross_entropy(logits: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted mean negated log likelihood of Bernoulli targets under the
    probabilities sigma(z) of ``logits`` z, as a 0-d tensor:
    sum_i w_i l_i / sum_i w_i with l_i the example's loss.

    The value takes the clamped logistic (``sigmoid``'s output), clamps it
    to [PROB_CLAMP, 1 - PROB_CLAMP] before the logs, so it stays finite at
    0 and 1, and is computed as (n / sum w) * mean(l * w), so unit weights
    give the plain mean bitwise.

    The adjoint is taken in logit space, (n / sum w) g / n * w * (sigma(z) - t)
    with sigma the exact, unclamped logistic. A correctly saturated score
    (|z| past ~745, where exp underflows) then contributes an exact 0
    instead of the subnormal g * tiny that a clamped sigmoid's adjoint
    would emit, and a wrongly saturated one still gets the full -+1
    signal. A clip-style dead zone here would stall training the moment
    any logit passes ~|28|.
    """
    t = np.asarray(targets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    zd = logits.data
    if t.shape != zd.shape or w.shape != t.shape:
        raise ShapeError(
            f"binary_cross_entropy: target shape {t.shape} and weight shape {w.shape} vs logits {zd.shape}"
        )
    if t.size == 0:
        raise ShapeError("binary_cross_entropy: empty input")
    pc = np.clip(_clamped_logistic(zd), PROB_CLAMP, 1.0 - PROB_CLAMP)
    per_example = -(t * np.log(pc) + (1.0 - t) * np.log1p(-pc))
    n, scale = t.size, float(t.size / w.sum())
    out = np.asarray(scale * np.mean(per_example * w) + 0.0)

    def vjp(g):
        return (np.full(t.shape, float(scale * g) / n) * w * (_logistic(zd) - t),)

    return _make(out, "binary_cross_entropy", (logits,), vjp)


# ---------------------------------------------------------------------------
# Settings and files
# ---------------------------------------------------------------------------


def check_setting(name: str, value, kind: type, ok, rule: str):
    """Raise ValueError naming ``name`` and ``value`` unless ``value`` is an
    instance of ``kind`` (a ``numbers`` class or a container type), not a
    bool, and ``ok(value)``."""
    if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def read_json_object(path: str) -> dict:
    """The JSON object stored in ``path``. Raises ValueError naming ``path``
    when the file is missing, unreadable, not JSON, or not an object."""
    try:
        with open(path, "rb") as fh:
            value = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"{path}: file is missing") from None
    except (OSError, ValueError) as err:
        raise ValueError(f"{path}: cannot read JSON: {err}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(value).__name__}")
    return value


def write_file_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file and ``os.replace``, so
    ``path`` holds either its old contents or all of ``data``, never part."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def write_csv_atomic(path: str, header: str, rows, meta_line: str = "") -> None:
    """Atomically write an optional ``# meta_line`` comment, a header line and
    one line per preformatted row."""
    lines = ([f"# {meta_line}"] if meta_line else []) + [header, *rows]
    write_file_atomic(path, ("\n".join(lines) + "\n").encode())

