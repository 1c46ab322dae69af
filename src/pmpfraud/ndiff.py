"""Dense tensors with reverse-mode differentiation over a fixed operator set.

The operator set is deliberately small: exactly what the message passing
model needs (matrix products, elementwise arithmetic, broadcast adds, the
two activations, segment reductions, dropout, concatenation, mean, and a
clamped cross-entropy). Each operator records its inputs and an adjoint
rule on the output tensor; ``backward`` replays the recorded graph once in
reverse topological order, accumulating gradients additively wherever a
value fans out.

The cross-entropy of a sigmoid output takes its adjoint in logit space:
it records the sigmoid's input as its parent and sends sigma(z) - t
straight to it. Scores saturated on the correct side then send back an
exact zero rather than a subnormal, and the rest of the reverse pass runs
on normal numbers.

Inside a ``no_grad()`` scope operators record nothing: read-only scoring
keeps no reverse graph, and each intermediate is freed as soon as the next
op has read it.

Everything is float64 unless a tensor is constructed with an explicit
dtype. Operators validate shapes up front and refuse to emit non-finite
values instead of letting NaN or Inf propagate silently.
"""
from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tensor",
    "GradientTape",
    "no_grad",
    "ShapeError",
    "NonFiniteError",
    "backward",
    "matmul",
    "add",
    "mul",
    "add_rowvec",
    "row_scale",
    "affine",
    "sigmoid",
    "relu",
    "gather_segment_sum",
    "gather_rows",
    "dropout",
    "concat",
    "mean",
    "binary_cross_entropy",
    "reshape",
    "grad_check",
    "GradCheckReport",
    "check_setting",
    "read_json_object",
    "write_file_atomic",
    "write_csv_atomic",
    "save_checkpoint",
    "load_checkpoint",
]

# Probabilities are clamped into this closed interval before any log.
PROB_CLAMP = 1e-12

_SIGMOID_LO = np.finfo(np.float64).tiny
_SIGMOID_HI = np.nextafter(1.0, 0.0)


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested operator."""


class NonFiniteError(ArithmeticError):
    """An operator produced NaN or Inf."""


class Tensor:
    """A dense array plus the adjoint rule of the operator that made it.

    Leaves are constructed directly (parameters pass requires_grad=True);
    every other tensor comes out of an operator below. ``grad`` is filled
    in by ``backward`` and has the same shape as ``data``.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype if dtype is not None else np.float64)
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
        seed = np.ones_like(output.data)
    else:
        seed = np.asarray(seed, dtype=output.data.dtype)
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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _require_2d(a, "matmul")
    _require_2d(b, "matmul")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.data.shape} @ {b.data.shape}")
    ad, bd = a.data, b.data

    def vjp(g):
        return (g @ bd.T if a.requires_grad else None), (ad.T @ g if b.requires_grad else None)

    return _make(ad @ bd, "matmul", (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes differ, {a.data.shape} vs {b.data.shape}")
    return _make(a.data + b.data, "add", (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shapes differ, {a.data.shape} vs {b.data.shape}")
    ad, bd = a.data, b.data
    return _make(ad * bd, "mul", (a, b), lambda g: (g * bd, g * ad))


def add_rowvec(a: Tensor, v: Tensor) -> Tensor:
    """Add a length-d row vector to every row of an [n, d] matrix."""
    _require_2d(a, "add_rowvec")
    if v.data.ndim != 1 or v.data.shape[0] != a.data.shape[1]:
        raise ShapeError(f"add_rowvec: vector shape {v.data.shape} does not match {a.data.shape}")

    def vjp(g):
        return g, g.sum(axis=0)

    return _make(a.data + v.data[None, :], "add_rowvec", (a, v), vjp)


def row_scale(a: Tensor, s: Tensor) -> Tensor:
    """Scale row i of an [n, d] matrix by the i-th entry of a length-n vector."""
    _require_2d(a, "row_scale")
    if s.data.ndim != 1 or s.data.shape[0] != a.data.shape[0]:
        raise ShapeError(f"row_scale: scale shape {s.data.shape} does not match {a.data.shape}")
    ad, sd = a.data, s.data

    def vjp(g):
        return g * sd[:, None], (g * ad).sum(axis=1)

    return _make(ad * sd[:, None], "row_scale", (a, s), vjp)


def affine(x: Tensor, scale: float, shift: float = 0.0) -> Tensor:
    """Elementwise scale*x + shift with python-scalar coefficients."""
    scale = float(scale)
    return _make(scale * x.data + float(shift), "affine", (x,), lambda g: (scale * g,))


def _logistic(xd: np.ndarray) -> np.ndarray:
    """Numerically stable, unclamped logistic: exactly 0 or 1 once exp underflows."""
    out = np.empty_like(xd)
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic, clamped into the open interval (0, 1)."""
    out = _logistic(x.data)
    np.clip(out, _SIGMOID_LO, _SIGMOID_HI, out=out)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _make(out, "sigmoid", (x,), vjp)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return _make(np.where(mask, x.data, 0.0), "relu", (x,), lambda g: (g * mask,))


def _scatter_add_rows(values: np.ndarray, ids: np.ndarray, num_rows: int) -> np.ndarray:
    """Sum row i of [m, d] ``values`` into row ``ids[i]`` of a [num_rows, d] result.

    A flat bincount over cells ids[i] * d + j adds each cell's rows in input
    order from 0.0, as an unbuffered scatter-add does, so float64 results
    are bitwise equal to one. Ids must already lie in [0, num_rows).
    """
    d = values.shape[1]
    cells = (ids[:, None] * d + np.arange(d)).ravel()
    out = np.bincount(cells, weights=values.ravel(), minlength=num_rows * d)
    return out.reshape(num_rows, d).astype(values.dtype, copy=False)


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
        return np.ascontiguousarray(out.T, dtype=v.dtype)

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


def dropout(x: Tensor, p: float, training: bool, key) -> Tensor:
    """Inverted dropout with a counter-based mask.

    The mask is a pure function of ``key`` (an int, a tuple of ints, or a
    SeedSequence), so replaying the same key reproduces the same mask and
    finite differencing across a fixed key stays valid. With training off
    or p == 0 the input tensor is returned unchanged, which is the
    identity map with identity adjoint.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if isinstance(key, np.random.SeedSequence):
        seq = key
    elif isinstance(key, (tuple, list)):
        seq = np.random.SeedSequence(list(key))
    else:
        seq = np.random.SeedSequence(int(key))
    rng = np.random.Generator(np.random.Philox(seq))
    keep = rng.random(x.data.shape) >= p
    factor = keep.astype(x.data.dtype) / (1.0 - p)
    return _make(x.data * factor, "dropout", (x,), lambda g: (g * factor,))


def concat(tensors, axis: int) -> Tensor:
    """Concatenate along ``axis``; the adjoint splits the gradient back."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: empty input list")
    ndim = tensors[0].data.ndim
    for t in tensors:
        if t.data.ndim != ndim:
            raise ShapeError("concat: rank mismatch")
    sizes = [t.data.shape[axis] for t in tensors]
    cuts = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, cuts, axis=axis))

    return _make(np.concatenate([t.data for t in tensors], axis=axis), "concat", tuple(tensors), vjp)


def mean(x: Tensor) -> Tensor:
    """Mean over all elements, as a 0-d tensor."""
    if x.data.size == 0:
        raise ShapeError("mean: empty input")
    size = x.data.size
    shape = x.data.shape

    def vjp(g):
        return (np.full(shape, float(g) / size, dtype=x.data.dtype),)

    return _make(np.asarray(np.mean(x.data)), "mean", (x,), vjp)


def binary_cross_entropy(probs: Tensor, targets: np.ndarray) -> Tensor:
    """Elementwise negated log likelihood of Bernoulli targets.

    The value clamps probabilities to [PROB_CLAMP, 1 - PROB_CLAMP] before
    the logs, so it stays finite at 0 and 1.

    When ``probs`` is a recorded ``sigmoid`` output, the op takes the
    sigmoid's input z as its parent and the adjoint is g * (sigma(z) - t),
    with sigma the exact, unclamped logistic; the sigmoid itself drops out
    of the reverse pass. A correctly saturated score (|z| past ~745, where
    exp underflows) then contributes an exact 0 instead of the subnormal
    g * tiny that the clamped sigmoid adjoint would emit, and a wrongly
    saturated one still gets the full -+1 signal. A clip-style dead zone
    here would stall training the moment any logit passes ~|28|.

    Any other input gets the probability-space adjoint
    -t/p + (1-t)/(1-p), taken at the input clipped only away from literal
    0 and 1.
    """
    t = np.asarray(targets, dtype=probs.data.dtype)
    if t.shape != probs.data.shape:
        raise ShapeError(f"binary_cross_entropy: target shape {t.shape} vs probs {probs.data.shape}")
    lo, hi = PROB_CLAMP, 1.0 - PROB_CLAMP
    pc = np.clip(probs.data, lo, hi)
    out = -(t * np.log(pc) + (1.0 - t) * np.log1p(-pc))

    if probs.op == "sigmoid" and probs._parents:
        (logits,) = probs._parents
        zd = logits.data

        def logit_vjp(g):
            return (g * (_logistic(zd) - t),)

        return _make(out, "binary_cross_entropy", (logits,), logit_vjp)

    pg = np.clip(probs.data, _SIGMOID_LO, _SIGMOID_HI)

    def vjp(g):
        return (g * (-t / pg + (1.0 - t) / (1.0 - pg)),)

    return _make(out, "binary_cross_entropy", (probs,), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape
    return _make(np.reshape(x.data, shape).copy(), "reshape", (x,), lambda g: (g.reshape(old),))


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    """Worst relative error per parameter block from central differences."""

    per_block: dict
    tolerance: float

    @property
    def max_relative_error(self) -> float:
        return max(self.per_block.values()) if self.per_block else 0.0

    @property
    def passed(self) -> bool:
        return self.max_relative_error < self.tolerance

    def __str__(self):
        status = "ok" if self.passed else "FAIL"
        return f"grad_check {status}: max relative error {self.max_relative_error:.3e} (tol {self.tolerance:.1e})"


def grad_check(function, parameters: dict, tolerance: float = 1e-4) -> GradCheckReport:
    """Compare reverse-mode gradients of a scalar ``function()`` against
    central finite differences over every entry of every parameter.

    ``function`` must be deterministic and must read the parameter tensors
    in ``parameters`` (their ``data`` is perturbed in place between calls).
    The step per entry is ``1e-6 * max(1, |x|)``; errors are relative
    with a unit floor, |a - fd| / max(1, |a|, |fd|).
    """
    for p in parameters.values():
        p.grad = None
    out = function()
    if out.data.size != 1:
        raise ShapeError("grad_check: function must return a scalar tensor")
    backward(out)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in parameters.items()
    }

    per_block = {}
    for name, p in parameters.items():
        worst = 0.0
        # By multi-index into ``p.data`` itself: a flat reshape of a
        # parameter that is not C-contiguous would be a copy, and perturbing
        # it would never reach ``function``.
        for idx in np.ndindex(p.data.shape):
            x0 = p.data[idx]
            h = 1e-6 * max(1.0, abs(x0))
            p.data[idx] = x0 + h
            f_plus = float(function().data)
            p.data[idx] = x0 - h
            f_minus = float(function().data)
            p.data[idx] = x0
            fd = (f_plus - f_minus) / (2.0 * h)
            a = analytic[name][idx]
            rel = abs(a - fd) / max(1.0, abs(a), abs(fd))
            if rel > worst:
                worst = rel
        per_block[name] = worst
    return GradCheckReport(per_block=per_block, tolerance=tolerance)


# ---------------------------------------------------------------------------
# Settings, files and parameter checkpoints
# ---------------------------------------------------------------------------

_MANIFEST_NAME = "manifest.json"
_BLOB_NAME = "params.bin"


def check_setting(name: str, value, kind: type, ok, rule: str):
    """Raise ValueError naming ``name`` and ``value`` unless ``value`` is an
    instance of the ``numbers`` class ``kind``, not a bool, and ``ok(value)``."""
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


def save_checkpoint(directory: str, params: dict) -> None:
    """Write a little-endian f64 blob and a JSON manifest (names, shapes and
    the blob's sha256).

    The blob holds every parameter flattened row-major, concatenated in
    manifest order. Each file is replaced atomically, the manifest last.
    """
    os.makedirs(directory, exist_ok=True)
    blob = np.concatenate([np.asarray(v.data, dtype="<f8").reshape(-1) for v in params.values()]).tobytes()
    manifest = {
        "params": [{"name": k, "shape": list(v.data.shape)} for k, v in params.items()],
        "sha256": hashlib.sha256(blob).hexdigest(),
    }
    write_file_atomic(os.path.join(directory, _BLOB_NAME), blob)
    write_file_atomic(os.path.join(directory, _MANIFEST_NAME), json.dumps(manifest, indent=2).encode())


def load_checkpoint(directory: str) -> dict:
    """Read a checkpoint back as {name: float64 array} in manifest order.

    A missing, malformed, truncated or corrupted file raises ValueError
    naming it. Manifests written without a sha256 still load.
    """
    manifest_path = os.path.join(directory, _MANIFEST_NAME)
    blob_path = os.path.join(directory, _BLOB_NAME)
    manifest = read_json_object(manifest_path)
    try:
        entries = [(e["name"], tuple(int(s) for s in e["shape"])) for e in manifest["params"]]
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{manifest_path}: malformed checkpoint manifest ({err!r})") from err
    try:
        with open(blob_path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise ValueError(f"{blob_path}: file is missing") from None
    except OSError as err:
        raise ValueError(f"{blob_path}: cannot read: {err}") from None
    expected = 8 * sum(int(np.prod(shape)) for _, shape in entries)
    if len(raw) != expected:
        raise ValueError(f"{blob_path}: has {len(raw)} bytes, manifest expects {expected}")
    digest = manifest.get("sha256")
    if digest is not None and hashlib.sha256(raw).hexdigest() != digest:
        raise ValueError(f"{blob_path}: sha256 does not match the manifest, the file is corrupted")
    blob = np.frombuffer(raw, dtype="<f8")
    out = {}
    pos = 0
    for name, shape in entries:
        size = int(np.prod(shape))
        out[name] = blob[pos : pos + size].reshape(shape).astype(np.float64)
        pos += size
    return out
