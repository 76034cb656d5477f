"""Reverse-mode autodiff over numpy arrays, restricted to the 1D signal ops we need.

Every differentiable value is a :class:`Tensor` wrapping a float ndarray.
Operations record their parents and a closure that scatters the incoming
gradient back to them; ``Tensor.backward()`` replays those closures in
reverse topological order.  Math is plain numpy.  The BLAS-backed ops
(matmul, the conv GEMM) may run on several threads, and how their sums are
split depends on the thread count, so a given seed replays bit for bit for a
fixed BLAS thread count.  The benchmark prints that count.  Max pooling,
the elementwise passes of batchnorm1d and conv1d's bias, ReLU and ReLU
mask split their batch rows into blocks run on one thread per CPU
(:func:`_over_batch`); that changes no bit, because each row's work is
independent of the others and keeps its order.  Per-channel sums stay whole
arrays on the calling thread.  These threads share the CPUs with OpenBLAS's
workers, which spin for a while after each GEMM before they sleep;
importing ``physiobench`` shortens that wait (see its docstring), so the
pool gets the CPUs between GEMMs.

:func:`concat` holds each activation once: it rebinds every recorded input
(an op's output, not a leaf) to that input's slice of the concatenated
array, so the input's own array is freed once nothing else holds it.  Two
rules make this safe.  No op writes a Tensor's ``data`` after creating it;
only leaves (Parameters, wrapped inputs, values built under ``no_grad``) are
written in place, by the optimisers and ``grad_check``, and concat leaves
those alone.  And an op whose backward reads its own output reads it through
its output Tensor (``out.data``) at backward time, never through an array
captured when the forward ran, which would keep the old array alive.

Importing this module sets glibc's allocator policy once, through
``mallopt``: arrays of 32 MiB and more get their own mmap (glibc's own
ceiling for its dynamic threshold), and freed heap memory is never trimmed
back to the kernel.  A training step frees its tape and the next step
allocates the same sizes again, so the kept heap serves it without page
faults or kernel zeroing.  Both thresholds are set because setting either
one turns off glibc's dynamic thresholds: with only the trim threshold set,
the mmap threshold would stay at 128 KiB and every mid-sized array would be
a fresh mmap.  Without glibc (no ``mallopt``) nothing is set.  A process's
resident memory therefore stays at its peak once training ends.
"""

from __future__ import annotations

import ctypes
import math
import os
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

_DEFAULT_DTYPE = np.float64
_GRAD_ENABLED = True

# mallopt parameters (glibc's malloc.h) and values; mallopt takes C ints
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20    # bytes from which an array gets its own mmap
_TRIM_THRESHOLD = 2**31 - 1   # the largest C int: freed heap is never trimmed


def _keep_freed_heap() -> None:
    """Set the allocator policy of the module docstring, where glibc's
    ``mallopt`` exists.  The trim threshold is set only once the mmap
    threshold has been applied (``mallopt`` returns 1)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1:
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_keep_freed_heap()


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


def set_default_dtype(dtype) -> None:
    """Set :func:`default_dtype` (float32 or float64)."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype).type
    if dtype not in (np.float32, np.float64):
        raise ValueError("default dtype must be float32 or float64")
    _DEFAULT_DTYPE = dtype


def default_dtype():
    """The dtype of Parameters and of data without a float dtype of its own."""
    return _DEFAULT_DTYPE


class no_grad:
    """Context manager that disables graph recording (pure inference)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._saved = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._saved
        return False


class Tensor:
    """A shaped float array participating in the gradient tape.

    ``data`` is a float32 or float64 ndarray, C-contiguous unless
    :func:`concat` has rebound this recorded input to a view of its output.
    A float32 or float64 array or numpy scalar keeps its dtype; Python
    numbers and lists, and non-float arrays, take :func:`default_dtype`; an
    explicit ``dtype`` wins over both.  Op outputs therefore follow their
    inputs, and mixed float32/float64 operands follow numpy promotion while
    each parent's gradient comes back in that parent's own dtype.  ``grad`` is
    allocated lazily during backward (except for Parameters, which keep a
    permanent zero-initialised gradient buffer).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is None and not (isinstance(data, (np.ndarray, np.generic))
                                  and data.dtype in (np.float32, np.float64)):
            dtype = _DEFAULT_DTYPE
        arr = np.asarray(data, dtype=dtype)
        # ascontiguousarray promotes 0-d to 1-d; reshape restores scalar shape
        self.data = np.ascontiguousarray(arr).reshape(arr.shape)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    # -- graph plumbing ------------------------------------------------
    def _record(self, parents: tuple["Tensor", ...], op: str,
                backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Attach provenance to self if any parent is being differentiated."""
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            self.requires_grad = True
            self._parents = parents
            self._backward = backward
            self._op = op
        return self

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` in; a first gradient is a private C-contiguous copy
        (``grad`` may be a view, a slice or a broadcast)."""
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, order="C")
        else:
            self.grad += grad

    def _take(self, buf: np.ndarray) -> None:
        """Add ``buf`` in, keeping it as the first gradient without a copy.

        ``buf`` must be an array that nothing else references: a fresh
        backward result, or an interior node's own gradient, which backward
        drops once that node's closure has run.  Anything else goes through
        ``_accumulate``.
        """
        if (self.grad is None and buf.dtype == self.data.dtype
                and buf.flags.c_contiguous):
            self.grad = buf
        else:
            self._accumulate(buf)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        The incoming gradient (ones by default) is copied, so the caller's
        array is never written.  Nodes are popped off the reverse
        topological order as their closures run, and every interior node
        drops its parents, closure and gradient right after: a node's
        forward arrays are then freed while backward is still running, and
        a gradient buffer that a closure handed to a parent (or masked in
        place) is never visible through an interior node's ``.grad``.
        Leaves keep their gradients.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        order = topo_order(self)
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        while order:
            node = order.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node._parents = ()
                node._backward = None
                node.grad = None

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(_wrap(other, self.dtype), -1.0))

    def __rsub__(self, other):
        return add(_wrap(other, self.dtype), mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return mul(self, power(other, -1.0))
        return mul(self, 1.0 / float(other))

    def __rtruediv__(self, other):
        return mul(power(self, -1.0), other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    # -- shape ops -----------------------------------------------------
    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, *axes):
        return transpose(self, *axes)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims=False):
        return reduce_max(self, axis=axis, keepdims=keepdims)


def topo_order(root: Tensor) -> list[Tensor]:
    """Operations in dependency order: every node's parents precede it."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _wrap(value, dtype=None) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------
# elementwise / linear algebra primitives
# ---------------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, a.dtype)  # a number or array operand takes a's dtype
    out = Tensor(a.data + b.data)

    def backward(g):
        # g goes to the first parent shaped like it; the other gets a copy
        handed = False
        for p in (a, b):
            if not p.requires_grad:
                continue
            if not handed and p.shape == g.shape:
                p._take(g)
                handed = True
            else:
                p._accumulate(_unbroadcast(g, p.shape))

    return out._record((a, b), "add", backward)


def mul(a: Tensor, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, a.dtype)  # a number or array operand takes a's dtype
    out = Tensor(a.data * b.data)

    def backward(g):
        gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
        if a.requires_grad:
            if a.shape == g.shape and a.dtype == g.dtype == b.dtype:
                a._take(np.multiply(g, b.data, out=g))   # g's last read
            else:
                a._take(_unbroadcast(g * b.data, a.shape))
        if gb is not None:
            b._take(gb)

    return out._record((a, b), "mul", backward)


def power(a: Tensor, exponent: float) -> Tensor:
    exponent = float(exponent)
    out = Tensor(a.data ** exponent)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * exponent * a.data ** (exponent - 1.0))

    return out._record((a,), "pow", backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    out = Tensor(np.matmul(a.data, b.data))

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.shape))

    return out._record((a, b), "matmul", backward)


def exp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out.data)

    return out._record((a,), "exp", backward)


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return out._record((a,), "log", backward)


def sqrt(a: Tensor) -> Tensor:
    out = Tensor(np.sqrt(a.data))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * 0.5 / out.data)

    return out._record((a,), "sqrt", backward)


def activation(a: Tensor, kind: str) -> Tensor:
    """Elementwise nonlinearity with exact analytic derivative."""
    if kind == "relu":
        return relu(a)
    if kind == "sigmoid":
        return sigmoid(a)
    if kind == "tanh":
        return tanh(a)
    raise ValueError(f"unknown activation kind: {kind!r}")


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))

    def backward(g):
        if a.requires_grad:
            a._take(np.multiply(g, a.data > 0, out=g))

    return out._record((a,), "relu", backward)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+e^-x), branching on the sign so that no exp overflows."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


def sigmoid(a: Tensor) -> Tensor:
    out = Tensor(_stable_sigmoid(a.data))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out.data * (1.0 - out.data))

    return out._record((a,), "sigmoid", backward)


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.data))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - out.data * out.data))

    return out._record((a,), "tanh", backward)


def softplus(a: Tensor) -> Tensor:
    # log(1 + e^x) computed without overflow; derivative is sigmoid(x)
    x = a.data
    out = Tensor(np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * _stable_sigmoid(x))

    return out._record((a,), "softplus", backward)


def flush_tiny_grad(a: Tensor, floor: float) -> Tensor:
    """Identity whose backward zeroes the gradient entries below ``floor``
    in magnitude.

    BLAS runs many times slower on subnormal operands and numpy has no
    flush-to-zero switch, so a value whose gradient can underflow (saturated
    logits) goes through this to stop subnormals where they start.
    """
    out = Tensor(a.data)

    def backward(g):
        if a.requires_grad:
            g[np.abs(g) < floor] = 0.0
            a._take(g)

    return out._record((a,), "flush_tiny_grad", backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted stable softmax along ``axis``."""
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = Tensor(e / e.sum(axis=axis, keepdims=True))

    def backward(g):
        if a.requires_grad:
            y = out.data
            inner = (g * y).sum(axis=axis, keepdims=True)
            a._accumulate(y * (g - inner))

    return out._record((a,), "softmax", backward)


ATTENTION_BLOCK = 1 << 18   # score elements per attention block (1 MiB in float32)


def _weights(q: np.ndarray, k: np.ndarray, scale: float, softmax: bool,
             rowmax: np.ndarray | None = None, rowsum: np.ndarray | None = None):
    """``(P, rowmax, rowsum)``; a given row max and sum are reused, so a
    rebuilt P is the first one bit for bit."""
    p = np.matmul(q, np.swapaxes(k, -1, -2))
    p *= scale
    if softmax:
        if rowmax is None:
            rowmax = p.max(axis=-1, keepdims=True)
        p -= rowmax
        np.exp(p, out=p)
        if rowsum is None:
            rowsum = p.sum(axis=-1, keepdims=True)
        p /= rowsum
    return p, rowmax, rowsum


def attention_weights(q: np.ndarray, k: np.ndarray, scale: float,
                      softmax: bool = True) -> np.ndarray:
    """The weights P [..., Lq, Lk] of :func:`attention` for arrays q [..., Lq, D]
    and k [..., Lk, D]: ``softmax(scale * q kᵀ)`` along the last axis, or
    just ``scale * q kᵀ`` when ``softmax`` is False."""
    return _weights(q, k, scale, softmax)[0]


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float,
              softmax: bool = True) -> Tensor:
    """Dot-product attention ``P @ v`` over the last two axes, computed in blocks.

    q is [..., Lq, D], k is [..., Lk, D] and v is [..., Lk, Dv], with equal
    leading axes; P is :func:`attention_weights`.  The leading (batch, head)
    items run in blocks of at most ``ATTENTION_BLOCK`` score elements, and
    at least one item, so P is never held whole.  Softmax keeps each row's
    max and sum, and backward rebuilds each block's P from them bit for
    bit.  Returns ``P @ v`` [..., Lq, Dv] as a recorded Tensor.
    """
    if not (q.ndim >= 2 and q.shape[:-2] == k.shape[:-2] == v.shape[:-2]
            and q.ndim == k.ndim == v.ndim):
        raise ShapeError(
            f"attention leading axes disagree: q {q.shape}, k {k.shape}, v {v.shape}")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"attention q and k widths disagree: q {q.shape}, k {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attention k and v lengths disagree: k {k.shape}, v {v.shape}")
    lq, lk = q.shape[-2], k.shape[-2]
    qs, ks, vs = (t.data.reshape(-1, *t.shape[-2:]) for t in (q, k, v))
    n = qs.shape[0]
    step = max(1, ATTENTION_BLOCK // (lq * lk))
    blocks = [slice(i, i + step) for i in range(0, n, step)]
    dtype = np.result_type(q.dtype, k.dtype, v.dtype)
    out_shape = (n, lq, vs.shape[-1])
    out = np.empty(out_shape, dtype=dtype)
    stats = []
    for b in blocks:
        p, rowmax, rowsum = _weights(qs[b], ks[b], scale, softmax)
        np.matmul(p, vs[b], out=out[b])
        stats.append((rowmax, rowsum))

    def backward(g):
        y = result.data.reshape(out_shape)
        g = g.reshape(out_shape)
        grads = [np.empty(a.shape, dtype=dtype) if t.requires_grad else None
                 for t, a in zip((q, k, v), (qs, ks, vs))]
        dq, dk, dv = grads
        for b, (rowmax, rowsum) in zip(blocks, stats):
            p = _weights(qs[b], ks[b], scale, softmax, rowmax, rowsum)[0]
            if dv is not None:
                np.matmul(np.swapaxes(p, -1, -2), g[b], out=dv[b])
            if dq is None and dk is None:
                continue
            ds = np.matmul(g[b], np.swapaxes(vs[b], -1, -2))      # dP
            if softmax:
                # rowsum(dP * P) equals rowsum(g * out), which needs no
                # [..., Lq, Lk] temporary
                ds -= np.einsum("...ij,...ij->...i", g[b], y[b])[..., None]
                ds *= p
            ds *= scale
            if dq is not None:
                np.matmul(ds, ks[b], out=dq[b])
            if dk is not None:
                np.matmul(np.swapaxes(ds, -1, -2), qs[b], out=dk[b])
        for t, grad in zip((q, k, v), grads):
            if grad is not None:
                t._take(grad.reshape(t.shape))

    result = Tensor(out.reshape(q.shape[:-1] + v.shape[-1:]))
    return result._record((q, k, v), "attention", backward)


# ---------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------

def _norm_axes(axis, ndim) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def _expand_reduced(g: np.ndarray, shape, axes, keepdims: bool) -> np.ndarray:
    if not keepdims:
        g = g.reshape(tuple(1 if ax in axes else s for ax, s in enumerate(shape)))
    return np.broadcast_to(g, shape)


def reduce_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    out = Tensor(a.data.sum(axis=axes, keepdims=keepdims))

    def backward(g):
        if a.requires_grad:
            a._accumulate(_expand_reduced(g, a.shape, axes, keepdims))

    return out._record((a,), "sum", backward)


def reduce_mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    count = math.prod(a.shape[ax] for ax in axes)
    out = Tensor(a.data.mean(axis=axes, keepdims=keepdims))

    def backward(g):
        if a.requires_grad:
            a._take(_expand_reduced(g, a.shape, axes, keepdims) / count)

    return out._record((a,), "mean", backward)


def reduce_max(a: Tensor, axis=None, keepdims=False) -> Tensor:
    """Max reduction; gradient flows to the first occurrence of the max."""
    if axis is None:
        flat = a.reshape(a.size)
        out = reduce_max(flat, axis=0, keepdims=False)
        return out if not keepdims else reshape(out, *([1] * a.ndim))
    ax = axis % a.ndim
    idx = np.argmax(a.data, axis=ax)  # first occurrence on ties
    out_data = np.take_along_axis(a.data, np.expand_dims(idx, ax), axis=ax)
    out = Tensor(out_data if keepdims else out_data.squeeze(ax))

    def backward(g):
        if a.requires_grad:
            gg = g if keepdims else np.expand_dims(g, ax)
            buf = np.zeros_like(a.data)
            np.put_along_axis(buf, np.expand_dims(idx, ax), gg, axis=ax)
            a._take(buf)

    return out._record((a,), "max", backward)


def reshape(a: Tensor, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out = Tensor(a.data.reshape(shape))

    def backward(g):
        if a.requires_grad:
            a._take(g.reshape(a.shape))

    return out._record((a,), "reshape", backward)


def transpose(a: Tensor, *axes) -> Tensor:
    if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
        axes = tuple(axes[0])
    if not axes:
        axes = tuple(reversed(range(a.ndim)))
    inverse = np.argsort(axes)
    out = Tensor(np.ascontiguousarray(a.data.transpose(axes)))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.transpose(inverse))

    return out._record((a,), "transpose", backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Join tensors along ``axis``, holding each recorded input once.

    Every recorded input (one with parents, not a leaf) of the output's
    dtype is rebound to its slice of the output: its ``data`` becomes a
    view, and its own array is freed once nothing else holds it.  Values do
    not change, and this is safe because forward data is never written after
    it is created, except for leaves, which keep their own arrays.
    """
    tensors = tuple(tensors)
    ax = axis % tensors[0].ndim
    out = Tensor(np.concatenate([t.data for t in tensors], axis=ax))
    offsets = np.cumsum([0] + [t.shape[ax] for t in tensors])
    slices = [(slice(None),) * ax + (slice(start, stop),)
              for start, stop in zip(offsets[:-1], offsets[1:])]
    for t, sl in zip(tensors, slices):
        if t._parents and t.dtype == out.dtype:
            t.data = out.data[sl]

    def backward(g):
        for t, sl in zip(tensors, slices):
            if t.requires_grad:
                t._accumulate(g[sl])

    return out._record(tensors, "concat", backward)


# ---------------------------------------------------------------------
# signal ops
# ---------------------------------------------------------------------

def conv_output_length(length: int, kernel: int, stride: int, padding: str) -> int:
    """Closed-form output length: floor((L + pad_total - K)/stride) + 1."""
    pad_left, pad_right = _conv_padding(length, kernel, stride, padding)
    return (length + pad_left + pad_right - kernel) // stride + 1


def _conv_padding(length: int, kernel: int, stride: int, padding: str) -> tuple[int, int]:
    if padding == "valid":
        return 0, 0
    if padding == "same":
        # output length ceil(L/stride); odd total padding puts the extra on the right
        out_len = -(-length // stride)
        total = max((out_len - 1) * stride + kernel - length, 0)
        return total // 2, total - total // 2
    raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")


def _window_view(x: np.ndarray, out_len: int, window: int, stride: int) -> np.ndarray:
    """Read-only strided view [B, C, out_len, window] over the length axis."""
    b, c, _ = x.shape
    sb, sc, sl = x.strides
    return as_strided(x, shape=(b, c, out_len, window),
                      strides=(sb, sc, sl * stride, sl), writeable=False)


def _window_taps(length: int, window: int, stride: int, pad_left: int,
                 out_len: int) -> list[tuple[int, int, int, slice]]:
    """For each window tap k that reads the input at all: k, the outputs
    [lo, hi) whose tap k falls inside the unpadded input, and the strided
    slice of the length axis that those taps read, in ascending k."""
    taps = []
    for k in range(window):
        first = k - pad_left  # input index of tap k in window 0
        lo = max(0, -(first // stride))
        hi = min(out_len, (length - 1 - first) // stride + 1)
        if lo < hi:
            start = lo * stride + first
            taps.append((k, lo, hi, slice(start, start + (hi - lo - 1) * stride + 1, stride)))
    return taps


def _im2col(x: np.ndarray, kernel: int, stride: int, pad_left: int,
            pad_right: int, out_len: int) -> np.ndarray:
    """Channel-major columns [B, Cin*K, out_len]: row ci*K + k is tap k of
    channel ci at every output position, one strided run of ``x``.  For a
    pointwise kernel (K=1, stride 1) the run is the whole row, so the columns
    are ``x`` itself, not a copy."""
    b, c, _ = x.shape
    if pad_left or pad_right:
        x = np.pad(x, ((0, 0), (0, 0), (pad_left, pad_right)))
    windows = _window_view(x, out_len, kernel, stride).transpose(0, 1, 3, 2)
    return np.ascontiguousarray(windows).reshape(b, c * kernel, out_len)


CONV_BLOCK = 1 << 24    # bytes of columns per batch block of conv1d (16 MiB)


def _batch_blocks(batch: int, row_bytes: int, limit: int) -> list[slice]:
    """Slices of ``batch`` rows, each holding at most ``limit`` bytes of an
    array whose rows take ``row_bytes`` (and at least one row)."""
    step = max(1, limit // max(row_bytes, 1))
    return [slice(i, i + step) for i in range(0, batch, step)]


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: str = "valid", relu: bool = False) -> Tensor:
    """Cross-correlation of [B,Cin,L] with [Cout,Cin,K] kernels.

    ``relu=True`` applies a ReLU to the output in place: the same values and
    gradients as ``relu(conv1d(...))``, with one array on the tape instead of
    two (its backward masks the incoming gradient with ``out > 0``, which
    equals the pre-activation's ``> 0``).

    The im2col columns of the forward, of the transposed-convolution input
    gradient and of the col2im GEMM are built over blocks of batch rows, each
    block's columns at most ``CONV_BLOCK`` bytes, so they stay small enough
    to reuse heap memory instead of being a fresh mmap on every call.  Each
    sample gets the same GEMM as in one pass, so no bit depends on the block.
    The bias and ReLU of the forward and the ReLU mask of the backward run
    over batch blocks on one thread per CPU (:func:`_over_batch`).
    """
    if x.ndim != 3 or kernel.ndim != 3:
        raise ShapeError(f"conv1d expects 3D input and kernel, got {x.shape} and {kernel.shape}")
    B, Cin, L = x.shape
    Cout, KCin, K = kernel.shape
    if KCin != Cin:
        raise ShapeError(
            f"conv1d channel mismatch: input has Cin={Cin} but kernel expects Cin={KCin} "
            f"(input {x.shape}, kernel {kernel.shape})")
    if not isinstance(stride, int) or stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride!r}")
    pad_left, pad_right = _conv_padding(L, K, stride, padding)
    if K > L + pad_left + pad_right:
        raise ShapeError(f"kernel size {K} exceeds padded length {L + pad_left + pad_right}")
    if bias is not None and bias.shape != (Cout,):
        raise ShapeError(f"bias shape {bias.shape} does not match Cout={Cout}")

    out_len = (L + pad_left + pad_right - K) // stride + 1
    w2 = kernel.data.reshape(Cout, Cin * K)
    # [Cout, Cin*K] @ [b, Cin*K, out_len] -> [b, Cout, out_len]: one GEMM per
    # sample, written into the block's rows of y
    y = np.empty((B, Cout, out_len), dtype=np.result_type(w2, x.data))
    for rows in _batch_blocks(B, Cin * K * out_len * x.dtype.itemsize, CONV_BLOCK):
        np.matmul(w2, _im2col(x.data[rows], K, stride, pad_left, pad_right, out_len),
                  out=y[rows])
    if bias is not None or relu:
        def epilogue_rows(rows):
            yr = y[rows]
            if bias is not None:
                yr += bias.data[:, None]
            if relu:
                np.maximum(yr, 0, out=yr)

        _over_batch(epilogue_rows, B, Cout * out_len * y.itemsize)
    out = Tensor(y)

    def backward(g):
        if relu:
            _mask_relu_grad(g, out.data)
        taps = _window_taps(L, K, stride, pad_left, out_len)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2)))
        if kernel.requires_grad:
            # per tap k, one GEMM per sample over the strided run of x that
            # tap read (no columns are rebuilt or held since the forward),
            # summed over B in ascending order as .sum(axis=0) would
            gw = np.zeros(kernel.shape, dtype=g.dtype)
            acc = np.zeros((Cout, Cin), dtype=np.result_type(g, x.data))
            part = np.empty_like(acc)
            for k, lo, hi, sl in taps:
                x_k = x.data[:, :, sl].transpose(0, 2, 1)  # [B, hi-lo, Cin]
                for b in range(B):
                    np.matmul(g[b, :, lo:hi], x_k[b], out=part if b else acc)
                    if b:
                        acc += part
                gw[:, :, k] = acc
            kernel._take(gw)
        if x.requires_grad:
            if stride == 1 and (K == 1 or Cout <= Cin):
                # transposed convolution: g, padded to L + K - 1, correlated
                # with the flipped kernel in one GEMM per sample.  Its columns
                # [b, Cout*K, L] are no larger than col2im's, and are g itself
                # for a pointwise kernel.
                wf = kernel.data[:, :, ::-1].transpose(1, 0, 2).reshape(Cin, Cout * K)
                gx = np.empty((B, Cin, L), dtype=np.result_type(wf, g))
                for rows in _batch_blocks(B, Cout * K * L * g.dtype.itemsize, CONV_BLOCK):
                    gcols = _im2col(g[rows], K, 1, K - 1 - pad_left, L + pad_left - out_len, L)
                    np.matmul(wf, gcols, out=gx[rows])
            else:
                # col2im: one GEMM to [b, Cin*K, out_len] columns, then tap k
                # of every window adds back into the input it read
                gx = np.zeros((B, Cin, L), dtype=np.result_type(w2, g))
                for rows in _batch_blocks(B, Cin * K * out_len * gx.itemsize, CONV_BLOCK):
                    gcols = np.matmul(w2.T, g[rows]).reshape(-1, Cin, K, out_len)
                    gx_rows = gx[rows]
                    for k, lo, hi, sl in taps:
                        gx_rows[:, :, sl] += gcols[:, :, k, lo:hi]
            x._take(gx)

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return out._record(parents, "conv1d", backward)


BATCH_BLOCK = 1 << 21   # bytes per array in one batch block of _over_batch (2 MiB)

_EXECUTOR = None   # the concurrent.futures.ThreadPoolExecutor of _over_batch


def _drop_executor() -> None:
    # A forked child has none of its parent's threads; it builds its own pool.
    global _EXECUTOR
    _EXECUTOR = None


os.register_at_fork(after_in_child=_drop_executor)


def _over_batch(fn: Callable[[slice], None], batch: int, row_bytes: int) -> None:
    """Run ``fn(rows)`` over slices of ``batch`` rows, each holding at most
    ``BATCH_BLOCK`` bytes of an array whose rows take ``row_bytes`` (at least
    one row), on one thread per CPU.  Returns once every block has run, and
    re-raises a block's exception.  A single block, or a single CPU, runs
    inline."""
    global _EXECUTOR
    blocks = _batch_blocks(batch, row_bytes, BATCH_BLOCK)
    if hasattr(os, "sched_getaffinity"):
        threads = len(os.sched_getaffinity(0))
    else:   # macOS and Windows
        threads = os.cpu_count() or 1
    if len(blocks) == 1 or threads == 1:
        for rows in blocks:
            fn(rows)
        return
    # imported here, not at the top: concurrent.futures (and the logging
    # module it loads) adds about 9 ms to every import of the package
    from concurrent.futures import ThreadPoolExecutor, wait
    if _EXECUTOR is None:
        _EXECUTOR = ThreadPoolExecutor(threads, thread_name_prefix="over_batch")
    futures = [_EXECUTOR.submit(fn, rows) for rows in blocks]
    wait(futures)
    for f in futures:
        f.result()


def _mask_relu_grad(g: np.ndarray, y: np.ndarray) -> None:
    """``g *= y > 0`` in place, over batch blocks: the backward of a ReLU
    applied in place to an op's output ``y``."""
    def rows_fn(rows):
        np.multiply(g[rows], y[rows] > 0, out=g[rows])

    _over_batch(rows_fn, len(g), math.prod(g.shape[1:]) * g.itemsize)


def pool1d(x: Tensor, kind: str, window: int, stride: int,
           padding: str = "valid") -> Tensor:
    """Windowed max/avg pooling over the length axis (no padding by default).

    ``padding='same'`` is supported for max pooling only (pads with -inf);
    it exists for pooling branches that must preserve length.  Max pooling
    runs its forward and backward over blocks of batch rows (see
    :func:`_over_batch`) on one thread per CPU; every output and gradient
    bit is the same as in one pass, because each row's work is independent
    and keeps its tap order.
    """
    if kind not in ("max", "avg"):
        raise ValueError(f"pool kind must be 'max' or 'avg', got {kind!r}")
    if x.ndim != 3:
        raise ShapeError(f"pool1d expects [B,C,L], got {x.shape}")
    if not isinstance(window, int) or window < 1 or not isinstance(stride, int) or stride < 1:
        raise ValueError("window and stride must be positive integers")
    B, C, L = x.shape
    if padding == "same":
        if kind != "max":
            raise ValueError("padding='same' is only supported for max pooling")
        pad_left, _ = _conv_padding(L, window, stride, "same")
    elif padding == "valid":
        pad_left = 0
        if window > L:
            raise ShapeError(f"pool window {window} exceeds input length {L}")
    else:
        raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
    out_len = conv_output_length(L, window, stride, padding)
    taps = _window_taps(L, window, stride, pad_left, out_len)

    if kind == "max":
        row_bytes = C * L * x.dtype.itemsize   # out_len <= L
        y = np.empty((B, C, out_len), dtype=x.dtype)

        def forward_rows(rows):
            # Padding reads as -inf, so the running maximum starts there.  It
            # is np.maximum's second operand: ties return the second operand,
            # so the earliest tap wins, as with argmax (this keeps the sign of
            # tied zeros).
            xr, yr = x.data[rows], y[rows]
            yr.fill(-np.inf)
            for _, lo, hi, sl in taps:
                np.maximum(xr[:, :, sl], yr[:, :, lo:hi], out=yr[:, :, lo:hi])

        _over_batch(forward_rows, B, row_bytes)
        out = Tensor(y)

        def backward(g):
            if not x.requires_grad:
                return
            gx = np.zeros((B, C, L), dtype=g.dtype)
            n_padded = -(-pad_left // stride)

            def backward_rows(rows):
                # The first tap equal to the maximum takes the gradient (ties
                # are common after ReLU).  A window that starts in the left
                # padding and has maximum -inf gives it to the padding, that
                # is, drops it.
                xr, yr, gr, gxr = x.data[rows], out.data[rows], g[rows], gx[rows]
                claimed = np.zeros(yr.shape, dtype=bool)
                claimed[:, :, :n_padded] = yr[:, :, :n_padded] == -np.inf
                hits = []
                for _, lo, hi, sl in taps:
                    hit = xr[:, :, sl] == yr[:, :, lo:hi]
                    hit &= ~claimed[:, :, lo:hi]
                    claimed[:, :, lo:hi] |= hit
                    hits.append(hit)
                # Taps are added in descending k: each input position then
                # sums its windows in ascending window order, the order
                # np.add.at over an argmax index would use, so overlapping
                # windows give the same bits.
                for (_, lo, hi, sl), hit in zip(reversed(taps), reversed(hits)):
                    gxr[:, :, sl] += gr[:, :, lo:hi] * hit

            _over_batch(backward_rows, B, row_bytes)
            x._take(gx)
    else:
        out = Tensor(_window_view(x.data, out_len, window, stride).mean(axis=3))

        def backward(g):
            if x.requires_grad:
                gx = np.zeros((B, C, L), dtype=g.dtype)
                gw = g / window
                for *_, sl in taps:
                    gx[:, :, sl] += gw
                x._take(gx)

    return out._record((x,), f"pool_{kind}", backward)


def global_pool(x: Tensor, kind: str = "avg") -> Tensor:
    """Reduce [B,C,L] to [B,C] over the whole length axis."""
    if x.ndim != 3:
        raise ShapeError(f"global_pool expects [B,C,L], got {x.shape}")
    if x.shape[2] < 1:
        raise ShapeError("global_pool needs L >= 1")
    if kind == "avg":
        return reduce_mean(x, axis=2)
    if kind == "max":
        return reduce_max(x, axis=2)
    raise ValueError(f"pool kind must be 'avg' or 'max', got {kind!r}")


def dense(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map on the last axis: [..., N] @ [N, M] + [M]."""
    if weight.ndim != 2 or x.shape[-1] != weight.shape[0]:
        raise ShapeError(
            f"dense dimension mismatch: input {x.shape} vs weight {weight.shape}")
    out = matmul(x, weight)
    if bias is not None:
        if bias.shape != (weight.shape[1],):
            raise ShapeError(f"dense bias shape {bias.shape} != ({weight.shape[1]},)")
        out = add(out, bias)
    return out


def batchnorm1d(x: Tensor, gamma: Tensor, beta: Tensor,
                running_mean: np.ndarray, running_var: np.ndarray,
                training: bool, momentum: float = 0.9, eps: float = 1e-5,
                relu: bool = False) -> Tensor:
    """Per-channel batch normalization over [B,C,L].

    Train mode normalizes by batch statistics (biased variance) and updates
    the running buffers in place: new = momentum*old + (1-momentum)*batch.
    Eval mode normalizes by the running buffers.  ``relu=True`` applies a
    ReLU to the output in place, as in :func:`conv1d`.

    The per-channel sums run on whole arrays on the calling thread.  Every
    elementwise pass runs over batch blocks on one thread per CPU (see
    :func:`_over_batch`), fused per block; each element gets the same
    operations in the same order as in one pass, so no bit depends on the
    block.
    """
    if x.ndim != 3:
        raise ShapeError(f"batchnorm1d expects [B,C,L], got {x.shape}")
    B, C, L = x.shape
    n = B * L
    if training:
        if n < 2:
            raise ValueError(f"batchnorm1d train mode needs B*L >= 2, got {n}")
        mu = x.data.mean(axis=(0, 2))
        xc = np.empty(x.shape, dtype=np.result_type(x.data, mu))
        _over_batch(lambda rows: np.subtract(x.data[rows], mu[:, None], out=xc[rows]),
                    B, C * L * xc.itemsize)
        var = np.einsum("bcl,bcl->c", xc, xc) / n
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mu
        running_var *= momentum
        running_var += (1.0 - momentum) * var
    else:
        # a copy: a train-mode call before this node's backward moves the buffer
        mu = running_mean.copy()
        var = running_var
    invstd = 1.0 / np.sqrt(var + eps)
    scale = gamma.data * invstd
    # y = src * scale + shift
    src, shift = (xc, beta.data) if training else (x.data, beta.data - mu * scale)
    y = np.empty(x.shape, dtype=np.result_type(src, scale))

    def forward_rows(rows):
        yr = y[rows]
        np.multiply(src[rows], scale[:, None], out=yr)
        yr += shift[:, None]
        if relu:
            np.maximum(yr, 0, out=yr)

    _over_batch(forward_rows, B, C * L * y.itemsize)
    out = Tensor(y)

    def backward(g):
        if relu:
            _mask_relu_grad(g, out.data)
        centred = xc if training else x.data - mu[:, None]
        sum_g = g.sum(axis=(0, 2))
        sum_gxc = np.einsum("bcl,bcl->c", g, centred)
        if gamma.requires_grad:
            gamma._accumulate(sum_gxc * invstd)
        if beta.requires_grad:
            beta._accumulate(sum_g)
        if not x.requires_grad:
            return
        if training:
            # scale * (g - sum_g/n - xc * invstd^2 * sum_gxc/n), in one buffer
            a = (invstd * invstd * sum_gxc / n)[:, None]
            b = (sum_g / n)[:, None]
            gx = np.empty(x.shape, dtype=np.result_type(xc, a))

            def backward_rows(rows):
                gxr = gx[rows]
                np.multiply(xc[rows], a, out=gxr)
                gxr += b
                np.subtract(g[rows], gxr, out=gxr)
                gxr *= scale[:, None]
        else:
            gx = np.empty(x.shape, dtype=np.result_type(g, scale))

            def backward_rows(rows):
                np.multiply(g[rows], scale[:, None], out=gx[rows])

        _over_batch(backward_rows, B, C * L * gx.itemsize)
        x._take(gx)

    return out._record((x, gamma, beta), "batchnorm1d", backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    n = x.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * invstd
    out = Tensor(gamma.data * xhat + beta.data)

    def backward(g):
        if gamma.requires_grad:
            gamma._accumulate(_unbroadcast(g * xhat, gamma.shape))
        if beta.requires_grad:
            beta._accumulate(_unbroadcast(g, beta.shape))
        if x.requires_grad:
            gxhat = g * gamma.data
            s1 = gxhat.sum(axis=-1, keepdims=True)
            s2 = (gxhat * xhat).sum(axis=-1, keepdims=True)
            x._take((invstd / n) * (n * gxhat - s1 - xhat * s2))

    return out._record((x, gamma, beta), "layer_norm", backward)
