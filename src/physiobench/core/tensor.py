"""Reverse-mode autodiff over numpy arrays, restricted to the 1D signal ops we need.

Every differentiable value is a :class:`Tensor` wrapping a float ndarray.
Operations record their parents and a closure that scatters the incoming
gradient back to them; ``Tensor.backward()`` replays those closures in
reverse topological order.  Math is plain numpy; BLAS runs on the calling
thread alone (see the ``physiobench`` docstring).  One rule (:func:`_rowwise`)
runs the batch-sized work of conv1d, attention, max pooling, batchnorm1d's
elementwise passes, ``matmul`` of a left operand with three or more axes by
a 2-D right one, ``layer_norm``, ``add``, ``relu``, ``transpose`` and
``Tensor._accumulate``: their numpy calls run over blocks of batch rows,
each holding at most ``BATCH_BLOCK`` bytes of the widest row among its cut
arrays and its temporaries (conv1d's columns, attention's weights).  A batch
that fits in one block runs inline; more blocks are rounded up to a multiple
of the CPU count, one thread per CPU (:func:`_over_batch`).  Other ops run
whole on the calling thread.  No bit depends on how rows are cut: each row's
work is independent of the others and keeps its order, and every sum over
rows (conv1d's kernel gradient, batchnorm1d's per-channel sums) adds
partials over a cut fixed by the shapes alone (:func:`_sum_partials`); the
sums over rows of ``matmul``'s weight gradient and ``layer_norm``'s gamma
and beta gradients run whole.  So a given seed replays bit for bit on any
CPU count, for a given numpy and BLAS build on a given CPU model.

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
a fresh mmap.  Every thread allocates from the one main arena (at most one
arena): the pool threads' temporaries, such as conv columns, would otherwise
sit in arenas of their own, kept untrimmed beside the main one.  Without
glibc (no ``mallopt``) nothing is set.  A process's resident memory
therefore stays at its peak once training ends.
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
_M_ARENA_MAX = -8
_MMAP_THRESHOLD = 32 << 20    # bytes from which an array gets its own mmap
_TRIM_THRESHOLD = 2**31 - 1   # the largest C int: freed heap is never trimmed


def _keep_freed_heap() -> None:
    """Set the allocator policy of the module docstring, where glibc's
    ``mallopt`` exists.  The trim threshold and the arena cap are set only
    once the mmap threshold has been applied (``mallopt`` returns 1)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1:
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
        mallopt(_M_ARENA_MAX, 1)


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
    None until a backward hands this tensor its first gradient; Parameters
    follow the same rule.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is None and not (isinstance(data, (np.ndarray, np.generic))
                                  and data.dtype in (np.float32, np.float64)):
            dtype = _DEFAULT_DTYPE
        self.data = np.asarray(data, dtype=dtype, order="C")
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
            self.grad = np.empty(self.data.shape, dtype=self.data.dtype)
            _rowwise(lambda o, gr: np.copyto(o, gr, casting="unsafe"),
                     self.grad.shape, self.grad, grad)
        else:
            _rowwise(lambda o, gr: np.add(o, gr, out=o), self.grad.shape, self.grad, grad)

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

def add(a: Tensor, b, relu: bool = False) -> Tensor:
    """``a + b`` with numpy broadcasting.  ``relu=True`` applies a ReLU to the
    sum in place, as in :func:`conv1d`: the values and gradients of
    ``relu(add(a, b))`` with one array on the tape."""
    a = _wrap(a)
    b = _wrap(b, a.dtype)  # a number or array operand takes a's dtype
    data = np.empty(np.broadcast_shapes(a.shape, b.shape),
                    dtype=np.result_type(a.data, b.data))

    def forward_rows(o, x, y):
        np.add(x, y, out=o)
        if relu:
            np.maximum(o, 0, out=o)

    _rowwise(forward_rows, data.shape, data, a.data, b.data)
    out = Tensor(data)

    def backward(g):
        if relu:   # out > 0 equals the sum's > 0
            _rowwise(_relu_mask, g.shape, g, out.data)
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


def _unary(a: Tensor, data: np.ndarray, op: str,
           grad: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]) -> Tensor:
    """Record ``data`` as the output of the one-input op ``op`` on ``a``.

    Backward hands ``grad(g, a.data, out.data)`` to ``a`` without a copy, so
    that array must be held by nothing else: a new array, or ``g`` itself
    (written in place or reshaped), which backward drops once this node has
    run.  An op that hands a view of anything else, such as ``reduce_sum``'s
    broadcast, records its own closure through ``_accumulate``.  Both arrays
    are read at backward time, as the module docstring's concat rule asks."""
    out = Tensor(data)

    def backward(g):
        if a.requires_grad:
            a._take(grad(g, a.data, out.data))

    return out._record((a,), op, backward)


def power(a: Tensor, exponent: float) -> Tensor:
    exponent = float(exponent)
    return _unary(a, a.data ** exponent, "pow",
                  lambda g, x, y: g * exponent * x ** (exponent - 1.0))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs two or more axes on each side: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    if b.ndim != 2 or a.ndim < 3:
        product = np.matmul
    else:
        def product(x, y):   # per-item GEMMs over blocks of a's leading axis
            out = np.empty(np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
                           + (x.shape[-2], y.shape[-1]), dtype=np.result_type(x, y))
            _rowwise(lambda o, xb, yb: np.matmul(xb, yb, out=o), out.shape, out, x, y)
            return out
    out = Tensor(product(a.data, b.data))

    def backward(g):
        if a.requires_grad:
            ga = product(g, np.swapaxes(b.data, -1, -2))
            a._take(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            # the per-item products [..., N, M], then one serial sum over items
            gb = product(np.swapaxes(a.data, -1, -2), g)
            b._take(_unbroadcast(gb, b.shape))

    return out._record((a, b), "matmul", backward)


def exp(a: Tensor) -> Tensor:
    return _unary(a, np.exp(a.data), "exp", lambda g, x, y: g * y)


def log(a: Tensor) -> Tensor:
    return _unary(a, np.log(a.data), "log", lambda g, x, y: g / x)


def sqrt(a: Tensor) -> Tensor:
    return _unary(a, np.sqrt(a.data), "sqrt", lambda g, x, y: g * 0.5 / y)


def activation(a: Tensor, kind: str) -> Tensor:
    """Elementwise nonlinearity with exact analytic derivative."""
    if kind == "relu":
        return relu(a)
    if kind == "sigmoid":
        return sigmoid(a)
    if kind == "tanh":
        return tanh(a)
    raise ValueError(f"unknown activation kind: {kind!r}")


def _relu_mask(g: np.ndarray, x: np.ndarray) -> None:
    """Zero ``g`` in place where ``x`` is not positive."""
    np.multiply(g, x > 0, out=g)


def relu(a: Tensor) -> Tensor:
    y = np.empty_like(a.data)
    _rowwise(lambda o, x: np.maximum(x, 0.0, out=o), y.shape, y, a.data)

    def grad(g, x, y):
        _rowwise(_relu_mask, g.shape, g, x)
        return g

    return _unary(a, y, "relu", grad)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+e^-x), branching on the sign so that no exp overflows."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


def sigmoid(a: Tensor) -> Tensor:
    return _unary(a, _stable_sigmoid(a.data), "sigmoid",
                  lambda g, x, y: g * y * (1.0 - y))


def tanh(a: Tensor) -> Tensor:
    return _unary(a, np.tanh(a.data), "tanh",
                  lambda g, x, y: g * (1.0 - y * y))


def softplus(a: Tensor) -> Tensor:
    # log(1 + e^x) computed without overflow; derivative is sigmoid(x)
    x = a.data
    return _unary(a, np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))),
                  "softplus", lambda g, x, y: g * _stable_sigmoid(x))


def flush_tiny_grad(a: Tensor, floor: float) -> Tensor:
    """Identity whose backward zeroes the gradient entries below ``floor``
    in magnitude.

    A value whose gradient can underflow (saturated logits) goes through
    this to stop subnormals where they start (see :data:`GRAD_FLOOR`).
    """
    def grad(g, x, y):
        g[np.abs(g) < floor] = 0.0
        return g

    return _unary(a, a.data, "flush_tiny_grad", grad)


# BLAS and numpy's elementwise loops run many times slower on subnormal
# operands, and numpy has no flush-to-zero switch, so two floors keep
# subnormals off the tape.  GRAD_FLOOR is absolute: flush_tiny_grad takes it
# for a gradient of fixed scale, such as a BCE logit gradient (a probability
# error over the batch size), where any entry that can move a weight is over
# 20 orders of magnitude above it.  Attention's exponent floor is relative to
# each row's max, because softmax sees only s - rowmax: its exp weights are
# at most 1, and clamping s - rowmax at -_exp_floor(dtype) keeps them at or
# above sqrt(finfo.tiny).  That leaves half the exponent range for what a
# weight is multiplied by, and such a weight is far below the resolution of
# its row sum, which is at least 1.
GRAD_FLOOR = 1e-30


def _exp_floor(dtype) -> float:
    """-ln(finfo(dtype).tiny) / 2: about 43.7 for float32, 354 for float64."""
    return -0.5 * math.log(np.finfo(dtype).tiny)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted stable softmax along ``axis``."""
    x = a.data
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return _unary(a, e / e.sum(axis=axis, keepdims=True), "softmax",
                  lambda g, x, y: y * (g - (g * y).sum(axis=axis, keepdims=True)))


def _weights(qs: np.ndarray, k: np.ndarray, softmax: bool,
             rowmax: np.ndarray | None = None):
    """``(E, rowmax)`` for the scaled queries ``qs``: the logits ``qs kᵀ``, or
    with softmax the unnormalised ``E = exp(max(qs kᵀ - rowmax, -F))``, F from
    :func:`_exp_floor`.  A given row max is reused, so a rebuilt E is the
    first one bit for bit."""
    e = np.matmul(qs, np.swapaxes(k, -1, -2))
    if softmax:
        if rowmax is None:
            rowmax = e.max(axis=-1, keepdims=True)
        e -= rowmax
        np.maximum(e, -_exp_floor(e.dtype), out=e)
        np.exp(e, out=e)
    return e, rowmax


def attention_weights(q: np.ndarray, k: np.ndarray, scale: float,
                      softmax: bool = True) -> np.ndarray:
    """The weights P [..., Lq, Lk] of :func:`attention` for arrays q [..., Lq, D]
    and k [..., Lk, D]: ``softmax(scale * q kᵀ)`` along the last axis, with
    :func:`attention`'s exponent floor, or just ``scale * q kᵀ`` when
    ``softmax`` is False.  The whole array is built and normalised here."""
    p = _weights(q * scale, k, softmax)[0]
    if softmax:
        p /= p.sum(axis=-1, keepdims=True)
    return p


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float,
              softmax: bool = True) -> Tensor:
    """Dot-product attention ``P @ v`` over the last two axes, computed in blocks.

    q is [..., Lq, D], k is [..., Lk, D] and v is [..., Lk, Dv], with equal
    leading axes; P is :func:`attention_weights`.  The leading (batch, head)
    items run forward and backward in :func:`_rowwise` blocks, whose
    temporaries are the weights E and the backward's dS, so the weights are
    never held whole; each item's arithmetic is the same in any block.
    ``scale`` multiplies q, and dq in backward; no [Lq, Lk] array is
    scaled.  Softmax keeps the exp weights E unnormalised, each row's
    exponent floored at -F below its max (:func:`_exp_floor`), so no weight
    is subnormal, and divides the [Lq, Dv] product ``E @ v`` by the row sum
    instead of dividing E.  Each row's max and sum are kept in [n, Lq, 1]
    arrays, cut like q: backward rebuilds each block's E from the max bit
    for bit, and divides the incoming gradient by the sum, whatever cut the
    forward ran.
    Returns ``P @ v`` [..., Lq, Dv] as a recorded Tensor.
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
    dtype = np.result_type(q.dtype, k.dtype, v.dtype)
    out_shape = (n, lq, vs.shape[-1])
    score_bytes = 2 * lq * lk * dtype.itemsize   # E, and dS in backward
    out = np.empty(out_shape, dtype=dtype)
    rowmax, rowsum = [np.empty((n, lq, 1), dtype) if softmax else None for _ in range(2)]

    def forward_items(qb, kb, vb, ob, maxb, sumb):
        e, emax = _weights(qb * scale, kb, softmax)
        np.matmul(e, vb, out=ob)
        if softmax:
            maxb[...] = emax
            sumb[...] = e.sum(axis=-1, keepdims=True)
            ob /= sumb

    _rowwise(forward_items, out_shape, qs, ks, vs, out, rowmax, rowsum,
             temp_bytes=score_bytes)

    def backward(g):
        y = result.data.reshape(out_shape)
        g = g.reshape(out_shape)
        grads = [np.empty(a.shape, dtype=dtype) if t.requires_grad else None
                 for t, a in zip((q, k, v), (qs, ks, vs))]

        def backward_items(qb, kb, vb, gb, yb, maxb, sumb, dqb, dkb, dvb):
            qb = qb * scale
            e = _weights(qb, kb, softmax, maxb)[0]
            if softmax:
                gb = gb / sumb   # P = E / rowsum
            if dvb is not None:
                np.matmul(np.swapaxes(e, -1, -2), gb, out=dvb)
            if dqb is None and dkb is None:
                return
            ds = np.matmul(gb, np.swapaxes(vb, -1, -2))
            if softmax:
                # P * (dP - rowsum(dP * P)) with dP = g vᵀ equals
                # E * (gb vᵀ - rowsum(gb * out)), which needs no
                # [..., Lq, Lk] temporary
                ds -= np.einsum("...ij,...ij->...i", gb, yb)[..., None]
                ds *= e
            if dqb is not None:
                np.matmul(ds, kb, out=dqb)
                dqb *= scale
            if dkb is not None:
                np.matmul(np.swapaxes(ds, -1, -2), qb, out=dkb)

        _rowwise(backward_items, out_shape, qs, ks, vs, g, y, rowmax, rowsum, *grads,
                 temp_bytes=score_bytes)
        for t, grad in zip((q, k, v), grads):
            if grad is not None:
                t._take(grad.reshape(t.shape))

    result = Tensor(out.reshape(q.shape[:-1] + v.shape[-1:]))
    return result._record((q, k, v), "attention", backward)


# ---------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------

def _expand_reduced(g: np.ndarray, shape, axis, keepdims: bool) -> np.ndarray:
    if not keepdims and axis is not None:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def reduce_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    """Sum over ``axis``: an int, a tuple, or None for all.  Axes follow numpy:
    a negative one counts from the end, one out of range raises ``AxisError``."""
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def backward(g):
        if a.requires_grad:
            a._accumulate(_expand_reduced(g, a.shape, axis, keepdims))

    return out._record((a,), "sum", backward)


def reduce_mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    """Mean over ``axis``: an int, a tuple, or None for all.  Axes follow numpy:
    a negative one counts from the end, one out of range raises ``AxisError``."""
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.size // max(data.size, 1)
    return _unary(a, data, "mean",
                  lambda g, x, y: _expand_reduced(g, x.shape, axis, keepdims) / count)


def reduce_max(a: Tensor, axis=None, keepdims=False) -> Tensor:
    """Max over ``axis``: an int, or None for all; the gradient flows to the
    first occurrence of the max.  Axes follow numpy: a negative one counts
    from the end, one out of range raises ``AxisError``."""
    if axis is None:
        out = reduce_max(a.reshape(a.size), axis=0)
        return reshape(out, (1,) * a.ndim) if keepdims else out
    idx = np.expand_dims(np.argmax(a.data, axis=axis), axis)  # first occurrence on ties
    out_data = np.take_along_axis(a.data, idx, axis=axis)

    def grad(g, x, y):
        buf = np.zeros_like(x)
        np.put_along_axis(buf, idx, g if keepdims else np.expand_dims(g, axis), axis=axis)
        return buf

    return _unary(a, out_data if keepdims else out_data.squeeze(axis), "max", grad)


def reshape(a: Tensor, *shape) -> Tensor:
    return _unary(a, a.data.reshape(*shape), "reshape",
                  lambda g, x, y: g.reshape(x.shape))


def transpose(a: Tensor, *axes) -> Tensor:
    if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
        axes = tuple(axes[0])
    view = a.data.transpose(*axes)   # numpy checks the axes; none reverses them all
    inverse = np.argsort(np.arange(a.ndim)[list(axes)]) if axes else None
    data = np.empty(view.shape, dtype=view.dtype)
    _rowwise(np.copyto, data.shape, data, view)
    out = Tensor(data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.transpose(inverse))

    return out._record((a,), "transpose", backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Join tensors along ``axis``, holding each recorded input once.  Axes
    follow numpy: a negative one counts from the end, one out of range raises
    ``AxisError``.

    Every recorded input (one with parents, not a leaf) of the output's
    dtype is rebound to its slice of the output: its ``data`` becomes a
    view, and its own array is freed once nothing else holds it.  Values do
    not change, and this is safe because forward data is never written after
    it is created, except for leaves, which keep their own arrays.
    """
    tensors = tuple(tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    splits = np.cumsum([t.shape[axis] for t in tensors[:-1]])
    for t, part in zip(tensors, np.split(out.data, splits, axis=axis)):
        if t._parents and t.dtype == out.dtype:
            t.data = part

    def backward(g):
        for t, part in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accumulate(part)

    return out._record(tensors, "concat", backward)


# ---------------------------------------------------------------------
# signal ops
# ---------------------------------------------------------------------

def _window_geometry(length: int, window: int, stride: int,
                     padding: str) -> tuple[int, int, int]:
    """``(pad_left, pad_right, out_len)`` of a window sliding over ``length``
    samples.  'same' pads to an output length of ceil(L/stride), an odd
    total padding putting the extra sample on the right; 'valid' pads
    nothing.  A window or stride that is not a positive int, or an unknown
    padding, raises ValueError; a window longer than the padded length
    raises ShapeError."""
    if not (isinstance(window, int) and window > 0 and isinstance(stride, int) and stride > 0):
        raise ValueError(f"window {window!r} and stride {stride!r} must be positive integers")
    if padding == "valid":
        pad_left = pad_right = 0
    elif padding == "same":
        total = max((-(-length // stride) - 1) * stride + window - length, 0)
        pad_left, pad_right = total // 2, total - total // 2
    else:
        raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
    padded = length + pad_left + pad_right
    if window > padded:
        raise ShapeError(f"window {window} exceeds padded length {padded}")
    return pad_left, pad_right, (padded - window) // stride + 1


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


PARTIAL_BLOCK = 1 << 22   # bytes of rows per partial of _sum_partials (4 MiB)


def _batch_blocks(batch: int, row_bytes: int, limit: int, parts: int = 1) -> list[slice]:
    """Slices of ``batch`` rows, each holding at most ``limit`` bytes of an
    array whose rows take ``row_bytes`` (and at least one row).  Every slice
    but a shorter last one takes the rows of an even split into the fewest
    blocks that the limit allows; a count above one is rounded up to a
    multiple of ``parts``, so that ``parts`` threads get even shares."""
    count = -(-batch // max(1, limit // max(row_bytes, 1)))
    if count > 1:
        count = -(-count // parts) * parts
    step = max(1, -(-batch // max(1, count)))
    return [slice(i, i + step) for i in range(0, batch, step)]


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: str = "valid", relu: bool = False) -> Tensor:
    """Cross-correlation of [B,Cin,L] with [Cout,Cin,K] kernels.

    ``relu=True`` applies a ReLU to the output in place: the same values and
    gradients as ``relu(conv1d(...))``, with one array on the tape instead of
    two (its backward masks the incoming gradient with ``out > 0``, which
    equals the pre-activation's ``> 0``).

    The forward's im2col, GEMM, bias and ReLU, and the backward's ReLU mask
    and the input gradient's transposed-convolution or col2im GEMM run in
    :func:`_rowwise` blocks whose temporaries are the columns, so a block's
    columns take at most ``BATCH_BLOCK`` bytes and reuse heap memory
    instead of being a fresh mmap on every call.  Each sample gets its own
    GEMM, so no bit depends on the cut.  The kernel gradient is a sum of
    partials (:func:`_kernel_grad`) over a cut that depends on the shapes
    alone.
    """
    if x.ndim != 3 or kernel.ndim != 3:
        raise ShapeError(f"conv1d expects 3D input and kernel, got {x.shape} and {kernel.shape}")
    B, Cin, L = x.shape
    Cout, KCin, K = kernel.shape
    if KCin != Cin:
        raise ShapeError(
            f"conv1d channel mismatch: input has Cin={Cin} but kernel expects Cin={KCin} "
            f"(input {x.shape}, kernel {kernel.shape})")
    pad_left, pad_right, out_len = _window_geometry(L, K, stride, padding)
    if bias is not None and bias.shape != (Cout,):
        raise ShapeError(f"bias shape {bias.shape} does not match Cout={Cout}")

    w2 = kernel.data.reshape(Cout, Cin * K)
    y = np.empty((B, Cout, out_len), dtype=np.result_type(w2, x.data))

    def forward_rows(xr, yr):
        # [Cout, Cin*K] @ [b, Cin*K, out_len] -> [b, Cout, out_len]: one GEMM
        # per sample
        np.matmul(w2, _im2col(xr, K, stride, pad_left, pad_right, out_len), out=yr)
        if bias is not None:
            yr += bias.data[:, None]
        if relu:
            np.maximum(yr, 0, out=yr)

    _rowwise(forward_rows, y.shape, x.data, y,
             temp_bytes=Cin * K * out_len * x.dtype.itemsize)
    out = Tensor(y)

    def backward(g):
        taps = _window_taps(L, K, stride, pad_left, out_len)
        if not x.requires_grad:
            gx, col_bytes = None, 0   # the mask alone: no columns
        elif stride == 1 and (K == 1 or Cout <= Cin):
            # transposed convolution: g, padded to L + K - 1, correlated with
            # the flipped kernel in one GEMM per sample.  Its columns
            # [b, Cout*K, L] are no larger than col2im's, and are g itself
            # for a pointwise kernel.
            wf = kernel.data[:, :, ::-1].transpose(1, 0, 2).reshape(Cin, Cout * K)
            gx = np.empty((B, Cin, L), dtype=np.result_type(wf, g))
            col_bytes = Cout * K * L * g.itemsize

            def input_rows(gr, gxr):
                gcols = _im2col(gr, K, 1, K - 1 - pad_left, L + pad_left - out_len, L)
                np.matmul(wf, gcols, out=gxr)
        else:
            # col2im: one GEMM to [b, Cin*K, out_len] columns, then tap k of
            # every window adds back into the input it read
            gx = np.zeros((B, Cin, L), dtype=np.result_type(w2, g))
            col_bytes = Cin * K * out_len * gx.itemsize

            def input_rows(gr, gxr):
                gcols = np.matmul(w2.T, gr).reshape(-1, Cin, K, out_len)
                for k, lo, hi, sl in taps:
                    gxr[:, :, sl] += gcols[:, :, k, lo:hi]

        def mask_and_input_rows(gr, yr, gxr):
            if relu:
                np.multiply(gr, yr > 0, out=gr)
            if gxr is not None:
                input_rows(gr, gxr)

        if relu or gx is not None:
            _rowwise(mask_and_input_rows, g.shape, g, out.data if relu else None, gx,
                     temp_bytes=col_bytes)
        if bias is not None and bias.requires_grad:
            bias._take(g.sum(axis=(0, 2)))
        if kernel.requires_grad:
            kernel._take(_kernel_grad(g, x.data, kernel.shape, taps))
        if gx is not None:
            x._take(gx)

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return out._record(parents, "conv1d", backward)


def _kernel_grad(g: np.ndarray, x: np.ndarray, shape: tuple[int, int, int],
                 taps) -> np.ndarray:
    """conv1d's kernel gradient, of ``shape`` [Cout, Cin, K]: per tap k, one
    GEMM per sample over the strided run of ``x`` that tap read (no columns
    are rebuilt or held since the forward).  Each partial of
    :func:`_sum_partials`, over its block of ``g`` and ``x`` rows, sums its
    samples in ascending b."""

    def partial_rows(rows):
        gw = np.zeros(shape, dtype=g.dtype)
        acc = np.empty(shape[:2], dtype=np.result_type(g, x))
        part = np.empty_like(acc)
        for k, lo, hi, sl in taps:
            x_k = x[rows, :, sl].transpose(0, 2, 1)  # [b, hi-lo, Cin]
            for b, g_b in enumerate(g[rows, :, lo:hi]):
                np.matmul(g_b, x_k[b], out=part if b else acc)
                if b:
                    acc += part
            gw[:, :, k] = acc
        return gw

    row_bytes = g.shape[1] * g.shape[2] * g.itemsize + x.shape[1] * x.shape[2] * x.itemsize
    return _sum_partials(partial_rows, len(g), row_bytes, np.zeros(shape, dtype=g.dtype))


def _sum_partials(fn: Callable[[slice], np.ndarray], batch: int, row_bytes: int,
                  empty: np.ndarray | None = None) -> np.ndarray:
    """The sum over rows of ``batch``: ``fn(rows)`` gives each block's
    partial, one block per at most ``PARTIAL_BLOCK`` bytes of rows that take
    ``row_bytes``.  The blocks run on the pool, which returns their partials
    in block order, and they are added in that order, so the cut, and every
    bit, depends on the shapes alone.  An empty batch gives ``empty``."""
    total, *rest = _over_batch(fn, _batch_blocks(batch, row_bytes, PARTIAL_BLOCK)) or [empty]
    for part in rest:
        total += part
    return total


BATCH_BLOCK = 1 << 21   # bytes of the widest rows in one _rowwise block (2 MiB)

_EXECUTOR = None   # the concurrent.futures.ThreadPoolExecutor of _over_batch


def _drop_executor() -> None:
    # A forked child has none of its parent's threads; it builds its own pool.
    global _EXECUTOR
    _EXECUTOR = None


os.register_at_fork(after_in_child=_drop_executor)


def _cpus() -> int:
    """The CPUs this process may run on: the threads of :func:`_over_batch`."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1   # macOS and Windows


def _over_batch(fn: Callable[[slice], object], blocks: list[slice]) -> list:
    """Run ``fn(rows)`` for each slice of batch rows in ``blocks``, on one
    thread per CPU.  Returns once every block has run, with each block's
    ``fn(rows)`` in block order, and re-raises a block's exception.  A single
    block, or a single CPU, runs inline."""
    global _EXECUTOR
    threads = _cpus()
    if len(blocks) < 2 or threads == 1:
        return [fn(rows) for rows in blocks]
    # imported here, not at the top: concurrent.futures (and the logging
    # module it loads) adds about 9 ms to every import of the package
    from concurrent.futures import ThreadPoolExecutor, wait
    if _EXECUTOR is None:
        _EXECUTOR = ThreadPoolExecutor(threads, thread_name_prefix="over_batch")
    futures = [_EXECUTOR.submit(fn, rows) for rows in blocks]
    wait(futures)
    return [f.result() for f in futures]


def _rowwise(fn: Callable[..., None], shape: tuple[int, ...], *arrays: np.ndarray | None,
             temp_bytes: int = 0) -> None:
    """Run ``fn(*blocks)`` over the batch rows of an op whose result has
    ``shape`` [B, ...].  An array with the batch axis (as many axes as
    ``shape``, and B rows) is cut to the block's rows; a broadcast operand
    (fewer axes, or one leading row), or None, is passed whole.
    ``temp_bytes`` is what ``fn`` allocates per row, such as conv1d's
    columns.  The one rule: a block holds at most ``BATCH_BLOCK`` bytes of
    the widest row among the cut arrays and the temporaries.  A batch that
    fits in one block runs inline; more blocks are rounded up to a multiple
    of the CPU count and run on :func:`_over_batch`.  An empty ``shape``
    runs inline."""
    if not shape:
        fn(*arrays)
        return
    batch = shape[0]
    cut = [a is not None and a.ndim == len(shape) and a.shape[0] == batch
           for a in arrays]
    row_bytes = max([temp_bytes] + [a.itemsize * math.prod(a.shape[1:])
                                    for a, c in zip(arrays, cut) if c])
    _over_batch(lambda rows: fn(*(a[rows] if c else a for a, c in zip(arrays, cut))),
                _batch_blocks(batch, row_bytes, BATCH_BLOCK, _cpus()))


def pool1d(x: Tensor, kind: str, window: int, stride: int,
           padding: str = "valid") -> Tensor:
    """Windowed max/avg pooling over the length axis (no padding by default).

    ``padding='same'`` is supported for max pooling only (pads with -inf);
    it exists for pooling branches that must preserve length.  Max pooling
    runs its forward and backward over blocks of batch rows
    (:func:`_rowwise`); every output and gradient bit is the same as in one
    pass, because each row's work is independent and keeps its tap order.
    """
    if kind not in ("max", "avg"):
        raise ValueError(f"pool kind must be 'max' or 'avg', got {kind!r}")
    if x.ndim != 3:
        raise ShapeError(f"pool1d expects [B,C,L], got {x.shape}")
    if padding == "same" and kind != "max":
        raise ValueError("padding='same' is only supported for max pooling")
    B, C, L = x.shape
    pad_left, _, out_len = _window_geometry(L, window, stride, padding)
    taps = _window_taps(L, window, stride, pad_left, out_len)

    if kind == "max":
        y = np.empty((B, C, out_len), dtype=x.dtype)

        def forward_rows(xr, yr):
            # Padding reads as -inf, so the running maximum starts there.  It
            # is np.maximum's second operand: ties return the second operand,
            # so the earliest tap wins, as with argmax (this keeps the sign of
            # tied zeros).
            yr.fill(-np.inf)
            for _, lo, hi, sl in taps:
                np.maximum(xr[:, :, sl], yr[:, :, lo:hi], out=yr[:, :, lo:hi])

        _rowwise(forward_rows, y.shape, x.data, y)

        def grad(g, xd, yd):
            gx = np.zeros((B, C, L), dtype=g.dtype)
            n_padded = -(-pad_left // stride)

            def backward_rows(xr, yr, gr, gxr):
                # The first tap equal to the maximum takes the gradient (ties
                # are common after ReLU).  A window that starts in the left
                # padding and has maximum -inf gives it to the padding, that
                # is, drops it.
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

            _rowwise(backward_rows, gx.shape, xd, yd, g, gx)
            return gx
    else:
        y = _window_view(x.data, out_len, window, stride).mean(axis=3)

        def grad(g, xd, yd):
            gx = np.zeros((B, C, L), dtype=g.dtype)
            gw = g / window
            for *_, sl in taps:
                gx[:, :, sl] += gw
            return gx

    return _unary(x, y, f"pool_{kind}", grad)


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


BN_MOMENTUM = 0.9   # batchnorm1d's weight on the old running statistics
BN_EPS = 1e-5       # added to batchnorm1d's variance
LN_EPS = 1e-5       # added to layer_norm's variance


def batchnorm1d(x: Tensor, gamma: Tensor, beta: Tensor,
                running_mean: np.ndarray, running_var: np.ndarray,
                training: bool, relu: bool = False) -> Tensor:
    """Per-channel batch normalization over [B,C,L]; ``gamma``, ``beta`` and
    the running buffers are each [C], and any other shape raises ShapeError.

    Train mode normalizes by batch statistics (biased variance) and updates
    the running buffers in place: new = BN_MOMENTUM*old + (1-BN_MOMENTUM)*batch.
    Eval mode normalizes by the running buffers.  ``relu=True`` applies a
    ReLU to the output in place, as in :func:`conv1d`.

    No centred copy of ``x`` is kept: each pass that needs ``x - mean``
    recomputes it from ``x``, which the tape holds anyway, block by block.
    The per-channel sums (the batch mean and variance, and the backward's
    sums of ``g`` and ``g * (x - mean)``) add partials on the pool
    (:func:`_sum_partials`).  Every elementwise pass runs over batch blocks
    (:func:`_rowwise`), fused per block; each element gets the same
    operations in the same order as in one pass, so no bit depends on the
    CPU count.
    """
    if x.ndim != 3:
        raise ShapeError(f"batchnorm1d expects [B,C,L], got {x.shape}")
    B, C, L = x.shape
    for name, p in (("gamma", gamma), ("beta", beta),
                    ("running_mean", running_mean), ("running_var", running_var)):
        if p.shape != (C,):
            raise ShapeError(f"batchnorm1d {name} shape {p.shape} does not match "
                             f"input {x.shape}: expected ({C},)")
    n = B * L
    row_bytes = C * L * x.dtype.itemsize
    if training:
        if n < 2:
            raise ValueError(f"batchnorm1d train mode needs B*L >= 2, got {n}")
        mu = _sum_partials(lambda rows: x.data[rows].sum(axis=(0, 2)), B, row_bytes) / n

        def centred_squares(rows):
            xc = x.data[rows] - mu[:, None]
            return np.einsum("bcl,bcl->c", xc, xc)

        var = _sum_partials(centred_squares, B, row_bytes) / n
        running_mean *= BN_MOMENTUM
        running_mean += (1.0 - BN_MOMENTUM) * mu
        running_var *= BN_MOMENTUM
        running_var += (1.0 - BN_MOMENTUM) * var
    else:
        # a copy: a train-mode call before this node's backward moves the buffer
        mu = running_mean.copy()
        var = running_var
    invstd = 1.0 / np.sqrt(var + BN_EPS)
    scale = gamma.data * invstd
    shift = beta.data if training else beta.data - mu * scale
    y = np.empty(x.shape, dtype=np.result_type(x.data, scale))

    def forward_rows(xr, yr):
        if training:   # (x - mu) * scale + beta
            np.subtract(xr, mu[:, None], out=yr)
            yr *= scale[:, None]
        else:          # x * scale + (beta - mu * scale)
            np.multiply(xr, scale[:, None], out=yr)
        yr += shift[:, None]
        if relu:
            np.maximum(yr, 0, out=yr)

    _rowwise(forward_rows, y.shape, x.data, y)
    out = Tensor(y)

    def backward(g):
        def sums_rows(rows):
            # the ReLU was applied to y in place: mask g with y > 0
            gr = g[rows]
            if relu:
                np.multiply(gr, out.data[rows] > 0, out=gr)
            return np.stack((gr.sum(axis=(0, 2)),
                             np.einsum("bcl,bcl->c", gr, x.data[rows] - mu[:, None])))

        sum_g, sum_gxc = _sum_partials(sums_rows, B, row_bytes,
                                       np.zeros((2, C), dtype=np.result_type(g, x.data)))
        if gamma.requires_grad:
            gamma._take(sum_gxc * invstd)
        if beta.requires_grad:
            beta._accumulate(sum_g)
        if not x.requires_grad:
            return
        if training:
            # scale * (g - sum_g/n - (x - mu) * invstd^2 * sum_gxc/n), in one buffer
            a = (invstd * invstd * sum_gxc / n)[:, None]
            b = (sum_g / n)[:, None]
            gx = np.empty(x.shape, dtype=np.result_type(x.data, a))

            def backward_rows(xr, gr, gxr):
                np.subtract(xr, mu[:, None], out=gxr)
                gxr *= a
                gxr += b
                np.subtract(gr, gxr, out=gxr)
                gxr *= scale[:, None]
        else:
            gx = np.empty(x.shape, dtype=np.result_type(g, scale))

            def backward_rows(xr, gr, gxr):
                np.multiply(gr, scale[:, None], out=gxr)

        _rowwise(backward_rows, gx.shape, x.data, g, gx)
        x._take(gx)

    return out._record((x, gamma, beta), "batchnorm1d", backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis, then scale by ``gamma`` and shift by
    ``beta``, each of shape [N] for an input [..., N].  Forward and backward
    run over blocks of the rows of the leading axis (:func:`_rowwise`); each
    row's arithmetic is that of one whole-array pass.  The gamma and beta
    gradients are sums over the whole array."""
    n = x.shape[-1]
    for name, t in (("gamma", gamma), ("beta", beta)):
        if t.shape != (n,):
            raise ShapeError(f"layer_norm {name} shape {t.shape} does not match "
                             f"input {x.shape}: expected ({n},)")
    xhat = np.empty(x.shape, dtype=x.dtype)
    invstd = np.empty(x.shape[:-1] + (1,), dtype=x.dtype)
    y = np.empty(x.shape, dtype=np.result_type(gamma.data, x.data, beta.data))
    rows = x.shape if x.ndim > 1 else ()   # a 1-D input is one row

    def forward_rows(xr, xhat_r, invstd_r, yr):
        mu = xr.mean(axis=-1, keepdims=True)
        var = xr.var(axis=-1, keepdims=True)
        np.divide(1.0, np.sqrt(var + LN_EPS), out=invstd_r)
        np.subtract(xr, mu, out=xhat_r)
        xhat_r *= invstd_r
        np.multiply(gamma.data, xhat_r, out=yr)
        yr += beta.data

    _rowwise(forward_rows, rows, x.data, xhat, invstd, y)
    out = Tensor(y)

    def backward(g):
        g_xhat = (np.empty(x.shape, dtype=np.result_type(g, xhat))
                  if gamma.requires_grad else None)
        gx = (np.empty(x.shape, dtype=np.result_type(x.data, g, gamma.data))
              if x.requires_grad else None)

        def backward_rows(gr, xhat_r, invstd_r, g_xhat_r, gxr):
            if g_xhat_r is not None:
                np.multiply(gr, xhat_r, out=g_xhat_r)
            if gxr is not None:
                # (invstd / n) * (n * gxhat - s1 - xhat * s2)
                gxhat = gr * gamma.data
                s1 = gxhat.sum(axis=-1, keepdims=True)
                s2 = (gxhat * xhat_r).sum(axis=-1, keepdims=True)
                gxhat *= n
                gxhat -= s1
                gxhat -= xhat_r * s2
                np.multiply(invstd_r / n, gxhat, out=gxr)

        _rowwise(backward_rows, rows, g, xhat, invstd, g_xhat, gx)
        if gamma.requires_grad:
            gamma._take(_unbroadcast(g_xhat, gamma.shape))
        if beta.requires_grad:
            beta._take(_unbroadcast(g, beta.shape))
        if gx is not None:
            x._take(gx)

    return out._record((x, gamma, beta), "layer_norm", backward)
