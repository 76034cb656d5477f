"""Reverse-mode autodiff over numpy arrays, restricted to the 1D signal ops we need.

Every differentiable value is a :class:`Tensor` wrapping a float ndarray.
Operations record their parents and a closure that scatters the incoming
gradient back to them; ``Tensor.backward()`` replays those closures in
reverse topological order.  Math is plain numpy.  The BLAS-backed ops
(matmul, the conv GEMM) may run on several threads, and how their sums are
split depends on the thread count, so a given seed replays bit for bit for a
fixed BLAS thread count.  The benchmark prints that count.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

_DEFAULT_DTYPE = np.float64
_GRAD_ENABLED = True


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


def set_default_dtype(dtype) -> None:
    """Set the dtype used when wrapping raw data (float32 or float64)."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype).type
    if dtype not in (np.float32, np.float64):
        raise ValueError("default dtype must be float32 or float64")
    _DEFAULT_DTYPE = dtype


def default_dtype():
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


def grad_enabled() -> bool:
    return _GRAD_ENABLED


class Tensor:
    """A shaped float array participating in the gradient tape.

    ``data`` is always a C-contiguous float ndarray; ``grad`` is allocated
    lazily during backward (except for Parameters, which keep a permanent
    zero-initialised gradient buffer).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype if dtype is not None else _DEFAULT_DTYPE)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_DEFAULT_DTYPE)
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
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self, grad: np.ndarray | None = None,
                 free_graph: bool = True) -> None:
        """Run reverse-mode accumulation from this tensor.

        With ``free_graph`` (the default) each interior node is released as
        soon as its gradient has been scattered: closures capture their
        output tensors, so without this the graph forms reference cycles
        that persist until the cyclic collector runs — unacceptable when a
        single batch graph holds hundreds of megabytes.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        order = topo_order(self)
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if free_graph and node._parents:
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


def _wrap(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


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
    a = _wrap(a, _DEFAULT_DTYPE)
    b = _wrap(b, a.dtype)
    out = Tensor(a.data + b.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return out._record((a, b), "add", backward)


def mul(a: Tensor, b) -> Tensor:
    a = _wrap(a, _DEFAULT_DTYPE)
    b = _wrap(b, a.dtype)
    out = Tensor(a.data * b.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

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
            a._accumulate(g * (a.data > 0))

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


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted stable softmax along ``axis``."""
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def backward(g):
        if a.requires_grad:
            inner = (g * y).sum(axis=axis, keepdims=True)
            a._accumulate(y * (g - inner))

    return out._record((a,), "softmax", backward)


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
            a._accumulate(_expand_reduced(g, a.shape, axes, keepdims).copy())

    return out._record((a,), "sum", backward)


def reduce_mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    count = math.prod(a.shape[ax] for ax in axes)
    out = Tensor(a.data.mean(axis=axes, keepdims=keepdims))

    def backward(g):
        if a.requires_grad:
            a._accumulate(_expand_reduced(g, a.shape, axes, keepdims) / count)

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
            a._accumulate(buf)

    return out._record((a,), "max", backward)


def reshape(a: Tensor, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out = Tensor(a.data.reshape(shape))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

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
    tensors = tuple(tensors)
    ax = axis % tensors[0].ndim
    out = Tensor(np.concatenate([t.data for t in tensors], axis=ax))
    offsets = np.cumsum([0] + [t.shape[ax] for t in tensors])

    def backward(g):
        slicer = [slice(None)] * g.ndim
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer[ax] = slice(start, stop)
                t._accumulate(g[tuple(slicer)])

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


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: str = "valid") -> Tensor:
    """Cross-correlation of [B,Cin,L] with [Cout,Cin,K] kernels."""
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

    xp = np.pad(x.data, ((0, 0), (0, 0), (pad_left, pad_right))) if (pad_left or pad_right) else x.data
    out_len = (L + pad_left + pad_right - K) // stride + 1
    windows = _window_view(xp, out_len, K, stride)
    # [B, out_len, Cin*K] @ [Cin*K, Cout] -> one GEMM per call
    cols = np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(B * out_len, Cin * K)
    w2 = kernel.data.reshape(Cout, Cin * K).T
    y = cols @ w2
    y = y.reshape(B, out_len, Cout).transpose(0, 2, 1)
    if bias is not None:
        y = y + bias.data[None, :, None]
    out = Tensor(np.ascontiguousarray(y))

    def backward(g):
        gmat = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(B * out_len, Cout)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2)))
        if kernel.requires_grad:
            gw = cols.T @ gmat  # [Cin*K, Cout]
            kernel._accumulate(np.ascontiguousarray(gw.T).reshape(Cout, Cin, K))
        if x.requires_grad:
            gcols = (gmat @ w2.T).reshape(B, out_len, Cin, K).transpose(0, 2, 1, 3)
            gxp = np.zeros((B, Cin, L + pad_left + pad_right), dtype=g.dtype)
            span = (out_len - 1) * stride + 1
            for k in range(K):
                gxp[:, :, k:k + span:stride] += gcols[:, :, :, k]
            x._accumulate(gxp[:, :, pad_left:pad_left + L])

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return out._record(parents, "conv1d", backward)


def _pool_taps(length: int, window: int, stride: int, pad_left: int,
               out_len: int) -> list[tuple[int, int, slice]]:
    """For each window tap k that reads the input at all: the outputs
    [lo, hi) whose tap k falls inside the unpadded input, and the strided
    slice of the length axis that those taps read, in ascending k."""
    taps = []
    for k in range(window):
        first = k - pad_left  # input index of tap k in window 0
        lo = max(0, -(first // stride))
        hi = min(out_len, (length - 1 - first) // stride + 1)
        if lo < hi:
            start = lo * stride + first
            taps.append((lo, hi, slice(start, start + (hi - lo - 1) * stride + 1, stride)))
    return taps


def pool1d(x: Tensor, kind: str, window: int, stride: int,
           padding: str = "valid") -> Tensor:
    """Windowed max/avg pooling over the length axis (no padding by default).

    ``padding='same'`` is supported for max pooling only (pads with -inf);
    it exists for pooling branches that must preserve length.
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
    taps = _pool_taps(L, window, stride, pad_left, out_len)

    if kind == "max":
        # Padding reads as -inf, so the running maximum starts there.  It is
        # np.maximum's second operand: ties return the second operand, so the
        # earliest tap wins, as with argmax (this keeps the sign of tied zeros).
        y = np.full((B, C, out_len), -np.inf, dtype=x.dtype)
        for lo, hi, sl in taps:
            np.maximum(x.data[:, :, sl], y[:, :, lo:hi], out=y[:, :, lo:hi])
        out = Tensor(y)

        def backward(g):
            if x.requires_grad:
                # The first tap equal to the maximum takes the gradient (ties
                # are common after ReLU).  A window that starts in the left
                # padding and has maximum -inf gives it to the padding, that
                # is, drops it.
                claimed = np.zeros(y.shape, dtype=bool)
                n_padded = -(-pad_left // stride)
                claimed[:, :, :n_padded] = y[:, :, :n_padded] == -np.inf
                hits = []
                for lo, hi, sl in taps:
                    hit = x.data[:, :, sl] == y[:, :, lo:hi]
                    hit &= ~claimed[:, :, lo:hi]
                    claimed[:, :, lo:hi] |= hit
                    hits.append(hit)
                # Taps are added in descending k: each input position then
                # sums its windows in ascending window order, the order
                # np.add.at over an argmax index would use, so overlapping
                # windows give the same bits.
                gx = np.zeros((B, C, L), dtype=g.dtype)
                for (lo, hi, sl), hit in zip(reversed(taps), reversed(hits)):
                    gx[:, :, sl] += g[:, :, lo:hi] * hit
                x._accumulate(gx)
    else:
        out = Tensor(_window_view(x.data, out_len, window, stride).mean(axis=3))

        def backward(g):
            if x.requires_grad:
                gx = np.zeros((B, C, L), dtype=g.dtype)
                gw = g / window
                for _, _, sl in taps:
                    gx[:, :, sl] += gw
                x._accumulate(gx)

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
                training: bool, momentum: float = 0.9, eps: float = 1e-5) -> Tensor:
    """Per-channel batch normalization over [B,C,L].

    Train mode normalizes by batch statistics (biased variance) and updates
    the running buffers in place: new = momentum*old + (1-momentum)*batch.
    Eval mode normalizes by the running buffers.
    """
    if x.ndim != 3:
        raise ShapeError(f"batchnorm1d expects [B,C,L], got {x.shape}")
    B, C, L = x.shape
    if training:
        n = B * L
        if n < 2:
            raise ValueError(f"batchnorm1d train mode needs B*L >= 2, got {n}")
        mu = x.data.mean(axis=(0, 2))
        var = x.data.var(axis=(0, 2))
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mu
        running_var *= momentum
        running_var += (1.0 - momentum) * var
    else:
        mu = running_mean
        var = running_var
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu[None, :, None]) * invstd[None, :, None]
    out = Tensor(gamma.data[None, :, None] * xhat + beta.data[None, :, None])

    def backward(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=(0, 2)))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=(0, 2)))
        if x.requires_grad:
            gxhat = g * gamma.data[None, :, None]
            if training:
                n = B * L
                s1 = gxhat.sum(axis=(0, 2), keepdims=True)
                s2 = (gxhat * xhat).sum(axis=(0, 2), keepdims=True)
                gx = (invstd[None, :, None] / n) * (n * gxhat - s1 - xhat * s2)
            else:
                gx = gxhat * invstd[None, :, None]
            x._accumulate(gx)

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
            x._accumulate((invstd / n) * (n * gxhat - s1 - xhat * s2))

    return out._record((x, gamma, beta), "layer_norm", backward)
