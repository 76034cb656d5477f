"""Tensor engine: forward oracles against naive numpy, gradients against
central differences."""

import gc
import itertools
import json
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from openblas_threads import loaded_openblas_threads
from physiobench.core import nn
from physiobench.core import tensor as T
from physiobench.core.gradcheck import grad_check
from physiobench.core.tensor import ShapeError, Tensor

SEEDS = range(10)


def _param(rng, *shape):
    return nn.Parameter(rng.normal(size=shape))


def _set_cpus(monkeypatch, n):
    """Make ``T._over_batch`` and the cuts it runs see ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


# ---------------------------------------------------------------------
# construction and bookkeeping
# ---------------------------------------------------------------------

def test_scalar_tensor_keeps_zero_dim_shape():
    t = Tensor(3.5)
    assert t.shape == ()
    assert t.item() == 3.5


def test_default_dtype_switch(float32_mode):
    # data without a float dtype of its own takes the default
    assert Tensor([1.0, 2.0]).dtype == np.float32
    assert Tensor(2.5).dtype == np.float32
    assert Tensor(np.arange(3)).dtype == np.float32
    assert nn.Parameter(np.ones(3)).dtype == np.float32
    # float arrays and numpy scalars keep theirs; an explicit dtype wins
    x = Tensor(np.ones((2, 3)))
    assert x.dtype == (x * 2.0).dtype == (1.0 - x).dtype == np.float64
    assert Tensor(np.float64(2.5)).dtype == np.float64
    assert Tensor(np.ones(3), dtype=np.float32).dtype == np.float32


def test_int_input_coerced_to_float():
    assert Tensor([1, 2, 3]).dtype == np.float64


def test_no_grad_blocks_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = x * 2.0
    assert not y.requires_grad
    z = x * 2.0
    assert z.requires_grad


def test_backward_frees_interior_nodes_but_keeps_leaf_grads():
    x = Tensor(np.ones(4), requires_grad=True)
    y = T.reduce_sum(x * x)
    y.backward()
    npt.assert_allclose(x.grad, 2.0)
    assert y._parents == () and y._backward is None


def test_first_gradient_is_a_private_copy():
    # add hands one gradient array to both parents; reduce_sum hands a
    # read-only broadcast view
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    c = Tensor(np.ones(3), requires_grad=True)
    y = (a + b) + T.reduce_sum(c)
    g = np.full(3, 2.0)
    y.backward(g)
    g[:] = 7.0
    npt.assert_array_equal(a.grad, 2.0)
    npt.assert_array_equal(b.grad, 2.0)
    npt.assert_array_equal(c.grad, 6.0)
    a.grad[:] = -1.0
    c.grad += 1.0
    npt.assert_array_equal(b.grad, 2.0)
    npt.assert_array_equal(c.grad, 7.0)


# ---------------------------------------------------------------------
# arithmetic forward + broadcasting gradients
# ---------------------------------------------------------------------

def test_add_mul_forward_match_numpy():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    npt.assert_array_equal((Tensor(a) + Tensor(b)).data, a + b)
    npt.assert_array_equal((Tensor(a) * Tensor(b)).data, a * b)
    npt.assert_array_equal((Tensor(a) - Tensor(b)).data, a - b)
    # division is composed as a * b**-1, allow an ulp
    npt.assert_allclose((Tensor(a) / Tensor(np.abs(b) + 1)).data,
                        a / (np.abs(b) + 1), rtol=1e-15)


def test_broadcast_gradient_unbroadcasts():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((1, 3)), requires_grad=True)
    c = Tensor(2.0, requires_grad=True)
    out = T.reduce_sum((a + b) * c)
    out.backward()
    assert a.grad.shape == (2, 3)
    assert b.grad.shape == (1, 3)
    npt.assert_allclose(b.grad, 2.0 * 2)     # summed over broadcast rows
    assert c.grad.shape == ()
    npt.assert_allclose(c.grad, 12.0)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


@pytest.mark.parametrize("seed", SEEDS)
def test_arithmetic_grad_check(seed):
    rng = np.random.default_rng(seed)
    a = _param(rng, 2, 3)
    b = _param(rng, 2, 3)

    def f():
        return T.reduce_sum(a * b + a / (b * b + 1.0) - b ** 2.0)

    assert grad_check(f, [a, b]) < 1e-4


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul_grad_check(seed):
    rng = np.random.default_rng(seed)
    a = _param(rng, 3, 4)
    b = _param(rng, 4, 2)
    assert grad_check(lambda: T.reduce_sum(T.matmul(a, b)), [a, b]) < 1e-4


def test_grad_check_reads_a_parameter_outside_the_graph_as_zero_gradient():
    rng = np.random.default_rng(4)
    a, unused = _param(rng, 3, 4), _param(rng, 2)
    f = lambda: T.reduce_sum(a * a)
    assert grad_check(f, [unused]) == 0.0   # analytic and numeric both zero
    assert unused.grad is None
    assert grad_check(f, [a, unused]) < 1e-4


def test_matmul_hands_over_the_weight_gradient_without_a_copy():
    # an 8 MiB weight gradient: a copy of it would double the backward's peak
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(8, 1024)))
    w = _param(rng, 1024, 1024)
    g = rng.normal(size=(8, 1024))
    out = T.matmul(x, w)
    tracemalloc.start()
    try:
        out.backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    npt.assert_allclose(w.grad, x.data.T @ g, rtol=1e-12, atol=1e-12)
    assert peak < 1.25 * w.data.nbytes, peak / w.data.nbytes


# ---------------------------------------------------------------------
# pointwise nonlinearities
# ---------------------------------------------------------------------

def test_activation_forwards():
    x = np.linspace(-3, 3, 13)
    npt.assert_allclose(T.relu(Tensor(x)).data, np.maximum(x, 0))
    npt.assert_allclose(T.sigmoid(Tensor(x)).data, 1 / (1 + np.exp(-x)), rtol=1e-12)
    npt.assert_allclose(T.tanh(Tensor(x)).data, np.tanh(x), rtol=1e-12)
    npt.assert_allclose(T.softplus(Tensor(x)).data, np.log1p(np.exp(x)), rtol=1e-12)
    npt.assert_allclose(T.exp(Tensor(x)).data, np.exp(x), rtol=1e-12)
    npt.assert_allclose(T.log(Tensor(np.abs(x) + 1)).data, np.log(np.abs(x) + 1), rtol=1e-12)
    npt.assert_allclose(T.sqrt(Tensor(np.abs(x) + 1)).data, np.sqrt(np.abs(x) + 1), rtol=1e-12)


def test_softplus_is_stable_for_large_inputs():
    x = Tensor(np.array([800.0, -800.0]))
    out = T.softplus(x).data
    assert np.isfinite(out).all()
    npt.assert_allclose(out[0], 800.0)
    assert out[1] == 0.0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("op", [T.exp, T.sigmoid, T.tanh, T.softplus, T.relu])
def test_pointwise_grad_check(op, seed):
    rng = np.random.default_rng(seed)
    # keep away from relu's kink at 0 so the central difference is valid
    x = nn.Parameter(rng.uniform(0.2, 1.5, size=(2, 5)) * rng.choice([-1.0, 1.0], size=(2, 5)))
    assert grad_check(lambda: T.reduce_sum(op(x)), [x]) < 1e-4


@pytest.mark.parametrize("seed", SEEDS)
def test_log_sqrt_power_grad_check(seed):
    rng = np.random.default_rng(seed)
    x = nn.Parameter(rng.uniform(0.5, 2.0, size=(3, 3)))

    def f():
        return T.reduce_sum(T.log(x) + T.sqrt(x) + x ** 3.0)

    assert grad_check(f, [x]) < 1e-4


def _softmax_reference(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _flushed(g, floor):
    g[np.abs(g) < floor] = 0.0
    return g


def _max_forward(x, axis, keepdims):
    y = np.take_along_axis(x, np.expand_dims(np.argmax(x, axis=axis), axis), axis=axis)
    return y if keepdims else y.squeeze(axis)


def _max_grad(g, x, axis, keepdims):
    buf = np.zeros_like(x)
    np.put_along_axis(buf, np.expand_dims(np.argmax(x, axis=axis), axis),
                      g if keepdims else np.expand_dims(g, axis), axis=axis)
    return buf


def _avg_pool_grad(g, x, window, stride):
    gx = np.zeros(x.shape, dtype=g.dtype)
    gw = g / window
    for k in range(window):
        gx[:, :, k:k + (g.shape[2] - 1) * stride + 1:stride] += gw
    return gx


# op -> (op, forward, input gradient from (g, x, y)), each as the op wrote it
# before the one-input ops shared one recorder; the entries from relu on
# recorded closures of their own until then.  Max pooling, whose blocked loops
# do not fit an expression, is checked against its windows' maximum and
# naive_max_pool1d_grad, bit for bit.  Inputs are [4, 9], or [2, 3, 9] for
# pooling (windows of 3 at stride 2: 4 outputs).
ELEMENTWISE = {
    "exp": (T.exp, np.exp, lambda g, x, y: g * y),
    "log": (T.log, np.log, lambda g, x, y: g / x),
    "sqrt": (T.sqrt, np.sqrt, lambda g, x, y: g * 0.5 / y),
    "power": (lambda t: T.power(t, 2.5), lambda x: x ** 2.5,
              lambda g, x, y: g * 2.5 * x ** (2.5 - 1.0)),
    "reciprocal": (lambda t: T.power(t, -1.0), lambda x: x ** -1.0,
                   lambda g, x, y: g * -1.0 * x ** (-1.0 - 1.0)),
    "sigmoid": (T.sigmoid, T._stable_sigmoid, lambda g, x, y: g * y * (1.0 - y)),
    "tanh": (T.tanh, np.tanh, lambda g, x, y: g * (1.0 - y * y)),
    "softplus": (T.softplus,
                 lambda x: np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))),
                 lambda g, x, y: g * T._stable_sigmoid(x)),
    "softmax": (lambda t: T.softmax(t, axis=-1), lambda x: _softmax_reference(x, -1),
                lambda g, x, y: y * (g - (g * y).sum(axis=-1, keepdims=True))),
    "softmax_axis0": (lambda t: T.softmax(t, axis=0), lambda x: _softmax_reference(x, 0),
                      lambda g, x, y: y * (g - (g * y).sum(axis=0, keepdims=True))),
    "relu": (T.relu, lambda x: np.maximum(x, 0.0),
             lambda g, x, y: np.multiply(g, x > 0, out=g)),
    "flush_tiny_grad": (lambda t: T.flush_tiny_grad(t, 0.5), lambda x: x,
                        lambda g, x, y: _flushed(g, 0.5)),
    "mean": (lambda t: T.reduce_mean(t, axis=1), lambda x: x.mean(axis=(1,)),
             lambda g, x, y: np.broadcast_to(g.reshape(4, 1), x.shape) / 9),
    "mean_all": (T.reduce_mean, lambda x: x.mean(axis=(0, 1)),
                 lambda g, x, y: np.broadcast_to(g.reshape(1, 1), x.shape) / 36),
    "max": (lambda t: T.reduce_max(t, axis=1), lambda x: _max_forward(x, 1, False),
            lambda g, x, y: _max_grad(g, x, 1, False)),
    "max_keepdims": (lambda t: T.reduce_max(t, axis=0, keepdims=True),
                     lambda x: _max_forward(x, 0, True),
                     lambda g, x, y: _max_grad(g, x, 0, True)),
    "reshape": (lambda t: T.reshape(t, 2, 18), lambda x: x.reshape(2, 18),
                lambda g, x, y: g.reshape(x.shape)),
    "pool_max": (lambda t: T.pool1d(t, "max", 3, 2),
                 lambda x: T._window_view(x, 4, 3, 2).max(axis=3),
                 lambda g, x, y: naive_max_pool1d_grad(x, 3, 2, "valid", g)),
    "pool_avg": (lambda t: T.pool1d(t, "avg", 3, 2),
                 lambda x: T._window_view(x, 4, 3, 2).mean(axis=3),
                 lambda g, x, y: _avg_pool_grad(g, x, 3, 2)),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ELEMENTWISE)
def test_elementwise_ops_match_their_expressions_bit_for_bit(name, dtype):
    op, forward, grad = ELEMENTWISE[name]
    rng = np.random.default_rng(sorted(ELEMENTWISE).index(name))
    x = rng.normal(size=(2, 3, 9) if name.startswith("pool") else (4, 9)) * 3
    if name in ("log", "sqrt", "power", "reciprocal"):
        x = np.abs(x) + 0.1
    x = x.astype(dtype)
    y = forward(x)
    g = rng.normal(size=y.shape).astype(dtype)
    a = Tensor(x, requires_grad=True)
    out = op(a)
    assert out.dtype == y.dtype == dtype
    npt.assert_array_equal(out.data, y)
    out.backward(g)
    want = grad(g, x, y)
    assert a.grad.dtype == want.dtype == dtype
    npt.assert_array_equal(a.grad, want)


def test_softmax_rows_sum_to_one_and_match_reference():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 7)) * 3
    s = T.softmax(Tensor(x), axis=-1).data
    npt.assert_allclose(s.sum(axis=-1), 1.0, rtol=1e-12)
    ref = np.exp(x - x.max(-1, keepdims=True))
    ref /= ref.sum(-1, keepdims=True)
    npt.assert_allclose(s, ref, rtol=1e-12)


def test_softmax_handles_large_logits():
    s = T.softmax(Tensor(np.array([[1000.0, 999.0, -1000.0]])), axis=-1).data
    assert np.isfinite(s).all()
    npt.assert_allclose(s.sum(), 1.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax_grad_check(seed):
    rng = np.random.default_rng(seed)
    x = _param(rng, 3, 5)
    w = Tensor(rng.normal(size=(3, 5)))
    assert grad_check(lambda: T.reduce_sum(T.softmax(x, axis=-1) * w), [x]) < 1e-4


# ---------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------

# (q, k, v) shapes: NL-shaped [B,L,E] with Lq = Lk and Lq != Lk, MSA-shaped
# [B,H,L,dk] with Lq != Lk and a value width unlike the key width
ATTENTION_SHAPES = [((2, 6, 3), (2, 6, 3), (2, 6, 3)),
                    ((2, 5, 3), (2, 7, 3), (2, 7, 4)),
                    ((2, 2, 4, 3), (2, 2, 6, 3), (2, 2, 6, 5))]


def naive_attention(q, k, v, scale, softmax):
    s = np.einsum("...id,...jd->...ij", q, k) * scale
    if softmax:
        s = np.exp(s - s.max(axis=-1, keepdims=True))
        s /= s.sum(axis=-1, keepdims=True)
    return np.einsum("...ij,...jd->...id", s, v), s


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("softmax", [True, False])
def test_attention_grad_check(softmax, seed):
    rng = np.random.default_rng(seed)
    for shapes in ATTENTION_SHAPES:
        q, k, v = (_param(rng, *s) for s in shapes)
        scale = 0.7 if softmax else 1.0 / shapes[1][-2]
        probe = Tensor(rng.normal(size=shapes[0][:-1] + shapes[2][-1:]))
        f = lambda: T.reduce_sum(T.attention(q, k, v, scale, softmax=softmax) * probe)
        assert grad_check(f, [q, k, v]) < 1e-4, shapes


@pytest.mark.parametrize("softmax", [True, False])
def test_float32_attention_agrees_with_float64(softmax):
    rng = np.random.default_rng(6)
    for shapes in ATTENTION_SHAPES:
        arrays = [rng.normal(size=s) for s in shapes]
        g = rng.normal(size=shapes[0][:-1] + shapes[2][-1:])
        scale = 0.7 if softmax else 1.0 / shapes[1][-2]
        results = []
        for dtype in (np.float64, np.float32):
            ts = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
            out = T.attention(*ts, scale, softmax=softmax)
            weights = T.attention_weights(ts[0].data, ts[1].data, scale, softmax)
            out.backward(g.astype(dtype))
            assert out.dtype == weights.dtype == dtype
            assert all(t.grad.dtype == dtype for t in ts)
            results.append([out.data, weights] + [t.grad for t in ts])
        want_out, want_weights = naive_attention(*arrays, scale, softmax)
        npt.assert_allclose(results[0][0], want_out, rtol=1e-12, atol=1e-12)
        npt.assert_allclose(results[0][1], want_weights, rtol=1e-12, atol=1e-12)
        for got, want in zip(results[1], results[0]):
            npt.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())


def test_attention_shape_errors():
    def t(*shape):
        return Tensor(np.zeros(shape))

    with pytest.raises(ShapeError):     # q and k widths
        T.attention(t(2, 5, 3), t(2, 5, 4), t(2, 5, 4), 1.0)
    with pytest.raises(ShapeError):     # k and v lengths
        T.attention(t(2, 5, 3), t(2, 6, 3), t(2, 5, 3), 1.0)
    with pytest.raises(ShapeError):     # leading axes
        T.attention(t(2, 2, 5, 3), t(2, 3, 5, 3), t(2, 3, 5, 3), 1.0)
    with pytest.raises(ShapeError):     # rank
        T.attention(t(2, 5, 3), t(1, 2, 5, 3), t(1, 2, 5, 3), 1.0)
    with pytest.raises(ShapeError):     # no length axis
        T.attention(t(3), t(3), t(3), 1.0)


def whole_array_attention(q, k, v, g, scale, softmax):
    """The attention op's output and (dq, dk, dv) with the whole weights
    array at once, in the op's own order of operations."""
    p = T.attention_weights(q, k, scale, softmax)
    out = np.matmul(p, v)
    dv = np.matmul(np.swapaxes(p, -1, -2), g)
    ds = np.matmul(g, np.swapaxes(v, -1, -2))
    if softmax:
        ds -= np.einsum("...ij,...ij->...i", g, out)[..., None]
        ds *= p
    ds *= scale
    return out, np.matmul(ds, k), np.matmul(np.swapaxes(ds, -1, -2), q), dv


# Block sizes, in score elements, for 5 NL-shaped items of 4x6 scores and 6
# MSA-shaped items of 4x6 scores: one block, whole blocks of one item, several
# blocks with a partial last one, and a block smaller than one item.  A block
# of s score elements is BATCH_BLOCK = 2 * s * itemsize bytes (P and dP).
BLOCKED_SHAPES = {
    "3d": (((5, 4, 3), (5, 6, 3), (5, 6, 2)), [1 << 18, 24, 48, 1]),
    "4d": (((2, 3, 4, 3), (2, 3, 6, 3), (2, 3, 6, 5)), [1 << 18, 24, 96, 1]),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("softmax", [True, False])
@pytest.mark.parametrize("rank", list(BLOCKED_SHAPES))
def test_blocked_attention_equals_the_whole_array_formula_bit_for_bit(
        rank, softmax, dtype, monkeypatch):
    shapes, block_sizes = BLOCKED_SHAPES[rank]
    rng = np.random.default_rng(5)
    arrays = [rng.normal(size=s).astype(dtype) for s in shapes]
    g = rng.normal(size=shapes[0][:-1] + shapes[2][-1:]).astype(dtype)
    scale = 0.7 if softmax else 1.0 / shapes[1][-2]
    want = whole_array_attention(*arrays, g, scale, softmax)
    for block in block_sizes:
        monkeypatch.setattr(T, "BATCH_BLOCK", 2 * block * np.dtype(dtype).itemsize)
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        out = T.attention(*ts, scale, softmax=softmax)
        out.backward(g)
        for got, ref in zip([out.data] + [t.grad for t in ts], want):
            _assert_same_bytes(got, ref)


@pytest.mark.parametrize("softmax", [True, False])
def test_attention_grad_check_across_blocks(softmax, monkeypatch):
    # 2x3 float64 items of 5x7 scores, two items per block: three blocks
    monkeypatch.setattr(T, "BATCH_BLOCK", 2 * 70 * 8)
    rng = np.random.default_rng(4)
    q, k, v = _param(rng, 2, 3, 5, 4), _param(rng, 2, 3, 7, 4), _param(rng, 2, 3, 7, 3)
    probe = Tensor(rng.normal(size=(2, 3, 5, 3)))
    scale = 0.6 if softmax else 1.0 / 7
    f = lambda: T.reduce_sum(T.attention(q, k, v, scale, softmax=softmax) * probe)
    assert grad_check(f, [q, k, v]) < 1e-4


def naive_attention_grads(q, k, v, g, scale, softmax):
    """(dq, dk, dv) of ``sum(attention(q, k, v) * g)``, one item and one
    score at a time."""
    dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    for i in np.ndindex(q.shape[:-2]):
        _, p = naive_attention(q[i], k[i], v[i], scale, softmax)
        dp = g[i] @ v[i].T
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) if softmax else dp
        for a, b in itertools.product(range(q.shape[-2]), range(k.shape[-2])):
            dq[i][a] += scale * ds[a, b] * k[i][b]
            dk[i][b] += scale * ds[a, b] * q[i][a]
            dv[i][b] += p[a, b] * g[i][a]
    return dq, dk, dv


@pytest.mark.parametrize("softmax", [True, False])
@pytest.mark.parametrize("rank", list(BLOCKED_SHAPES))
def test_pooled_attention_matches_the_naive_oracle_and_one_block(rank, softmax,
                                                                 monkeypatch):
    # Blocks of one item and of several, on one CPU (inline) and on two (the
    # pool), against the naive O(L^2) oracle and bit for bit against one
    # inline block.
    shapes, (whole, one_item, several, _) = BLOCKED_SHAPES[rank]
    rng = np.random.default_rng(12)
    arrays = [rng.normal(size=s) for s in shapes]
    g = rng.normal(size=shapes[0][:-1] + shapes[2][-1:])
    scale = 0.7 if softmax else 1.0 / shapes[1][-2]
    want = (naive_attention(*arrays, scale, softmax)[0],
            *naive_attention_grads(*arrays, g, scale, softmax))

    def run(cpus, block):
        _set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(T, "BATCH_BLOCK", 2 * block * 8)   # float64
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        out = T.attention(*ts, scale, softmax=softmax)
        out.backward(g)
        return [out.data] + [t.grad for t in ts]

    one_block = run(1, whole)
    for cpus, block in itertools.product((1, 2), (one_item, several)):
        got = run(cpus, block)
        for a, ref, exact in zip(got, want, one_block):
            npt.assert_allclose(a, ref, rtol=0, atol=1e-6)
            _assert_same_bytes(a, exact)
        ts = [nn.Parameter(a) for a in arrays]
        probe = Tensor(g)
        f = lambda: T.reduce_sum(T.attention(*ts, scale, softmax=softmax) * probe)
        assert grad_check(f, ts) < 1e-4


def test_attention_never_holds_the_whole_weights_array():
    # P is 32 x 512 x 512 float32 = 32 MiB; the forward and backward together
    # stay below that
    rng = np.random.default_rng(2)
    ts = [Tensor(rng.normal(size=(32, 512, 16)).astype(np.float32), requires_grad=True)
          for _ in range(3)]
    g = rng.normal(size=(32, 512, 16)).astype(np.float32)
    tracemalloc.start()
    try:
        T.attention(*ts, 0.25).backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(t.grad.shape == (32, 512, 16) for t in ts)
    assert peak < 32 * 2 ** 20, peak / 2 ** 20


# ---------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------

def test_reductions_match_numpy():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 4, 5))
    npt.assert_allclose(T.reduce_sum(Tensor(x)).data, x.sum())
    npt.assert_allclose(T.reduce_sum(Tensor(x), axis=1).data, x.sum(1))
    npt.assert_allclose(T.reduce_mean(Tensor(x), axis=(0, 2), keepdims=True).data,
                        x.mean((0, 2), keepdims=True))
    npt.assert_allclose(T.reduce_max(Tensor(x), axis=2).data, x.max(2))


def test_reduce_max_tie_gradient_goes_to_first_occurrence():
    x = Tensor(np.array([[1.0, 3.0, 3.0, 0.0]]), requires_grad=True)
    T.reduce_sum(T.reduce_max(x, axis=1)).backward()
    npt.assert_array_equal(x.grad, [[0.0, 1.0, 0.0, 0.0]])


@pytest.mark.parametrize("seed", SEEDS)
def test_reduction_grad_check(seed):
    rng = np.random.default_rng(seed)
    x = _param(rng, 2, 3, 4)

    def f():
        return (T.reduce_sum(T.reduce_mean(x, axis=2))
                + T.reduce_sum(T.reduce_max(x, axis=1)) + T.reduce_mean(x))

    assert grad_check(f, [x]) < 1e-4


def test_reshape_transpose_concat_forward():
    x = np.arange(24.0).reshape(2, 3, 4)
    npt.assert_array_equal(T.reshape(Tensor(x), 6, 4).data, x.reshape(6, 4))
    npt.assert_array_equal(T.transpose(Tensor(x), 0, 2, 1).data, x.transpose(0, 2, 1))
    npt.assert_array_equal(
        T.concat([Tensor(x), Tensor(x)], axis=2).data, np.concatenate([x, x], axis=2))


@pytest.mark.parametrize("seed", SEEDS)
def test_shape_op_grad_check(seed):
    rng = np.random.default_rng(seed)
    a = _param(rng, 2, 6)
    b = _param(rng, 2, 3)
    w = Tensor(rng.normal(size=(2, 9)))

    def f():
        joined = T.concat([T.reshape(a, 2, 6), b], axis=1)
        return T.reduce_sum(joined * w) + T.reduce_sum(T.transpose(a, 1, 0))

    assert grad_check(f, [a, b]) < 1e-4


# ---------------------------------------------------------------------
# conv1d against a naive sliding-window loop
# ---------------------------------------------------------------------

def naive_conv1d(x, w, b, stride, padding):
    B, Cin, L = x.shape
    Cout, _, K = w.shape
    if padding == "same":
        out_len = -(-L // stride)
        total = max((out_len - 1) * stride + K - L, 0)
        left = total // 2
        x = np.pad(x, ((0, 0), (0, 0), (left, total - left)))
    else:
        out_len = (L - K) // stride + 1
    y = np.zeros((B, Cout, out_len))
    for bi in range(B):
        for co in range(Cout):
            for t in range(out_len):
                y[bi, co, t] = np.sum(x[bi, :, t * stride:t * stride + K] * w[co])
                if b is not None:
                    y[bi, co, t] += b[co]
    return y


@pytest.mark.parametrize("stride,padding,bias", [
    (1, "valid", True), (2, "valid", False), (1, "same", True),
    (2, "same", True), (3, "same", False), (10, "valid", True),
])
def test_conv1d_matches_naive(stride, padding, bias):
    rng = np.random.default_rng(42)
    x = rng.normal(size=(2, 3, 23))
    w = rng.normal(size=(4, 3, 5))
    b = rng.normal(size=4) if bias else None
    got = T.conv1d(Tensor(x), Tensor(w), None if b is None else Tensor(b),
                   stride=stride, padding=padding)
    want = naive_conv1d(x, w, b, stride, padding)
    assert got.shape == want.shape
    npt.assert_allclose(got.data, want, rtol=1e-10, atol=1e-12)


def naive_conv1d_grads(x, w, stride, padding, g):
    """Input, weight and bias gradients of naive_conv1d for upstream g."""
    B, Cin, L = x.shape
    Cout, _, K = w.shape
    left = 0
    if padding == "same":
        total = max((g.shape[2] - 1) * stride + K - L, 0)
        left = total // 2
        x = np.pad(x, ((0, 0), (0, 0), (left, total - left)))
    gxp = np.zeros(x.shape)
    gw = np.zeros(w.shape)
    for bi in range(B):
        for co in range(Cout):
            for t in range(g.shape[2]):
                span = slice(t * stride, t * stride + K)
                gxp[bi, :, span] += g[bi, co, t] * w[co]
                gw[co] += g[bi, co, t] * x[bi, :, span]
    return gxp[:, :, left:left + L], gw, g.sum(axis=(0, 2))


# (kernel, stride, padding): K=1 stride 1 is the path whose columns are x itself
CONV_KERNEL_CASES = [(1, 1, "same"), (1, 2, "same"), (3, 1, "same"),
                     (5, 1, "same"), (7, 2, "same"), (3, 2, "valid")]


# the input gradient is a transposed convolution when Cout <= Cin, else col2im
@pytest.mark.parametrize("cin,cout", [(3, 4), (4, 3)])
@pytest.mark.parametrize("kernel,stride,padding", CONV_KERNEL_CASES)
def test_conv1d_kernel_sizes_match_naive_with_gradients(kernel, stride, padding, cin, cout):
    rng = np.random.default_rng(kernel * 10 + stride)
    for length in (3, 16, 17):  # at L=3, the K=7 edge taps read only padding
        x = rng.normal(size=(2, cin, length))
        w = rng.normal(size=(cout, cin, kernel))
        b = rng.normal(size=cout)
        xt, wt, bt = (Tensor(v, requires_grad=True) for v in (x, w, b))
        y = T.conv1d(xt, wt, bt, stride=stride, padding=padding)
        npt.assert_allclose(y.data, naive_conv1d(x, w, b, stride, padding),
                            rtol=1e-10, atol=1e-12)
        g = rng.normal(size=y.shape)
        y.backward(g)
        for got, want in zip((xt.grad, wt.grad, bt.grad),
                             naive_conv1d_grads(x, w, stride, padding, g)):
            npt.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_conv1d_pointwise_columns_are_the_input():
    x = np.ones((2, 3, 8))
    assert np.shares_memory(T._im2col(x, 1, 1, 0, 0, 8), x)
    assert not np.shares_memory(T._im2col(x, 1, 2, 0, 0, 4), x)


def test_float32_conv1d_agrees_with_float64():
    rng = np.random.default_rng(5)
    for (kernel, stride, padding), (cin, cout) in itertools.product(
            CONV_KERNEL_CASES, [(4, 5), (5, 4)]):
        x = rng.normal(size=(3, cin, 33))
        w = rng.normal(size=(cout, cin, kernel))
        b = rng.normal(size=cout)
        ts = [Tensor(v.astype(np.float32), requires_grad=True) for v in (x, w, b)]
        y = T.conv1d(*ts, stride=stride, padding=padding)
        g = rng.normal(size=y.shape)
        y.backward(g.astype(np.float32))
        assert y.dtype == np.float32
        assert all(t.dtype == t.grad.dtype == np.float32 for t in ts)
        npt.assert_allclose(y.data, naive_conv1d(x, w, b, stride, padding),
                            rtol=1e-5, atol=1e-5)
        for t, want in zip(ts, naive_conv1d_grads(x, w, stride, padding, g)):
            npt.assert_allclose(t.grad, want, rtol=1e-5, atol=1e-5)


def conv_output_length(length: int, kernel: int, stride: int, padding: str) -> int:
    """Closed-form output length: floor((L + pad_total - K)/stride) + 1."""
    return T._window_geometry(length, kernel, stride, padding)[2]


def test_conv_output_length_closed_form():
    assert conv_output_length(2000, 7, 2, "same") == 1000
    assert conv_output_length(2000, 20, 10, "valid") == 199
    assert conv_output_length(10, 3, 1, "same") == 10
    assert conv_output_length(10, 3, 1, "valid") == 8


def test_conv1d_channel_mismatch_raises():
    with pytest.raises(ShapeError):
        T.conv1d(Tensor(np.ones((1, 3, 10))), Tensor(np.ones((2, 4, 3))))


@pytest.mark.parametrize("seed", SEEDS)
def test_conv1d_grad_check(seed):
    rng = np.random.default_rng(seed)
    x = _param(rng, 2, 3, 11)
    w = _param(rng, 4, 3, 3)
    b = _param(rng, 4)
    probe = Tensor(rng.normal(size=(2, 4, 6)))

    def f():
        return T.reduce_sum(T.conv1d(x, w, b, stride=2, padding="same") * probe)

    assert grad_check(f, [x, w, b]) < 1e-4


# Each case's forward columns and input-gradient columns take the same bytes
# per batch row, so one BATCH_BLOCK sets the rows per block of all three: the
# transposed-convolution cases have Cout * L == Cin * out_len, and col2im's
# columns are shaped like the forward's.
BLOCKED_CONV_CASES = [   # cin, cout, kernel, stride, padding, length
    (4, 4, 3, 1, "same", 10),     # transposed convolution
    (6, 5, 3, 1, "valid", 12),    # transposed convolution
    (4, 4, 1, 1, "same", 10),     # pointwise: the columns are x and g
    (3, 5, 3, 1, "same", 10),     # col2im, Cout > Cin
    (4, 3, 5, 2, "same", 11),     # col2im, stride 2
    (3, 4, 3, 2, "valid", 11),    # col2im, stride 2
]

# rows per block of conv1d's cut of five batch rows, by (CPUs, the rows that
# BATCH_BLOCK holds): on two CPUs a count of blocks rounds up to an even one
CONV_CUTS = {(1, 1): [1] * 5, (1, 2): [2, 2, 1], (1, 5): [5],
             (2, 1): [1] * 5, (2, 2): [2, 2, 1], (2, 5): [3, 2]}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cin,cout,kernel,stride,padding,length", BLOCKED_CONV_CASES)
def test_blocked_conv1d_columns_change_no_bit(cin, cout, kernel, stride, padding,
                                              length, dtype, monkeypatch):
    # The five batch rows run as one-row blocks, as two-row blocks with a
    # partial last one, and as one block, on one CPU and on two.
    rng = np.random.default_rng(6)
    x, w, b = (rng.normal(size=shape).astype(dtype)
               for shape in ((5, cin, length), (cout, cin, kernel), (cout,)))
    out_len = conv_output_length(length, kernel, stride, padding)
    g = rng.normal(size=(5, cout, out_len)).astype(dtype)
    im2col, widths = T._im2col, []

    def counted_im2col(a, *args):
        widths.append(len(a))
        return im2col(a, *args)

    monkeypatch.setattr(T, "_im2col", counted_im2col)
    row_bytes = cin * kernel * out_len * np.dtype(dtype).itemsize
    runs = {}
    for (cpus, block_rows), blocks in CONV_CUTS.items():
        _set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(T, "BATCH_BLOCK", block_rows * row_bytes)
        widths.clear()
        ts = [Tensor(v, requires_grad=True) for v in (x, w, b)]
        y = T.conv1d(*ts, stride=stride, padding=padding)
        y.backward(g)
        # forward, and a transposed backward; the pool runs blocks in any order
        assert sorted(widths) in (sorted(blocks), sorted(blocks * 2))
        runs[cpus, block_rows] = [y.data] + [t.grad for t in ts]
    for run in runs.values():
        for got, want in zip(run, runs[1, 5]):
            assert got.dtype == dtype
            npt.assert_array_equal(got, want)


@pytest.mark.parametrize("stride,cout", [(1, 3), (2, 4)])   # transposed, col2im
def test_blocked_conv1d_grad_check(stride, cout, monkeypatch):
    # blocks and kernel-gradient partials of one row, of two rows with a
    # partial last one, and of the whole batch, on one CPU and on two
    rng = np.random.default_rng(8)
    x = _param(rng, 3, 4, 11)
    w = _param(rng, cout, 4, 3)
    b = _param(rng, cout)
    out_len = -(-11 // stride)
    probe = Tensor(rng.normal(size=(3, cout, out_len)))

    def f():
        return T.reduce_sum(T.conv1d(x, w, b, stride=stride, padding="same") * probe)

    for cpus, block_rows in itertools.product((1, 2), (1, 2, 3)):
        _set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(T, "BATCH_BLOCK", block_rows * 4 * 3 * out_len * 8)
        monkeypatch.setattr(T, "PARTIAL_BLOCK", block_rows * (cout * out_len + 4 * 11) * 8)
        assert grad_check(f, [x, w, b]) < 1e-4


def _counting_over_batch(monkeypatch):
    """Patch ``T._over_batch`` to record the number of blocks of each call."""
    over_batch, blocks = T._over_batch, []

    def counted(fn, batch, row_bytes, limit=None, parts=1):
        limit = T.BATCH_BLOCK if limit is None else limit
        blocks.append(len(T._batch_blocks(batch, row_bytes, limit, parts)))
        return over_batch(fn, batch, row_bytes, limit, parts)

    monkeypatch.setattr(T, "_over_batch", counted)
    return blocks


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_conv1d_epilogue_changes_no_bit(dtype, monkeypatch):
    # The bias + ReLU epilogue and the backward ReLU mask, run as one-row
    # blocks, as two-row blocks with a partial last one, and as one block,
    # on one CPU and on two, against the same arithmetic on whole arrays
    # after a bare conv.
    rng = np.random.default_rng(15)
    x, w, b = (rng.normal(size=shape).astype(dtype) for shape in ((5, 3, 12), (4, 3, 3), (4,)))
    g = rng.normal(size=(5, 4, 12)).astype(dtype)
    bare = [Tensor(v, requires_grad=True) for v in (x, w)]
    want_y = T.conv1d(*bare, padding="same").data + b[:, None]
    np.maximum(want_y, 0, out=want_y)
    masked = g * (want_y > 0)
    T.conv1d(*bare, padding="same").backward(masked.copy())
    want = [want_y, *(t.grad for t in bare), masked.sum(axis=(0, 2))]
    assert (want_y == 0).any() and (want_y > 0).any()
    blocks = _counting_over_batch(monkeypatch)
    col_bytes = 3 * 3 * 12 * np.dtype(dtype).itemsize   # forward's and col2im's
    for (cpus, block_rows), cut in CONV_CUTS.items():
        _set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(T, "BATCH_BLOCK", block_rows * col_bytes)
        blocks.clear()
        ts = [Tensor(v, requires_grad=True) for v in (x, w, b)]
        y = T.conv1d(*ts, padding="same", relu=True)
        y.backward(g.copy())
        # the forward with its epilogue, the mask with the input gradient,
        # then the kernel gradient's one partial
        assert blocks == [len(cut), len(cut), 1]
        for got, ref in zip([y.data] + [t.grad for t in ts], want):
            assert got.dtype == dtype
            npt.assert_array_equal(got, ref)


# ---------------------------------------------------------------------
# pooling against naive loops
# ---------------------------------------------------------------------

def naive_pool1d(x, kind, window, stride, padding="valid"):
    B, C, L = x.shape
    if padding == "same":
        out_len = -(-L // stride)
        total = max((out_len - 1) * stride + window - L, 0)
        left = total // 2
        x = np.pad(x, ((0, 0), (0, 0), (left, total - left)),
                   constant_values=-np.inf)
        L = x.shape[2]
    out_len = (L - window) // stride + 1
    y = np.zeros((B, C, out_len))
    for bi in range(B):
        for c in range(C):
            for t in range(out_len):
                seg = x[bi, c, t * stride:t * stride + window]
                y[bi, c, t] = seg.max() if kind == "max" else seg.mean()
    return y


def naive_max_pool1d_grad(x, window, stride, padding, g):
    """Input gradient of max pooling: each window sends its output gradient
    to the first position holding its maximum (padding included, where the
    gradient is dropped), windows visited in order."""
    B, C, L = x.shape
    left = 0
    if padding == "same":
        out_len = -(-L // stride)
        total = max((out_len - 1) * stride + window - L, 0)
        left = total // 2
        x = np.pad(x, ((0, 0), (0, 0), (left, total - left)),
                   constant_values=-np.inf)
    gxp = np.zeros(x.shape, dtype=g.dtype)
    for bi in range(B):
        for c in range(C):
            for t in range(g.shape[2]):
                seg = x[bi, c, t * stride:t * stride + window]
                first = next(j for j in range(window) if seg[j] == seg.max())
                gxp[bi, c, t * stride + first] += g[bi, c, t]
    return gxp[:, :, left:left + L]


@pytest.mark.parametrize("kind,window,stride,padding", [
    ("max", 2, 2, "valid"), ("avg", 2, 2, "valid"), ("max", 3, 2, "same"),
    ("max", 3, 1, "valid"), ("avg", 5, 3, "valid"), ("max", 3, 1, "same"),
])
def test_pool1d_matches_naive(kind, window, stride, padding):
    rng = np.random.default_rng(9)
    for length in (16, 17):
        x = rng.normal(size=(2, 3, length))
        got = T.pool1d(Tensor(x), kind, window, stride, padding=padding)
        npt.assert_allclose(got.data, naive_pool1d(x, kind, window, stride, padding),
                            rtol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("window,stride,padding", [
    (2, 2, "valid"), (3, 1, "valid"), (3, 1, "same"), (3, 2, "same"),
    (5, 2, "same"), (5, 3, "valid"),
])
def test_max_pool_gradient_matches_naive_with_ties(window, stride, padding, dtype,
                                                   monkeypatch):
    # ReLU-clamped, rounded inputs tie often; the -inf runs make windows whose
    # maximum is -inf, some of which start in the padding.  The five batch
    # rows run as one-row blocks, as two-row blocks with a partial last one,
    # and as one block.
    rng = np.random.default_rng(4)
    for length, block_rows in itertools.product((16, 17), (1, 2, 5)):
        x = np.maximum(rng.normal(size=(5, 4, length)).round(1), 0.0).astype(dtype)
        x[0, 0, :3] = -np.inf
        x[1, 2, -3:] = -np.inf
        x[4, 1, 5:9] = -np.inf
        row_bytes = 4 * length * np.dtype(dtype).itemsize
        monkeypatch.setattr(T, "BATCH_BLOCK", block_rows * row_bytes)
        xt = Tensor(x, requires_grad=True, dtype=dtype)
        y = T.pool1d(xt, "max", window, stride, padding=padding)
        g = rng.normal(size=y.shape).astype(dtype)
        y.backward(g)
        assert y.dtype == xt.grad.dtype == dtype
        npt.assert_array_equal(y.data, naive_pool1d(x, "max", window, stride, padding))
        npt.assert_array_equal(xt.grad, naive_max_pool1d_grad(x, window, stride, padding, g))


@pytest.mark.parametrize("batch,row_bytes,block,want", [
    (5, 10, 20, [(0, 2), (2, 4), (4, 5)]),   # partial last block
    (4, 10, 5, [(0, 1), (1, 2), (2, 3), (3, 4)]),  # a row over the limit: one row
    (3, 10, 1000, [(0, 3)]),                 # one block, run inline
])
def test_over_batch_runs_every_row_once_and_reraises(batch, row_bytes, block, want,
                                                     monkeypatch):
    monkeypatch.setattr(T, "BATCH_BLOCK", block)

    def fail_on_last(rows):
        if rows.stop >= batch:
            raise RuntimeError("block failed")

    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        seen = []

        def run(rows):
            span = rows.start, min(rows.stop, batch)
            seen.append(span)
            return span

        # each block's result comes back in block order, whatever order they ran in
        assert T._over_batch(run, batch, row_bytes) == want
        assert sorted(seen) == want
        with pytest.raises(RuntimeError, match="block failed"):
            T._over_batch(fail_on_last, batch, row_bytes)


def _max_pool_bytes(x):
    return T.pool1d(Tensor(x), "max", 3, 1, padding="same").data.tobytes()


def test_forked_child_runs_a_multi_block_max_pool(monkeypatch):
    # The parent's max pool starts its block threads; a forked child has none
    # of them and must build its own pool instead of waiting on the parent's.
    # The alarm turns a hang into a failure.
    x = np.random.default_rng(0).normal(size=(4, 2, 1024))
    monkeypatch.setattr(T, "BATCH_BLOCK", 2 * x[0].nbytes)   # two rows a block
    parent = _max_pool_bytes(x)
    assert T._EXECUTOR is not None

    def timed_out(*_):
        raise TimeoutError("max pool in a forked child hung")

    saved = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    try:
        with multiprocessing.get_context("fork").Pool(1) as pool:
            child = pool.apply(_max_pool_bytes, (x,))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, saved)
    assert child == parent


def test_over_batch_counts_cpus_without_sched_getaffinity(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity
    rng = np.random.default_rng(18)
    x = rng.normal(size=(4, 2, 64))
    gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))

    def run():
        bn = T.batchnorm1d(Tensor(x), gamma, beta, np.zeros(2), np.ones(2), training=True)
        return _max_pool_bytes(x), bn.data.tobytes()

    want = run()
    monkeypatch.setattr(T, "BATCH_BLOCK", x[0].nbytes)   # one row a block
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert run() == want


# Prints OPENBLAS_NUM_THREADS after importing the modules named on the
# command line in that order, and the thread count each loaded OpenBLAS
# reports.
BLAS_THREADS = """
import json, os, sys
for name in sys.argv[1:]:
    __import__(name)
from openblas_threads import loaded_openblas_threads
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), loaded_openblas_threads()]))
"""


def _blas_threads(preset, order=("physiobench", "numpy")):
    src = str(Path(T.__file__).resolve().parents[2])
    tests = str(Path(__file__).resolve().parent)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests, env.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    run = subprocess.run([sys.executable, "-c", BLAS_THREADS, *order], capture_output=True,
                         text=True, check=True, env=env)
    return json.loads(run.stdout)


@pytest.mark.parametrize("preset,want", [(None, "1"), ("2", "2")])
def test_import_sets_one_blas_thread_unless_set(preset, want):
    assert _blas_threads(preset)[0] == want


@pytest.mark.parametrize("preset,want", [(None, 1), ("2", 2)])
def test_import_after_numpy_sets_the_loaded_openblas_unless_set(preset, want):
    # numpy's OpenBLAS has read its environment already: physiobench sets
    # the loaded library through its runtime setter instead
    env, threads = _blas_threads(preset, ("numpy", "physiobench"))
    assert env == str(want)
    if not threads:
        pytest.skip("no loaded OpenBLAS reports its thread count")
    assert set(threads) == {want}


def test_loaded_openblas_runs_one_thread():
    threads = _blas_threads(None)[1]
    if not threads:
        pytest.skip("no loaded OpenBLAS reports its thread count")
    assert set(threads) == {1}


def test_this_process_runs_the_blas_threads_its_environment_names():
    # conftest imports numpy before physiobench, so this guards the suite
    # against running a configuration the CLI never runs
    threads = loaded_openblas_threads()
    if not threads:
        pytest.skip("no loaded OpenBLAS reports its thread count")
    assert set(threads) == {int(os.environ["OPENBLAS_NUM_THREADS"])}


# Three rounds of eight 16 MiB arrays, made and freed, in a fresh process
# (this one's heap already holds whatever earlier tests freed).
HEAP_ROUNDS = """
import resource
import numpy as np
import physiobench.core.tensor
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 22, dtype=np.float32) for _ in range(8)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy is set through glibc's mallopt")
def test_freed_heap_is_kept_for_the_next_round():
    # round 1 faults its memory in; rounds 2 and 3 reuse it, since freed
    # heap is not given back to the kernel
    src = str(Path(T.__file__).resolve().parents[2])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", HEAP_ROUNDS], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    first, *later = json.loads(run.stdout)
    assert all(n < first / 10 for n in later), (first, later)


def test_pool1d_same_padding_rejected_for_avg():
    with pytest.raises(ValueError):
        T.pool1d(Tensor(np.ones((1, 1, 8))), "avg", 2, 2, padding="same")


@pytest.mark.parametrize("op,window,stride,padding,error", [
    ("conv1d", 3, 0, "valid", ValueError),
    ("conv1d", 3, 1.0, "same", ValueError),     # not an int
    ("conv1d", 0, 1, "valid", ValueError),      # a zero-width kernel
    ("conv1d", 3, 1, "full", ValueError),
    ("conv1d", 9, 1, "valid", ShapeError),      # longer than the 8 samples
    ("pool1d", 0, 2, "valid", ValueError),
    ("pool1d", 2.0, 2, "valid", ValueError),
    ("pool1d", 2, -1, "same", ValueError),
    ("pool1d", 2, 2, "full", ValueError),
    ("pool1d", 9, 1, "valid", ShapeError),
])
def test_window_ops_keep_their_error_types(op, window, stride, padding, error):
    x = Tensor(np.ones((1, 1, 8)))
    with pytest.raises(ValueError) as raised:
        if op == "conv1d":
            T.conv1d(x, Tensor(np.ones((1, 1, window))), stride=stride, padding=padding)
        else:
            T.pool1d(x, "max", window, stride, padding=padding)
    assert type(raised.value) is error   # ShapeError is a ValueError too


def test_max_pool_tie_gradient_first_occurrence():
    x = Tensor(np.array([[[2.0, 2.0, 1.0, 5.0]]]), requires_grad=True)
    T.reduce_sum(T.pool1d(x, "max", 2, 2)).backward()
    npt.assert_array_equal(x.grad, [[[1.0, 0.0, 0.0, 1.0]]])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["max", "avg"])
def test_pool1d_grad_check(kind, seed):
    rng = np.random.default_rng(seed)
    x = nn.Parameter(rng.normal(size=(2, 2, 9)) + np.arange(9) * 0.01)  # break ties
    probe = Tensor(rng.normal(size=(2, 2, 4)))

    def f():
        return T.reduce_sum(T.pool1d(x, kind, 3, 2) * probe)

    assert grad_check(f, [x]) < 1e-4


@pytest.mark.parametrize("seed", SEEDS)
def test_max_pool_same_stride_1_grad_check(seed):
    rng = np.random.default_rng(seed)
    x = nn.Parameter(rng.permutation(36).reshape(2, 2, 9) * 0.1)  # no ties
    probe = Tensor(rng.normal(size=(2, 2, 9)))

    def f():
        return T.reduce_sum(T.pool1d(x, "max", 3, 1, padding="same") * probe)

    assert grad_check(f, [x]) < 1e-4


@pytest.mark.parametrize("seed", SEEDS)
def test_global_pool_grad_check(seed):
    rng = np.random.default_rng(seed)
    x = _param(rng, 2, 3, 7)
    probe = Tensor(rng.normal(size=(2, 3)))
    assert grad_check(lambda: T.reduce_sum(T.global_pool(x) * probe), [x]) < 1e-4


def test_global_pool_is_length_mean():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 4, 9))
    npt.assert_allclose(T.global_pool(Tensor(x)).data, x.mean(axis=2), rtol=1e-12)


# ---------------------------------------------------------------------
# dense / batchnorm / layer_norm
# ---------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_dense_grad_check(seed):
    rng = np.random.default_rng(seed)
    x = _param(rng, 4, 3)
    w = _param(rng, 3, 2)
    b = _param(rng, 2)
    assert grad_check(lambda: T.reduce_sum(T.sigmoid(T.dense(x, w, b))), [x, w, b]) < 1e-4


def test_batchnorm_train_normalizes_batch():
    rng = np.random.default_rng(7)
    x = rng.normal(loc=3.0, scale=2.0, size=(4, 3, 10))
    gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
    rm, rv = np.zeros(3), np.ones(3)
    out = T.batchnorm1d(Tensor(x), gamma, beta, rm, rv, training=True)
    npt.assert_allclose(out.data.mean(axis=(0, 2)), 0.0, atol=1e-12)
    npt.assert_allclose(out.data.var(axis=(0, 2)), 1.0, atol=1e-4)
    # running stats: new = 0.9*old + 0.1*batch, biased variance
    npt.assert_allclose(rm, 0.1 * x.mean(axis=(0, 2)), rtol=1e-12)
    npt.assert_allclose(rv, 0.9 + 0.1 * x.var(axis=(0, 2)), rtol=1e-12)


def test_batchnorm_eval_uses_running_stats():
    x = np.ones((2, 2, 3))
    rm, rv = np.array([1.0, 0.0]), np.array([1.0, 4.0])
    out = T.batchnorm1d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                        rm, rv, training=False)
    npt.assert_allclose(out.data[:, 0], 0.0)
    npt.assert_allclose(out.data[:, 1], 1.0 / np.sqrt(4.0 + T.BN_EPS))


def test_batchnorm_train_needs_two_samples():
    with pytest.raises(ValueError):
        T.batchnorm1d(Tensor(np.ones((1, 2, 1))), Tensor(np.ones(2)),
                      Tensor(np.zeros(2)), np.zeros(2), np.ones(2), training=True)


@pytest.mark.parametrize("seed", SEEDS)
def test_batchnorm_grad_check(seed):
    rng = np.random.default_rng(seed)
    x = _param(rng, 3, 2, 5)
    gamma = nn.Parameter(rng.uniform(0.5, 1.5, size=2))
    beta = _param(rng, 2)
    probe = Tensor(rng.normal(size=(3, 2, 5)))

    def f():
        rm, rv = np.zeros(2), np.ones(2)  # fresh buffers: stat update is not differentiated
        out = T.batchnorm1d(x, gamma, beta, rm, rv, training=True)
        return T.reduce_sum(out * probe)

    assert grad_check(f, [x, gamma, beta]) < 1e-4


@pytest.mark.parametrize("seed", SEEDS)
def test_batchnorm_eval_grad_check(seed):
    rng = np.random.default_rng(seed)
    x = _param(rng, 3, 2, 5)
    gamma = nn.Parameter(rng.uniform(0.5, 1.5, size=2))
    beta = _param(rng, 2)
    rm, rv = rng.normal(size=2), rng.uniform(0.5, 2.0, size=2)
    probe = Tensor(rng.normal(size=(3, 2, 5)))

    def f():
        out = T.batchnorm1d(x, gamma, beta, rm, rv, training=False)
        return T.reduce_sum(out * probe)

    assert grad_check(f, [x, gamma, beta]) < 1e-4


def test_batchnorm_eval_backward_uses_forward_time_statistics():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(3, 2, 5))
    rm, rv = rng.normal(size=2), rng.uniform(0.5, 2.0, size=2)
    want = ((x - rm[:, None]) / np.sqrt(rv[:, None] + 1e-5)).sum(axis=(0, 2))
    gamma = Tensor(np.ones(2), requires_grad=True)
    y = T.batchnorm1d(Tensor(x), gamma, Tensor(np.zeros(2)), rm, rv, training=False)
    # a train-mode call moves the shared running buffers before the backward
    T.batchnorm1d(Tensor(x + 5.0), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv,
                  training=True)
    T.reduce_sum(y).backward()
    npt.assert_allclose(gamma.grad, want, rtol=1e-12)


def naive_batchnorm_train(x, gamma, beta, rm, rv, g, momentum=0.9, eps=1e-5):
    """Output, (x, gamma, beta) gradients and updated running stats, one
    channel at a time."""
    y, gx = np.empty_like(x), np.empty_like(x)
    ggamma, gbeta = np.empty_like(gamma), np.empty_like(beta)
    rm, rv = rm.copy(), rv.copy()
    for c in range(x.shape[1]):
        xs, gs = x[:, c], g[:, c]
        n = xs.size
        mu = xs.sum() / n
        var = ((xs - mu) ** 2).sum() / n
        xhat = (xs - mu) / np.sqrt(var + eps)
        y[:, c] = gamma[c] * xhat + beta[c]
        ggamma[c] = (gs * xhat).sum()
        gbeta[c] = gs.sum()
        dxhat = gs * gamma[c]
        gx[:, c] = (dxhat - dxhat.mean() - xhat * (dxhat * xhat).mean()) / np.sqrt(var + eps)
        rm[c] = momentum * rm[c] + (1 - momentum) * mu
        rv[c] = momentum * rv[c] + (1 - momentum) * var
    return y, (gx, ggamma, gbeta), (rm, rv)


def test_batchnorm_train_matches_naive():
    rng = np.random.default_rng(12)
    x = rng.normal(loc=2.0, scale=3.0, size=(4, 3, 9))
    gamma, beta = rng.uniform(0.5, 1.5, size=3), rng.normal(size=3)
    rm0, rv0 = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
    g = rng.normal(size=x.shape)
    ts = [Tensor(v, requires_grad=True) for v in (x, gamma, beta)]
    rm, rv = rm0.copy(), rv0.copy()
    y = T.batchnorm1d(*ts, rm, rv, training=True)
    y.backward(g)
    want_y, want_grads, (want_rm, want_rv) = naive_batchnorm_train(x, gamma, beta, rm0, rv0, g)
    npt.assert_allclose(y.data, want_y, rtol=1e-10, atol=1e-12)
    for t, want in zip(ts, want_grads):
        npt.assert_allclose(t.grad, want, rtol=1e-10, atol=1e-12)
    npt.assert_allclose(rm, want_rm, rtol=1e-12)
    npt.assert_allclose(rv, want_rv, rtol=1e-12)


def test_float32_batchnorm_agrees_with_float64():
    rng = np.random.default_rng(13)
    x = rng.normal(loc=2.0, scale=3.0, size=(8, 4, 50))
    gamma, beta = rng.uniform(0.5, 1.5, size=4), rng.normal(size=4)
    rm0, rv0 = rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)
    g = rng.normal(size=x.shape)
    ts = [Tensor(v.astype(np.float32), requires_grad=True) for v in (x, gamma, beta)]
    rm, rv = rm0.astype(np.float32), rv0.astype(np.float32)
    y = T.batchnorm1d(*ts, rm, rv, training=True)
    y.backward(g.astype(np.float32))
    assert y.dtype == np.float32
    assert all(t.dtype == t.grad.dtype == np.float32 for t in ts)
    want_y, want_grads, (want_rm, want_rv) = naive_batchnorm_train(x, gamma, beta, rm0, rv0, g)
    npt.assert_allclose(y.data, want_y, rtol=1e-5, atol=1e-5)
    for t, want in zip(ts, want_grads):
        npt.assert_allclose(t.grad, want, rtol=1e-4, atol=1e-4)
    npt.assert_allclose(rm, want_rm, rtol=1e-5, atol=1e-6)
    npt.assert_allclose(rv, want_rv, rtol=1e-5)
    # eval mode: x * scale + shift from the running buffers
    out = T.batchnorm1d(ts[0], ts[1], ts[2], rm, rv, training=False)
    assert out.dtype == np.float32
    scale = gamma / np.sqrt(rv.astype(np.float64) + 1e-5)
    want = x * scale[:, None] + (beta - rm.astype(np.float64) * scale)[:, None]
    npt.assert_allclose(out.data, want, rtol=1e-5, atol=1e-5)


def whole_array_batchnorm(x, gamma, beta, rm, rv, g, training, relu, partial_rows=None,
                          momentum=0.9, eps=1e-5):
    """batchnorm1d's arithmetic in whole-array passes: output, (x, gamma,
    beta) gradients and the running buffers, updated in place.  Each
    per-channel sum adds the partials of blocks of ``partial_rows`` batch
    rows in block order; None takes each sum in one pass over the whole
    array (the batch mean as ``x.mean``)."""
    n = x.shape[0] * x.shape[2]
    step = x.shape[0] if partial_rows is None else partial_rows

    def channel_sum(fn):
        total, *rest = (fn(slice(i, i + step)) for i in range(0, x.shape[0], step))
        for part in rest:
            total += part
        return total

    if training:
        if partial_rows is None:
            mu = x.mean(axis=(0, 2))
        else:
            mu = channel_sum(lambda r: x[r].sum(axis=(0, 2))) / n
        xc = x - mu[:, None]
        var = channel_sum(lambda r: np.einsum("bcl,bcl->c", xc[r], xc[r])) / n
        rm *= momentum
        rm += (1.0 - momentum) * mu
        rv *= momentum
        rv += (1.0 - momentum) * var
    else:
        mu, var = rm.copy(), rv
        xc = x - mu[:, None]
    invstd = 1.0 / np.sqrt(var + eps)
    scale = gamma * invstd
    if training:
        y = xc * scale[:, None]
        y += beta[:, None]
    else:
        y = x * scale[:, None]
        y += (beta - mu * scale)[:, None]
    if relu:
        np.maximum(y, 0, out=y)
        g = g * (y > 0)
    sum_g = channel_sum(lambda r: g[r].sum(axis=(0, 2)))
    sum_gxc = channel_sum(lambda r: np.einsum("bcl,bcl->c", g[r], xc[r]))
    if training:
        gx = xc * (invstd * invstd * sum_gxc / n)[:, None]
        gx += (sum_g / n)[:, None]
        np.subtract(g, gx, out=gx)
        gx *= scale[:, None]
    else:
        gx = g * scale[:, None]
    return y, gx, sum_gxc * invstd, sum_g


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("shape", [(5, 3, 9), (5, 1, 64), (7, 4, 2)])
def test_blocked_batchnorm1d_changes_no_bit(shape, relu, training, dtype, monkeypatch):
    # The per-channel sums add partials of one row, of two rows with a
    # partial last one, in block order; PARTIAL_BLOCK alone sets that cut.
    # A batch in one partial keeps the bits of whole-array sums.  The
    # elementwise passes run as one-row blocks, two-row blocks and one
    # block, on one CPU and on two, and move no bit.
    rng = np.random.default_rng(16)
    B, C, L = shape
    x = rng.normal(loc=1.0, scale=2.0, size=shape).astype(dtype)
    gamma, beta = rng.uniform(0.5, 1.5, size=C).astype(dtype), rng.normal(size=C).astype(dtype)
    rm0, rv0 = rng.normal(size=C).astype(dtype), rng.uniform(0.5, 2.0, size=C).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    blocks = _counting_over_batch(monkeypatch)
    for partial_rows in (1, 2, B):
        monkeypatch.setattr(T, "PARTIAL_BLOCK", partial_rows * x[0].nbytes)
        rm_want, rv_want = rm0.copy(), rv0.copy()
        want = whole_array_batchnorm(x, gamma, beta, rm_want, rv_want, g, training, relu,
                                     None if partial_rows == B else partial_rows)
        partials = -(-B // partial_rows)
        for cpus, block_rows in itertools.product((1, 2), (1, 2, B)):
            _set_cpus(monkeypatch, cpus)
            monkeypatch.setattr(T, "BATCH_BLOCK", block_rows * x[0].nbytes)
            blocks.clear()
            ts = [Tensor(v, requires_grad=True) for v in (x, gamma, beta)]
            rm, rv = rm0.copy(), rv0.copy()
            y = T.batchnorm1d(*ts, rm, rv, training=training, relu=relu)
            y.backward(g.copy())
            # train: mean and variance partials; the output; the sums of g
            # (after the ReLU mask) and of g * (x - mu); the x gradient
            rows = -(-B // block_rows)
            assert blocks == [partials] * 2 * training + [rows, partials, rows]
            for got, ref in zip([y.data] + [t.grad for t in ts] + [rm, rv],
                                list(want) + [rm_want, rv_want]):
                assert got.dtype == dtype
                npt.assert_array_equal(got, ref)


def test_train_batchnorm1d_holds_one_output_sized_array():
    # the tape keeps the output and per-channel vectors, no centred copy of x
    rng = np.random.default_rng(19)
    x = Tensor(rng.normal(size=(16, 8, 512)), requires_grad=True)
    gamma, beta = Tensor(np.ones(8), requires_grad=True), Tensor(np.zeros(8))
    rm, rv = np.zeros(8), np.ones(8)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = T.batchnorm1d(x, gamma, beta, rm, rv, training=True)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert y.data.nbytes <= held < 1.25 * y.data.nbytes, held / y.data.nbytes


@pytest.mark.parametrize("training", [True, False])
def test_blocked_batchnorm1d_grad_check(training, monkeypatch):
    monkeypatch.setattr(T, "BATCH_BLOCK", 1)   # one batch row a block
    rng = np.random.default_rng(17)
    x = _param(rng, 3, 2, 5)
    gamma = nn.Parameter(rng.uniform(0.5, 1.5, size=2))
    beta = _param(rng, 2)
    rm, rv = rng.normal(size=2), rng.uniform(0.5, 2.0, size=2)
    probe = Tensor(rng.normal(size=(3, 2, 5)))

    def f():
        out = T.batchnorm1d(x, gamma, beta, rm.copy(), rv.copy(), training=training)
        return T.reduce_sum(out * probe)

    assert grad_check(f, [x, gamma, beta]) < 1e-4


def test_layer_norm_normalizes_last_axis():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 5, 6)) * 3 + 1
    out = T.layer_norm(Tensor(x), Tensor(np.ones(6)), Tensor(np.zeros(6)))
    npt.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
    npt.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-4)


@pytest.mark.parametrize("seed", SEEDS)
def test_layer_norm_grad_check(seed):
    rng = np.random.default_rng(seed)
    x = _param(rng, 2, 3, 4)
    gamma = nn.Parameter(rng.uniform(0.5, 1.5, size=4))
    beta = _param(rng, 4)
    probe = Tensor(rng.normal(size=(2, 3, 4)))

    def f():
        return T.reduce_sum(T.layer_norm(x, gamma, beta) * probe)

    assert grad_check(f, [x, gamma, beta]) < 1e-4


# ---------------------------------------------------------------------
# dtype follows the data
# ---------------------------------------------------------------------

def _f32_running_stats():
    return np.zeros(4, dtype=np.float32), np.ones(4, dtype=np.float32)


# name: (leaf shapes, output as a function of the leaves)
DTYPE_CASES = {
    "add-sub": ([(2, 3, 4), (3, 1)], lambda a, b: 1.0 - (a + b) - 0.5),
    "mul-div-pow": ([(2, 3, 4), (4,)], lambda a, b: -(a * b * 2.0) / b + 2.0 / a ** 2.0),
    "exp-log-sqrt": ([(2, 3)], lambda a: T.exp(T.log(T.sqrt(a)))),
    "nonlinearities": ([(2, 3)], lambda a: T.relu(a) + T.sigmoid(a) + T.tanh(a)
                       + T.softplus(a) + T.softmax(a, axis=0)),
    "matmul": ([(2, 3, 4), (4, 5)], T.matmul),
    "dense": ([(2, 4), (4, 5), (5,)], T.dense),
    "attention-softmax": ([(2, 5, 3), (2, 6, 3), (2, 6, 4)],
                          lambda q, k, v: T.attention(q, k, v, 0.5)),
    "attention-dot": ([(2, 2, 5, 3), (2, 2, 6, 3), (2, 2, 6, 4)],
                      lambda q, k, v: T.attention(q, k, v, 1 / 6, softmax=False)),
    "conv1d-transposed": ([(2, 4, 9), (3, 4, 3), (3,)],
                          lambda x, w, b: T.conv1d(x, w, b, padding="same")),
    "conv1d-col2im": ([(2, 3, 9), (4, 3, 3)],
                      lambda x, w: T.conv1d(x, w, stride=2, padding="same")),
    "conv1d-relu": ([(2, 4, 9), (3, 4, 3), (3,)],
                    lambda x, w, b: T.conv1d(x, w, b, relu=True)),
    "pool1d": ([(2, 3, 9)], lambda x: T.pool1d(
        T.pool1d(x, "max", 3, 1, padding="same"), "avg", 3, 2)),
    "batchnorm1d-train": ([(2, 4, 5), (4,), (4,)], lambda x, g, b: T.batchnorm1d(
        x, g, b, *_f32_running_stats(), training=True, relu=True)),
    "batchnorm1d-eval": ([(2, 4, 5), (4,), (4,)], lambda x, g, b: T.batchnorm1d(
        x, g, b, *_f32_running_stats(), training=False)),
    "layer_norm": ([(2, 3, 4), (4,), (4,)], T.layer_norm),
    "reductions": ([(2, 3, 4)], lambda a: T.reduce_sum(a, axis=2) + T.reduce_mean(a, axis=2)
                   + T.reduce_max(a, axis=2) + T.global_pool(a) + a.max() + a.sum()),
    "shape-ops": ([(2, 3, 4), (2, 3, 2)], lambda a, b: T.concat(
        [T.transpose(a, 0, 2, 1).reshape(2, 3, 4), b], axis=2)),
}


def _record_gradient_dtypes(monkeypatch) -> list:
    """The dtypes of the gradient arrays that backward hands to nodes."""
    seen = []
    for name in ("_accumulate", "_take"):
        orig = getattr(Tensor, name)

        def spy(self, grad, _orig=orig):
            seen.append(grad.dtype)
            _orig(self, grad)

        monkeypatch.setattr(Tensor, name, spy)
    return seen


@pytest.mark.parametrize("case", list(DTYPE_CASES))
def test_float32_inputs_stay_float32_through_every_primitive(case, monkeypatch):
    assert T.default_dtype() == np.float64   # the inputs, not the default, decide
    shapes, fn = DTYPE_CASES[case]
    rng = np.random.default_rng(0)
    leaves = [Tensor(rng.uniform(0.5, 1.5, size=s).astype(np.float32), requires_grad=True)
              for s in shapes]
    out = fn(*leaves)
    assert {node.dtype for node in T.topo_order(out)} == {np.dtype(np.float32)}
    seen = _record_gradient_dtypes(monkeypatch)
    out.backward()
    assert seen and set(seen) == {np.dtype(np.float32)}
    assert all(t.grad.dtype == np.float32 for t in leaves)


MIXED_CASES = {
    "add": ([(2, 3), (3,)], lambda a, b: a + b),
    "mul": ([(2, 3), (2, 3)], lambda a, b: a * b),
    "matmul": ([(2, 3), (3, 4)], T.matmul),
    "conv1d": ([(2, 3, 9), (4, 3, 3), (4,)],
               lambda x, w, b: T.conv1d(x, w, b, padding="same")),
    "attention": ([(2, 5, 3), (2, 6, 3), (2, 6, 4)],
                  lambda q, k, v: T.attention(q, k, v, 0.5)),
}


@pytest.mark.parametrize("first", [np.float32, np.float64])
@pytest.mark.parametrize("case", list(MIXED_CASES))
def test_mixed_float32_float64_operands_promote(case, first):
    # numpy promotion sets the output dtype; each parent's gradient comes
    # back in its own dtype, with the values of an all-float64 run
    shapes, fn = MIXED_CASES[case]
    other = np.float64 if first == np.float32 else np.float32
    rng = np.random.default_rng(1)
    arrays = [rng.normal(size=s).astype(dt) for s, dt in
              zip(shapes, [first] + [other] * (len(shapes) - 1))]
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    wide = [Tensor(a.astype(np.float64), requires_grad=True) for a in arrays]
    out, want = fn(*leaves), fn(*wide)
    assert out.dtype == np.float64
    npt.assert_allclose(out.data, want.data, rtol=1e-12, atol=1e-12)
    g = rng.normal(size=out.shape)
    out.backward(g)
    want.backward(g)
    for a, leaf, ref in zip(arrays, leaves, wide):
        assert leaf.grad.dtype == leaf.dtype == a.dtype
        tol = 1e-12 if leaf.dtype == np.float64 else 1e-6
        npt.assert_allclose(leaf.grad, ref.grad, rtol=tol, atol=tol)


# ---------------------------------------------------------------------
# fused ReLU post-op and the lean tape
# ---------------------------------------------------------------------

def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# the transposed-convolution and col2im input gradients, pointwise and strided
FUSED_CONV_CASES = [(1, 1, "same", 4, 3), (3, 1, "same", 4, 3),
                    (3, 1, "same", 3, 4), (5, 2, "same", 3, 4), (3, 2, "valid", 4, 4)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel,stride,padding,cin,cout", FUSED_CONV_CASES)
@pytest.mark.parametrize("bias", [True, False])
def test_fused_relu_conv1d_is_relu_of_conv1d_bit_for_bit(
        dtype, kernel, stride, padding, cin, cout, bias):
    rng = np.random.default_rng(kernel * 100 + stride * 10 + cin)
    # small integers (and some -0.0 inputs): many outputs are exactly zero
    x = rng.integers(-1, 2, size=(3, cin, 17)).astype(dtype)
    x[0, 0, :4] = -0.0
    w = rng.integers(-1, 2, size=(cout, cin, kernel)).astype(dtype)
    b = rng.integers(-1, 2, size=cout).astype(dtype)
    runs = []
    for fused in (True, False):
        ts = [Tensor(v, requires_grad=True) for v in ((x, w, b) if bias else (x, w))]
        args = ts if bias else ts + [None]
        if fused:
            y = T.conv1d(*args, stride=stride, padding=padding, relu=True)
        else:
            y = T.relu(T.conv1d(*args, stride=stride, padding=padding))
        g = np.random.default_rng(1).normal(size=y.shape).astype(dtype)
        y.backward(g)
        runs.append([y.data] + [t.grad for t in ts])
    assert (runs[1][0] == 0).any() and (runs[1][0] > 0).any()
    for got, want in zip(*runs):
        _assert_same_bytes(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("training", [True, False])
def test_fused_relu_batchnorm1d_is_relu_of_batchnorm1d_bit_for_bit(dtype, training):
    rng = np.random.default_rng(21)
    # each channel holds -1, 0 and 1 equally often, so its batch mean is
    # exactly 0 and the zeros normalise to exactly 0
    x = rng.permuted(np.tile(np.array([-1.0, 0.0, 1.0]), (4, 3, 4)), axis=2).astype(dtype)
    gamma = rng.uniform(0.5, 1.5, size=3).astype(dtype)
    beta = np.array([0.0, 0.0, 0.25], dtype=dtype)
    runs = []
    for fused in (True, False):
        ts = [Tensor(v, requires_grad=True) for v in (x, gamma, beta)]
        rm, rv = np.zeros(3, dtype=dtype), np.full(3, 0.5, dtype=dtype)
        if fused:
            y = T.batchnorm1d(*ts, rm, rv, training=training, relu=True)
        else:
            y = T.relu(T.batchnorm1d(*ts, rm, rv, training=training))
        g = np.random.default_rng(2).normal(size=y.shape).astype(dtype)
        y.backward(g)
        runs.append([y.data, rm, rv] + [t.grad for t in ts])
    assert (runs[1][0] == 0).any() and (runs[1][0] > 0).any()
    for got, want in zip(*runs):
        _assert_same_bytes(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b_shape", [(3, 4, 5), (4, 1)])
def test_fused_relu_add_is_relu_of_add_bit_for_bit(dtype, b_shape):
    rng = np.random.default_rng(22)
    # small integers make many sums exactly zero; signed zeros and NaN too
    a = rng.integers(-1, 2, size=(3, 4, 5)).astype(dtype)
    a[0, 0, :3] = [-0.0, 0.0, np.nan]
    a[1, 2, :2] = -0.0
    b = rng.integers(-1, 2, size=b_shape).astype(dtype)
    b.flat[0] = -0.0
    runs = []
    for fused in (True, False):
        ts = [Tensor(v, requires_grad=True) for v in (a, b)]
        y = T.add(*ts, relu=True) if fused else T.relu(T.add(*ts))
        g = np.random.default_rng(3).normal(size=y.shape).astype(dtype)
        y.backward(g)
        runs.append([y.data] + [t.grad for t in ts])
    y = runs[1][0]
    assert (y == 0).any() and (y > 0).any() and np.isnan(y).any()
    assert np.signbit(a[0, 0, 0] + b.flat[0])   # -0.0 + -0.0 reaches the ReLU
    for got, want in zip(*runs):
        _assert_same_bytes(got, want)


@pytest.mark.parametrize("seed", range(5))
def test_fused_relu_add_grad_check(seed):
    rng = np.random.default_rng(seed)
    a = _param(rng, 2, 3, 6)
    b = _param(rng, 3, 1)
    probe = Tensor(rng.normal(size=(2, 3, 6)))
    # a central difference is only valid away from the ReLU kink
    assert np.abs(a.data + b.data).min() > 1e-3
    assert grad_check(lambda: T.reduce_sum(T.add(a, b, relu=True) * probe), [a, b]) < 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_fused_relu_grad_check_off_the_kink(seed):
    rng = np.random.default_rng(seed)
    x = _param(rng, 2, 3, 11)
    w = _param(rng, 4, 3, 3)
    b = _param(rng, 4)
    gamma = nn.Parameter(rng.uniform(0.5, 1.5, size=4))
    beta = _param(rng, 4)
    probe = Tensor(rng.normal(size=(2, 4, 6)))
    rm, rv = np.zeros(4), np.ones(4)
    pre = T.conv1d(x, w, b, stride=2, padding="same")
    pre_bn = T.batchnorm1d(T.relu(pre), gamma, beta, rm.copy(), rv.copy(), training=True)
    # a central difference is only valid away from the ReLU kink
    assert np.abs(pre.data).min() > 1e-3 and np.abs(pre_bn.data).min() > 1e-3

    def f():
        h = T.conv1d(x, w, b, stride=2, padding="same", relu=True)
        h = T.batchnorm1d(h, gamma, beta, rm.copy(), rv.copy(), training=True, relu=True)
        return T.reduce_sum(h * probe)

    assert grad_check(f, [x, w, b, gamma, beta]) < 1e-4

    # the same outputs concatenated: each backward then reads its own output
    # through a view of the concat, and a later op reads two of them too
    wide_probe = Tensor(rng.normal(size=(2, 12, 6)))

    def joined():
        h = T.conv1d(x, w, b, stride=2, padding="same", relu=True)
        n = T.batchnorm1d(h, gamma, beta, rm.copy(), rv.copy(), training=True, relu=True)
        p = T.pool1d(n, "max", 3, 1, padding="same")
        cat = T.concat([h, n, p], axis=1)
        return T.reduce_sum(cat * wide_probe) + T.reduce_sum(n * p), (h, n, p, cat)

    _, (*parts, cat) = joined()
    assert all(np.shares_memory(t.data, cat.data) for t in parts)
    assert grad_check(lambda: joined()[0], [x, w, b, gamma, beta]) < 1e-4


def test_conv1d_weight_gradient_sums_samples_as_a_batched_sum(monkeypatch):
    # Each partial, one GEMM per sample added in ascending b, gives the bits
    # of the batched GEMM over its rows summed over axis 0; the partials are
    # added in block order.  PARTIAL_BLOCK alone sets their cut: neither the
    # CPU count nor BATCH_BLOCK moves a bit.
    rng = np.random.default_rng(8)
    for dtype in (np.float32, np.float64):
        x = rng.normal(size=(5, 6, 40)).astype(dtype)
        w = rng.normal(size=(7, 6, 3)).astype(dtype)
        g = rng.normal(size=(5, 7, 20)).astype(dtype)
        row_bytes = (7 * 20 + 6 * 40) * np.dtype(dtype).itemsize
        monkeypatch.setattr(T, "PARTIAL_BLOCK", 2 * row_bytes)   # rows 0:2, 2:4, 4:5
        partials = []
        for rows in (slice(0, 2), slice(2, 4), slice(4, 5)):
            part = np.zeros(w.shape, dtype=dtype)
            for k, lo, hi, sl in T._window_taps(40, 3, 2, 0, 20):
                part[:, :, k] = np.matmul(g[rows, :, lo:hi],
                                          x[rows, :, sl].transpose(0, 2, 1)).sum(axis=0)
            partials.append(part)
        want = partials[0] + partials[1]
        want += partials[2]
        for cpus, batch_rows in itertools.product((1, 2), (1, 5)):
            _set_cpus(monkeypatch, cpus)
            monkeypatch.setattr(T, "BATCH_BLOCK", batch_rows * row_bytes)
            wt = Tensor(w, requires_grad=True)
            T.conv1d(Tensor(x), wt, stride=2, padding="same").backward(g)
            _assert_same_bytes(wt.grad, want)


def test_backward_hands_over_gradients_without_sharing_them(monkeypatch):
    # add and mul hand g to one parent; reshape hands a view; relu and the
    # fused conv ReLU mask g in place
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
    s = Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True)
    c = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
    h = T.conv1d(x, w, padding="same", relu=True) + s
    h = T.relu(h * s) * c
    out = T.reshape(h, 2, 32) + T.reshape(s * s, 2, 32) + T.reshape(s + s, 2, 32)
    g = rng.normal(size=(2, 32))
    g_saved = g.copy()
    out.backward(g)
    npt.assert_array_equal(g, g_saved)
    # s reaches out four ways: + s, * s, s * s and s + s
    sd, cd = s.data, c.data
    pre = T.conv1d(Tensor(x.data), Tensor(w.data), padding="same", relu=True).data + sd
    gh = g.reshape(2, 4, 8)
    mask = pre * sd > 0
    want_s = gh * cd * mask * (pre + sd) + 2 * gh * sd + 2 * gh
    npt.assert_allclose(s.grad, want_s, rtol=1e-12, atol=1e-12)
    leaves = (x, w, s, c)
    for i, a in enumerate(leaves):
        assert not np.shares_memory(a.grad, g)
        for b in leaves[i + 1:]:
            assert not np.shares_memory(a.grad, b.grad)
    for a in leaves:
        saved = [t.grad.copy() for t in leaves]
        a.grad += 1.0
        for t, before in zip(leaves, saved):
            if t is not a:
                npt.assert_array_equal(t.grad, before)
    # layer_norm and reduce_max build their input gradients fresh and hand
    # them over: no first gradient of theirs is copied through _accumulate
    copied = []
    accumulate = Tensor._accumulate

    def spy(self, grad):
        copied.append(self)
        accumulate(self, grad)

    monkeypatch.setattr(Tensor, "_accumulate", spy)
    a = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
    gamma, beta = Tensor(rng.uniform(0.5, 1.5, size=5)), Tensor(rng.normal(size=5))
    out = T.layer_norm(a, gamma, beta) + T.reduce_max(b, axis=1, keepdims=True)
    g = rng.normal(size=(2, 4, 5))
    out.backward(g)
    assert not any(t is a or t is b for t in copied)
    assert not np.shares_memory(a.grad, b.grad)
    assert not np.shares_memory(a.grad, g) and not np.shares_memory(b.grad, g)
    want_b = np.zeros_like(b.data)
    np.put_along_axis(want_b, b.data.argmax(axis=1)[:, None], g.sum(axis=1, keepdims=True),
                      axis=1)
    npt.assert_array_equal(b.grad, want_b)


def test_backward_frees_forward_arrays_as_it_goes():
    x = Tensor(np.linspace(-1.0, 1.0, 12).reshape(3, 4), requires_grad=True)
    a = x * 2.0
    b = T.relu(a)
    c = b * 3.0
    root = T.reduce_sum(c)
    refs = [weakref.ref(b.data), weakref.ref(c.data)]
    seen = []
    a_backward = a._backward

    def last(g):
        # a's closure runs last: b and c were processed before it
        seen.extend(r() is None for r in refs)
        a_backward(g)

    a._backward = last
    del a, b, c
    root.backward()
    assert seen == [True, True]
    npt.assert_array_equal(x.grad, np.where(x.data > 0, 6.0, 0.0))


CONCAT_INPUTS = {
    "conv1d-relu": lambda x, w: T.conv1d(x, w, padding="same", relu=True),
    "batchnorm1d-relu": lambda x, w: T.batchnorm1d(
        x, Tensor(np.ones(3)), Tensor(np.zeros(3)), np.zeros(3), np.ones(3),
        training=True, relu=True),
    "pool1d-max": lambda x, w: T.pool1d(x, "max", 3, 1, padding="same"),
}


@pytest.mark.parametrize("case", list(CONCAT_INPUTS))
def test_concat_frees_its_recorded_inputs(case):
    # a recorded input becomes a view of the output and its own array is
    # freed; leaves, and inputs of another dtype, keep their own arrays
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 3, 3)), requires_grad=True)
    h = CONCAT_INPUTS[case](x, w)
    leaf = Tensor(rng.normal(size=(2, 2, 8)), requires_grad=True)
    narrow = T.relu(Tensor(rng.normal(size=(2, 1, 8)).astype(np.float32),
                           requires_grad=True))
    own = [leaf.data, narrow.data]
    values = h.data.copy()
    owner = weakref.ref(h.data if h.data.base is None else h.data.base)
    out = T.concat([leaf, h, narrow], axis=1)
    gc.collect()
    assert owner() is None
    assert np.shares_memory(h.data, out.data)
    npt.assert_array_equal(h.data, values)
    assert leaf.data is own[0] and narrow.data is own[1]
    assert narrow.dtype == np.float32
    g = rng.normal(size=out.shape)
    out.backward(g)
    x_alone = Tensor(x.data, requires_grad=True)
    CONCAT_INPUTS[case](x_alone, Tensor(w.data)).backward(g[:, 2:5])
    _assert_same_bytes(x.grad, x_alone.grad)
