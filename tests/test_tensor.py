"""Tensor engine: forward oracles against naive numpy, gradients against
central differences."""

import numpy as np
import numpy.testing as npt
import pytest

from physiobench.core import nn
from physiobench.core import tensor as T
from physiobench.core.gradcheck import grad_check
from physiobench.core.tensor import ShapeError, Tensor

SEEDS = range(10)


def _param(rng, *shape):
    return nn.Parameter(rng.normal(size=shape))


# ---------------------------------------------------------------------
# construction and bookkeeping
# ---------------------------------------------------------------------

def test_scalar_tensor_keeps_zero_dim_shape():
    t = Tensor(3.5)
    assert t.shape == ()
    assert t.item() == 3.5


def test_default_dtype_switch(float32_mode):
    assert Tensor([1.0, 2.0]).dtype == np.float32
    x = Tensor(np.ones((2, 3)))
    assert (x * 2.0).dtype == np.float32


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


def test_conv_output_length_closed_form():
    assert T.conv_output_length(2000, 7, 2, "same") == 1000
    assert T.conv_output_length(2000, 20, 10, "valid") == 199
    assert T.conv_output_length(10, 3, 1, "same") == 10
    assert T.conv_output_length(10, 3, 1, "valid") == 8


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
def test_max_pool_gradient_matches_naive_with_ties(window, stride, padding, dtype):
    # ReLU-clamped, rounded inputs tie often; the -inf runs make windows whose
    # maximum is -inf, some of which start in the padding.
    T.set_default_dtype(dtype)
    rng = np.random.default_rng(4)
    for length in (16, 17):
        x = np.maximum(rng.normal(size=(3, 4, length)).round(1), 0.0).astype(dtype)
        x[0, 0, :3] = -np.inf
        x[1, 2, -3:] = -np.inf
        xt = Tensor(x, requires_grad=True, dtype=dtype)
        y = T.pool1d(xt, "max", window, stride, padding=padding)
        g = rng.normal(size=y.shape).astype(dtype)
        y.backward(g)
        assert y.dtype == xt.grad.dtype == dtype
        npt.assert_array_equal(y.data, naive_pool1d(x, "max", window, stride, padding))
        npt.assert_array_equal(xt.grad, naive_max_pool1d_grad(x, window, stride, padding, g))


def test_pool1d_same_padding_rejected_for_avg():
    with pytest.raises(ValueError):
        T.pool1d(Tensor(np.ones((1, 1, 8))), "avg", 2, 2, padding="same")


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
                        rm, rv, training=False, eps=0.0)
    npt.assert_allclose(out.data[:, 0], 0.0)
    npt.assert_allclose(out.data[:, 1], 0.5)


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
# float32 pipeline stays float32
# ---------------------------------------------------------------------

def test_float32_conv_chain_keeps_dtype(float32_mode):
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 3, 16)))
    w = Tensor(rng.normal(size=(4, 3, 3)))
    out = T.relu(T.conv1d(x, w, None, stride=2, padding="same"))
    assert out.dtype == np.float32
    assert T.softmax(out, axis=-1).dtype == np.float32
