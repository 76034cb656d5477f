"""Module system: registration, parameter naming, state dicts, layer modules."""

import numpy as np
import numpy.testing as npt
import pytest

from physiobench.core import nn
from physiobench.core import tensor as T
from physiobench.core.tensor import Tensor


class TwoLayer(nn.Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = nn.Dense(rng, 3, 5)
        self.fc2 = nn.Dense(rng, 5, 2)

    def forward(self, x):
        return self.fc2(T.relu(self.fc1(x)))


def test_parameter_has_persistent_grad_buffer():
    p = nn.Parameter(np.ones((2, 2)))
    assert p.requires_grad
    assert p.grad is not None and p.grad.shape == (2, 2)
    npt.assert_array_equal(p.grad, 0.0)


def test_freeze_marks_parameter_and_stops_grads():
    p = nn.Parameter(np.ones(3))
    p.freeze()
    assert p.frozen and not p.requires_grad


def test_named_parameters_use_slash_paths():
    model = TwoLayer(np.random.default_rng(0))
    names = [n for n, _ in model.named_parameters()]
    assert "fc1/weight" in names and "fc2/bias" in names
    assert len(names) == 4


def test_module_list_registers_children():
    class Stack(nn.Module):
        def __init__(self, rng):
            super().__init__()
            self.layers = nn.ModuleList([nn.Dense(rng, 2, 2) for _ in range(3)])

        def forward(self, x):
            for layer in self.layers:
                x = layer(x)
            return x

    model = Stack(np.random.default_rng(1))
    names = [n for n, _ in model.named_parameters()]
    assert "layers/0/weight" in names and "layers/2/bias" in names
    assert model.num_params() == 3 * (2 * 2 + 2)


def test_num_params_counts_trainable_only_when_asked():
    model = TwoLayer(np.random.default_rng(2))
    total = model.num_params()
    model.fc1.weight.freeze()
    assert model.num_params(trainable_only=True) == total - 15
    assert model.num_params() == total


def test_zero_grad_clears_accumulated_gradients():
    model = TwoLayer(np.random.default_rng(3))
    out = T.reduce_sum(model(Tensor(np.ones((4, 3)))))
    out.backward()
    assert any(np.abs(p.grad).sum() > 0 for p in model.parameters())
    model.zero_grad()
    assert all(np.abs(p.grad).sum() == 0 for p in model.parameters())


def test_state_dict_round_trip():
    a = TwoLayer(np.random.default_rng(4))
    b = TwoLayer(np.random.default_rng(5))
    x = np.random.default_rng(6).normal(size=(2, 3))
    assert not np.allclose(a(Tensor(x)).data, b(Tensor(x)).data)
    b.load_state_dict(a.state_dict())
    npt.assert_array_equal(a(Tensor(x)).data, b(Tensor(x)).data)


def test_load_state_dict_rejects_missing_and_unexpected_keys():
    model = TwoLayer(np.random.default_rng(7))
    state = dict(model.state_dict())
    state.pop("fc1/weight")
    with pytest.raises(KeyError):
        model.load_state_dict(state)
    state = dict(model.state_dict())
    state["bogus/key"] = np.zeros(1)
    with pytest.raises(KeyError):
        model.load_state_dict(state)


def test_train_eval_propagates_to_children():
    model = TwoLayer(np.random.default_rng(8))
    assert model.training
    model.train(False)
    assert not model.fc1.training
    model.train(True)
    assert model.fc2.training


# ---------------------------------------------------------------------
# initializers
# ---------------------------------------------------------------------

def test_kaiming_uniform_bound():
    rng = np.random.default_rng(0)
    w = nn.kaiming_uniform(rng, (2000, 50), fan_in=50)
    bound = np.sqrt(6.0 / 50)
    assert np.abs(w).max() <= bound
    assert np.abs(w).max() > 0.9 * bound   # actually fills the range
    assert abs(w.mean()) < 0.01


def test_xavier_uniform_bound():
    rng = np.random.default_rng(1)
    w = nn.xavier_uniform(rng, (1000, 80), fan_in=80, fan_out=80)
    bound = np.sqrt(6.0 / 160)
    assert np.abs(w).max() <= bound
    assert np.abs(w).max() > 0.9 * bound


def test_dense_init_choice_changes_scale():
    rng = np.random.default_rng(2)
    kaiming = nn.Dense(rng, 100, 100, init="kaiming")
    xavier = nn.Dense(np.random.default_rng(2), 100, 100, init="xavier")
    # kaiming bound sqrt(6/100) vs xavier sqrt(6/200)
    assert np.abs(kaiming.weight.data).max() > np.abs(xavier.weight.data).max()


# ---------------------------------------------------------------------
# layer modules
# ---------------------------------------------------------------------

def test_dense_forward_is_affine():
    rng = np.random.default_rng(3)
    layer = nn.Dense(rng, 4, 2)
    x = rng.normal(size=(5, 4))
    want = x @ layer.weight.data + layer.bias.data
    npt.assert_allclose(layer(Tensor(x)).data, want, rtol=1e-12)


def test_conv1d_module_matches_functional():
    rng = np.random.default_rng(5)
    layer = nn.Conv1d(rng, 3, 6, 5, stride=2, padding="same")
    x = rng.normal(size=(2, 3, 20))
    want = T.conv1d(Tensor(x), layer.weight, layer.bias, stride=2, padding="same")
    npt.assert_array_equal(layer(Tensor(x)).data, want.data)
    assert layer(Tensor(x)).shape == (2, 6, 10)


def test_batchnorm_module_updates_running_stats_in_train_only():
    rng = np.random.default_rng(6)
    layer = nn.BatchNorm1d(4)
    x = Tensor(rng.normal(loc=2.0, size=(8, 4, 10)))
    before = layer.running_mean.copy()
    layer(x)
    after_train = layer.running_mean.copy()
    assert not np.allclose(before, after_train)
    layer.train(False)
    layer(x)
    npt.assert_array_equal(layer.running_mean, after_train)


def test_batchnorm_buffers_follow_param_dtype(float32_mode):
    layer = nn.BatchNorm1d(3)
    assert layer.running_mean.dtype == np.float32
    x = np.random.default_rng(0).normal(size=(4, 3, 5)).astype(np.float32)
    out = layer(Tensor(x))
    assert out.dtype == np.float32


def test_batchnorm_state_dict_includes_running_buffers():
    layer = nn.BatchNorm1d(2)
    layer(Tensor(np.random.default_rng(1).normal(size=(4, 2, 6))))
    state = layer.state_dict()
    fresh = nn.BatchNorm1d(2)
    fresh.load_state_dict(state)
    npt.assert_array_equal(fresh.running_mean, layer.running_mean)
    npt.assert_array_equal(fresh.running_var, layer.running_var)


def test_layer_norm_module_forward():
    rng = np.random.default_rng(7)
    layer = nn.LayerNorm(6)
    x = rng.normal(size=(3, 6)) * 2 + 5
    out = layer(Tensor(x))
    npt.assert_allclose(out.data.mean(-1), 0.0, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_initializers_draw_blockwise_into_the_default_dtype(dtype, restore_default_dtype):
    T.set_default_dtype(dtype)
    shape = (nn._INIT_BLOCK // 1000 + 7, 1000)   # more than one block
    fan_in, fan_out = 50, 80
    cases = [(lambda r: nn.kaiming_uniform(r, shape, fan_in), np.sqrt(6.0 / fan_in)),
             (lambda r: nn.xavier_uniform(r, shape, fan_in, fan_out),
              np.sqrt(6.0 / (fan_in + fan_out)))]
    for init, bound in cases:
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        w = init(rng)
        want = ref.uniform(-bound, bound, size=shape).astype(dtype)
        assert w.dtype == dtype and w.shape == shape
        assert w.tobytes() == want.tobytes()
        assert rng.uniform() == ref.uniform()   # the next layer draws the same


@pytest.mark.parametrize("training", [True, False])
def test_conv_and_batchnorm_modules_pass_the_relu_flag(training):
    rng = np.random.default_rng(6)
    conv = nn.Conv1d(rng, 3, 4, 3)
    bn = nn.BatchNorm1d(4).train(training)
    x = Tensor(rng.normal(size=(2, 3, 10)))
    fused = bn(conv(x, relu=True), relu=True)
    bn.running_mean[...] = 0.0
    bn.running_var[...] = 1.0
    plain = T.relu(bn(T.relu(conv(x))))
    assert fused.data.tobytes() == plain.data.tobytes()
