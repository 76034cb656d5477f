"""Metrics, optimizers, the training loop, and seeded sweep reports."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from physiobench import harness as hn
from physiobench.attention import AttentionKind, MsaConfig
from physiobench.backbones import ModelConfig
from physiobench.core import nn
from physiobench.core import tensor as T
from physiobench.datapipe import generate_synthetic, split_by_case

TINY_MSA = ModelConfig("msa_only", 1, AttentionKind.MSA, 0, msa=MsaConfig(16, 2, 32, 1))
TINY_MSA_ENTRIES = hn.entries_from_configs([TINY_MSA])


class LinearBaseline(nn.Module):
    """Affine readout on the flattened waveform plus demographics: the
    simplest model that can exploit the planted synthetic feature."""

    def __init__(self, rng: np.random.Generator, in_channels: int = 2,
                 length: int = 2000, demographics_dim: int = 4):
        super().__init__()
        self.dense = nn.Dense(rng, in_channels * length + demographics_dim, 1)

    def forward(self, x, demo):
        x = x if isinstance(x, T.Tensor) else T.Tensor(x, dtype=self.dense.weight.dtype)
        demo = demo if isinstance(demo, T.Tensor) else T.Tensor(demo, dtype=x.dtype)
        flat = x.reshape(x.shape[0], x.shape[1] * x.shape[2])
        return self.dense(T.concat([flat, demo], axis=1))


# ---------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------

def test_train_spec_validation():
    with pytest.raises(ValueError):
        hn.TrainSpec(loss="mse", optimizer="adam", epochs=1)
    with pytest.raises(ValueError):
        hn.TrainSpec(loss="bce", optimizer="sgd", epochs=1)
    with pytest.raises(ValueError):
        hn.TrainSpec(loss="bce", optimizer="adam", epochs=-1)
    with pytest.raises(ValueError):
        hn.TrainSpec(loss="bce", optimizer="adam", epochs=1, batch_size=0)
    with pytest.raises(ValueError):
        hn.TrainSpec(loss="bce", optimizer="adam", epochs=1, time_mode="cpu")


@pytest.mark.parametrize("lr0", [0.0, -1e-3, math.nan, math.inf])
def test_train_spec_rejects_lr0_that_is_not_finite_and_positive(lr0):
    with pytest.raises(ValueError, match="lr0 must be finite and positive"):
        hn.TrainSpec(loss="bce", optimizer="adam", epochs=1, lr0=lr0)


def test_spec_for_config_optimizer_rule():
    inc_cls = ModelConfig("inception", 4, task="classification")
    inc_reg = ModelConfig("inception", 4, task="regression")
    res_cls = ModelConfig("resnet", 6, task="classification")
    assert hn.TrainSpec.for_config(inc_cls, 5).optimizer == "rmsprop"
    assert hn.TrainSpec.for_config(inc_reg, 5).optimizer == "adam"
    assert hn.TrainSpec.for_config(res_cls, 5).optimizer == "adam"
    assert hn.TrainSpec.for_config(inc_cls, 5).loss == "bce"
    assert hn.TrainSpec.for_config(inc_reg, 5).loss == "rmse"
    spec = hn.TrainSpec.for_config(res_cls, 7, seed=3, lr0=0.01, batch_size=32)
    assert (spec.epochs, spec.seed, spec.lr0, spec.batch_size) == (7, 3, 0.01, 32)


def test_lr_schedule_boundaries():
    spec = hn.TrainSpec(loss="bce", optimizer="adam", epochs=1)
    assert hn.lr_at(0, spec) == 1e-3
    assert hn.lr_at(19, spec) == 1e-3
    assert hn.lr_at(20, spec) == pytest.approx(1e-4)
    assert hn.lr_at(39, spec) == pytest.approx(1e-4)
    assert hn.lr_at(40, spec) == pytest.approx(1e-5)
    assert hn.lr_at(41, hn.TrainSpec("bce", "adam", 1, lr0=0.5)) == pytest.approx(5e-3)
    with pytest.raises(ValueError):
        hn.lr_at(-1, spec)


# ---------------------------------------------------------------------
# optimizers: single steps against hand arithmetic
# ---------------------------------------------------------------------

def _param_with_grad(value, grad):
    p = nn.Parameter(np.array([value]))
    p.grad = np.full_like(p.data, grad)
    return p


def test_adam_two_steps_hand_math():
    p = _param_with_grad(1.0, 0.5)
    opt = hn.Adam([p], lr=1e-3)
    opt.step()
    # m=0.05/c1=0.1 -> 0.5; v=2.5e-4/c2=1e-3 -> 0.25
    step1 = 1e-3 * 0.5 / (np.sqrt(0.25) + 1e-8)
    assert p.data[0] == pytest.approx(1.0 - step1, rel=1e-12)
    p.grad[...] = 0.5
    opt.step()
    m2 = 0.9 * 0.05 + 0.1 * 0.5
    v2 = 0.999 * 2.5e-4 + 0.001 * 0.25
    step2 = 1e-3 * (m2 / (1 - 0.9 ** 2)) / (np.sqrt(v2 / (1 - 0.999 ** 2)) + 1e-8)
    assert p.data[0] == pytest.approx(1.0 - step1 - step2, rel=1e-12)


def test_rmsprop_step_hand_math():
    p = _param_with_grad(1.0, 0.5)
    opt = hn.RMSProp([p], lr=1e-3)
    opt.step()
    expected = 1.0 - 1e-3 * 0.5 / (np.sqrt(0.1 * 0.25) + 1e-7)
    assert p.data[0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_optimizer_steps_match_the_plain_formulas_bit_for_bit(dtype):
    # reference: each update as one numpy expression, one temporary per operation
    rng = np.random.default_rng(17)
    shape = (3, 5, 7)
    adam_p = nn.Parameter(rng.normal(size=shape), dtype=dtype)
    rms_p = nn.Parameter(adam_p.data.copy(), dtype=dtype)
    adam, rms = hn.Adam([adam_p], lr=3e-3), hn.RMSProp([rms_p], lr=3e-3)
    p1, m, v = adam_p.data.copy(), np.zeros(shape, dtype), np.zeros(shape, dtype)
    p2, r = rms_p.data.copy(), np.zeros(shape, dtype)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, 6):
        g = (rng.normal(size=shape) * 10.0 ** rng.integers(-4, 2)).astype(dtype)
        adam_p.grad = rms_p.grad = g
        adam.step()
        rms.step()
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        p1 -= 3e-3 * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        r = 0.9 * r + (1.0 - 0.9) * g * g
        p2 -= 3e-3 * g / (np.sqrt(r) + 1e-7)
        for got, want in ((adam_p.data, p1), (adam._m[0], m), (adam._v[0], v),
                          (rms_p.data, p2), (rms._v[0], r)):
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("optimizer", [hn.Adam, hn.RMSProp])
def test_a_missing_gradient_steps_as_zeros_bit_for_bit(optimizer, dtype):
    # after one nonzero step the moments are nonzero, so a zero-gradient
    # step still decays them (and Adam's still moves the weights)
    rng = np.random.default_rng(23)
    first = rng.normal(size=(4, 6)).astype(dtype)
    params = [nn.Parameter(rng.normal(size=(4, 6)), dtype=dtype) for _ in range(2)]
    params[1].data[...] = params[0].data
    opts = [optimizer([p], lr=3e-3) for p in params]
    for p, opt in zip(params, opts):
        p.grad = first
        opt.step()
    v_before = opts[0]._v[0].copy()
    params[0].grad = None
    params[1].grad = np.zeros_like(first)
    for _ in range(2):
        for opt in opts:
            opt.step()
    assert not np.array_equal(opts[0]._v[0], v_before)
    missing, zeros = params[0].data, params[1].data
    assert missing.dtype == dtype and missing.tobytes() == zeros.tobytes()
    states = [[*getattr(o, "_m", []), *o._v] for o in opts]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(*states))


def test_make_optimizer_dispatch():
    p = _param_with_grad(0.0, 0.0)
    adam = hn.make_optimizer(hn.TrainSpec("bce", "adam", 1, lr0=0.2), [p])
    rms = hn.make_optimizer(hn.TrainSpec("bce", "rmsprop", 1, lr0=0.3), [p])
    assert isinstance(adam, hn.Adam) and adam.lr == 0.2
    assert isinstance(rms, hn.RMSProp) and rms.lr == 0.3


# ---------------------------------------------------------------------
# losses and metrics
# ---------------------------------------------------------------------

def test_bce_closed_forms():
    zeros = T.Tensor(np.zeros((4, 1)))
    assert hn.bce_with_logits(zeros, np.zeros(4)).item() == pytest.approx(np.log(2.0))
    two = T.Tensor(np.full((1, 1), 2.0))
    assert hn.bce_with_logits(two, np.ones(1)).item() == pytest.approx(np.log1p(np.exp(-2.0)))
    assert hn.bce_with_logits(two, np.zeros(1)).item() == pytest.approx(
        2.0 + np.log1p(np.exp(-2.0)))


def _conv_logits_backward(offsets, targets):
    """float32 conv -> mean-pool logits shifted by ``offsets``, BCE, backward."""
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.normal(size=(len(offsets), 2, 8)).astype(np.float32),
                 requires_grad=True)
    w = T.Tensor(rng.normal(size=(1, 2, 3)).astype(np.float32), requires_grad=True)
    pooled = T.reduce_mean(T.conv1d(x, w), axis=2)               # [B,1]
    logits = pooled + T.Tensor(np.asarray(offsets, np.float32)[:, None])
    hn.bce_with_logits(logits, np.asarray(targets)).backward()
    return x.grad, w.grad


def _has_subnormal(a):
    return bool(np.any((a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)))


def test_bce_flushes_saturated_logit_gradients():
    z = T.Tensor(np.array([[-90.0], [-5.0], [3.0], [-80.0]], np.float32),
                 requires_grad=True)
    hn.bce_with_logits(z, np.array([0, 0, 1, 0])).backward()
    sig = 1.0 / (1.0 + np.exp(-z.data.astype(np.float64)))
    want = (sig - np.array([[0], [0], [1], [0]])) / 4
    assert z.grad[0, 0] == 0.0 and z.grad[3, 0] == 0.0   # e^-|z|/B < floor
    np.testing.assert_allclose(z.grad[1:3], want[1:3], rtol=1e-6)

    # confidently right samples next to unsaturated ones: their rows of the
    # conv backward are exact zeros, never subnormal
    x_grad, w_grad = _conv_logits_backward([-95.0, -95.0, 0.0, 0.0], [0, 0, 1, 0])
    assert np.all(x_grad[:2] == 0.0) and np.any(x_grad[2:] != 0.0)
    assert not _has_subnormal(x_grad) and not _has_subnormal(w_grad)
    # a batch that is saturated throughout trains nothing
    x_grad, w_grad = _conv_logits_backward([-95.0] * 4, [0] * 4)
    assert np.all(x_grad == 0.0) and np.all(w_grad == 0.0)


def test_bce_gradients_are_unchanged_when_nothing_is_flushed():
    rng = np.random.default_rng(1)
    z0 = rng.normal(scale=4.0, size=(6, 1)).astype(np.float32)
    y = np.array([0, 1, 1, 0, 1, 0])
    z = T.Tensor(z0, requires_grad=True)
    hn.bce_with_logits(z, y).backward()
    bare = T.Tensor(z0, requires_grad=True)
    yt = T.Tensor(y.astype(np.float32).reshape(6, 1))
    T.reduce_mean(T.softplus(bare) - bare * yt).backward()
    assert z.grad.tobytes() == bare.grad.tobytes()


def test_rmse_closed_form():
    pred = T.Tensor(np.array([[3.0], [4.0]]))
    assert hn.rmse_loss(pred, np.zeros(2)).item() == pytest.approx(np.sqrt(12.5))


def _brute_auroc(labels, scores):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (greater + 0.5 * ties) / (pos.size * neg.size)


def test_auroc_extremes():
    labels = np.array([0, 0, 1, 1])
    assert hn.auroc(labels, [0.1, 0.2, 0.8, 0.9]) == 1.0
    assert hn.auroc(labels, [0.9, 0.8, 0.2, 0.1]) == 0.0
    assert hn.auroc(labels, [0.5, 0.5, 0.5, 0.5]) == 0.5


def test_auroc_matches_brute_force_with_ties():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(4, 200))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # coarse integer scores force plenty of ties
        scores = rng.integers(0, 5, size=n).astype(float)
        if rng.random() < 0.5:
            scores += rng.normal(0, 0.1, size=n)
        assert hn.auroc(labels, scores) == pytest.approx(
            _brute_auroc(labels, scores), abs=1e-12)


def test_auroc_counts_each_tie_group_and_signed_zeros_as_ties():
    # five tie groups, each holding both classes; -0.0 and 0.0 are equal
    scores = np.array([-0.0, 0.0, 0.0, -0.0, 2.5, 2.5, 2.5, -1.0, -1.0,
                       7.0, 7.0, 3.0, 3.0, 3.0, 0.5])
    labels = np.array([1, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1])
    for order in (slice(None), slice(None, None, -1)):
        for dtype in (np.float64, np.float32):
            s, lab = scores[order].astype(dtype), labels[order]
            assert hn.auroc(lab, s) == _brute_auroc(lab, s)
    # -0.0 against 0.0 earns a half: (1 + 1 + 1 + 0.5) / 4
    assert hn.auroc(np.array([1, 0, 0, 1]), np.array([-0.0, 0.0, -1.0, 1.0])) == 0.875


def test_auroc_validation():
    with pytest.raises(ValueError, match="both classes"):
        hn.auroc([1, 1], [0.1, 0.2])
    with pytest.raises(ValueError, match="0/1"):
        hn.auroc([0, 2], [0.1, 0.2])
    with pytest.raises(ValueError, match="equal length"):
        hn.auroc([0, 1], [0.1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_metrics_reject_nonfinite_input(bad):
    # four NaN scores used to read 0.75 or 0.25, by label order alone
    with pytest.raises(ValueError, match="finite"):
        hn.auroc([0, 1, 1, 0], [bad] * 4)
    with pytest.raises(ValueError, match="finite"):
        hn.auroc([0, 1], [0.3, bad])
    with pytest.raises(ValueError, match="finite"):
        hn.mape([100.0, 50.0], [110.0, bad])
    with pytest.raises(ValueError, match="finite"):
        hn.mape([100.0, bad], [110.0, 45.0])


def test_mape_closed_form_and_validation():
    assert hn.mape([100.0, 50.0], [110.0, 45.0]) == pytest.approx(10.0)
    with pytest.raises(ValueError, match="zero"):
        hn.mape([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        hn.mape([1.0], [1.0, 2.0])


@pytest.mark.filterwarnings("error")
def test_mape_needs_a_value():
    # the mean over no values used to be NaN, after two RuntimeWarnings
    with pytest.raises(ValueError, match="MAPE needs at least one value"):
        hn.mape([], [])


def test_convergence_time_first_crossing():
    hist = [(1.0, 0.5), (2.0, 0.7), (3.0, 0.9)]
    assert hn.convergence_time(hist, 0.7, "ge") == 2.0
    assert hn.convergence_time([(1.0, 30.0), (2.0, 27.0)], 27.0, "le") == 2.0
    assert hn.convergence_time(hist, 0.95, "ge") is None
    # first crossing counts even if the metric dips afterwards
    dip = [(1.0, 0.8), (2.0, 0.6), (3.0, 0.9)]
    assert hn.convergence_time(dip, 0.7, "ge") == 1.0
    assert hn.convergence_time([], 0.7, "ge") is None
    with pytest.raises(ValueError):
        hn.convergence_time(hist, 0.7, "gt")
    with pytest.raises(ValueError):   # even with no point to compare
        hn.convergence_time([], 0.7, "gt")


# ---------------------------------------------------------------------
# data plumbing
# ---------------------------------------------------------------------

def test_prepare_standardizes_demographics(cls_bundle):
    ages = cls_bundle.demo_train[:, 0]
    assert abs(ages.mean()) < 1e-6 and ages.std() == pytest.approx(1.0, abs=1e-6)
    assert set(np.unique(cls_bundle.demo_train[:, 1])) <= {0.0, 1.0}  # sex untouched
    assert cls_bundle.demo_mean is not None and cls_bundle.demo_std is not None


def test_prepare_rejects_task_mismatch():
    cls = generate_synthetic(4, 1, "classification", seed=0)
    reg = generate_synthetic(4, 1, "regression", seed=0)
    with pytest.raises(ValueError, match="task mismatch"):
        hn.prepare(cls, reg)


def test_predict_batching_and_mode_restore(cls_bundle):
    # more rows than one predict chunk, so the chunks must join up in order
    reps = hn.PREDICT_BATCH // len(cls_bundle.x_test) + 2
    x = np.concatenate([cls_bundle.x_test] * reps)
    demo = np.concatenate([cls_bundle.demo_test] * reps)
    assert len(x) > hn.PREDICT_BATCH
    model = LinearBaseline(np.random.default_rng(0))
    model.train(True)
    got = hn.predict(model, x, demo)
    assert model.training  # restored
    with T.no_grad():
        want = model(x, demo).data[:, 0]
    assert got.shape == (len(x),)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_linear_baseline_param_count():
    model = LinearBaseline(np.random.default_rng(0))
    assert model.num_params() == 2 * 2000 + 4 + 1


# ---------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------

def _linear_spec(**kw):
    kw.setdefault("loss", "bce")
    kw.setdefault("optimizer", "adam")
    kw.setdefault("epochs", 3)
    kw.setdefault("time_mode", "virtual")
    return hn.TrainSpec(**kw)


def test_train_rejects_loss_task_mismatch(cls_bundle):
    model = LinearBaseline(np.random.default_rng(0))
    with pytest.raises(ValueError, match="does not fit"):
        hn.train(model, cls_bundle, _linear_spec(loss="rmse"))


class _CountingBaseline(LinearBaseline):
    calls = 0

    def forward(self, x, demo):
        self.calls += 1
        return super().forward(x, demo)


def test_train_rejects_one_class_test_split_before_any_forward(cls_bundle):
    one_class = dataclasses.replace(cls_bundle, y_test=np.ones_like(cls_bundle.y_test))
    model = _CountingBaseline(np.random.default_rng(0))
    with pytest.raises(ValueError, match="AUROC needs both classes"):
        hn.train(model, one_class, _linear_spec())
    assert model.calls == 0


def test_train_is_bitwise_deterministic(cls_bundle):
    runs = []
    for _ in range(2):
        model = LinearBaseline(np.random.default_rng(42))
        runs.append(hn.train(model, cls_bundle, _linear_spec(seed=11)))
    a, b = runs
    assert a.losses == b.losses
    assert a.metrics == b.metrics
    assert a.epoch_seconds == b.epoch_seconds == [1.0, 2.0, 3.0]


def test_train_reduces_loss(cls_bundle, reg_bundle):
    cls_model = LinearBaseline(np.random.default_rng(1))
    res = hn.train(cls_model, cls_bundle, _linear_spec(epochs=4, lr0=1e-2))
    assert res.losses[-1] < res.losses[0]
    assert res.metric_name == "auroc"
    assert res.test_prevalence == pytest.approx(float(cls_bundle.y_test.mean()))
    reg_model = LinearBaseline(np.random.default_rng(1))
    res = hn.train(reg_model, reg_bundle, _linear_spec(loss="rmse", epochs=4, lr0=1e-2))
    assert res.losses[-1] < res.losses[0]
    assert res.metric_name == "mape"
    assert res.test_prevalence is None


def test_train_zero_epochs_evaluates_only(cls_bundle):
    model = LinearBaseline(np.random.default_rng(0))
    res = hn.train(model, cls_bundle, _linear_spec(epochs=0))
    assert res.epochs_run == 0 and res.losses == [] and res.metrics == []
    assert 0.0 <= res.final_metric <= 1.0
    assert res.convergence_s is None and not res.aborted


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_train_aborts_on_nonfinite_loss(cls_bundle):
    model = LinearBaseline(np.random.default_rng(0))
    model.dense.weight.data[...] = 1e308  # forces an overflow on batch one
    res = hn.train(model, cls_bundle, _linear_spec())
    assert res.aborted and "non-finite loss at epoch 1" in res.abort_reason
    assert res.epochs_run == 0 and res.losses == []
    assert math.isnan(res.final_metric)  # no epoch was scored


class _NanScoresFrom(LinearBaseline):
    """Scores turn NaN from the given eval-mode forward on; training
    forwards stay finite."""

    def __init__(self, rng, first_bad: int):
        super().__init__(rng)
        self.first_bad, self.evals = first_bad, 0

    def forward(self, x, demo):
        out = super().forward(x, demo)
        if not self.training:
            self.evals += 1
            if self.evals >= self.first_bad:
                return out * math.nan
        return out


@pytest.mark.parametrize("bundle_name", ["cls_bundle", "reg_bundle"])
def test_train_aborts_on_nonfinite_test_score(bundle_name, request):
    bundle = request.getfixturevalue(bundle_name)
    loss = "bce" if bundle.task == "classification" else "rmse"
    model = _NanScoresFrom(np.random.default_rng(0), first_bad=2)
    res = hn.train(model, bundle, _linear_spec(loss=loss, epochs=3))
    assert res.aborted
    assert res.abort_reason == "non-finite test score at epoch 2"
    assert res.epochs_run == 1 and len(res.metrics) == 1 == len(res.epoch_seconds)
    assert res.final_metric == res.metrics[0] and math.isfinite(res.final_metric)

    res = hn.train(_NanScoresFrom(np.random.default_rng(0), first_bad=1), bundle,
                   _linear_spec(loss=loss, epochs=3))
    assert res.aborted and res.abort_reason == "non-finite test score at epoch 1"
    assert res.epochs_run == 0 and res.losses == [] and res.metrics == []
    assert math.isnan(res.final_metric)


def test_train_zero_epochs_with_nonfinite_scores_aborts(cls_bundle):
    model = _NanScoresFrom(np.random.default_rng(0), first_bad=1)
    res = hn.train(model, cls_bundle, _linear_spec(epochs=0))
    assert res.aborted and res.abort_reason == "non-finite test score before training"
    assert math.isnan(res.final_metric)


def test_train_stop_threshold_classification(cls_bundle):
    model = LinearBaseline(np.random.default_rng(3))
    res = hn.train(model, cls_bundle, _linear_spec(epochs=30, lr0=1e-2),
                   stop_threshold=0.8)
    assert res.epochs_run < 30
    assert res.final_metric >= 0.8
    assert res.metrics[-1] >= 0.8 and all(m < 0.8 for m in res.metrics[:-1])


def test_train_records_convergence_clock(cls_bundle):
    model = LinearBaseline(np.random.default_rng(3))
    res = hn.train(model, cls_bundle, _linear_spec(epochs=30, lr0=1e-2),
                   stop_threshold=0.9)
    crossing = next(i for i, m in enumerate(res.metrics) if m >= hn.CONVERGE_AUROC)
    assert res.convergence_s == res.epoch_seconds[crossing]


def test_train_wall_clock_is_monotone(cls_bundle):
    model = LinearBaseline(np.random.default_rng(0))
    began = time.perf_counter()
    res = hn.train(model, cls_bundle, _linear_spec(epochs=2, time_mode="wall"))
    elapsed = time.perf_counter() - began
    # every reading lies inside the call: a clock started at the wrong time
    # reads outside [0, elapsed]
    assert 0 < res.epoch_seconds[0] < res.epoch_seconds[1] <= res.wall_seconds <= elapsed


# One float32 training epoch of ResNet level 2 with SE and with NL at 50%,
# and of Inception level 2, in a process pinned to the CPUs given as JSON on
# the command line before numpy loads, after importing the modules named
# after them; prints each run's losses and a digest of its state_dict bytes.
PINNED_EPOCH = """
import hashlib, json, os, sys
os.sched_setaffinity(0, json.loads(sys.argv[1]))
for name in sys.argv[2:]:
    __import__(name)
from physiobench import backbones, datapipe as dp, harness as hn
from physiobench.attention import AttentionKind
from physiobench.backbones import ModelConfig
from physiobench.core import tensor as T
import numpy as np

T.set_default_dtype(np.float32)
data = dp.generate_synthetic(6, 8, "classification", seed=3, prevalence=0.5)
bundle = hn.prepare(*dp.split_by_case(data, test_fraction=0.34, seed=3))
runs = []
for cfg in (ModelConfig("resnet", 2, AttentionKind.SE, 50),
            ModelConfig("resnet", 2, AttentionKind.NL, 50),
            ModelConfig("inception", 2, AttentionKind.NONE, 0)):
    model = backbones.build_model(cfg, rng=3)
    result = hn.train(model, bundle, hn.TrainSpec.for_config(cfg, epochs=1, seed=3,
                                                             batch_size=16))
    digest = hashlib.sha256()
    for name, value in sorted(model.state_dict().items()):
        digest.update(name.encode() + value.tobytes())
    runs.append([result.losses, digest.hexdigest()])
print(json.dumps(runs))
"""


def _pinned_epoch(cpus, *first) -> str:
    # physiobench sets the BLAS thread count itself, so the variable is
    # left out of the child's environment
    src = str(Path(hn.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", PINNED_EPOCH, json.dumps(cpus), *first],
                          capture_output=True, text=True, check=True, env=env).stdout


needs_two_cpus = pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                                    or len(os.sched_getaffinity(0)) < 2,
                                    reason="needs sched_setaffinity and at least two CPUs")


@pytest.fixture(scope="module")
def every_cpu_epoch():
    return _pinned_epoch(sorted(os.sched_getaffinity(0)))


@needs_two_cpus
def test_training_bits_do_not_depend_on_the_cpu_count(every_cpu_epoch):
    one_cpu = _pinned_epoch(sorted(os.sched_getaffinity(0))[:1])
    assert one_cpu == every_cpu_epoch
    assert all(len(losses) == 1 for losses, _ in json.loads(one_cpu))


@needs_two_cpus
def test_training_bits_do_not_depend_on_the_import_order(every_cpu_epoch):
    # numpy first loads OpenBLAS with a thread per CPU; physiobench then
    # sets it to one thread, the configuration of a physiobench-first import
    assert _pinned_epoch(sorted(os.sched_getaffinity(0)), "numpy") == every_cpu_epoch


# ---------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------

def test_paper13_matrix_layout():
    configs = hn.paper13_matrix()
    assert len(configs) == 22
    identities = {(c.family, c.attention) for c in configs}
    assert len(identities) == 13
    fractions = {(c.family, c.attention.value, c.fraction) for c in configs}
    assert ("resnet", "se", 50) in fractions and ("resnet", "se", 100) in fractions
    msa = [c for c in configs if c.family == "msa_only"]
    assert len(msa) == 1 and msa[0].msa == MsaConfig(32, 4, 128, 2)
    reg = hn.paper13_matrix(task="regression", levels={"resnet": 2})
    assert all(c.task == "regression" for c in reg)
    assert {c.level for c in reg if c.family == "resnet"} == {2}


def test_msa_grid_entries_carry_invalid_cells():
    entries = hn.msa_grid_entries()
    assert len(entries) == 108
    invalid = [e for e in entries if e.error is not None]
    assert len(invalid) == 27
    assert all("h=6" in e.label for e in invalid)
    assert all(e.config is None for e in invalid)
    assert all(e.config is not None for e in entries if e.error is None)


@pytest.fixture(scope="module")
def tiny_sweep_report(cls_bundle):
    return hn.run_sweep(TINY_MSA_ENTRIES, cls_bundle, epochs=2, seeds=[0, 1],
                        batch_size=64)


def test_sweep_csv_is_reproducible(cls_bundle, tiny_sweep_report):
    again = hn.run_sweep(TINY_MSA_ENTRIES, cls_bundle, epochs=2, seeds=[0, 1],
                         batch_size=64)
    assert hn.report_to_csv(again) == hn.report_to_csv(tiny_sweep_report)


def test_sweep_csv_shape(tiny_sweep_report):
    text = hn.report_to_csv(tiny_sweep_report)
    lines = text.splitlines()
    assert lines[0] == hn.CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "msa_only" and fields[1] == "msa"
    assert fields[4] == "2"                      # seed_count
    float(fields[5])                             # metric_mean parses
    assert len(fields[5].split(".")[1]) == 6     # %.6f
    assert fields[8] == "0"                      # no aborts


def test_sweep_identical_seeds_have_zero_std(cls_bundle):
    report = hn.run_sweep(TINY_MSA_ENTRIES, cls_bundle, epochs=1, seeds=[7, 7],
                          batch_size=64)
    assert report.rows[0].metric_std == 0.0


def test_sweep_single_seed_std_is_zero(cls_bundle):
    report = hn.run_sweep(TINY_MSA_ENTRIES, cls_bundle, epochs=1, seeds=[3],
                          batch_size=64)
    row = report.rows[0]
    assert row.seed_count == 1 and row.metric_std == 0.0


def test_sweep_invalid_entry_becomes_aborted_row(cls_bundle):
    bad = next(e for e in hn.msa_grid_entries() if e.error is not None)
    report = hn.run_sweep([bad], cls_bundle, epochs=1, seeds=[0, 1], batch_size=64)
    row = report.rows[0]
    assert row.aborted == 2 and row.metric_mean is None
    line = hn.report_to_csv(report).splitlines()[1]
    assert line.endswith(",,,,2")  # empty metric cells, aborted count
    jsonl = hn.report_to_jsonl(report).splitlines()
    assert len(jsonl) == 1 and "error" in json.loads(jsonl[0])


def test_sweep_jsonl_line_is_the_row_keys_and_every_run_field(tiny_sweep_report):
    row_keys = {"family", "attention", "fraction", "level", "label", "metric_name"}
    fields = {f.name for f in dataclasses.fields(hn.RunResult)}
    for line, run in zip(hn.report_to_jsonl(tiny_sweep_report).splitlines(),
                         tiny_sweep_report.rows[0].runs):
        rec = json.loads(line)
        assert set(rec) == row_keys | fields
        assert {k: rec[k] for k in fields} == {k: getattr(run, k) for k in fields}


def test_sweep_jsonl_carries_histories(tiny_sweep_report):
    lines = hn.report_to_jsonl(tiny_sweep_report).splitlines()
    assert len(lines) == 2  # one per seed
    for line in lines:
        rec = json.loads(line)
        assert rec["epochs_run"] == 2
        assert rec["epoch_seconds"] == [1.0, 2.0]  # virtual clock
        assert rec["wall_seconds"] > 0
        assert rec["metric_name"] == "auroc"
