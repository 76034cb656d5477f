"""Training loop, evaluation metrics, convergence timing, and seeded sweeps.

Runs are deterministic: given the same seed and dataset, loss histories
repeat bitwise on any CPU count, for a given numpy and BLAS build on a given
CPU model (see ``physiobench``'s docstring).  Sweeps therefore reproduce
their report CSV byte-for-byte; wall-clock timings are kept out of the CSV
(a virtual clock that advances one second per epoch is the default there)
and live in the per-run JSON-lines log instead.
"""

from __future__ import annotations

import json
import math
import operator
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .backbones import (CNN_FAMILIES, DEFAULT_LEVEL, ModelConfig, build_model)
from .attention import AttentionKind, MsaConfig, msa_grid
from .core import nn
from .core import tensor as T
from .core.tensor import Tensor
from .datapipe import SignalDataset, apply_demo_stats, demo_stats

CONVERGE_AUROC = 0.7    # classification convergence threshold (reach or exceed)
CONVERGE_MAPE = 27.0    # regression convergence threshold (reach or fall below)
# whether metric meets threshold, by direction: 'ge' at or above, 'le' at or below
MEETS = {"ge": operator.ge, "le": operator.le}
# the paper's one training protocol (see README, "Training protocol")
LR_DECAY_EVERY = 20     # epochs between learning-rate drops
LR_DECAY_FACTOR = 0.1
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
RMSPROP_RHO, RMSPROP_EPS = 0.9, 1e-7
PREDICT_BATCH = 256     # rows per eval-mode forward in predict
BCE_GRAD_FLOOR = 1e-30  # smaller logit gradients are flushed to zero
CSV_HEADER = ("family,attention,fraction,level,seed_count,"
              "metric_mean,metric_std,conv_time_mean_s,aborted")


# ---------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class TrainSpec:
    loss: str                  # "bce" | "rmse"
    optimizer: str             # "adam" | "rmsprop"
    epochs: int
    seed: int = 0
    lr0: float = 1e-3
    batch_size: int = 128
    time_mode: str = "wall"    # "wall" | "virtual" (1 s per epoch)

    def __post_init__(self):
        if self.loss not in ("bce", "rmse"):
            raise ValueError(f"loss must be 'bce' or 'rmse', got {self.loss!r}")
        if self.optimizer not in ("adam", "rmsprop"):
            raise ValueError(f"optimizer must be 'adam' or 'rmsprop', got {self.optimizer!r}")
        if not (math.isfinite(self.lr0) and self.lr0 > 0):
            raise ValueError(f"lr0 must be finite and positive, got {self.lr0}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError(f"training seed must be >= 0, got {self.seed}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.time_mode not in ("wall", "virtual"):
            raise ValueError(f"time_mode must be 'wall' or 'virtual', got {self.time_mode!r}")

    @staticmethod
    def for_config(cfg: ModelConfig, epochs: int, seed: int = 0, **overrides) -> "TrainSpec":
        """Loss follows the task; inception classifiers train with RMSProp,
        everything else with Adam."""
        loss = "bce" if cfg.task == "classification" else "rmse"
        optimizer = ("rmsprop"
                     if cfg.family == "inception" and cfg.task == "classification"
                     else "adam")
        return TrainSpec(loss=loss, optimizer=optimizer, epochs=epochs,
                         seed=seed, **overrides)


def lr_at(epoch: int, spec: TrainSpec) -> float:
    """Step-decayed rate: lr0 * LR_DECAY_FACTOR^floor(epoch / LR_DECAY_EVERY)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return spec.lr0 * LR_DECAY_FACTOR ** (epoch // LR_DECAY_EVERY)


# ---------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------

class Adam:
    """Adam over ``params``; a parameter with no gradient (``grad`` None)
    steps exactly as with a zero gradient: its moments decay."""

    def __init__(self, params, lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            # p -= lr * (m/c1) / (sqrt(v/c2) + eps), evaluated in that order
            # in two scratch buffers
            g = 0.0 if p.grad is None else p.grad
            a, b = np.empty_like(p.data), np.empty_like(p.data)
            np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            m *= ADAM_BETA1
            m += a
            np.multiply(g, 1.0 - ADAM_BETA2, out=a)
            a *= g
            v *= ADAM_BETA2
            v += a
            np.divide(v, c2, out=a)
            np.sqrt(a, out=a)
            a += ADAM_EPS
            np.divide(m, c1, out=b)
            b *= self.lr
            b /= a
            p.data -= b


class RMSProp:
    """RMSProp over ``params``; a missing gradient steps as zeros, as in
    :class:`Adam`."""

    def __init__(self, params, lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._v):
            # p -= lr * g / (sqrt(v) + eps), in two scratch buffers
            g = 0.0 if p.grad is None else p.grad
            a, b = np.empty_like(p.data), np.empty_like(p.data)
            np.multiply(g, 1.0 - RMSPROP_RHO, out=a)
            a *= g
            v *= RMSPROP_RHO
            v += a
            np.sqrt(v, out=a)
            a += RMSPROP_EPS
            np.multiply(g, self.lr, out=b)
            b /= a
            p.data -= b


def make_optimizer(spec: TrainSpec, params) -> Adam | RMSProp:
    if spec.optimizer == "adam":
        return Adam(params, lr=spec.lr0)
    return RMSProp(params, lr=spec.lr0)


# ---------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------

def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Binary cross-entropy directly from logits: mean(softplus(z) - y*z).

    Logit-gradient entries below ``BCE_GRAD_FLOOR`` in magnitude are zeroed.
    A confidently right sample's gradient, about e^-|z|/B, would otherwise
    turn every per-sample row of the backward subnormal.  A flushed entry is
    over 20 orders of magnitude below any unsaturated sample's 1/B-sized
    gradient, far under float32 resolution of any sum it joins.  If every
    sample of a batch is saturated the step's gradient is all zeros: with
    eps >= 1e-8 under Adam's and RMSProp's square roots, the flushed entries
    would have moved a weight w by about lr * 1e-22 * |dz/dw|.  Steps that
    flush nothing are bit-identical.
    """
    y = Tensor(np.asarray(targets, dtype=logits.dtype).reshape(logits.shape))
    z = T.flush_tiny_grad(logits, BCE_GRAD_FLOOR)
    return T.reduce_mean(T.softplus(z) - z * y)


def rmse_loss(pred: Tensor, targets: np.ndarray) -> Tensor:
    y = Tensor(np.asarray(targets, dtype=pred.dtype).reshape(pred.shape))
    return T.sqrt(T.reduce_mean((pred - y) ** 2.0))


# ---------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------

def auroc(labels, scores) -> float:
    """The share of (positive, negative) pairs that the scores order
    correctly, a tie counting one half: each positive's score is looked up
    in the sorted negative scores, which counts the negatives below it and
    those equal to it."""
    labels = np.asarray(labels, dtype=np.float64).ravel()
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if labels.shape != scores.shape:
        raise ValueError("labels and scores must have equal length")
    if not np.all(np.isfinite(scores)):
        raise ValueError("AUROC needs finite scores")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0/1")
    n_pos = int((labels == 1).sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            f"AUROC needs both classes; got {n_pos} positives, {n_neg} negatives")
    pos = scores[labels == 1]
    neg = np.sort(scores[labels == 0])
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    return float((below.sum() + 0.5 * tied.sum()) / (n_pos * n_neg))


def mape(true, pred) -> float:
    """100 * mean(|pred - true| / |true|), percent."""
    true = np.asarray(true, dtype=np.float64).ravel()
    pred = np.asarray(pred, dtype=np.float64).ravel()
    if true.shape != pred.shape:
        raise ValueError("true and pred must have equal length")
    if not true.size:
        raise ValueError("MAPE needs at least one value")
    if not (np.all(np.isfinite(true)) and np.all(np.isfinite(pred))):
        raise ValueError("MAPE needs finite values")
    if np.any(true == 0):
        raise ValueError("MAPE undefined for zero true values")
    return float(100.0 * np.mean(np.abs(pred - true) / np.abs(true)))


def task_metric(task: str):
    """``(name, fn, threshold, direction)`` of ``task``'s test metric:
    ``fn(true, scores)`` scores a run, and a metric reaching ``threshold``
    (``direction`` 'ge': at or above; 'le': at or below) has converged.
    The table is read on each call, so a wrapper installed over this
    module's ``auroc`` or ``mape`` sees every call."""
    return {"classification": ("auroc", auroc, CONVERGE_AUROC, "ge"),
            "regression": ("mape", mape, CONVERGE_MAPE, "le")}[task]


def convergence_time(history, threshold: float, direction: str) -> float | None:
    """Clock reading of the first history point meeting the threshold.

    ``history`` is (seconds, metric) pairs in time order; direction 'ge'
    requires metric >= threshold, 'le' requires metric <= threshold.
    """
    if direction not in MEETS:
        raise ValueError(f"direction must be 'ge' or 'le', got {direction!r}")
    for seconds, metric in history:
        if MEETS[direction](metric, threshold):
            return float(seconds)
    return None


# ---------------------------------------------------------------------
# data plumbing
# ---------------------------------------------------------------------

@dataclass
class ArrayBundle:
    """Train/test arrays ready for batching; demographics are standardized
    with training-set statistics (the 0/1 sex column passes through)."""

    task: str
    x_train: np.ndarray
    demo_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    demo_test: np.ndarray
    y_test: np.ndarray
    demo_mean: np.ndarray
    demo_std: np.ndarray


def prepare(train_ds: SignalDataset, test_ds: SignalDataset) -> ArrayBundle:
    if train_ds.task != test_ds.task:
        raise ValueError(f"task mismatch: {train_ds.task} vs {test_ds.task}")
    x_tr, d_tr, y_tr = train_ds.arrays()
    x_te, d_te, y_te = test_ds.arrays()
    mean, std = demo_stats(d_tr)
    return ArrayBundle(train_ds.task, x_tr, apply_demo_stats(d_tr, mean, std),
                       y_tr, x_te, apply_demo_stats(d_te, mean, std), y_te,
                       demo_mean=mean, demo_std=std)


def predict(model: nn.Module, x: np.ndarray, demo: np.ndarray) -> np.ndarray:
    """Batched eval-mode forward; returns the [N] output column."""
    was_training = model.training
    model.train(False)
    outs = []
    with T.no_grad():
        for start in range(0, len(x), PREDICT_BATCH):
            sl = slice(start, start + PREDICT_BATCH)
            outs.append(model(x[sl], demo[sl]).data[:, 0])
    model.train(was_training)
    return np.concatenate(outs) if outs else np.empty(0)


def evaluate_metric(model: nn.Module, bundle: ArrayBundle) -> float | None:
    """Test-split AUROC or MAPE; None when any test score is non-finite."""
    scores = predict(model, bundle.x_test, bundle.demo_test)
    if not np.all(np.isfinite(scores)):
        return None
    return task_metric(bundle.task)[1](bundle.y_test, scores)


# ---------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------

@dataclass
class RunResult:
    seed: int
    metric_name: str                 # "auroc" | "mape"
    epochs_run: int
    losses: list[float]
    metrics: list[float]
    epoch_seconds: list[float]
    final_metric: float
    convergence_s: float | None
    aborted: bool = False
    abort_reason: str | None = None
    wall_seconds: float = 0.0
    test_prevalence: float | None = None


def train(model: nn.Module, bundle: ArrayBundle, spec: TrainSpec,
          stop_threshold: float | None = None) -> RunResult:
    """Seeded shuffled mini-batch training with per-epoch test evaluation.

    A non-finite loss or test score aborts the run, keeping the history of
    completed epochs; a run with no scored epoch has ``final_metric`` NaN.
    With epochs=0 the model is only evaluated.  ``stop_threshold``
    ends training early once the test metric meets it (>= for AUROC,
    <= for MAPE); histories keep whatever epochs ran.
    """
    if (spec.loss == "bce") != (bundle.task == "classification"):
        raise ValueError(f"loss {spec.loss!r} does not fit task {bundle.task!r}")
    if bundle.task == "classification":
        n_pos = int(np.sum(bundle.y_test == 1))
        if n_pos in (0, len(bundle.y_test)):
            raise ValueError(
                f"AUROC needs both classes in the test split; got {n_pos} "
                f"positives, {len(bundle.y_test) - n_pos} negatives")
    metric_name, _, converge_at, direction = task_metric(bundle.task)
    loss_fn = bce_with_logits if spec.loss == "bce" else rmse_loss
    opt = make_optimizer(spec, model.parameters())
    rng = np.random.default_rng(spec.seed)
    began = time.perf_counter()
    n = len(bundle.x_train)

    losses: list[float] = []
    metrics: list[float] = []
    epoch_seconds: list[float] = []
    aborted = False
    abort_reason = None

    for epoch in range(spec.epochs):
        opt.lr = lr_at(epoch, spec)
        perm = rng.permutation(n)
        model.train(True)
        total = 0.0
        for start in range(0, n, spec.batch_size):
            idx = perm[start:start + spec.batch_size]
            model.zero_grad()
            loss = loss_fn(model(bundle.x_train[idx], bundle.demo_train[idx]),
                           bundle.y_train[idx])
            lval = loss.item()
            if not math.isfinite(lval):
                aborted = True
                abort_reason = (f"non-finite loss at epoch {epoch + 1}, "
                                f"batch starting {start}")
                break
            loss.backward()
            opt.step()
            total += lval * len(idx)
        if aborted:
            break
        metric = evaluate_metric(model, bundle)
        if metric is None:
            aborted = True
            abort_reason = f"non-finite test score at epoch {epoch + 1}"
            break
        losses.append(total / n)
        metrics.append(metric)
        epoch_seconds.append(float(epoch + 1) if spec.time_mode == "virtual"
                             else time.perf_counter() - began)
        if stop_threshold is not None and MEETS[direction](metrics[-1], stop_threshold):
            break

    final_metric = metrics[-1] if metrics else math.nan
    if spec.epochs == 0:  # only evaluate the model as built
        metric = evaluate_metric(model, bundle)
        if metric is None:
            aborted, abort_reason = True, "non-finite test score before training"
        else:
            final_metric = metric
    conv = convergence_time(zip(epoch_seconds, metrics), converge_at, direction)
    prevalence = (float(np.mean(bundle.y_test))
                  if bundle.task == "classification" else None)
    return RunResult(seed=spec.seed, metric_name=metric_name,
                     epochs_run=len(losses), losses=losses, metrics=metrics,
                     epoch_seconds=epoch_seconds, final_metric=final_metric,
                     convergence_s=conv, aborted=aborted,
                     abort_reason=abort_reason,
                     wall_seconds=time.perf_counter() - began,
                     test_prevalence=prevalence)


# ---------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------

@dataclass
class SweepEntry:
    """One sweep row: either a buildable config or a recorded-invalid cell."""

    family: str
    attention: str
    fraction: int
    level: int
    config: ModelConfig | None = None
    label: str = ""
    error: str | None = None


def entries_from_configs(configs) -> list[SweepEntry]:
    return [SweepEntry(c.family, c.attention.value, c.fraction, c.level, config=c)
            for c in configs]


def paper13_matrix(task: str = "classification", levels: dict[str, int] | None = None,
                   msa: MsaConfig | None = None) -> list[ModelConfig]:
    """The benchmark's 13 (backbone, attention) identities as 22 configs:
    each CNN family bare plus SE/NL/CBAM at 50% and 100%, and the best
    stand-alone MSA encoder."""
    lv = dict(DEFAULT_LEVEL)
    if levels:
        lv.update(levels)
    configs = [ModelConfig(f, lv[f], AttentionKind.NONE, 0, task=task)
               for f in CNN_FAMILIES]
    for fam in CNN_FAMILIES:
        for kind in (AttentionKind.SE, AttentionKind.NL, AttentionKind.CBAM):
            for fraction in (50, 100):
                configs.append(ModelConfig(fam, lv[fam], kind, fraction, task=task))
    configs.append(ModelConfig("msa_only", 1, AttentionKind.MSA, 0,
                               msa=msa or MsaConfig(32, 4, 128, 2), task=task))
    return configs


def msa_grid_entries(task: str = "classification") -> list[SweepEntry]:
    """All 108 grid cells as sweep entries; head-divisibility failures are
    carried as invalid rows rather than dropped."""
    entries = []
    for d_model, n_heads, d_ff, n_layers in msa_grid():
        label = f"msa(d={d_model},h={n_heads},ff={d_ff},l={n_layers})"
        try:
            cfg = ModelConfig("msa_only", 1, AttentionKind.MSA, 0,
                              msa=MsaConfig(d_model, n_heads, d_ff, n_layers),
                              task=task)
            entries.append(SweepEntry("msa_only", "msa", 0, 1, config=cfg,
                                      label=label))
        except ValueError as exc:
            entries.append(SweepEntry("msa_only", "msa", 0, 1, label=label,
                                      error=str(exc)))
    return entries


@dataclass
class SweepRow:
    """An entry and its runs, one per seed (none for an entry that could not
    be built), with their aggregates; a seed without a finished run counts
    as aborted."""

    entry: SweepEntry
    seed_count: int
    runs: list[RunResult]
    metric_mean: float | None = field(init=False)
    metric_std: float | None = field(init=False)
    conv_time_mean_s: float | None = field(init=False)
    aborted: int = field(init=False)

    def __post_init__(self):
        finished = [r for r in self.runs if not r.aborted]
        finals = [r.final_metric for r in finished]
        conv = [r.convergence_s for r in finished if r.convergence_s is not None]
        self.metric_mean = float(np.mean(finals)) if finals else None
        self.metric_std = (float(np.std(finals, ddof=1)) if len(finals) >= 2
                           else (0.0 if finals else None))
        self.conv_time_mean_s = float(np.mean(conv)) if conv else None
        self.aborted = self.seed_count - len(finished)


@dataclass
class SweepReport:
    metric_name: str
    rows: list[SweepRow]


def run_sweep(entries: list[SweepEntry], bundle: ArrayBundle, epochs: int,
              seeds: list[int], time_mode: str = "virtual", lr0: float = 1e-3,
              batch_size: int = 128) -> SweepReport:
    """Train every entry once per seed and aggregate mean / sample std /
    convergence times.

    The (entry, seed) runs go one after another in this process, whose
    per-CPU batch-block threads already use every CPU.  Aborted runs and
    unbuildable entries are counted in the ``aborted`` column, never dropped.
    """
    rows = []
    for e in entries:
        runs = []
        for seed in seeds if e.error is None else []:   # an invalid entry has no runs
            spec = TrainSpec.for_config(e.config, epochs=epochs, seed=seed,
                                        time_mode=time_mode, lr0=lr0,
                                        batch_size=batch_size)
            runs.append(train(build_model(e.config, rng=seed), bundle, spec))
        rows.append(SweepRow(e, len(seeds), runs))
    return SweepReport(task_metric(bundle.task)[0], rows)


def report_to_csv(report: SweepReport) -> str:
    def num(v, fmt):
        return "" if v is None else format(v, fmt)

    lines = [CSV_HEADER]
    for r in report.rows:
        e = r.entry
        lines.append(",".join([
            e.family, e.attention, str(e.fraction), str(e.level),
            str(r.seed_count), num(r.metric_mean, ".6f"),
            num(r.metric_std, ".6f"), num(r.conv_time_mean_s, ".3f"),
            str(r.aborted),
        ]))
    return "\n".join(lines) + "\n"


def report_to_jsonl(report: SweepReport) -> str:
    """One JSON object per run: the row's keys and every RunResult field
    (wall-clock included); an invalid row gets one line with its error."""
    lines = []
    for row in report.rows:
        e = row.entry
        base = {"family": e.family, "attention": e.attention,
                "fraction": e.fraction, "level": e.level,
                "label": e.label, "metric_name": report.metric_name}
        if e.error is not None:
            lines.append(json.dumps({**base, "error": e.error}, sort_keys=True))
            continue
        for run in row.runs:
            lines.append(json.dumps({**base, **asdict(run)}, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")
