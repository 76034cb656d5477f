"""Training loop, evaluation metrics, convergence timing, and seeded sweeps.

Runs are deterministic: given the same seed, dataset, and BLAS thread count,
loss histories repeat bitwise (BLAS sums may differ in the last bits between
thread counts; the benchmark prints the count).  Sweeps therefore reproduce
their report CSV byte-for-byte; wall-clock timings are kept out of the CSV (a
virtual clock that advances one second per epoch is the default there) and
live in the per-run JSON-lines log instead.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .backbones import (CNN_FAMILIES, DEFAULT_LEVEL, ModelConfig, build_model)
from .attention import AttentionKind, MsaConfig, msa_grid
from .core import nn
from .core import tensor as T
from .core.tensor import Tensor
from .datapipe import SignalDataset, apply_demo_stats, demo_stats

CONVERGE_AUROC = 0.7    # classification convergence threshold (reach or exceed)
CONVERGE_MAPE = 27.0    # regression convergence threshold (reach or fall below)
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
            g = p.grad
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
    def __init__(self, params, lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._v):
            # p -= lr * g / (sqrt(v) + eps), in two scratch buffers
            g = p.grad
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
    """Pairwise concordance with half credit for ties (rank formulation)."""
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
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    ranks = np.empty(s.size, dtype=np.float64)
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and s[j + 1] == s[i]:
            j += 1
        ranks[i:j + 1] = 0.5 * ((i + 1) + (j + 1))  # average 1-based rank
        i = j + 1
    rank_of = np.empty(s.size, dtype=np.float64)
    rank_of[order] = ranks
    u = rank_of[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def mape(true, pred) -> float:
    """100 * mean(|pred - true| / |true|), percent."""
    true = np.asarray(true, dtype=np.float64).ravel()
    pred = np.asarray(pred, dtype=np.float64).ravel()
    if true.shape != pred.shape:
        raise ValueError("true and pred must have equal length")
    if not (np.all(np.isfinite(true)) and np.all(np.isfinite(pred))):
        raise ValueError("MAPE needs finite values")
    if np.any(true == 0):
        raise ValueError("MAPE undefined for zero true values")
    return float(100.0 * np.mean(np.abs(pred - true) / np.abs(true)))


def convergence_time(history, threshold: float, direction: str) -> float | None:
    """Clock reading of the first history point meeting the threshold.

    ``history`` is (seconds, metric) pairs in time order; direction 'ge'
    requires metric >= threshold, 'le' requires metric <= threshold.
    """
    if direction not in ("ge", "le"):
        raise ValueError(f"direction must be 'ge' or 'le', got {direction!r}")
    for seconds, metric in history:
        if (metric >= threshold) if direction == "ge" else (metric <= threshold):
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
    demo_mean: np.ndarray | None = None
    demo_std: np.ndarray | None = None


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
    if bundle.task == "classification":
        return auroc(bundle.y_test, scores)
    return mape(bundle.y_test, scores)


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


class _Clock:
    def __init__(self, mode: str):
        self.mode = mode
        self._start = time.perf_counter()
        self._epochs = 0

    def epoch_done(self) -> float:
        self._epochs += 1
        if self.mode == "virtual":
            return float(self._epochs)
        return time.perf_counter() - self._start

    def wall(self) -> float:
        return time.perf_counter() - self._start


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
    metric_name = "auroc" if bundle.task == "classification" else "mape"
    loss_fn = bce_with_logits if spec.loss == "bce" else rmse_loss
    opt = make_optimizer(spec, model.parameters())
    rng = np.random.default_rng(spec.seed)
    clock = _Clock(spec.time_mode)
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
        epoch_seconds.append(clock.epoch_done())
        if stop_threshold is not None:
            met = (metrics[-1] >= stop_threshold if metric_name == "auroc"
                   else metrics[-1] <= stop_threshold)
            if met:
                break

    final_metric = metrics[-1] if metrics else math.nan
    if spec.epochs == 0:  # only evaluate the model as built
        metric = evaluate_metric(model, bundle)
        if metric is None:
            aborted, abort_reason = True, "non-finite test score before training"
        else:
            final_metric = metric
    if metric_name == "auroc":
        conv = convergence_time(zip(epoch_seconds, metrics), CONVERGE_AUROC, "ge")
    else:
        conv = convergence_time(zip(epoch_seconds, metrics), CONVERGE_MAPE, "le")
    prevalence = (float(np.mean(bundle.y_test))
                  if bundle.task == "classification" else None)
    return RunResult(seed=spec.seed, metric_name=metric_name,
                     epochs_run=len(losses), losses=losses, metrics=metrics,
                     epoch_seconds=epoch_seconds, final_metric=final_metric,
                     convergence_s=conv, aborted=aborted,
                     abort_reason=abort_reason, wall_seconds=clock.wall(),
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
    family: str
    attention: str
    fraction: int
    level: int
    seed_count: int
    metric_mean: float | None
    metric_std: float | None
    conv_time_mean_s: float | None
    aborted: int
    label: str = ""
    error: str | None = None
    runs: list[RunResult] = field(default_factory=list)


@dataclass
class SweepReport:
    task: str
    metric_name: str
    rows: list[SweepRow]


def run_sweep(entries: list[SweepEntry], bundle: ArrayBundle, epochs: int,
              seeds: list[int], time_mode: str = "virtual", lr0: float = 1e-3,
              batch_size: int = 128) -> SweepReport:
    """Train every entry once per seed and aggregate mean / sample std /
    convergence times.

    The (entry, seed) runs go one after another in this process, whose BLAS
    and per-CPU batch-block threads already use every CPU.  Aborted runs and
    unbuildable entries are counted in the ``aborted`` column, never dropped.
    """
    metric_name = "auroc" if bundle.task == "classification" else "mape"
    rows = []
    for e in entries:
        if e.error is not None:
            rows.append(SweepRow(e.family, e.attention, e.fraction, e.level,
                                 seed_count=len(seeds), metric_mean=None,
                                 metric_std=None, conv_time_mean_s=None,
                                 aborted=len(seeds), label=e.label, error=e.error))
            continue
        runs = []
        for seed in seeds:
            spec = TrainSpec.for_config(e.config, epochs=epochs, seed=seed,
                                        time_mode=time_mode, lr0=lr0,
                                        batch_size=batch_size)
            runs.append(train(build_model(e.config, rng=seed), bundle, spec))
        finished = [r for r in runs if not r.aborted]
        finals = [r.final_metric for r in finished]
        conv = [r.convergence_s for r in finished if r.convergence_s is not None]
        rows.append(SweepRow(
            e.family, e.attention, e.fraction, e.level,
            seed_count=len(seeds),
            metric_mean=float(np.mean(finals)) if finals else None,
            metric_std=(float(np.std(finals, ddof=1)) if len(finals) >= 2
                        else (0.0 if finals else None)),
            conv_time_mean_s=float(np.mean(conv)) if conv else None,
            aborted=sum(r.aborted for r in runs),
            label=e.label, runs=runs))
    return SweepReport(bundle.task, metric_name, rows)


def report_to_csv(report: SweepReport) -> str:
    def num(v, fmt):
        return "" if v is None else format(v, fmt)

    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(",".join([
            r.family, r.attention, str(r.fraction), str(r.level),
            str(r.seed_count), num(r.metric_mean, ".6f"),
            num(r.metric_std, ".6f"), num(r.conv_time_mean_s, ".3f"),
            str(r.aborted),
        ]))
    return "\n".join(lines) + "\n"


def report_to_jsonl(report: SweepReport) -> str:
    """Per-run histories, one JSON object per line (includes wall-clock)."""
    lines = []
    for row in report.rows:
        base = {"family": row.family, "attention": row.attention,
                "fraction": row.fraction, "level": row.level,
                "label": row.label, "metric_name": report.metric_name}
        if row.error is not None:
            lines.append(json.dumps({**base, "error": row.error}, sort_keys=True))
            continue
        for run in row.runs:
            lines.append(json.dumps({
                **base, "seed": run.seed, "epochs_run": run.epochs_run,
                "losses": run.losses, "metrics": run.metrics,
                "epoch_seconds": run.epoch_seconds,
                "final_metric": run.final_metric,
                "convergence_s": run.convergence_s, "aborted": run.aborted,
                "abort_reason": run.abort_reason,
                "wall_seconds": run.wall_seconds,
                "test_prevalence": run.test_prevalence,
            }, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")
