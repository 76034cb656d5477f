#!/usr/bin/env python3
"""End-to-end benchmark of physiobench, driven through its public API.

Run from the repository root:

    python3 benchmark/run.py --workload train-desk --seed 1 --seconds 35 --trace 0

Each workload is a closed loop: one process, one caller, and each call starts
when the previous one returns.  A call is one user job on the workload's
model(s): generate synthetic data, round-trip it through the PSD1 codec,
filter every segment, split by case and prepare arrays, train one epoch
(with its test-set evaluation), then restore the weights into a fresh model
through ``state_dict``/``load_state_dict`` and predict the test split.
Every call repeats the same work, so its figures are samples of one
quantity; each reported value is the median of a run's samples.

Timings are scaled to a nominal machine speed.  On a shared host the speed
of this process drifts by up to 1.7x over seconds to minutes with the load
of other tenants.  A fixed pure-Python loop timed next to each sample tracks
that drift (correlation about 0.7 with train, predict and generate times on
a 2-vCPU VM), so each sample's seconds are multiplied by
``REF_NOMINAL_S / loop seconds``.  The unscaled medians are printed too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the environment, the digest of the loss histories and predict
scores, the error rate and the unscaled figures.  ``--trace 1`` reports
per-layer figures from wrappers installed around the package's public
functions (see tracing.py).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("train-desk", "train-attn", "train-inception")
SETUP_REPEATS = 5
REF_LOOPS = 20_000
REF_NOMINAL_S = 0.0012
MIB = float(1 << 20)
RATES = {"train_samples_per_s": "segments/s",
         "predict_samples_per_s": "segments/s",
         "codec_mb_per_s": "MiB/s",
         "prepare_segments_per_s": "segments/s"}
# Generate throughput is sampled like the rates above, but its ten-seed
# spread reached 0.235 against the largest bound allowed (0.25), so it is
# printed with the environment instead of being a bounded metric.
UNBOUNDED = ("gen_segments_per_s",)


@dataclass(frozen=True)
class Size:
    cases: int             # synthetic cases, split 80/20 by case
    per_case: int          # segments per case
    batch: int
    gen_passes: int        # passes per call over the same inputs
    codec_passes: int
    prepare_passes: int
    predict_passes: int


FULL = Size(cases=20, per_case=8, batch=128, gen_passes=8, codec_passes=12,
            prepare_passes=10, predict_passes=3)
TINY = Size(cases=8, per_case=4, batch=8, gen_passes=2, codec_passes=2,
            prepare_passes=2, predict_passes=2)


def import_package() -> None:
    """Import physiobench from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "physiobench" / "__init__.py").is_file():
        sys.exit(f"benchmark: no physiobench sources under {src}")
    sys.path.insert(0, str(src))
    import physiobench
    if Path(physiobench.__file__).resolve().parent != src / "physiobench":
        sys.exit(f"benchmark: imported physiobench from {physiobench.__file__}")


def model_configs(workload: str) -> list:
    from physiobench.attention import AttentionKind, MsaConfig
    from physiobench.backbones import ModelConfig
    if workload == "train-desk":
        return [ModelConfig("resnet", 2, AttentionKind.SE, 50)]
    if workload == "train-attn":
        return [ModelConfig("resnet", 2, AttentionKind.NL, 50),
                ModelConfig("msa_only", 1, AttentionKind.MSA, 0,
                            msa=MsaConfig(32, 4, 128, 2))]
    return [ModelConfig("inception", 4, AttentionKind.NONE, 0)]


# ---------------------------------------------------------------------
# environment and machine speed
# ---------------------------------------------------------------------

def reference_seconds() -> float:
    """Fastest of three timings of a fixed pure-Python loop: the machine's
    speed now.  An interrupt only adds time, so the minimum ignores it."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(REF_LOOPS):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def blas_runtime_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(size: Size) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_runtime_threads(),
            "cpu_count": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "dtype": "float32", "batch_size": size.batch}


# ---------------------------------------------------------------------
# one call
# ---------------------------------------------------------------------

def brute_auroc(labels, scores) -> float:
    """Pairwise AUROC: P(pos > neg) with half credit for ties."""
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = float((pos > neg).sum()) + 0.5 * float((pos == neg).sum())
    return wins / (pos.size * neg.size)


class Timer:
    seconds = 0.0     # wall time of the timed block
    scaled = 0.0      # the same at nominal machine speed


class Call:
    """Samples, output checks and digest of one benchmark call."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.failures: list[str] = []
        self.digest = hashlib.sha256()

    @contextmanager
    def timed(self, phase: str):
        """Time one pass of ``phase`` between two reference loops; the
        tracer tags the spans inside with the phase."""
        timer = Timer()
        ref_s = reference_seconds()
        if self.tracer is not None:
            self.tracer.phase = phase
        start = time.perf_counter()
        try:
            yield timer
        finally:
            timer.seconds = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.phase = None
        ref_s = (ref_s + reference_seconds()) / 2
        timer.scaled = timer.seconds * REF_NOMINAL_S / ref_s
        self.samples["reference_s"].append(ref_s)

    def rate(self, metric: str, work: float, timer: Timer) -> None:
        self.samples[metric].append(work / timer.scaled)
        self.samples["unscaled_" + metric].append(work / timer.seconds)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def one_call(workload: str, seed: int, size: Size, tracer=None) -> Call:
    """Run one user job; every pass must reproduce the first pass's output."""
    import numpy as np
    from physiobench import backbones, datapipe as dp, harness as hz

    c = Call(tracer)
    for i in range(size.gen_passes):
        with c.timed("generate") as t:
            gen = dp.generate_synthetic(size.cases, size.per_case,
                                        "classification", seed, prevalence=0.5)
        c.rate("gen_segments_per_s", len(gen), t)
        if i == 0:
            ds = gen
        else:
            c.check(gen.equals(ds), "generate: same seed gave different data")

    for _ in range(size.codec_passes):
        with c.timed("codec") as t:
            blob = dp.encode_dataset(ds)
            back = dp.decode_dataset(blob)
        c.rate("codec_mb_per_s", len(blob) / MIB, t)
    c.check(dp.encode_dataset(back) == blob, "codec: encode(decode(b)) != b")
    c.check(back.equals(ds), "codec: decoded records differ from generated ones")

    for _ in range(size.prepare_passes):
        with c.timed("prepare") as t:
            keep = [dp.filter_segment(r.ecg, r.ppg).keep for r in back.records]
            kept = dp.SignalDataset(back.task,
                                    [r for r, k in zip(back.records, keep) if k],
                                    back.meta)
            train_ds, test_ds = dp.split_by_case(kept, 0.2, seed)
            bundle = hz.prepare(train_ds, test_ds)
        c.rate("prepare_segments_per_s", len(back), t)
    c.check(all(keep), f"filter: dropped {keep.count(False)} synthetic segments")

    train = Timer()
    trained = []
    for cfg in model_configs(workload):
        with c.timed("train") as t:
            model = backbones.build_model(cfg, rng=seed)
            spec = hz.TrainSpec.for_config(cfg, epochs=1, seed=seed,
                                           batch_size=size.batch)
            result = hz.train(model, bundle, spec)
        train.seconds += t.seconds
        train.scaled += t.scaled
        c.check(not result.aborted, f"train {cfg.family}: {result.abort_reason}")
        c.check(all(math.isfinite(v) for v in result.losses),
                f"train {cfg.family}: non-finite epoch loss")
        c.digest.update(np.asarray(result.losses, dtype=np.float64).tobytes())
        with c.timed("restore"):
            restored = backbones.build_model(cfg, rng=0)
            restored.load_state_dict(model.state_dict())
        trained.append((cfg, result, restored))
    c.rate("train_samples_per_s", len(trained) * len(bundle.x_train), train)

    # one predict sample covers every model of the workload, as one train
    # sample does, so that a run's samples all measure the same work
    scores = {}
    for _ in range(size.predict_passes):
        passed = Timer()
        for cfg, _, restored in trained:
            with c.timed("predict") as t:
                out = hz.predict(restored, bundle.x_test, bundle.demo_test)
            passed.seconds += t.seconds
            passed.scaled += t.scaled
            c.check(np.array_equal(scores.setdefault(cfg, out), out),
                    f"predict {cfg.family}: repeated predict differs")
        c.rate("predict_samples_per_s", len(trained) * len(out), passed)

    for cfg, result, _ in trained:
        out = scores[cfg]
        c.digest.update(out.tobytes())
        c.check(bool(np.isfinite(out).all()),
                f"predict {cfg.family}: non-finite scores")
        with c.timed("auroc"):
            auc = hz.auroc(bundle.y_test, out)
        c.check(auc == brute_auroc(bundle.y_test, out),
                f"predict {cfg.family}: auroc {auc} differs from brute force")
        c.check(auc == result.final_metric,
                f"predict {cfg.family}: restored model auroc {auc} != "
                f"train-time auroc {result.final_metric}")
    return c


# ---------------------------------------------------------------------
# set-up and the measurement loop
# ---------------------------------------------------------------------

def setup_once(workload: str, seed: int, size: Size) -> None:
    """Warm-up inputs, the workload's models and one forward pass each."""
    from physiobench import backbones, datapipe as dp
    from physiobench.core import tensor as T
    ds = dp.generate_synthetic(1, 8, "classification", seed, prevalence=0.5)
    x, demo, _ = ds.arrays()
    for cfg in model_configs(workload):
        model = backbones.build_model(cfg, rng=seed)
        model.train(False)
        with T.no_grad():
            model(x, demo)


def run(args) -> dict:
    start_ref_s = reference_seconds()
    import_package()
    import numpy as np
    from physiobench.core import tensor as T
    import_s = time.perf_counter() - T_START - start_ref_s
    T.set_default_dtype(np.float32)
    size = TINY if args.tiny else FULL

    setup = Call()
    for _ in range(SETUP_REPEATS):
        with setup.timed("setup") as t:
            setup_once(args.workload, args.seed, size)
        setup.samples["setup_s"].append(t.scaled)
        setup.samples["unscaled_setup_s"].append(t.seconds)

    tracer = None
    if args.trace:
        sys.path.insert(0, str(BENCH_DIR))
        from tracing import Tracer
        tracer = Tracer()

    calls: list[Call] = []
    walls = {True: [], False: []}   # traced? -> call wall seconds
    min_calls = 1 if tracer is None else 2
    crashed = 0
    loop_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_start
        all_walls = walls[True] + walls[False]
        # stop when the next call would end more than half a call late
        if (len(all_walls) >= min_calls
                and elapsed + statistics.median(all_walls) / 2 > args.seconds):
            break
        # a traced run alternates untraced and traced calls, starting
        # untraced, so their ratio is the tracing overhead
        traced = tracer is not None and len(all_walls) % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            call = one_call(args.workload, args.seed, size,
                            tracer if traced else None)
        except Exception as exc:  # a crashed call counts as failed
            print(f"benchmark: call failed: {exc!r}", file=sys.stderr)
            crashed += 1
            call = None
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(time.perf_counter() - t0)
        if call is not None:
            calls.append(call)

    samples = defaultdict(list)
    for c in [setup] + [c for c in calls if c.tracer is None]:
        for k, v in c.samples.items():
            samples[k].extend(v)
    median = {k: statistics.median(v) for k, v in samples.items()}
    import_scaled = import_s * REF_NOMINAL_S / start_ref_s
    failed = crashed + sum(1 for c in calls if c.failures)
    attempted = crashed + len(calls)
    digests = sorted({c.digest.hexdigest() for c in calls})
    info = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny,
            "environment": environment(size),
            "call_seconds": {"untraced": walls[False], "traced": walls[True]},
            "error_rate": failed / attempted,
            "failures": sorted({f for c in calls for f in c.failures}),
            "digest": digests[0] if len(digests) == 1 else None,
            "digest_mismatch": len(digests) > 1, "digests": digests,
            "unbounded": {k: median[k] for k in UNBOUNDED},
            "unscaled": {k: v for k, v in median.items()
                         if k.startswith("unscaled_") or k == "reference_s"}}
    info["unscaled"]["unscaled_setup_s"] = import_s + median["unscaled_setup_s"]

    if tracer is None:
        metrics = {k: (median[k], unit) for k, unit in RATES.items()}
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
        metrics["setup_s"] = (import_scaled + median["setup_s"], "s")
    else:
        metrics = {k: (v, unit_of(k)) for k, v in
                   tracer.metrics(len(walls[True])).items()}
        metrics["trace.overhead_ratio"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]),
            "ratio")
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"info": info, "spans": tracer.dump()}))
    print(json.dumps(info, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith(".calls") or name.endswith("_nodes"):
        return "count"
    return "ratio"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="minimal sizes, for the benchmark's own smoke test")
    args = p.parse_args(argv)
    result = run(args)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
