"""Command-line driver: synthetic data, parameter planning, training, sweeps.

Every subcommand is deterministic given its flags and seed — report files
rerun byte-identically; wall-clock timings go to a separate log file so the
main artifacts stay reproducible.  Exit codes: 0 ok, 2 usage or config
error, 3 at least one training run aborted.
"""

from __future__ import annotations

import argparse
import json
import sys
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import datapipe as dp
from . import harness as hz
from .attention import AttentionKind, MsaConfig
from .backbones import (CNN_FAMILIES, DEFAULT_LEVEL, FRACTIONS, PUBLISHED_TABLES,
                        LevelTable, ModelConfig, attention_param_count,
                        attention_placement, build_model,
                        computed_level_table, level_trend, module_channels,
                        select_level)
from .core import tensor as T

TASK_ALIASES = {"cls": "classification", "classification": "classification",
                "reg": "regression", "regression": "regression"}

# why sweep --workers accepts only 1
ONE_PROCESS = ("a sweep runs in one process, whose per-CPU batch-block threads "
               "already use every CPU")


_FRACTION_LIST = "/".join(map(str, FRACTIONS))

# every setting of train, evaluate and sweep: key -> (type, documented
# default, help).  Its flag is --key with "-" for "_"; the flag and a
# config-file line both parse the value with that type.
SETTINGS = {
    "dataset": (str, None, "PSD1 dataset file"),
    "task": (str, None, "expected task (classification/cls, regression/reg)"),
    "synth_cases": (int, 0, "generate synthetic data with this many cases"),
    "synth_samples_per_case": (int, 8, "segments per synthetic case"),
    "synth_seed": (int, 0, "synthetic data seed"),
    "synth_difficulty": (float, 1.0, "planted-feature difficulty"),
    "synth_prevalence": (float, 0.05, "synthetic positive prevalence"),
    "dtype": (str, "float32", "float32 or float64 math"),
    "test_fraction": (float, 0.2, "case fraction held out for test"),
    "split_seed": (int, 0, "case-split seed"),
    "out_dir": (str, "physiobench-out", "directory for report artifacts"),
    "family": (str, "resnet", "backbone family (vgg/resnet/inception/msa_only)"),
    "level": (int, None, "backbone truncation level (sweep: --matrix paper13's "
                         "kept CNN families)"),
    "attention": (str, "none", "attention kind (none/se/nl/cbam/msa)"),
    "fraction": (int, 0, f"attention fraction percent ({_FRACTION_LIST})"),
    "msa_d_model": (int, 32, "MSA token width (sweep: --matrix paper13 only)"),
    "msa_heads": (int, 4, "MSA head count (sweep: --matrix paper13 only)"),
    "msa_ff": (int, 128, "MSA feed-forward width (sweep: --matrix paper13 only)"),
    "msa_layers": (int, 2, "MSA encoder depth (sweep: --matrix paper13 only)"),
    "epochs": (int, 20, "training epochs"),
    "batch_size": (int, 128, "mini-batch size"),
    "lr0": (float, 1e-3, "initial learning rate"),
    "time_mode": (str, "virtual", "virtual (1 s/epoch, reproducible) or wall"),
    "seed": (int, 0, "training seed"),
    "matrix": (str, "paper13", "paper13 or msa-grid"),
    "seeds": (int, 5, "seeds per config (base_seed + 0..n-1)"),
    "base_seed": (int, 0, "first seed"),
    "workers": (int, 1, f"only 1 is accepted: {ONE_PROCESS}"),
}

# the settings each subcommand reads: its flags, and the keys its --config
# file may hold
_SYNTH = ("synth_cases", "synth_samples_per_case", "synth_seed",
          "synth_difficulty", "synth_prevalence")
_DATA = ("dataset", "task", *_SYNTH, "dtype")
_MSA = ("msa_d_model", "msa_heads", "msa_ff", "msa_layers")
TAKES = {
    "train": _DATA + ("test_fraction", "split_seed", "out_dir",
                      "family", "level", "attention", "fraction", *_MSA,
                      "epochs", "batch_size", "lr0", "time_mode", "seed"),
    "evaluate": _DATA,
    "sweep": ("matrix", "seeds", "base_seed", "workers") + _DATA
             + ("test_fraction", "split_seed", "out_dir", "level", *_MSA,
                "epochs", "batch_size", "lr0", "time_mode"),
}


class CliError(Exception):
    """Config or usage problem; maps to exit code 2."""


# ---------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------

def load_config(path: str, keys: tuple[str, ...]) -> dict:
    """Parse a flat key=value file whose keys are among the settings
    ``keys``; any other key, or a key given twice, is rejected."""
    values: dict = {}
    first_line: dict[str, int] = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in keys:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise CliError(f"{path}:{lineno}: config key {key!r} is already set "
                           f"on line {first_line[key]}")
        first_line[key] = lineno
        try:
            values[key] = SETTINGS[key][0](value)
        except ValueError:
            raise CliError(f"{path}:{lineno}: bad value for {key}: {value!r}")
    return values


def _merge_config(args: argparse.Namespace) -> set[str]:
    """Fill the settings the user left unset from --config, then from
    defaults; return the settings that a flag or the config file gave."""
    keys = TAKES[args.command]
    file_values = load_config(args.config, keys) if args.config is not None else {}
    given = set(file_values)
    for key in keys:
        if getattr(args, key) is None:
            setattr(args, key, file_values.get(key, SETTINGS[key][1]))
        else:
            given.add(key)
    return given


def _reject_unread(given: set[str], keys: tuple[str, ...], why: str) -> None:
    """Exit 2 naming the first of ``keys`` given although no run reads it."""
    for key in keys:
        if key in given:
            raise CliError(f"--{key.replace('_', '-')} is not read {why}")


def _reject_synth_with_dataset(args, given: set[str]) -> None:
    """Exit 2 on a --synth-* setting given with --dataset, whose file is the
    data."""
    if args.dataset is not None:
        _reject_unread(given, _SYNTH, "with --dataset, which holds the data")


def _add_settings(p: argparse.ArgumentParser, command: str) -> None:
    p.add_argument("--config", help="key=value config file (flags override)")
    for key in TAKES[command]:
        typ, default, help_text = SETTINGS[key]
        p.add_argument("--" + key.replace("_", "-"), type=typ, default=None,
                       choices=FRACTIONS if key == "fraction" else None,
                       help=f"{help_text} [config key: {key}, default: {default}]")


# ---------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------

def _resolve_task(value: str | None) -> str:
    """The task a --task value names; None, no --task, is classification."""
    task = TASK_ALIASES.get("cls" if value is None else value)
    if task is None:
        raise CliError(f"unknown task {value!r} (use classification/cls or regression/reg)")
    return task


def _model_config(args, task: str) -> ModelConfig:
    kind = AttentionKind(args.attention)
    msa = None
    if args.family == "msa_only" or kind is AttentionKind.MSA:
        msa = MsaConfig(args.msa_d_model, args.msa_heads, args.msa_ff,
                        args.msa_layers)
    level = args.level
    if level is None:
        level = DEFAULT_LEVEL.get(args.family, 1)
    return ModelConfig(args.family, level, kind, args.fraction, msa=msa, task=task)


def _train_spec(args, cfg: ModelConfig) -> hz.TrainSpec:
    return hz.TrainSpec.for_config(cfg, epochs=args.epochs, seed=args.seed,
                                   lr0=args.lr0, batch_size=args.batch_size,
                                   time_mode=args.time_mode)


def _load_or_generate(args) -> dp.SignalDataset:
    if args.dataset is not None:
        try:
            data = Path(args.dataset).read_bytes()
        except OSError as exc:
            raise CliError(f"cannot read dataset {args.dataset}: {exc}")
        ds = dp.decode_dataset(data)
        if args.task is not None and _resolve_task(args.task) != ds.task:
            raise CliError(f"--task {args.task} does not match dataset task {ds.task}")
        return ds
    if args.synth_cases > 0:
        task = _resolve_task(args.task)
        return dp.generate_synthetic(
            n_cases=args.synth_cases, samples_per_case=args.synth_samples_per_case,
            task=task, seed=args.synth_seed, difficulty=args.synth_difficulty,
            prevalence=args.synth_prevalence)
    raise CliError("no input data: pass --dataset FILE or --synth-cases N")


def _bundle(args) -> tuple[hz.ArrayBundle, str]:
    ds = _load_or_generate(args)
    train_ds, test_ds = dp.split_by_case(ds, test_fraction=args.test_fraction,
                                         seed=args.split_seed)
    return hz.prepare(train_ds, test_ds), ds.task


def _set_dtype(name: str) -> None:
    if name not in ("float32", "float64"):
        raise CliError(f"dtype must be float32 or float64, got {name!r}")
    T.set_default_dtype(np.float32 if name == "float32" else np.float64)


@contextmanager
def _out_file(path: Path, mode: str):
    """Open ``path`` for writing, making its directory; any OSError, from
    the open or from a write inside the block, becomes a CliError."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, mode) as fh:
            yield fh
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def _make_out_dir(name: str) -> Path:
    """Create ``--out-dir`` once the data is read and checked: an unwritable
    one fails before any training, and a rejected flag leaves none behind."""
    out_dir = Path(name)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot write {out_dir}: {exc}")
    return out_dir


def _write(path: Path, data) -> None:
    with _out_file(path, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------

def cmd_gen_synthetic(args) -> int:
    task = _resolve_task(args.task)
    if args.cases <= 0:
        raise CliError("--cases must be positive")
    if args.samples_per_case <= 0:
        raise CliError("--samples-per-case must be positive")
    ds = dp.generate_synthetic(n_cases=args.cases,
                               samples_per_case=args.samples_per_case,
                               task=task, seed=args.seed,
                               difficulty=args.difficulty,
                               prevalence=args.prevalence)
    out = Path(args.out)
    _write(out, dp.encode_dataset(ds))
    manifest = dict(ds.meta)
    manifest["n_records"] = len(ds.records)
    manifest["format"] = "psd1"
    _write(out.with_suffix(out.suffix + ".manifest"), dp.format_manifest(manifest))
    print(f"wrote {len(ds.records)} records to {out}")
    return 0


def cmd_preprocess(args) -> int:
    try:
        ds = dp.decode_dataset(Path(args.infile).read_bytes())
    except OSError as exc:
        raise CliError(f"cannot read {args.infile}: {exc}")
    kept, drops = [], {}
    for rec in ds.records:
        decision = dp.filter_segment(rec.ecg, rec.ppg)
        reason = decision.reason
        if decision.keep and ds.task == "regression":
            try:
                bsa = dp.bsa_dubois(rec.height, rec.weight)
            except ValueError:   # a height or weight that is not positive, or NaN
                reason = "height_or_weight_not_positive"
            else:
                if not dp.sv_in_range(rec.label * bsa):
                    reason = "sv_out_of_range"
        if reason is None:
            kept.append(rec)
        else:
            drops[reason] = drops.get(reason, 0) + 1
    out_ds = dp.SignalDataset(ds.task, kept)
    out = Path(args.out)
    _write(out, dp.encode_dataset(out_ds))
    manifest = {"task": ds.task, "n_in": len(ds.records), "n_kept": len(kept)}
    manifest.update({f"dropped_{k}": v for k, v in sorted(drops.items())})
    _write(out.with_suffix(out.suffix + ".manifest"), dp.format_manifest(manifest))
    print(f"kept {len(kept)}/{len(ds.records)} records"
          + ("" if not drops else f" (dropped: {drops})"))
    return 0


def _planning_table(family: str, source: str) -> LevelTable:
    if family not in CNN_FAMILIES:
        raise CliError(f"level tables exist for CNN families only "
                       f"({', '.join(CNN_FAMILIES)}), got --family {family!r}")
    return PUBLISHED_TABLES[family] if source == "published" else computed_level_table(family)


def cmd_count_params(args) -> int:
    table = _planning_table(args.family, args.table)
    kind = AttentionKind(args.attention)
    if kind is AttentionKind.MSA:
        raise CliError("--attention msa has no feature-map block to count; "
                       "use none, se, nl or cbam")
    if kind is AttentionKind.NONE and args.fraction is not None:
        raise CliError("--fraction is read only with --attention se, nl or cbam")
    fraction = 100 if args.fraction is None else args.fraction
    chosen = select_level(table)
    print(f"family: {args.family}  (counts: {args.table})")
    header = "level  feature_params"
    if kind is not AttentionKind.NONE:
        header += f"  with_{kind.value}@{fraction}%"
    print(header)
    for level, count in enumerate(table.counts, start=1):
        line = f"{level:>5}  {count:>14}"
        if kind is not AttentionKind.NONE:
            chans = module_channels(args.family, level)
            extra = sum(attention_param_count(kind, chans[m - 1])
                        for m in attention_placement(level, fraction))
            line += f"  {count + extra:>14}"
        if level == len(table.counts) and count == table.default_count:
            line += "  (default)"
        if level == chosen:
            line += "  <- selected"
        print(line)
    print(f"default count: {table.default_count}")
    print(f"threshold (default/5): {table.threshold}")
    print(f"selected level: {chosen}")
    print(f"trend: {level_trend(table)}")
    return 0


def cmd_select_level(args) -> int:
    if (args.family is None) == (args.counts is None):
        raise CliError("pass one of --family and --counts")
    if args.counts is None:
        if args.default is not None:
            raise CliError("--default is read only with --counts")
        table = _planning_table(args.family, args.table or "published")
    else:
        if args.table is not None:
            raise CliError("--table is read only with --family")
        try:
            counts = [int(c) for c in args.counts.split(",")]
        except ValueError:
            raise CliError(f"--counts must be comma-separated integers: {args.counts!r}")
        default = args.default if args.default is not None else counts[-1]
        table = LevelTable("custom", tuple(counts), default)
    print(select_level(table))
    return 0


def _save_weights(path: Path, model, cfg: ModelConfig, bundle: hz.ArrayBundle) -> None:
    meta = {"config": {
        "family": cfg.family, "level": cfg.level, "attention": cfg.attention.value,
        "fraction": cfg.fraction, "task": cfg.task,
        "msa": None if cfg.msa is None else [cfg.msa.d_model, cfg.msa.n_heads,
                                             cfg.msa.d_ff, cfg.msa.n_layers]}}
    arrays = {k.replace("/", "."): v for k, v in model.state_dict().items()}
    arrays["__meta__"] = np.array(json.dumps(meta, sort_keys=True))
    arrays["__demo_mean__"] = bundle.demo_mean
    arrays["__demo_std__"] = bundle.demo_std
    with _out_file(path, "wb") as fh:
        np.savez(fh, **arrays)


def _load_weights(path: Path):
    reserved = ("__meta__", "__demo_mean__", "__demo_std__")
    loaded = np.load(path, allow_pickle=False)
    if not isinstance(loaded, np.lib.npyio.NpzFile):
        raise ValueError("a single .npy array, not an .npz archive")
    with loaded as zf:
        meta = json.loads(str(zf["__meta__"]))
        demo_stats = (zf["__demo_mean__"], zf["__demo_std__"])
        state = {k.replace(".", "/"): zf[k] for k in zf.files if k not in reserved}
    c = meta["config"]
    msa = MsaConfig(*c["msa"]) if c["msa"] else None
    cfg = ModelConfig(c["family"], c["level"], AttentionKind(c["attention"]),
                      c["fraction"], msa=msa, task=c["task"])
    return cfg, state, demo_stats


def cmd_train(args) -> int:
    given = _merge_config(args)
    _set_dtype(args.dtype)
    # the config and spec are checked before any directory or data is touched
    _train_spec(args, _model_config(args, _resolve_task(args.task)))
    if args.family != "msa_only":
        _reject_unread(given, _MSA, f"by family {args.family}")
    _reject_synth_with_dataset(args, given)
    bundle, task = _bundle(args)
    out_dir = _make_out_dir(args.out_dir)
    cfg = _model_config(args, task)
    spec = _train_spec(args, cfg)
    model = build_model(cfg, rng=args.seed)
    result = hz.train(model, bundle, spec)

    history = "".join(
        json.dumps({"epoch": i + 1, "loss": result.losses[i],
                    "metric": result.metrics[i],
                    "seconds": result.epoch_seconds[i]}, sort_keys=True) + "\n"
        for i in range(result.epochs_run))
    _write(out_dir / "history.jsonl", history)
    summary = {
        "family": cfg.family, "level": cfg.level,
        "attention": cfg.attention.value, "fraction": cfg.fraction,
        "task": task, "metric_name": result.metric_name,
        "optimizer": spec.optimizer, "loss": spec.loss,
        "epochs_requested": spec.epochs, "epochs_run": result.epochs_run,
        "final_metric": result.final_metric,
        "convergence_s": result.convergence_s, "seed": spec.seed,
        "aborted": result.aborted, "abort_reason": result.abort_reason,
        "test_prevalence": result.test_prevalence,
        "params": model.num_params(),
    }
    _write(out_dir / "run.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
    _write(out_dir / "timings.log", f"wall_seconds={result.wall_seconds:.3f}\n")
    _save_weights(out_dir / "weights.npz", model, cfg, bundle)
    print(f"{result.metric_name}={result.final_metric:.6f} "
          f"epochs={result.epochs_run} aborted={result.aborted}")
    return 3 if result.aborted else 0


def cmd_evaluate(args) -> int:
    """Score saved weights on a whole dataset file, using the demographic
    standardization captured at training time."""
    _reject_synth_with_dataset(args, _merge_config(args))
    _set_dtype(args.dtype)
    try:
        cfg, state, (demo_mean, demo_std) = _load_weights(Path(args.weights))
        model = build_model(cfg, rng=0)
        model.load_state_dict(state)
    except OSError as exc:
        raise CliError(f"cannot read weights {args.weights}: {exc}")
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise CliError(f"{args.weights} is not a weights file written by train: {exc}")
    ds = _load_or_generate(args)
    if cfg.task != ds.task:
        raise CliError(f"weights are for task {cfg.task}, dataset is {ds.task}")
    x, demo, y = ds.arrays()
    demo = dp.apply_demo_stats(demo, demo_mean, demo_std)
    name, metric, *_ = hz.task_metric(ds.task)
    print(json.dumps({name: metric(y, hz.predict(model, x, demo)), "n": len(y)},
                     sort_keys=True))
    return 0


def _sweep_entries(args, task: str, kept: set[str]) -> list[hz.SweepEntry]:
    if args.matrix == "paper13":
        levels = None
        if args.level is not None:   # the kept CNN families' level
            levels = {f: args.level for f in CNN_FAMILIES if f in kept}
        msa = MsaConfig(args.msa_d_model, args.msa_heads, args.msa_ff,
                        args.msa_layers)
        entries = hz.entries_from_configs(
            hz.paper13_matrix(task=task, levels=levels, msa=msa))
    else:
        entries = hz.msa_grid_entries(task=task)
    entries = [e for e in entries if e.family in kept]
    if args.max_entries is not None:
        entries = entries[:args.max_entries]
    return entries


def cmd_sweep(args) -> int:
    given = _merge_config(args)
    if args.seeds < 1:
        raise CliError(f"--seeds must be at least 1, got {args.seeds}")
    if args.max_entries is not None and args.max_entries < 1:
        raise CliError(f"--max-entries must be at least 1, got {args.max_entries}")
    if args.workers != 1:
        raise CliError(f"--workers must be 1, got {args.workers}: {ONE_PROCESS}")
    if args.matrix not in ("paper13", "msa-grid"):
        raise CliError(f"--matrix must be paper13 or msa-grid, got {args.matrix!r}")
    known = set(CNN_FAMILIES) | {"msa_only"}
    kept = set(args.families.split(",")) if args.families is not None else known
    if not kept <= known:
        raise CliError(f"unknown families: {sorted(kept - known)}")
    if args.matrix == "msa-grid":
        _reject_unread(given, ("level",) + _MSA,
                       "by --matrix msa-grid, which fixes its own cells")
    if kept.isdisjoint(CNN_FAMILIES):
        _reject_unread(given, ("level",), "when --families keeps no CNN family")
    if "msa_only" not in kept:
        _reject_unread(given, _MSA, "when --families drops msa_only")
    _reject_synth_with_dataset(args, given)
    _set_dtype(args.dtype)
    # the matrix and one spec are checked before any directory or data is
    # touched; the entries are built again for the data's own task
    entries = _sweep_entries(args, _resolve_task(args.task), kept)
    if not entries:
        raise CliError(f"--families {args.families} keeps no row of --matrix {args.matrix}")
    hz.TrainSpec("bce", "adam", epochs=args.epochs, seed=args.base_seed,
                 lr0=args.lr0, batch_size=args.batch_size, time_mode=args.time_mode)
    if args.list_only:  # listing needs no data
        for e in entries:
            status = "ok" if e.error is None else f"invalid: {e.error}"
            print(f"{e.family},{e.attention},{e.fraction},{e.level},"
                  f"{e.label or '-'},{status}")
        print(f"total: {len(entries)}")
        return 0

    bundle, task = _bundle(args)
    out_dir = _make_out_dir(args.out_dir)
    entries = _sweep_entries(args, task, kept)
    seeds = [args.base_seed + i for i in range(args.seeds)]
    report = hz.run_sweep(entries, bundle, epochs=args.epochs, seeds=seeds,
                          time_mode=args.time_mode, lr0=args.lr0,
                          batch_size=args.batch_size)
    _write(out_dir / "report.csv", hz.report_to_csv(report))
    _write(out_dir / "runs.jsonl", hz.report_to_jsonl(report))
    trained_aborts = sum(r.aborted for row in report.rows for r in row.runs)
    print(f"wrote {len(report.rows)} rows to {out_dir / 'report.csv'} "
          f"(aborted runs: {trained_aborts})")
    return 3 if trained_aborts else 0


# ---------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="physiobench",
        description="1D CNN/attention benchmark on physiological waveforms")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="write a synthetic PSD1 dataset")
    p.add_argument("--task", required=True, help="classification/cls or regression/reg")
    p.add_argument("--cases", type=int, required=True, help="number of synthetic cases")
    p.add_argument("--samples-per-case", type=int, default=8,
                   help="segments per case (default: 8)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    p.add_argument("--difficulty", type=float, default=1.0,
                   help="planted-feature strength in (0,1] (default: 1.0)")
    p.add_argument("--prevalence", type=float, default=0.05,
                   help="positive-class prevalence (default: 0.05)")
    p.add_argument("--out", required=True, help="output PSD1 path")
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("preprocess", help="filter a PSD1 dataset by signal-quality rules")
    p.add_argument("--in", dest="infile", required=True, help="input PSD1 path")
    p.add_argument("--out", required=True, help="output PSD1 path")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("count-params", help="per-level parameter table and level selection")
    p.add_argument("--family", required=True, help="vgg, resnet, or inception")
    p.add_argument("--attention", default="none",
                   help="include attention parameters of this kind (default: none)")
    p.add_argument("--fraction", type=int, choices=FRACTIONS,
                   help=f"attention fraction percent with --attention ({_FRACTION_LIST}; "
                        "default: 100)")
    p.add_argument("--table", choices=("published", "computed"), default="published",
                   help="feature-count source for the selection rule (default: published)")
    p.set_defaults(func=cmd_count_params)

    p = sub.add_parser("select-level", help="apply the default/5 level-selection rule")
    p.add_argument("--family", help="use this family's level table (or pass --counts)")
    p.add_argument("--counts", help="comma-separated per-level counts (level 1 first)")
    p.add_argument("--default", type=int,
                   help="default (full) count with --counts; last of --counts if omitted")
    p.add_argument("--table", choices=("published", "computed"),
                   help="count source with --family (default: published)")
    p.set_defaults(func=cmd_select_level)

    p = sub.add_parser("train", help="train one model; writes history.jsonl, run.json, weights.npz")
    _add_settings(p, "train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score saved weights on a whole dataset file")
    p.add_argument("--weights", required=True, help="weights.npz from train")
    _add_settings(p, "evaluate")
    p.set_defaults(func=cmd_evaluate)

    # no abbreviations: --seed, a train flag, would otherwise read as --seeds
    p = sub.add_parser("sweep", help="train a config matrix; writes report.csv + runs.jsonl",
                       allow_abbrev=False)
    _add_settings(p, "sweep")
    p.add_argument("--max-entries", type=int, help="truncate the matrix (smoke tests)")
    p.add_argument("--families", help="comma-separated family filter, e.g. resnet,msa_only")
    p.add_argument("--list-only", action="store_true",
                   help="print the matrix entries without training")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    saved_dtype = T.default_dtype()   # --dtype holds for this command only
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        T.set_default_dtype(saved_dtype)


if __name__ == "__main__":
    sys.exit(main())
