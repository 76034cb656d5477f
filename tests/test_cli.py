"""End-to-end subcommand tests driving cli.main() in process."""

import json

import numpy as np
import pytest

from physiobench import cli, datapipe as dp
from physiobench.attention import AttentionKind, make_attention
from physiobench.backbones import PUBLISHED_TABLES, module_channels
from physiobench.core import tensor as T

TINY_MSA_FLAGS = ["--family", "msa_only", "--attention", "msa",
                  "--msa-d-model", "16", "--msa-heads", "2",
                  "--msa-ff", "32", "--msa-layers", "1"]
TINY_DATA_FLAGS = ["--synth-cases", "10", "--synth-samples-per-case", "2",
                   "--synth-prevalence", "0.5", "--synth-seed", "3"]


def _train_args(out_dir, extra=(), data=TINY_DATA_FLAGS):
    return (["train"] + TINY_MSA_FLAGS + data
            + ["--task", "cls", "--epochs", "2", "--out-dir", str(out_dir)]
            + list(extra))


# ---------------------------------------------------------------------
# gen-synthetic / preprocess
# ---------------------------------------------------------------------

def test_gen_synthetic_writes_dataset_and_manifest(tmp_path, capsys):
    out = tmp_path / "data.psd1"
    rc = cli.main(["gen-synthetic", "--task", "cls", "--cases", "6",
                   "--samples-per-case", "2", "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert "wrote 12 records" in capsys.readouterr().out
    ds = dp.decode_dataset(out.read_bytes())
    assert len(ds) == 12 and ds.task == "classification"
    assert (tmp_path / "data.psd1.manifest").read_text() == dp.format_manifest({
        "difficulty": "1.0", "format": "psd1", "generator": "planted-feature-v1",
        "n_cases": "6", "n_records": "12", "prevalence_realized": repr(1 / 12),
        "prevalence_requested": "0.05", "samples_per_case": "2", "seed": "1",
        "task": "classification"})


def test_gen_synthetic_is_deterministic(tmp_path):
    args = ["gen-synthetic", "--task", "reg", "--cases", "4", "--seed", "9"]
    assert cli.main(args + ["--out", str(tmp_path / "a.psd1")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b.psd1")]) == 0
    assert (tmp_path / "a.psd1").read_bytes() == (tmp_path / "b.psd1").read_bytes()


def test_gen_synthetic_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x.psd1")
    assert cli.main(["gen-synthetic", "--task", "cls", "--cases", "0",
                     "--out", out]) == 2
    assert cli.main(["gen-synthetic", "--task", "detection", "--cases", "1",
                     "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(["gen-synthetic", "--task", "cls", "--cases", "1", "--seed", "-3",
                     "--out", out]) == 2
    assert capsys.readouterr().err == "error: generator seed must be >= 0, got -3\n"
    assert not (tmp_path / "x.psd1").exists()


def test_preprocess_drops_bad_segments(tmp_path, capsys):
    ds = dp.generate_synthetic(5, 2, "classification", seed=2)
    ds.records[0].ecg[10] = 9.0        # out of ECG range
    ds.records[3].ppg[0] = -1.0        # non-positive PPG
    src = tmp_path / "raw.psd1"
    src.write_bytes(dp.encode_dataset(ds))
    out = tmp_path / "clean.psd1"
    assert cli.main(["preprocess", "--in", str(src), "--out", str(out)]) == 0
    assert "kept 8/10" in capsys.readouterr().out
    cleaned = dp.decode_dataset(out.read_bytes())
    assert len(cleaned) == 8
    assert (tmp_path / "clean.psd1.manifest").read_text() == dp.format_manifest({
        "task": "classification", "n_in": "10", "n_kept": "8",
        "dropped_ecg[10] out of range": "1", "dropped_ppg[0] out of range": "1"})


def test_preprocess_enforces_stroke_volume_bounds(tmp_path):
    ds = dp.generate_synthetic(5, 1, "regression", seed=2)
    ds.records[0].label = 200.0  # implied SV = label * BSA far above 200 mL
    src = tmp_path / "raw.psd1"
    src.write_bytes(dp.encode_dataset(ds))
    out = tmp_path / "clean.psd1"
    assert cli.main(["preprocess", "--in", str(src), "--out", str(out)]) == 0
    assert (tmp_path / "clean.psd1.manifest").read_text() == dp.format_manifest({
        "task": "regression", "n_in": "5", "n_kept": "4", "dropped_sv_out_of_range": "1"})


def test_preprocess_drops_a_record_without_a_positive_height(tmp_path, capsys):
    ds = dp.generate_synthetic(3, 1, "regression", seed=2)
    ds.records[1].height = 0.0
    src, out = tmp_path / "raw.psd1", tmp_path / "clean.psd1"
    src.write_bytes(dp.encode_dataset(ds))
    assert cli.main(["preprocess", "--in", str(src), "--out", str(out)]) == 0
    assert "kept 2/3" in capsys.readouterr().out
    kept = dp.decode_dataset(out.read_bytes()).records
    assert [r.case_id for r in kept] == [ds.records[0].case_id, ds.records[2].case_id]
    assert (tmp_path / "clean.psd1.manifest").read_text() == dp.format_manifest({
        "task": "regression", "n_in": "3", "n_kept": "2",
        "dropped_height_or_weight_not_positive": "1"})


@pytest.mark.parametrize("sv_ml", [np.nan, np.inf, -np.inf, 19.999, 20.0, 200.0, 200.001])
def test_compute_svi_and_preprocess_apply_one_stroke_volume_rule(sv_ml, tmp_path,
                                                                monkeypatch):
    # A body surface area of 1 m^2 makes the stored label the stroke volume
    # itself, so the float32 label keeps the 20 and 200 mL rows on their bounds.
    monkeypatch.setattr(dp, "bsa_dubois", lambda height, weight: 1.0)
    co, hr = (np.inf, np.inf) if np.isnan(sv_ml) else (sv_ml, 1000.0)   # SV = CO*1000/HR
    try:
        by_svi = dp.compute_svi(dp.HemoPoint(co, hr, 170.0, 70.0)).kept
    except ValueError:   # no positive CO and HR give a negative stroke volume
        by_svi = False
    ds = dp.generate_synthetic(1, 1, "regression", seed=2)
    ds.records[0].label = sv_ml
    src, out = tmp_path / "raw.psd1", tmp_path / "clean.psd1"
    src.write_bytes(dp.encode_dataset(ds))
    assert cli.main(["preprocess", "--in", str(src), "--out", str(out)]) == 0
    by_preprocess = len(dp.decode_dataset(out.read_bytes())) == 1
    assert by_svi == by_preprocess == (sv_ml in (20.0, 200.0))


def test_preprocess_missing_input(tmp_path):
    assert cli.main(["preprocess", "--in", str(tmp_path / "nope.psd1"),
                     "--out", str(tmp_path / "o.psd1")]) == 2


# ---------------------------------------------------------------------
# parameter planning
# ---------------------------------------------------------------------

def test_count_params_published_resnet(capsys):
    assert cli.main(["count-params", "--family", "resnet"]) == 0
    out = capsys.readouterr().out
    assert "selected level: 6" in out
    assert "trend: increasing" in out
    assert "threshold (default/5): 769830.4" in out
    assert "<- selected" in out and "(default)" in out


def test_count_params_vgg_decreasing(capsys):
    assert cli.main(["count-params", "--family", "vgg"]) == 0
    out = capsys.readouterr().out
    assert "selected level: 5" in out and "trend: decreasing" in out


@pytest.mark.parametrize("family", ["vgg", "resnet", "inception"])
def test_count_params_attention_column_is_count_plus_attention(family, capsys):
    # the column is the row's own (published, feature-only) count plus one
    # built SE block per module at 100%
    assert cli.main(["count-params", "--family", family, "--attention", "se",
                     "--fraction", "100"]) == 0
    out = capsys.readouterr().out
    assert "with_se@100%" in out
    rows = [l.split() for l in out.splitlines() if l.split() and l.split()[0].isdigit()]
    counts = PUBLISHED_TABLES[family].counts
    assert len(rows) == len(counts)
    rng = np.random.default_rng(0)
    for level, (count, row) in enumerate(zip(counts, rows), start=1):
        se = sum(make_attention(rng, AttentionKind.SE, c).num_params()
                 for c in module_channels(family, level))
        assert [int(v) for v in row[:3]] == [level, count, count + se]


def test_count_params_computed_table_lists_feature_params(capsys):
    # ResNet level 1: stem conv + BN and one basic block, no head (92,053 with it)
    assert cli.main(["count-params", "--family", "resnet", "--table", "computed"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "level  feature_params"
    assert lines[2].split() == ["1", "26048"]


def test_count_params_rejects_msa_family():
    assert cli.main(["count-params", "--family", "msa_only"]) == 2


@pytest.mark.parametrize("fraction", ["100", "0"])
def test_count_params_rejects_msa_attention_before_printing(fraction, capsys):
    # msa has no feature-map block: one error line, and no half table
    assert cli.main(["count-params", "--family", "vgg", "--attention", "msa",
                     "--fraction", fraction]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "msa" in captured.err


def test_select_level_custom_counts(capsys):
    assert cli.main(["select-level", "--counts", "100,50,10",
                     "--default", "100"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_select_level_family(capsys):
    assert cli.main(["select-level", "--family", "inception"]) == 0
    assert capsys.readouterr().out.strip() == "4"


@pytest.mark.parametrize("family,level", [("vgg", 4), ("resnet", 6), ("inception", 4)])
def test_select_level_computed_table(family, level, capsys):
    # ResNet and Inception pick their published levels: the full-size count
    # is the whole extractor, Inception's ninth module included
    assert cli.main(["select-level", "--family", family, "--table", "computed"]) == 0
    assert capsys.readouterr().out.strip() == str(level)


def test_select_level_usage_errors(capsys):
    assert cli.main(["select-level"]) == 2
    assert cli.main(["select-level", "--counts", "10,oops"]) == 2
    capsys.readouterr()
    # an empty value is given, not missing
    assert cli.main(["select-level", "--counts", ""]) == 2
    assert capsys.readouterr().err == (
        "error: --counts must be comma-separated integers: ''\n")


@pytest.mark.parametrize("argv,err", [
    (["--family", "resnet", "--default", "5"], "--default is read only with --counts"),
    (["--family", "vgg", "--counts", "1,2"], "pass one of --family and --counts"),
    (["--counts", "1,2", "--table", "computed"], "--table is read only with --family"),
], ids=["family-default", "family-counts", "counts-table"])
def test_select_level_setting_it_would_not_read_exits_2(argv, err, capsys):
    assert cli.main(["select-level", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize("argv", [["--counts", "5,7,9", "--default", "0"],
                                  ["--counts", "5,0,9"],
                                  ["--counts", "5,-7,9", "--default", "9"]])
def test_select_level_rejects_counts_that_are_not_positive(argv, capsys):
    assert cli.main(["select-level", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "positive" in captured.err


# ---------------------------------------------------------------------
# train / evaluate
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run")
    rc = cli.main(_train_args(out_dir))
    assert rc == 0
    return out_dir


def test_train_writes_artifacts(trained):
    history = [json.loads(l) for l in (trained / "history.jsonl").read_text().splitlines()]
    assert [h["epoch"] for h in history] == [1, 2]
    assert history[0]["seconds"] == 1.0 and history[1]["seconds"] == 2.0
    summary = json.loads((trained / "run.json").read_text())
    assert summary["family"] == "msa_only" and summary["epochs_run"] == 2
    assert summary["metric_name"] == "auroc" and not summary["aborted"]
    assert summary["optimizer"] == "adam"
    assert (trained / "timings.log").read_text().startswith("wall_seconds=")
    assert (trained / "weights.npz").exists()


def test_train_reruns_identically(trained, tmp_path):
    again = tmp_path / "again"
    assert cli.main(_train_args(again)) == 0
    for name in ("history.jsonl", "run.json"):
        assert (again / name).read_bytes() == (trained / name).read_bytes()


@pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
def test_task_that_does_not_match_the_dataset_exits_2(command, trained, tmp_path,
                                                      capsys):
    data = tmp_path / "cls.psd1"
    assert cli.main(["gen-synthetic", "--task", "cls", "--cases", "4",
                     "--out", str(data)]) == 0
    capsys.readouterr()
    out = tmp_path / "x"
    # no --synth-* flags: --dataset holds the data
    args = {"train": _train_args(out, ["--epochs", "1"], data=[]),
            "evaluate": ["evaluate", "--weights", str(trained / "weights.npz")],
            "sweep": _sweep_args(out, ["--seeds", "1"], data=[])}[command]
    assert cli.main(args + ["--dataset", str(data), "--task", "reg"]) == 2
    assert capsys.readouterr().err == (
        "error: --task reg does not match dataset task classification\n")
    assert not out.exists()


def test_train_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=1\nbatch_size=64\n# comment\n\n")
    out1 = tmp_path / "from-config"
    assert cli.main(_train_args(out1, ["--config", str(cfg)])) == 0
    # the explicit --epochs 2 flag wins over the config's epochs=1
    assert len((out1 / "history.jsonl").read_text().splitlines()) == 2
    args = ["train"] + TINY_MSA_FLAGS + TINY_DATA_FLAGS + [
        "--task", "cls", "--out-dir", str(tmp_path / "cfg-only"),
        "--config", str(cfg)]
    assert cli.main(args) == 0
    assert len((tmp_path / "cfg-only" / "history.jsonl").read_text().splitlines()) == 1


def _head(command):
    """The shortest argv that ``command``'s parser accepts."""
    return [command, "--weights", "w.npz"] if command == "evaluate" else [command]


def _sample(key):
    """A value of setting ``key`` that its flag accepts."""
    if key == "fraction":
        return "50"
    return {str: "abc", int: "3", float: "0.25"}[cli.SETTINGS[key][0]]


def _has_flag(command, key, capsys):
    """Whether ``command`` takes the flag of setting ``key``."""
    try:
        cli.build_parser().parse_args(
            _head(command) + ["--" + key.replace("_", "-"), _sample(key)])
    except SystemExit as exit_:   # a usage error
        assert exit_.code == 2
        capsys.readouterr()
        return False
    return True


@pytest.mark.parametrize("key", sorted(cli.SETTINGS))
@pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
def test_config_key_loads_exactly_where_its_subcommand_has_the_flag(
        command, key, tmp_path, capsys, monkeypatch):
    typ, value = cli.SETTINGS[key][0], _sample(key)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# {command}\n{key}={value}\n")
    if _has_flag(command, key, capsys):
        args = cli.build_parser().parse_args(_head(command) + ["--config", str(cfg)])
        cli._merge_config(args)
        assert getattr(args, key) == typ(value)
        return

    def no_data(args):
        raise AssertionError("read the data before checking the config")

    monkeypatch.setattr(cli, "_load_or_generate", no_data)
    out = tmp_path / "D"
    argv = _head(command) + ["--config", str(cfg), "--synth-cases", "4"]
    if command != "evaluate":
        argv += ["--out-dir", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: unknown config key {key!r}\n"
    assert not out.exists()


def test_each_subcommand_takes_exactly_the_settings_it_reads(capsys):
    # evaluate scores the whole dataset and writes no files, so it has no
    # --test-fraction, --split-seed or --out-dir; a sweep's cells come from
    # --matrix and --families (no --family, --attention or --fraction), and
    # its seeds from --base-seed
    takes = {command: {key for key in cli.SETTINGS if _has_flag(command, key, capsys)}
             for command in ("train", "evaluate", "sweep")}
    data = {"dataset", "task", "synth_cases", "synth_samples_per_case", "synth_seed",
            "synth_difficulty", "synth_prevalence", "dtype"}
    assert takes["evaluate"] == data
    assert set(cli.SETTINGS) - takes["train"] == {"matrix", "seeds", "base_seed",
                                                  "workers"}
    assert set(cli.SETTINGS) - takes["sweep"] == {"family", "attention", "fraction",
                                                  "seed"}


@pytest.mark.parametrize("command,text,where", [
    ("sweep", "seed=5\n", "1: unknown config key 'seed'"),   # seeds come from base_seed
    ("train", "epochs=1\nseeds=9\nbase_seed=4\n", "2: unknown config key 'seeds'"),
])
def test_config_key_of_another_subcommand_exits_2(command, text, where, tmp_path, capsys):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text(text)
    out = tmp_path / "D"
    argv = _train_args(out) if command == "train" else _sweep_args(out, ["--list-only"])
    assert cli.main(argv + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:{where}\n"
    assert not out.exists()


def test_config_key_given_twice_exits_2_naming_both_lines(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("epochs=1\n# again\nepochs=2\n")
    out = tmp_path / "D"
    assert cli.main(_sweep_args(out, ["--list-only", "--config", str(cfg)])) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}:3: config key 'epochs' is already set on line 1\n")
    assert not out.exists()


def test_train_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("momentum=0.9\n")
    assert cli.main(_train_args(tmp_path / "x", ["--config", str(cfg)])) == 2
    assert "unknown config key 'momentum'" in capsys.readouterr().err


def test_train_config_file_that_does_not_decode_exits_2_naming_it(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"\xffepochs=1\n")
    out = tmp_path / "x"
    assert cli.main(_train_args(out, ["--config", str(cfg)])) == 2
    err = capsys.readouterr().err
    # a UTF-8 locale cannot decode the file; a single-byte one reads a bad key
    assert err.startswith("error: ") and str(cfg) in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
def test_commands_leave_the_default_dtype_as_they_found_it(
        command, dtype, trained, tmp_path, capsys, restore_default_dtype):
    # start from the other dtype, so that a leaked --dtype would show
    before = np.float64 if dtype == "float32" else np.float32
    T.set_default_dtype(before)
    args = {"train": _train_args(tmp_path, ["--epochs", "1"]),
            "evaluate": ["evaluate", "--weights", str(trained / "weights.npz")]
                        + TINY_DATA_FLAGS,
            "sweep": _sweep_args(tmp_path, ["--seeds", "1"])}[command]
    assert cli.main(args + ["--dtype", dtype]) == 0
    assert T.default_dtype() is before
    if command == "train":   # the command itself ran in --dtype
        with np.load(tmp_path / "weights.npz") as weights:
            assert weights["head_out.weight"].dtype == dtype


def test_train_rejects_bad_dtype(tmp_path):
    assert cli.main(_train_args(tmp_path / "x", ["--dtype", "float16"])) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_abort_exits_3(tmp_path):
    out = tmp_path / "explode"
    rc = cli.main(_train_args(out, ["--lr0", "1e30"]))
    assert rc == 3
    summary = json.loads((out / "run.json").read_text())
    assert summary["aborted"] and "non-finite" in summary["abort_reason"]


@pytest.mark.parametrize("lr0", ["nan", "inf", "0", "-0.001"])
def test_train_rejects_lr0_that_is_not_finite_and_positive(lr0, tmp_path, capsys):
    out = tmp_path / "x"
    assert cli.main(_train_args(out, ["--lr0", lr0])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lr0 must be finite and positive") and err.count("\n") == 1
    assert not (out / "run.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_with_nonfinite_test_scores_aborts_and_exits_3(tmp_path, capsys):
    # one huge Adam step leaves the loss of epoch 1 finite but the scores not
    out = tmp_path / "run"
    rc = cli.main(["train", "--family", "resnet", "--level", "1"] + TINY_DATA_FLAGS
                  + ["--epochs", "1", "--lr0", "1e30", "--out-dir", str(out)])
    assert rc == 3
    assert capsys.readouterr().out.startswith("auroc=nan epochs=0 aborted=True")
    summary = json.loads((out / "run.json").read_text())
    assert summary["abort_reason"] == "non-finite test score at epoch 1"
    assert (out / "history.jsonl").read_text() == ""


def test_evaluate_trained_weights(trained, capsys):
    args = (["evaluate", "--weights", str(trained / "weights.npz")]
            + TINY_DATA_FLAGS + ["--task", "cls"])
    assert cli.main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["n"] == 20 and 0.0 <= first["auroc"] <= 1.0
    assert cli.main(args) == 0
    assert json.loads(capsys.readouterr().out) == first


def test_train_and_evaluate_a_regression_model(tmp_path, capsys):
    out = tmp_path / "reg"
    args = (["train"] + TINY_MSA_FLAGS + TINY_DATA_FLAGS
            + ["--task", "reg", "--epochs", "1", "--out-dir", str(out)])
    assert cli.main(args) == 0
    summary = json.loads((out / "run.json").read_text())
    assert summary["task"] == "regression" and summary["metric_name"] == "mape"
    assert summary["loss"] == "rmse" and summary["optimizer"] == "adam"
    capsys.readouterr()
    assert cli.main(["evaluate", "--weights", str(out / "weights.npz")]
                    + TINY_DATA_FLAGS + ["--task", "reg"]) == 0
    scores = json.loads(capsys.readouterr().out)
    assert sorted(scores) == ["mape", "n"] and scores["n"] == 20
    assert np.isfinite(scores["mape"]) and scores["mape"] >= 0.0


def test_evaluate_task_mismatch_exits_2(trained):
    args = (["evaluate", "--weights", str(trained / "weights.npz")]
            + TINY_DATA_FLAGS + ["--task", "reg"])
    assert cli.main(args) == 2


def test_evaluate_missing_weights(tmp_path):
    assert cli.main(["evaluate", "--weights", str(tmp_path / "no.npz"),
                     "--synth-cases", "2"]) == 2


def _broken_weights(trained, tmp_path, kind):
    path = tmp_path / f"{kind}.npz"
    raw = {"not_a_zip": b"PK\x03\x04 truncated", "empty": b""}
    if kind in raw:
        path.write_bytes(raw[kind])
        return path
    if kind == "npy_array":   # what np.save writes: one array, no archive
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
        return path
    with np.load(trained / "weights.npz") as zf:
        arrays = {k: zf[k] for k in zf.files}
    meta = json.loads(str(arrays["__meta__"]))
    if kind == "no_meta":
        del arrays["__meta__"]
    elif kind == "meta_short_msa":   # valid JSON of the wrong shape
        meta["config"]["msa"] = [32, 4]
        arrays["__meta__"] = np.array(json.dumps(meta))
    elif kind == "meta_list":
        arrays["__meta__"] = np.array(json.dumps([meta]))
    else:  # arrays that do not fit the config they carry
        del arrays[next(k for k in arrays if not k.startswith("__"))]
    np.savez(path, **arrays)
    return path


@pytest.mark.parametrize("kind", ["not_a_zip", "no_meta", "arrays_off_config",
                                  "empty", "npy_array", "meta_short_msa", "meta_list"])
def test_evaluate_broken_weights_exits_2_with_one_line(kind, trained, tmp_path, capsys):
    path = _broken_weights(trained, tmp_path, kind)
    args = ["evaluate", "--weights", str(path)] + TINY_DATA_FLAGS + ["--task", "cls"]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not a weights file written by train: ")
    assert err.count("\n") == 1


def test_train_missing_dataset_exits_2(tmp_path, capsys):
    missing = tmp_path / "no.psd1"
    args = ["train", "--dataset", str(missing), "--out-dir", str(tmp_path / "x")]
    assert cli.main(args) == 2
    assert f"cannot read dataset {missing}" in capsys.readouterr().err


def test_evaluate_missing_dataset_exits_2(trained, tmp_path, capsys):
    missing = tmp_path / "no.psd1"
    assert cli.main(["evaluate", "--weights", str(trained / "weights.npz"),
                     "--dataset", str(missing)]) == 2
    assert f"cannot read dataset {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["train", "--synth-cases", "2"],
                                     ["count-params", "--family", "resnet"]])
def test_fraction_outside_supported_set_exits_2(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--fraction", "25"])
    assert exc.value.code == 2
    assert "invalid choice: 25" in capsys.readouterr().err


# ---------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------

def test_sweep_list_only_matrices(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--matrix", "paper13", "--list-only",
                     "--out-dir", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "total: 22" and len(lines) == 23
    assert not out.exists()   # listing writes nothing

    assert cli.main(["sweep", "--matrix", "msa-grid", "--list-only"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "total: 108"
    assert sum("invalid:" in l for l in lines) == 27


def test_sweep_family_filter(capsys):
    assert cli.main(["sweep", "--matrix", "paper13", "--list-only",
                     "--families", "msa_only"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "total: 1" and lines[0].startswith("msa_only,msa")
    capsys.readouterr()
    for families, unknown in [("densenet", "['densenet']"), ("", "['']"),
                              ("resnet,", "['']")]:
        assert cli.main(["sweep", "--matrix", "paper13", "--list-only",
                         "--families", families]) == 2
        assert capsys.readouterr().err == f"error: unknown families: {unknown}\n"


def test_sweep_level_sets_only_the_kept_cnn_families(capsys):
    # VGG stops at level 5, but --families drops it
    assert cli.main(["sweep", "--matrix", "paper13", "--families", "resnet",
                     "--level", "8", "--list-only"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "total: 7"
    assert all(l.startswith("resnet,") and l.split(",")[3] == "8" for l in lines[:-1])


def test_sweep_max_entries_truncates_the_matrix(capsys):
    assert cli.main(["sweep", "--matrix", "paper13", "--list-only",
                     "--max-entries", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4 and lines[-1] == "total: 3"
    assert all(l.endswith(",ok") for l in lines[:3])


def test_sweep_help_prints_the_workers_default(capsys):
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--help"])
    assert "[config key: workers, default: 1]" in " ".join(capsys.readouterr().out.split())


def _sweep_args(out_dir, extra=(), data=TINY_DATA_FLAGS):
    return (["sweep", "--matrix", "paper13", "--families", "msa_only"]
            + TINY_MSA_FLAGS[4:]  # the filter fixes family and attention
            + data
            + ["--epochs", "1", "--seeds", "2", "--out-dir", str(out_dir)]
            + list(extra))


def test_sweep_report_is_byte_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(_sweep_args(a)) == 0
    assert cli.main(_sweep_args(b)) == 0
    capsys.readouterr()
    report = (a / "report.csv").read_text()
    assert report == (b / "report.csv").read_text()
    lines = report.splitlines()
    assert lines[0] == ("family,attention,fraction,level,seed_count,"
                        "metric_mean,metric_std,conv_time_mean_s,aborted")
    assert len(lines) == 2 and lines[1].split(",")[4] == "2"
    runs = [json.loads(l) for l in (a / "runs.jsonl").read_text().splitlines()]
    assert len(runs) == 2 and {r["seed"] for r in runs} == {0, 1}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_aborted_runs_exit_3(tmp_path, capsys):
    out = tmp_path / "boom"
    # the huge step only explodes the loss seen by the *next* epoch
    rc = cli.main(_sweep_args(out, ["--lr0", "1e30", "--epochs", "2"]))
    assert rc == 3
    capsys.readouterr()
    assert (out / "report.csv").read_text().splitlines()[1].endswith(",2")


@pytest.mark.parametrize("flag,value", [("--seeds", "0"), ("--seeds", "-2"),
                                        ("--max-entries", "-1"),
                                        ("--max-entries", "0")])
def test_sweep_rejects_counts_below_one(flag, value, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert cli.main(_sweep_args(out, [flag, value])) == 2
    err = capsys.readouterr().err
    assert err == f"error: {flag} must be at least 1, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("source,value", [("--workers", "0"), ("--workers", "-3"),
                                          ("--workers", "2"), ("config", "2")])
def test_sweep_rejects_workers_other_than_one(source, value, tmp_path, capsys):
    # the missing --dataset shows that the check comes before any data is read
    out = tmp_path / "sweep"
    extra = ["--dataset", str(tmp_path / "absent.psd1")]
    if source == "config":
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"workers={value}\n")
        extra += ["--config", str(cfg)]
    else:
        extra += [source, value]
    assert cli.main(_sweep_args(out, extra)) == 2
    err = capsys.readouterr().err
    assert err == f"error: --workers must be 1, got {value}: {cli.ONE_PROCESS}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_unwritable_out_dir_exits_2_with_one_line(command, tmp_path, capsys, monkeypatch):
    # the directory is made before any training, not after all of it
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the output directory was made")

    monkeypatch.setattr(cli.hz, "train", no_training)
    monkeypatch.setattr(cli.hz, "run_sweep", no_training)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    args = (_train_args(out, ["--epochs", "1"]) if command == "train"
            else _sweep_args(out, ["--seeds", "1"]))
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["train", "--epochs", "1", "--test-fraction", "0"],
    ["train", "--epochs", "1", "--synth-difficulty", "0"],
    ["sweep", "--seeds", "1", "--synth-prevalence", "1.5"],
    ["train", "--epochs", "1", "--split-seed", "-1"],
    ["sweep", "--seeds", "1", "--synth-seed", "-1"],
])
def test_rejected_data_flag_exits_2_and_leaves_no_out_dir(argv, tmp_path, capsys):
    out = tmp_path / "D"
    assert cli.main(argv + ["--synth-cases", "10", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if "--split-seed" in argv:
        assert err == "error: split seed must be >= 0, got -1\n"
    if "--synth-seed" in argv:
        assert err == "error: generator seed must be >= 0, got -1\n"
    assert not out.exists()   # the data is read and checked before the directory is made


def test_sweep_rejects_unknown_matrix(tmp_path):
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--matrix", "full", "--synth-cases", "2",
                     "--out-dir", str(out)]) == 2
    assert not out.exists()   # rejected before the output directory is made


@pytest.mark.parametrize("argv", [
    ["train", "--epochs", "1", "--level", "99"],
    ["train", "--epochs", "1", "--family", "msa_only", "--attention", "none"],
    ["train", "--epochs", "1", "--batch-size", "0"],
    ["train", "--epochs", "1", "--lr0", "0"],
    ["train", "--epochs", "-1"],
    ["sweep", "--seeds", "1", "--level", "99"],
    ["sweep", "--seeds", "1", "--lr0", "-1"],
    ["train", "--epochs", "1", "--seed", "-1"],
    ["sweep", "--seeds", "1", "--base-seed", "-2"],
])
def test_bad_config_or_spec_exits_2_before_any_data_or_directory(argv, tmp_path,
                                                                 capsys, monkeypatch):
    def no_data(args):
        raise AssertionError("read the data before checking the config")

    monkeypatch.setattr(cli, "_bundle", no_data)
    out = tmp_path / "D"
    assert cli.main(argv + ["--synth-cases", "4", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if "--seed" in argv or "--base-seed" in argv:
        assert err == f"error: training seed must be >= 0, got {argv[-1]}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,key,why", [
    (["train", "--family", "resnet", "--epochs", "1"], "msa_d_model", "by family resnet"),
    (["train", "--family", "vgg", "--level", "1", "--epochs", "1"], "msa_layers",
     "by family vgg"),
    (["sweep", "--matrix", "msa-grid"], "level",
     "by --matrix msa-grid, which fixes its own cells"),
    (["sweep", "--matrix", "msa-grid"], "msa_heads",
     "by --matrix msa-grid, which fixes its own cells"),
    (["sweep", "--families", "msa_only"], "level", "when --families keeps no CNN family"),
    (["sweep", "--families", "resnet,vgg"], "msa_ff", "when --families drops msa_only"),
], ids=["train-resnet", "train-vgg", "msa-grid-level", "msa-grid-msa",
        "msa_only-level", "cnn-msa"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_setting_that_no_run_reads_exits_2_naming_it(argv, key, why, source, tmp_path,
                                                     capsys, monkeypatch):
    # an allowed value and one that is not (msa_d_model=9, msa_heads=7) alike
    def no_data(args):
        raise AssertionError("read the data before checking the config")

    monkeypatch.setattr(cli, "_load_or_generate", no_data)
    value = {"msa_d_model": "9", "msa_heads": "7"}.get(key, "2")
    flag = "--" + key.replace("_", "-")
    if source == "flag":
        argv = argv + [flag, value]
    else:
        cfg = tmp_path / "unread.cfg"
        cfg.write_text(f"{key}={value}\n")
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "D"
    assert cli.main(argv + ["--synth-cases", "4", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {flag} is not read {why}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,key,value", [
    (["train", "--epochs", "1"], "synth_cases", "50"),
    (["train", "--epochs", "1"], "synth_seed", "9"),
    (["evaluate", "--weights", "w.npz"], "synth_difficulty", "0.3"),
    (["sweep", "--list-only"], "synth_cases", "3"),
    (["sweep", "--seeds", "1"], "synth_prevalence", "0.5"),
], ids=["train-cases", "train-seed", "evaluate", "sweep-list-only", "sweep"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_synth_setting_given_with_a_dataset_exits_2_naming_it(argv, key, value, source,
                                                              tmp_path, capsys,
                                                              monkeypatch):
    def no_data(args):
        raise AssertionError("read the data before checking the config")

    monkeypatch.setattr(cli, "_load_or_generate", no_data)
    flag = "--" + key.replace("_", "-")
    data = tmp_path / "absent.psd1"
    if source == "flag":
        argv = argv + ["--dataset", str(data), flag, value]
    else:
        cfg = tmp_path / "data.cfg"
        cfg.write_text(f"dataset={data}\n{key}={value}\n")
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "D"
    if argv[0] != "evaluate":
        argv += ["--out-dir", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {flag} is not read with --dataset, which holds the data\n")
    assert not out.exists()


@pytest.mark.parametrize("list_only", [False, True])
def test_sweep_families_filter_that_keeps_no_row_exits_2(list_only, tmp_path, capsys,
                                                         monkeypatch):
    def no_data(args):
        raise AssertionError("read the data before checking the filter")

    monkeypatch.setattr(cli, "_load_or_generate", no_data)
    out = tmp_path / "D"
    argv = ["sweep", "--matrix", "msa-grid", "--families", "vgg", "--synth-cases", "4",
            "--epochs", "1", "--seeds", "1", "--out-dir", str(out)]
    assert cli.main(argv + (["--list-only"] if list_only else [])) == 2
    assert capsys.readouterr() == (
        "", "error: --families vgg keeps no row of --matrix msa-grid\n")
    assert not out.exists()


def test_sweep_has_no_training_seed_flag(capsys):
    # a sweep's seeds are --base-seed + 0..n-1
    with pytest.raises(SystemExit) as exit_:
        cli.main(["sweep", "--seed", "1", "--list-only"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
