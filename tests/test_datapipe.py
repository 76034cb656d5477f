"""Task rules, synthetic generation, splitting, and the PSD1 container."""

import struct

import numpy as np
import pytest

from physiobench import datapipe as dp


def _clean_segment():
    ecg = np.zeros(dp.SEGMENT_LEN)
    ppg = np.full(dp.SEGMENT_LEN, 0.5)
    return ecg, ppg


def _brute_auroc(labels, scores):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (greater + 0.5 * ties) / (pos.size * neg.size)


# ---------------------------------------------------------------------
# validity filter
# ---------------------------------------------------------------------

def test_filter_keeps_clean_segment():
    d = dp.filter_segment(*_clean_segment())
    assert d.keep and d.channel is None and d.reason is None


def test_filter_ecg_bounds_inclusive():
    ecg, ppg = _clean_segment()
    ecg[7] = 4.5
    ecg[3] = -2.0
    assert dp.filter_segment(ecg, ppg).keep
    ecg[7] = 4.5 + 1e-6
    d = dp.filter_segment(ecg, ppg)
    assert not d.keep and d.channel == "ecg" and d.index == 7
    assert d.reason == "ecg[7] out of range"
    ecg[7] = 0.0
    ecg[3] = -2.0 - 1e-6
    d = dp.filter_segment(ecg, ppg)
    assert not d.keep and d.channel == "ecg" and d.index == 3


def test_filter_ppg_strictly_positive():
    ecg, ppg = _clean_segment()
    ppg[:] = 1e-9
    assert dp.filter_segment(ecg, ppg).keep
    ppg[11] = 0.0
    d = dp.filter_segment(ecg, ppg)
    assert not d.keep and d.channel == "ppg" and d.index == 11


def test_filter_reports_first_offender_and_checks_ecg_first():
    ecg, ppg = _clean_segment()
    ecg[100] = 9.0
    ecg[40] = 9.0
    ppg[0] = -1.0
    d = dp.filter_segment(ecg, ppg)
    assert (d.channel, d.index) == ("ecg", 40)


def test_filter_rejects_wrong_length():
    with pytest.raises(ValueError, match="2000"):
        dp.filter_segment(np.zeros(100), np.ones(100))


# ---------------------------------------------------------------------
# hypotension labeling
# ---------------------------------------------------------------------

def test_hypotension_needs_strictly_more_than_60s():
    t = dp.MapTrace([0.0, 60.0, 400.0], [60.0, 80.0, 80.0])
    assert dp.label_hypotension(t, 0.0) == 0
    t = dp.MapTrace([0.0, 61.0, 400.0], [60.0, 80.0, 80.0])
    assert dp.label_hypotension(t, 0.0) == 1


def test_hypotension_threshold_at_or_below_65():
    at = dp.MapTrace([0.0, 61.0, 400.0], [65.0, 80.0, 80.0])
    above = dp.MapTrace([0.0, 61.0, 400.0], [65.1, 80.0, 80.0])
    assert dp.label_hypotension(at, 0.0) == 1
    assert dp.label_hypotension(above, 0.0) == 0


def test_hypotension_runs_must_be_contiguous():
    # 40 s low, recovery, 40 s low: neither run crosses 60 s
    t = dp.MapTrace([0.0, 40.0, 50.0, 90.0, 400.0],
                    [60.0, 80.0, 60.0, 80.0, 80.0])
    assert dp.label_hypotension(t, 0.0) == 0


def test_hypotension_merges_adjacent_low_intervals():
    # 35 s + 35 s of low values across a timestamp boundary
    t = dp.MapTrace([0.0, 35.0, 70.0, 400.0], [64.0, 63.0, 80.0, 80.0])
    assert dp.label_hypotension(t, 0.0) == 1


def test_hypotension_clips_run_to_horizon_start():
    low_before = dp.MapTrace([0.0, 130.0, 500.0], [60.0, 80.0, 80.0])
    assert dp.label_hypotension(low_before, 100.0) == 0  # only 30 s inside
    low_longer = dp.MapTrace([0.0, 190.0, 500.0], [60.0, 80.0, 80.0])
    assert dp.label_hypotension(low_longer, 100.0) == 1  # 90 s inside


def test_hypotension_clips_run_to_horizon_end():
    t = dp.MapTrace([100.0, 350.0, 500.0], [80.0, 60.0, 60.0])
    assert dp.label_hypotension(t, 100.0) == 0  # 50 s of the run lies inside
    t = dp.MapTrace([100.0, 330.0, 500.0], [80.0, 60.0, 60.0])
    assert dp.label_hypotension(t, 100.0) == 1  # 70 s inside


def test_hypotension_last_value_persists():
    t = dp.MapTrace([0.0, 10.0, 300.0], [80.0, 60.0, 60.0])
    assert dp.label_hypotension(t, 0.0) == 1


def test_hypotension_requires_horizon_coverage():
    with pytest.raises(ValueError, match="horizon"):
        dp.label_hypotension(dp.MapTrace([10.0, 400.0], [60.0, 60.0]), 0.0)
    with pytest.raises(ValueError, match="horizon"):
        dp.label_hypotension(dp.MapTrace([0.0, 299.0], [60.0, 60.0]), 0.0)


def test_map_trace_validation():
    with pytest.raises(ValueError):
        dp.MapTrace([0.0, 0.0], [60.0, 60.0])
    with pytest.raises(ValueError):
        dp.MapTrace([0.0, 1.0], [60.0])
    with pytest.raises(ValueError):
        dp.MapTrace([], [])


# ---------------------------------------------------------------------
# body surface area and stroke volume index
# ---------------------------------------------------------------------

def test_bsa_reference_values():
    # standard textbook point: 170 cm / 70 kg
    assert dp.bsa_dubois(170.0, 70.0) == pytest.approx(1.810, abs=2e-3)


def test_bsa_rejects_nonpositive():
    with pytest.raises(ValueError):
        dp.bsa_dubois(0.0, 70.0)
    with pytest.raises(ValueError):
        dp.bsa_dubois(170.0, -1.0)


def test_svi_happy_path():
    p = dp.HemoPoint(co=5.0, hr=60.0, height=170.0, weight=70.0)
    r = dp.compute_svi(p)
    assert r.kept
    assert r.sv_ml == pytest.approx(5000.0 / 60.0)
    assert r.svi == pytest.approx(r.sv_ml / dp.bsa_dubois(170.0, 70.0))
    assert r.reason is None


def test_svi_bounds_inclusive():
    keep_low = dp.compute_svi(dp.HemoPoint(1.2, 60.0, 170.0, 70.0))    # 20 mL
    keep_high = dp.compute_svi(dp.HemoPoint(12.0, 60.0, 170.0, 70.0))  # 200 mL
    assert keep_low.kept and keep_low.sv_ml == pytest.approx(20.0)
    assert keep_high.kept and keep_high.sv_ml == pytest.approx(200.0)
    drop_low = dp.compute_svi(dp.HemoPoint(1.14, 60.0, 170.0, 70.0))   # 19 mL
    drop_high = dp.compute_svi(dp.HemoPoint(12.6, 60.0, 170.0, 70.0))  # 210 mL
    assert not drop_low.kept and drop_low.svi is None
    assert "19.00" in drop_low.reason and "[20, 200]" in drop_low.reason
    assert not drop_high.kept


def test_hemo_point_validation():
    with pytest.raises(ValueError):
        dp.HemoPoint(0.0, 60.0, 170.0, 70.0)
    with pytest.raises(ValueError):
        dp.HemoPoint(5.0, -1.0, 170.0, 70.0)


# ---------------------------------------------------------------------
# demographics standardization
# ---------------------------------------------------------------------

def test_demo_stats_passthrough_sex_and_guard_constants():
    demo = np.array([[30.0, 1.0, 160.0, 70.0],
                     [50.0, 0.0, 180.0, 70.0],
                     [40.0, 1.0, 170.0, 70.0]])
    mean, std = dp.demo_stats(demo)
    assert mean[1] == 0.0 and std[1] == 1.0          # sex untouched
    assert std[3] == 1.0                             # constant weight guarded
    z = dp.apply_demo_stats(demo, mean, std)
    assert z[:, 0].mean() == pytest.approx(0.0, abs=1e-12)
    assert z[:, 0].std() == pytest.approx(1.0)
    assert np.array_equal(z[:, 1], demo[:, 1])


def test_apply_demo_stats_preserves_dtype():
    demo = np.ones((4, 4), dtype=np.float32)
    mean, std = dp.demo_stats(demo)
    assert dp.apply_demo_stats(demo, mean, std).dtype == np.float32


# ---------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------

def test_generate_is_deterministic():
    a = dp.generate_synthetic(6, 3, "classification", seed=9, prevalence=0.3)
    b = dp.generate_synthetic(6, 3, "classification", seed=9, prevalence=0.3)
    c = dp.generate_synthetic(6, 3, "classification", seed=10, prevalence=0.3)
    assert a.equals(b)
    assert not a.equals(c)


@pytest.mark.parametrize("task", dp.TASKS)
@pytest.mark.parametrize("difficulty", [1.0, 0.3])
def test_generated_segments_pass_the_filter(task, difficulty):
    ds = dp.generate_synthetic(8, 2, task, seed=4, difficulty=difficulty)
    assert len(ds) == 16
    for r in ds.records:
        assert r.ecg.dtype == np.float32 and r.ecg.shape == (dp.SEGMENT_LEN,)
        assert dp.filter_segment(r.ecg, r.ppg).keep


def test_generated_classification_metadata():
    ds = dp.generate_synthetic(10, 4, "classification", seed=2, prevalence=0.4)
    labels = np.array([r.label for r in ds.records])
    assert set(labels) <= {0.0, 1.0}
    assert float(ds.meta["prevalence_realized"]) == labels.mean()
    assert ds.meta["task"] == "classification"
    assert ds.case_ids() == list(range(10))


def test_generated_prevalence_tracks_request():
    ds = dp.generate_synthetic(600, 2, "classification", seed=0, prevalence=0.3)
    labels = np.array([r.label for r in ds.records])
    assert abs(labels.mean() - 0.3) < 0.04


def test_generated_regression_targets_in_physiological_band():
    ds = dp.generate_synthetic(20, 2, "regression", seed=5)
    for r in ds.records:
        assert 15.0 < r.label < 110.0


def planted_statistic(ppg: np.ndarray) -> float:
    """Late-minus-early mean of the PPG channel (5-s windows): strongly
    negative for positives, whose pulse amplitude is planted to decline."""
    ppg = np.asarray(ppg, dtype=np.float64)
    w = 5 * dp.SAMPLE_RATE
    return float(ppg[-w:].mean() - ppg[:w].mean())


def test_planted_statistic_is_a_strong_oracle():
    ds = dp.generate_synthetic(60, 3, "classification", seed=8, prevalence=0.5)
    labels = np.array([r.label for r in ds.records])
    scores = np.array([-planted_statistic(r.ppg) for r in ds.records])
    assert _brute_auroc(labels, scores) >= 0.95


def test_generate_validation():
    with pytest.raises(ValueError):
        dp.generate_synthetic(0, 1, "classification", seed=0)
    with pytest.raises(ValueError):
        dp.generate_synthetic(1, 0, "classification", seed=0)
    with pytest.raises(ValueError):
        dp.generate_synthetic(1, 1, "segmentation", seed=0)
    with pytest.raises(ValueError):
        dp.generate_synthetic(1, 1, "classification", seed=0, difficulty=0.0)
    with pytest.raises(ValueError):
        dp.generate_synthetic(1, 1, "classification", seed=0, difficulty=1.2)
    with pytest.raises(ValueError):
        dp.generate_synthetic(1, 1, "classification", seed=0, prevalence=1.0)


# ---------------------------------------------------------------------
# case-level splitting
# ---------------------------------------------------------------------

def test_split_keeps_cases_disjoint(cls_dataset):
    train, test = dp.split_by_case(cls_dataset, 0.2, seed=0)
    train_ids, test_ids = set(train.case_ids()), set(test.case_ids())
    assert not train_ids & test_ids
    assert train_ids | test_ids == set(cls_dataset.case_ids())
    assert len(train) + len(test) == len(cls_dataset)
    assert len(test_ids) == round(30 * 0.2)
    assert test.meta["split"] == "test" and train.meta["split"] == "train"


def test_split_is_seeded():
    ds = dp.generate_synthetic(12, 1, "classification", seed=1)
    a1, _ = dp.split_by_case(ds, 0.25, seed=3)
    a2, _ = dp.split_by_case(ds, 0.25, seed=3)
    b1, _ = dp.split_by_case(ds, 0.25, seed=4)
    assert a1.case_ids() == a2.case_ids()
    assert a1.case_ids() != b1.case_ids()


def test_split_clamps_to_at_least_one_each_side():
    ds = dp.generate_synthetic(2, 1, "classification", seed=1)
    train, test = dp.split_by_case(ds, 0.01, seed=0)
    assert len(test.case_ids()) == 1
    train, test = dp.split_by_case(ds, 0.99, seed=0)
    assert len(train.case_ids()) == 1


def test_split_validation():
    ds = dp.generate_synthetic(2, 1, "classification", seed=1)
    with pytest.raises(ValueError):
        dp.split_by_case(ds, 0.0)
    with pytest.raises(ValueError):
        dp.split_by_case(ds, 1.0)
    one_case = dp.SignalDataset("classification",
                                [r for r in ds.records if r.case_id == 0])
    with pytest.raises(ValueError, match="2 cases"):
        dp.split_by_case(one_case, 0.5)


# ---------------------------------------------------------------------
# dataset container
# ---------------------------------------------------------------------

def test_arrays_layout(cls_dataset):
    x, demo, y = cls_dataset.arrays()
    n = len(cls_dataset)
    assert x.shape == (n, 2, dp.SEGMENT_LEN) and x.dtype == np.float32
    assert demo.shape == (n, 4) and y.shape == (n,)
    r = cls_dataset.records[5]
    assert np.array_equal(x[5, 0], r.ecg) and np.array_equal(x[5, 1], r.ppg)
    assert np.array_equal(demo[5], r.demographics())
    assert y[5] == r.label


def test_dataset_rejects_bad_task():
    with pytest.raises(ValueError):
        dp.SignalDataset("styling", [])


@pytest.mark.parametrize("task", dp.TASKS)
def test_container_round_trip(task):
    ds = dp.generate_synthetic(5, 2, task, seed=3)
    back = dp.decode_dataset(dp.encode_dataset(ds))
    assert back.equals(ds)
    assert back.task == task


def test_container_round_trip_empty():
    ds = dp.SignalDataset("regression", [])
    assert len(dp.decode_dataset(dp.encode_dataset(ds))) == 0


def test_container_bad_magic():
    blob = bytearray(dp.encode_dataset(dp.generate_synthetic(1, 1, "classification", 0)))
    blob[0] ^= 0xFF
    with pytest.raises(dp.BadMagicError):
        dp.decode_dataset(bytes(blob))


def test_container_unsupported_version():
    blob = bytearray(dp.encode_dataset(dp.generate_synthetic(1, 1, "classification", 0)))
    blob[4:6] = struct.pack("<H", 99)
    with pytest.raises(dp.UnsupportedVersionError):
        dp.decode_dataset(bytes(blob))


def test_container_truncation():
    blob = dp.encode_dataset(dp.generate_synthetic(1, 1, "classification", 0))
    with pytest.raises(dp.TruncatedError):
        dp.decode_dataset(b"")
    with pytest.raises(dp.TruncatedError):
        dp.decode_dataset(blob[:6])
    with pytest.raises(dp.TruncatedError):
        dp.decode_dataset(blob[:-1])


def test_container_format_errors():
    blob = dp.encode_dataset(dp.generate_synthetic(1, 1, "classification", 0))
    with pytest.raises(dp.FormatError, match="trailing"):
        dp.decode_dataset(blob + b"x")
    bad_task = dp._HEADER.pack(dp.MAGIC, dp.FORMAT_VERSION, 9, 0, dp.SEGMENT_LEN, 2)
    with pytest.raises(dp.FormatError, match="task"):
        dp.decode_dataset(bad_task)
    bad_len = dp._HEADER.pack(dp.MAGIC, dp.FORMAT_VERSION, 0, 0, 1000, 2)
    with pytest.raises(dp.FormatError):
        dp.decode_dataset(bad_len)


def test_decode_errors_share_a_base():
    for exc in (dp.BadMagicError, dp.UnsupportedVersionError,
                dp.TruncatedError, dp.FormatError):
        assert issubclass(exc, dp.DecodeError)
        assert issubclass(exc, ValueError)


def test_encode_rejects_malformed_record():
    ds = dp.generate_synthetic(1, 1, "classification", 0)
    ds.records[0].ecg = ds.records[0].ecg[:100]
    with pytest.raises(ValueError, match="segment length"):
        dp.encode_dataset(ds)


# ---------------------------------------------------------------------
# manifest sidecar
# ---------------------------------------------------------------------

def test_manifest_round_trip():
    entries = {"task": "classification", "seed": "7", "note": "a=b=c"}
    text = dp.format_manifest(entries)
    assert text.splitlines() == ["note=a=b=c", "seed=7", "task=classification"]
    assert dp.parse_manifest(text) == entries


def test_manifest_skips_blank_lines_and_rejects_garbage():
    assert dp.parse_manifest("a=1\n\n  \nb=2\n") == {"a": "1", "b": "2"}
    with pytest.raises(ValueError, match="key=value"):
        dp.parse_manifest("just a line\n")
    with pytest.raises(ValueError):
        dp.format_manifest({"bad=key": "v"})
