"""Task rules, synthetic generation, splitting, and the PSD1 container."""

import hashlib
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


# sha256 of the encoded planted-feature-v1 output; any change to the
# generator's values or draw order shows here
GOLDEN_DIGESTS = {
    ("classification", 1.0): "8753d6522c719da4a7708407b662f69f59b0248e443cd782dd5a6f8110edd7b6",
    ("classification", 0.3): "a58574a5f9b460ef7e2513128a1cb06752e0773d2a8d43bde318875ac94ef96a",
    ("regression", 1.0): "ca543f23f3de839fb3fb808003af9e2c2e38d6187ab475cda9158e7fc9f39728",
    ("regression", 0.3): "14a88b13eac2dc8e16500ac26a9c512238ba2ca6503e06e77e56b70957d65686",
}


@pytest.mark.parametrize("task,difficulty", sorted(GOLDEN_DIGESTS))
def test_generated_bytes_match_golden_digest(task, difficulty):
    ds = dp.generate_synthetic(4, 3, task, seed=5, difficulty=difficulty, prevalence=0.5)
    digest = hashlib.sha256(dp.encode_dataset(ds)).hexdigest()
    assert digest == GOLDEN_DIGESTS[task, difficulty]


# sha256 of encode_dataset over a grid of generator settings, taken from the
# field-by-field encoder that the structured-dtype codec replaced
CODEC_DIGESTS = {
    ("classification", 1.0, 0.05, 0): "e48c129a70320c07cb72cd7ca56e8b783c4e513e047f7657ad7c8562f6328b8f",
    ("classification", 1.0, 0.05, 1): "77a1b7d024f2f79e6332db73daf1316c638846b8ef65f440ccaec18e02e4fa40",
    ("classification", 1.0, 0.05, 2): "99878b482e813f970954d4daad4253c29965a7e92d4c40306b4c68deca8e6b29",
    ("classification", 1.0, 0.5, 0): "2d683a30211252d571ad39104c6ad052a84aaed4097dfcf6fc38c9dde9aa324a",
    ("classification", 1.0, 0.5, 1): "d7447dca63020b9b1297c4c9e5dc2eaf607c9435113418efa40ab7e7c76a1a71",
    ("classification", 1.0, 0.5, 2): "57b5657f7deb73b870ce00baddc4a1620bfee2f186c39a1f37e9c84df32f4bf3",
    ("classification", 0.5, 0.05, 0): "877ac491a023583cfb203eaed147a6de8f556bbe450936abb1e16bc590cbb405",
    ("classification", 0.5, 0.05, 1): "3b7b17a1be6080acfd6a2ba83c78130d5bc0a145c9373202594593eac788fb03",
    ("classification", 0.5, 0.05, 2): "4b94ea40324f10cae389aeeb119df6cd34f81a51eacc5df7adee9e52090fbdde",
    ("classification", 0.5, 0.5, 0): "caaddcf880c9129ad3d9835fd2599a08f462a4b05225df33a17aef3eb45e61c2",
    ("classification", 0.5, 0.5, 1): "f07f4c35e29809760d0543a064d8a8e2647814fd5a42cfb483798d48b1cb5ea5",
    ("classification", 0.5, 0.5, 2): "bd4bcd5e5dd969dd9005241998894301231ae02a5b89998dd2329449c0b99dd9",
    ("classification", 0.3, 0.05, 0): "8aa9c0a9c3309bbd5a968efc5bf0c188178d7031552d5d89fd04f9aa189889a3",
    ("classification", 0.3, 0.05, 1): "ceb6fee0a3f2d68f5c75fe1e75d32de5f37cbf1d54f143c0ee2946c25cfeb078",
    ("classification", 0.3, 0.05, 2): "60d09bf606303bdb603614dc049eaa7467e374135bdc0ff8e8d7d957169448d7",
    ("classification", 0.3, 0.5, 0): "0bb0dc0ddcc80f2a594bc0418c8142f4fbe0e047b57ecf0cadce0c6842d44f68",
    ("classification", 0.3, 0.5, 1): "cd9898421ff2e2e3e8d8a4a652b7cadd375ff77944764a2a94aade7ac32daed9",
    ("classification", 0.3, 0.5, 2): "f5bd4184b91eadee0868b34605423ded05c9c286585cae9f0902f3ffd1977ec0",
    ("regression", 1.0, 0.05, 0): "412d5368cafdce0022dd6e5ed7503f3099b4a7add316cf74d2954ebabfc2ebbb",
    ("regression", 1.0, 0.05, 1): "1d399e6f81d3ee7da64eae991818520af6715aee79f6522ac6d58358f8f632ae",
    ("regression", 1.0, 0.05, 2): "4e963dad102b55cbf9bb9b356897a69e94af28f6125ee7f747a0509b0ca2d03c",
    ("regression", 1.0, 0.5, 0): "412d5368cafdce0022dd6e5ed7503f3099b4a7add316cf74d2954ebabfc2ebbb",
    ("regression", 1.0, 0.5, 1): "1d399e6f81d3ee7da64eae991818520af6715aee79f6522ac6d58358f8f632ae",
    ("regression", 1.0, 0.5, 2): "4e963dad102b55cbf9bb9b356897a69e94af28f6125ee7f747a0509b0ca2d03c",
    ("regression", 0.5, 0.05, 0): "f909be149c2e7fde03d4ef53d721ba7c32a6d08986a36dae8bc3f46c1b06ee9c",
    ("regression", 0.5, 0.05, 1): "dde43a5e3723ad91ac4446e3519a35acca387ba7e79ce35063a9e05f170781be",
    ("regression", 0.5, 0.05, 2): "aedd72735c22092e0f25738e39478a3772cf8ec4eb835f06320475f5a87d8457",
    ("regression", 0.5, 0.5, 0): "f909be149c2e7fde03d4ef53d721ba7c32a6d08986a36dae8bc3f46c1b06ee9c",
    ("regression", 0.5, 0.5, 1): "dde43a5e3723ad91ac4446e3519a35acca387ba7e79ce35063a9e05f170781be",
    ("regression", 0.5, 0.5, 2): "aedd72735c22092e0f25738e39478a3772cf8ec4eb835f06320475f5a87d8457",
    ("regression", 0.3, 0.05, 0): "a1ded84c62d376bc743ad5764331428392506253a5c2d33357d523f3c2b2dad4",
    ("regression", 0.3, 0.05, 1): "ff52d6ff84eab9c9adb96b91965f858d1c8b1f4c9a952cc0ca1cead2eb6f56da",
    ("regression", 0.3, 0.05, 2): "28b425f396d8133d522b6f6b017fe0233ad8b45066e94d5f22b943722b8a6a38",
    ("regression", 0.3, 0.5, 0): "a1ded84c62d376bc743ad5764331428392506253a5c2d33357d523f3c2b2dad4",
    ("regression", 0.3, 0.5, 1): "ff52d6ff84eab9c9adb96b91965f858d1c8b1f4c9a952cc0ca1cead2eb6f56da",
    ("regression", 0.3, 0.5, 2): "28b425f396d8133d522b6f6b017fe0233ad8b45066e94d5f22b943722b8a6a38",
}


@pytest.mark.parametrize("task,difficulty,prevalence,seed", sorted(CODEC_DIGESTS))
def test_encoded_bytes_match_codec_digest(task, difficulty, prevalence, seed):
    ds = dp.generate_synthetic(4, 3, task, seed=seed, difficulty=difficulty,
                               prevalence=prevalence)
    blob = dp.encode_dataset(ds)
    assert hashlib.sha256(blob).hexdigest() == CODEC_DIGESTS[task, difficulty,
                                                             prevalence, seed]
    assert dp.encode_dataset(dp.decode_dataset(blob)) == blob


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


def test_decoded_records_have_python_scalars_and_own_waveforms():
    back = dp.decode_dataset(dp.encode_dataset(dp.generate_synthetic(2, 2, "regression", 1)))
    for r in back.records:
        assert type(r.case_id) is int
        for value in (r.age, r.sex, r.height, r.weight, r.label):
            assert type(value) is float
        for wave in (r.ecg, r.ppg):
            assert wave.dtype == np.float32 and wave.shape == (dp.SEGMENT_LEN,)
            assert wave.flags.writeable
    before = [(r.ecg.copy(), r.ppg.copy()) for r in back.records]
    back.records[1].ecg[:] = 7.0
    for i, (r, (ecg, ppg)) in enumerate(zip(back.records, before)):
        np.testing.assert_array_equal(r.ppg, ppg)
        if i != 1:
            np.testing.assert_array_equal(r.ecg, ecg)


def test_decoded_waveforms_do_not_share_the_input_buffer():
    blob = bytearray(dp.encode_dataset(dp.generate_synthetic(1, 2, "classification", 0)))
    back = dp.decode_dataset(blob)
    want = back.records[0].ecg.copy()
    blob[dp._HEADER.size + 4:dp._HEADER.size + 8] = struct.pack("<f", 3.0)
    np.testing.assert_array_equal(back.records[0].ecg, want)


@pytest.mark.parametrize("field,value", [
    ("case_id", -1), ("case_id", 2**32), ("case_id", np.int64(-1)), ("age", 1e39)])
def test_encode_rejects_values_outside_the_record_types(field, value):
    ds = dp.generate_synthetic(2, 1, "classification", 0)
    setattr(ds.records[1], field, value)
    with pytest.raises(ArithmeticError):
        dp.encode_dataset(ds)


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


def test_manifest_rejects_unrepresentable_entries():
    for entries in ({"bad=key": "v"}, {"bad\nkey": "v"}, {"key": "bad\nvalue"}):
        with pytest.raises(ValueError, match="not representable"):
            dp.format_manifest(entries)
