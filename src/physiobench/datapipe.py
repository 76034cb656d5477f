"""Task rules, synthetic waveform generation, and the binary dataset container.

The clinical task logic (segment validity ranges, hypotension labeling over a
mean-arterial-pressure trace, stroke-volume-index computation) is implemented
as pure functions with the boundary conventions stated in each docstring.

The synthetic generator exists so the full training stack runs without any
clinical recordings: it plants a recoverable feature in the PPG channel
(classification: a declining pulse-amplitude trend; regression: the pulse
amplitude and body surface area jointly determine the target), which makes
closed-form oracles possible.  It is a test fixture, not a physiological
model.

Datasets serialize to a little-endian binary container (magic ``PSD1``) with
a plain-text ``key=value`` manifest alongside.  The container is a 19-byte
header (``<4sHBIII``: magic, version, task code, record count, segment
length 2000, channels 2) followed by 16,024-byte records, each a ``<u4`` case
id, the ECG and PPG segments as 2000 ``<f4`` each, then age, sex, height,
weight and label as five ``<f4``.  ``_RECORD`` is that record as one
structured dtype; both codec directions use it.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass, field

import numpy as np

SAMPLE_RATE = 100
SEGMENT_LEN = 2000
SEGMENT_SECONDS = SEGMENT_LEN / SAMPLE_RATE
ECG_MIN_MV = -2.0
ECG_MAX_MV = 4.5
SV_MIN_ML = 20.0
SV_MAX_ML = 200.0
MAP_THRESHOLD_MMHG = 65.0
HYPO_MIN_SECONDS = 60.0
HORIZON_SECONDS = 300.0
TASKS = ("classification", "regression")
DEMO_COLUMNS = ("age", "sex", "height", "weight")


# ---------------------------------------------------------------------
# record / trace types
# ---------------------------------------------------------------------

@dataclass(eq=False)
class SampleRecord:
    """One 20-s two-channel segment with demographics and a task target.

    All numeric fields are stored at float32 precision so container
    round-trips are lossless.
    """

    case_id: int
    ecg: np.ndarray   # [2000] mV
    ppg: np.ndarray   # [2000] unitless, > 0
    age: float
    sex: float        # 0.0 / 1.0
    height: float     # cm
    weight: float     # kg
    label: float      # class {0,1} or SVI (mL/m^2 per beat)

    def demographics(self) -> np.ndarray:
        return np.array([self.age, self.sex, self.height, self.weight],
                        dtype=np.float32)

    def equals(self, other: "SampleRecord") -> bool:
        return (self.case_id == other.case_id
                and np.array_equal(self.ecg, other.ecg)
                and np.array_equal(self.ppg, other.ppg)
                and (self.age, self.sex, self.height, self.weight, self.label)
                == (other.age, other.sex, other.height, other.weight, other.label))


@dataclass
class MapTrace:
    """Step-interpolated mean arterial pressure series: value ``map_values[i]``
    holds on ``[timestamps[i], timestamps[i+1])`` (the last value persists)."""

    timestamps: np.ndarray  # seconds, strictly increasing
    map_values: np.ndarray  # mmHg

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.map_values = np.asarray(self.map_values, dtype=np.float64)
        if self.timestamps.ndim != 1 or self.timestamps.shape != self.map_values.shape:
            raise ValueError("timestamps and map_values must be 1D and equally long")
        if self.timestamps.size == 0:
            raise ValueError("empty trace")
        if np.any(np.diff(self.timestamps) <= 0):
            raise ValueError("timestamps must be strictly increasing")


@dataclass(frozen=True)
class HemoPoint:
    co: float      # cardiac output, L/min
    hr: float      # beats/min
    height: float  # cm
    weight: float  # kg

    def __post_init__(self):
        if self.co <= 0:
            raise ValueError(f"cardiac output must be positive, got {self.co}")
        if self.hr <= 0:
            raise ValueError(f"heart rate must be positive, got {self.hr}")


@dataclass
class SignalDataset:
    task: str
    records: list[SampleRecord]
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")

    def __len__(self) -> int:
        return len(self.records)

    def case_ids(self) -> list[int]:
        return sorted({r.case_id for r in self.records})

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(waveforms [N,2,2000] f32, demographics [N,4] f32, targets [N] f32)."""
        n = len(self.records)
        x = np.empty((n, 2, SEGMENT_LEN), dtype=np.float32)
        demo = np.empty((n, 4), dtype=np.float32)
        y = np.empty(n, dtype=np.float32)
        for i, r in enumerate(self.records):
            x[i, 0] = r.ecg
            x[i, 1] = r.ppg
            demo[i] = r.demographics()
            y[i] = r.label
        return x, demo, y

    def equals(self, other: "SignalDataset") -> bool:
        return (self.task == other.task and len(self) == len(other)
                and all(a.equals(b) for a, b in zip(self.records, other.records)))


# ---------------------------------------------------------------------
# task rules
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class FilterDecision:
    keep: bool
    channel: str | None = None   # "ecg" | "ppg" on drop
    index: int | None = None     # first offending sample

    @property
    def reason(self) -> str | None:
        if self.keep:
            return None
        return f"{self.channel}[{self.index}] out of range"


def filter_segment(ecg: np.ndarray, ppg: np.ndarray) -> FilterDecision:
    """Keep a segment only if every ECG sample lies in [-2, 4.5] mV and every
    PPG sample is strictly positive.  Wrong lengths are an error, not a drop.
    """
    ecg = np.asarray(ecg, dtype=np.float64)
    ppg = np.asarray(ppg, dtype=np.float64)
    if ecg.shape != (SEGMENT_LEN,) or ppg.shape != (SEGMENT_LEN,):
        raise ValueError(
            f"segments must be exactly {SEGMENT_LEN} samples, "
            f"got ecg {ecg.shape} and ppg {ppg.shape}")
    bad_ecg = (ecg < ECG_MIN_MV) | (ecg > ECG_MAX_MV)
    if bad_ecg.any():
        return FilterDecision(False, "ecg", int(np.argmax(bad_ecg)))
    bad_ppg = ppg <= 0.0
    if bad_ppg.any():
        return FilterDecision(False, "ppg", int(np.argmax(bad_ppg)))
    return FilterDecision(True)


def label_hypotension(trace: MapTrace, segment_end: float) -> int:
    """1 iff MAP stays at or below 65 mmHg for strictly more than 60
    contiguous seconds somewhere inside the 5 minutes after ``segment_end``.

    The trace must reach the whole horizon: first timestamp at or before
    ``segment_end``, last at or after ``segment_end + 300``.
    """
    ts, vals = trace.timestamps, trace.map_values
    start, end = float(segment_end), float(segment_end) + HORIZON_SECONDS
    if ts[0] > start or ts[-1] < end:
        raise ValueError(
            f"trace [{ts[0]}, {ts[-1]}] does not cover horizon [{start}, {end}]")
    run = 0.0
    longest = 0.0
    for i in range(ts.size):
        seg_lo = max(float(ts[i]), start)
        seg_hi = min(float(ts[i + 1]) if i + 1 < ts.size else end, end)
        if seg_hi <= seg_lo:
            continue
        if vals[i] <= MAP_THRESHOLD_MMHG:
            run += seg_hi - seg_lo
            longest = max(longest, run)
        else:
            run = 0.0
    return 1 if longest > HYPO_MIN_SECONDS else 0


def bsa_dubois(height_cm: float, weight_kg: float) -> float:
    """Du Bois body surface area, m^2."""
    if height_cm <= 0 or weight_kg <= 0:
        raise ValueError("height and weight must be positive")
    return 0.007184 * weight_kg ** 0.425 * height_cm ** 0.725


@dataclass(frozen=True)
class SviResult:
    kept: bool
    sv_ml: float
    svi: float | None = None      # mL/m^2 per beat when kept
    reason: str | None = None


def compute_svi(p: HemoPoint) -> SviResult:
    """Stroke volume (mL/beat) from CO/HR, then index by Du Bois body
    surface area.

    Stroke volumes outside [20, 200] mL are dropped (bounds inclusive: 20
    and 200 are kept).
    """
    sv_ml = p.co * 1000.0 / p.hr
    if sv_ml < SV_MIN_ML or sv_ml > SV_MAX_ML:
        return SviResult(False, sv_ml,
                         reason=f"stroke volume {sv_ml:.2f} mL outside "
                                f"[{SV_MIN_ML:.0f}, {SV_MAX_ML:.0f}]")
    return SviResult(True, sv_ml, svi=sv_ml / bsa_dubois(p.height, p.weight))


# ---------------------------------------------------------------------
# demographics standardization
# ---------------------------------------------------------------------

def demo_stats(train_demo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean/std per demographic column from training data; the 0/1 sex
    column (index 1) passes through unscaled."""
    demo = np.asarray(train_demo, dtype=np.float64)
    mean = demo.mean(axis=0)
    std = demo.std(axis=0)
    mean[1] = 0.0
    std[1] = 1.0
    std[std < 1e-8] = 1.0
    return mean, std


def apply_demo_stats(demo: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    z = (np.asarray(demo, dtype=np.float64) - mean) / std
    return z.astype(np.asarray(demo).dtype, copy=False)


# ---------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------

def _add_bumps(sig: np.ndarray, t0: np.ndarray, half_width: float,
               height: np.ndarray) -> None:
    """Add raised-cosine bumps centered at times ``t0`` (seconds) in place.

    The bumps of one call must not overlap: each sample gets one add.
    """
    i0 = np.maximum(np.ceil((t0 - half_width) * SAMPLE_RATE), 0).astype(np.int64)
    i1 = np.minimum(np.floor((t0 + half_width) * SAMPLE_RATE),
                    SEGMENT_LEN - 1).astype(np.int64)
    counts = np.maximum(i1 - i0 + 1, 0)
    idx = np.arange(counts.sum()) + np.repeat(i0 - np.cumsum(counts) + counts, counts)
    tt = idx / SAMPLE_RATE
    sig[idx] += (np.repeat(height * 0.5, counts)
                 * (1.0 + np.cos(np.pi * (tt - np.repeat(t0, counts)) / half_width)))


def generate_synthetic(n_cases: int, samples_per_case: int, task: str, seed: int,
                       difficulty: float = 1.0,
                       prevalence: float = 0.05) -> SignalDataset:
    """Deterministic synthetic two-channel dataset with a planted feature.

    Classification: each segment is positive with probability ``prevalence``;
    positives carry a pulse-amplitude decline of ``0.5 * difficulty`` over
    the 20 s (negatives are flat up to jitter), so the late-minus-early
    mean of the PPG channel separates the classes.

    Regression: the target is a per-beat stroke volume (80 mL times the
    planted mean pulse amplitude) indexed by Du Bois body surface area, so
    it is a smooth function of the PPG amplitude and the demographics.

    ``difficulty`` in (0, 1] scales signal-to-noise (1 = cleanest).  Waveform
    ranges stay inside the validity filter by construction.
    """
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    if n_cases < 1 or samples_per_case < 1:
        raise ValueError("n_cases and samples_per_case must be >= 1")
    if not 0.0 < difficulty <= 1.0:
        raise ValueError(f"difficulty must be in (0, 1], got {difficulty}")
    if not 0.0 < prevalence < 1.0:
        raise ValueError(f"prevalence must be in (0, 1), got {prevalence}")

    rng = np.random.default_rng(seed)
    noise_sigma = 0.02 * (2.0 - difficulty)
    records: list[SampleRecord] = []
    positives = 0

    for case_id in range(n_cases):
        age = rng.uniform(20.0, 80.0)
        sex = float(rng.integers(0, 2))
        height = float(np.clip(rng.normal(167.0, 8.0), 152.0, 182.0))
        weight = float(np.clip(rng.normal(72.0, 10.0), 52.0, 92.0))
        hr = rng.uniform(55.0, 95.0)
        period = 60.0 / hr
        base_amp = rng.uniform(0.75, 1.25) if task == "regression" else 1.0

        for _ in range(samples_per_case):
            phase = rng.uniform(0.0, period)
            # beats two periods before 0 through one past 20 s, so bumps
            # straddling the segment edges are still rendered
            n_after = int(math.ceil((SEGMENT_SECONDS + period - phase) / period)) + 1
            beat_times = phase + period * np.arange(-2, n_after)

            if task == "classification":
                label = 1.0 if rng.random() < prevalence else 0.0
                decline = (0.5 * difficulty if label else 0.0) + rng.normal(0.0, 0.03)
            else:
                label = 0.0  # assigned below from the planted amplitude
                decline = rng.normal(0.0, 0.03)

            ppg = np.full(SEGMENT_LEN, 0.5, dtype=np.float64)
            ecg = np.zeros(SEGMENT_LEN, dtype=np.float64)
            pulse_hw = 0.4 * period
            # per beat: the pulse-amplitude jitter, then the R-amplitude one
            jitter = rng.normal(0.0, 0.05, size=(len(beat_times), 2))
            envelope = 1.0 - decline * (beat_times / SEGMENT_SECONDS)
            _add_bumps(ppg, beat_times, pulse_hw,
                       base_amp * envelope * (1.0 + jitter[:, 0]))
            # R before Q: the two can share the sample at tb + 0.04
            _add_bumps(ecg, beat_times, 0.04, 1.1 * (1.0 + jitter[:, 1]))
            _add_bumps(ecg, beat_times + 0.07, 0.03, np.full(len(beat_times), -0.2))
            _add_bumps(ecg, beat_times + 0.28, 0.08, np.full(len(beat_times), 0.25))

            tgrid = np.arange(SEGMENT_LEN, dtype=np.float64) / SAMPLE_RATE
            ecg += 0.08 * np.sin(2.0 * np.pi * 0.2 * tgrid + rng.uniform(0, 2 * np.pi))
            ecg += rng.normal(0.0, noise_sigma, SEGMENT_LEN)
            ppg += rng.normal(0.0, noise_sigma, SEGMENT_LEN)

            if task == "regression":
                mean_amp = base_amp * (1.0 - decline / 2.0)
                sv_ml = 80.0 * mean_amp
                svi = sv_ml / bsa_dubois(height, weight)
                label_noise = rng.normal(0.0, 0.005 + 0.02 * (1.0 - difficulty))
                label = svi * (1.0 + label_noise)
            else:
                positives += int(label)

            records.append(SampleRecord(
                case_id=case_id,
                ecg=ecg.astype(np.float32),
                ppg=ppg.astype(np.float32),
                age=float(np.float32(age)),
                sex=sex,
                height=float(np.float32(height)),
                weight=float(np.float32(weight)),
                label=float(np.float32(label)),
            ))

    meta = {
        "generator": "planted-feature-v1",
        "task": task,
        "seed": str(seed),
        "n_cases": str(n_cases),
        "samples_per_case": str(samples_per_case),
        "difficulty": repr(float(difficulty)),
    }
    if task == "classification":
        meta["prevalence_requested"] = repr(float(prevalence))
        meta["prevalence_realized"] = repr(positives / len(records))
    return SignalDataset(task, records, meta)


# ---------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------

def split_by_case(dataset: SignalDataset, test_fraction: float = 0.20,
                  seed: int = 0) -> tuple[SignalDataset, SignalDataset]:
    """Case-granularity train/test split: no case appears on both sides.

    The test side receives round(n_cases * test_fraction) cases (at least 1,
    never all), chosen by a seeded permutation of the sorted case ids.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    cases = dataset.case_ids()
    if len(cases) < 2:
        raise ValueError(f"need at least 2 cases to split, got {len(cases)}")
    n_test = int(round(len(cases) * test_fraction))
    n_test = min(max(n_test, 1), len(cases) - 1)
    order = np.random.default_rng(seed).permutation(len(cases))
    test_ids = {cases[i] for i in order[:n_test]}
    train_recs = [r for r in dataset.records if r.case_id not in test_ids]
    test_recs = [r for r in dataset.records if r.case_id in test_ids]
    base = dict(dataset.meta)
    train = SignalDataset(dataset.task, train_recs,
                          {**base, "split": "train", "split_seed": str(seed)})
    test = SignalDataset(dataset.task, test_recs,
                         {**base, "split": "test", "split_seed": str(seed)})
    return train, test


# ---------------------------------------------------------------------
# binary container (little-endian, magic "PSD1")
# ---------------------------------------------------------------------

MAGIC = b"PSD1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHBIII")  # magic, version, task, n, seg_len, channels
_RECORD = np.dtype([("case_id", "<u4"), ("ecg", "<f4", (SEGMENT_LEN,)),
                    ("ppg", "<f4", (SEGMENT_LEN,)), ("fields", "<f4", (5,))])
_TASK_CODES = {"classification": 0, "regression": 1}
_TASK_NAMES = {v: k for k, v in _TASK_CODES.items()}


class DecodeError(ValueError):
    """Base class for container decode failures."""


class BadMagicError(DecodeError):
    pass


class UnsupportedVersionError(DecodeError):
    pass


class TruncatedError(DecodeError):
    pass


class FormatError(DecodeError):
    pass


def encode_dataset(dataset: SignalDataset) -> bytes:
    """Serialize to the PSD1 container; decode_dataset inverts losslessly.

    A case id outside uint32, or a finite scalar past float32 range, raises
    an ``ArithmeticError`` rather than being wrapped or written as inf.
    """
    records = dataset.records
    n = len(records)
    buf = bytearray(_HEADER.size + n * _RECORD.itemsize)
    _HEADER.pack_into(buf, 0, MAGIC, FORMAT_VERSION, _TASK_CODES[dataset.task],
                      n, SEGMENT_LEN, 2)
    body = np.frombuffer(buf, _RECORD, count=n, offset=_HEADER.size)
    ecg, ppg = body["ecg"], body["ppg"]
    for i, r in enumerate(records):
        if r.ecg.shape != (SEGMENT_LEN,) or r.ppg.shape != (SEGMENT_LEN,):
            raise ValueError(f"record for case {r.case_id} has wrong segment length")
        ecg[i] = r.ecg
        ppg[i] = r.ppg
    body["case_id"] = [operator.index(r.case_id) for r in records]
    with np.errstate(over="raise"):
        body["fields"] = np.array([(r.age, r.sex, r.height, r.weight, r.label)
                                   for r in records], np.float64).reshape(n, 5)
    return bytes(buf)


def decode_dataset(data: bytes) -> SignalDataset:
    if len(data) < 4:
        raise TruncatedError(f"file of {len(data)} bytes cannot hold the magic")
    if data[:4] != MAGIC:
        raise BadMagicError(f"expected magic {MAGIC!r}, found {data[:4]!r}")
    if len(data) < _HEADER.size:
        raise TruncatedError(f"header needs {_HEADER.size} bytes, file has {len(data)}")
    _, version, task_code, n, seg_len, channels = _HEADER.unpack_from(data, 0)
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"container version {version}, this reader supports {FORMAT_VERSION}")
    if task_code not in _TASK_NAMES:
        raise FormatError(f"unknown task code {task_code}")
    if seg_len != SEGMENT_LEN or channels != 2:
        raise FormatError(
            f"expected {SEGMENT_LEN}x2 segments, header declares {seg_len}x{channels}")
    expected = _HEADER.size + n * _RECORD.itemsize
    if len(data) < expected:
        raise TruncatedError(
            f"{n} records need {expected} bytes, file has {len(data)}")
    if len(data) > expected:
        raise FormatError(f"{len(data) - expected} trailing bytes after {n} records")

    # one private copy; each record's waveforms are writeable views into it
    body = np.frombuffer(data, _RECORD, count=n, offset=_HEADER.size).copy()
    columns = zip(body["case_id"].tolist(), body["ecg"], body["ppg"],
                  body["fields"].tolist())
    return SignalDataset(_TASK_NAMES[task_code],
                         [SampleRecord(case_id, ecg, ppg, *scalars)
                          for case_id, ecg, ppg, scalars in columns])


# ---------------------------------------------------------------------
# manifest sidecar
# ---------------------------------------------------------------------

def format_manifest(entries: dict[str, str]) -> str:
    lines = []
    for key in sorted(entries):
        value = str(entries[key])
        if "=" in key or "\n" in key or "\n" in value:
            raise ValueError(f"manifest entry {key!r} not representable")
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"
