"""Waveform record model, file I/O, dataset filtering, and synthetic data.

A record is a multi-channel fixed-rate waveform labelled with an alarm type
and a true/false annotation.  On disk a record is a directory holding
``header.json`` plus ``signal.f32`` (little-endian float32, channel-major).
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

FS_DEFAULT = 250.0
WINDOW_SECONDS = 60.0

# The one synthetic burst (see ``SynthSpec``): its coding chunks, carrier
# frequency and total energy, and the white noise on every channel.
N_CODING_CHUNKS = 6
ANOMALY_FREQ_HZ = 8.0
ANOMALY_ENERGY = 900.0
NOISE_STD = 0.05


class AlarmType(Enum):
    VFIB_FLUTTER = "VFIB_FLUTTER"
    ASYSTOLE = "ASYSTOLE"
    TACHYCARDIA = "TACHYCARDIA"
    BRADYCARDIA = "BRADYCARDIA"
    VFIB = "VFIB"


class Channel(Enum):
    ECG_II = "ECG_II"
    ECG_V = "ECG_V"
    PLETH = "PLETH"
    RESP = "RESP"


#: Canonical channel order used everywhere a full 4-channel stack is built.
CHANNEL_ORDER = (Channel.ECG_II, Channel.ECG_V, Channel.PLETH, Channel.RESP)


class RecordError(ValueError):
    """Raised for malformed record files or invalid record construction."""


def _checked_number(name: str, value, kind: str):
    """``value`` as a plain ``int`` (``kind`` "int") or ``float`` ("float").

    An integer refuses a bool or a non-integer; a float refuses a bool, a
    non-real or a non-finite value.  The error names ``name``.
    """
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        return int(value)
    message = f"{name} must be a finite real number, got {value!r}"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(message)
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        raise ValueError(message) from None
    if not math.isfinite(number):
        raise ValueError(message)
    return number


def _checked_sequence(name: str, value, what: str) -> tuple:
    """``value`` as a tuple; a string, bytes or a non-iterable is refused as
    ``<name> must be a sequence of <what>``, so a string is never split
    into characters."""
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise ValueError(f"{name} must be a sequence of {what}, got {value!r}")
    return tuple(value)


def _checked_seed(seed) -> int:
    """``seed`` as a plain ``int`` >= 0, a seed ``np.random.default_rng``
    takes; the error names ``seed``."""
    seed = _checked_number("seed", seed, "int")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _store_number_fields(config) -> None:
    """Check every field of the frozen dataclass ``config`` annotated ``int``
    or ``float`` by ``_checked_number`` and store it as that plain type, so
    configs that compare equal (``1`` and ``1.0``) write equal JSON."""
    for f in fields(config):
        if f.type in ("int", "float"):
            object.__setattr__(config, f.name,
                               _checked_number(f.name, getattr(config, f.name), f.type))


@dataclass(frozen=True)
class Record:
    """Immutable multi-channel waveform with alarm metadata.

    ``samples`` is a channels x N float32 matrix; rows follow ``channels``
    order.  ``fs`` must be finite and positive, all samples finite, and
    every channel row has the same length.  Instances are safe to share
    across parallel workers.
    """

    record_id: str
    alarm_type: AlarmType
    label: bool
    fs: float
    channels: tuple[Channel, ...]
    samples: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise RecordError(f"record {self.record_id}: fs must be finite and "
                              f"positive, got {self.fs}")
        if len(set(self.channels)) != len(self.channels):
            raise RecordError("duplicate channel identifiers")
        samples = np.ascontiguousarray(self.samples, dtype=np.float32)
        if samples.ndim != 2 or samples.shape[0] != len(self.channels):
            raise RecordError(
                f"samples must be {len(self.channels)}xN, got shape {samples.shape}"
            )
        if not np.isfinite(samples).all():
            raise RecordError("non-finite sample")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "channels", tuple(self.channels))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    def channel(self, kind: Channel) -> np.ndarray:
        """Return the sample row for one channel kind."""
        try:
            return self.samples[self.channels.index(kind)]
        except ValueError:
            raise RecordError(f"channel {kind.value} absent from {self.record_id}") from None


@dataclass(frozen=True)
class DatasetSummary:
    """Per-(alarm_type, label) counts plus total size and true-alarm ratio."""

    counts: dict[tuple[AlarmType, bool], int]
    n_records: int
    true_ratio: float

    @classmethod
    def of(cls, records: list[Record]) -> "DatasetSummary":
        counts: dict[tuple[AlarmType, bool], int] = {}
        n_true = 0
        for r in records:
            key = (r.alarm_type, r.label)
            counts[key] = counts.get(key, 0) + 1
            n_true += int(r.label)
        n = len(records)
        return cls(counts=counts, n_records=n, true_ratio=n_true / n if n else 0.0)


@dataclass(frozen=True)
class ClassWeights:
    """Inverse-frequency class weights, w_c = N / (2 * N_c)."""

    w_true: float
    w_false: float


def class_weights(labels) -> ClassWeights:
    """Compute w_c = N / (2 * N_c) for the true and false classes.

    Raises ValueError if only one class is present.
    """
    labels = np.asarray(labels, dtype=bool)
    n = labels.size
    n_true = int(labels.sum())
    n_false = n - n_true
    if n_true == 0 or n_false == 0:
        raise ValueError("class_weights requires both classes present")
    return ClassWeights(w_true=n / (2.0 * n_true), w_false=n / (2.0 * n_false))


# ---------------------------------------------------------------------------
# File format: <id>/header.json + <id>/signal.f32 (LE float32, channel-major)
# ---------------------------------------------------------------------------

def write_record(record: Record, root: Path | str) -> Path:
    """Write ``record`` under ``root/<record_id>/``; returns the directory."""
    rec_dir = Path(root) / record.record_id
    rec_dir.mkdir(parents=True, exist_ok=True)
    write_json(rec_dir / "header.json", {
        "record_id": record.record_id,
        "alarm_type": record.alarm_type.value,
        "label": record.label,
        "fs": record.fs,
        "channels": [c.value for c in record.channels],
        "n_samples": record.n_samples,
    })
    data = record.samples.astype("<f4", copy=False)
    (rec_dir / "signal.f32").write_bytes(data.tobytes(order="C"))
    return rec_dir


def load_record(path: Path | str) -> Record:
    """Load one record directory written by :func:`write_record`.

    Raises RecordError for a missing/corrupt header, a sample-count or
    channel-count mismatch between header and signal file, or non-finite
    sample values.
    """
    rec_dir = Path(path)
    header_path = rec_dir / "header.json"
    if not header_path.is_file():
        raise RecordError(f"missing header: {header_path}")
    try:
        header = json.loads(header_path.read_text())
        record_id = header["record_id"]
        alarm_type = AlarmType(header["alarm_type"])
        label = bool(header["label"])
        fs = float(header["fs"])
        channels = tuple(Channel(c) for c in header["channels"])
        n_samples = int(header["n_samples"])
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise RecordError(f"corrupt header {header_path}: {exc}") from exc

    signal_path = rec_dir / "signal.f32"
    if not signal_path.is_file():
        raise RecordError(f"missing signal file: {signal_path}")
    raw = np.frombuffer(signal_path.read_bytes(), dtype="<f4")
    expected = len(channels) * n_samples
    if raw.size != expected:
        if n_samples > 0 and raw.size % n_samples == 0:
            raise RecordError(
                f"channel count mismatch: header declares {len(channels)} channels, "
                f"signal file holds {raw.size // n_samples}"
            )
        raise RecordError(
            f"sample count mismatch: expected {expected} values, file holds {raw.size}"
        )
    # Record refuses non-finite samples with RecordError("non-finite sample")
    return Record(record_id, alarm_type, label, fs, channels,
                  raw.reshape(len(channels), n_samples))


def load_dataset(root: Path | str) -> list[Record]:
    """Load every record directory under ``root``, sorted by directory name.

    Two directories whose headers name the same ``record_id`` (a copied
    record directory) are refused with RecordError, naming the id and both
    directories: a run reports each record under its id.
    """
    root = Path(root)
    dirs = sorted(p for p in root.iterdir() if (p / "header.json").is_file())
    records, dir_of = [], {}
    for rec_dir in dirs:
        record = load_record(rec_dir)
        if record.record_id in dir_of:
            raise RecordError(f"record id {record.record_id!r} is in both "
                              f"{dir_of[record.record_id]} and {rec_dir}")
        dir_of[record.record_id] = rec_dir
        records.append(record)
    return records


def write_dataset(records: list[Record], root: Path | str) -> None:
    for r in records:
        write_record(r, root)


def write_json(path: Path | str, obj) -> None:
    """Write ``obj`` in the library's one JSON format: indent 2, final newline."""
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def write_csv(path: Path | str, header, rows) -> None:
    """Write one CSV; float cells (np.float64 too) as ``repr(float(v))``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v
                          for v in row] for row in rows)


# ---------------------------------------------------------------------------
# Windowing / filtering
# ---------------------------------------------------------------------------

def tail_window(record: Record) -> Record:
    """Return the final ``WINDOW_SECONDS`` of the record; metadata unchanged.

    A window shorter than the record is a copy that owns its samples, so
    the record's buffer (a loaded record's whole signal file) is freed with
    the record; a window equal to the record shares its samples.  A record
    shorter than the window, or sampled too slowly for the window to hold
    one sample, is refused by name.
    """
    n = int(round(WINDOW_SECONDS * record.fs))
    if n < 1:
        raise ValueError(f"record {record.record_id} at {record.fs} Hz has no "
                         f"sample in the {WINDOW_SECONDS} s window")
    start = record.n_samples - n
    if start < 0:
        raise ValueError(
            f"record {record.record_id} has {record.n_samples} samples, "
            f"shorter than the {n}-sample window"
        )
    window = record.samples[:, start:]
    return Record(
        record.record_id,
        record.alarm_type,
        record.label,
        record.fs,
        record.channels,
        window.copy() if start else window,
    )


def filter_four_channel(records: list[Record]):
    """Keep only records carrying all four channel kinds.

    Returns (retained records, summary before, summary after).  Inputs are
    not mutated.
    """
    wanted = set(CHANNEL_ORDER)
    kept = [r for r in records if wanted.issubset(set(r.channels))]
    return kept, DatasetSummary.of(records), DatasetSummary.of(kept)


# ---------------------------------------------------------------------------
# Synthetic dataset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic labelled-waveform generator.

    The generated window is split conceptually into ``N_CODING_CHUNKS``
    equal chunks.  True-alarm records carry an anomaly burst whose envelope
    ramps up progressively across the final two chunks; false-alarm records
    carry a burst of identical total energy dropped abruptly into one
    uniformly random chunk.  Total window energy is therefore matched
    between the two families, so only the temporal placement and onset
    shape separate them.  Every ``int`` and ``float`` field is checked and
    stored as a plain ``int`` or ``float`` (see ``_store_number_fields``).
    """

    n: int
    true_ratio: float = 0.5
    fs: float = FS_DEFAULT
    duration_s: float = WINDOW_SECONDS

    def __post_init__(self):
        _store_number_fields(self)
        if self.n <= 0:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 < self.true_ratio < 1.0:
            raise ValueError(f"true_ratio must lie in (0, 1), got {self.true_ratio}")
        for name in ("fs", "duration_s"):
            if (value := getattr(self, name)) <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if (samples := round(self.duration_s * self.fs)) < N_CODING_CHUNKS:
            raise ValueError(f"duration_s * fs gives {samples} samples, fewer than "
                             f"the {N_CODING_CHUNKS} coding chunks")


def synthetic_ecg(duration_s: float, fs: float, bpm: float,
                  rng: np.random.Generator) -> np.ndarray:
    """ECG-like pulse train: one Gaussian-windowed biphasic complex per beat.

    Beat-to-beat interval jitters by ~2% so the spectrum is not a pure comb.
    The train has unit amplitude and no noise.

    Each beat is evaluated only on the samples from 40 QRS widths before it
    to 42 after it.  Beyond about 38.6 widths from either Gaussian's centre
    ``exp(-u**2 / 2)`` underflows to 0.0, so every skipped sample would have
    added +0.0: the train equals the full-length sum bit for bit.
    """
    n = int(round(duration_s * fs))
    t = np.arange(n) / fs
    x = np.zeros(n)
    period = 60.0 / bpm
    beat_t = rng.uniform(0.1, 0.9) * period
    width = 0.02  # QRS half-width in seconds
    while beat_t < duration_s:
        lo, hi = np.searchsorted(t, (beat_t - 40.0 * width, beat_t + 42.0 * width))
        u = (t[lo:hi] - beat_t) / width
        # sharp positive spike with a shallow negative overshoot
        x[lo:hi] += np.exp(-0.5 * u * u) - 0.3 * np.exp(-0.5 * ((u - 2.0) ** 2))
        beat_t += period * (1.0 + 0.02 * rng.standard_normal())
    return x


def _baseline_channels(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """Plausible resting 4-channel background, unit-normalized amplitudes."""
    n = int(round(spec.duration_s * spec.fs))
    t = np.arange(n) / spec.fs
    bpm = rng.uniform(55.0, 95.0)
    ecg_ii = synthetic_ecg(spec.duration_s, spec.fs, bpm, rng)
    ecg_v = 0.8 * synthetic_ecg(spec.duration_s, spec.fs, bpm, rng)
    pulse_hz = bpm / 60.0
    pleth = np.sin(2 * np.pi * pulse_hz * t + rng.uniform(0, 2 * np.pi))
    pleth += 0.3 * np.sin(2 * np.pi * 2 * pulse_hz * t + rng.uniform(0, 2 * np.pi))
    resp_hz = rng.uniform(0.15, 0.35)
    resp = np.sin(2 * np.pi * resp_hz * t + rng.uniform(0, 2 * np.pi))
    chans = np.stack([ecg_ii, ecg_v, pleth, resp])
    chans += NOISE_STD * rng.standard_normal(chans.shape)
    return chans


def _anomaly_burst(spec: SynthSpec, rng: np.random.Generator,
                   progressive: bool) -> np.ndarray:
    """Narrowband burst, rescaled so its total energy is exactly the target.

    True family (``progressive``): envelope ramps linearly from zero across
    the last two coding chunks.  False family: rectangular envelope over one
    uniformly random chunk.
    """
    n = int(round(spec.duration_s * spec.fs))
    chunk_len = n // N_CODING_CHUNKS
    t = np.arange(n) / spec.fs
    env = np.zeros(n)
    if progressive:
        start = (N_CODING_CHUNKS - 2) * chunk_len
        env[start:] = np.linspace(0.0, 1.0, n - start)
    else:
        k = rng.integers(0, N_CODING_CHUNKS)
        env[k * chunk_len:(k + 1) * chunk_len] = 1.0
    carrier = np.sin(2 * np.pi * ANOMALY_FREQ_HZ * t + rng.uniform(0, 2 * np.pi))
    gains = np.array([1.0, 0.8, 0.6, 0.4])  # per-channel coupling
    burst = gains[:, None] * (env * carrier)[None, :]
    energy = float(np.sum(burst * burst))
    burst *= math.sqrt(ANOMALY_ENERGY / energy)
    return burst


def synth_dataset(spec: SynthSpec, seed: int) -> list[Record]:
    """Generate ``spec.n`` labelled 4-channel records, deterministic under seed."""
    rng = np.random.default_rng(seed)
    n_true = int(round(spec.n * spec.true_ratio))
    alarm_types = list(AlarmType)
    records = []
    for i in range(spec.n):
        label = i < n_true
        chans = _baseline_channels(spec, rng)
        chans += _anomaly_burst(spec, rng, progressive=label)
        records.append(Record(
            record_id=f"synth-{i:04d}",
            alarm_type=alarm_types[i % len(alarm_types)],
            label=label,
            fs=spec.fs,
            channels=CHANNEL_ORDER,
            samples=chans,
        ))
    return records
