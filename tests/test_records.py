import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alarmsift.records import (ANOMALY_ENERGY, ANOMALY_FREQ_HZ, N_CODING_CHUNKS,
                               NOISE_STD, AlarmType, CHANNEL_ORDER, WINDOW_SECONDS,
                               Channel, RecordError, SynthSpec, class_weights,
                               filter_four_channel, load_record, synth_dataset,
                               synthetic_ecg, tail_window, write_record)
from conftest import make_record


class TestRecordInvariants:
    def test_rejects_nonpositive_fs(self):
        with pytest.raises(RecordError):
            make_record(fs=0.0)

    @pytest.mark.parametrize("fs", [math.nan, math.inf])
    def test_rejects_non_finite_fs_by_record(self, fs):
        with pytest.raises(RecordError, match=re.escape(
                f"record rec-0: fs must be finite and positive, got {fs}")):
            make_record(fs=fs)

    def test_rejects_duplicate_channels(self):
        with pytest.raises(RecordError):
            make_record(channels=(Channel.ECG_II, Channel.ECG_II),
                        samples=np.zeros((2, 10)))

    def test_rejects_nonfinite(self):
        samples = np.zeros((4, 10))
        samples[2, 3] = np.nan
        with pytest.raises(RecordError, match="non-finite"):
            make_record(samples=samples)

    def test_rejects_ragged_shape(self):
        with pytest.raises(RecordError):
            make_record(channels=(Channel.ECG_II,), samples=np.zeros((2, 10)))

    def test_samples_immutable(self):
        r = make_record()
        with pytest.raises(ValueError):
            r.samples[0, 0] = 1.0


class TestRecordIO:
    def test_round_trip_identity(self, tmp_path):
        r = make_record("roundtrip", n=15000, label=True,
                        alarm_type=AlarmType.TACHYCARDIA)
        write_record(r, tmp_path)
        loaded = load_record(tmp_path / "roundtrip")
        assert loaded.record_id == r.record_id
        assert loaded.alarm_type == r.alarm_type
        assert loaded.label == r.label
        assert loaded.fs == r.fs
        assert loaded.channels == r.channels
        assert loaded.n_samples == 15000
        np.testing.assert_array_equal(loaded.samples, r.samples)  # bit-exact

    def test_channel_count_mismatch(self, tmp_path):
        import json

        r = make_record("bad", n=100)
        rec_dir = write_record(r, tmp_path)
        header = json.loads((rec_dir / "header.json").read_text())
        header["channels"] = header["channels"][:3]  # file still has 4 rows
        (rec_dir / "header.json").write_text(json.dumps(header))
        with pytest.raises(RecordError, match="channel count mismatch"):
            load_record(rec_dir)

    def test_sample_count_mismatch(self, tmp_path):
        r = make_record("bad2", n=100)
        rec_dir = write_record(r, tmp_path)
        raw = (rec_dir / "signal.f32").read_bytes()
        (rec_dir / "signal.f32").write_bytes(raw[:-4])
        with pytest.raises(RecordError, match="mismatch"):
            load_record(rec_dir)

    def test_nan_sample_rejected(self, tmp_path):
        r = make_record("bad3", n=100)
        rec_dir = write_record(r, tmp_path)
        data = np.frombuffer((rec_dir / "signal.f32").read_bytes(),
                             dtype="<f4").copy()
        data[7] = np.nan
        (rec_dir / "signal.f32").write_bytes(data.tobytes())
        with pytest.raises(RecordError, match="non-finite"):
            load_record(rec_dir)

    @pytest.mark.parametrize("fs, text", [(math.nan, "NaN"), (math.inf, "Infinity")])
    def test_non_finite_fs_in_header_refused(self, tmp_path, fs, text):
        import json

        rec_dir = write_record(make_record("bad4", n=100), tmp_path)
        header = json.loads((rec_dir / "header.json").read_text())
        header["fs"] = fs
        (rec_dir / "header.json").write_text(json.dumps(header))
        assert f'"fs": {text}' in (rec_dir / "header.json").read_text()
        with pytest.raises(RecordError, match=re.escape(
                f"record bad4: fs must be finite and positive, got {fs}")):
            load_record(rec_dir)

    def test_missing_header(self, tmp_path):
        with pytest.raises(RecordError, match="missing header"):
            load_record(tmp_path / "nope")


class TestTailWindow:
    def test_five_minutes_to_final_minute(self):
        r = make_record(n=75000)  # 5 min at 250 Hz
        tail = tail_window(r)
        assert tail.n_samples == 15000
        np.testing.assert_array_equal(tail.samples, r.samples[:, -15000:])
        assert tail.channels == r.channels and tail.fs == r.fs

    def test_exact_window_is_identity(self):
        r = make_record(n=15000)
        np.testing.assert_array_equal(tail_window(r).samples, r.samples)

    def test_short_record_errors(self):
        with pytest.raises(ValueError, match="shorter"):
            tail_window(make_record(n=10000))


def _table1_fixture():
    """750 tiny records: 498 four-channel (158 true, type counts per the
    production dataset), 252 partial-channel (92 true)."""
    counts = {AlarmType.VFIB_FLUTTER: (263, 60), AlarmType.ASYSTOLE: (85, 12),
              AlarmType.TACHYCARDIA: (62, 56), AlarmType.BRADYCARDIA: (56, 25),
              AlarmType.VFIB: (32, 5)}
    records = []
    i = 0
    for atype, (total, true) in counts.items():
        for j in range(total):
            records.append(make_record(f"full-{i}", n=8, alarm_type=atype,
                                       label=j < true))
            i += 1
    for j in range(252):
        records.append(make_record(
            f"partial-{j}", n=8, channels=(Channel.ECG_II, Channel.PLETH),
            samples=np.zeros((2, 8)), label=j < 92))
    return records


class TestFilterFourChannel:
    def test_production_composition(self):
        records = _table1_fixture()
        kept, before, after = filter_four_channel(records)
        assert len(kept) == 498
        assert before.n_records == 750
        assert round(before.true_ratio, 3) == 0.333
        assert round(after.true_ratio, 3) == 0.317

    def test_identity_on_all_four_channel(self, small_synth):
        kept, before, after = filter_four_channel(small_synth)
        assert kept == small_synth
        assert before == after

    def test_hand_counted_fixture(self):
        records = [make_record(f"f{i}", n=8, label=i % 2 == 0) for i in range(6)]
        records += [make_record(f"p{i}", n=8, channels=(Channel.RESP,),
                                samples=np.zeros((1, 8)), label=True)
                    for i in range(4)]
        kept, before, after = filter_four_channel(records)
        assert [r.record_id for r in kept] == [f"f{i}" for i in range(6)]
        assert after.n_records == 6
        assert after.true_ratio == 3 / 6
        assert before.counts[(AlarmType.ASYSTOLE, True)] == 3 + 4


class TestClassWeights:
    def test_production_split(self):
        w = class_weights([True] * 158 + [False] * 340)
        assert round(w.w_true, 3) == 1.576
        assert round(w.w_false, 3) == 0.732

    def test_balanced(self):
        w = class_weights([True, False])
        assert w.w_true == 1.0 and w.w_false == 1.0

    def test_one_to_three(self):
        w = class_weights([True, False, False, False])
        assert w.w_true == 2.0
        assert round(w.w_false, 4) == 0.6667

    def test_single_class_errors(self):
        with pytest.raises(ValueError):
            class_weights([True, True])

    @given(n_true=st.integers(1, 400), n_false=st.integers(1, 400))
    @settings(max_examples=200, deadline=None)
    def test_weighted_counts_sum_to_n(self, n_true, n_false):
        w = class_weights([True] * n_true + [False] * n_false)
        n = n_true + n_false
        assert math.isclose(n_true * w.w_true + n_false * w.w_false, n,
                            rel_tol=1e-12)


def _ref_synthetic_ecg(duration_s, fs, bpm, rng):
    """The seed's formulation: every beat evaluated over the whole window."""
    n = int(round(duration_s * fs))
    t = np.arange(n) / fs
    x = np.zeros(n)
    period = 60.0 / bpm
    beat_t = rng.uniform(0.1, 0.9) * period
    width = 0.02
    while beat_t < duration_s:
        u = (t - beat_t) / width
        x += np.exp(-0.5 * u * u) - 0.3 * np.exp(-0.5 * ((u - 2.0) ** 2))
        beat_t += period * (1.0 + 0.02 * rng.standard_normal())
    return x


class TestSyntheticEcg:
    @given(duration_s=st.floats(0.05, 6.0), fs=st.sampled_from([100.0, 250.0, 500.0]),
           bpm=st.one_of(st.sampled_from([20.0, 40.0, 180.0, 300.0]),
                         st.floats(20.0, 300.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_local_window_matches_full_length_bit_for_bit(self, duration_s, fs, bpm, seed):
        """Short windows put beats within 40 QRS widths of both ends, so the
        clipped evaluation windows are exercised; bytes compare sign bits
        too."""
        got = synthetic_ecg(duration_s, fs, bpm, np.random.default_rng(seed))
        want = _ref_synthetic_ecg(duration_s, fs, bpm, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()


class TestSynthDataset:
    def test_deterministic_under_seed(self):
        spec = SynthSpec(n=6, true_ratio=0.5)
        a = synth_dataset(spec, 42)
        b = synth_dataset(spec, 42)
        for ra, rb in zip(a, b):
            assert ra.record_id == rb.record_id and ra.label == rb.label
            np.testing.assert_array_equal(ra.samples, rb.samples)

    def test_seed_changes_data(self):
        spec = SynthSpec(n=2, true_ratio=0.5)
        a, b = synth_dataset(spec, 1), synth_dataset(spec, 2)
        assert not np.array_equal(a[0].samples, b[0].samples)

    def test_shape_and_metadata(self, small_synth):
        for r in small_synth:
            assert r.fs == 250.0
            assert r.n_samples == 15000
            assert r.channels == CHANNEL_ORDER
        labels = [r.label for r in small_synth]
        assert sum(labels) == 12

    def test_true_family_anomaly_in_final_chunks(self, small_synth):
        # band energy around the anomaly frequency, per 10-second chunk
        from scipy.signal import butter, filtfilt

        b, a = butter(2, [ANOMALY_FREQ_HZ - 2, ANOMALY_FREQ_HZ + 2],
                      btype="bandpass", fs=250.0)
        for r in small_synth:
            if not r.label:
                continue
            band = filtfilt(b, a, r.channel(Channel.ECG_II).astype(float))
            chunk_energy = [float(np.sum(c * c)) for c in np.split(band, 6)]
            assert np.mean(chunk_energy[4:]) > 2.0 * np.mean(chunk_energy[:4])

    def test_energy_equalized_between_families(self):
        records = synth_dataset(SynthSpec(n=1000, true_ratio=0.5), seed=7)
        rms = np.array([np.sqrt(np.mean(r.samples.astype(float) ** 2))
                        for r in records])
        labels = np.array([r.label for r in records])
        r_true, r_false = rms[labels].mean(), rms[~labels].mean()
        assert abs(r_true - r_false) / ((r_true + r_false) / 2) < 0.01

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            synth_dataset(SynthSpec(n=0), 0)
        with pytest.raises(ValueError):
            synth_dataset(SynthSpec(n=4, true_ratio=1.5), 0)

    @pytest.mark.parametrize("kwargs, samples", [
        ({"duration_s": 1.0, "fs": 5.0}, 5),
        ({"duration_s": 0.001}, 0),
    ], ids=["1s-at-5Hz", "1ms"])
    def test_window_shorter_than_its_chunks_refused(self, kwargs, samples):
        """A window with fewer samples than coding chunks would leave a burst
        envelope of zeros; it is refused on construction, naming the fields."""
        with pytest.raises(ValueError, match=rf"^duration_s \* fs gives {samples} "
                                             rf"samples, fewer than the 6 coding "
                                             rf"chunks$"):
            SynthSpec(n=2, **kwargs)

    def test_one_burst_of_fixed_constants(self):
        """The burst is module constants, not spec fields."""
        assert [f.name for f in dataclasses.fields(SynthSpec)] == [
            "n", "true_ratio", "fs", "duration_s"]
        assert (N_CODING_CHUNKS, ANOMALY_FREQ_HZ, ANOMALY_ENERGY, NOISE_STD) == (
            6, 8.0, 900.0, 0.05)


_SYNTH_INT_FIELDS = ("n",)
_SYNTH_FLOAT_FIELDS = ("true_ratio", "fs", "duration_s")


class TestSynthSpecNumbers:
    """SynthSpec checks its number fields on construction, by name, with the
    rule the model and experiment configs use."""

    @given(field=st.sampled_from(_SYNTH_INT_FIELDS),
           value=st.one_of(st.booleans(), st.floats(allow_nan=True),
                           st.text(max_size=3), st.none()))
    def test_integer_fields_refuse_other_types(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, "
                                             rf"got {re.escape(repr(value))}$"):
            SynthSpec(**{"n": 4, field: value})

    @given(field=st.sampled_from(_SYNTH_FLOAT_FIELDS),
           value=st.one_of(st.booleans(), st.sampled_from([math.nan, math.inf, -math.inf]),
                           st.integers(min_value=2 ** 1024, max_value=2 ** 1100),
                           st.text(max_size=3), st.none()))
    def test_float_fields_refuse_other_values(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be a finite real "
                                             rf"number, got {re.escape(repr(value))}$"):
            SynthSpec(**{"n": 4, field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("n", 0, "n must be >= 1, got 0"), ("n", -1, "n must be >= 1, got -1"),
        ("fs", 0, "fs must be > 0, got 0.0"), ("fs", -1, "fs must be > 0, got -1.0"),
        ("duration_s", 0, "duration_s must be > 0, got 0.0"),
        ("duration_s", -1, "duration_s must be > 0, got -1.0"),
    ])
    def test_each_bound_refused_by_field_name(self, field, value, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            SynthSpec(**{"n": 4, field: value})

    @given(n=st.integers(-2, 3), ratio=st.floats(-0.5, 1.5),
           fs=st.sampled_from([-1.0, 0.0, 1e-3, 0.09, 0.1, 250]))
    def test_range_boundaries(self, n, ratio, fs):
        """Admitted specs hold plain ``int`` and ``float`` values; anything
        past a range boundary, or a window of fewer samples than coding
        chunks (``fs`` 1e-3 gives 0 and 0.09 gives 5; 0.1 gives 6), is
        refused on construction."""
        kwargs = dict(n=np.int64(n), true_ratio=ratio, fs=fs)
        if (n >= 1 and 0.0 < ratio < 1.0 and fs > 0
                and round(WINDOW_SECONDS * fs) >= N_CODING_CHUNKS):
            spec = SynthSpec(**kwargs)
            assert type(spec.n) is int and type(spec.fs) is float
            assert spec == SynthSpec(n=n, true_ratio=ratio, fs=float(fs))
        else:
            with pytest.raises(ValueError):
                SynthSpec(**kwargs)
