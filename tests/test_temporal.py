import numpy as np
import pytest

from alarmsift.records import Channel
from alarmsift.scalogram import MorletParams, cwt, log_scales, to_scalogram
from alarmsift.temporal import ChunkSequence, build_sequence, split_chunks
from conftest import make_record


class TestSplitChunks:
    def test_six_chunks_of_2500(self):
        r = make_record(n=15000)
        parts = split_chunks(r, 6)
        assert len(parts) == 6
        assert all(p.n_samples == 2500 for p in parts)
        recon = np.concatenate([p.samples for p in parts], axis=1)
        np.testing.assert_array_equal(recon, r.samples)

    def test_single_chunk_identity(self):
        r = make_record(n=15000)
        parts = split_chunks(r, 1)
        assert len(parts) == 1
        np.testing.assert_array_equal(parts[0].samples, r.samples)

    def test_non_divisible_errors(self):
        r = make_record(n=15000)
        for fn in (split_chunks, build_sequence):
            with pytest.raises(ValueError, match="15000 not divisible by 7"):
                fn(r, 7)
            with pytest.raises(ValueError, match="n_chunks must be >= 1"):
                fn(r, 0)

    def test_metadata_preserved(self):
        r = make_record(n=600, label=True)
        for part in split_chunks(r, 3):
            assert part.alarm_type == r.alarm_type
            assert part.label and part.fs == r.fs
            assert part.channels == r.channels


class TestBuildSequence:
    def test_full_shape(self, small_synth):
        seq = build_sequence(small_synth[0], 6)
        assert seq.tensors.shape == (6, 4, 64, 64)
        assert seq.tensors.min() >= 0.0 and seq.tensors.max() <= 1.0
        assert seq.record_id == small_synth[0].record_id

    def test_single_channel_subset(self, small_synth):
        seq = build_sequence(small_synth[0], 6, (Channel.ECG_II,))
        assert seq.tensors.shape == (6, 1, 64, 64)

    def test_static_single_chunk(self, small_synth):
        seq = build_sequence(small_synth[0], 1)
        assert seq.tensors.shape == (1, 4, 64, 64)

    def test_absent_channel_errors(self):
        r = make_record(channels=(Channel.ECG_II, Channel.ECG_V),
                        samples=np.random.default_rng(0).standard_normal((2, 600)))
        with pytest.raises(Exception, match="absent"):
            build_sequence(r, 3, (Channel.PLETH,))

    def test_compositionality_per_chunk(self, small_synth):
        """Sequence tensors equal independently computed per-chunk scalograms."""
        r = small_synth[1]
        grid, params = log_scales(), MorletParams()
        seq = build_sequence(r, 6, grid=grid, params=params)
        parts = split_chunks(r, 6)
        for k in (0, 3, 5):
            for ci, chan in enumerate(r.channels):
                expected = to_scalogram(
                    cwt(parts[k].channel(chan).astype(float), grid, params, r.fs))
                np.testing.assert_array_equal(seq.tensors[k, ci], expected.values)

    def test_chunk_independence(self):
        rng = np.random.default_rng(17)
        base = rng.standard_normal((4, 1200))
        r1 = make_record(n=1200, samples=base)
        modified = base.copy()
        modified[:, 400:600] += rng.standard_normal((4, 200))  # chunk 2 only
        r2 = make_record(n=1200, samples=modified)
        s1 = build_sequence(r1, 6)
        s2 = build_sequence(r2, 6)
        assert not np.array_equal(s1.tensors[2], s2.tensors[2])
        for k in (0, 1, 3, 4, 5):
            np.testing.assert_array_equal(s1.tensors[k], s2.tensors[k])

    def test_channel_subset_projection(self, small_synth):
        r = small_synth[2]
        full = build_sequence(r, 6)
        ecg_only = build_sequence(r, 6, (Channel.ECG_II,))
        np.testing.assert_array_equal(ecg_only.tensors[:, 0], full.tensors[:, 0])

    def test_empty_subset_errors(self, small_synth):
        with pytest.raises(ValueError, match="non-empty"):
            build_sequence(small_synth[0], 6, ())


class TestChunkSequenceType:
    def test_tensor_channel_mismatch(self):
        with pytest.raises(ValueError):
            ChunkSequence(tensors=np.zeros((6, 2, 8, 8)),
                          channels=(Channel.ECG_II,), record_id="x")

    def test_immutable(self, small_synth):
        seq = build_sequence(small_synth[0], 1)
        with pytest.raises(ValueError):
            seq.tensors[0, 0, 0, 0] = 0.5
