import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alarmsift.harness import build_sequences
from alarmsift.records import CHANNEL_ORDER, Channel
from alarmsift.scalogram import MORLET, SCALES, cwt, to_scalogram
from alarmsift.temporal import build_sequence
from conftest import make_record, traced_peak


def chunk_scalogram(samples):
    """Reference: the scalogram of one chunk, computed on its own in the
    dtype of ``samples`` and stored in it."""
    samples = np.asarray(samples)
    return to_scalogram(cwt(samples, SCALES, MORLET)).astype(samples.dtype)


class TestSplitChunks:
    """How ``build_sequence`` cuts a record into consecutive chunks."""

    def test_six_chunks_of_2500(self):
        r = make_record(n=15000)
        seq = build_sequence(r, 6)
        assert seq.shape == (6, 4, 64, 64) and seq.dtype == np.float32
        for k in range(6):
            for c in range(4):
                np.testing.assert_array_equal(
                    seq[k, c], chunk_scalogram(r.samples[c, 2500 * k:2500 * (k + 1)]))

    def test_single_chunk_identity(self):
        r = make_record(n=15000)
        seq = build_sequence(r, 1)
        for c in range(4):
            np.testing.assert_array_equal(seq[0, c], chunk_scalogram(r.samples[c]))

    @pytest.mark.parametrize("n_chunks", [1, 6])
    def test_float32_matches_float64_reference(self, n_chunks):
        """Within 2e-6 of scalograms computed from the same samples in
        float64, on channels with DC offsets up to 1e4."""
        rng = np.random.default_rng(n_chunks)
        t = np.arange(15000) / 250.0
        samples = (np.sin(2 * np.pi * np.array([[1.2], [3.0], [7.5], [20.0]]) * t)
                   + 0.2 * rng.standard_normal((4, 15000))
                   + np.array([[0.0], [1.0], [100.0], [1e4]]))
        r = make_record(n=15000, samples=samples)
        seq = build_sequence(r, n_chunks)
        width = 15000 // n_chunks
        for k in range(n_chunks):
            for c in range(4):
                part = r.samples[c, width * k:width * (k + 1)].astype(np.float64)
                ref = to_scalogram(cwt(part, SCALES, MORLET))
                np.testing.assert_allclose(seq[k, c], ref, rtol=0, atol=2e-6)

    def test_non_divisible_errors(self):
        r = make_record(n=15000)
        with pytest.raises(ValueError, match=r"^record rec-0: 15000 samples not "
                                             r"divisible by chunk count 7$"):
            build_sequence(r, 7)
        with pytest.raises(ValueError, match="n_chunks must be >= 1"):
            build_sequence(r, 0)


class TestBuildSequence:
    def test_full_shape(self, small_synth):
        seq = build_sequence(small_synth[0], 6)
        assert seq.shape == (6, 4, 64, 64)
        assert seq.min() >= 0.0 and seq.max() <= 1.0

    def test_single_channel_subset(self, small_synth):
        seq = build_sequence(small_synth[0], 6, (Channel.ECG_II,))
        assert seq.shape == (6, 1, 64, 64)

    def test_static_single_chunk(self, small_synth):
        seq = build_sequence(small_synth[0], 1)
        assert seq.shape == (1, 4, 64, 64)

    def test_absent_channel_errors(self):
        r = make_record(channels=(Channel.ECG_II, Channel.ECG_V),
                        samples=np.random.default_rng(0).standard_normal((2, 600)))
        with pytest.raises(Exception, match="absent"):
            build_sequence(r, 3, (Channel.PLETH,))

    @given(n_chunks=st.integers(1, 8), chunk_len=st.integers(2, 300),
           subset=st.permutations(CHANNEL_ORDER).flatmap(
               lambda order: st.integers(1, 4).map(lambda c: order[:c])),
           seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_compositionality_per_chunk(self, n_chunks, chunk_len, subset, seed):
        """tensor[k, c] is the scalogram of chunk k of the c-th subset
        channel, computed on its own, for every chunk count dividing N."""
        n = n_chunks * chunk_len
        r = make_record(n=n, rng=np.random.default_rng(seed))
        seq = build_sequence(r, n_chunks, subset)
        assert seq.shape == (n_chunks, len(subset), 64, 64)
        for k in range(n_chunks):
            for c, chan in enumerate(subset):
                part = r.channel(chan)[k * n // n_chunks:(k + 1) * n // n_chunks]
                assert np.array_equal(seq[k, c], chunk_scalogram(part))

    def test_chunk_independence(self):
        rng = np.random.default_rng(17)
        base = rng.standard_normal((4, 1200))
        r1 = make_record(n=1200, samples=base)
        modified = base.copy()
        modified[:, 400:600] += rng.standard_normal((4, 200))  # chunk 2 only
        r2 = make_record(n=1200, samples=modified)
        s1 = build_sequence(r1, 6)
        s2 = build_sequence(r2, 6)
        assert not np.array_equal(s1[2], s2[2])
        for k in (0, 1, 3, 4, 5):
            np.testing.assert_array_equal(s1[k], s2[k])

    def test_channel_subset_projection(self, small_synth):
        r = small_synth[2]
        full = build_sequence(r, 6)
        ecg_only = build_sequence(r, 6, (Channel.ECG_II,))
        np.testing.assert_array_equal(ecg_only[:, 0], full[:, 0])

    def test_empty_subset_errors(self, small_synth):
        with pytest.raises(ValueError, match="non-empty"):
            build_sequence(small_synth[0], 6, ())


class TestBuildSequences:
    """``harness.build_sequences`` fills the model's tensor in place."""

    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 6])
    def test_bits_of_np_stack(self, small_synth, n_chunks):
        records = small_synth[:5]
        subset = (Channel.PLETH, Channel.ECG_II)
        got = build_sequences(records, n_chunks, subset)
        expected = np.stack([build_sequence(r, n_chunks, subset) for r in records])
        assert got.dtype == expected.dtype == np.float32
        assert got.tobytes() == expected.tobytes()

    def test_holds_one_record_beside_the_tensor(self):
        """Over 8 records the build peaks below the tensor plus one
        ``build_sequence`` call's own peak (its record's tensor and the
        transform's scratch) plus half a record: the sequences are not all
        held twice, and no finished one outlives its copy."""
        rng = np.random.default_rng(4)
        records = [make_record(f"rec-{i}", n=1200, rng=rng) for i in range(8)]
        build_sequence(records[0], 6)  # the kernel spectra are cached
        one = traced_peak(lambda: build_sequence(records[0], 6))
        record_bytes = 6 * 4 * 64 * 64 * 4
        peak = traced_peak(lambda: build_sequences(records, 6, CHANNEL_ORDER))
        assert peak < 8 * record_bytes + one + record_bytes // 2, (peak, one)
