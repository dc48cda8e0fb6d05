import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from alarmsift.records import ANOMALY_FREQ_HZ, FS_DEFAULT
from alarmsift.scalogram import (FLAT_EPS, MORLET, POOL_BLOCK_ROWS, SCALES,
                                 SCALOGRAM_COLS, MorletParams, _kernel_spectra,
                                 _next_fast_len, cwt, fft_length, morlet_wavelet,
                                 pool_columns, to_scalogram)
from conftest import traced_peak

OMEGA0 = 6.0


def direct_cwt(signal, scale, omega0=OMEGA0):
    """Independent O(N*K) oracle: time-domain convolution with the sampled
    analytic Morlet, L2-normalized in scale, support truncated at |u| <= 4a."""
    x = np.asarray(signal, dtype=np.float64)
    half = int(np.floor(4.0 * scale))
    u = np.arange(-half, half + 1, dtype=np.float64)
    kernel = (np.pi ** -0.25 / np.sqrt(scale)) * np.exp(
        1j * omega0 * u / scale - 0.5 * (u / scale) ** 2)
    full = np.convolve(x, kernel)
    return full[half:half + x.size]


class TestLogScales:
    """``SCALES``, the one log-spaced scale grid."""

    def test_default_endpoints(self):
        assert SCALES[0] == 1.0
        assert SCALES[-1] == 128.0
        assert SCALES.size == 64 and not SCALES.flags.writeable

    def test_constant_ratio(self):
        ratios = SCALES[1:] / SCALES[:-1]
        np.testing.assert_allclose(ratios, 2.0 ** (7.0 / 63.0), rtol=1e-12)

    def test_bits_of_the_grid_formula(self):
        """s_min * (s_max / s_min) ** (i / (n - 1)) with n = 64 from 1 to 128
        samples, endpoints pinned: the grid every scalogram has used."""
        i = np.arange(64)
        values = 1.0 * (128.0 / 1.0) ** (i / (64 - 1))
        values[0], values[-1] = 1.0, 128.0
        assert SCALES.dtype == np.float64
        assert SCALES.tobytes() == values.tobytes()


class TestMorletParams:
    def test_default_center_frequency(self):
        p = MorletParams()
        assert p.omega0 == 6.0
        np.testing.assert_allclose(p.fc, 6.0 / (2 * np.pi))

    def test_admissibility_bound(self):
        with pytest.raises(ValueError):
            MorletParams(omega0=4.0)

    def test_scale_frequency_map(self):
        """Scale a has pseudo-frequency fc * fs / a: at 250 Hz the grid spans
        1.87..238.7 Hz, and the synthetic burst's frequency lies inside."""
        freqs = MORLET.fc * FS_DEFAULT / SCALES
        np.testing.assert_allclose([freqs[-1], freqs[0]], [1.8651, 238.73], rtol=1e-4)
        assert freqs[-1] < ANOMALY_FREQ_HZ < freqs[0]


class TestCwt:
    def test_zero_signal_zero_coefficients(self):
        grid = np.geomspace(1.0, 32.0, 8)
        coeffs = cwt(np.zeros(500), grid)
        assert coeffs.shape == (8, 500)
        np.testing.assert_array_equal(np.abs(coeffs), 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(800)
        grid = np.geomspace(2.0, 64.0, 6)
        a = cwt(x, grid)
        b = cwt(3.7 * x, grid)
        np.testing.assert_allclose(b, 3.7 * a, rtol=1e-9)

    def test_rejects_bad_input(self):
        grid = np.geomspace(1.0, 8.0, 4)
        with pytest.raises(ValueError):
            cwt(np.array([1.0]), grid)
        with pytest.raises(ValueError):
            cwt(np.array([1.0, np.nan, 2.0]), grid)

    def test_sinusoid_peak_scale(self):
        fs, f = 250.0, 10.0
        t = np.arange(2500) / fs
        x = np.sin(2 * np.pi * f * t)
        grid = SCALES
        params = MorletParams()
        energy = np.sum(np.abs(cwt(x, grid, params)) ** 2, axis=1)
        peak_idx = int(np.argmax(energy))
        expected = params.fc * fs / f  # ~23.87
        nearest_idx = int(np.argmin(np.abs(grid - expected)))
        assert abs(peak_idx - nearest_idx) <= 1  # within one grid step

    def test_sinusoid_peak_matches_dense_scan(self):
        fs, f = 250.0, 10.0
        t = np.arange(2500) / fs
        x = np.sin(2 * np.pi * f * t)
        grid = SCALES
        energy = np.sum(np.abs(cwt(x, grid)) ** 2, axis=1)
        coarse_peak = grid[int(np.argmax(energy))]
        dense = np.geomspace(1.0, 128.0, 512)
        dense_energy = np.sum(np.abs(cwt(x, dense)) ** 2, axis=1)
        dense_peak = dense[int(np.argmax(dense_energy))]
        step = np.log(grid[1] / grid[0])
        assert abs(np.log(coarse_peak / dense_peak)) <= step

    def test_matches_direct_convolution_oracle(self):
        rng = np.random.default_rng(202)
        for _ in range(20):
            n = int(rng.integers(1050, 4097))
            a_max = min(128.0, (n - 1) / 8.0)
            scale = float(np.exp(rng.uniform(0.0, np.log(a_max))))
            x = rng.standard_normal(n)
            fft_path = cwt(x, np.array([scale]))[0]
            direct = direct_cwt(x, scale)
            err = np.max(np.abs(fft_path - direct)) / np.max(np.abs(direct))
            assert err < 1e-6, f"scale={scale}, n={n}, err={err}"

    def test_oracle_at_tight_fft_length(self):
        """n + M = 2560 + 512 = 3072 is itself a fast length, so the FFT has
        no slack beyond the no-wrap minimum; one sample shorter would let
        the largest kernel wrap into the output window."""
        n, scale = 2560, 128.0
        assert fft_length(n, scale) == n + 4 * int(scale)
        x = np.random.default_rng(2560).standard_normal(n)
        fft_path = cwt(x, SCALES)[-1]
        direct = direct_cwt(x, scale)
        err = np.max(np.abs(fft_path - direct)) / np.max(np.abs(direct))
        assert err < 1e-6, f"err={err}"

    @given(n=st.integers(2, 40000), s_min=st.floats(0.1, 50.0),
           ratio=st.floats(1.01, 400.0), n_scales=st.integers(2, 64))
    @settings(max_examples=200, deadline=None)
    def test_fft_length_leaves_no_wrap(self, n, s_min, ratio, n_scales):
        grid = np.geomspace(s_min, s_min * ratio, n_scales)
        half = math.ceil(4.0 * grid.max())
        nfft = fft_length(n, grid.max())
        assert nfft >= n + half
        assert nfft >= 2 * half + 1

    def test_fast_length_is_scipys(self):
        """The least 11-smooth length, as scipy.fft.next_fast_len gives it,
        for every target from 1 to 65 536."""
        from scipy.fft import next_fast_len
        targets = range(1, 65537)
        assert [_next_fast_len(t) for t in targets] == [next_fast_len(t) for t in targets]

    @given(n=st.integers(2, 3000), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_out_buffer_gives_the_same_coefficients(self, n, seed):
        """With ``out`` the coefficients are a view into it and equal the
        fresh-array result, whatever the buffer held before."""
        rng = np.random.default_rng(seed)
        scales = SCALES
        buf = np.full((64, fft_length(n, 128.0)), np.nan, dtype=np.complex128)
        for x in (rng.standard_normal(n), rng.standard_normal(n)):
            got = cwt(x, scales, out=buf)
            assert np.array_equal(got, cwt(x, scales))
            assert np.shares_memory(got, buf)

    def test_out_buffer_of_wrong_shape_or_dtype_rejected(self):
        x = np.ones(100)
        nfft = fft_length(100, 128.0)
        for bad in (np.empty((64, nfft + 1), complex), np.empty((63, nfft), complex),
                    np.empty((64, nfft)), np.empty((64, nfft), np.complex64)):
            with pytest.raises(ValueError, match="out must be a complex128 array"):
                cwt(x, SCALES, out=bad)
        with pytest.raises(ValueError, match="out must be a complex64 array"):
            cwt(x.astype(np.float32), SCALES,
                out=np.empty((64, nfft), complex))

    def test_cached_kernel_spectra_are_read_only(self):
        """Every transform at one (scales, omega0, FFT length, dtype) reads
        the same cached spectra, so a write to them would corrupt later
        transforms."""
        key = (SCALES.tobytes(), 6.0, fft_length(100, 128.0))
        for dtype in (np.complex64, np.complex128):
            spectra = _kernel_spectra(*key, np.dtype(dtype))
            assert spectra.dtype == dtype
            with pytest.raises(ValueError, match="read-only"):
                spectra[0, 0] = 0.0
        # the complex64 spectra are the complex128 ones, rounded once
        assert np.array_equal(_kernel_spectra(*key, np.dtype(np.complex64)),
                              _kernel_spectra(*key, np.dtype(np.complex128))
                              .astype(np.complex64))

    def test_time_shift_covariance(self):
        rng = np.random.default_rng(5)
        n, delta = 2048, 37
        x = rng.standard_normal(n)
        y = np.zeros(n)
        y[delta:] = x[:-delta]
        scales = np.array([2.0, 8.0, 32.0])
        wx = cwt(x, scales)
        wy = cwt(y, scales)
        margin = int(4 * scales.max()) + delta
        ref = wx[:, margin - delta:n - margin - delta]
        shifted = wy[:, margin:n - margin]
        err = np.max(np.abs(shifted - ref)) / np.max(np.abs(ref))
        assert err < 1e-6


class TestKernelSpectra:
    """``_kernel_spectra`` builds one scale's kernel and FFT at a time."""

    @staticmethod
    def whole_matrix(nfft, dtype):
        """Every truncated kernel in one complex128 (64, L) matrix, then one
        FFT along its rows, rounded once to ``dtype``."""
        offsets = np.arange(nfft)
        offsets = np.where(offsets > nfft // 2, offsets - nfft, offsets).astype(float)
        kernels = np.zeros((SCALES.size, nfft), dtype=np.complex128)
        for i, a in enumerate(SCALES):
            support = np.abs(offsets) <= 4.0 * a
            kernels[i, support] = morlet_wavelet(offsets[support], a, MORLET)
        return np.fft.fft(kernels, axis=1).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("nfft", [777, 1000, 3024, 5544, 8019, 15552])
    def test_rows_equal_a_whole_matrix_fft(self, nfft, dtype):
        got = _kernel_spectra.__wrapped__(SCALES.tobytes(), MORLET.omega0, nfft,
                                          np.dtype(dtype))
        assert got.dtype == dtype
        assert got.tobytes() == self.whole_matrix(nfft, dtype).tobytes()

    def test_build_holds_little_beside_its_result(self):
        """At a 60 s record's FFT length the build peaks below 1.2x its
        complex64 result: no complex128 (64, L) matrix is made."""
        result = []
        peak = traced_peak(lambda: result.append(_kernel_spectra.__wrapped__(
            SCALES.tobytes(), MORLET.omega0, 15552, np.dtype(np.complex64))))
        assert result[0].nbytes == 64 * 15552 * 8
        assert peak < 1.2 * result[0].nbytes, peak / result[0].nbytes

    def test_cache_keeps_the_last_length_only(self):
        """A run builds one chunk length's tensor at a time, so the spectra
        of the length before are not kept."""
        x = np.random.default_rng(0).standard_normal(3000).astype(np.float32)
        assert fft_length(3000, SCALES[-1]) != fft_length(300, SCALES[-1])
        _kernel_spectra.cache_clear()
        cwt(x, SCALES)
        cwt(x[:300], SCALES)
        info = _kernel_spectra.cache_info()
        assert (info.misses, info.currsize) == (2, 1)
        cwt(x[:300], SCALES)
        assert _kernel_spectra.cache_info().hits == info.hits + 1


class TestFloat32Path:
    """A float32 signal is transformed in complex64; anything else in
    complex128, the path the direct-convolution oracle checks."""

    def test_dtype_follows_input(self):
        x = np.random.default_rng(1).standard_normal(700)
        grid = SCALES
        assert cwt(x.astype(np.float32), grid).dtype == np.complex64
        assert cwt(x, grid).dtype == np.complex128
        assert cwt(x.astype(np.float16), grid).dtype == np.complex128
        assert cwt([1, 2, 3, 4], grid).dtype == np.complex128
        assert to_scalogram(cwt(x.astype(np.float32), grid)).dtype == np.float64

    @pytest.mark.parametrize("offset", [0.0, 100.0, 1e4])
    @pytest.mark.parametrize("n", [2500, 15000])
    def test_float32_coefficients_match_float64(self, offset, n):
        """Within 1e-5 of the float64 transform of the same float32 samples,
        relative to its largest magnitude, also on a large DC offset."""
        rng = np.random.default_rng(n + int(offset))
        t = np.arange(n) / 250.0
        x = (offset + np.sin(2 * np.pi * 7.0 * t)
             + 0.3 * rng.standard_normal(n)).astype(np.float32)
        single = cwt(x, SCALES)
        double = cwt(x.astype(np.float64), SCALES)
        err = np.max(np.abs(single - double)) / np.max(np.abs(double))
        assert err < 1e-5, f"err={err}"

    def test_out_buffer_gives_the_same_coefficients(self):
        x = np.random.default_rng(2).standard_normal(900).astype(np.float32)
        buf = np.full((64, fft_length(900, 128.0)), np.nan, dtype=np.complex64)
        got = cwt(x, SCALES, out=buf)
        assert np.shares_memory(got, buf)
        assert np.array_equal(got, cwt(x, SCALES))


class TestToScalogram:
    def test_shape_and_range(self):
        rng = np.random.default_rng(3)
        coeffs = cwt(rng.standard_normal(2500), SCALES)
        s = to_scalogram(coeffs)
        assert s.shape == (64, 64)
        assert s.min() == 0.0
        assert s.max() == 1.0

    def test_flatline_is_all_zero(self):
        coeffs = cwt(np.zeros(2500), SCALES)
        s = to_scalogram(coeffs)
        np.testing.assert_array_equal(s, 0.0)

    @given(coeffs=hnp.arrays(
               np.complex128,
               st.tuples(st.integers(1, 8), st.integers(1, 200)),
               elements=st.complex_numbers(max_magnitude=1e30, allow_nan=False,
                                           allow_infinity=False)))
    @settings(max_examples=200, deadline=None)
    def test_values_span_unit_interval(self, coeffs):
        """Every value lies in [0, 1]; min is 0 and max is 1 unless the pooled
        magnitude is flat, which maps to all zeros.  Magnitudes stay far below
        overflow, as the CWT of float32 samples does."""
        s = to_scalogram(coeffs)
        assert s.shape == (coeffs.shape[0], SCALOGRAM_COLS)
        pooled = pool_columns(np.abs(coeffs), SCALOGRAM_COLS)
        if pooled.max() - pooled.min() < FLAT_EPS:
            assert not s.any()
            return
        assert ((s >= 0.0) & (s <= 1.0)).all()
        assert s.min() == 0.0 and s.max() == 1.0

    def test_pooling_oracle_two_column_bins(self):
        rng = np.random.default_rng(9)
        mag = rng.random((64, 128))
        pooled = pool_columns(mag, 64)
        expected = 0.5 * (mag[:, 0::2] + mag[:, 1::2])
        np.testing.assert_allclose(pooled, expected, rtol=1e-15)

    def test_pooling_uneven_bins(self):
        mag = np.arange(10, dtype=float)[None, :]
        pooled = pool_columns(mag, 3)
        # bins [0:3), [3:6), [6:10)
        np.testing.assert_allclose(pooled[0], [1.0, 4.0, 7.5])

    def test_normalization_idempotent_power_of_two_scale(self):
        rng = np.random.default_rng(4)
        s = to_scalogram(cwt(rng.standard_normal(640), np.geomspace(1.0, 32.0, 16)))
        again = to_scalogram(2.0 * s)
        np.testing.assert_array_equal(again, s)

    def test_normalization_idempotent_any_positive_scale(self):
        rng = np.random.default_rng(4)
        s = to_scalogram(cwt(rng.standard_normal(640), np.geomspace(1.0, 32.0, 16)))
        again = to_scalogram(3.7 * s)
        np.testing.assert_allclose(again, s, atol=1e-14)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            to_scalogram(np.empty((0, 0)))

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128,
                                       np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 3, POOL_BLOCK_ROWS, POOL_BLOCK_ROWS + 1,
                                      2 * POOL_BLOCK_ROWS + 3, 64])
    @pytest.mark.parametrize("cols", [2, 63, 700, 2500])
    def test_blocks_equal_whole_matrix_pooling(self, cols, rows, dtype):
        """Block by block, the image has the bits of the whole magnitude
        matrix pooled and normalised, for fewer rows than a block, one row
        and row counts that are not a multiple of it."""
        rng = np.random.default_rng(cols * 100 + rows)
        coeffs = rng.standard_normal((rows, cols)) * 3.0
        if np.dtype(dtype).kind == "c":
            coeffs = coeffs + 1j * rng.standard_normal((rows, cols))
        coeffs = coeffs.astype(dtype)
        pooled = pool_columns(np.abs(coeffs), SCALOGRAM_COLS)
        lo, hi = pooled.min(), pooled.max()
        expected = np.zeros_like(pooled) if hi - lo < FLAT_EPS else (pooled - lo) / (hi - lo)
        got = to_scalogram(coeffs)
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    def test_cwt_view_equals_whole_matrix_pooling(self):
        """The (64, N) view ``cwt`` returns, rows strided by L, pools block
        by block to the same bits."""
        x = np.random.default_rng(8).standard_normal(2500).astype(np.float32)
        coeffs = cwt(x, SCALES)
        assert not coeffs.flags.c_contiguous
        pooled = pool_columns(np.abs(coeffs), SCALOGRAM_COLS)
        expected = (pooled - pooled.min()) / (pooled.max() - pooled.min())
        assert to_scalogram(coeffs).tobytes() == expected.tobytes()

    def test_allocates_less_than_one_magnitude_matrix(self):
        """A 60 s chunk's (64, 15000) complex64 coefficients are pooled
        holding less than their float32 magnitude matrix (3.7 MiB)."""
        x = np.random.default_rng(3).standard_normal(15000).astype(np.float32)
        coeffs = cwt(x, SCALES)
        peak = traced_peak(lambda: to_scalogram(coeffs))
        assert peak < 64 * 15000 * 4, peak

    @pytest.mark.parametrize("shape", [(100,), (2, 8, 100), ()])
    def test_rejects_coefficients_that_are_not_2d(self, shape):
        with pytest.raises(ValueError, match=r"must be a 2-D \(scales, samples\) "
                                             r"matrix, got shape"):
            to_scalogram(np.ones(shape, dtype=np.complex64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    @pytest.mark.parametrize("row", [0, 5, POOL_BLOCK_ROWS + 2, 63])
    def test_rejects_non_finite_coefficients_by_row(self, bad, row):
        coeffs = cwt(np.random.default_rng(1).standard_normal(500), SCALES).copy()
        coeffs[row, 123] = bad
        with pytest.raises(ValueError, match=f"scale row {row} has non-finite "
                                             f"pooled magnitudes"):
            to_scalogram(coeffs)
