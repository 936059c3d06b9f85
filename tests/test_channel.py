import math
import warnings

import numpy as np
import pytest

from ofdmclip import ClipConfig, OfdmConfig, awgn, measure_ser, ser_errors, simulate


def qfunc(z):
    return 0.5 * math.erfc(z / math.sqrt(2))


def qpsk_ser_theory(snr_linear):
    p = qfunc(math.sqrt(snr_linear))
    return 2 * p - p * p


def carrier(n=512):
    return np.exp(1j * np.linspace(0, 40, n))


def test_awgn_infinite_snr_is_noiseless():
    x = carrier()
    assert np.array_equal(awgn(x, float("inf"), seed=3), x)


def test_awgn_deterministic_per_stream():
    x = carrier()
    assert np.array_equal(awgn(x, 10.0, seed=3, stream=7), awgn(x, 10.0, seed=3, stream=7))
    assert not np.array_equal(awgn(x, 10.0, seed=3, stream=7), awgn(x, 10.0, seed=3, stream=8))
    assert not np.array_equal(awgn(x, 10.0, seed=3, stream=7), awgn(x, 10.0, seed=4, stream=7))


def test_awgn_noise_is_its_noise_stream():
    # RNG contract v2: Box-Muller on the first 2 * size words of noise stream 7
    x = carrier(8).reshape(2, 4)
    words = np.random.Philox(key=3 | 1 << 64, counter=7 << 64).random_raw(16)
    u = (words >> np.uint64(11)) * 2.0 ** -53
    r, t = np.sqrt(-2 * np.log1p(-u[0::2])), 2 * np.pi * u[1::2]
    sigma = np.sqrt(np.mean(np.abs(x) ** 2) / 10.0 ** (10.0 / 10.0) / 2.0)
    expected = x + (sigma * (r * np.cos(t) + 1j * (r * np.sin(t)))).reshape(x.shape)
    assert awgn(x, 10.0, seed=3, stream=7).tobytes() == expected.tobytes()


def test_awgn_variance_matches_target():
    x = np.ones(1_000_000, dtype=complex)
    snr_db = 7.0
    noise = awgn(x, snr_db, seed=5) - x
    target = 10 ** (-snr_db / 10)
    measured = np.mean(np.abs(noise) ** 2)
    assert abs(measured - target) < 0.01 * target
    # circular symmetry: equal power in both quadratures
    assert abs(np.mean(noise.real ** 2) - target / 2) < 0.01 * target
    assert abs(np.mean(noise.imag ** 2) - target / 2) < 0.01 * target


def test_awgn_rejects_zero_signal():
    with pytest.raises(ValueError):
        awgn(np.zeros(8, dtype=complex), 10.0, seed=1)


def test_measure_ser_noiseless_is_error_free():
    point = measure_ser(OfdmConfig(64, 4, 16), None, 100.0, 50, seed=2)
    assert point.symbol_errors == 0
    assert point.ser == 0.0
    assert point.symbols_sent == 50 * 64


def test_measure_ser_deterministic_across_workers():
    cfg = OfdmConfig(64, 4, 8)
    clip_cfg = ClipConfig(iterations=2)
    a = measure_ser(cfg, clip_cfg, 9.0, 1200, seed=7, workers=1)
    b = measure_ser(cfg, clip_cfg, 9.0, 1200, seed=7, workers=2)
    assert a == b


def test_qpsk_ser_matches_closed_form_quick(rng):
    # L=1 so per-sample SNR equals Es/N0; 10% tolerance at this sample size
    cfg = OfdmConfig(64, 1, 4)
    for snr_db in (0.0, 4.0, 8.0):
        point = measure_ser(cfg, None, snr_db, 1600, seed=3)
        theory = qpsk_ser_theory(10 ** (snr_db / 10))
        assert abs(point.ser - theory) <= 0.10 * theory


def test_ser_monotone_in_snr():
    cfg = OfdmConfig(64, 1, 8)
    points = [measure_ser(cfg, None, snr, 1600, seed=9) for snr in (2.0, 4.0, 6.0, 8.0)]
    for lo, hi in zip(points, points[1:]):
        se = math.sqrt(max(lo.ser, 1e-9) * (1 - lo.ser) / lo.symbols_sent)
        assert hi.ser <= lo.ser + 2 * se


def test_higher_order_modulation_has_higher_ser():
    snr_db = 8.0
    ser64 = measure_ser(OfdmConfig(64, 1, 64), None, snr_db, 400, seed=4).ser
    ser4 = measure_ser(OfdmConfig(64, 1, 4), None, snr_db, 400, seed=4).ser
    assert ser64 > ser4


def test_clipping_degrades_ser_quick():
    cfg = OfdmConfig(64, 4, 8)
    clipped = measure_ser(cfg, ClipConfig(clip_ratio_db=3.0, iterations=5), 10.0, 1500, seed=6)
    clean = measure_ser(cfg, None, 10.0, 1500, seed=6)
    assert clipped.ser >= clean.ser


def test_lowest_snr_runs_without_overflow():
    # -3000 dB is the lowest point accepted; the RuntimeWarning filter makes
    # any overflow an error, at the largest row power (64-QAM, L = 1) too
    with pytest.raises(ValueError, match="snr_db"):
        ser_errors(OfdmConfig(), None, np.nextafter(-3000.0, -np.inf), 10, seed=1)
    for ofdm in (OfdmConfig(), OfdmConfig(64, 1, 64)):
        for cfg in (None, ClipConfig(3.0, 2, "pw", "flattop", 31)):
            assert 0 < ser_errors(ofdm, cfg, -3000.0, 20, seed=1) <= 20 * 64
    assert np.isfinite(awgn(carrier(), -3000.0, seed=1)).all()
    # +3000 dB is the highest finite point accepted: 10**(snr/10) overflows
    # past +3082 dB
    with pytest.raises(ValueError, match="snr_db"):
        ser_errors(OfdmConfig(), None, np.nextafter(3000.0, np.inf), 10, seed=1)
    assert ser_errors(OfdmConfig(64, 1, 64), None, [3000.0, np.inf], 20, seed=1).tolist() == [0, 0]
    assert np.isfinite(awgn(carrier(), 3000.0, seed=1)).all()


def test_awgn_refuses_an_overflowing_noise_variance():
    # -3000 dB is accepted, but a signal of mean power 1e10 gives a noise
    # variance of 1e3010; the RuntimeWarning filter makes any overflow an error
    with pytest.raises(ValueError, match="snr_db"):
        awgn(np.full(8, 1e5 + 0j), -3000.0, seed=1)
    assert np.isfinite(awgn(np.full(8, 1e-5 + 0j), -3000.0, seed=1)).all()


def test_invalid_args(monkeypatch):
    with pytest.raises(ValueError):
        measure_ser(OfdmConfig(), None, 10.0, 0, seed=1)
    # the SNR input is checked before any symbol is drawn
    with monkeypatch.context() as m:
        m.setattr(simulate, "_draw_labels", None)
        for grid in ([10.0], [], np.array([4.0, 8.0])):
            with pytest.raises(ValueError, match="one SNR point"):
                measure_ser(OfdmConfig(), None, grid, 10, seed=1)
        with pytest.raises(ValueError, match="at least one SNR point"):
            ser_errors(OfdmConfig(), None, [], 10, seed=1)
    for stream in (1.5, -1, 2**64):
        with pytest.raises(ValueError, match="index"):
            awgn(carrier(), 10.0, seed=1, stream=stream)
    with pytest.raises(ValueError, match="seed"):
        awgn(carrier(), 10.0, seed=2**64)
    with pytest.raises(ValueError):
        measure_ser(OfdmConfig(), None, 10.0, 10, seed=-1)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            measure_ser(OfdmConfig(), None, 10.0, 10, seed=1, workers=workers)
    # -3100 dB: a noise power of 1e310 overflows; +5000 dB: 10**(snr/10) does
    for snr_db in (float("nan"), float("-inf"), -3100.0, 5000.0):
        with pytest.raises(ValueError, match="snr_db"):
            measure_ser(OfdmConfig(), None, snr_db, 10, seed=1)
        with pytest.raises(ValueError, match="snr_db"):
            ser_errors(OfdmConfig(), None, [10.0, snr_db], 10, seed=1)
        with pytest.raises(ValueError, match="snr_db"):
            awgn(carrier(), snr_db, seed=1)
    for bad in (np.nan, np.inf, -np.inf):
        signal = carrier()
        signal[3] = bad
        with pytest.raises(ValueError, match="finite"):
            awgn(signal, 10.0, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty"):
            awgn(np.array([], dtype=complex), 10.0, seed=1)
        # a scalar is one sample
        y = awgn(1.0 + 0j, 10.0, seed=1)
        assert y.shape == () and y != 1.0
