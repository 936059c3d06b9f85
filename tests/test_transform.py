import numpy as np
import pytest

from ofdmclip import (OfdmConfig, analyze, awgn, constellation, embed_spectrum,
                      extract_inband, map_bits, synthesize)


def direct_dft(x):
    """O(N^2) unitary DFT, the independent oracle for analyze()."""
    n = x.shape[-1]
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    return x @ w.T


def random_symbol(rng, n):
    return map_bits(rng.integers(0, 2, 2 * n, dtype=np.uint8), 4).reshape(n)


def test_single_dc_bin_gives_constant_envelope():
    x = synthesize(np.array([1, 0, 0, 0], dtype=complex), 1)
    assert np.allclose(x, 0.5, atol=1e-15)


def test_all_ones_gives_impulse():
    n = 16
    x = synthesize(np.ones(n, dtype=complex), 1)
    expected = np.zeros(n, dtype=complex)
    expected[0] = np.sqrt(n)
    assert np.allclose(x, expected, atol=1e-12)


@pytest.mark.parametrize("oversample", (1, 2, 4, 8))
def test_parseval(rng, oversample):
    sym = random_symbol(rng, 64)
    x = synthesize(sym, oversample)
    e_in = np.sum(np.abs(sym) ** 2)
    e_out = np.sum(np.abs(x) ** 2)
    assert abs(e_out - e_in) <= 1e-10 * e_in


@pytest.mark.parametrize("oversample", (1, 4))
def test_analyze_inverts_synthesize(rng, oversample):
    n = 64
    sym = random_symbol(rng, n)
    spectrum = analyze(synthesize(sym, oversample))
    back = extract_inband(spectrum, n)
    assert np.max(np.abs(back - sym)) < 1e-10
    oob = spectrum[n // 2: n * oversample - n // 2]
    if oob.size:
        assert np.max(np.abs(oob)) < 1e-10


@pytest.mark.parametrize("size", [8, 16, 64, 256, 1024, 4096])
def test_fft_roundtrip_many_sizes(rng, size):
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    back = np.fft.ifft(analyze(x), norm="ortho")
    assert np.max(np.abs(back - x)) <= 1e-10 * np.max(np.abs(x))


@pytest.mark.parametrize("size", [8, 32, 128, 256])
def test_analyze_matches_direct_dft(rng, size):
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    assert np.max(np.abs(analyze(x) - direct_dft(x))) < 1e-9


def test_delta_gives_flat_spectrum():
    x = np.zeros(32, dtype=complex)
    x[0] = 1.0
    assert np.allclose(analyze(x), 1 / np.sqrt(32), atol=1e-14)


def test_linearity(rng):
    x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    y = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    a, b = 2.5 - 1j, -0.75 + 3j
    lhs = analyze(a * x + b * y)
    rhs = a * analyze(x) + b * analyze(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_oversampling_is_trig_interpolation(rng):
    # direct evaluation of the synthesis sum at fractional sample positions,
    # bins above N/2 interpreted as negative frequencies
    n, oversample = 16, 4
    sym = random_symbol(rng, n)
    freqs = np.where(np.arange(n) < n // 2, np.arange(n), np.arange(n) - n)
    t = np.arange(n * oversample) / oversample
    direct = np.exp(2j * np.pi * np.outer(t, freqs) / n) @ sym / np.sqrt(n)
    x = synthesize(sym, oversample)
    assert np.max(np.abs(x * np.sqrt(oversample) - direct)) < 1e-9


def test_batched_last_axis(rng):
    syms = np.stack([random_symbol(rng, 32) for _ in range(5)])
    batch = synthesize(syms, 2)
    rows = np.stack([synthesize(s, 2) for s in syms])
    assert np.array_equal(batch, rows)


@pytest.mark.parametrize("oversample", (1, 4))
@pytest.mark.parametrize("name", ("analyze",))
def test_transforms_write_into_out(rng, name, oversample):
    # only analyze keeps out=; the oversample sets the length it is handed
    n = 32 * oversample
    x = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
    before = x.copy()
    ref = analyze(x)
    fresh = np.empty_like(ref)
    assert analyze(x, out=fresh) is fresh and fresh.tobytes() == ref.tobytes()
    assert x.tobytes() == before.tobytes()
    # the input itself; an FFT in place is exact
    assert analyze(x, out=x) is x and x.tobytes() == ref.tobytes()
    for bad in (np.empty((6, n - 1), complex), np.empty(ref.shape, np.complex64),
                np.empty(ref.shape), ref.tolist()):
        with pytest.raises(ValueError, match="out must be a complex128 array"):
            analyze(before, out=bad)


def test_size_validation():
    with pytest.raises(ValueError):
        synthesize(np.ones(12, dtype=complex), 2)  # not a power of two
    with pytest.raises(ValueError):
        synthesize(np.ones(16, dtype=complex), 3)  # bad oversample factor
    with pytest.raises(ValueError):
        analyze(np.ones(24, dtype=complex))
    with pytest.raises(ValueError):
        extract_inband(np.ones(24, dtype=complex), 16)
    # an N that is not a power of two, N = 0, and a ratio embed_spectrum rejects
    for spectrum, n in ((np.arange(12.0), 3), (np.ones(64), 0), (np.ones(64), 4)):
        with pytest.raises(ValueError):
            extract_inband(spectrum, n)
    for f in (embed_spectrum, synthesize):
        with pytest.raises(ValueError, match="oversample"):
            f(np.ones(16, dtype=complex), 4.0)


@pytest.mark.parametrize("call,match", [
    (lambda: awgn(np.ones(8, complex), [1.0], 1), "snr_db"),
    (lambda: awgn(np.ones(8, complex), np.array([1.0, 2.0]), 1), "snr_db"),
    (lambda: synthesize(1.0 + 0j, 4), "got a scalar"),
    (lambda: embed_spectrum(np.complex128(1.0), 4), "got a scalar"),
    (lambda: analyze(1.0 + 0j), "got a scalar"),
    (lambda: extract_inband(np.array(1.0 + 0j), 4), "got a scalar"),
], ids=["awgn-list", "awgn-grid", "synthesize", "embed_spectrum", "analyze",
        "extract_inband"])
def test_boundary_raises_value_error(call, match):
    # an SNR grid where awgn takes one point, and 0-D inputs to the transforms
    with pytest.raises(ValueError, match=match):
        call()


def test_ofdm_config_validation():
    OfdmConfig(64, 4, 8)
    with pytest.raises(ValueError):
        OfdmConfig(n_subcarriers=48)
    with pytest.raises(ValueError):
        OfdmConfig(oversample=3)
    with pytest.raises(ValueError):
        OfdmConfig(n_subcarriers=1)
    for bad in (5, 32, 4.0, "4", None):
        with pytest.raises(ValueError, match="modulation order"):
            OfdmConfig(64, 4, bad)
    for field, value in (("oversample", 4.0), ("n_subcarriers", 64.0)):
        with pytest.raises(ValueError, match=field):
            OfdmConfig(**{field: value})
    OfdmConfig(64, 4, np.int64(16))
    assert OfdmConfig(64, 4, 8).n_samples == 256
    assert OfdmConfig(np.int64(64), np.int64(4), np.int64(8)).n_samples == 256
