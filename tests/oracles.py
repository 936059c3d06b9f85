"""Scalar and symbol-by-symbol oracles the tests check the package against.

None of them calls a crest core (``clip``, ``oob_filter``,
``peak_window_suppress``, ``rcf`` or the engine's clip loop) or a demap
kernel: ``reference_signal`` composes the per-sample clip, the per-peak
window loop and a plain ``np.fft`` out-of-band mask, so the Monte Carlo
drivers can be checked end to end against code they do not share.
"""
import numpy as np

from ofdmclip import ClipConfig, constellation, map_bits, papr_db, synthesize, window


def clip_oracle(x, a):
    """Per-sample reference for ``clip``: a sample above its row's level a is
    scaled by a/|x|, and the scale is stepped down one float at a time until
    np.abs puts the sample at or under a.  Returns (y, number of steps)."""
    levels = np.broadcast_to(np.asarray(a, dtype=float), x.shape[:-1])
    y = x.copy()
    steps = 0
    for idx in np.ndindex(x.shape):
        level, mag = levels[idx[:-1]], np.abs(x[idx])
        if mag > level:
            scale = level / mag
            w = x[idx] * scale
            while np.abs(w) > level:
                scale = np.nextafter(scale, 0.0)
                w = x[idx] * scale
                steps += 1
            y[idx] = w
    return y, steps


def peak_suppress_loop(x, mag, thresh, w):
    """Scalar reference for ``_kernels.peak_suppress``: one row at a time,
    one peak at a time, each window added whole in ascending sample order;
    a sample whose envelope b is 0 is left as it is.  Returns (y, number of
    peaks)."""
    n_rows, n = x.shape
    n_win = w.size
    half = (n_win - 1) // 2
    y = np.empty_like(x)
    peaks = 0
    for r in range(n_rows):
        a = thresh[r]
        b = np.zeros(n)
        i = 0
        while i < n:
            m = mag[r, i]
            if m <= a or (i > 0 and mag[r, i - 1] >= m):
                i += 1
                continue
            j = i
            while j + 1 < n and mag[r, j + 1] == m:
                j += 1
            if j == n - 1 or mag[r, j + 1] < m:
                peaks += 1
                depth = 1.0 - a / m
                lo = i - half
                for d in range(n_win):
                    idx = lo + d
                    if 0 <= idx < n:
                        b[idx] += depth * w[d]
            i = j + 1
        for idx in range(n):
            if b[idx] == 0.0:
                y[r, idx] = x[r, idx]
                continue
            env = b[idx] if b[idx] < 1.0 else 1.0
            y[r, idx] = x[r, idx] * (1.0 - env)
    return y, peaks


def nearest_labels_joint(points, constellation):
    """Reference for ``_kernels.nearest_labels``: the squared distance to all
    M points, summed over both axes, and its first minimum."""
    points = points.ravel()
    out = np.empty(points.size, dtype=np.int64)
    cre = constellation.real[None, :]
    cim = constellation.imag[None, :]
    for lo in range(0, points.size, 8192):
        blk = points[lo:lo + 8192]
        d = (blk.real[:, None] - cre) ** 2 + (blk.imag[:, None] - cim) ** 2
        out[lo:lo + 8192] = d.argmin(axis=1)
    return out


def reference_bits(ofdm, seed, i):
    """Symbol i's bits under RNG contract v2: bit j is bit j % 64, counting
    from the low bit, of word j // 64 of numpy's Philox for its bits stream."""
    n = ofdm.n_subcarriers * constellation(ofdm.mod_order).bits_per_symbol
    words = np.random.Philox(key=seed, counter=i << 64).random_raw(-(-n // 64))
    return np.array([int(w) >> b & 1 for w in words for b in range(64)][:n], dtype=np.uint8)


def reference_noise(seed, i, n):
    """Symbol i's n complex normals: Box-Muller on 53-bit uniforms from
    words 2j and 2j + 1 of numpy's Philox for its noise stream."""
    words = np.random.Philox(key=seed | 1 << 64, counter=i << 64).random_raw(2 * n)
    u = (words >> np.uint64(11)) * 2.0 ** -53
    r = np.sqrt(-2 * np.log1p(-u[0::2]))
    t = 2 * np.pi * u[1::2]
    return r * np.cos(t) + 1j * (r * np.sin(t))


def reference_signal(ofdm, cfg: ClipConfig | None, symbol):
    """One symbol's transmitted signal: synthesis, then ``cfg.iterations``
    passes with the level A = rms * 10**(dB/20) of the unclipped signal.  A
    pass is the per-sample clip, followed for ``cf`` by zeroing the
    out-of-band bins of a plain unitary FFT, or the per-peak window loop on
    a fresh |x|.  Every pass runs, also those the engine skips."""
    x = synthesize(symbol, ofdm.oversample)
    if cfg is None:
        return x
    a = np.sqrt(np.mean(np.abs(x) ** 2)) * 10.0 ** (cfg.clip_ratio_db / 20.0)
    w = window(cfg.window, cfg.window_len)
    half = ofdm.n_subcarriers // 2
    for _ in range(cfg.iterations):
        if cfg.strategy == "pw":
            x = peak_suppress_loop(x[None], np.abs(x)[None], np.array([a]), w)[0][0]
            continue
        x = clip_oracle(x, a)[0]
        if cfg.strategy == "cf":
            spectrum = np.fft.fft(x, norm="ortho")
            spectrum[half:x.size - half] = 0.0
            x = np.fft.ifft(spectrum, norm="ortho")
    return x


def reference_papr_db(ofdm, cfg, n_symbols, seed):
    """PAPR (dB) of symbols 0 .. n_symbols - 1, symbol by symbol."""
    return np.array([papr_db(reference_signal(ofdm, cfg, map_bits(reference_bits(ofdm, seed, i),
                                                                  ofdm.mod_order)))
                     for i in range(n_symbols)])


def reference_ser_errors(ofdm, cfg, snr_db, n_symbols, seed):
    """Symbol errors of symbols 0 .. n_symbols - 1, symbol by symbol: symbol
    i's noise, at the variance per sample the SNR sets, goes on the in-band
    bins of a plain unitary FFT, the same variance per bin, and each bin is
    decided by a search over all M points."""
    points = constellation(ofdm.mod_order).points
    k = constellation(ofdm.mod_order).bits_per_symbol
    half = ofdm.n_subcarriers // 2
    errors = 0
    for i in range(n_symbols):
        bits = reference_bits(ofdm, seed, i)
        labels = bits.reshape(-1, k) @ (1 << np.arange(k)[::-1])
        x = reference_signal(ofdm, cfg, points[labels])
        spectrum = np.fft.fft(x, norm="ortho")
        bins = np.concatenate([spectrum[:half], spectrum[x.size - half:]])
        if not np.isposinf(snr_db):
            sigma2 = np.mean(np.abs(x) ** 2) / 10.0 ** (snr_db / 10.0)
            bins = bins + np.sqrt(sigma2 / 2.0) * reference_noise(seed, i, ofdm.n_subcarriers)
        errors += int((nearest_labels_joint(bins, points) != labels).sum())
    return errors
