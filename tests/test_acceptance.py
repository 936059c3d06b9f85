"""End-to-end acceptance gates.

Each test prints one ``[acceptance NN] PASS/FAIL`` line (run with ``-s`` to
see them live).  Gate 03 compares the unclipped Nyquist-rate (L=1) QPSK
CCDF at N=64 with an independent QPSK oracle (plain ``np.fft.ifft`` of
random (+-1+-j)/sqrt(2) bins, 100x the symbols) within 3 binomial standard
errors.  The iid-Gaussian closed form 1-(1-e^-g)^N cannot be that reference:
it deviates structurally from constant-modulus QPSK at N=64.  The closed
form is checked where it is exact, on Gaussian bins, in
``test_metrics.py::test_nyquist_ccdf_formula_exact_for_gaussian_bins``.
See README.
"""
import math
import time

import numpy as np
import pytest

from ofdmclip import (SUPPORTED_ORDERS, ClipConfig, OfdmConfig, analyze, ccdf_point_db,
                      clip, constellation, default_threshold_grid, estimate_ccdf,
                      extract_inband, measure_ser, papr_samples, peak_window_suppress,
                      ser_errors, synthesize, threshold_from_ratio)
from ofdmclip import _fork
from ofdmclip.cli import main as cli_main


def report(num, name, ok, detail=""):
    print(f"\n[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def default_unclipped_papr():
    # shared by gates 05 and 08: defaults N=64 L=4 M=8, 1e4 symbols, seed 1
    return papr_samples(OfdmConfig(64, 4, 8), None, 10_000, seed=1)


def test_c01_transform_roundtrip_parseval_and_dft_oracle(rng):
    t0 = time.perf_counter()
    worst_rt, worst_pv, worst_dft = 0.0, 0.0, 0.0
    for size in (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096):
        x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        spectrum = analyze(x)
        back = np.fft.ifft(spectrum, norm="ortho")
        worst_rt = max(worst_rt, np.max(np.abs(back - x)) / np.max(np.abs(x)))
        e_time = np.sum(np.abs(x) ** 2)
        worst_pv = max(worst_pv, abs(np.sum(np.abs(spectrum) ** 2) - e_time) / e_time)
        if size <= 256:
            k = np.arange(size)
            dft = x @ (np.exp(-2j * np.pi * np.outer(k, k) / size) / np.sqrt(size)).T
            worst_dft = max(worst_dft, np.max(np.abs(spectrum - dft)))
    # synthesize/analyze pair including oversampling
    for oversample in (1, 4):
        sym = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        back = extract_inband(analyze(synthesize(sym, oversample)), 64)
        worst_rt = max(worst_rt, np.max(np.abs(back - sym)) / np.max(np.abs(sym)))
    elapsed = time.perf_counter() - t0
    ok = worst_rt <= 1e-10 and worst_pv <= 1e-10 and worst_dft <= 1e-9 and elapsed < 10
    report(1, "transform correctness", ok,
           f"roundtrip={worst_rt:.2e} parseval={worst_pv:.2e} "
           f"dft_oracle={worst_dft:.2e} elapsed={elapsed:.1f}s")


def test_c02_clipping_law_on_a_million_samples(rng):
    t0 = time.perf_counter()
    n = 1_000_000
    x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * rng.uniform(0.1, 2.0, n)
    a = float(np.median(np.abs(x)))
    y = clip(x, a)
    cap_ok = bool(np.all(np.abs(y) <= a))
    small = np.abs(x) <= a
    pass_ok = np.array_equal(y[small], x[small])
    nz = x != 0
    dphi = np.angle(y[nz]) - np.angle(x[nz])
    dphi = (dphi + np.pi) % (2 * np.pi) - np.pi
    phase_ok = float(np.max(np.abs(dphi))) < 1e-12
    idem_ok = np.array_equal(clip(y, a), y)
    elapsed = time.perf_counter() - t0
    ok = cap_ok and pass_ok and phase_ok and idem_ok and elapsed < 5
    report(2, "clipping law", ok,
           f"cap={cap_ok} passthrough={pass_ok} phase={phase_ok} "
           f"idempotent={idem_ok} clipped={np.count_nonzero(~small)} elapsed={elapsed:.1f}s")


def qpsk_oracle_ccdf(rng, n, n_sym, thresholds_db, chunk=20_000):
    """P(PAPR > thr) of unclipped Nyquist-rate QPSK OFDM, independent of ofdmclip.

    Draws random (+-1+-j)/sqrt(2) bins, takes a unitary ``np.fft.ifft`` and
    counts the symbols whose 10*log10(max|x|^2 / mean|x|^2) lies strictly
    above each threshold.
    """
    points = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
    above = np.zeros(len(thresholds_db), dtype=np.int64)
    for lo in range(0, n_sym, chunk):
        rows = min(chunk, n_sym - lo)
        x = np.fft.ifft(points[rng.integers(0, 4, (rows, n))], norm="ortho")
        power = np.abs(x) ** 2
        papr = 10 * np.log10(power.max(axis=1) / power.mean(axis=1))
        above += (papr[:, None] > thresholds_db).sum(axis=0)
    return above / n_sym


def test_c03_unclipped_ccdf_vs_nyquist_formula(rng):
    t0 = time.perf_counter()
    n_sym, n = 100_000, 64
    samples = papr_samples(OfdmConfig(n, 1, 4), None, n_sym, seed=1, workers=2)
    thresholds = default_threshold_grid()
    curve = estimate_ccdf(samples, thresholds)
    elapsed = time.perf_counter() - t0
    t1 = time.perf_counter()
    n_oracle = 100 * n_sym
    oracle = qpsk_oracle_ccdf(rng, n, n_oracle, thresholds)
    oracle_elapsed = time.perf_counter() - t1
    # binomial SE of the difference of two independent estimates
    se = np.sqrt(oracle * (1 - oracle) * (1 / n_sym + 1 / n_oracle))
    sel = oracle >= 1e-3
    z = np.abs(curve.exceed_prob - oracle)[sel] / se[sel]
    # reported only: the iid-Gaussian closed form is not a reference for QPSK
    gamma = 10 ** (thresholds / 10)
    analytic = 1 - (1 - np.exp(-gamma)) ** n
    g_sel = analytic >= 1e-3
    g_se = np.sqrt(analytic * (1 - analytic) / n_sym)[g_sel]
    z_gauss = np.abs(curve.exceed_prob - analytic)[g_sel] / g_se
    ok = bool(np.all(z <= 3.0)) and elapsed < 60
    report(3, "unclipped QPSK CCDF vs independent QPSK oracle", ok,
           f"max|dev|/SE={z.max():.2f} at thr={thresholds[sel][z.argmax()]:.2f} dB "
           f"(limit 3.0, {sel.sum()} thresholds, oracle {n_oracle:.0e} symbols "
           f"in {oracle_elapsed:.1f}s, elapsed={elapsed:.1f}s); "
           f"not asserted: iid-Gaussian 1-(1-e^-g)^{n} deviates by "
           f"{z_gauss.max():.1f} SE at {thresholds[g_sel][z_gauss.argmax()]:.2f} dB")


def qfunc(zv):
    return 0.5 * math.erfc(zv / math.sqrt(2))


def test_c04_qpsk_ser_matches_closed_form():
    t0 = time.perf_counter()
    cfg = OfdmConfig(64, 1, 4)  # L=1: per-sample SNR equals Es/N0 exactly
    n_sym = 15_625  # 1e6 constellation symbols per SNR point
    rows = []
    ok = True
    for snr_db in (0.0, 2.0, 4.0, 6.0, 8.0, 10.0):
        p = qfunc(math.sqrt(10 ** (snr_db / 10)))
        theory = 2 * p - p * p
        if theory < 1e-3:
            continue
        point = measure_ser(cfg, None, snr_db, n_sym, seed=1, workers=2)
        rel = abs(point.ser - theory) / theory
        rows.append(f"{snr_db:g}dB:{rel:.1%}")
        ok = ok and rel <= 0.05
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300
    report(4, "QPSK SER vs closed form (5% rel)", ok,
           f"{' '.join(rows)} elapsed={elapsed:.0f}s")


def test_c05_papr_drops_with_iterations(default_unclipped_papr):
    t0 = time.perf_counter()
    ofdm = OfdmConfig(64, 4, 8)
    mean0 = default_unclipped_papr.mean()
    mean1 = papr_samples(ofdm, ClipConfig(3.0, 1, "cf"), 10_000, seed=1).mean()
    mean5 = papr_samples(ofdm, ClipConfig(3.0, 5, "cf"), 10_000, seed=1).mean()
    gap01 = mean0 - mean1
    gap15 = mean1 - mean5
    elapsed = time.perf_counter() - t0
    ok = gap01 >= 0.3 and gap15 >= 0.3 and elapsed < 120
    report(5, "mean PAPR unclipped > K=1 > K=5", ok,
           f"{mean0:.3f} > {mean1:.3f} > {mean5:.3f} dB "
           f"(gaps {gap01:.2f}, {gap15:.2f} >= 0.3) elapsed={elapsed:.0f}s")


def test_c06_clipping_increases_ser_binomial_test():
    from scipy.stats import binomtest

    t0 = time.perf_counter()
    ofdm = OfdmConfig(64, 4, 8)
    n_sym = 15_625  # 1e6 constellation symbols per arm
    clean = measure_ser(ofdm, None, 10.0, n_sym, seed=1, workers=2)
    clipped = measure_ser(ofdm, ClipConfig(3.0, 5, "cf"), 10.0, n_sym, seed=1, workers=2)
    # one-sided binomial test of the clipped error count against the
    # unclipped empirical rate at 99% confidence
    pvalue = binomtest(clipped.symbol_errors, clipped.symbols_sent,
                       max(clean.ser, 1e-12), alternative="greater").pvalue
    elapsed = time.perf_counter() - t0
    ok = clipped.ser >= clean.ser and pvalue < 0.01
    report(6, "clipping degrades SER (99% binomial)", ok,
           f"unclipped={clean.ser:.2e} clipped={clipped.ser:.2e} "
           f"p={pvalue:.1e} elapsed={elapsed:.0f}s")


def test_c07_modulation_order_trends():
    t0 = time.perf_counter()
    n_sym = 1_563  # ~1e5 constellation symbols per point
    rows = []
    ser_ok = True
    for snr_db in (4.0, 6.0, 8.0, 10.0, 12.0, 14.0):
        ser64 = measure_ser(OfdmConfig(64, 1, 64), None, snr_db, n_sym, seed=1).ser
        ser4 = measure_ser(OfdmConfig(64, 1, 4), None, snr_db, n_sym, seed=1).ser
        rows.append(f"{snr_db:g}dB:{ser64:.4f}>{ser4:.4f}")
        ser_ok = ser_ok and ser64 > ser4
    mean64 = papr_samples(OfdmConfig(64, 4, 64), None, 10_000, seed=1).mean()
    mean4 = papr_samples(OfdmConfig(64, 4, 4), None, 10_000, seed=1).mean()
    papr_ok = mean64 >= mean4 - 0.1
    elapsed = time.perf_counter() - t0
    ok = ser_ok and papr_ok
    report(7, "64-QAM vs QPSK trends", ok,
           f"SER {' '.join(rows)}; mean PAPR {mean64:.3f} vs {mean4:.3f} dB "
           f"elapsed={elapsed:.0f}s")


def test_c08_window_sweep_reduces_papr_and_is_deterministic(
        tmp_path, capsys, default_unclipped_papr):
    t0 = time.perf_counter()
    out1 = str(tmp_path / "sweep1.csv")
    out2 = str(tmp_path / "sweep2.csv")
    assert cli_main(["window-sweep", "--out", out1]) == 0
    assert cli_main(["window-sweep", "--out", out2]) == 0
    capsys.readouterr()
    with open(out1, "rb") as fh:
        bytes1 = fh.read()
    with open(out2, "rb") as fh:
        bytes2 = fh.read()
    deterministic = bytes1 == bytes2
    baseline = ccdf_point_db(default_unclipped_papr)
    rows = [line.split(",") for line in bytes1.decode().strip().split("\n")[1:]]
    reduced = {name: float(q3) < baseline for name, _, q3 in rows}
    elapsed = time.perf_counter() - t0
    ok = deterministic and len(rows) == 5 and all(reduced.values())
    report(8, "window sweep reduces 1e-3 CCDF PAPR", ok,
           f"baseline={baseline:.3f} dB, " +
           " ".join(f"{n}:{q}" for n, q in reduced.items()) +
           f", deterministic={deterministic} elapsed={elapsed:.0f}s")


def test_c09_peak_window_construction(rng):
    t0 = time.perf_counter()
    # isolated synthetic peak lands exactly on A for every window kind
    base = 0.3 * np.exp(1j * np.linspace(0, 3, 64))
    base[40] = 2.0 * np.exp(1j * 1.1)
    exact_ok = True
    for name in ("rect", "hann", "hamming", "blackman", "kaiser", "flattop"):
        y = peak_window_suppress(base, 1.0, name, 11)
        exact_ok = exact_ok and abs(np.abs(y[40]) - 1.0) < 1e-12
    # non-negative windows never amplify, checked over 1e4 random symbols
    ofdm = OfdmConfig(64, 4, 8)
    labels = rng.integers(0, 8, (10_000, 64))
    x = synthesize(constellation(8).points[labels], ofdm.oversample)
    thresh = threshold_from_ratio(x, 3.0)
    mag = np.abs(x)
    monotone_ok = True
    for name in ("rect", "hann", "hamming", "blackman", "kaiser"):
        y = peak_window_suppress(x, thresh, name, 11)
        monotone_ok = monotone_ok and bool(np.all(np.abs(y) <= mag * (1 + 1e-12) + 1e-15))
    elapsed = time.perf_counter() - t0
    ok = exact_ok and monotone_ok
    report(9, "peak-window construction", ok,
           f"isolated_peak_exact={exact_ok} never_amplifies={monotone_ok} "
           f"elapsed={elapsed:.0f}s")


def test_c10_cli_byte_determinism_across_parallelism(tmp_path, capsys, monkeypatch):
    t0 = time.perf_counter()
    runs = []  # children forked, per parallel run

    def counting_forks(run, shares):
        runs.append(len(shares))
        return fork_shares(run, shares)

    fork_shares = _fork.fork_shares
    monkeypatch.setattr(_fork, "fork_shares", counting_forks)
    cases = {
        "ccdf": ["ccdf", "--symbols", "2000", "--seed", "9"],
        "ser": ["ser", "--symbols", "300", "--seed", "9",
                "--snr-start", "4", "--snr-stop", "10", "--snr-step", "3"],
        "window-sweep": ["window-sweep", "--symbols", "1000", "--seed", "9"],
    }
    all_ok = True
    fork_runs = {}
    for name, argv in cases.items():
        outputs = []
        for tag, workers in (("a", "1"), ("b", "2"), ("c", "1")):
            out = str(tmp_path / f"{name}-{tag}.csv")
            before = len(runs)
            assert cli_main(argv + ["--workers", workers, "--out", out]) == 0
            fork_runs[f"{name}-{tag}"] = started = len(runs) - before
            # a --workers 2 run must really fork, or it compares serial with serial
            all_ok = all_ok and started == (workers == "2")
            with open(out, "rb") as fh:
                outputs.append(fh.read())
        all_ok = all_ok and outputs[0] == outputs[1] == outputs[2]
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    report(10, "CLI byte determinism across workers", all_ok,
           f"commands={list(cases)} fork_runs={fork_runs} elapsed={elapsed:.0f}s")


def gray_grid_row_errors(m, n, snr_db):
    """Exact mean and variance of one unclipped L=1 OFDM symbol's symbol
    errors at ``snr_db``, n subcarriers of order ``m``.

    The engine's noise on each axis of a bin has variance P / (2 * snr), P
    the row's mean symbol energy.  A point of 2**k-level axes errs with
    1 - (1 - p_I)(1 - p_Q), p = (neighbours) * Q(d / sigma), d the half-spacing:
    averaged over the levels, the closed form 2(1 - 2**-k) Q(d / sigma).  P
    depends on the row's symbols, so the mean and the second moment are
    taken over the exact distribution of the other symbols' energies:
    the integer multiples of the smallest energy, summed by convolution.
    """
    from scipy.special import erfc

    c = constellation(m)
    energy = np.abs(c.points) ** 2
    units = np.rint(energy / energy.min()).astype(int)
    one = np.bincount(units) / m
    pmf = [np.ones(1)]
    for _ in range(n - 1):
        pmf.append(np.convolve(pmf[-1], one))
    total = np.arange(1, n * units.max() + 1)  # the row's energy in units
    sigma = np.sqrt(total * energy.min() / n / (2 * 10 ** (snr_db / 10)))
    ok = np.ones((total.size + 1, m))  # [t, x]: point x decided right at energy t
    for levels, value in zip(c.axes, (c.points.real, c.points.imag)):
        if levels.size > 1:
            d = np.diff(np.sort(levels)).min() / 2
            outer = np.isclose(np.abs(value), np.abs(levels).max())
            p = (2 - outer) * 0.5 * erfc(d / sigma / np.sqrt(2))[:, None]
            ok[1:] *= 1 - p
    err = 1 - ok
    mean = n * np.mean([pmf[n - 1] @ err[u:u + pmf[n - 1].size, x] for x, u in enumerate(units)])
    # two distinct bins of the row: their errors are independent given the row
    kinds = np.unique(units)
    by_kind = err @ (units[:, None] == kinds)
    pair = sum(pmf[n - 2] @ (by_kind[u + v:u + v + pmf[n - 2].size, i]
                             * by_kind[u + v:u + v + pmf[n - 2].size, j])
               for i, u in enumerate(kinds) for j, v in enumerate(kinds)) / m ** 2
    return mean, mean + n * (n - 1) * pair - mean ** 2


def test_c11_gray_grid_ser_matches_exact_theory():
    # Unclipped, L=1, every order on the default grid.  Fixed before the
    # first run: 40 comparisons (5 orders x 8 points) under a family-wise 1 %
    # two-sided Bonferroni bound, gated where theory expects >= 20 errors, the
    # SE clustered by OFDM symbol; QPSK's gate c04 stays as it is.
    from scipy.stats import norm

    t0 = time.perf_counter()
    n_sym, grid = 20_000, np.arange(0.0, 15.0, 2.0)
    bound = norm.isf(0.01 / (2 * len(SUPPORTED_ORDERS) * grid.size))
    worst, gated, rows = 0.0, 0, []
    for m in SUPPORTED_ORDERS:
        ofdm = OfdmConfig(64, 1, m)
        counts = ser_errors(ofdm, None, grid, n_sym, seed=1, workers=2)
        for snr_db, count in zip(grid, counts):
            mean, var = gray_grid_row_errors(m, ofdm.n_subcarriers, snr_db)
            if n_sym * mean >= 20:
                z = (count - n_sym * mean) / np.sqrt(n_sym * var)
                worst, gated = max(worst, abs(z)), gated + 1
                rows.append(f"{m}@{snr_db:g}:{z:+.2f}")
    elapsed = time.perf_counter() - t0
    ok = gated >= 30 and worst <= bound and elapsed < 120
    report(11, f"Gray-grid SER vs exact theory (|z| <= {bound:.2f})", ok,
           f"gated={gated} worst |z|={worst:.2f} {' '.join(rows)} elapsed={elapsed:.0f}s")


def test_c12_bussgang_clipping_statistics(rng):
    # A soft limiter at A = g * sigma on iid circular complex Gaussian bins
    # with E|x|^2 = sigma^2 gives y = alpha * x + d, d uncorrelated with x
    # (Bussgang), alpha = 1 - e^(-g^2) + (sqrt(pi)/2) g erfc(g), and
    # E|y|^2 = sigma^2 (1 - e^(-g^2)).  Fixed before the first run: 10**6
    # bins, the rng fixture's seed, 4 levels x 2 statistics under a
    # family-wise 1 % two-sided Bonferroni bound on the SE-scaled error.
    from scipy.special import erfc
    from scipy.stats import norm

    t0 = time.perf_counter()
    n, sigma2, gammas = 1_000_000, 2.0, (0.5, 1.0, 1.5, 2.0)
    bound = norm.isf(0.01 / (2 * 2 * len(gammas)))
    x = np.sqrt(sigma2 / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    worst, rows = 0.0, []
    for g in gammas:
        y = clip(x, g * np.sqrt(sigma2))
        alpha = 1 - math.exp(-g * g) + math.sqrt(math.pi) / 2 * g * erfc(g)
        power = sigma2 * (1 - math.exp(-g * g))
        for what, terms, expected in (("alpha", (y * x.conj()).real / sigma2, alpha),
                                      ("E|y|^2", np.abs(y) ** 2, power)):
            z = (terms.mean() - expected) / (terms.std() / math.sqrt(n))
            worst = max(worst, abs(z))
            rows.append(f"{what}@{g:g}:{z:+.2f}")
    elapsed = time.perf_counter() - t0
    ok = worst <= bound and elapsed < 10
    report(12, f"Bussgang clipping statistics (|z| <= {bound:.2f})", ok,
           f"worst |z|={worst:.2f} {' '.join(rows)} elapsed={elapsed:.1f}s")
