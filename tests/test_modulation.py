import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmclip import (SUPPORTED_ORDERS, ClipConfig, OfdmConfig, constellation, demap_points,
                      map_bits, papr_samples, window)

ROOT2 = np.sqrt(2.0)


def test_bpsk_points():
    c = constellation(2)
    assert np.array_equal(c.points, [1.0 + 0j, -1.0 + 0j])
    assert c.bits_per_symbol == 1


def test_bpsk_bit_one_maps_to_minus_one():
    assert map_bits([1], 2)[0] == -1.0 + 0j


def test_qpsk_gray_table():
    # per-axis reflected Gray, MSB = I axis, bit 0 -> positive amplitude
    expected = {
        (0, 0): (1 + 1j) / ROOT2,
        (0, 1): (1 - 1j) / ROOT2,
        (1, 0): (-1 + 1j) / ROOT2,
        (1, 1): (-1 - 1j) / ROOT2,
    }
    for bits, point in expected.items():
        assert map_bits(list(bits), 4)[0] == pytest.approx(point, abs=1e-15)


def test_8qam_grid_and_scale():
    # 4x2 grid {+-1,+-3} x {+-1}; direct summation gives mean energy 6
    grid = [complex(re, im) for re in (-3, -1, 1, 3) for im in (-1, 1)]
    assert np.mean(np.abs(grid) ** 2) == pytest.approx(6.0)
    pts = constellation(8).points
    key = lambda p: (p.real, p.imag)
    got = sorted(map(complex, pts), key=key)
    expected = sorted((p / np.sqrt(6.0) for p in grid), key=key)
    assert np.allclose(got, expected, atol=1e-15)


@pytest.mark.parametrize("m", SUPPORTED_ORDERS)
def test_unit_average_energy(m):
    pts = constellation(m).points
    assert abs(np.mean(np.abs(pts) ** 2) - 1.0) < 1e-12


@pytest.mark.parametrize("m", SUPPORTED_ORDERS)
def test_points_distinct(m):
    pts = constellation(m).points
    assert len(set(map(complex, pts))) == m


@pytest.mark.parametrize("m", (4, 16, 64))
def test_square_qam_gray_adjacency(m):
    # exhaustive grid scan: neighbouring points differ in exactly one bit
    c = constellation(m)
    side = int(np.sqrt(m))
    levels = np.unique(np.round(c.points.real, 12))
    assert levels.size == side
    label_at = {}
    for lab, p in enumerate(c.points):
        i = int(np.argmin(np.abs(levels - p.real)))
        q = int(np.argmin(np.abs(levels - p.imag)))
        label_at[i, q] = lab
    for (i, q), lab in label_at.items():
        for di, dq in ((1, 0), (0, 1)):
            if (i + di, q + dq) in label_at:
                diff = lab ^ label_at[i + di, q + dq]
                assert bin(diff).count("1") == 1


@pytest.mark.parametrize("m", SUPPORTED_ORDERS)
def test_roundtrip_exact_points(m, rng):
    k = constellation(m).bits_per_symbol
    bits = rng.integers(0, 2, 1200 * k, dtype=np.uint8)
    assert np.array_equal(demap_points(map_bits(bits, m), m), bits)


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from(SUPPORTED_ORDERS), data=st.data())
def test_roundtrip_property(m, data):
    k = constellation(m).bits_per_symbol
    n_groups = data.draw(st.integers(min_value=1, max_value=40))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n_groups * k,
                              max_size=n_groups * k))
    assert np.array_equal(demap_points(map_bits(bits, m), m), np.asarray(bits, np.uint8))


def test_demap_nearest_neighbor():
    noisy = np.array([(0.9 + 0.9j) / ROOT2])
    assert np.array_equal(demap_points(noisy, 4), [0, 0])


def test_demap_tie_breaks_to_lowest_index():
    # midpoint between BPSK points is index 0 -> bit 0
    assert np.array_equal(demap_points(np.array([0.0 + 0j]), 2), [0])
    # midpoint between QPSK labels 00 and 01 (same real part, imag 0)
    mid = np.array([(1 + 0j) / ROOT2])
    assert np.array_equal(demap_points(mid, 4), [0, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_demap_rejects_non_finite_points(bad):
    for m in SUPPORTED_ORDERS:
        with pytest.raises(ValueError, match="finite"):
            demap_points(np.array([0.5 + 0.5j, bad]), m)


@pytest.mark.parametrize("m", SUPPORTED_ORDERS)
def test_empirical_symbol_energy(m, rng):
    k = constellation(m).bits_per_symbol
    bits = rng.integers(0, 2, 100_000 * k, dtype=np.uint8)
    energy = np.mean(np.abs(map_bits(bits, m)) ** 2)
    assert 0.99 <= energy <= 1.01


def test_unsupported_order_rejected():
    for bad in (3, 32, 128, 0, -4, 4.0, 2.5, "4", None, np.float64(8)):
        with pytest.raises(ValueError):
            constellation(bad)
    assert constellation(np.int64(4)) is constellation(4)
    with pytest.raises(ValueError):
        map_bits([0, 1], 32)


BOOL_SIZES = [
    ("window length", lambda: window("hann", True)),
    ("n_subcarriers", lambda: OfdmConfig(True, 4, 8)),
    ("oversample", lambda: OfdmConfig(64, True, 8)),
    ("modulation order", lambda: OfdmConfig(64, 4, True)),
    ("iterations", lambda: ClipConfig(iterations=True)),
    ("window_len", lambda: ClipConfig(window_len=True)),
    ("n_symbols", lambda: papr_samples(OfdmConfig(), None, n_symbols=True, seed=1)),
    ("seed", lambda: papr_samples(OfdmConfig(), None, 4, seed=False)),
    ("workers", lambda: papr_samples(OfdmConfig(), None, 4, seed=1, workers=True)),
]


@pytest.mark.parametrize("field, make", BOOL_SIZES, ids=[field for field, _ in BOOL_SIZES])
def test_bool_sizes_are_rejected(field, make):
    # bool is an int subclass, so operator.index(True) is 1
    with pytest.raises(ValueError, match=f"{field} must be an integer, got (True|False)"):
        make()


def test_bit_length_must_divide():
    with pytest.raises(ValueError):
        map_bits([0, 1, 0], 4)
    # bit values other than 0 and 1
    for bits, m in (([0, 0, 1, 2], 16), ([2, 0, 0], 8), ([0, -1], 4), ([0.5], 2)):
        with pytest.raises(ValueError, match="0 or 1"):
            map_bits(bits, m)


def test_documented_tables_match_code():
    # docs/constellations.md is the interop contract; keep it in sync
    import pathlib
    import re

    doc = pathlib.Path(__file__).resolve().parents[1] / "docs" / "constellations.md"
    text = doc.read_text()
    for section in re.split(r"^## ", text, flags=re.M)[1:]:
        m = int(section.split("\n", 1)[0].split("=")[1])
        c = constellation(m)
        rows = re.findall(r"^\| ([01]+) \| ([+-][\d.]+) \| ([+-][\d.]+) \|",
                          section, flags=re.M)
        assert len(rows) == m
        for bits, re_s, im_s in rows:
            assert len(bits) == c.bits_per_symbol
            p = c.points[int(bits, 2)]
            assert p.real == pytest.approx(float(re_s), abs=1e-12)
            assert p.imag == pytest.approx(float(im_s), abs=1e-12)
