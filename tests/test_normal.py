import numpy as np
import pytest
from scipy.special import ndtr

from conftest import load_tool
from phara import normal


def test_cdf_matches_ndtr():
    x = np.linspace(-40.0, 40.0, 1_600_001)
    ref = ndtr(x)
    got = normal.cdf(x)  # x overwritten
    live = ref >= 1e-300
    assert np.all(np.abs(got[live] - ref[live]) <= 2e-15 * ref[live])
    # below 1e-300 Phi only runs out into zero, never above ndtr
    assert np.all(got[~live] <= 1e-300)


def test_cdf_saturation_and_nan():
    assert normal.cdf(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]
    lower = -np.geomspace(37.5, 1e300, 200)
    upper = np.geomspace(8.5, 1e300, 200)
    assert np.all(normal.cdf(lower) == 0.0)
    assert np.all(normal.cdf(upper) == 1.0)
    got = normal.cdf(np.array([np.nan, 0.0, -np.inf]))
    assert np.isnan(got[0]) and got[1] == 0.5 and got[2] == 0.0


def _cdf_out_of_place(x):
    """The series on gathered copies, each summed by np.polyval's Horner:
    cdf's operations on each element, in their order, in fresh arrays."""
    flat = np.asarray(x, dtype=float).reshape(-1)
    out = (np.sign(flat) + 1.0) * 0.5
    near = np.abs(flat) < normal._X_ONE
    far = (flat > normal._X_ZERO) & (flat <= -normal._X_ONE)
    for mask, y, (alpha, beta, coeffs) in (
            (near, np.abs(flat) * normal._SQRT1_2, normal._NEAR_PIECE),
            (far, flat * -normal._SQRT1_2, normal._FAR_PIECE)):
        y = y[mask]
        s = (y * alpha - beta) / (y + normal._K)
        h = np.polyval(coeffs[::-1], s) * np.exp(-(y * y)) / (y * 4.0 + 2.0)
        step = out[mask] if mask is near else 0.0
        out[mask] = step + (1.0 - 2.0 * step) * h
    return out.reshape(np.shape(x))


def test_cdf_in_place_bit_identical():
    rng = np.random.default_rng(22)
    special = np.array([np.nan, np.inf, -np.inf, 8.3, -8.3, -37.5, -37.49, 0.0, -0.0,
                        5e-324, -5e-324, np.nextafter(8.3, 0.0), np.nextafter(-8.3, 0.0),
                        np.nextafter(-37.5, 0.0)])
    for x in (special, rng.normal(0.0, 12.0, (13, 4096)), rng.uniform(-40.0, 10.0, 99_999),
              np.concatenate([special, rng.normal(0.0, 3.0, 500)])):
        ref = _cdf_out_of_place(x).view(np.uint64)
        y = x.copy()
        assert normal.cdf(y) is y
        assert np.array_equal(y.view(np.uint64), ref)
    # in place only: no x whose flat view would be a copy that loses the
    # results, and no x that is not a float array to overwrite
    x = rng.normal(0.0, 3.0, (8, 6))
    for bad in (np.asfortranarray(x), x[:, ::2], np.arange(4), 0.5, [0.5]):
        with pytest.raises(ValueError, match="x must be a C-contiguous float array"):
            normal.cdf(bad)


def test_pdf():
    assert normal.pdf(0.0) == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-15)
    assert np.all(normal.pdf(np.array([-np.inf, np.inf, 1e200])) == 0.0)


def test_committed_coefficients_match_generator():
    pytest.importorskip("mpmath")
    gen = load_tool("normal_coefficients")
    assert (gen.K, gen.X_ZERO, gen.X_ONE) == (normal._K, normal._X_ZERO, normal._X_ONE)
    tables = gen.tables()
    assert set(tables) == {"_ERFC_NEAR", "_ERFC_FAR"}
    for name, table in tables.items():
        assert table == getattr(normal, name), name


JOINS = (-37.5, -8.3, 8.3)  # zero and the far piece, the two pieces, one


def _around(join):
    """A dense grid across a join: 2000 ulps each way, then steps of 1e-9."""
    ulps = join + np.arange(-2000, 2001) * np.spacing(join)
    return np.unique(np.concatenate([ulps, np.linspace(join - 1e-3, join + 1e-3,
                                                       2_000_001)]))


@pytest.mark.parametrize("join", JOINS)
def test_cdf_nondecreasing_across_joins(join):
    assert np.all(np.diff(normal.cdf(_around(join))) >= 0.0)


@pytest.mark.parametrize("join", JOINS)
def test_cdf_within_band_on_both_sides_of_joins(join):
    x = _around(join)
    ref, got = ndtr(x), normal.cdf(x.copy())
    zero = x <= -37.5  # saturated; Phi is below 5e-308 there
    assert np.all(got[zero] == 0.0) and np.all(ref[zero] < 5e-308)
    live = ~zero
    assert np.all(np.abs(got[live] - ref[live]) <= 2e-15 * ref[live])
