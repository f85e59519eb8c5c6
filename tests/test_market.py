import math

import numpy as np
import pytest

from phara.errors import BadDimension, BadTime, DriftBelowRate, SingularVolatility
from phara.market import build_market, sample_kernel_at, standard_normals


def test_theta_demo_market(market):
    # (0.086 - 0.05) / 0.3 = 0.12
    assert market.theta == pytest.approx([0.12], rel=1e-14)
    assert market.theta_norm == pytest.approx(0.12, rel=1e-14)


def test_theta_unit():
    mkt = build_market(r=0.05, mu=[0.35], sigma=[[0.3]], T=10.0)
    assert mkt.theta == pytest.approx([1.0], rel=1e-14)


def test_theta_two_assets_diagonal():
    # solved by hand: 0.04/0.2 and 0.08/0.4
    mkt = build_market(r=0.05, mu=[0.09, 0.13],
                       sigma=[[0.2, 0.0], [0.0, 0.4]], T=5.0)
    assert mkt.theta == pytest.approx([0.2, 0.2], rel=1e-14)


def test_theta_reconstruction_residual():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        sigma = rng.normal(size=(m, m)) * 0.2 + np.eye(m) * 0.5
        mu = 0.05 + np.abs(rng.normal(size=m)) * 0.1 + 1e-3
        mkt = build_market(r=0.05, mu=mu, sigma=sigma, T=3.0)
        resid = np.linalg.norm(mkt.sigma @ mkt.theta - (mkt.mu - mkt.r))
        assert resid <= 1e-12 * max(1.0, np.linalg.norm(mkt.mu - mkt.r))


def test_build_market_errors():
    with pytest.raises(DriftBelowRate):
        build_market(r=0.05, mu=[0.04], sigma=[[0.3]], T=1.0)
    with pytest.raises(SingularVolatility):
        build_market(r=0.05, mu=[0.09, 0.09],
                     sigma=[[0.3, 0.3], [0.3, 0.3]], T=1.0)
    with pytest.raises(BadDimension):
        build_market(r=0.05, mu=[0.09, 0.10], sigma=[[0.3]], T=1.0)
    with pytest.raises(BadDimension):
        build_market(r=0.05, mu=[0.09], sigma=[[0.3]], T=-1.0)
    for kwargs in (dict(mu=[]), dict(mu=[[0.09]]), dict(r=0.0), dict(r=-0.01)):
        with pytest.raises(BadDimension):
            build_market(**{**dict(r=0.05, mu=[0.09], sigma=[[0.3]], T=1.0),
                            **kwargs})


@pytest.mark.parametrize("kwargs, field", [
    (dict(mu=[float("inf")]), "mu entries"),
    (dict(mu=[float("nan")]), "mu entries"),
    (dict(sigma=[[float("inf")]]), "sigma entries"),
    (dict(sigma=[[1e308]]), "sigma entries too large"),
    (dict(T=1e308), "r T"),
    (dict(mu=[1e308]), "|theta|^2 T"),
    (dict(sigma=[[1e-160]]), "|theta|^2 T"),
    (dict(mu=[0.05 + 3.0], T=100.0), "|theta|^2 T"),
], ids=["mu_inf", "mu_nan", "sigma_inf", "sigma_1e308", "T_1e308", "mu_1e308",
        "sigma_1e-160", "theta_squared_T_1e4"])
def test_build_market_ranges(kwargs, field):
    # e^{rT} and e^{|theta|^2 T} stay finite doubles; a non-finite entry or
    # an overflow in sigma sigma^T is named, never computed with
    with pytest.raises(BadDimension) as err:
        build_market(**{**dict(r=0.05, mu=[0.086], sigma=[[0.3]], T=10.0),
                        **kwargs})
    assert field in str(err.value)


def test_build_market_theta_residual():
    # eigenvalue ratio 1e-11 passes the singularity test, but theta ~ 1e6
    # (allowed by the short horizon) misses mu - r by ~1e-10
    sigma = [[0.369804988317233, 0.264464562608578],
             [-0.724478883365859, -0.518105311011219]]
    with pytest.raises(SingularVolatility, match="residual"):
        build_market(r=0.05, mu=[0.976, 0.472], sigma=sigma, T=1e-10)


def test_kernel_at_zero(market):
    # W_0 = 0
    assert market.kernel(0.0, 0.0) == 1.0
    assert market.kernel(0.0, np.zeros(3)).tolist() == [1.0] * 3


def test_kernel_drift_only(market):
    # exponent (r + theta^2/2) * 10 = 0.572
    got = market.kernel(10.0, 0.0)
    assert got == pytest.approx(math.exp(-0.572), rel=1e-13)


def test_kernel_cancellation(market):
    # choose theta.W_t = -(r + theta^2/2) t so the exponent vanishes
    t = 7.0
    theta_w = -(market.r + 0.5 * market.theta_norm**2) * t
    assert market.kernel(t, theta_w) == pytest.approx(1.0, rel=1e-13)


def test_kernel_decreasing_in_theta_w(market):
    vals = market.kernel(2.0, np.linspace(-3.0, 3.0, 41))
    assert np.all(np.diff(vals) < 0.0)


def test_discount(market):
    assert market.discount(0.0) == math.exp(-market.r * market.T)
    assert market.discount(7.5) == pytest.approx(math.exp(-market.r * 2.5), rel=1e-15)
    with pytest.raises(BadTime):
        market.discount(market.T)


def test_risk_direction():
    mkt = build_market(r=0.05, mu=[0.09, 0.13], sigma=[[0.2, 0.0], [0.1, 0.4]], T=5.0)
    assert mkt.sigma.T @ mkt.risk_direction == pytest.approx(mkt.theta, rel=1e-14)
    with pytest.raises(ValueError):
        mkt.risk_direction[0] = 1.0


def test_sampling_discounted_mean(market):
    t, n = 8.0, 100_000
    draws = sample_kernel_at(market, t, n, seed=1234)
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - math.exp(-market.r * t)) <= 3 * se


def test_sampling_deterministic(market):
    a = sample_kernel_at(market, 9.0, 5000, seed=7)
    b = sample_kernel_at(market, 9.0, 5000, seed=7)
    c = sample_kernel_at(market, 9.0, 5000, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_kernel_bad_time(market):
    with pytest.raises(BadTime):
        sample_kernel_at(market, market.T + 0.1, 10, seed=0)


def test_sampling_bad_time(market):
    for t in (0.0, -1.0):
        with pytest.raises(BadTime):
            sample_kernel_at(market, t, 10, seed=0)


def test_normals_counter_based():
    a = standard_normals(42, 100, stream=0)
    b = standard_normals(42, 100, stream=1)
    assert not np.array_equal(a, b)
    assert np.array_equal(standard_normals(42, 100, stream=1), b)
    # Box-Muller draws are standard-normal-ish, and no radius exceeds the one
    # of the smallest uniform, 2^-54
    big = standard_normals(3, 200_000)
    assert abs(big.mean()) < 0.01
    assert abs(big.std() - 1.0) < 0.01
    assert np.abs(big).max() <= math.sqrt(-2.0 * math.log(2.0**-54))


def test_normals_are_the_integer_draws_of_philox():
    # the raw words shifted right by 11 are Generator.integers(0, 2^53)'s;
    # each pair of them, as uniforms (k + 1/2) 2^-53, gives one Box-Muller pair
    key = np.array([77, 3], dtype=np.uint64)
    k = np.random.Generator(np.random.Philox(key=key)).integers(
        0, 1 << 53, size=5002, dtype=np.uint64)
    u = (k + 0.5) * 2.0**-53
    radius, angle = np.sqrt(-2.0 * np.log(u[0::2])), u[1::2] * (2.0 * math.pi)
    pairs = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    assert np.array_equal(standard_normals(77, 5001, stream=3), pairs.reshape(-1)[:5001])


@pytest.mark.parametrize("chunk, n", [(1, 103), (3, 103), (4, 103), (7, 103),
                                      (4096, 40_003), (16_384, 40_003)])
def test_normals_drawn_in_slices(chunk, n):
    # slices from any start, the last one shorter than the others, make up
    # the one-shot draw
    whole = standard_normals(12, n, stream=5)
    parts = [standard_normals(12, min(chunk, n - i), stream=5, start=i)
             for i in range(0, n, chunk)]
    assert np.array_equal(np.concatenate(parts), whole)
    for start in (1, 2, 3, n // 2, n - 5):
        assert np.array_equal(standard_normals(12, 5, stream=5, start=start),
                              whole[start:start + 5])


def test_kernel_drawn_in_slices(market):
    whole = sample_kernel_at(market, 4.0, 20_000, seed=9)
    tail = sample_kernel_at(market, 4.0, 20_000 - 16_384, seed=9, start=16_384)
    assert np.array_equal(tail, whole[16_384:])
