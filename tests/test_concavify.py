import math

import numpy as np
import pytest

from conftest import random_concave_envelope, random_raw_utility
from phara.concavify import concave_envelope
from phara.utility import INF, PharaPiece, PharaUtility


def analytic_tangency(p: float, A: float, gamma: float) -> float:
    """Chord from (p, 0) tangent to c (x - A)^gamma: solve the slope match.

    c (x-A)^g / (x - p) = c g (x-A)^{g-1}  =>  x - A = g (x - p)
    =>  x = (A - g p) / (1 - g).
    """
    return (A - gamma * p) / (1.0 - gamma)


class TestDemoEnvelope:
    def test_kinks(self, demo_envelope):
        assert demo_envelope.kinks == pytest.approx([4.0, 4.4, 12.0, 40.0],
                                                    abs=1e-9)

    def test_tangency(self, demo_envelope):
        assert len(demo_envelope.tangency_points) == 1
        assert demo_envelope.tangency_points[0] == pytest.approx(
            analytic_tangency(12.0, 20.0, 0.5), abs=1e-9)

    def test_chords(self, demo_envelope):
        (c1, c2) = demo_envelope.chords
        lam, k1 = 1.01, math.sqrt(0.24)
        assert c1[:2] == pytest.approx((4.4, 12.0), abs=1e-12)
        assert c1[2] == pytest.approx(lam * math.sqrt(3.04) / 7.6, rel=1e-12)
        assert c2[:2] == pytest.approx((12.0, 28.0), abs=1e-9)
        assert c2[2] == pytest.approx(k1 * math.sqrt(8.0) / 16.0, rel=1e-9)

    def test_majorizes_and_equals_off_chords(self, demo_utility, demo_envelope):
        xs = np.linspace(4.0, 120.0, 4001)
        raw = demo_utility.value(xs)
        env = demo_envelope.envelope.value(xs)
        assert np.all(env >= raw - 1e-12 * np.maximum(1.0, np.abs(raw)))
        outside = demo_envelope.equals_original(xs)
        assert np.allclose(env[outside], raw[outside], rtol=1e-10, atol=1e-10)
        inside = ~outside
        assert np.all(env[inside] >= raw[inside] - 1e-12)
        # strictly above somewhere inside each chord
        for lo, hi, _ in demo_envelope.chords:
            mid = 0.5 * (lo + hi)
            assert demo_envelope.envelope.value(mid) > demo_utility.value(mid)

    def test_concavity_on_grid(self, demo_envelope):
        xs = np.linspace(4.0, 200.0, 2001)
        v = demo_envelope.envelope.value(xs)
        chords = 0.5 * (v[:-2] + v[2:])
        assert np.all(v[1:-1] >= chords - 1e-10 * np.maximum(1.0, np.abs(v[1:-1])))

    def test_slopes_nonincreasing(self, demo_envelope):
        env = demo_envelope.envelope
        slopes = []
        for k in range(env.n_pieces):
            slopes.append(env.gamma_plus(k))
            slopes.append(env.gamma_minus(k + 1))
        slopes = [s for s in slopes if np.isfinite(s)]
        assert all(a >= b - 1e-12 for a, b in zip(slopes, slopes[1:]))

    def test_tangency_slope_continuity(self, demo_envelope):
        env = demo_envelope.envelope
        for x_t in demo_envelope.tangency_points:
            left = env.deriv(x_t, "left")
            right = env.deriv(x_t, "right")
            assert left == pytest.approx(right, rel=1e-9)


class TestContractEnvelope:
    def test_tangency_value(self, contract_envelope):
        assert contract_envelope.tangency_points[0] == pytest.approx(2.0, abs=1e-9)
        assert contract_envelope.tangency_points[0] == pytest.approx(
            analytic_tangency(0.0, 1.0, 0.5), abs=1e-9)

    def test_junction_slopes(self, contract_envelope):
        env = contract_envelope.envelope
        K = 0.5
        m = 0.5 / math.sqrt(1.5)
        assert env.deriv(2.0, "left") == pytest.approx(K, abs=1e-12)
        assert env.deriv(2.0, "right") == pytest.approx(K, abs=1e-12)
        assert env.deriv(2.5, "left") == pytest.approx(m, rel=1e-12)
        assert env.deriv(2.5, "right") == pytest.approx(0.88 * m, rel=1e-12)

    def test_structure(self, contract_envelope):
        env = contract_envelope.envelope
        assert env.n_pieces == 3
        assert env.pieces[0].R == 0.0
        assert contract_envelope.chords == ((0.0, pytest.approx(2.0, abs=1e-9),
                                        pytest.approx(0.5, abs=1e-12)),)
        assert env.kinks() == pytest.approx([0.0, 2.5], abs=1e-9)


class TestGeneralProperties:
    def test_concave_input_is_fixed_point(self, crra_envelope):
        res = concave_envelope(crra_envelope)
        assert res.chords == ()
        assert res.differs_on == ()
        xs = np.geomspace(0.01, 50.0, 500)
        assert np.allclose(res.envelope.value(xs), crra_envelope.value(xs),
                           rtol=1e-12)

    def test_idempotence(self, demo_envelope):
        again = concave_envelope(demo_envelope.envelope)
        assert again.differs_on == ()
        # chord intervals survive unchanged (they are linear pieces now)
        assert len(again.chords) == len(demo_envelope.chords)
        for a, b in zip(again.chords, demo_envelope.chords):
            assert a == pytest.approx(b, rel=1e-10)
        xs = np.linspace(4.0, 150.0, 1500)
        assert np.allclose(again.envelope.value(xs),
                           demo_envelope.envelope.value(xs), rtol=1e-10)

    def test_random_concave_inputs_unchanged(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            u = random_concave_envelope(rng)
            res = concave_envelope(u)
            assert res.differs_on == ()
            hi = u.pieces[-1].a_lo + 20.0
            xs = np.linspace(u.a0, hi, 700)
            assert np.allclose(res.envelope.value(xs), u.value(xs),
                               rtol=1e-9, atol=1e-10)

    def test_least_majorant_against_lines(self, demo_utility, demo_envelope):
        # any line above the raw utility must stay above the envelope

        def tight_intercept(u, c):
            # exact sup of U - c x: piece endpoints plus interior stationary
            # points where the piece slope equals c
            best = -math.inf
            for piece in u.pieces:
                cands = [piece.a_lo]
                if np.isfinite(piece.a_hi):
                    cands.append(piece.a_hi)
                if piece.R != 0.0 and piece.curvature == "concave":
                    if c < piece.slope_lo:
                        x_st = piece.slope_inverse(c)
                        if piece.a_lo < x_st < piece.a_hi:
                            cands.append(x_st)
                for x in cands:
                    val = float(piece.value(x)) - c * x
                    if math.isfinite(val):
                        best = max(best, val)
            return best

        rng = np.random.default_rng(5)
        xs = np.linspace(4.0, 300.0, 3000)
        env = demo_envelope.envelope.value(xs)
        for _ in range(100):
            c = math.exp(rng.uniform(math.log(1e-3), math.log(2.0)))
            d = tight_intercept(demo_utility, c)
            line = c * xs + d
            assert np.all(env <= line + 1e-9 * np.maximum(1.0, np.abs(line)))

    def test_affine_equivariance(self, demo_utility, demo_envelope):
        a, b = 2.7, -3.1
        scaled = concave_envelope(demo_utility.scale_shift(a, b))
        # kink locations are junction points of the input: exactly preserved
        assert scaled.kinks == demo_envelope.kinks
        # the tangency point is a root-find output: ulp-level wiggle allowed
        assert np.allclose(scaled.envelope.partition[:-1],
                           demo_envelope.envelope.partition[:-1],
                           rtol=1e-12, atol=0.0)
        xs = np.linspace(4.0, 120.0, 1200)
        assert np.allclose(scaled.envelope.value(xs),
                           a * demo_envelope.envelope.value(xs) + b,
                           rtol=1e-10, atol=1e-10)

    def test_third_analytic_tangency(self):
        # flat zero on [3, 7), then 1.3 (x-7)^{0.3} from 7
        pieces = (
            PharaPiece(a_lo=3.0, a_hi=7.0, R=0.0, anchor_x=3.0, anchor_u=0.0,
                       anchor_slope=0.0),
            PharaPiece(a_lo=7.0, a_hi=INF, R=0.7, A=7.0, anchor_x=8.0,
                       anchor_u=1.3, anchor_slope=0.3 * 1.3),
        )
        u = PharaUtility(a0=3.0, pieces=pieces)
        res = concave_envelope(u)
        expect = analytic_tangency(3.0, 7.0, 0.3)
        assert res.tangency_points[0] == pytest.approx(expect, rel=1e-11)

    def test_curve_to_curve_common_tangent(self, market):
        # manager stake: sqrt(0.28 x) then sqrt(0.64 (x - 0.5625 B)) above B;
        # the bridging chord is a two-sided tangent with closed-form data:
        # slope s = 0.4 / sqrt(B), contacts at 0.4375 B and 1.5625 B
        from phara.utility import hedge_fund_utility, s_shaped_utility
        pref = s_shaped_utility(reference=0.0, gain_exponent=0.5, a0=0.0)
        u = hedge_fund_utility(pref, omega=0.1, mgmt_fee=0.2, incentive=0.4,
                               floor_mult=0.7, benchmark_mult=2.0, x0=1.0,
                               r=market.r, T=market.T)
        B = 2.0 * math.exp(market.r * market.T)
        res = concave_envelope(u)
        assert len(res.chords) == 1
        lo, hi, slope = res.chords[0]
        assert slope == pytest.approx(0.4 / math.sqrt(B), rel=1e-12)
        assert lo == pytest.approx(0.4375 * B, rel=1e-12)
        assert hi == pytest.approx(1.5625 * B, rel=1e-12)
        assert res.tangency_points == (pytest.approx(lo), pytest.approx(hi))
        # the benchmark kink is swallowed: only the floor remains
        assert res.kinks == [u.a0]

    def test_random_raw_utilities(self):
        # stress the sweep with convex stretches, flats, jumps and up-kinks
        rng = np.random.default_rng(314159)
        for _ in range(200):
            u = random_raw_utility(rng)
            res = concave_envelope(u)
            env = res.envelope
            hi = u.pieces[-1].a_lo + 15.0
            xs = np.linspace(u.a0, hi, 900)
            raw_v = u.value(xs)
            env_v = env.value(xs)
            scale = np.maximum(1.0, np.abs(env_v))
            # majorant
            assert np.all(env_v >= raw_v - 1e-9 * scale)
            # concave
            mid = 0.5 * (env_v[:-2] + env_v[2:])
            assert np.all(env_v[1:-1] >= mid - 1e-9 * scale[1:-1])
            # equals the input off the recorded difference set
            outside = res.equals_original(xs)
            assert np.allclose(env_v[outside], raw_v[outside],
                               rtol=1e-8, atol=1e-8)
            # slope ladder nonincreasing
            slopes = []
            for k in range(env.n_pieces):
                slopes.append(env.gamma_plus(k))
                slopes.append(env.gamma_minus(k + 1))
            finite = [s for s in slopes if np.isfinite(s)]
            assert all(a >= b - 1e-9 * max(a, 1.0)
                       for a, b in zip(finite, finite[1:]))
            # tangent contacts are smooth
            for x_t in res.tangency_points:
                left = env.deriv(x_t, "left")
                assert env.deriv(x_t, "right") == pytest.approx(left, rel=1e-10)
            # chords touch the input at their ends
            for x_c in {x for lo, hi, _ in res.chords for x in (lo, hi)
                        if np.isfinite(x)}:
                raw_c = float(u.value(x_c))
                assert abs(float(env.value(x_c)) - raw_c) <= \
                    1e-10 * max(1.0, abs(raw_c))

    def test_jump_up_bridged(self):
        # value jump at 2 forces a chord over the junction
        pieces = (
            PharaPiece(a_lo=0.0, a_hi=2.0, R=0.5, A=-1.0, anchor_x=0.0,
                       anchor_u=0.0, anchor_slope=0.2),
            PharaPiece(a_lo=2.0, a_hi=INF, R=0.5, A=1.0, anchor_x=2.0,
                       anchor_u=1.0, anchor_slope=0.1),
        )
        u = PharaUtility(a0=0.0, pieces=pieces)
        res = concave_envelope(u)
        assert len(res.chords) >= 1
        xs = np.linspace(0.0, 30.0, 600)
        env = res.envelope.value(xs)
        assert np.all(env >= u.value(xs) - 1e-12)
        chords = 0.5 * (env[:-2] + env[2:])
        assert np.all(env[1:-1] >= chords - 1e-10)

