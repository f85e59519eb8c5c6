import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import CONTRACT, bundled, deriv, same, scale_shift
from corpora import (cara_parts, cara_utility, crra_utility, random_concave_envelope,
                     random_raw_utility)
from phara import concavify
from phara.cli import _parse_utility, load_scenario
from phara.concavify import concave_envelope
from phara.errors import NoConvergence, PharaError
from phara.utility import (INF, PharaPiece, PharaUtility, compose, piecewise_linear_payoff,
                           s_shaped_utility, same_slope)


def analytic_tangency(p: float, A: float, gamma: float) -> float:
    """Chord from (p, 0) tangent to c (x - A)^gamma: solve the slope match.

    c (x-A)^g / (x - p) = c g (x-A)^{g-1}  =>  x - A = g (x - p)
    =>  x = (A - g p) / (1 - g).
    """
    return (A - gamma * p) / (1.0 - gamma)


def _equals_input(res, xs):
    """True where x lies inside none of the envelope's chords."""
    above = np.zeros(xs.shape, dtype=bool)
    for lo, hi, _ in res.chords:
        above |= (xs > lo) & (xs < hi)
    return ~above


def _differs_on(u, res):
    """Open intervals where the envelope lies strictly above the input u:
    each chord less the linear pieces of u it runs along, touching parts
    of one chord merged."""
    out = []
    for lo, hi, slope in res.chords:
        merged = []
        for piece in u.pieces:
            a, b = max(lo, piece.a_lo), min(hi, piece.a_hi)
            if b <= a:
                continue
            if piece.R == 0.0:
                mid = 0.5 * (a + b) if np.isfinite(b) else a + 1.0
                env_v = float(res.envelope.value(mid))
                if (abs(piece.anchor_slope - slope) <= 1e-10 * max(1.0, slope)
                        and abs(float(piece.value(mid)) - env_v)
                        <= 1e-10 * max(1.0, abs(env_v))):
                    continue  # the chord runs along this linear piece
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(b, merged[-1][1]))
            else:
                merged.append((a, b))
        out += merged
    return out


class TestDemoEnvelope:
    def test_kinks(self, demo_envelope):
        assert demo_envelope.envelope.kinks() == pytest.approx(
            [4.0, 4.4, 12.0, 40.0], abs=1e-9)

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
        outside = _equals_input(demo_envelope, xs)
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
        slopes = [s for p in env.pieces for s in (p.slope_lo, p.slope_hi) if np.isfinite(s)]
        assert all(a >= b - 1e-12 for a, b in zip(slopes, slopes[1:]))

    def test_tangency_slope_continuity(self, demo_envelope):
        env = demo_envelope.envelope
        for x_t in demo_envelope.tangency_points:
            left = deriv(env, x_t, "left")
            right = deriv(env, x_t, "right")
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
        assert deriv(env, 2.0, "left") == pytest.approx(K, abs=1e-12)
        assert deriv(env, 2.0, "right") == pytest.approx(K, abs=1e-12)
        assert deriv(env, 2.5, "left") == pytest.approx(m, rel=1e-12)
        assert deriv(env, 2.5, "right") == pytest.approx(0.88 * m, rel=1e-12)

    def test_structure(self, contract_envelope):
        env = contract_envelope.envelope
        assert len(env.pieces) == 3
        assert env.pieces[0].R == 0.0
        assert contract_envelope.chords == ((0.0, pytest.approx(2.0, abs=1e-9),
                                        pytest.approx(0.5, abs=1e-12)),)
        assert env.kinks() == pytest.approx([0.0, 2.5], abs=1e-9)

    @pytest.mark.parametrize("gain", [0.999, 0.9995, 0.9999, 0.999999, 0.999999999])
    def test_nearly_linear_gain_branch(self, tmp_path, gain):
        # the branch (0.88 (x - A2))^gain above 2.5 is so nearly linear that
        # the first slopes the bracket walk tries touch it beyond the doubles;
        # the chord from (0, 0) still meets it at A2 / (1 - gain)
        path = same.write_scenario(tmp_path / "s.json", "participating_contract",
                                   {"utility.preference.gain_exponent": gain})
        res = concave_envelope(load_scenario(path).utility)
        assert [c[:2] for c in res.chords] == [
            (0.0, pytest.approx(analytic_tangency(0.0, CONTRACT.A2, gain), rel=1e-6))]


class TestGeneralProperties:
    def test_concave_input_is_fixed_point(self, crra_envelope):
        res = concave_envelope(crra_envelope)
        assert res.chords == ()
        xs = np.geomspace(0.01, 50.0, 500)
        assert np.allclose(res.envelope.value(xs), crra_envelope.value(xs),
                           rtol=1e-12)

    def test_idempotence(self, demo_envelope):
        again = concave_envelope(demo_envelope.envelope)
        assert _differs_on(demo_envelope.envelope, again) == []
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
            assert _differs_on(u, res) == []
            hi = u.pieces[-1].a_lo + 20.0
            xs = np.linspace(u.a0, hi, 700)
            assert np.allclose(res.envelope.value(xs), u.value(xs),
                               rtol=1e-9, atol=1e-10)

    def test_least_majorant_against_lines(self, demo_utility, demo_envelope):
        # any line above the raw utility must stay above the envelope

        def tight_intercept(u, c):
            # exact sup of U - c x: piece endpoints plus each piece's slope-c
            # contact, the stationary point where a concave piece's slope is c
            best = -math.inf
            for piece in u.pieces:
                cands = [piece.a_lo, piece.contact(c)]
                if np.isfinite(piece.a_hi):
                    cands.append(piece.a_hi)
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
        scaled = concave_envelope(scale_shift(demo_utility, a, b))
        # kink locations are junction points of the input: exactly preserved
        assert scaled.envelope.kinks() == demo_envelope.envelope.kinks()
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

    def test_curve_to_curve_common_tangent(self):
        # manager stake: sqrt(0.28 x) then sqrt(0.64 (x - 0.5625 B)) above
        # the benchmark B = 2 e^{rT}; the bridging chord is a two-sided
        # tangent with closed-form data: slope s = 0.4 / sqrt(B), contacts at
        # 0.4375 B and 1.5625 B
        scn = bundled("hedge_fund")
        u = scn.utility
        B = 2.0 * math.exp(scn.market.r * scn.market.T)
        res = concave_envelope(u)
        assert len(res.chords) == 1
        lo, hi, slope = res.chords[0]
        assert slope == pytest.approx(0.4 / math.sqrt(B), rel=1e-12)
        assert lo == pytest.approx(0.4375 * B, rel=1e-12)
        assert hi == pytest.approx(1.5625 * B, rel=1e-12)
        assert res.tangency_points == (pytest.approx(lo), pytest.approx(hi))
        # the benchmark kink is swallowed: only the floor remains
        assert res.envelope.kinks() == [u.a0]

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
            # equals the input off the chords, and lies strictly above it
            # where a chord leaves the input's linear pieces
            outside = _equals_input(res, xs)
            assert np.allclose(env_v[outside], raw_v[outside],
                               rtol=1e-8, atol=1e-8)
            for lo, hi in _differs_on(u, res):
                if np.isfinite(hi):
                    mid = 0.5 * (lo + hi)
                    assert env.value(mid) > u.value(mid)
            # slope ladder nonincreasing
            finite = [s for p in env.pieces for s in (p.slope_lo, p.slope_hi)
                      if np.isfinite(s)]
            assert all(a >= b - 1e-9 * max(a, 1.0)
                       for a, b in zip(finite, finite[1:]))
            # tangent contacts are smooth
            for x_t in res.tangency_points:
                left = deriv(env, x_t, "left")
                assert deriv(env, x_t, "right") == pytest.approx(left, rel=1e-10)
            # chords touch the input at their ends
            for x_c in {x for lo, hi, _ in res.chords for x in (lo, hi)
                        if np.isfinite(x)}:
                raw_c = float(u.value(x_c))
                assert abs(float(env.value(x_c)) - raw_c) <= \
                    1e-10 * max(1.0, abs(raw_c))

    def test_collinear_chords_merge(self):
        # the chord over the first flat and the chord over the second have
        # the same slope, so they become one chord with no kink between them
        u = _parse_utility(same.BRANCHES["collinear"])
        res = concave_envelope(u)
        assert res.chords == ((0.0, 2.0, 1.0),)
        assert _differs_on(u, res) == [(0.0, 2.0)]
        assert res.tangency_points == ()
        assert res.envelope.kinks() == [0.0, 2.0]

    def test_steep_unbounded_linear_tail(self):
        # sqrt-type arc with slope 1 at 0, then a line of slope 0.9 from 1:
        # the envelope leaves the arc where its slope is 0.9 and runs
        # parallel to the line forever, so demand is unbounded (the solve's
        # error is a row of tests/test_errors.py)
        u = _parse_utility(same.BRANCHES["steep_tail"])
        res = concave_envelope(u)
        x_t = 1.0 / 0.81 - 1.0
        ((lo, hi, slope),) = res.chords
        assert lo == pytest.approx(x_t, rel=1e-12)
        assert (hi, slope) == (INF, 0.9)
        assert res.tangency_points == (lo,)
        assert _differs_on(u, res) == [(lo, INF)]

    def test_jump_up_bridged(self):
        # value jump at 2 forces a chord over the junction
        u = _parse_utility(same.BRANCHES["jump_up"])
        res = concave_envelope(u)
        assert len(res.chords) >= 1
        xs = np.linspace(0.0, 30.0, 600)
        env = res.envelope.value(xs)
        assert np.all(env >= u.value(xs) - 1e-12)
        chords = 0.5 * (env[:-2] + env[2:])
        assert np.all(env[1:-1] >= chords - 1e-10)


@given(st.integers(0, 2**32 - 1), st.floats(-0.5, 1.5))
def test_contact_properties(seed, frac):
    # on each envelope piece, a slope s from frac of the way (in log s) from
    # slope_lo down to slope_hi (at most a factor 1e3 down, a factor e on a
    # line), or past them: the contact lies in the piece,
    # is the end the rule names off the slope range, and where it is interior
    # the slopes one ulp either side bracket s to within the kink rule
    env = concave_envelope(random_raw_utility(seed)).envelope
    for piece in env.pieces:
        top = math.log(max(piece.slope_lo, 1e-300))
        span = math.log(max(piece.slope_hi, 1e-3 * piece.slope_lo, 1e-300)) - top
        s = math.exp(top + frac * (span or -1.0))
        x = piece.contact(s)
        assert piece.a_lo <= x <= piece.a_hi
        if s <= piece.slope_hi:
            assert x == piece.a_hi
        elif s >= piece.slope_lo:
            assert x == piece.a_lo
        elif piece.a_lo < x < piece.a_hi:
            left, right = (float(piece.slope(np.nextafter(x, end))) for end in (-INF, INF))
            assert right <= s or same_slope(right, s)
            assert s <= left or same_slope(s, left)


def _check_envelope(u, res, hi):
    """Majorant, concave, and equal to the input off the chords."""
    xs = np.linspace(u.a0, hi, 4001)
    raw_v, env_v = u.value(xs), res.envelope.value(xs)
    scale = np.maximum(1.0, np.abs(env_v))
    assert np.all(env_v >= raw_v - 1e-9 * scale)
    assert np.all(env_v[1:-1] >= 0.5 * (env_v[:-2] + env_v[2:]) - 1e-9 * scale[1:-1])
    off = _equals_input(res, xs)
    assert np.allclose(env_v[off], raw_v[off], rtol=1e-9, atol=1e-9)


class TestSweepEdges:
    @pytest.mark.parametrize("R", [1.0, 2.0])
    def test_open_domain_branch_is_fixed_point(self, R):
        # U(a0) = -inf: the sweep starts with no anchor point and an empty hull
        u = crra_utility(R)
        res = concave_envelope(u)
        # an equal envelope hashes equal, so the solver's table cache finds it
        assert res.envelope == u and hash(res.envelope) == hash(u) and res.chords == ()

    def test_convex_sliver_one_ulp_wide(self):
        # a convex piece one ulp wide between two concave arcs: the chord
        # over it is shorter than the sweep's 1e-15 resolution and is dropped
        x1 = 1e4
        x2 = math.nextafter(x1, INF)
        head = PharaPiece(a_lo=0.0, a_hi=x1, R=0.5, A=-1.0, anchor_x=0.0,
                          anchor_u=0.0, anchor_slope=1.0)
        sliver = PharaPiece(a_lo=x1, a_hi=x2, R=0.5, A=x2 + 1.0, anchor_x=x1,
                            anchor_u=head.value_hi, anchor_slope=1e-3)
        arc = PharaPiece(a_lo=x2, a_hi=x2 + 2.0, R=2.0, A=x2 - 5.0, anchor_x=x2,
                         anchor_u=sliver.value_hi, anchor_slope=1e-2)
        tail = PharaPiece(a_lo=arc.a_hi, a_hi=INF, R=0.5, A=arc.a_hi - 1.0,
                          anchor_x=arc.a_hi, anchor_u=arc.value_hi,
                          anchor_slope=0.5 * arc.slope_hi)
        u = PharaUtility(a0=0.0, pieces=(head, sliver, arc, tail))
        res = concave_envelope(u)
        assert res.chords
        _check_envelope(u, res, x1 + 10.0)

    def test_dropped_chord_leaves_no_gap(self):
        # a convex sliver two ulps wide, then a concave arc as steep as the
        # sliver's end: the chord onto the arc is too short to keep, so the
        # arc's fragment must start where the hull ends, not at the chord's
        # far end (that left a partition gap of an ulp)
        x1 = 1000.0
        x2 = math.nextafter(math.nextafter(x1, INF), INF)
        head = PharaPiece(a_lo=0.0, a_hi=x1, R=2.0, A=-1.0, anchor_x=0.0,
                          anchor_u=0.0, anchor_slope=1.0)
        sliver = PharaPiece(a_lo=x1, a_hi=x2, R=0.8, A=x2 + 1e-9, anchor_x=x1,
                            anchor_u=head.value_hi, anchor_slope=0.5 * head.slope_hi)
        tail = PharaPiece(a_lo=x2, a_hi=INF, R=0.5, A=x2 - 10.0, anchor_x=x2,
                          anchor_u=sliver.value_hi, anchor_slope=sliver.slope_hi)
        u = PharaUtility(a0=0.0, pieces=(head, sliver, tail))
        res = concave_envelope(u)
        env = res.envelope
        assert all(p.a_hi == q.a_lo for p, q in zip(env.pieces, env.pieces[1:]))
        _check_envelope(u, res, x1 + 10.0)

    def test_chord_touches_the_arc_at_its_start(self):
        # 1 - 1/(x + 1) up to 1, flat for two ulps, then a jump of 1e-12 to a
        # concave arc half as steep: the chord from the head meets the arc
        # at its first point, so the arc is kept whole after the chord
        x1 = 1.0
        x2 = math.nextafter(math.nextafter(x1, INF), INF)
        head = PharaPiece(a_lo=0.0, a_hi=x1, R=2.0, A=-1.0, anchor_x=0.0,
                          anchor_u=0.0, anchor_slope=1.0)
        flat = PharaPiece(a_lo=x1, a_hi=x2, R=0.0, anchor_x=x1,
                          anchor_u=head.value_hi, anchor_slope=0.0)
        arc = PharaPiece(a_lo=x2, a_hi=INF, R=0.5, A=-999.0, anchor_x=x2,
                         anchor_u=head.value_hi + 1e-12, anchor_slope=0.125)
        u = PharaUtility(a0=0.0, pieces=(head, flat, arc))
        res = concave_envelope(u)
        ((lo, hi, slope),) = res.chords
        assert hi == x2 and slope >= arc.slope_lo
        _check_envelope(u, res, 10.0)

    def test_common_tangent_at_an_arc_end(self):
        # the line 0.5 x + 1 touches sqrt gains at 2 and a flatter arc exactly
        # at its right end 8: the chord swallows the whole arc
        u = _parse_utility(same.BRANCHES["arc_end"])
        res = concave_envelope(u)
        ((lo, hi, slope),) = res.chords
        assert (lo, hi, slope) == (pytest.approx(2.0, rel=1e-12),
                                   pytest.approx(8.0, rel=1e-12),
                                   pytest.approx(0.5, rel=1e-12))
        _check_envelope(u, res, 20.0)

    @pytest.mark.parametrize("gain, loss, weight, a0", [
        (0.95, 0.5, 5.0, -1.0), (0.9, 0.2, 5.0, -0.5), (0.95, 0.88, 5.0, -5.0),
        (0.95, 0.5, 2.25, -0.5)])
    def test_support_past_a_chord_slope(self, gain, loss, weight, a0):
        # S-shaped preferences whose nearly linear gains bend so close to the
        # reference 0 that the tangent from a0 has a slope within 1e-9 of the
        # chord over the losses.  Past a chord's slope the chord's left end
        # supports the hull; its right end, taken as a slope tie, lifted the
        # support intercept by up to 1e-9 s (chord length), and the tangent
        # search raised NoConvergence on that jump
        u = s_shaped_utility(reference=0.0, gain_exponent=gain, a0=a0,
                             loss_exponent=loss, loss_weight=weight)
        res = concave_envelope(u)
        ((lo, hi, slope),) = res.chords
        assert lo == a0 and res.tangency_points == (hi,) and 0.0 < hi < 1e-9
        assert slope == pytest.approx(u.pieces[1].slope(hi), rel=1e-9)
        _check_envelope(u, res, 10.0)

    def test_tangency_residual_is_checked(self, monkeypatch, demo_utility):
        # a root-finder that returns the bracket's lower end leaves a gap
        # between the two support lines
        monkeypatch.setattr(concavify, "_newton_root", lambda fn, lo, hi, f_lo, f_hi: lo)
        with pytest.raises(NoConvergence, match="tangency residual"):
            concave_envelope(demo_utility)


def _assert_cara(got, alpha: float, w):
    """got is cara_utility(alpha)'s -e^(-alpha w)/alpha at w, to 1e-9 relative
    plus 4 eps of |U(0)| = 1/alpha: a template anchored at w = 0 cancels its
    anchor value where U has decayed far below it."""
    with np.errstate(over="ignore"):
        exact = -np.exp(-alpha * np.asarray(w, dtype=float)) / alpha
    bound = 1e-9 * np.abs(exact) + 4.0 * np.finfo(float).eps / alpha
    assert np.all(np.abs(got - exact) <= bound), (got, exact)


class TestExponentialAnchors:
    """An exponential branch is anchored at the point of its cell nearest its
    own anchor.  Anchored at a far left end, its value and slope there reach
    1e66 or more, and every value to the right cancels two such numbers."""

    @pytest.mark.parametrize("a0", [-200.0, -20.0])
    def test_cara_envelope_keeps_its_values(self, a0):
        # the envelope read [0, 0, 0] here when the continuing piece was
        # re-anchored at a0
        xs = np.array([0.0, 1.0, 5.0])
        _assert_cara(concave_envelope(cara_utility(2.0, a0)).envelope.value(xs), 2.0, xs)

    def test_concave_piece_list_is_its_own_envelope(self):
        # an exponential head and a power tail that meets it at 5 with its
        # value and slope: no kink at 5 and no chord [5, 8], and the values at
        # 0.16 and 4.36, which read 0, are U's
        head = PharaPiece(a_lo=-20.0, a_hi=5.0, R=INF, anchor_x=0.0, anchor_u=-0.5,
                          anchor_slope=1.0, alpha=2.0)
        tail = PharaPiece(a_lo=5.0, a_hi=INF, R=0.5, A=4.0, anchor_x=5.0,
                          anchor_u=head.value_hi, anchor_slope=head.slope_hi)
        u = PharaUtility(a0=-20.0, pieces=(head, tail))
        res = concave_envelope(u)
        assert res.envelope == u and res.envelope.kinks() == [-20.0] and res.chords == ()
        xs = np.array([0.16, 4.36])
        _assert_cara(res.envelope.value(xs), 2.0, xs)

    @pytest.mark.parametrize("name, xs", [
        # built with value -7.48e50 at 4, 6 and 8
        ("cara_steep", (4.0, 6.0, 8.0)),
        # the envelope raised a bare ValueError in PharaPiece.contact
        ("cara_flat", (0.5, 1.0, 1.65, 1.72, 1.75, 2.0, 5.0))])
    def test_composed_cara_keeps_its_values(self, name, xs):
        # the cara golden group's utilities, from tools/same.py
        pref, pay = same.CARA[name]["preference"], same.CARA[name]["payoff"]
        alpha, a0 = pref["pieces"][0]["alpha"], pref["a0"]
        payoff = piecewise_linear_payoff(pay["floor"], pay["value_lo"], pay["breakpoints"],
                                         pay["slopes"])
        u = compose(cara_utility(alpha, a0), payoff)
        res = concave_envelope(u)
        xs = np.array(xs)
        w = payoff.value(xs)
        _assert_cara(u.value(xs), alpha, w)
        off = _equals_input(res, xs)
        assert off.any()
        _assert_cara(res.envelope.value(xs[off]), alpha, w[off])

    def test_seeded_cara_compositions(self):
        # each draw composes and has an envelope, or raises a PharaError (a
        # bare Python error fails); where it builds, the composed utility and
        # the envelope's curved pieces are the preference at the payoff
        built = 0
        for s in range(1000):
            pref, payoff = cara_parts(s)
            try:
                u = compose(pref, payoff)
                env = concave_envelope(u).envelope
            except PharaError:
                continue
            built += 1
            for piece in u.pieces + tuple(p for p in env.pieces if p.R != 0.0):
                hi = piece.a_hi if np.isfinite(piece.a_hi) else piece.a_lo + 10.0
                xs = piece.a_lo + (hi - piece.a_lo) * np.array([0.13, 0.41, 0.67, 0.93])
                _assert_cara(piece.value(xs), pref.pieces[0].alpha, payoff.value(xs))
        assert built >= 400
