import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_concave_envelope, random_raw_utility
from phara.errors import AtKink, IllegalCase, OutOfDomain, PharaError
from phara.presets import CONTRACT_PARAMS
from phara.utility import (INF, NEG_INF, PharaPiece, PharaUtility,
                           PiecewiseLinearPayoff, cara_utility, compose,
                           crra_utility, hedge_fund_utility, s_shaped_utility)


def _s_shape(w, reference, g, q=None, lam=1.0):
    """The S-shaped preference by its direct formula."""
    q = g if q is None else q
    w = np.asarray(w, dtype=float)
    gain = np.abs(w - reference) ** g
    loss = -lam * np.abs(reference - w) ** q
    return np.where(w >= reference, gain, loss)


def _template(R, A, alpha, x_hat=2.0, u=7.0, gamma=1.5, a_lo=1.0, a_hi=INF):
    return PharaPiece(a_lo=a_lo, a_hi=a_hi, R=R, A=A, alpha=alpha,
                      anchor_x=x_hat, anchor_u=u, anchor_slope=gamma)


_ALL_CASES = [(0.0, NEG_INF, None), (1.0, 0.5, None), (0.7, 0.5, None),
              (3.0, 0.5, None), (INF, NEG_INF, 0.8)]


class TestTemplate:
    def test_linear_case(self):
        assert _template(0.0, NEG_INF, None, x_hat=1.0, u=5.0, gamma=2.0,
                         a_lo=0.0).value(3.0) == 9.0

    def test_log_case(self):
        got = _template(1.0, 0.0, None, x_hat=1.0, u=0.0, gamma=3.0,
                        a_lo=0.5).value(math.e)
        assert got == pytest.approx(3.0, rel=1e-14)

    def test_anchoring_all_cases(self):
        # the template returns u at the anchor in every branch
        for R, A, alpha in _ALL_CASES:
            assert _template(R, A, alpha).value(2.0) == 7.0

    def test_anchor_slope_all_cases(self):
        for R, A, alpha in _ALL_CASES:
            got = _template(R, A, alpha).slope(2.0)
            assert got == pytest.approx(1.5, rel=1e-14)

    def test_illegal_cases(self):
        nan = float("nan")
        cases = [
            dict(R=0.5, A=2.0, alpha=None, a_lo=2.0),        # anchor == A
            dict(R=INF, A=1.0, alpha=0.5),                   # finite A
            dict(R=INF, A=NEG_INF, alpha=None),              # no alpha
            dict(R=INF, A=NEG_INF, alpha=0.0),
            dict(R=INF, A=NEG_INF, alpha=INF),
            dict(R=INF, A=NEG_INF, alpha=nan),
            dict(R=0.5, A=0.0, alpha=None, gamma=-1.0),      # bad slope
            dict(R=0.5, A=0.0, alpha=None, gamma=0.0),       # flat only if linear
            dict(R=0.5, A=0.0, alpha=None, gamma=nan),
            dict(R=0.0, A=NEG_INF, alpha=None, gamma=-1.0),
            dict(R=0.0, A=NEG_INF, alpha=None, gamma=nan),
            dict(R=-0.5, A=0.0, alpha=None),                 # R < 0
            dict(R=nan, A=0.0, alpha=None),
            dict(R=0.5, A=NEG_INF, alpha=None),              # power needs finite A
            dict(R=0.5, A=nan, alpha=None),
            dict(R=0.5, A=1.5, alpha=None, a_hi=3.0),        # A inside the cell
            dict(R=0.5, A=4.0, alpha=None, x_hat=4.0, a_hi=4.0),  # anchor at A
            dict(R=0.0, A=NEG_INF, alpha=None, u=nan),       # anchor value
            dict(R=0.0, A=NEG_INF, alpha=None, u=INF),
            dict(R=0.0, A=NEG_INF, alpha=None, x_hat=INF),   # anchor point
            dict(R=0.0, A=NEG_INF, alpha=None, x_hat=0.5),   # anchor outside
            dict(R=0.0, A=NEG_INF, alpha=None, a_hi=1.0),    # empty cell
            dict(R=0.0, A=NEG_INF, alpha=None, a_lo=NEG_INF),
        ]
        for kwargs in cases:
            with pytest.raises(IllegalCase):
                _template(**kwargs)

    def test_restrict_keeps_branch(self, demo_utility):
        for piece in demo_utility.pieces + crra_utility(0.5).pieces:
            hi = piece.a_hi if math.isfinite(piece.a_hi) else piece.a_lo + 9.0
            mid = 0.5 * (piece.a_lo + hi)
            for lo in (piece.a_lo, piece.a_lo + 0.25 * (hi - piece.a_lo)):
                part = piece.restrict(lo, piece.a_hi)
                assert (part.a_lo, part.a_hi, part.R, part.A, part.alpha) == \
                    (lo, piece.a_hi, piece.R, piece.A, piece.alpha)
                assert part.value(mid) == pytest.approx(piece.value(mid), rel=1e-13)
                assert part.slope(mid) == pytest.approx(piece.slope(mid), rel=1e-13)


class TestEval:
    def test_demo_plateau_value(self, demo_utility):
        # at the second plateau start the right branch value (zero) wins
        assert demo_utility.value(12.0) == 0.0
        assert demo_utility.value(11.999999) < 0.0

    def test_contract_at_guarantee(self, contract_utility):
        assert contract_utility.value(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_crra_derivative_both_sides(self):
        u = crra_utility(0.5)
        for x in (0.3, 1.0, 7.7):
            assert u.deriv(x, "left") == pytest.approx(x**-0.5, rel=1e-14)
            assert u.deriv(x, "right") == pytest.approx(x**-0.5, rel=1e-14)

    def test_right_derivative_matches_finite_difference(self, demo_utility):
        for a_k in demo_utility.interior_points:
            got = demo_utility.deriv(float(a_k), "right")
            if not math.isfinite(got):
                continue  # square-root branch rooted exactly at a_k
            h = 1e-7 * max(1.0, a_k)
            fd = (demo_utility.value(a_k + h) - demo_utility.value(a_k)) / h
            assert got == pytest.approx(fd, rel=5e-6, abs=1e-9)

    def test_monotone_on_grid(self, demo_utility, contract_utility):
        for u in (demo_utility, contract_utility):
            span = u.pieces[-1].a_lo - u.a0
            xs = np.linspace(u.a0, u.pieces[-1].a_lo + 10 * span, 1000)
            vals = u.value(xs)
            assert np.all(np.diff(vals) >= -1e-12)

    def test_bad_derivative_side(self, demo_utility):
        with pytest.raises(PharaError):
            demo_utility.deriv(5.0, "middle")

    def test_out_of_domain(self, demo_utility):
        with pytest.raises(OutOfDomain):
            demo_utility.value(3.9)
        with pytest.raises(OutOfDomain):
            crra_utility(0.5).value(0.0)  # a0 excluded

    def test_value_at_a0(self, demo_utility):
        assert demo_utility.value(4.0) == demo_utility.value_at_a0
        assert crra_utility(2.0).value_at_a0 == NEG_INF


class TestAra:
    def test_linear_zero(self, demo_utility):
        assert demo_utility.ara(5.0) == 0.0

    def test_cara_constant(self):
        u = cara_utility(2.0)
        assert u.ara(3.0) == 2.0
        assert u.ara(-10.0) == 2.0

    def test_hyperbolic(self):
        piece = PharaPiece(a_lo=5.0, a_hi=INF, R=0.5, A=4.0, anchor_x=5.0,
                           anchor_u=0.0, anchor_slope=1.0)
        u = PharaUtility(a0=5.0, pieces=(piece,))
        assert u.ara(6.0) == pytest.approx(0.25, rel=1e-14)

    def test_crra_exact(self):
        u = crra_utility(0.5)
        for x in (0.5, 2.0, 9.0):
            assert u.ara(x) == 0.5 / x

    def test_at_kink(self, demo_utility):
        with pytest.raises(AtKink):
            demo_utility.ara(12.0)


class TestCompose:
    def test_contract_branch_parameters(self, contract_utility):
        gamma = CONTRACT_PARAMS["gamma"]
        alpha = CONTRACT_PARAMS["wealth_share"]
        delta = CONTRACT_PARAMS["bonus_share"]
        L = CONTRACT_PARAMS["guarantee"]
        assert [p.a_lo for p in contract_utility.pieces] == [0.0, L, L / alpha]
        flat, mid, top = contract_utility.pieces
        assert flat.is_flat
        assert mid.R == pytest.approx(1.0 - gamma)
        assert mid.A == pytest.approx(L)
        assert top.R == pytest.approx(1.0 - gamma)
        assert top.A == pytest.approx((1 - delta) * L / (1 - delta * alpha),
                                      rel=1e-14)
        # branch values against the direct composition formula
        assert contract_utility.value(2.0) == pytest.approx(1.0, rel=1e-12)
        x = 4.0
        expect = ((1 - delta * alpha) * x - (1 - delta) * L) ** gamma
        assert contract_utility.value(x) == pytest.approx(expect, rel=1e-12)

    def test_identity_payoff_returns_preference(self, demo_utility):
        payoff = PiecewiseLinearPayoff.identity(domain_lo=4.0)
        assert compose(demo_utility, payoff) is demo_utility

    def test_hedge_fund_kinks(self, market):
        pref = s_shaped_utility(reference=0.0, gain_exponent=0.5, a0=0.0)
        u = hedge_fund_utility(pref, omega=0.1, mgmt_fee=0.2, incentive=0.4,
                               floor_mult=0.7, benchmark_mult=2.0, x0=1.0,
                               r=market.r, T=market.T)
        floor = 0.7 * math.exp(0.05 * 10.0)
        benchmark = 2.0 * math.exp(0.05 * 10.0)
        assert u.a0 == pytest.approx(floor, rel=1e-14)
        assert u.kinks() == pytest.approx([floor, benchmark], rel=1e-12)

    def test_compose_matches_pointwise(self, contract_utility):
        payoff = PiecewiseLinearPayoff(domain_lo=0.0, value_lo=0.0,
                                       breakpoints=(1.0, 2.5),
                                       slopes=(0.0, 1.0, 0.88))
        xs = np.linspace(0.0, 12.0, 1000)
        direct = _s_shape(payoff.value(xs), 0.0, 0.5)
        built = contract_utility.value(xs)
        assert np.allclose(built, direct, rtol=1e-12, atol=1e-12)

    def test_phara_preference_compose(self):
        pref = crra_utility(0.5)
        payoff = PiecewiseLinearPayoff(domain_lo=0.0, value_lo=0.1,
                                       breakpoints=(2.0,), slopes=(0.5, 2.0))
        u = compose(pref, payoff)
        xs = np.linspace(0.0, 8.0, 400)
        direct = pref.value(payoff.value(xs))
        assert np.allclose(u.value(xs), direct, rtol=1e-12)

    def test_loss_branch_is_convex(self):
        pref = s_shaped_utility(reference=1.0, gain_exponent=0.5, a0=0.0,
                                loss_weight=2.25)
        payoff = PiecewiseLinearPayoff.identity(domain_lo=0.0)
        u = compose(pref, payoff)
        assert [p.a_lo for p in u.pieces] == [0.0, 1.0]
        assert u.pieces[0].curvature == "convex"
        xs = np.linspace(0.0, 3.0, 300)
        direct = _s_shape(xs, 1.0, 0.5, lam=2.25)
        assert np.allclose(u.value(xs), direct, rtol=1e-12, atol=1e-12)

    def test_payoff_values_property(self):
        payoff = PiecewiseLinearPayoff(domain_lo=0.0, value_lo=0.0,
                                       breakpoints=(1.0, 2.5),
                                       slopes=(0.0, 1.0, 0.88))
        assert payoff.values == pytest.approx((0.0, 1.5))

    def test_payoff_below_preference_domain(self):
        pref = crra_utility(0.5)  # open domain (0, inf)
        payoff = PiecewiseLinearPayoff(domain_lo=0.0, value_lo=-1.0,
                                       breakpoints=(), slopes=(1.0,))
        with pytest.raises(OutOfDomain):
            compose(pref, payoff)
        with pytest.raises(OutOfDomain):
            compose(pref, PiecewiseLinearPayoff.identity(domain_lo=-1.0))

    def test_preference_branch_anchored_at_cell_end(self, demo_utility):
        # the cell [20, 40) has its benchmark at its left end, so it is
        # anchored at 40, where the preference's next piece has another slope
        payoff = PiecewiseLinearPayoff(domain_lo=5.0, value_lo=5.0,
                                       breakpoints=(), slopes=(1.0,))
        u = compose(demo_utility, payoff)
        assert u.a0 == 5.0
        assert [p.a_lo for p in u.pieces] == [5.0, 8.96, 12.0, 20.0, 40.0]
        xs = np.linspace(5.0, 80.0, 751)
        direct = demo_utility.value(xs)
        assert np.all(np.abs(u.value(xs) - direct)
                      <= 1e-12 * np.maximum(1.0, np.abs(direct)))

    def test_payoff_validation(self):
        with pytest.raises(IllegalCase):
            PiecewiseLinearPayoff(domain_lo=0.0, value_lo=0.0,
                                  breakpoints=(2.0, 1.0), slopes=(1, 1, 1))
        with pytest.raises(IllegalCase):
            PiecewiseLinearPayoff(domain_lo=0.0, value_lo=0.0,
                                  breakpoints=(1.0,), slopes=(1.0, -0.2))


class TestScaleShift:
    def test_identity(self, demo_utility):
        u = demo_utility.scale_shift(1.0, 0.0)
        xs = np.linspace(4.0, 80.0, 200)
        assert np.allclose(u.value(xs), demo_utility.value(xs), rtol=0, atol=0)

    def test_slopes_doubled(self):
        u = crra_utility(0.5)
        v = u.scale_shift(2.0, 0.0)
        for x in (0.5, 1.0, 3.0):
            assert v.deriv(x, "right") == pytest.approx(2 * u.deriv(x, "right"),
                                                        rel=1e-14)

    def test_affine_values(self, demo_utility):
        v = demo_utility.scale_shift(3.0, -1.0)
        xs = np.linspace(4.0, 100.0, 500)
        assert np.allclose(v.value(xs), 3.0 * demo_utility.value(xs) - 1.0,
                           rtol=1e-13, atol=1e-12)

    def test_structure_preserved(self, demo_utility):
        v = demo_utility.scale_shift(2.5, 4.0)
        assert np.array_equal(v.partition, demo_utility.partition)
        assert [p.is_flat for p in v.pieces] == \
            [p.is_flat for p in demo_utility.pieces]
        assert v.kinks() == demo_utility.kinks()

    def test_negative_scale_rejected(self, demo_utility):
        with pytest.raises(IllegalCase):
            demo_utility.scale_shift(-1.0, 0.0)


class TestValidation:
    def test_benchmark_inside_cell_rejected(self):
        with pytest.raises(IllegalCase):
            PharaPiece(a_lo=0.0, a_hi=2.0, R=0.5, A=1.0, anchor_x=0.0,
                       anchor_u=0.0, anchor_slope=1.0)

    def test_partition_gap_rejected(self):
        p1 = PharaPiece(a_lo=0.0, a_hi=1.0, R=0.0, anchor_x=0.0,
                        anchor_u=0.0, anchor_slope=1.0)
        p2 = PharaPiece(a_lo=1.5, a_hi=INF, R=0.5, A=0.0, anchor_x=2.0,
                        anchor_u=2.0, anchor_slope=0.5)
        with pytest.raises(IllegalCase):
            PharaUtility(a0=0.0, pieces=(p1, p2))

    def test_decreasing_jump_rejected(self):
        p1 = PharaPiece(a_lo=0.0, a_hi=1.0, R=0.0, anchor_x=0.0,
                        anchor_u=0.0, anchor_slope=1.0)
        p2 = PharaPiece(a_lo=1.0, a_hi=INF, R=0.5, A=0.0, anchor_x=1.0,
                        anchor_u=-1.0, anchor_slope=0.5)
        with pytest.raises(IllegalCase):
            PharaUtility(a0=0.0, pieces=(p1, p2))

    def test_single_piece_accepted(self):
        # one global cell is fine: every kink weight downstream vanishes
        u = crra_utility(0.8)
        assert u.n_pieces == 1


class TestSShaped:
    def test_matches_formula(self):
        # a0 below, at and above the reference point
        for a0 in (-2.0, 1.0, 3.5):
            for q, lam in ((None, 1.0), (0.3, 2.25)):
                u = s_shaped_utility(reference=1.0, gain_exponent=0.6, a0=a0,
                                     loss_exponent=q, loss_weight=lam)
                assert u.a0 == a0 and u.value_at_a0 == u.value(a0)
                assert u.n_pieces == (2 if a0 < 1.0 else 1)
                xs = a0 + np.linspace(0.0, 10.0, 501)
                direct = _s_shape(xs, 1.0, 0.6, q, lam)
                assert np.all(np.abs(u.value(xs) - direct)
                              <= 1e-12 * np.maximum(1.0, np.abs(direct)))

    def test_illegal_parameters(self):
        for kwargs in (dict(gain_exponent=0.0), dict(gain_exponent=1.0),
                       dict(gain_exponent=1.5), dict(gain_exponent=float("nan")),
                       dict(loss_exponent=0.0), dict(loss_exponent=1.2),
                       dict(loss_weight=0.0), dict(loss_weight=-1.0)):
            args = {**dict(reference=0.0, gain_exponent=0.5, a0=-1.0), **kwargs}
            with pytest.raises(IllegalCase):
                s_shaped_utility(**args)


@st.composite
def _payoffs(draw, a0: float) -> PiecewiseLinearPayoff:
    """0-2 breakpoints, flat or rising slopes, floor value at or above a0."""
    n = draw(st.integers(0, 2))
    lo = draw(st.floats(-3.0, 3.0))
    gaps = draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
    lift = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    slopes = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 3.0)),
                           min_size=n + 1, max_size=n + 1))
    return PiecewiseLinearPayoff(domain_lo=lo, value_lo=a0 + lift,
                                 breakpoints=tuple(lo + np.cumsum(gaps)),
                                 slopes=tuple(slopes))


@given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_compose_properties(seed, raw, data):
    rng = np.random.default_rng(seed)
    pref = random_raw_utility(rng) if raw else random_concave_envelope(rng)
    payoff = data.draw(_payoffs(pref.a0))
    u = compose(pref, payoff)
    for piece in u.pieces:
        hi = piece.a_hi if math.isfinite(piece.a_hi) else piece.a_lo + 20.0
        xs = piece.a_lo + (hi - piece.a_lo) * np.array([0.05, 0.3, 0.5, 0.7, 0.95])
        built = u.value(xs)
        direct = pref.value(payoff.value(xs))
        assert np.all(np.abs(built - direct)
                      <= 1e-10 * np.maximum(1.0, np.abs(built)))
