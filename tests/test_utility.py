import math

import numpy as np
import pytest

from phara.errors import AtKink, IllegalCase, OutOfDomain, PharaError
from phara.presets import CONTRACT_PARAMS
from phara.utility import (INF, NEG_INF, PharaPiece, PharaUtility,
                           PiecewiseLinearPayoff, SShapedPreference, cara_utility,
                           compose, crra_utility, eval_template,
                           eval_template_deriv, hedge_fund_utility,
                           participating_contract_utility)


class TestTemplate:
    def test_linear_case(self):
        assert eval_template(0.0, NEG_INF, 1.0, 5.0, 2.0, None, 3.0) == 9.0

    def test_log_case(self):
        got = eval_template(1.0, 0.0, 1.0, 0.0, 3.0, None, math.e)
        assert got == pytest.approx(3.0, rel=1e-14)

    def test_anchoring_all_cases(self):
        # the template returns u at the anchor in every branch
        assert eval_template(0.0, NEG_INF, 2.0, 7.0, 1.5, None, 2.0) == 7.0
        assert eval_template(1.0, 0.5, 2.0, 7.0, 1.5, None, 2.0) == 7.0
        assert eval_template(0.7, 0.5, 2.0, 7.0, 1.5, None, 2.0) == 7.0
        assert eval_template(3.0, 0.5, 2.0, 7.0, 1.5, None, 2.0) == 7.0
        assert eval_template(INF, NEG_INF, 2.0, 7.0, 1.5, 0.8, 2.0) == 7.0

    def test_anchor_slope_all_cases(self):
        for R, A, alpha in [(0.0, NEG_INF, None), (1.0, 0.5, None),
                            (0.7, 0.5, None), (3.0, 0.5, None),
                            (INF, NEG_INF, 0.8)]:
            got = eval_template_deriv(R, A, 2.0, 7.0, 1.5, alpha, 2.0)
            assert got == pytest.approx(1.5, rel=1e-14)

    def test_illegal_cases(self):
        with pytest.raises(IllegalCase):
            eval_template(0.5, 2.0, 2.0, 0.0, 1.0, None, 3.0)  # anchor == A
        with pytest.raises(IllegalCase):
            eval_template(INF, 1.0, 2.0, 0.0, 1.0, 0.5, 3.0)  # finite A
        with pytest.raises(IllegalCase):
            eval_template(INF, NEG_INF, 2.0, 0.0, 1.0, None, 3.0)  # no alpha
        with pytest.raises(IllegalCase):
            eval_template(0.5, 0.0, 2.0, 0.0, -1.0, None, 3.0)  # bad slope


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
        pref = SShapedPreference(reference=0.0, gain_exponent=0.5)
        u = hedge_fund_utility(pref, omega=0.1, mgmt_fee=0.2, incentive=0.4,
                               floor_mult=0.7, benchmark_mult=2.0, x0=1.0,
                               r=market.r, T=market.T)
        floor = 0.7 * math.exp(0.05 * 10.0)
        benchmark = 2.0 * math.exp(0.05 * 10.0)
        assert u.a0 == pytest.approx(floor, rel=1e-14)
        assert u.kinks() == pytest.approx([floor, benchmark], rel=1e-12)

    def test_compose_matches_pointwise(self, contract_utility):
        pref = SShapedPreference(reference=0.0, gain_exponent=0.5)
        payoff = PiecewiseLinearPayoff(domain_lo=0.0, value_lo=0.0,
                                       breakpoints=(1.0, 2.5),
                                       slopes=(0.0, 1.0, 0.88))
        xs = np.linspace(0.0, 12.0, 1000)
        direct = np.array([pref.value(float(payoff.value(x))) for x in xs])
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
        pref = SShapedPreference(reference=1.0, gain_exponent=0.5,
                                 loss_weight=2.25)
        payoff = PiecewiseLinearPayoff.identity(domain_lo=0.0)
        u = compose(pref, payoff)
        assert [p.a_lo for p in u.pieces] == [0.0, 1.0]
        assert u.pieces[0].curvature == "convex"
        xs = np.linspace(0.0, 3.0, 300)
        direct = np.array([pref.value(float(x)) for x in xs])
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
