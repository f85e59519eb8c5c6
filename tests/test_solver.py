import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtr

from conftest import (CONTRACT_PARAMS, d0, d1, d_next, d_transform, deriv,
                      interesting_multipliers, random_concave_envelope,
                      random_raw_utility, scale_shift)
from phara.cli import load_scenario
from phara.concavify import concave_envelope
from phara.errors import (BadDimension, BadTime, IllegalCase, InfeasibleBudget,
                          NoConvergence, NotConcave, PharaError, UnboundedDemand)
from phara.market import build_market
from phara import normal, solver
from phara.solver import (_cdf_rows, _common_risk_aversion, _d1_outer, _newton_root,
                          _risk_vector, _tables, budget, optimal_terminal_wealth,
                          portfolio_general, portfolio_unified,
                          sahara_portfolio, solve_multiplier,
                          state_price_for_wealth, wealth_process, wealth_total,
                          weights)
from phara.utility import INF, PharaPiece, PharaUtility, cara_utility, crra_utility


def norm_pdf(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


class TestDTransform:
    def test_two_forms_agree(self, market):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            z = math.exp(rng.uniform(-8, 8))
            t = rng.uniform(0.0, market.T - 1e-6)
            a = d_transform(z, 1.0, market, t)
            b = d1(z, market, t)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_arithmetic_example(self, market):
        # -(0.05 - 0.0072) * 10 / (0.12 sqrt(10))
        expect = -(0.05 - 0.0072) * 10.0 / (0.12 * math.sqrt(10.0))
        assert d1(1.0, market, 0.0) == pytest.approx(expect, rel=1e-13)

    def test_numerator_cancellation(self, market):
        t = 3.0
        tau = market.T - t
        z = math.exp(-(market.r - 0.5 * market.theta_norm**2) * tau)
        assert d1(z, market, t) == pytest.approx(0.0, abs=1e-12)

    def test_limit_conventions(self, market):
        assert d1(0.0, market, 0.0) == INF
        assert d1(INF, market, 0.0) == -INF
        assert d_transform(0.0, 0.3, market, 1.0) == INF

    def test_log_piece_uses_d0(self, market):
        rng = np.random.default_rng(2)
        for _ in range(50):
            z = math.exp(rng.uniform(-4, 4))
            t = rng.uniform(0, market.T - 0.1)
            assert d_next(z, 1.0, market, t) == d0(z, market, t)

    def test_bad_time(self, market):
        with pytest.raises(BadTime):
            d1(1.0, market, market.T)


class TestTerminalWealth:
    def test_crra_inverse_marginal(self, crra_envelope):
        # U'(x) = x^{-1/2}: demand (y xi)^{-2}
        for c in (0.3, 1.0, 2.5):
            got = optimal_terminal_wealth(crra_envelope, c, 1.0)
            assert got == pytest.approx(c**-2.0, rel=1e-13)

    def test_kink_atom(self, demo_envelope, demo_dual):
        env = demo_envelope.envelope
        # strictly between the two chord slopes: park at the kink x=12
        w = 0.5 * (0.08660254037844385 + 0.23170989120926735)
        got = optimal_terminal_wealth(env, demo_dual.y_star,
                                      w / demo_dual.y_star)
        assert got == 12.0

    def test_tie_conventions(self, demo_envelope, demo_dual):
        env = demo_envelope.envelope
        y = demo_dual.y_star
        chord_slope = env.pieces[2].anchor_slope  # the tangent chord 12 -> 28
        got = optimal_terminal_wealth(env, y, chord_slope / y)
        assert got == pytest.approx(12.0, abs=1e-9)
        kink_plus = env.gamma_plus(4)  # right slope at the kink 40
        got = optimal_terminal_wealth(env, y, kink_plus / y)
        assert got == pytest.approx(40.0, rel=1e-12)

    def test_nonincreasing_in_state_price(self, demo_envelope, demo_dual):
        xi = np.geomspace(1e-6, 1e4, 301)
        x = optimal_terminal_wealth(demo_envelope.envelope, demo_dual.y_star, xi)
        assert np.all(np.diff(x) <= 1e-12)

    def test_matches_argmax_inside_pieces(self, contract_envelope, contract_dual):
        env = contract_envelope.envelope
        y = contract_dual.y_star
        # inside the top branch
        m = 0.5 / math.sqrt(1.5)
        w = 0.5 * 0.88 * m
        x = optimal_terminal_wealth(env, y, w / y)
        assert deriv(env, x, "right") == pytest.approx(w, rel=1e-10)


class TestMultiplier:
    def test_crra_closed_form(self, crra_envelope, market):
        R = 0.5
        beta = 1.0 - 1.0 / R
        th = market.theta_norm
        growth = math.exp(-beta * (market.r + 0.5 * th * th) * market.T
                          + 0.5 * beta * beta * th * th * market.T)
        for x0 in (1.0, 10.0, 77.0):
            sol = solve_multiplier(crra_envelope, market, x0)
            assert sol.y_star == pytest.approx((x0 / growth) ** (-R), rel=1e-10)
            assert abs(sol.budget_residual) <= 1e-10 * max(1.0, x0)

    def test_homogeneity(self, crra_envelope, market):
        y1 = solve_multiplier(crra_envelope, market, 5.0).y_star
        y2 = solve_multiplier(crra_envelope, market, 10.0).y_star
        assert y2 == pytest.approx(y1 * 2.0 ** (-0.5), rel=1e-9)

    def test_scale_shift_scales_multiplier(self, demo_envelope, market,
                                           demo_dual):
        a = 3.7
        scaled = scale_shift(demo_envelope.envelope, a, 2.0)
        sol = solve_multiplier(scaled, market, 25.0)
        assert sol.y_star == pytest.approx(a * demo_dual.y_star, rel=1e-9)
        # terminal wealth is unchanged pathwise
        xi = np.geomspace(0.01, 100.0, 50)
        x1 = optimal_terminal_wealth(demo_envelope.envelope, demo_dual.y_star, xi)
        x2 = optimal_terminal_wealth(scaled, sol.y_star, xi)
        assert np.allclose(x1, x2, rtol=1e-9)

    def test_budget_residual_is_checked(self, monkeypatch, demo_envelope,
                                        market, demo_dual):
        # an inversion 1% off the root leaves a residual far above 1e-10 x0
        monkeypatch.setattr(solver, "state_price_for_wealth",
                            lambda *args, **kwargs: 1.01 * demo_dual.y_star)
        with pytest.raises(UnboundedDemand, match="residual"):
            solve_multiplier(demo_envelope.envelope, market, 25.0)

    def test_budget_decreasing(self, demo_envelope, market):
        ys = np.geomspace(1e-4, 1e3, 100)
        vals = [budget(demo_envelope.envelope, market, y) for y in ys]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_infeasible(self, demo_envelope, market):
        floor = math.exp(-market.r * market.T) * 4.0
        with pytest.raises(InfeasibleBudget):
            solve_multiplier(demo_envelope.envelope, market, floor)

    def test_linear_tail_rejected(self, market):
        head = PharaPiece(a_lo=0.0, a_hi=1.0, R=0.5, A=-0.5, anchor_x=0.0,
                          anchor_u=0.0, anchor_slope=2.0)
        tail = PharaPiece(a_lo=1.0, a_hi=INF, R=0.0, anchor_x=1.0,
                          anchor_u=float(head.value(1.0)),
                          anchor_slope=0.5 * head.slope_hi)
        env = PharaUtility(a0=0.0, pieces=(head, tail))
        with pytest.raises(UnboundedDemand):
            solve_multiplier(env, market, 5.0)


class TestWealthProcess:
    def test_budget_identity(self, demo_envelope, market, demo_dual):
        total = wealth_total(demo_envelope.envelope, market,
                             demo_dual.y_star, 0.0, 1.0)
        assert total == pytest.approx(25.0, abs=1e-10 * 25.0)

    def test_terminal_continuity(self, demo_envelope, market, demo_dual):
        env = demo_envelope.envelope
        t = market.T - 1e-6
        for xi in (0.05, 0.3, 1.0, 4.0, 50.0):
            terminal = optimal_terminal_wealth(env, demo_dual.y_star, xi)
            process = wealth_total(env, market, demo_dual.y_star, t, xi)
            assert process == pytest.approx(terminal, abs=1e-3)

    def test_crra_single_term(self, crra_envelope, market):
        wd = wealth_process(crra_envelope, market, 0.4, 3.0, 1.2)
        assert wd.xD == pytest.approx([0.0], abs=0.0)
        assert wd.xA == pytest.approx([0.0], abs=0.0)
        assert wd.xAbar == pytest.approx([0.0], abs=0.0)
        assert wd.xRbar == pytest.approx([0.0], abs=0.0)
        assert wd.total == pytest.approx(float(wd.xR[0]), rel=1e-15)

    def test_decomposition_sums_to_total(self, demo_envelope, market, demo_dual):
        wd = wealth_process(demo_envelope.envelope, market, demo_dual.y_star,
                            2.0, 0.9)
        parts = wd.xD.sum() + wd.xA.sum() + wd.xAbar.sum() + wd.xR.sum() \
            + wd.xRbar.sum()
        assert wd.total == pytest.approx(parts, rel=1e-14)

    def test_phi_ratio_identity(self, demo_envelope, market, demo_dual):
        # the curvature term equals its density-ratio form on finite-slope pieces
        env = demo_envelope.envelope
        t, xi = 4.0, 1.1
        tau = market.T - t
        disc = math.exp(-market.r * tau)
        w = demo_dual.y_star * xi
        wd = wealth_process(env, market, demo_dual.y_star, t, xi)
        for k, piece in enumerate(env.pieces):
            if piece.R == 0.0 or not np.isfinite(env.gamma_plus(k)):
                continue
            gp = env.gamma_plus(k)
            gn = env.gamma_minus(k + 1)
            ratio = norm_pdf(d1(gp / w, market, t)) \
                / norm_pdf(d_next(gp / w, piece.R, market, t))
            expect = disc * (piece.a_lo - piece.A) * ratio * (
                ndtr(d_next(gn / w, piece.R, market, t))
                - ndtr(d_next(gp / w, piece.R, market, t)))
            assert float(wd.xR[k]) == pytest.approx(expect, rel=1e-11)


class TestPortfolios:
    def test_crra_is_merton(self, crra_envelope, market):
        sol = solve_multiplier(crra_envelope, market, 10.0)
        for t, xi in [(0.0, 1.0), (5.0, 0.5), (9.9, 2.0)]:
            dec = portfolio_unified(crra_envelope, market, sol.y_star, t, xi)
            assert dec.percentage[0] == pytest.approx(0.8, abs=1e-12)
            assert np.allclose(dec.risk_seeking, 0.0)
            assert np.allclose(dec.loss_aversion, 0.0)
            assert np.allclose(dec.first_order_ra, 0.0)

    def test_pure_cara_constant_amount(self, market):
        alpha = 2.0
        env = concave_envelope(cara_utility(alpha)).envelope
        t = 4.0
        tau = market.T - t
        expect = math.exp(-market.r * tau) / alpha * market.theta_norm / 0.3
        for xi in (0.2, 1.0, 5.0):
            pi = portfolio_general(env, market, 0.7, t, xi)
            assert pi[0] == pytest.approx(expect, rel=1e-12)

    def test_contract_against_expanded_formula(self, contract_envelope, market, contract_dual):
        gamma = CONTRACT_PARAMS["gamma"]
        alpha = CONTRACT_PARAMS["wealth_share"]
        delta = CONTRACT_PARAMS["bonus_share"]
        L = CONTRACT_PARAMS["guarantee"]
        env = contract_envelope.envelope
        y = contract_dual.y_star
        K = gamma * (L / (1 - gamma) - L) ** (gamma - 1.0)
        m = gamma * (L / alpha - L) ** (gamma - 1.0)
        sigma = float(market.sigma[0, 0])
        theta = float(market.theta[0])
        a0, a1, a2 = 0.0, L / (1 - gamma), L / alpha
        A1, A2 = L, (1 - delta) * L / (1 - delta * alpha)

        for t, xi in [(0.0, 1.0), (2.0, 0.7), (5.0, 1.0), (9.0, 1.4)]:
            tau = market.T - t
            s = theta * math.sqrt(tau)
            disc = math.exp(-market.r * tau)
            w = y * xi

            def dd1(z):
                return -(math.log(z) + (market.r - theta**2 / 2) * tau) / s

            p0 = ndtr(dd1(K / w))
            q1 = ndtr(dd1(m / w)) - ndtr(dd1(K / w))
            p2 = ndtr(dd1((1 - delta * alpha) * m / w)) - ndtr(dd1(m / w))
            q2 = 1.0 - ndtr(dd1((1 - delta * alpha) * m / w))
            x_t = wealth_total(env, market, y, t, xi)
            manual = (theta / (sigma * (1 - gamma)) * x_t
                      + disc / (sigma * math.sqrt(tau)) * (a1 - a0)
                      * norm_pdf(dd1(K / w))
                      - theta * disc / (sigma * (1 - gamma)) * (A1 * q1 + A2 * q2)
                      - theta * disc / (sigma * (1 - gamma)) * (a0 * p0 + a2 * p2))
            dec = portfolio_unified(env, market, y, t, xi)
            assert dec.total[0] == pytest.approx(manual, rel=1e-10)
            general = portfolio_general(env, market, y, t, xi)
            assert general[0] == pytest.approx(manual, rel=1e-10)

    def test_demo_term_structure(self, demo_envelope, market, demo_dual):
        # chords feed risk-seeking; benchmarks feed loss-aversion; kinks feed
        # the first-order term
        env = demo_envelope.envelope
        y = demo_dual.y_star
        t, xi = 5.0, 1.0
        tau = market.T - t
        s = market.theta_norm * math.sqrt(tau)
        disc = math.exp(-market.r * tau)
        w = y * xi
        sigma = 0.3
        R = 0.5
        wv = weights(env, market, y, t, xi)
        dec = portfolio_unified(env, market, y, t, xi)

        a = env.partition
        chord1, chord2 = env.pieces[1], env.pieces[2]
        rs_manual = disc / (sigma * math.sqrt(tau)) * (
            (a[2] - a[1]) * norm_pdf(d1(chord1.anchor_slope / w, market, t))
            + (a[3] - a[2]) * norm_pdf(d1(chord2.anchor_slope / w, market, t)))
        assert dec.risk_seeking[0] == pytest.approx(rs_manual, rel=1e-11)

        A_terms = sum(env.pieces[k].A * wv.q[k] for k in (0, 3, 4))
        la_manual = -market.theta_norm * disc / (sigma * R) * A_terms
        assert dec.loss_aversion[0] == pytest.approx(la_manual, rel=1e-11)

        fo_manual = -market.theta_norm * disc / (sigma * R) * float(
            np.sum(a[:-1] * wv.p))
        assert dec.first_order_ra[0] == pytest.approx(fo_manual, rel=1e-11)
        total = dec.merton[0] + dec.risk_seeking[0] + dec.loss_aversion[0] \
            + dec.first_order_ra[0]
        assert dec.total[0] == pytest.approx(total, rel=1e-14)

    def test_unified_equals_general_randomized(self, market):
        rng = np.random.default_rng(7)
        worst = 0.0
        checked = 0
        for _ in range(30):
            env = random_concave_envelope(rng)
            y = math.exp(rng.uniform(-1.0, 1.0))
            for w in interesting_multipliers(env, rng, 10):
                t = rng.uniform(0.0, market.T - 1e-3)
                xi = w / y
                dec = portfolio_unified(env, market, y, t, xi)
                gen = portfolio_general(env, market, y, t, xi)
                scale = max(np.linalg.norm(gen), np.linalg.norm(dec.total))
                if scale < 1e-5 * (1.0 + abs(dec.wealth)):
                    continue  # portfolio numerically zero: no relative measure
                worst = max(worst, np.linalg.norm(dec.total - gen) / scale)
                checked += 1
        assert checked > 200
        assert worst <= 1e-9

    def test_affine_invariance(self, demo_envelope, market, demo_dual):
        a = 2.2
        scaled = scale_shift(demo_envelope.envelope, a, -0.7)
        sol = solve_multiplier(scaled, market, 25.0)
        for t, xi in [(1.0, 0.8), (6.0, 1.5)]:
            d_orig = portfolio_unified(demo_envelope.envelope, market,
                                       demo_dual.y_star, t, xi)
            d_new = portfolio_unified(scaled, market, sol.y_star, t, xi)
            assert np.allclose(d_new.total, d_orig.total, rtol=1e-9)
            assert d_new.wealth == pytest.approx(d_orig.wealth, rel=1e-9)

    def test_heterogeneous_risk_has_no_split(self, market):
        head = PharaPiece(a_lo=0.0, a_hi=2.0, R=0.5, A=-1.0, anchor_x=0.0,
                          anchor_u=0.0, anchor_slope=1.0)
        tail = PharaPiece(a_lo=2.0, a_hi=INF, R=2.0, A=1.0, anchor_x=2.0,
                          anchor_u=float(head.value(2.0)),
                          anchor_slope=0.9 * head.slope_hi)
        env = PharaUtility(a0=0.0, pieces=(head, tail))
        assert _common_risk_aversion(_tables(env)) is None
        dec = portfolio_unified(env, market, 0.5, 1.0, 1.0)
        assert dec.terms == {} and dec.merton is None
        # the same delta-hedge as the Euler step's form
        pi = portfolio_general(env, market, 0.5, 1.0, 1.0)
        assert np.all(np.isfinite(pi)) and np.all(pi > 0.0)
        assert np.allclose(dec.total, pi, rtol=1e-12, atol=0.0)
        assert np.allclose(dec.percentage, pi / dec.wealth, rtol=1e-12, atol=0.0)

    def test_all_linear_envelope_has_no_split(self, market):
        line = PharaPiece(a_lo=0.0, a_hi=INF, R=0.0, anchor_x=0.0, anchor_u=0.0,
                          anchor_slope=1.0)
        env = PharaUtility(a0=0.0, pieces=(line,))
        assert _common_risk_aversion(_tables(env)) is None
        dec = portfolio_unified(env, market, 0.5, 1.0, 1.0)
        assert dec.terms == {}
        # a linear tail gambles without bound in both forms
        assert dec.total.tolist() == portfolio_general(env, market, 0.5, 1.0, 1.0).tolist() \
            == [INF]

    def test_bad_time(self, crra_envelope, market):
        with pytest.raises(BadTime):
            portfolio_general(crra_envelope, market, 0.4, market.T, 1.0)


class TestWeights:
    def test_sum_to_one(self, demo_envelope, market, demo_dual):
        for t, xi in [(0.0, 1.0), (5.0, 0.2), (9.5, 3.0)]:
            wv = weights(demo_envelope.envelope, market, demo_dual.y_star,
                         t, xi)
            assert wv.p.sum() + wv.q.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(wv.p >= -1e-15)
            assert np.all(wv.q >= -1e-15)

    def test_zero_at_tangency_and_chords(self, contract_envelope, market, contract_dual):
        wv = weights(contract_envelope.envelope, market, contract_dual.y_star, 3.0, 1.0)
        # tangency point: slopes equal up to the root-find residual
        assert abs(wv.p[1]) <= 1e-14
        assert wv.q[0] == 0.0          # chord cell: exactly equal end slopes

    def test_contract_slope_constants(self, contract_envelope, market, contract_dual):
        gamma = CONTRACT_PARAMS["gamma"]
        alpha = CONTRACT_PARAMS["wealth_share"]
        delta = CONTRACT_PARAMS["bonus_share"]
        L = CONTRACT_PARAMS["guarantee"]
        K = gamma * (L / (1 - gamma) - L) ** (gamma - 1.0)
        m = gamma * (L / alpha - L) ** (gamma - 1.0)
        assert K == pytest.approx(0.5, abs=1e-12)
        assert m == pytest.approx(0.5 / math.sqrt(1.5), abs=1e-12)
        assert (1 - delta * alpha) * m == pytest.approx(
            0.88 * 0.5 / math.sqrt(1.5), abs=1e-12)

        env = contract_envelope.envelope
        assert env.gamma_plus(0) == pytest.approx(K, abs=1e-12)
        assert env.gamma_minus(2) == pytest.approx(m, abs=1e-12)
        assert env.gamma_plus(2) == pytest.approx((1 - delta * alpha) * m,
                                                  abs=1e-12)

        t, xi = 4.0, 0.9
        w = contract_dual.y_star * xi
        wv = weights(env, market, contract_dual.y_star, t, xi)
        assert wv.p[0] == pytest.approx(float(ndtr(d1(K / w, market, t))),
                                        abs=1e-14)
        assert wv.q[2] == pytest.approx(
            1.0 - float(ndtr(d1((1 - delta * alpha) * m / w, market, t))),
            abs=1e-14)


class TestSahara:
    def test_positive_at_zero_wealth(self, market):
        pi = sahara_portfolio(market, alpha=2.0, beta=1.0, t=0.0, x=0.0)
        expect = 0.12 / (2.0 * 0.3) * math.exp(-(0.05 - 0.0144 / 8.0) * 10.0)
        assert pi[0] == pytest.approx(expect, rel=1e-12)
        assert pi[0] > 0.0

    def test_zero_beta_limit(self, market):
        for x in (-3.0, 0.0, 2.0):
            pi = sahara_portfolio(market, alpha=2.0, beta=0.0, t=1.0, x=x)
            assert pi[0] == pytest.approx(0.12 / 0.6 * abs(x), rel=1e-12)

    def test_two_assets_rejected(self):
        mkt = build_market(r=0.05, mu=[0.09, 0.13],
                           sigma=[[0.2, 0.0], [0.0, 0.4]], T=5.0)
        with pytest.raises(PharaError) as err:
            sahara_portfolio(mkt, alpha=2.0, beta=1.0, t=0.0, x=1.0)
        assert isinstance(err.value, BadDimension)

    def test_beyond_horizon_rejected(self, market):
        with pytest.raises(BadTime):
            sahara_portfolio(market, alpha=2.0, beta=1.0, t=market.T + 1.0, x=1.0)

    @pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (-1.0, 1.0), (2.0, -0.1)])
    def test_bad_parameters_rejected(self, market, alpha, beta):
        with pytest.raises(PharaError) as err:
            sahara_portfolio(market, alpha=alpha, beta=beta, t=0.0, x=1.0)
        assert isinstance(err.value, IllegalCase)


def test_non_concave_utility_rejected(demo_utility, market):
    with pytest.raises(PharaError) as err:
        wealth_total(demo_utility, market, 1.0, 0.0, 1.0)
    assert isinstance(err.value, NotConcave)


class TestWealthInversion:
    def test_roundtrip(self, demo_envelope, market, demo_dual):
        env = demo_envelope.envelope
        for t in (0.0, 5.0, 9.99):
            disc = math.exp(-market.r * (market.T - t))
            for x in (disc * 6.0, disc * 20.0, disc * 45.0):
                xi = state_price_for_wealth(env, market, demo_dual.y_star, t, x)
                back = wealth_total(env, market, demo_dual.y_star, t, xi)
                assert back == pytest.approx(x, rel=1e-8)

    def test_floor_saturates(self, demo_envelope, market, demo_dual):
        t = 5.0
        floor = math.exp(-market.r * (market.T - t)) * 4.0
        xi = state_price_for_wealth(demo_envelope.envelope, market,
                                    demo_dual.y_star, t, floor)
        assert xi == 1e18

    def test_vector_matches_scalar_saturation(self, crra_envelope,
                                              demo_envelope, market):
        # CRRA keeps X_t(e^40) above its floor 0, so levels below it saturate
        # by the xi_cap tail rule; the demo's wealth there is the floor itself
        tail_hits = 0
        for env, x0 in ((crra_envelope, 10.0), (demo_envelope.envelope, 25.0)):
            y = solve_multiplier(env, market, x0).y_star
            for t in (0.0, 5.0, market.T - 1e-4):
                floor = math.exp(-market.r * (market.T - t)) * env.a0
                tail = [wealth_total(env, market, y, t, math.exp(u))
                        for u in (38.0, 40.0, 41.0, 44.0)]
                x = np.array([floor - 1.0, floor, np.nextafter(floor, INF),
                              *tail, floor + 1e-3, floor + 1.0])
                batched = state_price_for_wealth(env, market, y, t, x)
                scalar = np.array([state_price_for_wealth(env, market, y, t,
                                                          float(v)) for v in x])
                # saturated: at or below the floor, or not below X_t at the
                # last rung u = 40 under log(1e18)
                expect = (x <= floor) | (x <= tail[1])
                assert np.array_equal(batched >= 1e18, expect)
                assert np.array_equal(scalar >= 1e18, expect)
                tail_hits += int(np.sum((batched >= 1e18) & (x > floor)))
        assert tail_hits > 0

    def test_empty_levels(self, demo_envelope, market, demo_dual):
        out = state_price_for_wealth(demo_envelope.envelope, market,
                                     demo_dual.y_star, 1.0, np.array([]))
        assert out.shape == (0,)

    def test_no_bracket_within_the_rungs(self, market):
        # X_0 = C (y xi)^{-1/20} grows so slowly that wealth 1e12 lies beyond
        # the 200 rungs log xi = -2, -4, ..., -400
        with pytest.raises(UnboundedDemand, match="no bracket"):
            solve_multiplier(crra_utility(20.0), market, 1e12)

    def test_root_find_rejects_nan(self):
        def nan_map(act, u):
            return np.full(u.size, np.nan), np.ones(u.size)
        with pytest.raises(NoConvergence, match="NaN"):
            _newton_root(nan_map, np.array([-1.0]), np.array([1.0]), np.array([0.0]))

    def test_root_find_step_cap(self, monkeypatch, demo_envelope, market,
                                demo_dual):
        monkeypatch.setattr(solver, "_NEWTON_ITERS", 1)
        with pytest.raises(NoConvergence, match="unconverged after 1 steps"):
            state_price_for_wealth(demo_envelope.envelope, market,
                                   demo_dual.y_star, 5.0, 20.0)

    def test_steep_map_bisects(self):
        # crra R = 1e-3 where |theta| is 3.3e-4: inside the bracket every
        # Newton step moved u by exactly R and 100 steps did not reach the
        # root; bisection after 20 steps does
        thin = build_market(r=0.05, mu=[0.0501], sigma=[[0.3]], T=10.0)
        sol = solve_multiplier(crra_utility(1e-3), thin, 1e3)
        assert abs(sol.budget_residual) <= 1e-10 * 1e3

    def test_wealth_beyond_the_doubles(self, market):
        # X_0 = C (y xi)^{-2} growth overflows on the rungs before it reaches
        # 1e308: no bracket, and no overflow warning on the way
        with pytest.raises(UnboundedDemand, match="no bracket: X_t is inf"):
            solve_multiplier(crra_utility(0.5), market, 1e308)


class TestBeyondTheDoubles:
    """Pieces whose closed forms leave the doubles are typed errors that
    name the piece, not an OverflowError or an overflow warning."""

    @pytest.mark.parametrize("R, A, alpha, slope, scale", [
        (0.5, -1.0, None, 1e308, "C = inf"), (0.5, -1.0, None, 1e-300, "C = 0.0"),
        (INF, -INF, 1e-308, 1e-300, "K = -inf")], ids=["C_over", "C_under", "K_over"])
    def test_inverse_marginal_utility(self, R, A, alpha, slope, scale):
        piece = PharaPiece(a_lo=0.0, a_hi=INF, R=R, A=A, alpha=alpha, anchor_x=0.0,
                           anchor_u=0.0, anchor_slope=slope)
        with pytest.raises(IllegalCase, match=rf"piece on \[0.0, inf\) with R = {R}: .*{scale}"):
            _tables(PharaUtility(a0=0.0, pieces=(piece,)))

    @pytest.mark.parametrize("R", [0.01, 1e-300])
    def test_growth_factor(self, market, R):
        # R = 0.01 on the demo market: the growth exponent is about 762
        with pytest.raises(IllegalCase, match=f"R = {R}: its wealth growth factor"):
            solve_multiplier(crra_utility(R), market, 10.0)

    def test_power_term_of_an_empty_cell(self, market):
        # R = 0.1 on [0, 1), then R = 5: at xi = 1e-40 the head's w^{-1/R}
        # overflows where its cell has probability 0; its term is 0 there,
        # not inf * 0 = NaN, and the inversion brackets 1e8
        head = PharaPiece(a_lo=0.0, a_hi=1.0, R=0.1, A=-1.0, anchor_x=0.0,
                          anchor_u=0.0, anchor_slope=1.0)
        tail = PharaPiece(a_lo=1.0, a_hi=INF, R=5.0, A=0.0, anchor_x=1.0,
                          anchor_u=float(head.value_hi), anchor_slope=head.slope_hi)
        env = PharaUtility(a0=0.0, pieces=(head, tail))
        x = wealth_total(env, market, 1.0, 5.0, np.array([1e-30, 1e-40]))
        assert x[1] / x[0] == pytest.approx(1e10 ** (1 / 5), rel=1e-9)  # the R = 5 tail
        xi = state_price_for_wealth(env, market, 1.0, 5.0, 1e8, xi_cap=1e300)
        assert wealth_total(env, market, 1.0, 5.0, xi) == pytest.approx(1e8, rel=1e-10)


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
BUNDLED = ("crra", "multi_kink_demo", "participating_contract", "hedge_fund")


def _round_trip_error(env, market, y, t, x):
    """Worst |X_t(xi(x)) - x| / max(1, |x|) over the unsaturated levels."""
    xi = state_price_for_wealth(env, market, y, t, x)
    ok = xi < 1e18
    back = wealth_total(env, market, y, t, xi[ok])
    err = np.abs(back - x[ok]) / np.maximum(1.0, np.abs(x[ok]))
    return float(err.max(initial=0.0)), int(ok.sum())


def _levels(env, market, t):
    """From just above the discounted floor to 100 times the last kink."""
    disc = math.exp(-market.r * (market.T - t))
    floor = disc * env.a0
    top = disc * 100.0 * max(1.0, abs(env.pieces[-1].a_lo)) + floor
    near = floor + np.geomspace(1e-9, 1e-2, 12) * (top - floor)
    return np.concatenate([near, np.linspace(floor, top, 60)[1:]])


@pytest.mark.parametrize("name", BUNDLED)
def test_batched_inversion_round_trip_bundled(name):
    scn = load_scenario(SCENARIOS / f"{name}.json")
    env = concave_envelope(scn.utility).envelope
    market = scn.market
    y = solve_multiplier(env, market, scn.x0).y_star
    for tau in (market.T - 0.01, market.T / 2, 1e-2, 1e-4):
        t = market.T - tau
        err, n = _round_trip_error(env, market, y, t, _levels(env, market, t))
        assert n > 60
        assert err <= 1e-10


def test_batched_inversion_round_trip_random_utilities(market):
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(12):
        env = concave_envelope(random_raw_utility(rng)).envelope
        x0 = math.exp(-market.r * market.T) * env.a0 + float(rng.uniform(0.5, 20.0))
        y = solve_multiplier(env, market, x0).y_star
        for tau in (market.T - 0.01, market.T / 2, 1e-2, 1e-4):
            t = market.T - tau
            err, n = _round_trip_error(env, market, y, t, _levels(env, market, t))
            assert err <= 1e-10
            checked += n
    assert checked > 2000


def test_vector_portfolio_unified_matches_scalar(demo_envelope, contract_envelope,
                                                 market, demo_dual, contract_dual):
    for env, y in ((demo_envelope.envelope, demo_dual.y_star),
                   (contract_envelope.envelope, contract_dual.y_star)):
        xi = np.geomspace(1e-3, 1e3, 41)
        for t in (0.0, 5.0, market.T - 1e-4):
            vec = portfolio_unified(env, market, y, t, xi)
            rows = [portfolio_unified(env, market, y, t, float(v)) for v in xi]
            for field in ("merton", "risk_seeking", "loss_aversion",
                          "first_order_ra", "total", "percentage"):
                stacked = np.stack([getattr(r, field) for r in rows], axis=1)
                got = getattr(vec, field)
                assert got.shape == stacked.shape == (1, xi.size)
                assert np.allclose(got, stacked, rtol=1e-12, atol=1e-12 * np.abs(stacked).max())
            assert np.allclose(vec.wealth, [r.wealth for r in rows], rtol=1e-12, atol=0.0)
            wv = weights(env, market, y, t, xi)
            assert wv.p.shape == (env.n_pieces, xi.size)
            assert np.allclose(wv.p.sum(axis=0) + wv.q.sum(axis=0), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Property tests: random envelopes, markets with m = 1..3 assets
# ---------------------------------------------------------------------------


@st.composite
def markets(draw):
    """Well-conditioned (mu, sigma): lower-triangular volatility whose
    off-diagonal loadings are at most 0.3 of the asset's own volatility."""
    m = draw(st.integers(1, 3))
    r = draw(st.floats(0.005, 0.08))
    vols = draw(st.lists(st.floats(0.1, 0.5), min_size=m, max_size=m))
    sigma = np.diag(vols)
    for i in range(m):
        for j in range(i):
            sigma[i, j] = draw(st.floats(-0.3, 0.3)) * vols[i]
    premia = draw(st.lists(st.floats(0.01, 0.1), min_size=m, max_size=m))
    return build_market(r=r, mu=[r + e for e in premia], sigma=sigma.tolist(),
                        T=draw(st.floats(1.0, 20.0)))


seeds = st.integers(0, 2**32 - 1)


def _raw_envelope(seed):
    return concave_envelope(random_raw_utility(np.random.default_rng(seed))).envelope


def _floor(env, market, t=0.0):
    return math.exp(-market.r * (market.T - t)) * env.a0


@given(seeds, markets(), st.floats(1e-3, 50.0), st.floats(1e-3, 1.0))
def test_dual_solve_properties(seed, market, excess, gap):
    env = _raw_envelope(seed)
    x0 = _floor(env, market) + excess
    sol = solve_multiplier(env, market, x0)
    tol = 1e-10 * max(1.0, x0)
    assert abs(sol.budget_residual) <= tol
    assert abs(budget(env, market, sol.y_star) - x0) <= tol
    lo, hi = sol.bracket
    assert lo <= sol.y_star < hi
    assert budget(env, market, lo) > x0 > budget(env, market, hi)
    richer = solve_multiplier(env, market, x0 + gap * max(1.0, abs(x0)))
    assert richer.y_star < sol.y_star


@given(seeds, markets(), st.floats(1e-3, 50.0), st.floats(0.0, 0.999),
       st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=8))
def test_inversion_round_trip_properties(seed, market, excess, frac, logs):
    env = _raw_envelope(seed)
    y = solve_multiplier(env, market, _floor(env, market) + excess).y_star
    t = frac * market.T
    x = wealth_total(env, market, y, t, np.exp(logs))
    xi = state_price_for_wealth(env, market, y, t, x)
    scale = np.maximum(1.0, np.abs(x))
    ok = xi < 1e18
    back = wealth_total(env, market, y, t, xi[ok])
    assert np.all(np.abs(back - x[ok]) <= 1e-10 * scale[ok])
    # saturation only where the wealth is the floor to rounding
    assert np.all(x[~ok] - _floor(env, market, t) <= 1e-10 * scale[~ok])
    # kink and cell weights are probabilities, never negative by rounding
    wv = weights(env, market, y, t, xi)
    assert np.all(wv.p >= 0.0) and np.all(wv.q >= 0.0)


@given(seeds, st.booleans(), markets(), st.floats(-1.0, 1.0), st.floats(0.0, 0.999),
       st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8))
def test_unified_equals_general_properties(seed, raw, market, log_y, frac, logs):
    # one common R, or the envelope of a raw utility: several R, exponential
    # pieces and chords
    env = _raw_envelope(seed) if raw else random_concave_envelope(np.random.default_rng(seed))
    y, t = math.exp(log_y), frac * market.T
    R = _common_risk_aversion(_tables(env))
    assert raw or R > 0.0
    dec = portfolio_unified(env, market, y, t, np.exp(logs))
    gen = portfolio_general(env, market, y, t, np.exp(logs))
    scale = np.maximum(np.linalg.norm(gen, axis=0), np.linalg.norm(dec.total, axis=0))
    live = scale >= 1e-5 * (1.0 + np.abs(dec.wealth))  # else numerically zero
    err = np.linalg.norm(dec.total - gen, axis=0)
    assert np.all(err[live] <= 1e-9 * scale[live])
    # the split exists exactly with a common R, and regroups the hedge
    assert (dec.terms != {}) == (R is not None)
    if dec.terms:
        largest = np.max([np.linalg.norm(v, axis=0) for v in dec.terms.values()], axis=0)
        gap = np.linalg.norm(sum(dec.terms.values()) - dec.total, axis=0)
        assert np.all(gap <= 1e-12 * largest)


@given(seeds, markets(), st.floats(-1.0, 1.0), st.floats(0.0, 0.999),
       st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8))
def test_split_signs_properties(seed, market, log_y, frac, logs):
    # non-concavity (chords) raises risk taking; non-differentiability
    # (kinks, all at nonnegative wealth when a0 >= 0) lowers it
    env = random_concave_envelope(np.random.default_rng(seed))
    dec = portfolio_unified(env, market, math.exp(log_y), frac * market.T, np.exp(logs))
    direction = _risk_vector(market)[:, None]  # a term over it has its scalar's sign
    assert np.all(dec.risk_seeking * direction >= 0.0)
    assert env.a0 >= 0.0 and np.all(dec.first_order_ra * direction <= 0.0)


@given(seeds, markets(), st.floats(0.0, 0.999),
       st.lists(st.one_of(st.floats(-40.0, 40.0), st.just(math.nan)),
                min_size=1, max_size=8))
def test_cdf_rows_is_the_running_maximum(seed, market, frac, logs):
    # the row-by-row maximum in place equals numpy's accumulate bit for bit,
    # NaN columns (a NaN state price) and infinite ladder ends included; the
    # reversed ladder makes every row's maximum differ from its own value
    env = _raw_envelope(seed)
    D = _d1_outer(_tables(env).log_ladder, np.array(logs), market, frac * market.T)
    for rows in (D, D[::-1]):
        want = np.maximum.accumulate(normal.cdf(rows), axis=0)
        assert _cdf_rows(rows).tobytes() == want.tobytes()


@given(seeds, markets(), st.floats(-5.0, 60.0), st.floats(-1.0, 25.0),
       st.floats(-5.0, 60.0))
def test_failures_are_typed(seed, market, x0, t, x):
    """Out-of-range budgets, times and wealth levels, non-concave and
    heterogeneous utilities: whatever fails raises a PharaError."""
    raw = random_raw_utility(np.random.default_rng(seed))
    env = concave_envelope(raw).envelope
    calls = (
        lambda: solve_multiplier(env, market, x0),
        lambda: state_price_for_wealth(env, market, 1.0, t, x),
        lambda: wealth_total(raw, market, 1.0, t, 1.0),
        lambda: portfolio_unified(env, market, 1.0, t, 1.0),
        lambda: portfolio_general(env, market, 1.0, t, np.array([0.5, 2.0])),
        lambda: weights(env, market, 1.0, t, 1.0),
    )
    for call in calls:
        try:
            call()
        except PharaError:
            pass
