import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtr

from conftest import (CONTRACT, ROOT, SCENARIOS, bundled, crra_multiplier, d1, d_next,
                      d_transform, deriv, interesting_multipliers, same, scale_shift)
from corpora import (cara_utility, crra_utility, random_concave_envelope,
                     random_raw_utility, steep_composition, steep_parts)
from phara import cli
from phara.cli import load_scenario
from phara.concavify import EnvelopeResult, concave_envelope
from phara.errors import (IllegalCase, InfeasibleBudget, NoConvergence, NotConcave, NotPhara,
                          PharaError, UnboundedDemand)
from phara.market import build_market, sample_kernel_at
from phara import normal, solver
from phara.solver import (_BLOCK, DualSolution, PortfolioDecomposition,
                          _common_risk_aversion, _d1_outer, _horizon,
                          _phi, _tables, budget,
                          optimal_terminal_wealth, portfolio_general, portfolio_unified,
                          solve_multiplier, state_price_for_wealth, wealth_bounds,
                          wealth_total)
from phara.utility import (INF, PharaPiece, PharaUtility, _verify_composition, compose,
                           piecewise_linear_payoff, same_slope)
from phara.verify import (FD_POINTS, VerificationReport, argmax_oracle, fd_portfolio_check,
                          mc_budget_check, mc_martingale_check, simulate_order_check)


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
        kink_plus = env.pieces[4].slope_lo  # right slope at the kink 40
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
        for x0 in (1.0, 10.0, 77.0):
            sol = solve_multiplier(crra_envelope, market, x0)
            assert sol.y_star == pytest.approx(crra_multiplier(market, 0.5, x0), rel=1e-10)
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
        wd = portfolio_unified(crra_envelope, market, 0.4, 3.0, 1.2)
        assert sorted(wd.families) == ["benchmark_terms", "cara_curvature_terms",
                                       "cara_level_terms", "curvature_terms", "kink_terms"]
        for name in ("kink_terms", "benchmark_terms", "cara_level_terms",
                     "cara_curvature_terms"):
            assert wd.families[name] == pytest.approx([0.0], abs=0.0)
        assert wd.wealth == pytest.approx(float(wd.families["curvature_terms"][0]), rel=1e-15)

    def test_decomposition_sums_to_total(self, demo_envelope, market, demo_dual):
        wd = portfolio_unified(demo_envelope.envelope, market, demo_dual.y_star,
                               2.0, 0.9)
        parts = sum(v.sum() for v in wd.families.values())
        assert wd.wealth == pytest.approx(parts, rel=1e-14)

    def test_phi_ratio_identity(self, demo_envelope, market, demo_dual):
        # the curvature term equals its density-ratio form on finite-slope pieces
        env = demo_envelope.envelope
        t, xi = 4.0, 1.1
        tau = market.T - t
        disc = math.exp(-market.r * tau)
        w = demo_dual.y_star * xi
        wd = portfolio_unified(env, market, demo_dual.y_star, t, xi)
        for k, piece in enumerate(env.pieces):
            gp, gn = piece.slope_lo, piece.slope_hi
            if piece.R == 0.0 or not np.isfinite(gp):
                continue
            ratio = norm_pdf(d1(gp / w, market, t)) \
                / norm_pdf(d_next(gp / w, piece.R, market, t))
            expect = disc * (piece.a_lo - piece.A) * ratio * (
                ndtr(d_next(gn / w, piece.R, market, t))
                - ndtr(d_next(gp / w, piece.R, market, t)))
            assert float(wd.families["curvature_terms"][k]) == pytest.approx(expect, rel=1e-11)


class TestPortfolios:
    def test_crra_is_merton(self, crra_envelope, market):
        sol = solve_multiplier(crra_envelope, market, 10.0)
        for t, xi in [(0.0, 1.0), (5.0, 0.5), (9.9, 2.0)]:
            dec = portfolio_unified(crra_envelope, market, sol.y_star, t, xi)
            assert dec.percentage[0] == pytest.approx(0.8, abs=1e-12)
            for name in ("risk_seeking", "loss_aversion", "first_order_ra"):
                assert np.allclose(dec.terms[name], 0.0)

    def test_wealth_zero_to_rounding(self, market):
        # an exponential piece from a0 = -5, inverted at wealth 0: the wealth
        # comes back as a few ulps of the magnitudes it is computed from, and
        # its fraction is 0 as at a wealth of exactly 0 (it read 5e14); a
        # level of 1e-12 keeps its ratio
        env = concave_envelope(cara_utility(1.0, a0=-5.0)).envelope
        y = solve_multiplier(env, market, 10.0).y_star
        for t in (0.0, 5.0, 9.0):
            xi = state_price_for_wealth(env, market, y, t, np.array([0.0, 1e-12]))
            dec = portfolio_unified(env, market, y, t, xi)
            assert abs(dec.wealth[0]) <= dec.wealth_rounding[0] < 1e-14
            assert dec.percentage[0, 0] == 0.0
            assert dec.wealth[1] > dec.wealth_rounding[1]
            assert dec.percentage[0, 1] == pytest.approx(dec.total[0, 1] / dec.wealth[1],
                                                         rel=1e-12)

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
        c = CONTRACT
        gamma, alpha, delta, K, m, A1, A2 = c.gamma, c.alpha, c.delta, c.K, c.m, c.A1, c.A2
        env = contract_envelope.envelope
        y = contract_dual.y_star
        sigma = float(market.sigma[0, 0])
        theta = float(market.theta[0])
        a0, a1, a2 = 0.0, c.tangency, c.L / alpha

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
        dec = portfolio_unified(env, market, y, t, xi)

        a = env.partition
        chord1, chord2 = env.pieces[1], env.pieces[2]
        rs_manual = disc / (sigma * math.sqrt(tau)) * (
            (a[2] - a[1]) * norm_pdf(d1(chord1.anchor_slope / w, market, t))
            + (a[3] - a[2]) * norm_pdf(d1(chord2.anchor_slope / w, market, t)))
        assert dec.terms["risk_seeking"][0] == pytest.approx(rs_manual, rel=1e-11)

        A_terms = sum(env.pieces[k].A * dec.q[k] for k in (0, 3, 4))
        la_manual = -market.theta_norm * disc / (sigma * R) * A_terms
        assert dec.terms["loss_aversion"][0] == pytest.approx(la_manual, rel=1e-11)

        fo_manual = -market.theta_norm * disc / (sigma * R) * float(
            np.sum(a[:-1] * dec.p))
        assert dec.terms["first_order_ra"][0] == pytest.approx(fo_manual, rel=1e-11)
        total = sum(v[0] for v in dec.terms.values())
        assert dec.total[0] == pytest.approx(total, rel=1e-14)

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
        assert dec.terms == {}
        # the same delta-hedge as the Euler step's form
        pi = portfolio_general(env, market, 0.5, 1.0, 1.0)
        assert np.all(np.isfinite(pi)) and np.all(pi > 0.0)
        assert np.allclose(dec.total, pi, rtol=1e-12, atol=0.0)
        assert np.allclose(dec.percentage, pi / dec.wealth, rtol=1e-12, atol=0.0)

    def test_flat_tail_chord(self, market):
        # a flat tail is a chord of width inf whose phi(D) is 0 at slope 0:
        # its hedge row is 0, not inf * 0 = NaN, and only the line gambles
        line = PharaPiece(a_lo=0.0, a_hi=5.0, R=0.0, anchor_x=0.0, anchor_u=0.0,
                          anchor_slope=1.0)
        flat = PharaPiece(a_lo=5.0, a_hi=INF, R=0.0, anchor_x=5.0, anchor_u=5.0,
                          anchor_slope=0.0)
        env = PharaUtility(a0=0.0, pieces=(line, flat))
        dec = portfolio_unified(env, market, 0.5, 1.0, 1.0)
        h = 1e-5  # central difference of X_t in log xi: -xi dX/dxi
        fd = (wealth_total(env, market, 0.5, 1.0, math.exp(-h))
              - wealth_total(env, market, 0.5, 1.0, math.exp(h))) / (2.0 * h)
        hedge = dec.total / market.risk_direction
        assert hedge == pytest.approx([fd], rel=1e-6)
        assert hedge == pytest.approx([0.0398], abs=5e-5)
        assert portfolio_general(env, market, 0.5, 1.0, 1.0).tolist() == dec.total.tolist()

class TestWeights:
    def test_sum_to_one(self, demo_envelope, market, demo_dual):
        for t, xi in [(0.0, 1.0), (5.0, 0.2), (9.5, 3.0)]:
            wv = portfolio_unified(demo_envelope.envelope, market, demo_dual.y_star,
                                   t, xi)
            assert wv.p.sum() + wv.q.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(wv.p >= -1e-15)
            assert np.all(wv.q >= -1e-15)

    def test_zero_at_tangency_and_chords(self, contract_envelope, market, contract_dual):
        wv = portfolio_unified(contract_envelope.envelope, market, contract_dual.y_star,
                               3.0, 1.0)
        # tangency point: slopes equal up to the root-find residual
        assert abs(wv.p[1]) <= 1e-14
        assert wv.q[0] == 0.0          # chord cell: exactly equal end slopes

    def test_contract_slope_constants(self, contract_envelope, market, contract_dual):
        alpha, delta, K, m = CONTRACT.alpha, CONTRACT.delta, CONTRACT.K, CONTRACT.m
        assert K == pytest.approx(0.5, abs=1e-12)
        assert m == pytest.approx(0.5 / math.sqrt(1.5), abs=1e-12)
        assert (1 - delta * alpha) * m == pytest.approx(
            0.88 * 0.5 / math.sqrt(1.5), abs=1e-12)

        env = contract_envelope.envelope
        assert env.pieces[0].slope_lo == pytest.approx(K, abs=1e-12)
        assert env.pieces[1].slope_hi == pytest.approx(m, abs=1e-12)
        assert env.pieces[2].slope_lo == pytest.approx((1 - delta * alpha) * m,
                                                       abs=1e-12)

        t, xi = 4.0, 0.9
        w = contract_dual.y_star * xi
        wv = portfolio_unified(env, market, contract_dual.y_star, t, xi)
        assert wv.p[0] == pytest.approx(float(ndtr(d1(K / w, market, t))),
                                        abs=1e-14)
        assert wv.q[2] == pytest.approx(
            1.0 - float(ndtr(d1((1 - delta * alpha) * m / w, market, t))),
            abs=1e-14)


class TestWealthInversion:
    def test_roundtrip(self, demo_envelope, market, demo_dual):
        env = demo_envelope.envelope
        for t in (0.0, 5.0, 9.99):
            disc = market.discount(t)
            for x in (disc * 6.0, disc * 20.0, disc * 45.0):
                xi = state_price_for_wealth(env, market, demo_dual.y_star, t, x)
                back = wealth_total(env, market, demo_dual.y_star, t, xi)
                assert back == pytest.approx(x, rel=1e-8)

    def test_floor_saturates(self, demo_envelope, market, demo_dual):
        t = 5.0
        floor = market.discount(t) * 4.0
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
                floor = market.discount(t) * env.a0
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

class TestBeyondTheDoubles:
    """A closed form that leaves the doubles where its cell has probability 0
    adds 0; elsewhere it is a typed error that names the piece (the rows of
    tests/test_errors.py), not an OverflowError or an overflow warning."""

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


def _round_trip_error(env, market, y, t, x):
    """Worst |X_t(xi(x)) - x| / max(1, |x|) over the unsaturated levels."""
    xi = state_price_for_wealth(env, market, y, t, x)
    ok = xi < 1e18
    back = wealth_total(env, market, y, t, xi[ok])
    err = np.abs(back - x[ok]) / np.maximum(1.0, np.abs(x[ok]))
    return float(err.max(initial=0.0)), int(ok.sum())


def _levels(env, market, t):
    """From just above the discounted floor to 100 times the last kink."""
    disc = market.discount(t)
    floor = disc * env.a0
    top = disc * 100.0 * max(1.0, abs(env.pieces[-1].a_lo)) + floor
    near = floor + np.geomspace(1e-9, 1e-2, 12) * (top - floor)
    return np.concatenate([near, np.linspace(floor, top, 60)[1:]])


@pytest.mark.parametrize("name", same.BUNDLED)
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
        x0 = market.discount(0.0) * env.a0 + float(rng.uniform(0.5, 20.0))
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
                stacked = np.stack([{**r.terms, "total": r.total,
                                     "percentage": r.percentage}[field] for r in rows], axis=1)
                got = {**vec.terms, "total": vec.total, "percentage": vec.percentage}[field]
                assert got.shape == stacked.shape == (1, xi.size)
                assert np.allclose(got, stacked, rtol=1e-12, atol=1e-12 * np.abs(stacked).max())
            assert np.allclose(vec.wealth, [r.wealth for r in rows], rtol=1e-12, atol=0.0)
            for field in ("p", "q", *vec.families):  # per piece
                stacked = np.stack([{"p": r.p, "q": r.q, **r.families}[field] for r in rows],
                                   axis=1)
                got = {"p": vec.p, "q": vec.q, **vec.families}[field]
                assert got.shape == stacked.shape == (len(env.pieces), xi.size)
                assert np.allclose(got, stacked, rtol=1e-12, atol=1e-12 * np.abs(stacked).max())
            assert np.allclose(vec.p.sum(axis=0) + vec.q.sum(axis=0), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Property tests: random envelopes, markets with m = 1..3 assets
# ---------------------------------------------------------------------------


@st.composite
def markets(draw, max_m=3):
    """Well-conditioned (mu, sigma) with 1 to max_m assets: lower-triangular
    volatility whose off-diagonal loadings are at most 0.3 of the asset's own
    volatility."""
    m = draw(st.integers(1, max_m))
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


def _floor(env, market, t=0.0):
    return market.discount(t) * env.a0


@given(seeds, markets(), st.floats(1e-3, 50.0), st.floats(1e-3, 1.0))
def test_dual_solve_properties(seed, market, excess, gap):
    env = concave_envelope(random_raw_utility(seed)).envelope
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
    env = concave_envelope(random_raw_utility(seed)).envelope
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
    dec = portfolio_unified(env, market, y, t, xi)
    assert np.all(dec.p >= 0.0) and np.all(dec.q >= 0.0)


@given(seeds, st.booleans(), markets(), st.floats(-1.0, 1.0), st.floats(0.0, 0.999),
       st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8))
def test_unified_equals_general_properties(seed, raw, market, log_y, frac, logs):
    # one common R, or the envelope of a raw utility: several R, exponential
    # pieces and chords
    env = (concave_envelope(random_raw_utility(seed)).envelope if raw
           else random_concave_envelope(seed))
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


@given(seeds, markets(), st.floats(1e-3, 50.0))
def test_fd_portfolio_properties(seed, market, excess):
    # the delta-hedge against the central difference of the wealth map at
    # the four points of `phara verify`, on envelopes of raw utilities:
    # exponential pieces, several R and chords
    env = concave_envelope(random_raw_utility(seed)).envelope
    y = solve_multiplier(env, market, _floor(env, market) + excess).y_star
    for f, xi in FD_POINTS:
        report = fd_portfolio_check(env, market, y, f * market.T, xi)
        assert report.passed, report


@given(seeds, markets(), st.floats(-1.0, 1.0), st.floats(0.0, 0.999),
       st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8))
def test_split_signs_properties(seed, market, log_y, frac, logs):
    # non-concavity (chords) raises risk taking; non-differentiability
    # (kinks, all at nonnegative wealth when a0 >= 0) lowers it
    env = random_concave_envelope(seed)
    dec = portfolio_unified(env, market, math.exp(log_y), frac * market.T, np.exp(logs))
    direction = market.risk_direction[:, None]  # a term over it has its scalar's sign
    assert np.all(dec.terms["risk_seeking"] * direction >= 0.0)
    assert env.a0 >= 0.0 and np.all(dec.terms["first_order_ra"] * direction <= 0.0)


@given(seeds, markets(), st.floats(0.0, 0.999),
       st.lists(st.one_of(st.floats(-40.0, 40.0), st.just(math.nan)),
                min_size=1, max_size=8))
def test_phi_is_the_running_maximum(seed, market, frac, logs):
    # _phi's row-by-row maximum in place equals numpy's accumulate bit for
    # bit, NaN columns (a NaN state price) and infinite ladder ends included,
    # on the whole ladder and on the exponential pieces' rungs, where a slot
    # repeats at a smooth junction between two of them; the reversed
    # ladder makes every row's maximum differ from its own value.  The power
    # pieces' rows of the same normal.cdf call take no maximum.
    tab, logs = _tables(concave_envelope(random_raw_utility(seed)).envelope), np.array(logs)
    h = _horizon(market, frac * market.T, tab)
    for t in (tab, tab._replace(log_slopes=tab.log_slopes[::-1])):
        D, R = _d1_outer(t.log_slopes, logs, h), t.R[t.crra, None]
        G = normal.cdf(D[t.crra_rungs] - np.repeat(h.s / R, 2, axis=0))
        power = t.C[t.crra, None] * np.exp(-logs / R) * h.growth * (G[1::2] - G[::2])
        for slots in (slice(None), t.cara_rungs):
            got, F, xR = _phi(t, h, logs, slots)
            assert got.tobytes() == D.tobytes()
            ref = np.maximum.accumulate(normal.cdf(D[slots].copy()), axis=0)  # not D
            assert F.tobytes() == ref.tobytes()
            assert np.array_equal(xR, power, equal_nan=True)


@given(seeds, markets(max_m=2), st.floats(-2.0, 2.0), st.floats(0.0, 0.999),
       st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8))
def test_no_kink_weight_at_a_tangency(seed, market, log_y, frac, logs):
    # where a chord touches a curve the envelope is differentiable, so the
    # kink weight p there is exactly 0, even where concavification left the
    # two slopes ulps apart: a junction that is no kink has one ladder slot
    result = concave_envelope(random_raw_utility(seed))
    env, t = result.envelope, frac * market.T
    dec = portfolio_unified(env, market, math.exp(log_y), t, np.exp(logs))
    for x in result.tangency_points:
        assert np.all(dec.p[env.partition.tolist().index(x)] == 0.0)


def _slots(env, keep=None):
    """Ladder slots by the kink rule: two per kept piece, one per linear
    piece, less one per junction of two kept pieces that ``kinks()`` does not
    list.  keep=None keeps every piece and adds the ladder's first row, the
    slope inf left of a0, unless the first piece's slope is infinite there."""
    kinks, pairs = env.kinks(), zip(env.pieces, env.pieces[1:])
    head = keep is None and env.pieces[0].slope_lo < INF
    keep = keep or (lambda p: True)
    return (head + sum(1 if p.R == 0.0 else 2 for p in env.pieces if keep(p))
            - sum(keep(a) and keep(b) and b.a_lo not in kinks for a, b in pairs))


def _assert_one_slot_per_smooth_junction(env):
    tab = _tables(env)  # NotConcave where the ladder rises
    kinks = env.kinks()
    for k, x in enumerate(env.partition[1:-1], 1):  # a0 is a kink by fiat
        assert (tab.slot[2 * k + 1] != tab.slot[2 * k]) == (x in kinks), x
    assert tab.log_slopes.size == _slots(env)


@given(seeds)
def test_one_slot_per_smooth_junction_properties(seed):
    # every envelope the sweep builds passes _tables' concavity check, and
    # each junction that kinks() does not list shares one slot
    _assert_one_slot_per_smooth_junction(concave_envelope(random_raw_utility(seed)).envelope)


@pytest.mark.parametrize("name, gain", [(n, None) for n in same.BUNDLED]
                         + [("hedge_fund", 1e-300)])
def test_one_slot_per_smooth_junction(tmp_path, name, gain):
    # gain exponent 1e-300: the slopes 3.03e-301 and 6.93e-301 at the
    # junction 3.297 are one slope by the kink rule, for the sweep, kinks()
    # and _tables alike
    edit = {} if gain is None else {"utility.preference.gain_exponent": gain}
    utility = load_scenario(same.write_scenario(tmp_path / "s.json", name, edit)).utility
    _assert_one_slot_per_smooth_junction(concave_envelope(utility).envelope)


@pytest.mark.parametrize("name", same.BUNDLED)
def test_one_phi_call_per_block(monkeypatch, name):
    # a block of wealth_total makes one normal.cdf call, on the ladder's
    # slots, which the kink rule counts, and two rows per power piece; a
    # block of the Euler step's portfolio_general reads only the
    # exponential pieces' slots
    scn = load_scenario(SCENARIOS / f"{name}.json")
    env, market = concave_envelope(scn.utility).envelope, scn.market
    power = sum(0.0 < p.R < INF for p in env.pieces)
    shapes, cdf = [], normal.cdf

    def counted(x):
        shapes.append(np.shape(x))
        return cdf(x)
    monkeypatch.setattr(normal, "cdf", counted)
    xi = np.geomspace(0.1, 10.0, _BLOCK + 1)
    wealth_total(env, market, 1.0, 1.0, xi)
    rows = _slots(env) + 2 * power
    assert shapes == [(rows, _BLOCK), (rows, 1)]
    shapes.clear()
    portfolio_general(env, market, 1.0, 1.0, xi)
    rows = _slots(env, lambda p: p.R == INF) + 2 * power
    assert shapes == [(rows, _BLOCK), (rows, 1)]


def test_block_temporaries_bounded(market, demo_envelope, demo_dual):
    # one block of 4096 states on the demo: the Phi arguments fill one array
    # that normal.cdf overwrites, and the series copy only their own arguments
    env = demo_envelope.envelope
    xi = sample_kernel_at(market, 5.0, _BLOCK, seed=3)
    wealth_total(env, market, demo_dual.y_star, 5.0, xi)  # tables cached
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        wealth_total(env, market, demo_dual.y_star, 5.0, xi)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 2**20


def test_every_steep_composition_builds():
    # the value rule reads the rounding a steep payoff magnifies: each draw
    # composes, passes the continuity and composition checks, and has an
    # envelope; the junction rule reads the rounding of the sweep's chord
    # ends: each envelope's slope ladder passes _tables
    for s in range(1000):
        _tables(concave_envelope(steep_composition(s)).envelope)


def _assert_attains_the_argmax(raw, env, seed):
    # the closed-form terminal wealth attains the raw utility's
    # grid-and-golden argmax objective at 3 multipliers
    for w in interesting_multipliers(env, np.random.default_rng(seed), 3):
        objective = [float(raw.value(x)) - w * x for x in
                     (argmax_oracle(raw, 1.0, w), optimal_terminal_wealth(env, 1.0, w))]
        assert objective[0] - objective[1] <= 1e-10 * max(1.0, abs(objective[0]))


def test_capped_payoff_attains_the_argmax(tmp_path):
    # a flat tail has bounded demand: the terminal wealth stays in [a0, a_f]
    # and attains the raw utility's argmax objective
    same.group_commands("capped", tmp_path / "s")
    raw = load_scenario(tmp_path / "s" / "capped.json").utility
    env = concave_envelope(raw).envelope
    assert env.pieces[-1].slope_lo == 0.0 and env.pieces[-1].a_lo == raw.pieces[-1].a_lo
    _assert_attains_the_argmax(raw, env, 0)


def test_flat_envelope_has_a_ceiling(market, monkeypatch):
    # the envelope turns flat at its first slope 0, here a_f = 1 though a
    # second flat piece starts at 2: X_T <= 1, so X_t < e^{-r(T-t)}.  A level
    # at or above that ceiling is infeasible whatever xi_cap is, and no
    # ladder rung is evaluated for it
    env = concave_envelope(piecewise_linear_payoff(0.0, 0.0, (1.0, 2.0),
                                                   (1.0, 0.0, 0.0))).envelope
    ceiling = market.discount(5.0)
    assert wealth_bounds(env, market, 5.0) == (0.0, ceiling)
    assert wealth_bounds(crra_utility(0.5), market, 5.0) == (0.0, INF)
    with monkeypatch.context() as m:
        m.setattr(solver, "wealth_total", lambda *args: pytest.fail("a rung was evaluated"))
        for cap in (1e18, INF):
            with pytest.raises(InfeasibleBudget, match=f"ceiling .* = {re.escape(repr(ceiling))}"):
                state_price_for_wealth(env, market, 1.0, 5.0, [0.5, ceiling], xi_cap=cap)
    xi = state_price_for_wealth(env, market, 1.0, 5.0, 0.99 * ceiling)
    assert wealth_total(env, market, 1.0, 5.0, xi) == pytest.approx(0.99 * ceiling, rel=1e-12)


def test_steep_compositions_match_the_argmax_oracle():
    # on every one of the 450 envelopes, none skipped.  Seeds 0-449 include
    # 103 envelopes whose compositions a fixed relative value tolerance (1e-9
    # or 1e-10, with no rounding term) rejects, and 68 whose ladders rise by
    # rounding at a junction that kinks() calls one slope
    for s in range(450):
        raw = steep_composition(s)
        _assert_attains_the_argmax(raw, concave_envelope(raw).envelope, s)


@pytest.mark.parametrize("seed", [891, 1316, 2039, 2936])
def test_rounded_junctions_take_the_chords_slope(seed):
    # a chord ends within ulps of a power piece's benchmark.  In draw 1316 the
    # gain branch after the chord starts at slope +inf; in 891, 2039 and 2936 a
    # power piece at most 2.1e-9 wide ends 6.7e-9, 5.4e-9 and 8.6e-9 below the
    # slope of the long chord after it.  kinks() calls each junction one slope,
    # both ladder rows take the chord's slope, and the junction shares one slot
    raw = steep_composition(seed)
    env = concave_envelope(raw).envelope
    tab, kinks = _tables(env), env.kinks()
    rounded = [k for k, (left, right) in enumerate(zip(env.pieces, env.pieces[1:]), 1)
               if right.a_lo not in kinks and not same_slope(left.slope_hi, right.slope_lo)]
    assert rounded
    for k in rounded:
        chord = next(p for p in env.pieces[k - 1:k + 1] if p.R == 0.0)
        assert tab.ladder[2 * k] == tab.ladder[2 * k + 1] == chord.anchor_slope
    _assert_one_slot_per_smooth_junction(env)
    _assert_attains_the_argmax(raw, env, seed)


@pytest.mark.parametrize("factor", [0.5, 100.0])
def test_junction_rule_admits_rounding_only(monkeypatch, tmp_path, capsys, factor):
    # a line of slope 1 into a power piece 1e-8 above its benchmark, whose
    # slope falls by a window of 4.4e-8 of itself over the 4 ulps right of the
    # junction at 1.  Raised by half its window, the junction is one slope:
    # kinks() omits it, both ladder rows take the line's slope, and phara
    # solve exits 0.  Raised by 100 times its window, it is a kink that rises:
    # _tables raises NotConcave, and phara solve exits 2 on an envelope that
    # kept it
    lo, hi = {"a_lo": 0.0, "R": 0.0, "u_plus": 0.0, "gamma_plus": 1.0}, {
        "a_lo": 1.0, "R": 0.5, "A": 1.0 - 1e-8, "u_plus": 1.0, "gamma_plus": 1.0}
    probe = cli._parse_utility({"a0": 0.0, "pieces": [lo, hi]}).pieces[1]
    hi["gamma_plus"] += factor * (probe.slope_lo - probe.slope(1.0 + 4.0 * math.ulp(1.0)))
    path = same.write_scenario(tmp_path / "s.json", "crra",
                               {"utility": {"a0": 0.0, "pieces": [lo, hi]}})
    u = load_scenario(path).utility
    assert not same_slope(u.pieces[0].slope_hi, u.pieces[1].slope_lo)
    monkeypatch.setattr(cli, "concave_envelope", lambda utility: EnvelopeResult(u, (), ()))
    code = cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path)])
    if factor < 1.0:
        assert u.kinks() == [0.0] and _tables(u).ladder.tolist() == [INF, 1.0, 1.0, 1.0, 0.0]
        assert code == 0
        return
    assert u.kinks() == [0.0, 1.0]
    with pytest.raises(NotConcave, match=r"slope 1\.0 at 1\.0 rises to 1\.0000044"):
        _tables(u)
    assert code == 2 and "error: utility is not concave" in capsys.readouterr().err


def test_wrong_steep_compositions_raise():
    # 100 times the value rule's bound: a branch off by it at a probe fails
    # the composition check, and a junction that drops by it fails continuity
    for s in range(100):
        pref, payoff = steep_parts(s)
        u = compose(pref, payoff)
        # the first branch down and the last up: neither shift drops a junction
        for k, sign in ((0, -1.0), (-1, 1.0)):
            piece = u.pieces[k]
            hi = piece.a_hi if np.isfinite(piece.a_hi) else piece.a_lo + 10.0
            x = piece.a_lo + (hi - piece.a_lo) * 0.13  # the first probe
            w = float(payoff.value(x))
            branch = pref.pieces[pref._piece_index(w)]
            v = float(piece.value(x))
            bound = 1e-10 * max(1.0, abs(v)) + piece.rounding(x) + branch.rounding(w)
            pieces = list(u.pieces)
            pieces[k] = replace(piece, anchor_u=piece.anchor_u + sign * 100.0 * bound)
            with pytest.raises(NotPhara, match="does not reduce"):
                _verify_composition(replace(u, pieces=tuple(pieces)), pref, payoff)
        for j in range(1, len(u.pieces)):
            left, right = u.pieces[j - 1], u.pieces[j]
            x, lv, rv = right.a_lo, left.value_hi, right.value_lo
            drop = 100.0 * (1e-10 * max(1.0, abs(lv), abs(rv))
                            + left.rounding(x) + right.rounding(x)) + max(rv - lv, 0.0)
            with pytest.raises(IllegalCase, match="decreases across the junction"):
                replace(u, pieces=u.pieces[:j] + tuple(
                    replace(p, anchor_u=p.anchor_u - drop) for p in u.pieces[j:]))


def _envelope_values(utility):
    """The concave envelope's anchors and its values at its junctions."""
    env = concave_envelope(utility).envelope
    anchors = [(p.anchor_u, p.anchor_slope) for p in env.pieces]
    return np.concatenate([np.ravel(anchors), env.value(env.partition[:-1])])


@given(seeds, markets(), st.floats(-5.0, 60.0), st.floats(-1.0, 25.0),
       st.floats(-5.0, 60.0), st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=8),
       st.floats(-300.0, 300.0), st.floats(-15.0, -1.0))
def test_failures_are_typed(seed, market, x0, t, x, log_xi, log_y, log_gap):
    """Out-of-range budgets, times (t just below T among them), wealth
    levels, multipliers and state prices, non-concave utilities, and the
    envelopes of S-shaped preferences composed with steep payoffs: whatever
    fails raises a PharaError, and a call that returns has only finite
    values.  The suite turns a RuntimeWarning into a failure, so none may be
    emitted on the way."""
    raw = random_raw_utility(seed)
    env = concave_envelope(raw).envelope
    xi = 10.0 ** np.array(log_xi)  # log-uniform in [1e-300, 1e300]
    y = 10.0 ** log_y  # likewise
    calls = [
        lambda: solve_multiplier(env, market, x0),
        lambda: budget(env, market, float(xi[0])),
        lambda: _envelope_values(steep_composition(seed)),
    ]
    for s in (t, market.T - 10.0 ** log_gap):  # and t just below T
        calls += [lambda s=s: state_price_for_wealth(env, market, y, s, x),
                  lambda s=s: wealth_total(raw, market, y, s, 1.0),
                  lambda s=s: portfolio_general(env, market, y, s, np.array([0.5, 2.0]))]
        for z in (float(xi[0]), xi):  # scalar and vector state prices
            calls += [lambda s=s, z=z: portfolio_unified(env, market, y, s, z),
                      lambda s=s, z=z: wealth_total(env, market, y, s, z),
                      lambda s=s, z=z: portfolio_general(env, market, y, s, z)]
    calls += [lambda z=z: optimal_terminal_wealth(env, y, z) for z in (float(xi[0]), xi)]
    for call in calls:
        try:
            out = call()
        except PharaError:
            continue
        if isinstance(out, PortfolioDecomposition):
            arrays = [v for k, v in out._asdict().items() if k not in ("terms", "families")]
            arrays += [*out.terms.values(), *out.families.values()]
            assert all(np.all(np.isfinite(v)) for v in arrays)
        elif not isinstance(out, DualSolution):
            assert np.all(np.isfinite(out))


@given(markets(max_m=1), st.lists(st.one_of(st.floats(0.0, 3.0), st.floats()),
                                  min_size=7, max_size=7), st.integers(-2, 1))
def test_constructor_and_oracle_failures_are_typed(market, v, n_paths):
    """Moderate numbers or any doubles, NaN and +-inf among them, for the constructors,
    and sample sizes too small for a standard error: whatever fails raises a
    PharaError, and a call that returns has only finite values: an exponential
    piece's alpha, a utility's knots, a report's figures."""
    env = crra_utility(0.5)
    calls = [lambda: PharaPiece(a_lo=0.0, a_hi=INF, R=INF, anchor_x=0.0, anchor_u=-1.0,
                                anchor_slope=1.0, alpha=v[0]).alpha,
             lambda: piecewise_linear_payoff(v[0], v[1], v[2:4], v[4:7]),
             lambda: mc_budget_check(env, market, 1.0, n_paths, 0),
             lambda: mc_martingale_check(env, market, 1.0, 0.5 * market.T, n_paths, 0),
             lambda: simulate_order_check(env, market, 1.0, 1.0, n_paths, 10, 0)]
    for call in calls:
        try:
            out = call()
        except PharaError:
            continue
        if isinstance(out, PharaUtility):
            out = out.partition[:-1]
        elif isinstance(out, VerificationReport):
            out = [out.computed, out.oracle, out.tolerance]
        assert np.all(np.isfinite(out))


def test_readme_python_example_runs(capsys):
    # README's one python block runs as printed and builds the bundled contract
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    assert namespace["utility"] == bundled("participating_contract").utility
