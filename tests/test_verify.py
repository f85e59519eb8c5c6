import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import ROOT, SCENARIOS, deriv, interesting_multipliers
from corpora import crra_utility
from phara.cli import main
from phara.concavify import concave_envelope
from phara.errors import StepTooCoarse
from phara.market import build_market, sample_kernel_at
from phara.solver import budget, optimal_terminal_wealth, solve_multiplier
from phara.utility import piecewise_linear_payoff
from phara.verify import (_CHUNK, _mc_check, argmax_oracle, fd_portfolio_check,
                          mc_budget_check, mc_martingale_check,
                          simulate_order_check, simulate_strategy)


class TestArgmaxOracle:
    def test_crra_matches_inverse_marginal(self, crra_envelope):
        for w in (0.2, 1.0, 3.0):
            got = argmax_oracle(crra_envelope, w, 1.0)
            assert got == pytest.approx(w**-2.0, rel=1e-6)

    def test_linear_tail_no_steeper_than_w(self):
        # U(x) - w x does not increase on a tail of slope w/2: the argmax is
        # the floor, inside the grid that ends at a_lo + 2 span
        assert argmax_oracle(piecewise_linear_payoff(0.0, 0.0, (), (0.5,)), 1.0, 1.0) == 0.0

    def test_raw_demo_agrees_with_closed_form(self, demo_utility,
                                              demo_envelope, demo_dual):
        rng = np.random.default_rng(10)
        env = demo_envelope.envelope
        ws = interesting_multipliers(env, rng, 40)
        span = 400.0
        for w in ws:
            oracle = argmax_oracle(demo_utility, demo_dual.y_star,
                                   w / demo_dual.y_star)
            closed = optimal_terminal_wealth(env, demo_dual.y_star,
                                             w / demo_dual.y_star)
            assert abs(oracle - closed) <= 1e-5 * span

    def test_raw_demo_never_inside_bridged_gap(self, demo_utility):
        # the raw maximizer jumps across (12, 28); it never lands inside
        rng = np.random.default_rng(11)
        chord_slope = math.sqrt(0.03)
        for _ in range(60):
            w = chord_slope * math.exp(rng.uniform(-3.0, 3.0))
            if abs(math.log(w / chord_slope)) < 1e-6:
                continue
            x = argmax_oracle(demo_utility, 1.0, w)
            assert not 12.001 < x < 27.999

    def test_raw_contract_never_inside_bridged_gap(self, contract_utility):
        rng = np.random.default_rng(12)
        for _ in range(60):
            w = 0.5 * math.exp(rng.uniform(-3.0, 3.0))
            if abs(math.log(w / 0.5)) < 1e-6:
                continue
            x = argmax_oracle(contract_utility, 1.0, w)
            assert not 0.001 < x < 1.999


class TestMonteCarlo:
    def test_budget_three_fixtures(self, market, demo_envelope, contract_envelope,
                                   crra_envelope, demo_dual, contract_dual):
        cases = [
            (crra_envelope, solve_multiplier(crra_envelope, market, 10.0)),
            (demo_envelope.envelope, demo_dual),
            (contract_envelope.envelope, contract_dual),
        ]
        for env, sol in cases:
            rep = mc_budget_check(env, market, sol.y_star, 50_000, seed=314)
            assert rep.passed, rep
            assert rep.oracle == pytest.approx(sol.x0, abs=1e-9)
            # the oracle is the point evaluator's wealth, the budget bit for bit
            assert rep.oracle == budget(env, market, sol.y_star)

    def test_martingale(self, market, demo_envelope, demo_dual):
        for i, t in enumerate((2.5, 5.0, 7.5)):
            rep = mc_martingale_check(demo_envelope.envelope, market,
                                      demo_dual.y_star, t, 50_000, seed=41 + i)
            assert rep.passed, rep

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_log_utility_within_rounding(self, market, seed):
        # for U = log x, xi_t X_t is the budget itself: the sample's standard
        # error is rounding alone, below one ulp of the budget, so the band is
        # the budget's own rounding bound
        env = concave_envelope(crra_utility(1.0)).envelope
        y = solve_multiplier(env, market, 10.0).y_star
        reports = [mc_budget_check(env, market, y, 2000, seed)]
        reports += [mc_martingale_check(env, market, y, t, 2000, seed)
                    for t in (2.5, 5.0, 7.5)]
        for rep in reports:
            assert 3.0 * rep.detail["std_error"] < math.ulp(rep.oracle) < rep.tolerance
            assert rep.passed, rep

    def test_seed_stability(self, market, demo_envelope, demo_dual):
        a = mc_budget_check(demo_envelope.envelope, market, demo_dual.y_star,
                            20_000, seed=5)
        b = mc_budget_check(demo_envelope.envelope, market, demo_dual.y_star,
                            20_000, seed=5)
        assert a == b

    @pytest.mark.parametrize("n", [2, 3, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
    def test_streamed_mean_and_error(self, market, n, scale=1.0):
        # the chunks' running mean and sum of squared deviations give the
        # one-pass figures of the whole sample, whose length crosses chunk
        # edges, at the values' scale
        rng = np.random.default_rng(n)
        level, spread = rng.uniform(-50.0, 50.0), rng.uniform(0.1, 10.0)

        def value(xi):
            return scale * (level + spread * np.sin(1e3 * xi)) / xi
        rep = _mc_check("stream", market, 3.0, n, 17, value, scale, 0.0, {})
        xi = sample_kernel_at(market, 3.0, n, 17)
        v = xi * value(xi) / scale
        assert rep.detail["paths"] == n
        assert rep.computed == pytest.approx(scale * np.mean(v), rel=1e-13)
        assert rep.detail["std_error"] == pytest.approx(
            scale * np.std(v, ddof=1) / math.sqrt(n), rel=1e-13)

    @pytest.mark.parametrize("n", [2, _CHUNK + 1])
    def test_streamed_at_a_huge_oracle(self, market, n):
        # at an oracle of 2^900 the squared deviations would leave the doubles
        self.test_streamed_mean_and_error(market, n, 2.0**900)

    def test_memory_does_not_grow_with_paths(self, tmp_path):
        # the checks stream their paths: ten times the paths, the same peak
        def peak_mb(paths):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                       if os.environ.get("PYTHONPATH") else [])))
            proc = subprocess.Popen(
                [sys.executable, "-m", "phara.cli", "verify", "--scenario",
                 str(SCENARIOS / "crra.json"), "--out", str(tmp_path / str(paths)),
                 "--paths", str(paths)], env=env, stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            return usage.ru_maxrss / 1024.0
        assert peak_mb(1_000_000) <= peak_mb(100_000) + 3.0


class TestReportRunner:
    def test_reports_sorted_by_name(self, tmp_path):
        # cmd_verify builds its reports and writes them sorted by name
        main(["verify", "--scenario", str(SCENARIOS / "multi_kink_demo.json"),
              "--out", str(tmp_path), "--paths", "5000"])
        names = [r["name"] for r in
                 json.loads((tmp_path / "verification.json").read_text())]
        assert names == sorted(names)
        assert len(names) == 8


class TestFiniteDifference:
    def test_crra_portfolio(self, crra_envelope, market):
        sol = solve_multiplier(crra_envelope, market, 10.0)
        rep = fd_portfolio_check(crra_envelope, market, sol.y_star, 2.0, 1.0)
        assert rep.passed is True and rep.computed <= 1e-8  # a bool JSON can write

    def test_demo_portfolio_many_points(self, demo_envelope, market, demo_dual):
        rng = np.random.default_rng(21)
        env = demo_envelope.envelope
        for _ in range(20):
            t = rng.uniform(0.0, 0.8 * market.T)
            xi = math.exp(rng.uniform(-1.5, 1.5))
            rep = fd_portfolio_check(env, market, demo_dual.y_star, t, xi)
            assert rep.passed, rep

    def test_contract_portfolio(self, contract_envelope, market, contract_dual):
        for t, xi in [(0.0, 1.0), (5.0, 0.8), (8.0, 1.5)]:
            rep = fd_portfolio_check(contract_envelope.envelope, market,
                                     contract_dual.y_star, t, xi)
            assert rep.passed, rep


class TestSimulation:
    def test_step_floor(self, crra_envelope, market):
        with pytest.raises(StepTooCoarse):
            simulate_strategy(crra_envelope, market, 1.0, 10.0, 100, 5,
                              seed=0)

    def test_crra_strong_order(self, crra_envelope, market):
        y_star = solve_multiplier(crra_envelope, market, 10.0).y_star
        rep = simulate_order_check(crra_envelope, market, y_star, 10.0, 2_000,
                                   250, seed=2024)
        assert rep.passed, rep

    def test_two_asset_strong_order(self, demo_utility):
        # the Euler step's m > 1 algebra: sigma^T pi against two Brownian drivers
        market = build_market(r=0.05, mu=[0.086, 0.07],
                              sigma=[[0.3, 0.0], [0.1, 0.2]], T=10.0)
        env = concave_envelope(demo_utility).envelope
        y_star = solve_multiplier(env, market, 25.0).y_star
        rep = simulate_order_check(env, market, y_star, 25.0, 4_000, 100, seed=2024)
        assert rep.passed, rep

    def test_demo_terminal_mass_at_kinks(self, demo_envelope, market,
                                         demo_dual):
        # simulated terminal wealth accumulates at the kink levels with the
        # closed-form probabilities of the kink events; the physical chance
        # of y xi_T in (gplus, gminus) uses the plain normal quantile (d0),
        # while the p-weights are their price-weighted counterparts
        from scipy.special import ndtr
        from conftest import d0
        from phara.market import sample_kernel_at
        env = demo_envelope.envelope
        rms = simulate_strategy(env, market, demo_dual.y_star, 25.0, 4_000,
                                400, seed=3)
        assert isinstance(rms, float) and math.isfinite(rms)
        xi_T = sample_kernel_at(market, market.T, 100_000, seed=8)
        x_T = optimal_terminal_wealth(env, demo_dual.y_star, xi_T)
        y = demo_dual.y_star
        left = [math.inf] + [p.slope_hi for p in env.pieces]  # the slope left of a_k
        for k, a_k in enumerate(env.partition[:-1]):
            gp, gm = env.pieces[k].slope_lo, left[k]
            atom = float(ndtr(d0(gp / y, market, 0.0))
                         - ndtr(d0(gm / y, market, 0.0)))
            if atom < 1e-3:
                continue
            # the window [a_k (1 +- 0.01)] also captures continuum neighbours;
            # its exact probability follows from the envelope slopes there
            lo, hi = a_k * 0.99, a_k * 1.01
            s_hi = deriv(env, hi, "right")
            s_lo = math.inf if lo < env.a0 else deriv(env, lo, "left")
            prob = float(ndtr(d0(s_hi / y, market, 0.0))
                         - ndtr(d0(s_lo / y, market, 0.0)))
            freq = np.mean(np.abs(x_T - a_k) < 0.01 * a_k)
            se = math.sqrt(prob * (1 - prob) / x_T.size)
            assert prob >= atom
            assert abs(freq - prob) <= 4 * se
