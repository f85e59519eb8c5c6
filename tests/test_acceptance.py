"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import math
import time

import numpy as np

from conftest import CONTRACT, interesting_multipliers
from corpora import random_concave_envelope
from phara.solver import (optimal_terminal_wealth, portfolio_general,
                          portfolio_unified, solve_multiplier, state_price_for_wealth)
from phara.verify import (argmax_oracle, fd_portfolio_check, mc_budget_check,
                          mc_martingale_check)


def _report(number, label, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number} ({label}): {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def test_criterion_1_merton_constant(market, crra_envelope):
    start = time.time()
    sol = solve_multiplier(crra_envelope, market, 10.0)
    worst = 0.0
    for t in (0.0, 2.5, 5.0, 7.5, 9.9):
        for xi in np.geomspace(0.05, 20.0, 20):
            dec = portfolio_unified(crra_envelope, market, sol.y_star, t, xi)
            worst = max(worst, abs(float(dec.percentage[0]) - 0.8))
    elapsed = time.time() - start
    _report(1, "Merton constant", worst <= 1e-10 and elapsed < 1.0,
            f"max |pct - 0.8| = {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_demo_envelope(demo_envelope):
    start = time.time()
    kinks = demo_envelope.envelope.kinks()
    ok = len(kinks) == 4 and all(
        abs(a - b) <= 1e-6 for a, b in zip(kinks, (4.0, 4.4, 12.0, 40.0)))
    tang = demo_envelope.tangency_points
    # analytic cross-check: chord slope from (12, 0): 0.5 (x-12) = x - 20
    analytic = 28.0
    ok = ok and len(tang) == 1 and abs(tang[0] - analytic) <= 1e-6
    elapsed = time.time() - start
    _report(2, "showcase envelope", ok and elapsed < 1.0,
            f"kinks={kinks}, tangency={tang}, {elapsed:.2f}s")


def test_criterion_3_contract_tangency(contract_envelope):
    alpha, delta, K, m = CONTRACT.alpha, CONTRACT.delta, CONTRACT.K, CONTRACT.m
    env = contract_envelope.envelope
    tang = contract_envelope.tangency_points[0]
    ok = abs(tang - CONTRACT.tangency) <= 1e-9
    ok = ok and abs(K - 0.5) <= 1e-12
    ok = ok and abs(m - 0.5 / math.sqrt(1.5)) <= 1e-12
    ok = ok and abs(env.pieces[0].slope_lo - K) <= 1e-12
    ok = ok and abs(env.pieces[1].slope_hi - m) <= 1e-12
    ok = ok and abs(env.pieces[2].slope_lo - (1 - delta * alpha) * m) <= 1e-12
    _report(3, "participating-contract tangency", ok,
            f"tangency={tang!r}, K={K}, m={m}")


def test_criterion_4_unified_equals_general(market):
    start = time.time()
    rng = np.random.default_rng(20260810)
    worst, worst_abs, checked = 0.0, 0.0, 0
    for _ in range(100):
        R = float(rng.uniform(0.2, 5.0))
        env = random_concave_envelope(rng, R=R)
        y = math.exp(rng.uniform(-1.0, 1.0))
        for w in interesting_multipliers(env, rng, 20):
            t = float(rng.uniform(0.0, market.T - 1e-3))
            xi = w / y
            dec = portfolio_unified(env, market, y, t, xi)
            gen = portfolio_general(env, market, y, t, xi)
            gap = float(np.linalg.norm(dec.total - gen))
            scale = max(np.linalg.norm(gen), np.linalg.norm(dec.total))
            worst_abs = max(worst_abs, gap / (1.0 + abs(dec.wealth)))
            if scale < 1e-5 * (1.0 + abs(dec.wealth)):
                continue  # portfolio numerically zero: cancellation noise only
            worst = max(worst, gap / scale)
            checked += 1
    elapsed = time.time() - start
    _report(4, "four-term split vs general form",
            worst <= 1e-9 and worst_abs <= 1e-11 and checked >= 1500
            and elapsed < 10.0,
            f"max rel gap {worst:.3e} over {checked} points "
            f"(abs {worst_abs:.2e} everywhere), {elapsed:.1f}s")


def test_criterion_5_finite_difference(market, demo_envelope, demo_dual,
                                        contract_envelope, contract_dual):
    start = time.time()
    ok = True
    lines = []
    for env, sol in ((demo_envelope.envelope, demo_dual),
                     (contract_envelope.envelope, contract_dual)):
        # 16 ordinary points at the default 1e-6 tolerance
        for t in (0.0, 2.5, 5.0, 7.5):
            for xi in (0.5, 0.9, 1.4, 2.2):
                rep = fd_portfolio_check(env, market, sol.y_star, t, xi)
                ok = ok and rep.passed
                if not rep.passed:
                    lines.append(f"{rep.name}: {rep.computed:.2e}")
        # 4 near-kink points, at the same default tolerance
        t = market.T - 0.01
        for piece in env.pieces:
            g = piece.slope_lo
            if not np.isfinite(g) or len(lines) > 8:
                continue
            xi = g / sol.y_star * 1.001
            rep = fd_portfolio_check(env, market, sol.y_star, t, xi)
            ok = ok and rep.passed
            if not rep.passed:
                lines.append(f"near-kink {rep.name}: {rep.computed:.2e}")
    elapsed = time.time() - start
    _report(5, "finite-difference delta", ok and elapsed < 5.0,
            f"{'all points within tolerance' if ok else lines}, {elapsed:.1f}s")


def test_criterion_6_budget_martingale_mc(market, demo_envelope, demo_dual,
                                          contract_envelope, contract_dual,
                                          crra_envelope):
    start = time.time()
    n = 100_000
    seed = 20260810
    cases = [("crra", crra_envelope, solve_multiplier(crra_envelope, market, 10.0)),
             ("demo", demo_envelope.envelope, demo_dual),
             ("contract", contract_envelope.envelope, contract_dual)]
    reports = [(name, mc_budget_check(env, market, sol.y_star, n, seed))
               for name, env, sol in cases]
    env, sol = demo_envelope.envelope, demo_dual
    reports += [("demo", mc_martingale_check(env, market, sol.y_star, t, n, seed + 1 + i))
                for i, t in enumerate((market.T / 4, market.T / 2, 3 * market.T / 4))]
    # each report passes within 3 standard errors of the closed-form budget
    ok = all(rep.passed for _, rep in reports)
    details = [f"{name} {rep.name} gap {abs(rep.computed - rep.oracle):.4f} "
               f"(3se={rep.tolerance:.4f})" for name, rep in reports]
    elapsed = time.time() - start
    _report(6, "budget/martingale Monte-Carlo", ok and elapsed < 30.0,
            "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_7_terminal_argmax(market, demo_utility, demo_envelope,
                                     demo_dual, contract_utility, contract_envelope,
                                     contract_dual, crra_envelope):
    start = time.time()
    rng = np.random.default_rng(777)
    ok = True
    worst = 0.0
    cases = [
        (crra_envelope, crra_envelope,
         solve_multiplier(crra_envelope, market, 10.0)),
        (demo_utility, demo_envelope.envelope, demo_dual),
        (contract_utility, contract_envelope.envelope, contract_dual),
    ]
    for raw, env, sol in cases:
        span = 40.0 * max(1.0, env.pieces[-1].a_lo - env.a0 + 1.0)
        for w in interesting_multipliers(env, rng, 200):
            xi = w / sol.y_star
            oracle = argmax_oracle(raw, sol.y_star, xi)
            closed = optimal_terminal_wealth(env, sol.y_star, xi)
            gap = abs(oracle - closed)
            worst = max(worst, gap / span)
            ok = ok and gap <= span * 1e-4
    elapsed = time.time() - start
    _report(7, "terminal argmax oracle", ok and elapsed < 10.0,
            f"max gap {worst:.2e} of span, {elapsed:.1f}s")


def test_criterion_8_portfolio_shape(market, demo_envelope, demo_dual):
    start = time.time()
    env = demo_envelope.envelope
    y = demo_dual.y_star
    details = []

    # (a) inside each chord the gamble scales like 1/sqrt(time left)
    ok = True
    for x_ref in (8.2, 20.0):
        scaled = []
        for tau in (1e-2, 1e-4):
            t = market.T - tau
            x = market.discount(t) * x_ref
            xi = state_price_for_wealth(env, market, y, t, x)
            dec = portfolio_unified(env, market, y, t, xi)
            scaled.append(float(dec.percentage[0]) * math.sqrt(tau))
        rel = abs(scaled[0] - scaled[1]) / abs(scaled[1])
        ok = ok and rel <= 0.05
        details.append(f"chord@{x_ref}: pct*sqrt(tau) {scaled[0]:.4f} vs "
                       f"{scaled[1]:.4f} ({100 * rel:.2f}%)")

    # (b) at discounted kinks the position collapses
    tau = 1e-4
    t = market.T - tau
    for a_k in (4.0, 4.4, 12.0, 40.0):
        x = market.discount(t) * a_k
        xi = state_price_for_wealth(env, market, y, t, x)
        dec = portfolio_unified(env, market, y, t, xi)
        pct = abs(float(dec.percentage[0]))
        ok = ok and pct <= 0.008
        details.append(f"kink@{a_k}: pct {pct:.2e}")

    # (c) far in the tail the Merton constant takes over
    x = 100.0 * 40.0
    xi = state_price_for_wealth(env, market, y, t, x)
    dec = portfolio_unified(env, market, y, t, xi)
    pct = float(dec.percentage[0])
    ok = ok and abs(pct - 0.8) <= 0.02 * 0.8
    details.append(f"tail pct {pct:.4f}")

    elapsed = time.time() - start
    _report(8, "near-terminal shape", ok and elapsed < 5.0,
            "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_9_sahara_contrast(market, contract_envelope, contract_dual):
    # SAHARA, of absolute risk aversion alpha / sqrt(beta^2 + x^2), holds at zero
    # wealth the position risk_direction / alpha beta e^{-(r - |theta|^2 / (2 alpha^2)) T}
    alpha, beta = 2.0, 1.0
    pi0 = market.risk_direction / alpha * beta * math.exp(
        -(market.r - 0.5 * (market.theta_norm / alpha) ** 2) * market.T)
    ok = pi0[0] > 0.0
    # the piecewise-HARA position vanishes towards the domain floor (x -> 0)
    env = contract_envelope.envelope
    t = market.T / 2
    xi = state_price_for_wealth(env, market, contract_dual.y_star, t, 0.0)
    pi_floor = portfolio_general(env, market, contract_dual.y_star, t, xi)
    ok = ok and abs(pi_floor[0]) <= 1e-10
    _report(9, "SAHARA contrast", ok,
            f"sahara(0)={pi0[0]:.4f} > 0, phara floor {pi_floor[0]:.2e}")


def test_criterion_10_simulation_consistency(simulate_bundled):
    # the session's simulate run on crra.json: R = 0.5 from x0 10, 10k paths,
    # 250 and 1000 steps, seed 20260810
    rep = json.loads((simulate_bundled("crra") / "simulation.json").read_text())
    ratio = rep["computed"]
    _report(10, "Euler strong order", rep["passed"] and 0.35 <= ratio <= 0.65,
            f"rms {rep['detail']['rms_coarse']:.4f} -> {rep['detail']['rms_fine']:.4f} "
            f"(ratio {ratio:.3f})")
