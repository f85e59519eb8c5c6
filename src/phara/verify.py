"""Independent oracles for every closed form: grid argmax, Monte-Carlo
pricing, finite-difference deltas, and forward SDE simulation."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import BadDimension, StepTooCoarse, UnboundedDemand
from .market import MarketParams, sample_kernel_at, standard_normals
from .solver import (optimal_terminal_wealth, portfolio_general, portfolio_unified,
                     wealth_total, _BLOCK)
from .utility import PharaUtility

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
_ARGMAX_GRID = 10_000      # grid points of the argmax oracle's first pass
_GOLDEN_STEPS = 40         # golden-section steps around the best grid point
_FD_STEP = 1e-4            # central-difference step in log xi, per |theta| sqrt(T - t)
_FD_TOL = 1e-6             # relative error bound of the finite-difference delta
_CHUNK = 4 * _BLOCK        # Monte-Carlo paths per chunk, whole evaluation blocks


class VerificationReport(NamedTuple):
    name: str
    computed: float
    oracle: float
    tolerance: float
    passed: bool
    detail: dict


# ---------------------------------------------------------------------------
# Pointwise argmax
# ---------------------------------------------------------------------------


def _grid_upper_limit(utility: PharaUtility, w: float) -> float:
    """x beyond which U'(x) < w/10, so the argmax cannot sit further right, or
    a_lo + 2 span on a linear tail of slope at most w; a steeper one has no argmax."""
    last = utility.pieces[-1]
    span = max(1.0, (last.a_lo - utility.a0))
    target = w / 10.0
    if target >= last.slope_lo or last.R == 0.0 and last.slope_lo <= w:
        return last.a_lo + 2.0 * span
    x = last.contact(target)
    if x == math.inf:
        raise UnboundedDemand(f"linear tail steeper than w = {w}: no argmax")
    return max(x * 1.5 if x > 0 else x + span, last.a_lo + 2.0 * span)


def argmax_oracle(utility: PharaUtility, y: float, xi_T: float) -> float:
    """Grid + golden-section maximizer of U(x) - y xi_T x over the domain.

    Works on raw (non-concave) utilities, which is the point: it certifies
    that the envelope-based closed form solves the original problem.
    """
    w = y * xi_T
    lo = utility.a0
    hi = _grid_upper_limit(utility, w)
    xs = np.linspace(lo, hi, _ARGMAX_GRID)
    vals = utility.value(xs) - w * xs  # where U(a0) = -inf, a0 never wins
    i = int(np.argmax(vals))

    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, _ARGMAX_GRID - 1)]
    c = b - _GOLD * (b - a)
    d = a + _GOLD * (b - a)
    fc = float(utility.value(c)) - w * c
    fd = float(utility.value(d)) - w * d
    for _ in range(_GOLDEN_STEPS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLD * (b - a)
            fc = float(utility.value(c)) - w * c
        else:
            a, c, fc = c, d, fd
            d = a + _GOLD * (b - a)
            fd = float(utility.value(d)) - w * d
    x_ref = 0.5 * (a + b)
    f_ref = float(utility.value(x_ref)) - w * x_ref
    return x_ref if f_ref >= vals[i] else float(xs[i])


# ---------------------------------------------------------------------------
# Monte-Carlo checks
# ---------------------------------------------------------------------------


def _unit(magnitude: float) -> float:
    """The power of two that scales |magnitude| below 2^400, 1 where it is: the
    squares of numbers that size, and sums of 2^200 of them, fit a double."""
    return 2.0 ** -max(0, math.frexp(magnitude)[1] - 400)


def _mc_check(name: str, market: MarketParams, t: float, n_paths: int, seed: int,
              value, oracle: float, rounding: float, detail: dict) -> VerificationReport:
    """Mean of xi_t value(xi_t) over n_paths draws of xi_t against the oracle; passes
    within 3 standard errors, or the oracle's rounding where wider (a constant xi_t X_t,
    as for log utility).  Chunks of _CHUNK paths fold into a running mean and sum of squared
    deviations (Chan et al.'s pairwise update) in units of 1 / _unit(oracle), so memory does
    not grow with n_paths and no square overflows; UnboundedDemand where the sum does."""
    if not n_paths >= 2:
        raise BadDimension(f"a standard error needs at least 2 paths, got {n_paths}")
    count, mean, m2, unit = 0, 0.0, 0.0, _unit(oracle)
    for start in range(0, n_paths, _CHUNK):
        xi = sample_kernel_at(market, t, min(_CHUNK, n_paths - start), seed, start)
        v = xi * value(xi) * unit
        size, v_mean = v.size, float(np.mean(v))
        delta, count = v_mean - mean, count + size
        mean += delta * size / count
        m2 += float(np.sum((v - v_mean) ** 2)) + delta * delta * (count - size) * size / count
    mean, se = mean / unit, math.sqrt(m2 / (count - 1)) / math.sqrt(count) / unit
    if not math.isfinite(se):
        raise UnboundedDemand(f"{name}: the sample's spread does not fit a double")
    tolerance = max(3.0 * se, rounding)
    return VerificationReport(
        name=name, computed=mean, oracle=oracle, tolerance=tolerance,
        passed=abs(mean - oracle) <= tolerance,
        detail={**detail, "paths": count, "std_error": se},
    )


def _budget(env: PharaUtility, market: MarketParams, y: float) -> tuple[float, float]:
    """The closed-form budget B(y) and its rounding bound, the time-0 wealth's."""
    dec = portfolio_unified(env, market, y, 0.0, 1.0)
    return dec.wealth, float(dec.wealth_rounding)


def mc_budget_check(env: PharaUtility, market: MarketParams, y: float,
                    n_paths: int, seed: int) -> VerificationReport:
    """E[xi_T X_T*] by simulation against the closed-form budget."""
    return _mc_check("mc_budget", market, market.T, n_paths, seed,
                     lambda xi: optimal_terminal_wealth(env, y, xi),
                     *_budget(env, market, y), {"seed": seed})


def mc_martingale_check(env: PharaUtility, market: MarketParams, y: float,
                        t: float, n_paths: int, seed: int) -> VerificationReport:
    """E[xi_t X_t*] must equal the budget (deflated optimal wealth is a martingale)."""
    return _mc_check(f"mc_martingale_t={t:g}", market, t, n_paths, seed,
                     lambda xi: wealth_total(env, market, y, t, xi),
                     *_budget(env, market, y), {"seed": seed, "t": t})


# ---------------------------------------------------------------------------
# Finite-difference delta
# ---------------------------------------------------------------------------


def fd_portfolio_check(env: PharaUtility, market: MarketParams, y_star: float,
                       t: float, xi_t: float) -> VerificationReport:
    """Central difference of the wealth map in log xi against the closed form.

    The step is _FD_STEP |theta| sqrt(T - t), a fixed fraction of the wealth
    map's own scale in log xi, so the truncation error, about
    (step / |theta| sqrt(T - t))^2 of the portfolio, does not grow near the
    horizon.  The comparison scale never drops below the scheme's own
    roundoff floor (eps * wealth / step along the portfolio direction), so
    plateau points where the true portfolio is numerically zero do not
    produce spurious relative blowups.
    """
    step = _FD_STEP * market.theta_norm * math.sqrt(market.tau(t))
    x_t, up, dn = wealth_total(env, market, y_star, t,
                               xi_t * np.exp([0.0, step, -step]))
    slope = (up - dn) / (2.0 * step)  # xi dX/dxi
    direction = market.risk_direction
    pi_fd = -direction * slope
    pi = portfolio_general(env, market, y_star, t, xi_t)
    noise = float(4.0 * np.finfo(float).eps * (1.0 + abs(x_t)) / (2.0 * step)
                  * np.linalg.norm(direction))
    unit = _unit(float(np.abs(np.r_[pi, pi_fd]).max()))  # so that no square overflows
    norm = float(np.linalg.norm(pi * unit)) / unit
    err = float(np.linalg.norm((pi - pi_fd) * unit)) / unit / max(norm, noise / _FD_TOL)
    if not math.isfinite(err):
        raise UnboundedDemand(f"fd_portfolio_t={t:g}_xi={xi_t:g}: the delta does not fit a double")
    return VerificationReport(
        name=f"fd_portfolio_t={t:g}_xi={xi_t:g}", computed=err, oracle=0.0,
        tolerance=_FD_TOL, passed=err <= _FD_TOL,
        detail={"t": t, "xi": xi_t, "step": step, "portfolio_norm": norm,
                "noise_floor": noise},
    )


# ---------------------------------------------------------------------------
# Forward simulation under the closed-form feedback strategy
# ---------------------------------------------------------------------------


def simulate_strategy(env: PharaUtility, market: MarketParams, y_star: float,
                      x0: float, n_paths: int, n_steps: int,
                      seed: int) -> float:
    """Euler scheme for the wealth SDE driven by the closed-form portfolio;
    returns the root-mean-square gap to the exact terminal wealth, squared in
    units of 1 / _unit(its largest entry).

    The same Brownian draws feed both the simulated wealth and the exact
    terminal target, so the gap is pure discretization error (strong order
    one half: quadrupling the step count should halve it).  The grid
    t_k = T (1 - (1 - k/n)^2) crowds steps near T, where the chords'
    gambling term grows like 1/sqrt(T - t): on a uniform grid the jump in
    X_T that a chord causes would cut the order to one quarter.
    """
    if n_steps < 10:
        raise StepTooCoarse(f"need at least 10 steps, got {n_steps}")
    if not n_paths >= 1:
        raise BadDimension(f"need at least 1 path, got {n_paths}")

    m = market.m
    grid = market.T * (1.0 - (1.0 - np.arange(n_steps + 1) / n_steps) ** 2)
    excess = market.mu - market.r

    x = np.full(n_paths, x0)
    xi = np.ones(n_paths)
    for i, (t_i, dt) in enumerate(zip(grid[:-1], np.diff(grid))):
        pi = portfolio_general(env, market, y_star, t_i, xi)  # (m, P)
        dW = math.sqrt(dt) * standard_normals(seed, n_paths * m,
                                              stream=i).reshape(m, n_paths)
        diffusion = ((market.sigma.T @ pi) * dW).sum(axis=0)
        x = x + (market.r * x + excess @ pi) * dt + diffusion
        xi = xi * market.kernel(dt, market.theta @ dW)

    gap = x - optimal_terminal_wealth(env, y_star, xi)
    unit = _unit(float(np.abs(gap).max()))
    return float(np.sqrt(np.mean((gap * unit)**2))) / unit


def simulate_order_check(env: PharaUtility, market: MarketParams, y_star: float,
                         x0: float, n_paths: int, steps: int,
                         seed: int) -> VerificationReport:
    """Strong-order-1/2 scaling: quadrupling steps should halve the RMS gap."""
    coarse = simulate_strategy(env, market, y_star, x0, n_paths, steps, seed)
    fine = simulate_strategy(env, market, y_star, x0, n_paths, 4 * steps,
                             seed + 1)
    ratio = fine / coarse
    if not math.isfinite(ratio):
        raise UnboundedDemand(f"simulate_order: the gap ratio {fine} / {coarse} is not finite")
    return VerificationReport(
        name="simulate_order", computed=ratio, oracle=0.5,
        tolerance=0.15, passed=0.35 <= ratio <= 0.65,
        detail={"rms_coarse": coarse, "rms_fine": fine,
                "paths": n_paths, "steps": (steps, 4 * steps),
                "grid": "t_k = T (1 - (1 - k/n)^2)", "seed": seed},
    )
