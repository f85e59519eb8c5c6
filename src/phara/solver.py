"""Closed-form optimal wealth and portfolio for concave piecewise-HARA utilities.

Everything here consumes the *concave envelope* of a utility.  The terminal
wealth inverts the envelope's marginal utility at y* xi_T, the time-t wealth
is the conditional expectation of that inverse (a sum of five normal-CDF
families per piece), and the portfolio is the delta-hedge of the wealth map,
available in a general per-piece form and, when every curved piece shares one
relative risk aversion R, as the four-term split: Merton term, risk-seeking
term from chords, loss-aversion term from benchmarks, and first-order
risk-aversion term from kinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

from .errors import (BadDimension, BadTime, HeterogeneousRisk, IllegalCase,
                     InfeasibleBudget, NoConvergence, NotConcave,
                     UnboundedDemand)
from .market import MarketParams
from .utility import INF, PharaUtility

_BUDGET_RTOL = 1e-10
_MAX_EXPAND = 200
_NEWTON_ITERS = 100


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(z):
    """Standard normal density; underflows gracefully to 0 at +-inf."""
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * z * z) / _SQRT_2PI


def _Phi(z):
    """Standard normal CDF (erfc-based); exact 0/1 at -+inf."""
    return ndtr(np.asarray(z, dtype=float))


# ---------------------------------------------------------------------------
# d-transforms
# ---------------------------------------------------------------------------


def d_transform(z, y_shift: float, market: MarketParams, t: float):
    """d(z, y) = -(log z + (r + |theta|^2/2) tau) / (|theta| sqrt(tau)) + y |theta| sqrt(tau).

    Continuously extended: z -> 0+ gives +inf, z -> inf gives -inf.
    """
    tau = market.tau(t)
    s = market.theta_norm * math.sqrt(tau)
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore"):
        out = -(np.log(z) + (market.r + 0.5 * market.theta_norm**2) * tau) / s \
            + y_shift * s
    return float(out) if out.ndim == 0 else out


def d0(z, market: MarketParams, t: float):
    return d_transform(z, 0.0, market, t)


def d1(z, market: MarketParams, t: float):
    """d(z, 1); algebraically -(log z + (r - |theta|^2/2) tau)/(|theta| sqrt(tau))."""
    tau = market.tau(t)
    s = market.theta_norm * math.sqrt(tau)
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore"):
        out = -(np.log(z) + (market.r - 0.5 * market.theta_norm**2) * tau) / s
    return float(out) if out.ndim == 0 else out


def d_next(z, R: float, market: MarketParams, t: float):
    """d(z, 1 - 1/R), the transform attached to a piece of risk aversion R."""
    return d_transform(z, 1.0 - 1.0 / R, market, t)


def truncated_kernel_moments(a: float, b: float, market: MarketParams,
                             t: float, xi_t: float, R_k: float):
    """Three conditional expectations over the event xi_T in (a, b).

    Returns (m1, mR, mlog) with
      m1   = E[xi_T 1 | xi_t] / xi_t,
      mR   = E[xi_T^(1 - 1/R_k) 1 | xi_t] / xi_t,
      mlog = E[xi_T log xi_T 1 | xi_t] / xi_t,
    each in normal-CDF closed form.  (a, b) are absolute kernel levels;
    callers fold any multiplier into them.
    """
    if not 0.0 <= a < b:
        raise IllegalCase(f"need 0 <= a < b, got ({a}, {b})")
    tau = market.tau(t)
    th = market.theta_norm
    s = th * math.sqrt(tau)
    disc = math.exp(-market.r * tau)
    za, zb = a / xi_t, b / xi_t

    d1a, d1b = d1(za, market, t), d1(zb, market, t)
    m1 = disc * (_Phi(d1a) - _Phi(d1b))

    beta = 1.0 - 1.0 / R_k
    growth = math.exp(-beta * (market.r + 0.5 * th**2) * tau
                      + 0.5 * beta**2 * th**2 * tau)
    dka = d_transform(za, beta, market, t)
    dkb = d_transform(zb, beta, market, t)
    mR = xi_t ** (-1.0 / R_k) * growth * (_Phi(dka) - _Phi(dkb))

    mlog = disc * ((math.log(xi_t) + (-market.r + 0.5 * th**2) * tau)
                   * (_Phi(d1a) - _Phi(d1b))
                   + s * (_phi(d1a) - _phi(d1b)))
    return float(m1), float(mR), float(mlog)


# ---------------------------------------------------------------------------
# Envelope tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Tables:
    a: np.ndarray          # partition, length n+2, a[n+1] = inf
    R: np.ndarray          # per piece
    A: np.ndarray          # benchmark, 0 where unused
    alpha: np.ndarray      # CARA coefficient, 0 where unused
    gplus: np.ndarray      # right slope at a_k, k = 0..n
    gminus: np.ndarray     # left slope at a_k, k = 0..n+1 (inf at k=0)
    C: np.ndarray          # (anchor - A) * anchor_slope^(1/R) per CRRA piece
    K: np.ndarray          # anchor + log(anchor_slope)/alpha per CARA piece
    crra: np.ndarray       # bool masks
    cara: np.ndarray
    chord: np.ndarray


@lru_cache(maxsize=64)
def _tables(env: PharaUtility) -> _Tables:
    n1 = env.n_pieces
    a = env.partition
    R = np.array([p.R for p in env.pieces])
    crra = (R > 0.0) & np.isfinite(R)
    cara = R == INF
    chord = R == 0.0
    A = np.array([p.A if (p.R > 0.0 and np.isfinite(p.R)) else 0.0
                  for p in env.pieces])
    alpha = np.array([p.alpha if p.R == INF else 0.0 for p in env.pieces])
    gplus = np.array([env.gamma_plus(k) for k in range(n1)])
    gminus = np.array([env.gamma_minus(k) for k in range(n1 + 1)])

    # slope ladder must be nonincreasing: gminus[k] >= gplus[k] >= gminus[k+1]
    ladder = np.empty(2 * n1 + 1)
    ladder[0::2] = gminus
    ladder[1::2] = gplus
    with np.errstate(invalid="ignore"):
        rises = np.diff(ladder) > 1e-9 * np.maximum(ladder[:-1], 1e-300)
    if np.any(rises):
        raise NotConcave("utility is not concave; build its envelope first")

    C = np.zeros(n1)
    K = np.zeros(n1)
    for k, p in enumerate(env.pieces):
        if crra[k]:
            C[k] = (p.anchor_x - p.A) * p.anchor_slope ** (1.0 / p.R)
        elif cara[k]:
            K[k] = p.anchor_x + math.log(p.anchor_slope) / p.alpha
    for arr in (a, R, A, alpha, gplus, gminus, C, K, crra, cara, chord):
        arr.setflags(write=False)
    return _Tables(a, R, A, alpha, gplus, gminus, C, K, crra, cara, chord)


def _risk_vector(market: MarketParams) -> np.ndarray:
    """(sigma^T)^{-1} theta, the common direction of every portfolio term."""
    return np.linalg.solve(market.sigma.T, market.theta)


# ---------------------------------------------------------------------------
# Terminal wealth
# ---------------------------------------------------------------------------


def optimal_terminal_wealth(env: PharaUtility, y: float, xi_T):
    """Argmax of U**(x) - y xi_T x: inverse marginal utility with kink atoms.

    Vectorized over xi_T.  On the measure-zero tie levels the left endpoint
    of the argmax set is returned.
    """
    tab = _tables(env)
    w = y * np.atleast_1d(np.asarray(xi_T, dtype=float))
    scalar = np.ndim(xi_T) == 0

    n1 = len(env.pieces)
    ladder = np.empty(2 * n1 + 1)
    ladder[0::2] = tab.gminus
    ladder[1::2] = tab.gplus
    # descending ladder; ties resolve towards the larger-slope interval,
    # i.e. the left endpoint of the argmax set
    j = np.searchsorted(-ladder, -w, side="left") - 1
    j = np.clip(j, 0, 2 * n1 - 1)

    out = np.empty_like(w)
    at_kink = j % 2 == 0
    out[at_kink] = tab.a[j[at_kink] // 2]
    interior = ~at_kink
    pk = j[interior] // 2
    wi = w[interior]
    vals = np.empty_like(wi)
    for k in range(n1):
        mask = pk == k
        if not np.any(mask):
            continue
        piece = env.pieces[k]
        if tab.crra[k]:
            vals[mask] = piece.A + (piece.anchor_slope / wi[mask]) ** (1.0 / piece.R) \
                * (piece.anchor_x - piece.A)
        elif tab.cara[k]:
            vals[mask] = piece.anchor_x + np.log(piece.anchor_slope / wi[mask]) \
                / piece.alpha
        else:
            vals[mask] = tab.a[k]  # chord: left endpoint (ties only)
    out[interior] = vals
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Wealth process
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WealthDecomposition:
    """Per-piece wealth terms at one (t, xi_t) point: kink atoms (xD),
    benchmark terms (xA), and curvature terms (xR), with CARA analogues."""

    xD: np.ndarray
    xA: np.ndarray
    xAbar: np.ndarray
    xR: np.ndarray
    xRbar: np.ndarray
    total: float


def _piece_terms(env: PharaUtility, market: MarketParams, y: float, t: float,
                 xi):
    """Five term families, each (n_pieces, len(xi))."""
    tab = _tables(env)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    w = y * xi
    tau = market.tau(t)
    th = market.theta_norm
    s = th * math.sqrt(tau)
    disc = math.exp(-market.r * tau)
    n1 = len(env.pieces)

    shape = (n1, xi.size)
    xD = np.zeros(shape)
    xA = np.zeros(shape)
    xAbar = np.zeros(shape)
    xR = np.zeros(shape)
    xRbar = np.zeros(shape)

    for k in range(n1):
        D1p = d1(tab.gplus[k] / w, market, t)
        D1m = d1(tab.gminus[k] / w, market, t)
        D1n = d1(tab.gminus[k + 1] / w, market, t)
        xD[k] = disc * tab.a[k] * (_Phi(D1p) - _Phi(D1m))
        if tab.crra[k]:
            R = tab.R[k]
            xA[k] = disc * tab.A[k] * (_Phi(D1n) - _Phi(D1p))
            beta = 1.0 - 1.0 / R
            growth = math.exp(-beta * (market.r + 0.5 * th**2) * tau
                              + 0.5 * beta**2 * th**2 * tau)
            Dnp = D1p - s / R
            Dnn = D1n - s / R
            xR[k] = tab.C[k] * w ** (-1.0 / R) * growth * (_Phi(Dnn) - _Phi(Dnp))
        elif tab.cara[k]:
            al = tab.alpha[k]
            # a_k - (s/alpha) d1(gplus/w) kept in anchored form: it equals
            # K + (log(1/w) + (r - th^2/2) tau)/alpha with K constant per piece
            level = tab.K[k] + (-np.log(w) + (market.r - 0.5 * th**2) * tau) / al
            xAbar[k] = disc * level * (_Phi(D1n) - _Phi(D1p))
            xRbar[k] = disc * (-s / al) * (_phi(D1n) - _phi(D1p))
    return xD, xA, xAbar, xR, xRbar


def wealth_total(env: PharaUtility, market: MarketParams, y: float, t: float,
                 xi):
    """Optimal wealth X_t as a function of xi_t (vectorized)."""
    terms = _piece_terms(env, market, y, t, xi)
    total = sum(term.sum(axis=0) for term in terms)
    return float(total[0]) if np.ndim(xi) == 0 else total


def wealth_process(env: PharaUtility, market: MarketParams, y_star: float,
                   t: float, xi_t: float) -> WealthDecomposition:
    """Five-term decomposition of the optimal wealth at one (t, xi_t)."""
    xD, xA, xAbar, xR, xRbar = _piece_terms(env, market, y_star, t, xi_t)
    total = float((xD + xA + xAbar + xR + xRbar).sum())
    return WealthDecomposition(xD=xD[:, 0], xA=xA[:, 0], xAbar=xAbar[:, 0],
                               xR=xR[:, 0], xRbar=xRbar[:, 0], total=total)


# ---------------------------------------------------------------------------
# Dual multiplier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualSolution:
    y_star: float
    budget_residual: float
    bracket: tuple[float, float]
    x0: float
    feasible_floor: float


def budget(env: PharaUtility, market: MarketParams, y: float) -> float:
    """B(y) = E[xi_T X_T*], the time-0 cost of the optimal terminal wealth."""
    return wealth_total(env, market, y, 0.0, 1.0)


def solve_multiplier(env: PharaUtility, market: MarketParams,
                     x0: float) -> DualSolution:
    """Unique y* with E[xi_T X_T*] = x0, by bracketed bisection/secant in log y."""
    tab = _tables(env)
    if tab.chord[-1]:
        raise UnboundedDemand("envelope has a linear tail; demand is infinite")
    floor = math.exp(-market.r * market.T) * env.a0
    if x0 <= floor + 1e-12:
        raise InfeasibleBudget(
            f"x0={x0} must exceed the discounted floor {floor}"
        )

    grow = math.exp(market.r * market.T) * x0
    y0 = env.deriv(grow, "right") if grow > env.a0 else env.gamma_plus(0)
    if not np.isfinite(y0) or y0 <= 0.0:
        y0 = 1.0

    y_lo = y_hi = y0
    for _ in range(_MAX_EXPAND):
        if budget(env, market, y_lo) > x0:
            break
        y_lo /= 4.0
    else:
        raise UnboundedDemand("budget never exceeds x0 for small multipliers")
    for _ in range(_MAX_EXPAND):
        if budget(env, market, y_hi) < x0:
            break
        y_hi *= 4.0
    else:
        raise UnboundedDemand("budget never falls below x0 for large multipliers")

    u_star = brentq(lambda u: budget(env, market, math.exp(u)) - x0,
                    math.log(y_lo), math.log(y_hi),
                    xtol=1e-15, rtol=9e-16, maxiter=200)
    y_star = math.exp(u_star)
    resid = budget(env, market, y_star) - x0
    tol = _BUDGET_RTOL * max(1.0, x0)
    if abs(resid) > tol:
        # secant polish in log y
        u_prev, f_prev = u_star, resid
        u_cur = u_star + math.copysign(1e-9, resid)
        f_cur = budget(env, market, math.exp(u_cur)) - x0
        for _ in range(60):
            if abs(f_cur) <= tol or f_cur == f_prev:
                break
            u_next = u_cur - f_cur * (u_cur - u_prev) / (f_cur - f_prev)
            u_prev, f_prev = u_cur, f_cur
            u_cur = u_next
            f_cur = budget(env, market, math.exp(u_cur)) - x0
        y_star, resid = math.exp(u_cur), f_cur
    if abs(resid) > tol:
        raise UnboundedDemand(f"budget equation residual {resid:.3e} > {tol:.3e}")
    return DualSolution(y_star=y_star, budget_residual=float(resid),
                        bracket=(y_lo, y_hi), x0=x0, feasible_floor=floor)


# ---------------------------------------------------------------------------
# Portfolios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightVector:
    """Kink weights p_k and cell weights q_k; they sum to one."""

    p: np.ndarray
    q: np.ndarray


def weights(env: PharaUtility, market: MarketParams, y_star: float, t: float,
            xi_t) -> WeightVector:
    """Weights at xi_t, shape (n_pieces,); a vector xi_t adds a trailing axis."""
    tab = _tables(env)
    w = y_star * np.asarray(xi_t, dtype=float)
    Fp = _Phi(d1(np.divide.outer(tab.gplus, w), market, t))
    Fm = _Phi(d1(np.divide.outer(tab.gminus, w), market, t))
    return WeightVector(p=Fp - Fm[:-1], q=Fm[1:] - Fp)


def _portfolio_scalar(tab: _Tables, market: MarketParams, t: float, w, xR):
    """Delta-hedge scalar -xi dX/dxi at w = y xi, from the curvature terms xR.

    Per piece: curved pieces contribute X^R_k / R_k, chords contribute the
    near-terminal gambling term, exponential pieces a constant-absolute-risk
    term.
    """
    tau = market.tau(t)
    s = market.theta_norm * math.sqrt(tau)
    disc = math.exp(-market.r * tau)
    total = np.zeros(w.size)
    for k in range(tab.R.size):
        if tab.crra[k]:
            total += xR[k] / tab.R[k]
        elif tab.chord[k]:
            D1p = d1(tab.gplus[k] / w, market, t)
            total += disc * (tab.a[k + 1] - tab.a[k]) / s * _phi(D1p)
        else:
            D1p = d1(tab.gplus[k] / w, market, t)
            D1n = d1(tab.gminus[k + 1] / w, market, t)
            total += disc / tab.alpha[k] * (_Phi(D1n) - _Phi(D1p))
    return total


def portfolio_general(env: PharaUtility, market: MarketParams, y_star: float,
                      t: float, xi_t):
    """Optimal portfolio vector for any mix of piece types (vectorized in xi).

    The delta-hedge scalar of :func:`_portfolio_scalar` rides the direction
    (sigma^T)^{-1} theta.
    """
    xi = np.atleast_1d(np.asarray(xi_t, dtype=float))
    xR = _piece_terms(env, market, y_star, t, xi)[3]
    total = _portfolio_scalar(_tables(env), market, t, y_star * xi, xR)
    out = np.multiply.outer(_risk_vector(market), total)
    return out[:, 0] if np.ndim(xi_t) == 0 else out


@dataclass(frozen=True)
class PortfolioDecomposition:
    """Four-term split of the optimal portfolio (homogeneous-R envelopes);
    N state prices give (m, N) vectors and N wealth levels."""

    merton: np.ndarray
    risk_seeking: np.ndarray
    loss_aversion: np.ndarray
    first_order_ra: np.ndarray
    total: np.ndarray
    wealth: float | np.ndarray
    percentage: np.ndarray

    @property
    def terms(self) -> dict:
        return {"merton": self.merton, "risk_seeking": self.risk_seeking,
                "loss_aversion": self.loss_aversion,
                "first_order_ra": self.first_order_ra}


def common_risk_aversion(env: PharaUtility) -> float:
    """The single R shared by all curved pieces; HeterogeneousRisk otherwise."""
    tab = _tables(env)
    if np.any(tab.cara):
        raise HeterogeneousRisk("exponential pieces have no four-term split")
    levels = np.unique(tab.R[tab.crra])
    if levels.size == 0:
        raise HeterogeneousRisk("no curved piece to define the Merton term")
    if levels.size > 1:
        raise HeterogeneousRisk(f"multiple risk aversions {levels}")
    return float(levels[0])


def portfolio_unified(env: PharaUtility, market: MarketParams, y_star: float,
                      t: float, xi_t) -> PortfolioDecomposition:
    """Four-term portfolio: Merton + risk-seeking - loss-aversion - first-order.

    Requires every curved piece to share one relative risk aversion R and no
    exponential pieces.  The total agrees with :func:`portfolio_general`.
    """
    R = common_risk_aversion(env)
    tab = _tables(env)
    w = y_star * np.asarray(xi_t, dtype=float)
    tau = market.tau(t)
    s = market.theta_norm * math.sqrt(tau)
    disc = math.exp(-market.r * tau)

    x_t = wealth_total(env, market, y_star, t, xi_t)
    wv = weights(env, market, y_star, t, xi_t)

    merton = x_t / R
    widths = (tab.a[1:] - tab.a[:-1])[tab.chord]
    gamble = _phi(d1(np.divide.outer(tab.gplus[tab.chord], w), market, t))
    rs = disc / s * np.tensordot(widths, gamble, axes=1)
    la = -disc / R * np.tensordot(tab.A[tab.crra], wv.q[tab.crra], axes=1)
    fo = -disc / R * np.tensordot(tab.a[:-1], wv.p, axes=1)

    total = merton + rs + la + fo
    pct = np.divide(total, x_t, out=np.zeros_like(total), where=x_t != 0.0)
    merton, rs, la, fo, total, pct = (np.multiply.outer(_risk_vector(market), v)
                                      for v in (merton, rs, la, fo, total, pct))
    return PortfolioDecomposition(
        merton=merton, risk_seeking=rs, loss_aversion=la, first_order_ra=fo,
        total=total, wealth=x_t, percentage=pct,
    )


def sahara_portfolio(market: MarketParams, alpha: float, beta: float,
                     t: float, x: float) -> np.ndarray:
    """Comparison strategy whose absolute risk aversion is alpha/sqrt(beta^2+x^2).

    One risky asset only; stays strictly positive at zero wealth, unlike the
    piecewise-HARA strategies pinned to their domain floor.
    """
    if market.m != 1:
        raise BadDimension("SAHARA comparison is one-dimensional")
    if alpha <= 0.0 or beta < 0.0:
        raise IllegalCase("need alpha > 0 and beta >= 0")
    tau = market.T - t
    if tau < 0.0:
        raise BadTime(f"t={t} beyond horizon {market.T}")
    th = market.theta_norm
    b_t = beta * math.exp(-(market.r - th**2 / (2.0 * alpha**2)) * tau)
    sigma = float(market.sigma[0, 0])
    return np.array([th / (alpha * sigma) * math.hypot(x, b_t)])


# ---------------------------------------------------------------------------
# Wealth-level inversion (for wealth-indexed sweeps)
# ---------------------------------------------------------------------------


def _wealth_ladder(env: PharaUtility, market: MarketParams, y_star: float,
                   t: float, x: np.ndarray, u_cap: float):
    """X_t on rungs u = log xi = 0, -+2, ... down to X > max(x), up to
    X < min(x) or the last rung under u_cap; _MAX_EXPAND rungs each way."""
    rungs = {0.0: wealth_total(env, market, y_star, t, 1.0)}
    for step, more in ((-2.0, lambda u: rungs[u] <= x.max()),
                       (2.0, lambda u: rungs[u] >= x.min() and u + 2.0 <= u_cap)):
        u = 0.0
        while more(u):
            if abs(u) >= 2.0 * _MAX_EXPAND:
                raise UnboundedDemand("wealth inversion found no bracket")
            u += step
            rungs[u] = wealth_total(env, market, y_star, t, math.exp(u))
    u = np.array(sorted(rungs))
    return u, np.array([rungs[v] for v in u])


def state_price_for_wealth(env: PharaUtility, market: MarketParams,
                           y_star: float, t: float, x,
                           xi_cap: float = 1e18):
    """xi_t with X_t(xi_t) = x, vectorized over x; saturates at xi_cap.

    Levels at or below the discounted floor, or not below X_t on the last
    ladder rung under xi_cap, map to xi_cap.  Other levels are bracketed by
    rungs and solved by Newton in u = log xi with dX/du = -(delta-hedge
    scalar), bisecting where a step is not finite or leaves the open bracket
    (flat wealth near the floor).  Every evaluated point becomes a bracket end,
    so rounding noise cannot make the steps cycle.  Converged once a move is
    within 1e-14 (1 + |u|); NoConvergence after _NEWTON_ITERS steps.
    """
    tab = _tables(env)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full(xs.shape, xi_cap)
    floor = math.exp(-market.r * market.tau(t)) * env.a0
    live = np.flatnonzero(xs > floor)
    if live.size:
        rung_u, rung_X = _wealth_ladder(env, market, y_star, t, xs[live],
                                        math.log(xi_cap))
        k = np.searchsorted(-rung_X, -xs[live], side="right")  # first X < x
        live, k = live[k < rung_u.size], k[k < rung_u.size]
        level, lo, hi = xs[live], rung_u[k - 1], rung_u[k]
        f_lo, f_hi = rung_X[k - 1] - level, rung_X[k] - level
        u = lo + (hi - lo) * f_lo / (f_lo - f_hi)  # regula falsi start
        act = np.arange(live.size)
        for _ in range(_NEWTON_ITERS):
            if not act.size:
                break
            ua, xi = u[act], np.exp(u[act])
            terms = _piece_terms(env, market, y_star, t, xi)
            f = sum(term.sum(axis=0) for term in terms) - level[act]
            if np.isnan(f).any():
                raise NoConvergence("wealth inversion met a NaN wealth")
            slope = -_portfolio_scalar(tab, market, t, y_star * xi, terms[3])
            lo[act] = np.where(f > 0.0, ua, lo[act])
            hi[act] = np.where(f < 0.0, ua, hi[act])
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                step = np.where(f == 0.0, 0.0, f / slope)
            newton, tol = ua - step, 1e-14 * (1.0 + np.abs(ua))
            take = (np.abs(step) <= tol) | ((newton > lo[act]) & (newton < hi[act]))
            u[act] = np.where(take, newton, 0.5 * (lo[act] + hi[act]))
            act = act[(np.abs(u[act] - ua) > tol) & (np.abs(step) > tol)]
        if act.size:
            raise NoConvergence(f"wealth inversion: {act.size} levels unconverged "
                                f"after {_NEWTON_ITERS} steps")
        out[live] = np.exp(u)
    return float(out[0]) if np.ndim(x) == 0 else out
