"""Closed-form optimal wealth and portfolio for concave piecewise-HARA utilities.

Everything here consumes the *concave envelope* of a utility.  The terminal
wealth inverts the envelope's marginal utility at y* xi_T, the time-t wealth
is the conditional expectation of that inverse (a sum of five normal-CDF
families per piece), and the portfolio is the delta-hedge of the wealth map,
which, when every curved piece shares one relative risk aversion R, regroups
into the four-term split: Merton term, risk-seeking term from chords,
loss-aversion term from benchmarks, and first-order risk-aversion term from
kinks.  All of them come from d1(g / y xi) on the envelope's slope ladder,
each caller evaluating only the rungs it reads.
One Newton-bisection
root-finder serves the dual multiplier, the wealth-to-state-price map and
the envelope's tangent search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import normal
from .errors import (BadDimension, BadTime, IllegalCase, InfeasibleBudget,
                     NoConvergence, NotConcave, UnboundedDemand)
from .market import MarketParams
from .utility import INF, PharaUtility

_BUDGET_RTOL = 1e-10
_MAX_EXPAND = 200
_NEWTON_ITERS = 100
_NEWTON_STEPS = 20  # then bisection, which a steep map cannot make creep
_BLOCK = 4096


def _d1_outer(log_g, log_w, market: MarketParams, t: float):
    """d1(g / w) for every g (rows) and w (columns), from log g and log w."""
    tau = market.tau(t)
    s = market.theta_norm * math.sqrt(tau)
    return np.add.outer(-(log_g + (market.r - 0.5 * market.theta_norm**2) * tau) / s,
                        log_w / s)


# ---------------------------------------------------------------------------
# Envelope tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Tables:
    a: np.ndarray          # partition, length n+1, a[n] = inf
    ladder: np.ndarray     # gminus[0] >= gplus[0] >= gminus[1] >= ... >= gminus[n]
    log_ladder: np.ndarray
    R: np.ndarray          # per piece
    A: np.ndarray          # benchmark, 0 where unused
    alpha: np.ndarray      # CARA coefficient, 0 where unused
    width: np.ndarray      # a[k+1] - a[k]
    C: np.ndarray          # (anchor - A) * anchor_slope^(1/R) per CRRA piece
    K: np.ndarray          # anchor + log(anchor_slope)/alpha per CARA piece
    crra: np.ndarray       # bool masks
    cara: np.ndarray
    chord: np.ndarray
    # ladder rows a piece type reads: 2k+1, 2k+2 per power and exponential
    # piece (interleaved), 2k+1 per chord
    crra_rungs: np.ndarray
    cara_rungs: np.ndarray
    chord_rungs: np.ndarray


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

    # slope ladder must be nonincreasing: gminus[k] >= gplus[k] >= gminus[k+1]
    ladder = np.empty(2 * n1 + 1)
    ladder[0::2] = [env.gamma_minus(k) for k in range(n1 + 1)]
    ladder[1::2] = [env.gamma_plus(k) for k in range(n1)]
    with np.errstate(invalid="ignore"):
        rises = np.diff(ladder) > 1e-9 * np.maximum(ladder[:-1], 1e-300)
    if np.any(rises):
        raise NotConcave("utility is not concave; build its envelope first")

    C = np.zeros(n1)
    K = np.zeros(n1)
    for k, p in enumerate(env.pieces):
        try:
            if crra[k]:
                C[k] = (p.anchor_x - p.A) * p.anchor_slope ** (1.0 / p.R)
            elif cara[k]:
                K[k] = p.anchor_x + math.log(p.anchor_slope) / p.alpha
        except OverflowError:
            C[k] = INF
        if not (0.0 < C[k] < INF if crra[k] else abs(K[k]) < INF):
            raise IllegalCase(f"piece on [{p.a_lo}, {p.a_hi}) with R = {p.R}: its inverse "
                              f"marginal utility does not fit a double (C = {C[k]}, K = {K[k]})")
    with np.errstate(divide="ignore"):
        log_ladder = np.log(ladder)

    def rungs(mask, *offsets):
        return np.array([2 * k + o for k in np.flatnonzero(mask) for o in offsets],
                        dtype=np.intp)
    tab = _Tables(a, ladder, log_ladder, R, A, alpha, np.diff(a), C, K, crra,
                  cara, chord, rungs(crra, 1, 2), rungs(cara, 1, 2),
                  rungs(chord, 1))
    for arr in vars(tab).values():
        arr.setflags(write=False)
    return tab


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
    w = y * np.asarray(xi_T, dtype=float)
    # descending ladder; ties resolve towards the larger-slope interval,
    # i.e. the left endpoint of the argmax set
    j = np.searchsorted(-tab.ladder, -w, side="left") - 1
    j = np.clip(j, 0, tab.ladder.size - 2)
    k = j // 2  # even j: kink a_k; odd j: inside piece k
    with np.errstate(divide="ignore", invalid="ignore"):
        curve = np.where(tab.crra[k], tab.A[k] + tab.C[k] * w ** (-1.0 / tab.R[k]),
                         tab.K[k] - np.log(w) / tab.alpha[k])
    # kinks and chords (ties only) sit at the left end a_k
    out = np.where((j % 2 == 1) & ~tab.chord[k], curve, tab.a[k])
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# The slope ladder: wealth, weights and the delta-hedge at one time
# ---------------------------------------------------------------------------


def _horizon(market: MarketParams, t: float):
    """(tau, |theta| sqrt(tau), exp(-r tau)) at time t."""
    tau = market.tau(t)
    return tau, market.theta_norm * math.sqrt(tau), math.exp(-market.r * tau)


def _cdf_rows(D):
    """Phi(D) on ladder rows in ladder order, along which D is nondecreasing;
    the running maximum keeps rounding from turning a weight negative.  Row
    by row, in place: the same values as ``np.maximum.accumulate(axis=0)``,
    which strides across rows and is several times slower."""
    F = normal.cdf(D)
    for i in range(1, F.shape[0]):
        np.maximum(F[i - 1], F[i], out=F[i])
    return F


def _power_terms(tab: _Tables, market: MarketParams, t: float, log_w, D):
    """X^R_k = C_k w^{-1/R_k} growth_k (Phi(D_{2k+2} - s/R_k) - Phi(D_{2k+1} - s/R_k))
    per power piece, from D on its rows ``tab.crra_rungs``."""
    tau, s, _ = _horizon(market, t)
    th = market.theta_norm
    R = tab.R[tab.crra]
    try:  # the smallest R has the largest growth
        with np.errstate(over="raise"):
            growth = np.array([math.exp(-b * (market.r + 0.5 * th**2) * tau
                                        + 0.5 * b**2 * th**2 * tau) for b in 1.0 - 1.0 / R])
    except (OverflowError, FloatingPointError):
        raise IllegalCase(f"power piece with R = {R.min()}: its wealth growth factor "
                          f"overflows at T - t = {tau}") from None
    R, growth = R[:, None], growth[:, None]
    F = normal.cdf(D - np.repeat(s / R, 2, axis=0))
    cell = F[1::2] - F[::2]
    # w^{-1/R} may overflow where the cell has probability 0: leave it 0 there
    power = np.exp(-log_w / R, out=np.zeros(cell.shape), where=cell != 0.0)
    return tab.C[tab.crra, None] * power * growth * cell


def _hedge(tab: _Tables, market: MarketParams, t: float, xR, q_cara, D_chord):
    """Each piece's share of the delta-hedge scalar -xi dX/dxi: X^R_k / R_k
    on power pieces, a constant-absolute-risk term disc q_k / alpha_k on
    exponential pieces, and on chords the near-terminal gambling term
    disc width_k phi(D_{2k+1}) / s."""
    _, s, disc = _horizon(market, t)
    hedge = np.zeros((tab.R.size, xR.shape[-1]))
    hedge[tab.crra] = xR / tab.R[tab.crra, None]
    hedge[tab.cara] = disc / tab.alpha[tab.cara, None] * q_cara
    hedge[tab.chord] = disc * tab.width[tab.chord, None] / s * normal.pdf(D_chord)
    return hedge


def _ladder(env: PharaUtility, market: MarketParams, y: float, t: float, xi):
    """Every closed form at time t and w = y xi, from D on the whole ladder.

    D = d1(g / w) on the 2n+1 ladder slopes; entries 2k and 2k+1 are the
    left and right slopes at the kink a_k, so piece k spans entries 2k+1 and
    2k+2.  Returns the kink weights p and cell weights q (one row per piece),
    the five wealth families xD, xA (one row per piece), xAbar, xR, xRbar
    (one row per piece of their type: exponential, power, exponential), and
    D, from which a caller that needs the delta-hedge passes the chord rows
    to :func:`_hedge`.  The shape of xi trails every row.
    """
    tab = _tables(env)
    log_w = np.log(y * np.asarray(xi, dtype=float).reshape(-1))
    tau, s, disc = _horizon(market, t)
    th = market.theta_norm

    D = _d1_outer(tab.log_ladder, log_w, market, t)
    F = _cdf_rows(D)
    p, q = F[1::2] - F[:-1:2], F[2::2] - F[1::2]
    xR = _power_terms(tab, market, t, log_w, D[tab.crra_rungs])

    cara = tab.cara
    al = tab.alpha[cara, None]
    D_cara = D[tab.cara_rungs]
    # a_k - (s/alpha) d1(gplus/w) kept in anchored form: it equals
    # K + (log(1/w) + (r - th^2/2) tau)/alpha with K constant per piece
    level = tab.K[cara, None] + (-log_w + (market.r - 0.5 * th**2) * tau) / al
    xAbar = disc * level * q[cara]
    xRbar = disc * (-s / al) * (normal.pdf(D_cara[1::2]) - normal.pdf(D_cara[::2]))

    terms = (disc * tab.a[:-1, None] * p, disc * tab.A[:, None] * q, xAbar, xR, xRbar)

    def rows(a):
        return a.reshape(a.shape[:1] + np.shape(xi))
    return rows(p), rows(q), tuple(map(rows, terms)), rows(D)


def _hedge_rows(env: PharaUtility, market: MarketParams, y: float, t: float,
                xi):
    """The delta-hedge rows of :func:`_hedge`, from D on the rows they
    read: two per power piece, two per exponential piece (its cell weight q),
    one per chord.  xi is flat."""
    tab = _tables(env)
    log_w = np.log(y * np.asarray(xi, dtype=float))

    def D(rungs):
        return _d1_outer(tab.log_ladder[rungs], log_w, market, t)
    F = _cdf_rows(D(tab.cara_rungs))
    return _hedge(tab, market, t, _power_terms(tab, market, t, log_w, D(tab.crra_rungs)),
                  F[1::2] - F[::2], D(tab.chord_rungs))


def _wealth(terms):
    return sum(term.sum(axis=0) for term in terms)


def _blockwise(fn, xi):
    """fn over consecutive blocks of _BLOCK points of xi, concatenated and
    shaped like xi; bounds the (2n+1, N) temporaries of one ladder."""
    flat = np.asarray(xi, dtype=float).reshape(-1)
    out = np.concatenate([fn(flat[i:i + _BLOCK])
                          for i in range(0, max(flat.size, 1), _BLOCK)])
    return out.reshape(np.shape(xi))


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


def wealth_total(env: PharaUtility, market: MarketParams, y: float, t: float,
                 xi):
    """Optimal wealth X_t as a function of xi_t (vectorized)."""
    total = _blockwise(lambda b: _wealth(_ladder(env, market, y, t, b)[2]), xi)
    return float(total) if np.ndim(xi) == 0 else total


def wealth_process(env: PharaUtility, market: MarketParams, y_star: float,
                   t: float, xi_t: float) -> WealthDecomposition:
    """Five-term decomposition of the optimal wealth at one (t, xi_t)."""
    tab = _tables(env)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        xD, xA, cara_level, curv, cara_curv = _ladder(env, market, y_star, t, xi_t)[2]
        xAbar, xR, xRbar = np.zeros((3,) + xD.shape)
        xAbar[tab.cara], xR[tab.crra], xRbar[tab.cara] = cara_level, curv, cara_curv
        total = float((xD + xA + xAbar + xR + xRbar).sum())
    if not math.isfinite(total):
        raise UnboundedDemand(f"optimal wealth at state price xi = {xi_t:g} "
                              f"does not fit a double")
    return WealthDecomposition(xD=xD, xA=xA, xAbar=xAbar, xR=xR, xRbar=xRbar,
                               total=total)


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
    """Unique y* with E[xi_T X_T*] = x0.

    X_0 depends on (y, xi_0) only through y xi_0, so B(y) is the time-0
    wealth at multiplier 1 and state price y, and y* is the wealth inversion
    of x0 at t = 0.  The bracket holds the two inversion ladder rungs
    e^{2j} <= y* < e^{2j+2} around it.
    """
    if _tables(env).chord[-1]:
        raise UnboundedDemand("envelope has a linear tail; demand is infinite")
    y_star = state_price_for_wealth(env, market, 1.0, 0.0, x0, xi_cap=INF)
    resid = budget(env, market, y_star) - x0
    tol = _BUDGET_RTOL * max(1.0, x0)
    if not abs(resid) <= tol:
        raise UnboundedDemand(f"budget equation residual {resid:.3e} > {tol:.3e}")
    rung = 2.0 * math.floor(0.5 * math.log(y_star))
    return DualSolution(y_star=y_star, budget_residual=float(resid),
                        bracket=(math.exp(rung), math.exp(rung + 2.0)), x0=x0,
                        feasible_floor=_horizon(market, 0.0)[2] * env.a0)


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
    p, q = _ladder(env, market, y_star, t, xi_t)[:2]
    return WeightVector(p=p, q=q)


def portfolio_general(env: PharaUtility, market: MarketParams, y_star: float,
                      t: float, xi_t):
    """Optimal portfolio vector for any mix of piece types (vectorized in xi).

    The delta-hedge scalar -xi dX/dxi rides the direction (sigma^T)^{-1} theta.
    It equals ``portfolio_unified(...).total`` from only the ladder rows the
    hedge reads: the Euler step's form.
    """
    scalar = _blockwise(
        lambda b: _hedge_rows(env, market, y_star, t, b).sum(axis=0), xi_t)
    return np.multiply.outer(_risk_vector(market), scalar)


@dataclass(frozen=True)
class PortfolioDecomposition:
    """The optimal portfolio, its wealth and their ratio, with the four-term
    split when :func:`_common_risk_aversion` gives one (None otherwise);
    N state prices give (m, N) vectors and N wealth levels."""

    merton: np.ndarray | None
    risk_seeking: np.ndarray | None
    loss_aversion: np.ndarray | None
    first_order_ra: np.ndarray | None
    total: np.ndarray
    wealth: float | np.ndarray
    percentage: np.ndarray

    @property
    def terms(self) -> dict:
        """The four split terms by name; empty without a split."""
        if self.merton is None:
            return {}
        return {"merton": self.merton, "risk_seeking": self.risk_seeking,
                "loss_aversion": self.loss_aversion,
                "first_order_ra": self.first_order_ra}


def _common_risk_aversion(tab: _Tables) -> float | None:
    """The R shared by every curved piece, which the four-term split needs;
    None with an exponential piece, several R or no curved piece."""
    levels = set(tab.R[tab.crra].tolist())
    return levels.pop() if len(levels) == 1 and not tab.cara.any() else None


def portfolio_unified(env: PharaUtility, market: MarketParams, y_star: float,
                      t: float, xi_t) -> PortfolioDecomposition:
    """Optimal portfolio of any concave envelope: the delta-hedge ``total``,
    the wealth and ``total`` / wealth, and with a common R the four-term split
    Merton + risk-seeking - loss-aversion - first-order, which regroups the
    hedge rows and so adds up to ``total``.
    """
    tab = _tables(env)
    R = _common_risk_aversion(tab)
    shape = np.shape(xi_t)
    p, q, terms, D = _ladder(env, market, y_star, t, np.reshape(xi_t, -1))
    x_t = _wealth(terms)
    hedge = _hedge(tab, market, t, terms[3], q[tab.cara], D[tab.chord_rungs])
    total = hedge.sum(axis=0)
    pct = np.divide(total, x_t, out=np.zeros_like(total), where=x_t != 0.0)
    split = [None] * 4
    if R is not None:
        disc = _horizon(market, t)[2]
        split = [x_t / R, hedge[tab.chord].sum(axis=0),  # the chords' gambling terms
                 -disc / R * np.tensordot(tab.A, q, axes=1),
                 -disc / R * np.tensordot(tab.a[:-1], p, axes=1)]

    def vector(v):
        return None if v is None else np.multiply.outer(_risk_vector(market),
                                                        v.reshape(shape))
    merton, rs, la, fo, total, pct = map(vector, [*split, total, pct])
    return PortfolioDecomposition(
        merton=merton, risk_seeking=rs, loss_aversion=la, first_order_ra=fo,
        total=total, wealth=float(x_t[0]) if not shape else x_t.reshape(shape),
        percentage=pct,
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
# Wealth-level inversion (for wealth-indexed sweeps and the dual solve)
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
            u += step
            with np.errstate(over="ignore", invalid="ignore"):
                rungs[u] = wealth_total(env, market, y_star, t, math.exp(u))
            if abs(u) > 2.0 * _MAX_EXPAND or not math.isfinite(rungs[u]):
                raise UnboundedDemand(f"wealth inversion found no bracket: X_t is "
                                      f"{rungs[u]:.6g} at xi = e^{u:g}")
    u = np.array(sorted(rungs))
    return u, np.array([rungs[v] for v in u])


def _newton_root(fn, lo: np.ndarray, hi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Roots of decreasing maps, one per entry of u, each inside (lo, hi).

    fn(act, u[act]) returns f and df/du on the active entries, with
    f(lo) > 0 > f(hi).  Newton steps from the start u, bisecting where a step
    is not finite or leaves the open bracket.  Every evaluated point becomes a
    bracket end (lo and hi are updated in place), so rounding noise cannot
    make the steps cycle.  An entry is done once a step or a move is within
    1e-14 (1 + |u|); NoConvergence after _NEWTON_ITERS steps.  An empty u
    costs one call of fn on no entries.
    """
    act = np.arange(u.size)
    for i in range(_NEWTON_ITERS):
        ua = u[act]
        f, df = fn(act, ua)
        if np.isnan(f).any():
            raise NoConvergence("root-find met a NaN value")
        lo[act] = np.where(f > 0.0, ua, lo[act])
        hi[act] = np.where(f < 0.0, ua, hi[act])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = np.where(f == 0.0, 0.0, f / df)
        newton, tol = ua - step, 1e-14 * (1.0 + np.abs(ua))
        take = (np.abs(step) <= tol) | ((newton > lo[act]) & (newton < hi[act])
                                        & (i < _NEWTON_STEPS))
        u[act] = np.where(take, newton, 0.5 * (lo[act] + hi[act]))
        act = act[~((np.abs(step) <= tol) | (np.abs(u[act] - ua) <= tol))]
        if not act.size:
            return u
    raise NoConvergence(f"root-find: {act.size} roots unconverged after "
                        f"{_NEWTON_ITERS} steps")


def state_price_for_wealth(env: PharaUtility, market: MarketParams,
                           y_star: float, t: float, x,
                           xi_cap: float = 1e18):
    """xi_t with X_t(xi_t) = x, vectorized over x; saturates at xi_cap.

    The one attainability rule: a level is attainable when it exceeds the
    floor e^{-r(T-t)} a0.  Other levels, and levels not below X_t on the last
    ladder rung under xi_cap, map to a finite xi_cap; with no cap to saturate
    at, an unattainable level raises InfeasibleBudget.
    The rest are bracketed by rungs and solved by :func:`_newton_root` in
    u = log xi with dX/du = -(delta-hedge scalar); it bisects where wealth is
    flat near the floor.
    """
    tab = _tables(env)  # rejects a non-concave utility
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full(xs.shape, xi_cap)
    floor = _horizon(market, t)[2] * env.a0
    attainable = xs > floor
    if xi_cap == INF and not attainable.all():
        raise InfeasibleBudget(f"wealth {float(xs[~attainable][0])} at t = {t:g} must "
                               f"exceed the floor e^(-r(T-t)) a0 = {floor}")
    live = np.flatnonzero(attainable)
    if live.size:
        rung_u, rung_X = _wealth_ladder(env, market, y_star, t, xs[live],
                                        math.log(xi_cap))
        k = np.searchsorted(-rung_X, -xs[live], side="right")  # first X < x
        live, k = live[k < rung_u.size], k[k < rung_u.size]
        level, lo, hi = xs[live], rung_u[k - 1], rung_u[k]
        f_lo, f_hi = rung_X[k - 1] - level, rung_X[k] - level
        u = lo + (hi - lo) * f_lo / (f_lo - f_hi)  # regula falsi start

        def wealth_gap(act, ua):
            _, q, terms, D = _ladder(env, market, y_star, t, np.exp(ua))
            hedge = _hedge(tab, market, t, terms[3], q[tab.cara], D[tab.chord_rungs])
            return _wealth(terms) - level[act], -hedge.sum(axis=0)
        out[live] = np.exp(_newton_root(wealth_gap, lo, hi, u))
    return float(out[0]) if np.ndim(x) == 0 else out
