"""Closed-form optimal wealth and portfolio for concave piecewise-HARA utilities.

Everything here consumes the *concave envelope* of a utility.  The terminal
wealth inverts the envelope's marginal utility at y* xi_T, the time-t wealth
is the conditional expectation of that inverse (a sum of five normal-CDF
families per piece), and the portfolio is the delta-hedge of the wealth map,
which, when every curved piece shares one relative risk aversion R, regroups
into the four-term split: Merton term, risk-seeking term from chords,
loss-aversion term from benchmarks, and first-order risk-aversion term from
kinks.  All of them come from D = d1(g / y xi) on the envelope's slope
ladder, which one step, :func:`_phi`, computes once per ladder slot, with
one normal.cdf call per pass on the rungs it reads.  :func:`portfolio_unified`
is the one point evaluator: from one pass over the ladder it returns the
weights, the wealth's five families, the wealth and the portfolio.  Every
evaluator runs in one driver, :func:`_evaluate`, which raises UnboundedDemand
where a result does not fit a double.  One bracket walk and one
Newton-bisection root-finder serve the dual multiplier, the wealth
inversion and the tangent search.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import normal
from .errors import (BadDimension, IllegalCase, InfeasibleBudget,
                     NoConvergence, NotConcave, UnboundedDemand)
from .market import MarketParams
from .utility import INF, PharaUtility, same_slope

_BUDGET_RTOL = 1e-10
_MAX_EXPAND = 200  # steps of a bracket walk
_RUNG = 2.0  # spacing in log xi of the wealth inversion's ladder
_NEWTON_ITERS = 100
_NEWTON_STEPS = 20  # then bisection, which a steep map cannot make creep
_BLOCK = 4096
# the four-term split's names, in the order of the paper and of surface.csv
SPLIT = ("merton", "risk_seeking", "loss_aversion", "first_order_ra")


class _Horizon(NamedTuple):
    s: float      # |theta| sqrt(tau), tau = T - t
    disc: float   # exp(-r tau)
    drift: float  # (r - |theta|^2 / 2) tau
    growth: np.ndarray  # wealth growth factor per power piece, a column


def _horizon(market: MarketParams, t: float, tab: _Tables) -> _Horizon:
    """The constants of the time to horizon that every closed form reads,
    computed once per evaluation, with the growth factors of tab's power
    pieces; BadTime outside [0, T), IllegalCase where a factor overflows."""
    tau, th, R = market.tau(t), market.theta_norm, tab.R[tab.crra]
    try:  # the smallest R has the largest growth
        with np.errstate(over="raise"):
            growth = np.array([math.exp(-b * (market.r + 0.5 * th**2) * tau
                                        + 0.5 * b**2 * th**2 * tau) for b in 1.0 - 1.0 / R])
    except (OverflowError, FloatingPointError):
        raise IllegalCase(f"power piece with R = {R.min()}: its wealth growth factor "
                          f"overflows at T - t = {tau}") from None
    return _Horizon(th * math.sqrt(tau), market.discount(t),
                    (market.r - 0.5 * th**2) * tau, growth[:, None])


def _d1_outer(log_g, log_w, h: _Horizon):
    """d1(g / w) for every g (rows) and w (columns), from log g and log w."""
    return np.add.outer(-(log_g + h.drift) / h.s, log_w / h.s)


def _evaluate(pass_, xi, *args, first="optimal wealth"):
    """The one evaluation driver: ``pass_(block, *args)`` returns arrays whose
    last axis runs over a flat block of xi, on blocks of _BLOCK points (which
    bounds a ladder's temporaries) under one warning scope; an xi that is not
    positive is BadDimension.  The one overflow rule: UnboundedDemand names
    the first xi where an array is not finite, and ``first`` if the first
    array is not, else the optimal portfolio.  Each array gets xi's shape as
    its trailing axes, and is a float where that leaves no axis."""
    flat = np.asarray(xi, dtype=float).reshape(-1)
    if not (flat > 0.0).all():  # NaN included
        raise BadDimension(f"state price xi = {flat[~(flat > 0.0)][0]:g} is not positive")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        blocks = [pass_(flat[i:i + _BLOCK], *args)
                  for i in range(0, max(flat.size, 1), _BLOCK)]
    out = [np.concatenate(arrays, axis=-1) for arrays in zip(*blocks)]
    finite = np.isfinite(np.vstack(out))
    if not finite.all():
        i = np.argmin(finite.all(axis=0))
        what = "optimal portfolio" if finite[0, i] else first
        raise UnboundedDemand(f"{what} at state price xi = {flat[i]:g} does not fit a double")
    shaped = [a.reshape(a.shape[:-1] + np.shape(xi)) for a in out]
    return [float(a) if a.ndim == 0 else a for a in shaped]


# ---------------------------------------------------------------------------
# Envelope tables
# ---------------------------------------------------------------------------


class _Tables(NamedTuple):
    a: np.ndarray          # partition, length n+1, a[n] = inf
    ladder: np.ndarray     # gminus[0] >= gplus[0] >= gminus[1] >= ... >= gminus[n]
    slot: np.ndarray       # ladder row -> slope, shared where no kink parts them
    log_slopes: np.ndarray  # per slot
    R: np.ndarray          # per piece
    A: np.ndarray          # benchmark, 0 where unused
    alpha: np.ndarray      # CARA coefficient, 0 where unused
    width: np.ndarray      # a[k+1] - a[k]
    C: np.ndarray          # (anchor - A) * anchor_slope^(1/R) per CRRA piece
    K: np.ndarray          # anchor + log(anchor_slope)/alpha per CARA piece
    crra: np.ndarray       # bool masks
    cara: np.ndarray
    chord: np.ndarray
    # slots a piece type reads: rows 2k+1, 2k+2 per power and exponential piece
    # (interleaved, so ascending), 2k+1 per chord
    crra_rungs: np.ndarray
    cara_rungs: np.ndarray
    chord_rungs: np.ndarray


@lru_cache(maxsize=64)
def _tables(env: PharaUtility) -> _Tables:
    n1 = len(env.pieces)
    a = env.partition
    R = np.array([p.R for p in env.pieces])
    crra = (R > 0.0) & np.isfinite(R)
    cara = R == INF
    chord = R == 0.0
    A = np.where(crra, [p.A for p in env.pieces], 0.0)
    alpha = np.array([p.alpha or 0.0 for p in env.pieces])

    # slope ladder must be nonincreasing: gminus[k] >= gplus[k] >= gminus[k+1], a rise
    # within same_slope being one slope.  A larger rise at a junction that kinks() omits is
    # rounding: both rows take the slope of the chord there (the sweep's line), else the left
    ladder = np.empty(2 * n1 + 1)
    ladder[0::2] = [INF] + [p.slope_hi for p in env.pieces]
    ladder[1::2] = [p.slope_lo for p in env.pieces]
    g, kinks = ladder.tolist(), env.kinks()
    for k in range(1, n1):  # junction k: rows 2k, 2k + 1
        if g[2 * k + 1] > g[2 * k] and not same_slope(*g[2 * k:2 * k + 2]) and a[k] not in kinks:
            ladder[2 * k:2 * k + 2] = g[2 * k] = g[2 * k + 1] = g[2 * k + chord[k]]
    for i in range(2 * n1):
        if g[i + 1] > g[i] and not same_slope(g[i], g[i + 1]):
            raise NotConcave(f"utility is not concave: slope {g[i]!r} at {a[i // 2]} rises "
                             f"to {g[i + 1]!r} at {a[(i + 1) // 2]}; build its envelope first")
    if g[-1] > 0.0:  # U'(inf) > 0 only on a rising linear tail; a flat one is bounded
        raise UnboundedDemand(f"envelope has a linear tail of slope {g[-1]!r} > 0: "
                              "demand is infinite")

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
    # one slot per run of equal slopes (a chord's ends) and per smooth junction
    new = np.r_[True, ladder[1:] != ladder[:-1]]
    new[1::2] &= np.isin(a[:-1], kinks)
    slot = np.cumsum(new) - 1
    with np.errstate(divide="ignore"):
        log_slopes = np.log(ladder[new])

    def rungs(mask, *offsets):  # interleaved per piece
        return slot[(2 * np.flatnonzero(mask)[:, None] + offsets).ravel()]
    tab = _Tables(a, ladder, slot, log_slopes, R, A, alpha, np.diff(a), C, K, crra,
                  cara, chord, rungs(crra, 1, 2), rungs(cara, 1, 2), rungs(chord, 1))
    for arr in tab:
        arr.setflags(write=False)
    return tab


# ---------------------------------------------------------------------------
# Terminal wealth
# ---------------------------------------------------------------------------


def optimal_terminal_wealth(env: PharaUtility, y: float, xi_T):
    """Argmax of U**(x) - y xi_T x: inverse marginal utility with kink atoms.

    Vectorized over xi_T.  On the measure-zero tie levels the left endpoint
    of the argmax set is returned.
    """
    return _evaluate(_argmax, xi_T, _tables(env), y)[0]


def _argmax(xi, tab: _Tables, y: float):
    w = y * xi
    # descending ladder; ties resolve towards the larger-slope interval,
    # i.e. the left endpoint of the argmax set
    j = np.searchsorted(-tab.ladder, -w, side="left") - 1
    j = np.clip(j, 0, tab.ladder.size - 2)
    k = j // 2  # even j: kink a_k; odd j: inside piece k
    curve = np.where(tab.crra[k], tab.A[k] + tab.C[k] * w ** (-1.0 / tab.R[k]),
                     tab.K[k] - np.log(w) / tab.alpha[k])
    # kinks and chords (ties only) sit at the left end a_k
    return (np.where((j % 2 == 1) & ~tab.chord[k], curve, tab.a[k]),)


# ---------------------------------------------------------------------------
# The slope ladder: wealth, weights and the delta-hedge at one time
# ---------------------------------------------------------------------------


def _phi(tab: _Tables, h: _Horizon, log_w, slots):
    """A pass's one D-and-Phi step: D = d1(g / w) once per ladder slot, and
    one normal.cdf call on D at the ascending ``slots`` (their running maximum,
    which keeps rounding from turning a weight negative) and on D - s/R_k at
    each power piece's two slopes.  Returns D, Phi on the slots, and X^R_k =
    C_k w^{-1/R_k} growth_k (Phi(D_{2k+2} - s/R_k) - Phi(D_{2k+1} - s/R_k)).
    The maximum runs row by row in place: ``np.maximum.accumulate(axis=0)``
    gives the same values, striding across rows, several times slower."""
    D, R = _d1_outer(tab.log_slopes, log_w, h), tab.R[tab.crra, None]
    F = D[np.concatenate((np.arange(len(D))[slots], tab.crra_rungs))]
    n = len(F) - 2 * len(R)  # the ladder rows
    F[n:] -= np.repeat(h.s / R, 2, axis=0)
    normal.cdf(F)
    for i in range(1, n):
        np.maximum(F[i - 1], F[i], out=F[i])
    cell = F[n + 1::2] - F[n::2]
    # w^{-1/R} may overflow where the cell has probability 0: leave it 0 there
    power = np.exp(-log_w / R, out=np.zeros(cell.shape), where=cell != 0.0)
    return D, F[:n], tab.C[tab.crra, None] * power * h.growth * cell


def _hedge(tab: _Tables, h: _Horizon, xR, q_cara, D_chord):
    """Each piece's share of the delta-hedge scalar -xi dX/dxi: X^R_k / R_k
    on power pieces, a constant-absolute-risk term disc q_k / alpha_k on
    exponential pieces, and on chords the near-terminal gambling term
    disc width_k phi(D_{2k+1}) / s."""
    hedge = np.zeros((tab.R.size, xR.shape[-1]))
    hedge[tab.crra] = xR / tab.R[tab.crra, None]
    hedge[tab.cara] = h.disc / tab.alpha[tab.cara, None] * q_cara
    # a flat tail has width inf and phi(D) = 0: leave its row 0 there
    phi = normal.pdf(D_chord)
    hedge[tab.chord] = np.multiply(h.disc * tab.width[tab.chord, None] / h.s, phi,
                                   out=np.zeros(phi.shape), where=phi != 0.0)
    return hedge


def _ladder(xi, tab: _Tables, h: _Horizon, y: float):
    """Every closed form at w = y xi, from :func:`_phi` on the whole ladder,
    whose entries 2k, 2k+1 are the slopes left and right of the kink a_k.
    Returns the wealth X_t, the kink weights p and cell weights q (one row
    per piece), the five wealth families in ``families`` order (kink and
    benchmark terms one row per piece, the others one row per piece of their
    type: exponential, power, exponential), and D per ladder slot."""
    log_w, disc = np.log(y * xi), h.disc
    D, F, xR = _phi(tab, h, log_w, slice(None))
    F = F[tab.slot]  # one row per ladder entry
    p, q = F[1::2] - F[:-1:2], F[2::2] - F[1::2]

    cara = tab.cara
    al = tab.alpha[cara, None]
    D_cara = D[tab.cara_rungs]
    # a_k - (s/alpha) d1(gplus/w) kept in anchored form: it equals
    # K + (log(1/w) + (r - th^2/2) tau)/alpha with K constant per piece
    level = tab.K[cara, None] + (-log_w + h.drift) / al
    xAbar = disc * level * q[cara]
    xRbar = disc * (-h.s / al) * (normal.pdf(D_cara[1::2]) - normal.pdf(D_cara[::2]))

    terms = (disc * tab.a[:-1, None] * p, disc * tab.A[:, None] * q, xAbar, xR, xRbar)
    return sum(term.sum(axis=0) for term in terms), p, q, terms, D


def _decomposition(xi, tab: _Tables, h: _Horizon, y: float):
    """The point evaluator's pass: the wealth, the delta-hedge scalar and its
    chord rows' sum, then :func:`_ladder`'s weights and wealth families."""
    x_t, p, q, terms, D = _ladder(xi, tab, h, y)
    hedge = _hedge(tab, h, terms[3], q[tab.cara], D[tab.chord_rungs])
    return x_t, hedge.sum(axis=0), hedge[tab.chord].sum(axis=0), p, q, *terms


def _hedge_rows(xi, tab: _Tables, h: _Horizon, y: float):
    """The delta-hedge scalar of :func:`_hedge`, with Phi from :func:`_phi`
    on the slopes it reads: the exponential pieces' rungs, ascending, where a
    repeated slot leaves the running maximum as it is, and the power pieces'."""
    D, F, xR = _phi(tab, h, np.log(y * xi), tab.cara_rungs)
    q = F[1::2] - F[::2]
    return (_hedge(tab, h, xR, q, D[tab.chord_rungs]).sum(axis=0),)


def wealth_total(env: PharaUtility, market: MarketParams, y: float, t: float,
                 xi):
    """Optimal wealth X_t as a function of xi_t (vectorized)."""
    tab = _tables(env)
    h = _horizon(market, t, tab)
    return _evaluate(lambda b: _ladder(b, tab, h, y)[:1], xi)[0]


# ---------------------------------------------------------------------------
# Dual multiplier
# ---------------------------------------------------------------------------


class DualSolution(NamedTuple):
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
    e^{2j} <= y* < e^{2j+2} around it (_RUNG = 2).
    """
    y_star = state_price_for_wealth(env, market, 1.0, 0.0, x0, xi_cap=INF)
    resid = budget(env, market, y_star) - x0
    tol = _BUDGET_RTOL * max(1.0, x0)
    if not abs(resid) <= tol:
        raise UnboundedDemand(f"budget equation residual {resid:.3e} > {tol:.3e}")
    rung = _RUNG * math.floor(math.log(y_star) / _RUNG)
    return DualSolution(y_star=y_star, budget_residual=float(resid),
                        bracket=(math.exp(rung), math.exp(rung + _RUNG)), x0=x0,
                        feasible_floor=wealth_bounds(env, market, 0.0)[0])


# ---------------------------------------------------------------------------
# Portfolios
# ---------------------------------------------------------------------------


def portfolio_general(env: PharaUtility, market: MarketParams, y_star: float,
                      t: float, xi_t):
    """Optimal portfolio vector for any mix of piece types (vectorized in xi).

    The delta-hedge scalar -xi dX/dxi rides the direction (sigma^T)^{-1} theta.
    It equals ``portfolio_unified(...).total`` from only the ladder rows the
    hedge reads: the Euler step's form.
    """
    tab = _tables(env)
    scalar = _evaluate(_hedge_rows, xi_t, tab, _horizon(market, t, tab), y_star,
                       first="optimal portfolio")[0]
    return np.multiply.outer(market.risk_direction, scalar)


class PortfolioDecomposition(NamedTuple):
    """Everything at one (t, xi_t) from one pass over the slope ladder.

    The four-term split ``terms``, keyed by SPLIT, when
    :func:`_common_risk_aversion` gives one R, else empty; the optimal
    portfolio ``total``, the wealth, a bound on its rounding and their ratio;
    the kink and cell weights p and q, which sum to one; and the wealth's five
    ``families`` per piece by their ``decompose.json`` names, zero on pieces of
    another type: kink atoms, benchmark terms, power curvature terms, and the
    exponential pieces' level and curvature terms.  N state prices give (m, N)
    vectors, N wealth levels and (len(pieces), N) rows."""

    terms: dict
    total: np.ndarray
    wealth: float | np.ndarray
    wealth_rounding: float | np.ndarray
    percentage: np.ndarray
    p: np.ndarray
    q: np.ndarray
    families: dict


def _common_risk_aversion(tab: _Tables) -> float | None:
    """The R shared by every curved piece, which the four-term split needs;
    None with an exponential piece, several R or no curved piece."""
    levels = set(tab.R[tab.crra].tolist())
    return levels.pop() if len(levels) == 1 and not tab.cara.any() else None


def fraction_of_wealth(v, wealth, rounding):
    """v / wealth, 0 where |wealth| <= rounding, the one zero-wealth rule; the
    bound is 2 eps (the magnitude of the wealth's five families + (1 + |log xi|)
    |xi dX/dxi|, the wealth's move over the rounding of log xi)."""
    return np.divide(v, wealth, out=np.zeros(np.shape(v)),
                     where=np.abs(wealth) > rounding)


def portfolio_unified(env: PharaUtility, market: MarketParams, y_star: float,
                      t: float, xi_t) -> PortfolioDecomposition:
    """The one point evaluator, for any concave envelope: the delta-hedge
    ``total``, the wealth and ``total`` / wealth, the weights and wealth
    families, and with a common R the four-term split Merton + risk-seeking
    - loss-aversion - first-order, which regroups the hedge rows and so adds
    up to ``total``.
    """
    tab = _tables(env)
    h, R = _horizon(market, t, tab), _common_risk_aversion(tab)
    x_t, total, chords, p, q, *families = _evaluate(_decomposition, xi_t, tab, h, y_star)
    eps2 = 2.0 * np.finfo(float).eps  # first, so that no magnitude overflows
    rounding = (sum(np.abs(eps2 * f).sum(axis=0) for f in families)
                + eps2 * (1.0 + np.abs(np.log(xi_t))) * np.abs(total))
    split = () if R is None else (  # risk-seeking: the chords' gambling terms
        x_t / R, chords, -h.disc / R * np.tensordot(tab.A, q, axes=1),
        -h.disc / R * np.tensordot(tab.a[:-1], p, axes=1))

    def vector(v):
        return np.multiply.outer(market.risk_direction, v)

    def per_piece(v, mask):  # one row per piece, 0 off the mask
        out = np.zeros(p.shape)
        out[mask] = v
        return out
    names = ("kink_terms", "benchmark_terms", "cara_level_terms", "curvature_terms",
             "cara_curvature_terms")
    masks = (slice(None), slice(None), tab.cara, tab.crra, tab.cara)
    return PortfolioDecomposition(
        terms={name: vector(v) for name, v in zip(SPLIT, split)}, total=vector(total),
        wealth=x_t, wealth_rounding=rounding,
        percentage=vector(fraction_of_wealth(total, x_t, rounding)), p=p, q=q,
        families={name: per_piece(v, m) for name, v, m in zip(names, families, masks)})


# ---------------------------------------------------------------------------
# Wealth-level inversion (for wealth-indexed sweeps and the dual solve)
# ---------------------------------------------------------------------------


def _walk(f, x, f_x, step, done, fail):
    """The bracket walk of every monotone root: the points x, step(x), ... with
    their values, f_x at x, up to the first (x, f(x)) where done(x, f(x))
    holds; fail(x, f(x)) of the last is raised after _MAX_EXPAND steps."""
    points = [(x, f_x)]
    while not done(*points[-1]):
        if len(points) > _MAX_EXPAND:
            raise fail(*points[-1])
        x = step(x)
        points.append((x, f(x)))
    return points


def _newton_root(fn, lo: np.ndarray, hi: np.ndarray, f_lo, f_hi) -> np.ndarray:
    """Roots of decreasing maps, one per entry of lo, each inside (lo, hi).

    fn(act, u[act]) returns f and df/du on the active entries, with
    f_lo = f(lo) >= 0 > f(hi) = f_hi.  Newton steps from the regula falsi
    start lo + (hi - lo) f_lo / (f_lo - f_hi), bisecting where a step
    is not finite or leaves the open bracket.  Every evaluated point becomes a
    bracket end (lo and hi are updated in place), so rounding noise cannot
    make the steps cycle.  An entry is done once a step or a move is within
    1e-14 (1 + |u|); NoConvergence after _NEWTON_ITERS steps.  An empty
    bracket costs one call of fn on no entries.
    """
    u = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
    u = np.where(np.isfinite(u), u, 0.5 * (lo + hi))  # an infinite f_lo: bisect
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


def wealth_bounds(env: PharaUtility, market: MarketParams, t: float):
    """(floor, ceiling) of the wealth X_t: e^{-r(T-t)} a0, and e^{-r(T-t)} a_f
    where the envelope turns flat, at its first slope 0 (a_f = inf on a curved
    tail); X_T lies in [a0, a_f]."""
    tab, disc = _tables(env), market.discount(t)  # not concave, bad t
    # ladder rows 2k and 2k + 1 are the slopes left and right of a_k; the last
    # row, at a_n = inf, is 0 on every envelope that _tables admits
    return disc * env.a0, disc * float(tab.a[np.argmax(tab.ladder == 0.0) // 2])


def state_price_for_wealth(env: PharaUtility, market: MarketParams,
                           y_star: float, t: float, x,
                           xi_cap: float = 1e18):
    """xi_t with X_t(xi_t) = x, vectorized over x; saturates at xi_cap.

    The one attainability rule: a level is attainable when it lies strictly
    between the floor and the ceiling of :func:`wealth_bounds`.  A level at
    or above the ceiling raises InfeasibleBudget.  Levels at or below the
    floor, and levels not below X_t on the last ladder rung under xi_cap, map
    to a finite xi_cap; with no cap to saturate at, such a level raises
    InfeasibleBudget.
    The rest are bracketed by rungs, each way by :func:`_walk`, and solved by
    :func:`_newton_root` in u = log xi with dX/du = -(delta-hedge scalar); it
    bisects where wealth is flat near the floor.
    """
    tab = _tables(env)
    floor, ceiling = wealth_bounds(env, market, t)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full(xs.shape, xi_cap)
    attainable = xs > floor
    if xi_cap == INF and not attainable.all():
        raise InfeasibleBudget(f"wealth {float(xs[~attainable][0])} at t = {t:g} must "
                               f"exceed the floor e^(-r(T-t)) a0 = {floor}")
    if (xs >= ceiling).any():
        raise InfeasibleBudget(f"wealth {float(xs[xs >= ceiling][0])} at t = {t:g} must stay "
                               f"below the ceiling e^(-r(T-t)) a_f = {ceiling}, where the "
                               "envelope is flat from a_f")
    live = np.flatnonzero(attainable)
    if live.size:  # X_t on rungs u = log xi = 0, -+_RUNG, ... to X above and below every level
        def wealth(u):
            return wealth_total(env, market, y_star, t, math.exp(u))

        def fail(u, x_t):
            return UnboundedDemand(f"wealth inversion found no bracket: X_t is {x_t:.6g} "
                                   f"at xi = e^{u:g}")
        x_0, u_cap, x_lo, x_hi = wealth(0.0), math.log(xi_cap), xs[live].min(), xs[live].max()
        down = _walk(wealth, 0.0, x_0, lambda u: u - _RUNG, lambda u, x_t: not x_t <= x_hi, fail)
        up = _walk(wealth, 0.0, x_0, lambda u: u + _RUNG,  # or to the last rung under xi_cap
                   lambda u, x_t: not (x_t >= x_lo and u + _RUNG <= u_cap), fail)
        rung_u, rung_X = np.array(down[:0:-1] + up).T
        h = _horizon(market, t, tab)  # after the rungs, which raise its IllegalCase first
        k = np.searchsorted(-rung_X, -xs[live], side="right")  # first X < x
        live, k = live[k < rung_u.size], k[k < rung_u.size]
        level, lo, hi = xs[live], rung_u[k - 1], rung_u[k]

        def wealth_gap(act, ua):
            x_t, total = _evaluate(lambda b: _decomposition(b, tab, h, y_star)[:2],
                                   np.exp(ua))
            return x_t - level[act], -total
        out[live] = np.exp(_newton_root(wealth_gap, lo, hi, rung_X[k - 1] - level,
                                        rung_X[k] - level))
    return float(out[0]) if np.ndim(x) == 0 else out
