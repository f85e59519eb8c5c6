"""Piecewise-HARA utilities: pieces, S-shaped preferences, composition.

A utility is a partition ``a0 = a_0 < a_1 < ... < a_{n+1} = inf`` together
with one HARA branch per cell.  Each branch is one of four closed forms
(linear, log, power, exponential) pinned down by a relative risk aversion
``R`` in [0, inf], a benchmark level ``A``, and the value/slope at a finite
anchor point.  Raw utilities may be non-concave: convex power branches
(benchmark above the cell) and flat segments are admitted so that payoff
compositions can be represented before concavification.  S-shaped
preferences are such utilities, and so is any PHARA preference composed with
a piecewise-linear payoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import IllegalCase, NotPhara, OutOfDomain
from .market import _LOG_MAX

INF = float("inf")
NEG_INF = float("-inf")

_VALUE_RTOL = 1e-10
_KINK_RTOL = 1e-9


def same_slope(s: float, t: float) -> bool:
    """Two slopes agree within _KINK_RTOL or 1e-300: the sweep's ties and the ladder read it."""
    return math.isclose(s, t, rel_tol=_KINK_RTOL, abs_tol=1e-300)


def one_slope(left: PharaPiece, right: PharaPiece) -> bool:
    """The one junction rule at x: one slope by :func:`same_slope`, or a rise by rounding only,
    right's slope 4 ulps right of x at most left's 4 ulps left (NaN, below A, reads +inf)."""
    s, t, x = left.slope_hi, right.slope_lo, right.a_lo
    if t < s or same_slope(s, t):
        return same_slope(s, t)
    h = 4.0 * math.ulp(x)
    s, t = np.nan_to_num([left.slope(x - h), right.slope(x + h)], nan=INF)
    return bool(t <= s)


def same_value(v: float, w: float, rounding: float = 0.0) -> bool:
    """The one value rule: |v - w| <= _VALUE_RTOL max(1, |v|, |w|) + the pieces' rounding."""
    return abs(v - w) <= _VALUE_RTOL * max(1.0, abs(v), abs(w)) + rounding


def _anchor(lo: float, hi: float, R: float, A: float, home: float = NEG_INF) -> float:
    """Finite anchor in [lo, hi] where a branch's slope is finite.

    An exponential branch sits at the point of [lo, hi] nearest ``home``, its
    own anchor: its value and slope grow like e^(alpha d) at a distance d
    from it, so an anchor far left of home would turn every value to its
    right into a cancellation of two such numbers.  Otherwise the anchor is
    ``lo`` unless a power or log branch has its benchmark there (the slope
    blows up at A); then it is ``hi``, or a point above A when the cell is
    unbounded.
    """
    if R == INF:
        return min(max(home, lo), hi)
    if 0.0 < R < INF and A == lo:
        return hi if np.isfinite(hi) else A + max(1.0, abs(A))
    return lo


@dataclass(frozen=True)
class PharaPiece:
    """One HARA branch of a piecewise utility on [a_lo, a_hi).

    The branch is one of four closed forms: R = 0 linear; R = 1 log;
    R in (0,1)u(1,inf) power with benchmark A; R = inf exponential (needs
    A = -inf and alpha > 0).  It is stored in anchored form: value
    ``anchor_u`` and slope ``anchor_slope`` at the finite point ``anchor_x``
    in [a_lo, a_hi], chosen by :func:`_anchor` when a piece is derived.
    """

    a_lo: float
    a_hi: float
    R: float
    anchor_x: float
    anchor_u: float
    anchor_slope: float
    A: float = NEG_INF
    alpha: float | None = None

    def __post_init__(self):
        if not self.a_lo < self.a_hi:
            raise IllegalCase(f"empty piece [{self.a_lo}, {self.a_hi})")
        if not np.isfinite(self.a_lo):
            raise IllegalCase("piece must start at a finite point")
        if not self.a_lo <= self.anchor_x <= self.a_hi:
            raise IllegalCase("anchor must lie inside the piece")
        if not (np.isfinite(self.anchor_x) and np.isfinite(self.anchor_u)):
            raise IllegalCase("anchor point and value must be finite")
        if not self.R >= 0.0:
            raise IllegalCase(f"risk aversion R must be >= 0, got {self.R}")
        if self.R == 0.0:
            if not 0.0 <= self.anchor_slope < INF:
                raise IllegalCase("linear piece needs a finite slope >= 0")
            return
        if not 0.0 < self.anchor_slope < INF:
            raise IllegalCase("non-linear piece needs a finite positive anchor slope")
        if self.R == INF:
            if self.A != NEG_INF:
                raise IllegalCase("exponential case needs A = -inf")
            if self.alpha is None or not 0.0 < self.alpha < INF:
                raise IllegalCase(
                    f"exponential case needs alpha in (0, inf), got {self.alpha}")
            return
        if not np.isfinite(self.A):
            raise IllegalCase("power/log piece needs a finite benchmark")
        if self.a_lo < self.A < self.a_hi:
            raise IllegalCase(
                f"benchmark {self.A} inside ({self.a_lo}, {self.a_hi}) "
                "would put a singularity in the piece"
            )
        if self.A <= self.a_lo and not self.anchor_x > self.A:
            raise IllegalCase("anchor must sit strictly above the benchmark")
        if self.A >= self.a_hi and not self.anchor_x < self.A:
            raise IllegalCase("anchor must sit strictly below the benchmark")

    # -- closed-form evaluation -------------------------------------------

    def value(self, x):
        """The template: ``anchor_u`` at ``anchor_x`` with slope ``anchor_slope``."""
        R, A, x_hat, u, gamma = (self.R, self.A, self.anchor_x, self.anchor_u,
                                 self.anchor_slope)
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if R == 0.0:
                out = gamma * (x - x_hat) + u
            elif R == INF:
                out = -(gamma / self.alpha) * (np.exp(-self.alpha * (x - x_hat)) - 1.0) + u
            elif R == 1.0:
                out = gamma * (x_hat - A) * np.log((x - A) / (x_hat - A)) + u
            else:
                ratio = (x - A) / (x_hat - A)
                out = gamma * (x_hat - A) / (1.0 - R) * (ratio ** (1.0 - R) - 1.0) + u
        return float(out) if out.ndim == 0 else out

    def slope(self, x):
        """Derivative of :meth:`value` with respect to x."""
        R, gamma = self.R, self.anchor_slope
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if R == 0.0:
                out = np.full_like(x, gamma)
            elif R == INF:
                out = gamma * np.exp(-self.alpha * (x - self.anchor_x))
            else:
                out = gamma * ((x - self.A) / (self.anchor_x - self.A)) ** (-R)
        return float(out) if out.ndim == 0 else out

    def restrict(self, lo: float, hi: float) -> "PharaPiece":
        """The same branch on [lo, hi], re-anchored by :func:`_anchor`."""
        x = _anchor(lo, hi, self.R, self.A, self.anchor_x)
        return replace(self, a_lo=lo, a_hi=hi, anchor_x=x,
                       anchor_u=float(self.value(x)),
                       anchor_slope=float(self.slope(x)))

    def contact(self, s: float) -> float:
        """The one contact rule: where a slope-s line touches the piece, clamped to it."""
        if s <= self.slope_hi:
            return self.a_hi
        if s >= self.slope_lo:
            return self.a_lo
        if self.R == INF:
            x = self.anchor_x - math.log(s / self.anchor_slope) / self.alpha
        else:
            x = self.A + (self.anchor_x - self.A) * (s / self.anchor_slope) ** (-1.0 / self.R)
        return min(max(x, self.a_lo), self.a_hi)

    def rounding(self, x: float) -> float:
        """Bound on value(x)'s rounding: 4 eps (|anchor_u| + |value(x)| + |x slope(x)|),
        the last term 0 where the slope is infinite."""
        v, s = float(self.value(x)), float(self.slope(x))
        return 2.0**-50 * (abs(self.anchor_u) + abs(v) + (abs(x * s) if s < INF else 0.0))

    # -- one-sided limits ---------------------------------------------------

    @cached_property
    def value_lo(self) -> float:
        return float(self.value(self.a_lo))

    @cached_property
    def value_hi(self) -> float:
        return float(self.value(self.a_hi))

    @cached_property
    def slope_lo(self) -> float:
        return float(self.slope(self.a_lo))

    @cached_property
    def slope_hi(self) -> float:
        return float(self.slope(self.a_hi))

    @property
    def convex(self) -> bool:
        """Convex on the open cell: a power or log branch whose benchmark
        lies above the cell."""
        return 0.0 < self.R < INF and self.A > self.a_lo


@dataclass(frozen=True)
class PharaUtility:
    """Increasing, upper-semicontinuous piecewise-HARA utility on [a0, inf).

    U(a0) is the first piece's limit there: -inf for a log branch, or a power
    branch with R > 1, whose benchmark is a0.  The one domain rule: a0 is in
    the domain exactly when U(a0) is finite.  A payoff is one with linear pieces.
    """

    a0: float
    pieces: tuple[PharaPiece, ...]

    def __post_init__(self):
        if not self.pieces:
            raise IllegalCase("utility needs at least one piece")
        if self.pieces[0].a_lo != self.a0:
            raise IllegalCase("first piece must start at a0")
        if self.pieces[-1].a_hi != INF:
            raise IllegalCase("last piece must extend to +inf")
        for left, right in zip(self.pieces, self.pieces[1:]):
            if left.a_hi != right.a_lo:
                raise IllegalCase(
                    f"partition gap between {left.a_hi} and {right.a_lo}"
                )
            lv, rv, x = left.value_hi, right.value_lo, right.a_lo
            if not (np.isfinite(lv) and np.isfinite(rv)):
                raise IllegalCase("interior junction values must be finite")
            if rv < lv and not same_value(lv, rv, left.rounding(x) + right.rounding(x)):
                raise IllegalCase(f"utility decreases across the junction at {x}: {lv} -> {rv}")

    # -- structure ----------------------------------------------------------

    @property
    def partition(self) -> np.ndarray:
        """Array [a_0, a_1, ..., a_n, inf] of length len(pieces) + 1."""
        return np.array([p.a_lo for p in self.pieces] + [INF])

    def kinks(self) -> list[float]:
        """Domain floor plus the junctions that :func:`one_slope` does not call one slope."""
        return [self.a0] + [right.a_lo for left, right in zip(self.pieces, self.pieces[1:])
                            if not one_slope(left, right)]

    # -- evaluation ----------------------------------------------------------

    def _piece_index(self, x: np.ndarray) -> np.ndarray:
        # x == a_k belongs to the right piece (value there is the upper limit)
        return np.searchsorted(self.partition[1:-1], x, side="right")

    def value(self, x):
        """U(x); upper-semicontinuous choice (max of one-sided limits) at kinks.
        OutOfDomain below a0."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if np.any(x < self.a0):
            raise OutOfDomain(f"domain starts at {self.a0}")
        out = np.empty_like(x)
        idx = self._piece_index(x)
        for k, piece in enumerate(self.pieces):
            mask = idx == k
            if np.any(mask):
                out[mask] = piece.value(x[mask])
        return float(out[0]) if scalar else out


def crra_utility(R: float, a0: float = 0.0) -> PharaUtility:
    """Pure power/log utility on [a0, inf) with benchmark a0 and U'(x)=(x-a0)^-R;
    U(a0) is 0 for R < 1 and -inf for R >= 1."""
    u = 0.0 if R == 1.0 else 1.0 / (1.0 - R)
    piece = PharaPiece(a_lo=a0, a_hi=INF, R=R, A=a0, anchor_x=a0 + 1.0,
                       anchor_u=u, anchor_slope=1.0)
    return PharaUtility(a0=a0, pieces=(piece,))


def cara_utility(alpha: float, a0: float = -200.0) -> PharaUtility:
    """Exponential utility -exp(-alpha x)/alpha, truncated far below zero."""
    if not 0.0 < alpha < INF:
        raise IllegalCase(f"alpha must be in (0, inf), got {alpha}")
    piece = PharaPiece(a_lo=a0, a_hi=INF, R=INF, anchor_x=0.0,
                       anchor_u=-1.0 / alpha, anchor_slope=1.0, alpha=alpha)
    return PharaUtility(a0=a0, pieces=(piece,))


def s_shaped_utility(reference: float, gain_exponent: float, a0: float,
                     loss_exponent: float | None = None,
                     loss_weight: float = 1.0) -> PharaUtility:
    """S-shaped preference (Kahneman & Tversky 1979) on [a0, inf).

    gains:  (w - reference)^gain_exponent               for w >= reference
    losses: -loss_weight (reference - w)^loss_exponent   for a0 <= w < reference

    Both sides are power branches with benchmark ``reference``: a concave
    piece for the gains, and a convex piece for the losses when a0 lies
    below the reference.  The loss exponent defaults to the gain exponent.
    """
    q = gain_exponent if loss_exponent is None else loss_exponent
    if not 0.0 < gain_exponent < 1.0:
        raise IllegalCase("gain exponent must be in (0, 1)")
    if not 0.0 < q < 1.0:
        raise IllegalCase("loss exponent must be in (0, 1)")
    if not loss_weight > 0.0:
        raise IllegalCase("loss weight must be positive")

    def branch(lo, hi, x, p, weight):
        # +-weight |x - reference|^p on [lo, hi), anchored at x
        d = abs(x - reference)
        try:
            return PharaPiece(a_lo=lo, a_hi=hi, R=1.0 - p, A=reference, anchor_x=x,
                              anchor_u=math.copysign(weight * d ** p, x - reference),
                              anchor_slope=weight * p * d ** (p - 1.0))
        except OverflowError:
            raise IllegalCase(f"{'loss' if x < reference else 'gain'} piece's anchor slope "
                              f"overflows at {x}: |{x} - reference| = {d}, exponent {p}") from None

    losses = (branch(a0, reference, a0, q, loss_weight),) if a0 < reference else ()
    lo = max(a0, reference)
    x = _anchor(lo, INF, 1.0 - gain_exponent, reference)
    return PharaUtility(a0=a0, pieces=losses + (branch(lo, INF, x, gain_exponent, 1.0),))


# ---------------------------------------------------------------------------
# Payoffs and composition
# ---------------------------------------------------------------------------


def piecewise_linear_payoff(a0: float, value_lo: float, breakpoints, slopes) -> PharaUtility:
    """Continuous increasing piecewise-linear payoff, ``value_lo`` at the floor a0.

    One linear piece per cell [a0, b_1), ..., [b_K, inf), anchored at its left
    end with the previous piece's value there: the pieces validate the rest.
    """
    if len(slopes) != len(breakpoints) + 1:
        raise IllegalCase(f"need {len(breakpoints) + 1} slopes, got {len(slopes)}")
    knots = (a0, *breakpoints, INF)
    pieces = []
    for lo, hi, s in zip(knots, knots[1:], slopes):
        pieces.append(PharaPiece(a_lo=lo, a_hi=hi, R=0.0, anchor_x=lo, anchor_slope=s,
                                 anchor_u=pieces[-1].value_hi if pieces else value_lo))
    return PharaUtility(a0=a0, pieces=tuple(pieces))


def compose(preference: PharaUtility, payoff: PharaUtility) -> PharaUtility:
    """Utility of a payoff, a PHARA utility with linear pieces: U = preference o payoff.

    The partition is the payoff's together with preimages of the preference's
    interior points; on each resulting cell the payoff is affine and the
    preference is one HARA branch, and the affine substitution keeps the
    template.  Raises NotPhara on a payoff piece that is not linear, or when
    the rebuilt branches fail to reproduce the pointwise composition,
    OutOfDomain when the payoff's floor value lies below the preference's a0,
    and IllegalCase naming a cell whose branch is not a valid piece.
    """
    for k, piece in enumerate(payoff.pieces):
        if piece.R != 0.0:
            raise NotPhara(f"payoff piece {k} on [{piece.a_lo}, {piece.a_hi}) is not linear")
    first = payoff.pieces[0]
    if (len(payoff.pieces) == 1 and first.anchor_slope == 1.0
            and first.value_lo == payoff.a0 == preference.a0):
        return preference  # the identity payoff on the preference's domain
    if first.value_lo < preference.a0:
        raise OutOfDomain(f"payoff floor value {first.value_lo} below preference domain")

    kink_values = preference.partition[1:-1].tolist()
    pieces: list[PharaPiece] = []
    for lo, hi, v_lo, s in ((p.a_lo, p.a_hi, p.value_lo, p.anchor_slope)
                            for p in payoff.pieces):
        cuts = [lo]
        if s > 0.0:
            for kv in kink_values:
                x_pre = lo + (kv - v_lo) / s
                if lo < x_pre < hi:
                    cuts.append(x_pre)
        cuts.append(hi)
        cuts.sort()
        for c_lo, c_hi in zip(cuts, cuts[1:]):
            try:  # e.g. an exponential branch whose slope underflows on the cell
                pieces.append(_composed_piece(preference, c_lo, c_hi, lo, v_lo, s))
            except IllegalCase as exc:
                raise IllegalCase(f"composed cell [{c_lo}, {c_hi}), payoff value "
                                  f"{v_lo + s * (c_lo - lo)} at its left end: {exc}") from None

    utility = PharaUtility(a0=payoff.a0, pieces=tuple(pieces))
    _verify_composition(utility, preference, payoff)
    return utility


def _composed_piece(preference: PharaUtility, lo, hi, seg_lo, seg_v, s) -> PharaPiece:
    """preference(seg_v + s (x - seg_lo)) on [lo, hi) as one HARA branch.

    The preference's branch under the cell's midpoint, with benchmark and
    absolute risk aversion mapped through the affine payoff, anchored with
    that branch's own value and slope; an exponential branch's home is the
    preimage of its anchor.
    """
    def theta(x):
        return seg_v + s * (x - seg_lo)

    x_mid = lo + 0.5 if hi == INF else 0.5 * (lo + hi)
    branch = preference.pieces[int(preference._piece_index(theta(x_mid)))]
    if s == 0.0:
        u = branch.value(seg_v)
        if not np.isfinite(u):
            raise NotPhara(f"flat payoff value {seg_v} maps outside the preference")
        return PharaPiece(a_lo=lo, a_hi=hi, R=0.0, anchor_x=lo,
                          anchor_u=u, anchor_slope=0.0)

    A = seg_lo + (branch.A - seg_v) / s
    alpha = None if branch.alpha is None else branch.alpha * s
    x_hat = _anchor(lo, hi, branch.R, A, seg_lo + (branch.anchor_x - seg_v) / s)
    # power or log: the argument that the rounded A gives x_hat, theta(x_hat) + O(s ulp(A))
    w_hat = branch.A + s * (x_hat - A) if 0.0 < branch.R < INF else theta(x_hat)
    return PharaPiece(a_lo=lo, a_hi=hi, R=branch.R, anchor_x=x_hat,
                      anchor_u=branch.value(w_hat),
                      anchor_slope=branch.slope(w_hat) * s,
                      A=A, alpha=alpha)


def _verify_composition(utility: PharaUtility, preference: PharaUtility, payoff):
    """Each cell's branch against the preference at the payoff, by :func:`same_value`."""
    for piece in utility.pieces:
        hi = piece.a_hi if np.isfinite(piece.a_hi) else piece.a_lo + 10.0
        xs = piece.a_lo + (hi - piece.a_lo) * np.array([0.13, 0.41, 0.67, 0.93])
        for x, w in zip(xs, payoff.value(xs).tolist()):
            branch = preference.pieces[preference._piece_index(w)]
            direct, built = preference.value(w), piece.value(x)
            rounding = piece.rounding(x) + branch.rounding(w)
            if not (np.isfinite(built) and same_value(built, direct, rounding)):
                raise NotPhara(f"cell [{piece.a_lo}, {piece.a_hi}) does not reduce to "
                               f"HARA form (gap {built - direct:.3e} at x={x})")


# ---------------------------------------------------------------------------
# Contract builders
# ---------------------------------------------------------------------------


def participating_contract_payoff(guarantee: float, wealth_share: float,
                                  bonus_share: float) -> PharaUtility:
    """Issuer's payoff under a participating contract with a minimum guarantee.

    Zero below the guarantee level, full upside between the guarantee and
    guarantee/wealth_share, and a reduced participation above that.
    """
    if not wealth_share > 0.0:
        raise IllegalCase(f"wealth_share must be positive, got {wealth_share}")
    L = guarantee
    return piecewise_linear_payoff(0.0, 0.0, (L, L / wealth_share),
                                   (0.0, 1.0, 1.0 - bonus_share * wealth_share))


def participating_contract_utility(gamma: float, wealth_share: float,
                                   bonus_share: float,
                                   guarantee: float) -> PharaUtility:
    """Power-preference issuer facing the participating contract payoff."""
    payoff = participating_contract_payoff(guarantee, wealth_share, bonus_share)
    return compose(s_shaped_utility(reference=0.0, gain_exponent=gamma,
                                    a0=payoff.pieces[0].value_lo), payoff)


def hedge_fund_payoff(omega: float, mgmt_fee: float, incentive: float,
                      floor_mult: float, benchmark_mult: float,
                      x0: float, r: float, T: float) -> PharaUtility:
    """Manager's stake: ownership + management fee + incentive above benchmark.

    The fund is liquidated at floor_mult * x0 * e^{rT}; the incentive kicks
    in at benchmark_mult * x0 * e^{rT}.
    """
    if not r * T <= _LOG_MAX:  # e^(rT) finite, as build_market asks
        raise IllegalCase(f"r T must be at most {_LOG_MAX:.6g}, got r={r}, T={T}")
    floor = floor_mult * x0 * math.exp(r * T)
    benchmark = benchmark_mult * x0 * math.exp(r * T)
    if floor >= benchmark:
        raise IllegalCase("liquidation floor must sit below the benchmark")
    base = omega + mgmt_fee * (1.0 - omega)
    return piecewise_linear_payoff(floor, base * floor, (benchmark,),
                                   (base, base + incentive * (1.0 - omega)))


def hedge_fund_utility(preference: PharaUtility, omega: float, mgmt_fee: float,
                       incentive: float, floor_mult: float,
                       benchmark_mult: float, x0: float, r: float,
                       T: float) -> PharaUtility:
    return compose(preference, hedge_fund_payoff(
        omega, mgmt_fee, incentive, floor_mult, benchmark_mult, x0, r, T))
