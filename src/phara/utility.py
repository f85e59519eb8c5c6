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

import numpy as np

from .errors import AtKink, IllegalCase, NotPhara, OutOfDomain

INF = float("inf")
NEG_INF = float("-inf")

_CONTINUITY_TOL = 1e-9
_VERIFY_TOL = 1e-10


def _anchor(lo: float, hi: float, R: float, A: float) -> float:
    """Finite anchor in [lo, hi] where a branch's slope is finite.

    The anchor is ``lo`` unless a power or log branch has its benchmark
    there (the slope blows up at A); then it is ``hi``, or a point above A
    when the cell is unbounded.
    """
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
            if not self.anchor_slope >= 0.0:
                raise IllegalCase("linear piece needs slope >= 0")
            return
        if not self.anchor_slope > 0.0:
            raise IllegalCase("non-linear piece needs a positive anchor slope")
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
        x = _anchor(lo, hi, self.R, self.A)
        return replace(self, a_lo=lo, a_hi=hi, anchor_x=x,
                       anchor_u=float(self.value(x)),
                       anchor_slope=float(self.slope(x)))

    def slope_inverse(self, s: float) -> float:
        """x with slope(x) = s; only for strictly monotone-slope pieces."""
        if self.R == 0.0:
            raise IllegalCase("linear piece has no slope inverse")
        if self.R == INF:
            return self.anchor_x - math.log(s / self.anchor_slope) / self.alpha
        return self.A + (self.anchor_x - self.A) * (s / self.anchor_slope) ** (-1.0 / self.R)

    # -- one-sided limits ---------------------------------------------------

    @property
    def value_lo(self) -> float:
        return float(self.value(self.a_lo))

    @property
    def value_hi(self) -> float:
        return float(self.value(self.a_hi))

    @property
    def slope_lo(self) -> float:
        return float(self.slope(self.a_lo))

    @property
    def slope_hi(self) -> float:
        return float(self.slope(self.a_hi))

    @property
    def curvature(self) -> str:
        """'concave', 'convex', or 'linear' on the open cell."""
        if self.R == 0.0:
            return "linear"
        if self.R == INF:
            return "concave"
        return "concave" if self.A <= self.a_lo else "convex"

    @property
    def is_flat(self) -> bool:
        return self.R == 0.0 and self.anchor_slope == 0.0

    def shift_scale(self, a: float, b: float) -> "PharaPiece":
        return replace(self, anchor_u=a * self.anchor_u + b,
                       anchor_slope=a * self.anchor_slope)


@dataclass(frozen=True)
class PharaUtility:
    """Increasing, upper-semicontinuous piecewise-HARA utility on [a0, inf)."""

    a0: float
    pieces: tuple[PharaPiece, ...]
    a0_included: bool = True

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
            lv, rv = left.value_hi, right.value_lo
            if not (np.isfinite(lv) and np.isfinite(rv)):
                raise IllegalCase("interior junction values must be finite")
            scale = max(1.0, abs(lv), abs(rv))
            if rv < lv - _CONTINUITY_TOL * scale:
                raise IllegalCase(
                    f"utility decreases across the junction at {right.a_lo}: "
                    f"{lv} -> {rv}"
                )
        last = self.pieces[-1]
        if last.R != 0.0 and last.curvature == "convex":
            raise IllegalCase("unbounded piece cannot be convex")

    # -- structure ----------------------------------------------------------

    @property
    def n_pieces(self) -> int:
        return len(self.pieces)

    @property
    def partition(self) -> np.ndarray:
        """Array [a_0, a_1, ..., a_n, inf] of length n_pieces + 1."""
        return np.array([p.a_lo for p in self.pieces] + [INF])

    @property
    def interior_points(self) -> np.ndarray:
        return np.array([p.a_lo for p in self.pieces[1:]])

    @property
    def value_at_a0(self) -> float:
        return self.pieces[0].value_lo if self.a0_included else NEG_INF

    def gamma_plus(self, k: int) -> float:
        """Right slope at a_k, k = 0..n."""
        return self.pieces[k].slope_lo

    def gamma_minus(self, k: int) -> float:
        """Left slope at a_k, k = 0..n+1; inf at a_0 by convention."""
        if k == 0:
            return INF
        return self.pieces[k - 1].slope_hi

    def junctions(self):
        """(a_k, left value, right value, left slope, right slope), k=1..n."""
        out = []
        for left, right in zip(self.pieces, self.pieces[1:]):
            out.append((right.a_lo, left.value_hi, right.value_lo,
                        left.slope_hi, right.slope_lo))
        return out

    def kinks(self, rel_tol: float = 1e-9) -> list[float]:
        """Domain floor plus interior points where the slope jumps."""
        out = [self.a0]
        for a_k, _, _, s_minus, s_plus in self.junctions():
            if math.isinf(s_minus) or math.isinf(s_plus):
                if math.isinf(s_minus) != math.isinf(s_plus):
                    out.append(a_k)
                continue
            if abs(s_minus - s_plus) > rel_tol * max(s_minus, s_plus, 1e-300):
                out.append(a_k)
        return out

    # -- evaluation ----------------------------------------------------------

    def _piece_index(self, x: np.ndarray) -> np.ndarray:
        # x == a_k belongs to the right piece (value there is the upper limit)
        return np.searchsorted(self.interior_points, x, side="right")

    def value(self, x):
        """U(x); upper-semicontinuous choice (max of one-sided limits) at kinks."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if np.any(x < self.a0) or (not self.a0_included and np.any(x == self.a0)):
            raise OutOfDomain(f"domain starts at {self.a0}")
        out = np.empty_like(x)
        idx = self._piece_index(x)
        for k, piece in enumerate(self.pieces):
            mask = idx == k
            if np.any(mask):
                out[mask] = piece.value(x[mask])
        return float(out[0]) if scalar else out

    def __call__(self, x):
        return self.value(x)

    def deriv(self, x: float, side: str = "right") -> float:
        """One-sided derivative; side in {'left', 'right'}."""
        if side not in ("left", "right"):
            raise IllegalCase(f"side must be 'left' or 'right', got {side!r}")
        if x < self.a0 or (not self.a0_included and x == self.a0):
            raise OutOfDomain(f"domain starts at {self.a0}")
        if x == self.a0 and side == "left":
            return INF
        # at a_k the left side reads piece k-1 and the right side piece k
        k = int(np.searchsorted(self.interior_points, x, side=side))
        return float(self.pieces[k].slope(x))

    def ara(self, x: float) -> float:
        """Absolute risk aversion -U''/U' = R/(x - A) at an interior point."""
        if x < self.a0 or (not self.a0_included and x == self.a0):
            raise OutOfDomain(f"domain starts at {self.a0}")
        if x == self.a0 or np.any(self.interior_points == x):
            raise AtKink(f"x={x} is a partition point")
        piece = self.pieces[int(self._piece_index(x))]
        if piece.R == 0.0:
            return 0.0
        if piece.R == INF:
            return piece.alpha
        return piece.R / (x - piece.A)

    def scale_shift(self, a_scale: float, b_shift: float) -> "PharaUtility":
        """Affine image a*U + b (a > 0): same partition, scaled slopes."""
        if a_scale <= 0.0:
            raise IllegalCase(f"scale must be positive, got {a_scale}")
        return PharaUtility(
            a0=self.a0,
            pieces=tuple(p.shift_scale(a_scale, b_shift) for p in self.pieces),
            a0_included=self.a0_included,
        )


def crra_utility(R: float, a0: float = 0.0) -> PharaUtility:
    """Pure power/log utility on (a0, inf) with benchmark a0 and U'(x)=(x-a0)^-R."""
    u = 0.0 if R == 1.0 else 1.0 / (1.0 - R)
    piece = PharaPiece(a_lo=a0, a_hi=INF, R=R, A=a0, anchor_x=a0 + 1.0,
                       anchor_u=u, anchor_slope=1.0)
    return PharaUtility(a0=a0, pieces=(piece,), a0_included=False)


def cara_utility(alpha: float, a0: float = -200.0) -> PharaUtility:
    """Exponential utility -exp(-alpha x)/alpha, truncated far below zero."""
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
    pieces = []
    if a0 < reference:
        d = reference - a0
        pieces.append(PharaPiece(a_lo=a0, a_hi=reference, R=1.0 - q, A=reference,
                                 anchor_x=a0, anchor_u=-loss_weight * d ** q,
                                 anchor_slope=loss_weight * q * d ** (q - 1.0)))
    lo = max(a0, reference)
    x = _anchor(lo, INF, 1.0 - gain_exponent, reference)
    d = x - reference
    pieces.append(PharaPiece(a_lo=lo, a_hi=INF, R=1.0 - gain_exponent, A=reference,
                             anchor_x=x, anchor_u=d ** gain_exponent,
                             anchor_slope=gain_exponent * d ** (gain_exponent - 1.0)))
    return PharaUtility(a0=a0, pieces=tuple(pieces))


# ---------------------------------------------------------------------------
# Payoffs and composition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseLinearPayoff:
    """Continuous increasing piecewise-linear payoff above a liquidation floor.

    Segments are [domain_lo, b_1), [b_1, b_2), ..., [b_K, inf) with one
    nonnegative slope each; the payoff value at the floor is ``value_lo``.
    """

    domain_lo: float
    value_lo: float
    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.size and (np.any(np.diff(bp) <= 0.0) or bp[0] <= self.domain_lo):
            raise IllegalCase("breakpoints must increase strictly above the floor")
        if len(self.slopes) != len(self.breakpoints) + 1:
            raise IllegalCase(
                f"need {len(self.breakpoints) + 1} slopes, got {len(self.slopes)}"
            )
        if any(s < 0.0 for s in self.slopes):
            raise IllegalCase("payoff slopes must be nonnegative")

    @classmethod
    def identity(cls, domain_lo: float = 0.0) -> "PiecewiseLinearPayoff":
        return cls(domain_lo=domain_lo, value_lo=domain_lo, breakpoints=(), slopes=(1.0,))

    @property
    def values(self) -> tuple[float, ...]:
        """Payoff value at each breakpoint (continuity makes them derived)."""
        out, v, lo = [], self.value_lo, self.domain_lo
        for b, s in zip(self.breakpoints, self.slopes):
            v += s * (b - lo)
            out.append(v)
            lo = b
        return tuple(out)

    def segments(self):
        """(lo, hi, value at lo, slope) per linear cell, last hi = inf."""
        knots = (self.domain_lo, *self.breakpoints, INF)
        vals = (self.value_lo, *self.values)
        return [(knots[i], knots[i + 1], vals[i], self.slopes[i])
                for i in range(len(self.slopes))]

    def value(self, x):
        x = np.asarray(x, dtype=float)
        bp = np.asarray(self.breakpoints)
        vals = np.array((self.value_lo, *self.values))
        lows = np.array((self.domain_lo, *self.breakpoints))
        idx = np.searchsorted(bp, x, side="right")
        out = vals[idx] + np.asarray(self.slopes)[idx] * (x - lows[idx])
        return float(out) if out.ndim == 0 else out


def compose(preference: PharaUtility, payoff: PiecewiseLinearPayoff) -> PharaUtility:
    """Utility of a payoff: U = preference o payoff, returned in PHARA form.

    The partition is the payoff's breakpoints together with preimages of the
    preference's interior points; on each resulting cell the payoff is affine
    and the preference is one HARA branch, and the affine substitution keeps
    the template.  Raises OutOfDomain when the payoff's floor value lies
    outside the preference's domain, and NotPhara when the rebuilt branches
    fail to reproduce the pointwise composition.
    """
    if (not payoff.breakpoints and payoff.slopes == (1.0,)
            and payoff.value_lo == payoff.domain_lo == preference.a0):
        return preference  # the identity payoff on the preference's domain
    lo_val = payoff.value_lo
    if lo_val < preference.a0 or (lo_val == preference.a0
                                  and not preference.a0_included):
        raise OutOfDomain(f"payoff floor value {lo_val} below preference domain")

    kink_values = preference.interior_points.tolist()
    pieces: list[PharaPiece] = []
    for lo, hi, v_lo, s in payoff.segments():
        cuts = [lo]
        if s > 0.0:
            for kv in kink_values:
                x_pre = lo + (kv - v_lo) / s
                if lo < x_pre < hi:
                    cuts.append(x_pre)
        cuts.append(hi)
        cuts.sort()
        for c_lo, c_hi in zip(cuts, cuts[1:]):
            pieces.append(_composed_piece(preference, c_lo, c_hi, lo, v_lo, s))

    utility = PharaUtility(a0=payoff.domain_lo, pieces=tuple(pieces),
                           a0_included=True)
    _verify_composition(utility, preference.value, payoff)
    return utility


def _composed_piece(preference: PharaUtility, lo, hi, seg_lo, seg_v, s) -> PharaPiece:
    """preference(seg_v + s (x - seg_lo)) on [lo, hi) as one HARA branch.

    The preference's branch under the cell's midpoint, with benchmark and
    absolute risk aversion mapped through the affine payoff, anchored with
    that branch's own value and slope.
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
    x_hat = _anchor(lo, hi, branch.R, A)
    w_hat = theta(x_hat)
    return PharaPiece(a_lo=lo, a_hi=hi, R=branch.R, anchor_x=x_hat,
                      anchor_u=branch.value(w_hat),
                      anchor_slope=branch.slope(w_hat) * s,
                      A=A, alpha=alpha)


def _verify_composition(utility: PharaUtility, pref_value, payoff):
    for piece in utility.pieces:
        hi = piece.a_hi if np.isfinite(piece.a_hi) else piece.a_lo + 10.0
        probes = piece.a_lo + (hi - piece.a_lo) * np.array([0.13, 0.41, 0.67, 0.93])
        for x in probes:
            direct = pref_value(float(payoff.value(x)))
            built = piece.value(x)
            scale = max(1.0, abs(direct))
            if not np.isfinite(built) or abs(built - direct) > _VERIFY_TOL * scale:
                raise NotPhara(
                    f"cell [{piece.a_lo}, {piece.a_hi}) does not reduce to "
                    f"HARA form (gap {built - direct:.3e} at x={x})"
                )


# ---------------------------------------------------------------------------
# Contract builders
# ---------------------------------------------------------------------------


def participating_contract_payoff(guarantee: float, wealth_share: float,
                                  bonus_share: float) -> PiecewiseLinearPayoff:
    """Issuer's payoff under a participating contract with a minimum guarantee.

    Zero below the guarantee level, full upside between the guarantee and
    guarantee/wealth_share, and a reduced participation above that.
    """
    L = guarantee
    hi_slope = 1.0 - bonus_share * wealth_share
    return PiecewiseLinearPayoff(
        domain_lo=0.0, value_lo=0.0,
        breakpoints=(L, L / wealth_share),
        slopes=(0.0, 1.0, hi_slope),
    )


def participating_contract_utility(gamma: float, wealth_share: float,
                                   bonus_share: float,
                                   guarantee: float) -> PharaUtility:
    """Power-preference issuer facing the participating contract payoff."""
    payoff = participating_contract_payoff(guarantee, wealth_share, bonus_share)
    return compose(s_shaped_utility(reference=0.0, gain_exponent=gamma,
                                    a0=payoff.value_lo), payoff)


def hedge_fund_payoff(omega: float, mgmt_fee: float, incentive: float,
                      floor_mult: float, benchmark_mult: float,
                      x0: float, r: float, T: float) -> PiecewiseLinearPayoff:
    """Manager's stake: ownership + management fee + incentive above benchmark.

    The fund is liquidated at floor_mult * x0 * e^{rT}; the incentive kicks
    in at benchmark_mult * x0 * e^{rT}.
    """
    floor = floor_mult * x0 * math.exp(r * T)
    benchmark = benchmark_mult * x0 * math.exp(r * T)
    if floor >= benchmark:
        raise IllegalCase("liquidation floor must sit below the benchmark")
    base = omega + mgmt_fee * (1.0 - omega)
    return PiecewiseLinearPayoff(
        domain_lo=floor, value_lo=base * floor,
        breakpoints=(benchmark,),
        slopes=(base, base + incentive * (1.0 - omega)),
    )


def hedge_fund_utility(preference: PharaUtility, omega: float, mgmt_fee: float,
                       incentive: float, floor_mult: float,
                       benchmark_mult: float, x0: float, r: float,
                       T: float) -> PharaUtility:
    return compose(preference, hedge_fund_payoff(
        omega, mgmt_fee, incentive, floor_mult, benchmark_mult, x0, r, T))
