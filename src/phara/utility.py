"""Piecewise-HARA utilities: template, pieces, evaluation, composition.

A utility is a partition ``a0 = a_0 < a_1 < ... < a_{n+1} = inf`` together
with one HARA branch per cell.  Each branch is one of four closed forms
(linear, log, power, exponential) pinned down by a relative risk aversion
``R`` in [0, inf], a benchmark level ``A``, and the value/slope at a finite
anchor point.  Raw utilities may be non-concave: convex power branches
(benchmark above the cell) and flat segments are admitted so that payoff
compositions can be represented before concavification.
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


def eval_template(R: float, A: float, x_hat: float, u: float, gamma: float,
                  alpha: float | None, x):
    """Evaluate the four-case HARA template at x.

    Cases: R = 0 linear; R = 1 log; R in (0,1)u(1,inf) power; R = inf
    exponential (requires A = -inf and alpha > 0).  The template is anchored:
    it returns ``u`` at ``x = x_hat`` and has slope ``gamma`` there.
    """
    _check_template_args(R, A, x_hat, u, gamma, alpha)
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if R == 0.0:
            out = gamma * (x - x_hat) + u
        elif R == INF:
            out = -(gamma / alpha) * (np.exp(-alpha * (x - x_hat)) - 1.0) + u
        elif R == 1.0:
            out = gamma * (x_hat - A) * np.log((x - A) / (x_hat - A)) + u
        else:
            ratio = (x - A) / (x_hat - A)
            out = gamma * (x_hat - A) / (1.0 - R) * (ratio ** (1.0 - R) - 1.0) + u
    return float(out) if out.ndim == 0 else out


def eval_template_deriv(R: float, A: float, x_hat: float, u: float,
                        gamma: float, alpha: float | None, x):
    """Derivative of :func:`eval_template` with respect to x."""
    _check_template_args(R, A, x_hat, u, gamma, alpha)
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if R == 0.0:
            out = np.full_like(x, gamma)
        elif R == INF:
            out = gamma * np.exp(-alpha * (x - x_hat))
        else:
            out = gamma * ((x - A) / (x_hat - A)) ** (-R)
    return float(out) if out.ndim == 0 else out


def _check_template_args(R, A, x_hat, u, gamma, alpha):
    if not (R >= 0.0):
        raise IllegalCase(f"risk aversion R must be >= 0, got {R}")
    if R == INF:
        if A != NEG_INF:
            raise IllegalCase("exponential case needs A = -inf")
        if alpha is None or not (0.0 < alpha < INF):
            raise IllegalCase(f"exponential case needs alpha in (0, inf), got {alpha}")
    elif R > 0.0:
        if not np.isfinite(A):
            raise IllegalCase("power/log case needs a finite benchmark A")
        if x_hat == A:
            raise IllegalCase("anchor point must differ from the benchmark A")
    if not np.isfinite(x_hat) or not np.isfinite(u):
        raise IllegalCase("anchor point and value must be finite")
    if gamma < 0.0 or (gamma == 0.0 and R != 0.0):
        raise IllegalCase(f"slope must be positive (0 only on flat pieces), got {gamma}")


@dataclass(frozen=True)
class PharaPiece:
    """One HARA branch of a piecewise utility on [a_lo, a_hi).

    The branch is stored in anchored form: value ``anchor_u`` and slope
    ``anchor_slope`` at the finite point ``anchor_x`` in [a_lo, a_hi].  The
    anchor is normally a_lo; it moves to the other end when the benchmark
    coincides with a_lo (slope blows up there).
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
        if self.R == 0.0:
            if self.anchor_slope < 0.0:
                raise IllegalCase("linear piece needs slope >= 0")
            return
        if self.anchor_slope <= 0.0:
            raise IllegalCase("non-linear piece needs a positive anchor slope")
        if self.R == INF:
            _check_template_args(self.R, self.A, self.anchor_x, self.anchor_u,
                                 self.anchor_slope, self.alpha)
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
        return eval_template(self.R, self.A, self.anchor_x, self.anchor_u,
                             self.anchor_slope, self.alpha, x)

    def slope(self, x):
        return eval_template_deriv(self.R, self.A, self.anchor_x, self.anchor_u,
                                   self.anchor_slope, self.alpha, x)

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
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        if x < self.a0 or (not self.a0_included and x == self.a0):
            raise OutOfDomain(f"domain starts at {self.a0}")
        if x == self.a0 and side == "left":
            return INF
        pts = self.interior_points
        if side == "right":
            k = int(np.searchsorted(pts, x, side="right"))
            return float(self.pieces[k].slope(x))
        k = int(np.searchsorted(pts, x, side="left"))
        return float(self.pieces[k].slope(x))

    def ara(self, x: float) -> float:
        """Absolute risk aversion -U''/U' = R/(x - A) at an interior point."""
        if x < self.a0 or (not self.a0_included and x == self.a0):
            raise OutOfDomain(f"domain starts at {self.a0}")
        if x == self.a0 or np.any(self.interior_points == x):
            raise AtKink(f"x={x} is a partition point")
        piece = self.pieces[int(np.searchsorted(self.interior_points, x, side="right"))]
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


def single_piece_utility(R: float, A: float, a0: float, anchor_x: float,
                         anchor_u: float, anchor_slope: float,
                         alpha: float | None = None,
                         a0_included: bool = True) -> PharaUtility:
    """Convenience constructor for a one-piece (globally HARA) utility."""
    piece = PharaPiece(a_lo=a0, a_hi=INF, R=R, anchor_x=anchor_x,
                       anchor_u=anchor_u, anchor_slope=anchor_slope,
                       A=A, alpha=alpha)
    return PharaUtility(a0=a0, pieces=(piece,), a0_included=a0_included)


def crra_utility(R: float, a0: float = 0.0) -> PharaUtility:
    """Pure power/log utility on (a0, inf) with benchmark a0 and U'(x)=(x-a0)^-R."""
    anchor = a0 + 1.0
    u = 0.0 if R == 1.0 else 1.0 / (1.0 - R)
    return single_piece_utility(R=R, A=a0, a0=a0, anchor_x=anchor, anchor_u=u,
                                anchor_slope=1.0, a0_included=False)


def cara_utility(alpha: float, a0: float = -200.0) -> PharaUtility:
    """Exponential utility -exp(-alpha x)/alpha, truncated far below zero."""
    return single_piece_utility(
        R=INF, A=NEG_INF, a0=a0, anchor_x=0.0,
        anchor_u=-1.0 / alpha, anchor_slope=1.0, alpha=alpha,
    )


# ---------------------------------------------------------------------------
# Preferences and payoffs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SShapedPreference:
    """Two signed power branches around a reference point.

    gains:  (w - reference)^gain_exponent          for w >= reference
    losses: -loss_weight (reference - w)^loss_exponent  for w < reference
    """

    reference: float
    gain_exponent: float
    loss_exponent: float | None = None
    loss_weight: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gain_exponent < 1.0:
            raise IllegalCase("gain exponent must be in (0, 1)")
        q = self.loss_exponent
        if q is not None and not 0.0 < q < 1.0:
            raise IllegalCase("loss exponent must be in (0, 1)")
        if self.loss_weight <= 0.0:
            raise IllegalCase("loss weight must be positive")

    @property
    def _loss_exp(self) -> float:
        return self.gain_exponent if self.loss_exponent is None else self.loss_exponent

    def value(self, w: float) -> float:
        if w >= self.reference:
            return (w - self.reference) ** self.gain_exponent
        return -self.loss_weight * (self.reference - w) ** self._loss_exp

    def slope(self, w: float) -> float:
        if w == self.reference:
            return INF
        if w > self.reference:
            g = self.gain_exponent
            return g * (w - self.reference) ** (g - 1.0)
        q = self._loss_exp
        return self.loss_weight * q * (self.reference - w) ** (q - 1.0)


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
    def is_identity(self) -> bool:
        return (not self.breakpoints and self.slopes == (1.0,)
                and self.value_lo == self.domain_lo)

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


def _choose_anchor(lo: float, hi: float, A: float, concave: bool) -> float:
    """Finite anchor inside [lo, hi] keeping the slope finite."""
    if concave:
        if lo > A:
            return lo
        return hi if np.isfinite(hi) else A + max(1.0, abs(A))
    # convex: benchmark at or above hi, anchor below it
    return lo


def _preference_pieces(preference):
    """(kink points, piece lookup by value) for either preference kind."""
    if isinstance(preference, SShapedPreference):
        return [preference.reference]
    return [float(a) for a in preference.interior_points]


def compose(preference, payoff: PiecewiseLinearPayoff) -> PharaUtility:
    """Utility of a payoff: U = preference o payoff, returned in PHARA form.

    The partition is the payoff's breakpoints together with preimages of the
    preference's kink points; each resulting cell is a single HARA branch
    (affine substitution preserves the template).  Raises NotPhara when the
    rebuilt branches fail to reproduce the pointwise composition.
    """
    if isinstance(preference, PharaUtility) and payoff.is_identity:
        if payoff.domain_lo <= preference.a0:
            return preference

    if isinstance(preference, SShapedPreference):
        pref_value, pref_slope = preference.value, preference.slope
    else:
        lo_val = payoff.value_lo
        if lo_val < preference.a0 or (lo_val == preference.a0
                                      and not preference.a0_included):
            raise OutOfDomain(
                f"payoff floor value {lo_val} below preference domain"
            )
        pref_value = lambda w: preference.value(w)  # noqa: E731
        pref_slope = lambda w: preference.deriv(w, "right")  # noqa: E731

    kink_values = _preference_pieces(preference)

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
            pieces.append(_composed_piece(preference, pref_value, pref_slope,
                                          c_lo, c_hi, lo, v_lo, s))

    utility = PharaUtility(a0=payoff.domain_lo, pieces=tuple(pieces),
                           a0_included=True)
    _verify_composition(utility, pref_value, payoff)
    return utility


def _composed_piece(preference, pref_value, pref_slope, lo, hi,
                    seg_lo, seg_v, s) -> PharaPiece:
    """One HARA branch of preference(payoff(x)) on [lo, hi)."""
    if s == 0.0:
        u = pref_value(seg_v)
        if not np.isfinite(u):
            raise NotPhara(f"flat payoff value {seg_v} maps outside the preference")
        return PharaPiece(a_lo=lo, a_hi=hi, R=0.0, anchor_x=lo,
                          anchor_u=u, anchor_slope=0.0)

    def theta(x):
        return seg_v + s * (x - seg_lo)

    x_mid = lo + 0.5 if hi == INF else 0.5 * (lo + hi)
    mid_w = theta(x_mid)

    if isinstance(preference, SShapedPreference):
        x_ref = seg_lo + (preference.reference - seg_v) / s
        if mid_w >= preference.reference:
            R, A = 1.0 - preference.gain_exponent, x_ref
            concave = True
        else:
            R, A = 1.0 - preference._loss_exp, x_ref
            concave = False
        alpha = None
    else:
        k = int(np.searchsorted(preference.interior_points, mid_w, side="right"))
        branch = preference.pieces[k]
        R = branch.R
        if R == INF:
            A, alpha, concave = NEG_INF, branch.alpha * s, True
        elif R == 0.0:
            A, alpha, concave = NEG_INF, None, True
        else:
            A = seg_lo + (branch.A - seg_v) / s
            alpha = None
            concave = branch.curvature == "concave"

    if R == 0.0:
        x_hat = lo
    else:
        x_hat = _choose_anchor(lo, hi, A, concave) if R != INF else lo
    w_hat = theta(x_hat)
    return PharaPiece(a_lo=lo, a_hi=hi, R=R, anchor_x=x_hat,
                      anchor_u=pref_value(w_hat),
                      anchor_slope=pref_slope(w_hat) * s,
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
    pref = SShapedPreference(reference=0.0, gain_exponent=gamma)
    return compose(pref, participating_contract_payoff(
        guarantee, wealth_share, bonus_share))


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


def hedge_fund_utility(preference, omega: float, mgmt_fee: float,
                       incentive: float, floor_mult: float,
                       benchmark_mult: float, x0: float, r: float,
                       T: float) -> PharaUtility:
    return compose(preference, hedge_fund_payoff(
        omega, mgmt_fee, incentive, floor_mult, benchmark_mult, x0, r, T))
