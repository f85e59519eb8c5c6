"""Concave envelopes of piecewise-HARA utilities.

The exact construction sweeps the pieces left to right, keeping the hull as
a list of ``PharaPiece``s whose slopes decrease: a kept fragment is an input
piece cut to its hull extent, and a bridging chord is a linear piece.
Whenever an incoming fragment or junction point breaks concavity, one
routine, ``_Sweep._bridge``, finds the bridging chord for either object by
a one-dimensional root-find in the supporting-slope variable: the hull and
the incoming object each have a closed-form support line and contact point
for every slope s, and the difference of their intercepts is strictly
increasing in s, so the common tangent is a root bracketed by one geometric
search, found by the solver's Newton-bisection step in log s, and the hull
is cut there.  One contact rule, ``PharaPiece.contact``, places every support
line, hull contact and arc cut; one walk finds the hull's slope-s contact, for
both the support query and the truncation of the hull at the new chord.
Convex and flat stretches of the input are always swallowed.  The chord
anatomy (chords and tangency points) is read off the finished envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoConvergence, UnboundedEnvelope
from .solver import _MAX_EXPAND, _newton_root
from .utility import INF, PharaPiece, PharaUtility, same_slope, same_value


@dataclass(frozen=True)
class EnvelopeResult:
    """Concave envelope of a piecewise-HARA utility, with its chord anatomy.

    ``chords`` lists every linear interval of the envelope (bridging chords
    and surviving linear pieces of the input) as (x_left, x_right, slope);
    off them the envelope is the input.  ``tangency_points`` are chord
    endpoints where the envelope is differentiable; its kinks are
    ``envelope.kinks()``.
    """

    envelope: PharaUtility
    chords: tuple[tuple[float, float, float], ...]
    tangency_points: tuple[float, ...]


def _support(piece: PharaPiece, s: float) -> tuple[float, float]:
    """Intercept and contact point of the slope-s line supporting a concave
    curved piece from above, the contact by :meth:`PharaPiece.contact`."""
    x = piece.contact(s)
    return float(piece.value(x)) - s * x, x


def _geometric(gap, s: float, factor: float, fault: str) -> tuple[float, float]:
    """First (s, gap(s)) of s, s factor, s factor^2, ... (_MAX_EXPAND tries) where
    the increasing gap has crossed zero: a search up (factor > 1) stops at a
    positive gap, a search down at a negative one.  Raises NoConvergence(fault)."""
    for _ in range(_MAX_EXPAND):
        g = gap(s)
        if g * (factor - 1.0) > 0.0:
            return s, g
        s *= factor
    raise NoConvergence(fault)


def _short(lo: float, hi: float) -> bool:
    """The stretch [lo, hi] is too short to keep: at most 1e-15 max(1, |lo|)."""
    return hi - lo <= 1e-15 * max(1.0, abs(lo))


class _Sweep:
    def __init__(self, utility: PharaUtility):
        self.utility = utility
        v0 = utility.pieces[0].value_lo
        self.anchor = (utility.a0, v0) if np.isfinite(v0) else None
        self.hull: list[PharaPiece] = []

    # -- hull queries --------------------------------------------------------

    def right_end(self):
        if self.hull:
            top = self.hull[-1]
            return top.a_hi, top.value_hi, top.slope_hi
        if self.anchor is not None:
            return self.anchor[0], self.anchor[1], INF
        return None

    def _contact(self, s: float) -> tuple[int, float, float]:
        """(k, x, v): the slope-s line supporting the hull touches hull[k] at
        (x, v) and lies above every piece right of it; k = -1 is the anchor."""
        for k in range(len(self.hull) - 1, -1, -1):
            piece = self.hull[k]
            # a tie holds for a curve only: past a line's slope its left end
            # supports, and its right end would lift the intercept off the hull;
            # a right end holds however short the piece, a left end does not
            tie = piece.R != 0.0 and same_slope(s, piece.slope_hi)
            x = piece.a_hi if tie else piece.contact(s)
            if x == piece.a_hi:
                return k, x, piece.value_hi
            if not _short(piece.a_lo, x):
                return k, x, float(piece.value(x))
        if self.anchor is None:
            raise UnboundedEnvelope("support requested left of an open domain")
        return -1, self.anchor[0], self.anchor[1]

    def hull_support(self, s: float) -> tuple[float, float]:
        """(c_H(s), x_H(s)): intercept and contact of the slope-s line
        supporting the hull."""
        _, x, v = self._contact(s)
        return v - s * x, x

    def truncate_at_slope(self, s: float) -> tuple[float, float]:
        """Drop hull mass right of the slope-s support; return the contact."""
        k, x, v = self._contact(s)
        del self.hull[k + 1:]
        if k >= 0 and x < self.hull[k].a_hi:
            self.hull[k] = self.hull[k].restrict(self.hull[k].a_lo, x)
        return x, v

    # -- bridging chords -----------------------------------------------------

    def _bridge(self, support, hint: float, start: float, s_lo=None, what="the point"):
        """Cut the hull at its common tangent with an incoming object whose
        slope-s support line has (intercept, contact) = support(s); return
        the chord's hull contact and slope (x_b, v_b, s*).

        gap(s) = c_H(s) - c_obj(s) increases in s.  The upper bracket is ``hint``
        when gap(hint) >= 0, else a search up from ``start``; the lower one is
        ``s_lo``, else a search down, which fails only when the object ``what``
        rises above the hull by rounding.  None when gap(s_lo) >= 0: the object
        lies under the hull's support lines.  Newton in u = log s runs on
        c_obj - c_H, whose slope -s (x_obj - x_H) comes from the two contacts.
        """
        def gap(s):
            return self.hull_support(s)[0] - support(s)[0]

        if s_lo is not None:
            g_lo = gap(s_lo)
            if g_lo >= 0.0:
                return None
        s_hi, g_hi = hint, (gap(hint) if np.isfinite(hint) else -INF)
        if not g_hi >= 0.0:
            s_hi, g_hi = _geometric(gap, max(start, 1e-300), 4.0,
                                    "no steep supporting slope found")
        if s_lo is None:
            s_lo, g_lo = _geometric(gap, 0.25 * s_hi, 0.25, "no shallow supporting slope "
                                    f"found: {what} rises above the hull by rounding only")

        def support_gap(act, u):
            s = math.exp(u[0])
            c_h, x_h = self.hull_support(s)
            c_obj, x_obj = support(s)
            return np.array([c_obj - c_h]), np.array([-s * (x_obj - x_h)])

        lo, hi = np.array([math.log(s_lo)]), np.array([math.log(s_hi)])
        s_star = math.exp(_newton_root(support_gap, lo, hi, -g_lo, -g_hi)[0])
        c_h, c_obj = self.hull_support(s_star)[0], support(s_star)[0]
        if not same_value(c_h, c_obj):
            raise NoConvergence(f"tangency residual {c_h - c_obj:.3e} at slope {s_star:.3e}")
        return (*self.truncate_at_slope(s_star), s_star)

    # -- attaching objects -----------------------------------------------------

    def attach_point(self, x: float, v: float):
        x_e, v_e, s_e = self.right_end()
        if x > x_e:
            s_c = (v - v_e) / (x - x_e)
            if s_c <= s_e or same_slope(s_c, s_e):
                self._push_chord(x_e, v_e, x, max(s_c, 0.0))
                return
        elif v > v_e and not same_value(v, v_e):
            s_c = INF  # a jump up at the hull's end
        else:
            return
        x_b, v_b, s_star = self._bridge(lambda s: (v - s * x, x), s_c,
                                        s_c if s_c < INF else 1.0)
        self._push_chord(x_b, v_b, x, s_star)

    def _continues(self, piece: PharaPiece) -> bool:
        """True when the piece starts at the hull's right end, not below it
        and no steeper, so that appending it keeps the hull concave."""
        end = self.right_end()
        if end is None:
            return True
        x_e, v_e, s_e = end
        return (x_e == piece.a_lo
                and (v_e <= piece.value_lo or same_value(v_e, piece.value_lo))
                and (piece.slope_lo <= s_e or same_slope(piece.slope_lo, s_e)))

    def attach_arc(self, piece: PharaPiece):
        if self._continues(piece):
            self.hull.append(piece)
            return
        s_in = piece.slope_lo
        if piece.R == 0.0:
            if np.isfinite(piece.a_hi):
                self.attach_point(piece.a_hi, piece.value_hi)
                return
            # unbounded linear tail steeper than the hull: the envelope follows
            # the hull to its slope-s_in support and then runs parallel above it
            x_b, v_b = self.truncate_at_slope(s_in)
            self.hull.append(PharaPiece(a_lo=x_b, a_hi=INF, R=0.0, anchor_x=x_b,
                                        anchor_u=v_b, anchor_slope=s_in))
            return
        # at the arc's steepest slope the hull line is above; shallow supports
        # favour the arc, so a finite arc's flattest slope is the lower
        # bracket, and an unbounded arc, which flattens out to 0, searches one
        s_e = self.right_end()[2]
        bridge = self._bridge(
            lambda s: _support(piece, s), s_in,
            max(s_e if np.isfinite(s_e) else 1.0, piece.slope_hi, 1e-12) * 2.0,
            max(piece.slope_hi, 1e-300) if np.isfinite(piece.a_hi) else None,
            f"the piece on [{piece.a_lo}, inf) with R = {piece.R}")
        if bridge is None:
            # whole arc below the hull fan: only its right endpoint matters
            self.attach_point(piece.a_hi, piece.value_hi)
            return
        x_b, v_b, s_star = bridge
        f = piece.contact(s_star)
        if _short(f, piece.a_hi):
            f = piece.a_hi  # the chord reaches the arc's end: no fragment is kept
        self._push_chord(x_b, v_b, f, s_star)
        f = self.right_end()[0]  # x_b when the chord was too short to keep
        if f < piece.a_hi:
            self.hull.append(piece.restrict(f, piece.a_hi))

    def _push_chord(self, x0: float, v0: float, x1: float, s: float):
        if _short(x0, x1):
            return
        if self.hull and self.hull[-1].R == 0.0 and same_slope(self.hull[-1].anchor_slope, s):
            # collinear tie: merge, junction treated as differentiable
            self.hull[-1] = replace(self.hull[-1], a_hi=x1)
            return
        self.hull.append(PharaPiece(a_lo=x0, a_hi=x1, R=0.0, anchor_x=x0,
                                    anchor_u=v0, anchor_slope=s))

    def run(self) -> list[PharaPiece]:
        for k, piece in enumerate(self.utility.pieces):
            if k > 0:
                self.attach_point(piece.a_lo, piece.value_lo)
            if piece.convex:
                continue
            self.attach_arc(piece)
        return self.hull


def concave_envelope(utility: PharaUtility) -> EnvelopeResult:
    """Exact concave envelope, returned as another piecewise-HARA utility."""
    env = PharaUtility(a0=utility.a0, pieces=tuple(_Sweep(utility).run()))
    chords = tuple((p.a_lo, p.a_hi, p.anchor_slope) for p in env.pieces if p.R == 0.0)
    kinks = set(env.kinks())
    return EnvelopeResult(env, chords, tuple(sorted(
        {x for lo, hi, _ in chords for x in (lo, hi) if np.isfinite(x) and x not in kinks})))
