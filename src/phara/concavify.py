"""Concave envelopes of piecewise-HARA utilities.

The exact construction sweeps the pieces left to right, maintaining a stack
of kept fragments whose slopes decrease.  Whenever an incoming fragment or
junction point breaks concavity, the bridging chord is found by a
one-dimensional root-find in the supporting-slope variable: the hull and the
incoming object each have a closed-form support line and contact point for
every slope s, and the difference of their intercepts is strictly increasing
in s, so the common tangent is a bracketed root, found by the solver's
Newton-bisection step in log s.  Chords become linear pieces of the output;
convex and flat stretches of the input are always swallowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, UnboundedEnvelope
from .solver import _newton_root
from .utility import INF, PharaPiece, PharaUtility

_SLOPE_TIE_RTOL = 1e-12
_RESIDUAL_TOL = 1e-12
_MAX_EXPAND = 200


@dataclass(frozen=True)
class EnvelopeResult:
    """Concave envelope of a piecewise-HARA utility, with its chord anatomy.

    ``chords`` lists every linear interval of the envelope (bridging chords
    and surviving linear pieces of the input) as (x_left, x_right, slope);
    ``tangency_points`` are chord endpoints where the envelope is
    differentiable; ``differs_on`` are the open intervals where the envelope
    lies strictly above the input.
    """

    envelope: PharaUtility
    chords: tuple[tuple[float, float, float], ...]
    tangency_points: tuple[float, ...]
    differs_on: tuple[tuple[float, float], ...]

    @property
    def kinks(self) -> list[float]:
        return self.envelope.kinks()

    def equals_original(self, x) -> np.ndarray:
        """True where the envelope coincides with the original utility."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.ones(x.shape, dtype=bool)
        for lo, hi in self.differs_on:
            out &= ~((x > lo) & (x < hi))
        return out


def _support(piece: PharaPiece, s: float) -> tuple[float, float]:
    """Intercept and contact point of the slope-s line supporting a concave
    or linear piece from above; off the piece's slope range an end takes over."""
    if s >= piece.slope_lo:
        x = piece.a_lo
    elif piece.R == 0.0 and not np.isfinite(piece.a_hi):
        raise UnboundedEnvelope(
            "no supporting line shallower than an unbounded linear piece"
        )
    elif piece.R == 0.0 or (np.isfinite(piece.a_hi) and s <= piece.slope_hi):
        x = piece.a_hi
    else:
        x = piece.slope_inverse(s)
    return float(piece.value(x)) - s * x, x


class _Seg:
    """One hull element: a kept curve fragment or a bridging chord."""

    __slots__ = ("kind", "x0", "v0", "x1", "v1", "s0", "s1", "piece",
                 "left_contact", "right_contact")

    def __init__(self, kind, x0, v0, x1, v1, s0, s1, piece=None,
                 left_contact="corner", right_contact="corner"):
        self.kind = kind
        self.x0, self.v0, self.x1, self.v1 = x0, v0, x1, v1
        self.s0, self.s1 = s0, s1
        self.piece = piece
        self.left_contact = left_contact
        self.right_contact = right_contact


def _curve_seg(piece: PharaPiece, x0: float, x1: float, left_contact="corner"):
    return _Seg("curve", x0, float(piece.value(x0)), x1, float(piece.value(x1)),
                float(piece.slope(x0)), float(piece.slope(x1)),
                piece=piece, left_contact=left_contact)


class _Sweep:
    def __init__(self, utility: PharaUtility):
        self.utility = utility
        first = utility.pieces[0]
        v0 = first.value_lo
        self.anchor = (utility.a0, v0) if np.isfinite(v0) else None
        self.segs: list[_Seg] = []

    # -- hull queries --------------------------------------------------------

    def right_end(self):
        if self.segs:
            top = self.segs[-1]
            return top.x1, top.v1, top.s1
        if self.anchor is not None:
            return self.anchor[0], self.anchor[1], INF
        return None

    def hull_support(self, s: float) -> tuple[float, float]:
        """(c_H(s), x_H(s)): intercept and contact of the slope-s line
        supporting the hull."""
        for seg in reversed(self.segs):
            if s <= seg.s1:
                return seg.v1 - s * seg.x1, seg.x1
            if s <= seg.s0:
                if seg.kind == "chord":
                    return seg.v0 - s * seg.x0, seg.x0
                x = float(np.clip(seg.piece.slope_inverse(s), seg.x0, seg.x1))
                return float(seg.piece.value(x)) - s * x, x
        if self.anchor is not None:
            return self.anchor[1] - s * self.anchor[0], self.anchor[0]
        raise UnboundedEnvelope("support requested left of an open domain")

    def truncate_at_slope(self, s: float):
        """Drop hull mass right of the slope-s support; return the contact."""
        while self.segs:
            seg = self.segs[-1]
            if s <= seg.s1 * (1.0 + _SLOPE_TIE_RTOL):
                return seg.x1, seg.v1, "corner"
            if s <= seg.s0:
                if seg.kind == "chord":
                    self.segs.pop()
                    continue
                x = float(np.clip(seg.piece.slope_inverse(s), seg.x0, seg.x1))
                if x - seg.x0 <= 1e-15 * max(1.0, abs(seg.x0)):
                    self.segs.pop()
                    continue
                seg.x1 = x
                seg.v1 = float(seg.piece.value(x))
                seg.s1 = float(seg.piece.slope(x))
                return seg.x1, seg.v1, "tangent"
            self.segs.pop()
        if self.anchor is not None:
            return self.anchor[0], self.anchor[1], "corner"
        raise UnboundedEnvelope("support requested left of an open domain")

    # -- root machinery -------------------------------------------------------

    def _gap(self, obj_support, s: float) -> float:
        """c_H(s) - c_obj(s), increasing in s."""
        return self.hull_support(s)[0] - obj_support(s)[0]

    def _common_slope(self, obj_support, s_lo: float, s_hi: float) -> float:
        """Root of c_H(s) - c_obj(s) on [s_lo, s_hi].

        Newton in u = log s on the decreasing map c_obj - c_H, whose slope
        -s (x_obj(s) - x_H(s)) comes from the two contact points.
        """
        g_lo, g_hi = self._gap(obj_support, s_lo), self._gap(obj_support, s_hi)
        if g_lo > 0.0 or g_hi < 0.0:
            raise NoConvergence(
                f"tangency bracket failed: gap({s_lo:.3e})={g_lo:.3e}, "
                f"gap({s_hi:.3e})={g_hi:.3e}"
            )

        def support_gap(act, u):
            s = math.exp(u[0])
            c_h, x_h = self.hull_support(s)
            c_obj, x_obj = obj_support(s)
            return np.array([c_obj - c_h]), np.array([-s * (x_obj - x_h)])

        lo, hi = np.array([math.log(s_lo)]), np.array([math.log(s_hi)])
        falsi = g_lo / (g_lo - g_hi) if g_hi > g_lo else 0.0
        s_star = math.exp(_newton_root(support_gap, lo, hi,
                                       lo + (hi - lo) * falsi)[0])
        resid = self._gap(obj_support, s_star)
        scale = max(1.0, abs(self.hull_support(s_star)[0]))
        if abs(resid) > _RESIDUAL_TOL * scale:
            raise NoConvergence(
                f"tangency residual {resid:.3e} at slope {s_star:.3e}"
            )
        return s_star

    def _bracket_up(self, gap_at, start: float) -> float:
        s = max(start, 1e-300)
        for _ in range(_MAX_EXPAND):
            if gap_at(s) > 0.0:
                return s
            s *= 4.0
        raise NoConvergence("no steep supporting slope found")

    # -- attaching objects -----------------------------------------------------

    def attach_point(self, x: float, v: float):
        end = self.right_end()
        if end is None:
            self.anchor = (x, v)
            return
        x_e, v_e, s1 = end
        if x <= x_e:
            if v > v_e + 1e-12 * max(1.0, abs(v_e)):
                self._attach_by_tangent(x, v, s_hint=None)
            return
        s_c = (v - v_e) / (x - x_e)
        if s_c <= s1 * (1.0 + _SLOPE_TIE_RTOL) + 1e-300:
            self._push_chord(x_e, v_e, x, v, max(s_c, 0.0), "corner", "corner")
            return
        self._attach_by_tangent(x, v, s_hint=s_c)

    def _attach_by_tangent(self, x: float, v: float, s_hint):
        """Bridge from the hull to the fixed point (x, v) by a supporting chord."""

        def point_support(s):
            return v - s * x, x

        def gap(s):
            return self._gap(point_support, s)

        if s_hint is not None and gap(s_hint) >= 0.0:
            s_hi = s_hint
        else:
            s_hi = self._bracket_up(gap, s_hint if s_hint else 1.0)
        s_lo = s_hi
        for _ in range(_MAX_EXPAND):
            s_lo *= 0.25
            if gap(s_lo) < 0.0:
                break
        else:
            raise NoConvergence("no shallow supporting slope found")
        s_star = self._common_slope(point_support, s_lo, s_hi)
        x_b, v_b, contact = self.truncate_at_slope(s_star)
        self._push_chord(x_b, v_b, x, v, s_star, contact, "corner")

    def attach_arc(self, piece: PharaPiece):
        end = self.right_end()
        if end is None:
            self.segs.append(_curve_seg(piece, piece.a_lo, piece.a_hi))
            return
        if piece.R == 0.0:
            self._attach_linear(piece)
            return
        x_e, v_e, s1 = end
        s_in = piece.slope_lo
        if (x_e == piece.a_lo and v_e <= piece.value_lo + 1e-12 * max(1.0, abs(v_e))
                and s_in <= s1 * (1.0 + _SLOPE_TIE_RTOL) + 1e-300):
            self.segs.append(_curve_seg(piece, piece.a_lo, piece.a_hi))
            return

        def arc_support(s):
            return _support(piece, s)

        def gap(s):
            return self._gap(arc_support, s)

        # upper bracket: at the arc's steepest slope the hull line is above
        if np.isfinite(s_in) and gap(s_in) >= 0.0:
            s_hi = s_in
        else:
            s_hi = self._bracket_up(gap, max(s1 if np.isfinite(s1) else 1.0,
                                             piece.slope_hi, 1e-12) * 2.0)
        # lower bracket: shallow supports favour the arc
        s_out = piece.slope_hi
        if np.isfinite(piece.a_hi):
            if gap(max(s_out, 1e-300)) >= 0.0:
                # whole arc below the hull fan: only its right endpoint matters
                self.attach_point(piece.a_hi, piece.value_hi)
                return
            s_lo = max(s_out, 1e-300)
        else:
            s_lo = s_hi
            for _ in range(_MAX_EXPAND):
                s_lo = s_out + 0.25 * (s_lo - s_out)
                if s_lo <= s_out or gap(s_lo) < 0.0:
                    break
            else:
                raise NoConvergence("no tangency bracket on the unbounded piece")
        s_star = self._common_slope(arc_support, s_lo, s_hi)
        x_b, v_b, contact = self.truncate_at_slope(s_star)
        if s_star >= s_in:
            f = piece.a_lo
        else:
            f = float(np.clip(piece.slope_inverse(s_star), piece.a_lo, piece.a_hi))
        if np.isfinite(piece.a_hi) and piece.a_hi - f <= 1e-15 * max(1.0, abs(piece.a_hi)):
            self._push_chord(x_b, v_b, piece.a_hi, piece.value_hi, s_star,
                             contact, "corner")
            return
        right_contact = "corner" if f == piece.a_lo else "tangent"
        self._push_chord(x_b, v_b, f, float(piece.value(f)), s_star,
                         contact, right_contact)
        self.segs.append(_curve_seg(piece, f, piece.a_hi,
                                    left_contact=right_contact))

    def _attach_linear(self, piece: PharaPiece):
        x_e, v_e, s1 = self.right_end()
        s_a = piece.slope_lo
        if (x_e == piece.a_lo and v_e <= piece.value_lo + 1e-12 * max(1.0, abs(v_e))
                and s_a <= s1 * (1.0 + _SLOPE_TIE_RTOL) + 1e-300):
            self.segs.append(_curve_seg(piece, piece.a_lo, piece.a_hi))
            return
        if np.isfinite(piece.a_hi):
            self.attach_point(piece.a_hi, piece.value_hi)
            return
        # unbounded linear tail steeper than the hull: the envelope follows
        # the hull to its slope-s_a support and then runs parallel above it
        x_b, v_b, contact = self.truncate_at_slope(s_a)
        self.segs.append(_Seg("chord", x_b, v_b, INF, INF, s_a, s_a,
                              left_contact=contact, right_contact="open"))

    def _push_chord(self, x0, v0, x1, v1, s, left_contact, right_contact):
        if x1 <= x0 or (x1 - x0) < 1e-15 * max(1.0, abs(x0)):
            return
        if self.segs:
            top = self.segs[-1]
            if top.kind == "chord" and np.isfinite(top.s1) and \
                    abs(top.s1 - s) <= _SLOPE_TIE_RTOL * max(top.s1, s):
                # collinear tie: merge, junction treated as differentiable
                top.x1, top.v1 = x1, v1
                top.right_contact = right_contact
                return
        self.segs.append(_Seg("chord", x0, v0, x1, v1, s, s,
                              left_contact=left_contact,
                              right_contact=right_contact))

    def run(self) -> list[_Seg]:
        for k, piece in enumerate(self.utility.pieces):
            if k > 0:
                self.attach_point(piece.a_lo, piece.value_lo)
            if piece.curvature == "convex":
                continue
            self.attach_arc(piece)
        if not self.segs:
            raise UnboundedEnvelope("sweep produced an empty hull")
        return self.segs


def _reanchor(piece: PharaPiece, x0: float, x1: float) -> PharaPiece:
    """Restrict an original piece to [x0, x1] with a numerically safe anchor."""
    if piece.R == 0.0 or piece.R == INF:
        ax = x0
    elif x0 > piece.A:
        ax = x0
    elif np.isfinite(x1):
        ax = x1
    else:
        ax = piece.A + max(1.0, abs(piece.A))
    return PharaPiece(
        a_lo=x0, a_hi=x1, R=piece.R, A=piece.A, alpha=piece.alpha,
        anchor_x=ax, anchor_u=float(piece.value(ax)),
        anchor_slope=float(piece.slope(ax)),
    )


def _chord_piece(seg: _Seg) -> PharaPiece:
    return PharaPiece(a_lo=seg.x0, a_hi=seg.x1, R=0.0, anchor_x=seg.x0,
                      anchor_u=seg.v0, anchor_slope=seg.s0)


def _differs_intervals(utility: PharaUtility, seg: _Seg):
    """Sub-intervals of a bridging chord where it sits strictly above U."""
    out = []
    for piece in utility.pieces:
        lo = max(seg.x0, piece.a_lo)
        hi = min(seg.x1, piece.a_hi)
        if hi <= lo:
            continue
        if piece.R == 0.0:
            mid = 0.5 * (lo + hi) if np.isfinite(hi) else lo + 1.0
            chord_v = seg.v0 + seg.s0 * (mid - seg.x0)
            scale = max(1.0, abs(chord_v))
            if (abs(piece.anchor_slope - seg.s0) <= 1e-10 * max(1.0, seg.s0)
                    and abs(float(piece.value(mid)) - chord_v) <= 1e-10 * scale):
                continue  # collinear linear piece: envelope equals it here
        out.append((lo, hi))
    # merge touching intervals
    merged = []
    for lo, hi in out:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


def concave_envelope(utility: PharaUtility) -> EnvelopeResult:
    """Exact concave envelope, returned as another piecewise-HARA utility."""
    segs = _Sweep(utility).run()

    pieces, chords, tangency, differs = [], [], [], []
    for seg in segs:
        if seg.kind == "curve":
            pieces.append(_reanchor(seg.piece, seg.x0, seg.x1))
            if seg.piece.R == 0.0:
                chords.append((seg.x0, seg.x1, float(seg.s0)))
        else:
            pieces.append(_chord_piece(seg))
            chords.append((seg.x0, seg.x1, float(seg.s0)))
            if seg.left_contact == "tangent":
                tangency.append(seg.x0)
            if seg.right_contact == "tangent":
                tangency.append(seg.x1)
            differs.extend(_differs_intervals(utility, seg))

    env = PharaUtility(a0=utility.a0, pieces=tuple(pieces),
                       a0_included=utility.a0_included)
    return EnvelopeResult(
        envelope=env,
        chords=tuple(chords),
        tangency_points=tuple(sorted(set(tangency))),
        differs_on=tuple(differs),
    )

