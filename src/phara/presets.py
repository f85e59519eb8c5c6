"""Canonical demo models used by the CLI examples and the test suite."""

from __future__ import annotations

import math

from .market import MarketParams, build_market
from .utility import INF, PharaPiece, PharaUtility


def demo_market() -> MarketParams:
    """One risky asset, r=5%, drift 8.6%, vol 30%, ten-year horizon.

    The implied market price of risk is 0.12; with R = 0.5 the Merton
    constant percentage is 0.8.
    """
    return build_market(r=0.05, mu=[0.086], sigma=[[0.3]], T=10.0)


def multi_kink_utility() -> PharaUtility:
    """A deliberately nasty showcase utility on [4, inf).

    Square-root gains near the floor, a flat stretch, a convex recovery
    branch, a second plateau, and two concave square-root tails with a slope
    drop at 40.  Its concave envelope keeps the first and last arcs, bridges
    the middle with two chords (4.4 -> 12 and 12 -> tangency at 28), and has
    kinks at 4, 4.4, 12 and 40.
    """
    k1 = math.sqrt(0.24)
    k2 = 0.02
    lam = 1.01
    v_plateau = -lam * math.sqrt(12.0 - 8.96)   # value on the first plateau
    v_top = k1 * math.sqrt(40.0 - 20.0)         # value where the slope drops

    pieces = (
        # k1 (x-4)^{1/2} shifted to hit the plateau value at 4.4
        PharaPiece(a_lo=4.0, a_hi=4.4, R=0.5, A=4.0, anchor_x=4.4,
                   anchor_u=v_plateau,
                   anchor_slope=0.5 * k1 / math.sqrt(0.4)),
        PharaPiece(a_lo=4.4, a_hi=8.96, R=0.0, anchor_x=4.4,
                   anchor_u=v_plateau, anchor_slope=0.0),
        # -lam (12-x)^{1/2}: convex recovery towards zero at 12
        PharaPiece(a_lo=8.96, a_hi=12.0, R=0.5, A=12.0, anchor_x=8.96,
                   anchor_u=v_plateau,
                   anchor_slope=0.5 * lam / math.sqrt(12.0 - 8.96)),
        PharaPiece(a_lo=12.0, a_hi=20.0, R=0.0, anchor_x=12.0,
                   anchor_u=0.0, anchor_slope=0.0),
        # k1 (x-20)^{1/2}
        PharaPiece(a_lo=20.0, a_hi=40.0, R=0.5, A=20.0, anchor_x=40.0,
                   anchor_u=v_top, anchor_slope=0.5 * k1 / math.sqrt(20.0)),
        # k2 (x-20)^{1/2} + continuity constant
        PharaPiece(a_lo=40.0, a_hi=INF, R=0.5, A=20.0, anchor_x=40.0,
                   anchor_u=v_top, anchor_slope=0.5 * k2 / math.sqrt(20.0)),
    )
    return PharaUtility(a0=4.0, pieces=pieces, a0_included=True)


CONTRACT_PARAMS = dict(gamma=0.5, wealth_share=0.4, bonus_share=0.3, guarantee=1.0)
