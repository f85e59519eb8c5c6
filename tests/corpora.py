"""Seeded corpora of random utilities, for the tests and for any tool that
reads the same draws; it imports numpy and phara only.

Each draw is a function of its seed: an int, a sequence of ints, or a
``numpy.random.Generator``, which ``np.random.default_rng`` passes through,
so a loop can also take several draws from one generator.

- ``random_concave_envelope``: legal concave utilities whose curved pieces
  share one R;
- ``random_raw_utility``: raw utilities with every legal pathology;
- the steep corpus, draw s from ``default_rng([s, 1])``: an S-shaped
  preference and a piecewise-linear payoff of slopes up to 1e12
  (``steep_block``, ``steep_parts``, ``steep_composition``);
- the CARA corpus, draw s from ``default_rng([s, 2])``: a CARA preference and
  the same kind of payoff, drawn by the same code (``cara_parts``).

Two one-piece utilities serve the corpora and the tests: ``crra_utility`` and
``cara_utility``.
"""

import numpy as np

from phara.utility import (INF, PharaPiece, PharaUtility, compose, piecewise_linear_payoff,
                           s_shaped_utility)


def crra_utility(R: float, a0: float = 0.0) -> PharaUtility:
    """Pure power/log utility on [a0, inf) with benchmark a0 and U'(x)=(x-a0)^-R;
    U(a0) is 0 for R < 1 and -inf for R >= 1."""
    u = 0.0 if R == 1.0 else 1.0 / (1.0 - R)
    piece = PharaPiece(a_lo=a0, a_hi=INF, R=R, A=a0, anchor_x=a0 + 1.0,
                       anchor_u=u, anchor_slope=1.0)
    return PharaUtility(a0=a0, pieces=(piece,))


def cara_utility(alpha: float, a0: float = -200.0) -> PharaUtility:
    """Exponential utility -exp(-alpha x)/alpha on [a0, inf), alpha > 0."""
    piece = PharaPiece(a_lo=a0, a_hi=INF, R=INF, anchor_x=0.0,
                       anchor_u=-1.0 / alpha, anchor_slope=1.0, alpha=alpha)
    return PharaUtility(a0=a0, pieces=(piece,))


def random_concave_envelope(seed, R: float | None = None) -> PharaUtility:
    """A random legal concave utility whose curved pieces share one R.

    Cells alternate between power branches (benchmark strictly below the
    cell) and chords, with nonincreasing slopes across junctions; the tail
    is always a power branch so demand stays finite.
    """
    rng = np.random.default_rng(seed)
    if R is None:
        R = float(rng.uniform(0.2, 5.0))
    a0 = float(rng.uniform(0.0, 5.0))
    x = a0
    u = float(rng.uniform(-1.0, 1.0))
    slope = float(rng.uniform(1.0, 4.0))
    pieces = []
    for _ in range(int(rng.integers(1, 5))):
        width = float(rng.uniform(0.5, 4.0))
        if rng.random() < 0.4:
            piece = PharaPiece(a_lo=x, a_hi=x + width, R=0.0, anchor_x=x,
                               anchor_u=u, anchor_slope=slope)
        else:
            A = x - float(rng.uniform(0.2, 3.0))
            piece = PharaPiece(a_lo=x, a_hi=x + width, R=R, A=A, anchor_x=x,
                               anchor_u=u, anchor_slope=slope)
        pieces.append(piece)
        x += width
        u = float(piece.value(x))
        slope = float(piece.slope(x))
        if rng.random() < 0.5:
            slope *= float(rng.uniform(0.5, 0.95))  # concave kink
    A = x - float(rng.uniform(0.2, 3.0))
    pieces.append(PharaPiece(a_lo=x, a_hi=INF, R=R, A=A, anchor_x=x,
                             anchor_u=u, anchor_slope=slope))
    return PharaUtility(a0=a0, pieces=tuple(pieces))


def random_raw_utility(seed) -> PharaUtility:
    """A random raw utility with every legal pathology.

    Cells may be concave powers, convex powers (benchmark at or beyond the
    right end), flats, rising lines, or exponentials; junctions may kink
    upwards or jump upwards.  The tail is always a concave power so the
    envelope exists.
    """
    rng = np.random.default_rng(seed)
    a0 = float(rng.uniform(-2.0, 5.0))
    x = a0
    u = float(rng.uniform(-2.0, 2.0))
    pieces = []
    for _ in range(int(rng.integers(1, 6))):
        width = float(rng.uniform(0.4, 3.0))
        kind = rng.choice(["concave", "convex", "flat", "line", "exp"])
        slope = float(rng.uniform(0.05, 3.0))
        if kind == "concave":
            A = x - float(rng.uniform(0.1, 2.0))
            piece = PharaPiece(a_lo=x, a_hi=x + width,
                               R=float(rng.uniform(0.2, 3.0)), A=A,
                               anchor_x=x, anchor_u=u, anchor_slope=slope)
        elif kind == "convex":
            A = x + width + float(rng.uniform(0.0, 1.0))
            piece = PharaPiece(a_lo=x, a_hi=x + width,
                               R=float(rng.uniform(0.2, 0.8)), A=A,
                               anchor_x=x, anchor_u=u, anchor_slope=slope)
        elif kind == "flat":
            piece = PharaPiece(a_lo=x, a_hi=x + width, R=0.0, anchor_x=x,
                               anchor_u=u, anchor_slope=0.0)
        elif kind == "line":
            piece = PharaPiece(a_lo=x, a_hi=x + width, R=0.0, anchor_x=x,
                               anchor_u=u, anchor_slope=slope)
        else:
            piece = PharaPiece(a_lo=x, a_hi=x + width, R=float("inf"),
                               anchor_x=x, anchor_u=u, anchor_slope=slope,
                               alpha=float(rng.uniform(0.3, 3.0)))
        pieces.append(piece)
        x += width
        u = float(piece.value(x))
        if rng.random() < 0.25:
            u += float(rng.uniform(0.0, 0.8))  # upward jump at the junction
    A = x - float(rng.uniform(0.1, 2.0))
    pieces.append(PharaPiece(a_lo=x, a_hi=INF, R=float(rng.uniform(0.2, 3.0)),
                             A=A, anchor_x=x, anchor_u=u,
                             anchor_slope=float(rng.uniform(0.05, 2.0))))
    return PharaUtility(a0=a0, pieces=tuple(pieces))


def _payoff_block(rng: np.random.Generator, value_base: float) -> dict:
    """A random payoff as a scenario "payoff" block: floor in (-2, 2), worth
    value_base + U(0, 2) there, 0 to 2 breakpoints, slopes 10^U(-3, 12)."""
    lo, k = float(rng.uniform(-2.0, 2.0)), int(rng.integers(0, 3))
    return {"floor": lo, "value_lo": value_base + float(rng.uniform(0.0, 2.0)),
            "breakpoints": (lo + np.cumsum(rng.uniform(0.1, 3.0, k))).tolist(),
            "slopes": (10.0 ** rng.uniform(-3.0, 12.0, k + 1)).tolist()}


def _payoff(block: dict) -> PharaUtility:
    return piecewise_linear_payoff(block["floor"], block["value_lo"],
                                   tuple(block["breakpoints"]), tuple(block["slopes"]))


def steep_block(s: int) -> dict:
    """Draw s of the steep corpus as a scenario "utility" block: an S-shaped
    preference and a payoff of ``_payoff_block`` worth U(0, 2) at its floor."""
    rng = np.random.default_rng([s, 1])
    preference = {"type": "s_shaped", "reference": float(rng.uniform(0.1, 3.0)),
                  "gain_exponent": float(rng.uniform(0.05, 0.95)),
                  "loss_exponent": float(rng.uniform(0.05, 0.95)),
                  "loss_weight": float(rng.uniform(0.5, 5.0))}
    return {"preference": preference, "payoff": _payoff_block(rng, 0.0)}


def steep_parts(s: int):
    """Draw s of the steep corpus: its preference, on [0, inf), and its payoff."""
    block = steep_block(s)
    shape = {k: v for k, v in block["preference"].items() if k != "type"}
    return s_shaped_utility(a0=0.0, **shape), _payoff(block["payoff"])


def steep_composition(s: int) -> PharaUtility:
    """The preference of draw s of the steep corpus composed with its payoff."""
    return compose(*steep_parts(s))


def cara_parts(s: int):
    """Draw s of the CARA corpus: a CARA preference, alpha in (0.1, 5) and a0
    in (-50, 0), and a payoff of ``_payoff_block`` worth up to 2 above a0."""
    rng = np.random.default_rng([s, 2])
    alpha, a0 = float(rng.uniform(0.1, 5.0)), float(rng.uniform(-50.0, 0.0))
    return cara_utility(alpha, a0), _payoff(_payoff_block(rng, a0))
