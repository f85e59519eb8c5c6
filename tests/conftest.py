import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from phara.cli import main
from phara.concavify import concave_envelope
from phara.errors import IllegalCase
from phara.market import build_market
from phara.solver import _d1_outer, _horizon, _tables, solve_multiplier
from phara.utility import (INF, PharaPiece, PharaUtility, cara_utility, crra_utility,
                           participating_contract_utility)


# property tests: a fixed example budget per test keeps the suite's runtime
# bounded, and derandomized draws make every run check the same cases
settings.register_profile("phara", max_examples=100, deadline=None,
                          derandomize=True, database=None)
settings.load_profile("phara")


def strict_json(path):
    """json.loads that rejects the non-standard tokens NaN and +-Infinity."""
    def reject(token):
        raise ValueError(f"{path.name} holds the non-standard token {token}")
    return json.loads(path.read_text(), parse_constant=reject)


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def run_recorded(argv, out: Path) -> int:
    """``main(argv + ["--out", out])`` in this process, its standard output and
    error and its exit code written into out as the files ``stdout``,
    ``stderr`` and ``exit_code``, the way ``tools/same.py --record`` keeps a
    child's; the exit code."""
    out.mkdir(parents=True, exist_ok=True)
    with redirect_stdout(io.StringIO()) as stdout, redirect_stderr(io.StringIO()) as stderr:
        code = main([*map(str, argv), "--out", str(out)])
    (out / "stdout").write_text(stdout.getvalue())
    (out / "stderr").write_text(stderr.getvalue())
    (out / "exit_code").write_text(f"{code}\n")
    return code


@pytest.fixture(scope="session")
def simulate_bundled(tmp_path_factory):
    """simulate at its defaults on a bundled scenario, by name: run once per
    session by ``run_recorded``, for the CLI test and the golden test; its
    output directory."""
    runs = {}

    def run(name: str) -> Path:
        if name not in runs:
            out = tmp_path_factory.mktemp(f"simulate-{name}")
            run_recorded(["simulate", "--scenario", SCENARIOS / f"{name}.json"], out)
            runs[name] = out
        return runs[name]

    return run


def capped_hedge_fund() -> dict:
    """hedge_fund.json with its payoff flat above the breakpoint a_f = 2 e^0.5,
    x0 1.0 and no wealth grid: X_0 lies between the floor 0.7 and the ceiling 2."""
    raw = json.loads((SCENARIOS / "hedge_fund.json").read_text())
    raw["utility"]["payoff"]["slopes"] = [0.28, 0.0]
    del raw["grids"]["wealth"]
    return dict(raw, x0=1.0)


def d_transform(z, y_shift: float, market, t: float):
    """d(z, y) = -(log z + (r + |theta|^2/2) tau) / (|theta| sqrt(tau)) + y |theta| sqrt(tau).

    The general d-transform of the paper; the solver only needs d(z, 1),
    which it evaluates on the slope ladder with ``_d1_outer``, and the tests
    check that against this form.  Continuously extended: z -> 0+ gives
    +inf, z -> inf gives -inf.
    """
    tau = market.tau(t)
    s = market.theta_norm * math.sqrt(tau)
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore"):
        out = -(np.log(z) + (market.r + 0.5 * market.theta_norm**2) * tau) / s \
            + y_shift * s
    return float(out) if out.ndim == 0 else out


def d0(z, market, t: float):
    return d_transform(z, 0.0, market, t)


def d_next(z, R: float, market, t: float):
    """d(z, 1 - 1/R), the transform attached to a piece of risk aversion R."""
    return d_transform(z, 1.0 - 1.0 / R, market, t)


def d1(z, market, t: float):
    """d(z, 1) = -(log z + (r - |theta|^2/2) tau) / (|theta| sqrt(tau)), by
    the solver's ladder kernel ``_d1_outer``."""
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore"):
        # no power piece, so no growth factor to compute
        out = _d1_outer(np.log(z), 0.0, _horizon(market, t, _tables(cara_utility(1.0))))
    return float(out) if out.ndim == 0 else out


def deriv(u: PharaUtility, x: float, side: str = "right") -> float:
    """One-sided derivative of u at x; at a_k the left side reads piece k-1
    and the right side piece k, and the left slope at a0 is inf."""
    if side not in ("left", "right"):
        raise IllegalCase(f"side must be 'left' or 'right', got {side!r}")
    if x == u.a0 and side == "left":
        return INF
    k = int(np.searchsorted(u.partition[1:-1], x, side=side))
    return float(u.pieces[k].slope(x))


def scale_shift(u: PharaUtility, a: float, b: float) -> PharaUtility:
    """The affine image a u + b (a > 0): same partition, scaled slopes."""
    return replace(u, pieces=tuple(
        replace(p, anchor_u=a * p.anchor_u + b, anchor_slope=a * p.anchor_slope)
        for p in u.pieces))


# ---------------------------------------------------------------------------
# Demo models
# ---------------------------------------------------------------------------


CONTRACT_PARAMS = dict(gamma=0.5, wealth_share=0.4, bonus_share=0.3, guarantee=1.0)


def demo_market():
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
    kinks at 4, 4.4, 12 and 40.  ``scenarios/multi_kink_demo.json`` holds
    the same utility.
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
    return PharaUtility(a0=4.0, pieces=pieces)


@pytest.fixture(scope="session")
def market():
    return demo_market()


@pytest.fixture(scope="session")
def demo_utility():
    return multi_kink_utility()


@pytest.fixture(scope="session")
def demo_envelope(demo_utility):
    return concave_envelope(demo_utility)


@pytest.fixture(scope="session")
def contract_utility():
    return participating_contract_utility(**CONTRACT_PARAMS)


@pytest.fixture(scope="session")
def contract_envelope(contract_utility):
    return concave_envelope(contract_utility)


@pytest.fixture(scope="session")
def crra_envelope():
    return concave_envelope(crra_utility(0.5)).envelope


@pytest.fixture(scope="session")
def demo_dual(demo_envelope, market):
    return solve_multiplier(demo_envelope.envelope, market, 25.0)


@pytest.fixture(scope="session")
def contract_dual(contract_envelope, market):
    return solve_multiplier(contract_envelope.envelope, market, 1.8)


def random_concave_envelope(rng: np.random.Generator,
                            R: float | None = None) -> PharaUtility:
    """A random legal concave utility whose curved pieces share one R.

    Cells alternate between power branches (benchmark strictly below the
    cell) and chords, with nonincreasing slopes across junctions; the tail
    is always a power branch so demand stays finite.
    """
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


def random_raw_utility(rng: np.random.Generator) -> PharaUtility:
    """A random raw utility with every legal pathology.

    Cells may be concave powers, convex powers (benchmark at or beyond the
    right end), flats, rising lines, or exponentials; junctions may kink
    upwards or jump upwards.  The tail is always a concave power so the
    envelope exists.
    """
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


def interesting_multipliers(env: PharaUtility, rng: np.random.Generator,
                            n: int) -> np.ndarray:
    """y*xi levels spanning all pieces of an envelope, away from tie slopes."""
    finite = [s for p in env.pieces for s in (p.slope_lo, p.slope_hi, p.anchor_slope)]
    finite = [s for s in finite if np.isfinite(s) and s > 0.0]
    lo, hi = min(finite) / 30.0, max(finite) * 30.0
    out = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    # a flat chord's slope 0 is no tie level: every y*xi is above it
    chord_slopes = [p.anchor_slope for p in env.pieces if p.R == 0.0 and p.anchor_slope > 0.0]
    for s in chord_slopes:
        near = np.abs(np.log(out / s)) < 1e-6
        out[near] *= 1.01
    return out
