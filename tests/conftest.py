import importlib.util
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from corpora import cara_utility, crra_utility
from phara.cli import Scenario, load_scenario, main
from phara.concavify import concave_envelope
from phara.solver import _d1_outer, _horizon, _tables, solve_multiplier
from phara.utility import INF, PharaUtility


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


ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


def load_tool(name: str):
    """The script ``tools/<name>.py`` as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the one copy of tools/same.py that every test reads: its scenario writer
# (same.write_scenario, whose same.DELETE is this copy's), groups and BUNDLED
same = load_tool("same")


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


def crra_multiplier(market, R: float, x0: float) -> float:
    """y* of U = x^(1-R) / (1-R) at initial wealth x0, in closed form: the
    budget E[xi_T (y xi_T)^(-1/R)] = y^(-1/R) G with G = E[xi_T^beta], beta =
    1 - 1/R, the lognormal moment exp(-beta (r + |theta|^2/2) T + beta^2
    |theta|^2 T / 2), so y* = (x0 / G)^(-R)."""
    beta, th = 1.0 - 1.0 / R, market.theta_norm
    growth = math.exp(-beta * (market.r + 0.5 * th * th) * market.T
                      + 0.5 * beta * beta * th * th * market.T)
    return (x0 / growth) ** (-R)


def deriv(u: PharaUtility, x: float, side: str = "right") -> float:
    """One-sided derivative of u at x, side "left" or "right"; at a_k the left
    side reads piece k-1 and the right side piece k, and the left slope at a0
    is inf."""
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
# Demo models: the bundled scenario files are their one copy
# ---------------------------------------------------------------------------


def bundled(name: str) -> Scenario:
    """``scenarios/<name>.json``, loaded as the commands load it.  Every
    bundled scenario has one market: one risky asset, r = 5 %, drift 8.6 %,
    vol 30 % and T = 10, so |theta| = 0.12 and the Merton fraction at
    R = 0.5 is 0.8."""
    return load_scenario(SCENARIOS / f"{name}.json")


def _contract_constants():
    """The participating contract of ``participating_contract.json``: gain
    exponent gamma, wealth share alpha, bonus share delta and guarantee L
    (the file's payoff has breakpoints L and L / alpha and slopes 0, 1 and
    1 - delta alpha), and the analytic constants of its envelope: the
    tangency L / (1 - gamma) of the chord from (0, 0) and the slope K there,
    the slope m just below L / alpha, and the benchmarks A1 and A2 of the
    two power branches."""
    gamma, alpha, delta, L = 0.5, 0.4, 0.3, 1.0
    return SimpleNamespace(
        gamma=gamma, alpha=alpha, delta=delta, L=L, tangency=L / (1 - gamma),
        K=gamma * (L / (1 - gamma) - L) ** (gamma - 1.0),
        m=gamma * (L / alpha - L) ** (gamma - 1.0),
        A1=L, A2=(1 - delta) * L / (1 - delta * alpha))


CONTRACT = _contract_constants()


@pytest.fixture(scope="session")
def market():
    return bundled("multi_kink_demo").market


@pytest.fixture(scope="session")
def demo_utility():
    """Square-root gains from the floor 4, a flat stretch, a convex recovery
    branch, a second plateau, and two concave square-root tails with a slope
    drop at 40.  Its concave envelope keeps the first and last arcs, bridges
    the middle with two chords (4.4 -> 12 and 12 -> tangency at 28), and has
    kinks at 4, 4.4, 12 and 40."""
    return bundled("multi_kink_demo").utility


@pytest.fixture(scope="session")
def demo_envelope(demo_utility):
    return concave_envelope(demo_utility)


@pytest.fixture(scope="session")
def contract_utility():
    return bundled("participating_contract").utility


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
