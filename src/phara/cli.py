"""Scenario-driven command line: envelope, solve, surface, decompose, verify, simulate.

A scenario is a JSON file holding the market block, the utility (explicit
piece list or a preference composed with a piecewise-linear payoff), the
initial wealth, grids, and reproducibility knobs.  ``main`` runs every
command through one pipeline: check --grid and --steps, load the scenario,
make the output directory, build the concave envelope, solve the dual for y*
(all but ``envelope``), evaluate (``cmd_<name>``, which also runs the checks
of its own flags: decompose's --x and --xi, surface's one asset), write the
JSON/CSV artifacts the evaluation returned, and return its exit code: 0
success, 1 verification failure, 2 input error.  No artifact is written
unless the evaluation returns.

Run as the program (``phara`` or ``python -m phara.cli``, so ``main()`` gets
no ``argv``), ``main`` first settles the process for one command and exit:
it freezes the import-time objects out of the garbage collector, which then
skips them in every collection, the final one at exit included, and on glibc
it keeps freed heap pages for reuse instead of handing numpy's temporaries
back to the kernel and faulting them in afresh on the next call.  ``main(argv)``
and the library change neither.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import sys
from collections import namedtuple
from dataclasses import asdict, dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .concavify import EnvelopeResult, concave_envelope
from .errors import BadDimension, IllegalCase, PharaError
from .market import MarketParams, build_market
from .solver import (SPLIT, DualSolution, fraction_of_wealth, portfolio_unified,
                     solve_multiplier, state_price_for_wealth, wealth_bounds)
from .utility import (INF, NEG_INF, PharaPiece, PharaUtility, compose,
                      piecewise_linear_payoff, s_shaped_utility)

_FMT = "{:.17g}"
_MISSING = object()
_NOUNS = {"number": "a number", "count": "an integer", "text": "a string",
          "list": "a list", "object": "an object"}
_TYPES = {"text": str, "list": list, "object": dict}
_FINITE = {"ok": math.isfinite, "rule": "finite"}
# a standard error needs two samples and an axis two points; 10^8 bounds the arrays
_SIZE = {"ok": lambda n: 2 <= n <= 10**8, "rule": ">= 2, at most 10^8 and integral"}
# the commands key Philox (uint64) with seeds up to seed + 3
_SEED = {"ok": lambda s: 0 <= s < 2**64 - 3, "rule": "in [0, 2^64 - 4] and integral"}


def _check(value, field: str, kind: str, ok=None, rule: str | None = None):
    """value read as a JSON ``kind`` (README, "Scenario file") that passes
    ``ok``, the range ``rule`` states; a BadDimension naming ``field`` otherwise."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "number" and isinstance(value, str):
        parsed = {"inf": INF, "-inf": NEG_INF}.get(value)
    elif kind == "number":
        huge = isinstance(value, int) and abs(value) > sys.float_info.max
        parsed = float(value) if real and value == value and not huge else None
    elif kind == "count":
        integral = isinstance(value, int) or real and value.is_integer()
        parsed = int(value) if real and integral else None
    else:
        parsed = value if isinstance(value, _TYPES[kind]) else None
    if parsed is None or (ok is not None and not ok(parsed)):
        got = {list: "a list", dict: "an object"}.get(type(value)) or json.dumps(value)
        raise BadDimension(f"{field} must be {rule or _NOUNS[kind]}, got {got}")
    return parsed


class _Fields:
    """The scenario's JSON object at a field path such as ``utility.pieces[2]``."""

    def __init__(self, value, path: str):
        self.path, self.data = path, _check(value, path or "the scenario", "object")
        self.prefix = f"{path}." if path else ""

    def get(self, key: str, kind: str = "number", default=_MISSING, ok=None,
            rule: str | None = None):
        """The value at ``key`` read as a ``kind``: an "object" as a _Fields,
        and "numbers" as a list whose entries each pass ``ok``."""
        name = self.prefix + key
        if key not in self.data:
            if default is _MISSING:
                raise BadDimension(f"{name} is missing")
            return default
        if kind == "numbers":
            return [_check(v, f"{name} entries", "number", ok, rule)
                    for v in _check(self.data[key], name, "list")]
        value = _check(self.data[key], name, kind, ok, rule)
        return _Fields(value, name) if kind == "object" else value


def _build(field: str, make, *args, **kwargs):
    """make(*args, **kwargs), its PharaError re-raised with ``field`` as a prefix."""
    try:
        return make(*args, **kwargs)
    except PharaError as exc:
        raise type(exc)(f"{field}: {exc}") from exc


# the scenario's grids.wealth block; n unset means --grid points
WealthGrid = namedtuple("WealthGrid", "lo hi n")


@dataclass(frozen=True)
class Scenario:
    market: MarketParams
    utility: PharaUtility
    x0: float
    seed: int
    paths: int
    t_grid: tuple[float, ...]
    wealth_grid: WealthGrid | None


def _parse_utility(value, path: str = "utility") -> PharaUtility:
    block = _Fields(value, path)
    if "pieces" in block.data:
        entries = [_Fields(v, f"{path}.pieces[{i}]")
                   for i, v in enumerate(block.get("pieces", "list"))]
        bounds = [e.get("a_lo") for e in entries] + [INF]
        pieces = []
        for e, lo, hi in zip(entries, bounds, bounds[1:]):
            anc = e.get("anchor", "object", None)
            x, u, slope = ((anc.get("x"), anc.get("u"), anc.get("slope")) if anc
                           else (lo, e.get("u_plus"), e.get("gamma_plus")))
            pieces.append(_build(e.path, PharaPiece, a_lo=lo, a_hi=hi, R=e.get("R"),
                                 A=e.get("A", default=NEG_INF),
                                 alpha=e.get("alpha", default=None),
                                 anchor_x=x, anchor_u=u, anchor_slope=slope))
        return _build(path, PharaUtility, a0=block.get("a0"), pieces=tuple(pieces))

    if "preference" in block.data:
        pay = block.get("payoff", "object")
        payoff = _build(pay.path, piecewise_linear_payoff,
                        a0=pay.get("floor", default=0.0),
                        value_lo=pay.get("value_lo", default=0.0),
                        breakpoints=tuple(pay.get("breakpoints", "numbers", [])),
                        slopes=tuple(pay.get("slopes", "numbers")))
        pref = block.get("preference", "object")
        if pref.get("type", "text", "s_shaped", ("s_shaped", "phara").__contains__,
                    '"s_shaped" or "phara"') == "phara":
            preference = _parse_utility(pref.data, pref.path)
        else:  # built on the payoff's range [value_lo, inf)
            preference = _build(pref.path, s_shaped_utility, a0=payoff.pieces[0].value_lo,
                                reference=pref.get("reference", default=0.0),
                                gain_exponent=pref.get("gain_exponent"),
                                loss_exponent=pref.get("loss_exponent", default=None),
                                loss_weight=pref.get("loss_weight", default=1.0))
        return _build(path, compose, preference, payoff)

    raise BadDimension(f"{path} needs either 'pieces' or 'preference' and 'payoff'")


def _scenario(path, flags: dict) -> Scenario:
    try:
        text = json.loads(Path(path).read_text())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise BadDimension(f"not JSON: {exc}") from exc
    raw = _Fields(text, "")
    mb = raw.get("market", "object")
    grids = raw.get("grids", "object", _Fields({}, "grids"))
    market = _build("market", build_market, r=mb.get("r"), mu=mb.get("mu", "numbers"),
                    sigma=[_Fields({"sigma": row}, "market").get("sigma", "numbers")
                           for row in mb.get("sigma", "list")],  # each row: a list
                    T=mb.get("T"))
    wealth = grids.get("wealth", "object", None)
    counts = {key: raw.get(key, "count", default, **spec) for key, default, spec
              in (("seed", 0, _SEED), ("paths", 100_000, _SIZE)) if key not in flags}
    return Scenario(
        market=market, utility=_parse_utility(raw.get("utility", "object").data),
        x0=raw.get("x0", **_FINITE), **counts, **flags,
        t_grid=tuple(grids.get("t", "numbers", [0.0], lambda t: 0.0 <= t < market.T,
                                   f"finite and in [0, {market.T}) (market.T)")),
        wealth_grid=wealth and WealthGrid(
            lo=wealth.get("lo", **_FINITE), hi=wealth.get("hi", **_FINITE),
            n=wealth.get("n", "count", None, **_SIZE)))


def load_scenario(path, seed_override=None, paths_override=None) -> Scenario:
    """The scenario file at ``path``; an input error is a PharaError whose
    message starts with "malformed scenario <path>:" and names the field."""
    flags = {key: _check(flag, f"--{key}", "count", **spec) for key, flag, spec
             in (("seed", seed_override, _SEED), ("paths", paths_override, _SIZE))
             if flag is not None}
    return _build(f"malformed scenario {path}", _scenario, path, flags)


def _strict(value):
    """value with every float +-inf replaced by the string "inf" / "-inf",
    which :func:`_check` reads back."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0.0 else "-inf"
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _write(path: Path, payload) -> None:
    """One artifact, its format by suffix: standard JSON (infinities as
    strings, no NaN) for ``.json``; for ``.csv``, a (header, rows) pair with
    every number at 17 significant digits."""
    if path.suffix == ".json":
        text = json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False)
    else:
        header, rows = payload
        text = "\n".join([header, *(",".join(map(_FMT.format, row)) for row in rows)])
    path.write_text(text + "\n")


# ---------------------------------------------------------------------------
# Commands: each evaluates at the envelope ``res`` and the dual solution
# ``sol`` (None for envelope) and returns ({file name: payload}, exit code)
# ---------------------------------------------------------------------------


def cmd_envelope(scn: Scenario, res: EnvelopeResult, sol: None, args):
    env = res.envelope
    table = {
        "a0": env.a0,
        "kinks": env.kinks(),
        "tangency_points": list(res.tangency_points),
        "chords": [list(c) for c in res.chords],
        "pieces": [{"a_lo": p.a_lo, "a_hi": p.a_hi, "R": p.R, "A": p.A, "alpha": p.alpha,
                    "gamma_plus": p.slope_lo, "u_plus": p.value_lo} for p in env.pieces],
    }
    finite = [p.a_lo for p in env.pieces]
    hi = finite[-1] + 2.0 * max(1.0, finite[-1] - env.a0)
    xs = np.linspace(env.a0, hi, args.grid)
    if scn.utility.value(env.a0) == NEG_INF:
        xs[0] = env.a0 + 1e-9 * (hi - env.a0)
    curve = zip(xs, scn.utility.value(xs), env.value(xs))
    return {"envelope.json": table, "envelope_curve.csv": ("x,U,U_envelope", curve)}, 0


def cmd_solve(scn: Scenario, res: EnvelopeResult, sol: DualSolution, args):
    return {"dual.json": asdict(sol)}, 0


def _wealth_axis(scn: Scenario, env: PharaUtility, t: float, grid_n: int) -> np.ndarray:
    grid = scn.wealth_grid
    if grid is not None:
        return np.linspace(grid.lo, grid.hi, grid_n if grid.n is None else grid.n)
    floor, ceiling = wealth_bounds(env, scn.market, t)
    if ceiling < INF:  # a flat tail: the axis stops short of its ceiling
        return np.linspace(floor, ceiling, grid_n + 1)[1:-1]
    a_n = env.pieces[-1].a_lo
    hi = scn.market.discount(t) * (a_n + 0.5 * max(1.0, a_n - env.a0))
    return np.linspace(floor, hi, grid_n)[1:]


def cmd_surface(scn: Scenario, res: EnvelopeResult, sol: DualSolution, args):
    if scn.market.m != 1:
        raise BadDimension("surface sweeps are one-dimensional")
    env = res.envelope
    blocks = []  # one lazy row iterator per time, over arrays already evaluated
    for t in scn.t_grid:
        xi = state_price_for_wealth(env, scn.market, sol.y_star, t,
                                    _wealth_axis(scn, env, t, args.grid))
        dec = portfolio_unified(env, scn.market, sol.y_star, t, xi)
        wealth = dec.wealth
        # split columns are fractions of wealth; NaN without a split
        split = [fraction_of_wealth(v[0], wealth, dec.wealth_rounding)
                 for v in dec.terms.values()] or [np.full_like(wealth, np.nan)] * len(SPLIT)
        blocks.append(zip(repeat(t), wealth, xi, dec.percentage[0], *split))
    header = ",".join(("t", "x", "xi", "percentage", *SPLIT))
    return {"surface.csv": (header, chain(*blocks))}, 0


def cmd_decompose(scn: Scenario, res: EnvelopeResult, sol: DualSolution, args):
    t, x, xi = args.t, args.x, args.xi
    if x is None and xi is None:
        raise IllegalCase("decompose needs --x or --xi")
    if x is not None:
        _check(x, "--x", "number", **_FINITE)
    if xi is not None:
        _check(xi, "--xi", "number", lambda v: 0.0 < v < INF, "finite and positive")
    env = res.envelope
    if xi is None:
        xi = state_price_for_wealth(env, scn.market, sol.y_star, t, x, xi_cap=INF)
    dec = portfolio_unified(env, scn.market, sol.y_star, t, xi)
    payload = {
        "t": t,
        "xi": xi,
        "y_star": sol.y_star,
        "wealth": {"total": dec.wealth,
                   **{name: v.tolist() for name, v in dec.families.items()}},
        "weights": {"p": dec.p.tolist(), "q": dec.q.tolist()},
        "portfolio": {key: v.tolist() for key, v in {
            **dec.terms, "total": dec.total, "percentage": dec.percentage}.items()},
    }
    return {"decompose.json": payload}, 0


def cmd_verify(scn: Scenario, res: EnvelopeResult, sol: DualSolution, args):
    env, T = res.envelope, scn.market.T
    reports = [verify_mod.mc_budget_check(env, scn.market, sol.y_star,
                                          scn.paths, scn.seed)]
    reports += [verify_mod.mc_martingale_check(env, scn.market, sol.y_star, t,
                                               scn.paths, scn.seed + 1 + i)
                for i, t in enumerate((T / 4, T / 2, 3 * T / 4))]
    reports += [verify_mod.fd_portfolio_check(env, scn.market, sol.y_star, t, xi)
                for t, xi in ((0.0, 1.0), (T / 2, 0.6), (T / 2, 1.7), (0.9 * T, 1.1))]
    reports.sort(key=lambda r: r.name)
    ok = all(r.passed for r in reports)
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: "
              f"computed={r.computed:.6g} oracle={r.oracle:.6g}")
    return {"verification.json": [asdict(r) for r in reports]}, 0 if ok else 1


def cmd_simulate(scn: Scenario, res: EnvelopeResult, sol: DualSolution, args):
    report = verify_mod.simulate_order_check(
        res.envelope, scn.market, sol.y_star, scn.x0, min(scn.paths, 10_000),
        args.steps, scn.seed)
    print(f"{'PASS' if report.passed else 'FAIL'} {report.name}: "
          f"gap ratio {report.computed:.4f} (target 0.5)")
    return {"simulation.json": asdict(report)}, 0 if report.passed else 1


_COMMANDS = {"envelope": cmd_envelope, "solve": cmd_solve, "surface": cmd_surface,
             "decompose": cmd_decompose, "verify": cmd_verify, "simulate": cmd_simulate}


# glibc's mallopt parameters; 32 MiB is the largest mmap threshold it accepts
# on a 64-bit host
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _settle_process() -> None:
    """Settings for a process that runs one command and exits.

    ``gc.freeze()`` puts every object alive now (the imports) out of the
    collector's reach.  The two ``mallopt`` values make glibc serve blocks
    below 32 MiB from the heap and keep up to 1 GiB of freed heap, so numpy's
    temporaries reuse pages already mapped; setting either value turns off
    glibc's own moving threshold, and the trim threshold alone would map
    every array of 128 KiB or more afresh.  Without glibc's ``mallopt``
    the allocator keeps its defaults."""
    gc.freeze()
    try:  # Windows opens no library by the name None: a TypeError
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def main(argv=None) -> int:
    if argv is None:  # run as the program
        _settle_process()
    parser = argparse.ArgumentParser(
        prog="phara",
        description="Closed-form optimal portfolios for piecewise-HARA utilities",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--scenario", required=True, help="scenario JSON path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--paths", type=int, default=None)
    parser.add_argument("--grid", type=int, default=201,
                        help="points per axis for curve/surface output")
    parser.add_argument("--steps", type=int, default=250,
                        help="coarse step count for simulate")
    parser.add_argument("--t", type=float, default=0.0, help="decompose time")
    parser.add_argument("--x", type=float, default=None, help="decompose wealth")
    parser.add_argument("--xi", type=float, default=None,
                        help="decompose state price (overrides --x)")
    args = parser.parse_args(argv)

    try:
        for name in ("grid", "steps"):
            _check(getattr(args, name), f"--{name}", "count", **_SIZE)
        scn = load_scenario(args.scenario, seed_override=args.seed,
                            paths_override=args.paths)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        res = concave_envelope(scn.utility)
        sol = (None if args.command == "envelope"
               else solve_multiplier(res.envelope, scn.market, scn.x0))
        artifacts, code = _COMMANDS[args.command](scn, res, sol, args)
        for name, payload in artifacts.items():
            _write(out / name, payload)
        return code
    except (PharaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
