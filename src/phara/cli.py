"""Scenario-driven command line: envelope, solve, surface, decompose, verify, simulate.

A scenario is a JSON file holding the market block, the utility (explicit piece
list or a preference composed with a piecewise-linear payoff), the initial
wealth, grids, and reproducibility knobs.  ``main`` runs every command through
one pipeline: check the count flags (--grid, --steps, --seed, --paths), load
the scenario, put --seed and --paths in it, make the output directory, build
the concave envelope, solve the dual for y* (all but ``envelope``), evaluate
(``cmd_<name>``, which checks its own flags: decompose's --t, --x and --xi), write
the JSON/CSV artifacts the evaluation returned, and return its exit code: 0
success, 1 verification failure, 2 input error.  No artifact is written unless
the evaluation returns.  Every command takes any number of risky assets.

``run`` is the program (``phara`` or ``python -m phara.cli``): it settles the
process for one command and exit, then calls ``main``, which never does.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import sys
from collections import Counter
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

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
# fields of earlier versions, still accepted and ignored
_DROPPED = ("utility.a0_included", "grids.wealth.discounted")


def _times(market: MarketParams) -> dict:  # the range of grids.t's entries and --t
    return dict(ok=lambda t: 0.0 <= t < market.T, rule=f"finite and in [0, {market.T}) (market.T)")


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
        got = ("a list" if isinstance(value, list) else "an object" if isinstance(value, dict)
               else json.dumps(value))
        raise BadDimension(f"{field} must be {rule or _NOUNS[kind]}, got {got}")
    return parsed


def _numbers(value, name: str, ok=None, rule: str | None = None) -> list:
    """value read as a list of numbers that each pass ``ok``."""
    return [_check(v, f"{name} entries", "number", ok, rule) for v in _check(value, name, "list")]


class _JsonObject(dict):
    """A JSON object of a scenario file (the ``json.loads`` hook): its field path,
    given when it is read, how often the file holds each key, and the keys read."""

    def __init__(self, pairs):
        super().__init__(pairs)  # a repeated key keeps its last value
        self.read, self.counts = set(), Counter(key for key, _ in pairs)

    @classmethod
    def at(cls, value, path: str) -> _JsonObject:
        """value read as the JSON object at ``path``, such as ``utility.pieces[2]``."""
        obj = _check(value, path or "the scenario", "object")
        obj = obj if isinstance(obj, cls) else cls(obj.items())
        obj.path, obj.prefix = path, f"{path}." if path else ""
        return obj

    def field(self, key: str, kind="number", default=_MISSING, ok=None, rule=None):
        """The value at ``key`` read as a ``kind``; "numbers": a list of numbers passing ``ok``."""
        name = self.prefix + key
        if key not in self:
            if default is _MISSING:
                raise BadDimension(f"{name} is missing")
            return default
        self.read.add(key)
        if kind == "numbers":
            return _numbers(self[key], name, ok, rule)
        return (_JsonObject.at(self[key], name) if kind == "object"
                else _check(self[key], name, kind, ok, rule))

    def check_keys(self) -> None:
        """A BadDimension naming the first key, in file order, repeated or never read."""
        for key, value in self.items():
            name = self.prefix + key
            if self.counts[key] > 1:
                raise BadDimension(f"{name} is repeated")
            if key in self.read:  # a list read holds objects or numbers
                for entry in value if isinstance(value, list) else [value]:
                    if isinstance(entry, _JsonObject):
                        entry.check_keys()
            elif name not in _DROPPED:
                raise BadDimension(f"{name} is not used")


def _build(field: str, make, *args, **kwargs):
    """make(*args, **kwargs), its PharaError re-raised with ``field`` as a prefix."""
    try:
        return make(*args, **kwargs)
    except PharaError as exc:
        raise type(exc)(f"{field}: {exc}") from exc


class WealthGrid(NamedTuple):  # the scenario's grids.wealth block
    lo: float
    hi: float
    n: int | None  # None: --grid points


class Scenario(NamedTuple):
    market: MarketParams
    utility: PharaUtility
    x0: float
    seed: int
    paths: int
    t_grid: tuple[float, ...]
    wealth_grid: WealthGrid | None


def _parse_utility(value, path: str = "utility") -> PharaUtility:
    block = _JsonObject.at(value, path)
    if "pieces" in block:
        entries = [_JsonObject.at(v, f"{path}.pieces[{i}]")
                   for i, v in enumerate(block.field("pieces", "list"))]
        bounds = [e.field("a_lo") for e in entries] + [INF]
        pieces = []
        for e, lo, hi in zip(entries, bounds, bounds[1:]):
            anc = e.field("anchor", "object", None)
            x, u, slope = ((lo, e.field("u_plus"), e.field("gamma_plus")) if anc is None
                           else (anc.field("x"), anc.field("u"), anc.field("slope")))
            pieces.append(_build(e.path, PharaPiece, a_lo=lo, a_hi=hi, R=e.field("R"),
                                 A=e.field("A", default=NEG_INF),
                                 alpha=e.field("alpha", default=None),
                                 anchor_x=x, anchor_u=u, anchor_slope=slope))
        return _build(path, PharaUtility, a0=block.field("a0"), pieces=tuple(pieces))

    if "preference" in block:
        pay = block.field("payoff", "object")
        payoff = _build(pay.path, piecewise_linear_payoff,
                        a0=pay.field("floor", default=0.0),
                        value_lo=pay.field("value_lo", default=0.0),
                        breakpoints=tuple(pay.field("breakpoints", "numbers", [])),
                        slopes=tuple(pay.field("slopes", "numbers")))
        pref = block.field("preference", "object")
        if pref.field("type", "text", "s_shaped", ("s_shaped", "phara").__contains__,
                      '"s_shaped" or "phara"') == "phara":
            preference = _parse_utility(pref, pref.path)
        else:  # built on the payoff's range [value_lo, inf)
            preference = _build(pref.path, s_shaped_utility, a0=payoff.pieces[0].value_lo,
                                reference=pref.field("reference", default=0.0),
                                gain_exponent=pref.field("gain_exponent"),
                                loss_exponent=pref.field("loss_exponent", default=None),
                                loss_weight=pref.field("loss_weight", default=1.0))
        return _build(path, compose, preference, payoff)

    raise BadDimension(f"{path} needs either 'pieces' or 'preference' and 'payoff'")


def _scenario(path) -> Scenario:
    try:
        text = json.loads(Path(path).read_text(), object_pairs_hook=_JsonObject)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise BadDimension(f"not JSON: {exc}") from exc
    raw = _JsonObject.at(text, "")
    mb = raw.field("market", "object")
    grids = raw.field("grids", "object", _JsonObject.at({}, "grids"))
    market = _build("market", build_market, r=mb.field("r"), mu=mb.field("mu", "numbers"),
                    sigma=[_numbers(row, "market.sigma") for row in mb.field("sigma", "list")],
                    T=mb.field("T"))
    wealth = grids.field("wealth", "object", None)
    scenario = Scenario(
        market=market, utility=_parse_utility(raw.field("utility", "object")),
        x0=raw.field("x0", **_FINITE), seed=raw.field("seed", "count", 0, **_SEED),
        paths=raw.field("paths", "count", 100_000, **_SIZE),
        t_grid=tuple(grids.field("t", "numbers", [0.0], **_times(market))),
        wealth_grid=None if wealth is None else WealthGrid(
            lo=wealth.field("lo", **_FINITE), hi=wealth.field("hi", **_FINITE),
            n=wealth.field("n", "count", None, **_SIZE)))
    if not scenario.t_grid:
        raise BadDimension("grids.t must hold at least one time")
    raw.check_keys()  # once every field is read
    return scenario


def load_scenario(path) -> Scenario:
    """The scenario file at ``path``; an input error is a PharaError whose
    message starts with "malformed scenario <path>:" and names the field."""
    return _build(f"malformed scenario {path}", _scenario, path)


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
    return {"dual.json": sol._asdict()}, 0


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
    env, m = res.envelope, scn.market.m
    blocks = []  # one lazy row iterator per time, over arrays already evaluated
    for t in scn.t_grid:
        xi = state_price_for_wealth(env, scn.market, sol.y_star, t,
                                    _wealth_axis(scn, env, t, args.grid))
        dec = portfolio_unified(env, scn.market, sol.y_star, t, xi)
        # split columns are fractions of wealth; NaN without a split
        split = [fraction_of_wealth(v, dec.wealth, dec.wealth_rounding) for v in
                 dec.terms.values()] or [np.full_like(dec.percentage, np.nan)] * len(SPLIT)
        blocks.append(zip(repeat(t), dec.wealth, xi, *dec.percentage, *chain(*split)))
    # one column per asset and name, suffixed _1 ... _m when m > 1
    names = [f"{n}_{i}" if m > 1 else n for n in ("percentage", *SPLIT) for i in range(1, m + 1)]
    return {"surface.csv": (",".join(("t", "x", "xi", *names)), chain(*blocks))}, 0


def cmd_decompose(scn: Scenario, res: EnvelopeResult, sol: DualSolution, args):
    t, x, xi = args.t, args.x, args.xi
    if x is None and xi is None:
        raise IllegalCase("decompose needs --x or --xi")
    _check(t, "--t", "number", **_times(scn.market))
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
    reports += [verify_mod.fd_portfolio_check(env, scn.market, sol.y_star, f * T, xi)
                for f, xi in verify_mod.FD_POINTS]
    reports.sort(key=lambda r: r.name)
    ok = all(r.passed for r in reports)
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: "
              f"computed={r.computed:.6g} oracle={r.oracle:.6g}")
    return {"verification.json": [r._asdict() for r in reports]}, 0 if ok else 1


def cmd_simulate(scn: Scenario, res: EnvelopeResult, sol: DualSolution, args):
    report = verify_mod.simulate_order_check(
        res.envelope, scn.market, sol.y_star, scn.x0, min(scn.paths, 10_000),
        args.steps, scn.seed)
    print(f"{'PASS' if report.passed else 'FAIL'} {report.name}: "
          f"gap ratio {report.computed:.4f} (target 0.5)")
    return {"simulation.json": report._asdict()}, 0 if report.passed else 1


_COMMANDS = {"envelope": cmd_envelope, "solve": cmd_solve, "surface": cmd_surface,
             "decompose": cmd_decompose, "verify": cmd_verify, "simulate": cmd_simulate}


# glibc's mallopt parameters; 32 MiB is the largest mmap threshold it accepts
# on a 64-bit host
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _settle_process() -> None:
    """Settings for a process that runs one command and exits.

    ``gc.freeze()`` puts every object alive now (the imports) out of the
    collector's reach, in every collection, the final one at exit included.
    The two ``mallopt`` values make glibc serve blocks
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
        for key, spec in (("grid", _SIZE), ("steps", _SIZE), ("seed", _SEED), ("paths", _SIZE)):
            if getattr(args, key) is not None:  # an unset --seed or --paths keeps the file's
                _check(getattr(args, key), f"--{key}", "count", **spec)
        flags = {k: v for k, v in vars(args).items() if k in ("seed", "paths") and v is not None}
        scn = load_scenario(args.scenario)._replace(**flags)
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


def run() -> int:
    """The ``phara`` program: ``main`` on the command line, in a settled process."""
    _settle_process()
    return main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(run())
