"""Scenario-driven command line: envelope, solve, surface, decompose, verify, simulate.

A scenario is a JSON file holding the market block, the utility (explicit
piece list or a preference composed with a piecewise-linear payoff), the
initial wealth, grids, and reproducibility knobs.  Commands write JSON/CSV
artifacts into the output directory.  Exit codes: 0 success, 1 verification
failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .concavify import concave_envelope
from .errors import BadDimension, IllegalCase, PharaError
from .market import MarketParams, build_market
from .solver import (common_risk_aversion, portfolio_general, portfolio_unified,
                     solve_multiplier, state_price_for_wealth, wealth_process,
                     wealth_total, weights)
from .utility import (INF, NEG_INF, PharaPiece, PharaUtility,
                      PiecewiseLinearPayoff, compose, s_shaped_utility)

_FMT = "{:.17g}"


def _num(x):
    """Parse a JSON number that may be the strings 'inf' / '-inf'."""
    if isinstance(x, str):
        if x.lower() in ("inf", "+inf", "infinity"):
            return INF
        if x.lower() in ("-inf", "-infinity"):
            return NEG_INF
        return float(x)
    return float(x)


@dataclass(frozen=True)
class Scenario:
    market: MarketParams
    utility: PharaUtility
    x0: float
    seed: int
    paths: int
    t_grid: tuple[float, ...]
    wealth_grid: dict | None
    raw: dict

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.raw, indent=2, sort_keys=True) + "\n")


def _parse_utility(block: dict) -> PharaUtility:
    if "pieces" in block:
        a0 = _num(block["a0"])
        entries = block["pieces"]
        bounds = [_num(e["a_lo"]) for e in entries] + [INF]
        pieces = []
        for e, lo, hi in zip(entries, bounds, bounds[1:]):
            R = _num(e["R"])
            A = _num(e.get("A", "-inf"))
            alpha = _num(e["alpha"]) if "alpha" in e else None
            if "anchor" in e:
                anc = e["anchor"]
                piece = PharaPiece(a_lo=lo, a_hi=hi, R=R, A=A, alpha=alpha,
                                   anchor_x=_num(anc["x"]), anchor_u=_num(anc["u"]),
                                   anchor_slope=_num(anc["slope"]))
            else:
                piece = PharaPiece(a_lo=lo, a_hi=hi, R=R, A=A, alpha=alpha,
                                   anchor_x=lo, anchor_u=_num(e["u_plus"]),
                                   anchor_slope=_num(e["gamma_plus"]))
            pieces.append(piece)
        return PharaUtility(a0=a0, pieces=tuple(pieces),
                            a0_included=bool(block.get("a0_included", True)))

    if "preference" in block:
        pay = block["payoff"]
        payoff = PiecewiseLinearPayoff(
            domain_lo=_num(pay.get("floor", pay.get("domain_lo", 0.0))),
            value_lo=_num(pay.get("value_lo", 0.0)),
            breakpoints=tuple(_num(b) for b in pay.get("breakpoints", ())),
            slopes=tuple(_num(s) for s in pay["slopes"]),
        )
        pref_block = block["preference"]
        kind = pref_block.get("type", "s_shaped")
        if kind == "s_shaped":
            # built on the payoff's range [value_lo, inf)
            pref = s_shaped_utility(
                reference=_num(pref_block.get("reference", 0.0)),
                gain_exponent=_num(pref_block["gain_exponent"]),
                a0=payoff.value_lo,
                loss_exponent=(_num(pref_block["loss_exponent"])
                               if "loss_exponent" in pref_block else None),
                loss_weight=_num(pref_block.get("loss_weight", 1.0)),
            )
        elif kind == "phara":
            pref = _parse_utility(pref_block)
        else:
            raise IllegalCase(f"unknown preference type {kind!r}")
        return compose(pref, payoff)

    raise IllegalCase("utility block needs either 'pieces' or 'preference'+'payoff'")


def load_scenario(path, seed_override=None, paths_override=None) -> Scenario:
    raw = json.loads(Path(path).read_text())
    mb = raw["market"]
    market = build_market(r=_num(mb["r"]), mu=[_num(v) for v in mb["mu"]],
                          sigma=[[_num(v) for v in row] for row in mb["sigma"]],
                          T=_num(mb["T"]))
    utility = _parse_utility(raw["utility"])
    grids = raw.get("grids", {})
    paths = int(paths_override if paths_override is not None else raw.get("paths", 100_000))
    if paths < 2:
        # a standard error needs at least two samples
        raise BadDimension(f"paths must be >= 2, got {paths}")
    return Scenario(
        market=market,
        utility=utility,
        x0=_num(raw["x0"]),
        seed=int(seed_override if seed_override is not None else raw.get("seed", 0)),
        paths=paths,
        t_grid=tuple(_num(t) for t in grids.get("t", (0.0,))),
        wealth_grid=grids.get("wealth"),
        raw=raw,
    )


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_row(values) -> str:
    return ",".join(_FMT.format(v) for v in values)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_envelope(scn: Scenario, out: Path, grid_n: int) -> int:
    res = concave_envelope(scn.utility)
    env = res.envelope
    table = {
        "a0": env.a0,
        "kinks": res.kinks,
        "tangency_points": list(res.tangency_points),
        "chords": [list(c) for c in res.chords],
        "pieces": [
            {
                "a_lo": p.a_lo,
                "a_hi": p.a_hi if np.isfinite(p.a_hi) else "inf",
                "R": p.R if np.isfinite(p.R) else "inf",
                "A": p.A if np.isfinite(p.A) else "-inf",
                "alpha": p.alpha,
                "gamma_plus": p.slope_lo if np.isfinite(p.slope_lo) else "inf",
                "u_plus": p.value_lo,
            }
            for p in env.pieces
        ],
    }
    _write_json(out / "envelope.json", table)

    finite = [p.a_lo for p in env.pieces]
    hi = finite[-1] + 2.0 * max(1.0, finite[-1] - env.a0)
    xs = np.linspace(env.a0, hi, grid_n)
    if not np.isfinite(scn.utility.value_at_a0):
        xs[0] = env.a0 + 1e-9 * (hi - env.a0)
    raw_v = scn.utility.value(xs)
    env_v = env.value(xs)
    lines = ["x,U,U_envelope"]
    lines += [_csv_row(row) for row in zip(xs, raw_v, env_v)]
    (out / "envelope_curve.csv").write_text("\n".join(lines) + "\n")
    return 0


def cmd_solve(scn: Scenario, out: Path) -> int:
    env = concave_envelope(scn.utility).envelope
    sol = solve_multiplier(env, scn.market, scn.x0)
    _write_json(out / "dual.json", {
        "y_star": sol.y_star,
        "budget_residual": sol.budget_residual,
        "bracket": list(sol.bracket),
        "x0": sol.x0,
        "feasible_floor": sol.feasible_floor,
    })
    return 0


def _wealth_axis(scn: Scenario, env: PharaUtility, t: float, grid_n: int) -> np.ndarray:
    tau = scn.market.T - t
    disc = math.exp(-scn.market.r * tau)
    if scn.wealth_grid is not None:
        lo = _num(scn.wealth_grid["lo"])
        hi = _num(scn.wealth_grid["hi"])
        n = int(scn.wealth_grid.get("n", grid_n))
        axis = np.linspace(lo, hi, n)
        if bool(scn.wealth_grid.get("discounted", False)):
            axis = axis * disc
        return axis
    knots = [p.a_lo for p in env.pieces]
    hi = disc * (knots[-1] + 0.5 * (knots[-1] - env.a0))
    lo = disc * env.a0
    return np.linspace(lo, hi, grid_n)[1:]


def cmd_surface(scn: Scenario, out: Path, grid_n: int) -> int:
    if scn.market.m != 1:
        raise PharaError("surface sweeps are one-dimensional")
    env = concave_envelope(scn.utility).envelope
    sol = solve_multiplier(env, scn.market, scn.x0)
    try:
        common_risk_aversion(env)
        unified = True
    except PharaError:
        unified = False

    lines = ["t,x,xi,percentage,merton,risk_seeking,loss_aversion,first_order_ra"]
    for t in scn.t_grid:
        axis = _wealth_axis(scn, env, t, grid_n)
        positive = axis > 0.0
        xi = state_price_for_wealth(env, scn.market, sol.y_star, t, axis[positive])
        if unified:
            dec = portfolio_unified(env, scn.market, sol.y_star, t, xi)
            wealth = dec.wealth
            cols = [dec.percentage[0], *(v[0] / wealth for v in dec.terms.values())]
        else:
            wealth = wealth_total(env, scn.market, sol.y_star, t, xi)
            pi = portfolio_general(env, scn.market, sol.y_star, t, xi)[0]
            pct = np.divide(pi, wealth, out=np.zeros_like(pi), where=wealth != 0.0)
            cols = [pct] + [np.full_like(pct, np.nan)] * 4
        rows = zip(wealth, xi, *cols)
        for x, pos in zip(axis, positive):
            lines.append(_csv_row([t, *next(rows)] if pos
                                  else [t, x, INF, 0, 0, 0, 0, 0]))
    (out / "surface.csv").write_text("\n".join(lines) + "\n")
    return 0


def cmd_decompose(scn: Scenario, out: Path, t: float, x: float | None,
                  xi: float | None) -> int:
    env = concave_envelope(scn.utility).envelope
    sol = solve_multiplier(env, scn.market, scn.x0)
    if xi is None:
        if x is None:
            raise PharaError("decompose needs --x or --xi")
        xi = state_price_for_wealth(env, scn.market, sol.y_star, t, x)
    wd = wealth_process(env, scn.market, sol.y_star, t, xi)
    wv = weights(env, scn.market, sol.y_star, t, xi)
    payload = {
        "t": t,
        "xi": xi,
        "y_star": sol.y_star,
        "wealth": {
            "total": wd.total,
            "kink_terms": wd.xD.tolist(),
            "benchmark_terms": wd.xA.tolist(),
            "cara_level_terms": wd.xAbar.tolist(),
            "curvature_terms": wd.xR.tolist(),
            "cara_curvature_terms": wd.xRbar.tolist(),
        },
        "weights": {"p": wv.p.tolist(), "q": wv.q.tolist()},
    }
    try:
        dec = portfolio_unified(env, scn.market, sol.y_star, t, xi)
        payload["portfolio"] = {
            "merton": dec.merton.tolist(),
            "risk_seeking": dec.risk_seeking.tolist(),
            "loss_aversion": dec.loss_aversion.tolist(),
            "first_order_ra": dec.first_order_ra.tolist(),
            "total": dec.total.tolist(),
            "percentage": dec.percentage.tolist(),
        }
    except PharaError:
        pi = portfolio_general(env, scn.market, sol.y_star, t, xi)
        payload["portfolio"] = {"total": pi.tolist()}
    _write_json(out / "decompose.json", payload)
    return 0


def cmd_verify(scn: Scenario, out: Path) -> int:
    env = concave_envelope(scn.utility).envelope
    sol = solve_multiplier(env, scn.market, scn.x0)
    T = scn.market.T
    jobs = [
        lambda: verify_mod.mc_budget_check(env, scn.market, sol.y_star,
                                           scn.paths, scn.seed),
    ]
    for i, t in enumerate((T / 4, T / 2, 3 * T / 4)):
        jobs.append(lambda t=t, i=i: verify_mod.mc_martingale_check(
            env, scn.market, sol.y_star, t, scn.paths, scn.seed + 1 + i))
    for t, xi in ((0.0, 1.0), (T / 2, 0.6), (T / 2, 1.7), (0.9 * T, 1.1)):
        jobs.append(lambda t=t, xi=xi: verify_mod.fd_portfolio_check(
            env, scn.market, sol.y_star, t, xi))
    reports = verify_mod.run_reports(jobs)
    _write_json(out / "verification.json", [r.to_dict() for r in reports])
    ok = all(r.passed for r in reports)
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: "
              f"computed={r.computed:.6g} oracle={r.oracle:.6g}")
    return 0 if ok else 1


def cmd_simulate(scn: Scenario, out: Path, steps: int) -> int:
    env = concave_envelope(scn.utility).envelope
    report = verify_mod.simulate_order_check(
        env, scn.market, scn.x0, min(scn.paths, 10_000), steps, 4 * steps,
        scn.seed)
    _write_json(out / "simulation.json", report.to_dict())
    print(f"{'PASS' if report.passed else 'FAIL'} {report.name}: "
          f"gap ratio {report.computed:.4f} (target 0.5)")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="phara",
        description="Closed-form optimal portfolios for piecewise-HARA utilities",
    )
    parser.add_argument("command",
                        choices=["envelope", "solve", "surface", "decompose",
                                 "verify", "simulate"])
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
        if args.grid < 2:
            raise BadDimension(f"--grid must be >= 2, got {args.grid}")
        scn = load_scenario(args.scenario, seed_override=args.seed,
                            paths_override=args.paths)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "envelope":
            return cmd_envelope(scn, out, args.grid)
        if args.command == "solve":
            return cmd_solve(scn, out)
        if args.command == "surface":
            return cmd_surface(scn, out, args.grid)
        if args.command == "decompose":
            return cmd_decompose(scn, out, args.t, args.x, args.xi)
        if args.command == "verify":
            return cmd_verify(scn, out)
        return cmd_simulate(scn, out, args.steps)
    except (PharaError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
