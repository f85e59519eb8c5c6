import ctypes
import gc
import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from conftest import (ROOT, SCENARIOS, bundled, crra_multiplier, same,
                      strict_json as _strict_json)
from phara import cli
from phara.cli import _check, _parse_utility, _settle_process, load_scenario, main
from phara.concavify import concave_envelope
from phara.errors import PharaError
from phara.solver import (optimal_terminal_wealth, portfolio_general, solve_multiplier,
                          wealth_total)
from phara.utility import INF

DELETE = same.DELETE


def run(args):
    return main([str(a) for a in args])


def _csv(path):
    return np.array([r.split(",") for r in path.read_text().splitlines()[1:]],
                    dtype=float)


class TestScenarioIO:
    def test_integral_floats_and_default_wealth_n(self, tmp_path):
        path = same.write_scenario(tmp_path / "floats.json", "multi_kink_demo", {
            "seed": 7.0, "paths": 100000.0, "grids.wealth.n": DELETE})
        scn = load_scenario(path)
        assert (scn.seed, scn.paths, scn.wealth_grid.n) == (7, 100000, None)
        assert run(["surface", "--scenario", path, "--out", tmp_path,
                    "--grid", "7"]) == 0
        rows = (tmp_path / "surface.csv").read_text().splitlines()[1:]
        assert len(rows) == 7 * len(scn.t_grid)

    def test_dropped_wealth_grid_key_is_ignored(self, tmp_path):
        # grids.wealth.discounted, a flag of earlier versions, loads as the
        # file without it (a market compares by identity); its value is never read
        for value in (True, {"unread": 1}):
            path = same.write_scenario(tmp_path / "old.json", "multi_kink_demo",
                                       {"grids.wealth.discounted": value})
            assert (load_scenario(path)._replace(market=None)
                    == bundled("multi_kink_demo")._replace(market=None))


class TestEnvelopeCommand:
    def test_demo_outputs(self, tmp_path):
        assert run(["envelope", "--scenario", SCENARIOS / "multi_kink_demo.json",
                    "--out", tmp_path, "--grid", "101"]) == 0
        table = json.loads((tmp_path / "envelope.json").read_text())
        assert table["kinks"] == pytest.approx([4.0, 4.4, 12.0, 40.0])
        assert table["tangency_points"][0] == pytest.approx(28.0, abs=1e-9)
        csv = (tmp_path / "envelope_curve.csv").read_text().splitlines()
        assert csv[0] == "x,U,U_envelope"
        assert len(csv) == 102
        cols = np.array([row.split(",") for row in csv[1:]], dtype=float)
        assert np.all(cols[:, 2] >= cols[:, 1] - 1e-10)

    def test_concave_input_no_chords(self, tmp_path):
        assert run(["envelope", "--scenario", SCENARIOS / "crra.json",
                    "--out", tmp_path]) == 0
        table = json.loads((tmp_path / "envelope.json").read_text())
        assert table["chords"] == []

    @pytest.mark.parametrize("R", [0.5, 2.0])
    def test_curve_starts_where_u_is_finite(self, tmp_path, R):
        # the curve starts at a0 where U(a0) is finite (R = 0.5: U(0) = 0),
        # and just above it where U(a0) = -inf (R = 2)
        path = same.write_scenario(tmp_path / "s.json", "crra", {
            "utility.pieces.0.R": R,
            "utility.pieces.0.anchor": {"x": 1.0, "u": 1.0 / (1.0 - R), "slope": 1.0}})
        assert run(["envelope", "--scenario", path, "--out", tmp_path, "--grid", "11"]) == 0
        rows = (tmp_path / "envelope_curve.csv").read_text().splitlines()[1:]
        cols = np.array([row.split(",") for row in rows], dtype=float)
        assert np.isfinite(cols).all()
        assert (cols[0, 0] == 0.0) == (R < 1.0) and cols[0, 0] < cols[1, 0]

    def test_contract_tangency(self, tmp_path):
        assert run(["envelope", "--scenario",
                    SCENARIOS / "participating_contract.json",
                    "--out", tmp_path]) == 0
        table = json.loads((tmp_path / "envelope.json").read_text())
        assert table["tangency_points"][0] == pytest.approx(2.0, abs=1e-9)

    def test_seventeen_digit_csv(self, tmp_path):
        run(["envelope", "--scenario", SCENARIOS / "multi_kink_demo.json",
             "--out", tmp_path, "--grid", "11"])
        rows = (tmp_path / "envelope_curve.csv").read_text().splitlines()[1:]
        for row in rows:
            for field in row.split(","):
                assert float(field) == float(repr(float(field)))


class TestSolveCommand:
    def test_crra(self, tmp_path, market):
        assert run(["solve", "--scenario", SCENARIOS / "crra.json",
                    "--out", tmp_path]) == 0
        sol = json.loads((tmp_path / "dual.json").read_text())
        x0 = 10.0  # crra.json: R = 0.5
        assert sol["y_star"] == pytest.approx(crra_multiplier(market, 0.5, x0), rel=1e-9)
        assert abs(sol["budget_residual"]) <= 1e-10 * x0

    @pytest.mark.parametrize("included", [False, True])
    def test_old_domain_key_is_ignored(self, tmp_path, included):
        # a file that still carries utility.a0_included loads as the file
        # without it, and solve writes the same dual.json
        for name, edit in (("new", {}), ("old", {"utility.a0_included": included})):
            path = same.write_scenario(tmp_path / f"{name}.json", "crra", edit)
            assert run(["solve", "--scenario", path, "--out", tmp_path / name]) == 0
        assert (load_scenario(tmp_path / "old.json").utility
                == load_scenario(tmp_path / "new.json").utility)
        assert ((tmp_path / "old" / "dual.json").read_bytes()
                == (tmp_path / "new" / "dual.json").read_bytes())

    def test_old_domain_key_keeps_a_finite_floor(self):
        # a convex power piece on [0, 1) below a concave tail, in a block
        # that still says a0_included false: the envelope's chord starts at
        # a0, which is the terminal wealth at state prices above the chord's
        # slope, and U(a0) = 0 there
        u = _parse_utility({"a0": 0.0, "a0_included": False, "pieces": [
            {"a_lo": 0.0, "R": 0.5, "A": 2.0, "anchor": {"x": 0.0, "u": 0.0, "slope": 0.5}},
            {"a_lo": 1.0, "R": 0.5, "A": 0.0,
             "anchor": {"x": 1.0, "u": 2.0 - math.sqrt(2.0), "slope": 0.5}}]})
        ((lo, hi, slope),) = concave_envelope(u).chords
        assert (lo, hi) == (0.0, 1.0) and slope == pytest.approx(2.0 - math.sqrt(2.0))
        x = optimal_terminal_wealth(concave_envelope(u).envelope, 1.0,
                                    np.array([0.6, 1.0, 10.0]))
        assert np.all(x == 0.0) and np.all(u.value(x) == 0.0)

    def test_contract(self, tmp_path, contract_dual):
        assert run(["solve", "--scenario",
                    SCENARIOS / "participating_contract.json",
                    "--out", tmp_path]) == 0
        sol = json.loads((tmp_path / "dual.json").read_text())
        assert sol["y_star"] == pytest.approx(contract_dual.y_star, rel=1e-10)


class TestSurfaceCommand:
    def test_crra_constant(self, tmp_path):
        assert run(["surface", "--scenario", SCENARIOS / "crra.json",
                    "--out", tmp_path, "--grid", "25"]) == 0
        rows = (tmp_path / "surface.csv").read_text().splitlines()
        assert rows[0] == "t,x,xi,percentage,merton,risk_seeking," \
                          "loss_aversion,first_order_ra"
        data = np.array([r.split(",") for r in rows[1:]], dtype=float)
        assert np.allclose(data[:, 3], 0.8, atol=1e-10)

    def test_inversion_consistency(self, tmp_path, market, demo_envelope,
                                   demo_dual):
        from phara.solver import wealth_total
        assert run(["surface", "--scenario", SCENARIOS / "multi_kink_demo.json",
                    "--out", tmp_path, "--grid", "30"]) == 0
        rows = (tmp_path / "surface.csv").read_text().splitlines()[1:]
        data = np.array([r.split(",") for r in rows], dtype=float)
        for t, x, xi in data[:, :3]:
            back = wealth_total(demo_envelope.envelope, market,
                                demo_dual.y_star, t, xi)
            assert back == pytest.approx(x, rel=1e-8)
        # the four split columns add up to the percentage column
        assert np.allclose(data[:, 4:].sum(axis=1), data[:, 3],
                           rtol=1e-9, atol=1e-12)
        # the demo's r, T and |theta| in 2 and 3 assets: the same x and xi,
        # the split adds up per asset, and a percentage row is a scalar s
        # times (sigma^T)^{-1} theta: |sigma^T row| = |theta| s, which is
        # sigma = 0.3 times the demo's percentage theta s / sigma
        same.GOLDEN_GROUPS["multi"](tmp_path / "multi")
        for m in (2, 3):
            path = tmp_path / "multi" / f"demo_m{m}.json"
            assert run(["surface", "--scenario", path, "--out", tmp_path / path.stem]) == 0
            rows = (tmp_path / path.stem / "surface.csv").read_text().splitlines()
            assert rows[0] == ",".join(["t", "x", "xi"] + [
                f"{n}_{i}" for n in ("percentage", "merton", "risk_seeking", "loss_aversion",
                                     "first_order_ra") for i in range(1, m + 1)])
            multi = np.array([r.split(",") for r in rows[1:]], dtype=float)
            assert np.allclose(multi[:, :3], data[:, :3], rtol=1e-12, atol=0.0)
            pct, split = multi[:, 3:3 + m], multi[:, 3 + m:].reshape(-1, 4, m)
            assert np.allclose(split.sum(axis=1), pct, rtol=1e-9, atol=1e-12)
            sigma = load_scenario(path).market.sigma
            assert np.allclose(np.linalg.norm(pct @ sigma, axis=1), 0.3 * data[:, 3],
                               rtol=1e-12, atol=0.0)

    def test_default_wealth_axis(self, tmp_path):
        # without grids.wealth, --grid points from e^{-r(T-t)} a0 to
        # e^{-r(T-t)} (a_n + (a_n - a0)/2) over the envelope's last knot
        # a_n = 40, the first point dropped
        path = same.write_scenario(tmp_path / "no_axis.json", "multi_kink_demo",
                                   {"grids.wealth": DELETE})
        assert run(["surface", "--scenario", path, "--out", tmp_path,
                    "--grid", "5"]) == 0
        data = _csv(tmp_path / "surface.csv")
        t_grid = load_scenario(path).t_grid
        assert data.shape == (4 * len(t_grid), 8)
        for t in t_grid:
            disc = math.exp(-0.05 * (10.0 - t))
            axis = np.linspace(disc * 4.0, disc * (40.0 + 0.5 * 36.0), 5)[1:]
            assert np.allclose(data[data[:, 0] == t, 1], axis, rtol=1e-10)

    def test_default_wealth_axis_one_piece(self, tmp_path):
        # a_n = a0 = 0 on crra: the span max(1, a_n - a0) keeps the axis
        # above the floor instead of collapsing every level onto it
        path = same.write_scenario(tmp_path / "no_axis.json", "crra", {"grids.wealth": DELETE})
        assert run(["surface", "--scenario", path, "--out", tmp_path,
                    "--grid", "6"]) == 0
        data = _csv(tmp_path / "surface.csv")
        scn = load_scenario(path)
        env = concave_envelope(scn.utility).envelope
        y = solve_multiplier(env, scn.market, scn.x0).y_star
        for t in scn.t_grid:
            _, x, xi = data[data[:, 0] == t, :3].T
            assert x.size == 5 and np.all(x > 0.0) and np.all(np.diff(x) > 0.0)
            back = wealth_total(env, scn.market, y, t, xi)
            assert np.allclose(back, x, rtol=1e-8, atol=0.0)

    def test_cara_levels_at_and_below_zero(self, tmp_path):
        # an exponential piece from a0 = -5: wealth in (-5 e^{-r(T-t)}, 0]
        # is attainable and gets its own state price, not xi = inf
        path = same.write_scenario(tmp_path / "cara.json", "crra", {
            "utility": {"a0": -5.0, "pieces": [{"a_lo": -5.0, "R": "inf", "alpha": 0.5,
                                                "anchor": {"x": 0.0, "u": 0.0, "slope": 1.0}}]},
            "grids.wealth": {"lo": -3.0, "hi": 3.0, "n": 7}})
        assert run(["surface", "--scenario", path, "--out", tmp_path]) == 0
        data = _csv(tmp_path / "surface.csv")
        scn = load_scenario(path)
        env = concave_envelope(scn.utility).envelope
        y = solve_multiplier(env, scn.market, scn.x0).y_star
        axis = np.linspace(-3.0, 3.0, 7)
        for t in scn.t_grid:
            _, x, xi, pct = data[data[:, 0] == t, :4].T
            assert np.all(axis > -5.0 * scn.market.discount(t))
            assert np.all(xi < 1e18)
            assert np.allclose(x, axis, rtol=0.0, atol=1e-8)
            assert np.allclose(wealth_total(env, scn.market, y, t, xi), axis,
                               rtol=0.0, atol=1e-8)
            assert np.all(pct[axis < 0.0] != 0.0)
            assert np.all(pct[axis == 0.0] == 0.0)  # wealth zero to rounding


def _two_risk_aversions(tmp_path):
    """The demo market with sqrt gains up to 2 and an R = 2 tail: no common R;
    the multi group's two_R_m2 scenario in one asset."""
    base, edit = same.MULTI["two_R_m2"]
    path = same.write_scenario(tmp_path / "two_R.json", base,
                               {k: v for k, v in edit.items() if k != "market"})
    scn = load_scenario(path)
    env = concave_envelope(scn.utility).envelope
    return path, scn, env, solve_multiplier(env, scn.market, scn.x0).y_star


class TestWithoutCommonRiskAversion:
    def test_surface_split_columns_are_nan(self, tmp_path):
        path, scn, env, y = _two_risk_aversions(tmp_path)
        assert run(["surface", "--scenario", path, "--out", tmp_path]) == 0
        data = _csv(tmp_path / "surface.csv")
        assert data.shape == (8, 8)
        assert np.all(np.isnan(data[:, 4:]))
        for t, x, xi, pct in data[:, :4]:
            pi = portfolio_general(env, scn.market, y, t, np.array([xi]))[0, 0]
            assert pct == pytest.approx(pi / x, rel=1e-12)

    def test_decompose_reports_total_and_percentage(self, tmp_path):
        path, scn, env, y = _two_risk_aversions(tmp_path)
        assert run(["decompose", "--scenario", path, "--out", tmp_path,
                    "--t", "1.0", "--xi", "0.8"]) == 0
        payload = _strict_json(tmp_path / "decompose.json")
        portfolio, wealth = payload["portfolio"], payload["wealth"]["total"]
        assert sorted(portfolio) == ["percentage", "total"]
        pi = portfolio_general(env, scn.market, y, 1.0, 0.8)
        assert portfolio["total"] == pytest.approx(pi.tolist(), rel=1e-12)
        assert portfolio["percentage"] == pytest.approx((pi / wealth).tolist(), rel=1e-12)


class TestStandardJson:
    @pytest.mark.parametrize("name", same.BUNDLED)
    def test_bundled_artifacts(self, tmp_path, name):
        scenario = SCENARIOS / f"{name}.json"
        x0 = json.loads(scenario.read_text())["x0"]
        for command, *flags in (("envelope",), ("solve",), ("surface", "--grid", "11"),
                                ("decompose", "--t", "5", "--x", x0),
                                ("verify", "--paths", "2000"),
                                ("simulate", "--paths", "200", "--steps", "10")):
            assert run([command, "--scenario", scenario, "--out", tmp_path,
                        *flags]) == 0
        written = sorted(p.name for p in tmp_path.glob("*.json"))
        assert written == ["decompose.json", "dual.json", "envelope.json",
                           "simulation.json", "verification.json"]
        for artifact in written:
            _strict_json(tmp_path / artifact)

    def test_linear_tail_envelope(self, tmp_path):
        # R = 0 on crra: the envelope is one line to +inf, written as "inf"
        path = same.write_scenario(tmp_path / "line.json", "crra", {"utility.pieces.0.R": 0.0})
        assert run(["envelope", "--scenario", path, "--out", tmp_path]) == 0
        table = _strict_json(tmp_path / "envelope.json")
        ((lo, hi, slope),) = table["chords"]
        assert (lo, _check(hi, "hi", "number"), slope) == (0.0, INF, 1.0)
        assert table["pieces"][0]["a_hi"] == "inf"


class TestVerifySimulate:
    def test_verify_passes_and_is_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        code1 = run(["verify", "--scenario", SCENARIOS / "crra.json",
                     "--out", out1, "--paths", "20000"])
        code2 = run(["verify", "--scenario", SCENARIOS / "crra.json",
                     "--out", out2, "--paths", "20000"])
        assert code1 == 0 and code2 == 0
        assert (out1 / "verification.json").read_bytes() == \
            (out2 / "verification.json").read_bytes()

    def test_simulate(self, tmp_path):
        assert run(["simulate", "--scenario", SCENARIOS / "crra.json",
                    "--out", tmp_path, "--paths", "1500", "--steps", "100"]) == 0
        rep = json.loads((tmp_path / "simulation.json").read_text())
        assert rep["passed"]

    @pytest.mark.parametrize("name", same.BUNDLED)
    def test_simulate_bundled_defaults(self, simulate_bundled, name):
        # default --steps and --paths; chord envelopes included; the same run
        # is compared with its golden files in test_golden.py
        out = simulate_bundled(name)
        rep = json.loads((out / "simulation.json").read_text())
        assert (out / "exit_code").read_text() == "0\n" and rep["passed"]
        assert 0.35 <= rep["computed"] <= 0.65
        assert rep["detail"]["grid"] == "t_k = T (1 - (1 - k/n)^2)"
        if name == "crra":
            assert rep["computed"] == pytest.approx(0.5, abs=0.03)

    def test_decompose(self, tmp_path):
        assert run(["decompose", "--scenario",
                    SCENARIOS / "multi_kink_demo.json", "--out", tmp_path,
                    "--t", "5.0", "--x", "20.0"]) == 0
        payload = json.loads((tmp_path / "decompose.json").read_text())
        assert payload["wealth"]["total"] == pytest.approx(20.0, rel=1e-8)
        total = sum(payload["portfolio"][k][0] for k in
                    ("merton", "risk_seeking", "loss_aversion",
                     "first_order_ra"))
        assert payload["portfolio"]["total"][0] == pytest.approx(total,
                                                                 rel=1e-12)

    @pytest.mark.parametrize("name", same.BUNDLED)
    def test_decompose_wealth_is_wealth_total(self, tmp_path, name):
        # the reported wealth is the one sum that wealth_total and the
        # wealth inversion use, to the last bit
        scenario = SCENARIOS / f"{name}.json"
        scn = load_scenario(scenario)
        env = concave_envelope(scn.utility).envelope
        for flags in (("--t", "5", "--x", "30"), ("--t", "2", "--xi", "0.3")):
            assert run(["decompose", "--scenario", scenario, "--out", tmp_path,
                        *flags]) == 0
            payload = _strict_json(tmp_path / "decompose.json")
            assert payload["wealth"]["total"] == wealth_total(
                env, scn.market, payload["y_star"], payload["t"], payload["xi"])


class TestHedgeFundScenario:
    def test_envelope_bridges_the_benchmark(self, tmp_path):
        assert run(["envelope", "--scenario", SCENARIOS / "hedge_fund.json",
                    "--out", tmp_path]) == 0
        table = json.loads((tmp_path / "envelope.json").read_text())
        benchmark = 2.0 * math.exp(0.5)
        assert len(table["chords"]) == 1
        lo, hi, slope = table["chords"][0]
        assert lo < benchmark < hi
        assert slope == pytest.approx(0.4 / math.sqrt(benchmark), rel=1e-10)

    def test_phara_preference_block(self, tmp_path):
        crra = json.loads((SCENARIOS / "crra.json").read_text())["utility"]
        path = same.write_scenario(tmp_path / "composed.json", "crra", {"x0": 3.0, "utility": {
            "preference": {"type": "phara", **crra},
            "payoff": {"floor": 0.5, "value_lo": 0.25, "breakpoints": [2.0],
                       "slopes": [0.5, 1.5]}}})
        scn = load_scenario(path)
        assert len(scn.utility.pieces) == 2
        assert run(["solve", "--scenario", path, "--out", tmp_path]) == 0

    def test_capped_payoff_solves(self, tmp_path, capsys):
        # a flat tail has bounded demand; the default wealth axis stops short of
        # the ceiling e^(-r(T-t)) a_f at every time
        same.capped_commands(tmp_path / "s")
        path = tmp_path / "s" / "capped.json"
        for args in (["solve"], ["decompose", "--t", "5", "--xi", "1"],
                     ["decompose", "--t", "5", "--x", "1.5"], ["verify"], ["surface"]):
            assert run([*args, "--scenario", path, "--out", tmp_path]) == 0, args
        assert capsys.readouterr().out.count("PASS") == 8
        assert json.loads((tmp_path / "dual.json").read_text())["feasible_floor"] == \
            pytest.approx(0.7, rel=1e-12)
        rows = _csv(tmp_path / "surface.csv")
        market = load_scenario(path).market
        a_f = json.loads(path.read_text())["utility"]["payoff"]["breakpoints"][0]
        ceiling = [market.discount(t) * a_f for t in rows[:, 0]]
        assert len(rows) == 200 * 3 and np.all(rows[:, 1] < ceiling)
        assert np.all(np.isfinite(rows))

    @pytest.mark.parametrize("x0, args", [(2.1, ["solve"]),
                                          (1.0, ["decompose", "--t", "5", "--x", "2.6"])])
    def test_capped_payoff_ceiling(self, tmp_path, capsys, x0, args):
        # no wealth reaches the ceiling: 2 at t = 0, 2.568 at t = 5
        same.capped_commands(tmp_path / "s")
        path = tmp_path / "s" / ("capped.json" if x0 == 1.0 else f"capped_x{x0}.json")
        assert run([*args, "--scenario", path, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must stay below the ceiling" in err


LOAD = "error: malformed scenario <s>: "  # <s>: the scenario file's path
SIZE, SEED = ">= 2, at most 10^8 and integral", "in [0, 2^64 - 4] and integral"
# The input-error table.  A row is a command on a bundled scenario with its
# same.write_scenario edit (a str: a template of the whole file), its flags,
# and the one line the command prints on standard error with exit code 2.
# Each key is a test of TestErrorPaths, test_<key>: a list holds its rows, a
# dict one row per case id.
ERRORS = {
    "corrupted_sigma_exit_code": [
        ("solve", "crra", {"market.sigma": [[0.0]]}, [], LOAD + "market: smallest eigenvalue "
         "of sigma sigma^T is 0.000e+00 (largest 0.000e+00)")],
    "unknown_preference_type": [
        ("solve", "participating_contract", {"utility.preference.type": "quadratic"}, [],
         LOAD + 'utility.preference.type must be "s_shaped" or "phara", got "quadratic"')],
    # a JSON true was read as 1.0 and "1" as a number; a missing key printed
    # only its name, and a constructor's error named no piece
    "error_names_the_field": {
        "bool_number": ("solve", "crra", {"x0": True}, [], LOAD + "x0 must be finite, got true"),
        "quoted_number": ("solve", "crra", {"utility.pieces.0.anchor.slope": "1"}, [],
                          LOAD + 'utility.pieces[0].anchor.slope must be a number, got "1"'),
        "missing": ("solve", "crra", {"utility.pieces.0.R": DELETE}, [],
                    LOAD + "utility.pieces[0].R is missing"),
        "empty_anchor": ("solve", "crra", {"utility.pieces.0.anchor": {}}, [],
                         LOAD + "utility.pieces[0].anchor.x is missing"),
        "constructor": ("solve", "crra", {"utility.pieces.0.A": 0.5}, [],
                        LOAD + "utility.pieces[0]: benchmark 0.5 inside (0.0, inf) would put "
                        "a singularity in the piece"),
        "sigma_row": ("solve", "crra", {"market.sigma.0": "x"}, [],
                      LOAD + 'market.sigma must be a list, got "x"'),
        "huge_count": ("solve", "crra", {"grids.wealth.n": 1e9}, [],
                       LOAD + f"grids.wealth.n must be {SIZE}, got 1000000000.0"),
    },
    "infeasible_budget": [
        ("solve", "multi_kink_demo", {"x0": 0.5}, [], "error: wealth 0.5 at t = 0 must exceed "
         "the floor e^(-r(T-t)) a0 = 2.4261226388505337")],
    # U(a0) = -inf on crra: the curve's first abscissa is moved off a0
    "grid_below_two": [("envelope", "crra", None, ["--grid", g],
                        f"error: --grid must be {SIZE}, got {g}") for g in "01"],
    # one sample has no standard error: the report would hold NaN
    "paths_below_two": [
        ("verify", "crra", None, ["--paths", "1"], f"error: --paths must be {SIZE}, got 1"),
        ("verify", "crra", {"paths": 1}, [], LOAD + f"paths must be {SIZE}, got 1")],
    # verify keys Philox with seed .. seed + 3, which must fit a uint64
    "seed_flag_out_of_range": {
        s: ("verify", "crra", None, ["--paths", "100", "--seed", s],
            f"error: --seed must be {SEED}, got {s}") for s in ("-1", str(2**64 - 3))},
    "scenario_seed_out_of_range": [
        ("verify", "crra", {"seed": -5}, [], LOAD + f"seed must be {SEED}, got -5")],
    # the flag replaced the file's value unread, so a malformed one loaded
    "file_count_malformed_under_its_flag": {
        "seed": ("verify", "crra", {"seed": -5}, ["--paths", "2000", "--seed", "3"],
                 LOAD + f"seed must be {SEED}, got -5"),
        "paths": ("verify", "crra", {"paths": 1}, ["--paths", "2000"],
                  LOAD + f"paths must be {SIZE}, got 1"),
    },
    # a key the reader does not know was ignored: a misspelt field loaded as its default
    "unused_key": {
        "top_level": ("solve", "crra", {"sede": 7}, [], LOAD + "sede is not used"),
        "nested": ("solve", "hedge_fund", {"utility.preference.referense": 1.0}, [],
                   LOAD + "utility.preference.referense is not used"),
    },
    "block_of_wrong_json_type": {
        "mu": ("solve", "multi_kink_demo", {"market.mu": 0.086}, [],
               LOAD + "market.mu must be a list, got 0.086"),
        "utility": ("solve", "multi_kink_demo", {"utility": 3}, [],
                    LOAD + "utility must be an object, got 3"),
        "top_level_list": ("solve", "multi_kink_demo", "[{}]", [],
                           LOAD + "the scenario must be an object, got a list"),
    },
    # counts are not truncated, and the wealth grid is checked on load, so
    # every command rejects it; n 0 wrote a header-only csv from surface, lo
    # -inf NaN rows, and an empty block must not read as no block
    "fractional_count_or_bad_wealth_grid": {
        "seed": ("solve", "multi_kink_demo", {"seed": 1.7}, [],
                 LOAD + f"seed must be {SEED}, got 1.7"),
        "paths": ("solve", "multi_kink_demo", {"paths": 1000.9}, [],
                  LOAD + f"paths must be {SIZE}, got 1000.9"),
        **{case: ("surface", "multi_kink_demo", {"grids.wealth.n": n}, [],
                  LOAD + f"grids.wealth.n must be {SIZE}, got {n}")
           for case, n in (("wealth_n", 2.5), ("wealth_n_zero", 0), ("wealth_n_negative", -3))},
        "wealth_list": ("surface", "multi_kink_demo", {"grids.wealth": [1, 2]}, [],
                        LOAD + "grids.wealth must be an object, got a list"),
        "wealth_without_hi": ("surface", "multi_kink_demo", {"grids.wealth.hi": DELETE}, [],
                              LOAD + "grids.wealth.hi is missing"),
        "wealth_lo_inf": ("surface", "multi_kink_demo", {"grids.wealth.lo": "-inf"}, [],
                          LOAD + 'grids.wealth.lo must be finite, got "-inf"'),
        "wealth_empty": ("surface", "multi_kink_demo", {"grids.wealth": {}}, [],
                         LOAD + "grids.wealth.lo is missing"),
    },
    # inf failed in the root-find, nan in the budget residual check
    "non_finite_x0": {x0: ("solve", "multi_kink_demo", {"x0": x0}, [],
                           LOAD + f'x0 must be finite, got "{x0}"') for x0 in ("inf", "nan")},
    # solve exited 0 on these while surface exited 2: the loader rejects them
    "time_grid_outside_horizon": {
        case: ("surface", "multi_kink_demo", {"grids.t": [0.0, t]}, [],
               LOAD + "grids.t entries must be finite and in [0, 10.0) (market.T), "
               f"got {json.dumps(t)}")
        for case, t in (("T", 10.0), ("nan", "nan"), ("inf", "inf"), ("negative", -1.0))},
    # surface wrote a header-only csv
    "empty_time_grid": [("surface", "crra", {"grids.t": []}, [],
                         LOAD + "grids.t must hold at least one time")],
    # these gave an OverflowError traceback or overflow and invalid-value
    # warnings; now one typed error that names the field
    "market_out_of_range": {
        "T_1e308": ("solve", "crra", {"market.T": 1e308}, [], LOAD + "market: r T must be at "
                    "most 709.783 so that e^(rT) is finite, got r=0.05, T=1e+308"),
        "mu_inf": ("solve", "crra", {"market.mu": ["inf"]}, [],
                   LOAD + "market: mu entries must be finite, got [inf]"),
        "mu_1e308": ("solve", "crra", {"market.mu": [1e308]}, [], LOAD + "market: |theta|^2 T "
                     "must be at most 709.783 so that e^(|theta|^2 T) is finite, got "
                     "|theta|=inf from mu, sigma and r, and T=10.0"),
        "sigma_1e308": ("solve", "crra", {"market.sigma": [[1e308]]}, [], LOAD + "market: "
                        "sigma entries too large: sigma sigma^T overflows, got sigma=[[1e+308]]"),
        "sigma_ragged": ("solve", "crra",
                         {"market.mu": [0.086, 0.09], "market.sigma": [[0.3, 0.0], [0.2]]}, [],
                         LOAD + "market: mu and sigma must be arrays: setting an array element "
                         "with a sequence. The requested array has an inhomogeneous shape after "
                         "1 dimensions. The detected shape was (2,) + inhomogeneous part."),
    },
    "decompose_bad_state": {
        f"{flag[2:]}={v}": ("decompose", "multi_kink_demo", None, ["--t", "5.0", flag, v],
                            f"error: {flag} must be {rule}, got {got}")
        for flag, rule in (("--xi", "finite and positive"), ("--x", "finite"))
        for v, got in (("-1", "-1.0"), ("0", "0.0"), ("nan", "NaN"), ("inf", "Infinity"))
        if flag == "--xi" or v in ("nan", "inf")},
    # X_t at xi = 1e-200 is above 1e308: the power terms overflowed and the
    # report's NaN escaped as a ValueError traceback
    "decompose_wealth_beyond_the_doubles": {
        name: ("decompose", name, None, ["--xi", "1e-200"],
               "error: optimal wealth at state price xi = 1e-200 does not fit a double")
        for name in same.BUNDLED},
    "decompose_needs_x_or_xi": [
        ("decompose", "crra", None, [], "error: decompose needs --x or --xi")],
    # hedge_fund with a gain exponent of 1e-19 or below: the gain branch
    # 1 + 1e-19 log(...) rises above the hull by less than rounding at every
    # slope the search reaches, and the error names that branch
    "gain_branch_flat_to_rounding": {
        g: ("envelope", "hedge_fund", {"utility.preference.gain_exponent": float(g)}, [],
            "error: no shallow supporting slope found: the piece on [3.2974425414002564, inf) "
            "with R = 1.0 rises above the hull by rounding only") for g in ("1e-19", "1e-100")},
}


class TestErrorPaths:
    def test_utility_block_without_pieces_or_preference(self):
        with pytest.raises(PharaError):
            _parse_utility({"a0": 0.0})

    def test_missing_file(self, tmp_path):
        assert run(["solve", "--scenario", tmp_path / "nope.json",
                    "--out", tmp_path]) == 2

    @pytest.mark.parametrize("text", ["{", b"\xff{}"], ids=["truncated", "not_utf8"])
    def test_not_json(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text.encode() if isinstance(text, str) else text)
        err = self._input_error(["solve", "--scenario", bad, "--out", tmp_path], capsys)
        assert f"malformed scenario {bad}: not JSON" in err

    @pytest.mark.parametrize("name", same.BUNDLED)
    def test_decompose_below_the_floor(self, tmp_path, capsys, name):
        # no state price reaches it; saturating at xi_cap would answer for the floor
        scenario = SCENARIOS / f"{name}.json"
        scn = load_scenario(scenario)
        floor = scn.market.discount(5.0) * scn.utility.a0
        err = self._input_error(["decompose", "--scenario", scenario, "--out", tmp_path,
                                 "--t", "5", "--x", floor - 1.0], capsys)
        assert err.count("\n") == 1 and f"a0 = {floor}" in err
        assert not (tmp_path / "decompose.json").exists()

    @staticmethod
    def _input_error(args, capsys):
        # exit 2 with one "error:" line, never an escaped exception
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    def _error_line(self, tmp_path, capsys, command, base, edit, flags, line):
        # one row of ERRORS: exactly its line and no artifact, and a
        # malformed scenario is load_scenario's PharaError with the same text
        bad = same.write_scenario(tmp_path / "bad.json", base,
                                  None if isinstance(edit, str) else edit)
        if isinstance(edit, str):
            bad.write_text(edit.format(bad.read_text()))
        expected, out = line.replace("<s>", str(bad)) + "\n", tmp_path / "out"
        assert self._input_error([command, "--scenario", bad, "--out", out, *flags],
                                 capsys) == expected
        assert list(out.glob("*")) == []
        if line.startswith(LOAD):
            with pytest.raises(PharaError) as exc:
                load_scenario(bad)
            assert f"error: {exc.value}\n" == expected

    @pytest.mark.parametrize("key, field", [('"x0"', "x0"),
                                            ('"u"', "utility.pieces[0].anchor.u")],
                             ids=["top_level", "nested"])
    def test_repeated_key(self, tmp_path, capsys, key, field):
        # the last value of a repeated key was read, the others dropped
        bad = same.write_scenario(tmp_path / "bad.json", "crra")
        bad.write_text(bad.read_text().replace(f"{key}: ", f"{key}: 3.0, {key}: ", 1))
        err = self._input_error(["solve", "--scenario", bad, "--out", tmp_path], capsys)
        assert err == f"error: malformed scenario {bad}: {field} is repeated\n"

    def test_only_decompose_reads_x(self, tmp_path):
        # --x is decompose's flag: solve ignores even a value decompose rejects
        assert run(["solve", "--scenario", SCENARIOS / "crra.json", "--out", tmp_path,
                    "--x", "inf"]) == 0
        assert (tmp_path / "dual.json").is_file()


def _table_test(cases):
    """The test of TestErrorPaths that runs the rows ``cases`` of ERRORS, a
    list, or one row of the dict ``cases`` per case id."""
    if isinstance(cases, dict):
        @pytest.mark.parametrize("case", list(cases))
        def test(self, tmp_path, capsys, case):
            self._error_line(tmp_path, capsys, *cases[case])
        return test

    def test(self, tmp_path, capsys):
        for row in cases:
            self._error_line(tmp_path, capsys, *row)
    return test


for _name, _cases in ERRORS.items():
    setattr(TestErrorPaths, f"test_{_name}", _table_test(_cases))


def _run_child(*args) -> None:
    """Run a fresh interpreter with ``args`` on this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_split_commands_leave_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma (about 15 ms and 1.4 MB); the common-R
    # test of surface and decompose needs only a set
    _run_child("-c", f"""
import sys
from phara.cli import main
for command, *flags in (("surface",), ("decompose", "--t", "1", "--x", "12")):
    code = main([command, "--scenario", {str(SCENARIOS / "multi_kink_demo.json")!r},
                 "--out", {str(tmp_path)!r}, *flags])
    assert code == 0, (command, code)
assert "numpy.ma" not in sys.modules
""")


def test_commands_never_import_scipy(tmp_path):
    # Phi lives in phara.normal; scipy is a test-only oracle
    _run_child("-c", f"""
import sys
from phara.cli import main
commands = (("envelope",), ("solve",), ("surface",),
            ("decompose", "--t", "1", "--x", "12"), ("verify", "--paths", "2000"),
            ("simulate", "--paths", "200", "--steps", "10"))
for name in {same.BUNDLED!r}:
    for command, *flags in commands:
        code = main([command, "--scenario", {str(SCENARIOS)!r} + "/" + name + ".json",
                     "--out", {str(tmp_path)!r}, *flags])
        assert code == 0, (name, command, code)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
""")


class TestProcessSettings:
    """``run()``, the program, freezes the collector and sets glibc's malloc
    thresholds; ``main()`` and ``main(argv)`` leave the process alone."""

    @pytest.fixture(autouse=True)
    def mallopt_calls(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(
            mallopt=mallopt))
        yield calls
        gc.unfreeze()

    def test_freezes_and_sets_both_thresholds(self, mallopt_calls):
        _settle_process()
        assert gc.get_freeze_count() > 0
        # M_MMAP_THRESHOLD (-3) at 32 MiB, M_TRIM_THRESHOLD (-1) at 1 GiB
        assert mallopt_calls == [(-3, 32 << 20), (-1, 1 << 30)]

    def test_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
        _settle_process()
        assert gc.get_freeze_count() > 0

    @pytest.mark.parametrize("error", [OSError, TypeError])
    def test_without_a_c_library(self, monkeypatch, error):
        def cdll(name):
            raise error("no library by the name None")

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        _settle_process()
        assert gc.get_freeze_count() > 0

    @pytest.mark.parametrize("program, settled", [(cli.run, True), (main, False)],
                             ids=["run", "main"])
    def test_command_line(self, tmp_path, monkeypatch, mallopt_calls, program, settled):
        # both read the command from sys.argv; only run() settles the process
        monkeypatch.setattr(sys, "argv", [
            "phara", "solve", "--scenario", str(SCENARIOS / "crra.json"),
            "--out", str(tmp_path)])
        frozen = gc.get_freeze_count()
        assert program() == 0
        assert (gc.get_freeze_count() > frozen, len(mallopt_calls)) == (settled, 2 * settled)

    def test_main_with_argv(self, tmp_path, mallopt_calls):
        frozen = gc.get_freeze_count()
        assert run(["solve", "--scenario", SCENARIOS / "crra.json",
                    "--out", tmp_path]) == 0
        assert gc.get_freeze_count() == frozen and mallopt_calls == []

    def test_child_artifacts_match_in_process(self, tmp_path):
        scenario = SCENARIOS / "participating_contract.json"
        _run_child("-m", "phara.cli", "envelope", "--scenario", scenario,
                   "--out", tmp_path / "child")
        assert run(["envelope", "--scenario", scenario,
                    "--out", tmp_path / "here"]) == 0
        names = sorted(f.name for f in (tmp_path / "child").iterdir())
        assert names == ["envelope.json", "envelope_curve.csv"]
        for name in names:
            assert (tmp_path / "child" / name).read_bytes() == \
                (tmp_path / "here" / name).read_bytes()
