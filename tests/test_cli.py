import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import strict_json as _strict_json
from phara.cli import (_check, _parse_utility, cmd_decompose, cmd_surface,
                       load_scenario, main)
from phara.concavify import concave_envelope
from phara.errors import BadDimension, IllegalCase, PharaError
from phara.solver import portfolio_general, solve_multiplier, wealth_total
from phara.utility import INF, PharaPiece

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
BUNDLED = ("crra", "multi_kink_demo", "participating_contract", "hedge_fund")


def run(args):
    return main([str(a) for a in args])


def _csv(path):
    return np.array([r.split(",") for r in path.read_text().splitlines()[1:]],
                    dtype=float)


class TestScenarioIO:
    def test_integral_floats_and_default_wealth_n(self, tmp_path):
        raw = json.loads((SCENARIOS / "multi_kink_demo.json").read_text())
        raw.update(seed=7.0, paths=100000.0)
        del raw["grids"]["wealth"]["n"]
        path = tmp_path / "floats.json"
        path.write_text(json.dumps(raw))
        scn = load_scenario(path)
        assert (scn.seed, scn.paths, scn.wealth_grid.n) == (7, 100000, None)
        assert run(["surface", "--scenario", path, "--out", tmp_path,
                    "--grid", "7"]) == 0
        rows = (tmp_path / "surface.csv").read_text().splitlines()[1:]
        assert len(rows) == 7 * len(raw["grids"]["t"])

    def test_parsed_utilities_match_presets(self, demo_utility, contract_utility):
        scn = load_scenario(SCENARIOS / "multi_kink_demo.json")
        xs = np.linspace(4.0, 90.0, 300)
        assert np.allclose(scn.utility.value(xs), demo_utility.value(xs),
                           rtol=1e-12)
        scn = load_scenario(SCENARIOS / "participating_contract.json")
        xs = np.linspace(0.0, 8.0, 300)
        assert np.allclose(scn.utility.value(xs), contract_utility.value(xs),
                           rtol=1e-12)


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
        R, x0 = 0.5, 10.0
        beta = 1.0 - 1.0 / R
        th = market.theta_norm
        growth = math.exp(-beta * (market.r + 0.5 * th * th) * market.T
                          + 0.5 * beta * beta * th * th * market.T)
        assert sol["y_star"] == pytest.approx((x0 / growth) ** (-R), rel=1e-9)
        assert abs(sol["budget_residual"]) <= 1e-10 * x0

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

    def test_default_wealth_axis(self, tmp_path):
        # without grids.wealth, --grid points from e^{-r(T-t)} a0 to
        # e^{-r(T-t)} (a_n + (a_n - a0)/2) over the envelope's last knot
        # a_n = 40, the first point dropped
        raw = json.loads((SCENARIOS / "multi_kink_demo.json").read_text())
        del raw["grids"]["wealth"]
        path = tmp_path / "no_axis.json"
        path.write_text(json.dumps(raw))
        assert run(["surface", "--scenario", path, "--out", tmp_path,
                    "--grid", "5"]) == 0
        data = _csv(tmp_path / "surface.csv")
        assert data.shape == (4 * len(raw["grids"]["t"]), 8)
        for t in raw["grids"]["t"]:
            disc = math.exp(-0.05 * (10.0 - t))
            axis = np.linspace(disc * 4.0, disc * (40.0 + 0.5 * 36.0), 5)[1:]
            assert np.allclose(data[data[:, 0] == t, 1], axis, rtol=1e-10)

    def test_default_wealth_axis_one_piece(self, tmp_path):
        # a_n = a0 = 0 on crra: the span max(1, a_n - a0) keeps the axis
        # above the floor instead of collapsing every level onto it
        raw = json.loads((SCENARIOS / "crra.json").read_text())
        del raw["grids"]["wealth"]
        path = tmp_path / "no_axis.json"
        path.write_text(json.dumps(raw))
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
        raw = json.loads((SCENARIOS / "crra.json").read_text())
        raw["utility"] = {"a0": -5.0, "pieces": [
            {"a_lo": -5.0, "R": "inf", "alpha": 0.5,
             "anchor": {"x": 0.0, "u": 0.0, "slope": 1.0}}]}
        raw["grids"]["wealth"] = {"lo": -3.0, "hi": 3.0, "n": 7}
        path = tmp_path / "cara.json"
        path.write_text(json.dumps(raw))
        assert run(["surface", "--scenario", path, "--out", tmp_path]) == 0
        data = _csv(tmp_path / "surface.csv")
        scn = load_scenario(path)
        env = concave_envelope(scn.utility).envelope
        y = solve_multiplier(env, scn.market, scn.x0).y_star
        axis = np.linspace(-3.0, 3.0, 7)
        for t in scn.t_grid:
            _, x, xi, pct = data[data[:, 0] == t, :4].T
            assert np.all(axis > -5.0 * math.exp(-scn.market.r * (scn.market.T - t)))
            assert np.all(xi < 1e18)
            assert np.allclose(x, axis, rtol=0.0, atol=1e-8)
            assert np.allclose(wealth_total(env, scn.market, y, t, xi), axis,
                               rtol=0.0, atol=1e-8)
            assert np.all(pct[axis < 0.0] != 0.0)


def _two_risk_aversions(tmp_path):
    """The demo market with sqrt gains up to 2 and an R = 2 tail: no common R."""
    head = PharaPiece(a_lo=0.0, a_hi=2.0, R=0.5, A=-1.0, anchor_x=0.0,
                      anchor_u=0.0, anchor_slope=1.0)
    raw = json.loads((SCENARIOS / "crra.json").read_text())
    raw["utility"] = {"a0": 0.0, "pieces": [
        {"a_lo": 0.0, "R": 0.5, "A": -1.0, "anchor": {"x": 0.0, "u": 0.0, "slope": 1.0}},
        {"a_lo": 2.0, "R": 2.0, "A": 1.0,
         "anchor": {"x": 2.0, "u": head.value_hi, "slope": 0.9 * head.slope_hi}}]}
    raw.update(x0=3.0, grids={"t": [0.0, 5.0], "wealth": {"lo": 1.0, "hi": 6.0, "n": 4}})
    path = tmp_path / "two_R.json"
    path.write_text(json.dumps(raw))
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
    @pytest.mark.parametrize("name", BUNDLED)
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
        raw = json.loads((SCENARIOS / "crra.json").read_text())
        raw["utility"]["pieces"][0]["R"] = 0.0
        path = tmp_path / "line.json"
        path.write_text(json.dumps(raw))
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

    @pytest.mark.parametrize("name", BUNDLED)
    def test_simulate_bundled_defaults(self, tmp_path, name):
        # default --steps and --paths; chord envelopes included
        code = run(["simulate", "--scenario", SCENARIOS / f"{name}.json",
                    "--out", tmp_path])
        rep = json.loads((tmp_path / "simulation.json").read_text())
        assert code == 0 and rep["passed"]
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
        raw = json.loads((SCENARIOS / "crra.json").read_text())
        raw["utility"] = {
            "preference": {"type": "phara", **raw["utility"]},
            "payoff": {"floor": 0.5, "value_lo": 0.25,
                       "breakpoints": [2.0], "slopes": [0.5, 1.5]},
        }
        raw["x0"] = 3.0
        path = tmp_path / "composed.json"
        path.write_text(json.dumps(raw))
        scn = load_scenario(path)
        assert scn.utility.n_pieces == 2
        assert run(["solve", "--scenario", path, "--out", tmp_path]) == 0


class TestErrorPaths:
    def test_corrupted_sigma_exit_code(self, tmp_path):
        raw = json.loads((SCENARIOS / "crra.json").read_text())
        raw["market"]["sigma"] = [[0.0]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert run(["solve", "--scenario", bad, "--out", tmp_path]) == 2

    def test_unknown_preference_type(self, tmp_path):
        raw = json.loads((SCENARIOS / "participating_contract.json").read_text())
        raw["utility"]["preference"]["type"] = "quadratic"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert run(["solve", "--scenario", bad, "--out", tmp_path]) == 2
        with pytest.raises(PharaError):
            _parse_utility(raw["utility"])

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

    @pytest.mark.parametrize("edit, message", [
        (("x0", True), "x0 must be finite, got true"),
        (("utility", "pieces", 0, "anchor", "slope", "1"),
         'utility.pieces[0].anchor.slope must be a number, got "1"'),
        (("utility", "pieces", 0, "R", None), "utility.pieces[0].R is missing"),
        (("utility", "pieces", 0, "A", 0.5), "utility.pieces[0]: benchmark 0.5 inside"),
        (("market", "sigma", 0, "x"), "market.sigma must be a list, got \"x\""),
        (("grids", "wealth", "n", 1e9), "grids.wealth.n must be >= 2, at most 10^8"),
    ], ids=["bool_number", "quoted_number", "missing", "constructor", "sigma_row",
            "huge_count"])
    def test_error_names_the_field(self, tmp_path, capsys, edit, message):
        # a JSON true was read as 1.0 and "1" as a number; a missing key
        # printed only its name, and a constructor's error named no piece
        raw = json.loads((SCENARIOS / "crra.json").read_text())
        *keys, last, value = edit
        block = raw
        for key in keys:
            block = block[key]
        if value is None:
            del block[last]
        else:
            block[last] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        err = self._input_error(["solve", "--scenario", bad, "--out", tmp_path], capsys)
        assert err.startswith(f"error: malformed scenario {bad}: {message}")

    @pytest.mark.parametrize("name", BUNDLED)
    def test_decompose_below_the_floor(self, tmp_path, capsys, name):
        # no state price reaches it; saturating at xi_cap would answer for the floor
        scenario = SCENARIOS / f"{name}.json"
        scn = load_scenario(scenario)
        floor = math.exp(-scn.market.r * (scn.market.T - 5.0)) * scn.utility.a0
        err = self._input_error(["decompose", "--scenario", scenario, "--out", tmp_path,
                                 "--t", "5", "--x", floor - 1.0], capsys)
        assert err.count("\n") == 1 and f"a0 = {floor}" in err
        assert not (tmp_path / "decompose.json").exists()

    def test_infeasible_budget(self, tmp_path):
        raw = json.loads((SCENARIOS / "multi_kink_demo.json").read_text())
        raw["x0"] = 0.5
        bad = tmp_path / "low.json"
        bad.write_text(json.dumps(raw))
        assert run(["solve", "--scenario", bad, "--out", tmp_path]) == 2

    def test_grid_below_two(self, tmp_path, capsys):
        # U(a0) = -inf on crra: the curve's first abscissa is moved off a0
        for grid in ("0", "1"):
            assert run(["envelope", "--scenario", SCENARIOS / "crra.json",
                        "--out", tmp_path, "--grid", grid]) == 2
        assert "--grid must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "envelope_curve.csv").exists()

    def test_paths_below_two(self, tmp_path, capsys):
        # one sample has no standard error: the report would hold NaN
        assert run(["verify", "--scenario", SCENARIOS / "crra.json",
                    "--out", tmp_path, "--paths", "1"]) == 2
        raw = json.loads((SCENARIOS / "crra.json").read_text())
        raw["paths"] = 1
        bad = tmp_path / "one_path.json"
        bad.write_text(json.dumps(raw))
        assert run(["verify", "--scenario", bad, "--out", tmp_path]) == 2
        assert capsys.readouterr().err.count("paths must be >= 2") == 2
        assert not (tmp_path / "verification.json").exists()

    @staticmethod
    def _input_error(args, capsys):
        # exit 2 with one "error:" line, never an escaped exception
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    @pytest.mark.parametrize("seed", ["-1", str(2**64 - 3)])
    def test_seed_flag_out_of_range(self, tmp_path, capsys, seed):
        # verify keys Philox with seed .. seed + 3, which must fit a uint64
        err = self._input_error(["verify", "--scenario", SCENARIOS / "crra.json",
                                 "--out", tmp_path, "--paths", "100",
                                 "--seed", seed], capsys)
        assert "seed must be in" in err
        assert not (tmp_path / "verification.json").exists()

    def test_scenario_seed_out_of_range(self, tmp_path, capsys):
        raw = json.loads((SCENARIOS / "crra.json").read_text())
        raw["seed"] = -5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        self._input_error(["verify", "--scenario", bad, "--out", tmp_path],
                          capsys)

    @pytest.mark.parametrize("edit", ["mu", "utility", "top_level_list"])
    def test_block_of_wrong_json_type(self, tmp_path, capsys, edit):
        raw = json.loads((SCENARIOS / "multi_kink_demo.json").read_text())
        if edit == "mu":
            raw["market"]["mu"] = 0.086
        elif edit == "utility":
            raw["utility"] = 3
        else:
            raw = [raw]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        err = self._input_error(["solve", "--scenario", bad, "--out", tmp_path],
                                capsys)
        assert "malformed scenario" in err
        with pytest.raises(BadDimension):
            load_scenario(bad)

    @pytest.mark.parametrize("edit", ["seed", "paths", "wealth_n", "wealth_n_zero",
                                      "wealth_n_negative", "wealth_list",
                                      "wealth_without_hi", "wealth_lo_inf"])
    def test_fractional_count_or_bad_wealth_grid(self, tmp_path, capsys, edit):
        # counts are not truncated, and the wealth grid is checked on load,
        # so every command rejects it, not only surface
        raw = json.loads((SCENARIOS / "multi_kink_demo.json").read_text())
        if edit == "seed":
            raw["seed"] = 1.7
        elif edit == "paths":
            raw["paths"] = 1000.9
        elif edit == "wealth_n":
            raw["grids"]["wealth"]["n"] = 2.5
        elif edit == "wealth_n_zero":
            raw["grids"]["wealth"]["n"] = 0  # surface wrote a header-only csv
        elif edit == "wealth_n_negative":
            raw["grids"]["wealth"]["n"] = -3
        elif edit == "wealth_list":
            raw["grids"]["wealth"] = [1, 2]
        elif edit == "wealth_without_hi":
            del raw["grids"]["wealth"]["hi"]
        else:
            raw["grids"]["wealth"]["lo"] = "-inf"  # surface wrote NaN rows
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        for command in ("solve", "surface"):
            self._input_error([command, "--scenario", bad, "--out", tmp_path],
                              capsys)
        with pytest.raises(BadDimension):
            load_scenario(bad)
        assert not (tmp_path / "dual.json").exists()

    @pytest.mark.parametrize("x0", ["inf", "nan"])
    def test_non_finite_x0(self, tmp_path, capsys, x0):
        # inf failed in the root-find, nan in the budget residual check
        raw = json.loads((SCENARIOS / "multi_kink_demo.json").read_text())
        raw["x0"] = x0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        err = self._input_error(["solve", "--scenario", bad, "--out", tmp_path],
                                capsys)
        assert "x0 must be finite" in err
        with pytest.raises(BadDimension):
            load_scenario(bad)
        assert not (tmp_path / "dual.json").exists()

    @pytest.mark.parametrize("t", ["T", "nan", "inf", "negative"])
    def test_time_grid_outside_horizon(self, tmp_path, capsys, t):
        # solve exited 0 on these while surface exited 2: every command
        # now rejects them on load
        raw = json.loads((SCENARIOS / "multi_kink_demo.json").read_text())
        raw["grids"]["t"] = [0.0, {"T": raw["market"]["T"], "nan": "nan",
                                   "inf": "inf", "negative": -1.0}[t]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        for command in ("solve", "surface"):
            err = self._input_error([command, "--scenario", bad, "--out", tmp_path],
                                    capsys)
            assert "grids.t entries must be finite and in [0, 10.0)" in err
        with pytest.raises(BadDimension):
            load_scenario(bad)
        assert not (tmp_path / "dual.json").exists()
        assert not (tmp_path / "surface.csv").exists()

    @pytest.mark.parametrize("edit, field", [
        ({"T": 1e308}, "r T"), ({"mu": ["inf"]}, "mu entries"),
        ({"mu": [1e308]}, "|theta|^2 T"), ({"sigma": [[1e308]]}, "sigma entries"),
        ({"mu": [0.086, 0.09], "sigma": [[0.3, 0.0], [0.2]]}, "mu and sigma must be arrays"),
    ], ids=["T_1e308", "mu_inf", "mu_1e308", "sigma_1e308", "sigma_ragged"])
    def test_market_out_of_range(self, tmp_path, capsys, edit, field):
        # these gave an OverflowError traceback or overflow and invalid-value
        # warnings; now one typed error that names the field
        raw = json.loads((SCENARIOS / "crra.json").read_text())
        raw["market"].update(edit)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        err = self._input_error(["solve", "--scenario", bad, "--out", tmp_path],
                                capsys)
        assert field in err and err.count("\n") == 1
        with pytest.raises(BadDimension):
            load_scenario(bad)
        assert not (tmp_path / "dual.json").exists()

    @pytest.mark.parametrize("key", ["a0_included"])
    def test_quoted_boolean(self, tmp_path, capsys, key):
        # bool("false") is True: only JSON true and false are accepted
        raw = json.loads((SCENARIOS / "crra.json").read_text())
        raw["utility"][key] = "false"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        err = self._input_error(["solve", "--scenario", bad, "--out", tmp_path],
                                capsys)
        assert f"{key} must be true or false" in err
        with pytest.raises(BadDimension):
            load_scenario(bad)

    @pytest.mark.parametrize("flag", [("--xi", "-1"), ("--xi", "0"),
                                      ("--xi", "nan"), ("--xi", "inf"),
                                      ("--x", "nan"), ("--x", "inf")],
                             ids=lambda f: f"{f[0][2:]}={f[1]}")
    def test_decompose_bad_state(self, tmp_path, capsys, flag):
        self._input_error(["decompose", "--scenario",
                           SCENARIOS / "multi_kink_demo.json", "--out",
                           tmp_path, "--t", "5.0", *flag], capsys)
        assert not (tmp_path / "decompose.json").exists()

    @pytest.mark.parametrize("name", BUNDLED)
    def test_decompose_wealth_beyond_the_doubles(self, tmp_path, capsys, name):
        # X_t at xi = 1e-200 is above 1e308: the power terms overflowed and
        # the report's NaN escaped as a ValueError traceback
        err = self._input_error(["decompose", "--scenario", SCENARIOS / f"{name}.json",
                                 "--out", tmp_path, "--xi", "1e-200"], capsys)
        assert err == ("error: optimal wealth at state price xi = 1e-200 "
                       "does not fit a double\n")
        assert not (tmp_path / "decompose.json").exists()

    def test_decompose_needs_x_or_xi(self, tmp_path):
        scn = load_scenario(SCENARIOS / "crra.json")
        with pytest.raises(IllegalCase):
            cmd_decompose(scn, tmp_path, 0.0, None, None)

    def test_surface_needs_one_asset(self, tmp_path):
        raw = json.loads((SCENARIOS / "crra.json").read_text())
        raw["market"].update(mu=[0.086, 0.09], sigma=[[0.3, 0.0], [0.0, 0.2]])
        path = tmp_path / "two.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(BadDimension):
            cmd_surface(load_scenario(path), tmp_path, 11)


def _run_child(code: str) -> None:
    """Run ``code`` in a fresh interpreter on this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_split_commands_leave_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma (about 15 ms and 1.4 MB); the common-R
    # test of surface and decompose needs only a set
    _run_child(f"""
import sys
from phara.cli import main
for command, *flags in (("surface",), ("decompose", "--t", "1", "--x", "12")):
    code = main([command, "--scenario", {str(SCENARIOS / "multi_kink_demo.json")!r},
                 "--out", {str(tmp_path)!r}, *flags])
    assert code == 0, (command, code)
assert "numpy.ma" not in sys.modules
""")


def test_commands_never_import_scipy(tmp_path):
    # Phi and its inverse live in phara.normal; scipy is a test-only oracle
    _run_child(f"""
import sys
from phara.cli import main
commands = (("envelope",), ("solve",), ("surface",),
            ("decompose", "--t", "1", "--x", "12"), ("verify", "--paths", "2000"),
            ("simulate", "--paths", "200", "--steps", "10"))
for name in {BUNDLED!r}:
    for command, *flags in commands:
        code = main([command, "--scenario", {str(SCENARIOS)!r} + "/" + name + ".json",
                     "--out", {str(tmp_path)!r}, *flags])
        assert code == 0, (name, command, code)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
""")
