"""Tests of the benchmark itself: generator, output gate, metric names, and
short runs of ``perfbench/run.py``.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _plan(workload, seed, seconds=30):
    return scenarios.build_plan(workload, seed, seconds, ROOT / "scenarios")


# -- generator ----------------------------------------------------------------


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_plan_is_deterministic_per_seed(workload):
    a, b = _plan(workload, 5).to_json(), _plan(workload, 5).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = _plan(workload, 6).to_json()
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


def test_seeded_items_do_not_depend_on_plan_length():
    short, long = _plan("surface_sweep", 3, 10), _plan("surface_sweep", 3, 40)
    for stem, scn in short.scenarios.items():
        assert long.scenarios[stem] == scn


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_plan_covers_bundled_scenarios_and_size(workload):
    plan = _plan(workload, 2)
    used = {c.scenario for c in plan.commands}
    assert set(scenarios.BUNDLED) <= used
    assert len(plan.commands) >= scenarios.plan_size(workload, 30) - 3
    assert len({c.name for c in plan.commands}) == len(plan.commands)


def test_surface_variants_are_stratified():
    plan = _plan("surface_sweep", 9)
    sizes = sorted(s["grids"]["wealth"]["n"] for stem, s in plan.scenarios.items()
                   if stem not in scenarios.BUNDLED)
    assert set(sizes) <= set(scenarios._SURFACE_SIZES)
    assert all(80 <= n <= 200 for n in sizes)
    for scn in plan.scenarios.values():
        T = scn["market"]["T"]
        assert all(0.0 <= t < 0.95 * T for t in scn["grids"]["t"])


def test_pass_orders_are_seeded_permutations():
    plan = _plan("surface_sweep", 7)
    orders = [[c.name for c in plan.pass_order(k)] for k in range(plan.passes)]
    assert plan.passes == scenarios.PASSES["surface_sweep"] > 1
    assert all(sorted(o) == sorted(c.name for c in plan.commands) for o in orders)
    assert orders == [[c.name for c in _plan("surface_sweep", 7).pass_order(k)]
                      for k in range(plan.passes)]
    assert len({tuple(o) for o in orders}) > 1


def test_cold_plan_skips_decompose_for_two_assets():
    plan = _plan("cold_commands", 4)
    for cmd in plan.commands:
        m = len(plan.scenarios[cmd.scenario]["market"]["mu"])
        if cmd.command == "decompose":
            assert m == 1
    assert any(len(s["market"]["mu"]) == 2 for s in plan.scenarios.values())


def test_random_pieces_are_continuous_or_jump_up():
    rng = random.Random(1)
    for _ in range(50):
        util = scenarios.random_raw_pieces(rng, rng.randint(1, 8))
        pieces = util["pieces"]
        for left, right in zip(pieces, pieces[1:]):
            x = right["a_lo"]
            assert right["anchor"]["u"] >= scenarios.piece_value(left, x) - 1e-12


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_generated_inputs_validate(workload):
    plan = _plan(workload, 8)
    directory = ROOT / ".perfbench_work" / "test-validate" / workload
    plan.write_scenarios(directory)
    run.validate(plan, directory)


# -- output gate ---------------------------------------------------------------


def _write(directory: Path, name: str, payload) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(json.dumps(payload))


def test_solve_gate_rejects_large_residual():
    out = ROOT / ".perfbench_work" / "test-gate" / "solve"
    scn = {"x0": 2.0}
    _write(out, "dual.json", {"y_star": 0.5, "budget_residual": 1e-13, "x0": 2.0})
    assert checks.check_command("solve", 0, out, scn, {}).status == "ok"
    _write(out, "dual.json", {"y_star": 0.5, "budget_residual": 1e-6, "x0": 2.0})
    assert checks.check_command("solve", 0, out, scn, {}).status == "wrong"


def test_oracle_verdicts():
    out = ROOT / ".perfbench_work" / "test-gate" / "verify"
    _write(out, "verification.json", [{"name": "mc_budget", "passed": False,
                                       "computed": 1.2}])
    assert checks.check_command("verify", 1, out, {}, {}).status == "fail"
    assert checks.check_command("verify", 0, out, {}, {}).status == "wrong"
    assert checks.check_command("verify", 2, out, {}, {}).status == "wrong"
    assert checks.check_command("solve", 1, out, {}, {}).status == "wrong"


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(5) == 50.0
    for n in (20, 41, 100):
        q = run.tail_percentile(n)
        assert n * (1.0 - q / 100.0) == pytest.approx(10.0)
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0


# -- metric names ----------------------------------------------------------------


def _spec_names(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_end_to_end_names_match_spec():
    records = [{"name": f"c{i}", "pass": k, "wall_s": 1.0 + i + k,
                "rss_mb": 80.0 + k, "status": "ok" if k else "fail",
                "surface_points": 100} for i in range(3) for k in range(2)]
    metrics, extra = run.end_to_end("surface_sweep", records, [0.5, 0.6])
    assert {k: v["unit"] for k, v in metrics.items()} == _spec_names("end_to_end")
    # every execution of every pass is one sample
    assert metrics["cmd_wall_s.p50"]["value"] == 2.5
    assert metrics["commands_per_s"]["value"] == pytest.approx(6 / 15.0)
    assert metrics["work_per_s"]["value"] == pytest.approx(600 / 15.0)
    assert metrics["peak_rss_mb"]["value"] == 81.0
    assert extra["fail_frac"] == 0.5 and extra["n"] == 6


def test_per_layer_names_match_spec():
    metrics = tracer.layer_metrics([], {}, 1, 0.5, 1.0, 1.1)
    assert {k: v["unit"] for k, v in metrics.items()} == _spec_names("per_layer")


def test_spec_workloads_match_generator():
    assert [w["name"] for w in SPEC["workloads"]] == list(scenarios.WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]


# -- short runs --------------------------------------------------------------------


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_timed_run():
    res = _result(_run(["--workload", "surface_sweep", "--seed", "1",
                        "--seconds", "1", "--trace", "0"]))
    passes = scenarios.PASSES["surface_sweep"]
    assert res["correct"] and res["attempted"] == 4 * passes
    assert res["failed"] == 0
    assert set(res["metrics"]) == set(_spec_names("end_to_end"))
    assert all(math.isfinite(m["value"]) and m["value"] > 0
               for m in res["metrics"].values())


def test_smoke_traced_run():
    res = _result(_run(["--workload", "surface_sweep", "--seed", "1",
                        "--seconds", "1", "--trace", "1"]))
    assert res["correct"] and res["attempted"] == 4
    m = res["metrics"]
    assert set(m) == set(_spec_names("per_layer"))
    assert m["solver.state_price_for_wealth_s"]["value"] > 0
    assert m["solver.inversion_wealth_calls.max"]["value"] >= 1
    assert m["cli.self_s"]["value"] > 0


def test_fails_without_sources():
    bare = ROOT / ".perfbench_work" / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "cold_commands", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    shutil.rmtree(bare)
