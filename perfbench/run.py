"""Benchmark of the ``phara`` command line: wall time per command, end to end.

    python3 perfbench/run.py --workload surface_sweep --seed 1 --seconds 40 --trace 0

Run from anywhere; the repository root is the parent of this directory.  The
run builds the package (byte-compiles ``src/phara``), generates the
workload's scenarios from the seed, validates them, and then

- with ``--trace 0`` runs the plan's command list several times (passes,
  each in its own seeded order), every command as its own child process,
  one at a time (closed loop, one client), checking each execution's
  outputs; every execution is one wall-time sample.  Before each pass it
  measures set-up time (fresh interpreter through ``import phara``
  and ``cli.load_scenario``); the run reports the median of these samples;
- with ``--trace 1`` runs the command list once in one traced process
  (``perfbench/tracer.py``) and reports per-layer figures.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 on a completed run
(failed commands included), 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_command  # noqa: E402
from scenarios import WORKLOADS, build_plan  # noqa: E402

SETUP_SAMPLES = 6          # spread over the passes of a run
RUN_DEADLINE_S = 140.0      # start no command after this; runs end within 180 s
COMMAND_TIMEOUT_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_CODE = ("import sys, phara, phara.cli\n"
              "phara.cli.load_scenario(sys.argv[1])\n")


class BenchError(Exception):
    """The run cannot be made (missing sources, invalid generated input)."""


def child_env() -> dict:
    """Environment for every child: the checkout's sources first on the
    path, math libraries pinned to one thread, PHARA_THREADS unset."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PHARA_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(argv: list, env: dict, log: Path, timeout: float) -> tuple:
    """Run argv to completion; (exit code, wall seconds, peak RSS in MB)."""
    with log.open("wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=fh,
                                stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def percentile(values: list, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it.  Below 20
    samples no percentile above the median has ten beyond it, and a maximum
    of so few samples mostly measures machine noise, so the median stands
    in; the printed percentile and sample count say so."""
    return 100.0 * (1.0 - 10.0 / n) if n >= 20 else 50.0


# ---------------------------------------------------------------------------
# Preparation
# ---------------------------------------------------------------------------


def build(env: dict) -> None:
    """Byte-compile the package so no timed child pays for compilation."""
    src = ROOT / "src" / "phara"
    if not (src / "cli.py").is_file():
        raise BenchError(f"no phara sources under {src.relative_to(ROOT)}")
    if not (ROOT / "scenarios").is_dir():
        raise BenchError("no bundled scenarios directory")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)],
                   env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)


def validate(plan, scenario_dir: Path) -> None:
    """Every generated input loads, has an envelope and a solvable budget."""
    sys.path.insert(0, str(ROOT / "src"))
    from phara.cli import load_scenario
    from phara.concavify import concave_envelope
    from phara.solver import solve_multiplier

    for stem in plan.scenarios:
        try:
            scn = load_scenario(scenario_dir / f"{stem}.json")
            env = concave_envelope(scn.utility).envelope
            solve_multiplier(env, scn.market, scn.x0)
        except Exception as exc:
            raise BenchError(f"generated scenario {stem} is invalid: "
                             f"{type(exc).__name__}: {exc}") from exc
        if plan.workload == "surface_sweep" and scn.market.m != 1:
            raise BenchError(f"surface scenario {stem} has m={scn.market.m}")


def machine_info(env: dict) -> dict:
    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for mod in ("numpy", "scipy"):
        versions[mod] = getattr(sys.modules.get(mod), "__version__", "?")
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), **versions,
            "threads": {var: env[var] for var in THREAD_VARS},
            "PHARA_THREADS": os.environ.get("PHARA_THREADS", "<unset>")}


# ---------------------------------------------------------------------------
# Timed run
# ---------------------------------------------------------------------------


def measure_setup(env: dict, scenario: Path, work: Path, count: int) -> list:
    argv = [sys.executable, "-c", SETUP_CODE, str(scenario)]
    log = work / "setup.log"
    samples = []
    for _ in range(count):
        rc, wall, _ = run_child(argv, env, log, COMMAND_TIMEOUT_S)
        if rc != 0:
            raise BenchError(f"set-up probe exited {rc}: {log.read_text()[-500:]}")
        samples.append(wall)
    return samples


def timed_run(plan, work: Path, env: dict, t_start: float) -> tuple:
    """Every pass of the plan, set-up samples before each; (execution
    records, set-up samples)."""
    records, setup = [], []
    first = work / "scenarios" / f"{plan.commands[0].scenario}.json"
    per_pass = math.ceil(SETUP_SAMPLES / plan.passes)
    for k in range(plan.passes):
        setup += measure_setup(env, first, work, per_pass)
        for cmd in plan.pass_order(k):
            if time.perf_counter() - t_start > RUN_DEADLINE_S:
                print(f"warning: deadline reached in pass {k + 1} of "
                      f"{plan.passes}", file=sys.stderr)
                return records, setup
            out = work / "out" / f"p{k}" / cmd.name
            out.mkdir(parents=True)
            argv = [sys.executable, "-m", "phara.cli", cmd.command, "--scenario",
                    str(work / "scenarios" / f"{cmd.scenario}.json"),
                    "--out", str(out), *cmd.args]
            rc, wall, rss = run_child(argv, env, out / "console.log",
                                      COMMAND_TIMEOUT_S)
            verdict = check_command(cmd.command, rc, out,
                                    plan.scenarios[cmd.scenario], cmd.expect)
            records.append({"name": cmd.name, "command": cmd.command,
                            "pass": k, "rc": rc, "wall_s": wall, "rss_mb": rss,
                            "status": verdict.status, "reason": verdict.reason,
                            **verdict.work})
    return records, setup


def end_to_end(workload: str, records: list, setup: list) -> tuple:
    """End-to-end metrics of a timed run, and the figures printed beside
    them (tail percentile, sample count, workload-named throughput).  Every
    execution of every pass is one sample."""
    walls = [r["wall_s"] for r in records]
    total = sum(walls)
    n = len(records)
    q = tail_percentile(n)
    ok = sum(r["status"] == "ok" for r in records)
    if workload == "surface_sweep":
        work_name, work = "surface_points_per_s", sum(r.get("surface_points", 0)
                                                      for r in records)
    else:
        work_name, work = "commands_per_s", n
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cmd_wall_s.p50": (statistics.median(walls), "s"),
        "cmd_wall_s.tail": (percentile(walls, q), "s"),
        "commands_per_s": (n / total, "1/s"),
        "work_per_s": (work / total, "1/s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in records), "MB"),
        "ok_frac": (ok / n, "ratio"),
    }
    extra = {"tail_percentile": q, "n": n, "setup_samples": len(setup),
             "work_metric": work_name, work_name: work / total,
             "fail_frac": (n - ok) / n}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, extra


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def traced(plan, work: Path, env: dict, t_start: float) -> tuple:
    plan_file = work / "plan.json"
    plan_file.write_text(json.dumps(plan.to_json()))
    trace_file = work / "trace.json"
    budget = max(10.0, 170.0 - (time.perf_counter() - t_start))
    rc, _, _ = run_child(
        [sys.executable, str(HERE / "tracer.py"), "--plan", str(plan_file),
         "--work", str(work), "--out", str(trace_file)],
        env, work / "trace.log", budget)
    if rc != 0:
        raise BenchError(f"traced run exited {rc}: "
                         f"{(work / 'trace.log').read_text()[-2000:]}")
    trace = json.loads(trace_file.read_text())
    by_name = {c.name: c for c in plan.commands}
    records = []
    for rec in trace["commands"]:
        cmd = by_name[rec["name"]]
        verdict = check_command(cmd.command, rec["rc"],
                                work / "traced" / cmd.name,
                                plan.scenarios[cmd.scenario], cmd.expect)
        records.append({"name": cmd.name, "command": cmd.command, "rc": rec["rc"],
                        "wall_s": rec["wall_traced"], "status": verdict.status,
                        "reason": verdict.reason})
    return trace["metrics"], records


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="phara command-line benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_start = time.perf_counter()
    env = child_env()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    try:
        build(env)
        shutil.rmtree(work, ignore_errors=True)
        plan = build_plan(args.workload, args.seed, args.seconds,
                          ROOT / "scenarios")
        plan.write_scenarios(work / "scenarios")
        validate(plan, work / "scenarios")
        info = machine_info(env)
        if args.trace:
            metrics, records = traced(plan, work, env, t_start)
            extra = {}
        else:
            records, setup = timed_run(plan, work, env, t_start)
            metrics, extra = end_to_end(args.workload, records, setup)
    except (BenchError, subprocess.CalledProcessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = [r for r in records if r["status"] != "ok"]
    wrong = [r for r in records if r["status"] == "wrong"]
    (work / "records.json").write_text(json.dumps(
        {"machine": info, "records": records, "metrics": metrics,
         "extra": extra}, indent=1))

    print(f"machine: {json.dumps(info, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} command executions, closed loop, one client, "
          f"{time.perf_counter() - t_start:.1f} s")
    for r in failed:
        print(f"  {r['status'].upper()} {r['name']} (exit {r['rc']}): {r['reason']}")
    if extra:
        print(f"  {len(plan.commands)} commands x {plan.passes} passes; "
              f"{extra['setup_samples']} set-up samples")
        print(f"  cmd_wall_s.tail is p{extra['tail_percentile']:.1f} of "
              f"n={extra['n']}; {extra['work_metric']} = "
              f"{extra[extra['work_metric']]:.6g}; fail_frac = "
              f"{extra['fail_frac']:.4g}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
