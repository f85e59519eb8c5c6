"""Paired parent/change timing of one benchmark plan, command by command.

    python tools/pair.py PARENT_TREE CHANGE_TREE --workload W --seed S

Each tree is a checkout holding ``src/phara``.  The plan is built by this
repository's ``perfbench/scenarios.py`` from its bundled scenarios, so both
trees run identical commands, and both trees are byte-compiled first (a
stale ``.pyc`` under ``PYTHONDONTWRITEBYTECODE=1`` recompiles on every start
and would read as a slowdown).  Each round runs every command of the plan,
in a seeded order, once in each tree as a ``python -m phara.cli`` child
process, back to back; which tree goes first alternates from one command to
the next and from one round to the next.  A pair of single commands sees a
second of host drift, where a pair of whole benchmark runs sees minutes.

Per pair it records the change/parent ratio of the wall time, the CPU time
(``ru_utime + ru_stime`` from ``os.wait4``) and the peak RSS
(``ru_maxrss``).  Per command type and over all commands it prints each
ratio's median with its distribution-free 95 % interval (the sign-test
interval: two order statistics of the ratios, which holds its level at any
pair count and reads n/a below 6 pairs), and the count of pairs where the
change took longer.  Per side, over that side's executions, it prints the
benchmark's end-to-end wall metrics as ``perfbench/run.py`` computes them
from its own samples: ``cmd_wall_s.p50``, ``cmd_wall_s.tail`` (the highest
percentile with ten samples beyond it, the median below 20 samples) and
``commands_per_s``; so a claim on a tail can be checked on pairs before a
whole benchmark run.  The plan is the one ``perfbench/run.py --seconds 40``
builds.  The last line of standard output is the result object; ``--json
PATH`` also writes it with every pair.  A report, not a gate: the exit code
is 0 once every pair has run, 2 when ``--rounds`` is below 1 (checked
before either tree is built), a tree has no sources or ``--only`` matches
no command of the plan.  It uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import THREAD_VARS, percentile, tail_percentile  # noqa: E402
from scenarios import WORKLOADS, build_plan  # noqa: E402

METRICS = ("wall", "cpu", "rss")
PLAN_SECONDS = 40.0
LEVEL = 0.95


def child_env(tree: Path) -> dict:
    """The benchmark's child environment, with ``tree``'s sources on the path."""
    return dict(os.environ, PYTHONPATH=str(tree / "src"), **{var: "1" for var in THREAD_VARS})


def build(tree: Path) -> bool:
    """Byte-compile the tree's package; False when it has none."""
    src = tree / "src" / "phara"
    if not (src / "cli.py").is_file():
        print(f"error: no phara sources under {src}", file=sys.stderr)
        return False
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)],
                   check=True, stdout=subprocess.DEVNULL)
    return True


def plan_commands(workload: str, seed: int, scenario_dir: Path) -> list:
    """The commands of the plan that ``perfbench/run.py --seconds 40`` runs,
    with its scenario files written into scenario_dir."""
    plan = build_plan(workload, seed, PLAN_SECONDS, ROOT / "scenarios")
    plan.write_scenarios(scenario_dir)
    return plan.commands


def phara_argv(cmd, scenario_dir: Path, out: Path) -> list:
    """The child process's command line for one plan command."""
    return [sys.executable, "-m", "phara.cli", cmd.command,
            "--scenario", str(scenario_dir / f"{cmd.scenario}.json"),
            "--out", str(out), *cmd.args]


def run_child(argv: list, env: dict, cwd: Path, out: Path) -> dict:
    """Run argv to completion, its standard output and error written to the
    files ``stdout`` and ``stderr`` in out: exit code, wall and CPU seconds,
    peak RSS in MB."""
    with (out / "stdout").open("wb") as fh, (out / "stderr").open("wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=fh, stderr=err,
                                stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    return {"rc": os.waitstatus_to_exitcode(status), "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime, "rss": usage.ru_maxrss / 1024.0}


def interval(ratios: list) -> dict:
    """Median of the ratios and the widest-k order statistics [x_(k),
    x_(n+1-k)] that cover the true median with probability at least LEVEL
    whatever the ratios' law; lo and hi are None when even [min, max] does not
    (n < 6)."""
    xs = sorted(ratios)
    n = len(xs)
    k, below = 0, 0  # below: P(Binomial(n, 1/2) <= k - 1) * 2^n
    while 2 * (below + math.comb(n, k)) <= (1.0 - LEVEL) * 2 ** n:
        below += math.comb(n, k)
        k += 1
    lo, hi = (xs[k - 1], xs[n - k]) if k else (None, None)
    return {"median": statistics.median(xs), "lo": lo, "hi": hi}


def summarize(pairs: list) -> dict:
    """Per command type, and over all pairs: each ratio's median and
    interval, the pair count and the count of pairs where the change was
    slower."""
    groups = {"all": pairs}
    for p in pairs:
        groups.setdefault(p["command"], []).append(p)
    out = {}
    for name, group in groups.items():
        ratios = {m: [p["change"][m] / p["parent"][m] for p in group] for m in METRICS}
        out[name] = {"pairs": len(group),
                     "slower": sum(r > 1.0 for r in ratios["wall"]),
                     **{m: interval(ratios[m]) for m in METRICS}}
    return out


def end_to_end(pairs: list) -> dict:
    """Per side, the benchmark's end-to-end wall metrics over that side's
    executions, with the tail's percentile."""
    out = {}
    for side in ("parent", "change"):
        walls = [p[side]["wall"] for p in pairs]
        q = tail_percentile(len(walls))
        out[side] = {"cmd_wall_s.p50": statistics.median(walls),
                     "cmd_wall_s.tail": percentile(walls, q), "tail_percentile": q,
                     "commands_per_s": len(walls) / sum(walls)}
    return out


def bounds(iv: dict) -> str:
    """An interval as printed: [lo, hi], or [n/a] on too few pairs."""
    return "[n/a]" if iv["lo"] is None else f"[{iv['lo']:.4f}, {iv['hi']:.4f}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="parent checkout")
    ap.add_argument("change", type=Path, help="changed checkout")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--rounds", type=int, default=1, help="passes over the plan")
    ap.add_argument("--only", default="",
                    help="run only the commands whose name contains this text")
    ap.add_argument("--json", type=Path, default=None, help="also write every pair here")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        print(f"error: --rounds must be at least 1, got {args.rounds}", file=sys.stderr)
        return 2

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if not all([build(tree) for tree in trees.values()]):
        return 2
    pairs = []
    with tempfile.TemporaryDirectory(prefix="phara-pair-") as tmp:
        work = Path(tmp)
        commands = [c for c in plan_commands(args.workload, args.seed, work / "scenarios")
                    if args.only in c.name]
        if not commands:
            print(f"error: --only={args.only!r} matches no command of the {args.workload} "
                  f"plan for seed {args.seed}", file=sys.stderr)
            return 2
        for k in range(args.rounds):
            order = list(commands)
            random.Random(f"{args.seed}/pair/{k}").shuffle(order)
            for i, cmd in enumerate(order):
                sides = ("parent", "change") if (k + i) % 2 == 0 else ("change", "parent")
                pair = {"name": cmd.name, "command": cmd.command, "round": k,
                        "first": sides[0]}
                for side in sides:
                    out = work / "out" / side / str(k) / cmd.name
                    out.mkdir(parents=True)
                    pair[side] = run_child(phara_argv(cmd, work / "scenarios", out),
                                           child_env(trees[side]), work, out)
                pairs.append(pair)

    summary = summarize(pairs)
    print(f"{'type':<10} {'pairs':>5} {'slower':>6}   "
          + "   ".join(f"{m + ' ratio [interval]':<25}" for m in METRICS))
    for name, s in summary.items():
        print(f"{name:<10} {s['pairs']:>5} {s['slower']:>6}   " + "   ".join(
            f"{s[m]['median']:.4f} {bounds(s[m])}".ljust(25) for m in METRICS))
    sides = end_to_end(pairs)
    for side, e in sides.items():
        print(f"{side:<10} cmd_wall_s.p50 {e['cmd_wall_s.p50']:.4f} s   cmd_wall_s.tail "
              f"(p{e['tail_percentile']:.1f}) {e['cmd_wall_s.tail']:.4f} s   "
              f"commands_per_s {e['commands_per_s']:.3f}")
    mismatched = sorted({p["name"] for p in pairs if p["parent"]["rc"] != p["change"]["rc"]})
    if mismatched:
        print(f"exit codes differ: {', '.join(mismatched)}")
    result = {"workload": args.workload, "seed": args.seed, "rounds": args.rounds,
              "only": args.only, "level": LEVEL,
              "parent": str(trees["parent"]), "change": str(trees["change"]),
              "exit_codes_differ": mismatched, "summary": summary, "end_to_end": sides}
    if args.json is not None:
        args.json.write_text(json.dumps({**result, "pairs": pairs}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
