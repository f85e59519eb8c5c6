"""Artifact comparison of two checkouts over one fixed command matrix.

    python tools/same.py PARENT_TREE [CHANGE_TREE]

Each tree is a checkout holding ``src/phara``; CHANGE_TREE defaults to this
repository.  Both trees are byte-compiled and run the same matrix as
``python -m phara.cli`` child processes, at most two at a time:

- all six commands on the four bundled scenarios at their defaults, and
  ``decompose`` at ten points each (group ``bundled``; state prices and
  wealth levels across the horizon, the state prices 1e-200 and 1e200 whose
  wealth does not fit a double included);
- every command of the ``surface_sweep`` and ``cold_commands`` plans that
  ``perfbench/run.py --seconds 40`` runs, for seeds 1 and 7;
- ten single-fault invocations on bundled scenarios (group ``faults``),
  each an input error (exit 2): ``decompose`` without ``--x`` and ``--xi``,
  with ``--x inf``, with ``--xi 0`` and with ``--x`` below the wealth floor;
  ``envelope --grid 1``; ``simulate --steps 5``; ``verify --paths 1``; ``envelope`` on two copies of
  ``hedge_fund.json`` whose payoff has one slope too few, or its breakpoint
  below the floor; and ``envelope`` on a copy of
  ``participating_contract.json`` whose reference sits one subnormal above
  the floor, where the loss piece's anchor slope overflows;
- ``envelope``, ``solve`` and ``surface`` on three random compositions (group
  ``steep``), draws of the steep corpus of ``tests/corpora.py``, each an
  S-shaped preference composed with a payoff, in a copy of ``crra.json``.
  Two have a payoff of slope up to 8e11: their continuity, composition and
  sweep checks read the value rule (``utility.same_value``).
  The third, ``steep1316``, has a payoff of slope 0.98.  Its envelope, and
  ``steep6``'s, end a chord within ulps of a gain branch's benchmark, where
  one ulp moves that branch's slope far (to +inf in ``steep1316``): their
  ladders read the junction rule (``utility.one_slope``).  So a change to
  either rule shows up here;
- ``envelope``, ``solve``, ``surface``, ``verify`` and ``decompose`` (at
  t = 5: ``--xi 1``, ``--x 1.5`` and ``--x 2.6``) on a copy of
  ``hedge_fund.json`` whose payoff is flat above its breakpoint, with x0 1.0
  and no wealth grid (group ``capped``), and ``solve`` on that copy at x0
  2.1.  A flat tail has bounded demand, and no wealth reaches its ceiling
  e^(-r(T-t)) a_f: 2 at t = 0 and 2.568 at t = 5, so the last two
  invocations exit 2, and the default wealth axis stops short of it;
- ``envelope``, ``solve`` and ``decompose --t 5 --xi 1`` on three utilities
  with an exponential branch whose own anchor lies far right of its cell's
  left end (group ``cara``), each in a copy of ``crra.json`` at x0 1.0: a
  concave piece list, an exponential head on [-20, 5) and a power tail that
  meets it at 5 with its value and slope, whose envelope is itself; and two
  CARA preferences composed with a payoff, the second flat above its last
  breakpoint.  Anchored at those left ends, the branches' values reach up
  to 1e66 and cancel (``utility._anchor``), so a change to the anchor rule
  shows up here;
- ``surface``, ``decompose --t 5 --xi 1`` and ``verify --paths 2000`` on four
  markets of several assets (group ``multi``): a two-asset copy of
  ``crra.json``; two- and three-asset copies of ``multi_kink_demo.json`` that
  keep its r, T and |theta|, so that each asset's columns of ``surface.csv``
  are the one-asset columns along (sigma^T)^-1 theta; and the two-asset
  ``crra.json`` market with a utility of two risk aversions, whose split
  columns are NaN;
- ``envelope --grid 21``, ``solve``, ``surface --grid 21`` and ``verify
  --paths 2000`` on eight utilities (group ``branches``), each in a copy of
  ``crra.json`` with no wealth grid, so that ``surface`` reads the default
  wealth axis: log x, whose U(0) = -inf starts the sweep on an open domain,
  steps the curve's first point off a0 and evaluates the log branch, and
  whose constant deflated wealth sets the Monte-Carlo checks' band to the
  budget's rounding; ``crra.json``'s utility as a "phara" preference under the identity payoff,
  which ``compose`` passes through; and six piece lists, one per sweep branch
  that no other golden command takes: two collinear chords that merge, a
  jump up, an unbounded line steeper than the hull (``solve``, ``surface``
  and ``verify`` exit 2: demand is infinite), a finite one, an arc wholly
  below the hull's support lines, and a chord that reaches an arc's end.  So
  a change to the log branch, the identity shortcut, one of those sweep
  branches or the Monte-Carlo rounding band shows up here.

The inputs come from this repository, so both trees read the same files.
For every command, failing ones included, it compares the exit code, the
standard output and error, line by line, and the bytes of every artifact.
Where an artifact differs it names the JSON key path (a report in a list by
its ``name``) or the CSV cell, the two values, their distance in units in
the last place (ulps) and their relative difference when both are floats;
an exit code or another integer is shown as it is.  A summary counts the
differences per file and key, with the largest relative difference among
the floats.  A report, not a gate: the exit code is 0 when nothing differs,
1 when something does and 2 when a tree has no sources.  It uses the
standard library only, with the plan and child-process code of
``tools/pair.py``.

    python tools/same.py --record

rewrites the golden files, ``tests/golden/``, from this repository: for
each command of ``GOLDEN_GROUPS`` (the ``bundled``, ``faults``, ``steep``,
``capped``, ``cara``, ``multi`` and ``branches`` groups; ``steep``, ``cara``,
``multi`` and ``branches`` are the tables of ``TABLES``), its artifacts,
standard output and error and exit code (file ``exit_code``) in one directory,
``tests/golden/<group>/<command>``; and ``host.json``, the numpy version,
Python version, CPU and the features numpy dispatches on, as ``host()``
reads them.  Every scenario file but the bundled ones is written by
``write_scenario``.  A command names its scenario file by the relative
path ``<group>/<scenario>.json``, so an error message that prints it is
the same wherever the group runs.  ``tests/test_golden.py`` reruns
the groups in process and compares them with those files through
``compare_dirs``: byte for byte on a host whose ``host()`` equals
``host.json``, and elsewhere through ``golden_diffs``, which lets a float
differ by ``FOREIGN_RTOL`` relative plus ``FOREIGN_ATOL``, and a number
printed in a line of output by ``PRINTED_RTOL``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pair import ROOT, build, child_env, phara_argv, plan_commands, run_child  # noqa: E402
from scenarios import BUNDLED, WORKLOADS, Command  # noqa: E402  (pair's path)

SEEDS = (1, 7)
WORKERS = 2
GOLDEN = ROOT / "tests" / "golden"
# the golden comparison on another host: floats a, b with |a - b| within
# FOREIGN_RTOL max(|a|, |b|) + FOREIGN_ATOL (the measurement behind both is
# in CHANGES.md), and numbers printed in %g's six digits, which two such
# floats can round one unit apart, within PRINTED_RTOL of each other
FOREIGN_RTOL = 1e-9
FOREIGN_ATOL = 1e-12
PRINTED_RTOL = 1e-5
# what the numbers depend on besides the sources, printed by a child so that
# this file imports no numpy
HOST = """
import json, platform, numpy
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
try:
    with open("/proc/cpuinfo") as fh:
        cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
except (OSError, StopIteration):
    cpu = platform.processor()
print(json.dumps({"numpy": numpy.__version__, "python": platform.python_version(),
                  "machine": platform.machine(), "cpu": cpu,
                  "dispatch": [f for f in umath.__cpu_dispatch__
                               if umath.__cpu_features__.get(f)]}))
"""
# decompose points (t, flag, value); "x0" is the scenario's initial wealth
POINTS = ((5.0, "--xi", 1.0), (5.0, "--xi", 0.3), (9.0, "--xi", 2.5),
          (2.0, "--xi", 1e-3), (5.0, "--xi", 1e-200), (5.0, "--xi", 1e200),
          (0.0, "--x", "x0"), (5.0, "--x", "x0"), (5.0, "--x", 30.0),
          (9.5, "--x", 1.5))
# single-fault invocations (command, scenario, flags); multi_kink_demo's floor
# at t = 5 is 4 e^(-0.25) = 3.1, and the FIELD_FAULTS files change fields of
# one block of a bundled scenario
FAULTS = (("decompose", "crra", ()), ("decompose", "crra", ("--x", "inf")),
          ("decompose", "crra", ("--xi", "0")),
          ("decompose", "multi_kink_demo", ("--t", "5", "--x", "3")),
          ("envelope", "crra", ("--grid", "1")), ("simulate", "crra", ("--steps", "5")),
          ("verify", "crra", ("--paths", "1")), ("envelope", "hedge_fund_one_slope", ()),
          ("envelope", "hedge_fund_low_breakpoint", ()),
          ("envelope", "participating_contract_subnormal_reference", ()))
# name: (bundled scenario, edit of write_scenario); the payoff faults are one
# slope short, and the breakpoint below the floor 1.154
FIELD_FAULTS = {
    "hedge_fund_one_slope": ("hedge_fund", {"utility.payoff.slopes": [0.28]}),
    "hedge_fund_low_breakpoint": ("hedge_fund", {"utility.payoff.breakpoints": [1.0]}),
    "participating_contract_subnormal_reference": (
        "participating_contract", {"utility.preference.reference": 5e-324,
                                   "utility.preference.loss_exponent": 0.01})}
# draws 5, 6 and 1316 of the steep corpus of tests/corpora.py, as scenario
# "utility" blocks (tests/test_same.py checks them against the corpus)
STEEP = {
    "steep5": {"preference": {"type": "s_shaped", "reference": 2.3451921230842556,
                              "gain_exponent": 0.4736504148692837,
                              "loss_exponent": 0.6762923099079033,
                              "loss_weight": 4.174419406293373},
               "payoff": {"floor": 0.15174771641887608, "value_lo": 0.42044229041378256,
                          "breakpoints": [0.45706155401454823],
                          "slopes": [15857.21875835412, 774163105696.3518]}},
    "steep6": {"preference": {"type": "s_shaped", "reference": 1.7476400200778284,
                              "gain_exponent": 0.6171543117632141,
                              "loss_exponent": 0.3233993144654729,
                              "loss_weight": 3.2076224905612265},
               "payoff": {"floor": -0.21993887917716703, "value_lo": 1.3127872360208268,
                          "breakpoints": [2.391966502754233],
                          "slopes": [494218597558.0551, 0.0037770652682795947]}},
    "steep1316": {"preference": {"type": "s_shaped", "reference": 1.5158611050105482,
                                 "gain_exponent": 0.9477417855775014,
                                 "loss_exponent": 0.24784897802429728,
                                 "loss_weight": 3.5876455714681477},
                  "payoff": {"floor": -0.08576597524819896, "value_lo": 1.2616239656156172,
                             "breakpoints": [], "slopes": [0.9801273255833165]}}}


def _cara(alpha: float, a0: float) -> dict:
    """cara_utility(alpha, a0) as a scenario "phara" preference: one
    exponential piece from a0, worth -1/alpha with slope 1 at 0."""
    return {"type": "phara", "a0": a0, "pieces": [
        {"a_lo": a0, "R": "inf", "alpha": alpha,
         "anchor": {"x": 0.0, "u": -1.0 / alpha, "slope": 1.0}}]}


# the cara group's utilities, as scenario "utility" blocks
CARA = {
    "cara_list": {"a0": -20.0, "pieces": [
        {"a_lo": -20.0, "R": "inf", "alpha": 2.0, "anchor": {"x": 0.0, "u": -0.5, "slope": 1.0}},
        {"a_lo": 5.0, "R": 0.5, "A": 4.0,
         "anchor": {"x": 5.0, "u": -2.269996488124537e-05, "slope": 4.5399929762484854e-05}}]},
    "cara_steep": {"preference": _cara(4.863606887418385, -32.631305456440614),
                   "payoff": {"floor": -1.604773012787153, "value_lo": -31.96204685624691,
                              "breakpoints": [1.183516058191318],
                              "slopes": [0.0011153798584445842, 5.2336162478506845]}},
    "cara_flat": {"preference": _cara(3.243526599092306, -28.265074562328902),
                  "payoff": {"floor": 0.1578913054371025, "value_lo": -26.41401562383042,
                             "breakpoints": [1.6058118588707055, 3.423489214266105],
                             "slopes": [0.19837400692971024, 220.1339849333043, 0.0]}}}


def _market(sigma: list, u: tuple) -> dict:
    """multi_kink_demo's r = 0.05 and T = 10 with volatility sigma and market
    price of risk theta = 0.12 u, |theta| = 0.12 for a unit vector u: mu is
    r + sigma theta."""
    return {"r": 0.05, "T": 10.0, "sigma": sigma,
            "mu": [0.05 + sum(s * 0.12 * v for s, v in zip(row, u)) for row in sigma]}


CRRA_M2 = {"r": 0.05, "T": 10.0, "mu": [0.086, 0.09], "sigma": [[0.3, 0.0], [0.0, 0.2]]}
# a square-root head on [0, 2) from (0, 0) at slope 1 and an R = 2 tail from
# its end value at 0.9 times its end slope: no common R, so no split
TWO_R = {"a0": 0.0, "pieces": [
    {"a_lo": 0.0, "R": 0.5, "A": -1.0, "anchor": {"x": 0.0, "u": 0.0, "slope": 1.0}},
    {"a_lo": 2.0, "R": 2.0, "A": 1.0,
     "anchor": {"x": 2.0, "u": 1.4641016151377544, "slope": 0.5196152422706631}}]}
# the multi group's scenarios: name: (bundled scenario, edit of write_scenario)
MULTI = {
    "crra_m2": ("crra", {"market": CRRA_M2}),
    "demo_m2": ("multi_kink_demo", {"market": _market([[0.3, 0.0], [0.1, 0.2]], (0.6, 0.8))}),
    "demo_m3": ("multi_kink_demo", {"market": _market(
        [[0.3, 0.0, 0.0], [0.1, 0.2, 0.0], [0.05, 0.1, 0.25]], (2 / 3, 1 / 3, 2 / 3))}),
    "two_R_m2": ("crra", {"market": CRRA_M2, "utility": TWO_R, "x0": 3.0, "grids": {
        "t": [0.0, 5.0], "wealth": {"lo": 1.0, "hi": 6.0, "n": 4}}})}


def _pieces(a0: float, *rows) -> dict:
    """A piece-list "utility" block from rows (a_lo, R, A, (x, u, slope)), the
    anchor (x, u, slope) and A None for a line."""
    return {"a0": a0, "pieces": [
        {"a_lo": lo, "R": R, **({} if A is None else {"A": A}),
         "anchor": {"x": x, "u": u, "slope": slope}} for lo, R, A, (x, u, slope) in rows]}


# 2 (sqrt(1 + x) - 1) on [0, 1), worth 0 at 0 with slope 1, and its end value
SQRT_HEAD, SQRT_END = (0.0, 0.5, -1.0, (0.0, 0.0, 1.0)), 0.8284271247461903
# the branches group's utilities, as scenario "utility" blocks: each takes a
# branch of the template, compose or the sweep that no other golden command
# takes (tests/test_concavify.py reads the sweep's)
BRANCHES = {
    # log x: U(a0) = -inf, so the sweep starts on an open domain
    "log": _pieces(0.0, (0.0, 1.0, 0.0, (1.0, 0.0, 1.0))),
    # crra.json's utility under the identity payoff, which compose passes through
    "identity": {"preference": {"type": "phara", **_pieces(0.0, (0.0, 0.5, 0.0, (1.0, 2.0, 1.0)))},
                 "payoff": {"slopes": [1.0]}},
    # the chords over two flats have one slope, and merge
    "collinear": _pieces(0.0, (0.0, 0.0, None, (0.0, 0.0, 0.0)),
                         (1.0, 0.0, None, (1.0, 1.0, 0.0)), (2.0, 0.5, 1.0, (2.0, 2.0, 0.25))),
    # a jump up at 2, bridged by a chord
    "jump_up": _pieces(0.0, (0.0, 0.5, -1.0, (0.0, 0.0, 0.2)), (2.0, 0.5, 1.0, (2.0, 1.0, 0.1))),
    # a line of slope 0.9 from 1, steeper than the head there: demand is infinite
    "steep_tail": _pieces(0.0, SQRT_HEAD, (1.0, 0.0, None, (1.0, SQRT_END, 0.9))),
    # a line of slope 2 on [1, 2), steeper than the head: a chord to its end
    "steep_line": _pieces(0.0, SQRT_HEAD, (1.0, 0.0, None, (1.0, SQRT_END, 2.0)),
                          (2.0, 0.5, 1.0, (2.0, 2.8284271247461903, 0.5))),
    # a steep arc on [1, 2) below every support line of the slope-1 head: a
    # chord to its end
    "arc_below": _pieces(0.0, (0.0, 0.0, None, (0.0, 0.0, 1.0)), (1.0, 0.5, 0.0, (1.0, 1.0, 2.0)),
                         (2.0, 0.5, 1.0, (2.0, 2.6568542494923806, 1.0))),
    # the line 0.5 x + 1 touches the head at 2 and a flatter arc at its right
    # end 8: the chord reaches the arc's end
    "arc_end": _pieces(0.0, (0.0, 0.5, -1.0, (2.0, 2.0, 0.5)),
                       (3.0, 0.0, None, (3.0, 2.4641016151377544, 0.0)),
                       (5.0, 3.0, -45.0, (8.0, 5.0, 0.5)), (8.0, 0.5, 7.0, (8.0, 5.0, 0.25)))}


DELETE = object()  # an edit value of write_scenario: remove the key
# hedge_fund.json's edit for the capped group: its payoff flat above the
# breakpoint a_f = 2 e^0.5, and no wealth grid
CAPPED = {"utility.payoff.slopes": [0.28, 0.0], "grids.wealth": DELETE}
DECOMPOSE_T5 = ("decompose", ["--t", "5", "--xi", "1"])
VERIFY_2000 = ("verify", ["--paths", "2000"])
# the groups of one shape, by name: {scenario: (bundled scenario, edit of
# write_scenario)}, and the (command, args) run on each scenario
TABLES = {
    "steep": ({name: ("crra", {"utility": u}) for name, u in STEEP.items()},
              (("envelope", []), ("solve", []), ("surface", []))),
    "cara": ({name: ("crra", {"utility": u, "x0": 1.0}) for name, u in CARA.items()},
             (("envelope", []), ("solve", []), DECOMPOSE_T5)),
    "multi": (MULTI, (("surface", []), DECOMPOSE_T5, VERIFY_2000)),
    "branches": ({name: ("crra", {"utility": u, "grids.wealth": DELETE})
                  for name, u in BRANCHES.items()},
                 (("envelope", ["--grid", "21"]), ("solve", []), ("surface", ["--grid", "21"]),
                  VERIFY_2000))}


def write_scenario(path: Path, base: str, edit: dict | None = None) -> Path:
    """The bundled scenario ``scenarios/<base>.json`` with edit applied,
    written to path; path.  edit maps a key path, its keys joined by dots and
    a list index written as a number (``utility.pieces.0.R``), to the value
    the key takes, or to DELETE to remove it."""
    raw = json.loads((ROOT / "scenarios" / f"{base}.json").read_text())
    for keys, value in (edit or {}).items():
        *parents, last = (int(k) if k.isdigit() else k for k in keys.split("."))
        block = raw
        for key in parents:
            block = block[key]
        if value is DELETE:
            del block[last]
        else:
            block[last] = value
    path.write_text(json.dumps(raw))
    return path


def bundled_commands(scenario_dir: Path) -> list:
    """The six commands on each bundled scenario, decompose at POINTS, with
    the scenario files copied into scenario_dir."""
    scenario_dir.mkdir(parents=True)
    commands = []
    for name in BUNDLED:
        copy = shutil.copy(ROOT / "scenarios" / f"{name}.json", scenario_dir)
        x0 = json.loads(Path(copy).read_text())["x0"]
        commands += [Command(f"{c}-{name}", c, name)
                     for c in ("envelope", "solve", "surface", "verify", "simulate")]
        commands += [Command(f"decompose-{name}-t{t:g}{flag}{v}", "decompose", name,
                             ["--t", repr(t), flag, repr(x0 if v == "x0" else v)])
                     for t, flag, v in POINTS]
    return commands


def fault_commands(scenario_dir: Path) -> list:
    """The FAULTS invocations, their scenario files written into scenario_dir."""
    scenario_dir.mkdir(parents=True)
    for name in ("crra", "multi_kink_demo"):
        shutil.copy(ROOT / "scenarios" / f"{name}.json", scenario_dir)
    for name, (base, edit) in FIELD_FAULTS.items():
        write_scenario(scenario_dir / f"{name}.json", base, edit)
    return [Command(f"{c}-{name}{''.join(flags)}", c, name, list(flags))
            for c, name, flags in FAULTS]


def capped_commands(scenario_dir: Path) -> list:
    """The capped group, its scenario files (hedge_fund.json with the CAPPED
    edit, at x0 1.0 and 2.1: capped.json and capped_x2.1.json) written into
    scenario_dir."""
    scenario_dir.mkdir(parents=True)
    for name, x0 in (("capped", 1.0), ("capped_x2.1", 2.1)):
        write_scenario(scenario_dir / f"{name}.json", "hedge_fund", {**CAPPED, "x0": x0})
    return ([Command(f"{c}-capped", c, "capped")
             for c in ("envelope", "solve", "surface", "verify")]
            + [Command(f"decompose-capped-t5{flag}{v}", "decompose", "capped",
                       ["--t", "5", flag, v])
               for flag, v in (("--xi", "1"), ("--x", "1.5"), ("--x", "2.6"))]
            + [Command("solve-capped_x2.1", "solve", "capped_x2.1")])


def table_commands(group: str, scenario_dir: Path) -> list:
    """The TABLES group's commands, <command>-<scenario>, each scenario's file
    written into scenario_dir."""
    scenarios, commands = TABLES[group]
    scenario_dir.mkdir(parents=True)
    for name, (base, edit) in scenarios.items():
        write_scenario(scenario_dir / f"{name}.json", base, edit)
    return [Command(f"{c}-{name}", c, name, list(args))
            for name in scenarios for c, args in commands]


# the groups of the golden files, by name, each with the function that writes
# its scenario files into a directory and returns its commands
GOLDEN_GROUPS = {"bundled": bundled_commands, "faults": fault_commands,
                 "capped": capped_commands,
                 **{group: functools.partial(table_commands, group) for group in TABLES}}


def matrix(work: Path) -> list:
    """(scenario directory, command) for the whole matrix, every scenario
    file written under work; the directory's name labels the group."""
    groups = {work / name: make(work / name) for name, make in GOLDEN_GROUPS.items()}
    for workload, seed in itertools.product(WORKLOADS, SEEDS):
        group = work / f"{workload}-{seed}"
        groups[group] = plan_commands(workload, seed, group)
    return [(group, cmd) for group, commands in groups.items() for cmd in commands]


def _rel(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; 0 when they are equal."""
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def _ordered(x: float) -> int:
    """x's bit pattern as an integer that counts ulps across zero."""
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(n & 0x7FFF_FFFF_FFFF_FFFF)


def distance(a, b):
    """(ulps, relative difference) of two finite floats, else None: an exit
    code or another integer is compared as it is."""
    if not all(isinstance(v, float) and math.isfinite(v) for v in (a, b)):
        return None
    return abs(_ordered(a) - _ordered(b)), _rel(a, b)


def describe(a, b) -> str:
    """The two values, with their distance when both are finite floats."""
    dist = distance(a, b)
    return f"{a!r} -> {b!r}" + ("" if dist is None else " ({} ulps, rel {:.2g})".format(*dist))


def _json_diff(a, b, path: str):
    """(key path, a, b) for every leaf where two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                yield from _json_diff(a[key], b[key], sub)
            else:
                yield sub, a.get(key, "<absent>"), b.get(key, "<absent>")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (u, v) in enumerate(zip(a, b)):
            label = u.get("name", i) if isinstance(u, dict) else i
            yield from _json_diff(u, v, f"{path}[{label}]")
    elif repr(a) != repr(b):  # 1 and 1.0, or -0.0 and 0.0, differ too
        yield path, a, b


def _csv_diff(a: str, b: str):
    """(cell, a, b) for every CSV cell that differs, the cell as
    [row k].column with rows counted from 1 below the header."""
    rows_a, rows_b = a.splitlines(), b.splitlines()
    head = rows_a[0].split(",")
    if rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        yield "shape", f"{len(rows_a)} rows: {rows_a[0]}", f"{len(rows_b)} rows: {rows_b[0]}"
        return
    for k, (u, v) in enumerate(zip(rows_a[1:], rows_b[1:]), 1):
        for col, x, y in zip(head, u.split(","), v.split(",")):
            if x != y:
                yield f"[row {k}].{col}", float(x), float(y)


def _text_diff(a: str, b: str):
    """([line k], a, b) for every line that differs."""
    for k, (u, v) in enumerate(itertools.zip_longest(a.splitlines(), b.splitlines()), 1):
        if u != v:
            yield f"[line {k}]", u, v


def compare_dirs(a: Path, b: Path):
    """(file, place, a, b) for every difference between two output
    directories: a file in one only, or a JSON leaf, CSV cell or text line."""
    names = sorted({p.relative_to(d).as_posix() for d in (a, b)
                    for p in d.rglob("*") if p.is_file()})
    for name in names:
        fa, fb = a / name, b / name
        if not (fa.is_file() and fb.is_file()):
            yield name, "", *("present" if f.is_file() else "<absent>" for f in (fa, fb))
            continue
        ta, tb = fa.read_text(), fb.read_text()
        if ta == tb:
            continue
        if name.endswith(".json"):
            diffs = _json_diff(json.loads(ta), json.loads(tb), "")
            yield from ((name, f":{path}", u, v) for path, u, v in diffs)
        else:
            diffs = (_csv_diff if name.endswith(".csv") else _text_diff)(ta, tb)
            yield from ((name, place, u, v) for place, u, v in diffs)


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _foreign_close(a, b) -> bool:
    """True when another host may have made a into b: two finite floats
    within FOREIGN_RTOL and FOREIGN_ATOL, or two lines of text that match but
    for numbers within PRINTED_RTOL of each other."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isfinite(a) and math.isfinite(b)
                and abs(a - b) <= FOREIGN_RTOL * max(abs(a), abs(b)) + FOREIGN_ATOL)
    if not (isinstance(a, str) and isinstance(b, str)):
        return False
    na, nb = _NUMBER.findall(a), _NUMBER.findall(b)
    return (_NUMBER.sub("#", a) == _NUMBER.sub("#", b)
            and all(_rel(float(u), float(v)) <= PRINTED_RTOL for u, v in zip(na, nb)))


def golden_diffs(golden: Path, out: Path, exact: bool) -> list:
    """compare_dirs(golden, out), less, unless exact, the differences that
    another host may make (``_foreign_close``): a file, key, exit code or
    PASS/FAIL word always matches."""
    return [d for d in compare_dirs(golden, out) if exact or not _foreign_close(*d[2:])]


def host() -> dict:
    """The platform that the numbers depend on besides the sources, as the
    golden files' ``host.json`` records it."""
    return json.loads(subprocess.run([sys.executable, "-c", HOST], check=True,
                                     capture_output=True, text=True).stdout)


def record(work: Path) -> int:
    """Rewrite GOLDEN from this repository's GOLDEN_GROUPS, run in children
    from work, each group's scenario files in work / <group>; the number of
    commands."""
    runs = [(group, cmd) for group, make in GOLDEN_GROUPS.items()
            for cmd in make(work / group)]
    env, new = child_env(ROOT), work / "golden"

    def run(job):
        group, cmd = job
        out = new / group / cmd.name
        out.mkdir(parents=True)
        rc = run_child(phara_argv(cmd, Path(group), out), env, work, out)["rc"]
        (out / "exit_code").write_text(f"{rc}\n")

    with ThreadPoolExecutor(WORKERS) as pool:
        list(pool.map(run, runs))
    shutil.rmtree(GOLDEN, ignore_errors=True)
    shutil.copytree(new, GOLDEN)
    (GOLDEN / "host.json").write_text(json.dumps(host(), indent=1) + "\n")
    return len(runs)


def compare(parent: Path, change: Path, runs: list, work: Path) -> list:
    """Run every (scenario directory, command) of runs in both trees, outputs
    under work, and return one (command, file, place, parent value, change
    value) per difference; the file of an exit code is "exit code"."""
    jobs = [(side, tree, group, cmd) for group, cmd in runs
            for side, tree in (("parent", parent), ("change", change))]

    def run(job):
        side, tree, group, cmd = job
        out = work / side / group.name / cmd.name
        out.mkdir(parents=True)
        return run_child(phara_argv(cmd, group, out), child_env(tree), work, out)["rc"]

    with ThreadPoolExecutor(WORKERS) as pool:
        codes = list(pool.map(run, jobs))
    diffs = []
    for (group, cmd), rc_a, rc_b in zip(runs, codes[::2], codes[1::2]):
        name = f"{group.name}/{cmd.name}"
        if rc_a != rc_b:
            diffs.append((name, "exit code", "", rc_a, rc_b))
        diffs += [(name, *d) for d in compare_dirs(work / "parent" / group.name / cmd.name,
                                                   work / "change" / group.name / cmd.name)]
    return diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, nargs="?", help="parent checkout")
    ap.add_argument("change", type=Path, nargs="?", default=ROOT,
                    help="changed checkout (default: this repository)")
    ap.add_argument("--record", action="store_true",
                    help=f"rewrite {GOLDEN.relative_to(ROOT)} from this repository")
    args = ap.parse_args(argv)
    if args.record:
        if args.parent is not None:
            ap.error("--record takes no tree")
        if not build(ROOT):
            return 2
        with tempfile.TemporaryDirectory(prefix="phara-golden-") as tmp:
            count = record(Path(tmp))
        print(f"recorded {count} commands in {GOLDEN}")
        return 0
    if args.parent is None:
        ap.error("a parent tree is needed")
    trees = [args.parent.resolve(), args.change.resolve()]
    if not all([build(tree) for tree in trees]):
        return 2
    with tempfile.TemporaryDirectory(prefix="phara-same-") as tmp:
        runs = matrix(Path(tmp))
        diffs = compare(*trees, runs, Path(tmp))
    tally = {}
    for name, file, place, a, b in diffs:
        print(f"{name}/{file}{place}: {describe(a, b)}")
        key = (file, re.sub(r"\[[^]]*\]", "[]", place))  # the key, without indices
        tally.setdefault(key, []).append(distance(a, b))
    for (file, place), dists in sorted(tally.items()):
        worst = max((d[1] for d in dists if d), default=None)
        print(f"summary {file}{place}: {len(dists)} differences"
              + ("" if worst is None else f", largest rel {worst:.2g}"))
    print(f"{len(diffs)} differences in {len({d[0] for d in diffs})} of "
          f"{len(runs)} commands")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
