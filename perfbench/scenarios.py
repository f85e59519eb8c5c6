"""Seeded scenario generator and command plans for the benchmark's workloads.

Everything here is plain Python (``random``, ``math``, ``json``), so the
inputs a seed produces do not depend on the package under test.  A plan is a
list of commands; each command names a generated scenario file, the ``phara``
subcommand, its extra flags, and the facts the output checks need.

Seeded items are stratified rather than drawn independently: item k of a
workload has a fixed base scenario, grid size and piece count, and the seed
draws its continuous parameters (x0, times, grid bounds, slopes, benchmarks,
market).  That keeps the work of a plan nearly the same from seed to seed,
so seeds change the inputs but not the run length.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

BUNDLED = ("crra", "multi_kink_demo", "participating_contract", "hedge_fund")
WORKLOADS = ("surface_sweep", "cold_commands")

# A run executes its command list ``PASSES[workload]`` times, each pass in
# its own seeded order, and every execution is a timing sample: more samples
# of the same list average out more of a shared host's slow spells.  Planned wall
# seconds per execution on the reference machine (2 cores, Python 3.11,
# numpy 2.4, scipy 1.17) size the list: about
# ``seconds / (PASSES * _CMD_SECONDS)`` commands, never fewer than the bundled
# ones.  The list depends on ``--seconds`` only, never on how fast the
# program runs, so two commits run identical plans.
PASSES = {"surface_sweep": 3, "cold_commands": 2}
_CMD_SECONDS = {"surface_sweep": 1.4, "cold_commands": 0.65}
_SURFACE_SIZES = (80, 97, 114, 131, 149, 166, 183, 200)
_DEMO_MARKET = {"r": 0.05, "mu": [0.086], "sigma": [[0.3]], "T": 10.0}


@dataclass
class Command:
    """One ``phara`` invocation and what its outputs must satisfy."""

    name: str                 # unique within the plan, used for the --out dir
    command: str              # phara subcommand
    scenario: str             # scenario stem (file is <stem>.json)
    args: list = field(default_factory=list)
    expect: dict = field(default_factory=dict)  # facts for the output checks


@dataclass
class Plan:
    workload: str
    seed: int
    scenarios: dict           # stem -> scenario dict
    commands: list            # list[Command]
    passes: int = 1

    def pass_order(self, k: int) -> list:
        """Commands of pass k, in an order drawn from the seed."""
        order = list(self.commands)
        random.Random(f"{self.seed}/{self.workload}/pass{k}").shuffle(order)
        return order

    def write_scenarios(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for stem, scn in self.scenarios.items():
            (directory / f"{stem}.json").write_text(
                json.dumps(scn, indent=2, sort_keys=True) + "\n")

    def to_json(self) -> dict:
        return {"workload": self.workload, "seed": self.seed,
                "passes": self.passes, "scenarios": self.scenarios,
                "commands": [vars(c) for c in self.commands]}


# ---------------------------------------------------------------------------
# HARA template (value and slope of one anchored piece)
# ---------------------------------------------------------------------------


def piece_value(p: dict, x: float) -> float:
    """Value at x of a piece given as R, A, alpha and an anchor (x, u, slope)."""
    R, xh, u, g = p["R"], p["anchor"]["x"], p["anchor"]["u"], p["anchor"]["slope"]
    if R == 0.0:
        return u + g * (x - xh)
    if R == "inf":
        a = p["alpha"]
        return u - (g / a) * (math.exp(-a * (x - xh)) - 1.0)
    A = p["A"]
    ratio = (x - A) / (xh - A)
    if R == 1.0:
        return u + g * (xh - A) * math.log(ratio)
    return u + g * (xh - A) / (1.0 - R) * (ratio ** (1.0 - R) - 1.0)


def piece_slope(p: dict, x: float) -> float:
    R, xh, g = p["R"], p["anchor"]["x"], p["anchor"]["slope"]
    if R == 0.0:
        return g
    if R == "inf":
        return g * math.exp(-p["alpha"] * (x - xh))
    return g * ((x - p["A"]) / (xh - p["A"])) ** (-R)


def _piece(a_lo, R, u, slope, A=None, alpha=None) -> dict:
    p = {"a_lo": a_lo, "R": R, "anchor": {"x": a_lo, "u": u, "slope": slope}}
    if A is not None:
        p["A"] = A
    if alpha is not None:
        p["alpha"] = alpha
    return p


# ---------------------------------------------------------------------------
# Random utilities
# ---------------------------------------------------------------------------


def random_concave_pieces(rng: random.Random, n_pieces: int,
                          common_R: bool) -> dict:
    """Concave piece list: power branches (benchmark below the cell), chords
    and concave kinks; the tail is a power branch so demand stays finite."""
    R0 = rng.uniform(0.3, 4.0)
    a0 = rng.uniform(0.0, 3.0)
    x, u, slope = a0, rng.uniform(-1.0, 1.0), rng.uniform(1.0, 3.0)
    pieces = []
    for _ in range(n_pieces - 1):
        width = rng.uniform(0.5, 4.0)
        R = R0 if common_R else rng.uniform(0.3, 4.0)
        if rng.random() < 0.4:
            p = _piece(x, 0.0, u, slope)
        else:
            p = _piece(x, R, u, slope, A=x - rng.uniform(0.2, 3.0))
        pieces.append(p)
        x += width
        u, slope = piece_value(p, x), piece_slope(p, x)
        if rng.random() < 0.5:
            slope *= rng.uniform(0.5, 0.95)          # concave kink
    R = R0 if common_R else rng.uniform(0.3, 4.0)
    pieces.append(_piece(x, R, u, slope, A=x - rng.uniform(0.2, 3.0)))
    return {"a0": a0, "a0_included": True, "pieces": pieces}


def random_raw_pieces(rng: random.Random, n_cells: int) -> dict:
    """Raw (non-concave) piece list: concave and convex powers, flats, rising
    lines and exponentials, with upward jumps at some junctions; the tail is
    a concave power so the envelope exists."""
    a0 = rng.uniform(-2.0, 5.0)
    x, u = a0, rng.uniform(-2.0, 2.0)
    pieces = []
    for _ in range(n_cells - 1):
        width = rng.uniform(0.4, 3.0)
        kind = rng.choice(("concave", "convex", "flat", "line", "exp"))
        slope = rng.uniform(0.05, 3.0)
        if kind == "concave":
            p = _piece(x, rng.uniform(0.2, 3.0), u, slope,
                       A=x - rng.uniform(0.1, 2.0))
        elif kind == "convex":
            p = _piece(x, rng.uniform(0.2, 0.8), u, slope,
                       A=x + width + rng.uniform(0.05, 1.0))
        elif kind == "flat":
            p = _piece(x, 0.0, u, 0.0)
        elif kind == "line":
            p = _piece(x, 0.0, u, slope)
        else:
            p = _piece(x, "inf", u, slope, alpha=rng.uniform(0.3, 3.0))
        pieces.append(p)
        x += width
        u = piece_value(p, x)
        if rng.random() < 0.25:
            u += rng.uniform(0.0, 0.8)               # upward jump
    pieces.append(_piece(x, rng.uniform(0.2, 3.0), u, rng.uniform(0.05, 2.0),
                         A=x - rng.uniform(0.1, 2.0)))
    return {"a0": a0, "a0_included": True, "pieces": pieces}


def random_market(rng: random.Random, m: int) -> dict:
    """Well-conditioned market: lower-triangular sigma, every drift above r."""
    r = rng.uniform(0.02, 0.06)
    mu = [r + rng.uniform(0.02, 0.06) for _ in range(m)]
    if m == 1:
        sigma = [[rng.uniform(0.15, 0.4)]]
    else:
        s1, s2 = rng.uniform(0.15, 0.35), rng.uniform(0.15, 0.35)
        rho = rng.uniform(-0.5, 0.7)
        sigma = [[s1, 0.0], [rho * s2, math.sqrt(1.0 - rho * rho) * s2]]
    return {"r": r, "mu": mu, "sigma": sigma, "T": rng.uniform(5.0, 15.0)}


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def load_bundled(scenario_dir: Path) -> dict:
    return {name: json.loads((scenario_dir / f"{name}.json").read_text())
            for name in BUNDLED}


def _floor(utility: dict) -> float:
    """Lowest wealth level of a piece list, or of a composed payoff."""
    if "pieces" in utility:
        return float(utility["a0"])
    return float(utility["payoff"].get("floor", 0.0))


def _t_grid(rng: random.Random, T: float) -> list:
    return sorted(round(rng.uniform(0.0, 0.95 * T), 6) for _ in range(3))


def bundled_variant(rng: random.Random, base: dict, n: int) -> dict:
    """Bundled scenario with new x0, t grid and wealth grid (n points)."""
    scn = copy.deepcopy(base)
    T, r = scn["market"]["T"], scn["market"]["r"]
    floor = math.exp(-r * T) * _floor(scn["utility"])
    scale = rng.uniform(0.75, 1.5)
    scn["x0"] = max(scn["x0"] * scale, 1.05 * floor + 1e-3)
    wg = scn["grids"]["wealth"]
    scn["grids"] = {"t": _t_grid(rng, T),
                    "wealth": {"lo": wg["lo"] * scale, "hi": wg["hi"] * scale,
                               "n": n}}
    return scn


def _x0_for(rng: random.Random, utility: dict, market: dict) -> float:
    a0 = utility["a0"]
    span = utility["pieces"][-1]["a_lo"] - a0 + 1.0
    disc = math.exp(-market["r"] * market["T"])
    return disc * (a0 + rng.uniform(0.3, 1.5) * span)


def random_concave_scenario(rng: random.Random, n_pieces: int, common_R: bool,
                            n: int) -> dict:
    market = dict(copy.deepcopy(_DEMO_MARKET), sigma=[[rng.uniform(0.2, 0.4)]])
    utility = random_concave_pieces(rng, n_pieces, common_R)
    x0 = _x0_for(rng, utility, market)
    floor = math.exp(-market["r"] * market["T"]) * utility["a0"]
    return {"market": market, "utility": utility, "x0": x0,
            "seed": rng.randrange(1, 2**31), "paths": 100_000,
            "grids": {"t": _t_grid(rng, market["T"]),
                      "wealth": {"lo": 1.02 * floor + 0.01,
                                 "hi": x0 * rng.uniform(2.0, 4.0), "n": n}}}


def random_raw_scenario(rng: random.Random, n_cells: int, m: int) -> dict:
    market = random_market(rng, m)
    utility = random_raw_pieces(rng, n_cells)
    return {"market": market, "utility": utility,
            "x0": _x0_for(rng, utility, market),
            "seed": rng.randrange(1, 2**31), "paths": 100_000,
            "grids": {"t": [0.0]}}


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


def _item_rng(seed: int, workload: str, k) -> random.Random:
    """Independent stream per seeded item, so item k is the same whatever
    the plan length."""
    return random.Random(f"{seed}/{workload}/{k}")


def plan_size(workload: str, seconds: float) -> int:
    return max(1, round(seconds / (PASSES[workload] * _CMD_SECONDS[workload])))


def _surface_plan(seed, bundled, n_cmds):
    """Bundled scenarios, then alternating random concave piece lists and
    bundled variants.  Slot k fixes the base, grid size, piece count (every
    count from 1 to 6 within six concave slots) and whether all curved
    pieces share one R (four-term split) or not; the seed draws everything
    else."""
    scenarios, commands = {}, []
    for name in BUNDLED:
        scenarios[name] = bundled[name]
        commands.append(Command(name=f"surface-{name}", command="surface",
                                scenario=name))
    for k in range(max(0, n_cmds - len(BUNDLED))):
        rng = _item_rng(seed, "surface", k)
        j = k // 2
        if k % 2 == 1:
            base = BUNDLED[j % len(BUNDLED)]
            stem = f"variant{k:02d}-{base}"
            scenarios[stem] = bundled_variant(
                rng, bundled[base], _SURFACE_SIZES[j % len(_SURFACE_SIZES)])
        else:
            pieces, common = 1 + (5 * j + 2) % 6, j % 2 == 0
            n = _SURFACE_SIZES[(3 * j + 1) % len(_SURFACE_SIZES)]
            stem = f"concave{k:02d}-p{pieces}{'u' if common else 'g'}"
            scenarios[stem] = random_concave_scenario(rng, pieces, common, n)
        commands.append(Command(name=f"surface-{stem}", command="surface",
                                scenario=stem))
    return scenarios, commands


def _cold_commands_for(stem, scn, rng, m):
    cmds = [Command(name=f"{c}-{stem}", command=c, scenario=stem)
            for c in ("envelope", "solve")]
    if m == 1:
        T, r = scn["market"]["T"], scn["market"]["r"]
        t = round(rng.uniform(0.0, 0.95 * T), 6)
        floor_t = math.exp(-r * (T - t)) * _floor(scn["utility"])
        x = max(scn["x0"] * math.exp(r * t) * rng.uniform(0.7, 1.5),
                1.05 * floor_t + 1e-3)
        cmds.append(Command(name=f"decompose-{stem}", command="decompose",
                            scenario=stem, args=["--t", repr(t), "--x", repr(x)],
                            expect={"x": x}))
    cmds.append(Command(name=f"verify-{stem}", command="verify", scenario=stem))
    return cmds


def _cold_plan(seed, bundled, n_cmds):
    scenarios, commands = {}, []
    for name in BUNDLED:
        scenarios[name] = bundled[name]
        commands += _cold_commands_for(name, bundled[name],
                                       _item_rng(seed, "cold", name), 1)
    k = 0
    while len(commands) < n_cmds:
        rng = _item_rng(seed, "cold", k)
        m, cells = 1 + k % 2, 1 + (5 * k) % 8
        stem = f"raw{k:02d}-c{cells}-m{m}"
        scenarios[stem] = random_raw_scenario(rng, cells, m)
        commands += _cold_commands_for(stem, scenarios[stem], rng, m)
        k += 1
    return scenarios, commands


_BUILDERS = {"surface_sweep": _surface_plan, "cold_commands": _cold_plan}


def build_plan(workload: str, seed: int, seconds: float,
               scenario_dir: Path) -> Plan:
    """Deterministic plan for (workload, seed, seconds); commands in a seeded
    order so no scenario type always runs first."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    bundled = load_bundled(scenario_dir)
    scenarios, commands = _BUILDERS[workload](
        seed, bundled, plan_size(workload, seconds))
    random.Random(f"{seed}/{workload}/shuffle").shuffle(commands)
    return Plan(workload=workload, seed=seed, scenarios=scenarios,
                commands=commands, passes=PASSES[workload])
