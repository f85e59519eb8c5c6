"""In-process traced run: spans around the public functions of each layer.

Run as a script, it imports ``phara``, then executes every command of a plan
twice in this one process, once plain and once with the tracer installed
(alternating which goes first), and writes the spans, counters and per-layer
metrics as JSON::

    python3 perfbench/tracer.py --plan PLAN.json --work DIR --out TRACE.json

The tracer replaces each public function of the ``cli``, ``concavify``,
``solver``, ``market`` and ``verify`` modules, in every ``phara`` namespace
that holds it, by a wrapper that records a span ``[name, start, end,
parent, info]`` in memory.  The ``d``-transforms run tens of thousands of
times per command, so they get a call counter instead of a span.  ``info``
holds a few numbers read from the arguments or the result (points in a
batch, normals drawn, pieces in an envelope); a probe that no longer fits
the program's signatures records nothing rather than failing the run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import io
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "concavify", "solver", "market", "verify")
COUNTED = frozenset({"solver.d1", "solver.d0", "solver.d_next",
                     "solver.d_transform"})


def _points(x) -> int:
    return int(getattr(x, "size", 1))


# name -> probe(get, result) -> dict; get(param) reads an argument by name
PROBES = {
    "solver.state_price_for_wealth":
        lambda get, out: {"saturated": int(out >= get("xi_cap"))},
    "solver.wealth_total": lambda get, out: {"points": _points(get("xi"))},
    "solver.portfolio_general": lambda get, out: {"points": _points(get("xi_t"))},
    "solver.portfolio_unified": lambda get, out: {"points": _points(get("xi_t"))},
    "market.standard_normals": lambda get, out: {"normals": int(get("n"))},
    "concavify.concave_envelope":
        lambda get, out: {"pieces": len(out.envelope.pieces),
                          "chords": len(out.chords)},
}


def _arg_reader(fn):
    """get(args, kwargs, name): argument value by parameter name."""
    params = list(inspect.signature(fn).parameters.values())
    index = {p.name: i for i, p in enumerate(params)}
    defaults = {p.name: p.default for p in params}

    def get(args, kwargs, name):
        if name in kwargs:
            return kwargs[name]
        i = index[name]
        return args[i] if i < len(args) else defaults[name]
    return get


class Tracer:
    """Spans and counters for one process; install, run, uninstall."""

    def __init__(self, package: str = "phara"):
        self.package = package
        self.spans: list = []          # [name, start, end, parent, info]
        self.stack: list = []
        self.counts: Counter = Counter()  # name -> calls
        self._patches: list = []

    # -- wrapping -----------------------------------------------------------

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanned(self, name, fn):
        spans, stack = self.spans, self.stack
        probe = PROBES.get(name)
        get = _arg_reader(fn) if probe else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if probe is not None:
                try:
                    rec[4] = probe(lambda p: get(args, kwargs, p), out)
                except (AttributeError, KeyError, IndexError, TypeError,
                        ValueError):
                    pass
            return out
        return spanned

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{self.package}.{layer}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrap = self._counted if name in COUNTED else self._spanned
                wrappers[id(fn)] = (fn, wrap(name, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(self.package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: list, counts: dict, n_commands: int, import_s: float,
                  wall_plain: float, wall_traced: float) -> dict:
    """Per-layer figures: mean seconds per call, counts, self time per layer.

    Self time of a span is its duration minus the durations of its direct
    children; a layer's self time is summed over its spans and divided by
    the number of commands.
    """
    dur = [s[2] - s[1] for s in spans]
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def per_call(name):
        return _mean([dur[i] for i in by_name[name]])

    def info_sum(name, key):
        return sum((spans[i][4] or {}).get(key, 0) for i in by_name[name])

    def child_count(i, name):
        return sum(1 for c in children[i] if spans[c][0] == name)

    self_time = Counter()
    for i, s in enumerate(spans):
        self_time[s[0].split(".")[0]] += dur[i] - sum(dur[c] for c in children[i])
    per_cmd = max(1, n_commands)

    envs = by_name["concavify.concave_envelope"]
    inversions = [child_count(i, "solver.wealth_total")
                  for i in by_name["solver.state_price_for_wealth"]]
    solves = [child_count(i, "solver.budget")
              for i in by_name["solver.solve_multiplier"]]

    m = {
        "import.phara_s": (import_s, "s"),
        "cli.load_scenario_s": (per_call("cli.load_scenario"), "s"),
        "concavify.concave_envelope_s": (per_call("concavify.concave_envelope"), "s"),
        "concavify.pieces_out": (_mean([(spans[i][4] or {}).get("pieces", 0)
                                        for i in envs]), "count"),
        "concavify.chords": (_mean([(spans[i][4] or {}).get("chords", 0)
                                    for i in envs]), "count"),
        "solver.solve_multiplier_s": (per_call("solver.solve_multiplier"), "s"),
        "solver.budget_calls": (_mean(solves), "count"),
        "solver.state_price_for_wealth_s": (per_call("solver.state_price_for_wealth"), "s"),
        "solver.inversion_wealth_calls.mean": (_mean(inversions), "count"),
        "solver.inversion_wealth_calls.max": (max(inversions, default=0), "count"),
        "solver.xi_cap_saturations": (info_sum("solver.state_price_for_wealth",
                                               "saturated"), "count"),
        "solver.d1_calls": (counts.get("solver.d1", 0), "count"),
    }
    for fn in ("wealth_total", "portfolio_unified", "portfolio_general"):
        name = f"solver.{fn}"
        m[f"{name}_s"] = (per_call(name), "s")
        m[f"{name}.calls"] = (len(by_name[name]), "count")
        m[f"{name}.points"] = (info_sum(name, "points"), "count")
    m.update({
        "solver.optimal_terminal_wealth_s":
            (per_call("solver.optimal_terminal_wealth"), "s"),
        "market.standard_normals_s": (per_call("market.standard_normals"), "s"),
        "market.normals_drawn": (info_sum("market.standard_normals", "normals"), "count"),
        "verify.mc_budget_check_s": (per_call("verify.mc_budget_check"), "s"),
        "verify.mc_martingale_check_s": (per_call("verify.mc_martingale_check"), "s"),
        "verify.fd_portfolio_check_s": (per_call("verify.fd_portfolio_check"), "s"),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_time[layer] / per_cmd, "s")
    m["trace.spans"] = (len(spans), "count")
    m["trace.overhead_frac"] = (wall_traced / wall_plain - 1.0 if wall_plain > 0
                                else 0.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def _clear_caches(package: str) -> None:
    """Start each command as a fresh process would: empty memo caches."""
    for modname, mod in list(sys.modules.items()):
        if modname == package or modname.startswith(package + "."):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _run_cli(argv: list) -> tuple[int, float]:
    cli = sys.modules["phara.cli"]
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a verdict, not a harness failure
            print(f"{type(exc).__name__}: {exc}", file=sys.__stderr__)
            rc = 3
    return rc, time.perf_counter() - t0


def traced_run(plan: dict, work: Path) -> dict:
    t0 = time.perf_counter()
    import phara  # noqa: F401
    import phara.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    commands, wall_plain, wall_traced = [], 0.0, 0.0
    for k, cmd in enumerate(plan["commands"]):
        scn = work / "scenarios" / f"{cmd['scenario']}.json"
        record = {"name": cmd["name"], "first_span": None}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            out = work / ("traced" if traced else "plain") / cmd["name"]
            argv = [cmd["command"], "--scenario", str(scn), "--out", str(out),
                    *cmd["args"]]
            _clear_caches("phara")
            if traced:
                record["first_span"] = len(tracer.spans)
                tracer.install()
                try:
                    rc, wall = _run_cli(argv)
                finally:
                    tracer.uninstall()
                record.update(rc=rc, wall_traced=wall)
                wall_traced += wall
            else:
                rc, wall = _run_cli(argv)
                record.update(rc_plain=rc, wall_plain=wall)
                wall_plain += wall
        commands.append(record)
    metrics = layer_metrics(tracer.spans, tracer.counts, len(commands),
                            import_s, wall_plain, wall_traced)
    return {"import_s": import_s, "commands": commands, "metrics": metrics,
            "counts": dict(tracer.counts),
            "spans": tracer.spans}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    result = traced_run(json.loads(args.plan.read_text()), args.work)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
