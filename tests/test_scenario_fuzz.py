"""Seeded fuzz of the scenario loader and the commands behind it.

Every leaf of the bundled scenarios, with 5-point wealth axes, is set to
each of 14 bad values, or deleted.  Every mutant runs through ``solve``, the
``grids`` mutants also through ``surface``, and a seeded tenth through the
other commands with few paths and steps.  A run must exit 0, 1 or 2 without
an escaped exception or a RuntimeWarning; a scenario the loader rejects must
give exit 2 and one ``error:`` line that names the mutated field or a block
holding it; every JSON artifact must be standard JSON.
"""

import json
import random
import re
import warnings

from conftest import SCENARIOS, same, strict_json
from phara.cli import load_scenario, main
from phara.errors import PharaError

BAD = (float("nan"), "nan", "inf", "-inf", "x", 0, -1, 1e308, 1e-300, None, [],
       {}, True, 3)
ARTIFACT = {"envelope": "envelope.json", "solve": "dual.json",
            "decompose": "decompose.json", "verify": "verification.json",
            "simulate": "simulation.json"}
OTHERS = (("envelope", "--grid", "5"), ("surface", "--grid", "5"),
          ("decompose", "--t", "0", "--xi", "1"), ("verify", "--paths", "200"),
          ("simulate", "--paths", "200", "--steps", "10"))


def _leaves(node, path=()):
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(child, path + (key,))
    else:
        yield path


def _mutants():
    """(bundled scenario, leaf path, value, edit of same.write_scenario) for
    every leaf and bad value; a short surface axis of 5 points, the values
    being what is fuzzed."""
    for name in same.BUNDLED:
        for path in _leaves(json.loads((SCENARIOS / f"{name}.json").read_text())):
            for value in BAD + (same.DELETE,):
                yield name, path, value, {"grids.wealth.n": 5, ".".join(map(str, path)): value}


def _field_names(path):
    """The names an error may give a leaf: each block on its path, a list
    element by index or as one of the list's entries."""
    names, name = [], ""
    for key in path:
        if isinstance(key, int):
            names.append(f"{name} entries")
            name += f"[{key}]"
        else:
            name = f"{name}.{key}" if name else key
        names.append(name)
    return names


def test_scenario_fuzz(tmp_path, capsys):
    rng = random.Random(20260810)
    scenario, out = tmp_path / "scenario.json", tmp_path / "out"
    failures, runs = [], 0
    for name, path, value, edit in _mutants():
        same.write_scenario(scenario, name, edit)
        shown = "<deleted>" if value is same.DELETE else repr(value)
        label = f"{name}:{'.'.join(map(str, path))}={shown}"
        try:
            load_scenario(scenario)
            rejected = False
        except PharaError:
            rejected = True
        commands = [("solve",)] + [("surface", "--grid", "5")] * (path[0] == "grids")
        if rng.random() < 0.1:
            commands += [c for c in OTHERS if c not in commands]
        for command, *flags in commands:
            runs += 1
            artifact = out / ARTIFACT.get(command, "surface.csv")
            artifact.unlink(missing_ok=True)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    code = main([command, "--scenario", str(scenario), "--out", str(out),
                                 *flags])
            except Exception as exc:  # noqa: BLE001 -- every escape is a finding
                failures.append(f"{label} {command}: {type(exc).__name__}: {exc}")
                capsys.readouterr()
                continue
            err = capsys.readouterr().err
            if code not in (0, 1, 2):
                failures.append(f"{label} {command}: exit {code}")
            elif code == 2 and not (err.startswith("error: ") and err.count("\n") == 1):
                failures.append(f"{label} {command}: stderr {err!r}")
            elif command == "solve" and rejected and code != 2:
                failures.append(f"{label} {command}: the loader rejects, exit {code}")
            elif command == "solve" and rejected and not any(
                    re.search(rf"(?<![\w.]){re.escape(n)}(?!\w)", err)
                    for n in _field_names(path)):
                failures.append(f"{label} {command}: field not named: {err.strip()}")
            elif code != 2 and artifact.suffix == ".json":
                try:
                    strict_json(artifact)
                except ValueError as exc:
                    failures.append(f"{label} {command}: {artifact.name}: {exc}")
    assert runs > 2000
    assert not failures, f"{len(failures)} of {runs} runs:\n" + "\n".join(failures[:40])
