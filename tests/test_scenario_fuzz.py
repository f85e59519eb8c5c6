"""Seeded fuzz of the scenario loader and the commands behind it.

Every leaf of the bundled scenarios, with 5-point wealth axes, is set to
each of 14 bad values, or deleted.  Every mutant runs through ``solve``, the
``grids`` mutants also through ``surface``, and a seeded tenth through the
other commands with few paths and steps.  A run must exit 0, 1 or 2 without
an escaped exception or a RuntimeWarning; a scenario the loader rejects must
give exit 2 and one ``error:`` line that names the mutated field or a block
holding it; every JSON artifact must be standard JSON.  Every key of the
bundled scenarios, renamed, must give exit 2 from ``solve`` with an error
that names the renamed key, or the key or a block holding it.  The named
inputs, values at the edge of the doubles, run through every command and
must exit 0, or 2 with an error that names the part of the model at fault.
"""

import json
import random
import re
import warnings

import pytest

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
GAINS = (0.999, 0.9995, 0.9999, 0.999999, 0.999999999)


def _exponential(alpha: float, slope: float) -> dict:
    """A "utility" block of one exponential piece from 0, worth -1 at 0."""
    return {"a0": 0, "pieces": [{"a_lo": 0, "R": "inf", "alpha": alpha,
                                 "anchor": {"x": 0, "u": -1, "slope": slope}}]}


# name: (bundled scenario, edit of same.write_scenario, the commands that
# exit 0, the text the error of every other command names)
NAMED = {
    # an exponential piece whose anchor_slope / alpha leaves the doubles
    "alpha_overflow": ("crra", {"utility": _exponential(1e-310, 1.0)}, (), "utility.pieces[0]"),
    "alpha_underflow": ("crra", {"utility": _exponential(1e200, 1e-300)}, (),
                        "utility.pieces[0]"),
    # a gain branch so nearly linear that its support lines leave the doubles:
    # the envelope builds but for the hedge fund's last, whose tangent slope
    # no double pins down, and its R then leaves the solver's doubles
    **{f"{base}_gain_{gain}": (base, {"utility.preference.gain_exponent": gain},
                               ("envelope",) * (base != "hedge_fund" or gain < 0.999999999),
                               f"R = {1.0 - gain!r}")
       for base in ("participating_contract", "hedge_fund") for gain in GAINS},
    # wealth whose squares leave the doubles
    "crra_x0_1e300": ("crra", {"x0": 1e300}, (*ARTIFACT, "surface"), None),
    "hedge_fund_x0_1e200": ("hedge_fund", {"x0": 1e200}, (*ARTIFACT, "surface"), None)}


def _leaves(node, path=()):
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(child, path + (key,))
    else:
        yield path


def _keys(node, path=()):
    """The path of every object key in node, a block's before its own keys."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield path + (key,)
            yield from _keys(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _keys(child, path + (i,))


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


def _names(err: str, names) -> bool:
    """Whether err names one of the fields ``names``, not only a longer one."""
    return any(re.search(rf"(?<![\w.]){re.escape(n)}(?!\w)", err) for n in names)


def _run(scenario, out, capsys, command, *flags):
    """``command`` on scenario: its exit code, standard error and what is
    wrong with the run, None when nothing is: an escaped exception, an exit
    code not 0, 1 or 2, not one ``error:`` line on exit 2, or a JSON
    artifact that is not standard JSON."""
    artifact = out / ARTIFACT.get(command, "surface.csv")
    artifact.unlink(missing_ok=True)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([command, "--scenario", str(scenario), "--out", str(out), *flags])
    except Exception as exc:  # noqa: BLE001 -- every escape is a finding
        capsys.readouterr()
        return None, "", f"{type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    if code not in (0, 1, 2):
        return code, err, f"exit {code}"
    if code == 2 and not (err.startswith("error: ") and err.count("\n") == 1):
        return code, err, f"stderr {err!r}"
    if code != 2 and artifact.suffix == ".json":
        try:
            strict_json(artifact)
        except ValueError as exc:
            return code, err, f"{artifact.name}: {exc}"
    return code, err, None


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
            code, err, failure = _run(scenario, out, capsys, command, *flags)
            if failure is None and command == "solve" and rejected and code != 2:
                failure = f"the loader rejects, exit {code}"
            elif failure is None and command == "solve" and rejected and not _names(
                    err, _field_names(path)):
                failure = f"field not named: {err.strip()}"
            if failure is not None:
                failures.append(f"{label} {command}: {failure}")
    assert runs > 2000
    assert not failures, f"{len(failures)} of {runs} runs:\n" + "\n".join(failures[:40])


@pytest.mark.parametrize("name", same.BUNDLED)
def test_renamed_key(tmp_path, capsys, name):
    # a key the reader does not know was ignored: a misspelt optional field
    # loaded as its default
    raw, failures = json.loads((SCENARIOS / f"{name}.json").read_text()), []
    for path in _keys(raw):
        key, value = ".".join(map(str, path)), raw
        for step in path:
            value = value[step]
        scenario = same.write_scenario(tmp_path / "scenario.json", name,
                                       {key: same.DELETE, f"{key}_x": value})
        code, err, failure = _run(scenario, tmp_path / "out", capsys, "solve")
        renamed = _field_names(path)[-1] + "_x"
        if failure is None and not (code == 2 and _names(err, [renamed, *_field_names(path)])):
            failure = f"exit {code}: {err.strip()}"
        if failure is not None:
            failures.append(f"{key}: {failure}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("name", NAMED)
def test_named_input(tmp_path, capsys, name):
    base, edit, zero, named = NAMED[name]
    scenario = same.write_scenario(tmp_path / "scenario.json", base, edit)
    for command, *flags in (("solve",),) + OTHERS:
        code, err, failure = _run(scenario, tmp_path / "out", capsys, command, *flags)
        assert failure is None, f"{command}: {failure}"
        assert (code == 0) if command in zero else (code == 2 and named in err), (command, err)
