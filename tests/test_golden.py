import json
from pathlib import Path

import pytest

from conftest import load_tool, run_recorded

same = load_tool("same")


@pytest.fixture(scope="module")
def exact():
    """Byte for byte on the host that recorded the golden files; elsewhere by
    the foreign-host rule of same.golden_diffs."""
    return same.host() == json.loads((same.GOLDEN / "host.json").read_text())


@pytest.mark.parametrize("name", same.BUNDLED)
def test_bundled_matches_golden(tmp_path, simulate_bundled, exact, name):
    # every command of tools/same.py's bundled group on this scenario, run in
    # this process (simulate's run is shared with test_cli.py), against the
    # files `python tools/same.py --record` wrote; a difference is named by
    # file and key path, CSV cell or line, with both values and their ulps
    scenarios = tmp_path / "scenarios"
    commands = [cmd for cmd in same.bundled_commands(scenarios) if cmd.scenario == name]
    assert len(commands) == 15
    diffs = []
    for cmd in commands:
        if cmd.command == "simulate":
            out = simulate_bundled(name)
        else:
            out = tmp_path / cmd.name
            run_recorded([cmd.command, "--scenario", scenarios / f"{name}.json",
                          *cmd.args], out)
        diffs += [f"{cmd.name}/{file}{place}: {same.describe(a, b)}"
                  for file, place, a, b in same.golden_diffs(
                      same.golden_path("bundled", cmd), out, exact)]
    assert not diffs, "\n".join(diffs)


@pytest.mark.parametrize("group", [g for g in same.GOLDEN_GROUPS if g != "bundled"])
def test_group_matches_golden(tmp_path, monkeypatch, exact, group):
    # every command of one of tools/same.py's other golden groups, run in this
    # process from tmp_path with the relative scenario path `--record` gave its
    # children, so an error message that names the file reads the same; the
    # faults guard the messages and exit codes, steep the value and junction
    # rules, capped the flat-tail ceiling, cara the exponential anchor rule,
    # multi the per-asset columns
    monkeypatch.chdir(tmp_path)
    commands = same.GOLDEN_GROUPS[group](Path(group))
    assert sorted(cmd.name for cmd in commands) == sorted(
        d.name for d in (same.GOLDEN / group).iterdir())
    diffs = []
    for cmd in commands:
        out = tmp_path / "out" / cmd.name
        run_recorded([cmd.command, "--scenario", Path(group, f"{cmd.scenario}.json"),
                      *cmd.args], out)
        diffs += [f"{group}/{cmd.name}/{file}{place}: {same.describe(a, b)}"
                  for file, place, a, b in same.golden_diffs(
                      same.golden_path(group, cmd), out, exact)]
    assert not diffs, "\n".join(diffs)
