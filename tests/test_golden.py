import json
from pathlib import Path

import pytest

from conftest import run_recorded, same


@pytest.fixture(scope="module")
def exact():
    """Byte for byte on the host that recorded the golden files; elsewhere by
    the foreign-host rule of same.golden_diffs."""
    return same.host() == json.loads((same.GOLDEN / "host.json").read_text())


def golden_diffs(group, commands, scenario, exact, simulate_bundled, out_dir):
    """Run commands of one of tools/same.py's golden groups in this process
    from the current directory, with the relative scenario path `--record`
    gave its children, so an error message that names the file reads the
    same, after checking that exactly these commands, of those on the
    scenario (all of them if it is None), have a golden directory; the
    differences from the golden files, each named by file and key path, CSV
    cell or line, with both values and their ulps.  The bundled group's
    simulate runs are shared with test_cli.py."""
    recorded = [d.name for d in (same.GOLDEN / group).iterdir()]
    if scenario is not None:
        # a directory name is <command>-<scenario>[-<flags>], and no bundled
        # scenario name has a '-'
        assert {n.split("-")[1] for n in recorded} <= set(same.BUNDLED)
        recorded = [n for n in recorded if n.split("-")[1] == scenario]
    assert sorted(cmd.name for cmd in commands) == sorted(recorded)
    diffs = []
    for cmd in commands:
        if group == "bundled" and cmd.command == "simulate":
            out = simulate_bundled(cmd.scenario)
        else:
            out = out_dir / cmd.name
            run_recorded([cmd.command, "--scenario", Path(group, f"{cmd.scenario}.json"),
                          *cmd.args], out)
        diffs += [f"{group}/{cmd.name}/{file}{place}: {same.describe(a, b)}"
                  for file, place, a, b in same.golden_diffs(
                      same.GOLDEN / group / cmd.name, out, exact)]
    return diffs


@pytest.mark.parametrize("name", same.BUNDLED)
def test_bundled_matches_golden(tmp_path, monkeypatch, simulate_bundled, exact, name):
    # the six commands of the bundled group on one bundled scenario,
    # decompose at its ten points
    monkeypatch.chdir(tmp_path)
    commands = [cmd for cmd in same.GOLDEN_GROUPS["bundled"](Path("bundled"))
                if cmd.scenario == name]
    assert len(commands) == 15
    diffs = golden_diffs("bundled", commands, name, exact, simulate_bundled,
                         tmp_path / "out")
    assert not diffs, "\n".join(diffs)


@pytest.mark.parametrize("group", [g for g in same.GOLDEN_GROUPS if g != "bundled"])
def test_group_matches_golden(tmp_path, monkeypatch, simulate_bundled, exact, group):
    # every command of one of the other golden groups: faults guards the
    # messages and exit codes, steep the value and junction rules, capped the
    # flat-tail ceiling, cara the exponential anchor rule, multi the
    # per-asset columns, branches every other branch a command can take
    monkeypatch.chdir(tmp_path)
    commands = same.GOLDEN_GROUPS[group](Path(group))
    diffs = golden_diffs(group, commands, None, exact, simulate_bundled,
                         tmp_path / "out")
    assert not diffs, "\n".join(diffs)
