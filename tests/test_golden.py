import json
from pathlib import Path

import pytest

from conftest import run_recorded, same


@pytest.fixture(scope="module")
def exact():
    """Byte for byte on the host that recorded the golden files; elsewhere by
    the foreign-host rule of same.golden_diffs."""
    return same.host() == json.loads((same.GOLDEN / "host.json").read_text())


def test_golden_dirs_are_the_groups():
    # a golden directory that no group records would sit unread
    assert {d.name for d in same.GOLDEN.iterdir() if d.is_dir()} == set(same.GROUPS)


def golden_diffs(group, scenario, exact, simulate_bundled, out_dir):
    """Run the commands of one golden group on one of its scenarios (all of
    them if scenario is None) in this process, with the relative scenario
    path that --record gave its children, so that an error message naming
    the file reads the same; the differences from the golden files.  The
    bundled simulate runs are shared with test_cli.py."""
    commands = same.group_commands(group, Path(group))
    assert sorted(cmd.name for cmd in commands) == \
        sorted(d.name for d in (same.GOLDEN / group).iterdir())
    assert scenario in {None, *(cmd.scenario for cmd in commands)}
    diffs = []
    for cmd in commands:
        if scenario is not None and cmd.scenario != scenario:
            continue
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
    # the bundled group's commands on one bundled scenario
    monkeypatch.chdir(tmp_path)
    diffs = golden_diffs("bundled", name, exact, simulate_bundled, tmp_path / "out")
    assert not diffs, "\n".join(diffs)


@pytest.mark.parametrize("group", [g for g in same.GROUPS if g != "bundled"])
def test_group_matches_golden(tmp_path, monkeypatch, simulate_bundled, exact, group):
    # every command of one of the other golden groups
    monkeypatch.chdir(tmp_path)
    diffs = golden_diffs(group, None, exact, simulate_bundled, tmp_path / "out")
    assert not diffs, "\n".join(diffs)
