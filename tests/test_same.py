from conftest import ROOT, same
from corpora import cara_utility, steep_block
from phara.cli import _parse_utility


def test_crra_against_itself(tmp_path):
    # the bundled matrix's crra commands but the slow simulate, each run in
    # this tree twice: exit codes, output and every artifact agree
    runs = [(group, cmd) for group, cmd in same.matrix(tmp_path)
            if group.name == "bundled" and cmd.scenario == "crra"
            and cmd.command != "simulate"]
    assert sorted({cmd.command for _, cmd in runs}) == ["decompose", "envelope",
                                                        "solve", "surface", "verify"]
    assert len(runs) == 14
    assert same.compare(ROOT, ROOT, runs, tmp_path) == []


def test_differences_are_named(tmp_path):
    # a JSON leaf by its key path, a report in a list by its name, a CSV
    # cell by row and column, a line of output by number; ulps count across 0
    a, b = tmp_path / "a", tmp_path / "b"
    for d, computed, cell, line in ((a, 1.0, "0.5", "PASS"), (b, 1.0000000000000002,
                                                              "0.25", "FAIL")):
        d.mkdir()
        (d / "v.json").write_text(f'[{{"name": "mc", "computed": {computed!r}}}]')
        (d / "s.csv").write_text(f"t,x\n0,1\n1,{cell}\n")
        (d / "stdout").write_text(f"{line} mc\n")
    (b / "extra.json").write_text("{}")
    assert list(same.compare_dirs(a, b)) == [
        ("extra.json", "", "<absent>", "present"),
        ("s.csv", "[row 2].x", 0.5, 0.25),
        ("stdout", "[line 1]", "PASS mc", "FAIL mc"),
        ("v.json", ":[mc].computed", 1.0, 1.0000000000000002)]
    assert same.describe(1.0, 1.0000000000000002) == \
        "1.0 -> 1.0000000000000002 (1 ulps, rel 2.2e-16)"
    assert same.distance(-5e-324, 5e-324) == (2, 2.0)
    assert same.distance(-0.0, 0.0) == (0, 0.0)
    assert same.distance("inf", 1.0) is None


def test_integers_have_no_distance():
    # an exit code, or any other integer, is shown as it is: its bits read as
    # a double would give a ulp count that says nothing
    assert same.describe(2, 0) == "2 -> 0"
    assert same.describe(100000, 99999) == "100000 -> 99999"
    assert same.distance(2, 0) is None and same.distance(1, 1.0) is None
    assert same.describe(0.5, 0.25) == "0.5 -> 0.25 (4503599627370496 ulps, rel 0.5)"


def test_foreign_host_rule(tmp_path):
    # on another host a float may move within FOREIGN_RTOL and FOREIGN_ATOL,
    # a printed number within PRINTED_RTOL; a word, an exit code, an integer
    # or a file present on one side only never moves
    a, b = tmp_path / "a", tmp_path / "b"
    for d, computed, residue, n, line, code in (
            (a, 1.0, 6.139524294369188e-08, 3, "PASS fd: computed=9.57777e-10", "0"),
            (b, 1.0 + 5e-10, 6.139524303919973e-08, 3, "PASS fd: computed=9.57778e-10", "0")):
        d.mkdir()
        (d / "v.json").write_text(f'{{"computed": {computed!r}, "fd": {residue!r}, "n": {n}}}')
        (d / "stdout").write_text(f"{line}\n")
        (d / "exit_code").write_text(f"{code}\n")
    assert len(list(same.compare_dirs(a, b))) == 3
    assert same.golden_diffs(a, b, exact=False) == []
    assert len(same.golden_diffs(a, b, exact=True)) == 3
    (b / "v.json").write_text('{"computed": 1.000000002, "fd": 6.139524303919973e-08, "n": 4}')
    (b / "stdout").write_text("FAIL fd: computed=9.57777e-10\n")
    (b / "exit_code").write_text("2\n")
    (b / "extra.json").write_text("{}")
    assert [d[:2] for d in same.golden_diffs(a, b, exact=False)] == [
        ("exit_code", "[line 1]"), ("extra.json", ""), ("stdout", "[line 1]"),
        ("v.json", ":computed"), ("v.json", ":n")]


def test_steep_literals_are_corpus_draws():
    # the steep group's utility blocks, which same.py keeps as literals to stay
    # standard-library only, are draws 5, 6 and 1316 of the steep corpus
    assert same.STEEP == {f"steep{s}": steep_block(s) for s in (5, 6, 1316)}


def test_cara_blocks_are_the_corpus_utility():
    # same.py's _cara(alpha, a0) preference block, as the commands parse it, is
    # corpora.cara_utility(alpha, a0), for both CARA compositions of the cara group
    for name in ("cara_steep", "cara_flat"):
        block = same.CARA[name]["preference"]
        alpha, a0 = block["pieces"][0]["alpha"], block["a0"]
        assert _parse_utility(block) == cara_utility(alpha, a0)
