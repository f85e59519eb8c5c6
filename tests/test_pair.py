import json
import random
import statistics
import pytest

from conftest import ROOT, load_tool

pair = load_tool("pair")

from run import end_to_end as bench_end_to_end  # noqa: E402  (pair's path)


def test_interval_brackets_the_median():
    ratios = [0.9, 0.95, 1.0, 1.02, 1.1, 1.3, 0.97]
    assert pair.interval(ratios) == {"median": 1.0, "lo": 0.9, "hi": 1.3}
    assert pair.interval([1.0] * 6) == {"median": 1.0, "lo": 1.0, "hi": 1.0}
    # the order statistics of the sign test: the 3rd and 10th of 12, the
    # 6th and 15th of 20
    slower = [1.2 + 0.01 * k for k in range(20)]
    assert pair.interval(slower) == {"median": statistics.median(slower),
                                     "lo": slower[5], "hi": slower[14]}
    assert pair.interval(list(range(12))) == {"median": 5.5, "lo": 2, "hi": 9}
    # below 6 pairs even [min, max] covers the median in under 95 % of runs
    assert pair.interval([0.9, 1.1, 1.2, 1.3, 1.4]) == {"median": 1.2, "lo": None,
                                                        "hi": None}
    assert pair.bounds(pair.interval([1.0])) == "[n/a]"


def test_interval_holds_its_level():
    # A/A ratios of two equal lognormal timings: the interval misses the
    # median 1 in at most 5 % of draws, at every pair count (exactly 3.1 %
    # at 6 pairs, 0.8 % at 8, 2.1 % at 10, 3.9 % at 12, 2.1 % at 16)
    rng = random.Random(5)
    for n in (6, 8, 10, 12, 16):
        misses = 0
        for _ in range(4000):
            iv = pair.interval([rng.lognormvariate(0.0, 0.1) / rng.lognormvariate(0.0, 0.1)
                                for _ in range(n)])
            misses += not iv["lo"] <= 1.0 <= iv["hi"]
        assert misses <= 0.05 * 4000, (n, misses)


def test_end_to_end_metrics_are_the_benchmarks():
    # each side's p50, tail and throughput over its own executions equal what
    # perfbench/run.py reports for those wall times: at 30 samples the tail
    # is p66.7, and below 20 it is the median
    rng = random.Random(3)
    for n in (30, 12):
        pairs = [{side: {"wall": rng.lognormvariate(-1.5, 0.3)} for side in ("parent", "change")}
                 for _ in range(n)]
        got = pair.end_to_end(pairs)
        for side in ("parent", "change"):
            records = [{"wall_s": p[side]["wall"], "rss_mb": 1.0, "status": "ok"} for p in pairs]
            metrics, extra = bench_end_to_end("cold_commands", records, [0.1])
            assert got[side] == {"tail_percentile": extra["tail_percentile"],
                                 **{k: metrics[k]["value"] for k in (
                                     "cmd_wall_s.p50", "cmd_wall_s.tail", "commands_per_s")}}
        assert got["change"]["tail_percentile"] == (100.0 * (1.0 - 10.0 / 30) if n == 30 else 50.0)


def test_a_a_pair_on_one_scenario(tmp_path, capsys):
    # one tree against itself: every command pairs with an equal twin and
    # the order alternates.  Of 8 pairs the 95 % interval is [min, max],
    # which misses the median in 2 of 256 runs of independent pairs, and
    # never when which side runs first sets the ratio's sign
    out = tmp_path / "pair.json"
    assert pair.main([str(ROOT), str(ROOT), "--workload", "cold_commands",
                      "--seed", "1", "--only=-crra", "--rounds", "2",
                      "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    result = json.loads(printed.splitlines()[-1])
    pairs = json.loads(out.read_text())["pairs"]
    assert result["exit_codes_differ"] == [] and result["level"] == 0.95
    assert sorted({p["command"] for p in pairs}) == ["decompose", "envelope",
                                                     "solve", "verify"]
    assert len(pairs) == 8 and sum(p["first"] == "parent" for p in pairs) == 4
    assert all(p[side]["rc"] == 0 for p in pairs for side in ("parent", "change"))
    wall = result["summary"]["all"]["wall"]
    assert wall["lo"] <= 1.0 <= wall["hi"], wall
    for side in ("parent", "change"):  # 8 executions: the tail is their median
        e = result["end_to_end"][side]
        walls = [p[side]["wall"] for p in pairs]
        assert e["cmd_wall_s.p50"] == e["cmd_wall_s.tail"] == statistics.median(walls)
        assert e["commands_per_s"] == 8 / sum(walls)
    assert "cmd_wall_s.tail (p50.0)" in printed


def test_only_without_a_match(monkeypatch, capsys):
    # a filter that matches no command is one error line, before any child runs
    monkeypatch.setattr(pair, "run_child", lambda *args: pytest.fail("a child ran"))
    assert pair.main([str(ROOT), str(ROOT), "--workload", "cold_commands",
                      "--seed", "1", "--only=nothing"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: --only='nothing' matches no command of the "
                                 "cold_commands plan for seed 1\n")


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_rounds_below_one(monkeypatch, capsys, rounds):
    # no pair could run: one error line, before either tree is built
    monkeypatch.setattr(pair, "build", lambda tree: pytest.fail("a tree was built"))
    assert pair.main([str(ROOT), str(ROOT), "--workload", "cold_commands",
                      "--seed", "1", "--rounds", rounds]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --rounds must be at least 1, got {rounds}\n"


def test_a_tree_without_sources(tmp_path, capsys):
    assert pair.main([str(tmp_path), str(ROOT), "--workload", "cold_commands",
                      "--seed", "1"]) == 2
    assert "no phara sources" in capsys.readouterr().err
