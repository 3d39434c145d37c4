"""tools/bench_pairs.py: its statistics on fixed numbers, and its pair loop
against stub checkouts whose benchmark prints a fixed result."""
import importlib.util
import json
import os
import sys

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")


@pytest.fixture(scope="module")
def bp():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_order_alternates(bp):
    assert [bp.order(i) for i in range(4)] == [("parent", "change"), ("change", "parent")] * 2


def test_summary_of_a_higher_is_better_metric(bp):
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [12.0, 11.0, 14.0, 15.0, 13.0]
    got = bp.summarize(parent, change, "higher", 0.24)
    # sorted parent 9..13: inclusive quartiles 10, 11, 12; change 11..15: 12, 13, 14
    assert got["parent"] == {"q1": 10.0, "median": 11.0, "q3": 12.0}
    assert got["change"] == {"q1": 12.0, "median": 13.0, "q3": 14.0}
    assert got["change_wins"] == "4/5"  # pair 1 is lost: 11 < 12
    assert got["median_change_rel"] == round(2 / 11, 4)
    assert got["parent_iqr"] == 2.0
    assert got["within_bound"] is True
    assert got["parent_runs"] == parent and got["change_runs"] == change


def test_summary_of_a_lower_is_better_metric_and_its_bound(bp):
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [1.5, 2.5, 3.5, 4.5]
    got = bp.summarize(parent, change, "lower", 0.24)
    # n = 4: inclusive quartiles 1.75, 2.5, 3.25 and 2.25, 3.0, 3.75
    assert got["parent"] == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert got["change"] == {"q1": 2.25, "median": 3.0, "q3": 3.75}
    assert got["change_wins"] == "0/4"
    assert got["median_change_rel"] == 0.2 and got["within_bound"] is True
    assert bp.summarize(parent, change, "lower", 0.1)["within_bound"] is False
    assert bp.summarize(change, parent, "higher", 0.1)["within_bound"] is False


def test_claim_needs_nine_wins_in_ten_and_a_gain_above_the_iqr(bp):
    parent = [100.0 + i for i in range(10)]
    entry = dict(bp.summarize(parent, [x + 20 for x in parent], "higher", 0.24),
                 better="higher")
    got = bp.claim("oracle-diff", "ops_per_s", entry)
    assert got == {"workload": "oracle-diff", "metric": "ops_per_s",
                   "parent_median": 104.5, "change_median": 124.5, "change_wins": "10/10",
                   "parent_iqr": 4.5, "median_gain": 20.0, "met": True}
    # a gain no larger than the parent's IQR is not met
    small = dict(bp.summarize(parent, [x + 4 for x in parent], "higher", 0.24),
                 better="higher")
    assert bp.claim("w", "ops_per_s", small)["met"] is False
    # eight wins in ten are not enough
    mixed = [x + 20 for x in parent[:8]] + [x - 1 for x in parent[8:]]
    eight = dict(bp.summarize(parent, mixed, "higher", 0.24), better="higher")
    assert eight["change_wins"] == "8/10" and bp.claim("w", "m", eight)["met"] is False
    # for a lower-is-better metric the gain is the drop
    lower = dict(bp.summarize(parent, [x - 20 for x in parent], "lower", 0.24),
                 better="lower")
    assert bp.claim("w", "op_p50_ms", lower)["median_gain"] == 20.0


_STUB = """import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
log = os.path.join(os.path.dirname(__file__), "..", "..", "log")
with open(log, "a") as fh:
    fh.write("%s %d %s %s\\n" % ({side!r}, seed, args["--seconds"],
                                 os.environ.get("PYTHONDONTWRITEBYTECODE")))
value = {base} + seed % 10
print("details")
print(json.dumps({{"correct": True, "attempted": 5, "failed": 0, "metrics": {{
    "ops_per_s": {{"value": value, "unit": "1/s"}},
    "op_p50_ms": {{"value": 1000 / value, "unit": "ms"}}}}}}))
"""


def test_pairs_alternate_between_stub_checkouts(bp, tmp_path, capsys):
    spec = {"command": [sys.executable, "ordbench/run.py"], "run_seconds": 7,
            "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
        {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.24}]}
    for side, base in (("parent", 100), ("change", 120)):
        (tmp_path / side / "ordbench").mkdir(parents=True)
        (tmp_path / side / "ordbench" / "run.py").write_text(_STUB.format(side=side, base=base))
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    assert bp.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                    "--workload", "oracle-diff", "--first-seed", "4001", "--pairs", "3",
                    "--claim", "ops_per_s"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (tmp_path / "log").read_text().split("\n")[:-1] == [
        "parent 4001 7 1", "change 4001 7 1", "change 4002 7 1", "parent 4002 7 1",
        "parent 4003 7 1", "change 4003 7 1"]
    wl = out["oracle-diff"]
    assert wl["seeds"] == [4001, 4002, 4003]
    assert wl["first"] == ["parent", "change", "parent"]
    assert wl["correct"] is True and wl["failed"] == {"parent": 0, "change": 0}
    assert wl["attempted"] == {"parent": 15, "change": 15}
    ops = wl["metrics"]["ops_per_s"]
    assert ops["parent_runs"] == [101, 102, 103] and ops["change_runs"] == [121, 122, 123]
    assert ops["change_wins"] == "3/3" and ops["unit"] == "1/s"
    assert wl["metrics"]["op_p50_ms"]["change_wins"] == "3/3"
    assert out["claim"]["met"] is True and out["claim"]["median_gain"] == 20.0


def test_tool_does_not_import_the_benchmark():
    with open(TOOL, encoding="utf-8") as fh:
        src = fh.read()
    assert "import ordbench" not in src and "from ordbench" not in src
    assert "sys.path" not in src
