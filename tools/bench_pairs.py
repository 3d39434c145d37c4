"""Alternating benchmark pairs between two checkouts of ordrank.

Usage:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload oracle-diff --first-seed 4001 --pairs 10 [--claim ops_per_s]

Pair i runs the benchmark's command from the change's BENCHMARK.json with
`--workload W --seed S+i --seconds T --trace 0`, T being its run_seconds,
once in each checkout, one process at a time, with
PYTHONDONTWRITEBYTECODE=1 (as a fresh checkout runs); the parent goes first
in even-numbered pairs (0, 2, ...) and the change in odd ones.  Progress
goes to standard error; standard output gets one JSON object: the
workload's block for a BENCH file (seeds, order, correctness, failures and,
per end-to-end metric of the change's BENCHMARK.json, both sides' runs,
quartiles, change_wins, median_change_rel, parent_iqr and within_bound)
and, with --claim, the claim block for that metric.  Quartiles are
statistics.quantiles(method='inclusive').
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def order(pair: int) -> tuple[str, str]:
    """The sides of a pair in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over paired runs: parent[i] and change[i] are pair i."""
    higher = better == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    rel = (statistics.median(change) - statistics.median(parent)) / statistics.median(parent)
    return {"parent": pq, "change": cq,
            "parent_runs": [round(x, 4) for x in parent],
            "change_runs": [round(x, 4) for x in change],
            "change_wins": "%d/%d" % (wins, len(parent)),
            "median_change_rel": round(rel, 4),
            "parent_iqr": round(pq["q3"] - pq["q1"], 4),
            "within_bound": (rel >= -bound) if higher else (rel <= bound)}


def claim(workload: str, metric: str, entry: dict) -> dict:
    """A gain is met when the change wins at least nine pairs in ten and
    its median beats the parent's by more than the parent's IQR."""
    wins, pairs = map(int, entry["change_wins"].split("/"))
    pm, cm = entry["parent"]["median"], entry["change"]["median"]
    gain = cm - pm if entry["better"] == "higher" else pm - cm
    return {"workload": workload, "metric": metric, "parent_median": pm,
            "change_median": cm, "change_wins": entry["change_wins"],
            "parent_iqr": entry["parent_iqr"], "median_gain": round(gain, 4),
            "met": 10 * wins >= 9 * pairs and gain > entry["parent_iqr"]}


def run_once(checkout: Path, spec: dict, workload: str, seed: int) -> dict:
    """The result object (the last line of output) of one benchmark run."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("bench_pairs: run failed in %s (exit %d): %s"
                         % (checkout, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def block(results: dict, seeds: list[int], end_to_end: list[dict]) -> dict:
    """The workload's BENCH block from each side's result objects, in pair order."""
    metrics = {}
    for m in end_to_end:
        runs = {s: [r["metrics"][m["name"]]["value"] for r in results[s]] for s in SIDES}
        metrics[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                              **summarize(runs["parent"], runs["change"],
                                          m["better"], m["bound"])}
    return {"seeds": seeds, "first": [order(i)[0] for i in range(len(seeds))],
            "correct": all(r["correct"] for s in SIDES for r in results[s]),
            "failed": {s: sum(r["failed"] for r in results[s]) for s in SIDES},
            "attempted": {s: sum(r["attempted"] for r in results[s]) for s in SIDES},
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--claim", metavar="METRIC")
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seeds = [args.first_seed + i for i in range(args.pairs)]
    dirs = {"parent": args.parent, "change": args.change}
    results: dict[str, list[dict]] = {s: [] for s in SIDES}
    for i, seed in enumerate(seeds):
        for side in order(i):
            results[side].append(run_once(dirs[side], spec, args.workload, seed))
            print("pair %d seed %d %s: %s" % (i, seed, side, json.dumps(
                {k: v["value"] for k, v in results[side][-1]["metrics"].items()})),
                file=sys.stderr, flush=True)
    out = {args.workload: block(results, seeds, spec["end_to_end"])}
    if args.claim:
        out["claim"] = claim(args.workload, args.claim,
                             out[args.workload]["metrics"][args.claim])
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
