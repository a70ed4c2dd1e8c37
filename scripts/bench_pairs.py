#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark command, summarised.

Usage:
    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload probe-eval --seeds 301-310 --seconds 40 --out BENCH_9.json \\
        [--workload desk-train] [--trace 0|1] [--label NAME] [--what TEXT]

For every workload and seed it runs ``python3 perfbench/run.py --workload W
--seed S --seconds N --trace T`` once in each checkout, parent first on the
first seed and the change first on the next, and so on; a seed may repeat
(``--seeds 1,1,1`` runs three pairs on seed 1). Before a workload's pairs,
each checkout runs it once on the first seed as a warm-up, so no pair
compares a cold run with a warm one; warm-up runs are discarded. Each run
keeps its last two output lines: the metadata line and the result line. A
traced run also gets the mean self time per call of every module span in
its span file.

The output file gets one *set* per call, under ``--label``: the runs, each
side's median and quartiles per metric, and per metric the change's wins
(pairs where it is better, in the direction ``BENCHMARK.json`` gives, or
lower for the span times), the difference of the medians (positive when the
change is better) and the parent's interquartile range. Each end-to-end
metric also gets a ``verdict``: ``gain`` when the change wins at least
9/10 of the pairs and its median gain exceeds the parent's IQR,
``regression`` when its median is worse than the parent's by more than the
metric's relative ``bound`` in ``BENCHMARK.json``, ``within_bound``
otherwise. The metadata line's
``report`` entries are summarised too, as ``report:<name>``, in the
direction ``REPORT_BETTER`` gives; a report name that is missing from that
table and from the result line is not summarised, and the set lists it
under ``report_not_summarised``. A metric or span that only one side of a
pair reports is not compared; the set lists it under ``only_on_one_side``.
A call on an existing file adds its set to the file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

# Directions of the ``report`` entries that the result line does not carry
# (paper-step reports its step times, failures and rates only there).
REPORT_BETTER = {
    "step_p50_s": "lower",
    "step_p90_s": "lower",
    "fail_ratio": "lower",
    "probe_mse": "lower",
    "train_windows_per_s": "higher",
    "probe_windows_per_s": "higher",
}


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _git_commit(checkout: Path) -> str | None:
    out = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def _span_self_s(path: Path) -> dict[str, float]:
    """Mean self seconds per call of every module span in a span file."""
    payload = json.loads(path.read_text())
    spans = payload["spans"]
    child = defaultdict(float)
    for _, _, _, start, end, parent, _ in spans:
        child[parent] += end - start
    total, calls = defaultdict(float), defaultdict(int)
    for span_id, name, kind, start, end, _, _ in spans:
        if kind == "module":
            total[name] += end - start - child[span_id]
            calls[name] += 1
    return {name: total[name] / calls[name] for name in sorted(total)}


def _run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"error: {' '.join(cmd)} in {checkout} exited {out.returncode}:\n{out.stderr}")
    run = {"metadata": json.loads(lines[-2]), "result": json.loads(lines[-1])}
    if "trace_file" in run["metadata"]:
        run["span_self_s"] = _span_self_s(checkout / run["metadata"]["trace_file"])
    return run


def _report(run: dict) -> dict:
    return run.get("metadata", {}).get("report", {})


def _values(run: dict) -> dict[str, float]:
    return {**{k: m["value"] for k, m in run["result"]["metrics"].items()},
            **{f"report:{k}": m["value"] for k, m in _report(run).items()
               if k in REPORT_BETTER},
            **{f"span_self_s:{k}": v for k, v in run.get("span_self_s", {}).items()}}


def _not_summarised(runs: list[dict]) -> list[str]:
    """Report names that are neither on their run's result line nor in
    ``REPORT_BETTER``: no direction is known for them."""
    return sorted({k for run in runs
                   for k in _report(run).keys() - run["result"]["metrics"].keys()
                   - REPORT_BETTER.keys()})


def _verdict(entry: dict, bound: float) -> str:
    """``gain``, ``regression`` or ``within_bound`` for one summary entry,
    with ``bound`` the metric's largest relative worsening."""
    if 10 * entry["wins"] >= 9 * entry["pairs"] and entry["median_gain"] > entry["parent_iqr"]:
        return "gain"
    if -entry["median_gain"] > bound * abs(entry["parent"]["median"]):
        return "regression"
    return "within_bound"


def _summary(runs: list[dict], better: dict[str, str],
             bounds: dict[str, float] | None = None) -> tuple[dict, dict]:
    """Per workload and metric: each side's quartiles, the change's wins
    over the pairs, the median difference and the parent's IQR, and for a
    metric in ``bounds`` (the end-to-end ones) its verdict. Only a name
    that both runs of a pair report is compared; the second value lists,
    per workload, the names that only one side reported."""
    values: dict = defaultdict(lambda: defaultdict(lambda: {"parent": [], "change": []}))
    one_sided: dict = defaultdict(lambda: {"parent": set(), "change": set()})
    by_pair = defaultdict(dict)
    for run in runs:
        by_pair[(run["workload"], run["pair"])][run["side"]] = run
    for (workload, _), pair in by_pair.items():
        sides = {side: _values(pair[side]) for side in ("parent", "change")}
        for side, other in (("parent", "change"), ("change", "parent")):
            one_sided[workload][side] |= sides[side].keys() - sides[other].keys()
        for name in sides["parent"].keys() & sides["change"].keys():
            for side in ("parent", "change"):
                values[workload][name][side].append(sides[side][name])
    out: dict = {}
    for workload, metrics in values.items():
        for name in sorted(metrics):
            sign = 1 if better.get(name, "lower") == "higher" else -1
            pairs = list(zip(metrics[name]["parent"], metrics[name]["change"]))
            entry = {"wins": sum(sign * (c - p) > 0 for p, c in pairs), "pairs": len(pairs)}
            for side, side_values in metrics[name].items():
                q1, median, q3 = (statistics.quantiles(side_values, n=4) if len(side_values) > 1
                                  else side_values * 3)
                entry[side] = {"median": median, "q1": q1, "q3": q3}
            entry["median_gain"] = sign * (entry["change"]["median"] - entry["parent"]["median"])
            entry["parent_iqr"] = entry["parent"]["q3"] - entry["parent"]["q1"]
            if name in (bounds or {}):
                entry["verdict"] = _verdict(entry, bounds[name])
            out.setdefault(workload, {})[name] = entry
    only = {workload: {side: sorted(names) for side, names in sides.items()}
            for workload, sides in one_sided.items() if any(sides.values())}
    return out, only


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 301-310 or 1,4,9")
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--label", default="pairs")
    ap.add_argument("--what", default="")
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    better.update({f"report:{k}": v for k, v in REPORT_BETTER.items()})
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds, runs = _seeds(args.seeds), []
    for workload in args.workload:
        for side in ("parent", "change"):  # warm-up, discarded
            _run(sides[side], workload, seeds[0], args.seconds, args.trace)
            print(f"{workload} {side}: warm-up done", file=sys.stderr)
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                run = _run(sides[side], workload, seed, args.seconds, args.trace)
                runs.append({"workload": workload, "seed": seed, "pair": i, "side": side,
                             "pair_position": position, **run})
                print(f"{workload} seed {seed} {side}: {run['result']['metrics']}",
                      file=sys.stderr)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, one_sided = _summary(runs, better, bounds)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"sets": []}
    doc["sets"].append({
        "label": args.label,
        "what": args.what,
        "command": f"python3 perfbench/run.py --seconds {args.seconds} --trace {args.trace}",
        "commits": {side: _git_commit(path) for side, path in sides.items()},
        "host": {k: runs[0]["metadata"]["meta"][k] for k in ("nproc", "numpy", "python", "blas")},
        "seeds": seeds,
        "summary": summary,
        "only_on_one_side": one_sided,
        "report_not_summarised": _not_summarised(runs),
        "runs": runs,
    })
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
