"""Compare the results of two commits, one row per (end-to-end metric, workload).

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a ``perfbench/results`` directory (or result files) from
``run.py --trace 0`` runs of one commit.  Runs of the two commits pair up by
workload and seed, in the order they were made; run them alternately,
parent first in half of the pairs.  A row reads:

* improved: at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither side), and the medians differ, in the better
  direction, by more than the parent's interquartile range;
* regressed: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
* no worse: within the bound;
* unresolved: fewer than 10 pairs, pairs that did not alternate, or a
  run-to-run spread (interquartile range over median, either side) wider
  than the bound, unless every run of the change beats every run of the
  parent, or loses to every one.

It also counts the jobs whose stdout sha256 differs between paired runs of
one seed: report bytes must not change unless a change says so.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(arg: str) -> list[dict]:
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for f in files:
        doc = json.loads(f.read_text(encoding="utf-8"))
        if doc.get("trace") == 0 and "end_to_end" in doc:
            runs.append(doc)
    return sorted(runs, key=lambda r: r["started_at"])


def pairs(parent: list[dict], change: list[dict], workload: str):
    """(parent run, change run) pairs with the same workload and seed."""
    out = []
    pending: dict = {}
    for run in parent:
        if run["workload"] == workload:
            pending.setdefault(run["seed"], []).append(run)
    for run in change:
        if run["workload"] == workload and pending.get(run["seed"]):
            out.append((pending[run["seed"]].pop(0), run))
    return out


def iqr(values):
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(p_vals, c_vals, better, bound, alternated):
    if len(p_vals) < MIN_PAIRS or not alternated:
        return "unresolved"
    # Signed so that larger is better.
    sign = 1 if better == "higher" else -1
    gp, gc = [sign * v for v in p_vals], [sign * v for v in c_vals]
    wins = sum(c > p for p, c in zip(gp, gc))
    gain = statistics.median(gc) - statistics.median(gp)
    if wins >= WIN_SHARE * len(gp) and gain > iqr(p_vals):
        return "improved"
    worse = -gain / abs(statistics.median(p_vals)) > bound
    spread = max(iqr(v) / abs(statistics.median(v)) for v in (p_vals, c_vals))
    if spread > bound:
        if min(gc) > max(gp):
            return "no worse"
        if max(gc) >= min(gp):
            return "unresolved"
    return "regressed" if worse else "no worse"


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parent, change = load(argv[0]), load(argv[1])
    print(f"{'workload':<16} {'metric':<13} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'wins':>6}  verdict")
    for w in spec["workloads"]:
        ps = pairs(parent, change, w["name"])
        if not ps:
            print(f"{w['name']:<16} no paired runs")
            continue
        first = sum(p["started_at"] < c["started_at"] for p, c in ps)
        alternated = abs(2 * first - len(ps)) <= 1
        for m in spec["end_to_end"]:
            p_vals = [p["end_to_end"][m["name"]] for p, _ in ps]
            c_vals = [c["end_to_end"][m["name"]] for _, c in ps]
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(p_vals, c_vals))
            print(f"{w['name']:<16} {m['name']:<13} {fmt(p_vals):>30} {fmt(c_vals):>30} "
                  f"{wins:>3}/{len(ps):<2}  "
                  f"{verdict(p_vals, c_vals, m['better'], m['bound'], alternated)}")
        changed = sum(
            a["sha256"] != b["sha256"]
            for p, c in ps for a, b in zip(p["jobs"], c["jobs"])
        )
        compared = sum(min(len(p["jobs"]), len(c["jobs"])) for p, c in ps)
        print(f"{w['name']:<16} {len(ps)} pairs, parent first in {first}; "
              f"stdout differs in {changed} of {compared} paired jobs")


def fmt(values):
    if len(values) < 2:
        return f"{values[0]:.4g}" if values else "-"
    q = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q[0]:.4g}, {q[2]:.4g}]"


if __name__ == "__main__":
    main(sys.argv[1:])
