"""The bzcalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a bzcalc checkout; it imports the program from
``src/``.  The workloads are defined in ``workloads.py`` and listed, with
the metrics, in ``BENCHMARK.json``.

Every measured phase runs in a fresh interpreter (``worker.py``), so nothing
a phase caches survives into the next one:

* set-up: SETUP_SAMPLES interpreters that only import bzcalc, after one
  that is not timed and leaves the bytecode cache warm; setup_s is their
  median;
* ``--trace 0``: one untraced phase gives the end-to-end metrics;
* ``--trace 1``: an untraced phase, then a traced one (``tracer.py``) that
  gives the per-layer metrics and trace.overhead, the traced jobs_per_s
  divided by the untraced one.

Job and set-up times are scaled to a fixed machine speed, measured by a
probe timed beside every job (see ``worker.py``): on a shared host the
unscaled times follow the neighbours' load.  The unscaled metrics are
printed beside the scaled ones and kept in the result file.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record, with every job's time, problem size, output check and stdout
sha256, and the machine stamp, goes to ``perfbench/results/``, which
``compare.py`` reads.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 15
# Every run ends within this many seconds, or fails.
DEADLINE_S = 170.0


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def worker_env():
    env = dict(os.environ)
    # The program's set and dict orders over strings follow the hash seed;
    # fixing it removes one source of run-to-run spread.
    env["PYTHONHASHSEED"] = "0"
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        fail(f"run exceeded {DEADLINE_S:.0f} s", 3)
    return left


def setup_time(deadline: float) -> tuple:
    """Median scaled and unscaled import times, in s."""
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--setup", str(ROOT)],
            capture_output=True, text=True, env=worker_env(),
            timeout=remaining(deadline),
        )
        if proc.returncode != 0:
            fail(f"importing bzcalc failed:\n{proc.stderr}")
        if k:
            samples.append([float(x) for x in proc.stdout.split()])
    return tuple(statistics.median(col) for col in zip(*samples))


def phase(workload, seed, seconds, trace, deadline, out: Path) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(ROOT), workload, str(seed),
             str(seconds), str(trace), str(out)],
            capture_output=True, text=True, env=worker_env(),
            timeout=remaining(deadline),
        )
    except subprocess.TimeoutExpired:
        fail(f"{workload} phase (trace {trace}) exceeded {DEADLINE_S:.0f} s", 3)
    if proc.returncode != 0:
        fail(f"{workload} phase (trace {trace}) failed:\n{proc.stderr}")
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return result


def end_to_end(result: dict, setup_s: tuple, key: str = "ms") -> dict:
    """The end-to-end metrics from scaled job times (key "ms"), or from
    unscaled ones (key "raw_ms")."""
    times = sorted(r[key] for r in result["jobs"])
    n = len(times)
    failed = sum(not r["ok"] for r in result["jobs"])
    # Nearest rank: the job at the 90% position of the sorted times.
    p90 = math.ceil(0.9 * n) - 1
    cycle_s = result["cycle_s" if key == "ms" else "raw_cycle_s"]
    return {
        # Every cycle holds the same job templates: the median cycle is the
        # typical rate, and a cycle slowed by the machine does not move it.
        "jobs_per_s": result["cycle_jobs"] / statistics.median(cycle_s),
        "job_p50_ms": statistics.median(times),
        "job_p90_ms": times[p90],
        "setup_s": setup_s[0 if key == "ms" else 1],
        "peak_rss_mb": result["peak_rss_mb"],
        "success_rate": (n - failed) / n,
        # Reported beside the metrics, not as one: it is 0 on a good run.
        "error_rate": failed / n,
        "p90_samples_above": n - 1 - p90,
    }


def stamp(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_at": time.time(),
    }


def job_counts(result: dict) -> dict:
    counts: dict = {}
    for r in result["jobs"]:
        c = counts.setdefault(r["kind"], {"jobs": 0, "failed": 0, "ms": []})
        c["jobs"] += 1
        c["failed"] += not r["ok"]
        c["ms"].append(r["ms"])
    for c in counts.values():
        c["p50_ms"] = statistics.median(c.pop("ms"))
    return counts


def main(argv=None):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found next to perfbench/")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bzcalc" / "__init__.py").is_file():
        fail(f"no bzcalc sources under {ROOT / 'src'}; run from a bzcalc checkout")

    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    record = stamp(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    setup_s = setup_time(deadline)
    plain = phase(args.workload, args.seed, args.seconds, 0, deadline,
                  RESULTS / f"{tag}.plain.json")
    e2e = end_to_end(plain, setup_s)
    raw = end_to_end(plain, setup_s, "raw_ms")
    phases = [plain]
    record.update(cycles=plain["cycles"], job_counts=job_counts(plain),
                  end_to_end=e2e, unscaled=raw, jobs=plain["jobs"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    if args.trace:
        traced = phase(args.workload, args.seed, args.seconds, 1, deadline,
                       RESULTS / f"{tag}.traced.json")
        phases.append(traced)
        layers = dict(traced["layers"]["metrics"])
        # The traced phase runs the first cycles of the untraced one: compare
        # the two on exactly those jobs.
        same = plain["jobs"][: len(traced["jobs"])]
        layers["trace.overhead"] = sum(r["ms"] for r in same) / sum(
            r["ms"] for r in traced["jobs"])
        record.update(per_layer=layers, functions=traced["layers"]["functions"],
                      spans=traced["layers"]["spans"],
                      spans_file=traced["spans_file"],
                      traced_jobs=traced["jobs"], traced_cycles=traced["cycles"])
        wanted = [m["name"] for m in spec["per_layer"]]
        values = layers
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
        values = e2e

    attempted = sum(len(p["jobs"]) for p in phases)
    failed = sum(not r["ok"] for p in phases for r in p["jobs"])
    record.update(attempted=attempted, failed=failed)
    out = RESULTS / f"{tag}.json"
    out.write_text(json.dumps(record), encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {len(plain['jobs'])} jobs in "
          f"{plain['cycles']} cycles, {plain['measured_s']:.2f} s in the program, "
          f"{e2e['p90_samples_above']} jobs above p90")
    for kind, c in sorted(record["job_counts"].items()):
        print(f"  {kind:<10} {c['jobs']:>5} jobs  {c['failed']:>3} failed  "
              f"p50 {c['p50_ms']:.2f} ms")
    print(f"  {'':<16} {'scaled':>12} {'unscaled':>12}")
    for name in [m["name"] for m in spec["end_to_end"]] + ["error_rate"]:
        print(f"  {name:<16} {e2e[name]:12.6g} {raw[name]:12.6g} "
              f"{units.get(name, 'fraction')}")
    if args.trace:
        for name in wanted:
            print(f"  {name:<48} {values[name]:.6g} {units[name]}")
    for p in phases:
        for r in p["jobs"]:
            if not r["ok"]:
                print(f"  FAILED {r['kind']} {json.dumps(r['size'])}: {r['error']}")
                break
    print(f"  results: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in wanted},
    }))


if __name__ == "__main__":
    main()
