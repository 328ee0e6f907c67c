"""One measured phase of a benchmark run, in a fresh interpreter.

    python3 perfbench/worker.py --setup ROOT
        imports bzcalc as the first thing the interpreter does, and prints
        the seconds that took, scaled as below, then unscaled;
    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS TRACE OUT
        generates the seed's job stream, runs whole cycles of it through
        bzcalc in one closed loop (one client, no threads), checks every
        output and writes the records to OUT as JSON.

With TRACE 0 the loop runs until SECONDS of job time have passed and at
least MIN_JOBS jobs are done.  With TRACE 1 the tracer is installed and the
loop runs the workload's fixed number of cycles, so counts repeat exactly
for a seed.  Job time is the time inside the program: the call into
``bzcalc.cli.main`` or the library function, with its output captured.
Generation and checking are benchmark work and are not timed.

On a host shared with other tenants, the speed of a core changes with their
load: a fixed piece of Python code can take 1.7 times as long for tens of
seconds, while nothing in the benchmark changes.  So a short
fixed probe (``probe_ms``) is timed just before and just after every job.
A job runs at the speed of the probes around it, so its time scaled by
REFERENCE_PROBE_MS over their median is the time it takes when the probe
takes REFERENCE_PROBE_MS.  The median is over the probes of the job and of
the SPEED_WINDOW jobs on either side: one probe is too short to measure the
speed alone.  Records keep both times.
"""
import gc
import os
import sys
import time

# What probe_ms() takes on a core when the host is quiet: its fast mode on a
# 2-vCPU Intel Xeon VM with CPython 3.10.  Changing it scales every timing
# metric by the same factor.
REFERENCE_PROBE_MS = 0.8
SPEED_WINDOW = 2


def probe_ms():
    """Time a fixed piece of dict, tuple and int work, in ms."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    table = {}
    for i in range(3000):
        key = (i % 61, i // 61, i & 7)
        table[key] = table.get(key, 0) + i * i % 11
    sorted(table.values())
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed * 1e3


if __name__ == "__main__" and sys.argv[1] == "--setup":
    sys.path.insert(0, os.path.join(sys.argv[2], "src"))
    t0 = time.perf_counter()
    import bzcalc.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    probe = sorted(probe_ms() for _ in range(9))[4]
    print(repr(elapsed * REFERENCE_PROBE_MS / probe), repr(elapsed))
    sys.exit(0)

import contextlib
import functools
import hashlib
import io
import json
import resource
import statistics

from workloads import WORKLOADS

MIN_JOBS = 100
# Stop starting cycles after this many wall seconds, so a run always ends
# within its time limit, even on a program far slower than today's.
WALL_CAP_S = 75.0


def run_triangle(text, segments, dimensions):
    """Library-call job: dimensions.triangle_check on a JSON document."""
    doc = json.loads(text)
    s = segments.multisegment_from_json(doc["s"])
    q = dimensions.PrimePower(int(doc["q"]["p"]), int(doc["q"]["f"]))
    mults = {segments.multisegment_from_json(k): int(m) for k, m in doc["mults"]}
    return json.dumps({"triangle": dimensions.triangle_check(s, q, mults, doc["unit"])})


def main(root, workload, seed, seconds, trace, out_path):
    stream = WORKLOADS[workload](seed)
    sys.path.insert(0, os.path.join(root, "src"))
    from bzcalc import cli, dimensions, segments

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    run = _call_job if tracer is None else functools.partial(tracer.span("job"), _call_job)

    records = []
    cycle_s = []
    wall0 = time.perf_counter()
    while True:
        jobs = stream.cycle()
        # The benchmark's own objects (oracle tables, jobs) should not make
        # the program's garbage collections slower.
        gc.collect()
        gc.freeze()
        spent = 0.0
        for job in jobs:
            out, err = io.StringIO(), io.StringIO()
            error = None
            before = probe_ms()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    if tracer is not None:
                        tracer.current_job[0] = len(records)
                    code = run(job, cli, segments, dimensions)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a crash is a failed job, not a failed run
                    code, error = None, f"raised {exc!r}"
                elapsed = time.perf_counter() - t0
            after = probe_ms()
            text = out.getvalue()
            if error is None:
                try:
                    error = job.check(text, code)
                except Exception as exc:
                    error = f"check raised {exc!r}"
            spent += elapsed
            records.append({
                "kind": job.kind,
                "size": job.size,
                "cycle": len(cycle_s),
                "start_s": t0 - wall0,
                "raw_ms": elapsed * 1e3,
                "probe_ms": [before, after],
                "code": code,
                "ok": error is None,
                "error": error,
                "stderr": err.getvalue()[:300] if error else "",
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "bytes": len(text.encode()),
            })
        cycle_s.append(spent)
        if tracer is not None:
            if len(cycle_s) >= stream.trace_cycles:
                break
        elif sum(cycle_s) >= seconds and len(records) >= MIN_JOBS:
            break
        if time.perf_counter() - wall0 > WALL_CAP_S:
            break

    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cycles": len(cycle_s),
        "measured_s": sum(cycle_s),
        "raw_cycle_s": cycle_s,
        "cycle_s": scale_times(records, len(cycle_s)),
        "cycle_jobs": len(jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": records,
    }
    if tracer is not None:
        result["layers"] = tracer.summary(
            kinds=[r["kind"] for r in records],
            output_bytes=sum(r["bytes"] for r in records),
        )
        spans = out_path[: -len(".json")] + ".spans.json.gz"
        tracer.write(spans)
        result["spans_file"] = os.path.basename(spans)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def scale_times(records, cycles):
    """Set each record's scaled time "ms"; return the scaled cycle times in s."""
    cycle_s = [0.0] * cycles
    for k, r in enumerate(records):
        window = records[max(0, k - SPEED_WINDOW): k + SPEED_WINDOW + 1]
        speed = statistics.median(p for w in window for p in w["probe_ms"])
        r["ms"] = r["raw_ms"] * REFERENCE_PROBE_MS / speed
        cycle_s[r["cycle"]] += r["ms"] / 1e3
    return cycle_s


def _call_job(job, cli, segments, dimensions):
    if job.argv is not None:
        return cli.main(job.argv)
    sys.stdout.write(run_triangle(job.call, segments, dimensions))
    return 0


if __name__ == "__main__":
    root, workload, seed, seconds, trace, out_path = sys.argv[1:7]
    main(root, workload, int(seed), float(seconds), int(trace), out_path)
