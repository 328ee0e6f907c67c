"""Spans around every public function of the five bzcalc modules, installed
from outside the program by rebinding module attributes.

A span records its name, start, end, parent span and job id.  Spans are kept
in memory, in flat arrays, and summarised and written out when the run ends.
A span's self time is its duration minus the durations of its child spans;
calls are strictly nested in one thread, so children never overlap.

Names are ``<module>.<function>``.  A function imported into another module
(``family.leq``, ``dimensions.leq``, ...) is rebound there too and keeps the
name of the module that defines it.  Generator functions are left alone: a
span would close before the generator runs.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import json
from array import array
from collections import Counter
from time import perf_counter

MODULES = ("segments", "dimensions", "weildeligne", "family", "cli")
MS_INIT = "segments.Multisegment.__init__"


def _size(args, result):
    return len(result)


def _bits(args, result):
    return result.bit_length() if isinstance(result, int) else 0


def _is_true(args, result):
    return 1 if result is True else 0


def _order_n(args, result):
    return args[0].n


# What a span records beside its times, as one int per span.
VALUES = {
    "segments.elementary_edges": _size,
    "segments.downward_closure": _size,
    "segments.closure_edges": _size,
    "segments.leq": _is_true,
    "weildeligne.exp_nilpotent": _order_n,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.value = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_job = [-1]
        self.ratio_keys: set = set()

    def wrap(self, fn, name, measure=None):
        nid = len(self.names)
        self.names.append(name)
        names, parents, jobs, values = self.name, self.parent, self.job, self.value
        starts, ends, stack, job = self.start, self.end, self.stack, self.current_job
        keys = self.ratio_keys if name == "family.ratio_valuation" else None

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(job[0])
            values.append(0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if measure is not None:
                values[sid] = measure(args, result)
            if keys is not None:
                keys.add((job[0], args[1], args[2]))
            return result

        return traced

    def span(self, name):
        """Wrap a callable of the benchmark's own, such as one whole job."""
        return self.wrap(lambda f, *a: f(*a), name)

    def install(self):
        """Rebind every public function of the five modules, wherever the
        package imported it, and Multisegment.__init__."""
        package = importlib.import_module("bzcalc")
        mods = {m: importlib.import_module(f"bzcalc.{m}") for m in MODULES}
        wrapped = {}
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = f"{mname}.{attr}"
                measure = VALUES.get(name, _bits if mname == "dimensions" else None)
                wrapped[obj] = self.wrap(obj, name, measure)
        for mod in [package, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        ms = mods["segments"].Multisegment
        ms.__init__ = self.wrap(ms.__init__, MS_INIT)

    # --- summary -------------------------------------------------------------

    def summary(self, kinds: list, output_bytes: int) -> dict:
        """Per-layer metrics; kinds[j] is the kind of job j."""
        n = len(self.start)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls, total, self_s, value_sum, value_max = (Counter() for _ in range(5))
        exp_in_wd = 0
        for i in range(n):
            name = names[self.name[i]]
            if name == "weildeligne.exp_nilpotent" and kinds[self.job[i]] == "wd":
                exp_in_wd += 1
            calls[name] += 1
            total[name] += dur[i]
            self_s[name] += dur[i] - child[i]
            value_sum[name] += self.value[i]
            value_max[name] = max(value_max[name], self.value[i])

        # Children generated by elementary_edges inside a downward_closure
        # or a leq span.
        edges_id = names.index("segments.elementary_edges")
        under = Counter()
        for i in range(n):
            if self.name[i] != edges_id:
                continue
            p = self.parent[i]
            while p >= 0:
                pname = names[self.name[p]]
                if pname in ("segments.downward_closure", "segments.leq"):
                    under[pname] += self.value[i]
                    break
                p = self.parent[p]

        def share(a, b):
            return a / b if b else 0.0

        nodes = value_sum["segments.downward_closure"]
        walks = total["segments.downward_closure"] + total["segments.closure_edges"]
        leq_calls = calls["segments.leq"]
        out = {
            "segments.elementary_edges.calls": calls["segments.elementary_edges"],
            "segments.elementary_edges.self_s": self_s["segments.elementary_edges"],
            "segments.elementary_edges.children": value_sum["segments.elementary_edges"],
            "segments.Multisegment.inits": calls[MS_INIT],
            "segments.Multisegment.init_self_s": self_s[MS_INIT],
            "segments.downward_closure.total_s": total["segments.downward_closure"],
            "segments.closure_edges.total_s": total["segments.closure_edges"],
            "segments.closure.nodes": nodes,
            "segments.closure.edges": value_sum["segments.closure_edges"],
            "segments.closure.us_per_node": 1e6 * share(walks, nodes),
            "segments.closure.new_child_ratio": share(nodes, under["segments.downward_closure"]),
            "segments.leq.calls": leq_calls,
            "segments.leq.total_s": total["segments.leq"],
            "segments.leq.true_share": share(value_sum["segments.leq"], leq_calls),
            "segments.leq.children_per_call": share(under["segments.leq"], leq_calls),
            "segments.support.calls": calls["segments.support"],
            "segments.support.self_s": self_s["segments.support"],
            "dimensions.parabolic_alternating_sum.calls": calls["dimensions.parabolic_alternating_sum"],
            "dimensions.parabolic_alternating_sum.total_s": total["dimensions.parabolic_alternating_sum"],
            "dimensions.gaussian_flag_count.calls": calls["dimensions.gaussian_flag_count"],
            "dimensions.gaussian_flag_count.self_s": self_s["dimensions.gaussian_flag_count"],
            "dimensions.result_bits_max": max(
                [v for k, v in value_max.items() if k.startswith("dimensions.")], default=0),
            "dimensions.triangle_check.total_s": total["dimensions.triangle_check"],
            "dimensions.triangle_check.self_s": self_s["dimensions.triangle_check"],
            "weildeligne.exp_nilpotent.calls": calls["weildeligne.exp_nilpotent"],
            "weildeligne.exp_nilpotent.self_s": self_s["weildeligne.exp_nilpotent"],
            "weildeligne.exp_nilpotent.calls_per_wd_job": share(exp_in_wd, kinds.count("wd")),
            "weildeligne.exp_nilpotent.n_max": value_max["weildeligne.exp_nilpotent"],
            "family.run_pipeline.calls": calls["family.run_pipeline"],
            "family.run_pipeline.total_s": total["family.run_pipeline"],
            "family.twist_comparison_witness.calls": calls["family.twist_comparison_witness"],
            "family.twist_comparison_witness.self_s": self_s["family.twist_comparison_witness"],
            "family.ratio_valuation.calls": calls["family.ratio_valuation"],
            "family.ratio_valuation.distinct": len(self.ratio_keys),
            "family.ratio_valuation.self_s": self_s["family.ratio_valuation"],
            "family.k1_trace.calls": calls["family.k1_trace"],
            "family.k1_trace.self_s": self_s["family.k1_trace"],
            "family.iwahori_trace.calls": calls["family.iwahori_trace"],
            "family.scenario_violations.total_s": total["family.scenario_violations"],
            "cli.main.total_s": total["cli.main"],
            "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
            "cli.output_bytes": output_bytes,
        }
        functions = {
            name: {"calls": calls[name], "total_s": total[name], "self_s": self_s[name]}
            for name in sorted(calls)
        }
        return {"metrics": out, "functions": functions, "spans": n}

    def write(self, path):
        """All spans, as columns, gzip-compressed JSON."""
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "job": self.job.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "value": self.value.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)
