"""Seeded job streams for the four workloads, each job with its output check.

A workload is a fixed list of job templates, the *cycle*.  Cycle c of seed s
fills every template with fresh random content and fresh labels (coset names
and start offsets), so no two jobs share a support and the program cannot
reuse work across cycles.  Each template keeps its problem shape, so a cycle
costs about the same for every seed and every c; the worker runs whole cycles
only.

Every job carries ``argv`` for ``bzcalc.cli.main`` or, where no subcommand
exists, ``call`` (a JSON document for a library function), plus ``size`` (the
problem size, recorded beside the time) and ``check(stdout, code)``, which
returns None or the reason the output is wrong.  Expected answers come from
``oracle``, never from ``bzcalc``.
"""
from __future__ import annotations

import bisect
import json
import math
import random
from collections import Counter
from fractions import Fraction

import oracle as o


class Job:
    __slots__ = ("kind", "argv", "call", "size", "check")

    def __init__(self, kind, size, check, argv=None, call=None):
        self.kind, self.size, self.check = kind, size, check
        self.argv, self.call = argv, call


def _json_check(inner, want=0):
    """A check that wants exit code `want` and a JSON document on stdout,
    and then asks inner(document) for the reason it is wrong, if any."""

    def check(stdout, code):
        if code != want:
            return f"exit code {code}, expected {want}"
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        return inner(doc)

    return check


class Stream:
    """Labels that make every job of a run distinct."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)
        self.count = 0

    def label(self):
        self.count += 1
        return 1000 + 64 * self.count, f"s{self.seed}j{self.count}"


# --- closure-sweep ---------------------------------------------------------

# (mu, m): mu stacked copies of the points 0..m-1.  The cycle runs the top
# (all singletons) of every shape and one random multisegment of the larger
# ones.  mu*m stops at 12 so that a run holds well over 100 jobs.
SWEEP = [(1, m) for m in range(3, 12)] + [(2, m) for m in range(2, 7)] + [
    (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (6, 2)]
SWEEP_RANDOM = [sh for sh in SWEEP if sh[0] * sh[1] >= 6]
# A random multisegment is chosen, among RANDOM_DRAWS draws, by how close its
# closure comes to this share of all multisegments with its support, so its
# cost is about the same in every cycle and for every seed.
RANDOM_SHARE = 0.15
RANDOM_DRAWS = 12
SEG_FLAGS = ["--closure", "--children", "--order", "--statistic"]


class ClosureSweep(Stream):
    trace_cycles = 1

    def __init__(self, seed):
        super().__init__(seed)
        self.shapes = {sh: o.Shape(*sh) for sh in SWEEP}

    def cycle(self):
        jobs = []
        for sh in SWEEP:
            shape = self.shapes[sh]
            jobs.append(self.job(shape, shape.top, "top"))
            if sh in SWEEP_RANDOM:
                target = RANDOM_SHARE * len(shape.elements)
                draws = [self.rng.choice(shape.elements) for _ in range(RANDOM_DRAWS)]
                s = min(draws, key=lambda d: abs(len(shape.below(d)) - target))
                jobs.append(self.job(shape, s, "random"))
        return jobs

    def job(self, shape, s, how):
        shift, coset = self.label()
        nodes = shape.below(s)
        edges = {(t, c) for t in nodes for c in shape.children(t)}
        size = {"mu": shape.mu, "m": shape.m, "input": how,
                "segments": len(s), "nodes": len(nodes), "edges": len(edges)}

        def check(doc):
            back = lambda d: o.relabel(o.from_json(d, shift), "c0")
            if back(doc["multisegment"]) != s:
                return "multisegment echo differs from the input"
            if doc["statistic"] != shape.stat[s]:
                return "wrong statistic"
            order = [(e["start"], e["len"]) for e in doc["order"]]
            if sorted(order) != sorted((a + shift, b) for _, a, b in s) or any(
                x[0] < y[0] for x, y in zip(order, order[1:])
            ):
                return "order is not the segments by descending start"
            if {back(c) for c in doc["children"]} != shape.children(s):
                return "children differ from the oracle"
            got = [back(n) for n in doc["closure"]["nodes"]]
            if shape.mu == 1 and s == shape.top and len(got) != 2 ** (shape.m - 1):
                return f"{len(got)} nodes below {shape.m} singletons, expected 2^(m-1)"
            if len(got) != len(nodes) or set(got) != set(nodes):
                return f"closure has {len(got)} nodes, oracle {len(nodes)}"
            stats = [shape.stat[n] for n in got]
            if stats != sorted(stats):
                return "closure nodes are not sorted by statistic"
            seen = set()
            for e in doc["closure"]["edges"]:
                a, b = e["lengths"]
                c = e["overlap"]
                if not 0 <= c < min(a, b):
                    return f"edge overlap {c} outside [0, min({a}, {b}))"
                delta = e["statistic_delta"]
                parent, child = got[e["parent"]], got[e["child"]]
                if not delta == (a - c) * (b - c) > 0:
                    return f"statistic_delta {delta} is not (a-c)(b-c) > 0"
                if shape.stat[child] - shape.stat[parent] != delta:
                    return "statistic_delta differs from the statistic change"
                seen.add((parent, child))
            if seen != edges or len(doc["closure"]["edges"]) != len(edges):
                return f"closure has {len(doc['closure']['edges'])} edges, oracle {len(edges)}"
            return None

        argv = ["seg", o.dumps(o.to_json(s, shift, coset))] + SEG_FLAGS
        return Job("closure", size, _json_check(check), argv=argv)


# --- order-queries ---------------------------------------------------------

# Queries stay inside pools of one support, so a rank criterion or a cache
# that outlives one call has work to save.  Four queries in nine, and both
# triangle_check jobs, ask about the pool's top.  Pairs are drawn so that a statistic-pruned search from the
# upper element may visit a share EXPLORE of the pool: enough that leq does
# the work, and steady enough that cycles cost the same.
POOLS = [(1, 10), (2, 6), (1, 11)]
EXPLORE = (0.15, 0.2)
TRIANGLE = [(1, 7), (1, 8)]
Q_VALUES = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def _prime_power(q):
    for p in range(2, q + 1):
        if q % p == 0:
            f = 0
            while q % p == 0:
                q //= p
                f += 1
            return p, f


class OrderQueries(Stream):
    trace_cycles = 2

    def __init__(self, seed):
        super().__init__(seed)
        self.shapes = {sh: o.Shape(*sh) for sh in POOLS + TRIANGLE}
        self.stats_below = {}

    def explored(self, shape, a, b):
        """How many nodes below b a search pruned at statistic(a) may visit."""
        key = (shape.mu, shape.m, b)
        if key not in self.stats_below:
            self.stats_below[key] = sorted(shape.stat[t] for t in shape.below(b))
        return bisect.bisect_left(self.stats_below[key], shape.stat[a])

    def pair(self, shape, answer, top):
        """(a, b) with leq(a, b) == answer and the search size in band."""
        lo, hi = (x * len(shape.elements) for x in EXPLORE)
        best = None
        for _ in range(200):
            b = shape.top if top else self.rng.choice(shape.elements)
            nodes = shape.below(b)
            if answer:
                a = self.rng.choice(nodes)
            else:
                a = self.rng.choice(shape.elements)
                if shape.stat[a] <= shape.stat[b] or shape.leq(a, b):
                    continue
            if a == b:
                continue
            e = self.explored(shape, a, b)
            gap = 0 if lo <= e <= hi else min(abs(e - lo), abs(e - hi))
            if best is None or gap < best[0]:
                best = (gap, a, b, e)
            if gap == 0:
                break
        return best[1:]

    def cycle(self):
        jobs = []
        for sh in POOLS:
            shape = self.shapes[sh]
            shift, coset = self.label()
            kinds = [(True, True)] * 4 + [(True, False)] * 2 + [(False, False)] * 3
            for answer, top in kinds:
                a, b, e = self.pair(shape, answer, top)
                jobs.append(self.leq_job(shape, a, b, answer, top, e, shift, coset))
        for sh in TRIANGLE:
            jobs.append(self.triangle_job(self.shapes[sh]))
        return jobs

    def leq_job(self, shape, a, b, answer, top, explored, shift, coset):
        size = {"mu": shape.mu, "m": shape.m, "answer": answer, "top": top,
                "explored_bound": explored, "pool": len(shape.elements)}

        def check(doc):
            if doc.get("leq") is not answer:
                return f"leq is {doc.get('leq')}, rank oracle says {answer}"
            return None

        argv = ["seg", o.dumps(o.to_json(a, shift, coset)),
                "--leq", o.dumps(o.to_json(b, shift, coset))]
        return Job("leq", size, _json_check(check), argv=argv)

    def triangle_job(self, shape):
        """dimensions.triangle_check over the whole closure of the pool's top,
        in the form of acceptance criterion 5: every smaller element is kept
        with chance 0.8."""
        shift, coset = self.label()
        rng = self.rng
        s = shape.top
        p, f = _prime_power(rng.choice(Q_VALUES))
        unit = rng.randrange(1, 10**6)
        while unit % p == 0:
            unit += 1
        mults = [
            [o.to_json(t, shift, coset), rng.randrange(1, 1000)]
            for t in shape.below(s)
            if t != s and rng.random() < 0.8
        ]
        doc = {"s": o.to_json(s, shift, coset), "q": {"p": p, "f": f},
               "unit": unit, "mults": mults}
        size = {"mu": shape.mu, "m": shape.m, "keys": len(mults),
                "closure": len(shape.below(s))}

        def check(stdout, code):
            # q^stat(s) is the unique term of least valuation, so the strict
            # triangle inequality always holds.
            if code != 0 or stdout != '{"triangle": true}':
                return f"triangle_check returned {stdout!r}, expected true"
            return None

        return Job("triangle", size, check, call=o.dumps(doc))


# --- exact-arith -----------------------------------------------------------

# wd is dense Fraction arithmetic whose cost depends on n alone; the sizes
# put wd jobs at and above the 90th percentile.  A cycle holds 25 jobs, so
# over whole cycles the 90th percentile falls inside the samples of one
# template (the third slowest) rather than between two.  identity-check and dims are
# big-int q-arithmetic.  dims keeps every integer under 3400 digits: the
# program cannot print an int over 4300 digits (Python's str limit).
WD_SIZES = list(range(8, 17))
IDENTITY = [7, 9, 11, 12]
# One q from each tier, so an identity-check job costs about the same in
# every cycle.
IDENTITY_Q = ((2, 3, 4, 5), (7, 8, 9, 11, 13, 16), (25, 27, 32, 49))
DIMS_PRIMES = (2, 3, 5, 7, 11, 13, 101, 1009, 10007)


def _dims_shapes():
    """(n, p, f) for 11 dims jobs: n from 20 to 34, and the largest q = p^f
    that keeps q^(n(n-1)/2) under 3400 or 1700 digits."""
    shapes = []
    for k in range(11):
        n = 20 + 2 * (k % 8)
        limit = 3400 if k < 8 else 1700
        q = max(
            (f * math.log10(p), p, f)
            for p in DIMS_PRIMES for f in (1, 2, 3)
            if n * (n - 1) // 2 * f * math.log10(p) <= limit
        )
        shapes.append((n, q[1], q[2]))
    return shapes


DIMS_SHAPES = _dims_shapes()
RAM_A = ("A", 2, "ramA")


def q_factorial(n, q):
    out = 1
    for k in range(1, n + 1):
        out *= (q**k - 1) // (q - 1)
    return out


class ExactArith(Stream):
    trace_cycles = 1

    def cycle(self):
        jobs = [self.wd_job(n) for n in WD_SIZES]
        jobs += [self.identity_job(n) for n in IDENTITY]
        jobs += [self.dims_job(k) for k in range(len(DIMS_SHAPES))]
        jobs.append(Job("selftest", {}, self.check_selftest, argv=["selftest"]))
        return jobs

    def wd_job(self, n):
        rng = self.rng
        shift, coset = self.label()
        # One long Jordan block, so exp(N) keeps many series terms, and short
        # blocks, some on a block-size-2 line, for the rest.
        segs, left, k = [], n, 0
        while left:
            line = RAM_A if k and left >= 2 and rng.random() < 0.3 else o.UNR
            longest = left if k == 0 else min(5, left // line[1])
            length = rng.randint(n // 2 if k == 0 else 1, longest)
            segs.append((o.group(f"{coset}.{k}", line), shift + 10 * k, length))
            left -= line[1] * length
            k += 1
        ms = o.canon(segs)
        blocks = sorted((l for g, _, l in ms for _ in range(g[1])), reverse=True)
        inertia = sorted((g[2], g[1] * l) for g, _, l in ms)
        size = {"n": n, "partition": blocks}

        def check(doc):
            if doc["match"] is not True:
                return "wd match is not true"
            closed = sum(b * (b - 1) // 2 for b in blocks)
            if doc["nonzero_count"] != closed or doc["closed_form"] != closed:
                return "nonzero count differs from sum of l(l-1)/2"
            if doc["shadow"]["blocks"] != blocks or sorted(
                (e["label"], e["dim"]) for e in doc["shadow"]["inertia"]
            ) != inertia:
                return "wrong shadow"
            want = [["0"] * n for _ in range(n)]
            offset = 0
            for b in blocks:
                for i in range(b):
                    for j in range(i, b):
                        want[offset + i][offset + j] = str(
                            Fraction(1, math.factorial(j - i)))
                offset += b
            if doc["exp"] != want:
                return "exp(N) differs from sum N^k/k!"
            return None

        return Job("wd", size, _json_check(check), argv=["wd", o.dumps(o.to_json(ms))])

    def identity_job(self, n_max):
        qs = [self.rng.choice(tier) for tier in IDENTITY_Q]
        size = {"n": n_max, "qs": len(qs),
                "bits": (max(qs) ** (n_max * (n_max - 1) // 2)).bit_length()}

        def check(doc):
            if doc["all_pass"] is not True:
                return "identity-check all_pass is not true"
            want = [(n, q, str(q ** (n * (n - 1) // 2)))
                    for n in range(1, n_max + 1) for q in qs]
            got = [(r["n"], r["q"], r["alternating_sum"]) for r in doc["rows"]]
            if got != want or any(
                r["steinberg_dim"] != r["alternating_sum"] or r["pass"] is not True
                for r in doc["rows"]
            ):
                return "identity rows differ from q^(n(n-1)/2)"
            return None

        argv = ["identity-check", "--n-max", str(n_max),
                "--q", ",".join(map(str, qs))]
        return Job("identity", size, _json_check(check), argv=argv)

    def dims_job(self, k):
        rng = self.rng
        shift, coset = self.label()
        n, p, f = DIMS_SHAPES[k]
        lengths = [3] * (n // 3)
        for _ in range(n - sum(lengths)):
            lengths[rng.randrange(len(lengths))] += 1
        while len(lengths) > 4:
            a = lengths.pop(rng.randrange(len(lengths)))
            lengths[rng.randrange(len(lengths))] += a
        ms = o.canon(
            (o.group(coset if i % 2 else coset + "b"), shift + rng.randrange(8), l)
            for i, l in enumerate(lengths)
        )
        q = p**f
        flag = q_factorial(n, q)
        for l in lengths:
            flag //= q_factorial(l, q)
        stat = o.statistic(ms)
        dim = flag * q**stat
        size = {"n": n, "segments": len(lengths), "q": q,
                "bits": dim.bit_length()}

        def check(doc):
            if doc["q"] != {"p": p, "f": f}:
                return "wrong q"
            if doc["flag_count"] != str(flag):
                return "flag count differs from the q-multinomial"
            if doc["k1_dim"] != str(dim):
                return "k1_dim differs from flag count times q^statistic"
            if doc["valuation_statistic"] != stat:
                return "valuation differs from the statistic"
            return None

        doc = {"multisegment": o.to_json(ms), "q": {"p": p, "f": f}}
        return Job("dims", size, _json_check(check), argv=["dims", o.dumps(doc)])

    @staticmethod
    def check_selftest(stdout, code):
        lines = stdout.splitlines()
        if code != 0 or len(lines) != 4 or not all(l.startswith("PASS ") for l in lines):
            return f"selftest exit {code}: {stdout!r}"
        return None


# --- family-pipeline -------------------------------------------------------

# A scenario is a disjoint union of clopen components.  The base point's
# component and the "twist" components hold per-segment twists of the base
# multisegments and make up the locus; "split" components break one slot's
# segments into singletons (type trace 1, smaller valuation: cut in step 2);
# "far" components move one segment to another inertial class (type trace 0:
# cut in step 1).  Bases keep at most 4 segments of length at most 2, and
# fields, component shares and base shapes are fixed per template: the
# twist-witness search is exponential, and one more segment of length 4 can
# make a single pipeline 300 times slower.
FAMILY_LINES = (o.UNR, RAM_A, ("B", 3, "ramB"))
FAR_LINE = ("F", 1, "far")
# (points, field slots, segments per base, tampered)
FAMILY = [
    (20, 2, 3, False), (24, 3, 3, False), (28, 2, 4, False), (32, 3, 3, True),
    (36, 2, 3, False), (40, 3, 3, False), (22, 2, 4, True), (30, 2, 3, False),
]
FAMILY_SEEDS = 2
# Segment k of every base has this length; its line rotates with the slot.
FAMILY_LENGTHS = (2, 2, 2, 1)


def _weighted(ms):
    return sum(g[1] * l * (l - 1) // 2 for g, _, l in ms)


def _orbit(ms):
    return sorted(
        [lab, ln, m] for (lab, ln), m in Counter((g[2], l) for g, _, l in ms).items()
    )


def _split(ms):
    return o.canon((g, s + k, 1) for g, s, l in ms for k in range(l))


def _shifted(ms, d):
    return o.canon((g, s + d, l) for g, s, l in ms)


class FamilyPipeline(Stream):
    trace_cycles = 4

    def cycle(self):
        return [self.family_job(*t) for t in FAMILY]

    def family_job(self, n_points, n_fields, n_segs, tampered):
        rng = self.rng
        shift, coset = self.label()
        fields = [(rng.choice((3, 5)), 1) for _ in range(n_fields)]
        bases = []
        for i in range(n_fields):
            # Segments 0 and 1 share a line and a coset, so they may link
            # and the witness's leq has a search to make.
            bases.append(o.canon(
                (o.group(f"{coset}.{max(k, 1)}", FAMILY_LINES[(i + max(k, 1)) % 3]),
                 shift + rng.randrange(5), FAMILY_LENGTHS[k])
                for k in range(n_segs)
            ))

        # Components of fixed shares, so the locus and the cut points are the
        # same size in every cycle.  The near and split components carry an
        # inner closed subset whose first point is left out of sigma; sigma
        # stays dense through the other points.
        roles = ["near", "twist", "split", "far"]
        sizes = [round(share * n_points) for share in (0.3, 0.2, 0.25)]
        sizes.append(n_points - sum(sizes))
        names = [f"p{k}" for k in range(n_points)]
        bounds = [sum(sizes[:k]) for k in range(5)]
        comps = [names[a:b] for a, b in zip(bounds, bounds[1:])]
        inner = {idx: comps[idx][: len(comps[idx]) // 3] for idx in (0, 2)}
        options = []
        for idx, c in enumerate(comps):
            options.append([[], c] + ([inner[idx]] if idx in inner else []))
        closed = [[]]
        for opts in options:
            closed = [a + b for a in closed for b in opts]
        closed = sorted({tuple(sorted(c)) for c in closed}, key=lambda c: (len(c), c))
        sigma = [x for idx, c in enumerate(comps) for x in c
                 if not (idx in inner and x == inner[idx][0])]

        assignment = {}
        for role, comp in zip(roles, comps):
            slot = rng.randrange(n_fields)
            for x in comp:
                if x not in sigma:
                    continue
                d = rng.randint(-4, 4)
                per = [_shifted(b, d) for b in bases]
                if role == "split":
                    per[slot] = _split(per[slot])
                elif role == "far":
                    g, s, l = per[slot][-1]
                    per[slot] = o.canon(per[slot][:-1] + ((o.group(g[3], FAR_LINE), s, g[1] * l),))
                assignment[x] = per
        x0 = comps[0][-1]
        declared = {}
        bad_point = None
        if tampered:
            bad_point = next(x for x in comps[0] if x in sigma and x != x0)
            assignment[bad_point][0] = _split(assignment[bad_point][0])
            declared = {"type_traces": {"0": {bad_point: 1}},
                        "ratio_valuations": {"0": {bad_point: _weighted(bases[0])}}}
        locus = sorted(x for role, c in zip(roles, comps) if role in ("near", "twist") for x in c)

        lines = sorted({g[:3] for per in assignment.values() for ms in per for g, _, _ in ms})
        doc = {
            "fields": [{"p": p, "f": f} for p, f in fields],
            "points": names,
            "closed_sets": [list(c) for c in closed],
            "sigma": sigma,
            "lines": [{"line_id": l, "block_size": b, "inertial_label": lab} for l, b, lab in lines],
            "assignment": {x: [{"segments": o.to_json(ms)["segments"]} for ms in per]
                           for x, per in assignment.items()},
            "unit_seeds": {"k1": rng.randrange(10**6), "iwahori": rng.randrange(10**6)},
        }
        if declared:
            doc["declared"] = declared
        size = {"points": n_points, "closed_sets": len(closed), "fields": n_fields,
                "segments": n_segs, "sigma": len(sigma), "components": len(comps),
                "seeds": FAMILY_SEEDS, "tampered": tampered}

        def check(rep):
            if rep["x0"] != x0 or rep["X0"] != locus:
                return f"locus {rep['X0']}, expected {locus}"
            if rep["orbits"] != [
                [{"inertial_label": a, "length": b, "multiplicity": c} for a, b, c in _orbit(ms)]
                for ms in bases
            ]:
                return "wrong twist orbits"
            points = [x for x in locus if x in sigma]
            if [v["point"] for v in rep["verdicts"]] != points:
                return "verdicts do not cover the locus"
            for v in rep["verdicts"]:
                if v["point"] == bad_point:
                    if v["status"] != "violation" or not v.get("certificates"):
                        return f"tampered point {bad_point} has no certificate"
                    continue
                if v["status"] != "certified":
                    return f"point {v['point']} is not certified"
                for i, entry in enumerate(v["fields"]):
                    want = _weighted(bases[i])
                    if entry["type_trace"] != 1 or entry["ratio_valuation"] != want \
                            or entry["base_ratio_valuation"] != want:
                        return f"point {v['point']} field {i}: wrong traces"
                    w = o.from_json(entry["twist_witness"])
                    s = assignment[v["point"]][i]
                    if _orbit(w) != _orbit(bases[i]) or not o.leq(w, s):
                        return f"point {v['point']} field {i}: bad twist witness"
            return None

        argv = ["family", o.dumps(doc), x0, "--seeds", str(FAMILY_SEEDS)]
        return Job("family", size, _json_check(check, 2 if tampered else 0), argv=argv)


WORKLOADS = {
    "closure-sweep": ClosureSweep,
    "order-queries": OrderQueries,
    "exact-arith": ExactArith,
    "family-pipeline": FamilyPipeline,
}
