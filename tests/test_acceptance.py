"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success; budgets are wall-clock.
"""
import random
import time

from bzcalc.dimensions import (
    PrimePower,
    compositions,
    elementary_statistic_delta,
    gaussian_flag_count,
    parabolic_alternating_sum,
    standard_module_k1_dim,
    steinberg_k1_dim,
    triangle_check,
    valuation_statistic,
)
from bzcalc.family import (
    FamilyScenario,
    FiniteSite,
    ratio_valuation,
    run_pipeline,
)
from bzcalc.segments import (
    CuspidalLine,
    Multisegment,
    Segment,
    closure_edges,
    downward_closure,
    statistic,
)
from bzcalc.weildeligne import (
    JordanPartition,
    nonzero_count_exp,
    partition_statistic,
)

from conftest import interval_decompositions, multisegments_with_support

Q_VALUES = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
Q_LIST = [PrimePower.from_q(q) for q in Q_VALUES]


def _report(name, elapsed, budget):
    print(f"PASS {name} ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget


def test_criterion_1_steinberg_identity():
    start = time.perf_counter()
    for n in range(1, 9):
        for q in Q_LIST:
            assert parabolic_alternating_sum(n, q) == steinberg_k1_dim(n, q)
    _report("1 steinberg identity n<=8, ten q values", time.perf_counter() - start, 5)


def test_criterion_2_valuation_theorem():
    start = time.perf_counter()
    for n in range(1, 9):
        for s in interval_decompositions(n):
            target = statistic(s)
            for q in Q_LIST:
                dim = standard_module_k1_dim(s, q)
                assert valuation_statistic(dim, q) == target
    _report("2 valuation theorem, all sizes <= 8", time.perf_counter() - start, 30)


def test_criterion_3_flag_counts_coprime_to_p():
    start = time.perf_counter()
    for n in range(1, 9):
        for c in compositions(n):
            for q in Q_LIST:
                assert gaussian_flag_count(c, q) % q.p == 1
    _report("3 flag counts congruent 1 mod p", time.perf_counter() - start, 30)


def test_criterion_4_monotonicity_law():
    start = time.perf_counter()
    shapes = [(m, mu) for m in range(1, 8) for mu in range(1, 8) if m * mu <= 7]
    edges_checked = 0
    for m, mu in shapes:
        for s in multisegments_with_support(m, mu):
            for (parent, child), (a, b, c) in closure_edges(s).items():
                delta = elementary_statistic_delta(a, b, c)
                assert delta == (a - c) * (b - c) > 0
                assert statistic(child) - statistic(parent) == delta
                edges_checked += 1
    assert edges_checked > 0
    _report(
        f"4 monotonicity law on {edges_checked} closure edges",
        time.perf_counter() - start,
        60,
    )


def test_criterion_5_strict_triangle_robustness():
    start = time.perf_counter()
    rng = random.Random(20240817)
    for size in range(1, 7):
        pool = sorted(
            interval_decompositions(size),
            key=lambda s: tuple(g.start for g in s.segments),
        )
        closures = {s: sorted(
            (t for t in downward_closure(s) if t != s),
            key=statistic,
        ) for s in pool}
        for _ in range(1000):
            s = rng.choice(pool)
            smaller = closures[s]
            q = PrimePower.from_q(rng.choice(Q_VALUES))
            mults = {
                t: rng.randrange(1, 1000)
                for t in smaller
                if rng.random() < 0.8
            }
            unit = rng.randrange(1, 10**6)
            while unit % q.p == 0:
                unit += 1
            assert triangle_check(s, q, mults, unit)
    _report("5 strict triangle, 1000 draws per size <= 6", time.perf_counter() - start, 60)


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for head in range(min(n, largest), 0, -1):
        for rest in _partitions(n - head, head):
            yield (head,) + rest


def test_criterion_6_exp_count():
    start = time.perf_counter()
    for n in range(1, 11):
        for blocks in _partitions(n):
            p = JordanPartition(blocks)
            # nonzero_count_exp counts entries of the exact series matrix and
            # checks N^n = 0 internally
            assert nonzero_count_exp(p) == partition_statistic(p)
    _report("6 exp(N) nonzero count, partitions of n <= 10", time.perf_counter() - start, 5)


def _random_multisegment(rng, lines):
    segs = []
    for _ in range(rng.randrange(1, 3)):
        line = rng.choice(lines)
        segs.append(
            Segment(line, f"c{rng.randrange(3)}", rng.randrange(-3, 4), rng.randrange(1, 5))
        )
    return Multisegment(segs)


def test_criterion_7_ratio_valuation():
    start = time.perf_counter()
    rng = random.Random(77)
    lines = [
        CuspidalLine("unr", 1, "unr"),
        CuspidalLine("A", 2, "ramA"),
        CuspidalLine("B", 3, "ramB"),
    ]
    for case in range(200):
        n_fields = rng.choice([1, 2])
        fields = tuple(
            PrimePower(rng.choice([2, 3, 5]), rng.choice([1, 2])) for _ in range(n_fields)
        )
        assignment = tuple(_random_multisegment(rng, lines) for _ in range(n_fields))
        sc = FamilyScenario(
            fields=fields,
            site=FiniteSite.of(["a"], [[], ["a"]]),
            sigma=frozenset({"a"}),
            assignment={"a": assignment},
            unit_seeds={"k1": rng.randrange(10**6), "iwahori": rng.randrange(10**6)},
        )
        for j in range(n_fields):
            expected = sum(
                seg.line.block_size * seg.length * (seg.length - 1) // 2
                for seg in assignment[j]
            )
            values = {
                ratio_valuation(sc.with_seeds(1 + 13 * k, 2 + 17 * k), "a", j)
                for k in range(10)
            }
            assert values == {expected}, f"case {case}, slot {j}"
    _report("7 ratio valuation on 200 scenarios x 10 seeds", time.perf_counter() - start, 60)


def _twist_constant_scenario(rng, adversarial=False):
    n_fields = rng.choice([2, 3])
    n_points = rng.randrange(3, 7)
    points = [f"p{k}" for k in range(n_points)]
    split = rng.randrange(1, n_points)
    if adversarial:
        split = max(split, 2)
    near, far = points[:split], points[split:]
    site = FiniteSite.of(points, [[], near, far, points])
    x0 = near[0]
    unr = CuspidalLine("unr", 1, "unr")
    bases = []
    for _ in range(n_fields):
        length = rng.randrange(2, 4)
        segs = [Segment(unr, "c0", 0, length)]
        if rng.random() < 0.5:
            segs.append(Segment(unr, "c1", 0, 1))
        bases.append(Multisegment(segs))
    assignment = {}
    for x in points:
        per_field = []
        for s in bases:
            if x in near:
                shift = rng.randrange(-4, 5)
                per_field.append(
                    Multisegment(
                        Segment(g.line, g.coset, g.start + shift, g.length) for g in s
                    )
                )
            else:
                # same ambient size, different twist orbit: split long segments
                split_segs = []
                for g in s:
                    if g.length > 1:
                        split_segs.extend(
                            Segment(g.line, g.coset, g.start + k, 1)
                            for k in range(g.length)
                        )
                    else:
                        split_segs.append(g)
                per_field.append(Multisegment(split_segs))
        assignment[x] = tuple(per_field)
    sc = FamilyScenario(
        fields=tuple(
            PrimePower(rng.choice([2, 3, 5]), 1) for _ in range(n_fields)
        ),
        site=site,
        sigma=frozenset(points),
        assignment=assignment,
        unit_seeds={"k1": rng.randrange(10**6), "iwahori": rng.randrange(10**6)},
    )
    if not adversarial:
        return sc, x0, near
    # tamper: a near point gets a split (strictly comparable, bigger-statistic
    # orbit) assignment but declares the base point's valuation
    y = near[1]
    tampered = dict(assignment)
    per_field = list(tampered[y])
    per_field[0] = assignment[far[0]][0] if far else per_field[0]
    split_segs = []
    for g in bases[0]:
        if g.length > 1:
            split_segs.extend(
                Segment(g.line, g.coset, g.start + k, 1) for k in range(g.length)
            )
        else:
            split_segs.append(g)
    per_field[0] = Multisegment(split_segs)
    tampered[y] = tuple(per_field)
    base_valuation = sum(
        seg.line.block_size * seg.length * (seg.length - 1) // 2 for seg in bases[0]
    )
    sc = FamilyScenario(
        fields=sc.fields,
        site=site,
        sigma=sc.sigma,
        assignment=tampered,
        unit_seeds=sc.unit_seeds,
        declared_type_traces={0: {y: 1}},
        declared_ratio_valuations={0: {y: base_valuation}},
    )
    return sc, x0, near


def test_criterion_8_rigidity_pipeline():
    start = time.perf_counter()
    rng = random.Random(424242)
    for case in range(50):
        sc, x0, near = _twist_constant_scenario(rng)
        report = run_pipeline(sc, x0)
        assert x0 in report.locus, f"case {case}"
        assert set(report.locus) == set(near), f"case {case}"
        assert not report.has_violations, f"case {case}"
        statuses = {v["point"]: v["status"] for v in report.verdicts}
        assert set(statuses) == set(near)
        assert all(s == "certified" for s in statuses.values())
        # determinism: a rerun yields the identical report
        assert run_pipeline(sc, x0).to_json() == report.to_json()
    for case in range(10):
        sc, x0, _ = _twist_constant_scenario(rng, adversarial=True)
        report = run_pipeline(sc, x0)
        assert report.has_violations, f"adversarial case {case}"
        bad = [v for v in report.verdicts if v["status"] == "violation"]
        assert all("certificates" in v for v in bad)
    _report(
        "8 rigidity pipeline, 50 honest + 10 adversarial scenarios",
        time.perf_counter() - start,
        60,
    )
