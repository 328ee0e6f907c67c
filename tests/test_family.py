import hashlib
import json
import math
import random
import time
from collections import Counter
from dataclasses import replace

import pytest

from bzcalc import family
from bzcalc.cli import main
from bzcalc.dimensions import PrimePower, _decimal, vp
from bzcalc.exceptions import DomainError, ModelViolation
from bzcalc.family import (
    FamilyScenario,
    FiniteSite,
    SimulatedTrace,
    base_change_shadow,
    clopen_locus,
    closure,
    is_dense,
    iwahori_trace,
    k1_trace,
    ratio_valuation,
    run_pipeline,
    scenario_from_json,
    scenario_to_json,
    scenario_violations,
    subspace,
    twist_comparison_witness,
)
from bzcalc.segments import (
    CuspidalLine,
    Multisegment,
    Segment,
    elementary_edges,
    leq,
    multisegment_to_json,
    statistic,
    support,
    twist_orbit,
)
from bzcalc.weildeligne import monodromy_weight

from conftest import ms, multisegments_with_support, readme_scenario
from test_acceptance import _random_multisegment, _twist_constant_scenario


THREE_POINT_SITE = FiniteSite.of(
    ["a", "b", "c"], [[], ["c"], ["a", "b"], ["a", "b", "c"]]
)


def three_point_scenario():
    return scenario_from_json(
        {
            "fields": [{"p": 3, "f": 1}],
            "points": ["a", "b", "c"],
            "closed_sets": [[], ["c"], ["a", "b"], ["a", "b", "c"]],
            "sigma": ["a", "b", "c"],
            "lines": [{"line_id": "unr", "block_size": 1, "inertial_label": "unr"}],
            "assignment": {
                "a": [{"segments": [{"line": "unr", "coset": "c0", "start": 0, "len": 2}]}],
                "b": [{"segments": [{"line": "unr", "coset": "c0", "start": 5, "len": 2}]}],
                "c": [
                    {
                        "segments": [
                            {"line": "unr", "coset": "c0", "start": 0, "len": 1},
                            {"line": "unr", "coset": "c0", "start": 1, "len": 1},
                        ]
                    }
                ],
            },
            "unit_seeds": {"k1": 17, "iwahori": 5},
        }
    )


def _violations_oracle(site):
    """The closed-set axioms checked on frozensets, pair by pair: the check
    FiniteSite.violations made before it used point bitmasks."""
    problems = []
    if frozenset() not in site.closed_sets:
        problems.append("empty set is not closed")
    if site.points not in site.closed_sets:
        problems.append("whole space is not closed")
    sets = sorted(site.closed_sets, key=sorted)
    for c in sets:
        if not c <= site.points:
            problems.append(f"closed set {sorted(c)} is not a subset of the space")
    for a in sets:
        for b in sets:
            if a | b not in site.closed_sets:
                problems.append(f"union {sorted(a)} | {sorted(b)} is not closed")
            if a & b not in site.closed_sets:
                problems.append(f"intersection {sorted(a)} & {sorted(b)} is not closed")
    return tuple(problems)


class TestSite:
    def test_violations_match_the_frozenset_oracle(self):
        """Every family of closed sets over a 3-point space, alone and with
        a closed set that holds a point outside the space: same messages in
        the same order."""
        points = ["a", "b", "c"]
        subsets = [[x for k, x in enumerate(points) if mask >> k & 1] for mask in range(8)]
        seen = set()
        for family_mask in range(2 ** len(subsets)):
            closed = [c for k, c in enumerate(subsets) if family_mask >> k & 1]
            for extra in ([], [["d"]], [["a", "d"]], [["a", "d"], ["d", "e"]]):
                site = FiniteSite.of(points, closed + extra)
                expected = _violations_oracle(site)
                assert site.violations == expected
                seen.update(v.split()[0] for v in expected)
        assert seen == {"empty", "whole", "closed", "union", "intersection"}

    def test_valid_site(self):
        assert THREE_POINT_SITE.violations == ()

    def test_missing_whole_space(self):
        site = FiniteSite.of(["a", "b"], [[], ["a"]])
        assert any("whole space" in v for v in site.violations)

    def test_violations_are_a_new_list_per_call(self):
        # the site's check is cached as a tuple; scenario_violations appends
        # to a fresh list copied from it
        site = FiniteSite.of(["a", "b", "c"], [[], ["c"]])
        sc = replace(three_point_scenario(), site=site)
        assert isinstance(site.violations, tuple)
        first = scenario_violations(sc)
        assert first == list(site.violations) and "whole space is not closed" in first
        first.append("extra")
        second = scenario_violations(sc)
        assert second == first[:-1] and second is not first
        assert site.violations == tuple(second)

    def test_union_axiom_violation(self):
        site = FiniteSite.of(["a", "b", "c"], [[], ["a"], ["b"], ["a", "b", "c"]])
        assert any("union" in v for v in site.violations)

    def test_closure(self):
        assert closure(THREE_POINT_SITE, frozenset({"a"})) == frozenset({"a", "b"})

    def test_subspace_is_a_site(self):
        sub = subspace(THREE_POINT_SITE, frozenset({"a", "b"}))
        assert sub.violations == ()


class TestDensity:
    def test_whole_space_dense(self):
        assert is_dense(THREE_POINT_SITE, frozenset({"a", "b", "c"}))

    def test_closed_subset_not_dense(self):
        assert not is_dense(THREE_POINT_SITE, frozenset({"a", "b"}))

    def test_crossing_subset_dense(self):
        assert is_dense(THREE_POINT_SITE, frozenset({"a", "c"}))


class TestSimulatedTrace:
    def test_constant_trace_gives_whole_space(self):
        trace = SimulatedTrace.from_sigma(
            THREE_POINT_SITE, {"a": 1, "b": 1, "c": 1}, "t"
        )
        assert clopen_locus(trace, "a") == frozenset({"a", "b", "c"})

    def test_split_trace(self):
        trace = SimulatedTrace.from_sigma(
            THREE_POINT_SITE, {"a": 1, "b": 1, "c": 0}, "t"
        )
        assert clopen_locus(trace, "a") == frozenset({"a", "b"})

    def test_non_closed_fiber_is_a_violation(self):
        # classes {a} and {b, c} both have closure meeting {a, b}
        site = FiniteSite.of(["a", "b"], [[], ["a", "b"]])
        with pytest.raises(ModelViolation):
            SimulatedTrace.from_sigma(site, {"a": 0, "b": 1}, "t")

    def test_extension_fills_non_dense_points(self):
        trace = SimulatedTrace.from_sigma(THREE_POINT_SITE, {"a": 1, "c": 0}, "t")
        assert dict(trace.values)["b"] == 1

    def test_closures_that_miss_a_point_are_a_violation(self):
        # {a} is closed, so a's value class covers a alone
        site = FiniteSite.of(["a", "b"], [[], ["a"], ["a", "b"]])
        with pytest.raises(ModelViolation) as exc:
            SimulatedTrace.from_sigma(site, {"a": 1}, "t")
        assert exc.value.certificate == {
            "reason": "value-class closures do not cover the space",
            "trace": "t",
            "points": ["b"],
        }


class TestClopenLocus:
    # {a} is closed and {b} is not, so the fiber at a has an open complement
    # and the fiber at b is not closed
    SITE = FiniteSite.of(["a", "b"], [[], ["a"], ["a", "b"]])
    TRACE = SimulatedTrace(SITE, (("a", 0), ("b", 1)), "t")

    @pytest.mark.parametrize("x0, part, fiber", [
        ("a", "complement", ["a"]),
        ("b", "fiber", ["b"]),
    ])
    def test_non_clopen_fiber_is_a_violation(self, x0, part, fiber):
        with pytest.raises(ModelViolation, match="non-clopen fiber") as exc:
            clopen_locus(self.TRACE, x0)
        assert exc.value.certificate == {
            "reason": f"{part} of the fiber is not closed",
            "trace": "t",
            "fiber": fiber,
        }

    def test_unknown_point(self):
        with pytest.raises(DomainError, match="'z' is not in the trace's space"):
            clopen_locus(self.TRACE, "z")


class TestTypeTrace:
    """The type trace is 1 iff a twist comparison witness exists."""

    def test_reflexive(self):
        s = ms((0, 2), (3, 1))
        assert twist_comparison_witness(s, s) is not None

    def test_pure_twist(self):
        assert twist_comparison_witness(ms((0, 2)), ms((5, 2))) is not None

    def test_incomparable_direction(self):
        assert twist_comparison_witness(ms((0, 1), (1, 1)), ms((0, 2))) is None

    def test_strictly_dominated(self):
        assert twist_comparison_witness(ms((0, 2)), ms((0, 1), (1, 1))) is not None

    def test_different_inertial_support(self):
        other = Multisegment([Segment(CuspidalLine("A", 1, "ram"), "c0", 0, 2)])
        assert twist_comparison_witness(ms((0, 2)), other) is None

    def test_twist_invariance_both_arguments(self):
        s0, s = ms((0, 2), (4, 1)), ms((0, 1), (1, 1), (4, 1))
        base = twist_comparison_witness(s0, s) is not None
        assert (twist_comparison_witness(ms((7, 2), (2, 1)), s) is not None) == base
        twisted = ms((10, 1), (11, 1), (3, 1), coset="c9")
        assert (twist_comparison_witness(s0, twisted) is not None) == base

    def test_witness_support_and_order(self):
        s0, s = ms((0, 2)), ms((3, 1), (4, 1))
        witness = twist_comparison_witness(s0, s)
        assert witness is not None
        assert support(witness) == support(s)
        assert twist_orbit(witness) == twist_orbit(s0)


def _witness_by_every_order(s0, s):
    """twist_comparison_witness as it was before segments of one kind took
    their starts in order: every order of every segment is tried."""
    if family._inertial_point_bag(s0) != family._inertial_point_bag(s):
        return None
    remaining = support(s)
    segs0 = sorted(s0.segments, key=lambda g: -g.length)

    def place(idx, placed):
        if idx == len(segs0):
            candidate = Multisegment(placed)
            return candidate if leq(candidate, s) else None
        g = segs0[idx]
        for (line, coset, pos), mult in list(remaining.items()):
            if mult <= 0:
                continue
            if (
                line.inertial_label != g.line.inertial_label
                or line.block_size != g.line.block_size
            ):
                continue
            cells = [(line, coset, pos + k) for k in range(g.length)]
            if any(remaining[c] <= 0 for c in cells):
                continue
            for c in cells:
                remaining[c] -= 1
            placed.append(Segment(line, coset, pos, g.length))
            found = place(idx + 1, placed)
            placed.pop()
            for c in cells:
                remaining[c] += 1
            if found is not None:
                return found
        return None

    return place(0, [])


def _witness_by_placement(s0, s):
    """twist_comparison_witness as it was before the statistic returns and
    the rank bound: segments of one kind take their starts in order, every
    placement is tried, and each full one is tested with the BFS leq."""
    if family._inertial_point_bag(s0) != family._inertial_point_bag(s):
        return None
    remaining = support(s)
    starts = list(remaining)
    segs0 = sorted(s0.segments, key=lambda g: -g.length)
    floors = {}  # kind -> starts index of its last placed segment

    def place(idx, placed):
        if idx == len(segs0):
            candidate = Multisegment(placed)
            return candidate if leq(candidate, s) else None
        g = segs0[idx]
        kind = (g.length, g.line.inertial_label, g.line.block_size)
        floor = floors.get(kind, 0)
        for k in range(floor, len(starts)):
            line, coset, pos = starts[k]
            if (
                line.inertial_label != g.line.inertial_label
                or line.block_size != g.line.block_size
            ):
                continue
            cells = [(line, coset, pos + t) for t in range(g.length)]
            if any(remaining[c] <= 0 for c in cells):
                continue
            for c in cells:
                remaining[c] -= 1
            floors[kind] = k
            placed.append(Segment(line, coset, pos, g.length))
            found = place(idx + 1, placed)
            placed.pop()
            for c in cells:
                remaining[c] += 1
            if found is not None:
                return found
        floors[kind] = floor
        return None

    return place(0, [])


# Two block-1 lines of one inertial class, so a twist may change the line.
WITNESS_LINES = (
    CuspidalLine("unr", 1, "unr"),
    CuspidalLine("U", 1, "unr"),
    CuspidalLine("R", 2, "ram"),
)


def _witness_case(rng):
    """(s0, s): mostly s0 a twist of a multisegment below s, so that a
    witness exists, often with several segments of one kind."""
    s = Multisegment(
        Segment(rng.choice(WITNESS_LINES), f"c{rng.randrange(2)}", rng.randrange(4),
                rng.randrange(1, 3))
        for _ in range(rng.randrange(1, 7))
    )
    below = s
    for _ in range(rng.randrange(4)):
        children = sorted(elementary_edges(below), key=repr)
        if children:
            below = rng.choice(children)
    if rng.random() < 0.2:
        below = _random_multisegment(rng, WITNESS_LINES)
    twins = {}
    for line in WITNESS_LINES:
        twins.setdefault((line.inertial_label, line.block_size), []).append(line)
    s0 = Multisegment(
        Segment(rng.choice(twins[(g.line.inertial_label, g.line.block_size)]),
                f"c{rng.randrange(3)}", rng.randrange(-2, 5), g.length)
        for g in below
    )
    return s0, s


class TestTwistWitnessSymmetryBreak:
    """Segments of s0 of one (length, inertial label, block size) take their
    starts in order; the search still returns the witness a search over
    every order returns."""

    def test_same_witness_as_every_order(self):
        rng = random.Random(9)
        found = repeated = 0
        for _ in range(1000):
            s0, s = _witness_case(rng)
            witness = twist_comparison_witness(s0, s)
            assert witness == _witness_by_every_order(s0, s)
            assert witness == _witness_by_placement(s0, s)
            if witness is not None:
                found += 1
                kinds = Counter(
                    (g.length, g.line.inertial_label, g.line.block_size) for g in s0
                )
                repeated += max(kinds.values()) > 1
        assert found > 500 and repeated > 300

    def test_singletons_against_disjoint_pairs_through_the_cli(self, capsys):
        """2k singletons at x0 against k disjoint length-2 segments: no
        witness exists, and a search over every order tries all (2k)!
        orders of the singletons."""
        k = 5
        doc = {
            "fields": [{"p": 2, "f": 1}],
            "points": ["a", "b"],
            "closed_sets": [[], ["a"], ["b"], ["a", "b"]],
            "sigma": ["a", "b"],
            "assignment": {
                "a": [{"segments": [{"line": "unr", "start": i, "len": 1} for i in range(2 * k)]}],
                "b": [{"segments": [{"line": "unr", "start": 3 * i, "len": 2} for i in range(k)]}],
            },
            "unit_seeds": {"k1": 17, "iwahori": 5},
        }
        t0 = time.perf_counter()
        status = main(["family", json.dumps(doc), "a"])
        assert time.perf_counter() - t0 < 1.0
        report = json.loads(capsys.readouterr().out)
        assert status == 0
        assert report["X0"] == ["a"]
        types = {e["point"]: e["value"] for e in report["trace_log"] if e["stage"] == "type_trace"}
        assert types == {"a": 1, "b": 0}


def _unr(text):
    """A multisegment on line unr, coset c0, written start+length."""
    return ms(*(tuple(map(int, g.split("+"))) for g in text.split()))


def _stacked_pair(seed):
    """(s0, s): s, then s0, step at random down from mu x m stacked
    singletons."""
    rng = random.Random(seed)
    mu, m = rng.choice((2, 3)), rng.randint(5, 9)
    out = []
    for _ in range(2):
        x = ms(*[(i, 1) for i in range(m) for _ in range(mu)])
        for _ in range(rng.randint(1, 2 * m)):
            x = rng.choice(sorted(elementary_edges(x), key=repr))
        out.append(x)
    return out[1], out[0]


# seed -> (s0, s, witness) of _stacked_pair, the witness from one uncapped
# run of _witness_by_placement: seconds each, too slow to repeat in a test
STACKED_PAIRS = {
    0: (  # statistic 30 > 2
        "0+1 0+4 0+6 1+1 2+4 4+3 6+1 6+1 7+1 7+1 7+1",
        "0+1 0+1 0+2 1+1 1+1 2+1 2+1 2+1 3+1 3+1 3+1 4+1 4+1 4+2 5+1 5+1 6+1 6+1 "
        "6+1 7+1 7+1 7+1",
        "0+4 0+4 0+6 4+1 4+3 5+1 6+1 6+1 7+1 7+1 7+1",
    ),
    259: (  # statistic 10 > 6
        "0+1 0+1 1+2 1+2 3+1 3+2 4+3 5+1 6+3 7+2",
        "0+1 0+4 1+1 2+1 3+1 4+1 4+1 5+1 5+1 6+1 6+1 7+1 7+1 8+1 8+1",
        None,
    ),
    9: (  # equal statistics, 25
        "0+1 0+1 0+6 1+1 1+1 2+1 2+2 3+2 4+4 5+2 6+2 7+1 8+1 8+1 8+1",
        "0+1 0+1 0+1 1+1 1+2 1+3 2+6 3+1 4+1 4+1 5+1 5+3 6+3 8+1 8+1",
        None,
    ),
}


def _two_point_document(a, b):
    """Points a and b, each closed, both in sigma, one field: x0 = a."""
    return {
        "fields": [{"p": 3, "f": 1}],
        "points": ["a", "b"],
        "closed_sets": [[], ["a"], ["b"], ["a", "b"]],
        "sigma": ["a", "b"],
        "assignment": {x: [multisegment_to_json(m)] for x, m in (("a", a), ("b", b))},
        "unit_seeds": {"k1": 1, "iwahori": 2},
    }


class TestRankBoundedWitness:
    """The statistic returns and the rank-bounded search give the witness
    of the search they replace, which tries every placement and tests each
    full one with the BFS leq."""

    def test_every_pair_of_small_supports(self):
        pairs = 0
        for m in range(1, 8):
            for mu in range(1, 7 // m + 1):
                pool = sorted(multisegments_with_support(m, mu), key=repr)
                for s0 in pool:
                    for s in pool:
                        assert twist_comparison_witness(s0, s) == _witness_by_placement(s0, s)
                pairs += len(pool) ** 2
        assert pairs == 5592

    def test_every_pair_over_two_groups_of_one_class(self):
        """Supports {0..m-1} x mu on (unr, c0) and on (U, c1), of at most 4
        points in all, one of them possibly empty: both lines are of one
        inertial class, so a class's windows lie in two groups and a
        segment of s0 may go to either."""
        unr, u = WITNESS_LINES[:2]
        shapes = [(m, mu) for m in range(5) for mu in range(1, 5) if m * mu <= 4 and (m or mu == 1)]
        by_size: dict = {}
        for m1, mu1 in shapes:
            for m2, mu2 in shapes:
                if 0 < m1 * mu1 + m2 * mu2 <= 4:
                    by_size.setdefault(m1 * mu1 + m2 * mu2, []).extend(
                        Multisegment(a.segments + b.segments)
                        for a in sorted(multisegments_with_support(m1, mu1, unr, "c0"), key=repr)
                        for b in sorted(multisegments_with_support(m2, mu2, u, "c1"), key=repr))
        pairs = witnesses = 0
        for pool in by_size.values():
            for s0 in pool:
                for s in pool:
                    witness = twist_comparison_witness(s0, s)
                    assert witness == _witness_by_placement(s0, s)
                    pairs += 1
                    witnesses += witness is not None
        assert (pairs, witnesses) == (2158, 1015)

    @pytest.mark.parametrize("seed", sorted(STACKED_PAIRS))
    def test_stacked_pair(self, seed):
        s0, s, witness = (None if x is None else _unr(x) for x in STACKED_PAIRS[seed])
        assert _stacked_pair(seed) == (s0, s)
        t0 = time.perf_counter()
        assert twist_comparison_witness(s0, s) == witness
        assert time.perf_counter() - t0 < 0.1

    @pytest.mark.parametrize("seed", sorted(STACKED_PAIRS))
    def test_stacked_pair_through_the_cli(self, capsys, seed):
        s0, s, witness = STACKED_PAIRS[seed]
        doc = json.dumps(_two_point_document(_unr(s0), _unr(s)))
        t0 = time.perf_counter()
        status = main(["family", doc, "a"])
        assert time.perf_counter() - t0 < 0.1
        report = json.loads(capsys.readouterr().out)
        assert status == 0
        assert report["X0"] == ["a"]
        types = {e["point"]: e["value"] for e in report["trace_log"] if e["stage"] == "type_trace"}
        assert types == {"a": 1, "b": int(witness is not None)}

    def test_stacked_singletons_that_no_placement_tiles(self, capsys):
        """13 length-4 segments against 2 x 26 stacked singletons: 4 does not
        divide 26, so no placement tiles the support.  The lowest point
        with multiplicity left must start an unplaced segment, and the
        search sees it at once instead of trying every prefix."""
        a = ms(*[(4 * i, 4) for i in range(13)])
        b = ms(*[(i, 1) for i in range(26) for _ in range(2)])
        t0 = time.perf_counter()
        assert twist_comparison_witness(a, b) is None
        assert time.perf_counter() - t0 < 0.1
        doc = json.dumps(_two_point_document(a, b))
        t0 = time.perf_counter()
        status = main(["family", doc, "a"])
        assert time.perf_counter() - t0 < 1.0
        report = json.loads(capsys.readouterr().out)
        assert status == 0
        assert report["X0"] == ["a"]
        types = {e["point"]: e["value"] for e in report["trace_log"] if e["stage"] == "type_trace"}
        assert types == {"a": 1, "b": 0}

    def test_a_witness_deeper_than_the_recursion_limit(self, capsys):
        """1,200 singletons at b against [0, 2) and 1,198 singletons at a:
        the search places 1,199 segments, one level each."""
        n = 1200
        a = ms((0, 2), *[(i, 1) for i in range(2, n)])
        b = ms(*[(i, 1) for i in range(n)])
        t0 = time.perf_counter()
        status = main(["family", json.dumps(_two_point_document(a, b)), "a"])
        assert time.perf_counter() - t0 < 2.0
        out = capsys.readouterr().out.encode()
        assert status == 0
        assert json.loads(out)["X0"] == ["a"]
        assert len(out) == 182_474
        assert hashlib.sha256(out).hexdigest() == (
            "85f4f63c0a03af41b09b79b5b7d71006713a6d14f2f65a2e85f3691f8500c11f"
        )


class TestOpaqueTraces:
    def test_k1_trace_valuation_is_pinned(self):
        s = ms((0, 2))
        q = PrimePower(2, 1)
        for seed in (1, 2, 77):
            value = k1_trace(s, q, seed)
            assert vp(value, 2) == statistic(s)

    def test_k1_trace_unit_coprime_for_singletons(self):
        s = ms((0, 1), (1, 1))
        value = k1_trace(s, PrimePower(5, 1), 3)
        assert value % 5 != 0

    def test_k1_trace_deterministic(self):
        s = ms((0, 2))
        q = PrimePower(3, 1)
        assert k1_trace(s, q, 9) == k1_trace(s, q, 9)

    def test_k1_trace_rejects_ramified(self):
        bad = Multisegment([Segment(CuspidalLine("A", 2), "c0", 0, 1)])
        with pytest.raises(DomainError):
            k1_trace(bad, PrimePower(2, 1), 1)

    def test_iwahori_bounds(self):
        s = ms((0, 3))
        assert iwahori_trace(s, 1, 5) == 1
        for seed in range(10):
            assert 1 <= iwahori_trace(s, 3, seed) <= 6

    def test_iwahori_deterministic(self):
        s = ms((0, 2))
        assert iwahori_trace(s, 4, 11) == iwahori_trace(s, 4, 11)


class TestBaseChange:
    def test_block_one_unramified_passes_through(self):
        s = ms((0, 3))
        assert base_change_shadow(s) == s

    def test_block_two_splits(self):
        s = Multisegment([Segment(CuspidalLine("A", 2, "ram"), "c0", 0, 3)])
        out = base_change_shadow(s)
        assert len(out) == 2
        assert all(seg.length == 3 and seg.line.block_size == 1 for seg in out)
        cosets = {seg.coset for seg in out}
        assert len(cosets) == 2

    def test_statistic_weighting(self):
        s = Multisegment([Segment(CuspidalLine("A", 2, "ram"), "c0", 0, 3)])
        assert statistic(base_change_shadow(s)) == 6

    def test_shadow_statistic_is_the_monodromy_weight(self):
        """A block-m segment of length l becomes m segments of length l, so
        the shadow's statistic weighs each segment by its block size: the
        weighted statistic the pipeline's certificates report."""
        rng = random.Random(14)
        lines = [
            CuspidalLine("A", 1, "ramA"),
            CuspidalLine("B", 2, "ramB"),
            CuspidalLine("C", 3, "ramC"),
            CuspidalLine("D", 2, "ramB"),
        ]
        for _ in range(300):
            s = _random_multisegment(rng, lines)
            assert statistic(base_change_shadow(s)) == monodromy_weight(s)


class TestRatioValuation:
    def _single_point(self, multisegs, fields):
        return FamilyScenario(
            fields=tuple(fields),
            site=FiniteSite.of(["a"], [[], ["a"]]),
            sigma=frozenset({"a"}),
            assignment={"a": tuple(multisegs)},
            unit_seeds={"k1": 17, "iwahori": 5},
        )

    def test_length_two_block_one(self):
        sc = self._single_point([ms((0, 2))], [PrimePower(3, 1)])
        assert ratio_valuation(sc, "a", 0) == 1

    def test_length_two_block_two(self):
        s = Multisegment([Segment(CuspidalLine("A", 2, "ram"), "c0", 0, 2)])
        sc = self._single_point([s], [PrimePower(3, 1)])
        assert ratio_valuation(sc, "a", 0) == 2

    def test_all_singletons(self):
        sc = self._single_point([ms((0, 1), (1, 1))], [PrimePower(2, 1)])
        assert ratio_valuation(sc, "a", 0) == 0

    def test_seed_independent(self):
        s = Multisegment([Segment(CuspidalLine("A", 3, "ram"), "c0", 0, 4)])
        sc = self._single_point([s, ms((0, 2))], [PrimePower(5, 1), PrimePower(2, 1)])
        values = {
            ratio_valuation(sc.with_seeds(k, 100 - k), "a", 0) for k in range(10)
        }
        assert values == {3 * 6}

    def test_iwahori_factors_cancel_across_fields(self):
        sc = self._single_point(
            [ms((0, 2)), ms((0, 3))], [PrimePower(3, 1), PrimePower(7, 1)]
        )
        assert ratio_valuation(sc, "a", 0) == 1
        assert ratio_valuation(sc, "a", 1) == 3

    def test_slot_degree_is_lcm_over_points(self):
        def block(m):
            return Multisegment([Segment(CuspidalLine(f"L{m}", m), "c0", 0, 1)])

        sc = FamilyScenario(
            fields=(PrimePower(3, 1), PrimePower(2, 1)),
            site=FiniteSite.of(["a", "b"], [[], ["a"], ["b"], ["a", "b"]]),
            sigma=frozenset({"a", "b"}),
            assignment={"a": (block(2), ms((0, 1))), "b": (block(3), ms((0, 1)))},
            unit_seeds={"k1": 17, "iwahori": 5},
        )
        assert sc._trivializing_degrees == (6, 1)

    @pytest.mark.parametrize(
        "seeds, missing", [({"k1": 1}, "iwahori"), ({}, "k1")], ids=["no-iwahori", "none"]
    )
    def test_missing_unit_seed(self, seeds, missing):
        sc = replace(
            self._single_point([ms((0, 2)), ms((0, 3))], [PrimePower(3, 1), PrimePower(7, 1)]),
            unit_seeds=seeds,
        )
        with pytest.raises(DomainError, match=f"^missing unit seed '{missing}'$"):
            ratio_valuation(sc, "a", 0)

    def test_non_integral_valuation_is_a_violation(self, monkeypatch):
        # q = 3^2, so f' = 2; a factor p in the unit over q'' = 3^4 leaves
        # v_p(t''/t') = 1 + (4 - 2) * statistic(s) = 1 + 2 * 1 = 3, not a
        # multiple of f'
        sc = self._single_point([ms((0, 2))], [PrimePower(3, 2)])
        real_unit = family._k1_unit

        def unit(s, q, seed):
            u = real_unit(s, q, seed)
            return u * q.p if q.f == 4 else u

        monkeypatch.setattr(family, "_k1_unit", unit)
        log = []
        with pytest.raises(ModelViolation, match="not an integer multiple") as exc:
            ratio_valuation(sc, "a", 0, log)
        assert exc.value.certificate == {
            "reason": "non-integral ratio valuation",
            "point": "a",
            "field": 0,
            "v_p": 3,
            "f": 2,
        }
        assert log == []

    def test_bad_point_or_slot_raises_before_reading(self):
        # an assignment that cannot be read: any access to it raises TypeError
        sc = FamilyScenario(
            fields=(PrimePower(3, 1),),
            site=FiniteSite.of(["a"], [[], ["a"]]),
            sigma=frozenset({"a"}),
            assignment={"a": None},
            unit_seeds={"k1": 17, "iwahori": 5},
        )
        for x, j in (("z", 0), ("a", 1), ("a", -1)):
            with pytest.raises(DomainError):
                ratio_valuation(sc, x, j)


BLOCK_LINES = (
    CuspidalLine("unr", 1, "unr"),
    CuspidalLine("A", 2, "ramA"),
    CuspidalLine("B", 3, "ramB"),
)


def _generated_scenario(rng, n_fields):
    """Two to five points on an indiscrete site, one or two random segments
    per (point, slot); the first point's slot 0 holds a segment on the
    block-2 line and one on the block-3 line."""
    points = [f"p{k}" for k in range(rng.randrange(2, 6))]
    assignment = {
        x: [_random_multisegment(rng, BLOCK_LINES) for _ in range(n_fields)]
        for x in points
    }
    assignment[points[0]][0] = Multisegment(
        [Segment(BLOCK_LINES[m - 1], "c0", 0, rng.randrange(1, 4)) for m in (2, 3)]
    )
    return FamilyScenario(
        fields=tuple(
            PrimePower(rng.choice([2, 3, 5]), rng.choice([1, 2])) for _ in range(n_fields)
        ),
        site=FiniteSite.of(points, [[], points]),
        sigma=frozenset(points),
        assignment={x: tuple(per_field) for x, per_field in assignment.items()},
        unit_seeds={"k1": rng.randrange(10**6), "iwahori": rng.randrange(10**6)},
    )


def _pairs(sc):
    return [(x, j) for x in sorted(sc.sigma) for j in range(len(sc.fields))]


class TestRatioValuationClosedForm:
    """ratio_valuation(sc, x, j) == monodromy_weight(sc.assignment[x][j]): the
    k1 units are coprime to p and the Iwahori factors of the other slots
    cancel.  Guards the shadows and Iwahori factors a scenario keeps per
    multisegment."""

    def _check(self, sc):
        pairs = _pairs(sc)
        for x, j in pairs + pairs[::-1]:  # the second pass reuses the tables
            assert ratio_valuation(sc, x, j) == monodromy_weight(sc.assignment[x][j])

    def test_readme_scenario(self):
        sc = scenario_from_json(json.loads(readme_scenario()))
        self._check(sc)
        self._check(sc.with_seeds(1007, 2011))

    def test_generated_with_block_two_and_three_lines(self):
        rng = random.Random(6)
        for _ in range(30):
            sc = _generated_scenario(rng, rng.choice([1, 2, 3]))
            self._check(sc)
            self._check(sc.with_seeds(rng.randrange(10**6), rng.randrange(10**6)))

    def test_logged_traces_are_k1_trace_times_iwahori_product(self):
        """ratio_valuation builds t' and t'' from their factors; the public
        k1_trace of the slot's shadow, times the other slots' Iwahori
        factors, is the oracle of what it logs."""
        rng = random.Random(8)
        for _ in range(10):
            sc = _generated_scenario(rng, rng.choice([1, 2, 3]))
            seeds = sc.unit_seeds
            for x, j in _pairs(sc):
                log = []
                ratio_valuation(sc, x, j, log)
                (entry,) = log
                shadow = base_change_shadow(sc.assignment[x][j])
                iw_product = math.prod(
                    iwahori_trace(base_change_shadow(s), s.total_size, seeds["iwahori"])
                    for i, s in enumerate(sc.assignment[x]) if i != j
                )
                p, f_prime = entry["q_prime"]["p"], entry["q_prime"]["f"]
                for name, q in (("t_prime", PrimePower(p, f_prime)),
                                ("t_second", PrimePower(p, 2 * f_prime))):
                    assert entry[name] == _decimal(k1_trace(shadow, q, seeds["k1"]) * iw_product)

    def test_shadow_and_iwahori_factor_once_per_point_and_slot(self, monkeypatch):
        """At most once per (point, slot): once per distinct multisegment, so
        a point that repeats another's multisegments costs nothing more."""
        sc = _generated_scenario(random.Random(3), 3)
        # the last point repeats the first one's multisegments
        last = max(sc.sigma)
        sc = replace(sc, assignment={**sc.assignment, last: sc.assignment["p0"]})
        values = {s for per_field in sc.assignment.values() for s in per_field}
        pairs = _pairs(sc)
        assert len(values) < len(pairs)
        shadows, factors = [], []
        real_shadow, real_iwahori = family.base_change_shadow, family.iwahori_trace

        def counting_shadow(s):
            shadows.append(s)
            return real_shadow(s)

        def counting_iwahori(s, n, seed):
            factors.append((seed, s))
            return real_iwahori(s, n, seed)

        monkeypatch.setattr(family, "base_change_shadow", counting_shadow)
        monkeypatch.setattr(family, "iwahori_trace", counting_iwahori)
        logs = []
        for copy in (sc, sc, sc.with_seeds(5, 6)):
            logs.append([])
            for x, j in pairs:
                ratio_valuation(copy, x, j, logs[-1])
        # one shadow per multisegment, shared with the copy; one factor per
        # multisegment for sc, and again for the copy's seeds
        assert Counter(shadows) == Counter(values)
        assert Counter(factors) == Counter(
            (seed, shadow) for seed in (sc.unit_seeds["iwahori"], 6)
            for shadow in map(real_shadow, values)
        )
        assert logs[0] == logs[1] != logs[2]
        fresh = FamilyScenario(
            sc.fields, sc.site, sc.sigma, sc.assignment, {"k1": 5, "iwahori": 6}
        )
        log = []
        for x, j in pairs:
            ratio_valuation(fresh, x, j, log)
        assert log == logs[2]


class TestPayload:
    def test_equals_sorted_json(self):
        """_payload is hashed into every k1 and Iwahori trace value, so it
        stays the text of json.dumps(..., sort_keys=True)."""
        odd = CuspidalLine("L\u00e4\"", 2, "r\u00e4m\n")
        for s in (
            Multisegment([]),
            ms((0, 2), (1, 1)),
            Multisegment([Segment(odd, "c\u00e9", -1, 3), Segment(odd, "c0", 0, 1)]),
        ):
            for q in (None, PrimePower(3, 2)):
                doc = multisegment_to_json(s)
                if q is not None:
                    doc["q"] = {"p": q.p, "f": q.f}
                assert family._payload(s, q) == json.dumps(doc, sort_keys=True)


class TestGlOrderBound:
    """_gl_order stops once its partial product passes 2^256, the range of
    the digest that _derived_int reduces modulo it."""

    def test_capped_bound_gives_the_same_values(self):
        for n in range(1, 13):
            for q in (2, 3, 4, 5, 7, 9, 16, 25, 125, 15625):
                full = math.prod(q**n - q**k for k in range(n))
                capped = family._gl_order(n, q)
                assert capped == full or capped >= 2**256
                for seed in range(4):
                    payload = f"n={n}|q={q}"
                    assert family._derived_int(
                        seed, "k1", payload, capped
                    ) == family._derived_int(seed, "k1", payload, full)

    def test_block_six_family_runs_in_budget(self, capsys):
        """One point, five length-6 segments on a block-6 line over q = 5^6:
        the full |GL_180| over q' = 5^36 and q'' = 5^72 has about 0.8 and
        1.6 million digits."""
        doc = {
            "fields": [{"p": 5, "f": 6}],
            "points": ["a"],
            "closed_sets": [[], ["a"]],
            "sigma": ["a"],
            "lines": [{"line_id": "rho", "block_size": 6, "inertial_label": "rho"}],
            "assignment": {
                "a": [{"segments": [
                    {"line": "rho", "coset": "c0", "start": 0, "len": 6}
                ] * 5}]
            },
            "unit_seeds": {"k1": 17, "iwahori": 5},
        }
        start = time.perf_counter()
        status = main(["family", json.dumps(doc), "a"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert status == 0
        assert elapsed < 5
        # the report as printed before the early stop, when this took ~13 s
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ffe75d37b08adf68de974e2ec56c519bd0d04ab703589965184257e22c28cb6e"
        )


class TestPipeline:
    def test_three_point_example(self):
        report = run_pipeline(three_point_scenario(), "a")
        assert report.locus == ("a", "b")
        assert report.orbits == ((("unr", 2, 1),),)
        assert not report.has_violations
        assert {v["point"]: v["status"] for v in report.verdicts} == {
            "a": "certified",
            "b": "certified",
        }

    def test_single_point(self):
        sc = FamilyScenario(
            fields=(PrimePower(2, 1),),
            site=FiniteSite.of(["a"], [[], ["a"]]),
            sigma=frozenset({"a"}),
            assignment={"a": (ms((0, 2)),)},
            unit_seeds={"k1": 1, "iwahori": 1},
        )
        report = run_pipeline(sc, "a")
        assert report.locus == ("a",)
        assert report.orbits == ((("unr", 2, 1),),)

    def test_seed_independence(self):
        sc = three_point_scenario()
        base = run_pipeline(sc, "a").core()
        for k in range(5):
            assert run_pipeline(sc.with_seeds(k * 31 + 1, k * 17 + 2), "a").core() == base

    def test_adversarial_declaration_flagged(self):
        doc = scenario_to_json(three_point_scenario())
        # swap roles: base is the singleton pair, c declares itself comparable
        doc["assignment"]["a"] = [
            {
                "segments": [
                    {"line": "unr", "coset": "c0", "start": 0, "len": 1},
                    {"line": "unr", "coset": "c0", "start": 1, "len": 1},
                ]
            }
        ]
        doc["assignment"]["b"] = [
            {
                "segments": [
                    {"line": "unr", "coset": "c0", "start": 4, "len": 1},
                    {"line": "unr", "coset": "c0", "start": 5, "len": 1},
                ]
            }
        ]
        doc["assignment"]["c"] = [
            {"segments": [{"line": "unr", "coset": "c0", "start": 0, "len": 2}]}
        ]
        doc["declared"] = {
            "type_traces": {"0": {"c": 1}},
            "ratio_valuations": {"0": {"c": 0}},
        }
        report = run_pipeline(scenario_from_json(doc), "a")
        assert report.has_violations
        bad = [v for v in report.verdicts if v["status"] == "violation"]
        assert [v["point"] for v in bad] == ["c"]
        assert "certificates" in bad[0]

    def test_invalid_scenario_rejected(self):
        doc = scenario_to_json(three_point_scenario())
        doc["sigma"] = ["a", "b"]  # closed, hence not dense
        with pytest.raises(DomainError):
            run_pipeline(scenario_from_json(doc), "a")

    def test_x0_must_be_in_sigma(self):
        doc = scenario_to_json(three_point_scenario())
        doc["sigma"] = ["a", "c"]
        doc["assignment"].pop("b")
        sc = scenario_from_json(doc)
        with pytest.raises(DomainError):
            run_pipeline(sc, "b")


class TestPipelineMemo:
    """run_pipeline evaluates each twist witness once per (s0, s) and each
    ratio valuation once per (assignment[x], slot); the trace_log still
    lists every (point, slot) lookup."""

    @pytest.mark.parametrize("adversarial", [False, True], ids=["honest", "tampered"])
    def test_each_point_and_slot_evaluated_once(self, monkeypatch, adversarial):
        """Once per (s0, s), and once per (assignment[x], slot): _k1_unit runs
        twice (over q' and q'') per ratio valuation computed, for fewer keys
        than the (point, slot) lookups."""
        sc, x0, _ = _twist_constant_scenario(random.Random(0), adversarial=adversarial)
        k1_calls: Counter = Counter()
        witness_calls: Counter = Counter()
        looking_up = []  # the (assignment[x], slot) of the valuation running
        real_valuation, real_k1 = family.ratio_valuation, family._k1_unit
        real_witness = family.twist_comparison_witness

        def tracking_valuation(sc, x, j, log=None):
            looking_up.append((sc.assignment[x], j))
            try:
                return real_valuation(sc, x, j, log)
            finally:
                looking_up.pop()

        def counting_k1(s, q, seed):
            k1_calls[looking_up[-1]] += 1
            return real_k1(s, q, seed)

        def counting_witness(s0, s):
            witness_calls[(s0, s)] += 1
            return real_witness(s0, s)

        monkeypatch.setattr(family, "ratio_valuation", tracking_valuation)
        monkeypatch.setattr(family, "_k1_unit", counting_k1)
        monkeypatch.setattr(family, "twist_comparison_witness", counting_witness)
        report = family.run_pipeline(sc, x0)

        n_fields = len(sc.fields)
        witness_keys = {
            (sc.assignment[x0][i], sc.assignment[x][i])
            for x in sc.sigma for i in range(n_fields)
        }
        assert set(witness_calls) == witness_keys
        assert set(witness_calls.values()) == {1}
        assert len(witness_keys) < len(sc.sigma) * n_fields
        assert set(k1_calls.values()) == {2}

        logged = [e for e in report.trace_log if e["stage"] == "ratio_valuation"]
        looked_up = {(e["point"], e["field"]) for e in logged}
        assert {(x, j) for x in report.locus for j in range(n_fields)} <= looked_up
        assert {(sc.assignment[x], j) for x, j in looked_up} == set(k1_calls)
        assert len(k1_calls) < len(looked_up) < len(logged)
        monkeypatch.undo()
        fresh_sc = replace(sc, _derived={})
        for entry in logged:  # a repeated lookup logs what a fresh one would
            fresh = []
            real_valuation(fresh_sc, entry["point"], entry["field"], fresh)
            assert entry == fresh[0]

    def test_second_run_computes_nothing(self, monkeypatch):
        """A run from another base point with the same locus finds every
        valuation it looks up kept by the first run, and logs what a run on
        a fresh scenario logs."""
        sc = three_point_scenario()
        assert run_pipeline(sc, "a").locus == ("a", "b")
        k1_calls = []
        real_k1 = family._k1_unit

        def counting_k1(s, q, seed):
            k1_calls.append(s)
            return real_k1(s, q, seed)

        monkeypatch.setattr(family, "_k1_unit", counting_k1)
        report = run_pipeline(sc, "b")
        assert report.locus == ("a", "b")
        assert k1_calls == []
        assert report.to_json() == run_pipeline(replace(sc, _derived={}), "b").to_json()

    def test_with_seeds_copy_recomputes(self, monkeypatch):
        """A copy shares sc._derived, but its seeds are part of the key."""
        sc = three_point_scenario()
        first = run_pipeline(sc, "a")
        k1_calls = []
        real_k1 = family._k1_unit

        def counting_k1(s, q, seed):
            k1_calls.append(seed)
            return real_k1(s, q, seed)

        monkeypatch.setattr(family, "_k1_unit", counting_k1)
        copy = sc.with_seeds(5, 6)
        report = run_pipeline(copy, "a")
        # a, b and c at slot 0, each over q' and q''
        assert k1_calls == [5] * 6
        assert report.trace_log != first.trace_log
        assert report.to_json() == run_pipeline(replace(copy, _derived={}), "a").to_json()

    def test_replace_copy_with_another_degree_gets_its_own_entry(self):
        """Point b of a copy holds a segment on a block-2 line, so slot 0's
        degree, hence q', doubles while point a's tuple stays the same: a
        key without q' would log the original's entry for the copy."""
        sc = FamilyScenario(
            fields=(PrimePower(3, 1),),
            site=FiniteSite.of(["a", "b"], [[], ["a", "b"]]),
            sigma=frozenset({"a", "b"}),
            assignment={"a": (ms((0, 2)),), "b": (ms((3, 2)),)},
            unit_seeds={"k1": 17, "iwahori": 5},
        )
        log = []
        ratio_valuation(sc, "a", 0, log)
        block_two = Multisegment([Segment(CuspidalLine("A", 2, "ram"), "c0", 0, 1)])
        copy = replace(sc, assignment={**sc.assignment, "b": (block_two,)})
        assert copy._derived is sc._derived
        assert (sc._trivializing_degrees, copy._trivializing_degrees) == ((1,), (2,))
        copy_log, fresh_log = [], []
        ratio_valuation(copy, "a", 0, copy_log)
        ratio_valuation(replace(copy, _derived={}), "a", 0, fresh_log)
        assert copy_log == fresh_log
        assert copy_log[0]["q_prime"] == {"p": 3, "f": 2}
        assert log[0]["q_prime"] == {"p": 3, "f": 1}

    def test_valuation_key_is_the_whole_point_tuple(self):
        """a and b hold one slot-0 multisegment and twists of each other at
        slot 1, so their slot-0 t_prime differ by the slot-1 Iwahori factor:
        a table keyed by the slot-0 multisegment alone would log a's entry
        for b."""
        ms0 = ms((0, 2))
        sc = FamilyScenario(
            fields=(PrimePower(3, 1), PrimePower(5, 1)),
            site=FiniteSite.of(["a", "b"], [[], ["a", "b"]]),
            sigma=frozenset({"a", "b"}),
            assignment={"a": (ms0, ms((0, 4))), "b": (ms0, ms((3, 4)))},
            unit_seeds={"k1": 17, "iwahori": 5},
        )
        report = run_pipeline(sc, "a")
        assert report.locus == ("a", "b")
        entries = {
            e["point"]: e for e in report.trace_log
            if e["stage"] == "ratio_valuation" and e["field"] == 0
        }
        assert entries["a"]["t_prime"] != entries["b"]["t_prime"]
        for x in ("a", "b"):
            fresh = []
            ratio_valuation(sc, x, 0, fresh)
            assert entries[x] == fresh[0]

    def test_iwahori_factor_at_most_once_per_point_and_slot(self, monkeypatch):
        """Once per distinct multisegment per seed pair."""
        sc, x0, _ = _twist_constant_scenario(random.Random(0), adversarial=True)
        values = {s for per_field in sc.assignment.values() for s in per_field}
        calls = []
        real_iwahori = family.iwahori_trace

        def counting_iwahori(s, n, seed):
            calls.append((seed, s))
            return real_iwahori(s, n, seed)

        monkeypatch.setattr(family, "iwahori_trace", counting_iwahori)
        for copy in (sc, sc.with_seeds(3, 4)):
            calls.clear()
            family.run_pipeline(copy, x0)
            shadows = [s for _, s in calls]
            assert 0 < len(calls) == len(set(shadows)) <= len(values)
            assert set(shadows) <= set(map(base_change_shadow, values))
            assert {seed for seed, _ in calls} == {copy.unit_seeds["iwahori"]}

    def test_violation_in_valuation_propagates(self, monkeypatch):
        sc = three_point_scenario()

        def failing_valuation(sc, x, j, log=None):
            raise ModelViolation("stub", certificate={"point": x})

        monkeypatch.setattr(family, "ratio_valuation", failing_valuation)
        with pytest.raises(ModelViolation) as info:
            family.run_pipeline(sc, "a")
        assert info.value.certificate == {"point": "a"}


class TestVerdictBodies:
    """_certify_point derives each verdict body through sc._derive(_verdict,
    ...), keyed by what the body reads: both point tuples, and per slot the
    witness, both ratio valuations, the declared values and the shadow
    statistics.  No unit seed is part of the key."""

    @pytest.mark.parametrize("adversarial", [False, True], ids=["honest", "tampered"])
    def test_seed_pairs_share_every_body(self, monkeypatch, adversarial):
        """The valuations agree under every seed pair, so `family --seeds 3`
        builds and renders no body that one run does not."""
        sc, x0, _ = _twist_constant_scenario(random.Random(0), adversarial=adversarial)
        doc = json.dumps(scenario_to_json(sc))
        bodies, witnesses = [], []
        real_verdict, real_to_json = family._verdict, family.multisegment_to_json

        def counting_verdict(*args):
            bodies.append(args)
            return real_verdict(*args)

        def counting_to_json(s):
            witnesses.append(s)
            return real_to_json(s)

        monkeypatch.setattr(family, "_verdict", counting_verdict)
        monkeypatch.setattr(family, "multisegment_to_json", counting_to_json)
        status = 2 if adversarial else 0
        assert main(["family", doc, x0]) == status
        one_run = (len(bodies), len(witnesses))
        bodies.clear()
        witnesses.clear()
        assert main(["family", doc, x0, "--seeds", "3"]) == status
        assert (len(bodies), len(witnesses)) == one_run
        assert len(set(bodies)) == len(bodies) and len(witnesses) > 0

    def test_equal_tuples_different_declared_values(self):
        """b and c hold one tuple, but b declares a type trace that disagrees
        with the computed one: whichever is certified first, b gets the
        declared-value certificate and c the twist-orbit one."""
        split = ms((0, 1), (1, 1))
        sc = FamilyScenario(
            fields=(PrimePower(3, 1),),
            site=FiniteSite.of(["a", "b", "c"], [[], ["a", "b", "c"]]),
            sigma=frozenset({"a", "b", "c"}),
            assignment={"a": (ms((0, 2)),), "b": (split,), "c": (split,)},
            unit_seeds={"k1": 17, "iwahori": 5},
            declared_type_traces={0: {"b": 0}},
        )
        alone = {x: family._certify_point(replace(sc, _derived={}), "a", x, []) for x in "bc"}
        assert [c["reason"] for x in "bc" for c in alone[x]["certificates"]] == [
            "declared type trace disagrees with the one computed from the assignment",
            "comparable point with equal valuation but a different twist orbit; "
            "contradicts strict statistic monotonicity",
        ]
        for order in ("bc", "cb"):
            fresh = replace(sc, _derived={})
            assert {x: family._certify_point(fresh, "a", x, []) for x in order} == alone

    @pytest.mark.parametrize("seed", range(4))
    def test_tampered_certificate_statistics(self, seed):
        sc, x0, _ = _twist_constant_scenario(random.Random(seed), adversarial=True)
        report = run_pipeline(sc, x0)
        certificates = [
            (v["point"], c) for v in report.verdicts
            for c in v.get("certificates", ()) if "weighted_statistic" in c
        ]
        assert certificates
        for x, c in certificates:
            s, s0 = sc.assignment[x][c["field"]], sc.assignment[x0][c["field"]]
            assert c["weighted_statistic"] == statistic(base_change_shadow(s)) == monodromy_weight(s)
            assert c["base_weighted_statistic"] == statistic(base_change_shadow(s0))


class TestScenarioJson:
    def test_round_trip(self):
        sc = three_point_scenario()
        doc = scenario_to_json(sc)
        again = scenario_from_json(doc)
        assert again == sc
        assert json.dumps(scenario_to_json(again), sort_keys=True) == json.dumps(
            doc, sort_keys=True
        )

    def test_violations_listed(self):
        doc = scenario_to_json(three_point_scenario())
        doc["assignment"].pop("c")
        problems = scenario_violations(scenario_from_json(doc))
        assert any("assignment keys" in p for p in problems)
