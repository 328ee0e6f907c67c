import dataclasses
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bzcalc.segments import (
    CuspidalLine,
    Multisegment,
    Segment,
    _walk,
    admissible_order,
    closure_edges,
    downward_closure,
    elementary_edges,
    is_linked,
    leq,
    multisegment_from_json,
    multisegment_to_json,
    precedes,
    statistic,
    support,
    twist_orbit,
)
from bzcalc.dimensions import elementary_statistic_delta
from bzcalc.exceptions import DomainError

from conftest import UNR, ms, seg, interval_decompositions, multisegments_with_support


class TestLinkedPrecedes:
    def test_overlap_by_one_is_linked(self):
        assert is_linked(seg(0, 2), seg(1, 2))

    def test_containment_is_not_linked(self):
        assert not is_linked(seg(0, 3), seg(1, 1))

    def test_gap_is_not_linked(self):
        assert not is_linked(seg(0, 1), seg(2, 1))

    def test_adjacent_is_linked(self):
        assert is_linked(seg(0, 1), seg(1, 1))

    def test_cross_line_never_linked(self):
        other = CuspidalLine("B")
        assert not is_linked(seg(0, 2), seg(1, 2, line=other))

    def test_cross_coset_never_linked(self):
        assert not is_linked(seg(0, 2), seg(1, 2, coset="c1"))

    def test_precedes_examples(self):
        assert precedes(seg(0, 1), seg(1, 1))
        assert not precedes(seg(1, 1), seg(0, 1))
        assert not precedes(seg(0, 3), seg(1, 1))

    @given(
        st.integers(-3, 3), st.integers(1, 4), st.integers(-3, 3), st.integers(1, 4)
    )
    def test_linked_is_symmetric_and_precedes_is_strict(self, s1, l1, s2, l2):
        a, b = seg(s1, l1), seg(s2, l2)
        assert is_linked(a, b) == is_linked(b, a)
        if precedes(a, b):
            assert is_linked(a, b)
            assert not precedes(b, a)


class TestAdmissibleOrder:
    def test_two_singletons(self):
        order = admissible_order(ms((0, 1), (1, 1)))
        assert [(g.start, g.length) for g in order] == [(1, 1), (0, 1)]

    def test_singleton(self):
        order = admissible_order(ms((0, 3)))
        assert [(g.start, g.length) for g in order] == [(0, 3)]

    def test_cross_line_any_fixed_order(self):
        a = Segment(CuspidalLine("A"), "c0", 0, 1)
        b = Segment(CuspidalLine("B"), "c0", 0, 1)
        order = admissible_order(Multisegment([a, b]))
        assert sorted(g.line.line_id for g in order) == ["A", "B"]

    def _brute_force_admissible(self, s):
        for perm in itertools.permutations(s.segments):
            if all(
                not precedes(perm[i], perm[j])
                for i in range(len(perm))
                for j in range(i + 1, len(perm))
            ):
                return perm
        return None

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_no_precede_condition(self, n):
        for s in interval_decompositions(n):
            if len(s) > 6:
                continue
            order = admissible_order(s)
            assert all(
                not precedes(order[i], order[j])
                for i in range(len(order))
                for j in range(i + 1, len(order))
            )
            assert self._brute_force_admissible(s) is not None


class TestSupport:
    def test_single_segment(self):
        assert support(ms((0, 2))) == Counter(
            {(UNR, "c0", 0): 1, (UNR, "c0", 1): 1}
        )

    def test_overlapping_pair_has_multiplicity(self):
        bag = support(ms((0, 2), (1, 2)))
        assert bag[(UNR, "c0", 1)] == 2
        assert sum(bag.values()) == 4

    def test_empty(self):
        assert support(Multisegment([])) == Counter()


class TestElementaryOperations:
    def test_disjoint_adjacent_pair_merges(self):
        assert elementary_edges(ms((0, 1), (1, 1))).keys() == {ms((0, 2))}

    def test_overlapping_pair_keeps_intersection(self):
        assert elementary_edges(ms((0, 2), (1, 2))).keys() == {ms((0, 3), (1, 1))}

    def test_single_segment_has_no_children(self):
        assert elementary_edges(ms((0, 3))) == {}

    @pytest.mark.parametrize("m,mu", [(m, mu) for m in range(1, 7) for mu in (1, 2)])
    def test_support_conservation(self, m, mu):
        for s in multisegments_with_support(m, mu):
            for child in elementary_edges(s):
                assert support(child) == support(s)

    def test_edge_delta_matches_statistic(self):
        for m, mu in [(4, 1), (3, 2), (2, 2)]:
            for s in multisegments_with_support(m, mu):
                for child, (a, b, c) in elementary_edges(s).items():
                    assert statistic(child) - statistic(s) == (a - c) * (b - c)
                    assert (a - c) * (b - c) > 0


def _pairwise_edges(s):
    """elementary_edges as first written, the oracle of the within-run
    kernel: every pair (i, j), i < j, that is_linked accepts, merged into its
    union and intersection."""
    segs = s.segments
    out = {}
    for i, j in itertools.combinations(range(len(segs)), 2):
        a, b = segs[i], segs[j]
        if not is_linked(a, b):
            continue
        rest = [segs[k] for k in range(len(segs)) if k not in (i, j)]
        lo, hi = min(a.start, b.start), max(a.end, b.end)
        rest.append(Segment(a.line, a.coset, lo, hi - lo))
        ilo, ihi = max(a.start, b.start), min(a.end, b.end)
        if ihi > ilo:
            rest.append(Segment(a.line, a.coset, ilo, ihi - ilo))
        out.setdefault(Multisegment(rest), (a.length, b.length, max(0, ihi - ilo)))
    return out


RHO2 = CuspidalLine("rho", 2, "rho")
A_X = CuspidalLine("A", 1, "x")
A_Y = CuspidalLine("A", 1, "y")
B = CuspidalLine("B")

# (line, coset, start, length) of each segment, not in canonical order.
HAND_BUILT = {
    "two-lines-two-cosets-interleaved": [
        (UNR, "c1", 1, 2), (B, "c0", 0, 1), (UNR, "c0", 0, 2), (B, "c1", 1, 1),
        (UNR, "c1", 0, 2), (B, "c0", 1, 1), (UNR, "c0", 2, 1), (B, "c1", 0, 2),
    ],
    "block-two-line": [(RHO2, "c0", 0, 2), (RHO2, "c0", 1, 2), (RHO2, "c0", 3, 1)],
    "one-line-id-two-labels": [
        (A_Y, "c0", 1, 2), (A_X, "c0", 0, 1), (A_Y, "c0", 0, 2), (A_X, "c0", 1, 2),
    ],
    "negative-starts": [
        (UNR, "c0", -3, 2), (UNR, "c0", -2, 2), (UNR, "c0", -1, 1), (UNR, "c0", 0, 1),
    ],
    "duplicates": [
        (UNR, "c0", 0, 2), (UNR, "c0", 1, 2), (UNR, "c0", 0, 2), (UNR, "c0", 1, 2),
        (UNR, "c0", 2, 1),
    ],
    "nested-equal-starts": [
        (UNR, "c0", 0, 1), (UNR, "c0", 0, 2), (UNR, "c0", 0, 3), (UNR, "c0", 1, 1),
        (UNR, "c0", 1, 3),
    ],
    "adjacent": [(UNR, "c0", 0, 1), (UNR, "c0", 1, 1), (UNR, "c0", 2, 2), (UNR, "c0", 4, 1)],
}


class TestKernelOracle:
    """elementary_edges, which pairs segments only inside their (line, coset)
    run, against _pairwise_edges: the same children with the same (a, b, c),
    in the same order."""

    @staticmethod
    def _check(s):
        assert list(elementary_edges(s).items()) == list(_pairwise_edges(s).items())

    @pytest.mark.parametrize(
        "m,mu", [(m, mu) for m in range(1, 9) for mu in range(1, 8 // m + 1)]
    )
    def test_every_multisegment_of_one_support(self, m, mu):
        for s in multisegments_with_support(m, mu):
            self._check(s)

    @pytest.mark.parametrize("specs", HAND_BUILT.values(), ids=HAND_BUILT.keys())
    def test_hand_built(self, specs):
        s = Multisegment(Segment(*spec) for spec in specs)
        assert elementary_edges(s)
        self._check(s)

    @pytest.mark.parametrize(
        "m,mu", [(m, mu) for m in range(1, 7) for mu in range(1, 6 // m + 1)]
    )
    def test_one_construction_per_linked_pair(self, monkeypatch, m, mu):
        """Every child is built by the one Multisegment constructor, once per
        linked pair, duplicates included."""
        pool = multisegments_with_support(m, mu)
        inits = []
        real_init = Multisegment.__init__

        def counting(self, segments):
            inits.append(1)
            real_init(self, segments)

        monkeypatch.setattr(Multisegment, "__init__", counting)
        for s in pool:
            inits.clear()
            elementary_edges(s)
            linked = sum(is_linked(a, b) for a, b in itertools.combinations(s, 2))
            assert len(inits) == linked, s


# every support {0, ..., m-1} x mu with m * mu <= 8
SMALL_SUPPORTS = [(m, mu) for m in range(1, 9) for mu in range(1, 8 // m + 1)]


class TestStatisticBound:
    """elementary_edges with max_delta and _walk with a bound, against the
    unbounded forms: the same items in the same order, filtered."""

    @pytest.mark.parametrize("m,mu", SMALL_SUPPORTS)
    def test_edges_are_the_unbounded_edges_filtered(self, m, mu):
        for s in multisegments_with_support(m, mu):
            full = list(elementary_edges(s).items())
            deltas = [elementary_statistic_delta(*abc) for _, abc in full]
            for d in range(max(deltas, default=0) + 1):
                expected = [edge for edge, delta in zip(full, deltas) if delta <= d]
                assert list(elementary_edges(s, max_delta=d).items()) == expected, (s, d)

    @pytest.mark.parametrize("m,mu", SMALL_SUPPORTS)
    def test_walk_expands_the_closure_below_the_bound(self, m, mu):
        for s in multisegments_with_support(m, mu):
            closure = downward_closure(s)
            top = max(map(statistic, closure))
            for bound in range(statistic(s) + 1, top + 2):
                nodes = []
                for node, edges in _walk(s, bound):
                    nodes.append(node)
                    assert edges == elementary_edges(node, max_delta=bound - statistic(node))
                assert len(nodes) == len(set(nodes))
                assert set(nodes) == {t for t in closure if statistic(t) < bound}, (s, bound)

    def test_no_child_past_the_bound_is_built(self, monkeypatch):
        """leq from 2 x 4 stacked singletons down to a multisegment two
        steps below them builds no child of statistic above 2."""
        top = ms(*[(i, 1) for i in range(4) for _ in range(2)])
        target = ms((0, 2), (0, 2), (2, 1), (2, 1), (3, 1), (3, 1))
        stats = []
        real_init = Multisegment.__init__

        def recording(self, segments):
            real_init(self, segments)
            stats.append(statistic(self))

        monkeypatch.setattr(Multisegment, "__init__", recording)
        assert leq(target, top)
        assert stats and max(stats) == statistic(target) == 2


class TestPartialOrder:
    def test_one_step(self):
        assert leq(ms((0, 2)), ms((0, 1), (1, 1)))

    def test_incomparable(self):
        assert not leq(ms((0, 2), (2, 1)), ms((0, 1), (1, 2)))

    def test_reflexive(self):
        s = ms((0, 2), (1, 2))
        assert leq(s, s)

    def test_closure_sizes(self):
        assert len(downward_closure(ms((0, 1), (1, 1)))) == 2
        assert len(downward_closure(ms((0, 1), (1, 1), (2, 1)))) == 4
        assert len(downward_closure(ms((0, 5)))) == 1

    def test_transitive_and_antisymmetric_on_closures(self):
        top = ms((0, 1), (1, 1), (2, 1), (3, 1))
        nodes = sorted(downward_closure(top), key=statistic)
        assert len(nodes) <= 200
        for a in nodes:
            for b in nodes:
                if leq(a, b) and leq(b, a):
                    assert a == b
                for c in nodes:
                    if leq(a, b) and leq(b, c):
                        assert leq(a, c)

    def test_descending_strictly_increases_statistic(self):
        top = ms((0, 1), (1, 1), (2, 1))
        for (parent, child), _ in closure_edges(top).items():
            assert statistic(child) > statistic(parent)


def _support_and_ranks(s):
    """The support of s, and r_ij = #{segments of s on (line, coset) that
    cover [i, j]} for all i <= j."""
    ranks = Counter()
    for g in s:
        for i in range(g.start, g.end):
            for j in range(i, g.end):
                ranks[(g.line, g.coset, i, j)] += 1
    return support(s), ranks


def _rank_leq(a, b):
    """Zelevinsky's rank rule on (support, ranks) pairs: a <= b iff a and b
    have equal support and r_ij(a) >= r_ij(b) for all i <= j, within each
    (line, coset) group."""
    (support_a, ra), (support_b, rb) = a, b
    return support_a == support_b and all(
        ra[key] >= count for key, count in rb.items()
    )


class TestLeqOracle:
    """leq, whose walk prunes by statistic, against the unpruned closure and
    against the rank rule, on every pair of one support."""

    def _check_every_pair(self, pool):
        ranks = {s: _support_and_ranks(s) for s in pool}
        for b in pool:
            below = downward_closure(b)
            for a in pool:
                expected = a in below
                assert leq(a, b) == expected, (a, b)
                assert _rank_leq(ranks[a], ranks[b]) == expected, (a, b)

    @pytest.mark.parametrize(
        "m,mu", [(m, mu) for m in range(1, 9) for mu in range(1, 8 // m + 1)]
    )
    def test_one_coset(self, m, mu):
        self._check_every_pair(list(multisegments_with_support(m, mu)))

    def test_two_cosets(self):
        """Support {0, 1, 2} on coset c0 and {0, 1} twice on coset c1."""
        self._check_every_pair([
            Multisegment(a.segments + b.segments)
            for a in multisegments_with_support(3, 1, coset="c0")
            for b in multisegments_with_support(2, 2, coset="c1")
        ])


class TestStatistic:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_single_segment(self, n):
        assert statistic(ms((0, n))) == n * (n - 1) // 2

    def test_all_singletons(self):
        assert statistic(ms(*[(i, 1) for i in range(5)])) == 0

    def test_overlapping_pair(self):
        assert statistic(ms((0, 2), (1, 2))) == 2


class TestTwistOrbit:
    def test_shift_is_a_twist(self):
        assert twist_orbit(ms((0, 2))) == twist_orbit(ms((5, 2)))

    def test_different_lengths(self):
        assert twist_orbit(ms((0, 2))) != twist_orbit(ms((0, 1), (1, 1)))

    def test_different_inertial_labels(self):
        a = Multisegment([Segment(CuspidalLine("A", 1, "x"), "c0", 0, 2)])
        b = Multisegment([Segment(CuspidalLine("B", 1, "y"), "c0", 0, 2)])
        assert twist_orbit(a) != twist_orbit(b)

    def test_coset_moves_are_twists(self):
        assert twist_orbit(ms((0, 2))) == twist_orbit(ms((3, 2), coset="c9"))


class TestValidation:
    def test_zero_length_rejected(self):
        with pytest.raises(DomainError):
            seg(0, 0)

    def test_zero_block_rejected(self):
        with pytest.raises(DomainError):
            CuspidalLine("A", block_size=0)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: Segment(UNR, "c0", 0, 0), "segment length must be >= 1, got 0"),
            (lambda: Segment(UNR, "c0", 0, 2.5), "segment length must be an integer, got 2.5"),
            (lambda: Segment(UNR, "c0", 0, True), "segment length must be an integer, got True"),
            (lambda: Segment(UNR, "c0", 0, "1"), "segment length must be an integer, got '1'"),
            (lambda: Segment(UNR, "c0", 0.5, 2), "segment start must be an integer, got 0.5"),
            (lambda: Segment(UNR, "c0", False, 1), "segment start must be an integer, got False"),
            (lambda: Segment(UNR, "c0", "0", 1), "segment start must be an integer, got '0'"),
            (lambda: CuspidalLine("A", 0), "block_size must be >= 1, got 0"),
            (lambda: CuspidalLine("A", 2.5), "block_size must be an integer, got 2.5"),
            (lambda: CuspidalLine("A", True), "block_size must be an integer, got True"),
            (lambda: CuspidalLine("A", "2"), "block_size must be an integer, got '2'"),
        ],
        ids=["len-zero", "len-float", "len-bool", "len-str", "start-float", "start-bool",
             "start-str", "block-zero", "block-float", "block-bool", "block-str"],
    )
    def test_integers_only(self, call, message):
        """A library caller gets the checks a JSON document gets: no float,
        bool or str size is taken."""
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message


class TestJson:
    def test_round_trip(self):
        s = Multisegment(
            [
                Segment(CuspidalLine("A", 2, "ram"), "c0", 0, 3),
                Segment(CuspidalLine("unr"), "c1", -2, 1),
            ]
        )
        doc = multisegment_to_json(s)
        assert multisegment_from_json(doc) == s
        # canonical form is byte-stable
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            multisegment_to_json(multisegment_from_json(doc)), sort_keys=True
        )

    def test_undeclared_line_defaults(self):
        s = multisegment_from_json(
            {"segments": [{"line": "A", "coset": "c0", "start": 0, "len": 2}]}
        )
        only = s.segments[0]
        assert only.line.block_size == 1
        assert only.line.inertial_label == "A"

    def test_document_line_conflicting_with_the_table_rejected(self):
        doc = {
            "lines": [{"line_id": "A", "block_size": 2}],
            "segments": [{"line": "A", "coset": "c0", "start": 0, "len": 1}],
        }
        with pytest.raises(DomainError, match="conflicting declarations for line 'A'"):
            multisegment_from_json(doc, {"A": CuspidalLine("A")})
        same = multisegment_from_json(doc, {"A": CuspidalLine("A", 2)})
        assert same.segments[0].line == CuspidalLine("A", 2)

    def test_malformed_segment_rejected(self):
        with pytest.raises(DomainError):
            multisegment_from_json({"segments": [{"line": "A"}]})


SRC = Path(__file__).resolve().parents[1] / "src"

# Pickles a list of values under one hash seed; run under another, loads
# them and checks each against an equal value built afresh.
_PICKLE_VALUES = """
import pickle, sys
from bzcalc.segments import CuspidalLine, Multisegment, Segment
rho = CuspidalLine("rho", 2, "rho-label")
unr = CuspidalLine("unr")
values = [
    unr,
    Segment(rho, "c1", -1, 2),
    Multisegment([Segment(unr, "c0", 0, 2), Segment(rho, "c1", -1, 2), Segment(unr, "c0", 1, 1)]),
]
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps(values))
else:
    loaded = pickle.loads(sys.stdin.buffer.read())
    table = {value: k for k, value in enumerate(loaded)}
    for k, fresh in enumerate(values):
        assert loaded[k] == fresh and hash(loaded[k]) == hash(fresh), k
        assert table[fresh] == k, k
    print("ok")
"""


def _python_with_seed(seed, *args, stdin=b""):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str(seed)
    return subprocess.run(
        [sys.executable, "-c", _PICKLE_VALUES, *args],
        input=stdin, capture_output=True, env=env, timeout=60, check=True,
    ).stdout


class TestHashCache:
    """CuspidalLine, Segment and Multisegment compute their hash once, when
    they are built."""

    def test_equal_whatever_the_segment_order(self):
        rng = random.Random(0)
        for m, mu in [(3, 2), (4, 1), (2, 3)]:
            for s in multisegments_with_support(m, mu):
                shuffled = list(s.segments)
                rng.shuffle(shuffled)
                # equal segments and lines built afresh, not shared objects
                fresh = Multisegment(
                    Segment(CuspidalLine("unr"), g.coset, g.start, g.length)
                    for g in shuffled
                )
                assert fresh == s and hash(fresh) == hash(s)
                assert {s: 1}[fresh] == 1

    def test_replace_recomputes_the_hash(self):
        line = CuspidalLine("A", 2, "ram")
        g = Segment(line, "c0", 0, 2)
        s = Multisegment([g, Segment(line, "c0", 1, 1)])
        cases = [
            (dataclasses.replace(line, block_size=3), CuspidalLine("A", 3, "ram")),
            (dataclasses.replace(g, start=5), Segment(line, "c0", 5, 2)),
            (dataclasses.replace(s, segments=[g]), Multisegment([g])),
        ]
        for replaced, fresh in cases:
            assert replaced == fresh and hash(replaced) == hash(fresh)

    @pytest.mark.parametrize("attr", ["line_id", "coset", "segments", "_hash"])
    def test_setting_an_attribute_raises(self, attr):
        values = [CuspidalLine("unr"), seg(0, 2), ms((0, 2), (1, 1))]
        for value in values:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, attr, None)

    def test_repr_shows_the_fields_only(self):
        assert repr(seg(0, 2)) == (
            "Segment(line=CuspidalLine(line_id='unr', block_size=1, "
            "inertial_label='unr'), coset='c0', start=0, length=2)"
        )

    def test_pickle_round_trip_in_process(self):
        s = Multisegment([Segment(CuspidalLine("A", 2, "ram"), "c1", -1, 2), seg(0, 1)])
        for copy in (pickle.loads(pickle.dumps(s)), dataclasses.replace(s)):
            assert copy == s and hash(copy) == hash(s)

    def test_pickle_across_hash_seeds(self):
        dumped = _python_with_seed(1, "dump")
        assert _python_with_seed(2, "load", stdin=dumped).strip() == b"ok"
