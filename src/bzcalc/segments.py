"""Segments on cuspidal lines, multisegments, and the elementary-operation order.

A segment is an integer interval of twist exponents sitting on a (line, coset)
pair; a multisegment is a finite bag of segments.  Merging a linked pair into
(union, intersection) is an elementary operation; chains of elementary
operations generate a partial order on multisegments with a fixed support.
Every value here is immutable and every function is pure.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .exceptions import DomainError


@dataclass(frozen=True)
class CuspidalLine:
    """A line of twists of one supercuspidal: GL_m block size plus inertial class.

    Two lines with equal ``line_id`` must agree in every field.  When no
    inertial label is declared, the line id doubles as its inertial class.
    """

    line_id: str
    block_size: int = 1
    inertial_label: str | None = None

    def __post_init__(self):
        if self.block_size < 1:
            raise DomainError(f"block_size must be >= 1, got {self.block_size}")
        if self.inertial_label is None:
            object.__setattr__(self, "inertial_label", self.line_id)


@dataclass(frozen=True)
class Segment:
    """The interval {start, ..., start + length - 1} on (line, coset)."""

    line: CuspidalLine
    coset: str
    start: int
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise DomainError(f"segment length must be >= 1, got {self.length}")

    @property
    def end(self) -> int:
        """Exclusive right endpoint."""
        return self.start + self.length

    def points(self) -> range:
        return range(self.start, self.end)

    def point_keys(self) -> Iterator[tuple[CuspidalLine, str, int]]:
        for pos in self.points():
            yield (self.line, self.coset, pos)


def _canonical_key(seg: Segment):
    return (
        seg.line.line_id,
        seg.line.inertial_label,
        seg.line.block_size,
        seg.coset,
        seg.start,
        seg.length,
    )


@dataclass(frozen=True)
class Multisegment:
    """A bag of segments, stored in canonical sorted order.

    Bag equality is syntactic equality of the sorted tuple, so multisegments
    can be hashed and deduplicated exactly.
    """

    segments: tuple[Segment, ...]

    def __init__(self, segments: Iterable[Segment]):
        object.__setattr__(
            self, "segments", tuple(sorted(segments, key=_canonical_key))
        )

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    @property
    def total_size(self) -> int:
        """n of the ambient GL_n: sum of block_size * length."""
        return sum(seg.line.block_size * seg.length for seg in self.segments)

    def lengths(self) -> tuple[int, ...]:
        return tuple(seg.length for seg in admissible_order(self))


# The support bag: (line, coset, position) with multiplicity.
SupportMultiset = Counter


def is_linked(a: Segment, b: Segment) -> bool:
    """True iff neither interval contains the other and their union is an interval.

    Segments on distinct (line, coset) pairs are never linked.
    """
    if a.line != b.line or a.coset != b.coset:
        return False
    if a.start <= b.start and b.end <= a.end:
        return False
    if b.start <= a.start and a.end <= b.end:
        return False
    # Union is contiguous iff the intervals overlap or are adjacent.
    return max(a.start, b.start) <= min(a.end, b.end)


def precedes(a: Segment, b: Segment) -> bool:
    """True iff a and b are linked and b starts at least one step after a."""
    return is_linked(a, b) and b.start - a.start >= 1


def admissible_order(s: Multisegment) -> tuple[Segment, ...]:
    """A deterministic ordering in which no earlier segment precedes a later one.

    Within a (line, coset) group, descending start suffices: precedes(a, b)
    forces start(a) < start(b).  Ties break by descending length, then ids.
    """
    return tuple(
        sorted(
            s.segments,
            key=lambda g: (
                g.line.line_id,
                g.coset,
                -g.start,
                -g.length,
                g.line.inertial_label,
                g.line.block_size,
            ),
        )
    )


def support(s: Multisegment) -> SupportMultiset:
    """Bag union of all segments' point sets, with multiplicity."""
    bag: Counter = Counter()
    for seg in s:
        for key in seg.point_keys():
            bag[key] += 1
    return bag


def _merge_pair(a: Segment, b: Segment) -> tuple[Segment, Segment | None, int]:
    """(union, intersection or None, overlap size) for a linked pair."""
    lo, hi = min(a.start, b.start), max(a.end, b.end)
    union = Segment(a.line, a.coset, lo, hi - lo)
    ilo, ihi = max(a.start, b.start), min(a.end, b.end)
    inter = Segment(a.line, a.coset, ilo, ihi - ilo) if ihi > ilo else None
    return union, inter, max(0, ihi - ilo)


def elementary_edges(s: Multisegment) -> dict[Multisegment, tuple[int, int, int]]:
    """Children reachable by one elementary operation, with (a, b, c) data.

    (a, b) are the merged pair's lengths and c their overlap; the statistic
    delta of the edge is (a - c)(b - c).  Deduplicated as bags; the delta is
    determined by (parent, child), so any generating pair may be recorded.
    """
    segs = s.segments
    out: dict[Multisegment, tuple[int, int, int]] = {}
    for i, j in itertools.combinations(range(len(segs)), 2):
        a, b = segs[i], segs[j]
        if not is_linked(a, b):
            continue
        union, inter, overlap = _merge_pair(a, b)
        rest = [segs[k] for k in range(len(segs)) if k not in (i, j)]
        rest.append(union)
        if inter is not None:
            rest.append(inter)
        child = Multisegment(rest)
        out.setdefault(child, (a.length, b.length, overlap))
    return out


def elementary_children(s: Multisegment) -> frozenset[Multisegment]:
    """The set of multisegments obtainable from s by one elementary operation."""
    return frozenset(elementary_edges(s))


def statistic(s: Multisegment) -> int:
    """Sum of length*(length-1)/2 over the segments of s."""
    return sum(seg.length * (seg.length - 1) // 2 for seg in s)


def closure_edges(
    s: Multisegment,
) -> dict[tuple[Multisegment, Multisegment], tuple[int, int, int]]:
    """Every (parent, child) edge in the downward closure of s, with (a, b, c)."""
    edges: dict[tuple[Multisegment, Multisegment], tuple[int, int, int]] = {}
    seen = {s}
    frontier = [s]
    while frontier:
        nxt = []
        for node in frontier:
            for child, abc in elementary_edges(node).items():
                edges[(node, child)] = abc
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    return edges


def downward_closure(s: Multisegment) -> frozenset[Multisegment]:
    """All multisegments <= s, by breadth-first expansion of elementary children."""
    seen = {s}
    frontier = [s]
    while frontier:
        nxt = []
        for node in frontier:
            for child in elementary_children(node):
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    return frozenset(seen)


def leq(s0: Multisegment, s: Multisegment) -> bool:
    """True iff s0 == s or s0 is reachable from s by elementary operations.

    Pruned by support equality and by strict statistic growth: every step
    down strictly increases the statistic, so branches whose statistic
    exceeds statistic(s0) are dead.
    """
    if s0 == s:
        return True
    if support(s0) != support(s):
        return False
    target = statistic(s0)
    if target <= statistic(s):
        return False
    seen = {s}
    frontier = [s]
    while frontier:
        nxt = []
        for node in frontier:
            for child in elementary_children(node):
                if child == s0:
                    return True
                if child in seen or statistic(child) >= target:
                    continue
                seen.add(child)
                nxt.append(child)
        frontier = nxt
    return False


def twist_orbit(s: Multisegment) -> Counter:
    """The bag of (inertial_label, length) pairs: the invariant of per-segment
    unramified twisting."""
    return Counter((seg.line.inertial_label, seg.length) for seg in s)


def twist_orbit_equal(s: Multisegment, t: Multisegment) -> bool:
    """True iff t is obtainable from s by twisting each segment independently."""
    return twist_orbit(s) == twist_orbit(t)


# --- JSON form -------------------------------------------------------------
#
# {"lines": [{"line_id": "A", "block_size": 1, "inertial_label": "unr"}, ...],
#  "segments": [{"line": "A", "coset": "c0", "start": 0, "len": 2}, ...]}
#
# "lines" may be omitted; undeclared lines default to block size 1 with the
# line id as inertial label.


def lines_from_json(doc: list[dict]) -> dict[str, CuspidalLine]:
    table: dict[str, CuspidalLine] = {}
    for entry in doc:
        try:
            line = CuspidalLine(
                line_id=entry["line_id"],
                block_size=int(entry.get("block_size", 1)),
                inertial_label=entry.get("inertial_label"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad line declaration {entry!r}: {exc}") from exc
        if line.line_id in table and table[line.line_id] != line:
            raise DomainError(f"conflicting declarations for line {line.line_id!r}")
        table[line.line_id] = line
    return table


def multisegment_from_json(
    doc: dict, lines: Mapping[str, CuspidalLine] | None = None
) -> Multisegment:
    table = dict(lines) if lines else {}
    table.update(lines_from_json(doc.get("lines", [])))
    segs = []
    for entry in doc.get("segments", []):
        try:
            line_id = entry["line"]
            seg = Segment(
                line=table.get(line_id, CuspidalLine(line_id)),
                coset=entry.get("coset", "c0"),
                start=int(entry["start"]),
                length=int(entry["len"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad segment {entry!r}: {exc}") from exc
        segs.append(seg)
    return Multisegment(segs)


def multisegment_to_json(s: Multisegment) -> dict:
    lines = sorted({seg.line for seg in s}, key=lambda l: l.line_id)
    return {
        "lines": [
            {
                "line_id": l.line_id,
                "block_size": l.block_size,
                "inertial_label": l.inertial_label,
            }
            for l in lines
        ],
        "segments": [
            {
                "line": seg.line.line_id,
                "coset": seg.coset,
                "start": seg.start,
                "len": seg.length,
            }
            for seg in s.segments
        ],
    }
