"""Segments on cuspidal lines, multisegments, and the elementary-operation order.

A segment is an integer interval of twist exponents sitting on a (line, coset)
pair; a multisegment is a finite bag of segments.  Merging a linked pair into
(union, intersection) is an elementary operation; chains of elementary
operations generate a partial order on multisegments with a fixed support.
Every value here is immutable and every function is pure.

Canonical order sorts the segments of a multisegment by line, then coset,
then (start, length), so each (line, coset) group is one contiguous run.
Segments of different runs are never linked, so elementary_edges pairs
segments only inside a run, on their integer endpoints, trying the pairs
(i, j), i < j, in lexicographic order of canonical position.

The package's value classes are slotted classes over _Value, which gives
them what a frozen dataclass has without importing dataclasses.
CuspidalLine, Segment and Multisegment compute their hash once, when they
are built.  A hash of str fields changes with PYTHONHASHSEED, so the cached
value never travels: pickling and copying rebuild a value through its
constructor.
"""
from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property

from .exceptions import DomainError

_setattr = object.__setattr__  # how a value class sets its slots in __init__


class _Value:
    """An immutable value whose fields __match_args__ lists.

    A subclass sets its slots in __init__ through _setattr and writes its
    own __eq__ and __hash__, as @dataclass(frozen=True) would.  From here
    it gets the dataclass repr, pickling and copying through its
    constructor, __replace__ (which copy.replace calls), and
    FrozenInstanceError on every assignment or deletion.  __hash__ reads
    the _hash slot of a class that computes its hash once; a class that
    defines __eq__ must name __hash__ again, or it is None.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, name) for name in self.__match_args__])

    def __replace__(self, /, **changes):
        for name in self.__match_args__:
            changes.setdefault(name, getattr(self, name))
        return self.__class__(**changes)

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError  # imported on misuse only

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash


class CuspidalLine(_Value):
    """A line of twists of one supercuspidal: GL_m block size plus inertial class.

    Two lines with equal ``line_id`` must agree in every field.  When no
    inertial label is declared, the line id doubles as its inertial class.
    """

    __match_args__ = ("line_id", "block_size", "inertial_label")
    __slots__ = (*__match_args__, "_hash")

    def __init__(self, line_id: str, block_size: int = 1, inertial_label: str | None = None):
        if type(block_size) is not int or block_size < 1:
            _json_int(block_size, "block_size")
            raise DomainError(f"block_size must be >= 1, got {block_size}")
        if inertial_label is None:
            inertial_label = line_id
        _setattr(self, "line_id", line_id)
        _setattr(self, "block_size", block_size)
        _setattr(self, "inertial_label", inertial_label)
        _setattr(self, "_hash", hash((line_id, block_size, inertial_label)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.line_id, self.block_size, self.inertial_label)
                    == (other.line_id, other.block_size, other.inertial_label))
        return NotImplemented

    __hash__ = _Value.__hash__


class Segment(_Value):
    """The interval {start, ..., start + length - 1} on (line, coset)."""

    __match_args__ = ("line", "coset", "start", "length")
    __slots__ = (*__match_args__, "_hash")

    def __init__(self, line: CuspidalLine, coset: str, start: int, length: int):
        if type(start) is not int or type(length) is not int or length < 1:
            _json_int(start, "segment start")
            _json_int(length, "segment length")
            raise DomainError(f"segment length must be >= 1, got {length}")
        _setattr(self, "line", line)
        _setattr(self, "coset", coset)
        _setattr(self, "start", start)
        _setattr(self, "length", length)
        _setattr(self, "_hash", hash((line, coset, start, length)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.line, self.coset, self.start, self.length)
                    == (other.line, other.coset, other.start, other.length))
        return NotImplemented

    __hash__ = _Value.__hash__

    @property
    def end(self) -> int:
        """Exclusive right endpoint."""
        return self.start + self.length


def _canonical_key(seg: Segment):
    return (
        seg.line.line_id,
        seg.line.inertial_label,
        seg.line.block_size,
        seg.coset,
        seg.start,
        seg.length,
    )


class Multisegment(_Value):
    """A bag of segments, stored in canonical sorted order.

    Bag equality is syntactic equality of the sorted tuple, so multisegments
    can be hashed and deduplicated exactly.
    """

    __match_args__ = ("segments",)
    __slots__ = (*__match_args__, "_hash", "__dict__")  # __dict__: the cached properties

    def __init__(self, segments: Iterable[Segment]):
        segs = tuple(sorted(segments, key=_canonical_key))
        _setattr(self, "segments", segs)
        _setattr(self, "_hash", hash((segs,)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.segments == other.segments
        return NotImplemented

    __hash__ = _Value.__hash__

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    @cached_property
    def total_size(self) -> int:
        """n of the ambient GL_n: sum of block_size * length."""
        return sum(seg.line.block_size * seg.length for seg in self.segments)

    @cached_property
    def _json_pieces(self) -> tuple[str, str]:
        """json.dumps(sort_keys=True) of the "lines" and of the "segments"
        value of multisegment_to_json(self), computed once."""
        return (
            json.dumps(multisegment_to_json(self)["lines"], sort_keys=True),
            _segments_json(self),
        )


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


def support(s: Multisegment) -> Counter:
    """Bag union of all segments' point sets: (line, coset, position) with
    multiplicity."""
    bag: Counter = Counter()
    for seg in s:
        for pos in range(seg.start, seg.end):
            bag[(seg.line, seg.coset, pos)] += 1
    return bag


def elementary_edges(
    s: Multisegment, max_delta: int | None = None
) -> dict[Multisegment, tuple[int, int, int]]:
    """Children reachable by one elementary operation, with (a, b, c) data.

    (a, b) are the merged pair's lengths and c their overlap; the statistic
    delta of the edge is (a - c)(b - c).  Deduplicated as bags; the delta is
    determined by (parent, child), so each child keeps the data of its first
    generating pair.  Pairs (i, j), i < j, are tried in lexicographic order
    of their positions in the canonical tuple.

    With max_delta, only the children whose delta is at most max_delta:
    the result is the unbounded one filtered to those, in the same order.
    A pair past the bound builds no Segment and no Multisegment.

    Only segments of one (line, coset) run can be linked, and in canonical
    order a run is sorted by (start, length).  So with a0 <= b0, the pair
    [a0, a1), [b0, b1) is linked iff a0 < b0 <= a1 < b1; its union is
    [a0, b1), its intersection [b0, a1) when b0 < a1, c = a1 - b0, and the
    delta is (b0 - a0)(b1 - a1).  On stacked supports several pairs of a run
    merge to the same interval, so each merged segment is built once.  A
    pair whose first segment equals the one before it in its run, or whose
    second segment equals the one before it (not the first), gives the
    child, with the same (a, b, c), of a pair tried before; it is skipped.
    """
    segs = s.segments
    n = len(segs)
    out: dict[Multisegment, tuple[int, int, int]] = {}
    starts = [g.start for g in segs]
    ends = [g.start + g.length for g in segs]
    hi = 0
    for i in range(n - 1):
        a = segs[i]
        if i == hi:
            # hi becomes the end of the (line, coset) run that starts at i.
            line, coset = a.line, a.coset
            hi = i + 1
            while hi < n and segs[hi].coset == coset and (
                    segs[hi].line is line or segs[hi].line == line):
                hi += 1
            built: dict[tuple[int, int], Segment] = {}  # (start, end) -> segment
        elif starts[i] == starts[i - 1] and ends[i] == ends[i - 1]:
            continue
        a0, a1 = starts[i], ends[i]
        for j in range(i + 1, hi):
            b0 = starts[j]
            if b0 > a1:
                break
            b1 = ends[j]
            if not a0 < b0 <= a1 < b1 or (
                    j > i + 1 and b0 == starts[j - 1] and b1 == ends[j - 1]):
                continue
            if max_delta is not None and (b0 - a0) * (b1 - a1) > max_delta:
                if b0 - a0 > max_delta:
                    break  # b0 only grows along the run, and b1 - a1 >= 1
                continue
            union = built.get((a0, b1))
            if union is None:
                union = built[a0, b1] = Segment(line, coset, a0, b1 - a0)
            merged = (union,)
            if b0 < a1:
                inter = built.get((b0, a1))
                if inter is None:
                    inter = built[b0, a1] = Segment(line, coset, b0, a1 - b0)
                merged += (inter,)
            child = Multisegment(segs[:i] + segs[i + 1:j] + segs[j + 1:] + merged)
            out.setdefault(child, (a1 - a0, b1 - b0, a1 - b0))
    return out


def statistic(s: Multisegment) -> int:
    """Sum of length*(length-1)/2 over the segments of s."""
    return sum(seg.length * (seg.length - 1) // 2 for seg in s)


def _walk(s: Multisegment, bound: int | None = None):
    """Breadth-first walk down from s: yields (node, edges) once per
    expanded node, edges being elementary_edges(node) when bound is None.

    With a bound, each node carries its statistic (its parent's plus the
    delta of the edge that reached it), edges holds only the children whose
    statistic is at most bound, and a child is expanded only when its
    statistic is below bound.  So a bound above statistic(s) expands
    exactly the t <= s with statistic(t) < bound, and no child past the
    bound is built."""
    seen = {s}
    frontier = [(s, statistic(s))]
    while frontier:
        nxt = []
        for node, stat in frontier:
            edges = elementary_edges(
                node, max_delta=None if bound is None else bound - stat)
            yield node, edges
            for child, (a, b, c) in edges.items():
                if child not in seen:
                    seen.add(child)
                    child_stat = stat + (a - c) * (b - c)
                    if bound is None or child_stat < bound:
                        nxt.append((child, child_stat))
        frontier = nxt


def closure_edges(
    s: Multisegment,
) -> dict[tuple[Multisegment, Multisegment], tuple[int, int, int]]:
    """Every (parent, child) edge in the downward closure of s, with (a, b, c)."""
    return {(node, child): abc
            for node, edges in _walk(s) for child, abc in edges.items()}


def downward_closure(s: Multisegment) -> frozenset[Multisegment]:
    """All multisegments <= s, by breadth-first expansion of elementary children."""
    return frozenset(node for node, _ in _walk(s))


def leq(s0: Multisegment, s: Multisegment) -> bool:
    """True iff s0 == s or s0 is reachable from s by elementary operations.

    Pruned by support equality and by strict statistic growth: every step
    down strictly increases the statistic, so s0 can only be reached through
    nodes whose statistic is below statistic(s0).  The walk is bounded by
    that statistic, so it never builds a child past the target.
    """
    if s0 == s:
        return True
    if support(s0) != support(s):
        return False
    target = statistic(s0)
    if target <= statistic(s):
        return False
    return any(s0 in edges for _, edges in _walk(s, target))


def twist_orbit(s: Multisegment) -> Counter:
    """The bag of (inertial_label, length) pairs: t is obtainable from s by
    twisting each segment independently iff twist_orbit(s) == twist_orbit(t)."""
    return Counter((seg.line.inertial_label, seg.length) for seg in s)


# --- JSON form -------------------------------------------------------------
#
# {"lines": [{"line_id": "A", "block_size": 1, "inertial_label": "unr"}, ...],
#  "segments": [{"line": "A", "coset": "c0", "start": 0, "len": 2}, ...]}
#
# "lines" may be omitted; undeclared lines default to block size 1 with the
# line id as inertial label.


_JSON_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string"}
_encode_str = json.encoder.encode_basestring_ascii


def _json_typed(value, kind: type, name: str):
    """value, if it is a JSON value of the given kind (dict, list or str)."""
    if not isinstance(value, kind):
        raise DomainError(f"{name} must be {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _json_keys(value, allowed: tuple[str, ...], name: str) -> dict:
    """value, if it is a JSON object that has no key but those allowed."""
    for key in _json_typed(value, dict, name):
        if key not in allowed:
            unknown = sorted(value.keys() - allowed, key=str)
            raise DomainError(f"{name} has unknown keys {unknown}")
    return value


def _json_int(value, name: str) -> int:
    """value, if it is a JSON integer: an int, never a bool, float or str."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return value


def _declare(table: dict[str, CuspidalLine], line: CuspidalLine) -> None:
    """Add line to table, unless the table holds a different line of its id."""
    if table.setdefault(line.line_id, line) != line:
        raise DomainError(f"conflicting declarations for line {line.line_id!r}")


def lines_from_json(doc: list[dict]) -> dict[str, CuspidalLine]:
    table: dict[str, CuspidalLine] = {}
    for entry in _json_typed(doc, list, '"lines"'):
        _json_keys(entry, ("line_id", "block_size", "inertial_label"), "a line declaration")
        try:
            label = entry.get("inertial_label")
            line = CuspidalLine(
                line_id=_json_typed(entry["line_id"], str, "line_id"),
                block_size=_json_int(entry.get("block_size", 1), "block_size"),
                inertial_label=(
                    None if label is None else _json_typed(label, str, "inertial_label")
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad line declaration {entry!r}: {exc}") from exc
        _declare(table, line)
    return table


def multisegment_from_json(
    doc: dict, lines: Mapping[str, CuspidalLine] | None = None
) -> Multisegment:
    _json_keys(doc, ("lines", "segments"), "a multisegment")
    table = dict(lines) if lines else {}
    for line in lines_from_json(doc.get("lines", [])).values():
        _declare(table, line)
    segs = []
    for entry in _json_typed(doc.get("segments", []), list, '"segments"'):
        _json_keys(entry, ("line", "coset", "start", "len"), "a segment")
        try:
            line_id = _json_typed(entry["line"], str, "line")
            line = table.get(line_id)
            if line is None:  # undeclared: one default line per id
                line = table[line_id] = CuspidalLine(line_id)
            seg = Segment(
                line=line,
                coset=_json_typed(entry.get("coset", "c0"), str, "coset"),
                start=_json_int(entry["start"], "start"),
                length=_json_int(entry["len"], "len"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad segment {entry!r}: {exc}") from exc
        segs.append(seg)
    return Multisegment(segs)


def line_to_json(line: CuspidalLine) -> dict:
    return {
        "line_id": line.line_id,
        "block_size": line.block_size,
        "inertial_label": line.inertial_label,
    }


def segment_to_json(seg: Segment) -> dict:
    return {"line": seg.line.line_id, "coset": seg.coset, "start": seg.start, "len": seg.length}


def multisegment_to_json(s: Multisegment) -> dict:
    lines = sorted({seg.line for seg in s}, key=lambda l: l.line_id)
    return {
        "lines": [line_to_json(l) for l in lines],
        "segments": [segment_to_json(seg) for seg in s.segments],
    }


def _segments_json(s: Multisegment) -> str:
    """json.dumps(multisegment_to_json(s)["segments"], sort_keys=True)."""
    return "[" + ", ".join([
        '{"coset": %s, "len": %d, "line": %s, "start": %d}'
        % (_encode_str(g.coset), g.length, _encode_str(g.line.line_id), g.start)
        for g in s.segments
    ]) + "]"
