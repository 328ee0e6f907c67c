"""An independent model of multisegments, used to generate inputs and to
check the program's answers.

It shares no code with ``bzcalc``.  A segment is ``(group, start, length)``
where ``group`` is ``(line_id, block_size, inertial_label, coset)``; two
segments can merge only inside one group.  The order is decided by rank
numbers, not by a search: ``a <= b`` iff a and b have the same support and
``r_ij(a) >= r_ij(b)`` for every group and every ``i <= j``, where
``r_ij(m)`` counts the segments of m that contain ``[i, j]`` (Zelevinsky;
Abeasis, Del Fra and Kraft).
"""
from __future__ import annotations

import json
import operator
from collections import Counter

UNR = ("unr", 1, "unr")


def group(coset, line=UNR):
    return (line[0], line[1], line[2], coset)


def canon(segs):
    """A multisegment as a sorted tuple of (group, start, length)."""
    return tuple(sorted(segs))


def statistic(ms):
    return sum(length * (length - 1) // 2 for _, _, length in ms)


def support(ms):
    bag = Counter()
    for g, start, length in ms:
        for pos in range(start, start + length):
            bag[(g, pos)] += 1
    return bag


def ranks(ms):
    r = Counter()
    for g, start, length in ms:
        for i in range(start, start + length):
            for j in range(i, start + length):
                r[(g, i, j)] += 1
    return r


def dominates(ra, rb):
    """True iff rank numbers ra are >= rb everywhere (a <= b in the order)."""
    return all(ra[k] >= v for k, v in rb.items())


def leq(a, b):
    return a == b or (support(a) == support(b) and dominates(ranks(a), ranks(b)))


def merge(x, y):
    """(union, intersection or None, overlap) of two linked segments, else None."""
    (g, s1, l1), (h, s2, l2) = x, y
    if g != h:
        return None
    e1, e2 = s1 + l1, s2 + l2
    if (s1 <= s2 and e2 <= e1) or (s2 <= s1 and e1 <= e2):
        return None
    if max(s1, s2) > min(e1, e2):
        return None
    lo, hi = min(s1, s2), max(e1, e2)
    ilo, ihi = max(s1, s2), min(e1, e2)
    inter = (g, ilo, ihi - ilo) if ihi > ilo else None
    return (g, lo, hi - lo), inter, max(0, ihi - ilo)


def children(ms):
    """Distinct multisegments one elementary operation below ms."""
    out = set()
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            merged = merge(ms[i], ms[j])
            if merged is None:
                continue
            union, inter, _ = merged
            rest = list(ms[:i] + ms[i + 1:j] + ms[j + 1:])
            rest.append(union)
            if inter is not None:
                rest.append(inter)
            out.add(canon(rest))
    return out


def with_support(g, mu, m):
    """Every multisegment on group g whose support is {0..m-1}, each point mu
    times.  Some segment must start at the smallest point still uncovered."""
    bag = [mu] * m
    found = []

    def rec(acc):
        live = [p for p in range(m) if bag[p]]
        if not live:
            found.append(canon(acc))
            return
        p0 = live[0]
        length = 0
        while p0 + length < m and bag[p0 + length]:
            length += 1
            for p in range(p0, p0 + length):
                bag[p] -= 1
            acc.append((g, p0, length))
            rec(acc)
            acc.pop()
            for p in range(p0, p0 + length):
                bag[p] += 1

    rec([])
    return sorted(set(found))


class Shape:
    """All multisegments with support mu x {0..m-1} on one group, with the
    rank numbers, statistics and children of each, computed once."""

    def __init__(self, mu, m):
        self.mu, self.m = mu, m
        self.g = group("c0")
        self.elements = with_support(self.g, mu, m)
        index = [(self.g, i, j) for i in range(m) for j in range(i, m)]
        self.rank = {}
        for e in self.elements:
            r = ranks(e)
            self.rank[e] = tuple(r[k] for k in index)
        self.stat = {e: statistic(e) for e in self.elements}
        self.top = canon([(self.g, p, 1) for p in range(m) for _ in range(mu)])
        self._below = {}
        self._children = {}

    def leq(self, a, b):
        return all(map(operator.ge, self.rank[a], self.rank[b]))

    def below(self, s):
        """The downward closure of s: every element t with t <= s."""
        if s not in self._below:
            rs, ge = self.rank[s], operator.ge
            self._below[s] = [t for t in self.elements if all(map(ge, self.rank[t], rs))]
        return self._below[s]

    def children(self, s):
        if s not in self._children:
            self._children[s] = frozenset(children(s))
        return self._children[s]


# --- JSON form, as the program reads and writes it -------------------------


def to_json(ms, shift=0, coset=None):
    """Program input for ms, moved right by shift and onto another coset."""
    lines = sorted({g[:3] for g, _, _ in ms})
    return {
        "lines": [
            {"line_id": l, "block_size": b, "inertial_label": lab}
            for l, b, lab in lines
        ],
        "segments": [
            {
                "line": g[0],
                "coset": coset if coset is not None else g[3],
                "start": start + shift,
                "len": length,
            }
            for g, start, length in ms
        ],
    }


def from_json(doc, shift=0):
    """Read a program multisegment back, moved left by shift; cosets are kept."""
    table = {l["line_id"]: (l["line_id"], l["block_size"], l["inertial_label"])
             for l in doc.get("lines", [])}
    return canon(
        (
            table.get(e["line"], (e["line"], 1, e["line"])) + (e["coset"],),
            e["start"] - shift,
            e["len"],
        )
        for e in doc["segments"]
    )


def relabel(ms, coset):
    return canon((g[:3] + (coset,), start, length) for g, start, length in ms)


def dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
