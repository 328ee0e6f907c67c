"""Finite-site families of multisegments and the two-step rigidity pipeline.

A scenario assigns a multisegment per (point of a dense subset, field slot).
The pipeline first cuts out the clopen locus where a type-indicator trace is
constant, then shrinks it further by constancy of an exact valuation ratio,
and finally certifies every surviving point as a per-segment unramified twist
of the base point, or emits a violation certificate if the declared data is
inconsistent with strict statistic monotonicity.

Opaque unit parts of trace values are derived deterministically from seeds;
verdicts depend only on valuations, never on the units.
"""
from __future__ import annotations

import hashlib
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Callable, Mapping
from functools import cached_property

from .exceptions import DomainError, ModelViolation
from .segments import (
    CuspidalLine,
    Multisegment,
    Segment,
    _Value,
    _declare,
    _json_int,
    _json_keys,
    _json_typed,
    _setattr,
    line_to_json,
    lines_from_json,
    multisegment_from_json,
    multisegment_to_json,
    segment_to_json,
    statistic,
    support,
    twist_orbit,
)
from .dimensions import PrimePower, _decimal, _require_unramified, vp

UNRAMIFIED_LABEL = "unr"


# --- finite topological sites ----------------------------------------------


class FiniteSite(_Value):
    """A finite topological space given by its family of closed sets."""

    __match_args__ = ("points", "closed_sets")
    __slots__ = (*__match_args__, "__dict__")  # __dict__: the cached property

    def __init__(self, points: frozenset[str], closed_sets: frozenset[frozenset[str]]):
        _setattr(self, "points", points)
        _setattr(self, "closed_sets", closed_sets)

    @classmethod
    def of(cls, points, closed_sets) -> "FiniteSite":
        return cls(
            frozenset(points),
            frozenset(frozenset(c) for c in closed_sets),
        )

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """Instances of violated closed-set axioms, empty iff the site is
        valid.  Checked once per site: every with_seeds copy of a scenario
        shares its site."""
        problems = []
        if frozenset() not in self.closed_sets:
            problems.append("empty set is not closed")
        if self.points not in self.closed_sets:
            problems.append("whole space is not closed")
        sets = sorted(self.closed_sets, key=sorted)  # so no message follows the hash seed
        for c in sets:
            if not c <= self.points:
                problems.append(f"closed set {sorted(c)} is not a subset of the space")
        # a set as an int over a sorted index of every point named, so the
        # axioms cost int | and & rather than a frozenset per pair
        bit = {x: 1 << k for k, x in enumerate(sorted(self.points.union(*sets)))}
        masks = [sum(bit[x] for x in c) for c in sets]
        closed = set(masks)
        for a, ma in zip(sets, masks):
            for b, mb in zip(sets, masks):
                if ma | mb not in closed:
                    problems.append(f"union {sorted(a)} | {sorted(b)} is not closed")
                if ma & mb not in closed:
                    problems.append(
                        f"intersection {sorted(a)} & {sorted(b)} is not closed"
                    )
        return tuple(problems)


def closure(site: FiniteSite, subset: frozenset[str]) -> frozenset[str]:
    """Smallest closed superset; the space itself always qualifies."""
    out = site.points
    for c in site.closed_sets:
        if subset <= c and c < out:
            out = c
    return out


def is_dense(site: FiniteSite, sigma: frozenset[str]) -> bool:
    """True iff the only closed set containing sigma is the whole space."""
    return closure(site, frozenset(sigma)) == site.points


def subspace(site: FiniteSite, subset: frozenset[str]) -> FiniteSite:
    return FiniteSite(
        frozenset(subset),
        frozenset(c & subset for c in site.closed_sets),
    )


class SimulatedTrace(_Value):
    """A total integer-valued function on the site with closed fibers."""

    __slots__ = __match_args__ = ("site", "values", "label")

    def __init__(self, site: FiniteSite, values: tuple[tuple[str, int], ...], label: str):
        _setattr(self, "site", site)
        _setattr(self, "values", values)
        _setattr(self, "label", label)

    @classmethod
    def from_sigma(
        cls, site: FiniteSite, sigma_values: Mapping[str, int], label: str
    ) -> "SimulatedTrace":
        """Extend values on a dense subset to a total function whose fibers
        are the closures of the value classes.

        The closures must be pairwise disjoint and cover the space; otherwise
        no closed-fiber extension exists and the scenario is inconsistent.
        """
        classes: dict[int, set[str]] = {}
        for x, v in sigma_values.items():
            classes.setdefault(v, set()).add(x)
        fibers = {v: closure(site, frozenset(xs)) for v, xs in classes.items()}
        total: dict[str, int] = {}
        for v, fiber in sorted(fibers.items()):
            for x in sorted(fiber):  # so the certificate does not follow the hash seed
                if x in total:
                    raise ModelViolation(
                        f"trace {label!r} admits no closed-fiber extension",
                        certificate={
                            "reason": "overlapping value-class closures",
                            "trace": label,
                            "point": x,
                            "values": sorted([total[x], v]),
                        },
                    )
                total[x] = v
        missing = site.points - set(total)
        if missing:
            raise ModelViolation(
                f"trace {label!r} admits no closed-fiber extension",
                certificate={
                    "reason": "value-class closures do not cover the space",
                    "trace": label,
                    "points": sorted(missing),
                },
            )
        return cls(site, tuple(sorted(total.items())), label)


def clopen_locus(trace: SimulatedTrace, x0: str) -> frozenset[str]:
    """The fiber of trace(x0), verified to be closed with closed complement."""
    values = dict(trace.values)
    if x0 not in values:
        raise DomainError(f"point {x0!r} is not in the trace's space")
    v0 = values[x0]
    fiber = frozenset(x for x, v in values.items() if v == v0)
    complement = trace.site.points - fiber
    for name, part in (("fiber", fiber), ("complement", complement)):
        if part not in trace.site.closed_sets:
            raise ModelViolation(
                f"trace {trace.label!r} has a non-clopen fiber at {x0!r}",
                certificate={
                    "reason": f"{name} of the fiber is not closed",
                    "trace": trace.label,
                    "fiber": sorted(fiber),
                },
            )
    return fiber


# --- type indicator ---------------------------------------------------------


def _inertial_point_bag(s: Multisegment) -> Counter:
    bag: Counter = Counter()
    for seg in s:
        bag[(seg.line.inertial_label, seg.line.block_size)] += seg.length
    return bag


def _kind(g: Segment) -> tuple:
    """What a twist keeps of a segment: (length, inertial label, block size)."""
    return (g.length, g.line.inertial_label, g.line.block_size)


def twist_comparison_witness(
    s0: Multisegment, s: Multisegment
) -> Multisegment | None:
    """A twist s0' of s0 with support(s0') = support(s) and s0' <= s, or None.

    Each segment of s0 may move independently to any (line, coset, start)
    with matching inertial label and block size.  The witness returned is
    the first valid placement in the search order of _first_placement.

    A twist keeps the statistic and every elementary operation strictly
    raises it, so s0' <= s forces statistic(s0) >= statistic(s), with
    equality only for s0' == s: then the witness is s itself, when s is a
    twist of s0.  Only statistic(s0) > statistic(s) needs a search.
    """
    if _inertial_point_bag(s0) != _inertial_point_bag(s):
        return None
    stat0, stat = statistic(s0), statistic(s)
    if stat0 < stat:
        return None
    if stat0 == stat:
        return s if Counter(map(_kind, s0)) == Counter(map(_kind, s)) else None
    return _first_placement(s0, s)


def _first_placement(s0: Multisegment, s: Multisegment) -> Multisegment | None:
    """The first placement of s0's segments on support(s) that is <= s.

    Segments go longest first, each to the first start, in the order of
    support(s), where its cells are free.  Segments of one kind are
    interchangeable, so each starts at or after the start of the one placed
    before it: the lexicographically first valid placement, the one a
    search over every order returns, keeps to this rule.

    The rank criterion (Zelevinsky, Ann. Sci. ENS 1980; Abeasis, Del Fra
    and Kraft, Math. Ann. 256, 1981): a with support(a) = support(s) is
    <= s iff r_ij(a) >= r_ij(s) on every window [i, j] of every (line,
    coset) group, r_ij(m) counting the segments of m that contain [i, j].
    Windows from a start to a last point of segments of s suffice: r_ij(s)
    is the same on every window between them, and r_ij(placed) only falls
    as a window grows.  An unplaced segment adds at most one to a window,
    and only when it is of the group's inertial label and block size and
    at least as long.  The segments left at depth d are segs0[d:], so how
    many can still cover a window depends on d alone, and the bound is a
    checklist fixed before the search: checks[d] holds (w, v) when placing
    depth d leaves v < r_ij(s) segments that can cover w, and then
    r_ij(s) - r_ij(placed) must be at most v.  That difference only falls
    as a prefix grows, so a bound that held once keeps holding: a prefix
    is dropped only when no placement of the rest can make up what it
    lacks, and in a full placement every window has been checked, so one
    that is not dropped is <= s.

    The rank bound does not see that the support must be tiled, so a
    placement is also dropped when some (line, coset) group's lowest point
    with multiplicity left can be the start of no unplaced segment: one of
    the group's inertial label and block size, whose cells all have
    multiplicity left, and that starts no earlier than the last placed
    segment of its kind.  Every lower point of the group is full, so each
    segment that covers that point starts on it; this too drops only dead
    branches.
    """
    remaining = support(s)
    starts = list(remaining)
    segs0 = sorted(s0.segments, key=lambda g: -g.length)
    kinds = [_kind(g) for g in segs0]
    firsts: dict = {}  # (line, coset) -> the sorted starts of its segments in s
    lasts: dict = {}  # (line, coset) -> the sorted last points
    for g in s:
        firsts.setdefault((g.line, g.coset), set()).add(g.start)
        lasts.setdefault((g.line, g.coset), set()).add(g.end - 1)
    firsts = {group: sorted(v) for group, v in firsts.items()}
    lasts = {group: sorted(v) for group, v in lasts.items()}

    def windows(line, coset, lo: int, hi: int) -> list[tuple]:
        """The windows (line, coset, i, j) inside [lo, hi) on (line, coset)."""
        fs, ls = firsts[line, coset], lasts[line, coset]
        return [(line, coset, i, j) for i in fs[bisect_left(fs, lo):bisect_left(fs, hi)]
                for j in ls[bisect_left(ls, i):bisect_left(ls, hi)]]

    need: Counter = Counter()  # window -> r_ij(s) - r_ij(placed)
    for g in s:
        need.update(windows(g.line, g.coset, g.start, g.end))
    depths: dict = {}  # class -> the depths of its segments, longest first
    reach: dict = {}  # class -> minus their lengths, so ascending
    for d, kd in enumerate(kinds):
        depths.setdefault(kd[1:], []).append(d)
        reach.setdefault(kd[1:], []).append(-kd[0])
    checks: list[list] = [[] for _ in segs0]  # depth -> (window, most need)
    for w, r in need.items():
        cls = (w[0].inertial_label, w[0].block_size)
        c = bisect_right(reach[cls], w[2] - w[3] - 1)  # those as long as w
        if r > c:
            return None
        for v in range(r):  # need <= v once the one at depths[cls][c - v - 1] is placed
            checks[depths[cls][c - v - 1]].append((w, v))
    # The tiling state: the (line, coset) groups of s are runs of starts,
    # each in ascending position: group_of[k] is the group of starts[k],
    # ends[g] is past the run of group g, and low[g] is at or below its
    # lowest point with multiplicity left.
    classes = [(line.inertial_label, line.block_size) for line, _, _ in starts]
    low = [k for k in range(len(starts)) if not k or starts[k - 1][:2] != starts[k][:2]]
    ends = low[1:] + [len(starts)]
    group_of = [g for g, (lo, end) in enumerate(zip(low, ends)) for _ in range(lo, end)]
    total = Counter(kinds)  # kind -> its segments in s0
    placed: dict[tuple, list] = {kd: [] for kd in total}  # kind -> its placed starts indices
    of_class: dict[tuple, list] = {}  # class -> its kinds, longest first
    for kd in total:
        of_class.setdefault(kd[1:], []).append(kd)

    def tiles() -> bool:
        """Whether every group's lowest point with multiplicity left can
        still be the start of an unplaced segment."""
        for g, end in enumerate(ends):
            k = low[g]
            while k < end and remaining[starts[k]] <= 0:
                k += 1
            low[g] = k
            if k == end:
                continue
            line, coset, pos = starts[k]
            for kd in of_class[classes[k]]:
                at = placed[kd]
                if (len(at) < total[kd] and (not at or at[-1] <= k) and all(
                        remaining[line, coset, pos + t] > 0 for t in range(kd[0]))):
                    break
            else:
                return False
        return True

    def move(k: int, kd: tuple, d: int) -> None:
        """Place (d = -1) or remove (d = +1) a segment of kind kd at
        starts[k]: its cells and the needs of its windows move by d, its
        kind's placed starts follow, and a removal lowers its group's low."""
        line, coset, pos = starts[k]
        for t in range(kd[0]):
            remaining[line, coset, pos + t] += d
        for w in inside_of[k, kd[0]]:
            need[w] += d
        if d < 0:
            placed[kd].append(k)
        else:
            placed[kd].pop()
            low[group_of[k]] = min(low[group_of[k]], k)

    inside_of: dict[tuple, list] = {}  # (starts index, length) -> its windows in need
    # The search keeps its own stack, one starts index per placed segment,
    # since a placement is as deep as s0 is long.
    frames: list[int] = []
    k = 0  # the next starts index to try at depth len(frames), if past its kind's last
    while len(frames) < len(segs0):
        depth = len(frames)
        kd = kinds[depth]
        length, cls, at = kd[0], kd[1:], placed[kd]
        for k in range(max(k, at[-1] if at else 0), len(starts)):
            if classes[k] != cls:
                continue
            line, coset, pos = starts[k]
            if any(remaining[line, coset, pos + t] <= 0 for t in range(length)):
                continue
            if (k, length) not in inside_of:
                inside_of[k, length] = [
                    w for w in windows(line, coset, pos, pos + length) if w in need]
            move(k, kd, -1)
            if all(need[w] <= most for w, most in checks[depth]) and tiles():
                break
            move(k, kd, 1)
        else:
            if not frames:
                return None
            k = frames.pop()
            move(k, kinds[depth - 1], 1)
            k += 1
            continue
        frames.append(k)
        k = 0
    return Multisegment(Segment(*starts[k], g.length) for k, g in zip(frames, segs0))


# --- seed-derived opaque traces ---------------------------------------------


def _gl_order(n: int, q: int) -> int:
    out = 1
    for k in range(n):
        out *= q**n - q**k
        if out >> 256:  # _derived_int's 256-bit digest is below any such bound
            break
    return out


def _derived_int(seed: int, tag: str, payload: str, bound: int) -> int:
    """Deterministic value in [1, bound] from (seed, tag, payload)."""
    digest = hashlib.sha256(f"{tag}|{seed}|{payload}".encode()).digest()
    return 1 + int.from_bytes(digest, "big") % max(bound, 1)


def _payload(s: Multisegment, q: PrimePower | None = None) -> str:
    """json.dumps(multisegment_to_json(s) plus "q", sort_keys=True), from the
    text of s's "lines" and "segments" computed once per multisegment."""
    lines, segments = s._json_pieces
    q_item = "" if q is None else f'"q": {{"f": {q.f}, "p": {q.p}}}, '
    return f'{{"lines": {lines}, {q_item}"segments": {segments}}}'


def _k1_unit(s: Multisegment, q: PrimePower, seed: int) -> int:
    """The unit u of k1_trace(s, q, seed)."""
    _require_unramified(s)
    bound = _gl_order(s.total_size, q.q) if len(s) else 1
    u = _derived_int(seed, "k1", _payload(s, q), bound)
    if u % q.p == 0:
        u -= 1  # adjacent to a multiple of p, hence coprime and still >= 1
    return u


def k1_trace(s: Multisegment, q: PrimePower, seed: int) -> int:
    """u * q^statistic(s) with u a seed-derived unit coprime to p, bounded by
    the order of GL_n over the residue field."""
    return _k1_unit(s, q, seed) * q.q ** statistic(s)


def iwahori_trace(s: Multisegment, n: int, seed: int) -> int:
    """Opaque Iwahori-fixed dimension model: a seed-derived value in [1, n!]."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return _derived_int(seed, "iwahori", _payload(s) + f"|n={n}", math.factorial(n))


# --- combinatorial base change ----------------------------------------------


def base_change_shadow(s: Multisegment) -> Multisegment:
    """Replace each segment on a block-m line by m equal-length segments on
    fresh pairwise-distinct unramified cosets; block-1 unramified lines pass
    through unchanged.
    """
    out: list[Segment] = []
    for k, seg in enumerate(s.segments):
        m = seg.line.block_size
        if m == 1 and seg.line.inertial_label == UNRAMIFIED_LABEL:
            out.append(seg)
            continue
        fresh_line = CuspidalLine(UNRAMIFIED_LABEL, 1, UNRAMIFIED_LABEL)
        for t in range(m):
            coset = f"bc:{seg.line.line_id}:{seg.coset}:{seg.start}:{k}:{t}"
            out.append(Segment(fresh_line, coset, seg.start, seg.length))
    return Multisegment(out)


# --- scenarios ---------------------------------------------------------------


class FamilyScenario(_Value):
    """A finite site, a dense subset, and per-(point, field) multisegments."""

    __match_args__ = ("fields", "site", "sigma", "assignment", "unit_seeds",
                      "declared_type_traces", "declared_ratio_valuations")
    # _derived, not a field: fn(*args) by (fn, *args), and ratio_valuation's
    # trace_log entries, filled on first use and shared by every __replace__
    # copy (with_seeds too): a family repeats a few multisegments over many
    # points, and a seed that matters is part of the key
    __slots__ = (*__match_args__, "_derived", "__dict__")  # __dict__: the cached property

    def __init__(self, fields: tuple[PrimePower, ...], site: FiniteSite, sigma: frozenset[str],
                 assignment: Mapping[str, tuple[Multisegment, ...]], unit_seeds: Mapping[str, int],
                 declared_type_traces: Mapping[int, Mapping[str, int]] | None = None,
                 declared_ratio_valuations: Mapping[int, Mapping[str, int]] | None = None,
                 _derived: dict | None = None):
        _setattr(self, "fields", fields)
        _setattr(self, "site", site)
        _setattr(self, "sigma", sigma)
        _setattr(self, "assignment", assignment)
        _setattr(self, "unit_seeds", unit_seeds)
        _setattr(self, "declared_type_traces", declared_type_traces or {})
        _setattr(self, "declared_ratio_valuations", declared_ratio_valuations or {})
        _setattr(self, "_derived", {} if _derived is None else _derived)

    def __replace__(self, /, **changes) -> "FamilyScenario":
        changes.setdefault("_derived", self._derived)
        return super().__replace__(**changes)

    def with_seeds(self, k1: int, iwahori: int) -> "FamilyScenario":
        return self.__replace__(unit_seeds={"k1": k1, "iwahori": iwahori})

    @cached_property
    def _trivializing_degrees(self) -> tuple[int, ...]:
        """Per field slot, the degree of the single collapsed base-change
        step: the lcm of all block sizes occurring in that slot."""
        return tuple(
            math.lcm(1, *(seg.line.block_size for per_field in self.assignment.values()
                          for seg in per_field[j]))
            for j in range(len(self.fields))
        )

    def _unit_seed(self, key: str) -> int:
        if key not in self.unit_seeds:
            raise DomainError(f"missing unit seed {key!r}")
        return self.unit_seeds[key]

    def _derive(self, fn: Callable, *args):
        key = (fn, *args)
        try:
            return self._derived[key]
        except KeyError:
            self._derived[key] = value = fn(*args)
            return value


def scenario_violations(sc: FamilyScenario) -> list[str]:
    problems = list(sc.site.violations)
    if not sc.sigma <= sc.site.points:
        problems.append("sigma is not a subset of the space")
    elif not is_dense(sc.site, sc.sigma):
        problems.append("sigma is not dense")
    if set(sc.assignment) != set(sc.sigma):
        problems.append("assignment keys must be exactly the points of sigma")
    sizes: dict[int, int] = {}
    for x, per_field in sc.assignment.items():
        if len(per_field) != len(sc.fields):
            problems.append(f"point {x!r} assigns {len(per_field)} multisegments "
                            f"for {len(sc.fields)} fields")
            continue
        for i, s in enumerate(per_field):
            if not len(s):
                problems.append(f"empty multisegment at point {x!r}, field {i}")
                continue
            n = s.total_size
            if sizes.setdefault(i, n) != n:
                problems.append(
                    f"field {i} mixes ambient sizes {sizes[i]} and {n}"
                )
    for key in ("k1", "iwahori"):
        if key not in sc.unit_seeds:
            problems.append(f"missing unit seed {key!r}")
    # a declared value the pipeline never reads (sorted, so that no message
    # follows the hash seed)
    for name, block in (("type_traces", sc.declared_type_traces),
                        ("ratio_valuations", sc.declared_ratio_valuations)):
        for i, per_point in sorted(block.items()):
            if not 0 <= i < len(sc.fields):
                problems.append(f"declared {name} index {i} is past the last field")
            problems.extend(f"declared {name} index {i} names {x!r}, not a point of sigma"
                            for x in sorted(set(per_point) - sc.sigma))
            if name == "type_traces":  # 1 when a twist witness exists, else 0
                problems.extend(f"declared type_traces index {i} at {x!r} is {v}, not 0 or 1"
                                for x, v in sorted(per_point.items()) if v not in (0, 1))
    return problems


def ratio_valuation(
    sc: FamilyScenario, x: str, j: int, log: list | None = None
) -> int:
    """Valuation, in units of v_p(q'), of the ratio of the depth-one trace
    over the quadratic extension to the one over the base-changed field.

    Iwahori factors at the other slots cancel; the result is the weighted
    statistic of the slot-j multisegment and is seed-independent.

    The trace_log entry, less its "point", is derived once in sc._derived,
    keyed by all it depends on: the whole point tuple (the other slots'
    Iwahori factors enter t_prime), the slot, q' and both unit seeds.  Each
    call with a log appends it with "point" set to x.
    """
    if x not in sc.sigma:
        raise DomainError(f"point {x!r} is not in sigma")
    if not 0 <= j < len(sc.fields):
        raise DomainError(f"field index {j} out of range")
    qj = sc.fields[j]
    f_prime = qj.f * sc._trivializing_degrees[j]  # q' = p^f_prime
    k1_seed = sc._unit_seed("k1")
    key = ("ratio_valuation", sc.assignment[x], j, qj.p, f_prime, k1_seed,
           sc.unit_seeds.get("iwahori"))
    entry = sc._derived.get(key)
    if entry is None:
        qprime = PrimePower(qj.p, f_prime)
        qsecond = PrimePower(qj.p, 2 * f_prime)
        shadow = sc._derive(base_change_shadow, sc.assignment[x][j])
        iw_product = 1
        for i, s in enumerate(sc.assignment[x]):
            if i != j:
                shadow_i = sc._derive(base_change_shadow, s)
                iw_product *= sc._derive(
                    iwahori_trace, shadow_i, s.total_size, sc._unit_seed("iwahori")
                )
        u_prime = _k1_unit(shadow, qprime, k1_seed)
        u_second = _k1_unit(shadow, qsecond, k1_seed)
        stat = statistic(shadow)
        t_prime = u_prime * qprime.q**stat * iw_product
        t_second = u_second * qsecond.q**stat * iw_product
        # read off the factors: iw_product cancels, v_p(q^stat) is f * stat
        v = vp(u_second, qj.p) - vp(u_prime, qj.p) + (qsecond.f - qprime.f) * stat
        if v % f_prime:
            raise ModelViolation(
                "ratio valuation is not an integer multiple of v_p(q')",
                certificate={
                    "reason": "non-integral ratio valuation",
                    "point": x,
                    "field": j,
                    "v_p": v,
                    "f": f_prime,
                },
            )
        sc._derived[key] = entry = {
            "stage": "ratio_valuation",
            "field": j,
            "q_prime": {"p": qj.p, "f": f_prime},
            "t_prime": _decimal(t_prime),
            "t_second": _decimal(t_second),
            "valuation": v // f_prime,
        }
    if log is not None:
        log.append({**entry, "point": x})
    return entry["valuation"]


# --- the rigidity pipeline ---------------------------------------------------


class RigidityReport(_Value):
    """Outcome of the two-step pipeline around a base point."""

    __slots__ = __match_args__ = ("x0", "locus", "orbits", "verdicts", "trace_log", "seeds")

    def __init__(self, x0: str, locus: tuple[str, ...],
                 orbits: tuple[tuple[tuple[str, int, int], ...], ...],
                 verdicts: tuple[dict, ...], trace_log: tuple[dict, ...],
                 seeds: tuple[tuple[str, int], ...]):
        _setattr(self, "x0", x0)
        _setattr(self, "locus", locus)
        _setattr(self, "orbits", orbits)  # per field: (label, length, mult)
        _setattr(self, "verdicts", verdicts)
        _setattr(self, "trace_log", trace_log)
        _setattr(self, "seeds", seeds)

    @property
    def has_violations(self) -> bool:
        return any(v["status"] == "violation" for v in self.verdicts)

    def core(self) -> dict:
        """The seed-independent part of the report."""
        return {
            "x0": self.x0,
            "X0": list(self.locus),
            "orbits": [
                [
                    {"inertial_label": lab, "length": ln, "multiplicity": m}
                    for lab, ln, m in orbit
                ]
                for orbit in self.orbits
            ],
            "verdicts": list(self.verdicts),
        }

    def to_json(self) -> dict:
        out = self.core()
        out["seeds"] = dict(self.seeds)
        out["trace_log"] = list(self.trace_log)
        return out


def _orbit_tuple(s: Multisegment) -> tuple[tuple[str, int, int], ...]:
    return tuple(
        sorted((lab, ln, m) for (lab, ln), m in twist_orbit(s).items())
    )


def _verdict(s0s: tuple, ss: tuple, slots: tuple) -> dict:
    """The verdict body {status, fields[, certificates]} of a point holding
    ss against a base point holding s0s.  Per slot, slots holds the twist
    witness, the ratio valuations at the point and at the base point, the
    declared (type trace, ratio valuation) at the point (None where none is)
    and, where one is, the statistics of the shadows of s and s0.  A
    declared value that disagrees with the computed one, or a comparable
    slot with equal valuation but a different twist orbit, is a violation."""
    problems = []
    details = []
    for i, (s0, s, (witness, rv, rv0, declared, stats)) in enumerate(zip(s0s, ss, slots)):
        computed_t = 1 if witness is not None else 0
        entry = {"field": i, "type_trace": computed_t, "ratio_valuation": rv,
                 "base_ratio_valuation": rv0}
        if witness is not None:
            entry["twist_witness"] = multisegment_to_json(witness)
        details.append(entry)
        for name, used, computed in zip(("type trace", "ratio valuation"), declared,
                                        (computed_t, rv)):
            if used is not None and used != computed:
                problems.append(
                    {
                        "reason": f"declared {name} disagrees with the one "
                        "computed from the assignment",
                        "field": i,
                        "declared": used,
                        "computed": computed,
                        # the shadow's statistic: block_size * l(l-1)/2 per segment
                        "weighted_statistic": stats[0],
                        "base_weighted_statistic": stats[1],
                    }
                )
                break
        else:
            # Inside the locus both traces match the base point's values.
            if twist_orbit(s) != twist_orbit(s0):
                problems.append(
                    {
                        "reason": "comparable point with equal valuation but a "
                        "different twist orbit; contradicts strict statistic "
                        "monotonicity",
                        "field": i,
                        "orbit": [list(t) for t in _orbit_tuple(s)],
                        "base_orbit": [list(t) for t in _orbit_tuple(s0)],
                    }
                )
    body = {"status": "violation" if problems else "certified", "fields": details}
    if problems:
        body["certificates"] = problems
    return body


def _certify_point(sc: FamilyScenario, x0: str, x: str, log: list) -> dict:
    """The verdict at x: what _verdict reads is gathered per slot (the ratio
    valuations at x and x0 append their trace_log entries, in that order),
    and the body is derived once per value of all of it in sc._derived."""
    slots = []
    for i, (s0, s) in enumerate(zip(sc.assignment[x0], sc.assignment[x])):
        witness = sc._derive(twist_comparison_witness, s0, s)
        rv, rv0 = ratio_valuation(sc, x, i, log), ratio_valuation(sc, x0, i, log)
        declared = (sc.declared_type_traces.get(i, {}).get(x),
                    sc.declared_ratio_valuations.get(i, {}).get(x))
        stats = None if declared == (None, None) else tuple(
            statistic(sc._derive(base_change_shadow, t)) for t in (s, s0))
        slots.append((witness, rv, rv0, declared, stats))
    return {"point": x, **sc._derive(_verdict, sc.assignment[x0], sc.assignment[x], tuple(slots))}


def run_pipeline(sc: FamilyScenario, x0: str) -> RigidityReport:
    """Two-step rigidity decision around x0.

    Step 1 intersects the clopen constancy loci of the per-field type traces;
    step 2 shrinks further by constancy of the per-field ratio valuations.
    Every surviving dense point is then certified or flagged.

    A family repeats a few multisegments over many points, so twist
    witnesses, shadows, Iwahori factors, ratio valuations and verdict bodies
    are kept by value in sc._derived, for this run, later runs and every
    with_seeds copy.
    """
    problems = scenario_violations(sc)
    if problems:
        raise DomainError("invalid scenario: " + "; ".join(problems))
    if x0 not in sc.sigma:
        raise DomainError(f"base point {x0!r} must lie in sigma")

    log: list = []
    nf = len(sc.fields)
    locus = sc.site.points
    for i in range(nf):
        declared = sc.declared_type_traces.get(i, {})
        sigma_vals = {}
        s0 = sc.assignment[x0][i]
        for x in sorted(sc.sigma):
            witness = sc._derive(twist_comparison_witness, s0, sc.assignment[x][i])
            computed = 1 if witness is not None else 0
            value = declared.get(x, computed)
            sigma_vals[x] = value
            log.append(
                {
                    "stage": "type_trace",
                    "field": i,
                    "point": x,
                    "value": value,
                    "declared": x in declared,
                }
            )
        trace = SimulatedTrace.from_sigma(
            sc.site, sigma_vals, f"type trace, field {i}"
        )
        locus &= clopen_locus(trace, x0)

    for j in range(nf):
        sub = subspace(sc.site, locus)
        declared = sc.declared_ratio_valuations.get(j, {})
        # a declared point's valuation is still computed: it is in the log
        sigma_vals = {
            x: declared.get(x, ratio_valuation(sc, x, j, log)) for x in sorted(locus & sc.sigma)
        }
        trace = SimulatedTrace.from_sigma(
            sub, sigma_vals, f"ratio valuation, field {j}"
        )
        locus = clopen_locus(trace, x0)

    verdicts = tuple(
        _certify_point(sc, x0, x, log)
        for x in sorted(locus & sc.sigma)
    )
    return RigidityReport(
        x0=x0,
        locus=tuple(sorted(locus)),
        orbits=tuple(_orbit_tuple(s) for s in sc.assignment[x0]),
        verdicts=verdicts,
        trace_log=tuple(log),
        seeds=tuple(sorted(sc.unit_seeds.items())),
    )


# --- JSON form ---------------------------------------------------------------


def _names(value, name: str) -> list[str]:
    """A JSON array of point names."""
    for x in _json_typed(value, list, name):
        _json_typed(x, str, f"a point in {name}")
    return value


def scenario_from_json(doc: dict) -> FamilyScenario:
    def _index(key: str, name: str) -> int:
        """A slot index: an object key, so a str of canonical decimal digits."""
        if not key.isdigit() or key != str(int(key)):
            raise DomainError(f"{name} index must be decimal digits, got {key!r}")
        return int(key)

    def _indexed(block: dict, name: str) -> dict[int, dict[str, int]]:
        return {
            _index(i, name): {
                x: _json_int(v, f"{name} value")
                for x, v in _json_typed(per_point, dict, f"{name} {i}").items()
            }
            for i, per_point in _json_typed(block, dict, name).items()
        }

    def _field(e: dict) -> PrimePower:
        _json_keys(e, ("p", "f"), "a field")
        return PrimePower(_json_int(e["p"], "p"), _json_int(e["f"], "f"))

    _json_keys(doc, ("fields", "points", "closed_sets", "sigma", "lines", "assignment",
                     "unit_seeds", "declared"), "a scenario")
    try:
        fields = tuple(
            _field(e) for e in _json_typed(doc["fields"], list, '"fields"')
        )
        site = FiniteSite.of(
            _names(doc["points"], '"points"'),
            (
                _names(c, "a closed set")
                for c in _json_typed(doc["closed_sets"], list, '"closed_sets"')
            ),
        )
        sigma = frozenset(_names(doc["sigma"], '"sigma"'))
        lines = lines_from_json(doc.get("lines", []))
        parsed: dict = {}  # one Multisegment per distinct document

        def _multisegment(m) -> Multisegment:
            key = repr(m)  # equal only for equal JSON values
            if key not in parsed:
                parsed[key] = multisegment_from_json(m, lines)
            return parsed[key]

        assignment = {
            x: tuple(map(_multisegment, _json_typed(per_field, list, f"assignment {x!r}")))
            for x, per_field in _json_typed(doc["assignment"], dict, '"assignment"').items()
        }
        # one line per id across points: a point may re-declare a line, or use
        # it undeclared, only as the line the other points see (each distinct
        # line once, in document order)
        for line in dict.fromkeys(g.line for s in parsed.values() for g in s):
            _declare(lines, line)
        seeds = {
            k: _json_int(v, f"unit seed {k!r}")
            for k, v in _json_keys(doc["unit_seeds"], ("k1", "iwahori"), '"unit_seeds"').items()
        }
        declared = _json_typed(doc.get("declared", {}), dict, '"declared"')
        unknown = sorted(declared.keys() - {"type_traces", "ratio_valuations"})
        if unknown:
            raise DomainError(f'"declared" has unknown kinds {unknown}')
        type_traces = _indexed(declared.get("type_traces", {}), "type_traces")
        ratio_valuations = _indexed(
            declared.get("ratio_valuations", {}), "ratio_valuations"
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed scenario: {exc}") from exc

    return FamilyScenario(
        fields=fields,
        site=site,
        sigma=sigma,
        assignment=assignment,
        unit_seeds=seeds,
        declared_type_traces=type_traces,
        declared_ratio_valuations=ratio_valuations,
    )


def scenario_to_json(sc: FamilyScenario) -> dict:
    lines = sorted(
        {seg.line for per in sc.assignment.values() for s in per for seg in s},
        key=lambda l: l.line_id,
    )
    out = {
        "fields": [{"p": q.p, "f": q.f} for q in sc.fields],
        "points": sorted(sc.site.points),
        "closed_sets": sorted(
            (sorted(c) for c in sc.site.closed_sets), key=lambda c: (len(c), c)
        ),
        "sigma": sorted(sc.sigma),
        "lines": [line_to_json(l) for l in lines],
        "assignment": {
            x: [{"segments": [segment_to_json(g) for g in s]} for s in per_field]
            for x, per_field in sorted(sc.assignment.items())
        },
        "unit_seeds": dict(sorted(sc.unit_seeds.items())),
    }
    declared = {}
    if sc.declared_type_traces:
        declared["type_traces"] = {
            str(i): dict(v) for i, v in sc.declared_type_traces.items()
        }
    if sc.declared_ratio_valuations:
        declared["ratio_valuations"] = {
            str(i): dict(v) for i, v in sc.declared_ratio_valuations.items()
        }
    if declared:
        out["declared"] = declared
    return out
