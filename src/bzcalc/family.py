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
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .exceptions import DomainError, ModelViolation
from .segments import (
    CuspidalLine,
    Multisegment,
    Segment,
    leq,
    lines_from_json,
    multisegment_from_json,
    multisegment_to_json,
    statistic,
    support,
    twist_orbit,
    twist_orbit_equal,
)
from .dimensions import PrimePower, vp
from .weildeligne import monodromy_weight

UNRAMIFIED_LABEL = "unr"


# --- finite topological sites ----------------------------------------------


@dataclass(frozen=True)
class FiniteSite:
    """A finite topological space given by its family of closed sets."""

    points: frozenset[str]
    closed_sets: frozenset[frozenset[str]]

    @classmethod
    def of(cls, points, closed_sets) -> "FiniteSite":
        return cls(
            frozenset(points),
            frozenset(frozenset(c) for c in closed_sets),
        )


def site_violations(site: FiniteSite) -> list[str]:
    """Instances of violated closed-set axioms, empty iff the site is valid."""
    problems = []
    if frozenset() not in site.closed_sets:
        problems.append("empty set is not closed")
    if site.points not in site.closed_sets:
        problems.append("whole space is not closed")
    for c in site.closed_sets:
        if not c <= site.points:
            problems.append(f"closed set {sorted(c)} is not a subset of the space")
    sets = sorted(site.closed_sets, key=sorted)
    for a in sets:
        for b in sets:
            if a | b not in site.closed_sets:
                problems.append(f"union {sorted(a)} | {sorted(b)} is not closed")
            if a & b not in site.closed_sets:
                problems.append(
                    f"intersection {sorted(a)} & {sorted(b)} is not closed"
                )
    return problems


def validate_site(site: FiniteSite) -> bool:
    return not site_violations(site)


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


@dataclass(frozen=True)
class SimulatedTrace:
    """A total integer-valued function on the site with closed fibers."""

    site: FiniteSite
    values: tuple[tuple[str, int], ...]
    label: str

    def value(self, x: str) -> int:
        return dict(self.values)[x]

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
            for x in fiber:
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


def twist_comparison_witness(
    s0: Multisegment, s: Multisegment
) -> Multisegment | None:
    """A twist s0' of s0 with support(s0') = support(s) and s0' <= s, or None.

    Each segment of s0 may move independently to any (line, coset, start)
    with matching inertial label and block size.
    """
    if _inertial_point_bag(s0) != _inertial_point_bag(s):
        return None
    remaining = support(s)
    segs0 = sorted(s0.segments, key=lambda g: -g.length)

    def place(idx: int, placed: list[Segment]) -> Multisegment | None:
        if idx == len(segs0):
            candidate = Multisegment(placed)
            return candidate if leq(candidate, s) else None
        g = segs0[idx]
        tried: set[tuple[CuspidalLine, str, int]] = set()
        for (line, coset, pos), mult in list(remaining.items()):
            if mult <= 0:
                continue
            if (
                line.inertial_label != g.line.inertial_label
                or line.block_size != g.line.block_size
            ):
                continue
            key = (line, coset, pos)
            if key in tried:
                continue
            tried.add(key)
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


def type_trace(s0: Multisegment, s: Multisegment) -> int:
    """1 iff s dominates some twist of s0 with the same support; else 0."""
    return 1 if twist_comparison_witness(s0, s) is not None else 0


# --- seed-derived opaque traces ---------------------------------------------


def _gl_order(n: int, q: int) -> int:
    out = 1
    for k in range(n):
        out *= q**n - q**k
    return out


def _derived_int(seed: int, tag: str, payload: str, bound: int) -> int:
    """Deterministic value in [1, bound] from (seed, tag, payload)."""
    digest = hashlib.sha256(f"{tag}|{seed}|{payload}".encode()).digest()
    return 1 + int.from_bytes(digest, "big") % max(bound, 1)


def _payload(s: Multisegment, q: PrimePower | None = None) -> str:
    doc = multisegment_to_json(s)
    if q is not None:
        doc["q"] = {"p": q.p, "f": q.f}
    return json.dumps(doc, sort_keys=True)


def k1_trace(s: Multisegment, q: PrimePower, seed: int) -> int:
    """u * q^statistic(s) with u a seed-derived unit coprime to p, bounded by
    the order of GL_n over the residue field."""
    for seg in s:
        if seg.line.block_size != 1:
            raise DomainError("k1_trace requires unramified (block-1) support")
    bound = _gl_order(s.total_size, q.q) if len(s) else 1
    u = _derived_int(seed, "k1", _payload(s, q), bound)
    if u % q.p == 0:
        u -= 1  # adjacent to a multiple of p, hence coprime and still >= 1
    return u * q.q ** statistic(s)


def iwahori_trace(s: Multisegment, n: int, seed: int) -> int:
    """Opaque Iwahori-fixed dimension model: a seed-derived value in [1, n!]."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return _derived_int(seed, "iwahori", _payload(s) + f"|n={n}", math.factorial(n))


# --- combinatorial base change ----------------------------------------------


def base_change_shadow(
    s: Multisegment, per_line_degree: Mapping[str, int] | None = None
) -> Multisegment:
    """Replace each segment on a block-m line by m equal-length segments on
    fresh pairwise-distinct unramified cosets; block-1 unramified lines pass
    through unchanged.

    per_line_degree, when given, must assign each line its block size.
    """
    if per_line_degree is not None:
        for seg in s:
            declared = per_line_degree.get(seg.line.line_id)
            if declared != seg.line.block_size:
                raise DomainError(
                    f"degree {declared!r} for line {seg.line.line_id!r} does "
                    f"not match its block size {seg.line.block_size}"
                )
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


@dataclass(frozen=True)
class FamilyScenario:
    """A finite site, a dense subset, and per-(point, field) multisegments."""

    fields: tuple[PrimePower, ...]
    site: FiniteSite
    sigma: frozenset[str]
    assignment: Mapping[str, tuple[Multisegment, ...]]
    unit_seeds: Mapping[str, int]
    declared_type_traces: Mapping[int, Mapping[str, int]] = field(
        default_factory=dict
    )
    declared_ratio_valuations: Mapping[int, Mapping[str, int]] = field(
        default_factory=dict
    )

    def with_seeds(self, k1: int, iwahori: int) -> "FamilyScenario":
        return FamilyScenario(
            self.fields,
            self.site,
            self.sigma,
            self.assignment,
            {"k1": k1, "iwahori": iwahori},
            self.declared_type_traces,
            self.declared_ratio_valuations,
        )


def scenario_violations(sc: FamilyScenario) -> list[str]:
    problems = site_violations(sc.site)
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
    return problems


def validate_scenario(sc: FamilyScenario) -> bool:
    return not scenario_violations(sc)


def _trivializing_degree(sc: FamilyScenario, j: int) -> int:
    """Degree of the single collapsed base-change step for field slot j:
    the lcm of all block sizes occurring in that slot."""
    d = 1
    for per_field in sc.assignment.values():
        for seg in per_field[j]:
            d = math.lcm(d, seg.line.block_size)
    return d


def ratio_valuation(
    sc: FamilyScenario, x: str, j: int, log: list | None = None
) -> int:
    """Valuation, in units of v_p(q'), of the ratio of the depth-one trace
    over the quadratic extension to the one over the base-changed field.

    Iwahori factors at the other slots cancel; the result is the weighted
    statistic of the slot-j multisegment and is seed-independent.
    """
    if x not in sc.sigma:
        raise DomainError(f"point {x!r} is not in sigma")
    if not 0 <= j < len(sc.fields):
        raise DomainError(f"field index {j} out of range")
    qj = sc.fields[j]
    qprime = PrimePower(qj.p, qj.f * _trivializing_degree(sc, j))
    qsecond = PrimePower(qj.p, 2 * qprime.f)
    k1_seed = sc.unit_seeds["k1"]
    iw_seed = sc.unit_seeds["iwahori"]
    shadow = base_change_shadow(sc.assignment[x][j])
    iw_product = 1
    for i, s in enumerate(sc.assignment[x]):
        if i == j:
            continue
        iw_product *= iwahori_trace(base_change_shadow(s), s.total_size, iw_seed)
    t_prime = k1_trace(shadow, qprime, k1_seed) * iw_product
    t_second = k1_trace(shadow, qsecond, k1_seed) * iw_product
    v = vp(t_second, qj.p) - vp(t_prime, qj.p)
    if v % qprime.f:
        raise ModelViolation(
            "ratio valuation is not an integer multiple of v_p(q')",
            certificate={
                "reason": "non-integral ratio valuation",
                "point": x,
                "field": j,
                "v_p": v,
                "f": qprime.f,
            },
        )
    result = v // qprime.f
    if log is not None:
        log.append(
            {
                "stage": "ratio_valuation",
                "point": x,
                "field": j,
                "q_prime": {"p": qprime.p, "f": qprime.f},
                "t_prime": str(t_prime),
                "t_second": str(t_second),
                "valuation": result,
            }
        )
    return result


# --- the rigidity pipeline ---------------------------------------------------


@dataclass(frozen=True)
class RigidityReport:
    """Outcome of the two-step pipeline around a base point."""

    x0: str
    locus: tuple[str, ...]
    orbits: tuple[tuple[tuple[str, int, int], ...], ...]  # per field: (label, length, mult)
    verdicts: tuple[dict, ...]
    trace_log: tuple[dict, ...]
    seeds: tuple[tuple[str, int], ...]

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


def _certify_point(
    sc: FamilyScenario, x0: str, x: str, used_traces: dict, log: list
) -> dict:
    """Recompute every trace at x from the assignments and compare against the
    values used to build the locus; any mismatch, or a comparable point with
    equal valuation but a different twist orbit, is a violation."""
    problems = []
    details = []
    for i in range(len(sc.fields)):
        s0 = sc.assignment[x0][i]
        s = sc.assignment[x][i]
        witness = twist_comparison_witness(s0, s)
        computed_t = 1 if witness is not None else 0
        computed_rv = ratio_valuation(sc, x, i, log)
        rv_x0 = ratio_valuation(sc, x0, i, log)
        used_t, used_rv = used_traces[(x, i)]
        entry = {
            "field": i,
            "type_trace": computed_t,
            "ratio_valuation": computed_rv,
            "base_ratio_valuation": rv_x0,
        }
        if witness is not None:
            entry["twist_witness"] = multisegment_to_json(witness)
        details.append(entry)
        if used_t != computed_t:
            problems.append(
                {
                    "reason": "declared type trace disagrees with the one "
                    "computed from the assignment",
                    "field": i,
                    "declared": used_t,
                    "computed": computed_t,
                    "weighted_statistic": monodromy_weight(s),
                    "base_weighted_statistic": monodromy_weight(s0),
                }
            )
            continue
        if used_rv != computed_rv:
            problems.append(
                {
                    "reason": "declared ratio valuation disagrees with the one "
                    "computed from the assignment",
                    "field": i,
                    "declared": used_rv,
                    "computed": computed_rv,
                    "weighted_statistic": monodromy_weight(s),
                    "base_weighted_statistic": monodromy_weight(s0),
                }
            )
            continue
        # Inside the locus both traces match the base point's values.
        if not twist_orbit_equal(s, s0):
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
    verdict = {
        "point": x,
        "status": "violation" if problems else "certified",
        "fields": details,
    }
    if problems:
        verdict["certificates"] = problems
    return verdict


def run_pipeline(sc: FamilyScenario, x0: str) -> RigidityReport:
    """Two-step rigidity decision around x0.

    Step 1 intersects the clopen constancy loci of the per-field type traces;
    step 2 shrinks further by constancy of the per-field ratio valuations.
    Every surviving dense point is then certified or flagged.
    """
    problems = scenario_violations(sc)
    if problems:
        raise DomainError("invalid scenario: " + "; ".join(problems))
    if x0 not in sc.sigma:
        raise DomainError(f"base point {x0!r} must lie in sigma")

    log: list = []
    nf = len(sc.fields)
    s0s = sc.assignment[x0]
    used_traces: dict[tuple[str, int], list] = {
        (x, i): [None, None] for x in sc.sigma for i in range(nf)
    }

    locus = sc.site.points
    for i in range(nf):
        declared = sc.declared_type_traces.get(i, {})
        sigma_vals = {}
        for x in sorted(sc.sigma):
            computed = type_trace(s0s[i], sc.assignment[x][i])
            value = declared.get(x, computed)
            sigma_vals[x] = value
            used_traces[(x, i)][0] = value
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
        sigma_vals = {}
        for x in sorted(locus & sc.sigma):
            computed = ratio_valuation(sc, x, j, log)
            value = declared.get(x, computed)
            sigma_vals[x] = value
            used_traces[(x, j)][1] = value
        trace = SimulatedTrace.from_sigma(
            sub, sigma_vals, f"ratio valuation, field {j}"
        )
        locus = clopen_locus(trace, x0)

    verdicts = tuple(
        _certify_point(
            sc, x0, x, {k: tuple(v) for k, v in used_traces.items()}, log
        )
        for x in sorted(locus & sc.sigma)
    )
    return RigidityReport(
        x0=x0,
        locus=tuple(sorted(locus)),
        orbits=tuple(_orbit_tuple(s) for s in s0s),
        verdicts=verdicts,
        trace_log=tuple(log),
        seeds=tuple(sorted(sc.unit_seeds.items())),
    )


# --- JSON form ---------------------------------------------------------------


def scenario_from_json(doc: dict) -> FamilyScenario:
    def _indexed(block: dict) -> dict[int, dict[str, int]]:
        return {
            int(i): {x: int(v) for x, v in per_point.items()}
            for i, per_point in block.items()
        }

    try:
        fields = tuple(PrimePower(int(e["p"]), int(e["f"])) for e in doc["fields"])
        site = FiniteSite.of(doc["points"], doc["closed_sets"])
        sigma = frozenset(doc["sigma"])
        lines = lines_from_json(doc.get("lines", []))
        assignment = {
            x: tuple(multisegment_from_json(m, lines) for m in per_field)
            for x, per_field in doc["assignment"].items()
        }
        seeds = {k: int(v) for k, v in doc["unit_seeds"].items()}
        declared = doc.get("declared", {})
        type_traces = _indexed(declared.get("type_traces", {}))
        ratio_valuations = _indexed(declared.get("ratio_valuations", {}))
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
        "lines": [
            {
                "line_id": l.line_id,
                "block_size": l.block_size,
                "inertial_label": l.inertial_label,
            }
            for l in lines
        ],
        "assignment": {
            x: [
                {"segments": multisegment_to_json(s)["segments"]}
                for s in per_field
            ]
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
