"""Command-line surface: JSON in, JSON out, deterministic byte-stable output.

Exit status 0 on success, 1 on a domain error (bad input), 2 on a detected
model violation or failed identity check.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .exceptions import DomainError, ModelViolation
from . import dimensions as dims
from . import family as fam
from . import segments as seg
from . import weildeligne as wd

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VIOLATION = 2

DEFAULT_Q_LIST = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def _load_json(source: str):
    """Parse inline JSON (starts with '{'), stdin ('-'), or a file path."""
    if source.lstrip().startswith("{"):
        text, origin = source, "<inline>"
    elif source == "-":
        text, origin = sys.stdin.read(), "<stdin>"
    else:
        try:
            text = Path(source).read_text(encoding="utf-8")
        except OSError as exc:
            raise DomainError(f"cannot read {source}: {exc}") from exc
        origin = source
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"malformed JSON in {origin} at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        # an integer literal past Python's int-from-str digit limit
        raise DomainError(f"malformed JSON in {origin}: {exc}") from exc


def _emit(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_q(value: str) -> dims.PrimePower:
    try:
        q = int(value)
    except ValueError as exc:
        raise DomainError(f"bad q value {value!r}: not an integer") from exc
    return dims.PrimePower.from_q(q)


def _decimal(x: int) -> str:
    """str(x), with Python's int-to-str digit limit lifted for this call only.

    Exact results can run past the default limit of 4300 digits.  Interpreters
    older than 3.10.7 have no limit and no setter.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(x)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


# --- subcommands -------------------------------------------------------------


def cmd_seg(args) -> int:
    s = seg.multisegment_from_json(_load_json(args.input))
    out: dict = {"multisegment": seg.multisegment_to_json(s)}
    if args.statistic:
        out["statistic"] = seg.statistic(s)
    if args.order:
        out["order"] = [
            seg.multisegment_to_json(seg.Multisegment([g]))["segments"][0]
            for g in seg.admissible_order(s)
        ]
    if args.children:
        out["children"] = [
            seg.multisegment_to_json(c)
            for c in sorted(
                seg.elementary_children(s), key=lambda c: json.dumps(
                    seg.multisegment_to_json(c), sort_keys=True)
            )
        ]
    if args.closure:
        nodes = sorted(
            seg.downward_closure(s),
            key=lambda c: (seg.statistic(c), json.dumps(
                seg.multisegment_to_json(c), sort_keys=True)),
        )
        index = {node: k for k, node in enumerate(nodes)}
        edges = [
            {
                "parent": index[a],
                "child": index[b],
                "lengths": [abc[0], abc[1]],
                "overlap": abc[2],
                "statistic_delta": dims.elementary_statistic_delta(*abc),
            }
            for (a, b), abc in sorted(
                seg.closure_edges(s).items(),
                key=lambda item: (index[item[0][0]], index[item[0][1]]),
            )
        ]
        out["closure"] = {
            "nodes": [seg.multisegment_to_json(n) for n in nodes],
            "edges": edges,
        }
    if args.leq is not None:
        other = seg.multisegment_from_json(_load_json(args.leq))
        out["leq"] = seg.leq(s, other)
    _emit(out, args.output)
    return EXIT_OK


def cmd_dims(args) -> int:
    doc = _load_json(args.input)
    if "multisegment" not in doc or "q" not in doc:
        raise DomainError('dims input needs "multisegment" and "q" keys')
    s = seg.multisegment_from_json(doc["multisegment"])
    try:
        p, f = int(doc["q"]["p"]), int(doc["q"]["f"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"bad q {doc['q']!r}: {exc}") from exc
    q = dims.PrimePower(p, f)
    if not len(s):
        raise DomainError("empty multisegment has no ambient GL_n")
    comp = dims.Composition(g.length for g in seg.admissible_order(s))
    dim = dims.standard_module_k1_dim(s, q)
    _emit(
        {
            "q": {"p": q.p, "f": q.f},
            "flag_count": _decimal(dims.gaussian_flag_count(comp, q)),
            "k1_dim": _decimal(dim),
            "valuation_statistic": dims.valuation_statistic(dim, q),
        },
        args.output,
    )
    return EXIT_OK


def cmd_identity_check(args) -> int:
    n_max = args.n_max
    bound = dims._alternating_sum_bound()
    if n_max > bound:
        raise DomainError(f"n_max {n_max} exceeds bound {bound}")
    qs = [_parse_q(v) for v in args.q.split(",")] if args.q else [
        dims.PrimePower.from_q(v) for v in DEFAULT_Q_LIST
    ]
    rows = []
    ok = True
    for n in range(1, n_max + 1):
        for q in qs:
            lhs = dims.parabolic_alternating_sum(n, q)
            rhs = dims.steinberg_k1_dim(n, q)
            match = lhs == rhs
            ok = ok and match
            rows.append(
                {
                    "n": n,
                    "q": q.q,
                    "alternating_sum": _decimal(lhs),
                    "steinberg_dim": _decimal(rhs),
                    "pass": match,
                }
            )
    _emit({"rows": rows, "all_pass": ok}, args.output)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_wd(args) -> int:
    s = seg.multisegment_from_json(_load_json(args.input))
    shadow = wd.wd_from_multisegment(s)
    mat = wd.exp_nilpotent(shadow.partition)
    count = wd.nonzero_count(mat)
    closed = wd.partition_statistic(shadow.partition)
    _emit(
        {
            "shadow": wd.wd_to_json(shadow),
            "exp": [[str(x) for x in row] for row in mat.entries],
            "nonzero_count": count,
            "closed_form": closed,
            "match": count == closed,
        },
        args.output,
    )
    return EXIT_OK


def cmd_family(args) -> int:
    sc = fam.scenario_from_json(_load_json(args.scenario))
    report = fam.run_pipeline(sc, args.x0)
    if args.seeds:
        core = report.core()
        for k in range(1, args.seeds):
            rerun = fam.run_pipeline(sc.with_seeds(1000 + 7 * k, 2000 + 11 * k), args.x0)
            if rerun.core() != core:
                raise ModelViolation(
                    "report is not seed-independent",
                    certificate={"reason": "seed-dependent verdict", "seed_index": k},
                )
    _emit(report.to_json(), args.report)
    return EXIT_VIOLATION if report.has_violations else EXIT_OK


def cmd_selftest(args) -> int:
    checks = []

    def check(name: str, passed: bool) -> None:
        checks.append((name, passed))
        print(f"{'PASS' if passed else 'FAIL'} {name}")

    qs = [dims.PrimePower.from_q(v) for v in DEFAULT_Q_LIST]
    check(
        "steinberg identity n<=6",
        all(
            dims.parabolic_alternating_sum(n, q) == dims.steinberg_k1_dim(n, q)
            for n in range(1, 7)
            for q in qs
        ),
    )
    check(
        "flag counts coprime to p",
        all(
            dims.gaussian_flag_count(c, q) % q.p == 1
            for n in range(1, 7)
            for c in dims.compositions(n)
            for q in qs
        ),
    )
    check(
        "exp(N) nonzero count n<=8",
        all(
            wd.nonzero_count_exp(p) == wd.partition_statistic(p)
            for n in range(1, 9)
            for p in _partitions(n)
        ),
    )
    line = seg.CuspidalLine("unr")
    steinberg = seg.Multisegment([seg.Segment(line, "c0", 0, 4)])
    check(
        "valuation of standard module",
        all(
            dims.valuation_statistic(dims.standard_module_k1_dim(steinberg, q), q)
            == seg.statistic(steinberg)
            for q in qs
        ),
    )
    ok = all(passed for _, passed in checks)
    return EXIT_OK if ok else EXIT_VIOLATION


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield wd.JordanPartition(())
        return
    for head in range(min(n, largest), 0, -1):
        for rest in _partitions(n - head, head):
            yield wd.JordanPartition((head,) + rest.blocks)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bzcalc",
        description="Exact multisegment calculus, fixed-vector dimensions, "
        "monodromy shadows, and family rigidity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seg", help="multisegment combinatorics")
    p.add_argument("input", help="path, '-', or inline JSON")
    p.add_argument("--order", action="store_true")
    p.add_argument("--children", action="store_true")
    p.add_argument("--closure", action="store_true")
    p.add_argument("--leq", metavar="OTHER", help="path or inline JSON")
    p.add_argument("--statistic", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_seg)

    p = sub.add_parser("dims", help="exact fixed-vector dimensions")
    p.add_argument("input", help="path, '-', or inline JSON")
    p.add_argument("--output")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("identity-check", help="alternating sum vs q^(n(n-1)/2)")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--q", help="comma-separated q values (prime powers)")
    p.add_argument("--output")
    p.set_defaults(func=cmd_identity_check)

    p = sub.add_parser("wd", help="monodromy shadow and exact exp(N)")
    p.add_argument("input", help="path, '-', or inline JSON")
    p.add_argument("--output")
    p.set_defaults(func=cmd_wd)

    p = sub.add_parser("family", help="run the rigidity pipeline on a scenario")
    p.add_argument("scenario", help="path, '-', or inline JSON")
    p.add_argument("x0", help="base point (must lie in sigma)")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.add_argument(
        "--seeds", type=int, metavar="K",
        help="rerun under K seed choices and require identical verdicts",
    )
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("selftest", help="run the built-in identity battery")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ModelViolation as exc:
        print(f"model violation: {exc}", file=sys.stderr)
        print(json.dumps({"certificate": exc.certificate}, sort_keys=True, indent=2))
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
