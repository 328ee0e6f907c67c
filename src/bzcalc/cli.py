"""Command-line surface: JSON in, JSON out, deterministic byte-stable output.

Exit status 0 on success, 1 on a domain error (bad input), 2 on a detected
model violation or failed identity check.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .exceptions import DomainError, ModelViolation
from . import dimensions as dims
from . import segments as seg

# family and weildeligne are imported by the subcommands that run them, so
# seg, dims and identity-check never compile them.

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VIOLATION = 2

DEFAULT_Q_LIST = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def _load_json(source: str):
    """Parse inline JSON (starts with '{'), stdin ('-'), or a file path."""
    if source.lstrip().startswith("{"):
        text, origin = source, "<inline>"
    else:
        origin = "<stdin>" if source == "-" else source
        try:
            if source == "-":  # stdin's bytes, decoded strictly; a replaced stdin has text
                text = getattr(sys.stdin, "buffer", sys.stdin).read()
                text = text if isinstance(text, str) else text.decode("utf-8")
            else:
                with open(source, encoding="utf-8") as fh:
                    text = fh.read()
        except (OSError, ValueError) as exc:  # ValueError: bytes that are not UTF-8
            raise DomainError(f"cannot read {origin}: {exc}") from exc
    try:
        return json.loads(text)
    except RecursionError:
        raise DomainError(f"malformed JSON in {origin}: nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"malformed JSON in {origin} at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        # an integer literal past Python's int-from-str digit limit
        raise DomainError(f"malformed JSON in {origin}: {exc}") from exc


_encode_str = json.encoder.encode_basestring_ascii


class _Rendered:
    """An array whose items _dumps does not walk: texts(indent) yields, for
    each of the size items, the text _dumps would write for it at indent."""

    __slots__ = ("size", "texts")

    def __init__(self, size: int, texts):
        self.size = size
        self.texts = texts

    def __len__(self) -> int:
        return self.size


_BATCH = 1024  # pieces of a streamed report held before they are written


def _dumps(doc, indent: str = "", flush=None) -> str:
    """json.dumps(doc, sort_keys=True, indent=2), byte for byte, for a
    document of dicts with str keys, lists, tuples, str, int, bool, None
    and _Rendered arrays.  Every line after the first is indented by indent
    as well.

    json.dumps with an indent falls back to CPython's pure-Python encoder,
    which yields separator, key and value as separate strings.  Here the
    text of a line up to and including a scalar value (separator, indent,
    key and value) is one string, and the strings are joined once.  With
    flush (a stream's writelines), every _BATCH pieces go to flush unjoined,
    so no batch is copied, and only the rest is joined and returned.
    """
    pieces: list[str] = []
    append = pieces.append
    batch = _BATCH if flush else sys.maxsize

    def write(value, head: str, indent: str) -> None:
        # head: the text before value on its line, not yet written
        if isinstance(value, str):
            append(head + _encode_str(value))
        elif value is None:
            append(head + "null")
        elif value is True:
            append(head + "true")
        elif value is False:
            append(head + "false")
        elif isinstance(value, int):
            append(head + int.__repr__(value))
        elif isinstance(value, dict):
            if not value:
                append(head + "{}")
                return
            inner = indent + "  "
            lead = head + "{\n" + inner
            for key, item in sorted(value.items()):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                write(item, lead + _encode_str(key) + ": ", inner)
                lead = ",\n" + inner
            append("\n" + indent + "}")
        elif isinstance(value, (list, tuple, _Rendered)):
            if not value:
                append(head + "[]")
                return
            inner = indent + "  "
            lead = head + "[\n" + inner
            rendered = isinstance(value, _Rendered)
            for item in value.texts(inner) if rendered else value:
                if rendered:
                    append(lead)
                    append(item)
                else:
                    write(item, lead, inner)
                lead = ",\n" + inner
                if len(pieces) >= batch:
                    flush(pieces)
                    pieces.clear()
            append("\n" + indent + "]")
        else:
            raise TypeError(
                f"Object of type {type(value).__name__} is not JSON serializable"
            )

    write(doc, "", indent)
    return "".join(pieces)


def _multisegments(nodes: list, lines: list) -> _Rendered:
    """The array of multisegment_to_json(node) for node in nodes, each of
    whose "lines" value is lines."""

    def texts(indent: str):
        i1 = indent + "  "
        i2 = i1 + "  "
        i3 = i2 + "  "
        head = "{\n" + i1 + '"lines": ' + _dumps(lines, i1) + ",\n" + i1 + '"segments": ['
        segment = (
            "\n" + i2 + "{\n" + i3 + '"coset": %s,\n' + i3 + '"len": %d,\n'
            + i3 + '"line": %s,\n' + i3 + '"start": %d\n' + i2 + "}"
        )
        tail = "\n" + i1 + "]\n" + indent + "}"
        for node in nodes:
            if not node.segments:
                yield head + "]\n" + indent + "}"
                continue
            yield head + ",".join([
                segment % (_encode_str(g.coset), g.length, _encode_str(g.line.line_id), g.start)
                for g in node.segments
            ]) + tail

    return _Rendered(len(nodes), texts)


def _edges(rows: list) -> _Rendered:
    """The "edges" array of seg --closure, from sorted (parent index,
    child index, (a, b, c)) rows."""

    def texts(indent: str):
        i1 = indent + "  "
        i2 = i1 + "  "
        head = "{\n" + i1 + '"child": '
        middles: dict = {}  # (a, b, c) -> the text between child and parent, and after parent
        for parent, child, abc in rows:
            middle = middles.get(abc)
            if middle is None:
                a, b, c = abc
                middle = middles[abc] = (
                    f',\n{i1}"lengths": [\n{i2}{a},\n{i2}{b}\n{i1}],\n'
                    f'{i1}"overlap": {c},\n{i1}"parent": ',
                    f',\n{i1}"statistic_delta": '
                    f"{dims.elementary_statistic_delta(a, b, c)}\n{indent}}}",
                )
            yield f"{head}{child}{middle[0]}{parent}{middle[1]}"

    return _Rendered(len(rows), texts)


def _by_body(elements) -> _Rendered:
    """The array of elements, dicts with a "point": each distinct body (an
    element less its point) is rendered once, and each point spliced in.
    Elements whose other values are the same objects, as the pipeline's
    copies of one derived entry or verdict are, share a body."""

    def texts(indent: str):
        cut = "\n" + indent + '  "point": '
        bodies: dict = {}
        for e in elements:
            key = tuple([(k, id(v)) for k, v in e.items() if k != "point"])
            body = bodies.get(key)
            if body is None:
                head, _, tail = _dumps({**e, "point": ""}, indent).partition(cut + '""')
                body = bodies[key] = (head + cut, tail)
            yield body[0] + _encode_str(e["point"]) + body[1]

    return _Rendered(len(elements), texts)


def _emit(doc: dict, output: str | None) -> None:
    """Write the report of doc to stdout or to the file output as it is
    rendered, so that no more than a batch of it is held as text."""
    if not output:
        # flushed, so that a closed pipe raises inside main
        print(_dumps(doc, flush=sys.stdout.writelines), flush=True)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            print(_dumps(doc, flush=fh.writelines), file=fh)
    except OSError as exc:
        raise DomainError(f"cannot write {output}: {exc}") from exc


def _parse_q(value: str) -> dims.PrimePower:
    try:
        q = int(value)
    except ValueError as exc:
        raise DomainError(f"bad q value {value!r}: not an integer") from exc
    return dims.PrimePower.from_q(q)


# --- subcommands -------------------------------------------------------------


def cmd_seg(args) -> int:
    s = seg.multisegment_from_json(_load_json(args.input))
    out: dict = {"multisegment": seg.multisegment_to_json(s)}
    if args.statistic:
        out["statistic"] = seg.statistic(s)
    if args.order:
        out["order"] = [seg.segment_to_json(g) for g in seg.admissible_order(s)]
    # Every child and every closure node has the support of s, hence its
    # lines; so their documents differ only in "segments", and they sort by
    # the JSON text of "segments" as they would by the whole document's.
    if args.children:
        children = sorted(seg.elementary_edges(s), key=seg._segments_json)
        out["children"] = _multisegments(children, out["multisegment"]["lines"])
    if args.closure:
        closure = seg.closure_edges(s)
        nodes = sorted(
            {s}.union(child for _, child in closure),
            key=lambda n: (seg.statistic(n), seg._segments_json(n)),
        )
        index = {node: k for k, node in enumerate(nodes)}
        rows = sorted([(index[a], index[b], abc) for (a, b), abc in closure.items()])
        del closure, index  # release the walk before the report is written
        out["closure"] = {
            "nodes": _multisegments(nodes, out["multisegment"]["lines"]),
            "edges": _edges(rows),
        }
    if args.leq is not None:
        other = seg.multisegment_from_json(_load_json(args.leq))
        lines: dict = {}
        for g in (*s, *other):  # one line per id across both documents
            seg._declare(lines, g.line)
        out["leq"] = seg.leq(s, other)
    _emit(out, args.output)
    return EXIT_OK


def cmd_dims(args) -> int:
    doc = seg._json_keys(_load_json(args.input), ("multisegment", "q"), "dims input")
    if "multisegment" not in doc or "q" not in doc:
        raise DomainError('dims input needs "multisegment" and "q" keys')
    s = seg.multisegment_from_json(doc["multisegment"])
    try:
        q_doc = seg._json_keys(doc["q"], ("p", "f"), '"q"')
        p, f = seg._json_int(q_doc["p"], "p"), seg._json_int(q_doc["f"], "f")
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"bad q {doc['q']!r}: {exc}") from exc
    q = dims.PrimePower(p, f)
    flag, stat = dims._k1_dim_factors(s, q)
    _emit(
        {
            "q": {"p": q.p, "f": q.f},
            "flag_count": dims._decimal(flag),
            "k1_dim": dims._decimal(flag * q.q**stat),
            # v_p(q^stat) = f * stat, and the flag count is 1 mod q
            "valuation_statistic": dims.valuation_statistic(flag, q) + stat,
        },
        args.output,
    )
    return EXIT_OK


def cmd_identity_check(args) -> int:
    n_max = args.n_max
    if n_max < 1:
        raise DomainError(f"--n-max must be at least 1, got {n_max}")
    if n_max > dims.DEFAULT_MAX_N:
        raise DomainError(f"n_max {n_max} exceeds bound {dims.DEFAULT_MAX_N}")
    qs = [_parse_q(v) for v in args.q.split(",")] if args.q is not None else [
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
                    "alternating_sum": dims._decimal(lhs),
                    "steinberg_dim": dims._decimal(rhs),
                    "pass": match,
                }
            )
    _emit({"rows": rows, "all_pass": ok}, args.output)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_wd(args) -> int:
    from . import weildeligne as wd

    shadow = wd.wd_from_multisegment(seg.multisegment_from_json(_load_json(args.input)))
    mat = wd.exp_nilpotent(shadow.partition)
    count = wd.nonzero_count(mat)
    closed = wd.partition_statistic(shadow.partition)
    _emit(
        {
            "shadow": wd.wd_to_json(shadow),
            "exp": [[str(x) for x in row] for row in mat],
            "nonzero_count": count,
            "closed_form": closed,
            "match": count == closed,
        },
        args.output,
    )
    return EXIT_OK


def cmd_family(args) -> int:
    from . import family as fam

    if args.seeds is not None and args.seeds < 1:
        raise DomainError(f"--seeds must be at least 1, got {args.seeds}")
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
    doc = report.to_json()
    doc["verdicts"], doc["trace_log"] = _by_body(report.verdicts), _by_body(report.trace_log)
    _emit(doc, args.report)
    return EXIT_VIOLATION if report.has_violations else EXIT_OK


def cmd_selftest(args) -> int:
    from . import weildeligne as wd

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
            wd.nonzero_count(wd.exp_nilpotent(p)) == wd.partition_statistic(p)
            for p in {
                wd.JordanPartition(c.parts) for n in range(1, 9) for c in dims.compositions(n)
            }
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
    p.set_defaults(handler="cmd_seg")

    p = sub.add_parser("dims", help="exact fixed-vector dimensions")
    p.add_argument("input", help="path, '-', or inline JSON")
    p.add_argument("--output")
    p.set_defaults(handler="cmd_dims")

    p = sub.add_parser("identity-check", help="alternating sum vs q^(n(n-1)/2)")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--q", help="comma-separated q values (prime powers)")
    p.add_argument("--output")
    p.set_defaults(handler="cmd_identity_check")

    p = sub.add_parser("wd", help="monodromy shadow and exact exp(N)")
    p.add_argument("input", help="path, '-', or inline JSON")
    p.add_argument("--output")
    p.set_defaults(handler="cmd_wd")

    p = sub.add_parser("family", help="run the rigidity pipeline on a scenario")
    p.add_argument("scenario", help="path, '-', or inline JSON")
    p.add_argument("x0", help="base point (must lie in sigma)")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.add_argument(
        "--seeds", type=int, metavar="K",
        help="run under K seed pairs, the document's and K - 1 fresh ones, "
        "and require identical verdicts",
    )
    p.set_defaults(handler="cmd_family")

    p = sub.add_parser("selftest", help="run the built-in identity battery")
    p.set_defaults(handler="cmd_selftest")

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:  # built on the first call, not at import
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        try:
            # by name, so that a rebound cmd_* attribute of this module is called
            status = globals()[args.handler](args)
        except DomainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
        except ModelViolation as exc:
            print(f"model violation: {exc}", file=sys.stderr)
            print(_dumps({"certificate": exc.certificate}))
            status = EXIT_VIOLATION
        sys.stdout.flush()  # so that a failed write raises here
        return status
    except OSError as exc:
        # a closed pipe or a full device; the interpreter's last flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        reason = ("stdout closed before the report was written" if isinstance(exc, BrokenPipeError)
                  else f"cannot write to stdout: {exc}")
        print(f"error: {reason}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
