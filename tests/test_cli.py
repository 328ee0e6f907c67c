import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import bzcalc
from bzcalc import cli, dimensions as dims, family as fam, segments as seg
from bzcalc.cli import _dumps, main
from bzcalc.exceptions import DomainError
from bzcalc.family import scenario_to_json

from conftest import multisegments_with_support, readme_scenario
from test_acceptance import _twist_constant_scenario
from test_family import three_point_scenario


MS_L3 = json.dumps({"segments": [{"line": "unr", "coset": "c0", "start": 0, "len": 3}]})
MS_SINGLETONS = json.dumps(
    {
        "segments": [
            {"line": "unr", "coset": "c0", "start": i, "len": 1} for i in range(3)
        ]
    }
)


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, json.loads(out) if out.strip().startswith("{") else out


class TestSeg:
    def test_statistic(self, capsys):
        status, doc = run_cli(capsys, "seg", MS_L3, "--statistic")
        assert status == 0
        assert doc["statistic"] == 3

    def test_children_empty(self, capsys):
        status, doc = run_cli(capsys, "seg", MS_L3, "--children")
        assert status == 0
        assert doc["children"] == []

    def test_closure_of_three_singletons(self, capsys):
        status, doc = run_cli(capsys, "seg", MS_SINGLETONS, "--closure")
        assert status == 0
        assert len(doc["closure"]["nodes"]) == 4
        for edge in doc["closure"]["edges"]:
            a, b, c = *edge["lengths"], edge["overlap"]
            assert edge["statistic_delta"] == (a - c) * (b - c) > 0

    def test_leq(self, capsys):
        merged = json.dumps(
            {"segments": [{"line": "unr", "coset": "c0", "start": 0, "len": 2}]}
        )
        pair = json.dumps(
            {
                "segments": [
                    {"line": "unr", "coset": "c0", "start": 0, "len": 1},
                    {"line": "unr", "coset": "c0", "start": 1, "len": 1},
                ]
            }
        )
        status, doc = run_cli(capsys, "seg", merged, "--leq", pair)
        assert status == 0
        assert doc["leq"] is True

    def test_malformed_input_is_domain_error(self, capsys):
        status = main(["seg", '{"segments": [}', "--statistic"])
        err = capsys.readouterr().err
        assert status == 1
        assert "line" in err and "column" in err


class TestDims:
    def test_length_two(self, capsys):
        doc_in = json.dumps(
            {
                "multisegment": {
                    "segments": [{"line": "unr", "coset": "c0", "start": 0, "len": 2}]
                },
                "q": {"p": 2, "f": 1},
            }
        )
        status, doc = run_cli(capsys, "dims", doc_in)
        assert status == 0
        assert doc["k1_dim"] == "2"
        assert doc["valuation_statistic"] == 1

    def test_two_singletons(self, capsys):
        doc_in = json.dumps(
            {
                "multisegment": {
                    "segments": [
                        {"line": "unr", "coset": "c0", "start": 0, "len": 1},
                        {"line": "unr", "coset": "c0", "start": 1, "len": 1},
                    ]
                },
                "q": {"p": 3, "f": 1},
            }
        )
        status, doc = run_cli(capsys, "dims", doc_in)
        assert status == 0
        assert doc["k1_dim"] == "4"
        assert doc["valuation_statistic"] == 0

    def test_mixed(self, capsys):
        doc_in = json.dumps(
            {
                "multisegment": {
                    "segments": [
                        {"line": "unr", "coset": "c0", "start": 0, "len": 2},
                        {"line": "unr", "coset": "c0", "start": 2, "len": 1},
                    ]
                },
                "q": {"p": 2, "f": 1},
            }
        )
        status, doc = run_cli(capsys, "dims", doc_in)
        assert status == 0
        assert doc["k1_dim"] == "14"

    def test_ramified_support_rejected(self, capsys):
        doc_in = json.dumps(
            {
                "multisegment": {
                    "lines": [{"line_id": "A", "block_size": 2}],
                    "segments": [{"line": "A", "coset": "c0", "start": 0, "len": 2}],
                },
                "q": {"p": 2, "f": 1},
            }
        )
        status = main(["dims", doc_in])
        assert status == 1


    def test_empty_multisegment(self, capsys):
        doc_in = json.dumps({"multisegment": {"segments": []}, "q": {"p": 2, "f": 1}})
        status = main(["dims", doc_in])
        assert status == 1
        assert capsys.readouterr().err == "error: empty multisegment has no ambient GL_n\n"

    def test_one_flag_count_per_run(self, capsys, monkeypatch):
        calls = []
        real = dims.gaussian_flag_count

        def counting(c, q):
            calls.append(c)
            return real(c, q)

        monkeypatch.setattr(dims, "gaussian_flag_count", counting)
        doc_in = _dims_doc({"p": 3, "f": 2}, ("unr", "c0", 0, 2), ("unr", "c1", 1, 3))
        assert main(["dims", doc_in]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101, 1009, 10007])
    def test_report_equals_the_whole_product(self, capsys, p):
        """dims reads the valuation off the flag count and the statistic; the
        library's valuation_statistic of standard_module_k1_dim, the whole
        product, is its oracle."""
        rng = random.Random(p)
        for _ in range(12):
            q = dims.PrimePower(p, rng.randrange(1, 4))
            segments = [
                ("unr", f"c{rng.randrange(3)}", rng.randrange(-3, 5), rng.randrange(1, 7))
                for _ in range(rng.randrange(1, 6))
            ]
            s = seg.multisegment_from_json(json.loads(_seg_doc(*segments)))
            dim = dims.standard_module_k1_dim(s, q)
            assert main(["dims", _dims_doc({"p": q.p, "f": q.f}, *segments)]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["k1_dim"] == dims._decimal(dim)
            assert doc["valuation_statistic"] == dims.valuation_statistic(dim, q)


def _int_str_limit():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


class TestLongIntegers:
    """Results past Python's int-to-str digit limit (4300 by default)."""

    def _parse(self, digits):
        limit = _int_str_limit()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            return int(digits)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    def test_dims(self, capsys):
        doc_in = json.dumps(
            {
                "multisegment": {"segments": [{"line": "unr", "start": 0, "len": 40}]},
                "q": {"p": 10007, "f": 3},
            }
        )
        limit = _int_str_limit()
        status, doc = run_cli(capsys, "dims", doc_in)
        assert status == 0
        assert _int_str_limit() == limit
        # one segment: flag count 1, dimension q^(40*39/2)
        assert doc["flag_count"] == "1"
        assert len(doc["k1_dim"]) > 4300
        assert self._parse(doc["k1_dim"]) == 10007 ** (3 * 780)
        assert doc["valuation_statistic"] == 780

    def test_family_trace_log(self, capsys):
        doc_in = json.dumps(
            {
                "fields": [{"p": 10007, "f": 3}],
                "points": ["a"],
                "closed_sets": [[], ["a"]],
                "sigma": ["a"],
                "assignment": {"a": [{"segments": [{"line": "unr", "start": 0, "len": 20}]}]},
                "unit_seeds": {"k1": 1, "iwahori": 2},
            }
        )
        limit = _int_str_limit()
        status, report = run_cli(capsys, "family", doc_in, "a")
        assert status == 0
        assert _int_str_limit() == limit
        logged = [e for e in report["trace_log"] if e["stage"] == "ratio_valuation"]
        assert all(len(e["t_second"]) > 4300 for e in logged)
        assert {e["valuation"] for e in logged} == {190}

    def test_identity_check(self, capsys):
        q = 2**220
        status, doc = run_cli(capsys, "identity-check", "--n-max", "12", "--q", str(q))
        assert status == 0
        row = doc["rows"][-1]
        assert row["n"] == 12
        assert len(row["steinberg_dim"]) > 4300
        assert self._parse(row["steinberg_dim"]) == q**66
        assert self._parse(row["alternating_sum"]) == q**66


def _readme_with(path, value):
    """The README scenario, as JSON text, with doc[path[0]][path[1]]... = value."""
    doc = json.loads(readme_scenario())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(doc)


def _readme_declared_as(kind, misspelled):
    """The README scenario, as JSON text, with its declared kind renamed."""
    doc = json.loads(readme_scenario())
    doc["declared"][misspelled] = doc["declared"].pop(kind)
    return json.dumps(doc)


# A document nested 100,000 deep, past the parser's recursion limit.
DEEP_DOC = '{"segments": ' + "[" * 100000 + "]" * 100000 + "}"

# An output path in a directory that does not exist.
MISSING_DIR_FILE = str(Path(__file__).resolve().parent / "no-such-dir" / "x.json")


def _wd_segment(lines=(), **fields):
    """A one-segment document with some fields of the segment replaced."""
    entry = {"line": "unr", "start": 0, "len": 2, **fields}
    return json.dumps({"lines": list(lines), "segments": [entry]})


class TestMalformedNumbers:
    """Malformed numbers, non-integer numbers and documents of the wrong shape."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["seg", '{"segments": [{"line": "unr", "start": "x", "len": 1}]}'],
            ["identity-check", "--q", "abc"],
            ["dims", json.dumps({"multisegment": json.loads(MS_L3), "q": {"p": "abc", "f": 1}})],
            ["seg", '{"segments": [{"line": "unr", "start": ' + "1" * 5000 + ', "len": 1}]}'],
            ["dims", '{"multisegment": [1], "q": {"p": 2, "f": 1}}'],
            ["dims", '{"q": {"p": 2, "f": 1}}'],
            ["dims", json.dumps({"multisegment": json.loads(MS_L3)})],
            ["seg", '{"segments": 5}'],
            ["seg", '{"lines": 5, "segments": []}'],
            ["family", _readme_with(["declared"], []), "a"],
            ["wd", _wd_segment(len=1.5)],
            ["wd", _wd_segment(len=True)],
            ["wd", _wd_segment(start=0.0)],
            ["wd", _wd_segment(line="A", lines=[{"line_id": "A", "block_size": 2.7}])],
            ["dims", json.dumps({"multisegment": json.loads(MS_L3), "q": {"p": 2, "f": 1.0}})],
            ["family", _readme_with(["unit_seeds", "k1"], 1.9), "a"],
            ["family", _readme_with(["fields", 0, "p"], 3.0), "a"],
            ["family", _readme_with(["declared", "type_traces", "0", "c"], True), "a"],
            ["family", _readme_with(["declared", "ratio_valuations", "0.5"], {}), "a"],
            ["seg", json.dumps({"segments": [{"line": 5, "start": 0, "len": 1}] * 2})],
            ["family", _readme_with(["closed_sets", 1], "c"), "a"],
            ["seg", _wd_segment(), "--statistic", "--output", MISSING_DIR_FILE],
            ["family", readme_scenario(), "a", "--report", MISSING_DIR_FILE],
            ["seg", _wd_segment(len=" 2 ")],
            ["wd", _wd_segment(start="0")],
            ["wd", _wd_segment(line="A", lines=[{"line_id": "A", "block_size": "2"}])],
            ["dims", json.dumps({"multisegment": json.loads(MS_L3), "q": {"p": 2, "f": "1_0"}})],
            ["family", _readme_with(["unit_seeds", "k1"], "17"), "a"],
            ["family", _readme_with(["fields", 0, "p"], "3"), "a"],
            ["family", _readme_with(["declared", "ratio_valuations", "0", "c"], "0"), "a"],
            ["family", _readme_with(["declared", "type_traces", "01"], {}), "a"],
            ["family", _readme_with(["declared", "type_traces", "-1"], {}), "a"],
            ["family", _readme_with(["declared", "type_traces", " 0"], {}), "a"],
            ["family", _readme_with(["declared", "type_traces", "\u0661"], {}), "a"],
            ["family", _readme_with(["declared", "type_traces", "\u00b2"], {}), "a"],
            ["family", readme_scenario(), "a", "--seeds", "0"],
            ["family", readme_scenario(), "a", "--seeds", "-3"],
            ["family", _readme_declared_as("type_traces", "type_trace"), "a"],
            ["family", _readme_declared_as("ratio_valuations", "ratio_valuation"), "a"],
            ["seg", DEEP_DOC],
        ],
        ids=[
            "segment-start",
            "identity-check-q",
            "dims-q-p",
            "huge-literal",
            "dims-multisegment-list",
            "dims-no-multisegment",
            "dims-no-q",
            "seg-segments-int",
            "seg-lines-int",
            "family-declared-list",
            "wd-len-float",
            "wd-len-bool",
            "wd-start-float",
            "wd-block-size-float",
            "dims-q-f-float",
            "family-unit-seed-float",
            "family-field-p-float",
            "family-declared-value-bool",
            "family-declared-index-float",
            "seg-line-id-int",
            "family-closed-set-string",
            "seg-output-missing-dir",
            "family-report-missing-dir",
            "seg-len-string",
            "wd-start-string",
            "wd-block-size-string",
            "dims-q-f-string",
            "family-unit-seed-string",
            "family-field-p-string",
            "family-declared-value-string",
            "family-declared-index-leading-zero",
            "family-declared-index-negative",
            "family-declared-index-space",
            "family-declared-index-arabic-digit",
            "family-declared-index-superscript",
            "family-seeds-zero",
            "family-seeds-negative",
            "family-declared-kind-type-trace",
            "family-declared-kind-ratio-valuation",
            "seg-nested-100000-deep",
        ],
    )
    def test_exit_one_with_one_line(self, capsys, argv):
        status = main(argv)
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "content, message",
        [
            (
                b'\xff\xfe{"segments": []}',
                "cannot read {}: 'utf-8' codec can't decode byte 0xff in position 0: "
                "invalid start byte",
            ),
            (DEEP_DOC.encode(), "malformed JSON in {}: nested too deeply"),
        ],
        ids=["not-utf-8", "nested-100000-deep"],
    )
    @pytest.mark.parametrize(
        "command",
        [["seg", "FILE"], ["seg", _wd_segment(), "--leq", "FILE"], ["family", "FILE", "a"]],
        ids=["seg", "seg-leq", "family"],
    )
    def test_unreadable_file(self, capsys, tmp_path, content, message, command):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        argv = [str(path) if arg == "FILE" else arg for arg in command]
        status = main(argv)
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err == f"error: {message.format(path)}\n"

    @pytest.mark.parametrize(
        "content, status, stderr",
        [
            (
                b'\xff\xfe{"segments": []}', 1,
                b"error: cannot read <stdin>: 'utf-8' codec can't decode byte 0xff in "
                b"position 0: invalid start byte\n",
            ),
            ('{"segments": [{"line": "\u03c1", "start": 0, "len": 2}]}'.encode(), 0, b""),
        ],
        ids=["not-utf-8", "utf-8-line-id"],
    )
    def test_stdin_bytes(self, content, status, stderr):
        """stdin's bytes are decoded as strict UTF-8, as a file's are."""
        proc = subprocess.run(
            [sys.executable, "-m", "bzcalc.cli", "seg", "-", "--statistic"],
            input=content, capture_output=True, env=_env(), timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (status, stderr)
        if status == 0:
            inline = _python("-m", "bzcalc.cli", "seg", content.decode(), "--statistic")
            assert proc.stdout == inline.stdout and b'"\\u03c1"' in proc.stdout


class TestIdentityCheck:
    def test_small_sweep(self, capsys):
        status, doc = run_cli(capsys, "identity-check", "--n-max", "3", "--q", "2")
        assert status == 0
        assert doc["all_pass"] is True
        by_n = {row["n"]: row for row in doc["rows"]}
        assert by_n[3]["alternating_sum"] == "8"

    def test_n_max_bound(self, capsys):
        status = main(["identity-check", "--n-max", "13"])
        assert status == 1

    def test_bound_reads_no_environment(self, capsys, monkeypatch):
        argv = ["identity-check", "--n-max", "3"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        monkeypatch.setenv("BZ_MAX_N", "x")
        assert main(argv) == 0
        assert capsys.readouterr() == plain
        monkeypatch.setenv("BZ_MAX_N", "20")
        assert main(["identity-check", "--n-max", "13"]) == 1
        assert capsys.readouterr() == ("", "error: n_max 13 exceeds bound 12\n")

    @pytest.mark.parametrize("n_max", ["0", "-1"])
    def test_n_max_below_one_is_not_a_pass(self, capsys, n_max):
        status = main(["identity-check", "--n-max", n_max])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err == f"error: --n-max must be at least 1, got {n_max}\n"

    @pytest.mark.parametrize("q", ["", "2,,3"])
    def test_empty_q_is_not_the_default_sweep(self, capsys, q):
        status = main(["identity-check", "--q", q])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err == "error: bad q value '': not an integer\n"


class TestLargePrimes:
    """A prime q or p is factored and tested exactly in well under a second,
    and one past the documented limit exits 1 with one line."""

    def test_large_prime_q(self, capsys):
        t0 = time.perf_counter()
        status, doc = run_cli(capsys, "identity-check", "--n-max", "1", "--q", "1000000007")
        assert time.perf_counter() - t0 < 1.0
        assert status == 0
        assert doc["rows"] == [
            {"n": 1, "q": 1000000007, "alternating_sum": "1", "steinberg_dim": "1", "pass": True}
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["identity-check", "--n-max", "1", "--q", str(2**89 - 1)],
            ["dims", json.dumps({"multisegment": json.loads(MS_L3), "q": {"p": 2**89 - 1, "f": 1}})],
        ],
        ids=["identity-check-q", "dims-p"],
    )
    def test_past_the_limit_exits_one(self, capsys, argv):
        t0 = time.perf_counter()
        status = main(argv)
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err.startswith("error: cannot decide whether a 89-bit number is prime")
        assert captured.err.count("\n") == 1


class TestWd:
    def test_full_segment(self, capsys):
        status, doc = run_cli(capsys, "wd", MS_L3)
        assert status == 0
        assert doc["shadow"]["blocks"] == [3]
        assert doc["nonzero_count"] == 3
        assert doc["match"] is True
        assert doc["exp"][0][2] == "1/2"

    def test_singletons(self, capsys):
        status, doc = run_cli(capsys, "wd", MS_SINGLETONS)
        assert status == 0
        assert doc["nonzero_count"] == 0

    def test_block_two(self, capsys):
        doc_in = json.dumps(
            {
                "lines": [{"line_id": "A", "block_size": 2, "inertial_label": "ram"}],
                "segments": [{"line": "A", "coset": "c0", "start": 0, "len": 2}],
            }
        )
        status, doc = run_cli(capsys, "wd", doc_in)
        assert status == 0
        assert doc["shadow"]["blocks"] == [2, 2]
        assert doc["nonzero_count"] == 2

    def test_over_bound(self, capsys):
        doc_in = json.dumps(
            {"segments": [{"line": "unr", "coset": "c0", "start": 0, "len": 70}]}
        )
        status = main(["wd", doc_in])
        assert status == 1

    def test_huge_block_size_exits_before_listing_blocks(self, capsys):
        doc_in = _wd_segment(line="A", lines=[{"line_id": "A", "block_size": 10**9}])
        t0 = time.perf_counter()
        status = main(["wd", doc_in])
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err == "error: partition size 2000000000 exceeds bound 64\n"


class TestFamily:
    def test_three_point_scenario(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_to_json(three_point_scenario())))
        report_path = tmp_path / "report.json"
        status = main(
            ["family", str(path), "a", "--report", str(report_path), "--seeds", "4"]
        )
        assert status == 0
        report = json.loads(report_path.read_text())
        assert report["X0"] == ["a", "b"]
        assert report["orbits"] == [
            [{"inertial_label": "unr", "length": 2, "multiplicity": 1}]
        ]

    def test_adversarial_exits_two(self, capsys, tmp_path):
        doc = scenario_to_json(three_point_scenario())
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
        status, report = run_cli(capsys, "family", json.dumps(doc), "a")
        assert status == 2
        bad = [v for v in report["verdicts"] if v["status"] == "violation"]
        assert bad and bad[0]["point"] == "c"

    def test_invalid_scenario_exits_one(self, capsys):
        doc = scenario_to_json(three_point_scenario())
        doc["sigma"] = ["a", "b"]
        status = main(["family", json.dumps(doc), "a"])
        assert status == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(sigma=["a", "b", "c", "z"]), "sigma is not a subset of the space"),
        (lambda d: d["assignment"]["a"].append(d["assignment"]["a"][0]),
         "point 'a' assigns 2 multisegments for 1 fields"),
        (lambda d: d["assignment"]["b"][0].update(segments=[]),
         "empty multisegment at point 'b', field 0"),
        (lambda d: d["assignment"]["b"][0]["segments"][0].update(len=3),
         "field 0 mixes ambient sizes 2 and 3"),
        (lambda d: d["unit_seeds"].pop("iwahori"), "missing unit seed 'iwahori'"),
    ], ids=["sigma", "count", "empty", "sizes", "seed"])
    def test_each_scenario_violation_is_one_line(self, capsys, edit, message):
        doc = scenario_to_json(three_point_scenario())
        edit(doc)
        status = main(["family", json.dumps(doc), "a"])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err.startswith("error: invalid scenario: ")
        assert message in captured.err and captured.err.count("\n") == 1

    def test_equal_valuation_different_orbit_is_a_violation(self, capsys):
        """a and b share a statistic and no closed set parts them; the
        declared type trace at a puts b in the locus, whose orbit is not a's."""
        def segment(start, length):
            return {"line": "unr", "coset": "c0", "start": start, "len": length}

        doc = {
            "fields": [{"p": 3, "f": 1}],
            "points": ["a", "b"],
            "closed_sets": [[], ["a", "b"]],
            "sigma": ["a", "b"],
            "assignment": {
                "a": [{"segments": [segment(0, 2), segment(2, 2), segment(4, 2)]}],
                "b": [{"segments": [segment(0, 3), segment(3, 1), segment(4, 1),
                                    segment(5, 1)]}],
            },
            "unit_seeds": {"k1": 17, "iwahori": 5},
            "declared": {"type_traces": {"0": {"a": 0}}},
        }
        status, report = run_cli(capsys, "family", json.dumps(doc), "a")
        assert status == 2
        assert report["X0"] == ["a", "b"]
        verdict_b = report["verdicts"][1]
        assert verdict_b["point"] == "b" and verdict_b["status"] == "violation"
        [certificate] = verdict_b["certificates"]
        assert certificate["reason"].startswith(
            "comparable point with equal valuation but a different twist orbit"
        )
        assert certificate["orbit"] == [["unr", 1, 3], ["unr", 3, 1]]
        assert certificate["base_orbit"] == [["unr", 2, 3]]


A_BLOCK_1 = {"line_id": "A", "block_size": 1, "inertial_label": "unr"}
A_BLOCK_2 = {"line_id": "A", "block_size": 2, "inertial_label": "unr"}


def _two_point_doc(top=(), a=(), b=()):
    """A scenario on points a and b of ambient size 2 when line A has block
    size 1 at a and 2 at b: a holds [0, 1) and [1, 2) on A, b holds [0, 1).
    top, a and b declare lines at the top level and in each point's
    multisegment."""
    def segment(start, length):
        return {"line": "A", "coset": "c0", "start": start, "len": length}

    return {
        "fields": [{"p": 3, "f": 1}],
        "points": ["a", "b"],
        "closed_sets": [[], ["a", "b"]],
        "sigma": ["a", "b"],
        "lines": list(top),
        "assignment": {
            "a": [{"lines": list(a), "segments": [segment(0, 1), segment(1, 1)]}],
            "b": [{"lines": list(b), "segments": [segment(0, 1)]}],
        },
        "unit_seeds": {"k1": 17, "iwahori": 5},
    }


class TestLineDeclarations:
    """A point's multisegment may re-declare a top-level line only as the
    same line."""

    def test_conflict_exits_one_with_one_line(self, capsys):
        """Point b re-declares the top-level line A with another block size."""
        doc = _two_point_doc(top=[A_BLOCK_1], b=[A_BLOCK_2])
        status = main(["family", json.dumps(doc), "a"])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err == (
            "error: malformed scenario: conflicting declarations for line 'A'\n"
        )

    @pytest.mark.parametrize("declaring", ["a", "b"])
    def test_declared_at_one_point_undeclared_at_the_other(self, capsys, declaring):
        """Line A has block size 2 where it is declared and the default block
        size 1 where it is not: one line id, two lines, in either order."""
        doc = _two_point_doc(**{declaring: [A_BLOCK_2]})
        status = main(["family", json.dumps(doc), "a"])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err == (
            "error: malformed scenario: conflicting declarations for line 'A'\n"
        )

    def test_declaration_equal_to_the_default_parses(self):
        default_a = {"line_id": "A", "block_size": 1, "inertial_label": "A"}
        sc = fam.scenario_from_json(_two_point_doc(a=[default_a]))
        again = scenario_to_json(sc)
        assert again["lines"] == [default_a]
        assert fam.scenario_from_json(again) == sc

    def test_equal_declarations_round_trip(self):
        sc = fam.scenario_from_json(
            _two_point_doc(top=[A_BLOCK_1], a=[A_BLOCK_1], b=[A_BLOCK_1])
        )
        again = scenario_to_json(sc)
        assert again["lines"] == [A_BLOCK_1]
        assert fam.scenario_from_json(again) == sc


class TestLeqLineDeclarations:
    """seg --leq: one line id names one line across both documents."""

    @pytest.mark.parametrize("declaring", ["input", "other"])
    def test_declared_in_one_document_undeclared_in_the_other(self, capsys, declaring):
        declared = _seg_doc(("A", "c0", 0, 1), lines=[A_BLOCK_2])
        undeclared = _seg_doc(("A", "c0", 0, 1))
        pair = (declared, undeclared) if declaring == "input" else (undeclared, declared)
        status = main(["seg", pair[0], "--leq", pair[1]])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err == "error: conflicting declarations for line 'A'\n"

    def test_equal_declarations_compare(self, capsys):
        one = _seg_doc(("A", "c0", 0, 2), lines=[A_BLOCK_2])
        two = _seg_doc(("A", "c0", 0, 1), ("A", "c0", 1, 1), lines=[A_BLOCK_2])
        status, doc = run_cli(capsys, "seg", one, "--leq", two)
        assert status == 0
        assert doc["leq"] is True


class TestDeclaredWithoutEffect:
    """A declared value at a slot index with no field, or at a point outside
    sigma, is never read, so the scenario is rejected rather than run."""

    @pytest.mark.parametrize(
        "path, value, problems",
        [
            (["declared", "type_traces", "5"], {"c": 1},
             "declared type_traces index 5 is past the last field"),
            (["declared", "ratio_valuations", "3"], {},
             "declared ratio_valuations index 3 is past the last field"),
            (["declared", "type_traces", "0"], {"nowhere": 0},
             "declared type_traces index 0 names 'nowhere', not a point of sigma"),
            (["declared", "ratio_valuations", "0"], {"z": 0, "c": 0, "y": 1},
             "declared ratio_valuations index 0 names 'y', not a point of sigma; "
             "declared ratio_valuations index 0 names 'z', not a point of sigma"),
        ],
        ids=["type-trace-slot", "ratio-valuation-slot", "type-trace-point", "sorted-points"],
    )
    def test_exit_one_with_one_line(self, capsys, path, value, problems):
        status = main(["family", _readme_with(path, value), "a"])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err == f"error: invalid scenario: {problems}\n"

    def test_messages_sorted_across_blocks_and_slots(self):
        doc = json.loads(readme_scenario())
        doc["fields"].append({"p": 2, "f": 1})
        for x in ("a", "b", "c"):
            doc["assignment"][x].append(doc["assignment"][x][0])
        doc["declared"] = {
            "ratio_valuations": {"2": {}, "1": {"w": 0}},
            "type_traces": {"1": {"v": 1, "u": 0}, "0": {"c": 1}},
        }
        assert fam.scenario_violations(fam.scenario_from_json(doc)) == [
            "declared type_traces index 1 names 'u', not a point of sigma",
            "declared type_traces index 1 names 'v', not a point of sigma",
            "declared ratio_valuations index 1 names 'w', not a point of sigma",
            "declared ratio_valuations index 2 is past the last field",
        ]


class TestUnknownKeys:
    """A key that no reader knows, such as a misspelling, exits 1 with one
    line that names it, instead of falling back to a default."""

    @pytest.mark.parametrize(
        "argv, name, key",
        [
            (["seg", '{"segmnets": []}', "--statistic"], "a multisegment", "segmnets"),
            (["seg", _wd_segment(cosett="c1")], "a segment", "cosett"),
            (["wd", _wd_segment(line="A", lines=[{"line_id": "A", "block_sise": 2}])],
             "a line declaration", "block_sise"),
            (["seg", MS_L3, "--leq", _wd_segment(length=2)], "a segment", "length"),
            (["dims", json.dumps({"multisegment": json.loads(MS_L3), "q": {"p": 3, "f": 1},
                                  "field": 3})], "dims input", "field"),
            (["dims", json.dumps({"multisegment": json.loads(MS_L3),
                                  "q": {"p": 3, "f": 1, "q": 3}})], '"q"', "q"),
            (["family", _readme_with(["unit_seed"], {}), "a"], "a scenario", "unit_seed"),
            (["family", _readme_with(["fields", 0, "n"], 1), "a"], "a field", "n"),
            (["family", _readme_with(["assignment", "a", 0, "segments", 0, "cosett"], "c1"),
              "a"], "a segment", "cosett"),
        ],
        ids=["multisegment", "segment", "line", "leq-segment", "dims", "dims-q", "scenario",
             "scenario-field", "scenario-segment"],
    )
    def test_exit_one_with_one_line(self, capsys, argv, name, key):
        status = main(argv)
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"{name} has unknown keys [{key!r}]" in captured.err

    def test_keys_listed_in_sorted_order_under_every_hash_seed(self):
        doc = _wd_segment(cosett="c1", length=2, end=2)
        runs = [_python("-m", "bzcalc.cli", "seg", doc, PYTHONHASHSEED=str(seed))
                for seed in (0, 1)]
        assert [r.returncode for r in runs] == [1, 1]
        assert runs[0].stderr == b"error: a segment has unknown keys ['cosett', 'end', 'length']\n"
        assert runs[1].stderr == runs[0].stderr


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        argv = ["seg", MS_SINGLETONS, "--closure", "--statistic", "--order"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_round_trip(self, capsys):
        status, doc = run_cli(capsys, "seg", MS_L3, "--statistic")
        again = json.dumps(doc, sort_keys=True)
        assert json.loads(again) == doc


    def test_certificate_independent_of_hash_seed(self):
        """The overlapping-closures certificate names the same point under
        every hash seed: a's value class closes onto b's."""
        def segment(start, length):
            return {"line": "A", "coset": "c0", "start": start, "len": length}

        doc = json.dumps({
            "fields": [{"p": 3, "f": 1}],
            "points": ["a", "b"],
            "closed_sets": [[], ["a", "b"]],
            "sigma": ["a", "b"],
            "assignment": {
                "a": [{"segments": [segment(0, 1), segment(1, 1)]}],
                "b": [{"segments": [segment(0, 2)]}],
            },
            "unit_seeds": {"k1": 17, "iwahori": 5},
        })
        runs = [
            _python("-m", "bzcalc.cli", "family", doc, "a", PYTHONHASHSEED=str(seed))
            for seed in range(4)
        ]
        assert [r.returncode for r in runs] == [2] * 4
        assert b'"reason": "overlapping value-class closures"' in runs[0].stdout
        assert b'"point": "a"' in runs[0].stdout
        assert all(r.stdout == runs[0].stdout for r in runs)

    def test_site_violations_independent_of_hash_seed(self):
        """Closed sets that leave the space are named in sorted order, so
        the one-line error is the same under every hash seed."""
        doc = json.dumps({
            "fields": [{"p": 3, "f": 1}],
            "points": ["a"],
            "closed_sets": [[], ["a"], ["x"], ["y"]],
            "sigma": ["a"],
            "assignment": {"a": [{"segments": [{"line": "unr", "start": 0, "len": 1}]}]},
            "unit_seeds": {"k1": 17, "iwahori": 5},
        })
        runs = [
            _python("-m", "bzcalc.cli", "family", doc, "a", PYTHONHASHSEED=str(seed))
            for seed in range(4)
        ]
        assert [r.returncode for r in runs] == [1] * 4
        assert runs[0].stderr.startswith(
            b"error: invalid scenario: closed set ['x'] is not a subset of the space; "
            b"closed set ['y'] is not a subset of the space; "
        )
        assert all(r.stderr == runs[0].stderr for r in runs)

    def test_unknown_declared_kinds_independent_of_hash_seed(self):
        """Every unknown kind of "declared" is named, in sorted order."""
        doc = json.loads(readme_scenario())
        doc["declared"].update(type_trace={}, ratio_valuation={}, traces={})
        runs = [
            _python("-m", "bzcalc.cli", "family", json.dumps(doc), "a",
                    PYTHONHASHSEED=str(seed))
            for seed in range(4)
        ]
        assert [r.returncode for r in runs] == [1] * 4
        assert runs[0].stderr == (
            b"error: malformed scenario: \"declared\" has unknown kinds "
            b"['ratio_valuation', 'traces', 'type_trace']\n"
        )
        assert all(r.stderr == runs[0].stderr for r in runs)


class TestSelftest:
    def test_selftest_passes(self, capsys):
        status = main(["selftest"])
        out = capsys.readouterr().out
        assert status == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 4


class TestReadmeScenario:
    def test_documented_example_runs(self, capsys):
        status, report = run_cli(capsys, "family", readme_scenario(), "a")
        assert status == 2
        assert report["X0"] == ["a", "b", "c"]
        bad = [v["point"] for v in report["verdicts"] if v["status"] == "violation"]
        assert bad == ["c"]

    def test_without_declared_block(self, capsys):
        doc = json.loads(readme_scenario())
        del doc["declared"]
        status, report = run_cli(capsys, "family", json.dumps(doc), "a")
        assert status == 0
        assert report["X0"] == ["a", "b"]


def _tampered_family_argv(rng):
    sc, x0, _ = _twist_constant_scenario(rng, adversarial=True)
    return ["family", json.dumps(scenario_to_json(sc)), x0, "--seeds", "2"]


class TestFamilyReportBytes:
    """sha256 of the family report on stdout.  readme and tampered were
    taken before the pipeline evaluated each valuation and witness once per
    (point, slot); readme-declared-agrees before the certification step
    read the declared values from the scenario."""

    @pytest.mark.parametrize(
        "argv, status, digest",
        [
            (
                ["family", readme_scenario(), "a", "--seeds", "2"],
                2,
                "a819afd6f8778069f65291fdfa2b654ebb1e1127e54c3fdc21b64b87a92fbe4c",
            ),
            (
                _tampered_family_argv(random.Random(0)),
                2,
                "c6d75ad3c59945a28694da48c46058442dedfd06686a3d1dbf16fb73f37dfcf6",
            ),
            # b's declared values are the computed ones: X0 = [a, b], both
            # certified, and b's type-trace log entry says "declared": true
            (
                ["family", _readme_with(["declared"], {
                    "type_traces": {"0": {"b": 1}}, "ratio_valuations": {"0": {"b": 0}},
                }), "a", "--seeds", "2"],
                0,
                "839c8854280d76f7ab9617fe1aa8577489196d055fd81a336fc9627753ecb385",
            ),
        ],
        ids=["readme", "tampered", "readme-declared-agrees"],
    )
    def test_stdout_digest(self, capsys, argv, status, digest):
        assert main(argv) == status
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSeedReruns:
    """family --seeds 3 builds each twist witness once per (s0, s) and each
    base-change shadow once per multisegment, for the first run and the
    reruns together, and each Iwahori factor once per multisegment per seed
    pair; the stdout digests were taken while every rerun built its own, per
    (point, slot)."""

    @pytest.mark.parametrize(
        "seed, adversarial, status, digest",
        [
            (1, False, 0, "6f167b3b09bf069af865498cda9916d376039edcac014e7dcbeeec814813fb10"),
            (0, True, 2, "c6d75ad3c59945a28694da48c46058442dedfd06686a3d1dbf16fb73f37dfcf6"),
        ],
        ids=["honest", "tampered"],
    )
    def test_seed_free_values_once(self, capsys, monkeypatch, seed, adversarial, status, digest):
        sc, x0, _ = _twist_constant_scenario(random.Random(seed), adversarial=adversarial)
        parsed, witnesses, shadows, factors = [], [], [], []

        def counting(real, record):
            def wrapper(*args):
                out = real(*args)
                record(out, *args)
                return out
            return wrapper

        monkeypatch.setattr(fam, "scenario_from_json", counting(
            fam.scenario_from_json, lambda out, doc: parsed.append(out)))
        monkeypatch.setattr(fam, "twist_comparison_witness", counting(
            fam.twist_comparison_witness, lambda out, s0, s: witnesses.append((s0, s))))
        monkeypatch.setattr(fam, "base_change_shadow", counting(
            fam.base_change_shadow, lambda out, s: shadows.append(s)))
        monkeypatch.setattr(fam, "iwahori_trace", counting(
            fam.iwahori_trace, lambda out, s, n, seed: factors.append((seed, s))))
        argv = ["family", json.dumps(scenario_to_json(sc)), x0, "--seeds", "3"]
        assert main(argv) == status
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

        assignment = parsed[0].assignment
        values = {s for per_field in assignment.values() for s in per_field}
        assert Counter(witnesses) == Counter(
            {(assignment[x0][i], per_field[i]) for per_field in assignment.values()
             for i in range(len(sc.fields))})
        assert len(set(shadows)) == len(shadows) and set(shadows) <= values
        per_seed = Counter(seed for seed, _ in factors)
        assert len(per_seed) == 3 and len(set(factors)) == len(factors)
        assert len(set(per_seed.values())) == 1


def _twinned(doc):
    """doc with a twin x~ of every point x, holding x's multisegments, closed
    sets and declared values: every point tuple repeats."""
    def twin(xs):
        return [*xs, *(x + "~" for x in xs)]

    out = dict(doc, points=twin(doc["points"]), sigma=twin(doc["sigma"]),
               closed_sets=[twin(c) for c in doc["closed_sets"]])
    out["assignment"] = {**doc["assignment"],
                         **{x + "~": per for x, per in doc["assignment"].items()}}
    if "declared" in doc:
        out["declared"] = {
            kind: {i: {**values, **{x + "~": v for x, v in values.items()}}
                   for i, values in block.items()}
            for kind, block in doc["declared"].items()
        }
    return out


def _body_count(elements):
    return len({json.dumps({**e, "point": None}, sort_keys=True) for e in elements})


class TestReportsByDistinctValue:
    """family parses each distinct multisegment document once, certifies each
    (base tuple, point tuple, declared values, ratio valuations at both
    points) once, and renders each distinct trace_log entry and verdict body
    once; json.dumps of RigidityReport.to_json() is the oracle of the spliced
    report."""

    @pytest.mark.parametrize("seeds", [[], ["--seeds", "3"]], ids=["one-run", "seeds-3"])
    @pytest.mark.parametrize(
        "seed, adversarial", [(1, False), (4, False), (0, True), (3, True)],
        ids=["honest-1", "honest-4", "tampered-0", "tampered-3"],
    )
    def test_spliced_report_is_json_dumps(self, capsys, tmp_path, seed, adversarial, seeds):
        sc, x0, _ = _twist_constant_scenario(random.Random(seed), adversarial=adversarial)
        doc = _twinned(scenario_to_json(sc))
        report = fam.run_pipeline(fam.scenario_from_json(doc), x0)
        expected = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
        # the twins repeat every verdict and trace_log body under another point
        assert _body_count(report.verdicts) <= len(report.verdicts) // 2
        assert _body_count(report.trace_log) <= len(report.trace_log) // 2
        assert report.has_violations == adversarial
        argv = ["family", json.dumps(doc), x0, *seeds]
        status = 2 if adversarial else 0
        assert main(argv) == status
        assert capsys.readouterr().out == expected
        path = tmp_path / "report.json"
        assert main([*argv, "--report", str(path)]) == status
        assert path.read_text(encoding="utf-8") == expected

    def test_equal_documents_parsed_once(self, monkeypatch):
        sc, x0, _ = _twist_constant_scenario(random.Random(2), adversarial=True)
        doc = _twinned(scenario_to_json(sc))
        documents = [m for per in doc["assignment"].values() for m in per]
        calls = []

        def counting(m, lines=None):
            calls.append(m)
            return seg.multisegment_from_json(m, lines)

        monkeypatch.setattr(fam, "multisegment_from_json", counting)
        parsed = fam.scenario_from_json(json.loads(json.dumps(doc)))
        distinct = {json.dumps(m, sort_keys=True) for m in documents}
        assert len(calls) == len(distinct) < len(documents)
        for x in sc.sigma:  # a twin shares its point's Multisegment objects
            assert all(a is b for a, b in zip(parsed.assignment[x], parsed.assignment[x + "~"]))
        lines = seg.lines_from_json(doc["lines"])
        assert parsed.assignment == {
            x: tuple(seg.multisegment_from_json(m, lines) for m in per)
            for x, per in doc["assignment"].items()
        }

    @pytest.mark.parametrize(
        "lengths, message",
        [
            ([1, 1, True], "len must be an integer, got True"),
            ([1, 1.0, 1], "len must be an integer, got 1.0"),
            ([2, 0, 0], "segment length must be >= 1, got 0"),
        ],
        ids=["bool-after-int", "float-after-int", "repeated-zero"],
    )
    def test_only_equal_documents_share(self, lengths, message):
        """1, 1.0 and True are equal in Python but not as JSON documents."""
        doc = {
            "fields": [{"p": 3, "f": 1}], "points": ["a", "b", "c"],
            "closed_sets": [[], ["a", "b", "c"]], "sigma": ["a", "b", "c"],
            "assignment": {x: [{"segments": [{"line": "unr", "start": 0, "len": n}]}]
                           for x, n in zip("abc", lengths)},
            "unit_seeds": {"k1": 1, "iwahori": 2},
        }
        with pytest.raises(DomainError) as info:
            fam.scenario_from_json(doc)
        bad = next(n for n in lengths if type(n) is not int or n < 1)
        assert str(info.value) == (
            f"malformed scenario: bad segment {{'line': 'unr', 'start': 0, 'len': {bad!r}}}: "
            f"{message}"
        )

    def test_seed_dependent_verdict_still_caught(self, capsys, monkeypatch):
        """A ratio valuation that follows the k1 seed shifts every point alike,
        so the locus holds and only the verdicts of a rerun differ: a rerun
        must not reuse the first run's verdicts."""
        sc, x0, _ = _twist_constant_scenario(random.Random(1))
        doc = _twinned(scenario_to_json(sc))
        real = fam.ratio_valuation

        def seed_dependent(sc, x, j, log=None):
            return real(sc, x, j, log) + (sc.unit_seeds["k1"] != doc["unit_seeds"]["k1"])

        monkeypatch.setattr(fam, "ratio_valuation", seed_dependent)
        assert main(["family", json.dumps(doc), x0]) == 0
        capsys.readouterr()
        assert main(["family", json.dumps(doc), x0, "--seeds", "2"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out == {"certificate": {"reason": "seed-dependent verdict", "seed_index": 1}}


def _seg_doc(*segments, lines=()):
    return json.dumps(
        {
            "lines": list(lines),
            "segments": [
                {"line": line, "coset": coset, "start": start, "len": length}
                for line, coset, start, length in segments
            ],
        }
    )


class TestSegReportBytes:
    """sha256 of `seg --closure --children --order --statistic` on stdout,
    fixed while closure_edges, downward_closure and leq each ran their own
    breadth-first walk."""

    @pytest.mark.parametrize(
        "doc, digest",
        [
            (
                # mu = 2 stacked copies of m = 4 singletons
                _seg_doc(*[("unr", "c0", i, 1) for i in range(4) for _ in range(2)]),
                "2f6d03598b3e79c41c5d5e04bbfc418e897ee6f13760b8b9e312e86f608976e8",
            ),
            (
                _seg_doc(
                    ("unr", "c0", 0, 1), ("unr", "c0", 1, 2), ("unr", "c0", 2, 1),
                    ("unr", "c1", 0, 1), ("unr", "c1", 1, 1),
                    ("rho", "c0", 0, 2), ("rho", "c0", 1, 1), ("rho", "c0", 2, 1),
                    lines=[{"line_id": "rho", "block_size": 2, "inertial_label": "rho"}],
                ),
                "b7397f1c5c47f6a3b4cdb351f5096b2af65f0b0532f5c2bbda8ef88e1da54753",
            ),
            (
                # [0, 2] contains [1]; [3, 4] and [4, 5] are linked
                _seg_doc(
                    ("unr", "c0", 0, 3), ("unr", "c0", 1, 1),
                    ("unr", "c0", 3, 2), ("unr", "c0", 4, 2),
                ),
                "c03aead0ff1957df4a6e0ccf38e125d0cdd9029e15d7ee400cd48016a63019ef",
            ),
        ],
        ids=["stacked-singletons", "two-cosets-two-lines", "nested-and-linked"],
    )
    def test_stdout_digest(self, capsys, doc, digest):
        status = main(["seg", doc, "--closure", "--children", "--order", "--statistic"])
        out = capsys.readouterr().out
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestWdReportBytes:
    """sha256 of the `wd` report on stdout, fixed while exp_nilpotent summed
    the series of N^k / k! term by term."""

    @pytest.mark.parametrize(
        "doc, digest",
        [
            (
                _seg_doc(("unr", "c0", 0, 16)),
                "4bc97ba1bcdad574ee4a17af033d978661e96f9629a9694f90b6181d32f45507",
            ),
            (
                # n = 16: blocks (7, 2, 2, 2, 1, 1, 1), two of the 2s and two
                # of the 1s from the block-2 line
                _seg_doc(
                    ("unr", "c0", 0, 7), ("unr", "c0", 3, 2), ("unr", "c1", 5, 1),
                    ("A", "c0", 0, 2), ("A", "c0", 1, 1),
                    lines=[{"line_id": "A", "block_size": 2, "inertial_label": "ram"}],
                ),
                "a29e739cff8fd5cccba676f419e296a491e3868057644776d067d23315c41a64",
            ),
            (
                _seg_doc(),
                "e827a9c75b13ef8867088a5c7a7b6e35ef89f8d6ca99305cc215ae08410ffde3",
            ),
        ],
        ids=["one-length-16", "long-and-short-blocks", "empty"],
    )
    def test_stdout_digest(self, capsys, doc, digest):
        status = main(["wd", doc])
        out = capsys.readouterr().out
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _dims_doc(q, *segments):
    return json.dumps({"multisegment": json.loads(_seg_doc(*segments)), "q": q})


class TestExactArithReportBytes:
    """sha256 of the `dims`, `identity-check` and `selftest` reports on
    stdout, fixed while standard_module_k1_dim and dims took the flag count
    over the segment lengths in admissible order."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["selftest"],
                "921b1f0dd8503c86510ea83610edd68dd3149a3f21514e4c2d3877a771216d3c",
            ),
            (
                ["identity-check", "--n-max", "8"],
                "dbc18dc5ff72193a5a1ef800e0035eac8f46ab279b3006f2623bf0df8b37dc23",
            ),
            (
                ["identity-check", "--n-max", "12", "--q", "2,49"],
                "4d36c9b49bf4f1f433a3645ea1432e607eceb0709bb039dc188370ab9681cf1a",
            ),
            (
                # admissible order puts [2] and [1, 3] before [0, 1]
                ["dims", _dims_doc(
                    {"p": 3, "f": 1},
                    ("unr", "c0", 0, 2), ("unr", "c0", 2, 1), ("unr", "c0", 1, 3),
                )],
                "fd8d4209fa1e9519c96597cf198a0733d72807563f1b665af4d725a1aa33d8c6",
            ),
            (
                ["dims", _dims_doc(
                    {"p": 5, "f": 2},
                    ("unr", "c0", 0, 2), ("unr", "c1", 0, 3), ("unr", "c1", 3, 1),
                )],
                "e85fe7686680b12280279326c90b1f1d717e27ca44f2ebefd28f62c217ac8b28",
            ),
            (
                ["dims", _dims_doc(
                    {"p": 2, "f": 3},
                    ("unr", "c0", 0, 1), ("unr", "c0", 1, 2), ("unr", "c0", 3, 3),
                    ("unr", "c1", 0, 4), ("unr", "c1", 2, 1),
                )],
                "b40809a7c6d393a90220f34c99c2d0ff88bd00df1094edad14b5397cc88d711a",
            ),
        ],
        ids=[
            "selftest", "identity-check-8", "identity-check-12-q-2-49",
            "dims-out-of-admissible-order", "dims-two-cosets", "dims-five-segments-q-8",
        ],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        status = main(argv)
        out = capsys.readouterr().out
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestLargeValuations:
    """v_p of a result with hundreds of thousands of factors p is found in
    O(log v_p) divisions; sha256 of stdout fixed while vp divided out one
    factor of p at a time (69 s for `dims`, 6.2 s for `family`)."""

    def test_dims_p2_f3000(self, capsys):
        doc = {
            "multisegment": json.loads(_seg_doc(("unr", "c0", 0, 10), ("unr", "c0", 3, 10))),
            "q": {"p": 2, "f": 3000},
        }
        t0 = time.perf_counter()
        status = main(["dims", json.dumps(doc)])
        assert time.perf_counter() - t0 < 5.0
        out = capsys.readouterr().out
        assert status == 0
        assert json.loads(out)["valuation_statistic"] == 90
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "dacb5cec6b4b3e01a8691d83ca7c4931a17a0a392157ee375fdbb7a21484b4c3"
        )

    def test_family_block_12_p2_f4(self, capsys):
        # four length-8 segments on a block-12 line: q' = 2^48
        doc = {
            "fields": [{"p": 2, "f": 4}],
            "points": ["a"],
            "closed_sets": [[], ["a"]],
            "sigma": ["a"],
            "lines": [{"line_id": "L", "block_size": 12, "inertial_label": "L"}],
            "assignment": {"a": [json.loads(_seg_doc(*[("L", "c0", k, 8) for k in range(4)]))]},
            "unit_seeds": {"k1": 17, "iwahori": 5},
        }
        t0 = time.perf_counter()
        status = main(["family", json.dumps(doc), "a"])
        assert time.perf_counter() - t0 < 2.0
        out = capsys.readouterr().out
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "01607ad4c669deb82ec216f5e33f8969c5dc34ac7152f9785ecd23762ab89c83"
        )

    def test_dims_p2_f10000(self, capsys):
        # a 1.9-million-bit k1_dim; sha256 taken while dims ran vp on the
        # whole product and str printed it (18.6-19.6 s on a 2-vCPU VM)
        doc = {
            "multisegment": json.loads(_seg_doc(("unr", "c0", 0, 10), ("unr", "c0", 3, 10))),
            "q": {"p": 2, "f": 10000},
        }
        t0 = time.perf_counter()
        status = main(["dims", json.dumps(doc)])
        assert time.perf_counter() - t0 < 5.0
        out = capsys.readouterr().out
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1594b8c6796f4269a43fbcc0571b2aece3bcb3f67215e83af667b200abf81e63"
        )

    def test_family_length_1500_p3(self, capsys):
        # statistic 1,124,250, so t'' = u'' * 9^1124250 has 3.6 million bits;
        # sha256 taken while ratio_valuation ran vp on t' and t'' (49.3-54.5 s)
        doc = {
            "fields": [{"p": 3, "f": 1}],
            "points": ["a"],
            "closed_sets": [[], ["a"]],
            "sigma": ["a"],
            "assignment": {"a": [{"segments": [{"line": "unr", "start": 0, "len": 1500}]}]},
            "unit_seeds": {"k1": 17, "iwahori": 5},
        }
        t0 = time.perf_counter()
        status = main(["family", json.dumps(doc), "a"])
        assert time.perf_counter() - t0 < 3.0
        out = capsys.readouterr().out
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c4c9f0513fb397c3fe7e36c137923302728cf735914bc942fec31a0e91ea63fe"
        )


def _seg_reference(doc: str) -> str:
    """What `seg --closure --children --order --statistic` writes for doc,
    built through multisegment_to_json and generic dicts, as the command did
    before it rendered closure nodes and edges itself."""
    s = seg.multisegment_from_json(json.loads(doc))

    def text(c):
        return json.dumps(seg.multisegment_to_json(c), sort_keys=True)

    closure = seg.closure_edges(s)
    nodes = sorted({s}.union(c for _, c in closure), key=lambda c: (seg.statistic(c), text(c)))
    index = {node: k for k, node in enumerate(nodes)}
    edges = [
        {
            "parent": index[a],
            "child": index[b],
            "lengths": [abc[0], abc[1]],
            "overlap": abc[2],
            "statistic_delta": (abc[0] - abc[2]) * (abc[1] - abc[2]),
        }
        for (a, b), abc in sorted(closure.items(), key=lambda e: (index[e[0][0]], index[e[0][1]]))
    ]
    reference = {
        "multisegment": seg.multisegment_to_json(s),
        "statistic": seg.statistic(s),
        "order": [
            seg.multisegment_to_json(seg.Multisegment([g]))["segments"][0]
            for g in seg.admissible_order(s)
        ],
        "children": [
            seg.multisegment_to_json(c) for c in sorted(seg.elementary_edges(s), key=text)
        ],
        "closure": {"nodes": [seg.multisegment_to_json(n) for n in nodes], "edges": edges},
    }
    return json.dumps(reference, sort_keys=True, indent=2) + "\n"


def _small_supports():
    """Every multisegment whose support is {0, ..., m-1} with multiplicity mu,
    for m * mu <= 6."""
    for m in range(1, 7):
        for mu in range(1, 6 // m + 1):
            for k, s in enumerate(sorted(multisegments_with_support(m, mu), key=repr)):
                yield pytest.param(json.dumps(seg.multisegment_to_json(s)), id=f"m{m}-mu{mu}-{k}")


class TestClosureReportBytes:
    """`seg --closure` renders each node and edge straight into the report's
    format; json.dumps of the generic document is its oracle."""

    @pytest.mark.parametrize(
        "doc",
        [
            *_small_supports(),
            # one segment: the closure has one node and no edge
            pytest.param(_seg_doc(("unr", "c0", -3, 4)), id="one-segment"),
            pytest.param(_seg_doc(), id="empty"),
            # non-ASCII and escaped line ids and cosets, a block-2 line,
            # negative starts
            pytest.param(_seg_doc(
                ("\u03c1", "c\u00f6", -2, 1), ("\u03c1", "c\u00f6", -1, 2),
                ("\u03c1", "c\u00f6", 0, 1), ('q"\\', "\u2028", -1, 1), ('q"\\', "\u2028", 0, 1),
                ("unr", "c0", -5, 2), ("unr", "c0", -4, 1),
                lines=[
                    {"line_id": "\u03c1", "block_size": 2, "inertial_label": "\u00e9"},
                    {"line_id": 'q"\\', "block_size": 1, "inertial_label": "t\u00e4"},
                ],
            ), id="non-ascii-block-2-negative"),
        ],
    )
    def test_same_bytes_as_the_generic_document(self, capsys, doc):
        status = main(["seg", doc, "--closure", "--children", "--order", "--statistic"])
        assert status == 0
        assert capsys.readouterr().out == _seg_reference(doc)

    def test_written_at_any_indent(self):
        s = seg.multisegment_from_json(json.loads(_seg_doc(*[("unr", "c0", i, 1) for i in range(3)])))
        doc = {"x": [{"y": seg.multisegment_to_json(s)}]}
        for indent in ("", "  ", "\t "):
            assert _dumps(doc, indent) == json.dumps(doc, sort_keys=True, indent=2).replace(
                "\n", "\n" + indent
            )


# --- fuzzing: random argv and JSON for every subcommand ---------------------
#
# Each call gets a random choice of its subcommand's flags, sometimes an
# output path in a missing directory or an argument argparse rejects, and a
# well-formed document or one with a single value (the whole document
# included) replaced by an arbitrary JSON value.  Integers stay in -3..6,
# multisegments have at most 5 segments, and --n-max stays small or passes
# the bound, so no call runs long.

_SMALL_INTS = st.integers(-3, 6)
_JUNK = st.recursive(
    st.none() | st.booleans() | st.floats() | _SMALL_INTS | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
_POINTS = ["a", "b", "c"]


def _segment(draw, line, length):
    return {
        "line": line,
        "coset": draw(st.sampled_from(["c0", "c1"])),
        "start": draw(_SMALL_INTS),
        "len": length,
    }


def _multisegment(draw):
    lines = [{"line_id": "A", "block_size": draw(st.integers(1, 6)), "inertial_label": "ram"}]
    segments = [
        _segment(draw, draw(st.sampled_from(["unr", "A"])), draw(st.integers(1, 6)))
        for _ in range(draw(st.integers(0, 5)))
    ]
    return {"lines": lines, "segments": segments}


def _scenario(draw):
    """Equal ambient sizes per slot, so that most draws reach the pipeline."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    assignment = {}
    for x in _POINTS:
        per_field = []
        for n in sizes:
            lengths = []
            while sum(lengths) < n:
                lengths.append(draw(st.integers(1, n - sum(lengths))))
            per_field.append({"segments": [_segment(draw, "unr", ln) for ln in lengths]})
        assignment[x] = per_field
    doc = {
        "fields": [
            {"p": draw(st.sampled_from([2, 3, 5])), "f": draw(st.integers(1, 2))}
            for _ in sizes
        ],
        "points": list(_POINTS),
        "closed_sets": [[], ["c"], ["a", "b"], list(_POINTS)],
        "sigma": list(_POINTS),
        "assignment": assignment,
        "unit_seeds": {"k1": draw(_SMALL_INTS), "iwahori": draw(_SMALL_INTS)},
    }
    if draw(st.booleans()):
        doc["declared"] = {
            kind: {"0": {draw(st.sampled_from(_POINTS)): draw(_SMALL_INTS)}}
            for kind in ("type_traces", "ratio_valuations")
        }
    return doc


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


def _with_junk(draw, doc):
    """doc, or doc with one value replaced by an arbitrary JSON value."""
    if draw(st.booleans()):
        return doc
    path = draw(st.sampled_from(list(_paths(doc))))
    junk = draw(_JUNK)
    if not path:
        return junk
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = junk
    return doc


@st.composite
def _cli_calls(draw):
    """(argv, stdin text) for one call; a main document is read from stdin."""
    command = draw(
        st.sampled_from(["seg", "dims", "wd", "family", "identity-check", "selftest"])
    )
    doc = None
    output = "--output"
    if command == "seg":
        flags = ["--statistic", "--order", "--children", "--closure"]
        argv = ["seg", "-", *draw(st.lists(st.sampled_from(flags), unique=True))]
        if draw(st.booleans()):
            argv += ["--leq", json.dumps(_with_junk(draw, _multisegment(draw)))]
        doc = _multisegment(draw)
    elif command == "dims":
        argv = ["dims", "-"]
        q = {"p": draw(st.sampled_from([2, 3, 5])), "f": draw(st.integers(1, 6))}
        doc = {"multisegment": _multisegment(draw), "q": q}
    elif command == "wd":
        argv, doc = ["wd", "-"], _multisegment(draw)
    elif command == "family":
        argv = ["family", "-", draw(st.sampled_from(_POINTS + ["z"]))]
        seeds = st.sampled_from(["-1", "0", "1", "2", "3", "x"])
        argv += draw(st.sampled_from([[], ["--seeds", draw(seeds)]]))
        doc, output = _scenario(draw), "--report"
    elif command == "identity-check":
        argv = ["identity-check"]
        if draw(st.booleans()):
            n_max = ["-1", "0", "1", "3", "5", "13", "99999", "x", ""]
            argv += ["--n-max", draw(st.sampled_from(n_max))]
        if draw(st.booleans()):
            qs = ["2", "3", "4", "6", "9", "0", "1", "-5", "abc", " ", ""]
            argv += ["--q", ",".join(draw(st.lists(st.sampled_from(qs), max_size=3)))]
    else:
        argv = ["selftest"]
    if command != "selftest" and draw(st.booleans()):
        argv += [output, MISSING_DIR_FILE]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "x"])))
    return argv, "" if doc is None else json.dumps(_with_junk(draw, doc))


class TestFuzz:
    """Random command lines and documents end in exit status 0, 1 or 2,
    never in a traceback."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_cli_calls())
    def test_exit_status_only(self, call):
        argv, text = call
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ), mock.patch.object(sys, "stdin", io.StringIO(text)):
            try:
                status = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                status = exc.code
        assert status in (0, 1, 2)


# --- the report writer -------------------------------------------------------

_TEXT = st.text(max_size=8) | st.text(
    st.sampled_from('a"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'), max_size=8
)
_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**80), 10**80) | _TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30,
)


class TestDumps:
    """_dumps writes every report; json.dumps is its oracle."""

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(_DOCS)
    def test_same_bytes_as_json_dumps(self, doc):
        assert _dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_DOCS, st.integers(1, 5))
    def test_streamed_batches_are_the_same_bytes(self, doc, batch):
        """With flush, the batches and the returned rest make the same text,
        also when a batch ends inside a rendered array or a nested one."""
        chunks = []
        rendered = {"r": cli._multisegments([seg.Multisegment([])] * 3, []), "d": doc}
        with mock.patch.object(cli, "_BATCH", batch):
            for value in (doc, rendered):
                chunks.clear()
                rest = _dumps(value, flush=chunks.extend)
                assert "".join(chunks) + rest == _dumps(value)
        assert _dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)

    @pytest.mark.parametrize("doc", [1.5, {"x": [float("nan")]}, {1: "a"}, {"x": {2}}])
    def test_rejects_what_it_does_not_write(self, doc):
        with pytest.raises(TypeError):
            _dumps(doc)


SRC = Path(__file__).resolve().parents[1] / "src"


def _env(**env_vars):
    env = {**os.environ, **env_vars}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _python(*args, **env_vars):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=_env(**env_vars), timeout=120
    )


class TestOptimizedInterpreter:
    """python -O strips asserts; the results and the checks must not change."""

    WD_INPUT = json.dumps(
        {
            "lines": [{"line_id": "A", "block_size": 2, "inertial_label": "ram"}],
            "segments": [
                {"line": "unr", "start": 0, "len": 4},
                {"line": "unr", "start": 2, "len": 3},
                {"line": "A", "start": 0, "len": 2},
            ],
        }
    )

    SEG_INPUT = _seg_doc(
        ("unr", "c0", 0, 1), ("unr", "c0", 1, 2), ("unr", "c0", 2, 1), ("unr", "c1", 0, 1),
        ("A", "c0", 0, 1), ("A", "c0", 1, 1),
        lines=[{"line_id": "A", "block_size": 2, "inertial_label": "ram"}],
    )

    @pytest.mark.parametrize(
        "argv",
        [["wd", WD_INPUT], ["selftest"], ["seg", SEG_INPUT, "--closure"]],
        ids=["wd", "selftest", "seg-closure"],
    )
    def test_same_bytes_under_O(self, argv):
        plain = _python("-m", "bzcalc.cli", *argv)
        optimized = _python("-O", "-m", "bzcalc.cli", *argv)
        assert plain.returncode == optimized.returncode == 0, optimized.stderr
        assert plain.stdout and optimized.stdout == plain.stdout


class TestClosedStdout:
    def test_reader_that_leaves_early_gets_one_line(self):
        """The closure of ten singletons, about 840 KB, outgrows the pipe
        buffer, so a write fails once the reader has closed the pipe."""
        doc = _seg_doc(*[("unr", "c0", i, 1) for i in range(10)])
        argv = [sys.executable, "-m", "bzcalc.cli", "seg", doc, "--closure"]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env()
        ) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 1
        assert err == b"error: stdout closed before the report was written\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestStdoutOnFullDevice:
    """Every write to /dev/full fails with ENOSPC: a failed write to stdout
    that is not a closed pipe ends in one line and exit 1 as well, also
    where main prints a model violation's certificate."""

    # b declares a type trace that a, its twist, does not have; the only
    # closed sets are [] and the whole space, so no trace can split them
    VIOLATION = json.dumps({
        "fields": [{"p": 3, "f": 1}], "points": ["a", "b"], "closed_sets": [[], ["a", "b"]],
        "sigma": ["a", "b"],
        "assignment": {"a": [{"segments": [{"line": "unr", "start": 0, "len": 2}]}],
                       "b": [{"segments": [{"line": "unr", "start": 3, "len": 2}]}]},
        "unit_seeds": {"k1": 1, "iwahori": 2}, "declared": {"type_traces": {"0": {"b": 0}}},
    })

    @pytest.mark.parametrize(
        "argv, before",
        [
            (["seg", _seg_doc(("unr", "c0", 0, 3)), "--closure"], b""),
            (["selftest"], b""),
            (["family", VIOLATION, "a"],
             b"model violation: trace 'type trace, field 0' admits no closed-fiber extension\n"),
        ],
        ids=["seg-closure", "selftest", "family-violation"],
    )
    def test_one_line(self, argv, before):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "bzcalc.cli", *argv], stdout=full,
                                  stderr=subprocess.PIPE, env=_env(), timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == before + (
            b"error: cannot write to stdout: [Errno 28] No space left on device\n")


class TestStreamedReport:
    """A report goes out in batches as it is rendered, so a write that fails
    part-way ends in one line and exit 1, and a large closure is never held
    as one string."""

    STACKED = _seg_doc(*[("unr", "c0", i, 1) for i in range(8) for _ in range(2)])

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    def test_closure_peak_memory(self, tmp_path):
        """seg --closure on 2 x 8 stacked singletons writes a 15.4 MB report,
        which is never held whole: the command peaks under +45 MB over the
        import.  The child reads its own high-water mark, VmHWM: Linux starts
        a child's ru_maxrss at the peak of the process that spawned it, here
        pytest's."""
        path = tmp_path / "closure.json"
        code = (
            "def hwm():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
            "from bzcalc.cli import main\n"
            "base = hwm()\n"
            f"status = main(['seg', {self.STACKED!r}, '--closure', '--output', {str(path)!r}])\n"
            "print(status, (hwm() - base) / 1024)\n"  # kB to MB
        )
        proc = _python("-c", code)
        assert proc.returncode == 0, proc.stderr
        status, grown_mb = proc.stdout.split()
        assert status == b"0"
        assert float(grown_mb) < 45
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "0574122b9edd5023e98a921faf051a0fbe667f08ce81378adfbcd7b70a5da116"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ["seg", _seg_doc(*[("unr", "c0", i, 1) for i in range(10)]), "--closure",
             "--output", "/dev/full"],
            ["family", readme_scenario(), "a", "--report", "/dev/full"],
        ],
        ids=["seg-closure", "family"],
    )
    def test_full_device_gets_one_line(self, capsys, argv):
        """Every write to /dev/full fails with ENOSPC: for the closure, with
        the first batch, long before the report ends."""
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cannot write /dev/full: [Errno 28] No space left on device\n"
        )


# The public names of the package, by the submodule that defines them.
PUBLIC = {
    "segments": [
        "CuspidalLine", "Multisegment", "Segment", "admissible_order",
        "downward_closure", "elementary_edges", "is_linked", "leq",
        "multisegment_from_json", "multisegment_to_json", "precedes", "statistic",
        "support",
    ],
    "dimensions": [
        "Composition", "PrimePower", "compositions", "elementary_statistic_delta",
        "gaussian_flag_count", "parabolic_alternating_sum", "standard_module_k1_dim",
        "steinberg_k1_dim", "triangle_check", "valuation_statistic", "vp",
    ],
    "weildeligne": [
        "JordanPartition", "WDShadow", "exp_nilpotent", "nonzero_count",
        "wd_from_multisegment",
    ],
    "family": [
        "FamilyScenario", "FiniteSite", "RigidityReport", "SimulatedTrace",
        "base_change_shadow", "clopen_locus", "is_dense", "iwahori_trace", "k1_trace",
        "ratio_valuation", "run_pipeline", "scenario_from_json", "scenario_to_json",
    ],
    "exceptions": ["DomainError", "ModelViolation"],
}

LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'bzcalc')"


def _loaded_after(code: str) -> list:
    """The bzcalc modules a fresh interpreter holds after running code."""
    proc = _python("-c", f"import json, sys\n{code}\nprint(json.dumps({LOADED}))")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.decode().splitlines()[-1])


class TestLazyPackage:
    """The package imports a submodule when a name from it is first used, and
    each subcommand imports only the submodules it runs."""

    def test_cli_import_loads_what_seg_and_dims_use(self):
        assert _loaded_after("import bzcalc.cli") == [
            "bzcalc", "bzcalc.cli", "bzcalc.dimensions", "bzcalc.exceptions",
            "bzcalc.segments",
        ]

    def test_seg_closure_and_dims_skip_family_and_weildeligne(self):
        dims_doc = json.dumps({"multisegment": json.loads(MS_SINGLETONS), "q": {"p": 2, "f": 1}})
        loaded = _loaded_after(
            "import contextlib, io\n"
            "from bzcalc.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['seg', {MS_SINGLETONS!r}, '--closure']) == 0\n"
            f"    assert main(['dims', {dims_doc!r}]) == 0"
        )
        assert "bzcalc.family" not in loaded and "bzcalc.weildeligne" not in loaded
        assert "bzcalc.segments" in loaded and "bzcalc.dimensions" in loaded

    def test_family_skips_weildeligne_and_fractions(self):
        code = (
            "import sys, bzcalc.family\n"
            "print([m for m in ('bzcalc.weildeligne', 'fractions') if m in sys.modules])"
        )
        proc = _python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"[]\n"

    def test_name_loads_its_submodule_once(self):
        loaded = _loaded_after(
            "import bzcalc\n"
            "assert bzcalc.leq is bzcalc.segments.leq\n"
            "assert 'leq' in vars(bzcalc)\n"
            "assert set(bzcalc.__all__) <= set(dir(bzcalc))"
        )
        assert loaded == ["bzcalc", "bzcalc.exceptions", "bzcalc.segments"]

    def test_all_names_are_the_submodules_objects(self):
        assert bzcalc.__all__ == sorted([*PUBLIC, *(n for ns in PUBLIC.values() for n in ns)])
        for module, names in PUBLIC.items():
            source = importlib.import_module(f"bzcalc.{module}")
            assert getattr(bzcalc, module) is source
            for name in names:
                assert getattr(bzcalc, name) is getattr(source, name), name

    def test_star_import_and_unknown_names(self):
        namespace: dict = {}
        exec("from bzcalc import *", namespace)
        assert set(bzcalc.__all__) <= set(namespace)
        assert namespace["run_pipeline"] is fam.run_pipeline
        with pytest.raises(AttributeError, match="'nope'"):
            bzcalc.nope
        with pytest.raises(ImportError):
            exec("from bzcalc import nope", {})
