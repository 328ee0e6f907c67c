import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bzcalc.cli import main
from bzcalc.family import scenario_to_json

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

    def test_identity_check(self, capsys):
        q = 2**220
        status, doc = run_cli(capsys, "identity-check", "--n-max", "12", "--q", str(q))
        assert status == 0
        row = doc["rows"][-1]
        assert row["n"] == 12
        assert len(row["steinberg_dim"]) > 4300
        assert self._parse(row["steinberg_dim"]) == q**66
        assert self._parse(row["alternating_sum"]) == q**66


class TestMalformedNumbers:
    @pytest.mark.parametrize(
        "argv, env",
        [
            (["seg", '{"segments": [{"line": "unr", "start": "x", "len": 1}]}'], {}),
            (["identity-check", "--q", "abc"], {}),
            (
                ["dims", json.dumps({"multisegment": json.loads(MS_L3), "q": {"p": "abc", "f": 1}})],
                {},
            ),
            (["identity-check", "--n-max", "3"], {"BZ_MAX_N": "x"}),
            (["seg", '{"segments": [{"line": "unr", "start": ' + "1" * 5000 + ', "len": 1}]}'], {}),
        ],
        ids=["segment-start", "identity-check-q", "dims-q-p", "bz-max-n", "huge-literal"],
    )
    def test_exit_one_with_one_line(self, capsys, monkeypatch, argv, env):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        status = main(argv)
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


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


class TestSelftest:
    def test_selftest_passes(self, capsys):
        status = main(["selftest"])
        out = capsys.readouterr().out
        assert status == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 4


def _readme_scenario():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text[text.index("### Scenario documents"):]
    return re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)


class TestReadmeScenario:
    def test_documented_example_runs(self, capsys):
        status, report = run_cli(capsys, "family", _readme_scenario(), "a")
        assert status == 2
        assert report["X0"] == ["a", "b", "c"]
        bad = [v["point"] for v in report["verdicts"] if v["status"] == "violation"]
        assert bad == ["c"]

    def test_without_declared_block(self, capsys):
        doc = json.loads(_readme_scenario())
        del doc["declared"]
        status, report = run_cli(capsys, "family", json.dumps(doc), "a")
        assert status == 0
        assert report["X0"] == ["a", "b"]


SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, timeout=120
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

    @pytest.mark.parametrize("argv", [["wd", WD_INPUT], ["selftest"]], ids=["wd", "selftest"])
    def test_same_bytes_under_O(self, argv):
        plain = _python("-m", "bzcalc.cli", *argv)
        optimized = _python("-O", "-m", "bzcalc.cli", *argv)
        assert plain.returncode == optimized.returncode == 0, optimized.stderr
        assert plain.stdout and optimized.stdout == plain.stdout

    def test_nilpotency_check_survives_O(self):
        code = (
            "import bzcalc.weildeligne as w\n"
            "w._times_nilpotent = lambda rows, p: rows\n"
            "w.exp_nilpotent(w.JordanPartition((2,)))\n"
        )
        proc = _python("-O", "-c", code)
        assert proc.returncode != 0
        assert b"ArithmeticError: N^2 does not vanish" in proc.stderr
