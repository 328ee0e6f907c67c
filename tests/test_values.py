"""The eleven value classes, which behave as frozen dataclasses without being
ones, and the cold start of the CLI and of a family run, which never import
dataclasses."""
import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from bzcalc.dimensions import Composition, PrimePower
from bzcalc.family import FamilyScenario, FiniteSite, RigidityReport, SimulatedTrace
from bzcalc.segments import CuspidalLine, Multisegment, Segment
from bzcalc.weildeligne import JordanPartition, WDShadow
from conftest import readme_scenario

SRC = Path(__file__).resolve().parents[1] / "src"

UNR_REPR = "CuspidalLine(line_id='unr', block_size=1, inertial_label='unr')"


def _segment(start, length):
    return Segment(CuspidalLine("unr"), "c0", start, length)


def _site(point="a"):
    """A site with one closed set, so that no repr follows the hash seed."""
    return FiniteSite(frozenset({point}), frozenset({frozenset({"a"})}))


SITE_REPR = "FiniteSite(points=frozenset({'a'}), closed_sets=frozenset({frozenset({'a'})}))"


def _scenario(k1=1, iwahori=2, derived=None):
    return FamilyScenario((PrimePower(3, 1),), _site(), frozenset({"a"}),
                          {"a": (Multisegment([_segment(0, 2)]),)},
                          {"k1": k1, "iwahori": iwahori}, _derived=derived)


def _report(x0="a"):
    return RigidityReport(x0, ("a",), ((("unr", 2, 1),),),
                          ({"point": "a", "status": "certified"},), (),
                          (("iwahori", 2), ("k1", 1)))


# Their fields hold dicts, so hashing one raises TypeError, as it did when
# they were dataclasses.
UNHASHABLE = ("FamilyScenario", "RigidityReport")


# name -> (build a value afresh, its repr, its fields, a change,
#          build the changed value afresh)
CASES = {
    "CuspidalLine": (
        lambda: CuspidalLine("A", 2, "ram"),
        "CuspidalLine(line_id='A', block_size=2, inertial_label='ram')",
        ("line_id", "block_size", "inertial_label"),
        {"block_size": 3},
        lambda: CuspidalLine("A", 3, "ram"),
    ),
    "Segment": (
        lambda: _segment(0, 2),
        f"Segment(line={UNR_REPR}, coset='c0', start=0, length=2)",
        ("line", "coset", "start", "length"),
        {"start": 5},
        lambda: _segment(5, 2),
    ),
    "Multisegment": (
        lambda: Multisegment([_segment(1, 1), _segment(0, 2)]),
        f"Multisegment(segments=(Segment(line={UNR_REPR}, coset='c0', start=0, length=2), "
        f"Segment(line={UNR_REPR}, coset='c0', start=1, length=1)))",
        ("segments",),
        {"segments": [_segment(0, 2)]},
        lambda: Multisegment([_segment(0, 2)]),
    ),
    "PrimePower": (
        lambda: PrimePower(2, 3),
        "PrimePower(p=2, f=3)",
        ("p", "f"),
        {"f": 1},
        lambda: PrimePower(p=2, f=1),
    ),
    "Composition": (
        lambda: Composition([1, 2]),
        "Composition(parts=(1, 2))",
        ("parts",),
        {"parts": (2, 1)},
        lambda: Composition(parts=(2, 1)),
    ),
    "JordanPartition": (
        lambda: JordanPartition([1, 3]),
        "JordanPartition(blocks=(3, 1))",
        ("blocks",),
        {"blocks": [2, 2]},
        lambda: JordanPartition((2, 2)),
    ),
    "WDShadow": (
        lambda: WDShadow([("unr", 4)], JordanPartition([3, 1])),
        "WDShadow(inertia=(('unr', 4),), partition=JordanPartition(blocks=(3, 1)))",
        ("inertia", "partition"),
        {"partition": JordanPartition([2, 2])},
        lambda: WDShadow(inertia=[("unr", 4)], partition=JordanPartition([2, 2])),
    ),
    # the family classes' texts are those of the dataclasses they were
    "FiniteSite": (
        _site,
        SITE_REPR,
        ("points", "closed_sets"),
        {"points": frozenset({"b"})},
        lambda: _site("b"),
    ),
    "SimulatedTrace": (
        lambda: SimulatedTrace(_site(), (("a", 1),), "t"),
        f"SimulatedTrace(site={SITE_REPR}, values=(('a', 1),), label='t')",
        ("site", "values", "label"),
        {"label": "u"},
        lambda: SimulatedTrace(site=_site(), values=(("a", 1),), label="u"),
    ),
    "FamilyScenario": (
        _scenario,
        f"FamilyScenario(fields=(PrimePower(p=3, f=1),), site={SITE_REPR}, "
        f"sigma=frozenset({{'a'}}), assignment={{'a': (Multisegment(segments=(Segment("
        f"line={UNR_REPR}, coset='c0', start=0, length=2),)),)}}, "
        "unit_seeds={'k1': 1, 'iwahori': 2}, declared_type_traces={}, "
        "declared_ratio_valuations={})",
        ("fields", "site", "sigma", "assignment", "unit_seeds", "declared_type_traces",
         "declared_ratio_valuations"),
        {"unit_seeds": {"k1": 5, "iwahori": 6}},
        lambda: _scenario(5, 6),
    ),
    "RigidityReport": (
        _report,
        "RigidityReport(x0='a', locus=('a',), orbits=((('unr', 2, 1),),), "
        "verdicts=({'point': 'a', 'status': 'certified'},), trace_log=(), "
        "seeds=(('iwahori', 2), ('k1', 1)))",
        ("x0", "locus", "orbits", "verdicts", "trace_log", "seeds"),
        {"x0": "b"},
        lambda: _report("b"),
    ),
}


def _assert_same(value, other):
    """Equal, and with equal hashes where the class hashes at all."""
    assert type(other) is type(value)
    assert other == value
    if type(value).__name__ not in UNHASHABLE:
        assert hash(other) == hash(value)


@pytest.mark.parametrize("name", CASES)
class TestValueContract:
    """What each value class kept from @dataclass(frozen=True)."""

    def test_built_afresh_is_equal_with_the_same_hash(self, name):
        build, _, _, _, build_changed = CASES[name]
        value, fresh = build(), build()
        assert value is not fresh
        _assert_same(value, fresh)
        if name not in UNHASHABLE:
            assert {value: 1}[fresh] == 1
        assert value != build_changed()
        assert value != tuple(getattr(value, f) for f in value.__match_args__)

    def test_repr_is_the_dataclass_text(self, name):
        build, text, _, _, _ = CASES[name]
        assert repr(build()) == text

    def test_pickle_and_copy_round_trip(self, name):
        value = CASES[name][0]()
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            _assert_same(value, clone)

    def test_setting_or_deleting_raises(self, name):
        build, _, fields, _, _ = CASES[name]
        value = build()
        for attr in (*fields, "other"):
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{attr}'"):
                setattr(value, attr, None)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{attr}'"):
                delattr(value, attr)
        assert value == build()

    def test_match_args_are_the_fields(self, name):
        build, _, fields, _, _ = CASES[name]
        assert build().__match_args__ == fields

    def test_replace_recomputes_the_hash(self, name):
        build, _, _, change, build_changed = CASES[name]
        value, fresh = build(), build_changed()
        replacers = [value.__replace__]
        if sys.version_info >= (3, 13):
            replacers.append(lambda **kw: copy.replace(value, **kw))
        for replace in replacers:
            _assert_same(fresh, replace(**change))
            _assert_same(value, replace())
        with pytest.raises(TypeError):
            value.__replace__(no_such_field=1)


@pytest.mark.parametrize("name", UNHASHABLE)
def test_a_value_holding_a_dict_is_unhashable(name):
    value = CASES[name][0]()
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(value)
    with pytest.raises(TypeError):
        {value}


class TestScenarioMemo:
    """FamilyScenario._derived, the memo of derived values, is no field: it
    stays out of equality, repr and __match_args__, __replace__ shares it
    unless one is passed, and a pickle or copy starts with an empty one."""

    def test_not_a_field(self):
        sc, fresh = _scenario(), _scenario()
        sc._derived["key"] = "value"
        assert sc == fresh and repr(sc) == repr(fresh)
        assert "_derived" not in FamilyScenario.__match_args__

    def test_replace_and_with_seeds_share_it(self):
        sc = _scenario()
        for copy_ in (sc.__replace__(), sc.__replace__(unit_seeds={}), sc.with_seeds(5, 6)):
            assert copy_._derived is sc._derived
        assert sc.with_seeds(5, 6) == _scenario(5, 6)

    def test_passed_one_is_kept(self):
        mine = {}
        assert _scenario(derived=mine)._derived is mine
        assert _scenario().__replace__(_derived=mine)._derived is mine

    def test_pickle_and_copy_start_empty(self):
        sc = _scenario()
        sc._derived["key"] = "value"
        for clone in (pickle.loads(pickle.dumps(sc)), copy.copy(sc), copy.deepcopy(sc)):
            assert clone == sc and clone._derived == {}


def _bare_python(code):
    """The JSON that code prints, run in an interpreter without site."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, env=env, timeout=60, check=True,
    ).stdout
    return json.loads(out)


# Which of these modules `import bzcalc.cli` loads, and then which of them
# the subcommands (all but family) load, run through cli.main in the same
# process.  A subprocess, since pytest itself has imported all of them.
_HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "pathlib")

_COLD_START = """
import io, json, sys
heavy = %r
import bzcalc.cli
report = {"import": sorted(m for m in heavy if m in sys.modules)}
doc = json.dumps({"segments": [{"line": "unr", "start": i, "len": 1} for i in range(3)]})
dims = json.dumps({"multisegment": json.loads(doc), "q": {"p": 3, "f": 1}})
runs = [["seg", doc, "--closure"], ["dims", dims], ["identity-check", "--n-max", "3"],
        ["wd", doc], ["selftest"]]
statuses = []
for argv in runs:
    sys.stdout = io.StringIO()
    try:
        statuses.append(bzcalc.cli.main(argv))
    finally:
        sys.stdout = sys.__stdout__
report["statuses"] = statuses
report["dataclasses_after_runs"] = "dataclasses" in sys.modules
print(json.dumps(report))
""" % (_HEAVY,)


def test_cold_start_loads_no_dataclasses():
    assert _bare_python(_COLD_START) == {
        "import": [], "statuses": [0] * 5, "dataclasses_after_runs": False}


# Which of these modules a family run loads: on a small scenario that
# certifies, and on the README scenario, which ends in a violation.
_FAMILY_HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "shutil")

_FAMILY_COLD_START = """
import io, json, sys
heavy, docs = %r, %r
import bzcalc.cli
statuses = []
for doc in docs:
    sys.stdout = io.StringIO()
    try:
        statuses.append(bzcalc.cli.main(["family", doc, "a", "--seeds", "2"]))
    finally:
        sys.stdout = sys.__stdout__
print(json.dumps({"statuses": statuses, "loaded": sorted(m for m in heavy if m in sys.modules)}))
"""


def test_family_loads_no_heavy_module():
    doc = json.dumps({
        "fields": [{"p": 3, "f": 1}],
        "points": ["a", "b"],
        "closed_sets": [[], ["a"], ["b"], ["a", "b"]],
        "sigma": ["a", "b"],
        "assignment": {"a": [{"segments": [{"line": "unr", "start": 0, "len": 2}]}],
                       "b": [{"segments": [{"line": "unr", "start": i, "len": 1}
                                           for i in range(2)]}]},
        "unit_seeds": {"k1": 17, "iwahori": 5},
    })
    code = _FAMILY_COLD_START % (_FAMILY_HEAVY, [doc, readme_scenario()])
    assert _bare_python(code) == {"statuses": [0, 2], "loaded": []}


# argparse asks shutil for the terminal's width unless it is given one, and
# shutil imports bz2, lzma, zlib and fnmatch.
_BUILD_PARSER = """
import json, sys
import bzcalc.cli
loaded = lambda: sorted(m for m in ("shutil", "bz2") if m in sys.modules)
before = loaded()
bzcalc.cli.build_parser()
print(json.dumps({"before": before, "after": loaded()}))
"""


def test_build_parser_loads_no_shutil():
    assert _bare_python(_BUILD_PARSER) == {"before": [], "after": []}
