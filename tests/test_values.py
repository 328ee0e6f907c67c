"""The seven value classes, which behave as frozen dataclasses without being
ones, and the cold start of the CLI, which never imports dataclasses."""
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
from bzcalc.segments import CuspidalLine, Multisegment, Segment
from bzcalc.weildeligne import JordanPartition, WDShadow

SRC = Path(__file__).resolve().parents[1] / "src"

UNR_REPR = "CuspidalLine(line_id='unr', block_size=1, inertial_label='unr')"


def _segment(start, length):
    return Segment(CuspidalLine("unr"), "c0", start, length)


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
}


@pytest.mark.parametrize("name", CASES)
class TestValueContract:
    """What each value class kept from @dataclass(frozen=True)."""

    def test_built_afresh_is_equal_with_the_same_hash(self, name):
        build, _, _, _, build_changed = CASES[name]
        value, fresh = build(), build()
        assert value is not fresh
        assert value == fresh and hash(value) == hash(fresh)
        assert {value: 1}[fresh] == 1
        assert value != build_changed()
        assert value != tuple(getattr(value, f) for f in value.__match_args__)

    def test_repr_is_the_dataclass_text(self, name):
        build, text, _, _, _ = CASES[name]
        assert repr(build()) == text

    def test_pickle_and_copy_round_trip(self, name):
        value = CASES[name][0]()
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(clone) is type(value)
            assert clone == value and hash(clone) == hash(value)

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
            changed = replace(**change)
            assert changed == fresh and hash(changed) == hash(fresh)
            assert replace() == value and hash(replace()) == hash(value)
        with pytest.raises(TypeError):
            value.__replace__(no_such_field=1)


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
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run(
        [sys.executable, "-S", "-c", _COLD_START],
        capture_output=True, env=env, timeout=60, check=True,
    ).stdout
    assert json.loads(out) == {"import": [], "statuses": [0] * 5, "dataclasses_after_runs": False}
