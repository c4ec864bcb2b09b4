"""The record base of the report and data classes (braidhom._record), and
the start-up it buys: importing the CLI loads neither ``dataclasses`` nor
``inspect``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from braidhom import ZZ
from braidhom.braiding import CharacterReport, HopfReport, Permutation, YbeReport
from braidhom.complexes import _NAMED, BraidedModule, SimplicialReport
from braidhom.exactlin import ExactError, SparseLinearMap
from braidhom.homology import DegreeHomology, HomologyReport
from braidhom.scenario import Scenario
from braidhom.structures import CovectorReport, ShelfTable, dihedral_shelf


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every braidhom process imports the CLI first; neither module is
    among those the import adds."""
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys; before = set(sys.modules); import braidhom.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "braidhom.cli" in added
    assert not added & {"dataclasses", "inspect"}


def _frozen_records_refuse_changes_and_key_dicts():
    for record, name in ((Permutation((2, 1)), "images"), (dihedral_shelf(3), "table"),
                         (_NAMED["rack"], "payload")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.cache = {}
    seen = {Permutation((2, 1)): "swap", ShelfTable(((0,),)): "point"}
    assert seen[Permutation((2, 1))] == "swap"
    assert seen[ShelfTable(((0,),))] == "point"
    assert Permutation((1, 2)) not in seen


def _mutable_records_are_unhashable():
    for record in (YbeReport(True), HomologyReport("Z", "b", {}),
                   Scenario("z", {"kind": "flip", "dim": 1}, 1)):
        with pytest.raises(TypeError):
            hash(record)


def _factory_defaults_are_fresh():
    first, second = HopfReport(True), HopfReport(True)
    first.failures.append("antipode")
    assert second.failures == []
    assert DegreeHomology(0, 1, 1).torsion is not DegreeHomology(0, 1, 1).torsion
    assert SimplicialReport("a", "a", True, "a").failures == []
    one, two = Scenario("z", {}, 1), Scenario("z", {}, 1)
    one.characters["c"] = ["1"]
    assert two.characters == {} and two.modules is not one.modules


def _post_init_validates():
    with pytest.raises(ExactError):
        Permutation((1, 1))
    with pytest.raises(ExactError):
        ShelfTable(((0, 1),))
    with pytest.raises(ExactError):
        BraidedModule(1, SparseLinearMap.zero(1, 1, ZZ), side="up")
    assert BraidedModule(1, SparseLinearMap.zero(1, 1, ZZ), side="left").side == "left"


def _equality_needs_the_same_class():
    assert YbeReport(True) == YbeReport(ok=True, violation=None)
    assert YbeReport(True) != YbeReport(False)
    assert YbeReport(True) != CovectorReport(True)
    assert Permutation((2, 1)) == Permutation(images=(2, 1))
    assert Permutation((2, 1)) != (2, 1)


def _arguments_and_repr():
    assert CharacterReport("ones", ok=True).violation is None
    with pytest.raises(TypeError):
        CharacterReport("ones")
    with pytest.raises(TypeError):
        CharacterReport("ones", True, None, "extra")
    with pytest.raises(TypeError):
        CharacterReport("ones", True, okay=True)
    with pytest.raises(TypeError):
        CharacterReport("ones", True, name="twice")
    assert repr(CharacterReport("ones", True)) == \
        "CharacterReport(name='ones', ok=True, violation=None)"


@pytest.mark.parametrize("case", [
    _frozen_records_refuse_changes_and_key_dicts,
    _mutable_records_are_unhashable,
    _factory_defaults_are_fresh,
    _post_init_validates,
    _equality_needs_the_same_class,
    _arguments_and_repr,
], ids=lambda case: case.__name__.lstrip("_"))
def test_record_contract(case):
    """What the package reads of its record classes: frozen ones refuse
    changes and hash by their fields, mutable ones are unhashable, a list
    or dict default is fresh for each instance, __post_init__ validates,
    equality needs the same class, and __init__ and repr read the fields in
    order."""
    case()
