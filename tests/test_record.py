"""The record base of the report and data classes (braidhom._record), and
what a process imports at start-up: importing the CLI loads neither
``dataclasses`` nor ``inspect``, a homology run loads none of the code only
``check`` and ``verify`` run and no ``fractions``, and the package resolves
its public names on first access."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import braidhom
from braidhom import ZZ
from braidhom.braiding import CharacterReport, Permutation, YbeReport
from braidhom.complexes import _NAMED, BraidedModule
from braidhom.exactlin import ExactError, SparseLinearMap
from braidhom.homology import DegreeHomology, HomologyReport
from braidhom.identities import HopfReport, SimplicialReport
from braidhom.scenario import Scenario
from braidhom.structures import CovectorReport, ShelfTable, dihedral_shelf

ROOT = Path(__file__).parent.parent


def _fresh(code: str) -> subprocess.CompletedProcess:
    """code run by a fresh interpreter from the repository root, with the
    sources first on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_cli_import_and_homology_runs_load_only_what_they_run():
    """Every braidhom process imports the CLI first. Neither the import nor
    a Z rack or Q Leibniz homology run adds dataclasses, inspect, the check
    and verify code (suites, identities) or fractions and decimal."""
    proc = _fresh(
        "import os, sys; before = set(sys.modules); import braidhom.cli; "
        "imported = set(sys.modules) - before; out, sys.stdout = sys.stdout, "
        "open(os.devnull, 'w'); codes = [braidhom.cli.main(['homology', *argv]) for argv in ("
        "['scenarios/dihedral3.json', '--named', 'rack', '--ring', 'z'], "
        "['scenarios/sl2.json', '--named', 'leibniz', '--ring', 'q'])]; "
        "sys.stdout.close(); sys.stdout = out; print(*codes); print(*sorted(imported)); "
        "print(*sorted(set(sys.modules) - before))")
    codes, imported, after = (line.split() for line in proc.stdout.splitlines())
    assert codes == ["0", "0"]
    assert "braidhom.cli" in imported
    assert not set(imported) & {"dataclasses", "inspect"}
    assert not set(after) & {"dataclasses", "inspect", "braidhom.suites", "braidhom.identities",
                             "fractions", "decimal"}


# What braidhom/__init__.py exported when it imported every module eagerly.
PUBLIC_NAMES = """
    ExactError PrimeField QQ Ring SparseLinearMap ZZ compose is_invertible kernel_dimension
    rank ring_from_name smith_normal_form tensor
    Permutation PreBraidedSpace UnverifiedError antipode braid_lift check_braided_character
    check_braided_coalgebra check_braided_cocharacter check_character_compat check_ybe
    extended_braiding reduced_word shuffle_coproduct shuffle_product shuffle_set
    AlgebraData ShelfTable adjoin_unit algebra_character_check algebra_from_constants
    assoc_braiding check_assoc check_leibniz check_shelf coalgebra_extend coassoc_braiding
    dihedral_shelf dirac_character dual_coalgebra flip_braiding koszul_braiding
    leibniz_braiding lie_character_check q_flip_braiding shelf_braiding signed_flip_braiding
    trivial_shelf twist_character
    Bicomodule Bimodule BraidedModule COMPLEX_PARAMS adjoint_module bimodule_diff
    check_bicomodule check_bimodule check_braided_module check_naturality check_simplicial
    coeff_diff combined_diff concat_homotopy crossing_action degeneracy face hyper_boundary
    left_codiff left_diff named_complex rack_contraction right_codiff right_diff
    signed_binomial
    ChainComplex HomologyReport ResourceCapError SpanStabilityError SquareZeroError betti
    certify_acyclic integral_homology subquotient
""".split()


def test_package_names_resolve_on_first_access():
    """Each exported name resolves through ``from braidhom import name`` to
    the object of the module that defines it; an unknown name is an
    AttributeError, and ``from braidhom import *`` gives every name."""
    for name in PUBLIC_NAMES:
        scope: dict = {}
        exec(f"from braidhom import {name}", scope)
        value = scope[name]
        home = sys.modules[f"braidhom.{braidhom._HOME[name]}"]
        assert value is getattr(home, name), name
    assert sorted(braidhom.__all__) == sorted(PUBLIC_NAMES)
    with pytest.raises(AttributeError):
        braidhom.no_such_name
    scope = {}
    exec("from braidhom import *", scope)
    assert set(PUBLIC_NAMES) <= set(scope)


@pytest.mark.parametrize("module", sorted(
    path.stem for path in (ROOT / "src" / "braidhom").glob("*.py") if path.stem != "__init__"))
def test_each_module_imports_on_its_own(module):
    """No module leans on another having been imported first, so the lazy
    imports cannot hide an import cycle."""
    _fresh(f"import braidhom.{module}")


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
