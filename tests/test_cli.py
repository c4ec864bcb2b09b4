import json
import os
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from braidhom import cli, scenario
from braidhom.complexes import COMPLEX_PARAMS, NAMED_COMPLEXES
from braidhom.exactlin import ExactError
from braidhom.scenario import ScenarioError, build_space, parse, parse_dict

from helpers import serialize, to_dict


R3_DOC = {
    "ring": "z",
    "structure": {"kind": "shelf", "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]},
    "computations": [{"command": "homology", "named": "rack", "max_degree": 3}],
}

# R3 acting on itself from the right: m . b = m <| b.
R3_SELF_MODULE = {"dim": 3, "side": "right",
                  "action": [[(2 * b - a) % 3, a * 3 + b, 1]
                             for a in range(3) for b in range(3)]}

KZ2_DOC = {
    "ring": "q",
    "structure": {
        "kind": "associative", "dim": 2, "unit": 0,
        "products": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]],
    },
    "characters": {"aug": [1, 1], "sign": [1, -1]},
}

SL2_DOC = {
    "ring": "q",
    "structure": {
        "kind": "leibniz", "dim": 3, "adjoin_unit": True,
        "brackets": [[0, 1, 2, 1], [1, 0, 2, -1], [2, 0, 0, 2], [0, 2, 0, -2],
                     [2, 1, 1, -2], [1, 2, 1, 2]],
    },
}


SCENARIOS = Path(__file__).parent.parent / "scenarios"


def write(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# -- parsing ------------------------------------------------------------------

def test_parse_r3(tmp_path):
    sc = parse(write(tmp_path, R3_DOC))
    assert sc.structure["kind"] == "shelf"
    assert sc.dim == 3
    assert sc.computations[0]["named"] == "rack"


def test_parse_sl2_fixture(tmp_path):
    sc = parse(write(tmp_path, SL2_DOC))
    assert sc.dim == 4  # unit adjoined
    space = build_space(sc)
    assert space.dim == 4
    assert space.payload.kind == "leibniz"


def test_parse_reports_out_of_range_cell(tmp_path):
    doc = {"ring": "z", "structure": {"kind": "shelf",
                                      "table": [[0, 1, 2], [1, 2, 5], [2, 0, 1]]}}
    with pytest.raises(ScenarioError) as err:
        parse(write(tmp_path, doc))
    assert any("table[1][2]" in msg for msg in err.value.errors)


def test_parse_syntax_error_located(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"ring": "z",\n  "structure": }')
    with pytest.raises(ScenarioError) as err:
        parse(str(p))
    assert "line 2" in err.value.errors[0]


def test_parse_rejects_two_issues_at_once(tmp_path):
    doc = {"ring": "zz", "structure": {"kind": "mystery"}}
    with pytest.raises(ScenarioError) as err:
        parse(write(tmp_path, doc))
    assert len(err.value.errors) == 2


def test_roundtrip(tmp_path):
    for doc in (R3_DOC, KZ2_DOC, SL2_DOC):
        sc = parse(write(tmp_path, doc))
        again = parse_dict(json.loads(serialize(sc)))
        assert to_dict(again) == to_dict(sc)


def test_rationals_normalized_on_parse(tmp_path):
    doc = {"ring": "q",
           "structure": {"kind": "braiding", "dim": 1, "entries": [[0, 0, "4/6"]]}}
    sc = parse(write(tmp_path, doc))
    assert sc.structure["entries"][0][2] == "2/3"


def test_build_space_characters(tmp_path):
    sc = parse(write(tmp_path, KZ2_DOC))
    space = build_space(sc)
    assert set(space.characters) == {"aug", "sign"}


def test_build_space_coalgebra_extension(tmp_path):
    doc = {"ring": "z", "structure": {"kind": "coalgebra", "dim": 1,
                                      "coproducts": [[0, 0, 0, 1]]}}
    sc = parse(write(tmp_path, doc))
    assert sc.dim == 2
    space = build_space(sc)
    assert space.unit_index == 1
    assert "unit" in space.cocharacters


def test_build_space_module(tmp_path):
    doc = dict(R3_DOC)
    doc["modules"] = {"self": R3_SELF_MODULE}
    sc = parse(write(tmp_path, doc))
    space = build_space(sc)
    assert "self" in space.modules
    from braidhom import check_braided_module, check_ybe
    check_ybe(space)
    assert check_braided_module(space, space.modules["self"]).ok


# -- commands ------------------------------------------------------------------

def test_check_command_ok(tmp_path, capsys):
    code = cli.main(["check", write(tmp_path, R3_DOC)])
    assert code == 0
    out = capsys.readouterr().out
    assert "self_distributive: True" in out


def test_check_command_non_sd_table(tmp_path, capsys):
    doc = {"ring": "z", "structure": {"kind": "shelf",
                                      "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}}
    code = cli.main(["check", write(tmp_path, doc), "--json"])
    assert code == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] is False
    assert "sd_violation_triple" in rep["shelf"]
    assert rep["ybe"]["ok"] is False


# Invertibility of each shipped braiding, from theory. R3 is a rack, so its
# braiding permutes the basis; the Leibniz braiding of sl2 has the integral
# inverse w (x) v -> v (x) w - [v,w] (x) 1. The associative braidings land in
# 1 (x) A and the coalgebra braiding factors through the counit, so their
# rank is below d^2.
BRAIDING_INVERTIBLE = {
    "dihedral3.json": True,
    "sl2.json": True,
    "dual_numbers.json": False,
    "group_algebra_z2.json": False,
    "dual_numbers_coalgebra.json": False,
}


@pytest.mark.parametrize("ring", ["z", "q", "fp:3"])
@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_check_reports_braiding_invertible(name, ring, capsys):
    code = cli.main(["check", str(SCENARIOS / name), "--ring", ring, "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["braiding_invertible"] is BRAIDING_INVERTIBLE[name]


# The paper's characterization of the structural pre-braidings: the shelf,
# associative and Leibniz braidings satisfy the YBE exactly when the table is
# self-distributive, associative or Leibniz. The shipped scenarios satisfy
# both; the three corpus documents fail both, so check exits 1 on them.
CORPUS = Path(__file__).parent / "corpus"
CLASSICAL_AXIOM = {
    SCENARIOS / "dihedral3.json": True,
    SCENARIOS / "dual_numbers.json": True,
    SCENARIOS / "group_algebra_z2.json": True,
    SCENARIOS / "sl2.json": True,
    CORPUS / "non_sd_shelf.json": False,
    CORPUS / "non_assoc.json": False,
    CORPUS / "non_leibniz.json": False,
}


@pytest.mark.parametrize("ring", ["z", "q", "fp:3"])
@pytest.mark.parametrize("path", CLASSICAL_AXIOM, ids=lambda p: p.name)
def test_check_reports_ybe_exactly_when_the_classical_axiom_holds(path, ring, capsys):
    code = cli.main(["check", str(path), "--ring", ring, "--json"])
    rep = json.loads(capsys.readouterr().out)
    (classical,) = [rep[block][key] for block, key in (
        ("shelf", "self_distributive"), ("associative", "associative"),
        ("leibniz", "leibniz")) if block in rep]
    assert classical is CLASSICAL_AXIOM[path]
    assert rep["ybe"]["ok"] is classical
    assert code == (0 if classical else 1)


# Faces are built from braid lifts and boundaries by the one-crossing
# recursion, so the simplicial suite checks one against the other.
@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_boundaries_equal_face_sums(name, capsys):
    code = cli.main(["verify", str(SCENARIOS / name), "--suite", "simplicial",
                     "--max-degree", "4", "--json"])
    report = json.loads(capsys.readouterr().out)["simplicial"]
    assert code == 0
    assert report["face_sums_match_differentials"] is True, report


# The duality suite compares the cobar codifferential of the dual coalgebra
# with the transposed bar boundary of the algebra. Its shuffle side is the
# literal sum of the shuffles' braid lifts, which shares no code with the
# boundary recursion.
@pytest.mark.parametrize("name", ["dual_numbers.json", "group_algebra_z2.json"])
def test_codifferentials_are_transposed_boundaries(name, capsys):
    code = cli.main(["verify", str(SCENARIOS / name), "--suite", "duality", "--json"])
    report = json.loads(capsys.readouterr().out)["duality"]
    assert code == 0
    assert report["braiding_transposed"] is True, report
    assert report["codifferentials_are_transposes"] is True, report


# Below the top degree, R3 rack homology has free rank 1, since R3 has one
# orbit (Etingof-Grana), and over Z every torsion factor is 3 (Nosaka). The
# top degree reports dim ker of the top boundary, so it is left out.
@pytest.mark.parametrize("ring", ["z", "q", "fp:7"])
def test_r3_rack_homology_below_the_top_degree(ring, capsys):
    code = cli.main(["homology", str(SCENARIOS / "dihedral3.json"), "--named", "rack",
                     "--max-degree", "7", "--ring", ring, "--json"])
    degrees = json.loads(capsys.readouterr().out)["homology"]["degrees"]
    assert code == 0
    assert sorted(degrees, key=int) == [str(n) for n in range(8)]
    for n in range(7):
        entry = degrees[str(n)]
        assert entry["free_rank"] == 1, (n, entry)
        assert ring != "z" or set(entry["torsion"]) <= {3}, (n, entry)


# The shuffle product and its associativity are transposes of the coshuffle
# on the transposed twin; this runs every Hopf check, over the scenario's own
# ring and over F_3.
@pytest.mark.parametrize("ring", [[], ["--ring", "fp:3"]], ids=["own-ring", "fp3"])
@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_hopf_identities_on_every_scenario(name, ring, capsys):
    code = cli.main(["verify", str(SCENARIOS / name), "--suite", "hopf", "--max-degree", "4",
                     *ring, "--json"])
    report = json.loads(capsys.readouterr().out)["hopf"]
    assert code == 0
    keys = ["associativity", "coassociativity", "compatibility", "antipode"]
    if report["involutive"]:
        keys.append("commutativity")
    for key in keys:
        assert report[key] is True, (key, report)


def test_homology_command_uses_scenario_defaults(tmp_path, capsys):
    code = cli.main(["homology", write(tmp_path, R3_DOC), "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["complex"]["builder"] == "rack"
    assert rep["homology"]["ring"] == "Z"
    assert rep["homology"]["degrees"]["2"]["free_rank"] == 1


def test_homology_command_field_coefficients(tmp_path, capsys):
    path = write(tmp_path, R3_DOC)
    code = cli.main(["homology", path, "--named", "rack", "--max-degree", "3",
                     "--ring", "q", "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["homology"]["ring"] == "Q"
    assert "torsion" not in rep["homology"]["degrees"]["2"]


def test_homology_named_group(tmp_path, capsys):
    path = write(tmp_path, KZ2_DOC)
    code = cli.main(["homology", path, "--named", "group", "--max-degree", "4",
                     "--left-char", "aug", "--right-char", "aug",
                     "--ring", "z", "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    degs = rep["homology"]["degrees"]
    assert degs["1"]["torsion"] == [2]
    assert degs["3"]["torsion"] == [2]
    assert degs["2"]["torsion"] == []


def test_complex_command_dump(tmp_path, capsys):
    path = write(tmp_path, R3_DOC)
    outdir = tmp_path / "mats"
    code = cli.main(["complex", path, "--named", "rack", "--max-degree", "2",
                     "--dump-matrices", str(outdir), "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["dumped"] == ["boundary_1.txt", "boundary_2.txt"]
    text = (outdir / "boundary_2.txt").read_text().splitlines()
    rows, cols, nnz = map(int, text[0].split())
    assert (rows, cols) == (3, 9)
    assert nnz == len(text) - 1
    for line in text[1:]:
        r, c, v = line.split()
        assert 0 <= int(r) < rows and 0 <= int(c) < cols
        Fraction(v)  # parses as an exact scalar


def test_complex_normalized_flag(tmp_path, capsys):
    path = write(tmp_path, R3_DOC)
    code = cli.main(["complex", path, "--diff", "combined", "--left-char", "ones",
                     "--right-char", "ones", "--max-degree", "3",
                     "--normalized", "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["complex"]["degrees"]["2"]["dim"] == 6  # 9 minus 3 degenerate


def test_twisted_rack_flag(tmp_path, capsys):
    path = write(tmp_path, R3_DOC)
    code = cli.main(["homology", path, "--named", "twisted-rack", "--twist", "1/2",
                     "--ring", "q", "--max-degree", "3", "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["homology"]["ring"] == "Q"


def test_verify_suites_on_r3(tmp_path, capsys):
    path = write(tmp_path, R3_DOC)
    for suite in ("simplicial", "hyper", "hopf", "homotopy"):
        code = cli.main(["verify", path, "--suite", suite, "--max-degree", "3",
                         "--json"])
        rep = json.loads(capsys.readouterr().out)
        assert code == 0, (suite, rep)
        assert rep["ok"] is True


def test_verify_duality_on_algebra(tmp_path, capsys):
    path = write(tmp_path, KZ2_DOC)
    code = cli.main(["verify", path, "--suite", "duality", "--left-char", "aug",
                     "--max-degree", "4", "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["duality"]["codifferentials_are_transposes"] is True


def test_duality_suite_catches_a_wrong_boundary_recursion(monkeypatch, capsys):
    """The cobar side is built by the shuffle-product formula, so a fault in
    the one boundary recursion, on either side, shows in the flag."""
    from braidhom import complexes
    pull = complexes._pull
    monkeypatch.setattr(complexes, "_pull", lambda *a, **k: pull(*a, **k).scale(2))
    code = cli.main(["verify", str(SCENARIOS / "dual_numbers.json"), "--suite", "duality",
                     "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["duality"]["braiding_transposed"] is True
    assert rep["duality"]["codifferentials_are_transposes"] is False


def test_verify_homotopy_on_algebra(tmp_path, capsys):
    path = write(tmp_path, KZ2_DOC)
    code = cli.main(["verify", path, "--suite", "homotopy", "--left-char", "aug",
                     "--max-degree", "4", "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0, rep
    assert rep["homotopy"]["left_complex_unit_concatenation"] is True


def test_exit_code_input_error(tmp_path, capsys):
    doc = {"ring": "z", "structure": {"kind": "shelf", "table": [[0, 5], [1, 0]]}}
    code = cli.main(["check", write(tmp_path, doc)])
    assert code == 2


def test_exit_code_missing_file(capsys):
    assert cli.main(["check", "/nonexistent/path.json"]) == 2


def test_exit_code_resource_cap(tmp_path, capsys):
    path = write(tmp_path, R3_DOC)
    code = cli.main(["homology", path, "--named", "rack", "--max-degree", "4",
                     "--basis-cap", "10", "--json"])
    assert code == 3


def test_json_deterministic(tmp_path, capsys):
    path = write(tmp_path, R3_DOC)
    outputs = []
    for _ in range(2):
        code = cli.main(["homology", path, "--json"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_json_contains_every_human_number(tmp_path, capsys):
    path = write(tmp_path, R3_DOC)
    cli.main(["homology", path])
    human = capsys.readouterr().out
    cli.main(["homology", path, "--json"])
    machine = json.loads(capsys.readouterr().out)

    def numbers(obj):
        if isinstance(obj, bool):
            return []
        if isinstance(obj, (int, float)):
            return [obj]
        if isinstance(obj, dict):
            return [x for v in obj.values() for x in numbers(v)]
        if isinstance(obj, list):
            return [x for v in obj if isinstance(v, (int, float)) for x in [v]]
        return []

    import re
    human_numbers = set(map(int, re.findall(r"(?<![\w.])-?\d+(?![\w.])", human)))
    for num in numbers(machine):
        assert int(num) in human_numbers or num in human_numbers


def test_homology_with_bimodule_flag(tmp_path, capsys):
    doc = dict(KZ2_DOC)
    mu = [[k, c, v] for k, c, v in
          [(0, 0, 1), (1, 1, 1), (1, 2, 1), (0, 3, 1)]]
    doc["bimodules"] = {"regular": {"dim": 2, "right_action": mu, "left_action": mu}}
    path = write(tmp_path, doc, "bimod.json")
    code = cli.main(["homology", path, "--named", "hochschild",
                     "--bimodule", "regular", "--ring", "z",
                     "--max-degree", "3", "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0, rep
    degs = rep["homology"]["degrees"]
    # the group algebra is commutative: degree 0 is the whole coefficient
    # module, degree 1 is (Z/2)^2 since the only boundary is doubling
    assert degs["0"]["free_rank"] == 2
    assert degs["1"]["free_rank"] == 0
    assert degs["1"]["torsion"] == [2, 2]


def test_shipped_scenarios_run(capsys):
    """Every scenario file in the repository passes check and runs its
    default homology computation."""
    files = sorted(SCENARIOS.glob("*.json"))
    assert files, "no shipped scenarios found"
    for f in files:
        assert cli.main(["check", str(f), "--json"]) == 0, f.name
        capsys.readouterr()
        assert cli.main(["homology", str(f), "--json"]) == 0, f.name
        capsys.readouterr()


def test_named_normalized_rack_is_quandle(tmp_path, capsys):
    path = write(tmp_path, R3_DOC)
    reports = []
    for named in (["rack", "--normalized"], ["quandle"]):
        code = cli.main(["homology", path, "--named", *named, "--max-degree", "4", "--json"])
        assert code == 0
        reports.append(json.loads(capsys.readouterr().out))
    rack, quandle = reports
    assert rack["complex"]["builder"] == "rack:normalized"
    assert rack["complex"]["degrees"] == quandle["complex"]["degrees"]
    assert rack["homology"] == quandle["homology"]


def test_named_normalized_rejected_when_complex_projects(capsys):
    code = cli.main(["homology", str(SCENARIOS / "dual_numbers.json"),
                     "--named", "bar", "--normalized", "--json"])
    assert code == 2
    assert "already projects" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("flags, message", [
    (["--module", "nope"], "unknown module 'nope'; declared modules: none"),
    (["--bimodule", "nope"], "unknown bimodule 'nope'; declared bimodules: none"),
    (["--diff", "hyper:abc"], "--diff hyper:<k> needs an integer k, not 'abc'"),
    (["--max-degree", "-1"], "--max-degree must be 0 or more, not -1"),
    (["--diff", "bimodule"], "unknown --diff kind 'bimodule'; use hyper:<k> or one of: "
                             "left, right, combined, face, hyper-left, hyper-right"),
    (["--diff", "bogus", "--max-degree", "0"], "unknown --diff kind 'bogus'; use hyper:<k> "
     "or one of: left, right, combined, face, hyper-left, hyper-right"),
    (["--diff", "hyper:0"], "hyper order must be 1 or more, not 0"),
    (["--diff", "hyper:-1"], "hyper order must be 1 or more, not -1"),
    (["--basis-cap", "0"], "--basis-cap must be 1 or more, not 0"),
    (["--basis-cap", "-5"], "--basis-cap must be 1 or more, not -5"),
])
def test_bad_flag_exits_2_with_message(tmp_path, capsys, flags, message):
    doc = {k: v for k, v in R3_DOC.items() if k != "computations"}
    code = cli.main(["homology", write(tmp_path, doc), *flags, "--json"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == message


@pytest.mark.parametrize("flags", [
    ["--diff", "right", "--left-char", "nope", "--right-char", "ones"],
    ["--diff", "combined", "--left-char", "ones", "--right-char", "nope"],
    ["--diff", "hyper-right", "--right-char", "nope"],
], ids=["unread-left", "right", "hyper-right"])
def test_undeclared_character_in_label_exits_2(capsys, flags):
    """A character given by name must be declared, even one the boundary
    does not read and the builder label does not name."""
    code = cli.main(["homology", str(SCENARIOS / "dihedral3.json"), *flags, "--json"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == (
        "unknown character 'nope'; declared characters: ones")


def test_failed_bimodule_check_is_named(tmp_path, capsys):
    """A bimodule that fails its axioms is refused as such, not as unchecked."""
    doc = dict(KZ2_DOC, bimodules={"bad": {"dim": 1, "right_action": [[0, 0, 1], [0, 1, 2]],
                                           "left_action": [[0, 0, 1], [0, 1, 1]]}})
    code = cli.main(["homology", write(tmp_path, doc), "--bimodule", "bad", "--json"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"] == (
        "bimodule 'bad' fails the bimodule axioms (pass --allow-unverified to use it anyway)")


def test_several_characters_need_left_char(capsys):
    code = cli.main(["complex", str(SCENARIOS / "group_algebra_z2.json"), "--json"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == (
        "the combined differential needs --left-char; declared characters: aug, sign")


@pytest.mark.parametrize("diff", ["right", "hyper-right"])
def test_one_sided_right_boundary_needs_right_char(diff, capsys):
    code = cli.main(["complex", str(SCENARIOS / "group_algebra_z2.json"), "--diff", diff,
                     "--json"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == (
        f"the {diff} differential needs --right-char; declared characters: aug, sign")


def test_normalized_with_coefficient_module(tmp_path, capsys):
    doc = dict(R3_DOC)
    doc["modules"] = {"self": R3_SELF_MODULE}
    code = cli.main(["homology", write(tmp_path, doc), "--module", "self", "--normalized",
                     "--max-degree", "3", "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["complex"]["square_zero_verified"] is True
    dims = {int(n): d["dim"] for n, d in rep["complex"]["degrees"].items()}
    # the module block times the words of length n with no equal neighbours
    assert dims == {0: 3, **{n: 3 * 3 * 2 ** (n - 1) for n in (1, 2, 3)}}


@pytest.mark.parametrize("diff, builder", [
    ("left", "left,left=ones"), ("right", "right,right=ones"), ("face", "face,left=ones"),
    ("hyper-right", "hyper-right,right=ones,k=1"), ("combined", "combined,left=ones,right=ones"),
])
def test_diff_label_names_the_characters_the_boundary_reads(capsys, diff, builder):
    """A one-sided boundary reads one character, and its label names that
    one only; the combined boundary reads and names both."""
    code = cli.main(["complex", str(SCENARIOS / "dihedral3.json"), "--diff", diff,
                     "--max-degree", "2", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["complex"]["builder"] == builder


@pytest.mark.parametrize("flags, builder", [
    ([], "coeff"),
    (["--normalized"], "coeff:normalized"),
], ids=["plain", "normalized"])
def test_module_label_names_no_character(tmp_path, capsys, flags, builder):
    """The coefficient boundary reads the module and no character, so its
    label names none, though the shelf declares one."""
    doc = dict(R3_DOC, modules={"self": R3_SELF_MODULE})
    code = cli.main(["homology", write(tmp_path, doc), "--module", "self", *flags,
                     "--max-degree", "2", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["complex"]["builder"] == builder


def test_user_diff_suppresses_scenario_named_complex(capsys):
    code = cli.main(["homology", str(SCENARIOS / "dihedral3.json"), "--diff", "bogus",
                     "--json"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"].startswith("unknown --diff kind 'bogus'")


def test_benchmark_trace_targets_exist():
    """perfbench/tracer.py wraps package functions by name and refuses to
    install when one it measures is gone; run that check here."""
    root = Path(__file__).parent.parent
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import braidhom.cli; "
            "from tracer import Tracer; Tracer().install()")
    proc = subprocess.run([sys.executable, "-c", code, str(root / "src"),
                           str(root / "perfbench")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_hyper_suite_end_to_end(capsys):
    """Every composition identity of the hyper-boundaries of R3 up to
    degree 7 holds, and building each boundary once drops none of them."""
    code = cli.main(["verify", str(SCENARIOS / "dihedral3.json"), "--suite", "hyper",
                     "--max-degree", "7", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["hyper"]["ok"] is True
    assert report["hyper"]["identities_checked"] == 158


# -- the hyper suite's two processes ------------------------------------------

def _open_fds():
    """This process's open descriptors, or None where the platform does not
    list them."""
    fd_dir = Path("/proc/self/fd")
    return set(os.listdir(fd_dir)) if fd_dir.is_dir() else None


@pytest.fixture
def no_leftovers():
    """After the test no child of this process is left and no descriptor is
    left open."""
    fds = _open_fds()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


# A child made by os.fork and a descriptor made by os.pipe raise no
# ResourceWarning, so development mode cannot see them leak. These are the
# command lines of the CI steps that fork (the hyper suite, a failing
# square-zero check, R3 rack homology), and a restricted complex (sl2
# Leibniz), where the child checks the complex built on the span while the
# parent restricts it. After each one no child is left to reap and the open
# descriptors are those from before (no_leftovers).
@pytest.mark.parametrize("argv, code", [
    (["verify", "dihedral3.json", "--suite", "hyper", "--max-degree", "7", "--json"], 0),
    (["homology", "dihedral3.json", "--diff", "hyper:2", "--ring", "z", "--max-degree", "5"], 1),
    (["homology", "dihedral3.json", "--named", "rack", "--max-degree", "7", "--ring", "z",
      "--json"], 0),
    (["homology", "sl2.json", "--named", "leibniz", "--ring", "q", "--max-degree", "5",
      "--json"], 0),
], ids=["hyper", "square-zero-failure", "rack", "leibniz"])
def test_two_process_runs_leave_nothing_behind(capsys, no_leftovers, argv, code):
    command, name, *flags = argv
    assert cli.main([command, str(SCENARIOS / name), *flags]) == code
    capsys.readouterr()


@pytest.fixture
def hyper_run(capsys, no_leftovers):
    """run(degree) -> (exit code, stdout) of the hyper suite on R3."""
    def run(degree):
        code = cli.main(["verify", str(SCENARIOS / "dihedral3.json"), "--suite", "hyper",
                         "--max-degree", str(degree), "--json"])
        return code, capsys.readouterr().out

    return run


def _no_fork(*args):
    raise OSError("fork is not available")


@pytest.mark.parametrize("degree", [6, 7])
@pytest.mark.parametrize("unavailable", ["raises", "missing"])
def test_hyper_suite_without_fork_gives_the_same_bytes(monkeypatch, hyper_run, degree,
                                                        unavailable):
    forked = hyper_run(degree)
    if unavailable == "raises":
        monkeypatch.setattr(os, "fork", _no_fork)
    else:
        monkeypatch.delattr(os, "fork")
    assert hyper_run(degree) == forked
    assert json.loads(forked[1])["hyper"]["identities_checked"] == {6: 128, 7: 158}[degree]


def _patch_hyper_boundary(monkeypatch, change):
    """Replace the suite's hyper_boundary by change(boundary, k, side, in
    this process); returns the sides built in this process."""
    from braidhom.complexes import hyper_boundary
    parent = os.getpid()
    built = []

    def patched(space, char, k, n, side="left"):
        here = os.getpid() == parent
        if here:
            built.append(side)
        return change(hyper_boundary(space, char, k, n, side), k, side, here)

    monkeypatch.setattr(cli, "hyper_boundary", patched)
    return built


def test_hyper_suite_reads_the_childs_verdict(monkeypatch, hyper_run):
    """A fault in the right boundaries only, inherited by the child, fails
    the run, while this process builds only the left side."""
    built = _patch_hyper_boundary(
        monkeypatch, lambda b, k, side, here: b.scale(2) if side == "right" and k == 1 else b)
    code, out = hyper_run(6)
    assert code == 1
    assert json.loads(out)["hyper"] == {"ok": False, "identities_checked": 128,
                                        "max_degree": 6}
    assert set(built) == {"left"}


@pytest.mark.parametrize("side", ["right", "left"])
def test_hyper_suite_error_on_one_side_matches_one_process(monkeypatch, hyper_run, side):
    """An ExactError on either side gives the exit code and message of a run
    without fork."""
    def change(boundary, k, built_side, here):
        if built_side == side and k == 2:
            raise ExactError(f"no {side} boundary of order 2")
        return boundary

    _patch_hyper_boundary(monkeypatch, change)
    code, out = hyper_run(5)
    assert code == 2
    assert json.loads(out)["error"] == f"no {side} boundary of order 2"
    monkeypatch.setattr(os, "fork", _no_fork)
    assert hyper_run(5) == (code, out)


def test_hyper_suite_with_another_thread_runs_in_one_process(monkeypatch, hyper_run):
    """fork copies only the calling thread, so with another thread running
    this process checks both sides."""
    expected = hyper_run(5)
    built = _patch_hyper_boundary(monkeypatch, lambda b, k, side, here: b)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait, args=(60,))
    waiter.start()
    try:
        assert hyper_run(5) == expected
    finally:
        stop.set()
        waiter.join(timeout=60)
    assert not waiter.is_alive()
    assert set(built) == {"left", "right"}


def test_hyper_suite_interrupted_kills_the_child(monkeypatch, hyper_run):
    """An interrupt on this process's side kills and reaps the child, which
    would otherwise run for a minute."""
    def change(boundary, k, side, here):
        if not here:
            time.sleep(60)
            os._exit(1)
        if k == 3:
            raise KeyboardInterrupt
        return boundary

    _patch_hyper_boundary(monkeypatch, change)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        hyper_run(5)
    assert time.monotonic() - start < 30


@pytest.mark.parametrize("fault", [
    lambda result: os.kill(os.getpid(), signal.SIGKILL),
    lambda result: os._exit(0),
    lambda result: os._exit(5),
    lambda result: (result[0], -result[1]),
    lambda result: (result[0], f"{result[1]} {result[1]}"),
], ids=["killed", "silent", "exit-5", "negative-count", "three-fields"])
def test_hyper_suite_checks_the_right_side_itself_when_the_child_fails(
        monkeypatch, hyper_run, fault):
    """A child that is killed, exits without a result or non-zero, or sends
    a malformed one, leaves the right side to this process: same bytes."""
    expected = hyper_run(5)
    parent = os.getpid()
    side_check = cli._hyper_side

    def patched(space, char, n_max, side):
        result = side_check(space, char, n_max, side)
        return result if os.getpid() == parent else fault(result)

    monkeypatch.setattr(cli, "_hyper_side", patched)
    assert hyper_run(5) == expected


# -- homology's square-zero check in a child ----------------------------------

@pytest.fixture
def homology_run(capsys, no_leftovers):
    """run(scenario file, *flags) -> (exit code, stdout, stderr) of
    ``homology --json``."""
    def run(scenario_file, *flags):
        code = cli.main(["homology", str(SCENARIOS / scenario_file), *flags, "--json"])
        out, err = capsys.readouterr()
        return code, out, err

    return run


# Complexes of every shape the homology command assembles: one complex, a
# quotient and a restriction of one, higher boundaries, cochain complexes,
# and a failing square-zero check and span.
HOMOLOGY_CASES = [
    ("dihedral3.json", "--named", "rack"),
    ("dihedral3.json", "--named", "quandle"),
    ("dihedral3.json", "--named", "twisted-rack", "--twist", "-1"),
    ("dihedral3.json", "--named", "partial-derivative", "--element", "0"),
    ("dihedral3.json", "--diff", "combined", "--normalized"),
    ("dihedral3.json", "--diff", "hyper:2"),
    ("dihedral3.json", "--diff", "hyper:3", "--max-degree", "6"),
    ("sl2.json", "--named", "leibniz"),
    ("sl2.json", "--diff", "hyper-right"),
    ("group_algebra_z2.json", "--named", "group", "--left-char", "aug", "--right-char", "aug"),
    ("group_algebra_z2.json", "--named", "koszul", "--left-char", "sign"),
    ("dual_numbers.json", "--named", "bar"),
    ("dual_numbers.json", "--diff", "left", "--normalized"),
    ("dual_numbers_coalgebra.json", "--named", "cobar"),
    ("dual_numbers_coalgebra.json", "--named", "cartier"),
]


def _counted_check(monkeypatch, child_fault=None):
    """Count the square-zero checks this process runs; child_fault(diffs,
    step), when given, replaces the check in a child. Returns the count."""
    from braidhom import homology
    parent = os.getpid()
    check = homology._check_square_zero
    calls = []

    def patched(diffs, step):
        if os.getpid() == parent:
            calls.append(step)
            return check(diffs, step)
        return check(diffs, step) if child_fault is None else child_fault(diffs, step)

    monkeypatch.setattr(homology, "_check_square_zero", patched)
    return calls


@pytest.mark.parametrize("ring", ["z", "q", "fp:3"])
@pytest.mark.parametrize("unavailable", ["raises", "missing"])
def test_homology_without_fork_gives_the_same_bytes(monkeypatch, homology_run, ring,
                                                    unavailable):
    cases = [(*case, "--ring", ring) for case in HOMOLOGY_CASES]
    forked = [homology_run(*case) for case in cases]
    if unavailable == "raises":
        monkeypatch.setattr(os, "fork", _no_fork)
    else:
        monkeypatch.delattr(os, "fork")
    assert [homology_run(*case) for case in cases] == forked
    assert {code for code, _, _ in forked} == {0, 1}


@pytest.mark.parametrize("named, here", [("rack", 0), ("quandle", 0)])
def test_homology_checks_the_full_complex_in_a_child(monkeypatch, homology_run, named, here):
    """The child checks the full complex, and this process checks nothing:
    the quotient a quandle complex projects onto is square-zero because the
    full complex is (subquotient)."""
    calls = _counted_check(monkeypatch)
    code, out, _ = homology_run("dihedral3.json", "--named", named, "--ring", "z")
    assert code == 0 and json.loads(out)["complex"]["square_zero_verified"] is True
    assert len(calls) == here


@pytest.mark.parametrize("fork, here", [(True, 0), (False, 1)], ids=["fork", "no-fork"])
def test_homology_checks_a_restricted_complex_once(monkeypatch, homology_run, fork, here):
    """The sl2 Leibniz complex is built on its span and checked once, as
    built: in the child, or in this process where no child can start. The
    restriction to the span is not checked again."""
    if not fork:
        monkeypatch.setattr(os, "fork", _no_fork)
    calls = _counted_check(monkeypatch)
    code, out, _ = homology_run("sl2.json", "--named", "leibniz", "--ring", "q",
                                "--max-degree", "5")
    assert code == 0 and json.loads(out)["complex"]["square_zero_verified"] is True
    assert len(calls) == here


SQUARE_ZERO_FAILURE = ("dihedral3.json", "--diff", "hyper:2", "--ring", "z",
                       "--max-degree", "5", "--normalized")


def _raise_span_error(*args):
    from braidhom.homology import SpanStabilityError
    raise SpanStabilityError(2, 0, 1)


def _raise_exact_error(*args):
    raise ExactError("elimination failed")


@pytest.mark.parametrize("later", [None, "span", "elimination"])
def test_homology_square_zero_failure_gives_the_same_bytes(monkeypatch, homology_run, later):
    """The full complex fails its check in the child. The report is that
    failure, with no complex block, even where this process raised another
    error after the fork."""
    from braidhom import complexes
    with monkeypatch.context() as m:
        m.setattr(os, "fork", _no_fork)
        expected = homology_run(*SQUARE_ZERO_FAILURE)
    assert expected[0] == 1
    report = json.loads(expected[1])
    assert report["error"].startswith("boundary composition out of degree 4 is nonzero")
    assert "complex" not in report
    if later == "span":
        monkeypatch.setattr(complexes, "subquotient", _raise_span_error)
    elif later == "elimination":
        monkeypatch.setattr(cli, "integral_homology", _raise_exact_error)
    calls = _counted_check(monkeypatch)
    assert homology_run(*SQUARE_ZERO_FAILURE) == expected
    assert len(calls) == 1  # the check that raises, run here after the child's verdict


def _kill_self(diffs, step):
    os.kill(os.getpid(), signal.SIGKILL)


def _fail_in_child(diffs, step):
    from braidhom.homology import SquareZeroError
    raise SquareZeroError(0, (0, 0, 1))


@pytest.mark.parametrize("fault", [
    _kill_self,
    lambda diffs, step: os._exit(0),
    lambda diffs, step: os._exit(5),
    lambda diffs, step: b"passed",
    _fail_in_child,
], ids=["killed", "silent", "exit-5", "malformed", "failed"])
def test_homology_checks_square_zero_itself_when_the_child_fails(
        monkeypatch, homology_run, fault):
    """A child that is killed, exits without a verdict or non-zero, sends a
    malformed one or finds a failure leaves the check to this process, whose
    verdict is reported: same bytes."""
    case = ("dihedral3.json", "--named", "rack", "--ring", "q", "--max-degree", "5")
    expected = homology_run(*case)
    calls = _counted_check(monkeypatch, fault)
    assert homology_run(*case) == expected
    assert len(calls) == 1


def test_homology_with_another_thread_runs_in_one_process(monkeypatch, homology_run):
    case = ("dihedral3.json", "--named", "rack", "--ring", "z", "--max-degree", "5")
    expected = homology_run(*case)
    calls = _counted_check(monkeypatch)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait, args=(60,))
    waiter.start()
    try:
        assert homology_run(*case) == expected
    finally:
        stop.set()
        waiter.join(timeout=60)
    assert not waiter.is_alive()
    assert len(calls) == 1


def test_homology_interrupted_kills_the_child(monkeypatch, homology_run):
    """An interrupt during elimination kills and reaps the child, which
    would otherwise run for a minute."""
    def slow(diffs, step):
        time.sleep(60)
        os._exit(1)

    def interrupt(*args):
        raise KeyboardInterrupt

    _counted_check(monkeypatch, slow)
    monkeypatch.setattr(cli, "integral_homology", interrupt)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        homology_run("dihedral3.json", "--named", "rack", "--ring", "z")
    assert time.monotonic() - start < 30


def _no_pipe():
    raise OSError(24, "Too many open files")


@pytest.mark.parametrize("argv", [
    ("homology", "--named", "rack", "--max-degree", "3"),
    ("verify", "--suite", "hyper", "--max-degree", "5"),
], ids=["homology", "hyper"])
def test_failing_pipe_gives_the_bytes_of_a_run_without_fork(monkeypatch, capsys, no_leftovers,
                                                            argv):
    """Where no pipe can be made, no child starts and this process does the
    child's work, as where fork is missing."""
    argv = [argv[0], str(SCENARIOS / "dihedral3.json"), *argv[1:], "--json"]
    monkeypatch.setattr(os, "pipe", _no_pipe)
    code = cli.main(argv)
    got = (code, capsys.readouterr())
    monkeypatch.delattr(os, "fork")
    assert (cli.main(argv), capsys.readouterr()) == got
    assert code == 0


@pytest.mark.parametrize("read_first", [True, False], ids=["after-one-byte", "before-output"])
def test_closed_stdout_keeps_exit_code_and_quiet_stderr(read_first):
    """A reader that closes the pipe early (``| head -c 1``) gets no
    traceback, and the run exits with its own code."""
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen([sys.executable, "-m", "braidhom.cli", "homology",
                             str(SCENARIOS / "dihedral3.json")],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    if read_first:
        assert len(proc.stdout.read(1)) == 1
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert stderr == b""


def test_duality_suite_unknown_character(capsys):
    code = cli.main(["verify", str(SCENARIOS / "dual_numbers.json"), "--suite", "duality",
                     "--left-char", "bogus", "--json"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == (
        "unknown character 'bogus'; declared characters: counit")


def test_duality_suite_without_characters(tmp_path, capsys):
    doc = {k: v for k, v in KZ2_DOC.items() if k != "characters"}
    code = cli.main(["verify", write(tmp_path, doc), "--suite", "duality", "--json"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == (
        "the duality suite needs a character; declared characters: none")


@pytest.mark.parametrize("suite", ["hyper", "simplicial", "homotopy"])
def test_suites_without_characters(tmp_path, capsys, suite):
    """A unital algebra that declares no character: every suite that needs
    one exits 2 and says so."""
    doc = {k: v for k, v in KZ2_DOC.items() if k != "characters"}
    code = cli.main(["verify", write(tmp_path, doc), "--suite", suite, "--max-degree", "3",
                     "--json"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == (
        f"the {suite} suite needs a character; declared characters: none")


@pytest.mark.parametrize("path, flags, message", [
    (SCENARIOS / "dihedral3.json", ["--suite", "hopf", "--left-char", "ones"],
     "the hopf suite does not read --left-char"),
    (SCENARIOS / "dihedral3.json", ["--suite", "hopf", "--right-char", "ones"],
     "the hopf suite does not read --right-char"),
    (SCENARIOS / "dual_numbers.json", ["--suite", "duality", "--right-char", "counit"],
     "the duality suite does not read --right-char"),
    (SCENARIOS / "dual_numbers.json", ["--suite", "homotopy", "--right-char", "counit"],
     "the homotopy suite does not read --right-char"),
    (SCENARIOS / "dihedral3.json", ["--suite", "hyper", "--right-char", "nosuch"],
     "unknown character 'nosuch'; declared characters: ones"),
    (CORPUS / "flip.json", ["--suite", "homotopy", "--left-char", "nosuch"],
     "unknown character 'nosuch'; declared characters: first, ones"),
])
def test_suites_refuse_character_flags_they_do_not_read(capsys, path, flags, message):
    """A suite refuses a character flag it does not read, and a name the
    space does not declare, rather than running without it."""
    code = cli.main(["verify", str(path), *flags, "--json"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == message


def test_hyper_suite_checks_the_right_side_with_the_right_character(capsys):
    """bad_character.json declares the braided character ones and an
    unbraided one, bad. The hyper identities hold for ones alone and fail
    once the right side reads bad."""
    base = ["verify", str(CORPUS / "bad_character.json"), "--suite", "hyper",
            "--left-char", "ones", "--allow-unverified", "--max-degree", "3", "--json"]
    assert cli.main(base) == 0
    assert json.loads(capsys.readouterr().out)["hyper"]["ok"] is True
    assert cli.main(base + ["--right-char", "bad"]) == 1
    assert json.loads(capsys.readouterr().out)["hyper"]["ok"] is False


def test_homotopy_suite_skips_flip_without_characters(tmp_path, capsys):
    doc = {"ring": "z", "structure": {"kind": "flip", "dim": 2}}
    code = cli.main(["verify", write(tmp_path, doc), "--suite", "homotopy", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["homotopy"] == {
        "skipped": "no normalized pair available"}


@pytest.mark.parametrize("scenario_file, flags, message", [
    ("dihedral3.json", ["--named", "rack", "--twist", "2"],
     "the rack complex does not read --twist"),
    ("dihedral3.json", ["--named", "quandle", "--element", "1"],
     "the quandle complex does not read --element"),
    ("dihedral3.json", ["--named", "rack", "--left-char", "bogus"],
     "the rack complex does not read --left-char"),
    ("sl2.json", ["--named", "leibniz", "--right-char", "counit"],
     "the leibniz complex does not read --right-char"),
    ("dihedral3.json", ["--twist", "2"], "the rack complex does not read --twist"),
    ("dihedral3.json", ["--named", "shelf", "--diff", "left"],
     "the shelf complex does not read --diff"),
    ("dual_numbers.json", ["--named", "bar", "--bimodule", "regular"],
     "the bar complex does not read --bimodule"),
])
def test_named_complex_refuses_flags_it_does_not_read(capsys, scenario_file, flags, message):
    """A flag the chosen named complex would ignore exits 2; the scenario's
    own defaults (the group complex's characters) still apply."""
    code = cli.main(["homology", str(SCENARIOS / scenario_file), *flags, "--json"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == message


@pytest.mark.parametrize("flags, code, error", [
    ([], 0, None),
    (["--left-char", "sign", "--right-char", "sign"], 0, None),
    (["--named", "bar"], 2, "unknown character 'counit'; declared characters: aug, sign"),
], ids=["scenario-defaults", "user-characters", "scenario-characters-unread"])
def test_named_complex_flags_from_scenario_are_not_refused(capsys, flags, code, error):
    """The scenario's characters go with its group complex; they are not
    refused when the user picks a complex that does not read them."""
    got = cli.main(["homology", str(SCENARIOS / "group_algebra_z2.json"), "--max-degree", "2",
                    *flags, "--json"])
    assert got == code
    assert json.loads(capsys.readouterr().out).get("error") == error


@pytest.mark.parametrize("flags, message", [
    (["--diff", "left", "--element", "0"], "the left differential does not read --element"),
    (["--diff", "left", "--left-char", "ones", "--right-char", "bogus"],
     "the left differential does not read --right-char"),
    (["--diff", "hyper:3", "--right-char", "ones"],
     "the hyper:3 differential does not read --right-char"),
    (["--diff", "face", "--twist", "-1"], "the face differential does not read --twist"),
    (["--diff", "combined", "--element", "1"],
     "the combined differential does not read --element"),
    (["--module", "self", "--left-char", "ones"],
     "the module differential does not read --left-char"),
    (["--module", "self", "--twist", "-1"], "the module differential does not read --twist"),
    (["--module", "self", "--diff", "right"], "the module differential does not read --diff"),
])
def test_generic_diff_refuses_flags_it_does_not_read(tmp_path, capsys, flags, message):
    doc = dict(R3_DOC)
    doc["modules"] = {"self": R3_SELF_MODULE}
    code = cli.main(["homology", write(tmp_path, doc), *flags, "--max-degree", "2", "--json"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == message


@pytest.mark.parametrize("flags", [
    ["--diff", "right", "--right-char", "ones"],
    ["--diff", "combined", "--left-char", "ones", "--right-char", "ones"],
    # --allow-unverified does not stop a braided twist from running
    ["--diff", "hyper-right", "--twist", "-1", "--allow-unverified"],
    ["--diff", "hyper:3", "--left-char", "ones"],
    ["--module", "self"],
], ids=["right", "combined", "hyper-right-twist", "hyper3", "module"])
def test_generic_diff_accepts_flags_it_reads(tmp_path, capsys, flags):
    doc = dict(R3_DOC)
    doc["modules"] = {"self": R3_SELF_MODULE}
    code = cli.main(["homology", write(tmp_path, doc), *flags, "--max-degree", "2", "--json"])
    assert code == 0, capsys.readouterr().out


def test_generic_diff_flags_from_scenario_are_not_refused(tmp_path, capsys):
    """A right character filled in from the scenario's defaults is not refused
    when the user picks the left differential."""
    doc = dict(R3_DOC, computations=[{"command": "homology", "diff": "right",
                                      "right-char": "ones", "max_degree": 2}])
    code = cli.main(["homology", write(tmp_path, doc), "--diff", "left", "--json"])
    assert code == 0, capsys.readouterr().out


def test_generic_twist_matches_named_twisted_rack(capsys):
    """The generic path checks the twist character it adds, as the named
    twisted rack complex does, so a braided twist needs no --allow-unverified."""
    def degrees(*flags):
        code = cli.main(["homology", str(SCENARIOS / "dihedral3.json"), *flags, "--twist", "-1",
                         "--ring", "z", "--max-degree", "3", "--json"])
        rep = json.loads(capsys.readouterr().out)
        assert code == 0, rep
        return rep["homology"]["degrees"]

    assert degrees("--diff", "combined") == degrees("--named", "twisted-rack")
    assert degrees("--diff", "combined")["2"] == {"dim": 9, "free_rank": 0, "torsion": [6]}
    degrees("--diff", "right")
    degrees("--diff", "hyper-right")


def test_generic_twist_that_is_not_braided_needs_allow_unverified(capsys):
    """On sl2 the constant covector -1 is not a braided character: the run
    stops at the gate, and with --allow-unverified it gets past the gate to
    the square-zero check, which the boundary fails."""
    argv = ["homology", str(SCENARIOS / "sl2.json"), "--diff", "right", "--twist", "-1",
            "--max-degree", "2", "--json"]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out)["error"] == (
        "character 'twist:-1' is not a braided character "
        "(pass --allow-unverified to use it anyway)")
    assert cli.main(argv + ["--allow-unverified"]) == 1
    assert json.loads(capsys.readouterr().out)["error"].startswith(
        "boundary composition out of degree 2 is nonzero")


# A raw 2-dimensional braiding that fails the YBE: the linearization of
# (0,0) -> (0,0), (0,1) -> (1,0), (1,0) -> (1,1), (1,1) -> (1,0).
RAW_DOC = {
    "ring": "q",
    "structure": {"kind": "braiding", "dim": 2,
                  "entries": [[0, 0, 1], [2, 1, 1], [3, 2, 1], [2, 3, 1]]},
    "characters": {"ones": [1, 1]},
}


# The dual numbers over Z with the covector [1, 1], which is not a braided
# character (x (x) x goes to 0 where it should go to 1); the duality suite
# builds its cobar codifferential on the dual of that covector.
DUAL_AUG_DOC = {
    "ring": "z",
    "structure": {"kind": "associative", "dim": 2, "unit": 0,
                  "products": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]]},
    "characters": {"aug": [1, 1]},
}


@pytest.mark.parametrize("suite", ["simplicial", "hyper", "hopf", "homotopy", "duality"])
def test_verify_suites_honour_allow_unverified(tmp_path, capsys, suite):
    """Without the flag the run stops at the verification gate; with it the
    suite runs on the space and reports, whatever its verdict. The duality
    suite passes the flag on to the dual coalgebra, whose braiding is the
    transposed one."""
    doc = DUAL_AUG_DOC if suite == "duality" else RAW_DOC
    argv = ["verify", write(tmp_path, doc), "--suite", suite, "--max-degree", "3",
            "--json"]
    assert cli.main(argv) == 1
    rep = json.loads(capsys.readouterr().out)
    if suite == "duality":
        assert rep["verification"] == {"ybe": {"ok": True},
                                       "characters": {"aug": {"braided": False}}}
    else:
        assert rep["verification"]["ybe"]["ok"] is False
    assert rep["error"] == ("the braiding or a character failed verification "
                            "(run `check` for details, or pass --allow-unverified)")
    code = cli.main(argv + ["--allow-unverified"])
    out, err = capsys.readouterr()
    assert code in (0, 1)
    assert suite in json.loads(out)
    assert "allow_unverified=True" not in out + err


@pytest.mark.parametrize("command, key", [("homology", "homology"), ("verify", "hyper")])
def test_user_max_degree_zero_is_kept(capsys, command, key):
    """A user's --max-degree 0 is not replaced by the scenario's default."""
    argv = [command, str(SCENARIOS / "dihedral3.json"), "--max-degree", "0", "--json"]
    if command == "verify":
        argv += ["--suite", "hyper"]
    assert cli.main(argv) == 0
    rep = json.loads(capsys.readouterr().out)
    if command == "homology":
        assert list(rep["homology"]["degrees"]) == ["0"]
    else:
        assert rep["hyper"]["max_degree"] == 0


@pytest.mark.parametrize("flags, text", [
    (["--named", "twisted-rack", "--twist", "abc"], "'abc'"),
    (["--diff", "right", "--twist", "1/0"], "'1/0'"),
])
def test_malformed_twist_exits_2(capsys, flags, text):
    code = cli.main(["homology", str(SCENARIOS / "dihedral3.json"), *flags, "--json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out)["error"] == f"{text} is not a scalar; write an integer or p/q"
    assert "Traceback" not in err


@pytest.mark.parametrize("suite", ["simplicial", "hyper", "hopf", "homotopy", "duality"])
def test_verify_suites_obey_basis_cap(capsys, suite):
    """Each suite refuses a degree over the cap before it builds anything,
    with the message of homology."""
    code = cli.main(["verify", str(SCENARIOS / "dihedral3.json"), "--suite", suite,
                     "--max-degree", "3", "--basis-cap", "10", "--json"])
    assert code == 3
    assert json.loads(capsys.readouterr().out)["error"] == (
        "a degree would hold 27 basis elements, over the cap of 10; "
        "lower the maximum degree or raise the cap")


def test_memory_error_exits_3_without_traceback(monkeypatch, capsys):
    def exhausted(space, args, report):
        raise MemoryError

    monkeypatch.setitem(cli._SUITES, "hyper", exhausted)
    code = cli.main(["verify", str(SCENARIOS / "dihedral3.json"), "--suite", "hyper"])
    out, err = capsys.readouterr()
    assert code == 3
    assert "error: ran out of memory; lower the maximum degree" in out
    assert "Traceback" not in out + err


def test_named_complex_honours_allow_unverified(tmp_path, capsys):
    """A named complex on the scenario's own space obeys the space's one
    override: koszul on a braiding that fails the YBE runs with the flag."""
    argv = ["homology", write(tmp_path, RAW_DOC), "--named", "koszul", "--max-degree", "3",
            "--json"]
    assert cli.main(argv) == 1
    capsys.readouterr()
    code = cli.main(argv + ["--allow-unverified"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0, rep
    assert rep["complex"]["builder"] == "koszul[ones]"


# R3 with a right module and a bimodule, so that every row of COMPLEX_PARAMS
# can be chosen on it.
ROWS_DOC = dict(R3_DOC, modules={"self": R3_SELF_MODULE},
                bimodules={"zero": {"dim": 1, "right_action": [], "left_action": []}})

# The flag that sets each parameter, with a value.
PARAM_FLAGS = {"left_char": ["--left-char", "ones"], "right_char": ["--right-char", "ones"],
               "twist": ["--twist", "2"], "element": ["--element", "1"],
               "order": ["--diff", "hyper:3"], "module": ["--module", "self"],
               "bimodule": ["--bimodule", "zero"]}


def _row_flags():
    """(row, parameter) pairs whose flag keeps the row chosen: --bimodule
    outranks --module, which outranks --diff."""
    for row in COMPLEX_PARAMS:
        if row in NAMED_COMPLEXES or row == "bimodule":
            outranked = ()
        elif row == "coeff":
            outranked = ("bimodule",)
        else:
            outranked = ("order", "module", "bimodule")
        for param in PARAM_FLAGS:
            if param not in outranked:
                yield row, param


@pytest.mark.parametrize("row, param", list(_row_flags()))
def test_every_row_refuses_exactly_the_flags_it_does_not_read(tmp_path, capsys, row, param):
    if row in NAMED_COMPLEXES:
        chooser = ["--named", row]
    else:
        chooser = {"coeff": ["--module", "self"],
                   "bimodule": ["--bimodule", "zero"]}.get(row, ["--diff", row])
    flag = PARAM_FLAGS[param]
    code = cli.main(["homology", write(tmp_path, ROWS_DOC), *chooser, *flag, "--max-degree", "2",
                     "--json"])
    error = json.loads(capsys.readouterr().out).get("error") or ""
    if param in COMPLEX_PARAMS[row]:
        assert "does not read" not in error
    else:
        assert code == 2
        assert error.endswith(f" does not read {flag[0]}"), error


def test_dump_matrices_into_unwritable_directory_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = str(blocker / "mats")
    code = cli.main(["complex", str(SCENARIOS / "dihedral3.json"), "--max-degree", "2",
                     "--dump-matrices", target, "--json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out)["error"].startswith(f"cannot write matrices to {target!r}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("block, detail", [
    ({"characters": [1]}, "characters: expected an object"),
    ({"modules": [1]}, "modules: expected an object"),
    ({"cocharacters": "x"}, "cocharacters: expected an object"),
    ({"computations": 5}, "computations: expected an array"),
    ({"computations": [{"command": "homology", "max_degree": "x"}]},
     "computations[0].max_degree: 'x' is not a value of --max-degree"),
    ({"computations": [{"command": "homology", "basis_cap": "big"}]},
     "computations[0].basis_cap: 'big' is not a value of --basis-cap"),
    ({"computations": [{"command": "homology", "normalized": "yes"}]},
     "computations[0].normalized: 'yes' is not a value of --normalized"),
    ({"computations": [{"command": "homology", "bogus": 1}]},
     "computations[0].bogus: not a flag of the homology command"),
    ({"computations": [{"command": "homology", "scenario": "x"}]},
     "computations[0].scenario: not a flag of the homology command"),
    ({"computations": [{"command": "homology"}, {"command": "verify", "suite": "nope"}]},
     "computations[1].suite: 'nope' is not a value of --suite"),
    ({"structure": {"kind": "koszul", "grading": []}},
     "structure.grading: expected at least one degree"),
    ({"structure": {"kind": "koszul", "grading": [True, 0]}},
     "structure.grading: expected an integer array"),
    ({"structure": {"kind": "leibniz", "dim": 2, "grading": [0, False]}},
     "structure.grading: expected a length-d integer array"),
    ({"structure": {"kind": "flip", "dim": True}}, "structure.dim: expected a positive integer"),
    ({"structure": {"kind": "associative", "dim": True}},
     "structure.dim: expected a positive integer"),
    ({"structure": {"kind": "braiding", "dim": True}},
     "structure.dim: expected a positive integer"),
    ({"modules": {"m": {"dim": True}}}, "modules.m.dim: expected a positive integer"),
    ({"bimodules": {"b": {"dim": True}}}, "bimodules.b.dim: expected a positive integer"),
    ({"structure": {"kind": "leibniz", "dim": 1, "brackets": [], "adjoin_unit": "no"}},
     "structure.adjoin_unit: expected a boolean"),
    ({"structure": {"kind": "associative", "dim": 1, "products": [], "adjoin_unit": 1}},
     "structure.adjoin_unit: expected a boolean"),
    ({"structure": {"kind": "leibniz", "dim": 1, "brackets": [], "adjoin_unit": None}},
     "structure.adjoin_unit: expected a boolean"),
    ({"structure": {"kind": "coalgebra", "dim": 2, "coproducts": [], "counit": [1]},
      "characters": {"c": [1, 0]}}, "structure.counit: expected a length-2 array"),
    ({"structure": {"kind": "flip", "dim": True}, "characters": {"c": [1]}},
     "structure.dim: expected a positive integer"),
    ({"structure": {"kind": "signed_flip", "dim": 0}, "characters": {"c": [1, 0]}},
     "structure.dim: expected a positive integer"),
    ({"structure": {"kind": "leibniz", "dim": True},
      "modules": {"m": {"dim": 1, "action": [[0, 0, 1]]}},
      "bimodules": {"b": {"dim": 1, "right_action": [[0, 0, 1]], "left_action": [[0, 0, 1]]}},
      "comultiplication": [[0, 0, 1]]}, "structure.dim: expected a positive integer"),
    ({"character": {"e": [1, 1]}}, "character: unknown key"),
    ({"structure": {"kind": "shelf", "table": [[0]], "dim": 1}}, "structure.dim: unknown key"),
    ({"structure": {"kind": "associative", "dim": 1, "products": [], "brackets": []}},
     "structure.brackets: unknown key"),
    ({"structure": {"kind": "leibniz", "dim": 2, "brackets": [[0, 0, 1, 1]],
                    "adjoin_units": True}}, "structure.adjoin_units: unknown key"),
    ({"structure": {"kind": "coalgebra", "dim": 1, "coproducts": [], "unit": 0}},
     "structure.unit: unknown key"),
    ({"structure": {"kind": "braiding", "dim": 1, "entries": [], "grading": [0]}},
     "structure.grading: unknown key"),
    ({"structure": {"kind": "flip", "dim": 1, "table": [[0]]}}, "structure.table: unknown key"),
    ({"structure": {"kind": "signed_flip", "dim": 1, "q": 2}}, "structure.q: unknown key"),
    ({"structure": {"kind": "koszul", "grading": [0], "dim": 1}}, "structure.dim: unknown key"),
    ({"structure": {"kind": "q_flip", "q": 2, "dim": 1}}, "structure.dim: unknown key"),
    ({"modules": {"m": {"dim": 1, "action": [], "sides": "left"}}},
     "modules.m.sides: unknown key"),
    ({"bimodules": {"b": {"dim": 1, "right_action": [], "left_action": [], "action": []}}},
     "bimodules.b.action: unknown key"),
])
def test_malformed_scenario_block_exits_2(tmp_path, capsys, block, detail):
    """A block of the wrong type, a dimension that is not a positive JSON
    integer (true included), an adjoin_unit that is not a JSON boolean, a
    computations key or value its command's flag would not take, or a key
    that its block does not read (at the top level, in each kind of
    structure, or in a module or bimodule entry), is a located scenario
    error. A refused counit keeps the declared dimension, and a refused dim
    is no dimension at all, so the characters and the comultiplication,
    module and bimodule triples are not measured against a dimension the
    document never gave."""
    code = cli.main(["homology", write(tmp_path, dict(R3_DOC, **block)), "--json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out) == {"command": "homology", "error": "invalid scenario",
                               "details": [detail]}
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Values taken from theorems, read below the top degree (whose outgoing
# boundary is not built)
# ---------------------------------------------------------------------------

def _degrees(capsys, argv):
    code = cli.main(["homology", *argv, "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0, rep
    return rep["homology"]["degrees"]


def test_sl2_leibniz_homology_vanishes_in_positive_degrees(capsys):
    """HL_n(sl2; Q) is Q in degree 0 and 0 above (Ntolo; Pirashvili)."""
    degrees = _degrees(capsys, [str(SCENARIOS / "sl2.json"), "--named", "leibniz",
                                "--ring", "q", "--max-degree", "5"])
    assert [degrees[str(n)]["free_rank"] for n in range(5)] == [1, 0, 0, 0, 0]


def test_group_complex_of_z2_is_group_homology(capsys):
    """H_n(Z/2; Z) is Z in degree 0, Z/2 in odd degrees and 0 in positive
    even ones (the periodic resolution of a cyclic group)."""
    degrees = _degrees(capsys, [str(SCENARIOS / "group_algebra_z2.json"), "--named", "group",
                                "--left-char", "aug", "--right-char", "aug", "--ring", "z",
                                "--max-degree", "6"])
    got = [(degrees[str(n)]["free_rank"], degrees[str(n)]["torsion"]) for n in range(6)]
    assert got == [(1, [])] + [(0, [2] if n % 2 else []) for n in range(1, 6)]


def test_hochschild_complex_of_z2_is_twice_group_homology(capsys):
    """HH_n(Z[G]; Z) is the sum over the conjugacy classes g of G of
    H_n(C_G(g); Z) (Burghelea, Comment. Math. Helv. 60, 1985). G = Z/2 is
    abelian with two classes, so HH_n(Z[Z/2]) = H_n(Z/2; Z)^2: Z^2 in degree
    0, (Z/2)^2 in odd degrees and 0 in positive even ones."""
    degrees = _degrees(capsys, [str(SCENARIOS / "group_algebra_z2.json"), "--named",
                                "hochschild", "--ring", "z", "--max-degree", "6"])
    got = [(degrees[str(n)]["free_rank"], degrees[str(n)]["torsion"]) for n in range(6)]
    assert got == [(2, [])] + [(0, [2, 2] if n % 2 else []) for n in range(1, 6)]
