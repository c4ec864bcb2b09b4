"""Regenerate the command-line output corpus and print what changed.

The corpus is one JSON object per line in ``expected.jsonl``: the argument
vector of a ``braidhom`` run, its exit code, its stderr text and its stdout
text. The expected values are regression fixtures computed by this code, not
values from the literature: they catch a change, not an error.
``tests/test_corpus.py`` replays every line in process, once as it is and
once with ``os.fork`` removed.

Run from anywhere: ``python tests/corpus/regen.py`` rewrites expected.jsonl
and prints the diff against the file it replaces, one ``-``/``+`` pair per
changed vector and one line per added or removed vector. A change that
alters an expected line says which lines and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EXPECTED = Path(__file__).resolve().parent / "expected.jsonl"

SCENARIOS = ("dihedral3", "dual_numbers", "dual_numbers_coalgebra", "group_algebra_z2", "sl2")
RINGS = (None, "z", "q", "fp:3")
NAMED = ("koszul", "shelf", "rack", "quandle", "twisted-rack", "partial-derivative", "bar",
         "group", "hochschild", "leibniz", "graded-leibniz", "cobar", "cartier")
DIFFS = ("left", "right", "combined", "face", "hyper-left", "hyper-right", "hyper:2")
SUITES = ("simplicial", "hyper", "hopf", "homotopy", "duality")

# Flags a named complex or --diff kind needs to run on a shipped scenario.
_NEEDS = {
    "twisted-rack": ["--twist", "-1"],
    "partial-derivative": ["--element", "0"],
    "group": ["--left-char", "aug", "--right-char", "aug"],
}


def _rings(scenario: str) -> list:
    """The scenario's own ring (no flag) and every other ring of RINGS."""
    own = json.loads((ROOT / scenario).read_text())["ring"]
    return [r for r in RINGS if r != own]


def _ring_flag(ring) -> list[str]:
    return [] if ring is None else ["--ring", ring]


def vectors() -> list[list[str]]:
    """Every argument vector of the corpus, in file order."""
    out: list[list[str]] = []
    shipped = [f"scenarios/{name}.json" for name in SCENARIOS]
    for path in shipped:
        for ring in _rings(path):
            r = _ring_flag(ring)
            out.append(["check", path, *r, "--json"])
            out.append(["complex", path, *r, "--max-degree", "3", "--json"])
            out.append(["homology", path, *r, "--max-degree", "3", "--json"])
            for suite in SUITES:
                out.append(["verify", path, "--suite", suite, *r, "--max-degree", "3",
                            "--json"])
            for name in NAMED:
                extra = _NEEDS.get(name, [])
                out.append(["homology", path, "--named", name, *extra, *r,
                            "--max-degree", "3", "--json"])
            for kind in DIFFS:
                out.append(["homology", path, "--diff", kind, *r, "--max-degree", "3",
                            "--json"])
        # The human report, the complex command per row, and lower degrees,
        # over the scenario's own ring only.
        out.append(["check", path])
        out.append(["homology", path, "--max-degree", "2"])
        out.append(["verify", path, "--suite", "hopf", "--max-degree", "2"])
        for name in NAMED:
            out.append(["complex", path, "--named", name, *_NEEDS.get(name, []),
                        "--max-degree", "3", "--json"])
        for kind in DIFFS:
            out.append(["complex", path, "--diff", kind, "--max-degree", "3", "--json"])
        for degree in ("0", "1"):
            out.append(["homology", path, "--max-degree", degree, "--json"])
    out += _documents()
    out += _input_errors()
    return out


def _documents() -> list[list[str]]:
    """The small documents under tests/corpus: one per structural braiding,
    a graded Leibniz bracket, a counit-free coalgebra, a braiding that fails
    the YBE, a character that is not braided, failing modules and bimodules,
    and a shelf, an algebra and a bracket that each fail their classical
    axiom, so that the report prints its first failing basis tuple."""
    doc = "tests/corpus/{}.json".format
    out: list[list[str]] = []
    for name, char in (("flip", "ones"), ("signed_flip", "ones"), ("koszul", "even"),
                       ("q_flip", "ones"), ("non_ybe", "ones")):
        sides = {"left": ["--left-char", char], "right": ["--right-char", char],
                 "combined": ["--left-char", char, "--right-char", char]}
        for ring in RINGS:
            r = _ring_flag(ring)
            out.append(["check", doc(name), *r, "--json"])
            for kind, chars in sides.items():
                out.append(["homology", doc(name), "--diff", kind, *chars, *r,
                            "--max-degree", "3", "--json"])
            out.append(["verify", doc(name), "--suite", "hopf", *r, "--max-degree", "3",
                        "--json"])
        for flags in ([], ["--allow-unverified"]):
            out.append(["homology", doc(name), *sides["combined"], *flags, "--max-degree", "3",
                        "--json"])
            out.append(["complex", doc(name), *sides["combined"], *flags, "--max-degree", "3",
                        "--json"])
            out.append(["verify", doc(name), "--suite", "homotopy", *flags,
                        "--max-degree", "3", "--json"])
            out.append(["verify", doc(name), "--suite", "simplicial", *flags,
                        "--max-degree", "3", "--json"])
        out.append(["check", doc(name)])
    out.append(["homology", doc("koszul"), "--named", "koszul", "--max-degree", "3", "--json"])
    out.append(["homology", doc("flip"), "--named", "koszul", "--max-degree", "3", "--json"])
    out.append(["homology", doc("flip"), "--named", "koszul", "--left-char", "first",
                "--max-degree", "3", "--json"])
    for ring in RINGS:
        r = _ring_flag(ring)
        for name in ("graded-leibniz", "leibniz"):
            out.append(["homology", doc("graded_leibniz"), "--named", name, *r,
                        "--max-degree", "3", "--json"])
            out.append(["complex", doc("graded_leibniz"), "--named", name, *r,
                        "--max-degree", "3", "--json"])
        out.append(["check", doc("graded_leibniz"), *r, "--json"])
        out.append(["verify", doc("graded_leibniz"), "--suite", "hopf", *r,
                    "--max-degree", "3", "--json"])
        for name in ("cobar", "cartier"):
            out.append(["homology", doc("coalgebra"), "--named", name, *r,
                        "--max-degree", "3", "--json"])
            out.append(["complex", doc("coalgebra"), "--named", name, *r,
                        "--max-degree", "3", "--json"])
        out.append(["check", doc("coalgebra"), *r, "--json"])
        out.append(["verify", doc("coalgebra"), "--suite", "hopf", *r, "--max-degree", "3",
                    "--json"])
    out.append(["check", doc("modules"), "--json"])
    out.append(["check", doc("bad_character"), "--json"])
    out.append(["check", doc("bimodules"), "--json"])
    for name in ("non_sd_shelf", "non_assoc", "non_leibniz"):
        for ring in RINGS[1:]:
            out.append(["check", doc(name), "--ring", ring, "--json"])
        out.append(["check", doc(name)])
    for module in ("self", "bad"):
        for flags in ([], ["--normalized"], ["--allow-unverified"]):
            out.append(["homology", doc("modules"), "--module", module, *flags,
                        "--max-degree", "2", "--json"])
    for bimodule in ("trivial", "bad"):
        out.append(["homology", doc("bimodules"), "--bimodule", bimodule, "--max-degree", "2",
                    "--json"])
        out.append(["homology", doc("bimodules"), "--named", "hochschild", "--bimodule",
                    bimodule, "--max-degree", "2", "--json"])
    for flags in ([], ["--allow-unverified"]):
        for char in ("ones", "bad"):
            out.append(["homology", doc("bad_character"), "--diff", "left", "--left-char", char,
                        *flags, "--max-degree", "2", "--json"])
        out.append(["verify", doc("bad_character"), "--suite", "hyper", "--left-char", "bad",
                    *flags, "--max-degree", "3", "--json"])
    # the hyper suite's right side reads --right-char
    out.append(["verify", doc("bad_character"), "--suite", "hyper", "--left-char", "ones",
                "--right-char", "bad", "--allow-unverified", "--max-degree", "3", "--json"])
    out.append(["homology", "scenarios/dihedral3.json", "--named", "quandle", "--normalized",
                "--max-degree", "3", "--json"])
    out.append(["homology", "scenarios/dihedral3.json", "--diff", "combined", "--normalized",
                "--max-degree", "3", "--json"])
    out.append(["homology", "scenarios/dihedral3.json", "--diff", "right", "--twist", "-1",
                "--ring", "z", "--max-degree", "3", "--json"])
    out.append(["homology", "scenarios/dihedral3.json", "--diff", "hyper:2", "--ring", "z",
                "--max-degree", "3", "--json"])
    # Restricted complexes a degree or two deeper: the sl2 Leibniz complex,
    # and the d^2 failure of a bracket that is not Leibniz.
    for ring in ("z", "q", "fp:3"):
        out.append(["homology", "scenarios/sl2.json", "--named", "leibniz", "--ring", ring,
                    "--max-degree", "5", "--json"])
    out.append(["complex", "scenarios/sl2.json", "--named", "leibniz", "--max-degree", "5",
                "--json"])
    for ring in ("z", "q", "fp:3"):
        out.append(["homology", doc("non_leibniz"), "--named", "leibniz", "--allow-unverified",
                    "--ring", ring, "--max-degree", "4", "--json"])
    return out


def _input_errors() -> list[list[str]]:
    """Runs refused before or during the build: exit 2, and exit 3 at the cap."""
    r3 = "scenarios/dihedral3.json"
    return [
        ["check", "tests/corpus/bad_syntax.json"],
        ["check", "tests/corpus/bad_fields.json"],
        ["check", "tests/corpus/bad_fields.json", "--json"],
        ["check", "tests/corpus/bad_grading.json"],
        ["check", "tests/corpus/koszul_empty.json"],
        ["verify", "tests/corpus/koszul_empty.json", "--suite", "hopf", "--json"],
        ["check", "tests/corpus/koszul_bool.json", "--json"],
        ["check", "tests/corpus/bad_dims.json", "--json"],
        ["check", "tests/corpus/bad_kind.json", "--json"],
        ["check", "tests/corpus/bad_adjoin_unit.json", "--json"],
        ["check", "tests/corpus/bad_counit.json", "--json"],
        ["check", "tests/corpus/bad_dim_triples.json", "--json"],
        # a misspelt key is refused, not left unread
        ["check", "tests/corpus/misspelt_character.json", "--json"],
        ["check", "tests/corpus/misspelt_adjoin_unit.json", "--json"],
        ["check", "tests/corpus/missing.json"],
        ["check", r3, "--ring", "fp:4", "--json"],
        ["homology", r3, "--named", "nope", "--json"],
        ["homology", r3, "--diff", "sideways", "--json"],
        ["homology", r3, "--diff", "hyper:0", "--json"],
        ["homology", r3, "--diff", "hyper:x", "--json"],
        ["homology", r3, "--max-degree", "-1", "--json"],
        ["homology", r3, "--basis-cap", "0", "--json"],
        ["homology", r3, "--basis-cap", "10", "--json"],
        ["homology", r3, "--named", "rack", "--element", "0", "--json"],
        ["homology", r3, "--diff", "left", "--left-char", "nope", "--json"],
        ["homology", r3, "--diff", "left", "--element", "0", "--json"],
        ["homology", r3, "--module", "nope", "--json"],
        ["homology", r3, "--named", "partial-derivative", "--element", "7", "--json"],
        ["homology", r3, "--named", "twisted-rack", "--twist", "2", "--json"],
        ["homology", r3, "--diff", "right", "--twist", "0", "--json"],
        ["verify", r3, "--suite", "duality", "--json"],
        ["verify", r3, "--suite", "hopf", "--max-degree", "7", "--basis-cap", "100", "--json"],
        ["verify", "scenarios/sl2.json", "--suite", "hyper", "--json", "--max-degree", "-2"],
        ["homology", "scenarios/sl2.json", "--named", "cobar", "--json"],
        ["homology", "scenarios/dual_numbers.json", "--named", "group", "--left-char", "nope",
         "--json"],
        # a suite refuses a character flag it does not read, and an undeclared name
        ["verify", r3, "--suite", "hopf", "--left-char", "ones", "--json"],
        ["verify", r3, "--suite", "hopf", "--right-char", "ones", "--json"],
        ["verify", "scenarios/dual_numbers.json", "--suite", "duality", "--right-char", "counit",
         "--json"],
        ["verify", "scenarios/dual_numbers.json", "--suite", "homotopy", "--right-char",
         "counit", "--json"],
        ["verify", r3, "--suite", "hyper", "--right-char", "nope", "--json"],
        ["verify", "tests/corpus/flip.json", "--suite", "homotopy", "--left-char", "nope",
         "--json"],
    ]


def run(argv: list[str]) -> dict:
    """One in-process run of ``braidhom`` from the repository root: its exit
    code and the text it wrote to each stream. The corpus holds no argparse
    refusal, whose usage text differs between Python versions."""
    from braidhom import cli

    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(here)
    return {"argv": argv, "code": code, "stderr": err.getvalue(), "stdout": out.getvalue()}


def read_expected(path: Path = EXPECTED) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def _line(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def diff(old: list[dict], new: list[dict]) -> list[str]:
    """Per-vector diff: ``-``/``+`` for a changed or removed/added vector."""
    before = {tuple(r["argv"]): r for r in old}
    after = {tuple(r["argv"]): r for r in new}
    lines = []
    for key, rec in before.items():
        if key not in after:
            lines.append("- " + _line(rec))
        elif after[key] != rec:
            lines += ["- " + _line(rec), "+ " + _line(after[key])]
    lines += ["+ " + _line(rec) for key, rec in after.items() if key not in before]
    return lines


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    new = [run(v) for v in vectors()]
    changes = diff(read_expected(), new)
    print("\n".join(changes) if changes else "no change")
    print(f"{len(new)} vectors, {len(changes)} diff lines", file=sys.stderr)
    EXPECTED.write_text("".join(_line(r) + "\n" for r in new))


if __name__ == "__main__":
    main()
