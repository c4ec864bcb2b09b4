"""Seeded inputs, operation lists and output checkers of the three workloads.

Every op relabels the basis of its workload's fixed structure by a
permutation drawn from the run's seeded generator, so the program only ever
sees generated scenario files. Homology and the hyper-boundary identities
are invariant under relabelling, so the expected outputs below do not
depend on the seed.

The checkers use only published theorems and the basis sizes; they import
nothing from ``braidhom``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

# Dihedral quandles R_p: a <| b = 2b - a (mod p).
RACK_ORDER = 5
RACK_DEGREE = 5
RACK_RINGS = ("z", "q", "fp:7")
LEIBNIZ_DEGREE = 6
HYPER_ORDER = 3
HYPER_DEGREE = 7
HYPER_IDENTITIES = 158

# sl2 with e0 = e, e1 = f, e2 = h: [e,f] = h, [h,e] = 2e, [h,f] = -2f.
SL2_BRACKETS = [
    [0, 1, 2, 1], [1, 0, 2, -1],
    [2, 0, 0, 2], [0, 2, 0, -2],
    [2, 1, 1, -2], [1, 2, 1, 2],
]


@dataclass(frozen=True)
class Op:
    """One CLI invocation. ``kind`` names the per-op metric it feeds and
    ``check`` returns the problems found in its parsed --json report."""
    kind: str
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]


def dihedral_table(p: int, perm: list[int]) -> list[list[int]]:
    """R_p with element a renamed perm[a]."""
    table = [[0] * p for _ in range(p)]
    for a in range(p):
        for b in range(p):
            table[perm[a]][perm[b]] = perm[(2 * b - a) % p]
    return table


def relabelled_sl2(perm: list[int], signs: list[int]) -> list[list[int]]:
    """sl2 brackets in the basis e'_{perm[i]} = signs[i] * e_i."""
    return [[perm[i], perm[j], perm[k], v * signs[i] * signs[j] * signs[k]]
            for i, j, k, v in SL2_BRACKETS]


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, sort_keys=True))
    return str(path)


def _rack_file(rng: random.Random, p: int, path: Path) -> str:
    perm = list(range(p))
    rng.shuffle(perm)
    return _write(path, {"ring": "z", "structure": {
        "kind": "shelf", "table": dihedral_table(p, perm)}})


def _sl2_file(rng: random.Random, path: Path) -> str:
    perm = [0, 1, 2]
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(3)]
    return _write(path, {"ring": "q", "structure": {
        "kind": "leibniz", "dim": 3, "adjoin_unit": True,
        "brackets": relabelled_sl2(perm, signs)}})


def rack_elim(index: int, rng: random.Random, workdir: Path) -> Op:
    ring = RACK_RINGS[index % len(RACK_RINGS)]
    scenario = _rack_file(rng, RACK_ORDER, workdir / f"rack-{index}.json")
    return Op(f"homology_s.{ring.split(':')[0]}",
              ("homology", scenario, "--named", "rack",
               "--max-degree", str(RACK_DEGREE), "--ring", ring, "--json"),
              partial(check_rack, ring=ring))


def leibniz_sl2(index: int, rng: random.Random, workdir: Path) -> Op:
    scenario = _sl2_file(rng, workdir / f"sl2-{index}.json")
    return Op("homology_s.q",
              ("homology", scenario, "--named", "leibniz",
               "--max-degree", str(LEIBNIZ_DEGREE), "--ring", "q", "--json"),
              check_leibniz)


def hyper_verify(index: int, rng: random.Random, workdir: Path) -> Op:
    # Every permutation of R3 is an automorphism, so the relabelled table
    # equals the original; the suite's cost does not depend on the seed.
    scenario = _rack_file(rng, HYPER_ORDER, workdir / f"hyper-{index}.json")
    return Op("verify_s",
              ("verify", scenario, "--suite", "hyper",
               "--max-degree", str(HYPER_DEGREE), "--json"),
              check_hyper)


@dataclass(frozen=True)
class Workload:
    """``make_op(index, rng, workdir)`` gives the index-th op, each with a
    fresh relabelling; op kinds repeat round-robin with period ``kinds``."""
    make_op: Callable[[int, random.Random, Path], Op]
    kinds: int


WORKLOADS = {
    "rack-elim": Workload(rack_elim, len(RACK_RINGS)),
    "leibniz-sl2": Workload(leibniz_sl2, 1),
    "hyper-verify": Workload(hyper_verify, 1),
}


# ---------------------------------------------------------------------------
# Checkers. Each returns a list of problems; empty means the report is right.
# The top degree is skipped: the CLI reports dim ker of the top boundary
# there, not homology.
# ---------------------------------------------------------------------------

def _homology_degrees(report: dict, ring_name: str, top: int, dim: int,
                      problems: list[str]) -> dict:
    hom = report.get("homology", {})
    if report.get("ok") is not True:
        problems.append("report is not ok")
    if hom.get("ring") != ring_name:
        problems.append(f"ring {hom.get('ring')!r}, expected {ring_name!r}")
    degrees = hom.get("degrees", {})
    if sorted(degrees, key=int) != [str(n) for n in range(top + 1)]:
        problems.append(f"degrees {sorted(degrees, key=int)}, expected 0..{top}")
        return {}
    for n in range(top + 1):
        if degrees[str(n)].get("dim") != dim ** n:
            problems.append(f"degree {n}: dim {degrees[str(n)].get('dim')}, "
                            f"expected {dim ** n}")
    return degrees


def check_rack(report: dict, ring: str) -> list[str]:
    """Etingof-Grana: the free rank of rack homology of a finite rack is
    (#orbits)^n, and R_p (p odd prime) has one orbit; its torsion is
    annihilated by p (Nosaka). Over Q and F7 (7 does not divide the torsion)
    the universal coefficient theorem gives Betti numbers equal to the free
    ranks."""
    problems: list[str] = []
    ring_name = {"z": "Z", "q": "Q", "fp:7": "F7"}[ring]
    degrees = _homology_degrees(report, ring_name, RACK_DEGREE, RACK_ORDER, problems)
    for n in range(min(len(degrees), RACK_DEGREE)):
        entry = degrees[str(n)]
        if entry.get("free_rank") != 1:
            problems.append(f"degree {n}: free rank {entry.get('free_rank')}, expected 1")
        if ring == "z":
            torsion = entry.get("torsion")
            if not isinstance(torsion, list) or any(t != RACK_ORDER for t in torsion):
                problems.append(f"degree {n}: torsion {torsion}, "
                                f"expected only factors {RACK_ORDER}")
    return problems


def check_leibniz(report: dict) -> list[str]:
    """Leibniz homology of a semisimple Lie algebra over a field of
    characteristic 0 vanishes in positive degrees (Ntolo; Pirashvili)."""
    problems: list[str] = []
    degrees = _homology_degrees(report, "Q", LEIBNIZ_DEGREE, 3, problems)
    for n in range(min(len(degrees), LEIBNIZ_DEGREE)):
        want = 1 if n == 0 else 0
        got = degrees[str(n)].get("free_rank")
        if got != want:
            problems.append(f"degree {n}: free rank {got}, expected {want}")
    return problems


def check_hyper(report: dict) -> list[str]:
    """Every hyper-boundary composition identity holds, and all of them
    were checked."""
    hyper = report.get("hyper", {})
    problems = []
    if report.get("ok") is not True or hyper.get("ok") is not True:
        problems.append("hyper suite is not ok")
    if hyper.get("identities_checked") != HYPER_IDENTITIES:
        problems.append(f"identities_checked {hyper.get('identities_checked')}, "
                        f"expected {HYPER_IDENTITIES}")
    return problems

