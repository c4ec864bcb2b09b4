"""Scenario files: JSON descriptions of a structure, its companion data and
requested computations.

Rationals are encoded as "p/q" strings, sparse maps as [row, col, value]
triples, shelf tables as nested arrays. Exactly one structure block per
file. Parsing validates every index against the declared dimension and
reports all violations with their field paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .exactlin import ExactError, Ring, SparseLinearMap, ring_from_name
from .braiding import PreBraidedSpace
from . import structures as st
from .complexes import Bimodule, BraidedModule


class ScenarioError(ValueError):
    """Validation failure(s) with located messages."""

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        super().__init__("; ".join(errors))
        self.errors = list(errors)


_STRUCTURE_KINDS = ("shelf", "associative", "leibniz", "coalgebra", "braiding",
                    "flip", "signed_flip", "koszul", "q_flip")


@dataclass
class Scenario:
    ring_name: str
    structure: dict
    characters: dict = field(default_factory=dict)      # name -> list of value strings
    cocharacters: dict = field(default_factory=dict)
    comultiplication: Optional[list] = None             # [row, col, value] triples
    modules: dict = field(default_factory=dict)
    bimodules: dict = field(default_factory=dict)
    computations: list = field(default_factory=list)

    @property
    def ring(self) -> Ring:
        return ring_from_name(self.ring_name)

    def dimension(self) -> int:
        s = self.structure
        kind = s["kind"]
        if kind == "shelf":
            return len(s["table"])
        if kind == "koszul":
            return len(s["grading"])
        if kind == "q_flip":
            return 1
        base = int(s["dim"])
        if kind in ("associative", "leibniz") and s.get("adjoin_unit"):
            return base + 1
        if kind == "coalgebra" and "counit" not in s:
            return base + 1
        return base


def _norm_value(v, path, errors):
    """Normalize a scalar to its canonical JSON form (int or reduced 'p/q')."""
    try:
        if isinstance(v, str):
            f = Fraction(v)
        elif isinstance(v, int) and not isinstance(v, bool):
            f = Fraction(v)
        else:
            raise ValueError
    except (ValueError, ZeroDivisionError):
        errors.append(f"{path}: bad scalar {v!r}")
        return 0
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def _check_triples(raw, path, arity, bounds, errors):
    out = []
    if not isinstance(raw, list):
        errors.append(f"{path}: expected an array")
        return out
    for pos, item in enumerate(raw):
        here = f"{path}[{pos}]"
        if not isinstance(item, list) or len(item) != arity:
            errors.append(f"{here}: expected [{arity} items]")
            continue
        idx = item[:-1]
        ok = True
        for k, (i, bound) in enumerate(zip(idx, bounds)):
            if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < bound:
                errors.append(f"{here}[{k}]: index {i!r} out of range 0..{bound - 1}")
                ok = False
        val = _norm_value(item[-1], f"{here}[{arity - 1}]", errors)
        if ok:
            out.append(idx + [val])
    return out


def _validate_structure(s, errors) -> dict:
    if not isinstance(s, dict):
        errors.append("structure: expected an object")
        return {}
    kind = s.get("kind")
    if kind not in _STRUCTURE_KINDS:
        errors.append(f"structure.kind: unknown kind {kind!r}")
        return {}
    out = {"kind": kind}
    if kind == "shelf":
        table = s.get("table")
        if not isinstance(table, list) or not table:
            errors.append("structure.table: expected a nonempty nested array")
            return out
        m = len(table)
        clean = []
        for a, row in enumerate(table):
            if not isinstance(row, list) or len(row) != m:
                errors.append(f"structure.table[{a}]: expected {m} entries")
                clean.append([0] * m)
                continue
            crow = []
            for b, x in enumerate(row):
                if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < m:
                    errors.append(f"structure.table[{a}][{b}]: entry {x!r} out of range 0..{m - 1}")
                    crow.append(0)
                else:
                    crow.append(x)
            clean.append(crow)
        out["table"] = clean
        return out
    if kind in ("flip", "signed_flip"):
        d = s.get("dim")
        if not isinstance(d, int) or d < 1:
            errors.append("structure.dim: expected a positive integer")
            d = 1
        out["dim"] = d
        return out
    if kind == "koszul":
        grading = s.get("grading")
        if not isinstance(grading, list) or not all(isinstance(g, int) for g in grading):
            errors.append("structure.grading: expected an integer array")
            grading = [0]
        out["grading"] = grading
        return out
    if kind == "q_flip":
        out["q"] = _norm_value(s.get("q", 1), "structure.q", errors)
        return out
    d = s.get("dim")
    if not isinstance(d, int) or d < 1:
        errors.append("structure.dim: expected a positive integer")
        return out
    out["dim"] = d
    if kind == "braiding":
        out["entries"] = _check_triples(s.get("entries", []), "structure.entries",
                                        3, (d * d, d * d), errors)
        return out
    if kind == "coalgebra":
        out["coproducts"] = _check_triples(s.get("coproducts", []), "structure.coproducts",
                                           4, (d, d, d), errors)
        if "counit" in s:
            counit = s["counit"]
            if not isinstance(counit, list) or len(counit) != d:
                errors.append("structure.counit: expected a length-d array")
            else:
                out["counit"] = [_norm_value(v, f"structure.counit[{j}]", errors)
                                 for j, v in enumerate(counit)]
        return out
    key = "products" if kind == "associative" else "brackets"
    out[key] = _check_triples(s.get(key, []), f"structure.{key}", 4, (d, d, d), errors)
    if "unit" in s:
        u = s["unit"]
        if not isinstance(u, int) or isinstance(u, bool) or not 0 <= u < d:
            errors.append(f"structure.unit: index {u!r} out of range 0..{d - 1}")
        else:
            out["unit"] = u
    if s.get("adjoin_unit"):
        if "unit" in out:
            errors.append("structure.adjoin_unit: structure already has a unit")
        else:
            out["adjoin_unit"] = True
    if "grading" in s:
        grading = s["grading"]
        if not isinstance(grading, list) or len(grading) != d or \
                not all(isinstance(g, int) for g in grading):
            errors.append("structure.grading: expected a length-d integer array")
        else:
            out["grading"] = grading
    return out


_COMMANDS = ("check", "complex", "homology", "verify")


def _block(doc, key, kind, errors):
    """doc[key], an object (kind dict) or an array (kind list); an absent or
    null block is empty, and one of another type is an error."""
    block = doc.get(key)
    if block is None:
        return kind()
    if not isinstance(block, kind):
        errors.append(f"{key}: expected {'an object' if kind is dict else 'an array'}")
        return kind()
    return block


def parse_dict(doc: dict) -> Scenario:
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise ScenarioError("top level: expected an object")
    ring_name = doc.get("ring", "z")
    try:
        ring_from_name(ring_name)
    except ExactError as e:
        errors.append(f"ring: {e}")
        ring_name = "z"
    if "structure" not in doc:
        errors.append("structure: missing (exactly one structure block is required)")
        structure = {}
    else:
        structure = _validate_structure(doc["structure"], errors)
    # dimension of the space the covectors/modules act on
    sc = Scenario(ring_name, structure)
    try:
        dim = sc.dimension()
    except Exception:
        dim = 0
    characters = {}
    for name, coords in _block(doc, "characters", dict, errors).items():
        if not isinstance(coords, list) or len(coords) != dim:
            errors.append(f"characters.{name}: expected a length-{dim} array")
            continue
        characters[name] = [_norm_value(v, f"characters.{name}[{j}]", errors)
                            for j, v in enumerate(coords)]
    cocharacters = {}
    for name, coords in _block(doc, "cocharacters", dict, errors).items():
        if not isinstance(coords, list) or len(coords) != dim:
            errors.append(f"cocharacters.{name}: expected a length-{dim} array")
            continue
        cocharacters[name] = [_norm_value(v, f"cocharacters.{name}[{j}]", errors)
                              for j, v in enumerate(coords)]
    comul = None
    if "comultiplication" in doc:
        comul = _check_triples(doc["comultiplication"], "comultiplication",
                               3, (dim * dim, dim), errors)
    modules = {}
    for name, m in _block(doc, "modules", dict, errors).items():
        path = f"modules.{name}"
        if not isinstance(m, dict):
            errors.append(f"{path}: expected an object")
            continue
        mdim = m.get("dim")
        side = m.get("side", "right")
        if not isinstance(mdim, int) or mdim < 1:
            errors.append(f"{path}.dim: expected a positive integer")
            continue
        if side not in ("right", "left"):
            errors.append(f"{path}.side: expected 'right' or 'left'")
            continue
        shape = (mdim, mdim * dim) if side == "right" else (mdim, dim * mdim)
        action = _check_triples(m.get("action", []), f"{path}.action",
                                3, shape, errors)
        modules[name] = {"dim": mdim, "side": side, "action": action}
    bimodules = {}
    for name, m in _block(doc, "bimodules", dict, errors).items():
        path = f"bimodules.{name}"
        if not isinstance(m, dict):
            errors.append(f"{path}: expected an object")
            continue
        mdim = m.get("dim")
        if not isinstance(mdim, int) or mdim < 1:
            errors.append(f"{path}.dim: expected a positive integer")
            continue
        right = _check_triples(m.get("right_action", []), f"{path}.right_action",
                               3, (mdim, mdim * dim), errors)
        left = _check_triples(m.get("left_action", []), f"{path}.left_action",
                              3, (mdim, dim * mdim), errors)
        bimodules[name] = {"dim": mdim, "right_action": right, "left_action": left}
    computations = []
    for pos, comp in enumerate(_block(doc, "computations", list, errors)):
        path = f"computations[{pos}]"
        if not isinstance(comp, dict) or comp.get("command") not in _COMMANDS:
            errors.append(f"{path}: expected an object with a known command")
            continue
        computations.append(dict(comp))
    if errors:
        raise ScenarioError(errors)
    sc.characters = characters
    sc.cocharacters = cocharacters
    sc.comultiplication = comul
    sc.modules = modules
    sc.bimodules = bimodules
    sc.computations = computations
    return sc


def parse(path) -> Scenario:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError([f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}"])
    return parse_dict(doc)


def to_dict(sc: Scenario) -> dict:
    """Canonical JSON document; parse(to_dict(sc)) == sc."""
    out = {"ring": sc.ring_name, "structure": sc.structure}
    if sc.characters:
        out["characters"] = sc.characters
    if sc.cocharacters:
        out["cocharacters"] = sc.cocharacters
    if sc.comultiplication is not None:
        out["comultiplication"] = sc.comultiplication
    if sc.modules:
        out["modules"] = sc.modules
    if sc.bimodules:
        out["bimodules"] = sc.bimodules
    if sc.computations:
        out["computations"] = sc.computations
    return out


def serialize(sc: Scenario) -> str:
    return json.dumps(to_dict(sc), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Space construction
# ---------------------------------------------------------------------------

def _sparse(entries, rows, cols, ring):
    return SparseLinearMap.from_entries(
        rows, cols, [(r, c, ring.parse(v)) for r, c, v in entries], ring)


def build_space(sc: Scenario, ring_override: Optional[Ring] = None) -> PreBraidedSpace:
    """Construct the pre-braided space a scenario describes (without running
    any verification)."""
    ring = ring_override if ring_override is not None else sc.ring
    s = sc.structure
    kind = s["kind"]
    if kind == "shelf":
        table = st.ShelfTable(tuple(tuple(row) for row in s["table"]))
        space = st.shelf_braiding(table, ring)
    elif kind == "flip":
        space = st.flip_braiding(s["dim"], ring)
    elif kind == "signed_flip":
        space = st.signed_flip_braiding(s["dim"], ring)
    elif kind == "koszul":
        space = st.koszul_braiding(s["grading"], ring)
    elif kind == "q_flip":
        space = st.q_flip_braiding(ring.parse(s["q"]), ring)
    elif kind == "braiding":
        d = s["dim"]
        sigma = _sparse(s["entries"], d * d, d * d, ring)
        space = PreBraidedSpace(d, ring, sigma)
    elif kind in ("associative", "leibniz"):
        key = "products" if kind == "associative" else "brackets"
        triples = [(i, j, k, ring.parse(v)) for i, j, k, v in s[key]]
        data = st.algebra_from_constants(kind, s["dim"], triples, ring,
                                         unit_index=s.get("unit"),
                                         grading=s.get("grading"))
        if s.get("adjoin_unit"):
            data = st.adjoin_unit(data)
        if kind == "associative":
            space = st.assoc_braiding(data)
        else:
            space = st.leibniz_braiding(data)
    elif kind == "coalgebra":
        triples = [(i, j, k, ring.parse(v)) for i, j, k, v in s["coproducts"]]
        data = st.algebra_from_constants("coalgebra", s["dim"], triples, ring)
        if "counit" in s:
            data.counit = SparseLinearMap.from_entries(
                1, s["dim"], [(0, j, ring.parse(v)) for j, v in enumerate(s["counit"])],
                ring)
        else:
            data = st.coalgebra_extend(data)
        space = st.coassoc_braiding(data)
    else:  # pragma: no cover - kinds validated at parse time
        raise ScenarioError([f"unknown structure kind {kind!r}"])
    for name, coords in sc.characters.items():
        space.add_character(name, [ring.parse(v) for v in coords])
    for name, coords in sc.cocharacters.items():
        space.add_cocharacter(name, [ring.parse(v) for v in coords])
    if sc.comultiplication is not None:
        space.comultiplication = _sparse(sc.comultiplication,
                                         space.dim ** 2, space.dim, ring)
    for name, m in sc.modules.items():
        d = space.dim
        shape = (m["dim"], m["dim"] * d) if m["side"] == "right" else (m["dim"], d * m["dim"])
        action = _sparse(m["action"], shape[0], shape[1], ring)
        space.modules[name] = BraidedModule(m["dim"], action, m["side"], name=name)
    for name, m in sc.bimodules.items():
        d = space.dim
        right = _sparse(m["right_action"], m["dim"], m["dim"] * d, ring)
        left = _sparse(m["left_action"], m["dim"], d * m["dim"], ring)
        space.bimodules[name] = Bimodule(m["dim"], right, left, name=name)
    return space
