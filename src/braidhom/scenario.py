"""Scenario files: JSON descriptions of a structure, its companion data and
requested computations.

Rationals are encoded as "p/q" strings, sparse maps as [row, col, value]
triples, shelf tables as nested arrays. Exactly one structure block per
file. Parsing validates every index against the declared dimension,
refuses every key it does not read, and reports all violations with their
field paths.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Optional

from ._record import Record
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


# The keys each block reads, by structure kind for the structure block. A
# document with any other key is refused: a misspelt key would otherwise
# leave its value unread and run a different computation.
_TOP_KEYS = ("ring", "structure", "characters", "cocharacters", "comultiplication",
             "modules", "bimodules", "computations")
_STRUCTURE_KEYS = {
    "shelf": ("kind", "table"),
    "associative": ("kind", "dim", "products", "unit", "adjoin_unit", "grading"),
    "leibniz": ("kind", "dim", "brackets", "unit", "adjoin_unit", "grading"),
    "coalgebra": ("kind", "dim", "coproducts", "counit"),
    "braiding": ("kind", "dim", "entries"),
    "flip": ("kind", "dim"),
    "signed_flip": ("kind", "dim"),
    "koszul": ("kind", "grading"),
    "q_flip": ("kind", "q"),
}
_MODULE_KEYS = ("dim", "side", "action")
_BIMODULE_KEYS = ("dim", "right_action", "left_action")


def _unknown_keys(block: dict, keys, path, errors):
    """Refuse every key of block outside keys; path is the block's prefix."""
    errors.extend(f"{path}{key}: unknown key" for key in block if key not in keys)


class Scenario(Record):
    ring_name: str
    structure: dict
    dim: int                                  # of the space V the structure braids
    characters: dict = {}                     # name -> list of value strings
    cocharacters: dict = {}
    comultiplication: Optional[list] = None   # [row, col, value] triples
    modules: dict = {}
    bimodules: dict = {}
    computations: list = []

    @property
    def ring(self) -> Ring:
        return ring_from_name(self.ring_name)


def _norm_value(v, path, errors):
    """Normalize a scalar to its canonical JSON form (int or reduced 'p/q')."""
    try:
        if isinstance(v, str):
            f = Fraction(v)
        elif _is_int(v):
            f = Fraction(v)
        else:
            raise ValueError
    except (ValueError, ZeroDivisionError):
        errors.append(f"{path}: bad scalar {v!r}")
        return 0
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def _is_int(x) -> bool:
    """An integer of the JSON document; true and false are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _positive_int(x, path, errors) -> Optional[int]:
    """x if it is a positive integer of the JSON document, else None with a
    located error."""
    if _is_int(x) and x >= 1:
        return x
    errors.append(f"{path}: expected a positive integer")
    return None


def _check_triples(raw, path, arity, bounds, errors):
    """The [index..., value] items of raw, each index below its bound. A
    bound of 0 is a dimension too broken to tell (see _covectors), and
    there any index passes."""
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
            if bound and (not _is_int(i) or not 0 <= i < bound):
                errors.append(f"{here}[{k}]: index {i!r} out of range 0..{bound - 1}")
                ok = False
        val = _norm_value(item[-1], f"{here}[{arity - 1}]", errors)
        if ok:
            out.append(idx + [val])
    return out


def _validate_structure(s, errors) -> tuple[dict, int]:
    """The normalized structure block and the dimension of the space it
    braids (0 when the block is too broken to tell)."""
    if not isinstance(s, dict):
        errors.append("structure: expected an object")
        return {}, 0
    kind = s.get("kind")
    if kind not in _STRUCTURE_KEYS:
        errors.append(f"structure.kind: unknown kind {kind!r}")
        return {}, 0
    _unknown_keys(s, _STRUCTURE_KEYS[kind], "structure.", errors)
    out = {"kind": kind}
    if kind == "shelf":
        table = s.get("table")
        if not isinstance(table, list) or not table:
            errors.append("structure.table: expected a nonempty nested array")
            return out, 0
        m = len(table)
        clean = []
        for a, row in enumerate(table):
            if not isinstance(row, list) or len(row) != m:
                errors.append(f"structure.table[{a}]: expected {m} entries")
                clean.append([0] * m)
                continue
            crow = []
            for b, x in enumerate(row):
                if not _is_int(x) or not 0 <= x < m:
                    errors.append(f"structure.table[{a}][{b}]: entry {x!r} out of range 0..{m - 1}")
                    crow.append(0)
                else:
                    crow.append(x)
            clean.append(crow)
        out["table"] = clean
        return out, m
    if kind in ("flip", "signed_flip"):
        out["dim"] = _positive_int(s.get("dim"), "structure.dim", errors)
        return out, out["dim"] or 0
    if kind == "koszul":
        grading = s.get("grading")
        if not isinstance(grading, list) or not all(map(_is_int, grading)):
            errors.append("structure.grading: expected an integer array")
            grading = [0]
        elif not grading:
            errors.append("structure.grading: expected at least one degree")
            grading = [0]
        out["grading"] = grading
        return out, len(grading)
    if kind == "q_flip":
        out["q"] = _norm_value(s.get("q", 1), "structure.q", errors)
        return out, 1
    d = _positive_int(s.get("dim"), "structure.dim", errors)
    if d is None:
        return out, 0
    out["dim"] = d
    if kind == "braiding":
        out["entries"] = _check_triples(s.get("entries", []), "structure.entries",
                                        3, (d * d, d * d), errors)
        return out, d
    if kind == "coalgebra":
        out["coproducts"] = _check_triples(s.get("coproducts", []), "structure.coproducts",
                                           4, (d, d, d), errors)
        if "counit" in s:
            counit = s["counit"]
            if not isinstance(counit, list) or len(counit) != d:
                errors.append(f"structure.counit: expected a length-{d} array")
            else:
                out["counit"] = [_norm_value(v, f"structure.counit[{j}]", errors)
                                 for j, v in enumerate(counit)]
        # a coalgebra without a counit is extended by a group-like element
        return out, d if "counit" in s else d + 1
    key = "products" if kind == "associative" else "brackets"
    out[key] = _check_triples(s.get(key, []), f"structure.{key}", 4, (d, d, d), errors)
    if "unit" in s:
        u = s["unit"]
        if not _is_int(u) or not 0 <= u < d:
            errors.append(f"structure.unit: index {u!r} out of range 0..{d - 1}")
        else:
            out["unit"] = u
    adjoin = s.get("adjoin_unit", False)
    if not isinstance(adjoin, bool):
        errors.append("structure.adjoin_unit: expected a boolean")
    elif adjoin:
        if "unit" in out:
            errors.append("structure.adjoin_unit: structure already has a unit")
        else:
            out["adjoin_unit"] = True
    if "grading" in s:
        grading = s["grading"]
        if not isinstance(grading, list) or len(grading) != d or \
                not all(map(_is_int, grading)):
            errors.append("structure.grading: expected a length-d integer array")
        else:
            out["grading"] = grading
    return out, d + 1 if out.get("adjoin_unit") else d


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


def _covectors(doc, key, dim, errors) -> dict:
    """The named length-dim coordinate arrays of doc[key] ("characters" or
    "cocharacters"), normalized; any length passes where the structure is
    too broken to tell its dimension (dim 0)."""
    out = {}
    for name, coords in _block(doc, key, dict, errors).items():
        if not isinstance(coords, list) or dim and len(coords) != dim:
            shape = f"a length-{dim} array" if dim else "an array"
            errors.append(f"{key}.{name}: expected {shape}")
            continue
        out[name] = [_norm_value(v, f"{key}.{name}[{j}]", errors)
                     for j, v in enumerate(coords)]
    return out


def parse_dict(doc: dict) -> Scenario:
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise ScenarioError("top level: expected an object")
    _unknown_keys(doc, _TOP_KEYS, "", errors)
    ring_name = doc.get("ring", "z")
    try:
        ring_from_name(ring_name)
    except ExactError as e:
        errors.append(f"ring: {e}")
        ring_name = "z"
    if "structure" not in doc:
        errors.append("structure: missing (exactly one structure block is required)")
        structure, dim = {}, 0
    else:
        structure, dim = _validate_structure(doc["structure"], errors)
    characters = _covectors(doc, "characters", dim, errors)
    cocharacters = _covectors(doc, "cocharacters", dim, errors)
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
        _unknown_keys(m, _MODULE_KEYS, f"{path}.", errors)
        mdim = _positive_int(m.get("dim"), f"{path}.dim", errors)
        side = m.get("side", "right")
        if mdim is None:
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
        _unknown_keys(m, _BIMODULE_KEYS, f"{path}.", errors)
        mdim = _positive_int(m.get("dim"), f"{path}.dim", errors)
        if mdim is None:
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
    return Scenario(ring_name, structure, dim, characters, cocharacters, comul, modules,
                    bimodules, computations)


def parse(path) -> Scenario:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError([f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}"])
    return parse_dict(doc)


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
