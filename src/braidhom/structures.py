"""Constructors of structural pre-braidings from concrete algebraic input.

Each constructor linearizes one algebraic structure into a pre-braiding on a
based space, installing whatever companion data the structure provides for
free (characters, comultiplications, units). The check_* functions are
total: they return structured reports and never raise on a mere axiom
failure, so a front end can present every violation.

The super- and co-versions are built, not written out again. One Koszul
flip (-1)^(deg v deg w) w (x) v underlies the flip (every degree even), the
signed flip (every degree odd), the Koszul braiding and both Leibniz
braidings, the graded one being leibniz_braiding(a, graded=True).
coalgebra_extend is adjoin_unit on the transposed coproduct, transposed
back.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ._record import Record
from .exactlin import ExactError, Ring, SparseLinearMap, ZZ, _axpy
from .braiding import PreBraidedSpace


# ---------------------------------------------------------------------------
# Shelves
# ---------------------------------------------------------------------------

class ShelfTable(Record, frozen=True):
    """A binary operation table on {0..m-1}; table[a][b] = a <| b."""

    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = len(self.table)
        for row in self.table:
            if len(row) != m or any(not 0 <= x < m for x in row):
                raise ExactError("shelf table must be square with entries in range")

    @property
    def size(self) -> int:
        return len(self.table)

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]


def dihedral_shelf(m: int) -> ShelfTable:
    """a <| b = 2b - a mod m (a quandle for every m)."""
    return ShelfTable(tuple(tuple((2 * b - a) % m for b in range(m)) for a in range(m)))


def trivial_shelf(m: int) -> ShelfTable:
    """a <| b = a."""
    return ShelfTable(tuple(tuple(a for _ in range(m)) for a in range(m)))


class ShelfReport(Record):
    self_distributive: bool
    rack: bool
    quandle: bool
    spindle: bool
    sd_witness: Optional[tuple] = None
    rack_witness: Optional[int] = None
    idem_witness: Optional[int] = None


def _first_failure(size: int, arity: int, fails) -> Optional[tuple]:
    """The first tuple of range(size)^arity, in lexicographic order, on
    which fails(*tuple) is true (or nonzero); None when there is none."""
    return next((t for t in itertools.product(range(size), repeat=arity) if fails(*t)), None)


def check_shelf(t: ShelfTable) -> ShelfReport:
    """Self-distributivity, rack and idempotence. Each witness is the first
    failing basis tuple in lexicographic order: the triple (a, b, c) for
    (a <| b) <| c = (a <| c) <| (b <| c), the b for which a -> a <| b is
    not a bijection, the a with a <| a != a."""
    m = t.size
    op = t.op
    sd_witness = _first_failure(m, 3, lambda a, b, c: op(op(a, b), c) != op(op(a, c), op(b, c)))
    rack_witness = next((b for b in range(m) if len({op(a, b) for a in range(m)}) != m), None)
    idem_witness = next((a for a in range(m) if op(a, a) != a), None)
    sd = sd_witness is None
    rack = sd and rack_witness is None
    idem = idem_witness is None
    return ShelfReport(sd, rack, rack and idem, sd and idem,
                       sd_witness, rack_witness, idem_witness)


def shelf_braiding(t: ShelfTable, ring: Ring = ZZ) -> PreBraidedSpace:
    """Linearization of (a, b) -> (b, a <| b), with the all-ones character
    and the diagonal comultiplication installed."""
    m = t.size
    one = ring.one
    entries = []
    for a in range(m):
        for b in range(m):
            c = t.op(a, b)
            entries.append((b * m + c, a * m + b, one))
    sigma = SparseLinearMap.from_entries(m * m, m * m, entries, ring)
    delta = SparseLinearMap.from_entries(
        m * m, m, [(a * m + a, a, one) for a in range(m)], ring)
    space = PreBraidedSpace(m, ring, sigma, comultiplication=delta, payload=t)
    space.add_character("ones", [one] * m)
    return space


def dirac_character(t: ShelfTable, a: int, ring: Ring = ZZ) -> SparseLinearMap:
    """The covector dual to element a. Requires a idempotent with b <| a != a
    for every b != a (automatic on quandles)."""
    if not 0 <= a < t.size:
        raise ExactError(f"element {a} outside shelf of size {t.size}")
    if t.op(a, a) != a:
        raise ExactError(f"element {a} is not idempotent")
    for b in range(t.size):
        if b != a and t.op(b, a) == a:
            raise ExactError(f"element {b} satisfies {b} <| {a} = {a}; covector is not braided")
    return SparseLinearMap.from_entries(1, t.size, [(0, a, ring.one)], ring)


def twist_character(value, size: int, ring: Ring) -> SparseLinearMap:
    """The constant covector a -> value; value must be invertible."""
    v = ring.coerce(value)
    if not ring.is_unit(v):
        raise ExactError(f"twist value {value!r} is not a unit in {ring.name}")
    return SparseLinearMap.from_entries(1, size, [(0, j, v) for j in range(size)], ring)


# ---------------------------------------------------------------------------
# Algebras, Leibniz algebras, coalgebras: structure-constant data
# ---------------------------------------------------------------------------

class AlgebraData(Record):
    """Structure constants for an associative algebra, a Leibniz bracket, or
    a coalgebra. The binary operation is a d x d^2 map for algebra kinds and
    a d^2 x d map for coalgebras. Units are distinguished basis positions."""

    kind: str                       # "associative" | "leibniz" | "coalgebra"
    dim: int
    ring: Ring
    operation: SparseLinearMap
    unit_index: Optional[int] = None
    counit: Optional[SparseLinearMap] = None
    grading: Optional[list[int]] = None
    characters: dict = {}

    def __post_init__(self):
        d = self.dim
        want = (d * d, d) if self.kind == "coalgebra" else (d, d * d)
        if (self.operation.rows, self.operation.cols) != want:
            raise ExactError(f"{self.kind} operation must be {want[0]}x{want[1]}")
        if self.unit_index is not None and not 0 <= self.unit_index < d:
            raise ExactError("unit index out of range")


def algebra_from_constants(kind: str, dim: int, triples, ring: Ring, *,
                           unit_index: Optional[int] = None,
                           grading=None) -> AlgebraData:
    """Build from (i, j, k, value) meaning op(e_i (x) e_j) has coefficient
    value on e_k (algebra kinds) or delta(e_k) has coefficient value on
    e_i (x) e_j (coalgebras)."""
    if kind not in ("associative", "leibniz", "coalgebra"):
        raise ExactError(f"unknown structure kind {kind!r}")
    entries = []
    for i, j, k, v in triples:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ExactError(f"structure constant ({i},{j},{k}) out of range")
        if kind == "coalgebra":
            entries.append((i * dim + j, k, v))
        else:
            entries.append((k, i * dim + j, v))
    shape = (dim * dim, dim) if kind == "coalgebra" else (dim, dim * dim)
    op = SparseLinearMap.from_entries(shape[0], shape[1], entries, ring)
    return AlgebraData(kind, dim, ring, op, unit_index=unit_index,
                       grading=list(grading) if grading is not None else None)


class AlgebraReport(Record):
    associative: bool
    right_unital: Optional[bool]
    left_unital: Optional[bool]
    witness: Optional[tuple] = None


class LeibnizReport(Record):
    leibniz: bool
    unit_central: Optional[bool]
    witness: Optional[tuple] = None


class CovectorReport(Record):
    ok: bool
    witness: Optional[tuple] = None

    def __bool__(self):
        return self.ok


def _mul_basis(a: AlgebraData, i: int, j: int) -> dict:
    return a.operation.column(i * a.dim + j)


def _mul_vec(a: AlgebraData, vec: dict, j: int, on_left: bool) -> dict:
    """Multiply a sparse vector by basis vector e_j (on the stated side)."""
    out: dict[int, object] = {}
    for i, v in vec.items():
        col = _mul_basis(a, i, j) if on_left is False else _mul_basis(a, j, i)
        _axpy(out, col.items(), v, a.ring.characteristic)
    return out


def check_assoc(a: AlgebraData) -> AlgebraReport:
    """Associativity on basis triples, plus unit laws when a unit is given.
    The witness is the first failing basis triple in lexicographic order."""
    if a.kind != "associative":
        raise ExactError("check_assoc expects associative structure data")
    d = a.dim
    witness = _first_failure(d, 3, lambda i, j, k: (
        _mul_vec(a, _mul_basis(a, i, j), k, on_left=False)
        != _mul_vec(a, _mul_basis(a, j, k), i, on_left=True)))
    right_unital = left_unital = None
    if a.unit_index is not None:
        u = a.unit_index
        one = a.ring.one
        right_unital = all(_mul_basis(a, i, u) == {i: one} for i in range(d))
        left_unital = all(_mul_basis(a, u, i) == {i: one} for i in range(d))
    return AlgebraReport(witness is None, right_unital, left_unital, witness)


def check_leibniz(a: AlgebraData) -> LeibnizReport:
    """[v,[w,u]] = [[v,w],u] - [[v,u],w] on basis triples; unit centrality
    when a unit is given. The witness is the first failing basis triple in
    lexicographic order."""
    if a.kind != "leibniz":
        raise ExactError("check_leibniz expects leibniz structure data")
    d = a.dim
    witness = _first_failure(d, 3, lambda i, j, k: (
        _mul_vec(a, _mul_basis(a, j, k), i, on_left=True)
        != _axpy(_mul_vec(a, _mul_basis(a, i, j), k, on_left=False),
                 _mul_vec(a, _mul_basis(a, i, k), j, on_left=False).items(),
                 -1, a.ring.characteristic)))
    central = None
    if a.unit_index is not None:
        u = a.unit_index
        central = all(not _mul_basis(a, u, i) and not _mul_basis(a, i, u) for i in range(d))
    return LeibnizReport(witness is None, central, witness)


def _covector_check(a: AlgebraData, covector: SparseLinearMap, expected) -> CovectorReport:
    """eps(e_i e_j) = expected(eps_i, eps_j) on basis pairs and eps(1) = 1.
    The witness is the first failing basis pair in lexicographic order, or
    ("unit",) when only the unit fails."""
    ring = a.ring
    eps = [covector.entry(0, j) for j in range(a.dim)]
    witness = _first_failure(a.dim, 2, lambda i, j: ring.coerce(
        sum(v * eps[k] for k, v in _mul_basis(a, i, j).items()) - expected(eps[i], eps[j])))
    if witness is None and a.unit_index is not None and eps[a.unit_index] != ring.one:
        witness = ("unit",)
    return CovectorReport(witness is None, witness)


def algebra_character_check(a: AlgebraData, covector: SparseLinearMap) -> CovectorReport:
    """eps(vw) = eps(v)eps(w) on basis pairs and eps(1) = 1. The witness is
    the first failing basis pair in lexicographic order, then ("unit",)."""
    return _covector_check(a, covector, lambda x, y: x * y)


def lie_character_check(a: AlgebraData, covector: SparseLinearMap) -> CovectorReport:
    """eps kills every bracket and sends the unit to 1. The witness is the
    first failing basis pair in lexicographic order, then ("unit",)."""
    return _covector_check(a, covector, lambda x, y: 0)


def adjoin_unit(a: AlgebraData) -> AlgebraData:
    """Extend by a formal unit as the last basis vector: two-sided unit for
    associative data, central element for brackets. Installs the covector
    vanishing on the old space with value 1 on the unit."""
    if a.kind not in ("associative", "leibniz"):
        raise ExactError("adjoin_unit expects associative or leibniz data")
    if a.unit_index is not None:
        raise ExactError("structure already has a unit")
    d = a.dim
    nd = d + 1
    u = d
    ring = a.ring
    entries = []
    for r, c, v in a.operation.entries():
        i, j = divmod(c, d)
        entries.append((r, i * nd + j, v))
    if a.kind == "associative":
        for i in range(nd):
            entries.append((i, u * nd + i, ring.one))
        for i in range(d):
            entries.append((i, i * nd + u, ring.one))
    op = SparseLinearMap.from_entries(nd, nd * nd, entries, ring)
    counit = SparseLinearMap.from_entries(1, nd, [(0, u, ring.one)], ring)
    grading = a.grading + [0] if a.grading is not None else None
    return AlgebraData(a.kind, nd, ring, op, unit_index=u, counit=counit, grading=grading)


def coalgebra_extend(a: AlgebraData) -> AlgebraData:
    """Adjoin a formal group-like counital element to a coalgebra:
    Delta(v) = delta(v) + 1 (x) v + v (x) 1 and Delta(1) = 1 (x) 1.

    This is the co-version of adjoin_unit: the unit adjoined to the algebra
    with product delta^T, transposed back."""
    if a.kind != "coalgebra":
        raise ExactError("coalgebra_extend expects coalgebra data")
    if a.counit is not None or a.unit_index is not None:
        raise ExactError("coalgebra already has a counit")
    ext = adjoin_unit(AlgebraData("associative", a.dim, a.ring, a.operation.transpose()))
    return AlgebraData("coalgebra", ext.dim, a.ring, ext.operation.transpose(),
                       unit_index=ext.unit_index, counit=ext.counit)


# ---------------------------------------------------------------------------
# Braiding constructors
# ---------------------------------------------------------------------------

def _koszul_flip(grading, ring: Ring) -> SparseLinearMap:
    """v (x) w -> (-1)^(deg v deg w) w (x) v on a basis graded by grading,
    the one flip under every flip-like braiding."""
    d = len(grading)
    return SparseLinearMap.from_entries(
        d * d, d * d, [(b * d + a, a * d + b, -1 if grading[a] * grading[b] % 2 else 1)
                       for a in range(d) for b in range(d)], ring)


def flip_braiding(d: int, ring: Ring = ZZ) -> PreBraidedSpace:
    """v (x) w -> w (x) v: the Koszul flip with every degree even."""
    return PreBraidedSpace(d, ring, _koszul_flip([0] * d, ring))


def signed_flip_braiding(d: int, ring: Ring = ZZ) -> PreBraidedSpace:
    """v (x) w -> -w (x) v: the Koszul flip with every degree odd."""
    return PreBraidedSpace(d, ring, _koszul_flip([1] * d, ring))


def koszul_braiding(grading: list[int], ring: Ring = ZZ) -> PreBraidedSpace:
    """Graded flip with sign (-1)^(deg a * deg b)."""
    return PreBraidedSpace(len(grading), ring, _koszul_flip(grading, ring))


def q_flip_braiding(q, ring: Ring) -> PreBraidedSpace:
    """One-dimensional braiding x (x) x -> q * x (x) x, q nonzero."""
    qv = ring.coerce(q)
    if qv == 0:
        raise ExactError("q must be nonzero")
    sigma = SparseLinearMap.from_entries(1, 1, [(0, 0, qv)], ring)
    space = PreBraidedSpace(1, ring, sigma)
    space.add_character("ones", [ring.one])
    return space


def assoc_braiding(a: AlgebraData) -> PreBraidedSpace:
    """v (x) w -> 1 (x) vw for a right-unital associative structure, with the
    comultiplication v -> 1 (x) v installed."""
    if a.kind != "associative":
        raise ExactError("assoc_braiding expects associative data")
    rep = check_assoc(a)
    if a.unit_index is None:
        raise ExactError("assoc_braiding needs a distinguished unit (adjoin one first)")
    if rep.right_unital is False:
        raise ExactError("distinguished element is not a right unit")
    d = a.dim
    u = a.unit_index
    ring = a.ring
    sigma = SparseLinearMap.from_entries(
        d * d, d * d,
        [(u * d + r, c, v) for r, c, v in a.operation.entries()],
        ring)
    delta = SparseLinearMap.from_entries(
        d * d, d, [(u * d + v, v, ring.one) for v in range(d)], ring)
    space = PreBraidedSpace(d, ring, sigma, unit_index=u,
                            comultiplication=delta, payload=a)
    if a.counit is not None:
        space.add_character("counit", a.counit)
    for name, cov in a.characters.items():
        space.add_character(name, cov)
    return space


def leibniz_braiding(a: AlgebraData, graded: bool = False) -> PreBraidedSpace:
    """v (x) w -> w (x) v + 1 (x) [v,w] for a bracket with central unit, with
    the primitive comultiplication installed.

    graded=True gives the super-version: the flip becomes the Koszul flip
    (-1)^(deg v deg w) w (x) v of the structure's grading, in which the unit
    must be even, and no comultiplication is installed. Either braiding is
    the flip plus e_u (x) [ , ]."""
    if a.kind != "leibniz":
        raise ExactError("leibniz_braiding expects leibniz data")
    if a.unit_index is None:
        raise ExactError("leibniz_braiding needs a distinguished unit (adjoin one first)")
    if graded and a.grading is None:
        raise ExactError("graded braiding needs a grading")
    if graded and a.grading[a.unit_index] % 2 != 0:
        raise ExactError("unit must have even degree")
    if check_leibniz(a).unit_central is False:
        raise ExactError("distinguished element is not central for the bracket")
    d = a.dim
    u = a.unit_index
    ring = a.ring
    unit = SparseLinearMap.from_entries(d, 1, [(u, 0, 1)], ring)
    flip = _koszul_flip(a.grading if graded else [0] * d, ring)
    sigma = flip.add_map(unit.tensor(a.operation))
    delta = None
    if not graded:
        delta_entries = [(u * d + u, u, ring.one)]
        for v in range(d):
            if v != u:
                delta_entries.append((u * d + v, v, ring.one))
                delta_entries.append((v * d + u, v, ring.one))
        delta = SparseLinearMap.from_entries(d * d, d, delta_entries, ring)
    space = PreBraidedSpace(d, ring, sigma, unit_index=u,
                            comultiplication=delta, payload=a)
    if a.counit is not None:
        space.add_character("counit", a.counit)
    for name, cov in a.characters.items():
        space.add_character(name, cov)
    return space


def coassoc_braiding(a: AlgebraData) -> PreBraidedSpace:
    """sigma = counit (x) Delta for a counital coalgebra: v (x) w ->
    eps(v) * Delta(w). The group-like unit is installed as a cocharacter."""
    if a.kind != "coalgebra":
        raise ExactError("coassoc_braiding expects coalgebra data")
    if a.counit is None:
        raise ExactError("coassoc_braiding needs a counit (extend the coalgebra first)")
    d = a.dim
    ring = a.ring
    eps = [a.counit.entry(0, j) for j in range(d)]
    entries = []
    for v in range(d):
        if eps[v] == 0:
            continue
        for r, c, val in a.operation.entries():
            entries.append((r, v * d + c, eps[v] * val))
    sigma = SparseLinearMap.from_entries(d * d, d * d, entries, ring)
    space = PreBraidedSpace(d, ring, sigma, unit_index=a.unit_index, payload=a)
    space.add_character("counit", a.counit)
    if a.unit_index is not None:
        space.add_cocharacter("unit", [ring.one if j == a.unit_index else ring.zero
                                       for j in range(d)])
    return space


def dual_coalgebra(a: AlgebraData) -> AlgebraData:
    """The coalgebra on the dual basis of a unital algebra: the coproduct is
    the transpose of the product, the counit is evaluation at the unit."""
    if a.kind != "associative" or a.unit_index is None:
        raise ExactError("dual_coalgebra expects unital associative data")
    op = a.operation.transpose()
    counit = SparseLinearMap.from_entries(1, a.dim, [(0, a.unit_index, a.ring.one)], a.ring)
    return AlgebraData("coalgebra", a.dim, a.ring, op, unit_index=None, counit=counit)
