"""Independent dense oracles used to cross-check the sparse implementations.

Everything here works on plain lists of Fractions/ints and never calls into
the code paths it is checking. The exceptions are the references at the
end. The co-side references use sparse maps and the quantum shuffle
product as the literal sum of its shuffles' braid lifts, a path the
codifferentials and bicomodule checks do not take: they, and the library's
`shuffle_product`, come from the boundaries' crossing recursion.
The boundary reference takes the recursion of `complexes._pull` literally,
as tensor products, compositions and sums of sparse maps, none of which
the column-by-column kernel calls. After them come the constructors and
readings only the tests use (a cyclic shelf, orbit characters, character
and rack-set modules, scenario serialization, permutation and report
readings) and the span predicates the enumerated spans are checked against.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import combinations

from braidhom import (BraidedModule, ExactError, HomologyReport, Permutation, PreBraidedSpace,
                      Ring, ShelfTable, SparseLinearMap, ZZ, braid_lift, shuffle_set, tensor)
from braidhom.scenario import Scenario


def dense_of(m: SparseLinearMap) -> list[list[Fraction]]:
    out = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for r, c, v in m.entries():
        out[r][c] = Fraction(v)
    return out


def dense_matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    assert not a or len(a[0]) == inner
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if a[i][k] == 0:
                continue
            aik = a[i][k]
            for j in range(cols):
                out[i][j] += aik * b[k][j]
    return out


def dense_kron(a, b):
    ra, ca = len(a), len(a[0]) if a else 0
    rb, cb = len(b), len(b[0]) if b else 0
    out = [[Fraction(0)] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k][j * cb + l] = Fraction(a[i][j]) * Fraction(b[k][l])
    return out


def dense_rank(mat) -> int:
    """Plain Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in mat]
    rows = len(a)
    cols = len(a[0]) if a else 0
    rank = 0
    piv_row = 0
    for col in range(cols):
        pivot = None
        for r in range(piv_row, rows):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        a[piv_row], a[pivot] = a[pivot], a[piv_row]
        pv = a[piv_row][col]
        for r in range(rows):
            if r != piv_row and a[r][col] != 0:
                f = a[r][col] / pv
                a[r] = [x - f * y for x, y in zip(a[r], a[piv_row])]
        piv_row += 1
        rank += 1
        if piv_row == rows:
            break
    return rank


def dense_rank_mod_p(mat, p: int) -> int:
    a = [[int(x) % p for x in row] for row in mat]
    rows = len(a)
    cols = len(a[0]) if a else 0
    rank = 0
    piv_row = 0
    for col in range(cols):
        pivot = None
        for r in range(piv_row, rows):
            if a[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        a[piv_row], a[pivot] = a[pivot], a[piv_row]
        inv = pow(a[piv_row][col], -1, p)
        for r in range(rows):
            if r != piv_row and a[r][col] % p:
                f = a[r][col] * inv % p
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[piv_row])]
        piv_row += 1
        rank += 1
        if piv_row == rows:
            break
    return rank


def snf_by_minor_gcds(mat) -> list[int]:
    """Invariant factors through determinantal divisors: d_k = gcd of all
    k x k minors, factor_k = d_k / d_{k-1}. Exponential, fine for tiny
    matrices; completely independent of elimination."""
    a = [[int(x) for x in row] for row in mat]
    rows = len(a)
    cols = len(a[0]) if a else 0
    r = dense_rank(a)
    factors = []
    prev = 1
    for k in range(1, r + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                minor = _det([[a[i][j] for j in csel] for i in rsel])
                g = math.gcd(g, minor)
            if g == 1:
                break
        factors.append(g // prev)
        prev = g
    return factors


def _det(a) -> int:
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j] == 0:
            continue
        minor = [[a[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * a[0][j] * _det(minor)
    return total


def from_dense(rows, ring):
    entries = [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v != 0]
    return SparseLinearMap.from_entries(len(rows), len(rows[0]) if rows else 0, entries, ring)


# ---------------------------------------------------------------------------
# Co-side references. The library builds every degree +1 map as the
# transpose of a boundary on the transposed twin of the space; these are the
# direct formulas with the shuffle product.
# ---------------------------------------------------------------------------

def _around(lead, m, trail):
    ring = m.ring
    return tensor(SparseLinearMap.identity(lead, ring),
                  tensor(m, SparseLinearMap.identity(trail, ring)))


def _swap(ring, a, b):
    """X (x) Y -> Y (x) X for blocks of dimensions a and b."""
    return SparseLinearMap.from_entries(
        a * b, a * b, [(y * a + x, x * b + y, 1) for x in range(a) for y in range(b)], ring)


def lifted_shuffle(space, p, q):
    """sh_(p,q) of the negated braiding: the sum of the (p,q)-shuffles'
    lifts."""
    n, total = p + q, None
    for s in shuffle_set(p, q):
        lift = braid_lift(space, s, n, -1)
        total = lift if total is None else total.add_map(lift)
    return total


def pushed(space, coaction, n, side, *, lead=1, trail=1):
    """The degree +1 map of a coaction on lead (x) V^(x)n (x) trail: the
    coaction puts a new strand at one end (lead -> lead (x) V on the left,
    trail -> V (x) trail on the right), then the shuffle product of the
    negated braiding shuffles it in. The right family carries (-1)^n."""
    rest = space.dim ** n
    if side == "left":
        sh = lifted_shuffle(space, 1, n)
        return _around(lead, sh, trail).compose(_around(1, coaction, rest * trail))
    sh = lifted_shuffle(space, n, 1)
    out = _around(lead, sh, trail).compose(_around(lead * rest, coaction, 1))
    return out.neg() if n % 2 == 1 else out


def pushed_bicomodule(space, B, n):
    """The pair of a bicomodule on M (x) V^(x)n: the right coaction pushed
    in on the left, and the left coaction pushed in on the right with M
    cycled to the back and then to the front again."""
    m, ring = B.dim, space.ring
    left = pushed(space, B.right_coaction, n, "left", lead=m)
    mid = pushed(space, B.left_coaction, n, "right", trail=m)
    return left, _swap(ring, space.dim ** (n + 1), m).compose(mid).compose(
        _swap(ring, m, space.dim ** n))


def bicomodule_axioms(space, B):
    """(both coassociativity axioms, the compatibility axiom), checked on the
    coactions themselves: (rho (x) Id) o rho is fixed by Id_M (x) sigma,
    (Id (x) lam) o lam by sigma (x) Id_M, and (lam (x) Id) o rho equals
    (Id (x) rho) o lam."""
    rho, lam = B.right_coaction, B.left_coaction
    idv = SparseLinearMap.identity(space.dim, space.ring)
    idm = SparseLinearMap.identity(B.dim, space.ring)
    lhs_r = tensor(rho, idv).compose(rho)
    lhs_l = tensor(idv, lam).compose(lam)
    sides = (lhs_r == tensor(idm, space.braiding).compose(lhs_r)
             and lhs_l == tensor(space.braiding, idm).compose(lhs_l))
    return sides, tensor(lam, idv).compose(rho) == tensor(idv, rho).compose(lam)


def non_ybe_space():
    """A random braiding of a 2-dimensional space that fails the YBE."""
    rng = random.Random(7)
    entries = [(i, j, rng.randint(-2, 2)) for i in range(4) for j in range(4)]
    return PreBraidedSpace(2, ZZ, SparseLinearMap.from_entries(4, 4, entries, ZZ))


# ---------------------------------------------------------------------------
# Boundary reference: the recursion of complexes._pull taken literally. Each
# step materialises H (x) Id_1, A_q o (...) and the sum; A_q is
# (A_(q-1) (x) Id_1) o (Id (x) -sigma) and A'_q its mirror. The maps are
# kept in the cache passed in, never on the space.
# ---------------------------------------------------------------------------

def pulled_by_tensors(space, rho, side, k, n, cache=None):
    """H(k,n) (side 'left') or H'(k,n) with its sign (side 'right') of
    complexes._pull, by tensor, compose and add_map."""
    cache = {} if cache is None else cache
    key = (rho, side, k, n)
    got = cache.get(key)
    if got is not None:
        return got
    if k == 0:
        got = SparseLinearMap.identity(rho.rows * space.dim ** n, space.ring)
    else:
        q = n - k
        one = space.identity_power(1)
        left = side == "left"
        got = crossed_by_tensors(space, rho, side, q, cache)
        if not left:
            got = got.scale((-1) ** (n - 1))
        if k > 1:  # H(0,n-1) is the identity
            inner = pulled_by_tensors(space, rho, side, k - 1, n - 1, cache)
            got = got.compose(tensor(inner, one) if left else tensor(one, inner))
        if q:
            stay = pulled_by_tensors(space, rho, side, k, n - 1, cache)
            got = (tensor(stay, one) if left else tensor(one.scale((-1) ** k), stay)).add_map(got)
    cache[key] = got
    return got


def crossed_by_tensors(space, rho, side, q, cache=None):
    """A_q (side 'left') or A'_q (side 'right') of complexes._pull, by
    tensor and compose."""
    if q == 0:
        return rho
    cache = {} if cache is None else cache
    key = (rho, side, "crossed", q)
    got = cache.get(key)
    if got is None:
        below = crossed_by_tensors(space, rho, side, q - 1, cache)
        one = space.identity_power(1)
        rest = rho.rows * space.dim ** (q - 1)
        if side == "left":
            got = tensor(below, one).compose(_around(rest, space.braiding.neg(), 1))
        else:
            got = tensor(one, below).compose(_around(1, space.braiding.neg(), rest))
        cache[key] = got
    return got


# ---------------------------------------------------------------------------
# Constructors and readings that only the tests use
# ---------------------------------------------------------------------------

def cyclic_shelf(m: int) -> ShelfTable:
    """a <| b = a + 1 mod m; a rack without idempotents for m > 1."""
    return ShelfTable(tuple(tuple((a + 1) % m for _ in range(m)) for a in range(m)))


def shelf_orbit_character(t: ShelfTable, values, ring: Ring = ZZ) -> SparseLinearMap:
    """Linearize a map constant on <|-orbits (a shelf morphism to the trivial
    shelf). Raises if values is not orbit-constant."""
    for a in range(t.size):
        for b in range(t.size):
            if values[t.op(a, b)] != values[a]:
                raise ExactError(f"values not constant along {a} <| {b}")
    return SparseLinearMap.from_entries(
        1, t.size, [(0, j, values[j]) for j in range(t.size)], ring)


def character_module(space: PreBraidedSpace, char: str, side: str = "right") -> BraidedModule:
    """The ground ring acted on through a braided character."""
    eps = space.character(char)
    return BraidedModule(1, eps, side, name=f"char:{char}")


def rackset_module(space: PreBraidedSpace) -> BraidedModule:
    """A shelf acting on itself by its own operation."""
    t = space.payload
    if not isinstance(t, ShelfTable):
        raise ExactError("rack-set module needs a shelf payload")
    m = t.size
    one = space.ring.one
    entries = [(t.op(a, b), a * m + b, one) for a in range(m) for b in range(m)]
    action = SparseLinearMap.from_entries(m, m * m, entries, space.ring)
    return BraidedModule(m, action, "right", name="self")


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


def is_identity(s: Permutation) -> bool:
    return all(im == i for i, im in enumerate(s.images, start=1))


def inversions(s: Permutation) -> int:
    imgs = s.images
    return sum(1 for i in range(s.n) for j in range(i + 1, s.n) if imgs[i] > imgs[j])


def free_ranks(report: HomologyReport) -> dict[int, int]:
    return {n: h.free_rank for n, h in sorted(report.degrees.items())}


# ---------------------------------------------------------------------------
# Spans as basis-index predicates, the definitions the library's enumerated
# spans are tested against
# ---------------------------------------------------------------------------

def repeated_neighbor_span(d: int, n: int):
    """Basis tensors with some equal adjacent pair of digits (the image of
    the diagonal degeneracies); a leading coefficient block is ignored. The
    n tensor slots are the low base-d digits of the flat index, read off by
    divmod; the lead block above them is never reached."""
    def pred(flat: int) -> bool:
        flat, prev = divmod(flat, d)
        for _ in range(n - 1):
            flat, digit = divmod(flat, d)
            if digit == prev:
                return True
            prev = digit
        return False
    return pred


def unit_factor_span(d: int, n: int, unit_index: int):
    """Basis tensors with the unit index in some tensor slot; a leading
    coefficient block is ignored (see repeated_neighbor_span)."""
    def pred(flat: int) -> bool:
        for _ in range(n):
            flat, digit = divmod(flat, d)
            if digit == unit_index:
                return True
        return False
    return pred
