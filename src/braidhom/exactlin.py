"""Exact coefficient rings and sparse linear maps on tensor-power index spaces.

All arithmetic is exact and scalars are plain Python numbers: integers are
arbitrary precision ints, a rational is an int when it is integral and a
`fractions.Fraction` otherwise, and prime-field elements are reduced residues
stored as ints. A ring is a coercion plus a modulus (its characteristic,
0 for Z and Q): maps compute with the number operators and reduce mod p over
F_p. `coerce` gives the canonical form; an integral result of arithmetic on
Fractions may stay a Fraction, which equals and hashes like the int.
Floating point is never used.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Optional


class ExactError(ValueError):
    """Ring or matrix misuse: bad modulus, shape mismatch, non-unit division."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class Ring:
    """One of Z, Q, F_p. Scalars are plain ints, or Fractions for proper
    rationals; the ring object supplies coercion, the modulus
    (characteristic), units, parsing and formatting."""

    name: str = "?"
    is_field: bool = False
    characteristic: int = 0
    zero = 0
    one = 1

    def coerce(self, x):
        raise NotImplementedError

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def parse(self, text) -> object:
        """Accept ints and 'p/q' strings (reduced on input)."""
        if isinstance(text, str):
            try:
                value = Fraction(text)
            except (ValueError, ZeroDivisionError):
                raise ExactError(f"{text!r} is not a scalar; write an integer or p/q") from None
            return self.coerce(value)
        return self.coerce(text)

    def fmt(self, a) -> str:
        return str(a)

    def __repr__(self):
        return self.name


class IntegerRing(Ring):
    name = "Z"

    def coerce(self, x):
        if isinstance(x, bool):
            raise ExactError("booleans are not ring scalars")
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ExactError(f"{x} is not an integer")
            return x.numerator
        raise ExactError(f"cannot coerce {x!r} into Z")

    def is_unit(self, a) -> bool:
        return a in (1, -1)


class RationalField(Ring):
    name = "Q"
    is_field = True

    def coerce(self, x):
        if isinstance(x, bool):
            raise ExactError("booleans are not ring scalars")
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        raise ExactError(f"cannot coerce {x!r} into Q")

    def is_unit(self, a) -> bool:
        return a != 0

    def fmt(self, a) -> str:
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"


class PrimeField(Ring):
    is_field = True

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ExactError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"F{p}"

    def coerce(self, x):
        if isinstance(x, bool):
            raise ExactError("booleans are not ring scalars")
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ExactError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(den, -1, self.p) % self.p
        raise ExactError(f"cannot coerce {x!r} into F_{self.p}")

    def is_unit(self, a) -> bool:
        return a % self.p != 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


ZZ = IntegerRing()
QQ = RationalField()


def ring_from_name(name: str) -> Ring:
    """Resolve a ring selector: ``z``, ``q`` or ``fp:<prime>``."""
    low = name.strip().lower()
    if low == "z":
        return ZZ
    if low == "q":
        return QQ
    if low.startswith("fp:"):
        try:
            p = int(low[3:])
        except ValueError:
            raise ExactError(f"bad prime in ring selector {name!r}")
        return PrimeField(p)
    raise ExactError(f"unknown ring selector {name!r} (use z, q, or fp:<p>)")


# ---------------------------------------------------------------------------
# Tensor indexing. Convention: the leftmost tensor factor is the most
# significant digit, so for V^(x)n with dim(V)=d the basis vector
# e_{a_1} (x) ... (x) e_{a_n} has flat index sum(a_i * d^(n-i)).
# ---------------------------------------------------------------------------

def flat_index(digits: Iterable[int], dims: Iterable[int]) -> int:
    flat = 0
    for a, d in zip(digits, dims):
        if not 0 <= a < d:
            raise ExactError(f"digit {a} out of range for dimension {d}")
        flat = flat * d + a
    return flat


def digits_of(flat: int, dims: Iterable[int]) -> tuple[int, ...]:
    dims = tuple(dims)
    out = [0] * len(dims)
    for i in range(len(dims) - 1, -1, -1):
        flat, out[i] = divmod(flat, dims[i])
    if flat:
        raise ExactError("flat index out of range")
    return tuple(out)


# ---------------------------------------------------------------------------
# Sparse linear maps
# ---------------------------------------------------------------------------

def _axpy(acc: dict, src, q, p: int = 0) -> dict:
    """acc += q*src in place and return acc; src yields (index, value) pairs.
    Over F_p (p nonzero) each sum is reduced mod p. A cancelled entry is
    dropped as soon as it occurs, so an index that cancels and comes back
    moves to the end of the dict order: subquotient names the first escaping
    index of a column in that order."""
    for c, v in src:
        s = acc.get(c, 0) + q * v
        if p:
            s %= p
        if s:
            acc[c] = s
        else:
            acc.pop(c, None)
    return acc


class SparseLinearMap:
    """A linear map k^cols -> k^rows over an exact ring, stored column-major.

    Invariants: no explicit zeros, no empty column dicts, indices in range.
    Instances are value-like; never mutate one after creation.
    """

    __slots__ = ("rows", "cols", "ring", "_cols")

    def __init__(self, rows: int, cols: int, ring: Ring, _cols: Optional[dict] = None):
        if rows < 0 or cols < 0:
            raise ExactError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        self.ring = ring
        self._cols = _cols if _cols is not None else {}

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_entries(rows: int, cols: int, entries: Iterable, ring: Ring) -> "SparseLinearMap":
        """Build from (row, col, value) triples; duplicates accumulate."""
        p = ring.characteristic
        data: dict[int, dict] = {}
        for r, c, v in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ExactError(f"entry ({r},{c}) outside {rows}x{cols}")
            col = _axpy(data.setdefault(c, {}), ((r, ring.coerce(v)),), 1, p)
            if not col:
                del data[c]
        return SparseLinearMap(rows, cols, ring, data)

    @staticmethod
    def identity(n: int, ring: Ring) -> "SparseLinearMap":
        one = ring.one
        return SparseLinearMap(n, n, ring, {j: {j: one} for j in range(n)})

    @staticmethod
    def zero(rows: int, cols: int, ring: Ring) -> "SparseLinearMap":
        return SparseLinearMap(rows, cols, ring, {})

    # -- inspection ----------------------------------------------------------

    def entries(self) -> Iterator[tuple[int, int, object]]:
        """All nonzero entries, sorted by (row, col) for determinism."""
        triples = []
        for c, col in self._cols.items():
            for r, v in col.items():
                triples.append((r, c, v))
        triples.sort(key=lambda t: (t[0], t[1]))
        return iter(triples)

    def entry(self, r: int, c: int):
        return self._cols.get(c, {}).get(r, self.ring.zero)

    def column(self, j: int) -> dict:
        return dict(self._cols.get(j, {}))

    @property
    def nnz(self) -> int:
        return sum(len(col) for col in self._cols.values())

    def is_zero(self) -> bool:
        return not self._cols

    def _is_identity(self) -> bool:
        """One pass over the columns, stopping at the first that is not e_j."""
        cols = self._cols
        return self.rows == self.cols == len(cols) and all(
            len(col) == 1 and col.get(j) == 1 for j, col in cols.items())

    def __eq__(self, other):
        if not isinstance(other, SparseLinearMap):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.ring == other.ring and self._cols == other._cols)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries())))

    def __repr__(self):
        return f"SparseLinearMap({self.rows}x{self.cols} over {self.ring}, nnz={self.nnz})"

    # -- algebra ------------------------------------------------------------

    def compose(self, other: "SparseLinearMap") -> "SparseLinearMap":
        """self o other (other is applied first). When one operand is an
        identity the other is returned as it is."""
        if self.ring != other.ring:
            raise ExactError("ring mismatch in compose")
        if self.cols != other.rows:
            raise ExactError(f"compose shape mismatch: {self.rows}x{self.cols} o {other.rows}x{other.cols}")
        if other._is_identity():
            return self
        if self._is_identity():
            return other
        p = self.ring.characteristic
        mine = self._cols
        out: dict[int, dict] = {}
        for j, col in other._cols.items():
            acc: dict[int, object] = {}
            for r, v in col.items():
                fc = mine.get(r)
                if fc is not None:
                    _axpy(acc, fc.items(), v, p)
            if acc:
                out[j] = acc
        return SparseLinearMap(self.rows, other.cols, self.ring, out)

    def tensor(self, other: "SparseLinearMap") -> "SparseLinearMap":
        """Kronecker product; the left factor is the most significant block."""
        if self.ring != other.ring:
            raise ExactError("ring mismatch in tensor")
        p = self.ring.characteristic
        orows, ocols = other.rows, other.cols
        out: dict[int, dict] = {}
        for jf, colf in self._cols.items():
            for jg, colg in other._cols.items():
                col: dict[int, object] = {}
                for rf, vf in colf.items():
                    base = rf * orows
                    for rg, vg in colg.items():
                        col[base + rg] = vf * vg % p if p else vf * vg
                out[jf * ocols + jg] = col
        return SparseLinearMap(self.rows * orows, self.cols * ocols, self.ring, out)

    def add_map(self, other: "SparseLinearMap") -> "SparseLinearMap":
        return self._plus(other, 1)

    def sub_map(self, other: "SparseLinearMap") -> "SparseLinearMap":
        return self._plus(other, -1)

    def _plus(self, other: "SparseLinearMap", q) -> "SparseLinearMap":
        """self + q*other, accumulated column by column into a copy of self."""
        if (self.rows, self.cols) != (other.rows, other.cols) or self.ring != other.ring:
            raise ExactError("shape or ring mismatch in add")
        p = self.ring.characteristic
        out = {j: dict(col) for j, col in self._cols.items()}
        for j, col in other._cols.items():
            if not _axpy(out.setdefault(j, {}), col.items(), q, p):
                del out[j]
        return SparseLinearMap(self.rows, self.cols, self.ring, out)

    def scale(self, s) -> "SparseLinearMap":
        ring = self.ring
        s = ring.coerce(s)
        if s == 0:
            return SparseLinearMap.zero(self.rows, self.cols, ring)
        if s == 1:
            return self
        p = ring.characteristic
        out = {j: {r: s * v % p if p else s * v for r, v in col.items()}
               for j, col in self._cols.items()}
        return SparseLinearMap(self.rows, self.cols, ring, out)

    def neg(self) -> "SparseLinearMap":
        return self.scale(-1)

    def transpose(self) -> "SparseLinearMap":
        out: dict[int, dict] = {}
        for j, col in self._cols.items():
            for r, v in col.items():
                out.setdefault(r, {})[j] = v
        return SparseLinearMap(self.cols, self.rows, self.ring, out)

    def with_ring(self, ring: Ring) -> "SparseLinearMap":
        """Re-coerce every entry into another ring (e.g. Z -> Q, Z -> F_p)."""
        if ring == self.ring:
            return self
        out: dict[int, dict] = {}
        for j, col in self._cols.items():
            newcol = {}
            for r, v in col.items():
                w = ring.coerce(v)
                if w:
                    newcol[r] = w
            if newcol:
                out[j] = newcol
        return SparseLinearMap(self.rows, self.cols, ring, out)

    def submatrix(self, row_keep: list[int], col_keep: list[int]) -> "SparseLinearMap":
        """Reindexed restriction to the given rows/columns (order preserved)."""
        rpos = {r: i for i, r in enumerate(row_keep)}
        out: dict[int, dict] = {}
        for newj, j in enumerate(col_keep):
            col = self._cols.get(j)
            if not col:
                continue
            newcol = {rpos[r]: v for r, v in col.items() if r in rpos}
            if newcol:
                out[newj] = newcol
        return SparseLinearMap(len(row_keep), len(col_keep), self.ring, out)


def compose(f: SparseLinearMap, g: SparseLinearMap) -> SparseLinearMap:
    """f o g (g applied first)."""
    return f.compose(g)


def tensor(f: SparseLinearMap, g: SparseLinearMap) -> SparseLinearMap:
    return f.tensor(g)


# ---------------------------------------------------------------------------
# Elimination. One kernel serves rank over F_p, rank over Q and the Smith
# form over Z, and through them the invertibility test (is_invertible).
# Each pivot is taken in the live column meeting the fewest rows, read from
# the columns bucketed by that count, and in its shortest row. A pivot in a
# column met by k rows updates the k - 1 other rows, so the sparsest column
# first keeps fill low: on the R5 rack boundary d_5 over F7 it makes about
# 9x fewer entry updates than the shortest row first. Over Z only +-1
# entries are pivots until none is left; a column found to hold none is set
# aside until an update touches it, so the search does not rescan it. Each
# update a*row - b*prow is one in-place loop over the pivot row, reduced
# mod p over F_p. Over Q rows are kept integral: denominators are cleared,
# and each updated row is divided by its content (gcd) to keep the integers
# small. The Smith form never divides out contents (see smith_normal_form).
#
# A complex is eliminated one boundary after the other (_eliminate_chain).
# A pivot of d_n at column c fixes the coordinate x_c of every kernel vector
# from the coordinates of the non-pivot columns, so the projection that
# forgets the pivot coordinates is injective on ker d_n. Since
# im d_{n+1} lies in ker d_n, row c of d_{n+1} is redundant: it is dropped
# before d_{n+1} is eliminated, which leaves its rank unchanged. Over a
# field every pivot fixes its coordinate. Over Z only the +-1 pivots taken
# before the first Euclidean step are passed on: they fix x_c integrally,
# and the rows left after them touch only non-pivot columns, so the
# projected kernel is the kernel of those rows, a saturated lattice. The
# projection is then a lattice isomorphism of ker d_n onto it, and the
# projected d_{n+1} has the invariant factors of d_{n+1}, 1s included.
# None of this depends on the order the pivots are taken in.
# ---------------------------------------------------------------------------

def _row_dicts(m: SparseLinearMap, drop=frozenset()) -> list[dict]:
    """The rows of m as {column: value} dicts, without the rows in drop."""
    rows: dict[int, dict] = {}
    for c, col in m._cols.items():
        for r, v in col.items():
            if r not in drop:
                row = rows.get(r)
                if row is None:
                    rows[r] = {c: v}
                else:
                    row[c] = v
    return list(rows.values())


def _strip_content(row: dict):
    """Divide the integer row by the gcd of its entries, in place."""
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
        if g == 1:
            return
    for c in row:
        row[c] //= g


def _integer_rows(rows: list[dict]) -> list[dict]:
    out = []
    for row in rows:
        den = math.lcm(*(v.denominator for v in row.values()))
        row = {c: int(v * den) for c, v in row.items()}
        _strip_content(row)
        out.append(row)
    return out


class _Elimination:
    """Sparse rows under elimination over Z (p = 0, strip False), Q (p = 0,
    strip True: integral rows, contents divided out) or F_p (p prime).

    cols holds the rows meeting each column, and bycount[n] the columns met
    by n rows (filed[c] is n), so pivot choice reads the sparsest columns
    first instead of scanning every row. A column found to hold no +-1
    entry is parked, out of its bucket, until a row update touches it."""

    def __init__(self, rows: Iterable[dict], p: int = 0, strip: bool = False):
        self.p, self.strip = p, strip
        self.rows: dict[int, dict] = dict(enumerate(rows))
        self.cols: dict[int, set[int]] = {}
        for i, row in self.rows.items():
            for c in row:
                met = self.cols.get(c)
                if met is None:
                    self.cols[c] = {i}
                else:
                    met.add(i)
        self.bycount: list[set[int]] = []
        self.filed: dict[int, int] = {}
        self.parked: set[int] = set()
        self.refile(self.cols)

    def refile(self, touched: Iterable[int]):
        """Move each touched column to the bucket of its row count; a parked
        column goes back into its bucket."""
        cols, bycount, filed = self.cols, self.bycount, self.filed
        for c in touched:
            n = len(cols[c])
            old = filed.get(c)
            if old != n:
                if old is None:
                    self.parked.discard(c)
                else:
                    bycount[old].discard(c)
                while len(bycount) <= n:
                    bycount.append(set())
                bycount[n].add(c)
                filed[c] = n

    def pivot(self, units: Optional[set] = None) -> Optional[tuple[int, int]]:
        """The shortest row and its column, in the live column meeting the
        fewest rows, whose entry is in units (any entry when units is None).
        Columns without such an entry are parked on the way."""
        rows, cols, bycount = self.rows, self.cols, self.bycount
        for n in range(1, len(bycount)):
            bucket = bycount[n]
            if not bucket:
                continue
            if units is None:
                c = next(iter(bucket))
                return min(cols[c], key=lambda i: len(rows[i])), c
            found, none = None, []
            for c in bucket:
                met = [i for i in cols[c] if rows[i][c] in units]
                if met:
                    found = min(met, key=lambda i: len(rows[i])), c
                    break
                none.append(c)
            for c in none:
                bucket.discard(c)
                del self.filed[c]
                self.parked.add(c)
            if found:
                return found
        return None

    def pop(self, i: int) -> dict:
        row = self.rows.pop(i)
        cols = self.cols
        for c in row:
            cols[c].discard(i)
        return row

    def update(self, j: int, a, b, prow: dict):
        """Row j becomes a*row_j - b*prow, in place, keeping the column sets
        current; the caller refiles prow's columns."""
        row = self.rows[j]
        p, cols = self.p, self.cols
        if a != 1:
            for c in row:
                row[c] *= a
        for c, v in prow.items():
            s = row.get(c)
            if s is None:
                row[c] = -b * v % p if p else -b * v
                cols[c].add(j)
                continue
            s -= b * v
            if p:
                s %= p
            if s:
                row[c] = s
            else:
                del row[c]
                cols[c].discard(j)
        if not row:
            del self.rows[j]
        elif self.strip:
            _strip_content(row)

    def eliminate(self, i: int, c: int):
        """Drop pivot row i and clear column c from every other row."""
        prow = self.pop(i)
        pv = prow[c]
        p = self.p
        if p and pv != 1:
            inv = pow(pv, -1, p)
            for k in prow:
                prow[k] = prow[k] * inv % p
            pv = 1
        rows = self.rows
        for j in list(self.cols[c]):
            b = rows[j][c]
            if pv == 1:
                self.update(j, 1, b, prow)
            else:
                g = math.gcd(pv, b)
                if pv < 0:
                    g = -g
                self.update(j, pv // g, b // g, prow)
        self.refile(prow)


_UNITS = {1, -1}


def _euclid_pivot(elim: _Elimination) -> int:
    """One Euclidean pivot on a matrix without unit entries. Starting from
    the least entry in absolute value of the column meeting the fewest rows,
    clear its column by row operations and its row by column operations,
    switching to any smaller remainder produced. Drops the finished pivot
    row and returns the pivot."""
    rows, cols = elim.rows, elim.cols
    pc = min(elim.parked, key=lambda c: len(cols[c]))
    pr = min(cols[pc], key=lambda i: (abs(rows[i][pc]), len(rows[i])))
    touched: set[int] = set()
    while True:
        prow = rows[pr]
        touched.update(prow)
        pv = prow[pc]
        if pv < 0:
            for c in prow:
                prow[c] = -prow[c]
            pv = -pv
        switched = False
        for r2 in list(cols[pc]):
            if r2 == pr:
                continue
            q, rem = divmod(rows[r2][pc], pv)
            if q:
                elim.update(r2, 1, q, prow)
            if rem:
                pr, switched = r2, True
                break
        if switched:
            continue
        # Column pc now meets only row pr, so each column operation just
        # reduces one entry of row pr modulo the pivot.
        for c2, v in list(prow.items()):
            if c2 == pc:
                continue
            rem = v % pv
            if rem:
                prow[c2] = rem
                pc, switched = c2, True
                break
            del prow[c2]
            cols[c2].discard(pr)
        if not switched:
            elim.pop(pr)
            elim.refile(touched)
            return pv


def _divisibility_chain(pivots: list[int]) -> list[int]:
    """Sorted invariant factors of diag(pivots), by gcd/lcm exchanges, which
    realize diag(a, b) ~ diag(gcd(a, b), lcm(a, b))."""
    changed = True
    while changed:
        changed = False
        for i in range(len(pivots)):
            for j in range(i + 1, len(pivots)):
                if pivots[j] % pivots[i]:
                    g = math.gcd(pivots[i], pivots[j])
                    pivots[i], pivots[j] = g, pivots[i] * pivots[j] // g
                    changed = True
    return sorted(pivots)


def _eliminate(m: SparseLinearMap, smith: bool, drop=frozenset()) -> tuple:
    """Eliminate m without its rows in drop. Returns the rank over the
    fraction field of m's ring (over F_p for a prime field), or with smith
    the nonzero invariant factors over Z; and the pivot columns that fix
    their kernel coordinate integrally: every pivot for a rank, the +-1
    pivots taken before the first Euclidean step for a Smith form."""
    rows = _row_dicts(m, drop)
    fixed: list[int] = []
    if smith:
        if any(v.denominator != 1 for col in m._cols.values() for v in col.values()):
            raise ExactError("Smith normal form needs integer entries")
        elim = _Elimination([{c: int(v) for c, v in row.items()} for row in rows])
        units = 0
        euclid: list[int] = []
        while elim.rows:
            piv = elim.pivot(_UNITS)
            if piv is None:
                euclid.append(_euclid_pivot(elim))
                continue
            elim.eliminate(*piv)
            units += 1
            if not euclid:
                fixed.append(piv[1])
        return [1] * units + _divisibility_chain(euclid), fixed
    if isinstance(m.ring, PrimeField):
        elim = _Elimination(rows, p=m.ring.p)
    else:
        elim = _Elimination(_integer_rows(rows), strip=True)
    while (piv := elim.pivot()) is not None:
        elim.eliminate(*piv)
        fixed.append(piv[1])
    return len(fixed), fixed


def rank(m: SparseLinearMap) -> int:
    """Rank over the fraction field of the coefficient ring."""
    return _eliminate(m, smith=False)[0]


def kernel_dimension(m: SparseLinearMap) -> int:
    return m.cols - rank(m)


def smith_normal_form(m: SparseLinearMap) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... | d_r of an integer matrix.

    Pivots are +-1 entries first: the column meeting the fewest rows that
    holds a unit, then its shortest row with a unit there. A unit pivot
    clears its column by row operations and contributes the factor 1; its
    row is dropped, since column operations would clear it without touching
    any other row. Only when no unit entry is left does a Euclidean step
    run, from the least entry in absolute value of the column meeting the
    fewest rows, switching to any smaller remainder.
    Row contents are never divided out. The non-unit pivots are normalized
    to a divisibility chain at the end via gcd/lcm exchanges, which realize
    diag(a, b) ~ diag(gcd(a,b), lcm(a,b)).
    """
    return _eliminate(m, smith=True)[0]


def is_invertible(m: SparseLinearMap) -> bool:
    """Whether m is invertible over its ring: square with every invariant
    factor 1 over Z (unimodular), square of full rank over a field."""
    if m.rows != m.cols:
        return False
    if m.ring.is_field:
        return rank(m) == m.rows
    return smith_normal_form(m) == [1] * m.rows


def _eliminate_chain(diffs: dict[int, SparseLinearMap], step: int,
                     field: Optional[Ring] = None) -> dict[int, object]:
    """Per degree n, the rank of diffs[n] over field, or its nonzero
    invariant factors over Z when field is None, for maps with
    diffs[n] o diffs[n - step] = 0 over the ring eliminated in.

    The map after diffs[n] is diffs[n - step], whose rows are the columns of
    diffs[n]; it is eliminated without the rows at the pivot columns of
    diffs[n] (see the notes that open the elimination section). So chain
    complexes (step < 0, every |step|-th degree for a hyper-boundary) run
    in ascending degree and cochain complexes (step > 0) in descending
    degree.
    """
    out: dict[int, object] = {}
    passed: dict[int, set[int]] = {}
    for n in sorted(diffs, reverse=step > 0):
        m = diffs[n] if field is None else diffs[n].with_ring(field)
        out[n], fixed = _eliminate(m, field is None, passed.pop(n + step, frozenset()))
        if n - step in diffs:
            passed[n] = set(fixed)
    return out
