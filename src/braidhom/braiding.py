"""Pre-braidings, braid-monoid lifts, shuffle operators and Hopf-level checks.

A pre-braiding is an endomorphism of V (x) V satisfying the Yang-Baxter
equation; it need not be invertible. Once the YBE is verified, the lift of a
permutation through any reduced word is well defined, which is what makes
the shuffle (co)products and all differentials downstream unambiguous.

The quantum coshuffle and every boundary in complexes are one recursion,
written column by column (_crossed, _step): the coshuffle's action is the
identity. Lifts, and so faces, come from generator matrices instead.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from ._record import Record
from .exactlin import (
    ExactError,
    Ring,
    SparseLinearMap,
    _axpy,
    tensor,
)


class UnverifiedError(RuntimeError):
    """A builder was asked to trust a braiding, (co)character or module
    that fails its axiom check. Set allow_unverified = True on the space to
    override."""


# ---------------------------------------------------------------------------
# Permutations. Images are 1-based (a bijection of {1..n}); generator index i
# means the transposition of positions i and i+1. A word [i1, i2, ...] is
# read chronologically: the generator i1 acts first.
# ---------------------------------------------------------------------------

class Permutation(Record, frozen=True):
    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ExactError(f"{self.images} is not a permutation of 1..{n}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def transposition(n: int, i: int) -> "Permutation":
        imgs = list(range(1, n + 1))
        imgs[i - 1], imgs[i] = imgs[i], imgs[i - 1]
        return Permutation(tuple(imgs))

    @staticmethod
    def reversal(n: int) -> "Permutation":
        return Permutation(tuple(range(n, 0, -1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        out = [0] * self.n
        for i, im in enumerate(self.images, start=1):
            out[im - 1] = i
        return Permutation(tuple(out))

    def compose(self, other: "Permutation") -> "Permutation":
        """self o other (other applied first)."""
        return Permutation(tuple(self.images[other.images[i] - 1] for i in range(self.n)))


def reduced_word(s: Permutation) -> list[int]:
    """Canonical reduced word for s, chronological (first generator acts first).

    Bubble the smallest out-of-place value leftward in the one-line word
    until sorted; each adjacent swap at position i contributes the generator
    i. The word length equals the inversion number of s.
    """
    word = list(s.images)
    out: list[int] = []
    n = len(word)
    for target in range(1, n + 1):
        pos = word.index(target)
        while pos + 1 > target:
            word[pos - 1], word[pos] = word[pos], word[pos - 1]
            out.append(pos)
            pos -= 1
    return out


def shuffle_set(p: int, q: int) -> list[Permutation]:
    """All (p,q)-shuffles: permutations of p+q letters increasing on the
    first p and on the last q positions. Ordered lexicographically by the
    image of {1..p}."""
    if p < 0 or q < 0:
        raise ExactError("shuffle indices must be nonnegative")
    n = p + q
    out = []
    for subset in itertools.combinations(range(1, n + 1), p):
        rest = [x for x in range(1, n + 1) if x not in subset]
        images = list(subset) + rest
        out.append(Permutation(tuple(images)))
    return out


def moving_permutation(i: int, n: int, to_left: bool) -> Permutation:
    """The permutation pulling the i-th strand to the leftmost (or rightmost)
    position, leaving the relative order of the others unchanged."""
    if not 1 <= i <= n:
        raise ExactError(f"strand index {i} out of 1..{n}")
    if to_left:
        images = [1 if k == i else (k + 1 if k < i else k) for k in range(1, n + 1)]
    else:
        images = [n if k == i else (k - 1 if k > i else k) for k in range(1, n + 1)]
    return Permutation(tuple(images))


def block_swap_permutation(n: int, k: int) -> Permutation:
    """Crossing a block of n strands over a block of k strands."""
    return Permutation(tuple(list(range(k + 1, k + n + 1)) + list(range(1, k + 1))))


# ---------------------------------------------------------------------------
# Check reports
# ---------------------------------------------------------------------------

class YbeReport(Record):
    ok: bool
    violation: Optional[tuple] = None  # (row, col, lhs, rhs) on V^(x)3

    def __bool__(self):
        return self.ok


class CharacterReport(Record):
    name: str
    ok: bool
    violation: Optional[tuple] = None

    def __bool__(self):
        return self.ok


class CompatReport(Record):
    names: tuple[str, str]
    ok: bool
    violation: Optional[tuple] = None

    def __bool__(self):
        return self.ok


class CoalgebraReport(Record):
    coassociative: bool
    compat_left: bool      # D_2 o sigma = sigma_1 o sigma_2 o D_1
    compat_right: bool     # D_1 o sigma = sigma_2 o sigma_1 o D_2
    cocommutative: bool    # sigma o D = D

    @property
    def classification(self) -> str:
        if self.coassociative and self.compat_left and self.compat_right:
            return "pre-braided"
        if self.coassociative and self.compat_left:
            return "semi-pre-braided"
        return "neither"


# ---------------------------------------------------------------------------
# Pre-braided space
# ---------------------------------------------------------------------------

def _declared(table: dict, name: str, kind: str):
    """table[name]; an undeclared name is an input error that lists the
    declared ones."""
    if name not in table:
        declared = ", ".join(sorted(table)) or "none"
        raise ExactError(f"unknown {kind} {name!r}; declared {kind}s: {declared}")
    return table[name]


def _origin_flag(slot: str) -> property:
    """A flag kept on the space's origin: the space itself, or for a
    transposed twin the space it transposes."""
    return property(lambda space: getattr(space._origin, slot),
                    lambda space, value: setattr(space._origin, slot, value))


class PreBraidedSpace:
    """A finite-dimensional space with a pre-braiding and companion data.

    The space is immutable once populated: braiding, characters and
    comultiplication are installed at construction time (or right after by
    the structure constructors) and then only read. Builders trust them only
    through the gates require_ybe, require_character and require_cocharacter:
    each runs its check on first use, which records a pass in ybe_checked,
    verified_characters or verified_cocharacters, and refuses a datum that
    fails it. allow_unverified opens every gate of this space unchecked.
    """

    ybe_checked = _origin_flag("_ybe_checked")
    allow_unverified = _origin_flag("_allow_unverified")

    def __init__(self, dim: int, ring: Ring, braiding: SparseLinearMap, *,
                 unit_index: Optional[int] = None,
                 comultiplication: Optional[SparseLinearMap] = None,
                 payload=None):
        if braiding.rows != dim * dim or braiding.cols != dim * dim:
            raise ExactError(f"braiding must be {dim * dim}x{dim * dim}")
        if braiding.ring != ring:
            raise ExactError("braiding ring mismatch")
        if comultiplication is not None and (comultiplication.rows, comultiplication.cols) != (dim * dim, dim):
            raise ExactError(f"comultiplication must be {dim * dim}x{dim}")
        if unit_index is not None and not 0 <= unit_index < dim:
            raise ExactError("unit index out of range")
        self.dim = dim
        self.ring = ring
        self.braiding = braiding
        self.unit_index = unit_index
        self.comultiplication = comultiplication
        self.payload = payload
        self.characters: dict[str, SparseLinearMap] = {}
        self.cocharacters: dict[str, SparseLinearMap] = {}
        self.modules: dict[str, "object"] = {}
        self.bimodules: dict[str, "object"] = {}
        self._origin = self
        self.ybe_checked = False
        self.verified_characters: set[str] = set()
        self.verified_cocharacters: set[str] = set()
        self.allow_unverified = False
        self._lift_cache: dict = {}
        self._generator_cache: dict = {}
        self._boundary_cache: dict = {}
        self._twin: Optional[PreBraidedSpace] = None

    # -- data installation ---------------------------------------------------

    def add_character(self, name: str, coords) -> SparseLinearMap:
        """Install a named covector; coords is a length-d list or a 1xd map."""
        if isinstance(coords, SparseLinearMap):
            m = coords
            if (m.rows, m.cols) != (1, self.dim):
                raise ExactError(f"character must be 1x{self.dim}")
        else:
            m = SparseLinearMap.from_entries(
                1, self.dim, [(0, j, v) for j, v in enumerate(coords)], self.ring)
        self.characters[name] = m
        self.verified_characters.discard(name)
        return m

    def add_cocharacter(self, name: str, coords) -> SparseLinearMap:
        if isinstance(coords, SparseLinearMap):
            m = coords
            if (m.rows, m.cols) != (self.dim, 1):
                raise ExactError(f"cocharacter must be {self.dim}x1")
        else:
            m = SparseLinearMap.from_entries(
                self.dim, 1, [(j, 0, v) for j, v in enumerate(coords)], self.ring)
        self.cocharacters[name] = m
        self.verified_cocharacters.discard(name)
        return m

    def character(self, name: str) -> SparseLinearMap:
        return _declared(self.characters, name, "character")

    def cocharacter(self, name: str) -> SparseLinearMap:
        return _declared(self.cocharacters, name, "cocharacter")

    def require_ybe(self):
        """The braiding's gate, by check_ybe."""
        if not self.ybe_checked and not self.allow_unverified and not check_ybe(self).ok:
            raise UnverifiedError("braiding fails the Yang-Baxter equation")

    def require_character(self, name: str) -> SparseLinearMap:
        """The character name through its gate, by check_braided_character."""
        return self._gated(self.character(name), name, "character",
                           self.verified_characters, check_braided_character)

    def require_cocharacter(self, name: str) -> SparseLinearMap:
        """The cocharacter name through its gate, by check_braided_cocharacter."""
        return self._gated(self.cocharacter(name), name, "cocharacter",
                           self.verified_cocharacters, check_braided_cocharacter)

    def _gated(self, m, name, kind, verified, check) -> SparseLinearMap:
        if name not in verified and not self.allow_unverified and not check(self, name).ok:
            raise UnverifiedError(f"{kind} {name!r} is not a braided {kind} "
                                  "(pass --allow-unverified to use it anyway)")
        return m

    # -- cached building blocks ----------------------------------------------

    def generator_matrix(self, n: int, i: int) -> SparseLinearMap:
        """The braiding applied to strands i, i+1 of n (identity elsewhere)."""
        if not 1 <= i <= n - 1:
            raise ExactError(f"generator index {i} out of 1..{n - 1}")
        key = (n, i)
        got = self._generator_cache.get(key)
        if got is None:
            d = self.dim
            left = SparseLinearMap.identity(d ** (i - 1), self.ring)
            right = SparseLinearMap.identity(d ** (n - i - 1), self.ring)
            got = tensor(left, tensor(self.braiding, right))
            self._generator_cache[key] = got
        return got

    def identity_power(self, n: int) -> SparseLinearMap:
        return SparseLinearMap.identity(self.dim ** n, self.ring)

    def transposed(self) -> "PreBraidedSpace":
        """The twin with braiding sigma^T and caches of its own, built once.
        sigma^T satisfies the YBE exactly when sigma does, so the twin reads
        and records its YBE flag and override on this space."""
        if self._twin is None:
            self._twin = PreBraidedSpace(self.dim, self.ring, self.braiding.transpose())
            self._twin._origin = self
        return self._twin


def block_flip(ring: Ring, a: int, b: int) -> SparseLinearMap:
    """The permutation matrix X (x) Y -> Y (x) X for blocks of dims a, b."""
    one = ring.one
    return SparseLinearMap.from_entries(
        a * b, a * b, [(y * a + x, x * b + y, one) for x in range(a) for y in range(b)], ring)


# ---------------------------------------------------------------------------
# YBE and lifts
# ---------------------------------------------------------------------------

def check_ybe(space: PreBraidedSpace) -> YbeReport:
    """Compare the two triple compositions of the braiding on V^(x)3 and
    record the outcome on the space. Failure reports the first differing
    entry in (row, col) order."""
    s1 = space.generator_matrix(3, 1)
    s2 = space.generator_matrix(3, 2)
    lhs = s1.compose(s2).compose(s1)
    rhs = s2.compose(s1).compose(s2)
    if lhs == rhs:
        space.ybe_checked = True
        return YbeReport(True)
    diff = lhs.sub_map(rhs)
    r, c, _ = next(diff.entries())
    return YbeReport(False, (r, c, lhs.entry(r, c), rhs.entry(r, c)))


def braid_lift(space: PreBraidedSpace, s: Permutation, n: int, sign: int = 1) -> SparseLinearMap:
    """Lift of a permutation to V^(x)n through the canonical reduced word.

    sign=-1 lifts through the negated braiding, contributing (-1)^length.
    Well defined independently of the word only when the YBE holds, hence
    the verification gate.
    """
    if s.n > n:
        raise ExactError(f"permutation of {s.n} letters does not fit in {n} strands")
    if sign not in (1, -1):
        raise ExactError("sign must be +1 or -1")
    space.require_ybe()
    key = (s.images, n, sign)
    got = space._lift_cache.get(key)
    if got is not None:
        return got
    word = reduced_word(s)
    out = space.identity_power(n)
    for i in word:
        out = space.generator_matrix(n, i).compose(out)
    if sign == -1 and len(word) % 2 == 1:
        out = out.neg()
    space._lift_cache[key] = out
    return out


# ---------------------------------------------------------------------------
# The one-strand recursion of every boundary and coshuffle, column by column
# ---------------------------------------------------------------------------

def _crossed(space: PreBraidedSpace, rho: SparseLinearMap, side: str, q: int,
             label=None, cols: Optional[list] = None) -> SparseLinearMap:
    """A_q (side 'left') or A'_q (side 'right') of complexes._pull: one
    strand crosses q strands through the negated braiding and the action
    rho: lead (x) V -> out (rho': V (x) trail -> out) eats it. The lead
    (trail) block is rho.cols // d, so Id_(d^p) is an action too, with
    A_q = Id_(d^(p-1)) (x) L_q (shuffle_coproduct). With rest = lead d^(q-1)
    (d^(q-1) trail) and m = out d^(q-1), column J d^2 + a b of A_q is the
    sum over sigma[c e, a b] of -sigma[c e, a b] times column J d + c of
    A_(q-1) with row r moved to r d + e; column a b rest + J of A'_q sums
    column e rest + J of A'_(q-1) with row r moved to c m + r. Each is
    cached beside the boundaries, under label or else the action's value:
    on the space, or in the store of the build that asks (complexes._pull).

    Given cols (side 'left'), a list of column indices, A_q holds those
    columns only, in that order, and each column is written once per cache
    (_crossed_columns)."""
    if cols is not None:
        got = _crossed_columns(space, rho, q, cols)
        return SparseLinearMap(rho.rows * space.dim ** q, rho.cols * space.dim ** q,
                               space.ring, {j: got[j] for j in cols if got.get(j)})
    if q == 0:
        return rho
    key = (rho if label is None else label, side, "crossed", q)
    got = space._boundary_cache.get(key)
    if got is None:
        d, ring = space.dim, space.ring
        p, rest, m = ring.characteristic, rho.cols // d * d ** (q - 1), rho.rows * d ** (q - 1)
        # each column a b of sigma as its entries (c, e, sigma[c e, a b])
        feeds = [(ab, [(*divmod(ce, d), s) for ce, s in col.items()])
                 for ab, col in space.braiding._cols.items()]
        below = _crossed(space, rho, side, q - 1, label)._cols
        out: dict[int, dict] = {}
        if side == "left":
            for J in range(rest):
                for ab, feed in feeds:
                    acc: dict = {}
                    for c, e, s in feed:
                        src = below.get(J * d + c)
                        if src is not None:
                            _axpy(acc, ((r * d + e, v) for r, v in src.items()), -s, p)
                    if acc:
                        out[J * d * d + ab] = acc
        else:
            for ab, feed in feeds:
                for J in range(rest):
                    acc = {}
                    for c, e, s in feed:
                        src = below.get(e * rest + J)
                        if src is not None:
                            _axpy(acc, ((c * m + r, v) for r, v in src.items()), -s, p)
                    if acc:
                        out[ab * rest + J] = acc
        got = SparseLinearMap(m * d, rest * d * d, ring, out)
        space._boundary_cache[key] = got
    return got


def _crossed_columns(space: PreBraidedSpace, rho: SparseLinearMap, q: int, cols) -> dict:
    """The columns of A_q (side 'left') that the cache holds, once it holds
    those in cols: the ones it lacks are written from the columns J d + c
    of A_(q-1) they read, which are found or written the same way. A column
    that is zero is held as an empty dict."""
    if q == 0:
        return rho._cols
    have = space._boundary_cache.setdefault((rho, "left", "columns", q), {})
    new = [j for j in cols if j not in have]
    if new:
        d, p = space.dim, space.ring.characteristic
        dd = d * d
        # each column a b of sigma as its entries (c, e, sigma[c e, a b])
        fed = {ab: [(*divmod(ce, d), s) for ce, s in col.items()]
               for ab, col in space.braiding._cols.items()}
        reads = dict.fromkeys(j // dd * d + c for j in new for c, _, _ in fed.get(j % dd, ()))
        below = _crossed_columns(space, rho, q - 1, reads)
        for j in new:
            J, ab = divmod(j, dd)
            acc: dict = {}
            for c, e, s in fed.get(ab, ()):
                src = below.get(J * d + c)
                if src:
                    _axpy(acc, ((r * d + e, v) for r, v in src.items()), -s, p)
            have[j] = acc
    return have


def _fed(d: int, cross: SparseLinearMap, inner: SparseLinearMap, side: str, sign: int,
         p: int) -> Iterator[tuple[int, dict]]:
    """The nonzero columns of sign A_q o (inner (x) Id_1) (side 'left') or
    of sign A'_q o (Id_1 (x) inner) (side 'right'), as (index, column) in
    the order compose gives them, each summed by _axpy without building the
    tensor product."""
    get = cross._cols.get
    if side == "left":
        for J, col in inner._cols.items():
            shifted = [(r * d, sign * v) for r, v in col.items()]
            for t in range(d):
                acc: dict = {}
                for rd, v in shifted:
                    src = get(rd + t)
                    if src is not None:
                        _axpy(acc, src.items(), v, p)
                if acc:
                    yield J * d + t, acc
    else:
        m, rows = inner.cols, inner.rows
        for t in range(d):
            for J, col in inner._cols.items():
                acc = {}
                for r, v in col.items():
                    src = get(t * rows + r)
                    if src is not None:
                        _axpy(acc, src.items(), sign * v, p)
                if acc:
                    yield t * m + J, acc


def _step(d: int, stay: Optional[SparseLinearMap], cross: SparseLinearMap,
          inner: Optional[SparseLinearMap], side: str, stay_sign: int,
          sign: int, cols: Optional[set] = None) -> SparseLinearMap:
    """One step of the one-strand recursion: stay (x) Id_1 + sign cross o
    (inner (x) Id_1) on the left, stay_sign Id_1 (x) stay + sign cross o
    (Id_1 (x) inner) on the right; a stay of None is absent, an inner of
    None is the identity. Column J d + t is column J of stay with row r
    moved to r d + t, plus the sum over r of inner[r, J] times column
    r d + t of cross; on the right, with m columns and m' rows in stay and
    inner, column t m + J is the mirror, with t m' + r. The columns and
    their entries come in the order tensor, compose and add_map give.
    Given cols (side 'left', no inner, a cross that holds those columns
    only), the stay term is written on those columns only."""
    p = cross.ring.characteristic
    out: dict[int, dict] = {}
    if stay is not None:
        if side == "left":
            for J, col in stay._cols.items():
                for t in range(d) if cols is None else [t for t in range(d) if J * d + t in cols]:
                    out[J * d + t] = {r * d + t: v for r, v in col.items()}
        else:
            m, rows = stay.cols, stay.rows
            for t in range(d):
                for J, col in stay._cols.items():
                    out[t * m + J] = {t * rows + r: stay_sign * v % p if p else stay_sign * v
                                      for r, v in col.items()}
    if inner is None:
        for j, col in cross._cols.items():
            if not _axpy(out.setdefault(j, {}), col.items(), sign, p):
                del out[j]
    else:
        for j, acc in _fed(d, cross, inner, side, sign, p):
            have = out.get(j)
            if have is None:
                out[j] = acc
            elif not _axpy(have, acc.items(), 1, p):
                del out[j]
    return SparseLinearMap(cross.rows, cross.cols if inner is None else inner.cols * d,
                           cross.ring, out)


def shuffle_coproduct(space: PreBraidedSpace, p: int, q: int, sign: int = 1) -> SparseLinearMap:
    """Quantum coshuffle: the sum of the inverse-permutation lifts over the
    (p,q)-shuffles, as an endomorphism matrix of V^(x)(p+q) read as
    V^p (x) V^q. The last strand either ends the right block or crosses its
    q strands to end the left one:

        D(p,0) = D(0,q) = Id,
        D(p,q) = (D(p,q-1) (x) Id_1) + s (Id_(p-1) (x) L_q) o (D(p-1,q) (x) Id_1),

    with L_q the negated lift pulling strand q+1 of q+1 to the left, and
    s = 1 for sign -1, (-1)^q for sign +1. Id_(p-1) (x) L_q is the crossing
    of the action Id_(d^p) (_crossed), so each step is a boundary's _step.
    The coshuffles and the identity crossings, keyed by size, are cached
    beside the boundaries."""
    key = ("coshuffle", p, q, sign)
    got = space._boundary_cache.get(key)
    if got is None:
        space.require_ybe()
        if p < 0 or q < 0:
            raise ExactError("shuffle indices must be nonnegative")
        if sign not in (1, -1):
            raise ExactError("sign must be +1 or -1")
        if p == 0 or q == 0:
            got = space.identity_power(p + q)
        else:
            d = space.dim
            cross = _crossed(space, space.identity_power(p), "left", q, ("identity", d ** p))
            inner = shuffle_coproduct(space, p - 1, q, sign) if p > 1 else None
            got = _step(d, shuffle_coproduct(space, p, q - 1, sign), cross, inner, "left", 1,
                        1 if sign == -1 else (-1) ** q)
        space._boundary_cache[key] = got
    return got


def shuffle_product(space: PreBraidedSpace, p: int, q: int, sign: int = 1) -> SparseLinearMap:
    """Quantum shuffle product V^p (x) V^q -> V^(x)(p+q): the sum of the
    permutation lifts over the (p,q)-shuffles, built as the transposed
    coshuffle of the transposed twin, which caches it. The coshuffle's
    crossing L_q has the word s_q...s_1, whose lift on sigma^T transposes to
    that of s_1...s_q, so the two agree even where the YBE fails."""
    return shuffle_coproduct(space.transposed(), p, q, sign).transpose()


def extended_braiding(space: PreBraidedSpace, k: int, n: int) -> SparseLinearMap:
    """The block crossing V^(x)n (x) V^(x)k -> V^(x)k (x) V^(x)n extending
    the braiding to tensor powers."""
    if k < 0 or n < 0:
        raise ExactError("block sizes must be nonnegative")
    if k + n == 0:
        return space.identity_power(0)
    return braid_lift(space, block_swap_permutation(n, k), n + k)


def antipode(space: PreBraidedSpace, n: int) -> SparseLinearMap:
    """(-1)^n times the lift of the order-reversal permutation on V^(x)n."""
    if n == 0:
        return space.identity_power(0)
    out = braid_lift(space, Permutation.reversal(n), n)
    return out.neg() if n % 2 == 1 else out


# ---------------------------------------------------------------------------
# Characters and coalgebra checks
# ---------------------------------------------------------------------------

def _check_character(braiding: SparseLinearMap, eps: SparseLinearMap, name: str,
                     verified: set) -> CharacterReport:
    """(eps (x) eps) o braiding = eps (x) eps, entrywise; success adds the
    name to verified, failure reports the first differing column."""
    ee = tensor(eps, eps)
    lhs = ee.compose(braiding)
    if lhs == ee:
        verified.add(name)
        return CharacterReport(name, True)
    _, c, _ = next(lhs.sub_map(ee).entries())
    return CharacterReport(name, False, (c, lhs.entry(0, c), ee.entry(0, c)))


def check_braided_character(space: PreBraidedSpace, name: str) -> CharacterReport:
    """A covector eps is a braided character when (eps (x) eps) o sigma
    equals eps (x) eps. Success is recorded on the space."""
    return _check_character(space.braiding, space.character(name), name,
                            space.verified_characters)


def check_braided_cocharacter(space: PreBraidedSpace, name: str) -> CharacterReport:
    """Column version, sigma o (e (x) e) = e (x) e: e^T is a braided
    character of the transposed twin. Success is recorded on the space."""
    return _check_character(space.transposed().braiding, space.cocharacter(name).transpose(),
                            name, space.verified_cocharacters)


def check_character_compat(space: PreBraidedSpace, name1: str, name2: str) -> CompatReport:
    """Both exchange identities (f (x) g) o sigma = g (x) f and
    (g (x) f) o sigma = f (x) g, entrywise on the d^2 source."""
    f = space.character(name1)
    g = space.character(name2)
    fg = tensor(f, g)
    gf = tensor(g, f)
    for lhs, rhs in ((fg.compose(space.braiding), gf), (gf.compose(space.braiding), fg)):
        if lhs != rhs:
            diff = lhs.sub_map(rhs)
            _, c, _ = next(diff.entries())
            return CompatReport((name1, name2), False, (c, lhs.entry(0, c), rhs.entry(0, c)))
    return CompatReport((name1, name2), True)


def check_braided_coalgebra(space: PreBraidedSpace) -> CoalgebraReport:
    """Coassociativity, the two braiding compatibilities and cocommutativity
    of the installed comultiplication, as four independent booleans."""
    delta = space.comultiplication
    if delta is None:
        raise ExactError("space has no comultiplication")
    d = space.dim
    ring = space.ring
    idv = SparseLinearMap.identity(d, ring)
    co1 = tensor(delta, idv).compose(delta)
    co2 = tensor(idv, delta).compose(delta)
    sigma = space.braiding
    s1 = tensor(sigma, idv)
    s2 = tensor(idv, sigma)
    d1 = tensor(delta, idv)   # comultiply strand 1 of 2
    d2 = tensor(idv, delta)   # comultiply strand 2 of 2
    compat_left = d2.compose(sigma) == s1.compose(s2).compose(d1)
    compat_right = d1.compose(sigma) == s2.compose(s1).compose(d2)
    cocomm = sigma.compose(delta) == delta
    return CoalgebraReport(co1 == co2, compat_left, compat_right, cocomm)


# ---------------------------------------------------------------------------
# Hopf-level checks on the truncated tensor space. All statements are
# graded, so checking degree by degree up to a cap loses nothing there.
# ---------------------------------------------------------------------------

class HopfReport(Record):
    ok: bool
    failures: list = []

    def __bool__(self):
        return self.ok


def check_shuffle_associativity(space: PreBraidedSpace, max_total: int = 4) -> HopfReport:
    """Associativity of the shuffle product: the transpose of
    coassociativity of the coshuffle on the transposed twin."""
    rep = check_coshuffle_coassociativity(space.transposed(), max_total)
    return HopfReport(rep.ok, [("associativity",) + f[1:] for f in rep.failures])


def check_coshuffle_coassociativity(space: PreBraidedSpace, max_total: int = 4) -> HopfReport:
    failures = []
    for total in range(max_total + 1):
        for p in range(total + 1):
            for q in range(total - p + 1):
                r = total - p - q
                lhs = tensor(shuffle_coproduct(space, p, q), space.identity_power(r)).compose(
                    shuffle_coproduct(space, p + q, r))
                rhs = tensor(space.identity_power(p), shuffle_coproduct(space, q, r)).compose(
                    shuffle_coproduct(space, p, q + r))
                if lhs != rhs:
                    failures.append(("coassociativity", p, q, r))
    return HopfReport(not failures, failures)


def check_sigma_commutativity(space: PreBraidedSpace, max_total: int = 4) -> HopfReport:
    """For involutive braidings the shuffle product absorbs the block
    crossing: sh(p,q) = sh(q,p) o crossing. Checked transposed: sh(p,q)^T is
    the coshuffle D(p,q) of the transposed twin, so the law reads
    D(p,q) = crossing^T o D(q,p)."""
    if space.braiding.compose(space.braiding) != space.identity_power(2):
        raise ExactError("sigma-commutativity applies to involutive braidings only")
    twin = space.transposed()
    failures = []
    for total in range(max_total + 1):
        for p in range(total + 1):
            q = total - p
            lhs = shuffle_coproduct(twin, p, q)
            rhs = extended_braiding(space, q, p).transpose().compose(shuffle_coproduct(twin, q, p))
            if lhs != rhs:
                failures.append(("sigma-commutativity", p, q))
    return HopfReport(not failures, failures)


def check_hopf_compatibility(space: PreBraidedSpace, max_total: int = 4) -> HopfReport:
    """Deconcatenation and the shuffle product satisfy the braided bialgebra
    law, block by block on the truncated tensor space. Each block is checked
    transposed, with the coshuffles D of the transposed twin in place of the
    transposed shuffle products, so that only the crossings are transposed."""
    twin = space.transposed()
    failures = []
    for p in range(max_total + 1):
        for q in range(max_total - p + 1):
            n = p + q
            # block (a, n-a) of deconcat o sh(p,q) is sh(p,q) itself
            for a in range(n + 1):
                rhs = SparseLinearMap.zero(space.dim ** n, space.dim ** n, space.ring)
                for p1 in range(min(a, p) + 1):
                    q1 = a - p1
                    if q1 > q:
                        continue
                    p2, q2 = p - p1, q - q1
                    mid = tensor(space.identity_power(p1),
                                 tensor(extended_braiding(space, q1, p2).transpose(),
                                        space.identity_power(q2)))
                    term = mid.compose(tensor(shuffle_coproduct(twin, p1, q1),
                                              shuffle_coproduct(twin, p2, q2)))
                    rhs = rhs.add_map(term)
                if rhs != shuffle_coproduct(twin, p, q):
                    failures.append(("hopf-compat", p, q, a))
    return HopfReport(not failures, failures)


def check_antipode_axiom(space: PreBraidedSpace, max_total: int = 4) -> HopfReport:
    """sum over p+q=n of sh(p,q) o (antipode_p (x) Id_q) is zero in positive
    degree and the identity in degree zero. Checked transposed, as the sum
    of (antipode_p^T (x) Id_q) o D(p,q) over the coshuffles D of the
    transposed twin."""
    twin = space.transposed()
    failures = []
    for n in range(max_total + 1):
        acc = SparseLinearMap.zero(space.dim ** n, space.dim ** n, space.ring)
        for p in range(n + 1):
            q = n - p
            term = tensor(antipode(space, p).transpose(), space.identity_power(q)).compose(
                shuffle_coproduct(twin, p, q))
            acc = acc.add_map(term)
        if n == 0:
            acc = acc.sub_map(space.identity_power(0))
        if not acc.is_zero():
            failures.append(("antipode", n))
    return HopfReport(not failures, failures)
