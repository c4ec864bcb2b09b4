"""Pre-braidings, braid-monoid lifts, shuffle operators and Hopf-level checks.

A pre-braiding is an endomorphism of V (x) V satisfying the Yang-Baxter
equation; it need not be invertible. Once the YBE is verified, the lift of a
permutation through any reduced word is well defined, which is what makes
the shuffle (co)products and all differentials downstream unambiguous.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .exactlin import (
    ExactError,
    Ring,
    SparseLinearMap,
    tensor,
    try_inverse,
)


class UnverifiedError(RuntimeError):
    """A builder was asked to trust a braiding or character that has not
    passed its axiom check. Set allow_unverified = True on the space to
    override."""


# ---------------------------------------------------------------------------
# Permutations. Images are 1-based (a bijection of {1..n}); generator index i
# means the transposition of positions i and i+1. A word [i1, i2, ...] is
# read chronologically: the generator i1 acts first.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Permutation:
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

    def is_identity(self) -> bool:
        return all(im == i for i, im in enumerate(self.images, start=1))

    def inversions(self) -> int:
        imgs = self.images
        return sum(1 for i in range(self.n) for j in range(i + 1, self.n) if imgs[i] > imgs[j])


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

@dataclass
class YbeReport:
    ok: bool
    violation: Optional[tuple] = None  # (row, col, lhs, rhs) on V^(x)3

    def __bool__(self):
        return self.ok


@dataclass
class CharacterReport:
    name: str
    ok: bool
    violation: Optional[tuple] = None

    def __bool__(self):
        return self.ok


@dataclass
class CompatReport:
    names: tuple[str, str]
    ok: bool
    violation: Optional[tuple] = None

    def __bool__(self):
        return self.ok


@dataclass
class CoalgebraReport:
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


class PreBraidedSpace:
    """A finite-dimensional space with a pre-braiding and companion data.

    The space is immutable once populated: braiding, characters and
    comultiplication are installed at construction time (or right after by
    the structure constructors) and then only read. check_ybe and the
    character checks record verification flags that the complex builders
    consult before trusting the data; allow_unverified overrides every one
    of those gates for this space.
    """

    def __init__(self, dim: int, ring: Ring, braiding: SparseLinearMap, *,
                 grading: Optional[list[int]] = None,
                 unit_index: Optional[int] = None,
                 comultiplication: Optional[SparseLinearMap] = None,
                 payload=None):
        if braiding.rows != dim * dim or braiding.cols != dim * dim:
            raise ExactError(f"braiding must be {dim * dim}x{dim * dim}")
        if braiding.ring != ring:
            raise ExactError("braiding ring mismatch")
        if comultiplication is not None and (comultiplication.rows, comultiplication.cols) != (dim * dim, dim):
            raise ExactError(f"comultiplication must be {dim * dim}x{dim}")
        if grading is not None and len(grading) != dim:
            raise ExactError("grading must assign a degree to every basis vector")
        if unit_index is not None and not 0 <= unit_index < dim:
            raise ExactError("unit index out of range")
        self.dim = dim
        self.ring = ring
        self.braiding = braiding
        self.braiding_inverse: Optional[SparseLinearMap] = None
        self.grading = list(grading) if grading is not None else None
        self.unit_index = unit_index
        self.comultiplication = comultiplication
        self.payload = payload
        self.characters: dict[str, SparseLinearMap] = {}
        self.cocharacters: dict[str, SparseLinearMap] = {}
        self.modules: dict[str, "object"] = {}
        self.bimodules: dict[str, "object"] = {}
        self.ybe_checked = False
        self.verified_characters: set[str] = set()
        self.verified_cocharacters: set[str] = set()
        self.allow_unverified = False
        self._lift_cache: dict = {}
        self._generator_cache: dict = {}
        self._coshuffle_cache: dict = {}
        self._shuffle_cache: dict = {}
        self._boundary_cache: dict = {}

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
        if not self.ybe_checked and not self.allow_unverified:
            raise UnverifiedError(
                "braiding not YBE-verified; run check_ybe first "
                "or set allow_unverified on the space")

    def require_character(self, name: str) -> SparseLinearMap:
        eps = self.character(name)
        if name not in self.verified_characters and not self.allow_unverified:
            raise UnverifiedError(
                f"character {name!r} not verified; run check_braided_character first "
                "or set allow_unverified on the space")
        return eps

    def require_cocharacter(self, name: str) -> SparseLinearMap:
        e = self.cocharacter(name)
        if name not in self.verified_cocharacters and not self.allow_unverified:
            raise UnverifiedError(
                f"cocharacter {name!r} not verified; run check_braided_cocharacter first "
                "or set allow_unverified on the space")
        return e

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


def make_flip(d: int, ring: Ring) -> SparseLinearMap:
    """The transposition matrix v (x) w -> w (x) v on a d-dimensional space."""
    one = ring.one
    return SparseLinearMap.from_entries(
        d * d, d * d, [(b * d + a, a * d + b, one) for a in range(d) for b in range(d)], ring)


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


def _check_shuffle_args(space: PreBraidedSpace, p: int, q: int, sign: int):
    space.require_ybe()
    if p < 0 or q < 0:
        raise ExactError("shuffle indices must be nonnegative")
    if sign not in (1, -1):
        raise ExactError("sign must be +1 or -1")


def shuffle_coproduct(space: PreBraidedSpace, p: int, q: int, sign: int = 1) -> SparseLinearMap:
    """Quantum coshuffle: the sum of the inverse-permutation lifts over the
    (p,q)-shuffles, as an endomorphism matrix of V^(x)(p+q) read as
    V^p (x) V^q.

    Built one strand at a time from cached neighbours. The last strand
    either ends the right block or crosses the q strands of the right block
    to end the left one:

        D(p,0) = D(0,q) = Id,
        D(p,q) = (D(p,q-1) (x) Id_1) + (Id_(p-1) (x) L_q) o (D(p-1,q) (x) Id_1),

    where L_q lifts the permutation pulling strand q+1 of q+1 to the left.
    """
    key = (p, q, sign)
    got = space._coshuffle_cache.get(key)
    if got is None:
        _check_shuffle_args(space, p, q, sign)
        if p == 0 or q == 0:
            got = space.identity_power(p + q)
        else:
            one = space.identity_power(1)
            stay = shuffle_coproduct(space, p, q - 1, sign)
            rest = shuffle_coproduct(space, p - 1, q, sign)
            cross = braid_lift(space, moving_permutation(q + 1, q + 1, to_left=True), q + 1, sign)
            got = tensor(stay, one).add_map(
                tensor(space.identity_power(p - 1), cross).compose(tensor(rest, one)))
        space._coshuffle_cache[key] = got
    return got


def shuffle_product(space: PreBraidedSpace, p: int, q: int, sign: int = 1) -> SparseLinearMap:
    """Quantum shuffle product V^p (x) V^q -> V^(x)(p+q): the sum of the
    permutation lifts over the (p,q)-shuffles.

    Built one strand at a time from cached neighbours. The last output
    strand is either the last strand of the right block or the last strand
    of the left block, first crossed over the q strands of the right block:

        S(p,0) = S(0,q) = Id,
        S(p,q) = (S(p,q-1) (x) Id_1) + (S(p-1,q) (x) Id_1) o (Id_(p-1) (x) R_q),

    where R_q lifts the permutation pulling strand 1 of q+1 to the right.
    """
    key = (p, q, sign)
    got = space._shuffle_cache.get(key)
    if got is None:
        _check_shuffle_args(space, p, q, sign)
        if p == 0 or q == 0:
            got = space.identity_power(p + q)
        else:
            one = space.identity_power(1)
            stay = shuffle_product(space, p, q - 1, sign)
            rest = shuffle_product(space, p - 1, q, sign)
            cross = braid_lift(space, moving_permutation(1, q + 1, to_left=False), q + 1, sign)
            got = tensor(stay, one).add_map(
                tensor(rest, one).compose(tensor(space.identity_power(p - 1), cross)))
        space._shuffle_cache[key] = got
    return got


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

def check_braided_character(space: PreBraidedSpace, name: str) -> CharacterReport:
    """A covector eps is a braided character when (eps (x) eps) o sigma
    equals eps (x) eps. Success is recorded on the space."""
    eps = space.character(name)
    ee = tensor(eps, eps)
    lhs = ee.compose(space.braiding)
    if lhs == ee:
        space.verified_characters.add(name)
        return CharacterReport(name, True)
    diff = lhs.sub_map(ee)
    _, c, _ = next(diff.entries())
    return CharacterReport(name, False, (c, lhs.entry(0, c), ee.entry(0, c)))


def check_braided_cocharacter(space: PreBraidedSpace, name: str) -> CharacterReport:
    """Column version: sigma o (e (x) e) = e (x) e."""
    e = space.cocharacter(name)
    ee = tensor(e, e)
    lhs = space.braiding.compose(ee)
    if lhs == ee:
        space.verified_cocharacters.add(name)
        return CharacterReport(name, True)
    diff = lhs.sub_map(ee)
    r, _, _ = next(diff.entries())
    return CharacterReport(name, False, (r, lhs.entry(r, 0), ee.entry(r, 0)))


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


def invert_braiding(space: PreBraidedSpace) -> Optional[SparseLinearMap]:
    """Exact inverse of the braiding over the active ring (unimodular over Z),
    installed on the space when it exists."""
    inv = try_inverse(space.braiding)
    if inv is not None:
        space.braiding_inverse = inv
    return inv


# ---------------------------------------------------------------------------
# Hopf-level checks on the truncated tensor space. All statements are
# graded, so checking degree by degree up to a cap loses nothing there.
# ---------------------------------------------------------------------------

@dataclass
class HopfReport:
    ok: bool
    failures: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def check_shuffle_associativity(space: PreBraidedSpace, max_total: int = 4) -> HopfReport:
    failures = []
    for total in range(max_total + 1):
        for p in range(total + 1):
            for q in range(total - p + 1):
                r = total - p - q
                d_r = space.identity_power(r)
                d_p = space.identity_power(p)
                lhs = shuffle_product(space, p + q, r).compose(
                    tensor(shuffle_product(space, p, q), d_r))
                rhs = shuffle_product(space, p, q + r).compose(
                    tensor(d_p, shuffle_product(space, q, r)))
                if lhs != rhs:
                    failures.append(("associativity", p, q, r))
    return HopfReport(not failures, failures)


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
    crossing: sh(p,q) = sh(q,p) o crossing."""
    if space.braiding.compose(space.braiding) != space.identity_power(2):
        raise ExactError("sigma-commutativity applies to involutive braidings only")
    failures = []
    for total in range(max_total + 1):
        for p in range(total + 1):
            q = total - p
            lhs = shuffle_product(space, p, q)
            rhs = shuffle_product(space, q, p).compose(extended_braiding(space, q, p))
            if lhs != rhs:
                failures.append(("sigma-commutativity", p, q))
    return HopfReport(not failures, failures)


def check_hopf_compatibility(space: PreBraidedSpace, max_total: int = 4) -> HopfReport:
    """Deconcatenation and the shuffle product satisfy the braided bialgebra
    law, block by block on the truncated tensor space."""
    failures = []
    for p in range(max_total + 1):
        for q in range(max_total - p + 1):
            n = p + q
            # block (a, n-a) of deconcat o sh(p,q) is sh(p,q) itself
            for a in range(n + 1):
                b = n - a
                rhs = SparseLinearMap.zero(space.dim ** n, space.dim ** n, space.ring)
                for p1 in range(min(a, p) + 1):
                    q1 = a - p1
                    if q1 > q:
                        continue
                    p2, q2 = p - p1, q - q1
                    mid = tensor(space.identity_power(p1),
                                 tensor(extended_braiding(space, q1, p2),
                                        space.identity_power(q2)))
                    term = tensor(shuffle_product(space, p1, q1),
                                  shuffle_product(space, p2, q2)).compose(mid)
                    rhs = rhs.add_map(term)
                if rhs != shuffle_product(space, p, q):
                    failures.append(("hopf-compat", p, q, a))
    return HopfReport(not failures, failures)


def check_antipode_axiom(space: PreBraidedSpace, max_total: int = 4) -> HopfReport:
    """sum over p+q=n of sh(p,q) o (antipode_p (x) Id_q) is zero in positive
    degree and the identity in degree zero."""
    failures = []
    for n in range(1, max_total + 1):
        acc = SparseLinearMap.zero(space.dim ** n, space.dim ** n, space.ring)
        for p in range(n + 1):
            q = n - p
            term = shuffle_product(space, p, q).compose(
                tensor(antipode(space, p), space.identity_power(q)))
            acc = acc.add_map(term)
        if not acc.is_zero():
            failures.append(("antipode", n))
    return HopfReport(not failures, failures)
