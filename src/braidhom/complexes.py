"""Builders of braided differentials, faces, degeneracies, hyper-boundaries,
homotopies, coefficient differentials and the classical named complexes.

All maps are plain sparse matrices between tensor-power index spaces. Every
boundary is one formula (_pull): the negated quantum coshuffle pulls k
strands to one end, where a braided module action (a character, or a
coefficient module) eats them one at a time. No coshuffle or braid lift is
built for a boundary: the coshuffle's one-strand recursion, carried through
the action by the interchange law, gives each boundary from two smaller
ones, and the strand that crosses q others takes one crossing of the
negated braiding at a time (_pull states the formulas). Each map is written
column by column by the braiding module's _step and _crossed, the
recursion the coshuffle itself is built by, with the identity as its
action. The co-side has no formula of its own: each degree +1 map is the
transpose of a boundary of the transposed coaction on the space's
transposed twin (PreBraidedSpace.transposed, braiding sigma^T).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from ._record import Record
from .exactlin import ExactError, SparseLinearMap, digits_of, flat_index, tensor
from .braiding import (
    PreBraidedSpace,
    UnverifiedError,
    _crossed,
    _step,
    block_flip,
    braid_lift,
    extended_braiding,
    moving_permutation,
)
from . import homology
from .homology import ChainComplex, build_chain_complex, subquotient
from . import structures as st


# ---------------------------------------------------------------------------
# The one boundary formula
# ---------------------------------------------------------------------------

def _around(lead: int, m: SparseLinearMap, trail: int) -> SparseLinearMap:
    """Id_lead (x) m (x) Id_trail; an identity block of dimension 1 costs no
    tensor call."""
    if trail != 1:
        m = tensor(m, SparseLinearMap.identity(trail, m.ring))
    if lead != 1:
        m = tensor(SparseLinearMap.identity(lead, m.ring), m)
    return m


def _pull(space: PreBraidedSpace, action: SparseLinearMap, k: int, n: int, side: str, *,
          lead: int = 1, trail: int = 1, cols: Optional[list] = None) -> SparseLinearMap:
    """The degree -k boundary on lead (x) V^(x)n (x) trail. On the left it is

        (rho_k (x) Id_(n-k) (x) Id_trail) o (Id_lead (x) Delta_(k,n-k) (x) Id_trail),
        rho_0 = Id_lead,  rho_k = rho o (rho_(k-1) (x) Id_1),

    where Delta is the coshuffle of the negated braiding: it pulls k strands
    to the front and the one-strand action rho: lead (x) V -> lead eats them.
    On the right it is the mirror, for an action rho': V (x) trail -> trail,
    times s(k,n) = (-1)^(kn - k(k+1)/2):

        s(k,n) (Id_lead (x) Id_(n-k) (x) rho'_k) o (Id_lead (x) Delta_(n-k,k) (x) Id_trail),
        rho'_0 = Id_trail,  rho'_k = rho' o (Id_1 (x) rho'_(k-1)).

    No coshuffle is built. With q = n - k, the last strand of Delta_(k,q)
    either ends the right block or crosses its q strands to end the left one
    (shuffle_coproduct). Feeding this to rho_k and moving rho_(k-1) past the
    crossing by the interchange law (f (x) Id) o (Id (x) g) =
    (Id (x) g) o (f (x) Id) gives the boundary on lead (x) V^(x)n from two
    smaller ones, and on V^(x)n (x) trail its first-strand mirror, which
    carries the sign as s(k,n) = (-1)^k s(k,n-1) = (-1)^(n-1) s(k-1,n-1):

        H(0,n) = Id,  H(k,n) = H(k,n-1) (x) Id_1 + A_q o (H(k-1,n-1) (x) Id_1),
        H'(0,n) = Id, H'(k,n) = (-1)^k Id_1 (x) H'(k,n-1)
                                + (-1)^(n-1) A'_q o (Id_1 (x) H'(k-1,n-1)),

    where the first term is absent when q = 0, and A_q (A'_q) crosses the
    end strand over the q beside it, one negated braiding at a time, and
    feeds it to the action:

        A_0 = rho,   A_q = (A_(q-1) (x) Id_1) o (Id_(lead d^(q-1)) (x) -sigma),
        A'_0 = rho', A'_q = (Id_1 (x) A'_(q-1)) o (-sigma (x) Id_(d^(q-1) trail)).

    The crossings of A_q (A'_q) are those of the canonical reduced word
    s_1...s_q (s_q...s_1), the only reduced word of its permutation, so A_q
    is the same matrix with or without the YBE. H' peels the first strand
    where shuffle_coproduct peels the last, so the two give a shuffle
    different reduced words. Each block keeps its order, so a shuffle moves
    no three strands into reverse order: it is fully commutative
    (Billey-Jockusch-Stanley), and any two of its reduced words differ by
    commutations s_i s_j = s_j s_i, |i - j| > 1, which hold for every
    braiding by the interchange law. So H and H' equal the formula even
    where the YBE fails (a space whose allow_unverified overrides the
    gate). Each H, H', A_q and A'_q is written column by column (_pulled by
    _step, _crossed) and cached, keyed by the action's value, so a character
    replaced under the same name gets boundaries of its own; _around adds
    the block a side does not touch. A direct call caches them on the
    space, where later calls reuse them. A named complex's build caches
    them in a store of its own (_Build), which drops each piece as soon as
    no later degree of the build reads it, so none outlives the build.

    cols, a list of column indices, asks for those columns only (a
    restricted complex keeps its span's columns). On the left with k = 1,
    the one case they are honoured, the recursion writes the columns asked
    for and the crossing columns they read and leaves every other column
    zero; any other k or side builds in full.
    """
    if side not in ("left", "right"):
        raise ExactError("side must be 'left' or 'right'")
    space.require_ybe()
    h = _pulled(space, action, side, k, n, cols if side == "left" and k == 1 else None)
    if isinstance(space, _Build):
        space.drop(side, k, n)
    return _around(1, h, trail) if side == "left" else _around(lead, h, 1)


def _pulled(space: PreBraidedSpace, rho: SparseLinearMap, side: str, k: int,
            n: int, cols: Optional[list] = None) -> SparseLinearMap:
    """H(k,n) of _pull (side 'left'), or H'(k,n) with its sign (side
    'right'), from the cache (_pull says whose) or by one _step of the
    recursion: stay H(k,n-1), crossing A_q, inner H(k-1,n-1), the identity
    at k = 1.

    Given cols (left, k = 1), H(1,n) holds those columns only, written by
    one _step from the columns J of H(1,n-1) whose J d + t they hold and the
    same columns of A_(n-1) (_crossed), and cached under the columns asked
    for. A product span, such as the unit-free tensors, asks H(1,n-1) for
    exactly the columns the degree below was built on, so each H(1,n) is
    written once per cache."""
    key = (rho, side, k if cols is None else tuple(cols), n)
    got = space._boundary_cache.get(key)
    if got is None:
        d = space.dim
        if k == 0:
            got = SparseLinearMap.identity(rho.rows * d ** n, space.ring)
        else:
            below = None if cols is None else list(dict.fromkeys(j // d for j in cols))
            cross = _crossed(space, rho, side, n - k, cols=cols)
            stay = _pulled(space, rho, side, k, n - 1, below) if k < n else None
            inner = _pulled(space, rho, side, k - 1, n - 1) if k > 1 else None
            got = _step(d, stay, cross, inner, side, (-1) ** k,
                        1 if side == "left" else (-1) ** (n - 1),
                        None if cols is None else set(cols))
        space._boundary_cache[key] = got
    return got


class _Build:
    """A space as one build of a named complex sees it: every attribute is
    the space's but the cache that _pulled and _crossed write to, which is
    the build's own store, shared with the build's view of the transposed
    twin. The build writes its boundaries degree by degree up to top, and
    _pull calls drop after each, so no piece outlives the build and most
    are freed as soon as no later degree reads them."""

    def __init__(self, space: PreBraidedSpace, top: int, store: Optional[dict] = None):
        self._space, self.top = space, top
        self._boundary_cache = {} if store is None else store

    def __getattr__(self, name):
        return getattr(self._space, name)

    def transposed(self) -> "_Build":
        return _Build(self._space.transposed(), self.top, self._boundary_cache)

    def drop(self, side: str, k: int, n: int) -> None:
        """The side's boundary of order k out of degree n is written: drop
        the side's pieces that no later degree reads, or all of them at the
        top degree. Degree n + 1 reads H(j,m) for m >= n + 1 - k and the
        crossings A_q for q >= n - k. A restricted build's crossing columns
        (cols) are kept to the top: each degree also writes columns of
        lower crossings that its span did not ask for, and the columns are
        few (on sl2 Leibniz to degree 6, dropping them a degree at a time
        lowered the traced peak by 1%)."""
        store = self._boundary_cache
        for key in [key for key in store if key[1] == side and (n >= self.top or (
                key[2] != "columns" and key[3] + (key[2] == "crossed") < n + 1 - k))]:
            del store[key]


# ---------------------------------------------------------------------------
# Differentials from characters
# ---------------------------------------------------------------------------

def left_diff(space: PreBraidedSpace, char: str, n: int) -> SparseLinearMap:
    """Character on strand 1 composed with the degree-(1, n-1) part of the
    negated-braiding coshuffle: a map V^(x)n -> V^(x)(n-1)."""
    if n < 1:
        raise ExactError("left differential needs degree >= 1")
    eps = space.require_character(char)
    return _pull(space, eps, 1, n, "left")


def right_diff(space: PreBraidedSpace, char: str, n: int) -> SparseLinearMap:
    """Mirror differential: character on the last strand, coshuffle degree
    (n-1, 1), global sign (-1)^(n-1)."""
    if n < 1:
        raise ExactError("right differential needs degree >= 1")
    zeta = space.require_character(char)
    return _pull(space, zeta, 1, n, "right")


def combined_diff(space: PreBraidedSpace, left_char: str, right_char: str,
                  n: int) -> SparseLinearMap:
    """left - right; a differential for any two braided characters. It is
    built from the two public builders, so a traced run counts all three."""
    return left_diff(space, left_char, n).sub_map(right_diff(space, right_char, n))


def face(space: PreBraidedSpace, char: str, n: int, i: int, side: str = "left") -> SparseLinearMap:
    """The i-th face map: pull strand i to the boundary (leftmost for the
    left family, rightmost for the right one) and evaluate the character."""
    if not 1 <= i <= n:
        raise ExactError(f"face index {i} out of 1..{n}")
    eps = space.require_character(char)
    if side not in ("left", "right"):
        raise ExactError("side must be 'left' or 'right'")
    lift = braid_lift(space, moving_permutation(i, n, to_left=side == "left"), n)
    rest = space.dim ** (n - 1)
    feed = _around(1, eps, rest) if side == "left" else _around(rest, eps, 1)
    return feed.compose(lift)


def degeneracy(space: PreBraidedSpace, n: int, i: int) -> SparseLinearMap:
    """Comultiplication applied to strand i: V^(x)n -> V^(x)(n+1)."""
    if space.comultiplication is None:
        raise ExactError("space has no comultiplication")
    if not 1 <= i <= n:
        raise ExactError(f"degeneracy index {i} out of 1..{n}")
    d = space.dim
    return _around(d ** (i - 1), space.comultiplication, d ** (n - i))


def face_sum(space: PreBraidedSpace, char: str, n: int, side: str = "left") -> SparseLinearMap:
    """Alternating sum of faces; equals the corresponding differential."""
    out = SparseLinearMap.zero(space.dim ** (n - 1), space.dim ** n, space.ring)
    for i in range(1, n + 1):
        f = face(space, char, n, i, side)
        out = out.sub_map(f) if (i - 1) % 2 == 1 else out.add_map(f)
    return out


# ---------------------------------------------------------------------------
# Hyper-boundaries
# ---------------------------------------------------------------------------

def signed_binomial(m: int, k: int) -> int:
    """0 when m*k is odd, else binom(floor((m+k)/2), floor(k/2)). Governs
    compositions of hyper-boundaries."""
    if m < 0 or k < 0:
        raise ExactError("signed binomial needs nonnegative arguments")
    if (m * k) % 2 == 1:
        return 0
    return math.comb((m + k) // 2, k // 2)


def hyper_boundary(space: PreBraidedSpace, char: str, k: int, n: int,
                   side: str = "left") -> SparseLinearMap:
    """Degree -k boundary: evaluate the character on k strands pulled to the
    boundary through the negated braiding. k=1 recovers the differentials;
    k=0 is the identity."""
    if not 0 <= k <= n:
        raise ExactError(f"hyper order {k} out of 0..{n}")
    eps = space.require_character(char)
    return _pull(space, eps, k, n, side)


# ---------------------------------------------------------------------------
# Element operations: crossing actions, concatenation homotopies, naturality
# ---------------------------------------------------------------------------

def _as_column(space: PreBraidedSpace, w) -> SparseLinearMap:
    if isinstance(w, SparseLinearMap):
        if (w.rows, w.cols) != (space.dim, 1):
            raise ExactError(f"element must be a {space.dim}x1 column")
        return w
    return SparseLinearMap.from_entries(
        space.dim, 1, [(j, 0, v) for j, v in enumerate(w)], space.ring)


def adjoint_action(space: PreBraidedSpace, char: str, n: int) -> SparseLinearMap:
    """The action V^(x)n (x) V -> V^(x)n crossing the last factor over all
    strands and evaluating the character on it."""
    eps = space.require_character(char)
    ext = extended_braiding(space, 1, n)
    return tensor(eps, space.identity_power(n)).compose(ext)


def crossing_action(space: PreBraidedSpace, char: str, w, n: int) -> SparseLinearMap:
    """The endomorphism of V^(x)n obtained by feeding the fixed element w to
    the adjoint action. Diagonal translation for shelves, peripheral
    multiplication for algebras, adjoint action for brackets."""
    col = _as_column(space, w)
    act = adjoint_action(space, char, n)
    return act.compose(tensor(space.identity_power(n), col))


def concat_homotopy(space: PreBraidedSpace, w, n: int) -> SparseLinearMap:
    """v -> (-1)^n v (x) w, the candidate contracting homotopy."""
    col = _as_column(space, w)
    out = tensor(space.identity_power(n), col)
    return out.neg() if n % 2 == 1 else out


def rack_contraction(space: PreBraidedSpace, b: int, n: int) -> SparseLinearMap:
    """Contracting homotopy for the left shelf complex when right
    translation by b is bijective: undo the diagonal translation, then
    append b with the alternating sign."""
    t = space.payload
    if not isinstance(t, st.ShelfTable):
        raise ExactError("rack contraction needs a shelf payload")
    m = t.size
    back = [0] * m
    seen = set()
    for a in range(m):
        back[t.op(a, b)] = a
        seen.add(t.op(a, b))
    if len(seen) != m:
        raise ExactError(f"right translation by {b} is not bijective")
    sign = -1 if n % 2 == 1 else 1
    dims = [m] * n
    entries = [(flat_index([back[a] for a in digits_of(x, dims)], dims) * m + b, x, sign)
               for x in range(m ** n)]
    return SparseLinearMap.from_entries(m ** (n + 1), m ** n, entries, space.ring)


class NaturalityReport(Record):
    left: bool          # sigma(w (x) v) = v (x) w for all v
    right: bool         # sigma(v (x) w) = w (x) v for all v
    char_compat: dict   # per character: (Id (x) psi) o sigma o (. (x) w) = psi(.) w

    @property
    def classification(self) -> str:
        if self.left and self.right:
            return "natural"
        if self.left:
            return "semi-natural"
        if self.right:
            return "demi-natural"
        return "none"


def check_naturality(space: PreBraidedSpace, w) -> NaturalityReport:
    col = _as_column(space, w)
    idv = SparseLinearMap.identity(space.dim, space.ring)
    left = space.braiding.compose(tensor(col, idv)) == tensor(idv, col)
    right = space.braiding.compose(tensor(idv, col)) == tensor(col, idv)
    compat = {}
    for name, psi in space.characters.items():
        lhs = tensor(idv, psi).compose(space.braiding).compose(tensor(idv, col))
        compat[name] = lhs == col.compose(psi)
    return NaturalityReport(left, right, compat)


# ---------------------------------------------------------------------------
# Braided modules and differentials with coefficients
# ---------------------------------------------------------------------------

class BraidedModule(Record):
    """A space with a braided action. side='right' means rho: M (x) V -> M,
    side='left' means lam: V (x) M -> M. verified is None until
    check_braided_module runs, then its result."""
    dim: int
    action: SparseLinearMap
    side: str = "right"
    name: str = ""
    verified: Optional[bool] = None

    def __post_init__(self):
        if self.side not in ("right", "left"):
            raise ExactError("module side must be 'right' or 'left'")


class Bimodule(Record):
    """verified is None until check_bimodule runs, then its result."""
    dim: int
    right_action: SparseLinearMap   # M (x) V -> M
    left_action: SparseLinearMap    # V (x) M -> M
    name: str = ""
    verified: Optional[bool] = None


class ModuleReport(Record):
    ok: bool
    braided_ok: bool
    compat_ok: Optional[bool] = None      # bimodules only
    classical_ok: Optional[bool] = None   # structural cross-check
    normalized: Optional[bool] = None

    def __bool__(self):
        return self.ok


def trivial_module(space: PreBraidedSpace, side: str = "right") -> BraidedModule:
    action = SparseLinearMap.zero(1, space.dim, space.ring)
    return BraidedModule(1, action, side, name="trivial", verified=True)


def _module_axiom(space: PreBraidedSpace, action: SparseLinearMap, dim: int,
                  side: str) -> bool:
    """The braided module axiom rho o (rho (x) Id) = rho o (rho (x) Id) o
    (Id_M (x) sigma) for a right action on M (x) V (x) V, or its mirror
    lam o (Id (x) lam) = lam o (Id (x) lam) o (sigma (x) Id_M) for a left one."""
    idv = SparseLinearMap.identity(space.dim, space.ring)
    idm = SparseLinearMap.identity(dim, space.ring)
    if side == "right":
        lhs = action.compose(tensor(action, idv))
        return lhs == lhs.compose(tensor(idm, space.braiding))
    lhs = action.compose(tensor(idv, action))
    return lhs == lhs.compose(tensor(space.braiding, idm))


def _classical_module_check(space: PreBraidedSpace, M: BraidedModule) -> Optional[bool]:
    """The classical module axiom of a unital associative or Leibniz payload,
    for a normalized right action; None for any other payload or side. (A
    shelf space has no unit, and its classical axiom is the braided one.)"""
    payload = space.payload
    if M.side != "right" or not isinstance(payload, st.AlgebraData) \
            or payload.kind not in ("associative", "leibniz"):
        return None
    rho = M.action
    idv = SparseLinearMap.identity(space.dim, space.ring)
    idm = SparseLinearMap.identity(M.dim, space.ring)
    two_step = rho.compose(tensor(rho, idv))
    one_step = rho.compose(tensor(idm, payload.operation))
    if payload.kind == "associative":
        return two_step == one_step
    flip = block_flip(space.ring, space.dim, space.dim)
    return two_step == two_step.compose(tensor(idm, flip)).add_map(one_step)


def check_braided_module(space: PreBraidedSpace, M: BraidedModule) -> ModuleReport:
    """Entrywise verification of the braided module axiom on M(x)V(x)V (or
    its left mirror), with the classical axiom cross-checked for normalized
    right actions over unital associative and Leibniz payloads."""
    braided_ok = _module_axiom(space, M.action, M.dim, M.side)
    normalized = None
    if space.unit_index is not None:
        u = SparseLinearMap.from_entries(space.dim, 1, [(space.unit_index, 0, space.ring.one)],
                                         space.ring)
        insert = _around(M.dim, u, 1) if M.side == "right" else _around(1, u, M.dim)
        normalized = M.action.compose(insert) == SparseLinearMap.identity(M.dim, space.ring)
    classical_ok = _classical_module_check(space, M) if normalized else None
    M.verified = braided_ok
    return ModuleReport(braided_ok, braided_ok, None, classical_ok, normalized)


def check_bimodule(space: PreBraidedSpace, B: Bimodule) -> ModuleReport:
    r_ok = _module_axiom(space, B.right_action, B.dim, "right")
    l_ok = _module_axiom(space, B.left_action, B.dim, "left")
    idv = SparseLinearMap.identity(space.dim, space.ring)
    compat = (B.right_action.compose(tensor(B.left_action, idv))
              == B.left_action.compose(tensor(idv, B.right_action)))
    ok = r_ok and l_ok and compat
    B.verified = ok
    return ModuleReport(ok, r_ok and l_ok, compat)


def adjoint_module(space: PreBraidedSpace, char: str, n: int) -> BraidedModule:
    """V^(x)n as a right braided module through the crossing action."""
    act = adjoint_action(space, char, n)
    M = BraidedModule(space.dim ** n, act, "right", name=f"adjoint:{char}:{n}")
    rep = check_braided_module(space, M)
    if not rep.braided_ok:
        raise ExactError("adjoint action failed the braided module axiom")
    return M


def regular_bimodule(space: PreBraidedSpace) -> Bimodule:
    """A unital associative payload acting on itself on both sides."""
    payload = space.payload
    if not (isinstance(payload, st.AlgebraData) and payload.kind == "associative"):
        raise ExactError("regular bimodule needs an associative payload")
    mu = payload.operation
    return Bimodule(space.dim, mu, mu, name="regular")


def coeff_diff(space: PreBraidedSpace, M: Optional[BraidedModule],
               N: Optional[BraidedModule], n: int, side: str = "left") -> SparseLinearMap:
    """Differential on M (x) V^(x)n (x) N. The left one feeds the first
    strand to the right action of M, the right one feeds the last strand to
    the left action of N (sign (-1)^(n-1)). A missing module is the trivial
    rank-one module with zero action."""
    if M is None:
        M = trivial_module(space, "right")
    if N is None:
        N = trivial_module(space, "left")
    if M.side != "right" or N.side != "left":
        raise ExactError("coefficients need a right module M and a left module N")
    _require_module(space, M)
    _require_module(space, N)
    return _pull(space, M.action if side == "left" else N.action, 1, n, side,
                 lead=M.dim, trail=N.dim)


def bimodule_diff(space: PreBraidedSpace, B: Bimodule,
                  n: int) -> tuple[SparseLinearMap, SparseLinearMap]:
    """The two differentials on M (x) V^(x)n for a bimodule: the right
    action eats the strand pulled leftmost; the left action eats the strand
    pulled rightmost after cycling M around (the ambient symmetry is the
    plain block flip)."""
    _require_module(space, B)
    m = B.dim
    left = _pull(space, B.right_action, 1, n, "left")
    mid = _pull(space, B.left_action, 1, n, "right")
    fwd = block_flip(space.ring, m, space.dim ** n)
    back = block_flip(space.ring, space.dim ** (n - 1), m)
    return left, back.compose(mid).compose(fwd)


# ---------------------------------------------------------------------------
# Co-differentials (degree +1) from cocharacters and comodules
# ---------------------------------------------------------------------------

def left_codiff(space: PreBraidedSpace, cochar: str, n: int) -> SparseLinearMap:
    """Insert the cocharacter in front and shuffle it in, V^(x)n -> V^(x)(n+1):
    the transposed left differential of e^T on the transposed twin, whose
    YBE gate reads this space's flag."""
    e = space.require_cocharacter(cochar)
    return _pull(space.transposed(), e.transpose(), 1, n + 1, "left").transpose()


def right_codiff(space: PreBraidedSpace, cochar: str, n: int) -> SparseLinearMap:
    """Mirror: insert at the end, shuffle, sign (-1)^n."""
    e = space.require_cocharacter(cochar)
    return _pull(space.transposed(), e.transpose(), 1, n + 1, "right").transpose()


class Bicomodule(Record):
    """Coactions rho: M -> M (x) V and lam: M -> V (x) M. verified is None
    until check_bicomodule runs, then its result."""
    dim: int
    right_coaction: SparseLinearMap
    left_coaction: SparseLinearMap
    name: str = ""
    verified: Optional[bool] = None


def _transposed_bimodule(B: Bicomodule) -> Bimodule:
    """The transposed coactions, as actions on the transposed twin."""
    return Bimodule(B.dim, B.right_coaction.transpose(), B.left_coaction.transpose(), B.name,
                    B.verified)


def check_bicomodule(space: PreBraidedSpace, B: Bicomodule) -> ModuleReport:
    """The bimodule axioms of the transposed coactions on the twin."""
    rep = check_bimodule(space.transposed(), _transposed_bimodule(B))
    B.verified = rep.ok
    return rep


def bicomodule_codiff(space: PreBraidedSpace, B: Bicomodule,
                      n: int) -> tuple[SparseLinearMap, SparseLinearMap]:
    """Degree +1 pair on M (x) V^(x)n: the transposes of the bimodule
    differentials of the transposed coactions on the transposed twin, whose
    two block flips trade places under transposition."""
    _require_module(space, B)
    left, right = bimodule_diff(space.transposed(), _transposed_bimodule(B), n + 1)
    return left.transpose(), right.transpose()


def _require_module(space: PreBraidedSpace, X) -> None:
    """The gate of a module, bimodule or bicomodule, as PreBraidedSpace's:
    its check runs on first use, records X.verified, and refuses a failure."""
    check, kind, axioms = {
        BraidedModule: (check_braided_module, "module", "the braided module axiom"),
        Bimodule: (check_bimodule, "bimodule", "the bimodule axioms"),
        Bicomodule: (check_bicomodule, "bicomodule", "the bicomodule axioms"),
    }[type(X)]
    if not X.verified and not space.allow_unverified and not check(space, X).ok:
        raise UnverifiedError(f"{kind} {X.name!r} fails {axioms} "
                              "(pass --allow-unverified to use it anyway)")


def coalgebra_self_bicomodule(space: PreBraidedSpace) -> Bicomodule:
    """A counital coalgebra payload coacting on itself on both sides."""
    payload = space.payload
    if not (isinstance(payload, st.AlgebraData) and payload.kind == "coalgebra"):
        raise ExactError("self bicomodule needs a coalgebra payload")
    delta = payload.operation
    return Bicomodule(space.dim, delta, delta, name="self")


# ---------------------------------------------------------------------------
# Simplicial structure checks
# ---------------------------------------------------------------------------

class SimplicialReport(Record):
    left_level: str
    right_level: str
    pre_bisimplicial: bool
    bisimplicial_level: str
    failures: list = []


_LEVELS = ["none", "presimplicial", "very weakly simplicial",
           "weakly simplicial", "simplicial"]


def _face_family(space, char, side, n_max):
    return {(n, i): face(space, char, n, i, side)
            for n in range(1, n_max + 1) for i in range(1, n + 1)}


def _presimplicial(da, db, n_max, failures, tag, rel="dd"):
    """d_i d'_j = d'_(j-1) d_i for i < j, with d from the face family da and d'
    from db: one family twice for the plain identities, both for the mixed."""
    ok = True
    for n in range(2, n_max + 1):
        for j in range(2, n + 1):
            for i in range(1, j):
                if da[(n - 1, i)].compose(db[(n, j)]) != db[(n - 1, j - 1)].compose(da[(n, i)]):
                    failures.append((tag, rel, n, i, j))
                    ok = False
    return ok


def _degeneracy_level(space, dmaps, smaps, n_max, failures, tag):
    """Climb the ladder: very weak (ss, ds disjoint), weak (ds equal),
    simplicial (ds identity)."""
    very = True
    for n in range(1, n_max - 1):
        for j in range(1, n + 1):
            for i in range(1, j + 1):
                if smaps[(n + 1, i)].compose(smaps[(n, j)]) != \
                        smaps[(n + 1, j + 1)].compose(smaps[(n, i)]):
                    failures.append((tag, "ss", n, i, j))
                    very = False
    for n in range(1, n_max):
        for j in range(1, n + 1):
            for i in range(1, j):
                if dmaps[(n + 1, i)].compose(smaps[(n, j)]) != \
                        smaps[(n - 1, j - 1)].compose(dmaps[(n, i)]):
                    failures.append((tag, "ds<", n, i, j))
                    very = False
            for i in range(j + 2, n + 2):
                if dmaps[(n + 1, i)].compose(smaps[(n, j)]) != \
                        smaps[(n - 1, j)].compose(dmaps[(n, i - 1)]):
                    failures.append((tag, "ds>", n, i, j))
                    very = False
    if not very:
        return "presimplicial"
    weak = True
    ident = True
    idn = {n: space.identity_power(n) for n in range(1, n_max)}
    for n in range(1, n_max):
        for i in range(1, n + 1):
            di_si = dmaps[(n + 1, i)].compose(smaps[(n, i)])
            if di_si != dmaps[(n + 1, i + 1)].compose(smaps[(n, i)]):
                failures.append((tag, "dsi", n, i))
                weak = False
            if di_si != idn[n]:
                ident = False
    if not weak:
        return "very weakly simplicial"
    return "simplicial" if ident else "weakly simplicial"


def check_simplicial(space: PreBraidedSpace, left_char: str, right_char: str,
                     n_max: int = 5) -> SimplicialReport:
    """Verify the face/degeneracy identities up to n_max and report the
    achieved level for the left and right families and their mixture."""
    failures: list = []
    dl = _face_family(space, left_char, "left", n_max)
    dr = _face_family(space, right_char, "right", n_max)
    left_pre = _presimplicial(dl, dl, n_max, failures, "left")
    right_pre = _presimplicial(dr, dr, n_max, failures, "right")
    mixed = _presimplicial(dl, dr, n_max, failures, "mixed", "dd'")
    mixed &= _presimplicial(dr, dl, n_max, failures, "mixed", "d'd")
    left_level = "presimplicial" if left_pre else "none"
    right_level = "presimplicial" if right_pre else "none"
    if space.comultiplication is not None:
        smaps = {(n, i): degeneracy(space, n, i)
                 for n in range(1, n_max) for i in range(1, n + 1)}
        if left_pre:
            left_level = _degeneracy_level(space, dl, smaps, n_max, failures, "left")
        if right_pre:
            right_level = _degeneracy_level(space, dr, smaps, n_max, failures, "right")
    pre_bi = left_pre and right_pre and mixed
    if not pre_bi:
        bi = "none"
    else:
        bi = _LEVELS[min(_LEVELS.index(left_level), _LEVELS.index(right_level))]
        bi = {"presimplicial": "pre-bisimplicial",
              "very weakly simplicial": "very weakly bisimplicial",
              "weakly simplicial": "weakly bisimplicial",
              "simplicial": "bisimplicial"}.get(bi, "none")
    return SimplicialReport(left_level, right_level, pre_bi, bi, failures)


# ---------------------------------------------------------------------------
# The basis tensors a restricted or quotient complex keeps
# ---------------------------------------------------------------------------

def _unit_free(space, lead, n):
    """The indices of lead (x) V^(x)n, ascending, whose n tensor slots (the
    low base-d digits; the lead block is above them) all differ from the
    unit: the span a restriction to the unit-free tensors keeps, and the
    complement a quotient by the unit-bearing ones keeps."""
    d = space.dim
    digits = [t for t in range(d) if t != space.unit_index]
    kept = list(range(lead))
    for _ in range(n):
        kept = [x * d + t for x in kept for t in digits]
    return kept


def _nondegenerate(space, lead, n):
    """The indices of lead (x) V^(x)n, ascending, with no two equal
    neighbouring slots: the complement a quotient by the degenerate tensors
    (the image of the diagonal degeneracies) keeps."""
    d = space.dim
    kept = list(range(lead))
    for i in range(n):
        kept = [x * d + t for x in kept for t in range(d) if i == 0 or t != x % d]
    return kept


# ---------------------------------------------------------------------------
# One assembly path for every complex
# ---------------------------------------------------------------------------

def _assemble(space, lead, step, n_max, diff_fn, builder, *, kept=None,
              keep="quotient", normalized=False, cap=None) -> ChainComplex:
    """The complex on (lead block) (x) V^(x)n for n = 0..n_max whose boundary
    out of degree n is diff_fn(n), of degree step. With kept, a function
    (space, lead, n) -> the ascending basis indices kept in degree n, only
    the kept half is built: the restriction to those indices (keep="sub")
    or the quotient by the span of the others (keep="quotient"). normalized
    divides a complex that keeps no span of its own by the degenerate span.

    The kept indices are enumerated, never tested one basis index at a
    time, and subquotient projects onto them. A restriction asks
    diff_fn(n, indices) for its span's columns only, so the ambient complex
    holds those columns and build_chain_complex checks d^2 on them: once
    subquotient has found the span stable, that is the kept complex's d^2.
    A quotient's stability check reads every column, so it builds every
    boundary in full."""
    if normalized:
        if kept is not None:
            raise ExactError(f"the {builder} complex already projects onto a span "
                             "of its own; --normalized does not apply")
        if isinstance(space.payload, st.ShelfTable):
            kept = _nondegenerate
        elif isinstance(space.payload, st.AlgebraData) and space.unit_index is not None:
            kept = _unit_free
        else:
            raise ExactError("--normalized needs a shelf payload or a distinguished unit")
        keep, builder = "quotient", builder + ":normalized"
    dims = [lead * space.dim ** n for n in range(n_max + 1)]
    homology.ensure_cap(dims, cap)
    indices = {n: kept(space, lead, n) for n in range(n_max + 1)} if kept is not None else {}
    restricted = keep == "sub" and indices
    diffs = {n: diff_fn(n, indices[n]) if restricted else diff_fn(n)
             for n in range(n_max + 1) if 0 <= n + step <= n_max}
    c = build_chain_complex(space.ring, dims, diffs, step, builder)
    if not indices:
        return c
    out = subquotient(c, indices, keep)
    out.builder = builder
    return out


# ---------------------------------------------------------------------------
# Every complex: one table row each
# ---------------------------------------------------------------------------

def _require_payload(space, kind):
    payload = space.payload
    if kind in ("shelf", "spindle"):
        if not isinstance(payload, st.ShelfTable):
            raise ExactError("this complex needs a shelf payload")
        if kind == "spindle" and not st.check_shelf(payload).spindle:
            raise ExactError("quandle complex needs an idempotent self-distributive table")
    elif kind is not None:
        if not (isinstance(payload, st.AlgebraData) and payload.kind == kind):
            raise ExactError(f"this complex needs a {kind} payload")


# Carrier spaces --------------------------------------------------------------

def _itself(space):
    return space


def _unitalized(space):
    """The braided space of the payload, with a unit adjoined when absent."""
    payload = space.payload
    if payload.unit_index is not None:
        return space
    data = st.adjoin_unit(payload)
    if payload.kind == "associative":
        return st.assoc_braiding(data)
    return st.leibniz_braiding(data)


def _graded_leibniz(space):
    payload = space.payload
    data = payload if payload.unit_index is not None else st.adjoin_unit(payload)
    if data.grading is None:
        raise ExactError("graded complex needs a grading")
    return st.leibniz_braiding(data, graded=True)


def _extended_coalgebra(space):
    """Counital carrier for the reduced coalgebra complexes: extend a raw
    coalgebra by a formal group-like, or reuse an already-extended one whose
    group-like is a distinguished basis vector."""
    payload = space.payload
    if payload.counit is None:
        data = st.coalgebra_extend(payload)
    elif payload.unit_index is not None:
        data = payload
    else:
        raise ExactError(
            "reduced coalgebra complexes need either a counit-free coalgebra "
            "or a distinguished group-like basis vector")
    return st.coassoc_braiding(data)


# Characters the boundary reads, as (carrier, params) -> names in label order --

def _fixed(*names):
    return lambda space, params: names


def _sole_character(space, params):
    char = params.get("left_char")
    if char is None:
        if len(space.characters) != 1:
            raise ExactError("koszul complex needs a character parameter")
        char = next(iter(space.characters))
    return (char,)


def _counit_character(space, params):
    return (params.get("left_char", "counit"),)


def _group_characters(space, params):
    lc = params.get("left_char", "counit")
    return (lc, params.get("right_char", lc))


def _twist(space, value):
    """The constant character value, added to the space as twist:<value>
    and verified there."""
    name = f"twist:{value}"
    if name not in space.characters:
        space.add_character(name, st.twist_character(value, space.dim, space.ring))
    space.require_character(name)
    return name


def _twist_character(space, params):
    if "twist" not in params:
        raise ExactError("twisted rack complex needs a twist parameter")
    return ("ones", _twist(space, params["twist"]))


def _dirac_character(space, params):
    a = params.get("element")
    if a is None:
        raise ExactError("partial derivative complex needs an element parameter")
    name = f"dirac:{a}"
    if name not in space.characters:
        space.add_character(name, st.dirac_character(space.payload, int(a), space.ring))
    return (name,)


def _sides(kind, *read):
    """The characters the boundary of a generic kind reads (0 its left one,
    1 its right one). Both are resolved into params: the left character,
    else the only declared one; then the twist, else the right character,
    else the left one. An undeclared one is refused, and so is a missing
    one that the boundary reads, naming the flag that gives it."""
    def chars(space, params):
        left = params.get("left_char")
        if left is None and len(space.characters) == 1:
            left = next(iter(space.characters))
        right = params.get("right_char", left)
        if "twist" in params:
            right = _twist(space, params["twist"])
        for name in (left, right):
            if name is not None:
                space.character(name)
        params.update(left_char=left, right_char=right)
        for i in read:
            if (left, right)[i] is None:
                declared = ", ".join(sorted(space.characters)) or "none"
                raise ExactError(f"the {kind} differential needs --{('left', 'right')[i]}-char; "
                                 f"declared characters: {declared}")
        return tuple((left, right)[i] for i in read)
    return chars


# Boundaries, as (carrier, characters, params) -> (lead dim, n -> boundary) ----

# Each names its builder at call time, so that a wrapper installed on the
# module (perfbench's tracer) sees every call.

def _left(space, chars, params):
    """Asked for a list of columns (a restricted complex), it builds only
    those (_pull), into the build's store like every other piece."""
    def diff(n, cols=None):
        if cols is None:
            return left_diff(space, chars[0], n)
        return _pull(space, space.require_character(chars[0]), 1, n, "left", cols=cols)
    return 1, diff


def _right(space, chars, params):
    return 1, lambda n: right_diff(space, chars[0], n)


def _combined(space, chars, params):
    return 1, lambda n: combined_diff(space, chars[0], chars[-1], n)


def _faces(space, chars, params):
    return 1, lambda n: face_sum(space, chars[0], n)


def _hyper(side):
    return lambda space, chars, params: (
        1, lambda n: hyper_boundary(space, chars[0], params.get("order", 1), n, side))


def _left_co(space, chars, params):
    return 1, lambda n: left_codiff(space, chars[0], n)


def _coeff(space, chars, params):
    module = params.get("module") or trivial_module(space)
    return module.dim, lambda n: coeff_diff(space, module, None, n)


def _bimodule(space, chars, params):
    bim = params.get("bimodule") or regular_bimodule(space)
    return bim.dim, lambda n: _difference(bimodule_diff(space, bim, n))


def _bicomodule(space, chars, params):
    bic = coalgebra_self_bicomodule(space)
    # a codifferential is a transposed boundary, so it is built in full
    return bic.dim, lambda n, cols=None: _difference(bicomodule_codiff(space, bic, n))


def _difference(pair):
    left, right = pair
    return left.sub_map(right)


def _described(kind, read):
    """The label of a generic kind: its name, the characters its boundary
    reads (see _sides) and, for the hyper kinds, its order."""
    def label(params):
        sides = [("left", "right")[i] for i in read]
        parts = [kind] + [f"{side}={params[side + '_char']}" for side in sides]
        if kind.startswith("hyper"):
            parts.append(f"k={params.get('order', 1)}")
        return ",".join(parts)
    return label


class _Named(Record, frozen=True):
    """A complex: the payload kind it needs ("spindle" is an idempotent
    shelf), the space it lives on, the characters (cocharacters for cochain
    complexes) its boundary reads, its boundary, its builder name (a format
    string of the characters and the parameters, or a function of the
    parameters), the parameters it reads, the basis tensors it keeps (see
    _assemble): the span it is restricted to (keep="sub"), or the
    complement of the span it is divided by (keep="quotient"), and the
    degree of its boundary (times the order, for the hyper kinds)."""
    payload: Optional[str]
    carrier: Callable
    chars: Callable
    diff: Callable
    label: str | Callable
    reads: tuple = ()
    kept: Optional[Callable] = None
    keep: str = "quotient"
    step: int = -1


# Quotients by the unit (bar, group, hochschild, cobar) and by repeated
# neighbours (quandle) kill the degenerate tensors and keep the others.
# Leibniz and Cartier keep the same unit-free tensors as a restriction
# instead: there the unit-bearing ones are not a subcomplex, while the
# unit-free ones are.
_NAMED = {
    "koszul": _Named(None, _itself, _sole_character, _left, "koszul[{0}]", ("left_char",)),
    "shelf": _Named("shelf", _itself, _fixed("ones"), _left, "shelf"),
    "rack": _Named("shelf", _itself, _fixed("ones"), _combined, "rack"),
    "quandle": _Named("spindle", _itself, _fixed("ones"), _combined, "quandle",
                      kept=_nondegenerate),
    "twisted-rack": _Named("shelf", _itself, _twist_character, _combined,
                           "twisted-rack[{twist}]", ("twist",)),
    "partial-derivative": _Named("shelf", _itself, _dirac_character, _left,
                                 "partial-derivative[{element}]", ("element",)),
    "bar": _Named("associative", _unitalized, _fixed("counit"), _combined, "bar",
                  kept=_unit_free),
    "group": _Named("associative", _unitalized, _group_characters, _combined,
                    "group[{0},{1}]", ("left_char", "right_char"), _unit_free),
    "hochschild": _Named("associative", _unitalized, _fixed(), _bimodule, "hochschild",
                         ("bimodule",), _unit_free),
    "leibniz": _Named("leibniz", _unitalized, _counit_character, _left, "leibniz",
                      ("left_char",), _unit_free, "sub"),
    "graded-leibniz": _Named("leibniz", _graded_leibniz, _counit_character, _left,
                             "graded-leibniz", ("left_char",), _unit_free, "sub"),
    "cobar": _Named("coalgebra", _extended_coalgebra, _fixed("unit"), _left_co, "cobar",
                    kept=_unit_free, step=1),
    "cartier": _Named("coalgebra", _extended_coalgebra, _fixed("unit"), _bicomodule,
                      "cartier", kept=_unit_free, keep="sub", step=1),
}

# The classical complexes; the generic kinds below are chosen by the CLI's
# --diff, --module and --bimodule.
NAMED_COMPLEXES = tuple(_NAMED)


def _generic(kind, diff, reads, *read):
    """The row of a generic kind whose boundary reads the sides in read."""
    return _Named(None, _itself, _sides(kind, *read), diff, _described(kind, read), reads)


_SIDE_PARAMS = ("left_char", "right_char", "twist")
_NAMED.update({
    "left": _generic("left", _left, ("left_char",), 0),
    "right": _generic("right", _right, _SIDE_PARAMS, 1),
    "combined": _generic("combined", _combined, _SIDE_PARAMS, 0, 1),
    "face": _generic("face", _faces, ("left_char",), 0),
    "hyper-left": _generic("hyper-left", _hyper("left"), ("left_char", "order"), 0),
    "hyper-right": _generic("hyper-right", _hyper("right"), _SIDE_PARAMS + ("order",), 1),
    "coeff": _Named(None, _itself, _fixed(), _coeff, "coeff", ("module",)),
    "bimodule": _Named(None, _itself, _fixed(), _bimodule, "bimodule", ("bimodule",)),
})

# The parameters each complex reads, by name.
COMPLEX_PARAMS = {name: row.reads for name, row in _NAMED.items()}


def named_complex(space: PreBraidedSpace, name: str, n_max: int, params: Optional[dict] = None,
                  *, basis_cap: Optional[int] = None, normalized: bool = False) -> ChainComplex:
    """Assemble the complex of one row of the table: a classical complex
    (NAMED_COMPLEXES) or a generic kind (left, right, combined, face,
    hyper-left, hyper-right, coeff, bimodule). params holds what the row
    reads (COMPLEX_PARAMS): characters by name, a twist scalar, a shelf
    element, a hyper order >= 1 (the boundary has degree -order), a
    BraidedModule or a Bimodule. Quotient constructions (quandle, bar,
    group, hochschild, cobar) project onto the canonical basis complement;
    restrictions (leibniz, graded-leibniz, cartier) verify stability.
    normalized divides a complex without a span of its own by the
    degenerate span; basis_cap bounds every degree.

    The carrier's YBE and the characters the boundary reads pass their gates
    first, before any cap or --normalized error; a module is gated at its
    first boundary. The carrier's allow_unverified opens every gate; a
    carrier a row builds is a new space and has no override."""
    row = _NAMED.get(name)
    if row is None:
        raise ExactError(f"unknown named complex {name!r}")
    params = dict(params or {})
    unread = sorted(set(params) - set(row.reads))
    if unread:
        raise ExactError(f"the {name} complex does not read {', '.join(unread)}")
    order = params.get("order", 1)
    if order < 1:
        raise ExactError(f"hyper order must be 1 or more, not {order}")
    _require_payload(space, row.payload)
    carrier = row.carrier(space)
    carrier.require_ybe()
    chars = row.chars(carrier, params)
    gate = carrier.require_cocharacter if row.step > 0 else carrier.require_character
    for char in chars:
        gate(char)
    lead, diff_fn = row.diff(_Build(carrier, n_max), chars, params)
    label = (row.label.format(*chars, **params) if isinstance(row.label, str)
             else row.label(params))
    return _assemble(carrier, lead, row.step * order, n_max, diff_fn, label, kept=row.kept,
                     keep=row.keep, normalized=normalized, cap=basis_cap)
