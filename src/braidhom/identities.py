"""The identities that ``check`` and the ``verify`` suites test, and that no
complex is built from: the braided bialgebra laws of the quantum shuffles
(associativity, coassociativity, compatibility, the antipode and
sigma-commutativity), the coalgebra and character compatibilities, the
simplicial structure of faces and degeneracies, naturality, the contracting
homotopies and their acyclicity certificate.

A ``homology`` or ``complex`` run never imports this module; the CLI loads
it only for the commands that test these identities (braidhom.suites).
"""

from __future__ import annotations

from typing import Optional

from ._record import Record
from .exactlin import ExactError, SparseLinearMap, digits_of, flat_index, tensor
from .braiding import (
    Permutation,
    PreBraidedSpace,
    braid_lift,
    extended_braiding,
    shuffle_coproduct,
)
from .complexes import _around, adjoint_action, face
from .homology import ChainComplex
from . import structures as st


# ---------------------------------------------------------------------------
# Character and coalgebra checks
# ---------------------------------------------------------------------------

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

def shuffle_product(space: PreBraidedSpace, p: int, q: int, sign: int = 1) -> SparseLinearMap:
    """Quantum shuffle product V^p (x) V^q -> V^(x)(p+q): the sum of the
    permutation lifts over the (p,q)-shuffles, built as the transposed
    coshuffle of the transposed twin, which caches it. The coshuffle's
    crossing L_q has the word s_q...s_1, whose lift on sigma^T transposes to
    that of s_1...s_q, so the two agree even where the YBE fails."""
    return shuffle_coproduct(space.transposed(), p, q, sign).transpose()


def antipode(space: PreBraidedSpace, n: int) -> SparseLinearMap:
    """(-1)^n times the lift of the order-reversal permutation on V^(x)n."""
    if n == 0:
        return space.identity_power(0)
    out = braid_lift(space, Permutation.reversal(n), n)
    return out.neg() if n % 2 == 1 else out


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


class AcyclicityReport(Record):
    certified: dict[int, bool]
    ok: bool

    def __bool__(self):
        return self.ok


def certify_acyclic(c: ChainComplex, homotopy: dict[int, SparseLinearMap]) -> AcyclicityReport:
    """Verify h d + d h = Id entrywise on every degree the homotopy covers.

    This certificate is independent of any rank computation. For a chain
    complex, degree n needs h_n, the boundary out of degree n+1 and (when
    n > 0) h_{n-1}; degree 0 only needs the incoming composite."""
    certified: dict[int, bool] = {}
    for n, h in homotopy.items():
        up = n - c.step
        if not 0 <= up <= c.n_max:
            raise ExactError(f"homotopy at degree {n} has no incoming boundary inside range")
        if (h.rows, h.cols) != (c.dims[up], c.dims[n]):
            raise ExactError(
                f"homotopy at degree {n} has shape {h.rows}x{h.cols}, "
                f"expected {c.dims[up]}x{c.dims[n]}")
        total = c.boundary(up).compose(h)
        prev = n + c.step
        if 0 <= prev <= c.n_max:
            hn_prev = homotopy.get(prev)
            if hn_prev is not None and n in c.diffs:
                total = total.add_map(hn_prev.compose(c.diffs[n]))
        certified[n] = total == SparseLinearMap.identity(c.dims[n], c.ring)
    return AcyclicityReport(certified, all(certified.values()))


# ---------------------------------------------------------------------------
# Simplicial structure checks
# ---------------------------------------------------------------------------

def degeneracy(space: PreBraidedSpace, n: int, i: int) -> SparseLinearMap:
    """Comultiplication applied to strand i: V^(x)n -> V^(x)(n+1)."""
    if space.comultiplication is None:
        raise ExactError("space has no comultiplication")
    if not 1 <= i <= n:
        raise ExactError(f"degeneracy index {i} out of 1..{n}")
    d = space.dim
    return _around(d ** (i - 1), space.comultiplication, d ** (n - i))


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
