"""Property tests of the braided boundaries on racks drawn from three
families: Alexander quandles x <| y = t x + (1 - t) y mod m, permutation
racks x <| y = s(x), and their products; and on small unital algebras drawn
from two families, group algebras k[Z/m] and truncated polynomials
k[x]/(x^m). Every drawn table is a rack or an associative unital algebra,
so no example is filtered out.

Each property is an identity of the paper's boundaries, checked through a
path that does not share the code under test where one exists: face sums go
through braid lifts of single strands, and the rack homology ranks are fixed
by the orbit count (Etingof-Grana).

Leibniz brackets drawn from a small family check the restricted Leibniz
complexes, built on the unit-free columns only, against the classical
boundary and the full build.

The last properties draw arbitrary shelf tables and structure constants,
most of which fail their axiom, and compare each reported witness with the
first failing basis tuple found by a brute-force search written here.
"""

import itertools
import math

from hypothesis import Phase, given, settings, strategies as hs

from braidhom import (
    PreBraidedSpace,
    PrimeField,
    QQ,
    ZZ,
    ShelfTable,
    SparseLinearMap,
    adjoin_unit,
    algebra_character_check,
    algebra_from_constants,
    assoc_braiding,
    betti,
    bimodule_diff,
    check_assoc,
    check_braided_character,
    check_braided_module,
    check_leibniz,
    check_shelf,
    check_ybe,
    coeff_diff,
    combined_diff,
    hyper_boundary,
    integral_homology,
    left_diff,
    leibniz_braiding,
    lie_character_check,
    named_complex,
    right_diff,
    shelf_braiding,
    signed_binomial,
)
from braidhom.complexes import face_sum, regular_bimodule
from braidhom.homology import subquotient

from helpers import character_module, rackset_module, unit_factor_span
from test_complexes import leibniz_restricted_oracle

# No shrink phase: a failing property reports the first example that fails,
# so a fault in a boundary costs seconds rather than a quarter of an hour of
# shrinking every failing example.
PROPERTY = settings(derandomize=True, max_examples=20, deadline=None, database=None,
                    phases=[phase for phase in Phase if phase is not Phase.shrink])


def alexander(m, t):
    return [[(t * x + (1 - t) * y) % m for y in range(m)] for x in range(m)]


def permutation_rack(perm):
    return [[perm[x]] * len(perm) for x in range(len(perm))]


def product(a, b):
    """(a1, a2) <| (b1, b2) = (a1 <| b1, a2 <| b2), pairs numbered a1 * |b| + a2."""
    nb = len(b)
    pairs = [(x, y) for x in range(len(a)) for y in range(nb)]
    return [[a[x][u] * nb + b[y][v] for u, v in pairs] for x, y in pairs]


def units(m):
    return [t for t in range(m) if math.gcd(t, m) == 1]


@hs.composite
def factors(draw, size):
    """A rack of the given size from one of the two base families."""
    if size <= 5 and draw(hs.booleans()):
        return alexander(size, draw(hs.sampled_from(units(size))))
    return permutation_rack(draw(hs.permutations(range(size))))


@hs.composite
def racks(draw, max_size=6):
    """A rack of at most max_size elements: Alexander, permutation or product."""
    family = draw(hs.sampled_from(["alexander", "permutation", "product"]))
    if family == "alexander":
        m = draw(hs.integers(1, min(5, max_size)))
        return alexander(m, draw(hs.sampled_from(units(m))))
    if family == "permutation" or max_size < 4:
        return permutation_rack(draw(hs.permutations(range(draw(hs.integers(1, min(4, max_size)))))))
    first = draw(hs.integers(2, max_size // 2))
    return product(draw(factors(first)), draw(factors(draw(hs.integers(2, max_size // first)))))


def space_of(table):
    space = shelf_braiding(ShelfTable(tuple(map(tuple, table))), ZZ)
    assert check_ybe(space).ok
    assert check_braided_character(space, "ones").ok
    return space


def orbit_count(table):
    """Orbits of the rack: classes of a ~ a <| b, by union-find."""
    parent = list(range(len(table)))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, row in enumerate(table):
        for c in row:
            parent[root(a)] = root(c)
    return len({root(a) for a in range(len(table))})


@PROPERTY
@given(racks(), hs.integers(1, 4))
def test_face_sums_equal_differentials(table, n):
    space = space_of(table)
    assert face_sum(space, "ones", n, "left") == left_diff(space, "ones", n)
    assert face_sum(space, "ones", n, "right") == right_diff(space, "ones", n)


@PROPERTY
@given(racks(), hs.integers(2, 4))
def test_differentials_square_to_zero(table, n):
    space = space_of(table)
    for build in (lambda m: left_diff(space, "ones", m),
                  lambda m: right_diff(space, "ones", m),
                  lambda m: combined_diff(space, "ones", "ones", m)):
        assert build(n - 1).compose(build(n)).is_zero()


@PROPERTY
@given(racks(max_size=3), hs.sampled_from(["left", "right"]))
def test_order_three_hyper_boundary_squares_to_zero(table, side):
    """The order-3 boundary first composes with itself out of degree 6."""
    space = space_of(table)
    first = hyper_boundary(space, "ones", 3, 6, side)
    assert hyper_boundary(space, "ones", 3, 3, side).compose(first).is_zero()


@PROPERTY
@given(racks(), hs.integers(2, 4))
def test_hyper_composition_law(table, n):
    """d_m d_k = signed_binomial(m, k) d_(m+k) for k + m <= 3, both sides."""
    space = space_of(table)
    for side in ("left", "right"):
        for k in range(0, 4):
            for m in range(0, 4 - k):
                if k + m > n:
                    continue
                lhs = hyper_boundary(space, "ones", m, n - k, side).compose(
                    hyper_boundary(space, "ones", k, n, side))
                rhs = hyper_boundary(space, "ones", m + k, n, side).scale(signed_binomial(m, k))
                assert lhs == rhs, (side, k, m)


@PROPERTY
@given(racks(max_size=4), hs.integers(2, 4))
def test_rackset_coefficients_form_a_bicomplex(table, n):
    """With the rack acting on itself on the left of the tensors and the
    all-ones character on the right, both coefficient differentials square
    to zero and anticommute."""
    space = space_of(table)
    M = rackset_module(space)
    N = character_module(space, "ones", "left")
    assert check_braided_module(space, M).ok and check_braided_module(space, N).ok
    left = {m: coeff_diff(space, M, N, m, "left") for m in (n - 1, n)}
    right = {m: coeff_diff(space, M, N, m, "right") for m in (n - 1, n)}
    assert left[n - 1].compose(left[n]).is_zero()
    assert right[n - 1].compose(right[n]).is_zero()
    assert left[n - 1].compose(right[n]).add_map(right[n - 1].compose(left[n])).is_zero()


@PROPERTY
@given(racks())
def test_rack_homology_free_rank_is_orbits_to_the_n(table):
    """Below the top degree, H_n of the rack complex over Z has free rank
    (#orbits)^n. The top degree is left out: there the missing outgoing
    boundary makes the report read dim ker."""
    space = space_of(table)
    report = integral_homology(named_complex(space, "rack", 4))
    orbits = orbit_count(table)
    for n in range(4):
        assert report.degrees[n].free_rank == orbits ** n, n


@PROPERTY
@given(racks(max_size=4))
def test_universal_coefficients(table):
    """Below the top degree, dim H_n(C (x) F_p) = free rank H_n
    + #{p | factors of H_n} + #{p | factors of H_(n-1)} for the rack
    complex C over Z. This ties the integral and F_p eliminations together."""
    c = named_complex(space_of(table), "rack", 4)
    integral = integral_homology(c).degrees
    for p in (2, 3, 5):
        mod_p = betti(c, PrimeField(p)).degrees
        for n in range(4):
            divisible = [f for m in (n, n - 1) if m >= 0 for f in integral[m].torsion if f % p == 0]
            assert mod_p[n].free_rank == integral[n].free_rank + len(divisible), (p, n)


# Small unital algebras, on the pre-braiding v (x) w -> 1 (x) vw. Their
# characters are the algebra morphisms to k: the augmentation of k[Z/m]
# (and the sign of k[Z/2]), the evaluation at 0 of k[x]/(x^m).

@hs.composite
def unital_algebras(draw, groups_only=False):
    """A pre-braided space of k[Z/m] or k[x]/(x^m) (k[Z/m] only, with
    groups_only), m <= 3, over Z, Q, F2 or F3, and the names of its
    characters."""
    m = draw(hs.integers(1, 3))
    ring = draw(hs.sampled_from([ZZ, QQ, PrimeField(2), PrimeField(3)]))
    if groups_only or draw(hs.booleans()):
        triples = [(i, j, (i + j) % m, 1) for i in range(m) for j in range(m)]
        chars = {"aug": [1] * m}
        if m == 2:
            chars["sign"] = [1, -1]
    else:
        triples = [(i, j, i + j, 1) for i in range(m) for j in range(m) if i + j < m]
        chars = {"counit": [1] + [0] * (m - 1)}
    space = assoc_braiding(algebra_from_constants("associative", m, triples, ring,
                                                  unit_index=0))
    assert check_ybe(space).ok
    for name, coords in chars.items():
        space.add_character(name, coords)
        assert check_braided_character(space, name).ok
    return space, sorted(chars)


@PROPERTY
@given(unital_algebras(), hs.integers(1, 4), hs.data())
def test_unital_algebra_differentials(algebra, n, data):
    """Each differential squares to zero and equals its face sum."""
    space, chars = algebra
    lc, rc = data.draw(hs.sampled_from(chars)), data.draw(hs.sampled_from(chars))
    builds = (lambda m: left_diff(space, lc, m), lambda m: right_diff(space, rc, m),
              lambda m: combined_diff(space, lc, rc, m))
    for build in builds:
        assert build(n).compose(build(n + 1)).is_zero()
    assert face_sum(space, lc, n, "left") == left_diff(space, lc, n)
    assert face_sum(space, rc, n, "right") == right_diff(space, rc, n)


@PROPERTY
@given(unital_algebras(), hs.integers(2, 4), hs.data())
def test_unital_algebra_hyper_composition_law(algebra, n, data):
    """d_m d_k = signed_binomial(m, k) d_(m+k) for k + m <= 3, both sides."""
    space, chars = algebra
    char = data.draw(hs.sampled_from(chars))
    for side in ("left", "right"):
        for k in range(0, 4):
            for m in range(0, 4 - k):
                if k + m > n:
                    continue
                lhs = hyper_boundary(space, char, m, n - k, side).compose(
                    hyper_boundary(space, char, k, n, side))
                rhs = hyper_boundary(space, char, m + k, n, side).scale(signed_binomial(m, k))
                assert lhs == rhs, (side, k, m)


# Homology of the cyclic groups, read below the top degree (whose outgoing
# boundary is not built).

def cyclic_group_homology(m, ring, n):
    """H_n(Z/m; k) as (free rank, torsion), from the periodic resolution of
    a cyclic group: over Z it is Z in degree 0, Z/m in odd degrees and 0 in
    positive even ones. Over a field k the universal coefficient theorem
    gives k in degree 0, and in positive degrees k when char k divides m,
    else 0."""
    if n == 0:
        return 1, []
    if ring is ZZ:
        return 0, [m] if n % 2 == 1 and m > 1 else []
    p = ring.characteristic
    return (1 if p and m % p == 0 else 0), []


def _homology_below_top(c):
    hom = integral_homology(c) if c.ring is ZZ else betti(c)
    return [(hom.degrees[n].free_rank, hom.degrees[n].torsion) for n in range(c.n_max)]


@PROPERTY
@given(unital_algebras(groups_only=True))
def test_group_complex_of_cyclic_groups_is_group_homology(algebra):
    """The group complex of k[Z/m] with the augmentation on both sides
    gives H_n(Z/m; k)."""
    space, _ = algebra
    c = named_complex(space, "group", 5, {"left_char": "aug", "right_char": "aug"})
    assert _homology_below_top(c) == [cyclic_group_homology(space.dim, space.ring, n)
                                      for n in range(5)]


@PROPERTY
@given(unital_algebras(groups_only=True))
def test_hochschild_complex_of_cyclic_groups_is_m_copies_of_group_homology(algebra):
    """HH_n(k[G]) is the sum over the conjugacy classes g of G of
    H_n(C_G(g); k) (Burghelea, Comment. Math. Helv. 60, 1985). G = Z/m is
    abelian, so each of its m classes has centraliser Z/m, and
    HH_n(k[Z/m]) = H_n(Z/m; k)^m."""
    space, _ = algebra
    m = space.dim
    want = []
    for n in range(4):
        free, torsion = cyclic_group_homology(m, space.ring, n)
        want.append((m * free, torsion * m))
    assert _homology_below_top(named_complex(space, "hochschild", 4)) == want


# Every self-distributive table of size at most 3 (234 of them): racks,
# quandles and shelves that are neither.
SHELVES = [rows for m in (1, 2, 3)
           for rows in ([flat[i * m:(i + 1) * m] for i in range(m)]
                        for flat in itertools.product(range(m), repeat=m * m))
           if all(rows[rows[a][b]][c] == rows[rows[a][c]][rows[b][c]]
                  for a, b, c in itertools.product(range(m), repeat=3))]


@hs.composite
def shelves(draw):
    """A pre-braided space of a shelf of size <= 3 over Z, Q, F2 or F3, and
    the names of its characters."""
    ring = draw(hs.sampled_from([ZZ, QQ, PrimeField(2), PrimeField(3)]))
    table = ShelfTable(tuple(map(tuple, draw(hs.sampled_from(SHELVES)))))
    return shelf_braiding(table, ring), ["ones"]


def fresh(space):
    """A new space with the braiding, unit, payload and characters of space,
    and empty caches."""
    out = PreBraidedSpace(space.dim, space.ring, space.braiding, unit_index=space.unit_index,
                          payload=space.payload)
    for name, eps in space.characters.items():
        out.add_character(name, eps)
    return out


@PROPERTY
@given(hs.one_of(shelves(), unital_algebras()), hs.data())
def test_named_complexes_equal_the_builders_on_a_fresh_space(drawn, data):
    """A named complex caches the pieces of its boundaries in a store of its
    own and drops each once no later degree reads it; a direct call of a
    builder caches them on the space. Each row that builds through _pull
    gives the boundaries the builders give on a fresh space."""
    space, chars = drawn
    lc, rc = data.draw(hs.sampled_from(chars)), data.draw(hs.sampled_from(chars))
    # d_2 d_2 = 2 d_4, so an order-2 complex squares to zero in characteristic 2 only
    k = data.draw(hs.sampled_from([1, 2, 3] if space.ring.characteristic == 2 else [1, 3]))
    rows = [
        ("koszul", {"left_char": lc}, lambda s, n: left_diff(s, lc, n)),
        ("left", {"left_char": lc}, lambda s, n: left_diff(s, lc, n)),
        ("right", {"right_char": rc}, lambda s, n: right_diff(s, rc, n)),
        ("combined", {"left_char": lc, "right_char": rc},
         lambda s, n: combined_diff(s, lc, rc, n)),
        ("hyper-left", {"left_char": lc, "order": k},
         lambda s, n: hyper_boundary(s, lc, k, n, "left")),
        ("hyper-right", {"right_char": rc, "order": k},
         lambda s, n: hyper_boundary(s, rc, k, n, "right")),
    ]
    if isinstance(space.payload, ShelfTable):
        module = rackset_module(space)
        rows += [("shelf", {}, lambda s, n: left_diff(s, "ones", n)),
                 ("rack", {}, lambda s, n: combined_diff(s, "ones", "ones", n)),
                 ("coeff", {"module": module}, lambda s, n: coeff_diff(s, module, None, n))]
    else:
        bim = regular_bimodule(space)
        rows.append(("bimodule", {"bimodule": bim},
                     lambda s, n: SparseLinearMap.sub_map(*bimodule_diff(s, bim, n))))
    for name, params, build in rows:
        c = named_complex(space, name, 4, params)
        other = fresh(space)
        assert c.diffs and all(m == build(other, n) for n, m in c.diffs.items()), name


# Leibniz brackets: sl2, the non-Lie [x,x] = y, abelian ones, and every
# bracket on k^2 with constants in {-1, 0, 1} that satisfies the Leibniz
# identity over Z (so over every ring). Their restricted complexes are built
# on the unit-free span alone; each must equal the classical boundary and the
# full left complex of the unitalization, restricted to that span.

SL2 = [(0, 1, 2, 1), (1, 0, 2, -1), (2, 0, 0, 2), (0, 2, 0, -2), (2, 1, 1, -2), (1, 2, 1, 2)]
PLANE_LEIBNIZ = [
    triples for triples in (
        [(*ijk, v) for ijk, v in zip(itertools.product(range(2), repeat=3), values) if v]
        for values in itertools.product((-1, 0, 1), repeat=8))
    if check_leibniz(algebra_from_constants("leibniz", 2, triples, ZZ)).witness is None]


@hs.composite
def leibniz_brackets(draw):
    """A ring (Z, Q, F2, F3 or F5), a dimension and Leibniz structure
    constants (i, j, k, value)."""
    ring = draw(hs.sampled_from([ZZ, QQ, PrimeField(2), PrimeField(3), PrimeField(5)]))
    family = draw(hs.sampled_from(["sl2", "non-lie", "abelian", "constants"]))
    if family == "sl2":
        return ring, 3, SL2
    if family == "non-lie":
        return ring, 2, [(0, 0, 1, 1)]
    if family == "abelian":
        return ring, draw(hs.integers(1, 3)), []
    return ring, 2, draw(hs.sampled_from(PLANE_LEIBNIZ))


def _unit_free_part(c, unit):
    """The restriction of the full complex c to the unit-free tensors."""
    d = unit + 1
    bearing = {n: unit_factor_span(d, n, unit) for n in range(c.n_max + 1)}
    return subquotient(c, lambda n, flat: not bearing[n](flat), "sub")


@PROPERTY
@given(leibniz_brackets(), hs.data())
def test_restricted_leibniz_complexes_equal_the_full_build(bracket, data):
    """The leibniz and graded-leibniz complexes, whose boundaries are built
    on the unit-free columns only, equal the classical Leibniz boundary and
    the unit-free part of the full left complex of the unitalization."""
    ring, d, triples = bracket
    gradings = [g for g in itertools.product((0, 1), repeat=d)
                if check_ybe(leibniz_braiding(adjoin_unit(algebra_from_constants(
                    "leibniz", d, triples, ring, grading=g)), graded=True)).ok]
    grading = data.draw(hs.sampled_from(gradings))
    ext = adjoin_unit(algebra_from_constants("leibniz", d, triples, ring, grading=grading))
    for name, graded in (("leibniz", False), ("graded-leibniz", True)):
        restricted = named_complex(leibniz_braiding(ext), name, 4)
        full = named_complex(leibniz_braiding(ext, graded=graded), "left", 4,
                             {"left_char": "counit"})
        kept = _unit_free_part(full, ext.unit_index)
        assert restricted.dims == kept.dims == [d ** n for n in range(5)]
        for n in range(1, 5):
            oracle = leibniz_restricted_oracle(ext, n, ext.grading if graded else None)
            assert restricted.diffs[n] == oracle, (name, n)
            assert kept.diffs[n] == oracle, (name, n)


# ---------------------------------------------------------------------------
# Witnesses of the structure checks: each is the first failing basis tuple in
# lexicographic order, found here by a dense brute-force search.
# ---------------------------------------------------------------------------

@hs.composite
def shelf_tables(draw):
    m = draw(hs.integers(1, 3))
    return [[draw(hs.integers(0, m - 1)) for _ in range(m)] for _ in range(m)]


def _first(tuples, fails):
    return next((t for t in tuples if fails(*t)), None)


@PROPERTY
@given(shelf_tables())
def test_shelf_witnesses_are_first_failures(table):
    m = len(table)

    def op(a, b):
        return table[a][b]

    sd = _first(itertools.product(range(m), repeat=3),
                lambda a, b, c: op(op(a, b), c) != op(op(a, c), op(b, c)))
    rack = next((b for b in range(m)
                 if sorted(op(a, b) for a in range(m)) != list(range(m))), None)
    idem = next((a for a in range(m) if op(a, a) != a), None)
    rep = check_shelf(ShelfTable(tuple(map(tuple, table))))
    assert (rep.sd_witness, rep.rack_witness, rep.idem_witness) == (sd, rack, idem)
    assert rep.self_distributive is (sd is None)
    assert rep.rack is (sd is None and rack is None)


@hs.composite
def constants(draw):
    """A ring (Z or F_3), a dimension d <= 3, structure constants c[i][j][k]
    (the coefficient of e_k in e_i e_j) in {-1, 0, 1}, a covector with
    entries in {-1, 0, 1} and an optional unit index. At most four constants
    are nonzero, so the first failure is often far from (0, 0, 0)."""
    ring = draw(hs.sampled_from([ZZ, PrimeField(3)]))
    d = draw(hs.integers(1, 3))
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    for _ in range(draw(hs.integers(0, 4))):
        i, j, k = (draw(hs.integers(0, d - 1)) for _ in range(3))
        c[i][j][k] = draw(hs.sampled_from([-1, 1]))
    eps = [draw(hs.integers(-1, 1)) for _ in range(d)]
    unit = draw(hs.one_of(hs.none(), hs.integers(0, d - 1)))
    return ring, d, c, eps, unit


def _data(kind, ring, d, c, unit):
    triples = [(i, j, k, c[i][j][k]) for i, j, k in itertools.product(range(d), repeat=3)]
    return algebra_from_constants(kind, d, triples, ring, unit_index=unit)


def _nonzero(ring, values) -> bool:
    p = ring.characteristic
    return any(v % p if p else v for v in values)


@PROPERTY
@given(constants())
def test_algebra_witnesses_are_first_failures(data):
    """check_assoc and check_leibniz name the first triple (i, j, k) on
    which (e_i e_j) e_k = e_i (e_j e_k), or the Leibniz identity
    [e_i, [e_j, e_k]] = [[e_i, e_j], e_k] - [[e_i, e_k], e_j], fails."""
    ring, d, c, _, unit = data
    r = range(d)

    def prod(x, y):
        """The product of two coefficient vectors, by the constants."""
        return [sum(x[i] * y[j] * c[i][j][k] for i in r for j in r) for k in r]

    e = [[int(i == k) for k in r] for i in r]
    triples = list(itertools.product(r, repeat=3))
    assoc = _first(triples, lambda i, j, k: _nonzero(ring, [
        u - v for u, v in zip(prod(prod(e[i], e[j]), e[k]), prod(e[i], prod(e[j], e[k])))]))
    leibniz = _first(triples, lambda i, j, k: _nonzero(ring, [
        u - v + w for u, v, w in zip(prod(e[i], prod(e[j], e[k])),
                                     prod(prod(e[i], e[j]), e[k]),
                                     prod(prod(e[i], e[k]), e[j]))]))
    assert check_assoc(_data("associative", ring, d, c, unit)).witness == assoc
    assert check_leibniz(_data("leibniz", ring, d, c, unit)).witness == leibniz


@PROPERTY
@given(constants())
def test_covector_witnesses_are_first_failures(data):
    """Both covector checks name the first pair (i, j) on which
    eps(e_i e_j) differs from eps_i eps_j (an algebra) or from 0 (a
    bracket), and then a unit not sent to 1."""
    ring, d, c, eps, unit = data
    r = range(d)
    covector = SparseLinearMap.from_entries(1, d, [(0, j, eps[j]) for j in r], ring)
    unit_fails = unit is not None and _nonzero(ring, [eps[unit] - 1])
    for kind, check, expected in (
            ("associative", algebra_character_check, lambda i, j: eps[i] * eps[j]),
            ("leibniz", lie_character_check, lambda i, j: 0)):
        pair = _first(itertools.product(r, repeat=2), lambda i, j: _nonzero(
            ring, [sum(c[i][j][k] * eps[k] for k in r) - expected(i, j)]))
        witness = pair if pair is not None else ("unit",) if unit_fails else None
        rep = check(_data(kind, ring, d, c, unit), covector)
        assert (rep.ok, rep.witness) == (witness is None, witness)
