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
"""

import math

from hypothesis import Phase, given, settings, strategies as hs

from braidhom import (
    PrimeField,
    QQ,
    ZZ,
    ShelfTable,
    algebra_from_constants,
    assoc_braiding,
    betti,
    check_braided_character,
    check_braided_module,
    check_ybe,
    coeff_diff,
    combined_diff,
    hyper_boundary,
    integral_homology,
    left_diff,
    named_complex,
    right_diff,
    shelf_braiding,
    signed_binomial,
)
from braidhom.complexes import character_module, face_sum, rackset_module

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
def unital_algebras(draw):
    """A pre-braided space of k[Z/m] or k[x]/(x^m), m <= 3, over Z, Q, F2
    or F3, and the names of its characters."""
    m = draw(hs.integers(1, 3))
    ring = draw(hs.sampled_from([ZZ, QQ, PrimeField(2), PrimeField(3)]))
    if draw(hs.booleans()):
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
