import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hs

from braidhom import (
    ExactError,
    PrimeField,
    QQ,
    SparseLinearMap,
    ZZ,
    compose,
    dihedral_shelf,
    kernel_dimension,
    rank,
    ring_from_name,
    shelf_braiding,
    is_invertible,
    smith_normal_form,
    tensor,
)
from braidhom.complexes import named_complex
from braidhom.exactlin import _eliminate, _eliminate_chain, digits_of, flat_index
from braidhom.structures import adjoin_unit, leibniz_braiding

from conftest import sl2_data

from helpers import (
    _det,
    dense_kron,
    dense_matmul,
    dense_of,
    dense_rank,
    dense_rank_mod_p,
    from_dense,
    snf_by_minor_gcds,
)


def random_sparse(rows, cols, ring, rng, density=0.4, span=5):
    entries = []
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = rng.randint(-span, span)
                if v:
                    entries.append((r, c, v))
    return SparseLinearMap.from_entries(rows, cols, entries, ring)


# Entry values per ring: fractions over Q, and over F7 values that cancel
# mod 7 in sums and products.
F7 = PrimeField(7)
RING_VALUES = [
    pytest.param(ZZ, tuple(range(-5, 6)), id="ZZ"),
    pytest.param(QQ, (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), 3, -1), id="QQ"),
    pytest.param(F7, (1, 2, 3, 4, 5, 6, 7, -1, 9), id="F7"),
]


def random_over(rows, cols, ring, values, rng, density=0.5):
    entries = [(r, c, rng.choice(values)) for r in range(rows) for c in range(cols)
               if rng.random() < density]
    return SparseLinearMap.from_entries(rows, cols, entries, ring)


def reduced(dense, ring):
    """The dense oracle's result read in ring (mod p over F_p)."""
    p = ring.characteristic
    return [[x % p for x in row] for row in dense] if p else dense


def assert_canonical(m):
    """No stored zeros, and residues in range(p) over F_p."""
    p = m.ring.characteristic
    for _, _, v in m.entries():
        assert v != 0
        assert not p or 0 < v < p


def unimodular_mix(dense, rng, steps):
    """dense under random elementary unimodular row and column operations."""
    a = [list(row) for row in dense]
    for _ in range(steps):
        q = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5:
            i, j = rng.sample(range(len(a)), 2)
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        else:
            i, j = rng.sample(range(len(a[0])), 2)
            for row in a:
                row[i] += q * row[j]
    return a


# -- rings -------------------------------------------------------------------

def test_ring_selectors():
    assert ring_from_name("z") is ZZ
    assert ring_from_name("q") is QQ
    assert ring_from_name("fp:7").p == 7
    with pytest.raises(ExactError):
        ring_from_name("fp:6")
    with pytest.raises(ExactError):
        ring_from_name("r")


def test_rational_parse_is_reduced():
    v = QQ.parse("4/6")
    assert v == Fraction(2, 3)
    assert QQ.fmt(v) == "2/3"
    assert QQ.fmt(QQ.parse("5")) == "5"


def test_rational_scalars_are_ints_when_integral():
    assert type(QQ.coerce(3)) is int
    assert type(QQ.coerce(Fraction(4, 2))) is int
    assert type(QQ.coerce(Fraction(1, 2))) is Fraction
    c = named_complex(leibniz_braiding(adjoin_unit(sl2_data(QQ))), "leibniz", 3)
    assert c.diffs
    for m in c.diffs.values():
        assert all(type(v) is int for _, _, v in m.entries())


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    assert f5.coerce(-3) == 2
    assert f5.coerce(Fraction(1, 2)) == 3  # 1/2 = 3 mod 5
    assert f5.coerce(3 * 4) == 2
    with pytest.raises(ExactError):
        f5.coerce(Fraction(1, 5))


def test_integer_ring_rejects_proper_fraction():
    with pytest.raises(ExactError):
        ZZ.coerce(Fraction(1, 2))


# -- tensor indexing ---------------------------------------------------------

def test_tensor_index_roundtrip():
    dims = (3, 3, 3)
    for flat in range(27):
        assert flat_index(digits_of(flat, dims), dims) == flat


def test_tensor_index_big_endian():
    # leftmost factor most significant
    assert flat_index((1, 0), (2, 3)) == 3
    assert flat_index((0, 1), (2, 3)) == 1


# -- map algebra -------------------------------------------------------------

@pytest.mark.parametrize("ring, cancel, keep", [
    (ZZ, (1, -1), 2),
    (QQ, (Fraction(1, 2), Fraction(-1, 2)), Fraction(2, 3)),
    (F7, (3, 4), 9),
], ids=["ZZ", "QQ", "F7"])
def test_entries_canonical_no_zeros(ring, cancel, keep):
    m = SparseLinearMap.from_entries(2, 2, [(0, 0, cancel[0]), (0, 0, cancel[1]),
                                            (1, 1, keep), (1, 0, 0)], ring)
    assert list(m.entries()) == [(1, 1, ring.coerce(keep))]
    assert m.nnz == 1


def test_compose_identity_and_zero():
    rng = random.Random(1)
    f = random_sparse(4, 4, QQ, rng)
    eye = SparseLinearMap.identity(4, QQ)
    z = SparseLinearMap.zero(4, 4, QQ)
    assert compose(eye, f) == f
    assert compose(f, eye) == f
    assert compose(f, z).is_zero()
    assert compose(f, z).rows == 4


def test_compose_shape_mismatch():
    f = SparseLinearMap.identity(3, ZZ)
    g = SparseLinearMap.identity(4, ZZ)
    with pytest.raises(ExactError):
        compose(f, g)


@pytest.mark.parametrize("ring, values", RING_VALUES)
def test_compose_matches_dense_oracle(ring, values):
    rng = random.Random(7)
    for _ in range(10):
        f = random_over(8, 8, ring, values, rng)
        g = random_over(8, 8, ring, values, rng)
        h = random_over(8, 8, ring, values, rng)
        fg = compose(f, g)
        assert_canonical(fg)
        assert dense_of(fg) == reduced(dense_matmul(dense_of(f), dense_of(g)), ring)
        diff = fg.sub_map(h)
        assert_canonical(diff)
        assert dense_of(diff) == reduced(
            [[x - y for x, y in zip(a, b)] for a, b in zip(dense_of(fg), dense_of(h))], ring)
        assert fg.sub_map(fg).is_zero()


@pytest.mark.parametrize("ring, values", RING_VALUES)
def test_compose_with_identity_returns_other_operand(ring, values):
    rng = random.Random(5)
    for rows, cols in ((6, 6), (3, 7), (7, 3), (1, 5)):
        f = random_over(rows, cols, ring, values, rng)
        assert_canonical(f)
        left = compose(SparseLinearMap.identity(rows, ring), f)
        right = compose(f, SparseLinearMap.identity(cols, ring))
        assert left == f and right == f
        assert left is f and right is f
    eye = SparseLinearMap.identity(4, ring)
    assert compose(eye, eye) == eye


def almost_identities(ring):
    """Square maps an identity test could mistake for the identity."""
    one = ring.one
    swap = SparseLinearMap.from_entries(
        4, 4, [(1, 0, one), (0, 1, one), (2, 2, one), (3, 3, one)], ring)
    extra = SparseLinearMap.from_entries(
        4, 4, [(j, j, one) for j in range(4)] + [(0, 3, one)], ring)
    scaled = SparseLinearMap.from_entries(
        4, 4, [(j, j, one) for j in range(3)] + [(3, 3, 2)], ring)
    partial = SparseLinearMap.from_entries(4, 4, [(j, j, one) for j in range(3)], ring)
    return [swap, extra, scaled, partial, SparseLinearMap.zero(4, 4, ring)]


@pytest.mark.parametrize("ring, values", RING_VALUES)
def test_compose_does_not_take_near_identities_for_the_identity(ring, values):
    rng = random.Random(9)
    f = random_over(4, 4, ring, values, rng)
    for m in almost_identities(ring):
        for prod, (a, b) in ((compose(m, f), (m, f)), (compose(f, m), (f, m))):
            assert prod is not f
            assert dense_of(prod) == reduced(dense_matmul(dense_of(a), dense_of(b)), ring)


def test_compose_with_identity_still_checks_ring_and_shape():
    eye = SparseLinearMap.identity(3, ZZ)
    for other in (SparseLinearMap.identity(3, QQ), SparseLinearMap.identity(3, F7),
                  SparseLinearMap.zero(3, 3, QQ)):
        with pytest.raises(ExactError, match="ring mismatch"):
            compose(eye, other)
        with pytest.raises(ExactError, match="ring mismatch"):
            compose(other, eye)
    f = SparseLinearMap.from_entries(2, 4, [(0, 1, 3)], ZZ)
    with pytest.raises(ExactError, match="shape mismatch"):
        compose(eye, f)
    with pytest.raises(ExactError, match="shape mismatch"):
        compose(f, eye)
    with pytest.raises(ExactError, match="shape mismatch"):
        compose(eye, SparseLinearMap.identity(4, ZZ))


def test_compose_associative():
    rng = random.Random(13)
    f = random_sparse(5, 6, QQ, rng)
    g = random_sparse(6, 4, QQ, rng)
    h = random_sparse(4, 7, QQ, rng)
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_tensor_identities():
    id2 = SparseLinearMap.identity(2, ZZ)
    id3 = SparseLinearMap.identity(3, ZZ)
    assert tensor(id2, id3) == SparseLinearMap.identity(6, ZZ)
    rng = random.Random(3)
    f = random_sparse(3, 4, ZZ, rng)
    assert tensor(f, SparseLinearMap.identity(1, ZZ)) == f
    assert tensor(SparseLinearMap.identity(1, ZZ), f) == f


@pytest.mark.parametrize("ring, values", RING_VALUES)
def test_tensor_matches_kron_oracle(ring, values):
    rng = random.Random(11)
    for _ in range(6):
        f = random_over(2, 3, ring, values, rng)
        g = random_over(3, 2, ring, values, rng)
        fg = tensor(f, g)
        assert_canonical(fg)
        assert dense_of(fg) == reduced(dense_kron(dense_of(f), dense_of(g)), ring)


def test_tensor_associative():
    rng = random.Random(5)
    f = random_sparse(2, 3, QQ, rng)
    g = random_sparse(3, 2, QQ, rng)
    h = random_sparse(2, 2, QQ, rng)
    assert tensor(f, tensor(g, h)) == tensor(tensor(f, g), h)


def test_transpose_involution():
    rng = random.Random(17)
    f = random_sparse(5, 3, ZZ, rng)
    assert f.transpose().transpose() == f


# -- rank / kernel -----------------------------------------------------------

def test_rank_trivial_cases():
    assert rank(SparseLinearMap.zero(4, 5, QQ)) == 0
    assert rank(SparseLinearMap.identity(6, QQ)) == 6
    assert kernel_dimension(SparseLinearMap.identity(6, QQ)) == 0
    assert kernel_dimension(SparseLinearMap.zero(3, 5, QQ)) == 5


def test_rank_depends_on_characteristic():
    two = SparseLinearMap.from_entries(1, 1, [(0, 0, 2)], ZZ)
    assert rank(two) == 1
    assert rank(two.with_ring(PrimeField(2))) == 0


def test_rank_matches_dense_oracle():
    rng = random.Random(23)
    for trial in range(12):
        f = random_sparse(6, 7, QQ, rng, density=0.5)
        assert rank(f) == dense_rank(dense_of(f))


def test_rank_mod_p_matches_dense_oracle():
    rng = random.Random(29)
    f3 = PrimeField(3)
    for _ in range(12):
        entries = [(r, c, rng.randint(0, 2)) for r in range(6) for c in range(6)
                   if rng.random() < 0.5]
        m = SparseLinearMap.from_entries(6, 6, entries, f3)
        assert rank(m) == dense_rank_mod_p(dense_of(m), 3)


def test_rank_plus_kernel():
    rng = random.Random(31)
    for _ in range(8):
        f = random_sparse(5, 8, QQ, rng, density=0.4)
        assert rank(f) + kernel_dimension(f) == f.cols


def test_rank_with_rational_entries():
    m = from_dense([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]], QQ)
    assert rank(m) == dense_rank(dense_of(m))


# -- Smith normal form -------------------------------------------------------

def test_snf_diag_examples():
    m = from_dense([[2, 0], [0, 3]], ZZ)
    assert smith_normal_form(m) == [1, 6]
    assert smith_normal_form(SparseLinearMap.identity(4, ZZ)) == [1, 1, 1, 1]
    assert smith_normal_form(SparseLinearMap.zero(3, 4, ZZ)) == []


def test_snf_hand_case():
    # [[2, 4], [6, 8]]: d1 = gcd of entries = 2, d2 = |det|/d1 = 8/2 = 4
    m = from_dense([[2, 4], [6, 8]], ZZ)
    assert smith_normal_form(m) == [2, 4]


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(37)
    for _ in range(15):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        dense = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        m = from_dense(dense, ZZ)
        assert smith_normal_form(m) == snf_by_minor_gcds(dense)


def test_snf_divisibility_chain_and_rank():
    rng = random.Random(41)
    for _ in range(10):
        m = random_sparse(5, 6, ZZ, rng, density=0.5, span=6)
        fs = smith_normal_form(m)
        for a, b in zip(fs, fs[1:]):
            assert b % a == 0
        assert len(fs) == rank(m.with_ring(QQ))


def test_snf_of_disguised_diagonal():
    # 12x15 U.D.V; the factors 2 and 3 recombine into 1 and 6, so the
    # normalized chain of D is 1^4 2^2 6^4.
    diag = [1, 2, 6, 0, 1, 3, 2, 6, 0, 1, 6, 2]
    d = [[diag[i] if i == j else 0 for j in range(15)] for i in range(12)]
    rng = random.Random(47)
    for _ in range(5):
        m = from_dense(unimodular_mix(d, rng, 60), ZZ)
        assert smith_normal_form(m) == [1, 1, 1, 1, 2, 2, 6, 6, 6, 6]


def test_snf_without_unit_entries_matches_oracle():
    rng = random.Random(53)
    for _ in range(12):
        dense = [[rng.choice((0, 0, 2, -2, 3, -3, 4, 6, -9)) for _ in range(5)]
                 for _ in range(4)]
        assert smith_normal_form(from_dense(dense, ZZ)) == snf_by_minor_gcds(dense)


def test_rack_boundaries_universal_coefficients():
    # R4 rack boundaries: rank over Q is the number of invariant factors,
    # rank over F_p the number of them prime to p.
    c = named_complex(shelf_braiding(dihedral_shelf(4)), "rack", 5)
    for n in (4, 5):
        m = c.diffs[n]
        factors = smith_normal_form(m)
        assert any(f % 2 == 0 for f in factors)
        assert len(factors) == rank(m.with_ring(QQ))
        for p in (2, 5, 7):
            assert rank(m.with_ring(PrimeField(p))) == sum(1 for f in factors if f % p)


# -- elimination kernel: property tests against the dense oracles ---------------
#
# The kernel takes its pivots in the sparsest column first, so the families
# below stress the column order: wide matrices whose extra columns each meet
# one row, integer matrices without a +-1 entry (every Smith pivot is then
# Euclidean), and mixed ones where unit and non-unit pivots alternate.

KERNEL = settings(derandomize=True, max_examples=100, deadline=None, database=None)
SMALL = tuple(range(-3, 4))
UNIT_FREE = (2, -2, 3, -3, 4, 6)
MIXED = (1, -1, 2, -3, 6)


@hs.composite
def integer_matrices(draw, max_rows=5, max_cols=6):
    """A dense integer matrix from one of four families: sparse, wide,
    unit-free or mixed."""
    family = draw(hs.sampled_from(["sparse", "wide", "unit-free", "mixed"]))
    values = {"unit-free": UNIT_FREE, "mixed": MIXED}.get(family, SMALL)
    entry = hs.sampled_from((0,) * draw(hs.integers(0, 3)) + values)
    rows = draw(hs.integers(1, max_rows))
    cols = draw(hs.integers(1, 3 if family == "wide" else max_cols))
    dense = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if family == "wide":
        for _ in range(draw(hs.integers(1, 8))):
            r, v = draw(hs.integers(0, rows - 1)), draw(hs.sampled_from((1, -1, 2, -3)))
            for i, row in enumerate(dense):
                row.append(v if i == r else 0)
    return dense


@KERNEL
@given(integer_matrices(), hs.lists(hs.integers(1, 4), min_size=5, max_size=5),
       hs.sampled_from([2, 3, 7]))
def test_kernel_matches_dense_oracles(dense, dens, p):
    """rank over Q (rows divided by small denominators), rank over F_p and
    the Smith form over Z agree with the dense oracles."""
    rational = [[Fraction(v, dens[i]) for v in row] for i, row in enumerate(dense)]
    assert rank(from_dense(rational, QQ)) == dense_rank(rational)
    assert rank(from_dense(dense, ZZ).with_ring(PrimeField(p))) == dense_rank_mod_p(dense, p)
    assert smith_normal_form(from_dense(dense, ZZ)) == snf_by_minor_gcds(dense)


@hs.composite
def chain_pairs(draw):
    """Dense integer (d1, d2) with d1 d2 = 0: d1 = [D1 | 0] and d2 = [0 ; D2]
    seen through a random unimodular change of the middle basis, each step
    row i += q row j of d2 and column j -= q column i of d1."""
    values = draw(hs.sampled_from([SMALL, UNIT_FREE, MIXED]))
    entry = hs.sampled_from((0,) + values)
    mid = draw(hs.integers(1, 6))
    split = draw(hs.integers(0, mid))
    k, l = draw(hs.integers(1, 4)), draw(hs.integers(1, 5))
    d1 = [[draw(entry) if c < split else 0 for c in range(mid)] for _ in range(k)]
    d2 = [[draw(entry) if r >= split else 0 for _ in range(l)] for r in range(mid)]
    if mid > 1:
        for _ in range(draw(hs.integers(0, 6))):
            i, j = draw(hs.permutations(range(mid)))[:2]
            q = draw(hs.sampled_from((-2, -1, 1, 2)))
            d2[i] = [x + q * y for x, y in zip(d2[i], d2[j])]
            for row in d1:
                row[j] -= q * row[i]
    return d1, d2


@KERNEL
@given(chain_pairs(), hs.sampled_from(["z", "q", "fp:2", "fp:3"]))
def test_chain_elimination_matches_per_boundary(pair, ring_name):
    """Eliminating a pair with d1 d2 = 0 as a chain (step -1) or its
    transpose as a cochain (step +1) gives the per-boundary answers."""
    d1, d2 = (from_dense(d, ZZ) for d in pair)
    assert d1.compose(d2).is_zero()
    field = None if ring_name == "z" else ring_from_name(ring_name)

    def alone(m):
        return _eliminate(m if field is None else m.with_ring(field), field is None)[0]

    expected = {1: alone(d1), 2: alone(d2)}
    assert _eliminate_chain({1: d1, 2: d2}, -1, field) == expected
    assert _eliminate_chain({0: d1.transpose(), 1: d2.transpose()}, 1, field) == \
        {0: expected[1], 1: expected[2]}


def test_snf_rejects_fractions():
    m = from_dense([[Fraction(1, 2)]], QQ)
    with pytest.raises(ExactError):
        smith_normal_form(m)


def _raw(rows, cols, ring, dense):
    """A map holding dense's entries as given, without the ring's coercion,
    the way a map built column by column holds them."""
    data = {}
    for r, row in enumerate(dense):
        for c, v in enumerate(row):
            if v:
                data.setdefault(c, {})[r] = v
    return SparseLinearMap(rows, cols, ring, data)


INTEGRAL = [[2, 4, 0], [6, 8, 2], [0, 2, 4]]


def test_elimination_of_integral_fraction_entries_over_q():
    """Integral Fractions eliminate as the ints they equal: same rank, same
    pivots and the same Smith form."""
    ints = _raw(3, 3, QQ, INTEGRAL)
    fractions = _raw(3, 3, QQ, [[Fraction(v) for v in row] for row in INTEGRAL])
    assert type(next(fractions.entries())[2]) is Fraction
    assert _eliminate(fractions, smith=False) == _eliminate(ints, smith=False)
    assert _eliminate(fractions, smith=True) == _eliminate(ints, smith=True)
    assert smith_normal_form(fractions) == snf_by_minor_gcds(INTEGRAL) == [2, 2, 10]


def test_elimination_of_a_proper_fraction_over_q():
    """A proper fraction is cleared from its row before elimination, and
    the Smith form still refuses it."""
    dense = [[Fraction(1, 2), 1, 0], [1, 3, Fraction(2, 3)], [0, 1, 1]]
    m = _raw(3, 3, QQ, dense)
    assert rank(m) == dense_rank(dense) == 3
    scaled = _raw(3, 3, QQ, [[1, 2, 0], [3, 9, 2], [0, 1, 1]])
    assert _eliminate(m, smith=False) == _eliminate(scaled, smith=False)
    with pytest.raises(ExactError, match="Smith normal form needs integer entries"):
        smith_normal_form(m)


@pytest.mark.parametrize("ring", [ZZ, QQ, PrimeField(7)])
def test_elimination_leaves_its_map_unchanged(ring):
    rng = random.Random(41)
    m = random_sparse(8, 9, ring, rng, density=0.5)
    before = list(m.entries())
    _eliminate(m, smith=ring is ZZ)
    assert list(m.entries()) == before


# -- invertibility -------------------------------------------------------------

def random_unimodular(n, rng):
    """The identity under random row additions, swaps and sign changes, so
    an integer matrix of determinant +-1."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            k = rng.choice([-2, -1, 1, 2])
            a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        a[i], a[j] = a[j], [-x for x in a[i]]
    return a


def test_is_invertible_matches_dense_oracles():
    # over Z invertible means unimodular: diag(2, 1) is invertible over Q
    # and over F3, but not over Z or F2
    diag = [[2, 0], [0, 1]]
    assert not is_invertible(from_dense(diag, ZZ))
    assert is_invertible(from_dense(diag, QQ))
    assert is_invertible(from_dense(diag, PrimeField(3)))
    assert not is_invertible(from_dense(diag, PrimeField(2)))
    for ring in (ZZ, QQ, PrimeField(2)):
        # a non-square map is never invertible, the empty one always
        assert not is_invertible(from_dense([[1, 0, 0], [0, 1, 0]], ring))
        assert is_invertible(SparseLinearMap.identity(0, ring))
    rng = random.Random(15)
    seen = {name: set() for name in ("z", "q", "fp")}
    q_only = 0
    for trial in range(240):
        n = rng.randint(1, 4)
        kind = trial % 3
        if kind == 0:
            mat = random_unimodular(n, rng)
        elif kind == 1:
            # determinant +-2 or +-3: invertible over Q and over F_p for p
            # not dividing it
            mat = random_unimodular(n, rng)
            r = rng.randrange(n)
            mat[r] = [rng.choice([2, 3]) * x for x in mat[r]]
        else:
            mat = [[rng.choice([-2, -1, 0, 0, 1, 2]) for _ in range(n)] for _ in range(n)]
        unimodular = _det(mat) in (1, -1)
        assert unimodular == (snf_by_minor_gcds(mat) == [1] * n)
        got = is_invertible(from_dense(mat, ZZ))
        assert got == unimodular, mat
        seen["z"].add(got)
        # rows scaled by random denominators keep the rank over Q
        qmat = [[Fraction(x, rng.randint(1, 3)) for x in row] for row in mat]
        got = is_invertible(from_dense(qmat, QQ))
        assert got == (dense_rank(qmat) == n), qmat
        seen["q"].add(got)
        q_only += got and not unimodular
        for p in (2, 3, 7):
            got = is_invertible(from_dense(mat, PrimeField(p)))
            assert got == (dense_rank_mod_p(mat, p) == n), (p, mat)
            seen["fp"].add(got)
    assert all(v == {True, False} for v in seen.values())
    assert q_only > 0
