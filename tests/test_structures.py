import itertools
import random
from fractions import Fraction

import pytest

from braidhom import (
    ExactError,
    PrimeField,
    QQ,
    SparseLinearMap,
    ZZ,
    adjoin_unit,
    algebra_character_check,
    algebra_from_constants,
    assoc_braiding,
    check_assoc,
    check_braided_character,
    check_leibniz,
    check_shelf,
    check_ybe,
    coalgebra_extend,
    coassoc_braiding,
    compose,
    dihedral_shelf,
    dirac_character,
    dual_coalgebra,
    flip_braiding,
    koszul_braiding,
    leibniz_braiding,
    lie_character_check,
    q_flip_braiding,
    shelf_braiding,
    signed_flip_braiding,
    tensor,
    trivial_shelf,
    twist_character,
)
from braidhom.braiding import block_flip
from braidhom.structures import ShelfTable

from conftest import (
    dual_numbers_data,
    kz2_data,
    nonlie_leibniz_data,
    sl2_data,
    verify_space,
)
from helpers import cyclic_shelf, shelf_orbit_character


# -- shelf checks -------------------------------------------------------------

def test_check_shelf_dihedral():
    rep = check_shelf(dihedral_shelf(3))
    assert rep.self_distributive and rep.rack and rep.quandle and rep.spindle


def test_check_shelf_trivial():
    rep = check_shelf(trivial_shelf(3))
    assert rep.self_distributive and rep.rack and rep.quandle


def test_check_shelf_cyclic_rack_not_quandle():
    rep = check_shelf(cyclic_shelf(3))
    assert rep.self_distributive and rep.rack
    assert not rep.quandle and not rep.spindle
    assert rep.idem_witness is not None


def test_check_shelf_constant_map():
    # a <| b = c0: self-distributive, not a rack unless the set is a point
    t = ShelfTable(((1, 1), (1, 1)))
    rep = check_shelf(t)
    assert rep.self_distributive and not rep.rack
    assert rep.rack_witness is not None


def test_check_shelf_non_sd_witness():
    t = ShelfTable(tuple(tuple((a + b) % 3 for b in range(3)) for a in range(3)))
    rep = check_shelf(t)
    assert not rep.self_distributive
    a, b, c = rep.sd_witness
    assert t.op(t.op(a, b), c) != t.op(t.op(a, c), t.op(b, c))


# -- shelf braiding -------------------------------------------------------------

def test_trivial_shelf_braiding_is_flip():
    space = shelf_braiding(trivial_shelf(3), ZZ)
    assert space.braiding == block_flip(ZZ, 3, 3)


def test_dihedral_braiding_entry():
    space = shelf_braiding(dihedral_shelf(3), ZZ)
    # e0 (x) e1 -> e1 (x) e2 since 0 <| 1 = 2
    assert space.braiding.entry(1 * 3 + 2, 0 * 3 + 1) == 1


def test_sd_iff_ybe_sampled():
    rng = random.Random(99)
    tables = [dihedral_shelf(3), trivial_shelf(3), cyclic_shelf(3)]
    tables += [ShelfTable(tuple(tuple(rng.randrange(3) for _ in range(3))
                                for _ in range(3))) for _ in range(60)]
    seen_sd = seen_nonsd = 0
    for t in tables:
        sd = check_shelf(t).self_distributive
        ybe = check_ybe(shelf_braiding(t, ZZ)).ok
        assert sd == ybe
        seen_sd += sd
        seen_nonsd += not sd
    assert seen_sd and seen_nonsd


def test_orbit_character_braided_and_compatible():
    t = dihedral_shelf(4)  # two orbits: evens and odds
    space = shelf_braiding(t, ZZ)
    check_ybe(space)
    space.add_character("parity", shelf_orbit_character(t, [1, 2, 1, 2], ZZ))
    space.add_character("other", shelf_orbit_character(t, [3, 1, 3, 1], ZZ))
    assert check_braided_character(space, "parity").ok
    assert check_braided_character(space, "other").ok
    from braidhom import check_character_compat
    assert check_character_compat(space, "parity", "other").ok


def test_orbit_character_rejects_nonconstant():
    with pytest.raises(ExactError):
        shelf_orbit_character(dihedral_shelf(3), [1, 0, 0], ZZ)


# -- dirac / twist characters ----------------------------------------------------

def test_dirac_character_on_quandle():
    t = dihedral_shelf(3)
    space = shelf_braiding(t, ZZ)
    check_ybe(space)
    space.add_character("d0", dirac_character(t, 0, ZZ))
    assert check_braided_character(space, "d0").ok


def test_dirac_character_rejected_on_cyclic_rack():
    with pytest.raises(ExactError):
        dirac_character(cyclic_shelf(2), 0, ZZ)


def test_twist_character_unit_value():
    ones = twist_character(1, 3, ZZ)
    assert [ones.entry(0, j) for j in range(3)] == [1, 1, 1]
    with pytest.raises(ExactError):
        twist_character(2, 3, ZZ)  # 2 is not a unit in Z
    assert twist_character(Fraction(2), 3, QQ) is not None


# -- simple braidings -------------------------------------------------------------

def test_flip_and_signed_flip():
    d = 2
    assert flip_braiding(d, ZZ).braiding == block_flip(ZZ, d, d)
    assert signed_flip_braiding(d, ZZ).braiding == block_flip(ZZ, d, d).neg()


def test_koszul_braiding_signs():
    space = koszul_braiding([1, 1], ZZ)
    # odd (x) odd picks up a sign; the matrix is minus the swap
    assert space.braiding == block_flip(ZZ, 2, 2).neg()
    mixed = koszul_braiding([0, 1], ZZ)
    assert mixed.braiding.entry(0 * 2 + 1, 1 * 2 + 0) == 1   # e1 (x) e0 -> e0 (x) e1
    assert mixed.braiding.entry(1 * 2 + 1, 1 * 2 + 1) == -1  # e1 (x) e1 -> -e1 (x) e1
    assert check_ybe(mixed).ok


def test_q_flip_square_and_zero_rejection():
    q = Fraction(3, 2)
    space = q_flip_braiding(q, QQ)
    sq = compose(space.braiding, space.braiding)
    assert sq.entry(0, 0) == q * q
    with pytest.raises(ExactError):
        q_flip_braiding(0, QQ)


# -- associative algebras ----------------------------------------------------------

def test_check_assoc_dual_numbers():
    rep = check_assoc(dual_numbers_data(ZZ))
    assert rep.associative and rep.right_unital and rep.left_unital


def test_assoc_braiding_group_algebra_entries():
    space = assoc_braiding(kz2_data(ZZ))
    # g*g = e: sigma(g (x) g) = e (x) e
    assert space.braiding.entry(0 * 2 + 0, 1 * 2 + 1) == 1
    # right unit: sigma(v (x) 1) = 1 (x) v
    assert space.braiding.entry(0 * 2 + 1, 1 * 2 + 0) == 1


def test_assoc_braiding_idempotent_when_two_sided():
    space = assoc_braiding(kz2_data(ZZ))
    sq = compose(space.braiding, space.braiding)
    assert sq == space.braiding


def test_assoc_characters_on_group_algebra():
    data = kz2_data(ZZ)
    aug = SparseLinearMap.from_entries(1, 2, [(0, 0, 1), (0, 1, 1)], ZZ)
    sgn = SparseLinearMap.from_entries(1, 2, [(0, 0, 1), (0, 1, -1)], ZZ)
    bad = SparseLinearMap.from_entries(1, 2, [(0, 0, 1), (0, 1, 2)], ZZ)
    assert algebra_character_check(data, aug).ok
    assert algebra_character_check(data, sgn).ok
    assert not algebra_character_check(data, bad).ok


def _assoc_family():
    yield kz2_data(ZZ), True
    yield dual_numbers_data(ZZ), True
    # truncated polynomials k[x]/x^3
    tri = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (0, 2, 2, 1), (2, 0, 2, 1),
           (1, 1, 2, 1)]
    yield algebra_from_constants("associative", 3, tri, ZZ, unit_index=0), True
    # perturbation keeping the right unit but breaking associativity
    bad = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (0, 2, 2, 1), (2, 0, 2, 1),
           (1, 1, 2, 1), (1, 2, 0, 1)]
    yield algebra_from_constants("associative", 3, bad, ZZ, unit_index=0), False
    # single-generator commutative quotient: always associative
    ok2 = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 1)]
    yield algebra_from_constants("associative", 2, ok2, ZZ, unit_index=0), True
    # right unit that is not a left unit (e*g = 0): (gg)g = 0 but g(gg) = g
    bad2 = [(0, 0, 0, 1), (1, 0, 1, 1), (1, 1, 0, 1)]
    yield algebra_from_constants("associative", 2, bad2, ZZ, unit_index=0), False


def test_assoc_iff_ybe_family():
    for data, expect in _assoc_family():
        rep = check_assoc(data)
        assert rep.right_unital
        assert rep.associative == expect
        space = assoc_braiding(data)
        assert check_ybe(space).ok == expect


def test_assoc_braiding_requires_unit():
    data = algebra_from_constants("associative", 1, [], ZZ)
    with pytest.raises(ExactError):
        assoc_braiding(data)


# -- Leibniz algebras ----------------------------------------------------------------

def test_check_leibniz_sl2():
    rep = check_leibniz(sl2_data(ZZ))
    assert rep.leibniz


def test_check_leibniz_rejects_idempotent_bracket():
    # [x,x] = x fails the derivation identity: [x,[x,x]] = x but the
    # right-hand side cancels to zero
    data = algebra_from_constants("leibniz", 1, [(0, 0, 0, 1)], ZZ)
    rep = check_leibniz(data)
    assert not rep.leibniz
    assert rep.witness == (0, 0, 0)


def test_check_leibniz_nonlie_square():
    rep = check_leibniz(nonlie_leibniz_data(ZZ))
    assert rep.leibniz


def test_abelian_bracket_gives_flip():
    data = adjoin_unit(algebra_from_constants("leibniz", 2, [], ZZ))
    space = leibniz_braiding(data)
    assert space.braiding == block_flip(ZZ, 3, 3)


def test_sl2_braiding_entry(sl2_unital):
    # sigma(e (x) f) = f (x) e + 1 (x) h  (indices e=0, f=1, h=2, unit=3)
    col = 0 * 4 + 1
    assert sl2_unital.braiding.entry(1 * 4 + 0, col) == 1
    assert sl2_unital.braiding.entry(3 * 4 + 2, col) == 1


def test_leibniz_iff_ybe_family():
    cases = [
        (adjoin_unit(algebra_from_constants("leibniz", 2, [], ZZ)), True),
        (adjoin_unit(sl2_data(ZZ)), True),
        (adjoin_unit(nonlie_leibniz_data(ZZ)), True),
        # perturbed sl2: flip the sign of [f,e]
        (adjoin_unit(algebra_from_constants(
            "leibniz", 3,
            [(0, 1, 2, 1), (1, 0, 2, 1), (2, 0, 0, 2), (0, 2, 0, -2),
             (2, 1, 1, -2), (1, 2, 1, 2)], ZZ)), False),
    ]
    for data, expect in cases:
        assert check_leibniz(data).leibniz == expect
        space = leibniz_braiding(data)
        assert check_ybe(space).ok == expect


def test_lie_character_on_sl2(sl2_unital):
    data = sl2_unital.payload
    unit_dual = SparseLinearMap.from_entries(1, 4, [(0, 3, 1)], ZZ)
    assert lie_character_check(data, unit_dual).ok
    bad = SparseLinearMap.from_entries(1, 4, [(0, 2, 1), (0, 3, 1)], ZZ)
    assert not lie_character_check(data, bad).ok


# -- unit adjunction --------------------------------------------------------------

def test_adjoin_unit_zero_algebra_gives_dual_numbers():
    data = algebra_from_constants("associative", 1, [], ZZ)
    ext = adjoin_unit(data)
    assert ext.dim == 2 and ext.unit_index == 1
    rep = check_assoc(ext)
    assert rep.associative and rep.right_unital and rep.left_unital
    # x*x = 0 in the extension
    assert not ext.operation.column(0 * 2 + 0)


def test_adjoin_unit_preserves_brackets():
    ext = adjoin_unit(sl2_data(ZZ))
    assert ext.dim == 4
    # [e,f] = h survives; unit is central
    assert ext.operation.entry(2, 0 * 4 + 1) == 1
    assert check_leibniz(ext).unit_central


def test_adjoin_unit_assoc_equivalence():
    # associativity of the extension iff associativity of the original
    bad = algebra_from_constants("associative", 2, [(0, 0, 1, 1), (1, 1, 0, 1),
                                                    (0, 1, 0, 1)], ZZ)
    assert not check_assoc(bad).associative
    assert not check_assoc(adjoin_unit(bad)).associative
    good = algebra_from_constants("associative", 1, [(0, 0, 0, 1)], ZZ)
    assert check_assoc(good).associative
    assert check_assoc(adjoin_unit(good)).associative


def test_adjoin_unit_refuses_twice():
    data = adjoin_unit(algebra_from_constants("associative", 1, [], ZZ))
    with pytest.raises(ExactError):
        adjoin_unit(data)


# -- coalgebras --------------------------------------------------------------------

def test_coalgebra_extend_primitive():
    from conftest import zero_coalgebra_data
    ext = coalgebra_extend(zero_coalgebra_data(ZZ))
    assert ext.dim == 2 and ext.unit_index == 1
    # Delta(x) = 1 (x) x + x (x) 1, Delta(1) = 1 (x) 1
    assert ext.operation.entry(1 * 2 + 0, 0) == 1
    assert ext.operation.entry(0 * 2 + 1, 0) == 1
    assert ext.operation.entry(1 * 2 + 1, 1) == 1


def test_coalgebra_extend_coassociativity_equivalence():
    # delta(x) = x (x) x is coassociative; check the extension is too
    data = algebra_from_constants("coalgebra", 1, [(0, 0, 0, 1)], ZZ)
    ext = coalgebra_extend(data)
    space = coassoc_braiding(ext)
    check_ybe(space)
    from braidhom import check_braided_coalgebra
    space.comultiplication = ext.operation
    assert check_braided_coalgebra(space).coassociative
    # non-coassociative delta on 2 dims: delta(x) = x (x) y
    bad = algebra_from_constants("coalgebra", 2, [(0, 1, 0, 1)], ZZ)
    bspace = coassoc_braiding(coalgebra_extend(bad))
    bspace.comultiplication = coalgebra_extend(bad).operation
    assert not check_braided_coalgebra(bspace).coassociative


def test_coassoc_braiding_is_transpose_of_dual_algebra():
    for data in (kz2_data(ZZ), dual_numbers_data(ZZ)):
        co = dual_coalgebra(data)
        cospace = coassoc_braiding(co)
        algspace = assoc_braiding(data)
        assert cospace.braiding == algspace.braiding.transpose()
        assert check_ybe(cospace).ok


def test_coassoc_braiding_degenerate_line():
    # d = 1, Delta(x) = x (x) x, eps(x) = 1: braiding is the identity
    data = algebra_from_constants("coalgebra", 1, [(0, 0, 0, 1)], ZZ)
    data.counit = SparseLinearMap.from_entries(1, 1, [(0, 0, 1)], ZZ)
    space = coassoc_braiding(data)
    assert space.braiding == SparseLinearMap.identity(1, ZZ)


def test_coassoc_braiding_needs_counit():
    from conftest import zero_coalgebra_data
    with pytest.raises(ExactError):
        coassoc_braiding(zero_coalgebra_data(ZZ))


# -- the flip-like braidings, the Leibniz braidings and the coalgebra extension
# against their defining formulas, entry by entry, over Z, Q and F_p ------------

FORMULA_RINGS = (ZZ, QQ, PrimeField(3), PrimeField(5))


def _scalars(ring, rng):
    if ring is QQ:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return rng.randint(-4, 4)


def _as_entries(ring, acc: dict) -> dict:
    """(row, col) -> value with each value in the ring and the zeros dropped."""
    out = {}
    for key, v in acc.items():
        v = ring.coerce(v)
        if v:
            out[key] = v
    return out


def _entries(m: SparseLinearMap) -> dict:
    return {(r, c): v for r, c, v in m.entries()}


def _signed_swap(grading) -> dict:
    """e_a (x) e_b -> (-1)^(g_a g_b) e_b (x) e_a, as (row, col) -> value."""
    d = len(grading)
    return {(b * d + a, a * d + b): (-1) ** abs(grading[a] * grading[b])
            for a in range(d) for b in range(d)}


@pytest.mark.parametrize("ring", FORMULA_RINGS, ids=str)
def test_flips_match_their_formula(ring):
    rng = random.Random(11)
    for d in range(1, 5):
        assert _entries(flip_braiding(d, ring).braiding) == _as_entries(ring, _signed_swap([0] * d))
        assert _entries(signed_flip_braiding(d, ring).braiding) == \
            _as_entries(ring, _signed_swap([1] * d))
        for _ in range(5):
            grading = [rng.randint(-3, 3) for _ in range(d)]
            assert _entries(koszul_braiding(grading, ring).braiding) == \
                _as_entries(ring, _signed_swap(grading))


@pytest.mark.parametrize("ring", FORMULA_RINGS, ids=str)
def test_leibniz_braidings_match_their_formula(ring):
    """sigma(e_i (x) e_j) = (-1)^(g_i g_j) e_j (x) e_i + e_u (x) [e_i, e_j],
    with g = 0 for the ungraded braiding; only the ungraded one carries the
    primitive comultiplication Delta(u) = u (x) u, Delta(v) = u (x) v + v (x) u."""
    rng = random.Random(5)
    for _ in range(25):
        d = rng.randint(1, 3)
        triples = [(rng.randrange(d), rng.randrange(d), rng.randrange(d), _scalars(ring, rng))
                   for _ in range(rng.randint(0, 5))]
        grading = [rng.randint(-2, 3) for _ in range(d)]
        ext = adjoin_unit(algebra_from_constants("leibniz", d, triples, ring, grading=grading))
        n, u = d + 1, d
        bracket = {}
        for i, j, k, v in triples:
            bracket[(u * n + k, i * n + j)] = bracket.get((u * n + k, i * n + j), 0) + v
        for graded, degrees in ((False, [0] * n), (True, grading + [0])):
            want = _signed_swap(degrees)
            for key, v in bracket.items():
                want[key] = want.get(key, 0) + v
            space = leibniz_braiding(ext, graded=graded)
            assert _entries(space.braiding) == _as_entries(ring, want), (triples, graded)
            if graded:
                assert space.comultiplication is None
            else:
                delta = {(u * n + v, v): 1 for v in range(n)}
                delta.update({(v * n + u, v): 1 for v in range(d)})
                assert _entries(space.comultiplication) == _as_entries(ring, delta)


@pytest.mark.parametrize("ring", FORMULA_RINGS, ids=str)
def test_coalgebra_extension_matches_its_formula(ring):
    """Delta(u) = u (x) u and Delta(v) = delta(v) + u (x) v + v (x) u."""
    rng = random.Random(3)
    for _ in range(25):
        d = rng.randint(1, 3)
        triples = [(rng.randrange(d), rng.randrange(d), rng.randrange(d), _scalars(ring, rng))
                   for _ in range(rng.randint(0, 5))]
        ext = coalgebra_extend(algebra_from_constants("coalgebra", d, triples, ring))
        n, u = d + 1, d
        want = {(u * n + u, u): 1}
        for v in range(d):
            want[(u * n + v, v)] = want.get((u * n + v, v), 0) + 1
            want[(v * n + u, v)] = want.get((v * n + u, v), 0) + 1
        for i, j, k, v in triples:
            want[(i * n + j, k)] = want.get((i * n + j, k), 0) + v
        assert (ext.kind, ext.dim, ext.unit_index, ext.grading) == ("coalgebra", n, u, None)
        assert _entries(ext.operation) == _as_entries(ring, want), triples
        assert _entries(ext.counit) == {(0, u): 1}


def test_graded_leibniz_refuses_odd_or_non_central_unit():
    # [e_0, e_1] = e_0, so the unit e_1 is not central
    data = algebra_from_constants("leibniz", 2, [(0, 1, 0, 1)], ZZ, unit_index=1,
                                  grading=[1, 1])
    with pytest.raises(ExactError, match="unit must have even degree"):
        leibniz_braiding(data, graded=True)
    data.grading = [1, 0]
    with pytest.raises(ExactError, match="not central"):
        leibniz_braiding(data, graded=True)
    with pytest.raises(ExactError, match="needs a grading"):
        leibniz_braiding(adjoin_unit(sl2_data(ZZ)), graded=True)
