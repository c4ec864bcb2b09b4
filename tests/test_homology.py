import random
from fractions import Fraction

import pytest

from braidhom import (
    DifferentialSpec,
    PrimeField,
    QQ,
    ResourceCapError,
    SparseLinearMap,
    SpanStabilityError,
    SquareZeroError,
    ZZ,
    assemble,
    betti,
    certify_acyclic,
    check_braided_character,
    check_ybe,
    combined_diff,
    compose,
    concat_homotopy,
    crossing_action,
    flip_braiding,
    integral_homology,
    left_diff,
    named_complex,
    rack_contraction,
    shelf_braiding,
    subquotient,
    tensor,
    trivial_shelf,
)
from braidhom.complexes import repeated_neighbor_span, unit_factor_span
from braidhom.homology import build_chain_complex
from braidhom.exactlin import digits_of

from helpers import dense_of, dense_rank
from conftest import verify_space


# -- assembly -----------------------------------------------------------------

def test_assemble_rack_complex(r3):
    spec = DifferentialSpec(kind="combined", left_char="ones", right_char="ones")
    c = assemble(r3, spec, 4)
    assert c.dims == [1, 3, 9, 27, 81]
    assert set(c.diffs) == {1, 2, 3, 4}


def test_assemble_single_degree(r3):
    spec = DifferentialSpec(kind="left", left_char="ones")
    c = assemble(r3, spec, 1)
    assert set(c.diffs) == {1}


def test_assemble_rejects_broken_character(r3):
    r3.add_character("broken", [1, 2, 0])  # not a braided character
    spec = DifferentialSpec(kind="left", left_char="broken")
    with pytest.raises(SquareZeroError) as err:
        assemble(r3, spec, 3, allow_unverified=True)
    assert err.value.entry is not None


def test_assemble_resource_cap(r3):
    spec = DifferentialSpec(kind="left", left_char="ones")
    with pytest.raises(ResourceCapError):
        assemble(r3, spec, 3, basis_cap=20)


def test_assemble_named_passthrough(r3):
    spec = DifferentialSpec(kind="named", name="rack")
    c = assemble(r3, spec, 3)
    assert c.builder == "rack"


# -- betti numbers ---------------------------------------------------------------

def test_betti_trivial_quandle_full_rank(trivial2, trivial3):
    for space, m in ((trivial2, 2), (trivial3, 3)):
        c = named_complex(space, "rack", 4)
        rep = betti(c, QQ)
        for n in range(5):
            assert rep.degrees[n].free_rank == m ** n


def test_betti_right_shelf_complex_acyclic(r3):
    spec = DifferentialSpec(kind="right", right_char="ones")
    c = assemble(r3, spec, 5)
    rep = betti(c, QQ)
    for n in range(5):
        assert rep.degrees[n].free_rank == 0


def test_betti_koszul_acyclic():
    space = flip_braiding(2, QQ)
    check_ybe(space)
    space.add_character("e", [1, 1])
    check_braided_character(space, "e")
    spec = DifferentialSpec(kind="left", left_char="e")
    c = assemble(space, spec, 5)
    rep = betti(c)
    for n in range(5):
        assert rep.degrees[n].free_rank == 0


def test_betti_over_prime_field(r3):
    c = named_complex(r3, "quandle", 3)
    rq = betti(c, QQ)
    r3f = betti(c, PrimeField(3))
    # universal coefficients: ranks can only grow mod p
    for n in range(4):
        assert r3f.degrees[n].free_rank >= rq.degrees[n].free_rank
    r5 = betti(c, PrimeField(5))
    for n in range(4):
        assert r5.degrees[n].free_rank == rq.degrees[n].free_rank


def test_euler_characteristic_consistency(r3, kz2):
    for space, spec in [
            (r3, DifferentialSpec(kind="combined", left_char="ones", right_char="ones")),
            (kz2, DifferentialSpec(kind="combined", left_char="aug", right_char="sign"))]:
        c = assemble(space, spec, 4)
        rep = betti(c, QQ)
        lhs = sum((-1) ** n * rep.degrees[n].free_rank for n in range(5))
        rhs = sum((-1) ** n * c.dims[n] for n in range(5))
        assert lhs == rhs


# -- integral homology --------------------------------------------------------------

def test_integral_toy_torsion():
    two = SparseLinearMap.from_entries(1, 1, [(0, 0, 2)], ZZ)
    c = build_chain_complex(ZZ, [1, 1], {1: two}, -1, "toy")
    rep = integral_homology(c)
    assert rep.degrees[0].free_rank == 0
    assert rep.degrees[0].torsion == [2]
    assert rep.degrees[1].free_rank == 0


def test_integral_rack_r3_free_rank_one(r3):
    c = named_complex(r3, "rack", 4)
    rep = integral_homology(c)
    for n in range(4):
        assert rep.degrees[n].free_rank == 1, n
    # low-degree torsion regression (degree 3 carries a copy of Z/3)
    assert rep.degrees[0].torsion == []
    assert rep.degrees[1].torsion == []
    assert rep.degrees[2].torsion == []
    assert rep.degrees[3].torsion == [3]


def test_integral_quandle_r3_torsion(r3):
    c = named_complex(r3, "quandle", 4)
    rep = integral_homology(c)
    assert rep.degrees[1].free_rank == 1
    assert rep.degrees[2].free_rank == 0
    assert rep.degrees[2].torsion == []
    assert rep.degrees[3].torsion == [3]


def test_integral_matches_rational_betti(r3, kz2):
    for space, spec in [
            (r3, DifferentialSpec(kind="combined", left_char="ones", right_char="ones")),
            (kz2, DifferentialSpec(kind="left", left_char="aug"))]:
        c = assemble(space, spec, 4)
        ih = integral_homology(c)
        bq = betti(c, QQ)
        for n in range(5):
            assert ih.degrees[n].free_rank == bq.degrees[n].free_rank


# -- acyclicity certificates ----------------------------------------------------------

def _unit_vector(space):
    return [1 if j == space.unit_index else 0 for j in range(space.dim)]


def test_certify_bar_type_unital_algebra(kz2):
    spec = DifferentialSpec(kind="left", left_char="aug")
    c = assemble(kz2, spec, 5)
    h = {n: concat_homotopy(kz2, _unit_vector(kz2), n) for n in range(5)}
    rep = certify_acyclic(c, h)
    assert rep.ok
    b = betti(c, QQ)
    for n in range(5):
        assert b.degrees[n].free_rank == 0


def test_certify_unital_leibniz(sl2_unital):
    spec = DifferentialSpec(kind="left", left_char="counit")
    c = assemble(sl2_unital, spec, 4)
    h = {n: concat_homotopy(sl2_unital, _unit_vector(sl2_unital), n) for n in range(4)}
    assert certify_acyclic(c, h).ok


def test_certify_right_shelf_any_element(r3):
    spec = DifferentialSpec(kind="right", right_char="ones")
    c = assemble(r3, spec, 5)
    h = {n: concat_homotopy(r3, [0, 1, 0], n) for n in range(5)}
    assert certify_acyclic(c, h).ok


def test_certify_left_rack_inverse_translation(r3):
    spec = DifferentialSpec(kind="left", left_char="ones")
    c = assemble(r3, spec, 5)
    for b in range(3):
        h = {n: rack_contraction(r3, b, n) for n in range(5)}
        rep = certify_acyclic(c, h)
        assert rep.ok
    bq = betti(c, QQ)
    for n in range(5):
        assert bq.degrees[n].free_rank == 0


def test_certify_koszul_normalized():
    space = flip_braiding(3, ZZ)
    check_ybe(space)
    space.add_character("e", [1, 0, 2])
    check_braided_character(space, "e")
    spec = DifferentialSpec(kind="left", left_char="e")
    c = assemble(space, spec, 4)
    h = {n: concat_homotopy(space, [1, 0, 0], n) for n in range(4)}
    assert certify_acyclic(c, h).ok


def test_certify_detects_failure(r3):
    c = named_complex(r3, "rack", 3)  # not acyclic
    h = {n: concat_homotopy(r3, [1, 0, 0], n) for n in range(3)}
    rep = certify_acyclic(c, h)
    assert not rep.ok


def test_certify_shape_mismatch(r3):
    c = named_complex(r3, "rack", 3)
    bad = {0: SparseLinearMap.zero(9, 1, ZZ)}
    with pytest.raises(Exception):
        certify_acyclic(c, bad)


# -- subquotients -----------------------------------------------------------------------

def test_subquotient_degenerate_span(r3):
    c = named_complex(r3, "rack", 4)
    preds = {n: repeated_neighbor_span(3, n) for n in range(5)}
    sub = subquotient(c, lambda n, f: preds[n](f), "sub")
    quot = subquotient(c, lambda n, f: preds[n](f), "quotient")
    assert quot.dims == [1, 3, 6, 12, 24]
    assert sub.dims == [0, 0, 3, 15, 57]
    # ranks add up
    for n in range(5):
        assert sub.dims[n] + quot.dims[n] == c.dims[n]


def test_subquotient_unit_span_group_algebra(kz2):
    spec = DifferentialSpec(kind="combined", left_char="aug", right_char="aug")
    c = assemble(kz2, spec, 4)
    preds = {n: unit_factor_span(2, n, 0) for n in range(5)}
    quot = subquotient(c, lambda n, f: preds[n](f), "quotient")
    assert quot.dims == [1, 1, 1, 1, 1]


def test_subquotient_rejects_unstable_span(r3):
    c = named_complex(r3, "rack", 3)
    rng = random.Random(5)
    for keep in ("sub", "quotient"):
        with pytest.raises(SpanStabilityError) as err:
            subquotient(c, lambda n, f: rng.random() < 0.5, keep)
        assert err.value.escaping_index is not None


# -- homology operations -------------------------------------------------------------------

def test_crossing_action_trivial_on_homology(r3):
    """On the combined complex the crossing action by b acts on homology as
    multiplication by the right character value (here 1): the difference
    sends cycles into boundaries."""
    c = named_complex(r3, "rack", 4)
    for n in (1, 2, 3):
        pi = crossing_action(r3, "ones", [0, 1, 0], n)
        delta = pi.sub_map(r3.identity_power(n))
        bnd = c.diffs[n + 1]
        dmat = dense_of(c.diffs[n])
        # kernel basis over Q via dense elimination on the transpose
        import itertools
        from fractions import Fraction
        a = [[Fraction(x) for x in row] for row in dmat]
        rows, cols = len(a), len(a[0])
        # row reduce
        piv_cols = []
        r = 0
        for ccol in range(cols):
            piv = None
            for rr in range(r, rows):
                if a[rr][ccol] != 0:
                    piv = rr
                    break
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            pv = a[r][ccol]
            a[r] = [x / pv for x in a[r]]
            for rr in range(rows):
                if rr != r and a[rr][ccol] != 0:
                    f = a[rr][ccol]
                    a[rr] = [x - f * y for x, y in zip(a[rr], a[r])]
            piv_cols.append(ccol)
            r += 1
        free_cols = [ccol for ccol in range(cols) if ccol not in piv_cols]
        kernel = []
        for fc in free_cols:
            vec = [Fraction(0)] * cols
            vec[fc] = Fraction(1)
            for rr, pc in enumerate(piv_cols):
                vec[pc] = -a[rr][fc]
            kernel.append(vec)
        # image test: rank([B | delta*k]) == rank(B)
        bdense = dense_of(bnd)
        base_rank = dense_rank(bdense)
        ddense = dense_of(delta)
        for vec in kernel:
            img = [sum(ddense[i][j] * vec[j] for j in range(cols)) for i in range(len(ddense))]
            aug = [brow + [img[i]] for i, brow in enumerate(bdense)]
            assert dense_rank(aug) == base_rank


# -- cochain direction ------------------------------------------------------------------------

def test_cochain_homology_direction():
    # cobar of delta(x) = x (x) x: d^n: C^n -> C^(n+1) has entry 0 or -1
    from braidhom import algebra_from_constants
    from test_complexes import shelf_like_coalgebra_space
    data = algebra_from_constants("coalgebra", 1, [(0, 0, 0, 1)], ZZ)
    c = named_complex(shelf_like_coalgebra_space(data), "cobar", 5)
    assert c.step == 1
    rep = betti(c, QQ)
    # entries alternate 0, -1, 0, -1, ... starting at degree 1
    # so cohomology is k in degree 0 and 0 afterwards (within range)
    assert rep.degrees[0].free_rank == 1
    for n in range(1, 5):
        assert rep.degrees[n].free_rank == 0
    ih = integral_homology(c)
    for n in range(5):
        assert ih.degrees[n].free_rank == rep.degrees[n].free_rank
        assert ih.degrees[n].torsion == []
