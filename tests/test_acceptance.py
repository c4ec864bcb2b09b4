"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are exact everywhere: every comparison is entrywise
equality of exact matrices or integer ranks.
"""

import itertools
import time
from fractions import Fraction

import pytest

from braidhom import (
    PrimeField,
    QQ,
    SparseLinearMap,
    ZZ,
    adjoin_unit,
    algebra_from_constants,
    assoc_braiding,
    betti,
    certify_acyclic,
    check_braided_character,
    check_braided_cocharacter,
    check_shelf,
    check_simplicial,
    check_ybe,
    coalgebra_extend,
    coassoc_braiding,
    combined_diff,
    compose,
    concat_homotopy,
    dihedral_shelf,
    dirac_character,
    dual_coalgebra,
    flip_braiding,
    hyper_boundary,
    integral_homology,
    left_codiff,
    left_diff,
    leibniz_braiding,
    named_complex,
    q_flip_braiding,
    rack_contraction,
    right_diff,
    shelf_braiding,
    signed_binomial,
    trivial_shelf,
)
from braidhom.identities import (
    check_antipode_axiom,
    check_coshuffle_coassociativity,
    check_hopf_compatibility,
    check_shuffle_associativity,
    check_sigma_commutativity,
)
from braidhom.complexes import (
    bicomodule_codiff,
    bimodule_diff,
    check_bicomodule,
    check_bimodule,
    check_braided_module,
    coalgebra_self_bicomodule,
    coeff_diff,
    regular_bimodule,
)
from braidhom.structures import ShelfTable

from conftest import (
    dual_numbers_data,
    kz2_data,
    nonlie_leibniz_data,
    sl2_data,
    verify_space,
    zero_coalgebra_data,
)
from helpers import cyclic_shelf, free_ranks, rackset_module
from test_complexes import (
    cobar_oracle,
    group_oracle,
    hochschild_oracle,
    leibniz_restricted_oracle,
    shelf_left_oracle,
    shelf_right_oracle,
    shelf_like_coalgebra_space,
)


def _pass(n, message):
    print(f"[PASS] criterion {n}: {message}")


def _space_r3():
    return verify_space(shelf_braiding(dihedral_shelf(3), ZZ))


def _space_trivial(m):
    return verify_space(shelf_braiding(trivial_shelf(m), ZZ))


def _space_kz2():
    space = assoc_braiding(kz2_data(ZZ))
    space.add_character("aug", [1, 1])
    space.add_character("sign", [1, -1])
    return verify_space(space)


def _space_dual_numbers():
    space = assoc_braiding(dual_numbers_data(ZZ))
    space.add_character("counit", [1, 0])
    return verify_space(space)


def _space_sl2():
    return verify_space(leibniz_braiding(adjoin_unit(sl2_data(ZZ))))


def _space_nonlie():
    return verify_space(leibniz_braiding(adjoin_unit(nonlie_leibniz_data(ZZ))))


def _space_dualnum_coalgebra():
    data = coalgebra_extend(zero_coalgebra_data(ZZ))
    space = coassoc_braiding(data)
    check_ybe(space)
    check_braided_cocharacter(space, "unit")
    space.payload = data
    return space


# -- 1 -------------------------------------------------------------------------

def test_criterion_01_shelf_encoding_equivalence():
    """YBE of the linearized braiding agrees with self-distributivity on all
    19,683 binary operations of a 3-element set, in under a minute."""
    t0 = time.monotonic()
    total = 0
    sd_tables = 0
    for values in itertools.product(range(3), repeat=9):
        table = ShelfTable((tuple(values[0:3]), tuple(values[3:6]), tuple(values[6:9])))
        sd = check_shelf(table).self_distributive
        ybe = check_ybe(shelf_braiding(table, ZZ)).ok
        assert sd == ybe, f"disagreement on table {table.table}"
        total += 1
        sd_tables += sd
    elapsed = time.monotonic() - t0
    assert total == 19683
    assert elapsed < 60
    _pass(1, f"all {total} tables agree (SD <=> YBE), {sd_tables} self-distributive, "
             f"{elapsed:.1f}s")


# -- 2 -------------------------------------------------------------------------

def test_criterion_02_q_differential():
    for q in (Fraction(2), Fraction(3), Fraction(-1)):
        space = q_flip_braiding(-q, QQ)  # braiding = opposite of the q-flip
        check_ybe(space)
        space.allow_unverified = True
        for n in range(1, 9):
            got = left_diff(space, "ones", n)
            want = sum(q ** i for i in range(n))
            assert got.rows == 1 and got.cols == 1
            assert got.entry(0, 0) == want, (q, n)
    _pass(2, "q-counts (n)_q reproduced exactly for q in {2, 3, -1}, n <= 8")


# -- 3 -------------------------------------------------------------------------

def _bidiff_pairs(space, pairs, n_top=5):
    """d^2 = 0 for each differential and anticommutation for each pair."""
    for lc, rc in pairs:
        for n in range(2, n_top + 1):
            dl = left_diff(space, lc, n)
            dl_prev = left_diff(space, lc, n - 1)
            assert compose(dl_prev, dl).is_zero()
            dr = right_diff(space, rc, n)
            dr_prev = right_diff(space, rc, n - 1)
            assert compose(dr_prev, dr).is_zero()
            assert compose(dl_prev, dr).add_map(compose(dr_prev, dl)).is_zero()


def test_criterion_03_bidifferential_suite():
    checked = []

    r3 = _space_r3()
    _bidiff_pairs(r3, [("ones", "ones")])
    M = rackset_module(r3)
    assert check_braided_module(r3, M).ok
    for n in range(2, 6):
        d_n = coeff_diff(r3, M, None, n, "left")
        d_p = coeff_diff(r3, M, None, n - 1, "left")
        assert compose(d_p, d_n).is_zero()
    checked.append("dihedral-3 rack (+ rack-set coefficients)")

    for m in (2, 3):
        tq = _space_trivial(m)
        _bidiff_pairs(tq, [("ones", "ones")])
        Mt = rackset_module(tq)
        assert check_braided_module(tq, Mt).ok
        for n in range(2, 6):
            d_n = coeff_diff(tq, Mt, None, n, "left")
            d_p = coeff_diff(tq, Mt, None, n - 1, "left")
            assert compose(d_p, d_n).is_zero()
        checked.append(f"trivial quandle {m} (+ rack-set coefficients)")

    kz2 = _space_kz2()
    _bidiff_pairs(kz2, [("aug", "aug"), ("sign", "sign"), ("aug", "sign")])
    mu = kz2.payload.operation
    from braidhom import BraidedModule
    Mr = BraidedModule(2, mu, "right")
    Nl = BraidedModule(2, mu, "left")
    assert check_braided_module(kz2, Mr).ok
    assert check_braided_module(kz2, Nl).ok
    for n in range(2, 6):
        dl = coeff_diff(kz2, Mr, Nl, n, "left")
        dl_p = coeff_diff(kz2, Mr, Nl, n - 1, "left")
        dr = coeff_diff(kz2, Mr, Nl, n, "right")
        dr_p = coeff_diff(kz2, Mr, Nl, n - 1, "right")
        assert compose(dl_p, dl).is_zero()
        assert compose(dr_p, dr).is_zero()
        assert compose(dl_p, dr).add_map(compose(dr_p, dl)).is_zero()
    B = regular_bimodule(kz2)
    assert check_bimodule(kz2, B).ok
    for n in range(2, 6):
        l_n, r_n = bimodule_diff(kz2, B, n)
        l_p, r_p = bimodule_diff(kz2, B, n - 1)
        assert compose(l_p, l_n).is_zero()
        assert compose(r_p, r_n).is_zero()
        assert compose(l_p, r_n).add_map(compose(r_p, l_n)).is_zero()
    checked.append("group algebra Z/2 (+ two-sided coefficients, bimodule)")

    dn = _space_dual_numbers()
    _bidiff_pairs(dn, [("counit", "counit")])
    B = regular_bimodule(dn)
    assert check_bimodule(dn, B).ok
    for n in range(2, 6):
        l_n, r_n = bimodule_diff(dn, B, n)
        l_p, r_p = bimodule_diff(dn, B, n - 1)
        assert compose(l_p, l_n).is_zero()
        assert compose(r_p, r_n).is_zero()
        assert compose(l_p, r_n).add_map(compose(r_p, l_n)).is_zero()
    checked.append("dual numbers (+ bimodule)")

    sl2 = _space_sl2()
    _bidiff_pairs(sl2, [("counit", "counit")])
    from braidhom import adjoint_module
    Ms = adjoint_module(sl2, "counit", 1)
    for n in range(2, 5):
        d_n = coeff_diff(sl2, Ms, None, n, "left")
        d_p = coeff_diff(sl2, Ms, None, n - 1, "left")
        assert compose(d_p, d_n).is_zero()
    checked.append("sl2 with adjoined unit (+ adjoint coefficients)")

    nl = _space_nonlie()
    _bidiff_pairs(nl, [("counit", "counit")])
    checked.append("non-Lie Leibniz with adjoined unit")

    co = _space_dualnum_coalgebra()
    for n in range(0, 5):
        up = left_codiff(co, "unit", n)
        upup = left_codiff(co, "unit", n + 1)
        assert compose(upup, up).is_zero()
        from braidhom import right_codiff
        rt = right_codiff(co, "unit", n)
        rtrt = right_codiff(co, "unit", n + 1)
        assert compose(rtrt, rt).is_zero()
        assert compose(upup, rt).add_map(compose(rtrt, up)).is_zero()
    bic = coalgebra_self_bicomodule(co)
    assert check_bicomodule(co, bic).ok
    for n in range(0, 4):
        l_n, r_n = bicomodule_codiff(co, bic, n)
        l_u, r_u = bicomodule_codiff(co, bic, n + 1)
        assert compose(l_u, l_n).is_zero()
        assert compose(r_u, r_n).is_zero()
        assert compose(l_u, r_n).add_map(compose(r_u, l_n)).is_zero()
    checked.append("dual-numbers coalgebra (co-differentials, bicomodule)")

    _pass(3, f"square-zero and anticommutation, n <= 5, on: {'; '.join(checked)}")


# -- 4 -------------------------------------------------------------------------

def test_criterion_04_simplicial_levels():
    r3 = _space_r3()
    rep = check_simplicial(r3, "ones", "ones", 5)
    assert rep.bisimplicial_level == "weakly bisimplicial"
    t2 = _space_trivial(2)
    rep = check_simplicial(t2, "ones", "ones", 5)
    assert rep.bisimplicial_level in ("weakly bisimplicial", "bisimplicial")

    kz2 = _space_kz2()
    rep = check_simplicial(kz2, "aug", "aug", 5)
    assert rep.left_level == "simplicial"
    dn = _space_dual_numbers()
    rep = check_simplicial(dn, "counit", "counit", 5)
    assert rep.left_level == "simplicial"

    r3b = _space_r3()
    r3b.add_character("d0", dirac_character(r3b.payload, 0, ZZ))
    check_braided_character(r3b, "d0")
    rep = check_simplicial(r3b, "d0", "d0", 5)
    assert rep.left_level == "weakly simplicial"
    _pass(4, "spindles weakly bisimplicial; unital algebras simplicial on the "
             "left; Dirac rack faces weakly simplicial (n <= 5)")


# -- 5 -------------------------------------------------------------------------

def test_criterion_05_hyper_boundary_law():
    flip = flip_braiding(2, ZZ)
    check_ybe(flip)
    flip.add_character("e", [1, 1])
    check_braided_character(flip, "e")
    fixtures = [(flip, "e"), (_space_r3(), "ones"), (_space_kz2(), "aug")]
    count = 0
    for space, char in fixtures:
        for n in range(1, 7):
            for k in range(0, min(n, 4) + 1):
                for m in range(0, 5 - k):
                    if m + k > n:
                        continue
                    for side in ("left", "right"):
                        lhs = compose(hyper_boundary(space, char, m, n - k, side),
                                      hyper_boundary(space, char, k, n, side))
                        rhs = hyper_boundary(space, char, m + k, n, side).scale(
                            signed_binomial(m, k))
                        assert lhs == rhs, (space.payload, n, k, m, side)
                        count += 1
    _pass(5, f"{count} hyper-boundary composition identities exact "
             "(m + k <= 4, n <= 6, flip / dihedral-3 / group algebra)")


# -- 6 -------------------------------------------------------------------------

def _certify_and_betti_zero(space, kind, chars, homotopy, n_top):
    c = named_complex(space, kind, n_top + 1, chars)
    rep = certify_acyclic(c, {n: homotopy(n) for n in range(n_top + 1)})
    assert rep.ok, rep.certified
    b = betti(c, QQ)
    for n in range(n_top + 1):
        assert b.degrees[n].free_rank == 0, (n, free_ranks(b))


def test_criterion_06_acyclicity_certificates():
    certified = []
    # right shelf complex for arbitrary shelves (rack or not)
    for tag, table in (("dihedral-3", dihedral_shelf(3)),
                       ("constant", ShelfTable(((1, 1), (1, 1)))),
                       ("trivial-2", trivial_shelf(2))):
        space = verify_space(shelf_braiding(table, ZZ))
        w = [1] + [0] * (space.dim - 1)
        _certify_and_betti_zero(space, "right", {"right_char": "ones"},
                                lambda n: concat_homotopy(space, w, n), 5)
        certified.append(f"right shelf complex [{tag}]")
    # left shelf complex for racks, via the inverse translation
    for tag, table in (("dihedral-3", dihedral_shelf(3)), ("cyclic-3", cyclic_shelf(3))):
        space = verify_space(shelf_braiding(table, ZZ))
        _certify_and_betti_zero(space, "left", {"left_char": "ones"},
                                lambda n: rack_contraction(space, 0, n), 5)
        certified.append(f"left rack complex [{tag}]")
    # left complex of two-sided-unital algebras
    for tag, space, char in (("group algebra", _space_kz2(), "aug"),
                             ("dual numbers", _space_dual_numbers(), "counit")):
        unit = [1 if j == space.unit_index else 0 for j in range(space.dim)]
        _certify_and_betti_zero(space, "left", {"left_char": char},
                                lambda n: concat_homotopy(space, unit, n), 5)
        certified.append(f"left algebra complex [{tag}]")
    # left complex of unital Leibniz with eps(1) = 1
    for tag, space in (("sl2+1", _space_sl2()), ("non-Lie+1", _space_nonlie())):
        unit = [1 if j == space.unit_index else 0 for j in range(space.dim)]
        _certify_and_betti_zero(space, "left", {"left_char": "counit"},
                                lambda n: concat_homotopy(space, unit, n), 5)
        certified.append(f"left bracket complex [{tag}]")
    # flip with a normalized pair
    flip = flip_braiding(3, ZZ)
    check_ybe(flip)
    flip.add_character("e", [1, 0, 2])
    check_braided_character(flip, "e")
    w = [1, 0, 0]
    for kind, chars in (("left", {"left_char": "e"}), ("right", {"right_char": "e"})):
        _certify_and_betti_zero(flip, kind, chars, lambda n: concat_homotopy(flip, w, n), 5)
        certified.append(f"{kind} flip complex")
    _pass(6, f"{len(certified)} contracting homotopies verified entrywise, "
             "degrees 0..5, with zero rational betti numbers on the same range")


# -- 7 -------------------------------------------------------------------------

def test_criterion_07_classical_complex_equality():
    matched = []
    r3 = _space_r3()
    c = named_complex(r3, "rack", 4)
    t = r3.payload
    for n in range(1, 5):
        want = shelf_left_oracle(t, [1, 1, 1], n).sub_map(shelf_right_oracle(t, [1, 1, 1], n))
        assert c.diffs[n] == want
    c = named_complex(r3, "shelf", 4)
    for n in range(1, 5):
        assert c.diffs[n] == shelf_left_oracle(t, [1, 1, 1], n)
    matched.append("rack/shelf")

    dn = _space_dual_numbers()
    c = named_complex(dn, "bar", 4)
    for n in range(1, 5):
        assert c.diffs[n].is_zero()  # mu(x,x) = 0 on the reduced complex
    tri = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (0, 2, 2, 1), (2, 0, 2, 1),
           (1, 1, 2, 1)]
    trunc = algebra_from_constants("associative", 3, tri, ZZ, unit_index=0)
    trunc.counit = SparseLinearMap.from_entries(1, 3, [(0, 0, 1)], ZZ)
    tspace = verify_space(assoc_braiding(trunc))
    c = named_complex(tspace, "bar", 4)
    for n in range(1, 5):
        assert c.diffs[n] == group_oracle(trunc, [0, 0, 0], [0, 0, 0], n)
    matched.append("bar")

    kz2 = _space_kz2()
    for lc, rc, eps, zeta in (("aug", "aug", [1, 1], [1, 1]),
                              ("aug", "sign", [1, 1], [1, -1])):
        c = named_complex(kz2, "group", 4, {"left_char": lc, "right_char": rc})
        for n in range(1, 5):
            assert c.diffs[n] == group_oracle(kz2.payload, eps, zeta, n)
    matched.append("group")

    for space in (_space_sl2(), _space_nonlie()):
        c = named_complex(space, "leibniz", 4)
        for n in range(1, 5):
            assert c.diffs[n] == leibniz_restricted_oracle(space.payload, n)
    matched.append("leibniz")

    co = algebra_from_constants("coalgebra", 1, [(0, 0, 0, 1)], ZZ)
    c = named_complex(shelf_like_coalgebra_space(co), "cobar", 4)
    for n in range(0, 4):
        assert c.diffs[n] == cobar_oracle(co, n)
    zero_co = zero_coalgebra_data(ZZ)
    c = named_complex(shelf_like_coalgebra_space(zero_co), "cobar", 4)
    for n in range(0, 4):
        assert c.diffs[n] == cobar_oracle(zero_co, n)
    matched.append("cobar")

    for space in (kz2, dn):
        c = named_complex(space, "hochschild", 4)
        for n in range(1, 5):
            assert c.diffs[n] == hochschild_oracle(space.payload, n)
    matched.append("hochschild (textbook)")
    _pass(7, "named complexes equal direct formula transcriptions, n <= 4: "
             + ", ".join(matched))


# -- 8 -------------------------------------------------------------------------

def test_criterion_08_integral_homology_regression():
    for m in (2, 3):
        space = _space_trivial(m)
        c = named_complex(space, "rack", 4)
        for n in range(1, 5):
            assert c.diffs[n].is_zero()  # boundary vanishes identically
        rep = integral_homology(c)
        for n in range(5):
            assert rep.degrees[n].free_rank == m ** n
            assert rep.degrees[n].torsion == []

    r3 = _space_r3()
    rack = integral_homology(named_complex(r3, "rack", 5))
    for n in range(5):
        assert rack.degrees[n].free_rank == 1, (n, free_ranks(rack))

    quandle = integral_homology(named_complex(r3, "quandle", 4))
    # regression fixture computed by this implementation's normal form
    assert quandle.degrees[3].torsion == [3]
    assert quandle.degrees[2].torsion == []
    assert quandle.degrees[1].free_rank == 1
    _pass(8, "trivial quandles free of rank m^n with no torsion (n <= 4); "
             "dihedral-3 rack free rank 1 (n <= 4); quandle degree-3 torsion Z/3 stable")


# -- 9 -------------------------------------------------------------------------

def test_criterion_09_hopf_suite():
    flip = flip_braiding(2, ZZ)
    check_ybe(flip)
    assert check_shuffle_associativity(flip, 4).ok
    assert check_coshuffle_coassociativity(flip, 4).ok
    assert check_hopf_compatibility(flip, 4).ok
    assert check_antipode_axiom(flip, 4).ok
    assert check_sigma_commutativity(flip, 4).ok

    r3 = _space_r3()
    assert check_shuffle_associativity(r3, 4).ok
    assert check_coshuffle_coassociativity(r3, 4).ok
    assert check_hopf_compatibility(r3, 4).ok
    assert check_antipode_axiom(r3, 4).ok
    _pass(9, "associativity, compatibility, antipode (and commutativity for the "
             "symmetric flip) exact on truncations to degree 4")


# -- 10 ------------------------------------------------------------------------

def test_criterion_10_cobar_bar_duality():
    # reduced complexes through the named builders
    dn = _space_dual_numbers()
    bar = named_complex(dn, "bar", 4)
    co = shelf_like_coalgebra_space(zero_coalgebra_data(ZZ))
    cobar = named_complex(co, "cobar", 4)
    for n in range(0, 4):
        assert cobar.diffs[n] == bar.diffs[n + 1].transpose()
    # unreduced route: codifferential of the dual coalgebra vs transpose
    codata = dual_coalgebra(dn.payload)
    cospace = coassoc_braiding(codata)
    check_ybe(cospace)
    assert cospace.braiding == dn.braiding.transpose()
    cospace.add_cocharacter("dual", dn.characters["counit"].transpose())
    check_braided_cocharacter(cospace, "dual")
    for n in range(0, 4):
        up = left_codiff(cospace, "dual", n)
        assert up == left_diff(dn, "counit", n + 1).transpose()
    _pass(10, "cobar boundaries equal transposed bar boundaries degreewise "
              "(reduced named complexes and unreduced differentials), n <= 4")


# -- 11 ------------------------------------------------------------------------

def test_criterion_11_performance_envelope():
    t0 = time.monotonic()
    space = verify_space(shelf_braiding(dihedral_shelf(4), ZZ))
    c = named_complex(space, "rack", 5)
    assert c.dims[5] == 1024
    rep = integral_homology(c)
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    for n in range(5):
        assert rep.degrees[n].free_rank == 2 ** n
    _pass(11, f"4-element quandle rack homology to degree 5 (1024-dim top) "
              f"integrally in {elapsed:.1f}s")
