import random
from fractions import Fraction
from pathlib import Path

import pytest

from braidhom import (
    ExactError,
    PrimeField,
    QQ,
    ResourceCapError,
    SparseLinearMap,
    SpanStabilityError,
    SquareZeroError,
    ZZ,
    betti,
    certify_acyclic,
    check_braided_character,
    check_ybe,
    combined_diff,
    compose,
    concat_homotopy,
    crossing_action,
    dihedral_shelf,
    flip_braiding,
    integral_homology,
    left_diff,
    named_complex,
    rack_contraction,
    rank,
    ring_from_name,
    shelf_braiding,
    smith_normal_form,
    subquotient,
    tensor,
    trivial_shelf,
)
from braidhom import exactlin
from braidhom.complexes import (COMPLEX_PARAMS, NAMED_COMPLEXES, repeated_neighbor_span,
                                unit_factor_span)
from braidhom.homology import build_chain_complex
from braidhom.exactlin import digits_of
from braidhom.scenario import build_space, parse as parse_scenario

from helpers import dense_of, dense_rank, from_dense, snf_by_minor_gcds
from conftest import verify_space


# -- assembly -----------------------------------------------------------------

def test_assemble_rack_complex(r3):
    c = named_complex(r3, "combined", 4, {"left_char": "ones", "right_char": "ones"})
    assert c.dims == [1, 3, 9, 27, 81]
    assert set(c.diffs) == {1, 2, 3, 4}


def test_assemble_single_degree(r3):
    c = named_complex(r3, "left", 1, {"left_char": "ones"})
    assert set(c.diffs) == {1}


def test_assemble_rejects_broken_character(r3):
    r3.add_character("broken", [1, 2, 0])  # not a braided character
    r3.allow_unverified = True
    with pytest.raises(SquareZeroError) as err:
        named_complex(r3, "left", 3, {"left_char": "broken"})
    assert err.value.entry is not None


def test_assemble_resource_cap(r3):
    with pytest.raises(ResourceCapError):
        named_complex(r3, "left", 3, {"left_char": "ones"}, basis_cap=20)


# -- betti numbers ---------------------------------------------------------------

def test_betti_trivial_quandle_full_rank(trivial2, trivial3):
    for space, m in ((trivial2, 2), (trivial3, 3)):
        c = named_complex(space, "rack", 4)
        rep = betti(c, QQ)
        for n in range(5):
            assert rep.degrees[n].free_rank == m ** n


def test_betti_right_shelf_complex_acyclic(r3):
    c = named_complex(r3, "right", 5, {"right_char": "ones"})
    rep = betti(c, QQ)
    for n in range(5):
        assert rep.degrees[n].free_rank == 0


def test_betti_koszul_acyclic():
    space = flip_braiding(2, QQ)
    check_ybe(space)
    space.add_character("e", [1, 1])
    check_braided_character(space, "e")
    c = named_complex(space, "left", 5, {"left_char": "e"})
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
    for space, chars in [(r3, {"left_char": "ones", "right_char": "ones"}),
                         (kz2, {"left_char": "aug", "right_char": "sign"})]:
        c = named_complex(space, "combined", 4, chars)
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
    for space, kind, chars in [(r3, "combined", {"left_char": "ones", "right_char": "ones"}),
                               (kz2, "left", {"left_char": "aug"})]:
        c = named_complex(space, kind, 4, chars)
        ih = integral_homology(c)
        bq = betti(c, QQ)
        for n in range(5):
            assert ih.degrees[n].free_rank == bq.degrees[n].free_rank


# -- acyclicity certificates ----------------------------------------------------------

def _unit_vector(space):
    return [1 if j == space.unit_index else 0 for j in range(space.dim)]


def test_certify_bar_type_unital_algebra(kz2):
    c = named_complex(kz2, "left", 5, {"left_char": "aug"})
    h = {n: concat_homotopy(kz2, _unit_vector(kz2), n) for n in range(5)}
    rep = certify_acyclic(c, h)
    assert rep.ok
    b = betti(c, QQ)
    for n in range(5):
        assert b.degrees[n].free_rank == 0


def test_certify_unital_leibniz(sl2_unital):
    c = named_complex(sl2_unital, "left", 4, {"left_char": "counit"})
    h = {n: concat_homotopy(sl2_unital, _unit_vector(sl2_unital), n) for n in range(4)}
    assert certify_acyclic(c, h).ok


def test_certify_right_shelf_any_element(r3):
    c = named_complex(r3, "right", 5, {"right_char": "ones"})
    h = {n: concat_homotopy(r3, [0, 1, 0], n) for n in range(5)}
    assert certify_acyclic(c, h).ok


def test_certify_left_rack_inverse_translation(r3):
    c = named_complex(r3, "left", 5, {"left_char": "ones"})
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
    c = named_complex(space, "left", 4, {"left_char": "e"})
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
    c = named_complex(kz2, "combined", 4, {"left_char": "aug", "right_char": "aug"})
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


# -- chain-aware elimination ------------------------------------------------------------

SCENARIOS = Path(__file__).parent.parent / "scenarios"

# The named complexes that assemble on each shipped scenario; the others need
# another payload or a character the scenario does not declare.
NAMED_ON = {
    "dihedral3.json": {"koszul", "shelf", "rack", "quandle", "twisted-rack",
                       "partial-derivative"},
    "dual_numbers.json": {"koszul", "bar", "group", "hochschild"},
    "dual_numbers_coalgebra.json": {"koszul", "cobar", "cartier"},
    "group_algebra_z2.json": {"koszul", "group", "hochschild"},
    "sl2.json": {"koszul", "leibniz"},
}


def per_boundary_homology(c, field=None, factors_of=smith_normal_form):
    """(free rank, torsion) per degree with every boundary eliminated on its
    own: its rank over field, or its invariant factors over Z (by
    factors_of) when field is None."""
    if field is None:
        factors = {n: factors_of(m) for n, m in c.diffs.items()}
    else:
        factors = {n: [1] * rank(m.with_ring(field)) for n, m in c.diffs.items()}
    out = {}
    for n in range(c.n_max + 1):
        incoming = factors.get(n - c.step, [])
        out[n] = (c.dims[n] - len(factors.get(n, [])) - len(incoming),
                  sorted(f for f in incoming if f > 1))
    return out


def chain_homology(c, field=None):
    rep = integral_homology(c) if field is None else betti(c, field)
    return {n: (h.free_rank, h.torsion) for n, h in rep.degrees.items()}


def transposed(c):
    """The cochain complex of the transposed boundaries of a chain complex."""
    return build_chain_complex(c.ring, c.dims, {n - 1: m.transpose() for n, m in c.diffs.items()},
                               1, c.builder + "^T")


@pytest.mark.parametrize("ring_name", ["z", "q", "fp:3"])
@pytest.mark.parametrize("scenario", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_chain_elimination_matches_per_boundary_named(scenario, ring_name):
    ring = ring_from_name(ring_name)
    field = None if ring is ZZ else ring
    built = set()
    for name in NAMED_COMPLEXES:
        space = build_space(parse_scenario(SCENARIOS / scenario), ring)
        chars = sorted(space.characters)
        params = {"twist": ring.parse("-1"), "element": 0}
        if chars:
            params.update(left_char=chars[0], right_char=chars[-1])
        try:
            c = named_complex(space, name, 4,
                              {k: v for k, v in params.items() if k in COMPLEX_PARAMS[name]})
        except ExactError:
            continue
        built.add(name)
        assert chain_homology(c, field) == per_boundary_homology(c, field), name
    assert built == NAMED_ON[scenario]


@pytest.mark.parametrize("order, ring_name, n_max", [
    (2, "z", 3), (2, "q", 3), (2, "fp:3", 3),
    # d_2 d_2 = 2 d_4, so the order-2 boundary makes a longer complex over F2 only
    (2, "fp:2", 7),
    (3, "z", 7), (3, "q", 7), (3, "fp:3", 7),
])
def test_chain_elimination_matches_per_boundary_hyper(order, ring_name, n_max):
    ring = ring_from_name(ring_name)
    space = verify_space(shelf_braiding(dihedral_shelf(3), ring))
    c = named_complex(space, "hyper-left", n_max, {"left_char": "ones", "order": order})
    field = None if ring is ZZ else ring
    got = chain_homology(c, field)
    assert got == per_boundary_homology(c, field)
    if (order, ring_name) == (3, "z"):
        assert got[4] == (18, [2, 2, 2, 2, 2, 6])


def _rack_chain(ring):
    return named_complex(verify_space(shelf_braiding(dihedral_shelf(3), ring)), "rack", 5)


def _hyper_chain(ring):
    space = verify_space(shelf_braiding(dihedral_shelf(3), ring))
    return named_complex(space, "hyper-left", 7, {"left_char": "ones", "order": 3})


@pytest.mark.parametrize("ring_name", ["z", "q", "fp:3"])
def test_chain_elimination_matches_per_boundary_cochain(ring_name):
    """Cochain complexes run in descending degree: the cartier complex of the
    dual numbers (2-torsion in every even degree from 2) and the transposed
    R3 rack complex, whose consecutive coboundaries are both nonzero."""
    ring = ring_from_name(ring_name)
    field = None if ring is ZZ else ring
    cartier = named_complex(
        build_space(parse_scenario(SCENARIOS / "dual_numbers_coalgebra.json"), ring), "cartier", 6)
    for c in (cartier, transposed(_rack_chain(ring))):
        assert c.step == 1
        assert chain_homology(c, field) == per_boundary_homology(c, field), c.builder
    if ring is ZZ:
        assert [t for _, t in chain_homology(cartier).values()] == \
            [[], [], [2], [], [2], [], [2]]


def test_chain_elimination_after_euclidean_pivots():
    """d1 = [2 3 0] has no unit entry, so its pivots are Euclidean and are not
    passed on: forgetting either of x_0, x_1 maps ker d1 = <(3,-2,0), (0,0,1)>
    onto a lattice that is not saturated, and dropping that row of d2 would
    make up torsion (Z/6 or Z/2 + Z/2) in place of H_1 = Z/2."""
    dense = {1: [[2, 3, 0]],
             2: [[3, 0, 3], [-2, 0, -2], [0, 2, 2]],
             3: [[1], [1], [-1]]}
    c = build_chain_complex(ZZ, [1, 3, 3, 1], {n: from_dense(d, ZZ) for n, d in dense.items()},
                            -1, "euclid")
    expected = per_boundary_homology(c, factors_of=lambda m: snf_by_minor_gcds(dense_of(m)))
    assert expected == {0: (0, []), 1: (0, [2]), 2: (0, []), 3: (0, [])}
    assert chain_homology(c) == expected
    assert chain_homology(c, QQ) == {n: (free, []) for n, (free, _) in expected.items()}


@pytest.mark.parametrize("ring_name", ["z", "q", "fp:3"])
@pytest.mark.parametrize("build", [_rack_chain, _hyper_chain,
                                   lambda ring: transposed(_rack_chain(ring))],
                         ids=["rack", "hyper3", "rack-transposed"])
def test_chain_driver_hands_pivots_to_the_next_map(monkeypatch, build, ring_name):
    """Each boundary is eliminated without the rows at the passed-on pivot
    columns of the map before it in the chain, diffs[n + step]."""
    ring = ring_from_name(ring_name)
    c = build(ring)
    calls = {}
    real = exactlin._eliminate

    def spy(m, smith, drop=frozenset()):
        out = real(m, smith, drop)
        calls[id(m)] = (set(drop), set(out[1]))
        return out

    monkeypatch.setattr(exactlin, "_eliminate", spy)
    chain_homology(c, None if ring is ZZ else ring)
    dropped = 0
    for n, m in c.diffs.items():
        before = c.diffs.get(n + c.step)
        assert calls[id(m)][0] == (calls[id(before)][1] if before is not None else set()), n
        dropped += len(calls[id(m)][0])
    assert dropped > 0
