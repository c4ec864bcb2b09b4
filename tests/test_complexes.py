import itertools
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from braidhom import (
    Bimodule,
    BraidedModule,
    ExactError,
    Permutation,
    PreBraidedSpace,
    PrimeField,
    QQ,
    SparseLinearMap,
    UnverifiedError,
    ZZ,
    adjoin_unit,
    adjoint_module,
    algebra_from_constants,
    assoc_braiding,
    bimodule_diff,
    braid_lift,
    check_bimodule,
    check_braided_character,
    check_braided_cocharacter,
    check_braided_module,
    check_naturality,
    check_simplicial,
    check_ybe,
    coalgebra_extend,
    coassoc_braiding,
    coeff_diff,
    combined_diff,
    compose,
    concat_homotopy,
    crossing_action,
    degeneracy,
    dihedral_shelf,
    dirac_character,
    face,
    flip_braiding,
    hyper_boundary,
    left_codiff,
    left_diff,
    leibniz_braiding,
    named_complex,
    q_flip_braiding,
    rack_contraction,
    right_codiff,
    right_diff,
    shelf_braiding,
    shuffle_coproduct,
    shuffle_product,
    signed_binomial,
    tensor,
    trivial_shelf,
)
from braidhom import complexes
from braidhom.braiding import block_flip, moving_permutation
from braidhom.complexes import (
    COMPLEX_PARAMS,
    NAMED_COMPLEXES,
    Bicomodule,
    check_bicomodule,
    coalgebra_self_bicomodule,
    bicomodule_codiff,
    face_sum,
    regular_bimodule,
    trivial_module,
)
from braidhom.exactlin import digits_of, flat_index, ring_from_name
from braidhom.scenario import build_space, parse as parse_scenario

from conftest import (
    dual_numbers_data,
    kz2_data,
    nonlie_leibniz_data,
    sl2_data,
    verify_space,
    zero_coalgebra_data,
)
from helpers import (
    bicomodule_axioms,
    character_module,
    crossed_by_tensors,
    cyclic_shelf,
    non_ybe_space,
    pulled_by_tensors,
    pushed,
    pushed_bicomodule,
    rackset_module,
    repeated_neighbor_span,
    unit_factor_span,
)


# ---------------------------------------------------------------------------
# Direct transcriptions of the classical boundary formulas, used as oracles.
# ---------------------------------------------------------------------------

def koszul_oracle(d, eps, n, ring=ZZ):
    """sum_i (-1)^(i-1) eps(v_i) v_1 ... v_i^ ... v_n."""
    entries = []
    for flat in range(d ** n):
        digs = digits_of(flat, (d,) * n)
        for i in range(n):
            coeff = eps[digs[i]] * (-1) ** i
            if coeff == 0:
                continue
            rest = digs[:i] + digs[i + 1:]
            entries.append((flat_index(rest, (d,) * (n - 1)), flat, coeff))
    return SparseLinearMap.from_entries(d ** (n - 1), d ** n, entries, ring)


def shelf_left_oracle(t, eps, n, ring=ZZ):
    """sum_i (-1)^(i-1) eps(a_i) ((a_1<|a_i), ..., (a_(i-1)<|a_i), a_(i+1), ...)."""
    m = t.size
    entries = []
    for flat in range(m ** n):
        a = digits_of(flat, (m,) * n)
        for i in range(n):
            coeff = eps[a[i]] * (-1) ** i
            if coeff == 0:
                continue
            image = tuple(t.op(a[k], a[i]) for k in range(i)) + a[i + 1:]
            entries.append((flat_index(image, (m,) * (n - 1)), flat, coeff))
    return SparseLinearMap.from_entries(m ** (n - 1), m ** n, entries, ring)


def shelf_right_oracle(t, zeta, n, ring=ZZ):
    """sum_i (-1)^(i-1) zeta((..(a_i <| a_(i+1)) ..) <| a_n) (a_1 ... a_i^ ... a_n)."""
    m = t.size
    entries = []
    for flat in range(m ** n):
        a = digits_of(flat, (m,) * n)
        for i in range(n):
            hit = a[i]
            for k in range(i + 1, n):
                hit = t.op(hit, a[k])
            coeff = zeta[hit] * (-1) ** i
            if coeff == 0:
                continue
            rest = a[:i] + a[i + 1:]
            entries.append((flat_index(rest, (m,) * (n - 1)), flat, coeff))
    return SparseLinearMap.from_entries(m ** (n - 1), m ** n, entries, ring)


def unit_free_indices(d, n, unit):
    return [f for f in range(d ** n)
            if unit not in digits_of(f, (d,) * n)]


def leibniz_restricted_oracle(data, n, grading=None):
    """sum_(i<j) (-1)^(j-1) v_1 .. v_(i-1) [v_i,v_j] v_(i+1) .. v_j^ .. v_n on
    unit-free tensors, with the graded sign when a grading is given."""
    d = data.dim
    unit = data.unit_index
    ring = data.ring
    kept_n = unit_free_indices(d, n, unit)
    kept_prev = unit_free_indices(d, n - 1, unit)
    pos_prev = {f: i for i, f in enumerate(kept_prev)}
    entries = []
    for col, flat in enumerate(kept_n):
        v = digits_of(flat, (d,) * n)
        for j in range(1, n):
            for i in range(j):
                sign = (-1) ** j
                if grading is not None:
                    alpha = grading[v[j]] * sum(grading[v[k]] for k in range(i + 1, j))
                    sign *= (-1) ** (alpha % 2)
                bracket = data.operation.column(v[i] * d + v[j])
                for target, coeff in bracket.items():
                    if target == unit:
                        continue
                    image = v[:i] + (target,) + v[i + 1:j] + v[j + 1:]
                    row = pos_prev[flat_index(image, (d,) * (n - 1))]
                    entries.append((row, col, coeff * sign))
    return SparseLinearMap.from_entries(len(kept_prev), len(kept_n), entries, ring)


def group_oracle(data, eps, zeta, n):
    """eps(v1) v2..vn + sum (-1)^i v1..(vi*vi+1)..vn + (-1)^n zeta(vn) v1..vn-1
    on unit-free tensors, products reduced mod the unit coordinate."""
    d = data.dim
    unit = data.unit_index
    ring = data.ring
    kept_n = unit_free_indices(d, n, unit)
    kept_prev = unit_free_indices(d, n - 1, unit)
    pos_prev = {f: i for i, f in enumerate(kept_prev)}
    entries = []
    for col, flat in enumerate(kept_n):
        v = digits_of(flat, (d,) * n)
        if eps[v[0]]:
            row = pos_prev[flat_index(v[1:], (d,) * (n - 1))]
            entries.append((row, col, eps[v[0]]))
        for i in range(n - 1):
            for target, coeff in data.operation.column(v[i] * d + v[i + 1]).items():
                if target == unit:
                    continue
                image = v[:i] + (target,) + v[i + 2:]
                row = pos_prev[flat_index(image, (d,) * (n - 1))]
                entries.append((row, col, coeff * (-1) ** (i + 1)))
        if zeta[v[n - 1]]:
            row = pos_prev[flat_index(v[:-1], (d,) * (n - 1))]
            entries.append((row, col, zeta[v[n - 1]] * (-1) ** n))
    return SparseLinearMap.from_entries(len(kept_prev), len(kept_n), entries, ring)


def hochschild_oracle(data, n):
    """m (x) v1..vn -> (m v1)(x)v2..vn + sum (-1)^i m(x)v1..(vi vi+1)..vn
    + (-1)^n (vn m)(x)v1..vn-1, tensor slots reduced mod the unit."""
    d = data.dim
    unit = data.unit_index
    ring = data.ring
    kept_n = [(m, f) for m in range(d) for f in unit_free_indices(d, n, unit)]
    kept_prev = [(m, f) for m in range(d) for f in unit_free_indices(d, n - 1, unit)]
    pos_prev = {p: i for i, p in enumerate(kept_prev)}
    entries = []
    for col, (m, flat) in enumerate(kept_n):
        v = digits_of(flat, (d,) * n)
        for target, coeff in data.operation.column(m * d + v[0]).items():
            row = pos_prev[(target, flat_index(v[1:], (d,) * (n - 1)))]
            entries.append((row, col, coeff))
        for i in range(n - 1):
            for target, coeff in data.operation.column(v[i] * d + v[i + 1]).items():
                if target == unit:
                    continue
                image = v[:i] + (target,) + v[i + 2:]
                row = pos_prev[(m, flat_index(image, (d,) * (n - 1)))]
                entries.append((row, col, coeff * (-1) ** (i + 1)))
        for target, coeff in data.operation.column(v[n - 1] * d + m).items():
            row = pos_prev[(target, flat_index(v[:-1], (d,) * (n - 1)))]
            entries.append((row, col, coeff * (-1) ** n))
    return SparseLinearMap.from_entries(len(kept_prev), len(kept_n), entries, ring)


def cobar_oracle(data, n):
    """v1..vn -> sum (-1)^i v1..delta(vi)..vn on the original coalgebra."""
    d = data.dim
    ring = data.ring
    entries = []
    for flat in range(d ** n):
        v = digits_of(flat, (d,) * n)
        for i in range(n):
            for row, coeff in [(r, c) for r, c0, c in data.operation.entries() if c0 == v[i]]:
                a, b = divmod(row, d)
                image = v[:i] + (a, b) + v[i + 1:]
                entries.append((flat_index(image, (d,) * (n + 1)), flat,
                                coeff * (-1) ** (i + 1)))
    return SparseLinearMap.from_entries(d ** (n + 1), d ** n, entries, ring)


# ---------------------------------------------------------------------------
# Left / right / combined differentials
# ---------------------------------------------------------------------------

def test_koszul_differential_matches_oracle():
    space = flip_braiding(3, ZZ)
    check_ybe(space)
    eps = [1, -2, 3]
    space.add_character("e", eps)
    check_braided_character(space, "e")
    for n in range(1, 5):
        assert left_diff(space, "e", n) == koszul_oracle(3, eps, n)
        assert right_diff(space, "e", n) == koszul_oracle(3, eps, n)


def test_q_differential_counts():
    q = Fraction(2)
    space = q_flip_braiding(-q, QQ)  # braiding is the opposite q-flip
    check_ybe(space)
    space.allow_unverified = True
    for n in range(1, 9):
        m = left_diff(space, "ones", n)
        assert m.entry(0, 0) == sum(q ** i for i in range(n))
    # q = 2, n = 3 -> 7
    assert left_diff(space, "ones", 3).entry(0, 0) == 7


def test_shelf_left_diff_example(r3):
    m = left_diff(r3, "ones", 2)
    # e0 (x) e1 -> e1 - e2
    col = 0 * 3 + 1
    assert m.entry(1, col) == 1
    assert m.entry(2, col) == -1
    assert m.entry(0, col) == 0


def test_shelf_right_diff_example(r3):
    m = right_diff(r3, "ones", 2)
    # e0 (x) e1 -> e1 - e0
    col = 0 * 3 + 1
    assert m.entry(1, col) == 1
    assert m.entry(0, col) == -1


def test_combined_diff_example(r3):
    m = combined_diff(r3, "ones", "ones", 2)
    col = 0 * 3 + 1
    assert m.entry(0, col) == 1
    assert m.entry(2, col) == -1
    assert m.entry(1, col) == 0


def test_shelf_diffs_match_printed_formulas(r3):
    t = r3.payload
    for n in range(1, 5):
        assert left_diff(r3, "ones", n) == shelf_left_oracle(t, [1, 1, 1], n)
        assert right_diff(r3, "ones", n) == shelf_right_oracle(t, [1, 1, 1], n)


def test_trivial_quandle_combined_vanishes(trivial3):
    for n in range(1, 5):
        assert combined_diff(trivial3, "ones", "ones", n).is_zero()


def test_diff_requires_verified_character(r3):
    """A boundary checks the character it reads on first use, and a
    coboundary its cocharacter: a valid one never checked builds and is
    flagged; one that fails is refused until allow_unverified opens it."""
    r3.add_character("raw", [1, 0, 0])
    r3.add_character("broken", [1, 2, 0])
    assert left_diff(r3, "raw", 2) == shelf_left_oracle(r3.payload, [1, 0, 0], 2)
    assert r3.verified_characters == {"ones", "raw"}
    with pytest.raises(UnverifiedError, match=(
            "^character 'broken' is not a braided character "
            r"\(pass --allow-unverified to use it anyway\)$")):
        left_diff(r3, "broken", 2)
    co = coassoc_braiding(coalgebra_extend(zero_coalgebra_data(ZZ)))
    co.add_cocharacter("bad", [1, 2])
    assert left_codiff(co, "unit", 2).rows == 8
    assert co.verified_cocharacters == {"unit"} and co.ybe_checked
    with pytest.raises(UnverifiedError, match="^cocharacter 'bad' is not a braided cocharacter"):
        right_codiff(co, "bad", 2)
    for space in (r3, co):
        space.allow_unverified = True
    assert left_diff(r3, "broken", 2) == shelf_left_oracle(r3.payload, [1, 2, 0], 2)
    assert right_codiff(co, "bad", 2).rows == 8
    assert "broken" not in r3.verified_characters and "bad" not in co.verified_cocharacters


def test_space_override_opens_every_gate():
    """On a fresh space each gate runs its check on first use, so the valid
    braiding, character and module build and are flagged. On another fresh
    space allow_unverified opens every gate, and no check runs."""
    space = shelf_braiding(dihedral_shelf(3), ZZ)
    M = rackset_module(space)
    assert left_diff(space, "ones", 2) == shelf_left_oracle(space.payload, [1, 1, 1], 2)
    assert coeff_diff(space, M, None, 2).rows == 9
    assert space.ybe_checked and space.verified_characters == {"ones"} and M.verified
    fresh = shelf_braiding(dihedral_shelf(3), ZZ)
    fresh.allow_unverified = True
    M = rackset_module(fresh)
    assert left_diff(fresh, "ones", 2) == shelf_left_oracle(fresh.payload, [1, 1, 1], 2)
    assert braid_lift(fresh, Permutation.transposition(2, 1), 2) == fresh.braiding
    assert shuffle_product(fresh, 1, 1).rows == 9
    assert coeff_diff(fresh, M, None, 2).rows == 9
    assert not fresh.ybe_checked and not fresh.verified_characters and M.verified is None


def test_square_zero_all_fixtures(r3, kz2, dual_numbers, sl2_unital, nonlie_unital):
    for space, lc, rc in [(r3, "ones", "ones"), (kz2, "aug", "sign"),
                          (dual_numbers, "counit", "counit"),
                          (sl2_unital, "counit", "counit"),
                          (nonlie_unital, "counit", "counit")]:
        for n in range(2, 5):
            dl_n = left_diff(space, lc, n)
            dl_prev = left_diff(space, lc, n - 1)
            assert compose(dl_prev, dl_n).is_zero()
            dr_n = right_diff(space, rc, n)
            dr_prev = right_diff(space, rc, n - 1)
            assert compose(dr_prev, dr_n).is_zero()
            # anticommutation
            anti = compose(dl_prev, dr_n).add_map(compose(dr_prev, dl_n))
            assert anti.is_zero()


# ---------------------------------------------------------------------------
# Faces and degeneracies
# ---------------------------------------------------------------------------

def test_face_sum_equals_differential(r3, kz2):
    for space, char in [(r3, "ones"), (kz2, "aug")]:
        for n in range(1, 5):
            assert face_sum(space, char, n, "left") == left_diff(space, char, n)
            total = SparseLinearMap.zero(space.dim ** (n - 1), space.dim ** n, space.ring)
            for i in range(1, n + 1):
                f = face(space, char, n, i, "right")
                total = total.add_map(f.neg() if (i - 1) % 2 else f)
            assert total == right_diff(space, char, n)


def test_face_degree_one_is_character(r3):
    assert face(r3, "ones", 1, 1, "left") == r3.characters["ones"]
    assert face(r3, "ones", 1, 1, "right") == r3.characters["ones"]


def test_face_out_of_range(r3):
    with pytest.raises(ExactError):
        face(r3, "ones", 2, 3)


def test_dirac_faces_formulas(r3):
    t = r3.payload
    r3.add_character("d0", dirac_character(t, 0, ZZ))
    check_braided_character(r3, "d0")
    n = 3
    eps = [1, 0, 0]
    # left face i: delta(0, a_i) (a_1<|a_i, ..., a_(i-1)<|a_i, a_(i+1), ...)
    for i in range(1, n + 1):
        got = face(r3, "d0", n, i, "left")
        for flat in range(27):
            a = digits_of(flat, (3,) * 3)
            expect_coeff = eps[a[i - 1]]
            image = tuple(t.op(a[k], a[i - 1]) for k in range(i - 1)) + a[i:]
            row = flat_index(image, (3, 3))
            assert got.entry(row, flat) == expect_coeff


def test_degeneracy_duplicates_for_shelf(r3):
    s = degeneracy(r3, 2, 1)
    # (a, b) -> (a, a, b)
    for flat in range(9):
        a, b = digits_of(flat, (3, 3))
        assert s.entry(flat_index((a, a, b), (3, 3, 3)), flat) == 1
    assert s.rows == 27 and s.cols == 9


def test_simplicial_levels_spindle(r3):
    rep = check_simplicial(r3, "ones", "ones", n_max=4)
    assert rep.left_level == "weakly simplicial"
    # right faces delete a strand with coefficient one, so that family is
    # even simplicial; the bisimplicial level is capped by the left one
    assert rep.right_level == "simplicial"
    assert rep.pre_bisimplicial
    assert rep.bisimplicial_level == "weakly bisimplicial"


def test_simplicial_levels_unital_algebra(kz2):
    rep = check_simplicial(kz2, "aug", "aug", n_max=4)
    assert rep.left_level == "simplicial"
    assert rep.pre_bisimplicial
    assert rep.bisimplicial_level in ("weakly bisimplicial", "bisimplicial")


def test_simplicial_levels_dirac_rack(r3):
    r3.add_character("d0", dirac_character(r3.payload, 0, ZZ))
    check_braided_character(r3, "d0")
    rep = check_simplicial(r3, "d0", "d0", n_max=4)
    assert rep.left_level == "weakly simplicial"
    assert rep.pre_bisimplicial
    assert rep.bisimplicial_level in ("none", "pre-bisimplicial")


# ---------------------------------------------------------------------------
# Hyper-boundaries
# ---------------------------------------------------------------------------

def test_signed_binomial_values():
    assert signed_binomial(1, 1) == 0
    assert signed_binomial(2, 2) == 2
    assert signed_binomial(2, 1) == 1
    assert signed_binomial(0, 0) == 1
    assert signed_binomial(3, 1) == 0


def test_hyper_edges(r3):
    n = 3
    assert hyper_boundary(r3, "ones", 0, n, "left") == r3.identity_power(n)
    assert hyper_boundary(r3, "ones", 1, n, "left") == left_diff(r3, "ones", n)
    assert hyper_boundary(r3, "ones", 1, n, "right") == right_diff(r3, "ones", n)
    top = hyper_boundary(r3, "ones", n, n, "left")
    assert top.rows == 1 and top.cols == 27


def test_hyper_composition_law(r3, kz2):
    for space, char in [(r3, "ones"), (kz2, "aug")]:
        for n in range(2, 5):
            for k in range(0, 3):
                for m in range(0, 3):
                    if k + m > n:
                        continue
                    for side in ("left", "right"):
                        lhs = compose(hyper_boundary(space, char, m, n - k, side),
                                      hyper_boundary(space, char, k, n, side))
                        rhs = hyper_boundary(space, char, m + k, n, side).scale(
                            signed_binomial(m, k))
                        assert lhs == rhs, (n, k, m, side)


# ---------------------------------------------------------------------------
# Boundaries by the order recursion, against the literal coshuffle formula
# ---------------------------------------------------------------------------

def pull_oracle(space, rho, k, n, side, lead=1, trail=1):
    """(rho_k (x) Id) o (Id_lead (x) Delta^(-sigma)_(k,n-k) (x) Id_trail) on
    the left, with rho_k = rho o (rho_(k-1) (x) Id_1); on the right its
    mirror through Delta^(-sigma)_(n-k,k) and rho'_k = rho o (Id_1 (x)
    rho'_(k-1)), with the sign (-1)^(kn - k(k+1)/2)."""
    d, ring = space.dim, space.ring

    def ident(m):
        return SparseLinearMap.identity(m, ring)

    if side == "left":
        rho_k = ident(lead)
        for _ in range(k):
            rho_k = rho.compose(tensor(rho_k, ident(d)))
        cosh = shuffle_coproduct(space, k, n - k, sign=-1)
        feed = tensor(rho_k, ident(d ** (n - k) * trail))
    else:
        rho_k = ident(trail)
        for _ in range(k):
            rho_k = rho.compose(tensor(ident(d), rho_k))
        cosh = shuffle_coproduct(space, n - k, k, sign=-1)
        feed = tensor(ident(lead * d ** (n - k)), rho_k)
    out = feed.compose(tensor(tensor(ident(lead), cosh), ident(trail)))
    return out.scale((-1) ** (k * n - k * (k + 1) // 2)) if side == "right" else out


def oracle_spaces(ring):
    """R3, Z[Z/2], the dual numbers and unitalized sl2 over one ring, each
    with the character its hyper-boundaries are checked for."""
    kz2 = assoc_braiding(kz2_data(ring))
    kz2.add_character("sign", [1, -1])
    dual = assoc_braiding(dual_numbers_data(ring))
    dual.add_character("counit", [1, 0])
    spaces = [(shelf_braiding(dihedral_shelf(3), ring), "ones"), (kz2, "sign"),
              (dual, "counit"), (leibniz_braiding(adjoin_unit(sl2_data(ring))), "counit")]
    return [(verify_space(space), char) for space, char in spaces]


@pytest.mark.parametrize("ring", [ZZ, QQ, PrimeField(3)], ids=["z", "q", "f3"])
def test_hyper_boundary_matches_coshuffle_formula(ring):
    for space, char in oracle_spaces(ring):
        eps = space.character(char)
        for n in range(6):
            for k in range(n + 1):
                for side in ("left", "right"):
                    assert hyper_boundary(space, char, k, n, side) == \
                        pull_oracle(space, eps, k, n, side), (space.dim, char, k, n, side)


def test_coeff_diff_matches_coshuffle_formula(r3):
    """The recursion is a linear identity once the YBE holds, so every
    action is checked on both ends, as the right action of the lead module
    and as the left action of the trail module, verified or not."""
    actions = [rackset_module(r3).action, character_module(r3, "ones").action,
               adjoint_module(r3, "ones", 1).action, adjoint_module(r3, "ones", 2).action]
    r3.allow_unverified = True
    for act in actions:
        dim = act.rows
        lead = BraidedModule(dim, act, "right", name="lead")
        trail = BraidedModule(dim, act, "left", name="trail")
        for M, N in ((lead, None), (None, trail), (lead, trail)):
            m = M.dim if M else 1
            t = N.dim if N else 1
            for n in range(1, 4):
                got = coeff_diff(r3, M, N, n, "left")
                want = pull_oracle(r3, M.action, 1, n, "left", m, t) if M else \
                    SparseLinearMap.zero(3 ** (n - 1) * t, 3 ** n * t, ZZ)
                assert got == want, (dim, n, "left")
                got = coeff_diff(r3, M, N, n, "right")
                want = pull_oracle(r3, N.action, 1, n, "right", m, t) if N else \
                    SparseLinearMap.zero(m * 3 ** (n - 1), m * 3 ** n, ZZ)
                assert got == want, (dim, n, "right")


def test_bimodule_diff_matches_coshuffle_formula(kz2, dual_numbers):
    for space in (kz2, dual_numbers):
        B = regular_bimodule(space)
        assert check_bimodule(space, B).ok
        m, d = B.dim, space.dim
        for n in range(1, 5):
            left, right = bimodule_diff(space, B, n)
            assert left == pull_oracle(space, B.right_action, 1, n, "left", lead=m)
            mid = pull_oracle(space, B.left_action, 1, n, "right", trail=m)
            fwd = block_flip(space.ring, m, d ** n)
            back = block_flip(space.ring, d ** (n - 1), m)
            assert right == back.compose(mid).compose(fwd)


# ---------------------------------------------------------------------------
# The one-crossing recursion of A_q, against the braid lift of its permutation
# ---------------------------------------------------------------------------

def crossed_oracle(space, rho, side, q):
    """A_q = (rho (x) Id_q) o (Id_lead (x) L_q) on the left, with L_q the
    negated lift pulling strand q+1 of q+1 to the left; on the right A'_q =
    (Id_q (x) rho') o (R_q (x) Id_trail), with R_q pulling strand 1 of q+1
    to the right. The lead (trail) block is rho.cols // d."""
    ring, left = space.ring, side == "left"

    def ident(m):
        return SparseLinearMap.identity(m, ring)

    lift = braid_lift(space, moving_permutation(q + 1 if left else 1, q + 1, to_left=left),
                      q + 1, -1)
    block = ident(rho.cols // space.dim)
    if left:
        return tensor(rho, ident(space.dim ** q)).compose(tensor(block, lift))
    return tensor(ident(space.dim ** q), rho).compose(tensor(lift, block))


def identity_actions(space):
    """Id_(d^p), p = 1..3: the actions whose crossings build the coshuffle."""
    return [space.identity_power(p) for p in range(1, 4)]


def assert_crossed_matches_lift(space, rho, max_q=4):
    for side in ("left", "right"):
        for q in range(max_q + 1):
            assert complexes._crossed(space, rho, side, q) == crossed_oracle(space, rho, side, q), \
                (space.dim, rho.rows, side, q)
            if q:
                assert (rho, side, "crossed", q) in space._boundary_cache


SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"


@pytest.mark.parametrize("ring_name", ["z", "q", "fp:3"])
@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.json")))
def test_crossed_matches_lift_on_scenario_characters(name, ring_name):
    space = verify_space(build_space(parse_scenario(SCENARIO_DIR / name),
                                     ring_from_name(ring_name)))
    for char in space.characters:
        assert_crossed_matches_lift(space, space.character(char))
    for rho in identity_actions(space):
        assert_crossed_matches_lift(space, rho)


def test_crossed_matches_lift_for_module_lead_and_trail(r3):
    """The R3 self-module's action as the lead block's right action and as
    the trail block's left action (the check is a linear identity)."""
    assert_crossed_matches_lift(r3, rackset_module(r3).action)


def test_crossed_matches_lift_without_ybe():
    """Moving one strand across q is a Coxeter element with a single reduced
    word, so the recursion equals the lift even where lifts depend on the
    word."""
    rng = random.Random(11)
    entries = [(i, j, rng.randint(-2, 2)) for i in range(4) for j in range(4)]
    space = PreBraidedSpace(2, ZZ, SparseLinearMap.from_entries(4, 4, entries, ZZ))
    assert not check_ybe(space).ok
    space.allow_unverified = True
    space.add_character("c", [1, -2])
    action = SparseLinearMap.from_entries(
        2, 4, [(i, j, rng.randint(-1, 1)) for i in range(2) for j in range(4)], ZZ)
    for rho in [space.character("c"), action] + identity_actions(space):
        assert_crossed_matches_lift(space, rho)


# ---------------------------------------------------------------------------
# The column-by-column kernel against the recursion by tensors, compositions
# and sums
# ---------------------------------------------------------------------------

def assert_pulled_matches_tensors(space, rho, max_n):
    """_pulled and _crossed equal the tensor recursion on both sides for
    every k <= n <= max_n, on a fresh cache, so each map is built by the
    kernel itself."""
    space._boundary_cache.clear()
    cache: dict = {}
    for side in ("left", "right"):
        for n in range(max_n + 1):
            assert complexes._crossed(space, rho, side, n) == \
                crossed_by_tensors(space, rho, side, n, cache), (space.dim, rho.rows, side, n)
            for k in range(n + 1):
                assert complexes._pulled(space, rho, side, k, n) == \
                    pulled_by_tensors(space, rho, side, k, n, cache), \
                    (space.dim, rho.rows, side, k, n)


@pytest.mark.parametrize("ring_name", ["z", "q", "fp:3"])
@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.json")))
def test_pulled_matches_tensor_recursion_on_scenarios(name, ring_name):
    """Every shipped scenario's characters, and its cocharacters on the
    transposed twin, where the co-side boundaries are built."""
    space = build_space(parse_scenario(SCENARIO_DIR / name), ring_from_name(ring_name))
    max_n = 4 if space.dim >= 4 else 5
    for char in space.characters:
        assert_pulled_matches_tensors(space, space.character(char), max_n)
    twin = space.transposed()
    for cochar in space.cocharacters:
        assert_pulled_matches_tensors(twin, space.cocharacter(cochar).transpose(), max_n)


@pytest.mark.parametrize("ring_name", ["z", "q", "fp:3"])
def test_pulled_matches_tensor_recursion_for_module_lead_and_trail(ring_name):
    """The R3 self-module's action, a block of three rows, as the lead
    block's right action and as the trail block's left action."""
    r3 = shelf_braiding(dihedral_shelf(3), ring_from_name(ring_name))
    assert_pulled_matches_tensors(r3, rackset_module(r3).action, 5)


@pytest.mark.parametrize("ring_name", ["z", "q", "fp:3"])
def test_pulled_matches_tensor_recursion_without_ybe(ring_name):
    """A braiding that fails the YBE, where lifts depend on the word: the
    boundaries follow the recursion's own words on both sides, the right
    ones of order 2 and more included."""
    ring = ring_from_name(ring_name)
    base = non_ybe_space()
    space = PreBraidedSpace(2, ring, base.braiding.with_ring(ring))
    space.add_character("c", [1, -2])
    rng = random.Random(5)
    action = SparseLinearMap.from_entries(
        2, 4, [(i, j, rng.randint(-2, 2)) for i in range(2) for j in range(4)], ring)
    for rho in (space.character("c"), action):
        assert_pulled_matches_tensors(space, rho, 5)


@pytest.mark.parametrize("dim, max_n", [(2, 5), (3, 4)])
def test_boundaries_match_coshuffle_formula_without_ybe(dim, max_n):
    """The right recursion peels the first strand where shuffle_coproduct
    peels the last, so the two give a shuffle different reduced words. A
    shuffle is fully commutative, so the words differ by commutations only,
    which need no YBE: on random braidings that fail it, every boundary,
    a character's and a two-row action's, equals the coshuffle formula."""
    rng = random.Random(dim)
    braidings = 0
    while braidings < 6:
        entries = [(i, j, rng.randint(-2, 2)) for i in range(dim * dim)
                   for j in range(dim * dim)]
        space = PreBraidedSpace(dim, ZZ, SparseLinearMap.from_entries(
            dim * dim, dim * dim, entries, ZZ))
        if check_ybe(space).ok:
            continue
        braidings += 1
        space.allow_unverified = True
        for rows in (1, 2):
            rho = SparseLinearMap.from_entries(
                rows, rows * dim, [(i, j, rng.randint(-2, 2)) for i in range(rows)
                                   for j in range(rows * dim)], ZZ)
            for side in ("left", "right"):
                block = {"lead": rows} if side == "left" else {"trail": rows}
                for n in range(max_n + 1):
                    for k in range(n + 1):
                        assert complexes._pulled(space, rho, side, k, n) == \
                            pull_oracle(space, rho, k, n, side, **block), \
                            (dim, braidings, rows, side, k, n)


def test_boundaries_build_no_lift(r3):
    """Every boundary comes from the crossing recursion; no braid lift is
    built on the way."""
    for side in ("left", "right"):
        for n in range(5):
            for k in range(n + 1):
                hyper_boundary(r3, "ones", k, n, side)
    M = rackset_module(r3)
    assert check_braided_module(r3, M).ok
    for n in range(1, 5):
        coeff_diff(r3, M, None, n)
    assert r3._lift_cache == {}


def test_coshuffles_build_no_lift_or_generator():
    """Every coshuffle comes from the boundaries' crossing recursion with the
    identity as its action: no lift is built, and the only generator
    matrices are the two the YBE check made. The coshuffles and their
    identity crossings, keyed by size, sit in the boundary cache."""
    r3 = verify_space(shelf_braiding(dihedral_shelf(3), ZZ))
    assert set(r3._generator_cache) == {(3, 1), (3, 2)}
    for sign in (1, -1):
        for n in range(6):
            for p in range(n + 1):
                shuffle_coproduct(r3, p, n - p, sign)
    assert r3._lift_cache == {}
    assert set(r3._generator_cache) == {(3, 1), (3, 2)}
    assert ("coshuffle", 2, 3, -1) in r3._boundary_cache
    assert (("identity", 9), "left", "crossed", 3) in r3._boundary_cache
    assert not any(isinstance(key[0], SparseLinearMap) for key in r3._boundary_cache)


@pytest.mark.parametrize("lead_dim", [1, 3])
def test_span_predicates_match_digit_definition(lead_dim):
    for d in (1, 2, 3):
        for n in range(5):
            dims = (lead_dim,) + (d,) * n
            repeated = repeated_neighbor_span(d, n)
            bearing = [unit_factor_span(d, n, u) for u in range(d)]
            for flat in range(lead_dim * d ** n):
                digs = digits_of(flat, dims)[1:]
                assert repeated(flat) == any(digs[i] == digs[i + 1] for i in range(n - 1))
                assert [pred(flat) for pred in bearing] == [u in digs for u in range(d)]


def test_enumerated_spans_match_their_predicates():
    """The kept indices of lead (x) V^(x)n that _assemble enumerates are the
    complement of unit_factor_span (the unit-free tensors, for every unit
    index) and of repeated_neighbor_span (no equal neighbours), ascending,
    with the lead block passed through."""
    for d in range(1, 5):
        for n in range(6):
            repeated = repeated_neighbor_span(d, n)
            for lead in (1, 2, 3):
                every = range(lead * d ** n)
                space = SimpleNamespace(dim=d, unit_index=None)
                assert complexes._nondegenerate(space, lead, n) == \
                    [j for j in every if not repeated(j)]
                for u in range(d):
                    bearing = unit_factor_span(d, n, u)
                    free = complexes._unit_free(SimpleNamespace(dim=d, unit_index=u), lead, n)
                    assert free == [j for j in every if not bearing(j)]
                    assert sorted(set(every) - set(free)) == [j for j in every if bearing(j)]


def test_replaced_character_builds_a_new_boundary(r3):
    """Boundaries are cached by the action's value, so a character replaced
    under the same name gets boundaries of its own."""
    r3.add_character("t", [1, 1, 1])
    assert check_braided_character(r3, "t").ok
    before = {(k, side): hyper_boundary(r3, "t", k, 4, side)
              for k in range(5) for side in ("left", "right")}
    r3.add_character("t", [2, 2, 2])
    assert check_braided_character(r3, "t").ok
    eps = r3.character("t")
    for k in range(5):
        for side in ("left", "right"):
            got = hyper_boundary(r3, "t", k, 4, side)
            assert got == pull_oracle(r3, eps, k, 4, side)
            assert got == before[(k, side)].scale(2 ** k)


# ---------------------------------------------------------------------------
# Crossing actions, homotopies, naturality
# ---------------------------------------------------------------------------

def test_crossing_action_shelf_diagonal(r3):
    t = r3.payload
    for b in range(3):
        w = [1 if j == b else 0 for j in range(3)]
        got = crossing_action(r3, "ones", w, 2)
        for flat in range(9):
            a = digits_of(flat, (3, 3))
            image = flat_index((t.op(a[0], b), t.op(a[1], b)), (3, 3))
            assert got.entry(image, flat) == 1
        assert got.nnz == 9


def test_crossing_action_unit_is_identity(kz2):
    got = crossing_action(kz2, "aug", [1, 0], 3)
    assert got == kz2.identity_power(3)


def test_crossing_action_leibniz_adjoint(sl2_unital):
    """[.,w]-derivation plus eps(w) scaling on each tensor slot."""
    data = sl2_unital.payload
    d = 4
    n = 2
    for w in range(4):
        wvec = [1 if j == w else 0 for j in range(4)]
        got = crossing_action(sl2_unital, "counit", wvec, n)
        eps = [0, 0, 0, 1]
        expect_entries = {}
        for flat in range(d ** n):
            v = digits_of(flat, (d,) * n)
            if eps[w]:
                expect_entries[(flat, flat)] = expect_entries.get((flat, flat), 0) + eps[w]
            for i in range(n):
                for target, coeff in data.operation.column(v[i] * d + w).items():
                    image = v[:i] + (target,) + v[i + 1:]
                    key = (flat_index(image, (d,) * n), flat)
                    expect_entries[key] = expect_entries.get(key, 0) + coeff
        expect = SparseLinearMap.from_entries(
            d ** n, d ** n, [(r, c, v) for (r, c), v in expect_entries.items()], ZZ)
        assert got == expect


def test_concat_homotopy_shape_and_sign(r3):
    h = concat_homotopy(r3, [1, 0, 0], 2)
    assert h.rows == 27 and h.cols == 9
    assert h.entry(flat_index((1, 2, 0), (3, 3, 3)), flat_index((1, 2), (3, 3))) == 1
    h3 = concat_homotopy(r3, [1, 0, 0], 3)
    assert h3.entry(flat_index((1, 2, 0, 0), (3,) * 4), flat_index((1, 2, 0), (3,) * 3)) == -1


def test_naturality_classifications(kz2, sl2_unital):
    rep = check_naturality(kz2, [1, 0])
    assert rep.classification == "demi-natural"
    assert all(rep.char_compat.values())
    rep2 = check_naturality(sl2_unital, [0, 0, 0, 1])
    assert rep2.classification == "natural"
    flip = flip_braiding(2, ZZ)
    flip.add_character("f", [1, 1])
    rep3 = check_naturality(flip, [2, 3])
    assert rep3.classification == "natural"


def test_leibniz_product_rule(r3):
    """d(vw) = d(v)w + (-1)^n pi_w(v) as matrices."""
    w = [0, 1, 0]
    col = SparseLinearMap.from_entries(3, 1, [(1, 0, 1)], ZZ)
    for n in range(1, 4):
        lhs = compose(left_diff(r3, "ones", n + 1), tensor(r3.identity_power(n), col))
        first = compose(tensor(left_diff(r3, "ones", n), SparseLinearMap.identity(3, ZZ)),
                        tensor(r3.identity_power(n), col))
        second = crossing_action(r3, "ones", w, n)
        rhs = first.add_map(second.neg() if n % 2 else second)
        assert lhs == rhs


def test_demi_natural_collapse(kz2, sl2_unital):
    # sigma demi-natural wrt the unit => crossing action with the unit is eps(unit) Id
    for space, char in [(kz2, "aug"), (kz2, "sign"), (sl2_unital, "counit")]:
        u = space.unit_index
        w = [1 if j == u else 0 for j in range(space.dim)]
        got = crossing_action(space, char, w, 2)
        assert got == space.identity_power(2)


def test_crossing_action_commutes_with_diffs(r3):
    w = [0, 0, 1]
    for n in range(2, 4):
        pi_n = crossing_action(r3, "ones", w, n)
        pi_prev = crossing_action(r3, "ones", w, n - 1)
        dl = left_diff(r3, "ones", n)
        assert compose(dl, pi_n) == compose(pi_prev, dl)
        dr = right_diff(r3, "ones", n)
        assert compose(dr, pi_n) == compose(pi_prev, dr)


def test_adjoint_module_and_diff_intertwine(r3):
    for n in (1, 2, 3):
        M = adjoint_module(r3, "ones", n)
        assert M.verified
    # left differential is a module morphism
    for n in (2, 3):
        act_n = adjoint_module(r3, "ones", n).action
        act_prev = adjoint_module(r3, "ones", n - 1).action
        dl = left_diff(r3, "ones", n)
        lhs = compose(dl, act_n)
        rhs = compose(act_prev, tensor(dl, SparseLinearMap.identity(3, ZZ)))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Modules, coefficients, bimodules
# ---------------------------------------------------------------------------

def test_zero_module_passes(r3):
    M = BraidedModule(2, SparseLinearMap.zero(2, 6, ZZ), "right")
    assert check_braided_module(r3, M).ok


def test_regular_module_group_algebra(kz2):
    mu = kz2.payload.operation
    M = BraidedModule(2, mu, "right", name="regular")
    rep = check_braided_module(kz2, M)
    assert rep.ok and rep.normalized and rep.classical_ok


def test_adjoint_module_of_sl2_meets_the_classical_leibniz_axiom(sl2_unital):
    """sl2 acting on itself by m.x = [m, x], and the unit by the identity,
    is a normalized right module: (m.x).y = (m.y).x + m.[x, y] is the
    Leibniz identity. Doubling one action entry breaks it."""
    d = sl2_unital.dim
    entries = [(k, c, v) for k, c, v in sl2_unital.payload.operation.entries()
               if c // d < 3 and c % d < 3]
    entries += [(m, m * d + 3, 1) for m in range(3)]
    good = BraidedModule(3, SparseLinearMap.from_entries(3, 3 * d, entries, ZZ), "right")
    rep = check_braided_module(sl2_unital, good)
    assert rep.normalized and rep.classical_ok is True
    k, c, v = entries[0]
    bad = BraidedModule(3, SparseLinearMap.from_entries(
        3, 3 * d, [(k, c, 2 * v)] + entries[1:], ZZ), "right")
    rep = check_braided_module(sl2_unital, bad)
    assert rep.normalized and rep.classical_ok is False


def test_rackset_module(r3):
    M = rackset_module(r3)
    assert check_braided_module(r3, M).ok


def test_left_module_group_algebra(kz2):
    mu = kz2.payload.operation
    L = BraidedModule(2, mu, "left", name="regular-left")
    assert check_braided_module(kz2, L).ok


def test_coeff_diff_reduces_to_left_diff(r3):
    M = character_module(r3, "ones")
    check_braided_module(r3, M)
    assert M.verified
    for n in range(1, 4):
        assert coeff_diff(r3, M, None, n, "left") == left_diff(r3, "ones", n)


def test_coeff_diff_square_zero_and_anticommute(r3, kz2, sl2_unital):
    cases = []
    Mr3 = rackset_module(r3)
    check_braided_module(r3, Mr3)
    cases.append((r3, Mr3, None))
    mu = kz2.payload.operation
    Mk = BraidedModule(2, mu, "right")
    Lk = BraidedModule(2, mu, "left")
    check_braided_module(kz2, Mk)
    check_braided_module(kz2, Lk)
    cases.append((kz2, Mk, Lk))
    Ms = adjoint_module(sl2_unital, "counit", 1)
    cases.append((sl2_unital, Ms, None))
    for space, M, N in cases:
        for n in range(2, 4):
            dl = coeff_diff(space, M, N, n, "left")
            dl_prev = coeff_diff(space, M, N, n - 1, "left")
            assert compose(dl_prev, dl).is_zero()
            dr = coeff_diff(space, M, N, n, "right")
            dr_prev = coeff_diff(space, M, N, n - 1, "right")
            assert compose(dr_prev, dr).is_zero()
            anti = compose(dl_prev, dr).add_map(compose(dr_prev, dl))
            assert anti.is_zero()


def test_bimodule_axioms_and_pair(kz2, dual_numbers):
    for space in (kz2, dual_numbers):
        B = regular_bimodule(space)
        rep = check_bimodule(space, B)
        assert rep.ok
        for n in range(2, 5):
            l_n, r_n = bimodule_diff(space, B, n)
            l_prev, r_prev = bimodule_diff(space, B, n - 1)
            assert compose(l_prev, l_n).is_zero()
            assert compose(r_prev, r_n).is_zero()
            anti = compose(l_prev, r_n).add_map(compose(r_prev, l_n))
            assert anti.is_zero()


def test_zero_bimodule(kz2):
    B = Bimodule(1, SparseLinearMap.zero(1, 2, ZZ), SparseLinearMap.zero(1, 2, ZZ))
    assert check_bimodule(kz2, B).ok
    l, r = bimodule_diff(kz2, B, 2)
    assert l.is_zero() and r.is_zero()


def test_failed_module_checks_say_the_axioms_fail(kz2):
    """A module, bimodule or bicomodule is checked when its first boundary
    is built: a valid one never checked builds and is flagged; one that
    fails is refused for failing its axioms until allow_unverified opens
    the gate."""
    # g acts by 2 on the right and by 1 on the left: g.g = 4 is not e = 1.
    right = SparseLinearMap.from_entries(1, 2, [(0, 0, 1), (0, 1, 2)], ZZ)
    left = SparseLinearMap.from_entries(1, 2, [(0, 0, 1), (0, 1, 1)], ZZ)
    co = coassoc_braiding(coalgebra_extend(
        algebra_from_constants("coalgebra", 1, [(0, 0, 0, 1)], ZZ)))
    good = [(kz2, Bimodule(1, left, left, name="good")),
            (kz2, BraidedModule(1, left, "left", name="good")),
            (co, coalgebra_self_bicomodule(co))]
    bad = [(kz2, Bimodule(1, right, left, name="bad"), "bimodule 'bad' fails the bimodule axioms"),
           (kz2, BraidedModule(1, right, "right", name="bad"),
            "module 'bad' fails the braided module axiom"),
           (co, Bicomodule(1, right.transpose(), left.transpose(), name="bad"),
            "bicomodule 'bad' fails the bicomodule axioms")]

    def build(space, X):
        if isinstance(X, Bimodule):
            return bimodule_diff(space, X, 2)
        if isinstance(X, Bicomodule):
            return bicomodule_codiff(space, X, 2)
        return coeff_diff(space, X if X.side == "right" else None,
                          X if X.side == "left" else None, 2)

    for space, X in good:
        assert X.verified is None
        build(space, X)
        assert X.verified is True
    for space, X, message in bad:
        with pytest.raises(UnverifiedError, match=(
                f"^{message} " r"\(pass --allow-unverified to use it anyway\)$")):
            build(space, X)
        assert X.verified is False
    for space in (kz2, co):
        space.allow_unverified = True
    for space, X, _ in bad:
        build(space, X)


# ---------------------------------------------------------------------------
# Named complexes against the printed formulas
# ---------------------------------------------------------------------------

def test_named_rack_matches_oracle(r3):
    c = named_complex(r3, "rack", 4)
    t = r3.payload
    ones = [1, 1, 1]
    for n in range(1, 5):
        want = shelf_left_oracle(t, ones, n).sub_map(shelf_right_oracle(t, ones, n))
        assert c.diffs[n] == want


def test_named_shelf_matches_oracle(r3):
    c = named_complex(r3, "shelf", 4)
    for n in range(1, 5):
        assert c.diffs[n] == shelf_left_oracle(r3.payload, [1, 1, 1], n)


def test_named_quandle_dims(r3):
    c = named_complex(r3, "quandle", 4)
    assert c.dims == [1, 3, 6, 12, 24]  # 3 * 2^(n-1) non-degenerate tuples


def test_named_twisted_rack(r3_q):
    c = named_complex(r3_q, "twisted-rack", 3, {"twist": Fraction(2)})
    t = r3_q.payload
    for n in range(1, 4):
        want = shelf_left_oracle(t, [1, 1, 1], n, QQ).sub_map(
            shelf_right_oracle(t, [Fraction(2)] * 3, n, QQ))
        assert c.diffs[n] == want


def test_named_partial_derivative(r3):
    c = named_complex(r3, "partial-derivative", 3, {"element": 0})
    t = r3.payload
    for n in range(1, 4):
        assert c.diffs[n] == shelf_left_oracle(t, [1, 0, 0], n)


def test_named_bar_dual_numbers(dual_numbers):
    c = named_complex(dual_numbers, "bar", 4)
    # reduced bar of k[x]/x^2 is identically zero: mu(x,x) = 0
    assert c.dims == [1, 1, 1, 1, 1]
    for n in range(1, 5):
        assert c.diffs[n].is_zero()


def test_named_bar_truncated_polynomials():
    tri = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (0, 2, 2, 1), (2, 0, 2, 1),
           (1, 1, 2, 1)]
    data = algebra_from_constants("associative", 3, tri, ZZ, unit_index=0)
    data.counit = SparseLinearMap.from_entries(1, 3, [(0, 0, 1)], ZZ)
    space = verify_space(assoc_braiding(data))
    c = named_complex(space, "bar", 4)
    for n in range(1, 5):
        want = group_oracle(data, [0, 0, 0], [0, 0, 0], n)
        assert c.diffs[n] == want


def test_named_group_z2(kz2):
    c = named_complex(kz2, "group", 5, {"left_char": "aug", "right_char": "aug"})
    # C_n = Z for all n, boundary alternates 0, 2, 0, 2, ...
    assert c.dims == [1, 1, 1, 1, 1, 1]
    for n in range(1, 6):
        want = 1 + (-1) ** n
        assert c.diffs[n].entry(0, 0) == want
    data = kz2.payload
    for n in range(1, 5):
        assert c.diffs[n] == group_oracle(data, [1, 1], [1, 1], n)


def test_named_group_with_sign_character(kz2):
    c = named_complex(kz2, "group", 4, {"left_char": "aug", "right_char": "sign"})
    data = kz2.payload
    for n in range(1, 5):
        assert c.diffs[n] == group_oracle(data, [1, 1], [1, -1], n)


def test_named_hochschild_matches_textbook(kz2, dual_numbers):
    for space in (kz2, dual_numbers):
        c = named_complex(space, "hochschild", 4)
        data = space.payload
        for n in range(1, 5):
            assert c.diffs[n] == hochschild_oracle(data, n)


def test_named_leibniz_sl2():
    data = sl2_data(ZZ)
    ext = adjoin_unit(data)
    space = verify_space(leibniz_braiding(ext))
    c = named_complex(space, "leibniz", 3)
    assert c.dims == [1, 3, 9, 27]
    for n in range(1, 4):
        assert c.diffs[n] == leibniz_restricted_oracle(ext, n)


def test_leibniz_complex_writes_only_its_span(monkeypatch):
    """The Leibniz complex keeps the 3^n unit-free tensors of the 4^n of the
    unitalized sl2. Its boundaries are written on those columns and on the
    crossing columns they read, so no map the recursion writes for degree 5
    has more than 3^5 nonzero columns (the full build writes 956), and
    nothing of them is cached: the cache on the space holds only full maps."""
    from braidhom import braiding
    written = []

    def counted(build):
        def wrapper(*args, **kwargs):
            out = build(*args, **kwargs)
            written.append(len(out._cols))
            return out
        return wrapper

    monkeypatch.setattr(braiding, "_crossed", counted(braiding._crossed))
    monkeypatch.setattr(complexes, "_crossed", braiding._crossed)
    monkeypatch.setattr(complexes, "_step", counted(complexes._step))
    space = verify_space(leibniz_braiding(adjoin_unit(sl2_data(QQ))))
    c = named_complex(space, "leibniz", 5)
    assert c.dims == [3 ** n for n in range(6)]
    assert 0 < max(written) <= 3 ** 5
    assert not space._boundary_cache
    # the full left complex on the same space writes the ambient columns
    written.clear()
    named_complex(space, "left", 5, {"left_char": "counit"})
    assert max(written) > 3 ** 5


def test_leibniz_complex_writes_each_column_once(monkeypatch):
    """One build of the sl2 Leibniz complex to degree 6 writes each column
    of each map of the recursion at most once: every boundary H(1,n) is
    one _step, which lower degrees' boundaries feed as they are, and every
    crossing column A_q enters the build's store once, whichever degrees
    read it. Afterwards the space holds what it held before."""
    from braidhom import braiding
    writes = []

    def step(d, stay, cross, inner, side, stay_sign, sign, cols=None):
        out = braiding._step(d, stay, cross, inner, side, stay_sign, sign, cols)
        writes.extend(("pulled", out.cols, j) for j in out._cols)
        return out

    crossed_columns = braiding._crossed_columns

    def crossed(space, rho, q, cols):
        before = set(space._boundary_cache.get((rho, "left", "columns", q), ()))
        have = crossed_columns(space, rho, q, cols)
        writes.extend(("crossed", q, j) for j in have if q and j not in before)
        return have

    monkeypatch.setattr(complexes, "_step", step)
    monkeypatch.setattr(braiding, "_crossed_columns", crossed)
    space = verify_space(leibniz_braiding(adjoin_unit(sl2_data(QQ))))
    held = {name: dict(value) if isinstance(value, dict) else value
            for name, value in vars(space).items()}
    c = named_complex(space, "leibniz", 6)
    assert c.dims == [3 ** n for n in range(7)]
    assert writes and len(writes) == len(set(writes))
    assert {q for kind, q, _ in writes if kind == "crossed"} == set(range(1, 6))
    assert vars(space) == held
    assert not space._boundary_cache


# d_2 d_2 = 2 d_4, so the order-2 complex squares to zero over F_2 only.
@pytest.mark.parametrize("row, params, ring", [
    ("rack", {}, ZZ), ("hyper-left", {"order": 2}, PrimeField(2)),
    ("hyper-right", {"order": 3}, ZZ),
])
def test_named_complex_writes_each_piece_once(monkeypatch, row, params, ring):
    """One build of a named complex of R5 to degree 5 writes each H, H', A_q
    and A'_q once, into a store of its own: the store drops a piece only
    once no later degree reads it, so dropping too early shows as a second
    write of the same piece rather than as lost time, and the space holds
    afterwards what it held before."""
    writes = []

    class Recorded(dict):
        def __setitem__(self, key, value):
            writes.append(key)
            super().__setitem__(key, value)

    init = complexes._Build.__init__
    monkeypatch.setattr(complexes._Build, "__init__", lambda self, space, top, store=None: init(
        self, space, top, Recorded() if store is None else store))
    space = verify_space(shelf_braiding(dihedral_shelf(5), ring))
    held = {name: type(value)(value) if isinstance(value, (dict, set)) else value
            for name, value in vars(space).items()}
    named_complex(space, row, 5, params)
    assert writes and len(writes) == len(set(writes))
    assert vars(space) == held
    assert not space._boundary_cache


def test_rack_build_peak_memory():
    """The store drops each piece once no later degree reads it, and each
    side's pieces at the top degree as soon as that side is written. The
    traced peak of building R5's rack complex to degree 5 is about 3.8 MB
    with Python 3.11; keeping every piece to the end of the build, as the
    space's cache did, peaks at about 6.4 MB."""
    import tracemalloc
    space = verify_space(shelf_braiding(dihedral_shelf(5), ZZ))
    tracemalloc.start()
    try:
        named_complex(space, "rack", 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000, peak


def test_named_leibniz_nonlie():
    ext = adjoin_unit(nonlie_leibniz_data(ZZ))
    space = verify_space(leibniz_braiding(ext))
    c = named_complex(space, "leibniz", 4)
    for n in range(1, 5):
        assert c.diffs[n] == leibniz_restricted_oracle(ext, n)


def test_named_graded_leibniz_zero_degrees_matches_plain():
    data = sl2_data(ZZ)
    data.grading = [0, 0, 0]
    ext = adjoin_unit(data)
    space = verify_space(leibniz_braiding(ext))
    plain = named_complex(space, "leibniz", 3)
    graded = named_complex(space, "graded-leibniz", 3)
    for n in range(1, 4):
        assert plain.diffs[n] == graded.diffs[n]


def test_named_graded_leibniz_super_example():
    # x odd (degree 1), y = [x,x] of degree 2, central unit appended
    data = algebra_from_constants("leibniz", 2, [(0, 0, 1, 1)], ZZ, grading=[1, 2])
    ext = adjoin_unit(data)
    space = verify_space(check_graded(ext))
    c = named_complex(space, "graded-leibniz", 4)
    for n in range(1, 5):
        assert c.diffs[n] == leibniz_restricted_oracle(ext, n, grading=ext.grading)


def check_graded(ext):
    return leibniz_braiding(ext, graded=True)


def test_named_cobar_zero_coalgebra():
    space_payload = shelf_like_coalgebra_space(zero_coalgebra_data(ZZ))
    c = named_complex(space_payload, "cobar", 4)
    assert c.step == 1
    assert c.dims == [1, 1, 1, 1, 1]
    for n in range(0, 4):
        assert c.diffs[n].is_zero()


def shelf_like_coalgebra_space(data):
    """Wrap raw coalgebra data in a carrier space (the braiding is built
    internally after the counital extension)."""
    from braidhom import PreBraidedSpace
    sigma = SparseLinearMap.identity(data.dim * data.dim, data.ring)
    return PreBraidedSpace(data.dim, data.ring, sigma, payload=data)


def test_named_cobar_matches_oracle():
    # delta(x) = x (x) x
    data = algebra_from_constants("coalgebra", 1, [(0, 0, 0, 1)], ZZ)
    space = shelf_like_coalgebra_space(data)
    c = named_complex(space, "cobar", 4)
    for n in range(0, 4):
        assert c.diffs[n] == cobar_oracle(data, n)


def test_cobar_is_transpose_of_bar():
    # dual pair: algebra x*x = x <-> coalgebra delta(x) = x (x) x
    alg = algebra_from_constants("associative", 1, [(0, 0, 0, 1)], ZZ)
    ualg = adjoin_unit(alg)
    aspace = verify_space(assoc_braiding(ualg))
    bar = named_complex(aspace, "bar", 4)
    co = algebra_from_constants("coalgebra", 1, [(0, 0, 0, 1)], ZZ)
    cspace = shelf_like_coalgebra_space(co)
    cobar = named_complex(cspace, "cobar", 4)
    for n in range(0, 4):
        assert cobar.diffs[n] == bar.diffs[n + 1].transpose()


def test_cartier_is_transpose_of_hochschild():
    for alg_data in (algebra_from_constants("associative", 1, [(0, 0, 0, 1)], ZZ),
                     algebra_from_constants("associative", 1, [], ZZ)):
        ualg = adjoin_unit(alg_data)
        aspace = verify_space(assoc_braiding(ualg))
        hoch = named_complex(aspace, "hochschild", 3)
        # dual coalgebra of the non-unital part: transpose the multiplication
        co_triples = [(i, j, k, v) for k, c, v in alg_data.operation.entries()
                      for i, j in [divmod(c, alg_data.dim)]]
        co = algebra_from_constants("coalgebra", 1, co_triples, ZZ)
        cspace = shelf_like_coalgebra_space(co)
        cart = named_complex(cspace, "cartier", 3)
        assert cart.dims == hoch.dims
        for n in range(0, 3):
            assert cart.diffs[n] == hoch.diffs[n + 1].transpose()


def test_codiff_square_zero_and_anticommute():
    data = coalgebra_extend(algebra_from_constants("coalgebra", 1, [(0, 0, 0, 1)], ZZ))
    from braidhom import coassoc_braiding, check_braided_cocharacter
    space = coassoc_braiding(data)
    check_ybe(space)
    check_braided_cocharacter(space, "unit")
    for n in range(0, 4):
        up = left_codiff(space, "unit", n)
        upup = left_codiff(space, "unit", n + 1)
        assert compose(upup, up).is_zero()
        rt = right_codiff(space, "unit", n)
        rtrt = right_codiff(space, "unit", n + 1)
        assert compose(rtrt, rt).is_zero()
        anti = compose(upup, rt).add_map(compose(rtrt, up))
        assert anti.is_zero()


def test_bicomodule_codiff_pair():
    data = coalgebra_extend(algebra_from_constants("coalgebra", 1, [(0, 0, 0, 1)], ZZ))
    from braidhom import coassoc_braiding, check_braided_cocharacter
    space = coassoc_braiding(data)
    check_ybe(space)
    space.payload = data
    B = coalgebra_self_bicomodule(space)
    assert check_bicomodule(space, B).ok
    for n in range(0, 3):
        l_n, r_n = bicomodule_codiff(space, B, n)
        l_up, r_up = bicomodule_codiff(space, B, n + 1)
        assert compose(l_up, l_n).is_zero()
        assert compose(r_up, r_n).is_zero()
        anti = compose(l_up, r_n).add_map(compose(r_up, l_n))
        assert anti.is_zero()


def _random_map(rng, rows, cols, ring):
    return SparseLinearMap.from_entries(
        rows, cols, [(i, j, rng.randint(-2, 2)) for i in range(rows) for j in range(cols)], ring)


@pytest.mark.parametrize("ring_name", ["z", "q", "fp:3"])
@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.json")))
def test_codifferentials_match_the_shuffle_product_formula(name, ring_name):
    """Every degree +1 map is a transposed boundary on the transposed twin;
    the direct shuffle-product formula checks it on the declared
    cocharacters, on a random one, and on the bicomodules: the coalgebra's
    own and a random one, whose M block (dimension 2) leads the left map and
    trails the right one."""
    space = build_space(parse_scenario(SCENARIO_DIR / name), ring_from_name(ring_name))
    assert check_ybe(space).ok
    for cochar in space.cocharacters:
        assert check_braided_cocharacter(space, cochar).ok
    rng = random.Random(13)
    d, ring = space.dim, space.ring
    bicomodules = [Bicomodule(2, _random_map(rng, 2 * d, 2, ring),
                              _random_map(rng, 2 * d, 2, ring), "random")]
    if getattr(space.payload, "kind", None) == "coalgebra":
        bicomodules.append(coalgebra_self_bicomodule(space))
    space.add_cocharacter("random", [rng.randint(-2, 2) for _ in range(d)])
    space.allow_unverified = True   # for the random data, which satisfy no axiom
    for n in range(4):
        for cochar, e in space.cocharacters.items():
            assert left_codiff(space, cochar, n) == pushed(space, e, n, "left"), (cochar, n)
            assert right_codiff(space, cochar, n) == pushed(space, e, n, "right"), (cochar, n)
        for B in bicomodules:
            assert bicomodule_codiff(space, B, n) == pushed_bicomodule(space, B, n), (B.name, n)


def test_bicomodule_check_matches_the_coaction_axioms(dual_numbers):
    """check_bicomodule runs the bimodule axioms of the transposed coactions
    on the twin; its report matches the axioms read on the coactions."""
    data = coalgebra_extend(algebra_from_constants("coalgebra", 1, [(0, 0, 0, 1)], ZZ))
    co = coassoc_braiding(data)
    check_ybe(co)
    rng = random.Random(5)
    cases = [(co, coalgebra_self_bicomodule(co))]
    for space in (co, dual_numbers):
        for m in (1, 2):
            d = space.dim
            cases.append((space, Bicomodule(m, _random_map(rng, m * d, m, space.ring),
                                            _random_map(rng, m * d, m, space.ring))))
    assert cases[0][1].verified is None
    for space, B in cases:
        rep = check_bicomodule(space, B)
        assert (rep.braided_ok, rep.compat_ok) == bicomodule_axioms(space, B)
        assert B.verified is rep.ok
    assert cases[0][1].verified and not all(B.verified for _, B in cases)


def test_twin_is_built_once_and_follows_the_gates(r3):
    """The transposed twin keeps its own caches and reads the space's YBE
    flag and override on every call."""
    twin = r3.transposed()
    assert twin is r3.transposed()
    assert twin.braiding == r3.braiding.transpose()
    assert twin._boundary_cache is not r3._boundary_cache
    assert twin.ybe_checked and not twin.allow_unverified
    r3.allow_unverified = True
    r3.ybe_checked = False
    assert r3.transposed().allow_unverified and not r3.transposed().ybe_checked


def test_named_complex_unknown_name(r3):
    with pytest.raises(ExactError):
        named_complex(r3, "mystery", 3)


def test_every_complex_is_one_row():
    """The classical complexes and the eight generic kinds are the rows."""
    assert set(COMPLEX_PARAMS) == set(NAMED_COMPLEXES) | {
        "left", "right", "combined", "face", "hyper-left", "hyper-right", "coeff", "bimodule"}
    assert len(NAMED_COMPLEXES) == 13


def test_named_hyper_row_has_step_minus_order(r3):
    c = named_complex(r3, "hyper-left", 6, {"left_char": "ones", "order": 3})
    assert c.step == -3
    assert c.builder == "hyper-left,left=ones,k=3"
    assert set(c.diffs) == {3, 4, 5, 6}
    for n, m in c.diffs.items():
        assert m == hyper_boundary(r3, "ones", 3, n)


@pytest.mark.parametrize("order", [0, -1])
def test_named_hyper_rows_refuse_order_below_one(r3, order):
    for row in ("hyper-left", "hyper-right"):
        with pytest.raises(ExactError, match=f"hyper order must be 1 or more, not {order}"):
            named_complex(r3, row, 3, {"order": order})


def test_named_complex_refuses_params_it_does_not_read(r3):
    with pytest.raises(ExactError, match="the rack complex does not read twist"):
        named_complex(r3, "rack", 3, {"twist": 2})


@pytest.mark.parametrize("row, params", [
    ("koszul", {"left_char": "nope"}), ("left", {"left_char": "nope"}),
    ("right", {"right_char": "nope"}), ("group", {"left_char": "nope"}),
])
def test_named_complex_unknown_character_lists_declared(r3, kz2, row, params):
    space = kz2 if row == "group" else r3
    declared = "aug, sign" if row == "group" else "ones"
    with pytest.raises(ExactError) as err:
        named_complex(space, row, 3, params)
    assert str(err.value) == f"unknown character 'nope'; declared characters: {declared}"


def test_generic_twist_is_the_twisted_rack_character(r3_q):
    """One twist helper serves twisted-rack and the generic kinds."""
    generic = named_complex(r3_q, "combined", 3, {"twist": Fraction(2)})
    named = named_complex(r3_q, "twisted-rack", 3, {"twist": Fraction(2)})
    assert generic.builder == "combined,left=ones,right=twist:2"
    assert generic.diffs == named.diffs


@pytest.mark.parametrize("row, builder", [
    ("shelf", "left_diff"), ("left", "left_diff"), ("right", "right_diff"), ("face", "face_sum"),
    ("hyper-left", "hyper_boundary"), ("rack", "combined_diff"),
])
def test_rows_call_their_builder_through_the_module(r3, monkeypatch, row, builder):
    """A wrapper installed on the module, as the benchmark's tracer installs
    one, sees every boundary a row builds."""
    calls = []
    real = getattr(complexes, builder)
    monkeypatch.setattr(complexes, builder,
                        lambda *args: calls.append(args) or real(*args))
    named_complex(r3, row, 2)
    assert calls


def test_row_gates_honour_the_space_override():
    """A braiding that fails the YBE is refused, unless the space overrides
    its gates; then the koszul row builds on it."""
    sigma = SparseLinearMap.from_entries(4, 4, [(0, 0, 1), (2, 1, 1), (3, 2, 1), (2, 3, 1)], QQ)
    space = PreBraidedSpace(2, QQ, sigma)
    space.add_character("ones", [1, 1])
    with pytest.raises(UnverifiedError, match="Yang-Baxter"):
        named_complex(space, "koszul", 2)
    space.allow_unverified = True
    assert named_complex(space, "koszul", 2).builder == "koszul[ones]"


def test_named_koszul_matches_oracle():
    space = flip_braiding(2, ZZ)
    check_ybe(space)
    space.add_character("e", [1, 1])
    check_braided_character(space, "e")
    c = named_complex(space, "koszul", 4)
    for n in range(1, 5):
        assert c.diffs[n] == koszul_oracle(2, [1, 1], n)


def test_hyper_top_order_collapses_to_character_power(r3):
    for n in (1, 2, 3):
        got = hyper_boundary(r3, "ones", n, n, "left")
        eps = r3.characters["ones"]
        want = SparseLinearMap.identity(1, ZZ)
        for _ in range(n):
            want = tensor(want, eps)
        assert got == want
