"""The check command and the verify suites, which test the paper's
identities rather than compute homology.

cli.run imports this module only for ``check`` and ``verify``, so a
``homology`` or ``complex`` run never compiles it. Each driver imports the
identity code it runs (braidhom.identities) when it runs, so the hyper and
duality suites, which read only boundaries, never compile that either.
"""

from __future__ import annotations

from functools import reduce

from ._fork import Child
from .exactlin import ExactError, is_invertible, tensor
from .braiding import braid_lift, check_braided_character, check_braided_cocharacter, shuffle_set
from . import structures as st
from .complexes import (
    check_bimodule,
    check_braided_module,
    face_sum,
    hyper_boundary,
    left_codiff,
    left_diff,
    named_complex,
    right_diff,
    signed_binomial,
)
from .homology import ensure_cap
from .cli import _ybe_entry


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def run_check(space, args, report) -> bool:
    from .identities import check_braided_coalgebra, check_character_compat, check_naturality

    report["ybe"] = _ybe_entry(space)
    ok = report["ybe"]["ok"]

    payload = space.payload
    if isinstance(payload, st.ShelfTable):
        rep = st.check_shelf(payload)
        entry = {"self_distributive": rep.self_distributive, "rack": rep.rack,
                 "quandle": rep.quandle, "spindle": rep.spindle}
        if rep.sd_witness:
            entry["sd_violation_triple"] = list(rep.sd_witness)
        report["shelf"] = entry
        ok &= rep.self_distributive
    elif isinstance(payload, st.AlgebraData) and payload.kind == "associative":
        rep = st.check_assoc(payload)
        entry = {"associative": rep.associative,
                 "right_unital": rep.right_unital, "left_unital": rep.left_unital}
        if rep.witness:
            entry["violation_triple"] = list(rep.witness)
        report["associative"] = entry
        ok &= rep.associative
    elif isinstance(payload, st.AlgebraData) and payload.kind == "leibniz":
        rep = st.check_leibniz(payload)
        entry = {"leibniz": rep.leibniz, "unit_central": rep.unit_central}
        if rep.witness:
            entry["violation_triple"] = list(rep.witness)
        report["leibniz"] = entry
        ok &= rep.leibniz

    chars = {}
    names = sorted(space.characters)
    for name in names:
        rep = check_braided_character(space, name)
        one = {"braided": rep.ok}
        if isinstance(payload, st.AlgebraData):
            cov = space.characters[name]
            if payload.kind == "associative":
                one["algebra_character"] = bool(st.algebra_character_check(payload, cov))
            elif payload.kind == "leibniz":
                one["bracket_character"] = bool(st.lie_character_check(payload, cov))
        chars[name] = one
        ok &= rep.ok
    report["characters"] = chars
    compat = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            compat[f"{a},{b}"] = bool(check_character_compat(space, a, b))
    if compat:
        report["character_compatibility"] = compat

    for name in sorted(space.cocharacters):
        rep = check_braided_cocharacter(space, name)
        report.setdefault("cocharacters", {})[name] = {"braided": rep.ok}
        ok &= rep.ok

    if space.comultiplication is not None:
        rep = check_braided_coalgebra(space)
        report["coalgebra"] = {
            "coassociative": rep.coassociative,
            "braiding_compatible_left": rep.compat_left,
            "braiding_compatible_right": rep.compat_right,
            "cocommutative": rep.cocommutative,
            "classification": rep.classification,
        }

    if space.unit_index is not None:
        w = [1 if j == space.unit_index else 0 for j in range(space.dim)]
        rep = check_naturality(space, w)
        report["unit_naturality"] = {
            "classification": rep.classification,
            "character_compatibility": {k: v for k, v in sorted(rep.char_compat.items())},
        }

    report["braiding_invertible"] = is_invertible(space.braiding)

    mods = {}
    for name in sorted(space.modules):
        rep = check_braided_module(space, space.modules[name])
        mods[name] = {"braided": rep.braided_ok}
        if rep.normalized is not None:
            mods[name]["normalized"] = rep.normalized
        if rep.classical_ok is not None:
            mods[name]["classical_axiom"] = rep.classical_ok
        ok &= rep.braided_ok
    for name in sorted(space.bimodules):
        rep = check_bimodule(space, space.bimodules[name])
        mods[name] = {"braided": rep.braided_ok, "compatibility": rep.compat_ok}
        ok &= rep.ok
    if mods:
        report["modules"] = mods
    return ok


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _default_chars(space, args, suite=None):
    """The suite's left and right characters: the flags, else ones, counit
    or the first declared character; the right one defaults to the left. A
    suite named here cannot run without one, so a space that declares none
    is an input error, and so is a name it does not declare."""
    lc = getattr(args, "left_char", None)
    rc = getattr(args, "right_char", None)
    if lc is None:
        if "ones" in space.characters:
            lc = "ones"
        elif "counit" in space.characters:
            lc = "counit"
        elif len(space.characters) >= 1:
            lc = sorted(space.characters)[0]
        elif suite is not None:
            raise ExactError(f"the {suite} suite needs a character; declared characters: none")
    if rc is None:
        rc = lc
    for name in (lc, rc):
        if name is not None:
            space.character(name)
    return lc, rc


def _refuse_unread(args, suite, *read):
    """A character flag the suite does not read is refused, as
    cli._complex_from_args refuses a complex's; a value filled in from the
    scenario's defaults is not."""
    for attr in ("left_char", "right_char"):
        if attr not in read and getattr(args, attr) is not None \
                and attr not in args.from_scenario:
            raise ExactError(f"the {suite} suite does not read --{attr.replace('_', '-')}")


def _suite_degree(space, args, default: int) -> int:
    """The suite's top degree: --max-degree, else its default. A degree
    whose basis would exceed --basis-cap (or the default cap) is refused
    before anything is built."""
    n_max = args.max_degree if args.max_degree is not None else default
    ensure_cap([space.dim ** n_max], args.basis_cap)
    return n_max


def _suite_simplicial(space, args, report) -> bool:
    from .identities import check_simplicial

    n_max = _suite_degree(space, args, 5)
    lc, rc = _default_chars(space, args, "simplicial")
    rep = check_simplicial(space, lc, rc, n_max)
    report["simplicial"] = {
        "left_level": rep.left_level, "right_level": rep.right_level,
        "pre_bisimplicial": rep.pre_bisimplicial,
        "bisimplicial_level": rep.bisimplicial_level,
        "failures": len(rep.failures),
    }
    face_ok = True
    for n in range(1, n_max + 1):
        face_ok &= face_sum(space, lc, n, "left") == left_diff(space, lc, n)
        face_ok &= face_sum(space, rc, n, "right") == right_diff(space, rc, n)
    report["simplicial"]["face_sums_match_differentials"] = face_ok
    return rep.left_level != "none" and rep.right_level != "none" \
        and rep.pre_bisimplicial and face_ok


def _hyper_side(space, char, n_max: int, side: str) -> tuple[bool, int]:
    """Check d^(m) d^(k) = signed_binomial(m, k) d^(m+k) on one side for
    every k <= 4, m <= 4 - k and k + m <= n <= n_max; returns (all held,
    identities checked)."""
    ok = True
    checked = 0
    for n in range(1, n_max + 1):
        for k in range(0, min(4, n) + 1):
            for m in range(0, 5 - k):
                if k + m > n:
                    continue
                lhs = hyper_boundary(space, char, m, n - k, side).compose(
                    hyper_boundary(space, char, k, n, side))
                rhs = hyper_boundary(space, char, m + k, n, side).scale(signed_binomial(m, k))
                ok &= lhs == rhs
                checked += 1
    return ok, checked


def _side_result(data):
    """(ok, checked) from the child's ``"<ok> <checked>"``, or None when it
    sent nothing or something malformed."""
    fields = data.split() if data is not None else []
    if len(fields) != 2 or fields[0] not in (b"0", b"1") or not fields[1].isdigit():
        return None
    return fields[0] == b"1", int(fields[1])


def _suite_hyper(space, args, report) -> bool:
    """The two sides share no boundary, so a forked child checks the right
    side while this process checks the left. Where the child cannot start
    or fails, this process checks the right side itself, so an error raised
    there surfaces here with its usual exit code and message."""
    n_max = _suite_degree(space, args, 6)
    lc, rc = _default_chars(space, args, "hyper")

    def right_side():
        ok, checked = _hyper_side(space, rc, n_max, "right")
        return f"{int(ok)} {checked}".encode()

    with Child(right_side) as child:
        left = _hyper_side(space, lc, n_max, "left")
        right = _side_result(child.result())
    if right is None:
        right = _hyper_side(space, rc, n_max, "right")
    ok = left[0] and right[0]
    report["hyper"] = {"ok": ok, "identities_checked": left[1] + right[1],
                       "max_degree": n_max}
    return ok


def _suite_hopf(space, args, report) -> bool:
    from .identities import (check_antipode_axiom, check_coshuffle_coassociativity,
                             check_hopf_compatibility, check_shuffle_associativity,
                             check_sigma_commutativity)

    _refuse_unread(args, "hopf")
    n_max = _suite_degree(space, args, 4)
    entry = {}
    entry["associativity"] = bool(check_shuffle_associativity(space, n_max))
    entry["coassociativity"] = bool(check_coshuffle_coassociativity(space, n_max))
    entry["compatibility"] = bool(check_hopf_compatibility(space, n_max))
    entry["antipode"] = bool(check_antipode_axiom(space, n_max))
    involutive = space.braiding.compose(space.braiding) == space.identity_power(2)
    entry["involutive"] = involutive
    if involutive:
        entry["commutativity"] = bool(check_sigma_commutativity(space, n_max))
    report["hopf"] = entry
    return all(v for k, v in entry.items() if k != "involutive")


def _suite_homotopy(space, args, report) -> bool:
    from .identities import certify_acyclic, concat_homotopy, rack_contraction

    n_max = _suite_degree(space, args, 5)
    results = {}
    payload = space.payload
    if isinstance(payload, st.ShelfTable):
        lc, rc = _default_chars(space, args, "homotopy")
        c = named_complex(space, "right", n_max, {"right_char": rc}, basis_cap=args.basis_cap)
        h = {n: concat_homotopy(space, [1] + [0] * (space.dim - 1), n)
             for n in range(n_max)}
        results["right_complex_concatenation"] = bool(certify_acyclic(c, h))
        if st.check_shelf(payload).rack:
            c = named_complex(space, "left", n_max, {"left_char": lc}, basis_cap=args.basis_cap)
            h = {n: rack_contraction(space, 0, n) for n in range(n_max)}
            results["left_complex_inverse_translation"] = bool(certify_acyclic(c, h))
    elif isinstance(payload, st.AlgebraData) and space.unit_index is not None:
        _refuse_unread(args, "homotopy", "left_char")
        lc, _ = _default_chars(space, args, "homotopy")
        w = [1 if j == space.unit_index else 0 for j in range(space.dim)]
        c = named_complex(space, "left", n_max, {"left_char": lc}, basis_cap=args.basis_cap)
        h = {n: concat_homotopy(space, w, n) for n in range(n_max)}
        results["left_complex_unit_concatenation"] = bool(certify_acyclic(c, h))
    else:
        # flip-like space: use any basis element the character sends to one
        lc, rc = _default_chars(space, args)
        eps = space.characters.get(lc)
        w = None
        if eps is not None:
            for j in range(space.dim):
                if eps.entry(0, j) == space.ring.one:
                    w = [1 if i == j else 0 for i in range(space.dim)]
                    break
        if w is None:
            report["homotopy"] = {"skipped": "no normalized pair available"}
            return True
        for kind, params, key in (("left", {"left_char": lc}, "left_complex_concatenation"),
                                  ("right", {"right_char": rc}, "right_complex_concatenation")):
            c = named_complex(space, kind, n_max, params, basis_cap=args.basis_cap)
            h = {n: concat_homotopy(space, w, n) for n in range(n_max)}
            results[key] = bool(certify_acyclic(c, h))
    report["homotopy"] = results
    return all(results.values())


def _suite_duality(space, args, report) -> bool:
    _refuse_unread(args, "duality", "left_char")
    n_max = _suite_degree(space, args, 4)
    payload = space.payload
    if not (isinstance(payload, st.AlgebraData) and payload.kind == "associative"):
        raise ExactError("the duality suite needs an associative payload")
    lc, _ = _default_chars(space, args, "duality")
    eps = space.character(lc)
    co = st.dual_coalgebra(payload)
    cospace = st.coassoc_braiding(co)
    transposed_ok = cospace.braiding == space.braiding.transpose()
    # The dual braiding is sigma^T, so the space's override carries over,
    # as it does to the transposed twin.
    cospace.allow_unverified = space.allow_unverified
    cospace.add_cocharacter("dual", eps.transpose())
    # The paper's cobar codifferential, sh_(1,n) of the negated braiding
    # after the cocharacter, against the codifferential the library builds
    # and against the transposed bar boundary. sh_(1,n) is the literal sum
    # of the shuffles' lifts, a path the boundary recursion does not share.
    e = cospace.cocharacter("dual")
    degreewise = True
    for n in range(0, n_max):
        sh = reduce(lambda a, b: a.add_map(b),
                    (braid_lift(cospace, s, n + 1, -1) for s in shuffle_set(1, n)))
        up = sh.compose(tensor(e, cospace.identity_power(n)))
        degreewise &= up == left_codiff(cospace, "dual", n)
        degreewise &= up == left_diff(space, lc, n + 1).transpose()
    report["duality"] = {"braiding_transposed": transposed_ok,
                         "codifferentials_are_transposes": degreewise,
                         "max_degree": n_max}
    return transposed_ok and degreewise


SUITES = {
    "simplicial": _suite_simplicial,
    "hyper": _suite_hyper,
    "hopf": _suite_hopf,
    "homotopy": _suite_homotopy,
    "duality": _suite_duality,
}
