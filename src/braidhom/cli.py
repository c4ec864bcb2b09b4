"""Command-line front end: check, complex, homology, verify.

Exit codes: 0 ok, 1 a requested check failed, 2 input error, 3 resource cap.
Machine-readable output (--json) contains every number of the human report;
identical inputs and flags produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import reduce
from pathlib import Path

from ._fork import Child
from .exactlin import ExactError, Ring, ZZ, is_invertible, ring_from_name, tensor
from .braiding import (
    UnverifiedError,
    _declared,
    braid_lift,
    check_braided_character,
    check_braided_cocharacter,
    check_braided_coalgebra,
    check_character_compat,
    check_shuffle_associativity,
    check_antipode_axiom,
    check_coshuffle_coassociativity,
    check_hopf_compatibility,
    check_sigma_commutativity,
    check_ybe,
    shuffle_set,
)
from . import structures as st
from .complexes import (
    COMPLEX_PARAMS,
    NAMED_COMPLEXES,
    check_bimodule,
    check_braided_module,
    check_naturality,
    check_simplicial,
    concat_homotopy,
    face_sum,
    hyper_boundary,
    left_codiff,
    left_diff,
    named_complex,
    rack_contraction,
    right_diff,
    signed_binomial,
)
from .homology import (
    ResourceCapError,
    SquareZeroError,
    SpanStabilityError,
    _SquareZeroInChild,
    betti,
    certify_acyclic,
    ensure_cap,
    integral_homology,
)
from . import scenario as sc_mod
from .scenario import Scenario, ScenarioError


EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_CAP = 3


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="braidhom",
        description="homology of algebraic structures via matrix pre-braidings")
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", help="scenario JSON file")
    common.add_argument("--ring", help="coefficient ring: z, q or fp:<p>")
    common.add_argument("--max-degree", type=int, help="top tensor degree")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--allow-unverified", action="store_true",
                        help="open the YBE, (co)character and module gates")
    common.add_argument("--basis-cap", type=int, help="per-degree basis ceiling")

    sub.add_parser("check", parents=[common], help="run all axiom checks")

    for name in ("complex", "homology"):
        q = sub.add_parser(name, parents=[common])
        q.add_argument("--named", help="named complex (rack, bar, leibniz, ...)")
        q.add_argument("--diff", help="left | right | combined | face | hyper-left | hyper-right"
                       " | hyper:<k>")
        q.add_argument("--left-char")
        q.add_argument("--right-char")
        q.add_argument("--module", help="coefficient module name (diff complexes)")
        q.add_argument("--bimodule", help="bimodule name (hochschild-style complexes)")
        q.add_argument("--normalized", action="store_true",
                       help="quotient by the degenerate span")
        q.add_argument("--twist", help="twist scalar for the twisted rack complex")
        q.add_argument("--element", type=int, help="shelf element for partial derivatives")
        if name == "complex":
            q.add_argument("--dump-matrices", help="directory for per-degree matrix files")

    v = sub.add_parser("verify", parents=[common], help="run a property suite")
    v.add_argument("--suite", required=True,
                   choices=["simplicial", "hyper", "hopf", "homotopy", "duality"])
    v.add_argument("--left-char")
    v.add_argument("--right-char")
    p.commands = sub.choices
    return p


# Each of these selects the complex on its own; a user flag from the group
# suppresses the scenario's defaults for the rest of it.
_COMPLEX_SELECTORS = ("named", "diff", "module", "bimodule")


def _flag_value(action, value):
    """value as the flag would take it on the command line; ValueError when
    the flag would refuse it."""
    if action.nargs == 0:  # a switch
        if isinstance(value, bool):
            return value
    elif isinstance(value, (int, str)) and not isinstance(value, bool):
        value = (action.type or str)(str(value))
        if action.choices is None or value in action.choices:
            return value
    raise ValueError


def _apply_computation_defaults(args, scenario: Scenario, parser):
    """Fill the flags the user left unset from the scenario's first
    computation for this command. Every computation's keys must be flags of
    its command, with values that flag takes; a bad one is a ScenarioError
    that names computations[i].key."""
    errors = []
    defaults = None
    for pos, comp in enumerate(scenario.computations):
        command = comp["command"]
        flags = {a.dest: a for a in parser.commands[command]._actions
                 if a.option_strings and a.dest != "help"}
        values = {}
        for key, value in comp.items():
            if key == "command":
                continue
            path = f"computations[{pos}].{key}"
            action = flags.get(key.replace("-", "_"))
            if action is None:
                errors.append(f"{path}: not a flag of the {command} command")
                continue
            try:
                values[action.dest] = _flag_value(action, value)
            except ValueError:
                errors.append(f"{path}: {value!r} is not a value of {action.option_strings[0]}")
        if command == args.command and defaults is None:
            defaults = values
    if errors:
        raise ScenarioError(errors)
    user_selected = any(getattr(args, attr, None) for attr in _COMPLEX_SELECTORS)
    args.from_scenario = set()
    for attr, value in (defaults or {}).items():
        if user_selected and attr in _COMPLEX_SELECTORS:
            continue
        current = getattr(args, attr)
        if current is None or current is False:
            setattr(args, attr, value)
            args.from_scenario.add(attr)


def _ring_for(args, scenario: Scenario) -> Ring:
    if getattr(args, "ring", None):
        return ring_from_name(args.ring)
    return scenario.ring


def _ybe_entry(space) -> dict:
    """The report entry of check_ybe(space), with the first violation's
    entries formatted in the space's ring."""
    ybe = check_ybe(space)
    entry = {"ok": ybe.ok}
    if ybe.violation:
        r, c, lhs, rhs = ybe.violation
        entry["first_violation"] = {"row": r, "col": c,
                                    "lhs": space.ring.fmt(lhs), "rhs": space.ring.fmt(rhs)}
    return entry


def _verify_space(space, report):
    """YBE and character gates, overridden by space.allow_unverified;
    populates report['verification']."""
    ver = {"ybe": _ybe_entry(space)}
    chars = {}
    for name in sorted(space.characters):
        rep = check_braided_character(space, name)
        chars[name] = {"braided": rep.ok}
    ver["characters"] = chars
    cochars = {}
    for name in sorted(space.cocharacters):
        rep = check_braided_cocharacter(space, name)
        cochars[name] = {"braided": rep.ok}
    if cochars:
        ver["cocharacters"] = cochars
    report["verification"] = ver
    ok = ver["ybe"]["ok"] and all(c["braided"] for c in chars.values())
    if not ok and not space.allow_unverified:
        raise UnverifiedError(
            "the braiding or a character failed verification "
            "(run `check` for details, or pass --allow-unverified)")
    return ok


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _run_check(space, args, report) -> bool:
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
# complex / homology
# ---------------------------------------------------------------------------

# The kinds --diff may name besides hyper:<k>, which is hyper-left of order
# k; --module chooses coeff, --bimodule the bimodule kind, --named a
# classical complex.
_DIFF_KINDS = ("left", "right", "combined", "face", "hyper-left", "hyper-right")

# The flags a complex may read, as (attribute, parameter), in the order a
# flag the chosen complex does not read is refused. --diff carries the
# hyper order.
_PARAM_FLAGS = (("left_char", "left_char"), ("right_char", "right_char"), ("twist", "twist"),
                ("element", "element"), ("bimodule", "bimodule"), ("module", "module"),
                ("diff", "order"))


def _chosen_complex(args):
    """The complex the flags choose: its row of COMPLEX_PARAMS, the phrase
    that names it, the flag that chose it, and the order --diff gives."""
    if args.named:
        if args.named not in NAMED_COMPLEXES:
            raise ExactError(f"unknown named complex {args.named!r}")
        return args.named, f"{args.named} complex", "named", None
    diff = label = args.diff or "combined"
    order = None
    if diff.startswith("hyper:"):
        k = diff.split(":", 1)[1]
        try:
            order = int(k)
        except ValueError:
            raise ExactError(f"--diff hyper:<k> needs an integer k, not {k!r}") from None
        diff = "hyper-left"
    elif diff not in _DIFF_KINDS:
        raise ExactError(f"unknown --diff kind {diff!r}; use hyper:<k> or one of: "
                         + ", ".join(_DIFF_KINDS))
    if args.bimodule:
        return "bimodule", "bimodule differential", "bimodule", order
    if args.module:
        return "coeff", "module differential", "module", order
    return diff, f"{label} differential", "diff", order


def _complex_from_args(space, args):
    """Build the complex the flags choose. A user flag it does not read is
    refused before anything is resolved; values filled in from the
    scenario's defaults are not refused, and are passed on only when
    read."""
    name, label, chooser, order = _chosen_complex(args)
    reads = COMPLEX_PARAMS[name]
    for attr, param in _PARAM_FLAGS:
        if attr != chooser and getattr(args, attr) is not None \
                and attr not in args.from_scenario and param not in reads:
            raise ExactError(f"the {label} does not read --{attr.replace('_', '-')}")
    resolve = {"twist": space.ring.parse,
               "module": lambda name: _declared(space.modules, name, "module"),
               "bimodule": lambda name: _declared(space.bimodules, name, "bimodule")}
    params = {}
    for attr, param in _PARAM_FLAGS:
        value = order if attr == "diff" else getattr(args, attr)
        if param in reads and value is not None:
            params[param] = resolve.get(param, lambda v: v)(value)
    n_max = args.max_degree if args.max_degree is not None else 4
    return named_complex(space, name, n_max, params, basis_cap=args.basis_cap,
                         normalized=bool(args.normalized))


def _complex_report(complex_) -> dict:
    degrees = {}
    for n in range(complex_.n_max + 1):
        entry = {"dim": complex_.dims[n]}
        m = complex_.diffs.get(n)
        if m is not None:
            entry["boundary_rows"] = m.rows
            entry["boundary_cols"] = m.cols
            entry["boundary_nnz"] = m.nnz
        degrees[str(n)] = entry
    return {"builder": complex_.builder, "step": complex_.step,
            "square_zero_verified": True, "degrees": degrees}


def _dump_matrices(complex_, outdir):
    """One file per degree: header 'rows cols nnz', then 'row col value'
    lines with reduced fractions. A directory that cannot be written is an
    input error."""
    path = Path(outdir)
    ring = complex_.ring
    written = []
    try:
        path.mkdir(parents=True, exist_ok=True)
        for n in sorted(complex_.diffs):
            m = complex_.diffs[n]
            lines = [f"{m.rows} {m.cols} {m.nnz}"]
            for r, c, v in m.entries():
                lines.append(f"{r} {c} {ring.fmt(v)}")
            fname = path / f"boundary_{n}.txt"
            fname.write_text("\n".join(lines) + "\n")
            written.append(fname.name)
    except OSError as e:
        raise ExactError(f"cannot write matrices to {outdir!r}: {e.strerror or e}") from None
    return written


def _run_complex(space, args, report) -> bool:
    c = _complex_from_args(space, args)
    report["complex"] = _complex_report(c)
    if getattr(args, "dump_matrices", None):
        report["dumped"] = _dump_matrices(c, args.dump_matrices)
    return True


def _run_homology(space, args, report) -> bool:
    """The square-zero check of the full complex runs in a forked child
    while this process projects and eliminates; the report is written only
    once its verdict is in (see _SquareZeroInChild)."""
    with _SquareZeroInChild():
        c = _complex_from_args(space, args)
        if space.ring is ZZ:
            hom = integral_homology(c)
        else:
            hom = betti(c)
    report["complex"] = _complex_report(c)
    degrees = {}
    for n, h in sorted(hom.degrees.items()):
        entry = {"dim": h.space_dim, "free_rank": h.free_rank}
        if hom.ring_name == "Z":
            entry["torsion"] = h.torsion
        degrees[str(n)] = entry
    report["homology"] = {"ring": hom.ring_name, "degrees": degrees}
    return True


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
    _complex_from_args refuses a complex's; a value filled in from the
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


_SUITES = {
    "simplicial": _suite_simplicial,
    "hyper": _suite_hyper,
    "hopf": _suite_hopf,
    "homotopy": _suite_homotopy,
    "duality": _suite_duality,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run(command: str, scenario: Scenario, args) -> tuple[int, dict]:
    report: dict = {"command": command, "ring": None}
    try:
        if getattr(args, "max_degree", None) is not None and args.max_degree < 0:
            raise ExactError(f"--max-degree must be 0 or more, not {args.max_degree}")
        if args.basis_cap is not None and args.basis_cap < 1:
            raise ExactError(f"--basis-cap must be 1 or more, not {args.basis_cap}")
        ring = _ring_for(args, scenario)
        report["ring"] = ring.name
        space = sc_mod.build_space(scenario, ring)
        space.allow_unverified = args.allow_unverified
        if command == "check":
            ok = _run_check(space, args, report)
        else:
            _verify_space(space, report)
            if command == "complex":
                ok = _run_complex(space, args, report)
            elif command == "homology":
                ok = _run_homology(space, args, report)
            elif command == "verify":
                ok = _SUITES[args.suite](space, args, report)
            else:  # pragma: no cover
                raise ExactError(f"unknown command {command!r}")
    except ResourceCapError as e:
        report["error"] = str(e)
        return EXIT_RESOURCE_CAP, report
    except MemoryError:
        report["error"] = "ran out of memory; lower the maximum degree"
        return EXIT_RESOURCE_CAP, report
    except (SquareZeroError, SpanStabilityError, UnverifiedError) as e:
        report["error"] = str(e)
        report["ok"] = False
        return EXIT_CHECK_FAILED, report
    except (ScenarioError, ExactError, KeyError) as e:
        report["error"] = str(e)
        return EXIT_INPUT_ERROR, report
    report["ok"] = bool(ok)
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), report


def _render_human(report, indent=0):
    pad = "  " * indent
    lines = []
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_human(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: {value}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


def _emit(text: str) -> None:
    """Print to stdout. A reader that closes the pipe early (``| head``)
    gets the output it read, and the run keeps its own exit code."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Later flushes, including the one at interpreter exit, go nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        scenario = sc_mod.parse(args.scenario)
        _apply_computation_defaults(args, scenario, parser)
    except ScenarioError as e:
        payload = {"command": args.command, "error": "invalid scenario",
                   "details": e.errors}
        if args.json:
            _emit(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        else:
            print("invalid scenario:", file=sys.stderr)
            for msg in e.errors:
                print(f"  {msg}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as e:
        print(f"cannot read scenario: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    code, report = run(args.command, scenario, args)
    if args.json:
        _emit(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        _emit("\n".join(_render_human(report)))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
