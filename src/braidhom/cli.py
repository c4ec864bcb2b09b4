"""Command-line front end: check, complex, homology, verify. The check
command and the verify suites are in suites, imported only when they run.

Exit codes: 0 ok, 1 a requested check failed, 2 input error, 3 resource cap.
Machine-readable output (--json) contains every number of the human report;
identical inputs and flags produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .exactlin import ExactError, Ring, ZZ, ring_from_name
from .braiding import (
    UnverifiedError,
    _declared,
    check_braided_character,
    check_braided_cocharacter,
    check_ybe,
)
from .complexes import COMPLEX_PARAMS, NAMED_COMPLEXES, named_complex
from .homology import (
    ResourceCapError,
    SquareZeroError,
    SpanStabilityError,
    _SquareZeroInChild,
    betti,
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
            from .suites import run_check
            ok = run_check(space, args, report)
        else:
            _verify_space(space, report)
            if command == "complex":
                ok = _run_complex(space, args, report)
            elif command == "homology":
                ok = _run_homology(space, args, report)
            elif command == "verify":
                from .suites import SUITES
                ok = SUITES[args.suite](space, args, report)
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
