"""The braidhom benchmark: exact homology through the real CLI path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --degree-table [--seed N]

Each op is one fresh interpreter running ``braidhom.cli.main`` on its own
relabelling of the workload's structure, generated from the seed; ops run
one at a time, round-robin over the workload's op kinds, for about
``--seconds``. A pass is one op of each kind; an end-to-end pass time is
the sum of the kinds' 90th-percentile op times. With ``--trace 0`` the last line of stdout is a
JSON object with the end-to-end metrics; with ``--trace 1`` untraced and
traced rounds alternate and the object holds the per-layer metrics. See
README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SHIM = HERE / "opshim.py"
WORK = HERE / ".work"
OP_TIMEOUT_S = 60
SETUP_PROBES = 15
DEFAULT_SEED = 1

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "main_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}
OP_KINDS = ("homology_s.z", "homology_s.q", "homology_s.fp", "verify_s")
PER_LAYER = {
    "exactlin.smith_s": "s", "exactlin.rank_q_s": "s", "exactlin.rank_fp_s": "s",
    "exactlin.elim_top_s": "s", "exactlin.elim_nnz": "count",
    "exactlin.elim_rank": "count", "exactlin.elim_share_min": "ratio",
    "exactlin.tensor_s": "s",
    "exactlin.compose_s": "s", "exactlin.compose.calls": "count",
    "exactlin.compose.out_nnz": "count",
    "braiding.braid_lift_s": "s", "braiding.braid_lift.calls": "count",
    "braiding.braid_lift.hit_ratio": "ratio",
    "braiding.shuffle_coproduct_s": "s", "braiding.shuffle_coproduct.calls": "count",
    "braiding.shuffle_coproduct.hit_ratio": "ratio",
    "braiding.check_ybe_s": "s",
    "complexes.diff_s": "s", "complexes.diff.calls": "count",
    "complexes.boundary_nnz": "count",
    "homology.square_zero_s": "s", "homology.square_zero.calls": "count",
    "homology.subquotient_s": "s", "homology.report_s": "s",
    "scenario.parse_s": "s", "scenario.build_space_s": "s",
    "cli.other_s": "s", "cli.main_s": "s",
    **{kind: "s" for kind in OP_KINDS},
    "trace.overhead_ratio": "ratio", "trace.unattributed_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (as opposed to an op failing)."""


def _spawn(args: list[str], log: Path) -> tuple:
    """Run the shim to completion; returns (spawn time, wall s, exit code,
    rusage of that child alone)."""
    with open(log, "wb") as out:
        t0 = time.monotonic()
        child = subprocess.Popen([sys.executable, str(SHIM), *args],
                                 stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            # Interrupted or terminated: leave no op process behind.
            child.kill()
            child.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    return t0, wall, child.returncode, usage


def probe_setup(workdir: Path) -> float:
    """Seconds from spawning an interpreter until braidhom.cli is imported."""
    log = workdir / "probe.out"
    t0, _, code, _ = _spawn(["--probe"], log)
    text = log.read_text()
    if code != 0:
        raise BenchError(f"import of braidhom.cli failed:\n{text}")
    return float(text.strip().splitlines()[-1]) - t0


def run_op(op: workloads.Op, workdir: Path, traced: bool) -> dict:
    result_path, spans_path, log = (workdir / "result.json", workdir / "spans.jsonl",
                                    workdir / "op.out")
    for p in (result_path, spans_path):
        p.unlink(missing_ok=True)
    args = [str(result_path)] + ([str(spans_path)] if traced else []) + ["--", *op.argv]
    t0, wall, code, usage = _spawn(args, log)
    rec = {"kind": op.kind, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
           "rss_mb": usage.ru_maxrss / 1024, "setup": None, "main": 0.0, "problems": []}
    if code != 0 or not result_path.exists():
        tail = log.read_text(errors="replace")[-2000:]
        rec["problems"].append(f"op process exited {code}: {tail}")
        return rec
    result = json.loads(result_path.read_text())
    rec["setup"] = result["imported"] - t0
    rec["main"] = result["main_end"] - result["main_start"]
    if result["code"] != 0:
        rec["problems"].append(f"cli exit code {result['code']}")
    try:
        report = json.loads(result["stdout"])
    except json.JSONDecodeError:
        rec["problems"].append("stdout is not one JSON report")
    else:
        rec["problems"].extend(op.check(report))
    if traced:
        rec["layers"] = tracer.layer_metrics(tracer.load(spans_path))
    return rec


def p90(values: list[float]) -> float:
    """The 90th percentile, interpolated between the closest samples; the
    value itself when there is one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _per_kind(records: list[dict], value, stat=statistics.median) -> dict[str, float]:
    """``stat`` of ``value(record)`` over the records of each op kind."""
    kinds: dict[str, list] = {}
    for rec in records:
        kinds.setdefault(rec["kind"], []).append(value(rec))
    return {kind: stat(v) for kind, v in kinds.items()}


def _pass(records: list[dict], key: str, stat=statistics.median) -> float:
    """One pass: one op of each kind, each at ``stat`` of its ops."""
    return sum(_per_kind(records, lambda r: r[key], stat).values())


def end_to_end(plain: list[dict], setups: list[float]) -> dict[str, float]:
    """Op times count at their 90th percentile: on a shared host the slow,
    contended speed recurs in every run, while the share of faster spells,
    which moves the median, does not (see README.md)."""
    return {
        "wall_s": _pass(plain, "wall", p90),
        "cpu_s": _pass(plain, "cpu", p90),
        "main_s": _pass(plain, "main", p90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["rss_mb"] for r in plain),
    }


def _elim_share(layers: dict) -> float:
    elim = (layers["exactlin.smith_s"] + layers["exactlin.rank_q_s"]
            + layers["exactlin.rank_fp_s"])
    return elim / layers["cli.main_s"]


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Layer totals of one pass, each op kind at its median over the traced
    ops, plus the per-kind CLI times of the untraced ops at their 90th
    percentile, which sum to ``main_s``."""
    t = {k: sum(_per_kind(traced, lambda r: r["layers"][k]).values())
         for k in tracer.PER_OP_SUMS}
    t["exactlin.elim_top_s"] = max(
        _per_kind(traced, lambda r: r["layers"]["exactlin.elim_top_s"]).values())
    t["exactlin.elim_share_min"] = min(
        _per_kind(traced, lambda r: _elim_share(r["layers"])).values())
    for f in ("braid_lift", "shuffle_coproduct"):
        calls = t[f"braiding.{f}.calls"]
        t[f"braiding.{f}.hit_ratio"] = t[f"braiding.{f}.hits"] / calls if calls else 0.0
    t["trace.unattributed_ratio"] = (t["trace.unattributed_s"]
                                     / (t["cli.main_s"] - t["trace.overhead_s"]))
    out = {k: t[k] for k in PER_LAYER if k in t}
    main = _per_kind(plain, lambda r: r["main"], p90)
    for kind in OP_KINDS:
        out[kind] = main.get(kind, 0.0)
    out["trace.overhead_ratio"] = _pass(traced, "wall") / _pass(plain, "wall") - 1
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about ``seconds``; returns the result object.

    Ops run round-robin over the workload's kinds. The first round (with
    tracing, one untraced and one traced round) always runs; after that an
    op starts only if its kind's median so far says it ends in time. The
    first failed op ends the run."""
    wl = workloads.WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    WORK.mkdir(exist_ok=True)
    records: list[dict] = []
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workdir = Path(tmp)
        start = time.monotonic()
        index = 0
        while True:
            rnd, kind_index = divmod(index, wl.kinds)
            traced = trace and rnd % 2 == 1
            if rnd >= (2 if trace else 1):
                same = [r["wall"] for r in records
                        if r["traced"] == traced and r["index"] % wl.kinds == kind_index]
                if time.monotonic() - start + statistics.median(same) > seconds:
                    break
            op = wl.make_op(index, rng, workdir)
            records.append(dict(run_op(op, workdir, traced), traced=traced, index=index))
            if records[-1]["problems"]:
                break
            index += 1
        setups = [r["setup"] for r in records if r["setup"] is not None]
        while len(setups) < SETUP_PROBES:
            setups.append(probe_setup(workdir))
    failed = sum(1 for r in records if r["problems"])
    for r in records:
        for problem in r["problems"]:
            print(f"{name}: {r['kind']}: {problem}", file=sys.stderr)
    plain = [r for r in records if not r["traced"]]
    if failed:
        metrics = {}
    elif trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]}
                   for k, v in per_layer(plain, [r for r in records if r["traced"]]).items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end(plain, setups).items()}
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def degree_table(seed: int) -> dict:
    """One traced round of ``rack-elim``: per degree, the boundary's shape,
    nnz, and per ring its rank and elimination seconds; per ring, the build,
    d² and elimination totals and the ``cli.main`` time."""
    rng = random.Random(f"rack-elim:{seed}")
    WORK.mkdir(exist_ok=True)
    degrees: dict[int, dict] = {}
    stages: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workdir = Path(tmp)
        for index, ring in enumerate(workloads.RACK_RINGS):
            rec = run_op(workloads.rack_elim(index, rng, workdir), workdir, traced=True)
            if rec["problems"]:
                raise BenchError("; ".join(rec["problems"]))
            totals = {"build_s": 0.0, "square_zero_s": 0.0, "elimination_s": 0.0,
                      "main_s": rec["main"]}
            for span in tracer.load(workdir / "spans.jsonl"):
                dur = span["end"] - span["start"]
                if span["name"] == "complexes.combined_diff":
                    totals["build_s"] += dur
                elif span["name"] == "homology.build_chain_complex":
                    totals["square_zero_s"] += dur
                elif span["name"] in ("exactlin.smith_normal_form", "exactlin.rank"):
                    totals["elimination_s"] += dur
                    a = span["attrs"]
                    row = degrees.setdefault(round(math.log(a["cols"], workloads.RACK_ORDER)),
                                             {"shape": [a["rows"], a["cols"]], "nnz": a["nnz"]})
                    row[ring] = {"rank": a["rank"], "seconds": dur}
            stages[ring] = totals
    return {"workload": "rack-elim", "seed": seed,
            "degrees": {str(d): degrees[d] for d in sorted(degrees)}, "stages": stages}


def self_test() -> int:
    """The checkers accept the reports the theory predicts and reject a
    tampered copy of each."""
    def rack(ring):
        degrees = {str(n): {"dim": 5 ** n, "free_rank": 1} for n in range(6)}
        degrees["5"]["free_rank"] = 2605
        if ring == "z":
            for n, entry in degrees.items():
                entry["torsion"] = {"3": [5], "4": [5, 5]}.get(n, [])
        name = {"z": "Z", "q": "Q", "fp:7": "F7"}[ring]
        return {"ok": True, "homology": {"ring": name, "degrees": degrees}}

    def leibniz():
        degrees = {str(n): {"dim": 3 ** n, "free_rank": 1 if n == 0 else 0}
                   for n in range(7)}
        degrees["6"]["free_rank"] = 546
        return {"ok": True, "homology": {"ring": "Q", "degrees": degrees}}

    def hyper():
        return {"ok": True, "hyper": {"ok": True, "identities_checked": 158}}

    def tamper(report, path, value):
        report = json.loads(json.dumps(report))
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return report

    cases = [
        (lambda r: workloads.check_rack(r, "z"), rack("z"), [
            (("homology", "degrees", "2", "free_rank"), 2),
            (("homology", "degrees", "4", "torsion"), [5, 25]),
            (("homology", "degrees", "3", "dim"), 124),
            (("homology", "ring"), "Q"),
            (("ok",), False)]),
        (lambda r: workloads.check_rack(r, "fp:7"), rack("fp:7"), [
            (("homology", "degrees", "4", "free_rank"), 0)]),
        (workloads.check_leibniz, leibniz(), [
            (("homology", "degrees", "3", "free_rank"), 1),
            (("homology", "degrees", "0", "free_rank"), 0)]),
        (workloads.check_hyper, hyper(), [
            (("hyper", "identities_checked"), 157),
            (("hyper", "ok"), False)]),
    ]
    bad = 0
    for check, good, tampers in cases:
        if check(good):
            print(f"rejected a correct report: {check(good)}", file=sys.stderr)
            bad += 1
        for path, value in tampers:
            if not check(tamper(good, path, value)):
                print(f"accepted a tampered report: {'.'.join(path)} = {value!r}",
                      file=sys.stderr)
                bad += 1
    print(json.dumps({"self_test": "ok" if bad == 0 else "failed", "failures": bad}))
    return 0 if bad == 0 else 1


def _print_table(results: dict) -> None:
    for name, res in results.items():
        rate = res["failed"] / res["attempted"]
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"error_rate {rate:.3f}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:40s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    mode.add_argument("--all", action="store_true", help="run every workload")
    mode.add_argument("--self-test", action="store_true", help="test the output checkers")
    mode.add_argument("--degree-table", action="store_true",
                      help="per-degree R5 elimination table")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if args.self_test:
        return self_test()
    if not (ROOT / "src" / "braidhom" / "cli.py").is_file():
        print(f"no braidhom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.degree_table:
            print(json.dumps(degree_table(args.seed), sort_keys=True))
            return 0
        names = sorted(workloads.WORKLOADS) if args.all else [args.workload]
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names}
    except BenchError as e:
        print(e, file=sys.stderr)
        return 2
    if args.all:
        _print_table(results)
        print(json.dumps(results, sort_keys=True))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    # Turn SIGTERM into SystemExit so the running op is killed and the
    # scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
