"""Outside-in tracing of braidhom, and the per-layer numbers read from it.

``Tracer.install`` replaces every public module-level function of the
``braidhom`` package, in every ``braidhom`` module namespace that holds it,
with a timing wrapper, and wraps ``SparseLinearMap.compose``. Each call
becomes a span (name, start, end, parent, attrs) kept in memory; ``dump``
writes the spans as JSON lines. Nothing under ``src/`` is changed.

Attributes (shapes, nnz, cache keys) are computed after a span's end time
is taken; the time that costs is stored on the span as ``ovh``, counted as
tracing overhead and against no layer.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import types

_COMPOSE = "exactlin.SparseLinearMap.compose"
_ELIM = ("exactlin.smith_normal_form", "exactlin.rank")
_DIFF_MAPS = ("complexes.left_diff", "complexes.right_diff", "complexes.combined_diff",
              "complexes.hyper_boundary", "complexes.bimodule_diff")
_DIFF_ALL = _DIFF_MAPS + ("complexes.named_complex",)
_LIFT = "braiding.braid_lift"
_COSHUFFLE = "braiding.shuffle_coproduct"
_SQUARE_ZERO = "homology.build_chain_complex"
_SUBQUOTIENT = "homology.subquotient"
_REPORT = ("homology.betti", "homology.integral_homology")
_PARSE = "scenario.parse"
_BUILD_SPACE = "scenario.build_space"
_YBE = "braiding.check_ybe"
_MAIN = "cli.main"

_TENSOR = "exactlin.tensor"

# Every name a per-layer metric reads. Installing fails if one is missing,
# so a rename in the package cannot silently zero a layer.
REQUIRED = (_COMPOSE, _TENSOR, _LIFT, _COSHUFFLE, _SQUARE_ZERO, _SUBQUOTIENT, _PARSE,
            _BUILD_SPACE, _YBE, _MAIN) + _ELIM + _DIFF_ALL + _REPORT

# Metrics that count a span's whole duration; everything under such a span
# is attributed to it. Every other metric counts self time only, and the
# self time of a span no metric counts is unattributed.
_INCLUSIVE = frozenset(_ELIM + (_YBE, _SQUARE_ZERO, _PARSE, _BUILD_SPACE))


def _matrix_attrs(m, out) -> dict:
    return {"ring": m.ring.name, "rows": m.rows, "cols": m.cols, "nnz": m.nnz}


def _rank_attrs(args, kwargs, out):
    return dict(_matrix_attrs(args[0], out), rank=out)


def _smith_attrs(args, kwargs, out):
    return dict(_matrix_attrs(args[0], out), rank=len(out))


def _nnz_attrs(args, kwargs, out):
    return {"nnz": out.nnz}


def _compose_attrs(args, kwargs, out):
    return {"out_nnz": out.nnz}


def _keyed_attrs(fn, fields):
    """Record the cache key the function derives from these arguments."""
    sig = inspect.signature(fn)

    def attrs(args, kwargs, out):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        key = [id(a["space"])]
        for f in fields:
            v = a[f]
            key.append(list(v.images) if f == "s" else v)
        return {"key": key}
    return attrs


def _attrs_for(name: str, fn):
    if name == "exactlin.rank":
        return _rank_attrs
    if name == "exactlin.smith_normal_form":
        return _smith_attrs
    if name == _LIFT:
        return _keyed_attrs(fn, ("s", "n", "sign"))
    if name == _COSHUFFLE:
        return _keyed_attrs(fn, ("p", "q", "sign"))
    if name in _DIFF_MAPS:
        return _nnz_attrs
    return None


class Tracer:
    """Spans of one process. ``spans[i]`` is ``[name, start, end, parent,
    attrs, ovh]``; ``parent`` is an index into ``spans`` or -1."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, attrs=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0.0]
            spans.append(record)
            stack.append(idx)
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if attrs is not None:
                record[4] = attrs(args, kwargs, out)
                record[5] = clock() - record[2]
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self) -> list[str]:
        """Wrap the package; returns the span names installed."""
        from braidhom.exactlin import SparseLinearMap

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "braidhom" or n.startswith("braidhom."))]
        originals = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__.startswith("braidhom.")):
                    originals[id(obj)] = obj
        wrapped = {}
        for key, fn in originals.items():
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            attrs = _attrs_for(name, fn)
            wrapped[key] = (fn, name, self.wrap(fn, name, attrs))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[2])
        SparseLinearMap.compose = self.wrap(SparseLinearMap.compose, _COMPOSE,
                                            _compose_attrs)
        names = sorted({name for _, name, _ in wrapped.values()} | {_COMPOSE})
        missing = [n for n in REQUIRED if n not in names]
        if missing:
            raise RuntimeError(f"trace targets no longer exist: {', '.join(missing)}")
        return names

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, attrs, ovh) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "attrs": attrs, "ovh": ovh}))
                fh.write("\n")


def load(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the intervals its direct children cover
    (a child's interval includes its attribute overhead)."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] + s["ovh"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one op process, summed over its spans."""
    own = self_times(spans)
    m = {k: 0.0 for k in PER_OP_SUMS}
    elim_top = 0.0
    lift_seen: set = set()
    coshuffle_seen: set = set()
    covered = [False] * len(spans)
    for i, (s, self_s) in enumerate(zip(spans, own)):
        name, dur, attrs = s["name"], s["end"] - s["start"], s["attrs"]
        parent = s["parent"]
        covered[i] = parent >= 0 and (covered[parent]
                                      or spans[parent]["name"] in _INCLUSIVE)
        attributed = True
        if name in _ELIM:
            elim_top = max(elim_top, dur)
            m["exactlin.elim_nnz"] += attrs["nnz"]
            m["exactlin.elim_rank"] += attrs["rank"]
            if name == "exactlin.smith_normal_form":
                m["exactlin.smith_s"] += dur
            elif attrs["ring"].startswith("F"):
                m["exactlin.rank_fp_s"] += dur
            else:
                m["exactlin.rank_q_s"] += dur
        elif name == _TENSOR:
            m["exactlin.tensor_s"] += self_s
        elif name == _COMPOSE:
            m["exactlin.compose_s"] += self_s
            m["exactlin.compose.calls"] += 1
            m["exactlin.compose.out_nnz"] += attrs["out_nnz"]
        elif name in (_LIFT, _COSHUFFLE):
            short = name.split(".")[1]
            seen = lift_seen if name == _LIFT else coshuffle_seen
            key = json.dumps(attrs["key"])
            m[f"braiding.{short}_s"] += self_s
            m[f"braiding.{short}.calls"] += 1
            m[f"braiding.{short}.hits"] += key in seen
            seen.add(key)
        elif name == _YBE:
            m["braiding.check_ybe_s"] += dur
        elif name in _DIFF_ALL:
            m["complexes.diff_s"] += self_s
            m["complexes.diff.calls"] += 1
            if attrs is not None:
                m["complexes.boundary_nnz"] += attrs["nnz"]
        elif name == _SQUARE_ZERO:
            m["homology.square_zero_s"] += dur
            m["homology.square_zero.calls"] += 1
        elif name == _SUBQUOTIENT:
            m["homology.subquotient_s"] += self_s
        elif name in _REPORT:
            m["homology.report_s"] += self_s
        elif name == _PARSE:
            m["scenario.parse_s"] += dur
        elif name == _BUILD_SPACE:
            m["scenario.build_space_s"] += dur
        elif name.startswith("cli."):
            m["cli.other_s"] += self_s
            if name == _MAIN:
                m["cli.main_s"] += dur
        else:
            attributed = False
        if not (attributed or covered[i]):
            m["trace.unattributed_s"] += self_s
        m["trace.overhead_s"] += s["ovh"]
    m["exactlin.elim_top_s"] = elim_top
    return m


# Per-op quantities that add up over the ops of a pass; elim_top_s is a max.
PER_OP_SUMS = (
    "exactlin.smith_s", "exactlin.rank_q_s", "exactlin.rank_fp_s",
    "exactlin.elim_nnz", "exactlin.elim_rank", "exactlin.tensor_s",
    "exactlin.compose_s", "exactlin.compose.calls", "exactlin.compose.out_nnz",
    "braiding.braid_lift_s", "braiding.braid_lift.calls", "braiding.braid_lift.hits",
    "braiding.shuffle_coproduct_s", "braiding.shuffle_coproduct.calls",
    "braiding.shuffle_coproduct.hits", "braiding.check_ybe_s",
    "complexes.diff_s", "complexes.diff.calls", "complexes.boundary_nnz",
    "homology.square_zero_s", "homology.square_zero.calls", "homology.subquotient_s",
    "homology.report_s", "scenario.parse_s", "scenario.build_space_s",
    "cli.other_s", "cli.main_s", "trace.unattributed_s", "trace.overhead_s",
)
