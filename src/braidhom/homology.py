"""Chain complex assembly, homology over fields and over the integers, and
acyclicity certification.

Square-zero verification is mandatory at assembly and always runs: it is
cheap relative to any rank computation and converts silent mathematical
errors upstream into located failures. It runs in the calling process,
except in ``braidhom homology``: there a forked child checks the complex
as built while the command projects and eliminates, and the report waits
for the child's verdict. Where no child can start, or it gives no pass, the
command runs the check itself (see _SquareZeroInChild).
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Callable, Optional

from ._fork import Child
from ._record import Record
from .exactlin import (
    ExactError,
    QQ,
    Ring,
    SparseLinearMap,
    _eliminate_chain,
)

DEFAULT_BASIS_CAP = 200_000


class SquareZeroError(ExactError):
    """Two consecutive boundaries do not compose to zero."""

    def __init__(self, degree, entry):
        r, c, v = entry
        super().__init__(
            f"boundary composition out of degree {degree} is nonzero at "
            f"entry ({r},{c}) = {v}")
        self.degree = degree
        self.entry = entry


class SpanStabilityError(ExactError):
    """A requested sub/quotient span is not boundary-stable."""

    def __init__(self, degree, source_index, escaping_index):
        super().__init__(
            f"span is not boundary-stable: basis tensor {source_index} in "
            f"degree {degree} maps onto excluded index {escaping_index}")
        self.degree = degree
        self.source_index = source_index
        self.escaping_index = escaping_index


class ResourceCapError(ExactError):
    """A degree would exceed the configured basis ceiling."""


def ensure_cap(dims: list[int], cap: Optional[int] = None):
    cap = DEFAULT_BASIS_CAP if cap is None else cap
    worst = max(dims) if dims else 0
    if worst > cap:
        raise ResourceCapError(
            f"a degree would hold {worst} basis elements, over the cap of {cap}; "
            "lower the maximum degree or raise the cap")


class ChainComplex(Record):
    """Degrees 0..n_max with one boundary per degree. step is the boundary
    degree: -1 for chain complexes, +1 for cochain ones, -k for higher
    boundary families."""

    ring: Ring
    dims: list[int]
    diffs: dict[int, SparseLinearMap]
    step: int = -1
    builder: str = ""

    @property
    def n_max(self) -> int:
        return len(self.dims) - 1

    def boundary(self, n: int) -> SparseLinearMap:
        """The boundary out of degree n, materializing zeros inside range."""
        got = self.diffs.get(n)
        if got is not None:
            return got
        target = n + self.step
        if 0 <= n <= self.n_max and 0 <= target <= self.n_max:
            return SparseLinearMap.zero(self.dims[target], self.dims[n], self.ring)
        raise ExactError(f"no boundary out of degree {n}")


def build_chain_complex(ring: Ring, dims: list[int], diffs: dict[int, SparseLinearMap],
                        step: int, builder: str) -> ChainComplex:
    """Validate shapes, verify square-zero on every composable pair, and
    freeze the result. Inside a _SquareZeroInChild block the first complex
    built is verified in a forked child instead. The basis cap is the
    caller's to check, before it builds the boundaries (ensure_cap)."""
    n_max = len(dims) - 1
    for n, m in diffs.items():
        target = n + step
        if not (0 <= n <= n_max and 0 <= target <= n_max):
            raise ExactError(f"boundary at degree {n} leaves the declared range")
        if (m.rows, m.cols) != (dims[target], dims[n]):
            raise ExactError(
                f"boundary at degree {n} has shape {m.rows}x{m.cols}, "
                f"expected {dims[target]}x{dims[n]}")
        if m.ring != ring:
            raise ExactError("boundary ring mismatch")
    diffs = dict(diffs)
    block = _in_child.get()
    if block is None or not block.start(diffs, step):
        _check_square_zero(diffs, step)
    return ChainComplex(ring, list(dims), diffs, step, builder)


def _check_square_zero(diffs: dict[int, SparseLinearMap], step: int):
    for n, m in diffs.items():
        nxt = diffs.get(n + step)
        if nxt is not None:
            square = nxt.compose(m)
            if not square.is_zero():
                raise SquareZeroError(n, next(square.entries()))


class _SquareZeroInChild:
    """Within ``with _SquareZeroInChild():``, the square-zero check of the
    first complex built runs in a forked child while this process goes on;
    later complexes are checked here. Leaving the block waits for the
    child's verdict. Unless it is a pass, the check runs again here, and
    what it raises replaces what the block raised; so errors, messages and
    exit codes stay those of a run in one process, provided the caller
    writes its report only after the block. An interrupt kills and reaps
    the child."""

    def __init__(self):
        self.used = False
        self.child: Optional[Child] = None
        self.diffs: dict[int, SparseLinearMap] = {}
        self.step = 0

    def start(self, diffs, step) -> bool:
        """Hand the check of diffs to a child; False when this process must
        check them itself: a child was started before, there is no
        composable pair, or no child could start."""
        if self.used or not any(n + step in diffs for n in diffs):
            return False
        self.used = True
        child = Child(lambda: _check_square_zero(diffs, step) or b"ok")
        if child.pid is None:
            return False
        self.child, self.diffs, self.step = child, diffs, step
        return True

    def __enter__(self):
        self.token = _in_child.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _in_child.reset(self.token)
        if self.child is None:
            return
        try:
            if (exc_type is None or issubclass(exc_type, Exception)) \
                    and self.child.result() != b"ok":
                _check_square_zero(self.diffs, self.step)
        finally:
            self.child.close()


# The block build_chain_complex is called in, if any.
_in_child: ContextVar[Optional[_SquareZeroInChild]] = ContextVar("_in_child", default=None)


# ---------------------------------------------------------------------------
# Homology reports
# ---------------------------------------------------------------------------

class DegreeHomology(Record):
    degree: int
    space_dim: int
    free_rank: int
    torsion: list[int] = []


class HomologyReport(Record):
    ring_name: str
    builder: str
    degrees: dict[int, DegreeHomology]


def _report(c: ChainComplex, ring_name: str, ranks: dict[int, int],
            torsion: Callable[[int], list[int]] = lambda n: []) -> HomologyReport:
    """Per degree n of c: the free rank dim - rank(out) - rank(in) from
    ranks, with boundaries beyond the stored range treated as zero, and
    torsion(n)."""
    degrees = {}
    for n in range(c.n_max + 1):
        free = c.dims[n] - ranks.get(n, 0) - ranks.get(n - c.step, 0)
        degrees[n] = DegreeHomology(n, c.dims[n], free, torsion(n))
    return HomologyReport(ring_name, c.builder, degrees)


def betti(c: ChainComplex, coefficients: Optional[Ring] = None) -> HomologyReport:
    """Free ranks over a field: dim - rank(out) - rank(in) per degree, with
    boundaries beyond the stored range treated as zero.

    The boundaries are eliminated in degree order, and each pivot column of
    one boundary drops that row of the next: the pivot fixes its coordinate
    of every cycle from the other coordinates, and every boundary is a
    cycle, so the row adds nothing to the next rank. This relies on d^2 = 0
    after the change of coefficients, which holds for a complex over Z or Q
    and for one over the coefficient field itself."""
    if coefficients is None:
        coefficients = c.ring if c.ring.is_field else QQ
    if not coefficients.is_field:
        raise ExactError("betti numbers need field coefficients (use q or fp:<p>)")
    return _report(c, coefficients.name, _eliminate_chain(c.diffs, c.step, coefficients))


def integral_homology(c: ChainComplex) -> HomologyReport:
    """Free rank and torsion per degree from the Smith normal forms of the
    outgoing and incoming boundaries; no basis alignment is needed for the
    invariant factors.

    As in betti, each boundary drops rows of the next one, but only at the
    columns of its +-1 pivots taken before any Euclidean step. Those fix
    their coordinates of every integral cycle, and the rows left touch only
    the other columns, so the cycles project onto a saturated lattice. The
    projected next boundary then has the same invariant factors, the 1s
    included."""
    factors = _eliminate_chain(c.diffs, c.step)
    return _report(c, "Z", {n: len(f) for n, f in factors.items()},
                   lambda n: sorted(f for f in factors.get(n - c.step, []) if f > 1))


class AcyclicityReport(Record):
    certified: dict[int, bool]
    ok: bool

    def __bool__(self):
        return self.ok


def certify_acyclic(c: ChainComplex, homotopy: dict[int, SparseLinearMap]) -> AcyclicityReport:
    """Verify h d + d h = Id entrywise on every degree the homotopy covers.

    This certificate is independent of any rank computation. For a chain
    complex, degree n needs h_n, the boundary out of degree n+1 and (when
    n > 0) h_{n-1}; degree 0 only needs the incoming composite."""
    certified: dict[int, bool] = {}
    for n, h in homotopy.items():
        up = n - c.step
        if not 0 <= up <= c.n_max:
            raise ExactError(f"homotopy at degree {n} has no incoming boundary inside range")
        if (h.rows, h.cols) != (c.dims[up], c.dims[n]):
            raise ExactError(
                f"homotopy at degree {n} has shape {h.rows}x{h.cols}, "
                f"expected {c.dims[up]}x{c.dims[n]}")
        total = c.boundary(up).compose(h)
        prev = n + c.step
        if 0 <= prev <= c.n_max:
            hn_prev = homotopy.get(prev)
            if hn_prev is not None and n in c.diffs:
                total = total.add_map(hn_prev.compose(c.diffs[n]))
        certified[n] = total == SparseLinearMap.identity(c.dims[n], c.ring)
    return AcyclicityReport(certified, all(certified.values()))


def subquotient(c: ChainComplex, span: Callable[[int, int], bool] | dict[int, list[int]],
                keep: str) -> ChainComplex:
    """One half of the split along a span of basis tensors: the restricted
    complex on the span (keep="sub") or the quotient complex on its
    complement (keep="quotient"), with induced boundaries. span is a
    predicate (degree, basis index) -> bool, True inside the span, or a dict
    from each degree to the ascending basis indices kept: the span itself
    for "sub", its complement for "quotient".

    Either way the span must be boundary-stable; an escaping basis tensor is
    an error naming the first one, by column index and then in its column's
    entry order. One pass over each boundary's columns checks stability and
    reindexes the kept ones: for a restriction the span's columns, for a
    quotient every nonzero column, in ascending order.

    c is square-zero (build_chain_complex checks it), and the kept half then
    is too, so it is not checked again. On a stable span the restricted
    d^2 of a span column is the ambient d^2 of that column. For the
    quotient, with P forgetting the span's coordinates, d e_j = P d e_j + s
    with s in the span, so P d P d e_j = P d d e_j - P d s = 0."""
    if keep not in ("sub", "quotient"):
        raise ExactError(f"keep must be 'sub' or 'quotient', not {keep!r}")
    sub = keep == "sub"
    kept = span if not callable(span) else {
        n: [j for j in range(c.dims[n]) if bool(span(n, j)) == sub] for n in range(c.n_max + 1)}
    diffs = {}
    for n, m in c.diffs.items():
        rows = {r: i for i, r in enumerate(kept[n + c.step])}
        cols = m._cols
        out: dict[int, dict] = {}
        if sub:
            for i, j in enumerate(kept[n]):
                col = cols.get(j)
                if col:
                    out[i] = new = {}
                    for r, v in col.items():
                        at = rows.get(r)
                        if at is None:
                            raise SpanStabilityError(n, j, r)
                        new[at] = v
        else:
            at_col = {j: i for i, j in enumerate(kept[n])}
            for j in sorted(cols):
                i = at_col.get(j)
                if i is None:
                    for r in cols[j]:
                        if r in rows:
                            raise SpanStabilityError(n, j, r)
                else:
                    new = {rows[r]: v for r, v in cols[j].items() if r in rows}
                    if new:
                        out[i] = new
        diffs[n] = SparseLinearMap(len(rows), len(kept[n]), c.ring, out)
    suffix = ":sub" if sub else ":quot"
    return ChainComplex(c.ring, [len(kept[n]) for n in range(c.n_max + 1)], diffs, c.step,
                        c.builder + suffix)
