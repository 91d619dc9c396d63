"""The certificate pipeline behind the closed-form minimal gap.

Three mechanical steps establish that, from cube size 6 on, the extremal
segment pair is the unique closest configuration among corner candidates:

1. certify_domination: every competing offset pattern one layer below the
   corner has its Gram polynomial strictly dominated by the extremal gap
   denominator for every integer k >= 6.
2. search_optimal_encodings: among patterns at the corner layers, exactly
   those whose offset determinant is constant +-1 and whose Gram polynomial
   matches the extremal denominator survive; the search reports them.
3. canonical comparison: each survivor, realized as a segment pair, is a
   cube symmetry image of the extremal pair.

Everything is integer or Fraction arithmetic end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import floor

from .certificate import Certificate
from .geometry import (LatticeSimplex, apply_cube_symmetry, cube_symmetries,
                       extremal_pair, vadd)
from .intpoly import (ALL_INTEGERS, IntPoly, integer_solutions_of_abs_eq,
                      isolate_real_roots, positive_for_all_integers_geq)
from .model import (EXTREMAL_GAP_DENOMINATOR, PairEncoding, corner_map,
                    corner_map_polynomials, gram_det)
from .parallel import parallel_map

# --- candidate enumeration ----------------------------------------------

def gen_domination_candidates() -> tuple:
    """Offset patterns one layer below the corner: non-negative, first six
    coordinates summing to exactly 6, last three zero, and each column pair
    (i, i+3) non-degenerate (sum >= 1).  Lexicographic order."""
    out = []
    for x1 in range(7):
        for x2 in range(7 - x1):
            for x3 in range(7 - x1 - x2):
                for x4 in range(7 - x1 - x2 - x3):
                    for x5 in range(7 - x1 - x2 - x3 - x4):
                        x6 = 6 - x1 - x2 - x3 - x4 - x5
                        if x1 + x4 < 1 or x2 + x5 < 1 or x3 + x6 < 1:
                            continue
                        out.append((x1, x2, x3, x4, x5, x6, 0, 0, 0))
    return tuple(out)


def gen_search_candidates() -> tuple:
    """Offset patterns at the corner layers: first six coordinates
    non-negative summing to at most 5 with each column pair non-degenerate,
    seventh in [0, x1+x4], eighth in [-x2, x5], ninth in [-x3, x6].
    Lexicographic order."""
    out = []
    for x1 in range(6):
        for x2 in range(6 - x1):
            for x3 in range(6 - x1 - x2):
                for x4 in range(6 - x1 - x2 - x3):
                    for x5 in range(6 - x1 - x2 - x3 - x4):
                        for x6 in range(6 - x1 - x2 - x3 - x4 - x5):
                            if x1 + x4 < 1 or x2 + x5 < 1 or x3 + x6 < 1:
                                continue
                            for x7 in range(x1 + x4 + 1):
                                for x8 in range(-x2, x5 + 1):
                                    for x9 in range(-x3, x6 + 1):
                                        out.append((x1, x2, x3, x4, x5, x6,
                                                    x7, x8, x9))
    return tuple(out)


# --- step 1: strict domination of the lower layer -----------------------

def _domination_one(pre, target: IntPoly, start: int):
    _, gram_poly = corner_map_polynomials(pre)
    diff = target - gram_poly
    cert = positive_for_all_integers_geq(diff, start)
    return pre, cert.passed, diff(start), cert.get("max_interval_upper")


def _domination_chunk(args):
    chunk, target_coeffs, start = args
    target = IntPoly(target_coeffs)
    return [_domination_one(pre, target, start) for pre in chunk]


def domination_records(candidates=None, target=None, start=6, workers=1):
    """Per-candidate outcome tuples (pattern, passed, margin at start,
    largest root-interval end), in candidate order."""
    if candidates is None:
        candidates = gen_domination_candidates()
    if target is None:
        target = EXTREMAL_GAP_DENOMINATOR
    jobs = [(chunk, target.coeffs, start) for chunk in _chunks(candidates, workers * 4)]
    return tuple(chain.from_iterable(parallel_map(_domination_chunk, jobs, workers)))


def certify_domination(candidates=None, target=None, start=6, workers=1) -> Certificate:
    """Certify that the extremal gap denominator strictly exceeds the Gram
    polynomial of every domination candidate at every integer k >= start."""
    records = domination_records(candidates, target, start, workers)
    failures = tuple(pre for pre, ok, _, _ in records if not ok)
    margins = [m for _, _, m, _ in records]
    uppers = [u for _, _, _, u in records if u is not None]
    return Certificate.make(
        "candidate-domination",
        not failures,
        witnesses=failures,
        notes=f"{len(records)} candidates dominated from k = {start} on",
        candidates=len(records),
        start=start,
        min_margin_at_start=min(margins) if margins else None,
        max_root_interval_upper=max(uppers) if uppers else None,
    )


# --- step 2: exact search over the corner layers ------------------------

@dataclass(frozen=True)
class IntegerSet:
    """A set of integers: a finite part plus an optional symbolic tail
    holding every integer >= tail_start.  Tails are never enumerated."""

    finite: tuple = ()
    tail_start: int | None = None

    @property
    def is_empty(self) -> bool:
        return not self.finite and self.tail_start is None

    def contains(self, j: int) -> bool:
        if j in self.finite:
            return True
        return self.tail_start is not None and j >= self.tail_start

    def intersects(self, other: "IntegerSet") -> bool:
        if self.tail_start is not None and other.tail_start is not None:
            return True
        return (any(other.contains(j) for j in self.finite)
                or any(self.contains(j) for j in other.finite))


def _abs_unit_set(poly: IntPoly, start: int) -> IntegerSet:
    """Integers j >= start with |poly(j)| == 1."""
    sols = integer_solutions_of_abs_eq(poly, 1, start)
    if sols == ALL_INTEGERS:
        return IntegerSet((), start)
    return IntegerSet(sols, None)


def _nonneg_set(poly: IntPoly, start: int) -> IntegerSet:
    """Integers j >= start with poly(j) >= 0."""
    if poly.is_zero:
        return IntegerSet((), start)
    if poly.degree == 0:
        return IntegerSet((), start) if poly.coeffs[0] > 0 else IntegerSet()
    iso = isolate_real_roots(poly)
    if not iso.intervals:
        return IntegerSet((), start) if poly(start) > 0 else IntegerSet()
    last = floor(iso.max_upper()) + 1
    finite = tuple(j for j in range(start, last + 1) if poly(j) >= 0)
    tail = max(last + 1, start) if poly.leading > 0 else None
    return IntegerSet(finite, tail)


def _search_one(pre, target: IntPoly, start: int, g_first: bool) -> bool:
    """Does some integer k >= start make the offset determinant hit +-1
    while the Gram polynomial reaches the target?  The two polynomial
    filters commute; g_first only changes which one short-circuits."""
    offset_poly, gram_poly = corner_map_polynomials(pre)
    if g_first:
        reach = _nonneg_set(gram_poly - target, start)
        if reach.is_empty:
            return False
        unit = _abs_unit_set(offset_poly, start)
    else:
        unit = _abs_unit_set(offset_poly, start)
        if unit.is_empty:
            return False
        reach = _nonneg_set(gram_poly - target, start)
    return unit.intersects(reach)


def _search_chunk(args):
    chunk, target_coeffs, start, g_first = args
    target = IntPoly(target_coeffs)
    return [pre for pre in chunk if _search_one(pre, target, start, g_first)]


def search_optimal_encodings(candidates=None, start=6, g_first=False, workers=1) -> tuple:
    """Corner patterns that, for some integer k >= start, encode a pair at
    unit offset determinant whose Gram value reaches the extremal gap
    denominator.  Returns them in candidate order."""
    if candidates is None:
        candidates = gen_search_candidates()
    target = EXTREMAL_GAP_DENOMINATOR
    jobs = [(chunk, target.coeffs, start, g_first)
            for chunk in _chunks(candidates, workers * 4)]
    return tuple(chain.from_iterable(parallel_map(_search_chunk, jobs, workers)))


def certify_optimal_search(candidates=None, start=6, workers=1) -> Certificate:
    """Run the corner search and certify that every surviving pattern is a
    cube-symmetry image of the extremal pair (checked at k = start)."""
    winners = search_optimal_encodings(candidates, start, workers=workers)
    reference = canonical_pair_key(*extremal_pair(start))
    mismatches = []
    for pre in winners:
        pair = reconstruct_pair(corner_map(pre, start))
        if canonical_pair_key(*pair) != reference:
            mismatches.append(pre)
    passed = bool(winners) and not mismatches
    if passed:
        witnesses = winners
        notes = (f"{len(winners)} optimal patterns, all equivalent to the "
                 f"extremal pair at k = {start}")
    elif not winners:
        witnesses = ("search returned no qualifying pattern",)
        notes = "expected at least one optimal pattern"
    else:
        witnesses = tuple(mismatches)
        notes = f"{len(mismatches)} patterns are not extremal-pair images"
    return Certificate.make(
        "optimal-encoding-search", passed, witnesses=witnesses, notes=notes,
        start=start, winners=tuple(winners), winner_count=len(winners))


# --- step 3: canonical comparison ----------------------------------------

def _simplex_sort_key(verts):
    return (len(verts), verts)


def canonical_pair_key(first: LatticeSimplex, second: LatticeSimplex) -> tuple:
    """Order-independent canonical form of a simplex pair under the 2^d d!
    cube symmetries, vertex reordering, and pair exchange.

    Two pairs get the same key exactly when one maps to the other by such a
    symmetry.  The key is the lexicographically smallest image."""
    if first.k != second.k or first.dim != second.dim:
        raise ValueError("pairs must live in the same cube")
    k = first.k
    best = None
    for sym in cube_symmetries(first.dim):
        t1 = tuple(sorted(apply_cube_symmetry(v, sym, k) for v in first.vertices))
        t2 = tuple(sorted(apply_cube_symmetry(v, sym, k) for v in second.vertices))
        cand = tuple(sorted((t1, t2), key=_simplex_sort_key))
        if best is None or cand < best:
            best = cand
    return (k, best)


def canonicalize_pair(first: LatticeSimplex, second: LatticeSimplex) -> tuple:
    """The canonical representative itself, as a valid simplex pair."""
    k, (verts1, verts2) = canonical_pair_key(first, second)
    return LatticeSimplex(verts1, k), LatticeSimplex(verts2, k)


def reconstruct_pair(x: PairEncoding) -> tuple:
    """Realize an encoding as an actual segment pair in [0, k]^3, using the
    lexicographically smallest integer translation that fits the cube."""
    if gram_det(x) <= 0:
        raise ValueError("encoding has dependent columns")
    c = x.coords
    k = x.k
    base = []
    for i in range(3):
        col1, col2, off = c[i], c[i + 3], c[i + 6]
        lo = max(0, -col1, -off, -(col2 + off))
        hi = min(k, k - col1, k - off, k - (col2 + off))
        if lo > hi:
            raise ValueError("encoding is not realizable inside the cube")
        base.append(lo)
    p0 = tuple(base)
    p1 = vadd(p0, c[0:3])
    q0 = vadd(p0, c[6:9])
    q1 = vadd(q0, c[3:6])
    return LatticeSimplex((p0, p1), k), LatticeSimplex((q0, q1), k)


# --- the coarse upper bound ----------------------------------------------

def certify_coarse_bound_margin() -> Certificate:
    """Certify that the extremal pair's squared gap stays below 1/(3 k^4)
    for every integer k >= 1, i.e. that the gap denominator minus 3 k^4
    stays positive."""
    margin = EXTREMAL_GAP_DENOMINATOR - IntPoly((0, 0, 0, 0, 3))
    inner = positive_for_all_integers_geq(margin, 1)
    return Certificate.make(
        "coarse-bound-margin", inner.passed, witnesses=inner.witnesses,
        notes="extremal squared gap < 1/(3 k^4) for every integer k >= 1"
        if inner.passed else inner.notes,
        **dict(inner.data))


def _chunks(seq, n: int):
    """At most n contiguous chunks of nearly equal size, in order."""
    n = max(1, min(n, len(seq)))
    size, extra = divmod(len(seq), n)
    out = []
    idx = 0
    for i in range(n):
        step = size + (1 if i < extra else 0)
        if step:
            out.append(tuple(seq[idx:idx + step]))
        idx += step
    return out
