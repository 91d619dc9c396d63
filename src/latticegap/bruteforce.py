"""Exact minimal gaps at desk-scale cube sizes, by exhaustive scan or search.

The minimal positive distance between disjoint lattice polytopes in the
cube is always attained by a pair of simplices whose dimensions sum to one
less than the ambient dimension, so the scan covers point-segment pairs in
the square and segment-segment plus point-triangle pairs in the cube.

The inner loops run on plain machine integers: every pairwise squared
distance is a ratio of two non-negative integers, minima are maintained by
cross-multiplied comparison, and Fractions only appear in the final result.
Pairs at distance zero intersect and are skipped.

In the cube, `reduced=True` replaces the scan by an exact search over the
pair encoding of the model module.  It rests on one lemma.  Take a
disjoint segment-segment or point-triangle pair at squared distance below
1/(3k^2).  Both closest points lie in the relative interiors.  Otherwise
one of them is a vertex p, and the distance is at least the distance from
p to the line through an edge u of the other body, |u x w|^2/|u|^2 for
an integer w; that is at least 1/|u|^2 >= 1/(3k^2), or p is on the line
and the distance is 0 or at least 1.  So the squared distance is the
affine-hull distance m^2/g, with g = |u x v|^2 the Gram determinant of the
two directions and m = |offset_det|, and m >= 1 since the bodies are
disjoint.  Given any U < 1/(3k^2), every pair at squared distance <= U
therefore has g >= 1/U, and its offset w solves n.w = +-m, n = u x v,
with m^2 <= gU.

The search enumerates the pairs u < v of lex-positive directions in
[-k, k]^3 with g >= 1/U.  One such pair indexes the segments {a, a+u},
{b, b+v} (offset w = b - a) and the triangles {v0, v0+u, v0+v} with
lex-smallest vertex v0 (offset w = p - v0 to the point p).  For each it
solves n.w = t, 0 < |t| <= sqrt(gU), for one coordinate of w over a box
that keeps the pair inside the cube with its closest points less than 1
apart, keeps the offsets whose closest points pass the interior tests of
the scanners, and places every minimal configuration at all its
translations.  U is the extremal pair's squared distance when segments
are selected and k >= 2; otherwise it starts at 1/(9k^4) <= 1/g and
doubles until a pair is found.  Should U reach 1/(3k^2), the lemma gives
nothing and the exhaustive scan runs instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from math import comb, gcd, isqrt

from .certificate import Certificate
from .certify import canonical_pair_key, canonicalize_pair
from .geometry import LatticeSimplex, extremal_pair, sq_distance
from .model import FORMULA_EXCEPTION_K, extremal_gap_squared
from .parallel import parallel_map

POINT_SEGMENT = "point-segment"
SEGMENT_SEGMENT = "segment-segment"
POINT_TRIANGLE = "point-triangle"

# Unreduced scans stay under this for k <= 3 in the cube; size 4 needs
# either the reduced search or an explicit budget.
DEFAULT_BUDGET = 8_000_000


class BudgetExceededError(Exception):
    """The scan would attempt more pairs than the budget allows."""

    def __init__(self, required: int, budget: int):
        super().__init__(f"scan needs {required} pairs, budget is {budget}")
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class EpsResult:
    """Exact minimal positive squared distance with its attaining pairs.

    Witnesses are canonical simplex pairs, deduplicated under the full
    pair-symmetry group and sorted by canonical key.
    """

    d: int
    k: int
    eps_squared: Fraction
    witnesses: tuple
    classes: tuple
    pairs_scanned: int

    def __post_init__(self):
        if self.eps_squared <= 0:
            raise ValueError("minimal squared distance must be positive")


def permitted_classes(d: int) -> tuple:
    if d == 2:
        return (POINT_SEGMENT,)
    if d == 3:
        return (SEGMENT_SEGMENT, POINT_TRIANGLE)
    raise ValueError("only dimensions 2 and 3 are supported")


# --- cached entity tables -------------------------------------------------

@lru_cache(maxsize=None)
def _points(d: int, k: int) -> tuple:
    return tuple(product(range(k + 1), repeat=d))


@lru_cache(maxsize=None)
def _segment_records(d: int, k: int) -> tuple:
    """Flat per-segment tuples: endpoints a < b, direction u = b - a, the
    squared length uu, and the bounding box, all as plain ints."""
    pts = _points(d, k)
    out = []
    for a, b in combinations(pts, 2):
        u = tuple(b[i] - a[i] for i in range(d))
        uu = sum(c * c for c in u)
        lo = tuple(min(a[i], b[i]) for i in range(d))
        hi = tuple(max(a[i], b[i]) for i in range(d))
        out.append(a + b + u + (uu,) + lo + hi)
    return tuple(out)


@lru_cache(maxsize=None)
def _triangle_records(k: int) -> tuple:
    """Flat per-triangle tuples for the cube: base vertex v0, edge vectors
    e1 = v1 - v0 and e2 = v2 - v0, their Gram entries and determinant, the
    bounding box, then (anchor, direction, squared length) for each of the
    three boundary edges.  Collinear triples are excluded."""
    pts = _points(3, k)
    out = []
    for pa, pb, pc in combinations(pts, 3):
        e1 = (pb[0] - pa[0], pb[1] - pa[1], pb[2] - pa[2])
        e2 = (pc[0] - pa[0], pc[1] - pa[1], pc[2] - pa[2])
        cx = e1[1] * e2[2] - e1[2] * e2[1]
        cy = e1[2] * e2[0] - e1[0] * e2[2]
        cz = e1[0] * e2[1] - e1[1] * e2[0]
        if cx == 0 and cy == 0 and cz == 0:
            continue
        c11 = sum(c * c for c in e1)
        c22 = sum(c * c for c in e2)
        c12 = sum(e1[i] * e2[i] for i in range(3))
        den = cx * cx + cy * cy + cz * cz  # equals c11*c22 - c12*c12
        lo = tuple(min(pa[i], pb[i], pc[i]) for i in range(3))
        hi = tuple(max(pa[i], pb[i], pc[i]) for i in range(3))
        edges = ()
        for va, vb in ((pa, pb), (pa, pc), (pb, pc)):
            u = (vb[0] - va[0], vb[1] - va[1], vb[2] - va[2])
            edges += va + u + (sum(c * c for c in u),)
        out.append(pa + e1 + e2 + (c11, c12, c22, den) + lo + hi + edges)
    assert len(out) == triangle_count(k)
    return tuple(out)


@lru_cache(maxsize=None)
def collinear_triple_count(k: int) -> int:
    """Collinear triples of lattice points in the cube, counted line by
    line: each maximal lattice line with m points holds comb(m, 3)."""
    pts = _points(3, k)
    inside = frozenset(pts)
    total = 0
    for v in product(range(-k, k + 1), repeat=3):
        if v == (0, 0, 0):
            continue
        nz = next(c for c in v if c != 0)
        if nz < 0:  # one direction per line
            continue
        if gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2])) != 1:
            continue
        for p in pts:
            prev = (p[0] - v[0], p[1] - v[1], p[2] - v[2])
            if prev in inside:
                continue  # not the start of its line
            m = 0
            q = p
            while q in inside:
                m += 1
                q = (q[0] + v[0], q[1] + v[1], q[2] + v[2])
            if m >= 3:
                total += comb(m, 3)
    return total


def triangle_count(k: int) -> int:
    n = (k + 1) ** 3
    return comb(n, 3) - collinear_triple_count(k)


@lru_cache(maxsize=None)
def _canonical_point_indices(d: int, k: int) -> tuple:
    """Indices of points that are the least member of their orbit under
    the cube symmetries: coordinates ascending, each at most k/2."""
    out = []
    for idx, p in enumerate(_points(d, k)):
        if all(2 * c <= k for c in p) and all(p[i] <= p[i + 1] for i in range(d - 1)):
            out.append(idx)
    return tuple(out)


# --- integer distance kernels ---------------------------------------------

def _pseg(wx, wy, wz, ux, uy, uz, uu):
    """Squared point-segment distance as (numerator, denominator), with
    w the vector from the segment anchor to the point."""
    ww = wx * wx + wy * wy + wz * wz
    dp = wx * ux + wy * uy + wz * uz
    if dp <= 0:
        return ww, 1
    if dp >= uu:
        return ww - 2 * dp + uu, 1
    return ww * uu - dp * dp, uu


def _scan_point_segment(args):
    """One chunk of the point-segment scan in the square."""
    k, chunk, chunks, reduced = args
    pts = _points(2, k)
    segs = _segment_records(2, k)
    outer = _canonical_point_indices(2, k) if reduced else range(len(pts))
    best_n = best_d = None
    wit = []
    for pi in outer[chunk::chunks]:
        px, py = pts[pi]
        for si, rec in enumerate(segs):
            ax, ay, _, _, ux, uy, uu, lox, loy, hix, hiy = rec
            if best_n is not None:
                gx = lox - px
                if gx < 0:
                    gx = px - hix
                    if gx < 0:
                        gx = 0
                gy = loy - py
                if gy < 0:
                    gy = py - hiy
                    if gy < 0:
                        gy = 0
                if (gx * gx + gy * gy) * best_d > best_n:
                    continue
            wx = px - ax
            wy = py - ay
            ww = wx * wx + wy * wy
            dp = wx * ux + wy * uy
            if dp <= 0:
                n, d = ww, 1
            elif dp >= uu:
                n, d = ww - 2 * dp + uu, 1
            else:
                n, d = ww * uu - dp * dp, uu
            if n == 0:
                continue
            if best_n is None or n * best_d < best_n * d:
                best_n, best_d = n, d
                wit = [(pi, si)]
            elif n * best_d == best_n * d:
                wit.append((pi, si))
    return best_n, best_d, wit


def _scan_segment_segment(args):
    """One chunk of the segment-segment scan in the cube."""
    k, chunk, chunks = args
    segs = _segment_records(3, k)
    n_segs = len(segs)
    best_n = best_d = None
    wit = []
    for i in range(n_segs)[chunk::chunks]:
        (ax1, ay1, az1, bx1, by1, bz1, ux1, uy1, uz1, uu1,
         lox1, loy1, loz1, hix1, hiy1, hiz1) = segs[i]
        for j in range(i + 1, n_segs):
            (ax2, ay2, az2, bx2, by2, bz2, ux2, uy2, uz2, uu2,
             lox2, loy2, loz2, hix2, hiy2, hiz2) = segs[j]
            if best_n is not None:
                gx = lox2 - hix1
                if gx < 0:
                    gx = lox1 - hix2
                    if gx < 0:
                        gx = 0
                gy = loy2 - hiy1
                if gy < 0:
                    gy = loy1 - hiy2
                    if gy < 0:
                        gy = 0
                gz = loz2 - hiz1
                if gz < 0:
                    gz = loz1 - hiz2
                    if gz < 0:
                        gz = 0
                if (gx * gx + gy * gy + gz * gz) * best_d > best_n:
                    continue
            wx = ax2 - ax1
            wy = ay2 - ay1
            wz = az2 - az1
            uv = ux1 * ux2 + uy1 * uy2 + uz1 * uz2
            e = ux1 * wx + uy1 * wy + uz1 * wz
            f = ux2 * wx + uy2 * wy + uz2 * wz
            den = uu1 * uu2 - uv * uv
            n = -1
            if den > 0:
                tn = uu2 * e - uv * f
                if 0 <= tn <= den:
                    sn = uv * e - uu1 * f
                    if 0 <= sn <= den:
                        ww = wx * wx + wy * wy + wz * wz
                        n = ww * den - e * tn + f * sn
                        d = den
            if n < 0:
                # parallel, or the unconstrained minimum leaves the box:
                # the minimum sits at an endpoint of one of the segments
                n, d = _pseg(-wx, -wy, -wz, ux2, uy2, uz2, uu2)
                n2, d2 = _pseg(bx1 - ax2, by1 - ay2, bz1 - az2,
                               ux2, uy2, uz2, uu2)
                if n2 * d < n * d2:
                    n, d = n2, d2
                n2, d2 = _pseg(wx, wy, wz, ux1, uy1, uz1, uu1)
                if n2 * d < n * d2:
                    n, d = n2, d2
                n2, d2 = _pseg(bx2 - ax1, by2 - ay1, bz2 - az1,
                               ux1, uy1, uz1, uu1)
                if n2 * d < n * d2:
                    n, d = n2, d2
            if n == 0:
                continue
            if best_n is None or n * best_d < best_n * d:
                best_n, best_d = n, d
                wit = [(i, j)]
            elif n * best_d == best_n * d:
                wit.append((i, j))
    return best_n, best_d, wit


def _scan_point_triangle(args):
    """One chunk of the point-triangle scan in the cube.

    Triangles drive the outer loop so each flat record is unpacked once."""
    k, chunk, chunks = args
    pts = _points(3, k)
    tris = _triangle_records(k)
    best_n = best_d = None
    wit = []
    for ti in range(len(tris))[chunk::chunks]:
        rec = tris[ti]
        (v0x, v0y, v0z, e1x, e1y, e1z, e2x, e2y, e2z,
         c11, c12, c22, den, lox, loy, loz, hix, hiy, hiz) = rec[:19]
        for pi, (px, py, pz) in enumerate(pts):
            if best_n is not None:
                gx = lox - px
                if gx < 0:
                    gx = px - hix
                    if gx < 0:
                        gx = 0
                gy = loy - py
                if gy < 0:
                    gy = py - hiy
                    if gy < 0:
                        gy = 0
                gz = loz - pz
                if gz < 0:
                    gz = pz - hiz
                    if gz < 0:
                        gz = 0
                if (gx * gx + gy * gy + gz * gz) * best_d > best_n:
                    continue
            wx = px - v0x
            wy = py - v0y
            wz = pz - v0z
            d1 = wx * e1x + wy * e1y + wz * e1z
            d2 = wx * e2x + wy * e2y + wz * e2z
            an = c22 * d1 - c12 * d2
            bn = c11 * d2 - c12 * d1
            if an >= 0 and bn >= 0 and an + bn <= den:
                ww = wx * wx + wy * wy + wz * wz
                n = ww * den - d1 * an - d2 * bn
                d = den
            else:
                # closest point lies on the triangle boundary
                n, d = _pseg(px - rec[19], py - rec[20], pz - rec[21],
                             rec[22], rec[23], rec[24], rec[25])
                n2, d2 = _pseg(px - rec[26], py - rec[27], pz - rec[28],
                               rec[29], rec[30], rec[31], rec[32])
                if n2 * d < n * d2:
                    n, d = n2, d2
                n2, d2 = _pseg(px - rec[33], py - rec[34], pz - rec[35],
                               rec[36], rec[37], rec[38], rec[39])
                if n2 * d < n * d2:
                    n, d = n2, d2
            if n == 0:
                continue
            if best_n is None or n * best_d < best_n * d:
                best_n, best_d = n, d
                wit = [(pi, ti)]
            elif n * best_d == best_n * d:
                wit.append((pi, ti))
    return best_n, best_d, wit


# --- exhaustive scan driver ------------------------------------------------

_SCANNERS = {
    POINT_SEGMENT: _scan_point_segment,
    SEGMENT_SEGMENT: _scan_segment_segment,
    POINT_TRIANGLE: _scan_point_triangle,
}


def _pair_count(cls: str, d: int, k: int, reduced: bool) -> int:
    n_pts = (k + 1) ** d
    n_segs = comb(n_pts, 2)
    if cls == POINT_SEGMENT:
        n_outer = len(_canonical_point_indices(d, k)) if reduced else n_pts
        return n_outer * n_segs
    if cls == SEGMENT_SEGMENT:
        return comb(n_segs, 2)
    if cls == POINT_TRIANGLE:
        return n_pts * triangle_count(k)
    raise ValueError(f"unknown enumeration class {cls!r}")


def _witness_pair(cls: str, d: int, k: int, i: int, j: int) -> tuple:
    if cls == SEGMENT_SEGMENT:
        segs = _segment_records(d, k)
        ra, rb = segs[i], segs[j]
        return ((ra[0:d], ra[d:2 * d]), (rb[0:d], rb[d:2 * d]))
    pts = _points(d, k)
    if cls == POINT_SEGMENT:
        rb = _segment_records(d, k)[j]
        return ((pts[i],), (rb[0:d], rb[d:2 * d]))
    rec = _triangle_records(k)[j]
    v0 = rec[0:3]
    v1 = (v0[0] + rec[3], v0[1] + rec[4], v0[2] + rec[5])
    v2 = (v0[0] + rec[6], v0[1] + rec[7], v0[2] + rec[8])
    return ((pts[i],), (v0, v1, v2))


def _scan(d: int, k: int, classes: tuple, budget: int, workers: int,
          reduced: bool, spent: int) -> tuple:
    """Every pair of the selected classes: (numerator, denominator,
    vertex pairs at the minimum, pairs counted including `spent`)."""
    total = spent + sum(_pair_count(cls, d, k, reduced) for cls in classes)
    if total > budget:
        raise BudgetExceededError(total, budget)
    if total < 100_000:
        workers = 1  # process spin-up costs more than the scan

    best_n = best_d = None
    raw = []  # (class, i, j)
    for cls in classes:
        # build the tables in this process first; forked workers inherit them
        if cls == POINT_TRIANGLE:
            _triangle_records(k)
        else:
            _segment_records(d, k)
        chunks = workers * 4 if workers > 1 else 1
        extra = (reduced,) if cls == POINT_SEGMENT else ()
        jobs = [(k, c, chunks) + extra for c in range(chunks)]
        for n, dd, wit in parallel_map(_SCANNERS[cls], jobs, workers):
            if n is None:
                continue
            if best_n is None or n * best_d < best_n * dd:
                best_n, best_d = n, dd
                raw = [(cls, i, j) for i, j in wit]
            elif n * best_d == best_n * dd:
                raw.extend((cls, i, j) for i, j in wit)
    found = [_witness_pair(cls, d, k, i, j) for cls, i, j in raw]
    return best_n, best_d, found, total


# --- exact search over the pair encoding (d = 3) ----------------------------

def _directions(k: int, min_sq: int) -> list:
    """(|u|^2, u) for the lex-positive u in [-k, k]^3 with |u|^2 >= min_sq,
    longest first.  Each (x, y) column is entered only where
    z^2 >= min_sq - x^2 - y^2."""
    out = []
    for x in range(k + 1):
        for y in range(-k, k + 1):
            rest = min_sq - x * x - y * y
            z0 = isqrt(rest - 1) + 1 if rest > 0 else 0
            zs = (range(-k, k + 1) if z0 == 0
                  else chain(range(-k, 1 - z0), range(z0, k + 1)))
            for z in zs:
                if (x, y, z) > (0, 0, 0):
                    out.append((x * x + y * y + z * z, (x, y, z)))
    out.sort(reverse=True)
    return out


def _direction_pairs(k: int, bound: Fraction) -> list:
    """(u, v, n, g) for the lex-positive directions u < v of [-k, k]^3
    with n = u x v and g = |n|^2 >= 1/bound.

    g <= |u|^2 |v|^2 and |v|^2 <= 3k^2, so only directions with
    |u|^2 >= 1/(3k^2 bound) take part, and taken longest first the
    partners of u end at the first v with |u|^2 |v|^2 < 1/bound."""
    num, den = bound.numerator, bound.denominator
    dirs = _directions(k, -(-den // (3 * k * k * num)))
    out = []
    for i, (uu, u) in enumerate(dirs):
        ux, uy, uz = u
        for j in range(i + 1, len(dirs)):
            vv, v = dirs[j]
            if uu * vv * num < den:
                break
            vx, vy, vz = v
            n = (uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx)
            g = n[0] * n[0] + n[1] * n[1] + n[2] * n[2]
            if g * num < den:
                continue
            if u < v:
                out.append((u, v, n, g))
            else:
                out.append((v, u, (-n[0], -n[1], -n[2]), g))
    return out


def _offset_box(cls: str, k: int, u, v):
    """Per-axis range [lo, hi] of the offset w of a pair on directions
    u, v at squared distance below 1/(3k^2), or None if the cube holds no
    such pair.

    For two segments w = b - a runs between their anchors a and b; for a
    point p and a triangle with lex-smallest vertex v0 it is p - v0.  By
    the lemma both closest points are relative-interior and less than 1
    apart, so w lies in the box the closest points span, widened by less
    than 1 per axis.  Segments also need a and b inside the cube.  Within
    the box every w has a non-empty box of anchors (see _translations)."""
    box = []
    for i in range(3):
        a, b = u[i], v[i]
        if cls == SEGMENT_SEGMENT:
            lo = max(max(0, -b) + max(0, a) - k, min(0, a) - max(0, b))
            hi = min(k - max(0, b) - max(0, -a), max(0, a) - min(0, b))
        else:
            lo, hi = min(0, a, b), max(0, a, b)
            if hi - lo > k:
                return None
        box.append((lo, hi))
    return box


def _offsets(n, g: int, box, bound: Fraction) -> list:
    """Offsets w in the box with 0 < |n.w| and (n.w)^2 <= g * bound.

    The widest axis j with n_j != 0 is taken from the equation: for each
    value of the other two coordinates, w_j runs over the integers with
    |n.w| <= top."""
    top = isqrt(g * bound.numerator // bound.denominator)
    j = max((i for i in range(3) if n[i]), key=lambda i: box[i][1] - box[i][0])
    if n[j] < 0:
        n = (-n[0], -n[1], -n[2])
    a, b = (i for i in range(3) if i != j)
    na, nb, nj = n[a], n[b], n[j]
    lo_j, hi_j = box[j]
    out = []
    for wa in range(box[a][0], box[a][1] + 1):
        for wb in range(box[b][0], box[b][1] + 1):
            r = na * wa + nb * wb
            for wj in range(max(lo_j, -((top + r) // nj)),
                            min(hi_j, (top - r) // nj) + 1):
                if nj * wj + r:
                    w = [0, 0, 0]
                    w[a], w[b], w[j] = wa, wb, wj
                    out.append(tuple(w))
    return out


def _interior(cls: str, u, v, w, g: int) -> bool:
    """Do the closest points of the two hulls lie in both bodies?  The
    segment test is the tn/sn test of _scan_segment_segment, the triangle
    test the an/bn test of _scan_point_triangle; g is their denominator."""
    uu = u[0] * u[0] + u[1] * u[1] + u[2] * u[2]
    vv = v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    uv = u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    e = u[0] * w[0] + u[1] * w[1] + u[2] * w[2]
    f = v[0] * w[0] + v[1] * w[1] + v[2] * w[2]
    if cls == SEGMENT_SEGMENT:
        return 0 <= vv * e - uv * f <= g and 0 <= uv * e - uu * f <= g
    an = vv * e - uv * f
    bn = uu * f - uv * e
    return an >= 0 and bn >= 0 and an + bn <= g


def _translations(k: int, cls: str, u, v, w) -> list:
    """Every placement of a configuration in the cube, as vertex tuples:
    segments {a, a+u} and {a+w, a+w+v}, or point v0+w and triangle
    {v0, v0+u, v0+v}.  The anchor runs over the box that keeps every
    vertex in [0, k]^3."""
    if cls == SEGMENT_SEGMENT:
        shifts = ((0, 0, 0), u, w, tuple(v[i] + w[i] for i in range(3)))
    else:
        shifts = ((0, 0, 0), u, v, w)
    axes = [range(max(-s[i] for s in shifts), k - max(s[i] for s in shifts) + 1)
            for i in range(3)]
    out = []
    for a in product(*axes):
        p0, p1, p2, p3 = (tuple(a[i] + s[i] for i in range(3)) for s in shifts)
        out.append(((p0, p1), (p2, p3)) if cls == SEGMENT_SEGMENT
                   else ((p3,), (p0, p1, p2)))
    return out


def _candidates(k: int, classes: tuple, bound: Fraction) -> list:
    """(class, u, v, n, g, offsets) for every direction pair with
    g >= 1/bound and every selected class the cube can hold on it; the
    offsets are those _offsets admits, not yet tested."""
    out = []
    for u, v, n, g in _direction_pairs(k, bound):
        for cls in classes:
            box = _offset_box(cls, k, u, v)
            if box is not None:
                out.append((cls, u, v, n, g, _offsets(n, g, box, bound)))
    return out


def _configurations(candidates) -> list:
    """(t^2, g, class, u, v, w) for the candidates whose closest points
    are interior: each is a pair at squared distance t^2/g, t = n.w."""
    out = []
    for cls, u, v, n, g, offsets in candidates:
        for w in offsets:
            if _interior(cls, u, v, w, g):
                t = n[0] * w[0] + n[1] * w[1] + n[2] * w[2]
                out.append((t * t, g, cls, u, v, w))
    return out


def _search(k: int, classes: tuple, budget: int) -> tuple:
    """All pairs of the selected classes at squared distance <= U, for
    the smallest U tried that holds one: (numerator, denominator, vertex
    pairs at the minimum, candidates counted).  The numerator is None
    when U reached 1/(3k^2) first, where the lemma stops holding."""
    if SEGMENT_SEGMENT in classes and k >= 2:
        bound = sq_distance(*extremal_pair(k))
    else:
        bound = Fraction(1, 9 * k ** 4)  # g <= |u|^2 |v|^2 <= 9k^4
    spent = 0
    while bound < Fraction(1, 3 * k * k):
        candidates = _candidates(k, classes, bound)
        spent += sum(len(offsets) for *_, offsets in candidates)
        if spent > budget:
            raise BudgetExceededError(spent, budget)
        configs = _configurations(candidates)
        if configs:
            best_n, best_d = min(configs, key=lambda c: Fraction(c[0], c[1]))[:2]
            found = [pair for tt, g, *config in configs
                     if tt * best_d == best_n * g
                     for pair in _translations(k, *config)]
            return best_n, best_d, found, spent
        bound *= 2
    return None, None, [], spent


def eps_bruteforce(d: int, k: int, classes=None, budget=DEFAULT_BUDGET,
                   workers=1, reduced=False) -> EpsResult:
    """Exact minimum positive squared distance over every pair in the
    selected enumeration classes, with canonical deduplicated witnesses.

    The work is counted before it starts and refused when it exceeds the
    budget.  `reduced` changes only the work, never the minimum or the
    canonical witness set.  In the square it restricts the points to
    canonical orbit representatives.  In the cube it replaces the scan by
    the exact search over the pair encoding (see the module docstring).
    The search rests on the lemma that a disjoint pair at squared distance
    below 1/(3k^2) has both closest points in the relative interiors and
    squared distance offset_det^2 / gram_det, so every pair at or below a
    bound U < 1/(3k^2) has gram_det >= 1/U.  It runs in this process and
    counts (direction pair, offset) candidates.  It falls back to the scan
    only where U reaches 1/(3k^2) first, which happens for point-triangle
    pairs alone at k = 1.
    """
    if k < 1:
        raise ValueError("cube size must be at least 1")
    allowed = permitted_classes(d)
    if classes is None:
        classes = allowed
    classes = tuple(classes)
    for cls in classes:
        if cls not in allowed:
            raise ValueError(f"class {cls!r} is not available in dimension {d}")
    if not classes:
        raise ValueError("at least one enumeration class is required")

    best_n, spent = None, 0
    if d == 3 and reduced:
        best_n, best_d, found, spent = _search(k, classes, budget)
    if best_n is None:
        best_n, best_d, found, spent = _scan(d, k, classes, budget, workers,
                                             reduced, spent)
    if best_n is None:
        raise ValueError("no disjoint pair found in the selected classes")
    eps_squared = Fraction(best_n, best_d)

    by_key = {}
    for verts1, verts2 in found:
        pair = canonicalize_pair(LatticeSimplex(verts1, k), LatticeSimplex(verts2, k))
        by_key[canonical_pair_key(*pair)] = pair
    witnesses = tuple(by_key[key] for key in sorted(by_key))
    for s1, s2 in witnesses:
        if sq_distance(s1, s2) != eps_squared:
            raise AssertionError("witness does not attain the minimum")

    return EpsResult(d, k, eps_squared, witnesses, classes, spent)


# --- derived checks --------------------------------------------------------

def check_point_triangle_gap(k: int, budget=DEFAULT_BUDGET, workers=1,
                             reduced=False) -> Certificate:
    """Certify that every lattice point strictly outside a lattice triangle
    in the cube stays strictly farther than the segment-segment minimum."""
    seg = eps_bruteforce(3, k, (SEGMENT_SEGMENT,), budget, workers, reduced)
    tri = eps_bruteforce(3, k, (POINT_TRIANGLE,), budget, workers, reduced)
    passed = tri.eps_squared > seg.eps_squared
    return Certificate.make(
        "point-triangle-gap", passed,
        witnesses=() if passed else tri.witnesses,
        notes=(f"min point-triangle squared distance {tri.eps_squared} "
               f"{'exceeds' if passed else 'does not exceed'} "
               f"segment minimum {seg.eps_squared} at k = {k}"),
        k=k, segment_min=seg.eps_squared, point_triangle_min=tri.eps_squared,
        pairs_scanned=seg.pairs_scanned + tri.pairs_scanned)


# Known minimal squared gaps at desk scale, regeneration-checked: the scan
# itself re-derives every row.  The square rows follow 1/((k-1)^2 + k^2)
# from k = 2 on; the cube rows follow the closed form except at size 3.
SMALL_TABLE = (
    (2, 1, Fraction(1, 2)),
    (2, 2, Fraction(1, 5)),
    (2, 3, Fraction(1, 13)),
    (2, 4, Fraction(1, 25)),
    (3, 1, Fraction(1, 6)),
    (3, 2, Fraction(1, 50)),
    (3, 3, Fraction(1, 299)),
)


def reproduce_small_table(budget=DEFAULT_BUDGET, workers=1, reduced=False,
                          entries=SMALL_TABLE) -> Certificate:
    """Recompute every known small-cube minimal gap and compare exactly."""
    rows = []
    bad = []
    for d, k, expected in entries:
        res = eps_bruteforce(d, k, budget=budget, workers=workers, reduced=reduced)
        rows.append((d, k, expected, res.eps_squared))
        if res.eps_squared != expected:
            bad.append((d, k, expected, res.eps_squared))
    return Certificate.make(
        "small-gap-table", not bad, witnesses=tuple(bad),
        notes=f"{len(rows)} table rows recomputed "
              f"{'in reduced mode' if reduced else 'by exhaustive scan'}",
        rows=tuple(rows))


def verify_small_k_formula(max_k=3, budget=DEFAULT_BUDGET, workers=1,
                           reduced=False) -> Certificate:
    """Compare the brute-force minimum against the closed-form squared gap
    for k = 1..max_k.  Equality is required everywhere except at the known
    exceptional size, where the two values must differ."""
    rows = []
    bad = []
    for k in range(1, max_k + 1):
        res = eps_bruteforce(3, k, budget=budget, workers=workers, reduced=reduced)
        formula = extremal_gap_squared(k)
        ok = (res.eps_squared == formula) == (k != FORMULA_EXCEPTION_K)
        rows.append((k, res.eps_squared, formula))
        if not ok:
            bad.append(k)
    return Certificate.make(
        "small-k-formula", not bad, witnesses=tuple(bad),
        notes=f"brute force vs closed form for k = 1..{max_k}, "
              f"exception expected at k = {FORMULA_EXCEPTION_K}",
        comparisons=tuple(rows), exception_k=FORMULA_EXCEPTION_K)
