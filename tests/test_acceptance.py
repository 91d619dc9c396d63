"""Acceptance gate: one test per shipping requirement, in order.

Every check here is quantitative and exact; nothing is compared with a
tolerance.  Each test appends a PASS/FAIL line that pytest echoes in the
terminal summary, so a full run ends with one verdict line per
requirement.  The heavyweight shared scans run once per module.
"""

import random
from fractions import Fraction

import pytest

from conftest import ACCEPTANCE_LINES, oracle_intersects
from latticegap import (
    EXTREMAL_GAP_DENOMINATOR,
    FORMULA_EXCEPTION_K,
    LatticeSimplex,
    PairEncoding,
    canonical_pair_key,
    certify_domination,
    check_point_triangle_gap,
    corner_map,
    corner_map_polynomials,
    encode_pair,
    eps_bruteforce,
    extremal_gap_squared,
    extremal_pair,
    gram_det,
    in_envelope,
    offset_det,
    reconstruct_pair,
    reproduce_small_table,
    search_optimal_encodings,
    sq_distance,
    verify_small_k_formula,
)
from latticegap.geometry import sq_dist_segment_segment, vdot, vsub
from latticegap.bruteforce import POINT_TRIANGLE, SEGMENT_SEGMENT
from test_bruteforce import GOLDEN_WITNESSES, vertex_tuples
from test_certify import OPTIMAL_PATTERNS


def report(ok: bool, name: str, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def cube_scans():
    return {k: eps_bruteforce(3, k) for k in (1, 2, 3)}


def test_small_table_reproduction():
    cert = reproduce_small_table()
    rows = cert.get("rows")
    report(cert.passed and len(rows) == 7, "small-gap-table",
           "; ".join(f"d={d} k={k} {computed}" for d, k, _, computed in rows))


def test_closed_form_matches_except_at_three(cube_scans):
    rows = [(k, cube_scans[k].eps_squared, extremal_gap_squared(k))
            for k in (1, 2, 3)]
    ok = all((eps == formula) == (k != FORMULA_EXCEPTION_K)
             for k, eps, formula in rows)
    cert = verify_small_k_formula(max_k=3)
    detail = "; ".join(
        f"k={k} scan {eps} vs formula {formula}" for k, eps, formula in rows)
    report(ok and cert.passed and cert.get("comparisons") == tuple(rows),
           "small-k-formula", detail)


def test_lower_layer_domination():
    cert = certify_domination()
    upper = cert.get("max_root_interval_upper")
    margin = cert.get("min_margin_at_start")
    ok = (cert.passed and cert.get("candidates") == 231
          and upper is not None and upper < 6 and margin > 0)
    report(ok, "candidate-domination",
           f"231 candidates, min margin at 6 is {margin}, "
           f"largest root interval ends at {upper} < 6")


def test_corner_search_finds_the_eight_patterns():
    winners = search_optimal_encodings()
    ok = sorted(winners) == sorted(OPTIMAL_PATTERNS) and len(winners) == 8
    report(ok, "optimal-encoding-search",
           f"{len(winners)} patterns, no extras")


def test_every_winner_is_the_extremal_pair():
    reference = canonical_pair_key(*extremal_pair(6))
    matched = sum(
        1 for pre in OPTIMAL_PATTERNS
        if canonical_pair_key(*reconstruct_pair(corner_map(pre, 6))) == reference)
    report(matched == len(OPTIMAL_PATTERNS), "extremal-equivalence",
           f"{matched}/{len(OPTIMAL_PATTERNS)} patterns reconstruct to the "
           f"extremal pair at k=6")


def test_point_triangle_gap_small_cubes():
    rows = []
    ok = True
    for k in (1, 2, 3):
        cert = check_point_triangle_gap(k)
        ok = ok and cert.passed
        rows.append(f"k={k} {cert.get('point_triangle_min')} > "
                    f"{cert.get('segment_min')}")
    report(ok, "point-triangle-gap", "; ".join(rows))


def test_model_identity_suite():
    rng = random.Random(20260822)
    failures = 0
    samples = 0
    perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))

    def det3(c):
        return (c[0] * (c[4] * c[8] - c[5] * c[7])
                - c[3] * (c[1] * c[8] - c[2] * c[7])
                + c[6] * (c[1] * c[5] - c[2] * c[4]))

    def gram_oracle(c):
        col1, col2 = c[0:3], c[3:6]
        return vdot(col1, col1) * vdot(col2, col2) - vdot(col1, col2) ** 2

    for k in range(1, 9):
        for _ in range(10_000):
            c = tuple(rng.randint(-k, k) for _ in range(9))
            x = PairEncoding(c, k)
            f, g = offset_det(x), gram_det(x)
            if f != -det3(c) or g != gram_oracle(c):
                failures += 1
            # simultaneous axis permutation, axis negations, column negation
            p = perms[rng.randrange(6)]
            c2 = [0] * 9
            for j in range(3):
                c2[j], c2[j + 3], c2[j + 6] = c[p[j]], c[p[j] + 3], c[p[j] + 6]
            for i in range(3):
                if rng.random() < 0.5:
                    c2[i], c2[i + 3], c2[i + 6] = -c2[i], -c2[i + 3], -c2[i + 6]
            y = PairEncoding(tuple(c2), k)
            if abs(offset_det(y)) != abs(f) or gram_det(y) != g:
                failures += 1
            c3 = tuple(-v for v in c[0:3]) + c[3:9]
            if gram_det(PairEncoding(c3, k)) != g:
                failures += 1
            samples += 1

    composed = 0
    for k in range(1, 11):
        for _ in range(600):
            pre = tuple(rng.randint(0, 2 * k) for _ in range(7)) \
                + tuple(rng.randint(-k, k) for _ in range(2))
            f_poly, g_poly = corner_map_polynomials(pre)
            enc = corner_map(pre, k)
            if f_poly(k) != offset_det(enc) or g_poly(k) != gram_det(enc):
                failures += 1
            composed += 1

    enveloped = 0
    for _ in range(10_000):
        k = rng.randint(1, 6)
        c = [rng.randint(-k, 0)] + [rng.randint(0, k) for _ in range(5)]
        for i in range(3):
            a, b = c[i], c[i + 3]
            lo = max(a - k, -k - b, a - b - k, -k)
            hi = min(a + k, k - b, a - b + k, k)
            c.append(rng.randint(lo, hi))
        x = PairEncoding(tuple(c), k)
        if not in_envelope(x) or gram_det(x) > 12 * k ** 4:
            failures += 1
        enveloped += 1

    report(failures == 0, "model-identities",
           f"{samples} determinant and symmetry samples over k=1..8, "
           f"{composed} corner-map compositions over k=1..10, "
           f"{enveloped} envelope samples; {failures} failures")


def test_distance_kernel_against_grid_oracle():
    rng = random.Random(977)
    n = 16
    checked = 0
    for _ in range(1_000):
        while True:
            a1, b1, a2, b2 = (tuple(rng.randint(0, 3) for _ in range(3))
                              for _ in range(4))
            if a1 != b1 and a2 != b2:
                break
        d = sq_dist_segment_segment(a1, b1, a2, b2)
        u, v, w = vsub(b1, a1), vsub(b2, a2), vsub(a2, a1)
        iu = [tuple(i * c for c in u) for i in range(n + 1)]
        jv = [tuple(j * c for c in v) for j in range(n + 1)]
        nw = tuple(n * c for c in w)
        best = None
        for row in iu:
            for col in jv:
                dx = row[0] - col[0] - nw[0]
                dy = row[1] - col[1] - nw[1]
                dz = row[2] - col[2] - nw[2]
                num = dx * dx + dy * dy + dz * dz
                if best is None or num < best:
                    best = num
        grid_min = Fraction(best, n * n)
        # the objective's partial derivatives are bounded on the unit box,
        # so the best grid point sits within slack of the true minimum
        slack = Fraction(
            vdot(u, u) + vdot(v, v) + 2 * abs(vdot(u, v))
            + abs(vdot(u, w)) + abs(vdot(v, w)), n)
        assert d <= grid_min
        assert d >= grid_min - slack
        checked += 1

    zero_iff = 0
    for _ in range(1_500):
        shapes = rng.choice(((1, 1), (1, 2), (2, 2), (1, 3)))
        pair = []
        for nverts in shapes:
            while True:
                verts = tuple(tuple(rng.randint(0, 2) for _ in range(3))
                              for _ in range(nverts))
                try:
                    pair.append(LatticeSimplex(verts, 2))
                    break
                except ValueError:
                    continue
        dist = sq_distance(pair[0], pair[1])
        assert (dist == 0) == oracle_intersects(pair[0], pair[1])
        zero_iff += 1

    report(True, "distance-kernel-oracle",
           f"{checked} segment pairs within grid-oracle slack, "
           f"{zero_iff} pairs exact on zero-iff-intersecting")


@pytest.mark.parametrize("classes", [
    None, (SEGMENT_SEGMENT,), (POINT_TRIANGLE,)],
    ids=["both", "segments", "point-triangle"])
def test_reduced_search_matches_the_scan(cube_scans, classes):
    details = []
    ok = True
    for k in (1, 2, 3):
        full = cube_scans[k] if classes is None else eps_bruteforce(3, k, classes)
        red = eps_bruteforce(3, k, classes, reduced=True)
        same = (red.eps_squared == full.eps_squared
                and vertex_tuples(red) == vertex_tuples(full))
        ok = ok and same
        details.append(f"k={k} {red.eps_squared} "
                       f"{'same witnesses' if same else 'MISMATCH'}")
    report(ok, f"reduced-search[{classes[0] if classes else 'both'}]",
           "; ".join(details))


def test_scan_witnesses_match_the_golden_figures(cube_scans):
    details = []
    ok = True
    for k in (1, 2, 3):
        keys = {canonical_pair_key(*w) for w in cube_scans[k].witnesses}
        if k in ((3, 1), (3, 3)) or (3, k) in GOLDEN_WITNESSES:
            verts1, verts2 = GOLDEN_WITNESSES[(3, k)]
            golden = canonical_pair_key(LatticeSimplex(verts1, k),
                                        LatticeSimplex(verts2, k))
            hit = golden in keys
        else:
            hit = canonical_pair_key(*extremal_pair(k)) in keys
        ok = ok and hit
        details.append(f"k={k} witness matched" if hit else f"k={k} MISSING")
    report(ok, "golden-witnesses", "; ".join(details))
