"""Exhaustive scans: small-table values, witnesses, budgets, and reductions."""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import _cross, _sub
from latticegap import (
    BudgetExceededError,
    EpsResult,
    LatticeSimplex,
    SMALL_TABLE,
    apply_cube_symmetry,
    canonical_pair_key,
    canonicalize_pair,
    check_point_triangle_gap,
    collinear_triple_count,
    cube_symmetries,
    encode_pair,
    eps_bruteforce,
    extremal_gap_squared,
    extremal_pair,
    gram_det,
    offset_det,
    permitted_classes,
    reproduce_small_table,
    sq_dist_affine_hulls,
    sq_distance,
    triangle_count,
    verify_small_k_formula,
)
from latticegap.bruteforce import (
    POINT_SEGMENT,
    POINT_TRIANGLE,
    SEGMENT_SEGMENT,
    _candidates,
    _configurations,
    _points,
    _segment_records,
    _translations,
    _triangle_records,
)

GOLDEN_WITNESSES = {
    # canonical vertex tuples of the unique closest pair, regeneration-checked
    (3, 1): (((0, 0, 0), (0, 1, 1)), ((0, 0, 1), (1, 1, 0))),
    (3, 3): (((0, 0, 0), (2, 3, 3)), ((0, 1, 2), (3, 2, 0))),
}


class TestValidation:
    def test_permitted_classes(self):
        assert permitted_classes(2) == (POINT_SEGMENT,)
        assert permitted_classes(3) == (SEGMENT_SEGMENT, POINT_TRIANGLE)
        with pytest.raises(ValueError):
            permitted_classes(4)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            eps_bruteforce(3, 0)
        with pytest.raises(ValueError):
            eps_bruteforce(2, 1, classes=(POINT_TRIANGLE,))
        with pytest.raises(ValueError):
            eps_bruteforce(3, 1, classes=(POINT_SEGMENT,))
        with pytest.raises(ValueError):
            eps_bruteforce(3, 1, classes=())
        with pytest.raises(ValueError):
            eps_bruteforce(3, 1, classes=("bogus",))

    def test_result_requires_positive_minimum(self):
        with pytest.raises(ValueError):
            EpsResult(3, 1, Fraction(0), (), (SEGMENT_SEGMENT,), 10)

    def test_budget_is_checked_before_scanning(self):
        with pytest.raises(BudgetExceededError) as exc:
            eps_bruteforce(2, 1, budget=10)
        assert exc.value.required == 24
        assert exc.value.budget == 10
        assert "24 pairs" in str(exc.value)

    def test_full_cube_scan_at_four_exceeds_the_default_budget(self):
        with pytest.raises(BudgetExceededError) as exc:
            eps_bruteforce(3, 4)
        assert exc.value.required == 69_513_875


class TestSmallTable:
    @pytest.mark.parametrize("d, k, expected", SMALL_TABLE)
    def test_each_row_is_recomputed(self, d, k, expected):
        res = eps_bruteforce(d, k)
        assert res.eps_squared == expected
        assert res.d == d and res.k == k
        assert res.witnesses

    def test_certificate_wrapper(self):
        entries = ((2, 1, Fraction(1, 2)), (2, 2, Fraction(1, 5)))
        cert = reproduce_small_table(entries=entries)
        assert cert.passed
        assert cert.get("rows") == (
            (2, 1, Fraction(1, 2), Fraction(1, 2)),
            (2, 2, Fraction(1, 5), Fraction(1, 5)))

    def test_certificate_catches_a_wrong_row(self):
        cert = reproduce_small_table(entries=((2, 1, Fraction(1, 3)),))
        assert not cert.passed
        assert cert.witnesses == ((2, 1, Fraction(1, 3), Fraction(1, 2)),)

    def test_formula_comparison_below_the_exception(self):
        cert = verify_small_k_formula(max_k=2)
        assert cert.passed
        assert cert.get("exception_k") == 3
        comparisons = cert.get("comparisons")
        assert comparisons == (
            (1, Fraction(1, 6), Fraction(1, 6)),
            (2, Fraction(1, 50), Fraction(1, 50)))


class TestWitnesses:
    def test_unit_cube_witness_is_golden(self):
        res = eps_bruteforce(3, 1)
        assert len(res.witnesses) == 1
        w1, w2 = res.witnesses[0]
        assert (w1.vertices, w2.vertices) == GOLDEN_WITNESSES[(3, 1)]

    def test_witnesses_are_canonical_and_attaining(self):
        res = eps_bruteforce(3, 2)
        assert res.witnesses
        for w1, w2 in res.witnesses:
            assert sq_distance(w1, w2) == res.eps_squared
            c1, c2 = canonicalize_pair(w1, w2)
            assert (c1.vertices, c2.vertices) == (w1.vertices, w2.vertices)

    def test_witness_at_two_is_the_extremal_orbit(self):
        res = eps_bruteforce(3, 2)
        assert len(res.witnesses) == 1
        assert canonical_pair_key(*res.witnesses[0]) == \
            canonical_pair_key(*extremal_pair(2))

    def test_witness_set_is_closed_under_symmetry(self):
        res = eps_bruteforce(3, 2)
        keys = {canonical_pair_key(*w) for w in res.witnesses}
        w1, w2 = res.witnesses[0]
        for sym in cube_symmetries(3)[::5]:
            t1 = LatticeSimplex(tuple(
                apply_cube_symmetry(v, sym, 2) for v in w1.vertices), 2)
            t2 = LatticeSimplex(tuple(
                apply_cube_symmetry(v, sym, 2) for v in w2.vertices), 2)
            assert sq_distance(t1, t2) == res.eps_squared
            assert canonical_pair_key(t2, t1) in keys


def vertex_tuples(res):
    return tuple((a.vertices, b.vertices) for a, b in res.witnesses)


class TestReducedMode:
    @pytest.mark.parametrize("d, k", [(2, 2), (2, 3), (3, 1), (3, 2)])
    def test_reduction_changes_nothing_but_the_work(self, d, k):
        full = eps_bruteforce(d, k)
        red = eps_bruteforce(d, k, reduced=True)
        assert red.eps_squared == full.eps_squared
        assert red.pairs_scanned < full.pairs_scanned
        assert tuple((a.vertices, b.vertices) for a, b in red.witnesses) == \
            tuple((a.vertices, b.vertices) for a, b in full.witnesses)

    def test_restriction_to_segments_gives_the_same_minimum(self):
        for k in (1, 2):
            both = eps_bruteforce(3, k)
            segs = eps_bruteforce(3, k, classes=(SEGMENT_SEGMENT,))
            assert both.eps_squared == segs.eps_squared

    def test_workers_change_nothing(self):
        solo = eps_bruteforce(3, 2, workers=1)
        multi = eps_bruteforce(3, 2, workers=2)
        assert solo.eps_squared == multi.eps_squared
        assert tuple((a.vertices, b.vertices) for a, b in solo.witnesses) == \
            tuple((a.vertices, b.vertices) for a, b in multi.witnesses)


class TestTriangleCounting:
    @pytest.mark.parametrize("k, expected", [(1, 0), (2, 49), (3, 376)])
    def test_collinear_triples_frozen(self, k, expected):
        assert collinear_triple_count(k) == expected

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_collinear_triples_against_direct_scan(self, k):
        pts = _points(3, k)
        direct = sum(
            1 for a, b, c in combinations(pts, 3)
            if _cross(_sub(b, a), _sub(c, a)) == (0, 0, 0))
        assert collinear_triple_count(k) == direct

    @pytest.mark.parametrize("k", [1, 2])
    def test_triangle_table_matches_the_count(self, k):
        n = (k + 1) ** 3
        assert triangle_count(k) == comb(n, 3) - collinear_triple_count(k)
        assert len(_triangle_records(k)) == triangle_count(k)


class TestEncodingLowerBound:
    def test_hull_distance_never_exceeds_body_distance(self):
        # the encoded pair's affine hulls always sit at least as close as
        # the bodies themselves
        segs = _segment_records(3, 2)
        picks = segs[:: max(1, len(segs) // 18)]
        checked = 0
        for i, r1 in enumerate(picks):
            for r2 in picks[i + 1:]:
                s1 = LatticeSimplex((r1[0:3], r1[3:6]), 2)
                s2 = LatticeSimplex((r2[0:3], r2[3:6]), 2)
                enc = encode_pair(s1, s2)
                if gram_det(enc) == 0:
                    continue
                assert sq_dist_affine_hulls(enc) <= sq_distance(s1, s2)
                checked += 1
        assert checked > 100

    def test_point_triangle_hull_bound(self):
        tris = _triangle_records(1)
        pts = _points(3, 1)
        checked = 0
        for rec in tris:
            tri = LatticeSimplex((rec[0:3],
                                  tuple(a + e for a, e in zip(rec[0:3], rec[3:6])),
                                  tuple(a + e for a, e in zip(rec[0:3], rec[6:9]))), 1)
            for p in pts:
                point = LatticeSimplex((p,), 1)
                enc = encode_pair(point, tri)
                if gram_det(enc) == 0:
                    continue
                assert sq_dist_affine_hulls(enc) <= sq_distance(point, tri)
                checked += 1
        assert checked == len(tris) * len(pts) == 448


def _lemma_facts(first, second):
    """The two facts the reduced search rests on, for one disjoint pair
    (segments, or a point first and a triangle second) in [0, k]^3:
    below 1/(3k^2) the hulls are skew and the squared distance is
    offset_det^2 / gram_det; at or below the extremal squared gap,
    |offset_det| = 1.  Returns which of the two bounds the pair is under."""
    k = first.k
    dist = sq_distance(first, second)
    below_coplanar = 0 < dist < Fraction(1, 3 * k * k)
    below_extremal = k >= 2 and 0 < dist <= extremal_gap_squared(k)
    if below_coplanar:
        enc = encode_pair(first, second)
        assert offset_det(enc) != 0
        assert dist == Fraction(offset_det(enc) ** 2, gram_det(enc))
        if below_extremal:
            assert abs(offset_det(enc)) == 1
    return below_coplanar, below_extremal


def _triangle(rec, k):
    v0 = rec[0:3]
    return LatticeSimplex(
        (v0, tuple(a + e for a, e in zip(v0, rec[3:6])),
         tuple(a + e for a, e in zip(v0, rec[6:9]))), k)


@st.composite
def close_pairs(draw):
    """A pair at some k <= 8: random vertices, or a symmetry image of the
    extremal pair, which sits exactly at the extremal squared gap."""
    k = draw(st.integers(1, 8))
    point = st.tuples(*[st.integers(0, k)] * 3)
    if k >= 2 and draw(st.booleans()):
        sym = draw(st.sampled_from(cube_symmetries(3)))
        pair = [LatticeSimplex(tuple(apply_cube_symmetry(v, sym, k)
                                     for v in s.vertices), k)
                for s in extremal_pair(k)]
        return pair if draw(st.booleans()) else pair[::-1]
    sizes = draw(st.sampled_from(((2, 2), (1, 3))))
    try:
        return [LatticeSimplex(tuple(draw(point) for _ in range(n)), k)
                for n in sizes]
    except ValueError:  # repeated or collinear vertices
        assume(False)


def _pair_key(first, second):
    return frozenset((frozenset(first), frozenset(second)))


def _search_below_coplanar(k, cls):
    """Every pair of one class the search finds at squared distance
    <= U, for U just under 1/(3k^2), keyed by vertex sets."""
    bound = Fraction(1, 3 * k * k) - Fraction(1, 10 ** 9)
    found = {}
    for tt, g, *config in _configurations(_candidates(k, (cls,), bound)):
        for first, second in _translations(k, *config):
            found[_pair_key(first, second)] = Fraction(tt, g)
    return found


class TestSearchLemma:
    """At k = 2 every pair is checked against the lemma, and the pairs
    below 1/(3k^2) must be exactly the ones the search finds."""

    def test_every_segment_pair_at_two(self):
        k = 2
        segs = [LatticeSimplex((r[0:3], r[3:6]), k) for r in _segment_records(3, k)]
        counts = [0, 0]
        close = {}
        for s1, s2 in combinations(segs, 2):
            facts = _lemma_facts(s1, s2)
            if facts[0]:
                close[_pair_key(s1.vertices, s2.vertices)] = sq_distance(s1, s2)
            for i, hit in enumerate(facts):
                counts[i] += hit
        assert counts[0] > counts[1] > 0
        assert _search_below_coplanar(k, SEGMENT_SEGMENT) == close

    def test_every_point_triangle_pair_at_two(self):
        k = 2
        points = [LatticeSimplex((p,), k) for p in _points(3, k)]
        counts = [0, 0]
        close = {}
        for rec in _triangle_records(k):
            tri = _triangle(rec, k)
            for p in points:
                facts = _lemma_facts(p, tri)
                if facts[0]:
                    close[_pair_key(p.vertices, tri.vertices)] = sq_distance(p, tri)
                for i, hit in enumerate(facts):
                    counts[i] += hit
        assert counts[0] > 0 and counts[1] == 0  # 1/29 > 1/50
        assert _search_below_coplanar(k, POINT_TRIANGLE) == close

    @given(close_pairs())
    def test_sampled_pairs_up_to_eight(self, pair):
        _lemma_facts(*pair)


class TestExactSearch:
    def test_reduced_scan_at_four_matches_the_closed_form(self):
        res = eps_bruteforce(3, 4, classes=(SEGMENT_SEGMENT,),
                             budget=40_000_000, reduced=True)
        assert res.eps_squared == extremal_gap_squared(4) == Fraction(1, 1050)
        assert len(res.witnesses) == 1
        assert canonical_pair_key(*res.witnesses[0]) == \
            canonical_pair_key(*extremal_pair(4))

    def test_point_triangle_gap_at_four(self):
        cert = check_point_triangle_gap(4, budget=40_000_000, reduced=True)
        assert cert.passed
        assert cert.get("segment_min") == Fraction(1, 1050)

    @pytest.mark.parametrize("k, point_triangle_min", [
        (4, Fraction(1, 569)), (5, Fraction(1, 1466))])
    def test_point_triangle_gap_by_search(self, k, point_triangle_min):
        cert = check_point_triangle_gap(k, reduced=True)
        assert cert.passed
        assert cert.get("segment_min") == extremal_gap_squared(k)
        assert cert.get("point_triangle_min") == point_triangle_min

    @pytest.mark.parametrize("k", range(4, 13))
    def test_reach(self, k):
        assert_extremal_reach(k)

    def test_budget_counts_the_search_candidates(self):
        res = eps_bruteforce(3, 5, reduced=True)
        assert res.eps_squared == Fraction(1, 2870)
        with pytest.raises(BudgetExceededError) as exc:
            eps_bruteforce(3, 5, reduced=True, budget=res.pairs_scanned - 1)
        assert exc.value.required == res.pairs_scanned

    def test_point_triangle_alone_at_one_falls_back_to_the_scan(self):
        full = eps_bruteforce(3, 1, (POINT_TRIANGLE,))
        red = eps_bruteforce(3, 1, (POINT_TRIANGLE,), reduced=True)
        assert red.eps_squared == full.eps_squared == Fraction(1, 3)
        assert red.pairs_scanned >= full.pairs_scanned


def assert_extremal_reach(k):
    """The reduced search at k finds the closed form, with the extremal
    pair's orbit as its single canonical witness."""
    res = eps_bruteforce(3, k, reduced=True)
    assert res.eps_squared == extremal_gap_squared(k)
    assert len(res.witnesses) == 1
    assert canonical_pair_key(*res.witnesses[0]) == \
        canonical_pair_key(*extremal_pair(k))


class TestPointTriangleGap:
    def test_unit_cube(self):
        cert = check_point_triangle_gap(1)
        assert cert.passed
        assert cert.get("segment_min") == Fraction(1, 6)
        assert cert.get("point_triangle_min") == Fraction(1, 3)

    def test_size_two(self):
        cert = check_point_triangle_gap(2)
        assert cert.passed
        assert cert.get("point_triangle_min") == Fraction(1, 29)


@pytest.mark.slow
class TestLargeCubes:
    @pytest.mark.parametrize("classes", [
        None, (SEGMENT_SEGMENT,), (POINT_TRIANGLE,)],
        ids=["both", "segments", "point-triangle"])
    def test_search_matches_the_scan_at_four(self, classes):
        full = eps_bruteforce(3, 4, classes, budget=80_000_000, workers=2)
        red = eps_bruteforce(3, 4, classes, reduced=True)
        assert red.eps_squared == full.eps_squared
        assert vertex_tuples(red) == vertex_tuples(full)

    @pytest.mark.parametrize("k", range(13, 31))
    def test_reach(self, k):
        assert_extremal_reach(k)

    def test_exceptional_witness_at_three_is_golden(self):
        res = eps_bruteforce(3, 3, classes=(SEGMENT_SEGMENT,))
        assert res.eps_squared == Fraction(1, 299)
        assert len(res.witnesses) == 1
        w1, w2 = res.witnesses[0]
        assert (w1.vertices, w2.vertices) == GOLDEN_WITNESSES[(3, 3)]
        # the closed form is strictly coarser here
        assert extremal_gap_squared(3) == Fraction(1, 286) > Fraction(1, 299)