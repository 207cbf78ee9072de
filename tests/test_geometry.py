import collections
import contextlib
import functools
import io
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from gnk import geometry
from gnk.braids import generator, pb_to_gamma4, pb_to_gn3, pb_to_gn4
from gnk.gamma import Gamma4Group, dihedral_canonical
from gnk.geometry import (DegenerateConfiguration, DegenerateTrajectory,
                          PredicatePoly, Trajectory, canonical_generator_trajectory,
                          circle_points, compile_word, delaunay, detect_events,
                          incircle, orient2d, orient3d,
                          point_in_circumcircle, sign_at_root)
from gnk.gnk import GnkGroup
from gnk.words import format_word
from geometry_oracles import (bisection_sign_at_root, bracket_rational_root,
                              circle_wall,
                              discriminant_first_roots, general_bisect,
                              inside_circle, inside_count, integer_frame,
                              line_wall, overlapping_pairs, per_call_side_at_root,
                              per_segment_detect_events, plane_wall,
                              rowwise_separate_events, sweep_separate_events,
                              two_sided_quad)
from relator_oracles import quad_word

F = Fraction


def test_orient2d_signs():
    assert orient2d((0, 0), (1, 0), (0, 1)) > 0
    assert orient2d((0, 0), (0, 1), (1, 0)) < 0
    assert orient2d((0, 0), (1, 1), (2, 2)) == 0


def test_incircle_signs():
    # unit-ish circle through three ccw points; origin inside
    a, b, c = (1, 0), (0, 1), (-1, 0)
    assert point_in_circumcircle(a, b, c, (0, 0)) > 0
    assert point_in_circumcircle(a, b, c, (5, 5)) < 0
    assert point_in_circumcircle(a, b, c, (0, -1)) == 0


def _fractions(bracket):
    """An int-triple bracket (lo, hi, den) as the Fraction pair it stands
    for."""
    lo, hi, den = bracket
    assert all(type(x) is int for x in bracket) and den > 0
    return F(lo, den), F(hi, den)


def test_predicate_poly_roots():
    p = PredicatePoly(16, -16, 3)           # roots 1/4 and 3/4
    brs = [_fractions(br) for br in p.roots_in_unit_interval()]
    assert len(brs) == 2
    assert brs[0][0] < F(1, 4) < brs[0][1] <= brs[1][0] < F(3, 4) < brs[1][1]
    assert brs == OraclePoly(1, -1, F(3, 16)).roots_in_unit_interval()
    q = PredicatePoly(0, 2, -1)             # root 1/2
    (lo, hi), = [_fractions(br) for br in q.roots_in_unit_interval()]
    assert lo < F(1, 2) < hi
    assert [(lo, hi)] == OraclePoly(0, 1, F(-1, 2)).roots_in_unit_interval()
    assert PredicatePoly(1, 0, 1).roots_in_unit_interval() == []
    with pytest.raises(DegenerateTrajectory):
        PredicatePoly(0, 0, 0).roots_in_unit_interval()
    with pytest.raises(DegenerateTrajectory):
        PredicatePoly(4, -4, 1).roots_in_unit_interval()  # double root


def test_sign_at_root():
    p = PredicatePoly(0, 2, -1)             # root at 1/2
    br = p.roots_in_unit_interval()[0]
    oracle_p = OraclePoly(0, 1, F(-1, 2))
    oracle_br = oracle_p.roots_in_unit_interval()[0]
    assert _fractions(br) == oracle_br
    aux = PredicatePoly(0, 4, -3)           # negative at 1/2
    assert sign_at_root(p, br, aux) == -1
    assert oracle_sign_at_root(oracle_p, oracle_br,
                               OraclePoly(0, 1, F(-3, 4))) == -1
    aux2 = PredicatePoly(0, 2, -1)          # shares the root
    assert sign_at_root(p, br, aux2) == 0
    assert oracle_sign_at_root(oracle_p, oracle_br, OraclePoly(0, 2, -1)) == 0


def test_no_events_for_distant_parallel_mover():
    tr = Trajectory([(0, 0), (1, 0), (0, 1), (10, 10)],
                    [(4, (11, 10)), (4, (10, 10))])
    assert detect_events(tr, "collinear3") == []


def test_event_at_segment_endpoint_raises():
    # the message names the segment, the wall's points and the mover
    tr = Trajectory([(0, 0), (2, 0), (0, 2), (1, 0)], [(4, (1, 2))])
    with pytest.raises(DegenerateTrajectory, match=r"^event at a segment "
                       r"endpoint: segment 0, points \(1, 2, 4\), mover 4$"):
        detect_events(tr, "collinear3")
    tr = Trajectory([(1, 0), (0, 1), (-1, 0), (-3, -1), (5, 5)],
                    [(5, (5, 7)), (4, (3, -1))])
    with pytest.raises(DegenerateTrajectory, match=r"^tangential \(double-"
                       r"root\) event: segment 1, points \(1, 2, 3, 4\), "
                       r"mover 4$"):
        detect_events(tr, "concyclic4")


def test_too_few_points_name_the_field():
    # each target accepts the n its group accepts, and below that names
    # the field before any group is built
    for target, dim, least in (("gn3", 2, 3), ("gn4", 2, 4), ("gamma4", 2, 4),
                               ("gamma4_space", 3, 4)):
        for n in (0, least - 1):
            tr = Trajectory([(k, k * k, k ** 3)[:dim] for k in range(n)], [],
                            dim)
            with pytest.raises(ValueError, match='^trajectory: "points" has '
                               '%d points; target %s needs at least %d$'
                               % (n, target, least)):
                compile_word(tr, target)
        tr = Trajectory([(k, k * k, k ** 3)[:dim] for k in range(least)], [],
                        dim)
        assert compile_word(tr, target)[1] == []
    with pytest.raises(ValueError, match=r"^graded target needs n > 5$"):
        compile_word(Trajectory([], []), "gamma4_graded")


def test_kind_and_dimension_must_agree():
    # a circle form would read a point's z as x^2 + y^2: a kind of the other
    # dimension raises before any wall is built
    plane = Trajectory([(0, 0), (3, 0), (0, 2), (5, 7)], [(1, (2, 9))])
    space = _lifted(plane)
    for tr, kind in ((space, "collinear3"), (space, "concyclic4"),
                     (space, "delaunay_flip"), (plane, "coplanar_special")):
        want, got = (3, 2) if tr is plane else (2, 3)
        with pytest.raises(ValueError, match="^kind %s needs dim %d, the "
                           "trajectory has dim %d$" % (kind, want, got)):
            detect_events(tr, kind)


def test_delaunay_triangle_and_square():
    assert delaunay([(0, 0), (1, 0), (0, 1)]) == {(1, 2, 3)}
    pts = [(0, 0), (4, 0), (F(41, 10), F(43, 10)), (0, 4), (F(21, 10), F(19, 10))]
    assert len(delaunay(pts)) == 4


def test_delaunay_rejects_cocircular():
    with pytest.raises(DegenerateConfiguration):
        delaunay([(0, 0), (2, 0), (2, 2), (0, 2)])


def _delaunay_oracle(points):
    """Independent check: triangle is Delaunay iff its circumcircle is empty,
    decided via explicit circumcenter and squared-radius comparisons."""
    pts = [tuple(F(x) for x in p) for p in points]
    n = len(pts)
    tris = set()
    for a, b, c in itertools.combinations(range(n), 3):
        (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
        d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        if d == 0:
            continue
        ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
              + (cx * cx + cy * cy) * (ay - by)) / d
        uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
              + (cx * cx + cy * cy) * (bx - ax)) / d
        r2 = (ax - ux) ** 2 + (ay - uy) ** 2
        if all((pts[t][0] - ux) ** 2 + (pts[t][1] - uy) ** 2 >= r2
               for t in range(n) if t not in (a, b, c)):
            tris.add((a + 1, b + 1, c + 1))
    return tris


def test_delaunay_matches_brute_force_oracle():
    rng = random.Random(21)
    for _ in range(8):
        while True:
            pts = [(F(rng.randint(0, 60)), F(rng.randint(0, 60)))
                   for _ in range(10)]
            if len(set(pts)) == 10:
                try:
                    mine = delaunay(pts)
                    break
                except DegenerateConfiguration:
                    continue
        assert mine == _delaunay_oracle(pts)


def test_inside_count_parabola_nesting():
    # circle through parabola points j < p < q contains exactly the points
    # below j and strictly between p and q
    n = 6
    pts = [(F(k), F(k * k)) for k in range(1, n + 1)]
    for j, p, q in itertools.combinations(range(1, n + 1), 3):
        cnt = sum(inside_circle(pts, (j - 1, p - 1, q - 1)))
        assert cnt == (j - 1) + (q - p - 1)


def test_inside_count_vs_per_point_oracle():
    rng = random.Random(22)
    for _ in range(20):
        pts = [(F(rng.randint(0, 40)), F(rng.randint(0, 40))) for _ in range(7)]
        if len(set(pts)) < 7:
            continue
        trip = tuple(rng.sample(range(7), 3))
        if orient2d(pts[trip[0]], pts[trip[1]], pts[trip[2]]) == 0:
            continue
        assert sum(inside_circle(pts, trip)) == inside_count(
            pts, trip)
        for mover in set(range(7)) - set(trip):
            _check_inside_without_mover(pts, trip, mover)
    # only point 0 lies inside the circle through points 1, 2, 3
    pts = [(0, 0), (10, 0), (0, 10), (-10, 0), (50, 50), (60, -40), (-7, -70)]
    assert _check_inside_without_mover(pts, (1, 2, 3), 4) == [0]
    assert _check_inside_without_mover(pts, (1, 2, 3), 0) == []


def test_inside_circle_on_circle_and_collinear_triples():
    # a point on the circle is not inside, for either orientation
    square = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]
    for trip in ((0, 1, 2), (0, 2, 1)):
        assert list(inside_circle(square, trip)) == [False, True]
        assert point_in_circumcircle(*(square[q] for q in trip),
                                     square[3]) == 0
    # a collinear triple raises, but only once a point is tested
    pts = [(0, 0), (1, 1), (2, 2), (5, 0)]
    assert list(inside_circle(pts[:3], (0, 1, 2))) == []
    with pytest.raises(DegenerateTrajectory, match="collinear circle points"):
        sum(inside_circle(pts, (0, 1, 2)))
    with pytest.raises(DegenerateTrajectory, match="collinear circle points"):
        point_in_circumcircle(*pts)


def _check_inside_without_mover(pts, trip, mover):
    """The points other than the triple and the mover inside the circle of
    the triple, checked against the count and the emptiness test the graded
    compile and the Delaunay flips read."""
    inside = [t for t in range(len(pts)) if t not in trip and t != mover
              and point_in_circumcircle(*(pts[q] for q in trip), pts[t]) > 0]
    assert sum(inside_circle(pts, trip, mover)) == len(inside)
    assert any(inside_circle(pts, trip, mover)) == bool(inside)
    return inside


def test_event_set_matches_dense_sampling_oracle():
    rng = random.Random(23)
    pts = [(F(0), F(0)), (F(7), F(1)), (F(3), F(8)), (F(9), F(6)), (F(5), F(4))]
    tr = Trajectory(pts, [(5, (F(1), F(7))), (5, (F(5), F(4)))])
    events = detect_events(tr, "concyclic4")
    conf = list(tr.initial)
    samples = 10 ** 4
    oracle = []
    for seg, (p, to) in enumerate(tr.moves):
        mover = p - 1
        a, b = conf[mover], to
        for s1, s2, s3 in itertools.combinations(
                [q for q in range(5) if q != mover], 3):
            def val(t):
                pos = tuple(a[i] + t * (b[i] - a[i]) for i in range(2))
                return incircle(conf[s1], conf[s2], conf[s3], pos)
            prev = val(F(0))
            for step in range(1, samples + 1):
                t = F(step, samples)
                cur = val(t)
                if prev != 0 and cur != 0 and (prev > 0) != (cur > 0):
                    oracle.append((seg, tuple(sorted((s1 + 1, s2 + 1, s3 + 1, p)))))
                prev = cur
        conf[mover] = to
    got = [(e.segment, e.participants) for e in events]
    assert sorted(got) == sorted(oracle)


def test_compile_gn3_matches_algebra_letterwise():
    for n in range(3, 13):
        for i, j in itertools.combinations(range(1, n + 1), 2):
            tr = canonical_generator_trajectory(n, i, j, "circle_gn3")
            w, _ = compile_word(tr, "gn3")
            assert w.letters == pb_to_gn3(generator(n, i, j)).letters, (n, i, j)


def test_compile_gn4_parabola_matches_algebra():
    for i, j in itertools.combinations(range(1, 5), 2):
        tr = canonical_generator_trajectory(4, i, j, "parabola_gn4")
        w, _ = compile_word(tr, "gn4")
        assert w.letters == pb_to_gn4(generator(4, i, j)).letters, (i, j)


def test_compile_gamma4_b13_n5():
    tr = canonical_generator_trajectory(5, 1, 3, "circle_gamma4")
    w, _ = compile_word(tr, "gamma4")
    assert format_word(w) == "d_1254 d_1243 d_1324 d_1254"
    assert w.letters == pb_to_gamma4(generator(5, 1, 3)).letters


def test_compile_gamma4_even_letter_counts():
    tr = canonical_generator_trajectory(4, 1, 2, "circle_gn3")
    w, _ = compile_word(tr, "gn3")
    assert all(c % 2 == 0 for c in w.symbol_counts().values())


def test_closed_trajectory_no_events_empty_word():
    tr = Trajectory([(0, 0), (10, 0), (0, 10), (1, 1)],
                    [(4, (F(11, 10), F(11, 10))), (4, (1, 1))])
    w, evs = compile_word(tr, "gn3")
    assert len(w) == 0


def test_reversal_produces_reversed_word():
    tr = canonical_generator_trajectory(4, 1, 3, "circle_gn3")
    w, _ = compile_word(tr, "gn3")
    wr, _ = compile_word(tr.reversed(), "gn3")
    assert wr.letters == w.inverse().letters


def test_flip_consistency_along_events():
    # across each isolated flip event the Delaunay triangulation changes by
    # exactly one diagonal exchange on the participant quadrilateral
    tr = canonical_generator_trajectory(5, 1, 3, "circle_gamma4")
    events = detect_events(tr, "delaunay_flip")
    confs = tr.configurations()
    for e in events:
        conf = list(confs[e.segment])
        mover = tr.moves[e.segment][0] - 1
        a = conf[mover]
        b = tr.moves[e.segment][1]
        lo, hi = e.bracket
        def conf_at(t):
            c = list(conf)
            c[mover] = tuple(a[i] + t * (b[i] - a[i]) for i in range(2))
            return c
        before = delaunay(conf_at(lo))
        after = delaunay(conf_at(hi))
        diff = before ^ after
        assert len(diff) == 4
        quad = set(e.participants)
        assert all(set(t) <= quad for t in diff)


def test_perturbation_invariance_small_jitter():
    rng = random.Random(24)
    base = canonical_generator_trajectory(4, 1, 3, "circle_gn3")
    w0, _ = compile_word(base, "gn3")
    for _ in range(3):
        jit = F(rng.randint(-1, 1), 10 ** 6)
        pts = [(x + jit, y - jit) for x, y in base.initial]
        moves = [(p, (to[0] + jit, to[1] - jit)) for p, to in base.moves]
        tr = Trajectory(pts, moves)
        w, _ = compile_word(tr, "gn3")
        assert w.letters == w0.letters


def test_trajectory_json_round_trip():
    tr = canonical_generator_trajectory(4, 1, 2, "circle_gn3")
    tr2 = Trajectory.from_json(tr.to_json())
    assert tr2.initial == tr.initial
    assert tr2.moves == tr.moves
    assert tr.configurations()[-1] == tr.initial


_PAIRS = "coordinates must be [num, den] pairs of ints"
MALFORMED_POINTS = [
    (5, "point 5: " + _PAIRS),
    ({"x": 1}, "point {'x': 1}: " + _PAIRS),
    ([[1, 2, 3], [0, 1]], "point [[1, 2, 3], [0, 1]]: " + _PAIRS),
    ([[1, 2], [5]], "point [[1, 2], [5]]: " + _PAIRS),
    ([[1, 2], 7], "point [[1, 2], 7]: " + _PAIRS),
    ([[0.5, 1], [0, 1]], "point [[0.5, 1], [0, 1]]: " + _PAIRS),
    ([[1, 2], [3, True]], "point [[1, 2], [3, True]]: " + _PAIRS),
    ([["1", 2], [3, 4]], "point [['1', 2], [3, 4]]: " + _PAIRS),
    ([[1, 0], [2, 1]], "zero denominator in point [[1, 0], [2, 1]]"),
    ([[1, 3], [2, 0]], "zero denominator in point [[1, 3], [2, 0]]"),
    # a mistyped pair anywhere is reported before a zero denominator
    ([[1.5, 1], [1, 0]], "point [[1.5, 1], [1, 0]]: " + _PAIRS),
    ([[1, 0], [1.5, 1]], "point [[1, 0], [1.5, 1]]: " + _PAIRS),
    ([[1, 0], [2, 1, 1]], "point [[1, 0], [2, 1, 1]]: " + _PAIRS),
]


@pytest.mark.parametrize("point,message", MALFORMED_POINTS)
def test_from_json_point_messages(point, message):
    # every malformed point raises its message, as an initial point and as
    # a move's target
    good = [[0, 1], [0, 1]]
    for points, to in (([point, good, good], good), ([good] * 3, point)):
        text = json.dumps({"n": 3, "points": points,
                           "moves": [{"p": 1, "to": to}]})
        with pytest.raises(ValueError) as exc:
            Trajectory.from_json(text)
        assert str(exc.value) == message
    tr = Trajectory.from_json(json.dumps(
        {"points": [[[1, 3], [-4, 6]], good], "moves": []}))
    assert tr.initial == [(F(1, 3), F(-2, 3)), (0, 0)]
    assert all(type(x) is Fraction for pt in tr.initial for x in pt)


def test_unknown_kind_and_target_raise():
    tr = Trajectory([(0, 0), (4, 0), (0, 4), (1, 1)], [(4, (3, 3))])
    with pytest.raises(ValueError, match="unknown event kind"):
        detect_events(tr, "collinear4")
    with pytest.raises(ValueError, match="unknown compile target"):
        compile_word(tr, "gn5")


def test_graded_compile_needs_n_above_5():
    tr = canonical_generator_trajectory(5, 1, 2, "circle_gamma4")
    with pytest.raises(ValueError, match=r"^graded target needs n > 5$"):
        compile_word(tr, "gamma4_graded")
    # the dimension is checked first
    tr3 = Trajectory([p + (0,) for p in tr.initial], [], dim=3)
    with pytest.raises(ValueError, match="needs dim 2"):
        compile_word(tr3, "gamma4_graded")


def _statics_inside(tr, e):
    """The static points strictly inside the circle of event e at the start
    of its segment, counted point by point."""
    conf = tr.configurations()[e.segment]
    mover = tr.moves[e.segment][0] - 1
    trip = tuple(q - 1 for q in e.participants if q - 1 != mover)
    z = inside_count(conf, trip)
    return z - (point_in_circumcircle(*(conf[q] for q in trip),
                                      conf[mover]) > 0)


def test_graded_compile_components_match_inside_counts():
    # every emitted letter of the graded compile sits in the component given
    # by the event circle's inside count, folded mod r
    n = 6
    tr = canonical_generator_trajectory(n, 1, 2, "circle_gamma4")
    comps, events = compile_word(tr, "gamma4_graded")
    r = n - 4
    per_alpha = [0] * (r // 2 + 1)
    for e in events:
        z = _statics_inside(tr, e)
        alpha = min(z % r, (-z) % r)
        per_alpha[alpha] += 1
    raw_counts = [len(c) for c in comps]
    # reduced words cannot have more letters than raw event counts per slot
    assert all(rc <= pa for rc, pa in zip(raw_counts, per_alpha))
    assert sum(per_alpha) == len(events)
    # the count each circle event carries, taken once per mover run, is the
    # count at its segment start, for both circle kinds; a Delaunay flip's
    # circle is empty
    rng = random.Random("inside counts")
    seen = collections.Counter()
    for tr in [tr] + [_mover_run_trajectory(rng, 6 + k % 2, [1, 1, 2, 1, 3, 3])
                      for k in range(8)]:
        for target in ("gamma4_graded", "gamma4"):
            for e in compile_word(tr, target)[1]:
                assert e.inside == _statics_inside(tr, e)
                assert e.inside == 0 or target == "gamma4_graded"
                seen[target, e.inside > 0] += 1
    assert seen["gamma4_graded", True] > 0 and seen["gamma4", False] > 0


def test_orient3d_and_coplanar_events():
    assert orient3d((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)) > 0
    # the mover crosses z = 0 at (1, 1, 0), inside the triangle of points
    # 1, 2, 3: a point crossing a face of the hull, no flip and no event
    pts = [(0, 0, 0), (3, 0, 0), (0, 3, 0), (1, 1, 5), (1, 1, -2)]
    tr = Trajectory(pts, [(5, (1, 1, 2)), (5, (1, 1, -2))], dim=3)
    assert detect_events(tr, "coplanar_special") == []
    # at (2, 2, 0) it is across the edge 23 from point 1: the four points
    # are in convex position, in the cyclic order 1, 2, 5, 3, on the way
    # there and back
    pts[4] = (2, 2, -2)
    tr = Trajectory(pts, [(5, (2, 2, 2)), (5, (2, 2, -2))], dim=3)
    events = detect_events(tr, "coplanar_special")
    assert [(e.segment, e.participants, e.quad) for e in events] == [
        (0, (1, 2, 3, 5), (1, 2, 5, 3)), (1, (1, 2, 3, 5), (1, 2, 5, 3))]
    for e in events:
        assert e.kind == "coplanar_special"
        assert e.side == 1
        assert e.bracket[0] < F(1, 2) < e.bracket[1]


def test_circle_points_generic():
    pts = circle_points(6)
    for a, b, c in itertools.combinations(pts, 3):
        assert orient2d(a, b, c) != 0
    for a, b, c, d in itertools.combinations(pts, 4):
        assert incircle(a, b, c, d) != 0


def test_trisecant_figure_word():
    # one mover cutting across the line fan at a stationary point: first the
    # line through points 2 and 4, then through 2 and 3, nothing else;
    # the compiled word is a_124 a_123
    pts = [(1, F(-3, 5)), (0, 0), (2, 1), (2, -1)]
    tr = Trajectory(pts, [(1, (1, F(3, 5)))])
    w, events = compile_word(tr, "gn3")
    assert format_word(w) == "a_124 a_123"
    assert [e.participants for e in events] == [(1, 2, 4), (1, 2, 3)]


def test_gamma4_space_compile_and_reversal():
    pts = [(0, 0, 0), (3, 0, 0), (0, 3, 0), (1, 1, 5), (2, 2, -2)]
    for moves, word in (([(5, (2, 2, 2))], "d_1253"),
                        ([(5, (2, 2, 2)), (5, (2, 2, -2))], "1"),
                        ([(5, (2, 2, 2)), (4, (2, 1, -5))],
                         "d_1253 d_1354 d_2435")):
        tr = Trajectory(pts, moves, dim=3)
        w, evs = compile_word(tr, "gamma4_space")
        assert format_word(w) == word
        assert _outcome(compile_word, tr, "gamma4_space") == \
            _outcome(oracle_compile, tr, "gamma4_space")
        wr, revs = compile_word(tr.reversed(), "gamma4_space")
        assert wr.letters == w.inverse().letters
        assert [e.participants for e in revs] == \
            [e.participants for e in evs][::-1]
        for e in evs:
            assert len(e.participants) == 4


# ---------------------------------------------------------------------------
# Fraction oracle: the detector as it was before predicates moved to the
# integer frame.  Coefficients, samples and roots are all Fractions; the
# compiler must reproduce its words, event logs and error messages exactly.


class OraclePoly:
    """p(t) = c2 t^2 + c1 t + c0 over exact rationals."""

    def __init__(self, c2, c1, c0):
        self.c2, self.c1, self.c0 = F(c2), F(c1), F(c0)

    @classmethod
    def interpolate(cls, f):
        f0, fh, f1 = f(F(0)), f(F(1, 2)), f(F(1))
        poly = cls(2 * f0 - 4 * fh + 2 * f1, -3 * f0 + 4 * fh - f1, f0)
        if poly(F(1, 3)) != f(F(1, 3)):
            raise DegenerateTrajectory("predicate degree exceeds 2")
        return poly

    def __call__(self, t):
        return (self.c2 * t + self.c1) * t + self.c0

    def sign(self, t):
        v = self(t)
        return (v > 0) - (v < 0)

    def is_zero(self):
        return self.c2 == 0 and self.c1 == 0 and self.c0 == 0

    def roots_in_unit_interval(self):
        if self.is_zero():
            raise DegenerateTrajectory("predicate vanishes identically")
        zero, one = F(0), F(1)
        if self(zero) == 0 or self(one) == 0:
            raise DegenerateTrajectory("event at a segment endpoint")
        if self.c2 == 0:
            if self.c1 == 0:
                return []
            r = -self.c0 / self.c1
            if not (zero < r < one):
                return []
            return [self._bracket_rational_root(r, zero, one)]
        disc = self.c1 * self.c1 - 4 * self.c2 * self.c0
        if disc < 0:
            return []
        vertex = -self.c1 / (2 * self.c2)
        if disc == 0:
            if zero < vertex < one:
                raise DegenerateTrajectory("tangential (double-root) event")
            return []
        out = []
        for lo, hi in ((zero, min(max(vertex, zero), one)),
                       (min(max(vertex, zero), one), one)):
            if lo >= hi:
                continue
            slo, shi = self.sign(lo), self.sign(hi)
            if slo == 0 or shi == 0:
                root = lo if slo == 0 else hi
                if root in (zero, one):
                    raise DegenerateTrajectory("event at a segment endpoint")
                out.append(self._bracket_rational_root(root, zero, one))
            elif slo != shi:
                out.append((lo, hi))
        return out

    def _bracket_rational_root(self, r, lo_lim, hi_lim):
        delta = F(1, 4) * min(r - lo_lim, hi_lim - r)
        while True:
            lo, hi = r - delta, r + delta
            if self.sign(lo) != 0 and self.sign(hi) != 0 \
                    and self.sign(lo) != self.sign(hi):
                return (lo, hi)
            delta /= 2

    def bisect(self, lo, hi):
        mid = (lo + hi) / 2
        smid = self.sign(mid)
        if smid == 0:
            return self._bracket_rational_root(mid, lo, hi)
        if smid == self.sign(lo):
            return (mid, hi)
        return (lo, mid)

    def shares_root(self, other, lo, hi):
        a, b = self, other
        if a.c2 == 0 and a.c1 == 0:
            return False
        if a.c2 == 0:
            r = -a.c0 / a.c1
            return lo < r < hi and b(r) == 0
        if b.c2 == 0 and b.c1 == 0:
            return False
        if b.c2 == 0:
            r = -b.c0 / b.c1
            return lo < r < hi and a(r) == 0
        l1 = a.c2 * b.c1 - b.c2 * a.c1
        l0 = a.c2 * b.c0 - b.c2 * a.c0
        if l1 == 0 and l0 == 0:
            return True
        if l1 == 0:
            return False
        r = -l0 / l1
        return lo < r < hi and self(r) == 0 and other(r) == 0


def oracle_sign_at_root(main, bracket, aux):
    lo, hi = bracket
    if aux.is_zero() or main.shares_root(aux, lo, hi):
        return 0
    while True:
        slo, shi = aux.sign(lo), aux.sign(hi)
        if slo != 0 and slo == shi \
                and not _oracle_aux_root_inside(aux, lo, hi):
            return slo
        lo, hi = main.bisect(lo, hi)


def _oracle_aux_root_inside(aux, lo, hi):
    if aux.c2 == 0:
        return aux.c1 != 0 and lo < -aux.c0 / aux.c1 < hi
    if aux.c1 * aux.c1 - 4 * aux.c2 * aux.c0 < 0:
        return False
    if aux.sign(lo) != aux.sign(hi):
        return True
    vertex = -aux.c1 / (2 * aux.c2)
    if not (lo < vertex < hi):
        return False
    return aux.sign(vertex) != aux.sign(lo) or aux(vertex) == 0


def _oracle_roots(poly, seg, labels, p):
    """The poly's brackets; a degenerate root raises naming the segment,
    the points and the mover, as the detector does."""
    try:
        return poly.roots_in_unit_interval()
    except DegenerateTrajectory as exc:
        raise DegenerateTrajectory("%s: segment %d, points %r, mover %d"
                                   % (exc, seg, labels, p)) from None


class OracleEvent:
    def __init__(self, segment, bracket, kind, participants, poly, side=None):
        self.segment, self.bracket, self.kind = segment, bracket, kind
        self.participants, self.poly = participants, poly
        self.quad, self.side = None, side


def _oracle_separate(events):
    # the detector's sort rule: a pair is refined only when compared
    detected = list(events)

    def order(e1, e2):
        guard = 0
        while not (e1.bracket[1] <= e2.bracket[0]
                   or e2.bracket[1] <= e1.bracket[0]):
            overlap = (max(e1.bracket[0], e2.bracket[0]),
                       min(e1.bracket[1], e2.bracket[1]))
            if guard == 0 and e1.poly.shares_root(e2.poly, *overlap):
                first, second = sorted((e1, e2), key=detected.index)
                raise DegenerateTrajectory(
                    "simultaneous events %r and %r in segment %d"
                    % (first.participants, second.participants,
                       first.segment))
            e1.bracket = e1.poly.bisect(*e1.bracket)
            e2.bracket = e2.poly.bisect(*e2.bracket)
            guard += 1
            if guard > 4000:
                raise DegenerateTrajectory("cannot separate event brackets")
        return -1 if e1.bracket[1] <= e2.bracket[0] else 1

    events.sort(key=functools.cmp_to_key(order))
    return events


def _oracle_static_genericity(conf, mover, circles=False):
    statics = [q for q in range(len(conf)) if q != mover]
    for a, b, c in itertools.combinations(statics, 3):
        if orient2d(conf[a], conf[b], conf[c]) == 0:
            raise DegenerateTrajectory("three static points collinear")
    if circles:
        for a, b, c, d in itertools.combinations(statics, 4):
            if incircle(conf[a], conf[b], conf[c], conf[d]) == 0:
                raise DegenerateTrajectory("four static points concyclic")


def _oracle_convex_quad(pts, side_sign):
    # a diagonal separates the other two points, and they separate it
    for x, y in itertools.combinations(pts, 2):
        z, w = [q for q in pts if q not in (x, y)]
        if side_sign(x, y, z) * side_sign(x, y, w) < 0 \
                and side_sign(z, w, x) * side_sign(z, w, y) < 0:
            return dihedral_canonical((x + 1, z + 1, y + 1, w + 1))
    return None


def oracle_detect_events(tr, kind):
    out = []
    conf = list(tr.initial)
    for seg, (p, to) in enumerate(tr.moves):
        mover = p - 1
        a, b = conf[mover], to

        def pos(t):
            return tuple(a[i] + t * (b[i] - a[i]) for i in range(len(a)))

        def at(q, t):
            return pos(t) if q == mover else conf[q]

        events = []
        statics = [q for q in range(tr.n) if q != mover]
        if kind == "collinear3":
            _oracle_static_genericity(conf, mover)
            for s1, s2 in itertools.combinations(statics, 2):
                poly = OraclePoly.interpolate(
                    lambda t: orient2d(conf[s1], conf[s2], pos(t)))
                labels = tuple(sorted((s1 + 1, s2 + 1, p)))
                for br in _oracle_roots(poly, seg, labels, p):
                    events.append(OracleEvent(seg, br, kind, labels, poly))
        elif kind in ("concyclic4", "delaunay_flip"):
            _oracle_static_genericity(conf, mover, circles=True)
            for trip in itertools.combinations(statics, 3):
                s1, s2, s3 = trip
                poly = OraclePoly.interpolate(
                    lambda t: incircle(conf[s1], conf[s2], conf[s3], pos(t)))
                labels = tuple(sorted((s1 + 1, s2 + 1, s3 + 1, p)))
                for br in _oracle_roots(poly, seg, labels, p):
                    if kind == "delaunay_flip" and any(
                            point_in_circumcircle(conf[s1], conf[s2], conf[s3],
                                                  conf[x]) > 0
                            for x in statics if x not in trip):
                        continue
                    ev = OracleEvent(seg, br, kind, labels, poly)

                    def side_sign(x, y, z, ev=ev):
                        if mover not in (x, y, z):
                            v = orient2d(conf[x], conf[y], conf[z])
                            return (v > 0) - (v < 0)
                        aux = OraclePoly.interpolate(
                            lambda t: orient2d(at(x, t), at(y, t), at(z, t)))
                        return oracle_sign_at_root(ev.poly, ev.bracket, aux)

                    ev.quad = _oracle_convex_quad(list(trip) + [mover],
                                                  side_sign)
                    if ev.quad is None:
                        raise DegenerateTrajectory(
                            "event points not in convex position")
                    events.append(ev)
            for s1, s2 in itertools.combinations(statics, 2):
                poly = OraclePoly.interpolate(
                    lambda t: orient2d(conf[s1], conf[s2], pos(t)))
                labels = tuple(sorted((s1 + 1, s2 + 1, p)))
                for br in _oracle_roots(poly, seg, labels, p):
                    events.append(OracleEvent(seg, br, "_separator",
                                              (s1 + 1, s2 + 1, p), poly))
        else:                                   # coplanar_special
            for trip in itertools.combinations(statics, 3):
                s1, s2, s3 = trip
                poly = OraclePoly.interpolate(
                    lambda t: orient3d(conf[s1], conf[s2], conf[s3], pos(t)))
                labels = tuple(sorted((s1 + 1, s2 + 1, s3 + 1, p)))
                for br in _oracle_roots(poly, seg, labels, p):
                    sides = []
                    for x in statics:
                        if x in trip:
                            continue
                        v = orient3d(conf[s1], conf[s2], conf[s3], conf[x])
                        if v == 0:
                            raise DegenerateTrajectory(
                                "static point on event plane")
                        sides.append((v > 0) - (v < 0))
                    if sides and len(set(sides)) != 1:
                        continue
                    ev = OracleEvent(seg, br, kind, labels, poly,
                                     side=sides[0] if sides else 1)
                    normal = _oracle_cross(_oracle_sub(conf[s2], conf[s1]),
                                           _oracle_sub(conf[s3], conf[s1]))

                    def inplane_sign(x, y, z, ev=ev, normal=normal):
                        aux = OraclePoly.interpolate(lambda t: _oracle_det3(
                            _oracle_sub(at(y, t), at(x, t)),
                            _oracle_sub(at(z, t), at(x, t)), normal))
                        return oracle_sign_at_root(ev.poly, ev.bracket, aux)

                    ev.quad = _oracle_convex_quad(list(trip) + [mover],
                                                  inplane_sign)
                    if ev.quad is None:     # a point crossing a hull face
                        ev.kind = "_separator"
                    events.append(ev)
        out.extend(e for e in _oracle_separate(events)
                   if e.kind != "_separator")
        conf[mover] = to
    return out


def _oracle_sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def _oracle_cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _oracle_det3(u, v, w):
    return (u[0] * (v[1] * w[2] - v[2] * w[1])
            - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def oracle_compile(tr, target):
    """(word or graded tuple, events) as compile_word gave them on
    Fractions."""
    n = tr.n
    if target in ("gn3", "gn4"):
        events = oracle_detect_events(
            tr, "collinear3" if target == "gn3" else "concyclic4")
        group = GnkGroup(n, 3 if target == "gn3" else 4)
        word = group.word_from_subsets([e.participants for e in events])
        return word, events
    if target in ("gamma4", "gamma4_space"):
        events = oracle_detect_events(
            tr, "delaunay_flip" if target == "gamma4" else "coplanar_special")
        return quad_word(Gamma4Group(n), [e.quad for e in events]), events
    r = n - 4
    comps = [[] for _ in range(r // 2 + 1)]
    events = oracle_detect_events(tr, "concyclic4")
    confs = tr.configurations()
    for e in events:
        conf = confs[e.segment]
        mover = tr.moves[e.segment][0] - 1
        trip = tuple(q - 1 for q in e.participants if q - 1 != mover)
        z = inside_count(conf, trip)
        if point_in_circumcircle(*(conf[q] for q in trip), conf[mover]) > 0:
            z -= 1
        comps[min(z % r, (-z) % r)].append(e.quad)
    return (tuple(quad_word(Gamma4Group(n), c) for c in comps), events)


def _event_log(events):
    return [(e.segment, e.kind, e.participants, e.quad, e.side, e.bracket)
            for e in events]


def _outcome(compile_fn, tr, target):
    try:
        word, events = compile_fn(tr, target)
    except DegenerateTrajectory as exc:
        return ("degenerate", str(exc))
    if isinstance(word, tuple):
        return tuple(w.letters for w in word), _event_log(events)
    return word.letters, _event_log(events)


def _random_rational(rng, box):
    den = rng.randint(1, 1000)
    return F(rng.randint(-box * den, box * den), den)


def _random_trajectory(rng, n, dim, segments):
    pts = [tuple(_random_rational(rng, 10) for _ in range(dim))
           for _ in range(n)]
    moves = [(rng.randint(1, n), tuple(_random_rational(rng, 10)
                                       for _ in range(dim)))
             for _ in range(segments)]
    return Trajectory(pts, moves, dim)


ORACLE_CASES = [("gn3", 2, (4, 5, 6, 7)), ("gn4", 2, (4, 5, 6)),
                ("gamma4", 2, (4, 5, 6)), ("gamma4_graded", 2, (6, 7)),
                ("gamma4_space", 3, (4, 5, 6))]


@pytest.mark.parametrize("target,dim,ns", ORACLE_CASES,
                         ids=[c[0] for c in ORACLE_CASES])
def test_integer_frame_matches_fraction_oracle(target, dim, ns):
    rng = random.Random("oracle:" + target)
    events = 0
    for trial in range(8):
        n = ns[trial % len(ns)]
        tr = _random_trajectory(rng, n, dim, rng.randint(2, 3))
        want = _outcome(oracle_compile, tr, target)
        assert _outcome(compile_word, tr, target) == want, (target, trial)
        if want[0] != "degenerate":
            events += len(want[1])
    assert events > 0


DEGENERATE_CASES = [
    # three static points collinear
    ([(0, 0), (1, 1), (2, 2), (5, 0)], [(4, (5, 3))], "gn3"),
    ([(0, 0), (1, 1), (2, 2), (5, 0), (0, 5)], [(4, (5, 3))], "gamma4"),
    # the mover starts on the line through points 1 and 2
    ([(0, 0), (2, 0), (0, 2), (1, 0)], [(4, (1, 2))], "gn3"),
    # ... or ends on the circle through points 1, 2, 3
    ([(1, 0), (0, 1), (-1, 0), (0, 0)], [(4, (0, -1))], "gn4"),
    # tangent to the unit circle at (0, -1)
    ([(1, 0), (0, 1), (-1, 0), (-2, -1)], [(4, (2, -1))], "gn4"),
    ([(1, 0), (0, 1), (-1, 0), (-2, -1), (F(1, 3), 5)], [(4, (2, -1))],
     "gamma4"),
    # lines 13 and 24 cross at (1, 1), which the mover passes at t = 1/2
    ([(0, 0), (0, 2), (2, 2), (2, 0), (1, -1)], [(5, (1, 3))], "gn3"),
    # circles 123 and 145 cross at (0, -1), which the mover passes at t = 1/2
    ([(1, 0), (0, 1), (-1, 0), (4, -1), (3, -4), (F(1, 7), F(-3, 2))],
     [(6, (F(-1, 7), F(-1, 2)))], "gn4"),
    # four static points concyclic
    ([(1, 0), (0, 1), (-1, 0), (0, -1), (3, 3)], [(5, (3, -3))], "gn4"),
    # a static point on the plane of an event
    ([(0, 0, 0), (3, 0, 0), (0, 3, 0), (1, 1, 0), (1, 1, 5)],
     [(5, (1, 1, -2))], "gamma4_space"),
    # the first mover ends where it makes the second mover's statics
    # collinear, or concyclic: the first segment reports an endpoint event
    ([(0, 0), (2, 0), (0, 2), (3, 3)], [(4, (1, 0)), (3, (2, 2))], "gn3"),
    ([(1, 0), (0, 1), (-1, 0), (3, 3), (2, -3)],
     [(4, (0, -1)), (5, (3, -3))], "gn4"),
    # the mover stays on the line through points 1 and 2: the line's
    # predicate vanishes on the segment
    ([(0, 0), (2, 0), (0, 2), (1, 0)], [(4, (1, 0))], "gn3"),
]


@pytest.mark.parametrize("points,moves,target", DEGENERATE_CASES)
def test_degenerate_messages_match_fraction_oracle(points, moves, target):
    tr = Trajectory(points, moves, len(points[0]))
    want = _outcome(oracle_compile, tr, target)
    assert want[0] == "degenerate"
    assert _outcome(compile_word, tr, target) == want


def test_predicate_poly_interpolate_stores_twice_p():
    p = PredicatePoly.interpolate(lambda t: 16 * t * t - 16 * t + 3)
    assert (p.c2, p.c1, p.c0) == (32, -32, 6)
    assert all(type(c) is int for c in (p.c2, p.c1, p.c0))
    brs = [_fractions(br) for br in p.roots_in_unit_interval()]
    assert brs == OraclePoly(1, -1, F(3, 16)).roots_in_unit_interval()
    assert brs[0][0] < F(1, 4) < brs[0][1] and brs[1][0] < F(3, 4) < brs[1][1]


def _wall_frames(rng):
    """(dim, integer frame, mover index, target): random small-int frames,
    then the frames of the segments of a circle_points(9) trajectory, in the
    plane and lifted onto the paraboloid z = x^2 + y^2."""
    for dim in (2, 3):
        for _ in range(40):
            frame = [tuple(rng.randint(-50, 50) for _ in range(dim))
                     for _ in range(6)]
            yield dim, frame, rng.randrange(6), tuple(
                rng.randint(-50, 50) for _ in range(dim))
    tr = canonical_generator_trajectory(9, 1, 9, "circle_gn3")
    for conf, (p, to) in zip(tr.configurations(), tr.moves):
        for lift in (False, True):
            pts = [(x, y, x * x + y * y) if lift else (x, y)
                   for x, y in conf + [to]]
            *frame, b = integer_frame(pts)
            yield 2 + lift, frame, p - 1, b


def _normal(p, q, r):
    """The normal of the doubled form of the plane through p, q and r."""
    return tuple(2 * x for x in _oracle_cross(_oracle_sub(q, p),
                                              _oracle_sub(r, p)))


def _side_predicate(p, q, r, x):
    """det[q - p, x - p, normal]: the side of x from (p, q) within the
    plane through p, q and r."""
    return _oracle_det3(_oracle_sub(q, p), _oracle_sub(x, p),
                        _normal(p, q, r))


def _side_wall(x0, d, p, q, r):
    """The oracle's closed form of the side: the wall of the plane through
    p, p + normal and q."""
    return plane_wall(x0, d, p, tuple(x + y for x, y in zip(
        p, _normal(p, q, r))), q)


def _homogeneous_lift(pt):
    """The homogeneous lifted point the detector evaluates walls at."""
    return geometry._lifted(geometry._homogeneous(pt))


def _form_poly(form, x0, x1):
    """The poly of the form (c, k) of a lifted wall along the segment from
    x0 to x1, as the detector forms it: from the form's values at the two
    ends, brought to one scale, with c2 = c[2] dd."""
    (c0, c1, c2), k = form
    u0, u1 = geometry._homogeneous(x0), geometry._homogeneous(x1)
    s0, s1, dd = geometry._end_scales(u0, u1, len(x0) == 3)
    f0, f1 = (s * (c0 * x + c1 * y + c2 * z + k * w) for s, (x, y, z, w) in
              ((s0, _homogeneous_lift(x0)), (s1, _homogeneous_lift(x1))))
    c2 *= dd
    return PredicatePoly(c2, f1 - f0 - c2, f0)


def _lifted_forms(dim, frame, statics):
    """(predicate, statics, form) for the lifted forms of the statics: in
    the plane the circles, each minus the plane through its lifted points,
    then the wall table's lines (none when three statics are collinear);
    in space the planes through three statics, then the mover's sides
    within them, the plane through p, the direction (normal, 0) and q.
    The walls come in the detector's order."""
    points = {q: geometry._homogeneous(frame[q]) for q in statics}
    if dim == 2:
        lifted = {q: geometry._lifted(u) for q, u in points.items()}
        forms = [(incircle, tup, (tuple(-x for x in c), -k))
                 for tup, c, k in geometry._planes(lifted, statics)]
        try:
            lines = geometry._wall_table(points, lifted, statics, "collinear3")
        except DegenerateTrajectory:
            lines = []
        return forms + [(orient2d, tup, (c, k)) for tup, c, k in lines]
    planes = geometry._planes(points, statics)
    forms = [(orient3d, tup, (c, k)) for tup, c, k in planes]
    for tup, c, _ in planes:
        p, q = points[tup[0]], points[tup[1]]
        forms.append((_side_predicate, tup, geometry._plane(
            p, geometry._diff(p, c + (0,)), geometry._diff(p, q))))
    return forms


def _detector_polys(monkeypatch, detect, tr, kind):
    """The wall polys ``detect`` forms, segment by segment in the order it
    forms them, with every root query answered by none; None when the
    statics are degenerate."""
    polys = []
    with monkeypatch.context() as m:
        m.setattr(PredicatePoly, "roots_in_unit_interval",
                  lambda self: polys.append(self) or [])
        try:
            detect(tr, kind)
        except DegenerateTrajectory:
            return None
    return polys


def _screened(want):
    """The coefficient triples of ``want`` whose poly has a root in (0, 1)
    or raises there: the walls the detector forms a poly for.  It passes
    over the others, which have no root and raise nothing."""
    return [w for w in want if _roots_outcome(
        PredicatePoly.roots_in_unit_interval, PredicatePoly(*w)) != []]


def test_closed_form_walls_match_interpolate(monkeypatch):
    # every wall is a plane in the lifted space: the wall table's lines,
    # a circle as minus the plane through its lifted points, the plane
    # through three points and the mover's side within it (the plane
    # through p, the direction (normal, 0) and q) give on each segment,
    # from their values at its ends, the polys that interpolate orient2d,
    # incircle, orient3d and the side determinant, coefficient for
    # coefficient up to the factor 2 that interpolate stores (4 for the
    # side, whose oracle doubles the normal), since on int points every
    # weight is 1; so do the closed forms of the per-segment oracle, with
    # no factor, and the walls the detector forms; it forms a poly for
    # exactly the walls with a root in (0, 1) or a raise, and every wall it
    # passes over has no root
    oracle_walls = {orient2d: line_wall, incircle: circle_wall,
                    orient3d: plane_wall, _side_predicate: _side_wall}
    checked, end_checked = collections.Counter(), collections.Counter()
    for dim, frame, mover, b in _wall_frames(random.Random("walls")):
        x0 = frame[mover]
        d = tuple(y - x for x, y in zip(x0, b))
        statics = [q for q in range(len(frame)) if q != mover]
        end_values = []
        for predicate, tup, form in _lifted_forms(dim, frame, statics):
            pts = [frame[q] for q in tup]
            want = PredicatePoly.interpolate(lambda t: predicate(
                *pts, tuple(x + t * dx for x, dx in zip(x0, d))))
            want = (want.c2, want.c1, want.c0)
            got = _form_poly(form, x0, b)
            factor = 4 if predicate is _side_predicate else 2
            assert tuple(factor * c for c in (got.c2, got.c1, got.c0)) \
                == want, predicate
            got = oracle_walls[predicate](x0, d, *pts)
            assert (got.c2, got.c1, got.c0) == want, predicate
            if predicate is not _side_predicate:
                end_values.append(want)
            checked[predicate.__name__] += 1
        got = _detector_polys(monkeypatch, detect_events,
                              Trajectory(frame, [(mover + 1, b)], dim),
                              "concyclic4" if dim == 2 else "coplanar_special")
        if got is not None:
            formed = _screened(end_values)
            assert [(2 * p.c2, 2 * p.c1, 2 * p.c0) for p in got] == formed
            end_checked["formed"] += len(formed)
            end_checked["passed over"] += len(end_values) - len(formed)
    assert all(checked[name] > 1000 for name in (
        "orient2d", "incircle", "orient3d", "_side_predicate"))
    assert sum(end_checked.values()) > 2500
    assert end_checked["formed"] > 400 and end_checked["passed over"] > 2500


CANONICAL_TARGETS = {"circle_gn3": ("gn3",), "parabola_gn4": ("gn4",),
                     "circle_gamma4": ("gamma4", "gamma4_graded")}


def test_canonical_compiles_decide_on_ints_and_fractions(monkeypatch):
    # every wall table is formed on homogeneous int points and evaluated
    # at homogeneous int waypoints, every predicate polynomial (wall or side
    # sign) has int coefficients, every point a sign is taken at is an int
    # pair (u, v) standing for u / v with v > 0, never a float, and reported
    # brackets are Fractions
    polys, points, coords = [], [], set()
    interpolate, sign = PredicatePoly.interpolate.__func__, PredicatePoly.sign
    roots = PredicatePoly.roots_in_unit_interval
    wall_table, values = geometry._wall_table, geometry._values

    def recording_wall_table(points, lifted, statics, kind):
        coords.update(type(x) for table in (points, lifted)
                      for pt in table.values() for x in pt)
        return wall_table(points, lifted, statics, kind)

    def recording_values(walls, pt):
        coords.update(type(x) for x in pt)
        return values(walls, pt)

    monkeypatch.setattr(geometry, "_wall_table", recording_wall_table)
    monkeypatch.setattr(geometry, "_values", recording_values)

    def recording_interpolate(cls, f):
        polys.append(interpolate(cls, f))
        return polys[-1]

    def recording_sign(self, u, v):
        points.append((u, v))
        return sign(self, u, v)

    def recording_roots(self):
        polys.append(self)
        return roots(self)

    monkeypatch.setattr(PredicatePoly, "interpolate",
                        classmethod(recording_interpolate))
    monkeypatch.setattr(PredicatePoly, "sign", recording_sign)
    monkeypatch.setattr(PredicatePoly, "roots_in_unit_interval",
                        recording_roots)
    brackets = 0
    for n in range(4, 8):
        for i, j in itertools.combinations(range(1, n + 1), 2):
            for style, targets in CANONICAL_TARGETS.items():
                tr = canonical_generator_trajectory(n, i, j, style)
                for target in targets:
                    if target == "gamma4_graded" and n != 6:
                        continue                # the slowest target: one n
                    try:
                        _, events = compile_word(tr, target)
                    except DegenerateTrajectory:
                        continue
                    for e in events:
                        assert all(type(x) is Fraction for x in e.bracket)
                        brackets += 1
    assert polys and points and brackets
    assert coords == {int}
    assert all(type(c) is int for p in polys for c in (p.c2, p.c1, p.c0))
    assert all(type(u) is int and type(v) is int and v > 0
               for u, v in points)


# ---------------------------------------------------------------------------
# separation on crowded segments: many events whose first brackets overlap

DENSE_CASES = [("gn3", 2, (8, 9, 10), (3, 4)), ("gamma4", 2, (6, 7), (2, 3)),
               ("gamma4_space", 3, (6, 7), (2, 3))]


def _dense_trajectories(target, dim, ns, segments, count=10):
    rng = random.Random("dense:" + target)
    return [_random_trajectory(rng, ns[k % len(ns)], dim, rng.choice(segments))
            for k in range(count)]


def _overlapping_at_start(brackets):
    """Index pairs i < j whose brackets overlap, by brute force."""
    fr = [_fractions(br) for br in brackets]
    return [(i, j) for i, j in itertools.combinations(range(len(fr)), 2)
            if fr[i][0] < fr[j][1] and fr[j][0] < fr[i][1]]


def _separation(separate, events):
    """The events' positions in the list, with their brackets, in the order
    ``separate`` sorts them into; or its DegenerateTrajectory message."""
    position = {id(e): k for k, e in enumerate(events)}
    try:
        return [(position[id(e)], e.bracket) for e in separate(events)]
    except DegenerateTrajectory as exc:
        return str(exc)


@pytest.mark.parametrize("target,dim,ns,segments", DENSE_CASES,
                         ids=[c[0] for c in DENSE_CASES])
def test_dense_separation_matches_fraction_oracle(monkeypatch, target, dim,
                                                  ns, segments):
    # full event logs, brackets included, as the Fraction detector gives
    # them, on segments that start with overlapping brackets; on every
    # segment the sort gives the order of the row-wise pass, and the
    # row-wise pass the brackets and order of the sweep over the pairs that
    # overlap at the start, and the sweep finds exactly those pairs
    separate, overlapping = geometry._separate_events, [0]

    def copied(events):
        return [geometry.Event(e.segment, e.bracket, e.kind, e.participants,
                               e.poly, e.quad, e.side) for e in events]

    def order(separation):
        return separation if isinstance(separation, str) else \
            [k for k, _ in separation]

    def checking_separate(events):
        want = _overlapping_at_start([e.bracket for e in events])
        assert overlapping_pairs([e.bracket for e in events]) == want
        overlapping[0] += len(want)
        want = _separation(sweep_separate_events, copied(events))
        assert _separation(rowwise_separate_events, copied(events)) == want
        got = _separation(separate, events)
        assert order(got) == order(want)
        if isinstance(got, str):
            raise DegenerateTrajectory(got)
        return events                   # sorted in place

    monkeypatch.setattr(geometry, "_separate_events", checking_separate)
    events = 0
    for tr in _dense_trajectories(target, dim, ns, segments):
        want = _outcome(oracle_compile, tr, target)
        assert _outcome(compile_word, tr, target) == want
        if want[0] != "degenerate":
            events += len(want[1])
    assert events > 0 and overlapping[0] > 0


def test_separation_asks_shares_root_once_per_pair(monkeypatch):
    # a pair's overlap only shrinks, so whether the two polys share a root
    # in it is decided once per event pair, not once per bisection; the
    # sort may compare a pair in either order, so pairs are unordered
    separate = geometry._separate_events
    shares_root, bisect = PredicatePoly.shares_root, PredicatePoly.bisect
    calls, totals = None, {"calls": 0, "bisections": 0}

    def pair(p1, p2):
        return tuple(sorted((id(p1), id(p2))))

    def counting_separate(events):
        nonlocal calls
        pairs = collections.Counter(
            pair(e1.poly, e2.poly)
            for e1, e2 in itertools.combinations(events, 2))
        calls = collections.Counter()
        try:
            return separate(events)
        finally:
            assert all(c <= pairs[key] for key, c in calls.items())
            totals["calls"] += sum(calls.values())
            calls = None

    def counting_shares_root(self, other, bracket):
        if calls is not None:
            calls[pair(self, other)] += 1
        return shares_root(self, other, bracket)

    def counting_bisect(self, bracket):
        if calls is not None:
            totals["bisections"] += 1
        return bisect(self, bracket)

    monkeypatch.setattr(geometry, "_separate_events", counting_separate)
    monkeypatch.setattr(PredicatePoly, "shares_root", counting_shares_root)
    monkeypatch.setattr(PredicatePoly, "bisect", counting_bisect)
    for tr in _dense_trajectories("gn3", 2, (8, 9, 10), (3, 4)):
        try:
            compile_word(tr, "gn3")
        except DegenerateTrajectory:
            pass
    # each round bisects both brackets: more than two bisections per call
    # means some pair took several rounds
    assert 0 < 2 * totals["calls"] < totals["bisections"]


# ---------------------------------------------------------------------------
# event order by one sort: the order, words and messages of the row-wise
# pass, with brackets that isolate their roots and are pairwise disjoint


def _crossing(rng, n, dim):
    """Static points at random in a box and a mover that crosses it from
    left to right, as the benchmark's random compiles are built."""
    box = 100000

    def point(first):
        return (first,) + tuple(rng.randint(0, box) for _ in range(dim - 1))

    pts = [point(rng.randint(0, box)) for _ in range(n)]
    mover = rng.randrange(n)
    pts[mover] = point(-box)
    return Trajectory(pts, [(mover + 1, point(2 * box))], dim)


def _sort_cases():
    cases = [(target, tr) for target, dim, ns, segments in DENSE_CASES
             for tr in _dense_trajectories(target, dim, ns, segments)]
    rng = random.Random("one sort")
    for target in ("gn3", "gn4", "gamma4", "gamma4_space"):
        dim = 3 if target == "gamma4_space" else 2
        for n in (6, 6, 8, 8, 10, 10, 12, 12, 14, 14):
            cases.append((target, _crossing(rng, n, dim)))
    cases += [(target, Trajectory(points, moves, len(points[0])))
              for points, moves, target in DEGENERATE_CASES]
    return cases


def _cli_outcome(tr, target, directory):
    """Exit code and standard error of a text compile through the CLI."""
    from gnk.cli import main
    f = directory / "traj.json"
    f.write_text(tr.to_json())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["compile-trajectory", str(f), "--target", target])
    return code, err.getvalue()


def _order_outcome(tr, target):
    """The word and the (segment, kind, participants, quad, side, inside)
    of each event, or the DegenerateTrajectory message."""
    try:
        word, events = compile_word(tr, target)
    except DegenerateTrajectory as exc:
        return str(exc)
    words = word if isinstance(word, tuple) else (word,)
    return [w.letters for w in words], [
        (e.segment, e.kind, e.participants, e.quad, e.side, e.inside)
        for e in events]


def _check_brackets(events, first):
    """Every bracket, separators included, lies in its first bracket, has
    its poly's signs opposite at its ends, and is disjoint from the
    others."""
    spans = []
    for e in events:
        lo, hi = _fractions(e.bracket)
        lo0, hi0 = _fractions(first[id(e)])
        assert lo0 <= lo < hi <= hi0, e
        den = e.bracket[2]
        assert e.poly.sign(e.bracket[0], den) \
            * e.poly.sign(e.bracket[1], den) == -1, e
        spans.append((lo, hi))
    spans.sort()
    assert all(hi <= lo for (_, hi), (lo, _) in zip(spans, spans[1:]))


def test_one_sort_keeps_rowwise_order_with_disjoint_brackets(monkeypatch,
                                                             tmp_path):
    separate, counts = geometry._separate_events, collections.Counter()

    def checking_separate(events):
        everything, first = list(events), {id(e): e.bracket for e in events}
        separate(events)
        _check_brackets(everything, first)
        counts["separators"] += len(everything) - len(events)
        counts["events"] += len(events)
        return events

    outcomes = {}
    for name, rule in (("rowwise", rowwise_separate_events),
                       ("sort", checking_separate)):
        monkeypatch.setattr(geometry, "_separate_events", rule)
        outcomes[name] = [(_order_outcome(tr, target),
                           _cli_outcome(tr, target, tmp_path))
                          for target, tr in _sort_cases()]
    assert outcomes["sort"] == outcomes["rowwise"]
    codes = collections.Counter(code for _, (code, _) in outcomes["sort"])
    assert codes[0] > 40 and codes[3] >= len(DEGENERATE_CASES)
    assert counts["events"] > 2000 and counts["separators"] > 500


# ---------------------------------------------------------------------------
# each exact sign decided once: linear bisection in closed form, one root
# sign per sorted triple, Delaunay emptiness once per mover run


def test_linear_bisection_matches_general_rule():
    # a line or plane wall's bracket is centred on its root and stays so,
    # so the closed form gives what the general rule gives, at every depth
    depths = 0
    for dim, frame, mover, b in _wall_frames(random.Random("linear bisect")):
        x0 = frame[mover]
        d = tuple(y - x for x, y in zip(x0, b))
        statics = [pt for q, pt in enumerate(frame) if q != mover]
        wall, size = (line_wall, 2) if dim == 2 else (plane_wall, 3)
        for tup in itertools.combinations(statics, size):
            poly = wall(x0, d, *tup)
            try:
                brackets = poly.roots_in_unit_interval()
            except DegenerateTrajectory:
                continue
            for br in brackets:
                for _ in range(24):
                    want = general_bisect(poly, br)
                    br = poly.bisect(br)
                    assert br == want, (poly.c1, poly.c0)
                depths += 1
    assert depths > 300


def _sign_at_root_mains(rng):
    """Seeded mains with their root brackets: linear polys, quadratics with
    two rational roots (so that a linear aux can share one), and
    quadratics with random coefficients."""
    mains = []
    for _ in range(60):
        b, e = rng.randint(1, 30), rng.randint(1, 30)
        a, c = rng.randint(-b, 2 * b), rng.randint(-e, 2 * e)
        s = rng.choice((-1, 1))
        mains += [PredicatePoly(0, s * b, -s * a),
                  PredicatePoly(s * b * e, -s * (b * c + a * e), s * a * c),
                  PredicatePoly(*(rng.randint(-40, 40) for _ in range(3)))]
    for main in mains:
        try:
            brackets = main.roots_in_unit_interval()
        except DegenerateTrajectory:
            continue
        for br in brackets:
            yield main, br


def test_sign_at_root_matches_bisection_oracle():
    # a linear aux's sign at main's root is decided by where the aux root
    # lies against the bracket, with at most one sign of main: the loop
    # that bisects until aux keeps one sign gives the same answer, on
    # brackets bisected up to 24 times
    rng = random.Random("sign at root")
    cases, answers = collections.Counter(), collections.Counter()
    for main, br in _sign_at_root_mains(rng):
        for depth in range(25):
            if depth in (0, 1, 2, 5, 11, 24):
                lo, hi, den = br
                auxes = {"at lo": (den, -lo), "at hi": (den, -hi),
                         "inside": (2 * den, -(lo + hi)),
                         "random": (rng.randint(-9, 9), rng.randint(-9, 9)),
                         "constant": (0, rng.choice((-7, 3))),
                         "zero": (0, 0)}
                if main.c2 == 0:
                    auxes["shared"] = (-3 * main.c1, -3 * main.c0)
                for r, d in _rational_roots(main):
                    if geometry._inside(r, d, br):
                        auxes["shared"] = (d, -r)
                for name, (c1, c0) in auxes.items():
                    for sign in (1, -1):
                        aux = PredicatePoly(0, sign * c1, sign * c0)
                        got = sign_at_root(main, br, aux)
                        assert got == bisection_sign_at_root(main, br, aux), (
                            name, (main.c2, main.c1, main.c0), br)
                        cases[name] += 1
                        answers[name, got] += 1
            br = main.bisect(br)
    for name in ("at lo", "at hi", "inside", "random", "constant", "zero",
                 "shared"):
        assert cases[name] > 20, name
    assert answers["shared", 0] == cases["shared"]
    assert answers["zero", 0] == cases["zero"]
    for name in ("at lo", "at hi", "inside"):
        assert answers[name, 1] > 0 and answers[name, -1] > 0, name
    with pytest.raises(ValueError, match="linear aux"):
        sign_at_root(PredicatePoly(0, 2, -1), (1, 3, 4),
                     PredicatePoly(1, 0, -1))


def _rational_roots(poly):
    """The rational roots of a quadratic poly as (num, den), den > 0; none
    for a linear poly."""
    c2, c1, c0 = poly.c2, poly.c1, poly.c0
    disc = c1 * c1 - 4 * c2 * c0
    if c2 == 0 or disc < 0 or math.isqrt(disc) ** 2 != disc:
        return []
    root = math.isqrt(disc)
    return [geometry._linear_root(2 * c2, c1 + s * root) for s in (-1, 1)]


def _side_cases(rng):
    """(dim, the static triangle, the mover, the side predicate, the points
    at time t, the event poly and bracket, the triangle's side sign, and
    the mover's side of the edges (a, b), (a, c), (b, c) at the segment's
    ends) for the circle events of seeded plane frames and the plane events
    of seeded space frames; then one event of each where the mover passes a
    static point's line at the event time, so that some side signs are 0.
    The sides are written down from the points: orient2d(x, y, X) in the
    plane, det[y - x, X - x, normal] in space."""
    frames = [(frame, rng.randrange(6), tuple(
                  rng.randint(-50, 50) for _ in range(dim)))
              for dim in (2, 3) for frame in (
                  [tuple(rng.randint(-50, 50) for _ in range(dim))
                   for _ in range(6)] for _ in range(30))]
    frames += [([(1, 0), (-1, 0), (0, 1), (2, 2)], 3, (0, -2)),
               ([(0, 0, 0), (3, 0, 0), (0, 3, 0), (1, -1, -1)], 3, (1, 1, 1))]
    for frame, mover, b in frames:
        dim, x0 = len(b), frame[mover]
        d = tuple(y - x for x, y in zip(x0, b))

        def point(q, t, frame=frame, mover=mover, x0=x0, d=d):
            if q == mover:
                return tuple(x + t * dx for x, dx in zip(x0, d))
            return frame[q]

        statics = [q for q in range(len(frame)) if q != mover]
        wall = circle_wall if dim == 2 else plane_wall
        for trip in itertools.combinations(statics, 3):
            s1, s2, s3 = (frame[q] for q in trip)
            poly = wall(x0, d, s1, s2, s3)
            try:
                brackets = poly.roots_in_unit_interval()
            except DegenerateTrajectory:
                continue
            if dim == 2:
                predicate, static = orient2d, geometry._sgn(
                    orient2d(s1, s2, s3))
            else:
                normal = _oracle_cross(_oracle_sub(s2, s1),
                                       _oracle_sub(s3, s1))

                def predicate(px, py, pz, normal=normal):
                    return _oracle_det3(_oracle_sub(py, px),
                                        _oracle_sub(pz, px), normal)
                static = 1
            ends = [tuple(predicate(frame[x], frame[y], end)
                          for end in (x0, b))
                    for x, y in itertools.combinations(trip, 2)]
            for br in brackets:
                yield (dim, trip, mover, predicate, point, poly, br, static,
                       ends)


def test_crossed_edge_rule_matches_two_sided_per_call_oracle(monkeypatch):
    # four points are in convex position iff the mover lies across exactly
    # one edge of the static triangle, and that edge is then a diagonal:
    # _convex_quad, with one sign at the root per edge, gives the cyclic
    # orders and the non-convex answers of the two-sided diagonal test
    # that takes a sign per call on every ordered triple, for circle events
    # in the plane and plane events in space, with zero signs among them
    sign_at_root, signs = geometry.sign_at_root, []

    def recording_sign_at_root(*args):
        signs.append(sign_at_root(*args))
        return signs[-1]

    monkeypatch.setattr(geometry, "sign_at_root", recording_sign_at_root)
    events, zeros, convex = (collections.Counter() for _ in range(3))
    for (dim, trip, mover, predicate, point, poly, br, static,
         ends) in _side_cases(random.Random("sides")):
        # as detect_events signed sides before: in space without the mover
        side = per_call_side_at_root(poly, br, predicate, point,
                                     mover if dim == 2 else None)
        want = two_sided_quad(trip + (mover,), side)
        del signs[:]
        got = geometry._convex_quad(trip, mover, poly, br, static, ends)
        assert got == want, (dim, trip, mover)
        assert signs == [side(x, y, mover)
                         for x, y in itertools.combinations(trip, 2)]
        assert static == side(*trip)
        events[dim] += 1
        zeros[dim] += 0 in signs
        convex[dim, want is not None] += 1
    assert events[2] > 50 and events[3] > 50
    assert zeros[2] > 0 and zeros[3] > 0
    # a circle's four points are in convex position unless the mover meets
    # a static point; in space a quarter or so of the crossings are inside
    assert convex[2, False] == zeros[2]
    assert convex[3, True] > 20 and convex[3, False] > 20


def _mover_run_trajectory(rng, n, movers):
    """Random points in a box and one random target per mover in
    ``movers``."""
    pts = [(_random_rational(rng, 10), _random_rational(rng, 10))
           for _ in range(n)]
    return Trajectory(pts, [(m, (_random_rational(rng, 10),
                                 _random_rational(rng, 10)))
                            for m in movers])


def test_delaunay_emptiness_once_per_mover_run(monkeypatch):
    # whether a static circle is empty depends only on the statics, which
    # change only with the mover: each circle wall's emptiness is computed
    # once per mover run, reused on the run's later roots, and computed
    # again after the mover has changed; event logs equal the oracle's
    runs, asked, computed = [0], [], []
    wall_table = geometry._wall_table
    segment_roots, empty = geometry._segment_roots, geometry._circle_empty

    def counting_wall_table(*args):
        runs[0] += 1
        return wall_table(*args)

    def recording_roots(walls, *args):
        for wall, poly, br in segment_roots(walls, *args):
            if len(wall[0]) == 3:               # a circle
                asked.append((runs[0], wall[0]))
            yield wall, poly, br

    def recording_empty(wall, frame, statics):
        computed.append((runs[0], wall[0]))
        return empty(wall, frame, statics)

    monkeypatch.setattr(geometry, "_wall_table", counting_wall_table)
    monkeypatch.setattr(geometry, "_segment_roots", recording_roots)
    monkeypatch.setattr(geometry, "_circle_empty", recording_empty)
    rng = random.Random("mover runs")
    events = reused = again = 0
    for trial in range(12):
        a, b = rng.sample(range(1, 7), 2)
        tr = _mover_run_trajectory(rng, 6 + trial % 2,
                                   [a, a, b, a, a, b, b, a][:4 + trial % 5])
        del asked[:], computed[:]
        want = _outcome(oracle_compile, tr, "gamma4")
        assert _outcome(compile_word, tr, "gamma4") == want, trial
        if want[0] != "degenerate":
            events += len(want[1])
        assert sorted(computed) == sorted(set(asked))
        reused += len(asked) - len(computed)
        first_run = {}
        for run, trip in computed:
            again += first_run.setdefault(trip, run) != run
    assert events > 0 and reused > 0 and again > 0


# ---------------------------------------------------------------------------
# wall values once per waypoint: one frame and one wall table per mover run,
# each segment's poly from its two end values


def _quadratic_cases(rng):
    """(name, c2, c1, c0) of seeded quadratics m (den t - num)^2 - e: the
    vertex num / den inside (0, 1), outside it, at exactly 0 and at 1; the
    discriminant 4 m den^2 e negative, zero or positive; small and
    1,000-bit m; then linear polys, for the shared early returns."""
    vertices = {"inside": lambda: (rng.randint(1, 98), 99),
                "outside": lambda: rng.choice(((-rng.randint(1, 50), 7),
                                               (rng.randint(8, 60), 7))),
                "at 0": lambda: (0, rng.randint(1, 9)),
                "at 1": lambda: (3, 3)}
    for _ in range(40):
        for where, vertex in vertices.items():
            for bits in (8, 1000):
                num, den = vertex()
                m = rng.choice((-1, 1)) * rng.getrandbits(bits) | 1
                for disc in ("< 0", "= 0", "> 0"):
                    # near the double root, or far enough to reach 0 or 1
                    sign = {"< 0": -1, "= 0": 0, "> 0": 1}[disc]
                    reach = rng.choice((2 ** (bits // 2),
                                        4 * abs(m) * den * den))
                    e = sign * (1 if m > 0 else -1) * rng.randint(1, reach)
                    yield ((where, disc), m * den * den, -2 * m * den * num,
                           m * num * num - e)
    for _ in range(40):
        yield ("linear",), 0, rng.randint(-50, 50), rng.randint(-50, 50)


def _roots_outcome(roots, poly):
    try:
        return roots(poly)
    except DegenerateTrajectory as exc:
        return str(exc)


def test_monotone_case_matches_discriminant_first():
    # off the vertex the poly is monotone on [0, 1], so testing the vertex
    # first and skipping the discriminant gives the answers and the raises
    # of the order that took the discriminant first; _rootless holds
    # exactly where that answer is no root and no raise
    answers = collections.Counter()
    for name, c2, c1, c0 in _quadratic_cases(random.Random("monotone")):
        poly = PredicatePoly(c2, c1, c0)
        got = _roots_outcome(PredicatePoly.roots_in_unit_interval, poly)
        assert got == _roots_outcome(discriminant_first_roots, poly), (
            name, c2, c1, c0)
        assert geometry._rootless(c2, c1, c0) == (got == [])
        answers[name, got if isinstance(got, str) else len(got)] += 1
    for where in ("inside", "outside", "at 0", "at 1"):
        for disc in ("< 0", "= 0", "> 0"):
            assert sum(c for (name, _), c in answers.items()
                       if name == (where, disc)) >= 80
    assert answers[("inside", "= 0"), "tangential (double-root) event"] > 0
    assert answers[("inside", "> 0"), 2] > 0
    assert answers[("outside", "> 0"), 1] > 0
    assert answers[("outside", "> 0"), 0] > 0
    assert answers[("at 0", "= 0"), "event at a segment endpoint"] > 0
    assert answers[("at 1", "> 0"), 1] > 0


def _rational_run_trajectory(rng, n, dim, movers, integer):
    """Random points in a box and one random target per mover in
    ``movers``: int coordinates, or rationals whose denominators are drawn
    independently up to 1,000."""
    def coord():
        if integer:
            return F(rng.randint(-10, 10))
        return _random_rational(rng, 10)
    pts = [tuple(coord() for _ in range(dim)) for _ in range(n)]
    return Trajectory(pts, [(m, tuple(coord() for _ in range(dim)))
                            for m in movers], dim)


def _lifted(tr):
    """The trajectory lifted onto the paraboloid z = x^2 + y^2, waypoints
    included."""
    def lift(pt):
        return pt + (pt[0] * pt[0] + pt[1] * pt[1],)
    return Trajectory([lift(p) for p in tr.initial],
                      [(p, lift(to)) for p, to in tr.moves], 3)


def _oracle_trajectories():
    """(kinds, trajectory): seeded runs of movers A, A, B, A on int and on
    rational waypoints, in the plane and in space, and the circle_points
    loops at n = 5-12, also lifted into space."""
    rng = random.Random("per segment")
    plane = ("collinear3", "concyclic4", "delaunay_flip")
    for trial in range(16):
        a, b = rng.sample(range(1, 6), 2)
        for integer in (True, False):
            for dim, kinds in ((2, plane), (3, ("coplanar_special",))):
                yield kinds, _rational_run_trajectory(
                    rng, 5 + trial % 3, dim, [a, a, b, a], integer)
    for n in range(5, 13):
        i, j = (1, 2) if n % 2 else (1, 3)
        tr = canonical_generator_trajectory(n, i, j, "circle_gamma4")
        yield plane, tr
        if n <= 8:
            yield ("coplanar_special",), _lifted(tr)


def _detector_outcome(detect, tr, kind):
    """The event log, brackets included, as Fractions, or the type and
    message of the raise."""
    try:
        events = detect(tr, kind)
    except (DegenerateTrajectory, ValueError) as exc:
        return type(exc), str(exc)
    return [(e.segment, e.kind, e.participants, e.quad, e.side, e.inside,
             e.bracket) for e in events]


def test_detector_matches_per_segment_oracle():
    # one frame and one wall table per mover run give the events, brackets
    # and raises of one frame per segment, on runs that change mover, on
    # int and rational waypoints and on the canonical circle loops
    events, raises, rational = collections.Counter(), collections.Counter(), 0
    for kinds, tr in _oracle_trajectories():
        for kind in kinds:
            want = _detector_outcome(per_segment_detect_events, tr, kind)
            assert _detector_outcome(detect_events, tr, kind) == want, kind
            if isinstance(want, tuple):
                raises[want[1].split(":")[0]] += 1
            else:
                events[kind] += len(want)
        rational += any(x.denominator != 1 for _, to in tr.moves for x in to)
    for points, moves, target in DEGENERATE_CASES:
        tr = Trajectory(points, moves, len(points[0]))
        kind = geometry._TARGETS[target][1]
        want = _detector_outcome(per_segment_detect_events, tr, kind)
        assert _detector_outcome(detect_events, tr, kind) == want
        raises[want[1].split(":")[0]] += 1
    assert all(events[kind] > 20 for kind in (
        "collinear3", "concyclic4", "delaunay_flip", "coplanar_special"))
    assert rational > 20
    for message in ("event at a segment endpoint",
                    "tangential (double-root) event",
                    "predicate vanishes identically",
                    "three static points collinear",
                    "four static points concyclic",
                    "static point on event plane"):
        assert raises[message] > 0, message


def _weight(pt):
    return math.lcm(*(x.denominator for x in pt))


def _wall_factors(tr, conf, p, to):
    """(statics, factor) for each wall the per-segment oracle forms on the
    segment that moves point p from conf to ``to``, in its order: the
    positive factor from its poly to the detector's.  The oracle doubles
    the predicate on the frame L of the segment's n + 1 points; the
    detector takes it on the homogeneous points, where a line through a
    and b carries w_a w_b, a circle through a, b and c w_a^4 w_b^2 w_c^2
    and a plane w_a^2 w_b w_c, at the segment's weight W = lcm(w_0, w_1),
    squared in the plane."""
    statics = [q for q in range(tr.n) if q != p - 1]
    w = [_weight(pt) for pt in conf]
    frame = math.lcm(*(_weight(pt) for pt in conf + [to]))
    seg = math.lcm(w[p - 1], _weight(to))
    if tr.dim == 3:
        return [(trip, F(seg * w[trip[0]] ** 2 * w[trip[1]] * w[trip[2]],
                         2 * frame ** 3))
                for trip in itertools.combinations(statics, 3)]
    return [(trip, F(seg ** 2 * w[trip[0]] ** 4 * w[trip[1]] ** 2
                     * w[trip[2]] ** 2, 2 * frame ** 4))
            for trip in itertools.combinations(statics, 3)] + [
        (pair, F(seg ** 2 * w[pair[0]] * w[pair[1]], 2 * frame ** 2))
        for pair in itertools.combinations(statics, 2)]


def test_homogeneous_polys_are_per_segment_polys_times_positive_factor(
        monkeypatch):
    # each point at its own width: each poly formed from the end values of
    # homogeneous points is the per-segment frame's poly times a positive
    # factor of its own wall and segment, the weights of the wall's statics
    # and of the segment over the width of the per-segment frame
    rng = random.Random("run frame")
    cases = [_rational_run_trajectory(rng, 6, dim, [2, 2, 5, 2, 2], False)
             for dim in (2, 3) for _ in range(3)]
    cases += [canonical_generator_trajectory(9, 1, 9, "circle_gn3"), _lifted(
        canonical_generator_trajectory(7, 1, 2, "circle_gamma4"))]
    # the detector forms the polys of the walls with a root in (0, 1) or a
    # raise, and passes over the others
    seen = collections.Counter()
    for tr in cases:
        kind = "concyclic4" if tr.dim == 2 else "coplanar_special"
        new = _detector_polys(monkeypatch, detect_events, tr, kind)
        old = _detector_polys(monkeypatch, per_segment_detect_events, tr, kind)
        want = []
        for conf, (p, to) in zip(tr.configurations(), tr.moves):
            seen[_weight(conf[p - 1]) != _weight(to)] += 1
            for _, factor in _wall_factors(tr, conf, p, to):
                assert factor > 0
                b = old.pop(0)
                want.append(tuple(factor * c for c in (b.c2, b.c1, b.c0)))
        assert not old
        formed = _screened(want)
        assert [(a.c2, a.c1, a.c0) for a in new] == formed
        seen["formed"] += len(formed)
        seen["passed over"] += len(want) - len(formed)
    # segments whose two ends are rescaled, and ones whose are not
    assert seen[True] > 10 and seen[False] > 0
    assert seen["formed"] > 200 and seen["passed over"] > 1500


# ---------------------------------------------------------------------------
# each point at its own width: homogeneous points, each with the lcm of its
# own denominators as its weight


def _wide_rational(rng, box=10, den=10 ** 6):
    d = rng.randint(1, den)
    return F(rng.randint(-box * d, box * d), d)


def _wide_frames(rng):
    """(source, dim, points, mover, target): seeded frames of six points
    with denominators drawn independently up to 10^6, in the plane and in
    space, then circle_points(n), n = 5-12, with point 1 moving to the
    scaled point 2, as a canonical loop starts."""
    for dim in (2, 3):
        for _ in range(30):
            yield ("seeded", dim, [tuple(_wide_rational(rng)
                                         for _ in range(dim))
                                   for _ in range(6)], rng.randrange(6),
                   tuple(_wide_rational(rng) for _ in range(dim)))
    for n in range(5, 13):
        pts = circle_points(n)
        inner = 1 - F(1, 2 * n * n)
        yield "circle", 2, pts, 0, tuple(x * inner for x in pts[1])


def _positive_multiple(got, want) -> bool:
    """Is got = m want, coefficient by coefficient, for one m > 0?"""
    if any((g == 0) != (w == 0) for g, w in zip(got, want)):
        return False
    ratios = {F(g) / w for g, w in zip(got, want) if w}
    return len(ratios) <= 1 and all(r > 0 for r in ratios)


def test_homogeneous_walls_are_positive_multiples_of_fraction_walls():
    # every line, circle and plane form on homogeneous points, and the
    # mover's side within a plane, gives on a segment with unrelated
    # denominators a positive multiple of the poly the Fraction oracle
    # interpolates, and at each static off it the sign of the predicate on
    # Fractions
    checked = collections.Counter()
    for source, dim, frame, mover, b in _wide_frames(
            random.Random("homogeneous")):
        x0 = frame[mover]
        statics = [q for q in range(len(frame)) if q != mover]
        for predicate, tup, form in _lifted_forms(dim, frame, statics):
            pts = [frame[q] for q in tup]
            want = OraclePoly.interpolate(lambda t: predicate(
                *pts, tuple(x + t * (y - x) for x, y in zip(x0, b))))
            got = _form_poly(form, x0, b)
            assert _positive_multiple((got.c2, got.c1, got.c0),
                                      (want.c2, want.c1, want.c0)), predicate
            (c0, c1, c2), k = form
            for s in statics:
                x, y, z, w = _homogeneous_lift(frame[s])
                assert geometry._sgn(c0 * x + c1 * y + c2 * z + k * w) \
                    == geometry._sgn(predicate(*pts, frame[s])), predicate
            checked[predicate.__name__, source] += 1
    for name in ("orient2d", "incircle", "orient3d", "_side_predicate"):
        assert checked[name, "seeded"] > 200, name
    assert checked["incircle", "circle"] > 400
    assert checked["orient2d", "circle"] > 200


def _wide_loop(rng, n=8, waypoints=5):
    """n points with denominators drawn independently up to 10^6, one
    mover through ``waypoints`` random waypoints and back to its start."""
    pts = [(_wide_rational(rng), _wide_rational(rng)) for _ in range(n)]
    p = rng.randint(1, n)
    return Trajectory(pts, [(p, (_wide_rational(rng), _wide_rational(rng)))
                            for _ in range(waypoints)] + [(p, pts[p - 1])])


def test_detector_matches_per_segment_oracle_on_wide_loops():
    # loops whose waypoints have unrelated denominators, each segment
    # rescaled to the lcm of its two weights: event logs, brackets
    # included, and raises as the per-segment frame gives them
    events, raises = collections.Counter(), collections.Counter()
    rng = random.Random("wide loops")
    for _ in range(30):
        tr = _wide_loop(rng)
        for kind in ("collinear3", "concyclic4", "delaunay_flip"):
            want = _detector_outcome(per_segment_detect_events, tr, kind)
            assert _detector_outcome(detect_events, tr, kind) == want, kind
            if isinstance(want, tuple):
                raises[kind] += 1
            else:
                events[kind] += len(want)
    assert all(events[kind] > 100 for kind in (
        "collinear3", "concyclic4", "delaunay_flip")), events


# ---------------------------------------------------------------------------
# wall roots from the end values: a wall the segment cannot cross forms no
# poly, a linear root's bracket and a quadratic's left-end sign in closed
# form, Delaunay emptiness settled at the first static inside


def _frame_walls(dim, frame, mover, b):
    """(walls, F0, F1, dd) of the one-segment run of ``_wall_frames``: the
    wall table of the statics (circles and lines in the plane, planes in
    space) and its values at the two ends; None when the statics are
    degenerate."""
    statics = [q for q in range(len(frame)) if q != mover]
    points = {q: geometry._homogeneous(frame[q]) for q in statics}
    try:
        walls = geometry._wall_table(
            points, {q: _homogeneous_lift(frame[q]) for q in statics},
            statics, "concyclic4" if dim == 2 else "coplanar_special")
    except DegenerateTrajectory:
        return None
    u0, u1 = geometry._homogeneous(frame[mover]), geometry._homogeneous(b)
    s0, s1, dd = geometry._end_scales(u0, u1, dim == 3)
    return (walls, geometry._rescaled(geometry._values(
                walls, _homogeneous_lift(frame[mover])), s0),
            geometry._rescaled(geometry._values(
                walls, _homogeneous_lift(b)), s1), dd)


def test_rootless_walls_match_discriminant_first():
    # _rootless passes a wall over iff the route that decides the
    # discriminant first answers its poly with no root and no raise, and
    # roots_in_unit_interval gives that route's brackets or raise, on every
    # wall of the seeded frames (the seeded quadratics are in
    # test_monotone_case_matches_discriminant_first)
    outcomes = collections.Counter()
    for dim, frame, mover, b in _wall_frames(random.Random("screen walls")):
        table = _frame_walls(dim, frame, mover, b)
        if table is None:
            continue
        walls, f0, f1, dd = table
        for w, c0, e in zip(walls, f0, f1):
            c2 = w[1][2] * dd
            c1 = e - c0 - c2
            poly = PredicatePoly(c2, c1, c0)
            want = _roots_outcome(discriminant_first_roots, poly)
            assert geometry._rootless(c2, c1, c0) == (want == []), (
                c2, c1, c0)
            assert _roots_outcome(PredicatePoly.roots_in_unit_interval,
                                  poly) == want
            name = ("plane" if dim == 3 else "circle" if len(w[0]) == 3
                    else "line")
            outcomes[name, "passed over" if want == [] else "formed"] += 1
    for name in ("circle", "line", "plane"):
        assert outcomes[name, "formed"] > 100, name
        assert outcomes[name, "passed over"] > 1000, name


def test_linear_root_bracket_matches_rational_root_route():
    # a linear root r/d in (0, 1) gets the centred bracket of half-width a
    # quarter of its distance to the nearer end, as the route that halves
    # until both ends are off the root gives it on its first try
    rng = random.Random("linear bracket")
    brackets = 0
    for bits in (6, 60, 600):
        for _ in range(200):
            c1, c0 = rng.getrandbits(bits) + 1, rng.getrandbits(bits) + 1
            poly = PredicatePoly(0, *rng.choice(((c1, -c0), (-c1, c0))))
            if poly.c0 + poly.c1 == 0:
                continue
            got = poly.roots_in_unit_interval()
            if got:
                r, d = geometry._linear_root(poly.c1, poly.c0)
                assert got == [bracket_rational_root(poly, r, 0, d, d)]
                brackets += 1
    assert brackets > 200


def _bisection_cases(rng):
    """(poly, bracket) of every circle-wall root of ``_wall_frames``, of
    every root of the seeded quadratics, and of quadratics with roots at
    dyadic rationals, which bisection meets at a midpoint."""
    polys = []
    for dim, frame, mover, b in _wall_frames(rng):
        table = _frame_walls(dim, frame, mover, b) if dim == 2 else None
        if table is not None:
            walls, f0, f1, dd = table
            polys += [PredicatePoly(w[1][2] * dd, e - c0 - w[1][2] * dd, c0)
                      for w, c0, e in zip(walls, f0, f1) if len(w[0]) == 3]
    polys += [PredicatePoly(c2, c1, c0)
              for _, c2, c1, c0 in _quadratic_cases(rng) if c2]
    for _ in range(200):
        # roots a / 2^i and c / 2^j, in (0, 1) or not
        i, j = rng.randint(1, 6), rng.randint(1, 6)
        a, c = rng.randint(-4, 2 ** i + 4), rng.randint(-4, 2 ** j + 4)
        s = rng.choice((-1, 1)) * rng.randint(1, 9)
        polys.append(PredicatePoly(s << (i + j), -s * (a << j) - s * (c << i),
                                   s * a * c))
    for poly in polys:
        outcome = _roots_outcome(PredicatePoly.roots_in_unit_interval, poly)
        for br in outcome if isinstance(outcome, list) else ():
            yield poly, br


def test_slope_rule_bisection_matches_two_sign_rule():
    # a bracket never holds a quadratic's vertex left of its root, so minus
    # the sign of the slope at its left end is the sign of the poly there
    # where the slope is nonzero: bisection gives what the rule that takes
    # the sign at both the midpoint and the left end gives, 24 times deep,
    # on every circle-wall root, with a root met at a midpoint or the
    # vertex at a left end among them
    seen = collections.Counter()
    for poly, br in _bisection_cases(random.Random("slope rule")):
        for _ in range(24):
            lo, hi, den = br
            seen["midpoint root"] += poly.sign(lo + hi, 2 * den) == 0
            seen["flat left end"] += 2 * poly.c2 * lo + poly.c1 * den == 0
            want = general_bisect(poly, br)
            br = poly.bisect(br)
            assert br == want, (poly.c2, poly.c1, poly.c0)
        seen["roots"] += 1
    assert seen["roots"] > 500
    assert seen["midpoint root"] > 50 and seen["flat left end"] > 10


def test_circle_emptiness_matches_full_inside_count():
    # a circle is empty iff no static lies inside it: the first static
    # found inside settles it, and the answer is that of the full count,
    # by the wall's signs and point by point
    answers = collections.Counter()
    for dim, frame, mover, b in _wall_frames(random.Random("emptiness")):
        table = _frame_walls(dim, frame, mover, b) if dim == 2 else None
        if table is None:
            continue
        statics = [q for q in range(len(frame)) if q != mover]
        lifted = {q: _homogeneous_lift(frame[q]) for q in statics}
        for w in table[0]:
            if len(w[0]) == 3:
                empty = geometry._circle_empty(w, lifted, statics)
                count = geometry._off_wall_signs(w, lifted, statics).count(
                    -geometry._sgn(w[1][2]))
                assert empty == (count == 0)
                assert count == sum(inside_circle(frame, w[0], mover))
                answers[empty] += 1
    assert answers[True] > 200 and answers[False] > 1000
