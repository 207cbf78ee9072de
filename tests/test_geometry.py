import collections
import itertools
import random
from fractions import Fraction

import pytest

from gnk import geometry
from gnk.braids import generator, pb_to_gamma4, pb_to_gn3, pb_to_gn4
from gnk.gamma import Gamma4Group, dihedral_canonical
from gnk.geometry import (DegenerateConfiguration, DegenerateTrajectory,
                          PredicatePoly, Trajectory, canonical_generator_trajectory,
                          circle_points, compile_word, delaunay, detect_events,
                          incircle, inside_count, orient2d, orient3d,
                          point_in_circumcircle, sign_at_root)
from gnk.gnk import GnkGroup
from gnk.words import format_word
from geometry_oracles import overlapping_pairs, sweep_separate_events

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
    tr = Trajectory([(0, 0), (2, 0), (0, 2), (1, 0)], [(4, (1, 2))])
    with pytest.raises(DegenerateTrajectory):
        detect_events(tr, "collinear3")


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
        cnt = inside_count(pts, (j - 1, p - 1, q - 1))
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
        cnt = inside_count(pts, trip)
        oracle = sum(1 for t in range(7) if t not in trip
                     and point_in_circumcircle(pts[trip[0]], pts[trip[1]],
                                               pts[trip[2]], pts[t]) > 0)
        assert cnt == oracle
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
        assert list(geometry._inside_circle(square, trip)) == [False, True]
        assert point_in_circumcircle(*(square[q] for q in trip),
                                     square[3]) == 0
    # a collinear triple raises, but only once a point is tested
    pts = [(0, 0), (1, 1), (2, 2), (5, 0)]
    assert list(geometry._inside_circle(pts[:3], (0, 1, 2))) == []
    with pytest.raises(DegenerateTrajectory, match="collinear circle points"):
        inside_count(pts, (0, 1, 2))
    with pytest.raises(DegenerateTrajectory, match="collinear circle points"):
        point_in_circumcircle(*pts)


def _check_inside_without_mover(pts, trip, mover):
    """The points other than the triple and the mover inside the circle of
    the triple, checked against the count and the emptiness test the graded
    compile and the Delaunay flips read."""
    inside = [t for t in range(len(pts)) if t not in trip and t != mover
              and point_in_circumcircle(*(pts[q] for q in trip), pts[t]) > 0]
    assert sum(geometry._inside_circle(pts, trip, mover)) == len(inside)
    assert any(geometry._inside_circle(pts, trip, mover)) == bool(inside)
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
    for n in (3, 4, 5, 6):
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
    assert tr.is_closed()


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


def test_graded_compile_components_match_inside_counts():
    # every emitted letter of the graded compile sits in the component given
    # by the event circle's inside count, folded mod r
    n = 6
    tr = canonical_generator_trajectory(n, 1, 2, "circle_gamma4")
    comps, events = compile_word(tr, "gamma4_graded")
    r = n - 4
    confs = tr.configurations()
    total = sum(len(c.letters) <= len(c.letters) for c in comps)
    per_alpha = [0] * (r // 2 + 1)
    for e in events:
        conf = confs[e.segment]
        mover = tr.moves[e.segment][0] - 1
        trip = tuple(q - 1 for q in e.participants if q - 1 != mover)
        z = inside_count(conf, trip)
        if point_in_circumcircle(conf[trip[0]], conf[trip[1]], conf[trip[2]],
                                 conf[mover]) > 0:
            z -= 1
        alpha = min(z % r, (-z) % r)
        per_alpha[alpha] += 1
    raw_counts = [len(c) for c in comps]
    # reduced words cannot have more letters than raw event counts per slot
    assert all(rc <= pa for rc, pa in zip(raw_counts, per_alpha))
    assert sum(per_alpha) == len(events)


def test_orient3d_and_coplanar_events():
    assert orient3d((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)) > 0
    pts = [(0, 0, 0), (3, 0, 0), (0, 3, 0), (1, 1, 5), (1, 1, -2)]
    tr = Trajectory(pts, [(5, (1, 1, 2)), (5, (1, 1, -2))], dim=3)
    events = detect_events(tr, "coplanar_special")
    assert events
    for e in events:
        assert e.kind == "coplanar_special"
        assert e.quad is not None
        assert e.side in (1, -1)


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
    pts = [(0, 0, 0), (3, 0, 0), (0, 3, 0), (1, 1, 5), (1, 1, -2)]
    tr = Trajectory(pts, [(5, (1, 1, 2)), (5, (1, 1, -2))], dim=3)
    w, evs = compile_word(tr, "gamma4_space")
    wr, _ = compile_word(tr.reversed(), "gamma4_space")
    assert wr.letters == w.inverse().letters
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


class OracleEvent:
    def __init__(self, segment, bracket, kind, participants, poly, side=None):
        self.segment, self.bracket, self.kind = segment, bracket, kind
        self.participants, self.poly = participants, poly
        self.quad, self.side = None, side


def _oracle_separate(events):
    for e1, e2 in itertools.combinations(events, 2):
        guard = 0
        while not (e1.bracket[1] <= e2.bracket[0]
                   or e2.bracket[1] <= e1.bracket[0]):
            overlap = (max(e1.bracket[0], e2.bracket[0]),
                       min(e1.bracket[1], e2.bracket[1]))
            if e1.poly.shares_root(e2.poly, *overlap):
                raise DegenerateTrajectory(
                    "simultaneous events %r and %r in segment %d"
                    % (e1.participants, e2.participants, e1.segment))
            e1.bracket = e1.poly.bisect(*e1.bracket)
            e2.bracket = e2.poly.bisect(*e2.bracket)
            guard += 1
            if guard > 4000:
                raise DegenerateTrajectory("cannot separate event brackets")
    events.sort(key=lambda e: e.bracket[0])
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
    for x, y in itertools.combinations(pts, 2):
        z, w = [q for q in pts if q not in (x, y)]
        if side_sign(x, y, z) * side_sign(x, y, w) < 0:
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
                for br in poly.roots_in_unit_interval():
                    events.append(OracleEvent(seg, br, kind, tuple(
                        sorted((s1 + 1, s2 + 1, p))), poly))
        elif kind in ("concyclic4", "delaunay_flip"):
            _oracle_static_genericity(conf, mover, circles=True)
            for trip in itertools.combinations(statics, 3):
                s1, s2, s3 = trip
                poly = OraclePoly.interpolate(
                    lambda t: incircle(conf[s1], conf[s2], conf[s3], pos(t)))
                for br in poly.roots_in_unit_interval():
                    if kind == "delaunay_flip" and any(
                            point_in_circumcircle(conf[s1], conf[s2], conf[s3],
                                                  conf[x]) > 0
                            for x in statics if x not in trip):
                        continue
                    ev = OracleEvent(seg, br, kind, tuple(sorted(
                        (s1 + 1, s2 + 1, s3 + 1, p))), poly)

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
                for br in poly.roots_in_unit_interval():
                    events.append(OracleEvent(seg, br, "_separator",
                                              (s1 + 1, s2 + 1, p), poly))
        else:                                   # coplanar_special
            for trip in itertools.combinations(statics, 3):
                s1, s2, s3 = trip
                poly = OraclePoly.interpolate(
                    lambda t: orient3d(conf[s1], conf[s2], conf[s3], pos(t)))
                for br in poly.roots_in_unit_interval():
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
                    ev = OracleEvent(seg, br, kind, tuple(sorted(
                        (s1 + 1, s2 + 1, s3 + 1, p))), poly,
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
                    if ev.quad is not None:
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
        return Gamma4Group(n).word_from_quads([e.quad for e in events]), events
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
    return (tuple(Gamma4Group(n).word_from_quads(c) for c in comps), events)


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
            *frame, b = geometry._integer_frame(pts)
            yield 2 + lift, frame, p - 1, b


def test_closed_form_walls_match_interpolate():
    # the line, circle and plane walls written down from the points equal
    # the interpolated ones coefficient for coefficient
    walls = {2: ((geometry._line, orient2d, 2),
                 (geometry._circle, incircle, 3)),
             3: ((geometry._plane, orient3d, 3),)}
    checked = 0
    for dim, frame, mover, b in _wall_frames(random.Random("walls")):
        x0 = frame[mover]
        d = tuple(y - x for x, y in zip(x0, b))
        statics = [pt for q, pt in enumerate(frame) if q != mover]
        for wall, predicate, size in walls[dim]:
            for tup in itertools.combinations(statics, size):
                want = PredicatePoly.interpolate(lambda t: predicate(
                    *tup, tuple(x + t * dx for x, dx in zip(x0, d))))
                got = wall(x0, d, *tup)
                assert (got.c2, got.c1, got.c0) == (want.c2, want.c1, want.c0)
                checked += 1
    assert checked > 5000


CANONICAL_TARGETS = {"circle_gn3": ("gn3",), "parabola_gn4": ("gn4",),
                     "circle_gamma4": ("gamma4", "gamma4_graded")}


def test_canonical_compiles_decide_on_ints_and_fractions(monkeypatch):
    # every wall predicate runs on an integer frame, every predicate
    # polynomial (wall or side sign) has int coefficients, every point a
    # sign is taken at is an int pair (u, v) standing for u / v with v > 0,
    # never a float, and reported brackets are Fractions
    polys, points, coords = [], [], set()
    interpolate, sign = PredicatePoly.interpolate.__func__, PredicatePoly.sign
    roots = PredicatePoly.roots_in_unit_interval

    def recording(predicate):
        def wrapper(*pts):
            coords.update(type(x) for pt in pts for x in pt)
            return predicate(*pts)
        return wrapper

    for name in ("orient2d", "incircle", "orient3d"):
        monkeypatch.setattr(geometry, name, recording(getattr(geometry, name)))

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
    # segment the row-wise pass gives the brackets and order of the sweep
    # over the pairs that overlap at the start, and the sweep finds exactly
    # those pairs
    separate, overlapping = geometry._separate_events, [0]

    def checking_separate(events):
        want = _overlapping_at_start([e.bracket for e in events])
        assert overlapping_pairs([e.bracket for e in events]) == want
        overlapping[0] += len(want)
        copies = [geometry.Event(e.segment, e.bracket, e.kind, e.participants,
                                 e.poly, e.quad, e.side) for e in events]
        want = _separation(sweep_separate_events, copies)
        got = _separation(separate, events)
        assert got == want
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
    # in it is decided once per event pair, not once per bisection
    separate = geometry._separate_events
    shares_root, bisect = PredicatePoly.shares_root, PredicatePoly.bisect
    calls, totals = None, {"calls": 0, "bisections": 0}

    def counting_separate(events):
        nonlocal calls
        pairs = collections.Counter(
            (id(e1.poly), id(e2.poly))
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
            calls[id(self), id(other)] += 1
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
