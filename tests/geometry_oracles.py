"""Event separation as it ran before the one sort: the row-wise pass
(``rowwise_separate_events``) refines every pair of brackets that overlaps
when visited, and before it a sweep (``sweep_separate_events``) listed the
pairs that overlap at the start and refined only those.  The tests compare
the sort's order with the row-wise pass, and the row-wise pass with the
sweep.  Also the in-circle count point by point, by
``point_in_circumcircle``.

``bracket_rational_root`` is the bracket of a rational root as
``PredicatePoly`` made it before its closed form: halved until both ends
are off the root.  ``general_bisect`` is ``PredicatePoly.bisect`` without
its closed forms, taking the signs at the midpoint and at the left end,
and ``bisection_sign_at_root`` is ``sign_at_root`` as a loop that
bisects the bracket until aux keeps one sign on it, and
``per_call_side_at_root`` a side sign as a call per ordered triple: each
call interpolates its triple in the order given and takes the sign at the
root anew.

``discriminant_first_roots`` is ``PredicatePoly.roots_in_unit_interval``
with the discriminant taken before the vertex test.
``per_segment_detect_events`` is ``detect_events`` as it ran before the
wall table: each segment puts all points into the integer frame of the
lcm of their denominators (``integer_frame``) and writes every wall poly
down anew there (``line_wall``, ``circle_wall``, ``plane_wall``,
``segment_walls``), tests the statics at each change of mover
(``static_genericity_2d``) and counts the statics inside a circle point by
point (``inside_circle``).  It reads an event's cyclic order from its
diagonals (``two_sided_quad``), signing each triple once by its sorted
order and the parity (``side_at_root``), with the side polys written down
from the points; a quadruple in space that is not in convex position
becomes a separator, as in ``detect_events``."""

import functools
import itertools
import math
from fractions import Fraction

from gnk.gamma import dihedral_canonical
from gnk.geometry import (DegenerateTrajectory, Event, PredicatePoly,
                          _inside, _labels, _linear_root, _overlap,
                          _separate_events, _sgn, orient2d,
                          point_in_circumcircle, sign_at_root)

# sort key of brackets by left end, compared exactly
_by_left_end = functools.cmp_to_key(lambda b1, b2: b1[0] * b2[2] - b2[0] * b1[2])


def integer_frame(points):
    """The rational points multiplied by the lcm of their coordinates'
    denominators: int tuples on which every predicate has the same sign."""
    scale = math.lcm(*(x.denominator for pt in points for x in pt))
    return [tuple(x.numerator * (scale // x.denominator) for x in pt)
            for pt in points]


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def bracket_rational_root(poly, r, lo, hi, den):
    """A sign-change bracket of poly around its simple root r/den, inside
    the limits (lo/den, hi/den): half-width a quarter of the distance to
    the nearer limit, halved until both ends are off the root."""
    m = min(r - lo, hi - r)
    r, den = 4 * r, 4 * den
    while True:
        slo, shi = poly.sign(r - m, den), poly.sign(r + m, den)
        if slo != 0 and shi != 0 and slo != shi:
            return (r - m, r + m, den)
        r, den = 2 * r, 2 * den


def general_bisect(poly, bracket):
    """Halve a sign-change bracket of poly by the signs at its midpoint and
    at its left end; a root met at the midpoint gets a new bracket centred
    on it."""
    lo, hi, den = bracket
    mid, den2 = lo + hi, 2 * den
    smid = poly.sign(mid, den2)
    if smid == 0:
        return bracket_rational_root(poly, mid, 2 * lo, 2 * hi, den2)
    if smid == poly.sign(lo, den):
        return (mid, 2 * hi, den2)
    return (2 * lo, mid, den2)


def bisection_sign_at_root(main, bracket, aux):
    """Exact sign of aux (degree <= 2) at main's isolated root, 0 when they
    share it: bisect the bracket until aux has one nonzero sign at both
    ends and no root inside."""
    if (aux.c2, aux.c1, aux.c0) == (0, 0, 0) or main.shares_root(aux, bracket):
        return 0
    while True:
        lo, hi, den = bracket
        slo, shi = aux.sign(lo, den), aux.sign(hi, den)
        if slo != 0 and slo == shi and not _aux_root_inside(aux, bracket):
            return slo
        bracket = main.bisect(bracket)


def _aux_root_inside(aux, bracket) -> bool:
    if aux.c2 == 0:
        if aux.c1 == 0:
            return False
        return _inside(*_linear_root(aux.c1, aux.c0), bracket)
    disc = aux.c1 * aux.c1 - 4 * aux.c2 * aux.c0
    if disc < 0:
        return False
    lo, hi, den = bracket
    slo = aux.sign(lo, den)
    if slo != aux.sign(hi, den):
        return True
    v, d = _linear_root(2 * aux.c2, aux.c1)
    if not _inside(v, d, bracket):
        return False
    svertex = aux.sign(v, d)
    return svertex != slo or svertex == 0


def per_call_side_at_root(poly, br, predicate, point, mover=None):
    """side_sign(x, y, z): the sign of ``predicate`` on the points x, y, z
    (``point(q, t)`` is point q at time t) at the root of poly in br, one
    interpolation and one ``bisection_sign_at_root`` per call.  With
    ``mover`` given, a triple without it is signed directly on its static
    points."""
    def side_sign(x, y, z):
        if mover is not None and mover not in (x, y, z):
            return _sgn(predicate(point(x, 0), point(y, 0), point(z, 0)))
        aux = PredicatePoly.interpolate(
            lambda t: predicate(point(x, t), point(y, t), point(z, t)))
        return bisection_sign_at_root(poly, br, aux)
    return side_sign


def line_wall(x0, d, p, q):
    """The wall of the mover x0 + t d against the line through p and q,
    2 orient2d(p, q, x), as ``PredicatePoly.interpolate`` stores it."""
    ux, uy = q[0] - p[0], q[1] - p[1]
    return PredicatePoly(0, 2 * (ux * d[1] - uy * d[0]),
                         2 * (ux * (x0[1] - p[1]) - uy * (x0[0] - p[0])))


def circle_coeffs(a, b, c):
    """(lx, ly, A) with incircle(a, b, c, x) = lx px + ly py - A |p|^2 for
    p = x - a; A is orient2d(a, b, c)."""
    bx, by, cx, cy = b[0] - a[0], b[1] - a[1], c[0] - a[0], c[1] - a[1]
    bb, cc = bx * bx + by * by, cx * cx + cy * cy
    return bb * cy - cc * by, cc * bx - bb * cx, bx * cy - by * cx


def plane_wall(x0, d, p, q, r):
    """The wall of the mover x0 + t d against the plane through p, q and r,
    2 orient3d(p, q, r, x), as ``PredicatePoly.interpolate`` stores it."""
    nx, ny, nz = cross(_sub(q, p), _sub(r, p))
    wx, wy, wz = _sub(x0, p)
    return PredicatePoly(0, 2 * (nx * d[0] + ny * d[1] + nz * d[2]),
                         2 * (nx * wx + ny * wy + nz * wz))


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def side_at_root(poly, br, mover, static, line):
    """side_sign(x, y, z) for ``two_sided_quad``: the sign of the side
    predicate (orient2d, or in space det[y - x, z - x, normal]) on the
    points x, y, z at the root of poly in br.

    The predicate is alternating, so each triple is signed once, sorted, and
    a permutation multiplies that sign by its parity.  ``static`` is the
    sign of the sorted triple of statics; a triple with the mover is signed
    at the root by ``line(p, q)``, the predicate's poly on (p, q, mover) with
    p, q the other two in cyclic order (a rotation keeps the sign)."""
    signs = {}

    def side_sign(x, y, z):
        key = tuple(sorted((x, y, z)))
        s = signs.get(key)
        if s is None:
            a, b, c = key
            if mover not in key:
                s = static
            else:
                s = sign_at_root(poly, br, line(
                    *((b, c) if a == mover else (c, a) if b == mover
                      else (a, b))))
            signs[key] = s
        return -s if ((x > y) + (x > z) + (y > z)) & 1 else s
    return side_sign


def two_sided_quad(pts, side_sign):
    """The dihedral class of the four points pts (0-based) around their
    convex hull, or None when they are not in convex position.

    A pair is a diagonal iff it separates the other two and they separate
    it, as ``side_sign(x, y, z)`` tells; a point inside the triangle of the
    other three passes the first half only."""
    for x, y in itertools.combinations(pts, 2):
        z, w = [q for q in pts if q not in (x, y)]
        if side_sign(x, y, z) * side_sign(x, y, w) < 0 \
                and side_sign(z, w, x) * side_sign(z, w, y) < 0:
            return dihedral_canonical((x + 1, z + 1, y + 1, w + 1))
    return None


def inside_count(conf, triple) -> int:
    """Number of configuration points strictly inside circle(triple), one
    ``point_in_circumcircle`` call per point."""
    a, b, c = (conf[q] for q in triple)
    return sum(1 for t, pt in enumerate(conf) if t not in triple
               and point_in_circumcircle(a, b, c, pt) > 0)


def rowwise_separate_events(events):
    """Refine brackets until pairwise disjoint within one segment, drop the
    separators, and sort the other events by time, in place.

    One pass over the pairs i < j in lexicographic order refines each pair
    while its current brackets overlap; row i holds b_i, which no later row
    changes.  Brackets only shrink, so a pair disjoint at the start is
    passed over, and shares_root, whose candidate root does not depend on
    the bracket, answers a pair once.
    """
    for i, e1 in enumerate(events):
        p1, b1 = e1.poly, e1.bracket
        for e2 in events[i + 1:]:
            p2, b2 = e2.poly, e2.bracket
            guard = 0
            while not (b1[1] * b2[2] <= b2[0] * b1[2]
                       or b2[1] * b1[2] <= b1[0] * b2[2]):
                if guard == 0 and p1.shares_root(p2, _overlap(b1, b2)):
                    raise DegenerateTrajectory(
                        "simultaneous events %r and %r in segment %d"
                        % (e1.participants, e2.participants, e1.segment))
                b1, b2 = p1.bisect(b1), p2.bisect(b2)
                guard += 1
                if guard > 4000:
                    raise DegenerateTrajectory(
                        "cannot separate event brackets")
            e2.bracket = b2
        e1.bracket = b1
    # disjoint brackets: left ends are distinct
    events[:] = [e for e in events if e.kind != "_separator"]
    events.sort(key=lambda e: _by_left_end(e.bracket))
    return events


def sweep_separate_events(events):
    """Refine the brackets of the pairs that overlap at the start, in
    itertools.combinations order, until pairwise disjoint; drop the
    separators and sort the other events by time, in place."""
    brs = [e.bracket for e in events]
    for i, j in overlapping_pairs(brs):
        p1, p2 = events[i].poly, events[j].poly
        b1, b2 = brs[i], brs[j]
        guard = 0
        while not (b1[1] * b2[2] <= b2[0] * b1[2]
                   or b2[1] * b1[2] <= b1[0] * b2[2]):
            if guard == 0 and p1.shares_root(p2, _overlap(b1, b2)):
                raise DegenerateTrajectory(
                    "simultaneous events %r and %r in segment %d"
                    % (events[i].participants, events[j].participants,
                       events[i].segment))
            b1, b2 = p1.bisect(b1), p2.bisect(b2)
            guard += 1
            if guard > 4000:
                raise DegenerateTrajectory("cannot separate event brackets")
        brs[i], brs[j] = b1, b2
    for e, br in zip(events, brs):
        e.bracket = br
    events[:] = [e for e in events if e.kind != "_separator"]
    events.sort(key=lambda e: _by_left_end(e.bracket))
    return events


def overlapping_pairs(brs):
    """Index pairs i < j of overlapping brackets, in lexicographic order:
    a sweep over the brackets sorted by left end."""
    order = sorted(range(len(brs)), key=lambda i: _by_left_end(brs[i]))
    pairs = []
    for k, i in enumerate(order):
        hi, den = brs[i][1], brs[i][2]
        for j in order[k + 1:]:
            if brs[j][0] * den >= hi * brs[j][2]:
                break
            pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


def discriminant_first_roots(poly):
    """``roots_in_unit_interval`` with the discriminant decided first and
    the vertex test after it."""
    c2, c1, c0 = poly.c2, poly.c1, poly.c0
    if c2 == 0 and c1 == 0 and c0 == 0:
        raise DegenerateTrajectory("predicate vanishes identically")
    if c0 == 0 or c2 + c1 + c0 == 0:
        raise DegenerateTrajectory("event at a segment endpoint")
    s0, s1 = _sgn(c0), _sgn(c2 + c1 + c0)
    if c2 == 0:
        if s0 == s1:
            return []
        r, d = _linear_root(c1, c0)
        return [bracket_rational_root(poly, r, 0, d, d)]
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    vertex_inside = 0 < -c1 * _sgn(c2) < 2 * abs(c2)
    if disc == 0:
        if vertex_inside:
            raise DegenerateTrajectory("tangential (double-root) event")
        return []
    if not vertex_inside:
        return [(0, 1, 1)] if s0 != s1 else []
    sv = -_sgn(c2)
    v, d = _linear_root(2 * c2, c1)
    return ([(0, v, d)] if s0 != sv else []) + \
        ([(v, d, d)] if sv != s1 else [])


def circle_wall(x0, d, a, b, c):
    """The circle wall of the mover x0 + t d through a, b, c, as
    ``PredicatePoly.interpolate`` stores it."""
    lx, ly, area = circle_coeffs(a, b, c)
    wx, wy, dx, dy = x0[0] - a[0], x0[1] - a[1], d[0], d[1]
    return PredicatePoly(
        -2 * area * (dx * dx + dy * dy),
        2 * (lx * dx + ly * dy) - 4 * area * (wx * dx + wy * dy),
        2 * (lx * wx + ly * wy - area * (wx * wx + wy * wy)))


def segment_walls(frame, statics, x0, d, wall, size, seg, p):
    """(static tuple, poly, bracket) for every root in (0, 1) of the wall
    polynomial of every ``size``-subset of the statics, in combinations
    order; a degenerate root raises naming segment ``seg``, the points and
    the mover p."""
    for tup in itertools.combinations(statics, size):
        poly = wall(x0, d, *[frame[s] for s in tup])
        try:
            brackets = poly.roots_in_unit_interval()
        except DegenerateTrajectory as exc:
            raise DegenerateTrajectory("%s: segment %d, points %r, mover %d"
                                       % (exc, seg, _labels(tup, p), p)) \
                from None
        for br in brackets:
            yield tup, poly, br


def static_genericity_2d(conf, mover, circles=False):
    """Raise on three collinear statics, and with ``circles`` on four
    concyclic ones."""
    statics = [pt for q, pt in enumerate(conf) if q != mover]
    for a, b, c in itertools.combinations(statics, 3):
        if orient2d(a, b, c) == 0:
            raise DegenerateTrajectory("three static points collinear")
    if circles:
        for i, j, k in itertools.combinations(range(len(statics)), 3):
            a = statics[i]
            lx, ly, area = circle_coeffs(a, statics[j], statics[k])
            for x, y in statics[k + 1:]:
                px, py = x - a[0], y - a[1]
                if lx * px + ly * py == area * (px * px + py * py):
                    raise DegenerateTrajectory("four static points concyclic")


def inside_circle(conf, triple, mover=None):
    """For every point but the triple and the mover, in index order: does it
    lie strictly inside the circle through the triple?  Each point is one
    evaluation of the triple's ``circle_coeffs``, negated with a negative
    area, as ``point_in_circumcircle`` signs ``incircle``; a collinear triple
    raises at the first point tested."""
    (ax, ay), b, c = (conf[s] for s in triple)
    lx, ly, area = circle_coeffs((ax, ay), b, c)
    if area < 0:
        lx, ly, area = -lx, -ly, -area
    for x, (px, py) in enumerate(conf):
        if x not in triple and x != mover:
            if area == 0:
                raise DegenerateTrajectory("collinear circle points")
            px, py = px - ax, py - ay
            yield lx * px + ly * py > area * (px * px + py * py)


def per_segment_detect_events(tr, kind):
    """``detect_events`` with one integer frame per segment and every wall
    poly written down from the points of that frame."""
    if kind not in ("collinear3", "concyclic4", "delaunay_flip",
                    "coplanar_special"):
        raise ValueError("unknown event kind %r" % kind)
    out = []
    conf = list(tr.initial)
    for seg, (p, to) in enumerate(tr.moves):
        mover = p - 1
        *frame, b = integer_frame(conf + [to])
        x0 = frame[mover]
        d = _sub(b, x0)
        events = []
        statics = [q for q in range(tr.n) if q != mover]
        if kind == "coplanar_special":
            for trip, poly, br in segment_walls(frame, statics, x0, d,
                                                plane_wall, 3, seg, p):
                s1, s2, s3 = (frame[s] for s in trip)
                normal = cross(_sub(s2, s1), _sub(s3, s1))
                sides = {_sgn(_dot(normal, _sub(frame[x], s1)))
                         for x in statics if x not in trip}
                if 0 in sides:
                    raise DegenerateTrajectory("static point on event plane")
                if len(sides) > 1:
                    continue
                quad = two_sided_quad(trip + (mover,), side_at_root(
                    poly, br, mover, 1, lambda q1, q2: plane_wall(
                        x0, d, frame[q1], _add(frame[q1], normal), frame[q2])))
                # not convex: a point crossing a face of the hull
                events.append(
                    Event(seg, br, kind, _labels(trip, p), poly, quad)
                    if quad else
                    Event(seg, br, "_separator", _labels(trip, p), poly))
        else:
            if seg == 0 or tr.moves[seg - 1][0] != p:
                static_genericity_2d(frame, mover,
                                     circles=kind != "collinear3")
                inside = {}
            if kind != "collinear3":
                def line(q1, q2):
                    return line_wall(x0, d, frame[q1], frame[q2])

                for trip, poly, br in segment_walls(frame, statics, x0, d,
                                                    circle_wall, 3, seg, p):
                    if trip not in inside:
                        inside[trip] = sum(inside_circle(frame, trip, mover))
                    if kind == "delaunay_flip" and inside[trip]:
                        continue
                    quad = two_sided_quad(trip + (mover,), side_at_root(
                        poly, br, mover,
                        _sgn(orient2d(*(frame[s] for s in trip))), line))
                    if quad is None:
                        raise DegenerateTrajectory(
                            "event points not in convex position")
                    events.append(Event(seg, br, kind, _labels(trip, p), poly,
                                        quad, inside=inside[trip]))
            for (s1, s2), poly, br in segment_walls(frame, statics, x0, d,
                                                    line_wall, 2, seg, p):
                if kind == "collinear3":
                    events.append(Event(seg, br, kind, _labels((s1, s2), p),
                                        poly))
                else:
                    events.append(Event(seg, br, "_separator",
                                        (s1 + 1, s2 + 1, p), poly))
        for e in _separate_events(events):
            if e.kind != "_separator":
                lo, hi, den = e.bracket
                e.bracket = (Fraction(lo, den), Fraction(hi, den))
                out.append(e)
        conf[mover] = to
    return out
