"""Exact compiler from piecewise-linear point dynamics to invariant words.

A trajectory moves one point per segment along a straight line with rational
endpoints; all wall predicates (three points collinear, four concyclic, four
coplanar) specialise to univariate polynomials of degree <= 2 in the segment
parameter.  Each segment is first put into an integer frame (every
coordinate multiplied by the lcm of the segment's denominators); the wall
predicates are homogeneous, so the frame keeps every sign and every
predicate polynomial has Python int coefficients.  Event times are isolated
into rational brackets, kept as int triples until an event is reported
(never evaluated numerically: only the event ORDER and exact side
decisions matter), letters are emitted per event in time order, and the
concatenation freely reduces to the invariant word.

No floating point is used anywhere.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction

from .gamma import Gamma4Group, dihedral_canonical, graded_words
from .gnk import GnkGroup


class DegenerateTrajectory(Exception):
    """Genericity violation: identically-zero predicate, inseparable events,
    tangency, or a configuration degeneracy."""


# ---------------------------------------------------------------------------
# exact predicates: homogeneous in the coordinates, so they give the same
# signs on rational points and on any positive multiple of them


def orient2d(a, b, c):
    """Twice the signed area of (a, b, c); > 0 for counterclockwise."""
    return ((b[0] - a[0]) * (c[1] - a[1])
            - (b[1] - a[1]) * (c[0] - a[0]))


def incircle(a, b, c, d):
    """Positive iff d lies inside the circle through a, b, c taken ccw.

    The raw 4x4 lift determinant; callers must normalise by orient2d(a,b,c)
    when the triangle orientation is unknown.
    """
    adx, ady = a[0] - d[0], a[1] - d[1]
    bdx, bdy = b[0] - d[0], b[1] - d[1]
    cdx, cdy = c[0] - d[0], c[1] - d[1]
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    return (alift * (bdx * cdy - cdx * bdy)
            - blift * (adx * cdy - cdx * ady)
            + clift * (adx * bdy - bdx * ady))


def point_in_circumcircle(a, b, c, x):
    """Sign: +1 strictly inside the circle through a,b,c, -1 outside, 0 on."""
    o = orient2d(a, b, c)
    if o == 0:
        raise DegenerateTrajectory("collinear circle points")
    v = incircle(a, b, c, x)
    s = (v > 0) - (v < 0)
    return s if o > 0 else -s


def orient3d(a, b, c, d):
    m = [[b[i] - a[i] for i in range(3)],
         [c[i] - a[i] for i in range(3)],
         [d[i] - a[i] for i in range(3)]]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


# ---------------------------------------------------------------------------
# univariate quadratics with integer coefficients
#
# A bracket is an int triple (lo, hi, den), den > 0, standing for the open
# interval (lo/den, hi/den).  Brackets are never reduced: bisection doubles
# den, and comparisons cross-multiply.


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def _linear_root(c1, c0):
    """The root -c0/c1 of c1 t + c0 (c1 != 0) as (num, den), den > 0."""
    return (-c0, c1) if c1 > 0 else (c0, -c1)


def _inside(num, d, bracket) -> bool:
    """Does num/d (d > 0) lie strictly inside the bracket?"""
    lo, hi, den = bracket
    return lo * d < num * den < hi * d


class PredicatePoly:
    """A positive multiple of p(t) = c2 t^2 + c1 t + c0, kept with int
    coefficients.

    Only the signs and roots of p are ever read, and a positive factor keeps
    both, so a polynomial with rational coefficients is given by an int
    multiple of it."""

    __slots__ = ("c2", "c1", "c0")

    def __init__(self, c2: int, c1: int, c0: int):
        self.c2, self.c1, self.c0 = c2, c1, c0

    @classmethod
    def interpolate(cls, f):
        """Fit the (at most quadratic) function f from values at 0, 1, 2.

        f takes an int t and, on an integer frame, returns an int; the poly
        stores 2 p, which is integral.  A fourth evaluation at t = 3 guards
        against callers passing higher-degree predicates: line and circle
        walls with one linear mover are degree <= 2, anything else is a
        programming error."""
        f0, f1, f2 = f(0), f(1), f(2)
        c2, c1, c0 = f0 - 2 * f1 + f2, 4 * f1 - 3 * f0 - f2, 2 * f0
        if 9 * c2 + 3 * c1 + c0 != 2 * f(3):
            raise DegenerateTrajectory("predicate degree exceeds 2")
        return cls(c2, c1, c0)

    def sign(self, u, v) -> int:
        """Sign of p at t = u/v, v > 0: that of v^2 p(u/v)."""
        s = (self.c2 * u + self.c1 * v) * u + self.c0 * v * v
        return (s > 0) - (s < 0)

    def is_zero(self) -> bool:
        return self.c2 == 0 and self.c1 == 0 and self.c0 == 0

    def roots_in_unit_interval(self):
        """Isolating brackets with sign changes, for roots in (0, 1).

        Raises DegenerateTrajectory on identically-zero polynomials, roots at
        segment endpoints, and tangencies (double roots).
        """
        if self.is_zero():
            raise DegenerateTrajectory("predicate vanishes identically")
        c2, c1, c0 = self.c2, self.c1, self.c0
        if c0 == 0 or c2 + c1 + c0 == 0:
            raise DegenerateTrajectory("event at a segment endpoint")
        s0, s1 = _sgn(c0), _sgn(c2 + c1 + c0)
        if c2 == 0:
            if s0 == s1:
                return []
            r, d = _linear_root(c1, c0)
            return [self._bracket_rational_root(r, 0, d, d)]
        disc = c1 * c1 - 4 * c2 * c0
        if disc < 0:
            return []
        # the vertex -c1 / (2 c2) lies in (0, 1)
        vertex_inside = 0 < -c1 * _sgn(c2) < 2 * abs(c2)
        if disc == 0:
            if vertex_inside:
                raise DegenerateTrajectory("tangential (double-root) event")
            return []
        if not vertex_inside:
            return [(0, 1, 1)] if s0 != s1 else []
        # p(vertex) = -disc / (4 c2) is nonzero, of the sign opposite to c2
        sv = -_sgn(c2)
        v, d = _linear_root(2 * c2, c1)
        return ([(0, v, d)] if s0 != sv else []) + \
            ([(v, d, d)] if sv != s1 else [])

    def _bracket_rational_root(self, r, lo, hi, den):
        """A sign-change bracket around the simple root r/den, inside the
        limits (lo/den, hi/den): half-width a quarter of the distance to the
        nearer limit, halved until both ends are off the root."""
        m = min(r - lo, hi - r)
        r, den = 4 * r, 4 * den
        while True:
            slo, shi = self.sign(r - m, den), self.sign(r + m, den)
            if slo != 0 and shi != 0 and slo != shi:
                return (r - m, r + m, den)
            r, den = 2 * r, 2 * den

    def bisect(self, bracket):
        """Halve a sign-change bracket, keeping the root."""
        lo, hi, den = bracket
        mid, den2 = lo + hi, 2 * den
        smid = self.sign(mid, den2)
        if smid == 0:
            return self._bracket_rational_root(mid, 2 * lo, 2 * hi, den2)
        if smid == self.sign(lo, den):
            return (mid, 2 * hi, den2)
        return (2 * lo, mid, den2)

    def shares_root(self, other: "PredicatePoly", bracket) -> bool:
        """Does ``other`` vanish at a root of self inside the bracket?"""
        a, b = self, other
        if a.c2 == 0 and a.c1 == 0:
            return False
        if a.c2 == 0:                        # self linear: test its root
            r, d = _linear_root(a.c1, a.c0)
            return _inside(r, d, bracket) and b.sign(r, d) == 0
        if b.c2 == 0 and b.c1 == 0:
            return False
        if b.c2 == 0:
            r, d = _linear_root(b.c1, b.c0)
            return _inside(r, d, bracket) and a.sign(r, d) == 0
        # both quadratic: eliminate t^2; any common root satisfies the
        # linear combination L = a.c2 * b - b.c2 * a
        l1 = a.c2 * b.c1 - b.c2 * a.c1
        l0 = a.c2 * b.c0 - b.c2 * a.c0
        if l1 == 0 and l0 == 0:
            return True                      # proportional quadratics
        if l1 == 0:
            return False
        r, d = _linear_root(l1, l0)
        return _inside(r, d, bracket) and a.sign(r, d) == 0 \
            and b.sign(r, d) == 0


def sign_at_root(main: PredicatePoly, bracket, aux: PredicatePoly):
    """Exact sign of aux at main's isolated root; 0 when they share it."""
    if aux.is_zero():
        return 0
    if main.shares_root(aux, bracket):
        return 0
    while True:
        lo, hi, den = bracket
        slo, shi = aux.sign(lo, den), aux.sign(hi, den)
        if slo != 0 and slo == shi:
            # aux could still dip through zero inside; rule out via its roots
            if not _aux_root_inside(aux, bracket):
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


# ---------------------------------------------------------------------------
# trajectories


def _to_fraction_point(p):
    return tuple(Fraction(x) for x in p)


def _integer_frame(points):
    """The rational points multiplied by the lcm of their coordinates'
    denominators: int tuples on which every predicate has the same sign."""
    scale = math.lcm(*(x.denominator for pt in points for x in pt))
    return [tuple(x.numerator * (scale // x.denominator) for x in pt)
            for pt in points]


class Trajectory:
    """Piecewise-linear motion script: one moving point per segment."""

    def __init__(self, points, moves, dim=2):
        self.dim = dim
        self.initial = [_to_fraction_point(p) for p in points]
        self.n = len(self.initial)
        self.moves = [(int(p), _to_fraction_point(to)) for p, to in moves]
        for k, pt in enumerate(self.initial):
            if len(pt) != dim:
                raise ValueError("point %d has %d coordinates, dim is %d"
                                 % (k + 1, len(pt), dim))
        for k, (p, to) in enumerate(self.moves):
            if not 1 <= p <= self.n:
                raise ValueError("mover index out of range")
            if len(to) != dim:
                raise ValueError("target of move %d has %d coordinates, dim "
                                 "is %d" % (k + 1, len(to), dim))

    def configurations(self):
        """Config before each segment, plus the final one."""
        conf = list(self.initial)
        out = [list(conf)]
        for p, to in self.moves:
            conf[p - 1] = to
            out.append(list(conf))
        return out

    def reversed(self) -> "Trajectory":
        confs = self.configurations()
        moves = []
        for idx in range(len(self.moves) - 1, -1, -1):
            p, _ = self.moves[idx]
            moves.append((p, confs[idx][p - 1]))
        return Trajectory(confs[-1], moves, self.dim)

    def is_closed(self) -> bool:
        return self.configurations()[-1] == self.initial

    def to_json(self) -> str:
        def enc_pt(pt):
            return [[x.numerator, x.denominator] for x in pt]
        return json.dumps({
            "n": self.n,
            "dim": self.dim,
            "points": [enc_pt(p) for p in self.initial],
            "moves": [{"p": p, "to": enc_pt(to)} for p, to in self.moves],
        })

    @classmethod
    def from_json(cls, text: str) -> "Trajectory":
        data = json.loads(text)
        def dec_pt(pt):
            if not all(type(c) is list and len(c) == 2
                       and all(type(x) is int for x in c) for c in pt):
                raise ValueError("point %r: coordinates must be [num, den] "
                                 "pairs of ints" % (pt,))
            if any(den == 0 for _, den in pt):
                raise ValueError("zero denominator in point %r" % (pt,))
            return tuple(Fraction(num, den) for num, den in pt)
        points = [dec_pt(p) for p in data["points"]]
        if data.get("n", len(points)) != len(points):
            raise ValueError("n is %r but there are %d points"
                             % (data["n"], len(points)))
        if not all(type(m["p"]) is int for m in data["moves"]):
            raise ValueError("mover indices must be ints")
        moves = [(m["p"], dec_pt(m["to"])) for m in data["moves"]]
        return cls(points, moves, data.get("dim", 2))


class Event:
    """One isolated wall crossing."""

    __slots__ = ("segment", "bracket", "kind", "participants", "poly",
                 "quad", "side")

    def __init__(self, segment, bracket, kind, participants, poly,
                 quad=None, side=None):
        self.segment = segment
        self.bracket = bracket
        self.kind = kind
        self.participants = participants
        self.poly = poly
        self.quad = quad          # cyclic order for circle/plane events
        self.side = side          # pointing side for 3D events

    def __repr__(self):
        return "Event(seg=%d, %s, %s, t in (%s, %s))" % (
            self.segment, self.kind, self.participants,
            self.bracket[0], self.bracket[1])


def _mover_positions(x0, d):
    """The mover's positions x0 + t d at t = 0, 1, 2, 3: the only times at
    which PredicatePoly.interpolate evaluates a predicate."""
    return [tuple(x + t * dx for x, dx in zip(x0, d)) for t in range(4)]


# sort key of brackets by left end, compared exactly
_by_left_end = functools.cmp_to_key(lambda b1, b2: b1[0] * b2[2] - b2[0] * b1[2])


def _separate_events(events):
    """Refine brackets until pairwise disjoint within one segment, and sort
    the events by time.

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
    events.sort(key=lambda e: _by_left_end(e.bracket))
    return events


def _overlap(b1, b2):
    """The intersection of two overlapping brackets, on the product den."""
    return (max(b1[0] * b2[2], b2[0] * b1[2]),
            min(b1[1] * b2[2], b2[1] * b1[2]), b1[2] * b2[2])


def _static_genericity_2d(conf, mover, circles=False):
    statics = [pt for q, pt in enumerate(conf) if q != mover]
    for a, b, c in itertools.combinations(statics, 3):
        if orient2d(a, b, c) == 0:
            raise DegenerateTrajectory("three static points collinear")
    if circles:
        for i, j, k in itertools.combinations(range(len(statics)), 3):
            a = statics[i]
            lx, ly, area = _circle_coeffs(a, statics[j], statics[k])
            for x, y in statics[k + 1:]:
                px, py = x - a[0], y - a[1]
                if lx * px + ly * py == area * (px * px + py * py):
                    raise DegenerateTrajectory("four static points concyclic")


# the walls of the mover x0 + t d against a line through two static points,
# or a circle or a plane through three: the poly 2 w(x0 + t d) of the wall
# predicate w, as PredicatePoly.interpolate stores it, written down from the
# points (DECISIONS.md gives the closed forms)
def _line(x0, d, p, q):
    ux, uy = q[0] - p[0], q[1] - p[1]
    return PredicatePoly(0, 2 * (ux * d[1] - uy * d[0]),
                         2 * (ux * (x0[1] - p[1]) - uy * (x0[0] - p[0])))


def _circle_coeffs(a, b, c):
    """(lx, ly, A) with incircle(a, b, c, x) = lx px + ly py - A |p|^2 for
    p = x - a; A is orient2d(a, b, c)."""
    bx, by, cx, cy = b[0] - a[0], b[1] - a[1], c[0] - a[0], c[1] - a[1]
    bb, cc = bx * bx + by * by, cx * cx + cy * cy
    return bb * cy - cc * by, cc * bx - bb * cx, bx * cy - by * cx


def _circle(x0, d, a, b, c):
    lx, ly, area = _circle_coeffs(a, b, c)
    wx, wy, dx, dy = x0[0] - a[0], x0[1] - a[1], d[0], d[1]
    return PredicatePoly(
        -2 * area * (dx * dx + dy * dy),
        2 * (lx * dx + ly * dy) - 4 * area * (wx * dx + wy * dy),
        2 * (lx * wx + ly * wy - area * (wx * wx + wy * wy)))


def _plane(x0, d, p, q, r):
    nx, ny, nz = _cross(_sub(q, p), _sub(r, p))
    wx, wy, wz = _sub(x0, p)
    return PredicatePoly(0, 2 * (nx * d[0] + ny * d[1] + nz * d[2]),
                         2 * (nx * wx + ny * wy + nz * wz))


def _walls(frame, statics, x0, d, wall, size):
    """(static tuple, poly, bracket) for every root in (0, 1) of the wall
    polynomial of every ``size``-subset of the statics, in combinations
    order."""
    for tup in itertools.combinations(statics, size):
        poly = wall(x0, d, *[frame[s] for s in tup])
        for br in poly.roots_in_unit_interval():
            yield tup, poly, br


def _convex_quad(pts, side_sign):
    """The dihedral class of the four points pts (0-based) around their
    convex hull, or None when they are not in convex position.

    A pair is a diagonal iff the other two points lie on opposite sides of
    its line, as ``side_sign(x, y, z)`` tells."""
    for x, y in itertools.combinations(pts, 2):
        z, w = [q for q in pts if q not in (x, y)]
        if side_sign(x, y, z) * side_sign(x, y, w) < 0:
            return dihedral_canonical((x + 1, z + 1, y + 1, w + 1))
    return None


def _side_at_root(poly, br, predicate, point, mover=None):
    """side_sign(x, y, z) for _convex_quad: the sign of ``predicate`` on the
    points x, y, z (``point(q, t)`` is point q at time t) at the root of poly
    in br.  With ``mover`` given, a triple without it is signed directly on
    its static points."""
    def side_sign(x, y, z):
        if mover is not None and mover not in (x, y, z):
            return _sgn(predicate(point(x, 0), point(y, 0), point(z, 0)))
        aux = PredicatePoly.interpolate(
            lambda t: predicate(point(x, t), point(y, t), point(z, t)))
        return sign_at_root(poly, br, aux)
    return side_sign


def _labels(statics, p):
    """The sorted 1-based labels of the static points and the mover p."""
    return tuple(sorted([s + 1 for s in statics] + [p]))


def _inside_circle(conf, triple, mover=None):
    """For every point but the triple and the mover, in index order: does it
    lie strictly inside the circle through the triple?  Each point is one
    evaluation of the triple's ``_circle_coeffs``, signed by its area, as
    ``point_in_circumcircle`` signs ``incircle``; a collinear triple raises
    at the first point tested."""
    (ax, ay), b, c = (conf[s] for s in triple)
    lx, ly, area = _circle_coeffs((ax, ay), b, c)
    for x, (px, py) in enumerate(conf):
        if x not in triple and x != mover:
            if area == 0:
                raise DegenerateTrajectory("collinear circle points")
            px, py = px - ax, py - ay
            yield (lx * px + ly * py - area * (px * px + py * py)) * area > 0


def inside_count(conf, triple) -> int:
    """Number of configuration points strictly inside circle(triple)."""
    return sum(_inside_circle(conf, triple))


def detect_events(tr: Trajectory, kind: str):
    """All isolated wall crossings of the requested kind, in time order.

    Kinds: 'collinear3', 'concyclic4', 'delaunay_flip' (concyclic with an
    empty circle), 'coplanar_special' (3D: convex coplanar quadruple with
    all other points strictly on one side).
    """
    if kind not in ("collinear3", "concyclic4", "delaunay_flip",
                    "coplanar_special"):
        raise ValueError("unknown event kind %r" % kind)
    out = []
    conf = list(tr.initial)
    for seg, (p, to) in enumerate(tr.moves):
        mover = p - 1
        # the segment's integer frame: the configuration, then the target
        *frame, b = _integer_frame(conf + [to])
        x0 = frame[mover]
        d = _sub(b, x0)
        at = _mover_positions(x0, d)

        def point(q, t):
            return at[t] if q == mover else frame[q]

        events = []
        statics = [q for q in range(tr.n) if q != mover]
        if kind == "coplanar_special":
            for trip, poly, br in _walls(frame, statics, x0, d, _plane, 3):
                s1, s2, s3 = (frame[s] for s in trip)
                sides = {_sgn(orient3d(s1, s2, s3, frame[x]))
                         for x in statics if x not in trip}
                if 0 in sides:
                    raise DegenerateTrajectory("static point on event plane")
                if len(sides) > 1:
                    continue
                # sides within the statics' plane: det[y - x, z - x, normal]
                normal = _cross(_sub(s2, s1), _sub(s3, s1))
                quad = _convex_quad(trip + (mover,), _side_at_root(
                    poly, br, lambda px, py, pz:
                        _det3(_sub(py, px), _sub(pz, px), normal), point))
                if quad is not None:
                    events.append(Event(seg, br, kind, _labels(trip, p), poly,
                                        quad, sides.pop() if sides else 1))
        else:
            # the statics, and so their degeneracies, change with the mover
            if seg == 0 or tr.moves[seg - 1][0] != p:
                _static_genericity_2d(frame, mover,
                                      circles=kind != "collinear3")
            if kind != "collinear3":
                for trip, poly, br in _walls(frame, statics, x0, d,
                                             _circle, 3):
                    if kind == "delaunay_flip" and any(
                            _inside_circle(frame, trip, mover)):
                        continue
                    quad = _convex_quad(trip + (mover,), _side_at_root(
                        poly, br, orient2d, point, mover))
                    if quad is None:
                        raise DegenerateTrajectory(
                            "event points not in convex position")
                    events.append(Event(seg, br, kind, _labels(trip, p), poly,
                                        quad))
            # for the circle kinds: hull changes (collinearity crossings)
            # alter the Delaunay triangulation without a cocircularity; keep
            # the event brackets clear of them so that between bracket
            # endpoints the only combinatorial change is the event's own flip
            for (s1, s2), poly, br in _walls(frame, statics, x0, d,
                                             _line, 2):
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


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _det3(u, v, w):
    return (u[0] * (v[1] * w[2] - v[2] * w[1])
            - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


# ---------------------------------------------------------------------------
# compilation to words


# target: (trajectory dim, event kind)
_TARGETS = {"gn3": (2, "collinear3"), "gn4": (2, "concyclic4"),
            "gamma4": (2, "delaunay_flip"), "gamma4_graded": (2, "concyclic4"),
            "gamma4_space": (3, "coplanar_special")}


def compile_word(tr: Trajectory, target: str):
    """Compile a trajectory into a word (or graded tuple) of the target group.

    Targets: 'gn3' (collinearity letters a_ijk), 'gn4' (concyclicity letters
    a_ijkl), 'gamma4' (empty-circle flip letters d_(cyclic)), 'gamma4_graded'
    (all concyclicity events, split by inside count mod n-4),
    'gamma4_space' (3D special singular moments).
    """
    if target not in _TARGETS:
        raise ValueError("unknown compile target %r" % target)
    dim, kind = _TARGETS[target]
    if tr.dim != dim:
        raise ValueError("target %s needs dim %d, the trajectory has dim %d"
                         % (target, dim, tr.dim))
    n = tr.n
    if target == "gamma4_graded":
        if n <= 5:
            raise ValueError("graded target needs n > 5")
        events = detect_events(tr, kind)
        confs = tr.configurations()
        pairs, seg = [], None
        for e in events:
            # z: the static points inside the event circle at the segment start
            mover = tr.moves[e.segment][0] - 1
            trip = tuple(q - 1 for q in e.participants if q - 1 != mover)
            if e.segment != seg:
                seg, frame = e.segment, _integer_frame(confs[e.segment])
            pairs.append((sum(_inside_circle(frame, trip, mover)), e.quad))
        return graded_words(n, pairs), events
    if target in ("gn3", "gn4"):
        group = GnkGroup(n, 3 if target == "gn3" else 4)
        events = detect_events(tr, kind)
        return group.word_from_subsets([e.participants for e in events]), events
    group = Gamma4Group(n)
    events = detect_events(tr, kind)
    return group.word_from_quads([e.quad for e in events]), events


# ---------------------------------------------------------------------------
# Delaunay triangulations (2D, exact)


class DegenerateConfiguration(Exception):
    pass


def delaunay(points):
    """Delaunay triangulation via the lifted-paraboloid lower hull.

    A triple spans a Delaunay triangle iff the plane through its lifts on
    z = x^2 + y^2 supports the lifted point set from below.  Exact over
    rationals; raises DegenerateConfiguration on cocircular quadruples or
    fully collinear input.
    """
    pts = [_to_fraction_point(p) for p in points]
    n = len(pts)
    if n < 3:
        raise DegenerateConfiguration("need at least 3 points")
    lift = [(x, y, x * x + y * y) for x, y in pts]
    tris = set()
    for a, b, c in itertools.combinations(range(n), 3):
        if orient2d(pts[a], pts[b], pts[c]) == 0:
            continue
        below = above = 0
        for x in range(n):
            if x in (a, b, c):
                continue
            v = orient3d(lift[a], lift[b], lift[c], lift[x])
            if v == 0:
                raise DegenerateConfiguration("four cocircular points")
            o = orient2d(pts[a], pts[b], pts[c])
            s = v if o > 0 else -v
            if s < 0:
                below += 1
            else:
                above += 1
        if below == 0:
            tris.add((a + 1, b + 1, c + 1))
    if not tris:
        raise DegenerateConfiguration("no triangles: all points collinear?")
    return tris


# ---------------------------------------------------------------------------
# canonical generator trajectories


def circle_points(n):
    """n exact rational points in ccw order near the n-th roots of unity.

    Tangent half-angle parametrisation keeps coordinates rational; small
    per-point angle and radius nudges break every exact collinearity and
    cocircularity among the points."""
    pts = []
    for k in range(n):
        t = _tan_half_approx(k, n) + Fraction(1, 997 + 89 * k)
        r = 1 + Fraction(k + 1, 100000 + 13 * k)
        den = 1 + t * t
        pts.append((r * (1 - t * t) / den, r * 2 * t / den))
    return pts


def _tan_half_approx(k, n):
    """Rational approximation of tan(pi*k/n) with moderate denominator."""
    val = math.tan(math.pi * k / n)
    if abs(val) > 1e8:
        return Fraction(10 ** 6)
    return Fraction(val).limit_denominator(1000)


def _scale_point(p, s):
    return tuple(x * s for x in p)


def _between_angle_point(p1, p2, radius_scale):
    """Point near the midpoint direction of p1, p2 at a scaled radius."""
    mid = tuple((a + b) / 2 for a, b in zip(p1, p2))
    return _scale_point(mid, radius_scale)


def canonical_generator_trajectory(n, i, j, style):
    """Closed single-mover trajectory realising the pure braid b_ij.

    Styles: 'circle_gn3' and 'circle_gamma4' start from points on a circle
    (the mover walks inside the disc past i+1 .. j-1, loops around j, and
    retraces); 'parabola_gn4' uses points on a parabola with hops over the
    passed points.
    """
    if not 1 <= i < j <= n:
        raise ValueError("need 1 <= i < j <= n")
    if style in ("circle_gn3", "circle_gamma4"):
        pts = circle_points(n)
        inner = Fraction(85, 100)
        path = [_scale_point(pts[i - 1], inner)]
        for m in range(i, j - 1):
            path.append(_between_angle_point(pts[m - 1], pts[m], inner))
            path.append(_scale_point(pts[m], inner))
        path.append(_between_angle_point(pts[j - 2], pts[j - 1], inner))
        # loop around P_j: enter close, circle it on four corners
        center = pts[j - 1]
        eps = Fraction(1, 40)
        corners = [
            (center[0] - eps, center[1] - eps),
            (center[0] + eps, center[1] - eps),
            (center[0] + eps, center[1] + eps),
            (center[0] - eps, center[1] + eps),
        ]
        forward = path + corners + [corners[0]]
    elif style == "parabola_gn4":
        ts = [Fraction(k) for k in range(1, n + 1)]
        pts = [(t, t * t) for t in ts]
        hop = Fraction(1, 5)
        path = []
        for m in range(i + 1, j + 1):
            t = ts[m - 1]
            path.append((t - Fraction(1, 7), t * t + hop))
            path.append((t + Fraction(1, 7), t * t + hop))
        end = (ts[j - 1] + Fraction(1, 3), (ts[j - 1] + Fraction(1, 3)) ** 2
               + Fraction(1, 11))
        forward = path + [end]
    else:
        raise ValueError("unknown style %r" % style)
    waypoints = forward + path[::-1] + [pts[i - 1]]
    return Trajectory(pts, [(i, w) for w in waypoints])
