"""Exact compiler from piecewise-linear point dynamics to invariant words.

A trajectory moves one point per segment along a straight line with rational
endpoints; all wall predicates (three points collinear, four concyclic, four
coplanar) specialise to univariate polynomials of degree <= 2 in the segment
parameter.  Each point is an int vector at its own width, the homogeneous
w^g (p̂, 1): w is the lcm of the point's own denominators, p̂ = (x, y,
x² + y²) with g = 2 in the plane and p̂ = p with g = 1 in space.  Every
line, circle and plane wall is a form that is a positive multiple of its
predicate at each such point, so it keeps every sign; a segment rescales
its two end values to the lcm of its waypoints' weights, and every
predicate polynomial has Python int coefficients.  Event times are
isolated into rational brackets, kept as int triples until an event is
reported (never evaluated numerically: only the event ORDER and exact side
decisions matter), letters are emitted per event in time order, and the
concatenation freely reduces to the invariant word.

No float decides anything: ``math.tan`` only places ``circle_points``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction

from .gamma import Gamma4Group, dihedral_canonical
from .gnk import GnkGroup
from .words import Word


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


def _vertex_inside(c2, c1) -> bool:
    """Does the vertex -c1 / (2 c2) of a quadratic lie in (0, 1)?"""
    return -2 * c2 < c1 < 0 if c2 > 0 else 0 < c1 < -2 * c2


def _rootless(c2, c1, c0) -> bool:
    """Is c2 t^2 + c1 t + c0 of one nonzero sign on [0, 1]?  Decided from
    its values at the ends: they share one nonzero sign, and the poly is
    linear, bowed away from zero (c2 of the other sign), monotone on
    [0, 1] (its vertex outside) or without a real root (DECISIONS.md,
    "Wall roots from the end values")."""
    end = c2 + c1 + c0
    return c0 != 0 and end != 0 and (c0 > 0) == (end > 0) and (
        c2 == 0 or (c2 > 0) != (end > 0) or not _vertex_inside(c2, c1)
        or c1 * c1 < 4 * c2 * c0)


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

        f takes an int t and, on int coordinates, returns an int; the poly
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

    def roots_in_unit_interval(self):
        """Isolating brackets with sign changes, for roots in (0, 1).

        Raises DegenerateTrajectory on identically-zero polynomials, roots at
        segment endpoints, and tangencies (double roots).
        """
        c2, c1, c0 = self.c2, self.c1, self.c0
        if _rootless(c2, c1, c0):
            return []
        end = c2 + c1 + c0
        if c0 == 0 or end == 0:
            if c2 == 0 and c1 == 0 and c0 == 0:
                raise DegenerateTrajectory("predicate vanishes identically")
            raise DegenerateTrajectory("event at a segment endpoint")
        if (c0 > 0) != (end > 0):
            if c2 == 0:
                # the sign-change bracket centred on r/d, of half-width a
                # quarter of its distance to the nearer end of (0, 1)
                r, d = _linear_root(c1, c0)
                m = min(r, d - r)
                return [(4 * r - m, 4 * r + m, 4 * d)]
            # off the vertex the poly is monotone on [0, 1]; at it, of the
            # sign opposite to c2, so the root lies left of it iff p(0) has
            # the sign of c2
            if not _vertex_inside(c2, c1):
                return [(0, 1, 1)]
            v, d = _linear_root(2 * c2, c1)
            return [(0, v, d) if (c0 > 0) == (c2 > 0) else (v, d, d)]
        # one sign at both ends, the vertex inside, bowed towards zero and
        # with real roots: a double one, or one either side of the vertex
        if c1 * c1 == 4 * c2 * c0:
            raise DegenerateTrajectory("tangential (double-root) event")
        v, d = _linear_root(2 * c2, c1)
        return [(0, v, d), (v, d, d)]

    def bisect(self, bracket):
        """Halve a sign-change bracket from ``roots_in_unit_interval`` or
        from an earlier halving, keeping the root.

        Such a bracket never holds the vertex of a quadratic left of its
        root, so the sign at its left end is minus that of the slope there
        where the slope is nonzero.  A bracket of a linear poly is centred
        on its root, and so is a quadratic's whose root is met at the
        midpoint; the centred bracket of a quarter of the half-width is
        written in closed form (DECISIONS.md, "Each exact sign decided
        once" and "Wall roots from the end values")."""
        lo, hi, den = bracket
        c2 = self.c2
        if c2:
            mid, den2 = lo + hi, 2 * den
            smid = self.sign(mid, den2)
            if smid:
                slope = 2 * c2 * lo + self.c1 * den
                slo = -_sgn(slope) if slope else self.sign(lo, den)
                return (mid, 2 * hi, den2) if smid == slo else \
                    (2 * lo, mid, den2)
        return (5 * lo + 3 * hi, 3 * lo + 5 * hi, 8 * den)

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
    """Exact sign of the linear aux at main's isolated root; 0 when they
    share it.

    The bracket holds one root of main and main is nonzero at its ends, so
    aux = c1 (t - r) is signed by where r lies: at or left of the bracket,
    right of it, or inside, where one sign of main at r tells (DECISIONS.md,
    "Each exact sign decided once")."""
    if aux.c2 != 0:
        raise ValueError("sign_at_root needs a linear aux")
    if aux.c1 == 0:
        return _sgn(aux.c0)
    r, d = _linear_root(aux.c1, aux.c0)
    lo, hi, den = bracket
    if r * den <= lo * d:
        right = True
    elif r * den >= hi * d:
        right = False
    else:
        s = main.sign(r, d)
        if s == 0:
            return 0
        right = s == main.sign(lo, den)
    return _sgn(aux.c1) if right else -_sgn(aux.c1)


# ---------------------------------------------------------------------------
# trajectories


def _to_fraction_point(p):
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in p)


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
        """Read the JSON form that ``to_json`` writes; a missing or
        mistyped field raises ValueError naming it."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError("trajectory: not JSON: %s" % exc) from None
        if not isinstance(data, dict):
            raise ValueError("trajectory: the top level must be a JSON object")
        def dec_pt(pt):
            # a mistyped pair anywhere is reported before a zero denominator
            if type(pt) is list:
                for c in pt:
                    if type(c) is not list or len(c) != 2 \
                            or type(c[0]) is not int or type(c[1]) is not int:
                        break
                else:
                    try:
                        return tuple(Fraction(num, den) for num, den in pt)
                    except ZeroDivisionError:
                        raise ValueError("zero denominator in point %r"
                                         % (pt,)) from None
            raise ValueError("point %r: coordinates must be [num, den] "
                             "pairs of ints" % (pt,))
        for key in ("points", "moves"):
            if type(data.get(key)) is not list:
                raise ValueError('trajectory: "%s" must be a JSON list' % key)
        points = [dec_pt(p) for p in data["points"]]
        if data.get("n", len(points)) != len(points):
            raise ValueError("n is %r but there are %d points"
                             % (data["n"], len(points)))
        for k, m in enumerate(data["moves"], 1):
            if type(m) is not dict or "p" not in m or "to" not in m:
                raise ValueError('trajectory: move %d must be a JSON object '
                                 'with "p" and "to"' % k)
            if type(m["p"]) is not int:
                raise ValueError("mover indices must be ints")
        moves = [(m["p"], dec_pt(m["to"])) for m in data["moves"]]
        dim = data.get("dim", 2)
        if type(dim) is not int or dim not in (2, 3):
            raise ValueError('trajectory: "dim" must be 2 or 3')
        return cls(points, moves, dim)


class Event:
    """One isolated wall crossing."""

    __slots__ = ("segment", "bracket", "kind", "participants", "poly",
                 "quad", "inside")

    def __init__(self, segment, bracket, kind, participants, poly,
                 quad=None, inside=None):
        self.segment = segment
        self.bracket = bracket
        self.kind = kind
        self.participants = participants
        self.poly = poly
        self.quad = quad          # cyclic order for circle/plane events
        self.inside = inside      # statics inside the circle, circle events

    def __repr__(self):
        return "Event(seg=%d, %s, %s, t in (%s, %s))" % (
            self.segment, self.kind, self.participants,
            self.bracket[0], self.bracket[1])


def _separate_events(events):
    """Sort one segment's events by time, in place, refining a pair of
    brackets only when the sort compares them, and drop the separators.

    A compared pair is bisected in lockstep until its brackets are
    disjoint, after one shares_root test of their overlap; brackets only
    shrink, and a comparison sort compares every pair adjacent in its
    output, so the sorted brackets end pairwise disjoint (DECISIONS.md,
    "Event order by one sort").
    """
    detected = list(events)

    def order(e1, e2):
        b1, b2 = e1.bracket, e2.bracket
        if b1[1] * b2[2] <= b2[0] * b1[2]:
            return -1
        if b2[1] * b1[2] <= b1[0] * b2[2]:
            return 1
        p1, p2 = e1.poly, e2.poly
        if p1.shares_root(p2, _overlap(b1, b2)):
            if detected.index(e1) > detected.index(e2):
                e1, e2 = e2, e1
            raise DegenerateTrajectory(
                "simultaneous events %r and %r in segment %d"
                % (e1.participants, e2.participants, e1.segment))
        for _ in range(4000):
            b1, b2 = p1.bisect(b1), p2.bisect(b2)
            if b1[1] * b2[2] <= b2[0] * b1[2]:
                e1.bracket, e2.bracket = b1, b2
                return -1
            if b2[1] * b1[2] <= b1[0] * b2[2]:
                e1.bracket, e2.bracket = b1, b2
                return 1
        raise DegenerateTrajectory("cannot separate event brackets")

    events.sort(key=functools.cmp_to_key(order))
    events[:] = [e for e in events if e.kind != "_separator"]
    return events


def _overlap(b1, b2):
    """The intersection of two overlapping brackets, on the product den."""
    return (max(b1[0] * b2[2], b2[0] * b1[2]),
            min(b1[1] * b2[2], b2[1] * b1[2]), b1[2] * b2[2])


def _homogeneous(pt):
    """The rational point p as the int vector w (p, 1), w the lcm of its
    own denominators: the weight w comes last."""
    w = math.lcm(*(x.denominator for x in pt))
    return tuple(x.numerator * (w // x.denominator) for x in pt) + (w,)


def _lifted(u):
    """The point u = w (p, 1) in the lifted space: w^2 (x, y, x^2 + y^2, 1)
    on the paraboloid for a plane point, u itself in space."""
    if len(u) == 4:
        return u
    x, y, w = u
    return w * x, w * y, x * x + y * y, w * w


def _diff(p, q):
    """q w_p - p w_q of two homogeneous points in the lifted space, less
    its last entry 0: w_p w_q (q - p) for a point q, w_p q for a direction
    q (a point of weight 0)."""
    (a, b, c, v), (x, y, z, w) = p, q
    return x * v - a * w, y * v - b * w, z * v - c * w


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _plane(p, u, v):
    """The plane through the homogeneous point p = (P, w_p), w_p > 0,
    spanned by the differences u = _diff(p, q) and v = _diff(p, r): the
    form (c, k) with c = u x v and k w_p = -c . P, so that at a point
    x = (X, w_x), c . X + k w_x = w_x c . (x - p), a positive multiple of
    orient3d(p, q, r, x) (DECISIONS.md, "Each point at its own width")."""
    c = _cross(u, v)
    return c, -(c[0] * p[0] + c[1] * p[1] + c[2] * p[2]) // p[3]


def _planes(points, statics):
    """The plane through each triple of statics, in combinations order:
    (triple, c, k), from the differences of its first point to the other
    two, each formed once per pair."""
    planes = []
    for k, a in enumerate(statics):
        p = points[a]
        diffs = [(b, _diff(p, points[b])) for b in statics[k + 1:]]
        for (b, u), (c, v) in itertools.combinations(diffs, 2):
            planes.append(((a, b, c), *_plane(p, u, v)))
    return planes


def _wall_table(points, lifted, statics, kind):
    """A mover run's walls, in detection order: circles then lines in the
    plane, planes in space, each in combinations order.  ``points`` holds
    the statics' homogeneous vectors, ``lifted`` their lifts (in space the
    same).  A wall (statics, c, k) is a form with c . X + k w a positive
    multiple of the predicate at a lifted point (X, w): every wall is a
    plane of the lifted space (DECISIONS.md, "Every wall is a plane in the
    lifted space").  A circle is minus the plane through its lifted points,
    so c[2] has the sign of -orient2d; a line through a and b is their
    cross product a x b, with c[2] = 0.  Raises on collinear or concyclic
    statics."""
    if kind == "coplanar_special":
        return _planes(points, statics)
    later = {s: statics[k + 1:] for k, s in enumerate(statics)}

    def tested(walls, message):
        # every subset of the statics one larger than a wall's, once
        for trip, (c0, c1, c2), k in walls:
            for s in later[trip[-1]]:
                x, y, z, w = lifted[s]
                if c0 * x + c1 * y + c2 * z + k * w == 0:
                    raise DegenerateTrajectory(message)
    lines = []
    for i, j in itertools.combinations(statics, 2):
        c0, c1, k = _cross(points[i], points[j])
        lines.append(((i, j), (c0, c1, 0), k))
    tested(lines, "three static points collinear")
    if kind == "collinear3":
        return lines
    # incircle is minus orient3d of the lifted points
    circles = [(trip, (-c0, -c1, -c2), -k)
               for trip, (c0, c1, c2), k in _planes(lifted, statics)]
    tested(circles, "four static points concyclic")
    return circles + lines


def _off_wall_signs(wall, lifted, statics):
    """The signs of the form at the statics off a circle or plane: its
    inside count, or its sides."""
    trip, (c0, c1, c2), k = wall
    return [_sgn(c0 * x + c1 * y + c2 * z + k * w)
            for x, y, z, w in (lifted[s] for s in statics if s not in trip)]


def _circle_empty(wall, lifted, statics):
    """Does no static point lie strictly inside the circle wall?  Inside,
    the form has the sign of orient2d, that is of -c[2]; the first static
    found there settles it."""
    trip, (c0, c1, c2), k = wall
    if c2 > 0:
        c0, c1, c2, k = -c0, -c1, -c2, -k
    for s in statics:
        if s not in trip:
            x, y, z, w = lifted[s]
            if c0 * x + c1 * y + c2 * z + k * w > 0:
                return False
    return True


def _values(walls, h):
    """The form of each wall at the homogeneous lifted point h."""
    x, y, z, w = h
    return [c0 * x + c1 * y + c2 * z + k * w for _, (c0, c1, c2), k in walls]


def _end_scales(u0, u1, space):
    """(s0, s1, dd) for the segment from the homogeneous point u0 to u1:
    s = r^g with r = lcm(w0, w1) / w brings each end's values w^g f to
    the one scale lcm^g, and dd = |X1 r1 - X0 r0|^2 = lcm^2 |x1 - x0|^2
    is the t^2 factor of a wall's poly in the plane, 0 in space."""
    g = math.gcd(u0[-1], u1[-1])
    r0, r1 = u1[-1] // g, u0[-1] // g
    if space:
        return r0, r1, 0
    dx, dy = u1[0] * r1 - u0[0] * r0, u1[1] * r1 - u0[1] * r0
    return r0 * r0, r1 * r1, dx * dx + dy * dy


def _rescaled(values, s):
    """The values times s, as they are when s is 1."""
    return values if s == 1 else [v * s for v in values]


def _segment_roots(walls, f0, f1, dd, seg, p):
    """(wall, poly, bracket) for each root in (0, 1) of each wall's poly on
    segment ``seg``: c0 = F0, c2 = c[2] dd, c1 = F1 - c0 - c2 from the
    values F0, F1 at its ends on one scale and dd of ``_end_scales``
    (DECISIONS.md, "Wall values once per waypoint").  No poly is formed
    for a wall ``_rootless`` passes over.  A degenerate root raises naming
    the segment, points and mover p."""
    for wall, c0, e in zip(walls, f0, f1):
        c2 = wall[1][2] * dd
        c1 = e - c0 - c2
        if _rootless(c2, c1, c0):
            continue
        poly = PredicatePoly(c2, c1, c0)
        try:
            brackets = poly.roots_in_unit_interval()
        except DegenerateTrajectory as exc:
            raise DegenerateTrajectory("%s: segment %d, points %r, mover %d"
                                       % (exc, seg, _labels(wall[0], p), p)) \
                from None
        for br in brackets:
            yield wall, poly, br


def _convex_quad(trip, mover, poly, br, static, ends):
    """The dihedral class of the static triangle trip = (a, b, c) and the
    mover around their convex hull at the root of poly in br, or None when
    the four points are not in convex position.

    They are in convex position iff the mover lies across exactly one edge
    (x, y) of the triangle from its third vertex z, and their cyclic order
    is then (x, mover, y, z).  ``ends`` gives, for the edges (a, b),
    (a, c) and (b, c) in turn, the mover's side form of the edge at the
    segment's two ends; ``static`` is the side sign of c from (a, b), which
    a has from (b, c) and b, negated, from (a, c)."""
    a, b, c = trip
    crossed = [(x, y, z) for (x, y, z, s), (e0, e1) in zip(
        ((a, b, c, static), (a, c, b, -static), (b, c, a, static)), ends)
        if sign_at_root(poly, br, PredicatePoly(0, e1 - e0, e0)) == -s]
    if len(crossed) != 1:
        return None
    (x, y, z), = crossed
    return dihedral_canonical((x + 1, mover + 1, y + 1, z + 1))


def _labels(statics, p):
    """The sorted 1-based labels of the static points and the mover p."""
    return tuple(sorted([s + 1 for s in statics] + [p]))


def detect_events(tr: Trajectory, kind: str):
    """All isolated wall crossings of the requested kind, in time order.

    Kinds: 'collinear3', 'concyclic4', 'delaunay_flip' (concyclic with an
    empty circle), 'coplanar_special' (3D: convex coplanar quadruple with
    all other points strictly on one side).  A circle event carries the
    number of static points inside its circle as ``inside``.  Each mover
    run gets one wall table over the homogeneous points, and each wall is
    evaluated once per waypoint.
    """
    if kind not in ("collinear3", "concyclic4", "delaunay_flip",
                    "coplanar_special"):
        raise ValueError("unknown event kind %r" % kind)
    space = kind == "coplanar_special"
    if tr.dim != (3 if space else 2):
        raise ValueError("kind %s needs dim %d, the trajectory has dim %d"
                         % (kind, 3 if space else 2, tr.dim))
    out, conf, seg = [], list(tr.initial), 0
    for p, run in itertools.groupby(tr.moves, key=lambda move: move[0]):
        mover = p - 1
        statics = [q for q in range(tr.n) if q != mover]
        points = {q: _homogeneous(conf[q]) for q in statics}
        lifted = {q: _lifted(u) for q, u in points.items()}
        walls = _wall_table(points, lifted, statics, kind)
        line_at = {w[0]: k for k, w in enumerate(walls) if len(w[0]) == 2}
        # what the statics alone decide about a circle or plane, taken at
        # its first root in the run: the signs of its form off it, or for
        # delaunay_flip whether the circle is empty
        memo = {}
        u0 = _homogeneous(conf[mover])
        h0 = _lifted(u0)
        f0 = _values(walls, h0)
        for _, target in run:
            u1 = _homogeneous(target)
            h1 = _lifted(u1)
            f1 = _values(walls, h1)
            s0, s1, dd = _end_scales(u0, u1, space)
            e0, e1 = _rescaled(f0, s0), _rescaled(f1, s1)
            events = []
            for wall, poly, br in _segment_roots(walls, e0, e1, dd, seg, p):
                trip = wall[0]
                if len(trip) == 2:
                    # for the circle kinds: hull changes (collinearity
                    # crossings) alter the Delaunay triangulation without a
                    # cocircularity; keep the event brackets clear of them,
                    # so that between bracket endpoints the only
                    # combinatorial change is the event's own flip
                    events.append(
                        Event(seg, br, kind, _labels(trip, p), poly)
                        if kind == "collinear3" else
                        Event(seg, br, "_separator",
                              (trip[0] + 1, trip[1] + 1, p), poly))
                    continue
                if trip not in memo:
                    memo[trip] = (_circle_empty if kind == "delaunay_flip"
                                  else _off_wall_signs)(wall, lifted, statics)
                known = memo[trip]
                if space:
                    if 0 in known:
                        raise DegenerateTrajectory(
                            "static point on event plane")
                    if len(set(known)) > 1:
                        continue
                    # the mover's side of an edge (x, y) within the statics'
                    # plane, read along its normal c: the plane through x,
                    # the direction (c, 0) and y, where the third static's
                    # side of (a, b) is positive
                    edges = [((x, y), *_plane(
                        points[x], _diff(points[x], wall[1] + (0,)),
                        _diff(points[x], points[y])))
                        for x, y in itertools.combinations(trip, 2)]
                    static, inside = 1, None
                    ends = zip(_rescaled(_values(edges, h0), s0),
                               _rescaled(_values(edges, h1), s1))
                else:
                    # orient2d of the triple, and the statics inside
                    static = -_sgn(wall[1][2])
                    if kind != "delaunay_flip":
                        inside = known.count(static)
                    elif known:
                        inside = 0
                    else:
                        continue
                    # the mover's sides of the triangle's edges: the edges'
                    # line walls at the segment's ends
                    ends = [(e0[k], e1[k]) for k in (
                        line_at[e] for e in itertools.combinations(trip, 2))]
                quad = _convex_quad(trip, mover, poly, br, static, ends)
                if quad:
                    events.append(Event(seg, br, kind, _labels(trip, p), poly,
                                        quad, inside))
                elif space:
                    # not convex: a point crosses a face of the hull, no
                    # flip; kept, as the plane keeps its lines, to hold the
                    # other event brackets clear of it
                    events.append(
                        Event(seg, br, "_separator", _labels(trip, p), poly))
                else:
                    raise DegenerateTrajectory(
                        "event points not in convex position")
            for e in _separate_events(events):
                lo, hi, den = e.bracket
                e.bracket = (Fraction(lo, den), Fraction(hi, den))
                out.append(e)
            u0, h0, f0 = u1, h1, f1
            seg += 1
        conf[mover] = target
    return out


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
    if target == "gamma4_graded" and n <= 5:
        raise ValueError("graded target needs n > 5")
    least = 3 if target == "gn3" else 4
    if n < least:
        raise ValueError('trajectory: "points" has %d points; target %s '
                         'needs at least %d' % (n, target, least))
    gn = target in ("gn3", "gn4")
    group = GnkGroup(n, 3 if target == "gn3" else 4) if gn else Gamma4Group(n)
    events = detect_events(tr, kind)
    if gn:
        return group.word_from_subsets([e.participants for e in events]), events
    # _convex_quad gives each quad in its least dihedral form
    code = group.alphabet.code
    if target != "gamma4_graded":
        return Word(group.alphabet, [code[e.quad] for e in events]), events
    # z: the static points inside the event circle
    return group.graded_words(
        [(e.inside, code[e.quad]) for e in events]), events


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
        o = orient2d(pts[a], pts[b], pts[c])
        if o == 0:
            continue
        below = 0
        for x in range(n):
            if x in (a, b, c):
                continue
            v = orient3d(lift[a], lift[b], lift[c], lift[x])
            if v == 0:
                raise DegenerateConfiguration("four cocircular points")
            if (v if o > 0 else -v) < 0:
                below += 1
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
    (the mover walks inside the disc at radius 1 - 1/(2n^2) past
    i+1 .. j-1, loops around j, and retraces); 'parabola_gn4' uses points
    on a parabola with hops over the passed points.
    """
    if not 1 <= i < j <= n:
        raise ValueError("need 1 <= i < j <= n")
    if style in ("circle_gn3", "circle_gamma4"):
        pts = circle_points(n)
        inner = 1 - Fraction(1, 2 * n * n)
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
