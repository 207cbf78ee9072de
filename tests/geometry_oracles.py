"""Event separation as it ran before the row-wise pass: a sweep lists the
bracket pairs that overlap at the start, and only those are refined.  The
tests compare the row-wise pass with it.  Also the in-circle count point by
point, by ``point_in_circumcircle``.

``general_bisect`` is ``PredicatePoly.bisect`` without its closed form for
linear polys, ``bisection_sign_at_root`` is ``sign_at_root`` as a loop that
bisects the bracket until aux keeps one sign on it, and
``per_call_side_at_root`` the side signs of ``_convex_quad`` without the
memo by sorted triple: each call interpolates its triple in the order given
and takes the sign at the root anew."""

from gnk.geometry import (DegenerateTrajectory, PredicatePoly, _by_left_end,
                          _inside, _linear_root, _overlap, _sgn,
                          point_in_circumcircle)


def general_bisect(poly, bracket):
    """Halve a sign-change bracket of poly by the sign at its midpoint; a
    root met at the midpoint gets a new bracket centred on it."""
    lo, hi, den = bracket
    mid, den2 = lo + hi, 2 * den
    smid = poly.sign(mid, den2)
    if smid == 0:
        return poly._bracket_rational_root(mid, 2 * lo, 2 * hi, den2)
    if smid == poly.sign(lo, den):
        return (mid, 2 * hi, den2)
    return (2 * lo, mid, den2)


def bisection_sign_at_root(main, bracket, aux):
    """Exact sign of aux (degree <= 2) at main's isolated root, 0 when they
    share it: bisect the bracket until aux has one nonzero sign at both
    ends and no root inside."""
    if aux.is_zero() or main.shares_root(aux, bracket):
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


def inside_count(conf, triple) -> int:
    """Number of configuration points strictly inside circle(triple), one
    ``point_in_circumcircle`` call per point."""
    a, b, c = (conf[q] for q in triple)
    return sum(1 for t, pt in enumerate(conf) if t not in triple
               and point_in_circumcircle(a, b, c, pt) > 0)


def sweep_separate_events(events):
    """Refine the brackets of the pairs that overlap at the start, in
    itertools.combinations order, until pairwise disjoint; sort by time."""
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
