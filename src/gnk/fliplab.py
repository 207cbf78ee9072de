"""Flip-label invariants on triangulated polygons.

Edge labels live in the field of rational functions Q(x_1, ..., x_X); a flip
replaces the diagonal x of a quadrilateral with boundary a, b, c, d (cyclic)
by y = (a*c + b*d) / x.  Polynomials stay expanded in a canonical monomial
order, and every label is kept in a reduced form (see ``RationalExpr``):
a label that is a Laurent polynomial -- every Ptolemy label is, by the
Laurent phenomenon -- is stored as a numerator over a monic monomial, so
label size stays bounded along a flip sequence.  Equality of labels is
decided exactly by cross-multiplied expanded comparison.

Also here: the tropical flip x + y = max(a+c, b+d), the SL2 edge matrices of
truncated triangles, and the ratio-coordinate basic algebraic system with
its three axioms (rotation of order three, pentagon, symmetry).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# most monomials a polynomial may have, so runaway inputs fail fast
MAX_MONOMIALS = 10 ** 6


def _rational(c):
    """A coefficient as an int when it is integral, else as a Fraction:
    int arithmetic is several times faster and the values compare, hash
    and print the same."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Polynomial:
    """Multivariate polynomial over Q: {exponent tuple: coefficient}, each
    coefficient an int or a non-integral Fraction."""

    __slots__ = ("vars", "coeffs")

    def __init__(self, variables, coeffs=None):
        self.vars = tuple(variables)
        self.coeffs = {}
        if coeffs:
            for mono, c in coeffs.items():
                c = _rational(c)
                if c:
                    self.coeffs[tuple(mono)] = c
        if len(self.coeffs) > MAX_MONOMIALS:
            raise OverflowError("monomial count guard exceeded")

    @classmethod
    def constant(cls, variables, value):
        z = tuple(0 for _ in variables)
        return cls(variables, {z: value})

    @classmethod
    def variable(cls, variables, name):
        mono = tuple(1 if v == name else 0 for v in variables)
        if sum(mono) != 1:
            raise KeyError(name)
        return cls(variables, {mono: 1})

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("variable universe mismatch")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return Polynomial(self.vars, out)

    def __neg__(self):
        return Polynomial(self.vars, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
                if len(out) > MAX_MONOMIALS:
                    raise OverflowError("monomial count guard exceeded")
        return Polynomial(self.vars, out)

    def is_zero(self):
        return not self.coeffs

    def monomial_content(self):
        """Exponent tuple of the largest monomial dividing every term."""
        return tuple(map(min, zip(*self.coeffs)))

    def shifted(self, mono):
        """self divided by the monomial ``mono``, which divides every term."""
        return Polynomial(self.vars, {tuple(a - b for a, b in zip(m, mono)): c
                                      for m, c in self.coeffs.items()})

    def exact_quotient(self, divisor):
        """self / divisor if the division is exact, else None.

        Lex-order division: the leading term of the remainder must be
        divisible by the divisor's, else the division is inexact.  Each step
        lowers the remainder's leading monomial, and lex order on exponent
        tuples is a well-order, so the loop ends on every input.
        """
        self._check(divisor)
        lead = max(divisor.coeffs)
        lead_c = divisor.coeffs[lead]
        rem = dict(self.coeffs)
        quot = {}
        while rem:
            top = max(rem)
            q = tuple(a - b for a, b in zip(top, lead))
            if any(e < 0 for e in q):
                return None
            qc = _rational(Fraction(rem[top]) / lead_c)
            quot[q] = qc
            for m, c in divisor.coeffs.items():
                t = tuple(a + b for a, b in zip(q, m))
                v = rem.get(t, 0) - qc * c
                if v:
                    rem[t] = v
                else:
                    del rem[t]
        return Polynomial(self.vars, quot)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.vars == other.vars \
            and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.coeffs.items()))))

    def substitute(self, values):
        """Evaluate at rational values given per variable name."""
        total = Fraction(0)
        for mono, c in self.coeffs.items():
            term = c
            for v, e in zip(self.vars, mono):
                if e:
                    term *= Fraction(values[v]) ** e
            total += term
        return total

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for mono in sorted(self.coeffs, reverse=True):
            c = self.coeffs[mono]
            factors = []
            for v, e in zip(self.vars, mono):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append("%s^%d" % (v, e))
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append("%s*%s" % (c, body))
        return " + ".join(parts).replace("+ -", "- ")


class RationalExpr:
    """Fraction of polynomials in a reduced form set by the constructor.

    The common monomial factor of num and den is cancelled.  Then num is
    divided exactly by den's non-monomial part (den over its monomial
    content; a constant when den is one term); when that division leaves
    no remainder the quotient is stored over a monic monomial den.  So
    every Laurent polynomial -- every Ptolemy label among them -- is stored
    as a numerator over a monic monomial, a form unique to the function;
    expressions that are not Laurent (SL2 entries such as c/(b*y) with y a
    Ptolemy label) keep num/den as computed.  Equality is decided by
    cross-multiplied expansion either way.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = None):
        if den is None:
            den = Polynomial.constant(num.vars, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        if num.is_zero():
            den = Polynomial.constant(num.vars, 1)
        else:
            common = tuple(map(min, num.monomial_content(),
                               den.monomial_content()))
            if any(common):
                num, den = num.shifted(common), den.shifted(common)
            mono = den.monomial_content()
            if den.coeffs != {mono: 1}:
                quot = num.exact_quotient(den.shifted(mono))
                if quot is not None:
                    num, den = quot, Polynomial(num.vars, {mono: 1})
        self.num = num
        self.den = den

    @classmethod
    def var(cls, variables, name):
        return cls(Polynomial.variable(variables, name))

    @classmethod
    def const(cls, variables, value):
        return cls(Polynomial.constant(variables, value))

    def __add__(self, other):
        return RationalExpr(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    def __sub__(self, other):
        return RationalExpr(self.num * other.den - other.num * self.den,
                            self.den * other.den)

    def __mul__(self, other):
        return RationalExpr(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational expression")
        return RationalExpr(self.num * other.den, self.den * other.num)

    def __neg__(self):
        return RationalExpr(-self.num, self.den)

    def __eq__(self, other):
        if not isinstance(other, RationalExpr):
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self):
        raise TypeError("RationalExpr is unhashable (equality is semantic)")

    def is_zero(self):
        return self.num.is_zero()

    def substitute(self, values):
        return self.num.substitute(values) / self.den.substitute(values)

    def __str__(self):
        if self.den == Polynomial.constant(self.den.vars, 1):
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)


def symbols(names):
    """RationalExpr generators over the variable universe ``names``."""
    names = tuple(names)
    return [RationalExpr.var(names, n) for n in names]


# ---------------------------------------------------------------------------
# labeled triangulations and the Ptolemy flip


class LabeledTriangulation:
    """Triangulated polygon with labels on (unordered) edges.

    Labels are attached to edges oriented from the smaller to the larger
    vertex index.  Triangles are stored as sorted vertex triples.
    """

    def __init__(self, triangles, labels):
        self.triangles = {tuple(sorted(t)) for t in triangles}
        self.labels = {tuple(sorted(e)): v for e, v in labels.items()}
        for t in self.triangles:
            for e in itertools.combinations(t, 2):
                if tuple(sorted(e)) not in self.labels:
                    raise ValueError("edge %r has no label" % (e,))

    def edge_triangles(self, e):
        e = tuple(sorted(e))
        return [t for t in self.triangles if set(e) <= set(t)]

    def flip_quad(self, e):
        """The quadrilateral around an interior diagonal: (p, q) opposite
        vertices and the cyclic boundary (p, a_end, q, b_end)."""
        ts = self.edge_triangles(e)
        if len(ts) != 2:
            raise ValueError("edge %r is not an interior diagonal" % (e,))
        a, b = tuple(sorted(e))
        p = next(v for v in ts[0] if v not in (a, b))
        q = next(v for v in ts[1] if v not in (a, b))
        return a, b, p, q

    def _flip(self, e, exchange):
        """Flip the diagonal e; the new diagonal's label is
        exchange(x, a, b, c, d), with x the old diagonal's label and a, b,
        c, d the quadrilateral boundary labels in cyclic order."""
        a, b, p, q = self.flip_quad(e)
        labels = dict(self.labels)
        x = labels.pop(tuple(sorted((a, b))))
        # boundary in cyclic order p a q b: edges (p,a), (a,q), (q,b), (b,p)
        boundary = [self.labels[tuple(sorted(uv))]
                    for uv in ((p, a), (a, q), (q, b), (b, p))]
        labels[tuple(sorted((p, q)))] = exchange(x, *boundary)
        triangles = set(self.triangles)
        triangles -= {tuple(sorted((a, b, p))), tuple(sorted((a, b, q)))}
        triangles |= {tuple(sorted((p, q, a))), tuple(sorted((p, q, b)))}
        return LabeledTriangulation(triangles, labels)

    def ptolemy_flip(self, e):
        """Flip the diagonal e; the new diagonal label is (ac + bd) / x."""
        return self._flip(e, lambda x, a, b, c, d: (a * c + b * d) / x)

    def tropical_flip(self, e):
        """Same flip with rational-number labels under x + y = max(a+c, b+d)."""
        return self._flip(e, lambda x, a, b, c, d: max(a + c, b + d) - x)

    def labels_equal(self, other) -> bool:
        if self.triangles != other.triangles:
            return False
        if set(self.labels) != set(other.labels):
            return False
        return all(self.labels[e] == other.labels[e] for e in self.labels)


def pentagon_triangulation():
    """Convex pentagon 1..5 fanned from vertex 1, with symbolic edge labels."""
    names = ["e12", "e13", "e14", "e15", "e23", "e34", "e45"]
    vals = dict(zip(names, symbols(names)))
    edges = {(1, 2): vals["e12"], (1, 3): vals["e13"], (1, 4): vals["e14"],
             (1, 5): vals["e15"], (2, 3): vals["e23"], (3, 4): vals["e34"],
             (4, 5): vals["e45"]}
    tris = [(1, 2, 3), (1, 3, 4), (1, 4, 5)]
    return LabeledTriangulation(tris, edges)


PENTAGON_FLIP_SEQUENCE = [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]


def pentagon_flip_cycle(tri: LabeledTriangulation, tropical=False):
    """The five-flip cycle on the fan pentagon; returns all six stages.

    Starting from the fan at vertex 1 (diagonals 13, 14), the flips
    (1,3), (1,4), (2,4), (2,5), (3,5) return to the starting shape; the
    pentagon identity says the labels return exactly too."""
    seq = [tri]
    cur = tri
    for e in PENTAGON_FLIP_SEQUENCE:
        cur = cur.tropical_flip(e) if tropical else cur.ptolemy_flip(e)
        seq.append(cur)
    return seq


ORBIT_FLIP_SEQUENCE = [(2, 4), (1, 5), (3, 4), (2, 5), (1, 4), (3, 5)]


def orbit_triangulation():
    """Triangle 1-2-3 with interior point 4 and a satellite 5 next to it.

    Label names: a=12, b=23, c=13, k=14, l=24, m=34, p=15, q=25, r=45.
    The six flips of ORBIT_FLIP_SEQUENCE realise one full turn of point 5
    around point 4 and return to the starting shape."""
    names = ["a", "b", "c", "k", "l", "m", "p", "q", "r"]
    a, b, c, k, l, m, p, q, r = symbols(names)
    edges = {(1, 2): a, (2, 3): b, (1, 3): c, (1, 4): k, (2, 4): l,
             (3, 4): m, (1, 5): p, (2, 5): q, (4, 5): r}
    tris = [(1, 2, 5), (1, 4, 5), (2, 4, 5), (2, 3, 4), (1, 3, 4)]
    return LabeledTriangulation(tris, edges)


def orbit_replay():
    """Run the six-flip orbit; returns (stages, new_labels) where new_labels
    maps each flip's fresh diagonal to its label expression."""
    tri = orbit_triangulation()
    stages = [tri]
    created = {}
    cur = tri
    for e in ORBIT_FLIP_SEQUENCE:
        a, b, p, q = cur.flip_quad(e)
        cur = cur.ptolemy_flip(e)
        created[tuple(sorted((p, q)))] = cur.labels[tuple(sorted((p, q)))]
        stages.append(cur)
    return stages, created


# ---------------------------------------------------------------------------
# SL2 labels of truncated triangles


class SL2Label:
    """2x2 matrix of rational expressions with determinant one."""

    def __init__(self, a, b, c, d, check=True):
        self.m = ((a, b), (c, d))
        if check and not (a * d - b * c == _one_like(a)):
            raise ValueError("determinant is not 1")

    def __mul__(self, other):
        (a, b), (c, d) = self.m
        (e, f), (g, h) = other.m
        return SL2Label(a * e + b * g, a * f + b * h,
                        c * e + d * g, c * f + d * h, check=False)

    def __eq__(self, other):
        return all(self.m[i][j] == other.m[i][j]
                   for i in range(2) for j in range(2))


def _one_like(x: RationalExpr):
    return RationalExpr.const(x.num.vars, 1)


def sl2_edge_matrices(a: RationalExpr, b: RationalExpr, c: RationalExpr):
    """Six SL2 labels around the truncated triangle with edge labels a, b, c.

    Long edges carry the antidiagonal matrix of their label; the short edge
    cut at the corner between edges u and v (opposite edge w) carries the
    unipotent matrix with entry u*v/w.  The product around the hexagon is
    the identity.
    """
    for lab in (a, b, c):
        if lab.is_zero():
            raise ZeroDivisionError("zero edge label")
    one = _one_like(a)
    zero = one - one

    def long(l):
        return SL2Label(zero, l, -(one / l), zero)

    def short(u, v, w):
        return SL2Label(one, u * v / w, zero, one)

    return [long(a), short(a, b, c), long(b), short(b, c, a),
            long(c), short(c, a, b)]


def sl2_flip_equations(x, y, a, b, c, d):
    """The four short-edge matrix identities of the flip; each holds iff the
    Ptolemy relation x*y = a*c + b*d does.  Returns the per-equation truth."""
    one = _one_like(x)
    zero = one - one

    def up(t):
        return SL2Label(one, t, zero, one)

    eqs = [
        (up(-(x / (b * a))), up(-(c / (b * y))) * up(-(d / (a * y)))),
        (up(y / (b * c)), up(a / (b * x)) * up(d / (c * x))),
        (up(-(y / (a * d))), up(-(b / (a * x))) * up(-(c / (d * x)))),
        (up(x / (c * d)), up(b / (c * y)) * up(a / (d * y))),
    ]
    return [lhs == rhs for lhs, rhs in eqs]


# ---------------------------------------------------------------------------
# the ratio-coordinate basic algebraic system


def bas_rotate(v):
    """Distinguished-corner rotation on ratio coordinates; order three."""
    x1, x2 = v
    return (_inv(x2), x1 / x2)


def _inv(x):
    if isinstance(x, Fraction):
        return 1 / x
    return _one_like(x) / x


def bas_flip(v, w):
    """Ratio-coordinate flip W on a pair of decorated triangles.

    The second output pair is the published component (x2 y1 / (x1 y2 + x2),
    y2 / (x1 y2 + x2)); the first completes it to a bijection of pairs.
    """
    (x1, x2), (y1, y2) = v, w
    dnm = x1 * y2 + x2
    return ((x1 * y1, dnm), (x2 * y1 / dnm, y2 / dnm))


def _lift_flip(vs, i, j):
    vs = list(vs)
    a, b = bas_flip(vs[i], vs[j])
    vs[i], vs[j] = a, b
    return tuple(vs)


def _lift_rot(vs, i, times=1):
    vs = list(vs)
    for _ in range(times):
        vs[i] = bas_rotate(vs[i])
    return tuple(vs)


def bas_axiom_rotation(v) -> bool:
    """R^3 = id on one pair."""
    return _lift_rot((v,), 0, 3)[0] == v


def bas_axiom_pentagon(triple) -> bool:
    """W_12 W_23 = W_23 W_13 W_12 (operators composed right to left)."""
    lhs = _lift_flip(_lift_flip(triple, 1, 2), 0, 1)
    rhs = _lift_flip(_lift_flip(_lift_flip(triple, 0, 1), 0, 2), 1, 2)
    return lhs == rhs


def bas_axiom_symmetry(pair) -> bool:
    """R_1 R_2 W_21 R_1^-1 W_12 = P_12 (right-to-left; R^-1 = R^2)."""
    state = _lift_flip(pair, 0, 1)
    state = _lift_rot(state, 0, 2)
    state = _lift_flip(state, 1, 0)
    state = _lift_rot(state, 1)
    state = _lift_rot(state, 0)
    return state == (pair[1], pair[0])


def bas_ratio_check(samples):
    """Verify the three axioms exactly on positive rational samples.

    ``samples`` is a list of pairs (x1, x2) of positive rationals; axiom 2
    runs on consecutive triples, axiom 3 on consecutive pairs.  Returns a
    dict of per-axiom pass booleans.
    """
    samples = [tuple(Fraction(x) for x in s) for s in samples]
    for x1, x2 in samples:
        if x1 <= 0 or x2 <= 0:
            raise ValueError("samples must be strictly positive")
    rot = all(bas_axiom_rotation(v) for v in samples)
    pent = all(bas_axiom_pentagon((samples[i], samples[i + 1], samples[i + 2]))
               for i in range(len(samples) - 2))
    sym = all(bas_axiom_symmetry((samples[i], samples[i + 1]))
              for i in range(len(samples) - 1))
    return {"rotation": rot, "pentagon": pent, "symmetry": sym}
