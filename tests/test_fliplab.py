import itertools
import random
import time
from fractions import Fraction

import pytest

from gnk import fliplab
from gnk.fliplab import (LabeledTriangulation, Polynomial, RationalExpr,
                         SL2Label, bas_axiom_pentagon, bas_axiom_rotation,
                         bas_axiom_symmetry, bas_flip, bas_ratio_check,
                         bas_rotate, orbit_replay, pentagon_flip_cycle,
                         pentagon_triangulation, sl2_edge_matrices,
                         sl2_flip_equations, symbols)

F = Fraction


def test_polynomial_arithmetic():
    x, y = symbols(["x", "y"])
    one = RationalExpr.const(("x", "y"), 1)
    assert (x + y) * (x - y) == x * x - y * y
    assert (x / y) * (y / x) == one
    assert ((x + y) / y - x / y) == one


def test_rational_equality_is_congruence():
    rng = random.Random(25)
    names = ("x", "y", "z")
    x, y, z = symbols(names)
    for _ in range(50):
        c1 = F(rng.randint(1, 5))
        a = (x + y) * RationalExpr.const(names, c1) / z
        b = (x * RationalExpr.const(names, c1) + y * RationalExpr.const(names, c1)) / z
        assert a == b
        assert a + z == b + z
        assert a * z == b * z


def test_zero_denominator_rejected():
    x, = symbols(["x"])
    with pytest.raises(ZeroDivisionError):
        x / (x - x)


def test_monomial_guard(monkeypatch):
    monkeypatch.setattr(fliplab, "MAX_MONOMIALS", 3)
    names = tuple("abcdef")
    vals = symbols(names)
    with pytest.raises(OverflowError):
        acc = vals[0] + vals[1] + vals[2] + vals[3] + vals[4]


def test_flip_involution_symbolic():
    tri = pentagon_triangulation()
    back = tri.ptolemy_flip((1, 3)).ptolemy_flip((2, 4))
    assert back.labels_equal(tri)


def test_pentagon_identity_symbolic():
    tri = pentagon_triangulation()
    seq = pentagon_flip_cycle(tri)
    assert len(seq) == 6
    assert seq[-1].labels_equal(seq[0])


def test_ptolemy_preserves_other_labels():
    tri = pentagon_triangulation()
    out = tri.ptolemy_flip((1, 3))
    for e in tri.labels:
        if e == (1, 3):
            continue
        assert out.labels[e] == tri.labels[e]


def test_orbit_replay_matches_printed_formulas():
    stages, created = orbit_replay()
    a, b, c, k, l, m, p, q, r = symbols(["a", "b", "c", "k", "l", "m", "p", "q", "r"])
    x = (q * m + b * r) / l
    y = (a * r + q * k) / p
    z = (c * r * l + k * q * m + k * b * r) / (m * l)
    i = (b * p * r * l + (a * r + q * k) * (q * m + b * r)) / (p * q * l)
    j = (a * r * p * m * l + (a * r + q * k) * (c * r * l + k * q * m + k * b * r)) / (k * p * m * l)
    assert created[(3, 5)] == x
    assert created[(2, 4)] == y
    assert created[(1, 5)] == z
    assert created[(3, 4)] == i
    assert created[(2, 5)] == j
    assert stages[-1].triangles == stages[0].triangles


def test_orbit_replay_o_label_erratum():
    # the printed final label drops the monomial b k^2 q r; the replayed
    # value equals the printed one plus that term over the same denominator
    _, created = orbit_replay()
    a, b, c, k, l, m, p, q, r = symbols(["a", "b", "c", "k", "l", "m", "p", "q", "r"])
    printed_o = (k * k * m * q * q + b * k * l * p * r + c * l * l * p * r
                 + c * k * l * q * r + a * k * m * q * r + a * b * k * r * r
                 + a * c * l * r * r) / (l * m * p * q)
    corrected_o = printed_o + (b * k * k * q * r) / (l * m * p * q)
    assert created[(1, 4)] != printed_o
    assert created[(1, 4)] == corrected_o


def test_tropical_double_flip_identity():
    rng = random.Random(26)
    for _ in range(100):
        labels = {e: F(rng.randint(-9, 9), rng.randint(1, 9))
                  for e in [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5)]}
        tri = LabeledTriangulation([(1, 2, 3), (1, 3, 4), (1, 4, 5)], labels)
        again = tri.tropical_flip((1, 3)).tropical_flip((2, 4))
        assert again.labels_equal(tri)


def test_tropical_pentagon_identity_random():
    rng = random.Random(27)
    for _ in range(1000):
        labels = {e: F(rng.randint(-50, 50), rng.randint(1, 20))
                  for e in [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5)]}
        tri = LabeledTriangulation([(1, 2, 3), (1, 3, 4), (1, 4, 5)], labels)
        seq = pentagon_flip_cycle(tri, tropical=True)
        assert seq[-1].labels_equal(seq[0])


def test_far_flips_commute():
    rng = random.Random(28)
    # hexagon fan: diagonals (1,3), (1,4), (1,5); (1,3) and (1,5) flips act
    # on disjoint quadrilaterals
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6),
             (1, 3), (1, 4), (1, 5)]
    for _ in range(50):
        labels = {e: F(rng.randint(-9, 9), rng.randint(1, 9)) for e in edges}
        tri = LabeledTriangulation(
            [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6)], labels)
        ab = tri.tropical_flip((1, 3)).tropical_flip((1, 5))
        ba = tri.tropical_flip((1, 5)).tropical_flip((1, 3))
        assert ab.labels_equal(ba)


def test_sl2_hexagon_identity_symbolic():
    a, b, c = symbols(["a", "b", "c"])
    ms = sl2_edge_matrices(a, b, c)
    assert len(ms) == 6
    prod = ms[0]
    for mm in ms[1:]:
        prod = prod * mm
    one = RationalExpr.const(("a", "b", "c"), 1)
    assert prod == SL2Label(one, one - one, one - one, one)
    for mm in ms:
        (p, q), (r, t) = mm.m
        assert p * t - q * r == one


def test_sl2_zero_label_rejected():
    a, b, c = symbols(["a", "b", "c"])
    with pytest.raises(ZeroDivisionError):
        sl2_edge_matrices(a - a, b, c)


def test_sl2_flip_equations_iff_ptolemy():
    x, y, a, b, c, d = symbols(["x", "y", "a", "b", "c", "d"])
    ptol = (a * c + b * d) / x
    assert sl2_flip_equations(x, ptol, a, b, c, d) == [True] * 4
    assert sl2_flip_equations(x, y, a, b, c, d) == [False] * 4


def _rand_pair(rng):
    return (F(rng.randint(1, 9), rng.randint(1, 9)),
            F(rng.randint(1, 9), rng.randint(1, 9)))


def test_bas_rotation_order_three():
    rng = random.Random(29)
    for _ in range(100):
        v = _rand_pair(rng)
        assert bas_axiom_rotation(v)
        assert bas_rotate(bas_rotate(bas_rotate(v))) == v


def test_bas_pentagon():
    rng = random.Random(30)
    for _ in range(100):
        triple = (_rand_pair(rng), _rand_pair(rng), _rand_pair(rng))
        assert bas_axiom_pentagon(triple)


def test_bas_symmetry():
    rng = random.Random(31)
    for _ in range(100):
        assert bas_axiom_symmetry((_rand_pair(rng), _rand_pair(rng)))


def test_bas_fixed_point():
    one = (F(1), F(1))
    assert bas_rotate(one) == one


def test_bas_check_report_and_validation():
    rng = random.Random(32)
    samples = [_rand_pair(rng) for _ in range(100)]
    report = bas_ratio_check(samples)
    assert report == {"rotation": True, "pentagon": True, "symmetry": True}
    with pytest.raises(ValueError):
        bas_ratio_check([(F(0), F(1))])


def test_bas_flip_published_component():
    # second output of the flip is the published pair
    (x1, x2), (y1, y2) = (F(2), F(3)), (F(5), F(7))
    _, second = bas_flip((x1, x2), (y1, y2))
    den = x1 * y2 + x2
    assert second == (x2 * y1 / den, y2 / den)


# ---------------------------------------------------------------------------
# oracle: the never-reducing label arithmetic that the reduced form replaced


class _OraclePolynomial:
    """Expanded polynomial over Q; no normal form beyond dropping zeros."""

    def __init__(self, variables, coeffs=None):
        self.vars = tuple(variables)
        self.coeffs = {}
        for mono, c in (coeffs or {}).items():
            c = Fraction(c)
            if c:
                self.coeffs[tuple(mono)] = c

    @classmethod
    def constant(cls, variables, value):
        return cls(variables, {tuple(0 for _ in variables): value})

    @classmethod
    def variable(cls, variables, name):
        return cls(variables, {tuple(int(v == name) for v in variables): 1})

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return _OraclePolynomial(self.vars, out)

    def __neg__(self):
        return _OraclePolynomial(self.vars,
                                 {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return _OraclePolynomial(self.vars, out)

    def is_zero(self):
        return not self.coeffs


class _OracleRationalExpr:
    """Fraction of polynomials that never cancels; equality by
    cross-multiplied expansion."""

    def __init__(self, num, den=None):
        self.num = num
        self.den = den or _OraclePolynomial.constant(num.vars, 1)

    @classmethod
    def var(cls, variables, name):
        return cls(_OraclePolynomial.variable(variables, name))

    def __add__(self, other):
        return _OracleRationalExpr(self.num * other.den + other.num * self.den,
                                   self.den * other.den)

    def __mul__(self, other):
        return _OracleRationalExpr(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return _OracleRationalExpr(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        return (self.num * other.den - other.num * self.den).is_zero()


def _as_oracle(label):
    return _OracleRationalExpr(_OraclePolynomial(label.num.vars, label.num.coeffs),
                               _OraclePolynomial(label.den.vars, label.den.coeffs))


def _fan_edges(n):
    return sorted({e for k in range(2, n)
                   for e in itertools.combinations((1, k, k + 1), 2)})


def _names(n):
    return ["e%d_%d" % e for e in _fan_edges(n)]


def _replay(n, moves, symbolic):
    """Flip ``moves`` from the fan of the n-gon at vertex 1, edge (i, j)
    labelled by the generator that ``symbolic`` gives for 'ei_j'."""
    tri = LabeledTriangulation([(1, k, k + 1) for k in range(2, n)],
                               dict(zip(_fan_edges(n), symbolic(_names(n)))))
    for e in moves:
        tri = tri.ptolemy_flip(e)
    return tri


def _random_moves(n, count, rng):
    tri, moves = _replay(n, [], symbols), []
    for _ in range(count):
        interior = sorted(e for e in tri.labels
                          if len(tri.edge_triangles(e)) == 2)
        moves.append(rng.choice(interior))
        tri = tri.ptolemy_flip(moves[-1])
    return moves


def _oracle_symbols(names):
    return [_OracleRationalExpr.var(names, v) for v in names]


def _is_monic_monomial(p):
    return len(p.coeffs) == 1 and list(p.coeffs.values()) == [1]


@pytest.mark.parametrize("n", range(6, 13))
def test_reduced_labels_match_never_reducing_oracle(n):
    rng = random.Random(700 + n)
    for _ in range(3):
        moves = _random_moves(n, 10, rng)
        got = _replay(n, moves, symbols)
        want = _replay(n, moves, _oracle_symbols)
        assert got.triangles == want.triangles
        for e, label in got.labels.items():
            assert _is_monic_monomial(label.den), (n, moves, e)
            assert _as_oracle(label) == want.labels[e], (n, moves, e)


def test_thirty_flip_replay_stays_laurent_and_small():
    rng = random.Random(710)
    moves = _random_moves(10, 30, rng)
    start = time.perf_counter()
    tri = _replay(10, moves, symbols)
    assert time.perf_counter() - start < 2.0
    values = {v: F(rng.randint(1, 40), rng.randint(1, 40)) for v in _names(10)}
    exact = _replay(10, moves, lambda names: [values[v] for v in names])
    for e, label in tri.labels.items():
        assert _is_monic_monomial(label.den), e
        assert len(label.num.coeffs) <= 100, e
        assert label.substitute(values) == exact.labels[e]


def test_reduced_form_cancels_and_keeps_non_laurent():
    names = ("x", "y", "z")
    x, y, z = symbols(names)
    two = RationalExpr.const(names, 2)
    # a monomial factor and a polynomial factor cancel; den is made monic
    r = (x * x * y + x * y * z) / (two * x * y * (x + z))
    assert str(r) == "1/2"
    r = (x * x - y * y) / (x * z - y * z)
    assert str(r) == "(x + y) / (z)"
    assert str(x / (two * y)) == "(1/2*x) / (y)"
    # not Laurent: num/den kept, equality still by cross-multiplication
    r = x / (x + y)
    assert str(r) == "(x) / (x + y)"
    assert r == (x * z) / (x * z + y * z)
    assert ((x + y) / (x + z)) * ((x + z) / (x + y)) == RationalExpr.const(names, 1)
    # quotient with a non-integral coefficient
    r = (x + y) / (two * x + two * y)
    assert str(r) == "1/2"


def test_exact_quotient_rejects_inexact_division():
    names = ("x", "y")
    x = Polynomial.variable(names, "x")
    y = Polynomial.variable(names, "y")
    one = Polynomial.constant(names, 1)
    assert (x * x - y * y).exact_quotient(x + y) == x - y
    assert (x * x + y * y).exact_quotient(x + y) is None
    assert (x + one).exact_quotient(x * y + one) is None
    assert (x * y * y + y).exact_quotient(x * y + one) == y


def test_reduced_form_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(720)
    # short replays: sympy's multivariate gcd is slow on the oracle's
    # unreduced labels once they reach a few hundred terms
    for n in (6, 7, 8):
        names = _names(n)
        moves = _random_moves(n, 5, rng)
        got = _replay(n, moves, symbols)
        want = _replay(n, moves, _oracle_symbols)
        syms = {v: sympy.Symbol(v) for v in names}

        def to_sympy(p):
            return sympy.Add(*(c * sympy.Mul(*(syms[v] ** e
                                               for v, e in zip(p.vars, m)))
                               for m, c in p.coeffs.items()))

        for e, label in got.labels.items():
            old = want.labels[e]
            num, den = sympy.fraction(sympy.cancel(to_sympy(old.num)
                                                   / to_sympy(old.den)))
            assert sympy.expand(num * to_sympy(label.den)
                                - den * to_sympy(label.num)) == 0, e
            assert sympy.Poly(den, *syms.values()).is_monomial, e
