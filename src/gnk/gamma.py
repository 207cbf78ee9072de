"""Flip groups: Gamma_n^4, general Gamma_n^k, and the oriented variant.

Gamma_n^4 is generated by involutions d_(ijkl) indexed by dihedral classes
of 4-tuples (the cyclic order of four concyclic points), with far
commutativity for |overlap| < 3 and the pentagon relations.

For general k the generators a_{P,Q} encode exchange moves T_P -> T_Q on
k-point subconfigurations (P, Q disjoint, |P ∪ Q| = k, both sides of size
at least 2), with a_{Q,P} = a_{P,Q}^{-1}; the (k+1)-gon relations are read
off standard Gale diagrams of order k+1.  The oriented variant carries
cyclic orders on P and Q, identified under simultaneous transpositions.

Gale transforms of exact rational point sets, standard Gale diagram
enumeration, and GF(2) abelianization ranks live here too.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .words import (Alphabet, CyclicWord, Word, cyclic_word_from_period,
                    labels_text, least_rotation, word_from_keys)


# ---------------------------------------------------------------------------
# Gamma_n^4 generators: dihedral classes of 4-tuples


def dihedral_canonical(quad):
    """Least representative of the dihedral class of a cyclic 4-tuple of
    distinct labels: the least label first, its smaller neighbour second."""
    k = quad.index(min(quad))
    a, b, c, d = quad[k:] + quad[:k]
    return (a, b, c, d) if b < d else (a, d, c, b)


def d_symbol(quad) -> str:
    return "d_" + labels_text(dihedral_canonical(quad))


@functools.lru_cache(maxsize=32)
def _quad_alphabet(labels) -> Alphabet:
    """The d-letters of Gamma^4 over a label set, built once per label set:
    three dihedral classes per 4-subset, keyed by their least quads (with
    a < b < c < d each quad below already is its least form)."""
    return Alphabet({
        "d_" + labels_text(quad): quad
        for a, b, c, d in itertools.combinations(labels, 4)
        for quad in ((a, b, c, d), (a, b, d, c), (a, c, b, d))})


class Gamma4Group:
    """Gamma_n^4 over an explicit label set; generators are involutive."""

    def __init__(self, n: int, labels=None):
        if labels is None:
            labels = tuple(range(1, n + 1))
        labels = tuple(sorted(labels))
        if len(labels) != n or n < 4:
            raise ValueError("need n >= 4 labels")
        self.n = n
        self.labels = labels
        self.alphabet = _quad_alphabet(labels)

    def word_from_quads(self, quads) -> Word:
        return word_from_keys(self.alphabet,
                              (dihedral_canonical(q) for q in quads))


def graded_words(n: int, pairs):
    """The graded image in floor(r/2)+1 copies of Gamma_n^4, r = n - 4
    (n > 5): each (z, quad) puts the flip letter of quad into component
    min(z mod r, -z mod r)."""
    r = n - 4
    comps = [[] for _ in range(r // 2 + 1)]
    for z, quad in pairs:
        comps[min(z % r, -z % r)].append(quad)
    return tuple(map(Gamma4Group(n).word_from_quads, comps))


def gamma4_presentation(n: int):
    """Relators of Gamma_n^4: involutions, far commutativity (|∩|<3), and one
    pentagon (i, j, k, l, m) per rotation/reversal class: i least, j < m.

    The involution relators are empty (the alphabet is involutive); the
    others are written straight into their canonical rotation
    (``cyclic_word_from_period``), one code lookup per quad.
    """
    g = Gamma4Group(n)
    alphabet = g.alphabet
    quads = alphabet.keys
    # every ordering of a quad's dihedral class -> its code
    code = {}
    for quad, c in alphabet.code.items():
        for image in (quad, quad[::-1]):
            for r in range(4):
                code[image[r:] + image[:r]] = c
    rels = [CyclicWord(Word(alphabet))] * len(quads)
    rels += [cyclic_word_from_period(alphabet, (code[q1], code[q2]), 2)
             for q1, q2 in itertools.combinations(quads, 2)
             if len(set(q1) & set(q2)) < 3]
    rels += [cyclic_word_from_period(alphabet, (
                 code[i, j, k, l], code[i, j, l, m], code[j, k, l, m],
                 code[i, j, k, m], code[i, k, l, m]))
             for i, *rest in itertools.combinations(g.labels, 5)
             for j, k, l, m in itertools.permutations(rest) if j < m]
    return g, rels


# ---------------------------------------------------------------------------
# general Gamma_n^k generators a_{P,Q}


def pq_symbol(P, Q) -> str:
    return "a_%s,%s" % (labels_text(sorted(P)), labels_text(sorted(Q)))


class GammaGroup:
    """Gamma_n^k for k >= 4: generators a_{P,Q}, a_{Q,P} = a_{P,Q}^{-1}.

    The stored symbol always has min(P ∪ Q) in P; the other orientation is
    the formal inverse.  ``splits``, sorted (P, Q) pairs, limits the
    alphabet to those generators, for words that use no others.
    """

    def __init__(self, n: int, k: int, splits=None):
        if not 4 <= k <= n:
            raise ValueError("need 4 <= k <= n")
        self.n = n
        self.k = k
        self.labels = tuple(range(1, n + 1))
        self.splits = splits
        if splits is None:
            self.splits = []
            for kset in itertools.combinations(self.labels, k):
                for psz in range(2, k - 1):
                    for P in itertools.combinations(kset, psz):
                        Q = tuple(x for x in kset if x not in P)
                        if min(P) < min(Q):
                            self.splits.append((P, Q))
        self.alphabet = Alphabet({pq_symbol(P, Q): (P, Q)
                                  for P, Q in self.splits}, involutive=False)
        # (label mask of P, label mask of Q) -> code of a_{P,Q}, both
        # orientations of each split; a label x is bit 1 << x of a mask
        self.split_codes = {}
        for (P, Q), c in self.alphabet.code.items():
            p, q = _label_mask(P), _label_mask(Q)
            self.split_codes[p, q] = c
            self.split_codes[q, p] = self.alphabet.inverse(c)


def _label_mask(labels) -> int:
    mask = 0
    for x in labels:
        mask |= 1 << x
    return mask


# ---------------------------------------------------------------------------
# standard Gale diagrams


class GaleDiagram:
    """l of the 2l vertices of a regular 2l-gon, one per diameter.

    Vertex p sits at angle pi*p/l.  Canonical representative: least position
    tuple under the dihedral action of the 2l-gon.
    """

    def __init__(self, l: int, positions):
        self.l = l
        self.positions = tuple(sorted(p % (2 * l) for p in positions))
        if len(self.positions) != l:
            raise ValueError("need exactly l positions")
        for p, q in itertools.combinations(self.positions, 2):
            if (p - q) % (2 * l) == l:
                raise ValueError("two points on one diameter")
        self._rl = None
        self._symmetries = None

    def satisfies_halfplane_condition(self) -> bool:
        """Every open half-plane bounded by a diameter holds >= 2 points."""
        l = self.l
        for q in range(2 * l):          # line direction angle pi*q/(2l)
            left = right = 0
            for p in self.positions:
                d = (2 * p - q) % (4 * l)
                if d == 0 or d == 2 * l:
                    continue            # point on the line
                if 0 < d < 2 * l:
                    left += 1
                else:
                    right += 1
            if left < 2 or right < 2:
                return False
        return True

    def rl_position_sets(self):
        """(R(i), L(i)) index pairs, points taken in ccw position order.

        R(i)/L(i) are the indices of the points strictly right/left of the
        oriented line spanned by point i.  Computed once per diagram: every
        labeling M of the diagram reads the same pairs.
        """
        if self._rl is not None:
            return self._rl
        pts = self.positions
        out = []
        for i, pi in enumerate(pts):
            R, L = [], []
            for j, pj in enumerate(pts):
                if j == i:
                    continue
                d = (pj - pi) % (2 * self.l)
                if 0 < d < self.l:
                    L.append(j)
                else:
                    R.append(j)
            out.append((tuple(R), tuple(L)))
        self._rl = tuple(out)
        return self._rl

    def symmetries(self):
        """Index permutations s, point i to point s[i], of the 2l-gon
        isometries other than the identity that map the positions onto
        themselves; computed once per diagram.  Relabeling M by
        M∘s = (M[s[0]], ..., M[s[l-1]]) rotates its relator when the
        isometry is a rotation and inverts it when it is a reflection."""
        if self._symmetries is None:
            n, pts = 2 * self.l, self.positions
            images = (tuple((sgn * p + r) % n for p in pts)
                      for r in range(n) for sgn in (1, -1))
            self._symmetries = tuple(
                tuple(map(pts.index, image)) for image in images
                if image != pts and sorted(image) == list(pts))
        return self._symmetries

    def __eq__(self, other):
        return (isinstance(other, GaleDiagram) and self.l == other.l
                and self.positions == other.positions)

    def __hash__(self):
        return hash((self.l, self.positions))

    def __repr__(self):
        return "GaleDiagram(l=%d, %r)" % (self.l, self.positions)


def enumerate_standard_gale(l: int):
    """All standard Gale diagrams of order l, canonical up to 2l-gon isometry:
    the transversals through 0 that no isometry sending a point to 0 makes
    smaller (the least image contains 0)."""
    if l < 5:
        raise ValueError("standard Gale diagrams need l >= 5")
    n = 2 * l
    out = []
    for bits in itertools.product((0, l), repeat=l - 1):
        pos = (0,) + tuple(p + b for p, b in enumerate(bits, 1))
        least = tuple(sorted(pos))
        if all(least <= tuple(sorted(sgn * (x - p) % n for x in pos))
               for p in pos for sgn in (1, -1)):
            d = GaleDiagram(l, pos)
            if d.satisfies_halfplane_condition():
                out.append(d)
    out.sort(key=lambda d: d.positions)
    return out


def standard_gale_count_formula(l: int) -> int:
    """Closed-form count of standard Gale diagrams of order l.

    Burnside count of diameter transversals modulo the 2l-gon isometries,
    minus the ceil(l/2) classes that fail the open-half-plane condition:

        c_l = 2^floor((l-3)/2) + (1/4l) * sum_{odd h | l} phi(h) 2^(l/h)
              - ceil(l/2).
    """
    def phi(m):
        return sum(1 for t in range(1, m + 1) if gcd(t, m) == 1)
    rot = sum(phi(h) * 2 ** (l // h) for h in range(1, l + 1)
              if l % h == 0 and h % 2 == 1)
    total = Fraction(rot, 4 * l) + 2 ** ((l - 3) // 2) - (l + 1) // 2
    assert total.denominator == 1
    return int(total)


def gale_relation_word(group: GammaGroup, diagram: GaleDiagram, M) -> Word:
    """(k+1)-gon relator for an ordered labeling M of a standard diagram.

    M lists the labels assigned to the diagram's points in ccw order; the
    relator is the product over i of a_{M_R(i), M_L(i)}.  ValueError when M
    does not list l distinct labels of the group, or when l != k + 1.
    """
    M = tuple(M)
    if diagram.l != group.k + 1:
        raise ValueError("a diagram of order %d needs k = %d, not %d"
                         % (diagram.l, diagram.l - 1, group.k))
    if len(M) != diagram.l:
        raise ValueError("labeling must list l labels")
    if len(set(M)) != len(M) or not set(M) <= set(group.labels):
        raise ValueError("labeling %r: labels must be distinct and in 1..%d"
                         % (M, group.n))
    return Word(group.alphabet, _gale_letters(
        group.split_codes, diagram.rl_position_sets(), M))


def _gale_letters(table, rl, M):
    """Codes of the relator of a labeling M of distinct labels: one
    ``split_codes`` lookup per point, by the masks of M_R(i) and M_L(i)
    over the (R, L) index pairs ``rl``."""
    bits = [1 << x for x in M]
    codes = []
    for R, L in rl:
        r = l = 0
        for j in R:
            r |= bits[j]
        for j in L:
            l |= bits[j]
        codes.append(table[r, l])
    return codes


def gamma_presentation(n: int, k: int):
    """Generators and relation families of Gamma_n^k.

    Returns (group, far_commutativity, polygon_relators): inverse
    normalisation is structural (a_{Q,P} stored as a_{P,Q}^{-1}), so no
    inverse-pair relators are listed.  Polygon relators are formed once per
    class up to rotation and inversion, for the labelings M <= M∘s of each
    diagram symmetry s (``GaleDiagram.symmetries``).  Every relator is
    written straight into its canonical rotation
    (``cyclic_word_from_period``) from ``GammaGroup.split_codes``.
    """
    group = GammaGroup(n, k)
    alphabet, table = group.alphabet, group.split_codes
    splits = [(c, alphabet.inverse(c), set(P), set(Q), set(P + Q))
              for (P, Q), c in alphabet.code.items()]
    far = [cyclic_word_from_period(alphabet, (a, b, a_inv, b_inv))
           for (a, a_inv, p, q, u), (b, b_inv, p2, q2, v)
           in itertools.combinations(splits, 2)
           if not (p <= v or q <= v or p2 <= u or q2 <= u)]
    diagrams = [(d.rl_position_sets(), [itemgetter(*s) for s in d.symmetries()])
                for d in enumerate_standard_gale(k + 1)]
    polygons = [cyclic_word_from_period(alphabet, _gale_letters(table, rl, M))
                for M_set in itertools.combinations(group.labels, k + 1)
                for M in itertools.permutations(M_set)
                for rl, images in diagrams
                if all(M <= image(M) for image in images)]
    return group, far, polygons


def pq_to_d_quad(P, Q):
    """Dictionary between a_{P,Q} (k = 4) and the dihedral 4-tuple class:
    the diagonals P and Q interleave around the quadrilateral."""
    P, Q = sorted(P), sorted(Q)
    return dihedral_canonical((P[0], Q[0], P[1], Q[1]))


# ---------------------------------------------------------------------------
# Gale transform of exact rational point sets


def _rref(rows, width):
    """Reduced row echelon form over Fractions; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def gale_transform(points):
    """Gale transform of n rational points in R^d: columns of a kernel basis.

    The kernel basis of the (d+1) x n matrix [coords; ones] is chosen by
    reduced row echelon form, so the output is deterministic.  Requires the
    points to affinely span R^d.
    """
    points = [tuple(Fraction(x) for x in p) for p in points]
    n = len(points)
    d = len(points[0])
    M = [[points[j][i] for j in range(n)] for i in range(d)]
    M.append([Fraction(1)] * n)
    rref, pivots = _rref(M, n)
    if len(pivots) != d + 1:
        raise ValueError("points do not affinely span R^d")
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(vec)
    # columns of the basis matrix are the transform vectors
    return [tuple(basis[r][j] for r in range(len(basis))) for j in range(n)]


def primitive_direction(vec):
    """Scale a rational vector to a primitive integer vector (keep sign)."""
    vec = [Fraction(x) for x in vec]
    if all(x == 0 for x in vec):
        return tuple(0 for _ in vec)
    den = lcm(*(x.denominator for x in vec))
    ints = [int(x * den) for x in vec]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def gale_diagram(points):
    """Normalized-direction multiset of the Gale transform."""
    return [primitive_direction(v) for v in gale_transform(points)]


def in_relative_interior_zero(vectors) -> bool:
    """Exact test: does 0 lie in the relative interior of conv(vectors)?

    Equivalent to the existence of strictly positive rational lambda with
    sum(lambda_v * v) = 0; decided by phase-1 simplex with Bland's rule on
    the scaled system lambda_v >= 1.
    """
    vectors = [tuple(Fraction(x) for x in v) for v in vectors]
    if not vectors:
        return False
    d = len(vectors[0])
    n = len(vectors)
    # mu_v >= 0, sum (mu_v + 1) v = 0  ->  A mu = b with A = [v], b = -sum v
    A = [[vectors[j][i] for j in range(n)] for i in range(d)]
    b = [-sum(vectors[j][i] for j in range(n)) for i in range(d)]
    return _exact_lp_feasible(A, b)


def _exact_lp_feasible(A, b) -> bool:
    """Feasibility of A x = b, x >= 0 over exact rationals (phase-1 simplex)."""
    m = len(A)
    n = len(A[0]) if m else 0
    rows = []
    for i in range(m):
        row = [Fraction(x) for x in A[i]] + [Fraction(0)] * m + [Fraction(b[i])]
        if row[-1] < 0:
            row = [-x for x in row]
        row[n + i] = Fraction(1)
        rows.append(row)
    cost = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        cost = [c - r for c, r in zip(cost, rows[i])]
    for i in range(m):
        cost[n + i] = Fraction(0)          # artificials start basic
    basis = [n + i for i in range(m)]
    while True:
        enter = None
        for j in range(n):                # Bland: first improving original column
            if cost[j] < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][-1] / rows[i][enter]
                if best is None or ratio < best or (ratio == best
                                                    and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return False                  # unbounded phase-1: cannot happen
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, rows[leave])]
        basis[leave] = enter
    objective = -cost[-1]
    return objective == 0


def polytope_faces_via_gale(points):
    """Index sets J that span faces of conv(points), via the Gale criterion:
    J is a face iff 0 is in the relative interior of the complementary
    transform vectors."""
    Y = gale_transform(points)
    n = len(points)
    faces = []
    for r in range(n + 1):
        for J in itertools.combinations(range(n), r):
            rest = [Y[i] for i in range(n) if i not in J]
            if not rest:
                continue
            if in_relative_interior_zero(rest):
                faces.append(J)
    return faces


# ---------------------------------------------------------------------------
# GF(2) abelianization ranks


def gf2_rank(rows, basis=None) -> int:
    """Rank over GF(2) by XOR elimination on Python-int bitsets.

    ``rows`` is any iterable of rows; a row is a sequence of 0/1 entries
    (read mod 2) or an int whose bit c is its entry in column c.  A given
    ``basis`` (leading bit -> row, as left by an earlier call) is extended
    in place, and the rank returned is that of its rows and ``rows``.
    """
    if basis is None:
        basis = {}
    for row in rows:
        if not isinstance(row, int):
            row = sum(1 << c for c, x in enumerate(row) if x % 2)
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


def abelianization_rank_gf2(generator_index, relator_rows, extra_rows=()):
    """(num_generators, num_relations, rank [, rank with extras]) of a GF(2)
    exponent matrix.

    ``generator_index`` maps generator keys to column numbers, and keys
    that name one generator share its column; ``relator_rows`` is an
    iterable of generator-key multisets (iterables), each XOR-accumulated
    into one row.  When ``extra_rows`` are given, a fourth entry is the
    rank with them added; the relator rows are eliminated once, and the
    extra rows are reduced against that basis.
    """
    def bits(rel):
        row = 0
        for key in rel:
            row ^= 1 << generator_index[key]
        return row

    rows = [bits(rel) for rel in relator_rows]
    basis = {}
    out = (len(set(generator_index.values())), len(rows),
           gf2_rank(rows, basis))
    extra_rows = list(extra_rows)
    if extra_rows:
        out += (gf2_rank(map(bits, extra_rows), basis),)
    return out


# ---------------------------------------------------------------------------
# the oriented variant


def oriented_generator_classes(n: int, k: int):
    """Generator classes of the oriented variant: ordered pairs of cyclically
    oriented disjoint sets, modulo simultaneous transpositions.

    A transposition on a part of size 2 fixes its cyclic order, so for parts
    of size 2 the partner's orientation collapses; classes are computed as
    orbits of (cyc P, cyc Q) under pairs of equal-parity permutations.

    Returns (classes, reps): ``reps`` lists the least pair of each class in
    column order, and ``classes`` maps every pair (cyc P, cyc Q), each part
    a least rotation, to the column of its class.
    """
    classes = {}
    reps = []
    labels = range(1, n + 1)
    for kset in itertools.combinations(labels, k):
        for psz in range(2, k - 1):
            for P in itertools.combinations(kset, psz):
                Q = tuple(x for x in kset if x not in P)
                for cp in _cyclic_orders(P):
                    for cq in _cyclic_orders(Q):
                        key = _oriented_canonical(cp, cq)
                        if key not in classes:
                            classes[key] = len(reps)
                            reps.append(key)
                        classes[cp, cq] = classes[key]
    return classes, reps


def _cyclic_orders(S):
    """Every cyclic order of a set of at least two labels, as the rotation
    that starts at its least label."""
    first, *rest = sorted(S)
    return [(first,) + order for order in itertools.permutations(rest)]


def _oriented_canonical(cp, cq):
    """Canonical orbit representative under simultaneous transpositions."""
    def transpositions(cyc):
        n = len(cyc)
        out = set()
        for i in range(n):
            for j in range(i + 1, n):
                lst = list(cyc)
                lst[i], lst[j] = lst[j], lst[i]
                out.add(least_rotation(lst))
        return out
    seen = {(least_rotation(cp), least_rotation(cq))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p, q in frontier:
            for p2 in transpositions(p):
                for q2 in transpositions(q):
                    cand = (p2, q2)
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return min(seen)


def oriented_abelianization_gf2(n: int, k: int, extra_words=()):
    """GF(2) abelianization data of the oriented flip group.

    Returns (num_generators, num_relations, rank [, rank with the extra
    words' rows added]).
    Relator instances: for each standard Gale diagram of order k+1, each
    (k+1)-subset M and each ordering of M, one polygon row; letters are the
    oriented classes of (M_R(i), M_L(i)); a letter with inverse sign
    contributes to the class of the swapped pair.
    """
    classes, _ = oriented_generator_classes(n, k)
    # the rows read about 150 distinct side tuples at (6, 5)
    rotation = functools.cache(least_rotation)

    def letters(pairs):
        return [(rotation(P), rotation(Q)) for P, Q in pairs]

    rows = []
    for d in enumerate_standard_gale(k + 1):
        rl = d.rl_position_sets()
        for M_set in itertools.combinations(range(1, n + 1), k + 1):
            for M in itertools.permutations(M_set):
                rows.append(letters((tuple(M[j] for j in R),
                                     tuple(M[j] for j in L)) for R, L in rl))
    extra = [letters((Q, P) if sign == -1 else (P, Q) for P, Q, sign in word)
             for word in extra_words]
    return abelianization_rank_gf2(classes, rows, extra)
