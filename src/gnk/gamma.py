"""Flip groups: Gamma_n^4, general Gamma_n^k, and the oriented variant.

Gamma_n^4 is generated by involutions d_(ijkl) indexed by dihedral classes
of 4-tuples (the cyclic order of four concyclic points), with far
commutativity for |overlap| < 3 and the pentagon relations.

For general k the generators a_{P,Q} encode exchange moves T_P -> T_Q on
k-point subconfigurations (P, Q disjoint, |P ∪ Q| = k, both sides of size
at least 2), with a_{Q,P} = a_{P,Q}^{-1}; the (k+1)-gon relations are read
off standard Gale diagrams of order k+1.  The oriented variant carries
cyclic orders on P and Q, identified under simultaneous transpositions: in
closed form, one class per ordered split (P, Q), two when |P| and |Q| are
both odd, told apart by the parity of the two sides as listed.

Gale transforms of exact rational point sets, standard Gale diagram
enumeration, and GF(2) abelianization ranks live here too.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb, factorial, gcd
from operator import itemgetter

from .words import (Alphabet, CyclicWord, Word, _cyclic_as_written,
                    far_commutators, far_test, label_mask, labels_text,
                    relabel_cyclic_words)


# ---------------------------------------------------------------------------
# Gamma_n^4 generators: dihedral classes of 4-tuples


def dihedral_canonical(quad):
    """Least representative of the dihedral class of a cyclic 4-tuple of
    distinct labels: the least label first, its smaller neighbour second."""
    k = quad.index(min(quad))
    a, b, c, d = quad[k:] + quad[:k]
    return (a, b, c, d) if b < d else (a, d, c, b)


@functools.lru_cache(maxsize=32)
def _quad_alphabet(labels):
    """The d-letters of Gamma^4 over a label set and their far test,
    built once per label set: three dihedral classes per 4-subset, keyed by
    their least quads (with a < b < c < d each quad below already is its
    least form)."""
    quads = [quad for a, b, c, d in itertools.combinations(labels, 4)
             for quad in ((a, b, c, d), (a, b, d, c), (a, c, b, d))]
    return (Alphabet({"d_" + labels_text(quad): quad for quad in quads}),
            far_test(tuple(map(label_mask, quads)), 2))


class Gamma4Group:
    """Gamma_n^4 over the labels 1..n; generators are involutive;
    ``far(a, b)``: the quads of codes a and b share at most two labels."""

    def __init__(self, n: int):
        if n < 4:
            raise ValueError("need n >= 4 labels")
        self.n = n
        self.labels = tuple(range(1, n + 1))
        self.alphabet, self.far = _quad_alphabet(self.labels)

    def letter(self, quad) -> int:
        """Code of the flip letter of any cyclic ordering of four labels."""
        return self.alphabet.code[dihedral_canonical(quad)]

    def graded_words(self, pairs) -> tuple:
        """The graded image in floor(r/2)+1 copies of Gamma_n^4, r = n - 4
        (n > 5): each (z, code) puts the letter into component
        min(z mod r, -z mod r)."""
        r = self.n - 4
        comps = [[] for _ in range(r // 2 + 1)]
        # residue x = z mod r goes to min(x, r - x) = min(z mod r, -z mod r)
        fold = [comps[min(x, r - x)] for x in range(r)]
        for z, c in pairs:
            fold[z % r].append(c)
        return tuple(Word(self.alphabet, cs) for cs in comps)

    def word_from_quads(self, quads) -> Word:
        return Word(self.alphabet, map(self.letter, quads))


def gamma4_presentation(n: int):
    """Relators of Gamma_n^4: involutions, far commutativity (``far``), and
    one pentagon (i, j, k, l, m) per rotation/reversal class: i least, j < m.

    The involution relators are empty (the alphabet is involutive).  The
    12 pentagons of the labels 1..5 are formed once, over
    ``Gamma4Group(5)``, and relabelled to each 5-subset
    (``words.relabel_cyclic_words``; ``DECISIONS.md``, "Relators relabelled
    from the base labels").
    """
    g = Gamma4Group(n)
    alphabet = g.alphabet
    rels = [CyclicWord(Word(alphabet))] * len(alphabet)
    rels += far_commutators(alphabet, g.far)
    base = Gamma4Group(5)
    pentagons = [CyclicWord(base.word_from_quads([
                     (1, j, k, l), (1, j, l, m), (j, k, l, m), (1, j, k, m),
                     (1, k, l, m)]))
                 for j, k, l, m in itertools.permutations(base.labels[1:])
                 if j < m]
    rels += relabel_cyclic_words(
        alphabet, itertools.combinations(g.labels, 5), pentagons)
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
            self.splits = [(P, Q) for P, Q in _ordered_splits(self.labels, k)
                           if P[0] < Q[0]]
        self.alphabet = Alphabet({pq_symbol(P, Q): (P, Q)
                                  for P, Q in self.splits}, involutive=False)
        # (label mask of P, label mask of Q) -> code of a_{P,Q}, both
        # orientations of each split (``words.label_mask``)
        self.split_codes = {}
        for (P, Q), c in self.alphabet.code.items():
            p, q = label_mask(P), label_mask(Q)
            self.split_codes[p, q] = c
            self.split_codes[q, p] = self.alphabet.inverse(c)


def _ordered_splits(labels, k):
    """Ordered splits (P, Q), both sorted, of each k-subset of the sorted
    ``labels`` into sides of at least two: by k-subset, then |P|, then P."""
    for kset in itertools.combinations(labels, k):
        for psz in range(2, k - 1):
            for P in itertools.combinations(kset, psz):
                yield P, tuple(x for x in kset if x not in P)


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
            if (p - q) % l == 0:        # a repeated point included
                raise ValueError("two points on one diameter")
        self._rl = None
        self._symmetries = None

    def satisfies_halfplane_condition(self) -> bool:
        """Every open half-plane bounded by a diameter holds >= 2 points.

        A line through vertices r and r + l leaves the l - 1 positions
        r+1 .. r+l-1 on one side; a line through no vertex leaves l
        positions on each side, a superset of such a run.  So the test is
        that each of the 2l runs holds two points: one popcount each on
        the position mask doubled around the 2l-gon.
        """
        l, mask = self.l, label_mask(self.positions)
        mask |= mask << 2 * l
        run = (1 << l - 1) - 1
        return all((mask >> r + 1 & run).bit_count() >= 2
                   for r in range(2 * l))

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
    the least sorted position tuple of each class.

    One sweep per class (``DECISIONS.md``, "Γ_n^k by class"): position p is
    bit 2l-1-p of a mask, so the least tuple is the largest mask.  The low
    l bits t < 2^(l-1) index the transversals through 0; the first unseen
    one forms the 4l images of its class, marks those through 0 as seen,
    and keeps the largest.
    """
    if l < 5:
        raise ValueError("standard Gale diagrams need l >= 5")
    n, low = 2 * l, (1 << l) - 1
    full = (1 << n) - 1
    seen = bytearray(1 << (l - 1))
    out = []
    for t in range(1 << (l - 1)):
        if seen[t]:
            continue
        mask = (low ^ t) << l | t
        best = 0
        for m in (mask, int(format(mask, "0%db" % n)[::-1], 2)):
            for r in range(n):
                image = (m >> r | m << (n - r)) & full
                if image >> (n - 1):        # through 0
                    seen[image & low] = 1
                    best = max(best, image)
        d = GaleDiagram(l, [n - 1 - b for b in range(n) if best >> b & 1])
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


# size caps of the CLI (DECISIONS.md, "Size caps"): the enumeration walks
# 2^(l-1) transversals; Gamma_10^7 has 6,720 generators and walks 14,515,200
# labelled polygons
GALE_ORDER_MAX = 16
GAMMA_GENERATORS_MAX = 10_000
GAMMA_LABELINGS_MAX = 20_000_000


def gamma_sizes(n: int, k: int) -> tuple:
    """(generators, labelled polygons, oriented column listings) of
    Gamma_n^k, 4 <= k <= n, in closed form: a k-subset has 2^(k-1) - k - 1
    splits with at least two labels on each side; the relators walk every
    ordering of each (k+1)-subset, none when n = k, for each standard Gale
    diagram of order k + 1; and ``oriented_columns`` lists the k! orderings
    of each k-subset once per side size |P| = 2 .. k - 2."""
    return (comb(n, k) * (2 ** (k - 1) - k - 1),
            comb(n, k + 1) * factorial(k + 1)
            * standard_gale_count_formula(k + 1),
            comb(n, k) * (k - 3) * factorial(k))


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


def far_commutator_count(n: int, k: int) -> int:
    """Number of far commutators of Gamma_n^k, in closed form.

    Splits of U and V are far when both sides of the first meet U - V and
    both sides of the second meet V - U, two conditions fixed by
    i = |U ∩ V| (``DECISIONS.md``, "Γ_n^k by class"): C(n, k)/2 ·
    sum_{i<k} C(k, i) C(n-k, k-i) g(i)^2, g(i) the splits of a k-set whose
    sides both meet a fixed (k-i)-subset.
    """
    def g(i):
        return sum(comb(k, s) - comb(i, s) - comb(i, k - s)
                   for s in range(2, k - 1)) // 2
    return comb(n, k) * sum(comb(k, i) * comb(n - k, k - i) * g(i) ** 2
                            for i in range(k)) // 2


def gamma_presentation(n: int, k: int):
    """Generators and relation families of Gamma_n^k.

    Returns (group, far_commutativity, polygon_relators): inverse
    normalisation is structural (a_{Q,P} stored as a_{P,Q}^{-1}), so no
    inverse-pair relators are listed.  ``far_commutativity`` is
    ``far_commutator_count``: only counted, never formed.

    Polygon relators are formed once per class up to rotation and
    inversion, for the labelings M <= M∘s of each diagram symmetry s
    (``GaleDiagram.symmetries``).  They are formed once over the base
    labels 1..k+1, as CyclicWords of ``GammaGroup(k + 1, k)``: the letter
    at point i splits the k labels other than M_i, so the letters are of
    distinct symbols, nothing cancels, and each is written at the rotation
    that starts at its least code.  Each (k+1)-subset relabels them with
    one lookup per letter: the increasing map onto the subset keeps the
    order of the labelings, every M <= M∘s test and the order of the
    splits, hence of the codes, so the images are already in their
    canonical rotations (``words.relabel_cyclic_words``; ``DECISIONS.md``,
    "Relators relabelled from the base labels").
    """
    group = GammaGroup(n, k)
    far = far_commutator_count(n, k)
    if n == k:                  # no (k+1)-subset to carry templates to
        return group, far, []
    base = GammaGroup(k + 1, k)
    diagrams = [(d.rl_position_sets(), [itemgetter(*s) for s in d.symmetries()])
                for d in enumerate_standard_gale(k + 1)]
    templates = []
    for M in itertools.permutations(base.labels):
        for rl, images in diagrams:
            if all(M <= image(M) for image in images):
                codes = _gale_letters(base.split_codes, rl, M)
                i = codes.index(min(codes))
                templates.append(_cyclic_as_written(
                    base.alphabet, tuple(codes[i:] + codes[:i])))
    return group, far, relabel_cyclic_words(
        group.alphabet, itertools.combinations(group.labels, k + 1),
        templates)


# ---------------------------------------------------------------------------
# Gale transform of exact rational point sets


def _pivot(rows, r, c):
    """Scale row r to 1 in column c, then clear column c from every other
    row, over Fractions."""
    piv = rows[r][c]
    rows[r] = [x / piv for x in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [x - f * y for x, y in zip(row, rows[r])]


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
        _pivot(rows, r, c)
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
    rows.append(cost)                     # the cost row is rows[m]
    basis = [n + i for i in range(m)]
    while True:
        enter = None
        for j in range(n):                # Bland: first improving original column
            if rows[m][j] < 0:
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
        _pivot(rows, leave, enter)
        basis[leave] = enter
    return rows[m][-1] == 0               # minus the phase-1 objective


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

    ``rows`` is any iterable of rows; a row is an int whose bit c is its
    entry in column c.  A given ``basis`` (leading bit -> row, as left by an
    earlier call) is extended in place, and the rank returned is that of its
    rows and ``rows``.
    """
    if basis is None:
        basis = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


# ---------------------------------------------------------------------------
# the oriented variant


def oriented_columns(n: int, k: int):
    """(number of columns, column of every listing) of the oriented
    variant's generator classes.

    The classes are the ordered splits (P, Q) of ``_ordered_splits``, each
    side cyclically oriented, modulo simultaneous transpositions: the pairs
    (σ, τ) of equal sign act on the pairs of cyclic orders.  A cyclic order
    of s labels is fixed by an s-cycle, of sign (-1)^(s-1), so a split with
    a side of even size is one class, and a split with both sides odd is
    two, told apart by parity(p) ^ parity(q) (inversion counts mod 2, which
    rotating an odd-length side keeps).  Columns follow the splits, the
    class of sorted sides first; ``column`` maps every listing (p, q) of
    the two sides, in any order, to its class's column.
    """
    if not 4 <= k <= n:
        raise ValueError("need 4 <= k <= n")
    # inversion parity of each permutation of range(s), in the order
    # itertools.permutations lists the orderings of a sorted side
    parities = [[sum(a > b for a, b in itertools.combinations(perm, 2)) & 1
                 for perm in itertools.permutations(range(s))]
                for s in range(k - 1)]
    column = {}
    ncols = 0
    for P, Q in _ordered_splits(range(1, n + 1), k):
        odd = len(P) & len(Q) & 1
        for p, a in zip(itertools.permutations(P), parities[len(P)]):
            for q, b in zip(itertools.permutations(Q), parities[len(Q)]):
                column[p, q] = ncols + (odd & (a ^ b))
        ncols += 1 + odd
    return ncols, column


def oriented_relator_rows(n: int, k: int, extra_words=()):
    """(num_generators, relator rows, extra rows) of the oriented flip
    group, each row the list of its letters' class columns.

    Relator instances: for each standard Gale diagram of order k+1, each
    (k+1)-subset M and each ordering of M, one polygon row; letters are the
    oriented classes of (M_R(i), M_L(i)); a letter with inverse sign
    contributes to the class of the swapped pair.
    """
    ngen, column = oriented_columns(n, k)
    rows = []
    for d in enumerate_standard_gale(k + 1):
        sides = [(itemgetter(*R), itemgetter(*L))
                 for R, L in d.rl_position_sets()]
        for M_set in itertools.combinations(range(1, n + 1), k + 1):
            for M in itertools.permutations(M_set):
                rows.append([column[R(M), L(M)] for R, L in sides])
    extra = [[column[(Q, P) if sign == -1 else (P, Q)] for P, Q, sign in word]
             for word in extra_words]
    return ngen, rows, extra


def oriented_abelianization_gf2(n: int, k: int, extra_words=()):
    """GF(2) abelianization data of the oriented flip group.

    Returns (num_generators, num_relations, rank [, rank with the extra
    words' rows added]) of the rows of ``oriented_relator_rows``, each
    row's columns XORed into one int.  The relator rows are eliminated
    once, and the extra rows are reduced against that basis.
    """
    ngen, rows, extra = oriented_relator_rows(n, k, extra_words)

    def bits(row):
        x = 0
        for c in row:
            x ^= 1 << c
        return x

    basis = {}
    out = (ngen, len(rows), gf2_rank(map(bits, rows), basis))
    if extra:
        out += (gf2_rank(map(bits, extra), basis),)
    return out
