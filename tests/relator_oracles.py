"""Oracles for the relator lists, the Gale enumeration and the oriented
generator classes.

Form-then-deduplicate oracles check that one representative per symmetry
class is formed.  The Word builders form each relator as a reduced Word and
canonicalise it through ``CyclicWord``, as the presentations did before
they wrote each relator straight into its canonical rotation.

``d_symbol``, ``quad_word`` and ``pq_to_d_quad`` name Gamma_n^4's flip
letters and look them up by their least dihedral forms, without
``Gamma4Group.letter``.
"""

import itertools

from gnk.gamma import Gamma4Group, GammaGroup, GaleDiagram, \
    dihedral_canonical, enumerate_standard_gale, pq_symbol
from gnk.words import (CyclicWord, Word, labels_text, least_rotation, word,
                       word_from_keys)


def class_key(cw) -> tuple:
    """The letters of a cyclic word or of its inverse, whichever is less:
    one key per class up to rotation and inversion."""
    inverse = Word(cw.alphabet, cw.codes).inverse()
    return min(cw.letters, CyclicWord(inverse).letters)


def distinct_cyclic_words(words) -> list:
    """The CyclicWord of each word, keeping only the first of each class up
    to rotation and inversion, in input order."""
    seen = set()
    out = []
    for w in words:
        cw = CyclicWord(w)
        key = class_key(cw)
        if key not in seen:
            seen.add(key)
            out.append(cw)
    return out


def canonical_positions(l, positions):
    """Least position tuple over all 4l isometries of the 2l-gon."""
    n = 2 * l
    return min(tuple(sorted((sgn * p + r) % n for p in positions))
               for r in range(n) for sgn in (1, -1))


def halfplane_condition_by_lines(diagram):
    """Every open half-plane bounded by a line through the centre holds at
    least two points, tested on the 2l line directions pi*q/(2l) point by
    point."""
    l = diagram.l
    for q in range(2 * l):
        left = right = 0
        for p in diagram.positions:
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


def standard_gale_brute_force(l):
    """Every diameter transversal, canonicalised and deduplicated through a
    seen-set, kept when it meets the half-plane condition."""
    seen = set()
    out = []
    for bits in itertools.product((0, 1), repeat=l):
        pos = canonical_positions(l, [p + b * l for p, b in enumerate(bits)])
        if pos not in seen:
            seen.add(pos)
            d = GaleDiagram(l, pos)
            if halfplane_condition_by_lines(d):
                out.append(d)
    out.sort(key=lambda d: d.positions)
    return out


# ---------------------------------------------------------------------------
# Word builders: reduce each relator, then search its least rotation


def gnk_relator_words(group):
    """(involution, far commutativity, tetrahedron) relators of G_n^k."""
    def generator(m):
        return group.word_from_subsets([m])

    k = group.k
    involution = [CyclicWord(generator(m) * generator(m))
                  for m in group.subsets]
    far = [CyclicWord((generator(m1) * generator(m2)) ** 2)
           for m1, m2 in itertools.combinations(group.subsets, 2)
           if len(set(m1) & set(m2)) <= k - 2]
    tetrahedron = []
    for U in itertools.combinations(group.labels, k + 1):
        for rest in itertools.permutations(U[1:]):
            if rest[0] <= rest[-1]:
                base = group.word_from_subsets(
                    [tuple(sorted(set(U) - {u})) for u in U[:1] + rest])
                tetrahedron.append(CyclicWord(base * base))
    return involution, far, tetrahedron


def d_symbol(quad) -> str:
    """Name of the flip letter of a cyclic 4-tuple: d_ and its least
    dihedral form."""
    return "d_" + labels_text(dihedral_canonical(quad))


def quad_word(group, quads):
    """Word of the flip letters of cyclic 4-tuples, each keyed by its least
    dihedral form."""
    return word_from_keys(group.alphabet, map(dihedral_canonical, quads))


def pq_to_d_quad(P, Q):
    """Dictionary between a_{P,Q} (k = 4) and the dihedral 4-tuple class:
    the diagonals P and Q interleave around the quadrilateral."""
    P, Q = sorted(P), sorted(Q)
    return dihedral_canonical((P[0], Q[0], P[1], Q[1]))


def gamma4_relator_words(n):
    """Relators of Gamma_n^4: involutions, far commutativity, pentagons."""
    g = Gamma4Group(n)

    def generator(quad):
        return quad_word(g, [quad])

    quads = g.alphabet.keys
    rels = [CyclicWord(generator(q) * generator(q)) for q in quads]
    rels += [CyclicWord((generator(q1) * generator(q2)) ** 2)
             for q1, q2 in itertools.combinations(quads, 2)
             if len(set(q1) & set(q2)) < 3]
    rels += [CyclicWord(quad_word(g,
                 [(i, j, k, l), (i, j, l, m), (j, k, l, m), (i, j, k, m),
                  (i, k, l, m)]))
             for i, *rest in itertools.combinations(g.labels, 5)
             for j, k, l, m in itertools.permutations(rest) if j < m]
    return rels


def pq_letter(group, P, Q):
    """(symbol, sign) of a_{P,Q}: the stored split has min(P ∪ Q) in P."""
    P, Q = tuple(sorted(P)), tuple(sorted(Q))
    if min(P) < min(Q):
        return (pq_symbol(P, Q), 1)
    return (pq_symbol(Q, P), -1)


def pq_word(group, pairs):
    return word(group.alphabet, [pq_letter(group, P, Q) for P, Q in pairs])


def gale_relation_pq_word(group, diagram, M):
    """The (k+1)-gon relator of labeling M, letter by letter from sorted
    sides."""
    return pq_word(group, [(tuple(M[j] for j in R), tuple(M[j] for j in L))
                           for R, L in diagram.rl_position_sets()])


def far_split_pairs(group):
    """Pairs of stored splits (P, Q), (P2, Q2) of far generators, in the
    order of the pairs of splits: no side of one lies in the label set of
    the other, tested on sets."""
    splits = [(P, Q, set(P), set(Q), set(P + Q)) for P, Q in group.splits]
    return [((P, Q), (P2, Q2))
            for (P, Q, p, q, u), (P2, Q2, p2, q2, v)
            in itertools.combinations(splits, 2)
            if not (p <= v or q <= v or p2 <= u or q2 <= u)]


def gamma_relator_words(n, k):
    """(far commutativity, polygon) relators of Gamma_n^k, the polygons
    for the labelings M <= M∘s of each diagram symmetry s."""
    group = GammaGroup(n, k)
    far = [CyclicWord(pq_word(group, [(P, Q), (P2, Q2), (Q, P), (Q2, P2)]))
           for (P, Q), (P2, Q2) in far_split_pairs(group)]
    diagrams = enumerate_standard_gale(k + 1)
    polygons = [CyclicWord(gale_relation_pq_word(group, d, M))
                for M_set in itertools.combinations(group.labels, k + 1)
                for M in itertools.permutations(M_set)
                for d in diagrams
                if all(M <= tuple(M[i] for i in s) for s in d.symmetries())]
    return far, polygons


# ---------------------------------------------------------------------------
# oriented generator classes by transposition-orbit search


def oriented_generator_classes(n, k):
    """Generator classes of the oriented variant, each found as an orbit of
    pairs of cyclic orders (cyc P, cyc Q) under simultaneous transpositions.

    Returns (classes, reps): ``reps`` lists the least pair of each class in
    order of first appearance, and ``classes`` maps every pair (cyc P,
    cyc Q), each part a least rotation, to the index of its class.
    """
    classes = {}
    reps = []
    for kset in itertools.combinations(range(1, n + 1), k):
        for psz in range(2, k - 1):
            for P in itertools.combinations(kset, psz):
                Q = tuple(x for x in kset if x not in P)
                for cp in cyclic_orders(P):
                    for cq in cyclic_orders(Q):
                        key = oriented_canonical(cp, cq)
                        if key not in classes:
                            classes[key] = len(reps)
                            reps.append(key)
                        classes[cp, cq] = classes[key]
    return classes, reps


def cyclic_orders(S):
    """Every cyclic order of a set of at least two labels, as the rotation
    that starts at its least label."""
    first, *rest = sorted(S)
    return [(first,) + order for order in itertools.permutations(rest)]


def oriented_canonical(cp, cq):
    """Least pair of least rotations in the orbit of (cp, cq) under
    simultaneous transpositions, by breadth-first search."""
    def transpositions(cyc):
        out = set()
        for i, j in itertools.combinations(range(len(cyc)), 2):
            lst = list(cyc)
            lst[i], lst[j] = lst[j], lst[i]
            out.add(least_rotation(lst))
        return out
    seen = {(least_rotation(cp), least_rotation(cq))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p, q in frontier:
            for cand in itertools.product(transpositions(p), transpositions(q)):
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return min(seen)
