"""Oracles for the relator lists and the Gale enumeration.

Form-then-deduplicate oracles check that one representative per symmetry
class is formed.  The Word builders form each relator as a reduced Word and
canonicalise it through ``CyclicWord``, as the presentations did before
they wrote each relator straight into its canonical rotation.
"""

import itertools

from gnk.gamma import Gamma4Group, GammaGroup, GaleDiagram, \
    enumerate_standard_gale, pq_symbol
from gnk.words import CyclicWord, word


def distinct_cyclic_words(words) -> list:
    """The CyclicWord of each word, keeping only the first of each class up
    to rotation and inversion, in input order."""
    seen = set()
    out = []
    for w in words:
        cw = CyclicWord(w)
        key = min(cw.letters, cw.reversal().letters)
        if key not in seen:
            seen.add(key)
            out.append(cw)
    return out


def canonical_positions(l, positions):
    """Least position tuple over all 4l isometries of the 2l-gon."""
    n = 2 * l
    return min(tuple(sorted((sgn * p + r) % n for p in positions))
               for r in range(n) for sgn in (1, -1))


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
            if d.satisfies_halfplane_condition():
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


def gamma4_relator_words(n):
    """Relators of Gamma_n^4: involutions, far commutativity, pentagons."""
    g = Gamma4Group(n)

    def generator(quad):
        return g.word_from_quads([quad])

    quads = g.alphabet.keys
    rels = [CyclicWord(generator(q) * generator(q)) for q in quads]
    rels += [CyclicWord((generator(q1) * generator(q2)) ** 2)
             for q1, q2 in itertools.combinations(quads, 2)
             if len(set(q1) & set(q2)) < 3]
    rels += [CyclicWord(g.word_from_quads(
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


def gamma_relator_words(n, k):
    """(far commutativity, polygon) relators of Gamma_n^k, the polygons
    for the labelings M <= M∘s of each diagram symmetry s."""
    group = GammaGroup(n, k)
    splits = [(P, Q, set(P), set(Q), set(P + Q)) for P, Q in group.splits]
    far = [CyclicWord(pq_word(group, [(P, Q), (P2, Q2), (Q, P), (Q2, P2)]))
           for (P, Q, p, q, u), (P2, Q2, p2, q2, v)
           in itertools.combinations(splits, 2)
           if not (p <= v or q <= v or p2 <= u or q2 <= u)]
    diagrams = enumerate_standard_gale(k + 1)
    polygons = [CyclicWord(gale_relation_pq_word(group, d, M))
                for M_set in itertools.combinations(group.labels, k + 1)
                for M in itertools.permutations(M_set)
                for d in diagrams
                if all(M <= tuple(M[i] for i in s) for s in d.symmetries())]
    return far, polygons
