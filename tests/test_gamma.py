import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from gnk.gamma import (GammaGroup, GaleDiagram,
                       abelianization_rank_gf2, dihedral_canonical,
                       enumerate_standard_gale, gale_diagram,
                       gale_relation_word, gale_transform, gamma4_presentation,
                       gamma_presentation, gf2_rank, in_relative_interior_zero,
                       oriented_abelianization_gf2, oriented_generator_classes,
                       polytope_faces_via_gale, pq_to_d_quad,
                       standard_gale_count_formula)
from gnk.words import CyclicWord, format_word


def test_dihedral_canonical():
    quad = (2, 1, 4, 5)
    images = {(2, 1, 4, 5), (1, 4, 5, 2), (4, 5, 2, 1), (5, 2, 1, 4),
              (5, 4, 1, 2), (4, 1, 2, 5), (1, 2, 5, 4), (2, 5, 4, 1)}
    assert all(dihedral_canonical(q) == dihedral_canonical(quad)
               for q in images)
    assert dihedral_canonical((1, 2, 4, 5)) != dihedral_canonical(quad)


def test_enumerate_counts():
    assert len(enumerate_standard_gale(5)) == 1
    assert len(enumerate_standard_gale(6)) == 2
    assert len(enumerate_standard_gale(7)) == 5


def test_enumeration_matches_closed_formula():
    for l in range(5, 11):
        assert len(enumerate_standard_gale(l)) == standard_gale_count_formula(l)


def test_enumerated_diagrams_satisfy_conditions():
    for l in (5, 6, 7, 8):
        for d in enumerate_standard_gale(l):
            assert d.satisfies_halfplane_condition()
            for p, q in itertools.combinations(d.positions, 2):
                assert (p - q) % (2 * l) != l


def test_pentagon_relation_word():
    group = GammaGroup(5, 4)
    d = enumerate_standard_gale(5)[0]
    w = gale_relation_word(group, d, (1, 2, 3, 4, 5))
    # a_{45,23} a_{15,34} a_{12,45} a_{23,15} a_{34,12} with inverse
    # normalisation folding a_{45,23} to a_{23,45}^-1 etc.
    assert format_word(w) == "a_23,45^-1 a_15,34 a_12,45 a_15,23^-1 a_12,34^-1"
    assert len(w) == 5


def test_polygon_relator_rl_structure():
    for l in (5, 6, 7):
        group = GammaGroup(l, l - 1)
        for d in enumerate_standard_gale(l):
            for i, (R, L) in enumerate(d.rl_position_sets()):
                assert len(R) + len(L) == l - 1
                assert i not in R and i not in L


def test_pentagon_labelings_reproduce_d_family():
    # the k = 4 polygon relators, pushed through the diagonal-pair
    # dictionary, all land in the pentagon family of the d-presentation
    g4, rels = gamma4_presentation(5)
    pentagon_keys = set()
    for cw in rels:
        if len(cw) == 5:
            pentagon_keys.add(min(cw.letters, cw.reversal().letters))
    group = GammaGroup(5, 4)
    d = enumerate_standard_gale(5)[0]
    seen = set()
    for M in itertools.permutations(range(1, 6)):
        w = gale_relation_word(group, d, M)
        quads = []
        for sym, _ in w:
            P, Q = group.alphabet.key[sym]
            quads.append(pq_to_d_quad(P, Q))
        dw = g4.word_from_quads(quads)
        cw = CyclicWord(dw)
        seen.add(min(cw.letters, cw.reversal().letters))
    assert seen == pentagon_keys
    assert len(seen) == 12   # 5!/(2*5) labelings of one pentagon relator


def test_hexagons_match_printed_relations():
    group = GammaGroup(6, 5)
    words = {d.positions: format_word(gale_relation_word(group, d, (1, 2, 3, 4, 5, 6)))
             for d in enumerate_standard_gale(6)}
    assert words[(0, 1, 4, 5, 8, 9)] == \
        "a_234,56^-1 a_156,34 a_12,456 a_123,56 a_126,34^-1 a_12,345^-1"
    assert words[(0, 1, 3, 5, 8, 10)] == \
        "a_234,56^-1 a_156,34 a_126,45 a_123,56 a_126,34^-1 a_123,45^-1"


def test_heptagon_shapes_match_printed():
    g7 = GammaGroup(7, 6)
    words = [format_word(gale_relation_word(g7, d, tuple(range(1, 8))))
             for d in enumerate_standard_gale(7)]
    printed = [
        "a_2345,67^-1 a_167,345 a_1267,45 a_123,567 a_1234,67 a_1237,45^-1 a_123,456^-1",
        "a_2345,67^-1 a_167,345 a_1267,45 a_1237,56 a_1234,67 a_1237,45^-1 a_1234,56^-1",
        "a_2345,67^-1 a_167,345 a_127,456 a_1237,56 a_1234,67 a_127,345^-1 a_1234,56^-1",
        "a_2345,67^-1 a_167,345 a_127,456 a_123,567 a_1234,67 a_127,345^-1 a_123,456^-1",
        # the fifth printed display carries a typo in its sixth letter
        # (m1m4m5,m1m2m3m7 repeats m1); the consistent completion is below
        "a_234,567^-1 a_167,345 a_127,456 a_123,567 a_167,234^-1 a_127,345^-1 a_123,456^-1",
    ]
    assert sorted(words) == sorted(printed)


def test_gamma_presentation_n6_k5_counts():
    group, far, polygons = gamma_presentation(6, 5)
    # 6 five-subsets x 20 ordered splits, stored with inverse normalisation
    assert len(group.alphabet) == 60
    assert all(len(cw) == 6 for cw in polygons)
    classes, reps = oriented_generator_classes(6, 5)
    assert len(reps) == 120


def test_gamma4_far_commutativity_condition():
    g4, rels = gamma4_presentation(5)
    # commuting pairs have |intersection| < 3
    for cw in rels:
        if len(cw) == 4 and len(set(cw.letters)) == 2:
            q1 = set(g4.alphabet.key[cw.letters[0][0]])
            q2 = set(g4.alphabet.key[cw.letters[1][0]])
            assert len(q1 & q2) < 3


def test_gale_transform_pentagon_example():
    pts = [(0, 2), (-2, 1), (-1, -1), (1, -1), (2, 1)]
    Y = gale_transform(pts)
    expected = [(-4, -4), (1, 6), (3, -7), (-5, 5), (5, 0)]
    # equivalence: an invertible rational 2x2 matrix T with T y_j = e_j.
    # Solve T from the first two (independent) columns, check the rest.
    y1, y2 = Y[0], Y[1]
    det = y1[0] * y2[1] - y1[1] * y2[0]
    assert det != 0
    T = []
    for coord in (0, 1):
        e1, e2 = Fraction(expected[0][coord]), Fraction(expected[1][coord])
        # (t1, t2) with t1*y1[0] + t2*y1[1] = e1 and same for y2
        t1 = (e1 * y2[1] - e2 * y1[1]) / det
        t2 = (e2 * y1[0] - e1 * y2[0]) / det
        T.append((t1, t2))
    assert T[0][0] * T[1][1] - T[0][1] * T[1][0] != 0
    for y, e in zip(Y, expected):
        for coord in (0, 1):
            assert T[coord][0] * y[0] + T[coord][1] * y[1] == e[coord]


def test_gale_transform_simplex_empty():
    assert gale_transform([(0, 0), (1, 0), (0, 1)]) == [(), (), ()]


def test_gale_transform_kernel_property():
    rng = random.Random(19)
    for _ in range(20):
        n, d = rng.choice(((5, 2), (6, 2), (6, 3)))
        pts = [tuple(Fraction(rng.randint(-5, 5)) for _ in range(d))
               for _ in range(n)]
        try:
            Y = gale_transform(pts)
        except ValueError:
            continue
        m = n - d - 1
        for r in range(m):
            for coord in range(d):
                assert sum(pts[j][coord] * Y[j][r] for j in range(n)) == 0
            assert sum(Y[j][r] for j in range(n)) == 0


def test_relative_interior_zero_basics():
    assert in_relative_interior_zero([(1, 2), (-1, -2)])
    assert not in_relative_interior_zero([(1, 2)])
    assert in_relative_interior_zero([(1, 0), (0, 1), (-1, -1)])
    assert not in_relative_interior_zero([(1, 0), (0, 1)])


def _hull_faces_oracle(points):
    """Faces of a 2D convex polygon with vertices in general position:
    vertex singletons, hull edges, the empty face and the full polygon."""
    n = len(points)
    faces = {()}
    from gnk.geometry import orient2d
    hull_edges = []
    for i, j in itertools.combinations(range(n), 2):
        sides = {(orient2d(points[i], points[j], points[t]) > 0)
                 for t in range(n) if t not in (i, j)}
        if len(sides) == 1:
            hull_edges.append((i, j))
            faces.add((i,))
            faces.add((j,))
            faces.add((i, j))
    return faces


def test_pentagon_face_recovery_vs_hull_oracle():
    pts = [(0, 2), (-2, 1), (-1, -1), (1, -1), (2, 1)]
    faces = {f for f in polytope_faces_via_gale(pts) if len(f) < len(pts)}
    assert faces == _hull_faces_oracle(pts)


def test_gale_diagram_directions():
    pts = [(0, 2), (-2, 1), (-1, -1), (1, -1), (2, 1)]
    Y = gale_transform(pts)
    dirs = gale_diagram(pts)
    from math import gcd
    for y, d in zip(Y, dirs):
        assert gcd(abs(d[0]), abs(d[1])) == 1
        # same ray: cross product zero and positive dot product
        assert y[0] * d[1] - y[1] * d[0] == 0
        assert y[0] * d[0] + y[1] * d[1] > 0


def test_gf2_rank_basics():
    assert gf2_rank(np.zeros((0, 4), dtype=np.uint8)) == 0
    M = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.uint8)
    assert gf2_rank(M) == 2


def test_abelianization_rank_invariance():
    rng = random.Random(20)
    gens = {"g%d" % t: t for t in range(8)}
    rels = [[rng.choice(list(gens)) for _ in range(rng.randint(1, 6))]
            for _ in range(10)]
    base = abelianization_rank_gf2(gens, rels)
    shuffled = list(rels)
    rng.shuffle(shuffled)
    assert abelianization_rank_gf2(gens, shuffled) == (base[0], base[1], base[2])
    # relator inversion: over GF(2) the exponent row is unchanged
    doubled = [r + r for r in rels]
    ng, nr, rk = abelianization_rank_gf2(gens, rels + doubled)
    assert rk == base[2]


def test_abelianization_empty():
    assert abelianization_rank_gf2({}, []) == (0, 0, 0)


def test_oriented_abelianization_structure():
    # generator count and relation instance count are pinned; the computed
    # rank and the +1 jump from the extra word are asserted as computed
    # (the acceptance suite compares them against the published values)
    res = oriented_abelianization_gf2(
        6, 5, extra_words=[[((3, 5), (1, 6, 4), 1), ((4, 6), (2, 5, 3), -1),
                            ((4, 6), (1, 3, 5), 1), ((3, 5), (2, 4, 6), -1)]])
    assert res[0] == 120
    assert res[1] == 1440
    assert res[3] == res[2] + 1      # the extra word is independent


def test_gale_diagram_rejects_diameter_pairs():
    with pytest.raises(ValueError):
        GaleDiagram(5, (0, 5, 1, 2, 3))
