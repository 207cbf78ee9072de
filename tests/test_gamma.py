import itertools
import math
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from gnk.gamma import (GALE_ORDER_MAX, GAMMA_GENERATORS_MAX,
                       GAMMA_LABELINGS_MAX, Gamma4Group, GammaGroup,
                       GaleDiagram,
                       dihedral_canonical,
                       enumerate_standard_gale, far_commutator_count,
                       gale_relation_word, gale_transform, gamma4_presentation,
                       gamma_presentation, gamma_sizes, gf2_rank, in_relative_interior_zero,
                       oriented_abelianization_gf2, oriented_columns,
                       oriented_relator_rows,
                       polytope_faces_via_gale,
                       standard_gale_count_formula)
from gnk.words import CyclicWord, Word, format_word, least_rotation
from relator_oracles import (class_key, d_symbol, distinct_cyclic_words,
                             far_split_pairs, gale_relation_pq_word,
                             gamma4_relator_words, gamma_relator_words,
                             oriented_generator_classes,
                             halfplane_condition_by_lines, pq_to_d_quad,
                             quad_word, standard_gale_brute_force)


def _dihedral_images(quad):
    """The eight rotations and reflections of a cyclic 4-tuple."""
    quad = tuple(quad)
    rots = [quad[i:] + quad[:i] for i in range(4)]
    rev = quad[::-1]
    rots += [rev[i:] + rev[:i] for i in range(4)]
    return rots


def test_dihedral_canonical():
    quad = (2, 1, 4, 5)
    images = {(2, 1, 4, 5), (1, 4, 5, 2), (4, 5, 2, 1), (5, 2, 1, 4),
              (5, 4, 1, 2), (4, 1, 2, 5), (1, 2, 5, 4), (2, 5, 4, 1)}
    assert all(dihedral_canonical(q) == dihedral_canonical(quad)
               for q in images)
    assert dihedral_canonical((1, 2, 4, 5)) != dihedral_canonical(quad)
    for q in itertools.permutations(range(1, 13), 4):
        assert dihedral_canonical(q) == min(_dihedral_images(q)), q


def test_gamma4_alphabet_keys_are_dihedral_symbols():
    # the alphabet is keyed without canonicalising; it must equal the one
    # keyed by d_symbol, which canonicalises every quad
    for n in range(4, 13):
        want = {d_symbol(quad): quad
                for a, b, c, d in itertools.combinations(range(1, n + 1), 4)
                for quad in ((a, b, c, d), (a, b, d, c), (a, c, b, d))}
        alphabet = Gamma4Group(n).alphabet
        assert alphabet.symbols == tuple(want), n
        assert alphabet.keys == tuple(want.values()), n


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 12])
def test_gamma4_letter_of_every_ordering(n):
    g = Gamma4Group(n)
    code = g.alphabet.code
    for four in itertools.combinations(g.labels, 4):
        for q in itertools.permutations(four):
            assert g.letter(q) == code[dihedral_canonical(q)], q


@pytest.mark.parametrize("n", range(5, 10))
def test_gamma4_far_matches_set_intersection(n):
    g = Gamma4Group(n)
    items = list(g.alphabet.code.items())
    for (q1, a), (q2, b) in itertools.product(items, repeat=2):
        assert g.far(a, b) == (len(set(q1) & set(q2)) < 3), (q1, q2)


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10, 13])
def test_gamma4_graded_words_match_component_oracle(n):
    # the oracle keeps its own copy of the rule: component z mod r, folded
    # to the representative at most r/2, r = n - 4
    g = Gamma4Group(n)
    r = n - 4
    rng = random.Random(70 + n)
    codes = list(g.alphabet.code.values())
    for _ in range(30):
        pairs = [(rng.randint(-3 * n, 3 * n), rng.choice(codes))
                 for _ in range(rng.randint(0, 40))]
        comps = [[] for _ in range(r // 2 + 1)]
        for z, c in pairs:
            t = z % r
            comps[t if 2 * t <= r else r - t].append(c)
        assert g.graded_words(pairs) == tuple(
            Word(g.alphabet, cs) for cs in comps), pairs


def test_enumerate_counts():
    assert len(enumerate_standard_gale(5)) == 1
    assert len(enumerate_standard_gale(6)) == 2
    assert len(enumerate_standard_gale(7)) == 5


@pytest.mark.parametrize("n, k", [(4, 4), (5, 4), (6, 4), (5, 5), (6, 5),
                                  (7, 5), (6, 6), (7, 6)])
def test_gamma_sizes_count_generators_and_labelled_polygons(n, k):
    generators, labelings, listings = gamma_sizes(n, k)
    assert generators == len(GammaGroup(n, k).alphabet)
    # one oriented row and at most one polygon relator per labelled
    # polygon; at n = k no path forms one
    assert labelings == len(oriented_relator_rows(n, k)[1])
    assert (labelings == 0) == (gamma_presentation(n, k)[2] == [])
    assert listings == len(oriented_columns(n, k)[1])


def test_size_caps_admit_the_sizes_in_use():
    # the tests and the benchmark enumerate Gale diagrams up to order 16,
    # and the Gamma_n^k curve of ROADMAP item 6 goes up to (10, 7)
    assert GALE_ORDER_MAX >= 16
    for n in range(5, 11):
        for k in range(4, min(n, 7) + 1):
            generators, labelings, listings = gamma_sizes(n, k)
            assert generators <= GAMMA_GENERATORS_MAX
            assert labelings <= GAMMA_LABELINGS_MAX
            assert listings <= GAMMA_LABELINGS_MAX


def test_enumeration_matches_closed_formula():
    for l in range(5, 17):
        assert len(enumerate_standard_gale(l)) == standard_gale_count_formula(l)


@pytest.mark.parametrize("l", range(5, 13))
def test_enumeration_matches_brute_force(l):
    got = enumerate_standard_gale(l)
    assert got == standard_gale_brute_force(l)
    assert len(got) == standard_gale_count_formula(l)


@pytest.mark.parametrize("l", range(5, 13))
def test_halfplane_condition_matches_line_oracle(l):
    # every diameter transversal, not only the canonical ones
    kept = 0
    for bits in itertools.product((0, 1), repeat=l):
        d = GaleDiagram(l, [p + b * l for p, b in enumerate(bits)])
        got = d.satisfies_halfplane_condition()
        assert got == halfplane_condition_by_lines(d), d
        kept += got
    assert 0 < kept < 2 ** l


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


@pytest.mark.parametrize("l", range(5, 10))
def test_symmetries_are_the_diagram_isometries(l):
    n = 2 * l
    for d in enumerate_standard_gale(l):
        pts, syms = d.positions, d.symmetries()
        # orbit-stabiliser: 4l isometries over the stabiliser's order
        images = {frozenset((sgn * p + r) % n for p in pts)
                  for r in range(n) for sgn in (1, -1)}
        assert len(images) * (len(syms) + 1) == 4 * l
        assert len(set(syms)) == len(syms)
        assert tuple(range(l)) not in syms
        for s in syms:
            assert any(all((sgn * p + r) % n == pts[j] for p, j in zip(pts, s))
                       for r in range(n) for sgn in (1, -1)), (d, s)


@pytest.mark.parametrize("l", range(5, 9))
def test_symmetry_rotates_or_inverts_relator(l):
    # the lemma behind forming one labeling per orbit: relabeling M by a
    # rotation s of the diagram rotates the relator, a reflection inverts it
    rng = random.Random(l)
    group = GammaGroup(l + 2, l - 1)
    for d in enumerate_standard_gale(l):
        for _ in range(10):
            M = tuple(rng.sample(group.labels, l))
            w = gale_relation_word(group, d, M)
            for s in d.symmetries():
                image = gale_relation_word(group, d, tuple(M[i] for i in s))
                rotation = all((s[i + 1] - s[i]) % l == 1
                               for i in range(l - 1))
                assert CyclicWord(image) == CyclicWord(
                    w if rotation else w.inverse()), (d, M, s)


def test_gale_relation_word_matches_sorted_side_letters():
    rng = random.Random(12)
    for l in range(5, 9):
        group = GammaGroup(l + 3, l - 1)
        for d in enumerate_standard_gale(l):
            for _ in range(20):
                M = tuple(rng.sample(group.labels, l))
                assert (gale_relation_word(group, d, M)
                        == gale_relation_pq_word(group, d, M)), (d, M)


@pytest.mark.parametrize("M", [(1, 2, 3, 4, 4), (1, 2, 2, 4, 5),
                               (1, 2, 3, 4, 7), (0, 1, 2, 3, 4)])
def test_gale_relation_word_rejects_bad_labelings(M):
    # a repeated label or one outside 1..n; with label masks a repeated
    # label could otherwise alias another (2 * (1 << x) == 1 << (x + 1))
    group = GammaGroup(6, 4)
    d = enumerate_standard_gale(5)[0]
    with pytest.raises(ValueError, match=re.escape(repr(M))):
        gale_relation_word(group, d, M)


def test_gale_relation_word_rejects_diagram_of_other_order():
    with pytest.raises(ValueError, match="needs k = 4, not 5"):
        gale_relation_word(GammaGroup(7, 5), enumerate_standard_gale(5)[0],
                           (1, 2, 3, 4, 5))


PRESENTATION_SIZES = [(6, 4), (7, 4), (6, 5), (7, 5), (8, 5), (7, 6)]


@pytest.mark.parametrize("n, k", PRESENTATION_SIZES)
def test_gamma_presentation_matches_word_builders(n, k):
    # relators written in their canonical rotation equal the reduced
    # Words' CyclicWords, list order included; the far commutators are
    # counted, not formed
    group, far, polygons = gamma_presentation(n, k)
    far_words, polygon_words = gamma_relator_words(n, k)
    assert (far, polygons) == (len(far_words), polygon_words)


@pytest.mark.parametrize("k, count", [(4, 12), (5, 480), (6, 10440)])
def test_polygon_templates_written_from_least_code(k, count):
    # at n = k + 1 the polygon relators are the templates: written from
    # their least code, they equal the reduced Words' CyclicWords, list
    # order included, and each is of distinct symbols
    templates = gamma_presentation(k + 1, k)[2]
    assert len(templates) == count
    assert templates == gamma_relator_words(k + 1, k)[1]
    assert all(len({s for s, _ in t.letters}) == len(t) for t in templates)


@pytest.mark.parametrize("n, k", [(n, k) for n in range(4, 9)
                                  for k in range(4, n + 1)] + [(9, 5)])
def test_far_commutator_count_matches_pair_test(n, k):
    assert far_commutator_count(n, k) == len(
        far_split_pairs(GammaGroup(n, k)))


def test_gamma_presentation_n_equals_k_walks_no_templates():
    # no (k+1)-subset exists, so no polygon, and the 9! orderings of the
    # base labels per diagram are never walked
    start = time.perf_counter()
    group, far, polygons = gamma_presentation(8, 8)
    assert time.perf_counter() - start < 0.5
    assert (len(group.alphabet), far, polygons) == (119, 0, [])


@pytest.mark.parametrize("n", range(5, 9))
def test_gamma4_presentation_matches_word_builders(n):
    assert gamma4_presentation(n)[1] == gamma4_relator_words(n)


@pytest.mark.parametrize("n, k", PRESENTATION_SIZES)
def test_polygon_relators_match_all_labelings_oracle(n, k):
    group, _, polygons = gamma_presentation(n, k)
    diagrams = enumerate_standard_gale(k + 1)
    assert polygons == distinct_cyclic_words(
        gale_relation_word(group, d, M)
        for M_set in itertools.combinations(group.labels, k + 1)
        for M in itertools.permutations(M_set)
        for d in diagrams)


@pytest.mark.parametrize("n", range(5, 9))
def test_gamma4_pentagons_match_all_orderings_oracle(n):
    g, rels = gamma4_presentation(n)
    want = distinct_cyclic_words(
        quad_word(g, [(i, j, k, l), (i, j, l, m), (j, k, l, m),
                      (i, j, k, m), (i, k, l, m)])
        for five in itertools.combinations(g.labels, 5)
        for i, j, k, l, m in itertools.permutations(five))
    assert rels[len(rels) - len(want):] == want
    assert [cw for cw in rels if len(cw) == 5] == want
    assert len(want) == 12 * math.comb(n, 5)


def test_pentagon_labelings_reproduce_d_family():
    # the k = 4 polygon relators, pushed through the diagonal-pair
    # dictionary, all land in the pentagon family of the d-presentation
    g4, rels = gamma4_presentation(5)
    pentagon_keys = set()
    for cw in rels:
        if len(cw) == 5:
            pentagon_keys.add(class_key(cw))
    group = GammaGroup(5, 4)
    d = enumerate_standard_gale(5)[0]
    seen = set()
    for M in itertools.permutations(range(1, 6)):
        w = gale_relation_word(group, d, M)
        dw = g4.word_from_quads(pq_to_d_quad(P, Q) for P, Q in w.keys())
        seen.add(class_key(CyclicWord(dw)))
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
    ngen, _ = oriented_columns(6, 5)
    assert ngen == 120


def test_gamma4_far_commutativity_condition():
    g4, rels = gamma4_presentation(5)
    # commuting pairs have |intersection| < 3
    for cw in rels:
        if len(cw) == 4 and len(set(cw.codes)) == 2:
            q1, q2, _, _ = map(set, cw.keys())
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


def _gf2_rank_numpy(rows) -> int:
    """Reference rank: column-by-column XOR elimination on uint8 rows."""
    M = (np.asarray(rows, dtype=np.uint8) % 2).copy()
    if M.size == 0:
        return 0
    m, n = M.shape
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if M[i, c]:
                piv = i
                break
        if piv is None:
            continue
        M[[r, piv]] = M[[piv, r]]
        mask = M[:, c].astype(bool).copy()
        mask[r] = False
        M[mask] ^= M[r]
        r += 1
        if r == m:
            break
    return r


def _bits(row):
    return sum(1 << c for c, x in enumerate(row) if x)


def _column_bits(columns):
    """A row that lists its columns, each one toggling its bit."""
    row = 0
    for c in columns:
        row ^= 1 << c
    return row


def test_gf2_rank_basics():
    assert gf2_rank([]) == 0
    assert gf2_rank([0, 0]) == 0
    assert gf2_rank([0b101, 0b110, 0b011]) == 2
    assert gf2_rank(map(_bits, [[1, 0, 1], [0, 1, 1], [1, 1, 0]])) == 2
    # an earlier call's basis is extended in place
    basis = {}
    assert gf2_rank([0b101], basis) == 1
    assert gf2_rank([0b110, 0b011], basis) == 2


def test_gf2_rank_matches_numpy_oracle():
    rng = np.random.default_rng(41)
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (8, 8), (40, 7), (7, 40),
              (200, 30), (30, 200), (64, 64)]
    for m, n in shapes:
        for density in (0.0, 0.1, 0.5, 0.9):
            M = (rng.random((m, n)) < density).astype(np.uint8)
            if m > 2:
                M[m // 2] = 0                      # a zero row
                M[-1] = M[0] ^ M[1]                # a dependent row
            expected = _gf2_rank_numpy(M)
            assert gf2_rank([_bits(r) for r in M]) == expected, (
                m, n, density)


def test_abelianization_rank_invariance():
    rng = random.Random(20)
    cols = [[rng.randrange(8) for _ in range(rng.randint(1, 6))]
            for _ in range(10)]
    rels = list(map(_column_bits, cols))
    base = gf2_rank(rels)
    shuffled = list(rels)
    rng.shuffle(shuffled)
    assert gf2_rank(shuffled) == base
    # a relator and its inverse have one row, and a squared one a zero row
    assert gf2_rank(rels + [_column_bits(c + c) for c in cols]) == base
    # extra rows reduced against the relators' basis: the rank of the union
    extra = [_column_bits([rng.randrange(8)]) for _ in range(3)]
    basis = {}
    assert gf2_rank(rels, basis) == base
    assert gf2_rank(extra, basis) == gf2_rank(rels + extra)
    # the oriented ranks: shuffled rows with their squares added
    _, rows, _ = oriented_relator_rows(6, 5)
    shuffled = rows + [r + r for r in rows]
    rng.shuffle(shuffled)
    assert gf2_rank(map(_column_bits, shuffled)) == (
        oriented_abelianization_gf2(6, 5)[2])


def test_abelianization_empty():
    # (4, 4) has 6 generators and no (k+1)-subset, so no relator row; an
    # empty extra word adds a zero row, and a fourth entry
    assert oriented_abelianization_gf2(4, 4) == (6, 0, 0)
    assert oriented_abelianization_gf2(4, 4, [[]]) == (6, 0, 0, 0)


CRITERION_4_WORD = [((3, 5), (1, 6, 4), 1), ((4, 6), (2, 5, 3), -1),
                    ((4, 6), (1, 3, 5), 1), ((3, 5), (2, 4, 6), -1)]


def _oriented_oracle(n, k, extra_words=()):
    """(class of a listing, number of classes, relator rows, extra rows)
    of the oriented variant, the classes found by transposition-orbit
    search and each row the list of its letters' classes."""
    classes, reps = oriented_generator_classes(n, k)

    def col(P, Q):
        return classes[least_rotation(P), least_rotation(Q)]

    rows = []
    for d in enumerate_standard_gale(k + 1):
        for M_set in itertools.combinations(range(1, n + 1), k + 1):
            for M in itertools.permutations(M_set):
                rows.append([col(tuple(M[j] for j in R), tuple(M[j] for j in L))
                             for R, L in d.rl_position_sets()])
    extra = [[col(Q, P) if sign == -1 else col(P, Q) for P, Q, sign in w]
             for w in extra_words]
    return col, len(reps), rows, extra


# at k = 6 both 3-parts keep their cyclic orders, and (6, 6) has no relator
# rows, so its extra words' ranks see those orders alone; the second word's
# sides are not least rotations.  (7, 6) has relator rows as well, and its
# first word carries both orientations of one 3+3 split
ORIENTED_CASES = [
    (6, 5, [CRITERION_4_WORD]), (7, 4, []),
    (6, 6, [[((1, 3, 2), (4, 5, 6), 1), ((1, 2, 3), (4, 5, 6), 1)],
            [((2, 1, 3), (5, 6, 4), -1)]]),
    (7, 6, [[((1, 2, 3), (4, 5, 6), 1), ((1, 3, 2), (4, 5, 6), 1)],
            [((2, 1, 3), (6, 5, 4), -1), ((3, 7), (1, 2, 4, 6), 1)]])]


@pytest.mark.parametrize("n, k, extra_words", ORIENTED_CASES)
def test_oriented_class_lookup_matches_orbit_search(n, k, extra_words):
    col, ngen, rows, extra = _oriented_oracle(n, k, extra_words)
    ncols, column = oriented_columns(n, k)
    assert ncols == ngen
    # every ordered pair of disjoint label sequences a letter can carry
    listings = [(perm[:split], perm[split:])
                for kset in itertools.combinations(range(1, n + 1), k)
                for perm in itertools.permutations(kset)
                for split in range(2, k - 1)]
    assert len(column) == len(listings)
    for P, Q in listings:
        assert column[P, Q] == col(P, Q), (P, Q)
    # the rows read each letter's column by its sides as listed
    assert oriented_relator_rows(n, k, extra_words) == (ngen, rows, extra)


# numpy elimination of (7, 6)'s 25,200 rows takes seconds; its rows are
# checked above
@pytest.mark.parametrize("n, k, extra_words", ORIENTED_CASES[:3])
def test_oriented_ranks_match_numpy_oracle(n, k, extra_words):
    ngen, rows, extra = oriented_relator_rows(n, k, extra_words)
    full = np.zeros((len(rows) + len(extra), ngen), dtype=np.uint8)
    for i, r in enumerate(rows + extra):
        for c in r:
            full[i, c] ^= 1
    relators = full[:len(rows)]
    expected = (ngen, len(rows), _gf2_rank_numpy(relators))
    if extra:
        expected += (_gf2_rank_numpy(full),)
    assert gf2_rank(map(_bits, relators)) == expected[2]
    assert gf2_rank(map(_bits, full)) == _gf2_rank_numpy(full)
    assert oriented_abelianization_gf2(n, k, extra_words) == expected


@pytest.mark.parametrize("n, k, count", [
    (6, 5, 120), (7, 6, 490), (8, 7, 896), (8, 8, 350)])
def test_oriented_column_count_formula(n, k, count):
    # one column per ordered split, two when both sides have odd size;
    # (8, 7) is past the reach of the orbit search (about 10 s there)
    formula = math.comb(n, k) * sum(
        math.comb(k, s) * (1 + (s % 2 == 1 and (k - s) % 2 == 1))
        for s in range(2, k - 1))
    assert formula == count
    start = time.perf_counter()
    ncols, column = oriented_columns(n, k)
    assert time.perf_counter() - start < 2.0
    assert ncols == count
    assert sorted(set(column.values())) == list(range(count))


@pytest.mark.parametrize("n, k", [(5, 6), (0, 9), (6, 3)])
def test_oriented_rows_reject_k_outside_4_to_n(n, k):
    with pytest.raises(ValueError, match="need 4 <= k <= n"):
        oriented_relator_rows(n, k)
    with pytest.raises(ValueError, match="need 4 <= k <= n"):
        oriented_abelianization_gf2(n, k)


def test_criterion_4_rank_comes_from_one_diagram():
    # computed values only (criterion 4 asserts the published ones): at
    # (6, 5) the rows are 720 per diagram, diagram by diagram, and the
    # second diagram's rows lie in the span of the first's
    _, rows, _ = oriented_relator_rows(6, 5)
    first, second = rows[:720], rows[720:]
    assert len(second) == 720 and len(enumerate_standard_gale(6)) == 2

    def rank(rows):
        return gf2_rank(map(_column_bits, rows))

    assert (rank(first), rank(second), rank(rows)) == (91, 81, 91)


def test_oriented_abelianization_structure():
    # generator count and relation instance count are pinned; the computed
    # rank and the +1 jump from the extra word are asserted as computed
    # (the acceptance suite compares them against the published values)
    res = oriented_abelianization_gf2(6, 5, extra_words=[CRITERION_4_WORD])
    assert res[0] == 120
    assert res[1] == 1440
    assert res[3] == res[2] + 1      # the extra word is independent


def test_gale_diagram_rejects_diameter_pairs():
    # 10 is 0 mod 10: a repeated point, the same diameter twice
    for positions in ((0, 5, 1, 2, 3), (0, 10, 1, 2, 3)):
        with pytest.raises(ValueError, match="two points on one diameter"):
            GaleDiagram(5, positions)
