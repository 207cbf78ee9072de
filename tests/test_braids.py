import itertools
import random

import pytest

from gnk.braids import (DottedGroup, ParityGroup, PureBraidWord, _c3,
                        brunnian_certificate, chi, commutator,
                        delete_pb_strand, eta, format_braid, generator, iota,
                        kappa, omega_m, parse_braid,
                        pb_relation_pairs, pb_to_gamma4, pb_to_gamma4_graded,
                        pb_to_gn3, pb_to_gn4, phi_ijk, phi_parity, pr, r_m,
                        w_parity)
from gnk.gamma import Gamma4Group
from gnk.gnk import (GnkGroup, MNContext, delete_strand, is_even,
                     mn_invariant)
from gnk.words import Word, format_word, word, word_from_keys
import braid_oracles
from relator_oracles import quad_word


def ab2(w):
    return {s: c % 2 for s, c in w.symbol_counts().items() if c % 2}


# ---------------------------------------------------------------------------
# pure braid words


def test_braid_free_reduction_and_grammar():
    b = parse_braid(4, "b_1_3 b_2_4^-1 b_2_4 b_1_3^-1")
    assert len(b) == 0
    b2 = parse_braid(4, "b_1_2 b_3_4^-1")
    assert format_braid(b2) == "b_1_2 b_3_4^-1"


def _stack_reduce_braid(n, letters):
    """Oracle: the inline stack reduction PureBraidWord once had, which
    checks each letter and cancels it against the top of the stack."""
    out = []
    for (i, j), e in letters:
        if not (1 <= i < j <= n):
            raise ValueError("bad generator index (i,j)=(%d,%d)" % (i, j))
        if e not in (1, -1):
            raise ValueError("exponent must be +-1")
        if out and out[-1][0] == (i, j) and out[-1][1] == -e:
            out.pop()
        else:
            out.append(((i, j), e))
    return tuple(out)


def test_pure_braid_word_matches_stack_oracle():
    rng = random.Random(13)
    for t in range(240):
        n = 2 + t % 11
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        # a few generators, so that cancellations nest
        gens = rng.sample(pairs, min(len(pairs), rng.randint(1, 3)))
        letters = [(rng.choice(gens), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 40))]
        cut = rng.randint(0, len(letters))
        letters += [(ij, -e) for ij, e in reversed(letters[cut:])]
        want = _stack_reduce_braid(n, letters)
        b = PureBraidWord(n, letters)
        assert b.letters == want, (n, letters)
        assert PureBraidWord(n, want) == b
    for n, letters in ((4, [((1, 5), 1)]), (4, [((2, 1), -1)]),
                       (3, [((1, 2), 1), ((0, 1), 1)])):
        with pytest.raises(ValueError) as err:
            PureBraidWord(n, letters)
        with pytest.raises(ValueError) as want:
            _stack_reduce_braid(n, letters)
        assert str(err.value) == str(want.value)


def test_power_is_repeated_product():
    rng = random.Random(7)
    for _ in range(10):
        b = PureBraidWord(5, [(rng.choice(list(itertools.combinations(
            range(1, 6), 2))), rng.choice((1, -1))) for _ in range(6)])
        for k in range(-3, 4):
            want = PureBraidWord(5)
            for _ in range(abs(k)):
                want = want * (b if k > 0 else b.inverse())
            assert b ** k == want, (b, k)


def test_braid_operations_keep_type_strand_count_and_letters():
    # a braid is a Word over the pairs (i, j); its products, inverses,
    # powers and commutators are braids on the same strands, with the
    # letters the stack oracle gives
    rng = random.Random(31)
    for n in range(1, 13):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        a, b = (PureBraidWord(n, [(rng.choice(pairs), rng.choice((1, -1)))
                                  for _ in range(rng.randint(0, 8) * (n > 1))])
                for _ in range(2))
        inv_a = tuple((ij, -e) for ij, e in reversed(a.letters))
        inv_b = tuple((ij, -e) for ij, e in reversed(b.letters))
        for got, want in (
                (a * b, a.letters + b.letters),
                (a.inverse(), inv_a),
                (a ** 3, 3 * a.letters),
                (a ** -2, 2 * inv_a),
                (a ** 0, ()),
                (commutator(a, b), a.letters + b.letters + inv_a + inv_b)):
            assert type(got) is PureBraidWord, (n, got)
            assert got.n == n, (n, got)
            assert got.letters == _stack_reduce_braid(n, want), (n, got)


def test_strand_deletion_reaches_pb0():
    # PB_0 and PB_1 share the empty alphabet; the strand count is stored
    b = delete_pb_strand(PureBraidWord(1), 1)
    assert (type(b), b.n, len(b)) == (PureBraidWord, 0, 0)
    b = delete_pb_strand(generator(2, 1, 2), 2)
    assert (b.n, len(b)) == (1, 0)
    assert [v.n for v in brunnian_certificate(generator(3, 1, 2)).values()] \
        == [2, 2, 2]


def test_equal_braids_hash_equal():
    a = parse_braid(5, "b_1_3 b_2_5^-1 b_4_5")
    b = parse_braid(5, "b_1_3 b_1_2 b_1_2^-1 b_2_5^-1 b_4_5^-1 b_4_5 b_4_5")
    c = generator(5, 1, 3) * generator(5, 2, 5, -1) * generator(5, 4, 5)
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert len({a, b, c, a.inverse()}) == 2
    assert a != Word(a.alphabet, a.codes)      # a braid is not a plain Word


def test_parity_maps_keep_their_target_alphabets():
    g = GnkGroup(5, 2)
    w = g.word_from_subsets([(1, 2), (2, 5), (3, 4), (1, 5), (4, 5)])
    for m in (1, 3, 5):
        rest = tuple(l for l in g.labels if l != m)
        assert omega_m(g, w, m).alphabet == DottedGroup(rest).alphabet
    pg = ParityGroup(g.labels)
    pw = pg.word_from_letters([((1, 2), 1), ((3, 5), 0), ((2, 4), 1)])
    assert eta(pg, pw).alphabet == DottedGroup(g.labels).alphabet
    g3 = GnkGroup(5, 3)
    w3 = g3.word_from_subsets([(1, 2, 3), (2, 4, 5), (1, 3, 5)])
    assert r_m(g3, w3, 3).alphabet == GnkGroup(4, 2, (1, 2, 4, 5)).alphabet


def test_pb_to_gn3_n3_generator_collapses():
    assert len(pb_to_gn3(generator(3, 1, 2))) == 0


def test_pb_to_gn3_identity():
    assert len(pb_to_gn3(PureBraidWord(4))) == 0


def test_c_ij_structure():
    g = GnkGroup(4, 3)
    c12 = word_from_keys(g.alphabet, _c3(4, 1, 2))
    assert format_word(c12) == "a_123 a_124"
    for n in (4, 5, 7):
        g = GnkGroup(n, 3)
        for i, j in itertools.permutations(range(1, n + 1), 2):
            assert (word_from_keys(g.alphabet, _c3(n, i, j))
                    == _oracle_c_ij_gn3(g, i, j)), (n, i, j)


def test_pb_to_gn3_images_even():
    for n in (4, 5):
        g = GnkGroup(n, 3)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            assert is_even(pb_to_gn3(generator(n, i, j), g))


def test_pb_to_gn3_z_cross_check():
    # psi-images of the image words: a full twist b_ij maps to a word whose
    # psi-value vanishes (even word), and z_12 in the n=4 context is psi(a_124)
    g = GnkGroup(4, 3)
    ctx = MNContext(g, (1, 2, 3))
    assert ctx.psi_key((1, 2, 4)) == 0b11
    w = pb_to_gn3(generator(4, 1, 2), g)
    assert ctx.psi_word(w) == (0, 0)


def test_pb_to_gn4_requires_n4():
    with pytest.raises(ValueError):
        pb_to_gn4(generator(3, 1, 2))


def test_pb_to_gn4_identity_and_even_relators():
    assert len(pb_to_gn4(PureBraidWord(4))) == 0
    g = GnkGroup(5, 4)
    for u, v in pb_relation_pairs(5):
        wu, wv = pb_to_gn4(u, g), pb_to_gn4(v, g)
        assert ab2(wu) == ab2(wv)
        assert is_even(wu * wv.inverse())


def test_pb_to_gamma4_worked_example():
    w = pb_to_gamma4(generator(5, 1, 3))
    assert format_word(w) == "d_1254 d_1243 d_1324 d_1254"


def test_pb_to_gamma4_identity():
    assert len(pb_to_gamma4(PureBraidWord(5))) == 0


def test_pb_to_gamma4_delta_pieces():
    # the worked example's phase decomposition: the empty circles (z = 0)
    # the mover crosses while passing one anchor
    from gnk.braids import _crossings
    g = Gamma4Group(5)

    def phase(anchor, side):
        return format_word(g.word_from_quads(
            q for z, q in _crossings(5, 1, anchor, side) if z == 0))
    assert phase(2, "after") == "d_1254 d_1243"
    assert phase(3, "after") == "d_1324"
    assert phase(3, "before") == "d_1243"


def test_relator_pairs_invariant_indistinguishable():
    for n in (4, 5):
        g3 = GnkGroup(n, 3)
        for u, v in pb_relation_pairs(n):
            wu, wv = pb_to_gn3(u, g3), pb_to_gn3(v, g3)
            assert ab2(wu) == ab2(wv)
            for m in itertools.combinations(range(1, n + 1), 3):
                assert mn_invariant(g3, wu, m) == mn_invariant(g3, wv, m)
                assert phi_ijk(g3, wu, m) == phi_ijk(g3, wv, m)
            gu, gv = pb_to_gamma4(u), pb_to_gamma4(v)
            assert ab2(gu) == ab2(gv)


def test_graded_map_preconditions_and_identity():
    with pytest.raises(ValueError, match=r"^graded map needs n > 5$"):
        pb_to_gamma4_graded(generator(5, 1, 2))
    comps = pb_to_gamma4_graded(PureBraidWord(6))
    assert all(len(c) == 0 for c in comps)


def test_graded_relator_images_even():
    for u, v in pb_relation_pairs(6)[:20]:
        cu = pb_to_gamma4_graded(u * v.inverse())
        for c in cu:
            assert all(cnt % 2 == 0 for cnt in c.symbol_counts().values())


def test_graded_component_count():
    comps = pb_to_gamma4_graded(generator(6, 1, 2))
    assert len(comps) == (6 - 4) // 2 + 1


# ---------------------------------------------------------------------------
# oracle: the four images written out walk by walk as products of Words


def _oracle_c_ij_gn3(group, i, j):
    n = group.n
    subs = [tuple(sorted((i, j, k))) for k in range(j + 1, n + 1) if k != i]
    subs += [tuple(sorted((i, j, k))) for k in range(1, j) if k != i]
    return group.word_from_subsets(subs)


def _oracle_pb_to_gn3(b, group=None):
    if group is None:
        group = GnkGroup(b.n, 3)
    out = Word(group.alphabet)
    for (i, j), e in b.letters:
        cs = [_oracle_c_ij_gn3(group, i, m) for m in range(i + 1, j + 1)]
        img = Word(group.alphabet)
        for c in cs[:-1]:
            img = img * c.inverse()
        img = img * cs[-1] * cs[-1]
        for c in reversed(cs[:-1]):
            img = img * c
        out = out * (img if e == 1 else img.inverse())
    return out


def _oracle_quad(group, i, j, p, q):
    m = (i, j, p, q)
    if len(set(m)) != 4 or not all(x in group.labels for x in m):
        return None
    return tuple(sorted(m))


def _oracle_c_ij_gn4(group, i, j):
    """c_ij = c^II * c^I * c^III: concyclicity letters met while the mover
    passes the anchor j, grouped by the straddling / below / above pairs."""
    n = group.n
    subs = []
    for p in range(1, j):
        for q in range(1, n - j + 1):
            m = _oracle_quad(group, i, j, j - p, j + q)
            if m:
                subs.append(m)
    for p in range(2, j):
        for q in range(1, p):
            m = _oracle_quad(group, i, j, p, q)
            if m:
                subs.append(m)
    for p in range(1, n - j):
        for q in range(0, p):
            m = _oracle_quad(group, i, j, n - p, n - q)
            if m:
                subs.append(m)
    return group.word_from_subsets(subs)


def _oracle_pb_to_gn4(b, group=None):
    if group is None:
        group = GnkGroup(b.n, 4)
    out = Word(group.alphabet)
    for (i, j), e in b.letters:
        cs = [_oracle_c_ij_gn4(group, i, m) for m in range(i + 1, j + 1)]
        img = Word(group.alphabet)
        for c in cs[:-1]:
            img = img * c
        img = img * cs[-1] * cs[-1]
        for c in reversed(cs[:-1]):
            img = img * c.inverse()
        out = out * (img if e == 1 else img.inverse())
    return out


def _oracle_gamma_phase_pairs(n, i, anchor):
    pairs = []
    m = anchor
    for p in range(1, m):
        for q in range(1, n - m + 1):
            pairs.append((m - p, m + q))
    for p in range(2, m):
        for q in range(1, p):
            pairs.append((p, q))
    for p in range(1, n - m):
        for q in range(0, p):
            pairs.append((n - p, n - q))
    return [(p, q) for p, q in pairs
            if len({p, q, i, m}) == 4 and 1 <= p <= n and 1 <= q <= n]


def _oracle_phase_crossings(n, i, anchor, side):
    for p, q in _oracle_gamma_phase_pairs(n, i, anchor):
        s1, s2, s3 = sorted((p, q, anchor))
        count = (s1 - 1) + (s3 - s2 - 1)
        mover_inside = i < s1 or s2 < i < s3
        t = [s1, s2, s3]
        pos = t.index(anchor)
        t.insert(pos + 1 if side == "after" else pos, i)
        yield count - (1 if mover_inside else 0), tuple(t)


def _oracle_gamma_walk(b, ncomp, component):
    out = [[] for _ in range(ncomp)]
    for (i, j), e in b.letters:
        img = [[] for _ in range(ncomp)]
        phases = ([(m, "after", 1) for m in range(i + 1, j + 1)]
                  + [(j, "before", 1)]
                  + [(m, "after", -1) for m in range(j - 1, i, -1)])
        for anchor, side, sign in phases:
            quads = [[] for _ in range(ncomp)]
            for z, quad in _oracle_phase_crossings(b.n, i, anchor, side):
                t = component(z)
                if t is not None:
                    quads[t].append(quad)
            for acc, qs in zip(img, quads):
                acc.extend(qs if sign == 1 else reversed(qs))
        for acc, qs in zip(out, img):
            acc.extend(qs if e == 1 else reversed(qs))
    return out


def _oracle_pb_to_gamma4(b):
    (quads,) = _oracle_gamma_walk(b, 1, lambda z: 0 if z == 0 else None)
    return quad_word(Gamma4Group(b.n), quads)


def _oracle_pb_to_gamma4_graded(b):
    r = b.n - 4
    ncomp = r // 2 + 1
    comps = _oracle_gamma_walk(b, ncomp, lambda z: min(z % r, (-z) % r))
    return tuple(quad_word(Gamma4Group(b.n), c) for c in comps)


def _oracle_inputs(n):
    """Every b_ij^{+-1}, seeded random braids of up to 40 letters, and the
    products u v^-1 of the defining relation pairs of PB_n."""
    rng = random.Random(500 + n)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    out = [generator(n, i, j, e) for i, j in pairs for e in (1, -1)]
    out += [PureBraidWord(n, [(rng.choice(pairs), rng.choice((1, -1)))
                              for _ in range(rng.randint(1, 40))])
            for _ in range(4)]
    rel = pb_relation_pairs(n)
    out += [u * v.inverse() for u, v in rng.sample(rel, min(6, len(rel)))]
    return out


def _repetitive_braids(n, rng):
    """The empty word and seeded braids over a few generators, in runs of
    repeated letters of both signs, so the tables are hit again and again."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    out = [PureBraidWord(n)]
    for _ in range(3):
        gens = rng.sample(pairs, min(len(pairs), rng.randint(1, 4)))
        letters = []
        while len(letters) < 30:
            letters += [(rng.choice(gens), rng.choice((1, -1)))] \
                * rng.randint(1, 3)
        out.append(PureBraidWord(n, letters))
    return out


@pytest.mark.parametrize("n", range(4, 12))
def test_walk_matches_oracle_letter_for_letter(n):
    # both the independent oracles above and the per-letter walk that each
    # call's image tables replaced
    rng = random.Random(900 + n)
    g3, g4 = GnkGroup(n, 3), GnkGroup(n, 4)
    for b in _repetitive_braids(n, rng) + _oracle_inputs(n):
        got = pb_to_gn3(b, g3).letters
        assert got == _oracle_pb_to_gn3(b, g3).letters, b
        assert got == braid_oracles.pb_to_gn3(b, g3).letters, b
        got = pb_to_gn4(b, g4).letters
        assert got == _oracle_pb_to_gn4(b, g4).letters, b
        assert got == braid_oracles.pb_to_gn4(b, g4).letters, b
        got = pb_to_gamma4(b).letters
        assert got == _oracle_pb_to_gamma4(b).letters, b
        assert got == braid_oracles.pb_to_gamma4(b).letters, b
        if n >= 6:
            got = [w.letters for w in pb_to_gamma4_graded(b)]
            assert got == [w.letters for w in _oracle_pb_to_gamma4_graded(b)], b
            assert got == [w.letters
                           for w in braid_oracles.pb_to_gamma4_graded(b)], b


def test_images_form_each_phase_and_generator_once(monkeypatch):
    # a 2,000-letter braid at n = 5: the phases and the generator images
    # are formed once per call, so the count of phase calls is bounded by
    # the distinct phases and generators, not by the letters
    import gnk.braids as braids
    rng = random.Random(2000)
    pairs = list(itertools.combinations(range(1, 6), 2))
    b = PureBraidWord(5, [(rng.choice(pairs), rng.choice((1, -1)))
                          for _ in range(2000)])
    assert len(b) > 1000
    gens = {ij for ij, _ in b.letters}
    phases = {(i, m) for i, j in gens for m in range(i + 1, j)}
    calls = []

    def counting(name):
        fn = getattr(braids, name)

        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        monkeypatch.setattr(braids, name, wrapper)

    counting("_crossings")
    counting("_c3")
    for image in (pb_to_gamma4, pb_to_gn4, pb_to_gn3):
        calls.clear()
        image(b)
        # one call per phase (i, m); mid passes j twice (gamma) or once (gn3)
        assert 0 < len(calls) <= len(phases) + 2 * len(gens), image


# ---------------------------------------------------------------------------
# strand deletion and Brunnian braids


def test_p_m_fig_example():
    b = parse_braid(3, "b_1_2 b_1_3 b_1_2^-1 b_1_3^-1")
    out = delete_pb_strand(b, 3)
    assert len(out) == 0      # b_12 b_12^-1


def test_p_m_identity():
    assert len(delete_pb_strand(PureBraidWord(4), 2)) == 0


def _certified(b):
    """The ``brunnian`` command's verdict: every p_m(b) freely trivial."""
    return all(len(v) == 0 for v in brunnian_certificate(b).values())


def test_commutator_is_brunnian_pb3():
    b = commutator(generator(3, 1, 2), generator(3, 1, 3))
    assert _certified(b)
    assert not _certified(generator(3, 1, 2))


def brunnian_six():
    b12, b14, b16 = generator(6, 1, 2), generator(6, 1, 4), generator(6, 1, 6)
    b13, b15 = generator(6, 1, 3), generator(6, 1, 5)
    return commutator(commutator(commutator(b12, b14), b16),
                      commutator(b13, b15))


def test_six_strand_brunnian():
    beta = brunnian_six()
    cert = brunnian_certificate(beta)
    assert sorted(cert) == list(range(1, 7))
    assert all(len(v) == 0 for v in cert.values())


def test_q_m_kills_c_in():
    g = GnkGroup(4, 3)
    c = _oracle_c_ij_gn3(g, 1, 4)
    img, _ = delete_strand(g, c, 4)
    assert len(img) == 0
    c12 = _oracle_c_ij_gn3(g, 1, 2)
    img2, _ = delete_strand(g, c12, 4)
    assert format_word(img2) == format_word(
        _oracle_c_ij_gn3(GnkGroup(3, 3), 1, 2))


def test_commuting_square_q_phi():
    for n in (4, 5, 6):
        g = GnkGroup(n, 3)
        g2 = GnkGroup(n - 1, 3)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            b = generator(n, i, j)
            img = pb_to_gn3(b, g)
            for m in range(1, n + 1):
                qm, _ = delete_strand(g, img, m)
                pm = delete_pb_strand(b, m)
                assert qm.letters == pb_to_gn3(pm, g2).letters


# ---------------------------------------------------------------------------
# phi_{(i,j,k)}


PHI_PINNED = {
    5: "s_10,11 s_10,10",
    6: "s_10,00,11 s_10,00,10",
    7: "s_10,00,00,11 s_10,00,00,10",
    8: "s_10,00,00,00,11 s_10,00,00,00,10",
    9: "s_10,00,00,00,00,11 s_10,00,00,00,00,10",
    10: "s_10,00,00,00,00,00,11 s_10,00,00,00,00,00,10",
}


@pytest.mark.parametrize("n", sorted(PHI_PINNED))
def test_phi_ijk_pinned_values_and_shared_alphabet(n):
    g = GnkGroup(n, 3)
    w = word_from_keys(g.alphabet, [(1, 2, n), (2, 3, 4), (1, 2, 3),
                                    (1, 3, n), (1, 2, 3)])
    v1 = phi_ijk(g, w, (1, 2, 3))
    assert format_word(v1) == PHI_PINNED[n]
    v2 = phi_ijk(g, w, (1, 2, 3))
    assert v2.alphabet is v1.alphabet
    assert len(v1.alphabet) == 4 ** (n - 3)


def test_phi_ijk_rejects_labels_outside_the_group():
    g = GnkGroup(5, 3)
    w = g.word_from_subsets([(1, 2, 4), (1, 2, 4)])
    for triple in ((1, 2, 9), (0, 1, 2), (1, 1, 2)):
        with pytest.raises(ValueError):
            phi_ijk(g, w, triple)
    # phi_ijk is defined on G_n^3: a word of G_5^4 is refused, not read as 0
    g4 = GnkGroup(5, 4)
    w4 = g4.word_from_subsets([(1, 2, 3, 4), (1, 2, 3, 5)] * 2)
    with pytest.raises(ValueError, match="k = 4"):
        phi_ijk(g4, w4, (1, 2, 3))


def test_phi_ijk_no_occurrences():
    g = GnkGroup(5, 3)
    w = g.word_from_subsets([(1, 2, 4), (1, 2, 4)])
    assert len(phi_ijk(g, w, (1, 3, 5))) == 0


def test_phi_ijk_vanishes_on_low_overlap_generators():
    n = 5
    g = GnkGroup(n, 3)
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        for l, m in itertools.combinations(range(1, n + 1), 2):
            if len({l, m} & {i, j, k}) < 2:
                img = pb_to_gn3(generator(n, l, m), g)
                assert len(phi_ijk(g, img, (i, j, k))) == 0


def test_phi_ijk_vanishes_on_brunnian():
    rng = random.Random(13)
    n = 5
    g = GnkGroup(n, 3)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for _ in range(6):
        used = rng.sample(pairs, 4)
        b = commutator(commutator(generator(n, *used[0]), generator(n, *used[1])),
                       commutator(generator(n, *used[2]), generator(n, *used[3])))
        cover = set()
        for p in used:
            cover |= set(p)
        if cover != set(range(1, n + 1)) or not _certified(b):
            continue
        img = pb_to_gn3(b, g)
        for t in itertools.combinations(range(1, n + 1), 3):
            assert len(phi_ijk(g, img, t)) == 0


# ---------------------------------------------------------------------------
# parity and dotted machinery


def test_eta_worked_example():
    # the printed image a_12 t_2 a_23 a_12 t_2 a_13 picks the point strand
    # per letter (t_2 both times); our eta dots the smaller strand, which is
    # the same group element: chi maps both back to the input word
    pg = ParityGroup((1, 2, 3))
    dg = DottedGroup((1, 2, 3))
    w = pg.word_from_letters([((1, 2), 0), ((2, 3), 1), ((1, 2), 1), ((1, 3), 0)])
    img = eta(pg, w)
    printed = word(dg.alphabet, ["a_12", "t_2", "a_23", "a_12", "t_2", "a_13"])
    assert chi(dg, img).letters == w.letters
    assert chi(dg, printed).letters == w.letters


def test_pr_iota_identity():
    rng = random.Random(14)
    for _ in range(100):
        n = rng.choice((3, 4, 5))
        g = GnkGroup(n, 2)
        w = g.word_from_subsets([rng.choice(g.subsets)
                                 for _ in range(rng.randint(0, 10))])
        assert pr(ParityGroup(g.labels), iota(g, w)).letters == w.letters


def test_chi_eta_identity():
    rng = random.Random(15)
    for _ in range(500):
        n = rng.choice((3, 4))
        labels = tuple(range(1, n + 1))
        pg = ParityGroup(labels)
        letters = []
        for _ in range(rng.randint(0, 8)):
            i, j = sorted(rng.sample(labels, 2))
            letters.append(((i, j), rng.choice((0, 1))))
        w = pg.word_from_letters(letters)
        img = chi(DottedGroup(labels), eta(pg, w))
        assert img.letters == w.letters


def test_eta_lands_in_even_tau_subgroup():
    rng = random.Random(16)
    for _ in range(100):
        labels = (1, 2, 3, 4)
        pg = ParityGroup(labels)
        letters = []
        for _ in range(rng.randint(0, 8)):
            i, j = sorted(rng.sample(labels, 2))
            letters.append(((i, j), rng.choice((0, 1))))
        img = eta(pg, pg.word_from_letters(letters))
        taus = {}
        for s, _ in img:
            if s.startswith("t_"):
                taus[s] = taus.get(s, 0) + 1
        assert all(c % 2 == 0 for c in taus.values())


def test_chi_rejects_odd_tau():
    dg = DottedGroup((1, 2, 3))
    w = word(dg.alphabet, ["t_1", "a_12"])
    with pytest.raises(ValueError):
        chi(dg, w)


def test_chi_omega_small_example():
    # a_12 a_34 a_13 a_34 a_13 a_12 with the parity strand 4
    g = GnkGroup(4, 2)
    beta = g.word_from_subsets([(1, 2), (3, 4), (1, 3), (3, 4), (1, 3), (1, 2)])
    pw = chi(DottedGroup((1, 2, 3)), omega_m(g, beta, 4))
    assert format_word(pw) == "a_12^0 a_13^1 a_13^0 a_12^0"
    zeta = w_parity(ParityGroup((1, 2, 3)), pw, (1, 2))
    assert format_word(zeta) == "z_0 z_1"


def test_omega_examples_from_g32():
    # beta = a12 a23 a13 a23 a13 a23 a12 a23 in G_3^2: all three parity
    # projections are nontrivial
    g = GnkGroup(3, 2)
    beta = g.word_from_subsets([(1, 2), (2, 3), (1, 3), (2, 3), (1, 3),
                                (2, 3), (1, 2), (2, 3)])
    outs = {}
    for m in (1, 2, 3):
        rest = tuple(l for l in (1, 2, 3) if l != m)
        pw = chi(DottedGroup(rest), omega_m(g, beta, m))
        outs[m] = format_word(pw)
    assert outs[1] == "a_23^1 a_23^0 a_23^1 a_23^0"
    assert outs[2] == "a_13^0 a_13^1"
    assert outs[3] == "a_12^0 a_12^1"


def test_w_parity_xy_commutator_example():
    g = GnkGroup(5, 2)
    X = g.word_from_subsets([(1, 2), (1, 3), (1, 2), (1, 3)])
    Y = g.word_from_subsets([(2, 3), (3, 5), (2, 3), (3, 5)])
    beta = X * Y * X.inverse() * Y.inverse()
    pw = chi(DottedGroup((1, 2, 3, 4)), omega_m(g, beta, 5))
    expected = ("a_12^0 a_13^0 a_12^0 a_13^0 a_23^0 a_23^1 a_13^0 a_12^0 "
                "a_13^0 a_12^0 a_23^1 a_23^0")
    assert format_word(pw) == expected
    zeta = w_parity(ParityGroup((1, 2, 3, 4)), pw, (1, 2))
    assert format_word(zeta) == "z_00 z_10 z_00 z_10"
    assert len(zeta) == 4


def test_w_parity_empty():
    pg = ParityGroup((1, 2, 3))
    assert len(w_parity(pg, Word(pg.alphabet), (1, 2))) == 0


def test_w_parity_relation_invariance():
    rng = random.Random(17)
    labels = (1, 2, 3, 4)
    pg = ParityGroup(labels)
    # relation instances: squares, far commutativity, parity triangles
    relations = []
    for i, j in itertools.combinations(labels, 2):
        for e in (0, 1):
            relations.append(pg.word_from_letters([((i, j), e), ((i, j), e)]))
    relations.append(pg.word_from_letters(
        [((1, 2), 0), ((3, 4), 1), ((1, 2), 0), ((3, 4), 1)]))
    for i, j, k in itertools.combinations(labels, 3):
        for es in itertools.product((0, 1), repeat=3):
            if sum(es) % 2:
                continue
            fwd = [((i, j), es[0]), ((i, k), es[1]), ((j, k), es[2])]
            back = list(reversed(fwd))
            relations.append(pg.word_from_letters(fwd)
                             * pg.word_from_letters(back).inverse())
    for _ in range(200):
        letters = []
        for _ in range(rng.randint(0, 8)):
            i, j = sorted(rng.sample(labels, 2))
            letters.append(((i, j), rng.choice((0, 1))))
        base = pg.word_from_letters(letters)
        rel = rng.choice(relations)
        t = rng.randint(0, len(base.letters))
        ins = Word(pg.alphabet, base.codes[:t] + rel.codes + base.codes[t:])
        for pair in itertools.combinations(labels, 2):
            assert w_parity(pg, ins, pair) == w_parity(pg, base, pair)


def test_r_m_worked_example():
    g53 = GnkGroup(5, 3)
    triples = [(1, 2, 4), (1, 2, 3), (1, 3, 5), (1, 3, 4), (1, 2, 4),
               (1, 3, 4), (1, 3, 5), (1, 2, 3), (1, 3, 4), (1, 3, 5),
               (1, 3, 4), (1, 2, 3), (1, 3, 5), (1, 3, 4), (1, 2, 4),
               (1, 3, 4), (1, 3, 5), (1, 2, 3), (1, 2, 4), (1, 3, 4),
               (1, 3, 5), (1, 3, 4)]
    beta = g53.word_from_subsets(triples)
    w1 = r_m(g53, beta, 1)
    expected = ("a_24 a_23 a_35 a_34 a_24 a_34 a_35 a_23 a_34 a_35 a_34 "
                "a_23 a_35 a_34 a_24 a_34 a_35 a_23 a_24 a_34 a_35 a_34")
    assert format_word(w1) == expected
    pw = chi(DottedGroup((2, 3, 4)), omega_m(GnkGroup(4, 2, (2, 3, 4, 5)), w1, 5))
    assert format_word(pw) == ("a_24^0 a_23^0 a_34^1 a_24^0 a_34^1 a_23^0 "
                               "a_34^0 a_34^1 a_23^1 a_34^0 a_24^0 a_34^0 "
                               "a_23^1 a_24^0 a_34^1 a_34^0")
    zeta = w_parity(ParityGroup((2, 3, 4)), pw, (2, 4))
    assert format_word(zeta) == "z_0 z_1 z_0 z_1"


def test_r_m_drops_letters_without_m():
    g = GnkGroup(4, 3)
    w = g.word_from_subsets([(1, 2, 3)])
    assert len(r_m(g, w, 4)) == 0
    assert len(r_m(g, Word(g.alphabet), 2)) == 0


def test_kappa_omega_inverse():
    rng = random.Random(18)
    labels = (1, 2, 3)
    dg = DottedGroup(labels)
    for _ in range(50):
        syms = []
        for _ in range(rng.randint(0, 8)):
            if rng.random() < 0.4:
                syms.append("t_%d" % rng.choice(labels))
            else:
                i, j = sorted(rng.sample(labels, 2))
                syms.append("a_%d%d" % (i, j))
        w = word(dg.alphabet, syms)
        img, target = kappa(dg, w)
        back = omega_m(target, img, 4)
        # omega is a left inverse of kappa modulo the forbidden reduction
        img2, _ = kappa(dg, back)
        assert img2.letters == img.letters


@pytest.mark.parametrize("n", [3, 4, 5, 10])
def test_kappa_matches_rescanning_oracle(n):
    rng = random.Random(500 + n)
    dg = DottedGroup(range(1, n + 1))
    for _ in range(300):
        w = Word(dg.alphabet, [rng.randrange(0, 2 * len(dg.alphabet), 2)
                               for _ in range(rng.randint(0, 20))])
        for new_label in (None, 0, n + 7):
            img, target = kappa(dg, w, new_label)
            want, want_target = braid_oracles.kappa(dg, w, new_label)
            assert img == want
            assert target.alphabet == want_target.alphabet


def test_phi_parity_chain_helper():
    g = GnkGroup(4, 2)
    beta = g.word_from_subsets([(1, 2), (3, 4), (1, 3), (3, 4), (1, 3), (1, 2)])
    zeta = phi_parity(g, beta, 4, (1, 2))
    assert format_word(zeta) == "z_0 z_1"


def test_phi_ijk_vanishes_on_random_brunnian_n6():
    rng = random.Random(41)
    n = 6
    g = GnkGroup(n, 3)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    found = 0
    while found < 4:
        used = rng.sample(pairs, 5)
        cover = set()
        for p in used:
            cover |= set(p)
        if cover != set(range(1, n + 1)):
            continue
        b = commutator(
            commutator(commutator(generator(n, *used[0]), generator(n, *used[1])),
                       generator(n, *used[2])),
            commutator(generator(n, *used[3]), generator(n, *used[4])))
        if not _certified(b):
            continue
        img = pb_to_gn3(b, g)
        for t in itertools.combinations(range(1, n + 1), 3):
            assert len(phi_ijk(g, img, t)) == 0
        found += 1


def test_crossings_match_oracle_for_every_mover_and_anchor():
    from gnk.braids import _crossings
    for n in range(4, 13):
        for i, anchor in itertools.product(range(1, n + 1), repeat=2):
            for side in ("after", "before"):
                assert list(_crossings(n, i, anchor, side)) == list(
                    _oracle_phase_crossings(n, i, anchor, side))


def test_graded_components_match_parabola_inside_counts():
    # the component of every letter of the algebraic graded image equals the
    # inside count of the event circle on the parabola configuration, folded
    # mod r; the counts come from the exact geometric oracle
    from fractions import Fraction as F
    from gnk.braids import _crossings
    from gnk.geometry import point_in_circumcircle
    from geometry_oracles import inside_count as geo_inside_count
    n, r = 6, 2
    pts = [(F(k), F(k * k)) for k in range(1, n + 1)]
    for i, j in ((1, 2), (2, 4)):
        for anchor in range(i + 1, j + 1):
            for side in ("after", "before"):
                for z, quad in _crossings(n, i, anchor, side):
                    trip = tuple(sorted(x for x in quad if x != i))
                    assert anchor in trip
                    oracle = geo_inside_count(pts, tuple(t - 1 for t in trip))
                    mover_inside = point_in_circumcircle(
                        *(pts[t - 1] for t in trip), pts[i - 1]) > 0
                    assert z + mover_inside == oracle
                    alpha = min(z % r, (-z) % r)
                    assert 0 <= alpha <= r // 2


# labels >= 10: names carry braces, and the maps read keys, not characters


def cancel_pairs(seq):
    """Free reduction over involutions: adjacent equal entries cancel."""
    out = []
    for x in seq:
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(x)
    return out


@pytest.mark.parametrize("n", [10, 11, 12])
def test_pr_iota_identity_labels_ge_10(n):
    rng = random.Random(100 + n)
    g = GnkGroup(n, 2)
    w = g.word_from_subsets(g.subsets + [rng.choice(g.subsets)
                                         for _ in range(40)])
    assert pr(ParityGroup(g.labels), iota(g, w)).letters == w.letters


@pytest.mark.parametrize("n", [10, 11, 12])
def test_chi_eta_identity_labels_ge_10(n):
    rng = random.Random(200 + n)
    labels = tuple(range(1, n + 1))
    pg = ParityGroup(labels)
    for _ in range(50):
        letters = [(tuple(sorted(rng.sample(labels, 2))), rng.choice((0, 1)))
                   for _ in range(12)]
        letters.append(((2, n), 1))
        w = pg.word_from_letters(letters)
        assert chi(DottedGroup(labels), eta(pg, w)).letters == w.letters


def test_chi_omega_crossings_2_11_and_1_12():
    # omega_13 turns a_{2,13} into t_2 and a_{1,13} into t_1; the crossing
    # (2, 11) sees one t_2 (parity 1), the first (1, 12) none (parity 0),
    # the second one t_1 (parity 1)
    g = GnkGroup(13, 2)
    w = g.word_from_subsets([(2, 13), (2, 11), (2, 13), (1, 12), (1, 13),
                             (1, 12), (1, 13)])
    dotted = omega_m(g, w, 13)
    assert format_word(dotted) == "t_2 a_{2,11} t_2 a_{1,12} t_1 a_{1,12} t_1"
    pw = chi(DottedGroup(range(1, 13)), dotted)
    assert format_word(pw) == "a_{2,11}^1 a_{1,12}^0 a_{1,12}^1"


@pytest.mark.parametrize("n", [10, 11, 12])
def test_kappa_omega_round_trip_labels_ge_10(n):
    rng = random.Random(300 + n)
    g = GnkGroup(n + 1, 2)
    dg = DottedGroup(range(1, n + 1))
    for _ in range(30):
        w = g.word_from_subsets([rng.choice(g.subsets) for _ in range(10)])
        img, target = kappa(dg, omega_m(g, w, n + 1))
        img2, _ = kappa(dg, omega_m(target, img, n + 1))
        assert img2.letters == img.letters
    w = g.word_from_subsets([(n, n + 1), (1, n)])
    img, _ = kappa(dg, omega_m(g, w, n + 1))
    assert format_word(img) == "a_{%d,%d} a_{1,%d}" % (n, n + 1, n)


@pytest.mark.parametrize("n", [10, 11, 12])
def test_w_parity_matches_key_counts_labels_ge_10(n):
    rng = random.Random(400 + n)
    labels = tuple(range(1, n + 1))
    pg = ParityGroup(labels)
    i, j = 2, min(n, 11)
    others = [l for l in labels if l not in (i, j)]
    l = others[-1]
    for _ in range(30):
        keys = [(tuple(sorted(rng.sample(labels, 2))), rng.choice((0, 1)))
                for _ in range(16)]
        keys += [((i, j), 0), ((i, l), 0), ((min(j, l), max(j, l)), 1),
                 ((i, j), 1)]
        keys = cancel_pairs(keys)
        expected = []
        for p, ((a, b), eps) in enumerate(keys):
            if (a, b) == (i, j):
                seen = keys[:p]
                bits = [(seen.count((tuple(sorted((i, k))), 0))
                         + seen.count((tuple(sorted((j, k))), eps))) % 2
                        for k in others]
                expected.append("z_" + "".join(str(x) for x in bits))
        value = w_parity(pg, pg.word_from_letters(keys), (i, j))
        assert format_word(value) == (" ".join(cancel_pairs(expected))
                                      or "1")


@pytest.mark.parametrize("n", [4, 5, 9, 10, 11, 12])
def test_phi_ijk_matches_count_oracle(n):
    rng = random.Random(500 + n)
    g = GnkGroup(n, 3)
    for _ in range(6):
        triple = tuple(sorted(rng.sample(g.labels, 3)))
        if n >= 10 and rng.random() < 0.5:
            triple = (2, n - 1, n)
        # a_{ijk}, its neighbours (two labels shared) and a few others
        near = [s for s in g.subsets if len(set(s) & set(triple)) >= 2]
        subs = near + rng.sample(g.subsets, 4)
        for _ in range(10):
            w = g.word_from_subsets([rng.choice(subs)
                                     for _ in range(rng.randint(0, 40))])
            assert phi_ijk(g, w, triple) == braid_oracles.phi_ijk(
                g, w, triple), (triple, w)


@pytest.mark.parametrize("n", [3, 4, 8, 10, 11, 12])
def test_w_parity_matches_count_oracle(n):
    rng = random.Random(600 + n)
    pg = ParityGroup(range(1, n + 1))
    for _ in range(6):
        pair = tuple(sorted(rng.sample(pg.labels, 2)))
        if n >= 10 and rng.random() < 0.5:
            pair = (1, n)
        near = [key for key in pg.alphabet.keys if set(key[0]) & set(pair)]
        for _ in range(10):
            keys = [rng.choice(near) for _ in range(rng.randint(0, 40))]
            w = word_from_keys(pg.alphabet, keys)
            assert w_parity(pg, w, pair) == braid_oracles.w_parity(
                pg, w, pair), (pair, w)
