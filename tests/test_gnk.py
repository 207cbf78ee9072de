import itertools
import math
import random
from fractions import Fraction

import pytest

from gnk.gnk import (Gk1kContext, GnkGroup, GnkPresentation, MNContext,
                     bigon_reduce_g2, delete_strand, eliminate_last_letter,
                     forget_index, index_word_to_F, is_even, mn_invariant,
                     tetrahedron_relation_count, unknotting_lower_bound, z_ij)
from gnk.words import Alphabet, CyclicWord, Word, format_word, state_key
import braid_oracles
from relator_oracles import (class_key, distinct_cyclic_words,
                             gnk_relator_words)


def _relators(pres):
    """Every relator of a GnkPresentation: its three families in order."""
    return (pres.involution_relators + pres.far_commutativity_relators
            + pres.tetrahedron_relators)


def test_generator_counts_and_order():
    assert GnkGroup(3, 2).subsets == [(1, 2), (1, 3), (2, 3)]
    assert len(GnkGroup(4, 3).subsets) == 4
    assert GnkGroup(5, 5).subsets == [(1, 2, 3, 4, 5)]
    with pytest.raises(ValueError):
        GnkGroup(3, 4)


def test_nominal_tetrahedron_count():
    assert tetrahedron_relation_count(4, 3) == 12
    assert tetrahedron_relation_count(3, 2) == 3
    assert tetrahedron_relation_count(5, 3) == 60


def test_relators_dedup_43():
    pres = GnkPresentation(GnkGroup(4, 3))
    # 3!/2 relations suffice for the single 4-subset
    assert len(pres.tetrahedron_relators) == 3
    assert not pres.far_commutativity_relators    # n = k + 1


PRESENTATION_SIZES = [
    (5, 2), (6, 2), (6, 3), (7, 3), (8, 3), (7, 4), (8, 4), (9, 4), (7, 5),
    (2, 1), (3, 1), (5, 1), (3, 2), (4, 3), (5, 4), (6, 5), (12, 2)]


@pytest.mark.parametrize("n, k", PRESENTATION_SIZES)
def test_relators_match_word_builders(n, k):
    # each relator written in its canonical rotation equals the reduced
    # Word's CyclicWord, list order included
    pres = GnkPresentation(GnkGroup(n, k))
    want = gnk_relator_words(GnkGroup(n, k))
    got = (pres.involution_relators, pres.far_commutativity_relators,
           pres.tetrahedron_relators)
    assert got == want
    assert pres.involution_relators == [CyclicWord(Word(pres.group.alphabet))
                                        ] * math.comb(n, k)


@pytest.mark.parametrize("n, k", PRESENTATION_SIZES)
def test_tetrahedron_relators_match_all_orderings_oracle(n, k):
    # one ordering per rotation/reversal class, in the order of the first
    # of each class among all orderings
    group = GnkGroup(n, k)

    def squared(perm, U):
        base = group.word_from_subsets([set(U) - {u} for u in perm])
        return base * base

    want = distinct_cyclic_words(
        squared(perm, U)
        for U in itertools.combinations(group.labels, k + 1)
        for perm in itertools.permutations(U))
    got = GnkPresentation(GnkGroup(n, k)).tetrahedron_relators
    assert got == want
    # k!/2 orderings per (k+1)-subset, and one when k = 1
    assert len(got) == math.comb(n, k + 1) * max(1, math.factorial(k) // 2)


def test_relators_32_single_triangle():
    pres = GnkPresentation(GnkGroup(3, 2))
    assert len(pres.tetrahedron_relators) == 1
    rel = pres.tetrahedron_relators[0]
    assert len(rel) == 6                          # (abc)^2


def test_far_commutativity_count_53():
    pres = GnkPresentation(GnkGroup(5, 3))
    subs = GnkGroup(5, 3).subsets
    expected = sum(1 for m1, m2 in itertools.combinations(subs, 2)
                   if len(set(m1) & set(m2)) <= 1)
    assert len(pres.far_commutativity_relators) == expected
    assert expected == 15


def _perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def is_relator_consequence_in_s3(assignment) -> bool:
    """Check that a map {a_12, a_13, a_23} -> S_3 kills every G_3^2 relator.

    ``assignment`` maps generator symbols to permutations of (0,1,2) given
    as image tuples.
    """
    pres = GnkPresentation(GnkGroup(3, 2))
    alphabet = pres.group.alphabet
    image = {m: assignment[s] for s, m in zip(alphabet.symbols, alphabet.keys)}
    identity = (0, 1, 2)
    for rel in _relators(pres):
        acc = identity
        for m in rel.keys():
            acc = _perm_mul(acc, image[m])
        if acc != identity:
            return False
    return True


def test_s3_assignment():
    t12, t13, t23 = (1, 0, 2), (2, 1, 0), (0, 2, 1)
    ident = (0, 1, 2)
    assert is_relator_consequence_in_s3(
        {"a_12": t12, "a_13": t13, "a_23": t23})
    assert is_relator_consequence_in_s3(
        {"a_12": ident, "a_13": ident, "a_23": ident})
    assert not is_relator_consequence_in_s3(
        {"a_12": t12, "a_13": t12, "a_23": (1, 2, 0)})


def test_forget_index_examples():
    g = GnkGroup(4, 3)
    w = g.word_from_subsets([(1, 2, 3), (2, 3, 4)])
    img, dst = forget_index(g, w, 4)
    assert format_word(img) == "a_23"
    empty, _ = forget_index(g, Word(g.alphabet), 4)
    assert len(empty) == 0


def test_delete_strand_examples():
    g = GnkGroup(4, 3)
    w = g.word_from_subsets([(1, 2, 3), (2, 3, 4)])
    img, dst = delete_strand(g, w, 4)
    assert format_word(img) == "a_123"
    empty, _ = delete_strand(g, Word(g.alphabet), 4)
    assert len(empty) == 0


def _is_relator_of(pres, w):
    if len(w) == 0:
        return True
    return class_key(CyclicWord(w)) in {class_key(r) for r in _relators(pres)}


def test_structural_maps_send_relators_to_relators():
    for n, k in ((4, 3), (5, 3), (5, 4)):
        g = GnkGroup(n, k)
        pres = GnkPresentation(GnkGroup(n, k))
        target_f = GnkPresentation(GnkGroup(n - 1, k - 1))
        target_d = GnkPresentation(GnkGroup(n - 1, k))
        for rel in _relators(pres):
            w = Word(rel.alphabet, rel.codes)
            for l in g.labels:
                img, _ = forget_index(g, w, l)
                assert _is_relator_of(target_f, img), (n, k, l, img)
                img2, _ = delete_strand(g, w, l)
                assert _is_relator_of(target_d, img2), (n, k, l, img2)


def test_is_even():
    g = GnkGroup(4, 3)
    assert is_even(g.word_from_subsets([(1, 2, 3), (2, 3, 4),
                                        (1, 2, 3), (2, 3, 4)]))
    assert not is_even(g.word_from_subsets([(1, 2, 3)]))


def test_is_even_matches_oracle():
    # seeded words over an involutive and a free alphabet: a random word
    # followed by a shuffle of its letters is even, and one more letter
    # makes it odd; free reduction keeps the parity of every generator
    rng = random.Random("is_even")
    alphabets = [GnkGroup(8, 3).alphabet, Alphabet(list("abcdef"), False)]
    seen = set()
    for alphabet in alphabets:
        for trial in range(40):
            codes = [rng.randrange(2 * len(alphabet)) for _ in range(
                rng.randint(0, 60))]
            if alphabet.involutive:
                codes = [c & ~1 for c in codes]
            half = codes[:]
            rng.shuffle(half)
            codes += half
            if trial % 2:
                codes.insert(rng.randint(0, len(codes)),
                             codes[0] if codes else 0)
            w = Word(alphabet, codes)
            assert is_even(w) == braid_oracles.is_even(w), (alphabet, codes)
            seen.add((alphabet.involutive, is_even(w)))
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


BETA_SUBSETS = [(1, 2, 3), (2, 3, 4), (1, 2, 3), (1, 3, 4),
                (1, 2, 3), (1, 3, 4), (1, 2, 3), (2, 3, 4)]


def test_mn_invariant_worked_example():
    g = GnkGroup(4, 3)
    beta = g.word_from_subsets(BETA_SUBSETS)
    v = mn_invariant(g, beta, (1, 2, 3))
    assert format_word(v) == "f_00 f_10 f_11 f_10"


def test_mn_invariant_empty():
    g = GnkGroup(4, 3)
    assert len(mn_invariant(g, Word(g.alphabet), (1, 2, 3))) == 0


def test_mn_requires_even():
    g = GnkGroup(4, 3)
    with pytest.raises(ValueError):
        mn_invariant(g, g.word_from_subsets([(1, 2, 3)]), (1, 2, 3))


def test_mn_context_rejects_repeated_and_foreign_labels():
    g = GnkGroup(5, 3)
    for m in ((1, 1, 2), (1, 2), (1, 2, 3, 4), (1, 2, 6)):
        with pytest.raises(ValueError, match="k-subset"):
            MNContext(g, m)


@pytest.mark.parametrize("n, k", [(4, 3), (5, 3), (8, 3), (11, 3),
                                  (5, 4), (7, 4), (9, 4)])
def test_mn_invariant_matches_per_letter_oracle(n, k):
    # dim (k-1)(n-k) is 16 at (11, 3) and 15 at (9, 4), under the state
    # cap words.STATE_DIM_MAX = 18
    rng = random.Random(70 + 10 * n + k)
    g = GnkGroup(n, k)
    for _ in range(6):
        m = tuple(sorted(rng.sample(g.labels, k)))
        ctx = MNContext(g, m)
        # a_m, its neighbours (|m ∩ m'| = k-1) and a few far generators
        near = [s for s in g.subsets if len(set(s) & set(m)) >= k - 1]
        subs = near + rng.sample(g.subsets, min(4, len(g.subsets)))
        for s in subs:
            assert ctx.psi_key(s) == state_key(braid_oracles.psi(ctx, s)), (
                m, s)
        for i, j in itertools.combinations(m, 2):
            assert z_ij(ctx, i, j) == braid_oracles.z_ij(ctx, i, j), (m, i, j)
        for _ in range(8):
            picks = [rng.choice(subs) for _ in range(rng.randint(0, 12))]
            even = picks * 2
            rng.shuffle(even)
            w = g.word_from_subsets(even)
            assert mn_invariant(g, w, m, ctx) == \
                braid_oracles.mn_invariant(g, w, m, ctx)
            assert mn_invariant(g, w, m) == mn_invariant(g, w, m, ctx)
            odd = g.word_from_subsets(picks)
            start = tuple(rng.randint(0, 1) for _ in range(ctx.dim))
            assert ctx.psi_word(odd) == braid_oracles.psi_word(ctx, odd)
            assert mn_invariant(g, odd, m, ctx, start=start) == \
                braid_oracles.mn_invariant(g, odd, m, ctx, start=start)


def test_state_dimension_cap():
    # one cap for every state-valued map, checked before any walk
    from gnk.braids import phi_ijk
    from gnk.words import STATE_DIM_MAX, state_alphabet
    assert STATE_DIM_MAX == 18
    with pytest.raises(ValueError, match="dimension 19 is too large"):
        state_alphabet(19, "f_")
    g = GnkGroup(13, 3)
    w = g.word_from_subsets([(1, 2, 3)] * 2)
    with pytest.raises(ValueError, match="dimension 20 is too large"):
        MNContext(g, (1, 2, 3))
    with pytest.raises(ValueError, match="dimension 20 is too large"):
        phi_ijk(g, w, (1, 2, 3))


def _random_even_word(rng, g, pairs):
    subs = [rng.choice(g.subsets) for _ in range(pairs)]
    seq = subs * 2
    rng.shuffle(seq)
    return g.word_from_subsets(seq)


def test_mn_composition_law():
    rng = random.Random(7)
    g = GnkGroup(5, 3)
    m = (1, 2, 3)
    ctx = MNContext(g, m)
    for _ in range(200):
        u = _random_even_word(rng, g, rng.randint(0, 4))
        v = _random_even_word(rng, g, rng.randint(0, 4))
        whole = mn_invariant(g, u * v, m, ctx)
        shifted = mn_invariant(g, u, m, ctx, start=ctx.psi_word(v))
        tail = mn_invariant(g, v, m, ctx)
        assert whole == shifted * tail


def test_mn_invariant_under_relator_insertion():
    rng = random.Random(8)
    g = GnkGroup(4, 3)
    pres = GnkPresentation(GnkGroup(4, 3))
    rels = [Word(r.alphabet, r.codes) for r in _relators(pres)]
    m = (1, 2, 3)
    ctx = MNContext(g, m)
    beta = g.word_from_subsets(BETA_SUBSETS)
    base = mn_invariant(g, beta, m, ctx)
    for _ in range(200):
        rel = rng.choice(rels)
        t = rng.randint(0, len(beta.codes))
        ins = Word(g.alphabet,
                   beta.codes[:t] + rel.codes + beta.codes[t:])
        assert mn_invariant(g, ins, m, ctx) == base


def test_unknotting_bound_worked_example():
    g = GnkGroup(4, 3)
    beta = g.word_from_subsets(BETA_SUBSETS)
    assert unknotting_lower_bound(g, beta, (1, 2, 3)) == Fraction(1)
    assert unknotting_lower_bound(g, Word(g.alphabet), (1, 2, 3)) == 0
    ctx = MNContext(g, (1, 2, 3))
    assert z_ij(ctx, 1, 2) == (1, 1)       # e1 + e2
    assert z_ij(ctx, 1, 3) == (0, 1)       # e2
    assert z_ij(ctx, 2, 3) == (1, 0)       # e1


def test_unknotting_bound_switch_monotonicity():
    # a switch f_x -> f_{x+z_ij} followed by a cancellation removes two
    # states from the support; the coset bound never increases
    import itertools as it
    from gnk.gnk import coset_overlap_bound
    rng = random.Random(12)
    g = GnkGroup(4, 3)
    ctx = MNContext(g, (1, 2, 3))
    zs = [z_ij(ctx, i, j) for i, j in it.combinations((1, 2, 3), 2)]
    for _ in range(100):
        support = {tuple(rng.randint(0, 1) for _ in range(ctx.dim))
                   for _ in range(rng.randint(0, 4))}
        base = coset_overlap_bound(ctx, support)
        for x in list(support):
            for z in zs:
                y = tuple(a ^ b for a, b in zip(x, z))
                if y in support and y != x:
                    smaller = support - {x, y}
                    assert coset_overlap_bound(ctx, smaller) <= base


@pytest.mark.parametrize("n, k", [(4, 3), (5, 3), (6, 3), (7, 3), (6, 4),
                                  (7, 5)])
def test_coset_bound_matches_tuple_oracle(n, k):
    from gnk.gnk import coset_overlap_bound
    rng = random.Random(80 + 10 * n + k)
    g = GnkGroup(n, k)
    for m in itertools.combinations(g.labels, k):
        ctx = MNContext(g, m)
        zs = [braid_oracles.z_ij(ctx, i, j)
              for i, j in itertools.combinations(m, 2)]
        for _ in range(20):
            # a few random walks along the z_ij, each inside one coset
            support = set()
            for _ in range(rng.randint(0, 4)):
                s = tuple(rng.randint(0, 1) for _ in range(ctx.dim))
                for _ in range(rng.randint(1, 8)):
                    support.add(s)
                    s = tuple(a ^ b for a, b in zip(s, rng.choice(zs)))
            assert coset_overlap_bound(ctx, support) == \
                braid_oracles.coset_overlap_bound(ctx, support)


# ---------------------------------------------------------------------------
# G_{k+1}^k


def _b_word(ctx, js):
    """The word b_{j_1} b_{j_2} ... of G_{k+1}^k, b_j the j-th k-subset."""
    return ctx.group.word_from_subsets([ctx.subsets[j - 1] for j in js])


def _indices(ctx, w):
    """The indices j of the letters b_j of a G_{k+1}^k word."""
    return [ctx.subsets.index(m) + 1 for m in w.keys()]


def test_index_word_no_last_letter():
    ctx = Gk1kContext(3)
    w = _b_word(ctx, [1, 2, 3])
    assert len(index_word_to_F(ctx, w)) == 0


def test_index_word_equal_adjacent_cancel():
    ctx = Gk1kContext(3)
    w = _b_word(ctx, [4, 1, 1, 4])
    assert len(index_word_to_F(ctx, w)) == 0


def test_index_word_nontrivial():
    ctx = Gk1kContext(3)
    w = _b_word(ctx, [4, 1, 4])
    v = index_word_to_F(ctx, w)
    assert format_word(v) == "c_00 c_10"


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_index_word_matches_count_oracle(k):
    rng = random.Random(90 + k)
    ctx = Gk1kContext(k)
    for _ in range(200):
        w = _b_word(ctx, [rng.randint(1, k + 1)
                          for _ in range(rng.randint(0, 30))])
        assert index_word_to_F(ctx, w) == braid_oracles.index_word_to_F(
            ctx, w), _indices(ctx, w)


def test_index_word_relator_invariance():
    rng = random.Random(9)
    for k in (3, 4):
        ctx = Gk1kContext(k)
        pres = GnkPresentation(GnkGroup(k + 1, k))
        rels = [Word(r.alphabet, r.codes) for r in _relators(pres)]
        for _ in range(60):
            base = _b_word(ctx, [rng.randint(1, k + 1)
                               for _ in range(rng.randint(0, 10))])
            value = index_word_to_F(ctx, base)
            rel = rng.choice(rels)
            t = rng.randint(0, len(base.codes))
            ins = Word(ctx.group.alphabet,
                       base.codes[:t] + rel.codes + base.codes[t:])
            assert index_word_to_F(ctx, ins) == value


def test_eliminate_identity_cases():
    ctx = Gk1kContext(3)
    w = _b_word(ctx, [1, 2, 1])
    assert eliminate_last_letter(ctx, w) == w


def test_eliminate_distinct_batch():
    ctx = Gk1kContext(3)
    # b4 B b4 with B = b1 b2 b3 (all distinct, same parity)
    w = _b_word(ctx, [4, 1, 2, 3, 4])
    out = eliminate_last_letter(ctx, w)
    assert out is not None
    assert 4 not in _indices(ctx, out)
    assert out.letters == _b_word(ctx, [3, 2, 1]).letters


def test_eliminate_failure_certificate():
    ctx = Gk1kContext(3)
    w = _b_word(ctx, [4, 1, 4])
    assert eliminate_last_letter(ctx, w) is None


def _reduce_involutive(seq):
    out = []
    for j in seq:
        if out and out[-1] == j:
            out.pop()
        else:
            out.append(j)
    return out


def _old_eliminate_indices(k, js):
    """Last-letter elimination on b indices 1 .. k+1, as it ran before it
    moved to letter codes, with its own reduction of index lists; the
    F-image of js is taken to be trivial."""
    letters = _reduce_involutive(js)
    while k + 1 in letters:
        occ = [p for p, j in enumerate(letters) if j == k + 1]
        for a, b in zip(occ, occ[1:]):
            cnt = [0] * (k + 1)
            for j in letters[a + 1:b]:
                cnt[j] += 1
            if len({c % 2 for c in cnt[1:]}) == 1:
                break
        B = _reduce_involutive(letters[a + 1:b])
        prefix = []
        while len(set(B)) < len(B):
            p = next(p for p, j in enumerate(B) if j in B[:p])
            S, ij = B[:p], B[p]
            P = [t for t in range(1, k + 1) if t not in S]
            Q = [t for t in S if t != ij]
            prefix += P[::-1] + S[::-1] + Q + [ij] + P
            B = _reduce_involutive(Q + B[p + 1:])
        letters = _reduce_involutive(
            letters[:a] + prefix + B[::-1] + letters[b + 1:])
    return letters


def test_eliminate_matches_index_oracle():
    rng = random.Random(12)
    done = 0
    for k in (3, 4, 5):
        ctx = Gk1kContext(k)
        for _ in range(300):
            js = [rng.randint(1, k + 1) for _ in range(rng.randint(0, 16))]
            w = _b_word(ctx, js)
            out = eliminate_last_letter(ctx, w)
            if out is not None:
                assert _indices(ctx, out) == _old_eliminate_indices(
                    k, _indices(ctx, w)), js
                done += k + 1 in js
    assert done > 70


def _z2_abelianization(w):
    return {s: c % 2 for s, c in w.symbol_counts().items() if c % 2}


def test_eliminate_preserves_invariants():
    rng = random.Random(10)
    for k in (3, 4):
        ctx = Gk1kContext(k)
        g = ctx.group
        for _ in range(40):
            js = [rng.randint(1, k + 1) for _ in range(rng.randint(0, 12))]
            w = _b_word(ctx, js)
            out = eliminate_last_letter(ctx, w)
            if out is None:
                assert len(index_word_to_F(ctx, w)) > 0
                continue
            assert k + 1 not in _indices(ctx, out)
            assert index_word_to_F(ctx, out) == index_word_to_F(ctx, w)
            assert _z2_abelianization(out) == _z2_abelianization(w)
            if is_even(w):
                for m in itertools.combinations(range(1, k + 2), k):
                    assert mn_invariant(g, out, m) == mn_invariant(g, w, m)


def test_bigon_reduction():
    g = GnkGroup(4, 2)
    w = g.word_from_subsets([(1, 2), (3, 4), (1, 2)])
    assert format_word(bigon_reduce_g2(g, w)) == "a_34"
    w2 = g.word_from_subsets([(1, 2), (1, 3), (1, 2)])
    assert bigon_reduce_g2(g, w2) == w2
    assert len(bigon_reduce_g2(g, Word(g.alphabet))) == 0


@pytest.mark.parametrize("n, labels", [
    (4, None), (5, None), (6, None), (12, None),
    (5, (8, 9, 10, 11, 12)), (6, (1, 10, 11, 12, 13, 14))])
def test_bigon_matches_rescanning_oracle(n, labels):
    rng = random.Random(60 + n)
    g = GnkGroup(n, 2, labels)
    for _ in range(300):
        w = g.word_from_subsets([rng.choice(g.subsets)
                                 for _ in range(rng.randint(0, 24))])
        assert bigon_reduce_g2(g, w) == braid_oracles.bigon_reduce_g2(g, w)


def test_bigon_only_shortens_and_is_fixed_point():
    rng = random.Random(11)
    g = GnkGroup(5, 2)
    for _ in range(50):
        w = g.word_from_subsets([rng.choice(g.subsets)
                                 for _ in range(rng.randint(0, 12))])
        red = bigon_reduce_g2(g, w)
        assert len(red) <= len(w)
        assert bigon_reduce_g2(g, red) == red


def test_mn_invariant_relator_insertion_random_words():
    rng = random.Random(40)
    g = GnkGroup(4, 3)
    pres = GnkPresentation(GnkGroup(4, 3))
    rels = [Word(r.alphabet, r.codes) for r in _relators(pres)]
    m = (1, 2, 3)
    ctx = MNContext(g, m)
    for _ in range(200):
        base = _random_even_word(rng, g, rng.randint(0, 5))
        value = mn_invariant(g, base, m, ctx)
        rel = rng.choice(rels)
        t = rng.randint(0, len(base.codes))
        ins = Word(g.alphabet, base.codes[:t] + rel.codes + base.codes[t:])
        assert mn_invariant(g, ins, m, ctx) == value


def test_eliminate_last_letter_k5_random():
    rng = random.Random(42)
    ctx = Gk1kContext(5)
    for _ in range(25):
        js = [rng.randint(1, 6) for _ in range(rng.randint(0, 14))]
        w = _b_word(ctx, js)
        out = eliminate_last_letter(ctx, w)
        value = index_word_to_F(ctx, w)
        if out is None:
            assert len(value) > 0
        else:
            assert 6 not in _indices(ctx, out)
            assert index_word_to_F(ctx, out) == value
            assert _z2_abelianization(out) == _z2_abelianization(w)
