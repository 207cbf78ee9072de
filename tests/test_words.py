import itertools
import random
import re

import pytest

from certificate_oracles import (old_parse_letters, old_reduce_letters,
                                 old_token_alphabet)
from gnk.gamma import Gamma4Group
from gnk.gnk import GnkGroup
from gnk.words import (LABELS_PATTERN, Alphabet, CyclicWord,
                       UnknownSymbolError, Word, cyclic_reduce,
                       far_commutators, format_word, inverse_letters,
                       least_rotation, parse_word, labels_text, read_labels,
                       read_letters, read_text, reduce_commuting,
                       reduce_letters, relabel_cyclic_words, state_alphabet,
                       token, token_letter, word)
from relator_oracles import distinct_cyclic_words


def naive_reduce(alphabet, letters):
    """Independent oracle: repeated full scans, one cancellation at a time."""
    letters = list(letters)
    changed = True
    while changed:
        changed = False
        for t in range(len(letters) - 1):
            (s1, e1), (s2, e2) = letters[t], letters[t + 1]
            if s1 == s2 and (alphabet.involutive or e1 == -e2):
                del letters[t:t + 2]
                changed = True
                break
    return tuple(letters)


def random_letters(rng, alphabet, n):
    return [(rng.choice(alphabet.symbols),
             1 if alphabet.involutive else rng.choice((1, -1)))
            for _ in range(n)]


def test_involutive_square_cancels():
    ab = Alphabet(["a"])
    assert len(word(ab, ["a", "a"])) == 0


def test_telescoping():
    ab = Alphabet(["f0", "f1"])
    assert len(word(ab, ["f0", "f1", "f1", "f0"])) == 0


def test_unknown_symbol():
    ab = Alphabet(["a"])
    with pytest.raises(UnknownSymbolError):
        word(ab, ["b"])


def test_reduce_matches_oracle_on_random_words():
    rng = random.Random(0)
    ab_inv = Alphabet(["a", "b", "c", "d"], involutive=True)
    ab_free = Alphabet(["a", "b", "c", "d"], involutive=False)
    for ab in (ab_inv, ab_free):
        for _ in range(40):
            raw = [(rng.choice(ab.symbols), rng.choice((1, -1)))
                   for _ in range(200)]
            # a suffix followed by its inverse: nested cancellations
            raw += [(s, -e) for s, e in reversed(raw[rng.randint(150, 200):])]
            assert word(ab, raw).letters == naive_reduce(ab, [
                (s, 1 if ab.involutive else e) for s, e in raw])


def test_reduce_idempotent_and_confluent():
    rng = random.Random(1)
    ab = Alphabet(["a", "b", "c"], involutive=True)
    for _ in range(500):
        raw = [(rng.choice(ab.symbols), 1) for _ in range(rng.randint(0, 30))]
        w = word(ab, raw)
        assert word(ab, w.letters).letters == w.letters
        assert Word(ab, w.codes).codes == w.codes
        # random single-cancellation orders reach the same normal form
        letters = list(raw)
        while True:
            spots = [t for t in range(len(letters) - 1)
                     if letters[t] == letters[t + 1]]
            if not spots:
                break
            t = rng.choice(spots)
            del letters[t:t + 2]
        assert tuple(letters) == w.letters


def test_subadditive_length():
    rng = random.Random(2)
    ab = Alphabet(["a", "b", "c"], involutive=False)
    for _ in range(100):
        u = word(ab, [(rng.choice(ab.symbols), rng.choice((1, -1)))
                      for _ in range(rng.randint(0, 20))])
        v = word(ab, [(rng.choice(ab.symbols), rng.choice((1, -1)))
                      for _ in range(rng.randint(0, 20))])
        assert len(u * v) <= len(u) + len(v)


def test_cyclic_rotation_invariance():
    ab = Alphabet(["a", "b", "c"], involutive=True)
    w1 = word(ab, ["a", "b", "c"])
    w2 = word(ab, ["b", "c", "a"])
    assert CyclicWord(w1) == CyclicWord(w2)


def test_cyclic_conjugation_collapse():
    ab = Alphabet(["a", "b"], involutive=False)
    w = word(ab, [("a", 1), ("b", 1), ("a", -1)])
    cw = CyclicWord(w)
    assert cw.letters == (("b", 1),)


def test_cyclic_all_rotations_equal():
    rng = random.Random(3)
    ab = Alphabet(["a", "b", "c", "d"], involutive=True)
    base = [(rng.choice(ab.symbols), 1) for _ in range(12)]
    w = word(ab, base)
    if not w.codes:
        return
    canon = CyclicWord(w)
    for _ in range(100):
        r = rng.randrange(len(w.codes))
        rotated = Word(ab, w.codes[r:] + w.codes[:r])
        assert CyclicWord(rotated) == canon


def _least_rotation_quadratic(seq, key=lambda x: x):
    """Reference: every rotation built, compared item by item under key."""
    seq = tuple(seq)
    return min((seq[i:] + seq[:i] for i in range(len(seq))),
               key=lambda rot: [key(x) for x in rot], default=())


def test_least_rotation_matches_quadratic_oracle():
    rng = random.Random(43)
    for _ in range(3000):
        base = [rng.randint(0, 3) for _ in range(rng.randint(0, 5))]
        seq = base * rng.randint(1, 4)              # periodic ones too
        if rng.random() < 0.5:
            seq = [rng.randint(0, 2) for _ in range(rng.randint(0, 16))]
        assert least_rotation(seq) == _least_rotation_quadratic(seq), seq


def test_cyclic_word_matches_quadratic_least_rotation():
    rng = random.Random(44)
    # declared order differs from name order; inverses sort after positives
    ab = Alphabet(["c", "a", "b"], involutive=False)

    def key(letter):
        return (ab.index[letter[0]], 0 if letter[1] == 1 else 1)

    for _ in range(500):
        base = [(rng.choice(ab.symbols), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 7))]
        w = word(ab, base * rng.randint(1, 3))
        expected = _least_rotation_quadratic(
            ab.decode(cyclic_reduce(ab, w.codes)), key)
        assert CyclicWord(w).letters == expected, w


@pytest.mark.parametrize("group", [
    GnkGroup(n, k) for n, k in [(4, 2), (5, 2), (6, 3), (7, 3), (7, 4)]] + [
    Gamma4Group(n) for n in (5, 6, 7)])
def test_far_commutators_match_cyclic_words(group):
    # (a b)^2 of each far pair, in combinations order, is written as its
    # canonical CyclicWord
    ab = group.alphabet
    want = [CyclicWord(Word(ab, (a, b) * 2))
            for a, b in itertools.combinations(ab.code.values(), 2)
            if group.far(a, b)]
    got = far_commutators(ab, group.far)
    assert got == want
    with pytest.raises(ValueError, match="involutive"):
        far_commutators(Alphabet(ab.symbols, involutive=False), group.far)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_gnk_far_test_counts_shared_labels(k):
    # the mask test against the label sets themselves, labels >= 10 too
    for labels in ((1, 2, 3, 4, 5, 6, 7), (1, 9, 10, 11, 12, 40, 63, 64)):
        group = GnkGroup(len(labels), k, labels)
        code = group.alphabet.code
        for m1, m2 in itertools.product(group.subsets, repeat=2):
            assert group.far(code[m1], code[m2]) == (
                len(set(m1) & set(m2)) <= k - 2), (m1, m2)


def test_relabel_cyclic_words_matches_cyclic_word():
    # an increasing table of even codes keeps every word's reduction and
    # least rotation, so the images, table by table, are the CyclicWords of
    # the relabelled words, on an involutive and on a free alphabet
    for involutive in (False, True):
        rng = random.Random(47 + involutive)
        source = Alphabet(["a", "b", "c", "d"], involutive)
        target = Alphabet(["g%d" % i for i in range(10)], involutive)
        for _ in range(100):
            words = [CyclicWord(word(source, random_letters(
                         rng, source, rng.randint(0, 8)))) for _ in range(5)]
            tables = [[2 * i for i in sorted(rng.sample(range(10), 4))]
                      for _ in range(rng.randint(0, 3))]
            assert relabel_cyclic_words(target, iter(tables), words) == [
                CyclicWord(Word(target, [t[c >> 1] ^ c & 1 for c in w.codes]))
                for t in tables for w in words]
        assert relabel_cyclic_words(target, tables, []) == []


@pytest.mark.parametrize("table", [
    [2, 0],                  # decreasing
    [2, 2],                  # repeated
    [1, 2],                  # an odd code
    [0, 20],                 # a code outside the alphabet
    [-2, 0],                 # a negative code
    [0, 2, 4]])              # not one code per template symbol
def test_relabel_cyclic_words_rejects_bad_tables(table):
    source = Alphabet(["a", "b"], involutive=False)
    target = Alphabet(["g%d" % i for i in range(10)], involutive=False)
    w = CyclicWord(word(source, [("a", 1), ("b", 1)]))
    with pytest.raises(ValueError, match="increasing even codes"):
        relabel_cyclic_words(target, [[0, 2], table], [w])


def test_relabel_cyclic_words_needs_matching_alphabets():
    # an involutive target would send a free template's a and a^-1 to one
    # letter, so either mix is refused
    for involutive in (False, True):
        source = Alphabet(["a", "b"], involutive)
        w = CyclicWord(word(source, [("a", 1), ("b", 1)]))
        with pytest.raises(ValueError, match="both involutive or both free"):
            relabel_cyclic_words(Alphabet(["x", "y"], not involutive),
                                 [[0, 2]], [w])


def test_distinct_cyclic_words_keeps_first_of_each_class():
    rng = random.Random(45)
    ab = Alphabet(["a", "b", "c"], involutive=False)
    bases = [word(ab, [(rng.choice(ab.symbols), rng.choice((1, -1)))
                       for _ in range(rng.randint(1, 6))]) for _ in range(30)]
    words = []
    for _ in range(300):
        w = rng.choice(bases)
        if rng.random() < 0.5:
            w = w.inverse()
        r = rng.randrange(len(w) or 1)
        words.append(Word(ab, w.codes[r:] + w.codes[:r]))

    def conjugates(w):
        c = cyclic_reduce(ab, w.codes)
        return frozenset(s[i:] + s[:i] for s in (c, inverse_letters(ab, c))
                         for i in range(len(s) or 1))

    expected, seen = [], set()
    for w in words:
        if conjugates(w) not in seen:
            seen.add(conjugates(w))
            expected.append(CyclicWord(w))
    assert distinct_cyclic_words(words) == expected


@pytest.mark.parametrize("involutive", [False, True])
def test_power_is_repeated_product(involutive):
    ab = Alphabet(["x", "y", "z"], involutive=involutive)
    rng = random.Random(11)
    for _ in range(20):
        w = word(ab, random_letters(rng, ab, rng.randint(0, 8)))
        for k in range(-3, 4):
            want = Word(ab)
            for _ in range(abs(k)):
                want = want * (w if k > 0 else w.inverse())
            assert w ** k == want, (w, k)


def test_complexity():
    # the complexity of a word is the letter count of its reduced form
    ab = Alphabet(["a", "b", "c"], involutive=True)
    assert len(word(ab, [])) == 0
    assert len(word(ab, ["a", "b", "c", "a", "b"])) == 5
    assert len(word(ab, ["a", "b", "b", "a", "c"])) == 1


def test_complexity_reduced_involutive_example():
    # reduced form of "a b b a c" over an involutive alphabet is "c"
    ab = Alphabet(["a", "b", "c"], involutive=True)
    w = word(ab, ["a", "b", "b", "a", "c"])
    assert format_word(w) == "c"


def test_parse_print_round_trip():
    ab = Alphabet(["a_123", "a_234"], involutive=False)
    text = "a_123 a_234^-1 a_123"
    w = parse_word(ab, text)
    assert format_word(w) == text
    assert parse_word(ab, format_word(w)) == w


def test_label_runs_round_trip():
    # one digit per label up to 9, a braced comma list once a label is >= 10
    rng = random.Random(37)
    for top in (9, 15):
        for _ in range(200):
            labels = tuple(rng.sample(range(1, top + 1), rng.randint(1, 6)))
            run = labels_text(labels)
            assert re.fullmatch(LABELS_PATTERN, run), run
            assert read_labels(run) == labels
            assert run.startswith("{") == (max(labels) >= 10)


@pytest.mark.parametrize("symbol", ["a_123", "a_{1,10}", "b_1_2", "35,164",
                                    "{1,10},{2,3,4}", "d_1243", "x"])
def test_token_round_trip(symbol):
    for sign in (1, -1):
        assert token_letter(token(symbol, sign)) == (symbol, sign)
    assert token(symbol, -1) == symbol + "^-1"


def test_free_product_z2_normal_form_unique():
    rng = random.Random(4)
    ab = Alphabet(["x", "y", "z"], involutive=True)
    for _ in range(200):
        raw = [(rng.choice(ab.symbols), 1) for _ in range(rng.randint(0, 14))]
        u = word(ab, raw)
        # padding with squares anywhere leaves the normal form unchanged
        t = rng.randint(0, len(raw))
        s = rng.choice(ab.symbols)
        padded = raw[:t] + [(s, 1), (s, 1)] + raw[t:]
        assert word(ab, padded) == u


# ---------------------------------------------------------------------------
# the codec, the one-pass reader and the code reduction


LABELS10 = ["a_{1,10}", "a_{2,11}", "a_{10,12}", "g10", "g11", "t_12"]


def test_encode_rejects_unknown_symbol_and_bad_sign():
    # validation happens where codes are made; reduction trusts its codes
    for invol in (True, False):
        ab = Alphabet(LABELS10, involutive=invol)
        assert word(ab, [("a_{1,10}", 1), ("g10", -1)])
        for make in (lambda ls: word(ab, ls), ab.encode):
            with pytest.raises(UnknownSymbolError) as exc:
                make([("a_{1,10}", 1), ("a_{1,11}", 1), ("g12", 1)])
            assert exc.value.args == ("a_{1,11}",)
            for bad in (2, 0, -2, "1"):
                with pytest.raises(ValueError, match="sign must be"):
                    make([("g10", 1), ("g11", 1), ("g10", bad)])
        with pytest.raises(UnknownSymbolError) as exc:
            parse_word(ab, "g10 t_12^-1 1 g12^-1 a_{1,11}")
        assert exc.value.args == ("g12",)
        # the first unknown in the text, whatever the order of a set
        unknown = ["u%d^-1" % i for i in range(50)]
        for t in range(5):
            text = " ".join(["g10"] + unknown[t:] + unknown[:t])
            with pytest.raises(UnknownSymbolError) as exc:
                read_letters(ab, text)
            assert exc.value.args == ("u%d" % t,)


def test_involutive_and_free_codes_apart():
    inv = Alphabet(LABELS10, involutive=True)
    free = Alphabet(LABELS10, involutive=False)
    letters = [("g10", 1), ("g10", 1), ("g11", 1), ("g11", -1)]
    assert inv.encode(letters) == [6, 6, 8, 8]
    assert free.encode(letters) == [6, 6, 8, 9]
    assert reduce_letters(inv, inv.encode(letters)) == ()
    assert reduce_letters(free, free.encode(letters)) == (6, 6)
    assert word(free, letters).letters == (("g10", 1), ("g10", 1))
    assert inv.decode([6, 8]) == free.decode([6, 8]) == (("g10", 1),
                                                        ("g11", 1))
    assert free.decode([9]) == (("g11", -1),)
    assert [inv.inverse(c) for c in (6, 7)] == [6, 7]
    assert [free.inverse(c) for c in (6, 7)] == [7, 6]


def test_letters_as_lists_reduce():
    for invol in (False, True):
        ab = Alphabet(["x", "y"], involutive=invol)
        for letters in ([["x", 1], ["y", -1], ["y", 1], ["x", 1]],
                        [("x", 1), ["x", -1], ["y", 1], ("y", -1)],
                        [["y", 1], ["y", 1], ("x", -1), ["x", 1]]):
            assert word(ab, letters).letters == \
                old_reduce_letters(ab, letters), (invol, letters)
        with pytest.raises(UnknownSymbolError):
            word(ab, [["z", 1]])


def test_reduce_matches_old_reduction_at_labels_10():
    rng = random.Random(7)
    for invol in (False, True):
        ab = Alphabet(LABELS10, involutive=invol)
        for _ in range(200):
            block = [(rng.choice(ab.symbols), rng.choice((1, -1)))
                     for _ in range(rng.randint(0, 30))]
            letters = block + [(s, -e) for s, e in reversed(block)] \
                if rng.random() < 0.4 else block
            letters += [(rng.choice(ab.symbols), rng.choice((1, -1)))
                        for _ in range(rng.randint(0, 10))]
            want = old_reduce_letters(ab, letters)
            assert word(ab, letters).letters == want, letters
            assert ab.decode(reduce_letters(ab, ab.encode(letters))) == want


def test_read_letters_matches_old_reader():
    rng = random.Random(6)
    pool = ["a", "g12", "g3^-1", "1", "b_1^-1", "x", "^-1", "g12^-1",
            "a_{1,10}", "a_{1,10}^-1", "1^-1", "g1", "g10"]
    texts = [" ".join(toks) for toks in itertools.product(
        ("1", "1^-1", "g1", "g10"), repeat=3)]
    texts += ["1", " 1 \n\n 1", "\t1\n", "1 " * 50, "1 1^-1", "1^-1 1",
              "g1 1 g10 1", "1 g10^-1 1 g1^-1 1", "1 1^-1 1^-1 1"]
    for _ in range(200):
        toks = [rng.choice(pool if rng.random() < 0.8 else ["1"])
                for _ in range(rng.randint(0, 30))]
        texts.append("".join(t + rng.choice((" ", "\n", "\t", "  \n\n"))
                             for t in toks))
    accepted = 0
    for text in texts:
        for invol in (True, False):
            ab = old_token_alphabet(text, invol)
            want = [(s, 1 if invol else e) for s, e in old_parse_letters(text)]
            codes = read_letters(ab, text)
            assert list(ab.decode(codes)) == want
            # one split gives the old reader's alphabet and the same codes,
            # or refuses the first token naming a symbol that the grammar
            # cannot print back: "", "1" or one ending in ^-1
            bad = [t for t in text.split()
                   if t in ("^-1", "1^-1") or t.endswith("^-1^-1")]
            if bad:
                first = re.escape(repr(bad[0]))
                with pytest.raises(ValueError, match="^letter %s: " % first):
                    read_text(text, invol)
            else:
                accepted += 1
                assert read_text(text, invol) == (ab, codes)
    assert accepted > 100       # 168 of the 546 reads
    assert read_text("") == read_text(" 1 \n\n 1") == (Alphabet([]), [])
    assert read_letters(Alphabet([]), " 1 \n\n 1") == []
    # each distinct token is encoded once: equal letters share one int
    big = Alphabet(["g%d" % i for i in range(200)], involutive=False)
    codes = read_letters(big, "g150 g199^-1 g150 g199^-1")
    assert codes == [300, 399, 300, 399]
    assert codes[0] is codes[2] and codes[1] is codes[3]


def test_reduce_letters_matches_old_reduction_across_empty_stacks():
    """Words that cancel to nothing mid-way and restart with code 0 or 1,
    the codes nearest the empty stack's -1, over free and involutive
    alphabets, labels >= 10 included, given as a list and as a map."""
    rng = random.Random(35)
    for invol in (False, True):
        for symbols in (["a", "b", "c"], LABELS10):
            ab = Alphabet(symbols, involutive=invol)
            first = ab.symbols[0]          # codes 0 and 1
            assert ab.encode([(first, 1), (first, -1)]) == [0, ab.inverse(0)]
            for _ in range(200):
                letters = []
                for _ in range(rng.randint(1, 5)):
                    # a piece that starts at code 0 or 1 and cancels away
                    block = [(first, rng.choice((1, -1)))] + [
                        (rng.choice(ab.symbols), rng.choice((1, -1)))
                        for _ in range(rng.randint(0, 8))]
                    letters += block + [(s, -e) for s, e in reversed(block)]
                if rng.random() < 0.5:
                    letters.insert(rng.randint(0, len(letters)),
                                   (rng.choice(ab.symbols),
                                    rng.choice((1, -1))))
                letters += [(first, rng.choice((1, -1)))
                            for _ in range(rng.randint(0, 3))]
                want = old_reduce_letters(ab, letters)
                codes = ab.encode(letters)
                assert ab.decode(reduce_letters(ab, codes)) == want, letters
                assert ab.decode(reduce_letters(ab, map(int, codes))) == want
    for invol in (False, True):
        ab = Alphabet(LABELS10, involutive=invol)
        inv = ab.inverse
        for c in {0, inv(0)}:
            assert reduce_letters(ab, [c, inv(c), c]) == (c,)
            assert reduce_letters(ab, map(int, [c, inv(c)] * 3)) == ()
            assert reduce_letters(ab, [2, inv(2), c, 4, inv(4)]) == (c,)


def _shortest_by_rewrites(alphabet, letters, commutes):
    """The shortest words that swaps of adjacent commuting letters and
    cancellations of adjacent inverse pairs reach from ``letters``,
    found breadth first."""
    start = tuple(letters)
    seen, todo = {start}, [start]
    for w in todo:
        for t in range(len(w) - 1):
            a, b = w[t], w[t + 1]
            moves = []
            if b == alphabet.inverse(a):
                moves.append(w[:t] + w[t + 2:])
            if commutes(a, b):
                moves.append(w[:t] + (b, a) + w[t + 2:])
            for nxt in moves:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    least = min(map(len, seen))
    return {w for w in seen if len(w) == least}


@pytest.mark.parametrize("involutive", [False, True])
def test_reduce_commuting_matches_breadth_first_search(involutive):
    # random commutation graphs on up to four symbols, a symbol commuting
    # with itself or not; the stack pass reaches a shortest word
    rng = random.Random(71 + involutive)
    step = 2 if involutive else 1
    for _ in range(200):
        size = rng.randint(1, 4)
        ab = Alphabet(["x%d" % s for s in range(size)], involutive)
        edges = {(s, t) for s in range(size) for t in range(s, size)
                 if rng.random() < 0.5}

        def commutes(a, b):
            return tuple(sorted((a >> 1, b >> 1))) in edges
        letters = [rng.randrange(0, 2 * size, step)
                   for _ in range(rng.randint(0, 9))]
        got = reduce_commuting(ab, letters, commutes)
        assert got in _shortest_by_rewrites(ab, letters, commutes), letters
    ab = Alphabet(["a", "b", "c"], involutive)
    a, b, c = 0, 2, 4
    # a commutes with b only: a b a^-1 -> b, a c a^-1 stays
    inv = ab.inverse
    assert reduce_commuting(ab, [a, b, inv(a), c],
                            lambda x, y: {x >> 1, y >> 1} == {0, 1}) == (b, c)
    assert reduce_commuting(ab, [a, c, inv(a)], lambda x, y: False) == (
        a, c, inv(a))


def test_state_alphabet_names_and_cache():
    # the names of the four state targets: the MN values f_, the F-image
    # c_, w_parity z_ (one run of bits) and phi_ijk s_ (bit pairs)
    def name(prefix, bits, group=None):
        if group is None:
            return prefix + labels_text(bits)
        return prefix + ",".join(labels_text(bits[t:t + group])
                                 for t in range(0, len(bits), group))
    for dim in range(0, 11):
        vectors = list(itertools.product((0, 1), repeat=dim))
        for prefix, group in (("f_", None), ("c_", None), ("z_", None),
                              ("s_", 2)):
            if group and dim % group:
                continue
            ab = state_alphabet(dim, prefix, group)
            assert ab.symbols == tuple(name(prefix, x, group)
                                       for x in vectors)
            assert ab.involutive
            assert state_alphabet(dim, prefix, group) is ab
    assert state_alphabet(0, "f_").symbols == ("f_",)
    assert state_alphabet(4, "s_", 2).symbols[6] == "s_01,10"
