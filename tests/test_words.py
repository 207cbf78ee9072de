import random

import pytest

from certificate_oracles import (old_parse_letters, old_reduce_letters,
                                 old_token_alphabet)
from gnk.words import (Alphabet, CyclicWord, UnknownSymbolError, Word,
                       cyclic_reduce, cyclic_word_from_period, format_word,
                       inverse_letters, least_rotation, parse_word,
                       read_letters, read_symbols, reduce_letters, word)
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


@pytest.mark.parametrize("involutive", [False, True])
def test_cyclic_word_from_period_matches_cyclic_word(involutive):
    # equal to CyclicWord(Word(...)) when the least code occurs once in the
    # period and no letter cancels its cyclic successor there; else a
    # ValueError
    rng = random.Random(46 + involutive)
    ab = Alphabet(["c", "a", "d", "b"], involutive=involutive)

    def cancels(x, y):
        return x[0] == y[0] and (involutive or x[1] == -y[1])

    kept = raised = 0
    for _ in range(3000):
        period = tuple(random_letters(rng, ab, rng.randint(0, 6)))
        power = rng.randint(1, 3)
        codes = ab.encode(period)
        meets = (not codes or codes.count(min(codes)) == 1) and not any(
            cancels(x, period[(i + 1) % len(period)])
            for i, x in enumerate(period))
        if meets:
            got = cyclic_word_from_period(ab, codes, power)
            want = CyclicWord(word(ab, period * power))
            assert got == want and got.letters == want.letters, period
            kept += 1
        else:
            with pytest.raises(ValueError):
                cyclic_word_from_period(ab, codes, power)
            raised += 1
    assert kept > 500 and raised > 500


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
            "a_{1,10}", "a_{1,10}^-1"]
    for _ in range(200):
        toks = [rng.choice(pool) for _ in range(rng.randint(0, 30))]
        text = "".join(t + rng.choice((" ", "\n", "\t", "  \n\n"))
                       for t in toks)
        symbols = read_symbols(text)
        assert symbols == list(old_token_alphabet(text, True).symbols)
        for invol in (True, False):
            ab = Alphabet(symbols, involutive=invol)
            codes = read_letters(ab, text)
            assert list(ab.decode(codes)) == [
                (s, 1 if invol else e) for s, e in old_parse_letters(text)]
    assert read_symbols("") == read_symbols(" 1 \n\n 1") == []
    assert read_letters(Alphabet([]), " 1 \n\n 1") == []
    # each distinct token is encoded once: equal letters share one int
    big = Alphabet(["g%d" % i for i in range(200)], involutive=False)
    codes = read_letters(big, "g150 g199^-1 g150 g199^-1")
    assert codes == [300, 399, 300, 399]
    assert codes[0] is codes[2] and codes[1] is codes[3]
