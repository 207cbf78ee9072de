import random

import pytest

from certificate_oracles import (old_parse_letters, old_reduce_letters,
                                 old_token_alphabet)
from gnk.words import (Alphabet, CyclicWord, UnknownSymbolError, Word,
                       complexity, cyclic_reduce, cyclic_word_from_period,
                       format_word, inverse_letters, least_rotation,
                       parse_word, read_letters, reduce_letters, word)
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
            raw += inverse_letters(ab, raw[rng.randint(150, 200):])
            assert Word(ab, raw).letters == naive_reduce(ab, [
                (s, 1 if ab.involutive else e) for s, e in raw])


def test_reduce_idempotent_and_confluent():
    rng = random.Random(1)
    ab = Alphabet(["a", "b", "c"], involutive=True)
    for _ in range(500):
        raw = [(rng.choice(ab.symbols), 1) for _ in range(rng.randint(0, 30))]
        w = Word(ab, raw)
        assert Word(ab, w.letters).letters == w.letters
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
        u = Word(ab, [(rng.choice(ab.symbols), rng.choice((1, -1)))
                      for _ in range(rng.randint(0, 20))])
        v = Word(ab, [(rng.choice(ab.symbols), rng.choice((1, -1)))
                      for _ in range(rng.randint(0, 20))])
        assert len(u * v) <= len(u) + len(v)


def test_cyclic_rotation_invariance():
    ab = Alphabet(["a", "b", "c"], involutive=True)
    w1 = word(ab, ["a", "b", "c"])
    w2 = word(ab, ["b", "c", "a"])
    assert CyclicWord(w1) == CyclicWord(w2)


def test_cyclic_conjugation_collapse():
    ab = Alphabet(["a", "b"], involutive=False)
    w = Word(ab, [("a", 1), ("b", 1), ("a", -1)])
    cw = CyclicWord(w)
    assert cw.letters == (("b", 1),)


def test_cyclic_all_rotations_equal():
    rng = random.Random(3)
    ab = Alphabet(["a", "b", "c", "d"], involutive=True)
    base = [(rng.choice(ab.symbols), 1) for _ in range(12)]
    w = Word(ab, base)
    if not w.letters:
        return
    canon = CyclicWord(w)
    for _ in range(100):
        r = rng.randrange(len(w.letters))
        rotated = Word(ab, w.letters[r:] + w.letters[:r])
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
        assert (least_rotation(seq, key=lambda x: -x)
                == _least_rotation_quadratic(seq, key=lambda x: -x)), seq


def test_cyclic_word_matches_quadratic_least_rotation():
    rng = random.Random(44)
    # declared order differs from name order; inverses sort after positives
    ab = Alphabet(["c", "a", "b"], involutive=False)

    def key(letter):
        return (ab.index[letter[0]], 0 if letter[1] == 1 else 1)

    for _ in range(500):
        base = [(rng.choice(ab.symbols), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 7))]
        w = Word(ab, base * rng.randint(1, 3))
        expected = _least_rotation_quadratic(cyclic_reduce(ab, w.letters), key)
        assert CyclicWord(w).letters == expected, w


@pytest.mark.parametrize("involutive", [False, True])
def test_cyclic_word_from_period_matches_cyclic_word(involutive):
    # equal to CyclicWord(Word(...)) when the least key occurs once in the
    # period and no letter cancels its cyclic successor there; else a
    # ValueError
    rng = random.Random(46 + involutive)
    ab = Alphabet(["c", "a", "d", "b"], involutive=involutive)

    def key(letter):
        return 2 * ab.index[letter[0]] + (letter[1] != 1)

    def cancels(x, y):
        return x[0] == y[0] and (involutive or x[1] == -y[1])

    kept = raised = 0
    for _ in range(3000):
        period = tuple(random_letters(rng, ab, rng.randint(0, 6)))
        power = rng.randint(1, 3)
        keys = [key(x) for x in period]
        meets = (not keys or keys.count(min(keys)) == 1) and not any(
            cancels(x, period[(i + 1) % len(period)])
            for i, x in enumerate(period))
        if meets:
            got = cyclic_word_from_period(ab, period, keys, power)
            want = CyclicWord(Word(ab, period * power))
            assert got == want and got.letters == want.letters, period
            kept += 1
        else:
            with pytest.raises(ValueError):
                cyclic_word_from_period(ab, period, keys, power)
            raised += 1
    assert kept > 500 and raised > 500


def test_distinct_cyclic_words_keeps_first_of_each_class():
    rng = random.Random(45)
    ab = Alphabet(["a", "b", "c"], involutive=False)
    bases = [Word(ab, [(rng.choice(ab.symbols), rng.choice((1, -1)))
                       for _ in range(rng.randint(1, 6))]) for _ in range(30)]
    words = []
    for _ in range(300):
        w = rng.choice(bases)
        if rng.random() < 0.5:
            w = w.inverse()
        r = rng.randrange(len(w) or 1)
        words.append(Word(ab, w.letters[r:] + w.letters[:r]))

    def conjugates(w):
        c = cyclic_reduce(ab, w.letters)
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
        w = Word(ab, random_letters(rng, ab, rng.randint(0, 8)))
        for k in range(-3, 4):
            want = Word(ab)
            for _ in range(abs(k)):
                want = want * (w if k > 0 else w.inverse())
            assert w ** k == want, (w, k)


def test_complexity():
    ab = Alphabet(["a", "b", "c"], involutive=True)
    assert complexity(word(ab, [])) == 0
    assert complexity(word(ab, ["a", "b", "c", "a", "b"])) == 5
    assert complexity(word(ab, ["a", "b", "b", "a", "c"])) == 1


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
        u = Word(ab, raw)
        # padding with squares anywhere leaves the normal form unchanged
        t = rng.randint(0, len(raw))
        s = rng.choice(ab.symbols)
        padded = raw[:t] + [(s, 1), (s, 1)] + raw[t:]
        assert Word(ab, padded) == u


# ---------------------------------------------------------------------------
# the one-pass reader and the table-driven reduction


def test_reduce_raises_after_table_filled():
    for invol in (True, False):
        ab = Alphabet(["a", "b"], involutive=invol)
        assert reduce_letters(ab, [("a", 1), ("b", -1), ("a", -1)])
        filled = dict(ab.letter_table)
        assert filled
        with pytest.raises(UnknownSymbolError):
            reduce_letters(ab, [("a", 1), ("c", 1)])
        for bad in (2, 0, -2):
            with pytest.raises(ValueError, match="sign must be"):
                reduce_letters(ab, [("a", 1), ("b", 1), ("a", bad)])
        # a letter that fails validation is never entered
        assert ab.letter_table == filled
        with pytest.raises(ValueError, match="sign must be"):
            reduce_letters(ab, [("a", 2)])


def test_involutive_and_free_tables_apart():
    inv = Alphabet(["a", "b"], involutive=True)
    free = Alphabet(["a", "b"], involutive=False)
    letters = [("a", 1), ("a", 1), ("b", 1), ("b", -1)]
    for _ in range(2):
        assert reduce_letters(inv, letters) == ()
        assert reduce_letters(free, letters) == (("a", 1), ("a", 1))
    assert inv.letter_table is not free.letter_table
    assert inv.letter_table[("b", -1)] == (("b", 1), ("b", 1))
    assert free.letter_table[("b", -1)] == (("b", -1), ("b", 1))
    # an equal alphabet has a table of its own
    assert Alphabet(["a", "b"]).letter_table == {}


def test_letters_as_lists_reduce():
    for invol in (False, True):
        ab = Alphabet(["x", "y"], involutive=invol)
        # list letters alone, after their tuples were entered, and before
        for letters in ([["x", 1], ["y", -1], ["y", 1], ["x", 1]],
                        [("x", 1), ["x", -1], ["y", 1], ("y", -1)],
                        [["y", 1], ["y", 1], ("x", -1), ["x", 1]]):
            assert reduce_letters(ab, letters) == \
                old_reduce_letters(ab, letters), (invol, letters)
        assert word(ab, [("x", 1)]).letters == (("x", 1),)
        with pytest.raises(UnknownSymbolError):
            reduce_letters(ab, [["z", 1]])


def test_read_letters_matches_old_reader():
    rng = random.Random(6)
    pool = ["a", "g12", "g3^-1", "1", "b_1^-1", "x", "^-1", "g12^-1"]
    for _ in range(200):
        toks = [rng.choice(pool) for _ in range(rng.randint(0, 30))]
        text = "".join(t + rng.choice((" ", "\n", "\t", "  \n\n"))
                       for t in toks)
        letters, symbols = read_letters(text)
        assert letters == old_parse_letters(text), text
        assert symbols == list(old_token_alphabet(text, True).symbols)
    assert read_letters("") == ([], [])
    assert read_letters(" 1 \n\n 1") == ([], [])
