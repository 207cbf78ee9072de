import random
import time
from fractions import Fraction

import pytest

from certificate_oracles import (best_overlap, old_dehn_reduce_syllables,
                                 old_inverse_letters, old_to_syllables)
from gnk.cancel import (PresentationNotC16, _lcp, _max_overlap,
                        _replacement_trie, _symbol_runs, check_cp,
                        check_metric_condition, check_tq, dehn_reduce,
                        dehn_reduce_syllables, max_piece_prefixes,
                        piece_table, symmetrise, syllable_length,
                        to_syllables)
from gnk.words import Alphabet, cyclic_reduce, reduce_letters

FREE_XY = Alphabet(["x", "y"], involutive=False)
x, X, y, Y = ("x", 1), ("x", -1), ("y", 1), ("y", -1)
COMM = [x, y, X, Y]


def letters_of(R):
    """The elements of R_* as (symbol, sign) tuples, in their order."""
    return [R.alphabet.decode(r) for r in R.elements]


def code_runs(alphabet, sylls):
    """(code, count) runs of (symbol, exponent) runs."""
    codes = alphabet.encode((s, 1 if e > 0 else -1) for s, e in sylls)
    return [(c, abs(e)) for c, (_, e) in zip(codes, sylls)]


def reduces_to_nothing(alphabet, letters):
    return not cyclic_reduce(alphabet, reduce_letters(
        alphabet, alphabet.encode(letters)))


def test_symmetrise_abc():
    ab = Alphabet(["a", "b", "c"], involutive=False)
    R = symmetrise(ab, [[("a", 1), ("b", 1), ("c", 1)]])
    assert len(R) == 6


def test_symmetrise_commutator_squared():
    # (xyx^-1y^-1)^2 has period 4, so the deduplicated closure has
    # 4 rotations of the relator plus 4 of its inverse
    R = symmetrise(FREE_XY, [COMM + COMM])
    assert len(R) == 8


def test_symmetrise_power_dedup():
    ab = Alphabet(["a"], involutive=False)
    R = symmetrise(ab, [[("a", 1), ("a", 1)]])
    assert set(letters_of(R)) == {(("a", 1), ("a", 1)),
                                  (("a", -1), ("a", -1))}


def test_symmetrise_idempotent():
    R = symmetrise(FREE_XY, [COMM + COMM])
    R2 = symmetrise(FREE_XY, letters_of(R))
    assert R2.elements == R.elements


def test_symmetrise_rejects_trivial():
    with pytest.raises(ValueError):
        symmetrise(FREE_XY, [[x, X]])


def test_metric_condition_commutator():
    R = symmetrise(FREE_XY, [COMM + COMM])
    holds, witness = check_metric_condition(R, Fraction(1, 6))
    assert holds and witness is None
    assert max(max_piece_prefixes(R).values()) == 1


def test_metric_condition_monotone_in_lambda():
    R = symmetrise(FREE_XY, [COMM + COMM])
    results = [check_metric_condition(R, lam)[0]
               for lam in (Fraction(1, 12), Fraction(1, 8), Fraction(1, 6),
                           Fraction(1, 2), Fraction(1))]
    assert results == sorted(results)     # once true, stays true


def test_metric_condition_failure_witness():
    ab = Alphabet(["a", "b"], involutive=False)
    # two relators sharing the long prefix a a a b
    r1 = [("a", 1)] * 3 + [("b", 1)]
    r2 = [("a", 1)] * 3 + [("b", -1)]
    R = symmetrise(ab, [r1, r2])
    holds, witness = check_metric_condition(R, Fraction(1, 6))
    assert not holds
    assert witness is not None


def test_single_relator_no_self_overlap_vacuous():
    ab = Alphabet(["a", "b"], involutive=False)
    R = symmetrise(ab, [[("a", 1), ("b", 1)]])
    # pieces may be empty; any positive lambda passes
    assert check_metric_condition(R, Fraction(1, 100))[0]


def test_t3_always_holds():
    rng = random.Random(33)
    ab = Alphabet(["a", "b", "c"], involutive=False)
    for _ in range(20):
        rels = []
        for _ in range(rng.randint(1, 3)):
            w = [(rng.choice(ab.symbols), rng.choice((1, -1)))
                 for _ in range(rng.randint(2, 6))]
            try:
                rels.append(w)
                R = symmetrise(ab, rels)
            except ValueError:
                rels.pop()
        if not rels:
            continue
        R = symmetrise(ab, rels)
        assert check_tq(R, 3)


def test_c_prime_implies_cp():
    rng = random.Random(34)
    ab = Alphabet(["a", "b", "c"], involutive=False)
    done = 0
    while done < 50:
        w = [(rng.choice(ab.symbols), rng.choice((1, -1)))
             for _ in range(rng.randint(4, 12))]
        try:
            R = symmetrise(ab, [w])
        except ValueError:
            continue
        for n in (2, 3, 4, 5, 6):
            if check_metric_condition(R, Fraction(1, n))[0]:
                assert check_cp(R, n + 1), (w, n)
        done += 1


def _piece_length_at(R, r, pos):
    """Brute force: longest piece that is a factor of r starting at pos."""
    rot = r[pos:] + r[:pos]
    best = 0
    for other in R.elements:
        if other != rot:
            best = max(best, _lcp(rot, other))
    return min(best, len(r) - pos)


def _check_cp_brute(R, p):
    for r in R.elements:
        jumps = [_piece_length_at(R, r, pos) for pos in range(len(r))]
        pos = count = 0
        while pos < len(r) and jumps[pos]:
            pos += jumps[pos]
            count += 1
        if pos == len(r) and count < p:
            return False
    return True


def test_cp_matches_brute_force_jumps():
    rng = random.Random(36)
    verdicts = set()
    for t in range(120):
        ab = Alphabet(["a", "b", "c"][:2 + t % 2], involutive=t % 5 == 0)
        rels = []
        for _ in range(1 + t % 3):
            w = [(rng.choice(ab.symbols), rng.choice((1, -1)))
                 for _ in range(rng.randint(3, 10))]
            if not reduces_to_nothing(ab, w):
                rels.append(w)
        if not rels:
            continue
        R = symmetrise(ab, rels)
        for p in range(2, 7):
            want = _check_cp_brute(R, p)
            assert check_cp(R, p) == want, (rels, p)
            verdicts.add(want)
    assert verdicts == {True, False}


def test_cp_small_relator():
    ab = Alphabet(["a", "b"], involutive=False)
    R = symmetrise(ab, [[("a", 1), ("b", 1)]])
    assert check_cp(R, 2)


def test_dehn_relator_and_conjugate_trivial():
    R = symmetrise(FREE_XY, [COMM + COMM])
    w, tr = dehn_reduce(FREE_XY, COMM + COMM, R)
    assert len(w) == 0
    w2, _ = dehn_reduce(FREE_XY, [y] + COMM + COMM + [Y], R)
    assert len(w2) == 0


def test_dehn_refuses_non_c16():
    ab = Alphabet(["a", "b"], involutive=False)
    r1 = [("a", 1)] * 3 + [("b", 1)]
    r2 = [("a", 1)] * 3 + [("b", -1)]
    R = symmetrise(ab, [r1, r2])
    with pytest.raises(PresentationNotC16):
        dehn_reduce(ab, r1, R)


def test_dehn_big_certificate():
    R = symmetrise(FREE_XY, [COMM + COMM])
    sylls = [("x", 1000), ("y", 1000), ("x", -1000), ("y", -1000)] * 1000
    t0 = time.time()
    res = dehn_reduce_syllables(FREE_XY, sylls, R)
    elapsed = time.time() - t0
    assert res.letter_count == 4000000
    assert not res.is_trivial()
    assert res.trace.max_overlap_at_fixpoint == 2
    assert res.trace.max_overlap_at_fixpoint <= res.trace.half_threshold
    assert elapsed < 5.0


def test_dehn_random_conjugated_relator_products():
    rng = random.Random(35)
    R = symmetrise(FREE_XY, [COMM + COMM])
    elems = letters_of(R)
    for _ in range(200):
        wordl = []
        for _ in range(rng.randint(1, 4)):
            g = [(rng.choice(["x", "y"]), rng.choice((1, -1)))
                 for _ in range(rng.randint(0, 3))]
            r = list(rng.choice(elems))
            wordl += g + r + [(s, -e) for s, e in reversed(g)]
        w, tr = dehn_reduce(FREE_XY, wordl, R)
        assert len(w) == 0, wordl


def test_dehn_strictly_decreasing_steps():
    R = symmetrise(FREE_XY, [COMM + COMM])
    wordl = COMM + COMM + [x] + COMM + COMM + [X]
    w, tr = dehn_reduce(FREE_XY, wordl, R)
    assert len(w) == 0
    assert len(tr.steps) <= len(wordl)


# ---------------------------------------------------------------------------
# the greedy reducer the stack pass replaced, kept as the test oracle


def _oracle_normalise(alphabet, sylls):
    """Merge runs, cancel, and cyclically reduce a run list."""
    out = []
    for sym, exp in sylls:
        if alphabet.involutive:
            exp = abs(exp) % 2
        if exp == 0:
            continue
        if out and out[-1][0] == sym:
            merged = 0 if alphabet.involutive else out[-1][1] + exp
            out.pop()
            if merged:
                out.append((sym, merged))
        else:
            out.append((sym, exp))
    while len(out) >= 2 and out[0][0] == out[-1][0]:
        merged = 0 if alphabet.involutive else out[0][1] + out[-1][1]
        if merged:
            out = [(out[0][0], merged)] + out[1:-1]
            break
        out = out[1:-1]
    return out


def _from_syllables(sylls):
    out = []
    for s, e in sylls:
        out.extend([(s, 1 if e > 0 else -1)] * abs(e))
    return tuple(out)


def oracle_dehn(alphabet, letters, R):
    """Greedy Dehn reduction: the longest factor matching more than half of
    an element of R_* first, ties leftmost; the whole word is rescanned
    after every replacement.  Returns (fixpoint runs, steps)."""
    elements = letters_of(R)
    sylls = _oracle_normalise(alphabet, old_to_syllables(alphabet, letters))
    steps = []
    while syllable_length(sylls):
        length, pos, rel = best_overlap(sylls, elements)
        if rel is None or length <= len(rel) // 2:
            break
        flat = _from_syllables(sylls)
        doubled = flat + flat
        new_flat = (old_inverse_letters(alphabet, rel[length:])
                    + doubled[pos + length:pos + len(flat)])
        steps.append((pos, rel, length))
        sylls = _oracle_normalise(alphabet,
                                  old_to_syllables(alphabet, new_flat))
    return sylls, steps


def _conjugate_product(rng, alphabet, R, length):
    """Product of conjugates g r g^-1 (r in R_*, |g| <= 3): trivial."""
    w = []
    elements = letters_of(R)
    while len(w) < length:
        g = [(rng.choice(alphabet.symbols), rng.choice((1, -1)))
             for _ in range(rng.randint(0, 3))]
        w += g + list(rng.choice(elements)) \
            + list(old_inverse_letters(alphabet, g))
    return w


def _check_against_oracle(alphabet, R, letters):
    """Same verdict as the oracle; the fixpoint is cyclically reduced and,
    by brute force over its cyclic factors, no factor is more than half of
    any element of R_*."""
    res = dehn_reduce_syllables(
        alphabet, to_syllables(alphabet, alphabet.encode(letters)), R)
    want, want_steps = oracle_dehn(alphabet, letters, R)
    assert res.is_trivial() == (syllable_length(want) == 0), letters
    if res.syllables:
        assert res.trace.max_overlap_at_fixpoint == best_overlap(
            res.syllables, letters_of(R))[0], letters
    fix = res.word().codes
    assert cyclic_reduce(alphabet, reduce_letters(alphabet, fix)) == fix
    doubled = fix + fix
    width = min(len(fix), max(len(r) for r in R.elements))
    for i in range(len(fix)):
        window = doubled[i:i + width]
        for r in R.elements:
            assert _lcp(window, r) <= len(r) // 2, (letters, fix, r)
    return res


def test_dehn_matches_oracle_commutator_squared():
    rng = random.Random(37)
    R = symmetrise(FREE_XY, [COMM + COMM])
    verdicts = set()
    for t in range(510):
        if t % 2 == 0:
            w = [(rng.choice("xy"), rng.choice((1, -1)))
                 for _ in range(rng.randint(1, 500))]
        else:
            # the oracle is quadratic in the steps a trivial word needs, so
            # these lengths lean short: up to 500, median about 30
            w = _conjugate_product(rng, FREE_XY, R,
                                   1 + int(499 * rng.random() ** 4))
            if t % 4 == 3:
                w.insert(rng.randrange(len(w) + 1),
                         (rng.choice("xy"), rng.choice((1, -1))))
        verdicts.add(_check_against_oracle(FREE_XY, R, w).is_trivial())
    assert verdicts == {True, False}


def test_dehn_matches_oracle_one_relator():
    rng = random.Random(38)
    ab = Alphabet(["x", "y", "z"], involutive=False)
    presentations = 0
    while presentations < 4:
        r = [(rng.choice(ab.symbols), rng.choice((1, -1))) for _ in range(24)]
        try:
            R = symmetrise(ab, [r])
        except ValueError:
            continue
        if not check_metric_condition(R, Fraction(1, 6))[0]:
            continue
        presentations += 1
        _check_replacement_table(ab, R)
        # each half-plus-one prefix as a cyclic word: some end inside a run
        for e in letters_of(R):
            _check_against_oracle(ab, R, list(e[:len(e) // 2 + 1]))
        for _ in range(4):
            w = _conjugate_product(rng, ab, R, rng.randint(24, 200))
            _check_against_oracle(ab, R, w)
            for extra in ab.symbols:
                _check_against_oracle(ab, R, w + [(extra, 1)])


def test_dehn_matches_oracle_involutive():
    rng = random.Random(39)
    ab = Alphabet(["a", "b", "c", "d"], involutive=True)
    while True:
        r = [(rng.choice(ab.symbols), 1) for _ in range(16)]
        try:
            R = symmetrise(ab, [r])
        except ValueError:
            continue
        if check_metric_condition(R, Fraction(1, 6))[0]:
            break
    _check_replacement_table(ab, R)
    for t in range(60):
        w = _conjugate_product(rng, ab, R, rng.randint(16, 200))
        if t % 2:
            w.insert(rng.randrange(len(w) + 1), (rng.choice(ab.symbols), 1))
        _check_against_oracle(ab, R, w)


def test_dehn_scaling_100k_letters():
    rng = random.Random(40)
    R = symmetrise(FREE_XY, [COMM + COMM])
    w = _conjugate_product(rng, FREE_XY, R, 100000)
    t0 = time.time()
    res = dehn_reduce_syllables(FREE_XY, to_syllables(
        FREE_XY, FREE_XY.encode(w)), R)
    elapsed = time.time() - t0
    assert res.is_trivial() and res.trace.steps
    assert elapsed < 5.0


def test_piece_table_contents():
    R = symmetrise(FREE_XY, [COMM + COMM])
    pieces = piece_table(R)
    assert all(len(p) == 1 for p in pieces)


def test_symmetrise_involutive_alphabet():
    ab = Alphabet(["a", "b", "c"], involutive=True)
    # (abc)^2 over involutions: inverse equals reversal
    rel = [("a", 1), ("b", 1), ("c", 1)] * 2
    R = symmetrise(ab, [rel])
    assert all(len(r) == 6 for r in R.elements)
    holds, _ = check_metric_condition(R, Fraction(1, 2))
    assert isinstance(holds, bool)


# ---------------------------------------------------------------------------
# the replacement table and the overlap statistic against their oracles


def _reducing_replacement_table(alphabet, rel_elems):
    """The replacement table built as before: each C^-1 reduced again on
    its way to runs."""
    table = {}
    for r in rel_elems:
        for k in range(len(r) // 2 + 1, len(r) + 1):
            if r[:k] not in table:
                table[r[:k]] = (r, old_to_syllables(
                    alphabet, old_inverse_letters(alphabet, r[k:])))
    return table


def _random_relators(rng, ab, count, lo, hi):
    rels = []
    while len(rels) < count:
        w = [(rng.choice(ab.symbols), rng.choice((1, -1)))
             for _ in range(rng.randint(lo, hi))]
        if not reduces_to_nothing(ab, w):
            rels.append(w)
    return rels


def _trie_table(trie, key=()):
    """{key: entry} of a trie of keys read last letter first."""
    table = {}
    for c, child in trie.items():
        if c is None:
            table[key] = child
        else:
            table.update(_trie_table(child, (c,) + key))
    return table


def _check_replacement_table(alphabet, R):
    decode = alphabet.decode
    assert {decode(v): (decode(r), _symbol_runs(alphabet, runs))
            for v, (r, runs)
            in _trie_table(_replacement_trie(alphabet, R.elements)).items()
            } == _reducing_replacement_table(alphabet, letters_of(R))


def _presentations():
    """The presentations of this file's tests, but for the random ones of
    the Dehn oracle tests, which check their tables themselves; then seeded
    random ones of the same kinds: free and involutive, one to three
    relators."""
    abc = Alphabet(["a", "b", "c"], involutive=False)
    ab = Alphabet(["a", "b"], involutive=False)
    yield FREE_XY, [COMM + COMM]
    yield abc, [[("a", 1), ("b", 1), ("c", 1)]]
    yield Alphabet(["a"], involutive=False), [[("a", 1), ("a", 1)]]
    yield ab, [[("a", 1)] * 3 + [("b", 1)], [("a", 1)] * 3 + [("b", -1)]]
    yield ab, [[("a", 1), ("b", 1)]]
    # a prefix shared by two elements, where the element that wins it does
    # not come first among the elements whose backward walks meet it
    yield abc, [[("b", 1), ("a", -1), ("a", -1)],
                [("b", -1), ("b", 1), ("b", 1), ("a", -1)]]
    yield (Alphabet(["a", "b", "c"], involutive=True),
           [[("a", 1), ("b", 1), ("c", 1)] * 2])
    rng = random.Random(41)
    for t in range(60):
        alphabet = Alphabet(["x", "y", "z"][:2 + t % 2], involutive=t % 5 == 0)
        yield alphabet, _random_relators(rng, alphabet, 1 + t % 3, 3, 24)


def test_replacement_table_equals_reducing_table():
    for alphabet, rels in _presentations():
        _check_replacement_table(alphabet, symmetrise(alphabet, rels))


def _random_cyclic_runs(rng, symbols, count, longest):
    """At most ``count`` runs, neighbours (the last and the first too) of
    distinct symbols, with exponents up to ``longest`` in size."""
    runs = []
    while len(runs) < count:
        s = rng.choice(symbols)
        if not runs or s != runs[-1][0]:
            runs.append((s, rng.choice((1, -1)) * rng.randint(1, longest)))
    if len(runs) > 1 and runs[-1][0] == runs[0][0]:
        runs.pop()
    return runs


def test_max_overlap_matches_scan_on_random_runs():
    # relators with long leading runs make starts inside a run matter, and
    # short words make the walk wrap around the cyclic word
    rng = random.Random(43)
    for t in range(300):
        ab = Alphabet(["x", "y", "z"][:2 + t % 2], involutive=False)
        rels = []
        for _ in range(1 + t % 3):
            r = []
            for _ in range(rng.randint(1, 4)):
                r += [(rng.choice(ab.symbols), rng.choice((1, -1)))] \
                    * rng.randint(1, 4)
            if not reduces_to_nothing(ab, r):
                rels.append(r)
        if not rels:
            continue
        R = symmetrise(ab, rels)
        runs = _random_cyclic_runs(rng, ab.symbols, rng.randint(1, 12),
                                   rng.choice((1, 3, 9)))
        assert _max_overlap(code_runs(ab, runs), R.elements) == \
            best_overlap(runs, letters_of(R))[0], (rels, runs)


def test_max_overlap_matches_scan_on_random_fixpoints():
    rng = random.Random(44)
    R = symmetrise(FREE_XY, [COMM + COMM])
    for _ in range(20):
        sylls = _random_cyclic_runs(rng, ["x", "y"], rng.randint(2, 200),
                                    2000)
        res = dehn_reduce_syllables(FREE_XY, sylls, R)
        assert res.syllables
        assert res.trace.max_overlap_at_fixpoint == best_overlap(
            res.syllables, letters_of(R))[0]


def test_max_overlap_criterion6_runs():
    R = symmetrise(FREE_XY, [COMM + COMM])
    sylls = [("x", 1000), ("y", 1000), ("x", -1000), ("y", -1000)] * 1000
    assert _max_overlap(code_runs(FREE_XY, sylls), R.elements) == \
        best_overlap(sylls, letters_of(R))[0] == 2


# ---------------------------------------------------------------------------
# the (code, count) stack and its suffix trie against the old stack


def _c16_presentation(rng, ab, length):
    while True:
        r = [(rng.choice(ab.symbols),
              1 if ab.involutive else rng.choice((1, -1)))
             for _ in range(length)]
        try:
            R = symmetrise(ab, [r])
        except ValueError:
            continue
        if check_metric_condition(R, Fraction(1, 6))[0]:
            return R


def _check_against_old_stack(alphabet, R, sylls):
    res = dehn_reduce_syllables(alphabet, sylls, R)
    runs, steps = old_dehn_reduce_syllables(alphabet, sylls, letters_of(R))
    assert res.syllables == runs, sylls
    assert [(size, alphabet.decode(rel), k)
            for size, rel, k in res.trace.steps] == steps, sylls
    assert res.trace.max_overlap_at_fixpoint == (
        best_overlap(runs, letters_of(R))[0] if runs else 0), sylls
    return res


def test_dehn_stack_matches_old_stack_at_labels_10():
    rng = random.Random(47)
    verdicts = set()
    for involutive in (False, True):
        ab = Alphabet(["g10", "g11", "g12", "a_{1,10}"], involutive=involutive)
        for _ in range(3):
            R = _c16_presentation(rng, ab, 16 if involutive else 24)
            for t in range(40):
                w = _conjugate_product(rng, ab, R, rng.randint(1, 300))
                for _ in range(t % 3):
                    w.insert(rng.randrange(len(w) + 1),
                             (rng.choice(ab.symbols), rng.choice((1, -1))))
                sylls = old_to_syllables(ab, w)
                if t % 4 == 0:
                    # runs as given, unreduced, some of them long
                    sylls = [(s, e * rng.randint(0, 9)) for s, e in
                             _random_cyclic_runs(rng, ab.symbols, 30, 3)]
                res = _check_against_old_stack(ab, R, sylls)
                verdicts.add((involutive, res.is_trivial()))
    assert verdicts == {(False, True), (False, False), (True, True),
                        (True, False)}


def test_dehn_stack_criterion6_certificate():
    R = symmetrise(FREE_XY, [COMM + COMM])
    sylls = [("x", 1000), ("y", 1000), ("x", -1000), ("y", -1000)] * 1000
    res = _check_against_old_stack(FREE_XY, R, sylls)
    assert (res.is_trivial(), res.trace.max_overlap_at_fixpoint,
            len(res.trace.steps)) == (False, 2, 0)
