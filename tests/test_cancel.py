import collections
import random
import time
from fractions import Fraction

import pytest

from certificate_oracles import (_old_seam_match, best_overlap,
                                 old_dehn_reduce_syllables,
                                 old_inverse_letters, old_replacement_table,
                                 old_to_syllables)
from gnk.cancel import (_cancel_seam, _lcp, _leading_run, _max_overlap,
                        _replacement, _replacement_trie, _rotate, _seam_match,
                        _stack_pass, _symbol_runs, check_cp,
                        check_metric_condition, check_tq,
                        dehn_reduce_syllables, max_piece_prefixes,
                        symmetrise, syllable_length, to_syllables)
from gnk.words import (Alphabet, cyclic_reduce, inverse_letters,
                       reduce_letters)

FREE_XY = Alphabet(["x", "y"], involutive=False)
x, X, y, Y = ("x", 1), ("x", -1), ("y", 1), ("y", -1)
COMM = [x, y, X, Y]


def letters_of(R):
    """The elements of R_* as (symbol, sign) tuples, in their order."""
    return [R.alphabet.decode(r) for r in R.elements]


def _dehn(alphabet, letters, R):
    """``dehn_reduce_syllables`` of a word given as (symbol, sign) letters,
    run-length encoded by ``to_syllables`` as ``cancel dehn`` does."""
    return dehn_reduce_syllables(
        alphabet, to_syllables(alphabet, alphabet.encode(letters)), R)


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


def _shared_prefix_relators(prefix, length):
    """Two relators u B and u C of ``length`` letters, all symbols distinct
    but the shared prefix u of ``prefix`` letters: u and its subwords
    (and their inverses) are the only pieces, so the longest is u."""
    ab = Alphabet(["u%d" % i for i in range(prefix)]
                  + ["%s%d" % (t, i) for t in "bc"
                     for i in range(length - prefix)], involutive=False)
    u = [("u%d" % i, 1) for i in range(prefix)]
    return ab, [u + [("%s%d" % (t, i), 1) for i in range(length - prefix)]
                for t in "bc"]


@pytest.mark.parametrize("lam", [Fraction(1, 6), Fraction(1, 4),
                                 Fraction(1, 3)])
@pytest.mark.parametrize("length", [12, 24])
def test_metric_condition_is_strict_at_an_integer_bound(lam, length):
    # |u| < lambda |r| is strict: a piece of exactly lambda |r| letters
    # breaks C'(lambda), one letter shorter keeps it
    bound = int(lam * length)
    for prefix, holds in ((bound, False), (bound - 1, True)):
        ab, rels = _shared_prefix_relators(prefix, length)
        R = symmetrise(ab, rels)
        assert max(max_piece_prefixes(R).values()) == prefix
        verdict, witness = check_metric_condition(R, lam)
        assert verdict == holds
        assert (witness is None) == holds
        if witness:
            r, u = witness
            assert len(r) == length and len(u) == prefix == bound


def _metric_condition_by_fractions(R, lam):
    """C'(lambda) as it was decided before the integer test: pieces by
    comparing every pair of elements, one Fraction per element."""
    lam = Fraction(lam)
    bad = []
    for r in R.elements:
        n = max((_lcp(r, other) for other in R.elements if other != r),
                default=0)
        if n and not Fraction(n) < lam * len(r):
            bad.append((r, n))
    if not bad:
        return True, None
    r, n = min(bad, key=lambda rn: R.alphabet.decode(rn[0]))
    return False, (r, r[:n])


def test_metric_condition_matches_fraction_oracle():
    rng = random.Random(48)
    lams = [Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(2, 7),
            Fraction(1, 2), Fraction(1), Fraction(0), Fraction(-1, 5),
            "1/6", 0.25]
    verdicts = set()
    for t in range(120):
        ab = Alphabet(["x", "y", "z"][:2 + t % 2], involutive=t % 5 == 0)
        R = symmetrise(ab, _random_relators(rng, ab, 1 + t % 2, 3, 24))
        for lam in lams:
            got = check_metric_condition(R, lam)
            assert got == _metric_condition_by_fractions(R, lam), (t, lam)
            verdicts.add(got[0])
    assert verdicts == {True, False}


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


def _tq_by_chains(R, q):
    """T(q) by brute force: extend every chain r_1 .. r_l of elements, each
    beginning with the inverse of the last letter of the one before and
    none the inverse of the one before, up to length q - 1; T(q) fails when
    r_1 follows r_l in the same way at some length l >= 3."""
    ab = R.alphabet

    def follows(u, v):
        return v[0] == ab.inverse(u[-1]) and v != inverse_letters(ab, u)

    def closes(chain):
        if len(chain) >= 3 and follows(chain[-1], chain[0]):
            return True
        return len(chain) < q - 1 and any(
            closes(chain + [v]) for v in R.elements if follows(chain[-1], v))
    return not any(closes([r]) for r in R.elements)


@pytest.mark.parametrize("q", [4, 5, 6, 7])
def test_tq_matches_brute_force_chains(q):
    rng = random.Random(5)
    verdicts = set()
    for _ in range(200):
        size = rng.randint(2, 4)
        ab = Alphabet(["x%d" % s for s in range(size)], involutive=False)
        rels = [[(rng.choice(ab.symbols), rng.choice((1, -1)))
                 for _ in range(rng.randint(2, 5))]
                for _ in range(rng.randint(1, 2))]
        try:
            R = symmetrise(ab, rels)
        except ValueError:
            continue
        holds = check_tq(R, q)
        assert holds == _tq_by_chains(R, q), rels
        verdicts.add(holds)
    assert verdicts == {True, False}


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
    assert _dehn(FREE_XY, COMM + COMM, R).is_trivial()
    assert _dehn(FREE_XY, [y] + COMM + COMM + [Y], R).is_trivial()


def test_dehn_refuses_non_c16():
    ab = Alphabet(["a", "b"], involutive=False)
    r1 = [("a", 1)] * 3 + [("b", 1)]
    r2 = [("a", 1)] * 3 + [("b", -1)]
    R = symmetrise(ab, [r1, r2])
    with pytest.raises(ValueError, match=r"presentation is not C'\(1/6\)"):
        _dehn(ab, r1, R)


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
        assert _dehn(FREE_XY, wordl, R).is_trivial(), wordl


def test_dehn_strictly_decreasing_steps():
    R = symmetrise(FREE_XY, [COMM + COMM])
    wordl = COMM + COMM + [x] + COMM + COMM + [X]
    res = _dehn(FREE_XY, wordl, R)
    assert res.is_trivial()
    assert len(res.trace.steps) <= len(wordl)


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
    res = _dehn(alphabet, letters, R)
    want, want_steps = oracle_dehn(alphabet, letters, R)
    assert res.is_trivial() == (syllable_length(want) == 0), letters
    if res.runs:
        assert res.trace.max_overlap_at_fixpoint == best_overlap(
            _symbol_runs(alphabet, res.runs), letters_of(R))[0], letters
    fix = tuple(c for c, n in res.runs for _ in range(n))
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
    # every element of R_* has a one-letter piece prefix and no longer one
    R = symmetrise(FREE_XY, [COMM + COMM])
    assert set(max_piece_prefixes(R).values()) == {1}


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
    """The trie holds one entry (s, k) per element s, its key the last
    k = |s| // 2 + 1 letters of s, and its entries give the reducing
    table's r and C^-1 at the keys of that length when they fire."""
    decode = alphabet.decode
    table = _trie_table(_replacement_trie(R.elements))
    assert sorted(s for s, _ in table.values()) == R.elements
    assert all(v == s[len(s) - k:] and k == len(s) // 2 + 1
               for v, (s, k) in table.items())
    replacements = {v: _replacement(alphabet, entry)
                    for v, entry in table.items()}
    assert {decode(v): (decode(r), _symbol_runs(alphabet, runs))
            for v, (r, runs) in replacements.items()
            } == {v: e for v, e in _reducing_replacement_table(
                alphabet, letters_of(R)).items()
                  if len(v) == len(e[0]) // 2 + 1}


def test_replacement_table_equals_reducing_table():
    # seeded C'(1/6) sets, free and involutive, drawn at 12 to 48 letters
    # and kept when they still have 12 or more after reduction
    rng = random.Random(41)
    lengths = set()
    for t in range(24):
        ab = Alphabet(["g10", "g11", "g12", "g13", "a_{1,10}", "a_{2,11}"],
                      involutive=t % 2 == 1)
        R = _c16_presentation(rng, ab, 12 + t * 36 // 23)
        while len(R.elements[0]) < 12:
            R = _c16_presentation(rng, ab, 12 + t * 36 // 23)
        _check_replacement_table(ab, R)
        lengths.add(len(R.elements[0]))
    assert min(lengths) == 12 and max(lengths) > 40
    # a prefix shared by two elements is a piece of more than |r| / 6
    # letters, so no trie is built for such a set
    abc = Alphabet(["a", "b", "c"], involutive=False)
    R = symmetrise(abc, [[("b", 1), ("a", -1), ("a", -1)],
                         [("b", -1), ("b", 1), ("b", 1), ("a", -1)]])
    with pytest.raises(ValueError, match="not C'"):
        dehn_reduce_syllables(abc, [("a", 1)], R)


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


def _overlap(alphabet, sylls, R):
    """``_max_overlap`` of (symbol, exponent) runs, on the trie that
    ``dehn_reduce_syllables`` builds for R."""
    return _max_overlap(code_runs(alphabet, sylls),
                        _replacement_trie(R.elements),
                        max(_leading_run(r) for r in R.elements))


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
        assert _overlap(ab, runs, R) == \
            best_overlap(runs, letters_of(R))[0], (rels, runs)


def test_max_overlap_matches_scan_on_random_fixpoints():
    rng = random.Random(44)
    R = symmetrise(FREE_XY, [COMM + COMM])
    for _ in range(20):
        sylls = _random_cyclic_runs(rng, ["x", "y"], rng.randint(2, 200),
                                    2000)
        res = dehn_reduce_syllables(FREE_XY, sylls, R)
        assert res.runs
        assert res.trace.max_overlap_at_fixpoint == best_overlap(
            _symbol_runs(FREE_XY, res.runs), letters_of(R))[0]


def test_max_overlap_criterion6_runs():
    R = symmetrise(FREE_XY, [COMM + COMM])
    sylls = [("x", 1000), ("y", 1000), ("x", -1000), ("y", -1000)] * 1000
    assert _overlap(FREE_XY, sylls, R) == \
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
    assert _symbol_runs(alphabet, res.runs) == runs, sylls
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


def _reduced_relator(rng, ab, length):
    """A cyclically reduced relator of exactly ``length`` letters."""
    while True:
        r = []
        while len(r) < length:
            s = rng.choice(ab.symbols)
            e = 1 if ab.involutive else rng.choice((1, -1))
            if not r or (r[-1][0] != s if ab.involutive else r[-1] != (s, -e)):
                r.append((s, e))
        # freely reduced as built; the ends may still cancel
        if len(cyclic_reduce(ab, ab.encode(r))) == length:
            return r


@pytest.mark.parametrize("length", [36, 48])
def test_dehn_stack_matches_old_stack_on_long_relators(length):
    # the trie's entries are formed into r and C^-1 only when they fire:
    # runs, steps (offset, r, |V|) and the overlap match the old stack,
    # whose table formed every entry up front
    rng = random.Random(length)
    verdicts = set()
    for involutive in (False, True):
        ab = Alphabet(["g10", "g11", "g12", "a_{1,10}"], involutive=involutive)
        while True:
            R = symmetrise(ab, [_reduced_relator(rng, ab, length)])
            if check_metric_condition(R, Fraction(1, 6))[0]:
                break
        assert {len(r) for r in R.elements} == {length}
        _check_replacement_table(ab, R)
        for t in range(12):
            w = _conjugate_product(rng, ab, R, rng.randint(length, 400))
            for _ in range(t % 3):
                w.insert(rng.randrange(len(w) + 1),
                         (rng.choice(ab.symbols), rng.choice((1, -1))))
            res = _check_against_old_stack(ab, R, old_to_syllables(ab, w))
            verdicts.add((involutive, res.is_trivial()))
    assert verdicts == {(False, True), (False, False), (True, True),
                        (True, False)}


def test_dehn_stack_criterion6_certificate():
    R = symmetrise(FREE_XY, [COMM + COMM])
    sylls = [("x", 1000), ("y", 1000), ("x", -1000), ("y", -1000)] * 1000
    res = _check_against_old_stack(FREE_XY, R, sylls)
    assert (res.is_trivial(), res.trace.max_overlap_at_fixpoint,
            len(res.trace.steps)) == (False, 2, 0)


def _c16_set(rng, ab, lengths):
    """R_* of seeded cyclically reduced relators that is C'(1/6); the
    relators' lengths are drawn anew by ``lengths()`` on each try."""
    while True:
        rels = [_reduced_relator(rng, ab, n) for n in lengths()]
        try:
            R = symmetrise(ab, rels)
        except ValueError:
            continue
        if check_metric_condition(R, Fraction(1, 6))[0]:
            return R


def test_stack_pass_fires_only_shortest_keys():
    # the trie keeps one key per element, its |r| // 2 + 1 letters; the old
    # stack looks every prefix of more than half of an element up, longest
    # first, yet fires the same keys: before each push the stack has no
    # key as a factor, so a longer key's prefix one letter shorter would
    # have fired a push earlier.  Rotations put conjugates across the seam
    rng = random.Random(6)
    sets = collections.Counter()
    steps = 0
    for t in range(16):
        involutive, count = t % 2 == 1, 1 + t // 2 % 2
        ab = Alphabet(["a", "b", "c", "d", "e"], involutive=involutive)
        R = _c16_set(rng, ab, lambda: [rng.randint(12, 30)
                                       for _ in range(count)])
        sets[involutive, count] += 1
        for i in range(10):
            w = _conjugate_product(rng, ab, R, rng.randint(10, 300))
            for _ in range(i % 3):
                w.insert(rng.randrange(len(w) + 1), (
                    rng.choice(ab.symbols), rng.choice((1, -1))))
            cut = rng.randrange(len(w))
            res = _check_against_old_stack(ab, R, w[cut:] + w[:cut])
            assert all(k == len(r) // 2 + 1 for _, r, k in res.trace.steps)
            steps += len(res.trace.steps)
    assert set(sets) == {(False, 1), (False, 2), (True, 1), (True, 2)}
    assert steps > 500


def test_seam_match_at_key_lengths_matches_all_windows():
    # on stack-pass fixpoints, trying the key lengths alone finds the cut
    # that the old search of every window against every prefix of more
    # than half of an element finds: two relators of different lengths
    # give two key lengths, and short cyclic words, made of a key split by
    # the seam, have tail and head windows that overlap and are shorter
    # than the longer key
    rng = random.Random(53)
    seen = collections.Counter()

    def letters(count):
        return [(rng.choice(ab.symbols), rng.choice((1, -1)))
                for _ in range(count)]

    def check(w):
        """The cut of the fixpoint of the cyclic word w, after checking it
        against the old search; None if w reduces to nothing."""
        runs = _cancel_seam(ab, _stack_pass(
            ab, [(c, 1) for c in ab.encode(w)], trie, max_run, []))
        if not runs:
            return None
        cut = _seam_match(runs, trie, lengths)
        assert cut == _old_seam_match(_symbol_runs(ab, runs), table), w
        n = syllable_length(runs)
        seen[involutive, cut is not None, n < 2 * (10 - 1), n < 10] += 1
        if cut is not None:
            # the key across the seam fires first after the cut
            steps = []
            _stack_pass(ab, _rotate(runs, cut), trie, max_run, steps)
            seen[involutive, "key", steps[0][2]] += 1
        return n, cut

    for involutive in (False, True):
        ab = Alphabet(["g10", "g11", "g12", "g13", "a_{1,10}", "a_{2,11}"],
                      involutive=involutive)
        R = _c16_set(rng, ab, lambda: [13, 19])
        elements = letters_of(R)
        lengths = {len(r) // 2 + 1 for r in R.elements}
        assert lengths == {7, 10}
        table = old_replacement_table(ab, elements)
        trie = _replacement_trie(R.elements)
        max_run = max(_leading_run(r) for r in R.elements)
        for t in range(300):
            if t % 3:
                # a key, then 0 to 3 letters or 10 to 30, cut inside the key
                e = rng.choice(elements)
                w = list(e[:len(e) // 2 + 1]) + letters(
                    rng.randint(0, 3) if t % 3 == 1 else rng.randint(10, 30))
                cut = rng.randrange(1, len(e) // 2 + 1)
            else:
                w = _conjugate_product(rng, ab, R, rng.randint(10, 120))
                w.insert(rng.randrange(len(w) + 1), letters(1)[0])
                cut = rng.randrange(len(w))
            check(w[cut:] + w[:cut])
        # a 7-letter key a and a 10-letter key b across the seam that share
        # its two letters, a ending one letter into the head and b starting
        # one letter before its end: windows are tried by the letters they
        # take from the tail first, so b is found, not the shorter a
        for a in (e for e in elements if len(e) == 13):
            for b in (e for e in elements if len(e) == 19):
                if a[5:7] == b[:2] and check(list(b[1:10] + a[:6])) == (
                        15, (15 - 1 - (15 - 10) // 2) % 15):
                    seen[involutive, "b"] += 1
    for involutive in (False, True):
        assert seen[involutive, "key", 7] and seen[involutive, "key", 10]
        assert seen[involutive, "b"]
        assert seen[involutive, True, False, False] > 5
        assert seen[involutive, True, True, False] > 5
        assert seen[involutive, True, True, True] > 5
        assert seen[involutive, False, True, True] > 5
