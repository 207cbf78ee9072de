"""Alphabets as the symbol codec: one key per symbol, unique names, and
one token grammar, read and written only in ``gnk.words``."""

import ast
import itertools
import random
from pathlib import Path

import pytest

from gnk.braids import (DottedGroup, ParityGroup, PureBraidWord, format_braid,
                        parse_braid)
from gnk.gamma import Gamma4Group, GammaGroup, dihedral_canonical
from gnk.gnk import GnkGroup
from gnk.words import Word, format_word, parse_word, read_text, word_from_keys

ROOT = Path(__file__).resolve().parent.parent


def families(n):
    """(alphabet, its keys in declared order) for every keyed family."""
    labels = tuple(range(1, n + 1))
    pairs = list(itertools.combinations(labels, 2))
    quads = [q for a, b, c, d in itertools.combinations(labels, 4)
             for q in ((a, b, c, d), (a, b, d, c), (a, c, b, d))]
    yield GnkGroup(n, 2).alphabet, pairs
    yield GnkGroup(n, 3).alphabet, list(itertools.combinations(labels, 3))
    yield Gamma4Group(n).alphabet, quads
    for k in (4, 5):
        g = GammaGroup(n, k)
        yield g.alphabet, g.splits
    yield ParityGroup(labels).alphabet, [(ij, e) for ij in pairs for e in (0, 1)]
    yield DottedGroup(labels).alphabet, pairs + list(labels)


def name(alphabet, key):
    """Printed name of the letter with the given key."""
    return format_word(word_from_keys(alphabet, [key]))


@pytest.mark.parametrize("n", [5, 9, 10, 12])
def test_every_family_round_trips_through_its_keys(n):
    rng = random.Random(n)
    for alphabet, keys in families(n):
        assert list(alphabet.keys) == keys
        assert len(set(alphabet.symbols)) == len(keys)
        for s, key in zip(alphabet.symbols, keys):
            assert word_from_keys(alphabet, [key]).keys() == [key]
            assert name(alphabet, key) == s
        # seeded random words, the empty one first, through their text
        step = 2 if alphabet.involutive else 1
        for length in (0, 1, 2, 5, 12, 40):
            w = Word(alphabet, [rng.randrange(0, 2 * len(alphabet), step)
                                for _ in range(length)])
            assert parse_word(alphabet, format_word(w)) == w
        assert format_word(Word(alphabet)) == "1"
    assert all(q == dihedral_canonical(q) for q in Gamma4Group(n).alphabet.keys)
    if n in (5, 12):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for length in (0, 1, 2, 5, 12, 40):
            b = PureBraidWord(n, [(rng.choice(pairs), rng.choice((1, -1)))
                                  for _ in range(length)])
            assert parse_braid(n, format_braid(b)) == b
        assert format_braid(PureBraidWord(n)) == "1"


def test_read_text_round_trips_every_text_it_accepts():
    # tokens glued from the identity, the inverse suffix, two symbols and
    # pieces of them; a text is refused, or read, printed and read back
    pieces = ["1", "^-1", "a", "b_1", "-1", "_1"]
    rng = random.Random(38)
    read = refused = 0
    for _ in range(600):
        toks = ["".join(rng.choice(pieces) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(0, 6))]
        text = "".join(t + rng.choice((" ", "\n", "\t")) for t in toks)
        for invol in (True, False):
            try:
                w = Word(*read_text(text, invol))
            except ValueError as exc:
                assert str(exc).startswith("letter "), exc
                assert str(exc).split("'")[1] in toks, (text, exc)
                refused += 1
                continue
            read += 1
            again = Word(*read_text(format_word(w), invol))
            assert again.letters == w.letters, (text, format_word(w))
    assert (read, refused) == (934, 266)


def _grammar_uses(tree):
    """(line, what) of each string constant "1" and each argument-less
    ``.split()`` in a module's tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value == "1":
            found.append((node.lineno, '"1"'))
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "split"
                and not node.args and not node.keywords):
            found.append((node.lineno, ".split()"))
    return sorted(found)


def test_token_grammar_only_in_words():
    # the identity token and the whitespace split are the token grammar's
    found = []
    for path in sorted((ROOT / "src" / "gnk").glob("*.py")):
        if path.name != "words.py":
            found += ["%s:%d: %s" % (path.name, line, what) for line, what
                      in _grammar_uses(ast.parse(path.read_text()))]
    assert not found, "token grammar outside gnk.words: %s" % found


def test_grammar_scan_sees_each_use():
    src = ("x = w or '1'\n"
           "t = text.split()\n"
           "u = text.split(',') + text.split(sep=None)\n"
           "v = 1 + len('11')\n")
    assert _grammar_uses(ast.parse(src)) == [(1, '"1"'), (2, ".split()")]


def test_literal_names():
    labels = tuple(range(1, 13))
    g3 = GnkGroup(12, 3).alphabet
    assert name(g3, (1, 2, 3)) == "a_123"
    assert name(g3, (1, 10, 11)) == "a_{1,10,11}"
    g4 = Gamma4Group(12).alphabet
    assert name(g4, (1, 2, 4, 3)) == "d_1243"
    assert name(g4, (1, 2, 11, 10)) == "d_{1,2,11,10}"
    g5 = GammaGroup(12, 5).alphabet
    assert name(g5, ((1, 2), (3, 4, 5))) == "a_12,345"
    assert name(g5, ((1, 10), (3, 4, 5))) == "a_{1,10},345"
    pg = ParityGroup(labels).alphabet
    assert name(pg, ((1, 2), 1)) == "a_12^1"
    assert name(pg, ((2, 11), 0)) == "a_{2,11}^0"
    dg = DottedGroup(labels).alphabet
    assert name(dg, 3) == "t_3"
    assert name(dg, 11) == "t_11"
    assert name(dg, (1, 12)) == "a_{1,12}"
