"""Alphabets as the symbol codec: one key per symbol, unique names."""

import itertools

import pytest

from gnk.braids import DottedGroup, ParityGroup
from gnk.gamma import Gamma4Group, GammaGroup, dihedral_canonical
from gnk.gnk import GnkGroup
from gnk.words import format_word, word_from_keys


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
    for alphabet, keys in families(n):
        assert list(alphabet.keys) == keys
        assert len(set(alphabet.symbols)) == len(keys)
        for s, key in zip(alphabet.symbols, keys):
            assert word_from_keys(alphabet, [key]).keys() == [key]
            assert name(alphabet, key) == s
    assert all(q == dihedral_canonical(q) for q in Gamma4Group(n).alphabet.keys)


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
