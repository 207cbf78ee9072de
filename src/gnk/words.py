"""Word algebra over finitely presented alphabets.

Everything downstream (group elements, relators, invariant values) is a
``Word``: a freely reduced sequence of signed letters over an ``Alphabet``.
An alphabet is either involutive (every g^2 = 1) or free; involutive letters
are stored with sign +1 and adjacent equal involutive letters cancel, so the
square relation is structural rather than a rewrite rule.

Free products of Z_2 (all-involutive alphabets) therefore have a unique
normal form: two words are equal in the group iff they are letter-identical.

An alphabet is also the codec between symbol names and the index sets the
maps work on: each symbol has one key (a subset, a quad, a split, ...), and
maps read ``alphabet.key[symbol]`` and write ``alphabet.symbol[key]``, so
names are only formatted when an alphabet is built.

Text grammar: whitespace-separated tokens, ``^-1`` suffix for an inverse,
e.g. ``a_123 a_234^-1``.  ``read_letters`` reads each distinct token once;
``reduce_letters`` looks each letter up in a table the alphabet fills
lazily.  Parsing and printing round-trip exactly.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Tuple


class UnknownSymbolError(KeyError):
    """A letter does not belong to the word's alphabet."""


def labels_text(labels) -> str:
    """Label run of a symbol name: ``123`` when every label is <= 9, else
    ``{1,10,11}``."""
    if all(x <= 9 for x in labels):
        return "".join(str(x) for x in labels)
    return "{" + ",".join(str(x) for x in labels) + "}"


class Alphabet:
    """Finite ordered set of generator names, all involutive or all free.
    A name is any hashable value (PB_n's are the pairs (i, j)).

    ``symbols`` lists the names, or maps each name to its key.  A plain list
    keys each symbol by its position, so ``key`` and ``symbol`` are then the
    existing ``index`` and ``symbols`` tables.  The declared order of symbols
    is the canonical symbol order used for cyclic-word canonicalization and
    deterministic sorting.
    """

    def __init__(self, symbols, involutive=True):
        self.symbols = tuple(symbols)
        self.index = {s: i for i, s in enumerate(self.symbols)}
        if len(self.index) != len(self.symbols):
            raise ValueError("duplicate symbol names")
        self.involutive = bool(involutive)
        if isinstance(symbols, dict):
            self.key = dict(symbols)
            self.symbol = {k: s for s, k in symbols.items()}
            if len(self.symbol) != len(self.symbols):
                raise ValueError("duplicate symbol keys")
        else:
            self.key = self.index
            self.symbol = self.symbols
        # (symbol, sign) -> (letter as stored, its inverse), filled lazily
        self.letter_table = {}

    def __contains__(self, symbol):
        return symbol in self.index

    def __len__(self):
        return len(self.symbols)

    def __eq__(self, other):
        return self is other or (isinstance(other, Alphabet)
                                 and self.involutive == other.involutive
                                 and self.symbols == other.symbols)

    def __hash__(self):
        return hash((self.symbols, self.involutive))

    def __repr__(self):
        return "Alphabet(%d symbols)" % len(self.symbols)


def state_alphabet(dim: int, name) -> Alphabet:
    """Involutive alphabet of the 2^dim bit vectors in binary order, each
    named ``name(bits)``; a vector's key is its position (``state_key``)."""
    return Alphabet([name(x) for x in itertools.product((0, 1), repeat=dim)])


def state_key(bits) -> int:
    """Key of a bit vector in a ``state_alphabet``: the bits read as a
    binary number, most significant first."""
    key = 0
    for b in bits:
        key = 2 * key + b
    return key


Letter = Tuple[str, int]


def reduce_letters(alphabet: Alphabet, letters: Iterable[Letter]) -> tuple:
    """Freely reduce a raw letter sequence (stack pass, linear time).

    Adjacent g g^-1 cancel; for involutive g, adjacent g g cancel.  The
    result is the unique reduced form (cancellation is confluent).  Letters
    enter ``letter_table`` once validated and never change, so the top
    cancels exactly when it is the inverse object.
    """
    table = alphabet.letter_table
    out = []
    for letter in letters:
        try:
            norm, inv = table[letter]
        except (KeyError, TypeError):
            symbol, sign = letter
            if symbol not in alphabet.index:
                raise UnknownSymbolError(symbol)
            if sign != 1 and sign != -1:
                raise ValueError("sign must be +1 or -1")
            pos = (symbol, 1)
            if alphabet.involutive:
                table[symbol, sign] = table.setdefault(pos, (pos, pos))
            elif pos not in table:
                neg = (symbol, -1)
                table[pos], table[neg] = (pos, neg), (neg, pos)
            norm, inv = table[symbol, sign]
        if out and out[-1] is inv:
            out.pop()
        else:
            out.append(norm)
    return tuple(out)


def inverse_letters(alphabet: Alphabet, letters) -> tuple:
    """Formal inverse of a letter sequence: reversed, signs flipped."""
    if alphabet.involutive:
        return tuple(reversed(letters))
    return tuple((s, -e) for s, e in reversed(letters))


def cyclic_reduce(alphabet: Alphabet, letters) -> tuple:
    """Cyclically reduce a freely reduced sequence: cancel across the seam
    until the first and last letters no longer cancel."""
    lo, hi = 0, len(letters)
    while hi - lo >= 2:
        (s1, e1), (s2, e2) = letters[lo], letters[hi - 1]
        if s1 != s2 or not (alphabet.involutive or e1 == -e2):
            break
        lo += 1
        hi -= 1
    return tuple(letters[lo:hi])


class Word:
    """Freely reduced word; immutable and hashable."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: Iterable[Letter] = ()):
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", reduce_letters(alphabet, letters))

    def __setattr__(self, *a):
        raise AttributeError("Word is immutable")

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __bool__(self):
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if other.alphabet != self.alphabet:
            raise ValueError("alphabet mismatch")
        return Word(self.alphabet, self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(self.alphabet, inverse_letters(self.alphabet, self.letters))

    def __pow__(self, n: int) -> "Word":
        w = self if n >= 0 else self.inverse()
        return Word(self.alphabet, w.letters * abs(n))

    def __eq__(self, other):
        return (isinstance(other, Word) and self.alphabet == other.alphabet
                and self.letters == other.letters)

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return "Word(%s)" % (format_word(self) or "1")

    def symbol_counts(self) -> dict:
        counts = {}
        for s, _ in self.letters:
            counts[s] = counts.get(s, 0) + 1
        return counts


def least_rotation(seq, key=None) -> tuple:
    """Lexicographically least rotation of a sequence, as a tuple.

    Items compare by ``key(item)`` when a key is given; the key must be
    injective for the least rotation to be unique.  Linear time: two
    candidate starts are compared, and the loser skips past the run they
    share.
    """
    seq = tuple(seq)
    n = len(seq)
    ks = [key(x) for x in seq] if key else list(seq)
    ks += ks
    # start i never passes the first least start, so it ends on it
    i, j, t = 0, 1, 0
    while j < n and t < n:
        a, b = ks[i + t], ks[j + t]
        if a == b:
            t += 1
            continue
        if a > b:
            i += t + 1
        else:
            j += t + 1
        if i == j:
            j += 1
        t = 0
    return seq[i:] + seq[:i]


class CyclicWord:
    """Conjugacy-class key: cyclically reduced, rotation-canonical word.

    Canonical form = lexicographically least rotation under the alphabet's
    declared symbol order (inverse letters sort after positive ones).
    """

    __slots__ = ("alphabet", "letters")

    def __init__(self, word: Word):
        index = word.alphabet.index
        letters = least_rotation(
            cyclic_reduce(word.alphabet, word.letters),
            key=lambda letter: 2 * index[letter[0]] + (letter[1] != 1))
        object.__setattr__(self, "alphabet", word.alphabet)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, *a):
        raise AttributeError("CyclicWord is immutable")

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return (isinstance(other, CyclicWord) and self.alphabet == other.alphabet
                and self.letters == other.letters)

    def __hash__(self):
        return hash(("cyc", self.letters))

    def __repr__(self):
        return "CyclicWord(%s)" % (format_word(self) or "1")

    def to_word(self) -> Word:
        return Word(self.alphabet, self.letters)

    def reversal(self) -> "CyclicWord":
        return CyclicWord(self.to_word().inverse())


def cyclic_word_from_period(alphabet: Alphabet, letters, keys,
                            power: int = 1) -> CyclicWord:
    """CyclicWord of ``letters`` repeated ``power`` times, neither reduced
    nor searched for its least rotation.

    ``letters`` is one period, as the alphabet stores letters, and
    ``keys[i]`` is the canonical key of ``letters[i]``: 2 * index + (sign
    != +1).  The least key must occur once in the period and no letter
    may cancel its cyclic successor in the period (a one-letter period is
    its own successor).  The word is then cyclically
    reduced, and its least rotation starts at that key, since every start
    of a least rotation carries the least key.  ValueError otherwise.
    """
    letters = tuple(letters)
    if keys:
        least = min(keys)
        if keys.count(least) != 1:
            raise ValueError("least key %d occurs %d times in one period"
                             % (least, keys.count(least)))
        involutive = alphabet.involutive
        prev = keys[-1]
        for key in keys:
            if key >> 1 == prev >> 1 and (involutive or key != prev):
                raise ValueError("adjacent letters with keys %d and %d "
                                 "cancel" % (prev, key))
            prev = key
        i = keys.index(least)
        letters = letters[i:] + letters[:i]
    cw = object.__new__(CyclicWord)
    object.__setattr__(cw, "alphabet", alphabet)
    object.__setattr__(cw, "letters", letters * power)
    return cw


def word(alphabet: Alphabet, letters: Iterable) -> Word:
    """Build a Word from (symbol, sign) pairs or bare symbol names."""
    return Word(alphabet, [(x, 1) if isinstance(x, str) else x
                           for x in letters])


def word_from_keys(alphabet: Alphabet, keys) -> Word:
    """Word of the symbols with the given keys, each with sign +1."""
    symbol = alphabet.symbol
    return Word(alphabet, [(symbol[k], 1) for k in keys])


def complexity(w) -> int:
    """Letter count of the given reduced representative."""
    return len(w)


def format_word(w) -> str:
    parts = []
    for s, e in w:
        parts.append(s if e == 1 else s + "^-1")
    return " ".join(parts)


def read_letters(text: str):
    """(letters, sorted distinct symbols) of a text in the token grammar,
    unreduced; each distinct token becomes a letter once, through a dict."""
    tokens = text.split()
    letter_of = {tok: (tok[:-3], -1) if tok.endswith("^-1") else (tok, 1)
                 for tok in set(tokens) if tok != "1"}
    return (list(filter(None, map(letter_of.get, tokens))),
            sorted({s for s, _ in letter_of.values()}))


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse the whitespace token grammar; ``^-1`` marks an inverse."""
    return Word(alphabet, read_letters(text)[0])
