"""Word algebra over finitely presented alphabets.

Everything downstream (group elements, relators, invariant values) is a
``Word``: a freely reduced sequence of letters over an ``Alphabet``.  An
alphabet is either involutive (every g^2 = 1) or free.

A letter is an int code.  The symbol at position i of the alphabet is the
code 2i, and on a free alphabet its inverse is 2i + 1 = 2i ^ 1.  An
involutive letter is its own inverse, so its code is always even, and
adjacent equal involutive letters cancel: the square relation is structural
rather than a rewrite rule.  Free products of Z_2 (all-involutive
alphabets) therefore have a unique normal form: two words are equal in the
group iff their codes are equal.

An alphabet is the one codec.  Each symbol has one key (a subset, a quad, a
split, ...): maps read a word's keys with ``Word.keys()`` and write a word
from keys with ``word_from_keys``, through the alphabet's ``keys`` and
``code`` tables.  (symbol, sign) pairs and text tokens become codes where a
word is made (``word``, ``read_letters``, ``Alphabet.encode``), and codes
become pairs and text only in ``Alphabet.decode``, the ``.letters`` views
and ``format_word``.

Text grammar: whitespace-separated tokens, ``^-1`` suffix for an inverse,
e.g. ``a_123 a_234^-1``.  Parsing and printing round-trip exactly.
"""

from __future__ import annotations

import itertools
from collections import Counter


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
    keys each symbol by its position.  ``keys[i]`` is the key of symbol i,
    and ``code[key]`` the code of its letter, one int object per letter for
    a keyed alphabet.  The declared order of symbols is the canonical symbol
    order used for cyclic-word canonicalization and deterministic sorting.
    """

    def __init__(self, symbols, involutive=True):
        self.symbols = tuple(symbols)
        self.index = {s: i for i, s in enumerate(self.symbols)}
        if len(self.index) != len(self.symbols):
            raise ValueError("duplicate symbol names")
        self.involutive = bool(involutive)
        codes = range(0, 2 * len(self.symbols), 2)
        if isinstance(symbols, dict):
            self.keys = tuple(symbols.values())
            self.code = dict(zip(self.keys, codes))
            if len(self.code) != len(self.symbols):
                raise ValueError("duplicate symbol keys")
        else:
            self.keys = range(len(self.symbols))
            self.code = codes

    def inverse(self, code: int) -> int:
        """Code of the inverse letter."""
        return code if self.involutive else code ^ 1

    def encode(self, letters) -> list:
        """Codes of (symbol, sign) pairs.  UnknownSymbolError for a symbol
        outside the alphabet, ValueError for a sign other than +1 or -1."""
        index, neg = self.index, 0 if self.involutive else 1
        out = []
        for symbol, sign in letters:
            if symbol not in index:
                raise UnknownSymbolError(symbol)
            if sign != 1 and sign != -1:
                raise ValueError("sign must be +1 or -1")
            out.append(2 * index[symbol] + (sign == -1 and neg))
        return out

    def decode(self, codes) -> tuple:
        """(symbol, sign) pairs of codes."""
        symbols = self.symbols
        return tuple([(symbols[c >> 1], -1 if c & 1 else 1) for c in codes])

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


def reduce_letters(alphabet: Alphabet, letters) -> tuple:
    """Freely reduce a code sequence (stack pass, linear time).

    Adjacent g g^-1 cancel; for involutive g, adjacent g g cancel.  The
    result is the unique reduced form (cancellation is confluent).
    """
    flip = 0 if alphabet.involutive else 1
    out = []
    for c in letters:
        if out and out[-1] == c ^ flip:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def inverse_letters(alphabet: Alphabet, letters) -> tuple:
    """Formal inverse of a code sequence: reversed, each letter inverted."""
    if alphabet.involutive:
        return tuple(reversed(letters))
    return tuple([c ^ 1 for c in reversed(letters)])


def cyclic_reduce(alphabet: Alphabet, letters) -> tuple:
    """Cyclically reduce a freely reduced code sequence: cancel across the
    seam until the first and last letters no longer cancel."""
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == alphabet.inverse(letters[hi - 1]):
        lo += 1
        hi -= 1
    return tuple(letters[lo:hi])


class _Codes:
    """An immutable code sequence over an alphabet, with its decoded
    views."""

    __slots__ = ("alphabet", "codes")

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _set(self, alphabet, codes):
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "codes", codes)

    @property
    def letters(self) -> tuple:
        """The letters as (symbol, sign) pairs."""
        return self.alphabet.decode(self.codes)

    def keys(self) -> list:
        """The key of each letter's symbol, in order."""
        keys = self.alphabet.keys
        return [keys[c >> 1] for c in self.codes]

    def __len__(self):
        return len(self.codes)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return (type(other) is type(self) and self.alphabet == other.alphabet
                and self.codes == other.codes)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, format_word(self) or "1")


class Word(_Codes):
    """Freely reduced word; immutable and hashable."""

    __slots__ = ()

    def __init__(self, alphabet: Alphabet, letters=()):
        self._set(alphabet, reduce_letters(alphabet, letters))

    def __mul__(self, other: "Word") -> "Word":
        if other.alphabet != self.alphabet:
            raise ValueError("alphabet mismatch")
        return Word(self.alphabet, self.codes + other.codes)

    def inverse(self) -> "Word":
        return Word(self.alphabet, inverse_letters(self.alphabet, self.codes))

    def __pow__(self, n: int) -> "Word":
        w = self if n >= 0 else self.inverse()
        return Word(self.alphabet, w.codes * abs(n))

    def __hash__(self):
        return hash(self.codes)

    def symbol_counts(self) -> Counter:
        return Counter(s for s, _ in self.letters)


def least_rotation(seq) -> tuple:
    """Lexicographically least rotation of a sequence, as a tuple.

    Linear time: two candidate starts are compared, and the loser skips
    past the run they share.
    """
    seq = tuple(seq)
    n = len(seq)
    ks = seq + seq
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


class CyclicWord(_Codes):
    """Conjugacy-class key: cyclically reduced, rotation-canonical word.

    Canonical form = least rotation of the codes, that is, under the
    alphabet's declared symbol order with inverse letters after positive
    ones.
    """

    __slots__ = ()

    def __init__(self, word: Word):
        self._set(word.alphabet, least_rotation(
            cyclic_reduce(word.alphabet, word.codes)))

    def __hash__(self):
        return hash(("cyc", self.codes))

    def to_word(self) -> Word:
        return Word(self.alphabet, self.codes)

    def reversal(self) -> "CyclicWord":
        return CyclicWord(self.to_word().inverse())


def cyclic_word_from_period(alphabet: Alphabet, letters,
                            power: int = 1) -> CyclicWord:
    """CyclicWord of the codes ``letters`` repeated ``power`` times, neither
    reduced nor searched for its least rotation.

    The least code must occur once in the period and no letter may cancel
    its cyclic successor in the period (a one-letter period is its own
    successor).  The word is then cyclically reduced, and its least
    rotation starts at that code, since every start of a least rotation
    carries the least code.  ValueError otherwise.
    """
    letters = tuple(letters)
    if letters:
        least = min(letters)
        if letters.count(least) != 1:
            raise ValueError("least letter %d occurs %d times in one period"
                             % (least, letters.count(least)))
        flip = 0 if alphabet.involutive else 1
        prev = letters[-1]
        for c in letters:
            if c == prev ^ flip:
                raise ValueError("adjacent letters %d and %d cancel"
                                 % (prev, c))
            prev = c
        i = letters.index(least)
        letters = letters[i:] + letters[:i]
    cw = object.__new__(CyclicWord)
    cw._set(alphabet, letters * power)
    return cw


def word(alphabet: Alphabet, letters) -> Word:
    """Build a Word from (symbol, sign) pairs or bare symbol names."""
    return Word(alphabet, alphabet.encode(
        (x, 1) if isinstance(x, str) else x for x in letters))


def word_from_keys(alphabet: Alphabet, keys) -> Word:
    """Word of the symbols with the given keys, each with sign +1."""
    code = alphabet.code
    return Word(alphabet, [code[k] for k in keys])


def format_word(w) -> str:
    """Text of a Word or CyclicWord in the token grammar; each distinct
    letter is formatted once."""
    symbols = w.alphabet.symbols
    token = {c: symbols[c >> 1] + "^-1" if c & 1 else symbols[c >> 1]
             for c in set(w.codes)}
    return " ".join(map(token.__getitem__, w.codes))


def _token_letter(tok):
    return (tok[:-3], -1) if tok.endswith("^-1") else (tok, 1)


def read_symbols(text: str) -> list:
    """Sorted distinct symbols of a text in the token grammar."""
    tokens = set(text.split())
    tokens.discard("1")
    return sorted({_token_letter(tok)[0] for tok in tokens})


def read_letters(alphabet: Alphabet, text: str) -> list:
    """Codes of a text in the token grammar, unreduced; each distinct token
    is encoded once, so equal letters share one int object.  An unknown
    symbol raises UnknownSymbolError naming the first in the text."""
    tokens = text.split()
    if "1" in tokens:
        tokens = [tok for tok in tokens if tok != "1"]
    distinct = set(tokens)
    try:
        code = dict(zip(distinct, alphabet.encode(map(_token_letter,
                                                      distinct))))
    except UnknownSymbolError:
        alphabet.encode(map(_token_letter, tokens))   # in text order
        raise
    return list(map(code.__getitem__, tokens))


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse the whitespace token grammar; ``^-1`` marks an inverse."""
    return Word(alphabet, read_letters(alphabet, text))
