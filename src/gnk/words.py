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
``1`` for the identity, e.g. ``a_123 a_234^-1``; a symbol is nonempty, not
``1`` and not ending in ``^-1``.  Parsing and printing round-trip exactly.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from operator import itemgetter


class UnknownSymbolError(ValueError):
    """A letter outside the word's alphabet; ``args[0]`` is its symbol."""

    def __str__(self):
        return "unknown symbol %s" % (self.args[0],)


def labels_text(labels) -> str:
    """Label run of a symbol name: ``123`` when every label is <= 9, else
    ``{1,10,11}``."""
    if all(x <= 9 for x in labels):
        return "".join(str(x) for x in labels)
    return "{" + ",".join(str(x) for x in labels) + "}"


LABELS_PATTERN = r"(?:\{[0-9]+(?:,[0-9]+)*\}|[0-9]+)"  # a run of labels_text


def read_labels(text) -> tuple:
    """Labels of a run ``labels_text`` wrote: ``164`` or ``{1,10,11}``."""
    if text.startswith("{"):
        return tuple(int(x) for x in text[1:-1].split(","))
    return tuple(int(c) for c in text)


def label_mask(labels) -> int:
    """Label mask of a label set: label x is the bit 1 << x."""
    mask = 0
    for x in labels:
        mask |= 1 << x
    return mask


def far_test(masks, shared: int):
    """Far commutativity on codes, by the label masks ``masks`` of the
    symbols: a and b are far when their label sets share <= ``shared``."""
    def far(a: int, b: int) -> bool:
        return (masks[a >> 1] & masks[b >> 1]).bit_count() <= shared
    return far


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


STATE_DIM_MAX = 18     # 2^18 state letters take about 0.15 s and 40 MB


@functools.lru_cache(maxsize=16)
def state_alphabet(dim: int, prefix: str, group: int = None) -> Alphabet:
    """Involutive alphabet of the 2^dim bit vectors in binary order, each
    named ``prefix`` and its bits, in comma-separated runs of ``group`` bits
    when ``group`` is given; a vector's key is its position
    (``state_key``).  Built once per (dim, prefix, group).  ValueError for
    dim above ``STATE_DIM_MAX``."""
    if dim > STATE_DIM_MAX:
        raise ValueError("state space of dimension %d is too large (at most "
                         "%d)" % (dim, STATE_DIM_MAX))
    step = group or max(dim, 1)
    runs = [["".join(bits) for bits in itertools.product(
        "01", repeat=min(step, dim - t))] for t in range(0, dim, step)]
    return Alphabet([prefix + ",".join(p) for p in itertools.product(*runs)])


def state_key(bits) -> int:
    """Key of a bit vector in a ``state_alphabet``: the bits read as a
    binary number, most significant first."""
    key = 0
    for b in bits:
        key = 2 * key + b
    return key


def state_bits(key: int, dim: int) -> tuple:
    """Inverse of ``state_key``: the ``dim`` bits of a key, high bit first."""
    return tuple(key >> t & 1 for t in range(dim - 1, -1, -1))


def parity_walk(alphabet: Alphabet, codes, target: Alphabet, masks, emits,
                start: int = 0) -> Word:
    """Word over the state alphabet ``target`` read off a Z_2-linear walk
    over ``codes`` (``DECISIONS.md``, "One parity walk").  The state is an
    int, ``start`` at first.  A letter whose key is in ``emits`` writes the
    letter of ``target`` keyed by the state's bits from ``emits[key]`` up;
    any other letter XORs ``masks(key)`` into the state, None read as 0, so
    a dict's ``get`` serves.  Each distinct letter is looked up once."""
    keys, low = alphabet.keys, len(target) - 1
    act = {}    # code -> its mask >= 0, or ~shift < 0 for an emitting letter
    for c in set(codes):
        key = keys[c >> 1]
        act[c] = ~emits[key] if key in emits else masks(key) or 0
    x, out = start, []
    for a in map(act.__getitem__, codes):
        if a < 0:
            out.append(x >> ~a & low)
        else:
            x ^= a
    return word_from_keys(target, out)


def reduce_letters(alphabet: Alphabet, letters) -> tuple:
    """Freely reduce a code sequence (stack pass, linear time).

    Adjacent g g^-1 cancel; for involutive g, adjacent g g cancel.  The
    result is the unique reduced form (cancellation is confluent).
    """
    flip = 0 if alphabet.involutive else 1
    out = []
    top = -1            # inverse of the stack top; no code is negative
    for c in letters:
        if c == top:
            out.pop()
            top = out[-1] ^ flip if out else -1
        else:
            out.append(c)
            top = c ^ flip
    return tuple(out)


def reduce_commuting(alphabet: Alphabet, letters, commutes) -> tuple:
    """Reduce a code sequence modulo cancellation and the commutations
    ``commutes(a, b)``, a symmetric test on codes that inverting either
    letter does not change (stack pass).

    Each letter scans back over the stack letters it commutes with: if it
    meets its inverse, the two cancel, otherwise it is pushed.  Survivors
    keep their order.  The result has no factor a u a^-1 with every letter
    of u commuting with a, so by Tits' lemma it is a shortest word among
    those that commutations and cancellations reach from ``letters``
    (``DECISIONS.md``).
    """
    flip = 0 if alphabet.involutive else 1
    out = []
    for c in letters:
        inv = c ^ flip
        for t in range(len(out) - 1, -1, -1):
            d = out[t]
            if d == inv:
                del out[t]
                break
            if not commutes(c, d):
                out.append(c)
                break
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
        return "%s(%s)" % (type(self).__name__, format_word(self))


class Word(_Codes):
    """Freely reduced word; immutable and hashable."""

    __slots__ = ()

    def __init__(self, alphabet: Alphabet, letters=()):
        self._set(alphabet, reduce_letters(alphabet, letters))

    def _like(self, codes) -> "Word":
        """The reduced word of ``codes`` over this word's alphabet, of this
        word's type, so that a braid times a braid is a braid."""
        w = object.__new__(type(self))
        w._set(self.alphabet, reduce_letters(self.alphabet, codes))
        return w

    def __mul__(self, other: "Word") -> "Word":
        if other.alphabet != self.alphabet:
            raise ValueError("alphabet mismatch")
        return self._like(self.codes + other.codes)

    def inverse(self) -> "Word":
        return self._like(inverse_letters(self.alphabet, self.codes))

    def __pow__(self, n: int) -> "Word":
        w = self if n >= 0 else self.inverse()
        return self._like(w.codes * abs(n))

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


def _cyclic_as_written(alphabet: Alphabet, codes: tuple) -> CyclicWord:
    """CyclicWord of codes already cyclically reduced and in their least
    rotation, neither checked nor searched."""
    cw = object.__new__(CyclicWord)
    cw._set(alphabet, codes)
    return cw


def far_commutators(alphabet: Alphabet, far) -> list:
    """The commutators (a b)^2 of the pairs of codes a < b of an involutive
    ``alphabet`` with ``far(a, b)``, in ``combinations`` order.

    Each is written as (a, b, a, b): distinct involutive letters never
    cancel, and the least code, a, starts it, so it is already its
    canonical CyclicWord.  ValueError on a free alphabet.
    """
    if not alphabet.involutive:
        raise ValueError("far commutators need an involutive alphabet")
    return [_cyclic_as_written(alphabet, (a, b, a, b))
            for a, b in itertools.combinations(
                range(0, 2 * len(alphabet), 2), 2) if far(a, b)]


def _take(codes):
    """Function of a table to the tuple of its entries at ``codes``:
    itemgetter of two or more codes gives an exact-size tuple, which
    tuple(map(...)) would overallocate."""
    if len(codes) > 1:
        return itemgetter(*codes)
    return lambda table: tuple([table[c] for c in codes])


def _relabel(key):
    """Function of a subset S to the image of a template key, a label tuple
    or a (P, Q) pair of them, by x -> S[x - 1]."""
    if isinstance(key[0], tuple):
        P, Q = map(_relabel, key)
        return lambda S: (P(S), Q(S))
    return _take([x - 1 for x in key])


def relabel_cyclic_words(alphabet: Alphabet, subsets, words) -> list:
    """The CyclicWords ``words``, all over one template alphabet keyed by
    labels 1..m, carried into ``alphabet`` on each of ``subsets`` in turn:
    every word's image on the first subset, then on the second, and so on.
    The images are neither reduced nor searched for their least rotation.

    On a subset S = (s_1, ..., s_m) the label x goes to s_x (``DECISIONS.md``,
    "Relators relabelled from the base labels"), so a template symbol goes
    to the symbol of ``alphabet`` keyed by its key's image, and an inverse
    letter to that symbol's inverse.  The images' codes must increase with
    the template's, and the two alphabets must be both involutive or both
    free.  Such a map keeps every cancellation and every comparison of
    codes, so each image stays cyclically reduced and in its least
    rotation.  ValueError otherwise, and KeyError for an image that
    ``alphabet`` lacks.
    """
    words = list(words)
    if not words:
        return []
    template = words[0].alphabet
    if template.involutive != alphabet.involutive:
        raise ValueError("the alphabets must be both involutive or both "
                         "free")
    flip = 0 if alphabet.involutive else 1
    code, relabels = alphabet.code, list(map(_relabel, template.keys))
    takes = [_take(w.codes) for w in words]
    out = []
    for S in subsets:
        table = [code[relabel(S)] for relabel in relabels]
        if any(c >= d for c, d in zip(table, table[1:])):
            raise ValueError("the images of the template symbols must have "
                             "increasing codes in the alphabet")
        image = [c ^ f for c in table for f in (0, flip)]
        out += [_cyclic_as_written(alphabet, take(image)) for take in takes]
    return out


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
    tokens = {c: token(symbols[c >> 1], -1 if c & 1 else 1)
              for c in set(w.codes)}
    return format_tokens(map(tokens.__getitem__, w.codes))


def format_tokens(tokens) -> str:
    """Text of a word's tokens: space-separated, ``1`` if there are none."""
    return " ".join(tokens) or "1"


def token(symbol: str, sign: int) -> str:
    """Text token of a letter: its symbol, ``^-1`` suffixed for sign -1."""
    return symbol if sign == 1 else symbol + "^-1"


def token_letter(tok: str) -> tuple:
    """(symbol, sign) of a text token, the inverse of ``token``."""
    return (tok[:-3], -1) if tok.endswith("^-1") else (tok, 1)


def read_tokens(text: str) -> tuple:
    """(tokens, distinct tokens) of a text, the one split of every reader;
    the identity ``1`` is left out of both, looked for among the distinct."""
    tokens = text.split()
    distinct = set(tokens)
    if "1" in distinct:
        distinct.discard("1")
        tokens = [tok for tok in tokens if tok != "1"]
    return tokens, distinct


def _names_symbol(symbol) -> bool:
    """Whether the grammar prints a symbol back: nonempty, not ``1`` and
    not ending in ``^-1``."""
    return symbol not in ("", "1") and not symbol.endswith("^-1")


def _encode_tokens(alphabet: Alphabet, tokens, distinct) -> list:
    """Codes of ``tokens``, each of the ``distinct`` ones encoded once.
    The first token, in text order, whose symbol the grammar cannot print
    back raises ValueError, and one whose symbol ``alphabet`` lacks
    UnknownSymbolError."""
    letters, index = list(map(token_letter, distinct)), alphabet.index
    if not all(_names_symbol(s) and s in index for s, _ in letters):
        for tok in tokens:
            symbol = token_letter(tok)[0]
            if not _names_symbol(symbol):
                raise ValueError("letter %r: a symbol must be nonempty, not "
                                 "1, and not end in ^-1" % tok)
            if symbol not in index:
                raise UnknownSymbolError(symbol)
    code = dict(zip(distinct, alphabet.encode(letters)))
    return list(map(code.__getitem__, tokens))


def read_letters(alphabet: Alphabet, text: str) -> list:
    """Codes of a text in the token grammar, unreduced; each distinct token
    is encoded once, so equal letters share one int object.  The first bad
    token in the text is refused (``_encode_tokens``)."""
    return _encode_tokens(alphabet, *read_tokens(text))


def read_text(text: str, involutive: bool = True):
    """(alphabet, codes) of a text in the token grammar, from one split:
    the alphabet of its sorted distinct symbols and the codes
    ``read_letters`` gives over it, which refuses the first token whose
    symbol the grammar cannot print back."""
    tokens, distinct = read_tokens(text)
    alphabet = Alphabet(sorted({token_letter(tok)[0] for tok in distinct}),
                        involutive)
    return alphabet, _encode_tokens(alphabet, tokens, distinct)


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse the whitespace token grammar; ``^-1`` marks an inverse."""
    return Word(alphabet, read_letters(alphabet, text))
