"""Pure braid words and their homomorphisms into the invariant groups.

A pure braid on n strands is a word in the generators b_ij (1 <= i < j <= n).

The four compiler images share one walk (``_walk``): the mover i hops past
the anchors i+1 .. j-1, loops around j, and comes back, so each b_ij^e
becomes (u * mid * u^-1)^e with u the phases of the anchors i+1 .. j-1.

* pb_to_gn3 (G_n^3, circle dynamics): the phase of m is c_{i,m}^-1 and mid
  is c_{i,j}^2, with c_{i,j} = prod_{k>j} a_{ijk} * prod_{k<j} a_{ijk}.
* pb_to_gn4, pb_to_gamma4, pb_to_gamma4_graded (parabola dynamics): a phase
  is the circles through the anchor that the mover crosses passing it, the
  mover placed after the anchor; mid passes j with the mover after, then
  before it (``_crossings``, which gives each circle's inside count z).
  G_n^4 keeps every crossing as a 4-set, Gamma_n^4 the empty circles
  (z = 0) as flip letters, and the graded map every flip letter in the
  component z mod (n-4), folded to at most (n-4)/2.

Also here: strand deletion p_m (q_m is ``gnk.delete_strand``), Brunnian
certificates, the free-product invariants phi_{(i,j,k)}, and the
crossing-parity machinery connecting G_n^2 to its parity and dotted
enrichments.

Strand-label bookkeeping: maps that drop a strand shift the surviving
labels above it down by one (the classical table form).
"""

from __future__ import annotations

import functools
import itertools
import re

from .gamma import Gamma4Group, graded_words
from .gnk import GnkGroup
from .words import (Alphabet, UnknownSymbolError, Word, labels_text,
                    state_alphabet, state_key, word, word_from_keys)


# ---------------------------------------------------------------------------
# pure braid words


def b_symbol(i, j):
    return "b_%d_%d" % (i, j)


@functools.lru_cache(maxsize=32)
def _braid_alphabet(n):
    """Free alphabet of PB_n: the pairs (i, j), 1 <= i < j <= n."""
    return Alphabet(itertools.combinations(range(1, n + 1), 2),
                    involutive=False)


class PureBraidWord:
    """Freely reduced word over the generators b_ij of PB_n, made from
    letters ((i, j), +-1); ``word`` is its Word over the free alphabet of
    the pairs (i, j), and ``letters`` its letters."""

    def __init__(self, n: int, letters=()):
        try:
            self.word = word(_braid_alphabet(n), letters)
        except UnknownSymbolError as exc:
            raise ValueError("bad generator index (i,j)=(%d,%d)"
                             % exc.args[0]) from None
        self.n = n

    @property
    def letters(self):
        return self.word.letters

    def _braid(self, w):
        b = object.__new__(PureBraidWord)
        b.n, b.word = self.n, w
        return b

    def __mul__(self, other):
        if other.n != self.n:
            raise ValueError("strand count mismatch")
        return self._braid(self.word * other.word)

    def inverse(self):
        return self._braid(self.word.inverse())

    def __pow__(self, k):
        return self._braid(self.word ** k)

    def __eq__(self, other):
        return (isinstance(other, PureBraidWord) and self.n == other.n
                and self.word == other.word)

    def __len__(self):
        return len(self.word)

    def __repr__(self):
        return "PureBraidWord(%s)" % (format_braid(self) or "1")


def generator(n, i, j, e=1):
    return PureBraidWord(n, [((i, j), e)])


def commutator(a: PureBraidWord, b: PureBraidWord) -> PureBraidWord:
    return a * b * a.inverse() * b.inverse()


def format_braid(b: PureBraidWord) -> str:
    return " ".join(b_symbol(i, j) + ("" if e == 1 else "^-1")
                    for (i, j), e in b.letters)


_BRAID_TOKEN = re.compile(r"b_([0-9]+)_([0-9]+)(\^-1)?")


def parse_braid(n: int, text: str) -> PureBraidWord:
    """Parse tokens b_<i>_<j> or b_<i>_<j>^-1; others raise ValueError."""
    letters = []
    for tok in text.split():
        m = _BRAID_TOKEN.fullmatch(tok)
        if not m:
            raise ValueError("braid letter %r: expected b_<i>_<j> or "
                             "b_<i>_<j>^-1" % tok)
        letters.append(((int(m[1]), int(m[2])), -1 if m[3] else 1))
    return PureBraidWord(n, letters)


def pb_relation_pairs(n: int):
    """Defining relation pairs (lhs, rhs) of PB_n used for well-definedness
    tests: commuting pairs (i<j<k<l and i<k<l<j) and the triple relations
    b_ij b_ik b_jk = b_ik b_jk b_ij = b_jk b_ij b_ik."""
    pairs = []
    rng = range(1, n + 1)
    for i, j, k, l in itertools.combinations(rng, 4):
        for (a, b), (c, d) in (((i, j), (k, l)), ((i, k), (l, j))):
            c, d = min(c, d), max(c, d)
            u = generator(n, a, b) * generator(n, c, d)
            v = generator(n, c, d) * generator(n, a, b)
            pairs.append((u, v))
    for i, j, k in itertools.combinations(rng, 3):
        t1 = generator(n, i, j) * generator(n, i, k) * generator(n, j, k)
        t2 = generator(n, i, k) * generator(n, j, k) * generator(n, i, j)
        t3 = generator(n, j, k) * generator(n, i, j) * generator(n, i, k)
        pairs.append((t1, t2))
        pairs.append((t2, t3))
    return pairs


# ---------------------------------------------------------------------------
# the walk: PB_n -> G_n^3, G_n^4, Gamma_n^4 and the graded product


def _walk(b: PureBraidWord, phase, mid) -> list:
    """Keys of the image of b: each b_ij^e becomes (u mid u^-1)^e, where u
    is ``phase(i, m)`` for the anchors m = i+1 .. j-1 and mid is
    ``mid(i, j)``.  Every target alphabet is involutive, so an inverse is
    the key list reversed."""
    out = []
    for (i, j), e in b.letters:
        u = [key for m in range(i + 1, j) for key in phase(i, m)]
        img = [*u, *mid(i, j), *u[::-1]]
        out += img if e == 1 else img[::-1]
    return out


def _c3(n, i, j):
    """Subsets of c_{i,j} = prod_{k=j+1}^n a_{ijk} * prod_{k=1}^{j-1} a_{ijk}
    (k != i)."""
    return [tuple(sorted((i, j, k)))
            for k in itertools.chain(range(j + 1, n + 1), range(1, j)) if k != i]


def c_ij_gn3(group: GnkGroup, i: int, j: int) -> Word:
    return word_from_keys(group.alphabet, _c3(group.n, i, j))


def pb_to_gn3(b: PureBraidWord, group: GnkGroup = None) -> Word:
    """The walk in G_n^3 with phase c_{i,m}^-1 and mid c_{i,j}^2."""
    if group is None:
        group = GnkGroup(b.n, 3)
    n = group.n
    return word_from_keys(group.alphabet, _walk(
        b, lambda i, m: _c3(n, i, m)[::-1], lambda i, j: 2 * _c3(n, i, j)))


def _crossings(n, i, m, side):
    """(z, quad) for each circle through the anchor m and two other points
    p, q that the mover i crosses while passing m on the parabola.

    Pairs come straddling m (II), then both below (I), then both above
    (III).  z is the circle's inside count, less one when the mover starts
    inside, so z = 0 means the circle is empty at the event.  quad is the
    sorted triple with the mover inserted after or before m.
    """
    pairs = itertools.chain(
        ((m - p, m + q) for p in range(1, m) for q in range(1, n - m + 1)),
        ((p, q) for p in range(2, m) for q in range(1, p)),
        ((n - p, n - q) for p in range(1, n - m) for q in range(p)))
    for p, q in pairs:
        if i in (p, q):
            continue
        s1, s2, s3 = t = sorted((p, q, m))
        z = (s1 - 1) + (s3 - s2 - 1) - (i < s1 or s2 < i < s3)
        t.insert(t.index(m) + (side == "after"), i)
        yield z, tuple(t)


def _gamma_walk(b: PureBraidWord) -> list:
    """(z, quad) of every crossing of the parabola walk of b: the mover
    passes each anchor i+1 .. j with the mover after it, and loops around j
    by passing it once more with the mover before it."""
    n = b.n
    return _walk(b, lambda i, m: _crossings(n, i, m, "after"),
                 lambda i, j: [*_crossings(n, i, j, "after"),
                               *_crossings(n, i, j, "before")])


def pb_to_gn4(b: PureBraidWord, group: GnkGroup = None) -> Word:
    """Concyclicity image in G_n^4: every crossing of the walk as the
    sorted 4-set of its circle and mover."""
    if b.n < 4:
        raise ValueError("G_n^4 needs n >= 4")
    if group is None:
        group = GnkGroup(b.n, 4)
    return word_from_keys(group.alphabet,
                          [tuple(sorted(q)) for _, q in _gamma_walk(b)])


def pb_to_gamma4(b: PureBraidWord) -> Word:
    """Delaunay-flip image in Gamma_n^4: every crossing of an empty circle
    (z = 0) emits its flip letter, the mover adjacent to the anchor."""
    if b.n < 4:
        raise ValueError("Gamma_n^4 needs n >= 4")
    return Gamma4Group(b.n).word_from_quads(
        q for z, q in _gamma_walk(b) if z == 0)


def pb_to_gamma4_graded(b: PureBraidWord):
    """Image in the product of floor(r/2)+1 copies of Gamma_n^4, r = n-4.

    Every crossing of the walk emits its flip letter into the component
    indexed by z, the inside-point count of the event circle, taken mod r
    and folded to a representative alpha <= r/2.
    """
    if b.n <= 5:
        raise ValueError("graded map needs n > 5")
    return graded_words(b.n, _gamma_walk(b))


# ---------------------------------------------------------------------------
# strand deletion and Brunnian braids


def delete_pb_strand(b: PureBraidWord, m: int) -> PureBraidWord:
    """p_m: delete strand m from PB_n; surviving indices shift down."""
    letters = []
    for (i, j), e in b.letters:
        if m in (i, j):
            continue
        i2 = i if i < m else i - 1
        j2 = j if j < m else j - 1
        letters.append(((i2, j2), e))
    return PureBraidWord(b.n - 1, letters)


def is_brunnian(b: PureBraidWord) -> bool:
    """Sound, incomplete Brunnian certificate: every p_m(b) freely trivial."""
    return all(len(delete_pb_strand(b, m)) == 0 for m in range(1, b.n + 1))


def brunnian_certificate(b: PureBraidWord):
    """Per-strand free reductions of the deletions; empty lists certify."""
    return {m: delete_pb_strand(b, m) for m in range(1, b.n + 1)}


# ---------------------------------------------------------------------------
# free-product invariants phi_{(i,j,k)} of G_n^3


@functools.lru_cache(maxsize=8)
def _phi_alphabet(dim):
    """Target of phi_ijk: the 2^dim states, one bit pair per label outside
    the triple.  Built once per dimension (it has 4^(n-3) symbols)."""
    return state_alphabet(dim, lambda x: "s_" + ",".join(
        labels_text(x[t:t + 2]) for t in range(0, len(x), 2)))


def phi_ijk(group: GnkGroup, w: Word, triple):
    """Free-product value of an even-ish G_n^3 word at a fixed triple.

    Each occurrence c of a_{ijk} contributes the map
    l -> (N_jkl + N_ijl, N_ikl + N_ijl) mod 2 over l outside the triple,
    where the counts are of occurrences before c.
    """
    i, j, k = sorted(triple)
    if len({i, j, k}) != 3:
        raise ValueError("triple must have three distinct labels")
    others = [l for l in group.labels if l not in (i, j, k)]
    target = _phi_alphabet(2 * len(others))
    counts = {}
    out = []
    for sub in w.keys():
        if sub == (i, j, k):
            bits = []
            for l in others:
                njkl = counts.get(tuple(sorted((j, k, l))), 0)
                nijl = counts.get(tuple(sorted((i, j, l))), 0)
                nikl = counts.get(tuple(sorted((i, k, l))), 0)
                bits += [(njkl + nijl) % 2, (nikl + nijl) % 2]
            out.append(state_key(bits))
        counts[sub] = counts.get(sub, 0) + 1
    return word_from_keys(target, out)


# ---------------------------------------------------------------------------
# parity and dotted enrichments of G_n^2


def parity_symbol(i, j, eps):
    return "a_%s^%d" % (labels_text(sorted((i, j))), eps)


def dotted_a_symbol(i, j):
    return "a_" + labels_text(sorted((i, j)))


def tau_symbol(i):
    return "t_%d" % i


class ParityGroup:
    """G_n^2 with crossing parities: generators a_ij^eps, eps in {0,1},
    keyed ((i, j), eps)."""

    def __init__(self, labels):
        self.labels = tuple(sorted(labels))
        self.alphabet = Alphabet({parity_symbol(i, j, e): ((i, j), e)
                                  for i, j in itertools.combinations(self.labels, 2)
                                  for e in (0, 1)})

    def word_from_letters(self, letters):
        return word_from_keys(self.alphabet, ((tuple(sorted(ij)), e)
                                              for ij, e in letters))


class DottedGroup:
    """G_n^2 with points: generators a_ij keyed (i, j) and strand points t_i
    keyed by the label i."""

    def __init__(self, labels):
        self.labels = tuple(sorted(labels))
        syms = {dotted_a_symbol(i, j): (i, j)
                for i, j in itertools.combinations(self.labels, 2)}
        syms.update((tau_symbol(i), i) for i in self.labels)
        self.alphabet = Alphabet(syms)


def iota(g2: GnkGroup, w: Word, target: ParityGroup = None) -> Word:
    """Embedding G_n^2 -> parity group: a_ij -> a_ij^0."""
    if target is None:
        target = ParityGroup(g2.labels)
    return target.word_from_letters((ij, 0) for ij in w.keys())


def pr(pg: ParityGroup, w: Word, target: GnkGroup = None) -> Word:
    """Projection parity -> G_n^2: even letters survive, odd letters die."""
    if target is None:
        target = GnkGroup(len(pg.labels), 2, pg.labels)
    return target.word_from_subsets(ij for ij, eps in w.keys() if eps == 0)


def eta(pg: ParityGroup, w: Word, target: DottedGroup = None) -> Word:
    """Parity -> dotted: a_ij^0 -> a_ij, a_ij^1 -> t_i a_ij t_i."""
    if target is None:
        target = DottedGroup(pg.labels)
    out = []
    for (i, j), eps in w.keys():
        out += [(i, j)] if eps == 0 else [i, (i, j), i]
    return word_from_keys(target.alphabet, out)


def chi(dg: DottedGroup, w: Word, target: ParityGroup = None) -> Word:
    """Dotted -> parity on the even-point subgroup.

    Each crossing a_ij picks up the parity of the tau_i and tau_j counts
    seen so far.  Raises on words with an odd total count of some tau.
    """
    if target is None:
        target = ParityGroup(dg.labels)
    ncount = {l: 0 for l in dg.labels}
    out = []
    for k in w.keys():
        if isinstance(k, int):
            ncount[k] += 1
        else:
            i, j = k
            out.append((k, (ncount[i] + ncount[j]) % 2))
    odd = [l for l, c in ncount.items() if c % 2]
    if odd:
        raise ValueError("chi needs even tau counts; odd at %r" % odd)
    return target.word_from_letters(out)


def omega_m(g2: GnkGroup, w: Word, m: int, target: DottedGroup = None) -> Word:
    """G_{n+1}^2 -> dotted group on the other n strands: crossings with
    strand m become points on the other strand."""
    if m not in g2.labels:
        raise ValueError("label %d not present" % m)
    rest = tuple(l for l in g2.labels if l != m)
    if target is None:
        target = DottedGroup(rest)
    out = []
    for i, j in w.keys():
        out.append(j if m == i else i if m == j else (i, j))
    return word_from_keys(target.alphabet, out)


def kappa(dg: DottedGroup, w: Word, new_label: int = None):
    """Dotted group -> G_{n+1}^2 modulo the forbidden moves: a_ij -> a_ij,
    t_i -> a_{i,new}; adjacent new-strand letters commute and cancel."""
    if new_label is None:
        new_label = max(dg.labels) + 1
    labels = dg.labels + (new_label,)
    target = GnkGroup(len(labels), 2, labels)
    letters = [tuple(sorted((k, new_label))) if isinstance(k, int) else k
               for k in w.keys()]
    changed = True
    while changed:
        changed = False
        out = []
        for m in letters:
            if out and out[-1] == m:
                out.pop()
                changed = True
            elif (out and new_label in m and new_label in out[-1]
                  and m < out[-1]):
                out.insert(len(out) - 1, m)   # commute adjacent new-letters
                changed = True
            else:
                out.append(m)
        letters = out
    return target.word_from_subsets(letters), target


def w_parity(pg: ParityGroup, w: Word, pair):
    """Free-product parity invariant w^P_{i,j} of a parity word.

    Each occurrence of a_ij^eps contributes the bit vector over the other
    labels k: N_ik^0 + N_jk^0 (eps = 0) or N_ik^0 + N_jk^1 (eps = 1), the
    counts taken over the letters before the occurrence.
    """
    i, j = sorted(pair)
    others = [l for l in pg.labels if l not in (i, j)]
    target = state_alphabet(len(others), lambda x: "z_" + labels_text(x))
    counts = {}
    out = []
    for k in w.keys():
        ij, eps = k
        if ij == (i, j):
            out.append(state_key(
                (counts.get((tuple(sorted((i, l))), 0), 0)
                 + counts.get((tuple(sorted((j, l))), eps), 0)) % 2
                for l in others))
        counts[k] = counts.get(k, 0) + 1
    return word_from_keys(target, out)


def phi_parity(g2: GnkGroup, w: Word, m: int, pair):
    """phi^m_{i,j} = w^P_{i,j} o chi o omega_m on a G_{n+1}^2 word."""
    dotted = omega_m(g2, w, m)
    rest = tuple(l for l in g2.labels if l != m)
    pw = chi(DottedGroup(rest), dotted)
    return w_parity(ParityGroup(rest), pw, pair)


def r_m(group: GnkGroup, w: Word, m: int, target: GnkGroup = None) -> Word:
    """G_{n+1}^3 -> G_n^2: a_ijk -> a_{triple minus m} when m is in the
    triple, else 1.  Labels are preserved."""
    rest = tuple(l for l in group.labels if l != m)
    if target is None:
        target = GnkGroup(len(rest), 2, rest)
    return target.word_from_subsets(
        tuple(x for x in t if x != m) for t in w.keys() if m in t)
