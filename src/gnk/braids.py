"""Pure braid words and their homomorphisms into the invariant groups.

A pure braid on n strands is a word in the generators b_ij (1 <= i < j <= n).

The four compiler images share one walk (``_walk``): the mover i hops past
the anchors i+1 .. j-1, loops around j, and comes back, so each b_ij^e
becomes (u * mid * u^-1)^e with u the phases of the anchors i+1 .. j-1.
Each call forms each phase (i, m) and each generator's image once, already
in the target's letter codes, and writes the word out from that table; the
word is freely reduced once at the end.

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

from .gamma import Gamma4Group
from .gnk import GnkGroup, subset_symbol
from .words import (Alphabet, UnknownSymbolError, Word, format_tokens,
                    labels_text, parity_walk, read_tokens, reduce_commuting,
                    state_alphabet, token, token_letter, word_from_keys)


# ---------------------------------------------------------------------------
# pure braid words


def b_symbol(i, j):
    return "b_%d_%d" % (i, j)


@functools.lru_cache(maxsize=32)
def _braid_alphabet(n):
    """Free alphabet of PB_n: the pairs (i, j), 1 <= i < j <= n."""
    return Alphabet(itertools.combinations(range(1, n + 1), 2),
                    involutive=False)


class PureBraidWord(Word):
    """Freely reduced word over the generators b_ij of PB_n: a Word over the
    free alphabet of the pairs (i, j), made from letters ((i, j), +-1).
    ``n`` is stored, not read off the alphabet, since PB_0 and PB_1 share
    the empty one; products, inverses and powers carry it."""

    __slots__ = ("n",)

    def __init__(self, n: int, letters=()):
        alphabet = _braid_alphabet(n)
        try:
            codes = alphabet.encode(letters)
        except UnknownSymbolError as exc:
            raise ValueError("bad generator index (i,j)=(%d,%d)"
                             % exc.args[0]) from None
        super().__init__(alphabet, codes)
        object.__setattr__(self, "n", n)

    def _like(self, codes):
        b = super()._like(codes)
        object.__setattr__(b, "n", self.n)
        return b

    def __repr__(self):
        return "PureBraidWord(%s)" % format_braid(self)


def generator(n, i, j, e=1):
    return PureBraidWord(n, [((i, j), e)])


def commutator(a: PureBraidWord, b: PureBraidWord) -> PureBraidWord:
    return a * b * a.inverse() * b.inverse()


def format_braid(b: PureBraidWord) -> str:
    return format_tokens(token(b_symbol(i, j), e) for (i, j), e in b.letters)


_BRAID_TOKEN = re.compile(r"b_([0-9]+)_([0-9]+)")     # a token's symbol


def parse_braid(n: int, text: str) -> PureBraidWord:
    """Braid of tokens b_<i>_<j>[^-1] and 1; others raise ValueError."""
    letters = []
    for tok in read_tokens(text)[0]:
        symbol, sign = token_letter(tok)
        m = _BRAID_TOKEN.fullmatch(symbol)
        if not m:
            raise ValueError("braid letter %r: expected b_<i>_<j> or "
                             "b_<i>_<j>^-1" % tok)
        letters.append(((int(m[1]), int(m[2])), sign))
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
    """The image of b, unreduced: each b_ij^e becomes (u mid u^-1)^e, where
    u is ``phase(i, m)`` for the anchors m = i+1 .. j-1 and mid is
    ``mid(i, j)``, both lists.  Each phase and each generator's image is
    formed on its first letter and kept in tables local to the call.  Every
    target alphabet is involutive, so an inverse is the image reversed."""
    pairs = b.alphabet.symbols
    phases, images, out = {}, {}, []
    for c in b.codes:
        img = images.get(c)
        if img is None:
            i, j = pairs[c >> 1]
            u = []
            for m in range(i + 1, j):
                p = phases.get((i, m))
                if p is None:
                    p = phases[i, m] = phase(i, m)
                u += p
            img = [*u, *mid(i, j), *u[::-1]]
            images[c & ~1], images[c | 1] = img, img[::-1]
            img = images[c]
        out += img
    return out


def _c3(n, i, j):
    """Subsets of c_{i,j} = prod_{k=j+1}^n a_{ijk} * prod_{k=1}^{j-1} a_{ijk}
    (k != i)."""
    return [tuple(sorted((i, j, k)))
            for k in itertools.chain(range(j + 1, n + 1), range(1, j)) if k != i]


def pb_to_gn3(b: PureBraidWord, group: GnkGroup = None) -> Word:
    """The walk in G_n^3 with phase c_{i,m}^-1 and mid c_{i,j}^2."""
    if group is None:
        group = GnkGroup(b.n, 3)
    n, code = group.n, group.alphabet.code

    def c(i, j):
        return [code[s] for s in _c3(n, i, j)]
    return Word(group.alphabet, _walk(b, lambda i, m: c(i, m)[::-1],
                                      lambda i, j: 2 * c(i, j)))


def _crossings(n, i, m, side):
    """(z, quad) for each circle through the anchor m and two other points
    p, q that the mover i crosses while passing m on the parabola.

    Pairs come straddling m (II), then both below (I), then both above
    (III), each family already yielding the sorted triple (s1, s2, s3) with
    m at a fixed place.  z is the circle's inside count, less one when the
    mover starts inside, so z = 0 means the circle is empty at the event.
    quad is the triple with the mover inserted after or before m.
    """
    after = side == "after"
    families = (
        (1, ((m - p, m, m + q) for p in range(1, m)
             for q in range(1, n - m + 1))),
        (2, ((q, p, m) for p in range(2, m) for q in range(1, p))),
        (0, ((m, n - p, n - q) for p in range(1, n - m) for q in range(p))))
    for at, triples in families:
        at += after
        for t in triples:
            if i in t:
                continue
            s1, s2, s3 = t
            z = (s1 - 1) + (s3 - s2 - 1) - (i < s1 or s2 < i < s3)
            yield z, t[:at] + (i,) + t[at:]


def _gamma_walk(b: PureBraidWord, encode) -> list:
    """The crossings of the parabola walk of b, each phase's (z, quad)
    pairs passed through ``encode``: the mover passes each anchor
    i+1 .. j with the mover after it, and loops around j by passing it once
    more with the mover before it."""
    n = b.n
    return _walk(b, lambda i, m: encode(_crossings(n, i, m, "after")),
                 lambda i, j: encode(itertools.chain(
                     _crossings(n, i, j, "after"),
                     _crossings(n, i, j, "before"))))


def pb_to_gn4(b: PureBraidWord, group: GnkGroup = None) -> Word:
    """Concyclicity image in G_n^4: every crossing of the walk as the
    sorted 4-set of its circle and mover."""
    if b.n < 4:
        raise ValueError("G_n^4 needs n >= 4")
    if group is None:
        group = GnkGroup(b.n, 4)
    code = group.alphabet.code
    return Word(group.alphabet, _gamma_walk(
        b, lambda xs: [code[tuple(sorted(q))] for _, q in xs]))


def pb_to_gamma4(b: PureBraidWord) -> Word:
    """Delaunay-flip image in Gamma_n^4: every crossing of an empty circle
    (z = 0) emits its flip letter, the mover adjacent to the anchor."""
    if b.n < 4:
        raise ValueError("Gamma_n^4 needs n >= 4")
    group = Gamma4Group(b.n)
    return Word(group.alphabet, _gamma_walk(
        b, lambda xs: [group.letter(q) for z, q in xs if z == 0]))


def pb_to_gamma4_graded(b: PureBraidWord):
    """Image in the product of floor(r/2)+1 copies of Gamma_n^4, r = n-4.

    Every crossing of the walk emits its flip letter into the component
    indexed by z, the inside-point count of the event circle, taken mod r
    and folded to a representative alpha <= r/2 (``graded_words``).
    """
    if b.n <= 5:
        raise ValueError("graded map needs n > 5")
    group = Gamma4Group(b.n)
    return group.graded_words(_gamma_walk(
        b, lambda xs: [(z, group.letter(q)) for z, q in xs]))


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


def brunnian_certificate(b: PureBraidWord):
    """Per-strand free reductions of the deletions; empty lists certify."""
    return {m: delete_pb_strand(b, m) for m in range(1, b.n + 1)}


# ---------------------------------------------------------------------------
# free-product invariants phi_{(i,j,k)} of G_n^3


def phi_ijk(group: GnkGroup, w: Word, triple):
    """Free-product value of an even-ish G_n^3 word at a fixed triple.

    Each occurrence c of a_{ijk} contributes the map
    l -> (N_jkl + N_ijl, N_ikl + N_ijl) mod 2 over l outside the triple,
    where the counts are of occurrences before c: a parity walk with the
    masks of ``DECISIONS.md``, "One parity walk".
    """
    if group.k != 3:
        raise ValueError("phi_ijk is defined on G_n^3, not on k = %d"
                         % group.k)
    i, j, k = sorted(triple)
    if len({i, j, k}) != 3:
        raise ValueError("triple must have three distinct labels")
    if any(x not in group.labels for x in (i, j, k)):
        raise ValueError("triple must be a 3-subset of the labels")
    others = [l for l in group.labels if l not in (i, j, k)]
    # bit pair t holds (N_jkl + N_ijl, N_ikl + N_ijl) for l = others[t]
    dim = 2 * len(others)
    target = state_alphabet(dim, "s_", 2)
    masks = {tuple(sorted((a, b, l))): pair << (dim - 2 - 2 * t)
             for t, l in enumerate(others)
             for a, b, pair in ((j, k, 0b10), (i, j, 0b11), (i, k, 0b01))}
    return parity_walk(w.alphabet, w.codes, target, masks.get, {(i, j, k): 0})


# ---------------------------------------------------------------------------
# parity and dotted enrichments of G_n^2


def parity_symbol(i, j, eps):
    return "a_%s^%d" % (labels_text(sorted((i, j))), eps)


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
        syms = {subset_symbol(ij): ij
                for ij in itertools.combinations(self.labels, 2)}
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


def eta(pg: ParityGroup, w: Word) -> Word:
    """Parity -> dotted: a_ij^0 -> a_ij, a_ij^1 -> t_i a_ij t_i."""
    out = []
    for (i, j), eps in w.keys():
        out += [(i, j)] if eps == 0 else [i, (i, j), i]
    return word_from_keys(DottedGroup(pg.labels).alphabet, out)


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


def omega_m(g2: GnkGroup, w: Word, m: int) -> Word:
    """G_{n+1}^2 -> dotted group on the other n strands: crossings with
    strand m become points on the other strand."""
    if m not in g2.labels:
        raise ValueError("label %d not present" % m)
    dotted = DottedGroup(l for l in g2.labels if l != m)
    out = []
    for i, j in w.keys():
        out.append(j if m == i else i if m == j else (i, j))
    return word_from_keys(dotted.alphabet, out)


def kappa(dg: DottedGroup, w: Word, new_label: int = None):
    """Dotted group -> G_{n+1}^2 modulo the forbidden moves: a_ij -> a_ij,
    t_i -> a_{i,new}; new-strand letters commute and cancel across each
    other (``words.reduce_commuting``), and each run of them is sorted."""
    if new_label is None:
        new_label = max(dg.labels) + 1
    labels = dg.labels + (new_label,)
    target = GnkGroup(len(labels), 2, labels)
    alphabet, code = target.alphabet, target.alphabet.code
    strand = [new_label in m for m in alphabet.keys]
    codes = reduce_commuting(
        alphabet,
        [code[tuple(sorted((k, new_label))) if isinstance(k, int) else k]
         for k in w.keys()],
        lambda a, b: strand[a >> 1] and strand[b >> 1])
    out = []
    for on_strand, run in itertools.groupby(codes, lambda c: strand[c >> 1]):
        out += sorted(run) if on_strand else run
    return Word(alphabet, out), target


def w_parity(pg: ParityGroup, w: Word, pair):
    """Free-product parity invariant w^P_{i,j} of a parity word.

    Each occurrence of a_ij^eps contributes the bit vector over the other
    labels l: N_il^0 + N_jl^0 (eps = 0) or N_il^0 + N_jl^1 (eps = 1), the
    counts taken over the letters before the occurrence: a parity walk
    whose state holds the eps = 0 vector above the eps = 1 one.
    """
    i, j = sorted(pair)
    others = [l for l in pg.labels if l not in (i, j)]
    dim = len(others)
    target = state_alphabet(dim, "z_")
    high = 1 << dim     # bit t of each half is l = others[t]
    masks = {(tuple(sorted((a, l))), eps): half << (dim - 1 - t)
             for t, l in enumerate(others)
             for a, eps, half in ((i, 0, high | 1), (j, 0, high), (j, 1, 1))}
    return parity_walk(w.alphabet, w.codes, target, masks.get,
                       {((i, j), 0): dim, ((i, j), 1): 0})


def phi_parity(g2: GnkGroup, w: Word, m: int, pair):
    """phi^m_{i,j} = w^P_{i,j} o chi o omega_m on a G_{n+1}^2 word."""
    dotted = omega_m(g2, w, m)
    rest = tuple(l for l in g2.labels if l != m)
    pw = chi(DottedGroup(rest), dotted)
    return w_parity(ParityGroup(rest), pw, pair)


def r_m(group: GnkGroup, w: Word, m: int) -> Word:
    """G_{n+1}^3 -> G_n^2: a_ijk -> a_{triple minus m} when m is in the
    triple, else 1.  Labels are preserved."""
    rest = tuple(l for l in group.labels if l != m)
    return GnkGroup(len(rest), 2, rest).word_from_subsets(
        tuple(x for x in t if x != m) for t in w.keys() if m in t)
