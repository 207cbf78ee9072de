"""Per-letter oracles for the pure-braid images and the MN invariant.

These are the maps as they were before each call tabled its generator
images: the walk rebuilds the whole image of b_ij (its crossings, sorts and
canonical quads) for every letter of the word, and the MN invariant, psi_word
and z_ij recompute psi of every letter as a bit vector, from sets.  The fast
maps in ``gnk.braids`` and ``gnk.gnk`` must agree with them letter for letter.
They share ``_c3`` and ``_crossings`` with the maps, which the independent
oracles in ``test_braids.py`` check.
"""

from gnk.braids import _c3, _crossings
from gnk.gamma import Gamma4Group, graded_words
from gnk.gnk import GnkGroup, MNContext, is_even
from gnk.words import state_key, word_from_keys


def walk(b, phase, mid) -> list:
    """Keys of the image of b: each b_ij^e becomes (u mid u^-1)^e, where u
    is ``phase(i, m)`` for the anchors m = i+1 .. j-1 and mid is
    ``mid(i, j)``, formed afresh for every letter."""
    out = []
    for (i, j), e in b.letters:
        u = [key for m in range(i + 1, j) for key in phase(i, m)]
        img = [*u, *mid(i, j), *u[::-1]]
        out += img if e == 1 else img[::-1]
    return out


def gamma_walk(b) -> list:
    n = b.n
    return walk(b, lambda i, m: _crossings(n, i, m, "after"),
                lambda i, j: [*_crossings(n, i, j, "after"),
                              *_crossings(n, i, j, "before")])


def pb_to_gn3(b, group=None):
    if group is None:
        group = GnkGroup(b.n, 3)
    n = group.n
    return word_from_keys(group.alphabet, walk(
        b, lambda i, m: _c3(n, i, m)[::-1], lambda i, j: 2 * _c3(n, i, j)))


def pb_to_gn4(b, group=None):
    if group is None:
        group = GnkGroup(b.n, 4)
    return word_from_keys(group.alphabet,
                          [tuple(sorted(q)) for _, q in gamma_walk(b)])


def pb_to_gamma4(b):
    return Gamma4Group(b.n).word_from_quads(
        q for z, q in gamma_walk(b) if z == 0)


def pb_to_gamma4_graded(b):
    return graded_words(b.n, gamma_walk(b))


def psi(ctx: MNContext, subset) -> tuple:
    """psi of one generator as a Z_2 vector, from sets."""
    subset = tuple(sorted(subset))
    k = ctx.group.k
    vec = [0] * ctx.dim
    inter = set(subset) & set(ctx.m)
    if subset == ctx.m or len(inter) != k - 1:
        return tuple(vec)
    p = next(iter(set(subset) - set(ctx.m)))
    dropped = next(iter(set(ctx.m) - set(subset)))
    i = ctx.m.index(dropped) + 1
    coords = [(q, ii) for q in ctx.complement for ii in range(1, k)]
    for ii in ([i] if i < k else range(1, k)):
        vec[coords.index((p, ii))] ^= 1
    return tuple(vec)


def psi_word(ctx: MNContext, w) -> tuple:
    vec = [0] * ctx.dim
    for m in w.keys():
        for t, bit in enumerate(psi(ctx, m)):
            vec[t] ^= bit
    return tuple(vec)


def z_ij(ctx: MNContext, i, j) -> tuple:
    vec = [0] * ctx.dim
    for mp in ctx.group.subsets:
        if i in mp and j in mp and len(set(mp) & set(ctx.m)) == ctx.group.k - 1:
            for t, bit in enumerate(psi(ctx, mp)):
                vec[t] ^= bit
    return tuple(vec)


def mn_invariant(group, w, m, ctx=None, start=None):
    """The MN value with psi of every letter recomputed as a bit vector."""
    if not is_even(w) and start is None:
        raise ValueError("mn_invariant requires an even word")
    if ctx is None:
        ctx = MNContext(group, m)
    x = list(start) if start is not None else [0] * ctx.dim
    emitted = []
    for subset in reversed(w.keys()):
        if subset == ctx.m:
            emitted.append(state_key(x))
        else:
            for t, bit in enumerate(psi(ctx, subset)):
                x[t] ^= bit
    emitted.reverse()
    return word_from_keys(ctx.target_alphabet, emitted)
