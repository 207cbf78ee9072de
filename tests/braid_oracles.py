"""Per-letter oracles for the pure-braid images and the MN invariant, the
count loops of the other free-product invariants, and the fixpoint loops of
the reductions modulo commutation.

These are the maps as they were before each call tabled its generator
images: the walk rebuilds the whole image of b_ij (its crossings, sorts and
canonical quads) for every letter of the word, and the MN invariant, psi_word
and z_ij recompute psi of every letter as a bit vector, from sets.  The fast
maps in ``gnk.braids`` and ``gnk.gnk`` must agree with them letter for letter.
They share ``_c3`` and ``_crossings`` with the maps, which the independent
oracles in ``test_braids.py`` check.

``phi_ijk``, ``w_parity`` and ``index_word_to_F`` are the loops that ran
before the four free-product invariants became one parity walk
(``words.parity_walk``): each keeps its own counts of the letters seen and
reads the state of every emitting letter off them.

``is_even`` counts the generator of every letter through a generator
expression, as it did before ``gnk.is_even`` counted the letter codes.

``kappa`` and ``bigon_reduce_g2`` are the rescanning loops that ran before
both became one stack pass (``words.reduce_commuting``), and
``coset_overlap_bound`` the bound over bit tuples and frozenset cosets.
"""

import itertools
from collections import Counter
from fractions import Fraction

from gnk.braids import _c3, _crossings
from gnk.gamma import Gamma4Group
from gnk.gnk import GnkGroup, MNContext
from gnk.words import state_alphabet, state_key, word_from_keys
from relator_oracles import quad_word


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
    return quad_word(Gamma4Group(b.n), (q for z, q in gamma_walk(b) if z == 0))


def pb_to_gamma4_graded(b):
    r = b.n - 4
    comps = [[] for _ in range(r // 2 + 1)]
    for z, q in gamma_walk(b):
        comps[min(z % r, -z % r)].append(q)
    return tuple(quad_word(Gamma4Group(b.n), c) for c in comps)


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


def is_even(w) -> bool:
    """True iff every generator occurs an even number of times."""
    return all(c % 2 == 0 for c in Counter(c >> 1 for c in w.codes).values())


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


def phi_ijk(group, w, triple):
    """phi_{(i,j,k)} from the counts N of the letters before each a_{ijk}."""
    i, j, k = sorted(triple)
    others = [l for l in group.labels if l not in (i, j, k)]
    target = state_alphabet(2 * len(others), "s_", 2)
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


def w_parity(pg, w, pair):
    """w^P_{i,j} from the counts N^eps of the letters before each a_ij^eps."""
    i, j = sorted(pair)
    others = [l for l in pg.labels if l not in (i, j)]
    target = state_alphabet(len(others), "z_")
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


def index_word_to_F(ctx, w):
    """G_{k+1}^k -> F_{k-1} from the counts of b_1 .. b_k before each
    b_{k+1}, the parity string flipped when its last bit is 1."""
    k = ctx.k
    b_index = {m: j + 1 for j, m in enumerate(ctx.subsets)}
    counts = [0] * (k + 2)
    out = []
    for j in (b_index[m] for m in w.keys()):
        if j == k + 1:
            s = [counts[t] % 2 for t in range(1, k + 1)]
            if s[-1] == 1:
                s = [1 - b for b in s]
            out.append(state_key(s[:-1]))
        counts[j] += 1
    return word_from_keys(ctx.f_alphabet, out)


def coset_overlap_bound(ctx, support):
    """Half the maximal intersection of the support with a coset of Z_0,
    each coset formed as a frozenset of bit tuples."""
    support = set(support)
    if not support:
        return Fraction(0)
    basis = [z_ij(ctx, i, j) for i, j in itertools.combinations(ctx.m, 2)]
    z0 = {tuple([0] * ctx.dim)}
    for b in basis:
        z0 |= {tuple(x ^ y for x, y in zip(v, b)) for v in z0}
    best = 0
    seen_cosets = set()
    for s in support:
        coset = frozenset(tuple(x ^ y for x, y in zip(s, v)) for v in z0)
        if coset in seen_cosets:
            continue
        seen_cosets.add(coset)
        best = max(best, len(support & coset))
    return Fraction(best, 2)


def kappa(dg, w, new_label=None):
    """Dotted group -> G_{n+1}^2: passes over the keys until no adjacent
    pair cancels and no adjacent new-strand pair is out of order."""
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


def bigon_reduce_g2(group, w):
    """Leftmost pair a_m ... a_m whose interleaved letters are all disjoint
    from m removed first, rescanning until no pair is left."""
    letters = w.keys()
    changed = True
    while changed:
        changed = False
        n = len(letters)
        for p in range(n):
            if changed:
                break
            for q in range(p + 1, n):
                if letters[p] != letters[q]:
                    continue
                mset = set(letters[p])
                if all(not (set(letters[t]) & mset) for t in range(p + 1, q)):
                    del letters[q]
                    del letters[p]
                    changed = True
                    break
    return group.word_from_subsets(letters)
