"""The groups G_n^k of free k-braids.

Generators a_m are indexed by k-element subsets m of the strand label set
(default 1..n); every generator is an involution.  Relations: far
commutativity a_m a_m' = a_m' a_m whenever |m ∩ m'| <= k-2, and the
tetrahedron relations (a_{m^1} ... a_{m^{k+1}})^2 = 1, one per ordering of a
(k+1)-subset U up to rotation and reversal (which rotate or invert the
relator), where m^j = U minus its j-th element.

Also here: the index-forgetting and strand-deletion homomorphisms, the MN
invariant on even words (valued in a free product of Z_2's indexed by a
Z_2-vector state), the derived unknotting lower bound, the obstruction map
G_{k+1}^k -> F_{k-1} with its constructive last-letter elimination, and the
greedy bigon reduction heuristic for G_n^2.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from fractions import Fraction
from operator import itemgetter

from .words import (Alphabet, CyclicWord, Word, cyclic_word_from_period,
                    labels_text, reduce_letters, state_alphabet, state_key,
                    word_from_keys)


def subset_symbol(m) -> str:
    """Generator token for a k-subset: a_123 for labels <= 9, else a_{10,11,...}."""
    return "a_" + labels_text(sorted(m))


@functools.lru_cache(maxsize=32)
def _subset_codec(labels, k):
    """The k-subsets of a label set in lexicographic order and their
    alphabet, built once per (labels, k)."""
    subsets = tuple(itertools.combinations(labels, k))
    return subsets, Alphabet({subset_symbol(m): m for m in subsets})


class GnkGroup:
    """Presentation-carrying handle for G_n^k over an explicit label set."""

    def __init__(self, n: int, k: int, labels=None):
        if labels is None:
            labels = tuple(range(1, n + 1))
        labels = tuple(sorted(labels))
        if len(labels) != n:
            raise ValueError("label count must equal n")
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= n")
        self.n = n
        self.k = k
        self.labels = labels
        subsets, self.alphabet = _subset_codec(labels, k)
        self.subsets = list(subsets)

    def word_from_subsets(self, subsets) -> Word:
        return word_from_keys(self.alphabet, (tuple(sorted(m)) for m in subsets))

    def __repr__(self):
        return "GnkGroup(n=%d, k=%d)" % (self.n, self.k)


def generators(n: int, k: int):
    """All C(n,k) generator index sets in lexicographic order."""
    if k > n:
        raise ValueError("k > n")
    return GnkGroup(n, k).subsets


def tetrahedron_relation_count(n: int, k: int) -> int:
    """Nominal tetrahedron relation count: (k+1)! C(n,k+1) / 2."""
    from math import comb, factorial
    if k + 1 > n:
        return 0
    return factorial(k + 1) * comb(n, k + 1) // 2


class GnkPresentation:
    """Relators of G_n^k, one per class up to rotation and inversion.

    The alphabet is involutive, so a_m a_m cancels structurally: the
    involution relators are C(n,k) empty cyclic words.  The other relators
    are written straight into their canonical rotation
    (``cyclic_word_from_period``), one code lookup per subset.
    """

    def __init__(self, group: GnkGroup):
        self.group = group
        alphabet = group.alphabet
        self.involution_relators = [CyclicWord(Word(alphabet))] * len(
            group.subsets)
        code = alphabet.code
        k = group.k
        self.far_commutativity_relators = [
            cyclic_word_from_period(alphabet, (code[m1], code[m2]), 2)
            for m1, m2 in itertools.combinations(group.subsets, 2)
            if len(set(m1) & set(m2)) <= k - 2]
        self.tetrahedron_relators = list(self._tetrahedron(group))

    @staticmethod
    def _tetrahedron(group: GnkGroup):
        """Squared tetrahedron relators, one per ordering of a (k+1)-subset U
        up to rotation and reversal: least label first, second <= last.
        Position j of an ordering of U's indices names the letter of U
        minus U[j]; U is sorted, so index order is label order."""
        k = group.k
        if k == group.n:
            return      # no (k+1)-subset: skip the k!/2 orderings
        orders = [itemgetter(0, *rest)
                  for rest in itertools.permutations(range(1, k + 1))
                  if rest[0] <= rest[-1]]
        alphabet, code = group.alphabet, group.alphabet.code
        for U in itertools.combinations(group.labels, k + 1):
            letters = [code[U[:j] + U[j + 1:]] for j in range(k + 1)]
            for order in orders:
                yield cyclic_word_from_period(alphabet, order(letters), 2)

    @property
    def relators(self):
        return (self.involution_relators + self.far_commutativity_relators
                + self.tetrahedron_relators)


def relators(n: int, k: int) -> GnkPresentation:
    return GnkPresentation(GnkGroup(n, k))


# ---------------------------------------------------------------------------
# structural homomorphisms


def _strand_map(group: GnkGroup, w: Word, l: int, forget: bool):
    """Drop label l: keep the letters a_m with l in m as a_{m minus l}
    (``forget``) or those with l not in m unchanged; labels above l shift
    down by one."""
    if l not in group.labels:
        raise ValueError("label %r not in group" % (l,))
    dst = GnkGroup(group.n - 1, group.k - 1 if forget else group.k,
                   tuple(x - (x > l) for x in group.labels if x != l))
    images = [tuple(x - (x > l) for x in m if x != l)
              for m in w.keys() if (l in m) == forget]
    return dst.word_from_subsets(images), dst


def forget_index(group: GnkGroup, w: Word, l: int) -> tuple[Word, GnkGroup]:
    """Index-forgetting homomorphism G_n^k -> G_{n-1}^{k-1}.

    a_m -> 1 when l not in m, else a_{m minus l}; labels above l shift down
    by one.  Returns the image and its group.
    """
    return _strand_map(group, w, l, forget=True)


def delete_strand(group: GnkGroup, w: Word, j: int) -> tuple[Word, GnkGroup]:
    """Strand-deletion homomorphism G_n^k -> G_{n-1}^k: kill a_m with j in m;
    labels above j shift down by one.  Returns the image and its group."""
    return _strand_map(group, w, j, forget=False)


def is_even(w: Word) -> bool:
    """True iff every generator occurs an even number of times."""
    return all(c % 2 == 0 for c in w.symbol_counts().values())


# ---------------------------------------------------------------------------
# MN invariant


class MNContext:
    """State space for the MN invariant of G_n^k with a fixed k-subset m.

    Z = Z_2^{(k-1)(n-k)} with coordinates indexed by pairs (p, i): p runs
    over the complement of m (ascending), i over 1..k-1.  psi_p sends
    a_{m[i]} (m with its i-th smallest element replaced by p) to e_{(p,i)}
    for i < k and a_{m[k]} to the sum of the e_{(p,i)}; everything else to 0.
    """

    def __init__(self, group: GnkGroup, m):
        m = tuple(sorted(m))
        if len(m) != group.k or any(x not in group.labels for x in m):
            raise ValueError("m must be a k-subset of the labels")
        self.group = group
        self.m = m
        self.complement = tuple(x for x in group.labels if x not in m)
        self.dim = (group.k - 1) * len(self.complement)
        if self.dim > 16:
            raise ValueError("MN state space too large (dim %d)" % self.dim)
        self.coords = [(p, i) for p in self.complement
                       for i in range(1, group.k)]
        self.coord_index = {pi: t for t, pi in enumerate(self.coords)}
        self.target_alphabet = state_alphabet(
            self.dim, lambda x: "f_" + labels_text(x))

    def psi(self, subset) -> tuple:
        """psi of a single generator a_subset, as a Z_2 vector."""
        subset = tuple(sorted(subset))
        vec = [0] * self.dim
        inter = set(subset) & set(self.m)
        if subset == self.m or len(inter) != self.group.k - 1:
            return tuple(vec)
        p = next(iter(set(subset) - set(self.m)))
        dropped = next(iter(set(self.m) - set(subset)))
        i = self.m.index(dropped) + 1
        if i < self.group.k:
            vec[self.coord_index[(p, i)]] ^= 1
        else:
            for ii in range(1, self.group.k):
                vec[self.coord_index[(p, ii)]] ^= 1
        return tuple(vec)

    def psi_word(self, w: Word) -> tuple:
        vec = [0] * self.dim
        for m in w.keys():
            for t, b in enumerate(self.psi(m)):
                vec[t] ^= b
        return tuple(vec)


def mn_invariant(group: GnkGroup, w: Word, m, ctx: MNContext = None,
                 start=None) -> Word:
    """MN invariant of an even word: value in Z_2^{* |Z|}.

    The group acts on Z x H with the rightmost letter acting first; an
    occurrence of a_m at position t therefore contributes f_x where x is the
    psi-sum of the letters after position t (plus the optional start state).
    """
    if not is_even(w) and start is None:
        raise ValueError("mn_invariant requires an even word")
    if ctx is None:
        ctx = MNContext(group, m)
    m = ctx.m
    x = list(start) if start is not None else [0] * ctx.dim
    emitted = []
    for subset in reversed(w.keys()):
        if subset == m:
            emitted.append(state_key(x))
        else:
            for t, b in enumerate(ctx.psi(subset)):
                x[t] ^= b
    emitted.reverse()
    return word_from_keys(ctx.target_alphabet, emitted)


def z_ij(ctx: MNContext, i: int, j: int) -> tuple:
    """z_{ij} = sum of psi(m') over k-subsets m' containing {i,j} with
    |m ∩ m'| = k-1."""
    vec = [0] * ctx.dim
    for mp in ctx.group.subsets:
        if i in mp and j in mp and len(set(mp) & set(ctx.m)) == ctx.group.k - 1:
            for t, b in enumerate(ctx.psi(mp)):
                vec[t] ^= b
    return tuple(vec)


def mn_value_support(value: Word):
    """Z_2[Z] projection of an MN value: the set of odd-count states."""
    dim = len(value.alphabet).bit_length() - 1
    return {tuple(key >> t & 1 for t in range(dim - 1, -1, -1))
            for key, c in Counter(value.keys()).items() if c % 2 == 1}


def coset_overlap_bound(ctx: MNContext, support) -> Fraction:
    """Half the maximal intersection of the support with a coset of Z_0,
    Z_0 the span of the z_{ij} over pairs {i,j} in m."""
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


def unknotting_lower_bound(group: GnkGroup, w: Word, m) -> Fraction:
    """Rough switch-count lower bound: half the maximal coset overlap.

    Project the MN value to Z_2[Z]; with Z_0 the span of the z_{ij} for
    pairs {i,j} in m, the bound is max over cosets z + Z_0 of the number of
    surviving summands, divided by two.
    """
    ctx = MNContext(group, m)
    value = mn_invariant(group, w, m, ctx)
    return coset_overlap_bound(ctx, mn_value_support(value))


# ---------------------------------------------------------------------------
# G_{k+1}^k: the obstruction map to F_{k-1} and last-letter elimination


class Gk1kContext:
    """Lexicographic renaming b_1..b_{k+1} of the generators of G_{k+1}^k."""

    def __init__(self, k: int):
        self.k = k
        self.group = GnkGroup(k + 1, k)
        self.subsets = self.group.subsets          # already lex sorted
        self.b_index = {m: j + 1 for j, m in enumerate(self.subsets)}
        self.f_alphabet = state_alphabet(k - 1, lambda x: "c_" + labels_text(x))

    def b_word(self, js) -> Word:
        return self.group.word_from_subsets([self.subsets[j - 1] for j in js])

    def to_indices(self, w: Word):
        return [self.b_index[m] for m in w.keys()]


def index_word_to_F(ctx: Gk1kContext, w: Word) -> Word:
    """Obstruction map G_{k+1}^k -> F_{k-1} = Z_2^{* 2^(k-1)}.

    Each occurrence of the last letter b_{k+1} carries the length-k parity
    string of preceding b_j counts; strings are taken modulo the all-ones
    flip (normalise the last bit to 0) and the first k-1 bits index c_m.
    """
    k = ctx.k
    counts = [0] * (k + 2)
    out = []
    for j in ctx.to_indices(w):
        if j == k + 1:
            s = [counts[t] % 2 for t in range(1, k + 1)]
            if s[-1] == 1:
                s = [1 - b for b in s]
            out.append(state_key(s[:-1]))
        counts[j] += 1
    return word_from_keys(ctx.f_alphabet, out)


def eliminate_last_letter(ctx: Gk1kContext, w: Word):
    """Rewrite w, when its F-image is trivial, into a word with no b_{k+1}.

    Returns the rewritten Word, or None when the F-image obstruction is
    nontrivial (w is then certified to lie outside H_k).  The rewriting uses
    only tetrahedron moves on full-support subwords, so all invariants of w
    are preserved.
    """
    if len(index_word_to_F(ctx, w)) != 0:
        return None
    alphabet = ctx.group.alphabet
    # the letters b_1 .. b_k, and b_{k+1}
    *firsts, last = map(alphabet.code.__getitem__, ctx.subsets)

    letters = w.codes
    while last in letters:
        occ = [p for p, c in enumerate(letters) if c == last]
        # locate the leftmost adjacent occurrence pair with same-parity gap
        for a, b in zip(occ, occ[1:]):
            between = letters[a + 1:b]
            if len({between.count(c) % 2 for c in firsts}) == 1:
                break
        else:
            raise AssertionError("trivial F-image but no adjacent equal pair")
        B = reduce_letters(alphabet, letters[a + 1:b])
        prefix = ()
        while len(set(B)) < len(B):
            # S = B[:p] is distinct letters, and ij = B[p] repeats one of them
            p = next(p for p, c in enumerate(B) if c in B[:p])
            S, ij = B[:p], B[p]
            P = tuple(c for c in firsts if c not in S)
            Q = tuple(c for c in S if c != ij)
            prefix += P[::-1] + S[::-1] + Q + (ij,) + P
            B = reduce_letters(alphabet, Q + B[p + 1:])
        # what is left of B is empty or a full permutation of b_1 .. b_k:
        # reverse it
        letters = reduce_letters(
            alphabet, letters[:a] + prefix + B[::-1] + letters[b + 1:])
    return Word(alphabet, letters)


# ---------------------------------------------------------------------------
# bigon reduction heuristic for G_n^2


def bigon_reduce_g2(group: GnkGroup, w: Word) -> Word:
    """Greedy bigon cancellation in G_n^2.

    Repeatedly removes a pair a_m ... a_m whose interleaved letters are all
    disjoint from m (so they commute past by far commutativity and the pair
    cancels).  Leftmost eligible pair first; fixed point of the rule.  This
    is a heuristic: the result is equal to w in G_n^2 and no longer than w,
    but is not guaranteed globally minimal.
    """
    if group.k != 2:
        raise ValueError("bigon reduction applies to k = 2 only")
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


# ---------------------------------------------------------------------------
# the S_3 sanity example for G_3^2


def _perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def is_relator_consequence_in_s3(assignment) -> bool:
    """Check that a map {a_12, a_13, a_23} -> S_3 kills every G_3^2 relator.

    ``assignment`` maps generator symbols to permutations of (0,1,2) given
    as image tuples.
    """
    pres = relators(3, 2)
    alphabet = pres.group.alphabet
    image = {m: assignment[s] for s, m in zip(alphabet.symbols, alphabet.keys)}
    identity = (0, 1, 2)
    for rel in pres.relators:
        acc = identity
        for m in rel.keys():
            acc = _perm_mul(acc, image[m])
        if acc != identity:
            return False
    return True
