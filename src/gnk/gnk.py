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
G_{k+1}^k -> F_{k-1} with its constructive last-letter elimination, and
bigon reduction in G_n^2.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from fractions import Fraction

from .words import (Alphabet, CyclicWord, Word, far_commutators, far_test,
                    label_mask, labels_text, parity_walk, reduce_commuting,
                    reduce_letters, relabel_cyclic_words, state_alphabet,
                    state_bits, state_key, word_from_keys)


def subset_symbol(m) -> str:
    """Generator token for a k-subset: a_123 for labels <= 9, else a_{10,11,...}."""
    return "a_" + labels_text(sorted(m))


@functools.lru_cache(maxsize=32)
def _subset_codec(labels, k):
    """The k-subsets of a label set in lexicographic order, their alphabet
    and its far test, built once per (labels, k)."""
    subsets = tuple(itertools.combinations(labels, k))
    return (subsets, Alphabet({subset_symbol(m): m for m in subsets}),
            far_test(tuple(map(label_mask, subsets)), k - 2))


class GnkGroup:
    """Presentation-carrying handle for G_n^k over an explicit label set;
    ``far(a, b)``: the subsets of codes a and b share <= k - 2 labels."""

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
        subsets, self.alphabet, self.far = _subset_codec(labels, k)
        self.subsets = list(subsets)

    def word_from_subsets(self, subsets) -> Word:
        return word_from_keys(self.alphabet, (tuple(sorted(m)) for m in subsets))

    def __repr__(self):
        return "GnkGroup(n=%d, k=%d)" % (self.n, self.k)


def tetrahedron_relation_count(n: int, k: int) -> int:
    """Nominal tetrahedron relation count: (k+1)! C(n,k+1) / 2."""
    from math import comb, factorial
    if k + 1 > n:
        return 0
    return factorial(k + 1) * comb(n, k + 1) // 2


class GnkPresentation:
    """Relators of G_n^k, one per class up to rotation and inversion.

    The alphabet is involutive, so a_m a_m cancels structurally: the
    involution relators are C(n,k) empty cyclic words.  The far
    commutators are written in their canonical rotation
    (``words.far_commutators``), and the tetrahedra are relabelled from
    the base labels 1..k+1 (``words.relabel_cyclic_words``).
    """

    def __init__(self, group: GnkGroup):
        self.group = group
        alphabet = group.alphabet
        self.involution_relators = [CyclicWord(Word(alphabet))] * len(
            group.subsets)
        self.far_commutativity_relators = far_commutators(alphabet, group.far)
        self.tetrahedron_relators = self._tetrahedron(group)

    @staticmethod
    def _tetrahedron(group: GnkGroup) -> list:
        """Squared tetrahedron relators, one per ordering of a (k+1)-subset U
        up to rotation and reversal: least label first, second <= last.
        The k!/2 orderings are formed once, over the labels 1..k+1, and
        relabelled to each U (``DECISIONS.md``, "Relators relabelled from
        the base labels").  Position j of an ordering names the letter of
        U minus U[j], base code 2(k - j): the base alphabet lists the
        k-subsets in lexicographic order, U minus its last label first."""
        k = group.k
        if k == group.n:
            return []   # no (k+1)-subset: skip the k!/2 orderings
        base = GnkGroup(k + 1, k).alphabet
        templates = []
        for rest in itertools.permutations(range(1, k + 1)):
            if rest[0] <= rest[-1]:
                period = [2 * (k - j) for j in (0,) + rest]
                templates.append(CyclicWord(Word(base, period * 2)))
        return relabel_cyclic_words(
            group.alphabet, itertools.combinations(group.labels, k + 1),
            templates)


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
    """True iff every generator occurs an even number of times: the count
    of each letter code c plus that of its inverse code c ^ 1 (absent on an
    involutive alphabet) is even."""
    counts = Counter(w.codes)
    return all((m + counts.get(c ^ 1, 0)) % 2 == 0 for c, m in counts.items())


# ---------------------------------------------------------------------------
# MN invariant


class MNContext:
    """State space for the MN invariant of G_n^k with a fixed k-subset m.

    Z = Z_2^{(k-1)(n-k)} with coordinates indexed by pairs (p, i): p runs
    over the complement of m (ascending), i over 1..k-1.  psi_p sends
    a_{m[i]} (m with its i-th smallest element replaced by p) to e_{(p,i)}
    for i < k and a_{m[k]} to the sum of the e_{(p,i)}; everything else to 0.
    A state is also read as its key in the target alphabet (``state_key``):
    coordinate t is the bit 2^(dim-1-t).
    """

    def __init__(self, group: GnkGroup, m):
        m = tuple(sorted(m))
        if (len(set(m)) != group.k or len(m) != group.k
                or any(x not in group.labels for x in m)):
            raise ValueError("m must be a k-subset of the labels")
        self.group = group
        self.m = m
        self.complement = tuple(x for x in group.labels if x not in m)
        self.dim = (group.k - 1) * len(self.complement)
        self.target_alphabet = state_alphabet(self.dim, "f_")

    def psi_key(self, subset) -> int:
        """psi of a single generator a_subset, as a state key."""
        k = self.group.k
        extra = set(subset).difference(self.m)
        if len(extra) != 1:
            return 0
        (p,) = extra
        (dropped,) = set(self.m).difference(subset)
        i = self.m.index(dropped) + 1
        top = self.dim - self.complement.index(p) * (k - 1)
        if i < k:
            return 1 << (top - i)
        return (1 << top) - (1 << (top - k + 1))

    def psi_word(self, w: Word) -> tuple:
        """psi of a word: the letters of odd count, their psi keys XORed."""
        keys = w.alphabet.keys
        x = 0
        for c, count in Counter(w.codes).items():
            if count & 1:
                x ^= self.psi_key(keys[c >> 1])
        return state_bits(x, self.dim)


def mn_invariant(group: GnkGroup, w: Word, m, ctx: MNContext = None,
                 start=None) -> Word:
    """MN invariant of an even word: value in Z_2^{* |Z|}.

    The group acts on Z x H with the rightmost letter acting first; an
    occurrence of a_m at position t therefore contributes f_x where x is the
    psi-sum of the letters after position t (plus the optional start state).
    That is the parity walk over the reversed word, psi keys as masks.
    """
    if not is_even(w) and start is None:
        raise ValueError("mn invariant needs an even word")
    if ctx is None:
        ctx = MNContext(group, m)
    return parity_walk(w.alphabet, w.codes[::-1], ctx.target_alphabet,
                       ctx.psi_key, {ctx.m: 0},
                       state_key(start or ())).inverse()


def z_ij(ctx: MNContext, i: int, j: int) -> tuple:
    """z_{ij} = sum of psi(m') over k-subsets m' containing {i,j} with
    |m ∩ m'| = k-1, psi being 0 on the others."""
    return ctx.psi_word(ctx.group.word_from_subsets(
        mp for mp in ctx.group.subsets if i in mp and j in mp))


def mn_value_support(value: Word):
    """Z_2[Z] projection of an MN value: the set of odd-count states."""
    dim = len(value.alphabet).bit_length() - 1
    return {state_bits(key, dim)
            for key, c in Counter(value.keys()).items() if c % 2 == 1}


def coset_overlap_bound(ctx: MNContext, support) -> Fraction:
    """Half the maximal intersection of the support, a set of bit vectors,
    with a coset of Z_0, Z_0 the span of the z_{ij} over pairs {i,j} in m.
    States are worked on as keys, and each coset is named by its least."""
    z0 = {0}
    for i, j in itertools.combinations(ctx.m, 2):
        z = state_key(z_ij(ctx, i, j))
        z0 |= {v ^ z for v in z0}
    cosets = Counter(min(state_key(s) ^ v for v in z0) for s in set(support))
    return Fraction(max(cosets.values(), default=0), 2)


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
        self.f_alphabet = state_alphabet(k - 1, "c_")


def index_word_to_F(ctx: Gk1kContext, w: Word) -> Word:
    """Obstruction map G_{k+1}^k -> F_{k-1} = Z_2^{* 2^(k-1)}.

    Each occurrence of the last letter b_{k+1} carries the length-k parity
    string of preceding b_j counts; strings are taken modulo the all-ones
    flip (normalise the last bit to 0) and the first k-1 bits index c_m.
    Bit t is then N_t + N_k mod 2: a parity walk in which b_k flips all.
    """
    *firsts, b_k, last = ctx.subsets
    masks = {m: 1 << (ctx.k - 2 - t) for t, m in enumerate(firsts)}
    masks[b_k] = (1 << (ctx.k - 1)) - 1
    return parity_walk(w.alphabet, w.codes, ctx.f_alphabet, masks.get,
                       {last: 0})


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
# bigon reduction in G_n^2


def bigon_reduce_g2(group: GnkGroup, w: Word) -> Word:
    """Bigon cancellation in G_n^2: a_m u a_m -> u whenever every letter of
    u is disjoint from m, so that it commutes past a_m by far
    commutativity (``words.reduce_commuting`` with ``GnkGroup.far``).

    The result is equal to w in G_n^2 and is a shortest word equal to w
    modulo far commutativity and a_m^2 = 1 alone; the tetrahedron relations
    may shorten it further.
    """
    if group.k != 2:
        raise ValueError("bigon reduction applies to k = 2 only")
    return Word(group.alphabet,
                reduce_commuting(group.alphabet, w.codes, group.far))

