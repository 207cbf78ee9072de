"""Small-cancellation toolkit: pieces, C'(lambda), C(p), T(q), Dehn reduction.

Words here are plain (symbol, sign) letter tuples over an Alphabet (usually
free, i.e. non-involutive).  The symmetrisation of a relator set is the
deduplicated closure under cyclic rotation and inversion, each element
cyclically reduced; a piece is a common beginning of two distinct elements
of the symmetrisation.

dehn_reduce works on a run-length (syllable) encoding of the cyclic word, so
words like nested-commutator powers with millions of letters stay cheap: a
relator factor can overlap a long run only near its ends.
"""

from __future__ import annotations

from fractions import Fraction

from .words import (Alphabet, Word, cyclic_reduce, inverse_letters,
                    reduce_letters)


class PresentationNotC16(Exception):
    """dehn_reduce demands a verified C'(1/6) presentation."""


class SymmetrisedSet:
    """Closure of a relator set under rotation and inversion, deduplicated."""

    def __init__(self, alphabet: Alphabet, relators):
        self.alphabet = alphabet
        elems = set()
        for r in relators:
            letters = cyclic_reduce(alphabet, reduce_letters(alphabet, r))
            if not letters:
                raise ValueError("relator is cyclically trivial")
            for base in (letters, inverse_letters(alphabet, letters)):
                n = len(base)
                for t in range(n):
                    elems.add(base[t:] + base[:t])
        self.elements = sorted(elems)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def symmetrise(alphabet: Alphabet, relators) -> SymmetrisedSet:
    return SymmetrisedSet(alphabet, relators)


# ---------------------------------------------------------------------------
# pieces


def _lcp(u, v):
    n = 0
    for a, b in zip(u, v):
        if a != b:
            break
        n += 1
    return n


def max_piece_prefixes(R: SymmetrisedSet):
    """For each element, the length of its longest prefix that is a piece.

    Sorted-neighbour trick: the longest common prefix of an element with any
    other element is attained at a neighbour in lexicographic order.
    """
    elems = R.elements                      # already sorted
    out = {}
    for t, r in enumerate(elems):
        best = 0
        if t > 0:
            best = max(best, _lcp(r, elems[t - 1]))
        if t + 1 < len(elems):
            best = max(best, _lcp(r, elems[t + 1]))
        out[r] = best
    return out


def piece_table(R: SymmetrisedSet):
    """All maximal pieces (as words): longest common prefixes of distinct
    element pairs, deduplicated."""
    prefixes = max_piece_prefixes(R)
    return sorted({r[:n] for r, n in prefixes.items() if n > 0})


def check_metric_condition(R: SymmetrisedSet, lam) -> tuple:
    """C'(lambda): every piece-prefix u of r has |u| < lambda * |r|.

    Returns (holds, witness); the witness is a violating (r, u) pair."""
    lam = Fraction(lam)
    for r, n in max_piece_prefixes(R).items():
        if n and not Fraction(n) < lam * len(r):
            return False, (r, r[:n])
    return True, None


def _piece_length_at(R: SymmetrisedSet, r, pos):
    """Longest piece that is a factor of r starting at pos (r cyclic rep)."""
    rot = r[pos:] + r[:pos]
    best = 0
    for other in R.elements:
        if other == rot:
            continue
        best = max(best, _lcp(rot, other))
    return min(best, len(r) - pos)


def check_cp(R: SymmetrisedSet, p: int) -> bool:
    """C(p): every element of R_* is a product of at least p pieces.

    Elements that cannot be written as products of pieces at all satisfy the
    condition vacuously.  Greedy interval cover gives the minimum count
    because prefixes of pieces are pieces.
    """
    if p < 2:
        raise ValueError("need p >= 2")
    for r in R.elements:
        jumps = [_piece_length_at(R, r, pos) for pos in range(len(r))]
        pos = 0
        count = 0
        feasible = True
        while pos < len(r):
            if jumps[pos] == 0:
                feasible = False
                break
            pos += jumps[pos]
            count += 1
        if feasible and count < p:
            return False
    return True


def check_tq(R: SymmetrisedSet, q: int) -> bool:
    """T(q): no cyclic chain r_1 .. r_l (3 <= l < q) with every junction
    cancelling and no r_{t+1} = r_t^{-1}."""
    if q <= 2:
        raise ValueError("need q > 2")
    elems = R.elements
    alphabet = R.alphabet
    index = {r: t for t, r in enumerate(elems)}
    succ = [[] for _ in elems]
    for u in elems:
        ui = index[u]
        last = u[-1]
        for v in elems:
            if v == inverse_letters(alphabet, u):
                continue
            first = v[0]
            if last[0] == first[0] and (alphabet.involutive
                                        or last[1] == -first[1]):
                succ[ui].append(index[v])
    # closed walks of length l in the cancellation graph
    n = len(elems)
    for l in range(3, q):
        # closed walks of length l via boolean adjacency powers
        cur = {}
        for u in range(n):
            for v in succ[u]:
                cur[(u, v)] = True
        for _ in range(l - 1):
            nxt = {}
            for (u, v) in cur:
                for w in succ[v]:
                    nxt[(u, w)] = True
            cur = nxt
        if any(u == v for (u, v) in cur):
            return False
    return True


# ---------------------------------------------------------------------------
# syllable-encoded cyclic words


def to_syllables(alphabet, letters):
    """Run-length encoding of the free reduction of ``letters``."""
    out = []
    for s, e in reduce_letters(alphabet, letters):
        if out and out[-1][0] == s:       # reduced: equal neighbours agree in sign
            out[-1] = (s, out[-1][1] + e)
        else:
            out.append((s, e))
    return out


def syllable_length(sylls):
    return sum(abs(e) for _, e in sylls)


def from_syllables(sylls):
    out = []
    for s, e in sylls:
        sign = 1 if e > 0 else -1
        out.extend([(s, sign)] * abs(e))
    return tuple(out)


class DehnTrace:
    def __init__(self):
        self.steps = []
        self.max_overlap_at_fixpoint = 0
        self.half_threshold = None

    def __repr__(self):
        return ("DehnTrace(steps=%d, max_overlap=%d, threshold=%s)"
                % (len(self.steps), self.max_overlap_at_fixpoint,
                   self.half_threshold))


class DehnResult:
    """Fixed point of the reduction, kept in syllable form (words can be
    huge); materialise with .word() when small."""

    def __init__(self, alphabet, sylls, trace):
        self.alphabet = alphabet
        self.syllables = sylls
        self.trace = trace

    @property
    def letter_count(self):
        return syllable_length(self.syllables)

    def is_trivial(self):
        return self.letter_count == 0

    def word(self):
        return Word(self.alphabet, from_syllables(self.syllables))

    def __repr__(self):
        return "DehnResult(letters=%d, %r)" % (self.letter_count, self.trace)


def _syllable_cyclic_reduce(alphabet, sylls):
    """Normalise a syllable list: merge runs, cancel, and cyclically reduce."""
    out = []
    def push(sym, exp):
        if exp == 0:
            return
        if alphabet.involutive:
            exp = abs(exp) % 2
            if exp == 0:
                return
        if out and out[-1][0] == sym:
            if alphabet.involutive:
                out.pop()
                return
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((sym, merged))
            return
        out.append((sym, exp))
    for sym, exp in sylls:
        push(sym, exp)
    # cyclic seam
    while len(out) >= 2 and out[0][0] == out[-1][0]:
        sym = out[0][0]
        if alphabet.involutive:
            out = out[1:-1]
            continue
        merged = out[0][1] + out[-1][1]
        if merged == 0:
            out = out[1:-1]
        else:
            out = [(sym, merged)] + out[1:-1]
            break
    return out


def dehn_reduce_syllables(alphabet: Alphabet, sylls, R: SymmetrisedSet,
                          check_c16=True) -> DehnResult:
    """dehn_reduce on run-length input; avoids materialising long words."""
    if check_c16:
        holds, witness = check_metric_condition(R, Fraction(1, 6))
        if not holds:
            raise PresentationNotC16(str(witness))
    trace = DehnTrace()
    rel_elems = R.elements
    trace.half_threshold = min(len(r) for r in rel_elems) // 2
    sylls = _syllable_cyclic_reduce(alphabet, sylls)
    while True:
        if syllable_length(sylls) == 0:
            trace.max_overlap_at_fixpoint = 0
            break
        length, pos, rel = _best_overlap(sylls, rel_elems)
        trace.max_overlap_at_fixpoint = length
        if rel is None or length <= len(rel) // 2:
            break
        replacement = inverse_letters(alphabet, rel[length:])
        flat = from_syllables(sylls)
        n = len(flat)
        doubled = flat + flat
        new_flat = replacement + doubled[pos + length: pos + n]
        trace.steps.append((pos, rel, length))
        sylls = _syllable_cyclic_reduce(alphabet, to_syllables(alphabet, new_flat))
    return DehnResult(alphabet, sylls, trace)


def dehn_reduce(alphabet: Alphabet, letters, R: SymmetrisedSet,
                check_c16=True):
    """Greendlinger-justified greedy Dehn reduction of a cyclic word.

    While the cyclic word contains a factor V matching more than half of a
    symmetrised relator r = V C, replace V by C^-1 (strictly shorter) and
    cyclically reduce.  Longest eligible overlap first, ties leftmost.  On a
    C'(1/6) presentation the fixed point is empty iff the word is trivial;
    a nonempty fixed point plus the max-overlap statistic is the
    nontriviality certificate.
    """
    res = dehn_reduce_syllables(alphabet, to_syllables(alphabet, letters),
                                R, check_c16=check_c16)
    return res.word(), res.trace


def _best_overlap(sylls, rel_elems):
    """Longest (overlap, start, relator) of a relator prefix appearing as a
    factor of the cyclic word, ties leftmost; scans the run-length encoding
    (a factor can start mid-run only near the run's end, bounded by the
    relator's leading run)."""
    n_sylls = len(sylls)
    n_letters = syllable_length(sylls)
    max_lead = max(_leading_run(r) for r in rel_elems)
    max_rel = max(len(r) for r in rel_elems)

    def letters_from(si, off, want):
        out = []
        idx = si
        o = off
        steps = 0
        while len(out) < want and steps <= n_sylls + 1:
            s, e = sylls[idx % n_sylls]
            run = abs(e)
            sign = 1 if e > 0 else -1
            take = min(run - o, want - len(out))
            out.extend([(s, sign)] * take)
            idx += 1
            o = 0
            steps += 1
        return out

    best = (0, None, None)
    letter_index = 0
    for si in range(n_sylls):
        s, e = sylls[si]
        run = abs(e)
        offsets = {0}
        for back in range(1, min(run - 1, max_lead) + 1):
            offsets.add(run - back)
        for off in sorted(offsets):
            window = letters_from(si, off, min(max_rel, n_letters))
            pos = letter_index + off
            for rel in rel_elems:
                length = _lcp(window, rel)
                if length > best[0]:
                    best = (length, pos, rel)
        letter_index += run
    return best


def _leading_run(rel):
    s0, e0 = rel[0]
    n = 1
    while n < len(rel) and rel[n] == (s0, e0):
        n += 1
    return n
