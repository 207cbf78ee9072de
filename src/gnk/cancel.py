"""Small-cancellation toolkit: pieces, C'(lambda), C(p), T(q), Dehn reduction.

Words here are plain (symbol, sign) letter tuples over an Alphabet (usually
free, i.e. non-involutive).  The symmetrisation of a relator set is the
deduplicated closure under cyclic rotation and inversion, each element
cyclically reduced; a piece is a common beginning of two distinct elements
of the symmetrisation.

dehn_reduce works on a run-length (syllable) encoding of the cyclic word in
one stack pass, so words like nested-commutator powers with millions of
letters stay cheap: a relator factor can overlap a long run only near its
ends.
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


def check_cp(R: SymmetrisedSet, p: int) -> bool:
    """C(p): every element of R_* is a product of at least p pieces.

    Elements that cannot be written as products of pieces at all satisfy the
    condition vacuously.  Greedy interval cover gives the minimum count
    because prefixes of pieces are pieces.  The longest piece starting at
    position pos of r is a prefix of the rotation r[pos:] + r[:pos], itself
    an element of R_*, so ``max_piece_prefixes`` gives it.
    """
    if p < 2:
        raise ValueError("need p >= 2")
    prefixes = max_piece_prefixes(R)
    for r in R.elements:
        pos = count = 0
        while pos < len(r):
            jump = min(prefixes[r[pos:] + r[:pos]], len(r) - pos)
            if jump == 0:
                break
            pos += jump
            count += 1
        else:
            if count < p:
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
        u_inv = inverse_letters(alphabet, u)
        for v in elems:
            if v == u_inv:
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


def _runs(letters):
    """Run-length encoding of a freely reduced letter sequence."""
    out = []
    for s, e in letters:
        if out and out[-1][0] == s:       # reduced: equal neighbours agree in sign
            out[-1] = (s, out[-1][1] + e)
        else:
            out.append((s, e))
    return out


def to_syllables(alphabet, letters):
    """Run-length encoding of the free reduction of ``letters``."""
    return _runs(reduce_letters(alphabet, letters))


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


def _replacement_table(alphabet, rel_elems):
    """Every prefix V, |V| > |r|/2, of each r = V C in R_*, mapped to
    (r, C^-1 as runs).  Under C'(1/6) no two elements share such a prefix;
    without it the first element in sorted order wins.  C^-1 is reduced,
    as r is, so it is run-length encoded as it stands."""
    table = {}
    for r in rel_elems:
        for k in range(len(r) // 2 + 1, len(r) + 1):
            if r[:k] not in table:
                table[r[:k]] = (r, _runs(inverse_letters(alphabet, r[k:])))
    return table


def _last_letters(runs, m):
    """The last m letters of a run list (m at most its length)."""
    out = []
    i = len(runs) - 1
    while len(out) < m:
        s, e = runs[i]
        out.extend([(s, 1 if e > 0 else -1)] * min(abs(e), m - len(out)))
        i -= 1
    out.reverse()
    return out


def _pop_letters(runs, k):
    while k:
        s, e = runs.pop()
        if abs(e) > k:
            runs.append((s, e - k if e > 0 else e + k))
            return
        k -= abs(e)


def _stack_pass(alphabet, sylls, table, steps):
    """One left-to-right pass of Dehn's algorithm over run-length input.

    Letters are pushed onto a stack of runs and cancel freely against its
    top (g g cancels too when the alphabet is involutive).  After each push
    the stack's suffixes are looked up in ``table``; a hit V is popped and
    its C^-1 fed back in as input, so the stack backs up only as far as a
    replacement reaches.  The returned runs are freely reduced and have no
    factor in ``table``.

    Once the top run is longer than ``max_run``, the longest run in any
    element of R_* (by rotation, its longest leading run), a suffix that
    covers the whole run is in no element, and one inside the run was looked
    up one letter earlier; so only the first ``max_run`` letters of a run
    are pushed one at a time, and the rest of it in one step.
    The fixpoint's overlap statistic is read afterwards (``_max_overlap``).
    """
    invol = alphabet.involutive
    lengths = sorted({len(v) for v in table}, reverse=True)
    max_run = max(_leading_run(r) for r, _ in table.values())
    stack = []          # runs; neighbouring runs have distinct symbols
    size = 0            # letters on the stack
    todo = list(sylls)[::-1]
    while todo:
        sym, exp = todo.pop()
        if invol:
            exp %= 2
        if exp == 0:
            continue
        sign = 1 if exp > 0 else -1
        if stack and stack[-1][0] == sym:
            top = stack[-1][1]
            if invol or (top > 0) != (exp > 0):
                n = min(abs(top), abs(exp))
                stack.pop()
                if abs(top) > n:
                    stack.append((sym, top + sign * n))
                size -= n
                if abs(exp) > n:
                    todo.append((sym, exp - sign * n))
                continue
            if abs(top) >= max_run:
                stack[-1] = (sym, top + exp)
                size += abs(exp)
                continue
            stack[-1] = (sym, top + sign)
        else:
            stack.append((sym, sign))
        size += 1
        if exp != sign:
            todo.append((sym, exp - sign))
        suffix = _last_letters(stack, min(lengths[0], size))
        for k in lengths:
            hit = k <= len(suffix) and table.get(tuple(suffix[-k:]))
            if hit:
                rel, replacement = hit
                _pop_letters(stack, k)
                size -= k
                steps.append((size, rel, k))
                todo.extend(reversed(replacement))
                break
    return stack


def _cancel_seam(alphabet, runs):
    """Cancel letters across the seam of a freely reduced run list.  Runs
    of one letter meeting at the seam stay apart, so the result is a factor
    of the input."""
    lo, hi = 0, len(runs)
    while hi - lo >= 2 and runs[lo][0] == runs[hi - 1][0]:
        (s, a), (_, b) = runs[lo], runs[hi - 1]
        if alphabet.involutive or a + b == 0:
            lo, hi = lo + 1, hi - 1
        elif (a > 0) == (b > 0):
            break
        elif abs(a) > abs(b):
            return [(s, a + b)] + runs[lo + 1:hi - 1]
        else:
            return runs[lo + 1:hi - 1] + [(s, a + b)]
    return runs[lo:hi]


def _seam_match(runs, table):
    """Letter offset at which to cut the cyclic word so that a factor in
    ``table`` across its seam lies inside it, or None if there is none."""
    length = syllable_length(runs)
    longest = min(max(len(v) for v in table), length)
    tail = _last_letters(runs, longest - 1)
    # runs are uniform, so reversing the run list reverses the word
    head = _last_letters(runs[::-1], longest - 1)[::-1]
    for t in range(1, len(tail) + 1):
        for k in range(t + 1, longest + 1):
            if tuple(tail[len(tail) - t:] + head[:k - t]) in table:
                return (length - t - (length - k) // 2) % length
    return None


def _rotate(runs, offset):
    """The run list of the cyclic word read from letter ``offset`` (less
    than its length)."""
    for i, (s, e) in enumerate(runs):
        if offset < abs(e):
            sign = 1 if e > 0 else -1
            head = [(s, sign * offset)] if offset else []
            return [(s, e - sign * offset)] + runs[i + 1:] + runs[:i] + head
        offset -= abs(e)


def dehn_reduce_syllables(alphabet: Alphabet, sylls,
                          R: SymmetrisedSet) -> DehnResult:
    """dehn_reduce on run-length input; never expands a run to letters.
    ``trace.max_overlap_at_fixpoint`` is read by walking a trie of R_* from
    each start a factor can have: O(max |r|) per start (``_max_overlap``)."""
    holds, witness = check_metric_condition(R, Fraction(1, 6))
    if not holds:
        raise PresentationNotC16(str(witness))
    trace = DehnTrace()
    rel_elems = R.elements
    trace.half_threshold = min(len(r) for r in rel_elems) // 2
    table = _replacement_table(alphabet, rel_elems)
    runs = _cancel_seam(alphabet, _stack_pass(alphabet, sylls, table,
                                              trace.steps))
    # a factor across the seam: cut the cyclic word opposite it and pass
    # again; each such pass replaces at least once, so the length falls
    while runs:
        cut = _seam_match(runs, table)
        if cut is None:
            break
        runs = _cancel_seam(alphabet, _stack_pass(
            alphabet, _rotate(runs, cut), table, trace.steps))
    if runs:
        trace.max_overlap_at_fixpoint = _max_overlap(runs, rel_elems)
    return DehnResult(alphabet, runs, trace)


def dehn_reduce(alphabet: Alphabet, letters, R: SymmetrisedSet):
    """Greendlinger-justified Dehn reduction of a cyclic word.

    Wherever the cyclic word contains a factor V matching more than half of
    a symmetrised relator r = V C, replace V by C^-1 (strictly shorter) and
    reduce freely, in one left-to-right stack pass (time linear in the
    word's length) followed by passes for factors across the seam.  On a
    C'(1/6) presentation the fixed point is empty iff the word is trivial;
    a nonempty fixed point plus the max-overlap statistic is the
    nontriviality certificate.  ``trace.steps`` lists the replacements made,
    as (offset of V in the word the pass was building, r, |V|).
    """
    res = dehn_reduce_syllables(alphabet, to_syllables(alphabet, letters), R)
    return res.word(), res.trace


def _max_overlap(runs, rel_elems):
    """Longest prefix of an element of R_* that is a factor of the cyclic
    run list, by walks down a trie of R_* from each run's first and last
    ``max_lead`` letters (a factor starts mid-run only that near its end)."""
    trie = {}
    for r in rel_elems:
        node = trie
        for letter in r:
            node = node.setdefault(letter, {})
    max_lead = max(_leading_run(r) for r in rel_elems)
    runs = [((s, 1 if e > 0 else -1), abs(e)) for s, e in runs]
    n_letters = sum(size for _, size in runs)
    best = 0
    for si, (_, size) in enumerate(runs):
        # a start leaves ``left`` letters of its run to read
        for left in {size, *range(1, min(size - 1, max_lead) + 1)}:
            node, depth, i = trie, 0, si
            while depth < n_letters:
                letter, steps = runs[i][0], 0
                while steps < left and letter in node:
                    node = node[letter]
                    steps += 1
                depth += steps
                if steps < left:
                    break
                i = (i + 1) % len(runs)
                left = runs[i][1]
            best = max(best, min(depth, n_letters))
    return best


def _leading_run(rel):
    s0, e0 = rel[0]
    n = 1
    while n < len(rel) and rel[n] == (s0, e0):
        n += 1
    return n
