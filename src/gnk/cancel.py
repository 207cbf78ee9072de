"""Small-cancellation toolkit: pieces, C'(lambda), C(p), T(q), Dehn reduction.

Relators and words come in as (symbol, sign) letters over an Alphabet
(usually free, i.e. non-involutive) and are worked on as the alphabet's
letter codes.  The symmetrisation of a relator set is the deduplicated
closure under cyclic rotation and inversion, each element cyclically
reduced; a piece is a common beginning of two distinct elements of the
symmetrisation.

dehn_reduce works on a run-length (syllable) encoding of the cyclic word in
one stack pass, so words like nested-commutator powers with millions of
letters stay cheap: a relator factor can overlap a long run only near its
ends.  Runs come in and go out as (symbol, exponent) pairs and are worked on
as (code, count) pairs, count > 0.
"""

from __future__ import annotations

from fractions import Fraction

from .words import (Alphabet, Word, cyclic_reduce, inverse_letters,
                    reduce_letters)


class PresentationNotC16(Exception):
    """dehn_reduce demands a verified C'(1/6) presentation."""


class SymmetrisedSet:
    """Closure of a relator set, given as (symbol, sign) sequences, under
    rotation and inversion, deduplicated; the elements are sorted code
    tuples."""

    def __init__(self, alphabet: Alphabet, relators):
        self.alphabet = alphabet
        elems = set()
        for r in relators:
            letters = cyclic_reduce(alphabet, reduce_letters(
                alphabet, alphabet.encode(r)))
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

    Returns (holds, witness); the witness is a violating (r, u) pair of
    code tuples, r the violator that comes first as (symbol, sign) letters
    sort, so that the witness does not depend on the letter codes."""
    lam = Fraction(lam)
    bad = [(r, n) for r, n in max_piece_prefixes(R).items()
           if n and not Fraction(n) < lam * len(r)]
    if not bad:
        return True, None
    r, n = min(bad, key=lambda rn: R.alphabet.decode(rn[0]))
    return False, (r, r[:n])


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
        last_inv = alphabet.inverse(u[-1])
        u_inv = inverse_letters(alphabet, u)
        for v in elems:
            if v != u_inv and v[0] == last_inv:
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


def _runs(codes):
    """(code, count) runs of a code sequence."""
    out = []
    for c in codes:
        if out and out[-1][0] == c:
            out[-1] = (c, out[-1][1] + 1)
        else:
            out.append((c, 1))
    return out


def _symbol_runs(alphabet, runs):
    """(symbol, exponent) runs of (code, count) runs."""
    return [(s, e * n) for (s, e), (_, n)
            in zip(alphabet.decode(c for c, _ in runs), runs)]


def to_syllables(alphabet, letters):
    """(symbol, exponent) runs of the free reduction of the codes
    ``letters``."""
    return _symbol_runs(alphabet, _runs(reduce_letters(alphabet, letters)))


def syllable_length(sylls):
    return sum(abs(e) for _, e in sylls)


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
    """Fixed point of the reduction, kept as (code, count) runs (words can
    be huge); ``syllables`` is its (symbol, exponent) view, and .word()
    materialises it when small."""

    def __init__(self, alphabet, runs, trace):
        self.alphabet = alphabet
        self.runs = runs
        self.trace = trace

    @property
    def syllables(self):
        return _symbol_runs(self.alphabet, self.runs)

    @property
    def letter_count(self):
        return syllable_length(self.runs)

    def is_trivial(self):
        return self.letter_count == 0

    def word(self):
        return Word(self.alphabet, [c for c, n in self.runs for _ in range(n)])

    def __repr__(self):
        return "DehnResult(letters=%d, %r)" % (self.letter_count, self.trace)


def _replacement_trie(alphabet, rel_elems):
    """Every prefix V, |V| > |r|/2, of each r = V C in R_*, with (r, C^-1
    as runs), in a trie of the V read last letter first: the node a V ends
    at holds its entry under ``None``.

    The last k letters of s in R_* are the prefix V of its rotation
    r = s[-k:] + s[:-k], also in R_*, with C = s[:-k]; so one walk back from
    the end of each element meets every V.  Under C'(1/6) no two elements
    share such a prefix; without it the first element in sorted order
    wins.  C^-1 is reduced, as r is, so it is run-length encoded as it
    stands."""
    rank = {r: i for i, r in enumerate(rel_elems)}
    trie = {}
    for s in rel_elems:
        n = len(s)
        inverse = inverse_letters(alphabet, s)      # C^-1 is inverse[k:]
        node = trie
        for k, c in enumerate(reversed(s), 1):
            node = node.setdefault(c, {})
            if 2 * k > n:
                r = s[n - k:] + s[:n - k]
                if None not in node or rank[r] < rank[node[None][0]]:
                    node[None] = (r, _runs(inverse[k:]))
    return trie


def _longest_key(trie, runs):
    """(length, entry) of the longest key of a ``_replacement_trie`` that
    ends the run list ``runs``, found by one walk down the trie from its
    last letter; None if no key ends it."""
    node, depth, hit = trie, 0, None
    for c, n in reversed(runs):
        for _ in range(n):
            node = node.get(c)
            if node is None:
                return hit
            depth += 1
            if None in node:
                hit = depth, node[None]
    return hit


def _last_letters(runs, m):
    """The last m codes of a run list (m at most its length)."""
    out = []
    i = len(runs) - 1
    while len(out) < m:
        c, n = runs[i]
        out.extend([c] * min(n, m - len(out)))
        i -= 1
    out.reverse()
    return out


def _stack_pass(alphabet, runs, trie, max_run, steps):
    """One left-to-right pass of Dehn's algorithm over (code, count) runs.

    Letters are pushed onto a stack of runs and cancel freely against its
    top (g g cancels too when the alphabet is involutive).  After each push
    ``trie`` is walked down from the stack top, and the longest suffix of
    the stack that is a key of it is popped and its C^-1 fed back in as
    input, so the stack backs up only as far as a replacement reaches.  The
    returned runs are freely reduced and have no factor that is a key.

    Once the top run is longer than ``max_run``, the longest run in any
    element of R_* (by rotation, its longest leading run), a suffix that
    covers the whole run is in no element, and one inside the run was looked
    up one letter earlier; so only the first ``max_run`` letters of a run
    are pushed one at a time, and the rest of it in one step.
    The fixpoint's overlap statistic is read afterwards (``_max_overlap``).
    """
    invol, inverse = alphabet.involutive, alphabet.inverse
    stack = []          # runs; neighbouring runs are of distinct symbols
    size = 0            # letters on the stack
    todo = runs[::-1]
    while todo:
        c, n = todo.pop()
        if invol:
            n %= 2
        if n == 0:
            continue
        if stack and stack[-1][0] == inverse(c):
            top, m = stack.pop()
            k = min(m, n)
            if m > k:
                stack.append((top, m - k))
            size -= k
            if n > k:
                todo.append((c, n - k))
            continue
        if stack and stack[-1][0] == c:
            m = stack[-1][1]
            if m >= max_run:
                stack[-1] = (c, m + n)
                size += n
                continue
            stack[-1] = (c, m + 1)
        else:
            stack.append((c, 1))
        size += 1
        if n > 1:
            todo.append((c, n - 1))
        hit = _longest_key(trie, stack)
        if hit:
            k, (rel, replacement) = hit
            size -= k
            steps.append((size, rel, k))
            while k:
                top, m = stack.pop()
                if m > k:
                    stack.append((top, m - k))
                    break
                k -= m
            todo.extend(reversed(replacement))
    return stack


def _cancel_seam(alphabet, runs):
    """Cancel letters across the seam of a freely reduced run list.  Runs
    of one letter meeting at the seam stay apart, so the result is a factor
    of the input."""
    lo, hi = 0, len(runs)
    while hi - lo >= 2 and runs[lo][0] == alphabet.inverse(runs[hi - 1][0]):
        (c, a), (d, b) = runs[lo], runs[hi - 1]
        if a > b:
            return [(c, a - b)] + runs[lo + 1:hi - 1]
        if a < b:
            return runs[lo + 1:hi - 1] + [(d, b - a)]
        lo, hi = lo + 1, hi - 1
    return runs[lo:hi]


def _seam_match(runs, trie, longest):
    """Letter offset at which to cut the cyclic word so that a key of
    ``trie``, of at most ``longest`` letters, across its seam lies inside
    it, or None if there is none."""
    length = syllable_length(runs)
    longest = min(longest, length)
    tail = _last_letters(runs, longest - 1)
    # runs are uniform, so reversing the run list reverses the word
    head = _last_letters(runs[::-1], longest - 1)[::-1]
    for t in range(1, len(tail) + 1):
        for k in range(t + 1, longest + 1):
            seam = [(c, 1) for c in tail[len(tail) - t:] + head[:k - t]]
            hit = _longest_key(trie, seam)
            if hit and hit[0] == k:
                return (length - t - (length - k) // 2) % length
    return None


def _rotate(runs, offset):
    """The run list of the cyclic word read from letter ``offset`` (less
    than its length)."""
    for i, (c, n) in enumerate(runs):
        if offset < n:
            head = [(c, offset)] if offset else []
            return [(c, n - offset)] + runs[i + 1:] + runs[:i] + head
        offset -= n


def dehn_reduce_syllables(alphabet: Alphabet, sylls,
                          R: SymmetrisedSet) -> DehnResult:
    """dehn_reduce on (symbol, exponent) runs; never expands a run to
    letters.  ``trace.max_overlap_at_fixpoint`` is read by walking a trie of
    R_* from each start a factor can have: O(max |r|) per start
    (``_max_overlap``)."""
    holds, witness = check_metric_condition(R, Fraction(1, 6))
    if not holds:
        raise PresentationNotC16(str(tuple(map(R.alphabet.decode, witness))))
    sylls = list(sylls)
    codes = alphabet.encode((s, 1 if e > 0 else -1) for s, e in sylls)
    runs = [(c, abs(e)) for c, (_, e) in zip(codes, sylls)]
    trace = DehnTrace()
    rel_elems = R.elements
    trace.half_threshold = min(len(r) for r in rel_elems) // 2
    trie = _replacement_trie(alphabet, rel_elems)
    max_run = max(_leading_run(r) for r in rel_elems)
    longest = max(len(r) for r in rel_elems)
    runs = _cancel_seam(alphabet, _stack_pass(alphabet, runs, trie, max_run,
                                              trace.steps))
    # a factor across the seam: cut the cyclic word opposite it and pass
    # again; each such pass replaces at least once, so the length falls
    while runs:
        cut = _seam_match(runs, trie, longest)
        if cut is None:
            break
        runs = _cancel_seam(alphabet, _stack_pass(
            alphabet, _rotate(runs, cut), trie, max_run, trace.steps))
    if runs:
        trace.max_overlap_at_fixpoint = _max_overlap(runs, rel_elems)
    return DehnResult(alphabet, runs, trace)


def dehn_reduce(alphabet: Alphabet, letters, R: SymmetrisedSet):
    """Greendlinger-justified Dehn reduction of a cyclic word given as
    (symbol, sign) letters.

    Wherever the cyclic word contains a factor V matching more than half of
    a symmetrised relator r = V C, replace V by C^-1 (strictly shorter) and
    reduce freely, in one left-to-right stack pass (time linear in the
    word's length) followed by passes for factors across the seam.  On a
    C'(1/6) presentation the fixed point is empty iff the word is trivial;
    a nonempty fixed point plus the max-overlap statistic is the
    nontriviality certificate.  ``trace.steps`` lists the replacements made,
    as (offset of V in the word the pass was building, r, |V|).
    """
    res = dehn_reduce_syllables(
        alphabet, to_syllables(alphabet, alphabet.encode(letters)), R)
    return res.word(), res.trace


def _max_overlap(runs, rel_elems):
    """Longest prefix of an element of R_* that is a factor of the cyclic
    (code, count) run list, by walks down a trie of R_* from each run's
    first and last ``max_lead`` letters (a factor starts mid-run only that
    near its end)."""
    trie = {}
    for r in rel_elems:
        node = trie
        for letter in r:
            node = node.setdefault(letter, {})
    max_lead = max(_leading_run(r) for r in rel_elems)
    n_letters = syllable_length(runs)
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
    n = 1
    while n < len(rel) and rel[n] == rel[0]:
        n += 1
    return n
