"""The certificate path as it read words before the one-pass reader: a token
alphabet, a parse and a reduction per call, a run-length encoding of the
reduced word, and the overlap scan over every element of R_*; and the Dehn
stack over (symbol, exponent) runs that copied the stack's suffix after
every push.  All of it works on (symbol, sign) letters.  The tests compare
the one-pass reader, the code reduction, the trie walks and the run stack
with these."""

from gnk.cancel import _lcp, _leading_run, syllable_length
from gnk.words import Alphabet, UnknownSymbolError


def old_token_alphabet(text, involutive):
    """Alphabet of the sorted distinct symbols of a word text."""
    tokens = {tok[:-3] if tok.endswith("^-1") else tok
              for tok in text.split() if tok != "1"}
    return Alphabet(sorted(tokens), involutive=involutive)


def old_parse_letters(text):
    """Raw letters of the whitespace token grammar, one token at a time."""
    letters = []
    for tok in text.split():
        if tok.endswith("^-1"):
            letters.append((tok[:-3], -1))
        elif tok == "1":
            continue
        else:
            letters.append((tok, 1))
    return letters


def old_reduce_letters(alphabet, letters):
    """Free reduction by a stack pass that validates every letter."""
    index = alphabet.index
    invol = alphabet.involutive
    out = []
    for symbol, sign in letters:
        if symbol not in index:
            raise UnknownSymbolError(symbol)
        if sign != 1 and sign != -1:
            raise ValueError("sign must be +1 or -1")
        if invol:
            sign = 1
        if out and out[-1][0] == symbol and (invol or out[-1][1] == -sign):
            out.pop()
        else:
            out.append((symbol, sign))
    return tuple(out)


def old_to_syllables(alphabet, letters):
    """Run-length encoding of the free reduction of ``letters``."""
    out = []
    for s, e in old_reduce_letters(alphabet, letters):
        if out and out[-1][0] == s:
            out[-1] = (s, out[-1][1] + e)
        else:
            out.append((s, e))
    return out


def best_overlap(sylls, rel_elems):
    """Longest (overlap, start, relator) of a relator prefix appearing as a
    factor of the cyclic word, ties leftmost; scans the run-length encoding
    (a factor can start mid-run only near the run's end, bounded by the
    relator's leading run).  Every start is compared with every element of
    R_*, in O(L |R_*| max |r|)."""
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


# ---------------------------------------------------------------------------
# the Dehn stack over (symbol, exponent) runs, as it was before it moved to
# (code, count) runs and a suffix trie: the suffix of the stack is copied
# after every push and looked up in the replacement table, longest first


def old_runs(letters):
    """Run-length encoding of a freely reduced (symbol, sign) sequence."""
    out = []
    for s, e in letters:
        if out and out[-1][0] == s:
            out[-1] = (s, out[-1][1] + e)
        else:
            out.append((s, e))
    return out


def old_inverse_letters(alphabet, letters):
    if alphabet.involutive:
        return tuple(reversed(letters))
    return tuple((s, -e) for s, e in reversed(letters))


def old_replacement_table(alphabet, rel_elems):
    """Every prefix V, |V| > |r|/2, of each r = V C in R_*, mapped to
    (r, C^-1 as runs); the first element in the given order wins."""
    table = {}
    for r in rel_elems:
        for k in range(len(r) // 2 + 1, len(r) + 1):
            if r[:k] not in table:
                table[r[:k]] = (r, old_runs(old_inverse_letters(alphabet,
                                                                r[k:])))
    return table


def _old_last_letters(runs, m):
    out = []
    i = len(runs) - 1
    while len(out) < m:
        s, e = runs[i]
        out.extend([(s, 1 if e > 0 else -1)] * min(abs(e), m - len(out)))
        i -= 1
    out.reverse()
    return out


def _old_pop_letters(runs, k):
    while k:
        s, e = runs.pop()
        if abs(e) > k:
            runs.append((s, e - k if e > 0 else e + k))
            return
        k -= abs(e)


def _old_stack_pass(alphabet, sylls, table, steps):
    invol = alphabet.involutive
    lengths = sorted({len(v) for v in table}, reverse=True)
    max_run = max(_leading_run(r) for r, _ in table.values())
    stack = []
    size = 0
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
        suffix = _old_last_letters(stack, min(lengths[0], size))
        for k in lengths:
            hit = k <= len(suffix) and table.get(tuple(suffix[-k:]))
            if hit:
                rel, replacement = hit
                _old_pop_letters(stack, k)
                size -= k
                steps.append((size, rel, k))
                todo.extend(reversed(replacement))
                break
    return stack


def _old_cancel_seam(alphabet, runs):
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


def _old_seam_match(runs, table):
    length = syllable_length(runs)
    longest = min(max(len(v) for v in table), length)
    tail = _old_last_letters(runs, longest - 1)
    head = _old_last_letters(runs[::-1], longest - 1)[::-1]
    for t in range(1, len(tail) + 1):
        for k in range(t + 1, longest + 1):
            if tuple(tail[len(tail) - t:] + head[:k - t]) in table:
                return (length - t - (length - k) // 2) % length
    return None


def _old_rotate(runs, offset):
    for i, (s, e) in enumerate(runs):
        if offset < abs(e):
            sign = 1 if e > 0 else -1
            head = [(s, sign * offset)] if offset else []
            return [(s, e - sign * offset)] + runs[i + 1:] + runs[:i] + head
        offset -= abs(e)


def old_dehn_reduce_syllables(alphabet, sylls, rel_elems):
    """(fixpoint runs, steps) of the Dehn reduction of (symbol, exponent)
    runs by the sorted (symbol, sign) elements of R_*; the presentation is
    taken to be C'(1/6)."""
    table = old_replacement_table(alphabet, rel_elems)
    steps = []
    runs = _old_cancel_seam(alphabet, _old_stack_pass(alphabet, sylls, table,
                                                      steps))
    while runs:
        cut = _old_seam_match(runs, table)
        if cut is None:
            break
        runs = _old_cancel_seam(alphabet, _old_stack_pass(
            alphabet, _old_rotate(runs, cut), table, steps))
    return runs, steps


def old_format_letters(letters):
    """Text of (symbol, sign) letters, as format_word printed them."""
    return " ".join(s if e == 1 else s + "^-1" for s, e in letters)
