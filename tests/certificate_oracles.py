"""The certificate path as it read words before the one-pass reader: a token
alphabet, a parse and a reduction per call, a run-length encoding of the
reduced word, and the overlap scan over every element of R_*.  The tests
compare the one-pass reader, the table-driven reduction and the trie walk
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
