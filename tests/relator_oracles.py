"""Form-then-deduplicate oracles for the relator lists and the Gale
enumeration, which form one representative per symmetry class instead."""

import itertools

from gnk.gamma import GaleDiagram
from gnk.words import CyclicWord


def distinct_cyclic_words(words) -> list:
    """The CyclicWord of each word, keeping only the first of each class up
    to rotation and inversion, in input order."""
    seen = set()
    out = []
    for w in words:
        cw = CyclicWord(w)
        key = min(cw.letters, cw.reversal().letters)
        if key not in seen:
            seen.add(key)
            out.append(cw)
    return out


def canonical_positions(l, positions):
    """Least position tuple over all 4l isometries of the 2l-gon."""
    n = 2 * l
    return min(tuple(sorted((sgn * p + r) % n for p in positions))
               for r in range(n) for sgn in (1, -1))


def standard_gale_brute_force(l):
    """Every diameter transversal, canonicalised and deduplicated through a
    seen-set, kept when it meets the half-plane condition."""
    seen = set()
    out = []
    for bits in itertools.product((0, 1), repeat=l):
        pos = canonical_positions(l, [p + b * l for p, b in enumerate(bits)])
        if pos not in seen:
            seen.add(pos)
            d = GaleDiagram(l, pos)
            if d.satisfies_halfplane_condition():
                out.append(d)
    out.sort(key=lambda d: d.positions)
    return out
