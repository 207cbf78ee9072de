"""Independent oracles for the benchmark's checks.

Everything here is written from the mathematical definitions, without
calling into ``gnk``: free reduction, strand deletion of pure braids,
symmetrised relator sets and pieces, exponent sums, exact integer
genericity predicates, a Fraction replay of Ptolemy flips, and an
evaluator for the printed form of flip labels.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction


class Mismatch(Exception):
    """A job's output disagrees with its oracle or reference."""


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# words


def tokens(text):
    """Letters of a printed word as (symbol, sign) pairs; "1" is empty."""
    out = []
    for tok in (text or "").split():
        if tok == "1":
            continue
        if tok.endswith("^-1"):
            out.append((tok[:-3], -1))
        else:
            out.append((tok, 1))
    return tuple(out)


def free_reduce(letters, involutive):
    """Stack reduction: g g^-1 cancels; g g cancels when involutive."""
    out = []
    for sym, sign in letters:
        if involutive:
            sign = 1
        if out and out[-1][0] == sym and (involutive or out[-1][1] == -sign):
            out.pop()
        else:
            out.append((sym, sign))
    return tuple(out)


def inverse(letters, involutive=False):
    return tuple((s, 1 if involutive else -e) for s, e in reversed(letters))


def exponent_sums(letters):
    sums = {}
    for s, e in letters:
        sums[s] = sums.get(s, 0) + e
    return sums


def format_letters(letters):
    return " ".join(s if e == 1 else s + "^-1" for s, e in letters)


# ---------------------------------------------------------------------------
# pure braids


def delete_strand(letters, m):
    """p_m on ((i, j), e) letters: drop strand m, shift labels above it."""
    out = []
    for (i, j), e in letters:
        if m in (i, j):
            continue
        out.append(((i - (i > m), j - (j > m)), e))
    return free_reduce(out, involutive=False)


def braid_text(letters):
    return " ".join("b_%d_%d%s" % (i, j, "" if e == 1 else "^-1")
                    for (i, j), e in letters)


def parse_braid_text(text):
    out = []
    for sym, e in tokens(text):
        _, i, j = sym.split("_")
        out.append(((int(i), int(j)), e))
    return tuple(out)


# ---------------------------------------------------------------------------
# small cancellation


def symmetrised(relators):
    """Rotations of each cyclically reduced relator and of its inverse."""
    elems = set()
    for r in relators:
        r = list(free_reduce(r, involutive=False))
        while len(r) >= 2 and r[0][0] == r[-1][0] and r[0][1] == -r[-1][1]:
            r = list(free_reduce(r[1:-1], involutive=False))
        for base in (tuple(r), inverse(r)):
            for t in range(len(base)):
                elems.add(base[t:] + base[:t])
    return elems


def metric_condition_holds(relators, lam):
    """C'(lam) by brute force over all ordered pairs of distinct elements."""
    elems = sorted(symmetrised(relators))
    for u, v in itertools.permutations(elems, 2):
        n = 0
        for a, b in zip(u, v):
            if a != b:
                break
            n += 1
        if n and not Fraction(n) < lam * len(u):
            return False, len(elems)
    return True, len(elems)


def in_relator_lattice(vector, relator_vector):
    """Is an exponent-sum vector an integer multiple of a single relator's?
    If not, the word is nontrivial in the one-relator group."""
    ratio = None
    for k in set(vector) | set(relator_vector):
        a, b = vector.get(k, 0), relator_vector.get(k, 0)
        if b == 0:
            if a != 0:
                return False
        elif a % b or ratio not in (None, a // b):
            return False
        else:
            ratio = a // b
    return True


# ---------------------------------------------------------------------------
# exact integer predicates for input screening


def orient2d(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def incircle(a, b, c, d):
    rows = []
    for p in (a, b, c):
        dx, dy = p[0] - d[0], p[1] - d[1]
        rows.append((dx, dy, dx * dx + dy * dy))
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    return (a2 * (b0 * c1 - c0 * b1) - b2 * (a0 * c1 - c0 * a1)
            + c2 * (a0 * b1 - b0 * a1))


def orient3d(a, b, c, d):
    u = [b[i] - a[i] for i in range(3)]
    v = [c[i] - a[i] for i in range(3)]
    w = [d[i] - a[i] for i in range(3)]
    return (u[0] * (v[1] * w[2] - v[2] * w[1])
            - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def delaunay_triangles(points):
    """Lower-hull Delaunay triangulation of exact rational points, brute
    force; used only on small point sets."""
    lift = [(x, y, x * x + y * y) for x, y in points]
    tris = set()
    for a, b, c in itertools.combinations(range(len(points)), 3):
        o = orient2d(points[a], points[b], points[c])
        if o == 0:
            continue
        if all((orient3d(lift[a], lift[b], lift[c], lift[x]) * o) > 0
               for x in range(len(points)) if x not in (a, b, c)):
            tris.add((a + 1, b + 1, c + 1))
    return tris


# ---------------------------------------------------------------------------
# Ptolemy flips


def interior_diagonals(triangles):
    count = {}
    for t in triangles:
        for e in itertools.combinations(sorted(t), 2):
            count[e] = count.get(e, 0) + 1
    return sorted(e for e, c in count.items() if c == 2)


def flip(triangles, e):
    """Flip diagonal e; returns (new triangles, new diagonal, quad)."""
    a, b = e
    ts = [t for t in triangles if a in t and b in t]
    p, q = [next(v for v in t if v not in e) for t in ts]
    new = set(triangles) - set(ts)
    new |= {tuple(sorted((p, q, a))), tuple(sorted((p, q, b)))}
    return new, tuple(sorted((p, q))), (a, b, p, q)


def ptolemy_replay(triangles, values, moves):
    """Replay flips on Fraction labels: x y = (opposite sides) + (opposite
    sides) on the quadrilateral around the flipped diagonal.  Returns the
    final labels and the label created by each flip."""
    labels = dict(values)
    tris = set(triangles)
    created = []
    for e in moves:
        tris, new, (a, b, p, q) = flip(tris, tuple(sorted(e)))

        def lab(u, v):
            return labels[tuple(sorted((u, v)))]
        y = (lab(p, a) * lab(q, b) + lab(a, q) * lab(b, p)) / lab(a, b)
        del labels[tuple(sorted((a, b)))]
        labels[new] = y
        created.append((new, y))
    return labels, created, tris


_TERM_SPLIT = re.compile(r" ([+-]) ")


def eval_polynomial_text(text, values):
    """Value of a printed polynomial: terms joined by ' + ' / ' - ', each a
    coefficient and/or '*'-joined factors 'v' or 'v^e'."""
    parts = _TERM_SPLIT.split(text.strip())
    total = Fraction(0)
    sign = 1
    for idx, part in enumerate(parts):
        if idx % 2:
            sign = 1 if part == "+" else -1
            continue
        term_sign = sign
        if part.startswith("-"):
            term_sign, part = -term_sign, part[1:]
        value = Fraction(1)
        for factor in part.split("*"):
            if factor[0].isdigit():
                value *= Fraction(factor)
            elif "^" in factor:
                name, exp = factor.split("^")
                value *= values[name] ** int(exp)
            else:
                value *= values[factor]
        total += term_sign * value
    return total


def eval_label_text(text, values):
    """Value of a printed label: 'poly' or '(poly) / (poly)'."""
    if text.startswith("(") and ") / (" in text:
        num, den = text[1:-1].split(") / (")
        return eval_polynomial_text(num, values) / eval_polynomial_text(den, values)
    return eval_polynomial_text(text, values)
