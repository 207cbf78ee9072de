"""Seeded inputs and job lists of the three workloads.

Each workload is a fixed list of job *slots*: the kind of job, its size
(strand count, word length, point count, flip count) and its target are
the same for every seed; the seed only draws the letters, coordinates and
relators that fill the slots.  The cost of a pass therefore depends on the
code under test and hardly on the seed, and the same seed always gives the
same files.  README.md in this directory says why each input family is in
its workload.

A job is one in-process call of ``gnk.cli.main([... "--format", "json"])``
or, where no subcommand covers it, one call of a public library function.
Its output is checked after it is timed (see ``Job``).
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import oracles
from oracles import expect, tokens

import gnk.braids as braids
import gnk.cancel as cancel
import gnk.cli as cli
import gnk.fliplab as fliplab
import gnk.gamma as gamma
import gnk.geometry as geometry
import gnk.gnk as gnkmod
from gnk.words import Alphabet


class Job:
    """One timed call plus its untimed check.

    ``call()`` is the timed part.  ``content(raw)`` turns its result into
    comparable mathematical content (letters, counts, ranks, labels, exit
    codes), and ``check(content)`` raises ``Mismatch`` when that content is
    wrong.  ``defect`` names a known defect of the program that makes the
    check fail at the seed commit; such failures are counted in
    ``failed`` like any other but do not make the run incorrect.
    """

    __slots__ = ("name", "call", "content", "check", "defect")

    def __init__(self, name, call, content, check, defect=None):
        self.name = name
        self.call = call
        self.content = content
        self.check = check
        self.defect = defect


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(["--format", "json"] + argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def cli_json(raw):
    code, text = raw
    return code, (json.loads(text) if code == 0 and text.strip() else None)


def cli_job(name, argv, check, defect=None):
    return Job(name, lambda: run_cli(argv), cli_json, check, defect)


def expect_ok(content):
    code, payload = content
    expect(code == 0, "exit code %r" % (code,))
    return payload


class Inputs:
    """Writes the generated files of one run under ``root``."""

    def __init__(self, root):
        self.root = root
        self.count = 0

    def write(self, stem, text):
        self.count += 1
        path = os.path.join(self.root, "%03d-%s" % (self.count, stem))
        with open(path, "w") as fh:
            fh.write(text)
        return path


# ---------------------------------------------------------------------------
# presentations: words, gnk, gamma, braids


def _random_braid(rng, n, length):
    """A reduced braid word whose multiset of generators b_ij is fixed by
    (n, length); the seed draws their order and signs.  Image lengths grow
    with j - i, so fixing the multiset fixes the cost of the slot."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    gens = (pairs * (length // len(pairs) + 1))[:length]
    rng.shuffle(gens)
    letters = []
    for ij in gens:
        e = rng.choice((1, -1))
        if letters and letters[-1] == (ij, -e):
            e = -e
        letters.append((ij, e))
    return tuple(letters)


def _pb(n, letters):
    return braids.PureBraidWord(n, letters)


BRAID_TARGETS = {
    "gn3": braids.pb_to_gn3, "gn4": braids.pb_to_gn4,
    "gamma4": braids.pb_to_gamma4, "gamma4-graded": braids.pb_to_gamma4_graded,
}


def _letters_of(img):
    if isinstance(img, tuple):
        return tuple(w.letters for w in img)
    return img.letters


def _braid_map_job(files, rng, n, length, target):
    b = _random_braid(rng, n, length)
    cut = rng.randint(1, length - 1)
    path = files.write("braid.txt", oracles.braid_text(b))
    fn = BRAID_TARGETS[target]

    def check(content):
        payload = expect_ok(content)
        if target == "gamma4-graded":
            got = tuple(tokens(c) for c in payload["components"])
        else:
            got = tokens(payload["word"])
            expect(payload["length"] == len(got), "length field")
        # homomorphism: image(b1 b2) = image(b1) image(b2)
        left, right = fn(_pb(n, b[:cut])), fn(_pb(n, b[cut:]))
        if target == "gamma4-graded":
            want = tuple((u * v).letters for u, v in zip(left, right))
        else:
            want = (left * right).letters
        expect(got == want, "image differs from the product of the images "
               "of its two halves")

    return cli_job("braid-map.%s.n%d.L%d" % (target, n, length),
                   ["braid-map", path, "--n", str(n), "--target", target],
                   check)


def _relation_inserted(rng, n, b):
    """b with u v^-1 spliced in, for a defining relation pair (u, v) of PB_n."""
    u, v = rng.choice(braids.pb_relation_pairs(n))
    k = rng.randint(0, len(b))
    return b[:k] + u.letters + v.inverse().letters + b[k:]


def _invariant_job(files, rng, n, kind):
    b = _random_braid(rng, n, 20)
    group = gnkmod.GnkGroup(n, 3)
    img = braids.pb_to_gn3(_pb(n, b), group)
    path = files.write("image.txt", oracles.format_letters(img.letters))
    triple = tuple(sorted(rng.sample(range(1, n + 1), 3)))
    if kind == "mn" and rng.random() < 0.5:
        triple = (1, 2, 3)
    b2 = _relation_inserted(rng, n, b)
    mapname = "mn" if kind == "mn" else "phi-ijk"
    argv = ["invariant", path, "--map", mapname,
            "--m", ",".join(map(str, triple)), "--n", str(n), "--k", "3"]

    def check(content):
        payload = expect_ok(content)
        # invariance: the image of an equal braid has the same value
        w2 = braids.pb_to_gn3(_pb(n, b2), group)
        if kind == "mn":
            want = gnkmod.mn_invariant(group, w2, triple).letters
            bound = gnkmod.unknotting_lower_bound(group, w2, triple)
            expect(Fraction(payload["unknotting_lower_bound"]) == bound,
                   "unknotting bound not invariant")
        else:
            want = braids.phi_ijk(group, w2, triple).letters
        expect(tokens(payload["value"]) == want,
               "value differs on the image of an equal braid")

    return cli_job("invariant.%s.n%d" % (mapname, n), argv, check)


def _brunnian_job(files, rng, n):
    gens = [oracles.parse_braid_text("b_%d_%d" % p)
            for p in itertools.combinations(range(1, n + 1), 2)]

    def comm(a, b):
        return a + b + oracles.inverse(a) + oracles.inverse(b)
    a, b, c, d = (rng.choice(gens) for _ in range(4))
    word = comm(comm(a, b), comm(c, d)) if rng.random() < 0.5 \
        else comm(comm(a, b), c) + d
    word = oracles.free_reduce(word, involutive=False)
    path = files.write("brunnian.txt", oracles.braid_text(word) or "")

    def check(content):
        payload = expect_ok(content)
        residues = {m: oracles.delete_strand(word, m) for m in range(1, n + 1)}
        certified = all(not r for r in residues.values())
        expect(payload["certified_brunnian"] == certified, "certificate")
        got = {int(m): oracles.parse_braid_text(t)
               for m, t in payload["residues"].items()}
        expect(got == {m: r for m, r in residues.items() if r}, "residues")
        if certified:
            status = "true"
        elif any(any(oracles.exponent_sums(r).values())
                 for r in residues.values()):
            status = "false-certified"
        else:
            status = "unknown"
        expect(payload["status"] == status, "status")

    return cli_job("brunnian.n%d" % n,
                   ["brunnian", path, "--n", str(n)], check)


def _parity_job(rng, n):
    g2 = gnkmod.GnkGroup(n, 2)
    w = g2.word_from_subsets([rng.choice(g2.subsets) for _ in range(40)])

    def call():
        pg = braids.ParityGroup(g2.labels)
        return braids.pr(pg, braids.iota(g2, w, pg), g2)

    def check(out):
        expect(out == w.letters, "pr(iota(w)) != w")

    defect = None
    if n >= 10:
        defect = ("parity symbols are parsed by fixed position, so labels "
                  ">= 10 raise UnknownSymbolError")
    return Job("parity.n%d" % n, call, lambda out: out.letters, check, defect)


def _gnk_presentation_job(n, k):
    from math import comb

    def call():
        return gnkmod.GnkPresentation(gnkmod.GnkGroup(n, k))

    def content(p):
        return {"involution": len(p.involution_relators),
                "far": len(p.far_commutativity_relators),
                "tetra": [len(cw) for cw in p.tetrahedron_relators],
                "distinct": len(set(p.tetrahedron_relators))}

    def check(c):
        far = sum(1 for m1, m2 in itertools.combinations(
            itertools.combinations(range(1, n + 1), k), 2)
            if len(set(m1) & set(m2)) <= k - 2)
        expect(c["involution"] == comb(n, k), "involution relators")
        expect(c["far"] == far, "far commutativity relators")
        # the nominal count lists each (k+1)-cycle of the squared tetrahedron
        # word once per starting letter; deduplication keeps one per cycle
        expect(len(c["tetra"]) * (k + 1)
               == gnkmod.tetrahedron_relation_count(n, k), "tetrahedron count")
        expect(c["distinct"] == len(c["tetra"]), "duplicate relators")
        expect(all(x == 2 * (k + 1) for x in c["tetra"]), "relator lengths")

    return Job("gnk-presentation.n%dk%d" % (n, k), call, content, check)


# polygon relator counts after deduplication, recorded at the seed commit
# (regression reference: no closed formula is implemented independently)
POLYGON_REFERENCE = {(6, 4): 72, (7, 4): 252, (6, 5): 480, (7, 5): 3360}


def _gamma_presentation_job(n, k):
    from math import comb

    def check(content):
        p = expect_ok(content)
        expect(p["generators"] == comb(n, k) * (2 ** (k - 1) - k - 1),
               "generator count")
        rels = [tokens(line) for line in p["relators"].split("\n") if line]
        expect(len(rels) == p["polygon_relators"], "relator list length")
        expect(p["polygon_relators"] == POLYGON_REFERENCE[(n, k)],
               "polygon relators (regression reference)")
        expect(all(len(r) == k + 1 for r in rels), "relator lengths")
        expect(len(set(rels)) == len(rels), "duplicate relators")

    return cli_job("gamma-presentation.n%dk%d" % (n, k),
                   ["gamma-presentation", "--n", str(n), "--k", str(k)], check)


# GF(2) ranks of the oriented flip group at (6, 5), recorded at the seed
# commit (regression reference; the published values are 90 and 91)
GF2_REFERENCE = {"generators": 120, "relations": 1440, "rank": 91,
                 "rank_with_extra": 92}


def _gf2_job(files):
    extra = files.write("extra.txt", "35,164 46,253^-1 46,135 35,246^-1")

    def check(content):
        p = expect_ok(content)
        expect(p == GF2_REFERENCE | {"schema": p.get("schema")},
               "GF(2) data differs from the regression reference")

    return cli_job("gamma-gf2.n6k5",
                   ["gamma-presentation", "--n", "6", "--k", "5",
                    "--abelianization-gf2", "--extra-word", extra], check)


def _gale_job(order):
    def check(content):
        p = expect_ok(content)
        expect(p["count"] == len(p["diagrams"]) == len(p["relations"]),
               "diagram and relation counts")
        expect(p["count"] == gamma.standard_gale_count_formula(order),
               "count differs from the closed formula")
        expect(all(len(tokens(r)) == order for r in p["relations"]),
               "relation lengths")

    return cli_job("gale.l%d" % order,
                   ["gale", "--order", str(order), "--emit-relations"], check)


def presentations(seed, files):
    rng = random.Random("presentations:%d" % seed)
    jobs = []
    # image cost grows with n and quadratically with length; the lengths keep
    # every seeded job below the fixed heavy jobs, so job_p90_ms sits on the
    # fixed presentations and job_p50_ms on the seeded light jobs
    for n, longer in ((5, 40), (6, 30), (7, 20), (8, 15)):
        targets = ["gn3", "gn4", "gamma4"] + (["gamma4-graded"] if n >= 6 else [])
        for target in targets:
            for length in (10, longer):
                jobs.append(_braid_map_job(files, rng, n, length, target))
    for _ in range(3):
        jobs.append(_braid_map_job(files, rng, 5, 200, "gamma4"))
    for n in (5, 6, 7, 8):
        for kind in ("mn", "mn", "phi", "phi"):
            jobs.append(_invariant_job(files, rng, n, kind))
    for n in (5, 5, 6, 6, 6, 7, 7, 7, 8, 8, 8):
        jobs.append(_brunnian_job(files, rng, n))
    for n in range(6, 13):
        for _ in range(4):
            jobs.append(_parity_job(rng, n))
    for n, k in ((7, 3), (8, 3), (7, 4), (8, 4)):
        jobs.append(_gnk_presentation_job(n, k))
    for n, k in ((6, 4), (7, 4), (6, 5), (7, 5)):
        jobs.append(_gamma_presentation_job(n, k))
    jobs.append(_gf2_job(files))
    for order in range(5, 11):
        jobs.append(_gale_job(order))
    return jobs


# ---------------------------------------------------------------------------
# trajectories: geometry

COORD = 100000


def _point(rng, dim):
    return tuple(rng.randint(0, COORD) for _ in range(dim))


def _generic(conf, mover, ends, circles, dim):
    """No static degeneracy and no wall through a segment endpoint, decided
    with exact integer predicates."""
    statics = [conf[q] for q in range(len(conf)) if q != mover]
    if len(set(statics + list(ends))) < len(statics) + len(ends):
        return False
    if dim == 3:
        if any(oracles.orient3d(*q) == 0
               for q in itertools.combinations(statics, 4)):
            return False
        return all(oracles.orient3d(a, b, c, e) != 0 for e in ends
                   for a, b, c in itertools.combinations(statics, 3))
    if any(oracles.orient2d(*t) == 0
           for t in itertools.combinations(statics, 3)):
        return False
    if any(oracles.orient2d(a, b, e) == 0 for e in ends
           for a, b in itertools.combinations(statics, 2)):
        return False
    if circles:
        if any(oracles.incircle(*q) == 0
               for q in itertools.combinations(statics, 4)):
            return False
        if any(oracles.incircle(a, b, c, e) == 0 for e in ends
               for a, b, c in itertools.combinations(statics, 3)):
            return False
    return True


def _random_trajectory(rng, n, dim, circles):
    """Static points at random in a box; the mover starts left of the box
    and crosses it to the far side at a random height.  A crossing meets
    almost every line and a steady share of the circles through the static
    points, so the event count, and with it the cost of the slot, varies
    little with the seed."""
    while True:
        pts = [_point(rng, dim) for _ in range(n)]
        mover = rng.randrange(n)
        pts[mover] = (-COORD,) + _point(rng, dim - 1)
        target = (2 * COORD,) + _point(rng, dim - 1)
        if _generic(pts, mover, [pts[mover], target], circles, dim):
            return pts, mover + 1, target


def _trajectory_json(pts, mover, target, dim):
    def enc(p):
        return [[int(x), 1] for x in p]
    return json.dumps({"n": len(pts), "dim": dim,
                       "points": [enc(p) for p in pts],
                       "moves": [{"p": mover, "to": enc(target)}]})


def _events(payload):
    return [(e["segment"], tuple(e["participants"])) for e in payload["events"]]


def _random_compile_job(files, rng, n, target):
    dim = 3 if target == "gamma4_space" else 2
    pts, mover, end = _random_trajectory(
        rng, n, dim, circles=target in ("gn4", "gamma4"))
    text = _trajectory_json(pts, mover, end, dim)
    path = files.write("traj.json", text)

    def check(content):
        payload = expect_ok(content)
        word = tokens(payload["word"])
        events = _events(payload)
        # reversal: the reversed motion gives the inverse word and the same
        # events in reverse order
        tr = geometry.Trajectory.from_json(text)
        rw, revs = geometry.compile_word(tr.reversed(), target)
        expect(rw.letters == oracles.inverse(word, involutive=True),
               "reversed trajectory does not give the inverse word")
        expect(events[::-1] == [(e.segment, e.participants) for e in revs],
               "reversed events differ")
        if target == "gamma4" and n <= 6:
            _check_flips_brute_force(pts, mover, end, payload["events"])

    return cli_job("compile.%s.random.n%d" % (target, n),
                   ["compile-trajectory", path, "--target", target], check)


def _check_flips_brute_force(pts, mover, end, events):
    """Across each event bracket the Delaunay triangulation changes by one
    flip inside the event's quadruple."""
    a, b = pts[mover - 1], end
    for ev in events:
        conf = [tuple(Fraction(x) for x in p) for p in pts]
        tris = []
        for t in (Fraction(ev["bracket"][0]), Fraction(ev["bracket"][1])):
            conf[mover - 1] = tuple(a[i] + t * (b[i] - a[i]) for i in range(2))
            tris.append(oracles.delaunay_triangles(conf))
        diff = tris[0] ^ tris[1]
        expect(len(diff) == 4 and all(set(t) <= set(ev["participants"])
                                      for t in diff),
               "Delaunay triangulation does not flip on the event quadruple")


def _degenerate_job(files, rng, n):
    while True:
        pts = [_point(rng, 2) for _ in range(n)]
        a, b = pts[1], pts[2]
        if (a[0] - b[0]) % 2 == 0 and (a[1] - b[1]) % 2 == 0 and a != b:
            break
    pts[3] = ((a[0] + b[0]) // 2, (a[1] + b[1]) // 2)   # three statics collinear
    path = files.write("degenerate.json",
                       _trajectory_json(pts, 1, _point(rng, 2), 2))

    def check(content):
        expect(content[0] == 3, "exit code %r, want 3" % (content[0],))

    return cli_job("compile.gn3.degenerate.n%d" % n,
                   ["compile-trajectory", path, "--target", "gn3"], check)


CANONICAL_ALGEBRA = {"gn3": braids.pb_to_gn3, "gn4": braids.pb_to_gn4,
                     "gamma4": braids.pb_to_gamma4,
                     "gamma4_graded": braids.pb_to_gamma4_graded}


def _canonical_job(files, n, i, j, style, target, defect=None):
    tr = geometry.canonical_generator_trajectory(n, i, j, style)
    path = files.write("canonical.json", tr.to_json())

    def check(content):
        payload = expect_ok(content)
        want = _letters_of(CANONICAL_ALGEBRA[target](braids.generator(n, i, j)))
        if target == "gamma4_graded":
            got = tuple(tokens(c) for c in payload["components"])
        else:
            got = tokens(payload["word"])
        expect(got == want, "compiled word differs from the algebraic image")

    return cli_job("compile.%s.%s.n%d.b%d_%d" % (target, style, n, i, j),
                   ["compile-trajectory", path, "--target", target], check,
                   defect)


def trajectories(seed, files):
    rng = random.Random("trajectories:%d" % seed)
    jobs = []
    # enough light jobs that job_p90_ms sits inside the 80-100 ms cluster
    # of heavy jobs rather than at its upper edge
    for n, count in ((6, 19), (8, 19), (10, 6), (12, 6), (14, 6)):
        for _ in range(count):
            jobs.append(_random_compile_job(files, rng, n, "gn3"))
    # a crossing meets O(n^3) circles, so concyclicity walls stay at small n
    for n in (6, 8):
        for _ in range(4):
            jobs.append(_random_compile_job(files, rng, n, "gn4"))
    for n in (6, 8, 10):
        for _ in range(5):
            jobs.append(_random_compile_job(files, rng, n, "gamma4_space"))
    for n in (6, 8, 10, 12, 14):
        for _ in range(2):
            jobs.append(_random_compile_job(files, rng, n, "gamma4"))
    for n in (6, 7, 8, 9, 10, 12, 14):
        jobs.append(_degenerate_job(files, rng, n))
    longer = "compiled circle_gn3 words differ from pb_to_gn3 at n = 9"
    for n, i, j in ((5, 1, 2), (6, 1, 2), (7, 1, 2), (8, 1, 2), (9, 1, 2),
                    (9, 1, 3), (9, 2, 4), (9, 1, 9)):
        jobs.append(_canonical_job(files, n, i, j, "circle_gn3", "gn3",
                                   longer if (n, i, j) == (9, 1, 9) else None))
    circle = ("circle_gamma4 trajectories do not reproduce pb_to_gamma4 "
              "except for b13 and b23")
    for n, i, j in ((5, 1, 3), (5, 2, 3), (5, 1, 2), (6, 1, 2), (6, 2, 3),
                    (7, 1, 2), (8, 1, 2), (9, 1, 2)):
        jobs.append(_canonical_job(
            files, n, i, j, "circle_gamma4", "gamma4",
            None if (i, j) in ((1, 3), (2, 3)) else circle))
    for i, j in itertools.combinations(range(1, 5), 2):
        jobs.append(_canonical_job(files, 4, i, j, "parabola_gn4", "gn4"))
    parabola = ("parabola_gn4 at n = 5 compiles to the empty word or raises "
                "DegenerateTrajectory")
    for i, j in ((1, 2), (2, 4)):
        jobs.append(_canonical_job(files, 5, i, j, "parabola_gn4", "gn4",
                                   parabola))
    graded = ("graded compiles of canonical trajectories differ from "
              "pb_to_gamma4_graded")
    for n in (6, 7, 8):
        jobs.append(_canonical_job(files, n, 1, 2, "parabola_gn4",
                                   "gamma4_graded", graded))
    return jobs


# ---------------------------------------------------------------------------
# certificates: cancel, fliplab, words on long words

COMMUTATOR_SQUARED = oracles.tokens("x y x^-1 y^-1 x y x^-1 y^-1")
DEHN_LENGTHS = (350, 700, 1400, 2800)


def _random_relator(rng, symbols, length):
    while True:
        r = [(rng.choice(symbols), rng.choice((1, -1))) for _ in range(length)]
        r = oracles.free_reduce(r, involutive=False)
        if len(r) == length and not (r[0][0] == r[-1][0]
                                     and r[0][1] == -r[-1][1]):
            return r


def _trivial_word(rng, relator, length):
    """Product of conjugates g r^(+-1) g^-1 with |g| = 3 and no cancellation
    anywhere, enough of them for ``length`` letters: trivial by
    construction, and of a shape (letters, conjugates) fixed by the slot."""
    symbols = sorted({s for s, _ in relator})
    w = ()
    for _ in range(-(-length // (len(relator) + 6))):
        r = relator if rng.random() < 0.5 else oracles.inverse(relator)
        k = rng.randrange(len(r))
        r = r[k:] + r[:k]
        while True:
            g = tuple((rng.choice(symbols), rng.choice((1, -1)))
                      for _ in range(3))
            piece = g + r + oracles.inverse(g)
            if oracles.free_reduce(w[-1:] + piece, involutive=False) \
                    == w[-1:] + piece:
                break
        w += piece
    return w


def _dehn_job(files, pres_path, relator, word, trivial, label):
    path = files.write("word.txt", oracles.format_letters(word))

    def check(content):
        p = expect_ok(content)
        if trivial:
            expect(p["trivial"] and p["reduced_length"] == 0,
                   "trivial word not reduced to 1")
        else:
            # exponent sums outside the relator lattice prove nontriviality
            expect(not oracles.in_relator_lattice(
                oracles.exponent_sums(word), oracles.exponent_sums(relator)),
                "input is not provably nontrivial")
            expect(not p["trivial"] and p["reduced_length"] > 0,
                   "nontrivial word reduced to 1")

    return cli_job("cancel-dehn.%s.%s" % (label, "trivial" if trivial else "nontrivial"),
                   ["cancel", "dehn", pres_path, "--word", path], check)


def _c16_relator(rng, symbols, length):
    while True:
        r = _random_relator(rng, symbols, length)
        holds, _ = oracles.metric_condition_holds([r], Fraction(1, 6))
        if holds and {s for s, _ in r} == set(symbols):
            return r


def _nontrivial_extension(word, relator):
    for extra in (("x", 1), ("y", 1)):
        w = word + (extra,)
        if not oracles.in_relator_lattice(oracles.exponent_sums(w),
                                          oracles.exponent_sums(relator)):
            return w
    raise AssertionError("no provably nontrivial extension")


def _check_job(files, rels, lam):
    text = "\n".join(oracles.format_letters(r) for r in rels)
    path = files.write("pres.txt", text)

    def check(content):
        p = expect_ok(content)
        holds, size = oracles.metric_condition_holds(rels, Fraction(lam))
        expect(p["holds"] == holds, "C'(%s) verdict" % lam)
        expect(p["symmetrised"] == size, "symmetrised set size")

    return cli_job("cancel-check.%s" % lam.replace("/", "_"),
                   ["cancel", "check", path, "--lambda", lam], check)


def _criterion6_job():
    ab = Alphabet(["x", "y"], involutive=False)
    R = cancel.symmetrise(ab, [list(COMMUTATOR_SQUARED)])
    sylls = [("x", 1000), ("y", 1000), ("x", -1000), ("y", -1000)] * 1000

    def content(res):
        return (res.is_trivial(), res.trace.max_overlap_at_fixpoint,
                len(res.trace.steps))

    def check(c):
        # the acceptance criterion: certified nontrivial, overlap 2 < 4, and
        # no reduction step is needed
        expect(c == (False, 2, 0), "certificate %r" % (c,))

    return Job("cancel-dehn.criterion6.4M",
               lambda: cancel.dehn_reduce_syllables(ab, sylls, R), content,
               check)


def _reduce_job(files, rng, length, free):
    symbols = ["g%d" % i for i in range(1, 7)]
    letters = []
    while len(letters) < length:
        block = [(rng.choice(symbols), rng.choice((1, -1)) if free else 1)
                 for _ in range(rng.randint(5, 40))]
        # a block followed by its inverse gives nested cancellations
        letters += block + list(oracles.inverse(block, involutive=not free)) \
            if rng.random() < 0.4 else block
    letters = letters[:length]
    path = files.write("reduce.txt", oracles.format_letters(letters))
    want = oracles.free_reduce(letters, involutive=not free)

    def check(content):
        p = expect_ok(content)
        got = tokens(p["word"])
        expect(got == want and p["length"] == len(want), "reduced word")

    argv = ["reduce", path] + (["--free"] if free else [])
    return cli_job("reduce.%s.L%d" % ("free" if free else "involutive", length),
                   argv, check)


def fan_triangulation(n):
    return {(1, k, k + 1) for k in range(2, n)}


def lex_flip_sequence(triangles, length):
    """Flip the least interior diagonal other than the one just created,
    ``length`` times: a sequence fixed by the combinatorics alone."""
    tris, last, moves = set(triangles), None, []
    for _ in range(length):
        e = next(d for d in oracles.interior_diagonals(tris) if d != last)
        tris, last, _ = oracles.flip(tris, e)
        moves.append(e)
    return moves


def _edge_name(e):
    return "e%d_%d" % e


def _values(rng, edges):
    return {e: Fraction(rng.randint(1, 97), rng.randint(1, 97)) for e in edges}


# Ptolemy replays: polygon size -> number of flips (fixed lengths)
REPLAYS = {6: 10, 7: 12, 8: 14, 9: 12}


def _replay_job(files, rng, n, length):
    tris = fan_triangulation(n)
    edges = sorted({tuple(sorted(e)) for t in tris
                    for e in itertools.combinations(t, 2)})
    moves = lex_flip_sequence(tris, length)
    spec = {"labels": {"%d-%d" % e: _edge_name(e) for e in edges},
            "triangles": [list(t) for t in sorted(tris)],
            "moves": [list(e) for e in moves]}
    path = files.write("replay.json", json.dumps(spec))
    values = _values(rng, edges)

    def check(content):
        p = expect_ok(content)
        final, _, _ = oracles.ptolemy_replay(tris, values, moves)
        names = {_edge_name(e): v for e, v in values.items()}
        got = {tuple(int(v) for v in k.split("-")):
               oracles.eval_label_text(text, names)
               for k, text in p["labels"].items()}
        expect(got == final, "labels differ from the Fraction replay")

    return cli_job("fliplab-replay.n%d.f%d" % (n, length),
                   ["fliplab", "replay", path], check)


def _pentagon_job(rng):
    tris = {(1, 2, 3), (1, 3, 4), (1, 4, 5)}
    edges = sorted({tuple(sorted(e)) for t in tris
                    for e in itertools.combinations(t, 2)})
    values = _values(rng, edges)

    def check(content):
        p = expect_ok(content)
        final, _, shape = oracles.ptolemy_replay(
            tris, values, fliplab.PENTAGON_FLIP_SEQUENCE)
        expect(shape == tris, "pentagon cycle does not close")
        expect(p["pentagon_identity"] == (final == values),
               "pentagon identity verdict")

    return cli_job("fliplab-pentagon", ["fliplab", "pentagon", "--symbolic"],
                   check)


def _orbit_job(rng):
    names = ["a", "b", "c", "k", "l", "m", "p", "q", "r"]
    edges = [(1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (3, 4), (1, 5), (2, 5),
             (4, 5)]
    tris = {(1, 2, 5), (1, 4, 5), (2, 4, 5), (2, 3, 4), (1, 3, 4)}
    values = _values(rng, edges)
    by_name = {nm: values[e] for nm, e in zip(names, edges)}

    def content(result):
        _, created = result
        return {e: expr.substitute(by_name) for e, expr in created.items()}

    def check(got):
        _, created, _ = oracles.ptolemy_replay(
            tris, values, fliplab.ORBIT_FLIP_SEQUENCE)
        expect(got == dict(created), "orbit labels differ from the replay")

    return Job("fliplab-orbit", lambda: fliplab.orbit_replay(), content, check)


def certificates(seed, files):
    rng = random.Random("certificates:%d" % seed)
    jobs = []
    pres = files.write("pres.txt", oracles.format_letters(COMMUTATOR_SQUARED))
    for length in DEHN_LENGTHS[:1] + DEHN_LENGTHS:
        w = _trivial_word(rng, COMMUTATOR_SQUARED, length)
        label = "commutator2.L%d" % length
        jobs.append(_dehn_job(files, pres, COMMUTATOR_SQUARED, w, True, label))
        jobs.append(_dehn_job(files, pres, COMMUTATOR_SQUARED,
                              w + (("x", 1),), False, label))
    one_relators = [_c16_relator(rng, ["x", "y", "z"], 24) for _ in range(4)]
    for t, rel in enumerate(one_relators):
        path = files.write("pres.txt", oracles.format_letters(rel))
        w = _trivial_word(rng, rel, 150)
        label = "one-relator%d.L150" % t
        jobs.append(_dehn_job(files, path, rel, w, True, label))
        jobs.append(_dehn_job(files, path, rel, _nontrivial_extension(w, rel),
                              False, label))
    jobs.append(_criterion6_job())
    check_sets = [[COMMUTATOR_SQUARED]] + [[r] for r in one_relators]
    for t in range(7):
        check_sets.append([_random_relator(rng, ["x", "y", "z"],
                                           rng.choice((8, 12, 16, 20)))
                           for _ in range(1 + t % 2)])
    for rels in check_sets:
        for lam in ("1/6", "1/4"):
            jobs.append(_check_job(files, rels, lam))
    # enough light jobs that job_p90_ms falls among the 350-letter Dehn
    # words rather than on the single criterion-6 job above them
    for t in range(80):
        jobs.append(_reduce_job(files, rng, (1000, 2000, 4000, 8000)[t % 4],
                                free=t // 4 % 2 == 1))
    for n, length in REPLAYS.items():
        jobs.append(_replay_job(files, rng, n, length))
    jobs.append(_pentagon_job(rng))
    jobs.append(_orbit_job(rng))
    return jobs


WORKLOADS = {"presentations": presentations, "trajectories": trajectories,
             "certificates": certificates}
