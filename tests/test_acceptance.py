"""Acceptance suite: exact reproduction of every worked value plus the
property batteries, one pass/fail line per criterion (run with -s to see
them)."""

import itertools
import random
import time
from fractions import Fraction

from gnk.braids import (DottedGroup, ParityGroup, chi, commutator, generator,
                        delete_pb_strand, omega_m, pb_relation_pairs,
                        pb_to_gamma4, pb_to_gn3, pb_to_gn4, phi_ijk, r_m,
                        w_parity)
from gnk.gnk import GnkGroup, MNContext, mn_invariant, unknotting_lower_bound, z_ij
from gnk.words import Word, format_word

F = Fraction


def _criterion(num, description, budget_seconds, fn):
    t0 = time.monotonic()
    try:
        fn()
    except AssertionError as exc:
        print("[FAIL] criterion %d (%s): %s" % (num, description, exc))
        raise
    elapsed = time.monotonic() - t0
    assert elapsed < budget_seconds, \
        "criterion %d exceeded budget: %.2fs >= %ss" % (num, elapsed, budget_seconds)
    print("[PASS] criterion %d (%s) in %.2fs" % (num, description, elapsed))


def test_criterion_1_gamma4_b13_both_routes():
    def body():
        from gnk.geometry import canonical_generator_trajectory, compile_word
        alg = pb_to_gamma4(generator(5, 1, 3))
        tr = canonical_generator_trajectory(5, 1, 3, "circle_gamma4")
        geo, _ = compile_word(tr, "gamma4")
        expected = "d_1254 d_1243 d_1324 d_1254"   # = d_2145 d_2134 d_2314 d_2145
        assert format_word(alg) == expected, format_word(alg)
        assert geo.letters == alg.letters
    _criterion(1, "f5(b13) algebraic == geometric", 1.0, body)


def test_criterion_2_mn_invariant_and_bound():
    def body():
        g = GnkGroup(4, 3)
        beta = g.word_from_subsets([(1, 2, 3), (2, 3, 4), (1, 2, 3), (1, 3, 4),
                                    (1, 2, 3), (1, 3, 4), (1, 2, 3), (2, 3, 4)])
        assert format_word(mn_invariant(g, beta, (1, 2, 3))) == "f_00 f_10 f_11 f_10"
        assert unknotting_lower_bound(g, beta, (1, 2, 3)) == F(1)
        ctx = MNContext(g, (1, 2, 3))
        assert z_ij(ctx, 1, 2) == (1, 1)
        assert z_ij(ctx, 1, 3) == (0, 1)
        assert z_ij(ctx, 2, 3) == (1, 0)
    _criterion(2, "MN value, bound 1, z_ij table", 1.0, body)


def test_criterion_3_gale_counts():
    def body():
        from gnk.gamma import enumerate_standard_gale, standard_gale_count_formula
        counts = {l: len(enumerate_standard_gale(l)) for l in range(5, 11)}
        assert (counts[5], counts[6], counts[7]) == (1, 2, 5)
        for l in range(5, 11):
            assert counts[l] == standard_gale_count_formula(l)
    _criterion(3, "standard Gale diagram counts 1,2,5 and formula to l=10", 10.0, body)


def test_criterion_4_tilde_gamma_rank():
    def body():
        from gnk.gamma import oriented_abelianization_gf2
        w = [((3, 5), (1, 6, 4), 1), ((4, 6), (2, 5, 3), -1),
             ((4, 6), (1, 3, 5), 1), ((3, 5), (2, 4, 6), -1)]
        ngen, nrel, rank, rank_w = oriented_abelianization_gf2(6, 5, extra_words=[w])
        assert ngen == 120, ngen
        assert nrel == 1440, nrel
        # The extra word is nontrivial: it raises the rank by one.  Checked
        # on its own so that a failure below reports only the off-by-one.
        assert rank_w == rank + 1, \
            "extra word does not raise the rank: %d -> %d" % (rank, rank_w)
        # Published values. The faithful instantiation of the hexagon
        # relators (which reproduces both printed hexagon relations
        # letter-for-letter) yields 91 and 92: one more than published, with
        # the same +1 jump certifying the extra word nontrivial.  Asserted
        # as published; see DECISIONS.md for the discrepancy analysis.
        assert rank == 90, "computed GF(2) rank %d (published 90)" % rank
        assert rank_w == 91, "computed rank with extra word %d (published 91)" % rank_w
    _criterion(4, "oriented flip group GF(2) abelianization", 30.0, body)


def test_criterion_5_ptolemy_pentagon_and_replay():
    def body():
        from gnk.fliplab import (orbit_replay, pentagon_flip_cycle,
                                 pentagon_triangulation, symbols)
        seq = pentagon_flip_cycle(pentagon_triangulation())
        assert seq[-1].labels_equal(seq[0]), "pentagon identity failed"
        _, created = orbit_replay()
        a, b, c, k, l, m, p, q, r = symbols(list("abcklmpqr"))
        printed = {
            (3, 5): (q * m + b * r) / l,
            (2, 4): (a * r + q * k) / p,
            (1, 5): (c * r * l + k * q * m + k * b * r) / (m * l),
            (3, 4): (b * p * r * l + (a * r + q * k) * (q * m + b * r)) / (p * q * l),
            (2, 5): (a * r * p * m * l + (a * r + q * k)
                     * (c * r * l + k * q * m + k * b * r)) / (k * p * m * l),
        }
        for e, expr in printed.items():
            assert created[e] == expr, "label %r differs from printed" % (e,)
        printed_o = (k * k * m * q * q + b * k * l * p * r + c * l * l * p * r
                     + c * k * l * q * r + a * k * m * q * r + a * b * k * r * r
                     + a * c * l * r * r) / (l * m * p * q)
        if created[(1, 4)] == printed_o:
            print("    final label o matches the printed formula")
        else:
            missing = (b * k * k * q * r) / (l * m * p * q)
            assert created[(1, 4)] == printed_o + missing, \
                "o disagrees with printed in an unexplained way"
            print("    ERRATUM: printed final label o drops the monomial "
                  "b*k^2*q*r/(l*m*p*q); replay value = printed + that term "
                  "(all five other labels match exactly)")
    _criterion(5, "symbolic pentagon identity and six-flip replay", 5.0, body)


def test_criterion_6_dehn_certificate():
    def body():
        from gnk.cancel import (check_metric_condition, dehn_reduce_syllables,
                                symmetrise)
        from gnk.words import Alphabet
        ab = Alphabet(["x", "y"], involutive=False)
        comm = [("x", 1), ("y", 1), ("x", -1), ("y", -1)]
        R = symmetrise(ab, [comm + comm])
        holds, _ = check_metric_condition(R, F(1, 6))
        assert holds, "C'(1/6) failed for the squared commutator"
        sylls = [("x", 1000), ("y", 1000), ("x", -1000), ("y", -1000)] * 1000
        res = dehn_reduce_syllables(ab, sylls, R)
        assert not res.is_trivial(), "word wrongly trivialised"
        assert res.trace.max_overlap_at_fixpoint == 2, res.trace
        assert res.trace.max_overlap_at_fixpoint < 4
        print("    certified nontrivial; max relator overlap = %d < 4"
              % res.trace.max_overlap_at_fixpoint)
    _criterion(6, "Dehn nontriviality certificate for the huge commutator power", 5.0, body)


def _brunnian_six():
    b12, b14, b16 = generator(6, 1, 2), generator(6, 1, 4), generator(6, 1, 6)
    b13, b15 = generator(6, 1, 3), generator(6, 1, 5)
    return commutator(commutator(commutator(b12, b14), b16),
                      commutator(b13, b15))


# Published value of zeta = w^P_{2,4}(chi(omega_6(r_1(beta)))).  The chain
# below cannot produce it: see DECISIONS.md.
PUBLISHED_ZETA_24 = ("z_00 z_01 z_11 z_00 z_01 z_11 z_00 z_01 z_00 z_01 "
                     "z_11 z_01")


def test_criterion_7_brunnian_pipeline():
    def body():
        beta = _brunnian_six()
        for mdel in range(1, 7):
            assert len(delete_pb_strand(beta, mdel)) == 0, \
                "p_%d(beta) not trivial" % mdel
        g63 = GnkGroup(6, 3)
        img = pb_to_gn3(beta, g63)
        for t in itertools.combinations(range(1, 7), 3):
            assert len(phi_ijk(g63, img, t)) == 0, \
                "phi_(i,j,k) nontrivial at %r" % (t,)

        # Phi = chi o omega_6 o r_1 o pb_to_gn3.
        g52 = GnkGroup(5, 2, (2, 3, 4, 5, 6))
        dg, pg = DottedGroup((2, 3, 4, 5)), ParityGroup((2, 3, 4, 5))

        def parity_chain(gn3_word):
            # chi raises unless every point count is even
            return chi(dg, omega_m(g52, r_m(g63, gn3_word, 1), 6), pg)

        pw = parity_chain(img)
        # Every b_1j image has even point counts, so Phi is multiplicative:
        # Phi(beta) is the product of the Phi(b_1j)^{+-1} over beta's letters.
        images = {j: parity_chain(pb_to_gn3(generator(6, 1, j), g63))
                  for j in range(2, 7)}
        product = Word(pg.alphabet)
        for (_, j), e in beta.letters:
            product = product * (images[j] if e == 1 else images[j].inverse())
        assert product.letters == pw.letters, \
            "Phi(beta) differs from the product of the generator images"
        # Every letter of c_{1,6} contains 1 and 6, so Phi(b_16) = 1 and the
        # inner commutator [[b12,b14],b16] dies; the other images survive.
        assert len(images[6]) == 0, "Phi(b_16) = %s" % format_word(images[6])
        for j in range(2, 6):
            assert len(images[j]) > 0, "Phi(b_1%d) is empty" % j
        # By hand: b_12 -> c_{1,2}^2 = (a_123 a_124 a_125 a_126)^2, r_1 gives
        # (a_23 a_24 a_25 a_26)^2, omega_6 gives (a_23 a_24 a_25 t_2)^2, and
        # chi flips the second copy's parities after the first t_2.
        assert format_word(images[2]) == \
            "a_23^0 a_24^0 a_25^0 a_23^1 a_24^1 a_25^1", format_word(images[2])
        zeta = w_parity(pg, pw, (2, 4))
        assert len(zeta) == 0, "zeta = %s" % format_word(zeta)
        print("    published zeta (%d letters) not reached: Phi(b_16) = 1 "
              "forces Phi(beta) = 1, so zeta is empty (DECISIONS.md)"
              % len(PUBLISHED_ZETA_24.split()))
    _criterion(7, "six-strand Brunnian end-to-end pipeline", 60.0, body)


def test_criterion_8_hexagon_and_heptagon_relators():
    def body():
        from gnk.gamma import GammaGroup, enumerate_standard_gale, gale_relation_word
        group = GammaGroup(6, 5)
        words = {d.positions: format_word(gale_relation_word(group, d, tuple(range(1, 7))))
                 for d in enumerate_standard_gale(6)}
        assert words[(0, 1, 4, 5, 8, 9)] == \
            "a_234,56^-1 a_156,34 a_12,456 a_123,56 a_126,34^-1 a_12,345^-1"
        assert words[(0, 1, 3, 5, 8, 10)] == \
            "a_234,56^-1 a_156,34 a_126,45 a_123,56 a_126,34^-1 a_123,45^-1"
        assert len(enumerate_standard_gale(7)) == 5
        print("    both hexagon relators match the printed relations "
              "letterwise under the identity labeling")
    _criterion(8, "hexagon relators match printed; 5 heptagon shapes", 10.0, body)


def test_criterion_9_property_suites():
    def body():
        rng = random.Random(99)
        # (a) reduction confluence on 500 random words
        from gnk.words import Alphabet, word
        ab = Alphabet(["a", "b", "c", "d"], involutive=True)
        for _ in range(500):
            raw = [(rng.choice(ab.symbols), 1) for _ in range(rng.randint(0, 24))]
            w = word(ab, raw)
            letters = list(raw)
            while True:
                spots = [t for t in range(len(letters) - 1)
                         if letters[t] == letters[t + 1]]
                if not spots:
                    break
                t = rng.choice(spots)
                del letters[t:t + 2]
            assert tuple(letters) == w.letters

        # (b) homomorphism well-definedness: relator images are
        # invariant-indistinguishable for n <= 5
        def ab2(word_):
            return {s: c % 2 for s, c in word_.symbol_counts().items() if c % 2}
        for n in (4, 5):
            g3 = GnkGroup(n, 3)
            g4 = GnkGroup(n, 4)
            for u, v in pb_relation_pairs(n):
                w3u, w3v = pb_to_gn3(u, g3), pb_to_gn3(v, g3)
                assert ab2(w3u) == ab2(w3v)
                assert ab2(pb_to_gn4(u, g4)) == ab2(pb_to_gn4(v, g4))
                assert ab2(pb_to_gamma4(u)) == ab2(pb_to_gamma4(v))
                for m in itertools.combinations(range(1, n + 1), 3):
                    assert mn_invariant(g3, w3u, m) == mn_invariant(g3, w3v, m)
                    assert phi_ijk(g3, w3u, m) == phi_ijk(g3, w3v, m)

        # (c) geometric vs algebraic pb_to_gn3, all b_ij, n <= 4
        from gnk.geometry import canonical_generator_trajectory, compile_word
        for n in (3, 4):
            for i, j in itertools.combinations(range(1, n + 1), 2):
                tr = canonical_generator_trajectory(n, i, j, "circle_gn3")
                w, _ = compile_word(tr, "gn3")
                assert w.letters == pb_to_gn3(generator(n, i, j)).letters

        # (d) flip involutivity and flip consistency on 100 random 6-point
        # trajectories
        from gnk.geometry import (DegenerateTrajectory, Trajectory,
                                  delaunay, detect_events)
        done = 0
        attempts = 0
        while done < 100 and attempts < 1000:
            attempts += 1
            pts = [(F(rng.randint(0, 100)), F(rng.randint(0, 100)))
                   for _ in range(6)]
            if len(set(pts)) < 6:
                continue
            mover = rng.randint(1, 6)
            target = (F(rng.randint(0, 100)), F(rng.randint(0, 100)))
            fwd = Trajectory(pts, [(mover, target)])
            both = Trajectory(pts, [(mover, target), (mover, pts[mover - 1])])
            try:
                events = detect_events(fwd, "delaunay_flip")
                confs = fwd.configurations()
                for e in events:
                    conf = list(confs[e.segment])
                    a = conf[mover - 1]
                    lo, hi = e.bracket
                    def conf_at(t):
                        c = list(conf)
                        c[mover - 1] = tuple(a[u] + t * (target[u] - a[u])
                                             for u in range(2))
                        return c
                    diff = delaunay(conf_at(lo)) ^ delaunay(conf_at(hi))
                    assert len(diff) == 4
                    assert all(set(tri) <= set(e.participants) for tri in diff)
                # involutivity: retracing reduces to the empty word
                w, _ = compile_word(both, "gamma4")
                assert len(w) == 0
            except DegenerateTrajectory:
                continue
            done += 1
        assert done == 100, "only %d generic trajectories found" % done

        # (e) BAS axioms on 100 random positive samples
        from gnk.fliplab import bas_ratio_check
        samples = [(F(rng.randint(1, 9), rng.randint(1, 9)),
                    F(rng.randint(1, 9), rng.randint(1, 9)))
                   for _ in range(100)]
        rep = bas_ratio_check(samples)
        assert rep == {"rotation": True, "pentagon": True, "symmetry": True}

        # (f) Gale face recovery vs hull oracle on the pentagon
        from gnk.gamma import polytope_faces_via_gale
        from gnk.geometry import orient2d
        pts = [(0, 2), (-2, 1), (-1, -1), (1, -1), (2, 1)]
        faces = {f for f in polytope_faces_via_gale(pts) if len(f) < 5}
        hull = {()}
        for i, j in itertools.combinations(range(5), 2):
            sides = {orient2d(pts[i], pts[j], pts[t]) > 0
                     for t in range(5) if t not in (i, j)}
            if len(sides) == 1:
                hull |= {(i,), (j,), (i, j)}
        assert faces == hull
    _criterion(9, "property suites", 300.0, body)
