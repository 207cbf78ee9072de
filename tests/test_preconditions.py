"""Library preconditions: each raise below names its violation, with the
exception type and message pinned.  The CLI maps these to exit 2."""

import pytest

from gnk import braids, cancel, fliplab, gamma, geometry, gnk
from gnk.words import Alphabet, Word


def _relators():
    ab = Alphabet(["a", "b"], involutive=False)
    return cancel.symmetrise(ab, [[("a", 1), ("b", 1), ("a", -1),
                                   ("b", -1)]])


def _gale_short_labeling():
    group = gamma.GammaGroup(6, 5)
    return gamma.gale_relation_word(
        group, gamma.enumerate_standard_gale(6)[0], (1, 2, 3))


def _assign_codes():
    w = Word(Alphabet(["a"]), [0])
    w.codes = (0, 0)


def _polys(names):
    return [fliplab.Polynomial.variable((name,), name) for name in names]


def _zero_denominator():
    (x,) = _polys("x")
    return fliplab.RationalExpr(x, fliplab.Polynomial.constant(("x",), 0))


def _hash_rational():
    return hash(fliplab.RationalExpr.var(("x",), "x"))


G42 = gnk.GnkGroup(4, 2)
G43 = gnk.GnkGroup(4, 3)
EMPTY42 = Word(G42.alphabet)
EMPTY43 = Word(G43.alphabet)

CASES = [
    ("gnk-label-count", lambda: gnk.GnkGroup(3, 2, labels=(1, 2)),
     ValueError, "label count must equal n"),
    ("forget-index-label", lambda: gnk.forget_index(G43, EMPTY43, 9),
     ValueError, "label 9 not in group"),
    ("delete-strand-label", lambda: gnk.delete_strand(G43, EMPTY43, 0),
     ValueError, "label 0 not in group"),
    ("bigon-k3", lambda: gnk.bigon_reduce_g2(G43, EMPTY43),
     ValueError, "bigon reduction applies to k = 2 only"),
    ("check-cp-p1", lambda: cancel.check_cp(_relators(), 1),
     ValueError, "need p >= 2"),
    ("check-tq-q2", lambda: cancel.check_tq(_relators(), 2),
     ValueError, "need q > 2"),
    ("gamma4-n3", lambda: gamma.Gamma4Group(3),
     ValueError, "need n >= 4 labels"),
    ("gamma-k3", lambda: gamma.GammaGroup(5, 3),
     ValueError, "need 4 <= k <= n"),
    ("gale-positions", lambda: gamma.GaleDiagram(5, [0, 1]),
     ValueError, "need exactly l positions"),
    ("gale-order-4", lambda: gamma.enumerate_standard_gale(4),
     ValueError, "standard Gale diagrams need l >= 5"),
    ("gale-short-labeling", _gale_short_labeling,
     ValueError, "labeling must list l labels"),
    ("gale-transform-collinear",
     lambda: gamma.gale_transform([(0, 0), (1, 1), (2, 2), (3, 3)]),
     ValueError, "points do not affinely span R^d"),
    ("pb-to-gamma4-n3",
     lambda: braids.pb_to_gamma4(braids.PureBraidWord(3)),
     ValueError, "Gamma_n^4 needs n >= 4"),
    ("omega-m-missing-label", lambda: braids.omega_m(G42, EMPTY42, 7),
     ValueError, "label 7 not present"),
    ("alphabet-duplicate-names", lambda: Alphabet(["a", "b", "a"]),
     ValueError, "duplicate symbol names"),
    ("alphabet-duplicate-keys", lambda: Alphabet({"a": 1, "b": 1}),
     ValueError, "duplicate symbol keys"),
    ("word-product-alphabets",
     lambda: Word(Alphabet(["a"]), [0]) * Word(Alphabet(["b"]), [0]),
     ValueError, "alphabet mismatch"),
    ("word-codes-assigned", _assign_codes,
     AttributeError, "Word is immutable"),
    ("polynomial-unknown-variable",
     lambda: fliplab.Polynomial.variable(("x", "y"), "z"),
     KeyError, "'z'"),
    ("polynomial-universes", lambda: _polys("x")[0] + _polys("y")[0],
     ValueError, "variable universe mismatch"),
    ("rational-zero-denominator", _zero_denominator,
     ZeroDivisionError, "zero denominator polynomial"),
    ("rational-hash", _hash_rational,
     TypeError, "RationalExpr is unhashable (equality is semantic)"),
    ("flip-quad-boundary",
     lambda: fliplab.pentagon_triangulation().flip_quad((1, 2)),
     ValueError, "edge (1, 2) is not an interior diagonal"),
    ("delaunay-2-points", lambda: geometry.delaunay([(0, 0), (1, 0)]),
     geometry.DegenerateConfiguration, "need at least 3 points"),
    ("delaunay-collinear",
     lambda: geometry.delaunay([(0, 0), (1, 1), (2, 2), (3, 3)]),
     geometry.DegenerateConfiguration,
     "no triangles: all points collinear?"),
    ("canonical-i-not-below-j",
     lambda: geometry.canonical_generator_trajectory(5, 3, 3, "circle_gn3"),
     ValueError, "need 1 <= i < j <= n"),
    ("canonical-unknown-style",
     lambda: geometry.canonical_generator_trajectory(5, 1, 3, "spiral"),
     ValueError, "unknown style 'spiral'"),
]


@pytest.mark.parametrize("call, kind, message",
                         [pytest.param(*case[1:], id=case[0])
                          for case in CASES])
def test_precondition_raises(call, kind, message):
    with pytest.raises(kind) as exc:
        call()
    assert type(exc.value) is kind
    assert str(exc.value) == message
