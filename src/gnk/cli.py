"""Command-line front door.

Subcommands: reduce, invariant, braid-map, compile-trajectory, gale,
gamma-presentation, fliplab, cancel, brunnian.  Reports are deterministic;
exit codes: 0 success, 2 precondition violation, 3 degenerate trajectory.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import braids, cancel, gamma, geometry, gnk
from .words import (Alphabet, Word, format_word, parse_word, read_letters,
                    read_symbols)

REPORT_SCHEMA = 1


def _emit(args, payload):
    if getattr(args, "format", "text") == "json":
        payload = {"schema": REPORT_SCHEMA, **payload}
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        for key, value in payload.items():
            print("%s: %s" % (key, value))


def _read(path):
    with open(path) as fh:
        return fh.read()


def cmd_reduce(args):
    text = _read(args.path)
    alphabet = Alphabet(read_symbols(text), involutive=not args.free)
    w = Word(alphabet, read_letters(alphabet, text))
    _emit(args, {"word": format_word(w) or "1", "length": len(w)})
    return 0


def cmd_invariant(args):
    n, k = args.n, args.k
    group = gnk.GnkGroup(n, k)
    w = parse_word(group.alphabet, _read(args.path))
    if args.map == "mn":
        m = tuple(int(t) for t in args.m.split(","))
        if not gnk.is_even(w):
            print("error: mn invariant needs an even word", file=sys.stderr)
            return 2
        value = gnk.mn_invariant(group, w, m)
        bound = gnk.unknotting_lower_bound(group, w, m)
        _emit(args, {"chain": "mn[m=%s]" % (args.m,),
                     "value": format_word(value) or "1",
                     "unknotting_lower_bound": str(bound)})
    else:
        triple = tuple(int(t) for t in args.m.split(","))
        value = braids.phi_ijk(group, w, triple)
        _emit(args, {"chain": "phi_(%s)" % (args.m,),
                     "value": format_word(value) or "1"})
    return 0


def cmd_braid_map(args):
    b = braids.parse_braid(args.n, _read(args.path))
    if args.target == "gn3":
        w = braids.pb_to_gn3(b)
    elif args.target == "gn4":
        w = braids.pb_to_gn4(b)
    elif args.target == "gamma4":
        w = braids.pb_to_gamma4(b)
    else:
        ws = braids.pb_to_gamma4_graded(b)
        _emit(args, {"chain": "pb_to_gamma4_graded",
                     "components": [format_word(w) or "1" for w in ws]})
        return 0
    _emit(args, {"chain": "pb_to_%s" % args.target,
                 "word": format_word(w) or "1", "length": len(w)})
    return 0


def cmd_compile_trajectory(args):
    tr = geometry.Trajectory.from_json(_read(args.path))
    result, events = geometry.compile_word(tr, args.target)
    log = [{"segment": e.segment,
            "bracket": [str(e.bracket[0]), str(e.bracket[1])],
            "participants": list(e.participants)} for e in events]
    if args.target == "gamma4_graded":
        payload = {"components": [format_word(w) or "1" for w in result]}
    else:
        payload = {"word": format_word(result) or "1"}
    payload["events"] = json.dumps(log) if args.format == "text" else log
    _emit(args, payload)
    return 0


def cmd_gale(args):
    diagrams = gamma.enumerate_standard_gale(args.order)
    payload = {"order": args.order, "count": len(diagrams),
               "formula": gamma.standard_gale_count_formula(args.order),
               "diagrams": [list(d.positions) for d in diagrams]}
    if args.emit_relations:
        # only the splits used; labels 1..l keep each side sorted
        splits = {tuple(sorted(tuple(j + 1 for j in side) for side in rl))
                  for d in diagrams for rl in d.rl_position_sets()}
        group = gamma.GammaGroup(args.order, args.order - 1,
                                 splits=sorted(splits))
        M = tuple(range(1, args.order + 1))
        payload["relations"] = [format_word(gamma.gale_relation_word(
            group, d, M)) for d in diagrams]
    _emit(args, payload)
    return 0


def cmd_gamma_presentation(args):
    if args.extra_word and not args.abelianization_gf2:
        raise ValueError("--extra-word needs --abelianization-gf2")
    if args.abelianization_gf2:
        extra = []
        if args.extra_word:
            extra.append(_parse_oriented_word(_read(args.extra_word),
                                             args.n, args.k))
        res = gamma.oriented_abelianization_gf2(args.n, args.k,
                                                extra_words=extra)
        payload = {"generators": res[0], "relations": res[1], "rank": res[2]}
        if len(res) > 3:
            payload["rank_with_extra"] = res[3]
        _emit(args, payload)
        return 0
    group, far, polygons = gamma.gamma_presentation(args.n, args.k)
    _emit(args, {
        "generators": len(group.alphabet),
        "far_commutativity": len(far),
        "polygon_relators": len(polygons),
        "relators": "\n".join(map(format_word, polygons)),
    })
    return 0


_ORIENTED_SIDE = r"(\{[0-9]+(?:,[0-9]+)*\}|[0-9]+)"
_ORIENTED_TOKEN = re.compile(_ORIENTED_SIDE + "," + _ORIENTED_SIDE + r"(\^-1)?")


def _oriented_side(text):
    """Labels of one side as ``words.labels_text`` writes them: ``164``
    (one digit per label) or ``{1,10,11}``."""
    if text.startswith("{"):
        return tuple(int(x) for x in text[1:-1].split(","))
    return tuple(int(c) for c in text)


def _parse_oriented_word(text, n, k):
    """One letter per token: P,Q[^-1] with cyclic Q order, e.g. 35,164^-1
    or {1,10},{2,3,4}; P and Q are disjoint, of at least two labels each,
    k labels in all, each in 1..n."""
    letters = []
    for tok in text.split():
        m = _ORIENTED_TOKEN.fullmatch(tok)
        if not m:
            raise ValueError("oriented letter %r: expected P,Q or P,Q^-1" % tok)
        P, Q = _oriented_side(m.group(1)), _oriented_side(m.group(2))
        labels = P + Q
        if not all(1 <= x <= n for x in labels):
            raise ValueError("oriented letter %r: label outside 1..%d"
                             % (tok, n))
        if len(set(labels)) != len(labels):
            raise ValueError("oriented letter %r: repeated label or P and Q "
                             "not disjoint" % tok)
        if len(labels) != k or min(len(P), len(Q)) < 2:
            raise ValueError("oriented letter %r: needs k = %d labels, at "
                             "least two on each side" % (tok, k))
        letters.append((P, Q, -1 if m.group(3) else 1))
    return letters


def cmd_fliplab(args):
    from . import fliplab
    if args.mode == "pentagon":
        tri = fliplab.pentagon_triangulation()
        seq = fliplab.pentagon_flip_cycle(tri)
        ok = seq[-1].labels_equal(seq[0])
        _emit(args, {"pentagon_identity": ok, "symbolic": True})
        return 0 if ok else 2
    if args.path is None:
        raise ValueError("fliplab replay needs a spec path")
    spec_ = json.loads(_read(args.path))
    names = sorted(spec_["labels"].values())
    syms = dict(zip(names, fliplab.symbols(names)))
    labels = {tuple(int(v) for v in key.split("-")): syms[name]
              for key, name in spec_["labels"].items()}
    tri = fliplab.LabeledTriangulation(
        [tuple(t) for t in spec_["triangles"]], labels)
    for e in spec_["moves"]:
        tri = tri.ptolemy_flip(tuple(e))
    out = {"-".join(str(v) for v in e): str(expr)
           for e, expr in sorted(tri.labels.items())}
    _emit(args, {"labels": json.dumps(out, sort_keys=True)
                 if args.format == "text" else out})
    return 0


def cmd_cancel(args):
    if args.mode == "dehn" and args.word is None:
        raise ValueError("cancel dehn needs --word")
    text = _read(args.presentation)
    alphabet = Alphabet(read_symbols(text), involutive=False)
    # symmetrise reads relators as (symbol, sign) letters
    relators = [alphabet.decode(read_letters(alphabet, line))
                for line in text.splitlines() if line.strip()]
    R = cancel.symmetrise(alphabet, relators)
    if args.mode == "check":
        lam = Fraction(args.lam)
        holds, witness = cancel.check_metric_condition(R, lam)
        _emit(args, {"symmetrised": len(R), "lambda": str(lam),
                     "holds": holds,
                     "witness": (format_word(Word(alphabet, witness[0]))
                                 if witness else None)})
        return 0
    sylls = cancel.to_syllables(alphabet,
                                read_letters(alphabet, _read(args.word)))
    try:
        res = cancel.dehn_reduce_syllables(alphabet, sylls, R)
    except cancel.PresentationNotC16 as exc:
        print("presentation is not C'(1/6): %s" % exc, file=sys.stderr)
        return 2
    _emit(args, {"reduced_length": res.letter_count,
                 "trivial": res.is_trivial(),
                 "max_overlap": res.trace.max_overlap_at_fixpoint,
                 "steps": len(res.trace.steps)})
    return 0


def cmd_brunnian(args):
    b = braids.parse_braid(args.n, _read(args.path))
    cert = braids.brunnian_certificate(b)
    certified = all(len(v) == 0 for v in cert.values())
    if certified:
        status = "true"
    else:
        # a residue with a nonzero generator exponent sum is nontrivial in
        # the pure braid group, certifying non-Brunnian-ness; a residue that
        # merely fails to reduce freely stays inconclusive
        for v in cert.values():
            sums = {}
            for ij, e in v.letters:
                sums[ij] = sums.get(ij, 0) + e
            if any(sums.values()):
                status = "false-certified"
                break
        else:
            status = "unknown"
    _emit(args, {
        "chain": "p_m free reduction for m=1..%d" % b.n,
        "certified_brunnian": certified,
        "status": status,
        "residues": {m: braids.format_braid(v) or "1"
                     for m, v in cert.items() if len(v)},
    })
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing does not change
    it, and building it takes longer than many of the commands it runs."""
    ap = argparse.ArgumentParser(prog="gnk",
                                 description="free k-braid group engine")
    ap.add_argument("--format", choices=["text", "json"], default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="freely reduce a word file")
    p.add_argument("path")
    p.add_argument("--free", action="store_true",
                   help="treat symbols as non-involutive")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("invariant", help="invariant of a G_n^k word")
    p.add_argument("path")
    p.add_argument("--map", required=True, choices=["mn", "phi-ijk"])
    p.add_argument("--m", required=True, help="comma-separated index subset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("braid-map", help="image of a pure braid word")
    p.add_argument("path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", required=True,
                   choices=["gn3", "gn4", "gamma4", "gamma4-graded"])
    p.set_defaults(func=cmd_braid_map)

    p = sub.add_parser("compile-trajectory", help="compile a trajectory JSON")
    p.add_argument("path")
    p.add_argument("--target", required=True,
                   choices=["gn3", "gn4", "gamma4", "gamma4_graded",
                            "gamma4_space"])
    p.set_defaults(func=cmd_compile_trajectory)

    p = sub.add_parser("gale", help="standard Gale diagrams of an order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--emit-relations", action="store_true")
    p.set_defaults(func=cmd_gale)

    p = sub.add_parser("gamma-presentation", help="Gamma_n^k data")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--abelianization-gf2", action="store_true")
    p.add_argument("--extra-word", help="file with an oriented extra word")
    p.set_defaults(func=cmd_gamma_presentation)

    p = sub.add_parser("fliplab", help="flip-label computations")
    p.add_argument("mode", choices=["pentagon", "replay"])
    p.add_argument("path", nargs="?")
    p.add_argument("--symbolic", action="store_true")
    p.set_defaults(func=cmd_fliplab)

    p = sub.add_parser("cancel", help="small cancellation checks")
    p.add_argument("mode", choices=["check", "dehn"])
    p.add_argument("presentation", help="file: one relator per line")
    p.add_argument("--lambda", dest="lam", default="1/6")
    p.add_argument("--word", help="word file for dehn mode")
    p.set_defaults(func=cmd_cancel)

    p = sub.add_parser("brunnian", help="Brunnian certificate for a braid")
    p.add_argument("path")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_brunnian)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except geometry.DegenerateTrajectory as exc:
        print("degenerate trajectory: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
