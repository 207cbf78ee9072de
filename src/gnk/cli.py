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
from collections import Counter
from fractions import Fraction

from . import braids, cancel, gamma, geometry, gnk
from .words import (LABELS_PATTERN, Word, format_word, parse_word,
                    read_labels, read_letters, read_text, read_tokens, token,
                    token_letter)

REPORT_SCHEMA = 1


def _emit(args, payload):
    if getattr(args, "format", "text") == "json":
        payload = {"schema": REPORT_SCHEMA, **payload}
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        for key, value in payload.items():
            print("%s: %s" % (key, value))


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError("cannot read %s: %s" % (path, exc.strerror)) from None


def _labels(text, count):
    """The ``count`` comma-separated labels of ``invariant --m``."""
    m = text.split(",")
    if len(m) != count or not all(t.strip().isdecimal() for t in m):
        raise ValueError("--m %s: expected %d comma-separated labels"
                         % (text, count))
    return tuple(map(int, m))


def cmd_reduce(args):
    w = Word(*read_text(_read(args.path), involutive=not args.free))
    _emit(args, {"word": format_word(w), "length": len(w)})
    return 0


def cmd_invariant(args):
    n, k = args.n, args.k
    group = gnk.GnkGroup(n, k)
    w = parse_word(group.alphabet, _read(args.path))
    m = _labels(args.m, k if args.map == "mn" else 3)
    if args.map == "mn":
        ctx = gnk.MNContext(group, m)
        value = gnk.mn_invariant(group, w, m, ctx)
        bound = gnk.coset_overlap_bound(ctx, gnk.mn_value_support(value))
        _emit(args, {"chain": "mn[m=%s]" % (args.m,),
                     "value": format_word(value),
                     "unknotting_lower_bound": str(bound)})
    else:
        value = braids.phi_ijk(group, w, m)
        _emit(args, {"chain": "phi_(%s)" % (args.m,),
                     "value": format_word(value)})
    return 0


def cmd_braid_map(args):
    b = braids.parse_braid(args.n, _read(args.path))
    if args.target == "gamma4-graded":
        ws = braids.pb_to_gamma4_graded(b)
        _emit(args, {"chain": "pb_to_gamma4_graded",
                     "components": [format_word(w) for w in ws]})
        return 0
    w = getattr(braids, "pb_to_" + args.target)(b)   # gn3, gn4 or gamma4
    _emit(args, {"chain": "pb_to_%s" % args.target,
                 "word": format_word(w), "length": len(w)})
    return 0


def cmd_compile_trajectory(args):
    tr = geometry.Trajectory.from_json(_read(args.path))
    result, events = geometry.compile_word(tr, args.target)
    log = [{"segment": e.segment,
            "bracket": [str(e.bracket[0]), str(e.bracket[1])],
            "participants": list(e.participants)} for e in events]
    if args.target == "gamma4_graded":
        payload = {"components": [format_word(w) for w in result]}
    else:
        payload = {"word": format_word(result)}
    payload["events"] = json.dumps(log) if args.format == "text" else log
    _emit(args, payload)
    return 0


def cmd_gale(args):
    if args.order > gamma.GALE_ORDER_MAX:
        raise ValueError("--order %d: at most %d (the enumeration walks "
                         "2^(order-1) transversals)"
                         % (args.order, gamma.GALE_ORDER_MAX))
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
    if 4 <= args.k <= args.n:
        sizes = gamma.gamma_sizes(args.n, args.k)
        caps = [(gamma.GAMMA_GENERATORS_MAX, "generators"),
                (gamma.GAMMA_LABELINGS_MAX, "labelled polygons")]
        if args.abelianization_gf2:     # its rows list the oriented columns
            caps.append((gamma.GAMMA_LABELINGS_MAX,
                         "oriented column listings"))
        for size, (cap, what) in zip(sizes, caps):
            if size > cap:
                raise ValueError("--n %d --k %d: %d %s, at most %d"
                                 % (args.n, args.k, size, what, cap))
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
    # one token per letter code of the group alphabet
    tokens = [token(s, e) for s in group.alphabet.symbols for e in (1, -1)]
    _emit(args, {
        "generators": len(group.alphabet),
        "far_commutativity": far,
        "polygon_relators": len(polygons),
        "relators": "\n".join(" ".join(map(tokens.__getitem__, cw.codes))
                               for cw in polygons),
    })
    return 0


_ORIENTED_TOKEN = re.compile("(%s),(%s)" % ((LABELS_PATTERN,) * 2))


def _parse_oriented_word(text, n, k):
    """One letter per token: P,Q[^-1] with cyclic Q order, e.g. 35,164^-1
    or {1,10},{2,3,4}; P and Q are disjoint, of at least two labels each,
    k labels in all, each in 1..n; the identity 1 is no letter."""
    letters = []
    for tok in read_tokens(text)[0]:
        symbol, sign = token_letter(tok)
        m = _ORIENTED_TOKEN.fullmatch(symbol)
        if not m:
            raise ValueError("oriented letter %r: expected P,Q or P,Q^-1" % tok)
        P, Q = read_labels(m.group(1)), read_labels(m.group(2))
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
        letters.append((P, Q, sign))
    return letters


def _replay_spec(text):
    """({edge: label name}, triangles, moves) of a ``fliplab replay`` spec:
    "labels" maps "i-j" to a name, "triangles" and "moves" list label
    triples and pairs.  A missing or mistyped field raises ValueError
    naming it."""
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError("replay spec: not JSON: %s" % exc) from None
    if not isinstance(spec, dict):
        raise ValueError("replay spec: the top level must be a JSON object")
    labels = spec.get("labels")
    if type(labels) is not dict:
        raise ValueError('replay spec: "labels" must be a JSON object')
    edges = {}
    for key, name in labels.items():
        ends = key.split("-")
        if (len(ends) != 2 or not all(e.isdecimal() for e in ends)
                or type(name) is not str):
            raise ValueError('replay spec: label %s: %s is not "i-j": name'
                             % (json.dumps(key), json.dumps(name)))
        edge = tuple(sorted(map(int, ends)))
        if edge in edges:
            raise ValueError("replay spec: edge %d-%d is labelled twice" % edge)
        edges[edge] = name
    lists = []
    for field, size in (("triangles", 3), ("moves", 2)):
        value = spec.get(field)
        if type(value) is not list or not all(
                type(t) is list and len(t) == size
                and all(type(v) is int for v in t) for t in value):
            raise ValueError('replay spec: "%s" must be a JSON list of lists '
                             'of %d ints' % (field, size))
        lists.append([tuple(t) for t in value])
    return edges, *lists


def cmd_fliplab(args):
    from . import fliplab
    if args.mode == "pentagon":
        tri = fliplab.pentagon_triangulation()
        seq = fliplab.pentagon_flip_cycle(tri)
        if not seq[-1].labels_equal(seq[0]):
            raise ValueError("the pentagon flip cycle does not return to "
                             "its labels")
        _emit(args, {"pentagon_identity": True, "symbolic": True})
        return 0
    if args.path is None:
        raise ValueError("fliplab replay needs a spec path")
    edges, triangles, moves = _replay_spec(_read(args.path))
    names = sorted(set(edges.values()))
    syms = dict(zip(names, fliplab.symbols(names)))
    tri = fliplab.LabeledTriangulation(
        triangles, {e: syms[name] for e, name in edges.items()})
    for e in moves:
        tri = tri.ptolemy_flip(e)
    out = {"-".join(str(v) for v in e): str(expr)
           for e, expr in sorted(tri.labels.items())}
    _emit(args, {"labels": json.dumps(out, sort_keys=True)
                 if args.format == "text" else out})
    return 0


def cmd_cancel(args):
    if args.mode == "dehn" and args.word is None:
        raise ValueError("cancel dehn needs --word")
    text = _read(args.presentation)
    alphabet, codes = read_text(text, involutive=False)
    # symmetrise reads relators as (symbol, sign) letters, one per line
    letters = iter(alphabet.decode(codes))
    relators = [tuple(next(letters) for _ in read_tokens(line)[0])
                for line in text.splitlines() if line.strip()]
    R = cancel.symmetrise(alphabet, relators)
    if args.mode == "dehn" and not R.elements:
        # before the word is read over the presentation's (no) symbols
        raise ValueError("the relator set is empty")
    if args.mode == "check":
        try:
            lam = Fraction(args.lam)
        except (ValueError, ZeroDivisionError):
            raise ValueError("--lambda %s: expected a fraction p/q, q != 0"
                             % args.lam) from None
        holds, witness = cancel.check_metric_condition(R, lam)
        _emit(args, {"symmetrised": len(R), "lambda": str(lam),
                     "holds": holds,
                     "witness": (format_word(Word(alphabet, witness[0]))
                                 if witness else None)})
        return 0
    sylls = cancel.to_syllables(alphabet,
                                read_letters(alphabet, _read(args.word)))
    res = cancel.dehn_reduce_syllables(alphabet, sylls, R)
    _emit(args, {"reduced_length": res.letter_count,
                 "trivial": res.is_trivial(),
                 "max_overlap": res.trace.max_overlap_at_fixpoint,
                 "steps": len(res.trace.steps)})
    return 0


def cmd_brunnian(args):
    b = braids.parse_braid(args.n, _read(args.path))
    cert = braids.brunnian_certificate(b)
    certified = all(len(v) == 0 for v in cert.values())
    # a residue with a nonzero generator exponent sum (its letter counts
    # differ from its inverse's) is nontrivial in the pure braid group,
    # certifying non-Brunnian-ness; a residue that merely fails to reduce
    # freely stays inconclusive
    if certified:
        status = "true"
    elif any(Counter(v.codes) != Counter(v.inverse().codes)
             for v in cert.values()):
        status = "false-certified"
    else:
        status = "unknown"
    _emit(args, {
        "chain": "p_m free reduction for m=1..%d" % b.n,
        "certified_brunnian": certified,
        "status": status,
        "residues": {m: braids.format_braid(v)
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
    p.add_argument("--symbolic", action="store_true",
                   help="accepted and has no effect: labels are always "
                        "symbolic")
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
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except geometry.DegenerateTrajectory as exc:
        print("degenerate trajectory: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
