import argparse
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "gnk.cli"] + args,
                          capture_output=True, text=True, **kw)


def test_cli_imports_without_numpy():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['numpy'] = None; import gnk.cli"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_reduce_empty(tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("a_12 a_12\n")
    out = run_cli(["reduce", str(f)])
    assert out.returncode == 0
    assert "length: 0" in out.stdout


def test_invariant_mn_worked_example(tmp_path):
    f = tmp_path / "beta.txt"
    f.write_text("a_123 a_234 a_123 a_134 a_123 a_134 a_123 a_234\n")
    out = run_cli(["invariant", str(f), "--map", "mn", "--m", "1,2,3",
                   "--n", "4", "--k", "3"])
    assert out.returncode == 0
    assert "f_00 f_10 f_11 f_10" in out.stdout
    assert "unknotting_lower_bound: 1" in out.stdout


def test_invariant_precondition_exit_code(tmp_path):
    f = tmp_path / "odd.txt"
    f.write_text("a_123\n")
    out = run_cli(["invariant", str(f), "--map", "mn", "--m", "1,2,3",
                   "--n", "4", "--k", "3"])
    assert out.returncode == 2


def test_compile_trajectory_b13(tmp_path):
    from gnk.geometry import canonical_generator_trajectory
    tr = canonical_generator_trajectory(5, 1, 3, "circle_gamma4")
    f = tmp_path / "b13_n5.json"
    f.write_text(tr.to_json())
    out = run_cli(["--format", "json", "compile-trajectory", str(f),
                   "--target", "gamma4"])
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["word"] == "d_1254 d_1243 d_1324 d_1254"
    assert payload["events"]


def test_compile_trajectory_degenerate_exit_code(tmp_path):
    from gnk.geometry import Trajectory
    tr = Trajectory([(0, 0), (2, 0), (0, 2), (1, 0)], [(4, (1, 2))])
    f = tmp_path / "bad.json"
    f.write_text(tr.to_json())
    out = run_cli(["compile-trajectory", str(f), "--target", "gn3"])
    assert out.returncode == 3


def test_compile_trajectory_graded_needs_n_above_5(tmp_path):
    from gnk.geometry import canonical_generator_trajectory
    f = tmp_path / "n5.json"
    f.write_text(canonical_generator_trajectory(5, 1, 2, "circle_gamma4")
                 .to_json())
    out = run_cli(["compile-trajectory", str(f), "--target", "gamma4_graded"])
    assert out.returncode == 2
    assert out.stderr == "error: graded target needs n > 5\n"


def _trajectory_file(points, moves, n=None, dim=2):
    enc = [[[x, 1] for x in p] for p in points]
    return {"n": len(points) if n is None else n, "dim": dim, "points": enc,
            "moves": [{"p": p, "to": [[x, 1] for x in to]} for p, to in moves]}


_PLANE = [(0, 0), (7, 1), (3, 8), (9, 6)]
_SPACE = [(0, 0, 0), (7, 1, 2), (3, 8, 5), (9, 6, 1)]
_MALFORMED_TRAJECTORIES = {
    "long_point": (_trajectory_file(_PLANE[:3] + [(9, 6, 4)], [(1, (1, 7))]),
                   "gn3", "point 4 has 3 coordinates"),
    "short_target": (_trajectory_file(_PLANE, [(1, (1,))]),
                     "gn3", "target of move 1 has 1 coordinates"),
    "wrong_n": (_trajectory_file(_PLANE, [(1, (1, 7))], n=5),
                "gn3", "n is 5 but there are 4 points"),
    "dim3_to_gn3": (_trajectory_file(_SPACE, [(1, (1, 7, 3))], dim=3),
                    "gn3", "target gn3 needs dim 2"),
    "zero_denominator": (_trajectory_file(_PLANE, [(1, (1, 7))])
                         | {"points": [[[0, 1], [0, 0]]] + [
                             [[x, 1] for x in p] for p in _PLANE[1:]]},
                         "gn3", "zero denominator"),
    "dim2_to_space": (_trajectory_file(_PLANE, [(1, (1, 7))]),
                      "gamma4_space", "target gamma4_space needs dim 3"),
    "float_coordinate": (_trajectory_file(_PLANE, [(1, (1, 7))])
                         | {"points": [[[0.5, 1], [0, 1]]] + [
                             [[x, 1] for x in p] for p in _PLANE[1:]]},
                         "gn3", "coordinates must be [num, den] pairs of ints"),
    "fractional_mover": (_trajectory_file(_PLANE, [(1.7, (1, 7))]),
                         "gn3", "mover indices must be ints"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_TRAJECTORIES))
def test_compile_trajectory_rejects_malformed_file(tmp_path, capsys, case):
    # a malformed file is a precondition violation: exit 2 with a message,
    # never a word, a traceback or a silently dropped coordinate
    from gnk.cli import main
    data, target, message = _MALFORMED_TRAJECTORIES[case]
    f = tmp_path / "traj.json"
    f.write_text(json.dumps(data))
    code = main(["compile-trajectory", str(f), "--target", target])
    out = capsys.readouterr()
    assert code == 2 and out.out == "", out
    assert out.err.startswith("error: ") and message in out.err, out.err


def test_gale_cli():
    out = run_cli(["--format", "json", "gale", "--order", "6",
                   "--emit-relations"])
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["count"] == 2
    assert payload["formula"] == 2
    assert len(payload["relations"]) == 2


def test_gamma_presentation_cli():
    out = run_cli(["--format", "json", "gamma-presentation", "--n", "6",
                   "--k", "5", "--abelianization-gf2"])
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["generators"] == 120
    assert payload["relations"] == 1440


def test_brunnian_cli(tmp_path):
    f = tmp_path / "b.txt"
    f.write_text("b_1_2 b_1_3 b_1_2^-1 b_1_3^-1\n")
    out = run_cli(["brunnian", str(f), "--n", "3"])
    assert out.returncode == 0
    assert "certified_brunnian: True" in out.stdout


def test_cancel_cli(tmp_path):
    pres = tmp_path / "pres.txt"
    pres.write_text("x y x^-1 y^-1 x y x^-1 y^-1\n")
    word = tmp_path / "w.txt"
    word.write_text("x y x^-1 y^-1 x y x^-1 y^-1\n")
    out = run_cli(["cancel", "check", str(pres), "--lambda", "1/6"])
    assert out.returncode == 0
    assert "holds: True" in out.stdout
    out2 = run_cli(["cancel", "dehn", str(pres), "--word", str(word)])
    assert out2.returncode == 0
    assert "trivial: True" in out2.stdout


def test_fliplab_pentagon_cli():
    out = run_cli(["fliplab", "pentagon", "--symbolic"])
    assert out.returncode == 0
    assert "pentagon_identity: True" in out.stdout


def _flip(tris, e):
    """Flip the diagonal e of a polygon triangulation given as sorted
    vertex triples; returns the new triangles and the new diagonal."""
    a, b = e
    p, q = [next(v for v in t if v not in e)
            for t in sorted(tris) if a in t and b in t]
    tris = tris - {tuple(sorted((a, b, p))), tuple(sorted((a, b, q)))}
    tris |= {tuple(sorted((p, q, a))), tuple(sorted((p, q, b)))}
    return tris, (p, q)


def _fraction_replay(tris, values, moves):
    """Ptolemy flips on Fraction labels: the new diagonal (p, q) of the
    quadrilateral around (a, b) gets (|pa| |qb| + |aq| |bp|) / |ab|."""
    labels = dict(values)

    def lab(u, v):
        return labels[tuple(sorted((u, v)))]

    for a, b in moves:
        tris, (p, q) = _flip(tris, (a, b))
        y = (lab(p, a) * lab(q, b) + lab(a, q) * lab(b, p)) / labels.pop((a, b))
        labels[tuple(sorted((p, q)))] = y
    return labels


def _eval_label(text, values):
    """Value of a printed label 'poly' or '(poly) / (poly)'; a poly is
    terms joined by ' + ' / ' - ', each '*'-joined numbers and 'v' or 'v^e'."""
    if text.startswith("("):
        num, den = text[1:-1].split(") / (")
        return _eval_label(num, values) / _eval_label(den, values)
    total = Fraction(0)
    for term in text.replace(" - ", " + -").split(" + "):
        value = Fraction(-1 if term.startswith("-") else 1)
        for factor in term.lstrip("-").split("*"):
            name, _, exp = factor.partition("^")
            value *= (values[name] ** int(exp or 1) if name in values
                      else Fraction(name))
        total += value
    return total


def _edges(tris):
    return sorted({(t[i], t[j]) for t in tris for i, j in ((0, 1), (0, 2), (1, 2))})


def test_fliplab_replay_matches_fraction_replay(tmp_path):
    rng = random.Random(7)
    start = {(1, k, k + 1) for k in range(2, 6)}
    tris, moves = set(start), []
    for _ in range(12):
        e = rng.choice([e for e in _edges(tris) if 1 < e[1] - e[0] < 5])
        tris, _ = _flip(tris, e)
        moves.append(e)
    f = tmp_path / "hexagon.json"
    f.write_text(json.dumps({
        "labels": {"%d-%d" % e: "e%d_%d" % e for e in _edges(start)},
        "triangles": [list(t) for t in sorted(start)],
        "moves": [list(e) for e in moves]}))
    out = run_cli(["--format", "json", "fliplab", "replay", str(f)])
    assert out.returncode == 0, out.stderr
    printed = json.loads(out.stdout)["labels"]
    for _ in range(3):
        values = {e: Fraction(rng.randint(1, 50), rng.randint(1, 50))
                  for e in _edges(start)}
        by_name = {"e%d_%d" % e: v for e, v in values.items()}
        assert {tuple(map(int, k.split("-"))): _eval_label(text, by_name)
                for k, text in printed.items()} \
            == _fraction_replay(start, values, moves)
    # reduced form: a Laurent numerator over a monomial
    for text in printed.values():
        assert " + " not in text.partition(") / (")[2]


def test_fliplab_replay_pinned_text(tmp_path):
    spec = {"labels": {"1-2": "a", "2-3": "b", "3-4": "c", "4-5": "d",
                       "5-6": "e", "1-6": "f", "1-3": "x", "1-4": "y",
                       "1-5": "z"},
            "triangles": [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6]],
            "moves": [[1, 4], [1, 3], [3, 5], [1, 5]]}
    f = tmp_path / "pinned.json"
    f.write_text(json.dumps(spec))
    out = run_cli(["--format", "json", "fliplab", "replay", str(f)])
    assert out.returncode == 0, out.stderr
    assert out.stdout == (
        '{"labels": {"1-2": "a", "1-6": "f", "2-3": "b", '
        '"2-4": "(a*c + b*y) / (x)", '
        '"2-5": "(a*c*z + a*d*x + b*y*z) / (x*y)", '
        '"2-6": "(a*c*f*z + a*d*f*x + a*e*x*y + b*f*y*z) / (x*y*z)", '
        '"3-4": "c", "4-5": "d", "5-6": "e"}, "schema": 1}\n')


def test_braid_map_cli(tmp_path):
    f = tmp_path / "b13.txt"
    f.write_text("b_1_3\n")
    out = run_cli(["braid-map", str(f), "--n", "5", "--target", "gamma4"])
    assert out.returncode == 0
    assert "d_1254 d_1243 d_1324 d_1254" in out.stdout


def test_reports_deterministic(tmp_path):
    f = tmp_path / "beta.txt"
    f.write_text("a_123 a_234 a_123 a_134 a_123 a_134 a_123 a_234\n")
    args = ["--format", "json", "invariant", str(f), "--map", "mn",
            "--m", "1,2,3", "--n", "4", "--k", "3"]
    assert run_cli(args).stdout == run_cli(args).stdout


def test_brunnian_three_valued_statuses(tmp_path):
    f = tmp_path / "b.txt"
    f.write_text("b_1_2\n")
    out = run_cli(["brunnian", str(f), "--n", "3"])
    assert "status: false-certified" in out.stdout
    # a commutator that does not cover all strands: deleting strand 4 keeps
    # a freely nontrivial but exponent-balanced residue
    f2 = tmp_path / "b2.txt"
    f2.write_text("b_1_2 b_2_3 b_1_2^-1 b_2_3^-1\n")
    out2 = run_cli(["brunnian", str(f2), "--n", "4"])
    assert "status: unknown" in out2.stdout


CRITERION4_EXTRA = "35,164 46,253^-1 46,135 35,246^-1"


def test_parse_oriented_word_forms():
    from gnk.cli import _parse_oriented_word
    want = [((3, 5), (1, 6, 4), 1), ((4, 6), (2, 5, 3), -1),
            ((4, 6), (1, 3, 5), 1), ((3, 5), (2, 4, 6), -1)]
    assert _parse_oriented_word(CRITERION4_EXTRA, 6, 5) == want
    braced = "{3,5},{1,6,4} {4,6},{2,5,3}^-1 46,{1,3,5} {3,5},246^-1"
    assert _parse_oriented_word(braced, 6, 5) == want
    assert _parse_oriented_word("{1,10},{2,3,4}^-1", 10, 5) == \
        [((1, 10), (2, 3, 4), -1)]


def test_gamma_presentation_braced_extra_word(tmp_path):
    f = tmp_path / "extra.txt"
    f.write_text("{3,5},{1,6,4} {4,6},{2,5,3}^-1 {4,6},{1,3,5} "
                 "{3,5},{2,4,6}^-1\n")
    out = run_cli(["--format", "json", "gamma-presentation", "--n", "6",
                   "--k", "5", "--abelianization-gf2", "--extra-word", str(f)])
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert payload["rank_with_extra"] == payload["rank"] + 1


def test_gamma_presentation_rejects_bad_extra_word(tmp_path, capsys):
    from gnk.cli import main
    f = tmp_path / "extra.txt"
    for bad in ("110,23", "35,36", "{1,7},{2,3,4}", "35,16", "35;164",
                "35,164^-2", "{1,},{2,3,4}"):
        f.write_text("46,135 %s\n" % bad)
        code = main(["gamma-presentation", "--n", "6", "--k", "5",
                     "--abelianization-gf2", "--extra-word", str(f)])
        err = capsys.readouterr().err
        assert code == 2, bad
        assert repr(bad) in err, err


def test_main_calls_share_one_parser(tmp_path, capsys):
    # the parser is built once per process; a call after others, and after
    # an argparse error, prints what it prints with a freshly built parser
    from gnk.cli import build_parser, main
    f = tmp_path / "beta.txt"
    f.write_text("a_123 a_234 a_123 a_134 a_123 a_134 a_123 a_234\n")
    calls = [
        ["--format", "json", "invariant", str(f), "--map", "mn",
         "--m", "1,2,3", "--n", "4", "--k", "3"],
        ["reduce", str(f), "--free"],
        ["gale", "--order", "6"],
        ["invariant", str(f), "--map", "nope", "--m", "1,2,3", "--n", "4"],
        ["reduce", str(f)],
        ["--format", "json", "gale", "--order", "5"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert fresh[3][0] == 2 and "invalid choice" in fresh[3][2]
    assert build_parser() is build_parser()
    for _ in range(2):
        assert [run(argv) for argv in calls] == fresh


@pytest.mark.parametrize("command", [["braid-map", "--target", "gn3"],
                                     ["brunnian"]])
def test_braid_commands_reject_malformed_tokens(tmp_path, capsys, command):
    from gnk.cli import main
    f = tmp_path / "b.txt"
    for bad in ("a_1_2", "zz_1_3^-1", "b_1_3^-2", "b_1", "b_1_2_3", "b_x_2"):
        f.write_text("b_1_2 %s\n" % bad)
        code = main(command[:1] + [str(f), "--n", "4"] + command[1:])
        out = capsys.readouterr()
        assert code == 2 and out.out == "", bad
        assert repr(bad) in out.err, out.err


@pytest.mark.parametrize("command", [["braid-map", "--target", "gn3"],
                                     ["brunnian"]])
@pytest.mark.parametrize("token, pair", [("b_1_5", (1, 5)), ("b_2_1", (2, 1)),
                                         ("b_0_1^-1", (0, 1))])
def test_braid_commands_reject_generators_out_of_range(tmp_path, capsys,
                                                       command, token, pair):
    # well-formed tokens naming no generator b_ij, 1 <= i < j <= n = 4
    from gnk.cli import main
    f = tmp_path / "b.txt"
    f.write_text("b_1_2 %s b_3_4\n" % token)
    code = main(command[:1] + [str(f), "--n", "4"] + command[1:])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: ") and "(%d,%d)" % pair in out.err
    assert out.err.count("\n") == 1, out.err


@pytest.mark.parametrize("argv, hint", [
    (["fliplab", "replay"], "spec path"),
    (["cancel", "dehn", "{pres}"], "--word"),
    (["gamma-presentation", "--n", "6", "--k", "5", "--extra-word", "{extra}"],
     "--abelianization-gf2"),
])
def test_missing_inputs_exit_2(tmp_path, capsys, argv, hint):
    from gnk.cli import main
    pres = tmp_path / "pres.txt"
    pres.write_text("x y x^-1 y^-1\n")
    extra = tmp_path / "extra.txt"
    extra.write_text(CRITERION4_EXTRA + "\n")
    code = main([a.format(pres=pres, extra=extra) for a in argv])
    out = capsys.readouterr()
    assert code == 2 and out.out == "", argv
    assert out.err.startswith("error: ") and hint in out.err, out.err


# ---------------------------------------------------------------------------
# reduce and cancel against the path that read each word twice


def _old_command(args):
    """``gnk reduce`` and ``gnk cancel`` as they read words before the
    one-pass reader, on (symbol, sign) letters: a token alphabet, then a
    parse and a reduction, and for ``cancel dehn`` a second reduction on the
    way to runs and the Dehn stack that copied its suffix after every push;
    the overlap is the scan over every element of R_*."""
    from certificate_oracles import (best_overlap, old_dehn_reduce_syllables,
                                     old_format_letters, old_parse_letters,
                                     old_reduce_letters, old_to_syllables,
                                     old_token_alphabet)
    from gnk import cancel
    from gnk.cli import _emit, _read

    def parse(alphabet, text):
        return old_reduce_letters(alphabet, old_parse_letters(text))

    if args.command == "reduce":
        text = _read(args.path)
        letters = parse(old_token_alphabet(text, not args.free), text)
        _emit(args, {"word": old_format_letters(letters) or "1",
                     "length": len(letters)})
        return 0
    if args.mode == "dehn" and args.word is None:
        raise ValueError("cancel dehn needs --word")
    text = _read(args.presentation)
    alphabet = old_token_alphabet(text, involutive=False)
    R = cancel.symmetrise(alphabet, [parse(alphabet, line) for line in
                                     text.splitlines() if line.strip()])
    elements = [alphabet.decode(r) for r in R.elements]
    lam = Fraction(args.lam if args.mode == "check" else "1/6")
    holds, witness = cancel.check_metric_condition(R, lam)
    witness = witness and tuple(map(alphabet.decode, witness))
    if args.mode == "check":
        _emit(args, {"symmetrised": len(R), "lambda": str(lam),
                     "holds": holds,
                     "witness": (old_format_letters(witness[0]) if witness
                                 else None)})
        return 0
    w = parse(alphabet, _read(args.word))
    if not holds:
        print("presentation is not C'(1/6): %s" % (witness,), file=sys.stderr)
        return 2
    runs, steps = old_dehn_reduce_syllables(
        alphabet, old_to_syllables(alphabet, w), elements)
    _emit(args, {"reduced_length": sum(abs(e) for _, e in runs),
                 "trivial": not runs,
                 "max_overlap": (best_overlap(runs, elements)[0]
                                 if runs else 0),
                 "steps": len(steps)})
    return 0


def _old_cli(argv):
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from gnk.cli import build_parser
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = _old_command(build_parser().parse_args(argv))
        except (ValueError, KeyError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            code = 2
    return code, out.getvalue(), err.getvalue()


def _new_cli(argv, capsys):
    from gnk.cli import main
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _token_text(rng, letters, ones=True):
    """Letters as word text, with '1' tokens and blank lines strewn in."""
    toks = [s if e == 1 else s + "^-1" for s, e in letters]
    if ones:
        for _ in range(rng.randint(0, 4)):
            toks.insert(rng.randint(0, len(toks)), "1")
    return "".join(t + rng.choice((" ", " ", "\n", "\n\n  ")) for t in toks)


def _nested_letters(rng, symbols, length, free):
    """Blocks, some followed by their inverse: nested cancellations."""
    letters = []
    while len(letters) < length:
        block = [(rng.choice(symbols), rng.choice((1, -1)))
                 for _ in range(rng.randint(1, 40))]
        if rng.random() < 0.4:
            block += [(s, -e if free else e) for s, e in reversed(block)]
        letters += block
    return letters


def test_reduce_matches_old_path(tmp_path, capsys):
    rng = random.Random(71)
    symbols = ["a", "b_1", "g12", "g3", "g10"]
    texts = ["", "\n\n   \n", "1", "1 1\n\n1", "g12^-1 1 g12", "a^-1 a^-1"]
    for length in (1, 5, 30, 200, 4500):
        for free in (False, True):
            texts.append(_token_text(rng, _nested_letters(
                rng, symbols, length, free)))
    path = tmp_path / "w.txt"
    for text in texts:
        path.write_text(text)
        for fmt in ("text", "json"):
            for free in ([], ["--free"]):
                argv = ["--format", fmt, "reduce", str(path)] + free
                got = _new_cli(argv, capsys)
                assert got == _old_cli(argv), (text[:80], argv)
                assert got[0] == 0


def _presentations(rng):
    """(text, relators): the commutator square, with blank lines, two random
    C'(1/6) relators of 24 letters over x, y, z, and two random relator
    pairs, which are most likely not C'(1/6)."""
    from gnk import cancel
    from gnk.words import Alphabet
    xyz = Alphabet(["x", "y", "z"], involutive=False)

    def relator(length):
        return [(rng.choice("xyz"), rng.choice((1, -1)))
                for _ in range(length)]

    comm = [("x", 1), ("y", 1), ("x", -1), ("y", -1)] * 2
    out = [[comm], [comm]]
    while len(out) < 4:
        r = relator(24)
        try:
            R = cancel.symmetrise(xyz, [r])
        except ValueError:
            continue
        if cancel.check_metric_condition(R, Fraction(1, 6))[0] \
                and len({s for s, _ in r}) == 3:
            out.append([r])
    out += [[relator(8), relator(12)], [relator(6), relator(16)]]
    for t, rels in enumerate(out):
        text = "\n".join(" ".join(s if e == 1 else s + "^-1" for s, e in r)
                         for r in rels)
        yield ("\n" + text + "\n\n" if t == 1 else text), rels


def test_cancel_matches_old_path(tmp_path, capsys):
    rng = random.Random(72)
    pres, word = tmp_path / "pres.txt", tmp_path / "w.txt"
    seen = set()
    for ptext, rels in _presentations(rng):
        pres.write_text(ptext)
        symbols = sorted({s for r in rels for s, _ in r})
        for t in range(8):
            if t % 2:
                # conjugates of relators and their inverses: trivial
                letters = []
                for _ in range(rng.randint(1, 30)):
                    g = [(rng.choice(symbols), rng.choice((1, -1)))
                         for _ in range(rng.randint(0, 3))]
                    r = rng.choice(rels)
                    if rng.random() < 0.5:
                        r = [(s, -e) for s, e in reversed(r)]
                    letters += g + r + [(s, -e) for s, e in reversed(g)]
            else:
                letters = _nested_letters(rng, symbols, rng.choice(
                    (1, 50, 700, 4200)), free=True)
            if t == 6:
                letters.append(("w", 1))       # a symbol not in the relators
            word.write_text(_token_text(rng, letters))
            for fmt in ("text", "json"):
                for argv in (["cancel", "dehn", str(pres), "--word",
                              str(word)],
                             ["cancel", "check", str(pres)],
                             ["cancel", "check", str(pres), "--lambda",
                              "1/4"]):
                    argv = ["--format", fmt] + argv
                    got = _new_cli(argv, capsys)
                    assert got == _old_cli(argv), (ptext, argv)
                    if argv[2:4] == ["cancel", "dehn"]:
                        seen.add((got[0], "trivial: True" in got[1]))
    # trivial and nontrivial certificates, and refusals (not C'(1/6), or a
    # word symbol outside the presentation)
    assert seen == {(0, True), (0, False), (2, False)}


def test_cancel_dehn_unknown_word_symbol(tmp_path):
    pres = tmp_path / "pres.txt"
    pres.write_text("x y x^-1 y^-1 x y x^-1 y^-1\n")
    word = tmp_path / "w.txt"
    word.write_text("x y g12^-1 x\n")
    out = run_cli(["cancel", "dehn", str(pres), "--word", str(word)])
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == "error: 'g12'\n"


def _old_gale_relations(order):
    """The relations of ``gale --emit-relations`` over all of
    GammaGroup(l, l - 1)."""
    from gnk import gamma
    from gnk.words import format_word
    group = gamma.GammaGroup(order, order - 1)
    return [format_word(gamma.gale_relation_word(
        group, d, tuple(range(1, order + 1))))
        for d in gamma.enumerate_standard_gale(order)]


def test_gale_emit_relations_matches_full_alphabet(capsys):
    from gnk import gamma
    from gnk.cli import _emit, main
    for order in range(5, 13):
        diagrams = gamma.enumerate_standard_gale(order)
        payload = {"order": order, "count": len(diagrams),
                   "formula": gamma.standard_gale_count_formula(order),
                   "diagrams": [list(d.positions) for d in diagrams],
                   "relations": _old_gale_relations(order)}
        for fmt in ("text", "json"):
            _emit(argparse.Namespace(format=fmt), payload)
            want = capsys.readouterr().out
            code = main(["--format", fmt, "gale", "--order", str(order),
                         "--emit-relations"])
            got = capsys.readouterr()
            assert code == 0 and got.err == ""
            assert got.out == want, (order, fmt)
