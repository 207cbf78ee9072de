"""Every function the benchmark's tracer wraps still exists in gnk, and the
CLI reduces through the names it wraps, once per word."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for modname, path, _, _ in spans.TARGETS:
        module = importlib.import_module("gnk." + modname)
        if "." in path:
            cls_name, attr = path.split(".")
            target = getattr(module, cls_name).__dict__[attr]
            target = getattr(target, "__func__", target)     # classmethod
        else:
            target = getattr(module, path)
        assert callable(target), (modname, path)


def _count_calls(monkeypatch, module, name):
    """Replace ``module.name`` wherever a gnk module binds it, as the
    tracer does, by a shim that records the alphabet and the letter codes
    of each call."""
    fn = getattr(module, name)
    calls = []

    def shim(alphabet, letters):
        letters = tuple(letters)
        calls.append((alphabet, letters))
        return fn(alphabet, letters)

    for modname, m in list(sys.modules.items()):
        if modname == "gnk" or modname.startswith("gnk."):
            for attr, value in list(vars(m).items()):
                if value is fn:
                    monkeypatch.setattr(m, attr, shim)
    return calls


def test_reduce_reduces_once(tmp_path, monkeypatch, capsys):
    from gnk import cli, words
    reduced = _count_calls(monkeypatch, words, "reduce_letters")
    path = tmp_path / "w.txt"
    text = "g1 g2 1 g2^-1 g12\n\ng1 g1^-1\n"
    path.write_text(text)
    for argv, involutive in ((["reduce", str(path)], True),
                             (["reduce", str(path), "--free"], False)):
        reduced.clear()
        assert cli.main(argv) == 0
        alphabet = words.Alphabet(["g1", "g12", "g2"], involutive)
        assert reduced == [(alphabet, tuple(words.read_letters(alphabet,
                                                               text)))]
    assert capsys.readouterr().err == ""


def test_cancel_dehn_reduces_word_once(tmp_path, monkeypatch, capsys):
    from gnk import cancel, cli, words
    reduced = _count_calls(monkeypatch, words, "reduce_letters")
    encoded = _count_calls(monkeypatch, cancel, "to_syllables")
    pres = tmp_path / "pres.txt"
    relator = "x y x^-1 y^-1 x y x^-1 y^-1\n"
    pres.write_text(relator)
    word = tmp_path / "w.txt"
    text = "y x y x^-1 y^-1 x y x^-1 y^-1 1 x x^-1 y^-1\n"
    word.write_text(text)
    assert cli.main(["cancel", "dehn", str(pres), "--word", str(word)]) == 0
    assert "trivial: True" in capsys.readouterr().out
    alphabet = words.Alphabet(["x", "y"], involutive=False)
    letters = tuple(words.read_letters(alphabet, text))
    # one reduction for the relator (symmetrise), one for the word, which
    # goes through to_syllables; the replacement trie reduces nothing
    assert encoded == [(alphabet, letters)]
    assert reduced == [
        (alphabet, tuple(words.read_letters(alphabet, relator))),
        (alphabet, letters)]


def test_braid_map_reduces_braid_once(tmp_path, monkeypatch, capsys):
    from gnk import braids, cli, words
    reduced = _count_calls(monkeypatch, words, "reduce_letters")
    path = tmp_path / "b.txt"
    path.write_text("b_1_3 b_2_4^-1 b_2_4 b_1_2 b_1_3^-1\n")
    assert cli.main(["braid-map", str(path), "--n", "4",
                     "--target", "gn3"]) == 0
    assert capsys.readouterr().err == ""
    # the braid's symbols are the pairs (i, j); its image's are names
    pb4 = braids._braid_alphabet(4)
    braid_calls = [c for c in reduced if c[0] == pb4]
    assert braid_calls == [(pb4, tuple(pb4.encode(
        [((1, 3), 1), ((2, 4), -1), ((2, 4), 1), ((1, 2), 1),
         ((1, 3), -1)])))]
