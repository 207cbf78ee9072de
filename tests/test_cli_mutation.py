"""Seeded mutations of the recorded CLI inputs.

Each case of ``data/cli_golden.json`` that reads input files is run again
with one input changed: a file truncated, emptied, given an unknown token,
given a label >= 10 or (for JSON) a value of another type, or its path
pointed at a file that does not exist; the ``--m`` labels of ``invariant``
get a label >= 10 too.  Every run must exit 0, 2 or 3.  Exit 0 writes
nothing to stderr; exit 2 or 3 writes nothing to stdout and exactly one line
to stderr, an ``error:`` or ``degenerate trajectory:`` line.  The mutations
come from ``random.Random`` with fixed seeds, so a failure replays.
"""

import copy
import json
import random
import re

import pytest

from test_cli_golden import _cases, run_case

SEEDS = (1, 2, 3)
JSON_VALUES = ("x", 1.5, None, [], {}, True, 7, [[1]])


def _json_paths(value, path=()):
    """Every path into a JSON value: its own () and those of its members."""
    yield path
    if isinstance(value, dict):
        members = value.items()
    elif isinstance(value, list):
        members = enumerate(value)
    else:
        return
    for key, member in members:
        yield from _json_paths(member, path + (key,))


def _retyped(rng, text):
    """The JSON text with one value, or the whole, replaced by a value of
    another type; None when the text is not JSON."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return None
    path = rng.choice(list(_json_paths(data)))
    if not path:
        return json.dumps(rng.choice(JSON_VALUES))
    node = data
    for key in path[:-1]:
        node = node[key]
    old = node[path[-1]]
    node[path[-1]] = rng.choice([v for v in JSON_VALUES
                                 if type(v) is not type(old)])
    return json.dumps(data)


def _relabelled(rng, text):
    """The text with one run of digits replaced by a number >= 10; None when
    it has no digits."""
    runs = list(re.finditer(r"[0-9]+", text))
    if not runs:
        return None
    m = rng.choice(runs)
    return text[:m.start()] + str(rng.randint(10, 40)) + text[m.end():]


def _text_mutations(rng, text):
    """(kind, mutated text) pairs of one file's text."""
    cut = rng.randint(0, max(len(text) - 1, 0))
    spaces = [m.end() for m in re.finditer(r"\s", text)] or [len(text)]
    at = rng.choice(spaces)
    yield "truncated at %d" % cut, text[:cut]
    yield "emptied", ""
    yield "unknown token at %d" % at, text[:at] + " q_7 " + text[at:]
    mutated = _relabelled(rng, text)
    if mutated is not None:
        yield "label >= 10", mutated
    for _ in range(4):
        mutated = _retyped(rng, text)
        if mutated is not None:
            yield "json retyped", mutated


def _mutants(case):
    """(description, mutated case) pairs of a recorded case."""
    for name, text in case["files"].items():
        missing = copy.deepcopy(case)
        del missing["files"][name]
        missing["argv"] = ["missing/" + name if a == "{%s}" % name else a
                           for a in missing["argv"]]
        yield "%s missing" % name, missing
        for seed in SEEDS:
            rng = random.Random("%s/%s/%d" % (case["name"], name, seed))
            for kind, mutated in _text_mutations(rng, text):
                mutant = copy.deepcopy(case)
                mutant["files"][name] = mutated
                yield "%s %s (seed %d)" % (name, kind, seed), mutant
    if "--m" in case["argv"]:
        t = case["argv"].index("--m") + 1
        for seed in SEEDS:
            rng = random.Random("%s/--m/%d" % (case["name"], seed))
            labels = _relabelled(rng, case["argv"][t])
            if labels is not None:
                mutant = copy.deepcopy(case)
                mutant["argv"][t] = labels
                yield "--m %s" % labels, mutant


@pytest.mark.parametrize("case", [c for c in _cases() if c["files"]],
                         ids=lambda c: c["name"])
def test_mutated_inputs_exit_cleanly(tmp_path, case):
    for what, mutant in _mutants(case):
        code, out, err = run_case(mutant, tmp_path)
        assert code in (0, 2, 3), (what, code, err)
        if code == 0:
            assert err == "", (what, err)
        else:
            assert out == "", (what, out)
            assert err.count("\n") == 1 and err.endswith("\n"), (what, err)
            assert err.startswith(("error: ", "degenerate trajectory: ")), (
                what, err)
