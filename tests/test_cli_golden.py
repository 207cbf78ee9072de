"""Recorded CLI runs: every subcommand, text and json, labels >= 10, and the
exit-2 and exit-3 paths, each replayed against its recorded exit code,
stdout and stderr, byte for byte.

The cases and their outputs live in ``data/cli_golden.json``.  After an
intended change of output, re-record them with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"


def _cases():
    return json.loads(GOLDEN.read_text())


def run_case(case, directory):
    """(exit code, stdout, stderr) of one in-process CLI run; ``{name}`` in
    an argument is the path of the case's input file ``name``."""
    from gnk.cli import main
    paths = {}
    for name, text in case["files"].items():
        paths[name] = Path(directory) / name
        paths[name].write_text(text)
    argv = [a.format(**paths) for a in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", _cases(), ids=lambda c: c["name"])
def test_cli_output_matches_recording(tmp_path, case):
    assert run_case(case, tmp_path) == (case["exit"], case["stdout"],
                                        case["stderr"])


def test_recording_covers_every_subcommand_and_exit_code():
    cases = _cases()
    from gnk.cli import build_parser
    commands = set(build_parser()._subparsers._group_actions[0].choices)
    for fmt in ("text", "json"):
        used = {next(a for a in c["argv"] if not a.startswith("-")
                     and a != "json") for c in cases
                if ("json" in c["argv"]) == (fmt == "json")}
        assert commands <= used, (fmt, commands - used)
    assert {c["exit"] for c in cases} == {0, 2, 3}


if __name__ == "__main__":
    cases = _cases()
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            case["exit"], case["stdout"], case["stderr"] = run_case(case, tmp)
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    sys.exit(0)
