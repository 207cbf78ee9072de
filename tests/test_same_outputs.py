"""``tools/same_outputs.py``'s comparison, on synthetic job records: no
benchmark process is started."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def _cli(seed, job, stdout="{}", stderr="", code=0, check="ok"):
    return {"workload": "presentations", "seed": seed, "job": job,
            "exit": code, "stdout": same_outputs.digest(stdout),
            "stderr": same_outputs.digest(stderr), "check": check}


def _library(seed, job, content, check="ok"):
    return {"workload": "certificates", "seed": seed, "job": job,
            "content": same_outputs.digest(repr(content)), "check": check}


def test_same_records_differ_nowhere():
    records = [_cli(7, "gale.l5"), _cli(7, "gale.l5#2", stderr="error: x\n",
                                        code=2),
               _library(7, "fliplab-orbit", {(1, 2): 3})]
    assert same_outputs.differing(records, [dict(r) for r in records]) == []
    assert same_outputs.differing([], []) == []


def test_each_field_of_a_job_is_compared():
    parent = [_cli(7, "a"), _cli(7, "b"), _cli(8, "a"), _cli(8, "b"),
              _library(7, "c", (1, 2)), _library(7, "d", (1, 2))]
    change = [_cli(7, "a", stdout="{ }"),                   # stdout
              _cli(7, "b", stderr="error: y\n", code=2),    # exit and stderr
              _cli(8, "a", check="Mismatch: count"),        # the check
              _cli(8, "b"),                                 # the same
              _library(7, "c", (1, 3)),                     # content
              _library(7, "d", (1, 2))]
    assert same_outputs.differing(parent, change) == [
        ("presentations", 7, "a", ["stdout"]),
        ("presentations", 7, "b", ["exit", "stderr"]),
        ("presentations", 8, "a", ["check"]),
        ("certificates", 7, "c", ["content"])]


def test_a_job_run_on_one_side_only_differs():
    # keyed by workload, seed and job name, in the parent's order and then
    # the change's; a CLI record and a library record differ in their fields
    parent = [_cli(7, "a"), _cli(9, "a"), _library(7, "a", 1)]
    change = [_cli(8, "a"), _cli(7, "a"), _cli(7, "a") | {
        "workload": "certificates"}]
    assert same_outputs.differing(parent, change) == [
        ("presentations", 9, "a", ["missing"]),
        ("certificates", 7, "a", ["content", "exit", "stderr", "stdout"]),
        ("presentations", 8, "a", ["missing"])]
