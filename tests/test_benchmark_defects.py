"""The benchmark's known-defect registrations against what the program now
does.

``perfbench/workloads.py`` marks some jobs with a ``defect``: a failure of
such a job counts as known and does not make a run incorrect.  A
registration whose job passes hides any later regression of that job, so
this test runs every registered job of seed 7's three job lists once and
pins the set that passes.  When the program mends a registered defect, the
job joins the set here and its registration is due for removal at the next
change to the benchmark.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# registered as defects, yet passing (CHANGES.md names each one)
STALE = {"parity.n10", "parity.n11", "parity.n12",
         "compile.gn3.circle_gn3.n9.b1_9"}


def _passes(job):
    """Whether one run of the job passes its check, as ``run.py`` judges a
    first pass: a raised call or check is a failure."""
    try:
        job.check(job.content(job.call()))
    except Exception:
        return False
    return True


def test_known_defects_that_pass_are_the_stale_ones(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    passing = set()
    for name, build in workloads.WORKLOADS.items():
        root = tmp_path / name
        root.mkdir()
        for job in build(7, workloads.Inputs(str(root))):
            if job.defect and _passes(job):
                passing.add(job.name)
    assert passing == STALE
