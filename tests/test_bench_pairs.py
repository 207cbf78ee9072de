"""``tools/bench_pairs.py``'s seed ranges and summary, on synthetic run
records: no benchmark process is started."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_seed_range():
    assert bench_pairs.seed_range("61-70") == list(range(61, 71))
    assert bench_pairs.seed_range("7") == [7]


def _run(workload, seed, side, wall_s, failed, attempted=100, correct=True):
    return {"workload": workload, "seed": seed, "side": side,
            "result": {"attempted": attempted, "failed": failed,
                       "correct": correct,
                       "metrics": {"wall_s": {"unit": "s", "value": wall_s}}}}


def test_summary_wins_ties_and_failed_shares():
    runs = [
        # the change wins seed 1, loses seed 2 and ties seed 3
        _run("certificates", 1, "change", 0.9, 0),
        _run("certificates", 1, "parent", 1.0, 0),
        _run("certificates", 2, "parent", 1.0, 0),
        _run("certificates", 2, "change", 1.1, 0),
        _run("certificates", 3, "change", 1.2, 0),
        _run("certificates", 3, "parent", 1.2, 0),
        # failed job runs sum over the runs; one parent run is not correct
        _run("trajectories", 1, "change", 2.0, 8, 80),
        _run("trajectories", 1, "parent", 2.5, 10, 120, correct=False),
        _run("trajectories", 2, "parent", 2.5, 10, 80),
        _run("trajectories", 2, "change", 2.0, 12, 120),
    ]
    out = bench_pairs.summary(runs)
    assert sorted(out) == ["certificates", "trajectories"]
    wall = out["certificates"]["metrics"]["wall_s"]
    assert (wall["change_wins"], wall["pairs"]) == (1, 3)
    assert wall["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.1}
    assert wall["change"]["median"] == 1.1
    assert out["certificates"]["job_runs"]["change"] == {
        "failed": 0, "attempted": 300, "failed_share": 0.0,
        "all_correct": True}
    jobs = out["trajectories"]["job_runs"]
    assert jobs["parent"] == {"failed": 20, "attempted": 200,
                              "failed_share": 0.1, "all_correct": False}
    assert jobs["change"] == {"failed": 20, "attempted": 200,
                              "failed_share": 0.1, "all_correct": True}
    assert out["trajectories"]["metrics"]["wall_s"]["change_wins"] == 2

