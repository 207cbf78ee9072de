"""``tools/bench_pairs.py``'s seed ranges and summary, on synthetic run
records: no benchmark process is started."""

import argparse
import importlib.util
import json
import shlex
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



def _metric_runs(name, parent, change):
    """Runs of one workload, one pair per seed, with one metric ``name``."""
    runs = []
    for seed, values in enumerate(zip(parent, change), 1):
        for side, value in zip(("parent", "change"), values):
            run = _run("certificates", seed, side, 0.0, 0)
            run["result"]["metrics"] = {name: {"unit": "ms", "value": value}}
            runs.append(run)
    return runs


def _flags(name, parent, change, bounds):
    m = bench_pairs.summary(_metric_runs(name, parent, change),
                            bounds)["certificates"]["metrics"][name]
    return m["change_wins"], m["gain_shown"], m["within_bound"]


def test_gain_shown_needs_nine_of_ten_and_a_gap_beyond_the_iqr():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    # parent IQR 1.0675 - 1.0225 = 0.045; change median 0.9 lower by 0.145
    change = [0.9] * 9 + [1.5]
    assert _flags("job_p50_ms", parent, change, {}) == (9, True, None)
    # eight wins of ten are not enough, however wide the gap
    change = [0.9] * 8 + [1.5] * 2
    assert _flags("job_p50_ms", parent, change, {})[:2] == (8, False)
    # ten wins, but a median gap inside the parent's IQR
    change = [p - 0.01 for p in parent]
    assert _flags("job_p50_ms", parent, change, {})[:2] == (10, False)
    # four of four pairs count as winning at least 9/10 of them
    assert _flags("wall_s", [1.0, 1.0, 1.0, 1.0], [0.5] * 4, {})[:2] \
        == (4, True)
    assert _flags("wall_s", [1.0, 1.0, 1.0, 1.0], [0.5] * 3 + [1.0],
                  {})[:2] == (3, False)


def test_within_bound_reads_each_metrics_own_bound():
    parent = [2.0] * 4
    # parent x (1 + bound) itself is within the bound, a hair above is not
    assert _flags("wall_s", parent, [2.5] * 4, {"wall_s": 0.25})[2] is True
    assert _flags("wall_s", parent, [2.51] * 4, {"wall_s": 0.25})[2] is False
    assert _flags("wall_s", parent, [2.3] * 4, {"wall_s": 0.1})[2] is False
    assert _flags("wall_s", parent, [1.0] * 4, {"wall_s": 0.1})[2] is True
    # a metric without an end-to-end bound gets None
    assert _flags("wall_s", parent, [2.0] * 4, {"setup_s": 0.25})[2] is None


def test_end_to_end_bounds_come_from_the_benchmark_file(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "bound": 0.25},
        {"name": "peak_rss_mb", "bound": 0.1}], "per_layer": [
        {"name": "words.reduce_s"}]}))
    assert bench_pairs.end_to_end_bounds(str(path)) == {
        "wall_s": 0.25, "peak_rss_mb": 0.1}
    # by default the repository's own file, read and not written
    bench = Path(bench_pairs.ROOT) / "BENCHMARK.json"
    before = bench.read_bytes()
    names = [m["name"] for m in json.loads(before)["end_to_end"]]
    assert sorted(bench_pairs.end_to_end_bounds()) == sorted(names)
    assert bench.read_bytes() == before
    # summary() falls back to those bounds
    out = bench_pairs.summary(_metric_runs("wall_s", [1.0] * 2, [1.0] * 2))
    assert out["certificates"]["metrics"]["wall_s"]["within_bound"] is True


def test_rebuild_command_names_the_parent_by_commit():
    args = argparse.Namespace(
        parent="HEAD", pairs=["certificates=351-360", "trajectories=1-4"],
        out="BENCH_x.json", label="x", what="one 'quoted' change")
    cmd = bench_pairs.rebuild_command(args, "a1b2c3d4e5f6")
    assert shlex.split(cmd) == [
        "python3", "tools/bench_pairs.py", "--parent", "a1b2c3d4e5f6",
        "--pairs", "certificates=351-360", "--pairs", "trajectories=1-4",
        "--out", "BENCH_x.json", "--label", "x",
        "--what", "one 'quoted' change"]


def test_every_bench_file_rebuilds_from_its_parent_commit():
    # a BENCH file names its parent by commit id, so that its rebuild line
    # still names the same parent once the change is committed
    root = _PATH.parents[1]
    paths = sorted(root.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        report = json.loads(path.read_text())
        argv = shlex.split(report["rebuild"])
        assert argv[argv.index("--parent") + 1] == report["parent_commit"], (
            path.name)
        assert argv[argv.index("--out") + 1] == path.name, path.name


def test_every_bench_file_summary_is_the_summary_of_its_runs():
    # one summary format: each file's block is summary() over its own runs
    paths = sorted(_PATH.parents[1].glob("BENCH_pr*.json"))
    assert paths
    for path in paths:
        report = json.loads(path.read_text())
        assert report["summary"] == bench_pairs.summary(report["runs"]), (
            path.name)
