"""``tools/bench_curves.py``'s summary on synthetic records, and one
measurement in this process: no worker process is started."""

import argparse
import functools
import importlib.util
import shlex
from pathlib import Path

from gnk import geometry

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_curves.py"
_SPEC = importlib.util.spec_from_file_location("bench_curves", _PATH)
bench_curves = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_curves)


def _record(kind, n, side, sep_s, tests, events=10, separators=0,
            bisections=20):
    return {"kind": kind, "n": n, "side": side, "sep_s": sep_s,
            "tests": tests, "events": events, "separators": separators,
            "bisections": bisections}


def test_summary_medians_per_kind_n_and_side():
    records = [
        _record("collinear3", 6, "parent", 4.0, 45),
        _record("collinear3", 6, "change", 1.0, 20),
        _record("collinear3", 6, "parent", 2.0, 45),
        _record("collinear3", 6, "change", 2.0, 22),
        _record("collinear3", 6, "parent", 3.0, 45),
        _record("collinear3", 6, "change", 3.0, 30),
        _record("delaunay_flip", 40, "parent", 8.0, 100, 2, 12, 50),
        _record("delaunay_flip", 40, "change", 2.0, 30, 2, 12, 40),
    ]
    out = bench_curves.summary(records)
    assert sorted(out) == ["collinear3", "delaunay_flip"]
    point = out["collinear3"]["6"]
    assert point["parent"] == {"inputs": 3, "events": 10, "separators": 0,
                               "tests": 45, "bisections": 20, "sep_s": 3.0}
    assert point["change"]["tests"] == 22 and point["change"]["sep_s"] == 2.0
    assert point["sep_s_ratio"] == 2.0 / 3.0
    far = out["delaunay_flip"]["40"]
    assert (far["change"]["separators"], far["change"]["bisections"]) == (12, 40)
    assert far["sep_s_ratio"] == 0.25


def test_measure_counts_one_input_and_restores_what_it_wraps():
    tr = geometry.Trajectory([(0, 0), (7, 1), (2, 9), (8, 6), (-5, 3)],
                             [(5, (13, 4))])
    text = tr.to_json()
    events = geometry.detect_events(tr, "collinear3")
    wrapped = (geometry._separate_events, geometry.PredicatePoly.bisect,
               functools.cmp_to_key)
    record = bench_curves.measure(geometry, text, "collinear3")
    assert (geometry._separate_events, geometry.PredicatePoly.bisect,
            functools.cmp_to_key) == wrapped
    m = len(events)
    assert record["events"] == m > 1 and record["separators"] == 0
    # a comparison sort of m items compares at least m - 1 pairs
    assert m - 1 <= record["tests"] <= m * (m - 1) // 2
    assert record["bisections"] >= 0 and record["sep_s"] > 0


def test_rebuild_command_names_the_parent_by_commit():
    args = argparse.Namespace(parent="HEAD", out="BENCH_curves_x.json")
    assert shlex.split(bench_curves.rebuild_command(args, "a1b2c3")) == [
        "python3", "tools/bench_curves.py", "--parent", "a1b2c3", "--out",
        "BENCH_curves_x.json"]
