"""Event separation as n grows, at two versions of the tree.

    python3 tools/bench_curves.py --parent HEAD --out BENCH_curves_x.json

The inputs are single-segment crossings built as ``perfbench/workloads.py``
builds its random compiles: static points at random in a box, and a mover
that crosses it.  There are gn3 crossings (``collinear3`` events) and
Delaunay crossings (``delaunay_flip`` events, whose line walls are
separators), ``INPUTS`` of each at each n in ``NS``.  Two worker
processes detect the events of each input, one on the parent's ``src``
(``git archive`` of the revision, as ``tools/bench_pairs.py`` extracts
it) and one on this checkout's, taking
turns to go first input by input.  Each worker makes one counting run
and ``REPEATS`` timed runs of an input and reports, per segment: the
events reported and the separators, the pair tests of the separation
(comparator calls of a sort by comparison, or the m (m - 1) / 2 pairs a
pass over all pairs of m brackets visits), the bisections, and the
median time inside ``geometry._separate_events``.  The JSON file holds
every record and, per kind, n and side, the medians over the inputs; its
``rebuild`` field names the parent by commit id.
"""

import argparse
import functools
import json
import os
import platform
import random
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NS = (6, 8, 10, 14, 20, 28, 40)
INPUTS = 5
REPEATS = 7
KINDS = {"collinear3": False, "delaunay_flip": True}    # kind: circles
FIELDS = ("events", "separators", "tests", "bisections", "sep_s")


def crossings():
    """(kind, n, trajectory JSON) for every input, as the benchmark's
    random compiles build them, from one seeded generator per kind."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import workloads
    out = []
    for kind, circles in KINDS.items():
        rng = random.Random("bench_curves:" + kind)
        for n in NS:
            for _ in range(INPUTS):
                pts, mover, end = workloads._random_trajectory(
                    rng, n, 2, circles)
                out.append((kind, n, workloads._trajectory_json(
                    pts, mover, end, 2)))
    return out


def measure(geometry, text, kind):
    """One counting run and REPEATS timed runs of ``detect_events`` on the
    trajectory: per-segment counts and median separation time."""
    tr = geometry.Trajectory.from_json(text)
    separate, bisect = geometry._separate_events, geometry.PredicatePoly.bisect
    cmp_to_key = functools.cmp_to_key
    counts = dict.fromkeys(FIELDS[:-1], 0)

    def counting_separate(events):
        m, compared = len(events), counts["tests"]
        separate(events)
        counts["events"] += len(events)
        counts["separators"] += m - len(events)
        if counts["tests"] == compared:
            counts["tests"] += m * (m - 1) // 2
        return events

    def counting_key(order):
        def counted(e1, e2):
            counts["tests"] += 1
            return order(e1, e2)
        return cmp_to_key(counted)

    def counting_bisect(poly, bracket):
        counts["bisections"] += 1
        return bisect(poly, bracket)

    geometry._separate_events = counting_separate
    functools.cmp_to_key = counting_key
    geometry.PredicatePoly.bisect = counting_bisect
    try:
        geometry.detect_events(tr, kind)
    finally:
        geometry._separate_events = separate
        functools.cmp_to_key = cmp_to_key
        geometry.PredicatePoly.bisect = bisect
    spent = [0.0]

    def timed_separate(events):
        t0 = time.perf_counter()
        try:
            return separate(events)
        finally:
            spent[0] += time.perf_counter() - t0

    times = []
    geometry._separate_events = timed_separate
    try:
        for _ in range(REPEATS):
            spent[0] = 0.0
            geometry.detect_events(tr, kind)
            times.append(spent[0])
    finally:
        geometry._separate_events = separate
    segments = len(tr.moves)
    out = {k: v / segments for k, v in counts.items()}
    out["sep_s"] = statistics.median(times) / segments
    return out


def worker():
    """Answer one JSON request a line, {"kind", "text"}, with the record of
    ``measure``, importing ``gnk`` from the tree the process runs in."""
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import gnk.geometry as geometry
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(measure(geometry, request["text"], request["kind"])),
              flush=True)


def summary(records):
    """Per kind, n and side: the number of inputs and the median of each
    field over them; per kind and n, the change's median separation time
    over the parent's."""
    out = {}
    for kind in sorted({r["kind"] for r in records}):
        curve = out[kind] = {}
        for n in sorted({r["n"] for r in records if r["kind"] == kind}):
            point = curve[str(n)] = {}
            for side in ("parent", "change"):
                rs = [r for r in records
                      if (r["kind"], r["n"], r["side"]) == (kind, n, side)]
                point[side] = {"inputs": len(rs)}
                for field in FIELDS:
                    point[side][field] = statistics.median(r[field] for r in rs)
            point["sep_s_ratio"] = (point["change"]["sep_s"]
                                    / point["parent"]["sep_s"])
    return out


def rebuild_command(args, parent):
    return shlex.join(["python3", "tools/bench_curves.py", "--parent", parent,
                       "--out", args.out])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent")
    ap.add_argument("--out")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        return worker()
    if not (args.parent and args.out):
        ap.error("--parent and --out are required")
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_pairs import extract
    inputs = crossings()
    work = tempfile.mkdtemp(prefix="bench_curves_")
    procs = {}
    try:
        trees = {side: os.path.join(work, side) for side in ("parent", "change")}
        parent = extract(args.parent, trees["parent"])
        shutil.copytree(os.path.join(ROOT, "src"),
                        os.path.join(trees["change"], "src"))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        for side, tree in trees.items():
            procs[side] = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--worker"],
                cwd=tree, env=env, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True)
        records = []
        for k, (kind, n, text) in enumerate(inputs):
            order = ("change", "parent") if k % 2 else ("parent", "change")
            for side in order:
                proc = procs[side]
                proc.stdin.write(json.dumps({"kind": kind, "text": text}) + "\n")
                proc.stdin.flush()
                record = json.loads(proc.stdout.readline())
                record.update(kind=kind, n=n, side=side, input=k)
                records.append(record)
                print(kind, n, side, "%.6f" % record["sep_s"], flush=True)
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait(timeout=60)
        shutil.rmtree(work, ignore_errors=True)
    report = {
        "rebuild": rebuild_command(args, parent),
        "parent_commit": parent,
        "inputs": "%d single-segment crossings per kind and n, n in %s; "
                  "kinds %s" % (INPUTS, list(NS), sorted(KINDS)),
        "order": "one worker process per side; the parent's first on even "
                 "inputs and the change's first on odd ones",
        "repeats": REPEATS,
        "python": platform.python_version(),
        "host": "%d CPUs (%s)" % (os.cpu_count(), platform.processor()
                                   or platform.machine()),
        "summary": summary(records),
    }
    head = json.dumps(report, indent=1)
    lines = ",\n".join("  " + json.dumps(r, sort_keys=True) for r in records)
    with open(args.out, "w") as f:
        f.write(head[:-2] + ',\n "records": [\n' + lines + "\n ]\n}\n")


if __name__ == "__main__":
    main()
