"""Paired end-to-end runs of perfbench/run.py at two versions of the tree.

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_x.json \\
        --label x --what "..." --pairs trajectories=51-60 \\
        --pairs presentations=51-54 --pairs certificates=51-54

The parent is the ``src`` and ``perfbench`` of a git revision, extracted
with ``git archive``; the change is those of this checkout, copied.  Each
side runs in its own copy, for 5 s a run as the benchmark's own runs do.
For each workload and seed there is one run per side, the change first
on odd seeds and the parent first on even seeds.  Every ``__pycache__``
of a side is removed before each of its runs, and
PYTHONDONTWRITEBYTECODE=1 keeps the runs from writing one.  The JSON file
lists every run; per workload, each side's failed and attempted job runs
and whether every run was correct; and per workload and metric, each
side's median and quartiles, the number of pairs the change won, and two
flags: ``gain_shown`` (the change won at least 9 of 10 pairs and its
median is lower than the parent's by more than the parent's interquartile
range) and ``within_bound`` (the change's median is at most the parent's
times 1 + the metric's end-to-end bound in ``BENCHMARK.json``; None for a
metric without one).  Its ``rebuild`` field is the command that made it,
with the parent named by its commit id, so that it still names the same
parent once the change is committed.
"""

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 5
COMMAND = ("python3 perfbench/run.py --workload <workload> --seed <seed> "
           "--seconds %d --trace 0" % SECONDS)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def extract(rev, dest):
    """Extract ``src`` and ``perfbench`` of the revision to dest; return its
    full commit id."""
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", rev], check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src",
                              "perfbench"], check=True, capture_output=True)
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)
    return rev


def run_once(tree, workload, seed):
    for top, dirs, _ in os.walk(tree):
        if "__pycache__" in dirs:
            shutil.rmtree(os.path.join(top, "__pycache__"))
            dirs.remove("__pycache__")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def end_to_end_bounds(path=os.path.join(ROOT, "BENCHMARK.json")):
    """Metric name -> relative bound of the benchmark's end-to-end
    metrics."""
    with open(path) as f:
        return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summary(runs, bounds=None):
    """Per workload: each side's failed and attempted job runs, summed over
    its runs, and whether every run was correct; and per metric, each
    side's quartiles, the pairs the change won (lower is better for every
    metric), ties counting for neither side, and the flags ``gain_shown``
    and ``within_bound``.  ``bounds`` maps a metric name to its relative
    bound, ``end_to_end_bounds()`` when not given."""
    if bounds is None:
        bounds = end_to_end_bounds()
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        job_runs = {}
        for side in ("parent", "change"):
            results = [p[side] for p in pairs.values()]
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            job_runs[side] = {
                "failed": failed, "attempted": attempted,
                "failed_share": failed / attempted,
                "all_correct": all(r["correct"] for r in results)}
        metrics = {}
        for name in sorted(next(iter(pairs.values()))["parent"]["metrics"]):
            values = {side: [p[side]["metrics"][name]["value"]
                             for p in pairs.values()]
                      for side in ("parent", "change")}
            parent, change = (quartiles(values["parent"]),
                              quartiles(values["change"]))
            wins = sum(c < p for p, c in zip(values["parent"],
                                             values["change"]))
            bound = bounds.get(name)
            metrics[name] = {
                "parent": parent, "change": change,
                "change_wins": wins, "pairs": len(pairs),
                "gain_shown": (10 * wins >= 9 * len(pairs)
                               and parent["median"] - change["median"]
                               > parent["q3"] - parent["q1"]),
                "within_bound": None if bound is None else
                change["median"] <= parent["median"] * (1 + bound)}
        out[workload] = {"job_runs": job_runs, "metrics": metrics}
    return out


def rebuild_command(args, parent):
    """The command line that repeats a run of ``args`` against the parent
    commit ``parent``."""
    cmd = ["python3", "tools/bench_pairs.py", "--parent", parent]
    for p in args.pairs:
        cmd += ["--pairs", p]
    return shlex.join(cmd + ["--out", args.out, "--label", args.label,
                             "--what", args.what])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--pairs", action="append", required=True,
                    metavar="WORKLOAD=SEEDS", help="e.g. trajectories=51-60")
    ap.add_argument("--out", required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--what", required=True)
    args = ap.parse_args(argv)
    plan = [(w, seed_range(s)) for w, _, s in
            (p.partition("=") for p in args.pairs)]
    work = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        trees = {side: os.path.join(work, side) for side in ("parent", "change")}
        parent = extract(args.parent, trees["parent"])
        for part in ("src", "perfbench"):
            shutil.copytree(os.path.join(ROOT, part),
                            os.path.join(trees["change"], part))
        runs = []
        for workload, seeds in plan:
            for seed in seeds:
                order = ("change", "parent") if seed % 2 else ("parent", "change")
                for side in order:
                    result = run_once(trees[side], workload, seed)
                    runs.append({"result": result, "seed": seed,
                                 "side": side, "workload": workload})
                    print(workload, seed, side,
                          result["metrics"]["wall_s"]["value"], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = {
        "label": args.label,
        "what": args.what,
        "rebuild": rebuild_command(args, parent),
        "parent_commit": parent,
        "command": COMMAND,
        "order": "one parent run and one change run per seed, the change "
                 "first on odd seeds and the parent first on even seeds; "
                 "each side runs in its own copy of the tree",
        "seeds": {w: "%d-%d" % (s[0], s[-1]) for w, s in plan},
        "seconds": SECONDS,
        "python": platform.python_version(),
        "host": "%d CPUs (%s)" % (os.cpu_count(), platform.processor()
                                   or platform.machine()),
        "pycache": "no __pycache__ on either side: every __pycache__ "
                   "directory was removed before each run, and "
                   "PYTHONDONTWRITEBYTECODE=1 kept the runs from writing one",
        "summary": summary(runs),
    }
    # one run a line, as earlier BENCH files have them
    head = json.dumps(report, indent=1)
    lines = ",\n".join("  " + json.dumps(r, sort_keys=True) for r in runs)
    with open(args.out, "w") as f:
        f.write(head[:-2] + ',\n "runs": [\n' + lines + "\n ]\n}\n")


if __name__ == "__main__":
    main()
