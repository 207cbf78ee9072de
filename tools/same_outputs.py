"""Whether two versions of the tree give the same outputs on every job of
the benchmark's workloads.

    python3 tools/same_outputs.py --parent HEAD --seeds 7,8,9,31,101

The parent is the ``src`` and ``perfbench`` of a git revision, extracted
as ``tools/bench_pairs.py`` does; the change is those of this checkout,
copied.  One worker process per tree runs every job of the three
workloads once at each seed and records, for a CLI job, its exit code,
standard output and standard error, and for a library job its content;
for every job, also its check's verdict.  Outputs are recorded as
digests, with PYTHONHASHSEED=0 on both sides.  The records are compared
job by job, the jobs that differ are printed with the fields they differ
in, and the exit code is 1 when any job differs.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

SEEDS = "7,8,9,31,101"


def digest(text) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def differing(parent, change):
    """(workload, seed, job, fields) of each job whose records differ, in
    the parent's order and then the change's: the fields whose values
    differ, or ``["missing"]`` for a job that one side did not run."""
    def keyed(records):
        return {(r["workload"], r["seed"], r["job"]): r for r in records}

    parent, change = keyed(parent), keyed(change)
    out = []
    for key in list(parent) + [k for k in change if k not in parent]:
        a, b = parent.get(key), change.get(key)
        if a is None or b is None:
            out.append(key + (["missing"],))
        elif a != b:
            out.append(key + (sorted(f for f in a.keys() | b.keys()
                                     if a.get(f) != b.get(f)),))
    return out


def worker(seeds):
    """Run every job of each workload at each seed in this process, with
    the tree in the working directory, and print one JSON record a job."""
    sys.path[:0] = [os.path.abspath("src"), os.path.abspath("perfbench")]
    import workloads
    from run import unique_names

    err = io.StringIO()

    def run_cli(argv):
        out = io.StringIO()
        err.seek(0)
        err.truncate()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = workloads.cli.main(["--format", "json"] + argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    workloads.run_cli = run_cli       # read by every CLI job's call
    for name, build in workloads.WORKLOADS.items():
        for seed in seeds:
            files = os.path.join(".perfbench_work", "same-%s-%d" % (name,
                                                                    seed))
            os.makedirs(files, exist_ok=True)
            jobs = build(seed, workloads.Inputs(files))
            for job, label in zip(jobs, unique_names(jobs)):
                record = {"workload": name, "seed": seed, "job": label}
                raw = None
                try:
                    raw = job.call()
                    content = job.content(raw)
                except Exception as exc:
                    content = ("error", "%s: %s" % (type(exc).__name__, exc))
                if job.content is workloads.cli_json and raw is not None:
                    record.update(exit=raw[0], stdout=digest(raw[1]),
                                  stderr=digest(err.getvalue()))
                else:
                    record["content"] = digest(repr(content))
                try:
                    job.check(content)
                    record["check"] = "ok"
                except Exception as exc:
                    record["check"] = "%s: %s" % (type(exc).__name__, exc)
                print(json.dumps(record), flush=True)
            shutil.rmtree(files)


def run_worker(tree, seeds):
    """The records of one tree's worker process."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", "--seeds",
         ",".join(map(str, seeds))],
        cwd=tree, env=env, capture_output=True, text=True, check=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="git revision of the parent tree")
    ap.add_argument("--seeds", default=SEEDS,
                    help="comma-separated seeds (default %s)" % SEEDS)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.worker:
        return worker(seeds)
    if not args.parent:
        ap.error("--parent is required")
    from bench_pairs import ROOT, extract
    work = tempfile.mkdtemp(prefix="same_outputs_")
    try:
        trees = {side: os.path.join(work, side)
                 for side in ("parent", "change")}
        parent = extract(args.parent, trees["parent"])
        for part in ("src", "perfbench"):
            shutil.copytree(os.path.join(ROOT, part),
                            os.path.join(trees["change"], part))
        records = {side: run_worker(tree, seeds)
                   for side, tree in trees.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    diffs = differing(records["parent"], records["change"])
    for workload, seed, job, fields in diffs:
        print("differs: %s seed %d %s: %s" % (workload, seed, job,
                                              ", ".join(fields)))
    print("%d of %d job runs differ from parent %s (seeds %s)"
          % (len(diffs), len(records["parent"]), parent, args.seeds))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
