"""Layered benchmark of the gnk engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one closed-loop client: each job starts when the previous one
has returned.  The workload's job list (see workloads.py) is run as whole
passes until ``--seconds`` have gone by, and every output is checked
after it is timed.  With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics; with ``--trace 1`` untraced and
traced passes alternate and the JSON carries the per-layer metrics taken
from the spans (see spans.py).  Run it from the root of a checkout: it
imports ``gnk`` from ``src/`` and writes only under ``.perfbench_work/``
(generated inputs, removed at the end) and ``.perfbench_out/`` (per-job
timings and spans of the last run of each workload and seed).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MODULES = ["numpy"] + ["gnk." + m for m in (
    "words", "gnk", "braids", "gamma", "geometry", "fliplab", "cancel", "cli")]
IMPORT_PROBE = ("import importlib, time\n"
                "from run import at_reference_pace, calibration_reading\n"
                "before = calibration_reading()\n"
                "t = time.perf_counter()\n"
                "for m in %r: importlib.import_module(m)\n"
                "elapsed = time.perf_counter() - t\n"
                "print(at_reference_pace(elapsed, before, "
                "calibration_reading()))\n" % (MODULES,))
IMPORT_SAMPLES = 8          # fresh interpreters, besides this process
CURVE_NS = (5, 6, 7, 8, 9, 10, 12, 14)


def import_engine():
    """Import every gnk module here and in fresh interpreters; ``setup_s``
    is the median import time, each at the reference pace of its process."""
    before = calibration_reading()
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    for m in MODULES:
        importlib.import_module(m)
    elapsed = time.perf_counter() - t0
    after = calibration_reading()
    samples = [at_reference_pace(elapsed, before, after)]
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + HERE)
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _calibration_loop():
    """Fixed pure-Python work of the kind the engine does: tuple keys, dict
    updates and small Fraction arithmetic."""
    counts = {}
    x = Fraction(1, 3)
    for i in range(600):
        key = (i % 13, i % 7)
        counts[key] = counts.get(key, 0) + i
        x = x * Fraction(3, 4) + Fraction(i, 7)
        x = Fraction(x.numerator % 1000003, x.denominator % 1000003 or 1)
    return counts, x


# The host's effective CPU speed moves between levels up to 2x apart, each
# lasting from a fraction of a second to several seconds.  Every time is
# therefore reported at a reference pace: multiplied by REFERENCE_LOOP_S
# over the mean of the calibration readings taken just before and just
# after it.  The loop does not call gnk, so a change to the engine shows in
# full; the scaling removes the host's level.
REFERENCE_LOOP_S = 0.0035    # the loop's time at the fastest level seen here


def calibration_reading():
    t0 = time.perf_counter()
    _calibration_loop()
    return time.perf_counter() - t0


def at_reference_pace(elapsed, before, after):
    return elapsed * REFERENCE_LOOP_S * 2 / (before + after)


def run_passes(jobs, seconds, tracer):
    """Run whole passes until ``seconds`` have gone by, at least three (so
    a job's median is taken over at least two untraced passes even when
    traced); with a tracer, untraced and traced passes alternate.

    Returns per-pass latencies (at the reference pace), the content each job
    gave in pass 1, and for later passes whether it gave the same again.
    """
    passes = []       # (traced, [latency], [content or error])
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if tracer is not None:
            tracer.pass_index = len(passes)
        gc.collect()
        latencies, contents = [], []
        before = calibration_reading()
        for idx, job in enumerate(jobs):
            if traced:
                tracer.job = idx
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                raw, error = job.call(), None
            except Exception as exc:        # a job's failure is a result
                raw, error = None, "%s: %s" % (type(exc).__name__, exc)
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.enabled = False
            after = calibration_reading()
            latencies.append(at_reference_pace(elapsed, before, after))
            if traced:
                tracer.factors[(tracer.pass_index, idx)] = \
                    latencies[-1] / elapsed
            before = after
            content = ("error", error) if error else job.content(raw)
            # later passes keep only whether they agree with pass 1, so that
            # memory does not grow with the number of passes
            contents.append(content == passes[0][2][idx] if passes else content)
        passes.append((traced, latencies, contents))
        if time.perf_counter() - start >= seconds and len(passes) >= 3:
            return passes


def check_jobs(jobs, passes):
    """Check pass 1 against the oracles, later passes against pass 1.

    Returns (attempted, failed, {job index: reason}).
    """
    from oracles import Mismatch
    reasons = {}
    first = passes[0][2]
    for idx, job in enumerate(jobs):
        content = first[idx]
        if isinstance(content, tuple) and content and content[0] == "error":
            reasons[idx] = content[1]
            continue
        try:
            job.check(content)
        except Mismatch as exc:
            reasons[idx] = str(exc)
        except Exception as exc:            # report, never crash the run
            reasons[idx] = "check raised %s: %s" % (type(exc).__name__, exc)
    failed = 0
    for p, (_, _, contents) in enumerate(passes):
        for idx, same in enumerate(contents):
            if idx in reasons:
                failed += 1
            elif p and not same:
                failed += 1
                reasons[idx] = "output changed between passes"
    return len(jobs) * len(passes), failed, reasons


def unique_names(jobs):
    seen = {}
    names = []
    for job in jobs:
        k = seen[job.name] = seen.get(job.name, 0) + 1
        names.append(job.name if k == 1 else "%s#%d" % (job.name, k))
    return names


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gnk", "cli.py")):
        print("error: no gnk sources under %s" % SRC, file=sys.stderr)
        return 2
    phases = {"start": time.perf_counter()}
    setup_samples = import_engine()
    phases["imports"] = time.perf_counter()
    sys.path.insert(0, HERE)
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(work)
    os.makedirs(outdir, exist_ok=True)
    try:
        jobs = workloads.WORKLOADS[args.workload](
            args.seed, workloads.Inputs(work))
        phases["inputs"] = time.perf_counter()
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
        passes = run_passes(jobs, args.seconds, tracer)
        phases["passes"] = time.perf_counter()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, reasons = check_jobs(jobs, passes)
    phases["checks"] = time.perf_counter()
    names = unique_names(jobs)
    wrong = sorted(names[i] for i in reasons if not jobs[i].defect)
    known = sorted(names[i] for i in reasons if jobs[i].defect)

    # a job's time is its median over the untraced passes; the percentiles
    # pool every untraced job run
    plain = [p for p in passes if not p[0]]
    latencies = [statistics.median(p[1][i] for p in plain)
                 for i in range(len(jobs))]
    samples = [x for p in plain for x in p[1]]
    per_job = {names[i]: latencies[i] * 1000 for i in range(len(jobs))}

    print("workload: %s  seed: %d  passes: %d  jobs per pass: %d"
          % (args.workload, args.seed, len(passes), len(jobs)))
    stamps = list(phases.items())
    print("phases (wall s): " + ", ".join(
        "%s %.1f" % (name, t - prev) for (_, prev), (name, t)
        in zip(stamps, stamps[1:])))
    if args.trace:
        traced = [p for p in passes if p[0]]
        tags = {i: int(j.name.split(".L")[-1].split(".")[0])
                for i, j in enumerate(jobs) if j.name.startswith("cancel-dehn.")
                and ".L" in j.name}
        metrics = tracer.metrics(len(traced), tags, CURVE_NS,
                                 workloads.DEHN_LENGTHS,
                                 max(workloads.REPLAYS.values()))
        traced_latencies = [statistics.median(p[1][i] for p in traced)
                            for i in range(len(jobs))]
        metrics["trace.overhead_frac"] = (sum(traced_latencies)
                                          / sum(latencies) - 1)
        units = {k: ("s" if k.endswith("_s") or ".dehn_s." in k
                     or "_s_per_" in k else
                     "ratio" if k.endswith(("_frac", "_yield")) else "count")
                 for k in metrics}
        tracer.dump(os.path.join(outdir, "spans-%s-seed%d.jsonl"
                                 % (args.workload, args.seed)), names)
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": sum(latencies),
            "job_p50_ms": statistics.median(samples) * 1000,
            "job_p90_ms": percentile(samples, 90) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms",
                 "job_p90_ms": "ms", "peak_rss_mb": "MB"}
    for name, value in metrics.items():
        extra = ""
        if name == "setup_s":
            extra = "  (median of %d imports)" % len(setup_samples)
        elif name in ("job_p50_ms", "job_p90_ms"):
            beyond = sum(1 for x in samples if x * 1000 > value)
            extra = "  (%d job runs, %d beyond)" % (len(samples), beyond)
        print("%s: %.6g %s%s" % (name, value, units[name], extra))
    print("fail_frac: %.6g  (failed %d of %d attempted)"
          % (failed / attempted, failed, attempted))
    for name in known:
        idx = names.index(name)
        print("failed (known defect): %s: %s [%s]"
              % (name, reasons[idx], jobs[idx].defect))
    for name in wrong:
        print("FAILED: %s: %s" % (name, reasons[names.index(name)]))

    with open(os.path.join(outdir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump({"metrics": metrics, "job_ms": per_job,
                   "failed_jobs": {names[i]: r for i, r in reasons.items()},
                   "setup_samples": setup_samples}, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
