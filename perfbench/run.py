"""Benchmark for the `mbt` command line of monoidrep.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload t3-verify --seed 1 --seconds 5 --trace 0

Each job is one fresh ``python -m monoidrep ...`` process, run one after
another by a single client (a closed loop, no threads).  With
``--trace 0`` it times ``mbt --help`` launches (set-up) and runs rounds
of the workload's jobs until ``--seconds`` have passed (at least one
round); the end-to-end metrics are medians over rounds.  With
``--trace 1`` it runs one untraced round and one round under
``perfbench/tracer.py`` and reports per-layer metrics and the tracing
overhead.  Every job's exit code and output invariants are checked.

Times are reported in reference seconds: measured seconds divided by the
wall time, in seconds, of ``perfbench/reference.py`` timed in the same
run, around each job (set-up and tracing use the median of the run).
The host's speed drifts by up to a factor of two over minutes; the
reference slows down with it, so the quotient stays steady.  The raw
seconds are printed in the text report.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import COUNT_METRICS, LAYERS, TIME_METRICS  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

SETUP_LAUNCHES = 6  # before the rounds, and again after them


class JobResult:
    def __init__(self, label, stdout, wall, cpu, rss_mb, problem):
        self.label = label
        self.stdout = stdout
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.problem = problem
        self.reference = None  # reference wall time around this job


def run_process(argv, env, workdir, label, check=None):
    """Run one process to completion; time it and check its output.

    The child is reaped with ``os.wait4`` so its own CPU time and
    max-RSS are read exactly.
    """
    out_path = os.path.join(workdir, "stdout.txt")
    err_path = os.path.join(workdir, "stderr.txt")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)  # already reaped
    with open(out_path) as f:
        stdout = f.read()
    if code != 0:
        with open(err_path) as f:
            problem = f"exit code {code}: {f.read().strip()[-300:]}"
    else:
        problem = check(stdout) if check else None
    return JobResult(label, stdout, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024, problem)


def report_job(prefix, r):
    status = "ok" if r.problem is None else f"FAILED ({r.problem})"
    print(f"{prefix} {r.label}: wall {r.wall:.3f} s, cpu {r.cpu:.3f} s, "
          f"max-rss {r.rss_mb:.1f} MB, {status}")


def run_round(prefix, jobs, launch, env, workdir, references=None):
    """Run each job once; with ``references``, time the reference after
    each job and keep on the job the mean of the two runs around it."""
    results = []
    for job in jobs:
        r = run_process(launch + job.argv, env, workdir, job.label, job.check)
        report_job(prefix, r)
        if references is not None:
            references.append(time_reference(env, workdir))
            r.reference = (references[-2].wall + references[-1].wall) / 2
        results.append(r)
    return results


def check_help(stdout):
    return None if stdout.startswith("usage: mbt") else "no usage line"


def check_reference(stdout):
    return None if stdout == "rank 34\n" else f"unexpected output {stdout!r}"


def time_reference(env, workdir):
    r = run_process([sys.executable, os.path.join(HERE, "reference.py")], env,
                    workdir, "reference.py", check_reference)
    report_job("host", r)
    return r


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(jobs, launch, env, workdir, seconds):
    help_argv = launch + ["--help"]

    def time_setup():
        return [run_process(help_argv, env, workdir, "--help", check_help)
                for _ in range(SETUP_LAUNCHES)]

    warm = run_process(help_argv, env, workdir, "warm-up --help", check_help)
    # the reference brackets every job; set-up is sampled at both ends of
    # the run, so that its median spans it
    references = [time_reference(env, workdir)]
    setups = time_setup()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(f"round {len(rounds) + 1}", jobs, launch, env, workdir,
                                references))
    setups += time_setup()
    done = [warm] + references + setups + [r for rnd in rounds for r in rnd]

    def per_round(value):
        return statistics.median(sum(value(r) for r in rnd) for rnd in rounds)

    setup = statistics.median(r.wall for r in setups)
    reference = statistics.median(r.wall for r in references)
    print(f"raw: wall {per_round(lambda r: r.wall):.4f} s, "
          f"cpu {per_round(lambda r: r.cpu):.4f} s, setup {setup:.4f} s "
          f"(median of {len(setups)} `mbt --help`), reference {reference:.4f} s "
          f"(median of {len(references)})")
    metrics = {
        "wall_s": metric(per_round(lambda r: r.wall / r.reference), "s"),
        "cpu_s": metric(per_round(lambda r: r.cpu / r.reference), "s"),
        "peak_rss_mb": metric(statistics.median(max(r.rss_mb for r in rnd)
                                                for rnd in rounds), "MB"),
        "setup_s": metric(setup / reference, "s"),
    }
    return done, metrics


def per_layer(jobs, launch, env, workdir):
    references = [time_reference(env, workdir)]
    untraced = run_round("untraced", jobs, launch, env, workdir)
    traced, reports = [], []
    traced_launch = [sys.executable, os.path.join(HERE, "tracer.py")]
    for i, job in enumerate(jobs):
        trace_path = os.path.join(workdir, f"trace-{i}.json")
        r = run_process(traced_launch + [trace_path] + job.argv, env, workdir,
                        job.label, job.check)
        report_job("traced", r)
        traced.append(r)
        if os.path.exists(trace_path):  # a crashed job writes none
            with open(trace_path) as f:
                reports.append(json.load(f))
    references.append(time_reference(env, workdir))
    reference = statistics.median(r.wall for r in references)
    print(f"reference {reference:.4f} s; times below are in reference seconds")

    def total(kind, name):
        return sum(rep[kind].get(name, 0) for rep in reports)

    metrics = {}
    for name in TIME_METRICS:
        metrics[name] = metric(total("times", name) / reference, "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = metric(total("self_s", layer) / reference, "s")
    for name in COUNT_METRICS:
        metrics[name] = metric(total("counts", name), "count")
    inserts = total("counts", "linalg.echelon_inserts")
    metrics["linalg.echelon_useful_ratio"] = metric(
        total("counts", "linalg.echelon_useful") / inserts if inserts else 0.0, "ratio")
    max_bits = max((rep["max_bits"] for rep in reports), default=0)
    metrics["linalg.max_bits"] = metric(max_bits, "bits")
    traced_wall = sum(r.wall for r in traced)
    untraced_wall = sum(r.wall for r in untraced)
    metrics["trace.wall_s"] = metric(traced_wall / reference, "s")
    metrics["trace.overhead_s"] = metric((traced_wall - untraced_wall) / reference, "s")
    return references + untraced + traced, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "monoidrep", "__init__.py")):
        print(f"error: no monoidrep sources under {src}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    launch = [sys.executable, "-m", "monoidrep"]
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        jobs = make_jobs(args.workload, args.seed, workdir)
        print(f"workload {args.workload}, seed {args.seed}, jobs: "
              + ", ".join(job.label for job in jobs))
        if args.trace:
            done, metrics = per_layer(jobs, launch, env, workdir)
        else:
            done, metrics = end_to_end(jobs, launch, env, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r.problem is not None for r in done)
    if not args.trace:
        metrics["pass_ratio"] = metric((len(done) - failed) / len(done), "ratio")
        print(f"fail_ratio: {failed / len(done)} ({failed} of {len(done)} processes)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(done),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
