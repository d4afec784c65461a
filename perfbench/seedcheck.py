"""Check that the seeded workloads' invariants do not depend on the seed.

Usage, from the root of a source checkout:

    python3 perfbench/seedcheck.py 0 1 2

For each seed it writes the inputs of `t3-verify` and `m128-steinberg`,
runs every job once, applies the job's own check and collects the
seed-independent lines of its output: the theorem verdicts and the
monoid size, r and s.  Exits 1 if a check fails or those lines differ
between seeds.
"""

from __future__ import annotations

import os
import re
import shutil
import sys

from run import run_process
from workloads import make_jobs

SEEDED = ("t3-verify", "m128-steinberg")
FACTS = re.compile(r"^(?:[a-z-]+: (?:HOLDS|VIOLATED).*|monoid: size=\d+"
                   r"|character values \(r=\d+\)|characteristic polynomials \(s=\d+\)"
                   r"|overall: .*)", re.M)


def main(seeds):
    src = os.path.join(os.getcwd(), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    launch = [sys.executable, "-m", "monoidrep"]
    workdir = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work",
                           str(os.getpid()))
    os.makedirs(workdir)
    ok = True
    try:
        for workload in SEEDED:
            seen = {}
            for seed in seeds:
                for job in make_jobs(workload, seed, workdir):
                    r = run_process(launch + job.argv, env, workdir, job.label, job.check)
                    facts = FACTS.findall(r.stdout)
                    print(f"{workload} seed {seed} {job.label}: "
                          f"{r.problem or 'ok'}; {len(facts)} invariant lines")
                    first = seen.setdefault(job.label, facts)
                    if r.problem or facts != first:
                        ok = False
                        print(f"  MISMATCH: {facts} vs {first}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("seed-independent: " + ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [0, 1, 2]))
