"""The benchmark's workloads: seeded inputs, `mbt` jobs and output checks.

A workload is a fixed list of jobs.  Each job is one `mbt` command line
plus a check that reads its standard output and returns ``None`` when
every seed-independent invariant holds, or a one-line description of
the first mismatch.  The seed only relabels the inputs (it permutes the
points the transformations act on and shuffles the generator order) and
draws the molien weights, so every expected value below is the same
for all seeds.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
from fractions import Fraction

T3_GENERATORS = [(2, 3, 1), (2, 1, 3), (1, 1, 3)]
M128_GENERATORS = [(2, 3, 4, 1), (1, 1, 3, 4)]
NT_FROM, NT_TO, NT_CAP = 2, 40, 12
MOLIEN_TERMS = 30


class Job:
    def __init__(self, label, argv, check):
        self.label = label
        self.argv = argv
        self.check = check


def relabel(generators, degree, rng):
    """Conjugate 1-based transformations by a random point permutation.

    The images generate an isomorphic monoid (conjugation is an
    automorphism of the full transformation monoid), listed in shuffled
    order.
    """
    perm = list(range(degree))
    rng.shuffle(perm)
    out = []
    for g in generators:
        h = [0] * degree
        for x in range(degree):
            h[perm[x]] = perm[g[x] - 1] + 1
        out.append(h)
    rng.shuffle(out)
    return out


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)
    return path


def write_transformation_inputs(workdir, name, degree, generators):
    monoid = write_json(os.path.join(workdir, f"{name}.json"), {
        "type": "transformations", "degree": degree, "generators": generators})
    rep = write_json(os.path.join(workdir, f"{name}-natural.json"),
                     {"mode": "natural"})
    return monoid, rep


def theorem_lines(stdout):
    """{theorem: (verdict, {key: value})} from `mbt verify` text output."""
    out = {}
    for line in stdout.splitlines():
        m = re.match(r"^([a-z-]+): (HOLDS|VIOLATED)\b(.*)$", line)
        if m:
            fields = dict(tok.split("=", 1) for tok in m.group(3).split())
            out[m.group(1)] = (m.group(2), fields)
    return out


def check_theorems(stdout, expected):
    """Every expected theorem HOLDS with the expected fields, overall OK."""
    found = theorem_lines(stdout)
    if sorted(found) != sorted(expected):
        return f"theorems {sorted(found)}, expected {sorted(expected)}"
    for name, want in expected.items():
        verdict, fields = found[name]
        if verdict != "HOLDS":
            return f"{name}: {verdict}"
        for key, value in want.items():
            if fields.get(key) != value:
                return f"{name}: {key}={fields.get(key)}, expected {value}"
    if "overall: OK" not in stdout.splitlines():
        return "no 'overall: OK' line"
    return None


def t3_jobs(rng, workdir):
    monoid, rep = write_transformation_inputs(
        workdir, "t3", 3, relabel(T3_GENERATORS, 3, rng))
    t3 = {"dim_rad": "7", "dim_ann": "0"}
    expected = {
        "tensor": dict(t3, minimal_k="3"),
        "symmetric": dict(t3, minimal_k="4"),
        "positive-refinement": t3,
        "steinberg": t3,
    }
    # all 27 self-maps of {1,2,3}; the identity generates eMe = M
    maps = list(itertools.product((1, 2, 3), repeat=3))
    weights = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in maps]
    spec = ",".join(f"[{a},{b},{c}]:{w}" for (a, b, c), w in zip(maps, weights))
    # coefficient d is sum_x w_x * trace S^d(x): d = 0 gives sum w_x, d = 1
    # weighs each map by its number of fixed points
    head = [sum(weights),
            sum(w * sum(f[j] == j + 1 for j in range(3)) for f, w in zip(maps, weights))]

    def check_molien(stdout):
        line = next((s for s in stdout.splitlines() if s.startswith("series: ")), None)
        if line is None:
            return "no 'series:' line"
        series = [Fraction(c) for c in line[len("series: "):].split(", ")]
        if len(series) != MOLIEN_TERMS + 1:
            return f"{len(series)} series terms, expected {MOLIEN_TERMS + 1}"
        if series[:2] != head:
            return f"series starts {series[:2]}, expected {head}"
        return None

    return [
        Job("verify", ["verify", monoid, rep, "--which", "all", "--powers-cap", "20"],
            lambda out: check_theorems(out, expected)),
        Job("molien", ["molien", monoid, rep, "--idempotent", "[1,2,3]",
                       "--weights", spec, "-N", str(MOLIEN_TERMS)], check_molien),
    ]


def nt_expected(t, mode):
    return {
        "r": "2",
        "dim_rad": str(t - 1),
        "dim_ann": str(t - 2 if mode == "tensor" else max(t - 4, 0)),
        "holds": "yes",
        "min_covering": "1",
        "min_faithful": str(t - 1) if t - 1 <= NT_CAP else "none",
    }


def check_scan(stdout, mode):
    lines = stdout.splitlines()
    if not lines or lines[-1] != "overall: OK":
        return "no final 'overall: OK' line"
    header = lines[0].split()[:7]
    rows = [line.split()[:7] for line in lines[1:-1]]
    ts = list(range(NT_FROM, NT_TO + 1))
    if [int(row[0]) for row in rows] != ts:
        return f"rows for t={[row[0] for row in rows]}, expected {ts}"
    for t, row in zip(ts, rows):
        got = dict(zip(header, row))
        for key, value in nt_expected(t, mode).items():
            if got.get(key) != value:
                return f"t={t}: {key}={got.get(key)}, expected {value}"
    return None


def nt_jobs(rng, workdir):
    # the paper's fixed N_t inputs: the seed does not apply
    return [
        Job(f"scan-{mode}", ["scan-nt", "--from", str(NT_FROM), "--to", str(NT_TO),
                             "--mode", mode, "--cap", str(NT_CAP)],
            lambda out, mode=mode: check_scan(out, mode))
        for mode in ("tensor", "symmetric")
    ]


def check_info(stdout):
    want = ["monoid: size=128 ", "character values (r=5)",
            "characteristic polynomials (s=8)"]
    for piece in want:
        if piece not in stdout:
            return f"no {piece.strip()!r} in the info report"
    return None


def m128_jobs(rng, workdir):
    monoid, rep = write_transformation_inputs(
        workdir, "m128", 4, relabel(M128_GENERATORS, 4, rng))
    expected = {"steinberg": {"dim_rad": "37", "dim_ann": "0"}}
    return [
        Job("info", ["info", monoid, rep], check_info),
        Job("verify", ["verify", monoid, rep, "--which", "steinberg"],
            lambda out: check_theorems(out, expected)),
    ]


WORKLOADS = {
    "t3-verify": t3_jobs,
    "nt-scan": nt_jobs,
    "m128-steinberg": m128_jobs,
}


def make_jobs(workload, seed, workdir):
    """Write the seeded inputs of a workload into workdir; return its jobs."""
    return WORKLOADS[workload](random.Random(seed), workdir)
