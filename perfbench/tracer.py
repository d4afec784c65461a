"""Per-layer tracing of one `mbt` job, installed from outside the package.

Run as ``python3 perfbench/tracer.py OUT.json <mbt arguments>`` with the
package on ``PYTHONPATH``.  It wraps every public function of each
package module and a few hot class methods in spans, runs the command
in-process, and writes the per-layer totals to OUT.json.

A span's self time is its duration minus that of the spans nested in
it; a layer's self time is the sum over its spans.  Modules import
functions by name (``cli`` takes ``radical_basis`` from ``algebra``), so
each wrapper is rebound in every package module that holds the
original.  Chains are generators: each ``next()`` is its own span.
Scanning returned bases for ``max_bits`` is bookkeeping and is kept out
of every span's time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "fileio", "monoids", "representations", "linalg", "algebra", "molien")

# function name -> the metric that sums its inclusive time
FUNCTION_METRICS = {
    "cmd_info": "cli.command_s",
    "cmd_verify": "cli.command_s",
    "cmd_scan_nt": "cli.command_s",
    "cmd_molien": "cli.command_s",
    "load_monoid": "fileio.load_s",
    "load_representation": "fileio.load_s",
    "from_cayley_table": "monoids.build_s",
    "from_transformations": "monoids.build_s",
    "from_matrices": "monoids.build_s",
    "nt_monoid": "monoids.build_s",
    "submonoid": "monoids.build_s",
    "direct_sum": "representations.direct_sum_s",
    "sym_power": "representations.sym_power_s",
    "tensor_power": "representations.tensor_power_s",
    "distinct_charpolys": "representations.charpoly_s",
    "sym_power_character": "representations.sym_character_s",
    "radical_basis": "algebra.radical_s",
    "annihilator_basis": "algebra.annihilator_s",
    "verify_tensor_theorem": "algebra.verify_s",
    "verify_symmetric_theorem": "algebra.verify_s",
    "verify_positive_power_refinement": "algebra.verify_s",
    "verify_steinberg_bound": "algebra.verify_s",
    "subspace_leq": "algebra.containment_s",
    "weighted_series": "molien.series_s",
    "series_prefix": "molien.series_s",
}

# what a traced job reports; a function never called reports 0
TIME_METRICS = [
    "cli.command_s", "fileio.load_s", "monoids.build_s",
    "representations.validate_s", "representations.direct_sum_s",
    "representations.sym_power_s", "representations.tensor_power_s",
    "representations.charpoly_s", "representations.sym_character_s",
    "linalg.echelon_insert_s", "algebra.subspace_s", "algebra.chain_s",
    "algebra.radical_s", "algebra.annihilator_s", "algebra.verify_s",
    "algebra.containment_s", "molien.series_s",
]
COUNT_METRICS = [
    "monoids.elements", "representations.validate_products",
    "representations.direct_sum_entries", "linalg.echelon_inserts",
    "linalg.matrix_entries", "linalg.matmuls", "algebra.subspace_builds",
    "algebra.subspace_rows", "algebra.chain_steps",
]

CHAINS = ("tensor_annihilator_chain", "symmetric_annihilator_chain")
# called per matrix entry; a span there would cost more than the work
UNTRACED = {"as_fraction"}


def entry_bits(q):
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.times = defaultdict(float)
        self.counts = defaultdict(int)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.max_bits = 0
        self._children = []  # per open span: time covered by nested spans
        self._depth = defaultdict(int)  # per metric: open spans, so nesting counts once
        self._book = 0.0  # bookkeeping time, excluded from every span

    def _begin(self, metric):
        self._children.append(0.0)
        if metric:
            self._depth[metric] += 1
        return self.clock(), self._book

    def _end(self, layer, metric, start):
        t0, book0 = start
        dur = self.clock() - t0 - (self._book - book0)
        self.self_s[layer] += dur - self._children.pop()
        if self._children:
            self._children[-1] += dur
        if metric:
            self._depth[metric] -= 1
            if not self._depth[metric]:
                self.times[metric] += dur

    def scan_bits(self, subspace):
        t0 = self.clock()
        bits = max((entry_bits(x) for v in subspace.basis for x in v if x), default=0)
        self.max_bits = max(self.max_bits, bits)
        self._book += self.clock() - t0

    def span(self, fn, layer, metric=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = tracer._begin(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(layer, metric, start)
            if after is not None:
                after(args, result)
            return result

        return traced

    def chain(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                start = tracer._begin("algebra.chain_s")
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    tracer._end("algebra", "algebra.chain_s", start)
                tracer.counts["algebra.chain_steps"] += 1
                tracer.scan_bits(item[1])
                yield item

        return traced

    # counters read from the arguments and results of wrapped calls

    def _count_insert(self, args, grew):
        self.counts["linalg.echelon_inserts"] += 1
        self.counts["linalg.echelon_useful"] += bool(grew)

    def _count_matrix(self, args, _):
        m = args[0]
        self.counts["linalg.matrix_entries"] += m.nrows * m.ncols

    def _count_matmul(self, args, _):
        self.counts["linalg.matmuls"] += type(args[1]) is type(args[0])

    def _count_subspace(self, args, _):
        self.counts["algebra.subspace_builds"] += 1
        self.counts["algebra.subspace_rows"] += len(args[2]) if len(args) > 2 else 0

    def _count_monoid(self, args, _):
        self.counts["monoids.elements"] += args[0].size

    def _count_validate(self, args, _):
        self.counts["representations.validate_products"] += args[0].monoid.size ** 2

    def _scan_result(self, args, subspace):
        self.scan_bits(subspace)

    def _count_direct_sum(self, args, rho):
        self.counts["representations.direct_sum_entries"] += rho.monoid.size * rho.dim ** 2

    def install(self):
        """Wrap the package's public functions and hot methods in spans."""
        import monoidrep.cli  # noqa: F401  (imports every layer)
        from monoidrep import algebra, linalg, monoids, representations

        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("monoidrep.")}

        def rebind(original, wrapper):
            for mod in list(modules.values()) + [sys.modules["monoidrep"]]:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapper)

        hooks = {
            "direct_sum": self._count_direct_sum,
            "radical_basis": self._scan_result,
            "annihilator_basis": self._scan_result,
        }
        for modname, mod in modules.items():
            layer = modname.split(".", 1)[1]
            if layer not in LAYERS:
                continue
            for name, fn in list(vars(mod).items()):
                if (not inspect.isfunction(fn) or fn.__module__ != modname
                        or name in UNTRACED or name.startswith("_")):
                    continue
                if name in CHAINS:
                    wrapper = self.chain(fn)
                else:
                    wrapper = self.span(fn, layer, FUNCTION_METRICS.get(name),
                                        hooks.get(name))
                rebind(fn, wrapper)

        methods = [
            (linalg.Matrix, "__init__", "linalg", None, self._count_matrix),
            (linalg.Matrix, "__mul__", "linalg", None, self._count_matmul),
            (linalg.Echelon, "insert", "linalg", "linalg.echelon_insert_s",
             self._count_insert),
            (linalg.Echelon, "kernel_basis", "linalg", None, None),
            (algebra.Subspace, "__init__", "algebra", "algebra.subspace_s",
             self._count_subspace),
            (representations.Representation, "validate", "representations",
             "representations.validate_s", self._count_validate),
            (monoids.Monoid, "__init__", "monoids", "monoids.build_s",
             self._count_monoid),
        ]
        for cls, name, layer, metric, after in methods:
            setattr(cls, name, self.span(getattr(cls, name), layer, metric, after))

    def report(self):
        return {"times": dict(self.times), "counts": dict(self.counts),
                "self_s": self.self_s, "max_bits": self.max_bits}


def main(argv):
    out_path, mbt_args = argv[0], argv[1:]
    from monoidrep import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(mbt_args)
    finally:
        with open(out_path, "w") as f:
            json.dump(tracer.report(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
