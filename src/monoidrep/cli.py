"""Command line front end.

Four subcommands:

    mbt info <monoid.json> [<rep.json>]
    mbt verify <monoid.json> <rep.json> --which all|tensor|symmetric|positive|steinberg
    mbt scan-nt --from 2 --to 12 --mode tensor|symmetric
    mbt molien <monoid.json> <rep.json> --idempotent L --weights 'L:c,...' -N 6

Exit codes: 0 all checks hold, 1 a verified theorem failed (which means
the implementation is broken -- the JSON witness is printed for
auditing), 2 malformed input or a refused job.  All output is
deterministic; pass --json for machine-readable reports.

Each subcommand imports the layers it calls when it runs, so ``--help``,
a usage error or a subcommand compiles only the modules it needs, and
``console_main`` ends the process by ``os._exit`` once stdout and stderr
are flushed: the interpreter's teardown would only free memory the
process is about to give back.

Every command runs in one process.  ``scan-nt`` computes its rows in
order, so an error names the first failing t, and walks each chain
once: N_t is the submonoid of N_to on its first t + 1 elements, with
the first t + 1 of its representation's matrices, so each row reads
N_to's walks restricted to its elements.  That is exact: a row's step
spans N_to's cut to its columns, whose echelon is N_to's rows with a
pivot among them; N_to's walk closes at its floor, where every row is
at its own; and since a row t reads no symmetric degree past t - 1 and
N_to is within the size guard, no degree a row alone admits is refused
(``algebra``).  Each N_t and its representation are still built and
checked on their own.  ``verify``'s radical, an
exact echelon of at most |M| sparse 0/1 rows, costs less than a second
process would save.
"""

import argparse
import sys


def _emit_json(payload):
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))


def _table(headers, rows):
    """Fixed-width aligned text table."""
    cells = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def cmd_info(args):
    from . import fileio, monoids, representations

    m = fileio.load_monoid(args.monoid, fileio.work_guard)
    z = monoids.has_zero(m)
    idem = monoids.idempotents(m)
    # |G_e| counts the g in eMe whose table row holds e, as monoids.unit_group reads it
    sizes = [(len(eme), sum(e in m.table[g] for g in eme))
             for e in idem for eme in [monoids.local_monoid(m, e)]]
    payload = {
        "size": m.size,
        "identity": m.labels[m.identity],
        "zero": None if z is None else m.labels[z],
        "idempotents": [
            {
                "label": m.labels[e],
                "local_monoid_size": local,
                "unit_group_size": units,
                "ideal_size": local - units,  # I_e = eMe minus G_e
            }
            for e, (local, units) in zip(idem, sizes)
        ],
    }
    rep_payload = None
    polys = ()
    if args.representation:
        rho = fileio.load_representation(args.representation, m)
        ok, _ = representations.is_faithful(rho)
        values = representations.distinct_character_values(rho)
        polys = representations.distinct_charpolys(rho)
        rep_payload = {
            "dim": rho.dim,
            "faithful": ok,
            "r": len(values),
            "character_values": [fileio.format_rational(v) for v in values],
            "s": len(polys),
            "charpolys": [[fileio.format_rational(c) for c in p.coeffs] for p in polys],
        }
    if args.json:
        _emit_json({"monoid": payload, "representation": rep_payload})
        return 0
    print(f"monoid: size={m.size} identity={payload['identity']!r} "
          f"zero={payload['zero']!r}")
    print(f"idempotents ({len(idem)}):")
    print(_table(["label", "|eMe|", "|G_e|", "|I_e|"],
                 [[d["label"], d["local_monoid_size"], d["unit_group_size"],
                   d["ideal_size"]] for d in payload["idempotents"]]))
    if rep_payload:
        print(f"representation: dim={rep_payload['dim']} "
              f"faithful={'yes' if rep_payload['faithful'] else 'no'}")
        print(f"character values (r={rep_payload['r']}): "
              + ", ".join(rep_payload["character_values"]))
        print(f"characteristic polynomials (s={rep_payload['s']}): "
              + ", ".join(map(str, polys)))
    return 0


def cmd_verify(args):
    import json

    from . import algebra, fileio, monoids

    if args.powers_cap is not None:
        print("warning: --powers-cap is ignored; no bound is capped", file=sys.stderr)
    m = fileio.load_monoid(args.monoid, None if args.force else algebra.size_guard)
    rho = fileio.load_representation(args.representation, m)
    which = args.which

    # the radical first, so that its size guard refuses before any chain step
    radical = algebra.radical_basis(m, force=args.force)
    reports, skipped = [], []
    if which in ("all", "tensor"):
        reports.append(algebra.verify_tensor_theorem(rho, radical=radical))
    if which in ("all", "symmetric"):
        reports.append(algebra.verify_symmetric_theorem(rho, radical=radical))
    # the verifier itself refuses a monoid with a zero; "all" skips it
    if which == "positive" or (which == "all" and monoids.has_zero(m) is None):
        reports.append(algebra.verify_positive_power_refinement(rho, radical=radical))
    elif which == "all":
        skipped.append("positive-refinement: monoid has a zero element")
    if which in ("all", "steinberg"):
        reports.append(algebra.verify_steinberg_bound(rho, radical=radical))

    sharpness = {rep.theorem: rep.minimal_k for rep in reports
                 if rep.holds and rep.theorem in ("tensor", "symmetric")}
    ok = all(rep.holds for rep in reports)
    if args.json:
        _emit_json({
            "reports": [rep.to_json_dict() for rep in reports],
            "sharpness": sharpness,
            "skipped": skipped,
            "ok": ok,
        })
    else:
        for rep in reports:
            bits = [f"{rep.theorem}:", "HOLDS" if rep.holds else "VIOLATED"]
            if rep.r is not None:
                bits.append(f"r={rep.r}")
            if rep.s is not None:
                bits.append(f"s={rep.s}")
            bits.append(f"bound={rep.bound}")
            bits.append(f"powers={rep.powers_used[0]}..{rep.powers_used[-1]}")
            bits.append(f"dim_rad={rep.dim_rad}")
            bits.append(f"dim_ann={rep.dim_ann}")
            if rep.theorem in sharpness:
                bits.append(f"minimal_k={sharpness[rep.theorem]}")
            print(" ".join(bits))
            if not rep.holds:
                print("  witness: "
                      + json.dumps([fileio.format_rational(x) for x in rep.witness]))
        for note in skipped:
            print(f"{note} (skipped)")
        print("overall: OK" if ok else "overall: THEOREM VIOLATION")
    return 0 if ok else 1


def _scan_row(t, owner, mode, cap, with_s):
    """The ``scan-nt`` row of N_t.  ``owner`` is N_to's representation,
    the last row's; every other row builds and checks N_t and its
    representation, then reads owner's walks restricted to its elements
    (``algebra._share_walks``).  s is counted only when ``with_s`` (the
    JSON form prints it, the table does not)."""
    from . import algebra, representations

    rho = owner
    if t < owner.monoid.size - 1:
        rho = representations.nt_paper_representation(t)
        algebra._share_walks(rho, owner)
    m = rho.monoid
    verify = {"tensor": algebra.verify_tensor_theorem,
              "symmetric": algebra.verify_symmetric_theorem}[mode]
    rep = verify(rho)
    bound = rep.bound
    if mode == "tensor":
        w_dim = sum(rho.dim ** i for i in range(bound + 1))
    else:
        w_dim = sum(representations.sym_power_dim(rho.dim, d) for d in range(bound + 1))
    row = {
        "t": t,
        # the report carries the one of r, s its bound needs
        "r": rep.r or len(representations.distinct_character_values(rho)),
        "s": rep.s or (len(representations.distinct_charpolys(rho)) if with_s else None),
        "bound": bound,
        "dim_rad": rep.dim_rad,
        "dim_ann": rep.dim_ann,
        "holds": rep.holds,
        "min_covering": rep.minimal_k,
        "min_faithful": algebra.minimal_faithful_power(rho, mode, max(bound, cap)),
        "note": "",
    }
    if w_dim * w_dim < m.size:
        row["note"] = (f"dim forces Ann != 0: W dim {w_dim}, "
                       f"{w_dim}^2 = {w_dim * w_dim} < |M| = {m.size}")
    return row


def cmd_scan_nt(args):
    if args.t_from < 2 or args.t_to < args.t_from:
        raise ValueError(f"bad range: from={args.t_from} to={args.t_to}")
    if args.cap < 0:
        raise ValueError(f"bad cap: {args.cap} (must be nonnegative)")
    from . import algebra, representations

    if args.t_to + 1 > algebra.SIZE_GUARD:
        raise ValueError(
            f"N_{args.t_to} has {args.t_to + 1} > {algebra.SIZE_GUARD} elements; "
            "refused by the size guard")
    owner = representations.nt_paper_representation(args.t_to)  # walked once
    rows = [_scan_row(t, owner, args.mode, args.cap, args.json)
            for t in range(args.t_from, args.t_to + 1)]
    ok = all(r["holds"] for r in rows)
    if args.json:
        _emit_json({"mode": args.mode, "rows": rows, "ok": ok})
    else:
        print(_table(
            ["t", "r", "dim_rad", "dim_ann", "holds", "min_covering",
             "min_faithful", "note"],
            [[r["t"], r["r"], r["dim_rad"], r["dim_ann"],
              "yes" if r["holds"] else "NO",
              r["min_covering"],
              "none" if r["min_faithful"] is None else r["min_faithful"],
              r["note"]] for r in rows]))
        print("overall: OK" if ok else "overall: THEOREM VIOLATION")
    return 0 if ok else 1


def _split_top_level(s, sep=","):
    """Split on separators that are not nested inside brackets."""
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p for p in parts if p.strip()]


def parse_weights(spec, m):
    """Parse 'label:rational,label:rational' into a coefficient vector."""
    from .fileio import parse_rational

    weights = [0] * m.size
    for part in _split_top_level(spec):
        if ":" not in part:
            raise ValueError(f"bad weight {part!r}: expected label:rational")
        label, _, value = part.rpartition(":")
        weights[m.index_of_label(label.strip())] += parse_rational(value.strip())
    return tuple(weights)


def cmd_molien(args):
    from . import fileio, molien, representations

    m = fileio.load_monoid(args.monoid, fileio.work_guard)
    rho = fileio.load_representation(args.representation, m)
    e = m.index_of_label(args.idempotent)
    weights = parse_weights(args.weights, m)
    num, den = molien.weighted_series(rho, e, weights)
    prefix = molien.series_prefix(num, den, args.terms)

    # cross-check every coefficient against the symmetric-power characters
    # sum_x w_x h_d(eigenvalues of x), from one power-trace pass per x; on
    # eMe, rho(x) and its restriction to eV have the same power traces
    n = args.terms
    direct = [0] * (n + 1)
    for x, w in enumerate(weights):
        if w:
            h = representations.sym_power_characters(rho, x, n)
            for d in range(n + 1):
                direct[d] += w * h[d]
    for d, coeff in enumerate(prefix):
        if direct[d] != coeff:
            raise RuntimeError(
                f"series coefficient {d} disagrees with the symmetric-power "
                f"character sum: {coeff} vs {direct[d]}")

    if args.json:
        _emit_json({
            "num": [fileio.format_rational(c) for c in num.coeffs],
            "den": [fileio.format_rational(c) for c in den.coeffs],
            "series": [fileio.format_rational(c) for c in prefix],
        })
    else:
        print(f"g(t) = ({num}) / ({den})")
        print("series: " + ", ".join(fileio.format_rational(c) for c in prefix))
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="mbt",
        description="Exact verification of tensor/symmetric power coverage "
                    "bounds for representations of finite monoids.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("info", help="structure report for a monoid (and representation)")
    sp.add_argument("monoid")
    sp.add_argument("representation", nargs="?", default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("verify", help="run the coverage verifiers")
    sp.add_argument("monoid")
    sp.add_argument("representation")
    sp.add_argument("--which", default="all",
                    choices=["all", "tensor", "symmetric", "positive", "steinberg"])
    # accepted for old scripts and ignored, with a warning
    sp.add_argument("--powers-cap", type=int, help=argparse.SUPPRESS)
    sp.add_argument("--force", action="store_true",
                    help="override the size guard on the monoid's element count")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("scan-nt", help="scan the N_t family")
    sp.add_argument("--from", dest="t_from", type=int, required=True)
    sp.add_argument("--to", dest="t_to", type=int, required=True)
    sp.add_argument("--mode", default="tensor", choices=["tensor", "symmetric"])
    sp.add_argument("--cap", type=int, default=32,
                    help="faithfulness is probed up to power max(CAP, bound), "
                         "bound being the checked theorem's bound for each t; "
                         "must be nonnegative")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_scan_nt)

    sp = sub.add_parser("molien", help="weighted symmetric-power generating function")
    sp.add_argument("monoid")
    sp.add_argument("representation")
    sp.add_argument("--idempotent", required=True, help="label of the idempotent e")
    sp.add_argument("--weights", required=True,
                    help="comma-separated label:rational pairs, support inside eMe")
    sp.add_argument("-N", "--terms", type=int, default=6,
                    help="number of series coefficients beyond the constant term")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_molien)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return 1


def console_main():
    """Entry point of ``mbt``, ``python -m monoidrep`` and ``python -m
    monoidrep.cli``: run `main`, flush stdout and stderr, and end the
    process with ``os._exit``.

    Once the output is flushed the interpreter's teardown, which frees
    every module and object, has nothing left to write and costs 5-10 ms
    per launch.  A ``SystemExit`` whose code is an int or None (argparse's
    ``--help`` and usage errors) ends the same way; any other exception
    propagates.  The flushes end as the interpreter's own at exit do: a
    failed stdout flush is reported on stderr as an ignored exception, a
    failed stderr flush silently, and either makes the exit status 120.
    Atexit handlers do not run.
    """
    import os

    try:
        code = main()
    except SystemExit as e:
        if not (e.code is None or isinstance(e.code, int)):
            raise
        code = e.code
    out, err = sys.stdout, sys.stderr  # None where the fd was closed
    failed = None
    if out is not None:
        try:
            out.flush()
        except Exception as e:
            code, failed = 120, e
    if err is not None:
        try:
            if failed is not None:
                import traceback

                err.write(f"Exception ignored in: {out!r}\n"
                          + "".join(traceback.format_exception_only(type(failed), failed)))
            err.flush()
        except Exception:
            code = 120
    os._exit(code or 0)


if __name__ == "__main__":
    console_main()
