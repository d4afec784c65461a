"""JSON input formats for monoids and representations.

Monoid files carry a "type" discriminator:

    {"type": "cayley", "identity": 0, "table": [[0,1],[1,0]]}
    {"type": "transformations", "degree": 3, "generators": [[2,3,1],[2,1,3]]}
    {"type": "nt", "t": 5}
    {"type": "matrices", "dim": 2, "generators": [[["0","1"],["1","0"]]]}

Transformation generators use 1-based images.  Rational numbers are
strings "p/q" or "p" everywhere; matrices are row-major arrays of such
strings (plain integers are also accepted).

Representation files either name a builtin mode or list matrices keyed by
element label:

    {"mode": "natural"}
    {"mode": "nt-paper"}
    {"dim": 2, "matrices": {"1": [["1","0"],["0","1"]], ...}}

A representation is read against the monoid its caller has already
loaded.  A key not shown here is ignored, as are a representation
file's "monoid" and a matrices spec's "cap", which older files carry.
Every file is read as UTF-8, as RFC 8259 requires, whatever the locale.

``monoid_from_spec`` is the one place that refuses a monoid spec by
size, before any table is built, against the guard its caller names:
``algebra.size_guard`` (|M| <= 300) for ``mbt verify`` without
``--force``, ``work_guard`` (|M|^2 (|A| + 1) <= ``WORK_GUARD``) for
``mbt info`` and ``mbt molien``, or None.  ``load_monoid`` adds the
path to every error, a refusal included.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt

from .linalg import Matrix
from .monoids import (
    CapExceeded,
    Monoid,
    from_matrices,
    from_transformations,
    nt_monoid,
    nt_table,
)
from .representations import (
    Representation,
    natural_representation,
    nt_paper_representation,
)


def parse_rational(s) -> Fraction:
    """Parse "p/q", "p", or an int (not a JSON boolean) into a Fraction."""
    if isinstance(s, bool):
        raise ValueError(f"bad rational {json.dumps(s)}: a boolean is not a number")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except ValueError as e:
            raise ValueError(f"bad rational {s!r}: {e}") from None
        except ZeroDivisionError:
            raise ValueError(f"bad rational {s!r}: zero denominator") from None
    raise ValueError(f"bad rational {s!r}: expected a string or integer")


def format_rational(q) -> str:
    return str(Fraction(q))


def parse_matrix(rows) -> Matrix:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ValueError("a matrix must be an array of row arrays")
    return Matrix([[parse_rational(x) for x in row] for row in rows])


_KINDS = {int: "an integer", str: "a string", list: "an array", dict: "an object"}
_REQUIRED = object()


def _require(obj, field, kind, default=_REQUIRED):
    """obj[field], of type ``kind``; an absent or null field is
    ``default``, or refused if none is given."""
    v = obj.get(field)
    if v is None:
        if default is _REQUIRED:
            raise ValueError(f"missing field {field!r}")
        return default
    # bool is a subclass of int, but JSON true/false are not numbers
    if not isinstance(v, kind) or (kind is int and isinstance(v, bool)):
        # repr: a caller from Python may pass a value JSON has no form for
        raise ValueError(f"field {field!r} must be {_KINDS[kind]}, "
                         f"not {json.dumps(v, default=repr)}")
    return v


def monoid_from_spec(obj, guard=None) -> Monoid:
    """Build a monoid from a parsed JSON object, refused by ``guard``,
    if one is given, before any table is built.

    ``guard(n, gens)`` raises unless a monoid of n elements and at most
    ``gens`` generators is admitted, and returns the most elements it
    admits for ``gens`` generators (n = 0 asks only that).  An ``nt`` spec
    is held to it by its t + 1 elements and t generators, and a
    ``cayley`` spec by its table's length, as elements and generators
    both; a closure type stops its element search past the guard's
    count and is refused with n None, since the closure knows only that
    there are more.  Without a guard a ``matrices`` closure stops past
    ``from_matrices``' default cap."""
    if not isinstance(obj, dict):
        raise ValueError("monoid description must be a JSON object")
    kind = _require(obj, "type", str)
    if kind == "cayley":
        table = _require(obj, "table", list)
        if guard:
            guard(len(table), len(table))
        identity = _require(obj, "identity", int)
        return Monoid(table, identity, labels=_require(obj, "labels", list, None))
    if kind == "nt":
        t = _require(obj, "t", int)
        if guard:
            guard(t + 1, t)
        return nt_monoid(t)
    if kind == "transformations":
        degree = _require(obj, "degree", int)
        gens = _require(obj, "generators", list)

        def closure(cap):
            return from_transformations(degree, gens, cap)
    elif kind == "matrices":
        gens = [parse_matrix(g) for g in _require(obj, "generators", list)]
        dim = _require(obj, "dim", int, None)
        if dim is not None and any(g.nrows != dim for g in gens):
            raise ValueError(f"a generator does not match the declared dim {dim}")

        def closure(cap):
            return from_matrices(gens) if cap is None else from_matrices(gens, cap)
    else:
        raise ValueError(f"unknown monoid type {kind!r}")
    cap = guard(0, len(gens)) if guard else None
    try:
        return closure(cap)
    except CapExceeded as e:
        if e.cap != cap:
            raise
        guard(None, len(gens))


# |M|^2 (|A| + 1): the table lookups that building a monoid of |M|
# elements and |A| generators, and Light's test on it, take.  `mbt info`
# and `mbt molien` admit at most this many.  On a 2-core host `mbt info`
# takes 2.0-2.4 s on N_463 (9.9e7) and 2.5 s on T_5 from three generators
# (3.9e7); T_6 (8.7e9) and N_3000 (2.7e10) are refused.
WORK_GUARD = 10 ** 8


def work_guard(n, gens):
    """The spec guard of ``mbt info`` and ``mbt molien`` (see
    ``monoid_from_spec``): |M|^2 (|A| + 1) <= ``WORK_GUARD``."""
    cap = isqrt(WORK_GUARD // (max(gens, 0) + 1))  # gens < 0 from t < 0
    if n is None or n > cap:
        count = f"more than {cap}" if n is None else n
        raise ValueError(f"monoid has {count} elements and up to {gens} generators: "
                         f"|M|^2 (|A| + 1) is past {WORK_GUARD}; refused by the size guard")
    return cap


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise ValueError(f"invalid JSON at line {e.lineno}, column {e.colno}") from None
    except RecursionError:
        raise ValueError("JSON nested too deeply to read") from None


def load_monoid(path, guard) -> Monoid:
    """The monoid a JSON file describes, held to ``guard`` (None, or
    see ``monoid_from_spec``); an error names the path."""
    try:
        return monoid_from_spec(load_json(path), guard)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def representation_from_spec(obj, monoid: Monoid) -> Representation:
    """Build a representation of ``monoid`` from a parsed JSON object."""
    if not isinstance(obj, dict):
        raise ValueError("representation description must be a JSON object")
    mode = obj.get("mode")
    if mode == "natural":
        return natural_representation(monoid)
    if mode == "nt-paper":
        t = monoid.size - 1
        if (monoid.table, monoid.identity) != (nt_table(t), 1):
            raise ValueError('mode "nt-paper" needs a monoid of type "nt"')
        return nt_paper_representation(t, monoid)
    if mode is not None:
        raise ValueError(f"unknown representation mode {mode!r}")
    dim = _require(obj, "dim", int)
    table = _require(obj, "matrices", dict)
    mats = []
    for i, label in enumerate(monoid.labels):
        if label not in table:
            raise ValueError(f"no matrix for element {label!r}")
        mat = parse_matrix(table[label])
        if mat.nrows != dim or mat.ncols != dim:
            raise ValueError(f"matrix for element {label!r} is not {dim}x{dim}")
        mats.append(mat)
    extra = set(table) - set(monoid.labels)
    if extra:
        raise ValueError(f"matrices given for unknown labels: {sorted(extra)}")
    return Representation(monoid, mats)


def load_representation(path, monoid: Monoid) -> Representation:
    try:
        return representation_from_spec(load_json(path), monoid)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
