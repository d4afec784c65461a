import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import monoidrep.cli as cli
from monoidrep import algebra, fileio, monoids, representations
from monoidrep.algebra import (
    minimal_faithful_power,
    radical_basis,
    verify_symmetric_theorem,
    verify_tensor_theorem,
)
from monoidrep.cli import main, parse_weights
from monoidrep.fileio import monoid_from_spec
from monoidrep.monoids import from_transformations
from monoidrep.representations import (
    distinct_character_values,
    distinct_charpolys,
    nt_paper_representation,
)

from conftest import T3_GENERATORS
from oracles import regular_representation, span_subspace
from test_golden import CASES, GOLDEN, refusing_forks, run_case


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


@pytest.fixture
def files(tmp_path):
    return {
        "nt5": write(tmp_path, "nt5.json", {"type": "nt", "t": 5}),
        "nt7": write(tmp_path, "nt7.json", {"type": "nt", "t": 7}),
        "nt_rep": write(tmp_path, "nt_rep.json", {"mode": "nt-paper"}),
        "t2": write(tmp_path, "t2.json",
                    {"type": "transformations", "degree": 2,
                     "generators": [[2, 1], [1, 1]]}),
        "t3": write(tmp_path, "t3.json",
                    {"type": "transformations", "degree": 3,
                     "generators": [list(g) for g in T3_GENERATORS]}),
        "natural": write(tmp_path, "natural.json", {"mode": "natural"}),
        "unfaithful": write(tmp_path, "unfaithful.json",
                            {"dim": 1, "matrices": {str(i): [["1"]] for i in range(6)}}),
        "bad_table": write(tmp_path, "bad.json",
                           {"type": "cayley", "identity": 0,
                            "table": [[0, 1, 2], [1, 2, 0], [2, 1, 0]]}),
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- info ----------------------------------------------------------------------

def test_info_nt5(files, capsys):
    code, out, _ = run(capsys, ["info", files["nt5"]])
    assert code == 0
    assert "size=6" in out and "zero='0'" in out
    assert "idempotents (2)" in out


def test_info_with_representation(files, capsys):
    code, out, _ = run(capsys, ["info", files["t2"], files["natural"]])
    assert code == 0
    assert "faithful=yes" in out
    assert "(r=3)" in out and "(s=3)" in out


def test_info_json_round_trips(files, capsys):
    code, out, _ = run(capsys, ["info", files["nt5"], files["nt_rep"], "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["monoid"]["size"] == 6
    assert payload["representation"]["r"] == 2
    assert json.dumps(payload, indent=2, sort_keys=True) == out.strip()


def test_info_bad_table_exit_two(files, capsys):
    code, out, err = run(capsys, ["info", files["bad_table"]])
    assert code == 2
    assert "(1, 1, 1)" in err


@pytest.mark.parametrize("truncated", ["monoid", "representation"])
def test_info_truncated_file_named_once(tmp_path, capsys, truncated):
    paths = {"monoid": tmp_path / "m.json", "representation": tmp_path / "rep.json"}
    paths["monoid"].write_text('{"type": "nt", "t": 3}', encoding="utf-8")
    paths["representation"].write_text('{"mode": "nt-paper"}', encoding="utf-8")
    paths[truncated].write_text('{"type": ', encoding="utf-8")
    code, out, err = run(capsys, ["info", *map(str, paths.values())])
    assert code == 2 and out == ""
    assert err == f"error: {paths[truncated]}: invalid JSON at line 1, column 10\n"


@pytest.mark.parametrize("kind", ["monoid", "representation"])
def test_deeply_nested_file_exit_two(files, tmp_path, capsys, kind):
    """JSON nested past the parser's recursion limit is a bad input file,
    named in one error line, not a broken invariant (exit 1)."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000 + "]" * 5000, encoding="utf-8")
    argv = ["info", str(deep)] if kind == "monoid" else ["verify", files["t3"], str(deep)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {deep}: ") and err.count("\n") == 1


@pytest.mark.parametrize("field, value", [("dim", "x"), ("dim", 2.0)])
def test_info_bad_matrices_field_exit_two(tmp_path, capsys, field, value):
    spec = {"type": "matrices", "generators": [[["1", "1"], ["0", "1"]]], field: value}
    code, out, err = run(capsys, ["info", write(tmp_path, "m.json", spec)])
    assert code == 2 and out == ""
    assert f"'{field}'" in err


# JSON true/false are not integers, although Python's bool is an int:
# name -> (monoid spec, representation spec or None, error message)
N1 = {"type": "nt", "t": 1}
BOOLEAN_INPUTS = {
    "degree": ({"type": "transformations", "degree": True, "generators": [[1]]},
               None, "field 'degree' must be an integer, not true"),
    "identity": ({"type": "cayley", "identity": False, "table": [[0, 1], [1, 1]]},
                 None, "field 'identity' must be an integer, not false"),
    "t": ({"type": "nt", "t": True}, None, "field 't' must be an integer, not true"),
    "monoid-matrix-entry": ({"type": "matrices", "generators": [[[True, 0], [0, 1]]]},
                            None, "bad rational true: a boolean is not a number"),
    "dim": (N1, {"dim": True, "matrices": {"0": [["0"]], "1": [["1"]]}},
            "field 'dim' must be an integer, not true"),
    "monoid-dim": ({"type": "matrices", "dim": True, "generators": [[["1"]]]},
                   None, "field 'dim' must be an integer, not true"),
    "matrix-entry": (N1, {"dim": 1, "matrices": {"0": [[False]], "1": [["1"]]}},
                     "bad rational false: a boolean is not a number"),
    "cayley-entry": ({"type": "cayley", "identity": 0, "table": [[0, True], [True, 0]]},
                     None, "table entry [0][1] must be an integer, not true"),
    "transformation-image": ({"type": "transformations", "degree": 2,
                              "generators": [[2, True]]},
                             None, "generator 0 image must be an integer, not true"),
}


# a transformation generator or a Cayley table row that is not an array
MALFORMED_SHAPES = {
    "generator": ({"type": "transformations", "degree": 2, "generators": [2]},
                  "generator 0 must be a sequence, not 2"),
    "table-row": ({"type": "cayley", "identity": 0, "table": [[0, 1], 5]},
                  "table row 1 must be a sequence, not 5"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SHAPES))
def test_info_malformed_shape_exit_two(tmp_path, capsys, name):
    spec, message = MALFORMED_SHAPES[name]
    code, out, err = run(capsys, ["info", write(tmp_path, "m.json", spec)])
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("name", sorted(BOOLEAN_INPUTS))
def test_info_boolean_for_integer_exit_two(tmp_path, capsys, name):
    monoid, rep, message = BOOLEAN_INPUTS[name]
    argv = ["info", write(tmp_path, "m.json", monoid)]
    if rep is not None:
        argv.append(write(tmp_path, "rep.json", rep))
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("labels, message", [
    (5, "field 'labels' must be an array, not 5"),
    (True, "field 'labels' must be an array, not true"),
    (1.5, "field 'labels' must be an array, not 1.5"),
    (["a", "a"], "label 'a' is repeated"),
])
def test_info_bad_labels_exit_two(tmp_path, capsys, labels, message):
    spec = {"type": "cayley", "identity": 0, "table": [[0, 1], [1, 0]], "labels": labels}
    rep = {"dim": 1, "matrices": {"a": [["1"]]}}
    code, out, err = run(capsys, ["info", write(tmp_path, "m.json", spec),
                                  write(tmp_path, "rep.json", rep)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


# each valid field of a monoid or representation file is replaced by each of these
BAD_VALUES = [5, -1, 1.5, True, None, "x", [], {}, [5], [[True]], ["e", "e"]]
SWEEP_MONOIDS = {
    "cayley": {"type": "cayley", "identity": 0, "table": [[0, 1], [1, 0]]},
    "transformations": {"type": "transformations", "degree": 2, "generators": [[2, 1]]},
    "nt": {"type": "nt", "t": 2},
    "matrices": {"type": "matrices", "dim": 1, "generators": [[["-1"]]]},
}


def _sweep_inputs():
    """(monoid spec, representation spec) pairs, for each monoid type and
    each representation form (a builtin mode, matrices keyed by label):
    one field of the pair, or ``labels``, holds one of ``BAD_VALUES``."""
    for kind, monoid in SWEEP_MONOIDS.items():
        m = monoid_from_spec(monoid)
        keyed = {"dim": m.size,
                 "matrices": {label: [list(row) for row in mat.rows] for label, mat
                              in zip(m.labels, regular_representation(m).matrices)}}
        for rep in ({"mode": "nt-paper" if kind == "nt" else "natural"}, keyed):
            for value in BAD_VALUES:
                for field in [*monoid, "labels"]:
                    yield {**monoid, field: value}, rep
                for field in rep:
                    yield monoid, {**rep, field: value}


def test_info_malformed_input_sweep(tmp_path, capsys, monkeypatch):
    """No malformed field makes ``mbt info`` raise: it exits 0, or 2 with
    one ``error:`` line."""
    paths = {}  # each distinct file is written once

    def path(spec):
        text = json.dumps(spec)
        if text not in paths:
            paths[text] = tmp_path / f"{len(paths)}.json"
            paths[text].write_text(text, encoding="utf-8")
        return str(paths[text])

    parser = cli.build_parser()  # built once: building it is most of a run
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    wrong = []
    for monoid, rep in _sweep_inputs():
        try:
            code, _, err = run(capsys, ["info", path(monoid), path(rep)])
        except Exception as e:  # an escape is what this test reports
            wrong.append((monoid, rep, repr(e)))
            continue
        if code not in (0, 2) or (code == 2) != (err.startswith("error: ")
                                               and err.count("\n") == 1):
            wrong.append((monoid, rep, code, err))
    assert wrong == []


def test_info_reads_utf8_labels_under_an_ascii_locale(tmp_path):
    """Input files are UTF-8 (RFC 8259) whatever the locale: under the C
    locale, with neither locale coercion nor UTF-8 mode, a label "σ" loads
    and ``--json`` prints it escaped, so stdout is ASCII."""
    path = tmp_path / "c2.json"
    spec = {"type": "cayley", "identity": 0, "table": [[0, 1], [1, 0]], "labels": ["ε", "σ"]}
    path.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(PYTHONPATH=str(Path(cli.__file__).parents[1]), PYTHONCOERCECLOCALE="0",
               LC_ALL="C", PYTHONUTF8="0")
    proc = subprocess.run([sys.executable, "-m", "monoidrep", "info", str(path), "--json"],
                          capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    out = proc.stdout.decode("ascii")
    assert '"identity": "\\u03b5"' in out
    assert json.loads(out)["monoid"]["identity"] == "ε"


# --- verify ----------------------------------------------------------------------

def test_verify_nt7_all(files, capsys):
    code, out, _ = run(capsys, ["verify", files["nt7"], files["nt_rep"],
                                "--which", "all"])
    assert code == 0
    assert "tensor: HOLDS r=2" in out
    assert "symmetric: HOLDS s=2" in out
    assert "dim_rad=6" in out and "dim_ann=5" in out
    assert "positive-refinement: monoid has a zero element (skipped)" in out
    assert "overall: OK" in out


def test_verify_json_report_schema(files, capsys):
    code, out, _ = run(capsys, ["verify", files["nt7"], files["nt_rep"],
                                "--which", "tensor", "--json"])
    assert code == 0
    payload = json.loads(out)
    report = payload["reports"][0]
    assert set(report) == {"theorem", "r", "s", "dim_rad", "dim_ann", "holds",
                           "witness", "powers_used"}
    assert report["holds"] is True
    assert report["powers_used"] == [0, 1]
    assert payload["sharpness"]["tensor"] == 1
    assert json.dumps(payload, indent=2, sort_keys=True) == out.strip()


def test_verify_t3_tensor(files, capsys):
    code, out, _ = run(capsys, ["verify", files["t3"], files["natural"],
                                "--which", "tensor"])
    assert code == 0
    assert "r=4" in out


def test_verify_positive_explicitly_on_zero_monoid(files, capsys):
    code, _, err = run(capsys, ["verify", files["nt5"], files["nt_rep"],
                                "--which", "positive"])
    assert code == 2
    assert "zero element" in err


def test_verify_unfaithful_exit_two(files, capsys):
    code, _, err = run(capsys, ["verify", files["nt5"], files["unfaithful"],
                                "--which", "tensor"])
    assert code == 2
    assert "not faithful" in err


def test_verify_corrupted_radical_exit_one(files, capsys, monkeypatch):
    argv = ["verify", files["nt5"], files["nt_rep"], "--which", "tensor"]
    monkeypatch.setattr(algebra, "radical_basis",
                        lambda m, force=False: span_subspace(m.size, ()))
    code, out, _ = run(capsys, argv)
    assert code == 1
    assert "VIOLATED" in out and "witness" in out
    # the zero radical is injected by the tests only, not by a flag
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--corrupt-radical"])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("cap", ["1", "20"])
def test_verify_powers_cap_is_ignored(files, capsys, cap):
    argv = ["verify", files["t3"], files["natural"]]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    capped = run(capsys, argv + ["--powers-cap", cap])
    assert capped[:2] == (code, out)
    assert capped[2].startswith("warning: ") and capped[2].count("\n") == 1
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "--powers-cap" not in capsys.readouterr().out


def test_verify_symmetric_degree_refused(files, capsys, monkeypatch):
    """A symmetric degree past the budget exits 2 with one error line;
    --force lifts only the radical guard, not this one."""
    monkeypatch.setattr(algebra, "SIZE_GUARD", 5)
    code, out, err = run(capsys, ["verify", files["nt7"], files["nt_rep"],
                                  "--which", "symmetric", "--force"])
    assert (code, out) == (2, "")
    assert err.startswith("error: symmetric degree 3 refused") and err.count("\n") == 1


def test_verify_radical_refusal_names_force_flag(files, capsys, monkeypatch):
    """The radical's size guard tells a command-line user the flag that
    lifts it, and a library caller the keyword."""
    monkeypatch.setattr(algebra, "SIZE_GUARD", 5)
    code, out, err = run(capsys, ["verify", files["nt7"], files["nt_rep"],
                                  "--which", "tensor"])
    assert (code, out) == (2, "")
    assert err == (f"error: {files['nt7']}: monoid has 8 > 5 elements; refused by "
                   "the size guard (pass --force, or force=True from Python, to "
                   "override)\n")


REFUSAL = ("error: {}: monoid has {} > {} elements; refused by the size guard "
           "(pass --force, or force=True from Python, to override)\n")
GUARD_REFUSAL = ("error: {}: monoid has {} elements; refused by the size guard "
                 "(pass --force, or force=True from Python, to override)\n")


def refusing_builds(monkeypatch):
    """Make building N_t or any monoid table fail the test."""
    def build(*args, **kwargs):
        raise AssertionError("a monoid table was built")

    monkeypatch.setattr(monoids, "nt_monoid", build)
    monkeypatch.setattr(fileio, "nt_monoid", build)
    monkeypatch.setattr(monoids.Monoid, "__init__", build)


@pytest.mark.parametrize("args", [[], ["--which", "tensor"], ["--json"]])
def test_verify_refuses_oversized_nt_before_any_table(tmp_path, capsys, monkeypatch, args):
    """N_3000 has 3001 elements, known from the spec: verify refuses it
    with the radical guard's message and exit 2 before building a table
    (its Light test alone would run for minutes)."""
    refusing_builds(monkeypatch)
    monoid = write(tmp_path, "n3000.json", {"type": "nt", "t": 3000})
    code, out, err = run(capsys, ["verify", monoid, write(tmp_path, "rep.json",
                                                          {"mode": "nt-paper"}), *args])
    assert (code, out, err) == (2, "", REFUSAL.format(monoid, 3001, 300))


def test_verify_force_reaches_the_nt_builder(tmp_path, capsys, monkeypatch):
    """--force lifts the loader's guard, as the radical's: the spec goes
    on to the builder, stubbed here so that nothing that size is built."""
    built = []

    def build(t):
        built.append(t)
        raise ValueError("stub builder")

    monkeypatch.setattr(fileio, "nt_monoid", build)
    monoid = write(tmp_path, "n3000.json", {"type": "nt", "t": 3000})
    code, out, err = run(capsys, ["verify", monoid, "rep.json", "--force"])
    assert (code, out, err, built) == (2, "", f"error: {monoid}: stub builder\n", [3000])


@pytest.mark.parametrize("monoid, rep, size", [("nt7", "nt_rep", 8), ("t3", "natural", 27)])
def test_verify_size_refusal_is_one_line_from_loader_or_radical(
        files, capsys, monkeypatch, monoid, rep, size):
    """Both are refused by the loader, unbuilt, on one stderr line: an nt
    spec by its t + 1 elements, and a closure type (T_3 has 27) once its
    element search passes the guard, which then knows only that there are
    more.  The name is from when the radical refused the closure types,
    once built."""
    monkeypatch.setattr(algebra, "SIZE_GUARD", 5)
    refusing_builds(monkeypatch)
    code, out, err = run(capsys, ["verify", files[monoid], files[rep]])
    count = f"{size} > 5" if monoid == "nt7" else "more than 5"
    assert (code, out, err) == (2, "", GUARD_REFUSAL.format(files[monoid], count))


def test_verify_refuses_a_closure_type_past_the_guard_before_any_table(
        tmp_path, capsys, monkeypatch):
    """T_5 from three generators (3125 elements) is refused at the default
    guard once its element search finds element 301: no table, no Light
    test."""
    refusing_builds(monkeypatch)
    t5 = write(tmp_path, "t5.json", {"type": "transformations", "degree": 5,
                                     "generators": [[2, 3, 4, 5, 1], [2, 1, 3, 4, 5],
                                                    [1, 1, 3, 4, 5]]})
    code, out, err = run(capsys, ["verify", t5, write(tmp_path, "natural.json",
                                                      {"mode": "natural"})])
    assert (code, out, err) == (2, "", GUARD_REFUSAL.format(t5, "more than 300"))


def test_matrices_spec_is_refused_by_the_guard(tmp_path, capsys, monkeypatch):
    """A 7-cycle's permutation matrix generates 7 matrices: past a guard of
    5 it is refused by the guard, also where the file carries an old
    "cap" below the guard, which is ignored."""
    monkeypatch.setattr(algebra, "SIZE_GUARD", 5)
    refusing_builds(monkeypatch)
    cycle = [["1" if i == (j + 1) % 7 else "0" for j in range(7)] for i in range(7)]
    rep = write(tmp_path, "natural.json", {"mode": "natural"})
    spec = {"type": "matrices", "generators": [cycle]}
    for name, obj in ("c7.json", spec), ("c7-cap3.json", dict(spec, cap=3)):
        c7 = write(tmp_path, name, obj)
        code, out, err = run(capsys, ["verify", c7, rep])
        assert (code, out, err) == (2, "", GUARD_REFUSAL.format(c7, "more than 5"))


def test_verify_refuses_a_cayley_table_by_its_length(tmp_path, capsys, monkeypatch):
    """A cayley spec's table length is its size, refused before Monoid()."""
    monkeypatch.setattr(algebra, "SIZE_GUARD", 5)
    refusing_builds(monkeypatch)
    z7 = write(tmp_path, "z7.json", {"type": "cayley", "identity": 0,
                                     "table": [[(a + b) % 7 for b in range(7)]
                                               for a in range(7)]})
    code, out, err = run(capsys, ["verify", z7, write(tmp_path, "rep.json", {"mode": "natural"})])
    assert (code, out, err) == (2, "", GUARD_REFUSAL.format(z7, "7 > 5"))


def test_only_verify_without_force_guards_the_closure(files, capsys, monkeypatch):
    """--force, info, molien and an unguarded library load build T_3 past
    a guard of 5 as before."""
    monkeypatch.setattr(algebra, "SIZE_GUARD", 5)
    assert fileio.load_monoid(files["t3"], None).size == 27
    with pytest.raises(ValueError, match=rf"^{re.escape(files['t3'])}: monoid has "
                                         "more than 5 elements; refused"):
        fileio.load_monoid(files["t3"], algebra.size_guard)
    assert run(capsys, ["info", files["t3"], files["natural"]])[0] == 0
    assert run(capsys, ["molien", files["t3"], files["natural"], "--idempotent",
                        "[1,2,3]", "--weights", "[1,2,3]:1"])[0] == 0
    assert run(capsys, ["verify", files["t3"], files["natural"], "--force",
                        "--which", "steinberg"])[0] == 0


def test_nt_paper_file_builds_its_monoid_once(files, capsys, monkeypatch):
    """The nt-paper mode reads the loaded N_t's table against the closed
    form and puts the paper's matrices on it, with no second N_t."""
    built = []
    init = monoids.Monoid.__init__

    def recording(self, table, *args, **kwargs):
        built.append(len(table))
        init(self, table, *args, **kwargs)

    monkeypatch.setattr(monoids.Monoid, "__init__", recording)
    code, out, _ = run(capsys, ["verify", files["nt7"], files["nt_rep"]])
    assert code == 0 and out.endswith("overall: OK\n")
    assert built == [8]


def test_loader_guard_admits_the_guard_size(tmp_path, monkeypatch):
    """N_4 has 5 elements, at a guard of 5, and loads; N_5 is refused
    only when guarded."""
    monkeypatch.setattr(algebra, "SIZE_GUARD", 5)
    n4 = write(tmp_path, "n4.json", {"type": "nt", "t": 4})
    n5 = write(tmp_path, "n5.json", {"type": "nt", "t": 5})
    assert fileio.load_monoid(n4, algebra.size_guard).size == 5
    assert fileio.load_monoid(n5, None).size == 6
    with pytest.raises(ValueError,
                       match=rf"^{re.escape(n5)}: monoid has 6 > 5 elements; refused"):
        fileio.load_monoid(n5, algebra.size_guard)


# specs that `info` and `molien` refuse by their work guard, unbuilt:
# name -> (spec, what the refusal says of it)
T6 = {"type": "transformations", "degree": 6,
      "generators": [[2, 3, 4, 5, 6, 1], [2, 1, 3, 4, 5, 6], [1, 1, 3, 4, 5, 6]]}
OVERSIZED = {
    "t6-closure": (T6, "more than 5000 elements and up to 3 generators"),
    "n3000": ({"type": "nt", "t": 3000}, "3001 elements and up to 3000 generators"),
    # the length is read before any row, so the rows may be empty
    "cayley-465": ({"type": "cayley", "identity": 0, "table": [[]] * 465},
                   "465 elements and up to 465 generators"),
}


@pytest.mark.parametrize("command", ["info", "molien"])
@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_info_and_molien_refuse_an_oversized_spec_before_any_table(
        tmp_path, capsys, monkeypatch, command, name):
    """T_6 from three generators would build a 46656^2 table, and N_3000's
    Light test would run for minutes: both commands refuse such a spec
    with one error line that names no flag, and exit 2, before a closure
    builds a row or any Monoid is made."""
    def build(*args, **kwargs):
        raise AssertionError("a closure built its rows")

    refusing_builds(monkeypatch)
    monkeypatch.setattr(monoids, "_closure_rows", build)
    spec, count = OVERSIZED[name]
    monoid = write(tmp_path, f"{name}.json", spec)
    argv = [command, monoid, write(tmp_path, "rep.json", {"mode": "natural"})]
    if command == "molien":
        argv += ["--idempotent", "0", "--weights", "0:1"]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (
        2, "", f"error: {monoid}: monoid has {count}: |M|^2 (|A| + 1) is past "
               f"{fileio.WORK_GUARD}; refused by the size guard\n")


def test_work_guard_admits_t5_and_refuses_t6_by_arithmetic():
    """T_5 from three generators has 3125 elements, 3125^2 * 4 = 3.9e7
    lookups: under the bound, and the closure's cap for three generators
    is 5000.  T_6 (46656 elements) and N_3000 (3001 elements, 3000
    generators) are past it.  Nothing is built."""
    assert fileio.work_guard(3125, 3) == fileio.work_guard(0, 3) == 5000
    assert 3125 ** 2 * 4 <= fileio.WORK_GUARD < 46656 ** 2 * 4
    for n, gens in ((46656, 3), (3001, 3000), (None, 3)):
        with pytest.raises(ValueError, match="refused by the size guard$"):
            fileio.work_guard(n, gens)
    # the cap is the largest n with n^2 (gens + 1) within the bound
    for gens in (0, 1, 2, 3, 464, 3000, 10 ** 6):
        cap = fileio.work_guard(0, gens)
        assert cap ** 2 * (gens + 1) <= fileio.WORK_GUARD < (cap + 1) ** 2 * (gens + 1)
        assert fileio.work_guard(cap, gens) == cap
        with pytest.raises(ValueError):
            fileio.work_guard(cap + 1, gens)


def test_info_hands_t5_to_its_closure_under_the_work_guard(tmp_path, capsys, monkeypatch):
    """`info` on T_5 from three generators reaches the closure with the
    cap 5000, above T_5's 3125 elements; the stub stands in for the
    2.5 s build."""
    caps = []

    def closure(degree, gens, cap):
        caps.append(cap)
        raise ValueError("stub closure")

    monkeypatch.setattr(fileio, "from_transformations", closure)
    t5 = write(tmp_path, "t5.json", {"type": "transformations", "degree": 5,
                                     "generators": [[2, 3, 4, 5, 1], [2, 1, 3, 4, 5],
                                                    [1, 1, 3, 4, 5]]})
    code, out, err = run(capsys, ["info", t5])
    assert (code, out, err, caps) == (2, "", f"error: {t5}: stub closure\n", [5000])


# the trivial monoid on the zero-dimensional module: s = 1, so the
# symmetric bound dim*s - 1 is -1, below the first power 0
DIM_ZERO = ({"type": "cayley", "identity": 0, "table": [[0]]},
            {"dim": 0, "matrices": {"0": []}})


def _dim_zero_argv(tmp_path, which):
    return ["verify", write(tmp_path, "m.json", DIM_ZERO[0]),
            write(tmp_path, "rep.json", DIM_ZERO[1]), "--which", which]


@pytest.mark.parametrize("which", ["symmetric", "all"])
def test_verify_dimension_zero_symmetric_bound_exit_two(tmp_path, capsys, which):
    code, out, err = run(capsys, _dim_zero_argv(tmp_path, which))
    assert code == 2 and out == ""
    assert err == ("error: symmetric bound -1 is below the first power 0: "
                   "there is no power to check\n")


@pytest.mark.parametrize("which, expected", [
    ("tensor", "tensor: HOLDS r=1 bound=0 powers=0..0 dim_rad=0 dim_ann=0 minimal_k=0\n"),
    ("steinberg", "steinberg: HOLDS bound=0 powers=0..0 dim_rad=0 dim_ann=0\n"),
])
def test_verify_dimension_zero_other_bounds(tmp_path, capsys, which, expected):
    code, out, err = run(capsys, _dim_zero_argv(tmp_path, which))
    assert code == 0 and err == ""
    assert out == expected + "overall: OK\n"


# --- scan-nt -----------------------------------------------------------------------

def test_scan_nt_tensor(files, capsys):
    code, out, _ = run(capsys, ["scan-nt", "--from", "2", "--to", "8",
                                "--mode", "tensor", "--json"])
    assert code == 0
    payload = json.loads(out)
    rows = payload["rows"]
    assert [r["min_faithful"] for r in rows] == [1, 2, 3, 4, 5, 6, 7]
    assert all(r["min_covering"] <= 1 for r in rows)
    assert all(r["holds"] for r in rows)
    assert [r["dim_rad"] for r in rows] == [t - 1 for t in range(2, 9)]
    assert [r["dim_ann"] for r in rows] == [t - 2 for t in range(2, 9)]


def test_scan_nt_marks_dimension_threshold(capsys):
    code, out, _ = run(capsys, ["scan-nt", "--from", "8", "--to", "9", "--json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["note"] == ""
    assert "9 < |M| = 10" in rows[1]["note"]


def test_scan_nt_text_table(capsys):
    code, out, _ = run(capsys, ["scan-nt", "--from", "2", "--to", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:4] == ["t", "r", "dim_rad", "dim_ann"]
    assert "overall: OK" in out


def test_scan_nt_bad_range(capsys):
    code, _, err = run(capsys, ["scan-nt", "--from", "5", "--to", "2"])
    assert code == 2
    assert "bad range" in err


def test_scan_nt_symmetric_mode(capsys):
    code, out, _ = run(capsys, ["scan-nt", "--from", "2", "--to", "5",
                                "--mode", "symmetric", "--json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["min_faithful"] for r in rows] == [1, 2, 3, 4]
    assert all(r["holds"] for r in rows)


def test_scan_nt_failed_check_has_no_min_covering(monkeypatch, capsys):
    # only a broken radical can fail the check: the zero subspace makes
    # covering the same as faithfulness, first reached at step t-1 = 4
    monkeypatch.setattr(algebra, "radical_basis", lambda m: span_subspace(m.size, ()))
    code, out, _ = run(capsys, ["scan-nt", "--from", "5", "--to", "5",
                                "--cap", "6", "--json"])
    assert code == 1
    row = json.loads(out)["rows"][0]
    assert row["holds"] is False and row["bound"] == 1
    assert row["min_covering"] is None and row["min_faithful"] == 4


def _two_walk_row(t, mode, cap):
    """A scan-nt row as two walks of the chain: the verifier's to the
    bound, then the faithfulness scan's from 0 to max(bound, cap)."""
    rho = nt_paper_representation(t)
    verify = {"tensor": verify_tensor_theorem, "symmetric": verify_symmetric_theorem}[mode]
    rep = verify(rho, radical=radical_basis(rho.monoid))
    return {
        "t": t,
        "r": len(distinct_character_values(rho)),
        "s": len(distinct_charpolys(rho)),
        "bound": rep.bound,
        "dim_rad": rep.dim_rad,
        "dim_ann": rep.dim_ann,
        "holds": rep.holds,
        "min_covering": rep.minimal_k,
        "min_faithful": minimal_faithful_power(rho, mode, max(rep.bound, cap)),
    }


@pytest.mark.parametrize("cap", [1, 3, 12, 32])
@pytest.mark.parametrize("mode", ["tensor", "symmetric"])
def test_scan_nt_one_walk_matches_two(capsys, mode, cap):
    code, out, _ = run(capsys, ["scan-nt", "--from", "2", "--to", "14", "--mode", mode,
                                "--cap", str(cap), "--json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [{key: row[key] for key in _two_walk_row(2, mode, cap)} for row in rows] == [
        _two_walk_row(t, mode, cap) for t in range(2, 15)]


@pytest.mark.parametrize("cap", ["-1", "-7"])
def test_scan_nt_negative_cap_exit_two(capsys, cap):
    code, out, err = run(capsys, ["scan-nt", "--from", "2", "--to", "3", "--cap", cap])
    assert code == 2 and out == ""
    assert err == f"error: bad cap: {cap} (must be nonnegative)\n"


@pytest.mark.parametrize("guard, t_to", [(300, 1500), (5, 5)])
def test_scan_nt_oversized_range_refused_up_front(monkeypatch, capsys, guard, t_to):
    """N_t has t+1 elements; a range reaching past the radical's size guard
    is refused before any N_t is built (building N_1500 alone takes over
    a minute)."""
    built = []
    monkeypatch.setattr(algebra, "SIZE_GUARD", guard)
    monkeypatch.setattr(representations, "nt_monoid", built.append)
    code, out, err = run(capsys, ["scan-nt", "--from", "2", "--to", str(t_to)])
    assert (code, out, built) == (2, "", [])
    assert err == (f"error: N_{t_to} has {t_to + 1} > {guard} elements; "
                   "refused by the size guard\n")


def test_scan_nt_range_at_size_guard_runs(monkeypatch, capsys):
    monkeypatch.setattr(algebra, "SIZE_GUARD", 5)
    code, out, _ = run(capsys, ["scan-nt", "--from", "2", "--to", "4"])
    assert code == 0 and "overall: OK" in out


@pytest.mark.parametrize("mode, expected", [
    ("tensor", [(1, 1), (1, None)]),
    ("symmetric", [(3, 1), (3, 2)]),
])
def test_scan_nt_cap_below_bound_probes_to_bound(capsys, mode, expected):
    """--cap only raises the probe: min_faithful is searched up to
    max(cap, bound), so cap 0 still finds N_2's faithful power 1 (and
    N_3's 2 below the symmetric bound 3), and the help says so."""
    code, out, _ = run(capsys, ["scan-nt", "--from", "2", "--to", "3", "--mode", mode,
                                "--cap", "0", "--json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["bound"], r["min_faithful"]) for r in rows] == expected
    with pytest.raises(SystemExit):
        main(["scan-nt", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "probed up to power max(CAP, bound)" in help_text
    assert "must be nonnegative" in help_text


# --- scan-nt and verify in one process ---------------------------------------------

SCAN_CASES = sorted(name for name in CASES if name.startswith("scan-nt"))
VERIFY_CASES = sorted(name for name in CASES if name.startswith("verify-"))


def golden(name):
    return CASES[name][1], (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", SCAN_CASES)
def test_scan_nt_golden_serial_and_split(name, monkeypatch, capsys):
    """Every golden scan prints its golden stdout with its exit code, and
    nothing on stderr, from this process alone.  The name is from when a
    forked child computed every other row."""
    refusing_forks(monkeypatch)
    assert run_case(name) == golden(name)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", VERIFY_CASES)
def test_verify_golden_forked_and_in_one_process(name, monkeypatch, capsys):
    """Every golden verify, the zero-radical ``*-corrupt*`` ones with
    their exit-1 witnesses among them, prints its golden stdout with its
    exit code, and nothing on stderr, from this process alone.  The name
    is from when two free CPUs forked a child for the radical."""
    refusing_forks(monkeypatch)
    assert run_case(name) == golden(name)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("failing", [{5}, {4}, {4, 5}, {3, 6}, {7}])
def test_scan_nt_error_in_either_share_is_the_serial_error(failing, monkeypatch, capsys):
    """Rows are computed in order, so a row that raises gives the first
    failing t's error line and exit 2, with no stdout and no row past it
    computed.  The name is from when a forked child computed the rows at
    odd positions of 2..7 (t = 3, 5, 7)."""
    scan_row, computed = cli._scan_row, []

    def failing_row(t, *args):
        computed.append(t)
        if t in failing:
            raise ValueError(f"row {t} failed")
        return scan_row(t, *args)

    monkeypatch.setattr(cli, "_scan_row", failing_row)
    refusing_forks(monkeypatch)
    argv = ["scan-nt", "--from", "2", "--to", "7"]
    assert run(capsys, argv) == (2, "", f"error: row {min(failing)} failed\n")
    assert computed == list(range(2, min(failing) + 1))


@pytest.mark.parametrize("t_stop", [3, 4])
def test_scan_nt_interrupt_leaves_no_child(t_stop, monkeypatch, capsys):
    """A KeyboardInterrupt in a row reaches the caller, with no stdout.
    The name is from when a forked child was reaped first."""
    scan_row = cli._scan_row

    def interrupted(t, *args):
        if t == t_stop:
            raise KeyboardInterrupt
        return scan_row(t, *args)

    monkeypatch.setattr(cli, "_scan_row", interrupted)
    refusing_forks(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        main(["scan-nt", "--from", "2", "--to", "7"])
    assert capsys.readouterr().out == ""


def test_verify_size_guard_refuses_before_any_fork_or_chain_step(files, capsys, monkeypatch):
    """The radical's size guard refuses, exit 2, before any chain step,
    and no child is forked."""
    def refuse(rho):
        raise AssertionError("a chain was opened")

    monkeypatch.setattr(algebra, "SIZE_GUARD", 5)
    monkeypatch.setattr(algebra, "tensor_annihilator_chain", refuse)
    refusing_forks(monkeypatch)
    code, out, err = run(capsys, ["verify", files["nt7"], files["nt_rep"],
                                  "--which", "tensor"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {files['nt7']}: monoid has 8 > 5 elements")


@pytest.mark.parametrize("failure", ["degree", "radical"])
def test_verify_failure_on_either_side_is_the_serial_error(failure, files, capsys,
                                                          monkeypatch):
    """A symmetric degree refused once the radical is computed, or a
    radical that raises, gives exit 2 and one error line, with no stdout
    and no child forked."""
    if failure == "degree":  # --force lifts the radical's guard only
        monkeypatch.setattr(algebra, "SIZE_GUARD", 5)
        argv = ["verify", files["nt7"], files["nt_rep"], "--which", "symmetric", "--force"]
        message = "error: symmetric degree 3 refused"
    else:
        def failing(m, force=False):
            raise ValueError("no radical")

        monkeypatch.setattr(algebra, "radical_basis", failing)
        argv = ["verify", files["nt7"], files["nt_rep"], "--which", "tensor"]
        message = "error: no radical\n"
    refusing_forks(monkeypatch)
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "") and err.startswith(message) and err.count("\n") == 1


# --- molien -------------------------------------------------------------------------

def test_molien_identity_weight(files, capsys):
    code, out, _ = run(capsys, ["molien", files["nt5"], files["nt_rep"],
                                "--idempotent", "1", "--weights", "1:1", "-N", "4"])
    assert code == 0
    assert "g(t) = (1) / (t^2 - 2t + 1)" in out
    assert "series: 1, 2, 3, 4, 5" in out


def test_molien_two_terms(files, capsys):
    code, out, _ = run(capsys, ["molien", files["nt5"], files["nt_rep"],
                                "--idempotent", "1", "--weights", "1:1,2:1",
                                "-N", "2"])
    assert code == 0
    assert "series: 2, 2, 3" in out


def test_molien_json(files, capsys):
    code, out, _ = run(capsys, ["molien", files["nt5"], files["nt_rep"],
                                "--idempotent", "1", "--weights", "1:1,2:1",
                                "-N", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["num"] == ["2", "-2", "1"]
    assert payload["den"] == ["1", "-2", "1"]
    assert payload["series"] == ["2", "2", "3"]
    assert json.dumps(payload, indent=2, sort_keys=True) == out.strip()


def test_molien_support_violation(files, capsys):
    code, _, err = run(capsys, ["molien", files["nt5"], files["nt_rep"],
                                "--idempotent", "0", "--weights", "2:1"])
    assert code == 2
    assert "outside eMe" in err


def test_molien_non_idempotent_named_by_label(capsys):
    inputs = Path(__file__).parent / "golden" / "inputs"
    code, out, err = run(capsys, ["molien", str(inputs / "t3.json"),
                                  str(inputs / "natural.json"),
                                  "--idempotent", "[2,3,1]", "--weights", "[2,3,1]:1",
                                  "-N", "3"])
    assert code == 2 and out == ""
    assert err == "error: element '[2,3,1]' is not an idempotent\n"


def test_molien_support_outside_a_proper_local_monoid(capsys):
    """e = [1,1,3] has rank 2; [1,2,3] lies outside eMe and is named."""
    inputs = Path(__file__).parent / "golden" / "inputs"
    code, out, err = run(capsys, ["molien", str(inputs / "t3.json"),
                                  str(inputs / "natural.json"),
                                  "--idempotent", "[1,1,3]", "--weights", "[1,2,3]:1"])
    assert code == 2 and out == ""
    assert err == ("error: weights supported outside eMe: element '[1,2,3]' "
                   "has a nonzero coefficient\n")


def test_molien_bad_rational_weight(files, capsys):
    """A weight's value is read by the same parser as the input files."""
    code, out, err = run(capsys, ["molien", files["nt5"], files["nt_rep"],
                                  "--idempotent", "1", "--weights", "1:1/0"])
    assert code == 2 and out == ""
    assert err == "error: bad rational '1/0': zero denominator\n"


def test_parse_weights_with_bracketed_labels():
    m = from_transformations(2, [(2, 1), (1, 1)])
    w = parse_weights("[1,2]:1/2,[2,1]:-3", m)
    assert w[0] == 0.5 and w[1] == -3
    with pytest.raises(ValueError, match="no element labelled"):
        parse_weights("[9,9]:1", m)
    with pytest.raises(ValueError, match="bad rational"):
        parse_weights("[1,2]:x", m)


# --- determinism -----------------------------------------------------------------------

def test_outputs_are_deterministic(files, capsys):
    args = ["verify", files["nt5"], files["nt_rep"], "--json"]
    _, first, _ = run(capsys, args)
    _, second, _ = run(capsys, args)
    assert first == second
