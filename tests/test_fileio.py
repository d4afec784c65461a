import json
from fractions import Fraction

import pytest

from monoidrep.fileio import (
    format_rational,
    load_monoid,
    load_representation,
    monoid_from_spec,
    parse_rational,
    representation_from_spec,
)
from monoidrep.linalg import Matrix
from monoidrep.monoids import nt_monoid
from monoidrep.representations import character, natural_representation


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


# --- rationals ------------------------------------------------------------

def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(5) == Fraction(5)


def test_parse_rational_errors():
    with pytest.raises(ValueError, match="bad rational"):
        parse_rational("x")
    with pytest.raises(ValueError, match="^bad rational '1/0': zero denominator$"):
        parse_rational("1/0")
    with pytest.raises(ValueError, match="bad rational"):
        parse_rational(1.5)
    for b in (True, False):
        with pytest.raises(ValueError, match="boolean"):
            parse_rational(b)


def test_format_round_trip():
    for s in ("3/4", "-7", "0", "22/7"):
        assert format_rational(parse_rational(s)) == s


# --- monoid specs ------------------------------------------------------------

def test_cayley_spec():
    m = monoid_from_spec({"type": "cayley", "identity": 0, "table": [[0, 1], [1, 0]]})
    assert m.size == 2 and m.identity == 0


def test_transformations_spec():
    m = monoid_from_spec({"type": "transformations", "degree": 3,
                          "generators": [[2, 3, 1], [2, 1, 3]]})
    assert m.size == 6
    assert m.labels[1] == "[2,3,1]"


def test_nt_spec():
    m = monoid_from_spec({"type": "nt", "t": 5})
    assert m == nt_monoid(5)


def test_matrices_spec():
    m = monoid_from_spec({"type": "matrices", "dim": 2, "cap": 10000,
                          "generators": [[["0", "1"], ["1", "0"]]]})
    assert m.size == 2 and m.labels == ("g0", "g1")
    assert m.matrix_elements[1] == Matrix([[0, 1], [1, 0]])


def test_matrices_spec_cap_counts_every_element():
    spec = {"type": "matrices", "cap": 1, "generators": [[["0", "1"], ["1", "0"]]]}
    with pytest.raises(ValueError, match="cap exceeded: more than 1 distinct elements"):
        monoid_from_spec(spec)


@pytest.mark.parametrize("labels", [5, True, 1.5, "ab", {"e": 0}])
def test_cayley_labels_must_be_an_array(labels):
    with pytest.raises(ValueError, match="field 'labels' must be an array"):
        monoid_from_spec({"type": "cayley", "identity": 0,
                          "table": [[0, 1], [1, 0]], "labels": labels})


def test_cayley_labels_must_not_repeat():
    with pytest.raises(ValueError, match="label 'e' is repeated"):
        monoid_from_spec({"type": "cayley", "identity": 0,
                          "table": [[0, 1], [1, 0]], "labels": ["e", "e"]})


def test_unknown_type_rejected():
    with pytest.raises(ValueError, match="unknown monoid type"):
        monoid_from_spec({"type": "group"})
    with pytest.raises(ValueError, match="missing field"):
        monoid_from_spec({"identity": 0})


def test_load_monoid_reports_path_and_json_errors(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"type": "nt", "t": }', encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_monoid(str(p), None)
    q = write(tmp_path, "bad.json", {"type": "nt"})
    with pytest.raises(ValueError, match="bad.json"):
        load_monoid(q, None)


# --- representation specs ---------------------------------------------------------

def test_natural_mode(tmp_path):
    mp = write(tmp_path, "t2.json", {"type": "transformations", "degree": 2,
                                     "generators": [[2, 1], [1, 1]]})
    rp = write(tmp_path, "rep.json", {"mode": "natural"})
    m = load_monoid(mp, None)
    rho = load_representation(rp, m)
    assert character(rho) == character(natural_representation(m))


def test_nt_paper_mode(tmp_path):
    m = load_monoid(write(tmp_path, "n4.json", {"type": "nt", "t": 4}), None)
    rho = load_representation(write(tmp_path, "rep.json", {"mode": "nt-paper"}), m)
    assert rho.dim == 2 and rho.matrices[3] == Matrix([[0, 3], [0, 0]])


def test_nt_paper_mode_needs_nt_monoid(tmp_path):
    """A monoid that is not N_t is told so, also when it is too small for
    N_t with t >= 2; N_1 is told its t is too small."""
    rep = write(tmp_path, "rep.json", {"mode": "nt-paper"})
    for spec, message in [
        ({"type": "cayley", "identity": 0, "table": [[0, 1], [1, 0]]},
         'mode "nt-paper" needs a monoid of type "nt"'),
        ({"type": "cayley", "identity": 0, "table": [[0]]},
         'mode "nt-paper" needs a monoid of type "nt"'),
        ({"type": "nt", "t": 1}, "t must be at least 2"),
    ]:
        with pytest.raises(ValueError) as info:
            load_representation(rep, monoid_from_spec(spec))
        assert str(info.value) == f"{rep}: {message}"


def test_explicit_matrices_by_label():
    m = monoid_from_spec({"type": "nt", "t": 2})
    spec = {"dim": 1, "matrices": {"0": [["0"]], "1": [["1"]], "2": [["0"]]}}
    rho = representation_from_spec(spec, m)
    assert rho.dim == 1
    assert rho.matrices[2] == Matrix([[0]])


def test_explicit_matrices_errors():
    m = monoid_from_spec({"type": "nt", "t": 2})
    with pytest.raises(ValueError, match="no matrix for element '2'"):
        representation_from_spec({"dim": 1, "matrices": {"0": [["0"]], "1": [["1"]]}}, m)
    with pytest.raises(ValueError, match="unknown labels"):
        representation_from_spec(
            {"dim": 1, "matrices": {"0": [["0"]], "1": [["1"]], "2": [["0"]],
                                    "9": [["1"]]}}, m)
    with pytest.raises(ValueError, match="not 2x2"):
        representation_from_spec(
            {"dim": 2, "matrices": {"0": [["0"]], "1": [["1"]], "2": [["0"]]}}, m)


def test_embedded_monoid_reference(tmp_path):
    write(tmp_path, "n3.json", {"type": "nt", "t": 3})
    rp = write(tmp_path, "rep.json", {"monoid": "n3.json", "mode": "nt-paper"})
    rho = load_representation(rp)
    assert rho.monoid.size == 4


def test_truncated_embedded_monoid_named_once(tmp_path):
    (tmp_path / "n3.json").write_text('{"type": "nt", "t": ', encoding="utf-8")
    rp = write(tmp_path, "rep.json", {"monoid": "n3.json", "mode": "nt-paper"})
    with pytest.raises(ValueError) as info:
        load_representation(rp)
    n3 = str(tmp_path / "n3.json")
    assert str(info.value) == f"{rp}: {n3}: invalid JSON at line 1, column 21"


def test_inline_monoid_object():
    spec = {"monoid": {"type": "nt", "t": 2}, "mode": "nt-paper"}
    rho = representation_from_spec(spec)
    assert rho.monoid.size == 3


def test_mode_unknown():
    m = monoid_from_spec({"type": "nt", "t": 2})
    with pytest.raises(ValueError, match="unknown representation mode"):
        representation_from_spec({"mode": "adjoint"}, m)
