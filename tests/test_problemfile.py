"""Problem-file parsing, validation errors, and lossless export."""

import json

import numpy as np
import pytest

import nilmetric as nm
from nilmetric.problemfile import bracket_records, jsonable


def minimal_problem():
    return {
        "format": 1,
        "dim": 3,
        "bracket": [{"i": 1, "j": 2, "k": 3, "coeff": 1.0}],
    }


def test_parse_minimal_problem():
    prob = nm.parse_problem(minimal_problem())
    assert prob.dim == 3
    assert prob.structure.tag == "none"
    assert np.array_equal(prob.metric.matrix, np.eye(3))
    assert prob.tensor.full()[0, 1, 2] == 1.0
    assert prob.options == {}


def test_parse_defaults_tolerate_missing_bracket():
    prob = nm.parse_problem({"format": 1, "dim": 4})
    assert prob.tensor.norm2() == 0.0


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.update(format=2), "unsupported format"),
    (lambda d: d.pop("dim"), "missing field 'dim'"),
    (lambda d: d.update(dim=0), "'dim' must be a positive integer"),
    (lambda d: d.update(dim=2.5), "'dim' must be a positive integer"),
    (lambda d: d.update(bracket="x"), "'bracket' must be a list"),
    (lambda d: d["bracket"].append({"j": 2, "k": 3, "coeff": 1.0}),
     "record 1: missing index 'i'"),
    (lambda d: d["bracket"].append({"i": 1, "j": 2, "k": 4, "coeff": 1.0}),
     "out of range"),
    (lambda d: d["bracket"].append({"i": 2, "j": 1, "k": 3, "coeff": 1.0}),
     "requires i < j"),
    (lambda d: d["bracket"].append({"i": 1, "j": 2, "k": 3, "coeff": "x"}),
     "'coeff' must be a real number"),
    (lambda d: d["bracket"].append(
        {"i": 1, "j": 2, "k": 3, "coeff": float("nan")}),
     "'coeff' must be finite"),
    (lambda d: d.update(structure={"class": "kaehler"}),
     "structure class 'kaehler' unknown"),
    (lambda d: d.update(metric=[[1, 0], [0, 1]]), "expected shape 3x3"),
    (lambda d: d.update(metric=np.diag([1.0, 1.0, -1.0]).tolist()),
     "metric"),
    (lambda d: d.update(options={"tol": -1.0}), "must be positive"),
    (lambda d: d.update(options={"tol": "x"}), "must be a real number"),
])
def test_parse_errors_name_the_field(mutate, fragment):
    data = minimal_problem()
    mutate(data)
    with pytest.raises(nm.ParseError, match=fragment):
        nm.parse_problem(data)


def test_parse_standard_structure_payload():
    data = {
        "format": 1,
        "dim": 6,
        "bracket": bracket_records(nm.m26_point(1.0, 0.0).tensor),
        "structure": {"class": "symplectic", "payload": "standard"},
    }
    prob = nm.parse_problem(data)
    assert prob.structure.tag == "symplectic"
    std = nm.standard_structure("symplectic", 6)
    assert np.array_equal(prob.structure.payload, std.payload)


def test_parse_explicit_structure_payload():
    J = np.kron(np.eye(3), np.array([[0.0, -1.0], [1.0, 0.0]]))
    data = {"format": 1, "dim": 6, "bracket": [],
            "structure": {"class": "complex", "payload": J.tolist()}}
    prob = nm.parse_problem(data)
    assert np.array_equal(prob.structure.payload, J)


def test_parse_rejects_invalid_structure_payload():
    data = {"format": 1, "dim": 6, "bracket": [],
            "structure": {"class": "complex",
                          "payload": np.eye(6).tolist()}}
    with pytest.raises(nm.ParseError):
        nm.parse_problem(data)


def test_load_problem_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 3,\n  "bracket": [}')
    with pytest.raises(nm.ParseError, match="line 2"):
        nm.load_problem(str(path))


def test_load_problem_missing_file(tmp_path):
    with pytest.raises(nm.ParseError):
        nm.load_problem(str(tmp_path / "absent.json"))


def test_round_trip_bit_exact(tmp_path):
    p = nm.m26_point(0.0, 1.0)
    data = nm.export_problem(p.tensor, p.structure, p.metric,
                             options={"tol": 1e-9})
    path = tmp_path / "m26.json"
    path.write_text(json.dumps(data))
    prob = nm.load_problem(str(path))
    assert np.array_equal(prob.tensor.coeffs, p.tensor.coeffs)
    assert np.array_equal(prob.structure.payload, p.structure.payload)
    assert prob.options == {"tol": 1e-9}
    again = nm.export_problem(prob.tensor, prob.structure, prob.metric,
                              options=prob.options)
    assert json.dumps(again, sort_keys=True) == json.dumps(
        data, sort_keys=True)


def test_export_omits_identity_metric():
    p = nm.heisenberg()
    data = nm.export_problem(p.tensor, p.structure, p.metric)
    assert "metric" not in data
    assert data["structure"] == {"class": "none"}
    assert data["format"] == 1
    data2 = nm.export_problem(p.tensor, p.structure,
                              nm.Metric(np.diag([1.0, 1.0, 2.0])))
    assert data2["metric"] == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                               [0.0, 0.0, 2.0]]


def test_export_hypercomplex_payload_round_trip():
    p = nm.hc_g3_point()
    data = nm.export_problem(p.tensor, p.structure)
    assert data["structure"]["class"] == "hypercomplex"
    assert len(data["structure"]["payload"]) == 3
    prob = nm.parse_problem(data)
    for got, want in zip(prob.structure.maps(), p.structure.maps()):
        assert np.array_equal(got, want)


def test_point_to_problem_matches_export():
    p = nm.complex_curve(1.5)
    assert nm.point_to_problem(p) == nm.export_problem(
        p.tensor, p.structure, p.metric)


def test_bracket_records_are_one_based_ordered():
    recs = bracket_records(nm.m26_point(1.0, 0.0).tensor)
    for rec in recs:
        assert 1 <= rec["i"] < rec["j"] <= 6
        assert 1 <= rec["k"] <= 6
        assert rec["coeff"] != 0.0


def test_jsonable_handles_numpy_scalars_and_nested():
    out = jsonable({"a": np.float64(0.1), "b": np.int32(3),
                    "c": [np.arange(2.0)], "d": (1, 2)})
    assert out == {"a": 0.1, "b": 3, "c": [[0.0, 1.0]], "d": [1, 2]}
    assert json.dumps(out)


def test_jsonable_rejects_unknown_objects():
    with pytest.raises(TypeError, match="object"):
        jsonable({"a": [object()]})
