"""Code-file round trips, schema validation, and the CLI surface."""

import json

import pytest

from qckit import cli, serialize
from qckit.cyclic import cyclic_make
from qckit.errors import FormatError
from qckit.galois import field_from_q
from qckit.linear_code import code_from_rows
from qckit.polynomial import Poly
from qckit.quasi_cyclic import qc_make


F2 = field_from_q(2)
F4 = field_from_q(4)


def roundtrip(code, **kw):
    return serialize.code_from_json(serialize.code_to_json(code, **kw))


def test_linear_roundtrip_prime_field():
    code = code_from_rows(F2, [(1, 1, 0), (0, 1, 1)])
    back = roundtrip(code)
    assert back.code == code
    assert back.cyclic is None and back.qc is None


def test_linear_roundtrip_extension_field():
    a = F4.element_from_coeffs([0, 1])
    code = code_from_rows(F4, [(F4.one, a)])
    back = roundtrip(code)
    assert back.code == code


def test_cyclic_roundtrip():
    code = cyclic_make(F2, 7, Poly(F2, [1, 1, 0, 1]))
    back = roundtrip(code.to_linear(), cyclic=code)
    assert back.cyclic is not None
    assert back.cyclic.g == code.g


def test_qc_roundtrip():
    qc = qc_make(F2, 2, 3, [(1, 1, 1, 1, 1, 1)])
    back = roundtrip(qc.code, qc=qc)
    assert back.qc is not None
    assert (back.qc.l, back.qc.m) == (2, 3)
    assert back.qc.code == qc.code


def test_dump_and_load(tmp_path):
    qc = qc_make(F2, 2, 3, [(1, 1, 1, 1, 1, 1)])
    path = tmp_path / "code.json"
    serialize.dump_code(qc.code, path, qc=qc)
    back = serialize.load_code(path)
    assert back.qc.code == qc.code


def test_unknown_keys_rejected():
    obj = serialize.code_to_json(code_from_rows(F2, [(1, 1)]))
    obj["extra"] = True
    with pytest.raises(FormatError):
        serialize.code_from_json(obj)
    obj2 = serialize.code_to_json(code_from_rows(F2, [(1, 1)]))
    obj2["field"]["surprise"] = 1
    with pytest.raises(FormatError):
        serialize.code_from_json(obj2)


def test_bad_format_version_rejected():
    obj = serialize.code_to_json(code_from_rows(F2, [(1, 1)]))
    obj["format_version"] = "qckit-2"
    with pytest.raises(FormatError):
        serialize.code_from_json(obj)


def test_noncanonical_modulus_rejected():
    a = F4.element_from_coeffs([0, 1])
    obj = serialize.code_to_json(code_from_rows(F4, [(F4.one, a)]))
    obj["field"]["modulus"] = [1, 0, 1]  # reducible, not the canonical choice
    with pytest.raises(FormatError):
        serialize.code_from_json(obj)


def test_modulus_forbidden_for_prime_field():
    obj = serialize.code_to_json(code_from_rows(F2, [(1, 1)]))
    obj["field"]["modulus"] = [1, 1]
    with pytest.raises(FormatError):
        serialize.code_from_json(obj)


def test_cyclic_block_must_span_the_code():
    code = cyclic_make(F2, 7, Poly(F2, [1, 1, 0, 1]))
    obj = serialize.code_to_json(code.to_linear(), cyclic=code)
    obj["cyclic"]["g"] = [[1], [1]]  # x + 1 spans a different code
    with pytest.raises(FormatError):
        serialize.code_from_json(obj)


def test_qc_block_shape_must_match():
    qc = qc_make(F2, 2, 3, [(1, 1, 1, 1, 1, 1)])
    obj = serialize.code_to_json(qc.code, qc=qc)
    obj["qc"] = {"l": 3, "m": 3}
    with pytest.raises(FormatError):
        serialize.code_from_json(obj)


def test_malformed_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        serialize.load_code(path)


# -- CLI --------------------------------------------------------------------


def run_cli(args):
    return cli.main(list(args))


def test_cli_factor(capsys):
    assert run_cli(["factor", "--q", "2", "--m", "7", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["s"] == 1 and out["t"] == 1 and out["r"] == 3


def test_cli_selfdual_exit_codes(tmp_path, capsys):
    assert run_cli([
        "construct", "selfdual-qc", "--q", "5", "--l", "2", "--m", "1",
        "-o", str(tmp_path / "sd.json"),
    ]) == 0
    capsys.readouterr()
    assert run_cli(["selfdual", str(tmp_path / "sd.json")]) == 0
    capsys.readouterr()
    qc = qc_make(F2, 2, 3, [(1, 1, 1, 1, 1, 1)])
    serialize.dump_code(qc.code, tmp_path / "rep.json", qc=qc)
    assert run_cli(["selfdual", str(tmp_path / "rep.json")]) == 1


def test_cli_isodual(tmp_path, capsys):
    f5 = field_from_q(5)
    qc = qc_make(f5, 2, 1, [(1, 2)])
    serialize.dump_code(qc.code, tmp_path / "c.json", qc=qc)
    assert run_cli(["isodual", str(tmp_path / "c.json"), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"] == "isodual"


def test_cli_dual_writes_file(tmp_path, capsys):
    qc = qc_make(F2, 2, 3, [(1, 1, 1, 1, 1, 1)])
    serialize.dump_code(qc.code, tmp_path / "c.json", qc=qc)
    assert run_cli([
        "dual", str(tmp_path / "c.json"), "-o", str(tmp_path / "d.json")
    ]) == 0
    dual = serialize.load_code(tmp_path / "d.json")
    assert dual.code.k == 5
    assert dual.qc is not None


def test_cli_equiv_cyclic(tmp_path, capsys):
    a = cyclic_make(F2, 7, Poly(F2, [1, 1, 0, 1]))
    b = cyclic_make(F2, 7, Poly(F2, [1, 0, 1, 1]))
    serialize.dump_code(a.to_linear(), tmp_path / "a.json", cyclic=a)
    serialize.dump_code(b.to_linear(), tmp_path / "b.json", cyclic=b)
    assert run_cli([
        "equiv", "cyclic", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
        "--json",
    ]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["multiplier"] == 3


def test_cli_equiv_linear_negative_exit_1(tmp_path, capsys):
    a = code_from_rows(F2, [(1, 1, 0, 0)])
    b = code_from_rows(F2, [(1, 1, 1, 0)])
    serialize.dump_code(a, tmp_path / "a.json")
    serialize.dump_code(b, tmp_path / "b.json")
    assert run_cli([
        "equiv", "linear", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
    ]) == 1


def test_cli_errors_are_structured_exit_2(capsys):
    assert run_cli(["isodual", "/nonexistent/file.json"]) == 2
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert "error" in payload and "message" in payload["error"]
    assert "Traceback" not in out


def test_cli_precondition_violation_exit_2(tmp_path, capsys):
    code = code_from_rows(F2, [(1, 1, 0)])
    serialize.dump_code(code, tmp_path / "plain.json")
    assert run_cli(["decompose", str(tmp_path / "plain.json")]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "QCKitError"


def test_cli_construct_isodual_cyclic(tmp_path, capsys):
    assert run_cli([
        "construct", "isodual-cyclic", "--q", "3", "--s", "5",
        "--variant", "A", "-o", str(tmp_path / "iso.json"),
    ]) == 0
    saved = json.loads((tmp_path / "iso.json").read_text())
    assert saved["witness"] is not None
    del saved["witness"]
    back = serialize.code_from_json(saved)
    assert back.cyclic is not None and back.code.k == 5


def test_cli_enumerate(tmp_path, capsys):
    f2 = field_from_q(2)
    qc = qc_make(f2, 3, 1, [(1, 1, 1)])
    serialize.dump_code(qc.code, tmp_path / "c.json", qc=qc)
    assert run_cli(["enumerate", str(tmp_path / "c.json"), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["p"] == 3 and out["tuples_counted"] == 3 ** out["r"]


# -- report format: factors and constituent elements as coefficient arrays --


def _closed_qc(field, l, m, vectors):
    n = l * m
    rows = [tuple(v[(i - s * l) % n] for i in range(n)) for v in vectors for s in range(m)]
    return qc_make(field, l, m, rows)


def _cli_json(tmp_path, capsys, qc, *args):
    serialize.dump_code(qc.code, tmp_path / "c.json", qc=qc)
    code = run_cli([args[0], str(tmp_path / "c.json"), *args[1:], "--json"])
    return code, json.loads(capsys.readouterr().out)


def test_cli_reports_over_gf2_use_coefficient_arrays(tmp_path, capsys):
    qc = _closed_qc(F2, 2, 3, [(1, 1, 1, 1, 1, 1)])
    assert _cli_json(tmp_path, capsys, qc, "selfdual") == (1, {
        "selfdual": False,
        "components": [
            {"factor": [[1], [1]], "kind": "self-reciprocal", "hermitian_selfdual": True},
            {"factor": [[1], [1], [1]], "kind": "self-reciprocal",
             "hermitian_selfdual": False},
        ],
    })
    code, out = _cli_json(tmp_path, capsys, qc, "decompose")
    assert code == 0
    assert [c["generators"] for c in out["constituents"]] == [[[[[1]], [[1]]]], []]
    qc = _closed_qc(F2, 2, 7, [(1, 0, 1, 1, 0, 0, 0, 1, 0, 0, 1, 0, 1, 1)])
    code, out = _cli_json(tmp_path, capsys, qc, "isodual")
    assert code == 0 and out["result"] == "isodual"
    assert out["component_report"] == [
        {"factor": [[1], [1]], "kind": "self-reciprocal", "witness": [[1, 0], [[[1]], [[1]]]]},
        {"factor": [[1], [0], [1], [1]], "kind": "pair",
         "witness": [[0, 1], [[[1], [0], [0]], [[0], [1], [0]]]]},
        {"factor": [[1], [1], [0], [1]], "kind": "pair",
         "witness": [[0, 1], [[[1], [0], [0]], [[1], [0], [1]]]]},
    ]


def test_cli_reports_over_gf4_use_coefficient_arrays(tmp_path, capsys):
    e = F4.element_from_coeffs
    vectors = [
        [e(c) for c in row] for row in [
            ((1, 0), (0, 0), (0, 0), (0, 1), (1, 1), (0, 1)),
            ((0, 0), (1, 0), (0, 0), (0, 1), (0, 0), (1, 1)),
            ((0, 0), (0, 0), (1, 0), (0, 1), (0, 1), (0, 1)),
        ]
    ]
    qc = _closed_qc(F4, 2, 3, vectors)
    assert _cli_json(tmp_path, capsys, qc, "isodual") == (1, {
        "result": "not_isodual", "strategy": "components", "witness": None,
        "component_report": [
            {"factor": [[1, 0], [1, 0]], "kind": "self-reciprocal",
             "witness": [[1, 0], [[[1, 0]], [[1, 0]]]]},
            {"factor": [[0, 1], [1, 0]], "kind": "pair", "witness": None},
            {"factor": [[1, 1], [1, 0]], "kind": "pair", "witness": None},
        ],
    })
    code, out = _cli_json(tmp_path, capsys, qc, "decompose")
    assert code == 0
    assert [(c["factor"], c["generators"]) for c in out["constituents"]] == [
        ([[1, 0], [1, 0]], [[[[1, 0]], [[0, 0]]]]),
        ([[0, 1], [1, 0]], [[[[1, 0]], [[1, 1]]]]),
        ([[1, 1], [1, 0]], [[[[0, 0]], [[1, 0]]]]),
    ]


def test_cli_q_accepts_p_comma_e(capsys):
    assert run_cli(["factor", "--q", "3,2", "--m", "4", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["field"] == {"p": 3, "e": 2, "modulus": [1, 0, 1]}
    assert run_cli(["factor", "--q", "3^2", "--m", "4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == out


def test_cli_q_rejects_non_integers_exit_2(capsys):
    for bad in ("abc", "3,x", "2^2^1"):
        assert run_cli(["factor", "--q", bad, "--m", "4"]) == 2
        out = capsys.readouterr().out
        assert json.loads(out)["error"]["type"] == "BadParameters"
        assert "Traceback" not in out
