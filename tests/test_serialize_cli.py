"""Code-file round trips, schema validation, and the CLI surface."""

import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qckit import cli, serialize
from qckit import linear_code as lc
from qckit.cyclic import cyclic_make
from qckit.errors import BoundExceeded, FieldMismatch, FormatError, QCKitError
from qckit.galois import field_from_q
from qckit.linear_code import code_from_rows
from qckit.polynomial import Poly
from qckit.quasi_cyclic import construct_selfdual_qc, qc_dual, qc_make


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


def test_annotations_block_is_accepted_and_ignored():
    obj = serialize.code_to_json(code_from_rows(F2, [(1, 1)]))
    obj["annotations"] = {"verdict": "isodual", "witness": None, "anything": [1, {"x": 2}]}
    assert serialize.code_from_json(obj).code == code_from_rows(F2, [(1, 1)])
    for bad in ([], "isodual", None, 1):
        obj["annotations"] = bad
        with pytest.raises(FormatError, match="annotations"):
            serialize.code_from_json(obj)


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


def test_qc_block_rejects_bool_index():
    code = code_from_rows(F2, [(1, 1, 1)])
    obj = serialize.code_to_json(code)
    obj["qc"] = {"l": True, "m": 3}
    with pytest.raises(FormatError):
        serialize.code_from_json(obj)


def test_qc_block_rejects_nonpositive_index(tmp_path, capsys):
    qc = qc_make(F2, 2, 3, [(1, 1, 1, 1, 1, 1)])
    obj = serialize.code_to_json(qc.code, qc=qc)
    obj["qc"] = {"l": -2, "m": -3}
    with pytest.raises(FormatError):
        serialize.code_from_json(obj)
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(obj))
    assert run_cli(["dual", str(path), "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "FormatError"


@pytest.mark.parametrize("block", [
    {"p": 2, "e": 2, "modulus": 5},
    {"p": 2, "e": 2, "modulus": None},
    {"p": 2, "e": 2, "modulus": [1, True, 1]},
    {"p": True, "e": 1},
    {"p": 2, "e": True},
])
def test_malformed_field_block_is_a_format_error(tmp_path, capsys, block):
    obj = serialize.code_to_json(code_from_rows(F4, [(F4.one, F4.one)]))
    obj["field"] = block
    with pytest.raises(FormatError, match="^field: "):
        serialize.code_from_json(obj)
    path = tmp_path / "field.json"
    path.write_text(json.dumps(obj))
    assert run_cli(["dual", str(path), "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "FormatError"


@pytest.mark.parametrize("where, error", [
    ("n", FormatError), ("element", FieldMismatch), ("cyclic n", FormatError),
])
def test_a_json_bool_is_not_an_integer(where, error):
    code = cyclic_make(F2, 1, Poly.one(F2))
    obj = serialize.code_to_json(code.to_linear(), cyclic=code)
    assert serialize.code_from_json(obj).code.n == 1
    if where == "n":
        obj["n"] = True
    elif where == "element":
        obj["generators"] = [[[True]]]
    else:
        obj["cyclic"]["n"] = True
    with pytest.raises(error):
        serialize.code_from_json(obj)


def _valid_code_files():
    qc = qc_make(F4, 2, 3, [(1, 1, 0, 1, 0, 0), (0, 0, 1, 1, 0, 1), (0, 1, 0, 0, 1, 1)])
    cyc = cyclic_make(F2, 7, Poly(F2, [1, 1, 0, 1]))
    annotated = serialize.code_to_json(code_from_rows(F4, [(F4.one, F4.element_from_coeffs([0, 1]))]))
    annotated["annotations"] = {"verdict": "isodual", "witness": [0, 1]}
    return [serialize.code_to_json(qc.code, qc=qc),
            serialize.code_to_json(cyc.to_linear(), cyclic=cyc), annotated]


VALID_CODE_FILES = _valid_code_files()
SCHEMA_KEYS = ["format_version", "field", "n", "generators", "cyclic", "qc", "annotations",
               "p", "e", "modulus", "g", "l", "m"]
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.text(max_size=4)
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


def _nodes(node, path=()):
    """Every (path, node) of a JSON tree, the root first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _mutate(data, obj):
    """Replace one node, drop one dict key or list entry, or add one key or
    entry (an add at a scalar replaces it).  The node is drawn by its place
    in the schema (list indices ignored) and then by index, so long
    generator lists do not crowd out the field block."""
    places = {}
    for path, node in _nodes(obj):
        places.setdefault(tuple(k if isinstance(k, str) else "[]" for k in path), []).append((path, node))
    path, node = data.draw(st.sampled_from(places[data.draw(st.sampled_from(sorted(places)))]))
    action = data.draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "add" and isinstance(node, (dict, list)):
        value = data.draw(JSON_VALUES)
        if isinstance(node, list):
            node.append(value)
        else:
            node[data.draw(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=3))] = value
        return obj
    if not path:
        return data.draw(JSON_VALUES)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if action == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES)
    return obj


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mutated_code_files_raise_only_qckit_errors(data):
    obj = copy.deepcopy(data.draw(st.sampled_from(VALID_CODE_FILES)))
    for _ in range(data.draw(st.integers(1, 3))):
        obj = _mutate(data, obj)
    try:
        serialize.code_from_json(obj)
    except QCKitError:
        pass


def test_code_file_lengths_are_bounded_before_expansion():
    """A 120-byte file whose cyclic block asks for g = 1 at length N: the
    degree check rejects it before cyclic_make builds the length-N code,
    and N beyond MAX_LENGTH is refused before anything is built."""
    def tiny(n):
        return {"format_version": "qckit-1", "field": {"p": 2, "e": 1}, "n": n,
                "generators": [], "cyclic": {"n": n, "g": [[1]]}}

    assert len(json.dumps(tiny(2000))) <= 120
    with pytest.raises(FormatError, match="deg g = 0, expected n - k = 2000"):
        serialize.code_from_json(tiny(2000))
    for n in (serialize.MAX_LENGTH + 1, 10 ** 12):
        with pytest.raises(BoundExceeded, match="exceeds 4096"):
            serialize.code_from_json(tiny(n))
        obj = tiny(n)
        del obj["cyclic"]
        obj["qc"] = {"l": 1, "m": n}
        with pytest.raises(BoundExceeded):
            serialize.code_from_json(obj)


def test_malformed_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        serialize.load_code(path)


# -- CLI --------------------------------------------------------------------


def run_cli(args):
    return cli.main(list(args))


# Files json.load refuses without a JSONDecodeError: bytes that are not
# UTF-8, and arrays nested deeper than the recursion limit.
UNREADABLE_FILES = {"not-utf8": b"\xff\xfe{}", "nested-too-deep": b"[" * 100_000}
READERS = [["decompose"], ["dual"], ["selfdual"], ["isodual"], ["enumerate"],
           ["equiv", "linear"], ["equiv", "cyclic"], ["equiv", "qc"]]


@pytest.mark.parametrize("name", sorted(UNREADABLE_FILES))
def test_unreadable_code_files_are_format_errors_in_every_reader(tmp_path, capsys, name):
    path = tmp_path / "c.json"
    path.write_bytes(UNREADABLE_FILES[name])
    with pytest.raises(FormatError):
        serialize.load_code(path)
    for reader in READERS:
        files = [str(path)] * (2 if reader[0] == "equiv" else 1)
        assert run_cli([*reader, *files, "--json"]) == 2, reader
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "FormatError", reader


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


# -- the written layout -------------------------------------------------------


def written_object(text):
    """The object a written code file holds, after checking that its text
    has one line per generator row, each line that row's JSON."""
    obj, lines = json.loads(text), text.splitlines()
    start = lines.index('  "generators": [') + 1
    end = start + len(obj["generators"])
    assert [json.loads(line.rstrip(",")) for line in lines[start:end]] == obj["generators"]
    assert lines[end] in ("  ]", "  ],")
    return obj


def test_dump_code_writes_one_generator_row_per_line(tmp_path):
    qc = qc_make(F4, 2, 3, [(1, 1, 0, 1, 0, 0), (0, 0, 1, 1, 0, 1), (0, 1, 0, 0, 1, 1)])
    cyc = cyclic_make(F2, 7, Poly(F2, [1, 1, 0, 1]))
    for code, kw in ((qc.code, {"qc": qc}), (cyc.to_linear(), {"cyclic": cyc})):
        serialize.dump_code(code, tmp_path / "c.json", **kw)
        text = (tmp_path / "c.json").read_text()
        assert written_object(text) == serialize.code_to_json(code, **kw)
        assert len(text.splitlines()) == code.k + 8  # a line per member, a line per row
        assert serialize.load_code(tmp_path / "c.json").code == code


def test_cli_writes_one_generator_row_per_line(tmp_path, capsys):
    f5 = field_from_q(5)
    c, d = str(tmp_path / "c.json"), str(tmp_path / "d.json")
    assert run_cli(["construct", "selfdual-qc", "--q", "5", "--l", "2", "--m", "4", "-o", c]) == 0
    qc = construct_selfdual_qc(f5, 2, 4)
    assert written_object((tmp_path / "c.json").read_text()) == serialize.code_to_json(qc.code, qc=qc)
    assert serialize.load_code(c).qc.code == qc.code
    assert run_cli(["dual", c, "-o", d]) == 0
    written = written_object((tmp_path / "d.json").read_text())
    assert serialize.load_code(d).qc.code == qc_dual(qc).code
    capsys.readouterr()
    assert run_cli(["dual", c, "--json"]) == 0
    assert written_object(capsys.readouterr().out) == written


def test_files_in_the_old_layout_still_load(tmp_path, capsys):
    qc = qc_make(F4, 2, 3, [(1, 1, 0, 1, 0, 0), (0, 0, 1, 1, 0, 1), (0, 1, 0, 0, 1, 1)])
    obj = serialize.code_to_json(qc.code, qc=qc)
    with open(tmp_path / "old.json", "w") as fh:
        json.dump(obj, fh, indent=2)
    assert len((tmp_path / "old.json").read_text().splitlines()) > 3 * qc.n * qc.code.k
    assert serialize.load_code(tmp_path / "old.json").qc.code == qc.code
    assert run_cli(["dual", str(tmp_path / "old.json"), "--json"]) == 0
    assert serialize.code_from_json(json.loads(capsys.readouterr().out)).code == qc_dual(qc).code


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_code_text_keeps_every_annotation(data):
    obj = copy.deepcopy(data.draw(st.sampled_from(VALID_CODE_FILES)))
    obj["annotations"] = data.draw(st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=4))
    obj["annotations"]["generators"] = '\n  ],\n  "n": 1,'
    assert json.loads(serialize.code_text(obj)) == obj


def test_round_trip_at_length_1022(tmp_path):
    """One random vector with its shifts, l = 2 and m = 511 over GF(2)."""
    rng, n = random.Random(1), 1022
    v = [rng.randrange(2) for _ in range(n)]
    qc = qc_make(F2, 2, 511, [tuple(v[(i - 2 * s) % n] for i in range(n)) for s in range(511)])
    serialize.dump_code(qc.code, tmp_path / "c.json", qc=qc)
    back = serialize.load_code(tmp_path / "c.json")
    assert back.qc.code == qc.code
    assert len((tmp_path / "c.json").read_text().splitlines()) == qc.code.k + 8


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


@pytest.mark.parametrize("q", [2, 3, 4])
def test_cli_equiv_cyclic_length_one(tmp_path, capsys, q):
    field = field_from_q(q)
    for g in ([field.one], [field.neg(field.one), field.one]):  # full and zero code
        a = cyclic_make(field, 1, Poly(field, g))
        serialize.dump_code(a.to_linear(), tmp_path / "a.json", cyclic=a)
        assert run_cli(["equiv", "cyclic", str(tmp_path / "a.json"), str(tmp_path / "a.json"),
                        "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"multiplier_equivalent": True, "multiplier": 1}


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
    assert saved["annotations"]["witness"] is not None
    back = serialize.code_from_json(saved)
    assert back.cyclic is not None and back.code.k == 5
    assert (back.qc.l, back.qc.m) == (2, 5)


def test_cli_enumerate(tmp_path, capsys):
    f2 = field_from_q(2)
    qc = qc_make(f2, 3, 1, [(1, 1, 1)])
    serialize.dump_code(qc.code, tmp_path / "c.json", qc=qc)
    assert run_cli(["enumerate", str(tmp_path / "c.json"), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["p"] == 3 and out["tuples_counted"] == 3 ** out["r"]


def test_cli_multiplier_commands_refuse_non_cyclic_constituents_exit_2(tmp_path, capsys):
    line = qc_make(F2, 3, 1, [(1, 0, 0)])
    rep = qc_make(F2, 3, 1, [(1, 1, 1)])
    serialize.dump_code(line.code, tmp_path / "a.json", qc=line)
    serialize.dump_code(rep.code, tmp_path / "b.json", qc=rep)
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for args in (["equiv", "qc", a, b], ["equiv", "qc", b, a], ["enumerate", a]):
        assert run_cli(args) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "NotCyclicConstituents"


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
    # The criterion fails in both pair slots, yet a coordinate permutation
    # maps the code onto its dual.
    assert _cli_json(tmp_path, capsys, qc, "isodual") == (0, {
        "result": "isodual", "strategy": "components", "criterion": "fails",
        "witness": {"perm": [1, 0, 5, 4, 3, 2]},
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


def test_cli_unexpected_exception_is_internal_error_exit_2(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_factor", broken)
    assert run_cli(["factor", "--q", "2", "--m", "7"]) == 2
    out = capsys.readouterr().out
    assert json.loads(out) == {"error": {"type": "InternalError", "message": "RuntimeError: boom"}}


def test_cli_q_rejects_non_integers_exit_2(capsys):
    for bad in ("abc", "3,x", "2^2^1"):
        assert run_cli(["factor", "--q", bad, "--m", "4"]) == 2
        out = capsys.readouterr().out
        assert json.loads(out)["error"]["type"] == "BadParameters"
        assert "Traceback" not in out


SEARCHING = [
    ["isodual", "c.json"],
    ["equiv", "linear", "a.json", "b.json"],
    ["construct", "isodual-qc", "--q", "2", "--l", "2", "--m", "3"],
]
NOT_SEARCHING = [
    ["factor", "--q", "2", "--m", "7"],
    ["decompose", "c.json"],
    ["dual", "c.json"],
    ["selfdual", "c.json"],
    ["equiv", "cyclic", "a.json", "b.json"],
    ["equiv", "qc", "a.json", "b.json"],
    ["construct", "isodual-cyclic", "--q", "2", "--s", "3", "--variant", "A"],
    ["construct", "selfdual-qc", "--q", "2", "--l", "2", "--m", "3"],
    ["enumerate", "c.json"],
]


def test_cutoff_only_where_a_search_reads_it(capsys):
    parser = cli.build_parser()
    for argv in SEARCHING:
        assert parser.parse_args([*argv, "--cutoff", "3"]).cutoff == 3
    for argv in NOT_SEARCHING:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*argv, "--cutoff", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cutoff 3" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_cli(["factor", "--q", "2", "--m", "7", "--cutoff", "3"])
    assert exc.value.code == 2


def test_cli_q_beyond_the_bound_exit_2(capsys):
    for q in ("2,1000000000000", "1000000000000000003", "1000000000000000003,1"):
        assert run_cli(["factor", "--q", q, "--m", "3"]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "BoundExceeded"


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("m", ["-3", "0"])
def test_cli_factor_rejects_nonpositive_m_exit_2(flags, m):
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "qckit.cli", "factor", "--q", "2", "--m", m],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "BadParameters"
    assert "Traceback" not in proc.stdout + proc.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_cli_isodual_odd_index_code_exit_0(tmp_path, flags):
    F3 = field_from_q(3)
    qc = qc_make(F3, 3, 2, [(1, 0, 0, 0, 1, 1), (0, 1, 0, 2, 1, 2), (0, 0, 1, 2, 2, 1)])
    serialize.dump_code(qc.code, tmp_path / "c.json", qc=qc)
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "qckit", "isodual", str(tmp_path / "c.json"), "--json"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout)
    assert "error" not in out
    assert (out["result"], out["criterion"]) == ("isodual", "fails")
    assert out["witness"] == {"perm": [0, 1, 2, 3, 5, 4]}


CONSTRUCTIONS = [
    ["isodual-cyclic", "--q", "2", "--s", "3", "--variant", "A"],
    ["isodual-cyclic", "--q", "3", "--s", "5", "--variant", "A"],
    ["isodual-cyclic", "--q", "4", "--s", "3", "--variant", "B"],
    ["selfdual-qc", "--q", "2", "--l", "2", "--m", "3"],
    ["selfdual-qc", "--q", "5", "--l", "2", "--m", "2"],
    ["isodual-qc", "--q", "2", "--l", "2", "--m", "3"],
    ["isodual-qc", "--q", "3", "--l", "2", "--m", "2"],
    ["isodual-qc", "--q", "4", "--l", "2", "--m", "3"],
]


@pytest.mark.parametrize("construction", CONSTRUCTIONS, ids=lambda c: "-".join([c[0], *c[2::2]]))
def test_construct_outputs_load_into_every_reader(tmp_path, capsys, construction):
    path = str(tmp_path / "c.json")
    assert run_cli(["construct", *construction, "-o", path]) in (0, 1)
    capsys.readouterr()
    saved = json.loads((tmp_path / "c.json").read_text())
    assert set(saved) <= {"format_version", "field", "n", "generators", "cyclic", "qc", "annotations"}
    for command in ("dual", "selfdual", "isodual"):
        status = run_cli([command, path, "--json"])
        out = json.loads(capsys.readouterr().out)
        assert "error" not in out, command
        # isodual exits 2 for "inconclusive": a search above the cutoff
        # that spent its node budget.
        assert status in (0, 1) or (command == "isodual" and status == 2
                                    and out["result"] == "inconclusive"), command


def test_construct_isodual_qc_inconclusive_exit_2(tmp_path, capsys, monkeypatch):
    """n = 10 exceeds the default cutoff 8, so the search runs under the
    node budget: it shows the code is not isodual (exit 1), and with the
    budget cut to 5 nodes the verdict is "inconclusive" (exit 2).  Either
    way the code is written, with the verdict in its annotations."""
    path = tmp_path / "c.json"
    argv = ["construct", "isodual-qc", "--q", "3", "--l", "2", "--m", "5", "-o", str(path)]
    for budget, verdict, status in ((lc.SEARCH_BUDGET, "not_isodual", 1), (5, "inconclusive", 2)):
        monkeypatch.setattr(lc, "SEARCH_BUDGET", budget)
        assert run_cli(argv) == status
        assert capsys.readouterr().out == ""
        saved = json.loads(path.read_text())
        assert "error" not in saved
        assert saved["annotations"] == {"verdict": verdict, "witness": None}
        assert serialize.code_from_json(saved).qc.n == 10


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mutated_code_files_through_the_cli(data):
    """Each reader on a mutated code file exits 0, 1 or 2 with JSON on
    stdout, and a fault in qckit (InternalError) is never reported."""
    obj = copy.deepcopy(data.draw(st.sampled_from(VALID_CODE_FILES)))
    for _ in range(data.draw(st.integers(1, 3))):
        obj = _mutate(data, obj)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        for command in ("decompose", "dual", "selfdual", "isodual"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = run_cli([command, path, "--json"])
            report = json.loads(out.getvalue())
            assert status in (0, 1, 2), command
            assert report.get("error", {}).get("type") != "InternalError", (command, report)


def test_cli_reader_that_leaves_early_gets_exit_2_without_a_traceback():
    # About 150 kB of JSON: more than a pipe holds, so the write meets the closed pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "qckit", "factor", "--q", "2", "--m", "4095", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    stderr = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 2
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr


def test_construct_into_a_closed_pipe_exits_2_with_nothing_on_stderr():
    # The code-file writer, not the report writer: about 650 kB, more than a pipe holds.
    proc = subprocess.Popen(
        [sys.executable, "-m", "qckit", "construct", "selfdual-qc", "--q", "2", "--l", "2", "--m", "255"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    assert proc.communicate(timeout=60)[1] == b""
    assert proc.returncode == 2


def test_python_dash_m_qckit_runs_the_cli():
    outputs = []
    for module in ("qckit", "qckit.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "factor", "--q", "2", "--m", "7", "--json"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1] and outputs[0]["r"] == 3
