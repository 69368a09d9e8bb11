"""JSON code-file format (schema version "qckit-1").

A code file looks like

    {"format_version": "qckit-1",
     "field": {"p": 2, "e": 2, "modulus": [1, 1, 1]},
     "n": 6,
     "generators": [[[1, 0], [0, 1], ...], ...],
     "cyclic": {"n": 6, "g": [[1], [1]]},       # optional
     "qc": {"l": 2, "m": 3}}                    # optional

Field elements serialize as ascending coefficient arrays over F_p
([x] for a prime field).  Unknown keys are rejected so files written
by a future schema fail loudly instead of being half-read.
"""

from __future__ import annotations

import json

from . import cyclic as cy
from . import linear_code as lc
from . import quasi_cyclic as qc_mod
from .errors import FormatError
from .galois import make_field
from .polynomial import Poly

FORMAT_VERSION = "qckit-1"


def _require_keys(obj, required, optional, where):
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise FormatError(
            f"{where}: unknown keys {sorted(unknown)} (schema {FORMAT_VERSION})"
        )
    missing = set(required) - set(obj)
    if missing:
        raise FormatError(f"{where}: missing keys {sorted(missing)}")


def field_to_json(field):
    out = {"p": field.p, "e": field.e}
    if field.e > 1:
        out["modulus"] = list(field.modulus)
    return out


def field_from_json(obj):
    _require_keys(obj, ["p", "e"], ["modulus"], "field")
    p, e = obj["p"], obj["e"]
    if not isinstance(p, int) or not isinstance(e, int):
        raise FormatError("field: p and e must be integers")
    field = make_field(p, e)
    if e == 1:
        if "modulus" in obj:
            raise FormatError("field: modulus not allowed for a prime field")
    elif "modulus" in obj and tuple(obj["modulus"]) != field.modulus:
        raise FormatError(
            f"field: modulus {obj['modulus']} is not the canonical "
            f"modulus {list(field.modulus)} for GF({p}^{e})"
        )
    return field


def element_to_json(field, a):
    return list(field.coeffs_of(a))


def constituent_element_to_json(local, a):
    """A constituent-field element as its base-field coefficient arrays."""
    return [element_to_json(local.base, c) for c in local.base_coeffs(a)]


def element_from_json(field, obj):
    if not isinstance(obj, list):
        raise FormatError(f"element: expected a coefficient array, got {obj!r}")
    return field.element_from_coeffs(obj)


def poly_to_json(poly):
    return [element_to_json(poly.field, c) for c in poly.coeffs]


def poly_from_json(field, obj):
    if not isinstance(obj, list):
        raise FormatError("polynomial: expected a coefficient array")
    return Poly(field, [element_from_json(field, c) for c in obj])


def code_to_json(code, cyclic=None, qc=None):
    """Serialize a linear code, optionally with its cyclic/qc structure."""
    out = {
        "format_version": FORMAT_VERSION,
        "field": field_to_json(code.field),
        "n": code.n,
        "generators": [
            [element_to_json(code.field, a) for a in row] for row in code.gen
        ],
    }
    if cyclic is not None:
        out["cyclic"] = {"n": cyclic.n, "g": poly_to_json(cyclic.g)}
    if qc is not None:
        out["qc"] = {"l": qc.l, "m": qc.m}
    return out


class CodeFile:
    """A parsed code file: the linear code plus optional structure."""

    __slots__ = ("code", "cyclic", "qc")

    def __init__(self, code, cyclic=None, qc=None):
        self.code = code
        self.cyclic = cyclic
        self.qc = qc


def code_from_json(obj):
    _require_keys(
        obj,
        ["format_version", "field", "n", "generators"],
        ["cyclic", "qc"],
        "code file",
    )
    if obj["format_version"] != FORMAT_VERSION:
        raise FormatError(
            f"unsupported format_version {obj['format_version']!r} "
            f"(this reader understands {FORMAT_VERSION})"
        )
    field = field_from_json(obj["field"])
    n = obj["n"]
    if not isinstance(n, int) or n < 0:
        raise FormatError("code file: n must be a nonnegative integer")
    gens = obj["generators"]
    if not isinstance(gens, list):
        raise FormatError("code file: generators must be a list of rows")
    rows = []
    for row in gens:
        if not isinstance(row, list) or len(row) != n:
            raise FormatError(f"code file: generator row of length != {n}")
        rows.append(tuple(element_from_json(field, a) for a in row))
    code = (
        lc.code_from_rows(field, rows, n=n)
        if rows
        else lc.LinearCode.zero_code(field, n)
    )
    cyclic = None
    if "cyclic" in obj:
        block = obj["cyclic"]
        _require_keys(block, ["n", "g"], [], "cyclic block")
        if block["n"] != n:
            raise FormatError("cyclic block: length disagrees with the code")
        cyclic = cy.cyclic_make(field, n, poly_from_json(field, block["g"]))
        if cyclic.to_linear() != code:
            raise FormatError(
                "cyclic block: generator polynomial does not span the code"
            )
    qc = None
    if "qc" in obj:
        block = obj["qc"]
        _require_keys(block, ["l", "m"], [], "qc block")
        l, m = block["l"], block["m"]
        if not isinstance(l, int) or not isinstance(m, int) or l * m != n:
            raise FormatError("qc block: l*m must equal the code length")
        qc = qc_mod.qc_make(field, l, m, code)
    return CodeFile(code, cyclic=cyclic, qc=qc)


def dump_code(code, path, cyclic=None, qc=None):
    with open(path, "w") as fh:
        json.dump(code_to_json(code, cyclic=cyclic, qc=qc), fh, indent=2)
        fh.write("\n")


def load_code(path):
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    return code_from_json(obj)
