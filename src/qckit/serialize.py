"""JSON code-file format (schema version "qckit-1").

A code file looks like

    {"format_version": "qckit-1",
     "field": {"p": 2, "e": 2, "modulus": [1, 1, 1]},
     "n": 6,
     "generators": [[[1, 0], [0, 1], ...], ...],
     "cyclic": {"n": 6, "g": [[1], [1]]},       # optional
     "qc": {"l": 2, "m": 3},                    # optional
     "annotations": {"verdict": "isodual"}}     # optional

Field elements serialize as ascending coefficient arrays over F_p
([x] for a prime field), converted a whole row at a time.  Files are
written with one member per line and one generator row per line
(code_text); any JSON layout of the same object reads back.  Readers
ignore ``annotations`` (the verdict and witness found by a
construction), which must be an object.  Other unknown keys are
rejected so files written by a future schema fail loudly instead of
being half-read.
"""

from __future__ import annotations

import contextlib
import gc
import json

from . import cyclic as cy
from . import linear_code as lc
from . import quasi_cyclic as qc_mod
from .errors import BoundExceeded, FormatError
from .galois import make_field
from .polynomial import Poly

FORMAT_VERSION = "qckit-1"
MAX_LENGTH = 4096  # longest code a file may ask for: a load reads up to n^2 entries, eliminates in O(n^3)


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
    if type(p) is not int or type(e) is not int:  # bool is not an int here
        raise FormatError("field: p and e must be integers")
    modulus = obj.get("modulus", [])
    if not isinstance(modulus, list) or any(type(c) is not int for c in modulus):
        raise FormatError("field: modulus must be an array of integers")
    field = make_field(p, e)
    if e == 1:
        if "modulus" in obj:
            raise FormatError("field: modulus not allowed for a prime field")
    elif "modulus" in obj and tuple(modulus) != field.modulus:
        raise FormatError(
            f"field: modulus {modulus} is not the canonical "
            f"modulus {list(field.modulus)} for GF({p}^{e})"
        )
    return field


def constituent_row_to_json(local, row):
    """Constituent-field elements, each as its base-field coefficient arrays."""
    d = local.degree
    flat = local.base.coeffs_of_row([c for a in row for c in local.base_coeffs(a)])
    return [flat[i:i + d] for i in range(0, len(flat), d)]


def element_from_json(field, obj):
    if not isinstance(obj, list):
        raise FormatError(f"element: expected a coefficient array, got {obj!r}")
    return field.element_from_coeffs(obj)


def row_from_json(field, row):
    """[element_from_json(field, a) for a in row], in whole-row passes when
    every entry is a list; otherwise entry by entry, so the first bad entry
    raises as it would alone."""
    if set(map(type, row)) <= {list}:
        return field.row_from_coeffs(row)
    return [element_from_json(field, a) for a in row]


def poly_to_json(poly):
    return poly.field.coeffs_of_row(poly.coeffs)


def poly_from_json(field, obj):
    if not isinstance(obj, list):
        raise FormatError("polynomial: expected a coefficient array")
    return Poly(field, row_from_json(field, obj))


def code_to_json(code, cyclic=None, qc=None):
    """Serialize a linear code, optionally with its cyclic/qc structure."""
    out = {
        "format_version": FORMAT_VERSION,
        "field": field_to_json(code.field),
        "n": code.n,
        "generators": list(map(code.field.coeffs_of_row, code.gen)),
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
        ["cyclic", "qc", "annotations"],
        "code file",
    )
    if not isinstance(obj.get("annotations", {}), dict):
        raise FormatError("code file: annotations must be an object")
    if obj["format_version"] != FORMAT_VERSION:
        raise FormatError(
            f"unsupported format_version {obj['format_version']!r} "
            f"(this reader understands {FORMAT_VERSION})"
        )
    field = field_from_json(obj["field"])
    n = obj["n"]
    if type(n) is not int or n < 0:
        raise FormatError("code file: n must be a nonnegative integer")
    if n > MAX_LENGTH:
        raise BoundExceeded(f"code file: length {n} exceeds {MAX_LENGTH}")
    gens = obj["generators"]
    if not isinstance(gens, list):
        raise FormatError("code file: generators must be a list of rows")
    rows = []
    for row in gens:
        if not isinstance(row, list) or len(row) != n:
            raise FormatError(f"code file: generator row of length != {n}")
        rows.append(tuple(row_from_json(field, row)))
    code = lc.code_from_rows(field, rows, n=n)
    cyclic = None
    if "cyclic" in obj:
        block = obj["cyclic"]
        _require_keys(block, ["n", "g"], [], "cyclic block")
        if type(block["n"]) is not int or block["n"] != n:
            raise FormatError("cyclic block: length disagrees with the code")
        g = poly_from_json(field, block["g"])
        if g.degree != n - code.k:  # checked before cyclic_make expands g
            raise FormatError(f"cyclic block: deg g = {g.degree}, expected n - k = {n - code.k}")
        cyclic = cy.cyclic_make(field, n, g)
        if cyclic.to_linear() != code:
            raise FormatError(
                "cyclic block: generator polynomial does not span the code"
            )
    qc = None
    if "qc" in obj:
        block = obj["qc"]
        _require_keys(block, ["l", "m"], [], "qc block")
        l, m = block["l"], block["m"]
        for x in (l, m):
            if type(x) is not int or x < 1:
                raise FormatError(f"qc block: l and m must be positive integers, got {x!r}")
        if l * m != n:
            raise FormatError("qc block: l*m must equal the code length")
        qc = qc_mod.qc_make(field, l, m, code)
    return CodeFile(code, cyclic=cyclic, qc=qc)


def code_text(obj):
    """A code object as JSON text with one member per line, except that
    each generator row gets a line of its own."""
    def member(key, value):
        if key == "generators" and value:
            return '  "generators": [\n' + ",\n".join("    " + json.dumps(row) for row in value) + "\n  ]"
        return f"  {json.dumps(key)}: {json.dumps(value)}"

    return "{\n" + ",\n".join(member(key, value) for key, value in obj.items()) + "\n}"


@contextlib.contextmanager
def _collector_paused():
    """The cyclic garbage collector off while a code file is read or built: each
    collection walks its millions of small lists, which hold no cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def code_file_text(code, annotations=None, **structure):
    """code_text of code_to_json(code, **structure), with the annotations if given."""
    with _collector_paused():
        obj = code_to_json(code, **structure)
        return code_text(obj if annotations is None else {**obj, "annotations": annotations})


def dump_code(code, path, cyclic=None, qc=None):
    with open(path, "w") as fh:
        fh.write(code_file_text(code, cyclic=cyclic, qc=qc) + "\n")


def load_code(path):
    with _collector_paused():
        with open(path, encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
                raise FormatError(f"{path}: not valid JSON ({exc})") from exc
        return code_from_json(obj)
