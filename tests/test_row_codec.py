"""The whole-row element codec at the JSON boundary: ``coeffs_of_row`` and
``row_from_coeffs`` (through ``serialize.row_from_json``) against the
per-element route, ``coeffs_of`` and ``element_from_json``, on good rows
and on rows with one bad entry."""

import functools
import random

import pytest

from qckit import serialize
from qckit.errors import QCKitError
from qckit.galois import FieldSpec, constituent_field, field_from_q
from qckit.polynomial import factor_cyclic_modulus


@functools.cache
def constituent(q, m, degree):
    """The constituent field of Y^m - 1 over GF(q) at a factor of the given degree."""
    base = field_from_q(q)
    factor = next(f for f in factor_cyclic_modulus(base, m).all_factors() if f.degree == degree)
    return constituent_field(base, factor.coeffs)


FIELDS = {
    **{f"GF({q})": (lambda q=q: field_from_q(q))
       for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 256, 257, 2 ** 16)},
    "GF(2^23) at Y^47 - 1": lambda: constituent(2, 47, 23),
}
LENGTHS = (0, 1, 2, 7, 60)


def rows(field, rng):
    """Random rows of every length in LENGTHS, all-zero rows and all-(q-1) rows."""
    out = [[field.random_element(rng) for _ in range(n)] for n in LENGTHS for _ in range(3)]
    return out + [[0] * n for n in LENGTHS] + [[field.q - 1] * 5]


def outcome(route, field, row):
    """What ``route`` gives for the row: its result, or the type and message it raises."""
    try:
        return route(field, row)
    except QCKitError as exc:
        return type(exc), str(exc)


def per_element(field, row):
    return [serialize.element_from_json(field, a) for a in row]


def per_element_in_the_field(field, row):
    return [field.element_from_coeffs(c) for c in row]


@pytest.mark.parametrize("name", FIELDS)
def test_row_codec_matches_the_per_element_route(name):
    field, rng = FIELDS[name](), random.Random(name)
    for row in rows(field, rng):
        coeffs = field.coeffs_of_row(row)
        assert coeffs == [field.coeffs_of(a) for a in row]
        assert coeffs == field.coeffs_of_row(tuple(row))
        assert field.row_from_coeffs(coeffs) == row
        assert serialize.row_from_json(field, coeffs) == row


class Coefficients(list):
    """A list subclass: the per-element route accepts it as an entry."""


def bad_entries(field, rng, entry):
    """Each way an entry can be bad, made from the good entry ``entry``."""
    def at(value):
        bad = list(entry)
        bad[rng.randrange(field.e)] = value
        return bad

    return {
        "True": at(True),
        "1.0": at(1.0),
        "-1": at(-1),
        "p": at(field.p),
        "nested list": at([0]),
        "too long": entry + [0],
        "too short": entry[:-1],
        "int entry": 1,
        "None entry": None,
        "tuple entry": tuple(entry),
        "dict entry": {"0": 1},
        "string entry": "0" * field.e,
        "list subclass": Coefficients(entry),
    }


@pytest.mark.parametrize("name", FIELDS)
def test_a_bad_entry_raises_as_it_would_alone(name):
    field, rng = FIELDS[name](), random.Random(name)
    for n in (1, 2, 9):
        good = field.coeffs_of_row([field.random_element(rng) for _ in range(n)])
        for kind, bad in bad_entries(field, rng, good[0]).items():
            row = list(good)
            row[rng.randrange(n)] = bad
            expected = outcome(per_element, field, row)
            assert outcome(serialize.row_from_json, field, row) == expected, kind
            if kind == "list subclass":
                assert expected == field.row_from_coeffs(list(map(list, row)))
            else:
                assert isinstance(expected, tuple), kind
            if all(type(c) is list for c in row):  # the field's own route, with no FormatError
                assert (outcome(FieldSpec.row_from_coeffs, field, row)
                        == outcome(per_element_in_the_field, field, row)), kind


def test_the_first_bad_entry_decides_the_error():
    field = field_from_q(4)
    row = [[0, 1], [0, 1, 1], None, [2, 0]]  # wrong length first, then a non-list
    assert outcome(serialize.row_from_json, field, row) == outcome(per_element, field, row)
    assert outcome(serialize.row_from_json, field, row)[1] == "GF(4) expects 2 coefficients, got 3"
    row[1] = [0, 1]
    assert outcome(serialize.row_from_json, field, row)[1] == "element: expected a coefficient array, got None"


def test_code_files_refuse_a_bad_entry_as_the_per_element_route_does():
    field = field_from_q(9)
    obj = {"format_version": "qckit-1", "field": serialize.field_to_json(field), "n": 3,
           "generators": [[[1, 0], [0, 1], [2, 2]], [[0, 0], [1, True], [1, 1]]]}
    expected = outcome(per_element, field, obj["generators"][1])
    with pytest.raises(expected[0]) as info:
        serialize.code_from_json(obj)
    assert str(info.value) == expected[1]
