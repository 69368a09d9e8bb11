"""Two-route checks: one ``crosscheck`` call per check, raising
CrossCheckFailed also under ``python -O``, and a source guard that keeps
``assert`` statements, hand-written module memos, function-local imports,
unused imports and unread private names out of the library."""

import ast
import pathlib
import subprocess
import sys
import textwrap

import pytest

from qckit.errors import CrossCheckFailed, DualMismatch, QCKitError, crosscheck

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qckit"


class Unprintable:
    def __str__(self):
        raise RuntimeError("formatted on the passing path")


def test_crosscheck_formats_the_message_only_on_failure():
    crosscheck(True, "never shown: %s", Unprintable())
    with pytest.raises(CrossCheckFailed, match="^3 factors, expected 4$"):
        crosscheck(False, "%d factors, expected %d", 3, 4)
    with pytest.raises(CrossCheckFailed, match="^100% sure$"):
        crosscheck(False, "100% sure")


def test_dual_mismatch_is_a_cross_check_failure():
    assert issubclass(DualMismatch, CrossCheckFailed)
    assert issubclass(CrossCheckFailed, QCKitError)


FORCED_DISAGREEMENTS = textwrap.dedent("""
    import qckit
    from qckit import cyclic as cy, quasi_cyclic as qc_mod
    from qckit.errors import CrossCheckFailed
    from qckit.polynomial import Poly

    assert not __debug__  # running under -O
    f2, f3 = qckit.field_from_q(2), qckit.field_from_q(3)

    def multiplier_apply():
        # The defining-set route now always answers <1>.
        cy._generator_from_defining_set = lambda field, n, exps: Poly.one(field)
        cy.multiplier_apply(cy.cyclic_make(f2, 7, Poly(f2, (1, 1, 0, 1))), 3)

    def selfdual_exists():
        # The gamma search now never finds a square root of -1.
        qc_mod.find_sqrt_minus_one = lambda field: None
        qc_mod.selfdual_exists(f2, 2)

    def is_selfdual():
        # The checked dual stays; its kept components now claim to be the code's own.
        qc = qc_mod.qc_make(f3, 2, 2, [(1, 0, 0, 0), (0, 0, 1, 0)])
        qc_mod.qc_dual(qc)
        qc._dual_decomposition = qc_mod.crt_decompose(qc)
        qc_mod.is_selfdual(qc)

    def reciprocal_code():
        # The target is now <g> itself; the witness i -> -i still maps onto <g*>.
        cy.reciprocal = lambda g: g
        cy.reciprocal_code(cy.cyclic_make(f2, 7, Poly(f2, (1, 1, 0, 1))))

    def closed_qc(field, l, m, v):
        n = l * m
        return qc_mod.qc_make(field, l, m, [tuple(v[(i - s * l) % n] for i in range(n)) for s in range(m)])

    def qc_dual_self_reciprocal():
        # Y -> Y^-1 is now the identity; the constituent at Y^2 + Y + 1 is <(1, y)>.
        qckit.linear_code.reciprocal_map = lambda src, dst: lambda a: a
        qc_mod.qc_dual(closed_qc(f2, 2, 3, (1, 0, 0, 1, 0, 0)))

    def qc_dual_pair():
        # The pair (Y^3 + Y + 1, Y^3 + Y^2 + 1) now swaps duals without the map.
        qc_mod.qc_dual(closed_qc(f2, 2, 7, (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)))

    def crt_decompose():
        # The slot at the last factor of Y^7 - 1 now projects every row to 0.
        qc_mod._slots(f2, 7)[2][-1].from_base_coeffs = lambda coeffs: 0
        qc_mod.crt_decompose(closed_qc(f2, 2, 7, (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)))

    for check in (multiplier_apply, selfdual_exists, is_selfdual, reciprocal_code,
                  qc_dual_self_reciprocal, qc_dual_pair, crt_decompose):
        try:
            check()
        except CrossCheckFailed as exc:
            print(check.__name__, "raised:", exc)
        else:
            print(check.__name__, "returned")
""")


def test_forced_route_disagreements_raise_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FORCED_DISAGREEMENTS],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "multiplier_apply raised: multiplier routes disagree",
        "selfdual_exists raised: conditions and gamma search disagree for GF(2)",
        "is_selfdual raised: componentwise criterion disagrees",
        "reciprocal_code raised: reciprocal witness failed verification",
        "qc_dual_self_reciprocal raised: kernel dual and component dual disagree",
        "qc_dual_pair raised: kernel dual and component dual disagree",
        "crt_decompose raised: the constituents have dimension 3, the code 6",
    ]


def _violations(path):
    """Lines of ``assert``, of any AssertionError, of imports inside a
    function, and of module-level ``NAME = {}`` / ``NAME = dict()`` memos
    in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    in_functions = {id(inner) for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert statement"))
        elif isinstance(node, ast.Name) and node.id == "AssertionError":
            found.append((node.lineno, "AssertionError"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) in in_functions:
            found.append((node.lineno, "function-local import"))
    for node in tree.body:
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        empty_dict = (isinstance(value, ast.Dict) and not value.keys) or (
            isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "dict" and not value.args and not value.keywords)
        if empty_dict:
            found.append((node.lineno, "module-level memo; use functools.cache"))
    return found


def test_source_guard_flags_each_forbidden_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(textwrap.dedent("""
        _MEMO = {}
        _OTHER: dict = dict()
        TABLE = {"a": 1}

        def f(x):
            assert x
            from os import path
            if not x:
                raise AssertionError("x")
    """))
    assert [what for _, what in _violations(sample)] == [
        "assert statement", "function-local import", "AssertionError",
        "module-level memo; use functools.cache", "module-level memo; use functools.cache",
    ]


def test_library_has_one_check_idiom_and_one_cache_policy():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [f"{path.name}:{line}: {what}" for path in sources for line, what in _violations(path)]
    assert found == []


def _unused_imports(path):
    """(line, message) for each name a source file imports but never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, f"unused import {name}") for name, line in imported.items() if name not in used)


def test_import_guard_flags_each_unused_name(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(textwrap.dedent("""
        from __future__ import annotations
        import os.path
        import json as js
        from math import gcd, lcm
        from . import galois

        def f(x: js.JSONDecoder):
            return gcd(x, galois.q)
    """))
    assert _unused_imports(sample) == [(3, "unused import os"), (5, "unused import lcm")]


def test_library_imports_only_names_it_uses():
    """``__init__.py`` is exempt: its imports are the package's exports."""
    sources = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
    assert sources
    found = [f"{path.name}:{line}: {what}" for path in sources for line, what in _unused_imports(path)]
    assert found == []


def _dead_private_names(paths):
    """(file, line, message) for each private module-level function, class
    or constant of the given source files that no statement of theirs reads
    outside its own definition, by name or as an attribute."""
    defined, reads = [], []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(path.name, node.lineno, name, node) for name in names
                        if name.startswith("_") and not name.startswith("__")]
            reads.append((node, {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                          | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}))
    return [(file, line, f"private name {name} is never read")
            for file, line, name, home in defined
            if not any(name in names for node, names in reads if node is not home)]


def test_dead_name_guard_flags_each_unread_private_name(tmp_path):
    (tmp_path / "a.py").write_text(textwrap.dedent("""
        _BOUND = 8
        _UNUSED = 9
        __all__ = ["f"]

        def _helper(x):
            return x + _BOUND

        def _recursive(n):
            return _recursive(n - 1) if n else 0

        class _Hidden:
            pass

        def f(x):
            return _helper(x)
    """))
    (tmp_path / "b.py").write_text(textwrap.dedent("""
        from . import a

        def _twin(x):
            return x

        def g(x):
            return a._twin(x)
    """))
    assert _dead_private_names(sorted(tmp_path.glob("*.py"))) == [
        ("a.py", 3, "private name _UNUSED is never read"),
        ("a.py", 9, "private name _recursive is never read"),
        ("a.py", 12, "private name _Hidden is never read"),
    ]


def test_library_has_no_dead_private_names():
    found = [f"{file}:{line}: {what}" for file, line, what in _dead_private_names(sorted(SRC.glob("*.py")))]
    assert found == []


BIT_CODEC = {"pack_bits", "unpack_bits", "rotate_bits"}
ROW_CONSUMERS = ("linear_code.py", "quasi_cyclic.py", "polynomial.py", "selftest.py", "cli.py")


def _row_format_forks(path):
    """(line, message) for each place a source file imports or reads the
    GF(2) bit codec, reads an attribute named ``packed``, or compares a
    ``.q`` with 2: outside galois, rows go through the field's row codec."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name in BIT_CODEC:
            found.append((node.lineno, f"reads {name}"))
        elif name == "packed" and isinstance(node, ast.Attribute):
            found.append((node.lineno, "reads .packed"))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(isinstance(x, ast.Attribute) and x.attr == "q" for x in operands)
                    and any(isinstance(x, ast.Constant) and x.value == 2 for x in operands)):
                found.append((node.lineno, "compares .q with 2"))
    return sorted(found)


def test_row_format_guard_flags_each_fork(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(textwrap.dedent("""
        from .galois import pack_bits
        from . import galois

        def f(basis, field, row):
            if basis.packed:
                return galois.unpack_bits(row, 3)
            if field.q == 2 or 2 != field.q:
                return rotate_bits(row, 1, 3)
            return field.q == 3 or row == 2
    """))
    assert [what for _, what in _row_format_forks(sample)] == [
        "reads pack_bits", "reads .packed", "reads unpack_bits",
        "compares .q with 2", "compares .q with 2", "reads rotate_bits",
    ]


def test_library_rows_have_one_format():
    paths = [SRC / name for name in ROW_CONSUMERS]
    found = [f"{path.name}:{line}: {what}" for path in paths for line, what in _row_format_forks(path)]
    assert found == []


POLY_KERNELS = ("poly_mul_raw", "poly_divmod_raw", "poly_mod_raw", "_row_mul", "_negated_monic",
                "_row_divmod", "_poly_of_row", "_row_gcd", "_row_ladder", "_row_powmod")
FIELD_FORKS = {"q", "p", "e", "_log"}


def _poly_kernel_forks(path):
    """(line, message) for each read of ``.q``, ``.p``, ``.e`` or ``._log``
    in a function named in POLY_KERNELS, and one line per kernel the file
    does not define: the polynomial kernels see a field only through its
    row codec."""
    tree = ast.parse(path.read_text(), filename=str(path))
    kernels = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name in POLY_KERNELS]
    found = [(0, f"no {name}") for name in POLY_KERNELS if name not in {k.name for k in kernels}]
    for kernel in kernels:
        found += [(node.lineno, f"{kernel.name} reads .{node.attr}") for node in ast.walk(kernel)
                  if isinstance(node, ast.Attribute) and node.attr in FIELD_FORKS]
    return sorted(found)


def test_poly_kernel_guard_flags_each_fork(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(textwrap.dedent("""
        def poly_mul_raw(field, a, b):
            if field.q == 2:
                return field.e

        def poly_divmod_raw(field, a, b):
            if field._log is not None:
                return field.p

        def poly_mod_raw(field, a, b):
            return field.row_add(a, b)

        def _row_mul(field, a, b):
            return field.lane_shift

        def _negated_monic(field, b):
            return field.base.q

        def _row_divmod(field, a, b):
            return 0

        def _row_gcd(field, a, b):
            return field.row_scale(a, 1)

        def _row_ladder(field, neg_monic, count):
            return [field.q] * count

        def strip_raw(field, coeffs):
            return field.q
    """))
    assert [what for _, what in _poly_kernel_forks(sample)] == [
        "no _poly_of_row", "no _row_powmod", "poly_mul_raw reads .q", "poly_mul_raw reads .e",
        "poly_divmod_raw reads ._log", "poly_divmod_raw reads .p", "_negated_monic reads .q",
        "_row_ladder reads .q",
    ]


def test_poly_kernels_have_one_body_for_every_field():
    assert _poly_kernel_forks(SRC / "galois.py") == []
