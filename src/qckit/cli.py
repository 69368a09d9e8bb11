"""Command-line interface.

Every subcommand is a thin adapter over the library: it parses
arguments, calls one library entry point, and feeds the result through
a single emitter (JSON with --json, indented key/value text otherwise).
Exit codes: 0 = success / property holds, 1 = property fails,
2 = error (reported as a structured object, never a stack trace) or an
"inconclusive" isoduality verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cyclic as cy
from . import linear_code as lc
from . import quasi_cyclic as qc_mod
from . import selftest, serialize
from .errors import BadParameters, QCKitError
from .galois import constituent_field, field_from_q, make_field
from .polynomial import Poly, factor_cyclic_modulus


VERDICT_EXIT = {"isodual": 0, "not_isodual": 1, "inconclusive": 2}


def _parse_q(text):
    """Accept '9', '3^2' or '3,2'."""
    try:
        numbers = [int(x) for x in str(text).replace("^", ",").split(",")]
    except ValueError:
        numbers = []
    if len(numbers) == 1:
        return field_from_q(numbers[0])
    if len(numbers) == 2:
        return make_field(*numbers)
    raise BadParameters(f"--q expects q, p^e or p,e in integers, got {text!r}")


def _component_report_json(field, report):
    """Findings with factors and witness diagonals as coefficient arrays."""
    out = []
    for finding in map(dict, report):
        if "factor" in finding:
            local = constituent_field(field, finding["factor"])
            finding["factor"] = serialize.poly_to_json(Poly(field, finding["factor"]))
            if isinstance(finding.get("witness"), tuple):
                perm, diag = finding["witness"]
                finding["witness"] = [list(perm), serialize.constituent_row_to_json(local, diag)]
        out.append(finding)
    return out


def _witness_json(field, witness):
    if witness is None:
        return None
    out = {"perm": list(witness.perm)}
    if not witness.is_permutation(field):
        out["diag"] = field.coeffs_of_row(witness.diag)
    return out


def _render(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{pad}{k}:")
                lines.extend(_render(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_flat(v)}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{pad}-")
                lines.extend(_render(v, indent + 1))
            else:
                lines.append(f"{pad}- {_flat(v)}")
    else:
        lines.append(f"{pad}{_flat(obj)}")
    return lines


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, dict) for x in v)
    return False


def _flat(v):
    return json.dumps(v) if isinstance(v, (dict, list)) else v


def _emit(report, args):
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(_render(report)))


def _write_or_emit(args, code, **parts):
    """serialize.code_file_text(code, **parts), written to --output or printed."""
    text = serialize.code_file_text(code, **parts)
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _need_qc(codefile, path):
    if codefile.qc is None:
        raise QCKitError(f"{path}: no qc structure block")
    return codefile.qc


# -- subcommand handlers ----------------------------------------------------


def cmd_factor(args):
    field = _parse_q(args.q)
    cls = factor_cyclic_modulus(field, args.m)
    report = {
        "field": serialize.field_to_json(field),
        "m": args.m,
        "delta": field.coeffs_of(cls.delta),
        "self_reciprocal": [serialize.poly_to_json(g) for g in cls.self_reciprocal],
        "pairs": [
            [serialize.poly_to_json(h), serialize.poly_to_json(hs)]
            for h, hs in cls.pairs
        ],
        "s": cls.s, "t": cls.t, "r": cls.r,
    }
    _emit(report, args)
    return 0


def cmd_decompose(args):
    cf = serialize.load_code(args.code)
    qc = _need_qc(cf, args.code)
    decomp = qc_mod.crt_decompose(qc)
    field = qc.field
    constituents = []
    for f, local, comp in zip(decomp.factors, decomp.fields, decomp.comps):
        constituents.append({
            "factor": serialize.poly_to_json(f),
            "local_field_degree": local.degree,
            "self_reciprocal": local.self_reciprocal,
            "dimension": comp.k,
            "generators": [serialize.constituent_row_to_json(local, row) for row in comp.gen],
        })
    report = {
        "field": serialize.field_to_json(field),
        "l": qc.l, "m": qc.m, "dimension": qc.code.k,
        "s": decomp.classification.s, "t": decomp.classification.t,
        "constituents": constituents,
    }
    _emit(report, args)
    return 0


def cmd_dual(args):
    cf = serialize.load_code(args.code)
    if cf.qc is not None:
        dual = qc_mod.qc_dual(cf.qc)
        _write_or_emit(args, dual.code, qc=dual)
    elif cf.cyclic is not None:
        dual = cy.cyclic_dual(cf.cyclic)
        _write_or_emit(args, dual.to_linear(), cyclic=dual)
    else:
        _write_or_emit(args, lc.euclidean_dual(cf.code))
    return 0


def cmd_selfdual(args):
    cf = serialize.load_code(args.code)
    qc = _need_qc(cf, args.code)
    cert = qc_mod.is_selfdual(qc)
    _emit({
        "selfdual": cert.result,
        "components": _component_report_json(qc.field, cert.component_report),
    }, args)
    return 0 if cert.result else 1


def cmd_isodual(args):
    cf = serialize.load_code(args.code)
    qc = _need_qc(cf, args.code)
    verdict = qc_mod.is_isodual(qc, strategy=args.strategy, cutoff=args.cutoff)
    report = {
        "result": verdict.result,
        "strategy": verdict.strategy,
        "criterion": verdict.criterion,
        "witness": _witness_json(qc.field, verdict.witness),
        "component_report": _component_report_json(qc.field, verdict.component_report),
    }
    _emit(report, args)
    return VERDICT_EXIT[verdict.result]


def cmd_equiv_linear(args):
    a, b = serialize.load_code(args.a).code, serialize.load_code(args.b).code
    witness = lc.equivalence_search(a, b, mode=args.mode, cutoff=args.cutoff)
    _emit({
        "equivalent": witness is not None,
        "mode": args.mode,
        "witness": _witness_json(a.field, witness),
    }, args)
    return 0 if witness is not None else 1


def cmd_equiv_cyclic(args):
    ca, cb = serialize.load_code(args.a), serialize.load_code(args.b)
    if ca.cyclic is None or cb.cyclic is None:
        raise QCKitError("equiv cyclic needs code files with cyclic blocks")
    witness = cy.multiplier_equivalent(ca.cyclic, cb.cyclic)
    _emit({
        "multiplier_equivalent": witness is not None,
        "multiplier": witness,
    }, args)
    return 0 if witness is not None else 1


def cmd_equiv_qc(args):
    ca, cb = serialize.load_code(args.a), serialize.load_code(args.b)
    qa = _need_qc(ca, args.a)
    qb = _need_qc(cb, args.b)
    witness = qc_mod.qc_multiplier_equivalent(qa, qb)
    _emit({
        "multiplier_equivalent": witness is not None,
        "multipliers": list(witness) if witness is not None else None,
    }, args)
    return 0 if witness is not None else 1


def cmd_construct_isodual_cyclic(args):
    field = _parse_q(args.q)
    code, witness = cy.construct_isodual_cyclic(field, args.s, args.variant)
    # Length 2s with s coprime to q: quasi-cyclic of index 2 as well.
    qc = qc_mod.qc_make(field, 2, args.s, code.to_linear())
    _write_or_emit(args, qc.code, cyclic=code, qc=qc, annotations={"witness": _witness_json(field, witness)})
    return 0


def cmd_construct_selfdual_qc(args):
    field = _parse_q(args.q)
    qc = qc_mod.construct_selfdual_qc(field, args.l, args.m)
    _write_or_emit(args, qc.code, qc=qc)
    return 0


def cmd_construct_isodual_qc(args):
    field = _parse_q(args.q)
    qc, verdict = qc_mod.construct_isodual_qc(
        field, args.l, args.m, cutoff=args.cutoff
    )
    _write_or_emit(args, qc.code, qc=qc,
                   annotations={"verdict": verdict.result, "witness": _witness_json(field, verdict.witness)})
    return VERDICT_EXIT[verdict.result]


def cmd_enumerate(args):
    cf = serialize.load_code(args.code)
    qc = _need_qc(cf, args.code)
    report = qc_mod.enumerate_multiplier_equivalents(qc)
    _emit({
        "p": report.p,
        "r": report.r,
        "tuples_counted": report.tuples_counted,
        "distinct_codes": report.distinct_codes,
        "orbit": [
            {"multipliers": list(labels), "code_index": idx}
            for labels, idx in report.orbit
        ],
    }, args)
    return 0


def cmd_selftest(args):
    report = selftest.run_all(seed=args.seed)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"seed: {report['seed']}")
        for name, suite in report["suites"].items():
            status = suite["status"].upper()
            detail = ", ".join(
                f"{k}={v}" for k, v in suite.items()
                if k not in ("status", "findings") and not isinstance(v, (list, dict))
            )
            print(f"  {status:4}  {name:24} {detail}")
            for finding in suite.get("findings", []):
                print(f"          finding: {json.dumps(finding)}")
        print("result:", "PASS" if report["ok"] else "FAIL")
    return 0 if report["ok"] else 1


# -- parser -----------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qckit",
        description="Algebra of quasi-cyclic codes over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output=False, cutoff=False):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if cutoff:
            p.add_argument("--cutoff", type=int, default=lc.DEFAULT_SEARCH_CUTOFF,
                           help="lengths searched without a node budget")
        if output:
            p.add_argument("-o", "--output", help="write the code file here")

    p = sub.add_parser("factor", help="classify the factors of Y^m - 1")
    p.add_argument("--q", required=True)
    p.add_argument("--m", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("decompose", help="constituent decomposition of a QC code")
    p.add_argument("code")
    common(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("dual", help="Euclidean dual of a code file")
    p.add_argument("code")
    common(p, output=True)
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("selfdual", help="is the QC code self-dual?")
    p.add_argument("code")
    common(p)
    p.set_defaults(fn=cmd_selfdual)

    p = sub.add_parser("isodual", help="is the QC code isodual?")
    p.add_argument("code")
    p.add_argument("--strategy", choices=["components", "bruteforce"],
                   default="components")
    common(p, cutoff=True)
    p.set_defaults(fn=cmd_isodual)

    p = sub.add_parser("equiv", help="equivalence tests")
    esub = p.add_subparsers(dest="kind", required=True)
    pe = esub.add_parser("linear", help="permutation/monomial equivalence")
    pe.add_argument("a")
    pe.add_argument("b")
    pe.add_argument("--mode", choices=["permutation", "monomial"],
                    default="permutation")
    common(pe, cutoff=True)
    pe.set_defaults(fn=cmd_equiv_linear)
    pe = esub.add_parser("cyclic", help="multiplier equivalence of cyclic codes")
    pe.add_argument("a")
    pe.add_argument("b")
    common(pe)
    pe.set_defaults(fn=cmd_equiv_cyclic)
    pe = esub.add_parser("qc", help="multiplier equivalence of QC codes")
    pe.add_argument("a")
    pe.add_argument("b")
    common(pe)
    pe.set_defaults(fn=cmd_equiv_qc)

    p = sub.add_parser("construct", help="constructions")
    csub = p.add_subparsers(dest="what", required=True)
    pc = csub.add_parser("isodual-cyclic")
    pc.add_argument("--q", required=True)
    pc.add_argument("--s", type=int, required=True)
    pc.add_argument("--variant", choices=["A", "B"], required=True)
    common(pc, output=True)
    pc.set_defaults(fn=cmd_construct_isodual_cyclic)
    pc = csub.add_parser("selfdual-qc")
    pc.add_argument("--q", required=True)
    pc.add_argument("--l", type=int, required=True)
    pc.add_argument("--m", type=int, required=True)
    common(pc, output=True)
    pc.set_defaults(fn=cmd_construct_selfdual_qc)
    pc = csub.add_parser("isodual-qc")
    pc.add_argument("--q", required=True)
    pc.add_argument("--l", type=int, required=True)
    pc.add_argument("--m", type=int, required=True)
    common(pc, output=True, cutoff=True)
    pc.set_defaults(fn=cmd_construct_isodual_qc)

    p = sub.add_parser("enumerate", help="multiplier-equivalent QC codes")
    p.add_argument("code")
    common(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("selftest", help="run every verification suite")
    p.add_argument("--seed", type=int, default=selftest.DEFAULT_SEED)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        status = _run(args)
        sys.stdout.flush()  # a reader that left early fails here, not at exit
        return status
    except BrokenPipeError:  # as the signal docs advise: stdout to devnull, so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


def _run(args):
    try:
        return args.fn(args)
    except QCKitError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
    except OSError as exc:
        error = {"type": "OSError", "message": str(exc)}
    except Exception as exc:  # a fault in qckit: still exit 2 with JSON, never 1
        error = {"type": "InternalError", "message": f"{type(exc).__name__}: {exc}"}
    print(json.dumps({"error": error}))
    return 2


if __name__ == "__main__":
    sys.exit(main())
