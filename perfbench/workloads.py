"""The four benchmark workloads.

Each workload draws the items of one pass from a fixed pool that
``record.py`` wrote into ``expected/<workload>.json``, and for every item it has
three steps:

* ``prepare`` builds the inputs from seeded integers, turning them into
  field elements only through ``field.element_from_coeffs``;
* ``call`` is the timed part: public qckit calls and nothing else;
* ``summary`` reduces the outputs to values that do not depend on how
  field elements are represented (coefficient lists, digests, verdicts),
  and ``check`` re-verifies the outputs with the independent arithmetic
  of ``gf.py``.

A pool slot fixes the shape of an item (field, length, ...); its
variants differ only in seeded content.  A pass takes one variant of
every slot, so passes drawn from different seeds cost about the same.
"""

from __future__ import annotations

import json
import math
import random

from gf import GF, apply_witness, cyclotomic_cosets, digest, orthogonal, unity_minus_one


def matrix(code):
    """The canonical generator matrix as coefficient lists."""
    f = code.field
    return [[f.coeffs_of(a) for a in row] for row in code.gen]


def int_rows(gf, code):
    f = code.field
    return [[gf.index(f.coeffs_of(a)) for a in row] for row in code.gen]


def poly_coeffs(poly):
    f = poly.field
    return [f.coeffs_of(c) for c in poly.coeffs]


def units(n):
    return [a for a in range(1, n + 1) if math.gcd(a, n) == 1]


class _Workload:
    name = ""

    def __init__(self):
        self._gf = {}

    def field(self, qckit, q):
        field = qckit.field_from_q(q)
        if q not in self._gf:
            self._gf[q] = GF.of(field)
        return field, self._gf[q]

    def pass_items(self, pool, seed, pass_index):
        """One variant of every slot, chosen by the seed."""
        rng = random.Random(f"{self.name}:{seed}:{pass_index}")
        return [f"{j}/{rng.choice(slot['variants'])}" for j, slot in enumerate(pool["slots"])]

    def random_qc(self, qckit, slot, key):
        """Seeded rows of a QC code: random vectors, each with its m shifts."""
        j, v = key.split("/")
        q, l, m = slot["q"], slot["l"], slot["m"]
        field, gf = self.field(qckit, q)
        rng = random.Random(f"{self.name}:{j}:{v}")
        n = l * m
        count = slot.get("vectors") or rng.randrange(1, max(2, n // 2 + 1))
        vectors = [[[rng.randrange(gf.p) for _ in range(gf.e)] for _ in range(n)]
                   for _ in range(count)]
        elems = [[field.element_from_coeffs(c) for c in vec] for vec in vectors]
        rows = [tuple(vec[(i - s * l) % n] for i in range(n)) for vec in elems for s in range(m)]
        return {"field": field, "gf": gf, "l": l, "m": m, "rows": rows,
                "vectors": [[gf.index(c) for c in vec] for vec in vectors]}


class QCPipeline(_Workload):
    """qc_make -> crt_decompose -> crt_reconstruct -> qc_dual -> is_selfdual,
    optionally followed by a JSON round trip."""

    def __init__(self, name, serialize):
        super().__init__()
        self.name = name
        self.serialize = serialize

    def prepare(self, qckit, pool, key):
        return self.random_qc(qckit, pool["slots"][int(key.split("/")[0])], key)

    def call(self, qckit, x):
        qc = qckit.qc_make(x["field"], x["l"], x["m"], x["rows"])
        dec = qckit.crt_decompose(qc)
        rt = qckit.crt_reconstruct(dec)
        dual = qckit.qc_dual(qc)
        sd = qckit.is_selfdual(qc)
        out = {"qc": qc, "dec": dec, "rt": rt, "dual": dual, "selfdual": sd.result}
        if self.serialize:
            text = json.dumps(qckit.code_to_json(qc.code, qc=qc))
            out["back"] = qckit.code_from_json(json.loads(text))
            out["json_bytes"] = len(text)
        return out

    def summary(self, x, out):
        return {"code": digest(matrix(out["qc"].code)), "dual": digest(matrix(out["dual"].code)),
                "k": out["qc"].code.k, "kd": out["dual"].code.k, "selfdual": bool(out["selfdual"])}

    def check(self, x, out):
        gf, qc, dual = x["gf"], out["qc"], out["dual"]
        code_rows, dual_rows = int_rows(gf, qc.code), int_rows(gf, dual.code)
        problems = []
        if qc.code.k + dual.code.k != qc.n:
            problems.append("k + k_dual != n")
        if not orthogonal(gf, code_rows, dual_rows):
            problems.append("dual rows are not orthogonal to the code")
        if not orthogonal(gf, x["vectors"], dual_rows):
            problems.append("input vectors are not orthogonal to the dual")
        if int_rows(gf, out["rt"].code) != code_rows:
            problems.append("CRT reconstruction differs from the code")
        dec = out["dec"]
        if sum(f.degree * c.k for f, c in zip(dec.factors, dec.comps)) != qc.code.k:
            problems.append("constituent dimensions do not add up to k")
        if bool(out["selfdual"]) != (code_rows == dual_rows):
            problems.append("is_selfdual disagrees with the dual")
        if self.serialize:
            back = out["back"]
            if int_rows(gf, back.code) != code_rows or (back.qc.l, back.qc.m) != (x["l"], x["m"]):
                problems.append("JSON round trip changed the code")
        return problems


class IsodualSearch(_Workload):
    """is_isodual with the components strategy, then with bruteforce."""

    name = "isodual_search"
    cutoff = 8

    def prepare(self, qckit, pool, key):
        x = self.random_qc(qckit, pool["slots"][int(key.split("/")[0])], key)
        x["qc"] = qckit.qc_make(x["field"], x["l"], x["m"], x["rows"])
        return x

    def call(self, qckit, x):
        qc = x["qc"]
        return {"components": qckit.is_isodual(qc, strategy="components", cutoff=self.cutoff),
                "bruteforce": qckit.is_isodual(qc, strategy="bruteforce", cutoff=self.cutoff)}

    def summary(self, x, out):
        return {"code": digest(matrix(x["qc"].code)), "bruteforce": out["bruteforce"].result}

    def check(self, x, out):
        gf, qc = x["gf"], x["qc"]
        field = qc.field
        code_rows = int_rows(gf, qc.code)
        problems = []
        if 2 * qc.code.k != qc.n:
            problems.append("pool code is not of rate 1/2")
        if out["bruteforce"].result == "isodual" and out["bruteforce"].witness is None:
            problems.append("bruteforce isodual verdict without a witness")
        for strategy, verdict in out.items():
            w = verdict.witness
            if verdict.result != "isodual" or w is None:
                continue
            diag = [gf.index(field.coeffs_of(d)) for d in w.diag]
            image = [apply_witness(gf, w.perm, diag, row) for row in code_rows]
            if 0 in diag or not orthogonal(gf, image, code_rows):
                problems.append(f"{strategy} witness does not map the code onto its dual")
        return problems


class FactorCyclic(_Workload):
    """Cold factorizations of Y^m - 1, then cyclic codes and their multipliers."""

    name = "factor_cyclic"

    def pass_items(self, pool, seed, pass_index):
        rng = random.Random(f"{self.name}:{seed}:{pass_index}")
        pairs = [rng.choice(bucket) for bucket in pool["pair_buckets"]]
        cyclic = [f"cyc/{j}/{rng.randrange(len(slot['divisors']))}"
                  for j, slot in enumerate(pool["cyclic_slots"])]
        return [f"pair/{q},{m}" for q, m in pairs] + cyclic

    def prepare(self, qckit, pool, key):
        kind, rest = key.split("/", 1)
        if kind == "pair":
            q, m = map(int, rest.split(","))
            field, gf = self.field(qckit, q)
            return {"kind": kind, "field": field, "gf": gf, "m": m}
        j, v = map(int, rest.split("/"))
        slot = pool["cyclic_slots"][j]
        field, gf = self.field(qckit, slot["q"])
        g = qckit.Poly(field, [field.element_from_coeffs(c) for c in slot["divisors"][v]])
        return {"kind": kind, "field": field, "gf": gf, "n": slot["n"], "g": g}

    def call(self, qckit, x):
        if x["kind"] == "pair":
            return {"cls": qckit.factor_cyclic_modulus(x["field"], x["m"])}
        code = qckit.cyclic_make(x["field"], x["n"], x["g"])
        images = [qckit.multiplier_apply(code, a) for a in units(x["n"])]
        return {"images": images, "defining_set": qckit.defining_set(code)}

    def summary(self, x, out):
        if x["kind"] == "pair":
            cls = out["cls"]
            factors = sorted(poly_coeffs(f) for f in cls.all_factors())
            return {"factors": digest(factors), "s": cls.s, "t": cls.t}
        return {"images": digest([poly_coeffs(c.g) for c in out["images"]])}

    def check(self, x, out):
        gf = x["gf"]
        field = x["field"]
        problems = []
        if x["kind"] == "pair":
            cls, m = out["cls"], x["m"]
            factors = cls.all_factors()
            prod = [gf.index(field.coeffs_of(cls.delta))]
            for f in factors:
                prod = gf.poly_mul(prod, [gf.index(c) for c in poly_coeffs(f)])
            if prod != unity_minus_one(gf, m):
                problems.append("factors do not multiply to Y^m - 1")
            if len(factors) != len(cyclotomic_cosets(gf.q, m)) or cls.s + 2 * cls.t != len(factors):
                problems.append("factor count differs from the cyclotomic coset count")
            return problems
        n, deg = x["n"], x["g"].degree or 0
        ds = set(out["defining_set"])
        if len(ds) != deg:
            problems.append("defining set size differs from deg g")
        if any(not (c <= ds or not (c & ds)) for c in cyclotomic_cosets(gf.q, n)):
            problems.append("defining set is not a union of cyclotomic cosets")
        if any((img.g.degree or 0) != deg for img in out["images"]):
            problems.append("a multiplier image changed the dimension")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        QCPipeline("qc_corpus", serialize=True),
        QCPipeline("binary_large", serialize=False),
        FactorCyclic(),
        IsodualSearch(),
    )
}
