"""Layer tracing installed from the benchmark's side of the API.

``Tracer.install`` replaces every module attribute in the ``qckit``
package that is bound to a traced function, so the library's internal
calls pass through the wrappers too (``factor_cyclic_modulus`` is bound
in ``polynomial``, ``quasi_cyclic``, ``cyclic`` and ``cli``; ``rref``
is looked up as a global of ``linear_code``).  Field and polynomial
methods are wrapped on their classes.

Calls of a traced function become spans (name, parent, start, end)
kept in flat arrays and written out when the pass ends.  Per-element
methods get counters only, to bound the overhead.  Only work inside an
item is reported: spans are kept when their root is an item span, and
counters are read as deltas around each item.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

SPANS = {
    "galois": ["poly_mul_raw", "poly_divmod_raw", "poly_gcd_raw", "poly_egcd_raw",
               "poly_powmod_raw", "make_field", "constituent_field"],
    "polynomial": ["factor_cyclic_modulus", "factor_unity"],
    "linear_code": ["rref", "euclidean_dual", "equivalence_search", "weight_distribution"],
    "cyclic": ["multiplier_apply", "defining_set", "cyclic_make"],
    "quasi_cyclic": ["qc_make", "crt_decompose", "crt_reconstruct", "qc_dual",
                     "is_selfdual", "is_isodual"],
    "serialize": ["code_to_json", "code_from_json"],
}

# (module, class) -> {method: counter}; every call counts, including calls
# one field method makes to another (FieldSpec.sub calls add and neg).
METHOD_COUNTERS = {
    ("galois", "FieldSpec"): {"mul": "galois.field_mul.calls", "add": "galois.field_add.calls",
                              "sub": "galois.field_add.calls", "neg": "galois.field_add.calls",
                              "inv": "galois.field_inv.calls"},
    ("galois", "ConstituentField"): {"mul": "galois.constituent_mul.calls"},
    ("polynomial", "Poly"): {m: "polynomial.Poly.arith.calls"
                             for m in ("__mul__", "__divmod__", "__mod__", "__floordiv__")},
    ("linear_code", "LinearCode"): {"contains": "linear_code.contains.calls"},
}

COUNTERS = sorted({c for table in METHOD_COUNTERS.values() for c in table.values()} | {
    "linear_code.apply_monomial.calls", "linear_code.equivalence_search.candidates",
    "quasi_cyclic.is_isodual.candidates", "linear_code.rref.rows_in", "linear_code.rref.rank",
    "polynomial.factor_cyclic_modulus.hits", "serialize.json_bytes",
})

POLY_KERNELS = SPANS["galois"][:5]


class Tracer:
    def __init__(self):
        self.names = ["item"]
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.slot = {name: i for i, name in enumerate(COUNTERS)}
        self.counts = [0] * len(COUNTERS)
        self.item_counts = [0] * len(COUNTERS)
        self.items = 0
        self.missing = []
        self._inside = {"equivalence_search": 0, "is_isodual": 0}
        self._factor_seen = set()
        self._open = None

    # -- span and counter wrappers ---------------------------------------

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _span(self, fn, name, before=None, after=None):
        nid = self._name_id(name)
        nids, parents, starts, ends, stack = self.nid, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = len(nids)
            nids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                if after is not None:
                    after(args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, counter):
        counts, slot = self.counts, self.slot[counter]

        def wrapper(*args):
            counts[slot] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _make(self, module, fname, fn):
        counts, slot, inside = self.counts, self.slot, self._inside
        name = f"{module}.{fname}"
        if fname == "rref":
            span = self._span(fn, name)
            rows_in, rank = slot["linear_code.rref.rows_in"], slot["linear_code.rref.rank"]

            def rref(field, rows, ncols):
                rows = rows if hasattr(rows, "__len__") else list(rows)
                result = span(field, rows, ncols)
                counts[rows_in] += len(rows)
                counts[rank] += len(result[0])
                return result
            return rref
        if fname == "factor_cyclic_modulus":
            hits, seen = slot["polynomial.factor_cyclic_modulus.hits"], self._factor_seen

            def note(args, kwargs):
                key = (args + tuple(kwargs.values()))[:2]
                if key in seen:
                    counts[hits] += 1
                seen.add(key)
            return self._span(fn, name, before=note)
        if fname in inside:
            def enter(args, kwargs):
                inside[fname] += 1

            def leave(args, kwargs):
                inside[fname] -= 1
            if fname == "equivalence_search":
                return self._span(fn, name, before=enter, after=leave)
            by_strategy = {s: self._span(fn, f"{name}.{s}", before=enter, after=leave)
                           for s in ("components", "bruteforce")}

            def is_isodual(qc, strategy="components", *args, **kwargs):
                return by_strategy.get(strategy, by_strategy["components"])(
                    qc, strategy, *args, **kwargs)
            return is_isodual
        return self._span(fn, name)

    def _apply_monomial(self, fn):
        counts, inside = self.counts, self._inside
        total = self.slot["linear_code.apply_monomial.calls"]
        in_eq = self.slot["linear_code.equivalence_search.candidates"]
        in_iso = self.slot["quasi_cyclic.is_isodual.candidates"]

        def apply_monomial(*args, **kwargs):
            counts[total] += 1
            if inside["equivalence_search"]:
                counts[in_eq] += 1
            elif inside["is_isodual"]:
                counts[in_iso] += 1
            return fn(*args, **kwargs)
        return apply_monomial

    def install(self):
        """Wrap every binding of the traced functions in the loaded qckit modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "qckit" or name.startswith("qckit."))]
        plan = [(mod, fname, None) for mod, fnames in SPANS.items() for fname in fnames]
        plan.append(("linear_code", "apply_monomial", "apply_monomial"))
        for module, fname, special in plan:
            home = sys.modules.get(f"qckit.{module}")
            original = getattr(home, fname, None)
            if original is None:
                self.missing.append(f"{module}.{fname}")
                continue
            if special:
                wrapper = self._apply_monomial(original)
            else:
                wrapper = self._make(module, fname, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        for (module, clsname), methods in METHOD_COUNTERS.items():
            cls = getattr(sys.modules.get(f"qckit.{module}"), clsname, None)
            for meth, counter in methods.items():
                original = getattr(cls, meth, None)
                if original is None:
                    self.missing.append(f"{module}.{clsname}.{meth}")
                    continue
                setattr(cls, meth, self._counted(original, counter))

    # -- items ------------------------------------------------------------

    def begin_item(self):
        i = len(self.nid)
        self.nid.append(0)
        self.parent.append(-1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self._open = (i, list(self.counts))
        self.start[i] = time.perf_counter()

    def end_item(self, extra=None):
        i, before = self._open
        self.end[i] = time.perf_counter()
        self.stack.pop()
        for k, (a, b) in enumerate(zip(before, self.counts)):
            self.item_counts[k] += b - a
        for counter, value in (extra or {}).items():
            self.item_counts[self.slot[counter]] += value
        self.items += 1

    # -- results ----------------------------------------------------------

    def totals(self, scale=1.0):
        """Per-name self time, inclusive time and call count, inside items only.

        Times are multiplied by ``scale``, the worker's machine-speed factor.
        """
        n = len(self.nid)
        nid, parent, start, end = self.nid, self.parent, self.start, self.end
        child = [0.0] * n
        in_item = [False] * n
        for i in range(n):
            p = parent[i]
            if p < 0:
                in_item[i] = nid[i] == 0
            else:
                in_item[i] = in_item[p]
                child[p] += end[i] - start[i]
        out = {}
        for i in range(n):
            if in_item[i]:
                rec = out.setdefault(self.names[nid[i]], [0.0, 0.0, 0])
                dur = end[i] - start[i]
                rec[0] += (dur - child[i]) * scale
                rec[1] += dur * scale
                rec[2] += 1
        return {
            "items": self.items,
            "spans": {k: {"self_s": v[0], "total_s": v[1], "calls": v[2]} for k, v in out.items()},
            "counts": dict(zip(COUNTERS, self.item_counts)),
            "missing": self.missing,
        }

    def write(self, path):
        """Spans as one JSON header line followed by the raw arrays."""
        header = {"names": self.names, "count": len(self.nid),
                  "arrays": ["nid:int32", "parent:int32", "start:float64", "end:float64"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.nid, self.parent, self.start, self.end):
                arr.tofile(fh)


def per_layer(traces, untraced_s, traced_s, cli):
    """Per-layer metrics per item from the summed totals of traced passes."""
    items = sum(t["items"] for t in traces) or 1
    spans, counts = {}, {c: 0 for c in COUNTERS}
    for t in traces:
        for name, rec in t["spans"].items():
            acc = spans.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            for k in acc:
                acc[k] += rec[k]
        for name, value in t["counts"].items():
            counts[name] += value

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0) / items

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def per_item(counter):
        return counts[counter] / items

    m = {}
    for c in ("galois.field_mul.calls", "galois.field_add.calls", "galois.field_inv.calls",
              "galois.constituent_mul.calls", "polynomial.Poly.arith.calls",
              "linear_code.contains.calls", "linear_code.apply_monomial.calls",
              "linear_code.equivalence_search.candidates", "quasi_cyclic.is_isodual.candidates",
              "linear_code.rref.rows_in"):
        m[c] = (per_item(c), "count/item")
    m["galois.poly_kernels.s"] = (sum(self_s(f"galois.{k}") for k in POLY_KERNELS), "s/item")
    m["galois.poly_divmod_raw.calls"] = (calls("galois.poly_divmod_raw") / items, "count/item")
    for name in ("galois.make_field", "galois.constituent_field",
                 "polynomial.factor_cyclic_modulus", "polynomial.factor_unity",
                 "linear_code.rref", "linear_code.euclidean_dual",
                 "linear_code.equivalence_search", "linear_code.weight_distribution",
                 "cyclic.multiplier_apply", "cyclic.defining_set", "cyclic.cyclic_make",
                 "quasi_cyclic.qc_make", "quasi_cyclic.crt_decompose",
                 "quasi_cyclic.crt_reconstruct", "quasi_cyclic.qc_dual", "quasi_cyclic.is_selfdual",
                 "quasi_cyclic.is_isodual.components", "quasi_cyclic.is_isodual.bruteforce",
                 "serialize.code_to_json", "serialize.code_from_json"):
        m[f"{name}.s"] = (self_s(name), "s/item")
    # These delegate most of their work to child spans, so their inclusive
    # time is reported beside their self time; factor_cyclic_modulus minus
    # factor_unity inclusive is the cost of the classification and its checks.
    for name in ("polynomial.factor_cyclic_modulus", "polynomial.factor_unity",
                 "linear_code.equivalence_search", "quasi_cyclic.is_isodual.components",
                 "quasi_cyclic.is_isodual.bruteforce"):
        m[f"{name}.total_s"] = (spans.get(name, {}).get("total_s", 0.0) / items, "s/item")
    for name in ("polynomial.factor_cyclic_modulus", "linear_code.rref",
                 "linear_code.equivalence_search", "cyclic.multiplier_apply"):
        m[f"{name}.calls"] = (calls(name) / items, "count/item")
    fcm = calls("polynomial.factor_cyclic_modulus")
    m["polynomial.factor_cyclic_modulus.hit_ratio"] = (
        counts["polynomial.factor_cyclic_modulus.hits"] / fcm if fcm else 0.0, "ratio")
    rows_in = counts["linear_code.rref.rows_in"]
    m["linear_code.rref.rank_per_row"] = (
        counts["linear_code.rref.rank"] / rows_in if rows_in else 0.0, "ratio")
    m["serialize.json_bytes"] = (per_item("serialize.json_bytes"), "B/item")
    for module in SPANS:
        m[f"{module}.self_s"] = (sum(rec["self_s"] for name, rec in spans.items()
                                     if name.startswith(module + ".")) / items, "s/item")
    m["item.self_s"] = (self_s("item"), "s/item")
    m["cli.import_s"] = (cli["import_s"], "s")
    m["cli.process_s"] = (cli["process_s"], "s")
    m["trace.overhead_ratio"] = (traced_s / untraced_s if untraced_s else 0.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
