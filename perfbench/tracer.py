"""Outside-in tracing of the bihomtrias package, for the traced benchmark run.

Nothing in the package changes.  ``Tracer.install`` wraps, from outside:

- every public module-level function of every ``bihomtrias`` module,
  rebinding the name in each package module (and the package itself)
  that holds the same function object, so intra-package calls are seen;
- the methods of ``Scalar`` and ``MulTensor``, on the class;
- every ``to_dict`` method of a package class, plus ``json.dumps`` as
  the ``cli`` module sees it (the structured-output serialization).

Each call is a span.  Spans are folded into per-key aggregates in memory
as they close (a full span list would hold millions of Scalar calls) and
read out when the run ends.  A key's *incl* time counts only its
outermost span, so nested or grouped calls are not counted twice; its
*self* time is the span's duration minus the time covered by its child
spans.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from collections import Counter

# Functions folded into one key (inner calls of the same key are nested spans).
GROUPS = {
    "matrices.in_span": "matrices.span",
    "matrices.row_space": "matrices.span",
    "matrices.span_intersection": "matrices.span",
    "documents.parse_algebra": "documents.parse",
    "documents.parse_operator": "documents.parse",
    "documents.serialize_algebra": "documents.serialize",
    "documents.serialize_operator": "documents.serialize",
    "documents.algebra_to_document": "documents.serialize",
    "reports.map_to_strings": "reports.serialize",
    "reports.vector_to_strings": "reports.serialize",
    "reports.witness_to_dict": "reports.serialize",
}

SCALAR_METHODS = {
    "__add__": "addsub", "__radd__": "addsub", "__sub__": "addsub", "__rsub__": "addsub",
    "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div",
    "__eq__": "eq", "is_zero": "is_zero",
    "__init__": "other", "__neg__": "other", "conjugate": "other",
    "__hash__": "other", "__bool__": "other",
}

MULTENSOR_METHODS = ("bilinear", "pair", "nonzero_entries")


class Tracer:
    def __init__(self):
        self.stats = {}          # key -> [calls, outermost incl seconds, self seconds]
        self.extra = Counter()   # derived counts recorded by result hooks
        self._stack = [0.0]      # child-time accumulator per open span
        self._depth = Counter()
        self._undo = []
        self.hooks = {
            "matrices.rref": self._rref_cells,
            "derivations.derivation_system": self._system_rows,
            "centroids.centroid_space": self._centroid,
            "core.check_axioms": self._witnesses,
            "core.check_multiplicativity": self._witnesses,
            "reports.serialize": self._json_bytes,
        }

    # -- result hooks ------------------------------------------------------

    def _rref_cells(self, args, result):
        self.extra["matrices.rref_cells"] += args[0].rows * args[0].cols

    def _system_rows(self, args, result):
        self.extra["derivations.system_rows"] += result.rows

    def _centroid(self, args, result):
        self.extra["centroids.obstruction_polys"] += len(result.obstruction)
        self.extra["centroids.method." + result.method] += 1

    def _witnesses(self, args, result):
        self.extra["core.witnesses"] += sum(len(r.witnesses) for r in result.results)

    def _json_bytes(self, args, result):
        if isinstance(result, str):
            self.extra["reports.json_bytes"] += len(result.encode())

    # -- wrapping ----------------------------------------------------------

    def wrap(self, key, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack, depth, hook = self._stack, self._depth, self.hooks.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            depth[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                depth[key] -= 1
                stats[0] += 1
                if not depth[key]:
                    stats[1] += elapsed
                stats[2] += elapsed - child
                stack[-1] += elapsed
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self, extra=()):
        """Wrap the package; ``extra`` holds (module, name, key) for benchmark-side
        functions that should open a span too."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "bihomtrias" or n.startswith("bihomtrias.")) and m is not None]
        wrapped = {}  # id(original) -> wrapper
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    key = f"{short}.{name}"
                    wrapped[id(obj)] = (obj, self.wrap(GROUPS.get(key, key), obj))
        for mod, name, key in extra:
            obj = getattr(mod, name)
            wrapped[id(obj)] = (obj, self.wrap(key, obj))
        for mod in modules + [m for m, _, _ in extra]:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])

        scalars, core, cli = (sys.modules[f"bihomtrias.{m}"] for m in ("scalars", "core", "cli"))
        for attr, kind in SCALAR_METHODS.items():
            original = scalars.Scalar.__dict__[attr]
            if isinstance(original, property):
                value = property(self.wrap(f"scalars.{kind}", original.fget))
            else:
                value = self.wrap(f"scalars.{kind}", original)
            self._set(scalars.Scalar, attr, value)
        for attr in MULTENSOR_METHODS:
            self._set(core.MulTensor, attr,
                      self.wrap(f"core.{attr}", core.MulTensor.__dict__[attr]))
        for mod in modules:
            for obj in vars(mod).values():
                if (inspect.isclass(obj) and obj.__module__ == mod.__name__
                        and "to_dict" in obj.__dict__):
                    self._set(obj, "to_dict", self.wrap("reports.serialize", obj.__dict__["to_dict"]))
        proxy = types.SimpleNamespace(**vars(json))
        proxy.dumps = self.wrap("reports.serialize", json.dumps)
        self._set(cli, "json", proxy)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- read-out ------------------------------------------------------------

    def calls(self, key):
        return self.stats.get(key, [0, 0.0, 0.0])[0]

    def incl_ms(self, key):
        return self.stats.get(key, [0, 0.0, 0.0])[1] * 1000.0

    def self_ms(self, prefix):
        return sum(s[2] for k, s in self.stats.items() if k.startswith(prefix)) * 1000.0


def layer_metrics(tracer, ops):
    """Per-op layer metrics from the aggregates of ``ops`` traced ops."""
    t = tracer
    per = 1.0 / ops
    counts = {
        "scalars.mul_calls": t.calls("scalars.mul"),
        "scalars.addsub_calls": t.calls("scalars.addsub"),
        "scalars.div_calls": t.calls("scalars.div"),
        "scalars.is_zero_calls": t.calls("scalars.is_zero"),
        "scalars.eq_calls": t.calls("scalars.eq"),
        "matrices.rref_calls": t.calls("matrices.rref"),
        "matrices.rref_cells": t.extra["matrices.rref_cells"],
        "matrices.nullspace_calls": t.calls("matrices.nullspace"),
        "matrices.span_calls": t.calls("matrices.span"),
        "matrices.inverse_calls": t.calls("matrices.inverse"),
        "core.check_axioms_calls": t.calls("core.check_axioms"),
        "core.bilinear_calls": t.calls("core.bilinear"),
        "core.witnesses": t.extra["core.witnesses"],
        "coordinate.detail_calls": t.calls("coordinate.coordinate_detail"),
        "derivations.space_calls": t.calls("derivations.derivation_space"),
        "derivations.system_rows": t.extra["derivations.system_rows"],
        "derivations.is_derivation_calls": t.calls("derivations.is_derivation"),
        "centroids.space_calls": t.calls("centroids.centroid_space"),
        "centroids.obstruction_polys": t.extra["centroids.obstruction_polys"],
        "centroids.is_centroid_element_calls": t.calls("centroids.is_centroid_element"),
        "documents.parse_calls": t.calls("documents.parse"),
    }
    for method in ("full", "linear-part-reduction", "exact-conic", "coordinate-search"):
        counts["centroids.method." + method] = t.extra["centroids.method." + method]
    times = {
        "scalars.self_ms": t.self_ms("scalars."),
        "matrices.rref_ms": t.incl_ms("matrices.rref"),
        "matrices.span_ms": t.incl_ms("matrices.span"),
        "core.check_axioms_ms": t.incl_ms("core.check_axioms"),
        "core.check_multiplicativity_ms": t.incl_ms("core.check_multiplicativity"),
        "core.bilinear_ms": t.incl_ms("core.bilinear"),
        "coordinate.detail_ms": t.incl_ms("coordinate.coordinate_detail"),
        "derivations.space_ms": t.incl_ms("derivations.derivation_space"),
        "derivations.system_ms": t.incl_ms("derivations.derivation_system"),
        "centroids.stage1_ms": t.incl_ms("centroids.centroid_linear_space"),
        "centroids.stage23_ms": t.incl_ms("centroids.centroid_space")
        - t.incl_ms("centroids.centroid_linear_space"),
        "centroids.central_derivations_ms": t.incl_ms("centroids.central_derivations"),
        "centroids.cent_der_suite_ms": t.incl_ms("centroids.cent_der_property_suite"),
        "transforms.transport_ms": t.incl_ms("transforms.transport"),
        "transforms.direct_sum_ms": t.incl_ms("transforms.direct_sum"),
        "catalog.verify_entry_self_ms": t.self_ms("catalog.verify_entry"),
        "catalog.fingerprint_ms": t.incl_ms("catalog.fingerprint"),
        "reports.serialize_ms": t.incl_ms("reports.serialize"),
        "documents.parse_ms": t.incl_ms("documents.parse"),
        "documents.serialize_ms": t.incl_ms("documents.serialize"),
        "cli.main_ms": t.incl_ms("cli.main"),
    }
    out = {name: (value * per, "count") for name, value in counts.items()}
    out.update({name: (value * per, "ms") for name, value in times.items()})
    out["reports.json_bytes"] = (t.extra["reports.json_bytes"] * per, "bytes")
    return out
