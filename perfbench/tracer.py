"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of every etaflow module, and
the public and arithmetic methods of the classes each module defines.  A
function is patched under every name that refers to it in any loaded
etaflow module (``etaflow.eta.omega_forms`` as well as
``etaflow.series.omega_forms``), so no call bypasses the wrapper.  The
layer of a callable is the module that defines it.  Self time is the
inclusive time minus the time spent in nested wrapped calls.
"""

from __future__ import annotations

import hashlib
import sys
import time
from fractions import Fraction

LAYERS = ("exact", "ring", "series", "spectral", "catalog", "eta", "cli")
ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__neg__", "__truediv__", "__rtruediv__", "__pow__"}
SERIALIZERS = {"payload_to_json", "payload_to_csv"}
KEYED_LAYERS = {"series", "eta"}


def _key(x) -> str:
    if x is None or isinstance(x, (bool, int, float, str, Fraction)):
        return repr(x)
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(_key(v) for v in x) + ")"
    name = getattr(x, "name", None)
    if isinstance(name, str):
        return f"{type(x).__name__}:{name}"
    return repr(x)


def call_key(qualname: str, args, kwargs) -> str:
    text = qualname + _key(args) + _key(sorted(kwargs.items()))
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


class Tracer:
    def __init__(self):
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts = {"ring.products": 0, "ring.peak_terms": 0,
                       "spectral.families": 0, "spectral.certified": 0,
                       "spectral.crossings": 0, "spectral.useful": 0,
                       "exact.quad_verdicts": 0, "catalog.table_entries": 0}
        self.serialize_s = 0.0
        self.keys = {layer: [] for layer in KEYED_LAYERS}
        self._stack = []

    # -- counters fed by the results of particular calls ---------------------

    def _hook(self, layer, qualname, args, result):
        c = self.counts
        if qualname.endswith("GradedClass.__mul__") or qualname.endswith(
                "GradedClass.__rmul__"):
            if len(args) > 1 and type(args[1]) is type(args[0]):
                c["ring.products"] += 1
                terms = getattr(result, "_terms", None)
                if terms is not None:
                    c["ring.peak_terms"] = max(c["ring.peak_terms"], len(terms))
        elif qualname.endswith("spectral.enumerate_families"):
            c["spectral.families"] += len(result[0])
        elif qualname.endswith("spectral.certify_no_crossing"):
            c["spectral.certified"] += result.status == "certified"
            c["spectral.crossings"] += len(result.crossings)
            c["spectral.useful"] += bool(
                result.crossings or result.zero_at_start or result.zero_at_eps)
        elif qualname.endswith("exact.quad_nonneg_on_interval"):
            c["exact.quad_verdicts"] += 1
        elif qualname.endswith("catalog.laplacian_table_load"):
            c["catalog.table_entries"] += sum(
                len(v) for v in getattr(result, "entries", {}).values())

    def _wrap(self, layer, qualname, fn, keyed=False):
        stack = self._stack
        self_s = self.self_s
        hook = self._hook
        perf = time.perf_counter
        keys = self.keys.get(layer) if keyed else None
        serializer = qualname.rsplit(".", 1)[-1] in SERIALIZERS

        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.append(call_key(qualname, args, kwargs))
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                nested = stack.pop()
                self_s[layer] += elapsed - nested
                if stack:
                    stack[-1] += elapsed
                if serializer:
                    self.serialize_s += elapsed
            hook(layer, qualname, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def install(self):
        """Wrap every loaded etaflow layer module; returns the number of
        callables wrapped."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "etaflow" or name.startswith("etaflow.")}
        replaced = {}
        for layer in LAYERS:
            mod = modules.get(f"etaflow.{layer}")
            if mod is None:
                continue
            for name, value in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if callable(value) and not isinstance(value, type) and \
                        getattr(value, "__module__", None) == mod.__name__:
                    replaced[id(value)] = self._wrap(layer, f"{layer}:{layer}.{name}", value,
                                                     keyed=layer in KEYED_LAYERS)
                elif isinstance(value, type) and value.__module__ == mod.__name__ \
                        and not issubclass(value, BaseException):
                    self._wrap_class(layer, value)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(mod, name, wrapper)
        return len(replaced)

    def _wrap_class(self, layer, cls):
        for name, value in list(vars(cls).items()):
            if name.startswith("_") and name not in ARITHMETIC:
                continue
            qualname = f"{layer}:{cls.__name__}.{name}"
            if isinstance(value, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(layer, qualname, value.__func__)))
            elif callable(value) and not isinstance(value, type):
                setattr(cls, name, self._wrap(layer, qualname, value))

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts),
                "serialize_s": self.serialize_s,
                "keys": {k: list(v) for k, v in self.keys.items()}}
