"""Outside-in tracing of one CLI job, installed inside the child process.

The public functions of each layer are wrapped from here; the program's
sources are not touched.  Each wrapped name is rebound in every
`smsquiver` module that imported it, and methods are patched on their
classes.  Functions called very often (more than about 10^4 times per
job) are only counted, because a span around each call would distort the
layers that call them.  Spans stay in memory and are written once, when
the job ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (module, function) pairs that get a span per call.
SPANNED_FUNCTIONS = (
    ("cli", "main"),
    ("ztquiver", "quotient"),
    ("ztquiver", "automorphisms"),
    ("meshcat", "quotient_hom_table"),
    ("meshcat", "fast_table"),
    ("meshcat", "oracle_table"),
    ("configs", "enumerate_configurations"),
    ("configs", "orbit_decomposition"),
    ("brauer", "count_brauer_trees"),
    ("mutation", "build_mutation_quiver"),
)
SPANNED_METHODS = (
    ("nakayama", "NakayamaAlgebra", "is_sms"),
    ("nakayama", "NakayamaAlgebra", "ext_closure"),
    ("nakayama", "NakayamaAlgebra", "orthogonal_candidates"),
    ("nakayama", "NakayamaAlgebra", "minimal_left_approximation"),
    ("nakayama", "NakayamaAlgebra", "minimal_right_approximation"),
    ("nakayama", "NakayamaAlgebra", "mutate_left"),
    ("nakayama", "NakayamaAlgebra", "mutate_right"),
)
# Called too often to span: counted only (extension_middles too, in install).
COUNTED_FUNCTIONS = (("linalg", "integer_rank"),)
COUNTED_METHODS = (
    ("ztquiver", "StableTranslationQuiver", "deck"),
    ("ztquiver", "StableTranslationQuiver", "canonical"),
    ("nakayama", "NakayamaAlgebra", "stable_hom_dim"),
)
# Imported first, so that every module holding one of the names is rebound.
MODULES = ("linalg", "ztquiver", "meshcat", "configs", "brauer", "nakayama",
           "mutation", "acceptance", "cli")


class Tracer:
    """Spans as [id, parent, name, start, end] plus per-name counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.middle_keys: set = set()

    def spanned(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else None, name, 0.0, 0.0]
            spans.append(span)
            stack.append(sid)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "extension_middles.distinct": len(self.middle_keys)}


def _rebind(name: str, old, new) -> None:
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("smsquiver") and mod.__dict__.get(name) is old:
            setattr(mod, name, new)


def install() -> Tracer:
    """Wrap every traced function of the imported `smsquiver` package."""
    mods = {m: importlib.import_module(f"smsquiver.{m}") for m in MODULES}
    tracer = Tracer()
    canon = mods["nakayama"]._canon
    serial = mods["nakayama"].SerialModule

    def on_is_sms(result):
        tracer.counts["nakayama.is_sms.accepted"] += bool(result)

    def on_configs(result):
        tracer.counts["configs.configurations"] += len(result)

    def on_quiver(result):
        tracer.counts["mutation.new_vertices"] += len(result.vertices) - 1

    hooks = {"is_sms": on_is_sms, "enumerate_configurations": on_configs,
             "build_mutation_quiver": on_quiver}

    for mod, fname in SPANNED_FUNCTIONS:
        fn = getattr(mods[mod], fname)
        _rebind(fname, fn, tracer.spanned(f"{mod}.{fname}", fn, hooks.get(fname)))
    for mod, fname in COUNTED_FUNCTIONS:
        fn = getattr(mods[mod], fname)
        _rebind(fname, fn, tracer.counted(f"{mod}.{fname}", fn))
    for mod, cls_name, meth in SPANNED_METHODS:
        cls = getattr(mods[mod], cls_name)
        fn = cls.__dict__[meth]
        setattr(cls, meth, tracer.spanned(f"{mod}.{meth}", fn, hooks.get(meth)))
    for mod, cls_name, meth in COUNTED_METHODS:
        cls = getattr(mods[mod], cls_name)
        setattr(cls, meth, tracer.counted(f"{mod}.{meth}", cls.__dict__[meth]))

    # extension_middles: counted, with its distinct (algebra, sub, quot) cache keys
    cls = mods["nakayama"].NakayamaAlgebra
    middles = cls.extension_middles
    counts, keys = tracer.counts, tracer.middle_keys

    def extension_middles(self, sub, quot):
        counts["nakayama.extension_middles"] += 1
        keys.add((self.e, self.L, canon((sub,) if isinstance(sub, serial) else sub), quot))
        return middles(self, sub, quot)

    cls.extension_middles = extension_middles
    return tracer
