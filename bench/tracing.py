"""Per-layer tracing of finstack from outside the package.

`Tracer.install` replaces the public functions named in SPANNED with
wrappers at every binding site: finstack modules import each other with
`from .x import y`, so each importing module holds its own reference, and
all of them are rebound. Each wrapped call records a span (name, start,
end, parent, request) in flat arrays kept in memory; `Tracer.summary` sums
them into per-layer counts and self times and `Tracer.write_spans` writes
them to disk when the run ends.

FinSet, FinMap and atom_key run up to about a million times per request,
so they are counted without spans. Cache hit ratios come from the
`cache_info()` of the original lru caches, taken as deltas over the run.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

SPANNED = (
    "cli.main",
    "sitefile.load_site",
    "topology.is_canonical_cover",
    "topology.is_effective_epi",
    "topology.is_colim_sieve",
    "bundle.is_locally_trivial",
    "bundle.is_principal_bundle",
    "bundle.pullback_bundle",
    "bundle.check_trivialization",
    "bundle.enumerate_bundles",
    "bundle.torsor_structures",
    "bundle.enumerate_bundle_morphisms",
    "finset.pullback",
    "finset.coequalizer",
    "finset.coproduct",
    "finset.compose",
    "action.pullback_action",
    "action.check_action",
    "action.check_equivariant",
    "action.gset_isomorphism_over",
    "stack.restrict",
    "stack.restrict_morphism",
    "stack.qs_isomorphism",
    "stack.classifying_fiber_equiv",
    "descent.restrict_to_datum",
    "descent.check_cocycle",
    "descent.glue_object",
    "descent.glue_morphisms",
)
COUNTED = ("finset.atom_key",)
COUNTED_CLASSES = ("finset.FinSet", "finset.FinMap")
CACHED = ("finset.pullback", "finset.product", "stack.restrict")
ENUM = "bundle.enumerate_bundle_morphisms"


def _home(key):
    mod, attr = key.split(".")
    return sys.modules["finstack." + mod], attr


class Tracer:
    """Spans and counts for one process. Not thread-safe: finstack and the
    benchmark are single-threaded."""

    def __init__(self):
        self.name = array("H")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.current_request = 0
        self.counts = {key: [0] for key in COUNTED + COUNTED_CLASSES}
        self.enum = {"candidates": 0, "found": 0}
        self.caches = {}

    def install(self) -> None:
        import finstack  # noqa: F401 - loads the modules the package imports
        import finstack.cli  # noqa: F401 - and the ones it does not
        import finstack.sample  # noqa: F401
        import finstack.sitefile  # noqa: F401
        mods = [m for n, m in sys.modules.items()
                if n == "finstack" or n.startswith("finstack.")]

        def rebind(orig, wrapper):
            for m in mods:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapper)

        for key in CACHED:
            fn = getattr(*_home(key))
            self.caches[key] = (fn, fn.cache_info())
        for idx, key in enumerate(SPANNED):
            orig = getattr(*_home(key))
            rebind(orig, self._spanned(idx, orig, key == ENUM))
        for key in COUNTED:
            orig = getattr(*_home(key))
            rebind(orig, self._counted(self.counts[key], orig))
        for key in COUNTED_CLASSES:
            cls = getattr(*_home(key))
            cls.__init__ = self._counted(self.counts[key], cls.__init__)

    def _spanned(self, idx, fn, enum):
        name, parent, request = self.name, self.parent, self.request
        start, end, stack = self.start, self.end, self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(start)
            name.append(idx)
            parent.append(stack[-1] if stack else -1)
            request.append(tracer.current_request)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                start[sid] = t0
                stack.pop()
            if enum:
                src = kwargs["src"] if "src" in kwargs else args[0]
                dst = kwargs["dst"] if "dst" in kwargs else args[1]
                tracer.enum["candidates"] += len(dst.total.space) ** len(src.total.space)
                tracer.enum["found"] += len(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _counted(cell, fn):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        """Per-layer sums: span counts, self time (duration minus the time
        covered by child spans), plain counts and cache deltas."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = dict.fromkeys(SPANNED, 0)
        self_s = dict.fromkeys(SPANNED, 0.0)
        main_s = 0.0
        for i in range(n):
            key = SPANNED[self.name[i]]
            calls[key] += 1
            self_s[key] += dur[i] - child[i]
            if key == "cli.main":
                main_s += dur[i]
        for key, cell in self.counts.items():
            calls[key] = cell[0]
        caches = {}
        for key, (fn, before) in self.caches.items():
            after = fn.cache_info()
            caches[key] = {"hits": after.hits - before.hits,
                           "misses": after.misses - before.misses}
        return {"calls": calls, "self_s": self_s, "caches": caches,
                "enum": dict(self.enum), "main_s": main_s, "spans": n}

    def write_spans(self, path) -> None:
        """Spans as a JSON header line followed by the raw arrays."""
        header = {"names": list(SPANNED), "count": len(self.start),
                  "arrays": [["name", "H"], ["parent", "i"], ["request", "i"],
                             ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.request, self.start, self.end):
                arr.tofile(fh)
