"""Span tracer that wraps superalt's public entry points from outside.

Nothing under src/ is edited: `Tracer.install()` replaces functions and
methods by timing wrappers in every loaded module that holds them, and
`Tracer.uninstall()` puts every original back.

Two kinds of wrapper:

- span wrappers, for entry points of the laws, operators, bimodules,
  constructions, corpus, io and cli modules.  Each call becomes a span
  (id, parent id, op id, name, start, end, time covered by children, info)
  kept in memory;
- hot wrappers, for `core` constructors and `apply` methods and for the
  steps of the even-map enumerator.  These run millions of times, so they
  are aggregated per (enclosing span, name) into calls, total and self time.
  `Field.coerce` is only counted.

A span's self time is its duration minus the time its child spans and hot
calls cover, so the self times of one op's spans and hot calls add up to the
op's duration exactly.  Spans inside forked scan workers (the CLI's `--jobs`
pool) are recorded in the worker's copy of the tracer and discarded.
"""

from __future__ import annotations

import sys
import time

_now = time.perf_counter_ns

# (module, function) pairs that become spans; the layer is the module name.
SPAN_FUNCTIONS = {
    "laws": ("check_product_law", "check_pre_law", "check_morphism", "calibrate_jordan"),
    "operators": ("check_operator", "check_o_operator", "o_induced", "search_operators"),
    "bimodules": (
        "check_alt_bimodule", "check_pre_bimodule", "regular_bimodule", "twist_bimodule",
        "project_bimodule", "rb_induced_bimodules", "calibrate_pre_bimodule",
    ),
    "constructions": (
        "alt_of", "transpose", "plus_jordan", "tensor_alt", "tensor_map", "centroid_twist",
        "averaging_product", "rb_split", "yau_twist", "derived_n", "scale",
    ),
    "corpus": (
        "zero", "grassmann1", "grassmann1_twisted", "truncpoly", "integration", "octonions",
        "matrix_algebra", "reduce_instance", "reduce_map", "perturb_bilinear",
        "perturb_product", "perturb_pre", "sanity_table", "standard_pre_instances",
        "jordan_calibration_instances", "build_named",
    ),
    "io": ("canonical_dumps", "parse_text", "load", "save", "object_to_doc"),
    "cli": ("main",),
}

# (class, method) pairs aggregated per enclosing span.
HOT_METHODS = (
    ("core", "Vector", "__init__", "core.vector_new"),
    ("core", "EvenMap", "__init__", "core.evenmap_new"),
    ("core", "EvenMap", "apply", "core.map_apply"),
    ("core", "EvenBilinear", "__init__", "core.bilinear_new"),
    ("core", "EvenBilinear", "apply", "core.bilinear_apply"),
)
HOT_GENERATORS = (
    ("operators", "enumerate_even_maps", "operators.enumerate"),
    ("operators", "enumerate_signed_permutation_maps", "operators.enumerate"),
)
COUNTED_METHODS = (
    ("fields", "RationalField", "coerce"),
    ("fields", "PrimeField", "coerce"),
)


def _info(name, args, result):
    """Per-span numbers the layer metrics need: tuples, candidates, bytes."""
    if hasattr(result, "checked") and hasattr(result, "passed"):
        return {"checked": result.checked}
    if hasattr(result, "candidates_checked"):
        return {"candidates": result.candidates_checked, "found": len(result.found)}
    if name == "io.canonical_dumps":
        return {"bytes": len(result)}
    if name == "io.parse_text" and args and isinstance(args[0], str):
        return {"bytes": len(args[0])}
    return None


class Span:
    __slots__ = ("sid", "parent", "op", "name", "start", "end", "child", "info")

    def __init__(self, sid, parent, op, name, start):
        self.sid = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = None
        self.child = 0
        self.info = None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_ns(self):
        return self.dur - self.child

    FIELDS = ("id", "parent", "op", "name", "start_ns", "end_ns", "self_ns", "info")

    def to_json(self):
        return [self.sid, self.parent, self.op, self.name, self.start, self.end,
                self.self_ns, self.info]


class Tracer:
    """Records spans and hot-call aggregates while installed."""

    def __init__(self):
        self.spans = []
        self.hot = {}  # (span id, name) -> [calls, total ns, self ns]
        self.coerce_calls = 0
        self._frames = []  # open frames, innermost last: [start ns, child ns]
        self._open = []  # open spans, innermost last
        self._patches = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------

    def span(self, name, fn, /, *args, **kwargs):
        """Call fn inside a span; used for workload ops and set-up."""
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), parent.sid if parent else None,
                 parent.op if parent else None, name, 0)
        if s.op is None:
            s.op = s.sid
        self.spans.append(s)
        frame = [0, 0]
        self._frames.append(frame)
        self._open.append(s)
        s.start = frame[0] = _now()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            s.end = _now()
            self._open.pop()
            self._frames.pop()
            s.child = frame[1]
            if self._frames:
                self._frames[-1][1] += s.end - s.start
            s.info = _info(name, args, result)

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- hot calls -----------------------------------------------------

    def _record_hot(self, name, frame, end):
        dur = end - frame[0]
        frames = self._frames
        if frames:
            frames[-1][1] += dur
        key = (self._open[-1].sid if self._open else None, name)
        agg = self.hot.get(key)
        if agg is None:
            agg = self.hot[key] = [0, 0, 0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame[1]

    def _hot_wrapper(self, name, fn):
        frames = self._frames
        record = self._record_hot

        def wrapper(*args, **kwargs):
            frame = [_now(), 0]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                frames.pop()
                record(name, frame, end)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hot_generator(self, name, fn):
        frames = self._frames
        record = self._record_hot

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = [_now(), 0]
                frames.append(frame)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end = _now()
                    frames.pop()
                    record(name, frame, end)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn):
        def wrapper(field, x):
            self.coerce_calls += 1
            return fn(field, x)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        """Rebind every name in a superalt module that holds `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "superalt" and not mod_name.startswith("superalt."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        import superalt
        import superalt.cli  # noqa: F401  (loads cli and io, which the package does not)

        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for layer, names in SPAN_FUNCTIONS.items():
                mod = getattr(superalt, layer)
                for fname in names:
                    fn = getattr(mod, fname)
                    self._patch_everywhere(fn, self._span_wrapper(f"{layer}.{fname}", fn))
            for layer, fname, name in HOT_GENERATORS:
                fn = getattr(getattr(superalt, layer), fname)
                self._patch_everywhere(fn, self._hot_generator(name, fn))
            for layer, cls_name, meth, name in HOT_METHODS:
                cls = getattr(getattr(superalt, layer), cls_name)
                fn = cls.__dict__[meth]
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self._hot_wrapper(name, fn))
            for layer, cls_name, meth in COUNTED_METHODS:
                cls = getattr(getattr(superalt, layer), cls_name)
                fn = cls.__dict__[meth]
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self._counter(fn))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------

    def op_accounting(self):
        """Per root span: (duration, sum of self times of its spans and hot
        calls).  The two are equal when every covered interval nests."""
        totals = {}
        for s in self.spans:
            totals.setdefault(s.op, 0)
            totals[s.op] += s.self_ns
        for (sid, _name), (_calls, _total, self_ns) in self.hot.items():
            if sid is not None:
                totals[self.spans[sid].op] += self_ns
        return {
            op: (self.spans[op].dur, total) for op, total in totals.items()
        }

    def to_json(self):
        return {
            "span_fields": Span.FIELDS,
            "spans": [s.to_json() for s in self.spans],
            "hot": [
                {"span": sid, "name": name, "calls": c, "total_ns": t, "self_ns": st}
                for (sid, name), (c, t, st) in self.hot.items()
            ],
            "coerce_calls": self.coerce_calls,
        }
