"""Speed probe, end-to-end statistics and the per-layer metrics of a traced run."""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

import superalt as sa

# Which end-to-end metric each layer metric should move, and on which
# workload.  `work_per_s` is tuples per second on law-scan and pipeline and
# candidates per second on search.
LAYER_MAP = {
    "fields.coerce_calls": [("work_per_s", "law-scan"), ("work_per_s", "search")],
    "fields.fraction_muladd_ns": [("work_per_s", "law-scan")],
    "fields.fp_muladd_ns": [("work_per_s", "law-scan")],
    "core.vector_new_calls": [("work_per_s", "law-scan")],
    "core.vector_new_self_s": [("work_per_s", "law-scan")],
    "core.bilinear_apply_calls": [("work_per_s", "law-scan")],
    "core.bilinear_apply_self_s": [("work_per_s", "law-scan")],
    "core.map_apply_calls": [("work_per_s", "law-scan")],
    "core.map_apply_self_s": [("work_per_s", "law-scan")],
    "core.evenmap_new_calls": [("work_per_s", "search")],
    "core.evenmap_new_self_s": [("work_per_s", "search")],
    "core.bilinear_new_self_s": [("ops_per_s", "pipeline")],
    "laws.calls": [("work_per_s", "law-scan"), ("ops_per_s", "pipeline"), ("op_p50_ms", "pipeline")],
    "laws.tuples": [("work_per_s", "law-scan"), ("ops_per_s", "pipeline"), ("op_p50_ms", "pipeline")],
    "laws.scan_self_s": [("work_per_s", "law-scan"), ("ops_per_s", "pipeline"), ("op_p50_ms", "pipeline")],
    "laws.us_per_tuple": [("work_per_s", "law-scan"), ("ops_per_s", "pipeline"), ("op_p50_ms", "pipeline")],
    "operators.check_calls": [("work_per_s", "search")],
    "operators.check_self_s": [("work_per_s", "search")],
    "operators.enumerate_self_s": [("work_per_s", "search")],
    "operators.us_per_candidate": [("work_per_s", "search")],
    "operators.found_ratio": [("work_per_s", "search")],
    "operators.o_induced_s": [("ops_per_s", "pipeline")],
    "bimodules.check_self_s": [("ops_per_s", "pipeline")],
    "bimodules.tuples": [("ops_per_s", "pipeline")],
    "bimodules.base_check_s": [("ops_per_s", "pipeline")],
    "constructions.calls": [("ops_per_s", "pipeline"), ("op_p50_ms", "pipeline"), ("setup_s", "*")],
    "constructions.self_s": [("ops_per_s", "pipeline"), ("op_p50_ms", "pipeline"), ("setup_s", "*")],
    "constructions.hypothesis_s": [("ops_per_s", "pipeline"), ("op_p50_ms", "pipeline"), ("setup_s", "*")],
    "corpus.build_s": [("setup_s", "*"), ("ops_per_s", "pipeline")],
    "corpus.octonions_hit_ratio": [("setup_s", "*"), ("ops_per_s", "pipeline")],
    "io.dump_s": [("ops_per_s", "pipeline"), ("op_p50_ms", "cli")],
    "io.parse_s": [("ops_per_s", "pipeline"), ("op_p50_ms", "cli")],
    "io.bytes": [("ops_per_s", "pipeline"), ("op_p50_ms", "cli")],
    "cli.startup_ms": [("op_p50_ms", "cli"), ("ops_per_s", "cli")],
    "cli.verb_ms.*": [("op_p50_ms", "cli"), ("ops_per_s", "cli")],
    "cli.child_cpu_per_wall": [("op_p50_ms", "cli"), ("ops_per_s", "cli")],
    "trace.overhead_ratio": [],
}


# The machine's speed drifts by up to 1.7x within seconds (other tenants
# share the cores), far more than the bounds in BENCHMARK.json allow.  So the
# timings of an untraced run are also given in reference seconds, read off a
# reference clock: between two speed probes, wall time counts at the speed
# the two probes measured on average, and time spent in probes does not
# count.  A change to superalt moves reference seconds as it moves wall
# seconds; a change in machine speed mostly cancels.
PROBE_NOMINAL_S = 0.040
PROBE_EVERY_S = 1.0


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def plus(self, other):
        return _Point(self.x + other.x, self.y + other.y)


def probe_s():
    """Wall time of a fixed mix of pure-Python work, close to superalt's own:
    an integer loop, Fraction arithmetic, and small objects kept in a dict."""
    t = time.perf_counter()
    s = 0
    for i in range(250_000):
        s += i * i
    a, b = Fraction(3, 7), Fraction(-5, 11)
    for _ in range(3000):
        a * b + a
    d = {}
    one = _Point(1, 2)
    for i in range(10_000):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + _Point(i, k[0]).plus(one).x
    return time.perf_counter() - t


class SpeedProbe:
    """Speed probes over a measured span, and the reference clock they give.

    With `interrupt` a SIGALRM handler takes a probe every PROBE_EVERY_S
    seconds, inside long ops too, and each gap between two probes counts at
    their mean speed.  Without it the caller takes probes through
    `between_ops`; that is for ops run in children, which may run on another
    core than the probe, so one probe says little about the next child and
    every gap counts at the median speed of the span.  `stop` ends the timer
    and takes the last probe; after it, `ref(t0, t1)` and `wall(t0, t1)` give
    the reference and the wall seconds between two perf_counter readings,
    probe time left out of both."""

    def __init__(self, interrupt=False):
        self.probes = []  # (start, end) of each probe
        self._busy = False
        self._old_handler = None
        self.interrupt = interrupt
        self.take()
        if interrupt:
            self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    @property
    def values(self):
        return [end - start for start, end in self.probes]

    def take(self):
        self._busy = True
        start = time.perf_counter()
        probe_s()
        self.probes.append((start, time.perf_counter()))
        self._busy = False

    def between_ops(self):
        if self._old_handler is None:
            self.take()

    def _on_alarm(self, _signum, _frame):
        if not self._busy:
            self.take()

    def stop(self):
        if self._old_handler is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old_handler)
            self._old_handler = None
        self.take()
        # rate of each gap between probes, and the clocks at each probe's end
        self._ends = [end for _start, end in self.probes]
        self._rates = []
        self._ref_at, self._wall_at = [0.0], [0.0]
        median = statistics.median(self.values)
        for (s0, e0), (s1, e1) in zip(self.probes, self.probes[1:]):
            probe_time = ((e0 - s0) + (e1 - s1)) / 2 if self.interrupt else median
            self._rates.append(PROBE_NOMINAL_S / probe_time)
            self._ref_at.append(self._ref_at[-1] + (s1 - e0) * self._rates[-1])
            self._wall_at.append(self._wall_at[-1] + (s1 - e0))

    def _clocks(self, t):
        k = max(0, min(bisect.bisect_right(self._ends, t) - 1, len(self._rates) - 1))
        gap = max(0.0, min(t, self.probes[k + 1][0]) - self._ends[k])
        return self._ref_at[k] + gap * self._rates[k], self._wall_at[k] + gap

    def ref(self, t0, t1):
        return self._clocks(t1)[0] - self._clocks(t0)[0]

    def wall(self, t0, t1):
        return self._clocks(t1)[1] - self._clocks(t0)[1]


def tail(samples):
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, sample count), or None below eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n, n


def muladd_ns(a, b, n=20000, reps=5):
    """Median time of `a * b + a`, loop overhead included, with the cyclic
    collector paused so that a traced run's live spans do not weigh in."""
    per = []
    gc.disable()
    try:
        for _ in range(reps):
            t = time.perf_counter_ns()
            for _ in range(n):
                a * b + a
            per.append((time.perf_counter_ns() - t) / n)
    finally:
        gc.enable()
    return statistics.median(per)


def field_probes():
    return {
        "fields.fraction_muladd_ns": muladd_ns(Fraction(3, 7), Fraction(5, 11)),
        "fields.fp_muladd_ns": muladd_ns(sa.FpElement(3, 5), sa.FpElement(4, 5)),
    }


_CHECKS = ("operators.check_operator", "operators.check_o_operator")
_BIMODULE_CHECKS = ("bimodules.check_alt_bimodule", "bimodules.check_pre_bimodule")
_DUMP = ("io.object_to_doc", "io.canonical_dumps", "io.save")
_PARSE = ("io.parse_text", "io.load")


def layer_metrics(tr, cache_hits, cache_misses):
    """Per-layer numbers from one traced run of a workload."""
    spans = tr.spans

    def has_ancestor_in(s, layer):
        p = s.parent
        while p is not None:
            if spans[p].layer == layer:
                return True
            p = spans[p].parent
        return False

    def secs(ns):
        return ns / 1e9

    def total(pred):
        return sum(s.dur for s in spans if pred(s))

    def self_total(pred):
        return sum(s.self_ns for s in spans if pred(s))

    def info(pred, key):
        return sum((s.info or {}).get(key, 0) for s in spans if pred(s))

    def parent_name(s):
        return spans[s.parent].name if s.parent is not None else ""

    def parent_layer(s):
        return spans[s.parent].layer if s.parent is not None else ""

    hot = {}
    for (_sid, name), (calls, tot, self_ns) in tr.hot.items():
        agg = hot.setdefault(name, [0, 0, 0])
        agg[0] += calls
        agg[1] += tot
        agg[2] += self_ns

    def hot_calls(name):
        return hot.get(name, [0, 0, 0])[0]

    def hot_self(name):
        return secs(hot.get(name, [0, 0, 0])[2])

    laws = lambda s: s.layer == "laws"
    outer_laws = lambda s: laws(s) and not has_ancestor_in(s, "laws")
    tuples = info(laws, "checked")
    search = lambda s: s.name == "operators.search_operators"
    candidates = info(search, "candidates")
    bim_checks = lambda s: s.name in _BIMODULE_CHECKS
    cons = lambda s: s.layer == "constructions"
    outer_io = lambda s: s.layer == "io" and not has_ancestor_in(s, "io")

    m = {
        "fields.coerce_calls": tr.coerce_calls,
        "core.vector_new_calls": hot_calls("core.vector_new"),
        "core.vector_new_self_s": hot_self("core.vector_new"),
        "core.bilinear_apply_calls": hot_calls("core.bilinear_apply"),
        "core.bilinear_apply_self_s": hot_self("core.bilinear_apply"),
        "core.map_apply_calls": hot_calls("core.map_apply"),
        "core.map_apply_self_s": hot_self("core.map_apply"),
        "core.evenmap_new_calls": hot_calls("core.evenmap_new"),
        "core.evenmap_new_self_s": hot_self("core.evenmap_new"),
        "core.bilinear_new_self_s": hot_self("core.bilinear_new"),
        "laws.calls": sum(1 for s in spans if laws(s)),
        "laws.tuples": tuples,
        "laws.scan_self_s": secs(self_total(laws)),
        "laws.us_per_tuple": total(outer_laws) / 1e3 / tuples if tuples else 0.0,
        "operators.check_calls": sum(1 for s in spans if s.name in _CHECKS),
        "operators.check_self_s": secs(self_total(lambda s: s.name in _CHECKS)),
        "operators.enumerate_self_s": hot_self("operators.enumerate"),
        "operators.us_per_candidate": total(search) / 1e3 / candidates if candidates else 0.0,
        "operators.found_ratio": info(search, "found") / candidates if candidates else 0.0,
        "operators.o_induced_s": secs(total(
            lambda s: s.name == "operators.o_induced" and not has_ancestor_in(s, "operators"))),
        "bimodules.check_self_s": secs(self_total(bim_checks)),
        "bimodules.tuples": info(bim_checks, "checked"),
        "bimodules.base_check_s": secs(total(lambda s: laws(s) and parent_name(s) in _BIMODULE_CHECKS)),
        "constructions.calls": sum(1 for s in spans if cons(s)),
        "constructions.self_s": secs(self_total(cons)),
        "constructions.hypothesis_s": secs(total(
            lambda s: s.layer in ("laws", "operators") and parent_layer(s) == "constructions")),
        "corpus.build_s": secs(total(lambda s: s.layer == "corpus" and not has_ancestor_in(s, "corpus"))),
        "corpus.octonions_hit_ratio": (
            cache_hits / (cache_hits + cache_misses) if cache_hits + cache_misses else 0.0),
        "io.dump_s": secs(total(lambda s: outer_io(s) and s.name in _DUMP)),
        "io.parse_s": secs(total(lambda s: outer_io(s) and s.name in _PARSE)),
        "io.bytes": info(lambda s: s.name in ("io.canonical_dumps", "io.parse_text"), "bytes"),
    }
    m.update(field_probes())
    return m
