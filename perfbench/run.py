"""superalt benchmark: one command for the four workloads.

    python3 perfbench/run.py --workload law-scan --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seconds 15              # writes baseline.json
    python3 perfbench/run.py --record                        # rewrites expected.json

Run from the repository root.  The benchmark imports superalt from
`src/` of the same checkout and changes nothing there.

With `--trace 0` it sets the workload up several times (reporting the median
as `setup_s`), then runs whole passes of the workload's op mix until
`--seconds` have elapsed, checks every output against the oracle, prints
each metric by name with its unit, and ends with one JSON line holding the
end-to-end metrics listed in BENCHMARK.json.

With `--trace 1` it runs set-up and one pass twice, untraced and traced,
and reports the per-layer metrics listed in BENCHMARK.json; the spans are
written to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# set-up runs at least SETUP_MIN_REPS times and for at least SETUP_MIN_S
# seconds; its median is `setup_s`
SETUP_MIN_REPS = 5
SETUP_MIN_S = 3.0
STARTUP_REPS = 5
# `--all` runs each workload untraced on seeds 1..RUNS
RUNS = 10


def _import_superalt():
    """superalt from this checkout's src/, or None."""
    sys.path.insert(0, str(SRC))
    try:
        import superalt
        import superalt.cli  # noqa: F401
    except ImportError as e:
        print(f"error: cannot import superalt from {SRC}: {e}", file=sys.stderr)
        return None
    if SRC.resolve() not in Path(superalt.__file__).resolve().parents:
        print(f"error: superalt was imported from {superalt.__file__}, not {SRC}", file=sys.stderr)
        return None
    return superalt


def _benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------


class Run:
    """Outputs of one or more passes, with their latencies and the
    perf_counter readings around each op; with a speed probe that is not
    on a timer, a probe is taken before every op."""

    def __init__(self, probe=None):
        self.records = []  # (op, output or None, seconds, traceback or None)
        self.times = []  # (start, end) of each record
        self.probe = probe

    def run_pass(self, ops, invoke=lambda op: op.call()):
        for op in ops:
            if self.probe is not None:
                self.probe.between_ops()
            start = time.perf_counter()
            try:
                out, err = invoke(op), None
            except Exception:  # an op that raises counts as failed; keep measuring
                out, err = None, traceback.format_exc()
            end = time.perf_counter()
            self.records.append((op, out, end - start, err))
            self.times.append((start, end))


def verify(wl, records, seed, expectations):
    """Failed-op count and messages: errors, broken invariants, and outputs
    that differ from the recorded ones.  An output with no recorded summary
    gets the workload's rescan once per op key, and must agree with every
    other output of that key."""
    from oracle import normalized

    must_be_recorded = not wl.seeded or seed == expectations.default_seed
    unrecorded = {}  # op key -> summary of its first output
    failed, messages = 0, []
    for op, out, _dt, err in records:
        if err is not None:
            failed += 1
            messages.append(f"{op.key}: raised\n{err}")
            continue
        problems = wl.problems(op, out)
        expected = expectations.get(wl.name, op.key)
        if expected is not None:
            got = normalized(wl.summary(op, out))
            if got != expected:
                problems.append(f"{op.key}: output {got} differs from recorded {expected}")
        elif must_be_recorded:
            problems.append(f"{op.key}: no recorded expectation")
        else:
            got = normalized(wl.summary(op, out))
            if op.key not in unrecorded:
                unrecorded[op.key] = got
                problems += [f"{op.key}: {p}" for p in wl.rescan_problems(op, out)]
            elif got != unrecorded[op.key]:
                problems.append(f"{op.key}: output {got} differs from an earlier {unrecorded[op.key]}")
        if problems:
            failed += 1
            messages.extend(problems)
    return failed, messages


def verify_documents(wl, state, expectations):
    """The documents the workload wrote must match their recorded digests."""
    recorded = expectations.data.get(f"{wl.name}-documents", {})
    got = wl.document_digests(state)
    bad = [f"document {n}: sha256 {got.get(n)} differs from recorded {d}"
           for n, d in recorded.items() if got.get(n) != d]
    return len(bad), bad


def _timings(work, setups, lat):
    return {
        "setup_s": statistics.median(setups),
        "work_per_s": work / sum(lat),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
    }


def measure(wl, seed, seconds, expectations, workdir):
    """The untraced run: end-to-end metrics in reference seconds, the same
    in wall seconds, and the human-readable extras."""
    from metrics import SpeedProbe, tail
    from workloads import OCTONIONS

    setup_probe = SpeedProbe(interrupt=True)
    setup_times = []
    try:
        while len(setup_times) < SETUP_MIN_REPS or sum(e - s for s, e in setup_times) < SETUP_MIN_S:
            OCTONIONS.cache_clear()  # every set-up builds the octonion table, as a fresh process does
            start = time.perf_counter()
            state = wl.setup(workdir)
            setup_times.append((start, time.perf_counter()))
    finally:
        setup_probe.stop()
    ops = wl.ops(state, seed)
    # while children run, probes in the parent would compete with them for
    # the cores, so cli probes between ops
    probe = SpeedProbe(interrupt=not wl.children)
    run = Run(probe)
    start = time.perf_counter()
    try:
        while True:
            run.run_pass(ops)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        probe.stop()
    failed, messages = verify(wl, run.records, seed, expectations)
    doc_failed, doc_messages = verify_documents(wl, state, expectations)
    work = sum(wl.units(op, out) for op, out, _dt, err in run.records if err is None)
    ref_lat = [probe.ref(s, e) for s, e in run.times]
    metrics = _timings(work, [setup_probe.ref(s, e) for s, e in setup_times], ref_lat)
    wall = _timings(work, [setup_probe.wall(s, e) for s, e in setup_times],
                    [probe.wall(s, e) for s, e in run.times])
    who = resource.RUSAGE_CHILDREN if wl.children else resource.RUSAGE_SELF
    wall["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    attempted = len(run.records) + doc_failed
    extras = {"wall": wall, "setups": len(setup_times), "probes": probe.values,
              "tail": tail(ref_lat),
              "failed": failed + doc_failed, "attempted": attempted}
    return metrics, extras, messages + doc_messages


def cli_child_metrics(wl, state, seed, expectations):
    """Per-verb latency of one pass of real children, and their CPU time over
    their wall time."""
    run = Run()
    run.run_pass(wl.ops(state, seed))
    failed, messages = verify(wl, run.records, seed, expectations)
    m = {f"cli.verb_ms.{op.key}": dt * 1e3 for op, _out, dt, _err in run.records}
    cpu = sum(out[3] for _op, out, _dt, err in run.records if err is None)
    m["cli.child_cpu_per_wall"] = cpu / sum(dt for _op, _out, dt, _err in run.records)
    return m, run.records, failed, messages


def startup_ms(env_src):
    from workloads import STARTUP_ARGV, child_env, run_cli_child

    env = child_env(env_src)
    times = []
    for _ in range(STARTUP_REPS):
        t = time.perf_counter()
        code, _out, err, _cpu = run_cli_child(STARTUP_ARGV, str(ROOT), env)
        times.append(time.perf_counter() - t)
        if code != 0:
            raise RuntimeError(f"`superalt corpus list` exited {code}: {err}")
    return statistics.median(times) * 1e3


def traced(wl, seed, expectations, workdir, out_dir):
    """The traced run: per-layer metrics, spans written to out_dir."""
    from metrics import layer_metrics
    from tracer import Tracer
    from workloads import CLI_VERBS, OCTONIONS

    # untraced reference for the overhead ratio: same set-up and pass
    OCTONIONS.cache_clear()
    t = time.perf_counter()
    state = wl.setup(workdir)
    plain = Run()
    plain.run_pass(wl.traced_ops(state, seed))
    wall_plain = time.perf_counter() - t

    OCTONIONS.cache_clear()
    tr = Tracer()
    run = Run()
    with tr:
        t = time.perf_counter()
        state = tr.span("setup", wl.setup, workdir)
        run.run_pass(wl.traced_ops(state, seed), lambda op: tr.span("op." + op.kind, op.call))
        wall_traced = time.perf_counter() - t
    info = OCTONIONS.cache_info()

    records = plain.records + run.records
    failed, messages = verify(wl, records, seed, expectations)
    doc_failed, doc_messages = verify_documents(wl, state, expectations)
    m = layer_metrics(tr, info.hits, info.misses)
    m["trace.overhead_ratio"] = wall_traced / wall_plain
    m["cli.startup_ms"] = startup_ms(str(SRC))
    for verb, _argv in CLI_VERBS:
        m[f"cli.verb_ms.{verb}"] = 0.0
    m["cli.child_cpu_per_wall"] = 0.0
    if wl.children:
        child, child_records, child_failed, child_messages = cli_child_metrics(
            wl, state, seed, expectations)
        m.update(child)
        records += child_records
        failed += child_failed
        messages += child_messages

    out_dir.mkdir(exist_ok=True)
    dump = {
        "workload": wl.name, "seed": seed,
        "wall_untraced_s": wall_plain, "wall_traced_s": wall_traced,
        "op_accounting_ns": [
            {"op": tr.spans[op].name, "span": op, "duration": d, "self_sum": s}
            for op, (d, s) in sorted(tr.op_accounting().items())
        ],
    }
    dump.update(tr.to_json())
    with open(out_dir / f"trace-{wl.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(dump, fh)
    extras = {"failed": failed + doc_failed, "attempted": len(records) + doc_failed}
    return m, extras, messages + doc_messages


# ---------------------------------------------------------------------------


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_untraced(wl, seed, seconds, metrics, extras, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(op_p50_ms="ms", peak_rss_mb="MB")
    probes = extras["probes"]
    print(f"{wl.name}: seed {seed}, {seconds} s, {extras['attempted']} ops, "
          f"{extras['setups']} set-ups, {len(probes)} speed probes of "
          f"{min(probes) * 1e3:.1f}..{max(probes) * 1e3:.1f} ms")
    print(f"  {'metric':<14} {'reference s':>14} {'wall s':>14}")
    for name, value in extras["wall"].items():
        alias = f"  ({wl.work}_per_s)" if name == "work_per_s" else ""
        ref = _fmt(metrics[name]) if name in metrics else ""
        print(f"  {name:<14} {ref:>14} {_fmt(value):>14} {units.get(name, '')}{alias}")
    t = extras["tail"]
    if t is None:
        print(f"  {'op_tail_ms':<14} {'n/a':>14} ms  (fewer than 11 samples)")
    else:
        value, pct, n = t
        print(f"  {'op_tail_ms':<14} {_fmt(value * 1e3):>14} ms  (p{pct:.1f} of {n} samples)")
    ratio = extras["failed"] / extras["attempted"]
    print(f"  {'fail_ratio':<14} {_fmt(ratio):>14}     ({extras['failed']} of {extras['attempted']})")


def run_one(args):
    from oracle import Expectations
    from workloads import all_workloads

    spec = _benchmark_spec()
    wl = all_workloads(str(SRC))[args.workload]
    expectations = Expectations.load()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = work_root / f"{wl.name}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            metrics, extras, messages = traced(
                wl, args.seed, expectations, str(workdir), ROOT / ".perfbench_out")
            wanted = [m["name"] for m in spec["per_layer"]]
            for name in wanted:
                print(f"  {name:<36} {_fmt(metrics[name])}")
        else:
            metrics, extras, messages = measure(
                wl, args.seed, args.seconds, expectations, str(workdir))
            wanted = [m["name"] for m in spec["end_to_end"]]
            print_untraced(wl, args.seed, args.seconds, metrics, extras, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    for msg in messages[:20]:
        print(f"MISMATCH {msg}", file=sys.stderr)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    result = {
        "correct": extras["failed"] == 0,
        "attempted": extras["attempted"],
        "failed": extras["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------


def record():
    """Rewrite expected.json from one pass of every workload at the default seed."""
    from oracle import DEFAULT_SEED, EXPECTED_PATH, Expectations, normalized
    from workloads import all_workloads

    data = {"default_seed": DEFAULT_SEED}
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    try:
        for wl in all_workloads(str(SRC)).values():
            workdir = work_root / f"record-{wl.name}"
            workdir.mkdir()
            state = wl.setup(str(workdir))
            run = Run()
            run.run_pass(wl.ops(state, DEFAULT_SEED))
            section = data.setdefault(wl.name, {})
            for op, out, _dt, err in run.records:
                if err is not None:
                    raise RuntimeError(f"{wl.name} {op.key} raised:\n{err}")
                problems = wl.problems(op, out)
                if problems:
                    raise RuntimeError(f"{wl.name} {op.key}: {problems}")
                section[op.key] = normalized(wl.summary(op, out))
            documents = wl.document_digests(state)
            if documents:
                data[f"{wl.name}-documents"] = documents
            print(f"{wl.name}: {len(section)} expectations")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    Expectations(data).save(EXPECTED_PATH)
    return 0


def machine_facts():
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "os_cpu_count": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
    }


def _spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0}


def run_all(args):
    """Every workload, untraced on seeds 1..RUNS and traced once; prints
    the medians and writes baseline.json."""
    from metrics import LAYER_MAP
    from workloads import all_workloads

    spec = _benchmark_spec()
    out = {"machine": machine_facts(), "seconds": args.seconds, "runs": RUNS,
           "workloads": {}, "layer_map": {k: [list(p) for p in v] for k, v in LAYER_MAP.items()}}
    for wl in all_workloads(str(SRC)).values():
        values = {m["name"]: [] for m in spec["end_to_end"]}
        failed = 0
        for seed in range(1, RUNS + 1):
            res = _child(wl.name, seed, args.seconds, 0)
            failed += res["failed"]
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        traced_res = _child(wl.name, 1, args.seconds, 1)
        entry = {
            "why": wl.why, "layers": list(wl.layers), "seed_dependent": wl.seeded,
            "failed": failed + traced_res["failed"],
            "end_to_end": {n: _spread(v) if len(v) > 1 else {"median": v[0]}
                           for n, v in values.items()},
            "per_layer": {n: m["value"] for n, m in traced_res["metrics"].items()},
        }
        out["workloads"][wl.name] = entry
        print(f"{wl.name}: failed {entry['failed']}")
        for n, s in entry["end_to_end"].items():
            extra = f"  spread {s['spread']:.4f}  {[float(f'{x:.4g}') for x in values[n]]}" if "spread" in s else ""
            print(f"  {n:<14} median {_fmt(s['median'])}{extra}")
    with open(HERE / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def _child(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("law-scan", "search", "pipeline", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help=f"run every workload on seeds 1..{RUNS} and write baseline.json")
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from this checkout at the default seed")
    args = parser.parse_args(argv)
    if _import_superalt() is None:
        return 2
    if args.record:
        return record()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
