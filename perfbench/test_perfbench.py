"""Self-tests for the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

They take under two minutes; the law-scan pass is most of it.
"""

import copy
import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import superalt  # noqa: E402

import run  # noqa: E402
from metrics import SpeedProbe  # noqa: E402
from oracle import Expectations, _scan_groups  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import all_workloads  # noqa: E402

WORKLOADS = all_workloads(str(ROOT / "src"))
EXPECTED = Expectations.load()
SEED = EXPECTED.default_seed


def one_pass(wl, tmp_path, seed=SEED, expectations=EXPECTED):
    state = wl.setup(str(tmp_path))
    r = run.Run()
    r.run_pass(wl.ops(state, seed))
    failed, messages = run.verify(wl, r.records, seed, expectations)
    doc_failed, doc_messages = run.verify_documents(wl, state, expectations)
    return r.records, failed + doc_failed, messages + doc_messages


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_recorded_expectations_match_a_fresh_run(name, tmp_path):
    records, failed, messages = one_pass(WORKLOADS[name], tmp_path)
    assert records and failed == 0, messages


def test_a_wrong_expectation_makes_fail_ratio_nonzero(tmp_path):
    data = copy.deepcopy(EXPECTED.data)
    key = "rota-baxter-0|truncpoly-3@5"
    data["search"][key]["candidates_checked"] += 1
    records, failed, messages = one_pass(WORKLOADS["search"], tmp_path,
                                         expectations=Expectations(data))
    assert failed == 1 and failed / len(records) > 0
    assert key in messages[0]


def test_other_seeds_fall_back_to_invariants(tmp_path):
    records, failed, messages = one_pass(WORKLOADS["pipeline"], tmp_path, seed=SEED + 7)
    assert failed == 0, messages
    unrecorded = [op for op, *_ in records if EXPECTED.get("pipeline", op.key) is None]
    assert unrecorded


def test_a_wrong_witness_breaks_the_reference_recomputation(tmp_path):
    wl = WORKLOADS["pipeline"]
    state = wl.setup(str(tmp_path))
    op = next(op for op in wl.ops(state, SEED + 7) if op.kind == "perturb-check"
              and not op.call()[1].passed)
    inst, rep = op.call()
    rep.residual = tuple(v + 1 for v in rep.residual)
    assert wl.problems(op, (inst, rep))


def test_a_forged_pass_on_a_failing_perturbation_is_caught(tmp_path):
    wl = WORKLOADS["pipeline"]
    state = wl.setup(str(tmp_path))
    op = next(op for op in wl.ops(state, SEED + 7) if op.kind == "perturb-check"
              and EXPECTED.get("pipeline", op.key) is None and not op.call()[1].passed)
    inst, rep = op.call()
    groups = _scan_groups(superalt.law_identities(inst, op.meta["law"]))
    total = sum(inst.space.dim ** arity for arity, _fns in groups)
    forged = dataclasses.replace(rep, passed=True, checked=total, witness=None,
                                 witness_parities=None, identity=None, residual=None)
    assert not wl.problems(op, (inst, forged))
    failed, messages = run.verify(wl, [(op, (inst, forged), 0.0, None)], SEED + 7, EXPECTED)
    assert failed == 1 and "reported passing" in messages[0]


def test_the_reference_clock_leaves_probe_time_out():
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe(interrupt=True)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 2.5:
        pass
    t1 = time.perf_counter()
    probe.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    inside = [(s, e) for s, e in probe.probes if t0 < s and e < t1]
    assert len(inside) >= 2
    probe_time = sum(e - s for s, e in inside)
    assert probe.wall(t0, t1) == pytest.approx(t1 - t0 - probe_time)
    assert probe.ref(t0, t1) > 0


def _superalt_bindings():
    out = {}
    for mod_name, mod in sys.modules.items():
        if mod_name == "superalt" or mod_name.startswith("superalt."):
            for attr, value in vars(mod).items():
                out[(mod_name, attr)] = value
                if isinstance(value, type):
                    for k, v in vars(value).items():
                        out[(mod_name, attr, k)] = v
    return out


def test_superalt_is_unpatched_after_a_traced_run(tmp_path):
    wl = WORKLOADS["pipeline"]
    before = _superalt_bindings()
    tr = Tracer()
    with tr:
        state = tr.span("setup", wl.setup, str(tmp_path))
        assert superalt.check_product_law is not before[("superalt", "check_product_law")]
        for op in wl.ops(state, SEED):
            tr.span("op." + op.kind, op.call)
    after = _superalt_bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert not [k for k, v in _superalt_bindings().items() if v is not before[k]]


def test_span_self_times_account_for_each_op(tmp_path):
    wl = WORKLOADS["cli"]
    tr = Tracer()
    with tr:
        state = tr.span("setup", wl.setup, str(tmp_path))
        for op in wl.traced_ops(state, SEED):
            tr.span("op." + op.kind, op.call)
    accounting = tr.op_accounting()
    assert len(accounting) == 1 + len(wl.traced_ops(state, SEED))
    for duration, self_sum in accounting.values():
        assert duration == self_sum
    layers = {s.layer for s in tr.spans}
    assert {"laws", "bimodules", "io", "cli", "constructions", "corpus"} <= layers


def test_changing_the_seed_changes_only_pipeline_inputs(tmp_path):
    for name, wl in WORKLOADS.items():
        (tmp_path / name).mkdir()
        state = wl.setup(str(tmp_path / name))
        keys = [[op.key for op in wl.ops(state, seed)] for seed in (1, 2)]
        if name == "pipeline":
            assert keys[0] != keys[1]
            assert set(keys[0]) != set(keys[1])
        else:
            assert keys[0] == keys[1], name


def _command(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, [sys.executable, *spec["command"][1:], "--workload", "search", "--seed", "3",
                  "--seconds", "1", "--trace", str(trace)]


@pytest.mark.parametrize("trace", [0, 1])
def test_the_result_line_lists_exactly_the_declared_metrics(trace):
    spec, cmd = _command(trace)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    spec, cmd = _command(0)
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
