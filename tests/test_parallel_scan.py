"""Forked scans (jobs=2) against serial scans (jobs=1).

The pool starts only for scan groups of at least laws.POOL_MIN_TUPLES = 8192
tuples, so every instance here has a 21-dimensional space: 21^3 = 9261
triples.  Zero products over F_3 keep each tuple as cheap as it gets at that
size.  Two workers split a group into eight chunks of about 1158 tuples;
each perturbation first fails at a triple (3, ., .) just past the first
chunk, so the chunk order decides the reported witness.

Groups this large and this sparse are contracted, not scanned, so every
test here patches the evaluation rule to the scan, and the forked runs
check that the pool's workers really adopted their group.
"""

import multiprocessing
import multiprocessing.pool
import os
import threading

import pytest

import superalt.laws as laws
from superalt import (
    AltBimodule,
    EvenBilinear,
    EvenMap,
    HomPreAlgebra,
    PreBimodule,
    PrimeField,
    SuperSpace,
    check_alt_bimodule,
    check_pre_bimodule,
    check_pre_law,
    perturb_bilinear,
    perturb_pre,
    regular_bimodule,
    zero,
)
from superalt.bimodules import CALIBRATED_PBM_VARIANT, _bimodule_axioms

F3 = PrimeField(3)


TRIPLES, CHUNK = 21**3, 21**3 // 8


def zero_pre():
    s = SuperSpace(F3, 10, 11)
    z = EvenBilinear.zero(s, s, s)
    return HomPreAlgebra(z, z, EvenMap.identity(s), name="zero-pre(10,11)")


pytestmark = pytest.mark.usefixtures("scan_path")


@pytest.fixture
def serial_and_parallel(forked):
    """Runs a check with jobs=1 and jobs=2, asserts equal reports and that
    the jobs=2 run started pool workers."""

    def run(check, *args, public=None):
        """public, when given, is the checking wrapper of check, run once
        with jobs=2 on the same arguments."""
        serial = check(*args, jobs=1)
        forked(False)
        assert check(*args, jobs=2) == serial
        forked()
        if public is not None:
            assert public(*args, jobs=2) == serial
            forked()
        return serial

    return run


def test_parallel_pre_law_matches_serial(serial_and_parallel):
    p = zero_pre()
    rep = serial_and_parallel(check_pre_law, p, "hom-prealternative")
    assert rep.passed and rep.checked == TRIPLES
    bad = perturb_pre(p, "prec", (10, 3, 10), 1)
    rep = serial_and_parallel(check_pre_law, bad, "hom-prealternative")
    assert not rep.passed and rep.witness[0] == 3 and rep.checked > CHUNK


# The bimodule tests compare the axiom scans alone, and scan the shared base
# once, in the one call through the public check that passes jobs on.


def test_parallel_alt_bimodule_matches_serial(serial_and_parallel):
    m = regular_bimodule(zero(10, 11, F3))
    rep = serial_and_parallel(_bimodule_axioms, m)
    assert rep.passed and rep.checked == TRIPLES
    bad = AltBimodule(m.base, m.beta, perturb_bilinear(m.lsucc, (3, 11, 11), 1), m.rprec)
    rep = serial_and_parallel(_bimodule_axioms, bad, public=check_alt_bimodule)
    assert not rep.passed and rep.witness[0] == 3 and rep.checked > CHUNK


def test_parallel_pre_bimodule_matches_serial(serial_and_parallel):
    m = regular_bimodule(zero_pre())
    rep = serial_and_parallel(_bimodule_axioms, m, CALIBRATED_PBM_VARIANT)
    assert rep.passed and rep.checked == TRIPLES
    bad = PreBimodule(
        m.base, m.beta, perturb_bilinear(m.lprec, (3, 11, 11), 1), m.rprec, m.lsucc, m.rsucc
    )
    rep = serial_and_parallel(
        _bimodule_axioms, bad, CALIBRATED_PBM_VARIANT, public=check_pre_bimodule
    )
    assert not rep.passed and rep.witness[0] == 3 and rep.checked > CHUNK


@pytest.mark.parametrize("base,check,module", [(zero(10, 11, F3), check_alt_bimodule, AltBimodule),
                                                (zero_pre(), check_pre_bimodule, PreBimodule)],
                         ids=["alt", "pre"])
def test_a_bimodule_check_scans_its_base_on_the_pool(forked, base, check, module):
    """The base has 9261 triples; a 1-dimensional module's axioms, 21 * 21
    triples, never pool, so the workers that jobs=2 starts scanned the base."""
    s, v = base.space, SuperSpace(F3, 1, 0)
    m = module(base, EvenMap.identity(v), **{name: EvenBilinear.zero(*(
        (s, v, v) if name[0] == "l" else (v, s, v))) for name in module.ACTIONS})
    assert check(m, jobs=1).passed
    forked(False)
    rep = check(m, jobs=2)
    forked()
    assert rep.passed and rep.checked == 21 * 21


@pytest.mark.parametrize("cpus,jobs,started", [(3, 1000, [3]), (64, 1000, [9]), (1, 1000, []),
                                               (8, 2, [2])])
def test_pool_size_is_bounded_by_jobs_chunks_and_cpus(monkeypatch, cpus, jobs, started):
    """A 9261-tuple group splits into at most 9 chunks; the pool is faked, so
    no process starts, and the chunks run here in order.  No chunk past the
    one holding the first failure is waited for."""
    pools, ran = [], []

    class Pool:
        def __init__(self, processes, initializer, initargs):
            pools.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, args):
            for a in args:
                ran.append(a)
                yield fn(a)

        def close(self):
            pass

        def join(self):
            pass

    class Context:
        Event = threading.Event

    Context.Pool = Pool
    monkeypatch.setattr(laws, "_group", None)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context())
    bad = perturb_pre(zero_pre(), "prec", (10, 3, 10), 1)
    rep = check_pre_law(bad, "hom-prealternative", jobs=jobs)
    assert pools == started
    assert rep == check_pre_law(bad, "hom-prealternative", jobs=1)
    if started:
        assert ran[0][0] == 0 and all(a[1] == b[0] for a, b in zip(ran, ran[1:]))
        assert ran[-1][0] < rep.checked <= ran[-1][1]


def test_a_hit_lets_every_worker_exit_on_its_own(monkeypatch):
    """The first failure is in the second of eight chunks, so both workers
    are still busy when it comes back.  They skip the chunks left and exit
    when the pool is closed: none is still running, to be killed, when the
    pool is left."""
    left, exit_pool = [], multiprocessing.pool.Pool.__exit__

    def spy(self, *exc):
        left.append([p.exitcode for p in self._pool])
        return exit_pool(self, *exc)

    monkeypatch.setattr(multiprocessing.pool.Pool, "__exit__", spy)
    bad = perturb_pre(zero_pre(), "prec", (10, 3, 10), 1)
    rep = check_pre_law(bad, "hom-prealternative", jobs=2)
    assert rep == check_pre_law(bad, "hom-prealternative", jobs=1)
    assert left == [[0, 0]]
