"""Forked scans (jobs=2) against serial scans (jobs=1).

The pool starts only for scan groups of at least 4096 tuples, so every
instance here has a 16-dimensional space: 16^3 triples.  Zero products over
F_3 keep each tuple as cheap as it gets at that size.  Each perturbation
first fails just past the first of the four 1024-tuple chunks, so the chunk
order decides the reported witness.
"""

import multiprocessing
import os

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

F3 = PrimeField(3)


def zero_pre():
    s = SuperSpace(F3, 8, 8)
    z = EvenBilinear.zero(s, s, s)
    return HomPreAlgebra(z, z, EvenMap.identity(s), name="zero-pre(8,8)")


def serial_and_parallel(check, *args):
    serial = check(*args, jobs=1)
    assert check(*args, jobs=2) == serial
    return serial


def test_parallel_pre_law_matches_serial():
    p = zero_pre()
    rep = serial_and_parallel(check_pre_law, p, "hom-prealternative")
    assert rep.passed and rep.checked == 4096
    bad = perturb_pre(p, "prec", (8, 4, 8), 1)
    rep = serial_and_parallel(check_pre_law, bad, "hom-prealternative")
    assert not rep.passed and rep.checked > 1024


def test_parallel_alt_bimodule_matches_serial():
    m = regular_bimodule(zero(8, 8, F3))
    rep = serial_and_parallel(check_alt_bimodule, m)
    assert rep.passed and rep.checked == 4096
    bad = AltBimodule(m.base, m.beta, perturb_bilinear(m.lsucc, (4, 9, 9), 1), m.rprec)
    rep = serial_and_parallel(check_alt_bimodule, bad)
    assert not rep.passed and rep.checked > 1024


def test_parallel_pre_bimodule_matches_serial():
    m = regular_bimodule(zero_pre())
    rep = serial_and_parallel(check_pre_bimodule, m)
    assert rep.passed and rep.checked == 4096
    bad = PreBimodule(
        m.base, m.beta, perturb_bilinear(m.lprec, (4, 9, 9), 1), m.rprec, m.lsucc, m.rsucc
    )
    rep = serial_and_parallel(check_pre_bimodule, bad)
    assert not rep.passed and rep.checked > 1024


@pytest.mark.parametrize("cpus,jobs,started", [(3, 1000, [3]), (64, 1000, [4]), (1, 1000, []),
                                               (8, 2, [2])])
def test_pool_size_is_bounded_by_jobs_chunks_and_cpus(monkeypatch, cpus, jobs, started):
    """A 4096-tuple group splits into 4 chunks; the pool is faked, so no
    process starts, and the chunks run here in order."""
    pools = []

    class Pool:
        def __init__(self, processes, initializer, initargs):
            pools.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args):
            return [fn(*a) for a in args]

    class Context:
        pass

    Context.Pool = Pool
    monkeypatch.setattr(laws, "_group", None)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context())
    bad = perturb_pre(zero_pre(), "prec", (8, 4, 8), 1)
    rep = check_pre_law(bad, "hom-prealternative", jobs=jobs)
    assert pools == started
    assert rep == check_pre_law(bad, "hom-prealternative", jobs=1)
