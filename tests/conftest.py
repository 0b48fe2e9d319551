"""Shared fixtures and sampling helpers."""

import os
from contextlib import contextmanager
from unittest import mock

import pytest

from superalt import laws
from superalt import (
    EvenBilinear,
    EvenMap,
    Vector,
    grassmann1,
    integration,
    octonions,
    rb_split,
    tensor_alt,
    tensor_map,
    truncpoly,
)


@contextmanager
def forced(path, slice_tuples=None):
    """Every group evaluated by path ("scan" or "contract"), whatever the
    rule says; a contraction in slices of at most slice_tuples tuples."""
    with mock.patch.object(laws, "_evaluation", lambda slots, tables: path), \
            mock.patch.object(laws, "CONTRACT_SLICE_TUPLES",
                              slice_tuples or laws.CONTRACT_SLICE_TUPLES):
        yield


def watched_contractions(residuals):
    """Patch _contract so that every residual it evaluates is kept, with the
    slots of its group, in residuals."""
    contract = laws._contract

    def watched(slots, idfns, binder):
        def watch(fn):
            def f(pts):
                r = fn(pts)
                residuals.append((slots, r))
                return r

            return f

        return contract(slots, [(name, watch(fn), *rest) for name, fn, *rest in idfns], binder)

    return mock.patch.object(laws, "_contract", watched)


def rand_homogeneous(space, rng, bound=3):
    """A nonzero vector supported on a single parity block, with integer
    coordinates drawn uniformly from [-bound, bound]."""
    parities = [p for p in (0, 1) if space.dims[p] > 0]
    while True:
        par = rng.choice(parities)
        coords = [space.field.zero] * space.dim
        for i in space.indices_of_parity(par):
            coords[i] = space.field.coerce(rng.randint(-bound, bound))
        v = Vector(space, coords)
        if not v.is_zero():
            return v, par


def from_cube(left, right, out, cube):
    """The tensor whose dense cube c[i][j][k] is `cube`, built from its nonzero cells."""
    return EvenBilinear.from_entries(
        left,
        right,
        out,
        [
            (i, j, k, v)
            for i, plane in enumerate(cube)
            for j, row in enumerate(plane)
            for k, v in enumerate(row)
            if v
        ],
    )


def from_rows(domain, codomain, rows):
    """The map whose dense rows m[i][j] (codomain x domain) are `rows`, built from its nonzero cells."""
    return EvenMap.from_entries(
        domain, codomain, [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
    )


def to_cube(bil):
    """The dense cube c[i][j][k] of a tensor, zeros included."""
    z = bil.out.field.zero
    cube = [[[z] * bil.out.dim for _ in bil.right.indices()] for _ in bil.left.indices()]
    for i, j, k, v in bil.sparse_entries():
        cube[i][j][k] = v
    return cube


@pytest.fixture(scope="session")
def p3():
    return truncpoly(3)


@pytest.fixture(scope="session")
def oct():
    return octonions()


@pytest.fixture(scope="session")
def rb3(p3):
    return integration(3)


@pytest.fixture(scope="session")
def pre3(p3, rb3):
    return rb_split(p3, rb3)


@pytest.fixture(scope="session")
def l1p3(p3):
    return tensor_alt(grassmann1(), p3)


@pytest.fixture(scope="session")
def pre6(l1p3, rb3):
    r = tensor_map(EvenMap.identity(grassmann1().space), rb3)
    return rb_split(l1p3, r)


@pytest.fixture
def scan_path(monkeypatch):
    """Every scan group on the tuple scan.  The pool tests need it: their
    large sparse groups would be contracted, and a contraction never forks."""
    monkeypatch.setattr(laws, "_evaluation", lambda slots, tables: "scan")


@pytest.fixture
def forked(monkeypatch, tmp_path):
    """Asserts that pool workers, not this process, adopted a scan group
    since the last call (forked()), or that none did (forked(False)).  Each
    adopting process records its pid in a file."""
    adopted, adopt = tmp_path / "adopted", laws._adopt_group

    def spy(*group):
        with open(adopted, "a") as f:
            f.write(f"{os.getpid()}\n")
        adopt(*group)

    monkeypatch.setattr(laws, "_adopt_group", spy)

    def check(expected=True):
        pids = adopted.read_text().split() if adopted.exists() else []
        adopted.unlink(missing_ok=True)
        assert (bool(pids) and str(os.getpid()) not in pids) if expected else not pids

    return check
