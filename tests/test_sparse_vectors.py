"""The scan's sparse table vectors are canonical: equal values, equal tuples.

A table binder memoises its appliers on the values of their arguments, so
two vectors that stand for one value must compare equal and hash equal, or
a memo misses what it holds.  Each test reaches one value by different
routes: accumulation orders, sums that cancel, congruent inputs over F_p,
and over Q an int against a Fraction of denominator 1.  The dense
coordinates (coords) are checked against the reference Vector, on random
vectors and at the witness of a failing check.
"""

import random
from fractions import Fraction

import pytest

from superalt import (
    HomAlgebra,
    PrimeField,
    SuperSpace,
    Vector,
    check_product_law,
    grassmann1,
    law_identities,
    octonions,
    perturb_bilinear,
    reduce_instance,
    tensor_alt,
)
from superalt import laws
from superalt.core import _plain, _sparse_vector
from superalt.fields import QQ
from conftest import forced

FIELDS = {"Q": QQ, "F5": PrimeField(5)}


def sparse(x: Vector):
    """The sparse table vector of a reference Vector."""
    return _sparse_vector(x.space.field.char, x.space.dim).of(
        {i: _plain(c) for i, c in enumerate(x.coords)})


def same(u, v):
    assert u == v and hash(u) == hash(v) and u.coords == v.coords
    assert {u: 1}[v] == 1  # a memo keyed on one finds the other


def rand_vector(rng, space):
    return Vector(space, [rng.choice([0, 0, 1, -1, 2, Fraction(1, 2)]) if space.field.char == 0
                          else rng.randrange(space.field.p) for _ in space.indices()])


@pytest.mark.parametrize("name", FIELDS)
def test_accumulation_order_does_not_change_the_vector(name):
    field, rng = FIELDS[name], random.Random(1)
    space = SuperSpace(field, 4, 3)
    vector = _sparse_vector(field.char, space.dim)
    basis = [vector(((i, 1),)) for i in space.indices()]
    for _ in range(50):
        terms = [(rng.randrange(space.dim), _plain(field.coerce(rng.randint(-3, 3))))
                 for _ in range(6)]
        sums = []
        for order in range(4):
            rng.shuffle(terms)
            total = vector()
            for i, c in terms:
                total = total + basis[i].scaled(field.coerce(c))
            sums.append(total)
            acc = {}
            for i, c in terms:
                acc[i] = acc.get(i, 0) + c
            sums.append(vector.of(dict(reversed(list(acc.items())) if order % 2 else acc)))
        for s in sums[1:]:
            same(s, sums[0])
        assert list(sums[0]) == sorted(sums[0])  # indices ascending
        assert all(v for _, v in sums[0])  # zeros dropped


@pytest.mark.parametrize("name", FIELDS)
def test_a_sum_that_cancels_is_the_empty_vector(name):
    field, rng = FIELDS[name], random.Random(2)
    space = SuperSpace(field, 3, 3)
    zero = _sparse_vector(field.char, space.dim)()
    for _ in range(50):
        x, y = sparse(rand_vector(rng, space)), sparse(rand_vector(rng, space))
        for cancelled in (x - x, x + -x, (x + y) - y - x, x.scaled(field.zero)):
            same(cancelled, zero)
            assert cancelled.is_zero() and cancelled == ()
        same((x + y) - y, x)
        same(x + zero, x)
        same(zero - x, -x)


@pytest.mark.parametrize("p", (3, 5))
def test_congruent_inputs_give_one_vector(p):
    vector = _sparse_vector(p, 5)
    rng = random.Random(p)
    for _ in range(50):
        raw = {i: rng.randint(-2 * p, 2 * p) for i in rng.sample(range(5), 3)}
        shifted = {i: v + rng.randint(-3, 3) * p for i, v in raw.items()}
        x = vector.of(raw)
        same(vector.of(shifted), x)
        assert all(0 < v < p for _, v in x)
        k = rng.randrange(1, p)
        same(x.scaled(PrimeField(p).coerce(k)), x.scaled(PrimeField(p).coerce(k + p)))
        same(-x, x.scaled(PrimeField(p).coerce(-1)))


def test_over_q_an_int_and_a_fraction_of_denominator_one_give_one_vector():
    vector = _sparse_vector(0, 4)
    ints = vector.of({0: 3, 2: -1})
    fractions = vector.of({2: Fraction(-2, 2), 0: Fraction(6, 2)})
    same(fractions, ints)
    half = vector.of({0: Fraction(3, 2)})
    same(half + half, ints - vector.of({2: -1}))
    same(half.scaled(QQ.coerce(2)), vector.of({0: 3}))


@pytest.mark.parametrize("name", FIELDS)
def test_applied_coords_match_the_reference_vector(name):
    field, rng = FIELDS[name], random.Random(4)
    a = tensor_alt(grassmann1(), octonions())
    if field.char:
        a = reduce_instance(a, field.p)
    mu, alpha = a.mu._table_applier(), a.alpha._table_applier()
    for _ in range(50):
        x, y = rand_vector(rng, a.space), rand_vector(rng, a.space)
        assert mu(sparse(x), sparse(y)).coords == a.mu.apply(x, y).coords
        assert alpha(sparse(x)).coords == a.alpha.apply(x).coords
        same(mu(sparse(x), sparse(y)), sparse(a.mu.apply(x, y)))


@pytest.mark.parametrize("p", (0, 5))
def test_a_scanned_witness_has_the_reference_residual(p):
    a = tensor_alt(grassmann1(), octonions())
    a = reduce_instance(a, p) if p else a
    a = HomAlgebra(perturb_bilinear(a.mu, (9, 14, 7), 1), a.alpha)
    with forced("scan"):
        rep = check_product_law(a, "hom-alternative")
    assert not rep.passed
    tables = laws._Tables()
    points = laws._basis_points(a.space, tables.basis)
    scanned = {name: fn for name, _, fn, *_ in laws._identities(a, "hom-alternative", None, tables)}
    reference = {name: fn for name, _, fn in law_identities(a, "hom-alternative")}
    basis = [(Vector.basis(a.space, i), a.space.parity(i)) for i in a.space.indices()]
    r = scanned[rep.identity](tuple(points[i] for i in rep.witness))
    expected = reference[rep.identity](tuple(basis[i] for i in rep.witness))
    assert r and r.coords == expected.coords == rep.residual
    same(r, sparse(expected))
