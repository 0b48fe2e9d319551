"""Every EvenBilinear producer against a naive dense reference.

Each reference below fills a whole cube c[i][j][k] with explicit nested
loops over every index, zeros included, and the producer must give the
same tensor, on random small instances over Q, F_3 and F_5.  Densities
include 0, so zero tensors and zero maps are drawn too.
"""

import json
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import superalt.io as sio
from superalt import (
    QQ,
    EvenBilinear,
    EvenMap,
    HomAlgebra,
    HomPreAlgebra,
    PrimeField,
    SuperSpace,
    grassmann1,
    grassmann1_twisted,
    matrix_algebra,
    perturb_bilinear,
    reduce_instance,
    tensor_alt,
    tensor_pairs,
    truncpoly,
    zero,
)
from superalt.fields import field_to_json
from conftest import from_cube, from_rows, to_cube

FIELDS = (QQ, PrimeField(3), PrimeField(5))
DENSITIES = (0.0, 0.3, 0.7)


def rand_scalar(rng, field):
    if field is QQ:
        return Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
    return field.coerce(rng.randint(0, field.p - 1))


def rand_space(rng, field, max_dim=3):
    n0 = rng.randint(0, 2)
    n1 = rng.randint(0 if n0 else 1, min(2, max_dim - n0))
    return SuperSpace(field, n0, n1)


def allowed(left, right, out, i, j, k):
    return out.parity(k) == (left.parity(i) + right.parity(j)) % 2


def rand_cube(rng, left, right, out):
    density = rng.choice(DENSITIES)
    z = left.field.zero
    return [
        [
            [
                rand_scalar(rng, left.field)
                if allowed(left, right, out, i, j, k) and rng.random() < density
                else z
                for k in out.indices()
            ]
            for j in right.indices()
        ]
        for i in left.indices()
    ]


def rand_rows(rng, dom, cod):
    density = rng.choice(DENSITIES)
    z = dom.field.zero
    return [
        [
            rand_scalar(rng, dom.field)
            if cod.parity(i) == dom.parity(j) and rng.random() < density
            else z
            for j in dom.indices()
        ]
        for i in cod.indices()
    ]


def total(field, terms):
    acc = field.zero
    for t in terms:
        acc = acc + t
    return acc


def zeros(left, right, out):
    return [[[left.field.zero] * out.dim for _ in right.indices()] for _ in left.indices()]


def same(result, left, right, out, cube):
    """result is the tensor whose dense cube is `cube`."""
    assert (result.left, result.right, result.out) == (left, right, out)
    assert result == from_cube(left, right, out, cube)
    assert result.sparse_entries() == [
        (i, j, k, cube[i][j][k])
        for i in left.indices()
        for j in right.indices()
        for k in out.indices()
        if cube[i][j][k]
    ]


# -- core producers ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(FIELDS))
def test_core_producers_match_dense_reference(seed, field):
    rng = random.Random(seed)
    a, b, c, d = (rand_space(rng, field) for _ in range(4))
    cube = rand_cube(rng, a, b, c)
    bil = from_cube(a, b, c, cube)

    same(EvenBilinear.zero(a, b, c), a, b, c, zeros(a, b, c))

    # (x, y) -> m(x y): c'[i][j][k] = sum_l m[k][l] c[i][j][l]
    m = rand_rows(rng, c, d)
    ref = [
        [[total(field, (m[k][l] * cube[i][j][l] for l in c.indices())) for k in d.indices()]
         for j in b.indices()]
        for i in a.indices()
    ]
    same(bil.post_compose(from_rows(c, d, m)), a, b, d, ref)

    # (x, y) -> m(x) y: c'[i][j][k] = sum_l m[l][i] c[l][j][k]
    m = rand_rows(rng, d, a)
    ref = [
        [[total(field, (m[l][i] * cube[l][j][k] for l in a.indices())) for k in c.indices()]
         for j in b.indices()]
        for i in d.indices()
    ]
    same(bil.pre_compose_left(from_rows(d, a, m)), d, b, c, ref)

    # (x, y) -> x m(y): c'[i][j][k] = sum_l m[l][j] c[i][l][k]
    m = rand_rows(rng, d, b)
    ref = [
        [[total(field, (m[l][j] * cube[i][l][k] for l in b.indices())) for k in c.indices()]
         for j in d.indices()]
        for i in a.indices()
    ]
    same(bil.pre_compose_right(from_rows(d, b, m)), a, d, c, ref)

    other = rand_cube(rng, a, b, c)
    ref = [
        [[cube[i][j][k] + other[i][j][k] for k in c.indices()] for j in b.indices()]
        for i in a.indices()
    ]
    same(bil + from_cube(a, b, c, other), a, b, c, ref)
    # a tensor plus its negative cancels every entry
    neg = [[[-v for v in row] for row in plane] for plane in cube]
    same(bil + from_cube(a, b, c, neg), a, b, c, zeros(a, b, c))

    s = rand_scalar(rng, field)
    ref = [[[s * cube[i][j][k] for k in c.indices()] for j in b.indices()] for i in a.indices()]
    same(bil.scaled(s), a, b, c, ref)

    # c'[i][j][k] = (-1)^(parity(i) parity(j)) c[j][i][k]
    sq = rand_cube(rng, a, a, c)
    ref = [
        [
            [
                -sq[j][i][k] if a.parity(i) and a.parity(j) else sq[j][i][k]
                for k in c.indices()
            ]
            for j in a.indices()
        ]
        for i in a.indices()
    ]
    same(from_cube(a, a, c, sq).flip_signed(), a, a, c, ref)


# -- constructions and corpus ------------------------------------------


COMMUTATIVE = (
    grassmann1,
    grassmann1_twisted,
    lambda f: truncpoly(2, f),
    lambda f: truncpoly(3, f),
    lambda f: zero(1, 1, f),
)
ALTERNATIVE = COMMUTATIVE + (lambda f: matrix_algebra(2, f),)


def rescaled(alg, s):
    """Every law here is homogeneous in the product, so s mu keeps it."""
    return HomAlgebra(alg.mu.scaled(s), alg.alpha, name=alg.name)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from(FIELDS),
    st.sampled_from(COMMUTATIVE),
    st.sampled_from(ALTERNATIVE),
)
def test_tensor_alt_matches_dense_reference(seed, field, first, second):
    rng = random.Random(seed)
    c = rescaled(first(field), rand_scalar(rng, field))
    b = rescaled(second(field), rand_scalar(rng, field))
    pairs = tensor_pairs(c.space, b.space)
    cm, bm = to_cube(c.mu), to_cube(b.mu)
    ref = []
    for i, a1 in pairs:
        plane = []
        for j, a2 in pairs:
            negate = b.space.parity(a1) and c.space.parity(j)
            row = []
            for k, a3 in pairs:
                v = cm[i][j][k] * bm[a1][a2][a3]
                row.append(-v if negate else v)
            plane.append(row)
        ref.append(plane)
    t = tensor_alt(c, b)
    same(t.mu, t.space, t.space, t.space, ref)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(FIELDS))
def test_perturb_bilinear_matches_dense_reference(seed, field):
    rng = random.Random(seed)
    # an even basis vector, so that some cell is parity-allowed
    space = SuperSpace(field, rng.randint(1, 2), rng.randint(0, 1))
    cube = rand_cube(rng, space, space, space)
    bil = from_cube(space, space, space, cube)
    cells = [
        (i, j, k)
        for i in space.indices()
        for j in space.indices()
        for k in space.indices()
        if allowed(space, space, space, i, j, k)
    ]
    i, j, k = rng.choice(cells)
    delta = rand_scalar(rng, field)
    ref = [[list(row) for row in plane] for plane in cube]
    ref[i][j][k] = ref[i][j][k] + delta
    same(perturb_bilinear(bil, (i, j, k), delta), space, space, space, ref)

    # a perturbation that cancels an entry leaves no trace in the document
    nonzero = [(i, j, k) for i, j, k in cells if cube[i][j][k]]
    if nonzero:
        i, j, k = rng.choice(nonzero)
        cancelled = perturb_bilinear(bil, (i, j, k), -cube[i][j][k])
        ref = [[list(row) for row in plane] for plane in cube]
        ref[i][j][k] = field.zero
        same(cancelled, space, space, space, ref)
        doc = sio.algebra_to_doc(HomAlgebra(cancelled, EvenMap.identity(space)))
        assert [i, j, k] not in [e[:3] for e in doc["product"]]
        assert len(doc["product"]) == len(nonzero) - 1


def to_fp(q, p):
    return PrimeField(p).coerce(q.numerator) / PrimeField(p).coerce(q.denominator)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from((3, 5)))
def test_reduce_instance_matches_dense_reference(seed, p):
    rng = random.Random(seed)
    space = rand_space(rng, QQ)
    fp = SuperSpace(PrimeField(p), space.even, space.odd)
    cubes = [rand_cube(rng, space, space, space) for _ in range(2)]
    alpha = from_rows(space, space, rand_rows(rng, space, space))
    refs = [[[[to_fp(v, p) for v in row] for row in plane] for plane in cube] for cube in cubes]

    red = reduce_instance(HomAlgebra(from_cube(space, space, space, cubes[0]), alpha), p)
    same(red.mu, fp, fp, fp, refs[0])
    red = reduce_instance(
        HomPreAlgebra(
            from_cube(space, space, space, cubes[0]),
            from_cube(space, space, space, cubes[1]),
            alpha,
        ),
        p,
    )
    same(red.prec, fp, fp, fp, refs[0])
    same(red.succ, fp, fp, fp, refs[1])


# -- documents ---------------------------------------------------------


def reference_entries(field, cube):
    return [
        [i, j, k, field.to_json(v)]
        for i, plane in enumerate(cube)
        for j, row in enumerate(plane)
        for k, v in enumerate(row)
        if v
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(FIELDS))
def test_strict_parse_of_bilinear_documents_matches_dense_reference(seed, field):
    rng = random.Random(seed)
    space = rand_space(rng, field)
    cubes = [rand_cube(rng, space, space, space) for _ in range(2)]
    twist = [[field.to_json(v) for v in row] for row in rand_rows(rng, space, space)]
    head = {"scalars": field_to_json(field), "dims": [space.even, space.odd], "twist": twist}
    docs = [
        dict(head, kind="algebra", product=reference_entries(field, cubes[0])),
        dict(
            head,
            kind="pre-algebra",
            prec=reference_entries(field, cubes[0]),
            succ=reference_entries(field, cubes[1]),
        ),
    ]
    for doc in docs:
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        _, obj, warnings = sio.parse_text(text, strict=True)
        assert warnings == []
        if doc["kind"] == "algebra":
            same(obj.mu, space, space, space, cubes[0])
        else:
            same(obj.prec, space, space, space, cubes[0])
            same(obj.succ, space, space, space, cubes[1])
        assert sio.canonical_dumps(sio.object_to_doc(obj)) == text
