"""The exact linear algebra of core against sympy's DomainMatrix.

sympy serves only as a test oracle here.  Matrices are random products
(m x k)(k x n) of small integer matrices, so their rank is at most k:
k = 0 gives zero matrices, small k rank-deficient ones, and m = 0 or n = 0
empty ones.  Every space is purely even, so every matrix is an even map.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superalt import (
    QQ,
    PrimeField,
    SuperSpace,
    Vector,
    independent_columns,
    nullspace,
    solve_in_span,
)
from conftest import from_rows

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

FIELDS = {
    "Q": (QQ, sympy.QQ),
    "F3": (PrimeField(3), sympy.GF(3)),
    "F5": (PrimeField(5), sympy.GF(5)),
}


def int_matrix(rows, cols):
    return st.lists(
        st.lists(st.integers(-2, 2), min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def low_rank(draw, max_dim=4):
    """An m x n integer matrix of rank at most k, with its dims."""
    m, n, k = (draw(st.integers(0, max_dim)) for _ in range(3))
    left, right = draw(int_matrix(m, k)), draw(int_matrix(k, n))
    rows = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
    return m, n, rows


def theirs(K, v):
    """A scalar (int, Fraction or residue) as an element of the sympy domain K."""
    if isinstance(v, Fraction):
        return K(v.numerator, v.denominator)
    return K(getattr(v, "val", v))


def oracle(K, m, n, rows):
    return DomainMatrix([[theirs(K, v) for v in row] for row in rows], (m, n), K)


def ours(field, K, x):
    """A sympy domain element as a scalar of field."""
    if field is QQ:
        return Fraction(int(x.numerator), int(x.denominator))
    return field.coerce(K.to_int(x))


def columns_as_vectors(field, m, n, rows):
    space = SuperSpace(field, m, 0)
    return [Vector(space, [rows[i][j] for i in range(m)]) for j in range(n)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), low_rank())
@example("Q", (0, 0, []))
@example("F3", (0, 3, []))
@example("F5", (3, 0, [[], [], []]))
def test_nullspace_matches_sympy(name, matrix):
    field, K = FIELDS[name]
    m, n, rows = matrix
    f = from_rows(SuperSpace(field, n, 0), SuperSpace(field, m, 0), rows)
    a = oracle(K, m, n, rows)
    _, pivots = a.rref()
    free = [j for j in range(n) if j not in pivots]
    # sympy scales each basis vector freely; ours carries 1 at its free column
    expected = [
        [ours(field, K, x / vec[j]) for x in vec] for vec, j in zip(a.nullspace().to_list(), free)
    ]
    assert [list(v.coords) for v in nullspace(f)] == expected


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), low_rank())
@example("Q", (0, 0, []))
@example("F3", (2, 0, [[], []]))
@example("F5", (0, 3, []))
def test_independent_columns_are_the_rref_pivots(name, matrix):
    field, K = FIELDS[name]
    m, n, rows = matrix
    _, pivots = oracle(K, m, n, rows).rref()
    assert independent_columns(columns_as_vectors(field, m, n, rows)) == list(pivots)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), low_rank(), st.lists(st.integers(-2, 2), max_size=4))
@example("Q", (0, 0, []), [])
@example("F3", (2, 0, [[], []]), [1, 0])
@example("F5", (0, 3, []), [])
def test_solve_in_span_matches_sympy(name, matrix, target):
    """A solution exactly when rank [B | t] = rank B, and then B x = t."""
    field, K = FIELDS[name]
    m, n, rows = matrix
    target = (target + [0] * m)[:m]
    basis = columns_as_vectors(field, m, n, rows)
    sol = solve_in_span(basis, Vector(SuperSpace(field, m, 0), target))
    a = oracle(K, m, n, rows)
    augmented = oracle(K, m, n + 1, [row + [t] for row, t in zip(rows, target)])
    if a.rank() != augmented.rank():
        assert sol is None
        return
    assert sol is not None and len(sol) == n
    assert (a * oracle(K, n, 1, [[x] for x in sol])).to_list() == [[K(t)] for t in target]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), low_rank(), st.lists(st.integers(-2, 2), max_size=4))
def test_solve_in_span_recovers_coefficients_over_independent_columns(name, matrix, coeffs):
    field, K = FIELDS[name]
    m, n, rows = matrix
    vectors = columns_as_vectors(field, m, n, rows)
    basis = [vectors[j] for j in independent_columns(vectors)]
    coeffs = (coeffs + [0] * len(basis))[: len(basis)]
    target = Vector.zero(SuperSpace(field, m, 0))
    for c, v in zip(coeffs, basis):
        target = target + v.scaled(c)
    assert solve_in_span(basis, target) == [field.coerce(c) for c in coeffs]
