"""The fused polynomial kernels against the generic loop over _Poly operators.

On the polynomial binder every tensor and map is compiled into a fused
kernel (`EvenBilinear._poly_applier`, `EvenMap._poly_applier`,
`operators._FreeMap._poly_applier`): each term of a product goes straight
into the _Poly of its output coordinate, a workspace returned raw, with the
terms that cancelled and, over F_p, unreduced coefficients.  Values are
normalized where they are read, by `_Poly.normal`.  The reference below is
the loop the appliers ran before, kept here: per cell, the product of the
two coordinates as a polynomial, then its product with each structure
constant added into the accumulator, all through _Poly's sums.  Read in
normal form, the kernels must give the same terms exactly, and the normal
form has no zero coefficient and, over F_p, every coefficient in [0, p).
"""

import random
from fractions import Fraction

import pytest

from superalt import EvenBilinear, EvenMap, PrimeField, QQ, SuperSpace
from superalt.core import _plain, _Poly, _TableVector
from superalt.operators import EXPONENT_BITS, _FreeMap

FIELDS = (QQ, PrimeField(3), PrimeField(5))
FIELD_IDS = ("Q", "F3", "F5")


def product(a, b):
    """a * b for scalars and _Poly values, one _Poly sum per pair of terms."""
    if not isinstance(a, _Poly) and not isinstance(b, _Poly):
        return a * b
    out = 0
    for ma, ca in _Poly.terms(a):
        for mb, cb in _Poly.terms(b):
            out = out + _Poly({ma + mb: ca * cb})
    return out


def reference_bilinear(b: EvenBilinear, x, y):
    acc = [0] * b.out.dim
    for i, xv in enumerate(x):
        for j, yv in enumerate(y):
            if xv and yv and b._rows[i][j]:
                s = product(xv, yv)
                for k, c in b._rows[i][j]:
                    acc[k] = acc[k] + product(s, _plain(c))
    return acc


def reference_columns(cols, codomain: SuperSpace, x):
    """cols[j] lists (i, entry) for the nonzero entries of column j."""
    acc = [0] * codomain.dim
    for j, xv in enumerate(x):
        if xv:
            for i, m in cols[j]:
                acc[i] = acc[i] + product(m, xv)
    return acc


def normalized(v, field) -> list:
    """Each coordinate as the reads take it, asserting the normal form: no
    zero coefficient and, over F_p, every coefficient in [0, p)."""
    out = [_Poly.normal(c, field.char) for c in v]
    for c in out:
        assert type(c) is _Poly
        for a in c.values():
            assert a and (0 <= a < field.p if field.char else True)
    return out


def assert_same(fused, reference, field):
    """The kernel returns its workspaces raw, and reads as the reference."""
    assert type(fused) is _TableVector
    assert all(type(f) is _Poly or f == 0 for f in fused)
    assert normalized(fused, field) == normalized(reference, field)


def rand_constant(rng, field):
    """A nonzero constant, mostly other than +-1."""
    if field.char:
        return field.coerce(rng.randrange(1, field.p))
    return field.coerce(rng.choice((2, -3, 5, Fraction(1, 2), Fraction(-5, 3), 1, -1)))


def rand_bilinear(rng, field, left, right, out, density=0.7):
    entries = [
        (i, j, k, rand_constant(rng, field))
        for i in left.indices() for j in right.indices() for k in out.indices()
        if out.parity(k) == (left.parity(i) + right.parity(j)) % 2 and rng.random() < density
    ]
    return EvenBilinear.from_entries(left, right, out, entries)


def rand_map(rng, field, dom, cod, density=0.7):
    return EvenMap.from_entries(dom, cod, [
        (i, j, rand_constant(rng, field)) for i in cod.indices() for j in dom.indices()
        if cod.parity(i) == dom.parity(j) and rng.random() < density
    ])


def rand_coordinate(rng, field):
    """0, a plain scalar, or a _Poly over few monomials, so that terms meet
    and cancel; over F_p its coefficients are residues, over Q they are not
    all integral."""
    kind = rng.random()
    if kind < 0.2:
        return 0
    if kind < 0.45:
        return _plain(rand_constant(rng, field))
    poly = {rng.choice((0, 1, 2, 4, 8)): _plain(rand_constant(rng, field))
            for _ in range(rng.randint(1, 3))}
    return _Poly(poly)


def rand_vector(rng, space):
    return _TableVector([rand_coordinate(rng, space.field) for _ in space.indices()])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_bilinear_kernel_matches_the_generic_loop(field):
    rng = random.Random(field.p if field.char else 0)
    several = 0  # tables with a cell of several structure constants
    for _ in range(60):
        left, right = (SuperSpace(field, rng.randint(0, 2), rng.randint(0, 2)) for _ in range(2))
        out = SuperSpace(field, rng.randint(1, 2), rng.randint(1, 2))
        b = rand_bilinear(rng, field, left, right, out)
        several += any(len(cell) > 1 for row in b._rows for cell in row)
        apply = b._poly_applier()
        for _ in range(5):
            x, y = rand_vector(rng, left), rand_vector(rng, right)
            assert_same(apply(x, y), reference_bilinear(b, x, y), field)
    assert several >= 20


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_column_kernels_match_the_generic_loop(field):
    rng = random.Random(field.p if field.char else 0)
    for _ in range(60):
        dom, cod = (SuperSpace(field, rng.randint(0, 3), rng.randint(0, 2)) for _ in range(2))
        m = rand_map(rng, field, dom, cod)
        cols = [[(i, _plain(v)) for i, v in col] for col in m._cols]
        free = [(i, j) for i in cod.indices() for j in dom.indices()
                if cod.parity(i) == dom.parity(j) and rng.random() < 0.6]
        unknown = _FreeMap(dom, cod, free)
        free_cols = [[] for _ in dom.indices()]
        for var, (i, j) in enumerate(free):
            free_cols[j].append((i, _Poly({1 << EXPONENT_BITS * var: 1})))
        for _ in range(5):
            x = rand_vector(rng, dom)
            assert_same(m._poly_applier()(x), reference_columns(cols, cod, x), field)
            assert_same(unknown._poly_applier()(x), reference_columns(free_cols, cod, x), field)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_terms_that_cancel_leave_no_zero_coefficient(field):
    """Two cells whose products meet at one monomial of one output
    coordinate with opposite coefficients: the kernel keeps the raw term,
    0 over Q and p over F_p, and its normal form leaves no zero coefficient."""
    p = field.char
    s = SuperSpace(field, 2, 0)
    two, minus_two = field.coerce(2), field.coerce(-2)
    b = EvenBilinear.from_entries(s, s, s, [(0, 0, 0, two), (1, 0, 0, minus_two),
                                            (0, 0, 1, two), (1, 0, 1, two)])
    x = _TableVector([_Poly({1: 1}), _Poly({1: 1, 2: 1})])
    y = _TableVector([_Poly({4: 1}), 0])
    r = b._poly_applier()(x, y)
    assert_same(r, reference_bilinear(b, x, y), field)
    assert r[0] == _Poly({5: p, 6: _plain(minus_two)})  # the x_1 x_4 terms cancel
    assert _Poly.normal(r[0], p) == _Poly({6: _plain(minus_two)})
    assert r[1] == _Poly({5: 4, 6: 2})
    assert _Poly.normal(r[1], p) == _Poly({5: 4 % p if p else 4, 6: 2})
    m = EvenMap.from_entries(s, s, [(0, 0, two), (0, 1, two)])
    z = _TableVector([_Poly({1: 1}), _Poly({1: p - 1 if p else -1})])
    assert_same(m._poly_applier()(z), reference_columns([[(0, _plain(two))]] * 2, s, z), field)
    assert tuple(m._poly_applier()(z)) == (_Poly({1: 2 * p}), 0)  # 0: no term reached it
    assert _Poly.normal(m._poly_applier()(z)[0], p) == _Poly()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_read_normal_form_keeps_each_nonzero_residue_once(field):
    """_Poly.normal of raw values: every term whose coefficient is nonzero
    (mod p over F_p) stays, reduced into [0, p); the others go."""
    p, rng = field.char, random.Random(field.char)
    for _ in range(200):
        raw = _Poly({rng.randrange(8): rng.randrange(-3 * (p or 3), 3 * (p or 3))
                     for _ in range(rng.randint(0, 6))})
        for c in (raw, rng.randrange(-10, 10)):
            normal = normalized([c], field)[0]
            terms = dict(_Poly.terms(c))
            assert normal == {m: a % p if p else a for m, a in terms.items() if (a % p if p else a)}


def test_a_polynomial_times_a_polynomial_is_refused():
    """Only the fused kernels multiply polynomials; _Poly scales by scalars."""
    p = _Poly({1: 2})
    assert p * 3 == 3 * p == _Poly({1: 6})
    assert p * 0 == _Poly()
    with pytest.raises(TypeError):
        p * p
