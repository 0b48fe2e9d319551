import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superalt import (
    QQ,
    EvenBilinear,
    EvenMap,
    PrimeField,
    RationalField,
    SuperSpace,
    ValidationError,
    Vector,
    independent_columns,
    nullspace,
    solve_in_span,
)
from conftest import from_cube, from_rows, to_cube

S21 = SuperSpace(QQ, 2, 1)
S30 = SuperSpace(QQ, 3, 0)


def test_space_parity_layout():
    assert S21.dim == 3
    assert S21.dims == (2, 1)
    assert [S21.parity(i) for i in range(3)] == [0, 0, 1]
    assert list(S21.indices_of_parity(0)) == [0, 1]
    assert list(S21.indices_of_parity(1)) == [2]


def test_vector_basics():
    v = Vector.basis(S21, 0) + Vector.basis(S21, 1).scaled(Fraction(2))
    assert v.coords == (Fraction(1), Fraction(2), Fraction(0))
    assert v.support() == [0, 1]
    assert v.parity() == 0
    assert Vector.basis(S21, 2).parity() == 1
    assert Vector.zero(S21).parity() is None


def test_vector_mixed_parity_has_no_parity():
    v = Vector.basis(S21, 0) + Vector.basis(S21, 2)
    assert v.parity() is None


def test_vector_arithmetic_axioms():
    rng = random.Random(7)
    for _ in range(25):
        a = Vector(S21, [Fraction(rng.randint(-4, 4)) for _ in range(3)])
        b = Vector(S21, [Fraction(rng.randint(-4, 4)) for _ in range(3)])
        assert a + b == b + a
        assert (a - b) + b == a
        assert a.scaled(Fraction(2)) == a + a
        assert (-a) + a == Vector.zero(S21)


def test_even_map_rejects_parity_mixing_entries():
    # e2 is odd, e0 even: a nonzero (0, 2) entry is not an even map
    rows = [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
    with pytest.raises(ValidationError) as ei:
        from_rows(S21, S21, [[Fraction(v) for v in r] for r in rows])
    assert any("odd block entry" in e for e in ei.value.errors)


def test_even_map_collects_all_violations():
    rows = [[0, 0, 1], [0, 0, 1], [1, 0, 0]]
    with pytest.raises(ValidationError) as ei:
        from_rows(S21, S21, [[Fraction(v) for v in r] for r in rows])
    assert len(ei.value.errors) == 3


def test_even_map_apply_and_compose():
    f = EvenMap.diagonal(S21, (1, 1, 2))
    g = EvenMap.diagonal(S21, (3, 4, 5))
    v = Vector(S21, [Fraction(1), Fraction(1), Fraction(1)])
    assert f.apply(v).coords == (Fraction(1), Fraction(1), Fraction(2))
    # compose is "self after other"
    assert f.compose(g).apply(v) == f.apply(g.apply(v))


def test_even_map_power_matches_repeated_compose():
    f = EvenMap.diagonal(S30, (1, 2, 3))
    assert f.power(0) == EvenMap.identity(S30)
    assert f.power(5).apply(Vector.basis(S30, 1)).coords[1] == Fraction(32)


def test_even_map_commutes_with():
    f = EvenMap.diagonal(S30, (2, 2, 2))
    g = EvenMap.diagonal(S30, (7, 7, 7))
    assert f.commutes_with(g)
    h = from_rows(
        S30,
        S30,
        [[Fraction(0), Fraction(1), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(0)]],
    )
    # h shifts e1 to e0; scaling only e0 does not commute with that
    assert h.commutes_with(EvenMap.identity(S30))
    assert not h.commutes_with(EvenMap.diagonal(S30, (2, 1, 1)))


def test_identity_coerces_each_diagonal_entry_once(monkeypatch):
    # 4 096 cells, 64 of them on the diagonal: only those are coerced
    s = SuperSpace(QQ, 32, 32)
    coerce, calls = RationalField.coerce, []

    def counting(field, v):
        calls.append(v)
        return coerce(field, v)

    monkeypatch.setattr(RationalField, "coerce", counting)
    ident = EvenMap.identity(s)
    assert len(calls) == 64
    assert ident.sparse_entries() == [(i, i, Fraction(1)) for i in range(64)]


def test_even_map_has_no_dense_rows_constructor():
    rows = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    with pytest.raises(TypeError):
        EvenMap(S21, S21, rows)
    assert EvenMap.__slots__ == ("domain", "codomain", "_cols")
    assert EvenMap.identity(S21).entries == tuple(map(tuple, rows))


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_reordered_split_and_cancelling_entries_give_equal_maps(field):
    s = SuperSpace(field, 2, 1)
    whole = EvenMap.from_entries(s, s, [(0, 1, 3), (2, 2, -2)])
    split = EvenMap.from_entries(s, s, [(2, 2, -1), (0, 1, 1), (1, 0, 4), (2, 2, -1), (0, 1, 2),
                                        (1, 0, -4)])
    assert split == whole and hash(split) == hash(whole)
    assert split.sparse_entries() == whole.sparse_entries()
    assert split != EvenMap.from_entries(s, s, [(0, 1, 3)])
    cancelled = EvenMap.from_entries(s, s, [(1, 1, 2), (2, 2, 1), (2, 2, -1), (1, 1, -2)])
    zero = EvenMap.zero(s)
    assert cancelled == zero and hash(cancelled) == hash(zero)
    assert cancelled.sparse_entries() == []


def test_even_map_refuses_out_of_range_then_parity_in_cell_order():
    with pytest.raises(ValidationError) as ei:
        EvenMap.from_entries(S21, S21, [(3, 0, 1), (0, 2, 1), (0, -1, 1)])
    assert ei.value.errors == [
        "entry (3, 0) out of range for codomain x domain = 3x3",
        "entry (0, -1) out of range for codomain x domain = 3x3",
    ]
    with pytest.raises(ValidationError) as ei:
        EvenMap.from_entries(S21, S21, [(2, 1, 1), (0, 2, 1), (2, 0, 1), (0, 2, -1)])
    assert ei.value.errors == [
        "odd block entry at (2, 0) must vanish",
        "odd block entry at (2, 1) must vanish",
    ]


def test_bilinear_parity_constraint():
    # even*even landing in the odd block
    with pytest.raises(ValidationError) as exc:
        EvenBilinear.from_entries(S21, S21, S21, [(0, 0, 2, Fraction(1))])
    assert exc.value.errors == ["parity-violating entry at (0, 0, 2)"]


def test_from_entries_rejects_every_index_out_of_range():
    from superalt import perturb_bilinear, truncpoly

    mu = truncpoly(3).mu
    # a negative index must not wrap around to the last cell
    with pytest.raises(ValidationError) as exc:
        perturb_bilinear(mu, (-1, 0, -1), 1)
    assert exc.value.errors == ["entry (-1, 0, -1) out of range for dims 3x3x3"]
    # past the end is a ValidationError listing every bad entry, not an IndexError
    with pytest.raises(ValidationError) as exc:
        EvenBilinear.from_entries(S21, S21, S21, [(3, 0, 0, 1), (0, 0, 0, 1), (0, 1, 5, 2)])
    assert exc.value.errors == [
        "entry (3, 0, 0) out of range for dims 3x3x3",
        "entry (0, 1, 5) out of range for dims 3x3x3",
    ]


def test_from_entries_coerces_each_given_entry_once(monkeypatch):
    # 262 144 cells, three of them given: validation reads the entries only
    s = SuperSpace(QQ, 32, 32)
    coerce, calls = RationalField.coerce, []

    def counting(field, v):
        calls.append(v)
        return coerce(field, v)

    monkeypatch.setattr(RationalField, "coerce", counting)
    b = EvenBilinear.from_entries(s, s, s, [(0, 0, 0, 1), (0, 33, 33, 2), (40, 41, 1, 3)])
    assert len(calls) == 3
    assert b.sparse_entries() == [
        (0, 0, 0, Fraction(1)), (0, 33, 33, Fraction(2)), (40, 41, 1, Fraction(3)),
    ]


def test_bilinear_has_no_dense_cube_constructor():
    cube = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    with pytest.raises(TypeError):
        EvenBilinear(S21, S21, S21, cube)
    assert not hasattr(EvenBilinear.zero(S21, S21, S21), "c")


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_reordered_and_split_entries_give_equal_tensors(field):
    s = SuperSpace(field, 2, 1)
    whole = EvenBilinear.from_entries(s, s, s, [(0, 1, 1, 3), (2, 2, 0, -2)])
    split = EvenBilinear.from_entries(
        s, s, s, [(2, 2, 0, -1), (0, 1, 1, 1), (2, 2, 0, -1), (0, 1, 1, 2)]
    )
    assert split == whole and hash(split) == hash(whole)
    assert split.sparse_entries() == whole.sparse_entries()
    assert split != EvenBilinear.from_entries(s, s, s, [(0, 1, 1, 3)])


def test_entries_that_sum_to_zero_give_the_zero_tensor():
    b = EvenBilinear.from_entries(S21, S21, S21, [(0, 0, 0, 1), (2, 2, 1, 5), (0, 0, 0, -1),
                                                  (2, 2, 1, -5)])
    zero = EvenBilinear.zero(S21, S21, S21)
    assert b == zero and hash(b) == hash(zero)
    assert b.sparse_entries() == []


def test_bilinear_sparse_entries_sorted_and_zero_free():
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    c[1][0][0] = Fraction(2)
    c[0][1][1] = Fraction(-1)
    b = from_cube(S21, S21, S21, c)
    assert b.sparse_entries() == [(0, 1, 1, Fraction(-1)), (1, 0, 0, Fraction(2))]


def test_bilinear_apply_is_bilinear():
    rng = random.Random(11)
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    c[0][0][0] = Fraction(1)
    c[0][1][1] = Fraction(3)
    c[2][2][0] = Fraction(-2)
    b = from_cube(S21, S21, S21, c)
    for _ in range(20):
        x = Vector(S21, [Fraction(rng.randint(-3, 3)) for _ in range(3)])
        y = Vector(S21, [Fraction(rng.randint(-3, 3)) for _ in range(3)])
        z = Vector(S21, [Fraction(rng.randint(-3, 3)) for _ in range(3)])
        assert b.apply(x + z, y) == b.apply(x, y) + b.apply(z, y)
        assert b.apply(x, y + z) == b.apply(x, y) + b.apply(x, z)
        assert b.apply(x.scaled(Fraction(5)), y) == b.apply(x, y).scaled(Fraction(5))


def test_bilinear_flip_signed_is_an_involution():
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    c[2][2][0] = Fraction(1)
    c[0][1][1] = Fraction(2)
    b = from_cube(S21, S21, S21, c)
    assert b.flip_signed().flip_signed() == b
    # odd*odd entries change sign, even*even entries do not
    assert to_cube(b.flip_signed())[2][2][0] == Fraction(-1)
    assert to_cube(b.flip_signed())[1][0][1] == Fraction(2)


def test_compose_hooks_agree_with_pointwise_definitions():
    f = EvenMap.diagonal(S21, (2, 3, 4))
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][1] = Fraction(1)
    c[2][2][1] = Fraction(0)
    b = from_cube(S21, S21, S21, c)
    x, y = Vector.basis(S21, 0), Vector.basis(S21, 1)
    assert b.post_compose(f).apply(x, y) == f.apply(b.apply(x, y))
    assert b.pre_compose_left(f).apply(x, y) == b.apply(f.apply(x), y)
    assert b.pre_compose_right(f).apply(x, y) == b.apply(x, f.apply(y))


small_frac = st.integers(min_value=-4, max_value=4).map(Fraction)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_frac, min_size=3, max_size=3), min_size=1, max_size=4))
def test_solve_in_span_reproduces_targets(cols):
    basis = [Vector(S30, c) for c in cols]
    # any basis vector of the span must be expressible
    for v in basis:
        coeffs = solve_in_span(basis, v)
        assert coeffs is not None
        acc = Vector.zero(S30)
        for w, t in zip(basis, coeffs):
            acc = acc + w.scaled(t)
        assert acc == v


def test_solve_in_span_detects_outsiders():
    basis = [Vector.basis(S30, 0)]
    assert solve_in_span(basis, Vector.basis(S30, 1)) is None


def test_independent_columns_prefers_earliest():
    vs = [
        Vector.basis(S30, 0),
        Vector.basis(S30, 0).scaled(Fraction(2)),
        Vector.basis(S30, 1),
    ]
    assert independent_columns(vs) == [0, 2]


def test_nullspace_of_a_rank_one_map():
    rows = [
        [Fraction(1), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
    f = from_rows(S21, S21, rows)
    kern = nullspace(f)
    assert len(kern) == 1
    (k,) = kern
    assert f.apply(k).is_zero()
    assert k.parity() == 0


def test_core_works_over_prime_fields():
    F = PrimeField(5)
    s = SuperSpace(F, 2, 0)
    f = EvenMap.diagonal(s, (F.coerce(2), F.coerce(1)))
    v = Vector(s, [F.coerce(3), F.coerce(4)])
    assert f.apply(v).coords == (F.coerce(6), F.coerce(4))
    assert f.power(4) == EvenMap.diagonal(s, (F.coerce(16), F.coerce(1)))


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_even_map_sum_adds_entrywise(field):
    s = SuperSpace(field, 2, 1)
    f = from_rows(s, s, [[1, 2, 0], [0, 3, 0], [0, 0, 4]])
    g = from_rows(s, s, [[-1, 1, 0], [5, 0, 0], [0, 0, 1]])
    total = f + g
    assert total.entries == tuple(
        tuple(a + b for a, b in zip(fr, gr)) for fr, gr in zip(f.entries, g.entries)
    )
    assert f + EvenMap.zero(s) == f
    assert f + f.scaled(-1) == EvenMap.zero(s)
    with pytest.raises(ValidationError, match="shape mismatch"):
        f + EvenMap.identity(SuperSpace(field, 1, 2))
