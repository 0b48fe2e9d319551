"""Operator, morphism, o-operator and o-induced checks against plain
nested-loop references.

Each reference below walks basis tuples with explicit nested loops in scan
order, counts every tuple it evaluates and stops at the first nonzero
residual.  The package's checks, which scan on compiled tables, must return
the same LawReport, field for field, on random small instances over Q and
F_p, failing ones included.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superalt import (
    AltBimodule,
    EvenMap,
    HomAlgebra,
    HomPreAlgebra,
    HypothesisError,
    LawReport,
    OperatorSpec,
    PrimeField,
    QQ,
    SuperSpace,
    Vector,
    check_morphism,
    check_o_operator,
    check_operator,
    enumerate_even_maps,
    independent_columns,
    nullspace,
    o_induced,
    regular_bimodule,
    solve_in_span,
)
from conftest import from_cube, from_rows

FIELDS = (QQ, PrimeField(3), PrimeField(5))
SELF_MAP_KINDS = (
    "rota-baxter",
    "averaging-left",
    "averaging-right",
    "averaging",
    "centroid",
    "endomorphism",
)


# -- random instances --------------------------------------------------


def rand_scalar(rng, field):
    if field is QQ:
        return Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
    return field.coerce(rng.randint(0, field.p - 1))


def rand_space(rng, field, max_dim=3):
    while True:
        n0, n1 = rng.randint(0, 2), rng.randint(0, 2)
        if 1 <= n0 + n1 <= max_dim:
            return SuperSpace(field, n0, n1)


def rand_map(rng, dom, cod, density=0.6):
    z = dom.field.zero
    rows = [
        [
            rand_scalar(rng, dom.field)
            if cod.parity(i) == dom.parity(j) and rng.random() < density
            else z
            for j in dom.indices()
        ]
        for i in cod.indices()
    ]
    return from_rows(dom, cod, rows)


def rand_bilinear(rng, left, right, out, density=0.4):
    z = left.field.zero
    cube = [
        [
            [
                rand_scalar(rng, left.field)
                if out.parity(k) == (left.parity(i) + right.parity(j)) % 2
                and rng.random() < density
                else z
                for k in out.indices()
            ]
            for j in right.indices()
        ]
        for i in left.indices()
    ]
    return from_cube(left, right, out, cube)


def rand_algebra(rng, space):
    return HomAlgebra(rand_bilinear(rng, space, space, space), rand_map(rng, space, space))


def rand_pre(rng, space):
    return HomPreAlgebra(
        rand_bilinear(rng, space, space, space),
        rand_bilinear(rng, space, space, space),
        rand_map(rng, space, space),
    )


def candidate_maps(rng, dom, cod):
    """A random map plus maps that often pass: zero, and identity and a
    scalar multiple of it when dom is cod."""
    maps = [rand_map(rng, dom, cod), EvenMap.zero(dom, cod)]
    if dom == cod:
        maps.append(EvenMap.identity(dom))
        maps.append(EvenMap.diagonal(dom, [rand_scalar(rng, dom.field)] * dom.dim))
    return maps


# -- nested-loop references --------------------------------------------


def first_failure(law, cases):
    """cases yields (identity, witness, parities, residual) in scan order."""
    checked = 0
    for name, witness, parities, residual in cases:
        checked += 1
        if not residual.is_zero():
            return LawReport(law, False, checked, witness, parities, name, residual.coords)
    return LawReport(law, True, checked)


def pair_cases(space, name, residual):
    for i in space.indices():
        for j in space.indices():
            x, y = Vector.basis(space, i), Vector.basis(space, j)
            yield name, (i, j), (space.parity(i), space.parity(j)), residual(x, y)


def single_cases(space, name, residual):
    for i in space.indices():
        yield name, (i,), (space.parity(i),), residual(Vector.basis(space, i))


def ref_morphism(f, src, dst, weak, law=None):
    law = law or ("weak-morphism" if weak else "morphism")
    space, F = src.space, f.apply
    if isinstance(src, HomAlgebra):
        products = [("mu", src.mu, dst.mu)]
    else:
        products = [("prec", src.prec, dst.prec), ("succ", src.succ, dst.succ)]

    def cases():
        for pname, s, d in products:
            yield from pair_cases(
                space, f"preserves-{pname}",
                lambda x, y: F(s.apply(x, y)) - d.apply(F(x), F(y)),
            )
        if not weak:
            yield from single_cases(
                space, "intertwines-twist",
                lambda x: F(src.alpha.apply(x)) - dst.alpha.apply(F(x)),
            )

    return first_failure(law, cases())


def ref_operator(kind, r, a, weight=None):
    if kind == "endomorphism":
        return ref_morphism(r, a, a, weak=False, law="endomorphism")
    mu, al, R = a.mu.apply, a.alpha.apply, r.apply

    def equation(x, y):
        if kind == "rota-baxter":
            w = a.space.field.coerce(weight)
            return mu(R(x), R(y)) - R(mu(R(x), y) + mu(x, R(y)) + mu(x, y).scaled(w))
        if kind == "averaging-left":
            return mu(R(x), R(y)) - R(mu(R(x), y))
        if kind == "averaging-right":
            return mu(R(x), R(y)) - R(mu(x, R(y)))
        if kind == "averaging":
            first = mu(R(x), R(y)) - R(mu(R(x), y))
            return first if not first.is_zero() else mu(R(x), R(y)) - R(mu(x, R(y)))
        first = R(mu(x, y)) - mu(R(x), y)  # centroid
        return first if not first.is_zero() else R(mu(x, y)) - mu(x, R(y))

    def cases():
        yield from pair_cases(a.space, "equation", equation)
        yield from single_cases(a.space, "twist-commuting", lambda x: R(al(x)) - al(R(x)))

    return first_failure(kind, cases())


def ref_o_operator(t, m):
    a, T = m.base, t.apply
    L, Rr = m.lsucc.apply, m.rprec.apply

    def cases():
        yield from pair_cases(
            m.module, "equation",
            lambda u, v: a.mu.apply(T(u), T(v)) - T(L(T(u), v) + Rr(u, T(v))),
        )
        yield from single_cases(
            m.module, "twist-intertwining",
            lambda u: T(m.beta.apply(u)) - a.alpha.apply(T(u)),
        )

    return first_failure("o-operator", cases())


def ref_independence(t, m):
    """Kernel absorbance; each (kernel vector, basis vector) pair evaluates
    two products and counts both."""
    V, T = m.module, t.apply
    checked = 0
    for ki, k in enumerate(nullspace(t)):
        for j in V.indices():
            tv = T(Vector.basis(V, j))
            r1 = T(m.rprec.apply(k, tv))  # k prec v = R(T v) k
            r2 = T(m.lsucc.apply(tv, k))  # v succ k = L(T v) k
            checked += 2
            if not r1.is_zero() or not r2.is_zero():
                bad = r1 if not r1.is_zero() else r2
                return LawReport(
                    "representation-independence", False, checked, (ki, j),
                    (k.parity(), V.parity(j)), "kernel-absorbance", bad.coords,
                )
    return LawReport("representation-independence", True, checked)


def ref_o_morphism(t, m):
    a, T = m.base, t.apply

    def circ(u, v):
        return m.rprec.apply(u, T(v)) + m.lsucc.apply(T(u), v)

    def cases():
        yield from pair_cases(
            m.module, "preserves-circ", lambda u, v: T(circ(u, v)) - a.mu.apply(T(u), T(v))
        )
        yield from single_cases(
            m.module, "intertwines-twist", lambda u: T(m.beta.apply(u)) - a.alpha.apply(T(u))
        )

    return first_failure("morphism", cases())


# -- comparisons -------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(FIELDS))
def test_check_operator_matches_reference(seed, field):
    rng = random.Random(seed)
    a = rand_algebra(rng, rand_space(rng, field))
    for kind in SELF_MAP_KINDS:
        for r in candidate_maps(rng, a.space, a.space):
            weight = rand_scalar(rng, field) if kind == "rota-baxter" else None
            got = check_operator(OperatorSpec(kind, r, weight=weight), a)
            assert got == ref_operator(kind, r, a, weight), kind


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(FIELDS))
def test_check_morphism_matches_reference(seed, field):
    rng = random.Random(seed)
    space = rand_space(rng, field)
    for build in (rand_algebra, rand_pre):
        src, dst = build(rng, space), build(rng, space)
        for f in candidate_maps(rng, space, space) + [src.alpha]:
            for weak in (False, True):
                assert check_morphism(f, src, dst, weak) == ref_morphism(f, src, dst, weak)
                assert check_morphism(f, src, src, weak) == ref_morphism(f, src, src, weak)
        pre_endo = OperatorSpec("endomorphism", src.alpha)
        assert check_operator(pre_endo, src) == ref_morphism(
            src.alpha, src, src, weak=False, law="endomorphism"
        )


def rand_bimodule(rng, a):
    if rng.random() < 0.4:
        return regular_bimodule(a)
    v = rand_space(rng, a.space.field, max_dim=2)
    return AltBimodule(
        a,
        rand_map(rng, v, v),
        rand_bilinear(rng, a.space, v, v),
        rand_bilinear(rng, v, a.space, v),
    )


def ref_image(t, m, ind):
    """The image structure of o_induced against its Vector-level reading:
    the earliest independent T-images as basis, each product of two basis
    images and alpha of each basis image solved over that basis."""
    basis_images = [t.image_of_basis(j) for j in m.module.indices()]
    assert ind.image_columns == independent_columns(basis_images)
    img_basis = [basis_images[c] for c in ind.image_columns]
    pairs = [(a, ca, b, cb) for a, ca in enumerate(ind.image_columns)
             for b, cb in enumerate(ind.image_columns)]
    for mine, product in ((ind.image.prec, ind.pre.prec), (ind.image.succ, ind.pre.succ)):
        for a, ca, b, cb in pairs:
            expected = solve_in_span(img_basis, t.apply(product.pair_of_basis(ca, cb)))
            assert list(mine.pair_of_basis(a, b).coords) == expected
    for b, vec in enumerate(img_basis):
        expected = solve_in_span(img_basis, m.base.alpha.apply(vec))
        assert list(ind.image.alpha.image_of_basis(b).coords) == expected


def compare_o_induced(t, m):
    """o_induced against the references: either both reports match and the
    image structure is the reference's, or it raised with the first failing
    report."""
    expected_o = ref_o_operator(t, m)
    assert check_o_operator(t, m) == expected_o
    expected_ind = ref_independence(t, m) if expected_o.passed else None
    try:
        ind = o_induced(t, m)
    except HypothesisError as exc:
        assert exc.report == (expected_o if not expected_o.passed else expected_ind)
        return exc.report.law
    assert ind.independence == expected_ind
    assert ind.morphism == ref_o_morphism(t, m)
    ref_image(t, m, ind)
    return "ok" if ind.independence.checked else "ok, injective"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(FIELDS[1:]))
def test_o_operator_and_o_induced_match_reference(seed, field):
    rng = random.Random(seed)
    a = rand_algebra(rng, rand_space(rng, field, max_dim=2))
    m = rand_bimodule(rng, a)
    # every even map V -> A: the o-operators among them reach o_induced
    for t in enumerate_even_maps(m.module, a.space, budget=300):
        compare_o_induced(t, m)


def test_o_induced_reference_sees_every_reachable_outcome():
    """The random instances above reach o-operator refusals and full
    o_induced results with nonzero kernels.  A kernel-absorbance failure is
    unreachable: for k in ker T the o-operator equation at (k, v) reads
    0 = T(k prec v), and at (v, k) it reads 0 = T(v succ k)."""
    outcomes = set()
    for seed in range(40):
        rng = random.Random(seed)
        a = rand_algebra(rng, rand_space(rng, PrimeField(3), max_dim=2))
        m = rand_bimodule(rng, a)
        for t in enumerate_even_maps(m.module, a.space, budget=300):
            outcomes.add(compare_o_induced(t, m))
    assert {"o-operator", "ok"} <= outcomes


def test_o_induced_over_the_rationals_matches_reference(p3, rb3):
    m = regular_bimodule(p3)
    for t in (rb3, EvenMap.zero(p3.space), EvenMap.identity(p3.space)):
        compare_o_induced(t, m)


def test_a_table_that_disagrees_with_the_reference_raises(monkeypatch, p3, rb3):
    """The checks scan on tables; at every hit the reference closure
    recomputes the residual, so a table applier that doubles every map's
    image is caught at the first failing tuple."""
    ident = EvenMap.identity(p3.space)
    m = regular_bimodule(p3)
    checks = [
        lambda: check_operator(OperatorSpec("rota-baxter", ident, weight=0), p3),
        lambda: check_o_operator(ident, m),
        lambda: check_morphism(rb3, p3, p3),
    ]
    assert not any(check().passed for check in checks)
    table_applier = EvenMap._table_applier

    def doubled(self):
        apply = table_applier(self)
        return lambda x: apply(x).scaled(QQ.coerce(2))

    monkeypatch.setattr(EvenMap, "_table_applier", doubled)
    for check in checks:
        with pytest.raises(RuntimeError, match="but the reference gives"):
            check()
