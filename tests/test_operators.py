from fractions import Fraction

import pytest

from superalt import (
    OPERATOR_KINDS,
    EvenMap,
    HypothesisError,
    OperatorSpec,
    PrimeField,
    SuperSpace,
    ValidationError,
    alt_of,
    build_named,
    check_o_operator,
    check_operator,
    enumerate_even_maps,
    enumerate_signed_permutation_maps,
    grassmann1,
    integration,
    o_induced,
    rb_split,
    reduce_instance,
    reduce_map,
    regular_bimodule,
    search_operators,
    truncpoly,
    zero,
)


def test_operator_kinds_catalog():
    assert "rota-baxter" in OPERATOR_KINDS
    assert "o-operator" in OPERATOR_KINDS


def test_spec_validation():
    f = EvenMap.identity(truncpoly(3).space)
    with pytest.raises(ValidationError):
        OperatorSpec("centroid", f, weight=Fraction(1))
    with pytest.raises(ValidationError):
        OperatorSpec("endomorphism", f, bimodule=object())
    with pytest.raises(ValidationError):
        OperatorSpec("no-such-kind", f)


def test_integration_is_rota_baxter(p3, rb3):
    rep = check_operator(OperatorSpec("rota-baxter", rb3, weight=Fraction(0)), p3)
    assert rep.passed and rep.checked == 12


def test_identity_is_not_rota_baxter(p3):
    rep = check_operator(OperatorSpec("rota-baxter", EvenMap.identity(p3.space), weight=Fraction(0)), p3)
    assert not rep.passed
    assert rep.witness == (0, 0)
    assert rep.identity == "equation"


def test_weighted_rota_baxter_negative_identity(p3):
    # R = -id satisfies the weight-1 equation on any associative product
    neg = EvenMap.diagonal(p3.space, (Fraction(-1),) * 3)
    rep = check_operator(OperatorSpec("rota-baxter", neg, weight=Fraction(1)), p3)
    assert rep.passed


def test_scalar_maps_are_centroid_and_averaging(p3):
    lam = EvenMap.diagonal(p3.space, (Fraction(5, 7),) * 3)
    for kind in ("centroid", "averaging", "averaging-left", "averaging-right"):
        assert check_operator(OperatorSpec(kind, lam), p3).passed, kind


def test_integration_is_not_centroid(p3, rb3):
    assert not check_operator(OperatorSpec("centroid", rb3), p3).passed


def test_endomorphism_check_works_on_pre_instances(pre3):
    rep = check_operator(OperatorSpec("endomorphism", EvenMap.identity(pre3.space)), pre3)
    assert rep.passed and rep.law == "endomorphism"
    bad = EvenMap.diagonal(pre3.space, (1, 1, 2))
    assert not check_operator(OperatorSpec("endomorphism", bad), pre3).passed


def test_o_operator_regular_recovers_rb(p3, rb3):
    m = regular_bimodule(p3)
    rep = check_o_operator(rb3, m)
    assert rep.passed
    bad = check_o_operator(EvenMap.identity(p3.space), m)
    assert not bad.passed and bad.witness == (0, 0)


@pytest.mark.parametrize("name,p,budget,found", [
    ("truncpoly-3", 5, 12000, 40), ("l1-p3", 3, 3000, 15), ("truncpoly-3", 3, None, 15),
])
def test_rota_baxter_of_weight_0_is_the_o_operator_of_the_regular_bimodule(name, p, budget, found):
    # R(x) R(y) = R(R(x) y + x R(y)) is the o-operator equation with the
    # product acting on A itself, so both searches walk the same maps
    a = build_named(name, prime=p)[1]
    rb = search_operators(a, "rota-baxter", budget=budget)
    o = search_operators(a, "o-operator", bimodule=regular_bimodule(a), budget=budget)
    assert [t.sparse_entries() for t in o.found] == [t.sparse_entries() for t in rb.found]
    assert len(rb.found) == found
    assert (o.candidates_checked, o.exhausted) == (rb.candidates_checked, rb.exhausted)
    assert rb.exhausted == (budget is None)


def test_o_induced_matches_rb_split(p3, rb3, pre3):
    ind = o_induced(rb3, regular_bimodule(p3))
    assert ind.pre.prec == pre3.prec
    assert ind.pre.succ == pre3.succ
    assert ind.morphism.passed
    assert ind.image_columns == [0, 1]
    assert ind.image.space.dims == (2, 0)
    assert ind.independence.passed


def test_o_induced_refuses_non_o_operators(p3):
    with pytest.raises(HypothesisError):
        o_induced(EvenMap.identity(p3.space), regular_bimodule(p3))


def test_even_map_enumeration_counts_and_order():
    s = SuperSpace(PrimeField(3), 1, 1)
    maps = list(enumerate_even_maps(s))
    assert len(maps) == 9
    assert maps[0] == EvenMap.zero(s)
    # two free cells, last one least significant
    assert maps[1].entries[1][1] == 1 and maps[1].entries[0][0] == 0
    assert maps[3].entries[0][0] == 1 and maps[3].entries[1][1] == 0


def test_even_map_enumeration_respects_budget():
    s = SuperSpace(PrimeField(3), 2, 0)
    assert len(list(enumerate_even_maps(s, budget=10))) == 10


def test_signed_permutation_enumeration():
    s = SuperSpace(PrimeField(3), 1, 1)
    maps = list(enumerate_signed_permutation_maps(s))
    assert len(maps) == 4
    diags = sorted((m.entries[0][0].val, m.entries[1][1].val) for m in maps)
    assert diags == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_search_refuses_rational_instances(p3):
    with pytest.raises(ValidationError):
        search_operators(p3, "endomorphism")


def test_search_needs_bimodule_for_o_operators():
    a = reduce_instance(truncpoly(3), 3)
    with pytest.raises(ValidationError):
        search_operators(a, "o-operator")


def test_search_exhausts_tiny_spaces():
    a = reduce_instance(zero(1, 0), 3)
    res = search_operators(a, "rota-baxter")
    assert res.exhausted and res.space_size == 3
    assert len(res.found) == 3  # every map is RB on the zero product


def test_search_budget_semantics():
    a = reduce_instance(truncpoly(3), 5)
    res = search_operators(a, "rota-baxter", budget=100)
    assert not res.exhausted
    assert res.candidates_checked == 100
    assert res.space_size == 5 ** 9


def test_search_rediscovers_reduced_integration():
    a = reduce_instance(truncpoly(3), 5)
    res = search_operators(a, "rota-baxter", budget=5000)
    assert len(res.found) == 30
    target = reduce_map(integration(3), 5)
    assert target in res.found


def test_search_endomorphisms_mod_3():
    a = reduce_instance(grassmann1(), 3)
    res = search_operators(a, "endomorphism")
    assert res.exhausted and res.space_size == 9
    diags = sorted((f.entries[0][0].val, f.entries[1][1].val) for f in res.found)
    assert diags == [(0, 0), (1, 0), (1, 1), (1, 2)]


def test_search_signed_permutation_restriction():
    a = reduce_instance(grassmann1(), 3)
    res = search_operators(a, "endomorphism", signed_perms=True)
    assert res.space_size == 4
    assert len(res.found) == 2


def test_search_averaging_counts_mod_3():
    for builder, expect, size in ((grassmann1, 5, 9), (lambda: truncpoly(2), 17, 81)):
        a = reduce_instance(builder(), 3)
        res = search_operators(a, "averaging")
        assert res.exhausted and res.space_size == size
        assert len(res.found) == expect


def test_search_centroid_counts_mod_3():
    for builder, expect, size in ((grassmann1, 3, 9), (lambda: truncpoly(2), 9, 81)):
        a = reduce_instance(builder(), 3)
        res = search_operators(a, "centroid")
        assert len(res.found) == expect and res.space_size == size


def test_found_rb_operators_induce_the_split_structure():
    a = reduce_instance(truncpoly(3), 5)
    res = search_operators(a, "rota-baxter", budget=2000)
    m = regular_bimodule(a)
    for r in res.found[:5]:
        ind = o_induced(r, m)
        split = rb_split(a, r)
        assert ind.pre.prec == split.prec and ind.pre.succ == split.succ


def test_search_is_sound_and_complete_at_small_dims():
    # found set == the set of enumerated candidates passing the pointwise check
    cases = [
        (reduce_instance(grassmann1(), 3), "endomorphism", None),
        (reduce_instance(grassmann1(), 3), "averaging", None),
        (reduce_instance(zero(2, 1), 3), "rota-baxter", None),
    ]
    for a, kind, weight in cases:
        res = search_operators(a, kind, weight=weight)
        assert res.exhausted
        slow = []
        for f in enumerate_even_maps(a.space):
            w = a.space.field.zero if kind == "rota-baxter" else None
            spec = OperatorSpec(kind, f, weight=w)
            if check_operator(spec, a).passed:
                slow.append(f)
        assert res.found == slow, (a.name, kind)


def test_signed_permutation_search_stops_at_its_budget():
    a = reduce_instance(truncpoly(3), 5)
    budget = 20  # of 3! * 2^3 = 48 signed permutation maps
    res = search_operators(a, "endomorphism", budget=budget, signed_perms=True)
    assert res.space_size == 48
    assert res.candidates_checked == budget and res.exhausted is False
    first = list(enumerate_signed_permutation_maps(a.space))[:budget]
    expected = [f for f in first if check_operator(OperatorSpec("endomorphism", f), a).passed]
    assert expected and res.found == expected


def test_search_refuses_negative_budget():
    a = reduce_instance(truncpoly(3), 5)
    with pytest.raises(ValidationError):
        search_operators(a, "rota-baxter", budget=-5)


def test_o_operators_refuse_a_bimodule_over_another_base():
    a = reduce_instance(truncpoly(3), 5)
    m = regular_bimodule(a)
    other = zero(3, 0, PrimeField(5))
    with pytest.raises(ValidationError) as exc:
        search_operators(other, "o-operator", bimodule=m, budget=2000)
    assert exc.value.errors == ["the bimodule's base is not the instance"]
    t = reduce_map(integration(3), 5)
    spec = OperatorSpec("o-operator", t, bimodule=m)
    with pytest.raises(ValidationError) as exc:
        check_operator(spec, other)
    assert exc.value.errors == ["the bimodule's base is not the instance"]
    # an equal base built apart is the same instance
    assert check_operator(spec, reduce_instance(truncpoly(3), 5)).passed
    res = search_operators(reduce_instance(truncpoly(3), 5), "o-operator", bimodule=m, budget=2000)
    assert len(res.found) == 25


@pytest.mark.parametrize("kind, weight, with_bimodule", [
    ("centroid", 3, False),
    ("endomorphism", 0, False),
    ("o-operator", 0, True),
    ("centroid", None, True),
    ("rota-baxter", None, True),
])
def test_search_refuses_options_its_kind_does_not_take(kind, weight, with_bimodule):
    a = reduce_instance(truncpoly(3), 5)
    m = regular_bimodule(a) if with_bimodule else None
    with pytest.raises(ValidationError):
        search_operators(a, kind, weight=weight, budget=10, bimodule=m)


def test_o_operators_refuse_a_bimodule_over_a_pre_structure(pre3):
    """An o-operator's bimodule is an alt-bimodule: a pre-bimodule is refused
    by OperatorSpec, so by every check and search that takes one."""
    refusal = ["an o-operator's bimodule must be an alt-bimodule"]
    p5 = reduce_instance(pre3, 5)
    m, m5 = regular_bimodule(pre3), regular_bimodule(p5)
    t = EvenMap.identity(pre3.space)
    spec = OperatorSpec("o-operator", t, bimodule=regular_bimodule(alt_of(pre3)))
    spec.bimodule = m  # past the spec's own refusal, to check_operator's
    for refused in (
        lambda: OperatorSpec("o-operator", t, bimodule=m),
        lambda: check_o_operator(t, m),
        lambda: check_operator(spec, pre3),
        lambda: search_operators(p5, "o-operator", bimodule=m5, budget=10),
    ):
        with pytest.raises(ValidationError) as exc:
            refused()
        assert exc.value.errors == refusal
