"""Bimodule axiom checks and the transport theorems between the two systems."""

import logging
from fractions import Fraction

import pytest

from superalt import (
    CALIBRATED_PBM_VARIANT,
    AltBimodule,
    EvenBilinear,
    EvenMap,
    HypothesisError,
    PbmVariant,
    PreBimodule,
    ValidationError,
    calibrate_pre_bimodule,
    check_alt_bimodule,
    check_pre_bimodule,
    check_product_law,
    grassmann1_twisted,
    matrix_algebra,
    perturb_bilinear,
    perturb_product,
    project_bimodule,
    rb_induced_bimodules,
    regular_bimodule,
    standard_pre_instances,
    transpose,
    truncpoly,
    twist_bimodule,
    zero,
)


def test_regular_alt_bimodules_across_the_corpus(oct, l1p3):
    expected = {
        zero(2, 1).name: 27,
        truncpoly(3).name: 27,
        oct.name: 512,
        matrix_algebra(2).name: 64,
    }
    for a in (zero(2, 1), truncpoly(3), oct, matrix_algebra(2)):
        rep = check_alt_bimodule(regular_bimodule(a))
        assert rep.passed
        assert rep.checked == expected[a.name]
    assert check_alt_bimodule(regular_bimodule(l1p3)).checked == 216


def test_regular_pre_bimodules_on_split_instances():
    for p in standard_pre_instances():
        rep = check_pre_bimodule(regular_bimodule(p))
        assert rep.passed, p.name
        assert rep.extra["variant"] == {"pbm2_sign": 1, "pbm4_inner": "prec"}


def test_alt_bimodule_shape_validation(p3):
    v = zero(2, 1).space
    beta = EvenMap.identity(v)
    good_l = EvenBilinear.zero(p3.space, v, v)
    good_r = EvenBilinear.zero(v, p3.space, v)
    assert AltBimodule(p3, beta, good_l, good_r).module == v
    with pytest.raises(ValidationError):
        AltBimodule(p3, beta, good_r, good_r)  # lsucc must take A x V -> V
    with pytest.raises(ValidationError):
        AltBimodule(p3, EvenMap.identity(p3.space), good_l, good_r)  # beta off-module


def test_a_bimodule_refuses_a_base_of_the_other_kind(p3, pre3):
    alt, pre = regular_bimodule(p3), regular_bimodule(pre3)
    with pytest.raises(ValidationError) as exc:
        AltBimodule(pre3, pre.beta, pre.lsucc, pre.rprec)
    assert exc.value.errors == ["the base of AltBimodule must be a HomAlgebra"]
    with pytest.raises(ValidationError) as exc:
        PreBimodule(p3, alt.beta, alt.rprec, alt.rprec, alt.lsucc, alt.lsucc)
    assert exc.value.errors == ["the base of PreBimodule must be a HomPreAlgebra"]


def test_the_regular_bimodule_acts_by_the_products(p3, pre3):
    cases = [
        (p3, AltBimodule, {"lsucc": p3.mu, "rprec": p3.mu}),
        (pre3, PreBimodule,
         {"lprec": pre3.prec, "lsucc": pre3.succ, "rprec": pre3.prec, "rsucc": pre3.succ}),
    ]
    for a, cls, actions in cases:
        m = regular_bimodule(a)
        assert type(m) is cls
        assert (m.base, m.beta, m.name) == (a, a.alpha, f"regular({a.name})")
        assert {key: getattr(m, key) for key in cls.ACTIONS} == actions
    with pytest.raises(ValidationError) as exc:
        regular_bimodule(p3.space)
    assert exc.value.errors == [f"not an instance: {p3.space!r}"]


def test_alt_bimodule_check_refuses_broken_base(p3):
    broken = perturb_product(p3, (1, 1, 0), Fraction(1))
    m = regular_bimodule(broken)
    with pytest.raises(HypothesisError):
        check_alt_bimodule(m)


def test_pre_bimodule_variant_calibration_is_unique():
    table = calibrate_pre_bimodule(standard_pre_instances())
    assert table["survivors"] == ["pbm2+/pbm4-prec"]
    assert table["default"] == "pbm2+/pbm4-prec"
    assert len(table["per_variant"]) == 4


def test_calibration_checks_each_base_once(caplog):
    instances = standard_pre_instances()
    with caplog.at_level(logging.DEBUG, logger="superalt"):
        table = calibrate_pre_bimodule(instances)
    lines = [r.getMessage() for r in caplog.records if r.name == "superalt"]
    assert len(instances) == 3
    assert sum(line.startswith("hom-prealternative group") for line in lines) == 3
    for key, verdicts in table["per_variant"].items():
        sign, inner = key.split("/")
        variant = PbmVariant(1 if sign == "pbm2+" else -1, inner.removeprefix("pbm4-"))
        assert verdicts == {
            p.name: check_pre_bimodule(regular_bimodule(p), variant).passed for p in instances
        }


def test_rejected_variants_fail_on_the_regular_bimodule(pre3):
    m = regular_bimodule(pre3)
    assert check_pre_bimodule(m, CALIBRATED_PBM_VARIANT).passed
    for variant in (
        PbmVariant(pbm2_sign=-1, pbm4_inner="prec"),
        PbmVariant(pbm2_sign=1, pbm4_inner="circ"),
        PbmVariant(pbm2_sign=-1, pbm4_inner="circ"),
    ):
        assert not check_pre_bimodule(m, variant).passed


def test_pbm_variant_validation():
    with pytest.raises(ValidationError):
        PbmVariant(pbm2_sign=2, pbm4_inner="prec")
    with pytest.raises(ValidationError):
        PbmVariant(pbm2_sign=1, pbm4_inner="sum")


def test_projection_i_and_ii_give_alt_bimodules(pre3, pre6):
    for p in (pre3, pre6):
        m = regular_bimodule(p)
        for direction in ("i", "ii"):
            out = project_bimodule(m, direction)
            assert isinstance(out, AltBimodule)
            assert check_alt_bimodule(out).passed, (p.name, direction)


def test_projection_iii_embeds_alt_into_pre(pre3):
    m = regular_bimodule(pre3)
    alt = project_bimodule(m, "i")
    back = project_bimodule(alt, "iii", pre=pre3)
    assert isinstance(back, PreBimodule)
    assert check_pre_bimodule(back).passed
    # the prec-side actions vanish by construction
    assert back.lprec == EvenBilinear.zero(pre3.space, back.module, back.module)
    assert back.rsucc == EvenBilinear.zero(back.module, pre3.space, back.module)


def test_projection_iii_validates_the_base_pairing(pre3):
    from superalt import scale

    m = regular_bimodule(pre3)
    alt = project_bimodule(m, "i")
    # transpose keeps the symmetrized product here (the split is commutative),
    # so it is accepted; a rescaled structure is not
    assert check_pre_bimodule(project_bimodule(alt, "iii", pre=transpose(pre3))).passed
    with pytest.raises(ValidationError):
        project_bimodule(alt, "iii", pre=scale(pre3, Fraction(2)))


def test_projection_direction_validation(pre3):
    m = regular_bimodule(pre3)
    with pytest.raises(ValidationError):
        project_bimodule(m, "iv")
    with pytest.raises(ValidationError):
        project_bimodule(project_bimodule(m, "i"), "i")


def test_twist_bimodule_preserves_alt_axioms():
    m = regular_bimodule(grassmann1_twisted())
    assert check_alt_bimodule(twist_bimodule(m)).passed


def test_twist_bimodule_preserves_pre_axioms(pre3):
    m = regular_bimodule(pre3)
    tw = twist_bimodule(m)
    assert check_pre_bimodule(tw).passed
    for direction in ("i", "ii"):
        assert check_alt_bimodule(project_bimodule(tw, direction)).passed


def test_twist_bimodule_refuses_non_multiplicative_base():
    broken = perturb_product(grassmann1_twisted(), (1, 1, 0), Fraction(1))
    assert not check_product_law(broken, "multiplicative").passed
    with pytest.raises(HypothesisError):
        twist_bimodule(regular_bimodule(broken))


def test_rb_induced_bimodules_satisfy_both_systems(p3, rb3):
    m = regular_bimodule(p3)
    alt_out, pre_out = rb_induced_bimodules(m, rb3)
    assert check_alt_bimodule(alt_out).passed
    assert check_pre_bimodule(pre_out).passed
    assert alt_out.base.name.startswith("alt(rb-split(")
    assert pre_out.base.name.startswith("rb-split(")


def test_rb_induced_refuses_non_rb_maps(p3):
    m = regular_bimodule(p3)
    with pytest.raises(HypothesisError) as ei:
        rb_induced_bimodules(m, EvenMap.identity(p3.space))
    # rb_split checks the map, so it is the operation that refuses
    assert ei.value.operation == "rb_split"
    assert ei.value.report.law == "rota-baxter"


def test_bent_action_is_caught(p3):
    m = regular_bimodule(p3)
    bent = AltBimodule(
        m.base, m.beta, perturb_bilinear(m.lsucc, (1, 1, 0), Fraction(1)), m.rprec
    )
    rep = check_alt_bimodule(bent)
    assert not rep.passed
    assert rep.witness == (1, 1, 0)
    assert rep.identity == "abm1"
