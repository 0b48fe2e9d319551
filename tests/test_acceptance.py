"""Acceptance criteria for the whole toolkit.

Each test covers one criterion and prints exactly one PASS/FAIL line.
Every comparison is exact: scalars are Fractions or prime-field residues,
so there is no tolerance anywhere.
"""

import random
from fractions import Fraction

import pytest

from superalt import (
    CALIBRATED_PBM_VARIANT,
    DEFAULT_JORDAN_CYCLE,
    AltBimodule,
    EvenMap,
    OperatorSpec,
    PreBimodule,
    Vector,
    alt_of,
    averaging_product,
    calibrate_jordan,
    calibrate_pre_bimodule,
    centroid_twist,
    check_alt_bimodule,
    check_o_operator,
    check_operator,
    check_pre_bimodule,
    check_pre_law,
    check_product_law,
    derived_n,
    grassmann1,
    grassmann1_twisted,
    integration,
    jordan_calibration_instances,
    law_identities,
    matrix_algebra,
    o_induced,
    octonions,
    perturb_bilinear,
    perturb_pre,
    perturb_product,
    plus_jordan,
    project_bimodule,
    rb_induced_bimodules,
    rb_split,
    reduce_instance,
    reduce_map,
    regular_bimodule,
    sanity_table,
    scale,
    search_operators,
    standard_pre_instances,
    tensor_alt,
    tensor_map,
    transpose,
    truncpoly,
    twist_bimodule,
    yau_twist,
    zero,
)
from bimodule_references import alt_references, pre_references
from conftest import rand_homogeneous


def verdict(num, label, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num:02d}: {label}")
    assert ok, detail or label


@pytest.fixture(scope="module")
def rb_search_f5():
    a = reduce_instance(truncpoly(3), 5)
    res = search_operators(a, "rota-baxter", budget=5000)
    return a, res


def test_01_corpus_sanity():
    problems = []
    for a, passing, failing in sanity_table():
        for law in passing:
            if not check_product_law(a, law).passed:
                problems.append(f"{a.name} unexpectedly fails {law}")
        for law in failing:
            if check_product_law(a, law).passed:
                problems.append(f"{a.name} unexpectedly passes {law}")
    rep = check_product_law(octonions(), "hom-associative")
    if rep.passed or rep.witness is None or all(not v for v in rep.residual):
        problems.append("octonion associativity failure lost its witness")
    if not check_product_law(octonions(), "hom-alternative").passed:
        problems.append("octonions must stay alternative")
    if not check_product_law(octonions(), "hom-flexible").passed:
        problems.append("octonions must stay flexible")
    verdict(1, "corpus instances match their declared law profiles",
            not problems, "; ".join(problems))


def test_02_every_split_sums_to_an_alternative_product(rb_search_f5):
    p3 = truncpoly(3)
    r = integration(3)
    pre3 = rb_split(p3, r)
    l1p3 = tensor_alt(grassmann1(), p3)
    pre6 = rb_split(l1p3, tensor_map(EvenMap.identity(grassmann1().space), r))

    minted = [pre3, pre6, transpose(pre3), transpose(pre6)]
    minted += [derived_n(pre3, n) for n in (1, 2, 3)]
    minted += [scale(pre3, Fraction(5, 7)), scale(pre6, Fraction(-2))]

    pre3_f3 = rb_split(reduce_instance(p3, 3), reduce_map(r, 3))
    endos = search_operators(pre3_f3, "endomorphism")
    minted += [yau_twist(pre3_f3, f) for f in endos.found]

    a5, res = rb_search_f5
    m5 = regular_bimodule(a5)
    minted += [o_induced(t, m5).pre for t in res.found]

    bad = [p.name for p in minted if not check_product_law(alt_of(p), "hom-alternative").passed]
    verdict(2, f"alt_of passes hom-alternative on all {len(minted)} minted pre-instances",
            len(minted) >= 60 and not bad, f"failures: {bad}")


def test_03_transpose_is_the_signed_opposite():
    p3 = truncpoly(3)
    pre3 = rb_split(p3, integration(3))
    l1p3 = tensor_alt(grassmann1(), p3)
    pre6 = rb_split(l1p3, tensor_map(EvenMap.identity(grassmann1().space), integration(3)))
    ok = True
    for p in (pre3, pre6):
        t = transpose(p)
        ok &= check_pre_law(t, "hom-prealternative").passed
        ok &= alt_of(t).mu == alt_of(p).mu.flip_signed()
        ok &= transpose(t).prec == p.prec and transpose(t).succ == p.succ
    verdict(3, "transpose stays hom-prealternative and flips the sum with signs", ok)


def test_04_symmetrization_satisfies_the_jordan_law():
    instances = [
        zero(2, 1), grassmann1(), grassmann1_twisted(), truncpoly(3),
        tensor_alt(grassmann1(), truncpoly(3)),
        octonions(), matrix_algebra(2),
        tensor_alt(grassmann1(), octonions()),
    ]
    problems = []
    for a in instances:
        if not check_product_law(a, "multiplicative").passed:
            problems.append(f"{a.name} not multiplicative")
            continue
        if not check_product_law(plus_jordan(a), "hom-jordan").passed:
            problems.append(f"plus({a.name}) fails hom-jordan")
    table = calibrate_jordan(jordan_calibration_instances())
    if table["survivors"] != [DEFAULT_JORDAN_CYCLE]:
        problems.append(f"calibration survivors {table['survivors']}")
    verdict(4, "all 8 symmetrizations satisfy the calibrated jordan identity, "
               "calibration has a unique survivor", not problems, "; ".join(problems))


def test_05_grassmann_octonion_tensor():
    big = tensor_alt(grassmann1(), octonions())
    rep = check_product_law(big, "hom-alternative")
    verdict(5, "the (8,8)-dimensional tensor instance passes hom-alternative "
               "over all 4096 basis triples",
            big.space.dims == (8, 8) and rep.passed and rep.checked == 4096)


def test_06_centroid_and_averaging_twists():
    problems = []
    # scalar multiples of the identity over the rationals
    for a in (truncpoly(3), octonions()):
        lam = EvenMap.diagonal(a.space, (Fraction(5, 7),) * a.space.dim)
        if not check_product_law(centroid_twist(a, lam), "hom-alternative").passed:
            problems.append(f"scalar centroid twist on {a.name}")
        if not check_product_law(averaging_product(a, lam), "hom-alternative").passed:
            problems.append(f"scalar averaging product on {a.name}")
    # every operator found by exhaustive search over F_3 on small instances
    expected = {
        "zero(2,1)@3": {"centroid": 243, "averaging": 243},
        "grassmann1@3": {"centroid": 3, "averaging": 5},
        "truncpoly(2)@3": {"centroid": 9, "averaging": 17},
    }
    for builder in (lambda: zero(2, 1), grassmann1, lambda: truncpoly(2)):
        a = reduce_instance(builder(), 3)
        for kind, make in (("centroid", centroid_twist), ("averaging", averaging_product)):
            res = search_operators(a, kind)
            if not res.exhausted or len(res.found) != expected[a.name][kind]:
                problems.append(f"{kind} search on {a.name} found {len(res.found)}")
            for f in res.found:
                if not check_product_law(make(a, f), "hom-alternative").passed:
                    problems.append(f"{kind} twist on {a.name} by {f.entries}")
    verdict(6, "centroid and averaging twists preserve hom-alternative for "
               "scalar maps and all 520 searched operators",
            not problems, "; ".join(problems))


def test_07_integration_splits_polynomial_instances(rb_search_f5):
    p3 = truncpoly(3)
    r = integration(3)
    ok = True
    rb = check_operator(OperatorSpec("rota-baxter", r, weight=Fraction(0)), p3)
    ok &= rb.passed and rb.checked == 12
    ok &= check_pre_law(rb_split(p3, r), "hom-prealternative").passed
    l1p3 = tensor_alt(grassmann1(), p3)
    big_r = tensor_map(EvenMap.identity(grassmann1().space), r)
    ok &= check_pre_law(rb_split(l1p3, big_r), "hom-prealternative").passed
    a5, res = rb_search_f5
    ok &= len(res.found) == 30 and res.candidates_checked == 5000
    ok &= reduce_map(r, 5) in res.found
    verdict(7, "integration is a weight-0 splitting operator and the F_5 "
               "search rediscovers its reduction", ok)


def test_08_found_operators_transport_through_the_regular_bimodule(rb_search_f5):
    a5, res = rb_search_f5
    m = regular_bimodule(a5)
    problems = []
    for t in res.found:
        if not check_o_operator(t, m).passed:
            problems.append(f"o-check fails for {t.entries}")
            continue
        ind = o_induced(t, m)
        split = rb_split(a5, t)
        if ind.pre.prec != split.prec or ind.pre.succ != split.succ:
            problems.append(f"induced products differ for {t.entries}")
        if not ind.morphism.passed:
            problems.append(f"morphism report fails for {t.entries}")
    verdict(8, f"all {len(res.found)} found operators pass the o-operator check "
               "and induce exactly the split structure", not problems, "; ".join(problems))


def test_09_bimodule_suite():
    problems = []
    expected_checked = {
        "zero(2,1)": 27, "grassmann1": 8, "grassmann1-twisted": 8,
        "truncpoly(3)": 27, "tensor(grassmann1,truncpoly(3))": 216,
        "octonions": 512, "matrix(2)": 64,
        "tensor(grassmann1,octonions)": 4096,
    }
    corpus = [
        zero(2, 1), grassmann1(), grassmann1_twisted(), truncpoly(3),
        tensor_alt(grassmann1(), truncpoly(3)), octonions(), matrix_algebra(2),
        tensor_alt(grassmann1(), octonions()),
    ]
    for a in corpus:
        rep = check_alt_bimodule(regular_bimodule(a))
        if not rep.passed or rep.checked != expected_checked[a.name]:
            problems.append(f"regular alt-bimodule on {a.name}: "
                            f"passed={rep.passed} checked={rep.checked}")
    pres = standard_pre_instances()
    for p in pres:
        if not check_pre_bimodule(regular_bimodule(p)).passed:
            problems.append(f"regular pre-bimodule on {p.name}")
    # twisting both systems on multiplicative bases
    for a in (grassmann1_twisted(), octonions()):
        if not check_alt_bimodule(twist_bimodule(regular_bimodule(a))).passed:
            problems.append(f"twisted alt-bimodule on {a.name}")
    for p in pres[:2]:
        if not check_pre_bimodule(twist_bimodule(regular_bimodule(p))).passed:
            problems.append(f"twisted pre-bimodule on {p.name}")
    # projections between the systems
    for p in pres:
        m = regular_bimodule(p)
        for direction in ("i", "ii"):
            if not check_alt_bimodule(project_bimodule(m, direction)).passed:
                problems.append(f"projection {direction} on {p.name}")
        back = project_bimodule(project_bimodule(m, "i"), "iii", pre=p)
        if not check_pre_bimodule(back).passed:
            problems.append(f"projection iii on {p.name}")
    # splitting a bimodule along a weight-0 operator
    p3 = truncpoly(3)
    alt_out, pre_out = rb_induced_bimodules(regular_bimodule(p3), integration(3))
    if not check_alt_bimodule(alt_out).passed:
        problems.append("operator-induced alt-bimodule")
    if not check_pre_bimodule(pre_out).passed:
        problems.append("operator-induced pre-bimodule")
    table = calibrate_pre_bimodule(standard_pre_instances())
    if table["survivors"] != ["pbm2+/pbm4-prec"]:
        problems.append(f"pre-bimodule calibration survivors {table['survivors']}")
    verdict(9, "regular, twisted, projected and operator-induced bimodules all "
               "satisfy their axiom systems", not problems, "; ".join(problems))


def _recheck_product_witness(a, law, rep):
    ids = {name: (arity, fn) for name, arity, fn in law_identities(a, law)}
    arity, fn = ids[rep.identity]
    pts = tuple(
        (Vector.basis(a.space, i), a.space.parity(i)) for i in rep.witness
    )
    assert len(pts) == arity
    res = fn(pts)
    return not res.is_zero() and tuple(res.coords) == rep.residual


def _recheck_bimodule_witness(m, identities, rep):
    ids = {name: fn for name, _arity, fn, *_ in identities}
    fn = ids[rep.identity]
    spaces = [m.base.space, m.base.space, m.module]
    pts = tuple(
        (Vector.basis(s, i), s.parity(i)) for s, i in zip(spaces, rep.witness)
    )
    res = fn(pts)
    return not res.is_zero() and tuple(res.coords) == rep.residual


def test_10_single_entry_perturbations_are_caught():
    one = Fraction(1)
    p3 = truncpoly(3)
    oct_ = octonions()
    m2 = matrix_algebra(2)
    l1 = grassmann1()
    l1t = grassmann1_twisted()
    pre3 = rb_split(p3, integration(3))
    l1p3 = tensor_alt(l1, p3)
    pre6 = rb_split(l1p3, tensor_map(EvenMap.identity(l1.space), integration(3)))

    product_cases = [
        (p3, "hom-associative", (2, 2, 0)),
        (p3, "hom-alternative", (1, 1, 0)),
        (p3, "hom-alternative", (1, 2, 0)),
        (p3, "hom-flexible", (2, 1, 0)),
        (p3, "super-commutative", (0, 1, 0)),
        (oct_, "hom-alternative", (1, 2, 3)),
        (oct_, "hom-flexible", (1, 2, 4)),
        (m2, "hom-associative", (0, 1, 0)),
        (l1, "super-commutative", (1, 1, 0)),
        (l1t, "hom-associative", (1, 1, 0)),
        (l1t, "multiplicative", (1, 1, 0)),
    ]
    pre_cases = [
        (pre3, "prec", (1, 1, 0)),
        (pre3, "prec", (0, 0, 0)),
        (pre3, "succ", (1, 2, 0)),
        (pre3, "succ", (2, 2, 1)),
        (pre6, "prec", (3, 3, 0)),
        (pre6, "succ", (0, 3, 3)),
    ]
    problems = []
    count = 0

    for a, law, cell in product_cases:
        count += 1
        rep = check_product_law(perturb_product(a, cell, one), law)
        if rep.passed:
            problems.append(f"{a.name} {law} {cell} not caught")
        elif not _recheck_product_witness(perturb_product(a, cell, one), law, rep):
            problems.append(f"{a.name} {law} {cell} witness does not verify")

    for p, which, cell in pre_cases:
        count += 1
        bent = perturb_pre(p, which, cell, one)
        rep = check_pre_law(bent, "hom-prealternative")
        if rep.passed:
            problems.append(f"{p.name} {which} {cell} not caught")
        elif not _recheck_product_witness(bent, "hom-prealternative", rep):
            problems.append(f"{p.name} {which} {cell} witness does not verify")

    # bent bimodule actions
    count += 1
    mp = regular_bimodule(p3)
    bent_alt = AltBimodule(mp.base, mp.beta,
                           perturb_bilinear(mp.lsucc, (1, 1, 0), one), mp.rprec)
    rep = check_alt_bimodule(bent_alt)
    if rep.passed or not _recheck_bimodule_witness(bent_alt, alt_references(bent_alt), rep):
        problems.append("bent regular(p3) action not caught with verified witness")

    count += 1
    mo = regular_bimodule(oct_)
    bent_oct = AltBimodule(mo.base, mo.beta, mo.lsucc,
                           perturb_bilinear(mo.rprec, (2, 5, 7), one))
    rep = check_alt_bimodule(bent_oct)
    if rep.passed or not _recheck_bimodule_witness(bent_oct, alt_references(bent_oct), rep):
        problems.append("bent regular(octonions) action not caught with verified witness")

    count += 1
    mq = regular_bimodule(pre3)
    bent_pre = PreBimodule(mq.base, mq.beta,
                           perturb_bilinear(mq.lprec, (1, 1, 0), one),
                           mq.rprec, mq.lsucc, mq.rsucc)
    rep = check_pre_bimodule(bent_pre)
    if rep.passed or not _recheck_bimodule_witness(
            bent_pre, pre_references(bent_pre, CALIBRATED_PBM_VARIANT), rep):
        problems.append("bent regular(pre) action not caught with verified witness")

    verdict(10, f"all {count} single-entry perturbations fail with a witness "
                "that recomputes to the reported residual",
            count == 20 and not problems, "; ".join(problems))


def test_11_random_homogeneous_sampling_agrees_with_basis_scans():
    instances = [
        zero(2, 1), truncpoly(3), octonions(), matrix_algebra(2),
        grassmann1_twisted(),
    ]
    laws = ("hom-associative", "hom-alternative", "hom-flexible",
            "super-commutative", "multiplicative", "hom-jordan")
    rng = random.Random(20260815)
    disagreements = []
    for a in instances:
        for law in laws:
            basis = check_product_law(a, law).passed
            ids = law_identities(a, law)
            sampled = True
            for _ in range(100):
                for _name, arity, fn in ids:
                    pts = tuple(rand_homogeneous(a.space, rng) for _ in range(arity))
                    if not fn(pts).is_zero():
                        sampled = False
            if sampled != basis:
                disagreements.append(f"{a.name}/{law}: basis={basis} sampled={sampled}")
    verdict(11, "verdicts from 100 random homogeneous samples match basis "
                "verdicts on 5 instances and 6 laws",
            not disagreements, "; ".join(disagreements))
