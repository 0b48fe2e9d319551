import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superalt import (
    DEFAULT_JORDAN_CYCLE,
    JORDAN_CYCLES,
    HomPreAlgebra,
    PRE_LAWS,
    PRODUCT_LAWS,
    SuperSpace,
    ValidationError,
    Vector,
    alt_of,
    calibrate_jordan,
    check_morphism,
    check_pre_law,
    check_product_law,
    grassmann1,
    grassmann1_twisted,
    hom_associator,
    jordan_calibration_instances,
    law_identities,
    matrix_algebra,
    plus_jordan,
    pre_associator,
    signed,
    tensor_alt,
    truncpoly,
)
from conftest import rand_homogeneous
from test_compiled_scan import F5, field_of, rand_bilinear, rand_map


def test_signed_flips_on_odd_exponent(p3):
    v = Vector.basis(p3.space, 1)
    assert signed(v, 0) == v
    assert signed(v, 1) == -v
    assert signed(v, 2) == v
    assert signed(v, 3) == -v


def test_hom_associator_definition(p3):
    rng = random.Random(3)
    for _ in range(10):
        x, _ = rand_homogeneous(p3.space, rng)
        y, _ = rand_homogeneous(p3.space, rng)
        z, _ = rand_homogeneous(p3.space, rng)
        lhs = p3.mu.apply(p3.mu.apply(x, y), p3.alpha.apply(z))
        rhs = p3.mu.apply(p3.alpha.apply(x), p3.mu.apply(y, z))
        assert hom_associator(p3, x, y, z) == lhs - rhs


def test_octonions_fail_associativity_at_frozen_witness(oct):
    rep = check_product_law(oct, "hom-associative")
    assert not rep.passed
    assert rep.witness == (1, 2, 3)
    assert rep.witness_parities == (0, 0, 0)
    assert rep.identity == "as"
    assert rep.checked == 84
    # (e1 e2) e3 - e1 (e2 e3) = -2 e6
    expected = [Fraction(0)] * 8
    expected[6] = Fraction(-2)
    assert list(rep.residual) == expected


@pytest.mark.parametrize("kind", ("Q", F5), ids=("Q", "F5"))
def test_flexible_prealternative_sums_to_hom_flexible_of_the_sum(kind):
    """kind1 + kind2 + kind3 is the associator of x o y = x prec y + x succ y,
    so at every basis triple the three flex-k residuals add up to the
    hom-flexible residual of alt_of(P): each mirrored term carries the
    Koszul sign (-1)^(|x||y| + |x||z| + |y||z|) of the reversal."""
    rng = random.Random(2017)
    space = SuperSpace(field_of(kind), 2, 2)
    points = [(Vector.basis(space, i), space.parity(i)) for i in space.indices()]
    apart = []
    for _ in range(4):
        pre = HomPreAlgebra(rand_bilinear(rng, kind, space, space, space, 0.6),
                            rand_bilinear(rng, kind, space, space, space, 0.6),
                            rand_map(rng, kind, space, space))
        flex = [fn for _, _, fn in law_identities(pre, "flexible-prealternative")]
        [(_, _, whole)] = law_identities(alt_of(pre), "hom-flexible")
        apart += [pts for pts in itertools.product(points, repeat=3)
                  if sum((fn(pts) for fn in flex), Vector.zero(space)) != whole(pts)]
    assert not apart, len(apart)


def test_octonions_pass_alternativity_and_flexibility(oct):
    alt = check_product_law(oct, "hom-alternative")
    assert alt.passed and alt.checked == 512
    assert check_product_law(oct, "hom-flexible").passed


def test_witness_is_lexicographically_first(oct):
    rep = check_product_law(oct, "hom-associative")
    i, j, k = rep.witness
    flat = (i * 8 + j) * 8 + k
    assert rep.checked == flat + 1


def test_supercommutativity_verdicts():
    assert check_product_law(grassmann1(), "super-commutative").passed
    rep = check_product_law(matrix_algebra(2), "super-commutative")
    assert not rep.passed and rep.identity == "supercomm"
    assert len(rep.witness) == 2


def test_multiplicative_twist_check():
    rep = check_product_law(grassmann1_twisted(), "multiplicative")
    assert rep.passed and rep.checked == 4


def test_all_product_laws_have_identity_tables(p3):
    for law in PRODUCT_LAWS:
        ids = law_identities(p3, law)
        assert ids and all(callable(fn) for _, _, fn in ids)


def test_unknown_law_is_rejected(p3):
    with pytest.raises(ValidationError):
        check_product_law(p3, "jacobi")
    with pytest.raises(ValidationError):
        law_identities(p3, "nope")


def test_unknown_jordan_cycle_is_rejected(p3):
    with pytest.raises(ValidationError):
        check_product_law(p3, "hom-jordan", jordan_cycle="xy")


def test_jordan_cycle_discriminates_on_octonion_symmetrization(oct):
    pj = plus_jordan(oct)
    default = check_product_law(pj, "hom-jordan")
    assert default.passed
    assert default.extra["jordan_cycle"] == DEFAULT_JORDAN_CYCLE
    for cycle in JORDAN_CYCLES:
        rep = check_product_law(pj, "hom-jordan", jordan_cycle=cycle)
        assert rep.passed == (cycle == DEFAULT_JORDAN_CYCLE)


def test_jordan_calibration_has_a_unique_survivor():
    table = calibrate_jordan(jordan_calibration_instances())
    assert table["survivors"] == [DEFAULT_JORDAN_CYCLE]
    assert table["default"] == DEFAULT_JORDAN_CYCLE
    assert set(table["per_cycle"]) == set(JORDAN_CYCLES)


def test_pre_laws_on_split_instance(pre3):
    for law in PRE_LAWS:
        rep = check_pre_law(pre3, law)
        assert rep.passed, law
    main = check_pre_law(pre3, "hom-prealternative")
    assert main.checked == 27
    assert main.extra["odd_diagonal"] == {"checked": 0, "nonzero": 0}


def test_odd_diagonal_census_counts_mixed_parity(pre6):
    rep = check_pre_law(pre6, "hom-prealternative")
    assert rep.passed
    assert rep.extra["odd_diagonal"] == {"checked": 36, "nonzero": 0}


def test_pre_associator_components_sum_to_associator(pre3):
    from superalt import alt_of

    a = alt_of(pre3)
    rng = random.Random(5)
    for _ in range(8):
        x, _ = rand_homogeneous(pre3.space, rng)
        y, _ = rand_homogeneous(pre3.space, rng)
        z, _ = rand_homogeneous(pre3.space, rng)
        total = None
        for kind in (1, 2, 3):
            t = pre_associator(pre3, kind, x, y, z)
            total = t if total is None else total + t
        assert total == hom_associator(a, x, y, z)


def test_morphism_check_passes_for_the_twist_itself():
    a = grassmann1_twisted()
    rep = check_morphism(a.alpha, a, a)
    assert rep.passed and rep.law == "morphism"


def test_morphism_check_fails_for_non_morphism(p3, rb3):
    rep = check_morphism(rb3, p3, p3)
    assert not rep.passed
    assert rep.identity in ("preserves-mu", "intertwines-twist")


def test_morphism_requires_matching_kinds(p3, pre3):
    with pytest.raises(ValidationError):
        check_morphism(p3.alpha, p3, pre3)


def test_parallel_scan_agrees_with_serial(oct, scan_path):
    big = tensor_alt(truncpoly(3), oct)  # 24^3 triples: past laws.POOL_MIN_TUPLES
    serial = check_product_law(big, "hom-alternative", jobs=1)
    parallel = check_product_law(big, "hom-alternative", jobs=2)
    assert serial.passed and parallel.passed
    assert serial.checked == parallel.checked == 13824


def test_parallel_scan_reports_the_same_witness(oct, scan_path):
    from superalt import perturb_product

    big = perturb_product(tensor_alt(truncpoly(3), oct), (1, 2, 3), Fraction(1))
    serial = check_product_law(big, "hom-alternative", jobs=1)
    parallel = check_product_law(big, "hom-alternative", jobs=2)
    assert not serial.passed and not parallel.passed
    assert serial.witness == parallel.witness
    assert serial.checked == parallel.checked
    assert serial.residual == parallel.residual


def test_parallel_scan_without_fork_runs_serially(monkeypatch, scan_path):
    import multiprocessing

    from superalt import PrimeField, perturb_product, zero

    asked, get_context = [], multiprocessing.get_context

    def no_fork(method=None):
        asked.append(method)
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        return get_context(method)

    a = zero(10, 11, PrimeField(3))  # 21^3 = 9261 triples: past laws.POOL_MIN_TUPLES
    for inst in (a, perturb_product(a, (11, 4, 11), 1)):
        serial = check_product_law(inst, "hom-alternative", jobs=1)
        with monkeypatch.context() as patch:
            patch.setattr(multiprocessing, "get_context", no_fork)
            assert check_product_law(inst, "hom-alternative", jobs=2) == serial
    assert asked == ["fork", "fork"]
    assert serial.witness is not None and serial.checked > 1024


coeff = st.integers(min_value=-2, max_value=2).map(Fraction)


@settings(max_examples=30, deadline=None)
@given(st.lists(coeff, min_size=3, max_size=3),
       st.lists(coeff, min_size=3, max_size=3),
       st.lists(coeff, min_size=3, max_size=3))
def test_identities_are_multilinear_on_homogeneous_points(p3, cx, cy, cz):
    # p3 is entirely even, so every vector is homogeneous of parity 0
    pts = tuple((Vector(p3.space, c), 0) for c in (cx, cy, cz))
    for name, arity, fn in law_identities(p3, "hom-alternative"):
        assert fn(pts[:arity]).is_zero(), name


def test_report_serialization_round_trip_fields(oct):
    rep = check_product_law(oct, "hom-associative")
    d = rep.to_json_dict(oct.space.field)
    assert d["law"] == "hom-associative"
    assert d["passed"] is False
    assert d["witness"] == [1, 2, 3]
    assert d["residual"][6] == "-2"


def test_pre_instances_are_equal_iff_products_and_twists_are(pre3, p3):
    same = HomPreAlgebra(pre3.prec, pre3.succ, pre3.alpha, name="renamed")
    assert same == pre3 and pre3 == same
    assert HomPreAlgebra(pre3.succ, pre3.prec, pre3.alpha) != pre3
    assert HomPreAlgebra(pre3.prec, pre3.succ, pre3.alpha.scaled(2)) != pre3
    assert pre3 != alt_of(pre3) and alt_of(pre3) != pre3
    assert pre3 != p3 and (pre3 == "pre3") is False
