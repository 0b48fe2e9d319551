import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from superalt import QQ, FieldError, FpElement, PrimeField


def test_prime_field_rejects_characteristic_two():
    with pytest.raises(FieldError, match="characteristic 2"):
        PrimeField(2)


@pytest.mark.parametrize("n", [0, 1, 4, 9, 15, 21, 1001])
def test_prime_field_rejects_composites(n):
    with pytest.raises(FieldError):
        PrimeField(n)


def test_prime_field_accepts_odd_primes():
    for p in (3, 5, 7, 11, 97):
        assert PrimeField(p).char == p


# Carmichael numbers, and strong pseudoprimes to the first 1, 4, 9 and 12 prime bases
PSEUDOPRIMES = [561, 1105, 1729, 2047, 3215031751, 3825123056546413051,
                318665857834031151167461]
# deterministic Miller-Rabin on the first 13 prime bases is exact below this
MR_BOUND = 3317044064679887385961981


def decided_within_a_second(n):
    start = time.perf_counter()
    try:
        return PrimeField(n).char == n
    except FieldError as e:
        return str(e)
    finally:
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", PSEUDOPRIMES + [(2**61 - 1) * (2**19 - 1), (10**12 + 39) ** 2])
def test_prime_field_rejects_large_composites_at_once(n):
    assert decided_within_a_second(n) == f"{n} is not prime"


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1, 10**18 + 9, 2**64 - 59,
                               3317044064679887385961813])
def test_prime_field_accepts_large_primes_at_once(p):
    assert decided_within_a_second(p) is True


@pytest.mark.parametrize("n", [MR_BOUND, 2**89 - 1, 10**4000])
def test_prime_field_refuses_what_it_cannot_decide_exactly(n):
    assert "too large" in decided_within_a_second(n)


@given(st.integers(min_value=3, max_value=20000))
def test_primality_agrees_with_trial_division(n):
    if all(n % d for d in range(2, int(n**0.5) + 1)):
        assert PrimeField(n).char == n
    else:
        with pytest.raises(FieldError):
            PrimeField(n)


def test_fp_normalization():
    F = PrimeField(5)
    assert F.coerce(7) == 2
    assert F.coerce(-1) == 4
    assert F.coerce(0) == 0


@given(st.integers(), st.integers(), st.sampled_from([3, 5, 7, 13]))
def test_fp_ring_homomorphism_from_integers(a, b, p):
    F = PrimeField(p)
    assert F.coerce(a) + F.coerce(b) == F.coerce(a + b)
    assert F.coerce(a) * F.coerce(b) == F.coerce(a * b)
    assert F.coerce(a) - F.coerce(b) == F.coerce(a - b)
    assert -F.coerce(a) == F.coerce(-a)


@given(st.integers(min_value=1, max_value=12))
def test_fp_division_inverts_multiplication(n):
    F = PrimeField(13)
    x = F.coerce(n)
    assert (F.one / x) * x == F.one


def test_fp_division_by_zero():
    F = PrimeField(3)
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero


def test_fp_cross_characteristic_is_rejected():
    a = PrimeField(3).one
    b = PrimeField(5).one
    with pytest.raises(FieldError, match="mixed prime fields"):
        a + b


def test_fp_and_rational_do_not_mix():
    with pytest.raises(TypeError):
        Fraction(1, 2) + PrimeField(3).one


def test_fp_int_interop():
    x = PrimeField(7).coerce(3)
    assert x + 5 == 1
    assert 2 * x == 6
    assert bool(x) and not bool(x - 3)


def test_rational_coerce_rejects_bool_and_junk():
    with pytest.raises(FieldError):
        QQ.coerce(True)
    with pytest.raises(FieldError):
        QQ.coerce("1/2")
    with pytest.raises(FieldError):
        QQ.coerce(0.1)
    assert QQ.coerce(3) == Fraction(3)


def test_rational_json_is_lowest_terms_string():
    assert QQ.to_json(Fraction(2, 4)) == "1/2"
    v, warn = QQ.from_json("1/2")
    assert v == Fraction(1, 2) and warn is None


def test_rational_json_rejects_non_canonical_in_strict_mode():
    # the warning is what a strict reading refuses (io._Ctx.bend)
    v, warn = QQ.from_json("2/4")
    assert v == Fraction(1, 2) and warn == "rational '2/4' not in canonical form (want '1/2')"


def test_fp_json_range():
    F = PrimeField(5)
    assert F.to_json(F.coerce(3)) == 3
    assert F.from_json(4) == (F.coerce(4), None)
    v, warn = F.from_json(7)
    assert v == F.coerce(2) and warn == "residue 7 outside [0, 5)"


def test_fp_elements_enumeration():
    F = PrimeField(3)
    assert [e.val for e in F.elements()] == [0, 1, 2]


def test_fp_hash_matches_equal_ints():
    x = FpElement(2, 5)
    assert hash(x) == hash(2)
    assert len({x, FpElement(7, 5)}) == 1


def test_fp_equals_only_the_canonical_int():
    x = FpElement(5, 3)
    assert x == 2 and x != 5
    assert x in {2} and x not in {5}


@example((3, 5, 5, True, False))
@given(
    st.sampled_from([3, 5, 7]).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.integers(-3 * p, 3 * p),
            st.integers(-3 * p, 3 * p),
            st.booleans(),
            st.booleans(),
        )
    )
)
def test_fp_equal_values_have_equal_hashes(case):
    p, a, b, a_residue, b_residue = case
    x = FpElement(a, p) if a_residue else a
    y = FpElement(b, p) if b_residue else b
    if x == y:
        assert hash(x) == hash(y)


def test_rational_json_bare_int_is_bent_leniently_and_refused_strictly():
    # the warning is what a strict reading refuses (io._Ctx.bend)
    v, warn = QQ.from_json(3)
    assert v == Fraction(3)
    assert warn == "rational written as bare int 3 (canonical form is a string)"


@pytest.mark.parametrize("convert", ["coerce"])
def test_prime_field_refuses_other_residues_and_non_integers(convert):
    F = PrimeField(5)
    to = getattr(F, convert)
    assert to(F.coerce(3)) == 3
    with pytest.raises(FieldError, match="residue mod 7 used in F_5"):
        to(PrimeField(7).one)
    for junk in (Fraction(1, 2), 1.0, True, "1"):
        with pytest.raises(FieldError):
            to(junk)


@given(st.integers(), st.integers(min_value=0, max_value=40), st.sampled_from([3, 5, 7, 13]))
def test_fp_reflected_ops_and_powers_agree_with_ints_mod_p(a, k, p):
    F = PrimeField(p)
    x = F.coerce(a)
    assert 5 - x == F.coerce(5 - a)
    assert x ** k == F.coerce(pow(a, k, p))
    if a % p:
        assert (1 / x) * a == 1
        assert 1 / x == F.coerce(pow(a, -1, p))
    else:
        with pytest.raises(ZeroDivisionError):
            1 / x
