"""Raw values at the reads: polynomial values are normalized only where read.

The polynomial kernels and vector sums hold their values raw.  A _Poly
keeps a term that cancels, with coefficient 0, and over F_p a coefficient
is any int standing for its residue.  Two reads take the normal form: the
contraction's witness and the search's filing.  The scan's sparse vectors
are canonical instead, reduced when they are made.  Each case below makes
a raw value that a read must see through, or that a sparse vector must
reduce, and compares the check with the law_identities reference on
verdict, witness, checked and residual, on every path: the tuple scan, the
contraction, the contraction in one-index slices, and the fork pool.

(a) Over Q, a contracted residual keeps a cancelled monomial, coefficient 0,
    above the first failing tuple.
(b) Over F_3 and F_5, a contracted residual keeps a coefficient that is a
    nonzero multiple of p above the first failing tuple.
(c) Over F_5, twisted products of residues meet as congruent but unequal
    ints; a scan's sparse vectors reduce them when made, so no two memo keys
    are congruent but unequal, and a residual that vanishes mod p is empty.
"""

import functools
import itertools
from contextlib import contextmanager
from unittest import mock

import pytest

from superalt import (
    EvenMap,
    HomAlgebra,
    PrimeField,
    Vector,
    check_product_law,
    grassmann1,
    law_identities,
    matrix_algebra,
    octonions,
    perturb_bilinear,
    plus_jordan,
    reduce_instance,
    tensor_alt,
    tensor_map,
)
from superalt import laws
from superalt.core import _Poly, _sparse_vector
from conftest import forced, watched_contractions

PATHS = ("scan", "contract", "slices", "pool")


@functools.lru_cache(maxsize=None)
def l1_oct(p=0):
    a = tensor_alt(grassmann1(), octonions())
    return reduce_instance(a, p) if p else a


@functools.lru_cache(maxsize=None)
def plus_twisted_5():
    """The plus-algebra of the Yau twist of l1 (x) M_2 over F_5 by the
    automorphism id (x) diag(1, 2, 3, 1): its entries 2 and 3, unlike +-1,
    make twisted products of residues meet as congruent but unequal ints."""
    l1, m2 = reduce_instance(grassmann1(), 5), reduce_instance(matrix_algebra(2), 5)
    a = tensor_alt(l1, m2)
    beta = tensor_map(EvenMap.identity(l1.space), EvenMap.diagonal(m2.space, (1, 2, 3, 1)))
    return plus_jordan(HomAlgebra(a.mu.post_compose(beta), beta.compose(a.alpha)))


def bent(a, cell, delta=1):
    return HomAlgebra(perturb_bilinear(a.mu, cell, delta), a.alpha)


def reference(a, law):
    """(passed, checked, witness, identity, residual) of nested loops over
    the law_identities closures, in scan order."""
    basis = [(Vector.basis(a.space, i), a.space.parity(i)) for i in a.space.indices()]
    checked = 0
    for arity, run in itertools.groupby(law_identities(a, law), key=lambda entry: entry[1]):
        run = list(run)
        for idx in itertools.product(a.space.indices(), repeat=arity):
            checked += 1
            for name, _, fn in run:
                r = fn(tuple(basis[i] for i in idx))
                if not r.is_zero():
                    return False, checked, idx, name, r.coords
    return True, checked, None, None, None


@contextmanager
def on(path):
    """Every group on path; yields the jobs to check with.  The pool starts
    for groups of 2 048 tuples and more, split in chunks of 1 024."""
    if path == "pool":
        with forced("scan"), mock.patch.object(laws, "POOL_MIN_TUPLES", 2048):
            yield 2
    else:
        with forced("scan" if path == "scan" else "contract", 1 if path == "slices" else None):
            yield 1


def assert_matches_reference(a, law, path, forked):
    with on(path) as jobs:
        rep = check_product_law(a, law, jobs=jobs)
    if path == "pool":
        forked()
    assert (rep.passed, rep.checked, rep.witness, rep.identity, rep.residual) == reference(a, law)
    return rep


def hidden_above_witness(a, law, p):
    """The raw coefficients, of contracted residuals in the witness's group,
    that vanish (mod p over F_p) at a monomial above the witness's, which an
    unnormalized read would take for an earlier failure.  Over F_p only
    those that are not 0 as ints count."""
    residuals = []
    with forced("contract"), watched_contractions(residuals):
        rep = check_product_law(a, law)
    hidden = 0
    for slots, r in residuals:
        if len(slots) == len(rep.witness):
            offsets = itertools.accumulate(map(len, slots), initial=0)
            nvars = sum(map(len, slots))
            witness = sum(1 << (nvars - 1 - offset - i) for offset, i in zip(offsets, rep.witness))
            hidden += sum(m > witness and (c % p == 0 and c != 0 if p else c == 0)
                          for v in r for m, c in _Poly.terms(v) if type(v) is _Poly)
    return hidden


CASES = {
    "a-Q": (0, (15, 15, 0)),
    "b-F3": (3, (9, 14, 7)),
    "b-F5": (5, (12, 13, 1)),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", CASES)
def test_a_zero_coefficient_above_the_first_failure_is_no_witness(case, path, forked):
    p, cell = CASES[case]
    a = bent(l1_oct(p), cell)
    if path == "contract":
        assert hidden_above_witness(a, "hom-alternative", p)
    rep = assert_matches_reference(a, "hom-alternative", path, forked)
    assert not rep.passed and rep.checked > 1


class Kept(laws._Tables):
    """A table binder that lists itself in made, and in keys, per memo, the
    argument tuple of each call that missed it, whose result it then stored."""

    made = []

    def __init__(self):
        super().__init__()
        self.keys = []
        Kept.made.append(self)

    def memoised(self, fn):
        keys = []
        self.keys.append(keys)

        def missed(*args):
            keys.append(args)
            return fn(*args)

        return super().memoised(missed)


def congruent_memo_keys(binder, p) -> int:
    """The memo keys that are congruent mod p to an earlier, unequal key of
    the same memo: each argument of a key is a sparse vector, its pairs
    (index, value) reduced here mod p, those that vanish dropped."""
    met = 0
    for keys in binder.keys:
        seen = {}
        for key in keys:
            reduced = tuple(tuple((i, r) for i, c in v if (r := c % p)) for v in key)
            met += seen.setdefault(reduced, key) != key
    return met


def scanned_residuals(a, law):
    """The raw residual of each identity evaluation of a scanned check, and
    the table binders it made."""
    residuals, scan = [], laws._scan_range
    Kept.made = []

    def watched(slots, idfns, start, stop):
        def watch(fn):
            def f(pts):
                residuals.append(fn(pts))
                return residuals[-1]

            return f

        return scan(slots, [(name, watch(fn), *rest) for name, fn, *rest in idfns], start, stop)

    with forced("scan"), mock.patch.object(laws, "_Tables", Kept), \
            mock.patch.object(laws, "_scan_range", watched):
        check_product_law(a, law)
    return residuals, Kept.made


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("bend", [False, True], ids=["passing", "bent"])
def test_congruent_memo_keys_give_the_reference_verdict(bend, path, forked):
    """Bent at (5, 6, 3) and, with the Koszul sign of two odd indices, at
    (6, 5, 3), the product stays super-commutative and first fails jordan
    at the 117th tuple of its group."""
    a = plus_twisted_5()
    if bend:
        a = bent(bent(a, (5, 6, 3)), (6, 5, 3), -1)
    if path == "scan":
        residuals, binders = scanned_residuals(a, "hom-jordan")
        assert sum(memo.cache_info().currsize for binder in binders for memo in binder.memos)
        assert sum(congruent_memo_keys(binder, 5) for binder in binders) == 0
        assert any(r.is_zero() for r in residuals)
        for r in residuals:  # canonical: indices ascending, values in [1, p)
            assert [i for i, _ in r] == sorted({i for i, _ in r})
            assert all(0 < v < 5 for _, v in r)
    rep = assert_matches_reference(a, "hom-jordan", path, forked)
    assert (rep.passed, rep.checked) == ((False, 8**2 + 117) if bend else (True, 8**2 + 8**4))


@pytest.mark.parametrize("p", (3, 5))
def test_a_sparse_vector_reduces_when_it_is_made(p):
    vector = _sparse_vector(p, 4)
    raw = vector.of({0: p, 1: -p, 2: 2 * p + 1, 3: -1})
    assert raw == ((2, 1), (3, p - 1)) and raw.coords == (0, 0, 1, p - 1)
    assert raw - raw == vector() and (raw + raw) == ((2, 2), (3, p - 2))  # sums reduce
    assert -raw == ((2, p - 1), (3, 1)) and raw.scaled(PrimeField(p).coerce(2)) == raw + raw
    assert not raw.is_zero() and vector.of({0: p, 1: -p, 2: 3 * p}).is_zero()
