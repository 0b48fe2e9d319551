"""What the polynomial evaluation pays for, and the packing of its monomials.

A bilinear table applier multiplies two coordinates only for a cell with
structure constants, and the fused kernel of the polynomial binder once per
structure constant of such a cell.  A _Poly monomial is an int packing an exponent
vector, and the product of two monomials is their sum, so each packing must
leave room for every exponent that can arise: one bit per variable on the
generic points of a contraction, whose identities are multilinear, and one
byte per variable in an operator search, whose equations have degree at
most 2 in the unknown map.

The polynomial binder memoises on the identity of its arguments, so a term
that several identities share is computed once.  Its memos last one slot-0
slice of a contraction, and one filing pass of a search.
"""

import itertools
import random
from collections import Counter
from unittest import mock

import pytest

from superalt import (
    OPERATOR_KINDS,
    PRE_LAWS,
    PRODUCT_LAWS,
    AltBimodule,
    EvenBilinear,
    EvenMap,
    HomAlgebra,
    HomPreAlgebra,
    PreBimodule,
    SuperSpace,
    check_alt_bimodule,
    check_pre_bimodule,
    check_pre_law,
    check_product_law,
    grassmann1,
    grassmann1_twisted,
    matrix_algebra,
    octonions,
    perturb_bilinear,
    plus_jordan,
    reduce_instance,
    regular_bimodule,
    search_operators,
    standard_pre_instances,
    tensor_alt,
    truncpoly,
)
from superalt import laws as engine
from superalt import operators
from superalt.core import _Poly, _TableVector
from superalt.fields import QQ
from conftest import forced, watched_contractions


class Counted(int):
    """An int coordinate that counts the products it is the left factor of."""

    calls = 0

    def __mul__(self, other):
        Counted.calls += 1
        return int(self) * other


def counted_products(b: EvenBilinear, x, y, kernel="_table_applier") -> int:
    """The products the kernel forms on the dense coordinates x and y, given
    to the table applier as sparse vectors, to the fused kernel as they are."""
    Counted.calls = 0
    x = [Counted(v) if v else 0 for v in x]
    if kernel == "_table_applier":
        x, y = ([(i, v) for i, v in enumerate(vs) if v] for vs in (x, y))
    getattr(b, kernel)()(x, y)
    return Counted.calls


def test_a_bilinear_applier_multiplies_only_at_cells_with_constants():
    """The scan's applier forms x_i y_j once per cell with constants; the
    fused kernel of the polynomial binder multiplies x_i once per constant
    of such a cell, and at an empty cell not at all."""
    rng = random.Random(3)
    for b in (tensor_alt(grassmann1(), octonions()).mu, truncpoly(5).mu, matrix_algebra(2).mu):
        cells = Counter((i, j) for i, j, _, _ in b.sparse_entries())
        assert len(cells) < b.left.dim * b.right.dim  # some cells are empty
        for _ in range(20):
            x = [rng.choice([0, 0, 1, -2, 3]) for _ in b.left.indices()]
            y = [rng.choice([0, 0, 1, -2, 3]) for _ in b.right.indices()]
            met = [n for (i, j), n in cells.items() if x[i] and y[j]]
            assert counted_products(b, x, y) == len(met)
            assert counted_products(b, x, y, "_poly_applier") == sum(met)
            polys = [_Poly({1: v}) if v else 0 for v in y]  # polynomial right factors
            assert counted_products(b, x, polys, "_poly_applier") == sum(met)
    s = SuperSpace(QQ, 3, 2)
    ones = [1] * s.dim
    for kernel in ("_table_applier", "_poly_applier"):
        assert counted_products(EvenBilinear.zero(s, s, s), ones, ones, kernel) == 0


def slot_masks(slots):
    """The bits of each slot's variables (see laws._generic_point)."""
    offsets = list(itertools.accumulate(map(len, slots), initial=0))
    nvars = offsets[-1]
    return [sum(1 << (nvars - 1 - offset - i) for i in range(len(slot)))
            for offset, slot in zip(offsets, slots)]


def assert_one_variable_per_slot(residuals):
    monomials = 0
    for slots, r in residuals:
        masks = slot_masks(slots)
        for c in r:
            assert type(c) is _Poly or c == 0
            for mono in c or ():
                assert mono.bit_count() == len(slots)
                assert all((mono & mask).bit_count() == 1 for mask in masks)
                monomials += 1
    assert monomials


def bent(b: EvenBilinear) -> EvenBilinear:
    return perturb_bilinear(b, (0, 0, 0), 1)


def test_contracted_residuals_hold_one_variable_per_slot():
    """Every family on passing instances and on single-entry perturbations,
    whose failing identities leave nonzero residual polynomials."""
    l1 = grassmann1()
    algebras = [l1, grassmann1_twisted(), truncpoly(3), tensor_alt(l1, truncpoly(2)),
                octonions(), matrix_algebra(2)]
    algebras += [HomAlgebra(bent(a.mu), a.alpha) for a in algebras]
    jordans = [plus_jordan(octonions()), plus_jordan(tensor_alt(l1, truncpoly(2)))]
    jordans += [HomAlgebra(bent(a.mu), a.alpha) for a in jordans]
    pres = standard_pre_instances()
    pres += [HomPreAlgebra(bent(p.prec), p.succ, p.alpha) for p in pres]
    alts = [regular_bimodule(a) for a in (octonions(), truncpoly(3), tensor_alt(l1, truncpoly(2)))]
    alts += [AltBimodule(m.base, m.beta, bent(m.lsucc), m.rprec) for m in alts]
    pbms = [regular_bimodule(p) for p in standard_pre_instances()]
    pbms += [PreBimodule(m.base, m.beta, m.lprec, m.rprec, m.lsucc, bent(m.rsucc)) for m in pbms]
    families = {
        "product laws": lambda: [check_product_law(a, law) for a in algebras for law in PRODUCT_LAWS]
        + [check_product_law(a, "hom-jordan") for a in jordans],
        "pre laws": lambda: [check_pre_law(p, law) for p in pres for law in PRE_LAWS],
        "alt bimodules": lambda: [check_alt_bimodule(m) for m in alts],
        "pre bimodules": lambda: [check_pre_bimodule(m) for m in pbms],
    }
    for family, run in families.items():
        residuals = []
        with forced("contract"), watched_contractions(residuals):
            reports = run()
        assert not all(rep.passed for rep in reports), family
        assert_one_variable_per_slot(residuals)


class Filed(Exception):
    """Raised in place of the search, once its polynomials are filed."""


def filed_polynomials(a, kind, **options):
    """The polynomials a search over every entry of the map files."""
    file_polynomials = operators._file_polynomials
    filed = []

    def intercept(groups, steps, nsteps, p):
        filed.append(file_polynomials(groups, steps, nsteps, p))
        raise Filed

    with mock.patch.object(operators, "_file_polynomials", intercept), pytest.raises(Filed):
        search_operators(a, kind, **options)
    return [terms for polys in filed[0] for terms in polys]


def test_searched_monomials_have_exponents_of_at_most_two():
    p35 = reduce_instance(truncpoly(3), 5)
    l1p33 = reduce_instance(tensor_alt(grassmann1(), truncpoly(3)), 3)
    searches = [(a, kind, {"weight": 0} if kind == "rota-baxter" else {})
                for a in (p35, l1p33) for kind in OPERATOR_KINDS if kind != "o-operator"]
    searches += [(a, "rota-baxter", {"weight": 1}) for a in (p35, l1p33)]
    searches.append((p35, "o-operator", {"bimodule": regular_bimodule(p35)}))
    degrees = Counter()
    for a, kind, options in searches:
        polys = filed_polynomials(a, kind, **options)
        assert polys, kind
        with mock.patch.object(operators, "EXPONENT_BITS", 2 * operators.EXPONENT_BITS):
            assert filed_polynomials(a, kind, **options) == polys, kind  # nothing carried
        for terms in polys:
            for _, mono in terms:
                assert mono == tuple(sorted(mono))
                assert max(Counter(mono).values(), default=0) <= 2, (kind, mono)
                degrees[len(mono)] += 1
    assert max(degrees) == 2  # squares or products of two entries do occur


def l1_oct_5():
    return reduce_instance(tensor_alt(grassmann1(), octonions()), 5)


def test_a_contraction_evaluates_each_term_once_per_slice():
    """left-alt and right-alt both evaluate as(x, y, z): a block evaluates
    as() at three argument tuples, not four, and no applier or associator
    meets the same argument objects twice in one slice."""
    evaluated, held, slices, contractions = Counter(), [], [0], []
    memoised, generic_point, contract = (
        engine._Polynomials.memoised, engine._generic_point, engine._contract)

    def counting(binder, fn):
        def counted(*args):
            held.append(args)  # no id is reused while the check runs
            evaluated[fn.__name__, id(fn), tuple(map(id, args)), slices[0]] += 1
            return fn(*args)

        return memoised(binder, counted)

    def slot_point(slot, run, offset, nvars, make):
        slices[0] += offset == 0  # slot 0's point is made once per slice
        return generic_point(slot, run, offset, nvars, make)

    def counted_contract(slots, idfns, binder):
        out = contract(slots, idfns, binder)
        contractions.append((len(idfns), out))
        return out

    a = l1_oct_5()
    with forced("contract"), \
            mock.patch.object(engine._Polynomials, "memoised", counting), \
            mock.patch.object(engine, "_generic_point", slot_point), \
            mock.patch.object(engine, "_contract", counted_contract):
        assert check_product_law(a, "hom-alternative").passed
    assert slices[0] == 2
    assert max(evaluated.values()) == 1
    ((identities, (_, _, evaluations, _)),) = contractions
    blocks = evaluations // identities
    assert blocks == 8
    assert sum(n for (name, *_), n in evaluated.items() if name == "asso") == 3 * blocks


class Kept(engine._Polynomials):
    """A polynomial binder that lists itself in made, and in stored, per
    memo, the arguments and result of each call that missed it; the last
    cache_info().misses of them missed it since it was last cleared."""

    made = []

    def __init__(self):
        super().__init__()
        self.stored = []
        Kept.made.append(self)

    def memoised(self, fn):
        stored = []
        self.stored.append(stored)

        def missed(*args):
            stored.append((args, fn(*args)))
            return stored[-1][1]

        return super().memoised(missed)


def kept_binders():
    Kept.made = []
    return mock.patch.object(engine, "_Polynomials", Kept), \
        mock.patch.object(operators, "_Polynomials", Kept)


def test_every_memo_entry_holds_its_argument_objects():
    """A key is its argument objects, _TableVectors, which hash by identity,
    and its entry holds them, so no id in it can name another object while
    the entry lives: every entry a contraction and a search stored is still
    there, and a call with the same objects hits and returns the very result
    it stored."""
    contraction, search = kept_binders()
    a, p35 = l1_oct_5(), reduce_instance(truncpoly(3), 5)
    with contraction, search:
        assert check_product_law(a, "hom-alternative").passed  # contracted
        assert search_operators(p35, "rota-baxter", weight=0, budget=2000).found
    assert len(Kept.made) == 2
    for binder in Kept.made:
        shared = sum(memo.cache_info().hits for memo in binder.memos)
        assert shared
        held = [stored[len(stored) - memo.cache_info().misses:]
                for memo, stored in zip(binder.memos, binder.stored)]
        assert sum(map(len, held))
        for memo, stored in zip(binder.memos, held):
            assert memo.cache_info().currsize == len(stored)
            for args, r in stored:
                assert all(type(v) is _TableVector for v in args)
                assert memo(*args) is r
        assert sum(memo.cache_info().hits for memo in binder.memos) == shared + sum(map(len, held))


def test_the_polynomial_binder_keys_its_memos_by_identity(monkeypatch):
    """A _TableVector is equal only to itself, and hashes by identity: a
    fresh vector equal in value to an earlier argument misses the memo, the
    same object hits, and a new vector that takes the id of a dropped one
    never gets the dropped one's result."""
    s = SuperSpace(QQ, 2, 1)
    m = EvenMap.from_entries(s, s, [(0, 0, QQ.coerce(2)), (0, 1, QQ.coerce(3)),
                                    (2, 2, QQ.coerce(-1))])
    monkeypatch.setattr(engine, "MEMO_LIMIT", 1)  # each miss evicts, and frees, the last key
    binder = engine._Polynomials()
    applier = binder(m)
    assert binder.memos == [applier]

    x = _TableVector([_Poly({1: 1}), 2, 0])
    twin = _TableVector(x)
    assert x == x and not x != x and hash(x) == hash(x)
    assert tuple(twin) == tuple(x) and twin != x and not twin == x
    assert len({x, twin}) == 2
    with pytest.raises(TypeError):
        hash(tuple(x))  # a _Poly, being a dict, has no hash
    r = applier(x)
    assert applier(x) is r
    assert applier.cache_info()[:2] == (1, 1)  # hits, misses
    assert applier(twin) is not r and applier.cache_info()[:2] == (1, 2)
    del x, twin, r

    rng, ids, kernel = random.Random(5), Counter(), m._poly_applier()
    for calls in range(1, 201):
        v = _TableVector([rng.randrange(-3, 4) for _ in s.indices()])
        ids[id(v)] += 1
        assert tuple(applier(v)) == tuple(kernel(v))
        assert applier.cache_info().misses == 2 + calls
        del v
    assert max(ids.values()) > 1  # ids were reused
    assert applier.cache_info().hits == 1


def test_the_memos_are_empty_when_each_slice_starts():
    """The first evaluation of each slot-0 slice finds every memo empty, so
    memory stays bounded by one slice: product laws, hom-jordan with its two
    groups, a pre law and a pre-bimodule, in slices of 256 tuples and
    unsliced."""
    starts = []
    contract = engine._contract

    def watched(slots, idfns, binder):
        heads = []

        def watch(fn):
            def f(pts):
                if not heads or pts[0] is not heads[-1]:  # a new slice's slot-0 point
                    heads.append(pts[0])
                    starts.append(sum(m.cache_info().currsize for m in binder.memos))
                return fn(pts)

            return f

        return contract(slots, [(name, watch(fn), *rest) for name, fn, *rest in idfns], binder)

    a, jordan = l1_oct_5(), plus_jordan(tensor_alt(grassmann1(), truncpoly(2)))
    pre = standard_pre_instances()[0]
    m = regular_bimodule(pre)
    checks = [
        lambda: check_product_law(a, "hom-alternative"),
        lambda: check_product_law(jordan, "hom-jordan"),
        lambda: check_pre_law(pre, "hom-prealternative"),
        lambda: check_pre_bimodule(m),
    ]
    for slice_tuples in (256, None):
        starts.clear()
        with forced("contract", slice_tuples), mock.patch.object(engine, "_contract", watched):
            assert all(check().passed for check in checks)
        assert len(starts) > 2 * len(checks)
        assert not any(starts)
