"""Pruned operator search against brute force.

search_operators binds every operator equation once as polynomials in the
entries of the unknown map, and skips each subtree of the radix order on
which one of them fails.  The oracle here is the search it replaced:
enumerate_even_maps in the same order, and on every candidate a nested loop
over the operator equations bound to the reference Vector closures.  found
(in order), candidates_checked, exhausted and space_size must agree,
exhaustively on small spaces and on budgeted prefixes of larger ones, every
budget being a counter bound.  The signed permutation search is the same
walk over another mixed-radix counter (each column's image, then each
column's sign); its oracles are the itertools order of
enumerate_signed_permutation_maps, which the counter must walk map for map,
and check_operator on every one of those maps.
"""

import collections
import contextlib
import hashlib
import itertools
import logging
import math
import random
from unittest import mock

import pytest

from superalt import (
    OPERATOR_KINDS,
    AltBimodule,
    EvenBilinear,
    EvenMap,
    HomAlgebra,
    OperatorSpec,
    PrimeField,
    SuperSpace,
    check_operator,
    corpus,
    enumerate_even_maps,
    enumerate_signed_permutation_maps,
    integration,
    rb_split,
    reduce_instance,
    reduce_map,
    regular_bimodule,
    search_operators,
    truncpoly,
)
from superalt import laws
from superalt.core import Vector, _Poly, _TableVector
from superalt.laws import REFERENCE
from conftest import from_rows
from superalt.operators import (
    EXPONENT_BITS,
    _backtrack,
    _even_positions,
    _file_polynomials,
    _o_operator_groups,
    _operator_groups,
    _SearchStats,
    _signed_counter,
    _variables,
)

# every kind once, rota-baxter at weights 0 and 1
KINDS = [(k, None) for k in OPERATOR_KINDS if k != "rota-baxter"]
KINDS += [("rota-baxter", 0), ("rota-baxter", 1)]


def named(name, p=3):
    return corpus.build_named(name, prime=p)[1]


def passes(a, kind, weight, bimodule, f):
    """The operator equations of f, evaluated on Vectors by the reference
    closures in a plain nested loop: check_operator itself scans on tables
    that share their appliers with the search."""
    if kind == "o-operator":
        groups = _o_operator_groups(f, bimodule, REFERENCE)
    else:
        w = a.space.field.coerce(weight) if kind == "rota-baxter" else None
        groups = _operator_groups(kind, a, f, w, REFERENCE)
    return all(
        fn(pts).is_zero()
        for slots, idfns in groups
        for pts in itertools.product(*slots)
        for _, fn in idfns
    )


def even_cells(codomain, domain):
    return [
        (i, j)
        for i in codomain.indices()
        for j in domain.indices()
        if codomain.parity(i) == domain.parity(j)
    ]


def brute_force(a, kind, weight=None, budget=None, bimodule=None):
    """(counter, map) of every passing candidate below budget, and the space size."""
    domain = bimodule.module if kind == "o-operator" else a.space
    hits = [
        (c, f)
        for c, f in enumerate(enumerate_even_maps(domain, a.space, budget=budget))
        if passes(a, kind, weight, bimodule, f)
    ]
    return hits, a.space.field.p ** len(even_cells(a.space, domain))


def assert_prefix_agrees(a, kind, weight, budget, hits, size, bimodule=None):
    res = search_operators(a, kind, weight=weight, budget=budget, bimodule=bimodule)
    limit = size if budget is None else min(budget, size)
    assert res.found == [f for c, f in hits if c < limit], (a.name, kind, weight, budget)
    assert res.candidates_checked == limit, (a.name, kind, weight, budget)
    assert res.exhausted == (limit == size), (a.name, kind, weight, budget)
    assert res.space_size == size, (a.name, kind, weight, budget)
    return res


def budgets_around(hits, p, top, rng, extra=4):
    """Budgets that cut just before and just after the first and last found
    maps, around powers of p, and at random counters up to top."""
    cuts = {0, 1, 2, p - 1, p, p + 1, top}
    for c, _ in hits[:4] + hits[-4:]:
        cuts |= {c, c + 1}
    q = p
    while q < top:
        cuts |= {q - 1, q, q + 1}
        q *= p
    cuts |= {rng.randrange(top + 1) for _ in range(extra)}
    return sorted(b for b in cuts if 0 <= b <= top)


def random_algebra(rng, p, dims, density=0.4):
    field = PrimeField(p)
    s = SuperSpace(field, *dims)
    par = s.parity
    entries = [
        (i, j, k, rng.randrange(1, p))
        for i in s.indices()
        for j in s.indices()
        for k in s.indices()
        if par(k) == (par(i) + par(j)) % 2 and rng.random() < density
    ]
    alpha = [
        [rng.randrange(p) if par(i) == par(j) and rng.random() < 0.5 else 0 for j in s.indices()]
        for i in s.indices()
    ]
    return HomAlgebra(EvenBilinear.from_entries(s, s, s, entries), from_rows(s, s, alpha),
                      name=f"random{dims}@{p}")


def random_bimodule(rng, a, dims, density=0.4):
    """Actions and twist drawn at random: the o-operator equation does not
    need the bimodule axioms, and V differs from A in shape."""
    A, V = a.space, SuperSpace(a.space.field, *dims)
    p = A.field.p

    def action(left, right):
        return EvenBilinear.from_entries(left, right, V, [
            (i, j, k, rng.randrange(1, p))
            for i in left.indices()
            for j in right.indices()
            for k in V.indices()
            if V.parity(k) == (left.parity(i) + right.parity(j)) % 2 and rng.random() < density
        ])

    beta = [[rng.randrange(p) if V.parity(i) == V.parity(j) else 0 for j in V.indices()]
            for i in V.indices()]
    return AltBimodule(a, from_rows(V, V, beta), action(A, V), action(V, A), name=f"random{dims}")


SMALL = ["zero-2-1", "grassmann1", "grassmann1-twisted", "truncpoly-2"]


@pytest.mark.parametrize("name", SMALL)
def test_exhaustive_search_matches_brute_force_on_small_corpus_instances(name):
    a = named(name)
    for kind, weight in KINDS:
        bimodule = regular_bimodule(a) if kind == "o-operator" else None
        hits, size = brute_force(a, kind, weight, bimodule=bimodule)
        assert size <= 243
        assert_prefix_agrees(a, kind, weight, None, hits, size, bimodule)


def test_exhaustive_search_matches_brute_force_on_random_instances():
    rng = random.Random(20171)
    for dims, vdims in (((1, 1), (2, 0)), ((2, 1), (1, 1)), ((1, 2), (0, 2))):
        a = random_algebra(rng, 3, dims)
        for kind, weight in KINDS:
            bimodule = random_bimodule(rng, a, vdims) if kind == "o-operator" else None
            hits, size = brute_force(a, kind, weight, bimodule=bimodule)
            assert size <= 729
            assert_prefix_agrees(a, kind, weight, None, hits, size, bimodule)


def test_endomorphism_search_of_a_pre_algebra_matches_brute_force():
    pre = rb_split(reduce_instance(truncpoly(2), 3), reduce_map(integration(2), 3))
    hits, size = brute_force(pre, "endomorphism")
    # a budget beyond the space is still exhaustive; one short of it is not
    for budget in (None, size + 5, size, size - 1):
        assert_prefix_agrees(pre, "endomorphism", None, budget, hits, size)


BUDGETED = [
    ("truncpoly-3", 3, "rota-baxter", 0, 3000),
    ("truncpoly-3", 3, "rota-baxter", 1, 3000),
    ("truncpoly-3", 3, "o-operator", None, 3000),
    ("truncpoly-3", 5, "rota-baxter", 0, 3000),
    ("l1-p3", 3, "rota-baxter", 0, 3000),
]


@pytest.mark.parametrize("name,p,kind,weight,top", BUDGETED)
def test_budgeted_prefixes_match_brute_force(name, p, kind, weight, top):
    a = named(name, p)
    bimodule = regular_bimodule(a) if kind == "o-operator" else None
    hits, size = brute_force(a, kind, weight, budget=top, bimodule=bimodule)
    assert hits, "the prefix holds found maps"
    rng = random.Random(top + p)
    for budget in budgets_around(hits, p, top, rng):
        assert_prefix_agrees(a, kind, weight, budget, hits, size, bimodule)


def test_budgeted_prefixes_of_the_remaining_kinds_match_brute_force():
    a = named("truncpoly-3")
    for kind, weight in KINDS:
        if kind in ("rota-baxter", "o-operator"):
            continue
        hits, size = brute_force(a, kind, weight, budget=1000)
        for budget in (0, 1, 500, 999, 1000):
            assert_prefix_agrees(a, kind, weight, budget, hits, size)


def test_a_nonzero_constant_disposes_of_the_whole_space():
    # no operator equation has a constant term (the zero map passes them
    # all), so the search is driven here on a hand-made system
    stats = _SearchStats()
    leaves = list(_backtrack([[], [], [((1, ()),)]], [3, 3], 3, 7, stats))
    assert leaves == [] and stats.disposed == 7 and stats.pruned == 1


def test_backtrack_prunes_and_counts_in_counter_order():
    # x0 x1 - 1 = 0 and x0 - 2 x1 = 0 over F_5, filed under x1; x0 = 0 fails
    # both at every x1, so the whole x0 = 0 subtree is pruned leaf by leaf
    polys = [[], [((1, (0, 1)), (4, ())), ((1, (0,)), (3, (1,)))], []]
    stats = _SearchStats()
    leaves = list(_backtrack(polys, [5, 5], 5, 25, stats))
    assert leaves == [(x0, x1) for x0 in range(5) for x1 in range(5)
                      if (x0 * x1 - 1) % 5 == 0 and (x0 - 2 * x1) % 5 == 0]
    assert stats.disposed + len(leaves) == 25
    # a limit inside the x0 = 1 subtree clips the count at the limit
    stats = _SearchStats()
    assert list(_backtrack(polys, [5, 5], 5, 7, stats)) == []
    assert stats.disposed == 7


def test_backtrack_counts_its_nodes_and_pruned_subtrees():
    # x0 - 1 = 0 filed under x0 and x0 x1 - 1 = 0 under x1, over F_5: the
    # root, five x0 nodes of which four are pruned, and under x0 = 1 five x1
    # nodes of which four are pruned
    polys = [[((1, (0,)), (4, ()))], [((1, (0, 1)), (4, ()))], []]
    stats = _SearchStats()
    assert list(_backtrack(polys, [5, 5], 5, 25, stats)) == [(1, 1)]
    assert (stats.nodes, stats.pruned, stats.disposed) == (11, 8, 24)
    # a limit of 7 ends the walk at counter 7, after x1 = 1 under x0 = 1
    stats = _SearchStats()
    assert list(_backtrack(polys, [5, 5], 5, 7, stats)) == [(1, 1)]
    assert (stats.nodes, stats.pruned, stats.disposed) == (5, 2, 6)


def test_filing_makes_each_polynomial_monic_once_and_files_constants_last():
    # over F_7, since c^3 inverts c whenever c^4 = 1: for every unit of F_3
    # and F_5, and for 6 but not 2 here; x_1 is decided at step 2, x_2 at
    # step 1
    x = [1 << EXPONENT_BITS * v for v in range(3)]
    residuals = [
        _Poly({x[0]: 2, x[1]: 4}),  # filed as x0 + 2 x1
        _Poly({x[0]: 6, x[1]: 12}),  # 3 times the first: filed once
        _Poly({x[0] + x[2]: 3, 0: 0}),  # 3 x0 x2, its constant cancelled
        _Poly({0: 9}),  # the constant 2, filed last
        _Poly({x[1]: 7}),  # zero mod 7: not filed
    ]
    groups = [([[None]], [("residual", lambda pts: residuals)])]
    assert _file_polynomials(groups, [0, 2, 1], 3, 7) == [
        [], [((1, (0, 2)),)], [((1, (0,)), (2, (1,)))], [((1, ()),)],
    ]


def test_the_polynomial_appliers_agree_with_apply_at_every_point():
    # coordinates that share the monomial x0 x1, so that several terms meet
    # in one output coordinate, evaluated at points against Vector apply
    rng = random.Random(5)
    p = 5
    a = random_algebra(rng, p, (2, 2), density=0.6)
    s = a.space
    dense = from_rows(s, s, [[(i + j) % p + 1 if s.parity(i) == s.parity(j) else 0
                              for j in s.indices()] for i in s.indices()])
    x = [1 << EXPONENT_BITS * v for v in range(3)]

    def coordinate():
        if rng.random() < 0.2:
            return rng.randrange(p)
        terms = {rng.choice(x) + rng.choice(x): rng.randrange(1, p) for _ in range(2)}
        return _Poly({x[0] + x[1]: rng.randrange(1, p), **terms})

    u, v = (_TableVector([coordinate() for _ in s.indices()]) for _ in range(2))
    product = a.mu._poly_applier()(u, v)
    twisted = dense._poly_applier()(u)
    for _ in range(20):
        point = [rng.randrange(p) for _ in x]

        def at(c):
            return sum(k * math.prod(point[i] for i in _variables(m))
                       for m, k in _Poly.terms(c)) % p

        def vector(w):
            return Vector(s, [s.field.coerce(at(c)) for c in w])

        assert [at(c) for c in product] == [c.val for c in a.mu.apply(vector(u), vector(v)).coords]
        assert [at(c) for c in twisted] == [c.val for c in dense.apply(vector(u)).coords]


SIGNED = [("truncpoly-3", 5), ("l1-p3", 3)]
# every self-map kind, rota-baxter at weights 0 and 1
SIGNED_KINDS = [("endomorphism", None), ("rota-baxter", 0), ("rota-baxter", 1), ("averaging", None),
                ("centroid", None), ("averaging-left", None), ("averaging-right", None)]


def signed_brute_force(a, kind, weight):
    """The passing maps of enumerate_signed_permutation_maps, by check_operator."""
    w = a.space.field.coerce(weight) if kind == "rota-baxter" else None
    maps = list(enumerate_signed_permutation_maps(a.space))
    hits = [(c, f) for c, f in enumerate(maps)
            if check_operator(OperatorSpec(kind, f, weight=w), a).passed]
    return hits, len(maps)


# zero-2-1 and grassmann1 have unequal even and odd dimensions
@pytest.mark.parametrize("name,p", SIGNED + [("zero-2-1", 3), ("grassmann1", 3)])
@pytest.mark.parametrize("kind,weight", SIGNED_KINDS)
def test_signed_permutation_search_matches_brute_force(name, p, kind, weight):
    a = named(name, p)
    hits, size = signed_brute_force(a, kind, weight)
    budgets = {0, 1, size // 2, size - 1, size, size + 7, None}
    budgets |= {c for c, _ in hits} | {c + 1 for c, _ in hits}
    for budget in sorted(budgets, key=lambda b: -1 if b is None else b):
        res = search_operators(a, kind, weight=weight, budget=budget, signed_perms=True)
        limit = size if budget is None else min(budget, size)
        assert res.found == [f for c, f in hits if c < limit], (name, kind, budget)
        assert res.candidates_checked == limit, (name, kind, budget)
        assert res.exhausted == (limit == size), (name, kind, budget)
        assert res.space_size == size, (name, kind, budget)


def found_digest(found):
    return hashlib.sha256(
        repr([[(i, j, v.val) for i, j, v in f.sparse_entries()] for f in found]).encode()
    ).hexdigest()


def test_signed_permutation_search_on_the_octonions():
    a = named("octonions", 3)
    res = search_operators(a, "rota-baxter", weight=0, signed_perms=True)
    assert (len(res.found), res.candidates_checked, res.exhausted) == (0, 10321920, True)
    # The 208 maps, and the sha256 of their sparse entries as found_digest
    # lists them, were recorded from the search at commit 23a44b0, which
    # tested each whole signed permutation against every filed polynomial.
    res = search_operators(a, "endomorphism", budget=200000, signed_perms=True)
    assert (len(res.found), res.candidates_checked, res.exhausted) == (208, 200000, False)
    assert found_digest(res.found) == (
        "f5c98e3a4a1d7389afbbf272c5e82757ca488200a9788866256a18a78fdd124c"
    )


def signed_entry_digits(space, positions):
    """The entries at positions of each map of enumerate_signed_permutation_maps."""
    rows = (f.entries for f in enumerate_signed_permutation_maps(space))
    return [tuple(m[i][j].val for i, j in positions) for m in rows]


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("dims", [(2, 0), (1, 2), (2, 2), (3, 1)], ids=lambda d: "%d-%d" % d)
def test_the_signed_counter_walks_the_signed_maps_in_their_order(dims, p):
    space = SuperSpace(PrimeField(p), *dims)
    positions = _even_positions(space, space)
    maps = signed_entry_digits(space, positions)
    size = len(maps)
    radices, steps, _ = _signed_counter(space, positions, p)
    assert math.prod(radices) == size and len(radices) == 2 * space.dim
    # column 0 goes to +e_0, and the last column to +-e_(n-1)
    first, last = positions.index((0, 0)), len(positions) - 1
    system = [
        ((1, (first,)), (p - 1, ())),
        ((1, (last, last)), (p - 1, ())),
    ]
    filed = [[] for _ in range(len(radices) + 1)]
    for terms in system:
        filed[max(steps[v] for _, mono in terms for v in mono)].append(terms)

    def vanishes(digits):
        return all(sum(c * math.prod(digits[v] for v in mono) for c, mono in terms) % p == 0
                   for terms in system)

    for limit in sorted({0, 1, 2, 3, size // 3, size // 2 + 1, size - 1, size, size + 5}):
        for polys, passing in (([[]] * len(filed), maps), (filed, list(filter(vanishes, maps)))):
            stats = _SearchStats()
            radices, _, bind = _signed_counter(space, positions, p)
            walked = list(_backtrack(polys, radices, p, limit, stats, bind))
            assert walked == [d for d in passing if maps.index(d) < limit], (limit, polys)
            assert stats.disposed + len(walked) == min(limit, size), (limit, polys)


@pytest.mark.parametrize("name,p", SIGNED + [("grassmann1", 3), ("zero-2-1", 3)])
def test_signed_permutation_endomorphisms_are_closed_under_composition(name, p):
    a = named(name, p)
    res = search_operators(a, "endomorphism", signed_perms=True)
    assert res.exhausted and res.found
    found = set(res.found)
    assert all(f.compose(g) in found for f in found for g in found)


def test_a_signed_search_checks_only_the_maps_it_finds():
    a = named("l1-p3", 3)
    for kind, weight in SIGNED_KINDS:
        for budget in (None, 1000):
            res = search_operators(a, kind, weight=weight, budget=budget, signed_perms=True)
            w = a.space.field.coerce(weight) if weight is not None else None
            assert all(check_operator(OperatorSpec(kind, f, weight=w), a).passed
                       for f in res.found), (kind, budget)


def test_a_signed_search_builds_only_the_maps_it_finds():
    # candidates are tested as digit vectors; an EvenMap is built only for
    # a map that passes every filed polynomial
    a = named("l1-p3", 3)
    built = []
    from_entries = EvenMap.from_entries.__func__

    def counted(cls, *args):
        built.append(args)
        return from_entries(cls, *args)

    with mock.patch.object(EvenMap, "from_entries", classmethod(counted)):
        for kind, weight in SIGNED_KINDS:
            for budget in (None, 1000):
                built.clear()
                res = search_operators(a, kind, weight=weight, budget=budget, signed_perms=True)
                assert len(built) == len(res.found), (kind, budget)


# The three searches of the perfbench search workload, and the exhaustive
# searches on l1-p3 over F_3 whose found maps number in the hundreds.
def rechecked_searches():
    p35, l1p3 = named("truncpoly-3", 5), named("l1-p3", 3)
    reg = regular_bimodule(p35)
    return [
        (p35, dict(kind="rota-baxter", weight=0, budget=10000)),
        (l1p3, dict(kind="rota-baxter", weight=0, budget=3000)),
        (p35, dict(kind="o-operator", bimodule=reg, budget=12000)),
        (l1p3, dict(kind="rota-baxter", weight=0)),
        (l1p3, dict(kind="averaging")),
        (l1p3, dict(kind="endomorphism", signed_perms=True)),
    ]


def fixed_tensors(a, bimodule):
    """Every tensor a check binds besides the candidate map (a regular
    bimodule's actions are the product, its twist the instance's)."""
    if bimodule is None:
        return [a.mu, a.alpha]
    return [a.mu, bimodule.lsucc, bimodule.rprec, bimodule.beta, a.alpha]


def test_every_found_map_passes_a_fresh_check():
    """Each found map passes check_operator (check_o_operator for
    o-operators) on a fresh binder; the exhaustive averaging search on
    l1-p3 finds 791 maps."""
    for a, options in rechecked_searches():
        res = search_operators(a, **options)
        assert res.found, options
        kind = options["kind"]
        w = a.space.field.coerce(options["weight"]) if "weight" in options else None
        bimodule = options.get("bimodule")
        assert all(check_operator(OperatorSpec(kind, f, weight=w, bimodule=bimodule), a).passed
                   for f in res.found), options
        if kind == "averaging":
            assert len(res.found) == 791


def test_a_scan_takes_its_memo_census_only_for_a_printed_line(caplog):
    """The memo entries a scanned group's DEBUG line reports are counted
    only while the line prints: with DEBUG off, a check never reads its
    binder's memos; with DEBUG on, it reads them once per group."""

    class Census(list):
        reads = 0

        def __iter__(self):
            Census.reads += 1
            return super().__iter__()

    class Tables(laws._Tables):
        def __init__(self):
            super().__init__()
            self.memos = Census()

    # both groups of hom-jordan on truncpoly-3 are below CONTRACT_MIN_TUPLES
    p35 = named("truncpoly-3", 5)
    with mock.patch.object(laws, "_Tables", Tables):
        assert laws.check_product_law(p35, "hom-jordan").passed
        assert Census.reads == 0
        with caplog.at_level(logging.DEBUG, logger="superalt"):
            laws.check_product_law(p35, "hom-jordan")
        assert Census.reads == 2
    lines = [r.getMessage() for r in caplog.records]
    assert [line.split(": ")[1] for line in lines] == ["scan", "scan"]


def test_a_search_compiles_the_instance_tensors_once():
    # one compile, on the polynomial binder that files the equations (its
    # fused kernel, _poly_applier), however many maps are found; no found
    # map is compiled
    compiled = collections.Counter()

    def counting(entry, original):
        def applier(self):
            compiled[entry, id(self)] += 1
            return original(self)

        return applier

    p35 = named("truncpoly-3", 5)
    reg = regular_bimodule(p35)
    kernels = [(t, entry) for t in (EvenBilinear, EvenMap)
               for entry in ("_table_applier", "_poly_applier")]
    with contextlib.ExitStack() as stack:
        for t, entry in kernels:
            stack.enter_context(mock.patch.object(t, entry, counting(entry, getattr(t, entry))))
        for options in (dict(kind="rota-baxter", weight=0), dict(kind="o-operator", bimodule=reg)):
            found = set()
            for budget in (2, 12000):
                compiled.clear()
                res = search_operators(p35, budget=budget, **options)
                found.add(len(res.found))
                tensors = fixed_tensors(p35, options.get("bimodule"))
                assert compiled == {("_poly_applier", id(t)): 1 for t in tensors}, options
            assert min(found) >= 1 and max(found) >= 40, options


def test_a_search_files_the_twist_group():
    # Under a twist swapping t and t^2 on truncpoly-3, R(t) = t^2 is a
    # weight-0 Rota-Baxter operator that fails only to commute with the
    # twist: the search of the untwisted instance finds it, and that of the
    # twisted one must not.  Over F_5 the brute force takes a prefix, the
    # whole space being 5^9 maps.
    for p, budget in ((3, None), (5, 3000)):
        a = named("truncpoly-3", p)
        s = a.space
        twisted = HomAlgebra(a.mu, EvenMap.from_entries(s, s, [(0, 0, 1), (1, 2, 1), (2, 1, 1)]))
        earlier = EvenMap.from_entries(s, s, [(2, 1, 1)])
        spec = OperatorSpec("rota-baxter", earlier, weight=s.field.coerce(0))
        assert check_operator(spec, a).passed
        assert check_operator(spec, twisted).identity == "twist-commuting"
        hits, size = brute_force(twisted, "rota-baxter", 0, budget=budget)
        assert_prefix_agrees(twisted, "rota-baxter", 0, budget, hits, size)
        assert earlier in search_operators(a, "rota-baxter", weight=0).found
        assert earlier not in search_operators(twisted, "rota-baxter", weight=0).found
