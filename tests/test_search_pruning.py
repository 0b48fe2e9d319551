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
import re
import types
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
from superalt import laws, operators
from superalt.laws import REFERENCE
from conftest import from_rows
from superalt.operators import (
    _backtrack,
    _even_positions,
    _o_operator_groups,
    _operator_groups,
    _SearchStats,
    _signed_counter,
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


SIGNED = [("truncpoly-3", 5), ("l1-p3", 3)]
SIGNED_KINDS = [("endomorphism", None), ("rota-baxter", 0), ("rota-baxter", 1), ("averaging", None)]


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


def rechecked(record):
    """Patch operators._groups so that record gets every map whose groups
    are built on a table binder: the re-check builds them there, the walk
    on the polynomial binder."""
    groups = operators._groups

    def recording(kind, a, m, w, bimodule):
        build = groups(kind, a, m, w, bimodule)

        def on(bind):
            if type(bind) is laws._Tables:
                record.append(m)
            return build(bind)

        return on

    return mock.patch.object(operators, "_groups", recording)


def test_a_signed_search_checks_only_the_maps_it_finds():
    a = named("l1-p3", 3)
    calls = []
    for kind, weight in SIGNED_KINDS:
        for budget in (None, 1000):
            calls.clear()
            with rechecked(calls):
                res = search_operators(a, kind, weight=weight, budget=budget, signed_perms=True)
            assert calls == res.found, (kind, budget)
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


def spied_rechecks(runs, fixed):
    """Patch operators._run_groups so that runs gets (binder, groups,
    report) for each re-check, and every identity of its groups asserts, as
    the scan enters a found map's block, that no other map's memo holds an
    entry; the maps are those bound on the binder but the fixed tensors."""
    run_groups = operators._run_groups

    def spied(law, build, tables, *args):
        def watched(bind):
            groups = build(bind)
            if bind is not tables:
                return groups
            appliers = [t for t, _ in tables.bound.values() if all(t is not f for f in fixed)]
            entered = [None]

            def watch(fn):
                def f(pts):
                    r = fn(pts)
                    if pts[0] is not entered[0]:
                        entered[0] = pts[0]
                        held = [m for m in appliers if tables(m).cache_info().currsize]
                        assert held in ([], [appliers[pts[0][0]]]), pts[0]
                    return r

                return f

            runs.append([tables, groups, None])
            return [(slots, [(name, watch(fn)) for name, fn in idfns]) for slots, idfns in groups]

        report = run_groups(law, watched, tables, *args)
        runs[-1][2] = report
        return report

    return mock.patch.object(operators, "_run_groups", spied)


def test_found_maps_are_rechecked_as_fresh_checks_on_one_binder():
    """One scan per search checks the found maps again, on one binder: each
    group of the kind, with a leading slot over the maps in counter order,
    so every map is evaluated at every tuple of every group of its own
    check_operator, whose counts add up to the scan's.  The exhaustive
    averaging search on l1-p3 has 791 maps: its group of 791 x 36 pairs is
    above CONTRACT_MIN_TUPLES, and is scanned."""
    for a, options in rechecked_searches():
        runs = []
        fixed = fixed_tensors(a, options.get("bimodule"))
        contract = mock.Mock(side_effect=AssertionError("a re-check group was contracted"))
        with spied_rechecks(runs, fixed), mock.patch.object(laws, "_contract", contract):
            res = search_operators(a, **options)
        assert res.found, options
        ((tables, groups, report),) = runs
        assert report.passed
        lead = tuple((i, 0) for i in range(len(res.found)))
        assert [slots[0] for slots, _ in groups] == [lead] * len(groups)
        # the binder holds the tensors every map shares, and each found map, once
        held = [t for t, *_ in tables.bound.values()]
        assert set(map(id, held)) == set(map(id, fixed)) | set(map(id, res.found))
        assert len(tables.memos) == len(held)
        assert all(tables(f).cache_info().currsize == 0 for f in res.found)
        kind = options["kind"]
        w = a.space.field.coerce(options["weight"]) if "weight" in options else None
        fresh = [check_operator(OperatorSpec(kind, f, weight=w, bimodule=options.get("bimodule")), a)
                 for f in res.found]
        assert all(rep.passed for rep in fresh), options
        assert report.checked == sum(rep.checked for rep in fresh), options
        if options["kind"] == "averaging":
            assert math.prod(map(len, groups[0][0])) == 791 * 36 > laws.CONTRACT_MIN_TUPLES


def test_every_recheck_of_a_search_reports_its_own_build_seconds(caplog, monkeypatch):
    """A search checks its found maps again in one scan, which writes one
    line per group, not one per map: each line gives the seconds of the
    re-check's own build calls, on a clock that advances by 1 at each read
    the same on every line and in every search, not a total that grows."""
    ticks = itertools.count()
    monkeypatch.setattr(laws, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    p35 = named("truncpoly-3", 5)
    for budget in (2000, 10000):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="superalt"):
            res = search_operators(p35, "rota-baxter", weight=0, budget=budget)
        lines = [r.getMessage() for r in caplog.records if " group " in r.getMessage()]
        built = [re.search(r"tables built in (\S+) s", line).group(1) for line in lines]
        tuples = [int(re.search(r"scan: (\d+) tuples", line).group(1)) for line in lines]
        assert len(res.found) > 1 and len(built) == 2
        assert set(built) == {"1.000000"}
        assert tuples == [len(res.found) * 9, len(res.found) * 3]


def test_a_scan_takes_its_memo_census_only_for_a_printed_line(caplog):
    """The memo entries a scanned group's DEBUG line reports are counted
    only while the line prints: with DEBUG off, a search's re-check never
    reads its binder's memos; with DEBUG on, it reads them once per group."""

    class Census(list):
        reads = 0

        def __iter__(self):
            Census.reads += 1
            return super().__iter__()

    class Tables(laws._Tables):
        def __init__(self, field):
            super().__init__(field)
            self.memos = Census()

    p35 = named("truncpoly-3", 5)
    with mock.patch.object(operators, "_Tables", Tables):
        assert search_operators(p35, "rota-baxter", weight=0, budget=2000).found
        assert Census.reads == 0
        with caplog.at_level(logging.DEBUG, logger="superalt"):
            search_operators(p35, "rota-baxter", weight=0, budget=2000)
        assert Census.reads == 2


def test_a_search_compiles_the_instance_tensors_once():
    # one compile on the polynomial binder that files the equations (its
    # fused kernel, _poly_applier), one on the binder that checks the found
    # maps again (_table_applier), however many they are
    compiled = collections.Counter()

    def counting(original):
        def applier(self):
            compiled[id(self)] += 1
            return original(self)

        return applier

    p35 = named("truncpoly-3", 5)
    reg = regular_bimodule(p35)
    kernels = [(t, entry) for t in (EvenBilinear, EvenMap)
               for entry in ("_table_applier", "_poly_applier")]
    with contextlib.ExitStack() as stack:
        for t, entry in kernels:
            stack.enter_context(mock.patch.object(t, entry, counting(getattr(t, entry))))
        for options in (dict(kind="rota-baxter", weight=0), dict(kind="o-operator", bimodule=reg)):
            found = set()
            for budget in (2, 12000):
                compiled.clear()
                res = search_operators(p35, budget=budget, **options)
                found.add(len(res.found))
                tensors = fixed_tensors(p35, options.get("bimodule"))
                assert [compiled[id(t)] for t in tensors] == [2] * len(tensors), options
                assert all(compiled[id(f)] == 1 for f in res.found)
            assert min(found) >= 1 and max(found) >= 40, options


def test_a_search_checks_every_survivor_again():
    # with no polynomial filed, every candidate survives the walk, so the
    # re-check alone must refuse the first map that is not an operator
    p35 = named("truncpoly-3", 5)
    reg = regular_bimodule(p35)
    searches = [
        (dict(kind="rota-baxter", weight=0), enumerate_even_maps(p35.space)),
        (dict(kind="o-operator", bimodule=reg), enumerate_even_maps(reg.module, p35.space)),
        (dict(kind="endomorphism", signed_perms=True),
         enumerate_signed_permutation_maps(p35.space)),
    ]

    def nothing(groups, steps, nsteps, p):
        return [[] for _ in range(nsteps + 1)]

    for options, candidates in searches:
        w = p35.space.field.coerce(options["weight"]) if "weight" in options else None
        first = next(
            f for f in candidates
            if not check_operator(OperatorSpec(options["kind"], f, weight=w,
                                               bimodule=options.get("bimodule")), p35).passed
        )
        with mock.patch.object(operators, "_file_polynomials", nothing):
            with pytest.raises(RuntimeError, match="survives the pruned search") as err:
                search_operators(p35, budget=1000, **options)
        assert f"map {first.entries} survives" in str(err.value), options

    # The re-check scans the equation group of every survivor before any
    # twist group, so its first failure may be a later map's: the error
    # names the first map, in counter order, that fails its own check, with
    # that check's identity and witness.  Under a twist swapping t and t^2,
    # the earlier survivor R(t) = t^2 is a weight-0 Rota-Baxter operator
    # that fails only to commute with it; the later R(t^2) = t^2 fails the
    # equation.
    s = p35.space
    twisted = HomAlgebra(p35.mu, EvenMap.from_entries(s, s, [(0, 0, 1), (1, 2, 1), (2, 1, 1)]))
    earlier = EvenMap.from_entries(s, s, [(2, 1, 1)])
    later = EvenMap.from_entries(s, s, [(2, 2, 1)])
    w = s.field.coerce(0)
    reports = [check_operator(OperatorSpec("rota-baxter", f, weight=w), twisted)
               for f in (earlier, later)]
    assert [rep.identity for rep in reports] == ["twist-commuting", "equation"]

    def survivors(by_step, radices, p, limit, stats, bind=None):
        for f in (earlier, later):
            yield tuple(f.entries[i][j].val for i, j in _even_positions(s, s))

    with mock.patch.object(operators, "_backtrack", survivors):
        with pytest.raises(RuntimeError) as err:
            search_operators(twisted, "rota-baxter", weight=0)
    assert str(err.value) == (f"rota-baxter: map {earlier.entries} survives the pruned search, "
                              f"but its check fails with twist-commuting at {reports[0].witness}")

    # each found map's memo is emptied as the scan leaves the map's block,
    # the last one included: after a search the binder holds none of their
    # entries
    runs = []
    with spied_rechecks(runs, fixed_tensors(p35, None)):
        res = search_operators(p35, "rota-baxter", weight=0, budget=1000)
    ((tables, _, report),) = runs
    assert report.passed and len(res.found) > 1
    assert all(tables(f).cache_info().currsize == 0 for f in res.found)
