"""Law and bimodule checks against nested-loop scans of the reference
closures.

The checks evaluate on compiled structure tables, each scan group either by
the tuple scan or by contraction on generic points, as laws._evaluation
rules.  The references below walk basis tuples in scan order through the
Vector closures of `law_identities` and the hand-written bimodule axioms of
`bimodule_references`, count every tuple they evaluate and stop at the
first nonzero residual.  Every check runs with each group forced onto each
path (the contraction once with whole parity runs of slot 0 per slice and
once with one index per slice), and every LawReport field must agree with the
reference: on corpus instances that pass, on single-entry perturbations of
them, on random small instances over Q (integral and non-integral
constants), F_3 and F_5, and on dim-0 and odd-only spaces.
"""

import io
import itertools
import json
import logging
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from superalt import (
    CALIBRATED_PBM_VARIANT,
    JORDAN_CYCLES,
    PRE_LAWS,
    PRODUCT_LAWS,
    AltBimodule,
    EvenBilinear,
    EvenMap,
    HomAlgebra,
    HomPreAlgebra,
    HypothesisError,
    LawReport,
    OperatorSpec,
    PbmVariant,
    PreBimodule,
    PrimeField,
    QQ,
    SuperSpace,
    Vector,
    check_alt_bimodule,
    check_morphism,
    check_o_operator,
    check_operator,
    check_pre_bimodule,
    check_pre_law,
    check_product_law,
    grassmann1,
    grassmann1_twisted,
    integration,
    law_identities,
    matrix_algebra,
    o_induced,
    octonions,
    perturb_bilinear,
    plus_jordan,
    pre_associator,
    rb_induced_bimodules,
    reduce_instance,
    regular_bimodule,
    search_operators,
    standard_pre_instances,
    tensor_alt,
    truncpoly,
    zero,
)
from superalt import laws as engine
from superalt.bimodules import _bimodule_axioms
from superalt.cli import main
from superalt.io import object_to_doc, save
from bimodule_references import alt_references, pre_references
from conftest import forced, from_rows

F3, F5 = PrimeField(3), PrimeField(5)
# "Q" draws integral constants, "Q/2" halves and thirds as well
FIELD_KINDS = ("Q", "Q/2", F3, F5)
VARIANTS = [PbmVariant(s, inner) for s in (1, -1) for inner in ("prec", "circ")]


# -- random instances --------------------------------------------------


def field_of(kind):
    return QQ if kind in ("Q", "Q/2") else kind


def rand_scalar(rng, kind):
    if kind == "Q":
        return Fraction(rng.randint(-2, 2))
    if kind == "Q/2":
        return Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
    return kind.coerce(rng.randint(0, kind.p - 1))


def rand_space(rng, kind, max_dim=3):
    while True:
        n0, n1 = rng.randint(0, 2), rng.randint(0, 2)
        if 1 <= n0 + n1 <= max_dim:
            return SuperSpace(field_of(kind), n0, n1)


def rand_map(rng, kind, dom, cod, density=0.6):
    if rng.random() < 0.3:  # a scalar twist keeps many laws passing
        return EvenMap.diagonal(dom, [rand_scalar(rng, kind)] * dom.dim)
    z = dom.field.zero
    return from_rows(dom, cod, [
        [rand_scalar(rng, kind) if cod.parity(i) == dom.parity(j) and rng.random() < density
         else z for j in dom.indices()]
        for i in cod.indices()
    ])


def rand_bilinear(rng, kind, left, right, out, density=0.4):
    entries = [
        (i, j, k, rand_scalar(rng, kind))
        for i in left.indices() for j in right.indices() for k in out.indices()
        if out.parity(k) == (left.parity(i) + right.parity(j)) % 2 and rng.random() < density
    ]
    return EvenBilinear.from_entries(left, right, out, entries)


def rand_cell(rng, t):
    """A parity-allowed cell of t."""
    while True:
        i, j, k = (rng.randrange(s.dim) for s in (t.left, t.right, t.out))
        if t.out.parity(k) == (t.left.parity(i) + t.right.parity(j)) % 2:
            return i, j, k


def perturbed(rng, kind, t):
    delta = rand_scalar(rng, kind) or t.left.field.one
    return perturb_bilinear(t, rand_cell(rng, t), delta)


def corpus_algebras(field):
    l1 = grassmann1(field)
    return [
        zero(2, 1, field),
        l1,
        grassmann1_twisted(field),
        truncpoly(3, field),
        tensor_alt(l1, truncpoly(2, field)),
        octonions(field),
        matrix_algebra(2, field),
    ]


# -- nested-loop references --------------------------------------------


def ref_scan(law, groups, extra=None):
    """groups: [(slot spaces, [(name, fn), ...])] in scan order."""
    checked = 0
    for spaces, idfns in groups:
        for idx in itertools.product(*(s.indices() for s in spaces)):
            pts = tuple((Vector.basis(s, i), s.parity(i)) for s, i in zip(spaces, idx))
            checked += 1
            for name, fn in idfns:
                r = fn(pts)
                if not r.is_zero():
                    parities = tuple(p for _, p in pts)
                    return LawReport(law, False, checked, idx, parities, name, r.coords,
                                     dict(extra or {}))
    return LawReport(law, True, checked, extra=dict(extra or {}))


def arity_runs(space, identities):
    runs = []
    for name, arity, fn in identities:
        if runs and len(runs[-1][0]) == arity:
            runs[-1][1].append((name, fn))
        else:
            runs.append(([space] * arity, [(name, fn)]))
    return runs


def ref_census(p):
    s = p.space
    e = [Vector.basis(s, i) for i in s.indices()]
    cases = []
    for i in s.indices_of_parity(1):
        for j in s.indices():
            cases.append(("diag-succ", i, j, pre_associator(p, 1, e[i], e[i], e[j])))
    for j in s.indices_of_parity(1):
        for i in s.indices():
            cases.append(("diag-prec", i, j, pre_associator(p, 3, e[i], e[j], e[j])))
    nonzero = [[name, i, j] for name, i, j, r in cases if not r.is_zero()]
    info = {"checked": len(cases), "nonzero": len(nonzero)}
    if nonzero:
        info["first"] = nonzero[0]
    return info


def ref_product_law(a, law, cycle=None):
    ids = law_identities(a, law, cycle)
    extra = {"jordan_cycle": cycle or "xyt"} if law == "hom-jordan" else None
    return ref_scan(law, arity_runs(a.space, ids), extra)


def ref_pre_law(p, law):
    extra = {"odd_diagonal": ref_census(p)} if law == "hom-prealternative" else None
    return ref_scan(law, arity_runs(p.space, law_identities(p, law)), extra)


def bimodule_groups(m, identities):
    a = m.base.space
    return [([a, a, m.module], [(name, fn) for name, _, fn, *_ in identities])]


def ref_alt_bimodule(m):
    base = ref_product_law(m.base, "hom-alternative")
    if not base.passed:
        return base
    return ref_scan("alt-bimodule", bimodule_groups(m, alt_references(m)))


def ref_pre_bimodule(m, variant):
    base = ref_pre_law(m.base, "hom-prealternative")
    if not base.passed:
        return base
    extra = {"variant": {"pbm2_sign": variant.pbm2_sign, "pbm4_inner": variant.pbm4_inner}}
    return ref_scan("pre-bimodule", bimodule_groups(m, pre_references(m, variant)), extra)


# -- comparisons -------------------------------------------------------

# (path, contraction slice bound): the tuple scan; the contraction with its
# own slices, whole parity runs of slot 0 here; one slot-0 index per slice
PATHS = (("scan", None), ("contract", engine.CONTRACT_SLICE_TUPLES), ("contract", 1))


def outcome(check, *args, **kwargs):
    """A report, or the report a refusal carries."""
    try:
        return check(*args, **kwargs)
    except HypothesisError as exc:
        return exc.report


def expect(ref, check, *args, **kwargs):
    """check(*args, **kwargs) gives the report ref on every path."""
    for path in PATHS:
        with forced(*path):
            assert outcome(check, *args, **kwargs) == ref, path


def compare_product(a, laws=PRODUCT_LAWS, max_jordan_dim=4):
    for law in laws:
        if law != "hom-jordan":
            expect(ref_product_law(a, law), check_product_law, a, law)
        elif a.space.dim <= max_jordan_dim:
            for cycle in JORDAN_CYCLES:
                expect(ref_product_law(a, law, cycle), check_product_law, a, law,
                       jordan_cycle=cycle)


def compare_pre(p):
    for law in PRE_LAWS:
        expect(ref_pre_law(p, law), check_pre_law, p, law)


def compare_alt_bimodule(m):
    expect(ref_alt_bimodule(m), check_alt_bimodule, m)


def compare_pre_bimodule(m):
    for variant in VARIANTS:
        expect(ref_pre_bimodule(m, variant), check_pre_bimodule, m, variant)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(FIELD_KINDS))
def test_random_product_laws_match_reference(seed, kind):
    rng = random.Random(seed)
    space = rand_space(rng, kind)
    a = HomAlgebra(rand_bilinear(rng, kind, space, space, space), rand_map(rng, kind, space, space))
    compare_product(a, max_jordan_dim=3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(FIELD_KINDS))
def test_random_pre_laws_match_reference(seed, kind):
    rng = random.Random(seed)
    space = rand_space(rng, kind)
    prec, succ = (rand_bilinear(rng, kind, space, space, space) for _ in range(2))
    compare_pre(HomPreAlgebra(prec, succ, rand_map(rng, kind, space, space)))


def test_corpus_product_laws_and_perturbations_match_reference():
    rng = random.Random(5)
    for kind in FIELD_KINDS:
        for a in corpus_algebras(field_of(kind)):
            compare_product(a)
            for _ in range(2):
                compare_product(HomAlgebra(perturbed(rng, kind, a.mu), a.alpha))


def test_jordan_cycles_on_plus_algebras_match_reference():
    rng = random.Random(7)
    for kind in FIELD_KINDS:
        field = field_of(kind)
        for a in (plus_jordan(grassmann1_twisted(field)), plus_jordan(matrix_algebra(2, field))):
            compare_product(a, ("super-commutative", "hom-jordan"))
            bent = HomAlgebra(perturbed(rng, kind, a.mu), a.alpha)
            compare_product(bent, ("super-commutative", "hom-jordan"))


def test_corpus_pre_laws_and_perturbations_match_reference():
    rng = random.Random(11)
    for kind in FIELD_KINDS:
        for p in standard_pre_instances(field_of(kind)):
            compare_pre(p)
            for which in ("prec", "succ"):
                prec = perturbed(rng, kind, p.prec) if which == "prec" else p.prec
                succ = perturbed(rng, kind, p.succ) if which == "succ" else p.succ
                compare_pre(HomPreAlgebra(prec, succ, p.alpha))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(FIELD_KINDS))
def test_alt_bimodules_match_reference(seed, kind):
    rng = random.Random(seed)
    bases = corpus_algebras(field_of(kind))[:5]
    a = rng.choice(bases)
    m = regular_bimodule(a)
    compare_alt_bimodule(m)
    compare_alt_bimodule(AltBimodule(a, m.beta, perturbed(rng, kind, m.lsucc), m.rprec))
    compare_alt_bimodule(AltBimodule(a, m.beta, m.lsucc, perturbed(rng, kind, m.rprec)))
    v = rand_space(rng, kind, max_dim=2)
    compare_alt_bimodule(AltBimodule(
        a, rand_map(rng, kind, v, v),
        rand_bilinear(rng, kind, a.space, v, v), rand_bilinear(rng, kind, v, a.space, v),
    ))
    # a base that fails hom-alternative: both refuse with the same report
    space = rand_space(rng, kind)
    bad = HomAlgebra(rand_bilinear(rng, kind, space, space, space), rand_map(rng, kind, space, space))
    compare_alt_bimodule(regular_bimodule(bad))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(FIELD_KINDS))
def test_pre_bimodules_match_reference(seed, kind):
    rng = random.Random(seed)
    pres = standard_pre_instances(field_of(kind))
    p = rng.choice([pres[0], pres[2]])
    m = regular_bimodule(p)
    compare_pre_bimodule(m)
    acts = [m.lprec, m.rprec, m.lsucc, m.rsucc]
    at = rng.randrange(4)
    acts[at] = perturbed(rng, kind, acts[at])
    compare_pre_bimodule(PreBimodule(p, m.beta, *acts))
    v = rand_space(rng, kind, max_dim=2)
    a = p.space
    compare_pre_bimodule(PreBimodule(
        p, rand_map(rng, kind, v, v),
        rand_bilinear(rng, kind, a, v, v), rand_bilinear(rng, kind, v, a, v),
        rand_bilinear(rng, kind, a, v, v), rand_bilinear(rng, kind, v, a, v),
    ))
    # a base that fails hom-prealternative: both refuse with the same report
    bent = HomPreAlgebra(perturbed(rng, kind, p.prec), p.succ, p.alpha)
    compare_pre_bimodule(regular_bimodule(bent))


def test_a_pre_bimodule_failing_first_at_pbm3_on_odd_x_and_v_matches_reference():
    """pbm3's sign (-1)^(|x||v|) shows only where x and v are both odd, which
    the drawn modules above never reach first.  Over a mixed-parity base
    with zero products, this module's first failure is pbm3 at odd (x, y, v):
    rprec(f_1, e_1) = -f_0 and lsucc(e_1, f_0) = f_2 leave the term
    -(-1)^(|x||v|) lsucc(alpha(x), rprec(v, y)) alone there."""
    for kind in FIELD_KINDS:
        field = field_of(kind)
        a, v = SuperSpace(field, 1, 1), SuperSpace(field, 1, 2)
        nothing = EvenBilinear.zero(a, a, a)
        base = HomPreAlgebra(nothing, nothing, EvenMap.identity(a))
        m = PreBimodule(
            base, EvenMap.identity(v), EvenBilinear.zero(a, v, v),
            EvenBilinear.from_entries(v, a, v, [(1, 1, 0, field.coerce(-1))]),
            EvenBilinear.from_entries(a, v, v, [(1, 0, 2, field.one)]), EvenBilinear.zero(v, a, v),
        )
        report = check_pre_bimodule(m)
        assert (report.identity, report.witness, report.witness_parities) == (
            "pbm3", (1, 1, 1), (1, 1, 1))
        assert report.residual == (0, 0, field.coerce(-1))
        compare_pre_bimodule(m)


def test_six_dimensional_pre_bimodule_matches_reference():
    rng = random.Random(13)
    for kind in ("Q/2", F5):
        p = standard_pre_instances(field_of(kind))[1]
        m = regular_bimodule(p)
        expect(ref_pre_bimodule(m, CALIBRATED_PBM_VARIANT), check_pre_bimodule, m)
        bent = PreBimodule(p, m.beta, m.lprec, perturbed(rng, kind, m.rprec), m.lsucc, m.rsucc)
        compare_pre_bimodule(bent)


def test_dim_zero_and_odd_only_spaces_match_reference():
    """Groups with an empty slot, and slots with one parity run only."""
    rng = random.Random(17)
    for kind in FIELD_KINDS:
        field = field_of(kind)
        for dims in ((0, 0), (0, 1), (0, 3)):
            space = SuperSpace(field, *dims)
            a = HomAlgebra(EvenBilinear.zero(space, space, space), rand_map(rng, kind, space, space))
            compare_product(a)
            compare_pre(HomPreAlgebra(a.mu, a.mu, a.alpha))
            compare_alt_bimodule(regular_bimodule(a))
        base = grassmann1(field)
        for dims in ((0, 0), (0, 2)):
            v = SuperSpace(field, *dims)
            compare_alt_bimodule(AltBimodule(
                base, rand_map(rng, kind, v, v),
                rand_bilinear(rng, kind, base.space, v, v, density=0.8),
                rand_bilinear(rng, kind, v, base.space, v, density=0.8),
            ))
        p = standard_pre_instances(field)[0]
        v = SuperSpace(field, 0, 2)
        acts = [rand_bilinear(rng, kind, *spaces, density=0.8)
                for spaces in ((p.space, v, v), (v, p.space, v)) * 2]
        compare_pre_bimodule(PreBimodule(p, rand_map(rng, kind, v, v), *acts))


def path_lines(caplog, fn):
    """(law, path) of each scan-group DEBUG line logged while fn runs."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="superalt"):
        fn()
    return [tuple(re.match(r"(\S+) group \d+/\d+: (\w+):", r.getMessage()).groups())
            for r in caplog.records if r.name == "superalt"]


def test_rule_contracts_the_jordan_group_and_scans_small_groups(caplog):
    l1_oct = tensor_alt(grassmann1(), octonions())
    jordan = plus_jordan(l1_oct)
    rep = check_product_law(jordan, "hom-jordan")
    assert rep.passed and rep.checked == 16**2 + 16**4
    # super-commutativity on 256 pairs, then 65 536 sparse 4-tuples
    assert path_lines(caplog, lambda: check_product_law(jordan, "hom-jordan")) == [
        ("hom-jordan", "scan"), ("hom-jordan", "contract")]
    with forced("scan"):
        assert check_product_law(jordan, "hom-jordan") == rep
    # an early failure in a group below the bound
    oct_ = octonions()
    bent = HomAlgebra(perturb_bilinear(oct_.mu, (1, 2, 3), 1), oct_.alpha)
    assert not check_product_law(bent, "hom-alternative").passed
    lines = path_lines(caplog, lambda: check_product_law(bent, "hom-alternative"))
    assert lines == [("hom-alternative", "scan")]
    rng = random.Random(19)
    for kind in FIELD_KINDS:
        space = rand_space(rng, kind)
        a = HomAlgebra(rand_bilinear(rng, kind, space, space, space),
                       rand_map(rng, kind, space, space))
        p = HomPreAlgebra(rand_bilinear(rng, kind, space, space, space), a.mu, a.alpha)
        lines = path_lines(caplog, lambda: (
            [check_product_law(a, law) for law in PRODUCT_LAWS],
            [check_pre_law(p, law) for law in PRE_LAWS],
            outcome(check_alt_bimodule, regular_bimodule(a)),
            outcome(check_pre_bimodule, regular_bimodule(p)),
        ))
        assert lines and {path for _, path in lines} == {"scan"}


def test_contraction_stops_at_the_slice_of_the_first_failure(caplog):
    l1_oct = tensor_alt(grassmann1(), octonions())
    bent = HomAlgebra(perturb_bilinear(l1_oct.mu, (1, 2, 3), 1), l1_oct.alpha)
    rep = check_product_law(bent, "hom-alternative")
    assert not rep.passed and rep.witness[0] == 1 and bent.space.dims == (8, 8)
    # slot 0 in slices of its even run and its odd run, then of one index each
    for slice_tuples, slices in ((engine.CONTRACT_SLICE_TUPLES, 1), (1, rep.witness[0] + 1)):
        caplog.clear()
        with forced("contract", slice_tuples), caplog.at_level(logging.DEBUG, logger="superalt"):
            assert check_product_law(bent, "hom-alternative") == rep
        [line] = [r.getMessage() for r in caplog.records if r.name == "superalt"]
        assert f": contract: {rep.checked} tuples in " in line
        assert f"; {slices} slices, " in line


def test_a_full_memo_never_exceeds_the_limit_and_keeps_its_newest_key(monkeypatch):
    """At MEMO_LIMIT entries a memo of either binder evicts to store the
    next, and does not freeze: on either path the reports stay as they are,
    no memo holds more than the limit, some memo is full when it misses, and
    the last key each memo stored after a contraction last cleared it is in
    it at the end (a call with it hits)."""
    l1_oct = tensor_alt(grassmann1(), octonions())
    bent = HomAlgebra(perturb_bilinear(l1_oct.mu, (1, 2, 3), 1), l1_oct.alpha)
    pre, jordan = standard_pre_instances()[1], plus_jordan(tensor_alt(grassmann1(), truncpoly(2)))
    checks = [
        lambda: check_product_law(l1_oct, "hom-alternative"),
        lambda: check_product_law(bent, "hom-alternative"),
        lambda: check_product_law(jordan, "hom-jordan"),
        lambda: check_pre_law(pre, "hom-prealternative"),
        lambda: check_pre_bimodule(regular_bimodule(standard_pre_instances()[0])),
    ]
    limit, last, sizes, memos = 16, {}, [], []
    memoised = engine._Tables.memoised  # _Polynomials.memoised reaches it through super()

    def spy(binder, fn):
        def missed(*args):  # a miss: the memo's size before it stores the result
            memo = memos[at]
            sizes.append(memo.cache_info().currsize)
            last[id(memo)] = memo, args
            return fn(*args)

        at = len(memos)
        memos.append(memoised(binder, missed))
        return memos[at]

    for path in ("scan", "contract"):
        with forced(path):
            expected = [check() for check in checks]
            last.clear(), sizes.clear(), memos.clear()
            with monkeypatch.context() as m:
                m.setattr(engine, "MEMO_LIMIT", limit)
                m.setattr(engine._Tables, "memoised", spy)
                assert [check() for check in checks] == expected, path
        assert max(sizes) == limit, path
        assert max(memo.cache_info().currsize for memo in memos) == limit, path
        # a memo that has missed since a contraction last cleared it holds its last key
        for memo, args in (v for v in last.values() if v[0].cache_info().misses):
            hits = memo.cache_info().hits
            memo(*args)
            assert memo.cache_info().hits == hits + 1, path


def test_every_engine_run_makes_one_table_binder(monkeypatch):
    """A check hands _run_groups its law and its build, and the engine makes
    the one table binder it scans on, whichever path its groups take: each
    law, morphism and operator check and each bimodule axiom scan makes one.
    A search makes none: it binds on a polynomial binder of its own."""
    made = []

    class Counted(engine._Tables):
        def __init__(self):
            super().__init__()
            made.append(self)

    def binders(run):
        made.clear()
        run()
        return len(made)

    monkeypatch.setattr(engine, "_Tables", Counted)
    a, p35, pre = octonions(), reduce_instance(truncpoly(3), 5), standard_pre_instances()[0]
    one = EvenMap.identity(p35.space)
    runs = {
        "hom-alternative": lambda: check_product_law(a, "hom-alternative"),
        "hom-jordan": lambda: check_product_law(plus_jordan(p35), "hom-jordan"),
        "pre law": lambda: check_pre_law(pre, "hom-prealternative"),
        "morphism": lambda: check_morphism(EvenMap.identity(a.space), a, a),
        "rota-baxter": lambda: check_operator(OperatorSpec("rota-baxter", one, weight=F5.zero), p35),
        "o-operator": lambda: check_o_operator(one, regular_bimodule(p35)),
        "alt axioms": lambda: _bimodule_axioms(regular_bimodule(a)),
        "pre axioms": lambda: _bimodule_axioms(regular_bimodule(pre), CALIBRATED_PBM_VARIANT),
    }
    for path in ("scan", "contract"):
        with forced(path):
            assert {name: binders(run) for name, run in runs.items()} == dict.fromkeys(runs, 1)
    assert binders(lambda: check_alt_bimodule(regular_bimodule(a))) == 2  # base law, then axioms
    assert binders(lambda: search_operators(p35, "rota-baxter", weight=0, budget=2000)) == 0


def bound(*tables):
    """A table binder with the given products and maps bound."""
    binder = engine._Tables()
    for t in tables:
        binder(t)
    return binder


def over(*sizes):
    """Slots over the basis points of spaces of the given dimensions."""
    return [engine._basis_points(SuperSpace(F5, n // 2, n - n // 2), engine._Tables.basis)
            for n in sizes]


def test_rule_reads_group_size_arity_and_table_fill():
    s = SuperSpace(F5, 8, 8)
    identity = EvenMap.identity(s)
    sparse = bound(EvenBilinear.zero(s, s, s), identity)  # fill 1: the twist's
    assert engine._evaluation(over(16, 16, 4), sparse) == "contract"
    assert engine._evaluation(over(3, 11, 31), sparse) == "scan"
    assert engine._evaluation(over(16, 16, 16, 16), sparse) == "contract"
    # two constants on the pairs (i, j) with i < 5, one elsewhere: fill 336/256,
    # so 1.72 terms per triple and 2.26 per 4-tuple against the bound of 2
    def outs(i, j):
        return [k for k in s.indices() if s.parity(k) == (s.parity(i) + s.parity(j)) % 2]

    mixed = EvenBilinear.from_entries(s, s, s, [
        (i, j, k, 1) for i in s.indices() for j in s.indices()
        for k in outs(i, j)[:2 if i < 5 else 1]
    ])
    assert engine._fill(mixed) == 336 / 256
    assert engine._evaluation(over(16, 16, 32), bound(mixed, identity)) == "contract"
    assert engine._evaluation(over(16, 16, 16, 16), bound(mixed, identity)) == "scan"
    # a twist with two entries in a column counts as well
    doubled = from_rows(s, s, [[F5.one if i in (j, j ^ 1) else F5.zero for j in s.indices()]
                              for i in s.indices()])
    assert engine._fill(doubled) == 2
    assert engine._evaluation(over(16, 16, 16, 16), bound(EvenBilinear.zero(s, s, s), doubled)) \
        == "scan"


def test_only_groups_over_basis_points_are_contracted():
    """Every slot the binders make ranges over basis points, so the rule
    takes no slot test: a slot over some of a space's basis points, as a
    bimodule's axiom group takes them, is contracted like a full one.  An
    empty slot, of a dim-0 space, ranges over basis points too; its group
    has no tuple and is scanned."""
    s = SuperSpace(F5, 8, 8)
    sparse = bound(EvenBilinear.zero(s, s, s), EvenMap.identity(s))
    points = over(16)[0]
    assert engine._evaluation([points[3:], points, points[::2]], sparse) == "contract"
    assert over(0)[0] == ()
    assert engine._evaluation([*over(0), points, points], sparse) == "scan"
    assert engine._evaluation([*over(16, 16), *over(0)] * 2, sparse) == "scan"


# -- exactness over Q --------------------------------------------------


def test_half_twist_is_not_multiplicative_with_its_exact_residual():
    """alpha(xy) - alpha(x) alpha(y) = xy/2 - xy/4 is not homogeneous in the
    twist: rescaling alpha to clear its denominator would make it vanish."""
    p3 = truncpoly(3)
    half = HomAlgebra(p3.mu, EvenMap.diagonal(p3.space, [Fraction(1, 2)] * 3))
    rep = check_product_law(half, "multiplicative")
    assert rep == ref_product_law(half, "multiplicative")
    assert not rep.passed and rep.witness == (0, 0)
    assert rep.residual == (Fraction(1, 4), 0, 0)


def test_non_integral_alternative_instance_fails_at_the_reference_witness():
    o = octonions()
    halved = HomAlgebra(o.mu.scaled(Fraction(1, 2)), o.alpha.scaled(Fraction(2, 3)))
    assert check_product_law(halved, "hom-alternative").passed
    bent = HomAlgebra(perturb_bilinear(halved.mu, (1, 2, 3), Fraction(1, 3)), halved.alpha)
    rep = check_product_law(bent, "hom-alternative")
    assert not rep.passed
    assert rep == ref_product_law(bent, "hom-alternative")
    assert any(v.denominator > 1 for v in rep.residual)


def test_fp_reports_match_the_reduced_rational_reports():
    a = HomAlgebra(perturb_bilinear(octonions().mu, (2, 3, 1), 2), octonions().alpha)
    for p in (3, 5):
        compare_product(reduce_instance(a, p), ("hom-alternative", "hom-flexible"))


# -- observability -----------------------------------------------------


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_debug_log_leaves_stdout_and_reports_unchanged(tmp_path, caplog):
    bent = HomAlgebra(perturb_bilinear(octonions().mu, (1, 2, 3), 1), octonions().alpha)
    runs = []
    for name, a in (("oct", octonions()), ("bent", bent)):
        path = tmp_path / f"{name}.json"
        save(object_to_doc(a), str(path))
        for law in ("hom-alternative", "hom-jordan"):
            runs.append(["check", str(path), "--law", law, "--jobs", "1"])
    # a check whose 4-tuple group is contracted
    jordan = tmp_path / "jordan.json"
    save(object_to_doc(plus_jordan(tensor_alt(grassmann1(), octonions()))), str(jordan))
    runs.append(["check", str(jordan), "--law", "hom-jordan", "--jobs", "1"])
    p35 = tmp_path / "p35.json"
    save(object_to_doc(reduce_instance(truncpoly(3), 5)), str(p35))
    runs.append(["search", str(p35), "--kind", "rota-baxter", "--budget", "2000"])
    quiet = [run_cli(argv) for argv in runs]
    assert not caplog.records
    assert all(err == "" for _, _, err in quiet)
    logger = logging.getLogger("superalt")
    with caplog.at_level(logging.DEBUG, logger="superalt"):
        loud = [run_cli(argv) for argv in runs]
    assert loud == quiet
    assert logger.level == logging.NOTSET
    for code, text, _ in quiet:
        json.loads(text.split("\n", 1)[1])
    lines = [r.getMessage() for r in caplog.records if r.name == "superalt"]
    searches = [line for line in lines if " search: " in line]
    scans = [line for line in lines if " search: " not in line]
    # oct: hom-alternative is one group, hom-jordan two (the second is
    # never reached once super-commutativity fails); bent the same; the
    # plus-algebra two
    assert len(scans) >= 6
    for line in scans:
        assert re.fullmatch(
            r"\S+ group \d+/\d+: (scan|contract): \d+ tuples in [\d.]+ s; \d+ evaluations; "
            r"tables built in [\d.]+ s; "
            r"(\d+ memo entries|\d+ slices, \d+ polynomial terms, \d+ shared)", line)
        assert (": scan: " in line) == line.endswith(" memo entries")
    assert [line.split(" in ")[0] for line in scans if ": contract: " in line] == [
        "hom-jordan group 2/2: contract: 65536 tuples"]
    # one line per search: its counts, bind time and walk time
    found = len(json.loads(quiet[-1][1].split("\n", 1)[1])["search"]["found"])
    assert len(searches) == 1
    assert re.fullmatch(
        r"rota-baxter search: \d+ polynomials bound in [\d.]+ s; \d+ nodes visited, "
        r"\d+ subtrees pruned, \d+ candidates disposed of by pruning, "
        rf"{found} found in [\d.]+ s",
        searches[0],
    )
    # -v writes the same log lines to stderr and leaves stdout alone
    verbose = [run_cli(argv + ["-v"]) for argv in runs]
    assert [out[:2] for out in verbose] == [out[:2] for out in quiet]
    assert logger.level == logging.NOTSET and not logger.handlers
    logged = [line for _, _, err in verbose for line in err.splitlines()]
    assert all(line.startswith("superalt: ") for line in logged)
    strip = [re.sub(r"[\d.]+ s\b", "t s", line) for line in lines]
    assert [re.sub(r"[\d.]+ s\b", "t s", line[len("superalt: "):]) for line in logged] == strip


def test_each_hypothesis_is_scanned_once(caplog):
    m, r = regular_bimodule(truncpoly(3)), integration(3)
    # o_induced reads its kernel and morphism reports off the o-operator check
    assert [law for law, _ in path_lines(caplog, lambda: o_induced(r, m))] == ["o-operator"] * 2
    # rb_split checks hom-alternative and rota-baxter; the alt axioms follow
    laws = [law for law, _ in path_lines(caplog, lambda: rb_induced_bimodules(m, r))]
    assert laws.count("hom-alternative") == 1
    assert laws.count("rota-baxter") == 2
    assert laws.count("alt-bimodule") == 1
