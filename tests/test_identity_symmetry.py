"""The slot symmetries that identity tables declare, and the evaluations the
scan and the contraction skip by them.

An identity (name, arity, fn, perm) declares that fn changes at most its
sign when its points are permuted by perm.  The checks then evaluate it only
at tuples least in their orbit, no image under a power of perm (listed by
laws._powers as the slot order it reads) being less (see laws._scan_range and
laws._contract), so a wrong declaration could hide a failure: every
declaration is evaluated here at every basis tuple and its image, on random
instances over Q, F_3 and F_5 with random twists, through the reference
closures.  The scan is checked to evaluate exactly the least tuples, over
whole groups and over the chunks a pool cuts.
"""

import itertools
import logging
import random
import re
from pathlib import Path

import pytest

from superalt import (
    JORDAN_CYCLES,
    PRE_LAWS,
    PRODUCT_LAWS,
    AltBimodule,
    HomAlgebra,
    HomPreAlgebra,
    PreBimodule,
    SuperSpace,
    Vector,
    check_alt_bimodule,
    check_pre_bimodule,
    check_product_law,
    grassmann1,
    octonions,
    plus_jordan,
    reduce_instance,
    regular_bimodule,
    standard_pre_instances,
    tensor_alt,
)
from superalt import laws as engine
from conftest import forced
from bimodule_references import derived_entries
from test_compiled_scan import F3, F5, VARIANTS, field_of, rand_bilinear, rand_map, rand_space

KINDS = ("Q", F3, F5)


def asymmetric(spaces, identities):
    """(name, tuple) of every declared symmetry that fails at a basis tuple:
    fn at the tuple's image under perm is neither fn nor -fn at the tuple."""
    bad = []
    for name, _, fn, *perm in identities:
        if not perm:
            continue
        (perm,) = perm
        for idx in itertools.product(*(s.indices() for s in spaces)):
            pts = tuple((Vector.basis(s, i), s.parity(i)) for s, i in zip(spaces, idx))
            r = fn(pts).coords
            image = fn(tuple(pts[s] for s in perm)).coords
            if image != r and image != tuple(-c for c in r):
                bad.append((name, idx))
                break
    return bad


def random_instances(rng, kind, dims=None, module_dims=None):
    """A product instance, a pre-instance, an alt-bimodule and a pre-bimodule
    with random constants and twists, on a random space or on the space of
    dims = (n0, n1), the modules on a random space or on that of module_dims."""
    s = rand_space(rng, kind) if dims is None else SuperSpace(field_of(kind), *dims)
    a = HomAlgebra(rand_bilinear(rng, kind, s, s, s, density=0.6), rand_map(rng, kind, s, s))
    p = HomPreAlgebra(rand_bilinear(rng, kind, s, s, s, density=0.6),
                      rand_bilinear(rng, kind, s, s, s, density=0.6), rand_map(rng, kind, s, s))
    v = (rand_space(rng, kind, max_dim=2) if module_dims is None
         else SuperSpace(field_of(kind), *module_dims))
    alt = AltBimodule(a, rand_map(rng, kind, v, v), rand_bilinear(rng, kind, s, v, v, density=0.6),
                      rand_bilinear(rng, kind, v, s, v, density=0.6))
    acts = [rand_bilinear(rng, kind, *spaces, density=0.6) for spaces in ((s, v, v), (v, s, v)) * 2]
    return a, p, alt, PreBimodule(p, rand_map(rng, kind, v, v), *acts)


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_declared_symmetries_hold_at_every_basis_tuple(kind):
    rng = random.Random(23)
    declared = set()
    # random spaces are mostly of one parity; a swap signed wrongly at mixed
    # parities shows on the (1, 2) and (2, 2) spaces
    for dims in [None] * 6 + [(1, 2), (2, 2)]:
        a, p, alt, pre = random_instances(rng, kind, dims)
        s, v = a.space, alt.module
        cases = [((s,) * 3, engine._identities(p, law, None, engine.REFERENCE)) for law in PRE_LAWS]
        for law in PRODUCT_LAWS:
            for cycle in JORDAN_CYCLES if law == "hom-jordan" else (None,):
                ids = engine._identities(a, law, cycle, engine.REFERENCE)
                for arity in {arity for _, arity, *_ in ids}:
                    cases.append(((s,) * arity, [e for e in ids if e[1] == arity]))
        cases.append(((s, s, v), derived_entries(alt)))
        cases += [((s, s, v), derived_entries(pre, variant)) for variant in VARIANTS]
        for spaces, ids in cases:
            assert asymmetric(spaces, ids) == []
            declared |= {name for name, _, _, *perm in ids if perm}
    assert declared == {
        "left-alt", "right-alt", "flex", "supercomm", "jordan", "pa5", "pa6",
        "left-1", "left-2", "left-3", "right-1", "right-2", "right-3",
        "flex-1", "flex-2", "flex-3", "abm3", "abm4", "pbm1", "pbm9",
    }


def jordan_entry(a, cycle):
    [entry] = [e for e in engine._identities(a, "hom-jordan", cycle, engine.REFERENCE)
               if e[0] == "jordan"]
    return entry


def test_jordan_declares_the_rotation_of_its_cycle():
    a = tensor_alt(grassmann1(), octonions())
    for cycle, perm in zip(JORDAN_CYCLES, ((1, 2, 0, 3), (1, 3, 2, 0), (2, 1, 3, 0))):
        assert jordan_entry(a, cycle)[3] == perm


def test_a_wrong_declaration_is_caught():
    rng = random.Random(29)
    a, p, _, _ = random_instances(rng, F5)
    while p.space.dim < 2:
        a, p, _, _ = random_instances(rng, F5)
    s = p.space
    pa3 = [(name, arity, fn, engine.SWAP_XY) for name, arity, fn, *_ in
           engine._identities(p, "hom-prealternative", None, engine.REFERENCE) if name == "pa3"]
    assert asymmetric((s,) * 3, pa3)
    # the rotation of the xyz cycle declared on the xyt cycle's jordan
    _, _, jordan, _ = jordan_entry(a, "xyt")
    assert asymmetric((s,) * 4, [("jordan", 4, jordan, (1, 2, 0, 3))])


def powers(perm):
    """The powers of perm but the identity."""
    out, q = [], tuple(perm)
    while q != tuple(range(len(perm))):
        out.append(q)
        q = tuple(q[s] for s in perm)
    return out


ZERO = engine._sparse_vector(0, 1)()


def scan_records(slots, perms, start, stop):
    """The (identity position, tuple) pairs, in order, at which
    laws._scan_range evaluates a group over [start, stop) of the tuples of
    slots, one recording identity per entry of perms, with that perm as its
    symmetry (none for None); the scan must count them as its evaluations."""
    evaluated = []

    def recorder(at):
        def fn(pts):
            evaluated.append((at, pts))
            return ZERO
        return fn

    idfns = [(f"id{at}", recorder(at), *([] if perm is None else [perm]))
             for at, perm in enumerate(perms)]
    assert engine._scan_range(slots, idfns, start, stop) == (None, len(evaluated))
    return evaluated


@pytest.mark.parametrize("perm", [(1, 0), (1, 0, 2), (0, 2, 1), (2, 1, 0),
                                  (1, 2, 0, 3), (1, 3, 2, 0), (2, 1, 3, 0), (1, 0, 3, 2)])
def test_least_run_is_the_range_of_tuples_least_in_their_orbit(perm):
    """The run of (identity, tuple) pairs the scan evaluates is, over any
    range of the tuples, exactly the pairs whose tuple is least in its orbit."""
    assert engine._powers(perm) == tuple(powers(perm))
    for n in (1, 2, 3, 4):
        slots = [tuple(range(n))] * len(perm)
        tuples = list(itertools.product(*slots))
        total = len(tuples)
        # the whole group, and the chunks between about ten cuts, most of them
        # mid-prefix, as the pool cuts them
        cuts = sorted({*range(0, total, max(1, total // 10)), total})
        for perms in ((perm,), (perm, None), (None, perm)):
            def expected(start, stop):
                return [(at, t) for t in tuples[start:stop] for at, p in enumerate(perms)
                        if p is None or all(t <= tuple(t[s] for s in q) for q in powers(p))]

            for start, stop in itertools.combinations(cuts, 2):
                assert scan_records(slots, perms, start, stop) == expected(start, stop)


def test_a_symmetry_is_used_only_between_slots_of_the_same_points():
    base, module = ("a", "b"), ("u", "v", "w")
    assert engine._images([base, base, module], engine.SWAP_XY) == ((1, 0, 2),)
    assert engine._images([base, base, module], engine.SWAP_YZ) is None
    assert engine._images([base] * 4, (1, 3, 2, 0)) == ((1, 3, 2, 0), (3, 0, 2, 1))
    assert engine._images([base] * 3) is None


def group_lines(caplog, law, fn):
    """(path, tuples, evaluations) of each DEBUG group line of law logged while fn runs."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="superalt"):
        fn()
    pattern = rf"{law} group \d+/\d+: (\w+): (\d+) tuples in [\d.]+ s; (\d+) evaluations; "
    return [(m[1], int(m[2]), int(m[3])) for m in
            (re.match(pattern, r.getMessage()) for r in caplog.records) if m]


def test_scans_skip_the_tuples_outside_the_least_of_each_orbit(caplog):
    l1_oct5 = reduce_instance(tensor_alt(grassmann1(), octonions()), 5)
    # left-alt at the 136 pairs x <= y, right-alt at the 136 pairs y <= z, times 16
    with forced("scan"):
        assert group_lines(caplog, "hom-alternative",
                           lambda: check_product_law(l1_oct5, "hom-alternative")) == [
            ("scan", 4096, 2 * 16 * 136)]
    # abm1 and abm2 at every triple (x, y, v), abm3 and abm4 at x <= y only
    oct_ = octonions()
    assert group_lines(caplog, "alt-bimodule",
                       lambda: check_alt_bimodule(regular_bimodule(oct_))) == [
        ("scan", 8 * 8 * 8, 2 * 8 * 8 * 8 + 2 * 36 * 8)]
    # pbm1 and pbm9 at x <= y only, the other eight at every triple
    p = standard_pre_instances()[0]
    n = p.space.dim
    assert group_lines(caplog, "pre-bimodule",
                       lambda: check_pre_bimodule(regular_bimodule(p))) == [
        ("scan", n ** 3, 8 * n ** 3 + 2 * n * (n + 1) // 2 * n)]
    # the contracted jordan group: slot 0 in its even and its odd run; in the
    # odd slice, slots 1 and 3 (slot 0's orbit under x -> y -> t) keep their
    # odd runs only, so 2 of its 8 blocks are evaluated
    jordan = plus_jordan(tensor_alt(grassmann1(), octonions()))
    assert group_lines(caplog, "hom-jordan", lambda: check_product_law(jordan, "hom-jordan")) == [
        ("scan", 16 ** 2, 16 * 17 // 2), ("contract", 16 ** 4, 8 + 2)]


def test_table_layouts_are_read_only_inside_core():
    src = Path(__file__).resolve().parent.parent / "src" / "superalt"
    readers = [path.name for path in src.glob("*.py") if path.name != "core.py"
               and re.search(r"\b_(rows|cols)\b", path.read_text())]
    assert readers == []


def test_io_reads_products_and_actions_only_through_the_declared_layouts():
    # each instance class declares PRODUCTS and each bimodule class ACTIONS;
    # documents are written and read from those, never by attribute name
    io_py = Path(__file__).resolve().parent.parent / "src" / "superalt" / "io.py"
    named = re.findall(r"\.(?:mu|prec|succ)\b|\b[lr](?:prec|succ)\b", io_py.read_text())
    assert named == []
