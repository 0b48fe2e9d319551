"""Bimodule axioms and o-operators against the split null extension.

M is a bimodule over A iff A x| M is in A's class: the space A + M, its
basis reordered even-first, with the product ab + a.v + u.b (the product of
two module elements vanishes) and the twist alpha + beta (Eilenberg,
"Extensions of general algebras", 1948; Schafer, "Representations of
alternative algebras", 1952).  So check_alt_bimodule(M) must give the
verdict of the hom-alternative check of A x| M, and check_pre_bimodule(M)
that of the hom-prealternative check, on each product the actions
extending it.  An even map T: M -> A is an o-operator iff its graph
{(T v, v)} is closed under the product and the twist of A x| M (Kupershmidt,
"What a classical r-matrix really is", 1999):
(T u + u)(T v + v) = T(u) T(v) + L(T u) v + R(T v) u lies in the graph iff
the o-operator equation holds at (u, v), and (alpha + beta)(T v + v) iff
alpha T v = T beta v.

The o-operator oracle shares no equation with the check it tests: it reads
only the instance laws and linear algebra.  The bimodule checks now
evaluate the same criterion themselves, each axiom read off the base law on
the checks' own A x| M (bimodules._DERIVATIONS), so here the two sides share
the criterion and the base law's entries; null_extension below stays an
independent construction of A x| M.  The weight of the bimodule oracle is
carried by tests/test_bimodule_derivation.py, which holds every derived
axiom to the axioms written out by hand.
"""

import random
from fractions import Fraction

import pytest

from superalt import (
    EvenBilinear,
    EvenMap,
    HomAlgebra,
    HomPreAlgebra,
    SuperSpace,
    Vector,
    check_alt_bimodule,
    check_o_operator,
    check_pre_bimodule,
    check_pre_law,
    check_product_law,
    corpus,
    grassmann1_twisted,
    matrix_algebra,
    perturb_bilinear,
    project_bimodule,
    rb_induced_bimodules,
    regular_bimodule,
    search_operators,
    solve_in_span,
    twist_bimodule,
)

# the products of A x| M: each instance product, extended by the actions
# whose values it gives on A x M and M x A
EXTENDS = {
    "mu": ("lsucc", "rprec"),
    "prec": ("lprec", "rprec"),
    "succ": ("lsucc", "rsucc"),
}


def placements(m):
    """The space of A x| M for a bimodule m, its basis that of A + M
    reordered as A even, M even, A odd, M odd, and the indices there of the
    basis vectors of A and of M."""
    a, v = m.base.space, m.module
    s = SuperSpace(a.field, a.even + v.even, a.odd + v.odd)
    at = [i if i < a.even else i + v.even for i in a.indices()]
    vt = [a.even + j if j < v.even else a.dim + j for j in v.indices()]
    return s, at, vt


def null_extension(m):
    """A x| M for a bimodule m (see placements)."""
    s, at, vt = placements(m)
    on = {"l": (at, vt, vt), "r": (vt, at, vt)}

    def moved(bil, left, right, out):
        return [(left[i], right[j], out[k], c) for i, j, k, c in bil.sparse_entries()]

    products = []
    for attr, _ in type(m.base).PRODUCTS:
        entries = moved(getattr(m.base, attr), at, at, at)
        for key in EXTENDS[attr]:
            entries += moved(getattr(m, key), *on[key[0]])
        products.append(EvenBilinear.from_entries(s, s, s, entries))
    twist = [(at[i], at[j], c) for i, j, c in m.base.alpha.sparse_entries()]
    twist += [(vt[i], vt[j], c) for i, j, c in m.beta.sparse_entries()]
    return type(m.base)(*products, EvenMap.from_entries(s, s, twist), name=f"{m.name}-null")


def verdicts(m):
    """(bimodule check, instance check of the null extension) verdicts."""
    if isinstance(m.base, HomAlgebra):
        return (check_alt_bimodule(m).passed,
                check_product_law(null_extension(m), "hom-alternative").passed)
    assert isinstance(m.base, HomPreAlgebra)
    return (check_pre_bimodule(m).passed,
            check_pre_law(null_extension(m), "hom-prealternative").passed)


def perturbed(m, rng, count):
    """count copies of m, each with one parity-allowed action entry moved by 1."""
    out = []
    for _ in range(count):
        key = rng.choice(type(m).ACTIONS)
        act = getattr(m, key)
        while True:
            i, j, k = (rng.randrange(sp.dim) for sp in (act.left, act.right, act.out))
            if (act.left.parity(i) + act.right.parity(j)) % 2 == act.out.parity(k):
                break
        actions = {name: getattr(m, name) for name in type(m).ACTIONS}
        actions[key] = perturb_bilinear(act, (i, j, k), Fraction(1))
        out.append(type(m)(m.base, m.beta, name=f"{m.name}~{key}{(i, j, k)}", **actions))
    return out


@pytest.fixture(scope="module")
def bimodules(p3, rb3, pre3, pre6):
    reg_pre3, reg_pre6 = regular_bimodule(pre3), regular_bimodule(pre6)
    rb_alt, rb_pre = rb_induced_bimodules(regular_bimodule(p3), rb3)
    alt = [
        regular_bimodule(p3),
        regular_bimodule(grassmann1_twisted()),
        regular_bimodule(matrix_algebra(2)),
        rb_alt,
        project_bimodule(reg_pre3, "i"),
        project_bimodule(reg_pre3, "ii"),
        project_bimodule(reg_pre6, "i"),
        project_bimodule(reg_pre6, "ii"),
        twist_bimodule(regular_bimodule(grassmann1_twisted())),
    ]
    pre = [
        reg_pre3,
        reg_pre6,
        rb_pre,
        project_bimodule(project_bimodule(reg_pre3, "i"), "iii", pre=pre3),
        twist_bimodule(reg_pre3),
    ]
    return {"alt": alt, "pre": pre}


@pytest.mark.parametrize("kind", ["alt", "pre"])
def test_bimodule_verdicts_match_the_null_extension(bimodules, kind):
    rng = random.Random(17)
    bent_verdicts = []
    for m in bimodules[kind]:
        assert verdicts(m) == (True, True), m.name
        for bent in perturbed(m, rng, 8):
            mine, oracle = verdicts(bent)
            assert mine == oracle, bent.name
            bent_verdicts.append(mine)
    # some single-entry moves keep the axioms, most break them
    assert set(bent_verdicts) == {True, False}


def graph_is_closed(t, m):
    """Whether the graph {(T v, v)} of t: M -> A is closed under the product
    and the twist of A x| M, membership decided by solving in its span."""
    ext = null_extension(m)
    s, at, vt = placements(m)
    graph = []
    for j in m.module.indices():
        coords = [0] * s.dim
        for i, c in enumerate(t.image_of_basis(j).coords):
            coords[at[i]] = c
        coords[vt[j]] = 1
        graph.append(Vector(s, coords))
    images = [ext.mu.apply(g, h) for g in graph for h in graph]
    images += [ext.alpha.apply(g) for g in graph]
    return all(solve_in_span(graph, v) is not None for v in images)


def bent_maps(t, rng, count):
    """count copies of t, each with one parity-allowed entry moved by a
    nonzero scalar."""
    p = t.domain.field.p
    out = []
    for _ in range(count):
        while True:
            i, j = rng.randrange(t.codomain.dim), rng.randrange(t.domain.dim)
            if t.codomain.parity(i) == t.domain.parity(j):
                break
        entries = t.sparse_entries() + [(i, j, rng.randrange(1, p))]
        out.append(EvenMap.from_entries(t.domain, t.codomain, entries))
    return out


@pytest.mark.parametrize("name,p,budget", [("truncpoly-3", 5, 12000), ("l1-p3", 3, 3000)])
def test_o_operator_verdicts_match_the_graph_criterion(name, p, budget):
    a = corpus.build_named(name, prime=p)[1]
    m = regular_bimodule(a)
    found = search_operators(a, "o-operator", bimodule=m, budget=budget).found
    assert len(found) >= 10, name
    rng = random.Random(18)
    bent_verdicts = []
    for t in found:
        assert check_o_operator(t, m).passed and graph_is_closed(t, m), (name, t.entries)
        for bent in bent_maps(t, rng, 3):
            mine = check_o_operator(bent, m).passed
            assert mine == graph_is_closed(bent, m), (name, bent.entries)
            bent_verdicts.append(mine)
    # some single-entry moves give another o-operator, most do not
    assert set(bent_verdicts) == {True, False}, name
