"""The polarized identities against hand-written closures.

laws._polarized builds every identity that sums a term over its images
under the powers of a slot permutation, each signed by its Koszul sign, and
declares the permutation as the identity's symmetry when every term is one
component: the swaps of the polarized axioms, the swap of supercomm and the
3-cycle of jordan.  The closures below write each of those identities out
with its sign by hand, as the identity tables once did, and are the
reference: at every basis tuple of random product and pre instances over Q,
F_3 and F_5, each table entry must give the same residual and declare the
same symmetry.  The bimodule axioms that inherit a polarized identity's
swap on A x| M are compared the same way against bimodule_references.
Jordan is compared under its default cycle, the one reading whose
hand-written sign template was the Koszul sign.
"""

import itertools
import random

import pytest

from superalt import PRE_LAWS, PRODUCT_LAWS
from superalt import laws as engine
from superalt.laws import signed
import bimodule_references
from test_identity_symmetry import KINDS, random_instances

XY, YZ, XZ = (1, 0, 2), (0, 2, 1), (2, 1, 0)


def left_polarization(comp):
    def f(pts):
        (x, px), (y, py), (z, _) = pts
        return comp(x, y, z) + signed(comp(y, x, z), px * py)

    return f


def right_polarization(comp):
    def f(pts):
        (x, _), (y, py), (z, pz) = pts
        return comp(x, y, z) + signed(comp(x, z, y), py * pz)

    return f


def flexible(comp):
    def f(pts):
        (x, px), (y, py), (z, pz) = pts
        return comp(x, y, z) + signed(comp(z, y, x), px * py + px * pz + py * pz)

    return f


def product_references(a):
    mu, al = a.mu.apply, a.alpha.apply
    asso = engine._associator(mu, al)

    def supercomm(pts):
        (x, px), (y, py) = pts
        return mu(x, y) - signed(mu(y, x), px * py)

    def jordan(pts):  # the default cycle xyt: (x, y, z, t) -> (y, t, z, x) -> (t, x, z, y)
        terms = []
        for binding in ((0, 1, 2, 3), (1, 3, 2, 0), (3, 0, 2, 1)):
            (x, px), (y, _), (z, pz), (t, pt) = (pts[s] for s in binding)
            terms.append(signed(asso(mu(x, y), al(z), al(t)), pt * (px + pz)))
        first, second, third = terms
        return first + second + third

    return {
        "left-alt": (left_polarization(asso), XY),
        "right-alt": (right_polarization(asso), YZ),
        "flex": (flexible(asso), XZ),
        "supercomm": (supercomm, (1, 0)),
        "jordan": (jordan, (1, 3, 2, 0)),
    }


def pre_references(p):
    comps = kind1, kind2, kind3 = engine._pre_components(p)

    def pa3(pts):
        (x, px), (y, py), (z, _) = pts
        return kind2(x, y, z) + signed(kind3(y, x, z), px * py)

    def pa4(pts):
        (x, _), (y, py), (z, pz) = pts
        return kind2(x, y, z) + signed(kind1(x, z, y), py * pz)

    refs = {
        "pa3": (pa3, None),
        "pa4": (pa4, None),
        "pa5": (left_polarization(kind1), XY),
        "pa6": (right_polarization(kind3), YZ),
    }
    for k, c in enumerate(comps, 1):
        refs[f"left-{k}"] = left_polarization(c), XY
        refs[f"right-{k}"] = right_polarization(c), YZ
        refs[f"flex-{k}"] = flexible(c), XZ
    return refs


def symmetric_references(m):
    """The hand-written bimodule axioms of m that declare a symmetry, the
    swap x <-> y that the derived axiom carries over from its polarized
    identity (abm3, abm4, pbm1, pbm9)."""
    return {name: (fn, perm[0])
            for name, _, fn, *perm in bimodule_references.references(m) if perm}


def compare(spaces, entries, references, seen, nonzero):
    """(name, tuple) of the first basis tuple at which an entry that has a
    reference gives another residual, (name, "perm") where it declares
    another symmetry; adds the names compared to seen, and those with a
    nonzero residual somewhere to nonzero.  An entry of arity k ranges over
    the first k of spaces."""
    bad = []
    for name, arity, fn, *perm in entries:
        if name not in references:
            continue
        ref, ref_perm = references[name]
        seen.add(name)
        if perm != ([ref_perm] if ref_perm else []):
            bad.append((name, "perm"))
        points = [engine._basis_points(s) for s in spaces[:arity]]
        for idx in itertools.product(*(s.indices() for s in spaces[:arity])):
            pts = tuple(slot[i] for slot, i in zip(points, idx))
            r = ref(pts)
            if fn(pts).coords != r.coords:
                bad.append((name, idx))
                break
            if not r.is_zero():
                nonzero.add(name)
    return bad


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_polarized_entries_match_the_hand_written_closures(kind):
    rng = random.Random(31)
    seen, nonzero = set(), set()
    for _ in range(10):
        a, p, alt, pre = random_instances(rng, kind)
        s, v = a.space, alt.module
        cases = [((s,) * 4, engine._identities(a, law, None, engine.REFERENCE),
                  product_references(a)) for law in PRODUCT_LAWS]
        cases += [((s,) * 3, engine._identities(p, law, None, engine.REFERENCE),
                   pre_references(p)) for law in PRE_LAWS]
        for m in (alt, pre):
            cases.append(((s, s, v), bimodule_references.derived_entries(m),
                          symmetric_references(m)))
        for spaces, entries, references in cases:
            assert compare(spaces, entries, references, seen, nonzero) == []
    names = {
        "left-alt", "right-alt", "flex", "supercomm", "jordan", "pa3", "pa4", "pa5", "pa6",
        "left-1", "left-2", "left-3", "right-1", "right-2", "right-3",
        "flex-1", "flex-2", "flex-3", "abm3", "abm4", "pbm1", "pbm9",
    }
    assert seen == nonzero == names
