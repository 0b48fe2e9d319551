"""The bimodule axioms written out by hand, and the derived ones on basis
triples.

The checks read each axiom off the base law on the split null extension
A x| M (bimodules._DERIVATIONS).  The closures below are the axioms as the
bimodule tables once wrote them, every Koszul sign by hand, both PbmVariant
switches included; they are the reference that the derived axioms answer to
(tests/test_bimodule_derivation.py) and that the compiled scans and the
witness re-checks use as their oracle.  derived_entries gives the entries
under test on the same points.
"""

from superalt import CALIBRATED_PBM_VARIANT, Vector
from superalt import bimodules
from superalt.laws import REFERENCE, signed

XY = (1, 0, 2)


def alt_references(m):
    """The four alt axioms as entries (name, 3, fn, *perm), fn taking basis
    points (x, y, v) of (A, A, M) to the residual in M."""
    mu, al = m.base.mu.apply, m.base.alpha.apply
    lv, vr, be = m.lsucc.apply, m.rprec.apply, m.beta.apply

    def abm1(pts):
        (x, px), (y, _), (v, pv) = pts
        return (
            vr(vr(v, x), al(y))
            + signed(vr(lv(x, v), al(y)), px * pv)
            - signed(lv(al(x), vr(v, y)), px * pv)
            - vr(be(v), mu(x, y))
        )

    def abm2(pts):
        (x, px), (y, _), (v, pv) = pts
        return (
            lv(al(y), vr(v, x))
            - vr(lv(y, v), al(x))
            - signed(lv(mu(y, x), be(v)), px * pv)
            + signed(lv(al(y), lv(x, v)), px * pv)
        )

    def abm3(pts):
        (x, px), (y, py), (v, _) = pts
        return (
            lv(mu(x, y), be(v))
            + signed(lv(mu(y, x), be(v)), px * py)
            - lv(al(x), lv(y, v))
            - signed(lv(al(y), lv(x, v)), px * py)
        )

    def abm4(pts):
        (x, px), (y, py), (v, _) = pts
        return (
            vr(be(v), mu(x, y))
            + signed(vr(be(v), mu(y, x)), px * py)
            - vr(vr(v, x), al(y))
            - signed(vr(vr(v, y), al(x)), px * py)
        )

    return [("abm1", 3, abm1), ("abm2", 3, abm2), ("abm3", 3, abm3, XY), ("abm4", 3, abm4, XY)]


def pre_references(m, variant=CALIBRATED_PBM_VARIANT):
    """The ten pre axioms under variant, as alt_references gives the alt ones."""
    apr, asu, aci = m.base.prec.apply, m.base.succ.apply, m.base.circ().apply
    al, be = m.base.alpha.apply, m.beta.apply
    lp, ls, rp, rs = m.lprec.apply, m.lsucc.apply, m.rprec.apply, m.rsucc.apply

    def lc(x, v):
        return lp(x, v) + ls(x, v)

    def rc(v, x):
        return rp(v, x) + rs(v, x)

    def pbm1(pts):
        (x, px), (y, py), (v, _) = pts
        w = aci(x, y) + signed(aci(y, x), px * py)
        return ls(w, be(v)) - ls(al(x), ls(y, v)) - signed(ls(al(y), ls(x, v)), px * py)

    def pbm2(pts):
        (x, px), (y, _), (v, pv) = pts
        w = lc(x, v) + signed(rc(v, x), px * pv)
        term = signed(rs(be(v), asu(x, y)), px * pv)
        res = rs(w, al(y)) - ls(al(x), rs(v, y))
        return res - term if variant.pbm2_sign == 1 else res + term

    def pbm3(pts):
        (x, px), (y, _), (v, pv) = pts
        return (
            rp(rp(v, x), al(y))
            + signed(rp(ls(x, v), al(y)), px * pv)
            - rp(be(v), aci(x, y))
            - signed(ls(al(x), rp(v, y)), px * pv)
        )

    def pbm4(pts):
        (x, px), (y, _), (v, pv) = pts
        inner = apr(x, y) if variant.pbm4_inner == "prec" else aci(x, y)
        return (
            rp(lp(x, v), al(y))
            + signed(rp(rs(v, x), al(y)), px * pv)
            - lp(al(x), rc(v, y))
            - signed(rs(be(v), inner), px * pv)
        )

    def pbm5(pts):
        (x, px), (y, py), (v, _) = pts
        return (
            lp(apr(y, x), be(v))
            + signed(lp(asu(x, y), be(v)), px * py)
            - lp(al(y), lc(x, v))
            - signed(ls(al(x), lp(y, v)), px * py)
        )

    def pbm6(pts):
        (x, px), (y, _), (v, pv) = pts
        return (
            rp(ls(y, v), al(x))
            + signed(ls(aci(y, x), be(v)), px * pv)
            - ls(al(y), rp(v, x))
            - signed(ls(al(y), ls(x, v)), px * pv)
        )

    def pbm7(pts):
        (x, px), (y, py), (v, _) = pts
        return (
            rp(rs(v, y), al(x))
            + signed(rs(rc(v, x), al(y)), px * py)
            - rs(be(v), apr(y, x))
            - signed(rs(be(v), asu(x, y)), px * py)
        )

    def pbm8(pts):
        (x, px), (y, _), (v, pv) = pts
        return (
            lp(asu(y, x), be(v))
            + signed(rs(lc(y, v), al(x)), px * pv)
            - ls(al(y), lp(x, v))
            - signed(ls(al(y), rs(v, x)), px * pv)
        )

    def pbm9(pts):
        (x, px), (y, py), (v, _) = pts
        return (
            rp(rp(v, x), al(y))
            + signed(rp(rp(v, y), al(x)), px * py)
            - rp(be(v), aci(x, y))
            - signed(rp(be(v), aci(y, x)), px * py)
        )

    def pbm10(pts):
        (x, _), (y, py), (v, pv) = pts
        return (
            rp(lp(x, v), al(y))
            + signed(lp(apr(x, y), be(v)), py * pv)
            - lp(al(x), rc(v, y))
            - signed(lp(al(x), lc(y, v)), py * pv)
        )

    return [
        ("pbm1", 3, pbm1, XY), ("pbm2", 3, pbm2), ("pbm3", 3, pbm3), ("pbm4", 3, pbm4),
        ("pbm5", 3, pbm5), ("pbm6", 3, pbm6), ("pbm7", 3, pbm7), ("pbm8", 3, pbm8),
        ("pbm9", 3, pbm9, XY), ("pbm10", 3, pbm10),
    ]


def references(m, variant=CALIBRATED_PBM_VARIANT):
    """The hand-written axioms of m, of either kind."""
    return alt_references(m) if isinstance(m, bimodules.AltBimodule) else pre_references(m, variant)


def derived_entries(m, variant=CALIBRATED_PBM_VARIANT):
    """The checks' own axioms of m, as references gives them: each fn embeds
    its points in A x| M, evaluates the derived entry there on the reference
    binder, asserts that the residual lies in M and returns its part there."""
    if isinstance(m, bimodules.AltBimodule):
        variant = None
    ext, at, vt = bimodules._null_extension(m)
    _, entries = bimodules._axiom_group(m, ext, at, vt, variant, REFERENCE)
    s = ext.space

    def embedded(vec, places):
        coords = [s.field.zero] * s.dim
        for i, c in zip(places, vec.coords):
            coords[i] = c
        return Vector(s, coords)

    def on_triples(fn):
        def f(pts):
            (x, px), (y, py), (v, pv) = pts
            r = fn(((embedded(x, at), px), (embedded(y, at), py), (embedded(v, vt), pv)))
            assert not any(r.coords[i] for i in at)
            return Vector(m.module, [r.coords[j] for j in vt])

        return f

    return [(name, 3, on_triples(fn), *perm) for name, fn, *perm in entries]
