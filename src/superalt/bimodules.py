"""Bimodules over single-product and pre-structure instances.

An alt-bimodule over (A, mu, alpha) is (V, lsucc, rprec, beta): a left
action x succ v, a right action v prec x, and an even self-map beta of V.
A pre-bimodule over (A, prec, succ, alpha) carries four actions
(lprec, rprec, lsucc, rsucc), one per product and side.

The four alt axioms and ten pre axioms are checked elementwise on basis
triples (x, y, v).  Two readings of the pre axioms are ambiguous in their
usual presentation; both are parameterized here and the defaults are the
readings validated by the regular representation (calibrate_pre_bimodule
re-derives them).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .core import EvenBilinear, EvenMap, ValidationError
from .laws import (
    REFERENCE,
    SWAP_XY,
    HomAlgebra,
    HomPreAlgebra,
    LawReport,
    _polarized,
    _require,
    _run_groups,
    _Tables,
    check_morphism,
    check_product_law,
    check_pre_law,
    signed,
)
from .constructions import alt_of, rb_split


def _from_left(key: str) -> bool:
    """Whether the action named key takes its algebra argument on the left:
    an l... action maps A x V -> V and an r... action maps V x A -> V."""
    return key[0] == "l"


def action_factors(key: str, a, v):
    """The (left, right) factors of the action named key over A = a, V = v."""
    return (a, v) if _from_left(key) else (v, a)


class _Bimodule:
    """What both kinds share.  ACTIONS names a kind's actions in document
    key order, which puts every l... action first."""

    __slots__ = ()
    ACTIONS = ()

    def __init__(self, base, beta: EvenMap, name: str, **actions: EvenBilinear):
        errors = []
        v = beta.domain
        if beta.codomain != v:
            errors.append("beta must be an even self-map of the module")
        for key in self.ACTIONS:
            act = actions[key]
            if (act.left, act.right, act.out) != (*action_factors(key, base.space, v), v):
                shape = " x ".join(action_factors(key, "A", "V"))
                errors.append(f"{key} action must map {shape} -> V")
        if errors:
            raise ValidationError(errors)
        self.base = base
        self.beta = beta
        self.name = name
        for key in self.ACTIONS:
            setattr(self, key, actions[key])

    @property
    def module(self):
        return self.beta.domain

    def __repr__(self):
        return f"{type(self).__name__}({self.name or self.module.dims})"


class AltBimodule(_Bimodule):
    __slots__ = ("base", "beta", "lsucc", "rprec", "name")
    ACTIONS = ("lsucc", "rprec")

    def __init__(
        self,
        base: HomAlgebra,
        beta: EvenMap,
        lsucc: EvenBilinear,
        rprec: EvenBilinear,
        name: str = "",
    ):
        super().__init__(base, beta, name, lsucc=lsucc, rprec=rprec)


class PreBimodule(_Bimodule):
    __slots__ = ("base", "beta", "lprec", "rprec", "lsucc", "rsucc", "name")
    ACTIONS = ("lprec", "lsucc", "rprec", "rsucc")

    def __init__(
        self,
        base: HomPreAlgebra,
        beta: EvenMap,
        lprec: EvenBilinear,
        rprec: EvenBilinear,
        lsucc: EvenBilinear,
        rsucc: EvenBilinear,
        name: str = "",
    ):
        super().__init__(base, beta, name, lprec=lprec, rprec=rprec, lsucc=lsucc, rsucc=rsucc)


@dataclass(frozen=True)
class PbmVariant:
    """Ambiguity switches for two pre-bimodule axioms.

    pbm2_sign: sign of the beta(v) succ (x succ y) term (+1 calibrated, -1
    as usually printed).  pbm4_inner: the product inside beta(v) succ (x ? y)
    ("prec" calibrated, "circ" as usually printed)."""

    pbm2_sign: int = 1
    pbm4_inner: str = "prec"

    def __post_init__(self):
        if self.pbm2_sign not in (1, -1) or self.pbm4_inner not in ("prec", "circ"):
            raise ValidationError([f"bad pre-bimodule variant {self!r}"])


CALIBRATED_PBM_VARIANT = PbmVariant(pbm2_sign=1, pbm4_inner="prec")


def _abm_identities(m: AltBimodule, bind=REFERENCE):
    mu, al = bind(m.base.mu), bind(m.base.alpha)
    lv, vr, be = bind(m.lsucc), bind(m.rprec), bind(m.beta)

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

    def abm3(x, y, v):
        return lv(mu(x, y), be(v)) - lv(al(x), lv(y, v))

    def abm4(x, y, v):
        return vr(be(v), mu(x, y)) - vr(vr(v, x), al(y))

    return [
        ("abm1", 3, abm1),
        ("abm2", 3, abm2),
        _polarized("abm3", SWAP_XY, abm3),
        _polarized("abm4", SWAP_XY, abm4),
    ]


def _pbm_identities(m: PreBimodule, variant: PbmVariant, bind=REFERENCE):
    apr, asu, aci = bind(m.base.prec), bind(m.base.succ), bind(m.base.circ())
    al, be = bind(m.base.alpha), bind(m.beta)
    lp, ls = bind(m.lprec), bind(m.lsucc)
    rp, rs = bind(m.rprec), bind(m.rsucc)

    def lc(x, v):
        return lp(x, v) + ls(x, v)

    def rc(v, x):
        return rp(v, x) + rs(v, x)

    def pbm1(x, y, v):
        return ls(aci(x, y), be(v)) - ls(al(x), ls(y, v))

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

    def pbm9(x, y, v):
        return rp(rp(v, x), al(y)) - rp(be(v), aci(x, y))

    def pbm10(pts):
        (x, _), (y, py), (v, pv) = pts
        return (
            rp(lp(x, v), al(y))
            + signed(lp(apr(x, y), be(v)), py * pv)
            - lp(al(x), rc(v, y))
            - signed(lp(al(x), lc(y, v)), py * pv)
        )

    return [
        _polarized("pbm1", SWAP_XY, pbm1),
        ("pbm2", 3, pbm2),
        ("pbm3", 3, pbm3),
        ("pbm4", 3, pbm4),
        ("pbm5", 3, pbm5),
        ("pbm6", 3, pbm6),
        ("pbm7", 3, pbm7),
        ("pbm8", 3, pbm8),
        _polarized("pbm9", SWAP_XY, pbm9),
        ("pbm10", 3, pbm10),
    ]


def _bimodule_run(law, m, identities, jobs, extra=None) -> LawReport:
    """One scan group over basis triples (x, y, v) holding every axiom that
    identities(bind) lists, scanned on the tables of m."""

    def build(bind):
        base = bind.points(m.base.space)
        idfns = [(name, fn, *perm) for name, _, fn, *perm in identities(bind)]
        return [([base, base, bind.points(m.module)], idfns)]

    return _run_groups(law, build, _Tables(m.module.field), jobs, extra)


def check_alt_bimodule(m: AltBimodule, jobs: int = 1) -> LawReport:
    """All four axioms on basis triples (x, y, v).

    Refuses (rather than failing) when the base is not hom-alternative."""
    _require("check_alt_bimodule", check_product_law(m.base, "hom-alternative"))
    return _alt_bimodule_axioms(m, jobs)


def _alt_bimodule_axioms(m: AltBimodule, jobs: int = 1) -> LawReport:
    """check_alt_bimodule on a base already known to be hom-alternative."""
    return _bimodule_run("alt-bimodule", m, lambda bind: _abm_identities(m, bind), jobs)


def check_pre_bimodule(
    m: PreBimodule, variant: PbmVariant | None = None, jobs: int = 1
) -> LawReport:
    """All ten axioms on basis triples (x, y, v) under the given (default:
    calibrated) reading of the two ambiguous axioms.

    Refuses when the base is not hom-prealternative."""
    _require("check_pre_bimodule", check_pre_law(m.base, "hom-prealternative"))
    return _pre_bimodule_axioms(m, variant or CALIBRATED_PBM_VARIANT, jobs)


def _pre_bimodule_axioms(m: PreBimodule, variant: PbmVariant, jobs: int = 1) -> LawReport:
    """check_pre_bimodule on a base already known to be hom-prealternative."""
    extra = {"variant": {"pbm2_sign": variant.pbm2_sign, "pbm4_inner": variant.pbm4_inner}}
    return _bimodule_run(
        "pre-bimodule", m, lambda bind: _pbm_identities(m, variant, bind), jobs, extra
    )


def regular_bimodule(instance):
    """The instance acting on itself: V = A, beta = alpha, actions = products."""
    if isinstance(instance, HomAlgebra):
        return AltBimodule(
            instance,
            instance.alpha,
            instance.mu,
            instance.mu,
            name=f"regular({instance.name})",
        )
    if isinstance(instance, HomPreAlgebra):
        return PreBimodule(
            instance,
            instance.alpha,
            lprec=instance.prec,
            rprec=instance.prec,
            lsucc=instance.succ,
            rsucc=instance.succ,
            name=f"regular({instance.name})",
        )
    raise ValidationError([f"not an instance: {instance!r}"])


def project_bimodule(m, direction: str, pre: HomPreAlgebra | None = None):
    """Transport between pre-bimodules and alt-bimodules.

    i:   pre-bimodule (V, lprec, rprec, lsucc, rsucc, beta) over A gives the
         alt-bimodule (V, lsucc, rprec, beta) over alt_of(A).
    ii:  same input gives the alt-bimodule with the combined actions
         (V, lprec+lsucc, rprec+rsucc, beta) over alt_of(A).
    iii: an alt-bimodule (V, L, R, beta) over alt_of(P) embeds as the
         pre-bimodule (V, 0, R, L, 0, beta) over P (pass P via `pre`)."""
    if direction in ("i", "ii"):
        if not isinstance(m, PreBimodule):
            raise ValidationError([f"direction {direction} projects a pre-bimodule"])
        base = alt_of(m.base)
        if direction == "i":
            return AltBimodule(base, m.beta, m.lsucc, m.rprec, name=f"project-i({m.name})")
        return AltBimodule(
            base,
            m.beta,
            m.lprec + m.lsucc,
            m.rprec + m.rsucc,
            name=f"project-ii({m.name})",
        )
    if direction == "iii":
        if not isinstance(m, AltBimodule):
            raise ValidationError(["direction iii embeds an alt-bimodule"])
        if pre is None:
            raise ValidationError(["direction iii needs the pre-structure instance"])
        assoc = alt_of(pre)
        if assoc.mu != m.base.mu or assoc.alpha != m.base.alpha:
            raise ValidationError(
                ["the alt-bimodule base is not the associated instance of the given pre-structure"]
            )
        v, a = m.module, pre.space
        zl = EvenBilinear.zero(a, v, v)
        zr = EvenBilinear.zero(v, a, v)
        return PreBimodule(
            pre,
            m.beta,
            lprec=zl,
            rprec=m.rprec,
            lsucc=m.lsucc,
            rsucc=zr,
            name=f"project-iii({m.name})",
        )
    raise ValidationError([f"unknown projection direction {direction!r}"])


def twist_bimodule(m):
    """Precompose every action with alpha^2 on the algebra argument; beta and
    the base stay.  Requires the base multiplicative: alpha a morphism of
    the product (alt) or of both products (pre)."""
    if isinstance(m, AltBimodule):
        _require("twist_bimodule", check_product_law(m.base, "multiplicative"))
    elif isinstance(m, PreBimodule):
        _require("twist_bimodule", check_morphism(m.base.alpha, m.base, m.base, weak=False))
    else:
        raise ValidationError([f"not a bimodule: {m!r}"])
    a2 = m.base.alpha.power(2)
    actions = {}
    for key in m.ACTIONS:
        act = getattr(m, key)
        actions[key] = act.pre_compose_left(a2) if _from_left(key) else act.pre_compose_right(a2)
    return type(m)(m.base, m.beta, name=f"twist({m.name})", **actions)


def rb_induced_bimodules(m: AltBimodule, r: EvenMap):
    """From a weight-0 Rota-Baxter operator R on the base of a valid
    alt-bimodule: actions v prec R(x) and R(x) succ v give

      - an alt-bimodule over the split-sum instance alt_of(rb_split(A, R)),
      - a pre-bimodule (lprec, rprec, lsucc, rsucc) = (0, vR, Rv, 0) over
        rb_split(A, R).

    rb_split checks that the base is hom-alternative and R is Rota-Baxter
    (refusing as rb_split); then the alt axioms of m are checked."""
    a = m.base
    split = rb_split(a, r)
    _require("rb_induced_bimodules", _alt_bimodule_axioms(m))
    tri_left = m.lsucc.pre_compose_left(r)  # x |> v = R(x) succ v
    tri_right = m.rprec.pre_compose_right(r)  # v <| x = v prec R(x)
    alt = AltBimodule(
        alt_of(split),
        m.beta,
        tri_left,
        tri_right,
        name=f"rb-alt({m.name})",
    )
    v, asp = m.module, a.space
    pre = PreBimodule(
        split,
        m.beta,
        lprec=EvenBilinear.zero(asp, v, v),
        rprec=tri_right,
        lsucc=tri_left,
        rsucc=EvenBilinear.zero(v, asp, v),
        name=f"rb-pre({m.name})",
    )
    return alt, pre


def calibrate_pre_bimodule(instances) -> dict:
    """Check the regular pre-bimodule of each instance under all four
    readings of the ambiguous axioms; report survivors."""
    combos = [
        PbmVariant(s, inner) for s, inner in iproduct((1, -1), ("prec", "circ"))
    ]
    # each base is checked once, in the order check_pre_bimodule would meet it
    modules = []
    for p in instances:
        _require("check_pre_bimodule", check_pre_law(p, "hom-prealternative"))
        modules.append((p.name or repr(p), regular_bimodule(p)))
    per_variant = {}
    for var in combos:
        key = f"pbm2{'+' if var.pbm2_sign == 1 else '-'}/pbm4-{var.pbm4_inner}"
        verdicts = {}
        for name, m in modules:
            verdicts[name] = _pre_bimodule_axioms(m, var).passed
        per_variant[key] = verdicts
    survivors = [k for k, v in per_variant.items() if all(v.values())]
    default = CALIBRATED_PBM_VARIANT
    return {
        "per_variant": per_variant,
        "survivors": survivors,
        "default": f"pbm2{'+' if default.pbm2_sign == 1 else '-'}/pbm4-{default.pbm4_inner}",
    }
