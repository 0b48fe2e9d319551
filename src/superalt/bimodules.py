"""Bimodules over single-product and pre-structure instances.

An alt-bimodule over (A, mu, alpha) is (V, lsucc, rprec, beta): a left
action x succ v, a right action v prec x, and an even self-map beta of V.
A pre-bimodule over (A, prec, succ, alpha) carries four actions
(lprec, rprec, lsucc, rsucc), one per product and side.

V is a bimodule exactly when its split null extension A x| V is in A's
class (Eilenberg, "Extensions of general algebras", 1948; Schafer,
"Representations of alternative algebras", 1952): the space A + V with the
product ab + a.v + u.b, each product of A extended by the actions of its
kind, and the twist alpha + beta.  So the four alt axioms and the ten pre
axioms are not written out.  The derivation table _DERIVATIONS gives each,
at a basis triple (x, y, v), as one identity of the base law on A x| V,
its slots arranged, times a sign; the checks evaluate it with the base
law's own entries.  Two pre axioms are ambiguous in their usual
presentation (PbmVariant).  With T = (-1)^(|x||v|) beta(v) succ (x succ y),
the printed pbm2 is the derived pbm2 + 2T, and the printed pbm4, whose
inner product is circ, is the derived pbm4 - T.  The defaults are the
derived readings, which the regular representation validates
(calibrate_pre_bimodule re-derives them).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import product as iproduct

from .core import EvenBilinear, EvenMap, SuperSpace, ValidationError
from .laws import (
    HomAlgebra,
    HomPreAlgebra,
    LawReport,
    _basis_points,
    _identities,
    _require,
    _run_groups,
    _verdict_table,
    check_morphism,
    check_product_law,
    check_pre_law,
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
    """What both kinds share.  BASE is the class of a kind's base, and
    ACTIONS names its actions in document key order, which puts every l...
    action first."""

    __slots__ = ()
    ACTIONS = ()

    def __init__(self, base, beta: EvenMap, name: str, **actions: EvenBilinear):
        if not isinstance(base, self.BASE):
            kind, needs = type(self).__name__, self.BASE.__name__
            raise ValidationError([f"the base of {kind} must be a {needs}"])
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
    BASE = HomAlgebra
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
    BASE = HomPreAlgebra
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


# The derivation table: per kind of bimodule, the law its checks report and
# the base law, and per axiom the identity of the base law that the axiom is
# on A x| M (see _null_extension), the identity's slots reading the axiom's
# slots (x, y, v) as the arrangement spells them ("vxy": the identity at
# (v, x, y)), and the sign: +, -, or two slots a, b for (-1)^(|a||b|).
_DERIVATIONS = {
    AltBimodule: ("alt-bimodule", "hom-alternative", (
        ("abm1", "left-alt", "vxy", "+"),
        ("abm2", "right-alt", "yvx", "-"),
        ("abm3", "left-alt", "xyv", "+"),
        ("abm4", "right-alt", "vxy", "-"),
    )),
    PreBimodule: ("pre-bimodule", "hom-prealternative", (
        ("pbm1", "pa5", "xyv", "+"),
        ("pbm2", "pa5", "xvy", "+"),
        ("pbm3", "pa3", "xvy", "xv"),
        ("pbm4", "pa3", "vxy", "xv"),
        ("pbm5", "pa3", "xyv", "xy"),
        ("pbm6", "pa4", "yvx", "+"),
        ("pbm7", "pa4", "vyx", "+"),
        ("pbm8", "pa4", "yxv", "+"),
        ("pbm9", "pa6", "vxy", "+"),
        ("pbm10", "pa6", "xvy", "+"),
    )),
}
_SLOTS = "xyv"
# the (left, right) actions that extend each product of the base on A x| M
_EXTENDS = {"mu": ("lsucc", "rprec"), "prec": ("lprec", "rprec"), "succ": ("lsucc", "rsucc")}


def _null_extension(m):
    """The split null extension A x| M of m: the space A + M, its basis
    reordered A even, M even, A odd, M odd, with each product of A extended
    by the actions of _EXTENDS, the product of two module elements zero, and
    the twist alpha + beta.  Returns it with the indices there of the basis
    of A and of M."""
    a, v = m.base.space, m.module
    s = SuperSpace(a.field, a.even + v.even, a.odd + v.odd)
    at = [i if i < a.even else i + v.even for i in a.indices()]
    vt = [a.even + j if j < v.even else a.dim + j for j in v.indices()]

    def moved(t, left, right, out):
        return [(left[i], right[j], out[k], c) for i, j, k, c in t.sparse_entries()]

    products = []
    for attr, _ in type(m.base).PRODUCTS:
        lkey, rkey = _EXTENDS[attr]
        entries = moved(getattr(m.base, attr), at, at, at)
        entries += moved(getattr(m, lkey), at, vt, vt) + moved(getattr(m, rkey), vt, at, vt)
        products.append(EvenBilinear.from_entries(s, s, s, entries))
    twist = [(at[i], at[j], c) for i, j, c in m.base.alpha.sparse_entries()]
    twist += [(vt[i], vt[j], c) for i, j, c in m.beta.sparse_entries()]
    return type(m.base)(*products, EvenMap.from_entries(s, s, twist)), at, vt


def _derived(fn, arrangement, sign):
    """The axiom at points (x, y, v) that the identity fn gives at the points
    as arrangement spells them, times sign (see _DERIVATIONS)."""
    pick = operator.itemgetter(*map(_SLOTS.index, arrangement))
    if sign == "+":
        return lambda pts: fn(pick(pts))
    if sign == "-":
        return lambda pts: -fn(pick(pts))
    s, t = map(_SLOTS.index, sign)

    def derived(pts):
        r = fn(pick(pts))
        return -r if pts[s][1] & pts[t][1] else r

    return derived


def _conjugated(perm, arrangement):
    """The declared symmetry of the axiom that reads an identity of symmetry
    perm as arrangement spells: the identity's slot k reads the axiom's slot
    q[k], so permuting the axiom's slots by q[k] -> q[perm[k]] permutes the
    identity's by perm.  Kept (as a one-element list) only if it leaves v in
    place, and so carries each slot onto one over the same points."""
    q = [_SLOTS.index(c) for c in arrangement]
    conj = tuple(q[perm[q.index(s)]] for s in range(3))
    return [conj] if conj[2] == 2 else []


def _axiom_group(m, ext, at, vt, variant, bind):
    """The scan group of m's axioms on bind: slots x and y over the basis
    points of A in ext = A x| M, slot v over those of M, and one entry
    (name, fn, *perm) per row of the derivation table, evaluated with the
    base law's own entries on ext.  Every residual lies in M."""
    _, law, rows = _DERIVATIONS[type(m)]
    identities = {name: (fn, *perm) for name, _, fn, *perm in _identities(ext, law, None, bind)}
    entries = {}
    for axiom, identity, arrangement, sign in rows:
        fn, *perm = identities[identity]
        entries[axiom] = [_derived(fn, arrangement, sign),
                          *(_conjugated(*perm, arrangement) if perm else ())]
    if variant is not None:  # the printed readings, as the module docstring derives them
        su, al, coerce = bind(ext.succ), bind(ext.alpha), ext.space.field.coerce

        def plus_t(fn, times):  # fn + times T, T = (-1)^(|x||v|) beta(v) succ (x succ y)
            def corrected(pts):
                (x, px), (y, _), (v, pv) = pts
                return fn(pts) + su(al(v), su(x, y)).scaled(-times if px & pv else times)

            return corrected

        if variant.pbm2_sign == -1:
            entries["pbm2"][0] = plus_t(entries["pbm2"][0], coerce(2))
        if variant.pbm4_inner == "circ":
            entries["pbm4"][0] = plus_t(entries["pbm4"][0], coerce(-1))
    points = _basis_points(ext.space, bind.basis)
    base, module = tuple(points[i] for i in at), tuple(points[j] for j in vt)
    return [base, base, module], [(axiom, *entry) for axiom, entry in entries.items()]


def _bimodule_axioms(m, variant: PbmVariant | None = None, jobs: int = 1) -> LawReport:
    """The axioms of m, under variant for a pre-bimodule, on a base already
    known to be in its class: one scan group over basis triples (x, y, v)
    (see _axiom_group) on the tables of A x| M.  A failure reports its
    residual's coordinates on M, the only ones that can be nonzero."""
    ext, at, vt = _null_extension(m)
    law = _DERIVATIONS[type(m)][0]
    report = _run_groups(law, lambda bind: [_axiom_group(m, ext, at, vt, variant, bind)], jobs)
    if variant is not None:
        report.extra["variant"] = {"pbm2_sign": variant.pbm2_sign, "pbm4_inner": variant.pbm4_inner}
    if not report.passed:
        report.residual = tuple(report.residual[j] for j in vt)
    return report


def check_alt_bimodule(m: AltBimodule, jobs: int = 1) -> LawReport:
    """All four axioms on basis triples (x, y, v).

    Refuses (rather than failing) when the base is not hom-alternative."""
    _require("check_alt_bimodule", check_product_law(m.base, "hom-alternative", jobs=jobs))
    return _bimodule_axioms(m, jobs=jobs)


def check_pre_bimodule(
    m: PreBimodule, variant: PbmVariant | None = None, jobs: int = 1
) -> LawReport:
    """All ten axioms on basis triples (x, y, v) under the given (default:
    calibrated) reading of the two ambiguous axioms.

    Refuses when the base is not hom-prealternative."""
    _require("check_pre_bimodule", check_pre_law(m.base, "hom-prealternative", jobs=jobs))
    return _bimodule_axioms(m, variant or CALIBRATED_PBM_VARIANT, jobs)


def regular_bimodule(instance):
    """The instance acting on itself: V = A, beta = alpha, and each product
    as the actions that extend it on A x| A (_EXTENDS)."""
    cls = next((c for c in (AltBimodule, PreBimodule) if isinstance(instance, c.BASE)), None)
    if cls is None:
        raise ValidationError([f"not an instance: {instance!r}"])
    actions = {key: getattr(instance, attr) for attr, _ in instance.PRODUCTS
               for key in _EXTENDS[attr]}
    return cls(instance, instance.alpha, name=f"regular({instance.name})", **actions)


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
    _require("rb_induced_bimodules", _bimodule_axioms(m))
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


def _variant_label(var: PbmVariant) -> str:
    return f"pbm2{'+' if var.pbm2_sign == 1 else '-'}/pbm4-{var.pbm4_inner}"


def calibrate_pre_bimodule(instances) -> dict:
    """Check the regular pre-bimodule of each instance under all four
    readings of the ambiguous axioms; report survivors."""
    # each base is checked once, in the order check_pre_bimodule would meet it
    modules = []
    for p in instances:
        _require("check_pre_bimodule", check_pre_law(p, "hom-prealternative"))
        modules.append((p.name or repr(p), regular_bimodule(p)))
    variants = [PbmVariant(s, inner) for s, inner in iproduct((1, -1), ("prec", "circ"))]
    readings = {_variant_label(var): var for var in variants}
    return _verdict_table(
        "per_variant", readings, modules, lambda var, m: _bimodule_axioms(m, var).passed,
        _variant_label(CALIBRATED_PBM_VARIANT),
    )
