"""Constructions that mint new instances from verified ones.

Every construction with a mathematical hypothesis enforces it by running
the relevant law or operator check first and refusing with the failing
report.  There is no unchecked mode.
"""

from __future__ import annotations

from .core import EvenBilinear, EvenMap, SuperSpace, ValidationError
from .laws import (
    HomAlgebra,
    HomPreAlgebra,
    _require,
    check_morphism,
    check_product_law,
)
from .operators import OperatorSpec, check_operator

DERIVED_N_CAP = 16


def alt_of(p: HomPreAlgebra) -> HomAlgebra:
    """Associated single-product instance: x o y = x prec y + x succ y, same twist."""
    return HomAlgebra(p.circ(), p.alpha, name=f"alt({p.name})" if p.name else "alt")


def transpose(p: HomPreAlgebra) -> HomPreAlgebra:
    """x prec' y = (-1)^(xy) y succ x and x succ' y = (-1)^(xy) y prec x."""
    return HomPreAlgebra(
        p.succ.flip_signed(),
        p.prec.flip_signed(),
        p.alpha,
        name=f"transpose({p.name})" if p.name else "transpose",
    )


def plus_jordan(a: HomAlgebra) -> HomAlgebra:
    """Symmetrized product x * y = x y + (-1)^(xy) y x, same twist."""
    return HomAlgebra(
        a.mu + a.mu.flip_signed(),
        a.alpha,
        name=f"plus({a.name})" if a.name else "plus",
    )


def tensor_pairs(first: SuperSpace, second: SuperSpace) -> list[tuple[int, int]]:
    """Flat basis of a tensor product: all even pairs in lexicographic order,
    then all odd pairs, so the flat space is again even-first."""
    pairs = [(i, j) for i in first.indices() for j in second.indices()]
    even = [q for q in pairs if (first.parity(q[0]) + second.parity(q[1])) % 2 == 0]
    odd = [q for q in pairs if (first.parity(q[0]) + second.parity(q[1])) % 2 == 1]
    return even + odd


def tensor_space(first: SuperSpace, second: SuperSpace) -> SuperSpace:
    if first.field != second.field:
        raise ValidationError(["tensor factors use different scalar fields"])
    pairs = tensor_pairs(first, second)
    n0 = sum(
        1 for i, j in pairs if (first.parity(i) + second.parity(j)) % 2 == 0
    )
    return SuperSpace(first.field, n0, len(pairs) - n0)


def tensor_map(f: EvenMap, g: EvenMap) -> EvenMap:
    """f tensor g on the flattened tensor basis (same pairing as tensor_alt)."""
    dom = tensor_space(f.domain, g.domain)
    cod = tensor_space(f.codomain, g.codomain)
    dom_index = {q: b for b, q in enumerate(tensor_pairs(f.domain, g.domain))}
    cod_index = {q: a for a, q in enumerate(tensor_pairs(f.codomain, g.codomain))}
    return EvenMap.from_entries(
        dom,
        cod,
        [
            (cod_index[k, l], dom_index[i, j], fv * gv)
            for k, i, fv in f.sparse_entries()
            for l, j, gv in g.sparse_entries()
        ],
    )


def tensor_alt(c: HomAlgebra, b: HomAlgebra) -> HomAlgebra:
    """(x tensor a)(y tensor b) = (-1)^(parity(a) parity(y)) (x y) tensor (a b),
    twist alpha tensor alpha'.

    Requires the first factor super-commutative and hom-associative and the
    second hom-alternative; the product is then hom-alternative again."""
    _require("tensor_alt", check_product_law(c, "super-commutative"))
    _require("tensor_alt", check_product_law(c, "hom-associative"))
    _require("tensor_alt", check_product_law(b, "hom-alternative"))
    sp = tensor_space(c.space, b.space)
    index = {q: a for a, q in enumerate(tensor_pairs(c.space, b.space))}
    pb, pc = b.space.parity, c.space.parity
    entries = [
        (index[i, a], index[j, bb], index[k, l], -cv * bv if pb(a) and pc(j) else cv * bv)
        for i, j, k, cv in c.mu.sparse_entries()
        for a, bb, l, bv in b.mu.sparse_entries()
    ]
    return HomAlgebra(
        EvenBilinear.from_entries(sp, sp, sp, entries),
        tensor_map(c.alpha, b.alpha),
        name=f"tensor({c.name},{b.name})",
    )


def centroid_twist(a: HomAlgebra, beta: EvenMap) -> HomAlgebra:
    """New product beta(x y), same twist.  beta must pass the centroid check."""
    _require("centroid_twist", check_operator(OperatorSpec("centroid", beta), a))
    return HomAlgebra(
        a.mu.post_compose(beta),
        a.alpha,
        name=f"centroid-twist({a.name})",
    )


def averaging_product(a: HomAlgebra, d: EvenMap) -> HomAlgebra:
    """New product x d(y), same twist.  d must pass the two-sided averaging check."""
    _require("averaging_product", check_operator(OperatorSpec("averaging", d), a))
    return HomAlgebra(
        a.mu.pre_compose_right(d),
        a.alpha,
        name=f"averaging({a.name})",
    )


def rb_split(a: HomAlgebra, r: EvenMap) -> HomPreAlgebra:
    """Splitting through a weight-0 Rota-Baxter operator:
    x prec y = x R(y), x succ y = R(x) y, same twist.

    Requires a hom-alternative and R a twist-commuting weight-0 operator."""
    _require("rb_split", check_product_law(a, "hom-alternative"))
    _require(
        "rb_split",
        check_operator(OperatorSpec("rota-baxter", r, weight=a.space.field.zero), a),
    )
    return HomPreAlgebra(
        a.mu.pre_compose_right(r),
        a.mu.pre_compose_left(r),
        a.alpha,
        name=f"rb-split({a.name})",
    )


def yau_twist(p: HomPreAlgebra, beta: EvenMap) -> HomPreAlgebra:
    """Products beta(x prec y), beta(x succ y); twist beta o alpha.

    beta must be a strict endomorphism of the pre-structure."""
    _require("yau_twist", check_morphism(beta, p, p, weak=False))
    return HomPreAlgebra(
        p.prec.post_compose(beta),
        p.succ.post_compose(beta),
        beta.compose(p.alpha),
        name=f"yau-twist({p.name})",
    )


def derived_n(p: HomPreAlgebra, n: int) -> HomPreAlgebra:
    """n-th derived structure: products alpha^(2^n - 1)(x prec y) and
    alpha^(2^n - 1)(x succ y), twist alpha^(2^n).

    Requires a multiplicative instance (the twist is a strict endomorphism)."""
    if not isinstance(n, int) or n < 1:
        raise ValidationError([f"derived power must be a positive integer, got {n!r}"])
    if n > DERIVED_N_CAP:
        raise ValidationError([f"derived power {n} exceeds cap {DERIVED_N_CAP}"])
    _require("derived_n", check_morphism(p.alpha, p, p, weak=False))
    m = p.alpha.power(2**n - 1)
    return HomPreAlgebra(
        p.prec.post_compose(m),
        p.succ.post_compose(m),
        p.alpha.power(2**n),
        name=f"derived-{n}({p.name})",
    )


def scale(p: HomPreAlgebra, lam) -> HomPreAlgebra:
    """Both products scaled by the same scalar, twist unchanged."""
    lam = p.space.field.coerce(lam)
    return HomPreAlgebra(
        p.prec.scaled(lam),
        p.succ.scaled(lam),
        p.alpha,
        name=f"scale({p.name})",
    )
