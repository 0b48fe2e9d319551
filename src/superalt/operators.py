"""Operator equation checks and exact pruned operator search.

Operator kinds on an algebra (A, mu, alpha), all required to commute with
the twist:

  rota-baxter (weight w):  R(x) R(y) = R(R(x) y + x R(y) + w x y)
  averaging-left:          b(x) b(y) = b(b(x) y)
  averaging-right:         b(x) b(y) = b(x b(y))
  averaging:               both averaging identities
  centroid:                b(x y) = b(x) y = x b(y)
  endomorphism:            b(x y) = b(x) b(y)  (strict: also twist-commuting)

An o-operator T: V -> A over a bimodule (V, L, R, beta) of (A, o, alpha)
satisfies T(u) o T(v) = T(L(T u) v + R(T v) u) and T beta = alpha T.

search_operators walks one mixed-radix counter depth first, the radix
order of enumerate_even_maps or the order of
enumerate_signed_permutation_maps, and skips every subtree on which an
operator equation already fails.  The contract is that of checking each
candidate in turn: found lists every passing map in counter order, a
skipped subtree counts all of its candidates as checked, and a budget
bounds the counter, so candidates_checked is min(budget, space size).
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from .core import EvenMap, SuperSpace, ValidationError, _Poly, _poly_column_applier, _rref
from .fields import PrimeField
from .laws import (
    HomAlgebra,
    HomPreAlgebra,
    LawReport,
    _basis_points,
    _intertwining_group,
    _morphism_groups,
    _Polynomials,
    _require,
    _run_groups,
)

if TYPE_CHECKING:  # only for annotations; bimodules imports this module
    from .bimodules import AltBimodule

_log = logging.getLogger("superalt")

OPERATOR_KINDS = (
    "rota-baxter",
    "averaging-left",
    "averaging-right",
    "averaging",
    "centroid",
    "endomorphism",
    "o-operator",
)


@dataclass
class OperatorSpec:
    kind: str
    map: EvenMap
    weight: object = None  # scalar, rota-baxter only
    bimodule: object = None  # AltBimodule, o-operator only

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise ValidationError([f"unknown operator kind {self.kind!r}"])
        _check_options(self.kind, self.weight, self.bimodule)


def _check_options(kind: str, weight, bimodule, a=None):
    """Refuse a weight or a bimodule that the kind does not take, a bimodule
    over a pre-structure (an o-operator's bimodule is an alt-bimodule), and
    a bimodule whose base is not the instance a (when a is given)."""
    if (weight is not None) != (kind == "rota-baxter"):
        raise ValidationError(["weight is given exactly for rota-baxter operators"])
    if (bimodule is not None) != (kind == "o-operator"):
        raise ValidationError(["bimodule is given exactly for o-operators"])
    if bimodule is not None and not isinstance(bimodule.base, HomAlgebra):
        raise ValidationError(["an o-operator's bimodule must be an alt-bimodule"])
    if bimodule is not None and a is not None and bimodule.base != a:
        raise ValidationError(["the bimodule's base is not the instance"])


# Operator equations as residuals (mu, R, weight, x, y) -> vector.  A kind
# with two equations scans them as two identities named "equation", so the
# report names the first nonzero one.


def _rota_baxter(mu, R, w, x, y):
    inner = mu(R(x), y) + mu(x, R(y))
    if w:
        inner = inner + mu(x, y).scaled(w)
    return mu(R(x), R(y)) - R(inner)


def _averaging_left(mu, R, w, x, y):
    return mu(R(x), R(y)) - R(mu(R(x), y))


def _averaging_right(mu, R, w, x, y):
    return mu(R(x), R(y)) - R(mu(x, R(y)))


def _centroid_left(mu, R, w, x, y):
    return R(mu(x, y)) - mu(R(x), y)


def _centroid_right(mu, R, w, x, y):
    return R(mu(x, y)) - mu(x, R(y))


_EQUATIONS = {
    "rota-baxter": (_rota_baxter,),
    "averaging-left": (_averaging_left,),
    "averaging-right": (_averaging_right,),
    "averaging": (_averaging_left, _averaging_right),
    "centroid": (_centroid_left, _centroid_right),
}


def check_operator(spec: OperatorSpec, a) -> LawReport:
    """Check the operator equations of spec.kind on instance a.

    a is a HomAlgebra for all kinds except that endomorphism also accepts a
    HomPreAlgebra (both products must then be preserved); an o-operator's
    bimodule must have a as its base."""
    if spec.kind == "o-operator":
        _check_options(spec.kind, spec.weight, spec.bimodule, a)
    w = a.space.field.coerce(spec.weight) if spec.kind == "rota-baxter" else None
    return _run_groups(spec.kind, _groups(spec.kind, a, spec.map, w, spec.bimodule))


def _groups(kind: str, a, m, w, bimodule):
    """The scan groups of the operator equations of m, as a function of the binder."""
    if kind == "o-operator":
        return functools.partial(_o_operator_groups, m, bimodule)
    return functools.partial(_operator_groups, kind, a, m, w)


def _operator_groups(kind: str, a, m, w, bind):
    """The scan groups of check_operator for a self-map kind, with m bound by bind."""
    if kind != "endomorphism" and not isinstance(a, HomAlgebra):
        raise ValidationError([f"{kind} operators are checked on a single-product instance"])
    if m.domain != a.space or m.codomain != a.space:
        raise ValidationError(["operator must be an even self-map of the instance"])
    if kind == "endomorphism":
        return _morphism_groups(m, a, a, weak=False, bind=bind)
    if kind not in _EQUATIONS:
        raise ValidationError([f"unknown operator kind {kind!r}"])
    mu, R = bind(a.mu), bind(m)

    def on_pair(equation):
        return lambda pts: equation(mu, R, w, pts[0][0], pts[1][0])

    points = _basis_points(a.space, bind.basis)
    return [
        ([points, points], [("equation", on_pair(eq)) for eq in _EQUATIONS[kind]]),
        _intertwining_group(m, a.alpha, a.alpha, "twist-commuting", bind),
    ]


def _o_operator_equation(mu, L, R, T, u, v):
    return mu(T(u), T(v)) - T(L(T(u), v) + R(u, T(v)))


def check_o_operator(t: EvenMap, m: "AltBimodule") -> LawReport:
    """T(u) o T(v) = T(L(T u) v + R(T v) u) on basis pairs of V, plus
    T beta = alpha T."""
    return check_operator(OperatorSpec("o-operator", t, bimodule=m), m.base)


def _o_operator_groups(t, m: "AltBimodule", bind):
    """The scan groups of check_o_operator, with t bound by bind."""
    a = m.base
    if t.domain != m.module or t.codomain != a.space:
        raise ValidationError(["o-operator must map the module into the algebra"])
    mu, L, R, T = bind(a.mu), bind(m.lsucc), bind(m.rprec), bind(t)

    def equation(pts):
        (u, _), (v, _) = pts
        return _o_operator_equation(mu, L, R, T, u, v)

    points = _basis_points(m.module, bind.basis)
    return [
        ([points, points], [("equation", equation)]),
        _intertwining_group(t, m.beta, a.alpha, "twist-intertwining", bind),
    ]


@dataclass
class OInduced:
    """Result of transporting an o-operator into pre-structures.

    Both reports are read off the passing o-operator check, whose scan they
    would repeat.  Kernel absorbance: for k in ker T the o-operator equation
    at (k, v) reads 0 = T(k prec v), and at (v, k) it reads 0 = T(v succ k);
    so it passes, and counts both products for every (kernel basis vector,
    basis vector) pair.  Morphism: T(u o v) - T(u) T(v) is minus the
    o-operator residual at (u, v), and the twist groups are the same group."""

    pre: HomPreAlgebra  # on the module V, twist beta
    image: HomPreAlgebra  # on the image basis T(V) inside A, twist alpha restricted
    image_columns: list  # module basis indices whose T-images form the image basis
    independence: LawReport  # kernel absorbance of the induced products
    morphism: LawReport  # T as a map (V, o, beta) -> (A, mu, alpha)


def o_induced(t: EvenMap, m: "AltBimodule") -> OInduced:
    """Induced pre-structure u prec v = R(T v) u, u succ v = L(T u) v on V,
    and its transport onto the image basis of T inside A.

    Raises only if the o-operator check fails.  One row reduction of T
    gives the image basis, the earliest independent images T u_c (c the
    pivot columns), and S: V -> T(V), T written in that basis (the first
    rows of the reduced matrix); E sends image basis k to u_(c_k).  The
    image products are S(E x * E y), and the image twist, alpha on T(V), is
    S beta E, since alpha T = T beta passed as the twist-intertwining group.
    So no transported product or twist can leave the image."""
    o_report = check_o_operator(t, m)
    _require("o_induced", o_report)
    V = m.module

    # induced products on V: u prec v = R(T v) u, u succ v = L(T u) v
    pre = HomPreAlgebra(
        m.rprec.pre_compose_right(t), m.lsucc.pre_compose_left(t), m.beta, name="o-induced"
    )
    rows = [list(row) for row in t.entries]
    cols = _rref(rows, V.dim)
    r = len(cols)
    # V is even-first, so the pivot columns are even-first too
    n0 = sum(1 for j in cols if V.parity(j) == 0)
    img = SuperSpace(V.field, n0, r - n0)
    S = EvenMap.from_entries(V, img, [(k, j, v) for k in range(r) for j, v in enumerate(rows[k])])
    E = EvenMap.from_entries(img, V, [(c, k, V.field.one) for k, c in enumerate(cols)])

    def transported(product):
        return product.post_compose(S).pre_compose_left(E).pre_compose_right(E)

    image = HomPreAlgebra(
        transported(pre.prec),
        transported(pre.succ),
        S.compose(m.beta).compose(E),
        name="o-induced-image",
    )
    return OInduced(
        pre=pre,
        image=image,
        image_columns=cols,
        independence=LawReport("representation-independence", True, 2 * (V.dim - r) * V.dim),
        morphism=replace(o_report, law="morphism"),
    )


@dataclass
class SearchResult:
    kind: str
    found: list  # EvenMap instances, in discovery order
    candidates_checked: int
    exhausted: bool  # False when the budget cut the enumeration short
    space_size: int


def _even_positions(codomain: SuperSpace, domain: SuperSpace) -> list[tuple[int, int]]:
    return [
        (i, j)
        for i in codomain.indices()
        for j in domain.indices()
        if codomain.parity(i) == domain.parity(j)
    ]


def enumerate_even_maps(
    domain: SuperSpace, codomain: Optional[SuperSpace] = None, budget: Optional[int] = None
):
    """All even maps domain -> codomain over F_p in row-major radix-p order.

    The free entries, read row-major, are the digits of a base-p counter
    with the last entry least significant."""
    codomain = codomain or domain
    field = domain.field
    if not isinstance(field, PrimeField):
        raise ValidationError(["exhaustive map enumeration needs a finite scalar field"])
    p = field.p
    positions = _even_positions(codomain, domain)
    npos = len(positions)
    total = p**npos
    limit = total if budget is None else min(budget, total)
    for counter in range(limit):
        entries = []
        rem = counter
        for pos in range(npos - 1, -1, -1):
            rem, digit = divmod(rem, p)
            if digit:
                entries.append((*positions[pos], digit))
        yield EvenMap.from_entries(domain, codomain, entries)


def enumerate_signed_permutation_maps(space: SuperSpace):
    """Even maps sending each basis vector to +-(a basis vector of the same
    parity), in lexicographic (even perm, odd perm, sign pattern) order."""
    if not isinstance(space.field, PrimeField):
        raise ValidationError(["signed permutation enumeration needs a finite scalar field"])
    n0, n = space.even, space.dim
    for pe in itertools.permutations(range(n0)):
        for po in itertools.permutations(range(n0, n)):
            for signs in itertools.product((1, -1), repeat=n):
                yield EvenMap.from_entries(space, space, list(zip(pe + po, range(n), signs)))


def search_operators(
    a,
    kind: str,
    weight=None,
    budget: Optional[int] = None,
    signed_perms: bool = False,
    bimodule=None,
) -> SearchResult:
    """Exact search for operators of the given kind over F_p.

    The candidates are the even maps in the radix order of
    enumerate_even_maps or, with signed_perms, the signed permutation maps
    in the order of enumerate_signed_permutation_maps; budget, when given,
    bounds the counter, so candidates_checked is min(budget, space_size) and
    exhausted says whether the budget covered the whole space.  Each residual
    coordinate of the operator equations on basis pairs is bound once as a
    polynomial in the map entries.  One walk serves both spaces: it takes
    the counter's digits (an entry, or a column's image or sign) depth
    first, most significant first, tests each polynomial at the step that
    decides its last entry, and skips a subtree on which one fails, its
    candidates below the budget counting as checked.  So found holds
    exactly the maps passing check_operator, in counter order.  Refused:
    rational instances (infinite spaces), the options _check_options
    refuses, and signed_perms for o-operators."""
    field = a.space.field
    if not isinstance(field, PrimeField):
        raise ValidationError(["operator search requires an F_p instance"])
    if budget is not None and budget < 0:
        raise ValidationError([f"search budget must be at least 0, got {budget}"])
    if kind == "rota-baxter" and weight is None:
        weight = 0
    _check_options(kind, weight, bimodule, a)
    if signed_perms and kind == "o-operator":
        raise ValidationError(["signed permutation search needs a self-map kind"])
    w = field.coerce(weight) if kind == "rota-baxter" else None
    domain = bimodule.module if kind == "o-operator" else a.space
    positions = _even_positions(a.space, domain)
    p, n = field.p, len(positions)
    radices, steps, bind = (_signed_counter(a.space, positions, p) if signed_perms
                            else ([p] * n, range(n), None))
    space_size = math.prod(radices)
    limit = space_size if budget is None else min(budget, space_size)
    if not signed_perms:
        # radix counters below limit leave all but the last `live` digits at 0
        live = next(k for k in range(n + 1) if p**k >= limit)
        positions, radices, steps = positions[n - live:], radices[:live], range(live)
    start = time.perf_counter()
    unknown = _FreeMap(domain, a.space, positions)
    # the bound groups and their binder's memos are garbage once filed
    build = _groups(kind, a, unknown, w, bimodule)
    by_step = _file_polynomials(build(_Polynomials()), steps, len(radices), p)
    bound_s = time.perf_counter() - start

    start = time.perf_counter()
    stats = _SearchStats()
    found = [
        EvenMap.from_entries(domain, a.space,
                             [(i, j, d) for (i, j), d in zip(unknown.free, digits) if d])
        for digits in _backtrack(by_step, radices, p, limit, stats, bind)
    ]
    _log.debug(
        "%s search: %d polynomials bound in %.6f s; %d nodes visited, %d subtrees pruned, "
        "%d candidates disposed of by pruning, %d found in %.6f s",
        kind, sum(map(len, by_step)), bound_s, stats.nodes, stats.pruned, stats.disposed,
        len(found), time.perf_counter() - start,
    )
    return SearchResult(kind, found, stats.disposed + len(found), limit == space_size, space_size)


# A search binds on the polynomial binder (laws._Polynomials) over F_p: its
# coordinates are ints (constants) or _Poly values, polynomials in the free
# entries x_0, x_1, ... of one unknown even map.  Every product and twist is
# applied by its own table applier; only the unknown map's columns hold
# variables.  One evaluation of the operator equations on basis points so
# gives each residual coordinate as a polynomial in the entries of the map.
# A monomial packs the exponent of x_v in byte v: every operator equation
# has degree at most 2 in the map, so no exponent carries into the next.
EXPONENT_BITS = 8


class _FreeMap:
    """An even map domain -> codomain whose entries at the free positions are
    the unknowns x_0, x_1, ... in the order given; every other entry is 0."""

    __slots__ = ("domain", "codomain", "free")

    def __init__(self, domain: SuperSpace, codomain: SuperSpace, free):
        self.domain = domain
        self.codomain = codomain
        self.free = tuple(free)

    def _poly_applier(self):
        cols = [[] for _ in self.domain.indices()]
        for var, (i, j) in enumerate(self.free):
            cols[j].append((i, ((1 << EXPONENT_BITS * var, 1),)))
        return _poly_column_applier(cols, self.codomain)


def _file_polynomials(groups, steps, nsteps: int, p: int) -> list:
    """Every residual coordinate of the groups on their basis tuples that is
    nonzero in normal form (_Poly.normal), made monic and stored once as a
    tuple of (coefficient, monomial) terms.

    Entry k of the result lists the polynomials whose last entry is decided
    by step k of the walk, steps[v] being the step that decides x_v; the
    last entry, index -1, lists the nonzero constants."""
    by_step = [set() for _ in range(nsteps + 1)]
    for slots, idfns in groups:
        for pts in itertools.product(*slots):
            for _, fn in idfns:
                for poly in fn(pts):
                    if poly := _Poly.normal(poly, p):
                        terms = sorted((_variables(m), c) for m, c in poly.items())
                        inv = pow(terms[0][1], p - 2, p)
                        last = max((steps[v] for mono, _ in terms for v in mono), default=-1)
                        by_step[last].add(tuple((c * inv % p, mono) for mono, c in terms))
    return [sorted(polys) for polys in by_step]


def _variables(mono: int) -> tuple:
    """The sorted variables of a packed monomial, each repeated by its exponent."""
    out = []
    var, mask = 0, (1 << EXPONENT_BITS) - 1
    while mono:
        out += [var] * (mono & mask)
        mono >>= EXPONENT_BITS
        var += 1
    return tuple(out)


@dataclass
class _SearchStats:
    nodes: int = 0  # the root (constants), then each step's digit: an entry, an image or a sign
    pruned: int = 0  # subtrees skipped, leaves included
    disposed: int = 0  # candidates below the limit inside those subtrees


def _vanish(polys, entries, p) -> bool:
    for terms in polys:
        total = 0
        for c, mono in terms:
            for v in mono:
                c *= entries[v]
            total += c
        if total % p:
            return False
    return True


def _backtrack(by_step, radices, p: int, limit: int, stats: _SearchStats, bind=None):
    """Yield, in counter order, the entry tuples of the counters below limit
    on which every polynomial of by_step vanishes.

    Step k takes digit k, below radices[k], most significant first: the
    entry x_k itself, or the entries that bind(k, digit) sets in the list
    it returns.  A node taking step k tests the polynomials filed under k,
    and on a failure its whole subtree of candidates is skipped.  Iterative,
    so the number of steps is not bounded by the recursion limit."""
    if limit <= 0:
        return
    stats.nodes += 1
    if not _vanish(by_step[-1], (), p):
        stats.pruned += 1
        stats.disposed += limit
        return
    nsteps = len(radices)
    if nsteps == 0:
        yield ()
        return
    weights = [math.prod(radices[k + 1:]) for k in range(nsteps)]
    entries = digits = [0] * nsteps
    k = base = 0  # base: the counter of the first candidate below the node
    while True:
        stats.nodes += 1
        if bind:
            entries = bind(k, digits[k])
        if not _vanish(by_step[k], entries, p):
            stats.pruned += 1
            stats.disposed += min(weights[k], limit - base)
        elif k == nsteps - 1:
            yield tuple(entries)
        else:
            k += 1
            continue
        while digits[k] == radices[k] - 1:
            base -= digits[k] * weights[k]
            digits[k] = 0
            k -= 1
            if k < 0:
                return
        digits[k] += 1
        base += weights[k]
        if base >= limit:
            return


def _signed_counter(space: SuperSpace, positions, p: int):
    """The counter of enumerate_signed_permutation_maps over the entries at
    positions: step j < n picks column j's image among the unused basis
    vectors of its parity (the Lehmer digits of the even, then the odd
    permutation), step n + j its sign, + first (entry 1, then p - 1).
    Returns the radices, the step deciding each entry, and the bind."""
    n0, n = space.even, space.dim
    var = {pos: v for v, pos in enumerate(positions)}
    entries, images = [0] * len(positions), list(range(n))

    def bind(k, digit):
        if k < n:
            block = range(n0) if k < n0 else range(n0, n)
            entries[var[images[k], k]] = 0
            images[k] = [i for i in block if i not in images[:k]][digit]
        else:
            entries[var[images[k - n], k - n]] = p - 1 if digit else 1
        return entries

    radices = [n0 - j if j < n0 else n - j for j in range(n)] + [2] * n
    return radices, [n + j for _, j in positions], bind
