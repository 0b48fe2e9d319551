"""Instance types and exhaustive law checking with counterexample reports.

Every law is a finite list of multilinear identities.  Multilinearity makes
basis-tuple verification complete: a check decides every homogeneous basis
tuple, and reports the first nonzero residual in lexicographic order as a
witness.  It gets there one of two ways, chosen per group of identities by
one cost rule (_evaluation) from the group's size and the fill of its
tables: the tuple scan evaluates the tuples one by one, and the contraction
evaluates the identities once per block of parities on generic points,
whose residual polynomials list every tuple of the block.  Both report the
same witness, count and residual.  Koszul signs are computed from the
parities carried alongside each argument, giving a single code path for
basis vectors, generic points and general homogeneous elements.

An identity may declare a permutation of its slots under which it is
invariant up to sign (left-alt under x <-> y, jordan under the rotation of
its cycled slots).  It then fails at a tuple iff it fails at every image of
the tuple, so its least failure is at a tuple least in its orbit, and both
ways evaluate it only at such tuples (or at a superset of them).  The one
condition: the permuted slots range over the same points.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import operator
import os
import time
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .core import (
    EvenBilinear,
    EvenMap,
    SuperSpace,
    ValidationError,
    Vector,
    _Poly,
    _sparse_vector,
    _TableVector,
)

Point = tuple[Vector, int]  # homogeneous element with its parity


class HomAlgebra:
    """(A, mu, alpha): one even product and an even self-map on one space."""

    __slots__ = ("space", "mu", "alpha", "name")
    # (attribute, document key) of each product, in constructor order
    PRODUCTS = (("mu", "product"),)

    def __init__(self, mu: EvenBilinear, alpha: EvenMap, name: str = ""):
        if not (mu.left == mu.right == mu.out):
            raise ValidationError(["product must map A x A -> A on a single space"])
        if alpha.domain != mu.out or alpha.codomain != mu.out:
            raise ValidationError(["twist must be an even self-map of the same space"])
        self.space = mu.out
        self.mu = mu
        self.alpha = alpha
        self.name = name

    def __eq__(self, other):
        if not isinstance(other, HomAlgebra):
            return NotImplemented
        return self.mu == other.mu and self.alpha == other.alpha

    def __repr__(self):
        return f"HomAlgebra({self.name or self.space.dims})"


class HomPreAlgebra:
    """(A, prec, succ, alpha): two even products whose sum is the circle product."""

    __slots__ = ("space", "prec", "succ", "alpha", "name", "_circ")
    PRODUCTS = (("prec", "prec"), ("succ", "succ"))

    def __init__(self, prec: EvenBilinear, succ: EvenBilinear, alpha: EvenMap, name: str = ""):
        if not (prec.left == prec.right == prec.out):
            raise ValidationError(["prec product must map A x A -> A on a single space"])
        if (succ.left, succ.right, succ.out) != (prec.left, prec.right, prec.out):
            raise ValidationError(["prec and succ products must share one space"])
        if alpha.domain != prec.out or alpha.codomain != prec.out:
            raise ValidationError(["twist must be an even self-map of the same space"])
        self.space = prec.out
        self.prec = prec
        self.succ = succ
        self.alpha = alpha
        self.name = name
        self._circ = None

    def circ(self) -> EvenBilinear:
        """x o y = x prec y + x succ y, computed on demand and cached."""
        if self._circ is None:
            self._circ = self.prec + self.succ
        return self._circ

    def __eq__(self, other):
        if not isinstance(other, HomPreAlgebra):
            return NotImplemented
        return self.prec == other.prec and self.succ == other.succ and self.alpha == other.alpha

    def __repr__(self):
        return f"HomPreAlgebra({self.name or self.space.dims})"


class HypothesisError(ValueError):
    """A construction or transport refused because a hypothesis check failed."""

    def __init__(self, operation: str, report: "LawReport"):
        self.operation = operation
        self.report = report
        super().__init__(f"{operation}: hypothesis check failed ({report.law})")


def _require(op: str, report: "LawReport"):
    """Refuse op with the report unless its check passed."""
    if not report.passed:
        raise HypothesisError(op, report)


# Binders.  Each identity closure is written once, over appliers that a
# binder makes from the tensors and maps it reads.  A binder only compiles
# each tensor once and memoises its applier; its points are those that
# _basis_points builds from its basis function.  The scan engine makes the
# binders a check evaluates on (_run_groups): a table binder per check, and
# a polynomial binder once a group contracts; it times their builds and
# counts their memo hits.  Appliers read the sparse tables (see core, "Table
# evaluation"), each applier and associator memoised by one memo
# (_Tables.memoised, a functools.lru_cache) on its arguments: a tuple scan
# on the table binder, whose vectors are sparse and canonical
# (core._SparseVector), so the memo keys on their values, for that check; a
# contraction on the polynomial binder, whose dense vectors
# (core._TableVector) hash by identity, so the memo keys on the argument
# objects, within one slot-0 slice, their coordinates being polynomials in
# the coordinates of generic points.  The reference binder evaluates on
# Vectors through EvenBilinear.apply and EvenMap.apply; it recomputes the
# residual at every hit.  An operator search makes its own polynomial
# binder, over F_p, its polynomials being in the entries of an unknown map
# (see operators._FreeMap).  No binder holds a field: a sparse vector's
# class carries its characteristic, and polynomial values are held raw,
# residues unreduced and cancelled terms kept (see core._Poly); they are
# normalized once, where they are read: the contraction's witness and the
# search's filing.  A sparse vector is normalized when it is made, since
# its hash is its value.


class _Reference:
    basis = staticmethod(Vector.basis)

    def __call__(self, t):
        return t.apply

    @staticmethod
    def memoised(fn):
        return fn


REFERENCE = _Reference()


class _Tables:
    """The table binder: one applier per tensor or map, compiled at its first
    binding and memoised on argument values.  Its basis points are sparse
    table vectors.  _run_groups makes one per check, and check_pre_law one
    that its census shares."""

    KERNEL = "_table_applier"  # the method that compiles a tensor's applier

    def __init__(self):
        self.bound = {}  # id(t) -> (t, applier); t is kept so its id stays its own
        self.memos = []

    def __call__(self, t):
        hit = self.bound.get(id(t))
        if hit is None:
            hit = self.bound[id(t)] = t, self.memoised(getattr(t, self.KERNEL)())
        return hit[1]

    @staticmethod
    def basis(space: SuperSpace, i: int):
        return _sparse_vector(space.field.char, space.dim)(((i, 1),))

    def memoised(self, fn):
        """fn memoised on its arguments, listed in memos (see MEMO_LIMIT)."""
        memo = functools.lru_cache(maxsize=MEMO_LIMIT)(fn)
        self.memos.append(memo)
        return memo


class _Polynomials(_Tables):
    """The table binder for coordinates that may be polynomials (core._Poly).

    Its vectors, basis points included, are dense _TableVectors over every
    field, their coordinates raw (see core._Poly): only the reads normalize.
    A _TableVector hashes by identity, so the memo keys on the argument
    objects, which a key holds: no id in it can be reused while the entry
    lives.  The closures pass the points of a tuple and earlier memoised
    results as arguments, so a repeated subexpression over them is computed
    once; an argument built on the spot, such as a sum, is a new object and
    misses.  While the superalt logger prints DEBUG lines, terms counts the
    raw terms of every vector a miss computed.  search_operators makes one
    to bind an unknown map (see operators._FreeMap), for one pass over the
    basis tuples; _run_groups makes one for a check once a group contracts,
    and evaluates the group on generic points through it (see _contract).
    Its appliers are the fused kernels (_poly_applier), which build no
    intermediate polynomial per structure constant."""

    KERNEL = "_poly_applier"

    def __init__(self):
        super().__init__()
        self.terms = 0

    def memoised(self, fn):
        if not _log.isEnabledFor(logging.DEBUG):
            return super().memoised(fn)

        def counted(*args):  # inside the memo, so only misses count
            r = fn(*args)
            self.terms += sum(len(c) if type(c) is _Poly else c != 0 for c in r)
            return r

        return super().memoised(counted)

    @staticmethod
    def basis(space: SuperSpace, i: int):
        return _TableVector([int(i == j) for j in space.indices()])


# A full memo evicts its least recently used entry to store the next, so the
# late tuples of a dense group still meet their neighbours' entries.  Dense
# groups fill every memo, so the limit bounds a scan's memory; each entry
# holds a link besides its key and result.
MEMO_LIMIT = 1 << 12


def signed(v: Vector, exponent: int) -> Vector:
    return v if exponent % 2 == 0 else -v


def hom_associator(a: HomAlgebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """as(x, y, z) = (x y) alpha(z) - alpha(x) (y z)."""
    return _associator(a.mu.apply, a.alpha.apply)(x, y, z)


def _associator(mu, al):
    """hom_associator over the appliers of a product and a twist."""

    def asso(x, y, z):
        return mu(mu(x, y), al(z)) - mu(al(x), mu(y, z))

    return asso


def pre_associator(p: HomPreAlgebra, kind: int, x: Vector, y: Vector, z: Vector) -> Vector:
    """Component associators of a pre-structure.

    kind 1: (x o y) succ alpha(z) - alpha(x) succ (y succ z)
    kind 2: (x succ y) prec alpha(z) - alpha(x) succ (y prec z)
    kind 3: (x prec y) prec alpha(z) - alpha(x) prec (y o z)
    """
    components = dict(zip((1, 2, 3), _pre_components(p)))
    if kind not in components:
        raise ValidationError([f"pre-associator kind must be 1, 2 or 3, got {kind}"])
    return components[kind](x, y, z)


def _pre_components(p: HomPreAlgebra, bind=REFERENCE):
    """The three component associators of pre_associator, bound to p."""
    pr, su, ci, al = bind(p.prec), bind(p.succ), bind(p.circ()), bind(p.alpha)

    def kind1(x, y, z):
        return su(ci(x, y), al(z)) - su(al(x), su(y, z))

    def kind2(x, y, z):
        return pr(su(x, y), al(z)) - su(al(x), pr(y, z))

    def kind3(x, y, z):
        return pr(pr(x, y), al(z)) - pr(al(x), ci(y, z))

    return bind.memoised(kind1), bind.memoised(kind2), bind.memoised(kind3)


@dataclass
class LawReport:
    """Outcome of one exhaustive check.

    checked counts basis tuples in scan order up to and including the witness
    (all tuples when the check passes), so it is independent of worker count.
    """

    law: str
    passed: bool
    checked: int
    witness: Optional[tuple[int, ...]] = None
    witness_parities: Optional[tuple[int, ...]] = None
    identity: Optional[str] = None
    residual: Optional[tuple] = None
    extra: dict = dc_field(default_factory=dict)

    def to_json_dict(self, field) -> dict:
        d = {
            "law": self.law,
            "passed": self.passed,
            "checked": self.checked,
        }
        if not self.passed:
            d["witness"] = list(self.witness)
            d["witness_parities"] = list(self.witness_parities)
            d["identity"] = self.identity
            d["residual"] = [field.to_json(v) for v in self.residual]
        if self.extra:
            d["extra"] = self.extra
        return d


# Product-law identity tables.  Each identity is (name, arity, fn) or
# (name, arity, fn, perm), where fn consumes a tuple of (vector, parity)
# points and returns the residual vector, and perm, when given, is a
# permutation of the slots that changes the residual by a sign at most:
# fn(pts) = +-fn(tuple(pts[s] for s in perm)).  Every identity that sums a
# term over its images under the powers of a slot permutation is built by
# _polarized, which writes the Koszul sign of each image and declares the
# permutation as its perm; the bimodule axioms are these identities on a
# split null extension (see bimodules._DERIVATIONS).

PRODUCT_LAWS = (
    "hom-associative",
    "left-hom-alternative",
    "right-hom-alternative",
    "hom-alternative",
    "hom-flexible",
    "super-commutative",
    "hom-jordan",
    "multiplicative",
)

PRE_LAWS = (
    "hom-prealternative",
    "left-prealternative",
    "right-prealternative",
    "flexible-prealternative",
)

JORDAN_CYCLES = ("xyz", "xyt", "xzt")

# The slot symmetries of the polarized identities.
SWAP_XY, SWAP_YZ, SWAP_XZ = (1, 0, 2), (0, 2, 1), (2, 1, 0)

# Calibrated against plus-algebras of the multiplicative hom-alternative
# corpus: the unique cyclic reading under which all of them pass.
DEFAULT_JORDAN_CYCLE = "xyt"

# The generator of each reading's cycle of the slots (x, y, z, t): its
# powers cycle the named triple of variables while the fourth stays fixed.
_JORDAN_GENERATORS = dict(zip(JORDAN_CYCLES, ((1, 2, 0, 3), (1, 3, 2, 0), (2, 1, 3, 0))))


def _polarized(name, perm, first, second=None, sign=1):
    """The entry of the identity first(points) + sum over the powers q of perm
    but the identity of sign (-1)^k second(the points permuted by q): the image
    of t reads t[q[s]] at slot s, and k, the Koszul sign of q, sums p_i p_j over
    the pairs of slots (i, j) it reverses.  second defaults to first; the identity
    then changes under perm by a sign alone (for sign -1, if perm is a swap), so
    the entry declares perm as its symmetry.  A single swap, of two slots or
    three, is unpacked by hand: zip would add a quarter to each evaluation of
    three slots, and a twentieth to a check of super-commutativity."""
    images = _koszul(perm, sign)
    other = first if second is None else second

    def fn(pts):
        vs, ps = zip(*pts)
        r = first(*vs)
        for image, negated in images[ps]:
            s = other(*image(vs))
            r = r - s if negated else r + s
        return r

    def swap2(pts):
        (x, px), (y, py) = pts
        ((_, negated),) = images[px, py]
        r, s = first(x, y), other(y, x)
        return r - s if negated else r + s

    def swap3(pts):
        (x, px), (y, py), (z, pz) = pts
        ((image, negated),) = images[px, py, pz]
        (u, _), (v, _), (w, _) = image(pts)
        r, s = first(x, y, z), other(u, v, w)
        return r - s if negated else r + s

    if len(_powers(perm)) == 1:
        fn = {2: swap2, 3: swap3}.get(len(perm), fn)
    return (name, len(perm), fn) if second is not None else (name, len(perm), fn, perm)


@functools.lru_cache(maxsize=64)
def _koszul(perm, sign):
    """At each tuple of parities, (image, negated) per power q of perm but the
    identity, as _powers lists them: image is q's getter, and negated says
    whether sign (-1)^k is -1 there (see _polarized).  Worked out once per perm and sign."""
    n, powers = len(perm), _powers(perm)
    reversed_pairs = [[(q[i], q[j]) for i, j in itertools.combinations(range(n), 2) if q[i] > q[j]]
                      for q in powers]
    return {p: tuple((operator.itemgetter(*q), (sum(p[i] * p[j] for i, j in pairs) + (sign < 0)) % 2)
                     for q, pairs in zip(powers, reversed_pairs))
            for p in itertools.product((0, 1), repeat=n)}


def _product_identities(a: HomAlgebra, law: str, jordan_cycle: str, bind):
    """The entries of one product law: only that law's closures are built."""
    mu, al = bind(a.mu), bind(a.alpha)
    asso = bind.memoised(_associator(mu, al))

    def associative(pts):
        (x, _), (y, _), (z, _) = pts
        return asso(x, y, z)

    def multiplicative(pts):
        (x, _), (y, _) = pts
        return al(mu(x, y)) - mu(al(x), al(y))

    def jordan():
        _, _, cycled, perm = _polarized("jordan", _JORDAN_GENERATORS[jordan_cycle],
                                        lambda x, y, z, t: asso(mu(x, y), al(z), al(t)))

        def lead_signed(pts):  # the paper's lead sign (-1)^(t(x+z)), at the points as given
            (_, px), _, (_, pz), (_, pt) = pts
            return signed(cycled(pts), pt * (px + pz))

        return ("jordan", 4, lead_signed, perm)

    # no entry reads the table: a closure over it would make a cycle, left to the collector
    table = {
        "hom-associative": lambda: [("as", 3, associative)],
        "left-hom-alternative": lambda: [_polarized("left-alt", SWAP_XY, asso)],
        "right-hom-alternative": lambda: [_polarized("right-alt", SWAP_YZ, asso)],
        "hom-alternative": lambda: [_polarized("left-alt", SWAP_XY, asso),
                                    _polarized("right-alt", SWAP_YZ, asso)],
        "hom-flexible": lambda: [_polarized("flex", SWAP_XZ, asso)],
        "super-commutative": lambda: [_polarized("supercomm", (1, 0), mu, sign=-1)],
        "multiplicative": lambda: [("mult", 2, multiplicative)],
        "hom-jordan": lambda: [_polarized("supercomm", (1, 0), mu, sign=-1), jordan()],
    }
    if law not in table:
        raise ValidationError([f"unknown product law {law!r}"])
    return table[law]()


def _pre_identities(p: HomPreAlgebra, law: str, bind):
    """The entries of one pre law: only that law's closures are built."""
    kind1, kind2, kind3 = comps = _pre_components(p, bind)
    if law == "hom-prealternative":
        return [_polarized("pa3", SWAP_XY, kind2, kind3), _polarized("pa4", SWAP_YZ, kind2, kind1),
                _polarized("pa5", SWAP_XY, kind1), _polarized("pa6", SWAP_YZ, kind3)]
    sides = {"left-prealternative": ("left", SWAP_XY), "right-prealternative": ("right", SWAP_YZ),
             "flexible-prealternative": ("flex", SWAP_XZ)}
    if law not in sides:
        raise ValidationError([f"unknown pre-algebra law {law!r}"])
    side, swap = sides[law]
    return [_polarized(f"{side}-{k}", swap, c) for k, c in enumerate(comps, 1)]


def law_identities(instance, law: str, jordan_cycle: Optional[str] = None):
    """Public access to the identity list of a law, as (name, arity, fn)
    triples, for evaluation on arbitrary homogeneous (vector, parity) points.
    These closures are the reference that every scan answers to."""
    identities = _identities(instance, law, jordan_cycle, REFERENCE)
    return [(name, arity, fn) for name, arity, fn, *_ in identities]


def _identities(instance, law, jordan_cycle, bind):
    if isinstance(instance, HomAlgebra):
        cycle = jordan_cycle or DEFAULT_JORDAN_CYCLE
        if cycle not in JORDAN_CYCLES:
            raise ValidationError([f"unknown jordan cycle {cycle!r}"])
        return _product_identities(instance, law, cycle, bind)
    if isinstance(instance, HomPreAlgebra):
        return _pre_identities(instance, law, bind)
    raise ValidationError([f"not a checkable instance: {instance!r}"])


# Scan engine.  A scan group is (slots, identities): slots holds, for each
# tuple position, the (vector, parity) points it ranges over, and identities
# is [(name, fn), ...] with fn mapping a tuple of points to its residual.
# Tuples order lexicographically over the slots, the identities of a group
# order in declared order within each tuple, and groups run in declared
# order; a group's first failure is its least (tuple, identity).  _run_groups
# is the one entry: per group, _evaluation picks the tuple scan (_scan_range,
# over a fork pool when the group is large and jobs allow) or the
# contraction (_contract), and at a hit the reference recomputes the residual.
# An identity that declares a slot symmetry is (name, fn, perm).


@functools.lru_cache(maxsize=64)
def _basis_points(space: SuperSpace, basis=Vector.basis) -> tuple[Point, ...]:
    """The basis vectors basis(space, i) of a space with their parities, built
    once per space and basis function: a binder's points are
    _basis_points(space, bind.basis)."""
    return tuple((basis(space, i), space.parity(i)) for i in space.indices())


def _law_groups(instance, law, jordan_cycle, bind):
    """Scan groups of a law's identities: one per run of equal-arity
    identities, each over the basis of the instance's space."""
    points = _basis_points(instance.space, bind.basis)
    groups = []
    for name, arity, fn, *perm in _identities(instance, law, jordan_cycle, bind):
        if groups and len(groups[-1][0]) == arity:
            groups[-1][1].append((name, fn, *perm))
        else:
            groups.append(([points] * arity, [(name, fn, *perm)]))
    return groups


def _preserves_group(f: EvenMap, src: EvenBilinear, dst: EvenBilinear, name: str, bind):
    """f(x src y) - f(x) dst f(y) on basis pairs of f's domain."""
    F, s, d = bind(f), bind(src), bind(dst)
    points = _basis_points(f.domain, bind.basis)

    def preserves(pts):
        (x, _), (y, _) = pts
        return F(s(x, y)) - d(F(x), F(y))

    return [points, points], [(name, preserves)]


def _intertwining_group(f: EvenMap, src: EvenMap, dst: EvenMap, name: str, bind):
    """f(src x) - dst(f x) on basis vectors of f's domain."""
    F, s, d = bind(f), bind(src), bind(dst)

    def intertwines(pts):
        ((x, _),) = pts
        return F(s(x)) - d(F(x))

    return [_basis_points(f.domain, bind.basis)], [(name, intertwines)]


def _images(slots, perm=None):
    """The powers of perm but the identity, as _powers lists them, or None
    when there is no perm or it carries a slot onto other points."""
    if perm is None or any(slots[s] != slots[q] for s, q in enumerate(perm)):
        return None
    return _powers(perm)


@functools.lru_cache(maxsize=64)
def _powers(perm):
    """The powers q of perm but the identity, each as the slot order its
    image reads: the image of a tuple t reads t[q[s]] at slot s."""
    images, q = [], perm
    while q != tuple(sorted(q)):
        images.append(q)
        q = tuple(q[s] for s in perm)
    return tuple(images)


def _scan_range(slots, idfns, start, stop):
    """Scan flat tuple indices [start, stop) over the product of the slots.
    Returns (hit, evaluations): hit is (flat_index, identity_position,
    residual coordinates) of the first failure or None, and evaluations
    counts the identity evaluations made.

    An identity with a symmetry is evaluated only at index tuples least in
    their orbit, none of its images (the getters of _images's slot orders)
    being less: at any other tuple a smaller image fails with it or not at
    all.  Index tuples are built only for a group that has such an identity."""
    checks = [(at, fn, [operator.itemgetter(*q) for q in _images(slots, *perm) or ()])
              for at, (_, fn, *perm) in enumerate(idfns)]
    tuples = itertools.islice(itertools.product(*slots), start, stop)
    indices = itertools.repeat(None)
    if any(getters for _, _, getters in checks):
        indices = itertools.islice(itertools.product(*(range(len(slot)) for slot in slots)),
                                   start, stop)
    evaluations = 0
    for flat, pts, idx in zip(itertools.count(start), tuples, indices):
        for at, fn, getters in checks:
            for image in getters:
                if image(idx) < idx:
                    break
            else:
                evaluations += 1
                r = fn(pts)
                if not r.is_zero():
                    return (flat, at, r.coords), evaluations
    return None, evaluations


_log = logging.getLogger("superalt")


def _run_groups(law, build, jobs=1, tables=None) -> LawReport:
    """Evaluate, in order, the groups that build(binder) lists, returning a
    LawReport.  The groups are built on a new table binder, or on tables
    when given, and once a group contracts, on a new polynomial binder
    too.  _evaluation picks, per group, the tuple scan or the contraction;
    both find the same first failure.  Each group's DEBUG line gives the
    seconds of this check's build calls so far, whatever tables held before.

    At a hit the group build(REFERENCE) lists in the same place recomputes
    the residual at the witness, which must agree with the evaluated one."""
    tables = _Tables() if tables is None else tables
    start = time.perf_counter()
    groups = build(tables)
    build_s = time.perf_counter() - start
    polynomials = None  # the groups rebuilt on a _Polynomials binder, once one contracts
    debug = _log.isEnabledFor(logging.DEBUG)
    checked_before = 0
    for g, (slots, idfns) in enumerate(groups, 1):
        total = math.prod(len(slot) for slot in slots)
        start = time.perf_counter() if debug else 0.0
        path = _evaluation(slots, tables)
        if path == "contract":
            if polynomials is None:
                building = time.perf_counter()
                binder = _Polynomials()
                polynomials = build(binder)
                build_s += time.perf_counter() - building
            terms = binder.terms
            hit, slices, evaluations, shared = _contract(slots, polynomials[g - 1][1], binder)
        else:
            hit, evaluations = _scan_parallel(slots, idfns, total, jobs)
        if debug:
            if path == "contract":
                work = f"{slices} slices, {binder.terms - terms} polynomial terms, {shared} shared"
            else:
                work = f"{sum(m.cache_info().currsize for m in tables.memos)} memo entries"
            _log.debug(
                "%s group %d/%d: %s: %d tuples in %.6f s; %d evaluations; "
                "tables built in %.6f s; %s",
                law, g, len(groups), path, total if hit is None else hit[0] + 1,
                time.perf_counter() - start, evaluations, build_s, work,
            )
        if hit is not None:
            flat, at, scanned = hit
            witness, rem = [], flat
            for slot in reversed(slots):
                rem, i = divmod(rem, len(slot))
                witness.insert(0, i)
            ref_slots, ref_idfns = build(REFERENCE)[g - 1]
            name, fn, *_ = ref_idfns[at]
            residual = fn(tuple(slot[i] for slot, i in zip(ref_slots, witness))).coords
            if residual != scanned:
                raise RuntimeError(
                    f"{law}: {name} at {tuple(witness)} evaluates to {scanned}, "
                    f"but the reference gives {residual}"
                )
            return LawReport(
                law=law,
                passed=False,
                checked=checked_before + flat + 1,
                witness=tuple(witness),
                witness_parities=tuple(slot[i][1] for slot, i in zip(slots, witness)),
                identity=name,
                residual=residual,
            )
        checked_before += total
    return LawReport(law=law, passed=True, checked=checked_before)


def _evaluation(slots, tables) -> str:
    """How _run_groups evaluates the group over slots: "contract" or "scan".

    Every slot ranges over basis points, as the binder's basis makes them,
    so the group's identities are linear in each slot (see _contract).  A
    contraction produces about fill^(arity - 1) polynomial terms per tuple,
    fill being the most nonzero constants per argument of any table bound
    in tables (per basis pair of a product, per basis vector of a map),
    while a scan's cost per tuple grows far slower with fill.  So a group is
    contracted when fill^(arity - 1) is at most CONTRACT_MAX_GROWTH and it
    has at least CONTRACT_MIN_TUPLES tuples: smaller groups are cheap either
    way, and a scan stops at an early failure sooner than a contraction
    finishes its slice."""
    if math.prod(map(len, slots)) < CONTRACT_MIN_TUPLES:
        return "scan"
    fill = max(map(_fill, (t for t, *_ in tables.bound.values())), default=0)
    return "contract" if fill ** (len(slots) - 1) <= CONTRACT_MAX_GROWTH else "scan"


def _fill(t) -> float:
    """Nonzero constants per basis pair of a product, per basis vector of a map."""
    inputs = t.left.dim * t.right.dim if isinstance(t, EvenBilinear) else t.domain.dim
    return t.nonzero_count() / max(1, inputs)


# The rule's bounds.  Timed both ways in one process, the contraction wins
# every crossover row, from the octonions' 512 hom-alternative triples at
# growth 1 to 32 768 triples at growth 3.33, and an early failure costs the
# same both ways; it wins the dense rows up to growth about 8 (ROADMAP.md,
# Baseline), so the growth bound of 2 is cautious.  The tuple bound keeps
# the many small groups on the scan: measured at commit 3f99fcb (perfbench
# workloads in process, 12 interleaved rounds), lowering it to 512, 256 and
# 128 made a pipeline pass 1.12x, 1.14x and 1.21x slower, law-scan staying
# within 2 %, and a bound of 0 made search 2.0x and pipeline 1.48x slower.
CONTRACT_MIN_TUPLES = 1024
CONTRACT_MAX_GROWTH = 2

# A contraction's slot-0 slice spans at most this many tuples, which bounds
# the terms of one block's polynomials on the tables the rule contracts.
CONTRACT_SLICE_TUPLES = 1 << 15


def _parity_runs(slot):
    """The index runs of equal parity in a slot, in order."""
    return [list(run) for _, run in itertools.groupby(range(len(slot)), key=lambda i: slot[i][1])]


def _generic_point(slot, run, offset, nvars, make):
    """The point sum of x_(offset + i) slot[i] over i in run, with its parity;
    the slot's points are sparse table vectors (core._SparseVector), and make
    builds a dense table vector from the point's coordinates.  Of nvars
    variables in all, x_code is the monomial 1 << (nvars - 1 - code), one bit
    each."""
    coords = [0] * slot[run[0]][0].dim
    for i in run:
        var = 1 << (nvars - 1 - offset - i)
        for j, c in slot[i][0]:
            coords[j] = coords[j] + _Poly({var: c})
    return make(coords), slot[run[0]][1]


def _slot_blocks(slot, offset, nvars, make, start):
    """(least variable, generic point) of each parity run of a slot, the runs
    cut to the indices from start on."""
    runs = ([i for i in run if i >= start] for run in _parity_runs(slot))
    return [(1 << (nvars - 1 - offset - run[0]), _generic_point(slot, run, offset, nvars, make))
            for run in runs if run]


def _slot0_orbit(slots, idfns):
    """The slots other than 0 whose points the images of every identity of
    the group read at slot 0 (q[0] of each slot order q of _images): a tuple
    whose index in one of them is below its slot-0 index is least in no
    identity's orbit."""
    orbits = [{q[0] for q in _images(slots, *perm) or ()} for _, _, *perm in idfns]
    return set.intersection(*orbits) - {0}


def _contract(slots, idfns, binder):
    """Evaluate one group on generic points; returns (hit, slices evaluated,
    identity evaluations, memo hits), hit being what _scan_range returns over
    the whole group.

    Slot s is bound to generic points sum x_(offset_s + i) e_i, one per run
    of equal parity, so one evaluation of a block of runs gives each
    residual coordinate as a polynomial whose monomials are the block's
    basis tuples.  The variables of slot s take the codes offset_s + i and
    variable x_code the bit nvars - 1 - code (see _generic_point): the
    identities being multilinear, a monomial holds one variable per slot,
    the bits of its tuple, and a tuple earlier in lexicographic order is a
    greater int.  Slot 0 goes in slices of consecutive indices of one
    parity, at most CONTRACT_SLICE_TUPLES tuples each (one index at least),
    in order; only the greatest monomial of the current slice with a
    nonzero coefficient (nonzero mod p over F_p), at the first identity
    that has it, is kept, with its residual in normal form (_Poly.normal,
    taken only of the residual that becomes the best), so one block's
    polynomials are held at a time and a failure stops at its slice.
    Blocks come in lexicographic order of their least tuples, so once the
    slice's best is above a block's least tuple, no later block can hold an
    earlier one.

    When every identity's symmetry moves slot 0 (see _slot0_orbit), the
    slots in its orbit range over the indices from the slice's first slot-0
    index on: the tuples cut off are least in no identity's orbit, so the
    least failure is kept.

    idfns are bound on binder, a _Polynomials, whose memos are emptied when
    each slice starts: within it, every block gets the same point objects,
    so the blocks share their subexpressions, and memory stays bounded by
    one slice.  The memo hits are summed over the slices, each slice's read
    at its end.  p, the characteristic, is read off the sparse class of the
    slots' points (core._SparseVector.p)."""
    if not all(slots):
        return None, 0, 0, 0
    p = slots[0][0][0].p
    offsets = list(itertools.accumulate(map(len, slots), initial=0))
    nvars = offsets[-1]
    width = max(1, CONTRACT_SLICE_TUPLES // math.prod(map(len, slots[1:])))
    firsts = [run[k:k + width] for run in _parity_runs(slots[0]) for k in range(0, len(run), width)]
    orbit = _slot0_orbit(slots, idfns)
    evaluations = shared = 0
    for n, first in enumerate(firsts, 1):
        for memo in binder.memos:
            memo.cache_clear()
        blocks = [
            _slot_blocks(slots[s], offsets[s], nvars, _TableVector, first[0] if s in orbit else 0)
            for s in range(1, len(slots))
        ]
        head = _generic_point(slots[0], first, 0, nvars, _TableVector)
        lead = 1 << (nvars - 1 - first[0])
        best = None
        for block in itertools.product(*blocks):
            if best is not None and best[0] > lead + sum(low for low, _ in block):
                break
            pts = (head,) + tuple(pt for _, pt in block)
            for at, (_, fn, *_) in enumerate(idfns):
                r = fn(pts)
                for c in r:
                    terms = _Poly.terms(c)
                    live = [m for m, a in terms if a % p] if p else [m for m, a in terms if a]
                    if live and (best is None or max(live) > best[0]):
                        best = max(live), at, [_Poly.normal(v, p) for v in r]
            evaluations += len(idfns)
        shared += sum(memo.cache_info().hits for memo in binder.memos)
        if best is not None:
            mono, at, r = best
            flat = 0
            codes = (code for code in range(nvars) if mono >> (nvars - 1 - code) & 1)
            for code, offset, slot in zip(codes, offsets, slots):
                flat = flat * len(slot) + code - offset
            return (flat, at, tuple(c.get(mono, 0) for c in r)), n, evaluations, shared
    return None, len(firsts), evaluations, shared


# The smallest scan group worth a fork pool: through the CLI on 2 cores, two
# workers and one broke even on a hom-alternative check near 8000 triples.
POOL_MIN_TUPLES = 8192


def _scan_parallel(slots, idfns, total, jobs):
    """Scan one group, split into chunks over a fork pool when it is large.

    The group reaches each worker through the fork itself, as the pool
    initializer's arguments, so its closures are never pickled; a task
    carries only its (start, stop) range.  At most one worker per chunk and
    per CPU is started, whatever jobs asks for.  Returns what _scan_range
    returns over the whole group.

    After the first hit the workers skip the chunks they have not started,
    and the pool is closed and joined, never terminated: a worker killed
    while it writes a result holds the result queue's lock for good, and
    Pool.terminate then waits on that lock forever."""
    if jobs <= 1 or total < POOL_MIN_TUPLES:
        return _scan_range(slots, idfns, 0, total)
    nchunks = min(jobs * 4, max(1, total // 1024))
    workers = min(jobs, nchunks, os.cpu_count() or 1)
    if workers <= 1:
        return _scan_range(slots, idfns, 0, total)
    import multiprocessing as mp

    try:
        ctx = mp.get_context("fork")
    except ValueError:
        return _scan_range(slots, idfns, 0, total)
    bounds = [(total * c // nchunks, total * (c + 1) // nchunks) for c in range(nchunks)]
    found = ctx.Event()
    with ctx.Pool(workers, initializer=_adopt_group, initargs=(slots, idfns, found)) as pool:
        # results come in chunk order, so the first hit is the group's first
        hit, evaluations = None, 0
        for hit, done in pool.imap(_scan_chunk, bounds):
            evaluations += done
            if hit is not None:
                found.set()
                break
        pool.close()
        pool.join()
    return hit, evaluations


_group = None  # a pool worker's scan group; set only inside workers, by _adopt_group


def _adopt_group(slots, idfns, found):
    global _group
    _group = slots, idfns, found


def _scan_chunk(bounds):
    """_scan_range over one chunk, or nothing once a hit has been found."""
    slots, idfns, found = _group
    return (None, 0) if found.is_set() else _scan_range(slots, idfns, *bounds)


def check_product_law(
    a: HomAlgebra, law: str, jordan_cycle: Optional[str] = None, jobs: int = 1
) -> LawReport:
    """Exhaustively check one product law on basis tuples."""
    report = _run_groups(law, functools.partial(_law_groups, a, law, jordan_cycle), jobs)
    if law == "hom-jordan":
        report.extra["jordan_cycle"] = jordan_cycle or DEFAULT_JORDAN_CYCLE
    return report


def _odd_diagonal_info(p: HomPreAlgebra, bind) -> dict:
    """Diagonal instantiation of the two axioms that repeat a variable.

    Quadratic in the repeated slot, so this is informational: for odd basis
    x the first reads (x o x) succ alpha(y) - alpha(x) succ (x succ y), for
    odd basis y the second reads (x prec y) prec alpha(y) - alpha(x) prec (y o y).
    Every case is evaluated; the census counts all nonzero residuals.
    """
    kind1, _, kind3 = _pre_components(p, bind)
    space = p.space
    e = [x for x, _ in _basis_points(space, bind.basis)]
    odd = space.indices_of_parity(1)
    cases = [("diag-succ", i, j, kind1(e[i], e[i], e[j])) for i in odd for j in space.indices()]
    cases += [("diag-prec", i, j, kind3(e[i], e[j], e[j])) for j in odd for i in space.indices()]
    nonzero = [[name, i, j] for name, i, j, r in cases if not r.is_zero()]
    info = {"checked": len(cases), "nonzero": len(nonzero)}
    if nonzero:
        info["first"] = nonzero[0]
    return info


def check_pre_law(p: HomPreAlgebra, law: str, jobs: int = 1) -> LawReport:
    """Exhaustively check one pre-structure law on basis triples.

    For hom-prealternative the report's extra carries the odd-diagonal
    residual census (informational; the polarized axioms are the verdict).
    """
    tables = _Tables()  # the census reads the check's memos
    report = _run_groups(law, functools.partial(_law_groups, p, law, None), jobs, tables)
    if law == "hom-prealternative":
        report.extra["odd_diagonal"] = _odd_diagonal_info(p, tables)
    return report


def check_morphism(f: EvenMap, src, dst, weak: bool = False) -> LawReport:
    """Morphism check: f carries every product to the target product, and
    intertwines the twists unless weak."""
    if type(src) is not type(dst):
        raise ValidationError(["morphism endpoints must be the same kind of instance"])
    if f.domain != src.space or f.codomain != dst.space:
        raise ValidationError(["map endpoints do not match the instances"])
    return _run_groups(
        "weak-morphism" if weak else "morphism",
        lambda bind: _morphism_groups(f, src, dst, weak, bind),
    )


def _morphism_groups(f, src, dst, weak: bool, bind):
    """The scan groups of check_morphism."""
    # every preserves-prec pair comes before any preserves-succ pair
    groups = [
        _preserves_group(f, getattr(src, attr), getattr(dst, attr), f"preserves-{attr}", bind)
        for attr, _ in src.PRODUCTS
    ]
    if not weak:
        groups.append(_intertwining_group(f, src.alpha, dst.alpha, "intertwines-twist", bind))
    return groups


def calibrate_jordan(instances: Sequence[HomAlgebra]) -> dict:
    """Run the hom-jordan check under every cyclic reading on the given
    plus-algebras.  Returns per-cycle verdicts and the list of survivors."""
    return _verdict_table(
        "per_cycle", {cycle: cycle for cycle in JORDAN_CYCLES},
        [(a.name or repr(a), a) for a in instances],
        lambda cycle, a: check_product_law(a, "hom-jordan", jordan_cycle=cycle).passed,
        DEFAULT_JORDAN_CYCLE,
    )


def _verdict_table(key: str, readings: dict, named, passes, default: str) -> dict:
    """A calibration's report: under key, per reading label, the verdict
    passes(reading, x) per (name, x) of named, readings outer and in the
    given order; the labels passing on every instance; and the default."""
    table = {label: {name: passes(reading, x) for name, x in named}
             for label, reading in readings.items()}
    survivors = [label for label, verdicts in table.items() if all(verdicts.values())]
    return {key: table, "survivors": survivors, "default": default}
