"""Built-in instances and maps used by the test-suite and the CLI.

Everything is exact.  Builders return fresh objects except octonions,
whose validated table is memoized per field (the build-time self-check
enumerates 512 triples).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .core import EvenBilinear, EvenMap, SuperSpace, ValidationError
from .fields import QQ, FpElement, PrimeField, RationalField
from .io import MAX_DIM
from .laws import HomAlgebra, HomPreAlgebra, check_product_law
from .constructions import plus_jordan, rb_split, tensor_alt, tensor_map, transpose


def zero(n0: int, n1: int, field=QQ) -> HomAlgebra:
    space = SuperSpace(field, n0, n1)
    return HomAlgebra(
        EvenBilinear.zero(space, space, space),
        EvenMap.identity(space),
        name=f"zero({n0},{n1})",
    )


def grassmann1(field=QQ) -> HomAlgebra:
    """The rank-one Grassmann algebra: basis 1 (even), e (odd), e*e = 0."""
    space = SuperSpace(field, 1, 1)
    mu = EvenBilinear.from_entries(space, space, space, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)])
    return HomAlgebra(mu, EvenMap.identity(space), name="grassmann1")


def alpha2(field=QQ) -> EvenMap:
    """diag(1, 2) on the grassmann1 space; a strict endomorphism there."""
    space = SuperSpace(field, 1, 1)
    return EvenMap.diagonal(space, [field.one, field.coerce(2)])


def grassmann1_twisted(field=QQ) -> HomAlgebra:
    """grassmann1 with both the product and the twist composed with
    diag(1, 2); a multiplicative instance whose twist is not the identity."""
    space = SuperSpace(field, 1, 1)
    mu = EvenBilinear.from_entries(space, space, space, [(0, 0, 0, 1), (0, 1, 1, 2), (1, 0, 1, 2)])
    return HomAlgebra(mu, alpha2(field), name="grassmann1-twisted")


def truncpoly(k: int, field=QQ) -> HomAlgebra:
    """K[t]/(t^k) on the basis 1, t, ..., t^(k-1), all even."""
    if k < 1:
        raise ValidationError([f"truncpoly needs k >= 1, got {k}"])
    space = SuperSpace(field, k, 0)
    entries = [(i, j, i + j, 1) for i in range(k) for j in range(k - i)]
    return HomAlgebra(
        EvenBilinear.from_entries(space, space, space, entries), EvenMap.identity(space),
        name=f"truncpoly({k})",
    )


def integration(k: int, field=QQ) -> EvenMap:
    """t^i maps to t^(i+1)/(i+1), and the top power maps to 0, on the
    truncpoly(k) space.  Needs 1..k-1 invertible in the field."""
    if k < 1:
        raise ValidationError([f"integration needs k >= 1, got {k}"])
    space = SuperSpace(field, k, 0)
    entries = []
    for i in range(k - 1):
        d = field.coerce(i + 1)
        if not d:
            raise ValidationError([f"{i + 1} is not invertible in {field}"])
        entries.append((i + 1, i, field.one / d))
    return EvenMap.from_entries(space, space, entries)


# lines of the Fano plane in the cyclic convention: (i, i+1, i+3) mod 7
FANO_LINES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3))


@lru_cache(maxsize=None)
def octonions(field=QQ) -> HomAlgebra:
    """The octonions: e0 = 1, e_i^2 = -1, Fano-line products.

    The builder self-checks the table: every index pair lies on one line,
    hom-alternative passes and hom-associative fails (512 triples each)."""
    seen = {}
    for line in FANO_LINES:
        for a, b in ((line[0], line[1]), (line[1], line[2]), (line[2], line[0])):
            key = frozenset((a, b))
            if key in seen:
                raise ValidationError([f"Fano pair {sorted(key)} on two lines"])
            seen[key] = line
    if len(seen) != 21:
        raise ValidationError(["Fano line table does not cover all pairs"])

    space = SuperSpace(field, 8, 0)
    entries = [(0, j, j, 1) for j in range(8)]
    for i in range(1, 8):
        entries += [(i, 0, i, 1), (i, i, 0, -1)]
    for a, b, d in FANO_LINES:
        for x, y, z in ((a, b, d), (b, d, a), (d, a, b)):
            entries += [(x, y, z, 1), (y, x, z, -1)]
    alg = HomAlgebra(
        EvenBilinear.from_entries(space, space, space, entries), EvenMap.identity(space),
        name="octonions",
    )
    if not check_product_law(alg, "hom-alternative").passed:
        raise ValidationError(["octonion table is not alternative"])
    if check_product_law(alg, "hom-associative").passed:
        raise ValidationError(["octonion table is associative; table is wrong"])
    return alg


def matrix_algebra(n: int, field=QQ) -> HomAlgebra:
    """Full n x n matrices on the unit basis, all even; E_ab E_cd = [b=c] E_ad."""
    if n < 1:
        raise ValidationError([f"matrix algebra needs n >= 1, got {n}"])
    space = SuperSpace(field, n * n, 0)
    entries = [
        (a * n + b, b * n + d, a * n + d, 1) for a in range(n) for b in range(n) for d in range(n)
    ]
    return HomAlgebra(
        EvenBilinear.from_entries(space, space, space, entries), EvenMap.identity(space),
        name=f"matrix({n})",
    )


def _to_fp(q, p: int):
    if isinstance(q, Fraction):
        num, den = q.numerator, q.denominator
    elif isinstance(q, int):
        num, den = q, 1
    else:
        raise ValidationError([f"cannot reduce {q!r} mod {p}"])
    if den % p == 0:
        raise ValidationError([f"denominator {den} vanishes mod {p}"])
    return FpElement(num * pow(den, p - 2, p), p)


def reduce_map(f: EvenMap, p: int) -> EvenMap:
    dom = SuperSpace(PrimeField(p), f.domain.even, f.domain.odd)
    cod = SuperSpace(PrimeField(p), f.codomain.even, f.codomain.odd)
    return EvenMap.from_entries(dom, cod, [(i, j, _to_fp(v, p)) for i, j, v in f.sparse_entries()])


def _reduce_bilinear(b: EvenBilinear, p: int) -> EvenBilinear:
    mk = lambda s: SuperSpace(PrimeField(p), s.even, s.odd)
    entries = [(i, j, k, _to_fp(v, p)) for i, j, k, v in b.sparse_entries()]
    return EvenBilinear.from_entries(mk(b.left), mk(b.right), mk(b.out), entries)


def reduce_instance(a, p: int):
    """Reduce a rational instance mod an odd prime p.  Fails if any
    structure constant has a denominator divisible by p."""
    if not isinstance(a.space.field, RationalField):
        raise ValidationError(["reduction starts from a rational instance"])
    if isinstance(a, (HomAlgebra, HomPreAlgebra)):
        products = [_reduce_bilinear(getattr(a, attr), p) for attr, _ in a.PRODUCTS]
        name = f"{a.name}@{p}" if a.name else f"@{p}"
        return type(a)(*products, reduce_map(a.alpha, p), name=name)
    raise ValidationError([f"cannot reduce {a!r}"])


def perturb_bilinear(b: EvenBilinear, cell, delta) -> EvenBilinear:
    """A copy of b with delta added to one structure constant.  The cell
    must be parity-allowed or the result fails validation."""
    i, j, k = cell
    return EvenBilinear.from_entries(b.left, b.right, b.out, b.sparse_entries() + [(i, j, k, delta)])


def perturb_product(a: HomAlgebra, cell, delta) -> HomAlgebra:
    return HomAlgebra(
        perturb_bilinear(a.mu, cell, delta), a.alpha,
        name=f"{a.name}~{cell}",
    )


def perturb_pre(p: HomPreAlgebra, which: str, cell, delta) -> HomPreAlgebra:
    if which not in ("prec", "succ"):
        raise ValidationError([f"which must be prec or succ, got {which!r}"])
    prec, succ = p.prec, p.succ
    if which == "prec":
        prec = perturb_bilinear(prec, cell, delta)
    else:
        succ = perturb_bilinear(succ, cell, delta)
    return HomPreAlgebra(prec, succ, p.alpha, name=f"{p.name}~{which}{cell}")


ALL_PRODUCT_LAWS = (
    "hom-associative",
    "hom-alternative",
    "hom-flexible",
    "super-commutative",
    "multiplicative",
    "hom-jordan",
)


def sanity_table(field=QQ):
    """(instance, laws that pass, laws that fail) for the standard corpus."""
    l1 = grassmann1(field)
    p3 = truncpoly(3, field)
    oct_laws = ("hom-alternative", "hom-flexible", "multiplicative")
    oct_fail = ("hom-associative", "super-commutative", "hom-jordan")
    return [
        (zero(2, 1, field), ALL_PRODUCT_LAWS, ()),
        (l1, ALL_PRODUCT_LAWS, ()),
        (grassmann1_twisted(field), ALL_PRODUCT_LAWS, ()),
        (p3, ALL_PRODUCT_LAWS, ()),
        (tensor_alt(l1, p3), ALL_PRODUCT_LAWS, ()),
        (octonions(field), oct_laws, oct_fail),
        (
            matrix_algebra(2, field),
            ("hom-associative", "hom-alternative", "hom-flexible", "multiplicative"),
            ("super-commutative", "hom-jordan"),
        ),
        (tensor_alt(l1, octonions(field)), oct_laws, oct_fail),
    ]


def standard_pre_instances(field=QQ):
    """Pre-structure instances minted from the corpus by Rota-Baxter
    splitting; used by the calibration runs and the theorem suites."""
    p3 = truncpoly(3, field)
    r = integration(3, field)
    l1 = grassmann1(field)
    l1p3 = tensor_alt(l1, p3)
    idr = tensor_map(EvenMap.identity(l1.space), r)
    pre1 = rb_split(p3, r)
    pre2 = rb_split(l1p3, idr)
    return [pre1, pre2, transpose(pre1)]


def jordan_calibration_instances(field=QQ):
    """Plus-algebras of multiplicative hom-alternative corpus instances;
    together they pin down a single cyclic reading of the Jordan identity."""
    l1 = grassmann1(field)
    return [
        plus_jordan(octonions(field)),
        plus_jordan(matrix_algebra(2, field)),
        plus_jordan(grassmann1_twisted(field)),
        plus_jordan(tensor_alt(l1, octonions(field))),
    ]


def builtin_names():
    return [
        "zero-2-1",
        "grassmann1",
        "grassmann1-twisted",
        "truncpoly-2",
        "truncpoly-3",
        "truncpoly-4",
        "p3",
        "octonions",
        "matrix-2",
        "l1-p3",
        "l1-oct",
        "integration-3",
        "alpha2",
    ]


# pattern name -> (kind, builder, number of sizes, dimension from the sizes)
_PATTERNS = {
    "zero": ("algebra", zero, 2, lambda n0, n1: n0 + n1),
    "truncpoly": ("algebra", truncpoly, 1, lambda k: k),
    "matrix": ("algebra", matrix_algebra, 1, lambda n: n * n),
    "integration": ("map", integration, 1, lambda k: k),
}

# fixed name -> (kind, builder over a field)
_FIXED = {
    "grassmann1": ("algebra", grassmann1),
    "grassmann1-twisted": ("algebra", grassmann1_twisted),
    "p3": ("algebra", lambda field: truncpoly(3, field)),
    "octonions": ("algebra", octonions),
    "l1-p3": ("algebra", lambda field: tensor_alt(grassmann1(field), truncpoly(3, field))),
    "l1-oct": ("algebra", lambda field: tensor_alt(grassmann1(field), octonions(field))),
    "alpha2": ("map", alpha2),
}


def build_named(name: str, prime: int | None = None):
    """Resolve a corpus name to ("algebra" | "map", object).

    Patterns: zero-N0-N1, truncpoly-K, matrix-N (matrix-2 among them),
    integration-K; fixed names grassmann1, grassmann1-twisted, p3, octonions,
    l1-p3, l1-oct, alpha2.  With prime=p everything is built over F_p.  A pattern whose
    space exceeds the document cap io.MAX_DIM is refused before it is built."""
    field = PrimeField(prime) if prime is not None else QQ
    head, *args = name.split("-")
    if head in _PATTERNS and len(args) == _PATTERNS[head][2]:
        kind, builder, _, dim_of = _PATTERNS[head]
        try:
            sizes = [int(x) for x in args]
        except ValueError:
            raise ValidationError([f"bad corpus name {name!r}"]) from None
        dim = dim_of(*sizes)
        if dim > MAX_DIM:
            raise ValidationError([f"{name}: n0 + n1 = {dim} exceeds the cap of {MAX_DIM}"])
        return kind, builder(*sizes, field)
    if name not in _FIXED:
        raise ValidationError([f"unknown corpus name {name!r}"])
    kind, builder = _FIXED[name]
    return kind, builder(field)
