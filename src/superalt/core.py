"""Graded substrate: Z2-graded spaces, even maps, even bilinear products.

Basis convention: indices 0..n0-1 are even, n0..n0+n1-1 are odd, so parity
is a function of the index.  Vectors are dense tuples of exact scalars.  A
map keeps only its nonzero entries, as sparse columns, and a product only its
nonzero structure constants, as sparse rows; EvenMap.from_entries and
EvenBilinear.from_entries build them from their sparse entries and validate
those entries alone, never the whole matrix or cube cell by cell.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .fields import Field, FieldError, QQ  # noqa: F401  (QQ re-exported for convenience)


class ValidationError(ValueError):
    """Carries the complete list of violated constraints, not just the first."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class SuperSpace:
    field: Field
    even: int
    odd: int

    def __post_init__(self):
        if self.even < 0 or self.odd < 0:
            raise ValidationError([f"negative dimensions ({self.even}, {self.odd})"])

    @property
    def dim(self) -> int:
        return self.even + self.odd

    @property
    def dims(self) -> tuple[int, int]:
        return (self.even, self.odd)

    def parity(self, i: int) -> int:
        if not 0 <= i < self.dim:
            raise IndexError(f"basis index {i} out of range for dim {self.dim}")
        return 0 if i < self.even else 1

    def indices(self) -> range:
        return range(self.dim)

    def indices_of_parity(self, par: int) -> range:
        return range(self.even) if par == 0 else range(self.even, self.dim)


class Vector:
    """Element of a SuperSpace: dense coordinate tuple over the space's field."""

    __slots__ = ("space", "coords")

    def __init__(self, space: SuperSpace, coords):
        coords = tuple(space.field.coerce(c) for c in coords)
        if len(coords) != space.dim:
            raise ValidationError(
                [f"vector has {len(coords)} coordinates, space has dim {space.dim}"]
            )
        self.space = space
        self.coords = coords

    @classmethod
    def zero(cls, space: SuperSpace) -> "Vector":
        return cls(space, [space.field.zero] * space.dim)

    @classmethod
    def basis(cls, space: SuperSpace, i: int) -> "Vector":
        z = space.field.zero
        one = space.field.one
        return cls(space, [one if j == i else z for j in range(space.dim)])

    def is_zero(self) -> bool:
        return not any(self.coords)

    def support(self) -> list[int]:
        return [i for i, c in enumerate(self.coords) if c]

    def parity(self) -> Optional[int]:
        """0 or 1 if the support is homogeneous, None for zero or mixed."""
        pars = {self.space.parity(i) for i in self.support()}
        if len(pars) == 1:
            return pars.pop()
        return None

    def _check_space(self, other: "Vector"):
        if self.space != other.space:
            raise ValidationError(["vectors live in different spaces"])

    def __add__(self, other: "Vector") -> "Vector":
        self._check_space(other)
        return Vector(self.space, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "Vector") -> "Vector":
        self._check_space(other)
        return Vector(self.space, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "Vector":
        return Vector(self.space, [-a for a in self.coords])

    def scaled(self, s) -> "Vector":
        s = self.space.field.coerce(s)
        return Vector(self.space, [s * a for a in self.coords])

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.space == other.space and self.coords == other.coords

    def __hash__(self):
        return hash((self.space, self.coords))

    def __repr__(self):
        return f"Vector{self.coords}"


class EvenMap:
    """Parity-preserving linear map, kept as its nonzero entries.

    _cols[j] lists (i, m) in increasing i for every nonzero entry m of the
    image of basis j; m must vanish unless parity(i) = parity(j).  Build with
    from_entries, identity, zero or diagonal; the constructor takes its
    entries by keyword only, so dense rows passed in their place are a
    TypeError.
    """

    __slots__ = ("domain", "codomain", "_cols")

    def __init__(self, domain: SuperSpace, codomain: SuperSpace, *, entries):
        if domain.field != codomain.field:
            raise ValidationError(["domain and codomain use different scalar fields"])
        nd, nc = domain.dim, codomain.dim
        coerce = domain.field.coerce
        cells = {}
        bad = []
        for i, j, v in entries:
            if 0 <= i < nc and 0 <= j < nd:
                v, key = coerce(v), (i, j)
                cells[key] = cells[key] + v if key in cells else v
            else:
                bad.append(f"entry ({i}, {j}) out of range for codomain x domain = {nc}x{nd}")
        if bad:
            raise ValidationError(bad)
        cols = [[] for _ in range(nd)]
        for (i, j), v in sorted(cells.items()):
            if v and codomain.parity(i) != domain.parity(j):
                bad.append(f"odd block entry at ({i}, {j}) must vanish")
            elif v:
                cols[j].append((i, v))
        if bad:
            raise ValidationError(bad)
        self.domain = domain
        self.codomain = codomain
        self._cols = tuple(map(tuple, cols))

    @classmethod
    def from_entries(cls, domain: SuperSpace, codomain: SuperSpace, entries) -> "EvenMap":
        """Build from sparse entries [(i, j, value), ...], i indexing the
        codomain and j the domain: each value is coerced once and values given
        for one cell add up; every index out of range, and then every nonzero
        cell that breaks parity, is an error.  Every producer of a map comes
        through here."""
        return cls(domain, codomain, entries=entries)

    @classmethod
    def identity(cls, space: SuperSpace) -> "EvenMap":
        one = space.field.one
        return cls.from_entries(space, space, [(i, i, one) for i in space.indices()])

    @classmethod
    def zero(cls, domain: SuperSpace, codomain: SuperSpace | None = None) -> "EvenMap":
        return cls.from_entries(domain, codomain or domain, ())

    @classmethod
    def diagonal(cls, space: SuperSpace, diag) -> "EvenMap":
        return cls.from_entries(space, space, [(i, i, d) for i, d in enumerate(diag)])

    def sparse_entries(self) -> list:
        """The nonzero entries (i, j, value) in (i, j) order."""
        return sorted((i, j, v) for j, col in enumerate(self._cols) for i, v in col)

    def nonzero_count(self) -> int:
        """The number of nonzero entries, without listing them."""
        return sum(map(len, self._cols))

    @property
    def entries(self) -> tuple:
        """The dense rows, codomain x domain, zeros included."""
        rows = [[self.codomain.field.zero] * self.domain.dim for _ in self.codomain.indices()]
        for j, col in enumerate(self._cols):
            for i, v in col:
                rows[i][j] = v
        return tuple(map(tuple, rows))

    def apply(self, x: Vector) -> Vector:
        if x.space != self.domain:
            raise ValidationError(["map applied to vector outside its domain"])
        acc = [self.codomain.field.zero] * self.codomain.dim
        for j, xv in enumerate(x.coords):
            if not xv:
                continue
            for i, m in self._cols[j]:
                acc[i] = acc[i] + m * xv
        return Vector(self.codomain, acc)

    def _table_applier(self):
        """apply on sparse table vectors, read from the sparse columns."""
        cols = [[(i, _plain(m)) for i, m in col] for col in self._cols]
        return _column_applier(cols, self.codomain)

    def _poly_applier(self):
        """apply on table vectors whose coordinates may be _Poly values."""
        cols = [[(i, ((0, _plain(m)),)) for i, m in col] for col in self._cols]
        return _poly_column_applier(cols, self.codomain)

    def image_of_basis(self, j: int) -> Vector:
        z = self.codomain.field.zero
        col = [z] * self.codomain.dim
        for i, m in self._cols[j]:
            col[i] = m
        return Vector(self.codomain, col)

    def compose(self, other: "EvenMap") -> "EvenMap":
        """self after other."""
        if other.codomain != self.domain:
            raise ValidationError(["composition domain mismatch"])
        return EvenMap.from_entries(
            other.domain, self.codomain,
            [(i, j, sv * ov) for j, col in enumerate(other._cols) for k, ov in col
             for i, sv in self._cols[k]],
        )

    def power(self, k: int) -> "EvenMap":
        if self.domain != self.codomain:
            raise ValidationError(["power of a non-endomap"])
        if k < 0:
            raise ValidationError(["negative map power"])
        result = EvenMap.identity(self.domain)
        base = self
        while k:
            if k & 1:
                result = result.compose(base)
            base = base.compose(base) if k > 1 else base
            k >>= 1
        return result

    def __add__(self, other: "EvenMap") -> "EvenMap":
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ValidationError(["map sum shape mismatch"])
        return EvenMap.from_entries(
            self.domain, self.codomain, self.sparse_entries() + other.sparse_entries()
        )

    def scaled(self, s) -> "EvenMap":
        s = self.domain.field.coerce(s)
        return EvenMap.from_entries(
            self.domain, self.codomain, [(i, j, s * v) for i, j, v in self.sparse_entries()]
        )

    def commutes_with(self, other: "EvenMap") -> bool:
        return self.compose(other) == other.compose(self)

    def __eq__(self, other):
        if not isinstance(other, EvenMap):
            return NotImplemented
        return (self.domain, self.codomain, self._cols) == (
            other.domain, other.codomain, other._cols
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, self._cols))

    def __repr__(self):
        return f"EvenMap({self.codomain.dim}x{self.domain.dim})"


class EvenBilinear:
    """Even bilinear map left x right -> out, kept as its nonzero structure constants.

    _rows[i][j] lists (k, c) in increasing k for every nonzero coefficient c of
    out-basis k in (left-basis i) * (right-basis j); c must vanish unless
    parity(k) = parity(i) + parity(j) mod 2.  Build with from_entries or zero;
    the constructor takes its entries by keyword only, so a dense cube passed
    in their place is a TypeError.
    """

    __slots__ = ("left", "right", "out", "_rows")

    def __init__(self, left: SuperSpace, right: SuperSpace, out: SuperSpace, *, entries):
        nl, nr, no = left.dim, right.dim, out.dim
        coerce = left.field.coerce
        cells = {}
        bad = []
        for i, j, k, v in entries:
            if 0 <= i < nl and 0 <= j < nr and 0 <= k < no:
                v, key = coerce(v), (i, j, k)
                cells[key] = cells[key] + v if key in cells else v
            else:
                bad.append(f"entry ({i}, {j}, {k}) out of range for dims {nl}x{nr}x{no}")
        if bad:
            raise ValidationError(bad)
        if not (left.field == right.field == out.field):
            raise ValidationError(["bilinear map factors use different scalar fields"])
        rows = [[[] for _ in range(nr)] for _ in range(nl)]
        for (i, j, k), v in sorted(cells.items()):
            if v and out.parity(k) != (left.parity(i) + right.parity(j)) % 2:
                bad.append(f"parity-violating entry at ({i}, {j}, {k})")
            elif v:
                rows[i][j].append((k, v))
        if bad:
            raise ValidationError(bad)
        self.left = left
        self.right = right
        self.out = out
        self._rows = tuple(tuple(map(tuple, row)) for row in rows)

    @classmethod
    def zero(cls, left: SuperSpace, right: SuperSpace, out: SuperSpace) -> "EvenBilinear":
        return cls.from_entries(left, right, out, ())

    @classmethod
    def from_entries(
        cls, left: SuperSpace, right: SuperSpace, out: SuperSpace, entries
    ) -> "EvenBilinear":
        """Build from sparse entries [(i, j, k, value), ...]: each value is
        coerced once and values given for one cell add up; every index out of
        range, and then every nonzero cell that breaks parity, is an error.
        The work is proportional to the entries plus the nl x nr rows; every
        producer of a tensor comes through here."""
        return cls(left, right, out, entries=entries)

    def nonzero_count(self) -> int:
        """The number of nonzero structure constants, without listing them."""
        return sum(len(cell) for row in self._rows for cell in row)

    def sparse_entries(self):
        out = []
        for i in range(self.left.dim):
            for j in range(self.right.dim):
                for k, v in self._rows[i][j]:
                    out.append((i, j, k, v))
        return out

    def apply(self, x: Vector, y: Vector) -> Vector:
        if x.space != self.left or y.space != self.right:
            raise ValidationError(["bilinear map applied outside its spaces"])
        acc = [self.out.field.zero] * self.out.dim
        for i, xv in enumerate(x.coords):
            if not xv:
                continue
            row = self._rows[i]
            for j, yv in enumerate(y.coords):
                if not yv:
                    continue
                s = xv * yv
                for k, cv in row[j]:
                    acc[k] = acc[k] + s * cv
        return Vector(self.out, acc)

    def _table_applier(self):
        """apply on sparse table vectors, read from the sparse rows: one
        product x_i y_j per cell with constants."""
        rows = [[[(k, _plain(c)) for k, c in cell] for cell in row] for row in self._rows]
        of = _sparse_vector(self.out.field.char, self.out.dim).of

        def apply(x, y):
            acc = {}
            get = acc.get
            for i, xv in x:
                row = rows[i]
                for j, yv in y:
                    cell = row[j]
                    if cell:
                        s = xv * yv
                        for k, c in cell:
                            acc[k] = get(k, 0) + s * c
            return of(acc)

        return apply

    def _poly_applier(self):
        """apply on table vectors whose coordinates may be _Poly values, fused:
        each term of a product goes straight into the _Poly of its output
        coordinate, a workspace returned raw (see _Poly), or 0 if no term
        reached it."""
        rows = [[[(k, _plain(c)) for k, c in cell] for cell in row] for row in self._rows]
        n, terms = self.out.dim, _Poly.terms

        def apply(x, y):
            acc = [_Poly() for _ in range(n)]
            ys = [(j, terms(yv)) for j, yv in enumerate(y) if yv]
            for i, xv in enumerate(x):
                if xv:
                    row, xt = rows[i], terms(xv)
                    for j, yt in ys:
                        for k, c in row[j]:
                            a = acc[k]
                            get = a.get
                            for ma, ca in xt:
                                ca *= c
                                for mb, cb in yt:
                                    m = ma + mb
                                    a[m] = get(m, 0) + ca * cb
            return _TableVector([a or 0 for a in acc])

        return apply

    def pair_of_basis(self, i: int, j: int) -> Vector:
        z = self.out.field.zero
        acc = [z] * self.out.dim
        for k, v in self._rows[i][j]:
            acc[k] = v
        return Vector(self.out, acc)

    def __add__(self, other: "EvenBilinear") -> "EvenBilinear":
        if (self.left, self.right, self.out) != (other.left, other.right, other.out):
            raise ValidationError(["bilinear sum shape mismatch"])
        return EvenBilinear.from_entries(
            self.left, self.right, self.out, self.sparse_entries() + other.sparse_entries()
        )

    def scaled(self, s) -> "EvenBilinear":
        s = self.left.field.coerce(s)
        return EvenBilinear.from_entries(
            self.left, self.right, self.out,
            [(i, j, k, s * v) for i, j, k, v in self.sparse_entries()],
        )

    def post_compose(self, m: EvenMap) -> "EvenBilinear":
        """m applied to every output:  (x, y) -> m(x * y)."""
        if m.domain != self.out:
            raise ValidationError(["post-composition domain mismatch"])
        return EvenBilinear.from_entries(
            self.left, self.right, m.codomain,
            [(i, j, k, mv * v) for i, j, l, v in self.sparse_entries() for k, mv in m._cols[l]],
        )

    def pre_compose_left(self, m: EvenMap) -> "EvenBilinear":
        """(x, y) -> m(x) * y."""
        if m.codomain != self.left:
            raise ValidationError(["left pre-composition codomain mismatch"])
        return EvenBilinear.from_entries(
            m.domain, self.right, self.out,
            [
                (i, j, k, mv * v)
                for i in range(m.domain.dim)
                for l, mv in m._cols[i]
                for j in range(self.right.dim)
                for k, v in self._rows[l][j]
            ],
        )

    def pre_compose_right(self, m: EvenMap) -> "EvenBilinear":
        """(x, y) -> x * m(y)."""
        if m.codomain != self.right:
            raise ValidationError(["right pre-composition codomain mismatch"])
        return EvenBilinear.from_entries(
            self.left, m.domain, self.out,
            [
                (i, j, k, mv * v)
                for i in range(self.left.dim)
                for j in range(m.domain.dim)
                for l, mv in m._cols[j]
                for k, v in self._rows[i][l]
            ],
        )

    def flip_signed(self) -> "EvenBilinear":
        """Signed opposite: c'[i][j][k] = (-1)^(parity(i) parity(j)) c[j][i][k]."""
        if self.left != self.right:
            raise ValidationError(["signed flip needs equal factor spaces"])
        par = self.left.parity
        return EvenBilinear.from_entries(
            self.left, self.right, self.out,
            [(j, i, k, -v if par(i) and par(j) else v) for i, j, k, v in self.sparse_entries()],
        )

    def __eq__(self, other):
        if not isinstance(other, EvenBilinear):
            return NotImplemented
        return (self.left, self.right, self.out, self._rows) == (
            other.left, other.right, other.out, other._rows
        )

    def __hash__(self):
        return hash((self.left, self.right, self.out, self._rows))

    def __repr__(self):
        return f"EvenBilinear({self.left.dim}x{self.right.dim}->{self.out.dim})"


# Table evaluation.  A table vector stands for a vector in plain scalars:
# over Q, ints when integral and Fractions otherwise; over F_p, ints that
# stand for their residues.  It supports what the identity closures use of
# Vector: +, -, negation and scaled.  The table binder's vectors are sparse
# and canonical (_SparseVector): they list their nonzero coordinates only, so
# an applier visits the one or two coordinates of a basis tuple's vectors,
# and equal values are equal tuples, which a value-keyed memo hashes alike;
# the scan reads them through is_zero, and through coords, the dense
# coordinates, at a hit.  The polynomial binder's vectors are dense
# (_TableVector), a coordinate possibly a _Poly, a polynomial with such
# scalars as coefficients: in the unknown entries of a map for an operator
# search, in the coordinates of generic points for a contracted scan (see
# laws._Polynomials); its readers iterate the coordinates, and a memo keys
# it by identity.  Denominators are never cleared by rescaling: alpha(xy) -
# alpha(x) alpha(y) is not homogeneous in the twist, so a rescaled twist
# could pass where the true one fails.


class _Poly(dict):
    """A polynomial {monomial: coefficient}, a monomial being an int that
    packs an exponent vector, so that the product of two monomials is their
    sum and the constant monomial is 0.  The code that makes the variables
    chooses the packing and decodes it: laws._generic_point gives each
    variable one bit, operators._FreeMap one byte.  A _Poly is held raw: a
    sum that cancels keeps its term with coefficient 0, and over F_p a
    coefficient is any int standing for its residue.  Only the reads take
    the normal form (normal): the contraction's witness (laws._contract) and
    the search's filing (operators._file_polynomials).  A _Poly adds,
    subtracts and scales by a scalar, each in one pass; the products of
    polynomials are formed only by the fused appliers (_poly_applier), which
    accumulate each term into the _Poly of its output coordinate."""

    __slots__ = ()

    @staticmethod
    def terms(c):
        """The (monomial, coefficient) terms of a _Poly or a scalar."""
        return c.items() if isinstance(c, _Poly) else [(0, c)] if c else []

    @staticmethod
    def normal(c, p=0):
        """The normal form of c, a _Poly or a scalar, as a _Poly: its terms
        with a nonzero coefficient, over F_p (p > 0) nonzero mod p and
        reduced into [0, p)."""
        if p:
            return _Poly({m: r for m, a in _Poly.terms(c) if (r := a % p)})
        return _Poly({m: a for m, a in _Poly.terms(c) if a})

    def __add__(self, other):
        """self + other: a copy, then one pass over other."""
        out = _Poly(self)
        get = out.get
        for m, c in _Poly.terms(other):
            out[m] = get(m, 0) + c
        return out

    __radd__ = __add__

    def __neg__(self):
        return _Poly({m: -c for m, c in self.items()})

    def __sub__(self, other):
        """self - other: a copy, then one pass over other."""
        out = _Poly(self)
        get = out.get
        for m, c in _Poly.terms(other):
            out[m] = get(m, 0) - c
        return out

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, s):
        """The polynomial times a scalar s."""
        if isinstance(s, _Poly):
            return NotImplemented
        return _Poly({m: c * s for m, c in self.items()}) if s else _Poly()

    __rmul__ = __mul__


class _TableVector(tuple):
    """A table vector on the polynomial binder: dense coordinates, each a
    plain scalar or a _Poly, held raw (see _Poly).  A _Poly has no hash, so
    the vector is equal only to itself and hashes by identity."""

    __slots__ = ()
    __hash__ = object.__hash__

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    def __add__(self, other):
        return type(self)(map(operator.add, self, other))

    def __sub__(self, other):
        return type(self)(map(operator.sub, self, other))

    def __neg__(self):
        return type(self)(map(operator.neg, self))

    def scaled(self, s):
        """The vector times the field scalar s."""
        s = _plain(s)
        return type(self)([s * a for a in self])


class _SparseVector(tuple):
    """A table vector on the table binder, in canonical form: the pairs
    (index, value) of its nonzero coordinates, indices ascending, over F_p
    each value reduced into [1, p).  So the zero vector is the empty tuple,
    and two vectors are equal, and hash alike, iff they stand for the same
    value.  Each field and dimension has one subclass (_sparse_vector), which
    sets p (0 over Q) and dim; of makes its vectors from raw sums."""

    __slots__ = ()
    p = 0
    dim = 0

    @classmethod
    def of(cls, acc: dict):
        """The vector whose coordinate i is acc.get(i, 0), a raw value."""
        p, pairs = cls.p, []
        for i, v in acc.items():
            if p:
                v %= p
            if v:
                pairs.append((i, v))
        if len(pairs) > 1:
            pairs.sort()
        return cls(pairs)

    def __add__(self, other):
        if not other:
            return self
        if not self:
            return other
        acc = dict(self)
        get = acc.get
        for i, v in other:
            acc[i] = get(i, 0) + v
        return self.of(acc)

    def __sub__(self, other):
        if not other:
            return self
        acc = dict(self)
        get = acc.get
        for i, v in other:
            acc[i] = get(i, 0) - v
        return self.of(acc)

    def __neg__(self):
        p = self.p
        if p:
            return type(self)([(i, p - v) for i, v in self])
        return type(self)([(i, -v) for i, v in self])

    def scaled(self, s):
        """The vector times the field scalar s."""
        s, p = _plain(s), self.p
        if not s:
            return type(self)()
        if p:
            return type(self)([(i, s * v % p) for i, v in self])
        return type(self)([(i, s * v) for i, v in self])

    def is_zero(self) -> bool:
        return not self

    @property
    def coords(self) -> tuple:
        dense = [0] * self.dim
        for i, v in self:
            dense[i] = v
        return tuple(dense)


@functools.lru_cache(maxsize=None)
def _sparse_vector(p: int, dim: int) -> type:
    """The _SparseVector class of vectors of dimension dim over F_p (Q if p is 0)."""
    return type("_SparseVector", (_SparseVector,), {"__slots__": (), "p": p, "dim": dim})


def _column_applier(cols, codomain: SuperSpace):
    """The applier of a linear map on sparse table vectors into codomain,
    column j listing (i, entry) for the nonzero entries of the image of
    basis j."""
    of = _sparse_vector(codomain.field.char, codomain.dim).of

    def apply(x):
        acc = {}
        get = acc.get
        for j, xv in x:
            for i, m in cols[j]:
                acc[i] = get(i, 0) + m * xv
        return of(acc)

    return apply


def _poly_column_applier(cols, codomain: SuperSpace):
    """The fused applier of a linear map on table vectors whose coordinates
    may be _Poly values, column j listing (i, terms of the entry) for the
    nonzero entries of the image of basis j: each term of a product goes
    straight into the _Poly of its output coordinate, returned raw as in
    EvenBilinear._poly_applier."""
    n, terms = codomain.dim, _Poly.terms

    def apply(x):
        acc = [_Poly() for _ in range(n)]
        for j, xv in enumerate(x):
            if xv:
                xt = terms(xv)
                for i, entry in cols[j]:
                    a = acc[i]
                    get = a.get
                    for me, ce in entry:
                        for mx, cx in xt:
                            m = me + mx
                            a[m] = get(m, 0) + ce * cx
        return _TableVector([a or 0 for a in acc])

    return apply


def _plain(v):
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    return v.val


# Exact linear algebra, generic over both scalar fields.


def _rref(rows, ncols) -> list[int]:
    """Row-reduce rows in place over their first ncols columns; returns the
    pivot columns in order, the r-th pivot standing in row r."""
    pivots = []
    for col in range(ncols):
        at = len(pivots)
        sel = next((i for i in range(at, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[at], rows[sel] = rows[sel], rows[at]
        inv = rows[at][col]
        rows[at] = [v / inv for v in rows[at]]
        for i in range(len(rows)):
            if i != at and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[at])]
        pivots.append(col)
    return pivots


def independent_columns(vectors: Sequence[Vector]) -> list[int]:
    """Indices of a maximal earliest-first linearly independent subset: the
    pivot columns of the matrix whose columns are the vectors."""
    return _rref([list(row) for row in zip(*(v.coords for v in vectors))], len(vectors))


def solve_in_span(basis: Sequence[Vector], target: Vector):
    """Coefficients x with sum x_a basis[a] = target, or None if unsolvable.

    The basis vectors must be linearly independent (unique solution)."""
    r = len(basis)
    # augmented n x (r+1) system; a pivot in the last column is an inconsistency
    rows = [[v.coords[i] for v in basis] + [t] for i, t in enumerate(target.coords)]
    pivots = _rref(rows, r + 1)
    if r in pivots:
        return None
    sol = [target.space.field.zero] * r
    for row, col in zip(rows, pivots):
        sol[col] = row[r]
    return sol


def nullspace(m: EvenMap) -> list[Vector]:
    """Basis of the kernel, one vector per free column of the RREF."""
    n, field = m.domain.dim, m.domain.field
    rows = [list(r) for r in m.entries]
    pivots = _rref(rows, n)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        coords = [field.zero] * n
        coords[free] = field.one
        for row, col in zip(rows, pivots):
            coords[col] = -row[free]
        basis.append(Vector(m.domain, coords))
    return basis
