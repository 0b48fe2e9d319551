"""Exact scalar arithmetic: rationals and prime fields of odd characteristic.

Scalars are either `fractions.Fraction` (over Q) or `FpElement` (over F_p).
Plain ints promote into either field; everything else mixes only within its
own field.  Cross-field arithmetic raises TypeError, never coerces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union


class FieldError(ValueError):
    pass


# The exponent of a decimal literal, as fractions.Fraction reads it; a longer
# one than four digits would have Fraction build a power of ten without bound.
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


# Miller-Rabin on these bases is exact for every n below the bound: the
# bound is the least strong pseudoprime to all of them.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n must lie below PRIME_BOUND."""
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


class FpElement:
    """Residue mod p.  Stored reduced to [0, p)."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _lift(self, other):
        # ints promote; residues must share p; anything else is a type error
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldError(f"mixed prime fields F_{self.p} and F_{other.p}")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(self.val + o.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(self.val - o.val, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(o.val - self.val, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(self.val * o.val, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.val == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(self.val * pow(o.val, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __pow__(self, k: int):
        return FpElement(pow(self.val, k, self.p), self.p)

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            # only the canonical representative, so equal values hash equal
            return other == self.val
        return NotImplemented

    def __hash__(self):
        return hash(self.val)

    def __repr__(self):
        return f"{self.val}"


@dataclass(frozen=True)
class RationalField:
    """The rational numbers.  Scalars are Fraction values in lowest terms."""

    char = 0

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return Fraction(x)
        raise FieldError(f"scalar {x!r} is not a rational")

    def to_json(self, x) -> str:
        return str(x)

    def from_json(self, v):
        """Decode a JSON scalar.  Returns (value, warning-or-None); a reader
        that is strict refuses the value when the warning is given."""
        if isinstance(v, str):
            exponent = _EXPONENT.search(v)
            if exponent and len(exponent.group(1).replace("_", "").lstrip("0")) > 4:
                raise FieldError(f"rational literal {v[:40]!r}: exponent beyond four digits")
            try:
                q = Fraction(v)
                canonical = str(q)  # ValueError past the interpreter's digit limit
            except (ValueError, ZeroDivisionError) as e:
                raise FieldError(f"bad rational literal {v!r}: {e}") from None
            if canonical != v:
                return q, f"rational {v!r} not in canonical form (want {canonical!r})"
            return q, None
        if isinstance(v, int) and not isinstance(v, bool):
            return Fraction(v), f"rational written as bare int {v} (canonical form is a string)"
        raise FieldError(f"cannot read {v!r} as a rational")

    def __repr__(self):
        return "QQ"


@dataclass(frozen=True)
class PrimeField:
    """F_p for an odd prime p.  Characteristic 2 is rejected outright."""

    p: int

    def __post_init__(self):
        if self.p == 2:
            raise FieldError("characteristic 2 is not supported")
        if self.p >= PRIME_BOUND:
            raise FieldError(f"characteristic too large: at most {PRIME_BOUND - 1} is supported")
        if not _is_prime(self.p):
            raise FieldError(f"{self.p} is not prime")

    char = property(lambda self: self.p)

    @property
    def zero(self) -> FpElement:
        return FpElement(0, self.p)

    @property
    def one(self) -> FpElement:
        return FpElement(1, self.p)

    def coerce(self, x) -> FpElement:
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise FieldError(f"residue mod {x.p} used in F_{self.p}")
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return FpElement(x, self.p)
        raise FieldError(f"scalar {x!r} does not lie in F_{self.p}")

    def elements(self):
        return [FpElement(v, self.p) for v in range(self.p)]

    def to_json(self, x) -> int:
        return x.val

    def from_json(self, v):
        """Decode a JSON residue.  Returns (value, warning-or-None)."""
        if isinstance(v, int) and not isinstance(v, bool):
            if 0 <= v < self.p:
                return FpElement(v, self.p), None
            return FpElement(v, self.p), f"residue {v} outside [0, {self.p})"
        raise FieldError(f"cannot read {v!r} as a residue mod {self.p}")

    def __repr__(self):
        return f"F{self.p}"


Field = Union[RationalField, PrimeField]

QQ = RationalField()


def field_to_json(field: Field):
    if isinstance(field, RationalField):
        return "Q"
    return {"Fp": field.p}


def field_from_json(v) -> Field:
    if v == "Q":
        return QQ
    if isinstance(v, dict) and set(v) == {"Fp"}:
        p = v["Fp"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise FieldError(f"bad prime field descriptor {v!r}")
        return PrimeField(p)
    raise FieldError(f"unknown scalar field descriptor {v!r}")
