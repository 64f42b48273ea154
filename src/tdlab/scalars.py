"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Values are plain objects: ``fractions.Fraction`` over the rationals and
:class:`FpElement` residues over GF(p).  A field object fixes the choice of
field and owns parsing, formatting, and the canonical constants; the values
themselves support ``+ - * / **`` and equality.  Everything is exact; no
floating point exists anywhere in this package.

Interchange grammar (bit-exact):

* rational: optional ``-``, digits, optionally ``/`` digits; canonical form
  is the reduced fraction with positive denominator, printed without ``/1``.
* prime: optional ``-`` and digits; reduced mod p on input, emitted in [0, p).
"""

from __future__ import annotations

import re
from fractions import Fraction


class FieldError(ValueError):
    """Malformed scalar text, mixed fields, or an invalid modulus."""


_RATIONAL_RE = re.compile(r"-?\d+(/\d+)?\Z")
_INTEGER_RE = re.compile(r"-?\d+\Z")


# Miller-Rabin with the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, Math. Comp. 2017, arXiv:1509.00864)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises FieldError from PRIME_BOUND on."""
    if n >= PRIME_BOUND:
        raise FieldError(f"modulus {n} is too large: primality is decided below {PRIME_BOUND}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpElement:
    """A residue in GF(p), always stored in [0, p)."""

    __slots__ = ("field", "value")

    def __init__(self, field: "PrimeField", value: int):
        self.field = field
        self.value = value % field.p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.field.p != self.field.p:
                raise FieldError(
                    f"mixed prime fields GF({self.field.p}) and GF({other.field.p})"
                )
            return other.value
        if isinstance(other, int):
            return other % self.field.p
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.field, self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.field, self.value - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.field, v - self.value)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.field, self.value * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if v % self.field.p == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.field.p})")
        return FpElement(self.field, self.value * pow(v, -1, self.field.p))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if self.value == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.field.p})")
        return FpElement(self.field, v * pow(self.value, -1, self.field.p))

    def __pow__(self, n: int):
        if n < 0:
            if self.value == 0:
                raise ZeroDivisionError(f"inverse of zero in GF({self.field.p})")
            return FpElement(self.field, pow(pow(self.value, -1, self.field.p), -n, self.field.p))
        return FpElement(self.field, pow(self.value, n, self.field.p))

    def __neg__(self):
        return FpElement(self.field, -self.value)

    def __eq__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return self.value == v

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"FpElement({self.value} mod {self.field.p})"


class RationalField:
    """The rationals, with arbitrary-precision Fraction values."""

    kind = "rational"
    characteristic = 0

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def parse(self, text: str) -> Fraction:
        if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
            raise FieldError(f"malformed rational scalar {text!r}")
        if "/" in text:
            num, den = text.split("/")
            if int(den) == 0:
                raise FieldError(f"zero denominator in {text!r}")
            return Fraction(int(num), int(den))
        return Fraction(int(text))

    def format(self, x: Fraction) -> str:
        x = Fraction(x)
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"

    def descriptor(self) -> dict:
        return {"kind": "rational"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """GF(p) for a prime modulus p below PRIME_BOUND, validated by Miller-Rabin."""

    kind = "prime"

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise FieldError(f"modulus {p!r} is not prime")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self) -> FpElement:
        return FpElement(self, 0)

    @property
    def one(self) -> FpElement:
        return FpElement(self, 1)

    def from_int(self, n: int) -> FpElement:
        return FpElement(self, n)

    def parse(self, text: str) -> FpElement:
        if not isinstance(text, str) or not _INTEGER_RE.fullmatch(text):
            raise FieldError(f"malformed prime-field scalar {text!r}")
        return FpElement(self, int(text))

    def format(self, x) -> str:
        if isinstance(x, int):
            x = FpElement(self, x)
        return str(x.value)

    def descriptor(self) -> dict:
        return {"kind": "prime", "modulus": self.p}

    def _as_element(self, x) -> FpElement:
        if isinstance(x, FpElement):
            if x.field.p != self.p:
                raise FieldError(f"scalar from GF({x.field.p}) used in GF({self.p})")
            return x
        if isinstance(x, int):
            return FpElement(self, x)
        raise FieldError(f"{x!r} is not a GF({self.p}) scalar")

    def sqrt(self, a) -> FpElement | None:
        """A square root of a in GF(p), or None if a is a non-residue.

        Tonelli-Shanks; the p = 2 and easy p % 4 == 3 cases are handled
        directly.
        """
        a = self._as_element(a)
        p = self.p
        if a.value == 0:
            return self.zero
        if p == 2:
            return a
        if pow(a.value, (p - 1) // 2, p) != 1:
            return None
        if p % 4 == 3:
            return FpElement(self, pow(a.value, (p + 1) // 4, p))
        # write p-1 = q * 2^s with q odd
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c = s, pow(z, q, p)
        t, r = pow(a.value, q, p), pow(a.value, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return FpElement(self, r)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


Field = RationalField | PrimeField


def field_from_descriptor(desc: dict) -> Field:
    """Build a field from its interchange descriptor."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise FieldError(f"bad field descriptor {desc!r}")
    if desc["kind"] == "rational":
        return RationalField()
    if desc["kind"] == "prime":
        if "modulus" not in desc:
            raise FieldError("prime field descriptor lacks a modulus")
        return PrimeField(desc["modulus"])
    raise FieldError(f"unknown field kind {desc['kind']!r}")


def rational_sqrt(x: Fraction) -> Fraction | None:
    """The nonnegative rational square root of x, or None."""
    x = Fraction(x)
    if x < 0:
        return None
    rn = _isqrt_exact(x.numerator)
    if rn is None:
        return None
    rd = _isqrt_exact(x.denominator)
    if rd is None:
        return None
    return Fraction(rn, rd)


def _isqrt_exact(n: int) -> int | None:
    import math

    r = math.isqrt(n)
    return r if r * r == n else None


def sqrt_in_field(field: Field, x):
    """A square root of x in the field, or None when none exists."""
    if isinstance(field, RationalField):
        return rational_sqrt(x)
    return field.sqrt(x)
