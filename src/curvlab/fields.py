"""Exact coefficient fields: prime fields F_p and the rationals.

All arithmetic in curvlab is exact.  There are two field classes, each
monomorphic, so no method branches on the kind of field:

  - `PrimeField(p)`, built by `GF(p)`: coefficients are ints reduced mod p;
  - `Rationals`, the one instance `QQ`: coefficients are
    `fractions.Fraction`.

`FieldSpec` is their common base: `kind`, `characteristic`, equality and
hashing by those two, and the JSON document format ("p/q" strings over Q,
plain ints mod p).  `is_prime_field` is a class attribute; outside this
module it chooses an algorithm (enumeration needs a finite field), never
the arithmetic of a coefficient.

Besides the scalar operations (`add`, `sub`, `neg`, `mul`, `inv`,
`is_zero`), each field carries the sparse kernels on vectors
{index: coefficient}.  They are the one accumulate, the one scale and the
one rank of the package:

  - `add_scaled(out, c, v)` does out += c*v in place.  A term c*x that is
    zero is skipped; an entry of `out` that becomes zero is deleted, a new
    one is appended.  So the keys of `out` change exactly as they do in
    `out = vec_add(out, vec_scale(c, v))` (the generic accumulation this
    kernel replaced): insertions and removals in the order of v, the
    entries of `out` that no nonzero term touches left as they are.
  - `scale(c, v)` is the new vector c*v without its zero terms, in the
    order of v.
  - `nonzero(v)` is v without its zero coefficients, values as they are.
  - `rank(rows, ncols)` is the rank of the rows restricted to the columns
    below ncols, by forward elimination: each row is cleared at the pivots
    in the order found and, if an entry below ncols is left, becomes a
    pivot row in place, so a caller hands it fresh, distinct dicts.

Over F_p a scalar c may be any int (it is reduced first); results are
reduced.  Over Q the results are Fractions wherever a Fraction takes part,
as plain `+` and `*` give them.
"""

from __future__ import annotations

from fractions import Fraction


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class CoefficientError(ValueError):
    """A document coefficient that is not an element of the field."""


class PrimeFieldRequired(ValueError):
    """A search over the elements of a finite field was asked for over Q."""


class FieldSpec:
    """Ground field: kind is 'rationals' or 'prime-field' (with characteristic p).

    The base class of `PrimeField` and `Rationals`; two fields are equal
    when their kind and characteristic are.
    """

    kind: str
    characteristic: int
    is_prime_field: bool

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.kind, self.characteristic) == (other.kind, other.characteristic)

    def __hash__(self) -> int:
        return hash((self.kind, self.characteristic))

    def describe(self) -> dict:
        if self.is_prime_field:
            return {"kind": "prime-field", "characteristic": self.characteristic}
        return {"kind": "rationals"}

    @staticmethod
    def from_doc(doc) -> "FieldSpec":
        if isinstance(doc, str):
            if doc == "rationals":
                return QQ
            raise ValueError(f"unknown field {doc!r}")
        if not isinstance(doc, dict):
            raise ValueError(f"unknown field document {doc!r}")
        kind = doc.get("kind")
        if kind == "rationals":
            return QQ
        if kind == "prime-field":
            p = doc["characteristic"]
            if isinstance(p, bool) or not isinstance(p, (int, str)):
                raise ValueError(f"bad characteristic {p!r}")
            return GF(int(p))
        raise ValueError(f"unknown field document {doc!r}")


class PrimeField(FieldSpec):
    """F_p: ints reduced mod a prime p <= 2^31."""

    kind = "prime-field"
    is_prime_field = True

    def __init__(self, p: int):
        if not (isinstance(p, int) and _is_prime(p) and p <= 2**31):
            raise ValueError("characteristic must be a prime <= 2^31")
        self.characteristic = p

    def __repr__(self) -> str:
        return f"GF({self.characteristic})"

    # -- scalars --------------------------------------------------------------

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        return int(x) % self.characteristic

    def add(self, a, b):
        return (a + b) % self.characteristic

    def sub(self, a, b):
        return (a - b) % self.characteristic

    def neg(self, a):
        return (-a) % self.characteristic

    def mul(self, a, b):
        return a * b % self.characteristic

    def inv(self, a):
        p = self.characteristic
        if a % p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, p - 2, p)

    def is_zero(self, a) -> bool:
        return a % self.characteristic == 0

    def elements(self):
        """All field elements."""
        return range(self.characteristic)

    # -- sparse kernels -------------------------------------------------------

    def add_scaled(self, out: dict, c, v: dict) -> None:
        """out += c*v in place (see the module docstring for key order)."""
        p = self.characteristic
        c %= p
        if not c:
            return
        for i, x in v.items():
            t = c * x % p
            if t:
                s = out.get(i)
                if s is None:
                    out[i] = t
                else:
                    s = (s + t) % p
                    if s:
                        out[i] = s
                    else:
                        del out[i]

    def scale(self, c, v: dict) -> dict:
        p = self.characteristic
        c %= p
        out = {}
        if c:
            for i, x in v.items():
                t = c * x % p
                if t:
                    out[i] = t
        return out

    def nonzero(self, v: dict) -> dict:
        p = self.characteristic
        out = dict(v)
        for i, x in v.items():
            if not x % p:
                del out[i]
        return out

    def rank(self, rows, ncols: int) -> int:
        """The rank of rows of any ints below ncols; it consumes them."""
        p = self.characteristic
        pivots = []  # (column, row, -1/entry) in the order found
        for r in rows:
            for c, prow, m in pivots:
                t = r.get(c, 0) * m % p
                if t:
                    for i, y in prow.items():
                        r[i] = (r.get(i, 0) + t * y) % p
            for c, x in r.items():
                if x % p and c < ncols:
                    pivots.append((c, r, -pow(x, p - 2, p)))
                    break
        return len(pivots)

    # -- document I/O ---------------------------------------------------------

    def parse_coeff(self, s):
        """An int, or a string of one, reduced mod p."""
        if not isinstance(s, bool):
            if isinstance(s, int):
                return s % self.characteristic
            if isinstance(s, str):
                try:
                    return int(s) % self.characteristic
                except ValueError:
                    pass
        raise CoefficientError(f"bad coefficient mod {self.characteristic}: {s!r}")

    def format_coeff(self, a):
        return int(a) % self.characteristic


class Rationals(FieldSpec):
    """Q: Fractions (ints are accepted wherever a coefficient is read)."""

    kind = "rationals"
    characteristic = 0
    is_prime_field = False

    def __repr__(self) -> str:
        return "QQ"

    # -- scalars --------------------------------------------------------------

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def elements(self):
        raise ValueError("cannot enumerate the rationals")

    # -- sparse kernels -------------------------------------------------------

    def add_scaled(self, out: dict, c, v: dict) -> None:
        """out += c*v in place (see the module docstring for key order)."""
        if not c:
            return
        for i, x in v.items():
            t = c * x
            if t:
                s = out.get(i, _ZERO) + t
                if s:
                    out[i] = s
                else:
                    del out[i]

    def scale(self, c, v: dict) -> dict:
        out = {}
        if c:
            for i, x in v.items():
                t = c * x
                if t:
                    out[i] = t
        return out

    def nonzero(self, v: dict) -> dict:
        out = dict(v)
        for i, x in v.items():
            if not x:
                del out[i]
        return out

    def rank(self, rows, ncols: int) -> int:
        """The rank of the rows below ncols; it consumes them."""
        pivots = []  # (column, row, -1/entry) in the order found
        for r in rows:
            for c, prow, m in pivots:
                t = r.get(c)
                if t:
                    t *= m
                    for i, y in prow.items():
                        r[i] = r.get(i, _ZERO) + t * y
            for c, x in r.items():
                if x and c < ncols:
                    pivots.append((c, r, -1 / Fraction(x)))
                    break
        return len(pivots)

    # -- document I/O ---------------------------------------------------------

    def parse_coeff(self, s):
        """An int, or a string "n" or "p/q", as a Fraction."""
        if not isinstance(s, bool) and isinstance(s, (int, str)):
            try:
                return Fraction(s)
            except (ValueError, ZeroDivisionError):
                pass
        raise CoefficientError(f"bad rational coefficient: {s!r}")

    def format_coeff(self, a):
        f = Fraction(a)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


_ZERO = Fraction(0)

QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)
