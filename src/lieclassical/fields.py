"""Exact field arithmetic: the rationals, prime fields GF(p) and quadratic
extensions GF(p^2).

Scalars are plain Python values whose meaning depends on the field:
``fractions.Fraction`` over the rationals, canonical residues ``0..p-1`` for
GF(p), and pairs ``(a, b)`` representing ``a + b*x`` with ``x**2 = r`` for
GF(p^2).  All values are canonical, so ``==`` on scalars is field equality.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def quadratic_nonresidue(p: int):
    """Smallest positive non-square mod the odd prime p (Euler's criterion)."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    return next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)


class Field:
    """Common interface for the supported exact fields."""

    char: int
    degree: int

    def zero(self):
        return self.of(0)

    def one(self):
        return self.of(1)

    def of(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def order(self):
        """Number of elements, or None for an infinite field."""
        return None

    def elements(self):
        raise NotImplementedError(f"{self} is infinite")

    def is_square(self, a) -> bool:
        raise NotImplementedError

    def random(self, rng):
        raise NotImplementedError

    def fmt(self, a) -> str:
        raise NotImplementedError

    def parse(self, s: str):
        raise NotImplementedError

    @property
    def token(self) -> str:
        """Field tag used in the matrix text format."""
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))


class RationalField(Field):
    char = 0
    degree = 1

    def of(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def is_zero(self, a):
        return a == 0

    def is_square(self, a):
        if a < 0:
            return False
        n, d = a.numerator, a.denominator
        return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d

    def random(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def fmt(self, a):
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def parse(self, s):
        return Fraction(s)

    @property
    def token(self):
        return "Q"

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    degree = 1

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.char = p

    def of(self, n):
        return n % self.char

    def add(self, a, b):
        return (a + b) % self.char

    def sub(self, a, b):
        return (a - b) % self.char

    def mul(self, a, b):
        return (a * b) % self.char

    def neg(self, a):
        return (-a) % self.char

    def inv(self, a):
        if a % self.char == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.char - 2, self.char)

    def is_zero(self, a):
        return a % self.char == 0

    def order(self):
        return self.char

    def elements(self):
        return list(range(self.char))

    def is_square(self, a):
        a %= self.char
        if a == 0 or self.char == 2:
            return True
        return pow(a, (self.char - 1) // 2, self.char) == 1

    def random(self, rng):
        return rng.randrange(self.char)

    def fmt(self, a):
        return str(a)

    def parse(self, s):
        return int(s) % self.char

    @property
    def token(self):
        return str(self.char)

    def __repr__(self):
        return f"GF({self.char})"


_QUAD_RE = re.compile(r"^(?P<a>[+-]?\d+)(?P<sign>[+-])(?P<b>\d+)\*x$")


class QuadraticField(Field):
    """GF(p^2) as GF(p)[x]/(x^2 - r) for a quadratic nonresidue r mod p."""

    degree = 2

    def __init__(self, p: int, nonresidue: int | None = None):
        if p == 2:
            raise ValueError("GF(4) is not supported")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        r = quadratic_nonresidue(p) if nonresidue is None else nonresidue % p
        if pow(r, (p - 1) // 2, p) != p - 1:
            raise ValueError(f"{r} is a square mod {p}")
        self.char = p
        self.nonresidue = r

    def of(self, n):
        return (n % self.char, 0)

    def add(self, a, b):
        p = self.char
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def sub(self, a, b):
        p = self.char
        return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)

    def mul(self, a, b):
        p, r = self.char, self.nonresidue
        return ((a[0] * b[0] + r * a[1] * b[1]) % p, (a[0] * b[1] + a[1] * b[0]) % p)

    def neg(self, a):
        p = self.char
        return ((-a[0]) % p, (-a[1]) % p)

    def inv(self, a):
        p, r = self.char, self.nonresidue
        norm = (a[0] * a[0] - r * a[1] * a[1]) % p
        if norm == 0:
            raise ZeroDivisionError("inverse of 0")
        ninv = pow(norm, p - 2, p)
        return ((a[0] * ninv) % p, ((-a[1]) * ninv) % p)

    def is_zero(self, a):
        return a == (0, 0)

    def order(self):
        return self.char * self.char

    def elements(self):
        p = self.char
        return [(a, b) for a in range(p) for b in range(p)]

    def pow(self, a, n: int):
        result = self.one()
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def is_square(self, a):
        if self.is_zero(a):
            return True
        return self.pow(a, (self.order() - 1) // 2) == self.one()

    def random(self, rng):
        return (rng.randrange(self.char), rng.randrange(self.char))

    def fmt(self, a):
        return f"{a[0]}+{a[1]}*x"

    def parse(self, s):
        s = s.replace(" ", "")
        m = _QUAD_RE.match(s)
        if m:
            a = int(m.group("a"))
            b = int(m.group("b"))
            if m.group("sign") == "-":
                b = -b
            return (a % self.char, b % self.char)
        if s.endswith("*x"):
            return (0, int(s[:-2]) % self.char)
        return (int(s) % self.char, 0)

    @property
    def token(self):
        return f"{self.char}^2"

    def __repr__(self):
        return f"GF({self.char}^2)"


QQ = RationalField()

_prime_cache: dict[int, PrimeField] = {}
_quad_cache: dict[tuple[int, int | None], QuadraticField] = {}


def GF(p: int, degree: int = 1, nonresidue: int | None = None) -> Field:
    # prime-field matrices are int64 arrays, so one product of residues must fit
    if (p - 1) ** 2 >= 2**63:
        raise ValueError(
            f"prime {p} is too large: field arithmetic runs in int64 and needs (p-1)^2 < 2^63"
        )
    if degree == 1:
        if p not in _prime_cache:
            _prime_cache[p] = PrimeField(p)
        return _prime_cache[p]
    if degree == 2:
        key = (p, nonresidue)
        if key not in _quad_cache:
            _quad_cache[key] = QuadraticField(p, nonresidue)
        return _quad_cache[key]
    raise ValueError("only degree 1 and 2 are supported")


def field_from_token(token: str) -> Field:
    token = token.strip()
    if token == "Q":
        return QQ
    if "^" in token:
        base, _, exp = token.partition("^")
        if exp != "2":
            raise ValueError(f"unsupported field token {token!r}")
        return GF(int(base), 2)
    return GF(int(token))
