"""Exact natural and rational arithmetic with elementary multiplicative tools.

Naturals are plain Python ints restricted to values >= 0; there is no
magnitude ceiling.  All values are immutable and every function is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError


def _require_natural(x: int, name: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise DomainError(f"{name} must be an integer, got {x!r}")
    if x < 0:
        raise DomainError(f"{name} must be >= 0, got {x}")
    return x


def _digits_of(n: int, k: int) -> list[int]:
    """Base-k digits of n >= 0, most significant first; [0] for n = 0."""
    if n == 0:
        return [0]
    out = []
    while n:
        n, d = divmod(n, k)
        out.append(d)
    out.reverse()
    return out


def _decimal_text(n: int) -> str:
    """n >= 0 in decimal, also past the interpreter's int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:
        return "".join(map(str, _digits_of(n, 10)))


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of two naturals; gcd(0, 0) is undefined."""
    _require_natural(a, "a")
    _require_natural(b, "b")
    if a == 0 and b == 0:
        raise DomainError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


def is_coprime(a: int, b: int) -> bool:
    return gcd(a, b) == 1


@dataclass(frozen=True, slots=True)
class Factorization:
    """Prime factorization as ((prime, exponent), ...) with primes ascending."""

    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        n = 1
        for p, e in self.factors:
            n *= p**e
        return n

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


@lru_cache(maxsize=4096)
def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division (2, 3, then a 6k+-1 wheel)."""
    _require_natural(n, "n")
    if n == 0:
        raise DomainError("0 has no prime factorization")
    factors = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    p = 5
    while p * p <= n:
        for q in (p, p + 2):
            if n % q == 0:
                e = 0
                while n % q == 0:
                    n //= q
                    e += 1
                factors.append((q, e))
        p += 6
    if n > 1:
        factors.append((n, 1))
    return Factorization(tuple(factors))


def divisors(n: int) -> tuple[int, ...]:
    """All divisors of n >= 1, ascending."""
    _require_natural(n, "n")
    if n == 0:
        raise DomainError("0 has infinitely many divisors")
    divs = [1]
    for p, e in factorize(n).factors:
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return tuple(sorted(divs))


def totient(n: int) -> int:
    """Euler's totient, via the factorization formula."""
    _require_natural(n, "n")
    if n == 0:
        raise DomainError("totient(0) is undefined")
    phi = n
    for p, _ in factorize(n).factors:
        phi = phi // p * (p - 1)
    return phi


@dataclass(frozen=True, slots=True)
class Rational:
    """A reduced nonnegative fraction num/den with den >= 1.

    Negative values are rejected: the whole library works on nonnegative
    numbers and keeping that invariant at the boundary keeps every
    downstream precondition literal.
    """

    num: int
    den: int = 1

    def __post_init__(self):
        _require_natural(self.num, "num")
        if not isinstance(self.den, int) or isinstance(self.den, bool) or self.den <= 0:
            raise DomainError(f"denominator must be a positive integer, got {self.den!r}")
        g = math.gcd(self.num, self.den)
        if g > 1:
            object.__setattr__(self, "num", self.num // g)
            object.__setattr__(self, "den", self.den // g)

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    @property
    def is_integer(self) -> bool:
        return self.den == 1

    def __add__(self, other: "Rational | int") -> "Rational":
        if isinstance(other, int):
            other = Rational(other)
        if not isinstance(other, Rational):
            return NotImplemented
        return Rational(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __mul__(self, other: "Rational | int") -> "Rational":
        if isinstance(other, int):
            other = Rational(other)
        if not isinstance(other, Rational):
            return NotImplemented
        return Rational(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "Rational | int") -> "Rational":
        if isinstance(other, int):
            other = Rational(other)
        if not isinstance(other, Rational):
            return NotImplemented
        if other.num == 0:
            raise DomainError("division by zero")
        return Rational(self.num * other.den, self.den * other.num)

    def __str__(self) -> str:
        return _decimal_text(self.num) + ("" if self.den == 1 else f"/{_decimal_text(self.den)}")


def pow_rational(base: int, exponent: int) -> Rational:
    """base**exponent as an exact Rational, for any integer exponent."""
    if base < 1:
        raise DomainError(f"base must be >= 1, got {base}")
    if exponent >= 0:
        return Rational(base**exponent)
    return Rational(1, base**-exponent)
