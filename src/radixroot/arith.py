"""Exact natural and rational arithmetic, elementary multiplicative tools,
and conversion between integers and their base-k digits.

Naturals are plain Python ints restricted to values >= 0; there is no
magnitude ceiling.  All values are immutable and every function is pure.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, wraps
from itertools import islice, product

from .errors import DomainError


def _require_int(x: int, name: str, low: int | None = 0,
                 error: type[ValueError] = DomainError) -> int:
    """The integer rule of every public entry point: x is an int, never a
    bool, and at least ``low`` unless that is None; else ``error``, with x
    printed in full however long it is."""
    # Exact ints pass on the first test; int subclasses other than bool too.
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)):
        raise error(f"{name} must be an integer, got {x!r}")
    if low is not None and x < low:
        raise error(f"{name} must be >= {low}, got {_decimal_text(x)}")
    return x


def _require_digits(digits, k: int) -> tuple[int, ...]:
    """``digits`` as a tuple, or a DomainError naming the first that is not a digit of base k."""
    digits = tuple(digits)
    for d in digits:
        if _require_int(d, "digit") >= k:
            raise DomainError(f"digit {_decimal_text(d)} out of range for base {_decimal_text(k)}")
    return digits


# Numbers below 2^_SPLIT_BITS take one divmod per digit; larger ones are
# spelled by format() in bases 2, 8 and 16, and first split by k^(2^i) in
# others.  A pick: cutoffs of 250 to 2,000 bits timed alike.
_SPLIT_BITS = 500


def _twos(k: int) -> int:
    """The exponent b of 2 in k >= 1, so that k = o << b with o odd and
    k^h = o^h << b*h: a power of k is a power of its odd part, shifted."""
    return (k & -k).bit_length() - 1


def _power(k: int, e: int) -> int:
    """k**e, as the odd part's power shifted: fewer bits to multiply."""
    b = (k & -k).bit_length() - 1  # _twos(k), inline: short powers are common
    return (k >> b) ** e << b * e


def _odd_ladder(k: int):
    """The powers o, o^2, o^4, ... of k's odd part o, each the square of
    the one before, without end: k^(2^i) is the i-th shifted by b * 2^i."""
    o = k >> _twos(k)
    while True:
        yield o
        o *= o


def _digits_of(n: int, k: int, width: int = 1, ladder: list[int] | None = None,
               i: int = 0) -> list[int]:
    """Base-k digits of n >= 0, most significant first, left-padded with
    zeros to ``width`` digits: [0] for n = 0.

    Large n is spelled by format() in bases 2, 8 and 16, and split as
    hi * k^h + lo with h = 2^i in others, k^h being o^h << b*h for
    k = o << b: n >> b*h is divided by o^h, and its low b*h bits go back
    onto the remainder.  Each o^h is squared once per call (``ladder``),
    so the cost is that of a few full-size divisions, by odd parts with
    fewer bits than k^h, rather than one per digit.  Every call takes
    n < k^(2h).
    """
    if n >> _SPLIT_BITS:
        if k in _FORMAT_SPEC:
            return list(format(n, _FORMAT_SPEC[k]).zfill(width).encode().translate(_VALUE_OF_BYTE))
        b = _twos(k)
        if ladder is None:  # up to the first k^(2^i) whose square exceeds n
            ladder = []
            for i, power in enumerate(_odd_ladder(k)):
                ladder.append(power)
                if 2 * (power.bit_length() + (b << i)) - 1 > n.bit_length():
                    break
        if i >= 0:
            half = 1 << i
            shift = b * half
            top = n >> shift
            if top < ladder[i] and width <= half:  # no digit at or above k^half
                return _digits_of(n, k, width, ladder, i - 1)
            hi, lo = divmod(top, ladder[i])
            lo = lo << shift | n & ((1 << shift) - 1)
            return (_digits_of(hi, k, width - half, ladder, i - 1)
                    + _digits_of(lo, k, half, ladder, i - 1))
    out = []
    while n:
        n, d = divmod(n, k)
        out.append(d)
    if width > len(out):
        out.extend([0] * (width - len(out)))
    out.reverse()
    return out


def _digit_sum(n: int, k: int) -> int:
    """Sum of the base-k digits of n >= 0, split by _digits_of when large;
    in base 2 that is the count of one bits."""
    if n >> _SPLIT_BITS:
        return n.bit_count() if k == 2 else sum(_digits_of(n, k))
    s = 0
    while n:
        n, d = divmod(n, k)
        s += d
    return s


# Long division steps m base-k digits per divmod, m the largest width with
# k^m <= _BLOCK_CAP, or 2 where k^2 <= _PAIR_CAP (bases 33 to 64), reading
# each block from a table of k^m entries.  A 2^12 cap timed no faster up to
# base 32 (its tables miss the CPU cache) and held six times the memory;
# base 200's 40,000 pairs took 5.5 ms to build, and m = 3 in base 40 lost.
_BLOCK_CAP = 1 << 10
_PAIR_CAP = 4 * _BLOCK_CAP


@lru_cache(maxsize=32)
def _digit_blocks(k: int) -> tuple[bytes, ...]:
    """For 2 <= k <= 64: the table of every m-digit block of base k, m the
    largest width with k^m <= _BLOCK_CAP, or 2 above base 32.  Entry v is
    the m base-k digits of v, most significant first and left-padded with
    zeros, one byte each, so the table has k^m entries of m bytes."""
    m = 2
    while k ** (m + 1) <= _BLOCK_CAP:
        m += 1
    # product() counts in base k: its v-th tuple is the digits of v.
    return tuple(map(bytes, product(range(k), repeat=m)))


ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
# Digit value -> byte, for bytes.translate to spell a whole string of digits
# of a base up to 36 at once.
_BYTE_OF_VALUE = ALPHABET.encode().ljust(256, b"\0")
_DIGIT_VALUES = {ch: i for i, upper in enumerate(ALPHABET) for ch in (upper, upper.lower())}
# Byte -> digit value, also of format()'s lowercase a-f.  Bytes that spell
# no digit read as _NOT_A_DIGIT, which no base up to 36 has.
_NOT_A_DIGIT = 255
_VALUE_OF_BYTE = bytes(_DIGIT_VALUES.get(chr(b), _NOT_A_DIGIT) for b in range(256))
_FORMAT_SPEC = {2: "b", 8: "o", 16: "x"}  # the bases format() spells in linear time
# int() reads at most this many characters at once in a base that is not
# a power of two: sys.int_info.str_digits_check_threshold, the lowest
# nonzero int-string limit, so no setting of the limit rejects a leaf.
# Leaves of 80 to 640 characters timed alike.
_INT_LEAF = 640
# Above base 36, digit strings are split down to leaves of at most this
# many digits, which _int_of reads by Horner's rule.  A pick: cutoffs of
# 32 to 256 timed alike, and 16 was slower on long strings.
_HORNER_DIGITS = 64


def _joined(digits, k: int, leaf: int, read, ladder: list[int] | None = None) -> int:
    """``read(digits, k)`` for at most ``leaf`` digits.  Longer strings are
    hi * k^h + lo, with lo the last h = 2^i digits and h the largest power
    of two below the length, as _digits_of splits; k^h is joined as the
    odd part's o^h, squared once per call (``ladder``), shifted by b*h."""
    if len(digits) <= leaf:
        return read(digits, k)
    i = (len(digits) - 1).bit_length() - 1
    if ladder is None:
        ladder = list(islice(_odd_ladder(k), i + 1))
    return ((_joined(digits[:-(1 << i)], k, leaf, read, ladder) * ladder[i] << (_twos(k) << i))
            + _joined(digits[-(1 << i):], k, leaf, read, ladder))


def _int_of_text(text: str | bytes | bytearray, k: int) -> int:
    """The integer spelled by ``text``, a nonempty string of base-k digit
    characters with 2 <= k <= 36, whatever the int-string limit: int() reads
    power-of-two bases whole in linear time, others in _INT_LEAF leaves."""
    if k & (k - 1) == 0:
        return int(text, k)
    return _joined(text, k, _INT_LEAF, int)


def _int_of(digits, k: int) -> int:
    """The integer whose base-k digits, most significant first, are
    ``digits`` (a sequence of digit values); 0 for no digits."""
    if k <= 36:
        return _int_of_text(bytearray(digits).translate(_BYTE_OF_VALUE), k) if digits else 0
    if len(digits) > _HORNER_DIGITS:
        return _joined(digits, k, _HORNER_DIGITS, _int_of)
    n = 0
    for d in digits:
        n = n * k + d
    return n


def _decimal_text(n: int) -> str:
    """n in decimal, also past the interpreter's int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:  # _digits_of needs n >= 0: divmod(-1, 10) is (-1, 9)
        return "-" * (n < 0) + "".join(map(str, _digits_of(abs(n), 10)))


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of two naturals; gcd(0, 0) is undefined."""
    _require_int(a, "a")
    _require_int(b, "b")
    if a == 0 and b == 0:
        raise DomainError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


class _Record:
    """Base of the result records: immutable values whose fields are their
    ``__slots__``, in declaration order, as ==, hash, repr, pickle and match
    read them.  The base's ``__init__`` stores every field; a record's own
    ``__init__`` only checks its input."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        cls._fields = operator.attrgetter(*cls.__slots__)  # no descriptor: self._fields(self)
        # Each slot's own store, which bypasses the __setattr__ that keeps records immutable.
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):  # by name: each field the args leave out
            names = self.__slots__
            if len(args) > len(names) or kwargs.keys() != set(names[len(args):]):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
            args += tuple(kwargs[name] for name in names[len(args):])
        for store, value in zip(setters, args):
            store(self, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Factorization(_Record):
    """Prime factorization as ((prime, exponent), ...) with primes ascending."""

    __slots__ = ("factors",)

    def value(self) -> int:
        n = 1
        for p, e in self.factors:
            n *= p**e
        return n

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def _valuation(n: int, prime: int) -> tuple[int, int]:
    """(e, n // prime^e), e the exponent of prime in n >= 1: divide by prime,
    prime^2, prime^4, ... while they divide, then step back down the same
    squares, so prime^e costs O(log e) divisions, not e."""
    squares = []
    square = prime
    while n % square == 0:
        n //= square
        squares.append(square)
        square *= square
    e = (1 << len(squares)) - 1
    for i in range(len(squares) - 1, -1, -1):
        if n % squares[i] == 0:
            n //= squares[i]
            e += 1 << i
    return e, n


@lru_cache(maxsize=4096)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of n >= 1, primes ascending, by trial
    division (2, 3, then a 6k+-1 wheel)."""
    factors = []
    for p in (2, 3):
        if n % p == 0:
            e, n = _valuation(n, p)
            factors.append((p, e))
    p = 5
    while p * p <= n:
        for q in (p, p + 2):
            if n % q == 0:
                e, n = _valuation(n, q)
                factors.append((q, e))
        p += 6
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def _divisors(n: int) -> tuple[int, ...]:
    """All divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in _factor(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return tuple(sorted(divs))


def _totient(n: int) -> int:
    """Euler's totient of n >= 1, via the factorization formula."""
    phi = n
    for p, _ in _factor(n):
        phi = phi // p * (p - 1)
    return phi


def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division (2, 3, then a 6k+-1 wheel)."""
    return Factorization(_factor(_require_int(n, "n", 1)))


factorize.cache_info = _factor.cache_info  # the hit ratio of the cache behind it


def divisors(n: int) -> tuple[int, ...]:
    """All divisors of n >= 1, ascending."""
    return _divisors(_require_int(n, "n", 1))


def totient(n: int) -> int:
    """Euler's totient, via the factorization formula."""
    return _totient(_require_int(n, "n", 1))


def _coerced(op):
    """The Rational operator ``op(self, other)`` taking an int other as
    Rational(other), and answering NotImplemented for any other type."""
    @wraps(op)
    def method(self, other):
        if isinstance(other, int):
            other = Rational(other)
        elif not isinstance(other, Rational):
            return NotImplemented
        return op(self, other)
    return method


class Rational(_Record):
    """A reduced nonnegative fraction num/den with den >= 1.

    Negative values are rejected: the whole library works on nonnegative
    numbers and keeping that invariant at the boundary keeps every
    downstream precondition literal.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        _require_int(num, "num")
        _require_int(den, "den", 1)
        g = math.gcd(num, den)
        if g > 1:  # a coprime pair, however long, is stored as given
            num, den = num // g, den // g
        # Stored here: 0.60 us per Rational(6, 4), 0.95 through the base; no record is built more.
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    @_coerced
    def __add__(self, other: "Rational | int") -> "Rational":
        return Rational(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    @_coerced
    def __mul__(self, other: "Rational | int") -> "Rational":
        return Rational(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, other: "Rational | int") -> "Rational":
        if other.num == 0:
            raise DomainError("division by zero")
        return Rational(self.num * other.den, self.den * other.num)

    def __str__(self) -> str:
        return _decimal_text(self.num) + ("" if self.den == 1 else f"/{_decimal_text(self.den)}")


def pow_rational(base: int, exponent: int) -> Rational:
    """base**exponent as an exact Rational, for any integer exponent."""
    _require_int(base, "base", 1)
    _require_int(exponent, "exponent", None)
    if exponent >= 0:
        return Rational(base**exponent)
    return Rational(1, base**-exponent)
