"""Base-k representations of nonnegative rationals, finite and repeating.

A reduced fraction terminates in base k exactly when every prime of its
denominator divides k.  Otherwise its expansion is eventually periodic:
write den = S * P with S the k-smooth part and gcd(P, k) = 1; then the
non-repeating fractional prefix has length rho0 = min {r : S | k^r} and the
repetend has length T = ord_P(k), the multiplicative order of k mod P.

Digit strings use the bracket notation ``[int.frac(repetend)]_base`` with
the repetend parenthesized, e.g. ``[4.24(5)]_6``.  Bases up to 36 use the
0-9A-Z alphabet; larger bases spell each digit as a decimal number with
commas between digits, e.g. ``[1,30.0,39(7)]_40``.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .arith import (
    ALPHABET,
    _BLOCK_CAP,
    _BYTE_OF_VALUE,
    Rational,
    _decimal_text,
    _digit_blocks,
    _digits_of,
    _int_of,
    _int_of_text,
    _require_digits,
    _require_int,
    factorize,
    totient,
)
from .errors import DomainError, ParseError

_DIGIT_VALUES = {ch: i for i, upper in enumerate(ALPHABET) for ch in (upper, upper.lower())}
# Byte -> digit value, for _tokenize (arith._BYTE_OF_VALUE writes one).
# Bytes that spell no digit read as _NOT_A_DIGIT, which no base up to 36 has.
_NOT_A_DIGIT = 255
_VALUE_OF_BYTE = bytes(_DIGIT_VALUES.get(chr(b), _NOT_A_DIGIT) for b in range(256))
_DIGIT_BYTES = bytes(range(len(ALPHABET)))
# Bases from 37 up to this one keep a table of their digits' names; the
# table holds one name per digit of the base, so larger bases do without.
_NAMED_BASES = 1024
# Error messages quote at most this many characters of the input.
_ECHO_CHARS = 60


def _decimal(text: str) -> int | None:
    """Value of an ASCII decimal numeral, or None for any other text.

    This is the one rule for numbers typed as text: ``str.isdigit`` alone
    also accepts non-ASCII digits such as '١' or '²'.  Numerals of any
    length are read, also past the interpreter's int-string limit.
    """
    if not (text.isascii() and text.isdigit()):
        return None
    return _int_of_text(text, 10)


def _echo(text: str) -> str:
    """``text`` quoted for an error message: whole up to _ECHO_CHARS
    characters, else its first _ECHO_CHARS and its length."""
    if len(text) <= _ECHO_CHARS:
        return repr(text)
    return f"{text[:_ECHO_CHARS]!r}... ({len(text)} characters)"


class Kind(str, enum.Enum):
    TERMINATING = "terminating"
    REPEATING = "repeating"


@dataclass(frozen=True, slots=True)
class RadixClassification:
    """Terminating/repeating verdict for a rational in one base.

    ``rho0`` is the minimum exponent (terminating) or the length of the
    non-repeating fractional prefix (repeating); ``period`` is the repetend
    length, 0 for terminating values.
    """

    kind: Kind
    rho0: int
    period: int

    @property
    def is_terminating(self) -> bool:
        return self.kind is Kind.TERMINATING


def _smooth_split(den: int, k: int) -> tuple[int, int, int]:
    """Split den into (smooth, p, rho0): the largest divisor made of primes
    of k, the coprime remainder, and min {r : smooth | k^r}."""
    p = den
    rho0 = 0
    for prime, e_k in factorize(k).factors:
        if p % prime:
            continue
        # Divide by prime, prime^2, prime^4, ... while they divide, then step
        # back down the same squares: O(log e) divisions for prime^e, not e.
        squares = []
        square = prime
        while p % square == 0:
            p //= square
            squares.append(square)
            square *= square
        e = (1 << len(squares)) - 1
        for i in range(len(squares) - 1, -1, -1):
            if p % squares[i] == 0:
                p //= squares[i]
                e += 1 << i
        rho0 = max(rho0, -(-e // e_k))
    return den // p, p, rho0


def _scaled(num: int, k: int, split: tuple[int, int, int]) -> int:
    """num * k^rho0 / smooth for the split (smooth, p, rho0) of den: p times
    k^rho0 * num/den, so its remainder mod p has the repetend of num/den."""
    smooth, _, rho0 = split
    return num * (k**rho0 // smooth)


# typed, as for factorize: (10, 7.0) must not hit the entry of (10, 7).
@lru_cache(maxsize=4096, typed=True)
def multiplicative_order(k: int, p: int) -> int:
    """Smallest T >= 1 with k^T = 1 mod p; requires gcd(k, p) = 1, p >= 2.

    Starts from totient(p) and strips prime factors while the power still
    fixes 1, which visits only divisors of the totient.
    """
    _require_int(k, "base", 2)
    _require_int(p, "modulus", 2)
    if math.gcd(k, p) != 1:
        raise DomainError(f"{_decimal_text(k)} and {_decimal_text(p)} are not coprime")
    t = totient(p)
    for prime, _ in factorize(t).factors:
        while t % prime == 0 and pow(k, t // prime, p) == 1:
            t //= prime
    return t


def classify(q: Rational, k: int) -> RadixClassification:
    """Classify q as terminating or repeating in base k."""
    _require_int(k, "base", 2)
    smooth, p, rho0 = _smooth_split(q.den, k)
    if p == 1:
        return RadixClassification(Kind.TERMINATING, rho0, 0)
    return RadixClassification(Kind.REPEATING, rho0, multiplicative_order(k, p))


def _terminating_split(q: Rational, k: int) -> tuple[int, int, int]:
    """The split (den, 1, rho0) of q's denominator when q terminates in
    base k; else a DomainError that names the coprime part, unfactored."""
    _require_int(k, "base", 2)
    smooth, p, rho0 = _smooth_split(q.den, k)
    if p != 1:
        raise DomainError(f"{q} has no finite base-{_decimal_text(k)} expansion: denominator "
                          f"prime(s) dividing {_decimal_text(p)} do not divide {_decimal_text(k)}")
    return smooth, p, rho0


def min_exponent(q: Rational, k: int) -> int:
    """Smallest rho with k^rho * q an integer; q must terminate in base k."""
    return _terminating_split(q, k)[2]


@dataclass(frozen=True, slots=True)
class PositionalRepr:
    """Digits of a nonnegative rational in one base, most significant first.

    ``frac_digits`` holds the non-repeating fractional prefix and
    ``repetend`` the repeating block (empty for finite representations).
    The integer part has no leading zero, a finite representation never
    ends in a zero fractional digit, and a repetend is never all-zero and
    never longer than its minimal period.  A fractional prefix never ends
    in the repetend's last digit, or the repetend could start one digit
    earlier, so each value has one spelling of each form.
    """

    base: int
    int_digits: tuple[int, ...]
    frac_digits: tuple[int, ...] = ()
    repetend: tuple[int, ...] = ()

    def __post_init__(self):
        k = _require_int(self.base, "base", 2)
        for name in ("int_digits", "frac_digits", "repetend"):
            object.__setattr__(self, name, _require_digits(getattr(self, name), k))
        broken = _noncanonical(self.int_digits, self.frac_digits, self.repetend)
        if broken:
            raise DomainError(broken[0])

    @property
    def period(self) -> int:
        return len(self.repetend)


def _trusted(base: int, int_digits: tuple, frac_digits: tuple, repetend: tuple = ()) -> PositionalRepr:
    """A PositionalRepr from digit tuples already known to be in range and
    canonical, without repeating the public constructor's checks."""
    r = object.__new__(PositionalRepr)
    for name, value in zip(PositionalRepr.__slots__, (base, int_digits, frac_digits, repetend)):
        object.__setattr__(r, name, value)
    return r


def _noncanonical(int_digits, frac_digits, repetend) -> tuple[str, str] | None:
    """The first canonical-form rule the digits break, as (message, part),
    or None.  ``part`` is "int", "frac" or "rep": the section at fault."""
    if not int_digits:
        return "integer part must have at least one digit", "int"
    if len(int_digits) > 1 and int_digits[0] == 0:
        return "leading zero in integer part", "int"
    if not repetend and frac_digits and frac_digits[-1] == 0:
        return "finite fractional part must not end in zero", "frac"
    if repetend and not any(repetend):
        return "repetend must contain a nonzero digit", "rep"
    if repetend and _string_period(repetend) != len(repetend):
        return "repetend longer than its minimal period", "rep"
    # 0.a_1..a_m(r_1..r_T) = 0.a_1..a_(m-1)(a_m r_1..r_(T-1)) when a_m = r_T.
    if repetend and frac_digits and frac_digits[-1] == repetend[-1]:
        return "fractional prefix ends in the repetend's last digit", "frac"
    return None


def _string_period(digits: tuple[int, ...]) -> int:
    """Minimal t such that digits is a repetition of its first t entries.

    The periods that divide len(digits) are the multiples of the minimal
    one, so t drops by each prime factor q while t/q is still a period:
    while digits equals itself shifted by t/q.  That compare stops at the
    first mismatch, which for a minimal repetend comes within a few
    entries; slicing would copy the whole tuple twice first.
    """
    t = len(digits)
    for q, _ in factorize(t).factors:
        while t % q == 0 and all(map(operator.eq, islice(digits, t // q, None), digits)):
            t //= q
    return t


def _split_at_point(scaled: int, k: int, rho0: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Digits of scaled/k^rho0: pad to rho0+1 digits and split at the point."""
    digits = _digits_of(scaled, k, rho0 + 1)
    if rho0 == 0:
        return tuple(digits), ()
    return tuple(digits[:-rho0]), tuple(digits[-rho0:])


def _repetend(rem: int, p: int, k: int) -> tuple[int, ...]:
    """Repetend of rem/p in base k (0 < rem < p, gcd(p, k) = 1): the
    T = ord_p(k) digits of remainder long division.

    Bases up to 32 take m digits per divmod, m from arith._digit_blocks,
    whose table spells each quotient below k^m; the operands stay below
    k^m * p, and a last block of T mod m digits is rem * k^(T mod m) // p.
    Larger bases take one digit per divmod, with operands below k * p.
    """
    t = multiplicative_order(k, p)
    if k * k > _BLOCK_CAP:
        out = []
        for _ in range(t):
            d, rem = divmod(rem * k, p)
            out.append(d)
        return tuple(out)
    table = _digit_blocks(k)
    m, block = len(table[0]), len(table)  # m digits, k^m values
    full, tail = divmod(t, m)
    blocks = []
    for _ in range(full):
        v, rem = divmod(rem * block, p)
        blocks.append(table[v])
    if tail:
        blocks.append(table[rem * k**tail // p][m - tail:])
    return tuple(b"".join(blocks))


def _expand(num: int, k: int, split: tuple[int, int, int], infinite: bool) -> PositionalRepr:
    """Digits of num/den in base k, given the split of den: the finite form
    when it terminates, unless ``infinite`` asks for the repeating one (num > 0)."""
    _, p, rho0 = split
    whole, rem = divmod(_scaled(num, k, split), p)
    if p == 1 and infinite:
        return _trusted(k, *_split_at_point(whole - 1, k, rho0), (k - 1,))
    return _trusted(k, *_split_at_point(whole, k, rho0), _repetend(rem, p, k) if p > 1 else ())


def to_finite(q: Rational, k: int) -> PositionalRepr:
    """The unique finite base-k representation of a terminating rational."""
    return _expand(q.num, k, _terminating_split(q, k), False)


def to_repeating(q: Rational, k: int) -> PositionalRepr:
    """The infinite base-k representation of q > 0, with explicit repetend.

    For a repeating rational this is the canonical form, its repetend
    found by long division in O(T) steps.  For a terminating rational it
    is the alternate form that trades the last digit down and repeats
    k-1 forever, e.g. [4.25]_6 -> [4.24(5)]_6.
    """
    return _encode(q, k, True)


def _encode(q: Rational, k: int, infinite: bool) -> PositionalRepr:
    """``_expand`` of q, after the public checks."""
    _require_int(k, "base", 2)
    if infinite and q.is_zero:
        raise DomainError("0 has no representation with infinitely many nonzero digits")
    return _expand(q.num, k, _smooth_split(q.den, k), infinite)


def period(q: Rational, k: int) -> int:
    """Repetend length of q in base k; q must be repeating in that base."""
    c = classify(q, k)
    if c.is_terminating:
        raise DomainError(f"{q} terminates in base {_decimal_text(k)}; it has no repetend")
    return c.period


def value_of(r: PositionalRepr) -> Rational:
    """Exact value of a representation, via the k^T - 1 closed form."""
    k = r.base
    head = _int_of(r.int_digits + r.frac_digits, k)
    shift = k ** len(r.frac_digits)
    if not r.repetend:
        return Rational(head, shift)
    cycle = k ** len(r.repetend) - 1
    return Rational(head * cycle + _int_of(r.repetend, k), shift * cycle)


def convert(r: PositionalRepr, k2: int, infinite: bool = False) -> PositionalRepr:
    """Re-encode a representation canonically in base k2.

    ``infinite`` forces the repeating form even for terminating values.
    """
    return _encode(value_of(r), k2, infinite)


@lru_cache(maxsize=32)
def _digit_names(base: int) -> tuple[tuple[str, ...], dict[str, int]]:
    """The decimal names of the digits of a base from 37 to _NAMED_BASES,
    and the value of each name."""
    names = tuple(map(str, range(base)))
    return names, dict(zip(names, range(base)))


def _join_digits(digits, base: int) -> str:
    """Digits as text, spelled as the module docstring describes."""
    if base <= 36:
        return bytes(digits).translate(_BYTE_OF_VALUE).decode("ascii")
    if base <= _NAMED_BASES:
        names = _digit_names(base)[0]
        return ",".join([names[d] for d in digits])
    return ",".join(map(_decimal_text, digits))


def format_repr(r: PositionalRepr) -> str:
    """Render a representation in bracket notation."""
    body = _join_digits(r.int_digits, r.base)
    if r.frac_digits or r.repetend:
        body += "." + _join_digits(r.frac_digits, r.base)
    if r.repetend:
        body += f"({_join_digits(r.repetend, r.base)})"
    return f"[{body}]_{_decimal_text(r.base)}"


def _tokenize(section: str, start: int, base: int) -> tuple[int, ...]:
    """Digit values of ``section`` (spelled as the module docstring says),
    which begins at offset ``start`` of the input.

    A section of plain digits is read whole: up to base 36 by one
    bytes.translate, above by one lookup of each name.  Only when that
    fails -- a leading zero above base 36, a digit past the name table,
    or an error -- are the tokens walked one by one, and the walk raises
    at the first offender.
    """
    if not section:
        return ()
    tokens = section if base <= 36 else section.split(",")
    if base <= 36:
        # A non-ASCII character encodes as one '?', which spells no digit.
        values = section.encode("ascii", "replace").translate(_VALUE_OF_BYTE)
        if not values.translate(None, _DIGIT_BYTES[:base]):
            return tuple(values)
    elif base <= _NAMED_BASES:
        try:
            return tuple(map(_digit_names(base)[1].__getitem__, tokens))
        except KeyError:
            pass
    lookup = _DIGIT_VALUES.get if base <= 36 else _decimal
    out = []
    pos = start
    for token in tokens:
        value = lookup(token)
        if value is None:
            kind = "character" if base <= 36 else "token"
            raise ParseError(f"invalid digit {kind} {_echo(token)}", pos)
        if value >= base:
            raise ParseError(f"digit {_echo(token)} is >= base {_decimal_text(base)}", pos)
        out.append(value)
        pos += len(token) + (base > 36)
    return tuple(out)


def parse(text: str) -> PositionalRepr:
    """Parse bracket notation back into a PositionalRepr.

    The accepted grammar is ``'[' digits ['.' digits] ['(' digits ')'] ']'
    '_' base`` where the fractional digits may be empty only when a
    repetend group follows.  Spellings that break the canonical form (see
    ``PositionalRepr``) are rejected with the offending position rather
    than silently rewritten.
    """
    if not text:
        raise ParseError("empty input", 0)
    if text[0] != "[":
        raise ParseError("expected '['", 0)
    close = text.find("]")
    if close < 0:
        raise ParseError("missing ']'", len(text))
    body = text[1:close]
    suffix = text[close + 1:]
    if not suffix.startswith("_"):
        raise ParseError("expected '_' after ']'", close + 1)
    base = _decimal(suffix[1:])
    if base is None:
        raise ParseError("expected a decimal base after '_'", close + 2)
    if base < 2:
        raise ParseError(f"base must be >= 2, got {base}", close + 2)

    rep_section = ""
    rep_start = None
    open_paren = body.find("(")
    if open_paren >= 0:
        if not body.endswith(")"):
            raise ParseError("repetend group must close with ')' at the end", 1 + open_paren)
        rep_section = body[open_paren + 1:-1]
        rep_start = 1 + open_paren + 1
        if not rep_section:
            raise ParseError("empty repetend group", 1 + open_paren)
        for bad in "()":
            if bad in rep_section:
                raise ParseError("nested repetend group", rep_start + rep_section.find(bad))
        body = body[:open_paren]
    elif ")" in body:
        raise ParseError("')' without matching '('", 1 + body.find(")"))

    dot = body.find(".")
    if dot >= 0:
        int_section, frac_section = body[:dot], body[dot + 1:]
        frac_start = 1 + dot + 1
        if "." in frac_section:
            raise ParseError("multiple '.' separators", 1 + dot + 1 + frac_section.find("."))
        if not frac_section and rep_start is None:
            raise ParseError("expected fractional digits after '.'", 1 + dot + 1)
    else:
        int_section, frac_section, frac_start = body, "", None

    int_digits = _tokenize(int_section, 1, base)
    frac_digits = _tokenize(frac_section, frac_start, base)
    repetend = _tokenize(rep_section, rep_start, base)

    broken = _noncanonical(int_digits, frac_digits, repetend)
    if broken:
        message, part = broken
        if part == "frac":  # at the last fractional digit
            raise ParseError(message, frac_start + (len(frac_section) - 1 if base <= 36
                                                    else frac_section.rfind(",") + 1))
        raise ParseError(message, 1 if part == "int" else rep_start)
    return _trusted(base, int_digits, frac_digits, repetend)
