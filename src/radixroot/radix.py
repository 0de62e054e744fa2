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

Each direction has three paths, chosen by base alone.  Up to base 36 one
bytes.translate converts a whole string.  In bases 37 to 100, where a
name has one or two characters, whole-string bytes operations do: slices
of a bytearray, and a section packed into an int one byte a character
(``_join_digits`` and ``_tokenize`` say how); digits read from a section
are kept only if ``_join_digits`` spells them back as that section.
Larger bases write each digit as a decimal numeral and read the
comma-separated tokens one by one.
"""

from __future__ import annotations

import enum
import math
import operator
from functools import lru_cache
from itertools import islice

from .arith import (
    _BYTE_OF_VALUE,
    _FORMAT_SPEC,
    _NOT_A_DIGIT,
    _PAIR_CAP,
    _VALUE_OF_BYTE,
    Rational,
    _Record,
    _decimal_text,
    _digit_blocks,
    _digits_of,
    _factor,
    _int_of,
    _int_of_text,
    _power,
    _require_digits,
    _require_int,
    _require_type,
    _totient,
    _valuation,
)
from .errors import DomainError, ParseError

# Text takes one of three paths, by base alone: the 0-9A-Z alphabet up to
# base 36; from 37 up to this one, where each digit's name has one or two
# decimal characters, whole-string bytes operations at every length (see
# _join_digits and _tokenize); above it, one decimal numeral a digit.
_BYTE_BASES = 100
# _DIGIT_BYTES[:base] holds every digit of a base up to _BYTE_BASES.
_DIGIT_BYTES = bytes(range(_BYTE_BASES + 1))
# Digit value -> its tens character, or 0xFF (deleted after) below 10; and
# -> its ones character.  Character -> its decimal value, any other 0; and ->
# 0xFF at a decimal digit, else 0.  Each is a 256-byte bytes.translate table.
_TENS = (b"\xff" * 10 + b"1" * 10 + b"2" * 10 + b"3" * 10 + b"4" * 10
         + b"5" * 10 + b"6" * 10 + b"7" * 10 + b"8" * 10 + b"9" * 10).ljust(256, b"\xff")
_ONES = (b"0123456789" * 10).ljust(256, b"\xff")
_NUMERAL_VALUE = (bytes(48) + bytes(range(10))).ljust(256, b"\0")
_NUMERAL_MASK = (bytes(48) + b"\xff" * 10).ljust(256, b"\0")
# Error messages quote at most this many characters of the input.
_ECHO_CHARS = 60
# Base-10 repetends are spelled this many digits per format() call.  str()
# of an int is quadratic, and blocks of 128 to 200 digits timed alike (640
# took 1.5 times as long); 640, the lowest int-string limit, is the most
# any setting of the limit lets format() write.
_DECIMAL_BLOCK = 160
# value_of reads a long repetend's fraction off its first digits, enough
# to reach 2^_GUESS_BITS, and proves it by _spells' packed division, or by
# respelling the repetend: two fractions with denominators below 2^64
# differ by more than 2^-128.  It does so above _RESPELL_BITS bits of
# repetend, in bases that are not powers of two.  Against reading the
# repetend as an integer, the proof broke even at about 8 kbit in bases 3
# to 12, and below 4 kbit in bases 33 to 300.
_GUESS_BITS = 128
_RESPELL_BITS = 1 << 14


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


class RadixClassification(_Record):
    """Terminating/repeating verdict for a rational in one base.

    ``rho0`` is the minimum exponent (terminating) or the length of the
    non-repeating fractional prefix (repeating); ``period`` is the repetend
    length, 0 for terminating values.
    """

    __slots__ = ("kind", "rho0", "period")

    @property
    def is_terminating(self) -> bool:
        return self.kind is Kind.TERMINATING


def _smooth_split(den: int, k: int) -> tuple[int, int, int]:
    """Split den into (smooth, p, rho0): the largest divisor made of primes
    of k, the coprime remainder, and min {r : smooth | k^r}.  Only the
    primes of gcd(den, k) are needed, so k itself is never factored."""
    p = den
    rho0 = 0
    for prime, _ in _factor(math.gcd(den, k)):
        e, p = _valuation(p, prime)
        rho0 = max(rho0, -(-e // _valuation(k, prime)[0]))
    return den // p, p, rho0


def _scaled(num: int, k: int, split: tuple[int, int, int]) -> int:
    """num * k^rho0 / smooth for the split (smooth, p, rho0) of den: p times
    k^rho0 * num/den, so its remainder mod p has the repetend of num/den."""
    smooth, _, rho0 = split
    return num * (k**rho0 // smooth)


@lru_cache(maxsize=4096)
def _order(k: int, p: int) -> int:
    """Smallest T >= 1 with k^T = 1 mod p, for p >= 2 and gcd(k, p) = 1.

    Starts from totient(p) and strips prime factors while the power still
    fixes 1, which visits only divisors of the totient.
    """
    t = _totient(p)
    for prime, _ in _factor(t):
        while t % prime == 0 and pow(k, t // prime, p) == 1:
            t //= prime
    return t


def multiplicative_order(k: int, p: int) -> int:
    """Smallest T >= 1 with k^T = 1 mod p; requires gcd(k, p) = 1, p >= 2."""
    _require_int(k, "base", 2)
    _require_int(p, "modulus", 2)
    if math.gcd(k, p) != 1:
        raise DomainError(f"{_decimal_text(k)} and {_decimal_text(p)} are not coprime")
    return _order(k, p)


multiplicative_order.cache_info = _order.cache_info  # the hit ratio of the cache behind it


def classify(q: Rational, k: int) -> RadixClassification:
    """Classify q as terminating or repeating in base k."""
    _require_type(q, Rational, "q")
    _require_int(k, "base", 2)
    smooth, p, rho0 = _smooth_split(q.den, k)
    if p == 1:
        return RadixClassification(Kind.TERMINATING, rho0, 0)
    return RadixClassification(Kind.REPEATING, rho0, _order(k, p))


def _terminating_split(q: Rational, k: int) -> tuple[int, int, int]:
    """The split (den, 1, rho0) of q's denominator when q terminates in
    base k; else a DomainError that names the coprime part, unfactored.
    It checks q and k, so callers split before they read q.num."""
    _require_type(q, Rational, "q")
    _require_int(k, "base", 2)
    smooth, p, rho0 = _smooth_split(q.den, k)
    if p != 1:
        raise DomainError(f"{q} has no finite base-{_decimal_text(k)} expansion: denominator "
                          f"prime(s) dividing {_decimal_text(p)} do not divide {_decimal_text(k)}")
    return smooth, p, rho0


def min_exponent(q: Rational, k: int) -> int:
    """Smallest rho with k^rho * q an integer; q must terminate in base k."""
    return _terminating_split(q, k)[2]


class PositionalRepr(_Record):
    """Digits of a nonnegative rational in one base, most significant first.

    ``frac_digits`` holds the non-repeating fractional prefix and
    ``repetend`` the repeating block (empty for finite representations).
    The integer part has no leading zero, a finite representation never
    ends in a zero fractional digit, and a repetend is never all-zero and
    never longer than its minimal period.  A fractional prefix never ends
    in the repetend's last digit, or the repetend could start one digit
    earlier, so each value has one spelling of each form.
    """

    __slots__ = ("base", "int_digits", "frac_digits", "repetend")

    def __init__(self, base: int, int_digits: tuple, frac_digits: tuple = (), repetend: tuple = ()):
        k = _require_int(base, "base", 2)
        digits = [_require_digits(d, k) for d in (int_digits, frac_digits, repetend)]
        broken = _noncanonical(*digits)
        if broken:
            raise DomainError(broken[0])
        _Record.__init__(self, base, *digits)

    @property
    def period(self) -> int:
        return len(self.repetend)


def _trusted(base: int, int_digits: tuple, frac_digits: tuple, repetend: tuple = ()) -> PositionalRepr:
    """A PositionalRepr from digit tuples already known to be in range and
    canonical, without repeating the public constructor's checks."""
    r = object.__new__(PositionalRepr)
    _Record.__init__(r, base, int_digits, frac_digits, repetend)
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
    for q, _ in _factor(t):
        while t % q == 0 and all(map(operator.eq, islice(digits, t // q, None), digits)):
            t //= q
    return t


def _split_at_point(scaled: int, k: int, rho0: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Digits of scaled/k^rho0: pad to rho0+1 digits and split at the point."""
    digits = _digits_of(scaled, k, rho0 + 1)
    if rho0 == 0:
        return tuple(digits), ()
    return tuple(digits[:-rho0]), tuple(digits[-rho0:])


def _repetend(rem: int, p: int, k: int, t: int) -> tuple[int, ...]:
    """The first t digits of remainder long division of rem/p in base k
    (0 < rem < p, gcd(p, k) = 1), for a t with p | k^t - 1: they spell
    rem * (k^t - 1) / p, and with t = ord_p(k) they are the repetend.
    Callers pass t, so a p that trial division cannot factor costs no
    call to _order.

    Bases 2, 8, 10 and 16 take w digits per divmod, v = rem * k^w // p,
    spelled by format() and zero-padded to w digits.  format() is linear
    in bases 2^b, so w = t there: one block, the closed form.  Base 10
    takes blocks of _DECIMAL_BLOCK digits.  Other bases up to 64 take m
    digits per divmod, m from arith._digit_blocks, whose table spells each
    quotient below k^m.  Either way the operands stay below k^w * p, and a
    last block of t mod w digits is rem * k^(t mod w) // p.  Larger bases
    take one digit per divmod, with operands below k * p.
    """
    if k in _FORMAT_SPEC or k == 10:
        spec, w = (_FORMAT_SPEC[k], t) if k in _FORMAT_SPEC else ("d", min(t, _DECIMAL_BLOCK))
        full, tail = divmod(t, w)
        power = _power(k, w)
        text = []
        for _ in range(full):
            v, rem = divmod(rem * power, p)
            text.append(format(v, spec).zfill(w))
        if tail:
            text.append(format(rem * k**tail // p, spec).zfill(tail))
        return tuple("".join(text).encode().translate(_VALUE_OF_BYTE))
    if k * k > _PAIR_CAP:
        out = []
        for _ in range(t):
            d, rem = divmod(rem * k, p)
            out.append(d)
        return tuple(out)
    table = _digit_blocks(k)
    m, block = len(table[0]), len(table)  # m digits, k^m values
    full, tail = divmod(t, m)
    out = bytearray()
    for _ in range(full):
        v, rem = divmod(rem * block, p)
        out += table[v]
    if tail:
        out += table[rem * k**tail // p][m - tail:]
    return tuple(out)


def _expand(num: int, k: int, split: tuple[int, int, int], infinite: bool) -> PositionalRepr:
    """Digits of num/den in base k, given the split of den: the finite form
    when it terminates, unless ``infinite`` asks for the repeating one (num > 0)."""
    _, p, rho0 = split
    whole, rem = divmod(_scaled(num, k, split), p)
    if p == 1 and infinite:
        return _trusted(k, *_split_at_point(whole - 1, k, rho0), (k - 1,))
    repetend = _repetend(rem, p, k, _order(k, p)) if p > 1 else ()
    return _trusted(k, *_split_at_point(whole, k, rho0), repetend)


def to_finite(q: Rational, k: int) -> PositionalRepr:
    """The unique finite base-k representation of a terminating rational."""
    split = _terminating_split(q, k)
    return _expand(q.num, k, split, False)


def to_repeating(q: Rational, k: int) -> PositionalRepr:
    """The infinite base-k representation of q > 0, with explicit repetend.

    For a repeating rational this is the canonical form, its repetend
    found in O(T) time as _repetend describes.  For a terminating rational it
    is the alternate form that trades the last digit down and repeats
    k-1 forever, e.g. [4.25]_6 -> [4.24(5)]_6.
    """
    return _encode(q, k, True)


def _encode(q: Rational, k: int, infinite: bool) -> PositionalRepr:
    """``_expand`` of q, after the public checks."""
    _require_type(q, Rational, "q")
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


def _least_fraction(lo: int, hi: int, den: int) -> tuple[int, int]:
    """(num, q) with q the least denominator of any fraction in
    [lo/den, hi/den], for 0 <= lo < hi: a continued-fraction walk, with
    h0/q0 and h1/q1 the last two convergents."""
    h0, q0, h1, q1 = 0, 1, 1, 0
    a, b, c, d = lo, den, hi, den  # what is left of the interval: [a/b, c/d]
    while True:
        f, rest = divmod(a, b)
        if not rest or (f + 1) * d <= c:  # an integer lies in [a/b, c/d]
            f += rest > 0
            return f * h1 + h0, f * q1 + q0
        h0, q0, h1, q1 = h1, q1, f * h1 + h0, f * q1 + q0
        a, b, c, d = d, c - f * d, b, rest


def _spells(digits: tuple[int, ...], rem: int, p: int, k: int) -> bool:
    """Whether ``digits``, T digits of a base k <= 255, spell R = rem * (k^T - 1) / p.

    Long division of rem/p has remainders q_0 = rem, k*q_i = p*d_i + q_(i+1)
    and q_T = rem.  With the d_i and q_i packed high slot first into s-bit
    slots, s >= b + bits(k) + 2 for b = bits(p), that reads (X - k) * Q =
    rem * (X^T - 1) - p * D at X = 2^s.  If the right side divides by X - k
    and each of Q's T slots is below 2^b, each coefficient is below X in
    size: no slot carries, the identity holds as polynomials in X, and at
    X = k it reads p * R = rem * (k^T - 1).  As q_T = rem < p, each q_i < p
    too, so for 0 < rem < p the d_i are the digits of rem/p.
    """
    b = p.bit_length()
    size = (b + k.bit_length() + 9) // 8  # bytes per slot
    packed = bytearray(size * len(digits))
    packed[size - 1::size] = bytearray(digits)
    quotient, left = divmod((rem << 8 * len(packed)) - rem - p * int.from_bytes(packed, "big"),
                            (1 << 8 * size) - k)
    low = int.from_bytes(((1 << b) - 1).to_bytes(size, "big") * len(digits), "big")  # b bits a slot
    return not left and quotient & low == quotient


def value_of(r: PositionalRepr) -> Rational:
    """Exact value of a representation.

    Past _RESPELL_BITS, a repetend R of length T in a base k that is not a
    power of two is first guessed to be rem/p, the fraction with the least
    denominator whose digits begin as R's first _GUESS_BITS do.  It holds
    if R = rem * (k^T - 1) / p: _spells proves that by one packed division
    up to base 255.  In base 10, where format() spells faster, and past 255,
    where a digit is no byte, rem/p's T digits are spelled again and
    compared once p > 1 divides k^T - 1.  Else R is read, over k^T - 1.
    """
    k = _require_type(r, PositionalRepr, "r").base
    head = _int_of(r.int_digits + r.frac_digits, k)
    shift = _power(k, len(r.frac_digits))
    t = len(r.repetend)
    if not t:
        return Rational(head, shift)
    if k & (k - 1) and t * k.bit_length() > _RESPELL_BITS:
        width = -(-_GUESS_BITS // k.bit_length())
        while k**width >> _GUESS_BITS == 0:
            width += 1
        lead = _int_of(r.repetend[:width], k)
        rem, p = _least_fraction(lead, lead + 1, k**width)
        if p > 1 and (_spells(r.repetend, rem, p, k) if k != 10 and k <= 255
                      else pow(k, t, p) == 1 and _repetend(rem, p, k, t) == r.repetend):
            return Rational(head * p + rem, shift * p)
    cycle = _power(k, t) - 1
    return Rational(head * cycle + _int_of(r.repetend, k), shift * cycle)


def convert(r: PositionalRepr, k2: int, infinite: bool = False) -> PositionalRepr:
    """Re-encode a representation canonically in base k2.

    ``infinite`` forces the repeating form even for terminating values.
    """
    return _encode(value_of(r), k2, infinite)


def _join_digits(digits, base: int) -> str:
    """Digits as text, spelled as the module docstring describes.

    Up to base 36 one bytes.translate spells them all.  In bases 37 to
    _BYTE_BASES each digit is spelled in three bytes: its tens character,
    or 0xFF below 10, then its ones character, each put in place by one
    slice assignment of a translated copy of the digits, then a comma;
    one more translate deletes the 0xFF bytes.  Larger bases join each
    digit's decimal numeral.
    """
    if base <= 36:
        return bytearray(digits).translate(_BYTE_OF_VALUE).decode("ascii")
    if base <= _BYTE_BASES:
        raw = bytearray(digits)  # from a tuple, twice as fast as bytes()
        text = bytearray(b",") * (3 * len(raw) - 1)
        text[0::3] = raw.translate(_TENS)
        text[1::3] = raw.translate(_ONES)
        return text.translate(None, b"\xff").decode("ascii")
    return ",".join(map(_decimal_text, digits))


def format_repr(r: PositionalRepr) -> str:
    """Render a representation in bracket notation."""
    body = _join_digits(_require_type(r, PositionalRepr, "r").int_digits, r.base)
    if r.frac_digits or r.repetend:
        body += "." + _join_digits(r.frac_digits, r.base)
    if r.repetend:
        body += f"({_join_digits(r.repetend, r.base)})"
    return f"[{body}]_{_decimal_text(r.base)}"


def _tokenize(section: str, start: int, base: int) -> tuple[int, ...]:
    """Digit values of ``section`` (spelled as the module docstring says),
    which begins at offset ``start`` of the input.

    Up to base 36 one bytes.translate reads the section whole, and the
    first byte past the base names the offender.  In bases 37 to
    _BYTE_BASES the section and a comma put after it are read as one int
    x, one byte a character: a decimal digit's value, any other
    character's 0.  In v = x + (10x >> 8) the byte of a digit b holds
    10a + b, a the digit before it or 0, and no byte carries, as none
    exceeds 99; v >> 8 moves each token's value onto the character after
    it, and the bytes of digits are ORed to 0xFF and deleted.  The values
    are kept if each is below the base and _join_digits spells them as
    the section: it writes each digit's one name, so the section's
    tokens are then those names, whatever the bytes held.  Larger bases,
    and sections that fail (a leading zero such as 07, or an error), walk
    the tokens one by one, and the walk raises at the first offender.
    """
    if not section:
        return ()
    if base <= 36:
        # A non-ASCII character encodes as one '?', which spells no digit.
        values = section.encode("ascii", "replace").translate(_VALUE_OF_BYTE)
        valid = _DIGIT_BYTES[:base]
        if not values.translate(None, valid):
            return tuple(values)
        pos = len(values) - len(values.lstrip(valid))
        char = _echo(section[pos])
        if values[pos] == _NOT_A_DIGIT:
            raise ParseError(f"invalid digit character {char}", start + pos)
        raise ParseError(f"digit {char} is >= base {_decimal_text(base)}", start + pos)
    if base <= _BYTE_BASES:
        text = section.encode("ascii", "replace") + b","
        x = int.from_bytes(text.translate(_NUMERAL_VALUE), "big")
        v = x + (x * 10 >> 8)
        at_commas = (v >> 8) | int.from_bytes(text.translate(_NUMERAL_MASK), "big")
        values = at_commas.to_bytes(len(text), "big").translate(None, b"\xff")
        if not values.translate(None, _DIGIT_BYTES[:base]) and _join_digits(values, base) == section:
            return tuple(values)
    out = []
    pos = start
    for token in section.split(","):
        value = _decimal(token)
        if value is None:
            raise ParseError(f"invalid digit token {_echo(token)}", pos)
        if value >= base:
            raise ParseError(f"digit {_echo(token)} is >= base {_decimal_text(base)}", pos)
        out.append(value)
        pos += len(token) + 1
    return tuple(out)


def parse(text: str) -> PositionalRepr:
    """Parse bracket notation back into a PositionalRepr.

    The accepted grammar is ``'[' digits ['.' digits] ['(' digits ')'] ']'
    '_' base`` where the fractional digits may be empty only when a
    repetend group follows.  Spellings that break the canonical form (see
    ``PositionalRepr``) are rejected with the offending position rather
    than silently rewritten.
    """
    if not _require_type(text, str, "text"):
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
