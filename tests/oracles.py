"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately naive and independent of the package's
own code paths: divisor scans, exhaustive searches, and schoolbook long
division with remainder-cycle detection.
"""

import math


def gcd_brute(a: int, b: int) -> int:
    def divides(d, x):
        return x == 0 or x % d == 0

    # A common divisor is at most the smaller operand, unless that one is 0.
    top = min(a, b) or max(a, b)
    return max(d for d in range(1, top + 1) if divides(d, a) and divides(d, b))


def divisors_brute(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def totient_brute(n: int) -> int:
    return sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)


def factorize_brute(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while n > 1:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    return out


def additive_order_brute(value: int, n: int) -> int:
    d = 1
    while (d * value) % n != 0:
        d += 1
    return d


def multiplicative_order_brute(k: int, p: int) -> int:
    power = k % p
    t = 1
    while power != 1:
        power = power * k % p
        t += 1
    return t


def unit_group_cyclic_brute(n: int) -> bool:
    group = [u for u in range(1, n) if math.gcd(u, n) == 1]
    for g in group:
        seen = set()
        x = 1
        for _ in group:
            x = x * g % n
            seen.add(x)
        if len(seen) == len(group):
            return True
    return False


def long_division_digits(num: int, den: int, base: int):
    """(int_digits, regular_frac_digits, repetend) by schoolbook division.

    Remainders repeat exactly when the digit stream enters its cycle, so
    tracking first-seen positions splits the prefix from the repetend.
    """
    whole, rem = divmod(num, den)
    int_digits = []
    if whole == 0:
        int_digits = [0]
    while whole:
        whole, d = divmod(whole, base)
        int_digits.insert(0, d)
    seen = {}
    frac = []
    while rem and rem not in seen:
        seen[rem] = len(frac)
        rem *= base
        d, rem = divmod(rem, den)
        frac.append(d)
    if rem == 0:
        return int_digits, frac, []
    start = seen[rem]
    return int_digits, frac[:start], frac[start:]


def digits_brute(n: int, base: int) -> list[int]:
    """Base digits of n >= 0, most significant first, one divmod each."""
    out = []
    while n:
        n, d = divmod(n, base)
        out.insert(0, d)
    return out or [0]


def int_of_digits_brute(digits, base: int) -> int:
    """Horner's rule over the digits, most significant first."""
    n = 0
    for d in digits:
        n = n * base + d
    return n


def closed_form_repetend(rem: int, p: int, base: int) -> tuple[int, ...]:
    """Repetend of rem/p (0 < rem < p, gcd(p, base) = 1) from the closed
    form rem * (base^T - 1) / p, padded to T digits, T = ord_p(base)."""
    t = multiplicative_order_brute(base, p)
    digits = digits_brute(rem * (base**t - 1) // p, base)
    return (0,) * (t - len(digits)) + tuple(digits)


def smooth_split_brute(den: int, base: int) -> tuple[int, int, int]:
    """(smooth, p, rho0): strip each prime of base one division at a time,
    then find the least rho0 with smooth | base^rho0 by stepping powers."""
    p = den
    for prime, _ in factorize_brute(base):
        while p % prime == 0:
            p //= prime
    smooth = den // p
    rho0, power = 0, 1
    while power % smooth:
        power *= base
        rho0 += 1
    return smooth, p, rho0


def smooth_split_by_gcd(den: int, base: int) -> tuple[int, int, int]:
    """(smooth, p, rho0) without factoring base: divide p by gcd(p, base),
    one division at a time, until they are coprime.  Each division takes
    min(e, e_base) from the exponent e of each prime of base, so their
    count is the largest ceil(e / e_base), which is rho0."""
    p, rho0 = den, 0
    while (g := math.gcd(p, base)) > 1:
        p //= g
        rho0 += 1
    return den // p, p, rho0


def smooth_numbers_brute(base: int, bound: int) -> list[int]:
    """The base-smooth m in 1..bound, ascending, without factoring base: m
    is base-smooth exactly when it divides base^e for some e, and each
    prime's exponent in m is below m.bit_length(), so e = m.bit_length()
    is always enough."""
    return [m for m in range(1, bound + 1) if pow(base, m.bit_length(), m) == 0]


def main1_roots_brute(num: int, den: int, r: int, k: int, terms: int) -> list[int]:
    """Digital roots of num/(den * r^j) in base k for j = 0..terms: reduce
    the fraction, step rho up until k^rho times it is an integer, then sum
    that integer's digits until one digit is left."""
    roots = []
    for j in range(terms + 1):
        d = den * r**j
        g = gcd_brute(num, d)
        n, d = num // g, d // g
        rho = 0
        while k**rho * n % d:
            rho += 1
        x = k**rho * n // d
        while x >= k:
            x = sum(digits_brute(x, k))
        roots.append(x)
    return roots


class TokenizeBruteError(ValueError):
    """What ``tokenize_brute`` raises: the message and position that the
    library's ParseError must carry for the same input."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.message = message
        self.position = position


def tokenize_brute(section: str, start: int, base: int, placeholder: bool = False):
    """Digit values of a bracket-notation section, one token at a time:
    one 0-9A-Z character (either case) per digit up to base 36, comma-
    separated ASCII decimal numerals above.  With ``placeholder`` a '?'
    token reads as None.  Raises TokenizeBruteError with the message and
    position of the first bad token."""
    alphabet = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"

    def decimal(token):
        if not token or any(c not in "0123456789" for c in token):
            return None
        n = 0
        for c in token:
            n = n * 10 + "0123456789".index(c)
        return n

    if not section:
        return ()
    out = []
    pos = start
    for token in section if base <= 36 else section.split(","):
        if placeholder and token == "?":
            value = None
        else:
            if base > 36:
                value = decimal(token)
            elif token.isascii() and token.upper() in alphabet:
                value = alphabet.index(token.upper())
            else:
                value = None
            if value is None:
                kind = "character" if base <= 36 else "token"
                raise TokenizeBruteError(f"invalid digit {kind} {token!r}", pos)
            if value >= base:
                raise TokenizeBruteError(f"digit {token!r} is >= base {base}", pos)
        out.append(value)
        pos += len(token) + (base > 36)
    return tuple(out)


def string_period_brute(digits) -> int:
    """Smallest t dividing len(digits) with digits a repetition of its
    first t entries, trying every t in turn."""
    n = len(digits)
    for t in range(1, n + 1):
        if n % t == 0 and list(digits) == list(digits[:t]) * (n // t):
            return t
    return n
