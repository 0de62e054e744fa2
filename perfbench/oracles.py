"""Reference answers the benchmark checks radixroot against.

Nothing here imports radixroot: every expected value comes from long
division, ``fractions.Fraction``, brute force or textbook number theory,
so a defect in the library cannot hide behind the same defect in its
checker.
"""

from __future__ import annotations

import math
from fractions import Fraction

ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of the odd composite n (Brent's cycle finding)."""
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


def prime_factors(n: int) -> set[int]:
    """The distinct primes dividing n >= 1."""
    out = set()
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out.add(m)
            continue
        f = _pollard_brent(m)
        stack += [f, m // f]
    return out


def order(k: int, p: int) -> int:
    """Multiplicative order of k mod the prime p, from the factors of p-1."""
    t = p - 1
    for q in prime_factors(t):
        while t % q == 0 and pow(k, t // q, p) == 1:
            t //= q
    return t


def is_exact_order(k: int, t: int, m: int) -> bool:
    """True iff t is the multiplicative order of k mod m."""
    if t < 1 or pow(k, t, m) != 1 % m:
        return False
    return all(pow(k, t // q, m) != 1 for q in prime_factors(t))


def smooth_split(den: int, k: int) -> tuple[int, int]:
    """(rho0, p): preperiod length and the part of den coprime to k."""
    rho0 = 0
    p = den
    for q in prime_factors(k):
        e_k = 0
        kk = k
        while kk % q == 0:
            kk //= q
            e_k += 1
        e = 0
        while p % q == 0:
            p //= q
            e += 1
        rho0 = max(rho0, -(-e // e_k))
    return rho0, p


def digits_of(n: int, k: int) -> list[int]:
    if n == 0:
        return [0]
    out = []
    while n:
        n, d = divmod(n, k)
        out.append(d)
    return out[::-1]


def long_division(q: Fraction, k: int) -> tuple[tuple, tuple, tuple]:
    """(int_digits, frac_digits, repetend) of q >= 0 in base k.

    Remainders are tracked until one repeats or reaches zero, so the
    prefix is the shortest possible and the repetend is minimal.
    """
    whole, rem = divmod(q.numerator, q.denominator)
    den = q.denominator
    seen = {}
    digits = []
    while rem and rem not in seen:
        seen[rem] = len(digits)
        d, rem = divmod(rem * k, den)
        digits.append(d)
    int_digits = tuple(digits_of(whole, k))
    if not rem:
        return int_digits, tuple(digits), ()
    start = seen[rem]
    return int_digits, tuple(digits[:start]), tuple(digits[start:])


def alternate_form(q: Fraction, k: int) -> tuple[tuple, tuple, tuple]:
    """The repeating spelling of a terminating q > 0: the last digit traded
    down by one, followed by (k-1) forever."""
    int_digits, frac, _ = long_division(q, k)
    scaled = 0
    for d in int_digits + frac:
        scaled = scaled * k + d
    digits = digits_of(scaled - 1, k)
    rho0 = len(frac)
    digits = [0] * (rho0 + 1 - len(digits)) + digits
    cut = len(digits) - rho0
    return tuple(digits[:cut]), tuple(digits[cut:]), (k - 1,)


def join_digits(digits, k: int) -> str:
    if k <= 36:
        return "".join(ALPHABET[d] for d in digits)
    return ",".join(str(d) for d in digits)


def render(parts: tuple[tuple, tuple, tuple], k: int) -> str:
    """Bracket notation ``[int.frac(repetend)]_k``."""
    int_digits, frac, rep = parts
    body = join_digits(int_digits, k)
    if frac or rep:
        body += "." + join_digits(frac, k)
    if rep:
        body += "(" + join_digits(rep, k) + ")"
    return f"[{body}]_{k}"


def digit_sum(n: int, k: int) -> int:
    return sum(digits_of(n, k))


def digital_root(n: int, k: int) -> tuple[int, int, tuple[int, ...]]:
    """(root, persistence, trajectory) by iterated digit sums; the root is
    cross-checked against the closed form 1 + (n-1) mod (k-1)."""
    trajectory = []
    m = n
    while m >= k:
        m = digit_sum(m, k)
        trajectory.append(m)
    expected = 0 if n == 0 else 1 + (n - 1) % (k - 1)
    if m != expected:
        raise AssertionError(f"oracle digital roots disagree for {n} in base {k}")
    return m, len(trajectory), tuple(trajectory)


def scaled_terminating(q: Fraction, k: int) -> int:
    """k^rho0 * q for a q that terminates in base k."""
    rho0, p = smooth_split(q.denominator, k)
    if p != 1:
        raise ValueError(f"{q} does not terminate in base {k}")
    return q.numerator * k**rho0 // q.denominator


def orbit_label(modulus: int, value: int) -> int:
    return 1 if modulus == 1 else math.gcd(value % modulus, modulus)


def main1_expected(q: Fraction, r: int, k: int, terms: int) -> tuple[tuple[int, ...], bool, int | None]:
    """(roots R_0..R_terms, congruence_ok, witness) of the main1 check."""
    m = k - 1
    roots = tuple(digital_root(scaled_terminating(q / r**j, k), k)[0] for j in range(terms + 1))
    delta = orbit_label(m, roots[0])
    congruence_ok = True
    witness = None
    for j, root in enumerate(roots):
        congruent = (r**j * root - roots[0]) % m == 0
        congruence_ok = congruence_ok and congruent
        if witness is None and not (orbit_label(m, root) == delta and congruent):
            witness = j
    return roots, congruence_ok, witness


def main2_expected(n: int, s: int, k: int) -> tuple[bool, tuple[int, ...], bool]:
    """(preconditions_ok, repetend, passed) of the main2 check on n/s."""
    rho0, p = smooth_split(s, k)
    if p == 1 or math.gcd(p, k - 1) != 1:
        return False, (), False
    rep = long_division(Fraction(n, s), k)[2]
    root = digital_root(sum(rep), k)[0]
    scaled = n * k**rho0 * (k ** len(rep) - 1)
    divisible = scaled % s == 0 and (scaled // s) % (k - 1) == 0
    return True, rep, root % (k - 1) == 0 and divisible


def gcd_classes(n: int) -> dict[int, tuple[int, ...]]:
    """Residues mod n grouped by gcd with n, one class per divisor."""
    classes: dict[int, list[int]] = {}
    for x in range(n):
        classes.setdefault(math.gcd(x, n), []).append(x)
    return {d: tuple(v) for d, v in sorted(classes.items())}


def missing_digit_candidates(known_sum: int, k: int) -> tuple[int, ...]:
    """Every digit x that makes known_sum + x divisible by k-1."""
    return tuple(x for x in range(k) if (known_sum + x) % (k - 1) == 0)
