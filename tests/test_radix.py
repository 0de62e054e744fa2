import functools
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from radixroot import (
    DomainError,
    Kind,
    ParseError,
    PositionalRepr,
    PreconditionError,
    Rational,
    classify,
    convert,
    factorize,
    format_repr,
    min_exponent,
    multiplicative_order,
    parse,
    period,
    pow_rational,
    solve_missing_digit,
    tf_digit_sum,
    tf_digital_root,
    to_finite,
    to_repeating,
    value_of,
    verify_cor1,
    verify_lemma_dr,
    verify_main1,
)
from radixroot import arith, modring, radix, theorems
from radixroot.arith import (
    _BLOCK_CAP,
    _FORMAT_SPEC,
    _INT_LEAF,
    _PAIR_CAP,
    _SPLIT_BITS,
    _digit_blocks,
    _power,
)
from radixroot.digroot import _digit_sum
from radixroot.radix import (
    _DECIMAL_BLOCK,
    _digits_of,
    _int_of,
    _repetend,
    _smooth_split,
    _spells,
    _string_period,
    _tokenize,
)

from oracles import (
    TokenizeBruteError,
    closed_form_repetend,
    digits_brute,
    int_of_digits_brute,
    long_division_digits,
    multiplicative_order_brute,
    smooth_split_brute,
    smooth_split_by_gcd,
    spell_brute,
    string_period_brute,
    tokenize_brute,
)

rationals = st.builds(Rational, st.integers(0, 500), st.integers(1, 500))
positive_rationals = st.builds(Rational, st.integers(1, 500), st.integers(1, 500))
bases = st.integers(2, 16)


def fraction_of(q: Rational) -> Fraction:
    return Fraction(q.num, q.den)


def repr_value_by_digit_polynomial(r: PositionalRepr) -> Fraction:
    """Independent evaluation: sum digit * k^position with Fractions."""
    k = r.base
    total = Fraction(0)
    for i, d in enumerate(reversed(r.int_digits)):
        total += d * Fraction(k) ** i
    for i, d in enumerate(r.frac_digits, start=1):
        total += Fraction(d, k**i)
    if r.repetend:
        t = len(r.repetend)
        block = sum(Fraction(d, k**i) for i, d in enumerate(r.repetend, start=1))
        total += block * Fraction(1, k ** len(r.frac_digits)) * Fraction(k**t, k**t - 1)
    return total


def test_classify_examples():
    assert classify(Rational(161, 36), 10).kind is Kind.REPEATING
    c = classify(Rational(161, 36), 6)
    assert c.kind is Kind.TERMINATING and c.rho0 == 2 and c.period == 0
    assert classify(Rational(7205), 13) == classify(Rational(7205), 13)
    assert classify(Rational(7205), 10).rho0 == 0
    c = classify(Rational(9, 7), 10)
    assert c.kind is Kind.REPEATING and c.rho0 == 0 and c.period == 6


def test_classify_matches_prime_set_oracle():
    for k in range(2, 17):
        k_primes = set(factorize(k).primes())
        for num in range(0, 60):
            for den in range(1, 60):
                q = Rational(num, den)
                den_primes = set(factorize(q.den).primes())
                expected = den_primes <= k_primes
                assert classify(q, k).is_terminating == expected


def test_min_exponent_examples():
    assert min_exponent(Rational(161, 36), 6) == 2
    assert min_exponent(Rational(7205), 10) == 0
    assert min_exponent(Rational(21, 16), 8) == 2
    with pytest.raises(DomainError):
        min_exponent(Rational(9, 7), 10)


def test_termination_checks_never_order_or_factor_the_denominator(monkeypatch):
    # 10^29 + 319 is prime: trial division or an order computation on it
    # would not finish, so the split alone must decide termination.
    q = Rational(1, 10**29 + 319)

    def fail(*args):
        raise AssertionError(f"termination check computed {args}")

    factor = arith._factor

    def factor_base_divisors_only(n):
        return factor(n) if 10 % n == 0 else fail(n)

    for module in (arith, radix, theorems, modring):
        for name, patch in (("_order", fail), ("_totient", fail),
                            ("_factor", factor_base_divisors_only)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, patch)
    checks = [
        lambda: min_exponent(q, 10),
        lambda: to_finite(q, 10),
        lambda: tf_digit_sum(q, 10),
        lambda: tf_digital_root(q, 10),
        lambda: verify_main1(q, 2, 10, 3),
        lambda: verify_cor1(q, 2, 10),
        lambda: verify_lemma_dr(q, 10),
    ]
    for check in checks:
        with pytest.raises(DomainError, match=f"dividing {10**29 + 319} do not divide 10"):
            check()


def test_to_finite_examples():
    assert to_finite(Rational(161), 6).int_digits == (4, 2, 5)
    assert to_finite(Rational(10878), 16).int_digits == (2, 10, 7, 14)
    r = to_finite(Rational(161, 36), 6)
    assert r.int_digits == (4,) and r.frac_digits == (2, 5) and r.repetend == ()
    assert to_finite(Rational(2**5 + 2**3 + 2 + 1), 2).int_digits == (1, 0, 1, 0, 1, 1)
    assert to_finite(Rational(0), 9).int_digits == (0,)
    with pytest.raises(DomainError):
        to_finite(Rational(9, 7), 10)
    # the message spells out a denominator past the int-to-str digit limit
    with pytest.raises(DomainError, match="dividing 3 do not divide 10"):
        to_finite(Rational(1, 3 * 10**5000), 10)


def test_to_repeating_examples():
    r = to_repeating(Rational(9, 7), 10)
    assert r.int_digits == (1,) and r.frac_digits == () and r.repetend == (2, 8, 5, 7, 1, 4)
    r = to_repeating(Rational(9, 11), 10)
    assert r.int_digits == (0,) and r.repetend == (8, 1)
    r = to_repeating(Rational(161, 36), 6)
    assert r.int_digits == (4,) and r.frac_digits == (2, 4) and r.repetend == (5,)
    r = to_repeating(Rational(9, 17), 10)
    assert r.repetend == (5, 2, 9, 4, 1, 1, 7, 6, 4, 7, 0, 5, 8, 8, 2, 3)
    assert r.period == 16


def test_to_repeating_of_zero_is_an_error():
    with pytest.raises(DomainError):
        to_repeating(Rational(0), 10)


def test_to_repeating_alternate_form_of_terminating_values():
    assert to_repeating(Rational(1), 10).repetend == (9,)
    assert to_repeating(Rational(10), 10).int_digits == (9,)
    r = to_repeating(Rational(1, 10), 10)
    assert r.int_digits == (0,) and r.frac_digits == (0,) and r.repetend == (9,)
    for k in (2, 6, 12):
        r = to_repeating(Rational(5), k)
        assert r.repetend == (k - 1,)
        assert value_of(r) == Rational(5)


def test_period_examples():
    assert period(Rational(9, 11), 10) == 2
    assert period(Rational(9, 17), 10) == 16
    assert period(Rational(1, 7), 10) == len(long_division_digits(1, 7, 10)[2]) == 6
    with pytest.raises(DomainError):
        period(Rational(3, 4), 10)


@given(st.integers(2, 16), st.integers(2, 500))
def test_multiplicative_order_matches_brute_force(k, p):
    from math import gcd
    if gcd(k, p) != 1:
        return
    assert multiplicative_order(k, p) == multiplicative_order_brute(k, p)


def test_number_theory_caches_are_bounded():
    for cached in (arith._factor, radix._order, _digit_blocks):
        assert cached.cache_parameters()["maxsize"] is not None
        assert cached.cache_info().maxsize == cached.cache_parameters()["maxsize"]


# A 12-digit prime: trial division of a base m * Q would take ~10^5 steps.
Q = 100_000_000_003


@settings(max_examples=60)
@given(st.integers(2, 60), st.booleans(), st.lists(st.integers(0, 2000), min_size=4, max_size=4),
       st.integers(1, 10**6))
def test_smooth_split_matches_one_division_at_a_time(m, times_q, exponents, cofactor):
    k = m * Q if times_q else m
    den = cofactor
    for prime, e in zip([*factorize(m).primes(), *[Q] * times_q], exponents):
        den *= prime**e
    factored = []
    factor = radix._factor
    radix._factor = lambda n: factored.append(n) or factor(n)
    try:
        split = _smooth_split(den, k)
    finally:
        radix._factor = factor
    assert split == smooth_split_by_gcd(den, k)
    if not times_q:
        assert split == smooth_split_brute(den, k)
    # Only primes of den can matter: k itself is factored only when it divides den.
    assert all(math.gcd(den, k) % n == 0 for n in factored)


def test_smooth_split_of_a_huge_prime_power():
    assert classify(Rational(1, 2**60000), 10).rho0 == 60000
    assert classify(Rational(7, 3 * 5**60000), 10).rho0 == 60000
    q = Rational(3, 2**60000)
    assert value_of(to_finite(q, 10)) == q


@st.composite
def naturals_with_bases(draw):
    """(n, k): k in 2..60 and n below 2^20000, including 0, k^w - 1 and k^w."""
    k = draw(st.integers(2, 60))
    w = draw(st.integers(0, 20000 // k.bit_length()))
    n = draw(st.one_of(st.integers(0, 2**20000), st.sampled_from([0, k**w - 1, k**w])))
    return n, k


@settings(max_examples=60)
@given(naturals_with_bases())
def test_digit_conversion_matches_naive_loops(n_k):
    n, k = n_k
    digits = _digits_of(n, k)
    assert digits == digits_brute(n, k)
    assert _int_of(tuple(digits), k) == n == int_of_digits_brute(digits, k)
    assert _int_of((0,) * 3 + tuple(digits), k) == n
    assert _int_of((), k) == 0


@st.composite
def naturals_near_split_points(draw):
    """(n, k): n within a few bits of _SPLIT_BITS times 1, 2, 4 or 8 (one
    to four split levels), or within 2 of a power k^(2^i) that the split
    divides by; k in 2..70, or far above a machine word."""
    k = draw(st.one_of(st.integers(2, 70), st.just(2**64 + 13)))
    if draw(st.booleans()):
        bits = _SPLIT_BITS * draw(st.sampled_from([1, 2, 4, 8])) + draw(st.integers(-3, 3))
        return draw(st.integers(2 ** (bits - 1), 2**bits - 1)), k
    i = draw(st.integers(0, (40000 // k.bit_length()).bit_length() - 1))
    return max(k ** (2**i) + draw(st.integers(-2, 2)), 0), k


# A base far above a machine word with five factors of 2: its odd part's
# powers are joined and divided by, shifted by 5 bits per digit.
HUGE_EVEN = (2**64 + 13) << 5


@settings(max_examples=150)
@example((HUGE_EVEN**256 - 1, HUGE_EVEN), 0)
@example((HUGE_EVEN**256, HUGE_EVEN), 3)
@example((HUGE_EVEN**256 + 1, HUGE_EVEN), 0)
@example((2 ** (4 * _SPLIT_BITS) + 3, HUGE_EVEN), 2)
@given(naturals_near_split_points(), st.integers(0, 40))
def test_split_digit_kernels_match_brute_near_split_points(n_k, pad):
    n, k = n_k
    digits = digits_brute(n, k)
    assert _digits_of(n, k) == digits
    assert _digits_of(n, k, len(digits) + pad) == [0] * pad + digits
    assert _digit_sum(n, k) == sum(digits)


@pytest.mark.parametrize("limit", [sys.int_info.default_max_str_digits,
                                   sys.int_info.str_digits_check_threshold])
@pytest.mark.parametrize("k", sorted(_FORMAT_SPEC))
def test_format_spelled_digits_match_brute_at_the_split(k, limit):
    """Bases 2, 8 and 16 switch to format() at 2^_SPLIT_BITS, under either
    int-string limit."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for n in (2**_SPLIT_BITS - 1, 2**_SPLIT_BITS, 2**_SPLIT_BITS + 1):
            digits = digits_brute(n, k)
            assert _digits_of(n, k) == digits
            assert _digits_of(n, k, len(digits) + 7) == [0] * 7 + digits
            assert _digit_sum(n, k) == sum(digits)
    finally:
        sys.set_int_max_str_digits(old)


def test_base_2_digit_sums_past_the_split_count_one_bits():
    for n in (2**_SPLIT_BITS - 1, 2**_SPLIT_BITS, 2**_SPLIT_BITS + 1, 5**3000):
        assert _digit_sum(n, 2) == sum(map(int, format(n, "b")))


def test_digit_conversion_edges():
    assert _int_of((1,) + (0,) * 5000, 3) == 3**5000
    assert _int_of((2,) * 5000, 3) == 3**5000 - 1
    assert _int_of((0,) * 5000, 3) == 0
    huge = 2**600 + 1  # a base far above any machine word
    n = 5 * huge**99 + huge + 7
    digits = (5,) + (0,) * 97 + (1, 7)
    assert _digits_of(n, huge) == list(digits)
    assert _int_of(digits, huge) == n
    # Joins, splits and value_of take k^e as o^e << b*e for k = o << b.
    for k in range(2, 71):
        for e in range(301):
            assert _power(k, e) == k**e


@st.composite
def digit_strings_near_leaf_splits(draw):
    """(digits, k): k in 2..60, each power of two drawn as often as the
    other bases together; the length within 2 of _INT_LEAF * 2^i for
    i = 0..5, where the int() leaves split, within 2 of 2^i for i = 0..15,
    where the joins split (64 is the leaf above base 36), or 0..10; random
    digits, all k - 1, or a 1 then zeros, behind up to 3 leading zeros or
    all zeros."""
    k = draw(st.one_of(st.sampled_from((2, 4, 8, 16, 32)), st.integers(2, 60)))
    length = max(0, draw(st.one_of(
        st.builds(lambda i, d: _INT_LEAF * 2**i + d, st.integers(0, 5), st.integers(-2, 2)),
        st.builds(lambda i, d: 2**i + d, st.integers(0, 15), st.integers(-2, 2)),
        st.integers(0, 10),
    )))
    zeros = min(draw(st.one_of(st.integers(0, 3), st.just(length))), length)
    rng = random.Random(draw(st.integers(0, 2**32)))
    body = draw(st.sampled_from([
        tuple(rng.randrange(k) for _ in range(length - zeros)),
        (k - 1,) * (length - zeros),
        (1,) + (0,) * (length - zeros - 1),
    ]))
    return (0,) * zeros + body[:length - zeros], k


LONGEST = _INT_LEAF * 32 + 2


@settings(max_examples=80)
@example(((1,) * LONGEST, 2))
@example(((3,) * LONGEST, 4))
@example(((7,) * LONGEST, 8))
@example(((15,) * LONGEST, 16))
@example(((31,) * LONGEST, 32))
@example(((HUGE_EVEN - 1,) * 1025, HUGE_EVEN))
@example(((1,) + (0,) * 64, HUGE_EVEN))
@example((tuple(range(HUGE_EVEN - 129, HUGE_EVEN)), HUGE_EVEN))
@given(digit_strings_near_leaf_splits())
def test_int_of_matches_brute_around_leaf_splits(digits_k):
    digits, k = digits_k
    assert _int_of(digits, k) == int_of_digits_brute(digits, k)
    assert _int_of(digits[:1], k) == int_of_digits_brute(digits[:1], k)
    assert _int_of((), k) == 0


@pytest.fixture
def lowest_int_string_limit():
    """The interpreter's int-string limit at its lowest nonzero setting,
    restored afterwards."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.str_digits_check_threshold)
    yield
    sys.set_int_max_str_digits(old)


def test_conversions_are_exact_under_the_lowest_int_string_limit(lowest_int_string_limit):
    assert sys.get_int_max_str_digits() == 640
    for k in (2, 3, 10, 16, 36, 40):
        for n in (1, 8, 9, 640, 1024, 5000):
            assert _int_of((1,) + (0,) * n, k) == k**n
            assert _int_of((k - 1,) * n, k) == k**n - 1
    q = Rational(1, 65029)
    r = to_repeating(q, 10)
    assert r.period == 65028
    assert list(r.repetend) == long_division_digits(1, 65029, 10)[2]
    assert value_of(r) == q
    assert radix._decimal("9" * 4999 + "8") == 10**5000 - 2


# (base, prime p, ord_p(base)): periods from 10^3 to about 2 * 10^4
LONG_PERIODS = [
    (2, 1019, 1018), (2, 4003, 4002), (2, 20029, 20028),
    (10, 1019, 1018), (10, 4007, 4006), (10, 20047, 20046),
    (16, 2027, 1013), (16, 8039, 4019), (16, 40031, 20015),
    (40, 1019, 1018), (40, 4007, 4006), (40, 20023, 20022),
    (3, 4001, 4000), (33, 4003, 4002),
]


@pytest.mark.parametrize("k, p, t", LONG_PERIODS)
def test_long_repetends_match_closed_form_and_long_division(k, p, t):
    assert multiplicative_order_brute(k, p) == t
    num = 5 * p + p // 3
    r = to_repeating(Rational(num, p), k)
    assert r.period == t
    assert r.repetend == closed_form_repetend(num % p, p, k)
    assert (list(r.int_digits), list(r.frac_digits), list(r.repetend)) == long_division_digits(num, p, k)


@st.composite
def long_divisions(draw):
    """(rem, p, k): k in 2..70, on both sides of the last base with a block
    table, 2 <= p <= 5000 coprime to k, and any 0 < rem < p."""
    k = draw(st.integers(2, 70))
    p = draw(st.integers(2, 5000).filter(lambda p: math.gcd(p, k) == 1))
    return draw(st.integers(1, p - 1)), p, k


@settings(max_examples=300)
@given(long_divisions())
@example((1, 1019, 32))  # the last base with a block table
@example((1, 1019, 33))  # and the first without one
def test_repetend_matches_schoolbook_long_division(case):
    rem, p, k = case
    # A reducible rem/p repeats its minimal repetend ord_p(k) / length times.
    repetend = long_division_digits(rem, p, k)[2]
    t = multiplicative_order_brute(k, p)
    assert _repetend(rem, p, k, t) == tuple(repetend) * (t // len(repetend))


# (base, p, ord_p(base)): for each base that reads blocks, periods
# congruent to 0, 1 and m - 1 modulo its block width m, so that the last
# block is full, one digit long and one digit short.  Bases 2 and 16 spell
# the closed form instead; their rows keep them checked at those periods.
# Base 10's blocks are _DECIMAL_BLOCK digits wide; its periods below that
# are one short block alone, and 3007 = 31 * 97 is composite.  Bases 33 to
# 64 read blocks of two digits, and base 65 one digit per step.
BLOCK_REMAINDERS = [
    (2, 61, 60), (2, 103, 51), (2, 79, 39),
    (3, 19, 18), (3, 431, 43), (3, 47, 23),
    (4, 41, 10), (4, 13, 6), (4, 19, 9),
    (10, 19, 18), (10, 17, 16), (10, 71, 35),
    (10, 3007, 480), (10, 1283, 641), (10, 1279, 639),
    (12, 5, 4), (12, 23, 11),
    (16, 97, 12), (16, 11, 5),
    (32, 13, 12), (32, 23, 11),
    (33, 5, 4), (33, 31, 5), (40, 7, 6), (40, 31, 15), (64, 17, 4), (64, 11, 5),
    (65, 17, 16), (65, 29, 7),
]


def test_block_remainder_cases_cover_every_last_block():
    assert 32 * 32 <= _BLOCK_CAP < 33 * 33 and 64 * 64 <= _PAIR_CAP < 65 * 65
    for k in (3, 4, 12, 32, 33, 40, 64):
        m = len(_digit_blocks(k)[0])
        assert {t % m for base, _, t in BLOCK_REMAINDERS if base == k} == {0, 1, m - 1}
    m = _DECIMAL_BLOCK
    assert {t % m for base, _, t in BLOCK_REMAINDERS if base == 10 and t > m} == {0, 1, m - 1}
    assert m <= sys.int_info.str_digits_check_threshold  # no limit rejects a block


@pytest.mark.parametrize("k, p, t", BLOCK_REMAINDERS)
def test_repetend_ends_with_a_short_block(k, p, t):
    assert multiplicative_order_brute(k, p) == t
    for rem in range(1, p):
        assert _repetend(rem, p, k, t) == closed_form_repetend(rem, p, k)
        # Bases 2, 8 and 16 run the closed form, and base 10 runs format()
        # too: check them by division as well.  A reducible rem/p repeats
        # its minimal repetend t / length times.
        if k in _FORMAT_SPEC or k == 10:
            repetend = long_division_digits(rem, p, k)[2]
            assert _repetend(rem, p, k, t) == tuple(repetend) * (t // len(repetend))


@pytest.mark.parametrize("k", sorted(_FORMAT_SPEC))
def test_closed_form_repetend_past_one_limb_matches_long_division(k):
    p = 2**31 - 1  # a prime above one 30-bit limb; k is a power of 2
    assert multiplicative_order_brute(k, p) == 31
    for rem in (1, 12345, 2**30 + 7, p - 1):
        assert list(_repetend(rem, p, k, 31)) == long_division_digits(rem, p, k)[2]


def test_bases_past_64_take_one_digit_per_step(monkeypatch):
    monkeypatch.setattr(radix, "_digit_blocks", None)  # a table lookup would raise
    for k, p, t in BLOCK_REMAINDERS:
        if k > 64:
            assert _repetend(1, p, k, t) == closed_form_repetend(1, p, k)


@pytest.mark.parametrize("k", range(2, 65))
def test_digit_blocks_spell_real_digits(k):
    table = _digit_blocks(k)
    m = len(table[0])
    if k <= 32:
        assert k**m <= _BLOCK_CAP < k ** (m + 1)
    else:
        assert m == 2 and k**m <= _PAIR_CAP
    assert len(table) == k**m
    for v, block in enumerate(table):
        digits = digits_brute(v, k)
        assert list(block) == [0] * (m - len(digits)) + digits


# (base, prime p, ord_p(base)): periods near 12,000 and 65,000
ROUND_TRIP_PERIODS = [
    (2, 12011, 12010), (10, 12011, 12010), (16, 24019, 12009),
    (2, 65011, 65010), (10, 65029, 65028), (16, 128047, 64023),
    (36, 128033, 64016), (40, 65033, 65032), (60, 65003, 65002),
    # the longest base-10 and base-40 shapes of the big-inputs benchmark
    (10, 65657, 65656), (40, 72271, 36135),
]


@pytest.mark.parametrize("k, p, t", ROUND_TRIP_PERIODS)
def test_long_repetends_round_trip_through_text(k, p, t):
    q = Rational(1, p)
    r = to_repeating(q, k)
    assert r.period == t
    assert parse(format_repr(r)) == r
    assert value_of(parse(format_repr(r))) == q
    assert list(r.repetend) == long_division_digits(1, p, k)[2]


@pytest.mark.parametrize("limit", [sys.int_info.default_max_str_digits,
                                   sys.int_info.str_digits_check_threshold])
@pytest.mark.parametrize("k, p, t", [(7, 100003, 100002), (10, 1000171, 1000170),
                                     (40, 100003, 50001)])
def test_long_repetend_costs_a_bounded_number_of_bytes_per_digit(k, p, t, limit):
    """Digits are gathered in one bytearray, or in 160-digit text blocks in
    base 10, not in one object per few digits: the tuple of T small ints
    (8 bytes a digit) dominates the peak.  Base 40 reads two-digit blocks."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    tracemalloc.start()
    try:
        r = to_repeating(Rational(1, p), k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.set_int_max_str_digits(old)
    assert r.period == t
    assert peak < 12 * t


def test_long_repetend_round_trips_through_comma_notation():
    q = Rational(12345, 20023)
    r = to_repeating(q, 40)
    assert r.period == 20022
    assert value_of(parse(format_repr(r))) == q


def decimal_value_by_int(r: PositionalRepr) -> Fraction:
    """Value of a base-10 representation, its digits read by int() with
    the int-string limit lifted: no _int_of, no guess."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        head, cycle = (int("".join(map(str, digits)) or "0")
                       for digits in (r.int_digits + r.frac_digits, r.repetend))
    finally:
        sys.set_int_max_str_digits(old)
    shift = 10 ** len(r.frac_digits)
    return Fraction(head, shift) + Fraction(cycle, shift * (10 ** r.period - 1))


@pytest.fixture(params=[sys.int_info.default_max_str_digits,
                        sys.int_info.str_digits_check_threshold])
def int_string_limit(request):
    """Each of the default and the lowest int-string limits, restored afterwards."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    yield
    sys.set_int_max_str_digits(old)


def unordered(*args):
    raise AssertionError("value_of called _order")


def test_value_of_falls_back_when_the_guess_spells_other_digits(int_string_limit, monkeypatch):
    """One digit of 1/65657's repetend changed far from its start: the
    leading digits still guess 1/65657, which divides 10^T - 1, but its
    respelled digits differ, so the value is read from the digits."""
    q = Rational(1, 65657)
    digits = list(to_repeating(q, 10).repetend)
    digits[40000] = (digits[40000] + 1) % 10
    r = PositionalRepr(10, (0,), (), digits)  # the period stays minimal
    assert r.period * 4 > radix._RESPELL_BITS
    respelled = []
    monkeypatch.setattr(radix, "_repetend", lambda *args: respelled.append(args) or _repetend(*args))
    monkeypatch.setattr(radix, "_order", unordered)
    v = value_of(r)
    assert respelled == [(1, 65657, 10, 65656)]
    assert fraction_of(v) == decimal_value_by_int(r) != Fraction(1, 65657)


def test_value_of_falls_back_when_the_certificate_rejects_the_guess(int_string_limit, monkeypatch):
    """One digit of 1/3301's base-40 repetend changed: the leading digits
    still guess 1/3301, the packed division rejects it without spelling a
    digit, and the value is read from the digits."""
    digits = list(to_repeating(Rational(1, 3301), 40).repetend)
    digits[2000] = (digits[2000] + 1) % 40
    r = PositionalRepr(40, (0,), (), digits)
    assert r.period * 6 > radix._RESPELL_BITS
    proofs = []
    monkeypatch.setattr(radix, "_spells", lambda *args: proofs.append(args[1:]) or _spells(*args))
    monkeypatch.setattr(radix, "_repetend", lambda *args: pytest.fail("value_of respelled"))
    monkeypatch.setattr(radix, "_order", unordered)
    v = value_of(r)
    assert proofs == [(1, 3301, 40)]
    cycle = 40**r.period - 1
    assert fraction_of(v) == Fraction(int_of_digits_brute(digits, 40), cycle) != Fraction(1, 3301)


@st.composite
def certificate_cases(draw):
    """(digits, rem, p, k): k in 3..255 and the real repetend of rem/p in
    base k, or one changed copy of it: a digit +-1, two digits swapped, or
    the repetend of (rem * k mod p)/p, one digit on.  p is either up to 5000
    or (k^T - 1) / g for a small g, up to just below 2^64."""
    k = draw(st.integers(3, 255))
    if draw(st.booleans()):
        p = draw(st.integers(2, 5000).filter(lambda p: math.gcd(p, k) == 1))
    else:
        t = draw(st.integers(1, next(t for t in itertools.count(1) if k ** (t + 1) > 2**64)))
        cycle = k**t - 1
        p = cycle // draw(st.sampled_from([g for g in range(1, 1001)
                                           if cycle % g == 0 and cycle > g]))
    rem = draw(st.integers(1, p - 1))
    digits = list(long_division_digits(rem, p, k)[2])
    change = draw(st.sampled_from(["none", "digit", "swap", "rem", "rotate"]))
    if change == "digit":
        i = draw(st.integers(0, len(digits) - 1))
        digits[i] = (digits[i] + draw(st.sampled_from([1, -1]))) % k
    elif change == "swap":
        i, j = draw(st.lists(st.integers(0, len(digits) - 1), min_size=2, max_size=2))
        digits[i], digits[j] = digits[j], digits[i]
    elif change == "rotate":
        digits = long_division_digits(rem * k % p, p, k)[2]
    elif change == "rem":
        rem += draw(st.sampled_from([1, -1]))
    return tuple(digits), rem, p, k


@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(certificate_cases())
@example(((3,), 1, 3, 10))  # 1/3 in base 10
@example(((2,), 1, 4, 9))  # 1/4 in base 9: 0.(2)
@example(((2,), 2, 4, 9))  # its rem + 1: a reducible 2/4 spells 0.(4)
@example(((0, 0, 1), 1, 999, 10))  # a repetend that leads with zeros
@example(((254,) * 7 + (253,), 255**8 - 2, 255**8 - 1, 255))  # p just below 2^64
def test_certificate_accepts_exactly_the_long_division_digits(int_string_limit, case):
    digits, rem, p, k = case
    assert _spells(digits, rem, p, k) == (list(digits) == long_division_digits(rem, p, k)[2])


@pytest.mark.parametrize("k, p", [(40, 1000033), (12, 1000003)])
def test_value_of_costs_a_bounded_number_of_bytes_per_digit(k, p):
    """At p = 10^6 the packed certificate's integers hold T slots of 4
    bytes each, and its peak is about 17 bytes per digit."""
    q = Rational(1, p)
    r = to_repeating(q, k)
    assert r.period == p - 1
    tracemalloc.start()
    try:
        v = value_of(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v == q
    assert peak < 18 * r.period


def test_value_of_reads_random_digits_whose_guess_fails(int_string_limit):
    """40,000 random digits: a denominator near 10^40000, far past the guess."""
    rng = random.Random(2021)
    digits = [rng.randrange(10) for _ in range(40000)]
    digits[-1] = 3
    r = PositionalRepr(10, (4, 2), (7,), digits)
    assert r.period * 4 > radix._RESPELL_BITS
    v = value_of(r)
    assert fraction_of(v) == decimal_value_by_int(r)
    assert v.den.bit_length() > 40000 * 3


@pytest.mark.parametrize("k, p", [(10, 65657), (40, 72271)])
def test_value_of_proves_the_guess_without_ordering_it(k, p, monkeypatch):
    """The fast path: no _order call (trial division of a guessed p's
    totient could hang), and no digits read but the leading few."""
    q = Rational(1, p)
    r = to_repeating(q, k)
    assert r.period * k.bit_length() > radix._RESPELL_BITS
    read = []
    monkeypatch.setattr(radix, "_order", unordered)
    monkeypatch.setattr(radix, "_int_of",
                        lambda digits, k: read.append(len(digits)) or _int_of(digits, k))
    assert value_of(r) == q
    assert max(read) < 40


@pytest.mark.parametrize("lo, hi, den", [(0, 1, 7), (6, 7, 7), (3, 4, 7), (1, 3, 3), (7, 8, 2)])
def test_least_fraction_examples(lo, hi, den):
    num, q = radix._least_fraction(lo, hi, den)
    assert math.gcd(num, q) == 1 and lo * q <= num * den <= hi * q
    assert all(-(-lo * d // den) * den > hi * d for d in range(1, q))


@given(st.integers(1, 60), st.integers(0, 180), st.integers(1, 30))
def test_least_fraction_matches_the_least_denominator_by_search(den, lo, width):
    hi = lo + width
    # the first q with a multiple of 1/q in [lo/den, hi/den], and that multiple
    q = next(d for d in itertools.count(1) if -(-lo * d // den) * den <= hi * d)
    assert radix._least_fraction(lo, hi, den) == (-(-lo * q // den), q)


@functools.cache
def denominator_near_gate(k: int, above: bool, start: int) -> int:
    """The first den > start coprime to k whose period T in base k puts
    T * k.bit_length() within 1/16 of _RESPELL_BITS, above it or at most it."""
    bits, gate = k.bit_length(), radix._RESPELL_BITS
    lo, hi = (gate, gate * 17 // 16) if above else (gate * 15 // 16, gate)
    den = start
    while True:
        den += 1
        if math.gcd(den, k) == 1 and lo < multiplicative_order(k, den) * bits <= hi:
            return den


@st.composite
def near_gate_rationals(draw):
    """(q, k, above): k in 3..70, q with a period just above or just below
    the respelling gate, and maybe an integer part and a fractional prefix."""
    k = draw(st.integers(3, 70))
    above = draw(st.booleans())
    least = radix._RESPELL_BITS * 15 // 16 // k.bit_length()  # den > T >= least
    den = denominator_near_gate(k, above, least + draw(st.integers(0, least)))
    smooth = math.gcd(k**3, draw(st.integers(1, 1000)))
    num = draw(st.integers(1, 50 * den * smooth).filter(lambda n: math.gcd(n, den) == 1))
    return Rational(num, den * smooth), k, above


@settings(max_examples=40)
@given(near_gate_rationals())
# Respelled past the gate in bases 10 and 300, proved by _spells in bases
# 3, 12, 40 and 64, and read as R / (k^T - 1) below it.
@example((Rational(1, 4099), 10, True))
@example((Rational(1, 3847), 10, False))
@example((Rational(1, 1867), 300, True))  # digits past a byte
@example((Rational(1, 1709), 300, False))
@example((Rational(123457, 27 * 8237), 3, True))  # T = 8236 in base 3, with a prefix
@example((Rational(1, 7699), 3, False))
@example((Rational(1, 4099), 12, True))
@example((Rational(1, 3847), 12, False))
@example((Rational(7, 20 * 2741), 40, True))  # a prefix above base 36
@example((Rational(1, 2579), 40, False))
@example((Rational(5, 8 * 4691), 64, True))
# power-of-two bases read R by one int() on both sides
@example((Rational(1, 6599), 16, True))
@example((Rational(1, 6199), 16, False))
@example((Rational(1, 10949), 4, True))
@example((Rational(3, 10247), 4, False))
def test_round_trip_on_both_sides_of_the_respelling_gate(case):
    q, k, above = case
    r = to_repeating(q, k)
    assert (r.period * k.bit_length() > radix._RESPELL_BITS) == above
    assert value_of(r) == q


def test_value_of_examples():
    assert value_of(PositionalRepr(6, (4, 2, 5))) == Rational(161)
    assert value_of(PositionalRepr(10, (0,), (), (8, 1))) == Rational(9, 11)
    assert value_of(PositionalRepr(6, (4,), (2, 4), (5,))) == Rational(161, 36)


@given(rationals, bases)
def test_round_trip_through_digits(q, k):
    if classify(q, k).is_terminating:
        assert value_of(to_finite(q, k)) == q
    if not q.is_zero:
        assert value_of(to_repeating(q, k)) == q


def test_round_trip_exhaustive_small_range():
    for k in range(2, 17):
        for num in range(0, 41):
            for den in range(1, 41):
                q = Rational(num, den)
                if classify(q, k).is_terminating:
                    assert value_of(to_finite(q, k)) == q
                if num:
                    assert value_of(to_repeating(q, k)) == q


def every_spelling(k, length, int_digits):
    """Each bracket string with integer-part digits from ``int_digits`` (a
    list of digit tuples, spelled as given, leading zeros included), at most
    ``length`` prefix-plus-repetend digits, canonical or not, with its
    value by Fraction arithmetic."""
    spell = ("," if k > 36 else "").join

    def number(digits):
        return functools.reduce(lambda x, d: x * k + d, digits, 0)

    for n in range(length + 1):
        for digits in itertools.product(range(k), repeat=n):
            for m in range(n + 1):  # m prefix digits, n - m repetend digits
                prefix, rep = digits[:m], digits[m:]
                value = Fraction(number(prefix), k**m)
                body = "." + spell(map(str, prefix)) if n else ""
                if rep:
                    value += Fraction(number(rep), k**m * (k ** len(rep) - 1))
                    body += f"({spell(map(str, rep))})"
                for part in int_digits:
                    yield f"[{spell(map(str, part))}{body}]_{k}", number(part) + value


@pytest.mark.parametrize("k, length, int_digits", [
    (2, 8, [(0,), (1,), (1, 0), (1, 1), (0, 1)]),
    (40, 2, [(0,), (39,)]),
    (3, 5, [(0,), (1,), (2,), (1, 0), (0, 2)]),
    (41, 2, [(0,), (40,), (1, 0), (0, 40)]),
])
def test_each_value_has_one_spelling_of_each_form(k, length, int_digits):
    # Every string either parses to its own value and formats back to
    # itself, or is rejected, as is every integer part with a leading zero.
    # Every value spelled has a string that parses, and its strings that
    # parse are at most one finite and one repeating, those that to_finite
    # and to_repeating give back.  Two spellings mean a terminating value:
    # its finite form and its (k-1)-tail, which may carry into the integer
    # part ([1.(1)]_2 = [10]_2).
    spellings, rejected = {}, 0
    for text, value in every_spelling(k, length, int_digits):
        q = Rational(value.numerator, value.denominator)
        spellings.setdefault(q, [])
        leading_zero = text[1] == "0" and text[2] not in ".]"
        try:
            r = parse(text)
        except ParseError:
            rejected += 1
            continue
        assert not leading_zero and value_of(r) == q and format_repr(r) == text, text
        spellings[q].append(r)
    assert rejected
    for q, forms in spellings.items():
        assert sorted(bool(r.repetend) for r in forms) in ([False], [True], [False, True]), q
        for r in forms:
            assert (to_repeating(q, k) if r.repetend else to_finite(q, k)) == r, q
        if len(forms) == 2:
            assert classify(q, k).is_terminating, q


@given(rationals, bases)
def test_reencoding_is_deterministic(q, k):
    if classify(q, k).is_terminating:
        r = to_finite(q, k)
        assert to_finite(value_of(r), k) == r
    else:
        r = to_repeating(q, k)
        assert to_repeating(value_of(r), k) == r


@given(positive_rationals, bases)
def test_digits_match_long_division(q, k):
    int_d, frac_d, rep_d = long_division_digits(q.num, q.den, k)
    if classify(q, k).is_terminating:
        r = to_finite(q, k)
        assert rep_d == []
    else:
        r = to_repeating(q, k)
    assert list(r.int_digits) == int_d
    assert list(r.frac_digits) == frac_d
    assert list(r.repetend) == rep_d


@given(positive_rationals, bases)
def test_value_of_matches_digit_polynomial(q, k):
    r = to_finite(q, k) if classify(q, k).is_terminating else to_repeating(q, k)
    assert fraction_of(value_of(r)) == repr_value_by_digit_polynomial(r)


@given(positive_rationals, bases)
def test_repetend_has_minimal_period(q, k):
    if classify(q, k).is_terminating:
        return
    rep = to_repeating(q, k).repetend
    t = len(rep)
    for t_prime in range(1, t):
        if t % t_prime == 0:
            assert rep != rep[:t_prime] * (t // t_prime)


def test_telescoping_power_identity():
    # sum_{j=0..J} (k-1) k^(m-1-j) + k^(m-1-J) == k^m, exactly
    for k in range(2, 17):
        for m in range(0, 9):
            for j_max in (1, 7, 40):
                total = Rational(0)
                for j in range(j_max + 1):
                    total = total + (k - 1) * pow_rational(k, m - 1 - j)
                total = total + pow_rational(k, m - 1 - j_max)
                assert total == pow_rational(k, m)


def test_convert_examples():
    r = parse("[101011]_2")
    assert format_repr(convert(r, 3)) == "[1121]_3"
    same = convert(parse("[4.25]_6"), 6)
    assert same == parse("[4.25]_6")
    assert format_repr(convert(parse("[25]_8"), 10)) == "[21]_10"
    assert format_repr(convert(parse("[4.25]_6"), 6, infinite=True)) == "[4.24(5)]_6"


def test_positional_repr_validation():
    with pytest.raises(DomainError):
        PositionalRepr(10, (1, 10))
    with pytest.raises(DomainError):
        PositionalRepr(10, (True,))
    with pytest.raises(DomainError):
        PositionalRepr(10, ())
    with pytest.raises(DomainError):
        PositionalRepr(10, (0, 1))
    with pytest.raises(DomainError):
        PositionalRepr(10, (1,), (5, 0))
    with pytest.raises(DomainError):
        PositionalRepr(10, (1,), (), (0,))
    with pytest.raises(DomainError):
        PositionalRepr(10, (1,), (), (5, 5))
    with pytest.raises(DomainError, match=r"^fractional prefix ends in the repetend's last"):
        PositionalRepr(10, (0,), (1,), (2, 1))
    with pytest.raises(DomainError, match=r"^fractional prefix ends in the repetend's last"):
        PositionalRepr(40, (0,), (1, 39), (5, 39))
    # trailing zero in the regular part is fine when a repetend follows
    assert PositionalRepr(10, (1,), (5, 0), (1, 2)).frac_digits == (5, 0)
    assert PositionalRepr(10, (0,), (1, 2), (2, 1)).repetend == (2, 1)


def test_positional_repr_takes_iterables_and_stores_tuples():
    r = PositionalRepr(6, [4], (d for d in [2, 4]), iter([5]))
    assert (r.int_digits, r.frac_digits, r.repetend) == ((4,), (2, 4), (5,))
    assert value_of(r) == Rational(161, 36)
    assert r == PositionalRepr(6, (4,), (2, 4), (5,))


def test_positional_repr_names_the_first_bad_digit_of_any_section():
    with pytest.raises(DomainError, match=r"^digit 11 out of range for base 10$"):
        PositionalRepr(10, [1], (2, 11, 12), (13,))
    with pytest.raises(DomainError, match=r"^digit 13 out of range for base 10$"):
        PositionalRepr(10, (1,), [2], (d for d in (3, 13, 14)))


def test_parse_format_examples():
    r = parse("[4.24(5)]_6")
    assert (r.int_digits, r.frac_digits, r.repetend) == ((4,), (2, 4), (5,))
    assert format_repr(r) == "[4.24(5)]_6"
    zero = parse("[0]_10")
    assert value_of(zero).is_zero
    assert format_repr(zero) == "[0]_10"
    r = parse("[2A7E]_16")
    assert r.int_digits == (2, 10, 7, 14)
    assert value_of(r) == Rational(10878)
    assert parse("[2a7e]_16") == r
    assert parse("[1.(285714)]_10") == to_repeating(Rational(9, 7), 10)


def test_parse_format_comma_mode_for_large_bases():
    r = parse("[1,30.0,39(7)]_40")
    assert (r.int_digits, r.frac_digits, r.repetend) == ((1, 30), (0, 39), (7,))
    assert format_repr(r) == "[1,30.0,39(7)]_40"
    assert fraction_of(value_of(r)) == Fraction(1 * 40 + 30) + Fraction(0, 40) + Fraction(39, 1600) + Fraction(7, 1600 * 39)


@given(st.integers(0, 10**6), st.integers(1, 10**4), st.integers(2, 40))
def test_parse_format_round_trip(num, den, k):
    q = Rational(num, den)
    if q.is_zero or classify(q, k).is_terminating:
        r = to_finite(q, k)
    else:
        r = to_repeating(q, k)
    assert parse(format_repr(r)) == r


@pytest.mark.parametrize(
    "text",
    [
        "",
        "161",
        "[161]",
        "[161]_",
        "[161]_x",
        "[161]_1",
        "[]_10",
        "[.5]_10",
        "[1.]_10",
        "[19]_9",
        "[1z]_10",
        "[1.2(])]_10",
        "[1.2()]_10",
        "[1.2(3]_10",
        "[1)2]_10",
        "[1.2.3]_10",
        "[007]_10",
        "[0.50]_10",
        "[1.2(0)]_10",
        "[1.2(55)]_10",
        "[1,99.0]_40",
        "[1,,2]_40",
        "[2A7E]_16extra",
        "[1]_\u0661\u0660",
        "[1]_\u00b2",
        "[1,\u00b2]_40",
        "[\u0131]_36",
        pytest.param("[1," + "1" * 5000 + "]_40", id="digit-past-int-string-limit"),
    ],
)
def test_parse_rejects_malformed_input_with_position(text):
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert isinstance(excinfo.value.position, int)
    assert 0 <= excinfo.value.position <= len(text) + 1
    assert "position" in str(excinfo.value)


def test_parse_reads_a_base_past_the_int_string_limit():
    r = parse("[1]_" + "1" * 5000)
    assert r.base == (10**5000 - 1) // 9
    assert (r.int_digits, r.frac_digits, r.repetend) == ((1,), (), ())


def test_parse_errors_quote_long_tokens_by_prefix_and_length():
    with pytest.raises(ParseError) as excinfo:
        parse("[1," + "1" * 5000 + "]_40")
    assert excinfo.value.position == 3
    message = str(excinfo.value)
    assert message.startswith("digit '" + "1" * 60 + "'... (5000 characters) is >= base 40")
    assert len(message) < 200
    # A short token is still quoted whole.
    assert str(pytest.raises(ParseError, parse, "[1,99]_40").value) == (
        "digit '99' is >= base 40 (at position 3)")


# Characters that are not ASCII digits but look or fold like them: an
# Arabic-Indic one, a superscript two, a dotless i (upper case 'I'), the
# Kelvin sign (lower case 'k') and a mathematical bold digit.
LOOKALIKES = "\u0661\u00b2\u0131\u212a\U0001d7cf"
low_base_sections = st.one_of(
    st.text(alphabet="0123456789abczAXYZ", max_size=24),
    st.text(alphabet="0123456789abczAXYZ?.,_ " + LOOKALIKES, max_size=24),
)
high_base_tokens = st.one_of(
    st.integers(0, 90).map(str),
    st.integers(0, 90).map(lambda n: "0" + str(n)),
    st.sampled_from(["", "?", "??", "a", "1a", "+1", " 1", "1_0"]),
    st.text(alphabet="0123456789?" + LOOKALIKES, max_size=4),
)
high_base_sections = st.one_of(
    st.lists(st.integers(0, 90).map(str), max_size=8).map(",".join),
    st.lists(high_base_tokens, max_size=8).map(",".join),
)


def tokenize_outcome(section: str, start: int, base: int):
    """The library's digits, or its error as (message, position), beside
    the same for tokenize_brute."""
    try:
        got = _tokenize(section, start, base)
    except ParseError as exc:
        got = (str(exc), exc.position)
    try:
        want = tokenize_brute(section, start, base)
    except TokenizeBruteError as exc:
        want = (f"{exc.message} (at position {exc.position})", exc.position)
    return got, want


@settings(max_examples=400)
@given(st.integers(2, 36), low_base_sections, st.integers(0, 5))
def test_tokenize_matches_brute_up_to_base_36(base, section, start):
    got, want = tokenize_outcome(section, start, base)
    assert got == want


@settings(max_examples=400)
@given(st.integers(37, 70), high_base_sections, st.integers(0, 5))
def test_tokenize_matches_brute_above_base_36(base, section, start):
    got, want = tokenize_outcome(section, start, base)
    assert got == want


# Digit strings of bases 37 to 100, from the empty one to 80 digits: the
# bytes path spells and reads every length there.
byte_base_digits = st.integers(37, radix._BYTE_BASES).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.integers(0, k - 1), max_size=80)))


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(byte_base_digits)
def test_bases_37_to_100_spell_and_read_like_the_oracle(int_string_limit, case):
    base, digits = case
    text = radix._join_digits(tuple(digits), base)
    assert text == spell_brute(digits, base)
    assert _tokenize(text, 3, base) == tuple(digits) == tokenize_brute(text, 3, base)


def corrupted(tokens: list[str], at: int, kind: str, base: int) -> str:
    """The section of ``tokens`` with one fault of the given kind at token ``at``."""
    tokens = list(tokens)
    if kind == "leading zero":
        tokens[at] = "0" + tokens[at]
    elif kind == "three characters":
        tokens[at] = "1" + tokens[at].zfill(2)
    elif kind == "empty token":
        tokens[at] = ""
    elif kind == "trailing comma":
        tokens.append("")
    elif kind == "leading comma":
        tokens.insert(0, "")
    elif kind == "digit past the base":
        tokens[at] = str(base + at % (101 - base))
    elif kind == "non-ASCII digit":
        tokens[at] = tokens[at][:1] + "١"
    elif kind == "05":  # not the canonical name of 5, but a decimal numeral of it
        tokens[at] = "05"
    return ",".join(tokens)


CORRUPTIONS = ["leading zero", "three characters", "empty token", "trailing comma",
               "leading comma", "digit past the base", "non-ASCII digit", "05"]


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(37, radix._BYTE_BASES).flatmap(lambda k: st.tuples(
           st.just(k), st.lists(st.integers(0, k - 1), min_size=1, max_size=120))),
       st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(CORRUPTIONS)),
                min_size=1, max_size=3),
       st.integers(0, 5))
# A token too long by two characters ("101" reads 1), or by one ("110"
# reads 10), beside an empty token that would read as a name of two
# characters, or one: the widths alone would balance.
@example((40, [1] * 80), [(0, "three characters"), (5, "empty token")], 0)
@example((40, [1] * 80), [(0, "three characters"), (0, "trailing comma")], 0)
@example((40, [10] * 80), [(0, "three characters"), (0, "leading comma")], 0)
def test_corrupted_sections_in_bases_37_to_100_give_the_walks_result(
        int_string_limit, case, faults, start):
    """Sections of one digit or more, with one to three faults: the
    digits, or the ParseError message and position, of a walk that reads
    one token at a time.  A two-character name with a leading zero is a
    decimal numeral, which the walk accepts."""
    base, digits = case
    tokens = [str(d) for d in digits]
    for at, kind in faults:
        tokens = corrupted(tokens, at % len(tokens), kind, base).split(",")
    got, want = tokenize_outcome(",".join(tokens), start, base)
    assert got == want


@pytest.mark.parametrize("base", [37, 40, 100])
@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_corrupted_short_sections_in_bases_37_to_100_give_the_walks_result(base, kind):
    """Each fault in a section of one token or two, at either token, and
    a lone comma."""
    for digits in [(5,), (36,), (5, 36), (36, 5), (9, 10)]:
        for at in range(len(digits)):
            section = corrupted([str(d) for d in digits], at, kind, base)
            got, want = tokenize_outcome(section, 2, base)
            assert got == want, section
    got, want = tokenize_outcome(",", 2, base)
    assert got == want == ("invalid digit token '' (at position 2)", 2)


@settings(max_examples=400)
@given(st.integers(37, radix._BYTE_BASES),
       st.lists(st.sampled_from("0123456789,x ?\u0661"), max_size=40).map("".join),
       st.integers(0, 5))
def test_random_sections_in_bases_37_to_100_read_as_the_oracle_does(base, section, start):
    """Strings of digits, commas and a few other characters, one of them
    non-ASCII: the oracle's digits, or its message and position."""
    got, want = tokenize_outcome(section, start, base)
    assert got == want


@pytest.mark.parametrize("table", ["_NUMERAL_VALUE", "_NUMERAL_MASK"])
def test_the_spelling_not_the_extraction_decides(monkeypatch, table):
    """With either table of the bytes reader zeroed, it extracts wrong
    values, yet every section reads as the oracle does: values are kept
    only if they spell the section back, and the walk reads the rest."""
    monkeypatch.setattr(radix, table, bytes(256))
    assert _tokenize("5,7", 0, 40) == (5, 7)
    rng = random.Random(table)
    for _ in range(40):
        base = rng.randint(37, radix._BYTE_BASES)
        tokens = [str(rng.randrange(base)) for _ in range(rng.randint(1, 120))]
        sections = [",".join(tokens)]
        sections += [corrupted(tokens, rng.randrange(len(tokens)), kind, base)
                     for kind in CORRUPTIONS]
        for section in sections:
            got, want = tokenize_outcome(section, 1, base)
            assert got == want, (base, section)


def spelled_in(width: int, base: int) -> tuple[int, ...]:
    """Digits of ``base`` (37 to 100) whose comma notation has ``width``
    characters: k tokens, width + 1 - 2k of them two characters long."""
    k = -(-(width + 1) // 3)
    two = width + 1 - 2 * k
    return tuple([10 + i % (base - 10) for i in range(two)] + [i % 10 for i in range(k - two)])


def test_bases_37_to_100_read_and_spell_without_the_walk(monkeypatch):
    """Valid sections in bases 37 and 100, of every width from 1 to 130
    characters, never reach the walk (radix._decimal) or a decimal
    numeral per digit (radix._decimal_text); base 101, the first past the
    bytes path, does both, and its walk names each offender's position."""
    calls = []

    def recorded(name):
        real = getattr(radix, name)
        return lambda text: calls.append(name) or real(text)

    for name in ("_decimal", "_decimal_text"):
        monkeypatch.setattr(radix, name, recorded(name))
    for base in (37, 100):
        for width in range(1, 131):
            digits = spelled_in(width, base)
            text = radix._join_digits(digits, base)
            assert len(text) == width
            assert _tokenize(text, 0, base) == digits
    assert calls == []
    text = radix._join_digits((100, 0, 99), 101)
    assert text == "100,0,99" and calls == ["_decimal_text"] * 3
    assert _tokenize(text, 4, 101) == (100, 0, 99) and calls[3:] == ["_decimal"] * 3
    for section, message, position in [
            ("100,5,101", "digit '101' is >= base 101", 10),
            ("7,,9", "invalid digit token ''", 6),
            ("07,x", "invalid digit token 'x'", 7)]:
        with pytest.raises(ParseError) as excinfo:
            _tokenize(section, 4, 101)
        assert (str(excinfo.value), excinfo.value.position) == (
            f"{message} (at position {position})", position)
    monkeypatch.undo()
    for base in (37, 100, 101):
        digits = (base - 1, 0, 9, 10)
        assert parse(f"[1,{radix._join_digits(digits, base)}]_{base}").int_digits == (1, *digits)


def with_placeholder(base: int, digits: list[int], at: int) -> tuple[int, str]:
    """A base and its spelling of ``digits`` with one '?' token put in."""
    tokens = [radix._join_digits([d], base) for d in digits]
    tokens.insert(at % (len(tokens) + 1), "?")
    return base, ("" if base <= 36 else ",").join(tokens)


@settings(max_examples=400)
@given(st.one_of(
    st.tuples(st.integers(2, 36), low_base_sections),
    st.tuples(st.integers(37, 70), high_base_sections),
    st.integers(2, 70).flatmap(lambda k: st.builds(
        with_placeholder, st.just(k), st.lists(st.integers(0, k - 1), max_size=8),
        st.integers(0, 8))),
))
@example((10, "2?99561"))
@example((2, "1?"))
@example((40, "10,?"))
@example((40, "07,?,99"))
def test_solve_missing_digit_matches_the_placeholder_brute(case):
    """The candidates, the first bad token's ParseError, or the
    PreconditionError of a '?' count other than one, as tokenize_brute
    with placeholders sees the pattern."""
    base, pattern = case
    try:
        got = solve_missing_digit(pattern, base).candidates
    except ParseError as exc:
        got = (str(exc), exc.position)
    except PreconditionError as exc:
        got = str(exc)
    try:
        digits = tokenize_brute(pattern, 0, base, placeholder=True)
    except TokenizeBruteError as exc:
        want = (f"{exc.message} (at position {exc.position})", exc.position)
    else:
        total = sum(d for d in digits if d is not None)
        if digits.count(None) == 1:
            want = tuple(d for d in range(base) if (total + d) % (base - 1) == 0)
        else:
            want = f"pattern must contain exactly one '?' placeholder, found {digits.count(None)}"
    assert got == want


@given(st.lists(st.integers(0, 2), min_size=1, max_size=12), st.integers(1, 30),
       st.integers(0, 400), st.integers(0, 2))
def test_string_period_matches_brute(block, times, where, new):
    digits = block * times
    if where < len(digits):  # break the repetition in one place, sometimes
        digits[where] = new
    digits = tuple(digits)
    assert _string_period(digits) == string_period_brute(digits)


bracket_literals = st.builds(
    lambda body, base: f"[{body}]_{base}",
    st.text(alphabet="0123456789aAzZ.,()[]?_\u00b2\u0661"),
    st.text(alphabet="0123456789\u00b2\u0661", max_size=3),
)


@given(st.one_of(st.text(), bracket_literals))
def test_parse_raises_only_positioned_parse_errors(text):
    try:
        parse(text)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)


def test_parse_error_positions_point_at_offenders():
    assert pytest.raises(ParseError, parse, "[19]_9").value.position == 2
    assert pytest.raises(ParseError, parse, "[1.2(55)]_10").value.position == 5
    assert pytest.raises(ParseError, parse, "[007]_10").value.position == 1
    for text, position in [("[1.(2(3))]_10", 5), ("[1.2(3)4)]_10", 6), ("[(1(2))]_10", 3)]:
        error = pytest.raises(ParseError, parse, text).value
        assert error.position == position
        assert str(error) == f"nested repetend group (at position {position})"
    # A prefix that ends in the repetend's last digit is one digit too long:
    # the first two spell 4/33 = [0.(12)]_10, the third 1 = [1]_10.
    for text, position in [("[0.1(21)]_10", 3), ("[0.12(12)]_10", 4), ("[0.9(9)]_10", 3),
                           ("[3.40(0,1,40)]_41", 3), ("[0.1,12(5,12)]_40", 5)]:
        error = pytest.raises(ParseError, parse, text).value
        assert str(error) == (f"fractional prefix ends in the repetend's last digit "
                              f"(at position {position})")
