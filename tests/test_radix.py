import functools
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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
from radixroot import arith, radix
from radixroot.arith import _BLOCK_CAP, _INT_LEAF, _SPLIT_BITS, _digit_blocks
from radixroot.digroot import _digit_sum
from radixroot.radix import _digits_of, _int_of, _repetend, _smooth_split, _string_period, _tokenize

from oracles import (
    TokenizeBruteError,
    closed_form_repetend,
    digits_brute,
    int_of_digits_brute,
    long_division_digits,
    multiplicative_order_brute,
    smooth_split_brute,
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

    def factor_base_only(n):
        return factorize(n) if n == 10 else fail(n)

    monkeypatch.setattr(radix, "multiplicative_order", fail)
    for module in (arith, radix):
        monkeypatch.setattr(module, "totient", fail)
        monkeypatch.setattr(module, "factorize", factor_base_only)
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
    for cached in (factorize, multiplicative_order, _digit_blocks):
        assert cached.cache_parameters()["maxsize"] is not None
        assert cached.cache_info().maxsize == cached.cache_parameters()["maxsize"]


@settings(max_examples=60)
@given(st.integers(2, 60), st.lists(st.integers(0, 2000), min_size=3, max_size=3), st.integers(1, 10**6))
def test_smooth_split_matches_one_division_at_a_time(k, exponents, cofactor):
    den = cofactor
    for prime, e in zip(factorize(k).primes(), exponents):
        den *= prime**e
    assert _smooth_split(den, k) == smooth_split_brute(den, k)


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


@settings(max_examples=150)
@given(naturals_near_split_points(), st.integers(0, 40))
def test_split_digit_kernels_match_brute_near_split_points(n_k, pad):
    n, k = n_k
    digits = digits_brute(n, k)
    assert _digits_of(n, k) == digits
    assert _digits_of(n, k, len(digits) + pad) == [0] * pad + digits
    assert _digit_sum(n, k) == sum(digits)


def test_digit_conversion_edges():
    assert _int_of((1,) + (0,) * 5000, 3) == 3**5000
    assert _int_of((2,) * 5000, 3) == 3**5000 - 1
    assert _int_of((0,) * 5000, 3) == 0
    huge = 2**600 + 1  # a base far above any machine word
    n = 5 * huge**99 + huge + 7
    digits = (5,) + (0,) * 97 + (1, 7)
    assert _digits_of(n, huge) == list(digits)
    assert _int_of(digits, huge) == n


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
    assert _repetend(rem, p, k) == tuple(repetend) * (t // len(repetend))


# (base, prime p, ord_p(base)): for each base, periods congruent to 0, 1 and
# m - 1 modulo its block width m, so that the last block is full, one digit
# long and one digit short.
BLOCK_REMAINDERS = [
    (2, 61, 60), (2, 103, 51), (2, 79, 39),
    (3, 19, 18), (3, 431, 43), (3, 47, 23),
    (10, 19, 18), (10, 17, 16), (10, 71, 35),
    (16, 97, 12), (16, 11, 5),
    (32, 13, 12), (32, 23, 11),
]


def test_block_remainder_cases_cover_every_last_block():
    assert 32 * 32 <= _BLOCK_CAP < 33 * 33
    for k in (2, 3, 10, 16, 32):
        m = len(_digit_blocks(k)[0])
        assert {t % m for base, _, t in BLOCK_REMAINDERS if base == k} == {0, 1, m - 1}


@pytest.mark.parametrize("k, p, t", BLOCK_REMAINDERS)
def test_repetend_ends_with_a_short_block(k, p, t):
    assert multiplicative_order_brute(k, p) == t
    for rem in range(1, p):
        assert _repetend(rem, p, k) == closed_form_repetend(rem, p, k)


@pytest.mark.parametrize("k", range(2, 33))
def test_digit_blocks_spell_real_digits(k):
    table = _digit_blocks(k)
    m = len(table[0])
    assert k**m <= _BLOCK_CAP < k ** (m + 1)
    assert len(table) == k**m
    for v, block in enumerate(table):
        digits = digits_brute(v, k)
        assert list(block) == [0] * (m - len(digits)) + digits


# (base, prime p, ord_p(base)): periods near 12,000 and 65,000
ROUND_TRIP_PERIODS = [
    (2, 12011, 12010), (10, 12011, 12010), (16, 24019, 12009),
    (2, 65011, 65010), (10, 65029, 65028), (16, 128047, 64023),
    (36, 128033, 64016), (40, 65033, 65032), (60, 65003, 65002),
]


@pytest.mark.parametrize("k, p, t", ROUND_TRIP_PERIODS)
def test_long_repetends_round_trip_through_text(k, p, t):
    q = Rational(1, p)
    r = to_repeating(q, k)
    assert r.period == t
    assert parse(format_repr(r)) == r
    assert value_of(parse(format_repr(r))) == q
    assert list(r.repetend) == long_division_digits(1, p, k)[2]


def test_long_repetend_round_trips_through_comma_notation():
    q = Rational(12345, 20023)
    r = to_repeating(q, 40)
    assert r.period == 20022
    assert value_of(parse(format_repr(r))) == q


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
    """Each bracket string with an integer digit from ``int_digits`` and at
    most ``length`` prefix-plus-repetend digits, canonical or not, with its
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
                for a in int_digits:
                    yield f"[{a}{body}]_{k}", a + value


@pytest.mark.parametrize("k, length, int_digits", [(2, 8, (0, 1)), (40, 2, (0, 39))])
def test_each_value_has_one_spelling_of_each_form(k, length, int_digits):
    # Every string either parses to its own value or is rejected, every
    # value spelled has a string that parses, and its strings that parse
    # are at most one finite and one repeating, those that to_finite and
    # to_repeating give back.  Two spellings mean a terminating value:
    # its finite form and its (k-1)-tail.
    spellings, rejected = {}, 0
    for text, value in every_spelling(k, length, int_digits):
        q = Rational(value.numerator, value.denominator)
        spellings.setdefault(q, [])
        try:
            r = parse(text)
        except ParseError:
            rejected += 1
            continue
        assert value_of(r) == q, text
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
