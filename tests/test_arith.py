import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from radixroot import (
    DomainError,
    FuzzSummary,
    OrbitPartition,
    Rational,
    classify,
    digital_root,
    divisors,
    factorize,
    gcd,
    orbit_partition,
    pow_rational,
    residue,
    solve_missing_digit,
    to_repeating,
    totient,
    verify_main1,
    verify_main2,
)
from radixroot.arith import _Record

from oracles import divisors_brute, factorize_brute, gcd_brute, totient_brute


def test_gcd_examples():
    assert gcd(161, 36) == 1
    assert gcd(10, 9) == 1
    assert gcd(0, 7) == 7
    assert gcd(12, 18) == gcd_brute(12, 18) == 6


def test_is_coprime():
    # Coprimality is gcd(a, b) == 1.
    assert gcd(161, 36) == 1
    assert gcd(1, 999) == 1
    assert gcd(9, 21) != 1


def test_gcd_rejects_bad_input():
    with pytest.raises(DomainError):
        gcd(0, 0)
    with pytest.raises(DomainError):
        gcd(-4, 6)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_gcd_symmetric_and_divides(a, b):
    if a == 0 and b == 0:
        return
    g = gcd(a, b)
    assert g == gcd(b, a)
    assert (a % g == 0 or a == 0) and (b % g == 0 or b == 0)


def test_factorize_examples():
    assert factorize(9).factors == ((3, 2),)
    assert factorize(36).factors == tuple(factorize_brute(36)) == ((2, 2), (3, 2))
    assert factorize(1).factors == ()
    with pytest.raises(DomainError):
        factorize(0)


def test_factorize_matches_brute_force():
    for n in range(1, 2001):
        assert factorize(n).factors == tuple(factorize_brute(n))
        assert factorize(n).value() == n


def test_divisors_examples():
    assert divisors(9) == (1, 3, 9)
    assert divisors(1) == (1,)
    assert divisors(12) == tuple(divisors_brute(12)) == (1, 2, 3, 4, 6, 12)
    with pytest.raises(DomainError):
        divisors(0)


def test_divisor_count_formula():
    for n in range(2, 1001):
        expected = 1
        for _, e in factorize(n).factors:
            expected *= e + 1
        assert len(divisors(n)) == expected


def test_divisors_match_brute_force():
    for n in range(1, 2001):
        assert list(divisors(n)) == divisors_brute(n)


def test_totient_examples():
    assert totient(9) == 6
    assert totient(1) == 1
    assert totient(12) == totient_brute(12) == 4
    with pytest.raises(DomainError):
        totient(0)


def test_totient_matches_brute_force():
    for n in range(1, 2001):
        assert totient(n) == totient_brute(n)


def test_totient_sums_over_divisors():
    for n in range(1, 1001):
        assert sum(totient(d) for d in divisors(n)) == n


def test_base_divisors_coprime_to_base_minus_one():
    for k in range(2, 65):
        for r in divisors(k):
            assert gcd(r, k - 1) == 1


def test_large_magnitudes():
    assert gcd(2**512, 2**300) == 2**300
    assert factorize(2**512).factors == ((2, 512),)
    assert len(divisors(2**512)) == 513
    assert totient(2**512) == 2**511


def test_rational_examples():
    q = Rational(161, 36)
    assert (q.num, q.den) == (161, 36)
    assert Rational(4, 2) == Rational(2)
    assert Rational(0, 5) == Rational(0, 1)
    with pytest.raises(DomainError):
        Rational(1, 0)
    with pytest.raises(DomainError):
        Rational(-1, 2)


@pytest.mark.parametrize("num, den", [(True, 3), (3, True), (3, False)])
def test_rational_rejects_bool_parts(num, den):
    with pytest.raises(DomainError):
        Rational(num, den)


@given(st.integers(0, 10**9), st.integers(1, 10**9))
def test_rational_reduction_idempotent(num, den):
    q = Rational(num, den)
    assert math.gcd(q.num, q.den) == 1
    assert Rational(q.num, q.den) == q
    assert Fraction(num, den) == Fraction(q.num, q.den)


@given(
    st.integers(0, 10**6), st.integers(1, 10**4),
    st.integers(0, 10**6), st.integers(1, 10**4),
)
def test_rational_arithmetic_matches_fraction(a, b, c, d):
    q1, q2 = Rational(a, b), Rational(c, d)
    f1, f2 = Fraction(a, b), Fraction(c, d)
    total = q1 + q2
    assert Fraction(total.num, total.den) == f1 + f2
    product = q1 * q2
    assert Fraction(product.num, product.den) == f1 * f2
    if c:
        quotient = q1 / q2
        assert Fraction(quotient.num, quotient.den) == f1 / f2


def test_rational_division_by_zero():
    with pytest.raises(DomainError):
        Rational(1, 2) / 0


def test_rational_int_operands_and_str():
    assert Rational(3, 4) * 2 == Rational(3, 2)
    assert Rational(3, 4) + 1 == Rational(7, 4)
    assert Rational(3, 2) / 3 == Rational(1, 2)
    assert str(Rational(161, 36)) == "161/36"
    assert str(Rational(8, 4)) == "2"


def test_rational_other_operands_raise_type_error():
    # No float and no text: the operators answer NotImplemented, and so
    # does the other operand, which leaves Python's TypeError.
    with pytest.raises(TypeError):
        Rational(1, 2) + 0.5
    with pytest.raises(TypeError):
        0.5 * Rational(1, 2)
    with pytest.raises(TypeError):
        Rational(1, 2) / "2"


def test_pow_rational():
    assert pow_rational(10, 3) == Rational(1000)
    assert pow_rational(10, -2) == Rational(1, 100)
    assert pow_rational(7, 0) == Rational(1)
    with pytest.raises(DomainError):
        pow_rational(0, 2)


# One record of each public record type, as the library returns it.  The
# FuzzSummary has a failure, so that it holds a dict, as OrbitPartition does.
RECORDS = [
    factorize(360), Rational(6, 4), classify(Rational(1, 14), 10),
    to_repeating(Rational(1, 14), 10), digital_root(7205, 10), residue(10, 7),
    orbit_partition(6), verify_main1(Rational(1, 2), 2, 10, 2).terms[1],
    verify_main1(Rational(1, 2), 2, 10, 2), verify_main2(1, 3, 10),
    FuzzSummary(2, 1, 1, 0, 0, ({"base": 10, "n": 1, "s": 7},)), solve_missing_digit("1?", 10),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_records_are_immutable_values(record):
    cls, names = type(record), type(record).__slots__
    values = tuple(getattr(record, name) for name in names)
    twin = cls(*values)
    assert twin == record and twin is not record
    assert cls(**dict(zip(names, values))) == record
    assert cls(values[0], **dict(zip(names[1:], values[1:]))) == record
    for args, kwargs in (((*values, values[0]), {}), (values, {names[0]: values[0]}), ((), {})):
        with pytest.raises(TypeError):  # a field too many, one given twice, none
            cls(*args, **kwargs)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values
    if cls in (FuzzSummary, OrbitPartition):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
    # Another record type with the same fields, and a tuple of the values.
    lookalike = type("Lookalike", (_Record,), {"__slots__": names})(*values)
    assert lookalike != record and record != lookalike and record != values
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({fields})"
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is cls and copied == record
    if cls is Rational:  # unpickling goes through the constructor, which reduces
        raw = object.__new__(Rational)
        for name, value in (("num", 6), ("den", 4)):
            object.__setattr__(raw, name, value)
        assert pickle.loads(pickle.dumps(raw)) == Rational(3, 2)
    assert cls.__match_args__ == names
    match record:
        case cls(first) if first is values[0]:
            pass
        case _:
            pytest.fail(f"{cls.__name__} does not match by position")


def test_only_records_that_check_their_input_have_an_init():
    """The base stores every field; a record's own ``__init__`` only checks
    its input."""
    own = {cls.__name__ for cls in _Record.__subclasses__() if "__init__" in cls.__dict__}
    assert own == {"Rational", "ResidueClass", "PositionalRepr"}
