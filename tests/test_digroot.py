import pytest
from hypothesis import given
from hypothesis import strategies as st

from radixroot import (
    DigitRootResult,
    DomainError,
    Rational,
    digit_sum,
    digit_sum_of_digits,
    digital_root,
    tf_digit_sum,
    tf_digital_root,
)
from radixroot.digroot import _digit_sum, _trajectory
from oracles import digits_brute


def builtin_digit_sum(n: int, k: int) -> int:
    """Oracle for the bases Python can format natively."""
    text = {2: "{:b}", 8: "{:o}", 10: "{:d}", 16: "{:x}"}[k].format(n)
    return sum(int(c, 16) for c in text)


def test_digit_sum_examples():
    assert digit_sum(7205, 10) == 14
    assert digit_sum(161, 6) == 11
    assert digit_sum(43, 2) == 4
    assert digit_sum(0, 7) == 0
    assert digit_sum(10878, 16) == 33


@given(st.integers(0, 10**12), st.sampled_from([2, 8, 10, 16]))
def test_digit_sum_matches_builtin_formatting(n, k):
    assert digit_sum(n, k) == builtin_digit_sum(n, k)


def test_digit_sum_iter_examples():
    # n after t digit sums is (n, *trajectory)[min(t, persistence)].
    res = digital_root(7205, 10)
    assert (7205, *res.trajectory)[min(2, res.persistence)] == 5
    assert (7205, *res.trajectory)[min(0, res.persistence)] == 7205
    res = digital_root(161, 6)
    assert (161, *res.trajectory)[min(2, res.persistence)] == 6


def test_additive_persistence_examples():
    for n, k, persistence in ((7205, 10, 2), (161, 6, 3), (10878, 16, 2), (5, 10, 0),
                              (0, 10, 0)):
        assert digital_root(n, k).persistence == persistence


@given(st.integers(0, 10**30), st.integers(2, 40))
def test_digital_root_matches_the_iterated_brute_digit_sum(n, k):
    root = n
    while root >= k:
        root = sum(digits_brute(root, k))
    assert digital_root(n, k).root == root


def test_digital_root_examples():
    assert digital_root(7205, 10) == DigitRootResult(5, 2, (14, 5))
    assert digital_root(161, 6) == DigitRootResult(1, 3, (11, 6, 1))
    assert digital_root(43, 2).root == 1
    assert digital_root(10878, 16) == DigitRootResult(3, 2, (33, 3))
    assert digital_root(0, 10) == DigitRootResult(0, 0, ())


@given(st.integers(0, 10**9), st.integers(2, 16))
def test_digital_root_result_structure(n, k):
    res = digital_root(n, k)
    assert 0 <= res.root < k
    assert (res.root == 0) == (n == 0)
    assert len(res.trajectory) == res.persistence
    if res.trajectory:
        assert res.trajectory[0] == digit_sum(n, k)
        assert res.trajectory[-1] == res.root
        chain = (n,) + res.trajectory
        assert all(a > b for a, b in zip(chain, chain[1:]))


@given(st.integers(0, 10**9), st.integers(3, 16))
def test_digit_sum_congruent_mod_base_minus_one(n, k):
    assert (digit_sum(n, k) - n) % (k - 1) == 0


@given(st.integers(0, 10**9), st.integers(2, 16))
def test_digit_sum_bounded_by_argument(n, k):
    s = digit_sum(n, k)
    assert s <= n
    assert (s == n) == (n < k)


@given(st.integers(1, 10**12), st.integers(0, 40), st.integers(2, 60))
def test_trailing_zero_digits_change_no_digit_sum_or_root(n, m, k):
    # n * k^m is n's digits followed by m zeros: the main1 sweep's memo of
    # roots relies on this to key each n on n without its trailing zeros.
    shifted = n * k**m
    assert digits_brute(shifted, k) == digits_brute(n, k) + [0] * m
    assert _digit_sum(shifted, k) == _digit_sum(n, k) == sum(digits_brute(n, k))
    root = n
    while root >= k:
        root = sum(digits_brute(root, k))
    assert _trajectory(shifted, k)[-1] == _trajectory(n, k)[-1] == root


@given(st.integers(1, 10**9), st.integers(3, 16))
def test_digital_root_closed_form(n, k):
    assert digital_root(n, k).root == 1 + (n - 1) % (k - 1)


@given(st.integers(1, 10**6))
def test_digital_root_base_two_is_always_one(n):
    assert digital_root(n, 2).root == 1


@given(st.integers(1, 10**9), st.integers(3, 16))
def test_root_is_base_minus_one_iff_sum_is_positive_multiple(n, k):
    s = digit_sum(n, k)
    assert (digital_root(n, k).root == k - 1) == (s > 0 and s % (k - 1) == 0)


def test_tf_examples():
    assert tf_digit_sum(Rational(1441, 20), 10) == 14
    assert tf_digital_root(Rational(1441, 20), 10).root == 5
    assert tf_digital_root(Rational(43, 32), 2).root == 1
    assert tf_digital_root(Rational(0), 12).root == 0
    assert tf_digit_sum(Rational(161, 36), 6) == 11
    assert tf_digital_root(Rational(161, 36), 6).root == 1


def test_tf_rejects_repeating_input():
    with pytest.raises(DomainError, match="denominator prime"):
        tf_digit_sum(Rational(161, 36), 10)
    with pytest.raises(DomainError):
        tf_digital_root(Rational(9, 7), 10)


@given(st.builds(Rational, st.integers(0, 300), st.integers(1, 300)), st.integers(2, 16))
def test_tf_congruence_with_root(q, k):
    from radixroot import classify
    if not classify(q, k).is_terminating:
        return
    assert (tf_digit_sum(q, k) - tf_digital_root(q, k).root) % (k - 1) == 0


def test_digit_sum_of_digits_examples():
    assert digit_sum_of_digits([2, 8, 5, 7, 1, 4], 10) == 27
    assert digit_sum_of_digits([], 7) == 0
    assert digit_sum_of_digits([8, 1], 10) == 9
    with pytest.raises(DomainError):
        digit_sum_of_digits([3, 10], 10)
    with pytest.raises(DomainError):
        digit_sum_of_digits([True, 5], 10)


def test_digit_sum_of_digits_takes_any_iterable():
    assert digit_sum_of_digits((d for d in [2, 8, 5, 7, 1, 4]), 10) == 27
    assert digit_sum_of_digits(iter(()), 7) == 0
    with pytest.raises(DomainError, match=r"^digit 12 out of range for base 10$"):
        digit_sum_of_digits((d for d in [1, 2, 12, 13]), 10)
