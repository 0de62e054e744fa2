"""Digital sums, additive persistence, and digital roots in any base,
including the extension to terminating fractionals via the minimum
exponent: the root of q is the root of k^rho0 * q.
"""

from __future__ import annotations

from .arith import Rational, _digit_sum, _Record, _require_digits, _require_int
from .radix import _scaled, _terminating_split


def _trajectory(n: int, k: int) -> list[int]:
    """n followed by its successive base-k digit sums, down to one digit."""
    chain = [n]
    while n >= k:
        n = _digit_sum(n, k)
        chain.append(n)
    return chain


def digit_sum(n: int, k: int) -> int:
    """Sum of the base-k digits of n."""
    _require_int(k, "base", 2)
    _require_int(n, "n")
    return _digit_sum(n, k)


class DigitRootResult(_Record):
    """Digital root plus the reduction chain that produced it.

    ``trajectory`` lists the successive digit sums (empty when the input
    was already a single digit); its last entry equals ``root`` and its
    length equals ``persistence``.
    """

    __slots__ = ("root", "persistence", "trajectory")


def _root_result(n: int, k: int) -> DigitRootResult:
    chain = _trajectory(n, k)
    return DigitRootResult(chain[-1], len(chain) - 1, tuple(chain[1:]))


def digital_root(n: int, k: int) -> DigitRootResult:
    """Iterate the digit sum until a single base-k digit remains."""
    _require_int(k, "base", 2)
    _require_int(n, "n")
    return _root_result(n, k)


def tf_digit_sum(q: Rational, k: int) -> int:
    """Digit sum of a terminating fractional: digit_sum of k^rho0 * q."""
    split = _terminating_split(q, k)
    return _digit_sum(_scaled(q.num, k, split), k)


def tf_digital_root(q: Rational, k: int) -> DigitRootResult:
    """Digital root of a terminating fractional: root of k^rho0 * q."""
    split = _terminating_split(q, k)
    return _root_result(_scaled(q.num, k, split), k)


def digit_sum_of_digits(digits, k: int) -> int:
    """Plain sum of an explicit digit list, validating each digit < k."""
    return sum(_require_digits(digits, _require_int(k, "base", 2)))
