"""Digital sums, additive persistence, and digital roots in any base,
including the extension to terminating fractionals via the minimum
exponent: the root of q is the root of k^rho0 * q.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import Rational, _digit_sum, _require_digits, _require_int
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


def digit_sum_iter(n: int, k: int, times: int) -> int:
    """n after ``times`` base-k digit sums.  A single digit is its own
    digit sum, so the loop stops there however large ``times`` is."""
    _require_int(k, "base", 2)
    _require_int(n, "n")
    _require_int(times, "times")
    while times and n >= k:
        n = _digit_sum(n, k)
        times -= 1
    return n


def additive_persistence(n: int, k: int) -> int:
    """Number of digit-sum iterations needed to reach a single digit."""
    _require_int(k, "base", 2)
    _require_int(n, "n")
    return len(_trajectory(n, k)) - 1


@dataclass(frozen=True, slots=True)
class DigitRootResult:
    """Digital root plus the reduction chain that produced it.

    ``trajectory`` lists the successive digit sums (empty when the input
    was already a single digit); its last entry equals ``root`` and its
    length equals ``persistence``.
    """

    root: int
    persistence: int
    trajectory: tuple[int, ...]


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
    return _digit_sum(_scaled(q.num, k, _terminating_split(q, k)), k)


def tf_digital_root(q: Rational, k: int) -> DigitRootResult:
    """Digital root of a terminating fractional: root of k^rho0 * q."""
    return _root_result(_scaled(q.num, k, _terminating_split(q, k)), k)


def digit_sum_of_digits(digits, k: int) -> int:
    """Plain sum of an explicit digit list, validating each digit < k."""
    return sum(_require_digits(digits, _require_int(k, "base", 2)))
