"""The ring of residues mod n, its unit group, and the orbit structure
induced by multiplication by units.

Residues x and y lie in the same orbit exactly when gcd(x, n) = gcd(y, n),
so orbits are labelled by divisors of n.  ``orbit`` deliberately enumerates
the group action instead of using the gcd shortcut, so the orbit/gcd-class
equality stays a falsifiable cross-check rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import factorize
from .errors import DomainError


def _require_modulus(n: int) -> int:
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"modulus must be an integer >= 2, got {n!r}")
    return n


@dataclass(frozen=True, slots=True)
class ResidueClass:
    """The canonical representative of an integer mod n, with 0 <= value < n."""

    value: int
    modulus: int

    def __post_init__(self):
        _require_modulus(self.modulus)
        if not 0 <= self.value < self.modulus:
            raise DomainError(
                f"residue value {self.value} not in [0, {self.modulus - 1}]"
            )

    def __add__(self, other: "ResidueClass") -> "ResidueClass":
        return res_add(self, other)

    def __mul__(self, other: "ResidueClass") -> "ResidueClass":
        return res_mul(self, other)


def residue(x: int, n: int) -> ResidueClass:
    """Canonical residue of any integer x mod n (n >= 2)."""
    _require_modulus(n)
    return ResidueClass(x % n, n)


def _require_same_modulus(a: ResidueClass, b: ResidueClass) -> int:
    if a.modulus != b.modulus:
        raise DomainError(f"modulus mismatch: {a.modulus} != {b.modulus}")
    return a.modulus


def res_add(a: ResidueClass, b: ResidueClass) -> ResidueClass:
    n = _require_same_modulus(a, b)
    return ResidueClass((a.value + b.value) % n, n)


def res_mul(a: ResidueClass, b: ResidueClass) -> ResidueClass:
    n = _require_same_modulus(a, b)
    return ResidueClass((a.value * b.value) % n, n)


def additive_order(x: ResidueClass) -> int:
    """Smallest d >= 1 with d*x = 0 mod n; always a divisor of n."""
    return x.modulus // math.gcd(x.value, x.modulus)


def _units(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n) if math.gcd(d, n) == 1)


def units(n: int) -> tuple[int, ...]:
    """Residues coprime to n, ascending; the multiplicative group mod n."""
    return _units(_require_modulus(n))


def gcd_class(n: int, d: int) -> tuple[int, ...]:
    """Residues x mod n with gcd(x, n) = d; empty when d does not divide n."""
    _require_modulus(n)
    return tuple(x for x in range(n) if math.gcd(x, n) == d)


def orbit(n: int, x: ResidueClass) -> tuple[int, ...]:
    """The orbit of x under multiplication by every unit mod n."""
    _require_modulus(n)
    if x.modulus != n:
        raise DomainError(f"modulus mismatch: {x.modulus} != {n}")
    return tuple(sorted({g * x.value % n for g in _units(n)}))


def orbit_of(n: int, x: int) -> int:
    """The divisor label of the orbit containing x, i.e. gcd(x, n)."""
    _require_modulus(n)
    if not 0 <= x < n:
        raise DomainError(f"residue value {x} not in [0, {n - 1}]")
    return math.gcd(x, n)


@dataclass(frozen=True)
class OrbitPartition:
    """The partition of residues mod n into gcd-classes, keyed by divisor."""

    modulus: int
    classes: dict[int, tuple[int, ...]]


def orbit_partition(n: int) -> OrbitPartition:
    """Partition of all residues mod n, one class per divisor of n."""
    _require_modulus(n)
    classes = {}
    for x in range(n):
        classes.setdefault(math.gcd(x, n), []).append(x)
    return OrbitPartition(n, {d: tuple(classes[d]) for d in sorted(classes)})


def unit_group_is_cyclic(n: int) -> bool:
    """True iff the unit group mod n is cyclic (n = 2, 4, p^j or 2*p^j, p odd)."""
    _require_modulus(n)
    if n in (2, 4):
        return True
    factors = factorize(n).factors
    if len(factors) == 1:
        p, _ = factors[0]
        return p != 2
    return len(factors) == 2 and factors[0] == (2, 1)
