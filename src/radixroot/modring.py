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

from .arith import _decimal_text, _require_int, factorize
from .errors import DomainError


@dataclass(frozen=True, slots=True)
class ResidueClass:
    """The canonical representative of an integer mod n, with 0 <= value < n."""

    value: int
    modulus: int

    def __post_init__(self):
        n = _require_int(self.modulus, "modulus", 2)
        if _require_int(self.value, "residue value") >= n:
            raise DomainError(
                f"residue value {_decimal_text(self.value)} not in [0, {_decimal_text(n - 1)}]"
            )

    def __add__(self, other: "ResidueClass") -> "ResidueClass":
        return res_add(self, other)

    def __mul__(self, other: "ResidueClass") -> "ResidueClass":
        return res_mul(self, other)


def residue(x: int, n: int) -> ResidueClass:
    """Canonical residue of any integer x mod n (n >= 2)."""
    _require_int(n, "modulus", 2)
    _require_int(x, "x", None)
    return ResidueClass(x % n, n)


def _require_same_modulus(m: int, n: int) -> int:
    if m != n:
        raise DomainError(f"modulus mismatch: {_decimal_text(m)} != {_decimal_text(n)}")
    return m


def res_add(a: ResidueClass, b: ResidueClass) -> ResidueClass:
    n = _require_same_modulus(a.modulus, b.modulus)
    return ResidueClass((a.value + b.value) % n, n)


def res_mul(a: ResidueClass, b: ResidueClass) -> ResidueClass:
    n = _require_same_modulus(a.modulus, b.modulus)
    return ResidueClass((a.value * b.value) % n, n)


def additive_order(x: ResidueClass) -> int:
    """Smallest d >= 1 with d*x = 0 mod n; always a divisor of n."""
    return x.modulus // math.gcd(x.value, x.modulus)


def _units(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n) if math.gcd(d, n) == 1)


def units(n: int) -> tuple[int, ...]:
    """Residues coprime to n, ascending; the multiplicative group mod n."""
    return _units(_require_int(n, "modulus", 2))


def gcd_class(n: int, d: int) -> tuple[int, ...]:
    """Residues x mod n with gcd(x, n) = d; empty when d does not divide n."""
    _require_int(n, "modulus", 2)
    _require_int(d, "d", None)
    return tuple(x for x in range(n) if math.gcd(x, n) == d)


def orbit(n: int, x: ResidueClass) -> tuple[int, ...]:
    """The orbit of x under multiplication by every unit mod n."""
    _require_same_modulus(x.modulus, _require_int(n, "modulus", 2))
    return tuple(sorted({g * x.value % n for g in _units(n)}))


def _orbit_label(n: int, x: int) -> int:
    """The divisor label of x's orbit mod n >= 2, unchecked: gcd(x, n),
    which equals gcd(x mod n, n), so x needs no reduction first."""
    return math.gcd(x, n)


def orbit_of(n: int, x: int) -> int:
    """The divisor label of the orbit containing x, i.e. gcd(x, n)."""
    return _orbit_label(n, ResidueClass(x, n).value)


@dataclass(frozen=True)
class OrbitPartition:
    """The partition of residues mod n into gcd-classes, keyed by divisor."""

    modulus: int
    classes: dict[int, tuple[int, ...]]


def orbit_partition(n: int) -> OrbitPartition:
    """Partition of all residues mod n, one class per divisor of n."""
    _require_int(n, "modulus", 2)
    classes = {}
    for x in range(n):
        classes.setdefault(math.gcd(x, n), []).append(x)
    return OrbitPartition(n, {d: tuple(classes[d]) for d in sorted(classes)})


def unit_group_is_cyclic(n: int) -> bool:
    """True iff the unit group mod n is cyclic (n = 2, 4, p^j or 2*p^j, p odd)."""
    _require_int(n, "modulus", 2)
    if n in (2, 4):
        return True
    factors = factorize(n).factors
    if len(factors) == 1:
        p, _ = factors[0]
        return p != 2
    return len(factors) == 2 and factors[0] == (2, 1)
