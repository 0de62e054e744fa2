"""The ring of residues mod n, its unit group, and the orbit structure
induced by multiplication by units.

Residues x and y lie in the same orbit exactly when gcd(x, n) = gcd(y, n),
so orbits are labelled by divisors of n.  ``orbit`` deliberately enumerates
the group action instead of using the gcd shortcut, so the orbit/gcd-class
equality stays a falsifiable cross-check rather than a tautology.
"""

from __future__ import annotations

import math

from .arith import _decimal_text, _factor, _Record, _require_int, _require_type
from .errors import DomainError


class ResidueClass(_Record):
    """The canonical representative of an integer mod n, with 0 <= value < n."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        n = _require_int(modulus, "modulus", 2)
        if _require_int(value, "residue value") >= n:
            raise DomainError(f"residue value {_decimal_text(value)} not in "
                              f"[0, {_decimal_text(n - 1)}]")
        _Record.__init__(self, value, modulus)

    def __add__(self, other: "ResidueClass") -> "ResidueClass":
        n = _require_same_modulus(self.modulus, other.modulus)
        return ResidueClass((self.value + other.value) % n, n)

    def __mul__(self, other: "ResidueClass") -> "ResidueClass":
        n = _require_same_modulus(self.modulus, other.modulus)
        return ResidueClass((self.value * other.value) % n, n)


def residue(x: int, n: int) -> ResidueClass:
    """Canonical residue of any integer x mod n (n >= 2)."""
    _require_int(n, "modulus", 2)
    _require_int(x, "x", None)
    return ResidueClass(x % n, n)


def _require_same_modulus(m: int, n: int) -> int:
    if m != n:
        raise DomainError(f"modulus mismatch: {_decimal_text(m)} != {_decimal_text(n)}")
    return m


def additive_order(x: ResidueClass) -> int:
    """Smallest d >= 1 with d*x = 0 mod n; always a divisor of n."""
    _require_type(x, ResidueClass, "x")
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
    _require_type(x, ResidueClass, "x")
    _require_same_modulus(x.modulus, _require_int(n, "modulus", 2))
    return tuple(sorted({g * x.value % n for g in _units(n)}))


def orbit_of(n: int, x: int) -> int:
    """The divisor label of the orbit containing x, i.e. gcd(x, n)."""
    return math.gcd(ResidueClass(x, n).value, n)


class OrbitPartition(_Record):
    """The partition of residues mod n into gcd-classes, keyed by divisor."""

    __slots__ = ("modulus", "classes")


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
    factors = _factor(n)
    if len(factors) == 1:
        p, _ = factors[0]
        return p != 2
    return len(factors) == 2 and factors[0] == (2, 1)
