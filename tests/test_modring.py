import pytest
from hypothesis import given
from hypothesis import strategies as st

from radixroot import (
    DomainError,
    ResidueClass,
    additive_order,
    divisors,
    gcd_class,
    orbit,
    orbit_of,
    orbit_partition,
    residue,
    totient,
    unit_group_is_cyclic,
    units,
)

from oracles import additive_order_brute, unit_group_cyclic_brute


def test_residue_canonical_representative():
    assert residue(16, 3) == residue(4, 3)
    assert residue(16, 3) != residue(5, 3)
    assert residue(0, 7) == ResidueClass(0, 7)
    assert residue(-1, 7).value == 6
    with pytest.raises(DomainError):
        residue(3, 1)
    with pytest.raises(DomainError):
        ResidueClass(9, 9)


def test_ring_operation_examples():
    assert residue(5, 9) + residue(7, 9) == residue(3, 9)
    assert residue(3, 9) * residue(6, 9) == residue(0, 9)
    a = residue(4, 9)
    assert a * residue(1, 9) == a
    assert a + residue(7, 9) == residue(2, 9)
    assert a * residue(7, 9) == residue(1, 9)


def test_ring_operations_reject_modulus_mismatch():
    with pytest.raises(DomainError, match=r"^modulus mismatch: 5 != 7$"):
        residue(1, 5) + residue(1, 7)
    with pytest.raises(DomainError, match=r"^modulus mismatch: 5 != 7$"):
        residue(1, 5) * residue(1, 7)


@given(st.integers(2, 500), st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_ring_operations_match_integer_arithmetic(n, x, y):
    assert (residue(x, n) + residue(y, n)).value == (x + y) % n
    assert (residue(x, n) * residue(y, n)).value == (x * y) % n


def test_additive_order_examples():
    assert additive_order(residue(3, 9)) == additive_order_brute(3, 9) == 3
    assert additive_order(residue(0, 12)) == 1
    for n in (6, 9, 20):
        for d in divisors(n):
            assert additive_order(residue(n // d, n)) == d


def test_additive_order_divides_modulus():
    for n in range(2, 101):
        for x in range(n):
            order = additive_order(residue(x, n))
            assert order == additive_order_brute(x, n)
            assert n % order == 0


def test_units_examples():
    assert units(9) == (1, 2, 4, 5, 7, 8)
    assert units(2) == (1,)
    assert units(12) == (1, 5, 7, 11)
    with pytest.raises(DomainError):
        units(1)


@given(st.integers(2, 300))
def test_units_cardinality_and_closure(n):
    group = units(n)
    assert len(group) == totient(n)
    for g in group[:10]:
        for h in group[-10:]:
            assert g * h % n in group


def test_gcd_class_examples():
    assert gcd_class(9, 3) == (3, 6)
    assert gcd_class(9, 9) == (0,)
    assert gcd_class(9, 2) == ()


def test_orbit_examples():
    assert orbit(9, residue(3, 9)) == (3, 6)
    assert orbit(12, residue(0, 12)) == (0,)
    assert orbit(9, residue(1, 9)) == (1, 2, 4, 5, 7, 8)
    with pytest.raises(DomainError):
        orbit(9, residue(3, 12))


def test_orbit_cardinality_is_totient_of_additive_order():
    for n in range(2, 80):
        for x in range(n):
            r = residue(x, n)
            assert len(orbit(n, r)) == totient(additive_order(r))


def test_orbit_equals_gcd_class():
    for n in range(2, 61):
        for d in divisors(n):
            assert orbit(n, residue(d, n)) == gcd_class(n, d)


def test_orbit_partition_examples():
    assert orbit_partition(9).classes == {1: (1, 2, 4, 5, 7, 8), 3: (3, 6), 9: (0,)}
    assert orbit_partition(2).classes == {1: (1,), 2: (0,)}
    assert orbit_partition(6).classes == {1: (1, 5), 2: (2, 4), 3: (3,), 6: (0,)}
    with pytest.raises(DomainError):
        orbit_partition(1)


def test_orbit_partition_covers_disjointly():
    for n in range(2, 121):
        part = orbit_partition(n)
        assert set(part.classes) == set(divisors(n))
        seen = []
        for d, members in part.classes.items():
            assert len(members) == totient(n // d)
            assert members == gcd_class(n, d)
            seen.extend(members)
        assert sorted(seen) == list(range(n))


def test_orbit_of_examples():
    assert orbit_of(9, 6) == 3
    assert orbit_of(9, 0) == 9
    assert orbit_of(9, 7) == 1
    with pytest.raises(DomainError):
        orbit_of(9, 9)


def test_action_preserves_orbit_label():
    for n in range(2, 101):
        for g in units(n):
            for x in range(n):
                assert orbit_of(n, g * x % n) == orbit_of(n, x)


def test_unit_group_is_cyclic_examples():
    assert unit_group_is_cyclic(9)
    assert not unit_group_is_cyclic(8)
    assert unit_group_is_cyclic(2)
    assert not unit_group_cyclic_brute(8)


def test_unit_group_is_cyclic_matches_brute_force():
    for n in range(2, 151):
        assert unit_group_is_cyclic(n) == unit_group_cyclic_brute(n)
