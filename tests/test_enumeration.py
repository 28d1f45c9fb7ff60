"""Tests for the deterministic enumeration used by tables and sweeps."""

from sp2forms.enumeration import (
    epsilon_variants,
    jordan_types,
    partitions,
    symplectic_partitions,
    symplectic_types,
)
from sp2forms.hesselink import alpha_of


def test_partitions_reverse_lex():
    assert list(partitions(6)) == [
        ((6, 1),),
        ((1, 1), (5, 1)),
        ((2, 1), (4, 1)),
        ((1, 2), (4, 1)),
        ((3, 2),),
        ((1, 1), (2, 1), (3, 1)),
        ((1, 3), (3, 1)),
        ((2, 3),),
        ((1, 2), (2, 2)),
        ((1, 4), (2, 1)),
        ((1, 6),),
    ]


def test_partition_counts():
    assert sum(1 for _ in partitions(10)) == 42
    assert sum(1 for _ in partitions(0)) == 1


def test_symplectic_partitions_filter():
    got = list(symplectic_partitions(6))
    assert ((3, 2),) in got
    assert all(m % 2 == 0 for p in got for d, m in p if d % 2)
    assert ((1, 1), (2, 1), (3, 1)) not in got


def test_epsilon_variant_order():
    # free tags vary with larger sizes slowest, tagged first
    variants = [str(s) for s in epsilon_variants(((2, 2), (4, 2)))]
    assert variants == ["2_1^2,4_1^2", "2_0^2,4_1^2", "2_1^2,4_0^2", "2_0^2,4_0^2"]


def test_forced_tags():
    variants = [str(s) for s in epsilon_variants(((2, 2), (4, 1)))]
    # size 4 has odd multiplicity: tag forced; size 2 free
    assert variants == ["2_1^2,4_1", "2_0^2,4_1"]


def test_symplectic_types_alpha_filter():
    unrestricted = list(symplectic_types(8))
    positive = list(symplectic_types(8, alpha_positive=True))
    assert [str(s) for s in positive] == ["8_1", "4_1^2", "4_0^2", "2_0^2,4_1", "2_0^4"]
    assert set(map(str, positive)) < set(map(str, unrestricted))
    assert all(alpha_of(s) > 0 for s in positive)


def test_trivial_exclusion():
    with_trivial = list(jordan_types(3))
    without = list(jordan_types(3, include_trivial=False))
    assert len(with_trivial) == len(without) + 1
    assert str(with_trivial[-1]) == "1^3"
