"""Tests for the deterministic enumeration used by tables and sweeps."""

from sp2forms.enumeration import (
    class_counts,
    epsilon_variants,
    jordan_types,
    partitions,
    symplectic_partitions,
    symplectic_types,
)
from sp2forms.hesselink import alpha_of, induce_bilinear


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
    positive = [s for s in unrestricted if alpha_of(s) > 0]
    assert [str(s) for s in positive] == ["8_1", "4_1^2", "4_0^2", "2_0^2,4_1", "2_0^4"]
    assert set(map(str, positive)) < set(map(str, unrestricted))


def test_alpha_positive_classes_are_the_doubles():
    # table C builds its restricted rows by doubling; the filter written out here is the definition
    counts = class_counts(12, symplectic=True)
    for n in range(1, 13):
        positive = [s for s in symplectic_types(2 * n) if alpha_of(s) > 0]
        assert positive == [induce_bilinear(t, 1) for t in symplectic_types(n)], n
        assert len(positive) == counts[n]


def test_trivial_exclusion():
    with_trivial = list(jordan_types(3))
    without = list(jordan_types(3, include_trivial=False))
    assert len(with_trivial) == len(without) + 1
    assert str(with_trivial[-1]) == "1^3"


def _pentagonal_partition_count(n):
    """p(n) by Euler's pentagonal number recurrence."""
    p = [1] + [0] * n
    for r in range(1, n + 1):
        k = 1
        while k * (3 * k - 1) // 2 <= r:
            sign = 1 if k % 2 else -1
            p[r] += sign * p[r - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= r:
                p[r] += sign * p[r - k * (3 * k + 1) // 2]
            k += 1
    return p[n]


def _coin_change_symplectic_count(n):
    """Symplectic classes of dimension n, counted as coin changes.

    An odd size d comes in pairs of blocks, a coin of value 2d.  An even size
    d is either all tagged, any number of V(d) coins of value d, or all
    hyperbolic, any number of W(d) coins of value 2d; the empty choice is
    counted by both.
    """

    def change(ways, coin):
        ways = list(ways)
        for r in range(coin, n + 1):
            ways[r] += ways[r - coin]
        return ways

    ways = [1] + [0] * n
    for d in range(1, n + 1):
        if d % 2:
            ways = change(ways, 2 * d)
        else:
            ways = [v + w - x for v, w, x in zip(change(ways, d), change(ways, 2 * d), ways)]
    return ways[n]


def test_count_classes_large():
    # no recursion: the counts reach dimensions far past the interpreter's stack limit
    assert class_counts(3000)[3000] == _pentagonal_partition_count(3000)
    assert class_counts(2000, True)[2000] == _coin_change_symplectic_count(2000)
