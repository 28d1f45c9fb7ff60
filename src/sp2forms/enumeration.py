"""Deterministic enumeration of Jordan types and symplectic classes.

Sweeps, tables and verification reports all iterate in the same order:
partitions in reverse-lexicographic order (largest parts first), and within
a partition the tag assignments with larger sizes varying slowest and the
tagged choice first.  Partitions are in multiplicity form, ascending
(size, multiplicity) pairs as in :attr:`JordanType.blocks`.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, product
from operator import mul

from .hesselink import SymplecticType
from .jordan import JordanType

Partition = tuple[tuple[int, int], ...]


def partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in multiplicity form, reverse-lexicographically.

    (n,) comes first and (1, ..., 1) last.  Each step is the step of Knuth's
    Algorithm P (TAOCP Vol. 4A, 7.2.1.4) on the multiplicity encoding of
    Kelleher and O'Sullivan (arXiv:0909.2331): drop the ones, take one copy
    of the smallest remaining part d, and refill its value plus the ones
    greedily with parts of size d - 1.  The working list holds the distinct
    parts largest first, so each step touches only its tail.
    """
    if n < 1:
        if n == 0:
            yield ()
        return
    parts = [(n, 1)]
    while True:
        yield tuple(reversed(parts))
        ones = parts.pop()[1] if parts[-1][0] == 1 else 0
        if not parts:
            return
        d, m = parts.pop()
        if m > 1:
            parts.append((d, m - 1))
        q, r = divmod(d + ones, d - 1)
        parts.append((d - 1, q))
        if r:
            parts.append((r, 1))


def jordan_types(n: int, include_trivial: bool = True) -> Iterator[JordanType]:
    """Jordan types of dimension n, in table order."""
    for p in partitions(n):
        if not include_trivial and all(d == 1 for d, _ in p):
            continue
        yield JordanType(p)


def symplectic_partitions(dim: int) -> Iterator[Partition]:
    """Partitions of dim in which every odd part has even multiplicity."""
    for p in partitions(dim):
        if all(d % 2 == 0 or m % 2 == 0 for d, m in p):
            yield p


def epsilon_variants(p: Partition) -> Iterator[SymplecticType]:
    """All symplectic classes over one Jordan partition, in table order.

    Odd sizes have the forced tag 0 and even sizes of odd multiplicity the
    forced tag 1; the remaining sizes are free.  Free choices vary with larger sizes slowest,
    tagged (eps = 1) before untagged.
    """
    free = [d for d, m in reversed(p) if d % 2 == 0 and m % 2 == 0]
    for choice in product((1, 0), repeat=len(free)):
        tags = dict(zip(free, choice))
        yield SymplecticType(tuple((d, m, tags.get(d, 1 - d % 2)) for d, m in p))


def class_counts(dim: int, symplectic: bool = False) -> list[int]:
    """Number of classes of each dimension 0..dim, as a list indexed by dimension.

    Plain classes are the partitions yielded by :func:`partitions`.  With
    ``symplectic=True`` they are the classes of :func:`symplectic_types`: the
    partitions of :func:`symplectic_partitions`, each counted once per tag
    choice, so 2^(number of free sizes) times.  The counts are the
    coefficients of a product of per-size generating functions, taken one
    size k at a time in place.  Plain: 1/(1 - x^k).  Symplectic: an odd size
    takes even multiplicities, 1/(1 - x^2k); an even size any, with two tag
    choices when even and positive, (1 + x^k + x^2k)/(1 - x^2k).  The pair
    sweep's count reads it; the single-class sweeps use the faster
    :func:`partition_numbers` and :func:`symplectic_class_total`, which the
    tests hold to it.
    """
    ways = [1] + [0] * max(dim, 0)
    for k in range(1, dim + 1):
        step = 2 * k if symplectic else k
        if symplectic and k % 2 == 0:
            for r in range(dim, k - 1, -1):
                ways[r] += ways[r - k] + (ways[r - step] if r >= step else 0)
        for r in range(step, dim + 1):
            ways[r] += ways[r - step]
    return ways


def partition_numbers(n: int) -> list[int]:
    """The partition numbers p(0), ..., p(n), by Euler's pentagonal theorem.

    prod_k (1 - x^k) = sum over k of (-1)^k x^(k(3k-1)/2), k running over all
    integers, so p(r) = sum over k >= 1 of (-1)^(k+1) (p(r - g) + p(r - g - k))
    with g = k(3k-1)/2, terms of negative index dropped: about 1.6 sqrt(r)
    terms for each r, against the r of :func:`class_counts`.
    """
    p = [1] + [0] * max(n, 0)
    for r in range(1, n + 1):
        total, k, g = 0, 1, 1
        while g <= r:
            term = p[r - g] + p[r - g - k] if g + k <= r else p[r - g]
            total += term if k % 2 else -term
            g += 3 * k + 1
            k += 1
        p[r] = total
    return p


def symplectic_class_total(max_dim: int) -> int:
    """Number of symplectic classes of every dimension 0..max_dim, summed.

    With y = x^2 the factors of :func:`class_counts` are 1/(1 - y^k) for an
    odd size k and (1 + y^j + y^2j)/(1 - y^2j) for an even size k = 2j, and
    1 + y^j + y^2j = (1 - y^3j)/(1 - y^j).  So the classes of dimension 2n
    are the coefficient c(n) of y^n in P(y)^2 / P(y^3), where P(y) = sum of
    p(n) y^n = prod 1/(1 - y^k).  By Euler's pentagonal theorem 1/P(y^3) is
    the sum of (-1)^k y^(3g) over the generalized pentagonal numbers
    g = k(3k-1)/2, so with N = max_dim // 2 the total is the sum over g of
    (-1)^k Q(N - 3g), where Q(M) = sum over i + j <= M of p(i) p(j), the
    first M + 1 coefficients of P(y)^2 summed: about 0.9 sqrt(N) sums of
    N products, against the dim^2 additions of :func:`class_counts`.
    """
    n = max(max_dim, 0) // 2
    p = partition_numbers(n)
    prefix = list(accumulate(p))

    def pairs(m: int) -> int:  # Q(m) = sum of p(i) (p(0) + ... + p(m - i)) over i <= m
        return sum(map(mul, p[:m + 1], reversed(prefix[:m + 1])))

    total, k, g = pairs(n), 1, 1
    while 3 * g <= n:
        term = pairs(n - 3 * g) + pairs(n - 3 * (g + k)) if 3 * (g + k) <= n else pairs(n - 3 * g)
        total += -term if k % 2 else term
        g += 3 * k + 1
        k += 1
    return total


def symplectic_types(dim: int, include_trivial: bool = True) -> Iterator[SymplecticType]:
    """All symplectic classes of the given dimension, in table order."""
    for p in symplectic_partitions(dim):
        if not include_trivial and all(d == 1 for d, _ in p):
            continue
        yield from epsilon_variants(p)
