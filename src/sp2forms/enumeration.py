"""Deterministic enumeration of Jordan types and symplectic classes.

Sweeps, tables and verification reports all iterate in the same order:
partitions in reverse-lexicographic order (largest parts first), and within
a partition the tag assignments with larger sizes varying slowest and the
tagged choice first.  Partitions are in multiplicity form, ascending
(size, multiplicity) pairs as in :attr:`JordanType.blocks`.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

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
    choices when even and positive, (1 + x^k + x^2k)/(1 - x^2k).
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


def symplectic_types(dim: int, include_trivial: bool = True) -> Iterator[SymplecticType]:
    """All symplectic classes of the given dimension, in table order."""
    for p in symplectic_partitions(dim):
        if not include_trivial and all(d == 1 for d, _ in p):
            continue
        yield from epsilon_variants(p)
