"""Deterministic enumeration of Jordan types and symplectic classes.

Sweeps, tables and verification reports all iterate in the same order:
partitions in reverse-lexicographic order (largest parts first), and within
a partition the tag assignments with larger sizes varying slowest and the
tagged choice first.  Partitions are in multiplicity form, ascending
(size, multiplicity) pairs as in :attr:`JordanType.blocks`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator

from .hesselink import SymplecticType, alpha_of
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


def free_sizes(p: Partition) -> list[int]:
    """Sizes whose tag is a free choice, largest first: even sizes of even multiplicity."""
    return [d for d, m in reversed(p) if d % 2 == 0 and m % 2 == 0]


def epsilon_variants(p: Partition) -> Iterator[SymplecticType]:
    """All symplectic classes over one Jordan partition, in table order.

    Odd sizes have the forced tag 0 and even sizes of odd multiplicity the
    forced tag 1; the remaining sizes are free.  Free choices vary with larger sizes slowest,
    tagged (eps = 1) before untagged.
    """
    free = free_sizes(p)
    for choice in product((1, 0), repeat=len(free)):
        tags = dict(zip(free, choice))
        yield SymplecticType(tuple((d, m, tags.get(d, 1 - d % 2)) for d, m in p))


@lru_cache(maxsize=None)
def count_classes(dim: int, below: int, symplectic: bool = False) -> int:
    """Number of classes of dimension dim whose parts are all smaller than below.

    Plain classes are the partitions yielded by :func:`partitions`.  With
    ``symplectic=True`` they are the classes of :func:`symplectic_types`: the
    partitions of :func:`symplectic_partitions`, each counted once per tag
    choice, so 2^(number of free sizes) times.  Sweeps use this to count a
    whole subtree of the search without generating it.  The recursion goes
    one part size down per level, so its depth is at most dim.
    """
    k = min(below - 1, dim)  # the largest admissible part
    if dim == 0:
        return 1
    if k < 1:
        return 0
    total = 0
    for m in range(dim // k + 1):
        if symplectic and k % 2 and m % 2:
            continue  # odd sizes need even multiplicity
        weight = 2 if symplectic and m and m % 2 == 0 and k % 2 == 0 else 1  # a free tag
        total += weight * count_classes(dim - k * m, k, symplectic)
    return total


def symplectic_types(
    dim: int,
    alpha_positive: bool = False,
    include_trivial: bool = True,
) -> Iterator[SymplecticType]:
    """All symplectic classes of the given dimension, in table order."""
    for p in symplectic_partitions(dim):
        if not include_trivial and all(d == 1 for d, _ in p):
            continue
        for s in epsilon_variants(p):
            if alpha_positive and alpha_of(s) == 0:
                continue
            yield s
