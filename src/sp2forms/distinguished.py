"""Distinguished unipotent classes and exhaustive verification sweeps.

A unipotent symplectic class is *distinguished* (centralizer containing no
non-trivial torus) exactly when its tagged type has every size even, every
multiplicity at most two, and every tag set.  The sweeps below cover all
classes up to a bound and confirm that the images under the dual-tensor,
bilinear-tensor and wedge-square constructions are distinguished precisely
for the expected short lists of inputs.  They do so with pruned searches
(:func:`_search` over partitions, :func:`_distinct_v_sums` for the pair
sweep): a class is only handed to the rules engine while its image can still
be distinguished, and every class cut off by a search is counted as checked.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import isqrt
from typing import Callable

from .enumeration import Partition, count_classes, epsilon_variants
from .hesselink import (
    EpsilonTaggedType,
    SymplecticConstraintError,
    SymplecticType,
    orthogonal_sum,
    tensor_bilinear,
    validate_symplectic,
    vtype,
)
from .jordan import JordanType, grow_tensor_square, grow_wedge_square
from .reps import dual_tensor_classes, wedge_square_classes

Square = dict[int, int]  # Jordan multiplicities of a tensor or wedge square


def is_distinguished(t: EpsilonTaggedType) -> bool:
    """True iff the class consists of tagged even sizes of multiplicity at most two.

    Degenerate tagged types (failing the symplectic parity laws) are never
    distinguished: the element does not even lie in a symplectic group.
    """
    try:
        validate_symplectic(t)
    except SymplecticConstraintError:
        return False
    return all(d % 2 == 0 and m <= 2 and e == 1 for d, m, e in t.entries)


@dataclass
class SweepReport:
    """Result of one verification sweep.

    ``checked`` counts every class (or pair) the sweep covers, including
    those its search rules out without generating them; ``evaluated`` counts
    the ones actually passed to the rules engine; ``skipped`` counts the
    classes in range that a proved bound leaves out of ``checked``.
    """

    name: str
    checked: int = 0
    evaluated: int = 0
    skipped: int = 0
    hits: list[str] = field(default_factory=list)
    counterexamples: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "evaluated": self.evaluated,
            "skipped": self.skipped,
            "distinguished_inputs": self.hits,
            "counterexamples": self.counterexamples,
            "elapsed_seconds": self.elapsed,
            "ok": self.ok,
        }

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{status} {self.name}: {self.checked} checked, {self.evaluated} evaluated, {self.skipped} skipped, "
            f"{len(self.hits)} distinguished, {len(self.counterexamples)} counterexamples, "
            f"{self.elapsed:.2f}s"
        )


def _repro(command: str, *args) -> str:
    """Suffix for a counterexample line: the command that reproduces it."""
    return "; run: sp2forms " + " ".join([command, *map(str, args)])


# --- the pruned search -------------------------------------------------------


def _within_subquotient_reach(square: Square) -> bool:
    """Necessary condition for a square or its subquotient to be distinguished.

    Fails when size 1 has multiplicity above two, when an odd size above one
    is present, when two sizes have multiplicity above two, when a
    multiplicity exceeds four, or when the one size of multiplicity above
    two is not a power of two.  A distinguished class has even sizes of
    multiplicity at most two, and the subquotient
    (``reps._subquotient_multiplicities``) removes at most two blocks, all
    of size 1 or all of one size 2^alpha, and otherwise only adds blocks;
    so the square of any input with a distinguished full square or
    subquotient passes.  Each failure is upward-closed: it stays a failure
    when multiplicities grow or sizes are added.
    """
    over = 0
    for d, m in square.items():
        if d == 1:
            if m > 2:
                return False
        elif d % 2:
            return False
        elif m > 2:
            if over or m > 4 or d & (d - 1):
                return False
            over = d
    return True


def _search(
    dim: int,
    grow: Callable[[Square, list[tuple[int, int]], int, int], None],
    symplectic: bool = False,
    least_top: int = 1,
) -> tuple[list[tuple[Partition, Square]], int]:
    """Depth-first search over the partitions of dim, pruned by a monotone rule.

    A node is a prefix P: the parts of size at least d, as (size,
    multiplicity) pairs, largest first.  Its children append m blocks of a
    smaller size, sizes from high to low and each multiplicity from high to
    low, so the leaves come in the reverse-lexicographic table order of
    :func:`enumeration.partitions`.  With ``symplectic`` an odd size only
    takes even multiplicities, which gives the order of
    :func:`enumeration.symplectic_partitions`.  The largest part is at least
    ``least_top``.

    ``grow(square, P, d, m)`` is a square-growth step of
    :mod:`sp2forms.jordan`, applied to a copy of the parent's square.  A
    child whose square fails :func:`_within_subquotient_reach` is dropped
    together with its whole subtree.

    Why this is sound.  Every completion Q = P + R of a prefix P has a
    square containing the square of P as a sub-multiset, because

        (P + R) x (P + R) = P x P + R x R + 2 (P x R),
        wedge^2 (P + R) = wedge^2 P + wedge^2 R + P x R.

    The rule only bounds multiplicities from above and forbids sizes, so it
    fails on every multiset containing one it fails on: it fails at every
    leaf below a node where it fails.  Likewise, once m blocks of size d
    fail, so do m + 1, and the larger multiplicities are never grown.

    Pruned subtrees are counted, not generated.  The leaves below the child
    P + m.d are its completions by parts smaller than d, of total
    ``rest - m*d``; there are ``count_classes(rest - m*d, d)`` of them, and
    with ``symplectic`` each class count is multiplied by 2 for every free
    tag (an even size of even multiplicity) already in the prefix, since
    tags of different sizes are chosen independently.

    Returns the surviving partitions (ascending multiplicity form, in table
    order), each with its square, and the number of classes pruned.
    """
    leaves: list[tuple[Partition, Square]] = []
    pruned = 0

    def visit(prefix: list[tuple[int, int]], square: Square, rest: int, free: int) -> None:
        nonlocal pruned
        if rest == 0:
            leaves.append((tuple(reversed(prefix)), square))
            return
        below = prefix[-1][0] if prefix else rest + 1
        least = 1 if prefix else least_top
        for d in range(min(below - 1, rest), least - 1, -1):
            kept: list[Square] = []  # kept[m - 1] is the square with m blocks of size d
            for m in range(1, rest // d + 1):
                child = dict(square)
                grow(child, prefix, d, m)
                if not _within_subquotient_reach(child):
                    break
                kept.append(child)
            for m in range(rest // d, 0, -1):
                if symplectic and d % 2 and m % 2:
                    continue
                tags = free + (symplectic and d % 2 == 0 and m % 2 == 0)
                if m > len(kept):
                    pruned += count_classes(rest - m * d, d, symplectic) << tags
                else:
                    visit(prefix + [(d, m)], kept[m - 1], rest - m * d, tags)

    visit([], {}, dim, 0)
    return leaves, pruned


# --- the sweeps --------------------------------------------------------------


def _dual_tensor_sweep(name: str, max_n: int, part: str, expected: list[JordanType]) -> SweepReport:
    """Sweep every Jordan type of dimension 2..max_n through dual_tensor_classes.

    ``part`` names the output class tested: ``tensor_space`` or
    ``irreducible``.  Both are covered by :func:`_within_subquotient_reach`
    on the tensor square.
    """
    report = SweepReport(name=name)
    start = time.perf_counter()
    seen = set()
    for n in range(2, max_n + 1):
        leaves, pruned = _search(n, grow_tensor_square)
        report.checked += pruned
        for p, _ in leaves:
            j = JordanType(p)
            report.checked += 1
            report.evaluated += 1
            got = is_distinguished(getattr(dual_tensor_classes(j), part))
            want = j in expected
            if got:
                seen.add(j)
                report.hits.append(str(j))
            if got != want:
                report.counterexamples.append(f"{j}: distinguished={got}, expected={want}{_repro('thmA', j)}")
    for j in expected:
        if j not in seen:
            report.counterexamples.append(f"{j}: expected distinguished, not seen{_repro('thmA', j)}")
    report.elapsed = time.perf_counter() - start
    return report


def verify_prop_A_tensor(max_n: int) -> SweepReport:
    """The dual tensor square is distinguished only for a single 2-block.

    Covers every Jordan type of dimension 2..max_n.
    """
    expected = [JordanType(((2, 1),))] if max_n >= 2 else []
    return _dual_tensor_sweep("dual-tensor-distinguished", max_n, "tensor_space", expected)


def verify_prop_A_irr(max_n: int) -> SweepReport:
    """The irreducible subquotient is distinguished only for single blocks of size 2, 3, 5."""
    expected = [JordanType(((n, 1),)) for n in (2, 3, 5) if n <= max_n]
    return _dual_tensor_sweep("dual-irreducible-distinguished", max_n, "irreducible", expected)


def _distinct_v_sums(max_dim: int, keep: Callable[[SymplecticType], bool]) -> list[SymplecticType]:
    """Orthogonal sums of distinct V(2h) of dimension at most max_dim, each grown only while ``keep`` holds.

    A depth-first search in preorder: a sum grows by one V(d) smaller than
    its summands, sizes falling, so the sums of one dimension come in table
    order.  A sum that fails ``keep`` is dropped with every sum grown from it.
    """
    out = []

    def extend(entries: tuple[tuple[int, int, int], ...], room: int, top: int) -> None:
        for d in range(min(room, top), 1, -2):
            grown = SymplecticType(((d, 1, 1),) + entries)
            if keep(grown):
                out.append(grown)
                extend(grown.entries, room - d, d - 2)

    extend((), max_dim - max_dim % 2, max_dim)
    return out


def verify_prop_tensor(max_dim: int) -> SweepReport:
    """Products of two classes are distinguished exactly in the V(2) x odd-sum family.

    Covers unordered pairs with both dimensions at least 2 and product
    dimension at most max_dim, the first factor of the smaller dimension.

    Lemma: both factors of a distinguished product are sums of distinct
    V(2h).  :func:`hesselink.tensor_bilinear` merges a piece (a, c1*c2*m, e)
    for each piece (a, m, e) of the product of a summand V(d)^c1 or W(d)^c1
    of one factor with a summand V(d')^c2 or W(d')^c2 of the other; m is even
    and at least 2, and only V x V pieces carry tag 1.  A distinguished class
    has multiplicity at most 2 at each size, so each of its sizes comes from
    one piece, with c1 = c2 = 1 and tag 1: no W summand, no count above 1.

    Monotonicity: if s1 x P is not distinguished, neither is s1 x (P + R),
    which merges the pieces of s1 x P and s1 x R: multiplicities grow by even
    amounts of at least 2 and tags OR.  A product is symplectic, so it fails
    by an odd size, which stays, a multiplicity above 2, which grows, or an
    untagged size of multiplicity at least 2, which stays untagged or grows.

    So the first factors are the sums of distinct V(2h) of dimension at most
    isqrt(max_dim), and the second grow by :func:`_distinct_v_sums` while the
    product is distinguished; ``evaluated`` counts the products computed.
    Hits are sorted by the two dimensions, each factor in table order.
    """
    report = SweepReport(name="bilinear-tensor-distinguished")
    start = time.perf_counter()
    root = isqrt(max(max_dim, 0))  # the largest dimension of a first factor
    n = [count_classes(d, d + 1, True) for d in range(max_dim // 2 + 1)]  # classes per dimension
    report.checked = sum(n[a] * n[b] for a in range(2, root + 1, 2) for b in range(a, max_dim // a + 1, 2))
    odd_sums = _distinct_v_sums(max_dim // 2, lambda s: s.entries[0][0] % 4 == 2)
    expected = [(vtype(2), s) for s in sorted(odd_sums, key=SymplecticType.dimension)]
    pairs = []
    for s1 in _distinct_v_sums(root, lambda s: True):
        dim1 = s1.dimension()
        def distinguished_product(s2: SymplecticType) -> bool:
            report.evaluated += 1
            return is_distinguished(tensor_bilinear(s1, s2))
        pairs += [(s1, s2) for s2 in _distinct_v_sums(max_dim // dim1, distinguished_product) if s2.dimension() >= dim1]
    pairs.sort(key=lambda pair: (pair[0].dimension(), pair[1].dimension()))
    wanted, seen = set(expected), set(pairs)
    lines = [(pair, "distinguished=True, expected=False") for pair in pairs if pair not in wanted]
    lines += [(pair, "expected distinguished, not seen") for pair in expected if pair not in seen]
    report.hits = [f"{s1} x {s2}" for s1, s2 in pairs]
    report.counterexamples = [f"{s1} x {s2}: {why}{_repro('tensor-bilinear', s1, s2)}" for (s1, s2), why in lines]
    report.elapsed = time.perf_counter() - start
    return report


def _max_part_bound(dim: int) -> int:
    """Smallest largest-block size compatible with a distinguished wedge output.

    Every block of the wedge square is smaller than twice the largest input
    block d.  A distinguished output (after the subquotient, which moves at
    most two blocks) has at most two size-1 blocks, multiplicity at most two
    on even sizes, and at most four at a single size, so its dimension is at
    most 2 + M(M+2)/2 + 2M with M = 2d - 1.  Hence a class of dimension D can
    only produce a distinguished wedge or subquotient if
    4d^2 + 8d - 1 >= D(D-1).  Returns the smallest such d, minus a safety
    margin of two.
    """
    target = dim * (dim - 1)
    d = 1
    while 4 * d * d + 8 * d - 1 < target:
        d += 1
    return max(1, d - 2)


def verify_prop_C(max_n: int, exhaustive: bool = False) -> SweepReport:
    """Wedge squares are distinguished only for V(4); subquotients for the {2,3,5}/{2,6} lists.

    Covers every symplectic class of dimension 4..2*max_n with
    :func:`_search` on the wedge square.  Unless ``exhaustive``, classes
    whose largest block falls below the dimension threshold of
    :func:`_max_part_bound` are not generated, only counted in ``skipped``;
    the answers are identical.  The expected classes must show up as hits,
    so a bug in either reduction would surface as a counterexample.
    """
    report = SweepReport(name="wedge-distinguished")
    start = time.perf_counter()
    for n in range(2, max_n + 1):
        expected_wedge = [vtype(4)] if n == 2 else []
        expected_irr = []
        if n in (2, 3, 5):
            expected_irr.append(vtype(2 * n))
        if n in (2, 6):
            expected_irr.append(orthogonal_sum(vtype(2), vtype(2 * n - 2)))
        seen = set()
        least = 1 if exhaustive else _max_part_bound(2 * n)
        report.skipped += count_classes(2 * n, least, True)
        leaves, pruned = _search(2 * n, grow_wedge_square, True, least)
        report.checked += pruned
        for p, _ in leaves:
            for s in epsilon_variants(p):
                report.checked += 1
                report.evaluated += 1
                out = wedge_square_classes(s)
                for kind, image, expected in (
                    ("wedge", out.wedge_space, expected_wedge),
                    ("irr", out.irreducible, expected_irr),
                ):
                    got = is_distinguished(image)
                    if got:
                        seen.add((kind, s))
                        report.hits.append(f"{kind} {s}")
                    if got != (s in expected):
                        report.counterexamples.append(f"{kind} {s}: distinguished={got}{_repro('thmC', s)}")
        for kind, expected in (("wedge", expected_wedge), ("irr", expected_irr)):
            for s in expected:
                if (kind, s) not in seen:
                    report.counterexamples.append(f"{kind} {s}: expected distinguished, not seen{_repro('thmC', s)}")
    report.elapsed = time.perf_counter() - start
    return report
