"""Distinguished unipotent classes and verification sweeps over every class up to a bound.

A unipotent symplectic class is *distinguished* (centralizer containing no
non-trivial torus) exactly when its tagged type has every size even, every
multiplicity at most two, and every tag set.  The sweeps below cover all
classes up to a bound and confirm that the images under the dual-tensor,
bilinear-tensor and wedge-square constructions are distinguished precisely
for the expected short lists of inputs.  They do so with pruned searches
(:func:`_search`, one search over the partitions of every dimension up to
the bound, and :func:`_distinct_v_sums` for the pair sweep): a class is
only handed to the rules engine while its image can still be distinguished.
What a sweep covers, every class or pair in range, is counted in closed
form by :func:`enumeration.class_counts`.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from math import isqrt

from .enumeration import Partition, class_counts, epsilon_variants
from .hesselink import (
    EpsilonTaggedType,
    SymplecticType,
    orthogonal_sum,
    tensor_bilinear,
    vtype,
)
from .jordan import JordanType, Record, grow_tensor_square, grow_wedge_square
from .reps import dual_tensor_classes, wedge_square_classes

Square = dict[int, int]  # Jordan multiplicities of a tensor or wedge square


def is_distinguished(t: EpsilonTaggedType) -> bool:
    """True iff the class consists of tagged even sizes of multiplicity at most two.

    Degenerate tagged types (failing the symplectic parity laws) are never
    distinguished, with no separate check of those laws: every size must be
    tagged, so no size has eps 0 and odd multiplicity, and
    ``EpsilonTaggedType`` already rejects a tag on an odd size.
    """
    return all(d % 2 == 0 and m <= 2 and e == 1 for d, m, e in t.entries)


class SweepReport(Record):
    """Result of one verification sweep.

    ``checked`` is the number of classes (or pairs) in the sweep's range,
    counted in closed form; ``evaluated`` is the number the rules engine
    computed, the ones the sweep's search could not rule out.
    """

    def __init__(self, name: str, checked: int = 0, evaluated: int = 0, hits: list[str] | None = None,
                 counterexamples: list[str] | None = None, elapsed: float = 0.0):
        self.name = name
        self.checked = checked
        self.evaluated = evaluated
        self.hits = [] if hits is None else hits
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.elapsed = elapsed

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "evaluated": self.evaluated,
            "distinguished_inputs": self.hits,
            "counterexamples": self.counterexamples,
            "elapsed_seconds": self.elapsed,
            "ok": self.ok,
        }

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{status} {self.name}: {self.checked} checked, {self.evaluated} evaluated, "
            f"{len(self.hits)} distinguished, {len(self.counterexamples)} counterexamples, "
            f"{self.elapsed:.2f}s"
        )


def repro(command: str, *args) -> str:
    """Suffix for a counterexample or mismatch line: the command that reproduces it."""
    return "; run: sp2forms " + " ".join([command, *map(str, args)])


# --- the pruned search -------------------------------------------------------


def _within_subquotient_reach(square: Square) -> bool:
    """Necessary condition for a square or its subquotient to be distinguished.

    Fails when size 1 has multiplicity above two, when an odd size above one
    is present, when two sizes have multiplicity above two, when a
    multiplicity exceeds four, or when the one size of multiplicity above
    two is not a power of two.  A distinguished class has even sizes of
    multiplicity at most two, and the subquotient (``reps._subquotient``)
    removes at most two blocks, all of size 1 or all of one size 2^alpha,
    and otherwise only adds blocks; so the square of any input with a
    distinguished full square or subquotient passes.  Each failure is
    upward-closed: it stays a failure when multiplicities grow or sizes are
    added.
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
    max_dim: int,
    grow: Callable[[Square, list[tuple[int, int]], int, int], None],
    symplectic: bool = False,
) -> list[list[tuple[Partition, Square]]]:
    """Depth-first search over the partitions of every dimension 0..max_dim, pruned by a monotone rule.

    A node is a prefix P: the parts of size at least d, as (size,
    multiplicity) pairs, largest first.  A node of sum s is itself a
    partition of s, recorded as a leaf of dimension s before its children.
    Its children append m blocks of a smaller size, with sum at most
    max_dim, sizes from high to low and each multiplicity from high to low.
    With ``symplectic`` an odd size only takes even multiplicities.

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

    Why the leaves of dimension n are those of a search over n alone.  A
    partition of n has one path from the root, adding its (size,
    multiplicity) pairs largest size first, and each node on it has sum at
    most n.  It survives exactly when its own square passes: the square of
    each node on the path, and of each smaller multiplicity tried before
    it, lies inside its square by the identities above, and a square that
    passes has only sub-multisets that pass.  So a partition of n is a leaf
    exactly when its square passes, whatever max_dim is.

    Why each dimension comes in table order.  Two partitions of one n are
    never prefixes of each other, so the leaves of dimension n are met in
    the order of their first differing (size, multiplicity) choice: the
    larger size first and, at one size, the larger multiplicity first.
    That is the reverse-lexicographic order of
    :func:`enumeration.partitions`, or with ``symplectic`` of
    :func:`enumeration.symplectic_partitions`.

    Returns, indexed by dimension 0..max_dim (only 0 when max_dim < 1),
    the surviving partitions (ascending multiplicity form, in table order),
    each with its square.
    """
    top = max(max_dim, 0)
    leaves: list[list[tuple[Partition, Square]]] = [[] for _ in range(top + 1)]

    def visit(prefix: list[tuple[int, int]], square: Square, rest: int) -> None:
        leaves[top - rest].append((tuple(reversed(prefix)), square))
        below = prefix[-1][0] if prefix else rest + 1
        for d in range(min(below - 1, rest), 0, -1):
            kept: list[Square] = []  # kept[m - 1] is the square with m blocks of size d
            for m in range(1, rest // d + 1):
                child = dict(square)
                grow(child, prefix, d, m)
                if not _within_subquotient_reach(child):
                    break
                kept.append(child)
            for m in range(len(kept), 0, -1):
                if not (symplectic and d % 2 and m % 2):
                    visit(prefix + [(d, m)], kept[m - 1], rest - m * d)

    visit([], {}, top)
    return leaves


# --- the sweeps --------------------------------------------------------------


def _dual_tensor_sweep(name: str, max_n: int, part: str, expected: list[JordanType]) -> SweepReport:
    """Sweep every Jordan type of dimension 2..max_n through dual_tensor_classes.

    ``part`` names the output class tested: ``tensor_space`` or
    ``irreducible``.  Both are covered by :func:`_within_subquotient_reach`
    on the tensor square.  One :func:`_search` to max_n gives the
    survivors of every dimension, each dimension in table order.
    """
    report = SweepReport(name=name)
    start = time.perf_counter()
    report.checked = sum(class_counts(max_n)[2:])
    seen = set()
    for leaves in _search(max_n, grow_tensor_square)[2:]:
        for p, _ in leaves:
            j = JordanType(p)
            report.evaluated += 1
            got = is_distinguished(getattr(dual_tensor_classes(j), part))
            want = j in expected
            if got:
                seen.add(j)
                report.hits.append(str(j))
            if got != want:
                report.counterexamples.append(f"{j}: distinguished={got}, expected={want}{repro('thmA', j)}")
    for j in expected:
        if j not in seen:
            report.counterexamples.append(f"{j}: expected distinguished, not seen{repro('thmA', j)}")
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
    V(2h).  :func:`hesselink.grow_bilinear` adds a piece (a, c1*c2*m, e)
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
    n = class_counts(max_dim // 2, True)  # classes per dimension
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
    report.counterexamples = [f"{s1} x {s2}: {why}{repro('tensor-bilinear', s1, s2)}" for (s1, s2), why in lines]
    report.elapsed = time.perf_counter() - start
    return report


def verify_prop_C(max_n: int) -> SweepReport:
    """Wedge squares are distinguished only for V(4); subquotients for the {2,3,5}/{2,6} lists.

    Covers every symplectic class of dimension 4..2*max_n with one
    :func:`_search` to 2*max_n on the wedge square, read one dimension at a
    time; every tag choice over a surviving partition is evaluated.  The
    expected classes must show up as hits, so a bug in the search would
    surface as a counterexample.
    """
    report = SweepReport(name="wedge-distinguished")
    start = time.perf_counter()
    report.checked = sum(class_counts(2 * max_n, True)[4::2])
    leaves = _search(2 * max_n, grow_wedge_square, True)
    for n in range(2, max_n + 1):
        expected_wedge = [vtype(4)] if n == 2 else []
        expected_irr = []
        if n in (2, 3, 5):
            expected_irr.append(vtype(2 * n))
        if n in (2, 6):
            expected_irr.append(orthogonal_sum(vtype(2), vtype(2 * n - 2)))
        seen = set()
        for p, _ in leaves[2 * n]:
            for s in epsilon_variants(p):
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
                        report.counterexamples.append(f"{kind} {s}: distinguished={got}{repro('thmC', s)}")
        for kind, expected in (("wedge", expected_wedge), ("irr", expected_irr)):
            for s in expected:
                if (kind, s) not in seen:
                    report.counterexamples.append(f"{kind} {s}: expected distinguished, not seen{repro('thmC', s)}")
    report.elapsed = time.perf_counter() - start
    return report
