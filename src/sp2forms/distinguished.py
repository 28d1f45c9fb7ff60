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
The single-class searches try no part above 6 (tensor square) or 12 (wedge
square), the largest a surviving partition can have at any bound, as the
lemmas in :func:`_search` show.  Both dual-tensor reports come from one such
pass, :func:`verify_prop_A`.
What a sweep covers, every class or pair in range, is counted in closed
form: by :func:`enumeration.partition_numbers` and
:func:`enumeration.symplectic_class_total` for the single-class sweeps, from
Euler's pentagonal theorem, and by :func:`enumeration.class_counts` for the
pair sweep.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from math import isqrt

from .enumeration import Partition, class_counts, epsilon_variants, partition_numbers, symplectic_class_total
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

    def __init__(self, name: str, checked: int = 0):
        self.name = name
        self.checked = checked
        self.evaluated = 0
        self.hits: list[str] = []
        self.counterexamples: list[str] = []
        self.elapsed = 0.0

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


def raised(exc: Exception, command: str, *args) -> str:
    """What a rule raised on one input, then the command that reproduces it."""
    return f"raised {type(exc).__name__}: {exc}{repro(command, *args)}"


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


# The largest part of a partition whose tensor square (wedge square) passes
# _within_subquotient_reach: Lemmas T and W in _search.
TENSOR_SQUARE_PARTS = 6
WEDGE_SQUARE_PARTS = 12


def _search(
    max_dim: int,
    grow: Callable[[Square, list[tuple[int, int]], int, int], None],
    symplectic: bool = False,
    largest: int | None = None,
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

    With ``largest`` the root tries no size above it.  That drops no leaf
    when every partition with a larger part fails: :data:`TENSOR_SQUARE_PARTS`
    for the tensor square and :data:`WEDGE_SQUARE_PARTS` for the wedge
    square, by the two lemmas below.  The square of a partition with a part
    d contains d x d (or wedge^2 d), and the rule's failures are
    upward-closed, so it suffices that the single-block square fails.

    Lemma T: d x d fails for every d >= 7.  Let 2^k <= d < q = 2^(k+1), as
    in :func:`jordan._tensor_blocks`.  When d = 2^k >= 8, d x d is d blocks
    of size d.  Otherwise it is (q - d) x (q - d) plus 2d - q blocks of size
    q, more than 4 once d >= 2^k + 3; for d = 2^k + 1 or 2^k + 2 the part
    (q - d) x (q - d) fails by induction once k >= 4 (q - d >= 14).  The
    base cases are d = 7..16.

    Lemma W: wedge^2 d fails for every d >= 13.  Let q/2 < d <= q, q a power
    of two, as in :func:`jordan._wedge_block`: wedge^2 d is wedge^2 (q - d)
    plus d - q/2 - 1 blocks of size q and one block of size 3q/2 - d.  For
    odd d that last size is odd and at least 3.  The multiplicity of q is
    above 4 once d >= q/2 + 6.  Otherwise d is even and the part
    wedge^2 (q - d) fails by induction once q >= 64 (q - d >= 27).  The base
    cases are d <= 32; of them only d = 20 needs the direct check, since it
    contains wedge^2 12, which passes.  ``tests/test_distinguished.py``
    checks both lemmas for every d up to 4096.

    Multiplicity bounds: two blocks of one size d fail the tensor rule, and
    three the wedge rule, as their squares hold 4 or 3 copies of d x d.  For
    odd d, its odd block is d ^ d ^ 1 = 1 (:func:`jordan.unique_odd_block`),
    so size 1 goes over 2.  For even d, every size goes over 2, and d x d
    has d blocks (:func:`jordan.tensor_blocks`): two sizes go over 2, or one
    over 4.  So a survivor has distinct parts <= 6 (dimension <= 21), or
    parts <= 12 of multiplicity <= 2 (dimension <= 156).

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
    first = (top if largest is None else largest) + 1
    leaves: list[list[tuple[Partition, Square]]] = [[] for _ in range(top + 1)]

    def visit(prefix: list[tuple[int, int]], square: Square, rest: int) -> None:
        leaves[top - rest].append((tuple(reversed(prefix)), square))
        below = prefix[-1][0] if prefix else first
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


def verify_prop_A(max_n: int) -> tuple[SweepReport, SweepReport]:
    """The dual tensor square is distinguished only for a single 2-block; its simple subquotient only for 2, 3, 5.

    Covers every Jordan type of dimension 2..max_n, in one report for the
    tensor square and one for its subquotient.  Both are covered by
    :func:`_within_subquotient_reach` on the tensor square, so one
    :func:`_search` to max_n gives the survivors of every dimension, each
    dimension in table order, and one :func:`reps.dual_tensor_classes` call
    per survivor serves both reports (a raise is a line in each).  Both
    count p(2) + ... + p(max_n) types checked, from the pentagonal
    recurrence of :func:`enumeration.partition_numbers`.
    """
    start = time.perf_counter()
    checked = sum(partition_numbers(max_n)[2:])
    sweeps = [  # (report, expected hits)
        (SweepReport("dual-tensor-distinguished", checked), [JordanType(((2, 1),))] if max_n >= 2 else []),
        (SweepReport("dual-irreducible-distinguished", checked),
         [JordanType(((n, 1),)) for n in (2, 3, 5) if n <= max_n]),
    ]
    for leaves in _search(max_n, grow_tensor_square, False, TENSOR_SQUARE_PARTS)[2:]:
        for p, _ in leaves:
            j = JordanType(p)
            try:
                out = dual_tensor_classes(j)
                got = (is_distinguished(out.tensor_space), is_distinguished(out.irreducible))
            except Exception as exc:
                for report, _ in sweeps:
                    report.evaluated += 1
                    report.counterexamples.append(f"{j}: {raised(exc, 'thmA', j)}")
                continue
            for (report, expected), hit in zip(sweeps, got):
                report.evaluated += 1
                if hit:
                    report.hits.append(str(j))
                want = j in expected
                if hit != want:
                    report.counterexamples.append(f"{j}: distinguished={hit}, expected={want}{repro('thmA', j)}")
    for report, expected in sweeps:
        report.counterexamples += [
            f"{j}: expected distinguished, not seen{repro('thmA', j)}" for j in expected if str(j) not in report.hits
        ]
        report.elapsed = time.perf_counter() - start
    return sweeps[0][0], sweeps[1][0]


def verify_prop_A_tensor(max_n: int) -> SweepReport:
    """The first report of :func:`verify_prop_A`: the dual tensor square."""
    return verify_prop_A(max_n)[0]


def verify_prop_A_irr(max_n: int) -> SweepReport:
    """The second report of :func:`verify_prop_A`: the simple subquotient."""
    return verify_prop_A(max_n)[1]


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
    n = class_counts(max_dim // 2, True)  # classes per dimension
    report.checked = sum(n[a] * n[b] for a in range(2, root + 1, 2) for b in range(a, max_dim // a + 1, 2))
    odd_sums = _distinct_v_sums(max_dim // 2, lambda s: s.entries[0][0] % 4 == 2)
    expected = [(vtype(2), s) for s in sorted(odd_sums, key=SymplecticType.dimension)]
    pairs, failures = [], []
    for s1 in _distinct_v_sums(root, lambda s: True):
        dim1 = s1.dimension()
        def distinguished_product(s2: SymplecticType) -> bool:
            report.evaluated += 1
            try:
                return is_distinguished(tensor_bilinear(s1, s2))
            except Exception as exc:  # reported, and nothing is grown from s2
                failures.append(f"{s1} x {s2}: {raised(exc, 'tensor-bilinear', s1, s2)}")
                return False
        pairs += [(s1, s2) for s2 in _distinct_v_sums(max_dim // dim1, distinguished_product) if s2.dimension() >= dim1]
    pairs.sort(key=lambda pair: (pair[0].dimension(), pair[1].dimension()))
    wanted, seen = set(expected), set(pairs)
    lines = [(pair, "distinguished=True, expected=False") for pair in pairs if pair not in wanted]
    lines += [(pair, "expected distinguished, not seen") for pair in expected if pair not in seen]
    report.hits = [f"{s1} x {s2}" for s1, s2 in pairs]
    report.counterexamples = [f"{s1} x {s2}: {why}{repro('tensor-bilinear', s1, s2)}" for (s1, s2), why in lines]
    report.counterexamples += failures
    report.elapsed = time.perf_counter() - start
    return report


def verify_prop_C(max_n: int) -> SweepReport:
    """Wedge squares are distinguished only for V(4); subquotients for the {2,3,5}/{2,6} lists.

    Covers every symplectic class of dimension 4..2*max_n with one
    :func:`_search` to 2*max_n on the wedge square, read one dimension at a
    time; every tag choice over a surviving partition is evaluated.  The
    expected classes must show up as hits, so a bug in the search would
    surface as a counterexample.  ``checked``, the classes of dimension
    4..2*max_n, is the sum of the coefficients c(2)..c(max_n) of
    P(y)^2 / P(y^3), P the partition series, by Euler's pentagonal theorem
    (:func:`enumeration.symplectic_class_total` derives it).
    """
    report = SweepReport(name="wedge-distinguished")
    start = time.perf_counter()
    report.checked = symplectic_class_total(2 * max_n) - symplectic_class_total(min(2 * max_n, 2))
    leaves = _search(2 * max_n, grow_wedge_square, True, WEDGE_SQUARE_PARTS)
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
                try:
                    out = wedge_square_classes(s)
                except Exception as exc:
                    report.counterexamples.append(f"{s}: {raised(exc, 'thmC', s)}")
                    continue
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
