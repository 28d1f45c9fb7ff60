"""Distinguished unipotent classes and exhaustive verification sweeps.

A unipotent symplectic class is *distinguished* (centralizer containing no
non-trivial torus) exactly when its tagged type has every size even, every
multiplicity at most two, and every tag set.  The sweeps below enumerate all
classes up to a bound and confirm that the images under the dual-tensor,
bilinear-tensor and wedge-square constructions are distinguished precisely
for the expected short lists of inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import takewhile

from .enumeration import (
    epsilon_variants,
    free_sizes,
    jordan_types,
    symplectic_partitions,
    symplectic_types,
)
from .hesselink import (
    EpsilonTaggedType,
    SymplecticConstraintError,
    SymplecticType,
    orthogonal_sum,
    tensor_bilinear,
    validate_symplectic,
    vtype,
)
from .jordan import JordanType, wedge_square
from .reps import dual_tensor_classes, wedge_square_classes


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
    """Result of one verification sweep."""

    name: str
    checked: int = 0
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
            "distinguished_inputs": self.hits,
            "counterexamples": self.counterexamples,
            "elapsed_seconds": self.elapsed,
            "ok": self.ok,
        }

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{status} {self.name}: {self.checked} checked, "
            f"{len(self.hits)} distinguished, {len(self.counterexamples)} counterexamples, "
            f"{self.elapsed:.2f}s"
        )


def verify_prop_A_tensor(max_n: int) -> SweepReport:
    """The dual tensor square is distinguished only for a single 2-block.

    Sweeps every Jordan type of dimension 2..max_n.
    """
    report = SweepReport(name="dual-tensor-distinguished")
    start = time.perf_counter()
    single2 = JordanType(((2, 1),))
    for n in range(2, max_n + 1):
        for j in jordan_types(n):
            report.checked += 1
            got = is_distinguished(dual_tensor_classes(j).tensor_space)
            expected = j == single2
            if got:
                report.hits.append(str(j))
            if got != expected:
                report.counterexamples.append(f"{j}: distinguished={got}, expected={expected}")
    report.elapsed = time.perf_counter() - start
    return report


def verify_prop_A_irr(max_n: int) -> SweepReport:
    """The irreducible subquotient is distinguished only for single blocks of size 2, 3, 5."""
    report = SweepReport(name="dual-irreducible-distinguished")
    start = time.perf_counter()
    for n in range(2, max_n + 1):
        for j in jordan_types(n):
            report.checked += 1
            got = is_distinguished(dual_tensor_classes(j).irreducible)
            expected = j == JordanType(((n, 1),)) and n in (2, 3, 5)
            if got:
                report.hits.append(str(j))
            if got != expected:
                report.counterexamples.append(f"{j}: distinguished={got}, expected={expected}")
    report.elapsed = time.perf_counter() - start
    return report


def _is_odd_single_tagged_sum(s: SymplecticType) -> bool:
    """True for orthogonal sums of distinct tagged blocks V(2k) with k odd."""
    return all(e == 1 and m == 1 and (d // 2) % 2 == 1 for d, m, e in s.entries)


def verify_prop_tensor(max_dim: int) -> SweepReport:
    """Products of two classes are distinguished exactly in the V(2) x odd-sum family.

    Sweeps unordered pairs with both dimensions at least 2 and product
    dimension at most max_dim.
    """
    report = SweepReport(name="bilinear-tensor-distinguished")
    start = time.perf_counter()
    v2 = vtype(2)
    by_dim: dict[int, list[SymplecticType]] = {}
    for dim in range(2, max_dim // 2 + 1, 2):
        by_dim[dim] = list(symplectic_types(dim))
    for dim1 in sorted(by_dim):
        for dim2 in sorted(by_dim):
            if dim2 < dim1 or dim1 * dim2 > max_dim:
                continue
            for s1 in by_dim[dim1]:
                for s2 in by_dim[dim2]:
                    report.checked += 1
                    got = is_distinguished(tensor_bilinear(s1, s2))
                    expected = (s1 == v2 and _is_odd_single_tagged_sum(s2)) or (
                        s2 == v2 and _is_odd_single_tagged_sum(s1)
                    )
                    if got:
                        report.hits.append(f"{s1} x {s2}")
                    if got != expected:
                        report.counterexamples.append(f"{s1} x {s2}: distinguished={got}, expected={expected}")
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


def _wedge_precheck(j: JordanType) -> bool:
    """Cheap necessary condition for any tag variant to survive the sweep.

    The subquotient rules change multiplicities by at most two at a single
    power-of-two size and remove at most two size-1 blocks; odd sizes above 1
    are never removed.  A wedge Jordan type violating these bounds cannot
    yield a distinguished class for any tags, so its variants are skipped.
    """
    lam = wedge_square(j)
    over = []
    for d, m in lam.blocks:
        if d == 1:
            if m > 2:
                return False
            continue
        if d % 2:
            return False
        if m > 2:
            over.append((d, m))
    if not over:
        return True
    if len(over) > 1:
        return False
    d, m = over[0]
    return m <= 4 and d & (d - 1) == 0


def verify_prop_C(max_n: int, exhaustive: bool = False) -> SweepReport:
    """Wedge squares are distinguished only for V(4); subquotients for the {2,3,5}/{2,6} lists.

    Sweeps every symplectic class of dimension 4..2*max_n.  Two sound
    reductions keep large sweeps fast: classes whose largest block falls
    below the dimension threshold of :func:`_max_part_bound` cannot produce
    small multiplicities and are skipped without being generated, and a
    Jordan-level precheck skips the tag variants of a partition whose wedge
    multiplicities are already too large.  ``exhaustive=True`` disables the
    first reduction (every class is generated and counted); the answers are
    identical.  The expected classes must show up as hits, so a bug in either
    reduction would surface as a counterexample.
    """
    report = SweepReport(name="wedge-distinguished")
    start = time.perf_counter()
    for n in range(2, max_n + 1):
        expected_wedge = {vtype(4)} if n == 2 else set()
        expected_irr = set()
        if n in (2, 3, 5):
            expected_irr.add(vtype(2 * n))
        if n in (2, 6):
            expected_irr.add(orthogonal_sum(vtype(2), vtype(2 * n - 2)))
        seen_wedge = set()
        seen_irr = set()
        source = symplectic_partitions(2 * n)
        if not exhaustive:
            # reverse-lex order yields every partition with a large enough
            # largest part before the first one below the bound
            bound = _max_part_bound(2 * n)
            source = takewhile(lambda p: p[-1][0] >= bound, source)
        for p in source:
            if not _wedge_precheck(JordanType(p)):
                report.checked += 1 << len(free_sizes(p))
                continue
            for s in epsilon_variants(p):
                report.checked += 1
                out = wedge_square_classes(s)
                got_wedge = is_distinguished(out.wedge_space)
                got_irr = is_distinguished(out.irreducible)
                if got_wedge:
                    seen_wedge.add(s)
                    report.hits.append(f"wedge {s}")
                if got_irr:
                    seen_irr.add(s)
                    report.hits.append(f"irr {s}")
                if got_wedge != (s in expected_wedge):
                    report.counterexamples.append(f"wedge {s}: distinguished={got_wedge}")
                if got_irr != (s in expected_irr):
                    report.counterexamples.append(f"irr {s}: distinguished={got_irr}")
        for missing in expected_wedge - seen_wedge:
            report.counterexamples.append(f"wedge {missing}: expected distinguished, not seen")
        for missing in expected_irr - seen_irr:
            report.counterexamples.append(f"irr {missing}: expected distinguished, not seen")
    report.elapsed = time.perf_counter() - start
    return report
