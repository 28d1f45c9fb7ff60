"""Conjugacy classes of unipotent symplectic maps in characteristic two.

In characteristic two the Jordan type alone does not pin down the class of a
unipotent element preserving an alternating form; each block size d carries
an extra bit eps(d), set exactly when b(X^(d-1) v, v) is nonzero for some v
killed by X^d (X = u - 1).  A class is an orthogonal sum of two kinds of
indecomposable pieces: W(d), a hyperbolic pair of two size-d blocks with
eps = 0, and V(d) for even d, a single size-d block with eps = 1.  This
module implements the arithmetic of these tagged types: orthogonal sums with
normalization, tensor products, and restriction/induction along cyclic
subgroups.
"""

from __future__ import annotations

from collections.abc import Iterable

from .jordan import (
    JordanType,
    TermTexts,
    Value,
    _scan_terms,
    _tensor_blocks,
    gcd_valuation,
    grow_product,
    restrict_power,
)


_ENTRY_TEXTS = TermTexts(lambda d, m, e: f"{d:d}_{e:d}^{m:d}" if m > 1 else f"{d:d}_{e:d}")


class SymplecticConstraintError(ValueError):
    """An epsilon-tagged type violates the non-degenerate parity laws."""

    def __init__(self, size: int, message: str):
        self.size = size
        super().__init__(message)


class EpsilonTaggedType(Value):
    """A Jordan type with an epsilon tag per block size.

    Entries are (size, multiplicity, eps) with strictly increasing sizes.
    eps = 1 is only allowed on even sizes.  Degenerate forms are permitted;
    the non-degenerate parity laws live in :class:`SymplecticType`.

    Equality is by entries only, so a plain tagged type compares equal to its
    validated symplectic counterpart.
    """

    def __init__(self, entries: tuple[tuple[int, int, int], ...] = ()):
        object.__setattr__(self, "entries", entries)
        prev = 0
        for d, m, e in entries:
            if d <= prev:
                raise ValueError(f"sizes must be positive and strictly increasing, got {d} after {prev}")
            if m < 1:
                raise ValueError(f"multiplicity of size {d} must be positive, got {m}")
            if e not in (0, 1):
                raise ValueError(f"eps tag of size {d} must be 0 or 1, got {e}")
            if e == 1 and d % 2:
                raise ValueError(f"eps = 1 is impossible on odd size {d}")
            prev = d

    def __eq__(self, other) -> bool:
        if not isinstance(other, EpsilonTaggedType):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def jordan(self) -> JordanType:
        """Forget the tags."""
        return JordanType(tuple((d, m) for d, m, _ in self.entries))

    def dimension(self) -> int:
        return sum(d * m for d, m, _ in self.entries)

    def is_empty(self) -> bool:
        return not self.entries

    def __str__(self) -> str:
        """The ``d_e^m`` comma-separated grammar, ``^1`` omitted; ``0`` for the empty type.

        Each (size, multiplicity, eps) entry's text is looked up in a :class:`jordan.TermTexts`.
        """
        if not self.entries:
            return "0"
        return ",".join(map(_ENTRY_TEXTS.__getitem__, self.entries))

    def pretty(self) -> str:
        """Parenthesized rendering matching the published tables, e.g. ``(1_0^2, 2_1)``."""
        return "(" + str(self).replace(",", ", ") + ")"

    def to_json(self) -> dict:
        return {"entries": [[d, m, e] for d, m, e in self.entries]}

    @classmethod
    def from_json(cls, data: dict) -> EpsilonTaggedType:
        return cls(tuple((int(d), int(m), int(e)) for d, m, e in data["entries"]))

    @classmethod
    def parse(cls, text: str) -> EpsilonTaggedType:
        """Parse the ``d_e^m`` comma-separated grammar, e.g. ``2_0^2,8_1``.

        ``SymplecticType.parse`` also checks the parity laws.
        """
        return cls(_scan_terms(text, tagged=True))


class SymplecticType(EpsilonTaggedType):
    """An epsilon-tagged type satisfying the non-degenerate parity laws.

    eps(d) = 0 forces even multiplicity (an odd count of blocks of one size
    cannot be paired off hyperbolically), and eps(d) = 1 forces d even.  Such
    a type is exactly the class datum of a unipotent element of a symplectic
    group: size d with eps 0 stands for W(d)^(m/2), with eps 1 for V(d)^m.
    """

    def __init__(self, entries: tuple[tuple[int, int, int], ...] = ()):
        EpsilonTaggedType.__init__(self, entries)
        for d, m, e in entries:
            if e == 0 and m % 2:
                raise SymplecticConstraintError(
                    d, f"size {d} has odd multiplicity {m} with eps = 0; odd multiplicity forces eps = 1"
                )


def validate_symplectic(t: EpsilonTaggedType) -> SymplecticType:
    """Check the parity laws and return the same data as a SymplecticType."""
    if isinstance(t, SymplecticType):
        return t
    return SymplecticType(t.entries)


def vtype(d: int, count: int = 1) -> SymplecticType:
    """The class of count orthogonal copies of V(d): one size-d block each, eps = 1."""
    if d <= 0 or d % 2:
        raise ValueError(f"V(d) requires an even positive size, got {d}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return SymplecticType(((d, count, 1),))


def wtype(d: int, count: int = 1) -> SymplecticType:
    """The class of count orthogonal copies of W(d): a hyperbolic pair of size-d blocks, eps = 0."""
    if d <= 0:
        raise ValueError(f"W(d) requires a positive size, got {d}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return SymplecticType(((d, 2 * count, 0),))


def _merge(pieces: Iterable[tuple[int, int, int]]) -> tuple[tuple[int, int, int], ...]:
    """Sorted entries of a sum of (size, multiplicity, eps) pieces: multiplicities add, tags OR."""
    acc: dict[int, list[int]] = {}
    for d, m, e in pieces:
        slot = acc.setdefault(d, [0, 0])
        slot[0] += m
        slot[1] |= e
    return tuple((d, m, e) for d, (m, e) in sorted(acc.items()))


def merge_tagged(*types: EpsilonTaggedType) -> EpsilonTaggedType:
    """Orthogonal sum at the tagged level: multiplicities add, tags combine by max.

    The tag rule is the normalization V(2d)^a | W(2d)^b = V(2d)^(a+2b) for
    a > 0: one tagged block of a size makes the whole size tagged.
    """
    return EpsilonTaggedType(_merge(entry for t in types for entry in t.entries))


def orthogonal_sum(*types: SymplecticType) -> SymplecticType:
    """Orthogonal sum of symplectic classes, eagerly normalized."""
    return validate_symplectic(merge_tagged(*types))


def _tag(square: dict[int, int], tagged: set[int]) -> tuple[tuple[int, int, int], ...]:
    """Sorted (size, multiplicity, eps) entries of a multiplicity dict, eps = 1 on the tagged sizes."""
    return tuple([(d, m, 1 if d in tagged else 0) for d, m in sorted(square.items())])


def v_product_tag(d1: int, d2: int) -> int:
    """The tagged size of V(d1) x V(d2): d1 ^ d2 ^ low when d1 and d2 share their lowest set bit low, else 0.

    Then d1 x d2 is (d1 / low) x (d2 / low), of odd sizes, scaled in size and
    multiplicity by low, and the tag is its odd block (:func:`jordan.unique_odd_block`).
    """
    low = d1 & -d1
    return d1 ^ d2 ^ low if d2 & -d2 == low else 0


def tensor_bilinear(s1: SymplecticType, s2: SymplecticType) -> SymplecticType:
    """Class of the tensor product of two symplectic classes.

    Its Jordan type is the product of the two, grown one entry of s2 at a
    time by :func:`jordan.grow_product`; only the tags are computed here.  Any
    hyperbolic factor makes a pair's product hyperbolic: W(a) x V(b) and
    W(a) x W(b) are 2 and 4 copies of the blocks of a x b, untagged.  Two
    tagged single blocks V(d1) x V(d), d1 = 2h1 and d = 2h, give the blocks
    of h1 x h doubled in size and multiplicity, exactly the blocks of d1 x d:
    each branch of the ``_tensor_blocks`` recursion (power of two, m + n > q,
    reflection) commutes with doubling both sizes.  All are untagged except
    d1 ^ d ^ low, of multiplicity low, when d1 and d share their lowest set
    bit low (:func:`v_product_tag`); a size is tagged when any pair tags it.
    """
    factor = [(d, m) for d, m, _ in s1.entries]
    tagged_sizes = [d1 for d1, _, e1 in s1.entries if e1]
    square: dict[int, int] = {}
    tagged: set[int] = set()
    for d, m, e in s2.entries:
        grow_product(square, factor, d, m)
        for d1 in tagged_sizes if e else ():
            if tag := v_product_tag(d1, d):
                # the tag has low = tag & -tag copies
                mult = dict(_tensor_blocks(d1, d) if d1 <= d else _tensor_blocks(d, d1)).get(tag, 0)
                if mult != tag & -tag:
                    raise RuntimeError(f"tagged block of {d1} x {d} has multiplicity {mult}")
                tagged.add(tag)
    return SymplecticType(_tag(square, tagged))


def restrict_bilinear(s: SymplecticType, alpha: int) -> SymplecticType:
    """Class of the 2^alpha-th power of the element on the same formed space.

    W(d) restricts to the hyperbolic type over the restricted Jordan type of
    a size-d block.  V(2d) stays tagged when 2^alpha divides d; otherwise it
    splits into hyperbolic pieces W(a+1)^r | W(a)^(2^(alpha-1)-r) where
    d = a*2^(alpha-1) + r, with W(0) dropped.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be positive, got {alpha}")
    half = 1 << (alpha - 1)
    pieces = []
    for d, count, e in s.entries:
        if not e:
            pieces += [(a, m * count, 0) for a, m in restrict_power(JordanType(((d, 1),)), alpha).blocks]
        else:
            h = d // 2
            if h % (1 << alpha) == 0:
                pieces.append((h // half, (1 << alpha) * count, 1))
            else:
                a, r = divmod(h, half)
                pieces += [(a + 1, 2 * r * count, 0), (a, 2 * (half - r) * count, 0)]
    # W(0) and empty pieces are dropped
    return SymplecticType(_merge(p for p in pieces if p[0] and p[1]))


def induce_bilinear(s: SymplecticType, alpha: int) -> SymplecticType:
    """Class induced along the index-2^alpha cyclic subgroup: sizes scale by 2^alpha."""
    if alpha < 1:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return SymplecticType(tuple((d << alpha, m, e) for d, m, e in s.entries))


def alpha_of(s: SymplecticType) -> int:
    """2-adic valuation of the gcd of block sizes, halving the tagged ones."""
    return gcd_valuation(d // 2 if e else d for d, _, e in s.entries)
