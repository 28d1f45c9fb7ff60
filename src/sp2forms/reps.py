"""Classes of unipotent images on the dual tensor square and the wedge square.

For a unipotent u on an n-dimensional space V (the special linear case), the
space V (x) V* carries a canonical alternating invariant form, degenerate
exactly for odd n, and its simple subquotient -- the kernel of the trace
functional modulo the span of the identity tensor -- carries a non-degenerate
one.  For u preserving a symplectic form on V (the symplectic case), the
wedge square carries the analogous form, with the subquotient taken by the
invariant wedge vector.  Both tagged class data are computable purely from
the Jordan data of u; this module implements those rules.  The GF(2) matrix
construction in :mod:`sp2forms.oracle` recomputes the same answers from
scratch and is used by the test suite to cross-check every rule.
"""

from __future__ import annotations

from functools import lru_cache

from .hesselink import EpsilonTaggedType, SymplecticType, _tag, alpha_of, v_product_tag
from .jordan import (
    JordanType,
    Value,
    _wedge_block,
    consecutive_ones_powers,
    gcd_valuation,
    grow_tensor_square,
    grow_wedge_square,
    nu2,
    square_multiplicities,
)


class _SquareClasses(Value):
    """The tagged types of a square and of its fixed-vector subquotient, with alpha."""

    def to_json(self) -> dict:
        return {name: value if isinstance(value, int) else value.to_json() for name, value in self.__dict__.items()}


class DualTensorClasses(_SquareClasses):
    """Output of the special linear case: tagged types on V (x) V* and its subquotient."""

    def __init__(self, tensor_space: EpsilonTaggedType, irreducible: SymplecticType, alpha: int):
        object.__setattr__(self, "tensor_space", tensor_space)
        object.__setattr__(self, "irreducible", irreducible)
        object.__setattr__(self, "alpha", alpha)


class WedgeSquareClasses(_SquareClasses):
    """Output of the symplectic case: tagged types on the wedge square and its subquotient."""

    def __init__(self, wedge_space: EpsilonTaggedType, irreducible: SymplecticType, alpha: int):
        object.__setattr__(self, "wedge_space", wedge_space)
        object.__setattr__(self, "irreducible", irreducible)
        object.__setattr__(self, "alpha", alpha)


def _subquotient(
    lam: dict[int, int], tagged: set[int], n: int, alpha: int, square: str
) -> tuple[dict[int, int], set[int]]:
    """Jordan multiplicities and tagged sizes of the fixed-vector subquotient of a square.

    lam and tagged are the square's; square ("tensor" or "wedge") names it
    in the errors.  The subquotient removes one block when the distinguished
    fixed vector spans the radical (n odd), otherwise two; which sizes are
    touched depends on the parity of n / 2^alpha.  k blocks of one size go;
    for n even and alpha > 0, k blocks of size 2^alpha - 1 or 2^alpha - 2
    take their place, none when that size is 0.  For n even and alpha > 1,
    2^alpha - 2 is never tagged on the square; in the halving case, where
    n / 2^alpha is odd, its new block is tagged on the subquotient.  The
    other tags are kept, in a new set.
    """
    if not lam.keys() >= tagged:
        raise RuntimeError(f"tagged sizes {tagged - set(lam)} missing from the {square} square")
    if n % 2 or alpha == 0:
        size, k, new = 1, 2 - n % 2, 0
    elif (n >> alpha) % 2 == 0:
        size, k, new = 1 << alpha, 2, (1 << alpha) - 1
    else:
        size, k, new = 1 << alpha, 1, (1 << alpha) - 2
    have = lam.get(size, 0)
    if have < k:
        raise RuntimeError(f"cannot remove {k} blocks of size {size} from {lam}")
    out = dict(lam)
    if have == k:
        del out[size]
    else:
        out[size] = have - k
    if new:
        out[new] = out.get(new, 0) + k
    tagged_sub = set(tagged)
    if size > 2:  # n even and alpha > 1
        if size - 2 in tagged:
            raise RuntimeError(f"size {size - 2} should not be tagged on the {square} square")
        if k == 1:  # the halving case
            tagged_sub.add(new)
    return out, tagged_sub


@lru_cache(maxsize=None)
def _wedge_sizes(d: int) -> frozenset[int]:
    """The sizes above 1 in the exterior square of one block of size d: the tags of a V(d) summand."""
    return frozenset([sz for sz, _ in _wedge_block(d) if sz > 1])


def dual_tensor_classes(j: JordanType) -> DualTensorClasses:
    """Tagged classes of the action of u on V (x) V* and its simple subquotient.

    The Jordan type of the big space is the tensor square of j (every module
    here is self-dual), grown one block size at a time.  A size is tagged
    exactly when it is a power of two larger than one appearing in the
    consecutive-ones expansion of some block size of j.  The subquotient
    follows the fixed-vector rules of :func:`_subquotient`.
    """
    n = j.dimension()
    if n < 2:
        raise ValueError(f"need a non-empty type of dimension at least 2, got dimension {n}")
    lam = square_multiplicities(grow_tensor_square, j.blocks)
    alpha = gcd_valuation(j.sizes())
    tagged: set[int] = set()
    for d, _ in j.blocks:
        tagged |= consecutive_ones_powers(d)
    lam_sub, tagged_sub = _subquotient(lam, tagged, n, alpha, "tensor")
    full = EpsilonTaggedType(_tag(lam, tagged))
    irr = SymplecticType(_tag(lam_sub, tagged_sub))
    return DualTensorClasses(tensor_space=full, irreducible=irr, alpha=alpha)


def wedge_square_classes(s: SymplecticType) -> WedgeSquareClasses:
    """Tagged classes of the action of u on the wedge square and its subquotient.

    Inputs are symplectic class data; sizes with eps = 1 enter the size
    bookkeeping at half their value.  The Jordan type of the wedge square
    is grown one block size at a time.  A size of the wedge square is tagged
    when it comes from the consecutive-ones powers of a hyperbolic summand,
    from the wedge of a tagged single-block summand, or from the cross term
    of two tagged summands sharing a 2-adic valuation.  The subquotient
    follows :func:`_subquotient`, except at 2^alpha (n even, alpha > 0):
    always tagged on the square, it survives tagged only via a hyperbolic
    summand of that exact valuation.
    """
    dim = s.dimension()
    if dim < 4:
        raise ValueError(f"need dimension at least 4, got {dim}")
    n = dim // 2
    alpha = alpha_of(s)
    lam = square_multiplicities(grow_wedge_square, [(d, m) for d, m, _ in s.entries])

    tagged: set[int] = set()
    v_halves = []
    for d, m, e in s.entries:
        if e:
            tagged |= _wedge_sizes(d)
            v_halves.append((d >> 1, m))
        else:
            tagged |= consecutive_ones_powers(d)
    for i, (h1, m1) in enumerate(v_halves):
        for h2, _ in v_halves[i + (m1 < 2):]:  # a summand meets itself only when it has two copies
            if tag := v_product_tag(h1, h2):
                tagged.add(tag)

    lam_sub, tagged_sub = _subquotient(lam, tagged, n, alpha, "wedge")
    if n % 2 == 0 and alpha:
        a = 1 << alpha
        if a not in tagged:
            raise RuntimeError(f"size {a} should always be tagged on the wedge square")
        if not any(nu2(d) == alpha for d, _, e in s.entries if not e):
            tagged_sub.discard(a)

    full = EpsilonTaggedType(_tag(lam, tagged))
    irr = SymplecticType(_tag(lam_sub, tagged_sub))
    return WedgeSquareClasses(wedge_space=full, irreducible=irr, alpha=alpha)
