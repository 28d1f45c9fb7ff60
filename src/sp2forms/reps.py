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


class DualTensorClasses(Value):
    """Output of the special linear case: tagged types on V (x) V* and its subquotient."""

    def __init__(self, tensor_space: EpsilonTaggedType, irreducible: SymplecticType, alpha: int):
        object.__setattr__(self, "tensor_space", tensor_space)
        object.__setattr__(self, "irreducible", irreducible)
        object.__setattr__(self, "alpha", alpha)

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "tensor_space": self.tensor_space.to_json(),
            "irreducible": self.irreducible.to_json(),
        }


class WedgeSquareClasses(Value):
    """Output of the symplectic case: tagged types on the wedge square and its subquotient."""

    def __init__(self, wedge_space: EpsilonTaggedType, irreducible: SymplecticType, alpha: int):
        object.__setattr__(self, "wedge_space", wedge_space)
        object.__setattr__(self, "irreducible", irreducible)
        object.__setattr__(self, "alpha", alpha)

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "wedge_space": self.wedge_space.to_json(),
            "irreducible": self.irreducible.to_json(),
        }


def _subquotient_multiplicities(lam: dict[int, int], n: int, alpha: int) -> dict[int, int]:
    """Jordan multiplicities of the fixed-vector subquotient.

    The subquotient removes one block when the distinguished fixed vector
    spans the radical (n odd), otherwise two; which sizes are touched depends
    on the parity of n / 2^alpha.  k blocks of one size go; for n even and
    alpha > 0, k blocks of size 2^alpha - 1 or 2^alpha - 2 take their place,
    none when that size is 0.
    """
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
    return out


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
    follows the fixed-vector rules, with the new 2^alpha - 2 block forcibly
    tagged in the halving case, where n is even, alpha > 1 and n / 2^alpha
    is odd.
    """
    n = j.dimension()
    if j.is_empty() or n < 2:
        raise ValueError(f"need a non-empty type of dimension at least 2, got dimension {n}")
    lam = square_multiplicities(grow_tensor_square, j.blocks)
    alpha = gcd_valuation(j.sizes())
    tagged: set[int] = set()
    for d, _ in j.blocks:
        tagged |= consecutive_ones_powers(d)
    if not lam.keys() >= tagged:
        raise RuntimeError(f"tagged sizes {tagged - set(lam)} missing from the tensor square")

    lam_sub = _subquotient_multiplicities(lam, n, alpha)
    tagged_sub = tagged
    if n % 2 == 0 and alpha > 1 and (n >> alpha) % 2:
        new_size = (1 << alpha) - 2
        if new_size in tagged:
            raise RuntimeError(f"size {new_size} should not be tagged on the tensor square")
        tagged_sub = tagged | {new_size}

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
    of two tagged summands sharing a 2-adic valuation.  The subquotient keeps
    the tags except at 2^alpha, which survives tagged only via a hyperbolic
    summand of that exact valuation, and at 2^alpha - 2, tagged exactly when
    n / 2^alpha is odd.
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
    if not lam.keys() >= tagged:
        raise RuntimeError(f"tagged sizes {tagged - set(lam)} missing from the wedge square")

    lam_sub = _subquotient_multiplicities(lam, n, alpha)
    tagged_sub = tagged
    if n % 2 == 0 and alpha:
        a = 1 << alpha
        if a not in tagged:
            raise RuntimeError(f"size {a} should always be tagged on the wedge square")
        tagged_sub = set(tagged)
        if not any(nu2(d) == alpha for d, _, e in s.entries if not e):
            tagged_sub.discard(a)
        if alpha > 1:
            if a - 2 in tagged:
                raise RuntimeError(f"size {a - 2} should not be tagged on the wedge square")
            if (n >> alpha) % 2:
                tagged_sub.add(a - 2)

    full = EpsilonTaggedType(_tag(lam, tagged))
    irr = SymplecticType(_tag(lam_sub, tagged_sub))
    return WedgeSquareClasses(wedge_space=full, irreducible=irr, alpha=alpha)
