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

from .hesselink import EpsilonTaggedType, SymplecticType, alpha_of
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
    unique_odd_block,
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
    on the parity of n / 2^alpha.
    """
    out = dict(lam)

    def take(d, k):
        have = out.get(d, 0)
        if have < k:
            raise RuntimeError(f"cannot remove {k} blocks of size {d} from {lam}")
        if have == k:
            del out[d]
        else:
            out[d] = have - k

    def add(d, k):
        out[d] = out.get(d, 0) + k

    if n % 2:
        take(1, 1)
    elif alpha == 0:
        take(1, 2)
    else:
        a = 1 << alpha
        if (n >> alpha) % 2 == 0:
            take(a, 2)
            add(a - 1, 2)
        elif alpha > 1:
            take(a, 1)
            add(a - 2, 1)
        else:
            take(2, 1)
    return out


def _is_halving_case(n: int, alpha: int) -> bool:
    """True when the subquotient trades a 2^alpha block for a 2^alpha - 2 block."""
    return n % 2 == 0 and alpha > 1 and (n >> alpha) % 2 == 1


def _tag(lam: dict[int, int], tagged_sizes: set[int]) -> tuple[tuple[int, int, int], ...]:
    """Sorted (size, multiplicity, eps) entries of a multiplicity dict, eps = 1 on tagged_sizes."""
    return tuple((d, m, 1 if d in tagged_sizes else 0) for d, m in sorted(lam.items()))


def dual_tensor_classes(j: JordanType) -> DualTensorClasses:
    """Tagged classes of the action of u on V (x) V* and its simple subquotient.

    The Jordan type of the big space is the tensor square of j (every module
    here is self-dual), grown one block size at a time.  A size is tagged
    exactly when it is a power of two larger than one appearing in the
    consecutive-ones expansion of some block size of j.  The subquotient follows the fixed-vector rules, with the new
    2^alpha - 2 block forcibly tagged in the halving case.
    """
    n = j.dimension()
    if j.is_empty() or n < 2:
        raise ValueError(f"need a non-empty type of dimension at least 2, got dimension {n}")
    lam = square_multiplicities(grow_tensor_square, j.blocks)
    alpha = gcd_valuation(j.sizes())
    tagged: set[int] = set()
    for d in j.sizes():
        tagged |= consecutive_ones_powers(d)
    if not tagged <= set(lam):
        raise RuntimeError(f"tagged sizes {tagged - set(lam)} missing from the tensor square")

    lam_sub = _subquotient_multiplicities(lam, n, alpha)
    tagged_sub = set(tagged)
    if _is_halving_case(n, alpha):
        new_size = (1 << alpha) - 2
        if new_size in tagged:
            raise RuntimeError(f"size {new_size} should not be tagged on the tensor square")
        tagged_sub.add(new_size)

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
    w_sizes = [(d, m) for d, m, e in s.entries if e == 0]
    v_halves = [(d // 2, m) for d, m, e in s.entries if e == 1]
    alpha = alpha_of(s)
    lam = square_multiplicities(grow_wedge_square, [(d, m) for d, m, _ in s.entries])

    tagged: set[int] = set()
    for d, _ in w_sizes:
        tagged |= consecutive_ones_powers(d)
    for h, _ in v_halves:
        tagged |= {sz for sz, _ in _wedge_block(2 * h) if sz > 1}
    for i, (h1, m1) in enumerate(v_halves):
        for jdx in range(i, len(v_halves)):
            h2, m2 = v_halves[jdx]
            if i == jdx and m1 < 2:
                continue
            beta = nu2(h1)
            if beta != nu2(h2):
                continue
            odd = unique_odd_block(h1 >> beta, h2 >> beta)
            tagged.add(odd << (beta + 1))
    if not tagged <= set(lam):
        raise RuntimeError(f"tagged sizes {tagged - set(lam)} missing from the wedge square")

    lam_sub = _subquotient_multiplicities(lam, n, alpha)
    if n % 2 or alpha == 0:
        tagged_sub = set(tagged)
    else:
        a = 1 << alpha
        if a not in tagged:
            raise RuntimeError(f"size {a} should always be tagged on the wedge square")
        tagged_sub = set(tagged)
        if not any(nu2(d) == alpha for d, _ in w_sizes):
            tagged_sub.discard(a)
        if alpha > 1:
            if a - 2 in tagged:
                raise RuntimeError(f"size {a - 2} should not be tagged on the wedge square")
            if (n >> alpha) % 2:
                tagged_sub.add(a - 2)

    full = EpsilonTaggedType(_tag(lam, tagged))
    irr = SymplecticType(_tag(lam_sub, tagged_sub))
    return WedgeSquareClasses(wedge_space=full, irreducible=irr, alpha=alpha)
