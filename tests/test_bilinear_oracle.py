"""Matrix validation of the symplectic class calculus.

Every combinatorial rule on tagged types is recomputed here from explicit
GF(2) matrices: tensor products on all class pairs with product dimension at
most 24 and on all pairs of single blocks V(d) or W(d) to product dimension
128, restriction (same space, powered operator) and induction (coset block
construction) on all small classes.
"""

import pytest

from sp2forms.enumeration import symplectic_types
from sp2forms.hesselink import (
    SymplecticType,
    induce_bilinear,
    restrict_bilinear,
    tensor_bilinear,
    vtype,
    wtype,
)
from sp2forms.oracle import (
    build_v,
    build_w,
    hesselink_of_space,
    induced_space,
    restricted_space,
    space_from_type,
    tensor_space,
)

S = SymplecticType.parse


def test_tensor_bilinear_matches_matrices_up_to_dim_24():
    checked = 0
    dims = [(d1, d2) for d1 in (2, 4, 6, 8, 10, 12) for d2 in (2, 4, 6, 8, 10, 12) if d1 * d2 <= 24]
    for d1, d2 in dims:
        for s1 in symplectic_types(d1):
            for s2 in symplectic_types(d2):
                got = hesselink_of_space(tensor_space(space_from_type(s1), space_from_type(s2)))
                assert got == tensor_bilinear(s1, s2), (str(s1), str(s2))
                checked += 1
    assert checked > 200


def test_tensor_bilinear_matches_matrices_on_single_blocks_up_to_dim_128():
    # V(8) x V(8), of dimension 64, is the smallest pair whose tag needs both
    # valuations to be at least 2
    blocks = [(vtype(d), build_v(d)) for d in range(2, 65, 2)] + [(wtype(d), build_w(d)) for d in range(1, 33)]
    pairs = [(a, b) for i, a in enumerate(blocks) for b in blocks[i:] if a[1].dim * b[1].dim <= 128]
    assert len(pairs) == 243
    for (s1, a1), (s2, a2) in pairs:
        got = hesselink_of_space(tensor_space(a1, a2))
        assert got == tensor_bilinear(s1, s2), (str(s1), str(s2))


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_restrict_bilinear_matches_powered_operator(alpha):
    for dim in (2, 4, 6, 8):
        for s in symplectic_types(dim):
            got = hesselink_of_space(restricted_space(space_from_type(s), alpha))
            assert got == restrict_bilinear(s, alpha), (str(s), alpha)


def test_restrict_boundary_small_block():
    # a tagged block strictly smaller than the power collapses to the
    # two-dimensional hyperbolic class; the matrices confirm it
    for alpha in (2, 3, 4):
        got = hesselink_of_space(restricted_space(space_from_type(vtype(2)), alpha))
        assert got == restrict_bilinear(vtype(2), alpha) == S("1_0^2")


@pytest.mark.parametrize("alpha", [1, 2])
def test_induce_bilinear_matches_induced_module(alpha):
    for dim in (2, 4, 6):
        for s in symplectic_types(dim):
            got = hesselink_of_space(induced_space(space_from_type(s), alpha))
            assert got == induce_bilinear(s, alpha), (str(s), alpha)
