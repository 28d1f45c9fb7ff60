"""Tests for the two classification engines."""

import pytest
from hypothesis import given, settings

from sp2forms.enumeration import class_counts, jordan_types, symplectic_types
from sp2forms.hesselink import (
    SymplecticType,
    merge_tagged,
    tensor_bilinear,
    validate_symplectic,
    wtype,
)
from sp2forms.jordan import JordanType, tensor, wedge_square
from sp2forms.reps import dual_tensor_classes, wedge_square_classes

from test_hesselink import symplectic_classes

J = JordanType.parse
S = SymplecticType.parse


# Frozen classification rows: input, full-space classes, subquotient classes.
DUAL_TENSOR_ROWS = [
    ("2", "2_1^2", "2_1"),
    ("3", "1_0,4_1^2", "4_1^2"),
    ("1,2", "1_0,2_1^4", "2_1^4"),
    ("4", "4_1^4", "2_1,4_1^3"),
    ("1,3", "1_0^2,3_0^2,4_1^2", "3_0^2,4_1^2"),
    ("2^2", "2_1^8", "1_0^2,2_1^6"),
    ("1^2,2", "1_0^4,2_1^6", "1_0^2,2_1^6"),
    ("5", "1_0,4_1^2,8_1^2", "4_1^2,8_1^2"),
    ("1,4", "1_0,4_1^6", "4_1^6"),
    ("2,3", "1_0,2_1^4,4_1^4", "2_1^4,4_1^4"),
    ("1^2,3", "1_0^5,3_0^4,4_1^2", "1_0^4,3_0^4,4_1^2"),
    ("1,2^2", "1_0,2_1^12", "2_1^12"),
    ("1^3,2", "1_0^9,2_1^8", "1_0^8,2_1^8"),
    ("6", "2_1^2,8_1^4", "2_1,8_1^4"),
    ("1,5", "1_0^2,4_1^2,5_0^2,8_1^2", "4_1^2,5_0^2,8_1^2"),
    ("2,4", "2_1^2,4_1^8", "2_1,4_1^8"),
    ("3^2", "1_0^4,4_1^8", "1_0^2,4_1^8"),
    ("2^3", "2_1^18", "2_1^17"),
    ("7", "1_0,8_1^6", "8_1^6"),
    ("1,6", "1_0,2_1^2,6_0^2,8_1^4", "2_1^2,6_0^2,8_1^4"),
    ("2,5", "1_0,2_1^2,4_1^4,6_0^2,8_1^2", "2_1^2,4_1^4,6_0^2,8_1^2"),
    ("3,4", "1_0,4_1^12", "4_1^12"),
    ("1^5,2", "1_0^25,2_1^12", "1_0^24,2_1^12"),
]

WEDGE_ROWS = [
    ("4_1", "2_1,4_1", "4_1", 1),
    ("2_1^2", "1_0^2,2_1^2", "2_1^2", 0),
    ("2_0^2", "1_0^2,2_1^2", "1_0^2,2_1", 1),
    ("1_0^2,2_1", "1_0^2,2_0^2", "2_0^2", 0),
    ("6_1", "1_0,6_1,8_1", "6_1,8_1", 0),
    ("2_1,4_1", "1_0,2_1,4_1^3", "2_1,4_1^3", 0),
    ("1_0^2,4_1", "1_0,2_1,4_1^3", "2_1,4_1^3", 0),
    ("3_0^2", "1_0,3_0^2,4_1^2", "3_0^2,4_1^2", 0),
    ("2_1^3", "1_0^3,2_1^6", "1_0^2,2_1^6", 0),
    ("1_0^4,2_1", "1_0^7,2_0^4", "1_0^6,2_0^4", 0),
    ("8_1", "4_1,8_1^3", "2_1,8_1^3", 2),
    ("4_1^2", "2_1^2,4_1^6", "1_0^2,4_1^6", 1),
    ("4_0^2", "2_0^2,4_1^6", "2_1^3,4_1^5", 2),
    ("2_0^2,4_1", "1_0^2,2_1^3,4_1^5", "1_0^4,2_1,4_1^5", 1),
    ("2_0^4", "1_0^4,2_1^12", "1_0^6,2_1^10", 1),
    ("12_1", "2_1,4_1,12_1,16_1^3", "4_1,12_1,16_1^3", 1),
    ("4_1,8_1", "2_1,4_1^2,8_1^7", "4_1^2,8_1^7", 1),
    ("2_0^2,8_1", "1_0^2,2_1^2,4_1,8_1^7", "1_0^2,2_1,4_1,8_1^7", 1),
    ("6_0^2", "1_0^2,2_1^2,6_0^2,8_1^6", "1_0^2,2_1,6_0^2,8_1^6", 1),
    ("4_1^3", "2_1^3,4_1^15", "2_0^2,4_1^15", 1),
    ("2_0^6", "1_0^6,2_1^30", "1_0^6,2_1^29", 1),
    ("16_1", "8_1,16_1^7", "6_1,16_1^7", 3),
    ("8_1^2", "4_1^2,8_1^14", "3_0^2,8_1^14", 2),
    ("8_0^2", "4_0^2,8_1^14", "4_0^2,6_1,8_1^13", 3),
    ("4_0^2,8_1", "2_0^2,4_1^7,8_1^11", "2_0^2,3_0^2,4_1^5,8_1^11", 2),
    ("4_1,6_0^2", "1_0^2,2_1^3,4_1^5,6_0^2,8_1^10", "1_0^4,2_1,4_1^5,6_0^2,8_1^10", 1),
    ("2_0^2,6_0^2", "1_0^4,2_1^4,6_0^10,8_1^6", "1_0^6,2_1^2,6_0^10,8_1^6", 1),
    ("4_1^4", "2_1^4,4_1^28", "1_0^2,2_0^2,4_1^28", 1),
    ("4_0^4", "2_0^4,4_1^28", "2_0^4,3_0^2,4_1^26", 2),
    ("2_0^8", "1_0^8,2_1^56", "1_0^10,2_1^54", 1),
]


class TestDualTensorClasses:
    @pytest.mark.parametrize("jtext,full,irr", DUAL_TENSOR_ROWS)
    def test_rows(self, jtext, full, irr):
        res = dual_tensor_classes(J(jtext))
        assert str(res.tensor_space) == full
        assert str(res.irreducible) == irr

    def test_rejects_small_input(self):
        with pytest.raises(ValueError):
            dual_tensor_classes(JordanType(()))
        with pytest.raises(ValueError):
            dual_tensor_classes(J("1"))

    def test_jordan_parts(self):
        for jtext, _, _ in DUAL_TENSOR_ROWS:
            j = J(jtext)
            res = dual_tensor_classes(j)
            assert res.tensor_space.jordan() == tensor(j, j)
            n = j.dimension()
            want = n * n - (1 if n % 2 else 2)
            assert res.irreducible.dimension() == want

    def test_grown_square_is_the_tensor_square(self):
        # dual_tensor_classes grows the square over block prefixes; tensor multiplies every pair
        count = 0
        for n in range(2, 15):
            for j in jordan_types(n):
                assert dual_tensor_classes(j).tensor_space.jordan() == tensor(j, j), j
                count += 1
        assert count == sum(class_counts(14)[2:])

    def test_degenerate_full_space_for_odd_dimension(self):
        # odd dimension: the full-space form has a radical, so the tagged
        # type fails the symplectic parity laws by design
        res = dual_tensor_classes(J("3"))
        with pytest.raises(ValueError):
            validate_symplectic(res.tensor_space)

    def test_tags_stable_under_redundant_blocks(self):
        # adding a block whose expansion brings no new powers keeps the tags
        base = {d for d, _, e in dual_tensor_classes(J("5")).tensor_space.entries if e}
        bigger = {d for d, _, e in dual_tensor_classes(J("1,5")).tensor_space.entries if e}
        assert base == bigger == {4, 8}


class TestWedgeSquareClasses:
    @pytest.mark.parametrize("stext,full,irr,alpha", WEDGE_ROWS)
    def test_rows(self, stext, full, irr, alpha):
        res = wedge_square_classes(S(stext))
        assert str(res.wedge_space) == full
        assert str(res.irreducible) == irr
        assert res.alpha == alpha

    def test_rejects_small_input(self):
        with pytest.raises(ValueError):
            wedge_square_classes(S("2_1"))

    @given(symplectic_classes)
    @settings(max_examples=50, deadline=None)
    def test_jordan_parts(self, s):
        if s.dimension() < 4:
            return
        res = wedge_square_classes(s)
        assert res.wedge_space.jordan() == wedge_square(s.jordan())
        n = s.dimension() // 2
        want = res.wedge_space.dimension() - (1 if n % 2 else 2)
        assert res.irreducible.dimension() == want

    def test_grown_square_is_the_wedge_square(self):
        count = 0
        for dim in range(4, 17, 2):
            for s in symplectic_types(dim):
                assert wedge_square_classes(s).wedge_space.jordan() == wedge_square(s.jordan()), s
                count += 1
        assert count == sum(class_counts(16, symplectic=True)[4:])

    def test_block_decomposition_of_dual_tensor(self):
        # the big space splits into per-block dual tensor squares plus a
        # hyperbolic piece for every unordered pair of blocks
        from itertools import combinations

        from sp2forms.hesselink import EpsilonTaggedType
        from sp2forms.jordan import tensor_blocks

        def single_dual(d):
            if d == 1:
                return EpsilonTaggedType(((1, 1, 0),))
            return dual_tensor_classes(J(str(d))).tensor_space

        def hyperbolic_over(d1, d2):
            return EpsilonTaggedType(tuple((a, 2 * c, 0) for a, c in tensor_blocks(d1, d2).blocks))

        for jtext in ("1,2", "2,3", "3^2", "1,2,4", "1^2,5", "2^2,3"):
            j = J(jtext)
            blocks = j.expand()
            pieces = [single_dual(d) for d in blocks]
            pieces += [hyperbolic_over(d1, d2) for d1, d2 in combinations(blocks, 2)]
            assert merge_tagged(*pieces) == dual_tensor_classes(j).tensor_space, jtext

    def test_cross_terms_match_tensor_bilinear(self):
        # wedge of a sum of two hyperbolic pieces = wedge of each piece
        # plus the tagged type of their bilinear tensor product
        for a in range(2, 7):
            for b in range(a, 7):
                if a == b:
                    whole = wedge_square_classes(wtype(a, 2)).wedge_space
                else:
                    whole = wedge_square_classes(S(f"{a}_0^2,{b}_0^2")).wedge_space
                parts = merge_tagged(
                    wedge_square_classes(wtype(a)).wedge_space,
                    wedge_square_classes(wtype(b)).wedge_space,
                    tensor_bilinear(wtype(a), wtype(b)),
                )
                assert whole == parts, (a, b)
