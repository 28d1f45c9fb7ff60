"""Tests for the distinguished-class predicate and verification sweeps."""

import pytest

from sp2forms.distinguished import (
    _max_part_bound,
    is_distinguished,
    verify_prop_A_irr,
    verify_prop_A_tensor,
    verify_prop_C,
    verify_prop_tensor,
)
from sp2forms.hesselink import EpsilonTaggedType, SymplecticType

E = EpsilonTaggedType.parse
S = SymplecticType.parse


class TestPredicate:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("4_1", True),
            ("2_0^2", False),  # hyperbolic summand
            ("2_1^2,6_1^2", True),
            ("2_1^3", False),  # multiplicity three
            ("2_1,3_0^2", False),  # odd size present
            ("8_1^2,10_1", True),
        ],
    )
    def test_examples(self, text, want):
        assert is_distinguished(S(text)) is want

    def test_degenerate_is_never_distinguished(self):
        assert is_distinguished(E("1_0,4_1^2")) is False


class TestSweeps:
    def test_prop_A_tensor(self):
        report = verify_prop_A_tensor(10)
        assert report.ok
        assert report.hits == ["2"]

    def test_prop_A_irr(self):
        report = verify_prop_A_irr(10)
        assert report.ok
        assert report.hits == ["2", "3", "5"]

    def test_prop_tensor(self):
        report = verify_prop_tensor(28)
        assert report.ok
        # every hit pairs a tagged 2-block with a sum of distinct tagged
        # blocks of sizes twice an odd number
        for hit in report.hits:
            left, _, right = hit.partition(" x ")
            assert "2_1" in (left, right)

    def test_prop_C_lists(self):
        report = verify_prop_C(12)
        assert report.ok
        assert "wedge 4_1" in report.hits
        assert "irr 4_1" in report.hits and "irr 2_1^2" in report.hits
        assert "irr 6_1" in report.hits and "irr 10_1" in report.hits
        assert "irr 2_1,10_1" in report.hits
        assert len([h for h in report.hits if h.startswith("wedge")]) == 1

    def test_bounded_matches_exhaustive(self):
        for n in (6, 9, 11):
            full = verify_prop_C(n, exhaustive=True)
            fast = verify_prop_C(n)
            assert full.ok and fast.ok
            assert sorted(full.hits) == sorted(fast.hits)

    def test_max_part_bound_is_safe(self):
        # every class below the bound really has an over-large wedge multiplicity
        from sp2forms.enumeration import symplectic_partitions
        from sp2forms.jordan import JordanType, wedge_square

        for dim in (8, 12, 16):
            bound = _max_part_bound(dim)
            for p in symplectic_partitions(dim):
                if p[-1][0] >= bound:
                    continue
                lam = wedge_square(JordanType(p))
                assert any(m > 4 for _, m in lam.blocks) or sum(
                    1 for d, m in lam.blocks if m > 2
                ) > 1 or any(d % 2 and d > 1 for d, _ in lam.blocks) or lam.to_dict().get(1, 0) > 2

    @pytest.mark.parametrize(
        "sweep,args,checked",
        [
            (verify_prop_C, (6,), 106),
            (verify_prop_C, (6, True), 117),
            (verify_prop_C, (9,), 379),
            (verify_prop_C, (9, True), 574),
            (verify_prop_C, (12,), 951),
            (verify_prop_C, (12, True), 2256),
            (verify_prop_A_tensor, (10,), 137),
            (verify_prop_A_irr, (10,), 137),
            (verify_prop_tensor, (28,), 484),
        ],
    )
    def test_checked_counts(self, sweep, args, checked):
        # the checked counts are part of each report and must not move with the enumeration
        assert sweep(*args).checked == checked

    def test_report_json(self):
        data = verify_prop_A_tensor(6).to_json()
        assert data["ok"] is True
        assert data["counterexamples"] == []
