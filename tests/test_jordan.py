"""Tests for the Jordan type arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp2forms.jordan import (
    JordanType,
    ParseError,
    _tensor_blocks,
    consecutive_ones,
    induce_power,
    nu2,
    restrict_power,
    tensor,
    tensor_blocks,
    tensor_square_closed,
    unique_odd_block,
    wedge_block,
    wedge_square,
)

J = JordanType.parse


def _reference_unique_odd_block(m: int, n: int) -> int:
    """The odd block size of a product of odd-size blocks, scanned from the computed decomposition.

    Independent of the closed form of unique_odd_block; raises unless there
    is exactly one odd size, of multiplicity one.
    """
    odd = [(d, c) for d, c in (_tensor_blocks(m, n) if m <= n else _tensor_blocks(n, m)) if d % 2]
    if len(odd) != 1 or odd[0][1] != 1:
        raise RuntimeError(f"expected exactly one odd block of multiplicity 1 in {m} x {n}, got {odd}")
    return odd[0][0]


def odd_block_from_binary_digits(m: int, n: int) -> int:
    """Digit formula for the odd block size of unique_odd_block.

    Proved: it XORs the bits of m at positions 1 and up into n, which is
    n ^ m ^ 1 for odd m and n.  The tests cross-check it against the scan,
    here and in acceptance criterion 8.
    """
    if m % 2 == 0 or n % 2 == 0:
        raise ValueError(f"requires odd block sizes, got ({m}, {n})")
    if m > n:
        m, n = n, m
    total = n
    i = 1
    while m >> i:
        if (m >> i) & 1:
            total += -(1 << i) if (n >> i) & 1 else (1 << i)
        i += 1
    return total


jordan_types = st.dictionaries(
    st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=4), max_size=4
).map(JordanType.from_dict)


class TestJordanType:
    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            JordanType(((0, 1),))
        with pytest.raises(ValueError):
            JordanType(((2, 0),))
        with pytest.raises(ValueError):
            JordanType(((3, 1), (2, 1)))

    def test_dimension_and_empty(self):
        assert JordanType(()).dimension() == 0
        assert J("3^2,5").dimension() == 11

    @pytest.mark.parametrize("text", ["0", "3", "3^2,5", "1,2^2,10^3"])
    def test_parse_roundtrip(self, text):
        assert str(J(text)) == text

    def test_parse_accepts_table_cell_rendering(self):
        j = J("3^2,5")
        assert J(j.pretty()) == j
        assert J("(1^2, 2)") == J("1^2,2")

    def test_parse_errors_carry_position(self):
        for bad, pos in [("3^^2", 2), ("3,3", 2), ("0,1", 1), ("2,", 2), ("a", 0), ("٣", 0)]:
            with pytest.raises(ParseError) as exc:
                J(bad)
            assert exc.value.pos == pos
            assert "^" in exc.value.caret_message()
        # only ASCII digits: a superscript or another script's digit is a parse error, not int()'s
        with pytest.raises(ParseError, match="expected multiplicity at position 2"):
            J("3^²")

    def test_json_roundtrip(self):
        j = J("3^2,5")
        assert JordanType.from_json(j.to_json()) == j


class TestTensor:
    @pytest.mark.parametrize(
        "m,n,want",
        [
            (1, 7, "7"),  # tensoring with a 1-block changes nothing
            (3, 5, "4^2,7"),
            (5, 5, "1,4^2,8^2"),
            (2, 4, "4^2"),
            (4, 4, "4^4"),
        ],
    )
    def test_tensor_blocks(self, m, n, want):
        assert str(tensor_blocks(m, n)) == want

    def test_tensor_blocks_rejects_zero(self):
        with pytest.raises(ValueError):
            tensor_blocks(0, 3)

    def test_three_by_n_family(self):
        # closed form for one small factor: four cases by n mod 4
        for n in range(3, 60):
            got = dict(tensor_blocks(3, n).blocks)
            r = n % 4
            if r == 0:
                want = {n: 3}
            elif r == 1:
                want = {n - 1: 2, n + 2: 1}
            elif r == 2:
                want = {n - 2: 1, n: 1, n + 2: 1}
            else:
                want = {n - 2: 1, n + 1: 2}
            assert got == want, n

    def test_tensor_additive_examples(self):
        assert tensor(JordanType(()), J("3")) == JordanType(())
        assert str(tensor(J("3^2"), J("3^2"))) == "1^4,4^8"
        # value fixed from the matrix cross-check (see test_oracle)
        assert str(tensor(J("2"), J("2,5"))) == "2^2,4,6"

    @given(jordan_types, jordan_types)
    @settings(max_examples=60, deadline=None)
    def test_dimension_multiplicative(self, j1, j2):
        assert tensor(j1, j2).dimension() == j1.dimension() * j2.dimension()

    @given(jordan_types, jordan_types)
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, j1, j2):
        assert tensor(j1, j2) == tensor(j2, j1)

    @given(jordan_types, jordan_types, jordan_types)
    @settings(max_examples=30, deadline=None)
    def test_associative(self, j1, j2, j3):
        assert tensor(tensor(j1, j2), j3) == tensor(j1, tensor(j2, j3))

    def test_block_count(self):
        # a product of single blocks has min(m, n) indecomposable summands
        for m in range(1, 513):
            for n in range(m, 513):
                assert sum(c for _, c in _tensor_blocks(m, n)) == m, (m, n)

    def test_doubling_both_sizes_doubles_the_blocks(self):
        # J_2a x J_2b is J_a x J_b with sizes and multiplicities doubled; tensor_bilinear reads
        # the blocks of V(2h1) x V(2h) at full size on the strength of this
        for a in range(1, 257):
            for b in range(a, 257):
                assert _tensor_blocks(2 * a, 2 * b) == tuple((2 * d, 2 * c) for d, c in _tensor_blocks(a, b)), (a, b)


def _minimal_alternating_length(n, max_exp=8):
    """Brute-force the least k admitting an alternating expansion of n."""
    import itertools

    for k in range(1, max_exp + 2):
        for exps in itertools.combinations(range(max_exp, -1, -1), k):
            total = sum((-1) ** i * (1 << e) for i, e in enumerate(exps))
            if total == n:
                return k
    raise AssertionError(f"no expansion found for {n}")


def _reference_consecutive_ones(n):
    """The expansion's terms from a scan of the maximal runs of ones, each run bits low..high-1 giving
    +2^high - 2^low, and a lowest run of one bit collapsing to +2^low."""
    runs = []  # (low, high), from the bottom
    pos = 0
    m = n
    while m:
        z = nu2(m)
        pos += z
        m >>= z
        r = nu2(m + 1)  # length of the all-ones run
        runs.append((pos, pos + r))
        pos += r
        m >>= r
    terms = []
    for low, high in reversed(runs):
        terms.append((1, high))
        terms.append((-1, low))
    low0, high0 = runs[0]
    if high0 == low0 + 1:
        terms[-2:] = [(1, low0)]
    return tuple(terms)


class TestConsecutiveOnes:
    @pytest.mark.parametrize(
        "n,want",
        [(3, "2^2 - 2^0"), (4, "2^2"), (5, "2^3 - 2^2 + 2^0"), (6, "2^3 - 2^1")],
    )
    def test_examples(self, n, want):
        assert str(consecutive_ones(n)) == want

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            consecutive_ones(0)

    def test_structure(self):
        for n in range(1, 2000):
            exp = consecutive_ones(n)
            assert exp.value() == n
            exps = exp.exponents()
            signs = [s for s, _ in exp.terms]
            assert signs == [(-1) ** i for i in range(len(signs))]
            assert all(a > b for a, b in zip(exps, exps[1:]))
            if len(exps) > 1:
                assert exps[-2] > exps[-1] + 1

    def test_minimality_brute_force(self):
        for n in range(1, 257):
            assert len(consecutive_ones(n).exponents()) == _minimal_alternating_length(n), n

    def test_matches_the_run_scan(self):
        for n in range(1, 1 << 16):
            assert consecutive_ones(n).terms == _reference_consecutive_ones(n), n

    @given(st.integers(min_value=1, max_value=(1 << 2000) - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_run_scan_on_large_integers(self, n):
        assert consecutive_ones(n).terms == _reference_consecutive_ones(n)


class TestTensorSquareClosed:
    def test_examples(self):
        assert str(tensor_square_closed(1)) == "1"
        assert str(tensor_square_closed(5)) == "1,4^2,8^2"
        assert str(tensor_square_closed(6)) == "2^2,8^4"

    def test_matches_recursion_small(self):
        for n in range(1, 300):
            assert tensor_square_closed(n) == tensor_blocks(n, n), n


class TestUniqueOddBlock:
    @pytest.mark.parametrize("m,n,want", [(1, 9, 9), (3, 5, 7), (5, 7, 3)])
    def test_examples(self, m, n, want):
        assert unique_odd_block(m, n) == want

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            unique_odd_block(2, 3)

    def test_uniqueness_inside_products(self):
        for m in range(1, 42, 2):
            for n in range(m, 42, 2):
                odd = [(d, c) for d, c in tensor_blocks(m, n).blocks if d % 2]
                assert len(odd) == 1 and odd[0][1] == 1

    def test_digit_formula_agrees(self):
        # the digit formula, checked against the scan of the decomposition
        for m in range(1, 130, 2):
            for n in range(m, 130, 2):
                assert odd_block_from_binary_digits(m, n) == _reference_unique_odd_block(m, n)

    def test_closed_form_matches_the_scan(self):
        # m ^ n ^ 1 is the one odd size, of multiplicity one (the scan raises otherwise)
        for m in range(1, 1024, 2):
            for n in range(m, 1024, 2):
                assert unique_odd_block(m, n) == _reference_unique_odd_block(m, n), (m, n)


class TestWedge:
    @pytest.mark.parametrize(
        "n,want",
        [(2, "1"), (4, "2,4"), (12, "2,4,12,16^3"), (8, "4,8^3"), (1, "0")],
    )
    def test_wedge_block(self, n, want):
        assert str(wedge_block(n)) == want

    def test_wedge_block_dimension(self):
        for n in range(1, 120):
            assert wedge_block(n).dimension() == n * (n - 1) // 2

    def test_power_of_two_family(self):
        for a in range(1, 8):
            q = 1 << a
            want = {q // 2: 1}
            if q // 2 - 1 > 0:
                want[q] = q // 2 - 1
            assert dict(wedge_block(q).blocks) == want

    def test_smallest_block_and_odd_multiplicities(self):
        for n in range(1, 101):
            wb = wedge_block(2 * n)
            smallest, mult = wb.blocks[0]
            assert smallest == 1 << nu2(n)
            assert mult == 1
            assert all(m % 2 == 1 for _, m in wb.blocks)

    def test_multiplicity_two_set(self):
        small = [n for n in range(1, 101) if all(m <= 2 for _, m in wedge_block(2 * n).blocks)]
        assert small == [1, 2, 3, 5]

    def test_wedge_square_examples(self):
        assert str(wedge_square(J("1^2"))) == "1"
        assert str(wedge_square(J("2^2,8"))) == "1^2,2^2,4,8^7"
        # value fixed from the matrix cross-check (see test_oracle)
        assert str(wedge_square(J("2,10"))) == "1^2,6,8,10^2,14,16"

    @given(jordan_types)
    @settings(max_examples=60, deadline=None)
    def test_wedge_square_dimension(self, j):
        big = j.dimension()
        assert wedge_square(j).dimension() == big * (big - 1) // 2


class TestRestrictInduce:
    @pytest.mark.parametrize(
        "text,alpha,want",
        [("5", 0, "5"), ("5", 1, "2,3"), ("8", 2, "2^4"), ("1", 3, "1")],
    )
    def test_restrict(self, text, alpha, want):
        assert str(restrict_power(J(text), alpha)) == want

    @pytest.mark.parametrize(
        "text,alpha,want",
        [("3^2", 0, "3^2"), ("3", 1, "6"), ("1,2", 2, "4,8")],
    )
    def test_induce(self, text, alpha, want):
        assert str(induce_power(J(text), alpha)) == want

    @given(jordan_types, st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_restrict_of_induce(self, j, alpha):
        # inducing then restricting leaves 2^alpha copies of the original
        back = restrict_power(induce_power(j, alpha), alpha)
        want = JordanType.from_dict({d: m << alpha for d, m in j.blocks})
        assert back == want

    @given(jordan_types, st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_restrict_preserves_dimension(self, j, alpha):
        assert restrict_power(j, alpha).dimension() == j.dimension()
