"""Tests for the symplectic class calculus."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sp2forms import hesselink
from sp2forms.hesselink import (
    EpsilonTaggedType,
    SymplecticConstraintError,
    SymplecticType,
    alpha_of,
    induce_bilinear,
    merge_tagged,
    orthogonal_sum,
    restrict_bilinear,
    tensor_bilinear,
    validate_symplectic,
    vtype,
    wtype,
)
from sp2forms.jordan import ParseError, _tensor_blocks, induce_power, nu2, restrict_power, tensor
from test_jordan import _reference_unique_odd_block

S = SymplecticType.parse
E = EpsilonTaggedType.parse


def _random_symplectic():
    """Strategy for small symplectic classes built from V and W summands."""
    summand = st.tuples(st.booleans(), st.integers(min_value=1, max_value=6))

    def build(parts):
        pieces = []
        for tagged, d in parts:
            pieces.append(vtype(2 * d) if tagged else wtype(d))
        return orthogonal_sum(*pieces)

    return st.lists(summand, min_size=1, max_size=3).map(build)


symplectic_classes = _random_symplectic()


def _classes_up_to(max_dim):
    """Strategy for symplectic classes of dimension at most max_dim, the empty one included.

    Summands V(2d) and W(d), both of dimension 2d, are added when they still fit.
    """
    summand = st.tuples(st.booleans(), st.integers(min_value=1, max_value=max_dim // 2))

    def build(parts):
        pieces, dim = [], 0
        for tagged, d in parts:
            if dim + 2 * d <= max_dim:
                pieces.append(vtype(2 * d) if tagged else wtype(d))
                dim += 2 * d
        return orthogonal_sum(*pieces)

    return st.lists(summand, max_size=8).map(build)


# The piecewise product: every entry expands into indecomposable summands,
# each pair of summands gives a list of (size, multiplicity, eps) pieces, and
# the pieces are merged.  tensor_bilinear must give the same classes.


def _reference_summands(s):
    """Indecomposable summands of a class as ('W'|'V', size, count) triples."""
    return [("V", d, m) if e else ("W", d, m // 2) for d, m, e in s.entries]


def _reference_pair_product(kind1, d1, kind2, d2):
    """Tagged type of the product of two indecomposables, as (size, mult, eps) pieces."""
    if kind1 == "V" and kind2 == "V":
        h1, h2 = d1 // 2, d2 // 2
        inner = _tensor_blocks(h1, h2)
        if nu2(h1) != nu2(h2):
            return [(2 * a, 2 * c, 0) for a, c in inner]
        alpha = nu2(h1)
        dj = _reference_unique_odd_block(h1 >> alpha, h2 >> alpha) << alpha
        mult = dict(inner).get(dj, 0)
        if mult != 1 << alpha:
            raise RuntimeError(f"tagged block of {d1} x {d2} has multiplicity {mult}")
        return [(2 * a, 2 * c, int(a == dj)) for a, c in inner]
    if kind1 == "W" and kind2 == "W":
        return [(a, 4 * c, 0) for a, c in _tensor_blocks(d1, d2)]
    return [(a, 2 * c, 0) for a, c in _tensor_blocks(d1, d2)]


def reference_tensor_bilinear(s1, s2):
    acc = {}
    for kind1, d1, c1 in _reference_summands(s1):
        for kind2, d2, c2 in _reference_summands(s2):
            for a, m, e in _reference_pair_product(kind1, d1, kind2, d2):
                slot = acc.setdefault(a, [0, 0])
                slot[0] += c1 * c2 * m
                slot[1] |= e
    return SymplecticType(tuple((d, m, e) for d, (m, e) in sorted(acc.items())))


class TestTypes:
    def test_tag_parity_enforced(self):
        with pytest.raises(ValueError):
            EpsilonTaggedType(((3, 1, 1),))  # tag on an odd size
        EpsilonTaggedType(((3, 1, 0),))  # fine without the tag

    def test_symplectic_constraints(self):
        assert validate_symplectic(E("2_1")).entries == ((2, 1, 1),)
        assert validate_symplectic(E("3_0^2")).entries == ((3, 2, 0),)
        with pytest.raises(SymplecticConstraintError) as exc:
            validate_symplectic(E("4_0^3"))
        assert exc.value.size == 4
        with pytest.raises(ValueError):
            S("3_0")  # odd multiplicity on an odd size

    @pytest.mark.parametrize("text", ["2_1", "2_0^2,8_1", "1_0^2,2_1"])
    def test_parse_roundtrip(self, text):
        assert str(S(text)) == text

    def test_parse_accepts_table_cell_rendering(self):
        t = S("2_0^2,8_1")
        assert S(t.pretty()) == t
        assert S("(1_0^2, 2_1)") == S("1_0^2,2_1")

    def test_parse_errors(self):
        for bad, pos in [
            ("2", 1),
            ("2_2", 2),
            ("2_1^0", 4),
            ("2_1,2_0", 4),
            ("2_1,", 4),
            ("2_1^^2", 4),
            ("0,2_1", 1),
            ("a", 0),
            ("2_1 x", 4),
            ("2_¹", 2),
            ("2_1^²", 4),
            ("٢_1", 0),
        ]:
            with pytest.raises(ParseError) as info:
                E(bad)
            assert info.value.pos == pos, bad

    def test_equality_across_validation(self):
        assert E("2_1") == S("2_1")
        assert hash(E("2_1")) == hash(S("2_1"))

    def test_json_roundtrip(self):
        t = E("1_0,4_1^2")
        assert EpsilonTaggedType.from_json(t.to_json()) == t

    def test_jordan_forgets_tags(self):
        assert str(S("2_0^2,8_1").jordan()) == "2^2,8"


def _reference_symplectic_error(entries) -> tuple[type, str] | None:
    """What SymplecticType(entries) raised when it validated in two loops, or None.

    The first loop checks the tagged-type laws entry by entry; the second
    then names the first untagged size of odd multiplicity.
    """
    prev = 0
    for d, m, e in entries:
        if d <= prev:
            return ValueError, f"sizes must be positive and strictly increasing, got {d} after {prev}"
        if m < 1:
            return ValueError, f"multiplicity of size {d} must be positive, got {m}"
        if e not in (0, 1):
            return ValueError, f"eps tag of size {d} must be 0 or 1, got {e}"
        if e == 1 and d % 2:
            return ValueError, f"eps = 1 is impossible on odd size {d}"
        prev = d
    for d, m, e in entries:
        if e == 0 and m % 2:
            return SymplecticConstraintError, f"size {d} has odd multiplicity {m} with eps = 0; odd multiplicity forces eps = 1"
    return None


def _raised(build, entries) -> tuple[type, str] | None:
    try:
        build(entries)
    except Exception as err:
        return type(err), str(err)
    return None


@st.composite
def _entry_tuples(draw):
    """Increasing sizes with multiplicities and tags that are mostly lawful, and then maybe a few faults."""
    sizes = sorted(draw(st.lists(st.integers(1, 12), unique=True, max_size=6)))
    entries = [[d, draw(st.integers(1, 4)), draw(st.integers(0, 1)) if d % 2 == 0 else 0] for d in sizes]
    for _ in range(draw(st.integers(0, 2)) if entries else 0):
        entry = draw(st.sampled_from(entries))
        field = draw(st.integers(0, 2))
        entry[field] = draw(st.integers(-1, 13) if field == 0 else st.integers(-1, 2))
    return tuple(tuple(entry) for entry in entries)


class TestOneLoopValidation:
    """SymplecticType validates in one pass and raises what its two loops raised: class, message, and which error wins."""

    @given(_entry_tuples())
    @settings(max_examples=500, deadline=None)
    @example(((2, 1, 0), (3, 1, 1)))  # a parity fault before a tagged-type fault: the latter wins
    @example(((2, 1, 0), (4, 3, 0), (6, 0, 1)))
    @example(((1, 2, 0), (2, 1, 0), (4, 3, 0)))  # two parity faults: the first is named
    def test_matches_two_loop_reference(self, entries):
        want = _reference_symplectic_error(entries)
        assert _raised(SymplecticType, entries) == want
        if want is None or want[0] is SymplecticConstraintError:
            assert _raised(EpsilonTaggedType, entries) is None
        else:
            assert _raised(EpsilonTaggedType, entries) == want

    def test_parity_error_names_the_first_odd_untagged_size(self):
        with pytest.raises(SymplecticConstraintError) as info:
            SymplecticType(((1, 2, 0), (2, 1, 0), (4, 3, 0)))
        assert info.value.size == 2


class TestOrthogonalSum:
    def test_normalization(self):
        # one tagged copy absorbs hyperbolic copies of the same size
        assert orthogonal_sum(vtype(4), wtype(4)) == S("4_1^3")
        assert orthogonal_sum(wtype(3), wtype(3)) == S("3_0^4")
        assert orthogonal_sum(vtype(2), wtype(5)) == S("2_1,5_0^2")

    @given(symplectic_classes, symplectic_classes)
    @settings(max_examples=40, deadline=None)
    def test_commutative_and_jordan_additive(self, s1, s2):
        out = orthogonal_sum(s1, s2)
        assert out == orthogonal_sum(s2, s1)
        assert out.dimension() == s1.dimension() + s2.dimension()
        assert out.jordan().to_dict() == {
            d: s1.jordan().to_dict().get(d, 0) + s2.jordan().to_dict().get(d, 0)
            for d in set(s1.jordan().sizes()) | set(s2.jordan().sizes())
        }

    @given(symplectic_classes, symplectic_classes, symplectic_classes)
    @settings(max_examples=30, deadline=None)
    def test_associative(self, s1, s2, s3):
        assert orthogonal_sum(orthogonal_sum(s1, s2), s3) == orthogonal_sum(s1, orthogonal_sum(s2, s3))


class TestTensorBilinear:
    @pytest.mark.parametrize(
        "left,right,want",
        [
            ("2_1", "4_1", "4_0^2"),
            ("2_1", "6_1", "6_1^2"),
            ("6_1", "10_1", "8_0^4,14_1^2"),
            ("3_0^2", "4_1", "4_0^6"),
        ],
    )
    def test_examples(self, left, right, want):
        assert str(tensor_bilinear(S(left), S(right))) == want

    def test_v2_family(self):
        # one factor a tagged 2-block: hyperbolic for even k, tagged pair for odd k
        for k in range(1, 80):
            got = tensor_bilinear(vtype(2), vtype(2 * k))
            want = wtype(2 * k) if k % 2 == 0 else vtype(2 * k, 2)
            assert got == want, k

    def test_v4_family(self):
        for k in range(2, 80):
            got = tensor_bilinear(vtype(4), vtype(2 * k))
            r = k % 4
            if r == 0:
                want = wtype(2 * k, 2)
            elif r == 2:
                want = vtype(2 * k, 4)
            else:
                want = orthogonal_sum(wtype(2 * k - 2), wtype(2 * k + 2))
            assert got == want, k

    def test_v6_family(self):
        for k in range(3, 80):
            got = tensor_bilinear(vtype(6), vtype(2 * k))
            r = k % 4
            if r == 0:
                want = wtype(2 * k, 3)
            elif r == 1:
                want = orthogonal_sum(wtype(2 * k - 2, 2), vtype(2 * k + 4, 2))
            elif r == 2:
                want = orthogonal_sum(wtype(2 * k - 4), wtype(2 * k), wtype(2 * k + 4))
            else:
                want = orthogonal_sum(vtype(2 * k - 4, 2), wtype(2 * k + 2, 2))
            assert got == want, k

    @given(symplectic_classes, symplectic_classes)
    @settings(max_examples=40, deadline=None)
    def test_commutes_and_forgets_to_tensor(self, s1, s2):
        out = tensor_bilinear(s1, s2)
        assert out == tensor_bilinear(s2, s1)
        assert out.jordan() == tensor(s1.jordan(), s2.jordan())

    @given(st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=24))
    @settings(max_examples=40, deadline=None)
    def test_tagged_pair_product_shape(self, l, k):
        # products of two tagged single blocks have even sizes and even multiplicities
        out = tensor_bilinear(vtype(2 * l), vtype(2 * k))
        assert all(d % 2 == 0 and m % 2 == 0 for d, m, _ in out.entries)

    @given(symplectic_classes, symplectic_classes)
    @settings(max_examples=40, deadline=None)
    def test_hyperbolic_factor_spreads(self, s1, s2):
        # if both factors are all-hyperbolic the product has no tags at all
        if all(e == 0 for _, _, e in s1.entries) and all(e == 0 for _, _, e in s2.entries):
            out = tensor_bilinear(s1, s2)
            assert all(e == 0 for _, _, e in out.entries)

    @given(symplectic_classes, symplectic_classes, symplectic_classes)
    @settings(max_examples=25, deadline=None)
    def test_associative(self, s1, s2, s3):
        left = tensor_bilinear(tensor_bilinear(s1, s2), s3)
        right = tensor_bilinear(s1, tensor_bilinear(s2, s3))
        assert left == right

    @given(symplectic_classes, symplectic_classes, symplectic_classes)
    @settings(max_examples=25, deadline=None)
    def test_distributes_over_orthogonal_sum(self, s1, s2, s3):
        left = tensor_bilinear(orthogonal_sum(s1, s2), s3)
        right = orthogonal_sum(tensor_bilinear(s1, s3), tensor_bilinear(s2, s3))
        assert left == right


    @given(_classes_up_to(120), _classes_up_to(120))
    @settings(max_examples=300, deadline=None)
    @example(SymplecticType(), SymplecticType())
    @example(SymplecticType(), S("2_1,3_0^2"))
    @example(S("6_1"), S("10_1"))  # V x V, halves 3 and 5 of equal 2-adic valuation
    @example(S("12_1"), S("20_1^3"))  # halves 6 and 10, both of valuation 1
    @example(S("2_1"), S("4_1"))  # halves 1 and 2 of unequal valuation
    @example(S("1_0^2,4_1,6_0^2,8_1^3"), S("2_1^3,5_0^4,12_1"))
    def test_agrees_with_the_piecewise_reference(self, s1, s2):
        assert tensor_bilinear(s1, s2) == reference_tensor_bilinear(s1, s2)

    def test_tagged_block_multiplicity_is_checked(self, monkeypatch):
        # a tag size that V(2) x V(2) does not hold twice is reported, not tagged
        monkeypatch.setattr(hesselink, "v_product_tag", lambda h1, h2: 4)
        with pytest.raises(RuntimeError, match=r"^tagged block of 2 x 2 has multiplicity 0$"):
            tensor_bilinear(vtype(2), vtype(2))


class TestRestrictInduce:
    @pytest.mark.parametrize(
        "text,alpha,want",
        [
            ("4_1", 1, "2_1^2"),
            ("6_1", 1, "3_0^2"),
            ("8_1", 2, "2_1^4"),
            ("2_1", 2, "1_0^2"),  # block smaller than the power: trivial action remains
            ("2_1", 3, "1_0^2"),
        ],
    )
    def test_restrict(self, text, alpha, want):
        assert str(restrict_bilinear(S(text), alpha)) == want

    @pytest.mark.parametrize(
        "text,alpha,want",
        [("3_0^2", 1, "6_0^2"), ("2_1", 2, "8_1"), ("1_0^2,4_1", 1, "2_0^2,8_1")],
    )
    def test_induce(self, text, alpha, want):
        assert str(induce_bilinear(S(text), alpha)) == want

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            restrict_bilinear(S("2_1"), 0)
        with pytest.raises(ValueError):
            induce_bilinear(S("2_1"), 0)

    @given(symplectic_classes, st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_forgetting_commutes(self, s, alpha):
        assert restrict_bilinear(s, alpha).jordan() == restrict_power(s.jordan(), alpha)
        assert induce_bilinear(s, alpha).jordan() == induce_power(s.jordan(), alpha)

    @given(symplectic_classes, st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_restriction_transitive(self, s, a, b):
        assert restrict_bilinear(restrict_bilinear(s, a), b) == restrict_bilinear(s, a + b)

    @given(symplectic_classes, st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_induction_transitive(self, s, a, b):
        assert induce_bilinear(induce_bilinear(s, a), b) == induce_bilinear(s, a + b)


class TestAlpha:
    @pytest.mark.parametrize(
        "text,want",
        [("2_1", 0), ("4_1", 1), ("2_0^2,8_1", 1), ("8_0^2", 3), ("1_0^2,2_1", 0)],
    )
    def test_values(self, text, want):
        assert alpha_of(S(text)) == want


class TestMergeTagged:
    def test_degenerate_merge(self):
        # tagged-level merge is defined even for non-symplectic data
        out = merge_tagged(E("1_0,4_1^2"), E("1_0^2"))
        assert out == E("1_0^3,4_1^2")
