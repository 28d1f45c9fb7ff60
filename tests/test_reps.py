"""Tests for the two classification engines."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sp2forms import reps
from sp2forms.enumeration import class_counts, jordan_types, symplectic_types
from sp2forms.hesselink import (
    EpsilonTaggedType,
    SymplecticType,
    _tag,
    alpha_of,
    merge_tagged,
    tensor_bilinear,
    validate_symplectic,
    wtype,
)
from sp2forms.jordan import (
    JordanType,
    gcd_valuation,
    grow_tensor_square,
    grow_wedge_square,
    nu2,
    tensor,
    wedge_square,
)
from sp2forms.reps import DualTensorClasses, WedgeSquareClasses, _subquotient, dual_tensor_classes, wedge_square_classes

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


# The dict-based fixed-vector step and the two rules as they were written
# before the rules took one pass over their input and sliced the subquotient
# from the square's sorted entries.  The rules look up _own_tags,
# v_product_tag and square_multiplicities in reps when they run, so a patch of
# reps reaches both the rules under test and these references.


def _reference_subquotient(lam, tagged, n, alpha, square):
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


def _reference_dual_tensor_classes(j):
    n = j.dimension()
    if n < 2:
        raise ValueError(f"need a non-empty type of dimension at least 2, got dimension {n}")
    lam = reps.square_multiplicities(grow_tensor_square, j.blocks)
    alpha = gcd_valuation(j.sizes())
    tagged = set().union(*[reps._own_tags(d, 0) for d, _ in j.blocks])
    lam_sub, tagged_sub = _reference_subquotient(lam, tagged, n, alpha, "tensor")
    full = EpsilonTaggedType(_tag(lam, tagged))
    irr = SymplecticType(_tag(lam_sub, tagged_sub))
    return DualTensorClasses(tensor_space=full, irreducible=irr, alpha=alpha)


def _reference_wedge_square_classes(s):
    dim = s.dimension()
    if dim < 4:
        raise ValueError(f"need dimension at least 4, got {dim}")
    n = dim // 2
    alpha = alpha_of(s)
    lam = reps.square_multiplicities(grow_wedge_square, [(d, m) for d, m, _ in s.entries])

    tagged = set().union(*[reps._own_tags(d, e) for d, _, e in s.entries])
    v_sizes = [(d, m) for d, m, e in s.entries if e]
    for i, (d1, m1) in enumerate(v_sizes):
        for d2, _ in v_sizes[i + (m1 < 2):]:
            if tag := reps.v_product_tag(d1, d2):
                tagged.add(tag)

    lam_sub, tagged_sub = _reference_subquotient(lam, tagged, n, alpha, "wedge")
    if n % 2 == 0 and alpha:
        a = 1 << alpha
        if a not in tagged:
            raise RuntimeError(f"size {a} should always be tagged on the wedge square")
        if not any(nu2(d) == alpha for d, _, e in s.entries if not e):
            tagged_sub.discard(a)

    full = EpsilonTaggedType(_tag(lam, tagged))
    irr = SymplecticType(_tag(lam_sub, tagged_sub))
    return WedgeSquareClasses(wedge_space=full, irreducible=irr, alpha=alpha)


def _outcome(f, *args):
    """f's result, or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


def _reference_step(lam, tagged, n, alpha, square, keep=1):
    """The reference step as sorted entries; keep = 0 drops 2^alpha as the wedge rule did after the step."""
    lam_sub, tagged_sub = _reference_subquotient(lam, tagged, n, alpha, square)
    if not keep and n % 2 == 0 and alpha:
        tagged_sub.discard(1 << alpha)
    return _tag(lam, tagged), _tag(lam_sub, tagged_sub)


def _rule_steps(monkeypatch):
    """Every (lam, tagged, n, alpha, square, keep) the two rules hand to the step: types to n = 14, classes to 24."""
    calls = []

    def record(*args):
        calls.append(args)
        return _subquotient(*args)

    monkeypatch.setattr(reps, "_subquotient", record)
    for n in range(2, 15):
        for j in jordan_types(n):
            dual_tensor_classes(j)
    for dim in range(4, 25, 2):
        for s in symplectic_types(dim):
            wedge_square_classes(s)
    return calls


# The five errors of the step, one case each, and the six branches.
STEP_ERRORS = [
    ({1: 1, 2: 2}, set(), 4, 0, "tensor", "cannot remove 2 blocks of size 1 from {1: 1, 2: 2}"),
    ({2: 2, 4: 1}, {4}, 8, 2, "wedge", "cannot remove 2 blocks of size 4 from {2: 2, 4: 1}"),
    ({1: 2}, {4}, 4, 0, "wedge", "tagged sizes {4} missing from the wedge square"),
    ({2: 1, 4: 4}, {2, 4}, 4, 2, "tensor", "size 2 should not be tagged on the tensor square"),
    ({2: 1, 4: 4}, {2, 4}, 8, 2, "wedge", "size 2 should not be tagged on the wedge square"),
]

STEP_BRANCHES = [
    ({1: 3, 4: 2}, {4}, 3, 0, {1: 2, 4: 2}, {4}),  # n odd: one 1-block goes
    ({1: 2, 3: 2}, set(), 4, 0, {3: 2}, set()),  # alpha 0, n even: two 1-blocks go
    ({4: 3, 8: 2}, {4, 8}, 8, 2, {3: 2, 4: 1, 8: 2}, {4, 8}),  # n / 2^alpha even: two untagged 3-blocks
    ({2: 2}, {2}, 2, 1, {2: 1}, {2}),  # halving with alpha 1: one 2-block goes, none is added
    ({4: 4}, {4}, 4, 2, {2: 1, 4: 3}, {2, 4}),  # halving with alpha 2: a 4-block becomes a tagged 2-block
    ({2: 1, 8: 5}, {8}, 24, 3, {2: 1, 6: 1, 8: 4}, {6, 8}),  # halving with alpha 3, n / 8 = 3
]


@st.composite
def _step_args(draw):
    """A square, its tags, n, alpha, the square's name and keep, drawn so that every branch and error is reached.

    The square's sizes are mostly drawn near the size the step removes, its
    dict in any order; the tags are mostly its own sizes, sometimes a missing
    size or the forbidden 2^alpha - 2.
    """
    alpha = draw(st.integers(min_value=0, max_value=4))
    n = draw(st.integers(min_value=1, max_value=5)) << draw(st.integers(min_value=0, max_value=alpha + 1))
    top = 1 << alpha
    near = [1, top, max(1, top - 1), max(1, top - 2), top + 1, 2 * top]
    sizes = draw(st.lists(st.sampled_from(near) | st.integers(min_value=1, max_value=40), max_size=6, unique=True))
    if draw(st.integers(min_value=0, max_value=4)):  # mostly, enough blocks to remove
        sizes.append(1 if n % 2 or not alpha else top)
    lam = {d: draw(st.integers(min_value=1, max_value=4)) for d in draw(st.permutations(list(dict.fromkeys(sizes))))}
    tagged = set(draw(st.lists(st.sampled_from(sorted(lam)), unique=True))) if lam else set()
    tagged |= set(draw(st.lists(st.sampled_from([max(1, top - 2), 41]), max_size=1)))
    return lam, tagged, n, alpha, draw(st.sampled_from(["tensor", "wedge"])), draw(st.integers(0, 1))


class TestSubquotientStep:
    """The fixed-vector step that both engines share, on hand-computed squares and against the dict-based reference."""

    @pytest.mark.parametrize("lam,tagged,n,alpha,want_lam,want_tagged", STEP_BRANCHES)
    def test_branches(self, lam, tagged, n, alpha, want_lam, want_tagged):
        before = (dict(lam), set(tagged))
        assert _subquotient(lam, tagged, n, alpha, "tensor") == (_tag(lam, tagged), _tag(want_lam, want_tagged))
        assert (lam, tagged) == before  # the caller's square and tags are left alone

    def test_leaves_the_square_alone(self):
        # every branch, with the 2^alpha tag kept and dropped: the square, its
        # tags and its dict order are unchanged, and the first result is the square's entries
        for lam, tagged, n, alpha, _, _ in STEP_BRANCHES:
            for keep in (0, 1):
                before = (list(lam.items()), set(tagged))
                full, _ = _subquotient(lam, tagged, n, alpha, "wedge", keep)
                assert (list(lam.items()), tagged) == before
                assert full == _tag(lam, tagged)

    @pytest.mark.parametrize(
        "lam,tagged,n,alpha,want",
        [
            ({4: 4}, {4}, 4, 2, ((2, 1, 1), (4, 3, 0))),  # halving: the remaining 4-blocks lose the tag
            ({4: 3, 8: 2}, {4, 8}, 8, 2, ((3, 2, 0), (4, 1, 0), (8, 2, 1))),  # even: likewise
            ({2: 1, 4: 4}, {4}, 4, 2, ((2, 2, 1), (4, 3, 0))),  # halving onto an existing 2-block
            ({2: 2}, {2}, 2, 1, ((2, 1, 0),)),  # halving with alpha 1
            ({4: 2, 8: 1}, {4, 8}, 8, 2, ((3, 2, 0), (8, 1, 1))),  # every 4-block goes
            ({1: 3, 4: 2}, {1, 4}, 3, 0, ((1, 2, 1), (4, 2, 1))),  # n odd: keep has no say
            ({1: 2, 2: 2}, {1, 2}, 4, 0, ((2, 2, 1),)),  # alpha 0: keep has no say
        ],
    )
    def test_drop_of_the_top_tag(self, lam, tagged, n, alpha, want):
        assert _subquotient(lam, tagged, n, alpha, "wedge", 0) == (_tag(lam, tagged), want)
        assert _subquotient(lam, tagged, n, alpha, "wedge", 0) == _reference_step(lam, tagged, n, alpha, "wedge", 0)

    @pytest.mark.parametrize("lam,tagged,n,alpha,square,message", STEP_ERRORS)
    def test_errors(self, lam, tagged, n, alpha, square, message):
        with pytest.raises(RuntimeError) as exc:
            _subquotient(lam, tagged, n, alpha, square)
        assert str(exc.value) == message

    def test_matches_reference_on_every_rule_square(self, monkeypatch):
        calls = _rule_steps(monkeypatch)
        assert len(calls) == sum(class_counts(14)[2:]) + sum(class_counts(24, symplectic=True)[4:])
        assert {args[5] for args in calls if len(args) == 6} == {0, 1}  # the wedge rule both keeps and drops
        for args in calls:
            assert _subquotient(*args) == _reference_step(*args), args

    @given(_step_args())
    @settings(max_examples=600, deadline=None)
    @example((*STEP_BRANCHES[0][:4], "tensor", 1))
    @example((*STEP_BRANCHES[1][:4], "wedge", 0))
    @example((*STEP_BRANCHES[2][:4], "wedge", 0))
    @example((*STEP_BRANCHES[3][:4], "wedge", 0))
    @example((*STEP_BRANCHES[4][:4], "wedge", 1))
    @example(({2: 1, 4: 4, 8: 5}, {8}, 24, 3, "wedge", 0))
    @example(({8: 5, 2: 1, 6: 2}, {6, 8}, 24, 3, "wedge", 1))
    @example((*STEP_ERRORS[0][:5], 1))
    @example((*STEP_ERRORS[1][:5], 0))
    @example((*STEP_ERRORS[2][:5], 1))
    @example((*STEP_ERRORS[3][:5], 1))
    @example((*STEP_ERRORS[4][:5], 0))
    @example(({4: 1, 1: 2}, {2, 4}, 8, 2, "tensor", 1))  # a missing tag and too few blocks: the tag is reported
    @example(({4: 1, 2: 2}, {2, 4}, 8, 2, "wedge", 1))  # too few blocks and a forbidden tag: the blocks are reported
    def test_matches_reference_on_drawn_squares(self, args):
        # same entries, or the same exception type and message
        assert _outcome(_subquotient, *args) == _outcome(_reference_step, *args)


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


def _same_outcome(rule, reference, x):
    """rule(x) and reference(x) give equal results, down to field types and int tags, or raise alike."""
    got, want = _outcome(rule, x), _outcome(reference, x)
    assert repr(got) == repr(want), x
    return got


@st.composite
def _query_jordan(draw):
    """A Jordan type of dimension 2 to 120, built as the benchmark's query stream builds its inputs."""
    counts: dict[int, int] = {}
    left = draw(st.integers(min_value=2, max_value=120))
    while left:
        d = draw(st.integers(min_value=1, max_value=left))
        m = draw(st.integers(min_value=1, max_value=min(3, left // d)))
        counts[d] = counts.get(d, 0) + m
        left -= d * m
    return JordanType(tuple(sorted(counts.items())))


@st.composite
def _query_symplectic(draw):
    """A symplectic class of even dimension 4 to 120, built as the benchmark's query stream builds its inputs."""
    counts: dict[int, int] = {}
    left = 2 * draw(st.integers(min_value=2, max_value=60))
    while left:
        d = draw(st.integers(min_value=1, max_value=left))
        if d % 2 and 2 * d > left:
            d -= 1
        step = 2 if d % 2 else 1
        m = step * draw(st.integers(min_value=1, max_value=min(3, left // (d * step))))
        counts[d] = counts.get(d, 0) + m
        left -= d * m
    return SymplecticType(
        tuple((d, m, 0 if d % 2 else (1 if m % 2 else draw(st.integers(0, 1)))) for d, m in sorted(counts.items()))
    )


class TestRulesAgreeWithReference:
    """Both rules against their dict-based references: results, alpha, exception types and messages."""

    def test_every_jordan_type_to_14(self):
        count = 0
        for n in range(15):
            for j in [JordanType(())] if n == 0 else jordan_types(n):
                res = _same_outcome(dual_tensor_classes, _reference_dual_tensor_classes, j)
                if n >= 2:
                    assert res.alpha == gcd_valuation(j.sizes())
                    count += 1
        assert count == 506

    def test_every_class_to_24(self):
        count = 0
        for dim in range(0, 25, 2):
            for s in [SymplecticType(())] if dim == 0 else symplectic_types(dim):
                res = _same_outcome(wedge_square_classes, _reference_wedge_square_classes, s)
                if dim >= 4:
                    assert res.alpha == alpha_of(s) == gcd_valuation([d >> e for d, _, e in s.entries])
                    count += 1
        assert count == 2256

    @given(_query_jordan())
    @settings(max_examples=300, deadline=None)
    def test_query_shaped_jordan_types(self, j):
        assert _same_outcome(dual_tensor_classes, _reference_dual_tensor_classes, j).alpha == gcd_valuation(j.sizes())

    @given(_query_symplectic())
    @settings(max_examples=300, deadline=None)
    def test_query_shaped_classes(self, s):
        assert _same_outcome(wedge_square_classes, _reference_wedge_square_classes, s).alpha == alpha_of(s)


def _own_tags_as(table):
    """A stand-in for reps._own_tags: the tags of (d, e) from table, else none."""
    return lambda d, e: frozenset(table.get((d, e), ()))


def _square_with(changes):
    """A stand-in for reps.square_multiplicities: the real square with some multiplicities set, in grown order."""
    real = reps.square_multiplicities

    def grown(grow, blocks):
        lam = real(grow, blocks)
        lam.update(changes)
        return lam

    return grown


class TestRuleErrors:
    """Each RuntimeError of the rules reached through the public rules, with the reference's message and order."""

    @pytest.mark.parametrize(
        "rule,text,own,product,square,message",
        [
            # a tag outside the square, from a summand's own tags and from a V x V cross term
            ("tensor", "3", {(3, 0): (40, 8, 72)}, None, None, "tagged sizes {40, 8, 72} missing from the tensor square"),
            ("wedge", "2_1^2", None, 99, None, "tagged sizes {99} missing from the wedge square"),
            # too few blocks to remove; the square prints in grown order, 2 before 1
            ("tensor", "2,3", None, None, {1: 0}, "cannot remove 1 blocks of size 1 from {2: 4, 1: 0, 4: 4}"),
            ("wedge", "4_0^2", None, None, {4: 0}, "cannot remove 1 blocks of size 4 from {2: 2, 4: 0}"),
            # 2^alpha - 2 tagged on the square
            ("tensor", "4", {(4, 0): (2, 4)}, None, {2: 1}, "size 2 should not be tagged on the tensor square"),
            ("wedge", "4_0^2", {(4, 0): (2, 4)}, None, None, "size 2 should not be tagged on the wedge square"),
            # 2^alpha untagged on the wedge square
            ("wedge", "4_0^2", {}, None, None, "size 4 should always be tagged on the wedge square"),
            # two faults at once: the earlier check reports
            ("tensor", "4", {(4, 0): (2, 4)}, None, {4: 0}, "tagged sizes {2} missing from the tensor square"),
            ("wedge", "4_0^2", {(4, 0): (2,)}, None, None, "size 2 should not be tagged on the wedge square"),
            ("wedge", "4_0^2", {(4, 0): (4,)}, None, {4: 0}, "cannot remove 1 blocks of size 4 from {2: 2, 4: 0}"),
            # a step fault or the 2^alpha check before the full type's own fault (eps = 1 on size 1)
            ("tensor", "2,3", {(3, 0): (1,)}, None, {1: 0}, "cannot remove 1 blocks of size 1 from {2: 4, 1: 0, 4: 4}"),
            ("wedge", "2_0^2", {(2, 0): (1,)}, None, None, "size 2 should always be tagged on the wedge square"),
        ],
    )
    def test_raised_through_the_rule(self, monkeypatch, rule, text, own, product, square, message):
        if own is not None:
            monkeypatch.setattr(reps, "_own_tags", _own_tags_as(own))
        if product is not None:
            monkeypatch.setattr(reps, "v_product_tag", lambda d1, d2: product)
        if square is not None:
            monkeypatch.setattr(reps, "square_multiplicities", _square_with(square))
        if rule == "tensor":
            x, f, ref = J(text), dual_tensor_classes, _reference_dual_tensor_classes
        else:
            x, f, ref = S(text), wedge_square_classes, _reference_wedge_square_classes
        assert _outcome(f, x) == _outcome(ref, x) == (RuntimeError, message)

    def test_full_type_fault_alone(self, monkeypatch):
        # with no step fault, the full type's own validation reports
        monkeypatch.setattr(reps, "_own_tags", _own_tags_as({(3, 0): (1,)}))
        want = (ValueError, "eps = 1 is impossible on odd size 1")
        assert _outcome(dual_tensor_classes, J("3")) == _outcome(_reference_dual_tensor_classes, J("3")) == want
