"""Tests for the GF(2) matrix layer and its agreement with the combinatorics."""

import functools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp2forms.crosscheck import sweep_tasks
from sp2forms.enumeration import jordan_types, symplectic_types
from sp2forms.hesselink import EpsilonTaggedType, SymplecticType, vtype, wtype
from sp2forms.jordan import JordanType, restrict_power, tensor, wedge_square
from sp2forms.oracle import (
    BilinearSpace,
    Gf2Matrix,
    build_v,
    build_w,
    dual_tensor_space,
    epsilon_of_space,
    hesselink_of_space,
    jordan_block_matrix,
    jordan_type_of,
    matrix_power,
    subquotient,
    space_from_type,
    tensor_space,
    unipotent_from_jordan,
    wedge_matrix,
    wedge_space,
    _bit_transpose,
    _block_diag,
    _combine,
    _pair_offsets,
    _power_chain,
    _scatter,
    _wedge_pairs,
)

J = JordanType.parse
S = SymplecticType.parse
E = EpsilonTaggedType.parse


def from_lists(entries: list[list[int]]) -> Gf2Matrix:
    """The matrix with the given 0/1 entries, row by row."""
    ncols = len(entries[0]) if entries else 0
    return Gf2Matrix(len(entries), ncols, (sum(x << j for j, x in enumerate(row)) for row in entries))


def from_columns(nrows: int, cols: list[int]) -> Gf2Matrix:
    """The nrows x len(cols) matrix whose column j is the bitset cols[j]."""
    return Gf2Matrix(len(cols), nrows, cols).transpose()


def direct_sum(a: BilinearSpace, b: BilinearSpace) -> BilinearSpace:
    """Orthogonal direct sum: block-diagonal operator and Gram matrix."""
    return BilinearSpace(_block_diag([a.u, b.u]), _block_diag([a.gram, b.gram]))


def _random_matrix(rng, n, ncols=None):
    ncols = n if ncols is None else ncols
    return Gf2Matrix(n, ncols, (rng.getrandbits(ncols) for _ in range(n)))


def _random_invertible(rng, n):
    while True:
        p = _random_matrix(rng, n)
        if p.rank() == n:
            return p


def _random_jordan_type(rng, n):
    sizes = []
    while n:
        sizes.append(rng.randint(1, min(n, 12)))
        n -= sizes[-1]
    return JordanType.from_dict(Counter(sizes))


def _conjugate(a: BilinearSpace, p: Gf2Matrix) -> BilinearSpace:
    """The same space on the basis change p: P u P^-1 with the form P^-T G P^-1."""
    pinv = p.inverse()
    return BilinearSpace(p.mul(a.u).mul(pinv), pinv.transpose().mul(a.gram).mul(pinv))


def _reference_subquotient(a: BilinearSpace, v: int) -> BilinearSpace:
    """(perp of v) / (span of v) through the inclusion of the perp basis.

    The perp basis is k_i = e_i + f_i e_q as in :func:`subquotient`; the
    operator's column i is the coordinate vector of u k_i, and the Gram
    matrix is inclusion . G . inclusion^T, with the k_i as the rows of the
    inclusion.
    """
    f = a.gram.matvec(v)
    fq = f & -f
    rest = v & ~fq
    p = (rest & -rest).bit_length() - 1
    dropped = sorted({p, fq.bit_length() - 1} - {-1}, reverse=True)

    def coords(x):
        if (x >> p) & 1:
            x ^= v
        for b in dropped:
            x = (x & ((1 << b) - 1)) | (x >> (b + 1) << b)
        return x

    basis = [(1 << i) | (fq if (f >> i) & 1 else 0) for i in range(a.dim) if i not in dropped]
    k = len(basis)
    u = from_columns(k, [coords(a.u.matvec(b)) for b in basis])
    inclusion = Gf2Matrix(k, a.dim, basis)
    return BilinearSpace(u, inclusion.mul(a.gram).mul(inclusion.transpose()))


def _same_span(xs, ys, n):
    return len(xs) == len(ys) == Gf2Matrix(len(xs) + len(ys), n, xs + ys).rank()


# The checks and the wedge kernel as sp2forms.oracle had them before its walks
# were batched, kept as references: invariance one column of u^T G u at a
# time, symmetry against a freshly built transpose, and one x ^ y per call.


def _xor_selected(vectors, select):
    acc = 0
    while select:
        low = select & -select
        acc ^= vectors[low.bit_length() - 1]
        select ^= low
    return acc


def _reference_echelon(vectors):
    """The elimination as sp2forms.oracle had it before rank, kernel and inverse shared one kernel.

    Input i carries the tag 1 << i beside its vector; pivots maps the highest
    bit of each reduced vector to (vector, tag), and the tags of the inputs
    that reduce to zero are returned as the dependencies.
    """
    pivots = {}
    dependencies = []
    for idx, w in enumerate(vectors):
        tag = 1 << idx
        while w:
            b = w.bit_length() - 1
            hit = pivots.get(b)
            if hit is None:
                pivots[b] = (w, tag)
                break
            w ^= hit[0]
            tag ^= hit[1]
        else:
            dependencies.append(tag)
    return pivots, dependencies


def reference_space_check(u: Gf2Matrix, gram: Gf2Matrix) -> str | None:
    """The message BilinearSpace(u, gram) should raise, or None when it should accept."""
    n = u.nrows
    if u.ncols != n or gram.nrows != n or gram.ncols != n:
        return "operator and Gram matrix must be square of equal size"
    g = gram.rows
    if g != Gf2Matrix(n, n, g).transpose().rows:
        return "Gram matrix must be symmetric"
    if any((g[i] >> i) & 1 for i in range(n)):
        return "Gram matrix must have zero diagonal (alternating form)"
    # column j of u^T G u is u^T G (u e_j); G is symmetric, so its rows are
    # its columns, and the rows of u are the columns of u^T
    ut = u.rows
    if any(_xor_selected(ut, _xor_selected(g, c)) != g[j] for j, c in enumerate(Gf2Matrix(n, n, ut).cols)):
        return "form is not invariant under the operator"
    return None


def reference_wedge(x: int, y: int, offsets: list[int]) -> int:
    """Coordinates of x ^ y in the e_i ^ e_j basis: x_i y_j + x_j y_i at (i, j)."""
    acc = 0
    both = x | y
    while both:
        low = both & -both
        i = low.bit_length() - 1
        run = (y if x & low else 0) ^ (x if y & low else 0)
        acc ^= (run >> (i + 1)) << offsets[i]
        both ^= low
    return acc


# Entry-by-entry definitions of the wedge square, kept as the reference for
# the column-wise construction in sp2forms.oracle.  The reference fixed
# vector is built from an explicit symplectic basis; the library reads it off
# the inverse Gram matrix.


def symplectic_basis(gram: Gf2Matrix) -> list[int]:
    """A basis f_1..f_2n with form(f_i, f_j) = 1 exactly when i + j = 2n + 1.

    Hyperbolic-pair extraction: repeatedly pick a vector, find a partner
    pairing to 1, and clear both from the remaining vectors.  Requires a
    non-degenerate alternating Gram matrix.
    """
    m = gram.nrows
    if m % 2:
        raise ValueError("non-degenerate alternating form needs even dimension")
    remaining = [1 << i for i in range(m)]
    pairs = []
    while remaining:
        x = remaining.pop(0)
        gx = gram.matvec(x)
        partner = next((idx for idx, y in enumerate(remaining) if (gx & y).bit_count() & 1), None)
        if partner is None:
            raise ValueError("Gram matrix is degenerate")
        y = remaining.pop(partner)
        gy = gram.matvec(y)
        remaining = [
            w ^ (x if (gy & w).bit_count() & 1 else 0) ^ (y if (gx & w).bit_count() & 1 else 0) for w in remaining
        ]
        pairs.append((x, y))
    basis = [0] * m
    for i, (x, y) in enumerate(pairs):
        basis[i] = x
        basis[m - 1 - i] = y
    return basis


def _pair_index(m):
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    return {p: k for k, p in enumerate(pairs)}


def _reference_wedge_matrix(u):
    """(u ^ u)[(k, l), (i, j)] = u_ki u_lj + u_li u_kj."""
    index = _pair_index(u.nrows)
    rows = [0] * len(index)
    for (i, j), col in index.items():
        for (k, l), row in index.items():
            if (u.entry(k, i) & u.entry(l, j)) ^ (u.entry(l, i) & u.entry(k, j)):
                rows[row] |= 1 << col
    return Gf2Matrix(len(index), len(index), rows)


def _reference_wedge_vector(x, y, index):
    acc = 0
    for (i, j), col in index.items():
        if (((x >> i) & (y >> j)) ^ ((x >> j) & (y >> i))) & 1:
            acc |= 1 << col
    return acc


def _reference_wedge_space(a):
    """Gram entry g_ik g_jl + g_il g_jk plus phi_ij phi_kl, with phi_ij = g_ij."""
    m = a.dim
    index = _pair_index(m)
    g = a.gram
    phi = 0
    for (i, j), col in index.items():
        if g.entry(i, j):
            phi |= 1 << col
    g_rows = [0] * len(index)
    for (i, j), row in index.items():
        acc = 0
        for (k, l), col in index.items():
            if (g.entry(i, k) & g.entry(j, l)) ^ (g.entry(i, l) & g.entry(j, k)):
                acc |= 1 << col
        if (phi >> row) & 1:
            acc ^= phi
        g_rows[row] = acc
    basis = symplectic_basis(g)
    beta = 0
    for i in range(m // 2):
        beta ^= _reference_wedge_vector(basis[i], basis[m - 1 - i], index)
    return _reference_wedge_matrix(a.u), Gf2Matrix(len(index), len(index), g_rows), beta


class TestGf2Matrix:
    def test_mul_identity(self):
        rng = random.Random(7)
        for n in (1, 3, 8):
            m = _random_matrix(rng, n)
            eye = Gf2Matrix.identity(n)
            assert m.mul(eye) == m
            assert eye.mul(m) == m

    def test_inverse(self):
        rng = random.Random(1)
        found = 0
        while found < 20:
            m = _random_matrix(rng, 6)
            if m.rank() < 6:
                continue
            found += 1
            assert m.mul(m.inverse()) == Gf2Matrix.identity(6)
            assert m.inverse().mul(m) == Gf2Matrix.identity(6)

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError):
            Gf2Matrix(3, 3, [0, 0, 0]).inverse()

    def test_kernel(self):
        rng = random.Random(3)
        for _ in range(25):
            m = _random_matrix(rng, 7)
            basis = m.kernel_basis()
            assert len(basis) == 7 - m.rank()
            for v in basis:
                assert m.matvec(v) == 0
            # basis vectors are independent
            probe = Gf2Matrix(len(basis), 7, basis) if basis else None
            if probe:
                assert probe.rank() == len(basis)

    def test_transpose_and_kron(self):
        a = from_lists([[1, 1], [0, 1]])
        b = from_lists([[1, 0], [1, 1]])
        assert a.transpose().transpose() == a
        k = a.kron(b)
        for i in range(2):
            for j in range(2):
                for p in range(2):
                    for q in range(2):
                        assert k.entry(i * 2 + p, j * 2 + q) == a.entry(i, j) & b.entry(p, q)

    def test_matvec_matches_mul(self):
        rng = random.Random(5)
        for nrows, ncols in ((9, 9), (5, 9), (9, 5), (1, 7), (7, 1)):
            m = _random_matrix(rng, nrows, ncols)
            assert m.cols == m.transpose().rows
            assert from_columns(nrows, m.cols) == m
            for _ in range(10):
                v = rng.getrandbits(ncols)
                col = Gf2Matrix(ncols, 1, ((v >> i) & 1 for i in range(ncols)))
                want = m.mul(col)
                got = m.matvec(v)
                assert all(((got >> i) & 1) == want.entry(i, 0) for i in range(nrows))
                # bits past the last column select nothing
                assert m.matvec(v | 1 << ncols) == got

    def test_row_range_check(self):
        for rows in ([0, 8], [0, -1]):
            with pytest.raises(ValueError):
                Gf2Matrix(2, 3, rows)
        with pytest.raises(ValueError):
            from_columns(2, [1, 4])

    def test_ascii_grid(self):
        assert jordan_block_matrix(2).ascii_grid() == "11\n01"

    def test_jordan_type_of(self):
        assert jordan_type_of(Gf2Matrix.identity(3)) == J("1^3")
        assert jordan_type_of(unipotent_from_jordan(J("2,3^2"))) == J("2,3^2")
        # a transposition is unipotent over GF(2): (u - 1)^2 = u^2 - 1 = 0
        assert jordan_type_of(from_lists([[0, 1], [1, 0]])) == J("2")

    def test_non_unipotent_rejected(self):
        m = from_lists([[0, 1], [1, 1]])  # order 3, not unipotent
        with pytest.raises(ValueError):
            jordan_type_of(m)
        # it has determinant 1, so it preserves the hyperbolic plane's form
        with pytest.raises(ValueError):
            hesselink_of_space(BilinearSpace(m, build_w(1).gram))


class TestBilinearSpaceChecks:
    @pytest.mark.parametrize(
        "u,gram,message",
        [
            ([[1, 0], [0, 1]], [[0, 1], [0, 0]], "symmetric"),
            ([[1, 0], [0, 1]], [[1, 1], [1, 0]], "zero diagonal"),
            ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 1], [0, 0, 0], [1, 0, 0]], "invariant"),
            # asymmetry is reported before a diagonal bit, wherever the stray bit lies
            ([[1, 0], [0, 1]], [[1, 1], [0, 0]], "symmetric"),
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [1, 0, 0], [0, 0, 0]], "symmetric"),
            # every bit above the diagonal is mirrored, but the lower triangle has one more
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [1, 0, 0], [1, 0, 0]], "symmetric"),
        ],
    )
    def test_rejected(self, u, gram, message):
        with pytest.raises(ValueError, match=message):
            BilinearSpace(from_lists(u), from_lists(gram))

    def test_symmetric_gram_lends_its_rows(self):
        a = BilinearSpace(build_v(4).u, Gf2Matrix(4, 4, build_v(4).gram.rows))
        assert a.gram.cols is a.gram.rows


def _mirror_upper(rows: list[int]) -> list[int]:
    """The symmetric matrix with the upper triangle and diagonal of rows."""
    out = list(rows)
    for i, r in enumerate(rows):
        out[i] = r >> i << i
    for i, r in enumerate(rows):
        up = r >> (i + 1)
        while up:
            j = i + (up & -up).bit_length()
            out[j] |= 1 << i
            up &= up - 1
    return out


@st.composite
def gram_matrices(draw, n):
    """Square n x n matrices: symmetric or not, zero diagonal or not, maybe with one entry flipped."""
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = _mirror_upper(rows)
    if draw(st.booleans()):
        rows = [r & ~(1 << i) for i, r in enumerate(rows)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] ^= 1 << draw(st.integers(0, n - 1))
    return Gf2Matrix(n, n, rows)


@st.composite
def operator_gram_pairs(draw):
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        u = Gf2Matrix.identity(n)
    else:
        u = Gf2Matrix(n, n, draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
    return u, draw(gram_matrices(n))


KNOWN_SPACES = (
    [space_from_type(S(t)) for t in ("2_1", "4_1", "1_0^2,2_1", "2_0^2,4_1", "2_1^2,6_1")]
    + [wedge_space(space_from_type(S(t))).space for t in ("4_1", "1_0^2,2_1")]
    + [dual_tensor_space(unipotent_from_jordan(J(t))).space for t in ("2", "1,2", "3")]
)


def _outcome(u: Gf2Matrix, gram: Gf2Matrix) -> str | None:
    try:
        BilinearSpace(u, gram)
    except ValueError as err:
        return str(err)
    return None


class TestChecksAgreeWithReference:
    """BilinearSpace accepts and rejects exactly what :func:`reference_space_check` does, with its message."""

    @given(st.integers(1, 9).flatmap(gram_matrices))
    @settings(max_examples=200, deadline=None)
    def test_is_symmetric(self, m):
        fresh = Gf2Matrix(m.nrows, m.ncols, m.rows)
        assert _is_symmetric(fresh) == (fresh.rows == fresh.transpose().rows)
        identity = Gf2Matrix.identity(m.nrows)
        outcome = _outcome(identity, m)
        assert outcome == _parent_space_outcome(identity, fresh)
        if outcome is None:
            # an accepted Gram matrix lends its rows as its column view, which must then be right
            assert m.cols == fresh.transpose().rows

    def test_is_symmetric_rejects_non_square(self):
        assert not _is_symmetric(Gf2Matrix(2, 3, [0, 0]))
        assert not _is_symmetric(Gf2Matrix(3, 2, [0, 0, 0]))
        with pytest.raises(ValueError, match="square of equal size"):
            BilinearSpace(Gf2Matrix.identity(2), Gf2Matrix(2, 3, [0, 0]))

    @given(operator_gram_pairs())
    @settings(max_examples=200, deadline=None)
    def test_random_pairs(self, pair):
        u, gram = pair
        want = reference_space_check(u, Gf2Matrix(gram.nrows, gram.ncols, gram.rows))
        assert _outcome(u, gram) == want

    @given(
        st.sampled_from(KNOWN_SPACES),
        st.integers(0, 2**32),
        st.sampled_from(["none", "pair", "entry", "u"]),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_conjugated_spaces_with_a_flip(self, space, seed, flip, data):
        a = _conjugate(space, _random_invertible(random.Random(seed), space.dim))
        g = list(a.gram.rows)
        i = data.draw(st.integers(0, a.dim - 1))
        j = data.draw(st.integers(0, a.dim - 1))
        u = _flip_u(a.u, i, j) if flip == "u" else a.u
        if flip in ("pair", "entry"):
            g[i] ^= 1 << j
        if flip == "pair" and i != j:
            g[j] ^= 1 << i
        gram = Gf2Matrix(a.dim, a.dim, g)
        want = reference_space_check(u, Gf2Matrix(a.dim, a.dim, g))
        assert _outcome(u, gram) == want == _parent_space_outcome(u, Gf2Matrix(a.dim, a.dim, g))
        if flip == "none":
            assert want is None


class TestWedgePairs:
    @given(st.integers(0, 12).flatmap(lambda m: st.lists(st.integers(0, (1 << m) - 1), min_size=m, max_size=m)))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_pair_by_pair(self, vectors):
        m = len(vectors)
        offsets = _pair_offsets(m)
        want = [reference_wedge(vectors[a], vectors[b], offsets) for a in range(m) for b in range(a + 1, m)]
        assert _wedge_pairs(vectors) == want


# Widths up to 130 bits, so that vectors cross CPython's 30-bit digits at 30, 60, 90 and 120.
WIDTHS = st.integers(1, 130)


def _random_vectors(seed: int, count: int, width: int) -> list[int]:
    """count width-bit ints, each dense, a single bit or zero, so that long and short walks both occur."""
    rng = random.Random(seed)
    return [rng.choice((rng.getrandbits(width), 1 << rng.randrange(width), 0)) for _ in range(count)]


class TestKernelsAcrossDigits:
    """The top-down bit walks against plain references, on values that span several 30-bit digits."""

    @given(WIDTHS, st.integers(0, 2**32), st.data())
    @settings(max_examples=200, deadline=None)
    def test_combine_matches_one_select_at_a_time(self, width, seed, data):
        vectors = _random_vectors(seed, width, 130)
        drawn = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=6))
        # nothing, bit 0 alone, the top bit alone and every bit, as well as the drawn selects
        selects = [0, 1, 1 << width - 1, (1 << width) - 1] + drawn
        assert _combine(vectors, selects) == [_xor_selected(vectors, s) for s in selects]

    @given(WIDTHS, WIDTHS, st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_bit_transpose_matches_entries_and_undoes_itself(self, height, width, seed):
        rows = tuple(_random_vectors(seed, height, width))
        cols = _bit_transpose(rows, width)
        assert cols == tuple(sum((r >> j & 1) << i for i, r in enumerate(rows)) for j in range(width))
        assert _bit_transpose(cols, height) == rows

    @given(WIDTHS, st.integers(1, 40), st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_rank_matches_echelon_pivots(self, width, height, seed):
        rows = _random_vectors(seed, height, width)
        # sums of drawn rows are dependent rows, which rank must find to be no pivots
        rows += [_xor_selected(rows, c) for c in _random_vectors(seed + 1, height // 2, height)]
        assert Gf2Matrix(len(rows), width, rows).rank() == len(_reference_echelon(rows)[0])

    @given(WIDTHS, st.integers(1, 40), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_kernel_basis_is_a_basis_of_the_kernel(self, nrows, width, seed):
        cols = _random_vectors(seed, width, nrows)
        # columns that are sums of drawn columns put vectors into the kernel
        cols += [_xor_selected(cols, c) for c in _random_vectors(seed + 1, width // 2, width)]
        ncols = len(cols)
        rows = [sum((c >> i & 1) << j for j, c in enumerate(cols)) for i in range(nrows)]
        basis = Gf2Matrix(nrows, ncols, rows).kernel_basis()
        assert len(basis) == ncols - len(_reference_echelon(cols)[0])
        assert all((r & v).bit_count() % 2 == 0 for v in basis for r in rows)
        assert not _reference_echelon(basis)[1]

    @given(WIDTHS, st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_inverse_undoes_the_matrix_and_refuses_singular_ones(self, n, seed):
        rng = random.Random(seed)
        # row operations on a permutation matrix keep it invertible
        rows = [1 << i for i in rng.sample(range(n), n)]
        for _ in range(3 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                rows[i] ^= rows[j]
        inv = Gf2Matrix(n, n, rows).inverse().rows
        unit = [1 << i for i in range(n)]
        assert [_xor_selected(inv, r) for r in rows] == unit
        assert [_xor_selected(rows, r) for r in inv] == unit
        # a row that is a sum of the others, or zero, makes the matrix singular
        k = rng.randrange(n)
        rows[k] = _xor_selected(rows, rng.getrandbits(n) & ~(1 << k))
        with pytest.raises(ValueError, match="matrix is singular"):
            Gf2Matrix(n, n, rows).inverse()

    @given(WIDTHS, st.integers(0, 2**32), st.data())
    @settings(max_examples=200, deadline=None)
    def test_scatter_matches_one_bit_at_a_time(self, width, seed, data):
        vectors = _random_vectors(seed, width, 130)
        value = data.draw(st.integers(0, (1 << 130) - 1))
        # nothing, bit 0 alone, the top bit alone, every bit, or a drawn select
        edges = st.sampled_from([0, 1, 1 << width - 1, (1 << width) - 1])
        select = data.draw(st.one_of(edges, st.integers(0, (1 << width) - 1)))
        expected = [v ^ value if select >> b & 1 else v for b, v in enumerate(vectors)]
        _scatter(vectors, value, select)
        assert vectors == expected


class TestInvarianceCheck:
    """A flipped Gram pair is rejected exactly when u stops preserving the form.

    The check must compare all of u^T G u with G, not just its diagonal
    (always zero for an alternating form) or its first column.
    """

    @staticmethod
    def _spaces():
        rng = random.Random(41)
        spaces = [space_from_type(S(t)) for t in ("4_1^2", "2_0^2,8_1", "1_0^4,2_1^3,6_1,10_0^2", "20_1^2")]
        spaces += [wedge_space(space_from_type(S(t))).space for t in ("2_1^3", "1_0^2,4_1", "2_0^2,4_1", "2_1^4")]
        spaces += [dual_tensor_space(unipotent_from_jordan(J(t))).space for t in ("1,2", "4", "1,2^2", "1,2,3")]
        # dense copies, so that no pair of coordinates escapes the check by block structure
        spaces += [_conjugate(a, _random_invertible(rng, a.dim)) for a in spaces[::2]]
        return spaces

    def test_flipped_pairs_are_rejected(self):
        rng = random.Random(43)
        rejected = 0
        for a in self._spaces():
            assert 8 <= a.dim <= 40
            ut = a.u.transpose()
            for _ in range(12):
                # pairs avoid coordinate 0, whose flips a first-column check alone would see
                i, j = sorted(rng.sample(range(1, a.dim), 2))
                g = list(a.gram.rows)
                g[i] ^= 1 << j
                g[j] ^= 1 << i
                gram = Gf2Matrix(a.dim, a.dim, g)
                if ut.mul(gram).mul(a.u) == gram:  # a flip the operator happens to preserve
                    BilinearSpace(a.u, gram)
                    continue
                with pytest.raises(ValueError, match="invariant"):
                    BilinearSpace(a.u, gram)
                rejected += 1
        assert rejected >= 150


class TestBuilders:
    @pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
    def test_build_v(self, d):
        a = build_v(d)
        assert jordan_type_of(a.u) == JordanType(((d, 1),))
        assert epsilon_of_space(a, d) == 1
        assert a.is_nondegenerate()
        assert hesselink_of_space(a) == vtype(d)

    def test_build_v_rejects_odd(self):
        with pytest.raises(ValueError):
            build_v(3)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_build_w(self, d):
        a = build_w(d)
        assert jordan_type_of(a.u) == JordanType(((d, 2),))
        assert epsilon_of_space(a, d) == 0
        assert a.is_nondegenerate()
        assert hesselink_of_space(a) == wtype(d)

    def test_direct_sum(self):
        a = direct_sum(build_v(2), build_w(3))
        assert jordan_type_of(a.u) == J("2,3^2")
        # tags of a sum are the size-wise maxima
        assert hesselink_of_space(a) == S("2_1,3_0^2")
        triple = direct_sum(direct_sum(build_v(4), build_v(4)), build_v(4))
        assert hesselink_of_space(triple) == S("4_1^3")

    def test_space_from_type(self):
        for text in ("2_1", "2_0^2,8_1", "1_0^2,2_1", "4_1^3"):
            assert hesselink_of_space(space_from_type(S(text))) == S(text)


class TestEpsilonFunctional:
    def test_additive_on_kernel(self):
        # the defining map v -> b(X^(d-1) v, v) must be additive on Ker X^d
        rng = random.Random(11)
        spaces = [build_v(6), build_w(4), direct_sum(build_v(4), build_w(3))]
        for a in spaces:
            x = a.u.add(Gf2Matrix.identity(a.dim))
            for d in range(1, 7):
                xd1 = matrix_power(x, d - 1)
                kernel = xd1.mul(x).kernel_basis()
                if not kernel:
                    continue

                def f(v):
                    return a.form(xd1.matvec(v), v)

                for _ in range(20):
                    cv = 0
                    cw = 0
                    for k in kernel:
                        if rng.random() < 0.5:
                            cv ^= k
                        if rng.random() < 0.5:
                            cw ^= k
                    assert f(cv ^ cw) == (f(cv) + f(cw)) % 2

    def test_shared_power_chain_matches_per_size_definition(self):
        spaces = [space_from_type(s) for dim in range(2, 13, 2) for s in symplectic_types(dim)]
        spaces += [dual_tensor_space(unipotent_from_jordan(j)).space for n in range(2, 7) for j in jordan_types(n)]
        for a in spaces:
            want = tuple((d, m, epsilon_of_space(a, d)) for d, m in jordan_type_of(a.u).blocks)
            assert hesselink_of_space(a).entries == want, a.ascii_grids()

    @pytest.mark.parametrize(
        "space,d,want",
        [
            (build_v(2), 2, 1),
            (build_w(4), 4, 0),
            (tensor_space(build_v(6), build_v(10)), 14, 1),
            (tensor_space(build_v(6), build_v(10)), 8, 0),
        ],
    )
    def test_values(self, space, d, want):
        assert epsilon_of_space(space, d) == want


class TestProductSpaces:
    def test_tensor_examples(self):
        assert hesselink_of_space(tensor_space(build_v(2), build_v(2))) == S("2_1^2")
        assert hesselink_of_space(tensor_space(build_v(2), build_v(6))) == S("6_1^2")
        assert jordan_type_of(tensor_space(build_v(2), build_v(10)).u) == J("10^2")
        assert jordan_type_of(tensor_space(build_w(1), build_v(4)).u) == J("4^2")

    def test_dimension_bookkeeping(self):
        a, b = build_v(4), build_w(3)
        assert tensor_space(a, b).dim == a.dim * b.dim
        w, _ = wedge_space(direct_sum(a, build_v(2)))
        assert w.dim == 6 * 5 // 2


class TestDualTensorSpace:
    def test_regular_elements(self):
        sp, gamma = dual_tensor_space(jordan_block_matrix(2))
        assert hesselink_of_space(sp) == S("2_1^2")
        assert hesselink_of_space(subquotient(sp, gamma)) == S("2_1")
        sp3, g3 = dual_tensor_space(jordan_block_matrix(3))
        assert hesselink_of_space(sp3) == E("1_0,4_1^2")
        assert not sp3.is_nondegenerate()  # odd dimension: radical is the fixed line
        sub = subquotient(sp3, g3)
        assert sub.is_nondegenerate()
        assert hesselink_of_space(sub) == S("4_1^2")

    def test_identity_rank_parity(self):
        for n in (2, 3, 4, 5):
            sp, _ = dual_tensor_space(Gf2Matrix.identity(n))
            want = n * n if n % 2 == 0 else n * n - 1
            assert sp.gram.rank() == want

    def test_fixed_vector_is_fixed(self):
        sp, gamma = dual_tensor_space(unipotent_from_jordan(J("2,3")))
        assert sp.u.matvec(gamma) == gamma


class TestWedgeSpace:
    def test_examples(self):
        w4, beta = wedge_space(build_v(4))
        assert hesselink_of_space(w4) == S("2_1,4_1")
        assert hesselink_of_space(subquotient(w4, beta)) == S("4_1")
        w2, beta2 = wedge_space(build_w(2))
        assert hesselink_of_space(w2) == S("1_0^2,2_1^2")
        assert hesselink_of_space(subquotient(w2, beta2)) == S("1_0^2,2_1")

    def test_identity_input(self):
        a = BilinearSpace(Gf2Matrix.identity(4), build_w(2).gram)
        w, _ = wedge_space(a)
        assert w.gram.rank() == 6  # even half-dimension: non-degenerate

    def test_degenerate_input_rejected(self):
        for rows in ([0, 0, 0, 0], [2, 1, 0, 0]):  # the zero form, and one of rank 2
            deg = BilinearSpace(Gf2Matrix.identity(4), Gf2Matrix(4, 4, rows))
            with pytest.raises(ValueError, match="^wedge square form requires a non-degenerate input space$"):
                wedge_space(deg)

    def test_matches_entrywise_reference(self):
        for dim in range(4, 11, 2):
            for s in symplectic_types(dim):
                space, fixed = wedge_space(space_from_type(s))
                assert (space.u, space.gram, fixed) == _reference_wedge_space(space_from_type(s)), s
        for n in range(1, 9):
            for j in jordan_types(n):
                u = unipotent_from_jordan(j)
                assert wedge_matrix(u) == _reference_wedge_matrix(u), j

    def test_symplectic_basis(self):
        rng = random.Random(23)
        for text in ("2_1", "2_0^2", "2_0^2,8_1", "4_1^3"):
            g = space_from_type(S(text)).gram
            basis = symplectic_basis(g)
            m = len(basis)
            full = Gf2Matrix(m, m, basis)
            assert full.rank() == m
            for i in range(m):
                for j in range(m):
                    want = 1 if i + j == m - 1 else 0
                    got = (g.matvec(basis[j]) & basis[i]).bit_count() & 1
                    assert got == want


class TestPowerChain:
    @pytest.mark.parametrize("seed", range(9))
    def test_matches_matrix_powers_on_conjugated_inputs(self, seed):
        rng = random.Random(seed)
        # seeds 6..8 reach the 66 dimensions of the wedge square of dimension 12, the largest in oracle-check 12/8
        n = rng.randint(20, 40) if seed < 6 else rng.randint(60, 70)
        j = _random_jordan_type(rng, n)
        p = _random_invertible(rng, n)
        u = p.mul(unipotent_from_jordan(j)).mul(p.inverse())
        ranks, layers = _power_chain(u)
        x = u.add(Gf2Matrix.identity(n))
        assert ranks[-1] == 0 and len(ranks) == len(layers) == max(j.sizes()) + 1
        kernel = []
        for d, (rank, layer) in enumerate(zip(ranks, layers)):
            xd = matrix_power(x, d)
            assert rank == xd.rank()
            if d:
                xd1 = matrix_power(x, d - 1)
                assert all(xd.matvec(v) == 0 and xd1.matvec(v) == y != 0 for v, y in layer)
            # layers 1..d are a basis of Ker X^d
            kernel += [v for v, _ in layer]
            assert _same_span(kernel, xd.kernel_basis(), n)
        assert jordan_type_of(u) == j

    @pytest.mark.parametrize("n", [1, 31, 66])
    def test_identity_puts_every_vector_in_layer_one(self, n):
        # X = 0: no step has a pivot, and each unit vector e_j is its own X^0 image
        ranks, layers = _power_chain(Gf2Matrix.identity(n))
        assert ranks == [n, 0]
        assert layers == [[], [(1 << j, 1 << j) for j in range(n)]]


def _reference_power_chain(u: Gf2Matrix) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """The power chain as sp2forms.oracle had it before split slots: items (X w, p << n | w), one packed tag each."""
    n = u.nrows
    low = (1 << n) - 1
    x = [c ^ (1 << j) for j, c in enumerate(u.cols)]
    steps = [(c, (1 << n | 1) << j) for j, c in enumerate(x)]  # (X w, p << n | w), p = w = e_j
    ranks, layers = [n], [[]]
    while steps:
        pivots: list[tuple[int, int] | None] = [None] * n
        layer, walked = [], []
        for w, t in steps:
            while w:
                b = w.bit_length() - 1
                hit = pivots[b]
                if hit is None:
                    pivots[b] = (w, t)
                    xw, rest = x[b], w ^ 1 << b
                    while rest:
                        c = rest.bit_length() - 1
                        xw ^= x[c]
                        rest ^= 1 << c
                    walked.append((xw, t >> n << n | w))
                    break
                w ^= hit[0]
                t ^= hit[1]
            else:
                layer.append((t >> n, t & low))
        if not layer:
            raise ValueError("matrix is not unipotent: rank profile does not vanish")
        ranks.append(len(walked))
        layers.append(layer)
        steps = walked
    return ranks, layers


@functools.cache
def _oracle_check_spaces() -> tuple[BilinearSpace, ...]:
    """Every full space and fixed-vector subquotient that oracle-check 12/8 builds, in sweep order."""
    spaces = []
    for kind, arg in sweep_tasks(12, 8):
        built = wedge_space(space_from_type(S(arg))) if kind == "sp" else dual_tensor_space(unipotent_from_jordan(J(arg)))
        spaces += [built.space, subquotient(*built)]
    return tuple(spaces)


def _chain_outcome(chain, u: Gf2Matrix):
    try:
        return chain(u)
    except ValueError as err:
        return str(err)


NOT_UNIPOTENT = "matrix is not unipotent: rank profile does not vanish"


class TestSplitSlotChain:
    """The split-slot chain returns the packed-tag chain's (ranks, layers), element by element, and raises where it raised."""

    def test_every_oracle_check_chain(self):
        spaces = _oracle_check_spaces()
        assert len(spaces) == 364
        for a in spaces:
            assert _power_chain(a.u) == _reference_power_chain(a.u)

    @given(st.integers(1, 40), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_conjugated_unipotents(self, n, seed):
        rng = random.Random(seed)
        p = _random_invertible(rng, n)
        u = p.mul(unipotent_from_jordan(_random_jordan_type(rng, n))).mul(p.inverse())
        assert _power_chain(u) == _reference_power_chain(u)

    @given(st.integers(1, 10).flatmap(lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
    @settings(max_examples=200, deadline=None)
    def test_any_square_matrix(self, rows):
        # most such matrices are not unipotent: both chains must then raise the same error
        u = Gf2Matrix(len(rows), len(rows), rows)
        assert _chain_outcome(_power_chain, u) == _chain_outcome(_reference_power_chain, u)

    def test_not_unipotent(self):
        u = Gf2Matrix(3, 3, [0b010, 0b100, 0b001])  # a 3-cycle, of order 3
        with pytest.raises(ValueError) as info:
            _power_chain(u)
        assert str(info.value) == _chain_outcome(_reference_power_chain, u) == NOT_UNIPOTENT


INVARIANT = "form is not invariant under the operator"


def _parent_space_outcome(u: Gf2Matrix, gram: Gf2Matrix) -> str | None:
    """The message BilinearSpace(u, gram) raised when invariance walked the columns of u, or None; its checks, in order."""
    n = u.nrows
    if u.ncols != n or gram.nrows != n or gram.ncols != n:
        return "operator and Gram matrix must be square of equal size"
    g = gram.rows
    if not _is_symmetric(Gf2Matrix(n, n, g)):
        return "Gram matrix must be symmetric"
    if any([r >> i & 1 for i, r in enumerate(g)]):
        return "Gram matrix must have zero diagonal (alternating form)"
    if not _parent_invariant(u, g):
        return INVARIANT
    return None


def _is_symmetric(m: Gf2Matrix) -> bool:
    """Whether m equals its transpose: each bit above the diagonal is looked up in its mirror, and the triangles hold as many bits."""
    rows = m.rows
    if m.nrows != m.ncols:
        return False
    upper = lower = 0
    for i, r in enumerate(rows):
        up = r >> i >> 1
        upper += up.bit_count()
        lower += (r & ((1 << i) - 1)).bit_count()
        while up:
            b = up.bit_length() - 1
            if not rows[i + 1 + b] >> i & 1:
                return False
            up ^= 1 << b
    return upper == lower


def _parent_invariant(u: Gf2Matrix, g: tuple[int, ...]) -> bool:
    """u^T G u = G, built as the rows of u^T G u from the rows of G u and the columns of u."""
    return _combine(_combine(u.rows, g), u.cols) == list(g)


def _flip_u(u: Gf2Matrix, i: int, j: int) -> Gf2Matrix:
    """u with entry (i, j) flipped in its rows and in its written columns."""
    rows, cols = list(u.rows), list(u.cols)
    rows[i] ^= 1 << j
    cols[j] ^= 1 << i
    return Gf2Matrix(u.nrows, u.ncols, rows, cols)


def _flip_gram(gram: Gf2Matrix, *entries: tuple[int, int]) -> Gf2Matrix:
    g = list(gram.rows)
    for i, j in entries:
        g[i] ^= 1 << j
    return Gf2Matrix(gram.nrows, gram.ncols, g)


class TestInvarianceAgreesWithParent:
    """Walking X = u - 1 rejects exactly what walking u did, with the same message and in the same order."""

    def test_one_flip_on_oracle_check_spaces(self):
        rng = random.Random(47)
        seen = Counter()
        for a in _oracle_check_spaces():
            n = a.dim
            u = _flip_u(a.u, rng.randrange(n), rng.randrange(n))
            i, j = rng.sample(range(n), 2)
            for op, gram in ((u, a.gram), (a.u, _flip_gram(a.gram, (i, j), (j, i)))):
                want = _parent_space_outcome(op, gram)
                assert _outcome(op, gram) == want
                seen[want] += 1
        assert set(seen) == {None, INVARIANT} and min(seen.values()) >= 20

    def test_two_faults_report_the_earlier_check(self):
        # u broken; then also a diagonal bit of G; then also an unmirrored bit:
        # each space fails every check the one before failed, and the earliest names it
        a = space_from_type(S("2_0^2,4_1"))
        u = _flip_u(a.u, 0, a.dim - 1)
        diagonal = _flip_gram(a.gram, (1, 1))
        lopsided = _flip_gram(a.gram, (1, 1), (2, 3))
        assert not _parent_invariant(u, diagonal.rows) and not _parent_invariant(u, lopsided.rows)
        zero_diagonal, symmetric = "Gram matrix must have zero diagonal (alternating form)", "Gram matrix must be symmetric"
        for gram, want in ((a.gram, INVARIANT), (diagonal, zero_diagonal), (lopsided, symmetric)):
            assert _outcome(u, gram) == _parent_space_outcome(u, gram) == want


def _triangles(g: tuple[int, ...]) -> tuple[int, int, bool]:
    """Bits above the diagonal, bits below it, and whether every bit above has its mirror below."""
    upper = sum((r >> i >> 1).bit_count() for i, r in enumerate(g))
    lower = sum((r & (1 << i) - 1).bit_count() for i, r in enumerate(g))
    mirrored = all(g[j] >> i & 1 for i, r in enumerate(g) for j in range(i + 1, len(g)) if r >> j & 1)
    return upper, lower, mirrored


class TestSymmetryHalves:
    """The mirror lookups and the triangle counts each reject a Gram matrix that the other lets through."""

    @pytest.mark.parametrize(
        "flips,counts_equal,mirrored",
        [
            # an unmirrored bit above the diagonal and another below it: equal counts, a mirror missing
            (((0, 1), (5, 2)), True, False),
            # one extra bit below the diagonal: every bit above is mirrored, the counts differ
            (((6, 0),), False, True),
        ],
        ids=["unmirrored-pair", "extra-lower-bit"],
    )
    @pytest.mark.parametrize("more_faults", [False, True], ids=["alone", "with-diagonal-and-u"])
    def test_rejected(self, flips, counts_equal, mirrored, more_faults):
        a = space_from_type(S("2_0^2,4_1"))
        u, gram = a.u, _flip_gram(a.gram, *flips)
        upper, lower, all_mirrored = _triangles(gram.rows)
        assert (upper == lower, all_mirrored) == (counts_equal, mirrored)
        if more_faults:
            # a diagonal bit and a broken u fail the later checks too; symmetry is still reported first
            u, gram = _flip_u(u, 0, a.dim - 1), _flip_gram(gram, (1, 1))
            assert gram.rows[1] >> 1 & 1 and not _parent_invariant(u, gram.rows)
        assert _outcome(u, gram) == _parent_space_outcome(u, gram) == "Gram matrix must be symmetric"


class TestSubquotient:
    @staticmethod
    def _pointed_spaces():
        rng = random.Random(17)
        pointed = [wedge_space(space_from_type(s)) for dim in range(4, 11, 2) for s in symplectic_types(dim)]
        pointed += [dual_tensor_space(unipotent_from_jordan(j)) for n in range(2, 7) for j in jordan_types(n)]
        for a, v in list(pointed):
            p = _random_invertible(rng, a.dim)
            pointed.append((_conjugate(a, p), p.matvec(v)))
        # subquotient drops entries p and q by position, so the corpus must hold
        # q below p, q above p, and f = G v = 0 (q = -1), with p and q picked as it picks them
        cases = Counter()
        for a, v in pointed:
            f = a.gram.matvec(v)
            q = (f & -f).bit_length() - 1
            rest = v & ~(f & -f)
            p = (rest & -rest).bit_length() - 1
            cases["f = 0" if q < 0 else "p < q" if p < q else "p > q"] += 1
        assert min(cases[case] for case in ("f = 0", "p < q", "p > q")) >= 10, cases
        return pointed

    def test_matches_inclusion_reference(self):
        radical = 0
        for a, v in self._pointed_spaces():
            radical += a.gram.matvec(v) == 0
            assert subquotient(a, v) == _reference_subquotient(a, v), a.ascii_grids()
        # odd n puts the dual tensor's fixed vector in the radical (f = 0)
        assert radical >= 10

    def test_validation(self):
        a = build_v(4)
        with pytest.raises(ValueError):
            subquotient(a, 0)
        with pytest.raises(ValueError):
            subquotient(a, 0b1000)  # top basis vector is not fixed

    def test_drops_pair_of_ones(self):
        # a fixed vector outside the image of X removes a pair of 1-blocks
        a = direct_sum(build_w(1), build_v(2))
        sub = subquotient(a, 0b0001)
        assert hesselink_of_space(sub) == S("2_1")

    def test_dimension_drop(self):
        sp, gamma = dual_tensor_space(jordan_block_matrix(4))
        assert subquotient(sp, gamma).dim == 14  # non-degenerate: two dimensions lost
        sp3, g3 = dual_tensor_space(jordan_block_matrix(3))
        assert subquotient(sp3, g3).dim == 8  # radical case: one dimension lost


def _written_views_agree(m: Gf2Matrix) -> bool:
    """Whether m's builder wrote its column view, and wrote the columns of its rows."""
    return m._cols is not None and m.cols == _bit_transpose(m.rows, m.ncols)


class TestBothViews:
    """Builders that write an operator's rows and columns in one pass write one matrix.

    A wrong row formula would pass the power chain, which reads columns, and
    feed the invariance check, which reads rows, an operator that does not
    exist; so every such operator is compared with the transpose of its rows.
    """

    def test_oracle_check_operators(self):
        # every oracle-check 12/8 instance; up to dimension 8 also its input on a
        # random basis, and the space built from that on a random basis in turn,
        # so that p, q and a fixed vector in the radical fall in general position
        rng = random.Random(31)
        general = radical = 0
        for kind, arg in sweep_tasks(12, 8):
            if kind == "sp":
                a = space_from_type(S(arg))
                u, built = a.u, [wedge_space(a)]
                if a.dim <= 8:
                    built.append(wedge_space(_conjugate(a, _random_invertible(rng, a.dim))))
            else:
                u = unipotent_from_jordan(J(arg))
                built = [dual_tensor_space(u)]
                if u.nrows <= 8:
                    p = _random_invertible(rng, u.nrows)
                    built.append(dual_tensor_space(p.mul(u).mul(p.inverse())))
            assert _written_views_agree(u), arg
            assert all(_written_views_agree(space.u) for space, _ in built), arg
            if len(built) > 1:
                space, v = built[-1]
                p = _random_invertible(rng, space.dim)
                built.append((_conjugate(space, p), p.matvec(v)))
                general += 1
                radical += space.gram.matvec(v) == 0
            for space, v in built:
                assert _written_views_agree(subquotient(space, v).u), arg
        # 32 symplectic and 65 linear inputs reach dimension 8; odd n puts the fixed vector in the radical
        assert general == 97 and radical >= 25

    def test_kron_and_transpose(self):
        rng = random.Random(37)
        for shape_a, shape_b in (((3, 5), (4, 2)), ((1, 7), (6, 1)), ((5, 5), (3, 3))):
            a, b = (_random_matrix(rng, *shape) for shape in (shape_a, shape_b))
            k = a.kron(b)
            assert _written_views_agree(k)
            assert _written_views_agree(k.transpose())


class TestJordanOracleEquivalence:
    """Rank-profile agreement for the pure Jordan-type operations."""

    def test_tensor_small(self):
        for n1 in range(2, 7):
            for j1 in jordan_types(n1):
                for n2 in range(2, 11 - n1):
                    for j2 in jordan_types(n2):
                        u = unipotent_from_jordan(j1).kron(unipotent_from_jordan(j2))
                        assert jordan_type_of(u) == tensor(j1, j2), (j1, j2)

    def test_wedge_small(self):
        for n in range(2, 11):
            for j in jordan_types(n):
                u = wedge_matrix(unipotent_from_jordan(j))
                assert jordan_type_of(u) == wedge_square(j), j

    def test_restrict_small(self):
        for n in range(2, 11):
            for j in jordan_types(n):
                for alpha in (1, 2, 3):
                    u = matrix_power(unipotent_from_jordan(j), 1 << alpha)
                    assert jordan_type_of(u) == restrict_power(j, alpha), (j, alpha)
