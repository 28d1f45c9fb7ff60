"""Brute-force GF(2) verifier for the combinatorial class computations.

Everything in :mod:`sp2forms.jordan`, :mod:`sp2forms.hesselink` and
:mod:`sp2forms.reps` is integer bookkeeping; this module rebuilds the same
objects as explicit matrices over the two-element field and recomputes
Jordan types (rank profiles of powers of u - 1), eps tags (a linear
functional on the kernel of a power), and subquotients by a fixed vector.

A matrix keeps its rows as Python ints used as bitsets, and a column view
that each operator's builder writes in the same pass as its rows.  A matrix
applies to a vector as the XOR of the columns the vector selects, and
products XOR whole rows; the oracle's own stages avoid products.  One
elimination gives ranks, kernels and inverses.  One chain of images of
X = u - 1, eliminated and walked on in one loop, gives the Jordan type, and
its dependencies give the kernel layers that the eps tags are read from.
Invariance of a form is checked on the rows of u^T G u, built from the rows
of G u; a subquotient is written straight from an explicit basis of the
perp of its fixed vector, and a wedge square from the rows and columns of u
and the rows of the Gram matrix, all x ^ y at once.  Dimensions up to a
few hundred are cheap.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache

from .hesselink import EpsilonTaggedType, SymplecticType
from .jordan import JordanType, Value


class Gf2Matrix:
    """Dense matrix over GF(2); row i is an int whose bit j is entry (i, j).

    ``cols`` is the column view: column j is an int whose bit i is entry
    (i, j).  A builder that writes both views in one pass hands them both to
    the constructor, which trusts the columns; otherwise they are built on
    first use, or lent by the rows once :meth:`is_symmetric` finds them equal.
    """

    __slots__ = ("nrows", "ncols", "rows", "_cols")

    def __init__(self, nrows: int, ncols: int, rows: Iterable[int], cols: Iterable[int] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = tuple(rows)
        self._cols: tuple[int, ...] | None = None if cols is None else tuple(cols)
        if len(self.rows) != nrows:
            raise ValueError(f"expected {nrows} rows, got {len(self.rows)}")
        if self.rows and (min(self.rows) < 0 or max(self.rows) >> ncols):
            raise ValueError("row has bits outside the column range")

    @classmethod
    def identity(cls, n: int) -> Gf2Matrix:
        return cls(n, n, (1 << i for i in range(n)))

    @property
    def cols(self) -> tuple[int, ...]:
        if self._cols is None:
            self._cols = _bit_transpose(self.rows, self.ncols)
        return self._cols

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gf2Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"Gf2Matrix({self.nrows}x{self.ncols})"

    def ascii_grid(self) -> str:
        """Rows of 0/1 characters, one line per matrix row."""
        return "\n".join("".join(str(self.entry(i, j)) for j in range(self.ncols)) for i in range(self.nrows))

    def add(self, other: Gf2Matrix) -> Gf2Matrix:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Gf2Matrix(self.nrows, self.ncols, (a ^ b for a, b in zip(self.rows, other.rows)))

    def mul(self, other: Gf2Matrix) -> Gf2Matrix:
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        return Gf2Matrix(self.nrows, other.ncols, _combine(other.rows, self.rows))

    def matvec(self, v: int) -> int:
        """Matrix times column vector (vector = int bitset of coordinates)."""
        if v >> self.ncols:
            v &= (1 << self.ncols) - 1
        return _combine(self.cols, (v,))[0]

    def is_symmetric(self) -> bool:
        """Whether the matrix equals its transpose; if so, its rows become its column view.

        Each bit above the diagonal is looked up in its mirror; the two
        triangles are then equal exactly when they hold as many bits.
        """
        rows = self.rows
        if self.nrows != self.ncols:
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
        if upper == lower:
            self._cols = rows
        return upper == lower

    def transpose(self) -> Gf2Matrix:
        return Gf2Matrix(self.ncols, self.nrows, self.cols, self.rows)

    def rank(self) -> int:
        """Number of pivots of the rows, eliminated by :func:`_echelon` with no tags."""
        return self.ncols - _echelon(self.rows, self.ncols)[0].count(0)

    def kernel_basis(self) -> list[int]:
        """Vectors v with M v = 0, as int bitsets; basis of the kernel."""
        return _echelon(self.cols, self.nrows, self.ncols)[1]

    def inverse(self) -> Gf2Matrix:
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse requires a square matrix")
        pivots, dependent = _echelon(self.rows, n, n)
        if dependent:
            raise ValueError("matrix is singular")
        # pivots[b] is w << n | t, w the sum of the rows t selects, top bit b; row b of
        # the inverse is t plus its rows for the other bits of w, lower, so filled in
        low = (1 << n) - 1
        inv = [0] * n
        for b, item in enumerate(pivots):
            inv[b] = item & low ^ _combine(inv, (item >> n ^ 1 << b,))[0]
        return Gf2Matrix(n, n, inv)

    def kron(self, other: Gf2Matrix) -> Gf2Matrix:
        """A (x) B, entry (i p + k, j q + l) = A_ij B_kl for B p x q; its views are the krons of the views."""
        rows = _kron_vectors(self.rows, other.rows, other.ncols)
        cols = _kron_vectors(self.cols, other.cols, other.nrows)
        return Gf2Matrix(self.nrows * other.nrows, self.ncols * other.ncols, rows, cols)


def _kron_vectors(outer, inner, width: int) -> list[int]:
    """x (x) y for x in outer, y < 2^width in inner: y times the sum of 1 << j * width over bits j of x, carry-free."""
    spreads = _combine([1 << j * width for j in range(max(outer, default=0).bit_length())], outer)
    return [s * y for s in spreads for y in inner]


def _combine(vectors, selects) -> list[int]:
    """For each select, the XOR of vectors[j] over the set bits j of select, walked from the top."""
    out = []
    for select in selects:
        acc = 0
        while select:
            b = select.bit_length() - 1
            acc ^= vectors[b]
            select ^= 1 << b
        out.append(acc)
    return out


def _scatter(vectors: list[int], value: int, select: int) -> None:
    """XOR value into vectors[b] for each set bit b of select, walked from the top."""
    while select:
        b = select.bit_length() - 1
        vectors[b] ^= value
        select ^= 1 << b


def _bit_transpose(rows: tuple[int, ...], width: int) -> tuple[int, ...]:
    """Columns of the matrix whose rows are the width-bit ints rows: each set bit moves once."""
    cols = [0] * width
    for i, r in enumerate(rows):
        _scatter(cols, 1 << i, r)
    return tuple(cols)


def _echelon(vectors: Iterable[int], width: int, tags: int = 0) -> tuple[list[int], list[int]]:
    """Gaussian elimination over GF(2) on width-bit vectors, taken in order, on the highest bit.

    Input i enters as the item v << tags | 1 << i, its tag below its vector as
    in [A | I] (tags > 0 must cover every input; tags = 0 takes the vectors
    bare), and an item is only ever XORed whole, so each tag lists the inputs
    that make up its vector.  Returns (pivots, dependencies): pivots[b] is the
    reduced item whose vector has highest bit b, or 0, and the tags of the
    inputs that reduce to zero are a basis of the relations among the inputs.
    """
    pivots = [0] * width
    dependencies = []
    for t in (v << tags | 1 << i for i, v in enumerate(vectors)) if tags else vectors:
        while (b := t.bit_length() - 1 - tags) >= 0 and (hit := pivots[b]):
            t ^= hit
        if b >= 0:
            pivots[b] = t
        else:
            dependencies.append(t)
    return pivots, dependencies


def matrix_power(m: Gf2Matrix, k: int) -> Gf2Matrix:
    out = Gf2Matrix.identity(m.nrows)
    base = m
    while k:
        if k & 1:
            out = out.mul(base)
        k >>= 1
        if k:
            base = base.mul(base)
    return out


def jordan_block_matrix(d: int) -> Gf2Matrix:
    """Single unipotent Jordan block: u e_1 = e_1, u e_i = e_i + e_(i-1), written by rows and by columns."""
    return Gf2Matrix(d, d, ((3 << i) & ((1 << d) - 1) for i in range(d)), (3 << i >> 1 for i in range(d)))


def unipotent_from_jordan(j: JordanType) -> Gf2Matrix:
    """Block-diagonal unipotent matrix with the given Jordan type."""
    blocks = [jordan_block_matrix(d) for d in j.expand()]
    return _block_diag(blocks)


def _block_diag(blocks: list[Gf2Matrix]) -> Gf2Matrix:
    """The block-diagonal matrix of square blocks; its columns are theirs, shifted as its rows are."""
    rows, cols = [], []
    offset = 0
    for b in blocks:
        rows.extend(r << offset for r in b.rows)
        cols.extend(c << offset for c in b.cols)
        offset += b.ncols
    return Gf2Matrix(offset, offset, rows, cols)


def _power_chain(u: Gf2Matrix) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """Ranks of X^0, ..., X^h for X = u - 1, and the kernel layer of each power.

    X^h is the first zero power.  The chain keeps a basis of Im X^k, each
    vector w tagged with a preimage p, so that w = X^k p; it starts from the
    unit vectors at k = 0.  Im X^(k+1) is X applied to Im X^k, so one
    elimination of the X w, with each tag holding p above w, gives the rank
    of X^(k+1) as its number of pivots, and the pivots with their p are a
    basis of Im X^(k+1) tagged as before.  Each dependency is a v = p sum
    with X^(k+1) v = 0 whose X^k v, the matching w sum, is not zero, since
    the w are independent.  layers[k + 1] lists these pairs (v, X^k v).
    Their X^k v are independent, so the v are independent modulo Ker X^k,
    and there are rank X^k - rank X^(k+1) = dim Ker X^(k+1) - dim Ker X^k of
    them: layers 1..d together are a basis of Ker X^d.  The ranks fall until
    the image stops shrinking, and then stay put; so u is unipotent exactly
    when they fall to zero, and the chain raises as soon as an elimination
    finds no dependency.  X applied to the unit vector e_j is column j of X,
    which is column j of u with the diagonal bit flipped, so the first
    elimination takes the columns of X as they are.  Each elimination is
    :func:`_echelon`'s, fused with the walk of X: a pivot never changes once
    found, so X is walked over it at once, starting from the column of its
    highest bit.  It stays fused because a chain that calls :func:`_echelon`
    on (X w, p, w) items and then walks X took 20-49% longer over the chains
    of oracle-check 12/8 and 18/10, walking batched or by hand (in-process
    A/B runs, 2-CPU host).  Pivoting on the highest bit rather than the
    lowest took 10% off these chains.  Pivots sit in slots by highest bit.
    """
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


def _jordan_from_ranks(ranks: list[int]) -> JordanType:
    """The multiplicity of size d is rank X^(d-1) - 2 rank X^d + rank X^(d+1)."""
    ranks = ranks + [0]
    out = {}
    for d in range(1, len(ranks) - 1):
        m = ranks[d - 1] - 2 * ranks[d] + ranks[d + 1]
        if m:
            out[d] = m
    return JordanType.from_dict(out)


def jordan_type_of(u: Gf2Matrix) -> JordanType:
    """Jordan type from the rank profile of powers of X = u - 1.

    Raises if u is not unipotent (the profile must reach rank zero).
    """
    return _jordan_from_ranks(_power_chain(u)[0])


class BilinearSpace(Value):
    """A unipotent operator together with the Gram matrix of an invariant alternating form.

    Over GF(2) alternating means symmetric with zero diagonal; the form may
    be degenerate.  Invariance u^T G u = G is checked on construction.
    """

    def __init__(self, u: Gf2Matrix, gram: Gf2Matrix):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "gram", gram)
        n = u.nrows
        if u.ncols != n or gram.nrows != n or gram.ncols != n:
            raise ValueError("operator and Gram matrix must be square of equal size")
        if not gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        g = gram.rows
        if any([r >> i & 1 for i, r in enumerate(g)]):
            raise ValueError("Gram matrix must have zero diagonal (alternating form)")
        # row k of G u XORs the rows of u that row k of G selects and row i of
        # u^T G u the rows of G u that column i of u selects: this walks G, about
        # half as dense as u, where a column at a time walks G u
        if _combine(_combine(u.rows, g), u.cols) != list(g):
            raise ValueError("form is not invariant under the operator")

    @property
    def dim(self) -> int:
        return self.u.nrows

    def form(self, v: int, w: int) -> int:
        """Evaluate the bilinear form on two coordinate bitsets."""
        return (self.gram.matvec(w) & v).bit_count() & 1

    def is_nondegenerate(self) -> bool:
        return self.gram.rank() == self.dim

    def ascii_grids(self) -> str:
        return f"u =\n{self.u.ascii_grid()}\ngram =\n{self.gram.ascii_grid()}"


PointedSpace = namedtuple("PointedSpace", ["space", "fixed"])
PointedSpace.__doc__ = "A bilinear space together with a distinguished fixed vector."


@lru_cache(maxsize=None)
def build_v(d: int) -> BilinearSpace:
    """The orthogonally indecomposable single-block space V(d), d even.

    The operator is a regular unipotent symplectic element written on a basis
    where the Gram matrix is the anti-diagonal: u e_1 = e_1,
    u e_i = e_i + ... + e_1 for i <= d/2 + 1, and u e_i = e_i + e_(i-1) above.
    So column j (from 0) is (2 << j) - 1 for j <= d/2 and 3 << j - 1 above,
    and row r holds bits r..d/2 for r < d/2 and bits r, r + 1 from there on.
    Cached per size, as the space is an immutable value.
    """
    if d <= 0 or d % 2:
        raise ValueError(f"V(d) requires an even positive size, got {d}")
    k = d // 2
    rows = [(2 << k) - (1 << r) if r < k else 3 << r & (1 << d) - 1 for r in range(d)]
    u = Gf2Matrix(d, d, rows, ((2 << j) - 1 if j <= k else 3 << j - 1 for j in range(d)))
    gram = Gf2Matrix(d, d, (1 << (d - 1 - i) for i in range(d)))
    return BilinearSpace(u, gram)


@lru_cache(maxsize=None)
def build_w(d: int) -> BilinearSpace:
    """The paired space W(d): a block and its dual with the evaluation form.

    The operator acts on coordinates of the dual block by the inverse
    transpose; the Gram matrix is the hyperbolic [[0, I], [I, 0]].  Cached
    per size, as the space is an immutable value.
    """
    if d <= 0:
        raise ValueError(f"W(d) requires a positive size, got {d}")
    j = jordan_block_matrix(d)
    jdual = j.inverse().transpose()
    u = _block_diag([j, jdual])
    gram = Gf2Matrix(2 * d, 2 * d, [1 << (d + i) for i in range(d)] + [1 << i for i in range(d)])
    return BilinearSpace(u, gram)


def tensor_space(a: BilinearSpace, b: BilinearSpace) -> BilinearSpace:
    """Tensor product space with the product form (Kronecker on both matrices)."""
    return BilinearSpace(a.u.kron(b.u), a.gram.kron(b.gram))


def space_from_type(s: SymplecticType) -> BilinearSpace:
    """Explicit matrices realizing a symplectic class as a sum of V's and W's."""
    parts = []
    for d, m, e in s.entries:
        if e:
            parts.extend(build_v(d) for _ in range(m))
        else:
            parts.extend(build_w(d) for _ in range(m // 2))
    if not parts:
        raise ValueError("cannot build the zero space")
    return BilinearSpace(_block_diag([p.u for p in parts]), _block_diag([p.gram for p in parts]))


def dual_tensor_space(u: Gf2Matrix) -> PointedSpace:
    """The space V (x) V* for a unipotent u, with its canonical alternating form.

    On basis vectors e_i (x) e_j* the underlying symmetric form pairs
    (i, j) with (j, i); adding the rank-one square of the trace functional
    makes it alternating.  The fixed vector is the identity tensor
    sum of e_i (x) e_i*.
    """
    n = u.nrows
    if n < 2:
        raise ValueError(f"need dimension at least 2, got {n}")
    big_u = u.kron(u.inverse().transpose())
    swap_rows = [1 << (j * n + i) for i in range(n) for j in range(n)]  # row i * n + j
    psi = sum(1 << (i * n + i) for i in range(n))
    _scatter(swap_rows, psi, psi)  # the square of the trace functional: psi into the rows psi selects
    gram = Gf2Matrix(n * n, n * n, swap_rows)
    return PointedSpace(BilinearSpace(big_u, gram), psi)


def _pair_offsets(m: int) -> list[int]:
    """Position of e_i ^ e_(i+1) in the basis e_i ^ e_j (i < j), ordered by i, then j."""
    return [i * m - i * (i + 1) // 2 for i in range(m)]


def _wedge_pairs(vectors: list[int] | tuple[int, ...]) -> list[int]:
    """Coordinates of x ^ y in the e_i ^ e_j basis for the pairs x = vectors[a], y = vectors[b], a < b.

    Coordinate (i, j), i < j, is x_i y_j + y_i x_j: for each i in x one run,
    y shifted down past bit i, and likewise for each i in y.
    """
    m = len(vectors)
    offsets = _pair_offsets(m)
    runs = [[] for _ in vectors]
    for shifts, x in zip(runs, vectors):
        while x:
            b = x.bit_length() - 1
            shifts.append((b + 1, offsets[b]))
            x ^= 1 << b
    out = []
    for a, x in enumerate(vectors):
        xruns = runs[a]
        for b in range(a + 1, m):
            y = vectors[b]
            acc = 0
            for i, o in xruns:
                acc ^= y >> i << o
            for i, o in runs[b]:
                acc ^= x >> i << o
            out.append(acc)
    return out


def wedge_matrix(u: Gf2Matrix) -> Gf2Matrix:
    """The operator induced on the wedge square, on the basis e_i ^ e_j (i < j).

    Column (i, j) is the image u e_i ^ u e_j.  Entry ((k, l), (i, j)) is the
    minor u_ki u_lj + u_li u_kj, so row (k, l) is the wedge of rows k and l.
    """
    cols = _wedge_pairs(u.cols)
    return Gf2Matrix(len(cols), len(cols), _wedge_pairs(u.rows), cols)


def wedge_space(a: BilinearSpace) -> PointedSpace:
    """The wedge square of a non-degenerate space, with its alternating form.

    The basis is e_i ^ e_j for i < j; the underlying symmetric form is the
    2x2 determinant of pairings, whose row (i, j) is g_i ^ g_j for the rows
    g of the Gram matrix, corrected by the rank-one square of the
    functional phi: v ^ w -> b(v, w).  The fixed vector is the invariant
    wedge sum f_i ^ f_(2n+1-i) over a symplectic basis (f_i), independent of
    the choice of basis: with the f_i as the columns of F and J the
    anti-diagonal, its coordinates are the upper triangle of F J F^T, and
    F^T G F = J gives F J F^T = G^(-1).
    """
    m = a.dim
    if m < 4:
        raise ValueError(f"need dimension at least 4, got {m}")
    try:
        h = a.gram.inverse().rows
    except ValueError:  # a singular Gram matrix
        raise ValueError("wedge square form requires a non-degenerate input space") from None
    offsets = _pair_offsets(m)
    g = a.gram.rows
    phi = beta = 0
    for i in range(m):
        phi ^= (g[i] >> (i + 1)) << offsets[i]
        beta ^= (h[i] >> (i + 1)) << offsets[i]
    # bit (i, j) of phi is g_ij, so its set bits are the rows that take phi
    g_rows = _wedge_pairs(g)
    _scatter(g_rows, phi, phi)
    w = len(g_rows)
    return PointedSpace(BilinearSpace(wedge_matrix(a.u), Gf2Matrix(w, w, g_rows)), beta)


def epsilon_of_space(a: BilinearSpace, d: int) -> int:
    """The eps tag at size d: 1 iff b(X^(d-1) v, v) != 0 for some v in Ker X^d.

    The per-size definition, from a kernel basis of the matrix power; the
    map v -> b(X^(d-1) v, v) is linear on Ker X^d (see
    :func:`hesselink_of_space`), so it vanishes on the kernel exactly when it
    vanishes on a kernel basis.
    """
    if d < 1:
        raise ValueError(f"size must be positive, got {d}")
    x = a.u.add(Gf2Matrix.identity(a.dim))
    xd1 = matrix_power(x, d - 1)
    return int(any(a.form(xd1.matvec(v), v) for v in xd1.mul(x).kernel_basis()))


def hesselink_of_space(a: BilinearSpace) -> EpsilonTaggedType:
    """Tagged type of a bilinear space: Jordan type plus the eps tag per size.

    One power chain of X = u - 1 gives the rank profile and, for each size
    d, the layer of pairs (v, y = X^(d-1) v) that completes Ker X^(d-1) to
    Ker X^d.  The tag is 1 iff q(v) = b(X^(d-1) v, v) is nonzero somewhere
    on Ker X^d, and it is read from the layer alone, as the parity of
    G y & v (the rows of the symmetric G are its columns).  That is exact:

    * q is linear on Ker X^d.  Invariance b(u a, u c) = b(a, c) makes the
      adjoint of X equal to u^-1 X, so b(X^(d-1) v, w) = b(v, w') with
      w' = u^-(d-1) X^(d-1) w.  Now u^-(d-1) - 1 = P X for a polynomial P
      in u^-1, so w' - X^(d-1) w = P X^d w = 0 on Ker X^d, and with b
      symmetric b(X^(d-1) v, w) = b(X^(d-1) w, v) there.  So the cross terms
      of q(v + w) cancel over GF(2).
    * q is zero on Ker X^(d-1), where X^(d-1) v = 0.

    So q vanishes on Ker X^d = Ker X^(d-1) + span(layer d) exactly when it
    vanishes on the layer's v.  The G y walk stays written out, as it stops
    at the first odd parity: batched through :func:`_combine` it took 4-7%
    longer on the spaces of oracle-check 12/8 and 18/10 (2-CPU host).
    """
    ranks, layers = _power_chain(a.u)
    g = a.gram.rows
    entries = []
    for d, m in _jordan_from_ranks(ranks).blocks:
        e = 0
        for v, y in layers[d]:
            gy = 0
            while y:
                b = y.bit_length() - 1
                gy ^= g[b]
                y ^= 1 << b
            if (gy & v).bit_count() & 1:
                e = 1
                break
        entries.append((d, m, e))
    return EpsilonTaggedType(tuple(entries))


def subquotient(a: BilinearSpace, v: int) -> BilinearSpace:
    """The space (perp of v) / (span of v) with the induced operator and form.

    v must be a nonzero fixed vector of the operator.  When v lies in the
    radical its perp is everything and only one dimension is lost; otherwise
    two.  The induced form is well defined because v pairs to zero with its
    own perp.

    The perp is the kernel of f = G v.  With q the lowest bit of f, it has
    the basis k_i = e_i + f_i e_q (i != q), or k_i = e_i when f = 0, and a
    perp vector x has coordinate x_i on k_i.  For a bit p != q of v, the k_i
    with i not in {p, q} span a complement of v, since
    x = x_p v + sum of (x + x_p v)_i k_i.  So the induced operator's column i
    is the coordinate vector of u k_i = u e_i + f_i u e_q, and the induced
    Gram row i lists b(k_i, k_j) = y_j + f_j y_q for the row
    y = g_i + f_i g_q of G k_i, with the bits p and q squeezed out.  The
    operator's row r lists coordinate r of each u k_i, that is
    (u k_i)_r + (u k_i)_p v_r = z_i + f_i z_q for z = u_r + v_r u_p, where
    u_r is row r of u: the same correction and squeeze as a Gram row.
    """
    if v == 0:
        raise ValueError("fixed vector must be nonzero")
    if a.u.matvec(v) != v:
        raise ValueError("vector is not fixed by the operator")
    f = a.gram.matvec(v)
    if (f & v).bit_count() & 1:
        raise ValueError("vector is not orthogonal to itself")
    fq = f & -f
    q = fq.bit_length() - 1
    rest = v & ~fq
    if not rest:
        raise RuntimeError("fixed vector should lie in its own perp")
    p = (rest & -rest).bit_length() - 1
    # squeezing out bits p and q keeps the bits below both, moves those between
    # down one and those above both down two; q = -1 drops p alone (mid = 0)
    lo, hi = sorted((p, q))
    down = hi - (lo >= 0)
    keep = (1 << (lo if lo >= 0 else down)) - 1
    mid, up = ((1 << down) - 1) ^ keep, hi + 1
    urows, ucols, g = list(a.u.rows), list(a.u.cols), list(a.gram.rows)
    # column q and Gram row q go into the entries that f selects, and row p into
    # the rows that v selects; entries q and p themselves are dropped below.
    # f = 0 (v in the radical) leaves q = -1 and fq = 0: nothing takes entry q
    _scatter(ucols, ucols[q], f ^ fq)
    _scatter(g, g[q], f ^ fq)
    _scatter(urows, urows[p], v ^ 1 << p)
    for view in (urows, ucols, g):
        del view[hi], view[max(lo, 0):lo + 1]  # lo = q = -1 makes the slice [0:0]
    u_rows = [(z := r ^ f if r & fq else r) & keep | z >> 1 & mid | z >> up << down for r in urows]
    u_cols = [(c := r ^ v if r >> p & 1 else r) & keep | c >> 1 & mid | c >> up << down for r in ucols]
    g_rows = [(y := r ^ f if r & fq else r) & keep | y >> 1 & mid | y >> up << down for r in g]
    k = len(u_cols)
    return BilinearSpace(Gf2Matrix(k, k, u_rows, u_cols), Gf2Matrix(k, k, g_rows))


def restricted_space(a: BilinearSpace, alpha: int) -> BilinearSpace:
    """Same space and form, operator replaced by its 2^alpha-th power."""
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    return BilinearSpace(matrix_power(a.u, 1 << alpha), a.gram)


def induced_space(a: BilinearSpace, alpha: int) -> BilinearSpace:
    """Bilinear space induced along the index-2^alpha cyclic subgroup.

    Coset blocks cycle into each other, the last one through the original
    operator; the form pairs vectors only within a coset block.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be positive, got {alpha}")
    q = 1 << alpha
    d = a.dim
    dim = q * d
    # the last block maps into block 0 through the original operator, and each
    # other block identically onto the next: row r past block 0 is e_(r - d)
    rows = [r << (q - 1) * d for r in a.u.rows] + [1 << i for i in range(dim - d)]
    u = Gf2Matrix(dim, dim, rows)
    gram = _block_diag([a.gram] * q)
    return BilinearSpace(u, gram)
