"""Brute-force GF(2) verifier for the combinatorial class computations.

Everything in :mod:`sp2forms.jordan`, :mod:`sp2forms.hesselink` and
:mod:`sp2forms.reps` is integer bookkeeping; this module rebuilds the same
objects as explicit matrices over the two-element field and recomputes
Jordan types (rank profiles of powers of u - 1), eps tags (a linear
functional on the kernel of a power), and subquotients by a fixed vector.
Rows are stored as Python ints used as bitsets, so all row operations are
single XORs; dimensions up to a few hundred are cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .hesselink import EpsilonTaggedType, SymplecticType
from .jordan import JordanType


class Gf2Matrix:
    """Dense matrix over GF(2); row i is an int whose bit j is entry (i, j)."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Iterable[int]):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = tuple(rows)
        if len(self.rows) != nrows:
            raise ValueError(f"expected {nrows} rows, got {len(self.rows)}")
        mask = (1 << ncols) - 1
        if any(r & ~mask for r in self.rows):
            raise ValueError("row has bits outside the column range")

    @classmethod
    def identity(cls, n: int) -> Gf2Matrix:
        return cls(n, n, (1 << i for i in range(n)))

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> Gf2Matrix:
        return cls(nrows, ncols, (0,) * nrows)

    @classmethod
    def from_lists(cls, entries: list[list[int]]) -> Gf2Matrix:
        nrows = len(entries)
        ncols = len(entries[0]) if entries else 0
        rows = []
        for row in entries:
            acc = 0
            for j, x in enumerate(row):
                if x & 1:
                    acc |= 1 << j
            rows.append(acc)
        return cls(nrows, ncols, rows)

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
        out = []
        for r in self.rows:
            acc = 0
            rr = r
            while rr:
                j = (rr & -rr).bit_length() - 1
                acc ^= other.rows[j]
                rr &= rr - 1
            out.append(acc)
        return Gf2Matrix(self.nrows, other.ncols, out)

    def matvec(self, v: int) -> int:
        """Matrix times column vector (vector = int bitset of coordinates)."""
        acc = 0
        for i, r in enumerate(self.rows):
            if (r & v).bit_count() & 1:
                acc |= 1 << i
        return acc

    def transpose(self) -> Gf2Matrix:
        cols = [0] * self.ncols
        for i, r in enumerate(self.rows):
            rr = r
            while rr:
                j = (rr & -rr).bit_length() - 1
                cols[j] |= 1 << i
                rr &= rr - 1
        return Gf2Matrix(self.ncols, self.nrows, cols)

    def rank(self) -> int:
        pivots: dict[int, int] = {}
        for row in self.rows:
            cur = row
            while cur:
                b = (cur & -cur).bit_length() - 1
                if b in pivots:
                    cur ^= pivots[b]
                else:
                    pivots[b] = cur
                    break
        return len(pivots)

    def kernel_basis(self) -> list[int]:
        """Vectors v with M v = 0, as int bitsets; basis of the kernel."""
        pivots: dict[int, tuple[int, int]] = {}  # pivot bit -> (image, preimage)
        cols = self.transpose().rows
        kernel = []
        for j in range(self.ncols):
            w, v = cols[j], 1 << j
            while w:
                b = (w & -w).bit_length() - 1
                if b not in pivots:
                    pivots[b] = (w, v)
                    break
                pw, pv = pivots[b]
                w ^= pw
                v ^= pv
            else:
                kernel.append(v)
        return kernel

    def inverse(self) -> Gf2Matrix:
        if self.nrows != self.ncols:
            raise ValueError("inverse requires a square matrix")
        n = self.nrows
        pivots: dict[int, tuple[int, int]] = {}
        for i in range(n):
            w, v = self.rows[i], 1 << i
            while w:
                b = (w & -w).bit_length() - 1
                if b not in pivots:
                    pivots[b] = (w, v)
                    break
                pw, pv = pivots[b]
                w ^= pw
                v ^= pv
            else:
                raise ValueError("matrix is singular")
        # eliminate the off-pivot bits so each pivot row becomes a unit vector;
        # descending order guarantees every higher pivot is already reduced
        for b in sorted(pivots, reverse=True):
            w, v = pivots[b]
            rest = w ^ (1 << b)
            while rest:
                b2 = (rest & -rest).bit_length() - 1
                _, pv = pivots[b2]
                rest ^= 1 << b2
                v ^= pv
            pivots[b] = (1 << b, v)
        # pivots[b][1] is the row-combination of self equal to e_b, i.e. row b of the inverse
        out = [pivots[b][1] for b in range(n)]
        return Gf2Matrix(n, n, out)

    def kron(self, other: Gf2Matrix) -> Gf2Matrix:
        rows = []
        for ra in self.rows:
            for rb in other.rows:
                acc = 0
                rr = ra
                while rr:
                    j = (rr & -rr).bit_length() - 1
                    acc |= rb << (j * other.ncols)
                    rr &= rr - 1
                rows.append(acc)
        return Gf2Matrix(self.nrows * other.nrows, self.ncols * other.ncols, rows)


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
    """Single unipotent Jordan block: u e_1 = e_1, u e_i = e_i + e_(i-1)."""
    rows = []
    for i in range(d):
        r = 1 << i
        if i + 1 < d:
            r |= 1 << (i + 1)
        rows.append(r)
    return Gf2Matrix(d, d, rows)


def unipotent_from_jordan(j: JordanType) -> Gf2Matrix:
    """Block-diagonal unipotent matrix with the given Jordan type."""
    blocks = [jordan_block_matrix(d) for d in j.expand()]
    return _block_diag(blocks)


def _block_diag(blocks: list[Gf2Matrix]) -> Gf2Matrix:
    dim = sum(b.nrows for b in blocks)
    rows = []
    offset = 0
    for b in blocks:
        rows.extend(r << offset for r in b.rows)
        offset += b.ncols
    return Gf2Matrix(dim, dim, rows)


def jordan_type_of(u: Gf2Matrix) -> JordanType:
    """Jordan type from the rank profile of powers of X = u - 1.

    The multiplicity of size d is rank X^(d-1) - 2 rank X^d + rank X^(d+1).
    Raises if u is not unipotent (the profile must reach rank zero).
    """
    n = u.nrows
    x = u.add(Gf2Matrix.identity(n))
    ranks = [n]
    p = x
    while True:
        r = p.rank()
        ranks.append(r)
        if r == 0:
            break
        if len(ranks) > n + 1:
            raise ValueError("matrix is not unipotent: rank profile does not vanish")
        p = p.mul(x)
    ranks.append(0)
    out = {}
    for d in range(1, len(ranks) - 1):
        m = ranks[d - 1] - 2 * ranks[d] + ranks[d + 1]
        if m:
            out[d] = m
    return JordanType.from_dict(out)


@dataclass(frozen=True)
class BilinearSpace:
    """A unipotent operator together with the Gram matrix of an invariant alternating form.

    Over GF(2) alternating means symmetric with zero diagonal; the form may
    be degenerate.  Invariance u^T G u = G is checked on construction.
    """

    u: Gf2Matrix
    gram: Gf2Matrix

    def __post_init__(self):
        n = self.u.nrows
        if self.u.ncols != n or self.gram.nrows != n or self.gram.ncols != n:
            raise ValueError("operator and Gram matrix must be square of equal size")
        if self.gram != self.gram.transpose():
            raise ValueError("Gram matrix must be symmetric")
        if any((self.gram.rows[i] >> i) & 1 for i in range(n)):
            raise ValueError("Gram matrix must have zero diagonal (alternating form)")
        ut = self.u.transpose()
        if ut.mul(self.gram).mul(self.u) != self.gram:
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


class PointedSpace(NamedTuple):
    """A bilinear space together with a distinguished fixed vector."""

    space: BilinearSpace
    fixed: int


def build_v(d: int) -> BilinearSpace:
    """The orthogonally indecomposable single-block space V(d), d even.

    The operator is a regular unipotent symplectic element written on a basis
    where the Gram matrix is the anti-diagonal: u e_1 = e_1,
    u e_i = e_i + ... + e_1 for i <= d/2 + 1, and u e_i = e_i + e_(i-1) above.
    """
    if d <= 0 or d % 2:
        raise ValueError(f"V(d) requires an even positive size, got {d}")
    k = d // 2
    rows = [0] * d
    for j in range(d):  # column j = image of e_(j+1)
        i = j + 1
        if i == 1:
            img = [1]
        elif i <= k + 1:
            img = list(range(1, i + 1))
        else:
            img = [i - 1, i]
        for b in img:
            rows[b - 1] |= 1 << j
    u = Gf2Matrix(d, d, rows)
    gram = Gf2Matrix(d, d, (1 << (d - 1 - i) for i in range(d)))
    return BilinearSpace(u, gram)


def build_w(d: int) -> BilinearSpace:
    """The paired space W(d): a block and its dual with the evaluation form.

    The operator acts on coordinates of the dual block by the inverse
    transpose; the Gram matrix is the hyperbolic [[0, I], [I, 0]].
    """
    if d <= 0:
        raise ValueError(f"W(d) requires a positive size, got {d}")
    j = jordan_block_matrix(d)
    jdual = j.inverse().transpose()
    u = _block_diag([j, jdual])
    rows = []
    for i in range(d):
        rows.append(1 << (d + i))
    for i in range(d):
        rows.append(1 << i)
    gram = Gf2Matrix(2 * d, 2 * d, rows)
    return BilinearSpace(u, gram)


def direct_sum(a: BilinearSpace, b: BilinearSpace) -> BilinearSpace:
    """Orthogonal direct sum: block-diagonal operator and Gram matrix."""
    return BilinearSpace(_block_diag([a.u, b.u]), _block_diag([a.gram, b.gram]))


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
    out = parts[0]
    for p in parts[1:]:
        out = direct_sum(out, p)
    return out


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
    m = n * n
    swap_rows = [0] * m
    for i in range(n):
        for j in range(n):
            swap_rows[i * n + j] |= 1 << (j * n + i)
    psi = 0
    for i in range(n):
        psi |= 1 << (i * n + i)
    rows = [swap_rows[p] ^ (psi if (psi >> p) & 1 else 0) for p in range(m)]
    gram = Gf2Matrix(m, m, rows)
    return PointedSpace(BilinearSpace(big_u, gram), psi)


def symplectic_basis(gram: Gf2Matrix) -> list[int]:
    """A basis f_1..f_2n with form(f_i, f_j) = 1 exactly when i + j = 2n + 1.

    Hyperbolic-pair extraction: repeatedly pick a vector, find a partner
    pairing to 1, and clear both from the remaining vectors.  Requires a
    non-degenerate alternating Gram matrix.
    """
    m = gram.nrows
    if m % 2:
        raise ValueError("non-degenerate alternating form needs even dimension")

    def pairing(v, w):
        return (gram.matvec(w) & v).bit_count() & 1

    remaining = [1 << i for i in range(m)]
    pairs = []
    while remaining:
        x = remaining.pop(0)
        partner = None
        for idx, y in enumerate(remaining):
            if pairing(x, y):
                partner = idx
                break
        if partner is None:
            raise ValueError("Gram matrix is degenerate")
        y = remaining.pop(partner)
        remaining = [w ^ (x if pairing(w, y) else 0) ^ (y if pairing(w, x) else 0) for w in remaining]
        pairs.append((x, y))
    n = m // 2
    basis = [0] * m
    for i, (x, y) in enumerate(pairs):
        basis[i] = x
        basis[m - 1 - i] = y
    return basis


def wedge_matrix(u: Gf2Matrix) -> Gf2Matrix:
    """The operator induced on the wedge square, on the basis e_i ^ e_j (i < j)."""
    m = u.nrows
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    index = {p: k for k, p in enumerate(pairs)}
    w = len(pairs)
    u_rows = [0] * w
    for (i, j), col in index.items():
        # image of e_i ^ e_j under u ^ u
        for (k, l), row in index.items():
            val = (u.entry(k, i) & u.entry(l, j)) ^ (u.entry(l, i) & u.entry(k, j))
            if val:
                u_rows[row] |= 1 << col
    return Gf2Matrix(w, w, u_rows)


def wedge_space(a: BilinearSpace) -> PointedSpace:
    """The wedge square of a non-degenerate space, with its alternating form.

    The basis is e_i ^ e_j for i < j; the underlying symmetric form is the
    2x2 determinant of pairings, corrected by the rank-one square of the
    functional v ^ w -> b(v, w).  The fixed vector is the invariant wedge
    sum f_i ^ f_(2n+1-i) over a symplectic basis (f_i), independent of the
    choice of basis.
    """
    m = a.dim
    if m < 4:
        raise ValueError(f"need dimension at least 4, got {m}")
    if not a.is_nondegenerate():
        raise ValueError("wedge square form requires a non-degenerate input space")
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    index = {p: k for k, p in enumerate(pairs)}
    w = len(pairs)
    wedge_u = wedge_matrix(a.u)
    g = a.gram
    phi = 0
    for (i, j), col in index.items():
        if g.entry(i, j):
            phi |= 1 << col
    g_rows = [0] * w
    for (i, j), row in index.items():
        acc = 0
        for (k, l), col in index.items():
            val = (g.entry(i, k) & g.entry(j, l)) ^ (g.entry(i, l) & g.entry(j, k))
            if val:
                acc |= 1 << col
        if (phi >> row) & 1:
            acc ^= phi
        g_rows[row] = acc

    basis = symplectic_basis(a.gram)
    beta = 0
    for i in range(m // 2):
        beta ^= _wedge_vector(basis[i], basis[m - 1 - i], index)
    return PointedSpace(BilinearSpace(wedge_u, Gf2Matrix(w, w, g_rows)), beta)


def _wedge_vector(x: int, y: int, index: dict[tuple[int, int], int]) -> int:
    """Coordinates of x ^ y in the e_i ^ e_j basis."""
    acc = 0
    for (i, j), col in index.items():
        if (((x >> i) & (y >> j)) ^ ((x >> j) & (y >> i))) & 1:
            acc |= 1 << col
    return acc


def jordan_of_space(a: BilinearSpace) -> JordanType:
    """Jordan type of the operator of a bilinear space."""
    return jordan_type_of(a.u)


def epsilon_of_space(a: BilinearSpace, d: int) -> int:
    """The eps tag at size d: 1 iff b(X^(d-1) v, v) != 0 for some v in Ker X^d.

    The map v -> b(X^(d-1) v, v) is additive over GF(2), hence linear, so it
    vanishes on the kernel exactly when it vanishes on a kernel basis.
    """
    if d < 1:
        raise ValueError(f"size must be positive, got {d}")
    x = a.u.add(Gf2Matrix.identity(a.dim))
    xd1 = matrix_power(x, d - 1)
    xd = xd1.mul(x)
    for v in xd.kernel_basis():
        if a.form(xd1.matvec(v), v):
            return 1
    return 0


def hesselink_of_space(a: BilinearSpace) -> EpsilonTaggedType:
    """Tagged type of a bilinear space: Jordan type plus the eps tag per size."""
    jt = jordan_type_of(a.u)
    entries = tuple((d, m, epsilon_of_space(a, d)) for d, m in jt.blocks)
    return EpsilonTaggedType(entries)


class _Solver:
    """Express vectors in a fixed independent spanning set over GF(2)."""

    def __init__(self, vectors: list[int]):
        self.pivots: dict[int, tuple[int, int]] = {}
        for idx, v in enumerate(vectors):
            w, comb = v, 1 << idx
            while w:
                b = (w & -w).bit_length() - 1
                if b not in self.pivots:
                    self.pivots[b] = (w, comb)
                    break
                pw, pcomb = self.pivots[b]
                w ^= pw
                comb ^= pcomb
            else:
                raise ValueError("vectors are linearly dependent")

    def solve(self, x: int) -> int:
        """Coefficient bitset c with XOR of chosen vectors = x."""
        comb = 0
        while x:
            b = (x & -x).bit_length() - 1
            if b not in self.pivots:
                raise ValueError("vector outside the span")
            pw, pcomb = self.pivots[b]
            x ^= pw
            comb ^= pcomb
        return comb


def subquotient(a: BilinearSpace, v: int) -> BilinearSpace:
    """The space (perp of v) / (span of v) with the induced operator and form.

    v must be a nonzero fixed vector of the operator.  When v lies in the
    radical its perp is everything and only one dimension is lost; otherwise
    two.  The induced form is well defined because v pairs to zero with its
    own perp.
    """
    if v == 0:
        raise ValueError("fixed vector must be nonzero")
    if a.u.matvec(v) != v:
        raise ValueError("vector is not fixed by the operator")
    functional = a.gram.matvec(v)
    if a.form(v, v):
        raise ValueError("vector is not orthogonal to itself")
    if functional == 0:
        perp = [1 << i for i in range(a.dim)]
    else:
        perp = Gf2Matrix(1, a.dim, [functional]).kernel_basis()
    # choose a complement of span(v) inside the perp
    pivots: dict[int, int] = {(v & -v).bit_length() - 1: v}
    chosen = []
    for cand in perp:
        w = cand
        while w:
            b = (w & -w).bit_length() - 1
            if b not in pivots:
                pivots[b] = w
                chosen.append(cand)
                break
            w ^= pivots[b]
    if len(chosen) != len(perp) - 1:
        raise RuntimeError("fixed vector should lie in its own perp")
    solver = _Solver([v] + chosen)
    k = len(chosen)
    u_rows = [0] * k
    for col, bvec in enumerate(chosen):
        img = a.u.matvec(bvec)
        comb = solver.solve(img) >> 1  # drop the v coefficient
        for row in range(k):
            if (comb >> row) & 1:
                u_rows[row] |= 1 << col
    g_rows = []
    grams = [a.gram.matvec(b) for b in chosen]
    for i in range(k):
        acc = 0
        for j in range(k):
            if (chosen[i] & grams[j]).bit_count() & 1:
                acc |= 1 << j
        g_rows.append(acc)
    return BilinearSpace(Gf2Matrix(k, k, u_rows), Gf2Matrix(k, k, g_rows))


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
    rows = [0] * dim
    for blk in range(q - 1):
        # block blk maps identically onto block blk + 1
        for i in range(d):
            rows[(blk + 1) * d + i] |= 1 << (blk * d + i)
    for i in range(d):
        # last block maps into block 0 through the original operator
        for j in range(d):
            if a.u.entry(i, j):
                rows[i] |= 1 << ((q - 1) * d + j)
    u = Gf2Matrix(dim, dim, rows)
    gram = _block_diag([a.gram] * q)
    return BilinearSpace(u, gram)
