"""Jordan types of unipotent operators over a field of characteristic two.

A unipotent operator decomposes the underlying space into Jordan blocks; the
multiset of block sizes (the *Jordan type*) determines the operator up to
conjugacy.  This module does exact arithmetic on Jordan types: tensor
products, exterior squares, and restriction/induction along the cyclic
subgroup generated by a power of the operator.  Everything here is pure
integer combinatorics; the matrices live in :mod:`sp2forms.oracle`.  The
bases ``Record`` and ``Value`` give every module's result classes their
repr and equality, and ``Value`` immutability and a hash.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from math import gcd


def nu2(n: int) -> int:
    """2-adic valuation: the largest k with 2^k dividing n (n > 0)."""
    if n <= 0:
        raise ValueError(f"nu2 requires a positive integer, got {n}")
    return (n & -n).bit_length() - 1


class ParseError(ValueError):
    """A type string does not match the expected grammar."""

    def __init__(self, text: str, pos: int, message: str):
        self.text = text
        self.pos = pos
        super().__init__(f"{message} at position {pos}")

    def caret_message(self) -> str:
        """Two-line rendering of the offending input with a caret marker."""
        return f"{self.args[0]}\n  {self.text}\n  {' ' * self.pos}^"


class Record:
    """Equality and a ``Name(field=value, ...)`` repr over the instance's fields.

    The fields are the instance attributes, in the order ``__init__`` sets
    them.  Records of different classes are unequal.
    """

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """An immutable, hashable Record: ``__init__`` sets its fields with ``object.__setattr__``.

    No ``__slots__``: pickle restores slots with setattr, which raises here.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))


# Type strings repeat their terms far more often than whole strings: the
# seed-0 query stream of perfbench reads 473 distinct terms among 43,705 and,
# with its two golden tables, prints 4,950 among 140,945.  So each term is
# read, and each entry printed, once, and looked up after that.  The caches
# hold only text and integer tuples, never a rule's result, and each stops
# inserting at TERM_CACHE_SIZE entries, more than that stream puts in any.
TERM_CACHE_SIZE = 4096


class TermTexts(dict):
    """Printed terms by entry tuple: a missing entry is printed by ``render(*entry)`` and kept while the cache is below TERM_CACHE_SIZE.

    ``render`` prints every field with the ``d`` format, so entries that
    compare equal, such as ``(2, 1, True)`` and ``(2, 1, 1)``, print the
    same digits whichever is printed first.
    """

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, entry):
        text = self.render(*entry)
        if len(self) < TERM_CACHE_SIZE:
            self[entry] = text
        return text


_BLOCK_TEXTS = TermTexts(lambda d, m: f"{d:d}^{m:d}" if m > 1 else f"{d:d}")

# Term text -> entry, one dict per grammar (index 1: tagged), for terms that
# read with nothing left over and contain no space.  Such a key is ASCII
# digits, "^" and "_", each field under int()'s digit limit; it reads the same
# wherever it stands, and a duplicate of it is reported where the term starts.
_READ_TERMS: tuple[dict[str, tuple[int, ...]], dict[str, tuple[int, ...]]] = ({}, {})


def check_ints(*fields: tuple[str, object]) -> None:
    """Raise TypeError naming the first (name, value) field that is neither an int nor a bool; the printers' caches take ``3.0`` for ``3``."""
    for name, x in fields:
        if type(x) is not int and type(x) is not bool:
            raise TypeError(f"{name} must be an int, got {type(x).__name__} {x!r}")


class JordanType(Value):
    """A multiset of Jordan block sizes, as (size, multiplicity) pairs.

    Invariants: sizes strictly increasing, all sizes and multiplicities
    positive ints (bools too).  The empty tuple represents the zero space.
    """

    def __init__(self, blocks: tuple[tuple[int, int], ...] = ()):
        object.__setattr__(self, "blocks", blocks)
        prev = 0
        for d, m in blocks:
            if type(d) is not int or type(m) is not int:
                check_ints(("block size", d), (f"multiplicity of block size {d}", m))
            if d <= prev:
                raise ValueError(f"block sizes must be positive and strictly increasing, got {d} after {prev}")
            if m < 1:
                raise ValueError(f"multiplicity of block size {d} must be positive, got {m}")
            prev = d

    @classmethod
    def from_dict(cls, counts: dict[int, int]) -> JordanType:
        """Build a type from a size -> multiplicity mapping, dropping zeros."""
        return cls(tuple([(d, m) for d, m in sorted(counts.items()) if m]))

    def sizes(self) -> tuple[int, ...]:
        return tuple([d for d, _ in self.blocks])

    def dimension(self) -> int:
        return sum([d * m for d, m in self.blocks])

    def expand(self) -> tuple[int, ...]:
        """All block sizes listed with multiplicity, ascending."""
        return tuple(d for d, m in self.blocks for _ in range(m))

    def __str__(self) -> str:
        """The ``d^m`` comma-separated grammar, ``^1`` omitted; ``0`` for the empty type.

        Each (size, multiplicity) entry's text is looked up in a :class:`TermTexts`.
        """
        if not self.blocks:
            return "0"
        return ",".join(map(_BLOCK_TEXTS.__getitem__, self.blocks))

    def pretty(self) -> str:
        """Parenthesized, space-separated rendering, e.g. ``(1^2, 2)``."""
        return "(" + str(self).replace(",", ", ") + ")"

    def to_json(self) -> dict:
        return {"blocks": [[d, m] for d, m in self.blocks]}

    @classmethod
    def from_json(cls, data: dict) -> JordanType:
        return cls(tuple((int(d), int(m)) for d, m in data["blocks"]))

    @classmethod
    def parse(cls, text: str) -> JordanType:
        """Parse the ``d^m`` comma-separated grammar, e.g. ``3^2,5``.

        ``^1`` may be omitted; ``0`` denotes the empty type.  Duplicate or
        non-positive sizes are rejected with the offending position.
        """
        return cls(_scan_terms(text, tagged=False))


def _scan_terms(text: str, tagged: bool) -> tuple[tuple[int, ...], ...]:
    """Scan comma-separated ``d^m`` terms, or ``d_e^m`` terms when tagged.

    Returns (d, m) or (d, m, e) tuples sorted by size; ``0`` gives the empty
    tuple.  Each term is first looked up by its exact text in the grammar's
    dict of terms already read; any other term is read by :func:`_read_term`.
    Every error is a ParseError at the offending position, the first one met
    reading left to right, except that a character no term can take is
    reported after the duplicate size check.  No regular expression:
    compiling one at import would cost start-up time.
    """
    if text[:1] in " (0":  # a space, "(" or "0" first; "" enters too
        inner = text.strip(" ")
        if inner[:1] == "(" and inner[-1:] == ")":  # the parenthesized table rendering
            text = inner[1:-1]
        tail = text.lstrip(" ")
        if tail[:1] == "0":
            tail = tail[1:].lstrip(" ")
            if not tail:
                return ()
            raise ParseError(text, len(text) - len(tail), "unexpected input after '0'")
    known = _READ_TERMS[tagged]
    terms: dict[int, tuple[int, ...]] = {}
    at = 0
    for term in text.split(","):
        entry = known.get(term)
        junk = -1  # where a character the term cannot take starts
        if entry is None:
            entry, junk = _read_term(text, at, term, tagged)
        d = entry[0]
        if d in terms:
            raise ParseError(text, at + len(term) - len(term.lstrip(" ")), f"duplicate block size {d}")
        terms[d] = entry
        if junk >= 0:
            raise ParseError(text, junk, f"expected ',' or end of input, got {text[junk]!r}")
        at += len(term) + 1
    return tuple(sorted(terms.values()))


def _read_term(text: str, at: int, term: str, tagged: bool) -> tuple[tuple[int, ...], int]:
    """Read the term at position ``at`` of ``text``: its entry, and where a character it cannot take starts, or -1.

    Terms are cut at ``^`` and ``_`` with str methods, and each field is read
    by :func:`_scan_field`.  A term read with nothing left over and without a
    space is stored in the grammar's dict of terms already read.
    """
    size, caret, mult = term.partition("^")
    if tagged:
        size, under, e = size.partition("_")
    d, junk = _scan_field(text, at, size, "block size")
    if tagged:
        if junk < 0 and not under:
            junk = at + len(size)
        if junk >= 0:
            raise ParseError(text, junk, "expected '_' and an eps tag")
        e, junk = _scan_field(text, at + len(size) + 1, e, "eps tag")
    m = 1
    if caret and junk < 0:
        m, junk = _scan_field(text, at + len(term) - len(mult), mult, "multiplicity")
    entry = (d, m, e) if tagged else (d, m)
    known = _READ_TERMS[tagged]
    if junk < 0 and " " not in term and len(known) < TERM_CACHE_SIZE:
        known[term] = entry
    return entry, junk


def _scan_field(text: str, at: int, field: str, what: str) -> tuple[int, int]:
    """Read the integer of a field at position ``at`` of ``text``: its value, and where any rest starts.

    Spaces may stand around the ASCII digits.  The rest position is that of
    the first other character after the digits, or -1 if there is none.
    Missing digits, a zero block size or multiplicity and an eps tag other
    than 0 or 1 raise ParseError.
    """
    body = field.lstrip(" ")
    at += len(field) - len(body)
    rest = body.lstrip("0123456789")
    digits = len(body) - len(rest)
    if not digits:
        raise ParseError(text, at, f"expected {what}")
    value = int(body[:digits])
    last = at + digits - 1
    if what == "eps tag" and value > 1:
        raise ParseError(text, last, f"eps tag must be 0 or 1, got {value}")
    if not value and what != "eps tag":
        raise ParseError(text, at if what == "block size" else last, f"{what} must be positive")
    tail = rest.lstrip(" ")
    return value, (at + len(body) - len(tail) if tail else -1)


class ConsecutiveOnesExpansion(Value):
    """Minimal alternating-sign representation n = sum of (-1)^(i+1) * 2^(e_i).

    Terms are (sign, exponent) pairs with strictly decreasing exponents and
    signs alternating starting with +1.
    """

    def __init__(self, terms: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "terms", terms)

    def value(self) -> int:
        return sum(s * (1 << e) for s, e in self.terms)

    def exponents(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.terms)

    def __str__(self) -> str:
        parts = []
        for i, (s, e) in enumerate(self.terms):
            if i == 0:
                parts.append(f"2^{e}")
            else:
                parts.append(f"{'+' if s > 0 else '-'} 2^{e}")
        return " ".join(parts)

    def to_json(self) -> dict:
        return {"terms": [[s, e] for s, e in self.terms]}


def consecutive_ones(n: int) -> ConsecutiveOnesExpansion:
    """Expand n > 0 into its minimal alternating sum of powers of two.

    The set bits of n ^ (n << 1) are where the bits of n change, so each
    maximal run of ones, bits b..a-1, gives exponents a and b, and read from
    the top they make n = 2^a - 2^b + ... with signs alternating from +.  A
    lowest run of one bit, 2^(b+1) - 2^b, collapses to a lone +2^b term.
    """
    if n <= 0:
        raise ValueError(f"consecutive_ones requires a positive integer, got {n}")
    change = n ^ (n << 1)
    terms = []
    sign = 1
    while change:
        e = change.bit_length() - 1
        terms.append((sign, e))
        sign = -sign
        change ^= 1 << e
    if terms[-2][1] == terms[-1][1] + 1:
        terms[-2:] = [(1, terms[-1][1])]
    return ConsecutiveOnesExpansion(tuple(terms))


# Cached per ordered pair; every caller passes the smaller size first, so
# each unordered pair takes one entry.
@lru_cache(maxsize=None)
def _tensor_blocks(m: int, n: int) -> tuple[tuple[int, int], ...]:
    if m > n:
        m, n = n, m
    alpha = n.bit_length() - 1  # 2^alpha <= n < 2^(alpha+1)
    q2 = 1 << (alpha + 1)
    if n == 1 << alpha:
        return ((n, m),)
    if m + n > q2:
        out = dict(_tensor_blocks(q2 - n, q2 - m))
        out[q2] = out.get(q2, 0) + (m + n - q2)
        return tuple(sorted(out.items()))
    inner = _tensor_blocks(m, q2 - n) if m <= q2 - n else _tensor_blocks(q2 - n, m)
    return tuple(sorted((q2 - d, c) for d, c in inner))


def tensor_blocks(m: int, n: int) -> JordanType:
    """Jordan type of the tensor product of single blocks of sizes m and n.

    Recursion on the least power of two above max(m, n): either the product
    splits off full-size blocks, reflects through the power of two, or the
    larger factor is itself a power of two and the answer is immediate.

    It has min(m, n) blocks, by induction on the larger factor (m <= n,
    2^k <= n < q = 2^(k+1)).  If n = 2^k, it is m blocks of size n.  If
    m + n > q, it is (q - n) x (q - m), of q - n blocks, and m + n - q
    blocks of size q.  Otherwise it is m x (q - n), of m blocks, reflected.
    """
    if m < 1 or n < 1:
        raise ValueError(f"block sizes must be positive, got ({m}, {n})")
    return JordanType(_tensor_blocks(m, n) if m <= n else _tensor_blocks(n, m))


def tensor(j1: JordanType, j2: JordanType) -> JordanType:
    """Jordan type of a tensor product, extended additively from tensor_blocks.

    Every multiplicity is a sum of positive products, so none is zero.
    """
    out: dict[int, int] = {}
    for d, m in j2.blocks:
        grow_product(out, j1.blocks, d, m)
    return JordanType(tuple(sorted(out.items())))


def tensor_square_closed(n: int) -> JordanType:
    """Jordan type of the tensor square of a single block, in closed form.

    Block sizes are the powers of two in the consecutive-ones expansion of n;
    the term s * 2^e has multiplicity 2^e + 2 s r, where r is the value of the
    terms after it.
    """
    if n <= 0:
        raise ValueError(f"tensor_square_closed requires a positive integer, got {n}")
    out = {}
    rest = 0
    for s, e in reversed(consecutive_ones(n).terms):
        out[1 << e] = (1 << e) + 2 * s * rest
        rest += s << e
    return JordanType.from_dict(out)


def unique_odd_block(m: int, n: int) -> int:
    """The unique odd block size in the tensor product of odd-size blocks, m ^ n ^ 1, of multiplicity one.

    By induction on :func:`_tensor_blocks` (m <= n, 2^k <= n < q = 2^(k+1)),
    as q - x = (q - 1) ^ x ^ 1 for odd x < q.  If n = 2^k, m = n = 1.  If
    m + n > q, blocks of the even size q join (q - n) x (q - m), whose odd
    block is (q - n) ^ (q - m) ^ 1 = m ^ n ^ 1.  Otherwise each size x of
    m x (q - n) reflects to q - x, keeping parity and multiplicity, and
    q - (m ^ (q - n) ^ 1) = (q - 1) ^ m ^ (q - n) = m ^ n ^ 1.
    """
    if m % 2 == 0 or n % 2 == 0:
        raise ValueError(f"unique_odd_block requires odd block sizes, got ({m}, {n})")
    return m ^ n ^ 1


@lru_cache(maxsize=None)
def _wedge_block(n: int) -> tuple[tuple[int, int], ...]:
    if n <= 1:
        return ()
    q = 1 << (n - 1).bit_length()  # least power of two with q/2 < n <= q
    out = dict(_wedge_block(q - n))
    if n - q // 2 - 1 > 0:
        out[q] = out.get(q, 0) + (n - q // 2 - 1)
    d = 3 * q // 2 - n
    out[d] = out.get(d, 0) + 1
    return tuple(sorted(out.items()))


def wedge_block(n: int) -> JordanType:
    """Jordan type of the exterior square of a single block of size n.

    Recursion reflecting n through the least power of two q with
    q/2 < n <= q; dimension n(n-1)/2.
    """
    if n <= 0:
        raise ValueError(f"wedge_block requires a positive block size, got {n}")
    return JordanType(_wedge_block(n))


def wedge_square(j: JordanType) -> JordanType:
    """Jordan type of the exterior square of a sum of blocks.

    Each size d of multiplicity m contributes m exterior squares of a single
    d-block plus C(m, 2) copies of the d x d tensor product; distinct sizes
    contribute their pairwise tensor products.  Every multiplicity is a sum
    of positive products, so none is zero.
    """
    return JordanType(tuple(sorted(square_multiplicities(grow_wedge_square, j.blocks).items())))


# Square growth: each step adds in place to the Jordan multiplicities of a
# square of a prefix P what m more blocks of size d contribute.  tensor,
# wedge_square, hesselink.tensor_bilinear and the rules of reps fold them over
# their blocks; the partition search of distinguished grows partial tensor and
# wedge squares one size at a time.


def square_multiplicities(grow, blocks) -> dict[int, int]:
    """Size -> multiplicity of a square of the sum of ``blocks``, grown one size at a time by ``grow``.

    ``grow`` is :func:`grow_tensor_square` or :func:`grow_wedge_square`; each
    size meets only the sizes before it, so k sizes make k(k+1)/2 pairs.
    """
    out: dict[int, int] = {}
    for i, (d, m) in enumerate(blocks):
        grow(out, blocks[:i], d, m)
    return out


def grow_product(square: dict[int, int], factor: Iterable[tuple[int, int]], d: int, m: int) -> None:
    """J x (P + m.d) = J x P + m (J x d), for the fixed factor J with blocks ``factor``."""
    get = square.get
    for e, c in factor:
        k = c * m
        for s, t in _tensor_blocks(e, d) if e <= d else _tensor_blocks(d, e):
            square[s] = get(s, 0) + k * t


def grow_tensor_square(square: dict[int, int], prefix: Iterable[tuple[int, int]], d: int, m: int) -> None:
    """(P + m.d) x (P + m.d) = P x P + m^2 (d x d) + 2m (P x d)."""
    get = square.get
    k = m * m
    for s, t in _tensor_blocks(d, d):
        square[s] = get(s, 0) + k * t
    grow_product(square, prefix, d, 2 * m)


def grow_wedge_square(square: dict[int, int], prefix: Iterable[tuple[int, int]], d: int, m: int) -> None:
    """wedge^2 (P + m.d) = wedge^2 P + m wedge^2 d + C(m, 2) (d x d) + m (P x d)."""
    get = square.get
    for s, t in _wedge_block(d):
        square[s] = get(s, 0) + m * t
    if m > 1:
        k = m * (m - 1) // 2
        for s, t in _tensor_blocks(d, d):
            square[s] = get(s, 0) + k * t
    grow_product(square, prefix, d, m)


def restrict_power(j: JordanType, alpha: int) -> JordanType:
    """Jordan type of the 2^alpha-th power of the operator on the same space.

    A block of size a*2^alpha + r splits into r blocks of size a+1 and
    2^alpha - r blocks of size a.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    q = 1 << alpha
    out: dict[int, int] = {}
    for d, m in j.blocks:
        a, r = divmod(d, q)
        if r:
            out[a + 1] = out.get(a + 1, 0) + r * m
        if a:
            out[a] = out.get(a, 0) + (q - r) * m
    return JordanType.from_dict(out)


def induce_power(j: JordanType, alpha: int) -> JordanType:
    """Jordan type induced along the index-2^alpha cyclic subgroup: sizes scale by 2^alpha."""
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    return JordanType(tuple((d << alpha, m) for d, m in j.blocks))


def gcd_valuation(sizes) -> int:
    """nu2 of the gcd of a non-empty collection of positive integers."""
    g = gcd(*sizes)
    if not g:
        raise ValueError("gcd_valuation requires a non-empty collection of sizes")
    return nu2(g)
