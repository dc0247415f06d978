"""Exact integer matrices, the exact-arithmetic core, and reduced words.

Everything here is arbitrary precision: the top-left entry of an
alternating product grows like (ab+1)^k and blows through 64 bits after a
handful of syllables, so no operation is allowed a fixed-width fast path.
All values are immutable and all operations are pure.

Each exact algorithm exists once, in _Square, which ExactMatrix and
modmat.ModMatrix share: the product, the adjugate inverse and the
square-and-multiply power.  Only the ring differs: an integer matrix is
invertible when its determinant is +-1, a matrix mod m when its determinant
is a unit mod m.  So eval_word takes either kind, and a word evaluated at
a pair mod m equals the reduction of its value over Z.
generator_pair builds the pair (X, Y) = (A^l, B^l) that every claim is
about.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterable, List, Optional, Sequence, Tuple


class ParameterError(ValueError):
    """A constructor argument is outside its documented domain."""


class ShapeError(ValueError):
    """Matrix shape unsupported by the requested operation."""


def binom_general(k: int, r: int) -> int:
    """Binomial coefficient C(k, r) for any integer k and r >= 0.

    Uses the falling-factorial definition k(k-1)...(k-r+1)/r!, which is the
    correct extension for negative k (e.g. C(-1, r) = (-1)^r) and reproduces
    the usual convention C(k, r) = 0 for 0 <= k < r.
    """
    if r < 0:
        raise ParameterError(f"lower index must be nonnegative, got {r}")
    num = 1
    for i in range(r):
        num *= k - i
    return num // factorial(r)


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free (Bareiss)
    elimination; the empty matrix has determinant 1."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _adjugate(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """adj(M) of an integer matrix: entry (j, i) is the (i, j) cofactor, from
    the exact determinants of the minors."""
    n = len(rows)
    return [
        [
            (-1) ** (i + j) * _det([r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i])
            for i in range(n)
        ]
        for j in range(n)
    ]


class _Square:
    """The exact algorithms that integer matrices (ExactMatrix) and matrices
    mod m (modmat.ModMatrix) share, each written once.

    A subclass holds the dimension n, its rows in entries, and m, the
    modulus or None over Z.  It provides _new(rows), the matrix of its own
    kind with these integer rows (reduced mod m when there is one), and
    _det_inverse(), the inverse of det M in its ring, which raises the
    subclass's own error when det M is not a unit.
    """

    def __getitem__(self, ij: Tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def __matmul__(self, other):
        if (self.n, self.m) != (other.n, other.m):
            raise ShapeError(
                f"dimension or modulus mismatch: {self.n} vs {other.n}, {self.m} vs {other.m}"
            )
        n = self.n
        a, b = self.entries, other.entries
        return self._new(
            [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        )

    def transpose(self):
        return self._new(zip(*self.entries))

    def is_identity(self) -> bool:
        return all(
            self.entries[i][j] == (1 if i == j else 0)
            for i in range(self.n)
            for j in range(self.n)
        )

    def inverse(self):
        """Inverse via the adjugate: adj(M) times the inverse of det M."""
        d_inv = self._det_inverse()
        return self._new([[x * d_inv for x in row] for row in _adjugate(self.entries)])

    def pow(self, k: int):
        """M^k by square-and-multiply; a negative k goes through the inverse."""
        if k < 0:
            return self.inverse().pow(-k)
        n = self.n
        result = self._new([[int(i == j) for j in range(n)] for i in range(n)])
        base = self
        while k:
            if k & 1:
                result = result @ base
            k >>= 1
            if k:
                base = base @ base
        return result


@dataclass(frozen=True)
class ExactMatrix(_Square):
    """Square matrix over the integers, stored as a tuple of row tuples."""

    n: int
    entries: Tuple[Tuple[int, ...], ...]
    m = None  # no modulus over Z; a class attribute, not a dataclass field

    def __post_init__(self):
        if self.n < 1 or len(self.entries) != self.n:
            raise ShapeError(f"expected {self.n} rows, got {len(self.entries)}")
        for row in self.entries:
            if len(row) != self.n:
                raise ShapeError("ragged rows in matrix")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "ExactMatrix":
        return cls(len(rows), tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def _new(self, rows) -> "ExactMatrix":
        return ExactMatrix(self.n, tuple(map(tuple, rows)))

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        return _det(self.entries)

    def _det_inverse(self) -> int:
        d = self.det()
        if d not in (1, -1):
            raise ShapeError(f"matrix not invertible over Z (det={d})")
        return d  # a unit of Z is its own inverse

    def magic_profile(self) -> Optional[Tuple[str, int]]:
        """("upper", a) or ("lower", b) if this is a magic matrix, else None.

        A magic matrix is unitriangular with one constant nonzero
        off-diagonal band right next to the diagonal and zeros everywhere
        else: the k = 1 matrix of _band_power.
        """
        if self.n < 2:
            return None
        for side, band in (("upper", self.entries[0][1]), ("lower", self.entries[1][0])):
            if band != 0 and self == _band_power(self.n, side, band, 1):
                return (side, band)
        return None


def _band_power(n: int, side: str, band: int, k: int) -> ExactMatrix:
    """The k-th power of the n x n magic matrix with this band on side
    ("upper" or "lower"), in closed form.

    Entry (i, j) is C(k, d) band^d at the distance d = j - i (upper) or
    i - j (lower) from the diagonal, and 0 for d < 0.  A negative k uses the
    generalized binomial, which agrees with the explicit inverse; k = 1 is
    the magic matrix itself.
    """
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            d = j - i if side == "upper" else i - j
            row.append(binom_general(k, d) * band**d if d >= 0 else 0)
        rows.append(tuple(row))
    return ExactMatrix(n, tuple(rows))


_LETTERS = ("X", "Y")


@dataclass(frozen=True)
class Word:
    """Reduced word over a two-letter alphabet with signed integer exponents.

    Stored in syllable form: ``(("X", 2), ("Y", -3))`` means X^2 Y^-3.
    Adjacent syllables always carry distinct letters and no exponent is zero,
    so a power like X^(10^6) costs one syllable, and eval_word takes one
    square-and-multiply per syllable.
    """

    syllables: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        prev = None
        for letter, exp in self.syllables:
            if letter not in _LETTERS:
                raise ParameterError(f"unknown letter {letter!r}")
            if exp == 0:
                raise ParameterError("zero exponent in reduced word")
            if letter == prev:
                raise ParameterError("adjacent syllables share a letter; use Word.of")
            prev = letter

    @classmethod
    def of(cls, pairs: Iterable[Tuple[str, int]]) -> "Word":
        """Build a Word, merging adjacent same-letter syllables and dropping zeros."""
        out: list = []
        for letter, exp in pairs:
            exp = int(exp)
            if exp == 0:
                continue
            if out and out[-1][0] == letter:
                merged = out[-1][1] + exp
                out.pop()
                if merged != 0:
                    out.append((letter, merged))
            else:
                out.append((letter, exp))
        return cls(tuple(out))

    @property
    def length(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    def inverse(self) -> "Word":
        return Word(tuple((letter, -exp) for letter, exp in reversed(self.syllables)))

    def __mul__(self, other: "Word") -> "Word":
        return Word.of(self.syllables + other.syllables)

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        parts = []
        for letter, exp in self.syllables:
            parts.append(letter if exp == 1 else f"{letter}^{exp}")
        return " ".join(parts)


def magic_pair(n: int, a: int, b: int, *, allow_small: bool = False) -> Tuple[ExactMatrix, ExactMatrix]:
    """The unitriangular generator pair: A with superdiagonal a, B with
    subdiagonal b.  It is generator_pair at l = 1, with allow_small as there."""
    return generator_pair(n, 1, a, b, allow_small=allow_small)


def generator_pair(
    n: int, l: int, a: int, b: int, *, allow_small: bool = False
) -> Tuple[ExactMatrix, ExactMatrix]:
    """The generators (X, Y) = (A^l, B^l) of the magic pair (A, B), in
    closed form (_band_power).

    The freeness guarantees assume a, b >= 2, so smaller values are rejected
    unless allow_small is set (the non-freeness scans deliberately probe
    a = b = 1).
    """
    if n < 2:
        raise ParameterError(f"dimension must be >= 2, got {n}")
    floor = 1 if allow_small else 2
    if a < floor or b < floor:
        raise ParameterError(
            f"band values must be >= {floor}, got a={a}, b={b}"
            + ("" if allow_small else " (freeness statements assume a,b >= 2)")
        )
    return _band_power(n, "upper", a, l), _band_power(n, "lower", b, l)


def power_closed_form(M: ExactMatrix, k: int) -> ExactMatrix:
    """M^k for a magic matrix M, in closed form (_band_power for the side
    and band that M.magic_profile reads)."""
    profile = M.magic_profile()
    if profile is None:
        raise ShapeError("closed-form powers require a magic (unitriangular banded) matrix")
    return _band_power(M.n, *profile, k)


def eval_word(w: Word, X, Y):
    """Evaluate a reduced word at the pair (X, Y): two integer matrices, or
    two matrices mod the same m (modmat.ModMatrix)."""
    if X.n != Y.n:
        raise ShapeError(f"dimension mismatch: {X.n} vs {Y.n}")
    gens = {"X": X, "Y": Y}
    # each generator is inverted once, at its first negative syllable: an
    # inverse is an adjugate of n^2 minors
    inverses = {}
    result = X.pow(0)  # the identity, of X's kind
    for letter, exp in w.syllables:
        g = gens[letter]
        if exp < 0:
            if letter not in inverses:
                inverses[letter] = g.inverse()
            g, exp = inverses[letter], -exp
        result = result @ g.pow(exp)
    return result
