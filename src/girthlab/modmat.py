"""Matrices over Z/mZ: reduction, compact codes, inverses, group orders.

ModMatrix shares its product, adjugate inverse and square-and-multiply
power with the integer matrices (exactmat._Square): each is exact on the
integer lift and reduced mod m, and only the division by the determinant
is the ring's own.  So exactmat.eval_word evaluates a word at a pair mod m
too, and its value is the reduction of the word's value over Z.

The element code is the row-major, little-endian base-m packing of the n^2
residues.  Read in base m^n, its digit i is the code of row i.  Frontier
search, and the neighbour map that the spectral solver and DOT export share,
act on a code by decoding it into its n^2 residues (cayley._product_action),
which needs no table over the m^n row codes.  The BFS's dense table over
SL_n(F_p) indexes an element by its rank rather than by its code: below p^3
for n = 2 (cayley._sl2_ranks), below p^(n^2-1) for n >= 3
(cayley._sln_ranks, whose top rows act through tables over row codes), but
it still hands back codes.  Codes are int64 throughout, so the BFS rejects
a code space m^(n^2) above 2^63, and the neighbour map acts only on the
codes of a BFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Tuple

from .exactmat import ExactMatrix, ParameterError, ShapeError, _det, _Square


class NonInvertibleError(ValueError):
    """Determinant shares a factor with the modulus."""


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, valid for everything below 3.3 * 10^24."""
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d = p - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class ModMatrix(_Square):
    """Square matrix over Z/mZ with all entries canonical in [0, m)."""

    n: int
    m: int
    entries: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if self.m < 2:
            raise ParameterError(f"modulus must be >= 2, got {self.m}")
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise ShapeError("entry grid does not match dimension")
        for row in self.entries:
            for x in row:
                if not 0 <= x < self.m:
                    raise ParameterError(f"entry {x} not reduced mod {self.m}")

    @classmethod
    def from_rows(cls, rows, m: int) -> "ModMatrix":
        return cls(len(rows), m, tuple(tuple(int(x) % m for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int, m: int) -> "ModMatrix":
        return cls(n, m, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def _new(self, rows) -> "ModMatrix":
        return ModMatrix(self.n, self.m, tuple(tuple(x % self.m for x in row) for row in rows))

    def det(self) -> int:
        """Determinant mod m (exact integer determinant of the lift, reduced)."""
        return _det(self.entries) % self.m

    def _det_inverse(self) -> int:
        d = self.det()
        if gcd(d, self.m) != 1:
            raise NonInvertibleError(f"determinant {d} not invertible mod {self.m}")
        return pow(d, -1, self.m)


def reduce(M: ExactMatrix, m: int) -> ModMatrix:
    """Entrywise residue of an exact matrix mod m."""
    if m < 2:
        raise ParameterError(f"modulus must be >= 2, got {m}")
    return ModMatrix(M.n, m, tuple(tuple(x % m for x in row) for row in M.entries))


def group_order_sl(n: int, p: int) -> int:
    """|SL_n(F_p)| = p^(n(n-1)/2) * prod_{i=2..n} (p^i - 1).

    Stated for fields only; composite moduli get no closed-form target and
    are certified by BFS counting alone.
    """
    if not is_prime(p):
        raise ParameterError(f"group order formula requires a prime modulus, got {p}")
    order = p ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        order *= p**i - 1
    return order


def encode(M: ModMatrix) -> int:
    """Row-major little-endian base-m packing of the entries."""
    code = 0
    weight = 1
    for row in M.entries:
        for x in row:
            code += x * weight
            weight *= M.m
    return code


def decode(code: int, n: int, m: int) -> ModMatrix:
    """Inverse of encode."""
    if code < 0 or code >= m ** (n * n):
        raise ParameterError(f"code {code} out of range for n={n}, m={m}")
    flat = []
    for _ in range(n * n):
        flat.append(code % m)
        code //= m
    rows = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
    return ModMatrix(n, m, rows)
