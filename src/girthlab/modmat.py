"""Matrices over Z/mZ: reduction, compact codes, inverses, group orders.

The element code is the row-major, little-endian base-m packing of the n^2
residues.  Read in base m^n, its digit i is the code of row i, which is how
the BFS acts on codes without decoding them (cayley.row_action).  Codes
below 2^63 drive the dense BFS, the spectral neighbour build and DOT export;
bigger codes still work as Python ints in the slow dictionary BFS, and the
other two reject them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Tuple

from .exactmat import ExactMatrix, ParameterError, ShapeError


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
class ModMatrix:
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

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __matmul__(self, other: "ModMatrix") -> "ModMatrix":
        if self.n != other.n or self.m != other.m:
            raise ShapeError("dimension or modulus mismatch")
        n, m = self.n, self.m
        a, b = self.entries, other.entries
        rows = tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) % m for j in range(n))
            for i in range(n)
        )
        return ModMatrix(n, m, rows)

    def is_identity(self) -> bool:
        return all(
            self.entries[i][j] == (1 if i == j else 0)
            for i in range(self.n)
            for j in range(self.n)
        )

    def det(self) -> int:
        """Determinant mod m (exact integer determinant of the lift, reduced)."""
        return ExactMatrix(self.n, self.entries).det() % self.m

    def pow(self, k: int) -> "ModMatrix":
        if k < 0:
            return inverse(self).pow(-k)
        result = ModMatrix.identity(self.n, self.m)
        base = self
        while k:
            if k & 1:
                result = result @ base
            k >>= 1
            if k:
                base = base @ base
        return result

    def transpose(self) -> "ModMatrix":
        return ModMatrix(self.n, self.m, tuple(zip(*self.entries)))


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


def inverse(M: ModMatrix) -> ModMatrix:
    """Inverse mod m via the adjugate; requires gcd(det, m) = 1."""
    d = M.det()
    if gcd(d, M.m) != 1:
        raise NonInvertibleError(f"determinant {d} not invertible mod {M.m}")
    d_inv = pow(d, -1, M.m)
    n, m = M.n, M.m
    if n == 1:
        return ModMatrix(1, m, ((d_inv,),))
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = ExactMatrix(
                n - 1,
                tuple(
                    tuple(M.entries[r][c] for c in range(n) if c != j)
                    for r in range(n)
                    if r != i
                ),
            )
            cof[j][i] = (-1) ** (i + j) * minor.det() * d_inv % m
    return ModMatrix(n, m, tuple(tuple(row) for row in cof))


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
