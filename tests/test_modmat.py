"""Mod-m matrix layer: reduction, codes, inverses, group orders."""

import itertools
import random

import pytest

from girthlab import cayley
from girthlab.exactmat import ParameterError, magic_pair, power_closed_form
from girthlab.modmat import (
    ModMatrix,
    NonInvertibleError,
    decode,
    encode,
    group_order_sl,
    is_prime,
    reduce,
)


def brute_sl2_order(p):
    """Exhaustive determinant-1 count over all p^4 2x2 matrices."""
    count = 0
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p == 1:
            count += 1
    return count


def test_reduce_examples():
    A, _ = magic_pair(2, 2, 2)
    assert reduce(A, 3).entries == ((1, 2), (0, 1))
    A3, _ = magic_pair(3, 2, 2)
    assert reduce(power_closed_form(A3, 4), 3).entries == (
        (1, 2, 0),
        (0, 1, 2),
        (0, 0, 1),
    )
    assert reduce(A, 2).is_identity()


def test_reduce_is_ring_homomorphism():
    rng = random.Random(99)
    A, B = magic_pair(3, 4, 7)
    for _ in range(50):
        M1 = power_closed_form(A, rng.randint(-9, 9))
        M2 = power_closed_form(B, rng.randint(-9, 9))
        m = rng.choice([3, 5, 7, 11])
        assert reduce(M1 @ M2, m).entries == (reduce(M1, m) @ reduce(M2, m)).entries


def test_group_order_formula_against_enumeration():
    assert group_order_sl(2, 3) == 24 == brute_sl2_order(3)
    assert group_order_sl(2, 5) == 120 == brute_sl2_order(5)
    for p in (7, 11, 13):
        assert group_order_sl(2, p) == p * (p * p - 1) == brute_sl2_order(p)


def test_group_order_sl3_against_elementary_closure():
    assert group_order_sl(3, 3) == 5616
    # independent oracle: BFS closure of the six elementary transvections
    gens = []
    for i in range(3):
        for j in range(3):
            if i != j:
                rows = [[1 if r == c else 0 for c in range(3)] for r in range(3)]
                rows[i][j] = 1
                gens.append(ModMatrix.from_rows(rows, 3))
    assert cayley.closure(gens) == 5616


def test_group_order_rejects_composite():
    with pytest.raises(ParameterError):
        group_order_sl(2, 6)


def test_inverse_examples():
    ident = ModMatrix.identity(3, 7)
    assert ident.inverse().is_identity()
    M = ModMatrix.from_rows([[1, 2], [0, 1]], 5)
    assert M.inverse().entries == ((1, 3), (0, 1))


def test_inverse_random_unitriangular_products():
    rng = random.Random(5)
    A, B = magic_pair(3, 2, 3)
    for _ in range(30):
        W = reduce(power_closed_form(A, rng.randint(1, 5)), 7) @ reduce(
            power_closed_form(B, rng.randint(1, 5)), 7
        )
        assert (W @ W.inverse()).is_identity()


def test_inverse_rejects_singular():
    with pytest.raises(NonInvertibleError):
        ModMatrix.from_rows([[1, 1], [1, 1]], 5).inverse()
    with pytest.raises(NonInvertibleError):
        ModMatrix.from_rows([[2, 0], [0, 1]], 4).inverse()


def test_encode_decode_roundtrip():
    rng = random.Random(11)
    for _ in range(10_000):
        n = rng.choice([2, 3, 4])
        m = rng.choice([3, 5, 7, 11])
        rows = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
        M = ModMatrix.from_rows(rows, m)
        code = encode(M)
        assert 0 <= code < m ** (n * n)
        assert decode(code, n, m).entries == M.entries


def test_encode_is_row_major_little_endian():
    M = ModMatrix.from_rows([[1, 2], [3, 4]], 5)
    assert encode(M) == 1 + 2 * 5 + 3 * 25 + 4 * 125


def test_decode_rejects_out_of_range():
    with pytest.raises(ParameterError):
        decode(5**4, 2, 5)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 1009}
    for x in list(primes) + [1, 4, 6, 9, 561, 1024]:
        assert is_prime(x) == (x in primes)


def test_entries_validated():
    with pytest.raises(ParameterError):
        ModMatrix(2, 5, ((1, 7), (0, 1)))
    with pytest.raises(ParameterError):
        ModMatrix(2, 1, ((0, 0), (0, 0)))


def test_integer_and_modular_matrices_share_inverse_and_power():
    # one adjugate inverse and one square-and-multiply power serve both
    # kinds; only the division by the determinant, and its error, differ
    from girthlab.exactmat import ExactMatrix, ShapeError

    E = ExactMatrix.from_rows([[2, 1], [1, 1]])
    assert (E.pow(-3) @ E.pow(3)).is_identity()
    assert reduce(E.pow(-3), 7) == reduce(E, 7).pow(-3) == reduce(E, 7).inverse().pow(3)
    assert E.transpose() == E and E.transpose()[0, 1] == 1
    assert ExactMatrix.from_rows([[-1]]).inverse() == ExactMatrix.from_rows([[-1]])
    assert ModMatrix.from_rows([[3]], 7).inverse() == ModMatrix.from_rows([[5]], 7)
    with pytest.raises(ShapeError):
        ExactMatrix.from_rows([[2]]).inverse()
    with pytest.raises(NonInvertibleError):
        ModMatrix.from_rows([[2]], 4).inverse()
    with pytest.raises(ShapeError):
        E @ reduce(E, 7)
    with pytest.raises(ShapeError):
        reduce(E, 5) @ reduce(E, 7)
