"""Exact-matrix layer: magic pair construction, closed-form powers, words."""

import random

import pytest

from girthlab.exactmat import (
    ExactMatrix,
    ParameterError,
    ShapeError,
    Word,
    binom_general,
    eval_word,
    generator_pair,
    magic_pair,
    power_closed_form,
)


def naive_power(M, k):
    """Repeated-multiplication oracle, independent of the closed form."""
    if k < 0:
        return naive_power(M.inverse(), -k)
    out = ExactMatrix.identity(M.n)
    for _ in range(k):
        out = out @ M
    return out


def test_magic_pair_n3_display():
    A, B = magic_pair(3, 4, 2)
    assert A.entries[0] == (1, 4, 0)
    assert A.entries == ((1, 4, 0), (0, 1, 4), (0, 0, 1))
    assert B.entries[1] == (2, 1, 0)
    assert B.entries == ((1, 0, 0), (2, 1, 0), (0, 2, 1))


def test_magic_pair_n2():
    A, B = magic_pair(2, 2, 2)
    assert A.entries == ((1, 2), (0, 1))
    assert B.entries == ((1, 0), (2, 1))


def test_magic_pair_n4_bands():
    A, B = magic_pair(4, 4, 7)
    assert all(A.entries[i][i + 1] == 4 for i in range(3))
    assert all(B.entries[i + 1][i] == 7 for i in range(3))
    assert sum(x != 0 for row in A.entries for x in row) == 7
    assert A.det() == 1 and B.det() == 1


def test_magic_pair_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        magic_pair(1, 2, 2)
    with pytest.raises(ParameterError):
        magic_pair(3, 1, 2)
    with pytest.raises(ParameterError):
        magic_pair(3, 2, 0)
    # generator_pair makes the same checks, whatever l
    with pytest.raises(ParameterError, match="dimension must be >= 2, got 1"):
        generator_pair(1, 4, 2, 2)
    with pytest.raises(ParameterError, match=r"band values must be >= 2, got a=1, b=2 \(freeness"):
        generator_pair(3, 4, 1, 2)
    with pytest.raises(ParameterError, match=r"band values must be >= 1, got a=2, b=0$"):
        generator_pair(3, 0, 2, 0, allow_small=True)
    # the non-freeness probes are allowed through explicitly
    A, B = magic_pair(2, 1, 1, allow_small=True)
    assert A.entries == ((1, 1), (0, 1))


def test_binom_general_negative():
    assert binom_general(-1, 3) == -1
    assert binom_general(-2, 2) == 3
    assert binom_general(4, 6) == 0
    assert binom_general(10, 3) == 120


def test_power_closed_form_examples():
    A, _ = magic_pair(3, 2, 2)
    assert power_closed_form(A, 4).entries == ((1, 8, 24), (0, 1, 8), (0, 0, 1))
    assert power_closed_form(A, 0).is_identity()
    A4, _ = magic_pair(4, 1, 2, allow_small=True)
    P = power_closed_form(A4, 10)
    assert (P.entries[0][1], P.entries[0][2], P.entries[0][3]) == (10, 45, 120)


def test_power_closed_form_cross_check_n5():
    A, _ = magic_pair(5, 3, 2)
    assert power_closed_form(A, 7).entries == naive_power(A, 7).entries


def test_power_closed_form_matches_naive_everywhere():
    for n in range(2, 7):
        for a in range(2, 6):
            A, B = magic_pair(n, a, a)
            for k in range(-12, 13):
                assert power_closed_form(A, k).entries == naive_power(A, k).entries
            assert power_closed_form(B, -5).entries == naive_power(B, -5).entries


def test_generator_pair_is_the_closed_form_power_of_the_magic_pair():
    for n in range(2, 6):
        for a, b, small in ((2, 3, False), (5, 2, False), (1, 1, True), (1, 4, True), (3, 2, True)):
            A, B = magic_pair(n, a, b, allow_small=small)
            for l in (0, 1, 4, 10):
                X, Y = generator_pair(n, l, a, b, allow_small=small)
                assert (X, Y) == (power_closed_form(A, l), power_closed_form(B, l))


def test_power_additivity():
    A, _ = magic_pair(3, 2, 2)
    cache = {k: power_closed_form(A, k) for k in range(-40, 41)}
    for k1 in range(-20, 21):
        for k2 in range(-20, 21):
            assert (cache[k1] @ cache[k2]).entries == cache[k1 + k2].entries


def test_magic_profile_reads_the_side_and_band():
    A, B = magic_pair(4, 3, 5)
    assert A.magic_profile() == ("upper", 3)
    assert B.magic_profile() == ("lower", 5)
    assert magic_pair(2, 1, 1, allow_small=True)[1].magic_profile() == ("lower", 1)
    # no band, or band 0 next to the diagonal, is no magic matrix
    assert ExactMatrix.identity(4).magic_profile() is None
    assert ExactMatrix.from_rows([[1, 0, 0], [0, 1, 3], [0, 0, 1]]).magic_profile() is None
    assert ExactMatrix.identity(1).magic_profile() is None
    # A^2 has a second band, 9 at distance 2
    assert (A @ A).magic_profile() is None
    for i, j in ((3, 0), (0, 3), (1, 1), (2, 3)):
        rows = [list(row) for row in A.entries]
        rows[i][j] += 1
        assert ExactMatrix.from_rows(rows).magic_profile() is None


def test_power_closed_form_rejects_non_magic():
    M = ExactMatrix.from_rows([[1, 2], [3, 1]])
    with pytest.raises(ShapeError):
        power_closed_form(M, 3)


def test_word_normalization():
    w = Word.of([("X", 2), ("X", 3), ("Y", -1), ("Y", 1), ("X", -5)])
    assert w.syllables == ()
    w = Word.of([("X", 2), ("Y", -3)])
    assert w.length == 5
    assert str(w) == "X^2 Y^-3"
    assert str(w.inverse()) == "Y^3 X^-2"
    assert str(Word.of([])) == "1"
    with pytest.raises(ParameterError):
        Word((("X", 0),))
    with pytest.raises(ParameterError):
        Word((("X", 1), ("X", 2)))


def test_eval_word_examples():
    A, B = magic_pair(2, 2, 2)
    assert eval_word(Word.of([]), A, B).is_identity()
    w = Word.of([("X", 2), ("Y", 3)])
    assert eval_word(w, A, B).entries == ((25, 4), (6, 1))
    A3, B3 = magic_pair(3, 2, 2)
    X, Y = power_closed_form(A3, 4), power_closed_form(B3, 4)
    prod = eval_word(Word.of([("X", 1), ("Y", 1)]), X, Y)
    assert prod.entries[0][0] == 641


def test_eval_word_matches_the_closed_form_at_long_powers():
    # one square-and-multiply per syllable equals the closed form
    for n in (2, 3, 5):
        A, B = magic_pair(n, 3, 2)
        assert eval_word(Word.of([("X", 10**6)]), A, B) == power_closed_form(A, 10**6)
        assert eval_word(Word.of([("Y", -(10**6))]), A, B) == power_closed_form(B, -(10**6))
    A, B = magic_pair(3, 4, 2)
    X, Y = generator_pair(3, 4, 4, 2)
    w = Word.of([("X", 3), ("Y", -2), ("X", -5), ("Y", 7)])
    expected = (
        power_closed_form(A, 12)
        @ power_closed_form(B, -8)
        @ power_closed_form(A, -20)
        @ power_closed_form(B, 28)
    )
    assert eval_word(w, X, Y) == expected


def test_eval_word_dimension_mismatch():
    A2, _ = magic_pair(2, 2, 2)
    A3, _ = magic_pair(3, 2, 2)
    with pytest.raises(ShapeError):
        eval_word(Word.of([("X", 1)]), A2, A3)


def test_eval_word_determinant_one():
    rng = random.Random(2024)
    for n in (2, 3):
        A, B = magic_pair(n, 3, 2)
        for _ in range(100):
            pairs = []
            letter = rng.choice(["X", "Y"])
            for _ in range(rng.randint(1, 6)):
                pairs.append((letter, rng.choice([-3, -2, -1, 1, 2, 3])))
                letter = "Y" if letter == "X" else "X"
            assert eval_word(Word.of(pairs), A, B).det() == 1


def test_square_pow_matches_the_naive_product():
    # a matrix that is not magic: _Square.pow's square-and-multiply and its
    # negative powers through the adjugate inverse
    M = ExactMatrix.from_rows([[2, 1], [1, 1]])
    assert M.pow(3).entries == naive_power(M, 3).entries
    assert (M.pow(-2) @ M.pow(2)).is_identity()


def test_inverse_roundtrip():
    A, B = magic_pair(4, 3, 5)
    W = eval_word(Word.of([("X", 2), ("Y", -1), ("X", 1)]), A, B)
    assert (W @ W.inverse()).is_identity()
