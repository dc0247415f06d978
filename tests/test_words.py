"""Word machinery: freeness scans, shortest identity words, subgroup
generators, recipe replays."""

import json
from itertools import islice

import numpy as np
import pytest

from girthlab import cayley, cli, modmat
from girthlab import words as words_mod
from girthlab.cayley import DegenerateSpecError
from girthlab.exactmat import (
    ExactMatrix,
    ParameterError,
    ShapeError,
    Word,
    eval_word,
    magic_pair,
    power_closed_form,
)
from girthlab.modmat import ModMatrix
from girthlab.params import validate
from girthlab.words import (
    DEFAULT_WORD_BUDGET,
    freeness_scan,
    identity_word_length_mod_p,
    letters_to_word,
    replay_recipe_qt,
    replay_recipe_sl3_mod3,
    schreier_generators,
)

INV = {0: 1, 1: 0, 2: 3, 3: 2}


def test_unit_band_is_the_reduced_magic_pair():
    A, B = magic_pair(4, 1, 1, allow_small=True)
    ones = {True: [(0, 1), (1, 2), (2, 3)], False: [(1, 0), (2, 1), (3, 2)]}
    for upper, M in ((True, A), (False, B)):
        band = words_mod._unit_band(4, 3, upper=upper)
        assert band == modmat.reduce(M, 3)
        rows = [[int(i == j or (i, j) in ones[upper]) for j in range(4)] for i in range(4)]
        assert band == ModMatrix.from_rows(rows, 3)


def brute_reduced_words(max_length):
    """Every reduced word over the four letters, grouped by length."""
    by_len = {1: [(lt,) for lt in range(4)]}
    for L in range(2, max_length + 1):
        by_len[L] = [
            w + (lt,) for w in by_len[L - 1] for lt in range(4) if lt != INV[w[-1]]
        ]
    return by_len


def brute_canonical_count(max_length):
    """Independent count of rotation/inversion classes of cyclically reduced
    words, by explicit orbit enumeration."""
    seen = set()
    classes = 0
    for L, wordlist in brute_reduced_words(max_length).items():
        for w in wordlist:
            if L > 1 and w[0] == INV[w[-1]]:
                continue
            if w in seen:
                continue
            classes += 1
            inv = tuple(INV[lt] for lt in reversed(w))
            for base in (w, inv):
                doubled = base + base
                for s in range(L):
                    seen.add(doubled[s : s + L])
    return classes


def brute_min_relation_length(n, l, a, b, max_length):
    """Smallest length of a reduced word evaluating to the identity over Z."""
    A, B = magic_pair(n, a, b, allow_small=True)
    X = power_closed_form(A, l)
    gens = [X, X.inverse(), power_closed_form(B, l), power_closed_form(B, l).inverse()]
    ident = ExactMatrix.identity(n)
    for L, wordlist in brute_reduced_words(max_length).items():
        for w in wordlist:
            prod = ident
            for lt in w:
                prod = prod @ gens[lt]
            if prod.is_identity():
                return L
    return None


def _is_canonical_reference(letters):
    """Cyclically reduced and no rotation of the word or of its inverse is
    lexicographically smaller."""
    inv = tuple(INV[lt] for lt in reversed(letters))
    return letters[0] != INV[letters[-1]] and all(
        base[s:] + base[:s] >= letters for base in (letters, inv) for s in range(len(letters))
    )


def _freeness_reference(n, l, a, b, max_length):
    """The scan one word at a time: (letters, equals the identity) for every
    canonical word in the order the budget consumes them.

    Jobs run in a fixed order: X alone, the pure Y-powers by length, then
    the subtrees of X X, X Y and X Y^-1, each in DFS pre-order.
    """
    A, B = magic_pair(n, a, b, allow_small=True)
    X, Y = power_closed_form(A, l), power_closed_form(B, l)
    gens = [M.entries for M in (X, X.inverse(), Y, Y.inverse())]
    ident = ExactMatrix.identity(n).entries

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )

    jobs = [((0,), 1)] + [((2,) * L, L) for L in range(1, max_length + 1)]
    jobs += [((0, second), max_length) for second in (0, 2, 3)]
    for prefix, limit in jobs:
        mat = ident
        for lt in prefix:
            mat = mul(mat, gens[lt])
        stack = [(prefix, mat)]
        while stack:
            letters, mat = stack.pop()
            if _is_canonical_reference(letters):
                yield letters, mat == ident
            if len(letters) < limit:
                stack += [
                    (letters + (lt,), mul(mat, gens[lt]))
                    for lt in (3, 2, 1, 0)
                    if lt != INV[letters[-1]]
                ]


def _reference_report(words, budget):
    """(violations, words_checked, partial) of a scan that stops after budget
    of the given canonical words."""
    kept = words[:budget]
    bad = sorted((ls for ls, ident in kept if ident), key=lambda ls: (len(ls), ls))
    return [str(letters_to_word(ls)) for ls in bad], len(kept), len(kept) >= budget


def _report(report):
    return [str(w) for w in report.violations], report.words_checked, report.partial


def test_freeness_scan_matches_reference_at_every_budget():
    words = list(_freeness_reference(2, 1, 1, 1, 10))
    assert len(words) == 4759
    for budget in range(1, len(words) + 2):
        report = freeness_scan(2, 1, 1, 1, 10, budget=budget)
        assert _report(report) == _reference_report(words, budget), budget


@pytest.mark.parametrize(
    "params,budget",
    [
        ((2, 1, 2, 2, 12), DEFAULT_WORD_BUDGET),
        ((2, 1, 1, 1, 12), DEFAULT_WORD_BUDGET),
        ((3, 4, 4, 2, 8), DEFAULT_WORD_BUDGET),  # nu^8 < 2^63: int64 near its limit
        ((3, 4, 4, 2, 9), DEFAULT_WORD_BUDGET),  # nu^9 > 2^63: Python ints
        ((2, 1, 1, 1, 40), 1000),  # long words: the prefix walk above the blocks
    ],
)
def test_freeness_scan_matches_reference(params, budget):
    words = list(islice(_freeness_reference(*params), budget + 1))
    assert _report(freeness_scan(*params, budget=budget)) == _reference_report(words, budget)


@pytest.fixture
def scan_dtypes(monkeypatch):
    """The dtype of every scan the test runs, in order."""
    dtypes = []
    scan = words_mod._scan

    def spy(gens, *args):
        dtypes.append(gens.dtype)
        return scan(gens, *args)

    monkeypatch.setattr(words_mod, "_scan", spy)
    return dtypes


def test_freeness_scan_switches_to_python_ints(scan_dtypes):
    freeness_scan(3, 4, 4, 2, 8)
    freeness_scan(3, 4, 4, 2, 9)
    assert scan_dtypes == [np.dtype(np.int64), np.dtype(object)]


def test_canonical_matches_reference():
    # every reduced word up to length 7, whatever its first letter
    for L, wordlist in brute_reduced_words(7).items():
        words = np.array(wordlist, dtype=np.uint8)
        lyndon = [words_mod._lyndon_length(w) for w in wordlist]
        pre = np.array([p is not None for p in lyndon])
        mask = words_mod._canonical(words[pre], np.array([p for p in lyndon if p]))
        got = {w for w, ok in zip(map(tuple, words[pre].tolist()), mask) if ok}
        assert got == {w for w in wordlist if _is_canonical_reference(w)}, L


def test_words_checked_matches_class_count():
    report = freeness_scan(2, 1, 2, 2, 7)
    assert report.words_checked == brute_canonical_count(7)
    assert not report.partial


def test_freeness_scan_finds_the_torsion_relation():
    report = freeness_scan(2, 1, 1, 1, 12)
    assert report.violations
    shortest = min(w.length for w in report.violations)
    assert shortest == brute_min_relation_length(2, 1, 1, 1, 6) == 6
    # every reported violation really evaluates to the identity
    A, B = magic_pair(2, 1, 1, allow_small=True)
    from girthlab.exactmat import eval_word

    for w in report.violations[:10]:
        assert eval_word(w, A, B).is_identity()


def test_freeness_scan_clean_cases():
    assert freeness_scan(2, 1, 2, 2, 10).violations == ()
    assert freeness_scan(3, 4, 4, 2, 8).violations == ()


def test_freeness_scan_transpose_symmetry():
    r1 = freeness_scan(2, 1, 1, 2, 10)
    r2 = freeness_scan(2, 1, 2, 1, 10)
    assert len(r1.violations) == len(r2.violations)
    assert r1.words_checked == r2.words_checked


def test_freeness_scan_budget_partial():
    report = freeness_scan(2, 1, 2, 2, 10, budget=100)
    assert report.partial
    assert report.words_checked == 100


def test_freeness_scan_rejects_a_negative_budget():
    # a budget of 0 checks no word and is partial; below 0 there is no scan
    report = freeness_scan(2, 1, 2, 2, 6, budget=0)
    assert (report.words_checked, report.partial) == (0, True)
    with pytest.raises(ParameterError, match="budget must be >= 0, got -1"):
        freeness_scan(2, 1, 2, 2, 6, budget=-1)


# the length-10 relations of (2, 1, 1, 1), in report order
RELATIONS_1111 = [
    "X Y X^-1 Y X Y^-1",
    "X^2 Y X^-1 Y^2 X Y^-1",
    "X^2 Y^-1 X Y^2 X^-1 Y",
    "X^3 Y X^-1 Y^3 X Y^-1",
    "X^3 Y^-1 X Y^3 X^-1 Y",
    "X^2 Y^2 X^-1 Y X Y X Y^-1",
    "X^2 Y^-1 X Y X Y X^-1 Y^2",
    "X^2 Y^-1 X Y X^-2 Y X^-1 Y^-1",
    "X Y X^-1 Y^2 X^-1 Y^-1 X Y^-2",
]


def test_freeness_scan_pins_length_nine():
    report = freeness_scan(2, 1, 1, 1, 9)
    assert [str(w) for w in report.violations] == RELATIONS_1111[:3]
    assert (report.words_checked, report.partial) == (1791, False)


# budget -> (words_checked, partial, relations) of freeness_scan(2, 1, 1, 1, 10)
BUDGET_PINS_1111 = {
    1: (1, True, []),
    2: (2, True, []),
    17: (17, True, []),
    100: (100, True, []),
    500: (500, True, []),
    2000: (2000, True, RELATIONS_1111[3:5]),
    # a budget used up exactly is partial: the scan cannot tell that
    # nothing is left
    4759: (4759, True, RELATIONS_1111),
    4760: (4759, False, RELATIONS_1111),
}


@pytest.mark.parametrize("budget", sorted(BUDGET_PINS_1111))
def test_freeness_scan_budget_truncation_pins(budget):
    # the budget is consumed in a fixed job order, and a truncated scan
    # keeps exactly the relations among the words it evaluated
    checked, partial, found = BUDGET_PINS_1111[budget]
    report = freeness_scan(2, 1, 1, 1, 10, budget=budget)
    assert [str(w) for w in report.violations] == found
    assert (report.words_checked, report.partial) == (checked, partial)


def test_freeness_scan_rejects_short_bound():
    with pytest.raises(ParameterError):
        freeness_scan(2, 1, 2, 2, 1)


def test_identity_word_length_examples():
    spec = validate(2, 1, 2, 2)
    assert identity_word_length_mod_p(spec, 3, 6) == 3
    assert identity_word_length_mod_p(spec, 1009, 8) is None
    with pytest.raises(DegenerateSpecError):
        identity_word_length_mod_p(spec, 2, 6)


def test_identity_word_length_past_int64_products(scan_dtypes):
    # n (p - 1)^2 >= 2^63 from p = 2^31 + 2 on: the mod-p scan runs on Python ints
    spec = validate(2, 1, 2, 2)
    assert identity_word_length_mod_p(spec, 2**31 - 1, 4) is None
    assert identity_word_length_mod_p(spec, 2**31 + 11, 4) is None
    assert scan_dtypes == [np.dtype(np.int64)] * 4 + [np.dtype(object)] * 4


def test_identity_word_length_matches_girth_small_primes():
    spec = validate(2, 1, 2, 2)
    for p in (3, 5, 7):
        X, Y = cayley.spec_generators(spec, p)
        assert identity_word_length_mod_p(spec, p, 8) == cayley.girth([X, Y])


def test_identity_word_length_matches_girth_dimension_three():
    spec = validate(3, 4, 4, 2)
    for p in (3, 5):
        X, Y = cayley.spec_generators(spec, p)
        g = cayley.girth([X, Y])
        assert identity_word_length_mod_p(spec, p, g) == g


def test_schreier_generators_small_indices():
    g1 = schreier_generators(1)
    assert g1.rank == 2
    assert {str(w) for w in g1.generators} == {"X", "Y"}
    g2 = schreier_generators(2)
    assert g2.rank == 3
    assert {str(w) for w in g2.generators} == {"Y", "X^2", "X Y X^-1"}
    assert schreier_generators(3).rank == 4
    with pytest.raises(ParameterError):
        schreier_generators(0)


def test_schreier_generators_lie_in_kernel():
    # the subgroup is the kernel of X -> 1, Y -> 0 into Z/mZ: every
    # generator word must act trivially on the coset space
    for m in range(1, 7):
        gens = schreier_generators(m)
        assert gens.rank == m + 1 == len(gens.generators)
        for w in gens.generators:
            shift = sum(exp for letter, exp in w.syllables if letter == "X")
            assert shift % m == 0


def test_schreier_coset_action_connected():
    # the X-edges alone connect all m cosets, certifying the index
    for m in range(1, 7):
        reachable = {0}
        for _ in range(m):
            reachable |= {(i + 1) % m for i in reachable}
        assert len(reachable) == m


def test_schreier_images_generate_free_subgroup():
    # map the index-2 generators into the ambient pair and scan every
    # reduced word in the three-letter subgroup alphabet up to length 8
    gens = schreier_generators(2)
    A, B = magic_pair(2, 2, 2)
    from girthlab.exactmat import eval_word

    images = [eval_word(w, A, B) for w in gens.generators]
    mats = []
    for M in images:
        mats.append(M.entries)
        mats.append(M.inverse().entries)
    ident = ExactMatrix.identity(2).entries

    def mul(a, b):
        return (
            (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
        )

    # iterative DFS over the 6-letter reduced words, inverse pairing idx^1
    checked = 0
    stack = [(lt, mul(ident, mats[lt]), 1) for lt in range(5, -1, -1)]
    while stack:
        lt, prod, depth = stack.pop()
        assert prod != ident
        checked += 1
        if depth < 8:
            for nxt in range(5, -1, -1):
                if nxt != lt ^ 1:
                    stack.append((nxt, mul(prod, mats[nxt]), depth + 1))
    assert checked == sum(6 * 5 ** (L - 1) for L in range(1, 9))


def test_sl3_recipe_step_matrices():
    replay = replay_recipe_sl3_mod3(4, 2)
    by_label = {s.label: s.matrix.entries for s in replay.steps}
    assert by_label["C1"] == ((2, 2, 1), (0, 1, 0), (2, 0, 0))
    assert by_label["(C1*C2^-1*X)^2"] == ((1, 0, 1), (0, 1, 0), (0, 0, 1))
    assert replay.closure_order == 5616 == replay.expected_order
    assert not replay.closure_partial


def test_sl3_recipe_is_class_independent():
    r1 = replay_recipe_sl3_mod3(4, 2)
    r2 = replay_recipe_sl3_mod3(7, 5)
    for s1, s2 in zip(r1.steps, r2.steps):
        assert s1.matrix.entries == s2.matrix.entries


def test_sl3_recipe_rejects_wrong_congruence():
    with pytest.raises(ParameterError):
        replay_recipe_sl3_mod3(5, 2)
    with pytest.raises(ParameterError):
        replay_recipe_sl3_mod3(4, 4)


def test_qt_recipe_31_steps():
    replay = replay_recipe_qt(3, 1, memory_budget=1 << 22)
    by_label = {s.label: s.matrix.entries for s in replay.steps}
    corner = by_label["B^3"]
    assert corner[3][0] == 1
    assert sum(x != 0 for row in corner for x in row) == 5
    x1 = by_label["X1=A*X^-1"]
    assert x1[2][3] == 1
    assert sum(x != 0 for row in x1 for x in row) == 5
    # small budget: closure deferred, step checks stand
    assert replay.closure_partial and replay.closure_order is None


def test_qt_recipe_51_steps_without_closure():
    # SL_6(F_5) is far beyond desk scale; the step checks still replay
    replay = replay_recipe_qt(5, 1, memory_budget=1 << 20)
    assert len(replay.steps) == 11
    assert replay.closure_partial


def test_qt_recipe_rejects_bad_shape():
    with pytest.raises(ParameterError):
        replay_recipe_qt(2, 1)  # n = 3 has no such block recipe
    with pytest.raises(ParameterError):
        replay_recipe_qt(4, 1)
    with pytest.raises(ParameterError):
        replay_recipe_qt(3, 0)


def test_eval_word_on_a_reduced_pair_matches_exact_reduction():
    # one eval_word takes either kind of pair: mod 11 it lands on the
    # reduction of the word's value over Z
    A, B = magic_pair(3, 4, 2)
    X, Y = power_closed_form(A, 4), power_closed_form(B, 4)
    w = Word.of([("X", 2), ("Y", -3), ("X", 1)])
    exact = modmat.reduce(eval_word(w, X, Y), 11)
    modded = eval_word(w, modmat.reduce(X, 11), modmat.reduce(Y, 11))
    assert isinstance(modded, ModMatrix)
    assert exact.entries == modded.entries
    with pytest.raises(ShapeError):
        eval_word(w, X, modmat.reduce(Y, 11))  # one integer, one modular


def test_report_json_roundtrip():
    report = freeness_scan(2, 1, 1, 1, 6)
    data = json.loads(cli._json(report))
    assert data["violations"] and data["words_checked"] > 0
    replay = replay_recipe_sl3_mod3(4, 2)
    data = json.loads(cli._json(replay))
    assert len(data["steps"]) == 12 and data["closure_order"] == 5616
