"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion.  These are the exit criteria of the build; tolerances and
runtime budgets are pinned here, not calibrated elsewhere.
"""

import math
import time
from contextlib import contextmanager

from girthlab import cayley, modmat, words
from girthlab.cayley import closure, dg_table, girth, spec_generators
from girthlab.exactmat import magic_pair, power_closed_form
from girthlab.modmat import ModMatrix, group_order_sl
from girthlab.params import admissible_exponents, lucas_binom_mod, validate
from girthlab.spectral import (
    girth_lower_bound,
    gram_char_poly,
    gram_lambda_max,
    second_eigenvalue,
)
from girthlab.words import freeness_scan, identity_word_length_mod_p


@contextmanager
def criterion(num, desc, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_seconds:
        print(f"ACCEPTANCE {num}: FAIL - {desc} (runtime {elapsed:.1f}s over budget)")
        raise AssertionError(
            f"criterion {num} exceeded its {budget_seconds}s runtime budget: {elapsed:.1f}s"
        )
    print(f"ACCEPTANCE {num}: PASS - {desc} ({elapsed:.2f}s)")


def magic_power(n, band, k, *, upper=True):
    A, B = magic_pair(n, band, band)
    return power_closed_form(A if upper else B, k)


def test_criterion_1_charpoly_and_norm_reproduction():
    with criterion(1, "characteristic polynomial coefficients and operator norms", 1.0):
        assert gram_char_poly(magic_power(3, 2, 4)) == (-1, 707, -1731, 1)
        assert gram_char_poly(magic_power(3, 4, 4, upper=False)) == (-1, 9731, -26115, 1)
        assert gram_char_poly(magic_power(4, 4, 10)) == (
            1, -60024004, 45502704006, -199800004, 1,
        )
        assert gram_char_poly(magic_power(4, 7, 10, upper=False)) == (
            1, -1703884354, 3949339922331, -5708752354, 1,
        )
        lam3 = gram_lambda_max(magic_power(3, 2, 4))
        beta3 = gram_lambda_max(magic_power(3, 4, 4, upper=False))
        assert abs(lam3 - 704.54) <= 0.01
        assert abs(beta3 - 9728.31) <= 0.01
        assert math.sqrt(lam3) < 27
        assert math.sqrt(beta3) < 99
        lam4 = gram_lambda_max(magic_power(4, 4, 10))
        beta4 = gram_lambda_max(magic_power(4, 7, 10, upper=False))
        assert math.sqrt(lam4) < 10957
        assert math.sqrt(beta4) < 58376


def test_criterion_2_generation_certification():
    with criterion(2, "generation by closure count", 600.0):
        spec2 = validate(2, 1, 2, 2)
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
            order = closure(list(spec_generators(spec2, p)))
            assert order == p * (p * p - 1), f"p={p}: order {order}"
        spec3 = validate(3, 4, 4, 2)
        order3 = closure(list(spec_generators(spec3, 3)))
        assert order3 == 5616  # asserted: the mod-3 recipe certifies this prime
        for p in (5, 7):
            order = closure(list(spec_generators(spec3, p)))
            expected = group_order_sl(3, p)
            if order != expected:
                # below the unknown effective constant: reported, not asserted
                print(f"  REPORT: n=3 l=4 p={p}: order {order} != {expected}")
            else:
                assert order == expected


def test_criterion_3_girth_cross_validation():
    with criterion(3, "girth equals shortest identity word and clears the bound", 60.0):
        spec = validate(2, 1, 2, 2)
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            X, Y = spec_generators(spec, p)
            g = girth([X, Y])
            w = identity_word_length_mod_p(spec, p, g)
            assert w == g, f"p={p}: girth {g} vs word length {w}"
            gb = girth_lower_bound(spec, p)
            assert gb.bound_reported == max(3, math.ceil(gb.bound_raw))
            assert g >= gb.bound_reported


def test_criterion_4_dg_boundedness_at_desk_scale():
    with criterion(4, "finite dg ratios and logarithmic girth evidence", 120.0):
        spec = validate(2, 1, 2, 2)
        primes = [p for p in range(3, 62) if modmat.is_prime(p)]
        rows = dg_table(spec, primes)
        assert all(r.error is None for r in rows)
        ratios = [float(r.dg_ratio) for r in rows]
        assert all(math.isfinite(x) and x > 0 for x in ratios)
        girth_over_log = [r.girth / math.log(r.m) for r in rows]
        assert min(girth_over_log) > 0
        print(
            f"  max dg ratio: {max(ratios):.4f}; "
            f"min girth/log p: {min(girth_over_log):.4f}"
        )


def test_criterion_5_freeness_scans():
    with criterion(5, "freeness scans clean on certified tuples, torsion found", 300.0):
        assert freeness_scan(2, 1, 2, 2, 12).violations == ()
        assert freeness_scan(3, 4, 4, 2, 10).violations == ()
        assert freeness_scan(4, 10, 4, 7, 8).violations == ()
        bad = freeness_scan(2, 1, 1, 1, 12)
        assert len(bad.violations) >= 1
        assert min(w.length for w in bad.violations) <= 12


def test_criterion_6_recipe_replays():
    with criterion(6, "generation recipes replay bit-exactly and close", 120.0):
        replay3 = words.replay_recipe_sl3_mod3(4, 2)
        assert replay3.closure_order == replay3.expected_order == 5616
        by_label = {s.label: s.matrix.entries for s in replay3.steps}
        assert by_label["C1"] == ((2, 2, 1), (0, 1, 0), (2, 0, 0))
        r31 = words.replay_recipe_qt(3, 1)
        r22 = words.replay_recipe_qt(2, 2)
        for r in (r31, r22):
            if r.closure_partial:
                print(f"  REPORT: closure over F_{r.modulus} flagged partial")
                assert len(r.steps) == 11
            else:
                assert r.closure_order == r.expected_order
        assert r31.expected_order == 12130560
        assert r22.expected_order == 9999360


def test_criterion_7_lucas_and_exponents():
    with criterion(7, "digitwise binomials and admissible exponent sets", 10.0):
        for q in (2, 3, 5, 7):
            for alpha in range(201):
                for beta in range(alpha + 1):
                    assert lucas_binom_mod(alpha, beta, q) == math.comb(alpha, beta) % q
        assert admissible_exponents(4, 3, 3) == (10, 28, 82)
        A, _ = magic_pair(4, 4, 4)
        ones = tuple(
            tuple(1 if i == j or j == i + 1 else 0 for j in range(4)) for i in range(4)
        )
        for k in admissible_exponents(4, 3, 3):
            assert modmat.reduce(power_closed_form(A, k), 3).entries == ones


def test_criterion_8_2k_regular_variants():
    with criterion(8, "subgroup generator ranks and the 6-regular graph", 30.0):
        for m in range(1, 7):
            assert words.schreier_generators(m).rank == m + 1
        gens = words.schreier_generators(2)
        A, B = magic_pair(2, 2, 2)
        from girthlab.exactmat import eval_word

        images = [
            modmat.reduce(eval_word(w, A, B), 13) for w in gens.generators
        ]
        assert closure(images) == 2184 == group_order_sl(2, 13)
        res = cayley.bfs(images, want_girth=True)
        assert res.degree == 6
        assert res.girth is not None and res.girth >= 3
        ratio = res.diameter / res.girth
        assert math.isfinite(ratio) and ratio > 0
        print(f"  6-regular p=13: girth {res.girth}, diameter {res.diameter}")


def test_criterion_9_spectral_gap_reporting():
    with criterion(9, "second eigenvalues: canonical graphs and the prime sweep", 120.0):
        six = second_eigenvalue(
            [
                ModMatrix.from_rows([[1, 1], [0, 1]], 2),
                ModMatrix.from_rows([[1, 0], [1, 1]], 2),
            ]
        )
        assert abs(six.second_eigenvalue - 1.0) <= 1e-6
        k4 = second_eigenvalue(
            [ModMatrix.from_rows([[u, 0], [0, u]], 8) for u in (3, 5, 7)]
        )
        assert abs(k4.second_eigenvalue - (-1.0)) <= 1e-6
        spec = validate(2, 1, 2, 2)
        print("  p, order, second_eigenvalue, gap")
        for p in (5, 7, 11, 13, 17, 19, 23):
            rep = second_eigenvalue(list(spec_generators(spec, p)))
            assert rep.second_eigenvalue < 4.0
            print(
                f"  {p}, {rep.order}, {rep.second_eigenvalue:.6f}, "
                f"{rep.gap:.6f}"
            )
