"""Free-group machinery: freeness scans, shortest identity words, subgroup
generators, and step-by-step replays of the explicit generation recipes.

Word enumeration works over the four-letter alphabet {X, X^-1, Y, Y^-1}
encoded as 0..3 with idx^1 the inverse letter.  Freeness scans walk one
canonical representative per cyclic-rotation-and-inversion class: a
relation exists iff a cyclically reduced one does, and the class collapse
cuts the 4*3^(L-1) word count by roughly 2L.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import cayley, modmat
from .cayley import BudgetExceededError
from .exactmat import (
    ParameterError,
    Word,
    magic_pair,
    power_closed_form,
)
from .modmat import ModMatrix
from .params import GraphSpec

DEFAULT_WORD_BUDGET = 10_000_000

_LETTER_NAMES = ("X", "X^-1", "Y", "Y^-1")


class RecipeError(RuntimeError):
    """A replayed recipe step did not match its displayed matrix."""


def letters_to_word(letters: Sequence[int]) -> Word:
    pairs = [("X" if lt < 2 else "Y", 1 if lt % 2 == 0 else -1) for lt in letters]
    return Word.of(pairs)


def _invert_letters(letters: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(lt ^ 1 for lt in reversed(letters))


def _is_canonical(letters: Tuple[int, ...]) -> bool:
    """Lexicographic minimum over all rotations of the word and its inverse."""
    L = len(letters)
    inv = _invert_letters(letters)
    for base in (letters, inv):
        doubled = base + base
        for s in range(L):
            if base is letters and s == 0:
                continue
            rot = doubled[s : s + L]
            if rot < letters:
                return False
    return True


@dataclass(frozen=True)
class FreenessReport:
    params: Tuple[int, int, int, int]  # (n, l, a, b)
    max_length: int
    violations: Tuple[Word, ...]
    words_checked: int
    partial: bool = False
    budget: int = DEFAULT_WORD_BUDGET

    @property
    def free_up_to_bound(self) -> bool:
        return not self.violations and not self.partial

    def to_json(self) -> dict:
        n, l, a, b = self.params
        return {
            "n": n,
            "l": l,
            "a": a,
            "b": b,
            "max_length": self.max_length,
            "violations": [str(w) for w in self.violations],
            "words_checked": self.words_checked,
            "partial": self.partial,
            "budget": self.budget,
        }


@dataclass(frozen=True)
class SubgroupGenerators:
    index: int
    generators: Tuple[Word, ...]
    rank: int

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "rank": self.rank,
            "generators": [str(w) for w in self.generators],
        }


@dataclass(frozen=True)
class RecipeStep:
    label: str
    word: Word
    matrix: ModMatrix


@dataclass(frozen=True)
class RecipeReplay:
    steps: Tuple[RecipeStep, ...]
    modulus: int
    n: int
    expected_order: int
    closure_order: Optional[int]
    closure_partial: bool = False

    def to_json(self) -> dict:
        return {
            "modulus": self.modulus,
            "n": self.n,
            "expected_order": self.expected_order,
            "closure_order": self.closure_order,
            "closure_partial": self.closure_partial,
            "steps": [
                {
                    "label": s.label,
                    "word": str(s.word),
                    "matrix": [list(r) for r in s.matrix.entries],
                }
                for s in self.steps
            ],
        }


def _tuple_mul(a, b, n):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _scan_subtree(
    prefix: Tuple[int, ...],
    gens: Sequence[Tuple[Tuple[int, ...], ...]],
    n: int,
    max_length: int,
    cap: int,
) -> Tuple[List[Tuple[int, ...]], int]:
    """DFS all reduced extensions of prefix; evaluate canonical nodes.

    Stops before the canonical word beyond the first cap.  Returns
    (violating letter tuples, canonical words evaluated).
    """
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    mats = [ident]
    for lt in prefix:
        mats.append(_tuple_mul(mats[-1], gens[lt], n))
    violations: List[Tuple[int, ...]] = []
    checked = 0

    def visit(letters: Tuple[int, ...]) -> bool:
        nonlocal checked
        if letters[0] != letters[-1] ^ 1 and _is_canonical(letters):
            if checked >= cap:
                return False
            checked += 1
            if mats[len(letters)] == ident:
                violations.append(letters)
        return True

    # iterative DFS; stack holds (letters, next-child-letter-index)
    letters = list(prefix)
    if not visit(tuple(letters)):
        return violations, checked
    child_order = (0, 1, 2, 3)
    stack = [0]
    while stack:
        ci = stack[-1]
        if ci >= 4 or len(letters) >= max_length:
            stack.pop()
            if len(letters) > len(prefix):
                letters.pop()
                mats.pop()
            continue
        stack[-1] += 1
        lt = child_order[ci]
        if lt == letters[-1] ^ 1:
            continue
        letters.append(lt)
        mats.append(_tuple_mul(mats[-1], gens[lt], n))
        if not visit(tuple(letters)):
            letters.pop()
            mats.pop()
            return violations, checked
        stack.append(0)
    return violations, checked


def freeness_scan(
    n: int,
    l: int,
    a: int,
    b: int,
    max_length: int,
    *,
    budget: int = DEFAULT_WORD_BUDGET,
) -> FreenessReport:
    """Evaluate every cyclically reduced word in X = A^l, Y = B^l up to
    max_length over the exact integers, one representative per
    rotation/inversion class, and report those equal to the identity.

    An empty violation list certifies that no relation of that length exists
    integrally, hence no mod-p cycle of that length comes from one.  The
    budget caps the canonical words evaluated; the report is partial once
    the budget is used up.
    """
    if max_length < 2:
        raise ParameterError(f"max_length must be >= 2, got {max_length}")
    A, B = magic_pair(n, a, b, allow_small=True)
    X = power_closed_form(A, l)
    Y = power_closed_form(B, l)
    gens = (
        X.entries,
        X.inverse().entries,
        Y.entries,
        Y.inverse().entries,
    )
    # Canonical representatives either start with X or are a pure Y-power:
    # any class containing X^-1 or Y^-1 letters inverts to one containing X
    # or Y, and any rotation puts the smallest letter first.  Pure Y-powers
    # are evaluated as single words (a Y-rooted subtree holds no other
    # canonical cyclically reduced words); everything else lives in the
    # three X-rooted subtrees.  A job is a prefix and a length limit, so a
    # single word is a job limited to its own length.  Jobs run in this
    # order, each capped by the budget that is left.
    jobs = [((0,), 1), ((2,), 1)] + [((2,) * L, L) for L in range(2, max_length + 1)]
    jobs += [((0, second), max_length) for second in (0, 2, 3)]
    violations: List[Tuple[int, ...]] = []
    checked = 0
    partial = False
    for prefix, length in jobs:
        bad, cnt = _scan_subtree(prefix, gens, n, length, budget - checked)
        violations.extend(bad)
        checked += cnt
        if checked >= budget:
            partial = True
            break
    violations.sort(key=lambda ls: (len(ls), ls))
    return FreenessReport(
        (n, l, a, b),
        max_length,
        tuple(letters_to_word(ls) for ls in violations),
        checked,
        partial,
        budget,
    )


def identity_word_length_mod_p(
    spec: GraphSpec, p: int, max_length: int
) -> Optional[int]:
    """Length of the shortest nonempty reduced word equal to 1 in the mod-p
    image, or None if none exists within max_length.

    The shortest such word is automatically cyclically reduced, and its class
    has a representative starting with X or equal to a pure Y-power, so only
    those are searched.  Where the four generator images are pairwise
    distinct this equals the graph girth (cross-validated in the test suite).
    """
    X, Y = cayley.spec_generators(spec, p)
    n = spec.n
    gens = (
        X.entries,
        modmat.inverse(X).entries,
        Y.entries,
        modmat.inverse(Y).entries,
    )
    ident = ModMatrix.identity(n, p).entries

    def mul(a, g):
        return tuple(
            tuple(sum(a[i][k] * g[k][j] for k in range(n)) % p for j in range(n))
            for i in range(n)
        )

    for L in range(1, max_length + 1):
        # pure Y-power of this exact length
        prod = ident
        for _ in range(L):
            prod = mul(prod, gens[2])
        if prod == ident:
            return L
        # depth-first over reduced words of length exactly L starting with X
        mats = [mul(ident, gens[0])]
        letters = [0]
        if L == 1 and mats[0] == ident:
            return 1
        stack = [0]
        while stack:
            ci = stack[-1]
            if ci >= 4 or len(letters) >= L:
                stack.pop()
                if len(letters) > 1:
                    letters.pop()
                    mats.pop()
                continue
            stack[-1] += 1
            if ci == letters[-1] ^ 1:
                continue
            letters.append(ci)
            mats.append(mul(mats[-1], gens[ci]))
            if len(letters) == L and mats[-1] == ident:
                return L
            stack.append(0)
    return None


def schreier_generators(m: int) -> SubgroupGenerators:
    """Free generators of the canonical index-m subgroup of the rank-2 free
    group: the kernel of X -> 1, Y -> 0 into Z/mZ.

    Coset representatives are 1, X, ..., X^(m-1); the nontrivial transversal
    products are Y conjugates X^i Y X^-i and the closing power X^m, giving
    rank m + 1.
    """
    if m < 1:
        raise ParameterError(f"index must be >= 1, got {m}")
    gens: List[Word] = [Word.of([("Y", 1)])]
    gens.append(Word.of([("X", m)]))
    for i in range(1, m):
        gens.append(Word.of([("X", i), ("Y", 1), ("X", -i)]))
    out = SubgroupGenerators(m, tuple(gens), m + 1)
    assert out.rank == len(out.generators)
    return out


def eval_word_mod(w: Word, X: ModMatrix, Y: ModMatrix) -> ModMatrix:
    """Evaluate a reduced word at a pair of mod-m matrices."""
    result = ModMatrix.identity(X.n, X.m)
    table = {"X": X, "Y": Y}
    for letter, exp in w.syllables:
        result = result @ table[letter].pow(exp)
    return result


def _w(*pairs) -> Word:
    return Word.of(pairs)


def _sl3_expected_steps() -> List[Tuple[str, Word, Tuple[Tuple[int, ...], ...]]]:
    """The displayed words and matrices of the mod-3 generation recipe.

    T2 is only announced ("similarly") in the source construction; the word
    used here is the mirrored build with the roles of X and Y exchanged,
    which lands exactly on the displayed matrix.
    """
    c1 = _w(("Y", 1), ("X", 1), ("Y", -1), ("X", -1))
    c2 = _w(("Y", -1), ("X", -1), ("Y", 1), ("X", 1))
    c3 = c1.inverse()
    c4 = c2.inverse()
    c1c4 = c1 * c4
    step6 = c1c4 * _w(("X", 1))
    t1 = step6 * step6
    mirror = _w(("X", 1), ("Y", 1), ("X", -1), ("Y", -1)) * _w(
        ("Y", -1), ("X", -1), ("Y", 1), ("X", 1)
    ) * _w(("Y", 1))
    t2 = mirror * mirror
    tt = t1 * t2 * t1.inverse() * t2.inverse()
    z = tt * c4
    final = z * t1.inverse()
    return [
        ("C1", c1, ((2, 2, 1), (0, 1, 0), (2, 0, 0))),
        ("C2", c2, ((2, 0, 2), (1, 1, 0), (1, 0, 0))),
        ("C3=C1^-1", c3, ((0, 0, 2), (0, 1, 0), (1, 1, 2))),
        ("C4=C2^-1", c4, ((0, 0, 1), (0, 1, 2), (2, 0, 2))),
        ("C1*C2^-1", c1c4, ((2, 2, 2), (0, 1, 2), (0, 0, 2))),
        ("C1*C2^-1*X", step6, ((2, 1, 1), (0, 1, 0), (0, 0, 2))),
        ("(C1*C2^-1*X)^2", step6 * step6, ((1, 0, 1), (0, 1, 0), (0, 0, 1))),
        ("T1", t1, ((1, 0, 1), (0, 1, 0), (0, 0, 1))),
        ("T2", t2, ((1, 0, 0), (0, 1, 0), (1, 0, 1))),
        ("T=[T1,T2]", tt, ((0, 0, 2), (0, 1, 0), (1, 0, 0))),
        ("Z=T*C4", z, ((1, 0, 1), (0, 1, 2), (0, 0, 1))),
        ("Z*T1^-1", final, ((1, 0, 0), (0, 1, 2), (0, 0, 1))),
    ]


def replay_recipe_sl3_mod3(
    a: int,
    b: int,
    *,
    memory_budget: int = cayley.DEFAULT_MEMORY_BUDGET,
) -> RecipeReplay:
    """Replay the mod-3 elementary-matrix recipe for X = A^4, Y = B^4.

    Every displayed step must match bit-exactly; the closing check counts the
    BFS closure of {X, Y} mod 3 against the full group order 5616.
    """
    if a % 3 != 1 or b % 3 != 2:
        raise ParameterError(
            f"recipe needs a = 1 and b = -1 (mod 3), got a={a}, b={b}"
        )
    A, B = magic_pair(3, a, b)
    X = modmat.reduce(power_closed_form(A, 4), 3)
    Y = modmat.reduce(power_closed_form(B, 4), 3)
    steps: List[RecipeStep] = []
    for label, word, expected in _sl3_expected_steps():
        got = eval_word_mod(word, X, Y)
        if got.entries != expected:
            raise RecipeError(
                f"step {label}: computed {got.entries}, displayed {expected}"
            )
        steps.append(RecipeStep(label, word, got))
    expected_order = modmat.group_order_sl(3, 3)
    order: Optional[int] = None
    partial = False
    try:
        order = cayley.closure([X, Y], memory_budget=memory_budget)
    except BudgetExceededError:
        partial = True
    if order is not None and order != expected_order:
        raise RecipeError(
            f"closure of the generator pair mod 3 has order {order}, "
            f"expected {expected_order}"
        )
    return RecipeReplay(tuple(steps), 3, 3, expected_order, order, partial)


def _unit_band(n: int, m: int, *, upper: bool) -> ModMatrix:
    rows = [
        [
            1 if i == j else (1 if (j == i + 1 if upper else i == j + 1) else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return ModMatrix.from_rows(rows, m)


def _qt_expected_steps(q: int, t: int):
    """Words and displayed shapes for the n = q^t + 1 recipe over F_q.

    The corner power is q^t (the display shows the t = 1 case); Y1 is the
    transpose-mirrored construction of X1.  All entries are matrices over
    F_q built from the identity plus a few unit bands.
    """
    n = q**t + 1
    qt = q**t

    def shape(superdiag_until=-1, extra=()):
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(superdiag_until):
            rows[i][i + 1] = 1
        for (i, j, v) in extra:
            rows[i][j] = v % q
        return tuple(tuple(r) for r in rows)

    x_w = _w(("Y", -1), ("X", 1), ("Y", qt), ("X", -1), ("Y", 1), ("X", 1))
    x1_w = _w(("X", 1)) * x_w.inverse()
    y1_w = _w(("X", 1), ("Y", -1), ("X", -qt), ("Y", 1), ("X", -1))
    blk_w = x1_w.inverse() * y1_w
    z_w = _w(("X", 1)) * blk_w
    w1_w = y1_w.inverse() * z_w
    cm_w = x_w * x1_w * x_w.inverse() * x1_w.inverse()
    t_w = cm_w * w1_w
    ati_w = _w(("X", 1)) * t_w.inverse()
    last_w = x1_w.inverse() * ati_w
    return [
        (f"B^{qt}", _w(("Y", qt)), shape(extra=[(n - 1, 0, 1)])),
        ("X", x_w, shape(superdiag_until=n - 2)),
        ("X1=A*X^-1", x1_w, shape(extra=[(n - 2, n - 1, 1)])),
        ("Y1", y1_w, shape(extra=[(n - 1, n - 2, 1)])),
        (
            "X1^-1*Y1",
            blk_w,
            shape(extra=[(n - 2, n - 2, 0), (n - 2, n - 1, -1), (n - 1, n - 2, 1)]),
        ),
        (
            "Z=A*(X1^-1*Y1)",
            z_w,
            shape(superdiag_until=n - 3, extra=[(n - 3, n - 1, -1), (n - 1, n - 2, 1)]),
        ),
        (
            "Y1^-1*Z",
            w1_w,
            shape(superdiag_until=n - 3, extra=[(n - 3, n - 1, -1)]),
        ),
        ("[X,X1]", cm_w, shape(extra=[(n - 3, n - 1, 1)])),
        ("T=[X,X1]*Y1^-1*Z", t_w, shape(superdiag_until=n - 3)),
        ("A*T^-1", ati_w, shape(extra=[(n - 3, n - 2, 1), (n - 2, n - 1, 1)])),
        ("X1^-1*A*T^-1", last_w, shape(extra=[(n - 3, n - 2, 1)])),
    ]


def replay_recipe_qt(
    q: int,
    t: int,
    *,
    memory_budget: int = cayley.DEFAULT_MEMORY_BUDGET,
) -> RecipeReplay:
    """Replay the elementary-matrix recipe for dimension n = q^t + 1 over F_q.

    Each step word must land exactly on the displayed shape; the closing
    check counts the BFS closure of the unit-band pair against the full
    group order.  If the closure outgrows the memory budget, the step checks
    stand and the closure is flagged partial.
    """
    if not modmat.is_prime(q):
        raise ParameterError(f"q must be prime, got {q}")
    if t < 1:
        raise ParameterError(f"t must be >= 1, got {t}")
    n = q**t + 1
    if n < 4:
        raise ParameterError(
            f"recipe shape requires dimension q^t + 1 >= 4, got n={n}"
        )
    Ap = _unit_band(n, q, upper=True)
    Bp = _unit_band(n, q, upper=False)
    steps: List[RecipeStep] = []
    for label, word, expected in _qt_expected_steps(q, t):
        got = eval_word_mod(word, Ap, Bp)
        if got.entries != expected:
            raise RecipeError(
                f"step {label}: computed {got.entries}, displayed {expected}"
            )
        steps.append(RecipeStep(label, word, got))
    expected_order = modmat.group_order_sl(n, q)
    order: Optional[int] = None
    partial = False
    try:
        order = cayley.closure([Ap, Bp], memory_budget=memory_budget)
    except BudgetExceededError:
        partial = True
    if order is not None and order != expected_order:
        raise RecipeError(
            f"closure of the unit-band pair over F_{q} has order {order}, "
            f"expected {expected_order}"
        )
    return RecipeReplay(tuple(steps), q, n, expected_order, order, partial)
