"""Free-group machinery: freeness scans, shortest identity words, subgroup
generators, and step-by-step replays of the explicit generation recipes.

Word enumeration works over the four-letter alphabet {X, X^-1, Y, Y^-1}
encoded as 0..3 with idx^1 the inverse letter.  Freeness scans walk one
canonical representative per cyclic-rotation-and-inversion class: a
relation exists iff a cyclically reduced one does, and the class collapse
cuts the 4*3^(L-1) word count by roughly 2L.

The scan evaluates words in numpy blocks.  A short depth-first walk visits
prefixes in a fixed job order and in pre-order; a node at most _BLOCK_DEPTH
letters above the length bound hands its whole subtree to one block, and
shallower nodes are evaluated alone.  A block grows level by level: each
word gets one child per letter, except the reducing letter and the letters
that make it no prenecklace (no extension of a non-prenecklace is least
among its rotations), and one batched matmul applies the generators.  Each
level then gets one vectorised test: cyclically reduced, least among the
rotations of the word and of its inverse (byte strings of letters, not
integer codes, so words of any length compare), and equal to the identity.

Products are exact.  With nu the largest infinity-norm among X, X^-1, Y
and Y^-1, a product of at most L generators has every entry, and every
partial sum that forms it, at most nu^L in absolute value: the scan runs in
int64 when nu^L < 2^63 and in Python ints (dtype=object) otherwise.

The word budget is consumed in the same order as a one-word-at-a-time
scan: a block holding more canonical words than the budget has left keeps
the first ones in depth-first pre-order, so a truncated report does not
depend on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import cayley, modmat
from .cayley import BudgetExceededError
from .exactmat import ParameterError, Word, eval_word, generator_pair, magic_pair
from .modmat import ModMatrix
from .params import GraphSpec

DEFAULT_WORD_BUDGET = 10_000_000


class RecipeError(RuntimeError):
    """A replayed recipe step did not match its displayed matrix."""


def letters_to_word(letters: Sequence[int]) -> Word:
    pairs = [("X" if lt < 2 else "Y", 1 if lt % 2 == 0 else -1) for lt in letters]
    return Word.of(pairs)


@dataclass(frozen=True)
class FreenessReport:
    n: int
    l: int
    a: int
    b: int
    max_length: int
    violations: Tuple[Word, ...]
    words_checked: int
    partial: bool = False
    budget: int = DEFAULT_WORD_BUDGET


@dataclass(frozen=True)
class SubgroupGenerators:
    index: int
    generators: Tuple[Word, ...]
    rank: int


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


_BLOCK_DEPTH = 8  # a block holds at most 3^8 words per level
_LETTERS = np.arange(4, dtype=np.uint8)


def _matmul(a: np.ndarray, b: np.ndarray, modulus: Optional[int]) -> np.ndarray:
    prod = np.matmul(a, b)
    return prod % modulus if modulus else prod


def _as_bytes(words: np.ndarray) -> np.ndarray:
    """The rows of an (N, d) uint8 array as N byte strings, which numpy
    compares lexicographically.  No byte may be zero: numpy drops trailing
    zero bytes."""
    return np.ascontiguousarray(words).view(f"S{words.shape[1]}")[:, 0]


def _lyndon_length(word: Sequence[int]) -> Optional[int]:
    """Length of the longest Lyndon prefix of a prenecklace, or None if the
    word is not one (the fundamental theorem of necklaces: Cattell, Ruskey,
    Sawada, Serra and Miers, J. Algorithms 37, 2000).

    A prenecklace is a prefix of a word that is least among its rotations.
    Appending a letter c to a prenecklace w with Lyndon length p gives one
    iff c >= w[-p]; the Lyndon length stays p if c == w[-p] and becomes the
    new length otherwise.  A prenecklace is itself least among its
    rotations iff its length is a multiple of p.
    """
    p = 1
    for t in range(1, len(word)):
        if word[t] < word[t - p]:
            return None
        if word[t] > word[t - p]:
            p = t + 1
    return p


def _canonical(words: np.ndarray, lyndon: np.ndarray) -> np.ndarray:
    """Mask of the rows of words (N, d), prenecklaces with Lyndon lengths
    lyndon, that are cyclically reduced and lexicographically least among
    the rotations of the word and of its inverse.

    A prenecklace is least among its own rotations iff d is a multiple of
    its Lyndon length.  A rotation of the inverse that starts with a letter
    above the word's first is larger, so only the rotations that start with
    a letter at most the first are compared.
    """
    d = words.shape[1]
    canonical = (d % lyndon == 0) & (words[:, 0] != words[:, -1] ^ 1)
    inverse = words[:, ::-1] ^ 1
    rows, starts = np.divmod(np.flatnonzero((inverse <= words[:, :1]) & canonical[:, None]), d)
    if not len(rows):
        return canonical
    cycles = np.concatenate([inverse, inverse], axis=1) + 1  # bytes 1..4, none zero
    rotations = sliding_window_view(cycles, d, axis=1)[rows, starts]
    smaller = _as_bytes(rotations) < _as_bytes(np.take(words, rows, axis=0) + 1)
    canonical[rows[smaller]] = False
    return canonical


def _scan_block(
    root: Tuple[int, ...],
    mat: np.ndarray,
    limit: int,
    gens: np.ndarray,
    modulus: Optional[int],
    cap: float,
) -> Tuple[List[Tuple[int, ...]], int]:
    """Evaluate the canonical words of root's subtree up to length limit.

    The subtree grows one level at a time: every word gets one child per
    letter, except the reducing letter and the letters that make it no
    prenecklace (no extension of those is canonical), and one batched
    matmul applies the generators.  At most cap canonical words are
    evaluated, the first in DFS pre-order.  Returns (violating letter
    tuples, canonical words evaluated).
    """
    eye = np.eye(gens.shape[1], dtype=gens.dtype)
    words = np.array([root], dtype=np.uint8)
    lyndon = np.array([_lyndon_length(root)])
    mats = mat[None]
    found, flags = [], []  # canonical words and identity flags per length
    while True:
        canon = _canonical(words, lyndon)
        found.append(words[canon])
        flags.append((mats[canon] == eye).all(axis=(1, 2)))
        t = words.shape[1]
        if t >= limit:
            break
        floor = words[np.arange(len(words)), t - lyndon]
        allowed = (_LETTERS >= floor[:, None]) & (_LETTERS != (words[:, -1] ^ 1)[:, None])
        # flatnonzero and np.take: several times faster than np.nonzero on
        # a 2-D mask and than words[parent]
        parent, letters = np.divmod(np.flatnonzero(allowed), 4)
        lyndon = np.where(letters == floor[parent], lyndon[parent], t + 1)
        words = np.concatenate([np.take(words, parent, axis=0), _LETTERS[letters, None]], axis=1)
        mats = _matmul(np.take(mats, parent, axis=0), np.take(gens, letters, axis=0), modulus)
    flags = np.concatenate(flags)
    # letters + 1, padded with zeros to the limit: in lexicographic order a
    # word precedes its extensions and later siblings, which is pre-order
    padded = np.zeros((len(flags), limit), dtype=np.uint8)
    start = 0
    for w in found:
        padded[start : start + len(w), : w.shape[1]] = w + 1
        start += len(w)
    if len(flags) > cap:
        kept = np.zeros(len(flags), dtype=bool)
        kept[np.lexsort(padded.T[::-1])[: int(cap)]] = True
        flags &= kept
    violations = [tuple(lt - 1 for lt in row if lt) for row in padded[flags].tolist()]
    return violations, min(len(flags), cap)


def _scan(
    gens: np.ndarray, max_length: int, budget: float, modulus: Optional[int] = None
) -> Tuple[List[Tuple[int, ...]], int, bool]:
    """Evaluate one canonical word per rotation/inversion class of the
    cyclically reduced words up to max_length, in a fixed order, and return
    (identity words, words evaluated, budget used up).

    Canonical representatives either start with X or are a pure Y-power: any
    class containing X^-1 or Y^-1 letters inverts to one containing X or Y,
    and any rotation puts the smallest letter first.  A job is a prefix and
    a length limit, and jobs run in this order: X alone, the Y-rooted
    subtree (whose only prenecklaces are the Y-powers, taken by length),
    then the three X-rooted subtrees.  Each job walks its subtree in DFS
    pre-order: a node more than _BLOCK_DEPTH letters above the limit is
    evaluated alone, and a shallower node's whole subtree is one block.  The
    budget caps the canonical words evaluated.
    """
    jobs = [((0,), 1), ((2,), max_length)]
    jobs += [((0, second), max_length) for second in (0, 2, 3)]
    violations: List[Tuple[int, ...]] = []
    checked = 0
    for prefix, limit in jobs:
        if len(prefix) > max_length:
            continue
        mat = np.eye(gens.shape[1], dtype=gens.dtype)
        for lt in prefix:
            mat = _matmul(mat, gens[lt], modulus)
        stack = [(prefix, mat)]
        while stack:
            word, mat = stack.pop()
            whole = limit - len(word) <= _BLOCK_DEPTH
            bad, cnt = _scan_block(
                word, mat, limit if whole else len(word), gens, modulus, budget - checked
            )
            violations += bad
            checked += cnt
            if checked >= budget:
                return violations, checked, True
            if not whole:
                stack += [
                    (word + (lt,), _matmul(mat, gens[lt], modulus))
                    for lt in (3, 2, 1, 0)
                    if lt != word[-1] ^ 1 and _lyndon_length(word + (lt,)) is not None
                ]
    return violations, checked, False


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

    Products are exact: int64 while nu^max_length < 2^63, with nu the
    largest infinity-norm among X, X^-1, Y and Y^-1, and Python ints
    otherwise (see the module docstring).
    """
    if max_length < 2:
        raise ParameterError(f"max_length must be >= 2, got {max_length}")
    if budget < 0:
        raise ParameterError(f"budget must be >= 0, got {budget}")
    X, Y = generator_pair(n, l, a, b, allow_small=True)
    mats = [X.entries, X.inverse().entries, Y.entries, Y.inverse().entries]
    nu = max(max(sum(abs(x) for x in row) for row in m) for m in mats)
    gens = np.array(mats, dtype=np.int64 if nu**max_length < 1 << 63 else object)
    violations, checked, partial = _scan(gens, max_length, budget)
    violations.sort(key=lambda ls: (len(ls), ls))
    return FreenessReport(
        n,
        l,
        a,
        b,
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

    The shortest such word is cyclically reduced, and so are its rotations
    and their inverses, which equal 1 as well; so one is a canonical word
    of the freeness scan, run mod p with a bound raised one letter at a
    time.  Where the four generator images are pairwise distinct this
    equals the graph girth (cross-validated in the test suite).  Entries
    stay below p, so int64 holds every partial sum while n (p - 1)^2 < 2^63.
    """
    X, Y = cayley.spec_generators(spec, p)
    mats = [X.entries, X.inverse().entries, Y.entries, Y.inverse().entries]
    exact = spec.n * (p - 1) ** 2 < 1 << 63
    gens = np.array(mats, dtype=np.int64 if exact else object)
    for length in range(1, max_length + 1):
        if _scan(gens, length, math.inf, p)[0]:
            return length
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


def _replay(
    X: ModMatrix, Y: ModMatrix, expected_steps, pair: str, memory_budget: int
) -> RecipeReplay:
    """Replay a recipe at the pair (X, Y) over F_q, q = X.m: each step's word
    must evaluate bit-exactly to its displayed matrix, and the BFS closure of
    {X, Y} must count |SL_n(F_q)|.  A closure past the memory budget leaves
    the step checks standing and flags the replay partial.  Raises
    RecipeError on a mismatch; pair names the generators in its message.
    """
    steps: List[RecipeStep] = []
    for label, word, expected in expected_steps:
        got = eval_word(word, X, Y)
        if got.entries != expected:
            raise RecipeError(
                f"step {label}: computed {got.entries}, displayed {expected}"
            )
        steps.append(RecipeStep(label, word, got))
    expected_order = modmat.group_order_sl(X.n, X.m)
    order: Optional[int] = None
    partial = False
    try:
        order = cayley.closure([X, Y], memory_budget=memory_budget)
    except BudgetExceededError:
        partial = True
    if order is not None and order != expected_order:
        raise RecipeError(
            f"closure of {pair} has order {order}, expected {expected_order}"
        )
    return RecipeReplay(tuple(steps), X.m, X.n, expected_order, order, partial)


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
    X, Y = (modmat.reduce(M, 3) for M in generator_pair(3, 4, a, b))
    return _replay(X, Y, _sl3_expected_steps(), "the generator pair mod 3", memory_budget)


def _unit_band(n: int, m: int, *, upper: bool) -> ModMatrix:
    """The magic matrix with band 1 above (upper) or below the diagonal,
    mod m."""
    A, B = magic_pair(n, 1, 1, allow_small=True)
    return modmat.reduce(A if upper else B, m)


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
    return _replay(
        Ap, Bp, _qt_expected_steps(q, t), f"the unit-band pair over F_{q}", memory_budget
    )
