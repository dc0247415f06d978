"""Parameter regimes: which (n, l, a, b) tuples carry which guarantees.

Guarantee flags are keyed "freeness", "generation", "girth-bound" and map to
short clause identifiers of the rule that granted them.  A tuple outside
every certified regime is returned with an empty guarantee map, never
rejected: measuring beyond the proven regimes is a stated use of the tool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Dict, Optional, Tuple

from .exactmat import ParameterError
from .modmat import is_prime

FREENESS = "freeness"
GENERATION = "generation"
GIRTH = "girth-bound"


@dataclass(frozen=True)
class GraphSpec:
    """A parameter tuple plus the guarantees it carries."""

    n: int
    l: int
    a: int
    b: int
    regime: Optional[str]  # "dim2" | "dim3" | "dimGeneral"; None outside validate's domain
    q: Optional[int] = None
    t: Optional[int] = None
    guarantees: Dict[str, str] = field(default_factory=dict)
    alternative_q: Tuple[int, ...] = ()

    def has(self, flag: str) -> bool:
        return flag in self.guarantees


def _prime_divisors(x: int):
    out = []
    d = 2
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            while x % d == 0:
                x //= d
        d += 1
    if x > 1:
        out.append(x)
    return out


def _scale_exponent(n: int, q: int) -> int:
    """Largest t with q^t <= n."""
    t = 0
    while q ** (t + 1) <= n:
        t += 1
    return t


def _is_power_of(l: int, base: int) -> bool:
    if l < base:
        return False
    while l % base == 0:
        l //= base
    return l == 1


def validate(n: int, l: int, a: int, b: int) -> GraphSpec:
    """Classify a parameter tuple and flag every guarantee it satisfies.

    dim2 (n=2, l=1): all three flags, for primes p with a,b != 0 mod p.
    dim3 (n=3): freeness for l >= 4; generation and girth need a = 1 and
        b = -1 mod 3 and l a positive power of 4.
    dimGeneral (n>=4): freeness for l >= 3(n-1); generation and girth need a
        prime q | n-1 with a = b = 1 mod q and l in the admitted power set
        (generation additionally admits l = 1; the girth set doubles the
        exponent step when q = 2).
    """
    if n < 2:
        raise ParameterError(f"dimension must be >= 2, got {n}")
    if l < 1:
        raise ParameterError(f"power must be >= 1, got {l}")
    if a < 2 or b < 2:
        raise ParameterError(f"band values must be >= 2, got a={a}, b={b}")

    guarantees: Dict[str, str] = {}
    if n == 2:
        if l == 1:
            guarantees[FREENESS] = "free.n2"
            guarantees[GENERATION] = "gen.n2.all-primes"
            guarantees[GIRTH] = "girth.n2"
        return GraphSpec(n, l, a, b, "dim2", guarantees=guarantees)

    if n == 3:
        if l >= 4:
            guarantees[FREENESS] = "free.n3.l>=4"
        if a % 3 == 1 and b % 3 == 2 and _is_power_of(l, 4):
            guarantees[GENERATION] = "gen.n3.power-of-4"
            guarantees[GIRTH] = "girth.n3.power-of-4"
        return GraphSpec(n, l, a, b, "dim3", q=3, guarantees=guarantees)

    # n >= 4
    if l >= 3 * (n - 1):
        guarantees[FREENESS] = f"free.general.l>=3(n-1)={3 * (n - 1)}"
    candidates = [q for q in _prime_divisors(n - 1) if a % q == 1 and b % q == 1]
    gen_q = None
    girth_q = None
    for q in candidates:
        t = _scale_exponent(n, q)
        in_gen_set = l == 1 or _in_power_set(l, q, t, step=1)
        in_girth_set = _in_power_set(l, q, t, step=1 if q != 2 else 2)
        if in_gen_set and gen_q is None:
            gen_q = q
        if in_girth_set and girth_q is None:
            girth_q = q
    if gen_q is not None:
        guarantees[GENERATION] = f"gen.general.q={gen_q}"
    if girth_q is not None:
        guarantees[GIRTH] = f"girth.general.q={girth_q}"
    chosen = girth_q or gen_q or (candidates[0] if candidates else None)
    others = tuple(q for q in candidates if q != chosen)
    t = _scale_exponent(n, chosen) if chosen is not None else None
    return GraphSpec(
        n, l, a, b, "dimGeneral", q=chosen, t=t, guarantees=guarantees, alternative_q=others
    )


def _in_power_set(l: int, q: int, t: int, step: int) -> bool:
    """Is l of the form q^(k+step) + 1 for some k >= t?"""
    rest = l - 1
    if rest < 1:
        return False
    j = 0
    while rest % q == 0:
        rest //= q
        j += 1
    return rest == 1 and j >= t + step


def lucas_binom_mod(alpha: int, beta: int, q: int) -> int:
    """C(alpha, beta) mod q as the product of base-q digitwise binomials."""
    if not is_prime(q):
        raise ParameterError(f"digitwise binomials need a prime base, got {q}")
    if alpha < 0 or beta < 0:
        raise ParameterError("indices must be nonnegative")
    result = 1
    while alpha or beta:
        da, db = alpha % q, beta % q
        if db > da:
            return 0
        result = result * comb(da, db) % q
        alpha //= q
        beta //= q
    return result


def admissible_exponents(n: int, q: int, count: int) -> Tuple[int, ...]:
    """The first `count` certified powers l = r q^(t+1) + 1.

    r runs over 1, q, q^2, ... for q >= 3 and over q^2, q^3, ... for q = 2;
    every candidate must clear the freeness floor 3(n-1).  Each returned
    value is re-checked against the digitwise binomial criterion: the mod-q
    reduction of the l-th power must collapse to the unit-superdiagonal
    matrix, which needs C(l, i) = 0 mod q for 2 <= i <= n-1 and l = 1 mod q.
    """
    if not is_prime(q):
        raise ParameterError(f"auxiliary modulus must be prime, got {q}")
    if n % q != 1:
        raise ParameterError(f"need n = 1 mod q, got n={n}, q={q}")
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    t = _scale_exponent(n, q)
    floor = 3 * (n - 1)
    out = []
    r = 1 if q >= 3 else q * q
    while len(out) < count:
        l = r * q ** (t + 1) + 1
        if l >= floor:
            if l % q != 1:
                raise AssertionError("exponent construction broke the mod-q residue")
            for i in range(2, n):
                if lucas_binom_mod(l, i, q) != 0:
                    raise AssertionError(f"C({l},{i}) mod {q} != 0; construction is wrong")
            out.append(l)
        r *= q
    return tuple(out)
