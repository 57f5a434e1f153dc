"""Cyclic sieving counts: hook lengths, the hook length formula, and the
q-analogue of the hook length formula with exact evaluation at roots of
unity (Rhoades 2010: promotion on rectangular standard tableaux sieves by
it).

The q-hook polynomial is built as a quotient of products of 1 - q^k in
place, and the tests compare it with dense long division.  Root of
unity values are always computed by two independent methods (cyclotomic
reduction and residue pairing) and must agree, loudly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import factorial, gcd, prod
from operator import sub

from .shapes import Partition, Rectangle, transpose


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def hook_lengths(shape: Partition) -> list[int]:
    conj = transpose(shape)
    out = []
    for i, length in enumerate(shape.rows, start=1):
        for j in range(1, length + 1):
            out.append((length - j) + (conj.rows[j - 1] - i) + 1)
    return out


def count_standard_tableaux(shape: Partition) -> int:
    """Hook length formula; must match the enumeration count."""
    denom = prod(hook_lengths(shape)) if shape.size else 1
    num = factorial(shape.size)
    assert num % denom == 0
    return num // denom


# -- exact integer polynomial arithmetic (coefficients ascending) --------


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Long division by a monic-leading divisor; exact over the integers
    whenever the division is exact."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    if den[-1] == 0:
        raise ValueError("divisor has zero leading coefficient")
    if dn < dd:
        return [0], num
    quot = [0] * (dn - dd + 1)
    for i in range(dn - dd, -1, -1):
        coeff, rem = divmod(num[i + dd], den[-1])
        if rem:
            raise ArithmeticError("non-exact leading division")
        quot[i] = coeff
        if coeff:
            for j, y in enumerate(den):
                num[i + j] -= coeff * y
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    quot, rem = _poly_divmod(num, den)
    if any(rem):
        raise ArithmeticError("polynomial division left a remainder")
    return quot


@lru_cache(maxsize=None)
def _cyclotomic(e: int) -> tuple[int, ...]:
    poly = [-1] + [0] * (e - 1) + [1]  # q^e - 1
    for d in divisors(e)[:-1]:
        poly = _poly_div_exact(poly, list(_cyclotomic(d)))
    return tuple(poly)


@dataclass(frozen=True)
class QPolynomial:
    """Integer coefficients, ascending degree."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        val = 0
        for c in reversed(self.coeffs):
            val = val * x + c
        return val


@lru_cache(maxsize=None)
def q_hook_polynomial(rect: Rectangle) -> QPolynomial:
    """[N]_q! divided by the product of [hook]_q over the boxes, computed
    with exact integer arithmetic.

    F = prod_k (1 - q^k) / prod_h (1 - q^h) over k = 1..N and the hooks
    h: [k]_q = (1 - q^k) / (1 - q), and there are N of each, so the
    factors 1 - q cancel.  Equal exponents cancel first; the rest act in
    place on the power series truncated past deg F, which is exact because
    F is a polynomial.  Times 1 - q^k is c_i -= c_{i-k} from the old
    values; over 1 - q^h is c_i += c_{i-h} bottom-up, a running sum along
    each residue class mod h."""
    shape = rect.as_partition()
    numerator = Counter(range(1, shape.size + 1))
    hooks = Counter(hook_lengths(shape))
    numerator, hooks = numerator - hooks, hooks - numerator
    poly = [1] + [0] * (sum(numerator.elements()) - sum(hooks.elements()))
    for k in numerator.elements():
        if k < len(poly):
            poly[k:] = map(sub, poly[k:], poly[: len(poly) - k])
    for h in hooks.elements():
        for r in range(min(h, len(poly))):
            poly[r::h] = accumulate(poly[r::h])
    # a wrong factor list would show in one of these
    assert all(c >= 0 for c in poly) and poly == poly[::-1]
    assert sum(poly) == count_standard_tableaux(shape)
    return QPolynomial(tuple(poly))


def _root_value_by_reduction(rect: Rectangle, e: int) -> int:
    coeffs = list(q_hook_polynomial(rect).coeffs)
    _, rem = _poly_divmod(coeffs, list(_cyclotomic(e)))
    if len(rem) > 1:
        raise RuntimeError(f"reduction mod the {e}-th cyclotomic is not constant: {rem}")
    return rem[0]


def _root_value_by_pairing(total: int, hooks: list[int], e: int) -> int:
    """Pair numerator factors [1..total] with hook factors congruent mod e;
    pairs of multiples of e contribute their plain ratio, anything
    unmatched is either a forced zero or a bug."""
    num_mult = [k for k in range(1, total + 1) if k % e == 0]
    den_mult = [h for h in hooks if h % e == 0]
    if len(num_mult) > len(den_mult):
        return 0
    if len(num_mult) < len(den_mult):
        raise RuntimeError("more hook multiples than numerator multiples (pole)")
    num_res = Counter(k % e for k in range(1, total + 1) if k % e)
    den_res = Counter(h % e for h in hooks if h % e)
    if num_res != den_res:
        raise RuntimeError("residue classes of numerator and hooks do not pair up")
    p, q = prod(num_mult, start=1), prod(den_mult, start=1)
    if p % q:
        raise RuntimeError("paired multiples do not divide exactly")
    return p // q


def q_hook_at_root(rect: Rectangle, r: int) -> int:
    """Exact value of the q-hook polynomial at zeta^r, zeta a primitive
    (ncells)-th root of unity.  Both evaluation routes must agree."""
    if type(r) is not int:  # a bool, float or string is never coerced
        raise ValueError(f"r must be an integer, got {r!r}")
    total = rect.ncells
    if not 1 <= r <= total:
        raise ValueError(f"r must lie in 1..{total}")
    e = total // gcd(r, total)
    by_reduction = _root_value_by_reduction(rect, e)
    by_pairing = _root_value_by_pairing(total, hook_lengths(rect.as_partition()), e)
    if by_reduction != by_pairing:
        raise RuntimeError(
            f"root-of-unity evaluations disagree at r={r}: {by_reduction} vs {by_pairing}"
        )
    return by_reduction
