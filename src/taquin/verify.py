"""Brute-force verification layer: standard-tableau enumeration, promotion
orbit tables, hook-length counting, the q-analogue of the hook length
formula with exact evaluation at roots of unity, and named check suites.

The enumeration lane works on flat byte strings for speed; it is
cross-checked against the object-level promotion in the test suite.  Root
of unity values are always computed by two independent methods (cyclotomic
reduction and residue pairing) and must agree, loudly.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from math import factorial, gcd, prod

from .shapes import (
    Partition,
    Rectangle,
    SkewShape,
    box_less,
    enumerate_diagonals,
    staircase_diagonal,
    transpose,
)
from .tableaux import PartialTableau, from_rows, promotion
from .orbits import (
    augmented_insertion_tableau,
    box_sequence,
    column_sequence,
    delta_closed_form,
    forward_tableau,
    forward_tableau_by_peeling,
    invert,
    minimal_orbit_tableau,
    reverse_tableau,
    superstandard_choice,
    tableau_from_box_sequence,
)
from .words import (
    Permutation,
    all_permutations,
    bounded_equivalence,
    descent_sequence,
    descents,
    insertion_knuth_positions,
    insertion_tableau,
    inverse_word_sequence,
    promotion_cycle,
    reading_word_of_rows,
    right_multiply,
    strict_knuth,
)


class EnumerationCapError(RuntimeError):
    """A sweep exceeded the configured cell or count cap."""


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


def _iter_syt_flat(shape: Partition):
    """Yield every standard filling as bytes, entries placed 1..N with the
    topmost feasible row tried first (lexicographic placement)."""
    rows = shape.rows
    total = shape.size
    if total > 255:
        raise EnumerationCapError("flat encoding limited to 255 cells")
    if total == 0:
        yield b""
        return
    nr = len(rows)
    offsets = [0, *accumulate(rows[:-1])]
    flat = bytearray(total)
    heights = [0] * nr
    placed = []  # row of each placed entry below the one being placed
    i = 0  # first row to try for the next entry
    while True:
        while i < nr:
            h = heights[i]
            if h < rows[i] and (i == 0 or heights[i - 1] > h):
                break
            i += 1
        if i < nr:
            k = len(placed) + 1
            flat[offsets[i] + h] = k
            if k == total:
                yield bytes(flat)
                i += 1
            else:
                heights[i] = h + 1
                placed.append(i)
                i = 0
        elif placed:
            i = placed.pop()
            heights[i] -= 1
            i += 1
        else:
            return


def _flat_rows(flat: bytes, shape: Partition) -> tuple:
    starts = [0, *accumulate(shape.rows)]
    return tuple(tuple(flat[a:b]) for a, b in zip(starts, starts[1:]))


def _check_caps(shape: Partition, max_cells: int, max_count: int) -> None:
    if shape.size > max_cells:
        raise EnumerationCapError(f"{shape.size} cells exceeds the {max_cells}-cell cap")
    count = count_standard_tableaux(shape)
    if count > max_count:
        raise EnumerationCapError(f"{count} tableaux exceed the {max_count} cap; raise max_count to sweep")


def standard_tableaux(shape: Partition, *, max_cells: int = 20, max_count: int = 1_000_000):
    """Iterate lazily over every standard tableau of `shape` exactly once,
    as a tuple of row tuples, in deterministic placement order.

    Caps guard accidental huge sweeps and are checked by the call, from the
    hook length count; pass larger values explicitly to go beyond them.
    """
    _check_caps(shape, max_cells, max_count)
    return (_flat_rows(b, shape) for b in _iter_syt_flat(shape))


def _promote_flat(flat, nrows: int, ncols: int) -> bytes:
    """Promotion on the flat row-major encoding of a full rectangle."""
    a = list(flat)
    p = r = c = 0
    last_r, last_c = nrows - 1, ncols - 1
    while True:
        if r < last_r and c < last_c:
            right = a[p + 1]
            if right < a[p + ncols]:
                p += 1
                c += 1
                a[p - 1] = right
                continue
            a[p] = a[p + ncols]
            p += ncols
            r += 1
        elif c < last_c:
            a[p] = a[p + 1]
            p += 1
            c += 1
        elif r < last_r:
            a[p] = a[p + ncols]
            p += ncols
            r += 1
        else:
            break
    for i in range(len(a)):
        a[i] -= 1
    a[p] = nrows * ncols
    return bytes(a)


@dataclass
class OrbitTable:
    """Promotion orbit decomposition of the standard tableaux of rect."""

    rect: Rectangle
    orbits: list[tuple[tuple, int]]  # (representative rows, orbit size)
    counts: dict[int, int]  # divisor r of the cell count -> #{T : r-fold promotion fixes T}
    total: int
    _rep_flats: list[bytes] = field(repr=False, default_factory=list)

    def fixed_rows(self, r: int) -> list[tuple]:
        """All tableaux fixed by r-fold promotion, as row tuples."""
        nrows, ncols = self.rect.nrows, self.rect.ncols
        shape = self.rect.as_partition()
        out = []
        for flat, (_, size) in zip(self._rep_flats, self.orbits):
            if r % size:
                continue
            cur = flat
            for _ in range(size):
                out.append(_flat_rows(cur, shape))
                cur = _promote_flat(cur, nrows, ncols)
        return out


def orbit_table(rect: Rectangle, *, max_cells: int = 20, max_count: int = 1_000_000) -> OrbitTable:
    """Full orbit decomposition under promotion, streaming the enumeration
    so each tableau is promoted exactly once."""
    shape = rect.as_partition()
    _check_caps(shape, max_cells, max_count)
    nrows, ncols = rect.nrows, rect.ncols
    visited: set[bytes] = set()
    rep_flats: list[bytes] = []
    sizes: list[int] = []
    count = 0
    for b in _iter_syt_flat(shape):
        count += 1
        if b in visited:
            continue
        orbit = [b]
        cur = _promote_flat(b, nrows, ncols)
        while cur != b:
            orbit.append(cur)
            cur = _promote_flat(cur, nrows, ncols)
        visited.update(orbit)
        rep_flats.append(b)
        sizes.append(len(orbit))
    orbits = [(_flat_rows(b, shape), s) for b, s in zip(rep_flats, sizes)]
    counts = {r: sum(s for s in sizes if r % s == 0) for r in divisors(rect.ncells)}
    return OrbitTable(rect, orbits, counts, count, rep_flats)


# -- exact integer polynomial arithmetic (coefficients ascending) --------


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


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


def _q_int(k: int) -> list[int]:
    return [1] * k


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


def q_hook_polynomial(rect: Rectangle) -> QPolynomial:
    """[N]_q! divided by the product of [hook]_q over the boxes, computed
    with exact integer polynomial arithmetic (any remainder is a bug)."""
    return _q_hook_polynomial_cached(rect.nrows, rect.ncols)


@lru_cache(maxsize=None)
def _q_hook_polynomial_cached(nrows: int, ncols: int) -> QPolynomial:
    shape = Partition((ncols,) * nrows)
    poly = [1]
    for k in range(1, shape.size + 1):
        poly = _poly_mul(poly, _q_int(k))
    for h in hook_lengths(shape):
        poly = _poly_div_exact(poly, _q_int(h))
    assert all(c >= 0 for c in poly)
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


# -- named check suites ---------------------------------------------------


@dataclass
class CaseResult:
    name: str
    status: str  # "pass" | "fail"
    counterexample: str | None = None


@dataclass
class SuiteReport:
    suite: str
    rect: Rectangle
    cases: list[CaseResult]

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.cases)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "rect": {"n": self.rect.n, "m": self.rect.m, "n_is_rows": self.rect.n_is_rows},
            "cases": [
                {"name": c.name, "status": c.status, "counterexample": c.counterexample}
                for c in self.cases
            ],
        }

    def format_text(self) -> str:
        lines = []
        for c in self.cases:
            if c.status == "pass":
                lines.append(f"PASS {c.name}")
            else:
                lines.append(f"FAIL {c.name}: {c.counterexample}")
        verdict = "ok" if self.passed else "FAILED"
        lines.append(f"{self.suite}: {sum(c.status == 'pass' for c in self.cases)}/{len(self.cases)} cases {verdict}")
        return "\n".join(lines)


def _case(cases: list[CaseResult], name: str, failures: list[str]) -> None:
    if failures:
        cases.append(CaseResult(name, "fail", failures[0]))
    else:
        cases.append(CaseResult(name, "pass"))


def _column_superstandard(shape: Partition) -> PartialTableau:
    cells = sorted(shape.cells(), key=lambda b: (b.col, b.row))
    return PartialTableau(SkewShape(shape), {b: k for k, b in enumerate(cells, start=1)})


def _perm_sample(n: int, seed: int, limit: int = 24) -> list[Permutation]:
    perms = list(all_permutations(n))
    if len(perms) <= limit:
        return perms
    rng = random.Random(seed)
    return rng.sample(perms, limit)


def _choice_tableaux(shape: Partition, all_choices: bool, max_count: int):
    if all_choices:
        return [from_rows(rows) for rows in standard_tableaux(shape, max_count=max_count)]
    out = [superstandard_choice(shape)]
    alt = _column_superstandard(shape)
    if alt != out[0]:
        out.append(alt)
    return out


def random_corner_peeling(nrows: int, ncols: int, rng: random.Random) -> list:
    """A uniform-ish random order peeling the rectangle corner by corner."""
    from .shapes import Box, removable_corners

    mu = [ncols] * nrows
    order = []
    while any(mu):
        corners = removable_corners(Partition(tuple(mu)))
        b = rng.choice(corners)
        order.append(Box(*b))
        mu[b.row - 1] -= 1
    return order


def _suite_bijection(rect: Rectangle, caps: dict) -> list[CaseResult]:
    cases: list[CaseResult] = []
    n = rect.n
    table = orbit_table(rect, **caps)
    failures = [] if table.counts[n] == factorial(n) else [f"counts[{n}] = {table.counts[n]} != {factorial(n)}"]
    _case(cases, f"minimal-orbit-count-{n}!", failures)

    image = {}
    failures = []
    for w in all_permutations(n):
        t = minimal_orbit_tableau(w, rect)
        image[w] = t
    image_rows = {t.row_tuples() for t in image.values()}
    minimal = set(table.fixed_rows(n))
    if image_rows != minimal:
        failures.append(
            f"image has {len(image_rows)} tableaux, enumeration gives {len(minimal)}; "
            f"symmetric difference size {len(image_rows ^ minimal)}"
        )
    _case(cases, "image-equals-minimal-orbits", failures)

    # one promotion step subtracts 1 mod n from every diagonal residue,
    # i.e. it carries the tableau of w to the tableau of c o w
    c = promotion_cycle(n)
    failures = []
    for w, t in image.items():
        if promotion(t) != image[right_multiply(c, w)]:
            failures.append(f"promotion(T_{w}) != T_{right_multiply(c, w)}")
            break
    _case(cases, "promotion-equivariance", failures)

    failures = []
    for w, t in image.items():
        got = invert(t)
        if got != w:
            failures.append(f"invert round trip failed: {w} -> {got}")
            break
    _case(cases, "invert-round-trip", failures)

    non_minimal = [rows for rows, size in table.orbits if n % size != 0]
    if non_minimal:
        failures = []
        t = from_rows(non_minimal[0])
        try:
            got = invert(t)
            failures.append(f"invert accepted a non-minimal tableau as {got}")
        except Exception:
            pass
        _case(cases, "non-minimal-rejected", failures)
    return cases


def _suite_independence(rect: Rectangle, seed: int, all_choices: bool, all_diagonals: bool, caps: dict) -> list[CaseResult]:
    cases: list[CaseResult] = []
    n = rect.n
    perms = _perm_sample(n, seed)
    diagonals = enumerate_diagonals(rect) if all_diagonals else [staircase_diagonal(rect)]
    max_count = caps.get("max_count", 1_000_000)

    failures = []
    for d in diagonals:
        choices = _choice_tableaux(d.lambda_minus, all_choices, max_count)
        for w in perms:
            results = {forward_tableau(w, d, u) for u in choices}
            if len(results) != 1:
                failures.append(f"forward construction depends on the choice for w={w}, diagonal {d.lambda_plus}")
                break
        if failures:
            break
    _case(cases, "forward-choice-independence", failures)

    failures = []
    from .shapes import complement_shape as _comp

    for d in diagonals:
        choices = _choice_tableaux(_comp(d.lambda_plus, rect), all_choices, max_count)
        for w in perms:
            results = {reverse_tableau(w, d, rect, u) for u in choices}
            if len(results) != 1:
                failures.append(f"reverse construction depends on the choice for w={w}, diagonal {d.lambda_plus}")
                break
        if failures:
            break
    _case(cases, "reverse-choice-independence", failures)

    failures = []
    for d in diagonals:
        for w in perms:
            plus = forward_tableau(w, d)
            minus = reverse_tableau(w, d, rect)
            bad = [b for b in d.boxes if plus[b] != minus[b]]
            if bad:
                failures.append(f"w={w}, diagonal {d.lambda_plus}: disagree at {bad[0]}")
                break
        if failures:
            break
    _case(cases, "diagonal-agreement", failures)

    failures = []
    for w in perms:
        tableaux = {minimal_orbit_tableau(w, rect, d) for d in diagonals}
        if len(tableaux) != 1:
            failures.append(f"combined tableau depends on the diagonal for w={w}")
            break
    _case(cases, "diagonal-independence", failures)
    return cases


def _suite_csp(rect: Rectangle, caps: dict) -> list[CaseResult]:
    cases: list[CaseResult] = []
    table = orbit_table(rect, **caps)
    failures = []
    if q_hook_polynomial(rect)(1) != table.total:
        failures.append(f"F(1) = {q_hook_polynomial(rect)(1)} != {table.total} tableaux")
    _case(cases, "polynomial-at-one", failures)
    for r in divisors(rect.ncells):
        failures = []
        try:
            val = q_hook_at_root(rect, r)
            if val != table.counts[r]:
                failures.append(f"F(zeta^{r}) = {val} but {table.counts[r]} tableaux are fixed")
        except RuntimeError as exc:
            failures.append(str(exc))
        _case(cases, f"sieving-r={r}", failures)
    return cases


def _suite_haiman(rect: Rectangle, caps: dict) -> list[CaseResult]:
    cases: list[CaseResult] = []
    total_cells = rect.ncells
    table = orbit_table(rect, **caps)
    failures = []
    for rows, size in table.orbits:
        if total_cells % size:
            failures.append(f"orbit of size {size} does not divide {total_cells}: {rows}")
            break
    _case(cases, "orbit-sizes-divide-cell-count", failures)

    failures = []
    for rows, _ in table.orbits[:3]:
        t = from_rows(rows)
        cur = t
        for _ in range(total_cells):
            cur = promotion(cur)
        if cur != t:
            failures.append(f"full-cycle promotion moved {rows}")
            break
    _case(cases, "full-cycle-spot-check", failures)

    failures = []
    for r in divisors(total_cells):
        if r < rect.n and table.counts[r] != 0:
            failures.append(f"{table.counts[r]} tableaux fixed by {r}-fold promotion with r < n")
    _case(cases, "no-orbits-below-n", failures)
    return cases


def _suite_propositions(rect: Rectangle, seed: int, all_diagonals: bool, caps: dict) -> list[CaseResult]:
    cases: list[CaseResult] = []
    n = rect.n
    rng = random.Random(seed)
    perms = _perm_sample(n, seed)
    stair = staircase_diagonal(rect)
    max_count = caps.get("max_count", 1_000_000)

    failures = []
    for w in perms:
        run = box_sequence(inverse_word_sequence(w), stair)
        if tableau_from_box_sequence(run, stair) != forward_tableau(w, stair):
            failures.append(f"box-sequence reconstruction differs for w={w}")
            break
    _case(cases, "box-sequence-reconstruction", failures)

    failures = []
    for _ in range(50):
        length = 3 * n
        sigma = tuple(rng.randint(1, n) for _ in range(length))
        run = box_sequence(sigma, stair, steps=length)
        for k in range(length - 1):
            if sigma[k] < sigma[k + 1] and not box_less(run.boxes[k], run.boxes[k + 1]):
                failures.append(f"sigma={sigma}, k={k + 1}: ascent not transported")
            if sigma[k] > sigma[k + 1] and not box_less(run.boxes[k + 1], run.boxes[k]):
                failures.append(f"sigma={sigma}, k={k + 1}: descent not transported")
        if failures:
            break
    _case(cases, "box-order-transport", failures)

    failures = _equivariance_failures(rect, stair, rng, 200, max_count)
    _case(cases, "strict-knuth-equivariance", failures)

    rect_cols = rect if rect.ncols == n else rect.transposed()
    diags = enumerate_diagonals(rect_cols) if all_diagonals else [staircase_diagonal(rect_cols)]
    failures = []
    for d in diags:
        for w in perms:
            run = box_sequence(descent_sequence(w), d)
            cols = column_sequence(sorted(descents(w), reverse=True), n, len(run.boxes))
            bad = [k for k in range(len(run.boxes)) if run.boxes[k].col != cols[k]]
            if bad:
                failures.append(f"w={w}: box {bad[0] + 1} lands in column {run.boxes[bad[0]].col}, expected {cols[bad[0]]}")
                break
            if run.delta != delta_closed_form(w, d.lambda_plus, n):
                failures.append(f"w={w}: delta {run.delta} != closed form {delta_closed_form(w, d.lambda_plus, n)}")
                break
        if failures:
            break
    _case(cases, "descent-run-columns-and-delta", failures)

    failures = []
    if len(diags) > 1:
        steps = n * (max(d.lambda_minus.size for d in diags) + 1)
        for w in perms:
            runs = [box_sequence(descent_sequence(w), d, steps=steps) for d in diags]
            for a in range(len(diags)):
                for b in range(a + 1, len(diags)):
                    for k in range(steps):
                        ba, bb = runs[a].boxes[k], runs[b].boxes[k]
                        if bb in diags[a].lambda_plus and ba in diags[b].lambda_plus and ba != bb:
                            failures.append(f"w={w}, diagonals {a},{b}, step {k + 1}: {ba} vs {bb}")
                            break
                    if failures:
                        break
                if failures:
                    break
            if failures:
                break
    _case(cases, "cross-diagonal-compatibility", failures)

    failures = []
    for _ in range(10):
        order = random_corner_peeling(rect.nrows, rect.ncols, rng)
        for w in perms[:6]:
            if forward_tableau_by_peeling(w, stair, order) != forward_tableau(w, stair):
                failures.append(f"peeling order {order} differs for w={w}")
                break
        if failures:
            break
    _case(cases, "corner-peeling-equivalence", failures)

    failures = []
    for w in perms:
        m = rect.ncells // n
        if rect.n_is_rows:
            via = augmented_insertion_tableau(w, m, stair.lambda_plus)
            if via != forward_tableau(w, stair):
                failures.append(f"insertion route differs for w={w}")
                break
    _case(cases, "insertion-route", failures)

    failures = []
    pairs = []
    seen: dict[tuple, Permutation] = {}
    for w in all_permutations(min(n, 3)):
        key = insertion_tableau(w.inverse().oneline)
        if key in seen:
            pairs.append((seen[key], w))
        else:
            seen[key] = w
    for w1, w2 in pairs[:3]:
        verdict = bounded_equivalence(inverse_word_sequence(w1), inverse_word_sequence(w2), 4, budget=20_000, slack=4)
        if verdict.status != "proved":
            failures.append(f"{w1} ~ {w2} came back {verdict.status}")
    _case(cases, "periodic-word-equivalence", failures)

    failures = []
    for w in _perm_sample(min(n, 3), seed):
        verdict = bounded_equivalence(inverse_word_sequence(w), descent_sequence(w), 4, budget=50_000, slack=4)
        if verdict.status != "proved":
            failures.append(f"descent sequence of {w} came back {verdict.status}")
    _case(cases, "descent-sequence-equivalence", failures)

    failures = []
    words_checked = 0
    for length in (4, 5):
        for _ in range(200):
            word = tuple(rng.randint(1, 3) for _ in range(length))
            if not _prefixes_row_strict(word):
                continue
            words_checked += 1
            cur = word
            ok = True
            for k in insertion_knuth_positions(word):
                nxt = strict_knuth(cur, k)
                if nxt is None:
                    failures.append(f"strict move {k} undefined replaying {word}")
                    ok = False
                    break
                cur = nxt
            if ok and cur != reading_word_of_rows(insertion_tableau(word)):
                failures.append(f"replay of {word} missed the reading word")
            if failures:
                break
        if failures:
            break
    if not words_checked:
        failures.append("no row-strict words sampled")
    _case(cases, "row-strict-insertion-moves", failures)
    return cases


def _prefixes_row_strict(word) -> bool:
    for k in range(1, len(word) + 1):
        for row in insertion_tableau(word[:k]):
            if any(a >= b for a, b in zip(row, row[1:])):
                return False
    return True


def _equivariance_failures(rect: Rectangle, diag, rng: random.Random, instances: int, max_count: int) -> list[str]:
    """Random strict-Knuth moves on the driving sequence must transport to
    the box sequence and leave the displacement counts alone."""
    n = diag.n
    choices = [from_rows(rows) for rows in standard_tableaux(diag.lambda_minus, max_count=max_count)]
    failures = []
    done = 0
    attempts = 0
    while done < instances:
        attempts += 1
        if attempts > 50 * instances:
            break  # strict moves need 3 distinct letters; n < 3 has none
        length = 3 * n
        sigma = tuple(rng.randint(1, n) for _ in range(length))
        k = rng.randint(1, length - 2)
        moved = strict_knuth(sigma, k)
        if moved is None:
            continue
        done += 1
        u = rng.choice(choices)
        run_a = box_sequence(sigma, diag, u, steps=length)
        run_b = box_sequence(moved, diag, u, steps=length)
        transported = strict_knuth(run_a.boxes, k, less=box_less)
        if transported is None:
            failures.append(f"sigma={sigma}, k={k}: move undefined on the box sequence")
            break
        if tuple(transported) != run_b.boxes:
            failures.append(f"sigma={sigma}, k={k}: box sequences differ")
            break
        if run_a.delta != run_b.delta:
            failures.append(f"sigma={sigma}, k={k}: delta changed")
            break
    return failures


_SUITES = ("bijection", "independence", "csp", "haiman", "propositions")


def run_suite(
    rect: Rectangle,
    suite: str,
    *,
    seed: int = 0,
    all_choices: bool = False,
    all_diagonals: bool = False,
    max_cells: int = 20,
    max_count: int = 1_000_000,
) -> SuiteReport:
    """Run a named check battery; failures become report entries, never
    exceptions.  Reports are deterministic for a fixed seed."""
    caps = {"max_cells": max_cells, "max_count": max_count}
    names = _SUITES if suite == "all" else (suite,)
    if any(s not in _SUITES for s in names):
        raise ValueError(f"unknown suite {suite!r}; pick from {', '.join(_SUITES + ('all',))}")
    if rect.m < rect.n:
        raise ValueError("verification suites need m >= n")
    cases: list[CaseResult] = []
    for name in names:
        prefix = f"{name}." if suite == "all" else ""
        if name == "bijection":
            got = _suite_bijection(rect, caps)
        elif name == "independence":
            got = _suite_independence(rect, seed, all_choices, all_diagonals, caps)
        elif name == "csp":
            got = _suite_csp(rect, caps)
        elif name == "haiman":
            got = _suite_haiman(rect, caps)
        else:
            got = _suite_propositions(rect, seed, all_diagonals, caps)
        for c in got:
            cases.append(CaseResult(prefix + c.name, c.status, c.counterexample))
    return SuiteReport(suite, rect, cases)
