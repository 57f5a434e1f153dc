"""Brute-force verification layer: standard-tableau enumeration, promotion
orbit tables, hook-length counting, the q-analogue of the hook length
formula with exact evaluation at roots of unity, and named check suites.

The enumeration lane works on flat row-major byte strings for speed.
Standard tableaux are enumerated in two halves, the placements of the
upper half of the entries listed once per partition the lower half ends
on, and joined by adding ints.  Flat slides drop every entry through a
translate table into a padded byte grid and slide it through
`tableaux.grid_slide`, the package's one slide kernel.  The orbit sweep
promotes on the same split: the entries 1..N//2 of T fill a partition
mu, and the slide path stays in mu, comparing only those entries, until
it leaves mu at a corner c; from there it meets only the upper entries.
So promotion is A(p) + B(c, q) for the halves p and q of T: A slides
the lower half alone, once per prefix, and B the upper half alone from
c, once per suffix of mu and corner c.  The sweep numbers tableaux by
enumeration rank and turns promotion into a permutation of the ranks,
one array of successor ranks: for a partition mu and corner c the steps
of every suffix of mu form one column, shared by every prefix that
exits mu at c, so the array is written a prefix at a time by C-level
maps over columns.  The orbits are the cycles of that array, walked
over one visited byte per rank, and the table keeps each orbit as its
size and its first tableau as flat bytes; rows are made on demand for
the orbits a check reports or promotes.  The test suite checks the
enumeration against a recursive enumerator, the ranks against the
enumeration order, flat promotion against the object-level promotion,
the half slides against flat promotion, and the successor array and the
orbit table against flat promotion.
The q-hook polynomial is built as a quotient of products of 1 - q^k in
place, and the tests compare it with dense long division.  Root of
unity values are always computed by two independent methods (cyclotomic
reduction and residue pairing) and must agree, loudly.

The check suites are listed in `SUITES`.  Each is a list of named cases;
a case is a check that returns its first counterexample (None when it
passes), and `run_suite` reports pass or fail with that counterexample; a
check that raises fails with the exception as its counterexample.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, combinations
from math import factorial, gcd, prod
from operator import add, sub
from typing import Callable

from .shapes import (
    Box,
    Partition,
    Rectangle,
    SkewShape,
    box_less,
    complement_shape,
    enumerate_diagonals,
    removable_corners,
    staircase_diagonal,
    transpose,
)
from .tableaux import PartialTableau, from_rows, grid_slide, promotion
from .orbits import (
    NotMinimalOrbitError,
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


def _placements(rows, weights, heights: list[int], first: int, last: int, code: int = 0):
    """Yield (code, heights) for every way to place entries first..last on
    top of the partition `heights`, topmost feasible row tried first.  The
    code sums each entry times the weight of its cell; `heights` is
    restored on exit."""
    if first > last:
        yield code, tuple(heights)
        return
    for i, h in enumerate(heights):
        if h < rows[i] and (i == 0 or heights[i - 1] > h):
            heights[i] = h + 1
            yield from _placements(rows, weights, heights, first + 1, last, code + first * weights[i][h])
            heights[i] = h


def _syt_halves(shape: Partition):
    """Yield (p, tails) for every placement p of the entries 1..half =
    N // 2, in lexicographic placement order (topmost feasible row first).

    Each half is the big-endian int of its N-byte row-major filling (zeros
    in the other half's cells), so the standard fillings of `shape` are
    the sums p + q for q in tails, in lexicographic placement order.  A
    prefix ends on a partition mu, and `tails` lists the placements of
    half+1..N on top of mu; it is built once per distinct mu and shared by
    every prefix ending on it."""
    rows = shape.rows
    total = shape.size
    if total > 255:
        raise EnumerationCapError("flat encoding limited to 255 cells")
    # weights[i][j] is the value of byte (i, j) in the big-endian int
    starts = accumulate(rows, initial=0)
    weights = [[256 ** (total - 1 - k) for k in range(start, start + length)] for start, length in zip(starts, rows)]
    half = total // 2
    suffixes: dict[tuple, list[int]] = {}
    for p, mu in _placements(rows, weights, [0] * len(rows), 1, half):
        tails = suffixes.get(mu)
        if tails is None:
            tails = suffixes[mu] = [q for q, _ in _placements(rows, weights, list(mu), half + 1, total)]
        yield p, tails


def _iter_syt_flat(shape: Partition):
    """Yield every standard filling as bytes, entries placed 1..N with the
    topmost feasible row tried first (lexicographic placement)."""
    total = shape.size
    for p, tails in _syt_halves(shape):
        for q in tails:
            yield (p + q).to_bytes(total, "big")


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


# entry 1 -> 0, the hole; every other entry v -> v - 1, and padding 0 stays 0
_TO_GRID = bytes((0, 0, *range(1, 255)))


def _slide_flat(flat: bytes, ncols: int, start: int) -> tuple[bytearray, int]:
    """One forward slide on a flat row-major filling of full rows, 0 for an
    empty cell: returns the slid filling and the cell the slide ended in.

    The rows become a forward-slide grid for `grid_slide`, one empty byte
    after each row and an empty row below, with every entry dropped by one
    through a translate table, so entry 1, if present, becomes a hole.  The
    slide starts from cell `start`, which must be empty after the drop.
    The padding is cut by position, not by value, because a half of a
    tableau has empty cells of its own."""
    width = ncols + 1
    grid = bytearray(flat.translate(_TO_GRID))
    for row_end in range(len(flat), 0, -ncols):
        grid.insert(row_end, 0)
    grid += bytes(width)
    end, _ = grid_slide(grid, width, start + start // ncols)
    del grid[-width:], grid[ncols::width]
    return grid, end - end // width


def _promote_flat(flat: bytes, nrows: int, ncols: int) -> bytes:
    """Promotion on the flat row-major encoding of a full rectangle: the
    slide from the cell of entry 1 always ends in the last cell, which
    takes the largest entry."""
    grid, end = _slide_flat(flat, ncols, 0)
    grid[end] = nrows * ncols
    return bytes(grid)


@dataclass
class OrbitTable:
    """Promotion orbit decomposition of the standard tableaux of rect.

    Each orbit is kept as its representative, the first of its tableaux in
    enumeration order, flat (row-major bytes, as `_iter_syt_flat` yields
    it), and its size; `reps` and `sizes` list the orbits in enumeration
    order of their representatives.  `orbits` pairs each representative's
    rows with its size, built anew on each read."""

    rect: Rectangle
    reps: list[bytes]
    sizes: list[int]
    counts: dict[int, int]  # divisor r of the cell count -> #{T : r-fold promotion fixes T}
    total: int

    @property
    def orbits(self) -> list[tuple[tuple, int]]:
        """(representative rows, orbit size) for every orbit."""
        shape = self.rect.as_partition()
        return [(_flat_rows(flat, shape), size) for flat, size in zip(self.reps, self.sizes)]

    def fixed_rows(self, r: int) -> list[tuple]:
        """All tableaux fixed by r-fold promotion, as row tuples."""
        nrows, ncols = self.rect.nrows, self.rect.ncols
        shape = self.rect.as_partition()
        out = []
        for cur, size in zip(self.reps, self.sizes):
            if r % size:
                continue
            for _ in range(size):
                out.append(_flat_rows(cur, shape))
                cur = _promote_flat(cur, nrows, ncols)
        return out


def _ranked_halves(shape: Partition):
    """The first pass of the orbit sweep: returns (halves, offset, index).

    `halves` lists the (p, tails) pairs of `_syt_halves`, so the tableau
    p + tails[k] has enumeration rank offset[p] + k, offset[p] being the
    number of tableaux before prefix p.  index[q] is the position of the
    suffix q in its tails list; the tails of different partitions fill
    different cells, so they are distinct ints and one dict holds them
    all."""
    halves = list(_syt_halves(shape))
    offset: dict[int, int] = {}
    index: dict[int, int] = {}
    count = 0
    for p, tails in halves:
        offset[p] = count
        count += len(tails)
        if tails[0] not in index:  # first prefix ending on this partition
            index.update(zip(tails, range(len(tails))))
    return halves, offset, index


def _successor_ranks(nrows: int, ncols: int, halves, offset: dict[int, int], index: dict[int, int]):
    """Promotion as a permutation of enumeration ranks, from the first pass
    of `_ranked_halves`: an `array("I")` nxt, nxt[r] being the rank of the
    promotion of the tableau of rank r, for a rectangle of N >= 2 cells.

    Let T = p + q, p holding the entries 1..half on a partition mu.  Every
    entry of p is below every entry of q, so at a cell with a right or
    down neighbour in mu the slide takes a neighbour in mu: the path stays
    in mu, decided by p alone, until it reaches a corner c of mu, and from
    c on it runs only through entries of q.  So promotion is A + B, A the
    slide of p alone from cell 0, which ends at c (entries 2..half dropped
    to 1..half-1), and B the slide of q alone from c, its terminal set to
    N.  With E the term of the one cell of B that now holds half, the
    promoted halves are A + E and B - E, and the promoted tableau has rank
    offset[A + E] + j, j = index[B - E].

    For a partition mu and a corner c, the pairs (E, j) over the tails of
    mu form one list, a column, shared by every prefix ending on mu that
    exits at c, so a prefix's segment of the array is offset[A + E] + j
    over its column.  E is the term of a cell that can be added to mu
    minus c, so a column holds only a few distinct E: each prefix looks up
    offset[A + E] once for each and writes its segment with C-level `map`.
    Each prefix is slid once, and each column entry once, when the column
    is first needed."""
    # imported here: loading the extension module adds about 0.3 MB to the
    # RSS of every process that imports the package, and only the sweep
    # needs it
    from array import array

    total = nrows * ncols
    half = total // 2
    columns = {}
    nxt = array("I")
    for p, tails in halves:
        low, c = _slide_flat(p.to_bytes(total, "big"), ncols, 0)
        a = int.from_bytes(low, "big")
        column = columns.get((c, tails[0]))  # tails[0] stands for mu
        if column is None:
            entries = []
            for q in tails:
                high, end = _slide_flat(q.to_bytes(total, "big"), ncols, c)
                high[end] = total
                e = half << 8 * (total - 1 - high.index(half))
                entries.append((e, index[int.from_bytes(high, "big") - e]))
            es = list(dict.fromkeys(e for e, _ in entries))
            column = columns[c, tails[0]] = es, [es.index(e) for e, _ in entries], [j for _, j in entries]
        es, picks, js = column
        starts = [offset[a + e] for e in es]
        nxt.extend(map(add, map(starts.__getitem__, picks), js))
    return nxt


def orbit_table(rect: Rectangle, *, max_cells: int = 20, max_count: int = 1_000_000) -> OrbitTable:
    """Full orbit decomposition under promotion.

    Tableaux are numbered by enumeration rank, and promotion becomes a
    permutation of the ranks, stored as an array of successor ranks
    (`_successor_ranks`) that is built a prefix at a time from slides of
    each half of a tableau on its own.  The orbits are the cycles of that
    array: the sweep jumps to the next unvisited rank of each prefix with
    `bytearray.find` and walks its cycle, flagging each rank in a
    bytearray.  Each orbit is kept as its size and its representative,
    the first of its tableaux in enumeration order, as flat bytes; no rows
    are built."""
    shape = rect.as_partition()
    _check_caps(shape, max_cells, max_count)
    total = rect.ncells
    if total == 1:
        return OrbitTable(rect, [b"\x01"], [1], {1: 1}, 1)
    halves, offset, index = _ranked_halves(shape)
    nxt = _successor_ranks(rect.nrows, rect.ncols, halves, offset, index)
    seen = bytearray(len(nxt))
    reps: list[bytes] = []
    sizes: list[int] = []
    for p, tails in halves:
        first = offset[p]
        end = first + len(tails)
        start = seen.find(0, first, end)
        while start >= 0:
            size, rank = 0, start
            while not seen[rank]:
                seen[rank] = 1
                rank = nxt[rank]
                size += 1
            reps.append((p + tails[start - first]).to_bytes(total, "big"))
            sizes.append(size)
            start = seen.find(0, start + 1, end)
    histogram = Counter(sizes)
    counts = {r: sum(s * k for s, k in histogram.items() if r % s == 0) for r in divisors(total)}
    return OrbitTable(rect, reps, sizes, counts, len(seen))


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


def q_hook_polynomial(rect: Rectangle) -> QPolynomial:
    """[N]_q! divided by the product of [hook]_q over the boxes, computed
    with exact integer arithmetic."""
    return _q_hook_polynomial_cached(rect.nrows, rect.ncols)


@lru_cache(maxsize=None)
def _q_hook_polynomial_cached(nrows: int, ncols: int) -> QPolynomial:
    """F = prod_k (1 - q^k) / prod_h (1 - q^h) over k = 1..N and the hooks
    h: [k]_q = (1 - q^k) / (1 - q), and there are N of each, so the
    factors 1 - q cancel.  Equal exponents cancel first; the rest act in
    place on the power series truncated past deg F, which is exact because
    F is a polynomial.  Times 1 - q^k is c_i -= c_{i-k} from the old
    values; over 1 - q^h is c_i += c_{i-h} bottom-up, a running sum along
    each residue class mod h."""
    shape = Partition((ncols,) * nrows)
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


def _case(name: str, check) -> CaseResult:
    """Run one check; a check that raises fails with the exception as its
    counterexample, except a cap error, which stops the whole run."""
    try:
        counterexample = check()
    except EnumerationCapError:
        raise
    except Exception as exc:
        counterexample = f"raised {exc!r}"
    return CaseResult(name, "pass" if counterexample is None else "fail", counterexample)


def _column_superstandard(shape: Partition) -> PartialTableau:
    cells = sorted(shape.cells(), key=lambda b: (b.col, b.row))
    return PartialTableau(SkewShape(shape), {b: k for k, b in enumerate(cells, start=1)})


def _perm_sample(n: int, seed: int, limit: int = 24) -> list[Permutation]:
    """All of S_n in lexicographic order if it has at most `limit` elements,
    else `limit` of them drawn by lexicographic rank; S_n is never listed."""
    total = factorial(n)
    ranks = range(total) if total <= limit else random.Random(seed).sample(range(total), limit)
    out = []
    for rank in ranks:
        letters = list(range(1, n + 1))
        oneline = []
        for k in range(n - 1, -1, -1):
            index, rank = divmod(rank, factorial(k))
            oneline.append(letters.pop(index))
        out.append(Permutation(tuple(oneline)))
    return out


def _choice_tableaux(shape: Partition, all_choices: bool, caps: dict):
    if all_choices:
        return [from_rows(rows) for rows in standard_tableaux(shape, **caps)]
    out = [superstandard_choice(shape)]
    alt = _column_superstandard(shape)
    if alt != out[0]:
        out.append(alt)
    return out


def random_corner_peeling(nrows: int, ncols: int, rng: random.Random) -> list:
    """A uniform-ish random order peeling the rectangle corner by corner."""
    mu = [ncols] * nrows
    order = []
    while any(mu):
        corners = removable_corners(Partition(tuple(mu)))
        b = rng.choice(corners)
        order.append(Box(*b))
        mu[b.row - 1] -= 1
    return order


def _once(build):
    """A reader that calls `build()` on its first read only.  Later reads
    get the same result, or the same exception raised again, so a build
    that fails is not retried by every check that reads it."""
    outcome = []

    def read():
        if not outcome:
            try:
                outcome.append((build(), None))
            except Exception as exc:
                outcome.append((None, exc))
        value, exc = outcome[0]
        if exc is not None:
            raise exc
        return value

    return read


# Every suite takes (rect, seed, all_choices, all_diagonals, caps, table) and
# returns its cases in a fixed order.  Each case is a check that returns its
# first counterexample, or None when it passes, and `_case` runs it; checks
# that draw from the suite's rng run in case order, so reports are
# deterministic per seed.  `table()` reads the run's one orbit table, built
# on the first read by any suite, so a build that raises runs once and fails
# every check that reads the table instead of aborting the run.


def _suite_bijection(rect: Rectangle, seed: int, all_choices: bool, all_diagonals: bool, caps: dict, table: Callable[[], OrbitTable]) -> list[CaseResult]:
    n = rect.n
    # one promotion step subtracts 1 mod n from every diagonal residue,
    # i.e. it carries the tableau of w to the tableau of c o w
    c = promotion_cycle(n)

    # built by the first check that needs it, so a construction that raises
    # fails those checks instead of aborting the suite
    image = _once(lambda: {w: minimal_orbit_tableau(w, rect) for w in all_permutations(n)})

    def image_is_minimal():
        image_rows = {t.row_tuples() for t in image().values()}
        minimal = set(table().fixed_rows(n))
        if image_rows != minimal:
            return (
                f"image has {len(image_rows)} tableaux, enumeration gives {len(minimal)}; "
                f"symmetric difference size {len(image_rows ^ minimal)}"
            )

    def equivariant():
        tableaux = image()
        for w, t in tableaux.items():
            if promotion(t) != tableaux[right_multiply(c, w)]:
                return f"promotion(T_{w}) != T_{right_multiply(c, w)}"

    def round_trip():
        for w, t in image().items():
            got = invert(t)
            if got != w:
                return f"invert round trip failed: {w} -> {got}"

    def count_is_factorial():
        counts = table().counts
        if counts[n] != factorial(n):
            return f"counts[{n}] = {counts[n]} != {factorial(n)}"

    def non_minimal():
        t = table()
        flat = next((flat for flat, size in zip(t.reps, t.sizes) if n % size), None)
        return None if flat is None else _flat_rows(flat, rect.as_partition())

    def rejected():
        rows = non_minimal()
        if rows is None:
            return None
        try:
            got = invert(from_rows(rows))
        except NotMinimalOrbitError:
            return None
        except Exception as exc:
            return f"invert raised {exc!r} instead of NotMinimalOrbitError"
        return f"invert accepted a non-minimal tableau as {got}"

    cases = [
        _case(f"minimal-orbit-count-{n}!", count_is_factorial),
        _case("image-equals-minimal-orbits", image_is_minimal),
        _case("promotion-equivariance", equivariant),
        _case("invert-round-trip", round_trip),
    ]
    # left out when every orbit is minimal; a pass means the table was built
    # (and is cached), so a failed build is always listed
    last = _case("non-minimal-rejected", rejected)
    if last.status == "fail" or non_minimal() is not None:
        cases.append(last)
    return cases


def _suite_independence(rect: Rectangle, seed: int, all_choices: bool, all_diagonals: bool, caps: dict, table: Callable[[], OrbitTable]) -> list[CaseResult]:
    perms = _perm_sample(rect.n, seed)
    diagonals = enumerate_diagonals(rect) if all_diagonals else [staircase_diagonal(rect)]

    def forward_choices():
        for d in diagonals:
            choices = _choice_tableaux(d.lambda_minus, all_choices, caps)
            for w in perms:
                if len({forward_tableau(w, d, u) for u in choices}) != 1:
                    return f"forward construction depends on the choice for w={w}, diagonal {d.lambda_plus}"

    def reverse_choices():
        for d in diagonals:
            choices = _choice_tableaux(complement_shape(d.lambda_plus, rect), all_choices, caps)
            for w in perms:
                if len({reverse_tableau(w, d, rect, u) for u in choices}) != 1:
                    return f"reverse construction depends on the choice for w={w}, diagonal {d.lambda_plus}"

    def agreement():
        for d in diagonals:
            for w in perms:
                plus = forward_tableau(w, d)
                minus = reverse_tableau(w, d, rect)
                bad = next((b for b in d.boxes if plus[b] != minus[b]), None)
                if bad is not None:
                    return f"w={w}, diagonal {d.lambda_plus}: disagree at {bad}"

    def diagonal_independence():
        for w in perms:
            if len({minimal_orbit_tableau(w, rect, d) for d in diagonals}) != 1:
                return f"combined tableau depends on the diagonal for w={w}"

    return [
        _case("forward-choice-independence", forward_choices),
        _case("reverse-choice-independence", reverse_choices),
        _case("diagonal-agreement", agreement),
        _case("diagonal-independence", diagonal_independence),
    ]


def _suite_csp(rect: Rectangle, seed: int, all_choices: bool, all_diagonals: bool, caps: dict, table: Callable[[], OrbitTable]) -> list[CaseResult]:
    def at_one_is_total():
        total = table().total
        at_one = q_hook_polynomial(rect)(1)
        if at_one != total:
            return f"F(1) = {at_one} != {total} tableaux"

    def sieving(r):
        fixed = table().counts[r]
        try:
            val = q_hook_at_root(rect, r)
        except RuntimeError as exc:
            return str(exc)
        if val != fixed:
            return f"F(zeta^{r}) = {val} but {fixed} tableaux are fixed"

    return [
        _case("polynomial-at-one", at_one_is_total),
        *(_case(f"sieving-r={r}", partial(sieving, r)) for r in divisors(rect.ncells)),
    ]


def _suite_haiman(rect: Rectangle, seed: int, all_choices: bool, all_diagonals: bool, caps: dict, table: Callable[[], OrbitTable]) -> list[CaseResult]:
    total_cells = rect.ncells
    shape = rect.as_partition()

    def sizes_divide():
        t = table()
        for flat, size in zip(t.reps, t.sizes):
            if total_cells % size:
                return f"orbit of size {size} does not divide {total_cells}: {_flat_rows(flat, shape)}"

    def full_cycle():
        for flat in table().reps[:3]:
            rows = _flat_rows(flat, shape)
            t = cur = from_rows(rows)
            for _ in range(total_cells):
                cur = promotion(cur)
            if cur != t:
                return f"full-cycle promotion moved {rows}"

    def none_below_n():
        counts = table().counts
        for r in divisors(total_cells):
            if r < rect.n and counts[r]:
                return f"{counts[r]} tableaux fixed by {r}-fold promotion with r < n"

    return [
        _case("orbit-sizes-divide-cell-count", sizes_divide),
        _case("full-cycle-spot-check", full_cycle),
        _case("no-orbits-below-n", none_below_n),
    ]


def _suite_propositions(rect: Rectangle, seed: int, all_choices: bool, all_diagonals: bool, caps: dict, table: Callable[[], OrbitTable]) -> list[CaseResult]:
    n = rect.n
    length = 3 * n
    rng = random.Random(seed)
    perms = _perm_sample(n, seed)
    stair = staircase_diagonal(rect)
    rect_cols = rect if rect.ncols == n else rect.transposed()
    diags = enumerate_diagonals(rect_cols) if all_diagonals else [staircase_diagonal(rect_cols)]

    def reconstruction():
        for w in perms:
            run = box_sequence(inverse_word_sequence(w), stair)
            if tableau_from_box_sequence(run, stair) != forward_tableau(w, stair):
                return f"box-sequence reconstruction differs for w={w}"

    def box_order():
        for _ in range(50):
            sigma = tuple(rng.randint(1, n) for _ in range(length))
            run = box_sequence(sigma, stair, steps=length)
            for k in range(length - 1):
                if sigma[k] < sigma[k + 1] and not box_less(run.boxes[k], run.boxes[k + 1]):
                    return f"sigma={sigma}, k={k + 1}: ascent not transported"
                if sigma[k] > sigma[k + 1] and not box_less(run.boxes[k + 1], run.boxes[k]):
                    return f"sigma={sigma}, k={k + 1}: descent not transported"

    def equivariance(instances=200):
        # random strict-Knuth moves on the driving sequence must transport to
        # the box sequence and leave the displacement counts alone
        choices = [from_rows(rows) for rows in standard_tableaux(stair.lambda_minus, **caps)]
        done = attempts = 0
        # strict moves need 3 distinct letters: n < 3 has none, so the search
        # gives up and passes; at n >= 3 too few defined moves is a failure
        while done < instances and attempts < 50 * instances:
            attempts += 1
            sigma = tuple(rng.randint(1, n) for _ in range(length))
            k = rng.randint(1, length - 2)
            moved = strict_knuth(sigma, k)
            if moved is None:
                continue
            done += 1
            u = rng.choice(choices)
            run_a = box_sequence(sigma, stair, u, steps=length)
            run_b = box_sequence(moved, stair, u, steps=length)
            transported = strict_knuth(run_a.boxes, k, less=box_less)
            if transported is None:
                return f"sigma={sigma}, k={k}: move undefined on the box sequence"
            if tuple(transported) != run_b.boxes:
                return f"sigma={sigma}, k={k}: box sequences differ"
            if run_a.delta != run_b.delta:
                return f"sigma={sigma}, k={k}: delta changed"
        if n >= 3 and done < instances:
            return f"only {done} of {instances} strict-Knuth moves were defined"

    def descent_runs():
        for d in diags:
            for w in perms:
                run = box_sequence(descent_sequence(w), d)
                cols = column_sequence(sorted(descents(w), reverse=True), n, len(run.boxes))
                bad = next((k for k in range(len(run.boxes)) if run.boxes[k].col != cols[k]), None)
                if bad is not None:
                    return f"w={w}: box {bad + 1} lands in column {run.boxes[bad].col}, expected {cols[bad]}"
                delta = delta_closed_form(w, d.lambda_plus, n)
                if run.delta != delta:
                    return f"w={w}: delta {run.delta} != closed form {delta}"

    def cross_diagonal():
        if len(diags) < 2:
            return None
        steps = n * (max(d.lambda_minus.size for d in diags) + 1)
        inside = [frozenset(d.lambda_plus.cells()) for d in diags]
        for w in perms:
            runs = [box_sequence(descent_sequence(w), d, steps=steps).boxes for d in diags]
            for a, b in combinations(range(len(diags)), 2):
                for k, (ba, bb) in enumerate(zip(runs[a], runs[b]), start=1):
                    if ba != bb and bb in inside[a] and ba in inside[b]:
                        return f"w={w}, diagonals {a},{b}, step {k}: {ba} vs {bb}"

    def peeling():
        expected = {w: forward_tableau(w, stair) for w in perms[:6]}
        for _ in range(10):
            order = random_corner_peeling(rect.nrows, rect.ncols, rng)
            for w, t in expected.items():
                if forward_tableau_by_peeling(w, stair, order) != t:
                    return f"peeling order {order} differs for w={w}"

    def insertion_route():
        if rect.n_is_rows:
            for w in perms:
                if augmented_insertion_tableau(w, rect.m, stair.lambda_plus) != forward_tableau(w, stair):
                    return f"insertion route differs for w={w}"

    def periodic_words():
        seen: dict[tuple, Permutation] = {}
        pairs = []
        for w in all_permutations(min(n, 3)):
            key = insertion_tableau(w.inverse().oneline)
            if key in seen:
                pairs.append((seen[key], w))
            else:
                seen[key] = w
        for w1, w2 in pairs[:3]:
            verdict = bounded_equivalence(inverse_word_sequence(w1), inverse_word_sequence(w2), 4, budget=20_000, slack=4)
            if verdict.status != "proved":
                return f"{w1} ~ {w2} came back {verdict.status}"

    def descent_words():
        for w in _perm_sample(min(n, 3), seed):
            verdict = bounded_equivalence(inverse_word_sequence(w), descent_sequence(w), 4, budget=50_000, slack=4)
            if verdict.status != "proved":
                return f"descent sequence of {w} came back {verdict.status}"

    def row_strict_moves():
        words_checked = 0
        for word_length in (4, 5):
            for _ in range(200):
                word = tuple(rng.randint(1, 3) for _ in range(word_length))
                if not _prefixes_row_strict(word):
                    continue
                words_checked += 1
                cur = word
                for k in insertion_knuth_positions(word):
                    cur = strict_knuth(cur, k)
                    if cur is None:
                        return f"strict move {k} undefined replaying {word}"
                if cur != reading_word_of_rows(insertion_tableau(word)):
                    return f"replay of {word} missed the reading word"
        if not words_checked:
            return "no row-strict words sampled"

    return [
        _case("box-sequence-reconstruction", reconstruction),
        _case("box-order-transport", box_order),
        _case("strict-knuth-equivariance", equivariance),
        _case("descent-run-columns-and-delta", descent_runs),
        _case("cross-diagonal-compatibility", cross_diagonal),
        _case("corner-peeling-equivalence", peeling),
        _case("insertion-route", insertion_route),
        _case("periodic-word-equivalence", periodic_words),
        _case("descent-sequence-equivalence", descent_words),
        _case("row-strict-insertion-moves", row_strict_moves),
    ]


def _prefixes_row_strict(word) -> bool:
    for k in range(1, len(word) + 1):
        for row in insertion_tableau(word[:k]):
            if any(a >= b for a, b in zip(row, row[1:])):
                return False
    return True


SUITES = ("bijection", "independence", "csp", "haiman", "propositions")


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
    """Run one suite of `SUITES`, or all of them in that order for "all"
    (case names then carry a "<suite>." prefix).

    Each case records pass, or fail with the first counterexample its check
    found; a failing check becomes a report entry, never an exception, and
    a check that raises fails with `raised <repr>`.  The caps bound every
    enumeration a suite makes; exceeding one raises `EnumerationCapError`.
    Reports are deterministic for a fixed seed; a run's suites share one orbit table.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick from {', '.join(SUITES + ('all',))}")
    caps = {"max_cells": max_cells, "max_count": max_count}
    table = _once(partial(orbit_table, rect, **caps))
    cases: list[CaseResult] = []
    for name in SUITES if suite == "all" else (suite,):
        prefix = f"{name}." if suite == "all" else ""
        # looked up at call time, like `orbit_table` above, so a replaced
        # module attribute (a tracing wrapper, say) is the one that runs
        check = globals()[f"_suite_{name}"]
        for c in check(rect, seed, all_choices, all_diagonals, caps, table):
            cases.append(CaseResult(prefix + c.name, c.status, c.counterexample))
    return SuiteReport(suite, rect, cases)
