"""Brute-force verification: named check suites over the constructions,
the promotion orbit sweep (`sweep`) and the cyclic sieving counts
(`sieving`).

The check suites are listed in `SUITES`.  Each is a list of named cases;
a case is a check that returns its first counterexample (None when it
passes), and `run_suite` reports pass or fail with that counterexample; a
check that raises fails with the exception as its counterexample.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, compress, islice
from math import factorial
from typing import Callable

from .shapes import (
    Box,
    Partition,
    Rectangle,
    complement_shape,
    enumerate_diagonals,
    removable_corners,
    staircase_diagonal,
)
from .tableaux import PartialTableau, from_rows, promotion
from .orbits import (
    NotMinimalOrbitError,
    augmented_insertion_tableau,
    forward_tableau,
    invert,
    minimal_orbit_tableau,
    reverse_tableau,
)
from .words import (
    Permutation,
    all_permutations,
    insertion_tableau,
    promotion_cycle,
    right_multiply,
)
from .sequences import (
    bounded_equivalence,
    box_less,
    box_sequence,
    choice_grids,
    column_sequence,
    delta_closed_form,
    descent_sequence,
    descents,
    forward_tableau_by_peeling,
    insertion_knuth_positions,
    inverse_word_sequence,
    reading_word_of_rows,
    strict_knuth,
    tableau_from_box_sequence,
)
from .sieving import divisors, q_hook_at_root, q_hook_polynomial
from .sweep import MAX_COUNT, EnumerationCapError, OrbitTable, check_cap, orbit_table, standard_tableaux


# -- named check suites ---------------------------------------------------


PERM_SAMPLE = 24  # the permutations a check draws from S_n
KNUTH_MOVES = 200  # the strict-Knuth moves strict-knuth-equivariance makes


@dataclass
class CaseResult:
    name: str
    counterexample: str | None = None

    @property
    def status(self) -> str:
        return "pass" if self.counterexample is None else "fail"


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
        lines = [f"PASS {c.name}" if c.status == "pass" else f"FAIL {c.name}: {c.counterexample}" for c in self.cases]
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
    return CaseResult(name, counterexample)


def _perm_sample(n: int, seed: int) -> list[Permutation]:
    """All of S_n in lexicographic order if it has at most PERM_SAMPLE
    elements, else PERM_SAMPLE of them drawn by rank; S_n is never listed."""
    total = factorial(n)
    ranks = range(total) if total <= PERM_SAMPLE else random.Random(seed).sample(range(total), PERM_SAMPLE)
    out = []
    for rank in ranks:
        letters = list(range(1, n + 1))
        oneline = []
        for k in range(n - 1, -1, -1):
            index, rank = divmod(rank, factorial(k))
            oneline.append(letters.pop(index))
        out.append(Permutation(tuple(oneline)))
    return out


def _choice_tableaux(shape: Partition) -> list[PartialTableau]:
    """The column superstandard filling of `shape`, or none for a shape of
    one row or one column: there it is the row superstandard filling,
    whose slide order the constructions take by default."""
    if shape.nrows <= 1 or shape.ncols <= 1:
        return []
    before = list(accumulate(map(shape.col_len, range(1, shape.ncols)), initial=0))
    return [from_rows([[before[c] + r for c in range(length)] for r, length in enumerate(shape.rows, start=1)])]


def random_corner_peeling(nrows: int, ncols: int, rng: random.Random) -> list:
    """A uniform-ish random order peeling the rectangle corner by corner."""
    mu, order = [ncols] * nrows, []
    while any(mu):
        order.append(rng.choice(removable_corners(Partition(tuple(mu)))))
        mu[order[-1].row - 1] -= 1
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


# Every suite takes (rect, seed, all_choices, all_diagonals, max_count,
# table) and returns its cases in a fixed order.  Each case is a check that
# returns its first counterexample, or None when it passes, and `_case` runs
# it; checks that draw from the suite's rng run in case order, so reports
# are deterministic per seed.  `table()` reads the run's one orbit table,
# built on the first read by any suite, so a build that raises runs once and
# fails every check that reads the table instead of aborting the run.


def _suite_bijection(rect: Rectangle, seed: int, all_choices: bool, all_diagonals: bool, max_count: int, table: Callable[[], OrbitTable]) -> list[CaseResult]:
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
        k = next((k for k, size in enumerate(t.sizes) if n % size), None)
        return None if k is None else t.rep_rows(k)

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


def _suite_independence(rect: Rectangle, seed: int, all_choices: bool, all_diagonals: bool, max_count: int, table: Callable[[], OrbitTable]) -> list[CaseResult]:
    perms = _perm_sample(rect.n, seed)
    diagonals = enumerate_diagonals(rect) if all_diagonals else [staircase_diagonal(rect)]
    halves: dict[tuple, PartialTableau] = {}

    def default_half(w, d, outer):
        # the forward half of T_w along d when outer is None, else the
        # reverse one, in the default slide order, which is the row
        # superstandard filling's order: built on the first read, so the
        # agreement case and the superstandard pair of each choice case
        # share one construction per (w, d); a build that raises is not
        # kept, and raises again for the next case that reads it
        key = w, d, outer
        if key not in halves:
            halves[key] = forward_tableau(w, d) if outer is None else reverse_tableau(w, d, rect)
        return halves[key]

    def choice_independence(direction, outer):
        # the construction forward when outer is None: over every choice
        # tableau by one walk, or else over the superstandard pair, whose
        # column filling alone is built here
        for d in diagonals:
            if all_choices:
                results = lambda w: choice_grids(w, d, outer, max_count=max_count)
            else:
                columns = _choice_tableaux(d.lambda_minus if outer is None else complement_shape(d.lambda_plus, rect))
                build = lambda w, u: forward_tableau(w, d, u) if outer is None else reverse_tableau(w, d, rect, u)
                results = lambda w: {default_half(w, d, outer), *(build(w, u) for u in columns)}
            w = next((w for w in perms if len(results(w)) > 1), None)
            if w is not None:
                return f"{direction} construction depends on the choice for w={w}, diagonal {d.lambda_plus}"

    def agreement():
        for d in diagonals:
            for w in perms:
                plus = default_half(w, d, None)
                minus = default_half(w, d, rect)
                bad = next((b for b in d.boxes if plus[b] != minus[b]), None)
                if bad is not None:
                    return f"w={w}, diagonal {d.lambda_plus}: disagree at {bad}"

    def diagonal_independence():
        for w in perms:
            if len({minimal_orbit_tableau(w, rect, d) for d in diagonals}) != 1:
                return f"combined tableau depends on the diagonal for w={w}"

    return [
        _case("forward-choice-independence", partial(choice_independence, "forward", None)),
        _case("reverse-choice-independence", partial(choice_independence, "reverse", rect)),
        _case("diagonal-agreement", agreement),
        _case("diagonal-independence", diagonal_independence),
    ]


def _suite_csp(rect: Rectangle, seed: int, all_choices: bool, all_diagonals: bool, max_count: int, table: Callable[[], OrbitTable]) -> list[CaseResult]:
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


def _suite_haiman(rect: Rectangle, seed: int, all_choices: bool, all_diagonals: bool, max_count: int, table: Callable[[], OrbitTable]) -> list[CaseResult]:
    total_cells = rect.ncells

    def sizes_divide():
        t = table()
        for k, size in enumerate(t.sizes):
            if total_cells % size:
                return f"orbit of size {size} does not divide {total_cells}: {t.rep_rows(k)}"

    def full_cycle():
        t = table()
        for k in range(min(3, len(t.sizes))):
            rows = t.rep_rows(k)
            first = cur = from_rows(rows)
            for _ in range(total_cells):
                cur = promotion(cur)
            if cur != first:
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


def _suite_propositions(rect: Rectangle, seed: int, all_choices: bool, all_diagonals: bool, max_count: int, table: Callable[[], OrbitTable]) -> list[CaseResult]:
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
        letters = _randints(rng, n)
        for _ in range(50):
            sigma = tuple(islice(letters, length))
            run = box_sequence(sigma, stair, steps=length)
            for k in range(length - 1):
                if sigma[k] < sigma[k + 1] and not box_less(run.boxes[k], run.boxes[k + 1]):
                    return f"sigma={sigma}, k={k + 1}: ascent not transported"
                if sigma[k] > sigma[k + 1] and not box_less(run.boxes[k + 1], run.boxes[k]):
                    return f"sigma={sigma}, k={k + 1}: descent not transported"

    def equivariance():
        # KNUTH_MOVES random strict-Knuth moves on the driving sequence must
        # transport to the box sequence and leave the displacement counts alone
        # strict moves need 3 distinct letters: n < 3 has none to check, and
        # at n >= 3 too few defined moves is a failure
        if n < 3:
            return None
        choices = [from_rows(rows) for rows in standard_tableaux(stair.lambda_minus, max_count=max_count)]
        letters, positions = _randints(rng, n), _randints(rng, length - 2)
        done = attempts = 0
        while done < KNUTH_MOVES and attempts < 50 * KNUTH_MOVES:
            attempts += 1
            sigma = tuple(islice(letters, length))
            k = next(positions)
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
        if done < KNUTH_MOVES:
            return f"only {done} of {KNUTH_MOVES} strict-Knuth moves were defined"

    def descent_runs():
        for d in diags:
            for w in perms:
                run = box_sequence(descent_sequence(w), d)
                cols = column_sequence(sorted(descents(w), reverse=True), n, len(run.boxes))
                bad = next((k for k in range(len(run.boxes)) if run.boxes[k].col != cols[k]), None)
                if bad is not None:
                    return f"w={w}: box {bad + 1} lands in column {run.boxes[bad].col}, expected {cols[bad]}"
                delta = delta_closed_form(w, d.lambda_plus)
                if run.delta != delta:
                    return f"w={w}: delta {run.delta} != closed form {delta}"

    def cross_diagonal():
        if len(diags) < 2:
            return None
        steps = n * (max(d.lambda_minus.size for d in diags) + 1)
        holds = _holders([d.lambda_plus for d in diags])
        for w in perms:
            runs = [box_sequence(descent_sequence(w), d, steps=steps).boxes for d in diags]
            conflict = _first_cross_conflict(runs, holds)
            if conflict is not None:
                a, b, k = conflict
                return f"w={w}, diagonals {a},{b}, step {k}: {runs[a][k - 1]} vs {runs[b][k - 1]}"

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
        letters = _randints(rng, 3)
        for word_length in (4, 5):
            for _ in range(200):
                word = tuple(islice(letters, word_length))
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


def _randints(rng: random.Random, top: int):
    """An endless stream of `rng.randint(1, top)` draws, drawn lazily.

    `randint` draws top.bit_length() bits until they fall below top; the
    stream makes exactly those `getrandbits` calls, in C-level iterators,
    so a check reading it sees the numbers `randint` would have given, and
    streams of several widths on one rng may be read in any interleaving."""
    return map((1).__add__, filter(top.__gt__, iter(partial(rng.getrandbits, top.bit_length()), None)))


def _holders(shapes: list[Partition]) -> dict[Box, int]:
    """Map each box of the shapes to the bit mask of the shapes holding it."""
    holds: dict[Box, int] = {}
    for i, shape in enumerate(shapes):
        for box in shape.cells():
            holds[box] = holds.get(box, 0) | 1 << i
    return holds


def _first_cross_conflict(runs: list[tuple[Box, ...]], holds: dict[Box, int]) -> tuple[int, int, int] | None:
    """The lexicographically first (a, b, k), a < b, where runs a and b (all
    of one length) sit at different boxes at step k (from 1) and each box
    lies in the other run's shape (bit a of `holds[box]`), or None.

    At step k the runs fall into groups by box, and two runs of one group
    never conflict.  Runs a in group x and b in group y conflict exactly
    when a holds y and b holds x, so the first pair between the two groups
    is formed by the first run of x that holds y and the first run of y
    that holds x, in either order."""
    bits = [1 << i for i in range(len(runs))]
    steps = len(runs[0]) if runs else 0
    # a step's boxes are a slice of the runs laid end to end: `zip(*runs)`
    # would make a tuple per step, and CPython 3.11 parks every freed tuple
    # of 20 items (the run count at 3x6) on a free list it never reuses
    flat = list(chain.from_iterable(runs))
    first = None
    for k in range(1, steps + 1):
        boxes = flat[k - 1 :: steps]
        distinct = dict.fromkeys(boxes)
        if len(distinct) < 2:
            continue
        # per box: the runs at it and the runs whose shape holds it
        groups = [(sum(compress(bits, map(x.__eq__, boxes))), holds.get(x, 0)) for x in distinct]
        for i, (in_x, holds_x) in enumerate(groups):
            for in_y, holds_y in groups[i + 1 :]:
                a, b = in_x & holds_y, in_y & holds_x
                if a and b:
                    a, b = sorted(((a & -a).bit_length() - 1, (b & -b).bit_length() - 1))
                    if first is None or (a, b, k) < first:
                        first = a, b, k
    return first


def _prefixes_row_strict(word) -> bool:
    """Whether the insertion tableau of every prefix of `word` has strictly
    increasing rows, from one row insertion of the word by the rule of
    `insertion_tableau`.  The rows are strict before each letter, so a row
    turns weak exactly when a letter lands next to an equal entry."""
    rows: list[list[int]] = []
    for x in word:
        for row in rows:
            pos = bisect_right(row, x)
            if pos and row[pos - 1] == x:
                return False
            if pos == len(row):
                row.append(x)
                break
            row[pos], x = x, row[pos]
        else:
            rows.append([x])
    return True


SUITES = ("bijection", "independence", "csp", "haiman", "propositions")


def run_suite(
    rect: Rectangle,
    suite: str,
    *,
    seed: int = 0,
    all_choices: bool = False,
    all_diagonals: bool = False,
    max_count: int = MAX_COUNT,
) -> SuiteReport:
    """Run one suite of `SUITES`, or all of them in that order for "all"
    (case names then carry a "<suite>." prefix).

    Each case records pass, or fail with the first counterexample its check
    found; a failing check becomes a report entry, never an exception, and
    a check that raises fails with `raised <repr>`.  `all_choices` checks
    every choice tableau by one walk over slide states (`choice_grids`),
    not only the row and column superstandard ones.  `max_count` caps the
    tableaux of every enumeration a suite makes and the choice tableaux
    that walk covers; exceeding it raises `EnumerationCapError`.
    Reports are deterministic for a fixed seed; a run's suites share one orbit table.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick from {', '.join(SUITES + ('all',))}")
    check_cap(max_count)
    table = _once(partial(orbit_table, rect, max_count=max_count))
    cases: list[CaseResult] = []
    for name in SUITES if suite == "all" else (suite,):
        prefix = f"{name}." if suite == "all" else ""
        # looked up at call time, like `orbit_table` above, so a replaced
        # module attribute (a tracing wrapper, say) is the one that runs
        check = globals()[f"_suite_{name}"]
        for c in check(rect, seed, all_choices, all_diagonals, max_count, table):
            cases.append(CaseResult(prefix + c.name, c.counterexample))
    return SuiteReport(suite, rect, cases)
