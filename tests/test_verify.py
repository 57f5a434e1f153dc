import dataclasses
import gc
import hashlib
import io
import itertools
import json
import math
import random
import sys
import tracemalloc
from types import SimpleNamespace

import pytest

from taquin.cli import main
from taquin.shapes import Box, Partition, Rectangle, SkewShape, enumerate_diagonals, parse_partition
from taquin.tableaux import from_rows, grid_size, promotion, to_grid
from taquin.orbits import NotMinimalOrbitError
from taquin.words import Permutation, descent_sequence, insertion_tableau
from taquin.sieving import (
    _cyclotomic,
    _poly_div_exact,
    _poly_divmod,
    count_standard_tableaux,
    divisors,
    hook_lengths,
    q_hook_at_root,
    q_hook_polynomial,
)
from taquin.sweep import (
    EnumerationCapError,
    OrbitTable,
    RankLaneError,
    _promote_flat,
    _ranked_halves,
    _slide_flat,
    _successor_ranks,
    _syt_halves,
    orbit_table,
    standard_tableaux,
)
from taquin.verify import (
    SUITES,
    CaseResult,
    _first_cross_conflict,
    _holders,
    _perm_sample,
    _prefixes_row_strict,
    _randints,
    random_corner_peeling,
    run_suite,
)


# -- independent oracles ---------------------------------------------------


def syt_count_by_recursion(shape):
    """Count standard tableaux by peeling corners, no hooks involved."""
    rows = tuple(shape.rows)
    memo = {}

    def count(t):
        if sum(t) == 0:
            return 1
        if t in memo:
            return memo[t]
        total = 0
        for i in range(len(t)):
            if t[i] and (i == len(t) - 1 or t[i] > t[i + 1]):
                s = t[:i] + (t[i] - 1,) + t[i + 1 :]
                total += count(tuple(x for x in s if x))
        memo[t] = total
        return total

    return count(rows)


def poly_eval_rational(coeffs, num, den):
    """Evaluate sum c_i x^i at x = num/den exactly, returning a fraction."""
    from fractions import Fraction

    x = Fraction(num, den)
    val = Fraction(0)
    for c in reversed(coeffs):
        val = val * x + c
    return val


def all_partitions_in_box(nrows, ncols):
    def rec(prefix, maxlen):
        yield tuple(prefix)
        start = prefix[-1] if prefix else ncols
        if len(prefix) == nrows:
            return
        for part in range(min(start, ncols), 0, -1):
            prefix.append(part)
            yield from rec(prefix, maxlen)
            prefix.pop()

    return [Partition(p) for p in rec([], nrows)]


def grid_code(rows):
    """The big-endian int of a tableau's slide grid: its rows, each led by
    one empty byte and followed by empty bytes up to the first row's
    length + 1, and one empty row below; the empty row above them is
    leading zero bytes, which add nothing to the int."""
    width = len(rows[0]) + 1 if rows else 1
    return int.from_bytes(b"".join(bytes((0, *row)).ljust(width, b"\0") for row in rows) + bytes(width), "big")


def syt_flats_by_recursion(shape):
    """Every standard filling as the int of its slide grid (see
    `grid_code`): entries placed 1..N, the topmost feasible row tried
    first.  Entries 1..N//3 are placed one recursive call per entry; the
    placements of the rest on top of each partition are listed once, as
    sums of per-entry byte terms, and reused by every prefix that reaches
    it."""
    rows, total = shape.rows, shape.size
    width = (rows[0] if rows else 0) + 1
    nbytes = width * (len(rows) + 2)
    starts = [(i + 1) * width + 1 for i in range(len(rows))]
    memo = {}
    out = []

    def grown(heights):
        # (cell, heights grown by that cell) for each feasible row, topmost first
        for i, h in enumerate(heights):
            if h < rows[i] and (i == 0 or heights[i - 1] > h):
                yield starts[i] + h, heights[:i] + (h + 1,) + heights[i + 1 :]

    def term(k, cell):
        return k << 8 * (nbytes - 1 - cell)

    def completions(heights):
        k = sum(heights) + 1
        if k > total:
            return [0]
        if heights not in memo:
            memo[heights] = listed = []
            for cell, up in grown(heights):
                listed.extend(map(term(k, cell).__add__, completions(up)))
        return memo[heights]

    def place(heights, k, code):
        if k > total // 3:
            out.extend(map(code.__add__, completions(heights)))
            return
        for cell, up in grown(heights):
            place(up, k + 1, code + term(k, cell))

    place((0,) * len(rows), 1, 0)
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def q_hook_by_dense_division(nrows, ncols):
    """[N]_q! as the product of the dense [k]_q, divided by each [hook]_q
    by exact long division (a remainder raises)."""
    shape = Partition((ncols,) * nrows)
    poly = [1]
    for k in range(1, shape.size + 1):
        poly = _poly_mul(poly, [1] * k)
    for h in hook_lengths(shape):
        poly = _poly_div_exact(poly, [1] * h)
    return tuple(poly)


def orbit_table_by_visited_bytes(rect):
    """The orbit sweep on whole tableaux: walk each tableau of the
    recursive enumerator, unvisited, around its orbit with the flat
    kernel, remembering every tableau seen as its grid int.  Returns the
    (representative, size) pairs, counts and total an `OrbitTable` holds,
    and for each divisor r the tableaux fixed by r-fold promotion, listed
    orbit by orbit from the representative."""
    visited = set()
    members = []
    count = 0
    for code in syt_flats_by_recursion(rect.as_partition()):
        count += 1
        if code in visited:
            continue
        orbit = [code]
        cur = _promote_flat(code, rect.nrows, rect.ncols)
        while cur != code:
            orbit.append(cur)
            cur = _promote_flat(cur, rect.nrows, rect.ncols)
        visited.update(orbit)
        members.append(orbit)
    orbits = [(orbit[0], len(orbit)) for orbit in members]
    counts = {r: sum(s for _, s in orbits if r % s == 0) for r in divisors(rect.ncells)}
    fixed = {r: [code for orbit in members if r % len(orbit) == 0 for code in orbit] for r in counts}
    return orbits, counts, count, fixed


# -- enumeration and counting -------------------------------------------------


def test_counts_match_hooks_and_recursion():
    for shape in all_partitions_in_box(4, 6):
        if shape.size > 16:
            continue
        assert count_standard_tableaux(shape) == syt_count_by_recursion(shape)


def test_enumeration_count_agrees_with_hooks_up_to_16_cells():
    for shape in all_partitions_in_box(4, 6):
        if shape.size > 16:
            continue
        assert sum(len(tails) for _, tails in _syt_halves(shape)) == count_standard_tableaux(shape)


def test_split_enumeration_matches_a_recursive_enumerator():
    shapes = [s for s in all_partitions_in_box(4, 6) if s.size <= 16] + [Partition((6, 6, 6))]
    for shape in shapes:
        assert [p + q for p, tails in _syt_halves(shape) for q in tails] == syt_flats_by_recursion(shape), shape


def test_enumeration_rows_agree_with_hooks_small():
    for shape in all_partitions_in_box(3, 4):
        if shape.size > 10:
            continue
        tableaux = list(standard_tableaux(shape))
        assert len(tableaux) == count_standard_tableaux(shape)
        # the rows read off the grid ints are the recursive enumerator's tableaux
        assert [grid_code(rows) for rows in tableaux] == syt_flats_by_recursion(shape), shape


def test_count_examples():
    assert count_standard_tableaux(parse_partition("444")) == 462
    assert count_standard_tableaux(parse_partition("21")) == 2
    for k in (1, 3, 7):
        assert count_standard_tableaux(Partition((k,))) == 1
    assert count_standard_tableaux(Partition((2, 2))) == 2
    assert count_standard_tableaux(Partition((5, 5, 5, 5))) == 1_662_804


def test_hook_lengths():
    assert sorted(hook_lengths(parse_partition("22"))) == [1, 2, 2, 3]
    assert hook_lengths(Partition((3,))) == [3, 2, 1]
    assert hook_lengths(Partition()) == []


def test_enumeration_is_deterministic_and_distinct():
    shape = parse_partition("332")
    first = list(standard_tableaux(shape))
    second = list(standard_tableaux(shape))
    assert first == second
    assert len(set(first)) == len(first) == count_standard_tableaux(shape)
    # placement order: filling row 1 first comes first
    assert first[0] == ((1, 2, 3), (4, 5, 6), (7, 8))


def test_enumeration_validity():
    for rows in standard_tableaux(parse_partition("3221")):
        flat = [v for row in rows for v in row]
        assert sorted(flat) == list(range(1, 9))
        for row in rows:
            assert list(row) == sorted(row)
        for a, b in zip(rows, rows[1:]):
            assert all(x < y for x, y in zip(a, b))


def test_enumeration_caps():
    with pytest.raises(EnumerationCapError):
        list(standard_tableaux(Partition((21,))))
    with pytest.raises(EnumerationCapError):
        list(standard_tableaux(parse_partition("444"), max_count=100))
    # explicit override allows it
    assert sum(1 for _ in standard_tableaux(Partition((21,)), max_cells=25)) == 1


@pytest.mark.parametrize("caps", [{"max_cells": -1}, {"max_count": -1}])
def test_negative_caps_are_bad_input_not_a_cap_exceeded(caps):
    # refused before any comparison, the 255-cell limit's included
    calls = [
        lambda: standard_tableaux(Partition((2, 2)), **caps),
        lambda: standard_tableaux(Partition((300,)), **caps),
        lambda: orbit_table(Rectangle(2, 2), **caps),
        lambda: run_suite(Rectangle(2, 2), "bijection", **caps),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^a cap must be at least 0, got -1$"):
            call()


def test_standard_tableaux_checks_caps_up_front_and_streams(monkeypatch):
    import taquin.sweep as sweep

    with pytest.raises(EnumerationCapError):
        standard_tableaux(parse_partition("5555"))  # raised by the call, nothing iterated
    # a grid byte numbers at most 255 entries, and no cap lifts that limit
    with pytest.raises(RankLaneError, match="300 cells exceed the 255-cell limit"):
        standard_tableaux(Partition((300,)), max_cells=400)
    pulled = []
    real = sweep._syt_halves

    def counting(shape):
        for half in real(shape):
            pulled.append(half)
            yield half

    monkeypatch.setattr(sweep, "_syt_halves", counting)
    it = standard_tableaux(parse_partition("5555"), max_count=2_000_000)
    assert next(it) == ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (11, 12, 13, 14, 15), (16, 17, 18, 19, 20))
    assert len(pulled) == 1


def test_sweep_ints_are_the_bytes_of_the_tableaux_grid():
    # the sweep and `to_grid` share one layout: a tableau's int is its grid's bytes
    for rows in ((2, 2, 2), (4, 4, 4), (5, 5), (3, 1), (4, 2, 1), (2, 2, 1), ()):
        shape = Partition(rows)
        _, length = grid_size(shape.nrows, shape.ncols)
        codes = [p + q for p, tails in _syt_halves(shape) for q in tails]
        tableaux = list(standard_tableaux(shape))
        assert len(codes) == len(tableaux) == count_standard_tableaux(shape), rows
        for code, t in zip(codes, tableaux):
            assert code.to_bytes(length, "big") == bytes(to_grid(SkewShape(shape), from_rows(t).entries)[0]), t


def test_empty_shape():
    assert list(standard_tableaux(Partition())) == [()]
    assert count_standard_tableaux(Partition()) == 1


# -- flat promotion lane --------------------------------------------------------


def test_flat_promotion_matches_object_promotion():
    for nrows, ncols in [(1, 1), (1, 4), (2, 2), (2, 3), (3, 3), (3, 4), (3, 2), (4, 2), (4, 3), (5, 1), (1, 6), (2, 5)]:
        shape = Partition((ncols,) * nrows)
        for rows in standard_tableaux(shape):
            got = _promote_flat(grid_code(rows), nrows, ncols)
            assert got == grid_code(promotion(from_rows(rows)).row_tuples()), rows


# every (nrows, ncols) with 2..16 cells, both orientations, and 3x6
HALF_STEP_DIMS = [(r, c) for r in range(1, 17) for c in range(1, 17) if 2 <= r * c <= 16] + [(3, 6)]


def test_rank_tables_number_the_tableaux_in_enumeration_order():
    for nrows, ncols in HALF_STEP_DIMS:
        shape = Partition((ncols,) * nrows)
        halves, offset, index = _ranked_halves(shape)
        pairs = [(p, q) for p, tails in halves for q in tails]
        # the halves add up to the grid ints of the tableaux, in enumeration order
        assert [p + q for p, q in pairs] == syt_flats_by_recursion(shape), (nrows, ncols)
        assert [offset[p] + index[q] for p, q in pairs] == list(range(len(pairs))), (nrows, ncols)


def test_half_slides_merge_into_the_promotion():
    # the lower half slides alone from cell (1, 1) to a corner c, the upper
    # half alone from c; merged on the grid, they are the promotion of
    # the whole tableau
    for nrows, ncols in HALF_STEP_DIMS:
        total = nrows * ncols
        half = total // 2
        nbytes = (nrows + 2) * (ncols + 1)
        halves, _, _ = _ranked_halves(Partition((ncols,) * nrows))
        for p, tails in halves:
            low, c = _slide_flat(p.to_bytes(nbytes, "big"), ncols, ncols + 2)
            assert low[c] == 0 and set(low) <= set(range(half)), (nrows, ncols, p)
            for q in tails:
                high, end = _slide_flat(q.to_bytes(nbytes, "big"), ncols, c)
                high[end] = total
                assert set(high) - {0} <= set(range(half, total + 1)), (nrows, ncols, p, q)
                assert not any(map(min, low, high)), (nrows, ncols, p, q)
                promoted = _promote_flat(p + q, nrows, ncols)
                assert int.from_bytes(bytes(map(max, low, high)), "big") == promoted, (nrows, ncols, p, q)


def test_successor_ranks_are_the_ranks_of_the_promoted_tableaux():
    for nrows, ncols in HALF_STEP_DIMS:
        shape = Partition((ncols,) * nrows)
        codes = syt_flats_by_recursion(shape)
        rank = {code: r for r, code in enumerate(codes)}
        nxt = _successor_ranks(nrows, ncols, *_ranked_halves(shape))
        assert list(nxt) == [rank[_promote_flat(code, nrows, ncols)] for code in codes], (nrows, ncols)


# -- orbit tables -----------------------------------------------------------------


def test_orbit_table_2x2():
    table = orbit_table(Rectangle(2, 2))
    assert table.total == 2
    assert table.counts == {1: 0, 2: 2, 4: 2}
    assert len(table.orbits) == 1 and table.orbits[0][1] == 2
    assert table.fixed_rows(2) == [((1, 2), (3, 4)), ((1, 3), (2, 4))]
    assert table.fixed_rows(1) == []


def test_orbit_table_invariants():
    for n, m in [(2, 3), (3, 3), (3, 4), (2, 4)]:
        rect = Rectangle(n, m)
        table = orbit_table(rect)
        assert table.total == count_standard_tableaux(rect.as_partition())
        assert sum(size for _, size in table.orbits) == table.total
        for _, size in table.orbits:
            assert rect.ncells % size == 0
        for r in divisors(rect.ncells):
            assert table.counts[r] == sum(size for _, size in table.orbits if r % size == 0)
            assert len(table.fixed_rows(r)) == table.counts[r]


def test_orbit_table_matches_the_visited_bytes_walk():
    # every grid of at most 18 cells: n_is_rows=False transposes the non-square ones
    rects = [
        Rectangle(n, m, rows)
        for n in range(1, 19)
        for m in range(n, 19)
        if n * m <= 18
        for rows in ((True,) if m == n else (True, False))
    ]
    assert Rectangle(1, 1) in rects and Rectangle(1, 18, False) in rects and Rectangle(3, 6, False) in rects
    for rect in rects:
        table = orbit_table(rect)
        orbits, counts, total, fixed = orbit_table_by_visited_bytes(rect)
        assert (list(zip(table.reps, table.sizes)), table.counts, table.total) == (orbits, counts, total), rect
        assert [(grid_code(rows), size) for rows, size in table.orbits] == orbits, rect
        for r in divisors(rect.ncells):
            assert [grid_code(rows) for rows in table.fixed_rows(r)] == fixed[r], (rect, r)


def test_orbit_table_runs_the_kernel_once_per_memo_miss(monkeypatch):
    # each prefix is slid once and each column entry once, whatever the
    # host's speed: a lost column memo would take 88,287 slides; and the
    # sweep slides only through `grid_slide`, once per flat slide
    import taquin.sweep as sweep

    calls = []
    slides = []
    real = sweep._slide_flat
    real_slide = sweep.grid_slide

    def counting(*args):
        calls.append(args)
        return real(*args)

    def counting_slide(*args, **kwargs):
        slides.append(args)
        return real_slide(*args, **kwargs)

    monkeypatch.setattr(sweep, "_slide_flat", counting)
    monkeypatch.setattr(sweep, "grid_slide", counting_slide)
    table = orbit_table(Rectangle(3, 6))
    assert table.total == 87_516 and len(table.orbits) == 4_896
    assert len(calls) == 2_643
    assert len(slides) == 2_643


def test_orbit_table_leaves_no_cyclic_garbage():
    # garbage in reference cycles waits for a full collection, so it would
    # show in the peak RSS of every process that builds a table
    gc.collect()
    gc.disable()
    try:
        table = orbit_table(Rectangle(3, 6))
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert table.total == 87_516


def test_orbit_table_peak_memory_at_3x6():
    # one flag byte per tableau: a set of the 87,516 visited ints takes about 12 MB
    tracemalloc.start()
    try:
        table = orbit_table(Rectangle(3, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.total == 87_516
    assert peak < 4_000_000, peak


def test_orbit_table_keeps_no_rows_at_3x6():
    # one representative grid int and one size per orbit stay alive: a
    # tuple of row tuples per orbit kept about 1.8 MB
    tracemalloc.start()
    try:
        table = orbit_table(Rectangle(3, 6))
        # freed objects parked in the interpreter's free lists are not kept
        gc.collect()
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current < 450_000, current
    assert table.total == 87_516


def test_orbit_table_minimal_count_is_factorial():
    for n, m in [(2, 2), (2, 3), (3, 3), (3, 4)]:
        table = orbit_table(Rectangle(n, m))
        assert table.counts[n] == math.factorial(n)


# -- q-hook polynomial -------------------------------------------------------------


def test_q_hook_polynomial_small():
    assert q_hook_polynomial(Rectangle(2, 2)).coeffs == (1, 0, 1)
    assert q_hook_polynomial(Rectangle(1, 2)).coeffs == (1,)
    poly = q_hook_polynomial(Rectangle(3, 4))
    assert poly(1) == 462
    assert all(c >= 0 for c in poly.coeffs)
    assert poly.degree == sum(range(1, 13)) - sum(hook_lengths(parse_partition("444")))


def test_q_hook_polynomial_matches_dense_division():
    # every rectangle of at most 30 cells; its transpose has the same hooks
    dims = [(r, c) for r in range(1, 31) for c in range(r, 31) if r * c <= 30]
    for nrows, ncols in dims:
        assert q_hook_polynomial(Rectangle(nrows, ncols)).coeffs == q_hook_by_dense_division(nrows, ncols), (nrows, ncols)


def test_poly_helpers():
    assert _poly_mul([1, 1], [1, 1]) == [1, 2, 1]
    assert _poly_div_exact([1, 2, 1], [1, 1]) == [1, 1]
    q, r = _poly_divmod([2, 0, 1], [1, 1])
    assert (q, r) == ([-1, 1], [3])
    with pytest.raises(ArithmeticError):
        _poly_div_exact([1, 1, 1], [1, 1])


def test_cyclotomic_polynomials():
    assert _cyclotomic(1) == (-1, 1)
    assert _cyclotomic(2) == (1, 1)
    assert _cyclotomic(4) == (1, 0, 1)
    assert _cyclotomic(6) == (1, -1, 1)
    assert _cyclotomic(12) == (1, 0, -1, 0, 1)
    # product over divisors rebuilds q^e - 1
    for e in (6, 12):
        prod = [1]
        for d in divisors(e):
            prod = _poly_mul(prod, list(_cyclotomic(d)))
        assert prod == [-1] + [0] * (e - 1) + [1]


def test_q_hook_at_root_2x2():
    rect = Rectangle(2, 2)
    assert q_hook_at_root(rect, 2) == 2  # value at -1
    assert q_hook_at_root(rect, 1) == 0  # value at i
    assert q_hook_at_root(rect, 4) == 2  # value at 1
    with pytest.raises(ValueError):
        q_hook_at_root(rect, 5)


def test_q_hook_at_root_against_complex_evaluation():
    import cmath

    for n, m in [(2, 3), (3, 3), (2, 4)]:
        rect = Rectangle(n, m)
        coeffs = q_hook_polynomial(rect).coeffs
        total = rect.ncells
        for r in divisors(total):
            z = cmath.exp(2j * cmath.pi * r / total)
            approx = sum(c * z**k for k, c in enumerate(coeffs))
            assert abs(approx - q_hook_at_root(rect, r)) < 1e-6


def test_csp_counts_match_polynomial():
    for n, m in [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]:
        rect = Rectangle(n, m)
        table = orbit_table(rect)
        for r in divisors(rect.ncells):
            assert table.counts[r] == q_hook_at_root(rect, r)


# -- suites -------------------------------------------------------------------------


def test_all_suites_pass_small():
    for n, m in [(2, 2), (2, 3), (3, 3)]:
        report = run_suite(Rectangle(n, m), "all", all_choices=True, all_diagonals=True)
        assert report.passed, report.format_text()


def test_suite_report_shape_and_determinism():
    r1 = run_suite(Rectangle(2, 3), "propositions", seed=5)
    r2 = run_suite(Rectangle(2, 3), "propositions", seed=5)
    assert r1.to_json_dict() == r2.to_json_dict()
    d = r1.to_json_dict()
    assert d["suite"] == "propositions"
    assert all(set(c) == {"name", "status", "counterexample"} for c in d["cases"])
    assert "cases ok" in r1.format_text()


def test_suite_validation():
    with pytest.raises(ValueError):
        run_suite(Rectangle(2, 2), "nonsense")
    with pytest.raises(ValueError):
        run_suite(Rectangle(3, 2), "bijection")


def test_random_corner_peeling_is_valid():
    rng = random.Random(0)
    for _ in range(10):
        order = random_corner_peeling(3, 4, rng)
        assert len(order) == 12
        remaining = [4, 4, 4]
        for b in order:
            assert remaining[b.row - 1] == b.col
            assert b.row == 3 or remaining[b.row] < b.col
            remaining[b.row - 1] -= 1


def test_row_strict_prefixes_in_one_pass_match_the_per_prefix_definition():
    def per_prefix(word):
        tableaux = (insertion_tableau(word[:k]) for k in range(1, len(word) + 1))
        return all(a < b for rows in tableaux for row in rows for a, b in zip(row, row[1:]))

    words = [w for length in range(8) for w in itertools.product((1, 2, 3), repeat=length)]
    assert len(words) == 3_280
    expected = [per_prefix(w) for w in words]
    assert [_prefixes_row_strict(w) for w in words] == expected
    assert 0 < sum(expected) < len(words)


# -- suite cases can fail --------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1701])
def test_randint_streams_make_the_draws_of_randint(seed):
    # two widths read in turn from one rng, three letters to one position,
    # as the strict-Knuth check reads them
    for top in range(1, 13):
        other = 13 - top
        expected, rng = random.Random(seed), random.Random(seed)
        letters, positions = _randints(rng, top), _randints(rng, other)
        for _ in range(40):
            assert tuple(itertools.islice(letters, 3)) == tuple(expected.randint(1, top) for _ in range(3))
            assert next(positions) == expected.randint(1, other)
        assert rng.getstate() == expected.getstate(), (seed, top)


def _pairwise_cross_conflict(runs, shapes):
    # the reference: every pair of runs, step by step
    inside = [frozenset(shape.cells()) for shape in shapes]
    for a, b in itertools.combinations(range(len(runs)), 2):
        for k, (ba, bb) in enumerate(zip(runs[a], runs[b]), start=1):
            if ba != bb and bb in inside[a] and ba in inside[b]:
                return a, b, k
    return None


def test_grouped_cross_conflict_matches_the_pairwise_loop_on_planted_runs():
    B = Box
    shapes = [Partition((2, 1)), Partition((1, 1)), Partition((2,)), Partition((2, 1)), Partition((3, 2, 1))]
    # (shapes, runs, first conflict)
    planted = [
        (shapes, [(B(1, 1),)] * 5, None),
        # two groups, neither run holds the other's box
        (shapes[1:3], [(B(2, 1),), (B(1, 2),)], None),
        # pairs tie at one step: (0, 1), (0, 2), (1, 3), (2, 3), ...
        (shapes, [(B(1, 1),), (B(2, 1),), (B(1, 2),), (B(1, 1),), (B(2, 1),)], (0, 1, 1)),
        # one pair conflicts at steps 1 and 3
        (shapes, [(B(1, 1), B(1, 1), B(1, 1)), (B(1, 1), B(1, 1), B(1, 1)), (B(1, 1), B(1, 1), B(1, 1)),
                  (B(2, 1), B(1, 1), B(1, 2)), (B(1, 1), B(1, 1), B(2, 2))], (0, 3, 1)),
        # (2, 3) at step 1, then the smaller pair (0, 1) at step 2
        (shapes, [(B(3, 1), B(1, 1)), (B(3, 1), B(2, 1)), (B(1, 1), B(3, 1)), (B(1, 2), B(3, 1)), (B(3, 1), B(3, 1))],
         (0, 1, 2)),
    ]
    for shapes, runs, first in planted:
        assert _pairwise_cross_conflict(runs, shapes) == first
        assert _first_cross_conflict(runs, _holders(shapes)) == first
    # random runs over the cells of a 3x3 square, few boxes so that pairs
    # and steps tie often
    rng = random.Random(20)
    cells = list(Partition((3, 3, 3)).cells())
    found = 0
    for _ in range(400):
        shapes = [Partition(tuple(sorted(rng.sample(range(1, 4), rng.randint(1, 3)), reverse=True))) for _ in range(rng.randint(2, 9))]
        pool, steps = rng.sample(cells, rng.randint(1, 4)), rng.randint(1, 8)
        runs = [tuple(rng.choice(pool) for _ in range(steps)) for _ in shapes]
        first = _pairwise_cross_conflict(runs, shapes)
        assert _first_cross_conflict(runs, _holders(shapes)) == first, (runs, shapes)
        found += first is not None
    assert 100 < found < 350, found


def test_cross_diagonal_case_reports_the_first_planted_conflict(monkeypatch):
    import taquin.verify as verify

    rect, n = Rectangle(3, 4), 3
    diags = enumerate_diagonals(rect.transposed())
    real = verify.box_sequence

    def planted(sigma, d, *args, steps=None, **kwargs):
        run = real(sigma, d, *args, steps=steps, **kwargs)
        if steps is None or not hasattr(sigma, "descents"):  # not the cross-diagonal case
            return run
        boxes, i = list(run.boxes), diags.index(d)
        if sigma.descents == (2,):  # w = 132 and 231: (0, 3) at step 2, then pairs tie at step 5
            boxes[1] = Box(1, 1 + (i == 3))
            boxes[4] = Box(1, 1 + i % 2)
        if sigma.descents == (1,):  # w = 213 and 312: would win, but come later
            boxes[1] = Box(1, 1 + (i == 1))
        return dataclasses.replace(run, boxes=tuple(boxes))

    monkeypatch.setattr(verify, "box_sequence", planted)
    steps = n * (max(d.lambda_minus.size for d in diags) + 1)
    expected = None
    for w in _perm_sample(n, 0):
        runs = [planted(descent_sequence(w), d, steps=steps).boxes for d in diags]
        first = _pairwise_cross_conflict(runs, [d.lambda_plus for d in diags])
        if first is not None:
            a, b, k = first
            expected = f"w={w}, diagonals {a},{b}, step {k}: {runs[a][k - 1]} vs {runs[b][k - 1]}"
            break
    assert expected == "w=132, diagonals 0,1, step 5: Box(row=1, col=1) vs Box(row=1, col=2)"
    report = run_suite(rect, "propositions", all_diagonals=True)
    failed = {c.name: c.counterexample for c in report.cases if c.status == "fail"}
    assert failed == {"cross-diagonal-compatibility": expected}


def _rotated(w):
    return Permutation(w.oneline[1:] + w.oneline[:1])


def _unknown_verdict(*args, **kwargs):
    return SimpleNamespace(status="unknown")


# (name patched in taquin.verify, replacement built from the real function,
#  {failing case: its first counterexample} for run_suite(Rectangle(3, 4), "all"))
BROKEN_DEPENDENCIES = [
    (
        "invert",
        lambda real: lambda t: Permutation((1, 2, 3)),
        {
            "bijection.invert-round-trip": "invert round trip failed: 132 -> 123",
            "bijection.non-minimal-rejected": "invert accepted a non-minimal tableau as 123",
        },
    ),
    (
        "promotion",
        lambda real: lambda t: t,
        {"bijection.promotion-equivariance": "promotion(T_123) != T_312"},
    ),
    (
        "reverse_tableau",
        lambda real: lambda w, *args: real(_rotated(w), *args),
        {"independence.diagonal-agreement": "w=123, diagonal 321: disagree at Box(row=3, col=1)"},
    ),
    (
        "q_hook_at_root",
        lambda real: lambda rect, r: real(rect, r) + 1,
        {
            "csp.sieving-r=1": "F(zeta^1) = 1 but 0 tableaux are fixed",
            "csp.sieving-r=2": "F(zeta^2) = 1 but 0 tableaux are fixed",
            "csp.sieving-r=3": "F(zeta^3) = 7 but 6 tableaux are fixed",
            "csp.sieving-r=4": "F(zeta^4) = 13 but 12 tableaux are fixed",
            "csp.sieving-r=6": "F(zeta^6) = 31 but 30 tableaux are fixed",
            "csp.sieving-r=12": "F(zeta^12) = 463 but 462 tableaux are fixed",
        },
    ),
    (
        "tableau_from_box_sequence",
        lambda real: lambda run, d: None,
        {"propositions.box-sequence-reconstruction": "box-sequence reconstruction differs for w=123"},
    ),
    (
        "box_less",
        lambda real: lambda a, b: False,
        {
            "propositions.box-order-transport": "sigma=(2, 2, 1, 2, 3, 2, 2, 2, 2), k=2: descent not transported",
            "propositions.strict-knuth-equivariance": "sigma=(1, 3, 2, 2, 3, 2, 1, 3, 1), k=1: move undefined on the box sequence",
        },
    ),
    (
        "column_sequence",
        lambda real: lambda descents, n, k: [1] * k,
        {"propositions.descent-run-columns-and-delta": "w=123: box 2 lands in column 2, expected 1"},
    ),
    (
        "delta_closed_form",
        lambda real: lambda w, lambda_plus: {},
        {"propositions.descent-run-columns-and-delta": "w=123: delta {1: 3, 2: 2, 3: 1} != closed form {}"},
    ),
    (
        "forward_tableau_by_peeling",
        lambda real: lambda w, diag, order: real(_rotated(w), diag, order),
        {
            "propositions.corner-peeling-equivalence": (
                "peeling order [Box(row=3, col=4), Box(row=2, col=4), Box(row=1, col=4), "
                "Box(row=3, col=3), Box(row=2, col=3), Box(row=3, col=2), Box(row=3, col=1), "
                "Box(row=2, col=2), Box(row=1, col=3), Box(row=2, col=1), Box(row=1, col=2), "
                "Box(row=1, col=1)] differs for w=123"
            )
        },
    ),
    (
        "augmented_insertion_tableau",
        lambda real: lambda w, m, shape: real(_rotated(w), m, shape),
        {"propositions.insertion-route": "insertion route differs for w=123"},
    ),
    (
        "bounded_equivalence",
        lambda real: _unknown_verdict,
        {
            "propositions.periodic-word-equivalence": "132 ~ 231 came back unknown",
            "propositions.descent-sequence-equivalence": "descent sequence of 123 came back unknown",
        },
    ),
    (
        "reading_word_of_rows",
        lambda real: lambda rows: (),
        {"propositions.row-strict-insertion-moves": "replay of (2, 1, 3, 2) missed the reading word"},
    ),
]


@pytest.mark.parametrize("name, broken, expected", BROKEN_DEPENDENCIES, ids=[row[0] for row in BROKEN_DEPENDENCIES])
def test_suite_cases_report_their_first_counterexample(monkeypatch, name, broken, expected):
    import taquin.verify as verify

    monkeypatch.setattr(verify, name, broken(getattr(verify, name)))
    report = run_suite(Rectangle(3, 4), "all")
    failed = {c.name: c.counterexample for c in report.cases if c.status == "fail"}
    assert failed == expected
    assert all(c.status == "pass" and c.counterexample is None for c in report.cases if c.name not in expected)
    assert len(report.cases) == 29 and not report.passed


def test_suite_reports_are_pinned_byte_for_byte():
    # every suite's report in 28 configurations, hashed as JSON: a change
    # to any case name, verdict or counterexample text shows here
    reports = [
        run_suite(Rectangle(n, m), "all", seed=seed, all_choices=on, all_diagonals=on).to_json_dict()
        for n, m in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4), (2, 5)]
        for on in (False, True)
        for seed in (0, 7)
    ]
    assert sum(len(report["cases"]) for report in reports) == 724
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == "48dec4022c8c3fea70bd2a54d888f600e79eb2f2426dbaeafc5959c422a84021"


def test_cli_output_is_pinned_byte_for_byte(monkeypatch, capsys):
    # `construct --format grid` for every permutation of 123456 at 6x10,
    # and `promote` by -25..25 steps in both formats of the 4x6 tableau of
    # every permutation of 1234, hashed: a change to a slide, a grid or
    # the printing of a tableau shows here
    construct = hashlib.sha256()
    for w in itertools.permutations("123456"):
        assert main(["construct", "--m", "10", "--w", "".join(w), "--format", "grid"]) == 0
        construct.update(capsys.readouterr().out.encode())
    promote = hashlib.sha256()
    for w in itertools.permutations("1234"):
        assert main(["construct", "--m", "6", "--w", "".join(w)]) == 0
        tw = capsys.readouterr().out
        for steps in range(-25, 26):
            for fmt in ("json", "grid"):
                monkeypatch.setattr(sys, "stdin", io.StringIO(tw))
                assert main(["promote", "--steps", str(steps), "--format", fmt]) == 0
                promote.update(capsys.readouterr().out.encode())
    assert construct.hexdigest() == "0c34c8cbd120798272d510cb527ced1b43d2ae004ba5dbc87221e74067434b9e"
    assert promote.hexdigest() == "568025bc693434b775aeaf05bf91da9be8941c0ba10502f53bc299a9525e3576"


def test_suite_case_names_in_order():
    report = run_suite(Rectangle(3, 4), "all", all_choices=True, all_diagonals=True)
    assert [c.name for c in report.cases] == [
        "bijection.minimal-orbit-count-3!",
        "bijection.image-equals-minimal-orbits",
        "bijection.promotion-equivariance",
        "bijection.invert-round-trip",
        "bijection.non-minimal-rejected",
        "independence.forward-choice-independence",
        "independence.reverse-choice-independence",
        "independence.diagonal-agreement",
        "independence.diagonal-independence",
        "csp.polynomial-at-one",
        "csp.sieving-r=1",
        "csp.sieving-r=2",
        "csp.sieving-r=3",
        "csp.sieving-r=4",
        "csp.sieving-r=6",
        "csp.sieving-r=12",
        "haiman.orbit-sizes-divide-cell-count",
        "haiman.full-cycle-spot-check",
        "haiman.no-orbits-below-n",
        "propositions.box-sequence-reconstruction",
        "propositions.box-order-transport",
        "propositions.strict-knuth-equivariance",
        "propositions.descent-run-columns-and-delta",
        "propositions.cross-diagonal-compatibility",
        "propositions.corner-peeling-equivalence",
        "propositions.insertion-route",
        "propositions.periodic-word-equivalence",
        "propositions.descent-sequence-equivalence",
        "propositions.row-strict-insertion-moves",
    ]
    assert report.passed


def test_fixed_rows_are_the_tableaux_fixed_by_promotion():
    rect = Rectangle(3, 3)
    table = orbit_table(rect)
    everything = [from_rows(rows) for rows in standard_tableaux(rect.as_partition())]
    for r in divisors(rect.ncells):
        fixed = set()
        for t in everything:
            cur = t
            for _ in range(r):
                cur = promotion(cur)
            if cur == t:
                fixed.add(t.row_tuples())
        got = table.fixed_rows(r)
        assert len(got) == len(set(got)) and set(got) == fixed


def test_suites_read_no_rows(monkeypatch):
    rects = [Rectangle(3, 4), Rectangle(2, 2), Rectangle(1, 1)]
    expected = [run_suite(rect, "all").to_json_dict() for rect in rects]

    def rows_read(table):
        raise AssertionError("a suite read OrbitTable.orbits")

    monkeypatch.setattr(OrbitTable, "orbits", property(rows_read))
    assert [run_suite(rect, "all").to_json_dict() for rect in rects] == expected


def test_table_cases_report_the_rows_of_the_orbit_they_name(monkeypatch):
    import taquin.verify as verify

    # a hand-made 2x3 table: size 3 does not divide n = 2, size 4 does not
    # divide N = 6
    rect = Rectangle(2, 3)
    rows = [((1, 3, 5), (2, 4, 6)), ((1, 2, 4), (3, 5, 6))]
    reps = [grid_code(t) for t in rows]
    table = OrbitTable(rect, reps, [3, 4], {1: 0, 2: 0, 3: 3, 6: 3}, 7)
    inverted = []

    def accept(t):
        inverted.append(t.row_tuples())
        return Permutation((2, 1))

    monkeypatch.setattr(verify, "invert", accept)
    other = from_rows([[1, 2, 3], [4, 5, 6]])
    monkeypatch.setattr(verify, "promotion", lambda t: other)
    caps = {"max_cells": 20, "max_count": 1_000_000}

    def failed(suite):
        return {c.name: c.counterexample for c in suite(rect, 0, False, False, caps, lambda: table) if c.status == "fail"}

    assert failed(verify._suite_haiman) == {
        "orbit-sizes-divide-cell-count": "orbit of size 4 does not divide 6: ((1, 2, 4), (3, 5, 6))",
        "full-cycle-spot-check": "full-cycle promotion moved ((1, 3, 5), (2, 4, 6))",
    }
    assert failed(verify._suite_bijection) == {
        "minimal-orbit-count-2!": "counts[2] = 0 != 2",
        "image-equals-minimal-orbits": "image has 2 tableaux, enumeration gives 0; symmetric difference size 2",
        "promotion-equivariance": "promotion(T_12) != T_21",
        "invert-round-trip": "invert round trip failed: 12 -> 21",
        "non-minimal-rejected": "invert accepted a non-minimal tableau as 21",
    }
    # the round trip stops at T_12; the rejection case inverts the orbit of size 3
    assert inverted == [((1, 2, 4), (3, 5, 6)), rows[0]]


def test_non_minimal_rejected_accepts_only_the_documented_error(monkeypatch):
    import taquin.verify as verify

    real = verify.invert

    def crash_on_non_minimal(t):
        try:
            return real(t)
        except NotMinimalOrbitError:
            raise RuntimeError("boom") from None

    monkeypatch.setattr(verify, "invert", crash_on_non_minimal)
    report = run_suite(Rectangle(2, 3), "bijection")
    failed = {c.name: c.counterexample for c in report.cases if c.status == "fail"}
    assert failed == {"non-minimal-rejected": "invert raised RuntimeError('boom') instead of NotMinimalOrbitError"}


def test_strict_knuth_equivariance_fails_when_no_move_is_defined(monkeypatch):
    import taquin.verify as verify

    monkeypatch.setattr(verify, "strict_knuth", lambda *args, **kwargs: None)
    case = "strict-knuth-equivariance"
    report = run_suite(Rectangle(3, 4), "propositions")
    failed = {c.name: c.counterexample for c in report.cases if c.status == "fail"}
    assert failed[case] == "only 0 of 200 strict-Knuth moves were defined"
    # n <= 2 has no strict-Knuth moves to check, so the case still passes
    for rect in (Rectangle(1, 3), Rectangle(2, 3)):
        statuses = {c.name: c.status for c in run_suite(rect, "propositions").cases}
        assert statuses[case] == "pass"


def test_a_check_that_raises_is_a_failing_case(monkeypatch):
    import taquin.verify as verify

    def broken(t):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "invert", broken)
    report = run_suite(Rectangle(2, 3), "bijection")
    assert [c.name for c in report.cases] == [
        "minimal-orbit-count-2!",
        "image-equals-minimal-orbits",
        "promotion-equivariance",
        "invert-round-trip",
        "non-minimal-rejected",
    ]
    failed = {c.name: c.counterexample for c in report.cases if c.status == "fail"}
    assert failed == {
        "invert-round-trip": "raised RuntimeError('boom')",
        "non-minimal-rejected": "invert raised RuntimeError('boom') instead of NotMinimalOrbitError",
    }


def test_bijection_suite_reports_when_the_construction_raises(monkeypatch):
    import taquin.verify as verify

    def broken(w, rect):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "minimal_orbit_tableau", broken)
    report = run_suite(Rectangle(2, 3), "bijection")
    failed = {c.name: c.counterexample for c in report.cases if c.status == "fail"}
    assert failed == {
        "image-equals-minimal-orbits": "raised RuntimeError('boom')",
        "promotion-equivariance": "raised RuntimeError('boom')",
        "invert-round-trip": "raised RuntimeError('boom')",
    }
    statuses = {c.name: c.status for c in report.cases}
    assert statuses["minimal-orbit-count-2!"] == statuses["non-minimal-rejected"] == "pass"


def test_a_table_build_that_raises_fails_the_cases_that_read_it(monkeypatch):
    import taquin.sweep as sweep

    def broken(flat, ncols, start):
        raise RuntimeError("boom")

    monkeypatch.setattr(sweep, "_slide_flat", broken)
    raised = "raised RuntimeError('boom')"
    failed = {}
    for suite in ("bijection", "csp", "haiman"):
        report = run_suite(Rectangle(2, 3), suite)
        failed[suite] = {c.name: c.counterexample for c in report.cases if c.status == "fail"}
    assert failed == {
        "bijection": {
            "minimal-orbit-count-2!": raised,
            "image-equals-minimal-orbits": raised,
            "non-minimal-rejected": raised,
        },
        "csp": {"polynomial-at-one": raised, **{f"sieving-r={r}": raised for r in divisors(6)}},
        "haiman": {
            "orbit-sizes-divide-cell-count": raised,
            "full-cycle-spot-check": raised,
            "no-orbits-below-n": raised,
        },
    }


def test_a_failed_table_build_runs_once_per_suite(monkeypatch):
    import taquin.sweep as sweep
    import taquin.verify as verify

    def broken(flat, ncols, start):
        raise RuntimeError("boom")

    rect = Rectangle(3, 4)
    clean = {suite: run_suite(rect, suite) for suite in ("bijection", "csp", "haiman")}
    builds = []
    real = verify.orbit_table

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sweep, "_slide_flat", broken)
    monkeypatch.setattr(verify, "orbit_table", counting)
    raised = "raised RuntimeError('boom')"
    # the bijection checks that only construct and invert do not read the table
    unread = {"promotion-equivariance", "invert-round-trip"}
    for suite, report in clean.items():
        builds.clear()
        got = run_suite(rect, suite)
        assert len(builds) == 1, suite
        assert [c.name for c in got.cases] == [c.name for c in report.cases], suite
        assert {c.name: (c.status, c.counterexample) for c in got.cases} == {
            c.name: (c.status, c.counterexample) if c.name in unread else ("fail", raised) for c in report.cases
        }, suite


def test_a_run_builds_one_table_for_every_suite(monkeypatch):
    import taquin.sweep as sweep
    import taquin.verify as verify

    def broken(flat, ncols, start):
        raise RuntimeError("boom")

    rect = Rectangle(3, 4)
    builds = []
    real = verify.orbit_table

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "orbit_table", counting)
    clean = run_suite(rect, "all")
    assert builds == [(rect,)] and clean.passed
    builds.clear()
    monkeypatch.setattr(sweep, "_slide_flat", broken)
    got = run_suite(rect, "all")
    # the one failed build fails every case that reads the table, in all
    # three suites, with the same exception
    assert builds == [(rect,)]
    raised = "raised RuntimeError('boom')"
    unread = {"bijection.promotion-equivariance", "bijection.invert-round-trip"}
    reads = {c.name for c in clean.cases if c.name.startswith(("bijection.", "csp.", "haiman.")) and c.name not in unread}
    assert len(reads) == 13
    assert [c.name for c in got.cases] == [c.name for c in clean.cases]
    assert {c.name: (c.status, c.counterexample) for c in got.cases} == {
        c.name: ("fail", raised) if c.name in reads else (c.status, c.counterexample) for c in clean.cases
    }


@pytest.mark.parametrize("rect", [Rectangle(2, 3), Rectangle(3, 4), Rectangle(3, 6)], ids=lambda r: f"{r.n}x{r.m}")
def test_all_is_the_single_suites_in_order(rect):
    report = run_suite(rect, "all", all_diagonals=True)
    singles = [
        CaseResult(f"{suite}.{c.name}", c.status, c.counterexample)
        for suite in SUITES
        for c in run_suite(rect, suite, all_diagonals=True).cases
    ]
    assert report.cases == singles
    assert report.passed


def test_caps_reach_every_enumeration():
    report = run_suite(Rectangle(1, 22), "all", all_choices=True, all_diagonals=True, max_cells=22)
    assert report.passed and len(report.cases) == 26


def test_perm_sample_picks_by_rank_without_listing_s_n(monkeypatch):
    import taquin.verify as verify

    def listing_sample(n, seed, limit=24):
        perms = list(itertools.permutations(range(1, n + 1)))
        if len(perms) <= limit:
            return perms
        return random.Random(seed).sample(perms, limit)

    for n in range(1, 8):
        for seed in (0, 1, 7, 2024):
            assert [w.oneline for w in verify._perm_sample(n, seed)] == listing_sample(n, seed)

    def never(n):
        raise AssertionError("S_n was listed")

    monkeypatch.setattr(verify, "all_permutations", never)
    sample = verify._perm_sample(12, 3)
    assert len(sample) == 24 and len(set(sample)) == 24 and all(w.n == 12 for w in sample)
