"""Acceptance batteries: one test per criterion, each checked exactly and
timed against its runtime budget.  Run with `pytest tests/test_acceptance.py -s`
to see one PASS line per criterion.
"""

import math
import random
import time

import pytest

from taquin.orbits import (
    box_sequence,
    column_sequence,
    delta_closed_form,
    forward_tableau,
    invert,
    minimal_orbit_tableau,
    reverse_tableau,
    augmented_insertion_tableau,
    tableau_from_box_sequence,
)
from taquin.shapes import (
    Diagonal,
    Rectangle,
    box_less,
    enumerate_diagonals,
    parse_partition,
    staircase_diagonal,
)
from taquin.tableaux import from_rows, is_standard_normalized, promotion, promotion_order
from taquin.sieving import (
    _root_value_by_pairing,
    _root_value_by_reduction,
    divisors,
    hook_lengths,
    q_hook_at_root,
)
from taquin.sweep import orbit_table, standard_tableaux
from taquin.words import (
    all_permutations,
    descent_sequence,
    descents,
    inverse_word_sequence,
    parse_permutation,
    promotion_cycle,
    right_multiply,
    strict_knuth,
)

W3142 = parse_permutation("3142")
DIAG_5431 = Diagonal(parse_partition("5431"))
CHOICE_4x6 = from_rows([[1, 3, 6, 7], [2, 4, 9], [5, 8]])

FORWARD_FRAMES = [
    ((None, None, None, None, 2), (None, None, None, 4), (None, None, 1), (3,)),
    ((None, None, None, None, 2), (None, None, 1, 4), (None, None, 5), (3,)),
    ((None, None, None, None, 2), (None, None, 1, 4), (None, 5, 9), (3,)),
    ((None, None, None, 2, 6), (None, None, 1, 4), (None, 5, 9), (3,)),
    ((None, None, 1, 2, 6), (None, None, 4, 8), (None, 5, 9), (3,)),
    ((None, None, 1, 2, 6), (None, None, 4, 8), (3, 5, 9), (7,)),
    ((None, None, 1, 2, 6), (None, 4, 8, 12), (3, 5, 9), (7,)),
    ((None, 1, 2, 6, 10), (None, 4, 8, 12), (3, 5, 9), (7,)),
    ((None, 1, 2, 6, 10), (3, 4, 8, 12), (5, 9, 13), (7,)),
    ((1, 2, 6, 10, 14), (3, 4, 8, 12), (5, 9, 13), (7,)),
]

REVERSE_FINAL = ((14, 18), (12, 16, 20), (13, 17, 21, 22), (7, 11, 15, 19, 23, 24))

COMBINED_4x6 = (
    (1, 2, 6, 10, 14, 18),
    (3, 4, 8, 12, 16, 20),
    (5, 9, 13, 17, 21, 22),
    (7, 11, 15, 19, 23, 24),
)

THEOREM_RECTS = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5)]
CSP_RECTS = [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)]

_tables = {}


def get_table(n, m):
    if (n, m) not in _tables:
        _tables[(n, m)] = orbit_table(Rectangle(n, m), max_count=2_000_000)
    return _tables[(n, m)]


def report(number, label, elapsed, budget):
    print(f"PASS criterion {number}: {label} ({elapsed:.3f}s <= {budget}s)")
    assert elapsed <= budget, f"criterion {number} exceeded its {budget}s budget: {elapsed:.3f}s"


def best_of(fn, repeats=5):
    fn()  # warm-up
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_forward_construction_golden():
    final, frames = forward_tableau(W3142, DIAG_5431, CHOICE_4x6, trace=True)
    assert final.row_tuples() == FORWARD_FRAMES[-1]
    assert [f.row_tuples() for f in frames] == FORWARD_FRAMES
    elapsed = best_of(lambda: forward_tableau(W3142, DIAG_5431, CHOICE_4x6))
    report(1, "forward construction reproduces all ten frames", elapsed, 1e-3)


def test_criterion_02_reverse_construction_golden():
    rect = Rectangle(4, 6)
    assert reverse_tableau(W3142, DIAG_5431, rect).row_tuples() == REVERSE_FINAL
    elapsed = best_of(lambda: reverse_tableau(W3142, DIAG_5431, rect))
    report(2, "reverse construction reproduces the final tableau", elapsed, 1e-3)


def test_criterion_03_combined_tableau_and_inverse():
    rect = Rectangle(4, 6)
    t = minimal_orbit_tableau(W3142, rect)
    assert t.row_tuples() == COMBINED_4x6
    assert invert(t) == W3142
    elapsed = max(best_of(lambda: minimal_orbit_tableau(W3142, rect)), best_of(lambda: invert(t)))
    report(3, "combined 4x6 tableau and inversion", elapsed, 1e-3)


def test_criterion_04_choice_independence_sweep():
    t0 = time.perf_counter()
    checked = 0
    for m in (3, 4, 5):
        rect = Rectangle(3, m)
        for diag in enumerate_diagonals(rect):
            choices = [from_rows(rows) for rows in standard_tableaux(diag.lambda_minus)]
            for w in all_permutations(3):
                results = {forward_tableau(w, diag, u) for u in choices}
                assert len(results) == 1, (w, diag.lambda_plus)
                checked += len(choices)
    report(4, f"forward construction independent of all {checked} slide orders", time.perf_counter() - t0, 10)


def test_criterion_05_diagonal_agreement_and_independence():
    t0 = time.perf_counter()
    for m in (4, 5):
        rect = Rectangle(4, m)
        diagonals = enumerate_diagonals(rect)
        for w in all_permutations(4):
            combined = set()
            for diag in diagonals:
                plus = forward_tableau(w, diag)
                minus = reverse_tableau(w, diag, rect)
                for b in diag.boxes:
                    assert plus[b] == minus[b], (w, diag.lambda_plus, b)
                t = minimal_orbit_tableau(w, rect, diag)
                assert is_standard_normalized(t)
                combined.add(t)
            assert len(combined) == 1, w
    report(5, "forward/reverse agree on every diagonal and splice identically", time.perf_counter() - t0, 30)


def test_criterion_06_bijection_battery():
    t0 = time.perf_counter()
    for n, m in THEOREM_RECTS:
        rect = Rectangle(n, m)
        c = promotion_cycle(n)
        table = get_table(n, m)
        assert table.counts[n] == math.factorial(n), (n, m)
        image = {w: minimal_orbit_tableau(w, rect) for w in all_permutations(n)}
        # one promotion step subtracts 1 mod n from each diagonal residue,
        # i.e. it sends the tableau of w to the tableau of c o w
        for w, t in image.items():
            assert promotion(t) == image[right_multiply(c, w)], (n, m, w)
        assert {t.row_tuples() for t in image.values()} == set(table.fixed_rows(n)), (n, m)
        for w, t in image.items():
            assert invert(t) == w
    report(6, "promotion equivariance and image = minimal orbits on six rectangles", time.perf_counter() - t0, 120)


def test_criterion_07_full_cycle_order():
    t0 = time.perf_counter()
    for n, m in THEOREM_RECTS:
        table = get_table(n, m)
        cells = n * m
        assert sum(size for _, size in table.orbits) == table.total
        for _, size in table.orbits:
            assert cells % size == 0, (n, m, size)
        for r in divisors(cells):
            if r < n:
                assert table.counts[r] == 0, (n, m, r)
        # spot-check the object-level promotion against the orbit sizes
        rows, size = table.orbits[0]
        assert promotion_order(from_rows(rows)) == size
    report(7, "promotion order divides the cell count everywhere", time.perf_counter() - t0, 120)


def test_criterion_08_cyclic_sieving():
    t0 = time.perf_counter()
    for n, m in CSP_RECTS:
        rect = Rectangle(n, m)
        table = get_table(n, m)
        hooks = hook_lengths(rect.as_partition())
        for r in divisors(n * m):
            e = (n * m) // math.gcd(r, n * m)
            by_reduction = _root_value_by_reduction(rect, e)
            by_pairing = _root_value_by_pairing(n * m, hooks, e)
            assert by_reduction == by_pairing, (n, m, r)
            assert table.counts[r] == q_hook_at_root(rect, r), (n, m, r)
    report(8, "fixed-point counts equal the q-hook values at roots of unity", time.perf_counter() - t0, 120)


def test_criterion_09_box_sequence_reconstruction():
    t0 = time.perf_counter()
    diag = staircase_diagonal(Rectangle(4, 6))
    for w in all_permutations(4):
        run = box_sequence(inverse_word_sequence(w), diag)
        assert tableau_from_box_sequence(run, diag) == forward_tableau(w, diag), w
    report(9, "box sequences rebuild the forward construction entrywise", time.perf_counter() - t0, 10)


def test_criterion_10_descent_run_battery():
    t0 = time.perf_counter()
    n = 4
    rect = Rectangle(4, 6, n_is_rows=False)  # 6 rows, n = 4 columns
    diagonals = enumerate_diagonals(rect)
    steps = n * (max(d.lambda_minus.size for d in diagonals) + 1)
    runs = {}
    for w in all_permutations(n):
        d_desc = tuple(sorted(descents(w), reverse=True))
        for d in diagonals:
            run = box_sequence(descent_sequence(w), d, steps=steps)
            runs[(w, d.lambda_plus)] = run
            cols = column_sequence(d_desc, n, steps)
            assert tuple(b.col for b in run.boxes) == cols, (w, d.lambda_plus)
            delta = {i: 0 for i in range(1, n + 1)}
            for s, b in zip(run.sigma_prefix, run.boxes):
                if b != d.boxes[s - 1]:
                    delta[s] += 1
            assert delta == delta_closed_form(w, d.lambda_plus), (w, d.lambda_plus)
    for w in all_permutations(n):
        for i, da in enumerate(diagonals):
            for db in diagonals[i + 1 :]:
                ra = runs[(w, da.lambda_plus)].boxes
                rb = runs[(w, db.lambda_plus)].boxes
                for k in range(steps):
                    if rb[k] in da.lambda_plus and ra[k] in db.lambda_plus:
                        assert ra[k] == rb[k], (w, da.lambda_plus, db.lambda_plus, k)
    report(10, "descent-driven runs: columns, displacement counts, compatibility", time.perf_counter() - t0, 30)


def test_criterion_11_insertion_route():
    t0 = time.perf_counter()
    for n in (3, 4):
        for m in (n, n + 1, n + 2):
            rect = Rectangle(n, m)
            for diag in enumerate_diagonals(rect):
                for w in all_permutations(n):
                    assert augmented_insertion_tableau(w, m, diag.lambda_plus) == forward_tableau(w, diag)
    report(11, "augmented-word insertion equals the slide construction", time.perf_counter() - t0, 10)


def test_criterion_12_equivariance_property():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    diag = staircase_diagonal(Rectangle(4, 6))
    n = diag.n
    choices = [from_rows(rows) for rows in standard_tableaux(diag.lambda_minus)]
    done = 0
    while done < 10_000:
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
        assert transported is not None, (sigma, k)
        assert tuple(transported) == run_b.boxes, (sigma, k)
        assert run_a.delta == run_b.delta, (sigma, k)
    report(12, "10k strict-Knuth moves transport box sequences and fix delta", time.perf_counter() - t0, 30)
