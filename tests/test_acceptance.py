"""Acceptance batteries: one test per criterion, each checked exactly and
timed against its runtime budget.  Run with `pytest tests/test_acceptance.py -s`
to see one PASS line per criterion.

Criteria 04-10 run the shipped check suites (`taquin.verify.run_suite`) at
their sizes and assert that the cases of their claim pass; those cases are
shown to fail on a broken claim in `tests/test_verify.py`.  Criteria 01-03,
11 and 12 reach further than any suite case and check directly.
"""

import math
import random
import time
from functools import lru_cache

from taquin.orbits import (
    augmented_insertion_tableau,
    box_sequence,
    forward_tableau,
    invert,
    minimal_orbit_tableau,
    reverse_tableau,
)
from taquin.shapes import Diagonal, Rectangle, box_less, enumerate_diagonals, parse_partition, staircase_diagonal
from taquin.sieving import count_standard_tableaux
from taquin.sweep import standard_tableaux
from taquin.tableaux import from_rows
from taquin.verify import run_suite
from taquin.words import all_permutations, parse_permutation, strict_knuth

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


@lru_cache(maxsize=None)
def suite_report(rect, suite, **options):
    """`run_suite` once per configuration, shared by the criteria that read
    it, so each rectangle builds one orbit table."""
    return run_suite(rect, suite, **options)


def assert_cases_pass(suite, *names):
    """Assert that each of `names`, a case name or a prefix ending in ".",
    picks at least one case of the report `suite`, and that every case
    picked passed."""
    for name in names:
        picked = [c for c in suite.cases if c.name == name or (name.endswith(".") and c.name.startswith(name))]
        assert picked, (suite.rect, name)
        failed = {c.name: c.counterexample for c in picked if c.status == "fail"}
        assert not failed, (suite.rect, failed)


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
    t = reverse_tableau(W3142, DIAG_5431, rect)
    assert t.row_tuples() == REVERSE_FINAL
    assert t.region.inner == parse_partition("432")
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
        independence = run_suite(rect, "independence", all_choices=True, all_diagonals=True)
        assert_cases_pass(independence, "forward-choice-independence", "reverse-choice-independence")
        # every choice on every diagonal, for each of the 3! permutations
        checked += 6 * sum(count_standard_tableaux(d.lambda_minus) for d in enumerate_diagonals(rect))
    report(4, f"forward construction independent of all {checked} slide orders", time.perf_counter() - t0, 10)


def test_criterion_05_diagonal_agreement_and_independence():
    t0 = time.perf_counter()
    for m in (4, 5):
        independence = run_suite(Rectangle(4, m), "independence", all_diagonals=True)
        assert_cases_pass(independence, "diagonal-agreement", "diagonal-independence")
    report(5, "forward/reverse agree on every diagonal and splice identically", time.perf_counter() - t0, 30)


def test_criterion_06_bijection_battery():
    t0 = time.perf_counter()
    for n, m in THEOREM_RECTS:
        assert_cases_pass(suite_report(Rectangle(n, m), "all"), "bijection.")
    report(6, "promotion equivariance and image = minimal orbits on six rectangles", time.perf_counter() - t0, 120)


def test_criterion_07_full_cycle_order():
    t0 = time.perf_counter()
    for n, m in THEOREM_RECTS:
        assert_cases_pass(suite_report(Rectangle(n, m), "all"), "haiman.")
    report(7, "promotion order divides the cell count everywhere", time.perf_counter() - t0, 120)


def test_criterion_08_cyclic_sieving():
    t0 = time.perf_counter()
    for n, m in CSP_RECTS:
        assert_cases_pass(suite_report(Rectangle(n, m), "all"), "csp.")
    report(8, "fixed-point counts equal the q-hook values at roots of unity", time.perf_counter() - t0, 120)


def test_criterion_09_box_sequence_reconstruction():
    t0 = time.perf_counter()
    assert_cases_pass(suite_report(Rectangle(4, 6), "propositions", all_diagonals=True), "box-sequence-reconstruction")
    report(9, "box sequences rebuild the forward construction entrywise", time.perf_counter() - t0, 10)


def test_criterion_10_descent_run_battery():
    t0 = time.perf_counter()
    # the runs are on the tall 6x4 orientation (n = 4 columns), every diagonal
    propositions = suite_report(Rectangle(4, 6), "propositions", all_diagonals=True)
    assert_cases_pass(propositions, "descent-run-columns-and-delta", "cross-diagonal-compatibility")
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
