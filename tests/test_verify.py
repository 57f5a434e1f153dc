import dataclasses
import gc
import hashlib
import io
import itertools
import json
import random
import re
import sys
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest

from taquin.cli import main
from taquin.shapes import Box, Partition, Rectangle, complement_shape, enumerate_diagonals, parse_partition, staircase_diagonal
from taquin.tableaux import from_rows
from taquin import orbits, sequences
from taquin.orbits import NotMinimalOrbitError, superstandard_choice
from taquin.sequences import descent_sequence
from taquin.words import Permutation, insertion_tableau
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


# -- enumeration and counting -------------------------------------------------


def test_counts_match_hooks_and_recursion():
    for shape in all_partitions_in_box(4, 6):
        if shape.size > 16:
            continue
        assert count_standard_tableaux(shape) == syt_count_by_recursion(shape)


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


def test_enumeration_caps():
    with pytest.raises(EnumerationCapError, match=r"^2674440 tableaux exceed the 2000000 cap; raise max_count \(CLI: --max-count\) to sweep$"):
        standard_tableaux(Partition((14, 14)))
    with pytest.raises(EnumerationCapError):
        list(standard_tableaux(parse_partition("444"), max_count=100))
    # explicit override allows it
    assert sum(1 for _ in standard_tableaux(parse_partition("444"), max_count=462)) == 462
    # the count alone is capped: a row of 22 cells is one tableau
    assert sum(1 for _ in standard_tableaux(Partition((22,)))) == 1


@pytest.mark.parametrize(
    "caps",
    [
        {"max_count": -(2**64)},
        {"max_count": -1},
        {"max_count": True},
        {"max_count": 4.5},
        {"max_count": 2.0},
        {"max_count": "10"},
        {"max_count": None},
    ],
)
def test_negative_caps_are_bad_input_not_a_cap_exceeded(caps):
    # refused before any comparison, the 255-cell limit's included, and
    # never coerced; a cap exceeded is a ValueError too, but always an
    # `EnumerationCapError`, and a bad cap never is
    (value,) = caps.values()
    message = f"a cap must be at least 0, got {value}" if type(value) is int else f"a cap must be an integer, got {value!r}"
    calls = [
        lambda: standard_tableaux(Partition((2, 2)), **caps),
        lambda: standard_tableaux(Partition((300,)), **caps),
        lambda: orbit_table(Rectangle(2, 2), **caps),
        lambda: run_suite(Rectangle(2, 2), "bijection", **caps),
    ]
    for call in calls:
        with pytest.raises(ValueError) as refused:
            call()
        assert type(refused.value) is ValueError and str(refused.value) == message


def test_standard_tableaux_checks_caps_up_front_and_streams(monkeypatch):
    """The enumeration is lazy: the first tableau pulls one prefix of
    `sweep._syt_halves`, which no public name shows."""
    import taquin.sweep as sweep

    with pytest.raises(EnumerationCapError):
        standard_tableaux(Partition((8, 8, 8)))  # raised by the call, nothing iterated
    # a grid byte numbers at most 255 entries, and no cap lifts that limit
    with pytest.raises(RankLaneError, match="300 cells exceed the 255-cell limit"):
        standard_tableaux(Partition((300,)), max_count=1)
    pulled = []
    real = sweep._syt_halves

    def counting(shape):
        for half in real(shape):
            pulled.append(half)
            yield half

    monkeypatch.setattr(sweep, "_syt_halves", counting)
    it = standard_tableaux(parse_partition("5555"))
    assert next(it) == ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (11, 12, 13, 14, 15), (16, 17, 18, 19, 20))
    assert len(pulled) == 1


# -- orbit tables -----------------------------------------------------------------


def test_orbit_table_runs_the_kernel_once_per_memo_miss(monkeypatch):
    """The column memo works: each prefix is slid once and each column
    entry once, 2,643 slides at 3x6, whatever the host's speed, where a
    lost memo would take 88,287; and the sweep slides only through
    `grid_slide`, once per `sweep._slide_flat`."""
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
    # no rows stay alive: a tuple of row tuples per orbit kept about 1.8 MB
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


def test_orbit_table_keeps_ranks_not_grid_ints_at_3x6():
    # a rank and a size per orbit, and the 771 prefixes that decode a rank,
    # stay alive: a table with a grid int per orbit kept about 360 KB
    orbit_table(Rectangle(3, 6))  # fills the caches a first build fills
    tracemalloc.start()
    try:
        table = orbit_table(Rectangle(3, 6))
        gc.collect()
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current < 256_000, current
    assert len(table.sizes) == 4_896


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
    for r in (True, 2.0, "1"):  # never coerced, not even to a valid r
        with pytest.raises(ValueError) as got:
            q_hook_at_root(rect, r)
        assert str(got.value) == f"r must be an integer, got {r!r}"


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


# -- suites -------------------------------------------------------------------------


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


# the case that the planted conflicts below fail
CROSS_DIAGONAL_CASE = "cross-diagonal-compatibility"


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
    assert failed == {CROSS_DIAGONAL_CASE: expected}


def _rotated(w):
    return Permutation(w.oneline[1:] + w.oneline[:1])


def _unknown_verdict(*args, **kwargs):
    return SimpleNamespace(status="unknown")


def _with_one_fixed_point(table):
    return dataclasses.replace(table, counts={**table.counts, 1: 1})


# every case of run_suite(Rectangle(3, 4), "all"), in report order
SUITE_CASES = [
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


# (name patched in taquin.verify, replacement built from the real function,
#  {failing case: its first counterexample} for
#  run_suite(Rectangle(3, 4), "all", **options), options)
BROKEN_DEPENDENCIES = [
    (
        "invert",
        lambda real: lambda t: Permutation((1, 2, 3)),
        {
            "bijection.invert-round-trip": "invert round trip failed: 132 -> 123",
            "bijection.non-minimal-rejected": "invert accepted a non-minimal tableau as 123",
        },
        {},
    ),
    (
        "promotion",
        lambda real: lambda t: t,
        {"bijection.promotion-equivariance": "promotion(T_123) != T_312"},
        {},
    ),
    (
        "reverse_tableau",
        lambda real: lambda w, *args: real(_rotated(w), *args),
        {"independence.diagonal-agreement": "w=123, diagonal 321: disagree at Box(row=3, col=1)"},
        {},
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
        {},
    ),
    (
        "tableau_from_box_sequence",
        lambda real: lambda run, d: None,
        {"propositions.box-sequence-reconstruction": "box-sequence reconstruction differs for w=123"},
        {},
    ),
    (
        "box_less",
        lambda real: lambda a, b: False,
        {
            "propositions.box-order-transport": "sigma=(2, 2, 1, 2, 3, 2, 2, 2, 2), k=2: descent not transported",
            "propositions.strict-knuth-equivariance": "sigma=(1, 3, 2, 2, 3, 2, 1, 3, 1), k=1: move undefined on the box sequence",
        },
        {},
    ),
    (
        "column_sequence",
        lambda real: lambda descents, n, k: [1] * k,
        {"propositions.descent-run-columns-and-delta": "w=123: box 2 lands in column 2, expected 1"},
        {},
    ),
    (
        "delta_closed_form",
        lambda real: lambda w, lambda_plus: {},
        {"propositions.descent-run-columns-and-delta": "w=123: delta {1: 3, 2: 2, 3: 1} != closed form {}"},
        {},
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
        {},
    ),
    (
        "augmented_insertion_tableau",
        lambda real: lambda w, m, shape: real(_rotated(w), m, shape),
        {"propositions.insertion-route": "insertion route differs for w=123"},
        {},
    ),
    (
        "bounded_equivalence",
        lambda real: _unknown_verdict,
        {
            "propositions.periodic-word-equivalence": "132 ~ 231 came back unknown",
            "propositions.descent-sequence-equivalence": "descent sequence of 123 came back unknown",
        },
        {},
    ),
    (
        "reading_word_of_rows",
        lambda real: lambda rows: (),
        {"propositions.row-strict-insertion-moves": "replay of (2, 1, 3, 2) missed the reading word"},
        {},
    ),
    # each construction rotates w unless its choice is the superstandard
    # filling: the suite passes explicit choices only, so a fault on the
    # default choice alone would never show; only the superstandard pair,
    # without `all_choices`, calls the constructions with a choice
    (
        "forward_tableau",
        lambda real: lambda w, d, choice=None, **kwargs: real(
            w if choice in (None, superstandard_choice(d.lambda_minus)) else _rotated(w), d, choice, **kwargs
        ),
        {"independence.forward-choice-independence": "forward construction depends on the choice for w=123, diagonal 321"},
        {"all_choices": False},
    ),
    (
        "reverse_tableau",
        lambda real: lambda w, d, rect, choice=None, **kwargs: real(
            w if choice in (None, superstandard_choice(complement_shape(d.lambda_plus, rect))) else _rotated(w),
            d, rect, choice, **kwargs,
        ),
        {"independence.reverse-choice-independence": "reverse construction depends on the choice for w=123, diagonal 321"},
        {"all_choices": False},
    ),
    # the walk over every choice tableau also reaches the grid of w rotated,
    # a fault that only `all_choices` reads
    (
        "choice_grids",
        lambda real: lambda w, d, outer, **caps: real(w, d, outer, **caps) | real(_rotated(w), d, outer, **caps),
        {
            "independence.forward-choice-independence": "forward construction depends on the choice for w=123, diagonal 321",
            "independence.reverse-choice-independence": "reverse construction depends on the choice for w=123, diagonal 321",
        },
        {"all_choices": True},
    ),
    # rotates w on every diagonal but the staircase one
    (
        "minimal_orbit_tableau",
        lambda real: lambda w, rect, diag=None, **kwargs: real(
            w if diag in (None, staircase_diagonal(rect)) else _rotated(w), rect, diag, **kwargs
        ),
        {"independence.diagonal-independence": "combined tableau depends on the diagonal for w=123"},
        {"all_diagonals": True},
    ),
    (
        "q_hook_polynomial",
        lambda real: lambda rect: lambda q, poly=real(rect): poly(q) + 1,
        {"csp.polynomial-at-one": "F(1) = 463 != 462 tableaux"},
        {},
    ),
    (
        "orbit_table",
        lambda real: lambda rect, **caps: _with_one_fixed_point(real(rect, **caps)),
        {
            "csp.sieving-r=1": "F(zeta^1) = 0 but 1 tableaux are fixed",
            "haiman.no-orbits-below-n": "1 tableaux fixed by 1-fold promotion with r < n",
        },
        {},
    ),
]


@pytest.mark.parametrize(
    "name, broken, expected, options",
    BROKEN_DEPENDENCIES,
    ids=[name + "".join(f"-{'' if on else 'no_'}{option}" for option, on in options.items()) for name, _, _, options in BROKEN_DEPENDENCIES],
)
def test_suite_cases_report_their_first_counterexample(monkeypatch, name, broken, expected, options):
    import taquin.verify as verify

    monkeypatch.setattr(verify, name, broken(getattr(verify, name)))
    report = run_suite(Rectangle(3, 4), "all", **options)
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


def test_verify_3x6_all_diagonals_is_pinned_byte_for_byte(capsys):
    # the benchmark's verify configuration, which the pin above stops short
    # of: 3x6 with every diagonal and the default choices, for two seeds
    digest = hashlib.sha256()
    for seed in ("5", "11"):
        assert main(["verify", "--n", "3", "--m", "6", "--suite", "all", "--all-diagonals", "--json", "--seed", seed]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == "3d43473df7627f63991e3f1dbdc9225b836dbb17f9b0ecb2b8674a5b7970448b"


def test_verify_3x6_derives_each_slide_order_once_and_skips_trivial_slides(monkeypatch):
    # from empty caches: one slide order derivation per distinct (choice,
    # shape, width, far), and no slide in a box sequence once its grid is
    # empty; exact counts of the benchmark's verify configuration
    orbits._slide_plan.cache_clear()
    orbits._slide_starts.cache_clear()
    counts = Counter()
    order, slide = orbits._slide_order, orbits.grid_slide
    monkeypatch.setattr(orbits, "_slide_order", lambda *a: counts.update(["_slide_order"]) or order(*a))
    for module in (orbits, sequences):  # the constructions' slides and the box sequences'
        monkeypatch.setattr(module, "grid_slide", lambda *a: counts.update(["grid_slide"]) or slide(*a))
    assert run_suite(Rectangle(3, 6), "all", seed=5, all_diagonals=True).passed
    assert counts == {"_slide_order": 139, "grid_slide": 11453}


def test_suite_case_names_in_order():
    report = run_suite(Rectangle(3, 4), "all", all_choices=True, all_diagonals=True)
    assert [c.name for c in report.cases] == SUITE_CASES
    assert report.passed


def test_every_suite_case_fails_under_some_fault():
    # a case that no fault test fails could pass on a broken claim unseen:
    # the dependency faults, the hand-made table and the planted conflict
    # must fail every case between them
    def one_name(case):  # minimal-orbit-count-{n}! at any n
        return re.sub(r"count-\d+!$", "count-n!", case)

    failed = {case for _, _, expected, _ in BROKEN_DEPENDENCIES for case in expected}
    failed |= {f"{suite}.{case}" for suite, cases in TABLE_FAILURES.items() for case in cases}
    failed.add(f"propositions.{CROSS_DIAGONAL_CASE}")
    assert {one_name(case) for case in failed} == {one_name(case) for case in SUITE_CASES}


def test_suites_read_no_rows(monkeypatch):
    rects = [Rectangle(3, 4), Rectangle(2, 2), Rectangle(1, 1)]
    expected = [run_suite(rect, "all").to_json_dict() for rect in rects]

    def rows_read(table):
        raise AssertionError("a suite read OrbitTable.orbits")

    monkeypatch.setattr(OrbitTable, "orbits", property(rows_read))
    assert [run_suite(rect, "all").to_json_dict() for rect in rects] == expected


# {suite: {failing case: its counterexample}} on the hand-made table below
TABLE_FAILURES = {
    "haiman": {
        "orbit-sizes-divide-cell-count": "orbit of size 4 does not divide 6: ((1, 2, 4), (3, 5, 6))",
        "full-cycle-spot-check": "full-cycle promotion moved ((1, 3, 5), (2, 4, 6))",
    },
    "bijection": {
        "minimal-orbit-count-2!": "counts[2] = 0 != 2",
        "image-equals-minimal-orbits": "image has 2 tableaux, enumeration gives 0; symmetric difference size 2",
        "promotion-equivariance": "promotion(T_12) != T_21",
        "invert-round-trip": "invert round trip failed: 12 -> 21",
        "non-minimal-rejected": "invert accepted a non-minimal tableau as 21",
    },
}


def test_table_cases_report_the_rows_of_the_orbit_they_name(monkeypatch):
    import taquin.verify as verify

    # a hand-made 2x3 table: size 3 does not divide n = 2, size 4 does not
    # divide N = 6
    rect = Rectangle(2, 3)
    rows = [((1, 3, 5), (2, 4, 6)), ((1, 2, 4), (3, 5, 6))]
    # one prefix, the empty one, whose tails are the two representatives
    reps = [int.from_bytes(bytes(from_rows(t).grid), "big") for t in rows]
    table = OrbitTable(rect, [0, 1], [3, 4], {1: 0, 2: 0, 3: 3, 6: 3}, 7, [0], [(0, reps)])
    inverted = []

    def accept(t):
        inverted.append(t.row_tuples())
        return Permutation((2, 1))

    monkeypatch.setattr(verify, "invert", accept)
    other = from_rows([[1, 2, 3], [4, 5, 6]])
    monkeypatch.setattr(verify, "promotion", lambda t: other)

    def failed(suite):
        # a cap of 0 refuses every enumeration: the cases read the given table alone
        return {c.name: c.counterexample for c in suite(rect, 0, False, False, 0, lambda: table) if c.status == "fail"}

    for suite, expected in TABLE_FAILURES.items():
        assert failed(getattr(verify, f"_suite_{suite}")) == expected, suite
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


def _broken_build(builds):
    """An `orbit_table` that records each call in `builds` and raises."""

    def build(*args, **kwargs):
        builds.append(args)
        raise RuntimeError("boom")

    return build


def test_a_table_build_that_raises_fails_the_cases_that_read_it(monkeypatch):
    import taquin.verify as verify

    monkeypatch.setattr(verify, "orbit_table", _broken_build([]))
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
    import taquin.verify as verify

    rect = Rectangle(3, 4)
    clean = {suite: run_suite(rect, suite) for suite in ("bijection", "csp", "haiman")}
    builds = []
    monkeypatch.setattr(verify, "orbit_table", _broken_build(builds))
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
    import taquin.verify as verify

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
    monkeypatch.setattr(verify, "orbit_table", _broken_build(builds))
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
    # one cap per run, taken by each enumeration a suite makes: the orbit
    # table, the choice tableaux (independence reads no table) and the
    # strict-Knuth choices (propositions reads neither)
    for rect, suite, cap, count in (
        (Rectangle(2, 9), "csp", 4861, 4862),
        (Rectangle(2, 9), "independence", 1000, 1001),
        (Rectangle(3, 4), "propositions", 1, 2),
    ):
        with pytest.raises(EnumerationCapError, match=f"^{count} tableaux exceed the {cap} cap"):
            run_suite(rect, suite, all_choices=True, all_diagonals=True, max_count=cap)
    # 22 cells, past the seed's cell cap, and no enumeration of more than 22 tableaux
    report = run_suite(Rectangle(1, 22), "all", all_choices=True, all_diagonals=True)
    assert report.passed and len(report.cases) == 26


def test_every_choice_is_checked_without_listing_a_choice_tableau(monkeypatch):
    # `all_choices` walks the slide states: it enumerates no choice tableau
    # and parses none
    import taquin.verify as verify

    def never(*args, **kwargs):
        raise AssertionError("a choice tableau was listed")

    monkeypatch.setattr(verify, "standard_tableaux", never)
    monkeypatch.setattr(verify, "from_rows", never)
    for rect in (Rectangle(3, 4), Rectangle(2, 5, n_is_rows=False)):
        assert run_suite(rect, "independence", all_choices=True, all_diagonals=True).passed


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
