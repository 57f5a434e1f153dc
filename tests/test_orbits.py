import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taquin import orbits, sequences
from taquin.orbits import (
    _refill_slide,
    _slide_plan,
    _slide_starts,
    _splice,
    DiagonalMismatchError,
    NotMinimalOrbitError,
    augmented_insertion_tableau,
    forward_tableau,
    invert,
    minimal_orbit_tableau,
    reverse_tableau,
    superstandard_choice,
)
from taquin.sequences import (
    box_sequence,
    choice_grids,
    column_sequence,
    delta_closed_form,
    descent_sequence,
    forward_tableau_by_peeling,
    inverse_word_sequence,
    tableau_from_box_sequence,
)
from taquin.shapes import (
    Box,
    Diagonal,
    Partition,
    Rectangle,
    SkewShape,
    complement_shape,
    enumerate_diagonals,
    parse_partition,
    staircase_diagonal,
)
from taquin.tableaux import (
    PartialTableau,
    complement_tableau,
    from_rows,
    grid_size,
    is_standard_normalized,
)
from taquin.sweep import standard_tableaux
from taquin.words import (
    Permutation,
    all_permutations,
    conjugate_by_reversal,
    parse_permutation,
    promotion_cycle,
)


def identity(n):
    return Permutation(tuple(range(1, n + 1)))


W3142 = parse_permutation("3142")
DIAG_5431 = Diagonal(parse_partition("5431"))
CHOICE_4x6 = from_rows([[1, 3, 6, 7], [2, 4, 9], [5, 8]])

# -- forward construction -----------------------------------------------------


def test_forward_choice_independence_worked_case():
    expected = forward_tableau(W3142, DIAG_5431, CHOICE_4x6)
    count = 0
    for rows in standard_tableaux(parse_partition("432")):
        u = from_rows(rows)
        assert forward_tableau(W3142, DIAG_5431, u) == expected
        count += 1
    assert count == 168  # hook count of 432


def test_forward_tableau_entries_at_most_n_form_insertion_tableau():
    from taquin.words import insertion_tableau

    for w in all_permutations(3):
        d = staircase_diagonal(Rectangle(3, 4))
        t = forward_tableau(w, d)
        small = [[v for v in row if v is not None and v <= 3] for row in t.row_lists()]
        small = tuple(tuple(r) for r in small if r)
        assert small == insertion_tableau(w.oneline)


def test_forward_tableau_single_box():
    d = Diagonal(Partition((1,)))
    t = forward_tableau(Permutation((1,)), d)
    assert t.entries == {Box(1, 1): 1}


def test_forward_choice_independence_sampled_4x6():
    # exhaustive choice sweeps live in the acceptance module at n = 3;
    # here sample a few slide orders per diagonal at n = 4
    rng = random.Random(17)
    rect = Rectangle(4, 6)
    perms = rng.sample(list(all_permutations(4)), 6)
    for d in rng.sample(enumerate_diagonals(rect), 4):
        pool = []
        for rows in standard_tableaux(d.lambda_minus, max_count=200_000):
            pool.append(rows)
            if len(pool) >= 4000:
                break
        picks = [from_rows(rows) for rows in rng.sample(pool, min(8, len(pool)))]
        for w in perms:
            results = {forward_tableau(w, d, u) for u in picks}
            assert len(results) == 1, (w, d.lambda_plus)


def test_combined_same_for_all_diagonals_4x6():
    # the staircase tableau is pinned by the acceptance module's criterion 03
    rect = Rectangle(4, 6)
    staircase = minimal_orbit_tableau(W3142, rect)
    for d in enumerate_diagonals(rect):
        assert minimal_orbit_tableau(W3142, rect, d) == staircase


def test_forward_choice_validation():
    with pytest.raises(ValueError):
        forward_tableau(W3142, DIAG_5431, from_rows([[1, 2], [3]]))
    bad = PartialTableau(SkewShape(parse_partition("432")), {(1, 1): 1})
    with pytest.raises(ValueError):
        forward_tableau(W3142, DIAG_5431, bad)
    with pytest.raises(ValueError):
        forward_tableau(parse_permutation("312"), DIAG_5431)


def test_equal_choices_share_one_slide_order_derivation():
    # a fresh but equal choice tableau hits the slide-order cache; a choice
    # that fails its check is cached nowhere, so it is refused every time
    forward_tableau(W3142, DIAG_5431)  # the plan is cached from here on
    before = _slide_starts.cache_info()
    built = {forward_tableau(W3142, DIAG_5431, from_rows(CHOICE_4x6.row_lists())) for _ in range(4)}
    assert built == {forward_tableau(W3142, DIAG_5431)}
    after = _slide_starts.cache_info()
    # four lookups, of which at most the first derives the order
    assert after.hits - before.hits >= 3 and after.hits + after.misses - before.hits - before.misses == 4
    bad = from_rows([[1, 3, 6, 7], [2, 4, 10], [5, 8]])
    for _ in range(2):
        with pytest.raises(ValueError, match=r"choice tableau must be standard with entries 1\.\.N"):
            forward_tableau(W3142, DIAG_5431, bad)
    assert _slide_starts.cache_info().currsize == after.currsize


def _grids_over_every_choice(rect, diag, w, screen=True):
    """The reference of `choice_grids`: the forward and the reverse
    construction's grids, built once per choice tableau."""
    forward = {tuple(forward_tableau(w, diag, from_rows(u), screen=screen).grid) for u in standard_tableaux(diag.lambda_minus)}
    complement = complement_shape(diag.lambda_plus, rect)
    reverse = {tuple(reverse_tableau(w, diag, rect, from_rows(u), screen=screen).grid) for u in standard_tableaux(complement)}
    return forward, reverse


@pytest.mark.parametrize(
    "rect",
    [Rectangle(2, 4), Rectangle(3, 4), Rectangle(3, 5), Rectangle(2, 5, n_is_rows=False)],
    ids=lambda r: f"{r.nrows}x{r.ncols}",
)
def test_choice_grids_are_the_constructions_over_every_choice_tableau(rect):
    for d in enumerate_diagonals(rect):
        for w in all_permutations(rect.n):
            assert (choice_grids(w, d), choice_grids(w, d, rect)) == _grids_over_every_choice(rect, d, w), (d, w)


def test_choice_grids_keep_every_distinct_grid(monkeypatch):
    # a refill that reads the slide's start cell makes the constructions
    # depend on the choice; the walk must reach every grid they reach
    real = orbits._refill_slide

    def planted(grid, width, hole, forward, targets, shift):
        real(grid, width, hole, forward, targets, shift + hole % 2)

    for module in (orbits, sequences):
        monkeypatch.setattr(module, "_refill_slide", planted)
    rect = Rectangle(3, 4)
    sizes = []
    for d in enumerate_diagonals(rect):
        for w in all_permutations(3):
            forward, reverse = _grids_over_every_choice(rect, d, w, screen=False)
            assert (choice_grids(w, d), choice_grids(w, d, rect)) == (forward, reverse), (d, w)
            sizes += [len(forward), len(reverse)]
    assert max(sizes) == 7


# -- reverse construction -----------------------------------------------------


def test_reverse_tableau_first_frames():
    # choice whose first three slides start at (3,4), (4,2), (4,3)
    u_rows = [[1, 2, 3, 9, 10], [4, 5, 11], [6, 7], [8]]
    _, frames = reverse_tableau(W3142, DIAG_5431, Rectangle(4, 6), from_rows(u_rows), trace=True)
    expected = [
        {(4, 1): 23, (3, 3): 21, (2, 4): 24, (1, 5): 22},
        {(4, 1): 23, (3, 3): 21, (3, 4): 24, (2, 4): 20, (1, 5): 22},
        {(4, 1): 19, (4, 2): 23, (3, 3): 21, (3, 4): 24, (2, 4): 20, (1, 5): 22},
        {(4, 1): 15, (4, 2): 19, (4, 3): 23, (3, 3): 21, (3, 4): 24, (2, 4): 20, (1, 5): 22},
    ]
    for got, exp in zip(frames[:4], expected):
        assert got.entries == {Box(*b): v for b, v in exp.items()}


def test_reverse_matches_complement_of_forward():
    # the reverse construction is the forward one conjugated by the
    # 180-degree complement and w -> w0 w w0
    cases = [(W3142, DIAG_5431, Rectangle(4, 6))]
    rect34 = Rectangle(3, 4)
    for w in all_permutations(3):
        for d in enumerate_diagonals(rect34):
            cases.append((w, d, rect34))
    for w, d, rect in cases:
        direct = reverse_tableau(w, d, rect)
        dual_route = complement_tableau(
            forward_tableau(conjugate_by_reversal(w), Diagonal(complement_shape(d.lambda_minus, rect))), rect
        )
        assert direct == dual_route


# -- combined tableau ----------------------------------------------------------


def test_combined_tableau_1x1():
    t = minimal_orbit_tableau(Permutation((1,)), Rectangle(1, 1))
    assert t.row_tuples() == ((1,),)


def test_combined_diagonal_entries_separate_permutations():
    rect = Rectangle(3, 4)
    d = staircase_diagonal(rect)
    perms = list(all_permutations(3))
    tabs = {w: minimal_orbit_tableau(w, rect, d) for w in perms}
    for w1 in perms:
        for w2 in perms:
            for i in range(1, 4):
                if w1(i) != w2(i):
                    assert tabs[w1][d.boxes[i - 1]] != tabs[w2][d.boxes[i - 1]]


def test_combined_validations():
    with pytest.raises(ValueError):
        minimal_orbit_tableau(W3142, Rectangle(3, 5))
    with pytest.raises(ValueError):
        minimal_orbit_tableau(W3142, Rectangle(4, 6), via="sorcery")
    with pytest.raises(ValueError):
        minimal_orbit_tableau(W3142, Rectangle(4, 6, n_is_rows=False), via="insertion")
    d3 = staircase_diagonal(Rectangle(3, 4))
    with pytest.raises(ValueError):
        minimal_orbit_tableau(W3142, Rectangle(4, 6), d3)
    # a choice the slides route takes is still refused by the insertion route
    choice = superstandard_choice(DIAG_5431.lambda_minus)
    with pytest.raises(ValueError, match="choice tableau"):
        minimal_orbit_tableau(W3142, Rectangle(4, 6), DIAG_5431, via="insertion", choice=choice)


def test_constructions_are_called_once_through_the_module(monkeypatch):
    # the benchmark counts slides by wrapping these two module attributes,
    # so the combined tableau and invert must call each exactly once
    import taquin.orbits as orbits

    calls = []

    def counting(name):
        real = getattr(orbits, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return counted

    for name in ("forward_tableau", "reverse_tableau"):
        monkeypatch.setattr(orbits, name, counting(name))
    for rect in (Rectangle(4, 6), Rectangle(3, 5, n_is_rows=False)):
        w = Permutation(tuple(range(rect.n, 0, -1)))
        calls.clear()
        t = minimal_orbit_tableau(w, rect)
        assert sorted(calls) == ["forward_tableau", "reverse_tableau"]
        calls.clear()
        assert invert(t) == w
        assert sorted(calls) == ["forward_tableau", "reverse_tableau"]


def test_splice_checks_the_diagonal_boxes(monkeypatch):
    import taquin.orbits as orbits

    real = orbits.reverse_tableau
    rect = Rectangle(3, 4)
    monkeypatch.setattr(orbits, "reverse_tableau", lambda w, d, r, **kw: real(promotion_cycle(3), d, r, **kw))
    with pytest.raises(DiagonalMismatchError, match="constructions disagree at"):
        minimal_orbit_tableau(identity(3), rect)


def test_splice_refuses_a_filling_that_is_not_standard():
    # halves that agree on the diagonal and together increase along rows
    # and columns, but hold 2, 4, ..., 2N
    rect = Rectangle(3, 5)
    d = staircase_diagonal(rect)
    w = Permutation((2, 3, 1))
    plus, minus = forward_tableau(w, d), reverse_tableau(w, d, rect)
    assert is_standard_normalized(_splice(plus, minus, rect, d))

    def mapped(t, f):
        return PartialTableau(t.region, {b: f(v) for b, v in t.entries.items()})

    doubled = (mapped(plus, lambda v: 2 * v), mapped(minus, lambda v: 2 * v))
    with pytest.raises(DiagonalMismatchError, match="combined tableau is not standard"):
        _splice(*doubled, rect, d)


def test_an_off_diagonal_slide_names_its_boxes():
    # the message decodes grid indices to 1-based boxes, in both directions
    region = SkewShape(Partition((2, 2)))
    width, _ = grid_size(2, 2)
    grid = PartialTableau(region, {Box(1, 2): 1, Box(2, 1): 2, Box(2, 2): 3}).grid[:]
    with pytest.raises(DiagonalMismatchError) as forward:
        _refill_slide(grid, width, width + 1, True, frozenset(), 0)
    assert str(forward.value) == f"slide from {Box(1, 1)} ended at {Box(2, 2)}, off the diagonal"
    grid = PartialTableau(region, {Box(1, 1): 1, Box(1, 2): 2, Box(2, 1): 3}).grid[:]
    with pytest.raises(DiagonalMismatchError) as reverse:
        _refill_slide(grid, width, 2 * width + 2, False, frozenset(), 0)
    assert str(reverse.value) == f"slide from {Box(2, 2)} ended at {Box(1, 1)}, off the diagonal"


def _small_rectangles():
    for n in range(1, 5):
        for m in range(n, 16 // n + 1):
            yield Rectangle(n, m)
            yield Rectangle(n, m, n_is_rows=False)


def test_cached_plans_match_an_explicit_choice_and_the_trace():
    # with no choice the slide order comes from a cached per-shape plan, and
    # with an explicit superstandard choice from the per-choice cache; the
    # traced run's last frame must match both
    for rect in _small_rectangles():
        for d in enumerate_diagonals(rect):
            forward_choice = superstandard_choice(d.lambda_minus)
            reverse_choice = superstandard_choice(complement_shape(d.lambda_plus, rect))
            for w in all_permutations(rect.n):
                plus = forward_tableau(w, d)
                assert plus == forward_tableau(w, d, forward_choice)
                assert plus == forward_tableau(w, d, trace=True)[1][-1]
                minus = reverse_tableau(w, d, rect)
                assert minus == reverse_tableau(w, d, rect, reverse_choice)
                assert minus == reverse_tableau(w, d, rect, trace=True)[1][-1]


@lru_cache(maxsize=None)
def _diagonals(n, m):
    return enumerate_diagonals(Rectangle(n, m))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_slides_route_matches_insertion_route_and_any_diagonal(data):
    # two independent routes to T_w, plus the inverse, on random rectangles
    n = data.draw(st.integers(1, 6), label="n")
    m = data.draw(st.integers(n, 3 * n), label="m")
    w = Permutation(tuple(data.draw(st.permutations(range(1, n + 1)), label="w")))
    rect = Rectangle(n, m)
    diagonals = _diagonals(n, m)
    d = diagonals[data.draw(st.integers(0, len(diagonals) - 1), label="diagonal")]
    t = minimal_orbit_tableau(w, rect)
    assert t == minimal_orbit_tableau(w, rect, via="insertion")
    assert t == minimal_orbit_tableau(w, rect, d)
    assert invert(t) == w
    assert invert(t, d) == w


# -- inversion -------------------------------------------------------------------


@pytest.mark.parametrize(
    "rows, message",
    [
        (
            ((1, 2, 3, 4), (5, 6, 7, 9), (8, 10, 11, 12)),
            "diagonal residues (2, 3, 3) collide; not in the minimal orbit set",
        ),
        (
            ((1, 2, 3, 6), (4, 5, 8, 10), (7, 9, 11, 12)),
            "residues form a permutation but do not rebuild the tableau",
        ),
    ],
    ids=["colliding-residues", "no-rebuild"],
)
def test_invert_rejects_non_minimal(rows, message):
    # two 3x4 tableaux whose promotion orbits have 12 members, not a divisor of n = 3
    with pytest.raises(NotMinimalOrbitError) as refused:
        invert(from_rows(rows))
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "shape, message",
    [
        ((5, 4, 3, 2, 1), "diagonal shape 54321 has 5 corners, need 3"),
        ((7, 2, 1), "diagonal shape 721 does not fit in 3x4"),
        ((2, 2, 1), "diagonal shape 221 has 2 corners, need 3"),
    ],
    ids=["too-many-corners", "outside-the-rectangle", "too-few-corners"],
)
def test_invert_checks_the_diagonal_before_reading_residues(shape, message):
    t = minimal_orbit_tableau(parse_permutation("231"), Rectangle(3, 4))
    with pytest.raises(ValueError) as refused:
        invert(t, Diagonal(Partition(shape)))
    assert type(refused.value) is ValueError and str(refused.value) == message


def test_invert_input_validation():
    with pytest.raises(ValueError):
        invert(from_rows([[1, 2], [3]]))


# -- box sequences ----------------------------------------------------------------


def test_box_sequence_run_shape():
    run = box_sequence(inverse_word_sequence(W3142), DIAG_5431)
    assert len(run.boxes) == len(run.sigma_prefix) == 4 * (9 + 1)
    assert sum(run.delta.values()) == 9  # one displacement per erased entry
    assert run.delta == {1: 1, 2: 3, 3: 2, 4: 3}


def test_box_sequence_reconstruction_matches_forward():
    for w in all_permutations(4):
        run = box_sequence(inverse_word_sequence(w), DIAG_5431)
        assert tableau_from_box_sequence(run, DIAG_5431) == forward_tableau(w, DIAG_5431)


def test_box_sequence_diagonal_entries_formula():
    # entry at the i-th diagonal box is w(i) + n * delta(i)
    for w in all_permutations(4):
        run = box_sequence(inverse_word_sequence(w), DIAG_5431)
        t = forward_tableau(w, DIAG_5431)
        for i in range(1, 5):
            assert t[DIAG_5431.boxes[i - 1]] == w(i) + 4 * run.delta[i]


def test_box_sequence_single_box_diagonal():
    d = Diagonal(Partition((1,)))
    run = box_sequence([1, 1, 1], d, steps=3)
    assert run.boxes == (Box(1, 1),) * 3
    assert run.delta == {1: 0}


def test_box_sequence_validation():
    with pytest.raises(ValueError):
        box_sequence([5], DIAG_5431, steps=1)
    # terms and step counts are ints, never coerced: each refusal names the value
    for sigma, steps, message in (
        ([True, 2], 2, "sequence term True is not an integer in 1..4"),
        ([1.0, 2], 2, "sequence term 1.0 is not an integer in 1..4"),
        ([1, 2.5], 2, "sequence term 2.5 is not an integer in 1..4"),
        ([1, "1"], 2, "sequence term '1' is not an integer in 1..4"),
        ([1, 2], True, "prefix length must be an integer, got True"),
        ([1, 2], 2.0, "prefix length must be an integer, got 2.0"),
    ):
        with pytest.raises(ValueError) as refused:
            box_sequence(sigma, DIAG_5431, steps=steps)
        assert str(refused.value) == message
    with pytest.raises(ValueError):
        tableau_from_box_sequence(box_sequence([1], DIAG_5431, steps=1), DIAG_5431)


def test_box_sequence_refuses_negative_steps():
    diag = staircase_diagonal(Rectangle(3, 4))
    with pytest.raises(ValueError, match="prefix length must be nonnegative, got -1"):
        box_sequence([1, 2, 3, 1], diag, steps=-1)


def test_box_sequence_trace():
    run = box_sequence([2, 4], DIAG_5431, steps=2, trace=True)
    assert run.trace is not None and len(run.trace) == 3
    assert run.trace[0].entries == superstandard_choice(parse_partition("432")).entries


def test_box_sequence_intermediate_states():
    # driving with the repeated inverse word of 3142 and the worked-case
    # slide order: after each step the moved entry parked on the diagonal
    # is deleted, leaving these fillings
    run = box_sequence(
        inverse_word_sequence(W3142), DIAG_5431, CHOICE_4x6, steps=2, trace=True
    )
    assert run.boxes == (Box(1, 1), Box(1, 2))
    u1 = {(1, 2): 1, (1, 3): 3, (1, 4): 7, (2, 1): 2, (2, 2): 4, (2, 3): 6, (3, 1): 5, (3, 2): 8}
    u2 = {(1, 3): 1, (1, 4): 3, (2, 1): 2, (2, 2): 4, (2, 3): 6, (3, 1): 5, (3, 2): 8}
    assert run.trace[1].entries == {Box(*b): v for b, v in u1.items()}
    assert run.trace[2].entries == {Box(*b): v for b, v in u2.items()}


def test_box_sequence_stops_sliding_once_its_grid_is_empty(monkeypatch):
    # each slide that moves deletes one entry; once none is left the later
    # terminals are their own diagonal boxes, recorded without a slide.  A
    # traced run slides every term, and must give the same run
    slides = []
    slide = sequences.grid_slide
    monkeypatch.setattr(sequences, "grid_slide", lambda *a: slides.append(a[2]) or slide(*a))
    rng = random.Random(11)
    for rect in (Rectangle(3, 5), Rectangle(3, 3), Rectangle(2, 6, n_is_rows=False)):
        d = staircase_diagonal(rect if rect.ncols == rect.n else rect.transposed())
        for _ in range(40):
            sigma = [rng.randint(1, d.n) for _ in range(rng.randint(0, 4 * d.n * (d.lambda_minus.size + 1)))]
            slides.clear()
            run = box_sequence(sigma, d, steps=len(sigma))
            moved = [k for k, (s, b) in enumerate(zip(run.sigma_prefix, run.boxes), start=1) if b != d.boxes[s - 1]]
            # every slide up to the last one that moves, and no other
            assert len(slides) == (moved[-1] if len(moved) == d.lambda_minus.size else len(sigma))
            full = box_sequence(sigma, d, steps=len(sigma), trace=True)
            assert (run.sigma_prefix, run.boxes, run.delta) == (full.sigma_prefix, full.boxes, full.delta)
            assert len(full.trace) == len(sigma) + 1


def test_box_sequence_default_filling_is_the_superstandard_choice():
    # with no choice the filling is seeded from the cached plan's slide
    # starts; runs and frames must match an explicit superstandard choice
    for rect in (Rectangle(3, 4), Rectangle(3, 5), Rectangle(4, 4)):
        for d in enumerate_diagonals(rect):
            choice = superstandard_choice(d.lambda_minus)
            for w in all_permutations(rect.n):
                for sigma in (inverse_word_sequence(w), descent_sequence(w)):
                    run = box_sequence(sigma, d, trace=True)
                    assert run == box_sequence(sigma, d, choice, trace=True), (rect, d.lambda_plus, w)
                    assert run.trace[0].entries == choice.entries


# -- descent-sequence closed forms ---------------------------------------------


def test_column_sequence_examples():
    assert column_sequence((3, 1), 4, 8) == (1, 1, 2, 3, 1, 2, 3, 4)
    assert column_sequence((), 3, 7) == (1, 2, 3, 1, 2, 3, 1)
    with pytest.raises(ValueError):
        column_sequence((1, 2), 4, 5)
    with pytest.raises(ValueError):
        column_sequence((4,), 4, 5)
    # the descents and n pass through `DescentSequence`, which coerces neither
    with pytest.raises(ValueError, match=r"^n and the descents must be integers, got n=True, descents \(\)$"):
        column_sequence((), True, 3)
    with pytest.raises(ValueError, match=r"^n and the descents must be integers, got n=2\.0, descents \(1,\)$"):
        column_sequence((1,), 2.0, 3)
    with pytest.raises(ValueError, match=r"^n and the descents must be integers, got n=3, descents \(True,\)$"):
        column_sequence((True,), 3, 4)


def test_column_sequence_refuses_n_below_1():
    # at n = 0 every block 1..n - d_j is empty, so no count is ever reached
    with pytest.raises(ValueError, match="n must be >= 1"):
        column_sequence((), 0, 3)


def test_column_sequence_refuses_a_negative_count():
    with pytest.raises(ValueError, match=r"^prefix length must be nonnegative, got -2$"):
        column_sequence((), 3, -2)
    assert column_sequence((), 3, 0) == ()


def cols_orientation_cases():
    rect = Rectangle(4, 6, n_is_rows=False)  # 6 rows, 4 columns
    return rect, enumerate_diagonals(rect)


def test_delta_closed_form_examples():
    rect, diags = cols_orientation_cases()
    lam = diags[0].lambda_plus
    n = 4
    ident = delta_closed_form(identity(n), lam)
    assert ident == {i: lam.col_len(i) - 1 for i in range(1, n + 1)}
    w0 = Permutation(tuple(range(n, 0, -1)))
    assert delta_closed_form(w0, lam) == {
        i: lam.col_len(i) + 2 * i - n - 2 for i in range(1, n + 1)
    }
    with pytest.raises(ValueError):
        delta_closed_form(identity(4), parse_partition("321"))


# -- corner peeling ---------------------------------------------------------------


def test_peeling_single_cell():
    d = Diagonal(Partition((1,)))
    t = forward_tableau_by_peeling(Permutation((1,)), d, [Box(1, 1)])
    assert t.entries == {Box(1, 1): 1}


def test_peeling_validation():
    d = staircase_diagonal(Rectangle(2, 2))
    with pytest.raises(ValueError):
        forward_tableau_by_peeling(Permutation((1, 2)), d, [Box(1, 1), Box(1, 2), Box(2, 1), Box(2, 2)])
    with pytest.raises(ValueError):
        forward_tableau_by_peeling(Permutation((1, 2)), d, [Box(2, 2), Box(2, 1), Box(1, 2)])


# -- insertion route ---------------------------------------------------------------


def test_augmented_insertion_tableau_example():
    t = augmented_insertion_tableau(parse_permutation("132"), 2, parse_partition("211"))
    assert t.row_tuples() == ((1, 2), (3,), (4,))
    full = augmented_insertion_tableau(parse_permutation("132"), 2)
    assert full.row_tuples() == ((1, 2, 5), (3, 6), (4,))


def test_augmented_insertion_tableau_single_cell():
    t = augmented_insertion_tableau(identity(3), 2, Partition((1,)))
    assert t.entries == {Box(1, 1): 1}


def test_augmented_insertion_validation():
    with pytest.raises(ValueError):
        augmented_insertion_tableau(parse_permutation("132"), 2, parse_partition("1111"))
    with pytest.raises(ValueError):
        augmented_insertion_tableau(parse_permutation("132"), 2, parse_partition("4"))


def test_insertion_route_equals_slides_route():
    for n, m in [(2, 2), (3, 4)]:
        rect = Rectangle(n, m)
        for w in all_permutations(n):
            assert minimal_orbit_tableau(w, rect, via="insertion") == minimal_orbit_tableau(w, rect)
    # a square spelled with n_is_rows=False is the same rectangle, so the
    # insertion route takes it and the plan cache keeps one entry for it
    square = Rectangle(3, 3, n_is_rows=False)
    d = staircase_diagonal(square)
    for w in all_permutations(3):
        assert minimal_orbit_tableau(w, square, via="insertion") == minimal_orbit_tableau(w, Rectangle(3, 3))
    assert _slide_plan(d, square) is _slide_plan(d, Rectangle(3, 3))


def test_tall_rectangle_is_refused_on_both_routes():
    for via in ("slides", "insertion"):
        with pytest.raises(ValueError, match="m >= n"):
            minimal_orbit_tableau(parse_permutation("132"), Rectangle(3, 2), via=via)
