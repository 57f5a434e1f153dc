import io
import itertools
import json
import random
import sys

import pytest

from taquin.cli import main
from taquin.orbits import box_sequence, forward_tableau, minimal_orbit_tableau, reverse_tableau
from taquin.shapes import Box, Partition, Rectangle, SkewShape, enumerate_diagonals, parse_partition, removable_corners
from taquin.tableaux import (
    PartialTableau,
    TableauError,
    TableauFormatError,
    complement_tableau,
    dumps,
    format_grid,
    from_file_dict,
    from_grid,
    from_rows,
    _grid_layout,
    grid_slide,
    inverse_promotion,
    is_standard_normalized,
    loads,
    promotion,
    promotion_order,
    rectify,
    to_file_dict,
    to_grid,
)
from taquin.sweep import standard_tableaux
from taquin.words import Permutation, all_permutations, insertion_tableau, inverse_word_sequence, reading_word_of_rows


# -- independent oracles ---------------------------------------------------


def slide_recursive(entries, region, hole):
    """One-swap-at-a-time recursive forward slide, independent of the
    library's loop."""
    r, c = hole
    right = entries.get((r, c + 1))
    below = entries.get((r + 1, c))
    if right is None and below is None:
        return entries, hole
    if below is None or (right is not None and right < below):
        nxt = (r, c + 1)
    else:
        nxt = (r + 1, c)
    new = dict(entries)
    new[hole] = new.pop(nxt)
    return slide_recursive(new, region, nxt)


def promotion_by_generic_rectification(t):
    """Promotion spelled as delete-1 / decrement / rectify / append, with
    rectify done by the generic skew rectification."""
    outer = t.region.outer
    n_cells = t.size
    entries = {b: v - 1 for b, v in t.entries.items() if v != 1}
    skew = PartialTableau(SkewShape(outer, Partition((1,))), entries)
    rect = rectify(skew)
    new = dict(rect.entries)
    new[Box(outer.nrows, outer.ncols)] = n_cells
    return PartialTableau(SkewShape(outer), new)


def partial_tableaux_of(shape_text, inner_text="[]"):
    """Every partial tableau reachable by erasing entries from a standard
    filling of the skew region (relative order is all the slides see)."""
    outer, inner = parse_partition(shape_text), parse_partition(inner_text)
    region = SkewShape(outer, inner)
    cells = list(region.cells())
    fillings = []

    def fill(k, heights, current):
        if k > len(cells):
            fillings.append(dict(current))
            return
        for b in cells:
            if b in current:
                continue
            left = (b.row, b.col - 1)
            above = (b.row - 1, b.col)
            if (left in current or left not in region) and (above in current or above not in region):
                current[b] = k
                fill(k + 1, heights, current)
                del current[b]

    fill(1, None, {})
    out = []
    for filling in fillings:
        for keep in itertools.product((False, True), repeat=len(cells)):
            sub = {b: v for (b, v), k in zip(filling.items(), keep) if k}
            out.append(PartialTableau(region, sub))
    return out


# -- construction and validation ---------------------------------------------


def test_validation_errors():
    region = SkewShape(parse_partition("22"))
    with pytest.raises(TableauError):
        PartialTableau(region, {(1, 3): 1})
    with pytest.raises(TableauError):
        PartialTableau(region, {(1, 1): 2, (1, 2): 1})
    with pytest.raises(TableauError):
        PartialTableau(region, {(1, 1): 1, (2, 1): 1})
    with pytest.raises(TableauError):
        PartialTableau(region, {(1, 1): 0})
    # gaps are allowed: strictness binds adjacent filled cells only
    PartialTableau(region, {(1, 1): 5, (2, 2): 1})


def test_row_round_trip():
    t = from_rows([[1, 2, 6], [3, None, 7], [5, 9]], inner=[1])
    assert t.region.outer == parse_partition("432")
    assert t.region.inner == parse_partition("1")
    assert t.row_tuples() == ((1, 2, 6), (3, None, 7), (5, 9))
    assert t[(1, 3)] == 2
    assert not t.is_filled((2, 2))


def test_standard_from_rows():
    assert is_standard_normalized(from_rows([[1, 2], [3, 4]]))
    assert not is_standard_normalized(from_rows([[1, 3], [2, 5]]))


def _partitions(total, largest=None):
    largest = total if largest is None else largest
    if total == 0:
        yield ()
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first, *rest)


def _first_fault(entries):
    """The message the validator must raise for `entries`, a box -> value
    map of region cells in row-major order, or None for a valid filling:
    the first value that is not an int, then per cell a value below 1, a
    right or a lower neighbour not above it, and last a repeated value."""
    for b, v in entries.items():
        if type(v) is not int:
            return f"entry {v!r} at {tuple(b)} is not an integer"
    for (r, c), v in entries.items():
        if v < 1:
            return f"non-positive entry {v} at {(r, c)}"
        for name, n in (("row", (r, c + 1)), ("column", (r + 1, c))):
            if n in entries and entries[n] <= v:
                return f"{name} not increasing at {(r, c)}: {v} !< {entries[n]}"
    return "duplicate entries" if len(set(entries.values())) != len(entries) else None


def _assert_grid_messages(region, grid):
    """`from_grid` raises the first fault of the grid's filled region
    cells, or returns the tableau of exactly those entries in row-major
    order, which the dict route builds too."""
    entries = {b: v for i, b in _grid_layout(region).cells.items() if (v := grid[i])}
    fault = _first_fault(entries)
    if fault is not None:
        with pytest.raises(TableauError) as got:
            from_grid(region, grid)
        assert str(got.value) == fault
        return
    got = from_grid(region, grid[:])
    assert list(got.entries.items()) == list(entries.items())
    assert got == PartialTableau(region, entries)


def _assert_grid_messages_on_mutations(t, rng):
    """The grid of t as it is, and with two adjacent entries swapped, a
    cell set to 0 or -1, an entry duplicated, and True or 2.0 in a cell."""
    grid, width = to_grid(t.region, t.entries)
    cells = list(_grid_layout(t.region).cells)
    pairs = [(i, j) for i in cells for j in (i + 1, i + width) if j in cells]
    _assert_grid_messages(t.region, grid)
    mutations = []
    if cells:
        i = rng.choice(cells)
        mutations += [(i, v) for v in (0, -1, True, 2.0)]
    if len(cells) > 1:
        i, j = rng.sample(cells, 2)
        mutations.append((i, grid[j]))
    if pairs:
        i, j = rng.choice(pairs)
        mutations.append(((i, j), None))
    for where, v in mutations:
        g = grid[:]
        if v is None:
            i, j = where
            g[i], g[j] = g[j], g[i]
        else:
            g[where] = v
        _assert_grid_messages(t.region, g)


def test_grid_validator_names_the_first_fault():
    rng = random.Random(17)
    for total in range(11):
        for rows in _partitions(total):
            for syt in standard_tableaux(Partition(rows)):
                _assert_grid_messages_on_mutations(from_rows(syt), rng)
    for rect in (Rectangle(3, 4), Rectangle(4, 4)):
        for d in enumerate_diagonals(rect):
            for w in all_permutations(rect.n):
                plus, frames = forward_tableau(w, d, trace=True)
                minus, back = reverse_tableau(w, d, rect, trace=True)
                run = box_sequence(inverse_word_sequence(w), d, trace=True)
                for t in (plus, minus, *frames, *back, *run.trace):
                    _assert_grid_messages_on_mutations(t, rng)


def _assert_row_messages(rows, inner):
    """`from_rows` raises the first fault of the rows' non-None entries (a
    0 among them), or returns the tableau of exactly those entries in
    row-major order; a tableau it returns goes back to the same rows and
    to the JSON of those rows."""
    inner = Partition(tuple(inner))
    starts = [inner.row_len(i) for i in range(1, len(rows) + 1)]
    region = SkewShape(Partition(tuple(s + len(row) for s, row in zip(starts, rows))), inner)
    entries = {
        Box(i, s + j): v
        for i, (s, row) in enumerate(zip(starts, rows), start=1)
        for j, v in enumerate(row, start=1)
        if v is not None
    }
    fault = _first_fault(entries)
    if fault is not None:
        with pytest.raises(TableauError) as got:
            from_rows(rows, inner)
        assert str(got.value) == fault
        return
    got = from_rows(rows, inner)
    assert list(got.entries.items()) == list(entries.items())
    assert got == PartialTableau(region, entries)
    assert got.row_lists() == [list(row) for row in rows]
    assert from_rows(got.row_lists(), inner) == got
    d = {"outer": list(region.outer.rows)}
    if inner.rows:
        d["inner"] = list(inner.rows)
    d["rows"] = [list(row) for row in rows]
    assert dumps(got) == json.dumps(d)


def _row_mutations(t, rng):
    """The rows of t with a cell set to 0, -1, True, 2.0, "3" or None, an
    entry duplicated, and two adjacent cells swapped."""
    rows = t.row_lists()
    # cell (r, c) sits at rows[r - 1][c - inner row length - 1]
    at = {b: (b.row - 1, b.col - t.region.inner.row_len(b.row) - 1) for b in t.region.cells()}
    cells = list(at)
    pairs = [(b, n) for b in cells for n in (Box(b.row, b.col + 1), Box(b.row + 1, b.col)) if n in at]
    mutations = []
    if cells:
        b = rng.choice(cells)
        mutations += [((b, v),) for v in (0, -1, True, 2.0, "3", None)]
    if len(cells) > 1:
        b, c = rng.sample(cells, 2)
        mutations.append(((b, t.get(c)),))
    if pairs:
        b, c = rng.choice(pairs)
        mutations.append(((b, t.get(c)), (c, t.get(b))))
    out = []
    for changes in mutations:
        new = [list(row) for row in rows]
        for b, v in changes:
            i, j = at[b]
            new[i][j] = v
        out.append(new)
    return out


def test_rows_validator_names_the_first_fault():
    rng = random.Random(23)
    # every SYT of up to 10 cells, each with one of its mutations in turn
    k = 0
    for total in range(11):
        for rows in _partitions(total):
            for syt in standard_tableaux(Partition(rows)):
                _assert_row_messages(syt, ())
                if total:
                    mutations = _row_mutations(from_rows(syt), rng)
                    _assert_row_messages(mutations[k % len(mutations)], ())
                    k += 1
    # skew regions, one with a row of no cells, and partial fillings, each
    # with every mutation
    tableaux = [t for shapes in (("332", "21"), ("22", "21"), ("431", "2")) for t in partial_tableaux_of(*shapes)]
    rect = Rectangle(3, 4)
    for d in enumerate_diagonals(rect):
        for w in all_permutations(rect.n):
            plus, frames = forward_tableau(w, d, trace=True)
            minus, back = reverse_tableau(w, d, rect, trace=True)
            tableaux += [plus, minus, *frames, *back]
    for t in tableaux:
        _assert_row_messages(t.row_lists(), t.region.inner.rows)
        for rows in _row_mutations(t, rng):
            _assert_row_messages(rows, t.region.inner.rows)


def _count_calls(monkeypatch, module, name):
    """Count the calls of module.name, also from the module's own code."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_built_tableaux_skip_the_validator(monkeypatch, capsys):
    import taquin.tableaux as tableaux

    rect = Rectangle(6, 10)
    t = minimal_orbit_tableau(Permutation((3, 1, 6, 2, 5, 4)), rect)
    text = dumps(t)
    inits = _count_calls(monkeypatch, PartialTableau, "__init__")
    screens = _count_calls(monkeypatch, tableaux, "_validate")
    for w in all_permutations(6):
        minimal_orbit_tableau(w, rect)
    assert len(screens) == 720  # the splice; the halves are not checked apart
    assert promotion(inverse_promotion(t)) == t
    assert len(screens) == 720  # a promotion step builds unchecked
    # parsed input is screened on its grid once
    screens.clear()
    assert loads(text) == t
    assert len(screens) == 1
    # a whole construct | promote --steps k | invert op: construct's splice,
    # two parses and the splice of the T_w that invert rebuilds
    for steps in (0, 1, 5):
        screens.clear()
        assert main(["construct", "--m", "10", "--w", "316254"]) == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))
        assert main(["promote", "--steps", str(steps)]) == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))
        assert main(["invert"]) == 0
        capsys.readouterr()
        assert len(screens) == 4, steps
    assert len(inits) == 0
    # an invalid parsed tableau is named by the same one check
    screens.clear()
    bad = json.loads(text)
    bad["rows"][0][0], bad["rows"][0][1] = bad["rows"][0][1], bad["rows"][0][0]
    with pytest.raises(TableauFormatError, match=r"^row not increasing at \(1, 1\): 2 !< 1$"):
        loads(json.dumps(bad))
    assert (len(screens), len(inits)) == (1, 0)


def test_unchecked_builds_equal_what_the_validator_builds():
    # promotion steps and the halves of T_w are built without the
    # validator; each must be the tableau the validator builds from its
    # entries, down to the empty grid cells outside the region
    def assert_checked(t):
        assert t == PartialTableau(t.region, t.entries)

    for nrows in range(1, 13):
        for ncols in range(1, 12 // nrows + 1):
            for rows in standard_tableaux(Partition((ncols,) * nrows)):
                t = from_rows(rows)
                assert_checked(promotion(t))
                assert_checked(inverse_promotion(t))
    for rect in (Rectangle(3, 3), Rectangle(3, 4), Rectangle(4, 4)):
        for d in enumerate_diagonals(rect):
            for w in all_permutations(rect.n):
                assert_checked(forward_tableau(w, d, screen=False))
                assert_checked(reverse_tableau(w, d, rect, screen=False))
                assert_checked(minimal_orbit_tableau(w, rect, d))


def test_from_grid_keeps_a_copy_of_its_grid():
    t = from_rows([[1, 2, 5], [3, 4]])
    grid = t.grid[:]
    got = from_grid(t.region, grid)
    grid[:] = [0] * len(grid)  # the caller slides on in its own grid
    assert got == t and hash(got) == hash(t) and got.row_lists() == [[1, 2, 5], [3, 4]]


# -- slides ------------------------------------------------------------------


def worked_start():
    region = SkewShape(parse_partition("5431"))
    return PartialTableau(region, {(4, 1): 3, (3, 3): 1, (2, 4): 4, (1, 5): 2})


def slide(t, hole, forward=True):
    """One slide of the empty cell `hole` through `grid_slide`: the slid
    tableau and the path of boxes the hole visits, `hole` first.  The path
    is read off the cells whose values changed: a forward path only moves
    to larger grid indices and a reverse one to smaller, and a slide that
    never moves changes nothing."""
    grid, width = to_grid(t.region, t.entries)
    start = hole[0] * width + hole[1]
    before = grid[:]
    grid_slide(grid, width, start, forward)
    changed = sorted((i for i, (a, b) in enumerate(zip(before, grid)) if a != b), reverse=not forward)
    path = changed or [start]
    assert path[0] == start
    return from_grid(t.region, grid), tuple(Box(*divmod(i, width)) for i in path)


def test_forward_slide_first_worked_step():
    slid, path = slide(worked_start(), (2, 3))
    assert path[-1] == Box(3, 3)
    assert slid[(2, 3)] == 1
    assert not slid.is_filled((3, 3))
    assert path == (Box(2, 3), Box(3, 3))


def test_forward_slide_trivial():
    t = worked_start()
    slid, path = slide(t, (1, 1))
    assert path == (Box(1, 1),)
    assert slid == t


def test_forward_slide_2x2_against_recursive_oracle():
    region = SkewShape(parse_partition("22"))
    t = PartialTableau(region, {(1, 2): 1, (2, 1): 2, (2, 2): 3})
    slid, path = slide(t, (1, 1))
    oracle_entries, oracle_terminal = slide_recursive(dict(t.entries), region, (1, 1))
    assert path[-1] == Box(*oracle_terminal)
    assert dict(slid.entries) == {Box(*b): v for b, v in oracle_entries.items()}
    assert path[-1] == Box(2, 2)
    assert slid.row_tuples() == ((1, 3), (2, None))


def test_reverse_slide_first_worked_step():
    region = SkewShape(Partition((6,) * 4), parse_partition("432"))
    t = PartialTableau(region, {(4, 1): 23, (3, 3): 21, (2, 4): 24, (1, 5): 22})
    slid, path = slide(t, (3, 4), forward=False)
    assert path[-1] == Box(2, 4)
    assert slid[(3, 4)] == 24
    assert not slid.is_filled((2, 4))


def test_slide_duality_exhaustive_small_regions():
    configs = [("22", "[]"), ("32", "1"), ("331", "21"), ("222", "1"), ("431", "[]")]
    checked = 0
    for outer, inner in configs:
        for t in partial_tableaux_of(outer, inner):
            for hole in t.region.cells():
                r, c = hole
                # a forward slide starts at an empty cell with nothing filled left of or above it
                if t.is_filled(hole) or t.is_filled((r, c - 1)) or t.is_filled((r - 1, c)):
                    continue
                slid, path = slide(t, hole)
                back, back_path = slide(slid, path[-1], forward=False)
                assert back == t
                assert back_path == tuple(reversed(path))
                checked += 1
    assert checked > 500


def test_reverse_then_forward_duality():
    region = SkewShape(parse_partition("5431"))
    t = PartialTableau(region, {(3, 2): 4, (3, 3): 9, (2, 3): 1, (2, 4): 8})
    slid, path = slide(t, (1, 5), forward=False)
    back, _ = slide(slid, path[-1])
    assert back == t


# -- promotion ----------------------------------------------------------------


def test_promotion_2x2():
    t = from_rows([[1, 2], [3, 4]])
    assert promotion(t).row_tuples() == ((1, 3), (2, 4))
    assert promotion(t) == promotion_by_generic_rectification(t)


def test_promotion_matches_generic_rectification():
    for nrows, ncols in [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 6)]:
        for rows in standard_tableaux(Partition((ncols,) * nrows)):
            t = from_rows(rows)
            assert promotion(t) == promotion_by_generic_rectification(t)


def test_promotion_full_cycle_identity():
    for nrows, ncols in [(2, 2), (2, 3), (3, 3), (2, 5)]:
        for rows in standard_tableaux(Partition((ncols,) * nrows)):
            t = from_rows(rows)
            cur = t
            for _ in range(nrows * ncols):
                cur = promotion(cur)
            assert cur == t


def test_promotion_is_bijective_on_small_rectangles():
    for nrows, ncols in [(2, 3), (3, 3), (2, 4)]:
        all_t = [from_rows(rows) for rows in standard_tableaux(Partition((ncols,) * nrows))]
        images = {promotion(t) for t in all_t}
        assert images == set(all_t)


def test_inverse_promotion_is_promotion_to_the_n_minus_1():
    for nrows, ncols in [(2, 3), (2, 5), (3, 3), (3, 4)]:
        for rows in standard_tableaux(Partition((ncols,) * nrows)):
            t = from_rows(rows)
            back = inverse_promotion(t)
            cur = t
            for _ in range(nrows * ncols - 1):
                cur = promotion(cur)
            assert back == cur
            assert promotion(back) == t
            assert inverse_promotion(promotion(t)) == t


@pytest.mark.parametrize("step, name", [(promotion, "promotion"), (inverse_promotion, "inverse promotion")])
def test_promotion_steps_name_themselves_in_errors(step, name):
    skew = from_rows([[1, 2], [3, 4]], inner=[1])
    with pytest.raises(TableauError, match=f"^{name} needs a full rectangle region$"):
        step(skew)
    partial = from_rows([[1, None], [2, 3]])
    with pytest.raises(TableauError, match=f"^{name} needs a standard tableau with entries 1..N$"):
        step(partial)


def test_promotion_rejects_bad_input():
    with pytest.raises(TableauError):
        promotion(from_rows([[1, 2], [3]]))
    with pytest.raises(TableauError):
        promotion(from_rows([[2, 3], [4, 5]]))


def test_promotion_order_examples():
    t = from_rows([[1, 2], [3, 5], [4, 6]])
    assert promotion_order(t) == 3
    # the unique standard tableau of a single row is fixed by promotion
    for m in (1, 2, 5):
        row = from_rows([list(range(1, m + 1))])
        assert promotion_order(row) == 1
    assert promotion_order(from_rows([[1, 2], [3, 4]])) == 2


# -- complement, reading words, rectify ---------------------------------------


def test_complement_tableau():
    rect = Rectangle(2, 2)
    t = from_rows([[1, 2], [3, 4]])
    c = complement_tableau(t, rect)
    assert c.row_tuples() == ((1, 2), (3, 4))  # self-complementary here
    t2 = from_rows([[1, 3], [2]])
    c2 = complement_tableau(t2, rect)
    assert c2.region.outer == parse_partition("22")
    assert c2.region.inner == parse_partition("1")
    assert c2[(2, 1)] == 4 + 1 - 3
    assert complement_tableau(c2, rect) == t2
    single = PartialTableau(SkewShape(parse_partition("1")), {(1, 1): 3})
    cs = complement_tableau(single, Rectangle(2, 3))
    assert cs.entries == {Box(2, 3): 6 + 1 - 3}


def test_complement_preserves_standardness():
    rect = Rectangle(3, 4)
    for rows in itertools.islice(standard_tableaux(Partition((4, 4, 4))), 50):
        t = from_rows(rows)
        assert is_standard_normalized(complement_tableau(t, rect))


def test_reading_word():
    t = from_rows([[1, 2], [3, 4]])
    assert reading_word_of_rows(t.row_tuples()) == (3, 4, 1, 2)
    assert insertion_tableau(reading_word_of_rows(t.row_tuples())) == ((1, 2), (3, 4))
    assert reading_word_of_rows(from_rows([[1, 2, 3]]).row_tuples()) == (1, 2, 3)
    assert reading_word_of_rows(from_rows([[1], [2], [3]]).row_tuples()) == (3, 2, 1)


def test_reading_word_insertion_round_trip():
    for shape in [Partition((3, 2)), Partition((2, 2, 1)), Partition((4, 1))]:
        for rows in standard_tableaux(shape):
            t = from_rows(rows)
            assert insertion_tableau(reading_word_of_rows(t.row_tuples())) == rows


def test_rectify_matches_insertion_of_reading_word():
    skews = [
        from_rows([[2, 4], [1, 3], [5]], inner=[2, 1]),
        from_rows([[3], [1, 4], [2, 5]], inner=[2]),
        from_rows([[1, 2], [3, 4]], inner=[]),
    ]
    for t in skews:
        word = reading_word_of_rows(t.row_tuples())
        assert rectify(t).row_tuples() == insertion_tableau(word)


def test_rectify_order_independent_small():
    # slide from a random inner corner each time; result must not change
    rng = random.Random(3)
    t = from_rows([[2, 4], [1, 3], [5]], inner=[2, 1])
    expected = rectify(t)

    def rectify_random(t, rng):
        outer, inner = t.region.outer, t.region.inner
        cur = PartialTableau(SkewShape(outer), t.entries)
        inner_rows = list(inner.rows)
        while any(inner_rows):
            corner = rng.choice(removable_corners(Partition(tuple(inner_rows))))
            cur, _ = slide(cur, corner)
            inner_rows[corner.row - 1] -= 1
        shape = tuple(
            sum(1 for c in range(1, outer.row_len(r) + 1) if cur.is_filled((r, c)))
            for r in range(1, outer.nrows + 1)
        )
        return PartialTableau(SkewShape(Partition(shape)), cur.entries)

    for _ in range(20):
        assert rectify_random(t, rng) == expected


# -- serialization -------------------------------------------------------------


def test_json_round_trip():
    t = from_rows([[None, 2], [3, 5], [4, 6]], inner=[])
    d = to_file_dict(t)
    assert d == {"outer": [2, 2, 2], "rows": [[None, 2], [3, 5], [4, 6]]}
    assert from_file_dict(json.loads(dumps(t))) == t
    skew = from_rows([[14], [12], [13], [7]], inner=[4, 3, 2])
    d2 = to_file_dict(skew)
    assert d2["inner"] == [4, 3, 2]
    assert loads(dumps(skew)) == skew


def test_json_errors():
    with pytest.raises(TableauFormatError):
        loads("not json")
    with pytest.raises(TableauFormatError):
        from_file_dict({"rows": [[1]]})
    with pytest.raises(TableauFormatError):
        from_file_dict({"outer": [2], "rows": [[1]]})
    with pytest.raises(TableauFormatError):
        from_file_dict({"outer": [2, 1], "rows": [[1, 2]]})
    # invalid entries in a well-shaped file are also a parse failure
    with pytest.raises(TableauFormatError):
        from_file_dict({"outer": [2], "rows": [[2, 1]]})


def test_format_grid():
    t = from_rows([[None, 2], [3, 5]], inner=[])
    assert format_grid(t) == ". 2\n3 5"
    skew = from_rows([[1]], inner=[1])
    assert format_grid(skew) == "  1"
