import io
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

import taquin
from taquin.cli import main
from taquin.orbits import forward_tableau, minimal_orbit_tableau, reverse_tableau
from taquin.sequences import box_sequence, inverse_word_sequence, reading_word_of_rows
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
    grid_size,
    grid_slide,
    inverse_promotion,
    is_standard_normalized,
    loads,
    promotion,
    rectify,
    to_file_dict,
)
from taquin.sweep import standard_tableaux
from taquin.words import Permutation, all_permutations, insertion_tableau


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


def _assert_every_door(region, values, doors=("grid", "rows", "dict")):
    """Each door builds the tableau of `values`, the region's cells in
    row-major order (None: an empty cell), or raises `_first_fault`'s
    message for the entries it reads of them.  The grid door (`from_grid`)
    reads a 0 as an empty cell; the rows door (`from_rows`, and `loads` of
    their JSON) and the dict door (`PartialTableau`, given no empty cell)
    read it as an entry.  Every valid build is the same tableau."""
    boxes = list(region.cells())
    width, length = grid_size(region.outer.nrows, region.outer.ncols)
    entries = {b: v for b, v in zip(boxes, values) if v is not None}
    grid = [0] * length
    for (r, c), v in entries.items():
        grid[r * width + c] = v
    lengths = [o - i for o, i in itertools.zip_longest(region.outer.rows, region.inner.rows, fillvalue=0)]
    ends = list(itertools.accumulate(lengths))
    row_boxes = [boxes[start:end] for start, end in zip([0, *ends], ends)]
    rows = [values[start:end] for start, end in zip([0, *ends], ends)]
    d = {"outer": list(region.outer.rows), "inner": list(region.inner.rows), "rows": rows}
    if not region.inner.rows:
        del d["inner"]
    on_grid = {b: v for b, v in entries.items() if v}
    builds = {
        "grid": [(lambda: from_grid(region, grid), on_grid, TableauError)],
        "rows": [
            (lambda: from_rows(rows, region.inner), entries, TableauError),
            (lambda: loads(json.dumps(d)), entries, TableauFormatError),
        ],
        "dict": [(lambda: PartialTableau(region, entries), entries, TableauError)],
    }
    built = set()
    for door in doors:
        for build, read, error in builds[door]:
            fault = _first_fault(read)
            try:
                t = build()
            except error as exc:
                assert str(exc) == fault, door
                continue
            assert fault is None, door
            assert list(t.entries.items()) == list(read.items()), door
            assert t.row_lists() == [[read.get(b) for b in row] for row in row_boxes], door
            assert dumps(t) == json.dumps({**d, "rows": t.row_lists()}), door
            built.add(t)
    assert len(built) <= 1


def _mutations(region, values, k, rng):
    """`values` with a cell set to 0, -1, True, 2.0 or "3", erased or given
    the value of a random cell, and with an adjacent pair swapped.  The
    cells are the 7k-th and on in row-major order (mod their count) and
    the pair the k-th, so that k = 0, 1, ... mutates every cell in turn."""
    if not values:
        return []
    boxes = list(region.cells())
    at = {b: i for i, b in enumerate(boxes)}
    pairs = [(i, at[n]) for i, (r, c) in enumerate(boxes) for n in ((r, c + 1), (r + 1, c)) if n in at]
    out = []
    for j, v in enumerate((0, -1, True, 2.0, "3", None, values[rng.randrange(len(values))])):
        out.append(values[:])
        out[-1][(7 * k + j) % len(values)] = v
    if pairs:
        i, j = pairs[k % len(pairs)]
        out.append(values[:])
        out[-1][i], out[-1][j] = values[j], values[i]
    return out


def _syt_inputs():
    """(region, cell values in row-major order) for every shape of up to 10
    cells: every SYT of up to 7 cells, and of 8-10 cells the first, the
    last and two seeded draws, so that a shape's fillings, 7 cell
    mutations each taken in turn, reach every cell."""
    rng = random.Random(30)
    inputs = []
    for total in range(11):
        for rows in _partitions(total):
            syts = list(standard_tableaux(Partition(rows)))
            if total > 7:
                syts = [syts[0], syts[-1], *rng.choices(syts, k=2)]
            inputs += [(SkewShape(Partition(rows)), list(itertools.chain(*syt))) for syt in syts]
    return inputs


def _assert_doors_on_mutations(inputs, doors, seed):
    """Every input, and each of its `_mutations`, through `doors`."""
    rng = random.Random(seed)
    for k, (region, values) in enumerate(inputs):
        for mutated in (values, *_mutations(region, values, k, rng)):
            _assert_every_door(region, mutated, doors)


def _values(tableaux):
    """(region, cell values in row-major order) of each distinct tableau once."""
    return [(t.region, list(itertools.chain(*t.row_lists()))) for t in dict.fromkeys(tableaux)]


def test_grid_validator_names_the_first_fault():
    # the SYT sweep, and the 3x4 and 4x4 construction and box sequence traces
    traces = []
    for rect in (Rectangle(3, 4), Rectangle(4, 4)):
        for d in enumerate_diagonals(rect):
            for w in all_permutations(rect.n):
                plus, frames = forward_tableau(w, d, trace=True)
                minus, back = reverse_tableau(w, d, rect, trace=True)
                run = box_sequence(inverse_word_sequence(w), d, trace=True)
                traces += [plus, minus, *frames, *back, *run.trace]
    inputs = _syt_inputs() + _values(traces)
    _assert_doors_on_mutations(inputs, ("grid",), 17)


def test_rows_validator_names_the_first_fault():
    # a dict is first checked for what rows cannot hold, in its own order
    region = SkewShape(Partition((2, 2)))
    for entries, fault in (
        ({(2, 2): 0, (1, 3): 1}, "entry at (1, 3) outside the region"),
        ({(2, 1): None, (1, 3): 1}, "entry None at (2, 1) is not an integer"),
        ({(1, 3): None}, "entry at (1, 3) outside the region"),
        # a key is a pair of exact ints, never coerced
        *(
            ({key: 1}, f"box {key!r} is not a pair of integers")
            for key in ((True, 1), (1, True), (1, 1.0), (1.0, 1), ("1", 1))
        ),
        ({(1, 3): 1, (1, 1.0): 1}, "entry at (1, 3) outside the region"),
    ):
        with pytest.raises(TableauError) as got:
            PartialTableau(region, entries)
        assert str(got.value) == fault
    # the SYT sweep; skew regions, one with a row of no cells, partial
    # fillings, and the 3x4 construction traces
    tableaux = [t for shapes in (("332", "21"), ("22", "21"), ("431", "2")) for t in partial_tableaux_of(*shapes)]
    rect = Rectangle(3, 4)
    for d in enumerate_diagonals(rect):
        for w in all_permutations(rect.n):
            plus, frames = forward_tableau(w, d, trace=True)
            minus, back = reverse_tableau(w, d, rect, trace=True)
            tableaux += [plus, minus, *frames, *back]
    inputs = _syt_inputs() + _values(tableaux)
    _assert_doors_on_mutations(inputs, ("rows", "dict"), 23)


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
    grid = t.grid[:]
    width = _grid_layout(t.region).width
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


HEAP_SCRIPT = """
import sys
from taquin.tableaux import from_rows, promotion
rows = [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10], [11, 12, 13, 14, 15], [16, 17, 18, 19, 20]]
for _ in range(50):
    promotion(from_rows(rows))
before = sys.getallocatedblocks()
for _ in range(2000):
    promotion(from_rows(rows))
print(sys.getallocatedblocks() - before)
"""


def test_parse_and_promote_keep_the_heap_flat_at_20_cells():
    # CPython 3.11 keeps every freed tuple of 20 items on a free list it
    # never reuses, and a tuple built from a generator is allocated large
    # and freed onto its final size's list; a 4x5 tableau read through
    # either would keep about one block per call.  A fresh process, so
    # that free lists filled by earlier tests cannot hide the growth
    proc = subprocess.run(
        [sys.executable, "-c", HEAP_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(taquin.__file__))},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 200
