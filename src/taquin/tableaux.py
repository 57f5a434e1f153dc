"""Partial and standard tableaux on skew regions, and jeu de taquin.

A PartialTableau keeps a sparse box -> entry map over a skew region, since
the constructions in `orbits` interleave filled and unfilled cells in
irregular patterns.  Every PartialTableau holds distinct positive ints,
strictly increasing between adjacent filled cells, which turns a buggy
slide into a loud error.  The constructor's dict validator checks this for
a tableau built from a dict, and it is the only code that raises a
TableauError about a tableau's contents.

Slides run on a mutable grid instead (`to_grid`, `grid_slide`, `from_grid`),
so a run of slides is checked once, when its public function returns:
`from_grid` screens a filled grid with a few C-level passes over a cached
per-region layout, and sends anything the screen does not pass (a partial
filling, say) to the dict validator.  Parsed rows (`from_rows`, and so
`loads`) take the same screen when every entry is an int >= 1, and go to
the validator otherwise.  `row_lists` (and so `dumps` and `format_grid`)
and `promotion` and its inverse read entries through the same layout.
`grid_slide` is the one slide kernel: the constructions, rectification,
promotion and the orbit sweep's flat promotion all move entries through it,
on the one layout whose width and length `grid_size` gives.

Every public operation is a pure function returning new values; callers
may parallelize freely.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain
from operator import itemgetter, lt
from typing import Callable, Iterable, Mapping, NamedTuple

from .shapes import (
    EMPTY,
    Box,
    Partition,
    Rectangle,
    SkewShape,
    complement_box,
    complement_shape,
    removable_corners,
)


class TableauError(ValueError):
    pass


class TableauFormatError(ValueError):
    """Raised when a tableau file/dict does not parse."""


class PartialTableau:
    """Entries on a subset of the cells of a skew region."""

    __slots__ = ("region", "entries")

    def __init__(self, region: SkewShape, entries: Mapping | Iterable = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        norm = {}
        for b, v in items:
            if type(v) is not int:
                raise TableauError(f"entry {v!r} at {tuple(b)} is not an integer")
            norm[b if type(b) is Box else Box(*b)] = v
        outer_rows = region.outer.rows
        inner_rows = region.inner.rows
        n_inner = len(inner_rows)
        nrows = len(outer_rows)
        get = norm.get
        for (r, c), v in norm.items():
            if not (1 <= r <= nrows and c <= outer_rows[r - 1]) or c <= (inner_rows[r - 1] if r <= n_inner else 0):
                raise TableauError(f"entry at {(r, c)} outside the region")
            if v < 1:
                raise TableauError(f"non-positive entry {v} at {(r, c)}")
            right = get((r, c + 1))
            if right is not None and right <= v:
                raise TableauError(f"row not increasing at {(r, c)}: {v} !< {right}")
            below = get((r + 1, c))
            if below is not None and below <= v:
                raise TableauError(f"column not increasing at {(r, c)}: {v} !< {below}")
        if len(set(norm.values())) != len(norm):
            raise TableauError("duplicate entries")
        self.region = region
        self.entries = norm

    @property
    def size(self) -> int:
        return len(self.entries)

    def get(self, box, default=None):
        return self.entries.get(Box(*box), default)

    def __getitem__(self, box) -> int:
        return self.entries[Box(*box)]

    def is_filled(self, box) -> bool:
        return Box(*box) in self.entries

    def __eq__(self, other):
        return (
            isinstance(other, PartialTableau)
            and self.region == other.region
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.region, frozenset(self.entries.items())))

    def row_lists(self) -> list[list]:
        """One list per region row, covering inner+1..outer columns;
        None marks an unfilled cell."""
        # the layout of to_grid's width, which from_grid has cached too
        layout = _grid_layout(self.region, grid_size(self.region.outer.nrows, self.region.outer.ncols)[0])
        values = _cell_values(self, layout)
        return [list(values[at]) for _, at in layout.rows]

    def row_tuples(self) -> tuple:
        return tuple(tuple(row) for row in self.row_lists())

    def __repr__(self):
        return f"PartialTableau({format_grid(self)!r})"


def from_rows(rows, inner=EMPTY) -> PartialTableau:
    """Build a tableau from per-row entry lists (None = unfilled cell).

    rows[i] covers the cells of row i+1 right of the inner shape.  When
    every entry is an int >= 1 the rows are written into a slide grid and
    screened there by `from_grid`; anything else (an unfilled cell, a 0, a
    bool, a float) goes to the dict validator, so a parsed 0 is never
    taken for an empty grid cell.
    """
    inner = inner if isinstance(inner, Partition) else Partition(tuple(inner))
    outer = Partition(tuple(inner.row_len(i + 1) + len(row) for i, row in enumerate(rows)))
    return _fill_rows(SkewShape(outer, inner), rows)


def _fill_rows(region: SkewShape, rows) -> PartialTableau:
    """`from_rows` on a region whose row lengths the rows already match."""
    values = list(chain.from_iterable(rows))
    if set(map(type, values)) == _INT and min(values) >= 1:
        grid, width = to_grid(region, {})
        for cells, at in _grid_layout(region, width).rows:
            grid[cells] = values[at]
        return from_grid(region, grid)
    entries = {}
    for i, row in enumerate(rows, start=1):
        for j, v in enumerate(row, start=region.inner.row_len(i) + 1):
            if v is not None:
                entries[Box(i, j)] = v
    return PartialTableau(region, entries)


def is_filled(t: PartialTableau) -> bool:
    return t.size == t.region.size


def is_standard_normalized(t: PartialTableau) -> bool:
    """Straight or skew region, all cells filled, entries exactly 1..N.

    The entries of every PartialTableau are distinct positive ints, so
    N of them are exactly 1..N when the largest is N."""
    return is_filled(t) and max(t.entries.values(), default=0) == t.size


def standard_rectangle_dims(t: PartialTableau, what: str) -> tuple[int, int]:
    """(nrows, ncols) of a standard filling 1..N of a full rectangle;
    raises TableauError naming `what` otherwise."""
    outer = t.region.outer
    if t.region.inner.size or not outer.rows or len(set(outer.rows)) != 1:
        raise TableauError(f"{what} needs a full rectangle region")
    if not is_standard_normalized(t):
        raise TableauError(f"{what} needs a standard tableau with entries 1..N")
    return outer.nrows, outer.ncols


def grid_size(nrows: int, ncols: int) -> tuple[int, int]:
    """(width, length) of the package's one slide grid over an nrows x
    ncols rectangle: cell (r, c) at index r * width + c, width = ncols + 1,
    and row 0, row nrows + 1 and column 0 empty.  Column 0 of row r is
    also the cell right of row r - 1, so a slide either way reads its
    neighbours without bounds checks."""
    width = ncols + 1
    return width, (nrows + 2) * width


def to_grid(region: SkewShape, entries: Mapping) -> tuple[list[int], int]:
    """A fresh list grid for `region` holding `entries` (0 marks an empty
    cell), and its width: the `grid_size` layout of its bounding rectangle."""
    width, length = grid_size(region.outer.nrows, region.outer.ncols)
    grid = [0] * length
    for (r, c), v in entries.items():
        grid[r * width + c] = v
    return grid, width


def _reader(index: tuple[int, ...]) -> Callable:
    """A C-level reader of the tuple (grid[i] for i in index)."""
    return itemgetter(*index) if len(index) > 1 else lambda grid: tuple(grid[i] for i in index)


class _GridLayout(NamedTuple):
    """Where a region's cells sit in a grid of some width; shared, so never mutate it."""

    cells: dict[int, Box]  # the region's cells keyed by grid index, row-major
    boxes: tuple[Box, ...]  # the same cells, as a tuple
    rows: tuple[tuple[slice, slice], ...]  # per region row, its cells as slices of the grid and of boxes
    read: Callable  # grid -> the entries of those cells
    lo: Callable  # grid -> per pair of adjacent region cells, the left or upper entry
    hi: Callable  # grid -> per pair, the right or lower entry


@lru_cache(maxsize=1024)
def _grid_layout(region: SkewShape, width: int) -> _GridLayout:
    cells = {b.row * width + b.col: b for b in region.cells()}
    pairs = [(i, j) for i in cells for j in (i + 1, i + width) if j in cells]
    lo, hi = zip(*pairs) if pairs else ((), ())
    rows, done = [], 0
    for r, end in enumerate(region.outer.rows, start=1):
        start = region.inner.row_len(r)
        rows.append((slice(r * width + start + 1, r * width + end + 1), slice(done, done + end - start)))
        done += end - start
    return _GridLayout(cells, tuple(cells.values()), tuple(rows), _reader(tuple(cells)), _reader(lo), _reader(hi))


def _cell_values(t: PartialTableau, layout: _GridLayout) -> tuple:
    """The entries of the layout's cells of t's region in row-major order,
    None for an unfilled cell.  `from_grid` leaves the entries in that
    order, and then they are read straight off the dict."""
    entries = t.entries
    if tuple(entries) == layout.boxes:
        return tuple(entries.values())
    return tuple(map(entries.get, layout.boxes))


def _fill(grid: list[int], width: int, t: PartialTableau, shift: int = 0) -> None:
    """Write the entries of the filled tableau `t`, each plus `shift`, into
    the cells of its region in `grid`, one row slice at a time."""
    layout = _grid_layout(t.region, width)
    values = [v + shift for v in _cell_values(t, layout)]
    for cells, at in layout.rows:
        grid[cells] = values[at]


_INT = frozenset({int})


def from_grid(region: SkewShape, grid: list[int]) -> PartialTableau:
    """The validated tableau of the filled region cells of a grid laid out by `to_grid`.

    A grid whose region cells all hold distinct ints >= 1, increasing to
    the right and downwards, passes a screen of C-level passes over a
    cached layout and is built without the dict validator; anything else,
    such as a partial filling, goes to `PartialTableau` as it is.  Both
    give the same tableau, entries in row-major order, and only the
    validator raises."""
    _, boxes, _, read, lo, hi = _grid_layout(region, grid_size(region.outer.nrows, region.outer.ncols)[0])
    values = read(grid)
    if (
        set(map(type, values)) == _INT
        and min(values) >= 1
        and len(set(values)) == len(values)
        and all(map(lt, lo(grid), hi(grid)))
    ):
        t = PartialTableau.__new__(PartialTableau)
        t.region, t.entries = region, dict(zip(boxes, values))
        return t
    return PartialTableau(region, {b: v for b, v in zip(boxes, values) if v})


def grid_slide(grid: list[int] | bytearray, width: int, hole: int, forward: bool = True) -> tuple[int, int]:
    """Slide the empty cell at index `hole` through `grid` in place.

    Forward, the hole swaps with the smaller of its filled right/below
    neighbours; reverse, with the larger of its filled left/above ones.  It
    stops when neither is filled.  Returns the terminal index, now empty,
    and the entry that left it (0 for a slide that never moved).

    `grid` is any mutable row-major sequence of ints (a list or a
    bytearray) with rows `width` apart and 0 for an empty cell.  The slide
    reads only the two neighbours it may move to, so every such neighbour
    of a cell it can reach must exist and be 0 outside the region, as the
    empty rows and column of the `grid_size` layout are.
    """
    g, p, moved = grid, hole, 0
    if forward:
        while True:
            right, below = g[p + 1], g[p + width]
            if right and not (below and below < right):
                g[p] = moved = right
                p += 1
            elif below:
                g[p] = moved = below
                p += width
            else:
                break
    else:
        while True:
            left, above = g[p - 1], g[p - width]
            if left > above:
                g[p] = moved = left
                p -= 1
            elif above:
                g[p] = moved = above
                p -= width
            else:
                break
    g[p] = 0
    return p, moved


def rectify(t: PartialTableau) -> PartialTableau:
    """Slide the inner shape away (always from its last removable corner).

    The result is independent of the corner order; the suite checks this
    against random orders at small sizes.
    """
    if not is_filled(t):
        raise TableauError("rectify needs a fully filled region")
    outer, inner = t.region.outer, t.region.inner
    grid, width = to_grid(t.region, t.entries)
    inner_rows = list(inner.rows)
    while any(inner_rows):
        r, c = removable_corners(Partition(tuple(inner_rows)))[-1]
        grid_slide(grid, width, r * width + c)
        inner_rows[r - 1] -= 1
    rows = []
    for r in range(1, outer.nrows + 1):
        row = grid[r * width + 1 : r * width + outer.row_len(r) + 1]
        filled = sum(1 for v in row if v)
        assert all(row[:filled]), "rectified entries are not left-justified"
        rows.append(row[:filled])
    return from_rows(rows)


def _promotion_step(t: PartialTableau, forward: bool) -> PartialTableau:
    """Promotion, or its inverse: shift every entry by -1 (+1), so that
    entry 1 (N), always at the top-left (bottom-right) corner, leaves an
    empty cell, slide it to the opposite corner, and put N (1) there."""
    nrows, ncols = standard_rectangle_dims(t, "promotion" if forward else "inverse promotion")
    grid, width = to_grid(t.region, {})
    _fill(grid, width, t, -1 if forward else 1)
    corners = (width + 1, nrows * width + ncols)
    start, stop = corners if forward else corners[::-1]
    grid[start] = 0
    end, _ = grid_slide(grid, width, start, forward)
    assert end == stop
    grid[end] = nrows * ncols if forward else 1
    return from_grid(t.region, grid)


def promotion(t: PartialTableau) -> PartialTableau:
    """Delete 1, decrement, rectify, and add N in the lower-right corner.

    For a full rectangle the rectification step is the single forward
    slide from (1,1), whose path necessarily ends at the bottom-right
    corner.
    """
    return _promotion_step(t, True)


def inverse_promotion(t: PartialTableau) -> PartialTableau:
    return _promotion_step(t, False)


def promotion_order(t: PartialTableau) -> int:
    """Smallest r >= 1 with promotion^r(t) = t; divides the cell count."""
    n_cells = t.size
    cur = promotion(t)
    order = 1
    while cur != t:
        cur = promotion(cur)
        order += 1
        if order > n_cells:
            raise TableauError("promotion order exceeds the cell count")
    return order


def complement_tableau(t: PartialTableau, rect: Rectangle) -> PartialTableau:
    """Rotate the region 180 degrees inside rect and replace each entry v
    by ncells+1-v; an involution that preserves standardness."""
    outer, inner = t.region.outer, t.region.inner
    region = SkewShape(complement_shape(inner, rect), complement_shape(outer, rect))
    total = rect.ncells
    entries = {complement_box(b, rect): total + 1 - v for b, v in t.entries.items()}
    return PartialTableau(region, entries)


def to_file_dict(t: PartialTableau) -> dict:
    d = {"outer": list(t.region.outer.rows)}
    if t.region.inner.rows:
        d["inner"] = list(t.region.inner.rows)
    d["rows"] = t.row_lists()
    return d


def _int_list(value, key: str) -> tuple[int, ...]:
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise TableauFormatError(f"'{key}' must be a list of integers")
    return tuple(value)


def from_file_dict(d) -> PartialTableau:
    """Parse the JSON object form; shapes and entries must be JSON integers
    (floats, booleans and numeric strings are rejected, never coerced)."""
    if not isinstance(d, dict) or "outer" not in d or "rows" not in d:
        raise TableauFormatError("tableau object needs 'outer' and 'rows'")
    try:
        outer = Partition(_int_list(d["outer"], "outer"))
        inner = Partition(_int_list(d.get("inner", []), "inner"))
        region = SkewShape(outer, inner)  # raises unless inner fits inside outer
        rows = d["rows"]
        if not isinstance(rows, list) or len(rows) != outer.nrows:
            raise TableauFormatError("'rows' must list one row per outer row")
        for i, row in enumerate(rows, start=1):
            cells = outer.row_len(i) - inner.row_len(i)
            if not isinstance(row, list) or len(row) != cells:
                raise TableauFormatError(f"row {i} must be a list of {cells} cells")
        return _fill_rows(region, rows)
    except TableauFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise TableauFormatError(str(exc)) from exc


def dumps(t: PartialTableau) -> str:
    return json.dumps(to_file_dict(t))


def loads(text: str) -> PartialTableau:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise TableauFormatError(f"invalid JSON: {exc}") from exc
    return from_file_dict(obj)


def format_grid(t: PartialTableau) -> str:
    """Aligned text grid; '.' marks unfilled region cells."""
    width = max((len(str(v)) for v in t.entries.values()), default=1)
    lines = []
    for r, row in enumerate(t.row_lists(), start=1):
        cells = [" " * width] * t.region.inner.row_len(r) + [("." if v is None else str(v)).rjust(width) for v in row]
        lines.append(" ".join(cells).rstrip())
    return "\n".join(lines)
