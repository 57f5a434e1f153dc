"""Partial and standard tableaux on skew regions, and jeu de taquin.

A PartialTableau is its region and its slide grid, the `grid_size`
layout of the region's bounding rectangle with 0 for an empty cell;
`entries`, a box -> entry map, is built only when asked for.
`grid_slide` is the one slide kernel: the constructions in `orbits`
and `sequences`, promotion and the orbit sweep all move entries through
it on that layout.

Every PartialTableau holds distinct positive ints, strictly increasing
between adjacent filled cells, which turns a buggy slide into a loud
error.  One validator, `_validate`, checks a grid at the public
boundaries, and owns the entry rules and their row-major order:
`from_grid` hands it a grid, and parsed rows (`from_rows`, `loads`) and a
dict given to `PartialTableau(region, entries)` reach it through one
step, `_fill`.  A dict is first checked only for what rows cannot hold: a
key that is not a pair of ints, a box outside the region and a None
value.  A promotion step slides a checked grid and keeps it standard, so
it builds its result unchecked.

Every public operation is a pure function returning new values; callers
may parallelize freely.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain
from operator import itemgetter, lt
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .shapes import (
    EMPTY,
    Box,
    Partition,
    Rectangle,
    SkewShape,
    complement_box,
    complement_shape,
)


class TableauError(ValueError):
    pass


class TableauFormatError(ValueError):
    """Raised when a tableau file/dict does not parse."""


class PartialTableau:
    """Entries on a subset of the cells of a skew region, held in the
    region's slide grid; `grid` is shared, so never mutate it."""

    __slots__ = ("region", "grid")

    def __init__(self, region: SkewShape, entries: Mapping):
        """The checked tableau of a box -> entry map; a box left out is empty."""
        for b, v in entries.items():
            if not isinstance(b, tuple) or tuple(map(type, b)) != (int, int):
                raise TableauError(f"box {b!r} is not a pair of integers")
            if b not in region:
                raise TableauError(f"entry at {tuple(b)} outside the region")
            if v is None:  # never an empty cell
                raise TableauError(f"entry None at {tuple(b)} is not an integer")
        self.region, self.grid = region, _fill(region, [entries.get(b) for b in _grid_layout(region).boxes]).grid

    @property
    def entries(self) -> Mapping[Box, int]:
        """A read-only box -> entry map of the filled cells, row-major, built on each read."""
        layout = _grid_layout(self.region)
        return MappingProxyType({b: v for b, v in zip(layout.boxes, layout.read(self.grid)) if v})

    @property
    def size(self) -> int:
        values = _grid_layout(self.region).read(self.grid)
        return len(values) - values.count(0)

    def get(self, box, default=None):
        """The entry at `box`; default for an empty cell or one outside the region."""
        r, c = box
        layout = _grid_layout(self.region)
        i = r * layout.width + c
        return (self.grid[i] if layout.cells.get(i) == (r, c) else 0) or default

    def __getitem__(self, box) -> int:
        if (v := self.get(box)) is None:
            raise KeyError(Box(*box))
        return v

    def __eq__(self, other):
        return isinstance(other, PartialTableau) and self.grid == other.grid and self.region == other.region

    def __hash__(self):
        # one flat tuple, never 20 long (no grid is 19 long): CPython 3.11
        # keeps every freed 20-tuple on a free list it never reuses, so a
        # hash over tuple(grid) of a 20-long grid grows the heap per call
        return hash((self.region, *self.grid))

    def row_lists(self) -> list[list]:
        """One list per region row, covering inner+1..outer columns;
        None marks an unfilled cell."""
        rows = [self.grid[cells] for cells, _ in _grid_layout(self.region).rows]
        return [row if 0 not in row else [v or None for v in row] for row in rows]

    def row_tuples(self) -> tuple:
        return tuple(tuple(row) for row in self.row_lists())

    def __repr__(self):
        return f"PartialTableau({format_grid(self)!r})"


def _unchecked(region: SkewShape, grid: list[int]) -> PartialTableau:
    """The tableau of a grid known to be valid, built without the validator."""
    t = PartialTableau.__new__(PartialTableau)
    t.region, t.grid = region, grid
    return t


def from_rows(rows, inner=EMPTY) -> PartialTableau:
    """Build a tableau from per-row entry lists (None = unfilled cell).

    rows[i] covers the cells of row i+1 right of the inner shape.  A 0 is
    an entry, which the validator refuses, never an empty cell.
    """
    inner = inner if isinstance(inner, Partition) else Partition(tuple(inner))
    # from a list: a tuple built from a generator is allocated large and
    # shrunk, and CPython keeps the shrunk one on its size's free list
    outer = Partition(tuple([inner.row_len(i + 1) + len(row) for i, row in enumerate(rows)]))
    # a list, never a 20-tuple (see `_reader`)
    return _fill(SkewShape(outer, inner), list(chain.from_iterable(rows)))


def _fill(region: SkewShape, values: list) -> PartialTableau:
    """The checked tableau of `values`, the region's cells in row-major
    order: None for an empty cell, and a 0 an entry, which the validator
    refuses."""
    # the validator reads anything but ints >= 1 off the values, where a 0 is an entry
    cells = None if set(map(type, values)) == _INT and min(values) >= 1 else values
    layout = _grid_layout(region)
    grid = [0] * grid_size(region.outer.nrows, region.outer.ncols)[1]
    for at_grid, at in layout.rows:
        grid[at_grid] = values[at] if cells is None else [v or 0 for v in values[at]]
    _validate(layout, grid, cells)
    return _unchecked(region, grid)


def is_standard_normalized(t: PartialTableau) -> bool:
    """Straight or skew region, all cells filled, entries exactly 1..N.

    The entries of every PartialTableau are distinct positive ints, so
    N of them are exactly 1..N when the largest is N."""
    values = _grid_layout(t.region).read(t.grid)
    return 0 not in values and max(values, default=0) == len(values)


def standard_rectangle_dims(t: PartialTableau, what: str) -> tuple[int, int]:
    """(nrows, ncols) of a standard filling 1..N of a full rectangle;
    raises TableauError naming `what` otherwise."""
    outer = t.region.outer
    if t.region.inner.rows or not outer.rows or len(set(outer.rows)) != 1:
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


def _reader(index: tuple[int, ...]) -> Callable:
    """A C-level reader of the entries grid[i] for i in index: an
    `itemgetter` tuple, but a list for 0 or 1 index (where `itemgetter`
    fails or returns the bare entry) and for 20.  CPython 3.11 keeps every
    freed 20-tuple on a free list that it never reuses, so a 20-cell
    region would grow the heap by one tuple per read."""
    if len(index) in (0, 1, 20):
        return lambda grid: list(map(grid.__getitem__, index))
    return itemgetter(*index)


class _GridLayout(NamedTuple):
    """Where a region's cells sit in its `grid_size` grid; shared, so never mutate it."""

    width: int
    cells: dict[int, Box]  # the region's cells keyed by grid index, row-major
    boxes: tuple[Box, ...]  # the same cells, as a tuple
    rows: tuple[tuple[slice, slice], ...]  # per region row, its cells as slices of the grid and of boxes
    read: Callable  # grid -> the entries of those cells
    lo: Callable  # grid -> per pair of adjacent region cells, the left or upper entry
    hi: Callable  # grid -> per pair, the right or lower entry


@lru_cache(maxsize=1024)
def _grid_layout(region: SkewShape) -> _GridLayout:
    width, _ = grid_size(region.outer.nrows, region.outer.ncols)
    cells = {b.row * width + b.col: b for b in region.cells()}
    pairs = [(i, j) for i in cells for j in (i + 1, i + width) if j in cells]
    lo, hi = zip(*pairs) if pairs else ((), ())
    rows, done = [], 0
    for r, end in enumerate(region.outer.rows, start=1):
        start = region.inner.row_len(r)
        rows.append((slice(r * width + start + 1, r * width + end + 1), slice(done, done + end - start)))
        done += end - start
    return _GridLayout(width, cells, tuple(cells.values()), tuple(rows), _reader(tuple(cells)), _reader(lo), _reader(hi))


_INT = frozenset({int})


def _validate(layout: _GridLayout, grid: list, cells: list | None = None) -> None:
    """The one tableau validator: raise TableauError unless the region
    cells of `grid` hold distinct ints >= 1 increasing rightwards and
    downwards between filled cells (a false value is an empty cell).

    A valid filled grid passes a screen of C-level passes; anything else
    takes one row-major pass that raises for the first fault: a non-int
    (over all cells first), then per cell an entry below 1, a row or a
    column that does not increase, then a repeated entry.  `cells` gives
    that pass its values (None: empty) from `_fill`, where a 0 is an entry."""
    values = layout.read(grid)
    if (
        set(map(type, values)) == _INT
        and min(values) >= 1
        and len(set(values)) == len(values)
        and all(map(lt, layout.lo(grid), layout.hi(grid)))
    ):
        return
    if cells is None:
        cells = [v or None for v in values]
    filled = {b: v for b, v in zip(layout.boxes, cells) if v is not None}
    for (r, c), v in filled.items():
        if type(v) is not int:
            raise TableauError(f"entry {v!r} at {(r, c)} is not an integer")
    for (r, c), v in filled.items():
        if v < 1:
            raise TableauError(f"non-positive entry {v} at {(r, c)}")
        for line, after in (("row", (r, c + 1)), ("column", (r + 1, c))):
            if filled.get(after, v + 1) <= v:
                raise TableauError(f"{line} not increasing at {(r, c)}: {v} !< {filled[after]}")
    if len(set(filled.values())) != len(filled):
        raise TableauError("duplicate entries")


def from_grid(region: SkewShape, grid: list[int]) -> PartialTableau:
    """The validated tableau of the filled region cells of a grid in the
    layout of `PartialTableau.grid`, whose cells outside the region hold
    0; it keeps a copy."""
    grid = list(grid)
    _validate(_grid_layout(region), grid)
    return _unchecked(region, grid)


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


def _promotion_step(t: PartialTableau, forward: bool) -> PartialTableau:
    """Promotion, or its inverse, of a standard filling of a full
    rectangle, unchecked: shift every entry by -1 (+1), so that entry 1
    (N), always at the top-left (bottom-right) corner, leaves an empty
    cell, slide it to the opposite corner, and put N (1) there."""
    layout = _grid_layout(t.region)
    width, cells = layout.width, len(layout.cells)
    grid = [v and v - 1 for v in t.grid] if forward else [v and v + 1 for v in t.grid]
    corners = (width + 1, len(grid) - width - 1)  # (1, 1) and (nrows, ncols)
    start, stop = corners if forward else corners[::-1]
    grid[start] = 0
    end, _ = grid_slide(grid, width, start, forward)
    assert end == stop
    grid[end] = cells if forward else 1
    return _unchecked(t.region, grid)


def promotion(t: PartialTableau) -> PartialTableau:
    """Delete 1, decrement, rectify, and add N in the lower-right corner.

    For a full rectangle the rectification step is the single forward
    slide from (1,1), whose path necessarily ends at the bottom-right
    corner.
    """
    standard_rectangle_dims(t, "promotion")
    return _promotion_step(t, True)


def inverse_promotion(t: PartialTableau) -> PartialTableau:
    standard_rectangle_dims(t, "inverse promotion")
    return _promotion_step(t, False)


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
        return _fill(region, list(chain.from_iterable(rows)))
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
    rows = t.row_lists()
    width = max((len(str(v)) for row in rows for v in row if v is not None), default=1)
    lines = []
    for r, row in enumerate(rows, start=1):
        cells = [" " * width] * t.region.inner.row_len(r) + [("." if v is None else str(v)).rjust(width) for v in row]
        lines.append(" ".join(cells).rstrip())
    return "\n".join(lines)
