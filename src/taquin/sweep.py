"""Standard-tableau enumeration and the promotion orbit sweep.

The sweep has one encoding of a tableau, from enumeration to report: the
big-endian int of the bytes of its `PartialTableau.grid`, the
`tableaux.grid_size` layout, one byte per cell (0 for an empty one),
whose leading empty row adds nothing to the int.  A byte numbers at most
255 entries, so the cap check refuses larger shapes.  Standard
tableaux are enumerated in two halves, the placements of the upper half
of the entries listed once per partition the lower half ends on, and a
tableau is the sum of its halves' ints.
Flat slides drop every entry of the grid bytes through a translate table
and slide them in place through `tableaux.grid_slide`, the package's one
slide kernel.  The orbit sweep
promotes on the same split: the entries 1..N//2 of T fill a
partition mu, and the slide path stays in mu, comparing only those
entries, until it leaves mu at a corner c; from there it meets only the
upper entries.  So promotion is A(p) + B(c, q) for the halves p and q of
T: A slides the lower half alone, once per prefix, and B the upper half
alone from c, once per suffix of mu and corner c.  The sweep numbers
tableaux by enumeration rank and turns promotion into a permutation of
the ranks, one array of successor ranks: for a partition mu and corner c
the steps of every suffix of mu form one column, shared by every prefix
that exits mu at c, so the array is written a prefix at a time, each
segment one big-int sum over the column's lanes (one lane of
`array("I").itemsize` bytes per rank; `orbit_table` refuses a tableau
count a lane cannot hold, with `RankLaneError`, before it enumerates).
The orbits are the cycles of that array: each walk starts at the
smallest unvisited rank and stops when it returns there, flagging one
visited byte per rank.  The table keeps each orbit as its size and the
rank of its first tableau, and the halves that decode a rank: its grid
int, and rows read off it, are built on demand, for the orbits a check
reports or promotes.  The contract tests check the sweep by its
public names alone: `standard_tableaux` against a recursive enumerator
on row tuples, and `orbit_table` against the orbits of object-level
`tableaux.promotion`.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import count
from typing import Sequence

from .shapes import Partition, Rectangle, SkewShape
from .tableaux import _grid_layout, grid_size, grid_slide
from .sieving import count_standard_tableaux, divisors


class EnumerationCapError(ValueError):
    """A sweep's tableau count exceeded its cap: a bad argument."""


class RankLaneError(EnumerationCapError):
    """A shape past the sweep's fixed limits: more than the 255 cells its
    grid bytes can number, or more tableaux than its successor-rank lanes
    can hold.  Unlike the cap, no setting lifts these limits."""


def _row_slices(shape: Partition) -> tuple[int, tuple[slice, ...]]:
    """The slide grid length of `shape`, and the grid slice of each row."""
    _, length = grid_size(shape.nrows, shape.ncols)
    return length, tuple(cells for cells, _ in _grid_layout(SkewShape(shape)).rows)


def _placements(rows, weights, heights: list[int], first: int, last: int, code: int, out: list) -> None:
    """Append (code, heights) to `out` for every way to place entries
    first..last on top of the partition `heights`, topmost feasible row
    tried first.  Each code is `code` plus each placed entry times the
    weight of its cell; `heights` is restored on return.  A module-level function
    that appends, not a generator chain or a closure: each level costs one
    call, and a build leaves no reference cycle behind."""
    if first > last:
        out.append((code, tuple(heights)))
        return
    for i, h in enumerate(heights):
        if h < rows[i] and (i == 0 or heights[i - 1] > h):
            heights[i] = h + 1
            _placements(rows, weights, heights, first + 1, last, code + first * weights[i][h], out)
            heights[i] = h


def _syt_halves(shape: Partition):
    """Yield (p, tails) for every placement p of the entries 1..half =
    N // 2, in lexicographic placement order (topmost feasible row first).

    Each half is the big-endian int of its filling of the slide grid
    (zeros outside the shape and in the other half's cells), so the
    standard fillings of `shape` are the sums p + q for q in tails, in
    lexicographic placement order.  A prefix ends on a partition
    mu, and `tails` lists the placements of half+1..N on top of mu; it is
    built once per distinct mu and shared by every prefix ending on it."""
    rows = shape.rows
    total = shape.size
    # weights[i][j] is the value in the big-endian int of the byte of cell (i + 1, j + 1)
    length, slices = _row_slices(shape)
    weights = [[256 ** (length - 1 - k) for k in range(cells.start, cells.stop)] for cells in slices]
    half = total // 2
    prefixes: list = []
    _placements(rows, weights, [0] * len(rows), 1, half, 0, prefixes)
    suffixes: dict[tuple, list[int]] = {}
    for p, mu in prefixes:
        tails = suffixes.get(mu)
        if tails is None:
            placed: list = []
            _placements(rows, weights, list(mu), half + 1, total, 0, placed)
            tails = suffixes[mu] = [q for q, _ in placed]
        yield p, tails


def _flat_rows(code: int, length: int, slices: tuple[slice, ...]) -> tuple:
    """The rows of the tableau whose grid int is `code`, by `_row_slices`."""
    grid = code.to_bytes(length, "big")
    return tuple(tuple(grid[cells]) for cells in slices)


# default cap of every sweep, in standard tableaux: `verify --suite all`
# passes 4x5, 3x7 and 2x13 in under a second on 2 vCPUs and refuses 3x8 and 2x14
MAX_COUNT = 2_000_000


def check_cap(cap: int) -> int:
    """A cap of a sweep, or ValueError when it is not an int (a bool,
    float or string is never coerced) or is below 0: bad input, not a cap
    exceeded."""
    if type(cap) is not int:
        raise ValueError(f"a cap must be an integer, got {cap!r}")
    if cap < 0:
        raise ValueError(f"a cap must be at least 0, got {cap}")
    return cap


def _check_caps(shape: Partition, max_count: int) -> int:
    """Raise unless `shape` is within the grid bytes and the cap; returns
    its tableau count.  A bad cap is refused first, then the byte limit,
    on the cell count alone, since no cap lifts it."""
    check_cap(max_count)
    if shape.size > 255:
        raise RankLaneError(f"{shape.size} cells exceed the 255-cell limit of the sweep's grid bytes")
    count = count_standard_tableaux(shape)
    if count > max_count:
        raise EnumerationCapError(f"{count} tableaux exceed the {max_count} cap; raise max_count (CLI: --max-count) to sweep")
    return count


def standard_tableaux(shape: Partition, *, max_count: int = MAX_COUNT):
    """Iterate lazily over every standard tableau of `shape` exactly once,
    as a tuple of row tuples, in deterministic placement order.

    The cap guards accidental huge sweeps and is checked by the call, from
    the hook length count; pass a larger value explicitly to go beyond it.
    More than 255 cells raises `RankLaneError`, whatever the cap.
    """
    _check_caps(shape, max_count)
    length, slices = _row_slices(shape)
    return (_flat_rows(p + q, length, slices) for p, tails in _syt_halves(shape) for q in tails)


# entry 1 -> 0, the hole; every other entry v -> v - 1, and an empty 0 stays 0
_TO_GRID = bytes((0, 0, *range(1, 255)))


def _slide_flat(flat: bytes, ncols: int, start: int) -> tuple[bytearray, int]:
    """One forward slide from grid index `start` on the bytes of a slide
    grid of rows of `ncols` cells: returns the slid grid and the index the
    slide ended at.  Every entry drops by one through a translate table, so
    entry 1, if present, becomes a hole; `start` must be empty after the
    drop.  A half of a tableau has empty cells of its own, which the slide
    also treats as outside."""
    grid = bytearray(flat.translate(_TO_GRID))
    end, _ = grid_slide(grid, grid_size(0, ncols)[0], start)
    return grid, end


def _promote_flat(code: int, nrows: int, ncols: int) -> int:
    """Promotion on the grid int of a full rectangle: the slide from entry
    1's cell (1, 1) always ends in the last cell, which takes entry N."""
    width, length = grid_size(nrows, ncols)
    grid, end = _slide_flat(code.to_bytes(length, "big"), ncols, width + 1)
    grid[end] = nrows * ncols
    return int.from_bytes(grid, "big")


@dataclass
class OrbitTable:
    """Promotion orbit decomposition of the standard tableaux of rect.

    Each orbit is kept as its size and the enumeration rank of its
    representative, the first of its tableaux in enumeration order;
    `rep_ranks` and `sizes` (a byte each: a size divides N <= 255) list
    the orbits in that order.  A rank is decoded only when read, from the
    halves of the sweep: `halves[k]` is a prefix p and its tails,
    `starts[k]` the rank of p + tails[0], so the tableau of rank r is
    p + tails[r - starts[k]] for the last start at or below r.
    `rep_rows(k)` gives the rows of the k-th representative, and `orbits`
    pairs each representative's rows with its size, built on each read."""

    rect: Rectangle
    rep_ranks: Sequence[int]  # array("I") from the sweep
    sizes: Sequence[int]  # bytearray from the sweep
    counts: dict[int, int]  # divisor r of the cell count -> #{T : r-fold promotion fixes T}
    total: int
    starts: Sequence[int]  # array("I") from the sweep, ascending
    halves: list[tuple[int, list[int]]]

    def _grid_int(self, rank: int) -> int:
        """The grid int of the tableau of enumeration rank `rank`."""
        k = bisect_right(self.starts, rank) - 1
        p, tails = self.halves[k]
        return p + tails[rank - self.starts[k]]

    @property
    def orbits(self) -> list[tuple[tuple, int]]:
        """(representative rows, orbit size) for every orbit."""
        length, slices = _row_slices(self.rect.as_partition())
        return [(_flat_rows(self._grid_int(rank), length, slices), size) for rank, size in zip(self.rep_ranks, self.sizes)]

    def rep_rows(self, k: int) -> tuple:
        """The rows of the representative of the k-th orbit."""
        return _flat_rows(self._grid_int(self.rep_ranks[k]), *_row_slices(self.rect.as_partition()))

    def fixed_rows(self, r: int) -> list[tuple]:
        """All tableaux fixed by r-fold promotion, as row tuples."""
        nrows, ncols = self.rect.nrows, self.rect.ncols
        length, slices = _row_slices(self.rect.as_partition())
        out = []
        for rank, size in zip(self.rep_ranks, self.sizes):
            if r % size:
                continue
            cur = self._grid_int(rank)
            for _ in range(size):
                out.append(_flat_rows(cur, length, slices))
                cur = _promote_flat(cur, nrows, ncols)
        return out


def _ranked_halves(shape: Partition):
    """The first pass of the orbit sweep: returns (halves, offset, index).

    `halves` lists the (p, tails) pairs of `_syt_halves`, so the tableau
    p + tails[k] has enumeration rank offset[p] + k, offset[p] being the
    number of tableaux before prefix p.  index[q] is the position of the
    suffix q in its tails list; the tails of different partitions fill
    different cells, so they are distinct ints and one dict holds them
    all."""
    halves = list(_syt_halves(shape))
    offset: dict[int, int] = {}
    index: dict[int, int] = {}
    count = 0
    for p, tails in halves:
        offset[p] = count
        count += len(tails)
        if tails[0] not in index:  # first prefix ending on this partition
            index.update(zip(tails, range(len(tails))))
    return halves, offset, index


def _successor_ranks(nrows: int, ncols: int, halves, offset: dict[int, int], index: dict[int, int]):
    """Promotion as a permutation of enumeration ranks, from the first pass
    of `_ranked_halves`: an `array("I")` nxt, nxt[r] being the rank of the
    promotion of the tableau of rank r, for a rectangle of fewer than
    2 ** (8 * itemsize) tableaux.

    Let T = p + q, p holding the entries 1..half on a partition mu.  Every
    entry of p is below every entry of q, so at a cell with a right or
    down neighbour in mu the slide takes a neighbour in mu: the path stays
    in mu, decided by p alone, until it reaches a corner c of mu, and from
    c on it runs only through entries of q.  So promotion is A + B, A the
    slide of p alone from cell (1, 1), which ends at c (entries 2..half
    dropped to 1..half-1), and B the slide of q alone from c, its terminal set to
    N.  With E the term of the one cell of B that now holds half (E = 0
    when half = 0, at N = 1, where p is empty and the walk leaves the one
    tableau fixed), the promoted halves are A + E and B - E, and the
    promoted tableau has rank offset[A + E] + j, j = index[B - E].  The
    halves stay ints over the slide grid throughout, so a slide is one
    translate and one `grid_slide`, with no empty cells to insert or cut.

    For a partition mu and a corner c, the pairs (E, j) over the tails of
    mu form one list, a column, shared by every prefix ending on mu that
    exits at c, so a prefix's segment of the array is offset[A + E] + j
    over its column.  E is the term of a cell that can be added to mu
    minus c, so a column holds only a few distinct E.  A column keeps its
    j's packed into native-order lanes of `itemsize` bytes, one big int,
    and one mask per distinct E with 1 in the lanes that pick it; the
    segment is j's plus offset[A + E] times each mask, one big-int sum
    whose lanes each receive one offset and so never carry (every rank is
    below the count, which fits a lane), appended as bytes.  Each prefix
    is slid once, and each column entry once, when the column is first
    needed."""
    # imported here: loading the extension module adds about 0.3 MB to the
    # RSS of every process that imports the package, and only the sweep
    # needs it
    from array import array

    def lanes(values) -> int:
        return int.from_bytes(array("I", values).tobytes(), sys.byteorder)

    total = nrows * ncols
    half = total // 2
    width, nbytes = grid_size(nrows, ncols)
    itemsize = array("I").itemsize
    columns = {}
    nxt = array("I")
    for p, tails in halves:
        low, c = _slide_flat(p.to_bytes(nbytes, "big"), ncols, width + 1)
        a = int.from_bytes(low, "big")
        column = columns.get((c, tails[0]))  # tails[0] stands for mu
        if column is None:
            es, js = [], []
            for q in tails:
                high, end = _slide_flat(q.to_bytes(nbytes, "big"), ncols, c)
                high[end] = total
                e = half << 8 * (nbytes - 1 - high.index(half))
                es.append(e)
                js.append(index[int.from_bytes(high, "big") - e])
            masks = [(e, lanes(map(e.__eq__, es))) for e in dict.fromkeys(es)]
            column = columns[c, tails[0]] = lanes(js), masks, len(js) * itemsize
        js, masks, length = column
        nxt.frombytes(sum([offset[a + e] * mask for e, mask in masks], js).to_bytes(length, sys.byteorder))
    return nxt


def orbit_table(rect: Rectangle, *, max_count: int = MAX_COUNT) -> OrbitTable:
    """Full orbit decomposition under promotion.

    Tableaux are numbered by enumeration rank, and promotion becomes a
    permutation of the ranks, stored as an array of successor ranks
    (`_successor_ranks`) that is built a prefix at a time from slides of
    each half of a tableau on its own.  A count of tableaux that one
    `array("I")` lane cannot hold is refused with `RankLaneError`, like
    the cap, before any enumeration.  The orbits are the cycles of that
    array: each walk starts at the smallest unvisited rank, which
    `bytearray.find` jumps to, flags each rank it meets in a bytearray,
    and stops when it returns to its start.  Each orbit is kept as its
    size and the rank of its representative, the first of its tableaux in
    enumeration order, in an `array("I")`, with the halves that decode a
    rank; no grid int or rows are built."""
    from array import array

    shape = rect.as_partition()
    total = _check_caps(shape, max_count)
    bits = 8 * array("I").itemsize
    if total >> bits:
        raise RankLaneError(f"{total} tableaux exceed the {bits}-bit ranks of the sweep")
    halves, offset, index = _ranked_halves(shape)
    nxt = _successor_ranks(rect.nrows, rect.ncols, halves, offset, index)
    seen = bytearray(total)
    rep_ranks = array("I")
    sizes = bytearray()
    start = 0
    while start >= 0:
        rank = start
        for size in count(1):
            seen[rank] = 1
            rank = nxt[rank]
            if rank == start:
                break
        rep_ranks.append(start)
        sizes.append(size)
        start = seen.find(0, start + 1)
    histogram = Counter(sizes)
    counts = {r: sum(s * k for s, k in histogram.items() if r % s == 0) for r in divisors(rect.ncells)}
    return OrbitTable(rect, rep_ranks, sizes, counts, total, array("I", offset.values()), halves)
