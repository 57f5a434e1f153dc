"""The core constructions: forward/reverse tableau building along a
diagonal, box sequences with their displacement counts, closed forms for
descent-driven runs, the combined minimal-orbit tableau of a permutation,
and its inverse.

Constructions reuse per-shape plans: what a forward or reverse
construction needs of its shapes alone (the grid layout, the diagonal's
seed and target cells, the superstandard slide order) is built once per
diagonal and rectangle and kept in a bounded cache.  A given choice
tableau still has its slide order derived and checked on every call.

Orientation notes: the slide-based constructions work in either
orientation of the rectangle.  `column_sequence` and `delta_closed_form`
assume the permutation size n is the number of *columns*, while
`augmented_insertion_tableau` assumes n is the number of *rows*; both
check their assumption instead of transposing silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .shapes import (
    Box,
    Diagonal,
    Partition,
    Rectangle,
    SkewShape,
    complement_shape,
    contains,
    staircase_diagonal,
)
from .tableaux import (
    PartialTableau,
    _grid_layout,
    _unchecked,
    complement_tableau,
    from_grid,
    from_rows,
    grid_size,
    grid_slide,
    is_standard_normalized,
    standard_rectangle_dims,
)
from .words import (
    DescentSequence,
    Permutation,
    augmented_word,
    conjugate_by_reversal,
    descents,
    insertion_tableau,
    prefix_terms,
)


class NotMinimalOrbitError(ValueError):
    """The tableau is not in the minimal promotion-orbit set."""


class DiagonalMismatchError(RuntimeError):
    """Forward and reverse constructions disagreed on the diagonal, which
    the combination theorem forbids; this signals an implementation bug."""


def superstandard_choice(shape: Partition) -> PartialTableau:
    """Row-by-row filling 1..N of a straight shape."""
    return PartialTableau(SkewShape(shape), {b: k for k, b in enumerate(shape.cells(), start=1)})


def _slide_order(choice: PartialTableau | None, shape: Partition) -> list[Box]:
    """The cells of `shape` in the order they are slid: the k-th slide
    uses the cell holding entry N+1-k of the choice tableau, the
    superstandard filling when choice is None."""
    if choice is None:
        return list(shape.cells())[::-1]
    if choice.region.inner.rows or choice.region.outer != shape:
        raise ValueError(f"choice tableau must live on {shape}, got {choice.region}")
    if not is_standard_normalized(choice):
        raise ValueError("choice tableau must be standard with entries 1..N")
    layout = _grid_layout(choice.region)
    order = list(layout.boxes)
    for b, v in zip(layout.boxes, layout.read(choice.grid)):
        order[-v] = b
    return order


def _pop_corner(mu: list[int], b: Box) -> None:
    row, col = b
    if not (1 <= row <= len(mu) and mu[row - 1] == col and (row == len(mu) or mu[row] < col)):
        raise ValueError(f"{b} is not a removable corner of the unfilled region")
    mu[row - 1] -= 1


def _slide_starts(choice: PartialTableau | None, shape: Partition, width: int, far: int) -> tuple[int, ...]:
    """Grid indices of the slides, in the choice tableau's slide order:
    each cell of `shape` itself when far is 0, otherwise its 180-degree
    rotation far - i.  The largest entry of a standard filling sits at a
    corner of its shape, so each cell is a corner of what is left unslid."""
    starts = [b.row * width + b.col for b in _slide_order(choice, shape)]
    return tuple(far - i for i in starts) if far else tuple(starts)


class _SlidePlan(NamedTuple):
    """What a construction along a diagonal needs of its shapes alone."""

    region: SkewShape
    shape: Partition  # the slid cells, on which a choice tableau lives
    width: int
    size: int  # grid length
    seeds: tuple[int, ...]  # grid index of the i-th diagonal box
    targets: frozenset[int]  # grid indices of the diagonal boxes
    starts: tuple[int, ...]  # slide starts in the superstandard order
    far: int  # 0 forward; reverse, the grid length: the rotation maps index i to far - i


@lru_cache(maxsize=1024)
def _slide_plan(diag: Diagonal, rect: Rectangle | None) -> _SlidePlan:
    """The plan of the forward construction along `diag` when rect is
    None, otherwise of the reverse one in rect."""
    if rect is None:
        region, shape = SkewShape(diag.lambda_plus), diag.lambda_minus
    else:
        shape = complement_shape(diag.lambda_plus, rect)  # raises unless the diagonal fits
        region = SkewShape(rect.as_partition(), diag.lambda_minus)
    width, size = grid_size(region.outer.nrows, region.outer.ncols)
    far = 0 if rect is None else size
    seeds = tuple(r * width + c for r, c in diag.boxes)
    return _SlidePlan(region, shape, width, size, seeds, frozenset(seeds), _slide_starts(None, shape, width, far), far)


def _refill_slide(grid: list[int], width: int, hole: int, forward: bool, targets: frozenset, shift: int) -> None:
    """Slide from grid index `hole`; the path must end on a diagonal box,
    which gets the entry that left it plus `shift`."""
    end, moved = grid_slide(grid, width, hole, forward)
    if end not in targets:
        raise DiagonalMismatchError(f"slide from {Box(*divmod(hole, width))} ended at {Box(*divmod(end, width))}, off the diagonal")
    grid[end] = moved + shift


def _construct(w: Permutation, diag: Diagonal, rect: Rectangle | None, choice: PartialTableau | None, trace: bool, screen: bool):
    """Seed w(i) at the i-th diagonal box, plus (m-1)n in reverse, then
    slide from each cell of the plan's shape in the choice tableau's slide
    order: forward from the cell itself when rect is None, otherwise in
    reverse from its 180-degree rotation in rect.  Each path must end on
    the diagonal, whose box takes the entry that left it plus n (forward)
    or minus n.  With screen=False (and no trace) the result is built
    without the validator, for a caller that checks it itself."""
    n = diag.n
    if w.n != n:
        raise ValueError(f"permutation size {w.n} != diagonal size {n}")
    region, shape, width, size, seeds, targets, starts, far = _slide_plan(diag, rect)
    if choice is not None:
        starts = _slide_starts(choice, shape, width, far)
    forward = rect is None
    shift = 0 if forward else rect.ncells - n
    grid = [0] * size
    for i, v in zip(seeds, w.oneline):
        grid[i] = v + shift
    frames = [from_grid(region, grid)] if trace else None
    for hole in starts:
        _refill_slide(grid, width, hole, forward, targets, n if forward else -n)
        if trace:
            frames.append(from_grid(region, grid))
    if not (trace or screen):
        return _unchecked(region, grid)
    t = frames[-1] if trace else from_grid(region, grid)
    assert t.size == region.size, "construction did not fill its region"
    return (t, frames) if trace else t


def forward_tableau(w: Permutation, diag: Diagonal, choice: PartialTableau | None = None, trace: bool = False, *, screen: bool = True):
    """Seed w(i) at the i-th diagonal box, then forward-slide the region
    below/left of the diagonal away, refilling a diagonal box with its old
    entry plus n whenever a sliding path ends there.

    The result fills lambda_plus and is independent of the choice tableau;
    entries <= n form the insertion tableau of w's one-line word.  With
    trace=True returns (tableau, frames) including the initial seeding.
    screen=False skips the check of the result, for a caller that checks
    it (`minimal_orbit_tableau`'s splice).
    """
    return _construct(w, diag, None, choice, trace, screen)


def reverse_tableau(w: Permutation, diag: Diagonal, rect: Rectangle, choice: PartialTableau | None = None, trace: bool = False, *, screen: bool = True):
    """Mirror construction on the region above/right of the diagonal:
    seed w(i) + (m-1)n, reverse-slide the complement of lambda_plus away,
    refilling a diagonal box with its old entry minus n.

    The choice tableau lives on the complement of lambda_plus (a straight
    shape); its cells are rotated into the rectangle.  screen as in
    `forward_tableau`.
    """
    return _construct(w, diag, rect, choice, trace, screen)


def forward_tableau_by_peeling(w: Permutation, diag: Diagonal, corner_order) -> PartialTableau:
    """Equivalent reformulation of forward_tableau driven by a corner
    peeling of the full rectangle down to the empty shape: seed when a
    diagonal box is peeled, slide when a cell below/left of the diagonal
    is peeled, ignore the rest."""
    order = [Box(*b) for b in corner_order]
    if not order:
        raise ValueError("empty peeling order")
    nrows = max(b.row for b in order)
    ncols = max(b.col for b in order)
    if sorted(order) != sorted(Partition((ncols,) * nrows).cells()):
        raise ValueError("peeling order must cover a full rectangle exactly once")
    n = diag.n
    if w.n != n:
        raise ValueError(f"permutation size {w.n} != diagonal size {n}")
    plan = _slide_plan(diag, None)
    width = plan.width
    seed = {b: i for i, b in enumerate(diag.boxes, start=1)}
    grid = [0] * plan.size
    mu = [ncols] * nrows
    for b in order:
        _pop_corner(mu, b)
        if b in seed:
            grid[b.row * width + b.col] = w(seed[b])
        elif b in diag.lambda_minus:
            _refill_slide(grid, width, b.row * width + b.col, True, plan.targets, n)
    t = from_grid(plan.region, grid)
    assert t.size == diag.lambda_plus.size
    return t


@dataclass
class BoxSequenceRun:
    """Terminals of diagonal-driven reverse slides and the displacement
    counts delta(i) = #{k : sigma_k = i and the k-th terminal is not the
    i-th diagonal box}."""

    sigma_prefix: tuple[int, ...]
    boxes: tuple[Box, ...]
    delta: dict[int, int]
    trace: tuple[PartialTableau, ...] | None = None


def box_sequence(sigma, diag: Diagonal, choice: PartialTableau | None = None, steps: int | None = None, trace: bool = False) -> BoxSequenceRun:
    """Drive reverse slides from diagonal boxes: at step k put a hole at
    box sigma_k, reverse-slide it through the current tableau, record the
    terminal, then delete whatever entry now occupies that diagonal box.

    With steps=None runs n*(size of lambda_minus + 1) steps, enough for
    every entry to have been deleted (asserted), after which all further
    slides are trivial.
    """
    n = diag.n
    plan = _slide_plan(diag, None)
    region, width, seeds = plan.region, plan.width, plan.seeds
    starts = plan.starts if choice is None else _slide_starts(choice, plan.shape, width, 0)
    auto = steps is None
    if auto:
        steps = n * (diag.lambda_minus.size + 1)
    sig = prefix_terms(sigma, steps)
    if any(not 1 <= s <= n for s in sig):
        raise ValueError(f"sequence terms must lie in 1..{n}")
    cells = _grid_layout(region).cells
    # slides go in decreasing entry order, so entry k sits at the k-th last start
    grid = [0] * plan.size
    for k, i in enumerate(reversed(starts), start=1):
        grid[i] = k
    frames = [from_grid(region, grid)] if trace else None
    ends = []
    for s in sig:
        p = seeds[s - 1]
        if grid[p]:
            raise RuntimeError(f"diagonal box {cells[p]} occupied before its slide")
        end, _ = grid_slide(grid, width, p, False)
        ends.append(end)
        grid[p] = 0
        if trace:
            frames.append(from_grid(region, grid))
    if auto and any(grid):
        raise RuntimeError("stabilization bound too small: entries remain")
    delta = {i: 0 for i in range(1, n + 1)}
    for s, end in zip(sig, ends):
        if end != seeds[s - 1]:
            delta[s] += 1
    return BoxSequenceRun(tuple(sig), tuple(map(cells.__getitem__, ends)), delta, tuple(frames) if trace else None)


def tableau_from_box_sequence(run: BoxSequenceRun, diag: Diagonal) -> PartialTableau:
    """Reconstruct the forward tableau: the entry in each box is the first
    step at which it appeared as a terminal."""
    first = {}
    for k, b in enumerate(run.boxes, start=1):
        first.setdefault(b, k)
    missing = [b for b in SkewShape(diag.lambda_plus).cells() if b not in first]
    if missing:
        raise ValueError(f"run too short: boxes never reached: {missing}")
    return PartialTableau(SkewShape(diag.lambda_plus), first)


def column_sequence(descent_list, n: int, count: int) -> tuple[int, ...]:
    """Concatenated blocks (1, ..., n-d_j); with sigma the descent-driven
    sequence, the k-th reverse-slide terminal lands in this column.
    Assumes n is the number of columns of the rectangle."""
    d = DescentSequence(tuple(descent_list), n).descents  # validates them
    out = []
    j = 0
    while len(out) < count:
        dj = d[j] if j < len(d) else 0
        out.extend(range(1, n - dj + 1))
        j += 1
    return tuple(out[:count])


def delta_closed_form(w: Permutation, lambda_plus: Partition) -> dict[int, int]:
    """Displacement counts for the descent-driven sequence, directly from
    the descent set: delta(i) = C_i - #{j : d_j >= i} + #{j : d_j >= n+1-i} - 1
    with C_i the i-th column length of lambda_plus.  Assumes n = w.n is
    the number of columns of the rectangle."""
    n = w.n
    if lambda_plus.ncols != n:
        raise ValueError("lambda_plus must have exactly n columns (n-columns orientation)")
    d = sorted(descents(w), reverse=True)
    out = {}
    for i in range(1, n + 1):
        ci = lambda_plus.col_len(i)
        out[i] = ci - sum(1 for x in d if x >= i) + sum(1 for x in d if x >= n + 1 - i) - 1
    return out


def augmented_insertion_tableau(w: Permutation, m: int, shape: Partition | None = None) -> PartialTableau:
    """Insertion tableau of the augmented word of w, restricted to `shape`
    (whole tableau when shape is None).  Assumes n is the number of rows;
    for m >= n and a diagonal shape this equals forward_tableau."""
    n = w.n
    rows = insertion_tableau(augmented_word(w, m))
    if shape is None:
        return from_rows(rows)
    if shape.nrows > n:
        raise ValueError(f"shape has {shape.nrows} rows; at most {n} allowed")
    got = Partition(tuple(len(r) for r in rows))
    if not contains(shape, got):
        raise ValueError(f"shape {shape} not contained in the insertion tableau shape {got}")
    return from_rows([row[:length] for row, length in zip(rows, shape.rows)])


@lru_cache(maxsize=64)
def _rect_region(rect: Rectangle) -> SkewShape:
    """The whole rectangle as a region, built once per rectangle."""
    return SkewShape(rect.as_partition())


def _splice(plus: PartialTableau, minus: PartialTableau, rect: Rectangle, diag: Diagonal) -> PartialTableau:
    """The rectangle filled by the two halves, which overlap on the
    diagonal boxes only: those must agree, and then the rows of plus are
    copied into a copy of minus's grid, the rectangle's, which is checked
    once.  A filling that passes the check increases along rows and
    columns, so it is 1..N when it is full and its largest entry is N."""
    pw, rw = _grid_layout(plus.region).width, _grid_layout(minus.region).width
    for cell in diag.boxes:
        if plus.grid[cell.row * pw + cell.col] != minus.grid[cell.row * rw + cell.col]:
            raise DiagonalMismatchError(f"constructions disagree at {cell}: {plus[cell]} vs {minus[cell]}")
    grid = minus.grid[:]
    for r, end in enumerate(plus.region.outer.rows, start=1):
        grid[r * rw + 1 : r * rw + end + 1] = plus.grid[r * pw + 1 : r * pw + end + 1]
    t = from_grid(_rect_region(rect), grid)
    if not is_standard_normalized(t):
        raise DiagonalMismatchError("combined tableau is not standard")
    return t


def _minimal_orbit_tableau_insertion(w: Permutation, rect: Rectangle, diag: Diagonal) -> PartialTableau:
    m = rect.ncells // w.n
    plus = augmented_insertion_tableau(w, m, diag.lambda_plus)
    minus = complement_tableau(
        augmented_insertion_tableau(conjugate_by_reversal(w), m, complement_shape(diag.lambda_minus, rect)),
        rect,
    )
    return _splice(plus, minus, rect, diag)


def minimal_orbit_tableau(
    w: Permutation,
    rect: Rectangle,
    diag: Diagonal | None = None,
    via: str = "slides",
    choice: PartialTableau | None = None,
) -> PartialTableau:
    """The standard tableau of shape rect attached to w: forward and
    reverse constructions spliced along a diagonal.  One promotion step
    carries the result to the tableau of (promotion cycle) o w, so its
    promotion order divides n.

    The diagonal must have n corners and fit in rect, and `choice` is
    taken on the slides route only; raises ValueError otherwise, before
    any construction work.  m >= n holds for every `Rectangle`; a tall
    rectangle is built with its short side as n
    (Rectangle(n, m, n_is_rows=False)).
    """
    n = w.n
    if rect.n != n:
        raise ValueError(f"rectangle n={rect.n} does not match permutation size {n}")
    if via not in ("slides", "insertion"):
        raise ValueError(f"unknown route {via!r}")
    if choice is not None and via == "insertion":
        raise ValueError("a choice tableau fixes the slide order; the insertion route makes no slides")
    diag = diag if diag is not None else staircase_diagonal(rect)
    if diag.n != n:
        raise ValueError(f"diagonal shape {diag.lambda_plus} has {diag.n} corners, need {n}")
    if diag.lambda_plus.nrows > rect.nrows or diag.lambda_plus.ncols > rect.ncols:
        raise ValueError(f"diagonal shape {diag.lambda_plus} does not fit in {rect.nrows}x{rect.ncols}")
    if via == "insertion":
        if not rect.n_is_rows:
            raise ValueError("insertion route needs n as the row count")
        return _minimal_orbit_tableau_insertion(w, rect, diag)
    # unchecked halves, which the splice checks as one grid; called through
    # the module names, which the benchmark wraps to count slides
    plus = forward_tableau(w, diag, choice, screen=False)
    minus = reverse_tableau(w, diag, rect, screen=False)
    return _splice(plus, minus, rect, diag)


def invert(t: PartialTableau, diag: Diagonal | None = None) -> Permutation:
    """Read the permutation back off the diagonal residues mod n.

    Raises NotMinimalOrbitError when the residues collide or the
    reconstructed permutation does not rebuild t, both of which certify
    that t is outside the minimal promotion-orbit set.
    """
    nrows, ncols = standard_rectangle_dims(t, "invert")
    n, m = min(nrows, ncols), max(nrows, ncols)
    rect = Rectangle(n, m, n_is_rows=(nrows == n))
    diag = diag if diag is not None else staircase_diagonal(rect)
    grid, width = t.grid, grid_size(nrows, ncols)[0]
    residues = tuple((grid[r * width + c] - 1) % n + 1 for r, c in diag.boxes)
    if sorted(residues) != list(range(1, n + 1)):
        raise NotMinimalOrbitError(f"diagonal residues {residues} collide; not in the minimal orbit set")
    w = Permutation(residues)
    if minimal_orbit_tableau(w, rect, diag).grid != grid:
        raise NotMinimalOrbitError("residues form a permutation but do not rebuild the tableau")
    return w
