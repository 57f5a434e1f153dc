"""The core constructions: forward/reverse tableau building along a
diagonal, the combined minimal-orbit tableau of a permutation, its
augmented-word insertion route, and its inverse.

Constructions reuse per-shape plans: what a forward or reverse
construction needs of its shapes alone (the grid layout, the diagonal's
seed and target cells, the superstandard slide order) is built once per
diagonal and rectangle and kept in a bounded cache.  A choice tableau's
slide order is derived and checked once per equal choice, shape and grid
and kept in a bounded cache too; a choice that fails the check is
refused again on every call.

Corner peeling, the walk over every choice tableau, box sequences and
their closed forms serve only the checks, and live in `taquin.sequences`
on these plans, so the pipe never compiles them.

Orientation note: the slide-based constructions work in either
orientation of the rectangle, while `augmented_insertion_tableau`
assumes n is the number of *rows*, and checks it instead of transposing
silently.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

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
from .words import Permutation, augmented_word, conjugate_by_reversal, insertion_tableau


class NotMinimalOrbitError(ValueError):
    """The tableau is not in the minimal promotion-orbit set."""


class DiagonalMismatchError(RuntimeError):
    """Forward and reverse constructions disagreed on the diagonal, which
    the combination theorem forbids; this signals an implementation bug."""


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


@lru_cache(maxsize=1024)
def _slide_starts(choice: PartialTableau | None, shape: Partition, width: int, far: int) -> tuple[int, ...]:
    """Grid indices of the slides, in the choice tableau's slide order:
    each cell of `shape` itself when far is 0, otherwise its 180-degree
    rotation far - i.  The largest entry of a standard filling sits at a
    corner of its shape, so each cell is a corner of what is left unslid.
    Cached: equal choices share one derivation, and an exception is not
    cached, so a bad choice raises on every call."""
    starts = [b.row * width + b.col for b in _slide_order(choice, shape)]
    return tuple(far - i for i in starts) if far else tuple(starts)


# What a construction along a diagonal needs of its shapes alone.
_SlidePlan = namedtuple("_SlidePlan", (
    "region",  # a SkewShape
    "shape",  # the slid cells, a Partition on which a choice tableau lives
    "width",
    "size",  # grid length
    "seeds",  # grid index of the i-th diagonal box
    "targets",  # frozenset of the grid indices of the diagonal boxes
    "starts",  # slide starts in the superstandard order
    "far",  # 0 forward; reverse, the grid length: the rotation maps index i to far - i
))


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


def _seeded(w: Permutation, diag: Diagonal, rect: Rectangle | None) -> tuple[_SlidePlan, list[int]]:
    """The plan of the construction along `diag` (forward when rect is
    None) and its grid with w(i) seeded at the i-th diagonal box, plus
    (m-1)n in reverse."""
    n = diag.n
    if w.n != n:
        raise ValueError(f"permutation size {w.n} != diagonal size {n}")
    plan = _slide_plan(diag, rect)
    grid = [0] * plan.size
    shift = 0 if rect is None else rect.ncells - n
    for i, v in zip(plan.seeds, w.oneline):
        grid[i] = v + shift
    return plan, grid


def _construct(w: Permutation, diag: Diagonal, rect: Rectangle | None, choice: PartialTableau | None, trace: bool, screen: bool):
    """Seed w, then slide from each cell of the plan's shape in the choice
    tableau's slide order: forward from the cell itself when rect is None,
    otherwise in reverse from its 180-degree rotation in rect.  Each path
    must end on the diagonal, whose box takes the entry that left it plus
    n (forward) or minus n.  With screen=False (and no trace) the result
    is built without the validator, for a caller that checks it itself."""
    (region, shape, width, _, _, targets, starts, far), grid = _seeded(w, diag, rect)
    if choice is not None:
        starts = _slide_starts(choice, shape, width, far)
    forward = rect is None
    shift = diag.n if forward else -diag.n
    frames = [from_grid(region, grid)] if trace else None
    for hole in starts:
        _refill_slide(grid, width, hole, forward, targets, shift)
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


def _checked_diagonal(diag: Diagonal | None, rect: Rectangle) -> Diagonal:
    """`diag`, or the staircase diagonal of rect when None; raises
    ValueError unless it has n corners and fits in rect."""
    diag = diag if diag is not None else staircase_diagonal(rect)
    if diag.n != rect.n:
        raise ValueError(f"diagonal shape {diag.lambda_plus} has {diag.n} corners, need {rect.n}")
    if diag.lambda_plus.nrows > rect.nrows or diag.lambda_plus.ncols > rect.ncols:
        raise ValueError(f"diagonal shape {diag.lambda_plus} does not fit in {rect.nrows}x{rect.ncols}")
    return diag


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
    diag = _checked_diagonal(diag, rect)
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

    Raises ValueError, before any residue is read, for a diagonal that
    does not have n corners or fit in t's rectangle, and
    NotMinimalOrbitError when the residues collide or the reconstructed
    permutation does not rebuild t, both of which certify that t is
    outside the minimal promotion-orbit set.
    """
    nrows, ncols = standard_rectangle_dims(t, "invert")
    n, m = min(nrows, ncols), max(nrows, ncols)
    rect = Rectangle(n, m, n_is_rows=(nrows == n))
    diag = _checked_diagonal(diag, rect)
    grid, width = t.grid, grid_size(nrows, ncols)[0]
    residues = tuple((grid[r * width + c] - 1) % n + 1 for r, c in diag.boxes)
    if sorted(residues) != list(range(1, n + 1)):
        raise NotMinimalOrbitError(f"diagonal residues {residues} collide; not in the minimal orbit set")
    w = Permutation(residues)
    if minimal_orbit_tableau(w, rect, diag).grid != grid:
        raise NotMinimalOrbitError("residues form a permutation but do not rebuild the tableau")
    return w


def __getattr__(name):
    # bench/spans.py reads `taquin.orbits.box_sequence`; this forward goes
    # with the next benchmark revision
    if name == "box_sequence":
        from .sequences import box_sequence
        return box_sequence
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
