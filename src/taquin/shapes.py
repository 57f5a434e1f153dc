"""Partitions, rectangles, skew shapes, and diagonals.

Conventions used everywhere in this package: English notation with 1-based
(row, col) coordinates and row 1 on top, so "above" means a smaller row
index.  Partitions are stored without trailing zeros; operations that need
padding (complement_shape) pad explicitly to the rectangle's row count.

All values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, zip_longest
from operator import le, lt
from typing import Iterator, NamedTuple


class Box(NamedTuple):
    """A 1-based (row, col) cell."""

    row: int
    col: int


def box_leq(a, b) -> bool:
    """Box order: a <= b iff b is weakly right of and weakly above a."""
    a, b = Box(*a), Box(*b)
    return b.col >= a.col and b.row <= a.row


def box_less(a, b) -> bool:
    """Strict box order.

    Distinct boxes that are strictly right and strictly below one another
    are incomparable, so this is a genuine partial order.
    """
    return tuple(a) != tuple(b) and box_leq(a, b)


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive row lengths; () is the empty partition."""

    rows: tuple[int, ...] = ()

    def __post_init__(self):
        rows = tuple(self.rows)
        if any(type(r) is not int for r in rows):  # a bool, float or str is never coerced
            raise ValueError(f"row lengths must be integers: {rows!r}")
        while rows and rows[-1] == 0:
            rows = rows[:-1]
        if rows and min(rows) < 0:
            raise ValueError(f"negative row length in {rows!r}")
        if any(map(lt, rows, rows[1:])):
            raise ValueError(f"row lengths must weakly decrease: {rows!r}")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return sum(self.rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self.rows[0] if self.rows else 0

    def row_len(self, row: int) -> int:
        """Length of the 1-based `row`; 0 beyond the last row."""
        return self.rows[row - 1] if 1 <= row <= len(self.rows) else 0

    def col_len(self, col: int) -> int:
        """Length of the 1-based column, i.e. a part of the conjugate."""
        return sum(1 for r in self.rows if r >= col)

    def cells(self) -> Iterator[Box]:
        for i, length in enumerate(self.rows, start=1):
            for j in range(1, length + 1):
                yield Box(i, j)

    def __contains__(self, box) -> bool:
        row, col = box
        return row >= 1 and 1 <= col <= self.row_len(row)

    def __str__(self) -> str:
        return format_partition(self)


EMPTY = Partition()


def parse_partition(text: str) -> Partition:
    """Parse "5431" (digit string, parts <= 9) or "[12,10,3]"; "[]" is
    empty.  ASCII digits only."""
    text = text.strip()
    if text.isascii():
        if text.startswith("[") and text.endswith("]"):
            inner = text[1:-1].strip()
            parts = [p.strip() for p in inner.split(",")] if inner else []
            if all(p.isdigit() for p in parts):
                return Partition(tuple(map(int, parts)))
        elif text.isdigit():
            return Partition(tuple(map(int, text)))
    raise ValueError(f"not a partition: {text!r}")


def format_partition(p: Partition) -> str:
    if p.rows and all(r <= 9 for r in p.rows):
        return "".join(str(r) for r in p.rows)
    return "[" + ",".join(str(r) for r in p.rows) + "]"


def contains(inner: Partition, outer: Partition) -> bool:
    """True iff inner fits inside outer cellwise."""
    return inner.nrows <= outer.nrows and all(map(le, inner.rows, outer.rows))


def transpose(p: Partition) -> Partition:
    """Conjugate partition (column lengths)."""
    return Partition(tuple(p.col_len(c) for c in range(1, p.ncols + 1)))


def removable_corners(p: Partition) -> list[Box]:
    """Cells whose removal leaves a partition, ordered by row index."""
    out = []
    for i, length in enumerate(p.rows, start=1):
        if length > p.row_len(i + 1):
            out.append(Box(i, length))
    return out


@dataclass(frozen=True)
class Rectangle:
    """An n-by-m rectangle with m >= n; `n_is_rows` says which dimension
    counts rows.

    The bijection needs m >= n, and this class is where that rule lives:
    building a rectangle with m < n raises ValueError, so the construction,
    the verification suites and the command line never see one.  A tall
    rectangle takes its short side as n, with n_is_rows=False.
    """

    n: int
    m: int
    n_is_rows: bool = True

    def __post_init__(self):
        if type(self.n) is not int or type(self.m) is not int:
            raise ValueError(f"rectangle sides must be integers: n={self.n!r}, m={self.m!r}")
        if self.n < 1 or self.m < 1:
            raise ValueError("rectangle dimensions must be positive")
        if self.m < self.n:
            raise ValueError(f"a rectangle needs m >= n, got n={self.n}, m={self.m}; take the short side as n with n_is_rows=False")

    @property
    def nrows(self) -> int:
        return self.n if self.n_is_rows else self.m

    @property
    def ncols(self) -> int:
        return self.m if self.n_is_rows else self.n

    @property
    def ncells(self) -> int:
        return self.n * self.m

    def transposed(self) -> "Rectangle":
        return Rectangle(self.n, self.m, not self.n_is_rows)

    def as_partition(self) -> Partition:
        return Partition((self.ncols,) * self.nrows)

    def __contains__(self, box) -> bool:
        row, col = box
        return 1 <= row <= self.nrows and 1 <= col <= self.ncols


def complement_shape(p: Partition, rect: Rectangle) -> Partition:
    """180-degree complement of p inside rect; an involution."""
    if p.nrows > rect.nrows or p.ncols > rect.ncols:
        raise ValueError(f"{p} does not fit in {rect.nrows}x{rect.ncols}")
    return Partition(tuple(rect.ncols - p.row_len(r) for r in range(rect.nrows, 0, -1)))


def complement_box(b, rect: Rectangle) -> Box:
    """180-degree rotation of the rectangle; an involution."""
    b = Box(*b)
    if b not in rect:
        raise ValueError(f"{b} outside {rect.nrows}x{rect.ncols}")
    return Box(rect.nrows + 1 - b.row, rect.ncols + 1 - b.col)


@dataclass(frozen=True)
class SkewShape:
    """Cells of `outer` not in `inner`; inner must fit inside outer."""

    outer: Partition
    inner: Partition = EMPTY

    def __post_init__(self):
        if not contains(self.inner, self.outer):
            raise ValueError(f"inner {self.inner} not contained in outer {self.outer}")

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def cells(self) -> Iterator[Box]:
        rows = zip_longest(self.inner.rows, self.outer.rows, fillvalue=0)
        for i, (start, end) in enumerate(rows, start=1):
            for j in range(start + 1, end + 1):
                yield Box(i, j)

    def __contains__(self, box) -> bool:
        row, col = box
        return box in self.outer and col > self.inner.row_len(row)


@dataclass(frozen=True)
class Diagonal:
    """n marked boxes, each strictly above and strictly right of the last.

    `boxes` lists them bottom-left to top-right; they are exactly the cells
    of lambda_plus/lambda_minus, and lambda_plus is the smallest partition
    containing them (equivalently, the boxes are its removable corners).
    """

    lambda_plus: Partition
    lambda_minus: Partition
    boxes: tuple[Box, ...]

    def __post_init__(self):
        boxes = tuple(Box(*b) for b in self.boxes)
        object.__setattr__(self, "boxes", boxes)
        if not boxes:
            raise ValueError("a diagonal needs at least one box")
        for a, b in zip(boxes, boxes[1:]):
            if not (b.row < a.row and b.col > a.col):
                raise ValueError(f"{b} is not strictly above and right of {a}")
        skew = set(SkewShape(self.lambda_plus, self.lambda_minus).cells())
        if set(boxes) != skew:
            raise ValueError("boxes do not match lambda_plus/lambda_minus")
        # each box of this chain-shaped skew shape is a removable corner of
        # lambda_plus, which is the smallest partition around the boxes
        # exactly when it has no other corner: one per distinct row length
        if len(set(self.lambda_plus.rows)) != len(boxes):
            raise ValueError(f"{self.lambda_plus} is not the smallest partition containing the boxes")

    @property
    def n(self) -> int:
        return len(self.boxes)

    def box(self, i: int) -> Box:
        """The i-th marked box, 1-based from the bottom-left."""
        return self.boxes[i - 1]


def _shape_around(boxes) -> Partition:
    """Smallest partition containing the given boxes."""
    nrows = max(b.row for b in boxes)
    rows = []
    for r in range(1, nrows + 1):
        rows.append(max(b.col for b in boxes if b.row >= r))
    return Partition(tuple(rows))


def diagonal_from_boxes(boxes) -> Diagonal:
    boxes = tuple(Box(*b) for b in boxes)
    lam_plus = _shape_around(boxes)
    corner_rows = {b.row for b in boxes}
    lam_minus = Partition(
        tuple(
            lam_plus.rows[r - 1] - (1 if r in corner_rows else 0)
            for r in range(1, lam_plus.nrows + 1)
        )
    )
    return Diagonal(lam_plus, lam_minus, boxes)


def diagonal_from_lambda_plus(lam_plus: Partition) -> Diagonal:
    """The diagonal whose boxes are the removable corners of lam_plus."""
    corners = removable_corners(lam_plus)
    if not corners:
        raise ValueError("empty shape has no diagonal")
    return diagonal_from_boxes(tuple(reversed(corners)))


@lru_cache(maxsize=256)
def staircase_diagonal(rect: Rectangle) -> Diagonal:
    """The default diagonal hugging the bottom-left corner of rect.

    Its boxes sit on the anti-diagonal row+col = nrows+1, which every
    promotion sliding path crosses exactly once.  Built once per
    rectangle; a Diagonal is immutable, so callers share it.
    """
    boxes = tuple(Box(rect.nrows + 1 - i, i) for i in range(1, rect.n + 1))
    return diagonal_from_boxes(boxes)


def enumerate_diagonals(rect: Rectangle) -> list[Diagonal]:
    """All diagonals of rect, in lexicographic order of their column sets.

    A diagonal has min(nrows, ncols) boxes, one per row when rows are the
    short side (one per column otherwise), read bottom-left to top-right.
    The shapes are built from the chosen lines: with one box per row, at
    the end of its row, lambda_plus has the boxes' columns as its rows and
    lambda_minus is one shorter in every row; with one box per column, at
    the foot of its column, the same holds for their conjugates.
    """
    n = min(rect.nrows, rect.ncols)
    out = []
    if rect.nrows <= rect.ncols:
        for cols in combinations(range(1, rect.ncols + 1), n):
            boxes = tuple(map(Box, range(n, 0, -1), cols))
            plus = cols[::-1]
            out.append(Diagonal(Partition(plus), Partition(tuple(c - 1 for c in plus)), boxes))
    else:
        for rows in combinations(range(1, rect.nrows + 1), n):
            boxes = tuple(map(Box, rows[::-1], range(1, n + 1)))
            # rows top+1..bottom of lambda_plus have length n - k, and the
            # last of them ends in the box of column n - k
            plus, minus = [], []
            for k, (top, bottom) in enumerate(zip((0, *rows), rows)):
                plus += [n - k] * (bottom - top)
                minus += [n - k] * (bottom - top - 1) + [n - k - 1]
            out.append(Diagonal(Partition(tuple(plus)), Partition(tuple(minus)), boxes))
    return out


def complement_diagonal(d: Diagonal, rect: Rectangle) -> Diagonal:
    """The image of a diagonal under the 180-degree complement."""
    boxes = tuple(complement_box(b, rect) for b in reversed(d.boxes))
    return Diagonal(
        complement_shape(d.lambda_minus, rect),
        complement_shape(d.lambda_plus, rect),
        boxes,
    )
