"""Partitions, rectangles, skew shapes, and diagonals.

Conventions used everywhere in this package: English notation with 1-based
(row, col) coordinates and row 1 on top, so "above" means a smaller row
index.  Partitions are stored without trailing zeros; operations that need
padding (complement_shape) pad explicitly to the rectangle's row count.

All values are immutable after construction and safe to share between
threads.  Each shape computes its hash once, when it is built, and it is
the value the dataclass would compute from its compared fields: shapes key
the package's layout and plan caches, so a lookup does not rehash them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, zip_longest
from operator import le, lt
from typing import Iterator, NamedTuple


class Box(NamedTuple):
    """A 1-based (row, col) cell."""

    row: int
    col: int


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
        object.__setattr__(self, "_hash", hash((rows,)))

    def __hash__(self) -> int:
        return self._hash

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
    rectangle takes its short side as n, with n_is_rows=False.  A square
    has one spelling: its n_is_rows is always True.
    """

    n: int
    m: int
    n_is_rows: bool = True

    def __post_init__(self):
        if type(self.n) is not int or type(self.m) is not int:
            raise ValueError(f"rectangle sides must be integers: n={self.n!r}, m={self.m!r}")
        if type(self.n_is_rows) is not bool:
            raise ValueError(f"n_is_rows must be True or False: {self.n_is_rows!r}")
        if self.n < 1 or self.m < 1:
            raise ValueError("rectangle dimensions must be positive")
        if self.m < self.n:
            raise ValueError(f"a rectangle needs m >= n, got n={self.n}, m={self.m}; take the short side as n with n_is_rows=False")
        if self.n == self.m:
            object.__setattr__(self, "n_is_rows", True)
        object.__setattr__(self, "_hash", hash((self.n, self.m, self.n_is_rows)))

    def __hash__(self) -> int:
        return self._hash

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
        for name, p in (("outer", self.outer), ("inner", self.inner)):
            if not isinstance(p, Partition):  # a tuple of row lengths is never coerced
                raise ValueError(f"skew shape {name} must be a Partition: {p!r}")
        if not contains(self.inner, self.outer):
            raise ValueError(f"inner {self.inner} not contained in outer {self.outer}")
        object.__setattr__(self, "_hash", hash((self.outer, self.inner)))

    def __hash__(self) -> int:
        return self._hash

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

    def __str__(self) -> str:
        return f"{self.outer}/{self.inner}" if self.inner.rows else str(self.outer)


@dataclass(frozen=True)
class Diagonal:
    """n marked boxes, each strictly above and strictly right of the last,
    given by the smallest partition lambda_plus containing them.

    The boxes are its removable corners, so every nonempty partition is
    the outer shape of one diagonal.  `boxes` (bottom-left to top-right)
    and `lambda_minus` (lambda_plus without them) are derived here.
    """

    lambda_plus: Partition
    boxes: tuple[Box, ...] = field(init=False, compare=False, repr=False)
    lambda_minus: Partition = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.lambda_plus, Partition):
            raise ValueError(f"a diagonal's lambda_plus must be a Partition: {self.lambda_plus!r}")
        corners = removable_corners(self.lambda_plus)
        if not corners:
            raise ValueError("empty shape has no diagonal")
        rows = self.lambda_plus.rows
        object.__setattr__(self, "boxes", tuple(reversed(corners)))
        object.__setattr__(self, "lambda_minus", Partition(tuple(r - (r > below) for r, below in zip(rows, rows[1:] + (0,)))))
        object.__setattr__(self, "_hash", hash((self.lambda_plus,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.boxes)


@lru_cache(maxsize=256)
def staircase_diagonal(rect: Rectangle) -> Diagonal:
    """The default diagonal hugging the bottom-left corner of rect.

    Its boxes sit on the anti-diagonal row+col = nrows+1, which every
    promotion sliding path crosses exactly once.  Built once per
    rectangle; a Diagonal is immutable, so callers share it.
    """
    n = rect.n
    return Diagonal(Partition((n,) * (rect.nrows - n) + tuple(range(n, 0, -1))))


def enumerate_diagonals(rect: Rectangle) -> list[Diagonal]:
    """All diagonals of rect, in lexicographic order of their column sets.

    With rows as the short side, a diagonal has one box per row, at the end
    of its row, so lambda_plus is the chosen columns read top to bottom.  A
    tall rectangle's diagonals are the transposes of its transpose's.
    """
    if not rect.n_is_rows:
        return [Diagonal(transpose(d.lambda_plus)) for d in enumerate_diagonals(rect.transposed())]
    return [Diagonal(Partition(cols[::-1])) for cols in combinations(range(1, rect.m + 1), rect.n)]
