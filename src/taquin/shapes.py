"""Partitions, rectangles, skew shapes, and diagonals.

Conventions used everywhere in this package: English notation with 1-based
(row, col) coordinates and row 1 on top, so "above" means a smaller row
index.  Partitions are stored without trailing zeros; operations that need
padding (complement_shape) pad explicitly to the rectangle's row count.

All values are immutable after construction and safe to share between
threads.  The shapes and `words.Permutation` are `_Value`s: each computes
its hash once, when it is built, as the hash of the tuple of its compared
fields, so shapes key the package's layout and plan caches without being
rehashed on each lookup.  None of this needs `dataclasses` or `typing`,
whose imports would lengthen the start of every command of the pipe.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from itertools import combinations, zip_longest
from operator import le, lt

Box = namedtuple("Box", "row col")
Box.__doc__ = "A 1-based (row, col) cell."

_set = object.__setattr__  # how a value's own __init__ fills its slots
_INT = frozenset({int})


class _Value:
    """An immutable value on `__slots__`, equal only to a value of its own
    class with equal compared fields.

    A subclass names its constructor's arguments in `_fields`, sets its
    slots with `_set` and ends its `__init__` with `_seal(key)`, where key
    holds its compared fields in `_fields` order: the checked, normalised
    arguments.  The hash is that tuple's, taken once; repr spells the
    fields as a dataclass would, and pickle and copy rebuild the value
    through its constructor.
    """

    __slots__ = ("_key", "_hash")
    _fields: tuple[str, ...] = ()

    def _seal(self, key: tuple) -> None:
        _set_key(self, key)
        _set_hash(self, hash(key))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key


# a slot's own setter, quicker than `_set` on the path every value takes
_set_key, _set_hash = _Value._key.__set__, _Value._hash.__set__


class Partition(_Value):
    """Weakly decreasing positive row lengths; () is the empty partition."""

    __slots__ = ("rows",)
    _fields = ("rows",)

    def __init__(self, rows: tuple[int, ...] = ()):
        rows = tuple(rows)
        if not _INT.issuperset(map(type, rows)):  # a bool, float or str is never coerced
            raise ValueError(f"row lengths must be integers: {rows!r}")
        while rows and rows[-1] == 0:
            rows = rows[:-1]
        if rows and min(rows) < 0:
            raise ValueError(f"negative row length in {rows!r}")
        if any(map(lt, rows, rows[1:])):
            raise ValueError(f"row lengths must weakly decrease: {rows!r}")
        _set(self, "rows", rows)
        self._seal((rows,))

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


class Rectangle(_Value):
    """An n-by-m rectangle with m >= n; `n_is_rows` says which dimension
    counts rows.

    The bijection needs m >= n, and this class is where that rule lives:
    building a rectangle with m < n raises ValueError, so the construction,
    the verification suites and the command line never see one.  A tall
    rectangle takes its short side as n, with n_is_rows=False.  A square
    has one spelling: its n_is_rows is always True.
    """

    __slots__ = ("n", "m", "n_is_rows")
    _fields = ("n", "m", "n_is_rows")

    def __init__(self, n: int, m: int, n_is_rows: bool = True):
        if type(n) is not int or type(m) is not int:
            raise ValueError(f"rectangle sides must be integers: n={n!r}, m={m!r}")
        if type(n_is_rows) is not bool:
            raise ValueError(f"n_is_rows must be True or False: {n_is_rows!r}")
        if n < 1 or m < 1:
            raise ValueError("rectangle dimensions must be positive")
        if m < n:
            raise ValueError(f"a rectangle needs m >= n, got n={n}, m={m}; take the short side as n with n_is_rows=False")
        if n == m:
            n_is_rows = True
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "n_is_rows", n_is_rows)
        self._seal((n, m, n_is_rows))

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


class SkewShape(_Value):
    """Cells of `outer` not in `inner`; inner must fit inside outer."""

    __slots__ = ("outer", "inner")
    _fields = ("outer", "inner")

    def __init__(self, outer: Partition, inner: Partition = EMPTY):
        for name, p in (("outer", outer), ("inner", inner)):
            if not isinstance(p, Partition):  # a tuple of row lengths is never coerced
                raise ValueError(f"skew shape {name} must be a Partition: {p!r}")
        if not contains(inner, outer):
            raise ValueError(f"inner {inner} not contained in outer {outer}")
        _set(self, "outer", outer)
        _set(self, "inner", inner)
        self._seal((outer, inner))

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


class Diagonal(_Value):
    """n marked boxes, each strictly above and strictly right of the last,
    given by the smallest partition lambda_plus containing them.

    The boxes are its removable corners, so every nonempty partition is
    the outer shape of one diagonal.  `boxes` (bottom-left to top-right)
    and `lambda_minus` (lambda_plus without them) are derived here.
    """

    __slots__ = ("lambda_plus", "boxes", "lambda_minus")
    _fields = ("lambda_plus",)

    def __init__(self, lambda_plus: Partition):
        if not isinstance(lambda_plus, Partition):
            raise ValueError(f"a diagonal's lambda_plus must be a Partition: {lambda_plus!r}")
        corners = removable_corners(lambda_plus)
        if not corners:
            raise ValueError("empty shape has no diagonal")
        rows = lambda_plus.rows
        _set(self, "lambda_plus", lambda_plus)
        _set(self, "boxes", tuple(reversed(corners)))
        _set(self, "lambda_minus", Partition(tuple(r - (r > below) for r, below in zip(rows, rows[1:] + (0,)))))
        self._seal((lambda_plus,))

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
