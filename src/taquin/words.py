"""Permutations, the augmented word of a permutation, and row insertion:
what the constructions and the command line run.

A Permutation is a `shapes._Value`, so it hashes once, when it is built,
and the pipe imports no `dataclasses` to define it.

Descents, periodic and descent sequences, and the Knuth moves with the
bounded equivalence search serve only the checks, and live in
`taquin.sequences`, which the pipe never compiles.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import permutations

from .shapes import _INT, _set, _Value


class Permutation(_Value):
    """One-line notation w(1)..w(n); a bijection on {1..n}."""

    __slots__ = ("oneline",)
    _fields = ("oneline",)

    def __init__(self, oneline: tuple[int, ...]):
        w = tuple(oneline)
        if not _INT.issuperset(map(type, w)):  # a bool, float or str is never coerced
            raise ValueError(f"permutation values must be integers: {w!r}")
        if sorted(w) != list(range(1, len(w) + 1)):
            raise ValueError(f"not a permutation of 1..{len(w)}: {w}")
        _set(self, "oneline", w)
        self._seal((w,))

    @property
    def n(self) -> int:
        return len(self.oneline)

    def __call__(self, i: int) -> int:
        return self.oneline[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.oneline, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def __str__(self) -> str:
        return format_permutation(self)


def promotion_cycle(n: int) -> Permutation:
    """The n-cycle sending 1 to n and k to k-1.

    Composing it after a permutation (c o w) subtracts 1 mod n from every
    one-line value, which is how one promotion step acts on diagonal
    residues.
    """
    return Permutation((n,) + tuple(range(1, n)))


def right_multiply(w: Permutation, v: Permutation) -> Permutation:
    """(w . v)(i) = w(v(i))."""
    if w.n != v.n:
        raise ValueError("size mismatch")
    return Permutation(tuple(w(v(i)) for i in range(1, w.n + 1)))


def conjugate_by_reversal(w: Permutation) -> Permutation:
    """w0 w w0, i.e. i -> n+1 - w(n+1-i)."""
    n = w.n
    return Permutation(tuple(n + 1 - w(n + 1 - i) for i in range(1, n + 1)))


def all_permutations(n: int):
    for p in permutations(range(1, n + 1)):
        yield Permutation(p)


def parse_permutation(text: str) -> Permutation:
    """Parse "3142" (digits, n <= 9) or "3,1,4,2"; ASCII digits only."""
    text = text.strip()
    if text.isascii():
        if "," in text:
            parts = [p.strip() for p in text.split(",")]
            if all(p.isdigit() for p in parts):
                return Permutation(tuple(map(int, parts)))
        elif text.isdigit():
            return Permutation(tuple(map(int, text)))
    raise ValueError(f"not a permutation: {text!r}")


def format_permutation(w: Permutation) -> str:
    if w.n <= 9:
        return "".join(str(v) for v in w.oneline)
    return ",".join(str(v) for v in w.oneline)


def augmented_word(w: Permutation, m: int) -> tuple[int, ...]:
    """w(i), w(i)+n, ..., w(i)+(m-1)n concatenated over i; a permutation
    of 1..mn."""
    if m < 1:
        raise ValueError("m must be positive")
    n = w.n
    out = []
    for i in range(1, n + 1):
        out.extend(w(i) + j * n for j in range(m))
    return tuple(out)


def insertion_tableau(word) -> tuple[tuple[int, ...], ...]:
    """Row insertion; each letter bumps the smallest strictly larger entry
    of its row.  Repeats are allowed (rows come out weakly increasing), and
    letters are taken as they are: any totally ordered values will do."""
    rows: list[list[int]] = []
    for x in word:
        i = 0
        while True:
            if i == len(rows):
                rows.append([x])
                break
            row = rows[i]
            if x >= row[-1]:
                row.append(x)
                break
            pos = bisect_right(row, x)
            row[pos], x = x, row[pos]
            i += 1
    return tuple(tuple(r) for r in rows)


def __getattr__(name):
    # bench/spans.py reads `taquin.words.bounded_equivalence`; this
    # forward goes with the next benchmark revision
    if name == "bounded_equivalence":
        from .sequences import bounded_equivalence
        return bounded_equivalence
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
