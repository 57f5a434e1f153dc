"""Permutations, periodic and descent sequences, row insertion, and Knuth
transformations (classical and strict, over an arbitrary poset).

Positions in three-letter windows are 1-based throughout: a move at k acts
on the letters at k, k+1, k+2.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice, permutations


@dataclass(frozen=True)
class Permutation:
    """One-line notation w(1)..w(n); a bijection on {1..n}."""

    oneline: tuple[int, ...]

    def __post_init__(self):
        w = tuple(self.oneline)
        if any(type(v) is not int for v in w):  # a bool, float or str is never coerced
            raise ValueError(f"permutation values must be integers: {w!r}")
        object.__setattr__(self, "oneline", w)
        if sorted(w) != list(range(1, len(w) + 1)):
            raise ValueError(f"not a permutation of 1..{len(w)}: {w}")

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


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


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


def descents(w: Permutation) -> set[int]:
    """{i : w(i) > w(i+1)}."""
    return {i for i in range(1, w.n) if w(i) > w(i + 1)}


def _check_length(n: int) -> None:
    if type(n) is not int or n < 0:
        raise ValueError(f"prefix length must be {'nonnegative' if type(n) is int else 'an integer'}, got {n!r}")


@dataclass(frozen=True)
class PeriodicSequence:
    """A finite generator repeated forever."""

    generator: tuple[int, ...]

    def __post_init__(self):
        if not self.generator:
            raise ValueError("empty generator")

    def prefix(self, n: int) -> tuple[int, ...]:
        _check_length(n)
        g = self.generator
        reps = -(-n // len(g))
        return (g * reps)[:n]


@dataclass(frozen=True)
class DescentSequence:
    """Concatenated blocks (d_j+1, ..., n) with d_j = 0 past the last
    descent, so the tail repeats 1..n."""

    descents: tuple[int, ...]
    n: int

    def __post_init__(self):
        d = self.descents
        if type(self.n) is not int or any(type(x) is not int for x in d):  # a bool, float or str is never coerced
            raise ValueError(f"n and the descents must be integers, got n={self.n!r}, descents {d!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if any(not 1 <= x <= self.n - 1 for x in d):
            raise ValueError(f"descents must lie in 1..{self.n - 1}")
        if any(a <= b for a, b in zip(d, d[1:])):
            raise ValueError("descents must strictly decrease")

    def prefix(self, n: int) -> tuple[int, ...]:
        _check_length(n)
        head = tuple(chain.from_iterable(range(d + 1, self.n + 1) for d in self.descents))
        short = n - len(head)
        if short <= 0:
            return head[:n]
        return head + (tuple(range(1, self.n + 1)) * -(-short // self.n))[:short]


def prefix_terms(seq, n: int) -> tuple:
    """First n terms of a sequence-like: anything with .prefix, a finite
    sequence of length >= n, or an iterable."""
    _check_length(n)
    if hasattr(seq, "prefix"):
        return tuple(seq.prefix(n))
    if isinstance(seq, (list, tuple)):
        if len(seq) < n:
            raise ValueError(f"need {n} terms, got {len(seq)}")
        return tuple(seq[:n])
    out = tuple(islice(iter(seq), n))
    if len(out) < n:
        raise ValueError(f"need {n} terms, got {len(out)}")
    return out


def inverse_word_sequence(w: Permutation) -> PeriodicSequence:
    """The one-line word of w^-1, repeated forever."""
    return PeriodicSequence(w.inverse().oneline)


def descent_sequence(w: Permutation) -> DescentSequence:
    return DescentSequence(tuple(sorted(descents(w), reverse=True)), w.n)


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


def elementary_knuth(word, k: int):
    """Classical Knuth move on the window at 1-based position k, or None
    when neither pattern applies.  Defined when applying it twice returns
    the original word."""
    w = tuple(word)
    if not 1 <= k <= len(w) - 2:
        raise ValueError(f"k must lie in 1..{len(w) - 2}")
    a, b, c = w[k - 1 : k + 2]
    if b != c and min(b, c) < a <= max(b, c):
        return w[: k - 1] + (a, c, b) + w[k + 2 :]
    if a != b and min(a, b) <= c < max(a, b):
        return w[: k - 1] + (b, a, c) + w[k + 2 :]
    return None


def strict_knuth(seq, k: int, less=None):
    """Strict Knuth move: like the classical move but every comparison in
    the pattern must hold strictly in the poset; None when undefined,
    which includes windows with incomparable terms.  `less` is the
    poset's strict order test (integer < by default); returns a tuple.
    """
    terms, lt = tuple(seq), less or operator.lt
    if not 1 <= k <= len(terms) - 2:
        raise ValueError(f"k must lie in 1..{len(terms) - 2}")
    a, b, c = terms[k - 1 : k + 2]
    if (lt(b, a) and lt(a, c)) or (lt(c, a) and lt(a, b)):
        return terms[: k - 1] + (a, c, b) + terms[k + 2 :]
    if (lt(a, c) and lt(c, b)) or (lt(b, c) and lt(c, a)):
        return terms[: k - 1] + (b, a, c) + terms[k + 2 :]
    return None


@dataclass(frozen=True)
class EquivalenceVerdict:
    status: str  # "proved" | "refuted-at-N" | "inconclusive"
    witness: tuple[int, ...] | None = None
    explored: int = 0


def bounded_equivalence(a, b, n: int, budget: int = 100_000, slack: int = 4) -> EquivalenceVerdict:
    """Search for strict Knuth moves carrying a prefix of `a` onto the
    n-term prefix of `b`.

    Breadth-first over moves on the (n + slack)-term prefix of `a`.
    "proved" comes with the move positions; "refuted-at-N" means the whole
    reachable set at this prefix length was exhausted within budget (moves
    could in principle pull letters in from beyond any finite prefix, so
    this refutes only at the chosen horizon); otherwise "inconclusive".
    """
    for name, value in (("n", n), ("budget", budget), ("slack", slack)):
        if type(value) is not int or value < 0:  # a bool, float or str is never coerced
            raise ValueError(f"n, budget and slack must be nonnegative integers, got {name}={value!r}")
    target = prefix_terms(b, n)
    length = n + slack
    start = prefix_terms(a, length)
    if start[:n] == target:
        return EquivalenceVerdict("proved", (), 0)
    seen = {start: (None, None)}
    queue = deque([start])
    explored = 0
    while queue:
        if explored >= budget:
            return EquivalenceVerdict("inconclusive", None, explored)
        cur = queue.popleft()
        explored += 1
        for k in range(1, length - 1):
            nxt = strict_knuth(cur, k)
            if nxt is None or nxt in seen:
                continue
            seen[nxt] = (cur, k)
            if nxt[:n] == target:
                moves = []
                node = nxt
                while seen[node][0] is not None:
                    node, k_used = seen[node]
                    moves.append(k_used)
                return EquivalenceVerdict("proved", tuple(reversed(moves)), explored)
            queue.append(nxt)
    return EquivalenceVerdict("refuted-at-N", None, explored)


def insertion_knuth_positions(word) -> list[int]:
    """Positions k such that applying classical Knuth moves at them, in
    order, carries `word` onto the row reading word of its insertion
    tableau.

    When every prefix insertion tableau is row-strict, each of these moves
    also matches a strict pattern (checked by the suite by replaying them
    through strict_knuth).
    """
    rows: list[list[int]] = []
    moves = []
    for carry in word:
        i = 0
        while True:
            if i == len(rows):
                rows.append([carry])
                break
            row = rows[i]
            pos = bisect_right(row, carry)
            if pos == len(row):
                row.append(carry)
                break
            off = sum(len(rows[j]) for j in range(i + 1, len(rows)))
            # walk the new letter left past the row tail, then walk the
            # bumped letter out to the front of the row
            for j in range(len(row) - 1, pos, -1):
                moves.append(off + j)
            for j in range(pos, 0, -1):
                moves.append(off + j)
            row[pos], carry = carry, row[pos]
            i += 1
    return moves


def reading_word_of_rows(rows) -> tuple[int, ...]:
    """Row reading word of a tableau given as rows, bottom row first."""
    out = []
    for row in reversed(tuple(rows)):
        out.extend(row)
    return tuple(out)
