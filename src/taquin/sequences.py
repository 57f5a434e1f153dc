"""The check layer's sequences: descents, periodic and descent sequences,
classical and strict Knuth moves over a poset with the bounded equivalence
search, the moves of row insertion, corner peeling, diagonal-driven box
sequences with their displacement counts and closed forms, and the box
order that transports the moves to box sequences.

The verification suites and the demos read these; the pipe (`construct`,
`promote`, `invert`) runs none of them, so the package puts this module in
`sys.modules` unrun and it compiles on first use.

Positions in three-letter windows are 1-based throughout: a move at k acts
on the letters at k, k+1, k+2.  `column_sequence` and `delta_closed_form`
assume the permutation size n is the number of *columns*, and check it.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice

from .shapes import Box, Diagonal, Partition, SkewShape
from .tableaux import PartialTableau, _grid_layout, from_grid, grid_slide
from .words import Permutation
from .orbits import _refill_slide, _slide_plan, _slide_starts


# -- words and sequences --------------------------------------------------


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


# -- Knuth moves ----------------------------------------------------------


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


# -- the box order --------------------------------------------------------


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


# -- corner peeling and box sequences -------------------------------------


def _pop_corner(mu: list[int], b: Box) -> None:
    row, col = b
    if not (1 <= row <= len(mu) and mu[row - 1] == col and (row == len(mu) or mu[row] < col)):
        raise ValueError(f"{b} is not a removable corner of the unfilled region")
    mu[row - 1] -= 1


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

    Each slide that moves deletes one entry.  Once none is left every
    slide is trivial, ending at its own diagonal box, so the remaining
    terminals are those boxes, recorded without sliding (with trace=True
    the slides still run, one frame each).  With steps=None runs
    n*(size of lambda_minus + 1) steps, enough for every entry to have
    been deleted (asserted).
    """
    n = diag.n
    plan = _slide_plan(diag, None)
    region, width, seeds = plan.region, plan.width, plan.seeds
    starts = plan.starts if choice is None else _slide_starts(choice, plan.shape, width, 0)
    auto = steps is None
    if auto:
        steps = n * (diag.lambda_minus.size + 1)
    sig = prefix_terms(sigma, steps)
    if sig and (set(map(type, sig)) != {int} or not (1 <= min(sig) and max(sig) <= n)):
        bad = next(s for s in sig if type(s) is not int or not 1 <= s <= n)
        raise ValueError(f"sequence term {bad!r} is not an integer in 1..{n}")
    cells = _grid_layout(region).cells
    # slides go in decreasing entry order, so entry k sits at the k-th last start
    grid = [0] * plan.size
    for k, i in enumerate(reversed(starts), start=1):
        grid[i] = k
    left = len(starts)
    frames = [from_grid(region, grid)] if trace else None
    ends = []
    delta = dict.fromkeys(range(1, n + 1), 0)
    for s in sig:
        if not (left or trace):
            break
        p = seeds[s - 1]
        if grid[p]:
            raise RuntimeError(f"diagonal box {cells[p]} occupied before its slide")
        end, moved = grid_slide(grid, width, p, False)
        ends.append(end)
        if moved:  # so the terminal is off box p, and an entry reached p
            grid[p] = 0
            left -= 1
            delta[s] += 1
        if trace:
            frames.append(from_grid(region, grid))
    if auto and left:
        raise RuntimeError("stabilization bound too small: entries remain")
    ends += [seeds[s - 1] for s in sig[len(ends):]]
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
    _check_length(count)
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
