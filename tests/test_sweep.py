"""The orbit sweep checked by its contract: `standard_tableaux`,
`orbit_table` and `OrbitTable` against one reference on row tuples, a
recursive enumerator and the orbits of object-level promotion."""

import pytest

from taquin.shapes import Partition, Rectangle
from taquin.sieving import count_standard_tableaux, divisors, q_hook_at_root
from taquin.sweep import orbit_table, standard_tableaux
from taquin.tableaux import from_rows, promotion


def syt_by_recursion(rows):
    """Every standard tableau of the partition `rows`, as row tuples:
    entries placed 1..N, the topmost feasible row tried first."""
    total = sum(rows)
    filling = [[] for _ in rows]
    out = []

    def place(k):
        if k > total:
            out.append(tuple(map(tuple, filling)))
            return
        for i, row in enumerate(filling):
            if len(row) < rows[i] and (i == 0 or len(filling[i - 1]) > len(row)):
                row.append(k)
                place(k + 1)
                row.pop()

    place(1)
    return out


def orbits_by_promotion(rect):
    """The promotion orbits of the tableaux of `rect`, in enumeration order
    of their first tableaux, each listed from that tableau on: every
    unvisited tableau of the reference is walked around its orbit with
    object `promotion`."""
    seen = set()
    orbits = []
    for rows in syt_by_recursion(rect.as_partition().rows):
        if rows in seen:
            continue
        orbit = [rows]
        cur = promotion(from_rows(rows)).row_tuples()
        while cur != rows:
            orbit.append(cur)
            cur = promotion(from_rows(cur)).row_tuples()
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def partitions(total, most=None):
    """Every partition of `total`, as a tuple of parts, largest first."""
    if total == 0:
        return [()]
    most = total if most is None else most
    return [(part, *rest) for part in range(min(total, most), 0, -1) for rest in partitions(total - part, part)]


def rectangles(cells):
    """Every rectangle of `cells` cells, in both orientations."""
    return [
        Rectangle(n, cells // n, rows)
        for n in range(1, cells + 1)
        if cells % n == 0 and n * n <= cells
        for rows in ((True,) if n * n == cells else (True, False))
    ]


def test_standard_tableaux_are_the_recursive_enumeration_in_order():
    shapes = [Partition(p) for total in range(13) for p in partitions(total)] + [Partition((6, 6, 6))]
    assert len(shapes) == 273
    for shape in shapes:
        assert list(standard_tableaux(shape)) == syt_by_recursion(shape.rows), shape


SMALL_RECTANGLES = [rect for cells in range(1, 17) for rect in rectangles(cells)]


@pytest.mark.parametrize("rect", SMALL_RECTANGLES, ids=lambda r: f"{r.nrows}x{r.ncols}")
def test_orbit_table_is_the_orbits_of_promotion(rect):
    orbits = orbits_by_promotion(rect)
    table = orbit_table(rect)
    sizes = [len(orbit) for orbit in orbits]
    assert table.total == sum(sizes)
    assert list(table.sizes) == sizes
    assert table.counts == {r: sum(s for s in sizes if r % s == 0) for r in divisors(rect.ncells)}
    # each representative is its orbit's first tableau in enumeration order
    assert table.orbits == [(orbit[0], len(orbit)) for orbit in orbits]
    # the rows `verify` reads, decoded from one rank at a time
    assert [table.rep_rows(k) for k in range(len(orbits))] == [orbit[0] for orbit in orbits]
    for r in divisors(rect.ncells):
        assert table.fixed_rows(r) == [rows for orbit in orbits if r % len(orbit) == 0 for rows in orbit], r


@pytest.mark.parametrize("rect", rectangles(17) + rectangles(18), ids=lambda r: f"{r.nrows}x{r.ncols}")
def test_orbit_table_counts_are_the_hook_and_q_hook_counts(rect):
    table = orbit_table(rect)
    assert table.total == sum(table.sizes) == count_standard_tableaux(rect.as_partition())
    for d in divisors(rect.ncells):
        assert table.counts[d] == q_hook_at_root(rect, d), d
