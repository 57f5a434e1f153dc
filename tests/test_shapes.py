import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taquin.shapes import (
    Box,
    Diagonal,
    Partition,
    Rectangle,
    SkewShape,
    complement_box,
    complement_shape,
    contains,
    enumerate_diagonals,
    format_partition,
    parse_partition,
    removable_corners,
    staircase_diagonal,
    transpose,
)
from taquin.sequences import box_less
from taquin.words import Permutation


# -- independent oracles ---------------------------------------------------


def is_partition(rows):
    return all(r >= 0 for r in rows) and all(a >= b for a, b in zip(rows, rows[1:]))


def corners_by_removal(p):
    """Try removing each row-end cell and keep those leaving a partition."""
    out = []
    for i in range(1, p.nrows + 1):
        rows = list(p.rows)
        rows[i - 1] -= 1
        if is_partition(rows):
            out.append(Box(i, p.rows[i - 1]))
    return out


def conjugate_by_cells(p):
    cols = {}
    for r, c in p.cells():
        cols[c] = cols.get(c, 0) + 1
    return Partition(tuple(cols[c] for c in sorted(cols)))


def chains_by_dfs(nrows, ncols, length):
    """All strict up-right chains of the given length, by brute force."""
    cells = [Box(r, c) for r in range(1, nrows + 1) for c in range(1, ncols + 1)]
    out = []

    def grow(chain):
        if len(chain) == length:
            out.append(tuple(chain))
            return
        for b in cells:
            if not chain or (b.row < chain[-1].row and b.col > chain[-1].col):
                chain.append(b)
                grow(chain)
                chain.pop()

    grow([])
    return out


def _shape_around(boxes) -> Partition:
    """Smallest partition containing the given boxes; empty for none."""
    nrows = max((b.row for b in boxes), default=0)
    return Partition(tuple(max(b.col for b in boxes if b.row >= r) for r in range(1, nrows + 1)))


def diagonal_from_boxes(boxes) -> Diagonal:
    """The diagonal with the given boxes, listed bottom-left to top-right;
    raises ValueError unless they are the corners of the smallest shape
    around them in that order."""
    boxes = tuple(Box(*b) for b in boxes)
    d = Diagonal(_shape_around(boxes))
    if d.boxes != boxes:
        raise ValueError(f"{boxes} is not a diagonal: each box must be strictly above and right of the last")
    return d


def complement_diagonal(d: Diagonal, rect: Rectangle) -> Diagonal:
    """The image of a diagonal under the 180-degree complement: its boxes
    rotated in rect."""
    return diagonal_from_boxes(complement_box(b, rect) for b in reversed(d.boxes))


# -- partitions ------------------------------------------------------------


def test_partition_normalizes_and_validates():
    assert Partition((3, 2, 0, 0)).rows == (3, 2)
    assert Partition().rows == ()
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((3, -1))
    with pytest.raises(ValueError):
        Partition((3, 0, 1))


def test_partition_text_forms():
    assert parse_partition("5431").rows == (5, 4, 3, 1)
    assert parse_partition("[12,10,3]").rows == (12, 10, 3)
    assert parse_partition("[5,4,3,1]").rows == (5, 4, 3, 1)
    assert parse_partition("[]").rows == ()
    assert format_partition(Partition((5, 4, 3, 1))) == "5431"
    assert format_partition(Partition((12, 10, 3))) == "[12,10,3]"
    assert format_partition(Partition()) == "[]"
    with pytest.raises(ValueError):
        parse_partition("5,4x")


def test_contains_examples():
    assert contains(parse_partition("432"), parse_partition("5431"))
    assert contains(Partition(), Partition())
    assert not contains(parse_partition("55"), parse_partition("541"))


def test_removable_corners_against_removal_oracle():
    shapes = ["432", "3", "[]", "5431", "22", "311", "4441", "1111"]
    for text in shapes:
        p = parse_partition(text)
        assert removable_corners(p) == corners_by_removal(p)
    assert removable_corners(parse_partition("432")) == [Box(1, 4), Box(2, 3), Box(3, 2)]
    assert removable_corners(Partition((3,))) == [Box(1, 3)]
    assert removable_corners(Partition()) == []


def test_transpose_against_cell_oracle():
    for text in ["5431", "1", "[]", "22", "641", "33311"]:
        p = parse_partition(text)
        if p.rows:
            assert transpose(p) == conjugate_by_cells(p)
        assert transpose(transpose(p)) == p
    assert transpose(Partition((5,))).rows == (1,) * 5
    assert transpose(Partition((1,) * 4)).rows == (4,)


# -- rectangles and complements ---------------------------------------------


def test_rectangle_orientation():
    r = Rectangle(4, 6)
    assert (r.nrows, r.ncols, r.ncells) == (4, 6, 24)
    rt = r.transposed()
    assert (rt.nrows, rt.ncols) == (6, 4)
    assert r.as_partition().rows == (6, 6, 6, 6)
    with pytest.raises(ValueError):
        Rectangle(0, 3)
    # a square has one spelling
    assert Rectangle(3, 3, n_is_rows=False) == Rectangle(3, 3)
    assert Rectangle(3, 3, n_is_rows=False).n_is_rows is True
    assert Rectangle(3, 3).transposed() == Rectangle(3, 3)


def test_rectangle_refuses_m_below_n_and_points_to_the_tall_orientation():
    with pytest.raises(ValueError, match="m >= n.*n_is_rows=False"):
        Rectangle(3, 2)
    with pytest.raises(ValueError, match="m >= n"):
        Rectangle(3, 2, n_is_rows=False)
    tall = Rectangle(2, 3, n_is_rows=False)
    assert (tall.nrows, tall.ncols) == (3, 2)


def test_shapes_accept_only_int_values():
    assert Partition([3, 1]).rows == (3, 1)
    for rows in [(2.7, 1), (2.0, 1), ("2", 1), (True, 1), (2, False)]:
        with pytest.raises(ValueError, match="integers") as exc:
            Partition(rows)
        assert repr(rows[0] if type(rows[0]) is not int else rows[1]) in str(exc.value)
    for n, m in [(2.5, 3), (2.0, 3), (2, 3.0), ("2", 3), (True, 3), (1, True)]:
        with pytest.raises(ValueError, match="integers") as exc:
            Rectangle(n, m)
        assert repr(n if type(n) is not int else m) in str(exc.value)
    # an orientation flag is a bool, never read by truthiness
    for flag in ["no", 0, 1]:
        for n, m in [(4, 6), (3, 3)]:
            with pytest.raises(ValueError, match="n_is_rows") as exc:
                Rectangle(n, m, n_is_rows=flag)
            assert repr(flag) in str(exc.value)


def test_complement_shape_by_direct_formula():
    rect = Rectangle(4, 6)
    p = parse_partition("432")
    padded = list(p.rows) + [0] * (rect.nrows - p.nrows)
    expected = Partition(tuple(rect.ncols - x for x in reversed(padded)))
    assert complement_shape(p, rect) == expected
    assert expected.rows == (6, 4, 3, 2)
    assert complement_shape(Partition(), rect) == rect.as_partition()
    assert complement_shape(rect.as_partition(), rect) == Partition()
    with pytest.raises(ValueError):
        complement_shape(parse_partition("7"), rect)


@given(st.lists(st.integers(1, 6), min_size=0, max_size=4))
def test_complement_shape_involution(rows):
    p = Partition(tuple(sorted(rows, reverse=True)))
    rect = Rectangle(4, 6)
    assert complement_shape(complement_shape(p, rect), rect) == p


def test_complement_box():
    rect = Rectangle(4, 6)
    assert complement_box(Box(1, 1), rect) == Box(4, 6)
    assert complement_box(Box(2, 3), rect) == Box(rect.nrows + 1 - 2, rect.ncols + 1 - 3)
    assert complement_box(Box(2, 2), Rectangle(3, 3)) == Box(2, 2)
    for r in range(1, 5):
        for c in range(1, 7):
            assert complement_box(complement_box(Box(r, c), rect), rect) == Box(r, c)
    with pytest.raises(ValueError):
        complement_box(Box(5, 1), rect)


def test_box_order():
    assert box_less(Box(3, 1), Box(1, 2))
    assert not box_less(Box(3, 1), Box(3, 1))
    # strictly right and strictly below: incomparable both ways
    assert not box_less(Box(1, 1), Box(2, 2)) and not box_less(Box(2, 2), Box(1, 1))


def test_box_order_is_its_definition_on_boxes_tuples_and_lists():
    # every ordered pair of cells of a 4x4 grid, each given as a Box, a
    # tuple and a list: a < b iff a != b and b is weakly right of and
    # weakly above a
    cells = [Box(r, c) for r in range(1, 5) for c in range(1, 5)]
    kinds = (lambda b: b, tuple, list)
    seen = set()
    for a in cells:
        for b in cells:
            leq = b.col >= a.col and b.row <= a.row
            less = leq and a != b
            seen.add((a == b, leq or (b.col <= a.col and b.row >= a.row)))
            for make_a in kinds:
                for make_b in kinds:
                    assert box_less(make_a(a), make_b(b)) is less
    # equal boxes, comparable distinct boxes and incomparable ones all occur
    assert seen == {(True, True), (False, True), (False, False)}


# -- skew shapes and diagonals ----------------------------------------------


def test_skew_shape_cells():
    s = SkewShape(parse_partition("5431"), parse_partition("432"))
    assert s.size == 4
    assert set(s.cells()) == {Box(1, 5), Box(2, 4), Box(3, 3), Box(4, 1)}
    assert Box(2, 4) in s and Box(2, 3) not in s
    with pytest.raises(ValueError):
        SkewShape(parse_partition("32"), parse_partition("4"))
    assert str(s) == "5431/432"
    assert str(SkewShape(parse_partition("33"))) == "33"
    # row-length tuples are refused, not coerced
    for outer, inner in [((3, 3), Partition()), (parse_partition("33"), (1,))]:
        with pytest.raises(ValueError, match="must be a Partition") as exc:
            SkewShape(outer, inner)
        assert repr(outer if type(outer) is tuple else inner) in str(exc.value)


def test_worked_diagonal_of_4x6():
    diags = enumerate_diagonals(Rectangle(4, 6))
    boxes = (Box(4, 1), Box(3, 3), Box(2, 4), Box(1, 5))
    match = [d for d in diags if d.boxes == boxes]
    assert len(match) == 1
    d = match[0]
    assert d.lambda_plus == parse_partition("5431")
    assert d.lambda_minus == parse_partition("432")


def test_enumerate_diagonals_small_cases():
    for m in range(1, 6):
        diags = enumerate_diagonals(Rectangle(1, m))
        assert len(diags) == m
        assert all(d.n == 1 for d in diags)
    (d,) = enumerate_diagonals(Rectangle(2, 2))
    assert d.boxes == (Box(2, 1), Box(1, 2))
    assert d.lambda_plus == parse_partition("21")
    assert d.lambda_minus == parse_partition("1")


def test_enumerate_diagonals_against_chain_dfs():
    import math

    for nrows in range(1, 7):
        for ncols in range(1, 7):
            n = min(nrows, ncols)
            rect = Rectangle(n, max(nrows, ncols), n_is_rows=nrows <= ncols)
            assert (rect.nrows, rect.ncols) == (nrows, ncols)
            diags = enumerate_diagonals(rect)
            chains = chains_by_dfs(nrows, ncols, n)
            assert len(diags) == len(chains) == math.comb(max(nrows, ncols), n)
            assert {d.boxes for d in diags} == set(chains)


def test_enumerate_diagonals_matches_the_diagonal_from_boxes_route():
    from itertools import combinations

    for nrows in range(1, 25):
        for ncols in range(1, 24 // nrows + 1):
            n = min(nrows, ncols)
            rect = Rectangle(n, max(nrows, ncols), n_is_rows=nrows <= ncols)
            assert (rect.nrows, rect.ncols) == (nrows, ncols)
            if nrows <= ncols:
                lines = [tuple(zip(range(n, 0, -1), cols)) for cols in combinations(range(1, ncols + 1), n)]
            else:
                lines = [tuple(zip(rows[::-1], range(1, n + 1))) for rows in combinations(range(1, nrows + 1), n)]
            assert enumerate_diagonals(rect) == [diagonal_from_boxes(boxes) for boxes in lines], rect


def test_diagonal_invariants():
    for rect in [Rectangle(3, 5), Rectangle(4, 4), Rectangle(2, 6)]:
        for d in enumerate_diagonals(rect):
            assert d.n == min(rect.nrows, rect.ncols)
            assert len({b.row for b in d.boxes}) == d.n
            assert len({b.col for b in d.boxes}) == d.n
            assert set(SkewShape(d.lambda_plus, d.lambda_minus).cells()) == set(d.boxes)
            # boxes are exactly the removable corners of lambda_plus
            assert sorted(d.boxes) == sorted(removable_corners(d.lambda_plus))
    # the same boxes listed top-right first are refused
    with pytest.raises(ValueError, match="strictly above and right"):
        diagonal_from_boxes((Box(1, 2), Box(2, 1)))
    assert diagonal_from_boxes((Box(2, 1), Box(1, 2))) == Diagonal(parse_partition("21"))
    with pytest.raises(ValueError, match="empty shape has no diagonal"):
        Diagonal(Partition())
    for rows in [(5, 4, 3, 1), [2, 1], "21"]:
        with pytest.raises(ValueError, match="must be a Partition") as exc:
            Diagonal(rows)
        assert repr(rows) in str(exc.value)


def test_diagonal_outer_shape_is_the_smallest_around_its_boxes():
    # the smallest shape around (2, 1) and (2, 2) is 22, whose one corner is
    # (2, 2): two boxes in one row are not a diagonal
    with pytest.raises(ValueError, match="strictly above and right"):
        diagonal_from_boxes(((2, 1), (2, 2)))
    d = diagonal_from_boxes(((1, 2),))
    assert (d.lambda_plus, d.lambda_minus) == (Partition((2,)), Partition((1,)))


def test_every_nonempty_shape_in_4x6_is_the_outer_shape_of_one_diagonal():
    from itertools import combinations_with_replacement

    # four row lengths in 0..6, weakly decreasing: the C(10, 4) shapes inside 4x6
    shapes = [Partition(rows[::-1]) for rows in combinations_with_replacement(range(7), 4)]
    assert len(shapes) == 210 and shapes[0] == Partition()
    for p in shapes[1:]:
        d = Diagonal(p)
        assert d.lambda_plus == p
        for a, b in zip(d.boxes, d.boxes[1:]):
            assert b.row < a.row and b.col > a.col, p
        assert d.boxes == tuple(sorted(SkewShape(d.lambda_plus, d.lambda_minus).cells(), reverse=True)), p
        assert diagonal_from_boxes(d.boxes) == d


def test_staircase_diagonal_both_orientations():
    d = staircase_diagonal(Rectangle(4, 6))
    assert d.boxes == (Box(4, 1), Box(3, 2), Box(2, 3), Box(1, 4))
    assert d.lambda_plus == parse_partition("4321")
    dt = staircase_diagonal(Rectangle(4, 6, n_is_rows=False))
    assert dt.boxes == (Box(6, 1), Box(5, 2), Box(4, 3), Box(3, 4))
    assert dt.lambda_plus == parse_partition("444321")
    # built once per rectangle and shared
    assert staircase_diagonal(Rectangle(4, 6)) is d
    assert staircase_diagonal(Rectangle(3, 3, n_is_rows=False)) is staircase_diagonal(Rectangle(3, 3))


def test_complement_diagonal():
    rect = Rectangle(4, 6)
    d = Diagonal(parse_partition("5431"))
    dd = complement_diagonal(d, rect)
    assert dd.lambda_plus == complement_shape(d.lambda_minus, rect)
    assert dd.lambda_minus == complement_shape(d.lambda_plus, rect)
    assert complement_diagonal(dd, rect) == d
    assert dd.boxes == tuple(complement_box(b, rect) for b in reversed(d.boxes))
    assert diagonal_from_boxes(dd.boxes) == dd


def test_shape_hashes_follow_equality_and_survive_copies():
    # each shape hashes once, when built, to the hash of its compared
    # fields; equal shapes hash equal, and so do pickled, deep-copied and
    # rebuilt copies
    assert Partition((3, 2, 0)) == Partition((3, 2)) and hash(Partition((3, 2, 0))) == hash(Partition((3, 2)))
    d = Diagonal(Partition((5, 4, 3, 1)))
    assert d == Diagonal(Partition((5, 4, 3, 1, 0))) and hash(d) == hash((d.lambda_plus,))
    assert d != Diagonal(Partition((5, 4, 3, 2)))
    assert Rectangle(3, 3, n_is_rows=False) == Rectangle(3, 3)
    assert hash(Rectangle(3, 3, n_is_rows=False)) == hash(Rectangle(3, 3))
    assert hash(Partition(rows=(4, 1, 0))) == hash(Partition((4, 1)))
    shapes = {
        Partition((3, 2)): ((3, 2),),
        Rectangle(2, 5, n_is_rows=False): (2, 5, False),
        SkewShape(Partition((4, 3)), Partition((1,))): (Partition((4, 3)), Partition((1,))),
        d: (d.lambda_plus,),
    }
    for shape, fields in shapes.items():
        assert hash(shape) == hash(fields), shape
        for twin in (pickle.loads(pickle.dumps(shape)), copy.deepcopy(shape), type(shape)(*fields)):
            assert twin == shape and hash(twin) == hash(shape), (shape, twin)


# each value class, its repr (the dataclass spelling), and its compared
# fields, which are also its constructor's arguments; the partition and the
# permutation compare on the same fields
VALUES = [
    (Partition((2, 1)), "Partition(rows=(2, 1))", ((2, 1),)),
    (Rectangle(2, 5, n_is_rows=False), "Rectangle(n=2, m=5, n_is_rows=False)", (2, 5, False)),
    (
        SkewShape(Partition((4, 3)), Partition((1,))),
        "SkewShape(outer=Partition(rows=(4, 3)), inner=Partition(rows=(1,)))",
        (Partition((4, 3)), Partition((1,))),
    ),
    (Diagonal(Partition((5, 4, 3, 1))), "Diagonal(lambda_plus=Partition(rows=(5, 4, 3, 1)))", (Partition((5, 4, 3, 1)),)),
    (Permutation((2, 1)), "Permutation(oneline=(2, 1))", ((2, 1),)),
]


@pytest.mark.parametrize("value, spelling, fields", VALUES, ids=[type(value).__name__ for value, _, _ in VALUES])
def test_value_classes_keep_the_frozen_dataclass_contract(value, spelling, fields):
    assert repr(value) == spelling
    assert hash(value) == hash(fields)
    assert not hasattr(value, "__dict__")
    # equal only within its class: never to a tuple, nor to a value of
    # another class or a subclass holding the same fields
    assert value != fields and fields != value and value != fields[0]
    assert all(value != other for other, _, _ in VALUES if other is not value)

    class Sub(type(value)):
        __slots__ = ()

    assert Sub(*fields) != value and value != Sub(*fields)
    # frozen: no field, slot or new name can be assigned or deleted
    for name in (*type(value)._fields, "_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == spelling and hash(value) == hash(fields)
    # pickle and both copies rebuild it through the constructor
    assert value.__reduce__() == (type(value), fields)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value), twin
        assert repr(twin) == spelling

