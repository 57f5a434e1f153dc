import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taquin.sequences import (
    DescentSequence,
    PeriodicSequence,
    bounded_equivalence,
    box_less,
    descent_sequence,
    descents,
    elementary_knuth,
    insertion_knuth_positions,
    inverse_word_sequence,
    prefix_terms,
    reading_word_of_rows,
    strict_knuth,
)
from taquin.shapes import Box
from taquin.words import (
    Permutation,
    all_permutations,
    augmented_word,
    conjugate_by_reversal,
    identity,
    insertion_tableau,
    parse_permutation,
    format_permutation,
    promotion_cycle,
    right_multiply,
)


# -- independent oracles ---------------------------------------------------


def inverse_by_search(w):
    return tuple(w.oneline.index(i) + 1 for i in range(1, w.n + 1))


def compose(w, v):
    return tuple(w(v(i)) for i in range(1, w.n + 1))


words_strategy = st.lists(st.integers(1, 6), min_size=3, max_size=9).map(tuple)


# -- permutations ------------------------------------------------------------


def test_permutation_basics():
    w = Permutation((3, 1, 4, 2))
    assert w.n == 4 and w(1) == 3 and w(4) == 2
    assert w.inverse().oneline == inverse_by_search(w) == (2, 4, 1, 3)
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((2, 3))


def test_permutation_accepts_only_int_values():
    assert Permutation([2, 1]).oneline == (2, 1)
    for oneline in [("2", "1"), (True, 2), (2.0, 1.0), (1, 2.5)]:
        with pytest.raises(ValueError, match="integers") as exc:
            Permutation(oneline)
        assert repr(next(v for v in oneline if type(v) is not int)) in str(exc.value)


def test_parse_format():
    assert parse_permutation("3142").oneline == (3, 1, 4, 2)
    assert parse_permutation("3,1,4,2").oneline == (3, 1, 4, 2)
    w = Permutation(tuple(range(12, 0, -1)))
    assert parse_permutation(format_permutation(w)) == w
    assert format_permutation(Permutation((3, 1, 2))) == "312"
    with pytest.raises(ValueError):
        parse_permutation("31x2")


def test_descents():
    assert descents(parse_permutation("3142")) == {1, 3}
    for n in (1, 2, 4, 6):
        assert descents(identity(n)) == set()
        assert descents(Permutation(tuple(range(n, 0, -1)))) == set(range(1, n))


def test_promotion_cycle_and_composition():
    c = promotion_cycle(4)
    assert c.oneline == (4, 1, 2, 3)
    w = parse_permutation("3142")
    # right_multiply composes as functions: (w.v)(i) = w(v(i))
    assert right_multiply(w, c).oneline == compose(w, c) == (2, 3, 1, 4)
    assert right_multiply(c, w).oneline == compose(c, w) == (2, 4, 3, 1)
    acc = w
    for _ in range(4):
        acc = right_multiply(acc, c)
    assert acc == w
    assert conjugate_by_reversal(parse_permutation("132")) == parse_permutation("213")


# -- sequences ----------------------------------------------------------------


def test_inverse_word_prefix():
    w = parse_permutation("3142")
    assert inverse_word_sequence(w).prefix(8) == (2, 4, 1, 3, 2, 4, 1, 3)
    n = 5
    assert inverse_word_sequence(identity(n)).prefix(2 * n) == tuple(range(1, n + 1)) * 2
    assert inverse_word_sequence(w).prefix(0) == ()


def _descent_prefix_by_blocks(seq, n):
    # the reference: blocks (d_j+1, ..., n) extended one at a time
    out, j = [], 0
    while len(out) < n:
        d = seq.descents[j] if j < len(seq.descents) else 0
        out.extend(range(d + 1, seq.n + 1))
        j += 1
    return tuple(out[:n])


def test_descent_sequence_prefix_matches_the_block_by_block_definition():
    for n in range(1, 7):
        for size in range(n):
            for chosen in itertools.combinations(range(n - 1, 0, -1), size):
                seq = DescentSequence(chosen, n)
                for length in range(41):
                    assert seq.prefix(length) == _descent_prefix_by_blocks(seq, length), (chosen, n, length)


def test_descent_sequence_prefix():
    assert descent_sequence(parse_permutation("3142")).prefix(9) == (4, 2, 3, 4, 1, 2, 3, 4, 1)
    n = 4
    assert descent_sequence(identity(n)).prefix(2 * n) == tuple(range(1, n + 1)) * 2
    assert descent_sequence(Permutation((3, 2, 1))).prefix(9) == (3, 2, 3, 1, 2, 3, 1, 2, 3)
    with pytest.raises(ValueError):
        DescentSequence((1, 2), 4)  # must strictly decrease
    with pytest.raises(ValueError):
        DescentSequence((4,), 4)  # out of range
    # a bool, float or str is never coerced, and is refused when built,
    # not at the first prefix
    for descents, n in (((1.0,), 3), ((True,), 3), ((2, "1"), 3), ((), 3.0), ((), True)):
        with pytest.raises(ValueError) as refused:
            DescentSequence(descents, n)
        assert str(refused.value) == f"n and the descents must be integers, got n={n!r}, descents {descents!r}"


def test_descent_sequence_refuses_n_below_1():
    # the tail 1..n is empty at n = 0, as an empty generator is for a
    # periodic sequence, and both are refused when built
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        descent_sequence(Permutation(())).prefix(2)
    with pytest.raises(ValueError, match="empty generator"):
        PeriodicSequence(())


def test_prefix_terms():
    assert prefix_terms(PeriodicSequence((2, 1)), 5) == (2, 1, 2, 1, 2)
    assert prefix_terms([5, 6, 7], 2) == (5, 6)
    assert prefix_terms(iter([1, 2, 3]), 3) == (1, 2, 3)
    with pytest.raises(ValueError):
        prefix_terms([1], 2)


NEGATIVE_LENGTHS = [
    ("prefix_terms of a list", lambda: prefix_terms([1, 2, 3], -1)),
    ("prefix_terms of an iterator", lambda: prefix_terms(iter([1, 2, 3]), -1)),
    ("prefix_terms of a periodic sequence", lambda: prefix_terms(PeriodicSequence((1, 2)), -1)),
    ("periodic prefix", lambda: PeriodicSequence((1, 2)).prefix(-1)),
    ("descent prefix", lambda: descent_sequence(parse_permutation("3142")).prefix(-2)),
]


@pytest.mark.parametrize("call", [c for _, c in NEGATIVE_LENGTHS], ids=[i for i, _ in NEGATIVE_LENGTHS])
def test_negative_prefix_length_is_refused(call):
    # a negative length is refused, never read as "all but the last terms"
    with pytest.raises(ValueError, match="prefix length must be nonnegative"):
        call()


def test_augmented_word():
    assert augmented_word(parse_permutation("132"), 2) == (1, 4, 3, 6, 2, 5)
    w = parse_permutation("3142")
    assert augmented_word(w, 1) == w.oneline
    aug = augmented_word(identity(3), 3)
    assert sorted(aug) == list(range(1, 10))


# -- insertion ----------------------------------------------------------------


def test_insertion_tableau_examples():
    assert insertion_tableau((1, 4, 3, 6, 2, 5)) == ((1, 2, 5), (3, 6), (4,))
    assert insertion_tableau(range(1, 6)) == ((1, 2, 3, 4, 5),)
    assert insertion_tableau(range(5, 0, -1)) == ((1,), (2,), (3,), (4,), (5,))
    assert insertion_tableau(()) == ()


def test_insertion_takes_letters_as_they_are():
    # row insertion needs only a total order: a float is not truncated
    assert insertion_tableau((2.5, 1)) == ((1,), (2.5,))
    assert insertion_tableau((2.7, 1)) == ((1,), (2.7,))
    word = (1, 4, 3, 6, 2, 5)
    assert insertion_knuth_positions([x + 0.5 for x in word]) == insertion_knuth_positions(word)


def test_insertion_tableau_shape_is_partition():
    rng = random.Random(0)
    for _ in range(200):
        word = [rng.randint(1, 6) for _ in range(rng.randint(0, 10))]
        rows = insertion_tableau(word)
        lens = [len(r) for r in rows]
        assert lens == sorted(lens, reverse=True)
        for row in rows:
            assert list(row) == sorted(row)
        for a, b in zip(rows, rows[1:]):
            assert all(x < y for x, y in zip(a, b))


# -- Knuth moves ----------------------------------------------------------------


def test_elementary_knuth_examples():
    assert elementary_knuth((2, 1, 3), 1) == (2, 3, 1)
    assert elementary_knuth((1, 2, 3), 1) is None
    with pytest.raises(ValueError):
        elementary_knuth((1, 2), 1)
    with pytest.raises(ValueError):
        elementary_knuth((1, 2, 3), 2)


def test_elementary_knuth_involution_and_invariance_exhaustive():
    for length in range(3, 8):
        for word in itertools.product(range(1, 5), repeat=length):
            base = insertion_tableau(word)
            for k in range(1, length - 1):
                moved = elementary_knuth(word, k)
                if moved is None:
                    continue
                assert elementary_knuth(moved, k) == word
                assert insertion_tableau(moved) == base


def test_elementary_knuth_invariance_permutations():
    for n in range(2, 7):
        for w in all_permutations(n):
            word = w.oneline
            base = insertion_tableau(word)
            for k in range(1, n - 1):
                moved = elementary_knuth(word, k)
                if moved is not None:
                    assert insertion_tableau(moved) == base


@given(words_strategy)
def test_elementary_knuth_random_words(word):
    base = insertion_tableau(word)
    for k in range(1, len(word) - 1):
        moved = elementary_knuth(word, k)
        if moved is not None:
            assert elementary_knuth(moved, k) == word
            assert insertion_tableau(moved) == base


def test_strict_knuth_integer_cases():
    assert strict_knuth((2, 3, 1), 1) == (2, 1, 3)
    assert strict_knuth((1, 2, 3), 1) is None
    assert strict_knuth((1, 1, 2), 1) is None  # ties never match a strict pattern
    assert strict_knuth((2, 1, 3), 1) == (2, 3, 1)
    assert strict_knuth((1, 3, 2), 1) == (3, 1, 2)


@given(words_strategy)
def test_strict_knuth_is_involutive_and_within_class(word):
    base = insertion_tableau(word)
    for k in range(1, len(word) - 1):
        moved = strict_knuth(word, k)
        if moved is not None:
            assert strict_knuth(moved, k) == word
            assert insertion_tableau(moved) == base
            # every strict move is also an elementary move
            assert elementary_knuth(word, k) == moved


def test_strict_knuth_on_boxes():
    # (2,1) < (1,1) < (1,2) in the box order: chain c < a < b swaps the
    # last two, matching the integer pattern
    seq = (Box(1, 1), Box(1, 2), Box(2, 1))
    moved = strict_knuth(seq, 1, less=box_less)
    assert moved == (Box(1, 1), Box(2, 1), Box(1, 2))
    assert strict_knuth((2, 3, 1), 1) == (2, 1, 3)  # same chain shape on ints
    # incomparable window: (1,1) vs (2,2) in both orders
    assert strict_knuth((Box(1, 1), Box(2, 2), Box(1, 2)), 1, less=box_less) is None
    assert strict_knuth([1, 3, 2], 1, less=lambda a, b: a < b) == (3, 1, 2)


# -- bounded equivalence ---------------------------------------------------------


def test_bounded_equivalence_trivial_cases():
    a = PeriodicSequence((1, 2))
    verdict = bounded_equivalence(a, a, 4)
    assert verdict.status == "proved" and verdict.witness == ()
    verdict = bounded_equivalence(PeriodicSequence((1,)), PeriodicSequence((2,)), 1, budget=1000)
    assert verdict.status == "refuted-at-N"
    verdict = bounded_equivalence(PeriodicSequence((1, 2, 3)), PeriodicSequence((3, 2, 1)), 3, budget=0)
    assert verdict.status == "inconclusive"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": -1},
        {"budget": -1},
        {"slack": -1},
        {"n": 4.0},
        {"budget": 2.5},
        {"budget": True},
        {"budget": "5"},
        {"slack": True},
        {"slack": 1.0},
    ],
    ids=["n", "budget", "slack", "n-float", "budget-float", "budget-bool", "budget-str", "slack-bool", "slack-float"],
)
def test_bounded_equivalence_refuses_negative_lengths(kwargs):
    # with slack=-1 a sequence was "refuted" against itself: its 3-term
    # start never equals the 4-term target; a bool, float or str is never
    # coerced, and the message names the argument and its value
    a = PeriodicSequence((1, 2))
    ((name, value),) = kwargs.items()
    with pytest.raises(ValueError) as refused:
        bounded_equivalence(a, a, **{"n": 4, **kwargs})
    assert str(refused.value) == f"n, budget and slack must be nonnegative integers, got {name}={value!r}"


def test_bounded_equivalence_descent_sequence_of_21():
    w = parse_permutation("21")
    verdict = bounded_equivalence(inverse_word_sequence(w), descent_sequence(w), 4)
    assert verdict.status == "proved"


def test_bounded_equivalence_witness_replays():
    for text in ["312", "231", "321", "132"]:
        w = parse_permutation(text)
        a, b = inverse_word_sequence(w), descent_sequence(w)
        n, slack = 5, 5
        verdict = bounded_equivalence(a, b, n, budget=300_000, slack=slack)
        assert verdict.status == "proved", (text, verdict.status)
        cur = prefix_terms(a, n + slack)
        for k in verdict.witness:
            cur = strict_knuth(cur, k)
            assert cur is not None
        assert cur[:n] == prefix_terms(b, n)


def test_bounded_equivalence_same_insertion_tableau():
    # 213 and 231 have the same insertion tableau, so the periodic words of
    # their inverses are equivalent
    w1 = parse_permutation("213").inverse()
    w2 = parse_permutation("231").inverse()
    assert insertion_tableau(w1.inverse().oneline) == insertion_tableau(w2.inverse().oneline)
    verdict = bounded_equivalence(inverse_word_sequence(w1), inverse_word_sequence(w2), 4)
    assert verdict.status == "proved"


# -- insertion as Knuth moves ------------------------------------------------------


def replay(word, positions, mover):
    cur = tuple(word)
    for k in positions:
        cur = mover(cur, k)
        assert cur is not None
    return cur


def test_insertion_knuth_positions_reach_reading_word():
    rng = random.Random(1)
    words = [tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 9))) for _ in range(300)]
    words += [w.oneline for w in all_permutations(4)]
    for word in words:
        target = reading_word_of_rows(insertion_tableau(word))
        assert replay(word, insertion_knuth_positions(word), elementary_knuth) == target


def prefixes_row_strict(word):
    for k in range(1, len(word) + 1):
        for row in insertion_tableau(word[:k]):
            if any(a >= b for a, b in zip(row, row[1:])):
                return False
    return True


def test_insertion_moves_are_strict_on_row_strict_words():
    count = 0
    for length in range(1, 7):
        for word in itertools.product(range(1, 5), repeat=length):
            if not prefixes_row_strict(word):
                continue
            count += 1
            target = reading_word_of_rows(insertion_tableau(word))
            assert replay(word, insertion_knuth_positions(word), strict_knuth) == target
    assert count > 200


def test_insertion_moves_strict_on_permutations():
    for n in range(1, 7):
        for w in all_permutations(n):
            word = w.oneline
            target = reading_word_of_rows(insertion_tableau(word))
            assert replay(word, insertion_knuth_positions(word), strict_knuth) == target
