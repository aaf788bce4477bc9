"""``GradedCharacter.tensor`` and the product loop ``characters._product``
against the tuple loop they replaced (``tensor_reference``), which shares no
code with them.  Characters compare as lists of items, so the term insertion
order is checked too."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensor_reference as reference
from demazure import characters
from demazure.characters import GradedCharacter

BIG = 10**12


def keys(rank):
    """A term's coordinates, level and grade: all in 0..1, so that sums
    collide, or each in -1..1 or in -10^12..10^12."""
    small, wide = st.integers(0, 1), st.one_of(st.integers(-1, 1), st.integers(-BIG, BIG))
    return st.one_of(*(st.tuples(st.lists(e, min_size=rank, max_size=rank).map(tuple), e, e)
                       for e in (small, wide)))


def graded_characters(rank):
    """Up to six terms with multiplicities of both signs; possibly empty."""
    return st.dictionaries(keys(rank), st.sampled_from((-3, -2, -1, 1, 2, 3)),
                           max_size=6).map(GradedCharacter)


def outcome(compute, *args):
    """compute(*args) as its list of items, or the ValueError text it raises."""
    try:
        return list(compute(*args).terms.items())
    except ValueError as exc:
        return str(exc)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_tensor_matches_reference(data):
    """Equal ranks, and one time in four ranks that differ by one, where both
    raise one ValueError unless a factor is empty.  Half the equal-rank pairs
    are x(1 - e^s) and y(1 + e^s), whose product cancels the cross terms."""
    rank = data.draw(st.integers(1, 3))
    other = data.draw(st.sampled_from([rank] * 3 + [rank + 1]))
    a, b = data.draw(graded_characters(rank)), data.draw(graded_characters(other))
    if other == rank and data.draw(st.booleans()):
        zero, shift = ((0,) * rank, 0, 0), data.draw(keys(rank))
        a = reference.tensor(a, GradedCharacter({zero: 1, shift: -1}))
        b = reference.tensor(b, GradedCharacter({zero: 1, shift: 1}))
    assert outcome(a.tensor, b) == outcome(reference.tensor, a, b)
    assert outcome(b.tensor, a) == outcome(reference.tensor, b, a)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_of_three_matches_chained_reference(data):
    """One ``_product`` over three factors drops zero sums after each factor,
    as a chain of two tensors does; the first two factors may cancel as
    above."""
    n = data.draw(st.integers(1, 3))
    chars = [data.draw(graded_characters(n)) for _ in range(3)]
    zero, shift = ((0,) * n, 0, 0), data.draw(keys(n))
    chars[0] = reference.tensor(chars[0], GradedCharacter({zero: 1, shift: -1}))
    chars[1] = reference.tensor(chars[1], GradedCharacter({zero: 1, shift: 1}))
    got = characters._product([characters._pack(char.terms) for char in chars], n)
    want = reference.tensor(reference.tensor(chars[0], chars[1]), chars[2])
    assert list(characters._decode(got, n).terms.items()) == list(want.terms.items())


@pytest.mark.parametrize("x,y", [(2**31 - 1, 0), (2**30, 2**30), (2**31, -1), (2**62, 2**62),
                                 (2**63 - 1, 0), (2**63, 1), (2**70, -2**70), (-2**64, 3)])
def test_tensor_across_field_widths_matches_reference(x, y):
    """Entries at the edges of 32- and 64-bit fields and past 2^63, where a
    product needs a wider field than its factors and each is re-packed; the
    cancelling pairs x(1 - e^s) and y(1 + e^s) of the wide shift still drop."""
    a = GradedCharacter({((x, -x), x, 0): 2, ((1, 2), 3, -x): -1, ((0, 0), 0, 0): 1})
    b = GradedCharacter({((y, 1), -y, y): 1, ((1, 0), 1, 1): 3})
    zero, shift = ((0, 0), 0, 0), ((x, 1), -x, y)
    cancelling = (reference.tensor(a, GradedCharacter({zero: 1, shift: -1})),
                  reference.tensor(b, GradedCharacter({zero: 1, shift: 1})))
    for f, g in ((a, b), (b, a), (a, a), cancelling):
        assert list(f.tensor(g).terms.items()) == list(reference.tensor(f, g).terms.items())


def test_cancelling_products_drop_zero_sums_in_order():
    a = GradedCharacter({((0,), 1, 0): 1, ((1,), 1, 0): -1})
    b = GradedCharacter({((0,), 1, 0): 1, ((1,), 1, 0): 1})
    assert list(a.tensor(b).terms.items()) == [(((0,), 2, 0), 1), (((2,), 2, 0), -1)]
    assert list(a.tensor(b).terms.items()) == list(reference.tensor(a, b).terms.items())


def test_tensor_rejects_entries_that_are_not_int():
    one = GradedCharacter.from_weight((1,), 1)
    for bad in ({((Fraction(1, 2),), 1, 0): 1}, {((1,), 1.0, 0): 1}, {((1,), 1, 0): 0.5}):
        with pytest.raises(ValueError, match="not an int"):
            GradedCharacter(bad).tensor(one)
        with pytest.raises(ValueError, match="not an int"):
            one.tensor(GradedCharacter(bad))
