"""Connected-permutation counts by enumeration and by series inversion."""

import itertools
from math import factorial

import pytest

from descon.series import (
    ConnectedCountTable,
    connected_counts_enumerated,
    connected_counts_series,
)

from golden_tables import CONNECTED_COUNTS


def test_enumerated_examples():
    table = connected_counts_enumerated(5)
    assert table.source == "enumeration"
    assert table.count(1) == 1
    assert table.count(3) == 3
    assert table.count(5) == 71


def test_series_examples():
    table = connected_counts_series(6)
    assert table.source == "series"
    assert table.count(1) == 1
    assert table.counts == (1, 1, 3, 13, 71, 461)


@pytest.mark.parametrize("max_n", (1, 4, 7))
def test_routes_agree(max_n):
    assert connected_counts_enumerated(max_n).counts == connected_counts_series(max_n).counts


def test_series_matches_the_definition():
    # oracle: count words with no prefix equal to an initial segment,
    # straight from the definition
    def connected(n):
        count = 0
        for w in itertools.permutations(range(1, n + 1)):
            if not any(set(w[:i]) == set(range(1, i + 1)) for i in range(1, n)):
                count += 1
        return count

    assert connected_counts_series(7).counts == tuple(connected(n) for n in range(1, 8))


def _one_minus_reciprocal_of_factorial_series(max_n):
    # 1 / (sum of k! x^k) term by term: r(0) = 1, r(n) = -sum_{k=1..n} k! r(n-k)
    r = [1]
    for n in range(1, max_n + 1):
        r.append(-sum(factorial(k) * r[n - k] for k in range(1, n + 1)))
    return tuple(-c for c in r[1:])


@pytest.mark.parametrize("max_n", (1, 2, 25))
def test_recurrence_equals_series_reciprocal(max_n):
    assert connected_counts_series(max_n).counts == _one_minus_reciprocal_of_factorial_series(max_n)


def test_series_value_past_the_enumeration_cap():
    assert connected_counts_series(13).count(13) == 5201061455


def test_series_matches_pinned_values():
    assert connected_counts_series(9).counts == CONNECTED_COUNTS


def test_table_validation():
    with pytest.raises(ValueError):
        ConnectedCountTable(2, (1,), "series")
    with pytest.raises(ValueError):
        ConnectedCountTable(2, (2, 1), "series")
    with pytest.raises(IndexError):
        connected_counts_series(3).count(4)
    for bad in (0, True, 2.0):
        with pytest.raises(ValueError, match="positive integer"):
            connected_counts_series(bad)
