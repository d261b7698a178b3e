"""Connected-permutation counts by enumeration and by series inversion."""

import itertools
from math import factorial

import pytest

from descon import series
from descon.permutations import EnumerationCapError
from descon.series import connected_counts_enumerated, connected_counts_series

from golden_tables import CONNECTED_COUNTS


def test_enumerated_examples():
    assert connected_counts_enumerated(5) == (1, 1, 3, 13, 71)


def test_series_examples():
    assert connected_counts_series(6) == (1, 1, 3, 13, 71, 461)


@pytest.mark.parametrize("max_n", (1, 4, 7))
def test_routes_agree(max_n):
    assert connected_counts_enumerated(max_n) == connected_counts_series(max_n)


def test_series_matches_the_definition():
    # oracle: count words with no prefix equal to an initial segment,
    # straight from the definition
    def connected(n):
        count = 0
        for w in itertools.permutations(range(1, n + 1)):
            if not any(set(w[:i]) == set(range(1, i + 1)) for i in range(1, n)):
                count += 1
        return count

    assert connected_counts_series(7) == tuple(connected(n) for n in range(1, 8))


def _one_minus_reciprocal_of_factorial_series(max_n):
    # 1 / (sum of k! x^k) term by term: r(0) = 1, r(n) = -sum_{k=1..n} k! r(n-k)
    r = [1]
    for n in range(1, max_n + 1):
        r.append(-sum(factorial(k) * r[n - k] for k in range(1, n + 1)))
    return tuple(-c for c in r[1:])


@pytest.mark.parametrize("max_n", (1, 2, 25))
def test_recurrence_equals_series_reciprocal(max_n):
    assert connected_counts_series(max_n) == _one_minus_reciprocal_of_factorial_series(max_n)


def test_series_value_past_the_enumeration_cap():
    assert connected_counts_series(13)[-1] == 5201061455


def test_series_matches_pinned_values():
    assert connected_counts_series(9) == CONNECTED_COUNTS


def test_table_validation():
    for bad in (0, True, 2.0):
        with pytest.raises(ValueError, match=f"^max_n must be a positive integer, got {bad!r}$"):
            connected_counts_series(bad)


@pytest.mark.parametrize("bad", (0, True, 2.0))
def test_enumerated_rejects_what_the_series_rejects(bad):
    with pytest.raises(ValueError, match="max_n must be a positive integer"):
        connected_counts_enumerated(bad)


def test_enumerated_refuses_past_the_cap_before_any_tally(monkeypatch):
    monkeypatch.setattr(series, "_rank_tally", pytest.fail)
    with pytest.raises(EnumerationCapError, match="^max_n=13 exceeds the hard ceiling 12"):
        connected_counts_enumerated(13)
