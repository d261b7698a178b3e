import doctest

import pytest

import descon.matrices
import descon.permutations
import descon.rings
import descon.series
import descon.subsets


@pytest.mark.parametrize(
    "module",
    [descon.rings, descon.subsets, descon.permutations, descon.series, descon.matrices],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    failures, _total = doctest.testmod(module)
    assert failures == 0
