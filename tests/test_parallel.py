"""The bounded worker count, checked without starting a pool."""

import pytest

from latticegap.parallel import available_cores, parallel_map, pool_size


@pytest.mark.parametrize("workers, chunks, cores, expected", [
    (1, 8, 2, 1),
    (2, 8, 2, 2),      # the benchmark's --workers 2 on two cores
    (64, 256, 2, 2),   # never more processes than cores
    (8, 3, 16, 3),     # never more processes than chunks
    (4, 0, 4, 1),      # at least one
])
def test_pool_size(workers, chunks, cores, expected):
    assert pool_size(workers, chunks, cores) == expected


def test_available_cores_is_positive():
    assert available_cores() >= 1


def test_a_pool_of_one_runs_in_this_process():
    # a lambda cannot be pickled, so this only passes without a pool
    assert parallel_map(lambda x: x * x, [1, 2, 3], workers=1) == [1, 4, 9]
    assert parallel_map(lambda x: -x, [5], workers=8) == [-5]
