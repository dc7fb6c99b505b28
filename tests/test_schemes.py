"""Tests for schemes, coarsening, and entropy monotonicity."""

import numpy as np
import pytest

from conftest import ENTROPY_2314
from sq_toolkit.errors import InvalidPartition
from sq_toolkit.schemes import (
    Partition,
    Scheme,
    coarsen,
    entropy,
    shannon_entropy,
)


def labeled(weights) -> Scheme:
    return Scheme(tuple(range(len(weights))), weights)


def test_entropy_of_certainty_is_zero():
    assert shannon_entropy([1.0]) == 0.0
    assert entropy(labeled([1.0])) == 0.0


def test_entropy_of_uniform_weights():
    for n in range(2, 7):
        assert abs(shannon_entropy([1.0 / n] * n) - np.log(n)) <= 1e-12


def test_entropy_frozen_value():
    assert abs(shannon_entropy([0.2, 0.3, 0.1, 0.4]) - ENTROPY_2314) <= 1e-15


def test_zero_weights_contribute_nothing():
    assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0
    assert abs(shannon_entropy([0.5, 0.5, 0.0]) - np.log(2)) <= 1e-15


def test_entropy_is_clamped_at_zero():
    # a weight just above 1 from roundoff once gave -1.1e-15
    assert shannon_entropy([1.0 + 1e-15]) == 0.0
    assert str(shannon_entropy([1.0])) == "0.0"


def test_scheme_rejects_bad_weights():
    with pytest.raises(ValueError):
        labeled([0.5, 0.6])
    with pytest.raises(ValueError):
        labeled([1.5, -0.5])
    with pytest.raises(ValueError):
        Scheme((), [])


def test_scheme_rejects_event_weight_mismatch():
    with pytest.raises(ValueError):
        Scheme(("a", "b"), [1.0])


def test_coarsen_merges_pairs():
    fine = labeled([0.2, 0.3, 0.1, 0.4])
    merged = coarsen(fine, Partition(((0, 1), (2, 3))))
    np.testing.assert_allclose(merged.weights, [0.5, 0.5], atol=1e-15)
    assert merged.events == ((0, 1), (2, 3))


def test_coarsen_identity_partition():
    fine = labeled([0.2, 0.3, 0.1, 0.4])
    same = coarsen(fine, Partition(((0,), (1,), (2,), (3,))))
    np.testing.assert_array_equal(same.weights, fine.weights)


def test_coarsen_to_single_event():
    fine = labeled([0.2, 0.3, 0.1, 0.4])
    total = coarsen(fine, Partition(((0, 1, 2, 3),)))
    np.testing.assert_allclose(total.weights, [1.0], atol=1e-15)
    assert len(total) == 1


def test_coarsening_never_increases_entropy():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        fine = labeled(rng.dirichlet(np.ones(n)))
        cuts = sorted(rng.choice(np.arange(1, n), rng.integers(0, n - 1), replace=False))
        bounds = [0, *cuts, n]
        perm = rng.permutation(n)
        groups = tuple(
            tuple(int(i) for i in perm[a:b]) for a, b in zip(bounds, bounds[1:])
        )
        merged = coarsen(fine, Partition(groups))
        assert entropy(merged) <= entropy(fine) + 1e-12


def test_partition_rejects_overlap():
    with pytest.raises(InvalidPartition):
        Partition(((0, 1), (1, 2)))


def test_partition_rejects_empty_group():
    with pytest.raises(InvalidPartition):
        Partition(((0,), ()))


def test_partition_rejects_negative_index():
    with pytest.raises(InvalidPartition):
        Partition(((-1, 0),))


def test_partition_must_cover_scheme():
    fine = labeled([0.5, 0.5])
    with pytest.raises(InvalidPartition):
        coarsen(fine, Partition(((0,),)))
    with pytest.raises(InvalidPartition):
        coarsen(fine, Partition(((0, 1, 2),)))
