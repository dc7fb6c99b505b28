"""Tests for product observables and the entropy their measurement induces."""

import itertools

import numpy as np
import pytest

from conftest import ENTROPY_73, LN2, bell_state, two_weight_state
from sq_toolkit.errors import DimensionMismatch
from sq_toolkit.linalg import StateVector, basis_state, random_state
from sq_toolkit.observables import (
    PointObservable,
    ProductObservable,
    measurement_entropy,
    outcome_pools,
)
from sq_toolkit.schemes import shannon_entropy
from sq_toolkit.tolerances import DEGENERACY_ATOL


def test_point_observable_rejects_skew_basis():
    basis = np.array([[1.0, 0.9], [0.0, np.sqrt(1 - 0.81)]])
    with pytest.raises(ValueError):
        PointObservable([1.0, 2.0], basis)


def test_point_observable_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        PointObservable([1.0, 2.0, 3.0], np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_point_observable_rejects_non_finite_eigenvalues(bad):
    with pytest.raises(ValueError, match="finite"):
        PointObservable([bad, 1.0], np.eye(2))


def test_is_simple_detects_degeneracy():
    assert PointObservable.computational(3).is_simple
    assert not PointObservable([1.0, 1.0, 2.0], np.eye(3)).is_simple
    assert not PointObservable.identity(4).is_simple
    assert PointObservable.identity(1).is_simple


def test_outcome_classes_group_by_value():
    obs = PointObservable([1.0, 2.0, 1.0 + 1e-12], np.eye(3))
    assert obs.outcome_classes() == [[0, 2], [1]]


def first_member_classes(values):
    """Outcome classes one value at a time: each joins the first class
    whose first member is within DEGENERACY_ATOL, else starts its own."""
    classes = []
    for i, v in enumerate(values):
        for members in classes:
            if abs(v - values[members[0]]) <= DEGENERACY_ATOL:
                members.append(i)
                break
        else:
            classes.append([i])
    return classes


def test_outcome_pools_of_a_stack_follow_the_first_member_rule():
    rows = [
        [0.0, 0.6e-9, 1.2e-9, 1.0],  # a chain: the third value starts a class
        [2.0, 1.0, 2.0, 1.0],
        [1.0, 2.0, 3.0, 4.0],
        [5.0, 5.0, 5.0, 5.0],
        [3.0, 1.0, 3.0 + 1e-12, 7.0],
    ]
    pools = outcome_pools(np.array(rows))
    for values, pool in zip(rows, pools):
        expected = np.zeros((4, 4))
        for members in first_member_classes(values):
            expected[members[0], members] = 1.0
        np.testing.assert_array_equal(pool, expected)
        np.testing.assert_array_equal(outcome_pools(values), expected)


def test_eigenstate_measured_with_certainty():
    st = basis_state((2, 3), (1, 2))
    assert measurement_entropy(st, ProductObservable.computational((2, 3))) == 0.0


def test_bell_computational_scheme():
    value = measurement_entropy(bell_state(), ProductObservable.computational((2, 2)))
    assert abs(value - shannon_entropy([0.5, 0.0, 0.0, 0.5])) <= 1e-12


def test_scheme_weights_match_explicit_inner_products():
    rng = np.random.default_rng(4)
    for _ in range(10):
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        st = random_state(dims, rng)
        obs = ProductObservable.random_simple(dims, rng)
        direct = []
        for i, j in itertools.product(range(dims[0]), range(dims[1])):
            vec = np.kron(obs.factors[0].eigenbasis[:, i], obs.factors[1].eigenbasis[:, j])
            direct.append(abs(vec.conj() @ st.amplitudes) ** 2)
        assert abs(measurement_entropy(st, obs) - shannon_entropy(direct)) <= 1e-12


def test_scheme_of_state_at_norm_tolerance():
    # StateVector accepts norm 1 + 0.9e-12; the scheme once rejected the
    # squared norm 1 + 1.8e-12 it induced
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0 + 0.9e-12
    value = measurement_entropy(
        StateVector((2, 2), amps), ProductObservable.computational((2, 2))
    )
    assert value == 0.0


def test_measurement_entropy_bell_computational():
    value = measurement_entropy(bell_state(), ProductObservable.computational((2, 2)))
    assert abs(value - LN2) <= 1e-12


def test_measurement_entropy_frozen_two_weight_case():
    st = two_weight_state(0.7, 0.3)
    value = measurement_entropy(st, ProductObservable.computational((2, 2)))
    assert abs(value - ENTROPY_73) <= 1e-12


def test_measurement_entropy_rejects_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        measurement_entropy(bell_state(), ProductObservable.computational((2, 3)))


def test_degenerate_factor_pools_probabilities():
    st = bell_state()
    trivial = PointObservable.identity(2)
    sharp = PointObservable.computational(2)
    value = measurement_entropy(st, ProductObservable((sharp, trivial)))
    assert abs(value - LN2) <= 1e-12
    assert measurement_entropy(st, ProductObservable((trivial, trivial))) == 0.0
