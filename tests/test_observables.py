"""Tests for product observables, measurement schemes, and fineness."""

import itertools

import numpy as np
import pytest

from conftest import ENTROPY_73, LN2, bell_state, two_weight_state
from sq_toolkit.errors import DimensionMismatch
from sq_toolkit.linalg import StateVector, basis_state, haar_unitary, random_state
from sq_toolkit.observables import (
    PointObservable,
    ProductObservable,
    induced_mixture,
    is_finer_op,
    measurement_entropy,
    measurement_scheme,
    observable_from_json,
    observable_to_json,
    refine_to_simple,
)


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


def test_matrix_reconstructs_operator():
    obs = PointObservable.random_simple(4, 3)
    m = obs.matrix
    np.testing.assert_allclose(
        m @ obs.eigenbasis[:, 1], obs.eigenvalues[1] * obs.eigenbasis[:, 1],
        atol=1e-12,
    )
    assert np.abs(m - m.conj().T).max() <= 1e-12


def test_eigenstate_measured_with_certainty():
    st = basis_state((2, 3), (1, 2))
    scheme = measurement_scheme(st, ProductObservable.computational((2, 3)))
    w = scheme.weights
    assert abs(w.max() - 1.0) <= 1e-12
    assert w.sum() - w.max() <= 1e-12
    assert measurement_entropy(st, ProductObservable.computational((2, 3))) == 0.0


def test_bell_computational_scheme():
    scheme = measurement_scheme(bell_state(), ProductObservable.computational((2, 2)))
    np.testing.assert_allclose(scheme.weights, [0.5, 0.0, 0.0, 0.5], atol=1e-12)
    assert scheme.events == ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0))


def test_scheme_weights_match_explicit_inner_products():
    rng = np.random.default_rng(4)
    for _ in range(10):
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        st = random_state(dims, rng)
        obs = ProductObservable.random_simple(dims, rng)
        scheme = measurement_scheme(st, obs)
        direct = []
        for i, j in itertools.product(range(dims[0]), range(dims[1])):
            vec = np.kron(obs.factors[0].eigenbasis[:, i], obs.factors[1].eigenbasis[:, j])
            direct.append(abs(vec.conj() @ st.amplitudes) ** 2)
        np.testing.assert_allclose(scheme.weights, direct, atol=1e-12)


def test_scheme_of_state_at_norm_tolerance():
    # StateVector accepts norm 1 + 0.9e-12; the scheme once rejected the
    # squared norm 1 + 1.8e-12 it induced
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0 + 0.9e-12
    scheme = measurement_scheme(
        StateVector((2, 2), amps), ProductObservable.computational((2, 2))
    )
    assert abs(scheme.weights.sum() - 1.0) <= 1e-15


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
    scheme = measurement_scheme(st, ProductObservable((sharp, trivial)))
    np.testing.assert_allclose(scheme.weights, [0.5, 0.5], atol=1e-12)
    both = measurement_scheme(st, ProductObservable((trivial, trivial)))
    np.testing.assert_allclose(both.weights, [1.0], atol=1e-12)


def test_induced_mixture_eigenstate():
    st = basis_state((2, 2), (1, 0))
    parts = induced_mixture(st, ProductObservable.computational((2, 2)))
    assert len(parts) == 1
    p, comp = parts[0]
    assert abs(p - 1.0) <= 1e-12
    np.testing.assert_allclose(np.abs(comp.amplitudes), np.abs(st.amplitudes), atol=1e-12)


def test_induced_mixture_bell():
    parts = induced_mixture(bell_state(), ProductObservable.computational((2, 2)))
    assert len(parts) == 2
    for p, comp in parts:
        assert abs(p - 0.5) <= 1e-12
        # each component is a computational product vector e00 or e11
        mags = np.abs(comp.amplitudes)
        assert abs(mags.max() - 1.0) <= 1e-12
    firsts = sorted(np.abs(comp.amplitudes[0]) for _, comp in parts)
    np.testing.assert_allclose(firsts, [0.0, 1.0], atol=1e-12)


def test_induced_mixture_matches_density_diagonal():
    rng = np.random.default_rng(8)
    for _ in range(5):
        dims = (3, 2)
        st = random_state(dims, rng)
        obs = ProductObservable.random_simple(dims, rng)
        parts = induced_mixture(st, obs)
        avg = sum(
            p * np.outer(c.amplitudes, c.amplitudes.conj()) for p, c in parts
        )
        joint = np.kron(obs.factors[0].eigenbasis, obs.factors[1].eigenbasis)
        diag_avg = np.real(np.diag(joint.conj().T @ avg @ joint))
        rho = np.outer(st.amplitudes, st.amplitudes.conj())
        diag_state = np.real(np.diag(joint.conj().T @ rho @ joint))
        np.testing.assert_allclose(diag_avg, diag_state, atol=1e-12)


def test_induced_mixture_degenerate_block_components():
    # identity on the first factor: components are normalized projections
    st = bell_state()
    obs = ProductObservable((PointObservable.identity(2), PointObservable.computational(2)))
    parts = induced_mixture(st, obs)
    assert len(parts) == 2
    for p, comp in parts:
        assert abs(p - 0.5) <= 1e-12
        assert abs(np.linalg.norm(comp.amplitudes) - 1.0) <= 1e-12


def test_simple_refines_identity():
    a = PointObservable.random_simple(3, 0)
    assert is_finer_op(a, PointObservable.identity(3))


def test_is_finer_op_reflexive():
    a = PointObservable.random_simple(4, 1)
    assert is_finer_op(a, a)


def test_generic_observables_not_finer():
    a = PointObservable.random_simple(4, 2)
    b = PointObservable.random_simple(4, 3)
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    assert np.abs(comm).max() > 1e-3  # almost surely non-commuting
    assert not is_finer_op(a, b)


def test_is_finer_op_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        is_finer_op(PointObservable.identity(2), PointObservable.identity(3))


def test_refine_simple_is_identity_map():
    a = PointObservable.random_simple(3, 5)
    assert refine_to_simple(a, 0) is a


def test_refine_identity_gives_finer_simple():
    a = PointObservable.identity(4)
    fine = refine_to_simple(a, 7)
    assert fine.is_simple
    assert is_finer_op(fine, a)


def test_refine_partial_degeneracy():
    u = haar_unitary(3, 9)
    a = PointObservable([2.0, 2.0, 5.0], u)
    fine = refine_to_simple(a, 11)
    assert fine.is_simple
    assert is_finer_op(fine, a)
    # the non-degenerate eigenvector is untouched up to phase
    overlap = abs(fine.eigenbasis[:, 2].conj() @ u[:, 2])
    assert abs(overlap - 1.0) <= 1e-10


def test_observable_json_round_trip():
    a = PointObservable.random_simple(3, 13)
    back = observable_from_json(observable_to_json(a))
    np.testing.assert_allclose(back.eigenvalues, a.eigenvalues, atol=0)
    np.testing.assert_allclose(back.eigenbasis, a.eigenbasis, atol=1e-15)


def test_observable_json_rejects_malformed():
    with pytest.raises(ValueError):
        observable_from_json({"eigenvalues": [1.0, 2.0]})
    with pytest.raises(ValueError):
        observable_from_json(
            {"eigenvalues": [1.0, 2.0], "eigenbasis": [[1.0, 0.0]]}
        )
