"""Tests for the closed form, the search, orbits, and the convexity gap."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ENTROPY_73, LN2, bell_state, ghz_state, two_weight_state
from sq_toolkit.errors import DimensionMismatch, NotBipartite, NotDegenerate
from sq_toolkit.linalg import (
    StateVector,
    haar_unitary,
    random_product_state,
    random_state,
    schmidt,
    tensor,
)
from sq_toolkit.observables import (
    PointObservable,
    ProductObservable,
    measurement_entropy,
)
from sq_toolkit.sq import (
    SqResult,
    adapted_pair,
    convexity_gap,
    degenerate_orbit,
    sq_bipartite,
    sq_search,
)
from sq_toolkit.schemes import shannon_entropy

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def test_adapted_pair_bell():
    pair = adapted_pair(schmidt(bell_state()))
    assert pair.is_simple
    assert abs(measurement_entropy(bell_state(), pair) - LN2) <= 1e-12


def test_adapted_pair_product_state():
    st = random_product_state((3, 4), 2)
    pair = adapted_pair(schmidt(st))
    assert measurement_entropy(st, pair) <= 1e-12
    # the normal-form vectors appear among the eigenvectors
    form = schmidt(st)
    a, b = pair.factors
    assert np.abs(a.eigenbasis[:, 0] - form.left_basis[:, 0]).max() <= 1e-12
    assert np.abs(b.eigenbasis[:, 0] - form.right_basis[:, 0]).max() <= 1e-12


def test_adapted_pair_two_weight_state():
    st = two_weight_state(0.7, 0.3)
    pair = adapted_pair(schmidt(st))
    assert abs(measurement_entropy(st, pair) - ENTROPY_73) <= 1e-12


def test_adapted_pair_attains_on_random_states():
    rng = np.random.default_rng(6)
    for _ in range(10):
        dims = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        st = random_state(dims, rng)
        closed = sq_bipartite(st).value
        pair = adapted_pair(schmidt(st), seed=rng)
        assert abs(measurement_entropy(st, pair) - closed) <= 1e-12


def test_sq_bipartite_product_state():
    assert sq_bipartite(random_product_state((4, 3), 1)).value <= 1e-12


def test_sq_bipartite_bell():
    res = sq_bipartite(bell_state())
    assert abs(res.value - LN2) <= 1e-12
    assert res.method == "closed_form"
    assert res.converged
    np.testing.assert_allclose(res.weights, [0.5, 0.5], atol=1e-12)


def test_sq_bipartite_two_weight_state():
    assert abs(sq_bipartite(two_weight_state(0.7, 0.3)).value - ENTROPY_73) <= 1e-12


def test_sq_bipartite_rejects_other_factor_counts():
    with pytest.raises(NotBipartite):
        sq_bipartite(ghz_state())


def test_sq_result_to_json_keys():
    res = sq_bipartite(bell_state())
    out = res.to_json()
    assert set(out) == {"value", "method", "weights", "converged"}


def test_sq_result_rejects_out_of_range_value():
    res = sq_bipartite(bell_state())
    with pytest.raises(ValueError):
        SqResult(
            value=10.0,
            argmin=res.argmin,
            method="closed_form",
            converged=True,
            weights=res.weights,
        )


def test_search_product_state_reaches_zero():
    st = random_product_state((2, 3, 2), 3)
    res = sq_search(st, restarts=4, seed=1)
    assert res.value <= 1e-9
    assert res.method == "search"


def test_search_matches_bell_closed_form():
    res = sq_search(bell_state(), restarts=10, seed=0)
    assert abs(res.value - LN2) <= 1e-6


def test_search_ghz_reaches_ln2():
    res = sq_search(ghz_state(), restarts=6, seed=0)
    # computational bases give ln 2; the search must not do worse
    assert res.value <= LN2 + 1e-6


def test_search_deterministic_in_seed():
    st = random_state((3, 3), 17)
    a = sq_search(st, restarts=3, seed=4)
    b = sq_search(st, restarts=3, seed=4)
    assert a.value == b.value
    np.testing.assert_array_equal(a.weights, b.weights)


def test_search_weights_sorted_and_normalized():
    res = sq_search(random_state((3, 2), 5), restarts=3, seed=2)
    assert all(np.diff(res.weights) <= 0.0)
    assert abs(res.weights.sum() - 1.0) <= 1e-10


def test_search_argmin_reproduces_value():
    st = random_state((2, 4), 8)
    res = sq_search(st, restarts=4, seed=3)
    assert abs(measurement_entropy(st, res.argmin) - res.value) <= 1e-9


def test_search_validates_arguments():
    st = bell_state()
    with pytest.raises(ValueError):
        sq_search(st, restarts=0)
    with pytest.raises(ValueError):
        sq_search(st, max_iters=0)
    with pytest.raises(ValueError):
        sq_search(st, seed=-1)


@pytest.mark.parametrize("dims", [(3, 3), (2, 2, 3), (2,) * 6])
def test_search_restarts_are_independent(dims):
    # restart k runs the same path however many others run beside it, so
    # adding restarts can only lower the value, exactly
    st = random_state(dims, 21)
    values = [sq_search(st, restarts=k, seed=9).value for k in range(1, 6)]
    assert all(b <= a for a, b in zip(values, values[1:])), values


def test_search_value_is_entropy_of_reported_weights():
    res = sq_search(random_state((2, 2, 3), 4), restarts=3, seed=1)
    assert res.value == shannon_entropy(res.weights)


def test_degenerate_orbit_identity_is_noop():
    form = schmidt(bell_state())
    same = degenerate_orbit(form, np.eye(2))
    np.testing.assert_array_equal(same.left_basis, form.left_basis)
    np.testing.assert_array_equal(same.right_basis, form.right_basis)


def test_degenerate_orbit_preserves_state():
    form = schmidt(bell_state())
    rotated = degenerate_orbit(form, HADAMARD)
    err = np.abs(
        rotated.reconstruct().amplitudes - form.reconstruct().amplitudes
    ).max()
    assert err <= 1e-10


def test_degenerate_orbit_random_unitaries_keep_entropy():
    form = schmidt(bell_state())
    closed = sq_bipartite(bell_state()).value
    rng = np.random.default_rng(10)
    for _ in range(10):
        rotated = degenerate_orbit(form, haar_unitary(2, rng))
        st = rotated.reconstruct()
        pair = adapted_pair(rotated, seed=rng)
        assert abs(measurement_entropy(st, pair) - closed) <= 1e-12


def test_degenerate_orbit_rejects_unequal_weights():
    form = schmidt(two_weight_state(0.7, 0.3))
    with pytest.raises(NotDegenerate):
        degenerate_orbit(form, haar_unitary(2, 0))


def test_degenerate_orbit_rejects_bad_blocks():
    form = schmidt(bell_state())
    with pytest.raises(DimensionMismatch):
        degenerate_orbit(form, np.eye(3))
    with pytest.raises(DimensionMismatch):
        degenerate_orbit(form, np.eye(2), start=1)
    with pytest.raises(ValueError):
        degenerate_orbit(form, np.ones((2, 2)))


def test_degenerate_orbit_partial_block():
    # equal pair inside a rank-3 form: rotate only that block
    amp = np.zeros(9, dtype=complex)
    amp[0] = np.sqrt(0.5)
    amp[4] = amp[8] = np.sqrt(0.25)
    form = schmidt(StateVector((3, 3), amp))
    rotated = degenerate_orbit(form, haar_unitary(2, 3), start=1)
    err = np.abs(
        rotated.reconstruct().amplitudes - form.reconstruct().amplitudes
    ).max()
    assert err <= 1e-10


def test_convexity_gap_vanishes_for_adapted_c():
    st = random_state((3, 3), 14)
    form = schmidt(st)
    pair = adapted_pair(form)
    assert abs(convexity_gap(st, pair.factors[0])) <= 1e-12


def test_convexity_gap_vanishes_under_permutation():
    st = random_state((3, 3), 15)
    a = adapted_pair(schmidt(st)).factors[0]
    perm = a.eigenbasis[:, [2, 0, 1]]
    permuted = PointObservable(a.eigenvalues, perm)
    assert abs(convexity_gap(st, permuted)) <= 1e-12


def test_convexity_gap_nonnegative_on_random_draws():
    rng = np.random.default_rng(16)
    for _ in range(50):
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        st = random_state(dims, rng)
        c = PointObservable.random_simple(dims[0], rng)
        assert convexity_gap(st, c) >= -1e-10


def test_convexity_gap_validates_inputs():
    with pytest.raises(NotBipartite):
        convexity_gap(ghz_state(), PointObservable.computational(2))
    with pytest.raises(DimensionMismatch):
        convexity_gap(bell_state(), PointObservable.computational(3))
    with pytest.raises(ValueError):
        convexity_gap(bell_state(), PointObservable.identity(2))


@settings(max_examples=8)
@given(
    dims_a=st.sampled_from([(2, 2), (2, 3)]),
    dim_b=st.integers(2, 3),
    b_first=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_search_adds_over_a_product_with_a_single_factor(dims_a, dim_b, b_first, seed):
    """sq(psi_A x psi_B) = sq(psi_A) + sq(psi_B), and a single factor has
    sq 0: every product measurement's outcome weights are p_A x p_B."""
    rng = np.random.default_rng(seed)
    a = random_state(dims_a, rng)
    b = random_state((dim_b,), rng)
    product = tensor(b, a) if b_first else tensor(a, b)
    assert abs(sq_search(product, seed=seed).value - sq_bipartite(a).value) <= 1e-6
