"""Tests for states, tensor products, Haar sampling, and normal forms."""

import numpy as np
import pytest

from conftest import bell_state, two_weight_state
from sq_toolkit.errors import DimensionMismatch, NotBipartite, StateTooLarge
from sq_toolkit.linalg import (
    MAX_FACTORS,
    SIZE_CAP,
    SchmidtForm,
    StateVector,
    apply_per_factor,
    apply_unitary,
    basis_state,
    complete_basis,
    haar_unitary,
    is_unitary,
    random_product_state,
    random_state,
    schmidt,
    tensor,
)
from sq_toolkit.observables import PointObservable
from sq_toolkit.scattering import (
    CollisionModel,
    box_energies,
    entropy_trajectory,
    gas_run,
)
from sq_toolkit.sq import sq_search
from sq_toolkit.verify import run_battery

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_state_vector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector((2,), [1.0, 1.0])


def test_state_vector_stores_unit_norm():
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0 + 0.9e-12
    st = StateVector((2, 2), amps)
    assert abs(np.linalg.norm(st.amplitudes) - 1.0) <= 1e-15


def test_state_vector_rejects_wrong_length():
    with pytest.raises(ValueError):
        StateVector((2, 2), [1.0, 0.0])


def test_state_vector_rejects_nonpositive_dims():
    with pytest.raises(ValueError):
        StateVector((2, 0), [])


def test_state_vector_amplitudes_are_frozen():
    st = basis_state((2, 2), (0, 0))
    with pytest.raises(ValueError):
        st.amplitudes[0] = 0.0


def test_state_vector_detached_from_input_buffer():
    amp = np.array([1.0 + 0j, 0.0])
    st = StateVector((2,), amp)
    amp[0] = 5.0
    assert st.amplitudes[0] == 1.0


def test_as_tensor_shape():
    st = random_state((2, 3, 4), 0)
    assert st.as_tensor().shape == (2, 3, 4)
    assert st.num_factors == 3
    assert st.dim == 24


def test_basis_state_product():
    st = tensor(basis_state((2,), (0,)), basis_state((2,), (0,)))
    np.testing.assert_array_equal(st.amplitudes, [1, 0, 0, 0])
    assert st.factor_dims == (2, 2)


def test_tensor_linear_in_first_factor():
    plus = StateVector((2,), [INV_SQRT2, INV_SQRT2])
    st = tensor(plus, basis_state((2,), (0,)))
    np.testing.assert_allclose(st.amplitudes, [INV_SQRT2, 0, INV_SQRT2, 0])


def test_tensor_preserves_norm():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_state((int(rng.integers(2, 5)),), rng)
        b = random_state((int(rng.integers(2, 5)),), rng)
        ab = tensor(a, b)
        assert abs(np.linalg.norm(ab.amplitudes) - 1.0) <= 1e-12


def test_haar_dim1_is_a_phase():
    u = haar_unitary(1, 0)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_haar_unitarity():
    u = haar_unitary(4, 7)
    assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-10
    for dim in range(2, 7):
        assert is_unitary(haar_unitary(dim, 11))


def test_haar_deterministic_in_seed():
    a = haar_unitary(4, 7)
    b = haar_unitary(4, 7)
    np.testing.assert_array_equal(a, b)
    c = haar_unitary(4, 8)
    assert np.abs(a - c).max() > 1e-3


def test_is_unitary_rejects_non_unitary():
    assert not is_unitary(np.ones((2, 2)))
    assert not is_unitary(2.0 * np.eye(3))


def test_apply_identity_is_noop():
    st = random_state((2, 3), 1)
    out = apply_unitary(st, np.eye(6))
    np.testing.assert_allclose(out.amplitudes, st.amplitudes)


def test_apply_unitary_preserves_norm():
    rng = np.random.default_rng(5)
    for _ in range(10):
        st = random_state((2, 2), rng)
        out = apply_unitary(st, haar_unitary(4, rng))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12


def test_apply_unitary_then_inverse():
    st = random_state((2, 2, 2), 9)
    u = haar_unitary(8, 2)
    back = apply_unitary(apply_unitary(st, u), u.conj().T)
    assert np.abs(back.amplitudes - st.amplitudes).max() <= 1e-10


def test_apply_unitary_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_unitary(random_state((2, 2), 0), np.eye(3))


def test_random_state_deterministic_and_normalized():
    a = random_state((3, 3), 42)
    b = random_state((3, 3), 42)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    assert abs(np.linalg.norm(a.amplitudes) - 1.0) <= 1e-12


def test_random_product_state_has_rank_one():
    st = random_product_state((3, 4), 6)
    assert schmidt(st).rank == 1


def test_complete_basis_extends_columns():
    rng = np.random.default_rng(2)
    form = schmidt(random_state((2, 4), rng))
    cols = form.right_basis  # 4x2, orthonormal columns
    full = complete_basis(cols, rng)
    assert full.shape == (4, 4)
    assert is_unitary(full)
    np.testing.assert_allclose(full[:, :2], cols, atol=1e-12)


def test_schmidt_product_state_single_weight():
    st = random_product_state((3, 3), 0)
    form = schmidt(st)
    assert form.rank == 1
    np.testing.assert_allclose(form.weights, [1.0], atol=1e-12)


def test_schmidt_bell_weights():
    form = schmidt(bell_state())
    np.testing.assert_allclose(form.weights, [0.5, 0.5], atol=1e-12)
    assert form.rank == 2


def test_schmidt_diagonal_coefficient_matrix():
    form = schmidt(two_weight_state(0.7, 0.3))
    np.testing.assert_allclose(form.weights, [0.7, 0.3], atol=1e-12)


def test_schmidt_renormalizes_kept_weights():
    # eleven weights of 0.9e-12 fall under the cutoff; the kept weight alone
    # sums to 1 - 9.9e-12, which the normal form once rejected
    small = 0.9e-12
    m = np.diag([np.sqrt(1.0 - 11 * small)] + [np.sqrt(small)] * 11)
    form = schmidt(StateVector((12, 12), m.reshape(-1)))
    assert form.rank == 1
    assert abs(form.weights.sum() - 1.0) <= 1e-15


def test_schmidt_reconstruction_random_states():
    rng = np.random.default_rng(7)
    for _ in range(25):
        dims = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        st = random_state(dims, rng)
        form = schmidt(st)
        err = np.abs(form.reconstruct().amplitudes - st.amplitudes).max()
        assert err <= 1e-10
        assert abs(form.weights.sum() - 1.0) <= 1e-12
        assert all(np.diff(form.weights) <= 1e-12)


def test_schmidt_bases_orthonormal():
    form = schmidt(random_state((3, 5), 12))
    left, right = form.left_basis, form.right_basis
    np.testing.assert_allclose(
        left.conj().T @ left, np.eye(form.rank), atol=1e-10
    )
    np.testing.assert_allclose(
        right.conj().T @ right, np.eye(form.rank), atol=1e-10
    )


def test_schmidt_requires_two_factors():
    with pytest.raises(NotBipartite):
        schmidt(random_state((4,), 0))
    with pytest.raises(NotBipartite):
        schmidt(random_state((2, 2, 2), 0))


def test_schmidt_form_rejects_ascending_weights():
    form = schmidt(two_weight_state(0.7, 0.3))
    with pytest.raises(ValueError):
        SchmidtForm(
            factor_dims=form.factor_dims,
            weights=form.weights[::-1],
            left_basis=form.left_basis,
            right_basis=form.right_basis,
        )


def test_schmidt_form_rejects_bad_weight_sum():
    form = schmidt(two_weight_state(0.7, 0.3))
    with pytest.raises(ValueError):
        SchmidtForm(
            factor_dims=form.factor_dims,
            weights=form.weights * 0.9,
            left_basis=form.left_basis,
            right_basis=form.right_basis,
        )


def test_schmidt_form_rejects_non_orthonormal_basis():
    form = schmidt(bell_state())
    skew = np.array(form.left_basis, copy=True)
    skew[:, 1] = skew[:, 0]
    with pytest.raises(ValueError):
        SchmidtForm(
            factor_dims=form.factor_dims,
            weights=form.weights,
            left_basis=skew,
            right_basis=form.right_basis,
        )


def _kron_reference(mats, flat, dims):
    """apply_per_factor by brute force: one Kronecker product per state."""
    rows = flat.shape[0]
    out = []
    for r in range(rows):
        full = np.ones((1, 1))
        for d, m in zip(dims, mats):
            if m is None:
                m = np.eye(d)
            elif m.ndim == 3:
                m = m[r]
            full = np.kron(full, m)
        out.append(full @ flat[r])
    return np.array(out)


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize(
    "dims", [(3,), (2, 3), (2, 1, 3), (2, 3, 2, 2), (1, 1, 4, 1)]
)
def test_apply_per_factor_matches_kronecker(dims):
    rng = np.random.default_rng(sum(dims))
    rows = 3
    flat = _complex_normal(rng, (rows, int(np.prod(dims))))
    # per-state stacks on even factors, one shared matrix on odd ones
    mats = [
        _complex_normal(rng, (rows, d, d) if k % 2 == 0 else (d, d))
        for k, d in enumerate(dims)
    ]
    np.testing.assert_allclose(
        apply_per_factor(mats, flat, dims), _kron_reference(mats, flat, dims),
        atol=1e-12,
    )


def test_apply_per_factor_none_and_nonsquare():
    rng = np.random.default_rng(5)
    dims = (3, 2, 4)
    flat = rng.random((2, 24))
    pool = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    mats = [None, rng.random((2, 2, 2)), pool]
    out = apply_per_factor(mats, flat, dims)
    assert out.shape == (2, 3 * 2 * 2)
    np.testing.assert_allclose(out, _kron_reference(mats, flat, dims), atol=1e-12)
    # all None is the identity, in the input's order
    np.testing.assert_array_equal(apply_per_factor([None] * 3, flat, dims), flat)


def test_state_vector_rejects_non_finite_amplitudes():
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [1.0, np.nan]):
        with pytest.raises(ValueError):
            StateVector((2,), bad)


def test_size_policy_caps_factor_count():
    with pytest.raises(StateTooLarge):
        StateVector((1,) * (MAX_FACTORS + 1), [1.0])
    with pytest.raises(StateTooLarge):
        basis_state((1,) * (MAX_FACTORS + 1), (0,) * (MAX_FACTORS + 1))
    assert StateVector((1,) * MAX_FACTORS, [1.0]).num_factors == MAX_FACTORS


def test_size_policy_caps_joint_dimension_before_allocating():
    # 200000^2 complex amplitudes would need 640 GB
    for build in (random_state, random_product_state):
        with pytest.raises(StateTooLarge):
            build((200000, 200000), 0)
    with pytest.raises(StateTooLarge):
        basis_state((SIZE_CAP, 2), (0, 0))
    big = random_product_state((SIZE_CAP // 2,), 0)
    with pytest.raises(StateTooLarge):
        tensor(big, random_product_state((4,), 1))


QUBIT_MODEL = CollisionModel.box(2, 2)
QUBIT = StateVector((2,), [1.0, 0.0])
PAIR = random_state((2, 2), 0)


@pytest.mark.parametrize(
    "build, good, bad",
    [
        (lambda v: random_state((v, 2), 0), 2, 2.7),
        (lambda v: StateVector((v, 2), np.eye(4)[0]), 2, "2"),
        (lambda v: StateVector((v, 2), [1.0, 0.0]), 1, True),
        (lambda v: haar_unitary(v, 0), 2, 2.9),
        (lambda v: gas_run(v, 2, 1, QUBIT_MODEL, 0), 3, 3.9),
        (lambda v: gas_run(3, v, 1, QUBIT_MODEL, 0), 2, 2.0),
        (lambda v: gas_run(3, 2, v, QUBIT_MODEL, 0), 1, 1.5),
        (lambda v: entropy_trajectory(QUBIT_MODEL, QUBIT, QUBIT, v), 2, 2.5),
        (lambda v: CollisionModel.box(2, 2, interaction_seed=v), 1, 1.5),
        (lambda v: PointObservable.identity(v), 2, 2.9),
        (lambda v: PointObservable.identity(v), 1, True),
        (lambda v: PointObservable.computational(v), 2, 2.0),
        (lambda v: basis_state((2, 2), (v, 0)), 1, 1.7),
        (lambda v: SchmidtForm((v, 2), [1.0], [[1.0], [0.0]], [[1.0], [0.0]]), 2, 2.7),
        (lambda v: box_energies(v), 2, 2.9),
        (lambda v: run_battery(samples=v, dims=(2, 2)), 1, 2.9),
        (lambda v: run_battery(samples=1, dims=(v, 3)), 3, 3.5),
        (lambda v: run_battery(samples=1, seed=v, dims=(2, 2)), 1, 1.5),
        (lambda v: sq_search(PAIR, restarts=v, max_iters=2), 2, 2.5),
        (lambda v: sq_search(PAIR, restarts=1, max_iters=v), 2, 2.5),
        (lambda v: sq_search(PAIR, restarts=1, max_iters=2, seed=v), 1, 1.5),
        (lambda v: gas_run(3, 2, 3, QUBIT_MODEL, 0, restarts=v), 2, 2.5),
    ],
    ids=[
        "random-state-dims", "string-dim", "bool-dim", "haar-dim", "gas-n",
        "gas-d", "gas-collisions", "trajectory-samples", "interaction-seed",
        "identity-dim", "identity-bool-dim", "computational-dim", "basis-index",
        "schmidt-form-dims", "box-energies-dim", "battery-samples", "battery-dims",
        "battery-seed", "search-restarts", "search-max-iters", "search-seed",
        "gas-restarts",
    ],
)
def test_sizes_and_counts_must_be_integers(build, good, bad):
    """A float, string or bool where a size or count belongs raises rather
    than being truncated or read as 1; NumPy integers pass."""
    build(np.int64(good))
    with pytest.raises(ValueError, match="must be an integer"):
        build(bad)
