"""Tests for collision models, trajectories, and gas runs."""

import dataclasses

import numpy as np
import pytest

from sq_toolkit import scattering
from sq_toolkit.errors import DimensionMismatch, StateTooLarge
from sq_toolkit.linalg import is_unitary, random_product_state, random_state
from sq_toolkit.scattering import (
    CollisionModel,
    GasTrajectory,
    box_energies,
    collide,
    entropy_trajectory,
    gas_run,
    hamiltonian,
    interaction,
    propagator,
    trajectory_to_csv,
    trajectory_to_json,
)
from sq_toolkit.sq import sq_bipartite


def box_model(coupling=0.5, seed=0, d=4):
    return CollisionModel.box(d, d, coupling=coupling, interaction_seed=seed)


# gas_run(n, 2, collisions, box(2, 2, coupling=0.5), seed) as a 4-restart
# sq_search over all n factors on every row, computed once and frozen:
# (n, collisions, seed) -> (pair schedule after row 0, estimates).
FROZEN_GAS_RUNS = {
    (12, 3, 0): (
        [(4, 9), (8, 9), (4, 7)],
        [0.0, 0.03258584841282281, 0.05763113235317812, 0.16666755765747415],
    ),
    (6, 6, 2): (
        [(4, 5), (2, 4), (1, 4), (2, 4), (2, 5), (2, 5)],
        [
            0.0, 0.07104952063692323, 0.17055034955940596, 0.21982437216540576,
            0.17952831429255084, 0.19044066440839086, 0.1895581376602282,
        ],
    ),
}


def test_box_energies_are_square_levels():
    assert box_energies(4) == (1.0, 4.0, 9.0, 16.0)


def test_model_validates_energy_lengths():
    with pytest.raises(DimensionMismatch):
        CollisionModel(2, 2, (1.0,), (1.0, 4.0), 0.5, 0, 1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["free_energies_1", "coupling", "duration"])
def test_model_rejects_non_finite_numbers(field, value):
    bad = (1.0, value) if field == "free_energies_1" else value
    with pytest.raises(ValueError, match="must be finite"):
        dataclasses.replace(CollisionModel.box(2, 2), **{field: bad})


def test_model_rejects_empty_particles():
    with pytest.raises(ValueError):
        CollisionModel(0, 2, (), (1.0, 4.0), 0.5, 0, 1.0)


def test_interaction_is_normalized_hermitian():
    v = interaction(box_model())
    assert np.abs(v - v.conj().T).max() <= 1e-12
    assert abs(np.abs(v).max() - 1.0) <= 1e-12


def test_interaction_deterministic_in_seed():
    np.testing.assert_array_equal(
        interaction(box_model(seed=5)), interaction(box_model(seed=5))
    )


def test_hamiltonian_is_hermitian():
    h = hamiltonian(box_model())
    assert h.shape == (16, 16)
    assert np.abs(h - h.conj().T).max() <= 1e-12


def test_free_hamiltonian_is_diagonal():
    h = hamiltonian(box_model(coupling=0.0, d=2))
    np.testing.assert_allclose(h, np.diag([2.0, 5.0, 5.0, 8.0]), atol=1e-12)


def test_propagator_is_unitary():
    assert is_unitary(propagator(box_model()))
    assert is_unitary(propagator(box_model(), 0.37))


def test_propagator_at_time_zero_is_identity():
    np.testing.assert_allclose(
        propagator(box_model(), 0.0), np.eye(16), atol=1e-12
    )


def test_collide_output_shape_and_norm():
    m = box_model()
    out = collide(m, random_state((4,), 1), random_state((4,), 2))
    assert out.factor_dims == (4, 4)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12


def test_collide_free_model_stays_product():
    m = box_model(coupling=0.0)
    out = collide(m, random_state((4,), 1), random_state((4,), 2))
    assert sq_bipartite(out).value <= 1e-9


def test_collide_generic_model_entangles():
    out = collide(box_model(), random_state((4,), 1), random_state((4,), 2))
    assert sq_bipartite(out).value > 0.01


def test_collide_rejects_joint_in_states():
    m = box_model(d=2)
    joint = random_state((2, 2), 0)
    single = random_state((2,), 0)
    with pytest.raises(DimensionMismatch):
        collide(m, joint, single)
    with pytest.raises(DimensionMismatch):
        collide(m, single, random_state((3,), 0))


def test_trajectory_free_model_stays_flat():
    m = box_model(coupling=0.0)
    traj = entropy_trajectory(m, random_state((4,), 1), random_state((4,), 2), 9)
    assert max(traj.sq_estimates) <= 1e-9


def test_trajectory_generic_model_grows():
    m = box_model()
    traj = entropy_trajectory(m, random_state((4,), 1), random_state((4,), 2), 9)
    assert traj.sq_estimates[0] <= 1e-9
    assert max(traj.sq_estimates) > 0.0
    assert max(traj.sq_estimates) <= np.log(4) + 1e-9


def test_trajectory_grid_and_pairs():
    m = box_model(d=2)
    traj = entropy_trajectory(m, random_state((2,), 1), random_state((2,), 2), 5)
    np.testing.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)
    assert traj.pair_schedule == ((0, 1),) * 5
    assert len(traj) == 5


def test_trajectory_needs_two_samples():
    m = box_model(d=2)
    with pytest.raises(ValueError):
        entropy_trajectory(m, random_state((2,), 1), random_state((2,), 2), 1)


def test_trajectory_matches_collide_endpoint():
    m = box_model()
    in1, in2 = random_state((4,), 1), random_state((4,), 2)
    traj = entropy_trajectory(m, in1, in2, 3)
    end = sq_bipartite(collide(m, in1, in2)).value
    assert abs(traj.sq_estimates[-1] - end) <= 1e-12


def test_csv_layout():
    traj = GasTrajectory(
        times=(0.0, 1.0),
        sq_estimates=(0.0, 0.25),
        pair_schedule=((-1, -1), (0, 1)),
        pair_entropies=(0.0, 0.25),
    )
    text = trajectory_to_csv(traj)
    lines = text.splitlines()
    assert lines[0] == "t,sq_estimate,pair_i,pair_j"
    assert lines[1] == "0,0,-1,-1"
    assert lines[2] == "1,0.25,0,1"
    assert text.endswith("\n")


def test_json_layout():
    traj = GasTrajectory(
        times=(0.0,),
        sq_estimates=(0.0,),
        pair_schedule=((-1, -1),),
        pair_entropies=(0.0,),
    )
    out = trajectory_to_json(traj)
    assert out == {
        "times": [0.0],
        "sq_estimates": [0.0],
        "pair_schedule": [[-1, -1]],
        "pair_entropies": [0.0],
    }


def test_gas_trajectory_validates_lengths():
    with pytest.raises(ValueError):
        GasTrajectory(
            times=(0.0, 1.0),
            sq_estimates=(0.0,),
            pair_schedule=((-1, -1),),
            pair_entropies=(0.0,),
        )


def test_gas_zero_collisions_starts_near_zero():
    m = box_model(d=2)
    traj = gas_run(3, 2, 0, m, seed=0)
    assert len(traj) == 1
    assert traj.sq_estimates[0] <= 1e-9
    assert traj.pair_schedule[0] == (-1, -1)


def test_gas_row_count_and_times():
    m = box_model(d=2)
    traj = gas_run(3, 2, 4, m, seed=1, restarts=2)
    assert len(traj) == 5
    np.testing.assert_allclose(traj.times, [0.0, 1.0, 2.0, 3.0, 4.0], atol=1e-15)
    for i, j in traj.pair_schedule[1:]:
        assert 0 <= i < j < 3


def test_gas_generic_coupling_produces_entropy():
    m = box_model(d=2, seed=3)
    traj = gas_run(3, 2, 10, m, seed=2, restarts=2)
    assert traj.sq_estimates[-1] > 0.0


def test_gas_free_coupling_stays_flat():
    m = box_model(coupling=0.0, d=2)
    traj = gas_run(3, 2, 10, m, seed=2, restarts=2)
    assert max(traj.sq_estimates) <= 1e-6


def test_gas_deterministic_in_seed():
    m = box_model(d=2)
    a = gas_run(3, 2, 3, m, seed=7, restarts=2)
    b = gas_run(3, 2, 3, m, seed=7, restarts=2)
    assert a.sq_estimates == b.sq_estimates
    assert a.pair_schedule == b.pair_schedule


def test_gas_validates_arguments():
    m = box_model(d=2)
    with pytest.raises(ValueError):
        gas_run(2, 2, 1, m, seed=0)
    with pytest.raises(ValueError):
        gas_run(3, 2, -1, m, seed=0)
    with pytest.raises(DimensionMismatch):
        gas_run(3, 3, 1, m, seed=0)


def test_gas_size_cap():
    m = box_model(d=2)
    with pytest.raises(StateTooLarge):
        gas_run(21, 2, 1, m, seed=0)


def test_gas_factor_cap():
    # 1^100 = 1 is under the dimension cap, but 100 factors are over theirs
    with pytest.raises(StateTooLarge):
        gas_run(100, 1, 1, box_model(d=1), seed=0)


def test_pair_entropy_matches_closed_form_for_two_body_cut():
    # after one collision of particles i, j the pair carries all correlation,
    # so its entropy against the rest must be 0 for a fresh product gas
    m = box_model(d=2, seed=4)
    traj = gas_run(3, 2, 1, m, seed=5, restarts=2)
    assert traj.pair_entropies[0] == 0.0
    assert traj.pair_entropies[1] <= 1e-9


@pytest.mark.parametrize("n, collisions, seed", sorted(FROZEN_GAS_RUNS))
def test_gas_matches_frozen_whole_gas_search(n, collisions, seed):
    pairs, estimates = FROZEN_GAS_RUNS[n, collisions, seed]
    traj = gas_run(n, 2, collisions, box_model(d=2), seed=seed)
    assert traj.pair_schedule == ((-1, -1), *pairs)
    np.testing.assert_allclose(traj.sq_estimates, estimates, rtol=0.0, atol=1e-9)


def test_gas_untouched_particles_and_pairs_need_no_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("sq_search called")

    monkeypatch.setattr(scattering, "sq_search", no_search)
    m = box_model(d=2)
    traj = gas_run(12, 2, 1, m, seed=3)
    i, j = traj.pair_schedule[1]
    # the particles are drawn in order, each as random_product_state draws it
    rng = np.random.default_rng(3)
    particles = [random_product_state((2,), rng) for _ in range(12)]
    pair = sq_bipartite(collide(m, particles[i], particles[j])).value
    assert traj.sq_estimates[0] == 0.0
    assert abs(traj.sq_estimates[1] - pair) <= 1e-12
    assert pair > 0.0
    assert traj.pair_entropies == (0.0, 0.0)


def test_gas_rejects_zero_restarts():
    with pytest.raises(ValueError):
        gas_run(3, 2, 0, box_model(d=2), seed=0, restarts=0)
