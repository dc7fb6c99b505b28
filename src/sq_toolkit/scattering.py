"""Toy two-particle collisions and small interacting gases.

A collision couples two particles for a fixed duration under
H = H0 + coupling * V, where H0 is the sum of diagonal free Hamiltonians
and V is a seeded random Hermitian interaction with unit max entry. With
coupling 0 the propagator factorizes and no correlation is ever produced;
with generic coupling a product in-state leaves the collision correlated,
which the sq estimators quantify.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, StateTooLarge
from .linalg import (
    SIZE_CAP,
    StateVector,
    apply_unitary,
    check_dims,
    check_int,
    check_restarts,
    random_product_state,
    schmidt,
    tensor,
)
from .schemes import shannon_entropy
from .sq import sq_bipartite, sq_search
from .tolerances import NORM_ATOL


def box_energies(dim: int) -> tuple[float, ...]:
    """Free spectrum (k+1)^2, k = 0..dim-1, like levels in a hard box."""
    return tuple(float((k + 1) ** 2) for k in range(check_int(dim, "dim")))


@dataclass(frozen=True)
class CollisionModel:
    """Two-particle collision parameters.

    free_energies_* are the diagonal free Hamiltonians; interaction_seed
    fixes the random Hermitian V (normalized to unit largest |entry|);
    coupling scales V; duration is the time each collision lasts. The
    operators on the pair are dense, so their (d1 * d2)^2 entries are held
    to the size cap (``check_size``).
    """

    d1: int
    d2: int
    free_energies_1: tuple[float, ...]
    free_energies_2: tuple[float, ...]
    coupling: float
    interaction_seed: int
    duration: float

    def __post_init__(self):
        d1, d2 = self.check_size(self.d1, self.d2)
        e1 = tuple(float(e) for e in self.free_energies_1)
        e2 = tuple(float(e) for e in self.free_energies_2)
        if len(e1) != d1 or len(e2) != d2:
            raise DimensionMismatch("free energy lists must match the dimensions")
        coupling, duration = float(self.coupling), float(self.duration)
        # a NaN or infinite entry would reach eigh or the state norm check
        if not np.isfinite([*e1, *e2, coupling, duration]).all():
            raise ValueError("free energies, coupling and duration must be finite")
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2)
        object.__setattr__(self, "free_energies_1", e1)
        object.__setattr__(self, "free_energies_2", e2)
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(
            self, "interaction_seed", check_int(self.interaction_seed, "interaction_seed")
        )
        object.__setattr__(self, "duration", duration)

    @staticmethod
    def check_size(d1, d2) -> tuple[int, int]:
        """(d1, d2) as ints: each >= 1 (ValueError), and a dense operator on
        the pair within ``SIZE_CAP`` entries (StateTooLarge)."""
        d1, d2 = check_dims((d1, d2))
        if (d1 * d2) ** 2 > SIZE_CAP:
            raise StateTooLarge(
                f"collision operator on dims ({d1}, {d2}) exceeds cap {SIZE_CAP}"
            )
        return d1, d2

    @classmethod
    def box(cls, d1, d2, coupling=0.5, interaction_seed=0, duration=1.0):
        """Model with box free spectra, the default in examples and tests."""
        return cls(
            d1, d2, box_energies(d1), box_energies(d2),
            coupling, interaction_seed, duration,
        )


def interaction(model: CollisionModel) -> np.ndarray:
    """The seeded random Hermitian V on the joint space, max |entry| = 1."""
    dim = model.d1 * model.d2
    rng = np.random.default_rng(model.interaction_seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    v = (g + g.conj().T) / 2.0
    return v / np.abs(v).max()


def hamiltonian(model: CollisionModel) -> np.ndarray:
    h0 = np.diag(
        np.add.outer(
            np.asarray(model.free_energies_1), np.asarray(model.free_energies_2)
        ).reshape(-1)
    ).astype(np.complex128)
    return h0 + model.coupling * interaction(model)


@lru_cache(maxsize=64)
def _eigensystem(model: CollisionModel):
    evals, evecs = np.linalg.eigh(hamiltonian(model))
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


def propagator(model: CollisionModel, t: float | None = None) -> np.ndarray:
    """U(t) = exp(-i H t); t defaults to the model's collision duration."""
    if t is None:
        t = model.duration
    evals, evecs = _eigensystem(model)
    return (evecs * np.exp(-1j * evals * float(t))) @ evecs.conj().T


def collide(model: CollisionModel, in1: StateVector, in2: StateVector) -> StateVector:
    """Joint out-state of one collision on a product in-state."""
    if in1.factor_dims != (model.d1,) or in2.factor_dims != (model.d2,):
        raise DimensionMismatch(
            "in-states must be single particles of dims "
            f"({model.d1},) and ({model.d2},)"
        )
    return apply_unitary(tensor(in1, in2), propagator(model))


@dataclass(frozen=True)
class GasTrajectory:
    """Time series of sq estimates along a sequence of collisions.

    pair_schedule records which particles collided before each row, with
    (-1, -1) for the initial row; pair_entropies is the Schmidt entropy of
    that pair against the rest of the gas (a cheap closed-form diagnostic
    and a lower bound on sq). In a gas_run the pair's collision group holds
    all of that entropy, so it is 0 while the group is just the pair; in an
    entropy_trajectory, where the pair is the whole system, it repeats
    sq_estimates.
    """

    times: tuple[float, ...]
    sq_estimates: tuple[float, ...]
    pair_schedule: tuple[tuple[int, int], ...]
    pair_entropies: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        est = tuple(float(v) for v in self.sq_estimates)
        pairs = tuple((int(i), int(j)) for i, j in self.pair_schedule)
        pent = tuple(float(v) for v in self.pair_entropies)
        if not len(times) == len(est) == len(pairs) == len(pent):
            raise ValueError("trajectory columns must have equal length")
        if len(times) == 0:
            raise ValueError("a trajectory needs at least one row")
        if min(est) < -NORM_ATOL:
            raise ValueError("sq estimates must be nonnegative")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "sq_estimates", est)
        object.__setattr__(self, "pair_schedule", pairs)
        object.__setattr__(self, "pair_entropies", pent)

    def __len__(self) -> int:
        return len(self.times)


def trajectory_to_csv(traj: GasTrajectory) -> str:
    lines = ["t,sq_estimate,pair_i,pair_j"]
    for t, v, (i, j) in zip(traj.times, traj.sq_estimates, traj.pair_schedule):
        lines.append(f"{t:.12g},{v:.12g},{i},{j}")
    return "\n".join(lines) + "\n"


def trajectory_to_json(traj: GasTrajectory) -> dict:
    return {
        "times": [float(t) for t in traj.times],
        "sq_estimates": [float(v) for v in traj.sq_estimates],
        "pair_schedule": [[i, j] for i, j in traj.pair_schedule],
        "pair_entropies": [float(v) for v in traj.pair_entropies],
    }


def entropy_trajectory(
    model: CollisionModel, in1: StateVector, in2: StateVector, samples: int
) -> GasTrajectory:
    """Closed-form sq of U(t) (in1 x in2) on a uniform time grid.

    samples >= 2 points from t = 0 to t = duration inclusive, at most
    ``SIZE_CAP`` (StateTooLarge). The pair column is (0, 1) throughout:
    the only two particles there are.
    """
    samples = check_int(samples, "samples")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if samples > SIZE_CAP:
        raise StateTooLarge(f"samples exceed cap {SIZE_CAP}")
    if in1.factor_dims != (model.d1,) or in2.factor_dims != (model.d2,):
        raise DimensionMismatch(
            "in-states must be single particles of dims "
            f"({model.d1},) and ({model.d2},)"
        )
    joint0 = tensor(in1, in2)
    times = np.linspace(0.0, model.duration, samples)
    values = []
    for t in times:
        out = apply_unitary(joint0, propagator(model, float(t)))
        values.append(sq_bipartite(out).value)
    return GasTrajectory(
        times=tuple(float(t) for t in times),
        sq_estimates=tuple(values),
        pair_schedule=((0, 1),) * samples,
        pair_entropies=tuple(values),
    )


def _bipartite_entropy(amps_tensor: np.ndarray, i: int, j: int) -> float:
    """Schmidt entropy of factors {i, j} against the remaining factors."""
    moved = np.moveaxis(amps_tensor, (i, j), (0, 1))
    d_pair = moved.shape[0] * moved.shape[1]
    pair_rest = StateVector((d_pair, moved.size // d_pair), moved.reshape(-1))
    return shannon_entropy(schmidt(pair_rest).weights)


def _apply_pair(amps_tensor, u, i, j, d):
    moved = np.moveaxis(amps_tensor, (i, j), (0, 1))
    shape = moved.shape
    flat = u @ moved.reshape(d * d, -1)
    return np.moveaxis(flat.reshape(shape), (0, 1), (i, j))


@dataclass
class _Group:
    """Particles joined by a chain of collisions: their joint amplitudes,
    one axis per particle in ascending order, and the group's sq estimate.
    Distinct groups stay uncorrelated, so the gas's sq is the sum of theirs."""

    particles: tuple[int, ...]
    amps: np.ndarray
    value: float = 0.0


def _merge(a: _Group, b: _Group) -> _Group:
    """The product of two groups, its axes put back in particle order."""
    particles = a.particles + b.particles
    order = np.argsort(particles)
    amps = np.multiply.outer(a.amps, b.amps).transpose(order)
    return _Group(tuple(sorted(particles)), amps)


def gas_run(
    n: int, d: int, collisions: int, model: CollisionModel, seed: int,
    restarts: int = 4,
) -> GasTrajectory:
    """Random pairwise collisions in an n-particle gas of dimension d each.

    Starts from a seeded random product state; each step picks an unordered
    pair uniformly and applies the model propagator to it. The gas is held
    as a product of collision groups (particles joined by a chain of
    collisions), and sq adds over the factors of a product, so a row's
    estimate is the sum of the group estimates: 0 for an untouched
    particle, the closed form for a pair, and an sq_search with few
    restarts for three or more (an upper bound, not a certificate). Only
    the group a collision touches is re-estimated. Every row draws one
    search seed, used or not, so the pair schedule does not depend on the
    grouping. Identical (model, seed) arguments give an identical
    trajectory.
    """
    n, d = check_int(n, "n"), check_int(d, "d")
    collisions = check_int(collisions, "collisions")
    if n < 3:
        raise ValueError("a gas needs n >= 3 particles")
    if collisions < 0:
        raise ValueError("collisions must be >= 0")
    # lazily, so a huge n fails the factor cap without building a tuple
    check_dims(d for _ in range(n))
    if (model.d1, model.d2) != (d, d):
        raise DimensionMismatch(
            f"model acts on dims ({model.d1}, {model.d2}), gas particles have dim {d}"
        )
    # up front: a run whose groups stay small never reaches sq_search
    check_restarts(restarts, d**n)
    rng = np.random.default_rng(seed)
    # group_of[p] is particle p's group; every particle starts alone
    group_of = [
        _Group((p,), random_product_state((d,), rng).amplitudes) for p in range(n)
    ]
    u = propagator(model)

    def total() -> float:
        return sum(g.value for p, g in enumerate(group_of) if g.particles[0] == p)

    rng.integers(0, 2**63)  # the initial row's search seed: a product needs none
    times = [0.0]
    estimates = [total()]
    pairs = [(-1, -1)]
    pair_entropies = [0.0]
    for k in range(collisions):
        i, j = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        sub_seed = int(rng.integers(0, 2**63))
        group = group_of[i]
        if group is not group_of[j]:
            group = _merge(group, group_of[j])
            for p in group.particles:
                group_of[p] = group
        a, b = group.particles.index(i), group.particles.index(j)
        group.amps = _apply_pair(group.amps, u, a, b, d)
        state = StateVector((d,) * len(group.particles), group.amps.reshape(-1))
        if len(group.particles) == 2:
            group.value = sq_bipartite(state).value
        else:
            group.value = sq_search(state, restarts=restarts, seed=sub_seed).value
        times.append((k + 1) * model.duration)
        estimates.append(total())
        pairs.append((i, j))
        pair_entropies.append(_bipartite_entropy(group.amps, a, b))
    return GasTrajectory(
        times=tuple(times),
        sq_estimates=tuple(estimates),
        pair_schedule=tuple(pairs),
        pair_entropies=tuple(pair_entropies),
    )
