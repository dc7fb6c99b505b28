"""Randomized property battery behind the ``verify`` CLI subcommand.

Each check draws seeded samples, records its worst violation, and passes
when that stays inside its fixed bound in ``DEFAULT_TOLERANCES``. The
checks cover: pooling the outcomes of a degenerate observable never raises
the entropy (``scheme_monotonicity``), the three-step chain bounding any
product measurement from below by the closed form, nonnegativity of the
convexity gap, invariance of the closed form on degenerate-block orbits,
and the sampled oracle bound with attainment by adapted pairs.

Draws are per sample, scoring is per stack. Each sample takes its state,
its observables' bases and the columns that complete its Schmidt bases
from the check's generators, in the order that ``random_state``,
``haar_unitary`` and ``adapted_pair`` take them for one sample.
Everything after the draws runs once per check on (samples, d, d) stacks,
through the stack forms of the library steps (``haar_from_ginibre``,
``schmidt_parts``, ``complete_columns``, ``orbit_bases`` and
``measurement_entropies``), with the checks that the one-sample objects
make. The samples are scored in chunks that each draw at most
``SIZE_CAP`` entries.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .linalg import (
    SIZE_CAP,
    StateVector,
    check_dims,
    check_int,
    check_schmidt_parts,
    complete_columns,
    haar_from_ginibre,
    is_unitary,
    schmidt,
    schmidt_matrices,
    schmidt_parts,
    unit_rows,
)
from .observables import measurement_entropies, outcome_pools
from .schemes import shannon_entropies, shannon_entropy
from .sq import orbit_bases

# The bound each check's worst value must stay within, one per report line
# and in report order. The bounds are fixed.
DEFAULT_TOLERANCES = {
    "scheme_monotonicity": 1e-12,
    "proof_chain_inequalities": 1e-10,
    "proof_chain_equality": 1e-12,
    "convexity_gap": 1e-10,
    "degenerate_orbit_entropy": 1e-12,
    "degenerate_orbit_reconstruction": 1e-10,
    "oracle_lower_bound": 1e-10,
    "adapted_attainment": 1e-12,
}


def bell_state() -> StateVector:
    amp = 1.0 / np.sqrt(2.0)
    return StateVector((2, 2), [amp, 0.0, 0.0, amp])


def check_proof_chain(samples: int, seed: int, dims) -> list[dict]:
    """Chain from any simple product measurement down to the closed form,
    and the pooling that makes simple observables the ones to minimize over.

    Per sample: S(C x D) >= S(C x 1) >= S(A x 1) = S(A x B), where (A, B)
    is an adapted pair for the sampled state and C, D are random simple
    observables. The two inequalities share one worst value; the equality
    is recorded separately. The same state is measured once more with the
    eigenbases of C and D labelled by random values from 0..d-1, so that
    repeated labels pool outcomes: worst_pooling = max S(pooled) - S(C x D).
    States and observables are drawn from seed + 1 and the labels from
    seed, so the chain's draws do not depend on the pooling.
    """
    rng = np.random.default_rng(seed + 1)
    labels = np.random.default_rng(seed)
    d1, d2 = dims = check_dims(dims)
    # the identity on the second factor: all its outcomes are one
    one = np.ones((1, d2))
    worst_pool = -np.inf
    worst_ineq = -np.inf
    worst_eq = 0.0
    for count in _chunks(samples, d1 * d2 + 2 * (d1 * d1 + d2 * d2)):
        drawn = _adapted_draws(rng, count, [(d1, d1), (d2, d2)], dims)
        for states, (c, dd), _, a, b in drawn:
            c, dd = _haar(c), _haar(dd)
            drawn_labels = [
                (labels.integers(0, d1, d1), labels.integers(0, d2, d2))
                for _ in range(len(states))
            ]
            pools = [outcome_pools(np.stack(column)) for column in zip(*drawn_labels)]
            s_cd = measurement_entropies(states, [c, dd], [None, None], dims)
            s_c1 = measurement_entropies(states, [c, None], [None, one], dims)
            s_a1 = measurement_entropies(states, [a, None], [None, one], dims)
            s_ab = measurement_entropies(states, [a, b], [None, None], dims)
            pooled = measurement_entropies(states, [c, dd], pools, dims)
            worst_pool = max(worst_pool, (pooled - s_cd).max())
            worst_ineq = max(worst_ineq, (s_c1 - s_cd).max(), (s_a1 - s_c1).max())
            worst_eq = max(worst_eq, np.abs(s_a1 - s_ab).max())
    return [
        _record("scheme_monotonicity", samples, worst_pool),
        _record("proof_chain_inequalities", samples, worst_ineq),
        _record("proof_chain_equality", samples, worst_eq),
    ]


def check_convexity_gap(samples: int, seed: int, dims) -> dict:
    """Gap nonnegativity: worst = max(-gap) over sampled (state, c) pairs."""
    rng = np.random.default_rng(seed)
    d1, d2 = dims = check_dims(dims)
    one = np.ones((1, d2))
    worst = -np.inf
    for count in _chunks(samples, d1 * d2 + d1 * d1):
        z, c = _ginibre(rng, count, [(d1 * d2,), (d1, d1)])
        states = _states(z)
        weights = _schmidt_forms(states, dims)[0]
        measured = measurement_entropies(states, [_haar(c), None], [None, one], dims)
        worst = max(worst, (shannon_entropies(weights) - measured).max())
    return _record("convexity_gap", samples, worst)


def check_degenerate_orbit(samples: int, seed: int) -> list[dict]:
    """Every orbit point of the Bell form reconstructs the state and still
    attains ln 2 through its adapted pair."""
    rng = np.random.default_rng(seed)
    bell = bell_state()
    form = schmidt(bell)
    target = shannon_entropy(form.weights)
    worst_ent = 0.0
    worst_rec = 0.0
    for count in _chunks(samples, 4):
        (z,) = _ginibre(rng, count, [(2, 2)])
        left, right = orbit_bases(form, haar_from_ginibre(z))
        # SchmidtForm's checks on the rotated forms. Their rank is full, so
        # they are the adapted pair's bases: completing them draws nothing.
        check_schmidt_parts(form.weights, left, right)
        rec = unit_rows(schmidt_matrices(form.weights, left, right).reshape(count, 4))
        amps = np.broadcast_to(bell.amplitudes, (count, 4))
        s = measurement_entropies(amps, [left, right], [None, None], (2, 2))
        worst_rec = max(worst_rec, np.abs(rec - bell.amplitudes).max())
        worst_ent = max(worst_ent, np.abs(s - target).max())
    return [
        _record("degenerate_orbit_entropy", samples, worst_ent),
        _record("degenerate_orbit_reconstruction", samples, worst_rec),
    ]


def check_oracle_bound(
    states: int, observables_per_state: int, seed: int, dims
) -> list[dict]:
    """Sampled product measurements never beat the closed form, and the
    adapted pair attains it: worst_bound = max(closed - sampled)."""
    rng = np.random.default_rng(seed)
    d1, d2 = dims = check_dims(dims)
    per = observables_per_state
    worst_bound = -np.inf
    worst_att = 0.0
    entries = d1 * d2 + (per + 1) * (d1 * d1 + d2 * d2)
    for count in _chunks(states, entries):
        drawn = _adapted_draws(rng, count, [(d1, d1), (d2, d2)] * per, dims)
        for psi, blocks, weights, a, b in drawn:
            closed = shannon_entropies(weights)
            if per:
                # (states, observables, d, d) bases, measured on a repeated stack
                c = _haar(np.stack(blocks[0::2], axis=1)).reshape(-1, d1, d1)
                dd = _haar(np.stack(blocks[1::2], axis=1)).reshape(-1, d2, d2)
                sampled = measurement_entropies(
                    np.repeat(psi, per, axis=0), [c, dd], [None, None], dims
                )
                worst_bound = max(worst_bound, (np.repeat(closed, per) - sampled).max())
            attained = measurement_entropies(psi, [a, b], [None, None], dims)
            worst_att = max(worst_att, np.abs(attained - closed).max())
    total = states * observables_per_state
    return [
        _record("oracle_lower_bound", total, worst_bound),
        _record("adapted_attainment", states, worst_att),
    ]


def run_battery(samples: int = 200, seed: int = 1, dims=(3, 3)) -> dict:
    """Run all checks, each against its fixed bound in
    ``DEFAULT_TOLERANCES``; the report passes only if every check does."""
    samples = check_int(samples, "samples")
    seed = check_int(seed, "seed")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    d1, d2 = check_dims(dims)
    checks = [
        *check_proof_chain(samples, seed, (d1, d2)),
        check_convexity_gap(samples, seed + 2, (d1, d2)),
        *check_degenerate_orbit(samples, seed + 3),
        *check_oracle_bound(max(1, samples // 20), min(20, samples), seed + 4, (d1, d2)),
    ]
    return {
        "seed": int(seed),
        "samples": samples,
        "dims": [d1, d2],
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _chunks(samples: int, entries: int):
    """Sizes of the consecutive chunks that ``samples`` samples are scored
    in, when each sample draws at most ``entries`` complex entries: every
    chunk but a last smaller one draws ``SIZE_CAP`` entries or fewer, and
    holds at least one sample."""
    size = max(1, SIZE_CAP // entries)
    for start in range(0, samples, size):
        yield min(size, samples - start)


def _ginibre(rng, count: int, shapes) -> list:
    """Complex Gaussian blocks of ``count`` samples, one (count, *shape)
    stack per shape. A sample draws its blocks in order, each as real
    part then imaginary part, as ``random_state``, ``haar_unitary`` and
    ``complete_basis`` draw one; the samples draw one after another."""
    sizes = [prod(shape) for shape in shapes]
    normals = rng.standard_normal((count, 2 * sum(sizes)))
    blocks = []
    at = 0
    for shape, size in zip(shapes, sizes):
        z = normals[:, at:at + size] + 1j * normals[:, at + size:at + 2 * size]
        blocks.append(z.reshape(count, *shape))
        at += 2 * size
    return blocks


def _states(z) -> np.ndarray:
    """Random states from Gaussian rows, scaled as ``random_state`` scales
    one and checked as ``StateVector`` checks one."""
    return unit_rows(z / np.linalg.norm(z, axis=-1, keepdims=True))


def _haar(z) -> np.ndarray:
    """Haar bases from Ginibre blocks, checked as ``PointObservable``
    checks an eigenbasis."""
    u = haar_from_ginibre(z)
    _check_unitary(u)
    return u


def _check_unitary(u) -> None:
    if not is_unitary(u):
        raise ValueError("eigenbasis columns are not orthonormal")


def _schmidt_forms(states, dims):
    """``schmidt_parts`` of each state, with ``SchmidtForm``'s checks on
    the forms of each rank."""
    d1, d2 = dims
    weights, left, right, ranks = parts = schmidt_parts(states.reshape(-1, d1, d2))
    for r in np.unique(ranks):
        of = ranks == r
        check_schmidt_parts(weights[of, :r], left[of, :, :r], right[of, :, :r])
    return parts


def _adapted_draws(rng, count: int, shapes, dims) -> list:
    """Draw ``count`` samples, each a state, then one Gaussian block per
    shape, then the columns that complete the state's Schmidt bases.

    Returns groups of consecutive samples, as (states, blocks, weights,
    a, b): the states (k, d1 d2), the blocks, the Schmidt weights (k, r)
    and the completed bases a (k, d1, d1) and b (k, d2, d2). A sample
    draws d - r completion columns per factor, and its rank r is known
    only once its state is drawn. So the samples are drawn on the guess
    that every state has full rank, which a Gaussian state has with
    probability 1. When a state has lower rank, that guess has shifted
    every later draw, so the samples are drawn again one at a time, each
    sized by its own rank.
    """
    full = min(dims)
    group, _ = _draw_ranked(rng, count, shapes, dims, full)
    if group is not None:
        return [group]
    groups = []
    for _ in range(count):
        group, ranks = _draw_ranked(rng, 1, shapes, dims, full)
        if group is None:
            group, _ = _draw_ranked(rng, 1, shapes, dims, int(ranks[0]))
        groups.append(group)
    return groups


def _draw_ranked(rng, count: int, shapes, dims, rank: int):
    """``_adapted_draws``'s draw of ``count`` samples whose states all have
    Schmidt rank ``rank``: (group, ranks). When some state has another
    rank, the generator is rewound and the group is None."""
    d1, d2 = dims
    start = rng.bit_generator.state
    z, *blocks, left_extra, right_extra = _ginibre(
        rng, count, [(d1 * d2,), *shapes, (d1, d1 - rank), (d2, d2 - rank)]
    )
    states = _states(z)
    weights, left, right, ranks = _schmidt_forms(states, dims)
    if (ranks != rank).any():
        rng.bit_generator.state = start
        return None, ranks
    a = complete_columns(left[..., :rank], left_extra)
    b = complete_columns(right[..., :rank], right_extra)
    _check_unitary(a)
    _check_unitary(b)
    return (states, blocks, weights[:, :rank], a, b), ranks


def _record(name: str, samples: int, worst: float) -> dict:
    """One check's report line, judged against its bound in
    ``DEFAULT_TOLERANCES``."""
    tolerance = DEFAULT_TOLERANCES[name]
    return {
        "name": name,
        "samples": int(samples),
        "worst": float(worst),
        "tolerance": float(tolerance),
        "passed": bool(worst <= tolerance),
    }
