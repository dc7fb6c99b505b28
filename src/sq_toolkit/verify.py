"""Randomized property battery behind the ``verify`` CLI subcommand.

Each check draws seeded samples, records its worst violation, and passes
when that stays inside its fixed bound in ``DEFAULT_TOLERANCES``. The
checks cover: pooling the outcomes of a degenerate observable never raises
the entropy (``scheme_monotonicity``), the three-step chain bounding any
product measurement from below by the closed form, nonnegativity of the
convexity gap, invariance of the closed form on degenerate-block orbits,
and the sampled oracle bound with attainment by adapted pairs.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    StateVector,
    check_dims,
    check_int,
    haar_unitary,
    random_state,
    schmidt,
)
from .observables import PointObservable, ProductObservable, measurement_entropy
from .schemes import shannon_entropy
from .sq import adapted_pair, convexity_gap, degenerate_orbit, sq_bipartite

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
    d1, d2 = check_dims(dims)
    one = PointObservable.identity(d2)
    worst_pool = -np.inf
    worst_ineq = -np.inf
    worst_eq = 0.0
    for _ in range(samples):
        state = random_state((d1, d2), rng)
        c = PointObservable.random_simple(d1, rng)
        dd = PointObservable.random_simple(d2, rng)
        ab = adapted_pair(schmidt(state), rng)
        a = ab.factors[0]
        pooled = ProductObservable(tuple(
            PointObservable(labels.integers(0, f.dim, f.dim), f.eigenbasis)
            for f in (c, dd)
        ))
        s_cd = measurement_entropy(state, ProductObservable((c, dd)))
        s_c1 = measurement_entropy(state, ProductObservable((c, one)))
        s_a1 = measurement_entropy(state, ProductObservable((a, one)))
        s_ab = measurement_entropy(state, ab)
        worst_pool = max(worst_pool, measurement_entropy(state, pooled) - s_cd)
        worst_ineq = max(worst_ineq, s_c1 - s_cd, s_a1 - s_c1)
        worst_eq = max(worst_eq, abs(s_a1 - s_ab))
    return [
        _record("scheme_monotonicity", samples, worst_pool),
        _record("proof_chain_inequalities", samples, worst_ineq),
        _record("proof_chain_equality", samples, worst_eq),
    ]


def check_convexity_gap(samples: int, seed: int, dims) -> dict:
    """Gap nonnegativity: worst = max(-gap) over sampled (state, c) pairs."""
    rng = np.random.default_rng(seed)
    d1, d2 = check_dims(dims)
    worst = -np.inf
    for _ in range(samples):
        state = random_state((d1, d2), rng)
        c = PointObservable.random_simple(d1, rng)
        worst = max(worst, -convexity_gap(state, c))
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
    for _ in range(samples):
        u = haar_unitary(2, rng)
        rotated = degenerate_orbit(form, u)
        err = np.abs(rotated.reconstruct().amplitudes - bell.amplitudes).max()
        s = measurement_entropy(bell, adapted_pair(rotated, rng))
        worst_rec = max(worst_rec, float(err))
        worst_ent = max(worst_ent, abs(s - target))
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
    d1, d2 = check_dims(dims)
    worst_bound = -np.inf
    worst_att = 0.0
    for _ in range(states):
        state = random_state((d1, d2), rng)
        closed = sq_bipartite(state).value
        for _ in range(observables_per_state):
            obs = ProductObservable.random_simple((d1, d2), rng)
            worst_bound = max(worst_bound, closed - measurement_entropy(state, obs))
        attained = measurement_entropy(state, adapted_pair(schmidt(state), rng))
        worst_att = max(worst_att, abs(attained - closed))
    total = states * observables_per_state
    return [
        _record("oracle_lower_bound", total, worst_bound),
        _record("adapted_attainment", states, worst_att),
    ]


def run_battery(samples: int = 200, seed: int = 1, dims=(3, 3)) -> dict:
    """Run all checks, each against its fixed bound in
    ``DEFAULT_TOLERANCES``; the report passes only if every check does."""
    samples = check_int(samples, "samples")
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
