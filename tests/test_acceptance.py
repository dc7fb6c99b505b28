"""Acceptance gate: one test per headline criterion.

Each test prints a single PASS/FAIL line with the measured worst case and
wall time (visible with -rA or on failure; pytest -v shows the per-test
verdicts either way). Tolerances are asserted exactly as stated; the
quoted time budgets are expectations, reported but not enforced, so a
slow machine cannot turn a correct build red.
"""

import time

import numpy as np

from conftest import LN2, bell_state
from sq_toolkit.linalg import (
    haar_unitary,
    random_product_state,
    random_state,
    schmidt,
)
from sq_toolkit.observables import (
    PointObservable,
    ProductObservable,
    measurement_entropy,
)
from sq_toolkit.scattering import CollisionModel, collide, gas_run
from sq_toolkit.sq import adapted_pair, convexity_gap, degenerate_orbit, sq_bipartite, sq_search


def gate(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_sampled_observables_never_beat_closed_form():
    t0 = time.time()
    rng = np.random.default_rng(100)
    worst_margin = np.inf
    worst_attain = 0.0
    for _ in range(50):
        dims = (int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        st = random_state(dims, rng)
        closed = sq_bipartite(st).value
        for _ in range(200):
            obs = ProductObservable.random_simple(dims, rng)
            worst_margin = min(worst_margin, measurement_entropy(st, obs) - closed)
        pair = adapted_pair(schmidt(st), seed=rng)
        worst_attain = max(worst_attain, abs(measurement_entropy(st, pair) - closed))
    ok = worst_margin >= -1e-10 and worst_attain <= 1e-12
    gate(
        "criterion 1 (closed form is a lower bound, attained)",
        ok,
        f"min margin {worst_margin:.3e} (>= -1e-10), "
        f"worst attainment {worst_attain:.3e} (<= 1e-12), "
        f"{time.time() - t0:.1f}s of 60s",
    )


def test_criterion_2_proof_chain():
    t0 = time.time()
    rng = np.random.default_rng(200)
    worst_ineq = 0.0
    worst_eq = 0.0
    for _ in range(1000):
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        st = random_state(dims, rng)
        c = PointObservable.random_simple(dims[0], rng)
        d = PointObservable.random_simple(dims[1], rng)
        one = PointObservable.identity(dims[1])
        pair = adapted_pair(schmidt(st), seed=rng)
        s_cd = measurement_entropy(st, ProductObservable((c, d)))
        s_c1 = measurement_entropy(st, ProductObservable((c, one)))
        s_a1 = measurement_entropy(st, ProductObservable((pair.factors[0], one)))
        s_ab = measurement_entropy(st, pair)
        worst_ineq = max(worst_ineq, s_c1 - s_cd, s_a1 - s_c1)
        worst_eq = max(worst_eq, abs(s_a1 - s_ab))
    ok = worst_ineq <= 1e-10 and worst_eq <= 1e-12
    gate(
        "criterion 2 (dropping a factor, then adapting, never raises entropy)",
        ok,
        f"worst inequality violation {worst_ineq:.3e} (<= 1e-10), "
        f"worst equality deviation {worst_eq:.3e} (<= 1e-12), "
        f"{time.time() - t0:.1f}s of 30s",
    )


def test_criterion_3_convexity_gap_nonnegative():
    t0 = time.time()
    rng = np.random.default_rng(300)
    worst = np.inf
    for _ in range(1000):
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        st = random_state(dims, rng)
        c = PointObservable.random_simple(dims[0], rng)
        worst = min(worst, convexity_gap(st, c))
    ok = worst >= -1e-10
    gate(
        "criterion 3 (convexity gap nonnegative)",
        ok,
        f"min gap {worst:.3e} (>= -1e-10), {time.time() - t0:.1f}s of 10s",
    )


def test_criterion_4_coarsening_monotonicity():
    """Pooling outcomes never raises entropy: each state is measured with
    one pair of Haar eigenbases, first with simple eigenvalues and then
    with random repeated labels, whose equal values pool outcomes."""
    t0 = time.time()
    rng = np.random.default_rng(400)
    worst = -np.inf
    pooled_samples = 0
    largest_pooled = -np.inf
    for _ in range(1000):
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        st = random_state(dims, rng)
        bases = [haar_unitary(d, rng) for d in dims]
        simple = ProductObservable(
            tuple(PointObservable(np.arange(d), u) for d, u in zip(dims, bases))
        )
        pooled = ProductObservable(
            tuple(PointObservable(rng.integers(0, d, d), u) for d, u in zip(dims, bases))
        )
        change = measurement_entropy(st, pooled) - measurement_entropy(st, simple)
        worst = max(worst, change)
        if not pooled.is_simple:
            pooled_samples += 1
            largest_pooled = max(largest_pooled, change)
    ok = worst <= 1e-12
    gate(
        "criterion 4 (pooling outcomes never increases entropy)",
        ok,
        f"worst increase {worst:.3e} (<= 1e-12), "
        f"{pooled_samples}/1000 samples pooled an outcome, "
        f"largest pooled change {largest_pooled:.3g}, "
        f"{time.time() - t0:.2f}s of 1s",
    )


def test_criterion_5_product_states_have_zero_sq():
    t0 = time.time()
    rng = np.random.default_rng(500)
    worst_closed = 0.0
    worst_search = 0.0
    for k in range(100):
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        st = random_product_state(dims, rng)
        worst_closed = max(worst_closed, sq_bipartite(st).value)
        worst_search = max(
            worst_search, sq_search(st, restarts=10, seed=k).value
        )
    ok = worst_closed <= 1e-12 and worst_search <= 1e-6
    gate(
        "criterion 5 (product in-states carry no entropy)",
        ok,
        f"worst closed form {worst_closed:.3e} (<= 1e-12), "
        f"worst search {worst_search:.3e} (<= 1e-6), "
        f"{time.time() - t0:.1f}s of 30s",
    )


def test_criterion_6_degenerate_orbit_keeps_the_minimum():
    t0 = time.time()
    rng = np.random.default_rng(600)
    st = bell_state()
    form = schmidt(st)
    worst_value = 0.0
    worst_reconstruction = 0.0
    for _ in range(100):
        rotated = degenerate_orbit(form, haar_unitary(2, rng))
        err = np.abs(rotated.reconstruct().amplitudes - st.amplitudes).max()
        worst_reconstruction = max(worst_reconstruction, float(err))
        pair = adapted_pair(rotated, seed=rng)
        value = measurement_entropy(st, pair)
        worst_value = max(worst_value, abs(value - LN2))
    ok = worst_value <= 1e-12 and worst_reconstruction <= 1e-10
    gate(
        "criterion 6 (every rotated normal form still attains ln 2)",
        ok,
        f"worst |value - ln 2| {worst_value:.3e} (<= 1e-12), "
        f"worst reconstruction {worst_reconstruction:.3e} (<= 1e-10), "
        f"{time.time() - t0:.1f}s of 5s",
    )


def test_criterion_7_search_matches_closed_form():
    t0 = time.time()
    rng = np.random.default_rng(700)
    worst = 0.0
    for k in range(20):
        st = random_state((4, 4), rng)
        gap = abs(sq_search(st, restarts=10, seed=k).value - sq_bipartite(st).value)
        worst = max(worst, gap)
    ok = worst <= 1e-6
    gate(
        "criterion 7 (search agrees with the closed form on 4x4)",
        ok,
        f"worst |search - closed| {worst:.3e} (<= 1e-6), "
        f"{time.time() - t0:.1f}s of 60s",
    )


def test_criterion_8_collisions_produce_entropy():
    t0 = time.time()
    produced = 0
    worst_free = 0.0
    for k in range(100):
        in1 = random_state((4,), k + 1000)
        in2 = random_state((4,), k + 2000)
        coupled = CollisionModel.box(4, 4, coupling=0.5, interaction_seed=k)
        if sq_bipartite(collide(coupled, in1, in2)).value > 0.01:
            produced += 1
        free = CollisionModel.box(4, 4, coupling=0.0, interaction_seed=k)
        worst_free = max(worst_free, sq_bipartite(collide(free, in1, in2)).value)
    ok = produced >= 95 and worst_free <= 1e-9
    gate(
        "criterion 8 (generic collisions entangle, free ones do not)",
        ok,
        f"{produced}/100 runs above 0.01 (need >= 95), "
        f"worst free-model value {worst_free:.3e} (<= 1e-9), "
        f"{time.time() - t0:.1f}s of 30s",
    )


def test_criterion_9_gas_builds_up_entropy():
    t0 = time.time()
    coupled = CollisionModel.box(2, 2, coupling=0.5, interaction_seed=3)
    traj = gas_run(3, 2, 20, coupled, seed=11)
    free = CollisionModel.box(2, 2, coupling=0.0, interaction_seed=3)
    control = gas_run(3, 2, 20, free, seed=11)
    final = traj.sq_estimates[-1]
    worst_control = max(control.sq_estimates)
    ok = final > 0.0 and worst_control <= 1e-6
    gate(
        "criterion 9 (gas entropy grows under generic coupling)",
        ok,
        f"final estimate {final:.4f} (> 0), "
        f"free-coupling max {worst_control:.3e} (<= 1e-6), "
        f"{time.time() - t0:.1f}s of 60s",
    )
