"""Tests for the randomized property battery."""

import numpy as np
import pytest

from sq_toolkit import linalg, verify
from sq_toolkit.linalg import haar_unitary, random_state, schmidt
from sq_toolkit.observables import (
    PointObservable,
    ProductObservable,
    measurement_entropy,
)
from sq_toolkit.schemes import shannon_entropy
from sq_toolkit.sq import adapted_pair, convexity_gap, degenerate_orbit, sq_bipartite
from sq_toolkit.verify import (
    DEFAULT_TOLERANCES,
    _record,
    bell_state,
    check_convexity_gap,
    check_proof_chain,
    run_battery,
)

CHECK_NAMES = {
    "scheme_monotonicity",
    "proof_chain_inequalities",
    "proof_chain_equality",
    "convexity_gap",
    "degenerate_orbit_entropy",
    "degenerate_orbit_reconstruction",
    "oracle_lower_bound",
    "adapted_attainment",
}


def test_default_battery_passes():
    report = run_battery(samples=60, seed=1)
    assert report["passed"]
    assert {c["name"] for c in report["checks"]} == CHECK_NAMES
    assert [c["name"] for c in report["checks"]] == list(DEFAULT_TOLERANCES)
    for check in report["checks"]:
        assert check["passed"]
        assert check["worst"] <= check["tolerance"]


def test_battery_with_single_sample():
    report = run_battery(samples=1, seed=3)
    assert report["passed"]


def test_battery_deterministic_in_seed():
    a = run_battery(samples=20, seed=5)
    b = run_battery(samples=20, seed=5)
    assert a == b


def test_battery_rejects_zero_samples():
    with pytest.raises(ValueError):
        run_battery(samples=0)


def test_impossible_tolerance_fails_cleanly(monkeypatch):
    monkeypatch.setitem(DEFAULT_TOLERANCES, "proof_chain_equality", 0.0)
    report = run_battery(samples=20, seed=2)
    failed = [c for c in report["checks"] if not c["passed"]]
    # the equality holds only to roundoff, so a zero tolerance must fail
    assert not report["passed"]
    assert [c["name"] for c in failed] == ["proof_chain_equality"]


def test_individual_checks_report_worst_case():
    chain = check_proof_chain(30, 1, (3, 3))
    assert [c["name"] for c in chain] == [
        "scheme_monotonicity", "proof_chain_inequalities", "proof_chain_equality",
    ]
    pooled = chain[0]
    assert pooled["samples"] == 30
    assert pooled["worst"] <= pooled["tolerance"]
    gap = check_convexity_gap(30, 2, (2, 4))
    assert gap["passed"]


def test_bell_state_helper():
    st = bell_state()
    assert st.factor_dims == (2, 2)
    np.testing.assert_allclose(
        st.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-15
    )


def test_pooling_record_pools():
    """Random labels repeat, so pooling lowers the entropy on every seed;
    labels that never repeat would leave the worst change at 0."""
    for seed in range(6):
        assert check_proof_chain(1, seed, (3, 3))[0]["worst"] < 0.0


def reference_battery(samples, seed, dims):
    """The battery as one library call per sample and check: the same draws
    in the same order, scored through the one-sample objects."""
    d1, d2 = dims
    rng = np.random.default_rng(seed + 1)
    labels = np.random.default_rng(seed)
    one = PointObservable.identity(d2)
    worst_pool, worst_ineq, worst_eq = -np.inf, -np.inf, 0.0
    for _ in range(samples):
        state = random_state(dims, rng)
        c = PointObservable.random_simple(d1, rng)
        dd = PointObservable.random_simple(d2, rng)
        ab = adapted_pair(schmidt(state), rng)
        pooled = ProductObservable(tuple(
            PointObservable(labels.integers(0, f.dim, f.dim), f.eigenbasis)
            for f in (c, dd)
        ))
        s_cd = measurement_entropy(state, ProductObservable((c, dd)))
        s_c1 = measurement_entropy(state, ProductObservable((c, one)))
        s_a1 = measurement_entropy(state, ProductObservable((ab.factors[0], one)))
        s_ab = measurement_entropy(state, ab)
        worst_pool = max(worst_pool, measurement_entropy(state, pooled) - s_cd)
        worst_ineq = max(worst_ineq, s_c1 - s_cd, s_a1 - s_c1)
        worst_eq = max(worst_eq, abs(s_a1 - s_ab))
    checks = [
        _record("scheme_monotonicity", samples, worst_pool),
        _record("proof_chain_inequalities", samples, worst_ineq),
        _record("proof_chain_equality", samples, worst_eq),
    ]

    rng = np.random.default_rng(seed + 2)
    worst = -np.inf
    for _ in range(samples):
        state = random_state(dims, rng)
        c = PointObservable.random_simple(d1, rng)
        worst = max(worst, -convexity_gap(state, c))
    checks.append(_record("convexity_gap", samples, worst))

    rng = np.random.default_rng(seed + 3)
    bell = bell_state()
    form = schmidt(bell)
    target = shannon_entropy(form.weights)
    worst_ent, worst_rec = 0.0, 0.0
    for _ in range(samples):
        rotated = degenerate_orbit(form, haar_unitary(2, rng))
        err = np.abs(rotated.reconstruct().amplitudes - bell.amplitudes).max()
        s = measurement_entropy(bell, adapted_pair(rotated, rng))
        worst_rec = max(worst_rec, float(err))
        worst_ent = max(worst_ent, abs(s - target))
    checks.append(_record("degenerate_orbit_entropy", samples, worst_ent))
    checks.append(_record("degenerate_orbit_reconstruction", samples, worst_rec))

    rng = np.random.default_rng(seed + 4)
    states, per = max(1, samples // 20), min(20, samples)
    worst_bound, worst_att = -np.inf, 0.0
    for _ in range(states):
        state = random_state(dims, rng)
        closed = sq_bipartite(state).value
        for _ in range(per):
            obs = ProductObservable.random_simple(dims, rng)
            worst_bound = max(worst_bound, closed - measurement_entropy(state, obs))
        attained = measurement_entropy(state, adapted_pair(schmidt(state), rng))
        worst_att = max(worst_att, abs(attained - closed))
    checks.append(_record("oracle_lower_bound", states * per, worst_bound))
    checks.append(_record("adapted_attainment", states, worst_att))
    return checks


def assert_same_records(expected, got):
    """Same names, order, sample counts, bounds and verdicts; worst values
    away from roundoff agree to 1e-12, and the others pass on both sides."""
    assert [c["name"] for c in got] == [c["name"] for c in expected]
    for ref, new in zip(expected, got):
        for key in ("samples", "tolerance", "passed"):
            assert new[key] == ref[key], (key, ref, new)
        if abs(ref["worst"]) > 1e-6:
            assert abs(new["worst"] - ref["worst"]) <= 1e-12, (ref, new)
        else:
            assert ref["worst"] <= ref["tolerance"] and new["worst"] <= new["tolerance"]


@pytest.mark.parametrize(
    "samples, seed, dims",
    [(20, 1, (3, 3)), (20, 7, (5, 7)), (20, 7, (7, 5)), (60, 2, (8, 8))],
)
def test_battery_scores_the_draws_of_the_one_sample_library(samples, seed, dims):
    expected = reference_battery(samples, seed, dims)
    assert_same_records(expected, run_battery(samples, seed, dims)["checks"])


def test_rank_deficient_states_draw_more_completion_columns(monkeypatch):
    """A state whose smallest Schmidt weights fall at the cutoff has a lower
    rank, so its adapted pair draws more completion columns: every later
    draw must move as it does for one sample at a time."""
    monkeypatch.setattr(linalg, "WEIGHT_CUTOFF", 0.05)
    expected = reference_battery(20, 4, (3, 4))
    got = run_battery(20, 4, (3, 4))["checks"]
    # an adapted pair that completes a cut form at random no longer makes
    # S(A x 1) = S(A x B), so the cut did happen
    assert [c["name"] for c in got if not c["passed"]] == ["proof_chain_equality"]
    assert_same_records(expected, got)


def test_chunked_scoring_gives_the_one_stack_report(monkeypatch):
    whole = run_battery(45, 6, (3, 4))
    monkeypatch.setattr(verify, "SIZE_CAP", 200)
    assert len(list(verify._chunks(45, 3 * 4 + 2 * (9 + 16)))) > 1
    assert run_battery(45, 6, (3, 4)) == whole
