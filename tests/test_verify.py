"""Tests for the randomized property battery."""

import numpy as np
import pytest

from sq_toolkit.verify import (
    DEFAULT_TOLERANCES,
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
