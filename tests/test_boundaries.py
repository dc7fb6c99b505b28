"""Property tests at the edges of the tolerance table, the size policy and
the config reader, and of the bounds between closed form and search.

The table's values are frozen here rather than imported, so a changed
value in ``sq_toolkit.tolerances`` fails a test instead of silently moving
the boundary it probes. Each edge is probed just inside and just outside.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sq_toolkit.cli import CONFIG_KEYS, main
from sq_toolkit.errors import StateTooLarge
from sq_toolkit.linalg import (
    SIZE_CAP,
    SchmidtForm,
    StateVector,
    check_restarts,
    haar_unitary,
    is_unitary,
    random_state,
    schmidt,
)
from sq_toolkit.observables import (
    PointObservable,
    ProductObservable,
    measurement_entropy,
)
from sq_toolkit.sq import sq_bipartite, sq_search

NORM_ATOL = 1e-12
WEIGHT_CUTOFF = 1e-12
UNITARY_ATOL = 1e-10
DEGENERACY_ATOL = 1e-9

# the largest d1 * d2 whose dense (d1 d2)^2 collision operator fits the cap
PAIR_CAP = math.isqrt(SIZE_CAP)

seeds = st.integers(0, 2**32 - 1)
bipartite_dims = st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 3), (4, 2)])


def unit_vector(dim, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def scaled_state(dims, seed, factor):
    return StateVector(dims, unit_vector(int(np.prod(dims)), seed) * factor)


@settings(max_examples=30)
@given(dims=bipartite_dims, seed=seeds, sign=st.sampled_from([-1.0, 1.0]))
def test_norm_just_inside_tolerance_is_accepted_and_usable(dims, seed, sign):
    state = scaled_state(dims, seed, 1.0 + sign * 0.999 * NORM_ATOL)
    value = measurement_entropy(state, ProductObservable.random_simple(dims, seed + 1))
    assert 0.0 <= value <= math.log(math.prod(dims)) + NORM_ATOL
    form = schmidt(state)
    assert abs(form.weights.sum() - 1.0) <= NORM_ATOL


@settings(max_examples=30)
@given(dims=bipartite_dims, seed=seeds, sign=st.sampled_from([-1.0, 1.0]))
def test_norm_just_outside_tolerance_raises(dims, seed, sign):
    with pytest.raises(ValueError, match="norm"):
        scaled_state(dims, seed, 1.0 + sign * 1.001 * NORM_ATOL)


@settings(max_examples=30)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4)]),
    seed=seeds,
    factor=st.sampled_from([0.9, 1.1]),
)
def test_weight_cutoff_drops_only_weights_at_or_below_it(dims, seed, factor):
    """The smallest of r = min(dims) Schmidt weights sits just off the
    cutoff: the Schmidt form keeps it above and drops it below."""
    rng = np.random.default_rng(seed)
    r = min(dims)
    tiny = factor * WEIGHT_CUTOFF
    weights = np.append(rng.dirichlet(np.ones(r - 1)) * (1.0 - tiny), tiny)
    kept = r if factor > 1.0 else r - 1

    # Schmidt weights, hidden behind random local bases
    left = haar_unitary(dims[0], rng)[:, :r]
    right = haar_unitary(dims[1], rng)[:, :r]
    amps = (left * np.sqrt(weights)) @ right.T
    form = schmidt(StateVector(dims, amps.reshape(-1)))
    assert form.rank == kept
    assert abs(form.weights.sum() - 1.0) <= NORM_ATOL


@settings(max_examples=30)
@given(
    d1=st.integers(2, 4),
    d2=st.integers(1, 3),
    base=st.integers(-5, 5),
    seed=seeds,
    factor=st.sampled_from([0.99, 1.01]),
)
def test_degeneracy_tolerance_pools_or_splits_an_eigenvalue_pair(
    d1, d2, base, seed, factor
):
    """Eigenvalues base and base + gap are one outcome below the tolerance
    and two above it: the measurement entropy is exactly that of the same
    basis with the pair equal, or with the pair 1 apart."""
    gap = factor * DEGENERACY_ATOL
    rest = [base + k for k in range(2, d1)]
    rng = np.random.default_rng(seed)
    basis = haar_unitary(d1, rng)
    state = random_state((d1, d2), rng)

    def entropy_with(pair):
        first = PointObservable(pair + rest, basis)
        obs = ProductObservable((first, PointObservable.computational(d2)))
        return first, measurement_entropy(state, obs)

    pooled = factor < 1.0
    first, value = entropy_with([base, base + gap])
    assert first.is_simple is not pooled
    assert len(first.outcome_classes()) == d1 - pooled
    reference = [base, base] if pooled else [base, base + 1]
    assert value == entropy_with(reference)[1]


@settings(max_examples=30)
@given(
    d=st.integers(2, 5),
    r=st.integers(1, 5),
    seed=seeds,
    sign=st.sampled_from([-1.0, 1.0]),
    factor=st.sampled_from([0.9, 1.1]),
)
def test_unitary_tolerance_bounds_every_orthonormality_check(d, r, seed, sign, factor):
    """One Gram entry off by just under or over the tolerance decides
    ``is_unitary``, ``PointObservable`` and ``SchmidtForm`` alike."""
    r = min(r, d)
    stretch = np.ones(d)
    stretch[0] = np.sqrt(1.0 + sign * factor * UNITARY_ATOL)
    basis = haar_unitary(d, seed) * stretch
    other = haar_unitary(d, seed + 1)[:, :r]
    weights = np.full(r, 1.0 / r)
    if factor < 1.0:
        assert is_unitary(basis)
        PointObservable(np.arange(1.0, d + 1.0), basis)
        SchmidtForm((d, d), weights, basis[:, :r], other)
    else:
        assert not is_unitary(basis)
        with pytest.raises(ValueError, match="orthonormal"):
            PointObservable(np.arange(1.0, d + 1.0), basis)
        with pytest.raises(ValueError, match="orthonormal"):
            SchmidtForm((d, d), weights, basis[:, :r], other)


@pytest.mark.parametrize("dims", [(1, 3), (3, 1, 2), (1, 1)])
@settings(max_examples=3)
@given(seed=seeds)
def test_search_with_one_dimensional_factors_matches_closed_form(dims, seed):
    """A d=1 factor changes nothing: the closed form of the state without
    it is what the search must find."""
    state = random_state(dims, seed)
    squeezed = tuple(d for d in dims if d > 1) or (1,)
    squeezed += (1,) * (2 - len(squeezed))
    closed = sq_bipartite(StateVector(squeezed, state.amplitudes)).value
    assert abs(sq_search(state, restarts=3, seed=seed).value - closed) <= 1e-9


@settings(max_examples=30)
@given(d1=st.integers(2, 5), d2=st.integers(2, 5), seed=seeds)
def test_closed_form_is_at_most_any_simple_product_measurement(d1, d2, seed):
    """No sampled simple product observable beats the Schmidt entropy."""
    rng = np.random.default_rng(seed)
    state = random_state((d1, d2), rng)
    closed = sq_bipartite(state).value
    for _ in range(5):
        obs = ProductObservable.random_simple((d1, d2), rng)
        assert closed <= measurement_entropy(state, obs) + 1e-10


@settings(max_examples=20)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 5), (4, 3)]),
    max_iters=st.integers(1, 3),
    seed=seeds,
)
def test_search_at_any_budget_is_at_least_the_closed_form(dims, max_iters, seed):
    """A search value is the entropy of a measurement it attained, so even
    one restart stopped after a few sweeps stays above the closed form."""
    state = random_state(dims, seed)
    value = sq_search(state, restarts=1, max_iters=max_iters, seed=seed).value
    assert value >= sq_bipartite(state).value - 1e-10


def _pairs_above(low):
    """(d1, d2) pairs of positive integers whose product exceeds ``low``."""
    return st.integers(1, 5000).flatmap(
        lambda d1: st.tuples(st.just(d1), st.integers(low // d1 + 1, 10**7))
    )


def _restarts_above_cap(dims, make_config):
    """Configs whose restart count times ``prod(dims)`` exceeds the cap."""
    low = SIZE_CAP // int(np.prod(dims)) + 1
    return st.integers(low, 10**9).map(lambda k: make_config(dims, k))


def _sq_config(dims, restarts):
    return {
        "method": "search",
        "restarts": restarts,
        "random_state": {"factor_dims": list(dims), "seed": 1},
    }


def _gas_config(dims, restarts):
    return {"n": len(dims), "d": 2, "collisions": 1, "restarts": restarts}


OVER_CAP = [
    # a dense (d1 d2)^2 collision operator
    ("scatter", _pairs_above(PAIR_CAP).map(
        lambda ds: {"d1": ds[0], "d2": ds[1], "samples": 2})),
    ("gas", st.tuples(st.integers(math.isqrt(PAIR_CAP) + 1, 10**5), st.integers(3, 5)).map(
        lambda t: {"d": t[0], "n": t[1], "collisions": 1})),
    # a time grid
    ("scatter", st.integers(SIZE_CAP + 1, 10**12).map(
        lambda s: {"d1": 2, "d2": 2, "samples": s})),
    # a stack of restarts times the state dimension
    ("sq", st.sampled_from([(2, 2), (3, 2), (2, 2, 2)]).flatmap(
        lambda dims: _restarts_above_cap(dims, _sq_config))),
    ("gas", st.sampled_from([(2, 2, 2), (2, 2, 2, 2)]).flatmap(
        lambda dims: _restarts_above_cap(dims, _gas_config))),
    # the verify battery's states
    ("verify", _pairs_above(SIZE_CAP).filter(lambda ds: min(ds) >= 2).map(
        lambda ds: {"dims": list(ds), "samples": 1})),
]


@pytest.mark.parametrize("command, configs", OVER_CAP)
@settings(max_examples=8)
@given(data=st.data())
def test_over_cap_requests_are_domain_errors(command, configs, data):
    """Every array the CLI sizes from a config integer is held to the size
    cap before it is allocated: exit 3 with an ``error:`` line."""
    cfg = data.draw(configs)
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(path)])
    assert code == 3, cfg
    assert stderr.getvalue().startswith("error:"), stderr.getvalue()


# Junk for any config slot: every JSON scalar type, and lists and objects
# where scalars belong. Integers stay small, so a config that is still
# valid asks only for a tiny state, search, battery, time grid or gas.
junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
MISSING = "<missing>"
STATE_SLOTS = [
    ("state",), ("state", "factor_dims"), ("state", "amplitudes"), ("state_file",),
    ("random_state",), ("random_state", "factor_dims"), ("random_state", "seed"),
    # misspelt keys
    ("stat",), ("random_state", "sed"), ("state", "factor_dim"),
]
# The slots each command's config has, () being the whole config, and the
# slots that are never deleted, because their defaults (800 sweeps, 200
# samples, 10 collisions) would start a long run.
SLOTS = {
    "schmidt": [(), *STATE_SLOTS],
    "sq": [
        (), *STATE_SLOTS, ("method",), ("seed",), ("restarts",), ("max_iters",),
        ("tol",), ("restart",), ("max_iter",),
    ],
    "verify": [
        (), ("seed",), ("samples",), ("dims",), ("tolerances",), ("dimz",), ("sample",),
    ],
    "scatter": [
        (), ("d1",), ("d2",), ("samples",), ("seed",), ("coupling",), ("duration",),
        ("interaction_seed",), ("free_energies_1",), ("in1",), ("in1", "factor_dims"),
        ("in2",), ("in2", "amplitudes"), ("d",), ("sample",), ("in1", "dims"),
    ],
    "gas": [
        (), ("n",), ("d",), ("collisions",), ("restarts",), ("seed",), ("coupling",),
        ("duration",), ("interaction_seed",), ("free_energies",), ("colisions",),
        ("restart",),
    ],
}
KEPT = {("max_iters",), ("samples",), ("collisions",)}
SOURCES = {
    "schmidt": ["state", "state_file", "random_state"],
    "sq": ["state", "state_file", "random_state"],
    "verify": [None],
    "scatter": ["seed", "in_states"],
    "gas": [None],
}


def _edits(command):
    slot_and_value = st.sampled_from(SLOTS[command]).flatmap(
        lambda slot: st.tuples(
            st.just(slot), junk if slot in KEPT else junk | st.just(MISSING)
        )
    )
    return st.lists(slot_and_value, min_size=1, max_size=2)


def _state_json(dims) -> dict:
    return {
        "factor_dims": dims,
        "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * (math.prod(dims) - 1),
    }


def _valid_config(command, dims, seed, method, source, state_path) -> dict:
    """A cheap config that ``command`` accepts and that holds only keys it
    reads; a state given by ``source`` = "state_file" goes to ``state_path``."""
    if command == "verify":
        return {"seed": seed, "samples": 1, "dims": [2, 3]}
    if command == "gas":
        return {
            "n": 3, "d": 2, "collisions": 2, "restarts": 1, "seed": seed,
            "coupling": 0.5, "duration": 1.0, "interaction_seed": seed,
            "free_energies": [1.0, 4.0],
        }
    if command == "scatter":
        cfg = {
            "d1": 2, "d2": 3, "samples": 2, "coupling": 0.5, "duration": 1.0,
            "interaction_seed": seed, "free_energies_1": [1.0, 4.0],
        }
        if source == "in_states":
            cfg.update(in1=_state_json([2]), in2=_state_json([3]))
        else:
            cfg["seed"] = seed
        return cfg
    state_path.write_text(json.dumps(_state_json(dims)))
    cfg = {
        source: {
            "state": _state_json(dims),
            "state_file": str(state_path),
            "random_state": {"factor_dims": dims, "seed": seed},
        }[source]
    }
    if command == "sq":
        cfg["method"] = method
        if method == "search":
            cfg.update(seed=seed, restarts=2, max_iters=3)
    return cfg


def _apply(cfg, slot, value):
    """Set the slot to ``value``, or delete it for MISSING; a slot whose
    parent an earlier edit made junk or left out is left alone."""
    if not slot:
        return {} if value == MISSING else value
    parent = cfg
    for key in slot[:-1]:
        parent = parent.get(key) if isinstance(parent, dict) else None
    if isinstance(parent, dict):
        if value == MISSING:
            parent.pop(slot[-1], None)
        else:
            parent[slot[-1]] = value
    return cfg


def _run(command, cfg, tmp) -> int:
    path = Path(tmp) / "config.json"
    path.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        return main([command, "--config", str(path)])


@pytest.mark.parametrize(
    "command, source, method",
    [
        (command, source, method)
        for command in SLOTS
        for source in SOURCES[command]
        for method in (["closed_form", "search"] if command == "sq" else [None])
    ],
)
def test_unedited_configs_exit_0(command, source, method):
    """The configs the junk below starts from hold only keys their command
    reads, and run."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _valid_config(command, [2, 2], 1, method, source, Path(tmp) / "state.json")
        assert set(cfg) <= CONFIG_KEYS[command]
        assert _run(command, cfg, tmp) == 0, cfg


@pytest.mark.parametrize("command", list(SLOTS))
@settings(max_examples=60)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    seed=st.integers(0, 3),
    method=st.sampled_from(["closed_form", "search"]),
    data=st.data(),
)
def test_malformed_configs_end_in_a_documented_exit_code(
    command, dims, seed, method, data
):
    """A valid config with one or two slots made junk, deleted or added
    under a misspelt name (wrong types, missing keys, lists and objects
    where scalars belong) ends in a report (0), a config error (2) or a
    domain error (3); no exception escapes main."""
    source = data.draw(st.sampled_from(SOURCES[command]))
    changes = data.draw(_edits(command))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _valid_config(command, dims, seed, method, source, Path(tmp) / "state.json")
        for slot, value in changes:
            cfg = _apply(cfg, slot, value)
        assert _run(command, cfg, tmp) in (0, 2, 3), cfg


@settings(max_examples=12)
@given(dim=st.integers(1, SIZE_CAP))
def test_restart_stack_at_the_cap_passes_and_one_more_restart_raises(dim):
    """check_restarts holds restarts x dim to the cap: the most restarts
    that fit pass, and one more raises."""
    most = SIZE_CAP // dim
    check_restarts(most, dim)
    with pytest.raises(StateTooLarge, match="restarts"):
        check_restarts(most + 1, dim)
