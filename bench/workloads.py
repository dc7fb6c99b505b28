"""The three benchmark workloads: inputs from a seed, the op, and its check.

Importing this module imports numpy and sq_toolkit, so it belongs inside the
set-up time. Library functions are always reached through their module
(``sq.sq_search``, never a name imported from it), so the tracer's
wrappers see every call the benchmark makes.

Each workload is a fixed list of inputs, sized from the run length at a
nominal cost per op, and one serial caller that issues the next op only
when the previous one has returned (a closed loop with one client).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from sq_toolkit import cli, linalg, scattering, sq

# Criterion 7 of the acceptance gate: search and closed form agree to 1e-6.
SEARCH_ATOL = 1e-6
GAS_ATOL = 1e-9

SEARCH_DIMS = (4, 4)
# Haar states in the pool the spectra are picked from by quantile. The pool
# seed is fixed so every run times the same spectra; --seed moves the bases.
SEARCH_POOL = 4096
SPECTRUM_SEED = 0

GAS_N = 9
GAS_D = 2
GAS_COLLISIONS = 2
GAS_COUPLING = 0.5

VERIFY_SAMPLES = 20
VERIFY_DIM_RANGE = (3, 8)


def op_count(seconds: float, nominal_op_s: float) -> int:
    """Ops that fill ``seconds`` at the nominal cost measured at the baseline."""
    return max(1, round(seconds / nominal_op_s))


def slowest_curvature(weights: np.ndarray) -> np.ndarray:
    """Harmonic sum of the entropy's curvatures at the Schmidt minimum.

    Rotating Schmidt vectors i and j into each other raises the entropy at
    second order by (w_i - w_j)(ln w_i - ln w_j); the harmonic sum over all
    pairs is dominated by the flattest plane. Rows of ``weights`` are
    Schmidt weight vectors; a repeated weight gives 0.
    """
    logs = np.log(np.maximum(weights, np.finfo(float).tiny))
    i, j = np.triu_indices(weights.shape[1], 1)
    curv = (weights[:, i] - weights[:, j]) * (logs[:, i] - logs[:, j])
    with np.errstate(divide="ignore"):
        return 1.0 / (1.0 / curv).sum(axis=1)


def representative_spectra(count: int) -> np.ndarray:
    """Schmidt weights of one Haar state per curvature stratum, easiest first.

    Row 0 is the pool's state of largest curvature; the other count - 1
    rows sit at the middle of count - 1 equally likely strata.
    """
    rng = np.random.default_rng(SPECTRUM_SEED)
    dim = math.prod(SEARCH_DIMS)
    amps = rng.standard_normal((SEARCH_POOL, dim)) + 1j * rng.standard_normal(
        (SEARCH_POOL, dim)
    )
    amps = amps.reshape(SEARCH_POOL, *SEARCH_DIMS)
    weights = np.linalg.svd(amps, compute_uv=False) ** 2
    weights /= weights.sum(axis=1, keepdims=True)
    easiest_first = np.argsort(-slowest_curvature(weights), kind="stable")
    strata = count - 1
    middles = ((np.arange(strata) + 0.5) * SEARCH_POOL / strata).astype(int)
    return weights[easiest_first[np.concatenate(([0], middles))]]


def haar(rng, dim: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian, phases fixed by R."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


class Workload:
    """Inputs made from a seed, the timed op, and the check of its result."""

    name = ""
    nominal_op_s = 1.0

    def op(self, x):
        raise NotImplementedError

    def check(self, x, result) -> bool:
        raise NotImplementedError

    def warm_up(self) -> bool:
        """The one untimed op of set-up, on an input no timed op uses."""
        return self.check(self.warm_up_input, self.op(self.warm_up_input))

    def accuracy(self, results) -> dict:
        """Accuracy figures over the results of the timed ops, name -> (value, unit)."""
        return {}


class SearchWorkload(Workload):
    """search_4x4: one default ``sq.sq_search`` per distinct random 4x4 state.

    Search time is set by the state's Schmidt spectrum. One search took
    1.3 s to 14 s on two cores over 40 Haar states, and its logarithm
    follows ``slowest_curvature`` with correlation -0.95. Haar states from
    one curvature stratum still took 6.5 s to 12.1 s, while one spectrum
    under five Haar-random local bases varied by 6 to 12 %. So the
    spectra are fixed: the Schmidt weights of the Haar state at the middle
    of each of ``count`` equally likely curvature strata of one pool drawn
    from ``SPECTRUM_SEED``. The seed draws Haar-random local unitaries
    U x V for each. Every seed then runs the same mix of easy and hard
    spectra, the slow tail included.
    """

    name = "search_4x4"
    nominal_op_s = 3.0

    def __init__(self, seed: int, count: int, workdir: Path):
        spectra = representative_spectra(count + 1)
        rng = np.random.default_rng(seed)
        d1, d2 = SEARCH_DIMS
        states = [
            linalg.StateVector(
                SEARCH_DIMS,
                ((haar(rng, d1) * np.sqrt(w)) @ haar(rng, d2).T).reshape(-1),
            )
            for w in spectra
        ]
        # the easiest spectrum, off the grid the timed ops use, for the warm-up
        self.warm_up_input = states[0]
        self.inputs = states[1:]

    def op(self, state):
        return sq.sq_search(state)

    def check(self, state, result) -> bool:
        return abs(result.value - sq.sq_bipartite(state).value) <= SEARCH_ATOL


class GasWorkload(Workload):
    """gas_n9: one ``scattering.gas_run`` (n=9, d=2, box model) per distinct seed."""

    name = "gas_n9"
    nominal_op_s = 6.0

    def __init__(self, seed: int, count: int, workdir: Path):
        rng = np.random.default_rng(seed)
        seeds = [int(s) for s in rng.choice(2**31, size=count + 1, replace=False)]
        self.warm_up_input = seeds.pop()
        self.inputs = seeds
        self.model = scattering.CollisionModel.box(GAS_D, GAS_D, coupling=GAS_COUPLING)
        self.ceiling = GAS_N * math.log(GAS_D)

    def op(self, seed, collisions=GAS_COLLISIONS):
        return scattering.gas_run(GAS_N, GAS_D, collisions, self.model, seed)

    def warm_up(self) -> bool:
        # no collisions: the propagator and one search on the product state
        seed = self.warm_up_input
        return self.check(seed, self.op(seed, collisions=0))

    def check(self, seed, traj) -> bool:
        """Each row lies between its pair-versus-rest Schmidt entropy, a
        certified lower bound on sq, and ln d^n."""
        return all(
            pair - GAS_ATOL <= est <= self.ceiling + GAS_ATOL
            for est, pair in zip(traj.sq_estimates, traj.pair_entropies)
        )

    def accuracy(self, results) -> dict:
        after_start = [v for traj in results for v in traj.sq_estimates[1:]]
        return {"sq_mean_nats": (float(np.mean(after_start)), "nats")}


class VerifyWorkload(Workload):
    """verify_battery: one in-process ``cli.main(["verify", ...])`` per op.

    Dims (d1, d2) are drawn per op from 3..8. One config file per dims pair
    is written while the inputs are made; each op writes its report to one
    scratch path, which the check reads and removes.
    """

    name = "verify_battery"
    nominal_op_s = 0.045

    def __init__(self, seed: int, count: int, workdir: Path):
        rng = np.random.default_rng(seed)
        low, high = VERIFY_DIM_RANGE
        dims = rng.integers(low, high + 1, size=(count + 1, 2))
        # run_battery seeds its checks with seed .. seed + 4
        first = int(rng.integers(0, 2**30))
        self.out = workdir / "report.json"
        self.inputs = []
        for k, (d1, d2) in enumerate(dims):
            config = workdir / f"verify-{d1}x{d2}.json"
            if not config.exists():
                config.write_text(
                    json.dumps({"samples": VERIFY_SAMPLES, "dims": [int(d1), int(d2)]})
                )
            self.inputs.append(
                ["verify", "--config", str(config), "--seed", str(first + 8 * k),
                 "--out", str(self.out)]
            )
        self.warm_up_input = self.inputs.pop()

    def op(self, argv):
        return cli.main(argv)

    def check(self, argv, code) -> bool:
        try:
            report = json.loads(self.out.read_text())
        except (OSError, ValueError):
            return False
        self.out.unlink()
        return code == 0 and report.get("passed") is True


WORKLOADS = {w.name: w for w in (SearchWorkload, GasWorkload, VerifyWorkload)}


def make(name: str, seed: int, seconds: float, workdir: Path) -> Workload:
    """The named workload with inputs generated from ``seed``."""
    cls = WORKLOADS[name]
    return cls(seed, op_count(seconds, cls.nominal_op_s), workdir)
