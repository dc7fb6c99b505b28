"""Minimal product-measurement entropy of a pure state.

``sq`` is the smallest Shannon entropy any simple product observable can
induce on a given pure state. For bipartite states it has a closed form:
the entropy of the Schmidt weights, attained by any product observable
whose factor eigenbases extend the two Schmidt bases. For more factors,
or as an independent cross-check, a randomized coordinate descent over
per-factor unitaries estimates it from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, prod

import numpy as np

from .errors import DimensionMismatch, NotBipartite, NotDegenerate
from .linalg import (
    SchmidtForm,
    StateVector,
    apply_per_factor,
    as_rng,
    check_int,
    check_restarts,
    complete_basis,
    haar_unitary,
    is_unitary,
    schmidt,
)
from .observables import PointObservable, ProductObservable, measurement_entropy
from .schemes import shannon_entropy
from .tolerances import DEGENERACY_ATOL, NORM_ATOL

METHOD_CLOSED_FORM = "closed_form"
METHOD_SEARCH = "search"

# Search schedule. Any schedule is fair game as long as the estimator keeps
# matching the bipartite closed form; these values do, with margin, at the
# tolerances used in the tests. Per factor and sweep a few rotations are
# tried: first along the in-place entropy gradient (with momentum, and a
# short ladder of angles so narrow valleys are walked in long strides),
# then random ones that can escape the flats where the gradient is useless.
# The step shrinks when a whole sweep accepts nothing (too coarse for the
# current basin).
STEP_INIT = 0.3
STEP_DECAY = 0.5
STEP_FLOOR = 1e-8
STOP_GAIN = 1e-10
GRADIENT_TRIALS = 2
RANDOM_TRIALS = 2
MOMENTUM = 0.8
ANGLE_LADDER = (4.0, 1.0, 0.25)


@dataclass(frozen=True)
class SqResult:
    """Outcome of an sq computation.

    value is in nats; argmin is the product observable realizing it;
    weights are the outcome probabilities at the argmin, sorted descending.
    method is "closed_form" or "search"; converged tells whether the best
    search restart met its stop rule (always True for the closed form).
    """

    value: float
    argmin: ProductObservable
    method: str
    converged: bool
    weights: np.ndarray

    def __post_init__(self):
        if self.method not in (METHOD_CLOSED_FORM, METHOD_SEARCH):
            raise ValueError(f"unknown method {self.method!r}")
        w = np.array(self.weights, dtype=float, copy=True).reshape(-1)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "value", float(self.value))
        total = prod(self.argmin.factor_dims)
        if not -NORM_ATOL <= self.value <= log(total) + NORM_ATOL:
            raise ValueError(
                f"value {self.value} outside [0, ln {total}] within {NORM_ATOL}"
            )

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "weights": [float(w) for w in self.weights],
            "converged": bool(self.converged),
        }


def adapted_pair(form: SchmidtForm, seed=0) -> ProductObservable:
    """Simple product observable attaining the closed form on ``form``.

    The factor eigenbases extend the left and right normal-form bases to
    full orthonormal bases (random completion, deterministic in the seed);
    eigenvalues are consecutive integers so both factors are simple.
    """
    d1, d2 = form.factor_dims
    rng = as_rng(seed)
    left = complete_basis(form.left_basis, rng)
    right = complete_basis(form.right_basis, rng)
    return ProductObservable(
        (
            PointObservable(np.arange(1.0, d1 + 1.0), left),
            PointObservable(np.arange(1.0, d2 + 1.0), right),
        )
    )


def sq_bipartite(state: StateVector) -> SqResult:
    """Closed-form sq of a bipartite state: entropy of the Schmidt weights."""
    form = schmidt(state)
    return SqResult(
        value=shannon_entropy(form.weights),
        argmin=adapted_pair(form),
        method=METHOD_CLOSED_FORM,
        converged=True,
        weights=form.weights,
    )


def _hermitian_exp(h: np.ndarray, angles: np.ndarray):
    """Rotations exp(i * angle * H / r) for a stack of Hermitian H.

    ``h`` is (..., d, d) and ``angles`` is (..., k), broadcast against the
    stack; r is the spectral radius of each H, so an angle is the largest
    phase its rotation applies. Returns the (..., k, d, d) rotations and r,
    which is 0 where H vanishes (the rotations there are the identity).
    """
    evals, vecs = np.linalg.eigh(h)
    radius = np.abs(evals).max(axis=-1)
    unit = evals / np.where(radius > 0.0, radius, 1.0)[..., None]
    phases = np.exp(1j * angles[..., :, None] * unit[..., None, :])
    vecs = vecs[..., None, :, :]
    return (vecs * phases[..., None, :]) @ vecs.conj().swapaxes(-1, -2), radius


def _entropies(t: np.ndarray) -> np.ndarray:
    """Outcome entropy of each (..., d, rest) coefficient block."""
    p = t.real**2 + t.imag**2
    p = p.reshape(*p.shape[:-2], p.shape[-2] * p.shape[-1])
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def _entropy_gradient(t: np.ndarray) -> np.ndarray:
    """Hermitian Gamma per (..., d, rest) block, the axis being rotated first:
    rotating that axis's basis by exp(i eps H) changes the entropy at rate
    -2 tr(H Gamma), so +Gamma is steepest descent."""
    p = t.real**2 + t.imag**2
    m = t @ ((1.0 + np.log(np.where(p > 0.0, p, 1.0))) * t.conj()).swapaxes(-1, -2)
    return (m - m.conj().swapaxes(-1, -2)) / 2j


def _lockstep(amplitudes, dims, rngs, max_iters):
    """All restarts of the greedy coordinate descent over per-factor bases.

    Each restart starts from Haar-random factor bases drawn from its own
    generator. Per sweep and factor, gradient proposals (momentum-mixed,
    several angles, the best improving one accepted) come before random
    perturbations tried in both senses; every acceptance requires strict
    decrease, ties going to the first candidate. A restart converges once
    its step sits at ``STEP_FLOOR`` and a sweep improves by less than
    ``STOP_GAIN``.

    The restarts still running descend together: their coefficients are one
    (A, total) stack, and each attempt scores all candidates of all of them
    with one batched matmul and one vectorized entropy. Every operation acts
    on each restart's slice alone, so a restart's path does not depend on
    which others run beside it. Returns the final (restarts, d, d) bases per
    factor and the converged flags.
    """
    count = len(rngs)
    starts = [[haar_unitary(d, rng) for d in dims] for rng in rngs]
    bases = [np.stack(per_axis) for per_axis in zip(*starts)]
    flat = apply_per_factor(
        [u.conj().swapaxes(-1, -2) for u in bases],
        np.broadcast_to(amplitudes, (count, amplitudes.size)), dims,
    )
    value = _entropies(flat[:, None, :])
    step = np.full(count, STEP_INIT)
    momentum = [np.zeros((count, d, d), dtype=np.complex128) for d in dims]
    ids = np.arange(count)
    rngs = list(rngs)
    final_bases = [np.empty_like(b) for b in bases]
    converged = np.zeros(count, dtype=bool)
    # per sweep and rotated factor: real then imaginary parts of the random
    # trial generators, in the order each restart's generator yields them
    noise_size = sum(2 * RANDOM_TRIALS * d * d for d in dims if d > 1)
    ladder = np.array(ANGLE_LADDER)
    for sweep in range(1, max_iters + 1):
        active = len(ids)
        sweep_start = value.copy()
        accepts = np.zeros(active, dtype=int)
        everyone = np.arange(active)
        noise = np.stack([rng.standard_normal(noise_size) for rng in rngs])
        offset = 0
        for axis, d in enumerate(dims):
            t = flat.reshape(active, d, -1)
            if d > 1:
                size = 2 * RANDOM_TRIALS * d * d
                g = noise[:, offset:offset + size].reshape(active, 2, RANDOM_TRIALS, d, d)
                offset += size
                g = g[:, 0] + 1j * g[:, 1]
                # each random rotation and its inverse
                random_rots, _ = _hermitian_exp(
                    (g + g.conj().swapaxes(-1, -2)) / 2.0,
                    step[:, None, None] * np.array([-1.0, 1.0]),
                )

                def attempt(rows, candidates):
                    """Score the candidates (basis updates) of the given
                    restarts; accept each one's best if it strictly improves."""
                    cand_t = candidates.conj().swapaxes(-1, -2) @ t[rows, None]
                    values = _entropies(cand_t)
                    pick = values.argmin(axis=1)
                    best = values[np.arange(len(rows)), pick]
                    better = best < value[rows]
                    won, pick = rows[better], pick[better]
                    t[won] = cand_t[better, pick]
                    value[won] = best[better]
                    bases[axis][won] = bases[axis][won] @ candidates[better, pick]
                    accepts[won] += 1
                    return better

                gradient_open = np.ones(active, dtype=bool)
                for _ in range(GRADIENT_TRIALS):
                    # a rejected gradient attempt would just repeat itself
                    rows = np.flatnonzero(gradient_open)
                    gamma = _entropy_gradient(t[rows])
                    scale = np.abs(np.linalg.eigvalsh(gamma)).max(axis=-1)
                    steep = scale > 0.0
                    rows = rows[steep]
                    momentum[axis][rows] = (
                        MOMENTUM * momentum[axis][rows]
                        + gamma[steep] / scale[steep, None, None]
                    )
                    candidates, radius = _hermitian_exp(
                        momentum[axis][rows], step[rows, None] * ladder
                    )
                    moving = radius > 0.0
                    rows = rows[moving]
                    failed = rows[~attempt(rows, candidates[moving])]
                    momentum[axis][failed] = 0.0
                    gradient_open[failed] = False
                for trial in range(RANDOM_TRIALS):
                    attempt(everyone, random_rots[:, trial])
            flat = t.swapaxes(1, 2).reshape(active, -1)
        done = (step <= STEP_FLOOR) & (sweep_start - value < STOP_GAIN)
        converged[ids[done]] = True
        stalled = ~done & (accepts == 0)
        step[stalled] = np.maximum(step[stalled] * STEP_DECAY, STEP_FLOOR)
        for m in momentum:
            m[stalled] = 0.0
        if sweep == max_iters:
            done[:] = True
        if done.any():
            for final, b in zip(final_bases, bases):
                final[ids[done]] = b[done]
            keep = ~done
            if not keep.any():
                break
            ids, flat, value, step = ids[keep], flat[keep], value[keep], step[keep]
            bases = [b[keep] for b in bases]
            momentum = [m[keep] for m in momentum]
            rngs = [rng for rng, k in zip(rngs, keep) if k]
    return final_bases, converged


def sq_search(
    state: StateVector, restarts: int = 10, max_iters: int = 800, seed: int = 0
) -> SqResult:
    """Upper-bound estimate of sq by randomized coordinate descent.

    Works for any factor count. Every restart draws its own stream from
    (seed, restart index), and all restarts run in lockstep without
    influencing each other, so adding restarts never raises the result.
    Each restart's value is the entropy of its final weights; ties go to
    the earliest restart. A restart runs at most ``max_iters`` sweeps; it
    converges once its step is at ``STEP_FLOOR`` and a sweep gains less
    than ``STOP_GAIN``. On bipartite states the estimate matches
    ``sq_bipartite`` to the test tolerances. ``restarts`` goes through
    ``check_restarts``, which caps the (restarts, dim) coefficient stack;
    it, ``max_iters`` and ``seed`` must be integers.
    """
    restarts = check_restarts(restarts, state.dim)
    max_iters = check_int(max_iters, "max_iters")
    seed = check_int(seed, "seed")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    dims = state.factor_dims
    rngs = [np.random.default_rng([seed, idx]) for idx in range(restarts)]
    bases, converged = _lockstep(state.amplitudes, dims, rngs, max_iters)
    coeff = apply_per_factor(
        [u.conj().swapaxes(-1, -2) for u in bases],
        np.broadcast_to(state.amplitudes, (restarts, state.dim)), dims,
    )
    weights = np.sort(coeff.real**2 + coeff.imag**2, axis=1)[:, ::-1]
    values = [shannon_entropy(w) for w in weights]
    best = int(np.argmin(values))
    factors = tuple(
        PointObservable(np.arange(1.0, d + 1.0), u[best]) for d, u in zip(dims, bases)
    )
    return SqResult(
        value=values[best],
        argmin=ProductObservable(factors),
        method=METHOD_SEARCH,
        converged=bool(converged[best]),
        weights=weights[best],
    )


def degenerate_orbit(form: SchmidtForm, u, start: int = 0) -> SchmidtForm:
    """Alternative normal form from rotating a degenerate weight block.

    ``u`` is a k x k unitary acting on weights start..start+k-1, which must
    be equal within ``DEGENERACY_ATOL``; the left block is rotated by u and
    the right block by its complex conjugate, so the represented state is
    unchanged.
    """
    return SchmidtForm(form.factor_dims, form.weights, *orbit_bases(form, u, start))


def orbit_bases(form: SchmidtForm, u, start: int = 0):
    """``degenerate_orbit``'s left and right bases, with its checks, for
    one k x k unitary or for each of a (..., k, k) stack: bases of shape
    (..., d, rank)."""
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise DimensionMismatch("u must be square")
    k = u.shape[-1]
    if not 0 <= start <= form.rank - k:
        raise DimensionMismatch(
            f"block [{start}, {start + k}) outside rank {form.rank}"
        )
    if not is_unitary(u):
        raise ValueError("u is not unitary")
    block = slice(start, start + k)
    w = form.weights[block]
    if w.max() - w.min() > DEGENERACY_ATOL:
        raise NotDegenerate(
            f"weights {w} differ by more than {DEGENERACY_ATOL}"
        )
    stack = u.shape[:-2]
    left = np.broadcast_to(form.left_basis, stack + form.left_basis.shape).copy()
    right = np.broadcast_to(form.right_basis, stack + form.right_basis.shape).copy()
    left[..., block] = left[..., block] @ u
    right[..., block] = right[..., block] @ u.conj()
    return left, right


def convexity_gap(state: StateVector, c: PointObservable) -> float:
    """Entropy excess of measuring (c x identity) over the closed form.

    ``c`` must be simple on the first factor. The gap is nonnegative up to
    roundoff for every such c; it vanishes when c extends the left normal
    basis.
    """
    if state.num_factors != 2:
        raise NotBipartite(f"state has {state.num_factors} factors, need 2")
    d1, d2 = state.factor_dims
    if c.dim != d1:
        raise DimensionMismatch(f"observable dim {c.dim}, first factor {d1}")
    if not c.is_simple:
        raise ValueError("c must be simple")
    obs = ProductObservable((c, PointObservable.identity(d2)))
    return measurement_entropy(state, obs) - shannon_entropy(schmidt(state).weights)
