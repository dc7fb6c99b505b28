"""Point-spectrum observables and the schemes their measurement induces.

A PointObservable is a finite Hermitian observable given by its eigenvalues
and an orthonormal eigenbasis; a ProductObservable measures one factor per
particle. Measuring a product observable on a pure state yields a scheme:
one event per joint outcome, weighted by the squared projection norms.
Degenerate eigenvalues are a single outcome, so their amplitudes pool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import StateVector, apply_per_factor, as_rng, haar_unitary, is_unitary
from .schemes import Scheme, shannon_entropy
from .tolerances import DEGENERACY_ATOL, WEIGHT_CUTOFF


@dataclass(frozen=True)
class PointObservable:
    """Observable with pure point spectrum on one factor.

    Parameters
    ----------
    eigenvalues:
        Real outcome values, one per basis column. Values closer than
        ``DEGENERACY_ATOL`` count as the same outcome.
    eigenbasis:
        Square complex matrix whose column k is the eigenvector for
        ``eigenvalues[k]``; columns orthonormal within ``UNITARY_ATOL``.
    """

    eigenvalues: np.ndarray
    eigenbasis: np.ndarray

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float, copy=True).reshape(-1)
        basis = np.array(self.eigenbasis, dtype=np.complex128, copy=True)
        d = vals.size
        if d < 1:
            raise ValueError("at least one eigenvalue required")
        # a NaN compares unequal to everything, so outcome classes need finite values
        if not np.isfinite(vals).all():
            raise ValueError("eigenvalues must be finite")
        if basis.shape != (d, d):
            raise DimensionMismatch(
                f"eigenbasis shape {basis.shape} does not match {d} eigenvalues"
            )
        if not is_unitary(basis):
            raise ValueError("eigenbasis columns are not orthonormal")
        vals.setflags(write=False)
        basis.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenbasis", basis)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def is_simple(self) -> bool:
        """All eigenvalues pairwise separated by more than DEGENERACY_ATOL."""
        return len(self.outcome_classes()) == self.dim

    @property
    def matrix(self) -> np.ndarray:
        return (self.eigenbasis * self.eigenvalues) @ self.eigenbasis.conj().T

    def outcome_classes(self) -> list[list[int]]:
        """Column indices grouped by eigenvalue, one group per outcome.

        Groups are keyed by their first member's value and listed in order
        of first appearance; for a simple observable every group is a
        singleton.
        """
        classes: list[list[int]] = []
        reps: list[float] = []
        for i, v in enumerate(self.eigenvalues):
            for cls, rep in zip(classes, reps):
                if abs(v - rep) <= DEGENERACY_ATOL:
                    cls.append(i)
                    break
            else:
                classes.append([i])
                reps.append(float(v))
        return classes

    def projector(self, indices) -> np.ndarray:
        cols = self.eigenbasis[:, list(indices)]
        return cols @ cols.conj().T

    @classmethod
    def computational(cls, dim, eigenvalues=None) -> "PointObservable":
        """Standard-basis observable, eigenvalues 1..dim unless given."""
        if eigenvalues is None:
            eigenvalues = np.arange(1.0, dim + 1.0)
        return cls(eigenvalues, np.eye(int(dim)))

    @classmethod
    def identity(cls, dim) -> "PointObservable":
        """Trivial observable: every direction answers 1."""
        return cls(np.ones(int(dim)), np.eye(int(dim)))

    @classmethod
    def random_simple(cls, dim, seed) -> "PointObservable":
        """Haar-random eigenbasis with eigenvalues 1..dim."""
        return cls(np.arange(1.0, dim + 1.0), haar_unitary(dim, seed))


@dataclass(frozen=True)
class ProductObservable:
    """One PointObservable per tensor factor, measured jointly."""

    factors: tuple[PointObservable, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("at least one factor required")
        object.__setattr__(self, "factors", factors)

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    @property
    def is_simple(self) -> bool:
        return all(f.is_simple for f in self.factors)

    @property
    def matrix(self) -> np.ndarray:
        out = self.factors[0].matrix
        for f in self.factors[1:]:
            out = np.kron(out, f.matrix)
        return out

    @classmethod
    def computational(cls, factor_dims) -> "ProductObservable":
        return cls(tuple(PointObservable.computational(d) for d in factor_dims))

    @classmethod
    def random_simple(cls, factor_dims, seed) -> "ProductObservable":
        rng = as_rng(seed)
        return cls(tuple(PointObservable.random_simple(d, rng) for d in factor_dims))


def _check_dims(state: StateVector, obs: ProductObservable) -> None:
    if state.factor_dims != obs.factor_dims:
        raise DimensionMismatch(
            f"state factors {state.factor_dims} vs observable {obs.factor_dims}"
        )


def _pool_matrix(classes, d):
    """0/1 matrix summing each outcome class, or None if all are singletons."""
    if len(classes) == d:
        return None
    pool = np.zeros((len(classes), d))
    for row, members in enumerate(classes):
        pool[row, members] = 1.0
    return pool


def _pooled_probabilities(state: StateVector, obs: ProductObservable):
    """Outcome probabilities pooled over degenerate eigenvalues.

    Returns (classes per factor, state amplitudes in the joint eigenbasis,
    probabilities with one axis per factor and one entry per outcome class).
    """
    dims = state.factor_dims
    coeff = apply_per_factor(
        [f.eigenbasis.conj().T for f in obs.factors], state.amplitudes[None], dims
    )
    probs = coeff.real**2 + coeff.imag**2
    classes = [f.outcome_classes() for f in obs.factors]
    pools = [_pool_matrix(cls, d) for cls, d in zip(classes, dims)]
    probs = apply_per_factor(pools, probs, dims)
    return classes, coeff.reshape(dims), probs.reshape([len(c) for c in classes])


def measurement_scheme(state: StateVector, obs: ProductObservable) -> Scheme:
    """Scheme produced by measuring the product observable on the state.

    Events are labeled by tuples of outcome eigenvalues in row-major order
    over the per-factor outcome lists; weights are squared projection norms.
    Zero-weight events are kept so the layout is predictable.
    """
    _check_dims(state, obs)
    classes, _, probs = _pooled_probabilities(state, obs)
    labels = [
        tuple(float(f.eigenvalues[members[0]]) for members in cls)
        for f, cls in zip(obs.factors, classes)
    ]
    events = tuple(itertools.product(*labels))
    return Scheme(events, probs.reshape(-1))


def measurement_entropy(state: StateVector, obs: ProductObservable) -> float:
    """Shannon entropy, in nats, of the measurement scheme."""
    _check_dims(state, obs)
    _, _, probs = _pooled_probabilities(state, obs)
    return shannon_entropy(probs)


def induced_mixture(state: StateVector, obs: ProductObservable):
    """Post-measurement ensemble: (probability, component state) pairs.

    For a simple observable the components are exactly the joint
    eigenvectors; for degenerate factors they are the normalized
    projections of the state onto the outcome blocks. Outcomes with
    probability at or below ``WEIGHT_CUTOFF`` are dropped.
    """
    _check_dims(state, obs)
    classes, coeff, probs = _pooled_probabilities(state, obs)
    simple = obs.is_simple
    bases = [f.eigenbasis for f in obs.factors]
    out = []
    for joint in itertools.product(*(range(len(c)) for c in classes)):
        p = float(probs[joint])
        if p <= WEIGHT_CUTOFF:
            continue
        if simple:
            comp = None
            for f, cls, k in zip(obs.factors, classes, joint):
                col = f.eigenbasis[:, cls[k][0]]
                comp = col if comp is None else np.kron(comp, col)
        else:
            block = np.zeros_like(coeff)
            sel = tuple(np.ix_(*(cls[k] for cls, k in zip(classes, joint))))
            block[sel] = coeff[sel]
            comp = apply_per_factor(bases, block.reshape(1, -1), state.factor_dims)[0]
            comp = comp / np.linalg.norm(comp)
        out.append((p, StateVector(state.factor_dims, comp)))
    return out


def is_finer_op(a: PointObservable, b: PointObservable) -> bool:
    """Whether ``a`` refines ``b``: they commute and every outcome space of
    ``b`` is a union of outcome spaces of ``a``.

    Commutation, and subspace containment on projectors, are checked
    entrywise to ``DEGENERACY_ATOL``.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    ma, mb = a.matrix, b.matrix
    if np.abs(ma @ mb - mb @ ma).max() > DEGENERACY_ATOL:
        return False
    fine_projectors = [a.projector(cls) for cls in a.outcome_classes()]
    for cls in b.outcome_classes():
        q = b.projector(cls)
        covered = np.zeros_like(q)
        for p in fine_projectors:
            if np.abs(q @ p - p).max() <= DEGENERACY_ATOL:
                covered += p
        if np.abs(covered - q).max() > DEGENERACY_ATOL:
            return False
    return True


def refine_to_simple(a: PointObservable, seed) -> PointObservable:
    """Split degenerate outcomes of ``a`` into a simple observable.

    Each degenerate block keeps its span but gets a Haar-random rotation of
    its eigenvectors, and the eigenvalues are relabeled 1..dim so every
    outcome is distinct. A simple input is returned unchanged. The result
    always satisfies ``is_finer_op(result, a)``.
    """
    if a.is_simple:
        return a
    rng = as_rng(seed)
    basis = np.array(a.eigenbasis, copy=True)
    for cls in a.outcome_classes():
        if len(cls) > 1:
            basis[:, cls] = basis[:, cls] @ haar_unitary(len(cls), rng)
    return PointObservable(np.arange(1.0, a.dim + 1.0), basis)


def observable_to_json(obs: PointObservable) -> dict:
    """JSON object with eigenvalues and the eigenbasis as [re, im] pairs,
    flattened column-major (one column, then the next)."""
    flat = obs.eigenbasis.reshape(-1, order="F")
    return {
        "eigenvalues": [float(v) for v in obs.eigenvalues],
        "eigenbasis": [[float(z.real), float(z.imag)] for z in flat],
    }


def observable_from_json(obj) -> PointObservable:
    if not isinstance(obj, dict) or not {"eigenvalues", "eigenbasis"} <= set(obj):
        raise ValueError("observable JSON needs 'eigenvalues' and 'eigenbasis'")
    vals = np.asarray(obj["eigenvalues"], dtype=float)
    d = vals.size
    pairs = np.asarray(obj["eigenbasis"], dtype=float)
    if pairs.shape != (d * d, 2):
        raise ValueError(f"eigenbasis must be {d * d} [re, im] pairs")
    basis = (pairs[:, 0] + 1j * pairs[:, 1]).reshape((d, d), order="F")
    return PointObservable(vals, basis)
