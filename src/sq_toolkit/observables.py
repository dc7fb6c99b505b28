"""Point-spectrum observables and the entropy their measurement induces.

A PointObservable is a finite Hermitian observable given by its eigenvalues
and an orthonormal eigenbasis; a ProductObservable measures one factor per
particle. Measuring a product observable on a pure state yields a scheme:
one event per joint outcome, weighted by the squared projection norms.
Degenerate eigenvalues are a single outcome, so their amplitudes pool.
``measurement_entropy`` is the Shannon entropy of that scheme, the quantity
sq minimizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import (
    StateVector,
    apply_per_factor,
    as_rng,
    check_int,
    haar_unitary,
    is_unitary,
)
from .schemes import shannon_entropy
from .tolerances import DEGENERACY_ATOL


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

    @classmethod
    def computational(cls, dim) -> "PointObservable":
        """Standard-basis observable with eigenvalues 1..dim."""
        dim = check_int(dim, "dim")
        return cls(np.arange(1.0, dim + 1.0), np.eye(dim))

    @classmethod
    def identity(cls, dim) -> "PointObservable":
        """Trivial observable: every direction answers 1."""
        dim = check_int(dim, "dim")
        return cls(np.ones(dim), np.eye(dim))

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

    @classmethod
    def computational(cls, factor_dims) -> "ProductObservable":
        return cls(tuple(PointObservable.computational(d) for d in factor_dims))

    @classmethod
    def random_simple(cls, factor_dims, seed) -> "ProductObservable":
        rng = as_rng(seed)
        return cls(tuple(PointObservable.random_simple(d, rng) for d in factor_dims))


def _pool_matrix(classes, d):
    """0/1 matrix summing each outcome class, or None if all are singletons."""
    if len(classes) == d:
        return None
    pool = np.zeros((len(classes), d))
    for row, members in enumerate(classes):
        pool[row, members] = 1.0
    return pool


def measurement_entropy(state: StateVector, obs: ProductObservable) -> float:
    """Shannon entropy, in nats, of the scheme that measuring ``obs`` on
    ``state`` induces: one event per joint outcome, weighted by the squared
    projection norms, with the amplitudes of a degenerate outcome pooled."""
    dims = state.factor_dims
    if dims != obs.factor_dims:
        raise DimensionMismatch(f"state factors {dims} vs observable {obs.factor_dims}")
    coeff = apply_per_factor(
        [f.eigenbasis.conj().T for f in obs.factors], state.amplitudes[None], dims
    )
    probs = coeff.real**2 + coeff.imag**2
    pools = [_pool_matrix(f.outcome_classes(), d) for f, d in zip(obs.factors, dims)]
    return shannon_entropy(apply_per_factor(pools, probs, dims))
