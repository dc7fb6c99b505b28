"""Finite weighted alternatives, their coarsenings and their entropy.

A scheme is a list of mutually exclusive events with probabilities summing
to one. Coarsening merges events along a partition of the index range;
entropy is Shannon entropy in nats throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPartition
from .tolerances import NORM_ATOL


def shannon_entropy(weights) -> float:
    """-sum w ln w in nats with the 0 ln 0 = 0 convention.

    Clamped at 0: a weight that exceeds 1 by roundoff would otherwise give
    a negative entropy, and -0.0 never reaches a report.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    w = w[w > 0.0]
    return max(0.0, float(-(w * np.log(w)).sum()))


@dataclass(frozen=True)
class Scheme:
    """Events with probabilities. Event labels are opaque."""

    events: tuple
    weights: np.ndarray

    def __post_init__(self):
        events = tuple(self.events)
        w = np.array(self.weights, dtype=float, copy=True).reshape(-1)
        if len(events) == 0:
            raise ValueError("a scheme needs at least one event")
        if len(events) != w.size:
            raise ValueError(f"{len(events)} events but {w.size} weights")
        if w.min() < -NORM_ATOL or w.max() > 1.0 + NORM_ATOL:
            raise ValueError("weights must lie in [0, 1]")
        if abs(w.sum() - 1.0) > NORM_ATOL:
            raise ValueError(f"weights sum to {w.sum()}, not 1 within {NORM_ATOL}")
        w.setflags(write=False)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class Partition:
    """Disjoint index groups covering 0..n-1 for some scheme length n."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        if not groups or any(len(g) == 0 for g in groups):
            raise InvalidPartition("groups must be nonempty")
        flat = [i for g in groups for i in g]
        if len(set(flat)) != len(flat):
            raise InvalidPartition("groups must be disjoint")
        if min(flat) < 0:
            raise InvalidPartition("indices must be nonnegative")
        object.__setattr__(self, "groups", groups)

    def validate_for(self, size: int) -> None:
        """Check the groups cover exactly 0..size-1."""
        flat = sorted(i for g in self.groups for i in g)
        if flat != list(range(size)):
            raise InvalidPartition(
                f"groups must cover 0..{size - 1} exactly, got {flat}"
            )


def coarsen(fine: Scheme, partition: Partition) -> Scheme:
    """Merge events along the partition; each group's weights add."""
    partition.validate_for(len(fine))
    events = tuple(tuple(fine.events[i] for i in g) for g in partition.groups)
    weights = [float(fine.weights[list(g)].sum()) for g in partition.groups]
    return Scheme(events, weights)


def entropy(scheme: Scheme) -> float:
    """Shannon entropy of the scheme's weights, in nats."""
    return shannon_entropy(scheme.weights)
