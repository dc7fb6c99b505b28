"""Shannon entropy of finite weighted alternatives.

A scheme is a list of mutually exclusive events with probabilities summing
to one; entropy is Shannon entropy in nats throughout. Measuring with a
degenerate observable pools the events of each of its outcomes, which can
only lower the entropy; ``verify``'s ``scheme_monotonicity`` check and
acceptance criterion 4 test that on ``observables.measurement_entropy``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def entropy(scheme: Scheme) -> float:
    """Shannon entropy of the scheme's weights, in nats."""
    return shannon_entropy(scheme.weights)
