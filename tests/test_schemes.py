"""Tests for schemes and their Shannon entropy.

That pooling outcomes never raises the entropy is checked where pooling
happens, on measurements: ``verify``'s ``scheme_monotonicity`` check and
acceptance criterion 4.
"""

import numpy as np
import pytest

from conftest import ENTROPY_2314
from sq_toolkit.schemes import Scheme, entropy, shannon_entropy


def labeled(weights) -> Scheme:
    return Scheme(tuple(range(len(weights))), weights)


def test_entropy_of_certainty_is_zero():
    assert shannon_entropy([1.0]) == 0.0
    assert entropy(labeled([1.0])) == 0.0


def test_entropy_of_uniform_weights():
    for n in range(2, 7):
        assert abs(shannon_entropy([1.0 / n] * n) - np.log(n)) <= 1e-12


def test_entropy_frozen_value():
    assert abs(shannon_entropy([0.2, 0.3, 0.1, 0.4]) - ENTROPY_2314) <= 1e-15


def test_zero_weights_contribute_nothing():
    assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0
    assert abs(shannon_entropy([0.5, 0.5, 0.0]) - np.log(2)) <= 1e-15


def test_entropy_is_clamped_at_zero():
    # a weight just above 1 from roundoff once gave -1.1e-15
    assert shannon_entropy([1.0 + 1e-15]) == 0.0
    assert str(shannon_entropy([1.0])) == "0.0"


def test_scheme_rejects_bad_weights():
    with pytest.raises(ValueError):
        labeled([0.5, 0.6])
    with pytest.raises(ValueError):
        labeled([1.5, -0.5])
    with pytest.raises(ValueError):
        Scheme((), [])


def test_scheme_rejects_event_weight_mismatch():
    with pytest.raises(ValueError):
        Scheme(("a", "b"), [1.0])
