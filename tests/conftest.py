"""Shared state constructors and frozen expected values.

The entropy constants were computed once as plain -sum(w * ln w)
arithmetic in a separate interpreter and are asserted verbatim, so the
library under test never supplies its own expected values.
"""

import tempfile

import numpy as np
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from sq_toolkit.linalg import StateVector

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic. Hypothesis still caches the
# literals it scans from the source; that cache goes to a temporary
# directory removed at exit, so a run leaves nothing in the checkout.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
_hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_hypothesis_home.name)

LN2 = 0.6931471805599453
ENTROPY_2314 = 1.2798542258336676  # weights (0.2, 0.3, 0.1, 0.4)
ENTROPY_73 = 0.6108643020548935  # weights (0.7, 0.3)


def bell_state() -> StateVector:
    amp = np.zeros(4, dtype=complex)
    amp[0] = amp[3] = 1.0 / np.sqrt(2.0)
    return StateVector((2, 2), amp)


def ghz_state() -> StateVector:
    amp = np.zeros(8, dtype=complex)
    amp[0] = amp[7] = 1.0 / np.sqrt(2.0)
    return StateVector((2, 2, 2), amp)


def two_weight_state(w0: float, w1: float) -> StateVector:
    """sqrt(w0) e00 + sqrt(w1) e11, Schmidt weights (w0, w1) by construction."""
    amp = np.zeros(4, dtype=complex)
    amp[0] = np.sqrt(w0)
    amp[3] = np.sqrt(w1)
    return StateVector((2, 2), amp)
