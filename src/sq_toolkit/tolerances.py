"""Every numeric tolerance the toolkit decides with, each value written once.

These decide membership in the set of measurable observables and which
events a measurement has: when a total counts as 1, when a weight counts
as 0, when a basis counts as orthonormal and when two eigenvalues count
as one outcome. This module holds constants only, no imports and no
functions. The search's stop rule (``sq.STOP_GAIN``) and the ``verify``
battery's report bounds (``verify.DEFAULT_TOLERANCES``) judge results
rather than membership, so they live beside the code that uses them.
"""

# Roundoff on a norm or a probability total: a state's norm, a scheme's
# weight range and sum, an entropy outside [0, ln dim], and the descending
# order of sorted weights.
NORM_ATOL = 1e-12

# A Schmidt weight at or below this is dropped. It equals NORM_ATOL
# because a dropped weight is roundoff that the norm check on the kept
# ones must still forgive.
WEIGHT_CUTOFF = NORM_ATOL

# Largest entry of |B^H B - I| for a basis B with orthonormal columns.
UNITARY_ATOL = 1e-10

# Eigenvalues or weights closer than this are equal: one outcome of an
# observable, one degenerate Schmidt block.
DEGENERACY_ATOL = 1e-9
