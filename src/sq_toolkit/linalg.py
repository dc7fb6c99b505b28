"""Dense linear algebra for pure states on small tensor-product spaces.

States are flat complex amplitude vectors tagged with an explicit tuple of
factor dimensions; the flat index runs row-major over the factor indices,
matching ``np.kron`` and ``reshape``. Arrays held by the value types here are
copied on construction and frozen, so instances can be shared freely.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import DimensionMismatch, NotBipartite, StateTooLarge
from .tolerances import NORM_ATOL, UNITARY_ATOL, WEIGHT_CUTOFF

# Size policy for every state the package builds: the joint dimension is
# capped, and so is the factor count, because a state's tensor view and the
# gas's pair collisions need one numpy axis per factor (numpy 1.x allows 32).
# The same cap bounds the other arrays an input sizes: the search's stack of
# restarts, a collision operator and a time grid.
SIZE_CAP = 2**20
MAX_FACTORS = 32


def check_int(value, name: str) -> int:
    """``value`` as an int, if it is an integer: Python and NumPy integers
    pass; floats, strings and bools raise ValueError rather than being
    truncated or read as 0 and 1."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_dims(factor_dims) -> tuple[int, ...]:
    """Factor dimensions as a tuple of ints, checked against the size policy.

    Every dimension must be an integer >= 1 (ValueError otherwise). More
    than ``MAX_FACTORS`` factors, or a joint dimension above ``SIZE_CAP``,
    raise StateTooLarge. The input is read lazily and the check stops at the
    first violation, so an iterator of any length is safe to pass.
    """
    dims = []
    total = 1
    for d in factor_dims:
        d = check_int(d, "a factor dimension")
        if d < 1:
            raise ValueError("factor dimensions must be positive integers")
        dims.append(d)
        total *= d
        if len(dims) > MAX_FACTORS:
            raise StateTooLarge(f"more than {MAX_FACTORS} factors")
        if total > SIZE_CAP:
            raise StateTooLarge(f"joint dimension exceeds cap {SIZE_CAP}")
    if not dims:
        raise ValueError("factor dimensions must be positive integers")
    return tuple(dims)


def check_restarts(restarts, dim: int) -> int:
    """A search's restart count as an int, checked against the size policy.

    ``restarts`` must be an integer >= 1 (ValueError), and the
    (restarts, dim) stack of coefficients a search holds must fit in
    ``SIZE_CAP`` entries (StateTooLarge).
    """
    restarts = check_int(restarts, "restarts")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if restarts * dim > SIZE_CAP:
        raise StateTooLarge(
            f"restarts x dimension = {restarts} x {dim} exceeds cap {SIZE_CAP}"
        )
    return restarts


def as_rng(seed):
    """Coerce an integer seed, or pass through an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of one or more finite-dimensional particles.

    Parameters
    ----------
    factor_dims:
        Dimension of each tensor factor, all >= 1, within the size policy
        of ``check_dims``.
    amplitudes:
        Complex vector of length ``prod(factor_dims)`` with unit norm
        (within ``NORM_ATOL``), flat row-major over the factor indices.
        The stored copy is divided by its norm.
    """

    factor_dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = check_dims(self.factor_dims)
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True).reshape(-1)
        if amps.size != prod(dims):
            raise DimensionMismatch(
                f"got {amps.size} amplitudes for factor dims {dims}"
            )
        norm = float(np.linalg.norm(amps))
        # a NaN or infinite amplitude makes the norm non-finite and fails here
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ValueError(f"state norm {norm} is not 1 within {NORM_ATOL}")
        # store the unit vector, so later checks on the squared norm agree
        if norm != 1.0:
            amps /= norm
        amps.setflags(write=False)
        object.__setattr__(self, "factor_dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_factors(self) -> int:
        return len(self.factor_dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def as_tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per factor (read-only)."""
        return self.amplitudes.reshape(self.factor_dims)


def unit_rows(amps) -> np.ndarray:
    """``StateVector``'s check on every row of an (S, total) amplitude
    stack: each row's norm must be 1 within ``NORM_ATOL``, and the rows
    are returned divided by it."""
    norms = np.linalg.norm(amps, axis=-1, keepdims=True)
    off = ~(np.abs(norms - 1.0) <= NORM_ATOL)
    if off.any():
        raise ValueError(f"state norm {norms[off][0]} is not 1 within {NORM_ATOL}")
    return amps / norms


def basis_state(factor_dims, indices) -> StateVector:
    """Product basis vector |j1 ... jn> for the given per-factor indices."""
    dims = check_dims(factor_dims)
    idx = tuple(check_int(j, "an index") for j in indices)
    if len(idx) != len(dims):
        raise DimensionMismatch("one index per factor required")
    amps = np.zeros(prod(dims), dtype=np.complex128)
    amps[int(np.ravel_multi_index(idx, dims))] = 1.0
    return StateVector(dims, amps)


def random_state(factor_dims, seed) -> StateVector:
    """Haar-random pure state on the joint space."""
    dims = check_dims(factor_dims)
    rng = as_rng(seed)
    z = rng.standard_normal(prod(dims)) + 1j * rng.standard_normal(prod(dims))
    return StateVector(dims, z / np.linalg.norm(z))


def random_product_state(factor_dims, seed) -> StateVector:
    """Tensor product of independent Haar-random single-particle states."""
    rng = as_rng(seed)
    state = None
    for d in check_dims(factor_dims):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        factor = StateVector((d,), z / np.linalg.norm(z))
        state = factor if state is None else tensor(state, factor)
    return state


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Joint state of two subsystems, factors of ``a`` first."""
    dims = check_dims(a.factor_dims + b.factor_dims)
    return StateVector(dims, np.kron(a.amplitudes, b.amplitudes))


def haar_unitary(dim, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R diagonal is rephased to unit modulus, which removes the QR gauge
    and makes the distribution exactly Haar. Same (dim, seed) gives the
    same matrix.
    """
    dim = check_int(dim, "dim")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = as_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return haar_from_ginibre(z)


def haar_from_ginibre(z) -> np.ndarray:
    """Haar unitaries from a (..., d, d) stack of complex Ginibre matrices:
    the Q of each QR, its columns rephased by the R diagonal."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _orthonormal_columns(b) -> bool:
    """Whether the columns of every matrix in the (..., n, k) stack ``b``
    are orthonormal within ``UNITARY_ATOL``."""
    gram = b.conj().swapaxes(-1, -2) @ b
    return bool(np.abs(gram - np.eye(b.shape[-1])).max() <= UNITARY_ATOL)


def is_unitary(u) -> bool:
    """Whether ``u`` is a unitary matrix, or a (..., d, d) stack of them,
    within ``UNITARY_ATOL``."""
    u = np.asarray(u)
    return u.ndim >= 2 and u.shape[-1] == u.shape[-2] and _orthonormal_columns(u)


def apply_unitary(state: StateVector, u) -> StateVector:
    """Evolve the joint state by a unitary on the full space."""
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (state.dim, state.dim):
        raise DimensionMismatch(
            f"operator shape {u.shape} does not act on dimension {state.dim}"
        )
    return StateVector(state.factor_dims, u @ state.amplitudes)


def apply_per_factor(mats, flat: np.ndarray, dims) -> np.ndarray:
    """Apply ``mats[k]`` to factor k of every state in an (R, total) stack.

    ``flat`` holds R states, each flat row-major over factors of ``dims``.
    A matrix is (d', d), or (R, d', d) for one per state; None leaves its
    factor alone. Returns the (R, total') stack, factor k now of dim d'.

    Each factor is brought to the front as an (R, d, rest) block,
    multiplied, and sent to the back, so after the last factor the order
    is the input's and no array ever has one axis per factor.
    """
    rows = flat.shape[0]
    for d, m in zip(dims, mats):
        t = flat.reshape(rows, d, -1)
        if m is not None:
            t = m @ t
        flat = t.swapaxes(1, 2).reshape(rows, -1)
    return flat


def complete_basis(columns, seed) -> np.ndarray:
    """Extend orthonormal columns to a full orthonormal basis.

    The completion is random but deterministic in the seed: fresh Gaussian
    columns (``complete_columns``) fill the space the given ones leave.
    """
    cols = np.asarray(columns, dtype=np.complex128)
    dim, r = cols.shape
    if r > dim:
        raise ValueError("more columns than the space has dimensions")
    if r == dim:
        return cols.copy()
    rng = as_rng(seed)
    extra = rng.standard_normal((dim, dim - r)) + 1j * rng.standard_normal(
        (dim, dim - r)
    )
    return complete_columns(cols, extra)


def complete_columns(cols, extra) -> np.ndarray:
    """Full bases from a (..., dim, r) stack of orthonormal columns and a
    (..., dim, dim - r) stack of complex Gaussian ones: the Gaussian
    columns are projected off the given ones (twice, which is enough in
    double precision), orthonormalized by QR and appended."""
    if extra.shape[-1] == 0:
        return cols.copy()
    for _ in range(2):
        extra = extra - cols @ (cols.conj().swapaxes(-1, -2) @ extra)
    q, _ = np.linalg.qr(extra)
    return np.concatenate([cols, q], axis=-1)


@dataclass(frozen=True)
class SchmidtForm:
    """Normal form of a bipartite pure state.

    The state it represents is ``sum_l sqrt(weights[l]) left[:, l] (x)
    right[:, l]`` with weights sorted in descending order and both column
    families orthonormal. Only weights above ``WEIGHT_CUTOFF`` are kept.
    """

    factor_dims: tuple[int, int]
    weights: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    def __post_init__(self):
        dims = tuple(check_int(d, "a factor dimension") for d in self.factor_dims)
        if len(dims) != 2 or min(dims) < 1:
            raise ValueError("factor_dims must be two positive integers")
        w = np.array(self.weights, dtype=float, copy=True).reshape(-1)
        left = np.array(self.left_basis, dtype=np.complex128, copy=True)
        right = np.array(self.right_basis, dtype=np.complex128, copy=True)
        r = w.size
        if r < 1:
            raise ValueError("at least one weight required")
        if left.shape != (dims[0], r) or right.shape != (dims[1], r):
            raise DimensionMismatch("basis shapes do not match weights and dims")
        check_schmidt_parts(w, left, right)
        for name, arr in (("weights", w), ("left_basis", left), ("right_basis", right)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "factor_dims", dims)

    @property
    def rank(self) -> int:
        return self.weights.size

    def reconstruct(self) -> StateVector:
        """Reassemble the state this form decomposes."""
        m = schmidt_matrices(self.weights, self.left_basis, self.right_basis)
        return StateVector(self.factor_dims, m.reshape(-1))


def check_schmidt_parts(weights, left, right) -> None:
    """``SchmidtForm``'s checks on one form or a stack of forms of one
    rank: weights (..., r) positive, descending within ``NORM_ATOL`` and
    summing to 1 within it; the columns of left (..., d1, r) and right
    (..., d2, r) orthonormal. Raises ValueError."""
    if weights.min() <= 0.0:
        raise ValueError("weights must be positive")
    if np.any(np.diff(weights, axis=-1) > NORM_ATOL):
        raise ValueError("weights must be sorted in descending order")
    sums = weights.sum(axis=-1)
    off = abs(sums - 1.0) > NORM_ATOL
    if off.any():
        raise ValueError(
            f"weights sum to {np.asarray(sums)[off].flat[0]}, not 1 within {NORM_ATOL}"
        )
    if not (_orthonormal_columns(left) and _orthonormal_columns(right)):
        raise ValueError("basis columns are not orthonormal")


def schmidt_matrices(weights, left, right) -> np.ndarray:
    """Coefficient matrix sum_l sqrt(w_l) left_l right_l^T of one form, or
    of each form in a stack (weights (..., r), bases (..., d, r))."""
    return (left * np.sqrt(weights)[..., None, :]) @ right.swapaxes(-1, -2)


def schmidt(state: StateVector) -> SchmidtForm:
    """Normal form of a bipartite state via SVD of its coefficient matrix.

    Raises NotBipartite unless the state has exactly two factors. Weights
    at or below ``WEIGHT_CUTOFF`` are dropped and the kept ones rescaled
    to sum to 1; when no weight was dropped, reconstruction of the result
    agrees with the input up to roundoff.
    """
    if state.num_factors != 2:
        raise NotBipartite(f"state has {state.num_factors} factors, need 2")
    d1, d2 = state.factor_dims
    w, left, right, rank = schmidt_parts(state.amplitudes.reshape(d1, d2))
    return SchmidtForm((d1, d2), w[:rank], left[:, :rank], right[:, :rank])


def schmidt_parts(coeffs):
    """``schmidt``'s decomposition of one (d1, d2) coefficient matrix, or
    of each in a (..., d1, d2) stack, before it is cut to its rank.

    Returns (weights, left, right, rank). With k = min(d1, d2), weights
    (..., k) descend; those at or below ``WEIGHT_CUTOFF`` are set to 0 and
    the kept ones rescaled to sum to 1. left (..., d1, k) and right
    (..., d2, k) hold the matching columns, and rank (...) counts the kept
    weights, which lead.
    """
    u, s, vh = np.linalg.svd(coeffs, full_matrices=False)
    w = s**2
    keep = w > WEIGHT_CUTOFF
    # a normalized input always has a dominant weight
    keep[..., 0] = True
    w = np.where(keep, w, 0.0)
    w /= w.sum(axis=-1, keepdims=True)
    # SVD rows of vh are the right vectors; transpose without conjugating
    return w, u, vh.swapaxes(-1, -2), keep.sum(axis=-1)
