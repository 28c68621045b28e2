"""Proper orthogonal decomposition by the method of snapshots.

Decomposes a J x m snapshot matrix into orthonormal spatial modes and
time-varying coefficients via the m x m temporal Gram matrix, which is the
efficient route when m << J. Includes energy-based truncation, rank-limited
reconstruction, and cross-case sign alignment.
"""

from dataclasses import dataclass

import numpy as np

from ._frozen import reduce_by_constructor
from .snapshots import SnapshotSet

__all__ = [
    "PODBasis",
    "align_modes",
    "decompose",
    "rank_for_energy",
    "reconstruct",
    "truncate",
]

# Eigenvalues below this fraction of the largest are numerically null and
# dropped at decomposition time.
RANK_EPS = 1e-12

# Slack applied when comparing cumulative energy against a threshold, so an
# analytically exact split (e.g. 0.8) is not missed to roundoff.
_ENERGY_ATOL = 1e-12


@dataclass(frozen=True)
class PODBasis:
    """Spatial modes, temporal coefficients and spectrum of one snapshot set.

    Modes are orthonormal under the weighted inner product
    ``modes.T @ diag(weights) @ modes == I``; the snapshot matrix is
    recovered (up to the dropped numerically-null directions) as
    ``modes @ coeffs.T`` plus ``mean_field`` when centering was enabled.
    ``energy_fractions`` are relative to the retained spectrum.
    """

    modes: np.ndarray               # (J, K)
    coeffs: np.ndarray              # (m, K)
    eigenvalues: np.ndarray         # (K,), nonincreasing
    quadrature_weights: np.ndarray  # (J,)
    mean_field: np.ndarray = None   # (J,) when centering was on

    def __post_init__(self):
        modes = np.asarray(self.modes, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=float)
        lam = np.atleast_1d(np.asarray(self.eigenvalues, dtype=float))
        w = np.atleast_1d(np.asarray(self.quadrature_weights, dtype=float))
        mean = self.mean_field
        if mean is not None:
            mean = np.atleast_1d(np.asarray(mean, dtype=float))
            if mean.shape != (modes.shape[0],):
                raise ValueError("mean_field length must equal J")
        if modes.ndim != 2 or coeffs.ndim != 2:
            raise ValueError("modes and coeffs must be 2-D")
        k = modes.shape[1]
        if coeffs.shape[1] != k or lam.shape != (k,):
            raise ValueError("mode, coefficient and eigenvalue counts disagree")
        if w.shape != (modes.shape[0],):
            raise ValueError("quadrature weight length must equal J")
        if np.any(lam < 0.0) or np.any(np.diff(lam) > 0.0):
            raise ValueError("eigenvalues must be nonnegative and nonincreasing")
        arrays = [modes, coeffs, lam, w] + ([mean] if mean is not None else [])
        for arr in arrays:
            arr.flags.writeable = False
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "quadrature_weights", w)
        object.__setattr__(self, "mean_field", mean)

    __reduce__ = reduce_by_constructor

    @property
    def num_points(self) -> int:
        return self.modes.shape[0]

    @property
    def num_snapshots(self) -> int:
        return self.coeffs.shape[0]

    @property
    def num_modes(self) -> int:
        return self.modes.shape[1]

    @property
    def energy_fractions(self) -> np.ndarray:
        total = self.eigenvalues.sum()
        if total <= 0.0:
            return np.zeros_like(self.eigenvalues)
        return self.eigenvalues / total


def decompose(snapshots, centering: bool = True, weights=None) -> PODBasis:
    """Method-of-snapshots decomposition of a snapshot set or (J, m) matrix.

    Forms the m x m Gram matrix of the (optionally time-centered) snapshots
    under the weighted spatial inner product, eigen-decomposes it, and keeps
    the eigenpairs above a relative rank cutoff. Mode k is the snapshot
    linear combination ``F @ v_k / sqrt(lambda_k)``; coefficient column k is
    ``sqrt(lambda_k) * v_k``, so the full-rank product reproduces the input.
    """
    fld = snapshots.field if isinstance(snapshots, SnapshotSet) else snapshots
    # column-major, as generated and read sets are: sums and products then
    # round alike whatever the caller's layout
    fld = np.asfortranarray(fld, dtype=float)
    if fld.ndim != 2:
        raise ValueError("snapshots must form a 2-D (J, m) matrix")
    j, m = fld.shape
    if m < 2:
        raise ValueError("at least two snapshots are required")

    if weights is None:
        w = np.ones(j)
    else:
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if w.shape != (j,):
            raise ValueError(f"weights length {w.size} does not match J={j}")
        if np.any(w <= 0.0):
            raise ValueError("quadrature weights must be positive")

    mean = fld.mean(axis=1) if centering else None
    fluct = fld - mean[:, None] if centering else fld

    # G = F' W F as one symmetric (syrk) product of sqrt(W) F with itself,
    # exactly symmetric as it stands
    root = fluct if weights is None else np.sqrt(w)[:, None] * fluct
    gram = root.T @ root
    evals, evecs = np.linalg.eigh(gram)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]

    lam_max = max(evals[0], 0.0) if evals.size else 0.0
    keep = evals > RANK_EPS * lam_max if lam_max > 0.0 else np.zeros(m, bool)
    lam = evals[keep]
    vecs = evecs[:, keep]

    sigma = np.sqrt(lam)
    modes = (fluct @ vecs) / sigma if lam.size else np.zeros((j, 0))
    coeffs = vecs * sigma if lam.size else np.zeros((m, 0))
    return PODBasis(modes, coeffs, lam, w, mean)


def rank_for_energy(basis: PODBasis, threshold: float) -> int:
    """Smallest mode count whose cumulative energy reaches the threshold."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("energy threshold must lie in (0, 1]")
    if basis.num_modes == 0:
        return 0
    cum = np.cumsum(basis.energy_fractions)
    return int(np.argmax(cum >= threshold - _ENERGY_ATOL)) + 1


def truncate(basis: PODBasis, energy_threshold: float = None,
             num_modes: int = None) -> PODBasis:
    """Keep the leading modes selected by energy threshold or explicit count."""
    if (energy_threshold is None) == (num_modes is None):
        raise ValueError("specify exactly one of energy_threshold, num_modes")
    if num_modes is not None:
        if num_modes < 1 or num_modes > basis.num_modes:
            raise ValueError(
                f"num_modes must be in [1, {basis.num_modes}], got {num_modes}"
            )
        k = int(num_modes)
    else:
        k = rank_for_energy(basis, energy_threshold)
    return PODBasis(
        basis.modes[:, :k],
        basis.coeffs[:, :k],
        basis.eigenvalues[:k],
        basis.quadrature_weights,
        basis.mean_field,
    )


def _time_indices(time_indices, count: int):
    """Snapshot indices into ``count`` steps: ``slice(None)`` (every step,
    without copying) for None, else a 1-D integer array inside the range.
    Boolean masks, non-integer values and other shapes raise IndexError
    rather than being cast to indices."""
    if time_indices is None:
        return slice(None)
    idx = np.asarray(time_indices)
    if idx.ndim != 1:
        raise IndexError("time indices must be a 1-D sequence")
    if idx.size == 0:
        return idx.astype(int)
    if idx.dtype.kind not in "iu":
        raise IndexError(f"time indices must be integers, got dtype {idx.dtype}")
    if idx.min() < 0 or idx.max() >= count:
        raise IndexError("time index out of range")
    return idx


def reconstruct(basis: PODBasis, num_modes: int = None,
                time_indices=None) -> np.ndarray:
    """Rank-limited reconstruction at the requested snapshot indices."""
    k = basis.num_modes if num_modes is None else int(num_modes)
    if k < 0 or k > basis.num_modes:
        raise ValueError(f"num_modes must be in [0, {basis.num_modes}], got {k}")
    idx = _time_indices(time_indices, basis.num_snapshots)
    fld = basis.modes[:, :k] @ basis.coeffs[idx, :k].T
    if basis.mean_field is not None:
        fld = fld + basis.mean_field[:, None]
    return fld


def align_modes(reference: PODBasis, target: PODBasis) -> PODBasis:
    """Flip target mode signs to match the reference, mode by mode.

    For every common mode index, when the weighted inner product of the
    reference and target modes is negative both the target mode and its
    coefficient column are negated, which leaves every reconstruction
    unchanged.
    """
    if target.num_points != reference.num_points or not np.array_equal(
        target.quadrature_weights, reference.quadrature_weights
    ):
        raise ValueError("reference and target bases live on different grids")
    if target.num_modes < 1:
        raise ValueError("target basis has no modes to align")

    k = min(reference.num_modes, target.num_modes)
    w = reference.quadrature_weights
    inner = np.einsum(
        "jk,jk->k", reference.modes[:, :k], w[:, None] * target.modes[:, :k]
    )
    signs = np.ones(target.num_modes)
    signs[:k][inner < 0.0] = -1.0
    if np.all(signs > 0.0):
        return target
    return PODBasis(
        target.modes * signs,
        target.coeffs * signs,
        target.eigenvalues,
        target.quadrature_weights,
        target.mean_field,
    )
