"""Proper orthogonal decomposition by the method of snapshots.

Decomposes a J x m snapshot matrix into orthonormal spatial modes and
time-varying coefficients via the m x m temporal Gram matrix, which is the
efficient route when m << J. Includes energy-based truncation, rank-limited
reconstruction, and the alignment of many cases' modes onto one reference
basis by orthogonal Procrustes rotations.
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


def align_modes(modes, coeffs, weights=None):
    """Rotate every case's modes and coefficients in place onto one reference
    basis by orthogonal Procrustes (Schonemann 1966).

    ``modes`` (n, K, J) holds each case's K modes as rows, orthonormal under
    the quadrature ``weights`` (J,) (unit weights when None), and ``coeffs``
    (n, m, K) their temporal coefficients; either may be a strided view,
    such as the mode rows of the emulator's library.

    The reference U (J, K) is the leading K eigenvectors of the pooled
    covariance sum_i Phi_i C_i Phi_i' under the weighted inner product, with
    C_i = a_i' a_i the case's coefficient Gram. For a POD basis C_i is the
    diagonal of its retained eigenvalues; unlike them, it rotates with the
    modes, so the reference depends only on each case's rank-K
    reconstruction. Each column of U has its largest-magnitude entry
    positive. Case i is rotated by R_i = A B' from the SVD A S B' of
    Phi_i' W U, which minimizes |Phi_i R_i - U|_W, and its coefficient
    columns by the same R_i, so its reconstruction does not change.

    The eigenproblem is the (nK, nK) Gram P W P' of the rows P_i = T_i Phi_i',
    with C_i = T_i' T_i from a QR of a_i: its top eigenpairs (mu, V) give
    U = P' V / sqrt(mu). Signs are made canonical first (each coefficient
    column's largest-magnitude entry positive), so a case given with negated
    modes is aligned bit for bit as without; the result does not depend on
    the order of the cases beyond rounding.

    Returns each case's residual |Phi_i R_i - U|_W / sqrt(K) (n,) and the
    ratio mu_K / mu_(K+1) of the pooled eigenvalues (inf without a (K+1)-th);
    near 1, the reference is ill-defined. Mis-sized arrays, such as weights
    from another grid, raise ValueError.
    """
    n, k, j = modes.shape
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
    if coeffs.ndim != 3 or coeffs.shape[0] != n or coeffs.shape[2] != k:
        raise ValueError(f"coefficients must be (n={n}, m, K={k}), got {coeffs.shape}")
    if weights is not None and weights.shape != (j,):
        raise ValueError("modes and quadrature weights live on different grids")
    if k < 1:
        raise ValueError("no modes to align")

    # canonical signs S_i, read where negation is exact; they ride in the
    # factors and rotations, so the inputs are not copied to apply them
    peak = np.take_along_axis(coeffs, np.abs(coeffs).argmax(axis=1)[:, None], axis=1)
    signs = np.where(peak < 0.0, -1.0, 1.0)  # (n, 1, K)
    # the rows P_i = T_i S_i Phi_i' of the canonical modes, one copy
    tri = np.linalg.qr(coeffs * signs, mode="r")  # (n, K, K)
    stack = np.matmul(tri * signs, modes)  # (n, K, J)
    rows = stack.reshape(n * k, j)
    pooled = (rows * weights if weights is not None else rows) @ rows.T
    mu, vecs = np.linalg.eigh(pooled)
    mu, vecs = mu[::-1], vecs[:, ::-1]
    gap = mu[k - 1] / mu[k] if mu.size > k else np.inf
    ref = rows.T @ (vecs[:, :k] / np.sqrt(mu[:k]))  # (J, K), W-orthonormal
    # order-free column signs of the reference
    ref *= np.sign(ref[np.abs(ref).argmax(axis=0), np.arange(k)])
    wref = ref * weights[:, None] if weights is not None else ref
    # each case's cross matrix S_i Phi_i' W U; the rotation of the input
    # modes is S_i R_i
    left, _, right = np.linalg.svd(np.matmul(modes, wref) * signs.transpose(0, 2, 1))
    rot = signs.transpose(0, 2, 1) * (left @ right)  # (n, K, K)
    np.matmul(coeffs, rot, out=coeffs)
    np.matmul(rot.transpose(0, 2, 1), modes, out=stack)
    modes[...] = stack
    # the residuals, in the buffer the rotation no longer needs
    stack -= ref.T
    if weights is not None:
        stack *= np.sqrt(weights)
    resid = np.sqrt(np.einsum("akj,akj->a", stack, stack) / k)
    return resid, float(gap)
