"""Space-filling experimental designs and swirl-case inlet clusters.

Provides sliced Latin hypercube generation on the unit cube, affine scaling
to physical design ranges (``DesignRanges.normalize`` maps back), and
inlet-velocity cluster assignment, plus CSV serialization of design matrices.
"""

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._frozen import reduce_by_constructor

__all__ = [
    "Cluster",
    "DesignMatrix",
    "DesignRanges",
    "SWIRL_DESIGN_RANGES",
    "assign_cluster",
    "generate_slhd",
    "read_design_csv",
    "scale_design",
    "write_design_csv",
]

# Swap-improvement budget for the maximin pass of generate_slhd.
_MAXIMIN_ATTEMPTS = 1000

_log = logging.getLogger("kspod")


@dataclass(frozen=True)
class DesignMatrix:
    """n points in the unit hypercube, partitioned into equally sized slices.

    Both the full design and every slice satisfy the Latin hypercube
    property: in each dimension the k points of a group occupy k distinct
    equal-width bins.
    """

    points: np.ndarray    # (n, d), coordinates in [0, 1)
    slice_id: np.ndarray  # (n,), 1-based slice index

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        sid = np.asarray(self.slice_id, dtype=int)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a nonempty 2-D array")
        if sid.shape != (pts.shape[0],):
            raise ValueError("slice_id length must match point count")
        if np.any(pts < 0.0) or np.any(pts >= 1.0):
            raise ValueError("coordinates must lie in [0, 1)")
        if sid.min() < 1:
            raise ValueError("slice ids are 1-based")
        pts.flags.writeable = False
        sid.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "slice_id", sid)
        self._check_stratification()

    __reduce__ = reduce_by_constructor

    def _check_stratification(self):
        n, _ = self.points.shape
        if not _bins_are_latin(self.points, n):
            raise ValueError("points do not form a Latin hypercube")
        ids = np.unique(self.slice_id)
        counts = [np.count_nonzero(self.slice_id == s) for s in ids]
        if len(set(counts)) != 1:
            raise ValueError("slices must have equal sizes")
        q = counts[0]
        for s in ids:
            sub = self.points[self.slice_id == s]
            if not _bins_are_latin(sub, q):
                raise ValueError(f"slice {s} is not a Latin hypercube")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dims(self) -> int:
        return self.points.shape[1]

    @property
    def num_slices(self) -> int:
        return int(self.slice_id.max())


def _bins_are_latin(points: np.ndarray, nbins: int) -> bool:
    """True if, per dimension, the rows occupy all nbins distinct bins."""
    bins = np.floor(points * nbins).astype(int)
    for k in range(points.shape[1]):
        if len(np.unique(bins[:, k])) != nbins:
            return False
    return True


@dataclass(frozen=True)
class DesignRanges:
    """Per-dimension physical (lower, upper) bounds, optionally with units."""

    lower: np.ndarray
    upper: np.ndarray
    units: tuple = None

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size < 1:
            raise ValueError("lower/upper must be 1-D arrays of equal length")
        if not np.all(lo < hi):
            raise ValueError("every lower bound must be below its upper bound")
        if self.units is not None and len(self.units) != lo.size:
            raise ValueError("units length must match dimension count")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    __reduce__ = reduce_by_constructor

    @classmethod
    def from_pairs(cls, pairs, units=None) -> "DesignRanges":
        lo = [p[0] for p in pairs]
        hi = [p[1] for p in pairs]
        return cls(np.asarray(lo), np.asarray(hi), units)

    @property
    def dims(self) -> int:
        return self.lower.size

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def scale(self, unit_coords: np.ndarray) -> np.ndarray:
        return self.lower + np.asarray(unit_coords, dtype=float) * self.width

    def normalize(self, physical: np.ndarray) -> np.ndarray:
        return (np.asarray(physical, dtype=float) - self.lower) / self.width


#: Default swirl-injector design space: injection angle (deg), inlet width
#: (mm), inlet-to-headend distance (mm).
SWIRL_DESIGN_RANGES = DesignRanges.from_pairs(
    [(35.0, 62.2), (0.27, 1.53), (0.85, 3.40)], units=("deg", "mm", "mm")
)


class Cluster(Enum):
    """Inlet-velocity regime of a swirl case."""

    A = "A"
    B = "B"
    C = "C"
    D = "D"


def generate_slhd(s: int, q: int, d: int, seed: int) -> DesignMatrix:
    """Generate a sliced Latin hypercube design with s slices of q points.

    Construction: per dimension, the n = s*q fine bins are grouped into q
    coarse blocks of s consecutive bins; each block's bins are dealt randomly
    to the slices, so every slice holds one point per coarse bin (a Latin
    hypercube in its own right) and the union fills all n fine bins.
    Coordinates sit at fine-bin centers. A fixed budget of random same-slice
    coordinate swaps then greedily improves the maximin distance of the
    union; swaps within a slice preserve both stratification properties.
    The pass is incremental: it keeps the squared distance of every pair,
    recomputes only the two moved points' rows for a swap, and skips a
    swap outright when a closest pair involves neither point, since that
    swap cannot raise the minimum. The designs are bit for bit those of
    recomputing every distance per swap. One DEBUG record on the ``kspod``
    logger gives the attempts, the accepted and skipped swaps and the final
    minimum squared distance.

    Deterministic for a fixed seed.
    """
    for name, value in (("s", s), ("q", q), ("d", d)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an integer")
        if value < 1:
            raise ValueError(f"{name} must be at least 1")
    rng = np.random.default_rng(seed)
    n = s * q

    values = np.empty((n, d), dtype=int)
    for k in range(d):
        # slice_vals[l, b] = fine-bin index assigned to slice l from block b
        slice_vals = np.empty((s, q), dtype=int)
        for b in range(q):
            slice_vals[:, b] = b * s + rng.permutation(s)
        for l in range(s):
            values[l * q:(l + 1) * q, k] = slice_vals[l, rng.permutation(q)]

    points = (values + 0.5) / n
    slice_id = np.repeat(np.arange(1, s + 1), q)

    if n > 1 and q > 1:
        points = _maximin_swap_pass(points, s, q, rng)

    return DesignMatrix(points, slice_id)


def _maximin_swap_pass(points: np.ndarray, s: int, q: int,
                       rng: np.random.Generator) -> np.ndarray:
    pts = points.copy()
    d = pts.shape[1]
    # squared distances of every pair, inf on the diagonal; a swap moves
    # only points i and j, so only their rows and columns change
    dist = _sq_dists(pts, pts)
    np.fill_diagonal(dist, np.inf)
    best = dist.min()
    closest = np.argwhere(dist == best)
    accepted = skipped = 0
    for _ in range(_MAXIMIN_ATTEMPTS):
        k = int(rng.integers(d))
        l = int(rng.integers(s))
        i, j = rng.choice(q, size=2, replace=False) + l * q
        if ((closest != i) & (closest != j)).all(axis=1).any():
            # a closest pair without i or j keeps the minimum where it is
            skipped += 1
            continue
        rows = dist[[i, j]]
        pts[i, k], pts[j, k] = pts[j, k], pts[i, k]
        moved = _sq_dists(pts[[i, j]], pts)
        moved[0, i] = moved[1, j] = np.inf
        dist[[i, j]] = moved
        dist[:, [i, j]] = moved.T
        cand = dist.min()
        if cand > best:
            best = cand
            closest = np.argwhere(dist == best)
            accepted += 1
        else:
            pts[i, k], pts[j, k] = pts[j, k], pts[i, k]
            dist[[i, j]] = rows
            dist[:, [i, j]] = rows.T
    _log.debug("maximin pass: %d attempts, %d swaps accepted, %d skipped by "
               "the closest-pair test, min squared distance %.6g",
               _MAXIMIN_ATTEMPTS, accepted, skipped, best)
    return pts


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # summed one dimension at a time, in order, as scipy's pdist sums: the
    # same bits for any d, and no (len(a), len(b), d) temporary
    return sum((a[:, None, k] - b[None, :, k]) ** 2 for k in range(a.shape[1]))


def scale_design(unit, ranges: DesignRanges) -> np.ndarray:
    """Map unit-cube coordinates onto physical design ranges (affine)."""
    pts = unit.points if isinstance(unit, DesignMatrix) else unit
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[1] != ranges.dims:
        raise ValueError(
            f"design has {pts.shape[1]} dims, ranges have {ranges.dims}"
        )
    return ranges.scale(pts)


def assign_cluster(u_in: float) -> Cluster:
    """Classify a case by inlet velocity (m/s): breakpoints at 10, 18, 25.

    The value 25 itself goes to Cluster D so that the four intervals cover
    every positive velocity.
    """
    if not np.isfinite(u_in) or u_in <= 0.0:
        raise ValueError("inlet velocity must be positive")
    if u_in < 10.0:
        return Cluster.A
    if u_in < 18.0:
        return Cluster.B
    if u_in < 25.0:
        return Cluster.C
    return Cluster.D


def write_design_csv(design: DesignMatrix, path) -> None:
    """Write a design matrix as UTF-8 CSV with full double precision."""
    header = "slice," + ",".join(f"x{k + 1}" for k in range(design.dims))
    lines = [header]
    for sid, row in zip(design.slice_id, design.points):
        lines.append(f"{sid}," + ",".join(f"{v:.17g}" for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_design_csv(path) -> DesignMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty design file")
    header = lines[0].split(",")
    if header[0] != "slice" or len(header) < 2:
        raise ValueError(f"{path}: malformed design header")
    d = len(header) - 1
    slice_id, rows = [], []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != d + 1:
            raise ValueError(f"{path}: row has {len(cells)} cells, expected {d + 1}")
        slice_id.append(int(cells[0]))
        rows.append([float(c) for c in cells[1:]])
    return DesignMatrix(np.asarray(rows), np.asarray(slice_id))
