"""Snapshot datasets: on-disk KSPD1 container and the synthetic flow oracle.

One file holds one case and one flow variable: the design vector, the
(axial, radial) grid, the time vector, and the J x m field matrix. The
synthetic generator stands in for a high-fidelity solver at desk scale and
produces fields that vary smoothly with the design vector.

The field is stored column-major (one snapshot after another). A read
returns it as a column-major view of the one array the payload is read into,
and the generator builds it the same way, so neither reading nor writing a
generated set copies the field. The generator fills the field one
cache-sized block of snapshots at a time; every element gets the same
operations, in the same order, as in a build over the whole field, so the
field is the same bit for bit.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._binio import MAX_ELEMENTS, Reader, Writer
from ._frozen import reduce_by_constructor
from .design import DesignRanges
from .errors import DimensionOverflowError, NonFiniteDataError, UnsupportedGridError

__all__ = [
    "SnapshotSet",
    "SynthRecipe",
    "WaveComponent",
    "default_recipe",
    "make_grid",
    "make_times",
    "read_dataset",
    "structured_axes",
    "synth_flowfield",
    "write_dataset",
]

MAGIC = "KSPD1"

# Relative tolerance on time-step uniformity.
_DT_RTOL = 1e-9

# Bytes of field rows that synth_flowfield fills at a time. A block and its
# equally sized scratch stay in a per-core L2 cache (2 MiB on the Xeon where
# this was measured) across all wave terms; on a 2,500-point field, 256 and
# 512 KiB blocks were about equally fast, and 128 KiB blocks and the whole
# field slower.
_BLOCK_BYTES = 512 * 1024


@dataclass(frozen=True)
class SnapshotSet:
    """One case's field evolution f(u_j, t_q) on a fixed grid.

    Attributes
    ----------
    case_id : str
        Identifier; not stored in the binary container (derived from the
        file name on read).
    design : (d,) ndarray
        Physical design vector of the case.
    grid : (J, 2) ndarray
        Spatial locations, axial x (mm) then radial r (mm) per point.
    times : (m,) ndarray
        Strictly increasing instants (s) with uniform spacing.
    field : (J, m) ndarray
        One flow variable, column q holding the snapshot at times[q].
    """

    case_id: str
    design: np.ndarray
    grid: np.ndarray
    times: np.ndarray
    field: np.ndarray
    variable: str = "field"
    units: str = ""

    def __post_init__(self):
        design = np.atleast_1d(np.asarray(self.design, dtype=float))
        grid = np.asarray(self.grid, dtype=float)
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        fld = np.asarray(self.field, dtype=float)
        if design.ndim != 1 or design.size < 1:
            raise ValueError("design must be a nonempty vector")
        if grid.ndim != 2 or grid.shape[1] != 2 or grid.shape[0] < 1:
            raise ValueError("grid must be a (J, 2) array")
        if times.ndim != 1 or times.size < 1:
            raise ValueError("times must be a nonempty vector")
        if fld.shape != (grid.shape[0], times.size):
            raise ValueError(
                f"field shape {fld.shape} does not match "
                f"(J={grid.shape[0]}, m={times.size})"
            )
        if times.size >= 2:
            dts = np.diff(times)
            if np.any(dts <= 0.0):
                raise ValueError("times must be strictly increasing")
            dt = dts.mean()
            if np.max(np.abs(dts - dt)) > _DT_RTOL * abs(dt):
                raise ValueError("times must be uniformly spaced")
        if not np.all(np.isfinite(fld)):
            raise ValueError("field contains non-finite values")
        for arr in (design, grid, times, fld):
            arr.flags.writeable = False
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "field", fld)

    __reduce__ = reduce_by_constructor

    @property
    def num_points(self) -> int:
        return self.grid.shape[0]

    @property
    def num_snapshots(self) -> int:
        return self.times.size

    @property
    def dims(self) -> int:
        return self.design.size

    @property
    def dt(self) -> float:
        if self.times.size < 2:
            raise ValueError("time step undefined for a single snapshot")
        return float(np.diff(self.times).mean())


def write_dataset(s: SnapshotSet, path) -> None:
    """Write one SnapshotSet as a KSPD1 file.

    Layout: magic, u64 J/m/d, design, grid (point-major), times, field in
    column-major order (all J values of t_1, then t_2, ...). Strings are not
    part of the container.
    """
    w = Writer(MAGIC)
    w.u64(s.num_points, s.num_snapshots, s.dims)
    w.f64(s.design)
    w.f64(s.grid)
    w.f64(s.times)
    w.f64(s.field, order="F")
    w.dump(path)


def read_dataset(path) -> SnapshotSet:
    """Read a KSPD1 file; the case_id is taken from the file stem.

    The four sections are one read into one array, scanned once for
    non-finite values; design, grid, times and field are views of it.
    """
    with open(path, "rb") as fh:
        r = Reader(fh, MAGIC)
        j, m, d = r.u64(3)
        if min(j, m, d) < 1 or (d + 2 * j + m + j * m) > MAX_ELEMENTS:
            raise DimensionOverflowError(
                f"{path}: implausible dimensions J={j}, m={m}, d={d}"
            )
        payload = r.f64(d + 2 * j + m + j * m)
        r.finish()
    if not np.isfinite(payload).all():
        raise NonFiniteDataError(f"{path}: payload contains non-finite values")
    design, grid, times, fld = np.split(payload, np.cumsum([d, 2 * j, m]))
    return SnapshotSet(
        case_id=Path(path).stem, design=design, grid=grid.reshape(j, 2),
        times=times, field=fld.reshape((j, m), order="F"),
    )


# ---------------------------------------------------------------------------
# Structured grids

def make_grid(nx: int, nr: int, x_range=(0.0, 50.0), r_range=(0.0, 4.5)) -> np.ndarray:
    """Build a structured (axial x radial) point list, radial index fastest."""
    xs = np.linspace(x_range[0], x_range[1], nx)
    rs = np.linspace(r_range[0], r_range[1], nr)
    gx, gr = np.meshgrid(xs, rs, indexing="ij")
    return np.column_stack([gx.ravel(), gr.ravel()])


def make_times(m: int, dt: float = 1e-4) -> np.ndarray:
    return np.arange(m) * dt


def structured_axes(grid: np.ndarray):
    """Factor a point list into structured axes.

    Returns (xs, rs, ix, ir) where xs/rs are the sorted unique axial and
    radial coordinates and (ix, ir) index each grid point into them. Raises
    UnsupportedGridError when the points are not exactly a full tensor
    product.
    """
    grid = np.asarray(grid, dtype=float)
    xs = np.unique(grid[:, 0])
    rs = np.unique(grid[:, 1])
    if xs.size * rs.size != grid.shape[0]:
        raise UnsupportedGridError("grid points do not form a full tensor product")
    ix = np.searchsorted(xs, grid[:, 0])
    ir = np.searchsorted(rs, grid[:, 1])
    seen = np.zeros((xs.size, rs.size), dtype=bool)
    seen[ix, ir] = True
    if not seen.all():
        raise UnsupportedGridError("grid points do not form a full tensor product")
    return xs, rs, ix, ir


# ---------------------------------------------------------------------------
# Synthetic oracle

@dataclass(frozen=True)
class WaveComponent:
    """One traveling-wave term of the synthetic field.

    ``amplitude``, ``frequency`` (Hz) and ``phase`` (rad) are smooth maps of
    the design vector; ``pattern`` maps the grid to a fixed spatial shape.
    """

    amplitude: callable
    frequency: callable
    phase: callable
    pattern: callable


@dataclass(frozen=True)
class SynthRecipe:
    """Mean profile plus wave terms defining the synthetic parametric flow."""

    mean: callable                 # (grid, design) -> (J,)
    waves: tuple                   # of WaveComponent
    variable: str = "density"
    units: str = "kg/m^3"


def synth_flowfield(design, grid, times, recipe: SynthRecipe,
                    case_id: str = "synth") -> SnapshotSet:
    """Evaluate the recipe deterministically on a grid and time vector.

    field(j, q) = mean(u_j) + sum_p a_p * g_p(u_j) * cos(2 pi f_p t_q + psi_p)
    with every map evaluated at the given design vector. Raises ValueError
    when a wave frequency violates the sampling bound f < 1/(2 dt).

    Each map, and each wave's cosine over all the times, is evaluated once.
    The field is then filled one block of snapshots at a time, small enough
    to stay in cache while every wave term is added to it: the mean first,
    then each term a * (g * c) in wave order. These are the products and
    sums a build over the whole field makes, in the same order, so the
    field is the same bit for bit.
    """
    design = np.atleast_1d(np.asarray(design, dtype=float))
    grid = np.asarray(grid, dtype=float)
    times = np.atleast_1d(np.asarray(times, dtype=float))

    freqs = [float(wave.frequency(design)) for wave in recipe.waves]
    if times.size >= 2:
        dt = float(np.diff(times).mean())
        f_max = 1.0 / (2.0 * dt)
        for p, f in enumerate(freqs):
            if f >= f_max:
                raise ValueError(
                    f"wave {p} frequency {f} Hz violates the sampling "
                    f"bound {f_max} Hz"
                )

    # the maps and cosines are evaluated on the full arrays, as the bits of
    # cos, sin and exp can depend on how they are called; those of the
    # multiplies and adds blocked below cannot
    mean = np.asarray(recipe.mean(grid, design), dtype=float)
    terms = [
        (float(wave.amplitude(design)),
         np.cos(2.0 * math.pi * f * times + float(wave.phase(design))),
         np.asarray(wave.pattern(grid), dtype=float))
        for wave, f in zip(recipe.waves, freqs)
    ]

    # built time-major, one contiguous row per snapshot: the (J, m) field is
    # its column-major transpose, the KSPD1 layout, so writing it copies
    # nothing
    out = np.empty((times.size, grid.shape[0]))
    rows = max(1, _BLOCK_BYTES // (8 * grid.shape[0]))
    scratch = np.empty((min(rows, times.size), grid.shape[0]))
    for start in range(0, times.size, rows):
        block = out[start:start + rows]
        term = scratch[:block.shape[0]]
        block[:] = mean
        for a, c, g in terms:
            np.multiply(c[start:start + rows, None], g, out=term)
            term *= a
            block += term

    return SnapshotSet(
        case_id=case_id, design=design, grid=grid, times=times, field=out.T,
        variable=recipe.variable, units=recipe.units,
    )


def _unit_axes(grid: np.ndarray):
    """Normalize grid coordinates to [0, 1] per axis (degenerate axis -> 0)."""
    out = []
    for k in range(2):
        col = grid[:, k]
        lo, hi = col.min(), col.max()
        out.append((col - lo) / (hi - lo) if hi > lo else np.zeros_like(col))
    return out


def _design_features(design, ranges):
    u = np.atleast_1d(np.asarray(design, dtype=float))
    if ranges is not None:
        u = ranges.normalize(u)
    d = u.size
    return u[0 % d], u[1 % d], u[2 % d]


def default_recipe(ranges: DesignRanges = None) -> SynthRecipe:
    """Desk-scale recipe with three wave terms of well-separated amplitude.

    The wave amplitudes keep their ordering over the whole unit cube, so the
    energy ranking of the extracted spatial structures is stable across
    designs. When ``ranges`` is given, design vectors are normalized with it
    before the maps are evaluated; otherwise designs are taken as already
    unit-scaled. The mean profile is a wall-attached film: a smooth radial
    step whose interface radius shifts gently with the design.
    """
    def feats(design):
        return _design_features(design, ranges)

    def mean(grid, design):
        u1, u2, u3 = feats(design)
        xi, rho = _unit_axes(np.asarray(grid, dtype=float))
        interface = 0.84 - 0.06 * u2 - 0.03 * xi
        core = 38.0 + 4.0 * u3
        step = 1.0 / (1.0 + np.exp(-(rho - interface) / 0.07))
        return core + 80.0 * step

    def pattern(center, width, axial_waves):
        def g(grid):
            xi, rho = _unit_axes(np.asarray(grid, dtype=float))
            radial = np.exp(-((rho - center) / width) ** 2)
            return np.sin(axial_waves * math.pi * xi) * radial
        return g

    waves = (
        WaveComponent(
            amplitude=lambda x: 9.0 + 2.0 * feats(x)[0] + 1.0 * feats(x)[1],
            frequency=lambda x: 295.0 + 10.0 * feats(x)[0],
            phase=lambda x: 0.4 * math.pi * feats(x)[1],
            pattern=pattern(0.82, 0.18, 1),
        ),
        WaveComponent(
            amplitude=lambda x: 4.0 + 1.2 * feats(x)[2] + 0.3 * feats(x)[0],
            frequency=lambda x: 495.0 + 10.0 * feats(x)[1],
            phase=lambda x: 0.5 * math.pi * feats(x)[2],
            pattern=pattern(0.72, 0.22, 2),
        ),
        WaveComponent(
            amplitude=lambda x: 2.5 + 0.5 * feats(x)[1],
            frequency=lambda x: 695.0 + 10.0 * feats(x)[2],
            phase=lambda x: 0.3 * math.pi * feats(x)[0] + 0.2 * math.pi * feats(x)[1],
            pattern=pattern(0.6, 0.25, 3),
        ),
    )
    return SynthRecipe(mean=mean, waves=waves)
