"""Workload definitions: sizes, the oracle and the seed-driven design points.

Every input a run uses is built here from the workload and the seed, through
the public ``kspod`` API only. The emulator receives just the generated
cases; the held-out and query designs never reach training.
"""

from dataclasses import dataclass

import numpy as np

import kspod

RANGES = kspod.SWIRL_DESIGN_RANGES

# Held-out designs follow the pipeline's rule (a Latin hypercube shrunk by
# 0.75 about the centre), as a sliced design with slices of 8 points. Sweep
# queries are uniform in the central 75% of the cube.
HELDOUT_SLICE = 8
HELDOUT_SHRINK = 0.75
# The desk accuracy gate uses acceptance criterion 07's fixed inputs, not the
# run's seed: the training design of seed 0 and 8 held-out designs of seed 1.
GATE_SEED = 0
QUERY_COUNT = 16
QUERY_MARGIN = 0.125


@dataclass(frozen=True)
class Workload:
    name: str
    slices: int
    per_slice: int
    nx: int
    nr: int
    snapshots: int
    heldout: int               # a multiple of HELDOUT_SLICE
    accuracy_gate: bool = False


RECIPE = kspod.default_recipe(RANGES)


WORKLOADS = {
    w.name: w for w in (
        # The paper's desk set-up; 3 modes x 100 steps = 300 coefficient fits.
        Workload("desk", 5, 6, 50, 50, 100, 32, accuracy_gate=True),
        # Many design points on a tiny field: n = 80 kriging systems.
        Workload("dense-design", 8, 10, 24, 24, 30, 32),
    )
}


@dataclass(frozen=True)
class Inputs:
    grid: np.ndarray
    times: np.ndarray
    heldout: np.ndarray        # (w.heldout, d) physical
    queries: np.ndarray        # (QUERY_COUNT, d) physical


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Grid, times, held-out and sweep designs; the training design is made
    inside the timed set-up by :func:`training_design`."""
    raw = kspod.generate_slhd(w.heldout // HELDOUT_SLICE, HELDOUT_SLICE, RANGES.dims, seed + 1).points
    heldout = RANGES.scale(0.5 + HELDOUT_SHRINK * (raw - 0.5))
    rng = np.random.default_rng([seed, 2])
    unit = rng.uniform(QUERY_MARGIN, 1.0 - QUERY_MARGIN, size=(QUERY_COUNT, RANGES.dims))
    return Inputs(
        grid=kspod.make_grid(w.nx, w.nr),
        times=kspod.make_times(w.snapshots),
        heldout=heldout,
        queries=RANGES.scale(unit),
    )


def training_design(w: Workload, seed: int) -> np.ndarray:
    return kspod.scale_design(kspod.generate_slhd(w.slices, w.per_slice, RANGES.dims, seed), RANGES)


def gate_design(w: Workload) -> tuple[np.ndarray, np.ndarray]:
    """Training and held-out designs of the accuracy gate, as the command-line
    pipeline makes them for seed :data:`GATE_SEED`."""
    raw = kspod.generate_slhd(1, HELDOUT_SLICE, RANGES.dims, GATE_SEED + 1).points
    heldout = RANGES.scale(0.5 + HELDOUT_SHRINK * (raw - 0.5))
    return training_design(w, GATE_SEED), heldout


def closed_form_field(recipe, design, grid, times) -> np.ndarray:
    """The recipe's field evaluated in one broadcast numpy expression."""
    fld = np.asarray(recipe.mean(grid, design), dtype=float)[:, None] + np.zeros(times.size)
    for wave in recipe.waves:
        phase = 2.0 * np.pi * wave.frequency(design) * times + wave.phase(design)
        fld = fld + wave.amplitude(design) * np.asarray(wave.pattern(grid))[:, None] * np.cos(phase)[None, :]
    return fld
