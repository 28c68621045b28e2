"""Kernel-smoothed POD emulation of spatiotemporally evolving fields.

Subpackages: experimental design (``design``), snapshot datasets and the
synthetic oracle (``snapshots``), proper orthogonal decomposition (``pod``),
ordinary kriging (``kriging``: the length-scale search and one class per
factorized design GP), the emulator itself (``emulator``), evaluation
metrics (``metrics``), and the command-line pipeline (``cli``).
"""

from . import errors
from .design import (
    Cluster,
    DesignMatrix,
    DesignRanges,
    SWIRL_DESIGN_RANGES,
    assign_cluster,
    generate_slhd,
    read_design_csv,
    scale_design,
    write_design_csv,
)
from .emulator import (
    EmulatorModel,
    TrainOptions,
    WeightVector,
    load_model,
    predict_coefficients,
    predict_field,
    predict_modes,
    predict_snapshots,
    save_model,
    train,
    weight_vector,
)
from .kriging import FitOptions, fit_indicator_theta
from .metrics import (
    AxialErrorProfile,
    GaussianKde,
    axial_error_profile,
    dominant_frequency,
    evaluation_report,
    film_thickness_profile,
    kde,
    qoi_series,
    relative_error,
    spreading_angle,
    time_averaged_l2_error,
)
from .pod import (
    PODBasis,
    align_modes,
    decompose,
    rank_for_energy,
    reconstruct,
    truncate,
)
from .snapshots import (
    SnapshotSet,
    SynthRecipe,
    WaveComponent,
    default_recipe,
    make_grid,
    make_times,
    read_dataset,
    structured_axes,
    synth_flowfield,
    write_dataset,
)

__version__ = "0.1.0"
