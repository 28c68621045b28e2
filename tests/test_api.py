import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import kspod

MODULES = sorted(info.name for info in pkgutil.iter_modules(kspod.__path__))

# names that must stay gone: the package saves only KSPD1 and KSEM files,
# prediction never needs a pointwise correlation, and one class,
# OrdinaryKriging, serves every fit and weight at fixed length-scales; no
# caller needs the swirl-geometry helpers or per-case metadata,
# ordinary-kriging weights need no renormalization, and OrdinaryKriging
# takes its length-scales and nugget directly
SINGLE_GP = ("KrigingModel", "fit", "predict", "indicator_weights")
DESIGN = ("GeometrySpec", "swirl_geometric_constant", "recommended_sample_size",
          "unscale_design", "CaseMetadata")
REMOVED = {
    "kspod": ("correlation", "read_basis", "write_basis", "read_model",
              "write_model", *SINGLE_GP, *DESIGN, "CorrelationParams"),
    "kspod.design": DESIGN,
    "kspod.pod": ("MAGIC", "read_basis", "write_basis"),
    "kspod.kriging": ("MAGIC", "correlation", "read_model", "write_model", *SINGLE_GP,
                      "_build_model", "_query_correlations", "fit_fixed",
                      "IndicatorKriging", "CorrelationParams"),
    "kspod.emulator": ("_normalize_raw", "WEIGHT_SUM_EPS"),
    "kspod.errors": ("DegenerateWeightsError",),
}


# the modules whose whole public surface the package re-exports
REEXPORTED = ("design", "emulator", "metrics", "pod", "snapshots")


def test_public_surface(small_model):
    # every listed or re-exported name resolves
    for name in MODULES:
        module = importlib.import_module(f"kspod.{name}")
        missing = [attr for attr in getattr(module, "__all__", ())
                   if not hasattr(module, attr)]
        assert not missing, f"kspod.{name}.__all__ lists {missing}"
    tree = ast.parse(Path(kspod.__file__).read_text("utf-8"))
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert [n for n in imported if not hasattr(kspod, n)] == []
    for name in REEXPORTED:
        module = importlib.import_module(f"kspod.{name}")
        assert set(module.__all__) <= set(imported), f"kspod.{name}"
    # and no removed name survives anywhere
    for module_name, names in REMOVED.items():
        module = importlib.import_module(module_name)
        for attr in names:
            assert not hasattr(module, attr), f"{module_name}.{attr}"
            assert attr not in getattr(module, "__all__", ())
    # nor a removed training option: theta_w is always fitted
    names = {field.name for field in dataclasses.fields(kspod.TrainOptions)}
    assert not names & {"cluster_filter", "metadata", "weight_theta"}
    assert not hasattr(small_model, "weight_params")
