"""Command-line pipeline: design generation, synthetic datasets, training,
prediction, and evaluation reports.

Every command is deterministic for a fixed (config, seed): repeated runs
produce byte-identical artifacts. Exit codes: 0 success, 1 domain error
(parse failure, ill-conditioning, degenerate weights), 2 usage or
configuration error.
"""

import argparse
import copy
import json
import re
import sys
from pathlib import Path

import numpy as np

from .design import DesignRanges, generate_slhd, read_design_csv, scale_design, write_design_csv
from .emulator import TrainOptions, load_model, predict_snapshots, save_model, train
from .errors import ConfigError, KspodError
from .metrics import evaluation_report, time_averaged_l2_error
from .snapshots import default_recipe, make_grid, make_times, read_dataset, synth_flowfield, write_dataset

__all__ = ["main", "run_command"]

_CONFIG_DEFAULTS = {
    "seed": 0,
    "paths": {
        "design_path": "design.csv",
        "dataset_dir": "data",
        "model_path": "model.ksem",
        "report_path": "report.json",
        "predictions_dir": "predictions",
    },
    "design": {
        "dims": 3,
        "slices": 5,
        "per_slice": 6,
        "ranges": [[35.0, 62.2], [0.27, 1.53], [0.85, 3.40]],
    },
    "synth": {
        "nx": 50,
        "nr": 50,
        "x_range": [0.0, 50.0],
        "r_range": [0.0, 4.5],
        "snapshots": 100,
        "dt": 1e-4,
    },
    "pod": {"centering": True, "energy_threshold": 0.99, "num_modes": None},
    "kriging": {
        "nugget": 1e-8,
        "log_theta_bounds": [-6.0, 6.0],
        "restarts": 8,
        "weight_theta": None,
    },
    "test": {"count": 8, "shrink": 0.75},
    "predict": {"design": None, "time_indices": None},
    "metrics": {"threshold": None, "station_pair": None, "kde_bandwidth": None},
}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in out:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(out[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _load_config(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config not found: {path}")
    try:
        user = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = _merge(_CONFIG_DEFAULTS, user)
    cfg["_base_dir"] = path.parent
    return cfg


def _resolve(cfg: dict, key: str, override=None) -> Path:
    raw = override if override is not None else cfg["paths"][key]
    path = Path(raw)
    return path if path.is_absolute() else Path(cfg["_base_dir"]) / path


def _ranges(cfg: dict) -> DesignRanges:
    pairs = cfg["design"]["ranges"]
    if len(pairs) != cfg["design"]["dims"]:
        raise ConfigError("design.ranges length must equal design.dims")
    return DesignRanges.from_pairs(pairs)


def _grid_times(cfg: dict):
    s = cfg["synth"]
    grid = make_grid(s["nx"], s["nr"], tuple(s["x_range"]), tuple(s["r_range"]))
    times = make_times(s["snapshots"], s["dt"])
    return grid, times


def _train_options(cfg: dict) -> TrainOptions:
    pod_cfg = cfg["pod"]
    krg = cfg["kriging"]
    threshold = pod_cfg["energy_threshold"]
    return TrainOptions(
        energy_threshold=0.99 if threshold is None else threshold,
        num_modes=pod_cfg["num_modes"],
        centering=bool(pod_cfg["centering"]),
        ranges=_ranges(cfg),
        nugget=float(krg["nugget"]),
        log_theta_bounds=tuple(krg["log_theta_bounds"]),
        restarts=int(krg["restarts"]),
        weight_theta=krg["weight_theta"],
    )


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.asarray([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"cannot parse vector {text!r}") from exc


def _write_json(obj, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands

def _cmd_design(args) -> int:
    design = generate_slhd(args.slices, args.per_slice, args.dims, args.seed)
    write_design_csv(design, args.out)
    print(f"wrote {design.n}x{design.dims} design to {args.out}")
    return 0


def _synth_cases(cfg, unit_points, out_dir: Path, prefix: str):
    ranges = _ranges(cfg)
    recipe = default_recipe(ranges)
    grid, times = _grid_times(cfg)
    physical = scale_design(unit_points, ranges)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, row in enumerate(physical):
        name = f"{prefix}_{i:03d}"
        ss = synth_flowfield(row, grid, times, recipe, case_id=name)
        path = out_dir / f"{name}.kspd"
        write_dataset(ss, path)
        paths.append(path)
    return paths


def _cmd_synth(args) -> int:
    cfg = _load_config(args.config)
    design_path = _resolve(cfg, "design_path", args.design)
    if not design_path.is_file():
        raise ConfigError(f"design not found: {design_path}")
    design = read_design_csv(design_path)
    out_dir = _resolve(cfg, "dataset_dir", args.out_dir) / "train"
    paths = _synth_cases(cfg, design.points, out_dir, "case")
    print(f"wrote {len(paths)} snapshot sets to {out_dir}")
    return 0


def _load_training_cases(data_dir: Path):
    files = sorted(data_dir.glob("*.kspd"))
    if not files:
        raise ConfigError(f"no .kspd files in {data_dir}")
    return [read_dataset(p) for p in files]


def _cmd_train(args) -> int:
    cfg = _load_config(args.config)
    options = _train_options(cfg)
    data_dir = _resolve(cfg, "dataset_dir", args.data_dir)
    train_dir = data_dir / "train" if (data_dir / "train").is_dir() else data_dir
    cases = _load_training_cases(train_dir)
    model = train(cases, options)
    model_path = _resolve(cfg, "model_path", args.model_out)
    model_path.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, model_path)
    print(f"trained on {model.n_cases} cases (rank {model.rank}) -> {model_path}")
    return 0


def _cmd_predict(args) -> int:
    model_path = Path(args.model)
    if not model_path.is_file():
        raise ConfigError(f"model not found: {model_path}")
    model = load_model(model_path)
    cfg = _load_config(args.config) if args.config is not None else _CONFIG_DEFAULTS
    predict_cfg = cfg["predict"]
    if args.x is not None:
        x_new = _parse_vector(args.x)
    elif args.config is not None:
        if predict_cfg["design"] is None:
            raise ConfigError("predict.design missing from config")
        x_new = np.asarray(predict_cfg["design"], dtype=float)
    else:
        raise ConfigError("provide --x or a config with predict.design")
    indices = predict_cfg["time_indices"]
    if args.times is not None:
        try:
            indices = [int(v) for v in args.times.split(",")]
        except ValueError as exc:
            raise ConfigError(f"cannot parse time indices {args.times!r}") from exc
    prediction = predict_snapshots(model, x_new, indices)
    write_dataset(prediction, args.out)
    print(f"wrote prediction {prediction.case_id} to {args.out}")
    return 0


def _case_report(cfg, sim, emu) -> dict:
    m = cfg["metrics"]
    pair = tuple(m["station_pair"]) if m["station_pair"] else None
    report = evaluation_report(
        sim, emu,
        threshold=m["threshold"],
        station_pair=pair,
        bandwidth=m["kde_bandwidth"],
    )
    report["rel_l2_error"] = time_averaged_l2_error(sim, emu)
    return report


def _cmd_eval(args) -> int:
    cfg = _merge(_CONFIG_DEFAULTS, {})
    cfg["_base_dir"] = Path.cwd()
    if args.config is not None:
        cfg = _load_config(args.config)
    if args.threshold is not None:
        cfg["metrics"]["threshold"] = args.threshold
    if args.stations is not None:
        pair = _parse_vector(args.stations)
        if pair.size != 2:
            raise ConfigError("--stations expects exactly two values")
        cfg["metrics"]["station_pair"] = [float(v) for v in pair]
    if args.bandwidth is not None:
        cfg["metrics"]["kde_bandwidth"] = args.bandwidth
    sim = read_dataset(args.sim)
    emu = read_dataset(args.emu)
    report = {sim.case_id: _case_report(cfg, sim, emu)}
    _write_json(report, Path(args.out))
    print(f"wrote report to {args.out}")
    return 0


def _interior_test_points(cfg) -> np.ndarray:
    t = cfg["test"]
    count = int(t["count"])
    if count < 1:
        raise ConfigError("test.count must be at least 1")
    shrink = float(t["shrink"])
    raw = generate_slhd(1, count, cfg["design"]["dims"], cfg["seed"] + 1)
    return 0.5 + shrink * (raw.points - 0.5)


def _cmd_pipeline(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.workdir is not None:
        cfg["_base_dir"] = Path(args.workdir)
        Path(args.workdir).mkdir(parents=True, exist_ok=True)

    d_cfg = cfg["design"]
    design = generate_slhd(
        d_cfg["slices"], d_cfg["per_slice"], d_cfg["dims"], cfg["seed"]
    )
    write_design_csv(design, _resolve(cfg, "design_path"))

    data_dir = _resolve(cfg, "dataset_dir")
    _synth_cases(cfg, design.points, data_dir / "train", "case")
    test_points = _interior_test_points(cfg)
    test_paths = _synth_cases(cfg, test_points, data_dir / "test", "test")

    cases = _load_training_cases(data_dir / "train")
    model = train(cases, _train_options(cfg))
    model_path = _resolve(cfg, "model_path")
    model_path.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, model_path)

    pred_dir = _resolve(cfg, "predictions_dir")
    pred_dir.mkdir(parents=True, exist_ok=True)
    report = {"cases": {}, "summary": {}}
    errors = []
    for path in test_paths:
        sim = read_dataset(path)
        emu = predict_snapshots(model, sim.design)
        write_dataset(emu, pred_dir / f"{sim.case_id}_pred.kspd")
        entry = _case_report(cfg, sim, emu)
        report["cases"][sim.case_id] = entry
        errors.append(entry["rel_l2_error"])

    errors = np.asarray(errors)
    report["summary"] = {
        "rank": model.rank,
        "training_cases": model.n_cases,
        "test_cases": int(errors.size),
        "max_rel_l2_error": float(errors.max()),
        "mean_rel_l2_error": float(errors.mean()),
        "num_within_5pct": int(np.count_nonzero(errors <= 0.05)),
    }
    _write_json(report, _resolve(cfg, "report_path"))
    print(
        f"pipeline complete: {report['summary']['num_within_5pct']}/"
        f"{errors.size} held-out cases within 5% relative L2 error"
    )
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kspod",
        description="Kernel-smoothed POD emulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="generate a sliced Latin hypercube design")
    p.add_argument("--dims", type=int, required=True)
    p.add_argument("--slices", type=int, required=True)
    p.add_argument("--per-slice", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser("synth", help="generate synthetic snapshot datasets")
    p.add_argument("--config", required=True)
    p.add_argument("--design", default=None, help="design CSV (overrides config)")
    p.add_argument("--out-dir", default=None, help="dataset dir (overrides config)")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("train", help="train an emulator from snapshot datasets")
    p.add_argument("--config", required=True)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--model-out", default=None)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("predict", help="predict the field at a new design point")
    p.add_argument("--model", required=True)
    p.add_argument("--x", default=None, help="comma-separated physical design vector")
    p.add_argument("--config", default=None)
    p.add_argument("--times", default=None, help="comma-separated time indices")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("eval", help="compare an emulated dataset to a reference")
    p.add_argument("--sim", required=True)
    p.add_argument("--emu", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--stations", default=None, help="x1,x2 for the spreading angle")
    p.add_argument("--bandwidth", type=float, default=None)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("pipeline", help="run design/synth/train/predict/eval end to end")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workdir", default=None)
    p.set_defaults(handler=_cmd_pipeline)

    return parser


# argparse takes a separate value that starts with "-" for an option unless it
# is a plain number such as -5 or -0.5, so "--x -0.5,12" or "--threshold -inf"
# would fail; such a value is attached to its option as in "--x=-0.5,12"
_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _attach_negative_values(argv) -> list:
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if _NEGATIVE_VALUE.match(arg) and prev.startswith("--") \
                and "=" not in prev and prev != "--help":
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def run_command(argv) -> int:
    """Parse argv and execute one subcommand, returning the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"kspod: {exc}", file=sys.stderr)
        return 2
    except (KspodError, ValueError, IndexError) as exc:
        print(f"kspod: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
