#!/usr/bin/env python3
"""Benchmark of the kspod emulator pipeline on one named workload.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0

A run builds its inputs from the seed, then times set-up (design, oracle
synthesis, KSPD1 write and read-back), training plus save, repeated loads,
a full-history query sweep and a single-snapshot probe sweep. It checks the
outputs against numpy computations made apart from ``kspod`` and prints,
as its last line, one JSON object with the end-to-end metrics (``--trace
0``) or the per-layer metrics of a traced run (``--trace 1``). Every check
that fails counts as a failed operation and makes the exit code 1.

Only the public ``kspod`` API is called, with the program defaults apart
from the design ``ranges``. The package is imported from ``src/`` of the
checkout this file sits in; without it the run exits 2 and prints nothing
on standard output.
"""

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if not (SRC_DIR / "kspod" / "__init__.py").is_file():
    print(f"perfbench: no kspod package under {SRC_DIR}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC_DIR))

# One BLAS thread: on a 2-core machine, OpenBLAS's default of one thread
# per core made desk training 40% slower (see README.md). Set before numpy
# loads.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import kspod  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    RANGES, RECIPE, WORKLOADS, closed_form_field, gate_design, make_inputs, training_design,
)

# Set-up is repeated and its median reported. Training is timed once: it is
# the longest phase, and a second one would add 24 s to every desk run.
SETUP_REPS = 5
CYCLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "load_ms": "ms",
    "sweep_fields_per_s": "1/s",
    "probe_fields_per_s": "1/s",
    "heldout_mean_rel_l2": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "design.slhd_ms": "ms",
    "snapshots.synth_ms": "ms",
    "snapshots.write_ms": "ms",
    "snapshots.read_ms": "ms",
    "snapshots.file_mb": "MB",
    "pod.decompose_ms": "ms",
    "pod.decompose_calls": "count",
    "pod.align_ms": "ms",
    "pod.rank": "count",
    "kriging.fit_calls": "count",
    "kriging.fit_ms": "ms",
    "kriging.fit_total_s": "s",
    "kriging.fit_share": "ratio",
    "kriging.indicator_theta_ms": "ms",
    "kriging.weight_theta": "1",
    "emulator.eff_cases": "count",
    "emulator.max_weight": "ratio",
    "emulator.train_self_s": "s",
    "emulator.save_ms": "ms",
    "emulator.model_mb": "MB",
    "emulator.load_ms": "ms",
    "emulator.predict_coefficients_ms": "ms",
    "emulator.weight_vector_us": "us",
    "emulator.predict_modes_ms": "ms",
    "emulator.recombine_ms": "ms",
    "metrics.report_ms": "ms",
    "metrics.heldout_max_rel_l2": "ratio",
    "trace.span_cost_us": "us",
    "trace.train_overhead_pct": "%",
    "trace.sweep_overhead_pct": "%",
}

# Tolerances of the correctness checks.
INTERP_RTOL = 1e-5          # acceptance criterion 08
WEIGHT_SUM_ATOL = 1e-10     # indicator-kriging identity
ORACLE_RTOL = 1e-12
ERROR_AGREE_ATOL = 1e-12
# Acceptance criterion 07: at least 7 of its 8 held-out designs within 5%.
GATE_LIMIT, GATE_MIN_WITHIN = 0.05, 7


def no_span(_name):
    return nullcontext()


def timed_cycles(seconds, rounds, phase):
    """Time the loops in turn, in CYCLES cycles of one block per loop, after
    one warm-up round of each. A block repeats its loop's round until its
    share of ``seconds`` has passed (at least once). Interleaving makes every
    loop sample the whole measured stretch; blocks keep a load from evicting
    the caches before every query. Returns each loop's round times."""
    for fn in rounds.values():
        fn()
    block_s = seconds / (CYCLES * len(rounds))
    durations = {name: [] for name in rounds}
    for _ in range(CYCLES):
        for name, fn in rounds.items():
            block_end = time.perf_counter() + block_s
            while True:
                with phase(name):
                    t0 = time.perf_counter()
                    fn()
                    t1 = time.perf_counter()
                durations[name].append(t1 - t0)
                if t1 >= block_end:
                    break
    return durations


def query_rounds(model, model_path, queries):
    """The three timed loops, one call per round: a load, a full-history
    prediction, and a single-snapshot prediction whose time index cycles
    through the steps. Predictions cycle through the query designs."""
    designs = itertools.cycle(queries)
    probes = zip(itertools.cycle(queries), itertools.cycle(range(model.num_snapshots)))

    def probe():
        x, q = next(probes)
        kspod.predict_field(model, x, time_indices=[q])

    return {
        "load": lambda: kspod.load_model(model_path),
        "sweep": lambda: kspod.predict_field(model, next(designs)),
        "probe": probe,
    }


def setup(w, inp, seed, workdir):
    """Design, synthesize, write and read back every training and held-out
    case. Returns the read-back cases and the training-case file size."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    design = training_design(w, seed)
    paths = {"case": [], "test": []}
    for prefix, points in (("case", design), ("test", inp.heldout)):
        for i, x in enumerate(points):
            path = workdir / f"{prefix}_{i:03d}.kspd"
            case = kspod.synth_flowfield(x, inp.grid, inp.times, RECIPE, case_id=path.stem)
            kspod.write_dataset(case, path)
            paths[prefix].append(path)
    cases = [kspod.read_dataset(p) for p in paths["case"]]
    heldout = [kspod.read_dataset(p) for p in paths["test"]]
    return cases, heldout, paths["case"][0].stat().st_size


def train_and_save(cases, model_path):
    model = kspod.train(cases, kspod.TrainOptions(ranges=RANGES))
    kspod.save_model(model, model_path)
    return model


def rank_k_reconstruction(fld, k):
    mean = fld.mean(axis=1)
    u, s, vt = np.linalg.svd(fld - mean[:, None], full_matrices=False)
    return (u[:, :k] * s[:k]) @ vt[:k] + mean[:, None]


def own_l2_error(truth, pred):
    diff = truth - pred
    return float(np.mean(np.sqrt(np.sum(diff * diff, axis=0)) / np.sqrt(np.sum(truth * truth, axis=0))))


def run_checks(w, inp, model, loaded, cases, heldout):
    """Every correctness check; returns (checks, held-out errors), each
    check a (name, passed, detail) triple."""
    checks = []
    for case in cases:
        target = rank_k_reconstruction(case.field, model.rank)
        rel = np.linalg.norm(kspod.predict_field(model, case.design) - target) / np.linalg.norm(target)
        checks.append(("interpolation", rel < INTERP_RTOL, f"{case.case_id} rel {rel:.3e}"))
    for x in inp.queries:
        dev = abs(kspod.weight_vector(model, x).raw.sum() - 1.0)
        checks.append(("weight_sum", dev <= WEIGHT_SUM_ATOL, f"|sum - 1| = {dev:.3e}"))
        same = np.array_equal(kspod.predict_field(model, x), kspod.predict_field(loaded, x))
        checks.append(("load_round_trip", same, f"query {x}"))
    first = heldout[0]
    ref = closed_form_field(RECIPE, first.design, inp.grid, inp.times)
    dev = float(np.max(np.abs(first.field - ref)) / np.max(np.abs(ref)))
    checks.append(("oracle", dev <= ORACLE_RTOL, f"{first.case_id} rel {dev:.3e}"))
    errors = []
    for case in heldout:
        pred = kspod.predict_snapshots(model, case.design)
        own = own_l2_error(case.field, pred.field)
        dev = abs(own - kspod.time_averaged_l2_error(case, pred))
        checks.append(("error_agreement", dev <= ERROR_AGREE_ATOL, f"{case.case_id} diff {dev:.3e}"))
        errors.append(own)
    return checks, errors


def accuracy_gate(w, inp):
    """Criterion 07 on its fixed designs, which do not depend on the seed:
    train on the seed-0 design and count the held-out designs within 5%.
    Untimed; returns one check."""
    train_pts, test_pts = gate_design(w)
    cases = [kspod.synth_flowfield(x, inp.grid, inp.times, RECIPE) for x in train_pts]
    model = kspod.train(cases, kspod.TrainOptions(ranges=RANGES))
    errors = []
    for x in test_pts:
        truth = kspod.synth_flowfield(x, inp.grid, inp.times, RECIPE)
        errors.append(own_l2_error(truth.field, kspod.predict_field(model, x)))
    within = sum(e <= GATE_LIMIT for e in errors)
    return ("accuracy_gate", within >= GATE_MIN_WITHIN,
            f"{within}/{len(errors)} held-out within {GATE_LIMIT:.0%}, max {max(errors):.4f}")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def span_cost_us(calls=20000):
    """Cost of one traced call over a plain one, on a no-op function."""
    def noop():
        return None
    elapsed = []
    for func in (noop, Tracer().wrap(noop, "calibration")):
        t0 = time.perf_counter()
        for _ in range(calls):
            func()
        elapsed.append(time.perf_counter() - t0)
    return (elapsed[1] - elapsed[0]) / calls * 1e6


class Layers:
    """Per-layer figures from the spans of a traced run."""

    def __init__(self, tracer):
        self.t = tracer
        self.own = tracer.self_times()
        self.roots = {}
        for i, (name, _, _, parent) in enumerate(tracer.spans):
            if parent < 0:
                self.roots.setdefault(name, set()).add(i)

    def idx(self, name, phase):
        return self.t.select(name, self.roots.get(phase, set()))

    def total(self, name, phase):
        return float(self.t.durations(self.idx(name, phase)).sum())

    def count(self, name, phase):
        return len(self.idx(name, phase))

    def median(self, name, phase, self_time=False):
        idx = self.idx(name, phase)
        if not idx:
            return 0.0
        vals = self.own[idx] if self_time else self.t.durations(idx)
        return float(np.median(vals))


def per_layer(tracer, model, model_path, file_size, inp, errors, ref, traced):
    lay = Layers(tracer)
    per_setup = 1e3 / SETUP_REPS
    wv = [kspod.weight_vector(model, x).normalized for x in inp.queries]
    train_wall = traced["train_s"]
    return {
        "design.slhd_ms": lay.total("design.slhd", "setup") * per_setup,
        "snapshots.synth_ms": lay.total("snapshots.synth", "setup") * per_setup,
        "snapshots.write_ms": lay.total("snapshots.write", "setup") * per_setup,
        "snapshots.read_ms": lay.total("snapshots.read", "setup") * per_setup,
        "snapshots.file_mb": file_size / 1e6,
        "pod.decompose_ms": lay.total("pod.decompose", "train") * 1e3,
        "pod.decompose_calls": lay.count("pod.decompose", "train"),
        "pod.align_ms": lay.total("pod.align", "train") * 1e3,
        "pod.rank": model.rank,
        "kriging.fit_calls": lay.count("kriging.fit", "train"),
        "kriging.fit_ms": lay.median("kriging.fit", "train") * 1e3,
        "kriging.fit_total_s": lay.total("kriging.fit", "train"),
        "kriging.fit_share": lay.total("kriging.fit", "train") / train_wall,
        "kriging.indicator_theta_ms": lay.total("kriging.indicator_theta", "train") * 1e3,
        "kriging.weight_theta": float(model.options_record["weight_theta"]),
        "emulator.eff_cases": float(np.median([1.0 / np.sum(v * v) for v in wv])),
        "emulator.max_weight": float(np.median([np.max(np.abs(v)) for v in wv])),
        "emulator.train_self_s": float(np.sum(lay.own[lay.idx("emulator.train", "train")])),
        "emulator.save_ms": lay.total("emulator.save", "train") * 1e3,
        "emulator.model_mb": model_path.stat().st_size / 1e6,
        "emulator.load_ms": lay.median("emulator.load", "load") * 1e3,
        "emulator.predict_coefficients_ms": lay.median("emulator.predict_coefficients", "sweep") * 1e3,
        "emulator.weight_vector_us": lay.median("emulator.weight_vector", "sweep") * 1e6,
        "emulator.predict_modes_ms": lay.median("emulator.predict_modes", "modes", self_time=True) * 1e3,
        "emulator.recombine_ms": lay.median("emulator.predict_field", "sweep", self_time=True) * 1e3,
        "metrics.report_ms": lay.median("metrics.report", "report") * 1e3,
        "metrics.heldout_max_rel_l2": max(errors),
        "trace.span_cost_us": span_cost_us(),
        "trace.train_overhead_pct": 100.0 * (traced["train_s"] / ref["train_s"] - 1.0),
        "trace.sweep_overhead_pct": 100.0 * (traced["sweep_call_s"] / ref["sweep_call_s"] - 1.0),
    }


def layer_table(tracer):
    """Markdown table of calls, total and self time per span name."""
    own = tracer.self_times()
    rows = {}
    for i, (name, start, end, _) in enumerate(tracer.spans):
        calls, total, self_s = rows.get(name, (0, 0.0, 0.0))
        rows[name] = (calls + 1, total + end - start, self_s + own[i])
    lines = ["| span | calls | total s | self s |", "|---|---:|---:|---:|"]
    for name, (calls, total, self_s) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"| {name} | {calls} | {total:.4f} | {self_s:.4f} |")
    return "\n".join(lines) + "\n"


def run(w, seed, seconds, tracer, workdir):
    inp = make_inputs(w, seed)
    phase = tracer.span if tracer else no_span
    if tracer:
        tracer.install()

    setup_times = []
    for _ in range(SETUP_REPS):
        cases = heldout = None
        with phase("setup"):
            t0 = time.perf_counter()
            cases, heldout, file_size = setup(w, inp, seed, workdir)
            setup_times.append(time.perf_counter() - t0)

    model_path = workdir / "model.ksem"
    ref = {}
    if tracer:
        # Untraced reference of the phases whose self times are compared.
        tracer.close()
        t0 = time.perf_counter()
        ref_model = train_and_save(cases, model_path)
        ref["train_s"] = time.perf_counter() - t0
        ref_rounds = timed_cycles(seconds, query_rounds(ref_model, model_path, inp.queries), no_span)
        ref["sweep_call_s"] = statistics.median(ref_rounds["sweep"])
        del ref_model
        tracer.install()

    with phase("train"):
        t0 = time.perf_counter()
        model = train_and_save(cases, model_path)
        train_s = time.perf_counter() - t0

    loaded = kspod.load_model(model_path)
    rounds = timed_cycles(seconds, query_rounds(model, model_path, inp.queries), phase)
    load_times, sweep_times, probe_times = rounds["load"], rounds["sweep"], rounds["probe"]
    # train, save, the round-trip load, and every timed call with its warm-up
    attempted = 3 + sum(len(times) + 1 for times in rounds.values())

    with phase("checks"):
        checks, errors = run_checks(w, inp, model, loaded, cases, heldout)
    rss_mb = peak_rss_mb()

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "train_s": train_s,
            "load_ms": statistics.median(load_times) * 1e3,
            "sweep_fields_per_s": 1.0 / statistics.median(sweep_times),
            "probe_fields_per_s": 1.0 / statistics.median(probe_times),
            "heldout_mean_rel_l2": statistics.fmean(errors),
            "peak_rss_mb": rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        with phase("modes"):
            for x in inp.queries:
                kspod.predict_modes(model, x)
        with phase("report"):
            for case in heldout:
                kspod.evaluation_report(case, kspod.predict_snapshots(model, case.design))
        tracer.close()
        traced = {"train_s": train_s, "sweep_call_s": statistics.median(sweep_times)}
        metrics = per_layer(tracer, model, model_path, file_size, inp, errors, ref, traced)
        units = PER_LAYER_UNITS
        write_trace(w, seed, tracer, metrics, ref, traced)

    if w.accuracy_gate:
        # Free the run's models and cases before the gate trains another.
        del model, loaded, cases, heldout
        checks.append(accuracy_gate(w, inp))
    failed = [c for c in checks if not c[1]]
    for name, _, detail in failed:
        print(f"perfbench: check {name} failed: {detail}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": attempted + len(checks),
        "failed": len(failed),
    }
    result["metrics"] = {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}
    return result


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "KSPOD_THREADS")},
    }


def write_trace(w, seed, tracer, metrics, ref, traced):
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"trace-{w.name}-seed{seed}"
    doc = {
        "workload": w.name, "seed": seed, "environment": environment(),
        "untraced": ref, "traced": traced, "metrics": metrics, "spans": tracer.dump(),
    }
    stem.with_suffix(".json").write_text(json.dumps(doc) + "\n")
    stem.with_suffix(".md").write_text(
        f"# Traced run: {w.name}, seed {seed}\n\n" + layer_table(tracer))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, tracer, workdir)
    finally:
        if tracer:
            tracer.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
