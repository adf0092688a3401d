"""Command-line entry point for the sampler experiments.

Settings resolve in three layers: built-in defaults, then a flat
``key = value`` config file given with --config, then command-line flags.
Every run writes a CSV table and a JSON report embedding the fully
resolved configuration, so a run can be replayed from its own output.
Exit codes: 0 success, 2 invalid configuration or reports that cannot be
written, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .harness import (
    compare_study,
    contract_csv,
    contractivity_study,
    convergence_csv,
    gaussian_ground_truth,
    level_grid_problems,
    long_run_ground_truth,
    mixing_csv,
    mixing_study,
    stationary_csv,
    stationary_study,
    strong_error_study,
    write_json_report,
    write_text_report,
)
from .integrators import STEPPERS, DivergenceError, SolverConfig
from .metrics import distance_kernels
from .potentials import LogisticPosterior, QuadraticPotential, load_dataset

__all__ = ["RunConfig", "main", "validate_config"]

EXPERIMENTS = ("converge", "sample", "contract", "stationary", "compare")

# Built-in defaults, all as strings; the config file and flags override.
DEFAULTS: dict[str, str] = {
    "seed": "2024",
    "threads": "auto",
    "out": "",
    "dataset": "",
    "label_col": "0",
    "standardize": "false",
    "gamma": "auto",
    "u": "auto",
    "h": "0.05",
    "levels": "3:9",
    "fine_level": "14",
    "paths": "256",
    "chains": "512",
    "horizon": "10.0",
    "burn_in": "1000",
    "kept": "10000",
    "steps": "200",
    "pairs": "1000",
    "checkpoints": "0,2,5,10,25,50",
    "method": "quicsort",
    "methods": "quicsort,ubu,euler",
    "dimension": "10",
    "curvature": "1.0",
    "truth_samples": "2048",
    "truth_h": "auto",
    "truth_steps": "2000",
}

# One flag per setting; the help line gains the default when it is not empty.
_HELP: dict[str, str] = {
    "seed": "master seed",
    "threads": "upper bound on chunk threads, or 'auto' for one per usable core; "
    "small targets run their chunks serially, and output never depends on it",
    "out": "output prefix for .csv and .json reports (default ulmc-EXPERIMENT)",
    "dataset": "labelled CSV for a logistic posterior target",
    "label_col": "label column index",
    "standardize": "standardize dataset feature columns",
    "gamma": "friction, or 'auto' for max(2*sqrt(u*M1), 1)",
    "u": "inverse mass, or 'auto' for 1/M1",
    "h": "step size",
    "levels": "coarse level exponents for converge, '3:9' or '3,5,7'",
    "fine_level": "level exponent of the converge reference path",
    "paths": "Monte Carlo paths for converge",
    "chains": "chains for sample/compare/stationary",
    "horizon": "integration time for converge",
    "burn_in": "stationary steps discarded before the statistics",
    "kept": "stationary steps kept for the statistics",
    "steps": "contract steps",
    "pairs": "coupled pairs for contract",
    "checkpoints": "step indices where sample/compare measure, e.g. '0,2,5'",
    "method": "stepper for sample",
    "methods": "comma-separated steppers for converge and compare",
    "dimension": "dimension of the Gaussian target (without --dataset)",
    "curvature": "curvature of the Gaussian target (without --dataset)",
    "truth_samples": "reference cloud size for sample/compare",
    "truth_h": "step of the logistic reference run, or 'auto' for h/4",
    "truth_steps": "steps of the logistic reference run",
}

_INT_KEYS = {
    "seed", "paths", "chains", "label_col", "fine_level", "burn_in", "kept",
    "steps", "pairs", "dimension", "truth_samples", "truth_steps",
}
_FLOAT_KEYS = {"h", "horizon", "curvature"}
_AUTO_FLOAT_KEYS = {"gamma", "u", "truth_h"}
_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


@dataclass
class RunConfig:
    """Fully typed settings for one experiment run."""

    experiment: str
    seed: int
    threads: int
    out: str
    dataset: str
    label_col: int
    standardize: bool
    gamma: float | str
    u: float | str
    h: float
    levels: tuple[int, ...]
    fine_level: int
    paths: int
    chains: int
    horizon: float
    burn_in: int
    kept: int
    steps: int
    pairs: int
    checkpoints: tuple[int, ...]
    method: str
    methods: tuple[str, ...]
    dimension: int
    curvature: float
    truth_samples: int
    truth_h: float | str
    truth_steps: int

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


def _parse_levels(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if ":" in raw:
        lo, _, hi = raw.partition(":")
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty level range '{raw}'")
        return tuple(range(lo, hi + 1))
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return max(os.cpu_count() or 1, 1)


def _coerce(key: str, raw: str, origin: str, diags: list[str]):
    """Turn one raw string setting into its typed value, logging failures."""
    raw = raw.strip()
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _AUTO_FLOAT_KEYS:
            return "auto" if raw.lower() == "auto" else float(raw)
        if key == "threads":
            return _available_cpus() if raw.lower() == "auto" else int(raw)
        if key == "standardize":
            if raw.lower() in _BOOL_WORDS:
                return _BOOL_WORDS[raw.lower()]
            raise ValueError(f"expected true/false, got '{raw}'")
        if key == "levels":
            return _parse_levels(raw)
        if key == "checkpoints":
            return _parse_int_list(raw)
        if key == "methods":
            return tuple(part.strip() for part in raw.split(",") if part.strip())
        return raw  # out, dataset, method
    except ValueError as exc:
        diags.append(f"{origin}: bad value for '{key}': {exc}")
        return None


def _read_config_file(path: str, diags: list[str]) -> dict[str, tuple[str, int]]:
    """Parse a flat key = value file into raw entries with line numbers."""
    entries: dict[str, tuple[str, int]] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        diags.append(f"{path}: cannot read config file: {exc}")
        return entries
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            diags.append(f"{path}:{lineno}: expected 'key = value', got '{line}'")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            diags.append(f"{path}:{lineno}: unknown key '{key}'")
            continue
        if key in entries:
            diags.append(f"{path}:{lineno}: duplicate key '{key}' (first set on line {entries[key][1]})")
            continue
        entries[key] = (value.strip(), lineno)
    return entries


def _resolve(args: argparse.Namespace) -> tuple[RunConfig | None, list[str]]:
    """Merge defaults, config file, and flags into a typed RunConfig."""
    diags: list[str] = []
    file_entries: dict[str, tuple[str, int]] = {}
    if args.config is not None:
        file_entries = _read_config_file(args.config, diags)

    values: dict[str, object] = {}
    for key, default_raw in DEFAULTS.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            # str(True) is 'True', which _coerce reads case-insensitively
            values[key] = _coerce(key, str(flag_value), f"flag --{key.replace('_', '-')}", diags)
        elif key in file_entries:
            raw, lineno = file_entries[key]
            values[key] = _coerce(key, raw, f"{args.config}:{lineno}", diags)
        else:
            values[key] = _coerce(key, default_raw, f"default {key}", diags)
    if diags:
        return None, diags
    return RunConfig(experiment=args.experiment, **values), diags


def _build_potential(rc: RunConfig, diags: list[str]):
    """The target potential: a logistic posterior if a dataset is set, else quadratic."""
    if rc.dataset:
        if not Path(rc.dataset).is_file():
            diags.append(f"dataset: file not found: {rc.dataset}")
            return None
        try:
            data = load_dataset(rc.dataset, label_col=rc.label_col, standardize=rc.standardize)
        except ValueError as exc:
            diags.append(f"dataset: {exc}")
            return None
        return LogisticPosterior(data)
    if rc.dimension < 1:
        diags.append("dimension: must be at least 1")
        return None
    if rc.curvature <= 0:
        diags.append("curvature: must be positive")
        return None
    return QuadraticPotential(rc.curvature, d=rc.dimension)


def _resolve_solver(rc: RunConfig, pot) -> SolverConfig:
    """Apply the auto policy: u = 1/M1, gamma = max(2 sqrt(u M1), 1)."""
    u = 1.0 / pot.meta.M1 if rc.u == "auto" else float(rc.u)
    if rc.gamma == "auto":
        gamma = max(2.0 * math.sqrt(u * pot.meta.M1), 1.0)
    else:
        gamma = float(rc.gamma)
    return SolverConfig(gamma=gamma, u=u)


def validate_config(rc: RunConfig) -> list[str]:
    """All configuration problems at once; an empty list means runnable."""
    return _validate(rc)[0]


def _validate(rc: RunConfig) -> tuple[list[str], object]:
    """The problems of ``rc``, and the potential built while checking it.

    For experiments that compute distances this also imports SciPy, so its
    cost falls in set-up and a missing SciPy is a diagnostic, not a
    traceback halfway through a run.
    """
    diags: list[str] = []
    if rc.experiment not in EXPERIMENTS:
        diags.append(f"experiment: unknown experiment '{rc.experiment}'")
    if rc.seed < 0:
        diags.append("seed: must be nonnegative")
    elif rc.seed >= 2**64:
        # noise keys take the seed modulo 2**64, so a larger one would alias
        diags.append("seed: must be below 2**64")
    if rc.threads < 1:
        diags.append("threads: must be at least 1")
    if rc.h <= 0:
        diags.append("h: step size must be positive")
    if rc.horizon <= 0:
        diags.append("horizon: must be positive")
    if rc.gamma != "auto" and float(rc.gamma) <= 0:
        diags.append("gamma: must be positive (or 'auto')")
    if rc.u != "auto" and float(rc.u) <= 0:
        diags.append("u: must be positive (or 'auto')")
    if rc.paths < 2:
        diags.append("paths: need at least 2")
    if rc.chains < 1:
        diags.append("chains: need at least 1")
    diags.extend(level_grid_problems(rc.methods, rc.levels, rc.fine_level))
    if rc.burn_in < 0:
        diags.append("burn_in: must be nonnegative")
    if rc.kept < 1:
        diags.append("kept: need at least one kept step")
    if rc.steps < 1:
        diags.append("steps: need at least one step")
    if rc.pairs < 1:
        diags.append("pairs: need at least one pair")
    if not rc.checkpoints or any(c < 0 for c in rc.checkpoints) or any(
        b <= a for a, b in zip(rc.checkpoints, rc.checkpoints[1:])
    ):
        diags.append("checkpoints: must be strictly increasing step indices >= 0")
    if rc.label_col < 0:
        diags.append("label_col: must be nonnegative")
    if rc.method not in STEPPERS:
        diags.append(f"method: unknown method '{rc.method}'; choose from {sorted(STEPPERS)}")
    for m in rc.methods:
        if m not in STEPPERS:
            diags.append(f"methods: unknown method '{m}'; choose from {sorted(STEPPERS)}")
    if rc.truth_samples < 1:
        diags.append("truth_samples: need at least one sample")
    if rc.truth_h != "auto" and float(rc.truth_h) <= 0:
        diags.append("truth_h: must be positive (or 'auto')")
    if rc.truth_steps < 1:
        diags.append("truth_steps: need at least one step")
    # the parent of the report file itself, which a trailing separator on
    # the prefix would hide from Path(prefix).parent
    out_dir = Path(f"{_report_prefix(rc)}.csv").parent
    if not out_dir.is_dir():
        diags.append(f"out: directory not found: {out_dir}")

    pot = _build_potential(rc, diags)
    if pot is not None and rc.experiment == "contract":
        solver = _resolve_solver(rc, pot)
        floor = 2.0 * math.sqrt(solver.u * pot.meta.M1)
        if solver.gamma < floor * (1.0 - 1e-12):
            diags.append(
                f"gamma: contraction is only guaranteed for gamma >= 2*sqrt(u*M1) "
                f"= {floor:.6g}, got {solver.gamma:.6g}"
            )
        if rc.h > 0.1 / solver.gamma * (1.0 + 1e-12):
            diags.append(
                f"h: contraction is only guaranteed for h <= 0.1/gamma "
                f"= {0.1 / solver.gamma:.6g}, got {rc.h:.6g}"
            )
    if rc.experiment in ("sample", "compare"):  # the experiments that compute distances
        try:
            distance_kernels()
        except ImportError as exc:
            diags.append(
                f"scipy: {rc.experiment} computes distances with SciPy, "
                f"which failed to import: {exc}"
            )
    return diags, pot


def _report_prefix(rc: RunConfig) -> str:
    """Path of the reports without their .csv and .json suffixes."""
    return rc.out or f"ulmc-{rc.experiment}"


def _ground_truth(rc: RunConfig, pot, solver: SolverConfig):
    if isinstance(pot, QuadraticPotential):
        return gaussian_ground_truth(pot, rc.truth_samples, rc.seed)
    truth_h = rc.h / 4.0 if rc.truth_h == "auto" else float(rc.truth_h)
    return long_run_ground_truth(
        solver, pot, rc.truth_samples, truth_h, rc.truth_steps, rc.seed, threads=rc.threads
    )


def _dispatch(rc: RunConfig, pot, solver: SolverConfig) -> tuple[str, dict, list[str]]:
    """Run the experiment; returns (csv text, report payload, summary lines)."""
    if rc.experiment == "converge":
        rep = strong_error_study(
            solver, pot, rc.methods, rc.horizon, rc.paths, rc.levels, rc.fine_level,
            rc.seed, threads=rc.threads,
        )
        summary = ["method      slope   order"]
        for m in rep.methods:
            fit = rep.fits.get(m)
            if fit is None:
                summary.append(f"{m:<10}    n/a     n/a")
            else:
                summary.append(f"{m:<10} {fit.slope:7.3f} {fit.order:7.3f}")
        return convergence_csv(rep), rep.to_dict(), summary

    if rc.experiment == "sample":
        gt = _ground_truth(rc, pot, solver)
        rep = mixing_study(
            solver, pot, rc.method, rc.chains, rc.h, rc.checkpoints, gt, rc.seed,
            threads=rc.threads,
        )
        summary = [
            f"{rep.method}: energy {rep.energy[-1]:.6g}, w2 {rep.w2[-1]:.6g} "
            f"after {rep.grad_evals[-1]} gradient evaluations"
        ]
        return mixing_csv(rep, kind="sample"), rep.to_dict(), summary

    if rc.experiment == "compare":
        gt = _ground_truth(rc, pot, solver)
        reps = compare_study(
            solver, pot, rc.chains, rc.h, rc.checkpoints, gt, rc.seed,
            methods=rc.methods, threads=rc.threads,
        )
        summary = ["method      energy        w2   grad_evals"]
        for name, rep in reps.items():
            summary.append(
                f"{name:<10} {rep.energy[-1]:9.6f} {rep.w2[-1]:9.6f} {rep.grad_evals[-1]:10d}"
            )
        payload = {name: rep.to_dict() for name, rep in reps.items()}
        return mixing_csv(reps, kind="compare"), payload, summary

    if rc.experiment == "contract":
        dist = contractivity_study(solver, pot, rc.h, rc.steps, rc.pairs, rc.seed)
        factor = (dist[-1] / dist[0]) ** (1.0 / rc.steps) if dist[0] > 0 else float("nan")
        summary = [
            f"initial distance {dist[0]:.6g}, final {dist[-1]:.6g}, "
            f"per-step factor {factor:.6f}"
        ]
        payload = {"kind": "contract", "distances": [float(v) for v in dist]}
        return contract_csv(dist), payload, summary

    rep = stationary_study(
        solver, pot, rc.h, rc.chains, rc.burn_in, rc.kept, rc.seed, threads=rc.threads
    )
    summary = [f"{name} = {value:.6g}" for name, value in rep.rows()]
    return stationary_csv(rep), rep.to_dict(), summary


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulmc",
        description="Kinetic Langevin sampler experiments: convergence, mixing, "
        "contraction, and stationarity studies.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="|".join(EXPERIMENTS))
    help_by_experiment = {
        "converge": "strong-error study against a shared-path fine reference",
        "sample": "one method's mixing metrics against a reference cloud",
        "contract": "coupled-pair contraction of the two-gradient method",
        "stationary": "long-run moment statistics",
        "compare": "methods at matched gradient budgets",
    }
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=help_by_experiment[name])
        sp.add_argument("--config", help="flat key = value settings file")
        for key, default in DEFAULTS.items():
            action = argparse.BooleanOptionalAction if key == "standardize" else "store"
            help_text = f"{_HELP[key]} (default {default})" if default else _HELP[key]
            sp.add_argument(f"--{key.replace('_', '-')}", action=action, help=help_text)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    rc, diags = _resolve(args)
    if not diags and rc is not None:
        diags, pot = _validate(rc)
    if diags:
        for diag in diags:
            print(f"ulmc: {diag}", file=sys.stderr)
        return 2

    solver = _resolve_solver(rc, pot)
    try:
        # a divergence is aborted with context below, so the overflow
        # warnings numpy emits on the way there are just noise
        with np.errstate(over="ignore", invalid="ignore"):
            csv_text, payload, summary = _dispatch(rc, pot, solver)
    except DivergenceError as exc:
        print(f"ulmc: {exc}", file=sys.stderr)
        return 3

    prefix = _report_prefix(rc)
    csv_path = f"{prefix}.csv"
    json_path = f"{prefix}.json"
    config = rc.to_dict()
    config["gamma_resolved"] = solver.gamma
    config["u_resolved"] = solver.u
    report = {"experiment": rc.experiment, "config": config, "report": payload}
    try:
        write_text_report(csv_path, csv_text)
        write_json_report(json_path, report)
    except OSError as exc:
        print(f"ulmc: out: cannot write reports: {exc}", file=sys.stderr)
        return 2

    for line in summary:
        print(line)
    print(f"wrote {csv_path} and {json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
