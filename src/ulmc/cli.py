"""Command-line entry point for the sampler experiments.

Settings resolve in three layers: built-in defaults, then a flat
``key = value`` config file given with --config, then command-line flags.
Every run writes a CSV table and a JSON report that records every resolved
setting, plus the ``gamma_resolved`` and ``u_resolved`` the solver used, and
under ``"plan"`` the numbers of every plan its study checked, by role.
``--config`` reads only ``key = value`` lines, not that JSON.
Exit codes: 0 success, 2 invalid configuration or reports that cannot be
written, 3 numerical divergence.

Each experiment is one entry of ``EXPERIMENTS``: the run that calls its study
and the problems that check its settings.  One parser reads the experiment
as a positional argument and ``--config`` and every setting as flags, before
or after it: every experiment accepts every setting.  ``--threads`` is at
most ``_MAX_THREADS``.  This module alone writes the report formats: the
tagged ``ulmc-csv`` table and the JSON report.

``main`` first freezes the garbage collector's heap (``gc.freeze``): the
objects the imports left live until exit, and without the freeze
interpreter shutdown walks them all, about 30 ms of every run on 2 cores.
Importing this module leaves the collector alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from dataclasses import asdict, make_dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .brownian import _INDEX_BITS
from .harness import (
    compare_study,
    contract_problems,
    contractivity_study,
    converge_problems,
    gaussian_ground_truth,
    long_run_ground_truth,
    mixing_problems,
    mixing_study,
    stationary_problems,
    stationary_study,
    strong_error_study,
)
from .integrators import DivergenceError, SolverConfig
from .metrics import distance_kernels
from .potentials import LogisticPosterior, QuadraticPotential, load_dataset

__all__ = ["RunConfig", "main"]

def _parse_levels(raw: str) -> list[int]:
    if ":" in raw:
        lo, _, hi = raw.partition(":")
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty level range '{raw}'")
        if hi - lo > _INDEX_BITS:  # listed before any check, so a wide range is refused here
            raise ValueError(f"level range '{raw}' holds more than the {_INDEX_BITS + 1} levels 0 to {_INDEX_BITS}")
        return list(range(lo, hi + 1))
    return _parse_list(int)(raw)


def _parse_list(item: Callable[[str], object]) -> Callable[[str], list]:
    """A parser of comma-separated values, each read by ``item``."""
    return lambda raw: [item(part.strip()) for part in raw.split(",") if part.strip()]


def _parse_finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got '{raw}'")
    return value


def _parse_auto_finite(raw: str) -> float | str:
    return "auto" if raw.lower() == "auto" else _parse_finite(raw)


def _parse_bool(raw: str) -> bool:
    words = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
    if raw.lower() not in words:
        raise ValueError(f"expected true/false, got '{raw}'")
    return words[raw.lower()]


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return max(os.cpu_count() or 1, 1)


# The most threads a run may keep alive.  No pool gains past the cores: on 2
# cores a 16-chunk stationary run at d = 64 took 0.89-1.32 s at two threads
# and 2.46-3.10 s at sixteen (three runs each).  Each thread reserves a stack
# and an allocator arena: 256 idle threads reserved 3 GB of address space and
# took 30-50 ms to start and join, and 65,536 would reserve 512 GB of stacks.
_MAX_THREADS = 256


# Every setting, in flag order: (built-in default, parser of the raw string,
# help line).  The config file and flags override the defaults; the help line
# gains the default when it is not empty.
_SETTINGS: dict[str, tuple[str, Callable[[str], object], str]] = {
    "seed": ("2024", int, "master seed"),
    "threads": (
        "auto", lambda raw: min(_available_cpus(), _MAX_THREADS) if raw.lower() == "auto" else int(raw),
        "upper bound on the threads alive at once, the calling thread among them, at most "
        f"{_MAX_THREADS}, or 'auto' for one per usable core up to that; chunks and distances share "
        "it, small targets run their chunks serially, OpenBLAS's own threads are not counted, and output "
        "never depends on it",
    ),
    "out": ("", str, "output prefix for .csv and .json reports (default ulmc-EXPERIMENT)"),
    "dataset": ("", str, "labelled CSV for a logistic posterior target"),
    "label_col": ("0", int, "label column index"),
    "standardize": ("false", _parse_bool, "standardize dataset feature columns"),
    "gamma": ("auto", _parse_auto_finite, "friction, or 'auto' for max(2*sqrt(u*M1), 1)"),
    "u": ("auto", _parse_auto_finite, "inverse mass, or 'auto' for 1/M1"),
    "h": ("0.05", _parse_finite, "step size"),
    "levels": ("3:9", _parse_levels, "coarse level exponents for converge, '3:9' or '3,5,7'"),
    "fine_level": ("14", int, "level exponent of the converge reference path"),
    "paths": ("256", int, "Monte Carlo paths for converge"),
    "chains": ("512", int, "chains for sample/compare/stationary"),
    "horizon": ("10.0", _parse_finite, "integration time for converge"),
    "burn_in": ("1000", int, "stationary steps discarded before the statistics"),
    "kept": ("10000", int, "stationary steps kept for the statistics"),
    "steps": ("200", int, "contract steps"),
    "pairs": ("1000", int, "coupled pairs for contract"),
    "checkpoints": ("0,2,5,10,25,50", _parse_list(int), "step indices where sample/compare measure, e.g. '0,2,5'"),
    "method": ("quicsort", str, "stepper for sample"),
    "methods": ("quicsort,ubu,euler", _parse_list(str), "comma-separated steppers for converge and compare"),
    "dimension": ("10", int, "dimension of the Gaussian target (without --dataset)"),
    "curvature": ("1.0", _parse_finite, "curvature of the Gaussian target (without --dataset)"),
    "truth_samples": ("2048", int, "reference cloud size for sample/compare"),
    "truth_h": ("auto", _parse_auto_finite, "step of the logistic reference run, or 'auto' for h/4"),
    "truth_steps": ("2000", int, "steps of the logistic reference run"),
}
DEFAULTS: dict[str, str] = {key: default for key, (default, _, _) in _SETTINGS.items()}

# The largest dimension of a quadratic target.  Building one allocates its
# curvatures and its center, d floats each (8 MB at this bound), before any plan
# is checked: --dimension 100000000000 failed allocating 745 GiB.  Within it one
# chain's state fits a chunk, so the plan names any larger run.
_MAX_DIMENSION = 2**20

RunConfig = make_dataclass("RunConfig", ["experiment", *_SETTINGS], namespace={
    "__module__": __name__, "__doc__": "An experiment's name and the parsed value of each setting.",
})


def _coerce(key: str, raw: str, origin: str, diags: list[str]):
    """Turn one raw string setting into its typed value, logging failures."""
    try:
        return _SETTINGS[key][1](raw.strip())
    except ValueError as exc:
        diags.append(f"{origin}: bad value for '{key}': {exc}")
        return None


def _read_config_file(path: str, diags: list[str]) -> dict[str, tuple[str, int]]:
    """Parse a flat key = value file into raw entries with line numbers."""
    entries: dict[str, tuple[str, int]] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    if rc.dimension > _MAX_DIMENSION:
        diags.append(f"dimension: may be at most 2**{_MAX_DIMENSION.bit_length() - 1}")
        return None
    try:
        return QuadraticPotential(rc.curvature, d=rc.dimension)
    except ValueError as exc:
        diags.append(str(exc))
        return None


def _resolve_solver(rc: RunConfig, pot) -> SolverConfig:
    """Apply the auto policy, u = 1/M1 and gamma = max(2 sqrt(u M1), 1), naming the rule of a derived value that is not
    finite or that takes 2*gamma*u, which sigma reads, past the floats where twice the other value alone stays finite."""
    u = 1.0 / pot.meta.M1 if rc.u == "auto" else rc.u
    gamma = max(2.0 * math.sqrt(u * pot.meta.M1), 1.0) if rc.gamma == "auto" else rc.gamma
    for key, value, other, rule in (("u", u, gamma, "1/M1"), ("gamma", gamma, u, "max(2*sqrt(u*M1), 1)")):
        if getattr(rc, key) == "auto" and not 0.0 < value < math.inf:
            raise ValueError(f"{key}: 'auto' gives {rule} = {value} on this target; set {key}")
        if getattr(rc, key) == "auto" and not 2.0 * gamma * u < math.inf and 2.0 * other < math.inf:
            raise ValueError(f"{key}: 'auto' gives {rule} = {value} on this target, and 2*gamma*u overflows; set {key}")
    return SolverConfig(gamma=gamma, u=u)


def _validate(rc: RunConfig, plans: dict | None = None) -> tuple[list[str], object, SolverConfig | None]:
    """The problems of ``rc``, and the potential and solver built while checking it.

    Each experiment checks only the settings it reads: its entry in
    ``EXPERIMENTS`` returns what the study's own ``*_problems`` function
    names, and this adds the settings no study owns.  ``plans``, if given,
    gets the plans the study checked, by role.
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
    elif rc.threads > _MAX_THREADS:
        diags.append(f"threads: may be at most {_MAX_THREADS}")
    solver_problems = [
        f"{key}: must be positive (or 'auto')"
        for key in ("gamma", "u")
        if getattr(rc, key) != "auto" and getattr(rc, key) <= 0
    ]
    diags += solver_problems
    if rc.dataset and rc.label_col < 0:
        diags.append("label_col: must be nonnegative")
    if rc.out.endswith(("/", os.sep)):
        diags.append(f"out: '{rc.out}' ends in a path separator; give a file name prefix")
    # the parent of the report file itself, which a trailing separator on
    # the prefix would hide from Path(prefix).parent
    out_dir = Path(f"{_report_prefix(rc)}.csv").parent
    if "\0" in rc.out:  # only a config file can carry one
        diags.append("out: holds a NUL byte, which no file name may hold")
    elif not out_dir.is_dir():
        diags.append(f"out: directory not found: {out_dir}")

    pot = _build_potential(rc, diags)
    solver = None
    if pot is not None and not solver_problems:
        try:
            solver = _resolve_solver(rc, pot)
        except ValueError as exc:  # the auto policy can overflow on finite input
            diags.append(str(exc))
    if rc.experiment in EXPERIMENTS:
        diags += EXPERIMENTS[rc.experiment][1](rc, pot, solver, plans)
    return diags, pot, solver


def _report_prefix(rc: RunConfig) -> str:
    """Path of the reports without their .csv and .json suffixes."""
    return rc.out or f"ulmc-{rc.experiment}"


def _truth_h(rc: RunConfig) -> float:
    return rc.h / 4.0 if rc.truth_h == "auto" else rc.truth_h


def _ground_truth(rc: RunConfig, pot, solver: SolverConfig):
    if rc.dataset:
        return long_run_ground_truth(
            solver, pot, rc.truth_samples, _truth_h(rc), rc.truth_steps, rc.seed, threads=rc.threads
        )
    return gaussian_ground_truth(pot, rc.truth_samples, rc.seed)


def _dimension(pot) -> int:
    """The target's dimension, or 1, the least any target has, when it failed
    to build: that failure is its own diagnostic, and the rest are checked."""
    return pot.meta.d if pot is not None else 1


def _mixing_problems(rc: RunConfig, pot, methods, plans) -> list[str]:
    """The problems of ``sample`` or ``compare`` running ``methods``.

    Besides the runs and their reference cloud, this loads SciPy's two
    compiled distance kernels, a few milliseconds where importing
    ``scipy.optimize`` would take a large share of a small run, so that a
    missing SciPy is a diagnostic, not a traceback halfway through a run.
    """
    run = {"truth_h": _truth_h(rc), "truth_steps": rc.truth_steps} if rc.dataset else {}
    diags = mixing_problems(methods, rc.chains, rc.h, rc.checkpoints, _dimension(pot), rc.truth_samples, plans=plans, **run)
    try:
        distance_kernels()
    except ImportError as exc:
        diags.append(
            f"scipy: {rc.experiment} computes distances with SciPy, "
            f"which failed to import: {exc}"
        )
    return diags


# Each run returns (CSV header, CSV rows, report payload, summary lines).
_MIXING_HEADER = "method,grad_evals,energy_dist,w2"


def _converge(rc: RunConfig, pot, solver: SolverConfig):
    """strong-error study against a shared-path fine reference"""
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
    return "method,N,rms_error", rep.rows(), rep.to_dict(), summary


def _sample(rc: RunConfig, pot, solver: SolverConfig):
    """one method's mixing metrics against a reference cloud"""
    gt = _ground_truth(rc, pot, solver)
    rep = mixing_study(
        solver, pot, rc.method, rc.chains, rc.h, rc.checkpoints, gt, rc.seed,
        threads=rc.threads,
    )
    summary = [
        f"{rep.method}: energy {rep.energy[-1]:.6g}, w2 {rep.w2[-1]:.6g} "
        f"after {rep.grad_evals[-1]} gradient evaluations"
    ]
    return _MIXING_HEADER, rep.rows(), rep.to_dict(), summary


def _contract(rc: RunConfig, pot, solver: SolverConfig):
    """coupled-pair contraction of the two-gradient method"""
    dist = contractivity_study(solver, pot, rc.h, rc.steps, rc.pairs, rc.seed)
    factor = (dist[-1] / dist[0]) ** (1.0 / rc.steps) if dist[0] > 0 else float("nan")
    summary = [
        f"initial distance {dist[0]:.6g}, final {dist[-1]:.6g}, "
        f"per-step factor {factor:.6f}"
    ]
    payload = {"kind": "contract", "distances": dist.tolist()}
    return "step,distance", enumerate(payload["distances"]), payload, summary


def _stationary(rc: RunConfig, pot, solver: SolverConfig):
    """long-run moment statistics"""
    rep = stationary_study(
        solver, pot, rc.h, rc.chains, rc.burn_in, rc.kept, rc.seed, threads=rc.threads
    )
    summary = [f"{name} = {value:.6g}" for name, value in rep.rows()]
    return "statistic,value", rep.rows(), rep.to_dict(), summary


def _compare(rc: RunConfig, pot, solver: SolverConfig):
    """methods at matched gradient budgets"""
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
    return _MIXING_HEADER, (row for rep in reps.values() for row in rep.rows()), payload, summary


# Each experiment, in the order the parser lists them, with its run (whose docstring
# is its help line), of (rc, pot, solver), and its problems, of (rc, pot, solver, plans).
# The runs and main call the studies, the ground truths and the report
# writers by their names in this module at call time, and no entry holds
# one, so a wrapper set on this module (as perfbench/shim.py sets) sees them.
EXPERIMENTS = {
    "converge": (_converge, lambda rc, pot, solver, plans: converge_problems(
        rc.methods, rc.horizon, rc.paths, rc.levels, rc.fine_level, _dimension(pot), plans)),
    "sample": (_sample, lambda rc, pot, solver, plans: _mixing_problems(rc, pot, rc.method, plans)),
    "contract": (_contract, lambda rc, pot, solver, plans: contract_problems(
        solver, pot, rc.h, rc.steps, rc.pairs, plans) if solver is not None else []),
    "stationary": (_stationary, lambda rc, pot, solver, plans: stationary_problems(
        rc.h, rc.chains, rc.burn_in, rc.kept, _dimension(pot), plans)),
    "compare": (_compare, lambda rc, pot, solver, plans: _mixing_problems(rc, pot, rc.methods, plans)),
}

_CSV_VERSION = "ulmc-csv v2"


def _csv(kind: str, header: str, rows: Iterable[tuple]) -> str:
    """The tagged CSV of ``rows``; numbers other than ints get 17 significant digits."""
    lines = [f"# {_CSV_VERSION} {kind}", header]
    lines += [",".join(str(v) if isinstance(v, (str, int)) else format(float(v), ".17g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_text_report(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def write_json_report(path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulmc",
        description="Kinetic Langevin sampler experiments: convergence, mixing, "
        "contraction, and stationarity studies.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, metavar="|".join(EXPERIMENTS), help="; ".join(
        f"{name}: {run.__doc__}" if run.__doc__ else name for name, (run, _) in EXPERIMENTS.items()))
    parser.add_argument("--config", help="flat key = value settings file")
    for key, (default, _, help_text) in _SETTINGS.items():
        action = argparse.BooleanOptionalAction if key == "standardize" else "store"
        if default:
            help_text = f"{help_text} (default {default})"
        parser.add_argument(f"--{key.replace('_', '-')}", action=action, help=help_text)
    return parser


def main(argv=None) -> int:
    # The ~22,000 objects the imports left tracked live until exit, and
    # interpreter shutdown walks them in full collections: about 30 ms of
    # every run after main returns (2 cores, numpy 2.4).  Moving them to the
    # permanent generation leaves them out of every later collection.
    gc.freeze()
    args = _parser().parse_args(argv)
    rc, diags = _resolve(args)
    plans: dict = {}
    if not diags and rc is not None:
        diags, pot, solver = _validate(rc, plans)
    if diags:
        for diag in diags:
            print(f"ulmc: {diag}", file=sys.stderr)
        return 2

    try:
        # a divergence is aborted with context below, so the overflow
        # warnings numpy emits on the way there are just noise
        with np.errstate(over="ignore", invalid="ignore"):
            header, rows, payload, summary = EXPERIMENTS[rc.experiment][0](rc, pot, solver)
            csv_text = _csv(rc.experiment, header, rows)
    except DivergenceError as exc:
        print(f"ulmc: {exc}", file=sys.stderr)
        return 3

    prefix = _report_prefix(rc)
    csv_path = f"{prefix}.csv"
    json_path = f"{prefix}.json"
    config = asdict(rc)
    config["gamma_resolved"] = solver.gamma
    config["u_resolved"] = solver.u
    plan = {role: {k: v for k, v in asdict(p).items() if isinstance(v, int)} for role, p in plans.items()}
    report = {"experiment": rc.experiment, "config": config, "plan": plan, "report": payload}
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
