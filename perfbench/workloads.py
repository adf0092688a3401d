"""The three benchmark workloads: CLI inputs, closed-form counts and output checks.

Each workload is one ``ulmc`` experiment driven by a flat config file.  The
inputs are made from the benchmark seed alone: the seed is the CLI's master
seed and, for the logistic target, the seed of the synthetic dataset the
benchmark writes as CSV.

The closed-form counts below follow from the settings and from the harness
working in chunks of ``CHUNK`` paths or chains, each chunk making one batched
call per gradient, split, increment and step.  ``chain_grads`` is the paper's
cost model: gradient evaluations summed over every chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Paths and chains per batched call; the harness's fixed noise-layout chunk.
CHUNK = 64

# Gradient evaluations per step of each stepper.
GRAD_EVALS = {"quicsort": 2, "ubu": 1, "euler": 1}
METHODS = ("quicsort", "ubu", "euler")

# Fitted strong orders must fall in these windows on converge-logistic.
ORDER_WINDOWS = {"quicsort": (2.65, 3.35), "ubu": (1.7, 2.3), "euler": (0.8, 1.2)}

# Stationary moments must be within this relative distance of their closed forms.
MOMENT_TOLERANCE = 0.03


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    settings: dict[str, str]
    counts: Callable[[dict[str, str]], dict[str, int]]
    chain_grads: Callable[[dict[str, str]], int]
    check: Callable[[dict[str, str], dict], list[str]]
    needs_dataset: bool = False

    def write_inputs(self, seed: int, tmp: Path) -> list[str]:
        """Write the config (and dataset) for ``seed``; return the CLI arguments."""
        lines = [f"{key} = {value}" for key, value in self.settings.items()]
        if self.needs_dataset:
            data = tmp / "dataset.csv"
            _write_dataset(data, seed)
            lines += [f"dataset = {data}", "label_col = 0"]
        config = tmp / f"{self.name}.cfg"
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return [self.experiment, "--config", str(config), "--seed", str(seed)]


def _write_dataset(path: Path, seed: int) -> None:
    import numpy as np
    from ulmc.potentials import synthetic_dataset

    data = synthetic_dataset(rows=200, d_feat=4, seed=seed)
    table = np.column_stack([data.labels, data.features])
    np.savetxt(path, table, fmt="%.17g", delimiter=",")


def _chunks(total: int) -> int:
    return -(-total // CHUNK)


def _levels(raw: str) -> list[int]:
    lo, _, hi = raw.partition(":")
    return list(range(int(lo), int(hi) + 1))


def _methods(s: dict[str, str]) -> list[str]:
    return s["methods"].split(",")


# converge: every chunk walks one dyadic tree to fine_level, splitting each
# node above it once; each method steps 2**level times per coarse level and
# the quicsort reference 2**fine_level times.


def _converge_steps(s: dict[str, str]) -> dict[str, int]:
    coarse = sum(2**lvl for lvl in _levels(s["levels"]))
    steps = {m: coarse for m in _methods(s)}
    steps["quicsort"] = steps.get("quicsort", 0) + 2 ** int(s["fine_level"])
    return steps


def _converge_counts(s: dict[str, str]) -> dict[str, int]:
    chunks = _chunks(int(s["paths"]))
    steps = _converge_steps(s)
    return {
        "potentials.grad": chunks * sum(GRAD_EVALS[m] * n for m, n in steps.items()),
        "brownian.split": chunks * (2 ** int(s["fine_level"]) - 1),
        "brownian.increment": 0,
        **{f"integrators.step_calls.{m}": chunks * steps.get(m, 0) for m in METHODS},
        "metrics.w2": 0,
        "metrics.energy": 0,
        "harness.chunks": chunks,
    }


def _converge_chain_grads(s: dict[str, str]) -> int:
    return int(s["paths"]) * sum(GRAD_EVALS[m] * n for m, n in _converge_steps(s).items())


def _converge_check(s: dict[str, str], report: dict) -> list[str]:
    fits = report["report"]["fits"]
    problems = []
    for m in _methods(s):
        lo, hi = ORDER_WINDOWS[m]
        order = fits.get(m, {}).get("order")
        if order is None or not lo <= order <= hi:
            problems.append(f"{m} order {order} outside [{lo}, {hi}]")
    return problems


# stationary: every chunk runs burn_in + kept quicsort steps, one increment each.


def _stationary_steps(s: dict[str, str]) -> int:
    return int(s["burn_in"]) + int(s["kept"])


def _stationary_counts(s: dict[str, str]) -> dict[str, int]:
    chunks = _chunks(int(s["chains"]))
    steps = chunks * _stationary_steps(s)
    return {
        "potentials.grad": GRAD_EVALS["quicsort"] * steps,
        "brownian.split": 0,
        "brownian.increment": steps,
        "integrators.step_calls.quicsort": steps,
        "integrators.step_calls.ubu": 0,
        "integrators.step_calls.euler": 0,
        "metrics.w2": 0,
        "metrics.energy": 0,
        "harness.chunks": chunks,
    }


def _stationary_chain_grads(s: dict[str, str]) -> int:
    return GRAD_EVALS["quicsort"] * int(s["chains"]) * _stationary_steps(s)


def _stationary_check(s: dict[str, str], report: dict) -> list[str]:
    rep = report["report"]
    d, u, curvature = int(s["dimension"]), float(s["u"]), float(s["curvature"])
    closed = {
        "mean_x_sq": d / curvature,
        "mean_v_sq": u * d,
        "v_l4": 3.0**0.25 * math.sqrt(u * d),
    }
    return [
        f"{key} = {rep[key]:.6g}, closed form {want:.6g}"
        for key, want in closed.items()
        if not abs(rep[key] / want - 1.0) <= MOMENT_TOLERANCE
    ]


# compare: a one-gradient method runs twice the steps of quicsort at half the
# step, so every method spends the same gradients; every step draws one
# increment, and each checkpoint computes one W2 and one energy distance.


def _compare_steps(s: dict[str, str]) -> dict[str, int]:
    last = max(int(c) for c in s["checkpoints"].split(","))
    return {m: last * 2 // GRAD_EVALS[m] for m in _methods(s)}


def _compare_counts(s: dict[str, str]) -> dict[str, int]:
    chunks = _chunks(int(s["chains"]))
    steps = _compare_steps(s)
    metric_calls = len(steps) * len(s["checkpoints"].split(","))
    return {
        "potentials.grad": chunks * sum(GRAD_EVALS[m] * n for m, n in steps.items()),
        "brownian.split": 0,
        "brownian.increment": chunks * sum(steps.values()),
        **{f"integrators.step_calls.{m}": chunks * steps.get(m, 0) for m in METHODS},
        "metrics.w2": metric_calls,
        "metrics.energy": metric_calls,
        "harness.chunks": chunks * len(steps),
    }


def _compare_chain_grads(s: dict[str, str]) -> int:
    return int(s["chains"]) * sum(GRAD_EVALS[m] * n for m, n in _compare_steps(s).items())


def _compare_check(s: dict[str, str], report: dict) -> list[str]:
    reps = report["report"]
    problems = []
    budgets = {tuple(rep["grad_evals"]) for rep in reps.values()}
    if len(budgets) != 1:
        problems.append(f"gradient budgets differ across methods: {sorted(budgets)}")
    for m, rep in reps.items():
        if not rep["energy"][-1] < rep["energy"][0]:
            problems.append(
                f"{m} energy distance did not fall: {rep['energy'][0]:.6g} -> {rep['energy'][-1]:.6g}"
            )
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="converge-logistic",
            experiment="converge",
            settings={
                "gamma": "2.0",
                "methods": "quicsort,ubu,euler",
                "levels": "3:5",
                "fine_level": "8",
                "paths": "128",
                "horizon": "5.0",
            },
            counts=_converge_counts,
            chain_grads=_converge_chain_grads,
            check=_converge_check,
            needs_dataset=True,
        ),
        Workload(
            name="stationary-gauss",
            experiment="stationary",
            settings={
                "dimension": "10",
                "curvature": "1.0",
                "gamma": "2.0",
                "u": "1.0",
                "h": "0.05",
                "chains": "128",
                "burn_in": "200",
                "kept": "1000",
            },
            counts=_stationary_counts,
            chain_grads=_stationary_chain_grads,
            check=_stationary_check,
        ),
        Workload(
            name="compare-gauss",
            experiment="compare",
            settings={
                "dimension": "10",
                # chains start from N(0, I); a stiffer target makes them travel
                "curvature": "4.0",
                "methods": "quicsort,ubu,euler",
                "h": "0.1",
                "chains": "640",
                "checkpoints": "0,2,10",
                "truth_samples": "640",
            },
            counts=_compare_counts,
            chain_grads=_compare_chain_grads,
            check=_compare_check,
        ),
    )
}
