"""Acceptance suite: one test per shipped guarantee, one printed verdict each.

Every test exercises the package the way a user would and checks an
advertised tolerance, printing a PASS/FAIL line with the measured numbers
so a test log shows the whole gate at a glance.  The heavy entries (the
convergence-order study and the long stationary run) take about a minute
combined on one core.
"""

import itertools
from functools import reduce

import numpy as np
import pytest

from ulmc.brownian import BrownianPath, DyadicBrownianTree, combine, sample_increment
from ulmc.cli import main
from ulmc.harness import contractivity_study, stationary_study, strong_error_study
from ulmc.integrators import PhaseState, SolverConfig, simulate
from ulmc.metrics import energy_distance_sq, wasserstein2
from ulmc.potentials import (
    GradientCounter,
    LogisticPosterior,
    QuadraticPotential,
    synthetic_dataset,
)

SEED = 20240822


def _verdict(capsys, ok, label, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.mark.slow
def test_convergence_orders(capsys):
    """Fitted strong-error slopes on a Bayesian logistic posterior (d=5, 200 rows)."""
    pot = LogisticPosterior(synthetic_dataset(200, 4))
    cfg = SolverConfig(gamma=2.0, u=1.0 / pot.meta.M1)
    report = strong_error_study(
        cfg, pot, ("quicsort", "ubu", "euler"), horizon=10.0, paths=256,
        coarse_levels=range(3, 10), fine_level=14, seed=SEED,
    )
    windows = {"quicsort": (2.65, 3.35), "ubu": (1.7, 2.3), "euler": (0.8, 1.2)}
    orders = {m: report.fits[m].order for m in windows}
    ok = all(lo <= orders[m] <= hi for m, (lo, hi) in windows.items())
    detail = ", ".join(
        f"{m} {orders[m]:.3f} in [{lo}, {hi}]" for m, (lo, hi) in windows.items()
    )
    _verdict(capsys, ok, "1/8 convergence orders", detail)


def test_coefficient_law(capsys):
    """Sampled interval coefficients match their variances and are uncorrelated."""
    rng = np.random.default_rng(SEED)
    inc = sample_increment(rng, 1.0, 1, shape=(10**6,))
    cols = {"W": inc.w[:, 0], "H": inc.h[:, 0], "K": inc.k[:, 0]}
    targets = {"W": 1.0, "H": 1.0 / 12.0, "K": 1.0 / 720.0}
    rel = {n: abs(np.var(c) / targets[n] - 1.0) for n, c in cols.items()}
    corr = {
        f"{a}{b}": abs(float(np.corrcoef(cols[a], cols[b])[0, 1]))
        for a, b in itertools.combinations(cols, 2)
    }
    ok = max(rel.values()) < 0.02 and max(corr.values()) < 0.005
    detail = (
        f"var rel err max {max(rel.values()):.2e} < 2e-2, "
        f"|corr| max {max(corr.values()):.2e} < 5e-3 (n=1e6)"
    )
    _verdict(capsys, ok, "2/8 coefficient law", detail)


def _leaves(tree, inc, index, depth):
    if depth == 0:
        return [inc]
    left, right = tree.split(inc, index)
    return _leaves(tree, left, 2 * index, depth - 1) + _leaves(
        tree, right, 2 * index + 1, depth - 1
    )


def _rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def test_composition_exactness(capsys):
    """Folding a depth-8 refinement back together reproduces the root draw."""
    fold_gap = 0.0
    trip_gap = 0.0
    for seed, horizon in ((SEED, 1.0), (SEED + 1, 1.5), (SEED + 2, 0.75)):
        tree = DyadicBrownianTree(seed=seed, d=2, horizon=horizon)
        root = tree.root()
        folded = reduce(combine, _leaves(tree, root, 1, 8))
        for name in ("w", "h", "k"):
            fold_gap = max(fold_gap, _rel_gap(getattr(folded, name), getattr(root, name)))
        left, right = tree.split(root, 1)
        back = combine(left, right)
        for name in ("w", "h", "k"):
            trip_gap = max(trip_gap, _rel_gap(getattr(back, name), getattr(root, name)))
    ok = fold_gap <= 1e-12 and trip_gap <= 1e-13
    detail = f"256-leaf fold rel {fold_gap:.2e} <= 1e-12, round-trip rel {trip_gap:.2e} <= 1e-13"
    _verdict(capsys, ok, "3/8 composition exactness", detail)


@pytest.mark.slow
def test_stationary_moments(capsys):
    """Long-run moments on the standard Gaussian target in ten dimensions."""
    cfg = SolverConfig(gamma=2.0, u=1.0)
    pot = QuadraticPotential(1.0, d=10)
    rep = stationary_study(cfg, pot, h=0.05, n_chains=64, burn_in=10**4, kept=10**5, seed=SEED)
    l4_target = 3.0**0.25 * np.sqrt(10.0)
    rel = {
        "E|v|^2": abs(rep.mean_v_sq / 10.0 - 1.0),
        "E|x|^2": abs(rep.mean_x_sq / 10.0 - 1.0),
        "L4(v)": abs(rep.v_l4 / l4_target - 1.0),
    }
    ok = max(rel.values()) < 0.03
    detail = ", ".join(f"{k} rel err {v:.2e}" for k, v in rel.items()) + " (tol 3e-2)"
    _verdict(capsys, ok, "4/8 stationary moments", detail)


def test_contractivity(capsys):
    """Coupled-pair transformed distance decreases at every one of 200 steps."""
    cfg = SolverConfig(gamma=2.0, u=1.0)
    pot = QuadraticPotential(1.0, d=10)
    dist = contractivity_study(cfg, pot, h=0.05, n_steps=200, n_pairs=1000, seed=SEED)
    steps_down = int(np.sum(np.diff(dist) < 0))
    factor = (dist[-1] / dist[0]) ** (1.0 / 200.0)
    ok = steps_down == 200
    detail = f"{steps_down}/200 steps strictly decreasing, per-step factor {factor:.5f}"
    _verdict(capsys, ok, "5/8 contractivity", detail)


def test_gradient_accounting(capsys):
    """Exactly two gradient calls per five-stage step and one per splitting step."""
    cfg = SolverConfig(gamma=2.0, u=1.0)
    times = np.linspace(0.0, 1.0, 18)
    init = PhaseState(np.full(3, 0.5), np.zeros(3))
    calls = {}
    for method in ("quicsort", "ubu"):
        counter = GradientCounter(QuadraticPotential(1.0, d=3))
        path = BrownianPath(seed=SEED, d=3)
        simulate(cfg, counter, init, path, times, method)
        calls[method] = counter.calls
    ok = calls["quicsort"] == 2 * 17 and calls["ubu"] == 17
    detail = (
        f"quicsort {calls['quicsort']} calls over 17 steps (want 34), "
        f"ubu {calls['ubu']} (want 17)"
    )
    _verdict(capsys, ok, "6/8 gradient accounting", detail)


def test_metric_oracles(capsys):
    """Distances agree with brute-force pair sums and exhaustive matchings."""
    rng = np.random.default_rng(SEED)
    a = rng.standard_normal((64, 3))
    b = rng.standard_normal((64, 3)) + 0.25

    def pair_mean(x, y):
        total = 0.0
        for xi in x:
            for yj in y:
                total += float(np.sqrt(np.sum((xi - yj) ** 2)))
        return total / (len(x) * len(y))

    energy_oracle = 2.0 * pair_mean(a, b) - pair_mean(a, a) - pair_mean(b, b)
    energy_gap = abs(energy_distance_sq(a, b) - energy_oracle)

    p = rng.standard_normal((6, 2))
    q = rng.standard_normal((6, 2))
    best = min(
        float(np.mean(np.sum((p - q[list(perm)]) ** 2, axis=1)))
        for perm in itertools.permutations(range(6))
    )
    perm_gap = abs(wasserstein2(p, q) - np.sqrt(best))

    u = rng.standard_normal(1000)
    w = rng.standard_normal(1000) + 0.3
    sorted_w2 = float(np.sqrt(np.mean((np.sort(u) - np.sort(w)) ** 2)))
    flat = abs(wasserstein2(u[:, None], w[:, None]) - sorted_w2)
    lifted = abs(
        wasserstein2(np.column_stack([u, np.zeros(1000)]), np.column_stack([w, np.zeros(1000)]))
        - sorted_w2
    )
    line_gap = max(flat, lifted)

    ok = energy_gap <= 1e-12 and perm_gap <= 1e-12 and line_gap <= 1e-12
    detail = (
        f"energy vs pair sums {energy_gap:.1e}, transport vs 720 matchings "
        f"{perm_gap:.1e}, vs sorted n=1000 {line_gap:.1e} (tol 1e-12)"
    )
    _verdict(capsys, ok, "7/8 metric oracles", detail)


def test_rerun_determinism(capsys, tmp_path, monkeypatch):
    """Each experiment rerun on one seed writes byte-identical CSV output."""
    monkeypatch.chdir(tmp_path)
    configs = {
        "converge": "levels = 2:3\nfine_level = 6\npaths = 8\nhorizon = 0.5\ndimension = 2\n",
        "sample": "chains = 16\ncheckpoints = 0,3\ntruth_samples = 64\ndimension = 2\nh = 0.1\n",
        "contract": "steps = 20\npairs = 50\ndimension = 2\n",
        "stationary": "chains = 8\nburn_in = 20\nkept = 50\ndimension = 2\n",
        "compare": "chains = 16\ncheckpoints = 0,3\ntruth_samples = 64\ndimension = 2\nh = 0.1\n",
    }
    identical = {}
    for experiment, text in configs.items():
        cfg = tmp_path / f"{experiment}.cfg"
        cfg.write_text(text)
        argv = [
            experiment, "--config", str(cfg), "--seed", str(SEED), "--out", experiment,
        ]
        assert main(argv) == 0
        first = (tmp_path / f"{experiment}.csv").read_bytes()
        assert main(argv) == 0
        identical[experiment] = (tmp_path / f"{experiment}.csv").read_bytes() == first
    ok = all(identical.values())
    detail = ", ".join(f"{k} {'ok' if v else 'DIFFERS'}" for k, v in identical.items())
    _verdict(capsys, ok, "8/8 rerun determinism", detail)
