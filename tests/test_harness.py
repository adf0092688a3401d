"""Tests for the experiment drivers.

The regression oracle for fit_order is an independent least-squares fit
plus its analytic confidence band; Monte Carlo assertions (noise floors,
J-doubling) use the standard-error bounds computed in the tests.
"""

import json
import math
import sys
import threading

import numpy as np
import pytest

from ulmc import harness
from ulmc.brownian import keyed_generator
from ulmc.harness import (
    ConvergenceReport,
    MixingReport,
    OrderFit,
    compare_study,
    contract_csv,
    contractivity_study,
    convergence_csv,
    fit_order,
    gaussian_ground_truth,
    long_run_ground_truth,
    mixing_csv,
    mixing_study,
    stationary_csv,
    stationary_study,
    strong_error_study,
    write_json_report,
    write_text_report,
)
from ulmc.integrators import STEPPERS, DivergenceError, PhaseState, SolverConfig
from ulmc.metrics import EmpiricalDistribution, energy_distance_sq
from ulmc.potentials import (
    GradientCounter,
    LogisticPosterior,
    QuadraticPotential,
    synthetic_dataset,
)

rng = np.random.default_rng(20240807)

CFG = SolverConfig(gamma=2.0, u=1.0)
POT2 = QuadraticPotential(1.0, d=2)
POT1 = QuadraticPotential(1.0, d=1)


@pytest.fixture
def pooled(monkeypatch):
    """Send every target's chunks to the thread pool; collect the threads that ran them."""
    monkeypatch.setattr(harness, "_POOL_MIN_STATE", 0)
    monkeypatch.setattr(harness, "_POOL_MIN_LOGITS", 0)
    ran = set()
    initial_state = harness._initial_state

    def recording(*args, **kwargs):
        ran.add(threading.get_ident())
        return initial_state(*args, **kwargs)

    monkeypatch.setattr(harness, "_initial_state", recording)
    return ran


def _floor_energy(gt, n, seeds):
    """Noise-floor oracle: energy distance between independent exact clouds."""
    pot = QuadraticPotential([1.0, 4.0])
    vals = []
    for s in seeds:
        cloud = gaussian_ground_truth(pot, n, seed=s)
        vals.append(math.sqrt(max(energy_distance_sq(cloud, gt), 0.0)))
    return vals


def test_fit_order_exact_cubic():
    ns = [4, 8, 16, 32, 64]
    fit = fit_order([(n, 5.0 * n**-3.0) for n in ns])
    assert abs(fit.slope + 3.0) < 1e-12
    assert abs(fit.intercept - math.log2(5.0)) < 1e-12
    assert abs(fit.order - 3.0) < 1e-12


def test_fit_order_exact_first_order():
    fit = fit_order([(n, 0.25 / n) for n in (8, 16, 32, 64)])
    assert abs(fit.slope + 1.0) < 1e-12


def test_fit_order_noisy_power_law_within_band():
    # known generator: slope -2 with log2-normal noise of sd 0.05
    ns = np.array([4.0, 8, 16, 32, 64, 128, 256, 512])
    noise = rng.normal(0.0, 0.05, size=ns.size)
    errs = 3.0 * ns**-2.0 * 2.0**noise
    fit = fit_order(zip(ns, errs))
    x = np.log2(ns)
    oracle_slope, oracle_icept = np.polyfit(x, np.log2(errs), 1)
    assert abs(fit.slope - oracle_slope) < 1e-12
    assert abs(fit.intercept - oracle_icept) < 1e-12
    band = 3.0 * 0.05 / math.sqrt(float(np.sum((x - x.mean()) ** 2)))
    assert abs(fit.slope + 2.0) < band


def test_fit_order_needs_three_rows():
    with pytest.raises(ValueError):
        fit_order([(8, 0.1), (16, 0.05)])


def test_fit_order_rejects_nonpositive_errors():
    with pytest.raises(ValueError):
        fit_order([(8, 0.1), (16, 0.0), (32, 0.01)])


@pytest.fixture(scope="module")
def mini_report():
    return strong_error_study(
        CFG, POT2, ["quicsort", "ubu", "euler"], 2.0, 64, [2, 3, 4, 5], 10, seed=42
    )


def test_strong_study_identity_is_zero():
    rep = strong_error_study(CFG, POT2, ["quicsort"], 2.0, 2, [5], 5, seed=7)
    assert rep.errors["quicsort"] == (0.0,)
    assert rep.fits == {}


def test_strong_study_orders(mini_report):
    assert 2.7 < mini_report.fits["quicsort"].order < 3.3
    assert 1.8 < mini_report.fits["ubu"].order < 2.2
    assert 0.85 < mini_report.fits["euler"].order < 1.2


def test_strong_study_errors_decrease_with_n(mini_report):
    for method in mini_report.methods:
        errs = mini_report.errors[method]
        # nonincreasing up to twice the Monte Carlo noise at J = 64
        for a, b in zip(errs, errs[1:]):
            assert b < a * (1.0 + 2.0 / math.sqrt(64))


def test_strong_study_report_fields(mini_report):
    assert mini_report.step_counts == (4, 8, 16, 32)
    assert mini_report.fit_range == (4, 32)
    assert mini_report.paths == 64
    assert mini_report.fine_level == 10
    rows = list(mini_report.rows())
    assert len(rows) == 12
    assert rows[0][0] == "quicsort"


def test_strong_study_deterministic(mini_report):
    again = strong_error_study(
        CFG, POT2, ["quicsort", "ubu", "euler"], 2.0, 64, [2, 3, 4, 5], 10, seed=42
    )
    assert again.errors == mini_report.errors
    assert again.fits == mini_report.fits


def test_strong_study_thread_invariant(pooled):
    kwargs = dict(seed=42)
    one = strong_error_study(CFG, POT2, ["quicsort"], 2.0, 160, [3, 4], 8, threads=1, **kwargs)
    pooled.clear()
    four = strong_error_study(CFG, POT2, ["quicsort"], 2.0, 160, [3, 4], 8, threads=4, **kwargs)
    assert len(pooled) > 1
    assert one.errors == four.errors


def test_strong_study_thread_invariant_on_logistic_posterior(pooled):
    # chunk threads share one posterior and its precomputed design; a short
    # switch interval makes them interleave inside gradient calls
    pot = LogisticPosterior(synthetic_dataset(rows=40, d_feat=3, seed=3))
    cfg = SolverConfig(gamma=2.0, u=1.0 / pot.meta.M1)
    args = (cfg, pot, ["quicsort", "ubu"], 1.0, 192, [2, 3], 5)
    one = strong_error_study(*args, seed=8, threads=1)
    pooled.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        two = strong_error_study(*args, seed=8, threads=2)
    finally:
        sys.setswitchinterval(interval)
    assert len(pooled) > 1
    assert one.errors == two.errors


def test_chunk_workers_pool_only_wide_chunks():
    small_data = LogisticPosterior(synthetic_dataset(rows=200, d_feat=4, seed=1))
    large_data = LogisticPosterior(synthetic_dataset(rows=2000, d_feat=4, seed=1))
    assert harness._chunk_workers(QuadraticPotential(1.0, d=10), 2, 4) == 1
    assert harness._chunk_workers(small_data, 2, 4) == 1
    assert harness._chunk_workers(large_data, 2, 4) == 2
    assert harness._chunk_workers(QuadraticPotential(1.0, d=1000), 2, 4) == 2
    # never more workers than chunks, and threads stays an upper bound
    assert harness._chunk_workers(large_data, 8, 3) == 3
    assert harness._chunk_workers(large_data, 8, 1) == 1
    assert harness._chunk_workers(large_data, 1, 4) == 1


def test_counted_posterior_runs_like_the_posterior():
    # the counter exposes the dataset, so initial states come from the prior
    # and the thread rule sees its rows
    posterior = LogisticPosterior(synthetic_dataset(rows=600, d_feat=3, seed=4))
    counted = GradientCounter(posterior)
    assert counted.dataset is posterior.dataset
    assert harness._chunk_workers(counted, 2, 2) == harness._chunk_workers(posterior, 2, 2) == 2
    cfg = SolverConfig(gamma=2.0, u=1.0 / posterior.meta.M1)
    args = (0.05, 70, 2, 3, 9)
    want = stationary_study(cfg, posterior, *args)
    got = stationary_study(cfg, counted, *args)
    assert got.to_dict() == want.to_dict()
    assert counted.calls == 2 * 2 * (2 + 3)  # two chunks, two gradients a step
    assert not hasattr(GradientCounter(QuadraticPotential(1.0, d=2)), "dataset")


def test_sample_clouds_thread_invariant_at_uneven_chain_count(pooled):
    # 130 chains: two full chunks and a chunk of 2
    pot = QuadraticPotential([1.0, 4.0])
    fn = STEPPERS["ubu"]
    args = (CFG, pot, "ubu", fn, 130, 0.1, (0, 3, 7), 5, (12, 13, 14), harness._default_initial(pot))
    one = harness._evolve_positions(*args, 1)
    pooled.clear()
    two = harness._evolve_positions(*args, 2)
    assert len(pooled) > 1
    assert sorted(one) == sorted(two) == [0, 3, 7]
    for step in one:
        assert one[step].shape == (130, 2)
        np.testing.assert_array_equal(one[step], two[step])


def test_divergence_names_chunk_chain_and_magnitudes():
    # chain 70 is row 6 of chunk 1 and starts at infinity
    calls = []

    def initial(rng, shape):
        x = rng.standard_normal((*shape, 2))
        if len(calls) == 1:
            x[6, 1] = np.inf
        calls.append(shape)
        return x

    with pytest.raises(DivergenceError) as err, np.errstate(invalid="ignore", over="ignore"):
        stationary_study(CFG, POT2, 0.1, 130, 0, 5, seed=3, initial=initial)
    exc = err.value
    assert (exc.chunk, exc.chain, exc.step) == (1, 70, 1)
    assert 0.0 < exc.max_abs_x < 100.0 and 0.0 < exc.max_abs_v < 100.0
    assert "in chunk 1, first at chain 70; largest finite |x|" in str(exc)


def test_strong_study_j_doubling_within_mc_noise(mini_report):
    doubled = strong_error_study(
        CFG, POT2, ["quicsort", "ubu", "euler"], 2.0, 128, [2, 3, 4, 5], 10, seed=42
    )
    for method in mini_report.methods:
        for a, b in zip(mini_report.errors[method], doubled.errors[method]):
            assert abs(a - b) / b < 3.0 / math.sqrt(64)


def test_strong_study_validates_shared_path():
    rep = strong_error_study(
        CFG, POT2, ["quicsort", "ubu"], 1.0, 2, [2, 3], 6, seed=5, validate_path=True
    )
    assert all(e > 0 for e in rep.errors["ubu"])


def test_strong_study_rejects_bad_arguments():
    with pytest.raises(ValueError):
        strong_error_study(CFG, POT2, ["quicsort"], 2.0, 1, [2], 5, seed=0)
    with pytest.raises(ValueError):
        strong_error_study(CFG, POT2, ["quicsort"], 2.0, 4, [6], 5, seed=0)
    with pytest.raises(ValueError):
        strong_error_study(CFG, POT2, ["rk4"], 2.0, 4, [2], 5, seed=0)
    with pytest.raises(ValueError):
        strong_error_study(CFG, POT2, ["ubu"], 2.0, 4, [5], 5, seed=0)
    with pytest.raises(ValueError):
        strong_error_study(CFG, POT2, ["quicsort"], 2.0, 4, [], 5, seed=0)
    with pytest.raises(ValueError):
        strong_error_study(CFG, POT2, ["quicsort"], 0.0, 4, [2], 5, seed=0)


def test_strong_study_checks_initial_shape():
    bad = lambda rng_, shape: rng_.standard_normal((*shape, 3))
    with pytest.raises(ValueError):
        strong_error_study(CFG, POT2, ["quicsort"], 2.0, 4, [2], 5, seed=0, initial=bad)


def test_contractivity_identical_pairs_stay_identical():
    g = keyed_generator(99, 8, 0)
    x = g.standard_normal((50, 1))
    v = g.standard_normal((50, 1))
    pair = (PhaseState(x, v), PhaseState(x.copy(), v.copy()))
    dist = contractivity_study(CFG, POT1, 0.05, 20, 50, seed=11, initial_pairs=pair)
    assert dist.shape == (21,)
    assert np.all(dist == 0.0)


def test_contractivity_strictly_decreasing():
    dist = contractivity_study(CFG, POT1, 0.05, 60, 300, seed=11)
    assert dist[0] > 0.0
    assert np.all(np.diff(dist) < 0.0)


def test_contractivity_halving_h_weakens_per_step_decay():
    base = contractivity_study(CFG, POT1, 0.05, 60, 300, seed=11)
    halved = contractivity_study(CFG, POT1, 0.025, 60, 300, seed=11)
    factor = lambda d: (d[-1] / d[0]) ** (1.0 / 60.0)
    assert factor(base) < factor(halved) < 1.0


def test_contractivity_preconditions():
    weak = SolverConfig(gamma=1.0, u=1.0)  # gamma < 2 sqrt(u M1) = 2
    with pytest.raises(ValueError):
        contractivity_study(weak, POT1, 0.04, 10, 10, seed=0)
    with pytest.raises(ValueError):
        contractivity_study(CFG, POT1, 0.2, 10, 10, seed=0)  # h > 0.1 / gamma
    with pytest.raises(ValueError):
        contractivity_study(CFG, POT1, 0.05, 0, 10, seed=0)


@pytest.fixture(scope="module")
def aniso_truth():
    pot = QuadraticPotential([1.0, 4.0])
    return pot, gaussian_ground_truth(pot, 2048, seed=500)


def test_mixing_zero_steps_at_noise_floor(aniso_truth):
    pot, _ = aniso_truth
    prior_cloud = EmpiricalDistribution(np.random.default_rng(3).standard_normal((2048, 2)))
    rep = mixing_study(CFG, pot, "quicsort", 512, 0.2, [0], prior_cloud, seed=78)
    floors = []
    for s in range(5):
        cloud = EmpiricalDistribution(np.random.default_rng(50 + s).standard_normal((512, 2)))
        floors.append(math.sqrt(max(energy_distance_sq(cloud, prior_cloud), 0.0)))
    assert rep.energy[0] < 3.0 * float(np.mean(floors))


def test_mixing_energy_decays_to_noise_floor(aniso_truth):
    pot, gt = aniso_truth
    rep = mixing_study(CFG, pot, "quicsort", 512, 0.2, [0, 2, 5, 10, 25, 50], gt, seed=77)
    floors = _floor_energy(gt, 512, seeds=range(1000, 1005))
    floor = float(np.mean(floors))
    assert rep.energy[-1] < rep.energy[0] / 2.5
    assert rep.energy[-1] < 2.0 * max(floors)
    for a, b in zip(rep.energy, rep.energy[1:]):
        assert b < a + 2.0 * floor
    assert rep.w2[-1] < rep.w2[0]


def test_mixing_gradient_accounting(aniso_truth):
    pot, gt = aniso_truth
    cps = [0, 2, 5, 10]
    fast = mixing_study(CFG, pot, "quicsort", 128, 0.2, cps, gt, seed=9)
    slow = mixing_study(CFG, pot, "ubu", 128, 0.2, cps, gt, seed=9)
    assert fast.grad_evals == tuple(2 * c * 128 for c in cps)
    assert slow.grad_evals == tuple(1 * c * 128 for c in cps)


def test_mixing_deterministic_with_cap(aniso_truth):
    pot, gt = aniso_truth
    kwargs = dict(metric_cap=64)
    a = mixing_study(CFG, pot, "quicsort", 96, 0.2, [3], gt, seed=21, **kwargs)
    b = mixing_study(CFG, pot, "quicsort", 96, 0.2, [3], gt, seed=21, **kwargs)
    assert a == b
    assert a.w2[0] > 0.0


def test_mixing_rejects_bad_arguments(aniso_truth):
    pot, gt = aniso_truth
    with pytest.raises(ValueError):
        mixing_study(CFG, pot, "quicsort", 8, 0.2, [], gt, seed=0)
    with pytest.raises(ValueError):
        mixing_study(CFG, pot, "quicsort", 8, 0.2, [5, 5], gt, seed=0)
    with pytest.raises(ValueError):
        mixing_study(CFG, pot, "quicsort", 8, 0.0, [5], gt, seed=0)
    with pytest.raises(ValueError):
        mixing_study(CFG, pot, "quicsort", 0, 0.2, [5], gt, seed=0)
    with pytest.raises(ValueError):
        mixing_study(CFG, pot, "leapfrog", 8, 0.2, [5], gt, seed=0)


def test_compare_budgets_and_times_match(aniso_truth):
    pot, gt = aniso_truth
    reps = compare_study(CFG, pot, 128, 0.2, [2, 5, 10], gt, seed=79)
    assert set(reps) == {"quicsort", "ubu", "euler"}
    assert reps["quicsort"].grad_evals == reps["ubu"].grad_evals == reps["euler"].grad_evals
    assert reps["ubu"].step_size == pytest.approx(0.1)
    assert reps["ubu"].checkpoints == (4, 10, 20)
    assert reps["quicsort"].checkpoints == (2, 5, 10)
    # same physical horizon per checkpoint
    for name, rep in reps.items():
        assert rep.checkpoints[-1] * rep.step_size == pytest.approx(2.0)


def test_gaussian_ground_truth_moments():
    pot = QuadraticPotential([0.5, 2.0], center=[1.0, -1.0])
    cloud = gaussian_ground_truth(pot, 20000, seed=4)
    var = cloud.samples.var(axis=0)
    mean = cloud.samples.mean(axis=0)
    assert np.allclose(var, [2.0, 0.5], rtol=0.05)
    assert np.allclose(mean, [1.0, -1.0], atol=0.05)


def test_long_run_ground_truth_near_exact_law(aniso_truth):
    pot, gt = aniso_truth
    cloud = long_run_ground_truth(CFG, pot, 256, 0.05, 400, seed=81)
    assert cloud.n == 256
    energy = math.sqrt(max(energy_distance_sq(cloud, gt), 0.0))
    assert energy < 0.2
    assert np.allclose(cloud.samples.var(axis=0), [1.0, 0.25], rtol=0.25)


def test_stationary_moments_gaussian():
    cfg = SolverConfig(gamma=2.0, u=1.5)
    pot = QuadraticPotential(1.0, d=3)
    rep = stationary_study(cfg, pot, 0.05, 32, 300, 3000, seed=13)
    ud = 1.5 * 3
    assert rep.mean_v_sq == pytest.approx(ud, rel=0.03)
    assert rep.mean_x_sq == pytest.approx(3.0, rel=0.03)
    assert rep.v_l2 == pytest.approx(math.sqrt(ud), rel=0.015)
    assert rep.v_l4 == pytest.approx(3.0**0.25 * math.sqrt(ud), rel=0.03)
    assert rep.v_l6 == pytest.approx(15.0 ** (1.0 / 6.0) * math.sqrt(ud), rel=0.03)


def test_stationary_thread_invariant(pooled):
    rep1 = stationary_study(CFG, POT2, 0.1, 96, 50, 200, seed=6, threads=1)
    pooled.clear()
    rep3 = stationary_study(CFG, POT2, 0.1, 96, 50, 200, seed=6, threads=3)
    assert len(pooled) > 1
    assert rep1 == rep3


def test_stationary_rejects_bad_arguments():
    with pytest.raises(ValueError):
        stationary_study(CFG, POT2, 0.1, 0, 10, 10, seed=0)
    with pytest.raises(ValueError):
        stationary_study(CFG, POT2, 0.1, 4, -1, 10, seed=0)
    with pytest.raises(ValueError):
        stationary_study(CFG, POT2, 0.1, 4, 10, 0, seed=0)
    with pytest.raises(ValueError):
        stationary_study(CFG, POT2, 0.0, 4, 10, 10, seed=0)


def test_report_invariants_enforced():
    with pytest.raises(ValueError):
        ConvergenceReport(
            methods=("quicsort",), step_counts=(8, 8), errors={"quicsort": (0.1, 0.2)},
            fits={}, paths=4, horizon=1.0, fine_level=5, seed=0,
        )
    with pytest.raises(ValueError):
        ConvergenceReport(
            methods=("quicsort",), step_counts=(8, 16), errors={"quicsort": (0.1, -0.2)},
            fits={}, paths=4, horizon=1.0, fine_level=5, seed=0,
        )
    with pytest.raises(ValueError):
        MixingReport(
            method="quicsort", step_size=0.1, n_chains=4, checkpoints=(1, 2),
            grad_evals=(16, 8), energy=(0.5, 0.4), w2=(0.5, 0.4), seed=0,
        )


def test_convergence_csv_schema(mini_report):
    text = convergence_csv(mini_report)
    lines = text.splitlines()
    assert lines[0] == "# ulmc-csv v1 converge"
    assert lines[1] == "method,N,rms_error"
    assert len(lines) == 2 + 12
    method, n, err = lines[2].split(",")
    assert method == "quicsort" and int(n) == 4
    assert float(err) == mini_report.errors["quicsort"][0]
    assert text.endswith("\n")


def test_mixing_csv_schema(aniso_truth):
    pot, gt = aniso_truth
    rep = mixing_study(CFG, pot, "quicsort", 64, 0.2, [0, 3], gt, seed=1)
    text = mixing_csv({"quicsort": rep}, kind="compare")
    lines = text.splitlines()
    assert lines[0] == "# ulmc-csv v1 compare"
    assert lines[1] == "method,grad_evals,energy_dist,w2"
    assert lines[2].startswith("quicsort,0,")
    with pytest.raises(ValueError):
        mixing_csv(rep, kind="mix")


def test_contract_and_stationary_csv():
    text = contract_csv([1.0, 0.5, 0.25])
    assert text.splitlines()[0] == "# ulmc-csv v1 contract"
    assert text.splitlines()[2] == "0,1"
    assert text.splitlines()[3] == "1,0.5"
    rep = stationary_study(CFG, POT2, 0.1, 8, 10, 20, seed=2)
    stat = stationary_csv(rep)
    lines = stat.splitlines()
    assert lines[0] == "# ulmc-csv v1 stationary"
    assert lines[1] == "statistic,value"
    assert lines[2].startswith("mean_x_sq,")


def test_report_files_are_reproducible(tmp_path, mini_report):
    path = tmp_path / "converge.csv"
    write_text_report(path, convergence_csv(mini_report))
    first = path.read_bytes()
    write_text_report(path, convergence_csv(mini_report))
    assert path.read_bytes() == first
    assert b"\r" not in first

    jpath = tmp_path / "converge.json"
    payload = {"config": {"seed": 42, "gamma": 2.0}, "report": mini_report.to_dict()}
    write_json_report(jpath, payload)
    loaded = json.loads(jpath.read_text())
    assert loaded["config"]["seed"] == 42
    assert loaded["report"]["fits"]["quicsort"]["order"] == mini_report.fits["quicsort"].order
    assert jpath.read_text().endswith("\n")
