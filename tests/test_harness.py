"""Tests for the experiment drivers.

The regression oracle for fit_order is an independent least-squares fit
plus its analytic confidence band; Monte Carlo assertions (noise floors,
J-doubling) use the standard-error bounds computed in the tests.
"""

import math
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ulmc import cli, harness, metrics
from ulmc.brownian import BrownianPath, DyadicBrownianTree, chunk_key, keyed_generator
from ulmc.harness import (
    ConvergenceReport,
    MixingReport,
    OrderFit,
    StationaryReport,
    compare_study,
    contractivity_study,
    converge_problems,
    fit_order,
    gaussian_ground_truth,
    long_run_ground_truth,
    mixing_study,
    stationary_study,
    strong_error_study,
)
from ulmc.integrators import STEPPERS, DivergenceError, PhaseState, SolverConfig
from ulmc.metrics import EmpiricalDistribution, energy_distance_sq, subsample, wasserstein2
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


_MEET_TIMEOUT = 30.0  # seconds a recorder waits for a second thread


class _Ran(set):
    """Threads that started chunks; ``metrics`` holds the threads that measured.

    The calling thread works in every pool, so it could take every job before
    a helper wakes.  After :meth:`meet`, the first record of each of the first
    two threads in a set waits at a two-party barrier (up to
    ``_MEET_TIMEOUT``), so a pool whose helpers work records two threads every
    time, and one that runs all in one thread records one.
    """

    def __init__(self):
        super().__init__()
        self.metrics = set()
        self._barriers: dict[str, threading.Barrier] = {}
        self._lock = threading.Lock()

    def clear(self):
        super().clear()
        self.metrics.clear()
        self._barriers.clear()

    def meet(self, *kinds: str) -> None:
        """Forget the threads seen so far, and make the first two threads of each
        of ``kinds`` ("chunks", "metrics") meet."""
        self.clear()
        self._barriers = {kind: threading.Barrier(2) for kind in kinds}

    def record(self, kind: str) -> None:
        ran = self if kind == "chunks" else self.metrics
        ident = threading.get_ident()
        with self._lock:
            first_two = ident not in ran and len(ran) < 2
            ran.add(ident)
        barrier = self._barriers.get(kind)
        if first_two and barrier is not None:
            try:
                barrier.wait(_MEET_TIMEOUT)
            except threading.BrokenBarrierError:  # no second thread came; the test's assert says so
                pass


def _record_metric_threads(monkeypatch, ran: _Ran) -> None:
    """Record the thread of every distance the harness computes."""
    for name in ("wasserstein2", "energy_distance_sq"):

        def recording(*args, _fn=getattr(harness, name), **kwargs):
            ran.record("metrics")
            return _fn(*args, **kwargs)

        monkeypatch.setattr(harness, name, recording)


@pytest.fixture
def pooled(monkeypatch):
    """Send every target's chunks and every checkpoint's distances to the thread
    pools; collect the threads that ran them."""
    monkeypatch.setattr(harness, "_POOL_MIN_STATE", 0)
    monkeypatch.setattr(harness, "_POOL_MIN_LOGITS", 0)
    ran = _Ran()
    initial_state = harness._initial_state

    def recording(*args, **kwargs):
        ran.record("chunks")
        return initial_state(*args, **kwargs)

    monkeypatch.setattr(harness, "_initial_state", recording)
    _record_metric_threads(monkeypatch, ran)
    return ran


def _start_chain_70_at_infinity(monkeypatch):
    """Chain 70 is row 6 of chunk 1: make its initial position infinite."""
    initial_state = harness._initial_state

    def patched(cfg, pot, seed, tags, chunk, size):
        state = initial_state(cfg, pot, seed, tags, chunk, size)
        if chunk == 1:
            state.x[6, 1] = np.inf
        return state

    monkeypatch.setattr(harness, "_initial_state", patched)


def _contract_pairs(monkeypatch, a, b):
    """Make contractivity_study start its pairs at ``a`` and ``b`` (with u = 1)."""
    draws = iter([a.x, a.v, b.x, b.v])
    fake = types.SimpleNamespace(standard_normal=lambda shape: next(draws))

    def patched(seed, tag, chunk):
        return fake if tag == harness._TAG_CONTRACT_INIT else keyed_generator(seed, tag, chunk)

    monkeypatch.setattr(harness, "keyed_generator", patched)


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


def test_fit_order_needs_two_distinct_step_counts():
    with pytest.raises(ValueError, match="distinct step counts"):
        fit_order([(4, 1.0), (4, 0.5), (4, 0.25)])
    assert fit_order([(4, 1.0), (4, 0.5), (8, 0.25)]).slope < 0.0


def test_fine_level_must_fit_the_noise_index():
    # tree node indices stay below 2**fine_level and must fit a 64-bit counter word
    # (fine_level 64 fits it, but plans too many steps to run)
    index_problem = "fit the 64-bit noise index"
    assert not any(index_problem in p for p in converge_problems(["quicsort"], 1.0, 2, [3, 4, 5], 64, 1))
    for fine_level in (65, 1500):
        problems = converge_problems(["quicsort"], 1.0, 2, [3, 4, 5], fine_level, 1)
        assert problems and problems[0].startswith("fine_level: ") and index_problem in problems[0]
        with pytest.raises(ValueError, match="^fine_level: "):
            strong_error_study(CFG, POT2, ["quicsort"], 1.0, 2, [3, 4, 5], fine_level, seed=1)


def test_converge_plans_at_most_max_reference_steps():
    # chunks of 64 paths times 2**fine_level reference steps each
    def plan_problems(paths, fine_level):
        return [p for p in converge_problems(["quicsort"], 1.0, paths, [3, 4, 5], fine_level, 1)
                if "a run may plan" in p]

    assert harness._MAX_CHUNK_STEPS == 2**30
    assert plan_problems(256, 14) == []  # the defaults and the acceptance study
    assert plan_problems(64, 11) == []  # demos/convergence_orders.py
    assert plan_problems(64, 30) == plan_problems(64 * 64, 24) == []
    assert plan_problems(2, 40) == [
        "fine_level: the reference would take 2**40 steps on each of 1 chunks of paths, "
        "above the 2**30 a run may plan (about a day)"
    ]
    assert len(plan_problems(65, 30)) == len(plan_problems(64 * 64 + 1, 24)) == 1


def test_every_study_plans_at_most_max_chunk_steps():
    def plan_problems(problems):
        return [p for p in problems if "a run may plan" in p]

    budget = harness._MAX_CHUNK_STEPS
    # chunks of 64 chains times burn_in + kept steps, named by the larger setting
    assert plan_problems(harness.stationary_problems(0.1, 64, 10, budget - 10, 1)) == []
    assert plan_problems(harness.stationary_problems(0.1, 65, 10, budget // 2 - 10, 1)) == []
    assert plan_problems(harness.stationary_problems(0.1, 65, 10, budget // 2, 1)) == [
        "kept: burn_in + kept would take 536870922 steps on each of 2 chunks of chains, "
        "above the 2**30 a run may plan (about a day)"
    ]
    assert plan_problems(harness.stationary_problems(0.1, 64, budget, 1, 1))[0].startswith("burn_in: ")
    # steps to the last checkpoint; compare runs one-gradient methods for twice the steps
    assert plan_problems(harness.mixing_problems("euler", 64, 0.1, [0, budget], d=1)) == []
    assert plan_problems(harness.mixing_problems("euler", 64, 0.1, [0, budget + 1], d=1))[0].startswith("checkpoints: ")
    assert plan_problems(harness.mixing_problems(["quicsort", "euler"], 64, 0.1, [0, budget // 3], d=1)) == []
    assert plan_problems(harness.mixing_problems(["quicsort", "euler"], 64, 0.1, [0, budget // 3 + 1], d=1))
    # the long-run reference's chunks of samples times its steps; exact draws take none
    assert plan_problems(harness.ground_truth_problems(128, 1, 0.1, budget // 2)) == []
    assert plan_problems(harness.ground_truth_problems(129, 1, 0.1, budget // 2))[0].startswith("truth_steps: ")
    assert plan_problems(harness.ground_truth_problems(10**12, 1)) == []
    # contract keeps every step's distance, so it is bounded by its steps, and
    # steps its pairs as one state, planned as chunks of 64 pairs times its steps
    steps = [p for p in harness.contract_problems(CFG, POT1, 0.05, 2**20 + 1, 1) if p.startswith("steps: ")]
    assert steps == ["steps: the reports keep one distance per step, so a run may take at most 2**20"]
    assert harness.contract_problems(CFG, POT1, 0.05, 2**20, 64 * 2**10) == []
    assert harness.contract_problems(CFG, POT1, 0.05, 2**20, 64 * 2**10 + 1) == [
        "steps: the pairs would take 2**20 steps on each of 1025 chunks of pairs, "
        "above the 2**30 a run may plan (about a day)"
    ]


def test_mixing_plan_counts_a_run_to_checkpoint_0_as_one_step(monkeypatch):
    # with the chunk and cloud bounds lifted, so that the step plan alone shows
    monkeypatch.setattr(harness, "_MAX_CHUNKS", 2**62)
    monkeypatch.setattr(harness, "_MAX_CLOUD_ENTRIES", 2**62)
    budget = harness._MAX_CHUNK_STEPS
    # every chunk of every run draws its initial state; past the plan the
    # culprit is the chain count, since no checkpoint is below 0
    assert harness.mixing_problems("euler", 64 * budget, 0.1, [0], d=1) == []
    assert harness.mixing_problems("euler", 64 * budget + 1, 0.1, [0], d=1) == [
        f"chains: the runs to the last checkpoint would take 1 steps on each of {budget + 1} chunks of chains, "
        "above the 2**30 a run may plan (about a day)"
    ]
    assert harness.mixing_problems(["quicsort", "ubu", "quicsort"], 64 * budget // 2, 0.1, [0], d=1) == []
    assert harness.mixing_problems(["quicsort", "ubu"], 64 * budget // 2 + 1, 0.1, [0], d=1)[0].startswith("chains: ")
    # one checkpoint past 0 counts as before
    assert harness.mixing_problems("euler", 64 * budget, 0.1, [0, 1], d=1) == []


def test_chunk_count_is_bounded():
    # one step on each of 2**30 chunks fits the step plan; the chunk bound
    # names the chain or path count, and a run of no steps makes no chunks
    most = 64 * harness._MAX_CHUNKS
    assert harness._MAX_CHUNKS == 2**16
    assert harness.stationary_problems(0.1, most, 0, 1, 1) == []
    assert harness.stationary_problems(0.1, most + 1, 0, 1, 1) == [
        "chains: burn_in + kept would cut 4194305 chains into 65537 chunks of 64, above the 2**16 a run may plan"
    ]
    assert converge_problems(["euler"], 1.0, most, [0], 0, 1) == []
    assert converge_problems(["euler"], 1.0, most + 1, [0], 0, 1)[0].startswith("paths: the reference would cut ")
    assert harness.mixing_problems("euler", most + 1, 0.1, [0], d=1)[0].startswith("chains: ")
    assert harness.ground_truth_problems(most, 1, 0.1, 1) == []
    assert harness.ground_truth_problems(most + 1, 1, 0.1, 1) == [
        "truth_samples: the reference run would cut 4194305 chains into 65537 chunks of 64, above the 2**16 a run may plan"
    ]
    assert harness.ground_truth_problems(most + 1, 1) == []
    # refused before any chunk size is listed
    with pytest.raises(ValueError, match="^chains: burn_in [+] kept would cut 68719476736 chains"):
        stationary_study(CFG, POT1, 0.1, 2**36, 0, 1, seed=0)


def test_position_clouds_are_bounded():
    # every checkpoint of every run waits for its measurement, and a reference holds samples times d
    entries = harness._MAX_CLOUD_ENTRIES
    assert entries == 2**24
    assert harness.mixing_problems("quicsort", entries // 16, 0.1, [0, 1], d=8) == []
    assert harness.mixing_problems("quicsort", entries // 16, 0.1, [0, 1], d=9) == [
        "chains: the runs to the last checkpoint would hold 18874368 floats of positions at once, "
        "above the 2**24 a run may hold"
    ]
    assert harness.mixing_problems(["quicsort", "euler"], entries // 16, 0.1, [0, 1], d=4) == []
    assert harness.mixing_problems(["quicsort", "euler"], entries // 16, 0.1, [0, 1], d=5)[0].startswith("chains: ")
    assert harness.ground_truth_problems(entries // 2, 2) == []
    assert harness.ground_truth_problems(entries // 2 + 1, 2) == [
        "truth_samples: the reference draws would hold 16777218 floats of positions at once, "
        "above the 2**24 a run may hold"
    ]
    assert harness.ground_truth_problems(entries // 2 + 1, 2, 0.1, 1)[0].startswith("truth_samples: the reference run ")
    # refused before anything is drawn
    with pytest.raises(ValueError, match="^truth_samples: "):
        gaussian_ground_truth(POT2, 10**12, seed=0)
    with pytest.raises(ValueError, match="^chains: "):
        mixing_study(CFG, QuadraticPotential(1.0, d=1000), "quicsort", 2**22, 0.1, [0, 1], np.zeros((4, 1000)), seed=0)


def test_distance_work_is_bounded():
    # one checkpoint sums the cloud's pairs, its pairs with the reference and,
    # the first time, the reference's: pairs times d, named by the larger size
    work = harness._MAX_DISTANCE_WORK
    assert work == 2**34

    def distance_problems(n_chains, n_truth, d):  # one run to checkpoint 0 measured against exact draws
        return harness.mixing_problems("quicsort", n_chains, 0.1, [0], d, n_truth)

    assert distance_problems(2**16, 2**16, 1) == distance_problems(2**15, 2**15, 5) == []
    assert distance_problems(2**16, 2**16, 2) == [
        "chains: a checkpoint's energy distance would sum 25769803776 distance terms "
        "(point pairs times the dimension), above the 2**34 a measurement may plan"
    ]
    assert distance_problems(64, 200_000, 2)[0].startswith("truth_samples: ")
    # checked once the runs themselves are within their plans, before anything is drawn
    gt = np.zeros((2**17 + 1, 1))
    assert harness.mixing_problems("quicsort", 4, 0.1, [0, 1], 1) == []
    with pytest.raises(ValueError, match="^truth_samples: a checkpoint's energy distance"):
        mixing_study(CFG, POT1, "quicsort", 4, 0.1, [0, 1], gt, seed=0)
    with pytest.raises(ValueError, match="^truth_samples: a checkpoint's energy distance"):
        compare_study(CFG, POT1, 4, 0.1, [0, 1], gt, seed=0)
    with pytest.raises(ValueError, match="^checkpoints: "):
        mixing_study(CFG, POT1, "quicsort", 4, 0.1, [1, 0], gt, seed=0)


def test_chunk_state_is_bounded():
    # a chunk's rows times d, times the runs and tree nodes a converge chunk keeps
    most = harness._MAX_CHUNK_ENTRIES
    assert most == 2**22
    assert harness.stationary_problems(0.1, 64, 0, 1, most // 64) == []
    assert harness.stationary_problems(0.1, 1, 0, 1, most) == []
    assert harness.stationary_problems(0.1, 64, 0, 1, most // 64 + 1) == [
        "dimension: a chunk of 64 chains would keep 4194368 floats of state, above the 2**22 a chunk may hold"
    ]
    assert harness.mixing_problems("quicsort", 2, 0.1, [0], most // 2 + 1)[0].startswith("dimension: a chunk of 2 ")
    assert harness.ground_truth_problems(2, most // 2 + 1, 0.1, 1)[0].startswith("dimension: a chunk of 2 ")
    assert harness.ground_truth_problems(2, most // 2 + 1) == []  # exact draws keep no chunk
    # quicsort and euler at levels 1 and 2, the reference, and tree nodes at levels 0 to 3
    states = 2 * 2 + 1 + 4
    assert converge_problems(["quicsort", "euler", "rk4"], 1.0, 64, [1, 2], 3, most // (64 * states)) == [
        "methods: unknown method 'rk4'; choose from ['euler', 'quicsort', 'ubu']"
    ]
    assert converge_problems(["quicsort", "euler"], 1.0, 64, [1, 2], 3, most // (64 * states) + 1) == [
        f"dimension: a chunk of 64 paths would keep {64 * states * (most // (64 * states) + 1)} floats of state, "
        "above the 2**22 a chunk may hold"
    ]
    # refused before any state is drawn
    with pytest.raises(ValueError, match="^dimension: a chunk of 64 chains"):
        stationary_study(CFG, types.SimpleNamespace(meta=types.SimpleNamespace(d=2**20)), 0.1, 64, 0, 1, seed=0)


def test_contract_pairs_times_dimension_is_bounded():
    # both chains of every pair in one (2, pairs, d) state, held like a chunk's
    entries = harness._MAX_CHUNK_ENTRIES
    assert entries == 2**22
    pot = QuadraticPotential(1.0, d=4)
    assert harness.contract_problems(CFG, pot, 0.05, 2, entries // 8) == []
    assert harness.contract_problems(CFG, pot, 0.05, 2, entries // 8 + 1) == [
        "pairs: a chunk of 524289 pairs would keep 4194312 floats of state, above the 2**22 a chunk may hold"
    ]
    # refused before any state is drawn
    with pytest.raises(ValueError, match="^pairs: a chunk of 1000000000000 pairs"):
        contractivity_study(CFG, POT1, 0.05, 2, 10**12, seed=0)


@pytest.mark.parametrize(
    "problems, expected",
    [
        (
            lambda plans: harness.stationary_problems(0.1, -2**40, -2**40, 0, 1, plans),
            ["chains: need at least 1", "burn_in: must be nonnegative", "kept: need at least one kept step"],
        ),
        (
            lambda plans: harness.contract_problems(CFG, POT2, 0.01, -2**40, -2**40, plans),
            ["steps: need at least one step", "pairs: need at least one pair"],
        ),
        (  # levels is refused on its own, so the plan of 2**40 reference steps is never built
            lambda plans: converge_problems(["quicsort"], 1.0, 2**20, [-1, 3], 40, 10, plans),
            ["levels: coarse levels are exponents of two and must be nonnegative"],
        ),
        (  # a refused reference setting holds back the runs' plan too
            lambda plans: harness.mixing_problems("quicsort", 2**40, 0.1, [0, 1], 1, 0, plans=plans),
            ["truth_samples: need at least one sample"],
        ),
    ],
    ids=["stationary", "contract", "converge", "sample"],
)
def test_no_plan_is_built_while_a_setting_fails(problems, expected):
    plans = {}
    assert problems(plans) == expected
    assert plans == {}


def test_converge_error_sums_that_overflow_only_when_folded_diverge(monkeypatch):
    # each chunk's squared errors are finite, their sum over chunks is not
    monkeypatch.setattr(harness, "_chunked", lambda *args: [{("euler", 2): 1e308}] * 2)
    with pytest.raises(DivergenceError) as err:
        strong_error_study(CFG, POT2, ["euler"], 1.0, 128, [2], 3, seed=1)
    exc = err.value
    assert exc.finite_state and (exc.method, exc.step, exc.time, exc.chunk) == ("euler", 4, 1.0, None)


def test_contract_distance_overflowing_on_a_finite_start_diverges_at_step_0():
    # u = 1/M1: velocities near 1e154, whose squares overflow; no RuntimeWarning escapes
    pot = QuadraticPotential(1e-307, d=50)
    cfg = SolverConfig(gamma=2.0, u=1e307)
    with pytest.raises(DivergenceError) as err:
        contractivity_study(cfg, pot, 0.05, 3, 4, seed=2024)
    exc = err.value
    assert exc.finite_state and (exc.step, exc.time, exc.chunk) == (0, 0.0, 0) and exc.chain in range(4)
    assert exc.max_abs_v > 1e150


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
    pooled.meet("chunks")
    four = strong_error_study(CFG, POT2, ["quicsort"], 2.0, 160, [3, 4], 8, threads=4, **kwargs)
    assert len(pooled) >= 2
    assert one.errors == four.errors


def test_strong_study_thread_invariant_on_logistic_posterior(pooled):
    # chunk threads share one posterior and its precomputed design; a short
    # switch interval makes them interleave inside gradient calls
    pot = LogisticPosterior(synthetic_dataset(rows=40, d_feat=3, seed=3))
    cfg = SolverConfig(gamma=2.0, u=1.0 / pot.meta.M1)
    args = (cfg, pot, ["quicsort", "ubu"], 1.0, 192, [2, 3], 5)
    one = strong_error_study(*args, seed=8, threads=1)
    pooled.meet("chunks")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        two = strong_error_study(*args, seed=8, threads=2)
    finally:
        sys.setswitchinterval(interval)
    assert len(pooled) >= 2
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


@pytest.mark.parametrize("n_chains", [64, 640])
def test_metric_helpers_measure_any_cloud_size(monkeypatch, aniso_truth, n_chains):
    pot, gt = aniso_truth
    ran = _Ran()
    ran.meet("metrics")
    _record_metric_threads(monkeypatch, ran)
    mixing_study(CFG, pot, "quicsort", n_chains, 0.2, [0, 1], gt, seed=3, threads=2)
    assert len(ran.metrics) >= 2
    ran.clear()
    mixing_study(CFG, pot, "quicsort", n_chains, 0.2, [0, 1], gt, seed=3, threads=1)
    assert ran.metrics == {threading.get_ident()}


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
    args = (CFG, pot, "ubu", 130, 0.1, (0, 3, 7), 5, (12, 13, 14))
    one = harness._evolve_positions(*args, 1)
    pooled.meet("chunks")
    two = harness._evolve_positions(*args, 2)
    assert len(pooled) >= 2
    assert sorted(one) == sorted(two) == [0, 3, 7]
    for step in one:
        assert one[step].shape == (130, 2)
        np.testing.assert_array_equal(one[step], two[step])


def test_divergence_names_chunk_chain_and_magnitudes(monkeypatch):
    _start_chain_70_at_infinity(monkeypatch)
    with pytest.raises(DivergenceError) as err, np.errstate(invalid="ignore", over="ignore"):
        stationary_study(CFG, POT2, 0.1, 130, 0, 5, seed=3)
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


def test_contractivity_identical_pairs_stay_identical(monkeypatch):
    g = keyed_generator(99, 8, 0)
    x = g.standard_normal((50, 1))
    v = g.standard_normal((50, 1))
    _contract_pairs(monkeypatch, PhaseState(x, v), PhaseState(x.copy(), v.copy()))
    dist = contractivity_study(CFG, POT1, 0.05, 20, 50, seed=11)
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


def test_mixing_deterministic_with_cap(aniso_truth, monkeypatch):
    pot, gt = aniso_truth
    monkeypatch.setattr(harness, "_METRIC_CAP", 64)
    a = mixing_study(CFG, pot, "quicsort", 96, 0.2, [3], gt, seed=21)
    b = mixing_study(CFG, pot, "quicsort", 96, 0.2, [3], gt, seed=21)
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
    pooled.meet("chunks")
    rep3 = stationary_study(CFG, POT2, 0.1, 96, 50, 200, seed=6, threads=3)
    assert len(pooled) >= 2
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_studies_reject_non_finite_step_sizes(value):
    gt = gaussian_ground_truth(POT2, 16, seed=0)
    calls = [
        ("horizon", lambda: strong_error_study(CFG, POT2, ["quicsort"], value, 4, [2], 5, seed=0)),
        ("h", lambda: mixing_study(CFG, POT2, "quicsort", 8, value, [1], gt, seed=0)),
        ("h", lambda: compare_study(CFG, POT2, 8, value, [1], gt, seed=0)),
        ("h", lambda: stationary_study(CFG, POT2, value, 4, 1, 2, seed=0)),
        ("h", lambda: contractivity_study(CFG, POT1, value, 2, 2, seed=0)),
        ("truth_h", lambda: long_run_ground_truth(CFG, POT2, 4, value, 2, seed=0)),
    ]
    for setting, call in calls:
        with pytest.raises(ValueError, match=f"^{setting}: "):
            call()


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
    with pytest.raises(ValueError, match="one error per step count"):
        ConvergenceReport(
            methods=("quicsort",), step_counts=(8, 16), errors={"quicsort": (0.1,)},
            fits={}, paths=4, horizon=1.0, fine_level=5, seed=0,
        )
    with pytest.raises(ValueError):
        MixingReport(
            method="quicsort", step_size=0.1, n_chains=4, checkpoints=(1, 2),
            grad_evals=(16, 8), energy=(0.5, 0.4), w2=(0.5, 0.4), seed=0,
        )
    with pytest.raises(ValueError, match="share one length"):
        MixingReport(
            method="quicsort", step_size=0.1, n_chains=4, checkpoints=(1, 2),
            grad_evals=(8, 16), energy=(0.5,), w2=(0.5, 0.4), seed=0,
        )


# ---------------------------------------------------------------------------
# the chain runner against the loops it replaced
#
# Before ChainRunner every study stepped its chains by hand: a per-chunk loop
# over path increments (sample, compare, the long-run ground truth and
# stationary), a recursive walk of the dyadic tree (converge) and a loop over
# coupled pairs (contract).  Those loops are kept here as oracles, written
# out as they were; the studies must reproduce them bit for bit, and
# divergences with the same step, chunk, chain and magnitudes.

_METHODS = ("quicsort", "ubu", "euler")
_STIFF = QuadraticPotential([1.0, 2000.0])  # unstable at h = 0.3: diverges in 95-165 steps


def _ref_finite(state):
    return bool(np.isfinite(state.x).all() and np.isfinite(state.v).all())


def _ref_divergence(name, step, h, state, chunk):
    ok_x, ok_v = np.isfinite(state.x), np.isfinite(state.v)
    bad = ~(ok_x & ok_v).all(axis=-1)
    finite = not bad.any()
    if finite:  # moments overflowed: the row-major first entry of largest magnitude names the chain
        both = np.abs(np.concatenate([state.x, state.v], axis=-1))
        bad = np.arange(len(both)) == np.argmax(both) // both.shape[-1]
    max_x, max_v = (
        float(np.abs(a[ok]).max()) if ok.any() else None
        for a, ok in ((state.x, ok_x), (state.v, ok_v))
    )
    return DivergenceError(
        name, step, step * h, chunk=chunk, chain=chunk * 64 + int(np.argmax(bad)),
        max_abs_x=max_x, max_abs_v=max_v, finite_state=finite,
    )


def _ref_chunk_loop(cfg, pot, method, chunk, size, h, n_steps, seed, tags, observe):
    """One chunk: fetch each increment, step, check, then hand the state over;
    ``observe`` returning False rejects a finite state."""
    state = harness._initial_state(cfg, pot, seed, tags, chunk, size)
    path = BrownianPath(chunk_key(seed, tags[2], chunk), pot.meta.d, shape=(size,))
    observe(0, state)
    for step in range(1, n_steps + 1):
        inc = path.increment(step - 1, h, with_halves=method == "ubu")
        state = STEPPERS[method](cfg, pot, state, inc)
        if not _ref_finite(state) or observe(step, state) is False:
            raise _ref_divergence(method, step, h, state, chunk)


def _ref_clouds(cfg, pot, method, n_chains, h, record, seed, tags, threads):
    """Position clouds at the recorded steps; same signature as _evolve_positions."""
    parts = {step: [] for step in sorted(record)}
    for chunk, size in enumerate(harness._chunk_sizes(n_chains)):

        def observe(step, state):
            if step in parts:
                parts[step].append(state.x.copy())

        _ref_chunk_loop(cfg, pot, method, chunk, size, h, max(record), seed, tags, observe)
    return {step: np.concatenate(p, axis=0) for step, p in parts.items()}


def _ref_stationary(cfg, pot, method, h, n_chains, burn_in, kept, seed):
    d = pot.meta.d
    tags = harness._TAGS_STATIONARY
    totals = np.zeros(4)
    for chunk, size in enumerate(harness._chunk_sizes(n_chains)):
        sums = [0.0, 0.0, 0.0, 0.0]

        def observe(step, state):
            if step > burn_in:
                v2 = state.v * state.v
                v4 = v2 * v2
                for i, moment in enumerate((state.x * state.x, v2, v4, v4 * v2)):
                    sums[i] += float(np.sum(moment))
                return bool(np.isfinite(sums).all())

        _ref_chunk_loop(cfg, pot, method, chunk, size, h, burn_in + kept, seed, tags, observe)
        totals += sums
    pooled = totals / (float(kept) * n_chains * d)
    return StationaryReport(
        mean_x_sq=float(d * pooled[0]),
        mean_v_sq=float(d * pooled[1]),
        v_l2=math.sqrt(d * pooled[1]),
        v_l4=math.sqrt(d) * pooled[2] ** 0.25,
        v_l6=math.sqrt(d) * pooled[3] ** (1.0 / 6.0),
        n_chains=n_chains, burn_in=burn_in, kept=kept, step_size=h, seed=seed,
    )


def _ref_strong_errors(cfg, pot, methods, horizon, paths, levels, fine_level, seed):
    """Errors by the recursive tree walk, each level's states stepped by hand."""
    keys = [(m, lvl) for m in methods for lvl in levels]
    totals = dict.fromkeys(keys, 0.0)
    for chunk, size in enumerate(harness._chunk_sizes(paths)):
        state0 = harness._initial_state(cfg, pot, seed, harness._TAGS_CONVERGE, chunk, size)
        tree = DyadicBrownianTree(
            chunk_key(seed, harness._TAGS_CONVERGE[2], chunk), pot.meta.d, horizon, shape=(size,)
        )
        # [method, level, state, steps]; the quicsort reference at fine_level last
        runs = [[m, lvl, state0, 0] for m, lvl in keys] + [["quicsort", fine_level, state0, 0]]

        def descend(index, inc, depth):
            children = tree.split(inc, index) if depth < fine_level else None
            for run in runs:
                if run[1] == depth:
                    step_inc = inc.with_halves(children) if run[0] == "ubu" else inc
                    run[2] = STEPPERS[run[0]](cfg, pot, run[2], step_inc)
                    run[3] += 1
                    if not _ref_finite(run[2]):
                        raise _ref_divergence(run[0], run[3], horizon / 2.0**depth, run[2], chunk)
            if children is not None:
                descend(2 * index, children[0], depth + 1)
                descend(2 * index + 1, children[1], depth + 1)

        descend(1, tree.root(), 0)
        for key, run in zip(keys, runs):
            totals[key] += float(np.sum((run[2].x - runs[-1][2].x) ** 2))
    return {m: tuple(math.sqrt(totals[(m, lvl)] / paths) for lvl in levels) for m in methods}


def _ref_contract(cfg, pot, h, n_steps, n_pairs, seed, pairs=None):
    d = pot.meta.d
    if pairs is None:
        g = keyed_generator(seed, harness._TAG_CONTRACT_INIT, 0)
        scale = math.sqrt(cfg.u)
        pairs = [
            PhaseState(g.standard_normal((n_pairs, d)), scale * g.standard_normal((n_pairs, d)))
            for _ in range(2)
        ]
    a, b = pairs
    path = BrownianPath(chunk_key(seed, harness._TAG_CONTRACT_PATH, 0), d, shape=(n_pairs,))
    out = [harness._transformed_distance(cfg, a, b)]
    for i in range(n_steps):
        inc = path.increment(i, h)
        a = STEPPERS["quicsort"](cfg, pot, a, inc)
        b = STEPPERS["quicsort"](cfg, pot, b, inc)
        if not (_ref_finite(a) and _ref_finite(b)):
            raise DivergenceError("quicsort", i + 1, (i + 1) * h)
        out.append(harness._transformed_distance(cfg, a, b))
    return np.array(out)


def _same_divergence(got, want):
    for name in ("method", "step", "time", "chunk", "chain", "max_abs_x", "max_abs_v"):
        assert getattr(got, name) == getattr(want, name), name
    assert str(got) == str(want)


@pytest.mark.parametrize("method", _METHODS)
def test_clouds_equal_the_per_chunk_loop(method):
    # 130 chains: two full chunks and a chunk of 2
    pot = QuadraticPotential([1.0, 4.0])
    args = (CFG, pot, method, 130, 0.1, (0, 3, 7), 5, (12, 13, 14), 1)
    got, want = harness._evolve_positions(*args), _ref_clouds(*args)
    assert sorted(got) == sorted(want) == [0, 3, 7]
    for step in want:
        np.testing.assert_array_equal(got[step], want[step])


def test_long_run_ground_truth_equals_the_per_chunk_loop(aniso_truth):
    pot, _ = aniso_truth
    tags = harness._TAGS_TRUTH
    want = _ref_clouds(CFG, pot, "quicsort", 130, 0.05, (20,), 81, tags, 1)
    cloud = long_run_ground_truth(CFG, pot, 130, 0.05, 20, seed=81)
    np.testing.assert_array_equal(cloud.samples, want[20])


@pytest.mark.parametrize("method", _METHODS)
def test_mixing_study_equals_the_per_chunk_loop(method, aniso_truth, monkeypatch):
    pot, gt = aniso_truth
    args = (CFG, pot, method, 130, 0.2, [0, 2, 5], gt)
    got = mixing_study(*args, seed=31)
    monkeypatch.setattr(harness, "_evolve_positions", _ref_clouds)
    assert mixing_study(*args, seed=31) == got


@pytest.mark.parametrize("n_chains, n_truth", [(64, 128), (128, 64)])
def test_compare_w2_reads_keyed_subsamples(n_chains, n_truth):
    # the larger side is subsampled to the smaller: the reference keyed
    # (_TAG_SUBSAMPLE_REF, 1 + ci), a cloud (_TAG_SUBSAMPLE_EMP, ci)
    pot = QuadraticPotential([1.0, 4.0])
    gt = gaussian_ground_truth(pot, n_truth, seed=7)
    reps = compare_study(CFG, pot, n_chains, 0.2, [0, 3], gt, seed=13)
    n = min(n_chains, n_truth)
    for rep in reps.values():
        clouds = _ref_clouds(CFG, pot, rep.method, n_chains, rep.step_size, rep.checkpoints, 13, harness._TAGS_MIXING, 1)
        want = []
        for ci, step in enumerate(rep.checkpoints):
            emp, ref = EmpiricalDistribution(clouds[step]), gt
            if n_chains > n:
                emp = subsample(emp, n, keyed_generator(13, harness._TAG_SUBSAMPLE_EMP, ci))
            if n_truth > n:
                ref = subsample(gt, n, keyed_generator(13, harness._TAG_SUBSAMPLE_REF, 1 + ci))
            want.append(wasserstein2(emp, ref))
        assert rep.w2 == tuple(want), rep.method


def _counted_solves(monkeypatch):
    """The exact assignments the metrics solve, and the W2 calls the harness makes."""
    solves, w2_calls = [], []
    euclidean, sqeuclidean, lsap = metrics.distance_kernels()
    monkeypatch.setattr(
        metrics, "distance_kernels", lambda: (euclidean, sqeuclidean, lambda cost: solves.append(1) or lsap(cost))
    )
    monkeypatch.setattr(harness, "wasserstein2", lambda mu, nu, _w2=harness.wasserstein2: w2_calls.append(1) or _w2(mu, nu))
    return solves, w2_calls


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("cap", [None, 32])
def test_compare_measures_the_shared_initial_cloud_once(monkeypatch, cap, threads):
    # every method draws one initial cloud: three W2 calls at checkpoint 0, one assignment;
    # with the cap, its keyed subsamples are shared too
    pot = QuadraticPotential([1.0, 4.0])
    gt = gaussian_ground_truth(pot, 64, seed=7)
    if cap:
        monkeypatch.setattr(harness, "_METRIC_CAP", cap)
    solves, w2_calls = _counted_solves(monkeypatch)
    reps = compare_study(CFG, pot, 64, 0.2, [0, 2, 5], gt, seed=13, threads=threads)
    assert (len(solves), len(w2_calls)) == (7, 9)
    assert len({(rep.energy[0], rep.w2[0]) for rep in reps.values()}) == 1
    for rep in reps.values():  # each method measured alone gives the same report
        assert rep == mixing_study(CFG, pot, rep.method, 64, rep.step_size, rep.checkpoints, gt, seed=13)


def test_compare_measures_a_run_from_another_initial_cloud_on_its_own(monkeypatch):
    pot = QuadraticPotential([1.0, 4.0])
    gt = gaussian_ground_truth(pot, 64, seed=7)
    evolve = harness._evolve_positions

    def shifting_ubu(cfg, pot, method, *args):
        clouds = evolve(cfg, pot, method, *args)
        if method == "ubu":
            clouds[0] = clouds[0] + 0.5
        return clouds

    monkeypatch.setattr(harness, "_evolve_positions", shifting_ubu)
    solves, w2_calls = _counted_solves(monkeypatch)
    reps = compare_study(CFG, pot, 64, 0.2, [0, 2], gt, seed=13)
    assert (len(solves), len(w2_calls)) == (5, 6)  # euler still shares quicsort's
    ubu0 = EmpiricalDistribution(shifting_ubu(CFG, pot, "ubu", 64, 0.1, (0,), 13, harness._TAGS_MIXING, 1)[0])
    assert reps["ubu"].w2[0] == wasserstein2(ubu0.samples, gt) != reps["quicsort"].w2[0]
    assert reps["ubu"].energy[0] == math.sqrt(energy_distance_sq(ubu0.samples, gt))
    assert reps["euler"].w2[0] == reps["quicsort"].w2[0]


def test_compare_shares_the_initial_cloud_only(monkeypatch):
    # the streams make every run's initial draw one cloud; clouds that happen to be
    # equal at a first checkpoint past 0 are not compared, and each is measured
    pot = QuadraticPotential([1.0, 4.0])
    gt = gaussian_ground_truth(pot, 64, seed=7)
    cloud = gaussian_ground_truth(pot, 64, seed=8).samples
    monkeypatch.setattr(harness, "_evolve_positions", lambda *args: {step: cloud.copy() for step in args[5]})
    solves, w2_calls = _counted_solves(monkeypatch)
    compare_study(CFG, pot, 64, 0.2, [1, 2], gt, seed=13)
    assert (len(solves), len(w2_calls)) == (6, 6)


@pytest.mark.parametrize("method", ["quicsort"])  # the stepper stationary runs
def test_stationary_study_equals_the_per_chunk_loop(method):
    got = stationary_study(CFG, POT2, 0.1, 130, 7, 9, seed=6)
    assert got == _ref_stationary(CFG, POT2, method, 0.1, 130, 7, 9, 6)


def test_strong_error_study_equals_the_tree_walk():
    rep = strong_error_study(CFG, POT2, _METHODS, 1.0, 130, (2, 3), 5, seed=12)
    assert rep.errors == _ref_strong_errors(CFG, POT2, _METHODS, 1.0, 130, (2, 3), 5, 12)


def test_contractivity_study_equals_the_pair_loop():
    got = contractivity_study(CFG, POT2, 0.05, 30, 130, seed=4)
    np.testing.assert_array_equal(got, _ref_contract(CFG, POT2, 0.05, 30, 130, 4))


@pytest.mark.parametrize("method", ["quicsort"])  # the stepper stationary runs
@pytest.mark.parametrize("burn_in", [0, 400])
def test_stationary_divergence_equals_the_per_chunk_loop(method, burn_in):
    # burn_in 0 diverges in kept steps, where the moment sums vouch for finite
    # states and reject the first finite one whose squares overflow
    with pytest.raises(DivergenceError) as got, np.errstate(over="ignore", invalid="ignore"):
        stationary_study(CFG, _STIFF, 0.3, 130, burn_in, 400 - burn_in + 1, seed=6)
    with pytest.raises(DivergenceError) as want, np.errstate(over="ignore", invalid="ignore"):
        _ref_stationary(CFG, _STIFF, method, 0.3, 130, burn_in, 400 - burn_in + 1, 6)
    _same_divergence(got.value, want.value)
    assert got.value.finite_state == (burn_in == 0)


@pytest.mark.parametrize("burn_in", [0, 400])
def test_pooled_chunks_run_under_the_callers_numpy_error_state(monkeypatch, burn_in):
    # np.errstate is a context variable: a helper that ran outside the caller's
    # context would warn on overflow, an error under this suite's filters
    monkeypatch.setattr(harness, "_POOL_MIN_STATE", 0)
    errors = []
    for threads in (1, 2):
        with pytest.raises(DivergenceError) as err, np.errstate(over="ignore", invalid="ignore"):
            stationary_study(CFG, _STIFF, 0.3, 130, burn_in, 400 - burn_in + 1, seed=6, threads=threads)
        errors.append(err.value)
    _same_divergence(*errors)


@pytest.mark.parametrize("u, power", [(1.0, 2), (1e-150, 4), (1e-200, 6)])
def test_stationary_rejects_a_finite_state_whose_moment_overflows(u, power):
    # where gamma*h overflows, one quicsort step kicks |v| to about
    # sqrt(2*gamma*u*h), finite, but so large that v**power overflows
    cfg = SolverConfig(gamma=1e200, u=u)
    with pytest.raises(DivergenceError) as err, np.errstate(over="ignore", invalid="ignore"):
        stationary_study(cfg, POT2, 1e120, 2, 1, 2, seed=2024)
    exc = err.value
    assert exc.finite_state and (exc.step, exc.chunk) == (2, 0) and exc.chain in (0, 1)
    assert exc.max_abs_x < 10.0
    top = math.log(sys.float_info.max)
    assert (power - 2) * math.log(exc.max_abs_v) < top < power * math.log(exc.max_abs_v)
    assert str(exc).startswith("overflowing moments of a finite state after step 2 (t = 2e+120)")


def test_stationary_moment_sums_that_overflow_only_when_pooled_diverge():
    # one quicsort step kicks |v| near 1e51: each chunk's v**6 sum is finite,
    # the sum over both chunks is not
    cfg = SolverConfig(gamma=1e200, u=1.9952623149688e-218)
    with pytest.raises(DivergenceError) as err, np.errstate(over="ignore", invalid="ignore"):
        stationary_study(cfg, POT1, 1e120, 128, 0, 1, seed=2024)
    exc = err.value
    assert exc.finite_state and (exc.method, exc.step, exc.chunk) == ("quicsort", 1, None)
    assert str(exc) == "overflowing moments of a finite state after step 1 (t = 1e+120) of quicsort"


def test_divergence_in_a_later_chunk_equals_the_per_chunk_loop(aniso_truth, monkeypatch):
    pot, gt = aniso_truth
    _start_chain_70_at_infinity(monkeypatch)
    errors = []
    for clouds in (harness._evolve_positions, _ref_clouds):
        monkeypatch.setattr(harness, "_evolve_positions", clouds)
        with pytest.raises(DivergenceError) as err, np.errstate(over="ignore", invalid="ignore"):
            mixing_study(CFG, pot, "ubu", 130, 0.2, [0, 3], gt, seed=5)
        errors.append(err.value)
    assert (errors[0].chunk, errors[0].chain, errors[0].step) == (1, 70, 1)
    _same_divergence(*errors)


def test_strong_study_divergence_equals_the_tree_walk():
    args = (CFG, _STIFF, _METHODS, 60.0, 130, (7, 8), 9)
    with pytest.raises(DivergenceError) as got, np.errstate(over="ignore", invalid="ignore"):
        strong_error_study(*args, seed=12)
    with pytest.raises(DivergenceError) as want, np.errstate(over="ignore", invalid="ignore"):
        _ref_strong_errors(*args, 12)
    _same_divergence(got.value, want.value)


def test_contract_divergence_names_the_pair(monkeypatch):
    # pair 5 of the second chains starts at infinity
    g = keyed_generator(3, 8, 0)
    a = PhaseState(g.standard_normal((130, 2)), g.standard_normal((130, 2)))
    b = PhaseState(a.x + 1.0, a.v.copy())
    b.x[5, 0] = np.inf
    _contract_pairs(monkeypatch, a, b)
    with pytest.raises(DivergenceError) as got, np.errstate(over="ignore", invalid="ignore"):
        contractivity_study(CFG, POT2, 0.05, 4, 130, seed=4)
    with pytest.raises(DivergenceError) as want, np.errstate(over="ignore", invalid="ignore"):
        _ref_contract(CFG, POT2, 0.05, 4, 130, 4, pairs=(a, b))
    exc = got.value
    assert (exc.step, exc.time) == (want.value.step, want.value.time) == (1, 0.05)
    assert (exc.chunk, exc.chain) == (0, 5)
    assert 0.0 < exc.max_abs_x < 100.0 and 0.0 < exc.max_abs_v < 100.0


def test_contract_divergence_names_the_first_chains_pair_first(monkeypatch):
    # pair 7 of the first chains and pair 5 of the second start at infinity:
    # the first chains are checked first, as when they stepped on their own
    g = keyed_generator(3, 8, 0)
    a = PhaseState(g.standard_normal((130, 2)), g.standard_normal((130, 2)))
    b = PhaseState(a.x + 1.0, a.v.copy())
    a.x[7, 0] = b.x[5, 0] = np.inf
    _contract_pairs(monkeypatch, a, b)
    with pytest.raises(DivergenceError) as err, np.errstate(over="ignore", invalid="ignore"):
        contractivity_study(CFG, POT2, 0.05, 4, 130, seed=4)
    assert (err.value.step, err.value.chunk, err.value.chain) == (1, 0, 7)


def test_only_steppers_that_step_on_halves_are_given_them(monkeypatch):
    seen = set()
    for name, step in list(STEPPERS.items()):

        def recording(cfg, pot, state, inc, _name=name, _step=step):
            seen.add((_name, inc.halves is not None))
            return _step(cfg, pot, state, inc)

        monkeypatch.setitem(STEPPERS, name, recording)
    want = {("quicsort", False), ("ubu", True), ("euler", False)}
    strong_error_study(CFG, POT2, _METHODS, 1.0, 4, (1, 2), 3, seed=1)  # tree nodes
    assert seen == want
    seen.clear()
    for method in _METHODS:  # path increments
        harness._evolve_positions(CFG, POT2, method, 4, 0.1, (2,), 1, harness._TAGS_MIXING, 1)
    assert seen == want


# ---------------------------------------------------------------------------
# thread invariance at any chain count, with the pool forced on

_POOLED = settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])


@_POOLED
@given(n_chains=st.integers(1, 200))
def test_stationary_thread_invariant_at_any_chain_count(pooled, n_chains):
    one = stationary_study(CFG, POT2, 0.1, n_chains, 3, 4, seed=n_chains, threads=1)
    several = n_chains > harness.CHUNK
    pooled.meet(*("chunks",) * several)
    three = stationary_study(CFG, POT2, 0.1, n_chains, 3, 4, seed=n_chains, threads=3)
    # one chunk runs inline; more run on the caller and the pool's helpers
    assert len(pooled) >= 2 if several else pooled == {threading.get_ident()}
    assert one == three


@_POOLED
@given(n_chains=st.integers(1, 200), method=st.sampled_from(_METHODS))
def test_mixing_thread_invariant_at_any_chain_count(pooled, aniso_truth, n_chains, method):
    pot, gt = aniso_truth
    cap = max(1, 3 * n_chains // 4)  # below the reference and, from 2 chains, the cloud: W2 subsamples
    cps = [0, 3]

    def run(threads):
        kwargs = dict(seed=n_chains, threads=threads)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_METRIC_CAP", cap)
            return (
                mixing_study(CFG, pot, method, n_chains, 0.2, cps, gt, **kwargs),
                compare_study(CFG, pot, n_chains, 0.2, cps, gt, **kwargs),
            )

    pooled.clear()
    one = run(1)
    assert pooled.metrics == {threading.get_ident()}
    several = n_chains > harness.CHUNK
    pooled.meet("metrics", *("chunks",) * several)
    three = run(3)
    # one chunk runs inline; more run on the caller and the pool's helpers
    assert len(pooled) >= 2 if several else pooled == {threading.get_ident()}
    # every study measures two checkpoints, so its distances run on two threads
    assert len(pooled.metrics) >= 2
    assert one == three


# ---------------------------------------------------------------------------
# the measurement pipeline: checkpoints measured while later methods evolve


def test_work_queue_returns_in_submission_order_and_raises_the_earliest_failure():
    def job(item):
        delay, fails = item
        time.sleep(delay)
        if fails:
            raise ValueError(f"after {delay}")
        return delay

    with harness._WorkQueue(3) as pool:
        for delay in (0.05, 0.0, 0.02):
            pool.submit(job, (delay, False))
        assert pool.gather() == [0.05, 0.0, 0.02]
    before = threading.active_count()
    with pytest.raises(ValueError, match="after 0.05"):
        with harness._WorkQueue(3) as pool:
            for item in ((0.0, False), (0.05, True), (0.0, True), (0.0, False)):
                pool.submit(job, item)
            pool.gather()
    assert threading.active_count() == before


def test_work_queue_under_contention_keeps_every_result_and_the_earliest_failure():
    # more threads than cores, switching often: a lost result or a failure
    # raised out of order would show
    def job(i):
        if i % 97 == 41:
            raise ValueError(f"job {i}")
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert harness._map_chunks(lambda i: i * i, 400, 8) == [i * i for i in range(400)]
            with pytest.raises(ValueError, match=r"^job 41$"):
                harness._map_chunks(job, 400, 8)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("fails_at", [1, 2])
def test_helpers_that_cannot_start_leave_their_jobs_to_the_calling_thread(fails_at, monkeypatch, tmp_path):
    # Thread.start raises from its fails_at-th call on, as in a process out of
    # threads; the chunks of a d = 2 target go to the pool too
    monkeypatch.setattr(harness, "_POOL_MIN_STATE", 0)
    runs = {
        "stationary": ["stationary", "--chains", "130", "--burn-in", "2", "--kept", "3"],
        "compare": ["compare", "--chains", "130", "--checkpoints", "0,2", "--truth-samples", "50"],
    }

    def csvs(threads):
        for name, argv in runs.items():
            out = str(tmp_path / f"{name}-{threads}")
            assert cli.main([*argv, "--dimension", "2", "--seed", "5", "--threads", threads, "--out", out]) == 0
        return [(tmp_path / f"{name}-{threads}.csv").read_bytes() for name in runs]

    serial = csvs("1")
    start, join = threading.Thread.start, threading.Thread.join
    started, joined_unstarted = [], []

    def failing_start(thread):
        started.append(thread)
        if len(started) >= fails_at:
            raise RuntimeError("can't start new thread")
        start(thread)

    def checked_join(thread, timeout=None):
        if thread.ident is None:
            joined_unstarted.append(thread)
        else:
            join(thread, timeout)

    monkeypatch.setattr(threading.Thread, "start", failing_start)
    monkeypatch.setattr(threading.Thread, "join", checked_join)
    assert csvs("3") == serial
    assert joined_unstarted == []
    assert len(started) > fails_at and sum(t.ident is not None for t in started) == fails_at - 1


def test_compare_measures_while_the_next_method_evolves(monkeypatch, aniso_truth):
    pot, gt = aniso_truth
    measuring = threading.Event()
    waited = []
    for name in ("wasserstein2", "energy_distance_sq"):

        def flagging(*args, _fn=getattr(harness, name), **kwargs):
            measuring.set()
            return _fn(*args, **kwargs)

        monkeypatch.setattr(harness, name, flagging)
    evolve = harness._evolve_positions

    def evolve_after_a_measurement(*args, **kwargs):
        if args[2] != "quicsort":  # the second method
            waited.append(measuring.wait(_MEET_TIMEOUT))
        return evolve(*args, **kwargs)

    monkeypatch.setattr(harness, "_evolve_positions", evolve_after_a_measurement)
    got = compare_study(CFG, pot, 64, 0.2, [0, 2], gt, seed=4, methods=("quicsort", "ubu"), threads=2)
    assert waited == [True]
    monkeypatch.setattr(harness, "_evolve_positions", evolve)
    assert got == compare_study(CFG, pot, 64, 0.2, [0, 2], gt, seed=4, methods=("quicsort", "ubu"))


@pytest.mark.parametrize("threads", [2, 3])
def test_mixing_studies_keep_no_more_than_threads_threads_alive(monkeypatch, threads):
    # d = 70 and 640 chains: chunks and distances both pool at the default thresholds
    pot = QuadraticPotential(4.0, d=70)
    gt = gaussian_ground_truth(pot, 640, seed=7)
    alive = []
    for name in ("_initial_state", "wasserstein2"):

        def counting(*args, _fn=getattr(harness, name), **kwargs):
            alive.append(threading.active_count())
            return _fn(*args, **kwargs)

        monkeypatch.setattr(harness, name, counting)
    before = threading.active_count()
    compare_study(CFG, pot, 640, 0.1, [0, 2], gt, seed=3, threads=threads)
    mixing_study(CFG, pot, "quicsort", 640, 0.1, [0, 2], gt, seed=3, threads=threads)
    assert before < max(alive) <= before + threads - 1


def _start_second_method_chain_70_at_infinity(monkeypatch):
    """Chain 70 is row 6 of chunk 1: make it infinite in the second run's chunk 1 only."""
    initial_state = harness._initial_state
    seen = []

    def patched(cfg, pot, seed, tags, chunk, size):
        state = initial_state(cfg, pot, seed, tags, chunk, size)
        if chunk == 1:
            seen.append(chunk)
            if len(seen) == 2:
                state.x[6, 1] = np.inf
        return state

    monkeypatch.setattr(harness, "_initial_state", patched)
    return seen


def test_compare_divergence_while_measuring_equals_the_serial_one(monkeypatch, aniso_truth):
    pot, gt = aniso_truth
    errors = []
    for threads in (1, 2):
        seen = _start_second_method_chain_70_at_infinity(monkeypatch)
        before = threading.active_count()
        with pytest.raises(DivergenceError) as err, np.errstate(over="ignore", invalid="ignore"):
            compare_study(CFG, pot, 130, 0.2, [0, 3], gt, seed=5, threads=threads)
        assert threading.active_count() == before
        assert len(seen) == 2
        errors.append(err.value)
    assert (errors[0].method, errors[0].chunk, errors[0].chain, errors[0].step) == ("ubu", 1, 70, 1)
    _same_divergence(*errors)


def test_compare_failing_measurement_raises_the_serial_exception(monkeypatch, aniso_truth):
    pot, gt = aniso_truth
    order = []  # the measured clouds, in the order a serial run measures them
    w2 = harness.wasserstein2

    def recording(mu, nu):
        order.append(mu.samples.tobytes())
        return w2(mu, nu)

    args = (CFG, pot, 130, 0.2, [0, 2, 5], gt)
    monkeypatch.setattr(harness, "wasserstein2", recording)
    compare_study(*args, seed=9)

    def failing(mu, nu):  # every job from the second on raises, naming its first job index
        job = order.index(mu.samples.tobytes())
        if job >= 1:
            raise RuntimeError(f"job {job}")
        return w2(mu, nu)

    monkeypatch.setattr(harness, "wasserstein2", failing)
    for threads in (1, 2, 3):
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=r"^job 1$"):
            compare_study(*args, seed=9, threads=threads)
        assert threading.active_count() == before


def test_readme_lists_every_bound_with_its_limit():
    # one table row per bound, naming its constant and its limit as a power of two
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {line.split("|")[1].strip(): line.split("|")[2].strip() for line in readme.splitlines()
            if line.startswith("| `_MAX_")}
    assert rows == {f"`{bound}`": f"2**{getattr(harness, bound).bit_length() - 1}" for _, bound, _ in harness._BOUNDS}
