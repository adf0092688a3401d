"""Call structure of small CLI runs against closed forms.

Every study works in chunks of 64 paths or chains, and each chunk makes one
batched call per gradient, tree split, path increment and step.  A traced run
of ``perfbench/run.py`` checks these counts on its three workloads; here the
same closed forms are restated and checked on two-chunk versions of them
(converge with every coarse level below ``fine_level``, stationary, compare),
so a change to the per-chunk call structure fails here first.
"""

import collections
import functools

import numpy as np
import pytest

from ulmc import harness, integrators
from ulmc.brownian import BrownianPath, DyadicBrownianTree
from ulmc.cli import main
from ulmc.potentials import LogisticPosterior, QuadraticPotential, synthetic_dataset

CHUNK = 64
GRAD_EVALS = {"quicsort": 2, "ubu": 1, "euler": 1}
METHODS = ("quicsort", "ubu", "euler")
CHAINS = 100  # two chunks, the second one partial


def _chunks(total):
    return -(-total // CHUNK)


def _counts(chunks, steps, *, splits=0, increments=0, metric_calls=0, maps=None):
    """Every traced count, from the steps each chunk takes per method."""
    return {
        "potentials.grad": chunks * sum(GRAD_EVALS[m] * n for m, n in steps.items()),
        "brownian.split": splits,
        "brownian.increment": increments,
        **{f"integrators.step_calls.{m}": chunks * steps.get(m, 0) for m in METHODS},
        "metrics.w2": metric_calls,
        "metrics.energy": metric_calls,
        "harness.chunks": chunks if maps is None else maps,
    }


@pytest.fixture
def calls(monkeypatch):
    """Call counts of the wrapped layer functions, keyed as the traced benchmark keys them."""
    counts = collections.Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # the runners look steppers up in this dict when they are built
    for name, fn in list(integrators.STEPPERS.items()):
        monkeypatch.setitem(integrators.STEPPERS, name, counted(f"integrators.step_calls.{name}", fn))
    for cls in (QuadraticPotential, LogisticPosterior):
        monkeypatch.setattr(cls, "gradient", counted("potentials.grad", cls.gradient))
    monkeypatch.setattr(DyadicBrownianTree, "split", counted("brownian.split", DyadicBrownianTree.split))
    monkeypatch.setattr(BrownianPath, "increment", counted("brownian.increment", BrownianPath.increment))
    monkeypatch.setattr(harness, "wasserstein2", counted("metrics.w2", harness.wasserstein2))
    monkeypatch.setattr(harness, "energy_distance_sq", counted("metrics.energy", harness.energy_distance_sq))
    map_chunks = harness._map_chunks

    def counted_map_chunks(worker, n_chunks, threads):
        counts["harness.chunks"] += n_chunks
        return map_chunks(worker, n_chunks, threads)

    monkeypatch.setattr(harness, "_map_chunks", counted_map_chunks)
    return counts


def _run(tmp_path, argv):
    assert main([*argv, "--threads", "1", "--out", str(tmp_path / "run")]) == 0


def _seen(calls, expected):
    return {name: calls[name] for name in expected}


def test_converge_calls_match_the_closed_form(calls, tmp_path):
    data = synthetic_dataset(rows=40, d_feat=2, seed=3)
    np.savetxt(tmp_path / "d.csv", np.column_stack([data.labels, data.features]), fmt="%.17g", delimiter=",")
    levels, fine = (1, 2, 3), 5
    _run(tmp_path, [
        "converge", "--dataset", str(tmp_path / "d.csv"), "--methods", ",".join(METHODS),
        "--levels", "1:3", "--fine-level", str(fine), "--paths", str(CHAINS), "--horizon", "1.0",
    ])
    # each method steps 2**level times per coarse level, the quicsort reference
    # 2**fine_level times, on one tree split at every node above fine_level
    steps = {m: sum(2**lvl for lvl in levels) for m in METHODS}
    steps["quicsort"] += 2**fine
    chunks = _chunks(CHAINS)
    expected = _counts(chunks, steps, splits=chunks * (2**fine - 1))
    assert _seen(calls, expected) == expected


def test_stationary_calls_match_the_closed_form(calls, tmp_path):
    burn_in, kept = 5, 12
    _run(tmp_path, [
        "stationary", "--dimension", "3", "--chains", str(CHAINS), "--burn-in", str(burn_in), "--kept", str(kept),
    ])
    # every chunk runs burn_in + kept quicsort steps on one increment each
    chunks = _chunks(CHAINS)
    steps = {"quicsort": burn_in + kept}
    expected = _counts(chunks, steps, increments=chunks * (burn_in + kept))
    assert _seen(calls, expected) == expected


def test_compare_calls_match_the_closed_form(calls, tmp_path):
    checkpoints = (0, 2, 5)
    _run(tmp_path, [
        "compare", "--dimension", "3", "--methods", ",".join(METHODS), "--chains", str(CHAINS),
        "--checkpoints", ",".join(map(str, checkpoints)), "--truth-samples", "64",
    ])
    # a one-gradient method runs twice the steps at half the step; every step
    # draws one increment, and each checkpoint measures one W2 and one energy
    chunks = _chunks(CHAINS)
    steps = {m: checkpoints[-1] * 2 // GRAD_EVALS[m] for m in METHODS}
    expected = _counts(
        chunks, steps,
        increments=chunks * sum(steps.values()),
        metric_calls=len(METHODS) * len(checkpoints),
        maps=chunks * len(METHODS),
    )
    assert _seen(calls, expected) == expected
