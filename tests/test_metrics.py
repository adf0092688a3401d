"""Metric tests against brute-force oracles: all-pairs double loops for the
energy distance and full permutation enumeration for small Wasserstein
problems."""

import itertools

import numpy as np
import pytest

from ulmc import metrics
from ulmc.metrics import (
    EmpiricalDistribution,
    energy_distance_sq,
    subsample,
    wasserstein2,
)


def _energy_double_loop(xs, wx, ys, wy):
    a = sum(
        wx[i] * wy[j] * np.linalg.norm(xs[i] - ys[j])
        for i in range(len(xs))
        for j in range(len(ys))
    )
    b = sum(
        wx[i] * wx[j] * np.linalg.norm(xs[i] - xs[j])
        for i in range(len(xs))
        for j in range(len(xs))
    )
    c = sum(
        wy[i] * wy[j] * np.linalg.norm(ys[i] - ys[j])
        for i in range(len(ys))
        for j in range(len(ys))
    )
    return 2 * a - b - c


def _w2_by_enumeration(xs, ys):
    n = len(xs)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = np.mean([np.sum((xs[i] - ys[p]) ** 2) for i, p in enumerate(perm)])
        best = min(best, cost)
    return np.sqrt(best)


# ---------------------------------------------------------------------------
# energy distance


def test_energy_distance_identical_clouds_is_zero():
    pts = np.random.default_rng(401).standard_normal((30, 2))
    assert energy_distance_sq(pts, pts.copy()) == 0.0


def test_energy_distance_point_masses():
    assert energy_distance_sq([[0.0]], [[3.5]]) == pytest.approx(7.0)


def test_energy_distance_matches_double_loop():
    rng = np.random.default_rng(402)
    xs = rng.standard_normal((64, 3))
    ys = rng.standard_normal((64, 3)) + 0.3
    got = energy_distance_sq(xs, ys)
    want = _energy_double_loop(xs, np.full(64, 1 / 64), ys, np.full(64, 1 / 64))
    assert got == pytest.approx(want, abs=1e-12)


def test_energy_distance_symmetric_nonnegative_translation_invariant():
    rng = np.random.default_rng(404)
    xs = rng.standard_normal((40, 3))
    ys = rng.standard_normal((25, 3)) * 1.5
    d1 = energy_distance_sq(xs, ys)
    assert d1 >= 0.0
    assert d1 == pytest.approx(energy_distance_sq(ys, xs), rel=1e-12)
    shift = np.array([5.0, -2.0, 0.5])
    assert d1 == pytest.approx(energy_distance_sq(xs + shift, ys + shift), rel=1e-9)


def test_energy_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        energy_distance_sq(np.zeros((3, 2)), np.zeros((3, 3)))


def test_energy_distance_blocked_path_consistent():
    # more rows than one block to exercise the block accumulation
    rng = np.random.default_rng(406)
    xs = rng.standard_normal((3000, 2))
    ys = rng.standard_normal((100, 2))
    d_full = energy_distance_sq(xs, ys)
    assert d_full >= 0
    # same value when the roles are swapped (symmetry across block splits)
    assert d_full == pytest.approx(energy_distance_sq(ys, xs), rel=1e-10)


# ---------------------------------------------------------------------------
# wasserstein


def test_energy_distance_reuses_a_clouds_own_pair_distances(monkeypatch):
    rng = np.random.default_rng(12)
    ref = EmpiricalDistribution(rng.standard_normal((40, 3)))
    clouds = [EmpiricalDistribution(rng.standard_normal((30, 3)) + shift) for shift in (0.0, 0.5)]
    want = []
    for cloud in clouds:
        a = metrics._weighted_mean_distance(cloud.samples, cloud.weights, ref.samples, ref.weights)
        b = metrics._weighted_mean_distance(cloud.samples, cloud.weights, cloud.samples, cloud.weights)
        c = metrics._weighted_mean_distance(ref.samples, ref.weights, ref.samples, ref.weights)
        want.append(max(2.0 * a - b - c, 0.0))

    calls = []
    inner = metrics._weighted_mean_distance
    monkeypatch.setattr(
        metrics, "_weighted_mean_distance", lambda *args: calls.append(1) or inner(*args)
    )
    got = [energy_distance_sq(cloud, ref) for cloud in clouds]
    assert got == want  # the same floats
    assert len(calls) == 3 + 2  # the reference's own pairs only once
    assert energy_distance_sq(clouds[0], ref) == want[0] and len(calls) == 5 + 1


def test_empirical_distributions_compare_by_identity():
    samples = np.arange(6.0).reshape(3, 2)
    cloud = EmpiricalDistribution(samples)
    assert cloud == cloud
    assert cloud != EmpiricalDistribution(samples)
    assert len({cloud, cloud}) == 1


def test_wasserstein_identical_is_zero():
    pts = np.random.default_rng(407).standard_normal((12, 3))
    assert wasserstein2(pts, pts.copy()) == pytest.approx(0.0, abs=1e-12)


def test_wasserstein_sorted_pairs_1d():
    assert wasserstein2([[0.0], [1.0]], [[0.5], [1.5]]) == pytest.approx(0.5)


def test_wasserstein_matches_permutation_enumeration():
    rng = np.random.default_rng(408)
    xs = rng.standard_normal((6, 3))
    ys = rng.standard_normal((6, 3))
    assert wasserstein2(xs, ys) == pytest.approx(_w2_by_enumeration(xs, ys), abs=1e-12)


def test_wasserstein_1d_equals_sorted_matching():
    rng = np.random.default_rng(409)
    xs = rng.standard_normal(1000)
    ys = rng.standard_normal(1000) * 2 + 1
    got = wasserstein2(xs, ys)
    want = np.sqrt(np.mean((np.sort(xs) - np.sort(ys)) ** 2))
    assert got == pytest.approx(want, rel=1e-12)
    # and the generic assignment path agrees with the 1-d shortcut
    as_2d = np.column_stack([xs, np.zeros(1000)])
    bs_2d = np.column_stack([ys, np.zeros(1000)])
    assert wasserstein2(as_2d, bs_2d) == pytest.approx(want, rel=1e-9)


def test_wasserstein_triangle_inequality():
    rng = np.random.default_rng(410)
    for _ in range(5):
        a = rng.standard_normal((24, 2))
        b = rng.standard_normal((24, 2)) + 1
        c = rng.standard_normal((24, 2)) - 0.5
        assert wasserstein2(a, b) <= wasserstein2(a, c) + wasserstein2(c, b) + 1e-9


def test_wasserstein_argument_errors():
    with pytest.raises(ValueError, match="equal sample counts"):
        wasserstein2(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError, match="subsample"):
        wasserstein2(np.zeros((5000, 1)), np.zeros((5000, 1)))


def test_subsample():
    rng = np.random.default_rng(411)
    dist = EmpiricalDistribution(rng.standard_normal((100, 2)))
    sub = subsample(dist, 10, np.random.default_rng(1))
    assert sub.n == 10 and np.array_equal(sub.weights, np.full(10, 0.1))
    again = subsample(dist, 10, np.random.default_rng(1))
    np.testing.assert_array_equal(sub.samples, again.samples)
    with pytest.raises(ValueError):
        subsample(dist, 101, rng)


def test_empirical_distribution_validation():
    with pytest.raises(ValueError):
        EmpiricalDistribution(np.zeros((0, 2)))
    dist = EmpiricalDistribution(np.zeros((4, 1)))
    np.testing.assert_allclose(dist.weights, 0.25)
