"""Metric tests against brute-force oracles: all-pairs double loops for the
energy distance, full permutation enumeration for small Wasserstein
problems, and closed-form Gaussian moments."""

import itertools

import numpy as np
import pytest

from ulmc import metrics
from ulmc.metrics import (
    EmpiricalDistribution,
    energy_distance_sq,
    moment_stats,
    subsample,
    wasserstein2,
)
from ulmc.potentials import QuadraticPotential


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


def test_energy_distance_weighted_matches_double_loop():
    rng = np.random.default_rng(403)
    xs = rng.standard_normal((20, 2))
    ys = rng.standard_normal((35, 2))
    wx = rng.random(20)
    wx /= wx.sum()
    wy = rng.random(35)
    wy /= wy.sum()
    got = energy_distance_sq(
        EmpiricalDistribution(xs, wx), EmpiricalDistribution(ys, wy)
    )
    assert got == pytest.approx(_energy_double_loop(xs, wx, ys, wy), abs=1e-12)


def test_energy_distance_symmetric_nonnegative_translation_invariant():
    rng = np.random.default_rng(404)
    xs = rng.standard_normal((40, 3))
    ys = rng.standard_normal((25, 3)) * 1.5
    d1 = energy_distance_sq(xs, ys)
    assert d1 >= 0.0
    assert d1 == pytest.approx(energy_distance_sq(ys, xs), rel=1e-12)
    shift = np.array([5.0, -2.0, 0.5])
    assert d1 == pytest.approx(energy_distance_sq(xs + shift, ys + shift), rel=1e-9)


def test_energy_distance_unbiased_variant():
    rng = np.random.default_rng(405)
    xs = rng.standard_normal((16, 2))
    ys = rng.standard_normal((16, 2))
    n = 16
    w = np.full(n, 1 / n)
    a = sum(
        w[i] * w[j] * np.linalg.norm(xs[i] - ys[j])
        for i in range(n)
        for j in range(n)
    )
    bu = sum(
        np.linalg.norm(xs[i] - xs[j]) for i in range(n) for j in range(n) if i != j
    ) / (n * (n - 1))
    cu = sum(
        np.linalg.norm(ys[i] - ys[j]) for i in range(n) for j in range(n) if i != j
    ) / (n * (n - 1))
    got = energy_distance_sq(xs, ys, unbiased=True)
    assert got == pytest.approx(2 * a - bu - cu, abs=1e-12)


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
    with pytest.raises(ValueError, match="uniform"):
        wasserstein2(
            EmpiricalDistribution(np.zeros((3, 1)), [0.5, 0.25, 0.25]),
            np.zeros((3, 1)),
        )


def test_subsample():
    rng = np.random.default_rng(411)
    dist = EmpiricalDistribution(rng.standard_normal((100, 2)))
    sub = subsample(dist, 10, np.random.default_rng(1))
    assert sub.n == 10 and sub.is_uniform()
    again = subsample(dist, 10, np.random.default_rng(1))
    np.testing.assert_array_equal(sub.samples, again.samples)
    with pytest.raises(ValueError):
        subsample(dist, 101, rng)


# ---------------------------------------------------------------------------
# moments


def test_moment_stats_zero_samples():
    stats = moment_stats(np.zeros((10, 3)))
    assert stats.v_l2 == 0.0 and stats.v_l4 == 0.0 and stats.v_l6 == 0.0
    assert stats.mean_v_sq == 0.0


def test_moment_stats_gaussian_velocities():
    u, d = 2.0, 3
    rng = np.random.default_rng(412)
    v = rng.standard_normal((1_000_000, d)) * np.sqrt(u)
    stats = moment_stats(v)
    assert stats.v_l2 == pytest.approx(np.sqrt(u * d), rel=0.01)
    assert stats.v_l4 == pytest.approx(3**0.25 * np.sqrt(u * d), rel=0.01)
    assert stats.v_l6 == pytest.approx(15 ** (1 / 6) * np.sqrt(u * d), rel=0.015)
    assert stats.mean_v_sq == pytest.approx(u * d, rel=0.01)


def test_moment_stats_with_gradients():
    d = 4
    pot = QuadraticPotential(1.0, d=d)
    rng = np.random.default_rng(413)
    x = rng.standard_normal((200_000, d))
    v = rng.standard_normal((200_000, d))
    stats = moment_stats(np.hstack([x, v]), pot)
    # grad f = x here, so both summaries estimate N(0, I_d) moments
    assert stats.grad_l2 == pytest.approx(np.sqrt(d), rel=0.02)
    assert stats.v_l2 == pytest.approx(np.sqrt(d), rel=0.02)
    positions_only = moment_stats(x, pot)
    assert positions_only.v_l2 is None
    assert positions_only.grad_l2 == pytest.approx(np.sqrt(d), rel=0.02)
    with pytest.raises(ValueError, match="width"):
        moment_stats(np.zeros((5, 3)), pot)


def test_empirical_distribution_validation():
    with pytest.raises(ValueError):
        EmpiricalDistribution(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        EmpiricalDistribution(np.zeros((2, 2)), [0.5, -0.5])
    dist = EmpiricalDistribution(np.zeros((4, 1)), [2.0, 2.0, 2.0, 2.0])
    np.testing.assert_allclose(dist.weights, 0.25)
