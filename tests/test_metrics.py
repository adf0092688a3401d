"""Metric tests against brute-force oracles: all-pairs double loops for the
energy distance and full permutation enumeration for small Wasserstein
problems."""

import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

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


def test_mean_distance_blocks_hold_at_most_the_entry_cap(monkeypatch):
    # clouds of up to 4,096 points keep blocks of _BLOCK_ROWS rows, and their bits
    assert metrics._BLOCK_ENTRIES // 4096 >= metrics._BLOCK_ROWS
    rng = np.random.default_rng(407)
    xs = rng.standard_normal((50, 3))
    euclidean, sqeuclidean, lsap = metrics.distance_kernels()
    blocks = []
    monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", 100)
    monkeypatch.setattr(
        metrics, "distance_kernels",
        lambda: (lambda a, b: blocks.append(a.shape[0] * b.shape[0]) or euclidean(a, b), sqeuclidean, lsap),
    )
    # fewer rows against a wider cloud, and one row against more than the cap
    for n_ys, n_blocks in ((37, 25), (150, 50)):
        blocks.clear()
        ys = rng.standard_normal((n_ys, 3)) + 0.2
        direct = np.sqrt(((xs[:, None, :] - ys[None, :, :]) ** 2).sum(axis=-1)).mean()
        assert metrics._mean_distance(xs, ys) == pytest.approx(direct, rel=1e-13)
        assert len(blocks) == n_blocks and sum(blocks) == 50 * n_ys
        assert max(blocks) <= max(100, n_ys)


# ---------------------------------------------------------------------------
# wasserstein


def test_energy_distance_reuses_a_clouds_own_pair_distances(monkeypatch):
    rng = np.random.default_rng(12)
    ref = EmpiricalDistribution(rng.standard_normal((40, 3)))
    clouds = [EmpiricalDistribution(rng.standard_normal((30, 3)) + shift) for shift in (0.0, 0.5)]
    want = []
    for cloud in clouds:
        a = metrics._mean_distance(cloud.samples, ref.samples)
        b = metrics._mean_distance(cloud.samples, cloud.samples)
        c = metrics._mean_distance(ref.samples, ref.samples)
        want.append(max(2.0 * a - b - c, 0.0))

    calls = []
    inner = metrics._mean_distance
    monkeypatch.setattr(metrics, "_mean_distance", lambda *args: calls.append(1) or inner(*args))
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


def test_wasserstein_is_inf_when_every_assignment_overflows():
    # 1e200**2 overflows, and each matching pairs 1e200 with a point near 0
    assert wasserstein2([[0.0, 0.0], [1e200, 0.0]], [[0.0, 0.0], [1.0, 0.0]]) == np.inf
    # an assignment that avoids the overflowing costs keeps its value
    assert wasserstein2([[0.0, 0.0], [1e200, 0.0]], [[1e200, 0.0], [0.0, 1.0]]) == np.sqrt(0.5)


def test_wasserstein_1d_is_inf_without_a_warning_when_a_square_overflows():
    # the sorted differences are 1e200, finite; their squares overflow
    assert wasserstein2([[0.0], [1e200]], [[0.0], [-1e200]]) == np.inf


def test_energy_distance_is_inf_when_a_mean_distance_overflows():
    # the clouds above: finite points whose distance 1e200 - 0 overflows in cdist
    big, small = [[0.0, 0.0], [1e200, 0.0]], [[0.0, 0.0], [1.0, 0.0]]
    assert energy_distance_sq(big, small) == np.inf  # inf - inf (NaN) before
    assert energy_distance_sq(small, big) == np.inf
    assert energy_distance_sq(big, big) == np.inf  # only the own-pair means overflow


@pytest.mark.parametrize("metric", [energy_distance_sq, wasserstein2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_metrics_reject_non_finite_clouds(metric, bad):
    cloud = [[0.0, 0.0], [bad, 0.0]]
    with pytest.raises(ValueError, match="samples must be finite"):
        metric(cloud, [[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="samples must be finite"):
        metric([[0.0, 0.0], [1.0, 0.0]], cloud)


def test_wasserstein_argument_errors():
    with pytest.raises(ValueError, match="dimension mismatch"):
        wasserstein2(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="equal sample counts"):
        wasserstein2(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError, match="subsample"):
        wasserstein2(np.zeros((5000, 1)), np.zeros((5000, 1)))


def test_subsample():
    rng = np.random.default_rng(411)
    dist = EmpiricalDistribution(rng.standard_normal((100, 2)))
    sub = subsample(dist, 10, np.random.default_rng(1))
    assert sub.n == 10 and sub.d == 2
    again = subsample(dist, 10, np.random.default_rng(1))
    np.testing.assert_array_equal(sub.samples, again.samples)
    with pytest.raises(ValueError):
        subsample(dist, 101, rng)


def test_empirical_distribution_validation():
    with pytest.raises(ValueError):
        EmpiricalDistribution(np.zeros((0, 2)))
    dist = EmpiricalDistribution(np.zeros(4))
    assert dist.n == 4 and dist.d == 1


# ---------------------------------------------------------------------------
# SciPy's kernels, loaded straight from their compiled modules


def _laid_out(a, layout):
    """``a`` as a C-ordered, Fortran-ordered or row-strided array."""
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    rows = np.zeros((2 * a.shape[0], a.shape[1]))
    rows[::2] = a
    return rows[::2]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture
def fresh_kernels():
    metrics.distance_kernels.cache_clear()
    yield
    metrics.distance_kernels.cache_clear()


def test_distance_kernels_come_from_the_compiled_modules(fresh_kernels):
    euclidean, sqeuclidean, lsap = metrics.distance_kernels()
    assert euclidean is sys.modules["scipy.spatial._distance_pybind"].cdist_euclidean
    assert sqeuclidean is sys.modules["scipy.spatial._distance_pybind"].cdist_sqeuclidean
    assert lsap is sys.modules["scipy.optimize._lsap"].linear_sum_assignment


@settings(max_examples=80)
@given(
    d=st.integers(1, 64),
    n=st.integers(1, 80),
    m=st.integers(1, 80),
    scale=st.floats(-5.0, 5.0).map(lambda e: 10.0**e),
    layout=st.sampled_from(["C", "F", "rows"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_direct_kernels_equal_public_scipy(d, n, m, scale, layout, seed):
    rng = np.random.default_rng(seed)
    xs = _laid_out(scale * rng.standard_normal((n, d)), layout)
    ys = _laid_out(scale * rng.standard_normal((m, d)), layout)
    euclidean, sqeuclidean, lsap = metrics.distance_kernels()
    assert _same_bits(euclidean(xs, ys), cdist(xs, ys))
    assert _same_bits(sqeuclidean(xs, ys), cdist(xs, ys, metric="sqeuclidean"))
    cost = _laid_out(cdist(xs, ys, metric="sqeuclidean"), layout)
    for got, want in zip(lsap(cost), linear_sum_assignment(cost)):
        assert _same_bits(got, want)


def test_distances_keep_their_bits_on_the_public_fallback(fresh_kernels, monkeypatch):
    rng = np.random.default_rng(413)
    equal_pairs = [
        (scale * rng.standard_normal((n, d)), scale * rng.standard_normal((n, d)) + 0.5 * scale)
        for n, d, scale in ((40, 3, 1.0), (130, 10, 1e4), (9, 64, 1e-4))
    ]
    # more rows than one energy block, so the block accumulation runs too
    uneven = (rng.standard_normal((metrics._BLOCK_ROWS + 300, 2)), rng.standard_normal((90, 2)))

    def distances():
        values = [wasserstein2(x, y) for x, y in equal_pairs]
        values += [energy_distance_sq(x, y) for x, y in [*equal_pairs, uneven]]
        return [v.hex() for v in values]

    direct = distances()
    monkeypatch.setattr(metrics, "_compiled_module", lambda name: None)
    metrics.distance_kernels.cache_clear()
    euclidean, _, lsap = metrics.distance_kernels()
    assert euclidean.func is cdist and lsap is linear_sum_assignment
    assert distances() == direct
