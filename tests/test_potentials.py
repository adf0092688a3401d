"""Tests for the potential family: gradients vs finite differences, dataset
loading, prior sampling, and the convexity/smoothness constants."""

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ulmc.potentials import (
    GradientCounter,
    LogisticDataset,
    LogisticPosterior,
    PotentialMeta,
    QuadraticPotential,
    load_dataset,
    logistic_potential_gradient,
    sample_prior,
    synthetic_dataset,
)


def _fd_gradient(value, x, eps=1e-6):
    """Central finite differences of a scalar function, one probe at a time."""
    g = np.zeros_like(x)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = eps
        g[j] = (value(x + step) - value(x - step)) / (2 * eps)
    return g


def _random_dataset(rng, rows=20, d_feat=3):
    feats = rng.standard_normal((rows, d_feat))
    labels = np.where(rng.random(rows) < 0.5, -1.0, 1.0)
    return LogisticDataset(feats, labels)


def _softplus_gradient(dataset, params):
    """Reference gradient: split (theta, b), sigma(-z) as exp(-logaddexp(0, z))."""
    theta, b = params[..., :-1], params[..., -1]
    z = dataset.labels * (theta @ dataset.features.T + b[..., None])
    coef = np.exp(-np.logaddexp(0.0, z)) * dataset.labels
    grad_theta = -coef @ dataset.features + theta / (2.0 * dataset.feature_variance)
    grad_b = -np.sum(coef, axis=-1) + b
    return np.concatenate([grad_theta, grad_b[..., None]], axis=-1)


# ---------------------------------------------------------------------------
# quadratic potential


def test_quadratic_gradient_at_center_is_zero():
    p = QuadraticPotential([1.0, 4.0], center=[2.0, -1.0])
    np.testing.assert_array_equal(p.gradient([2.0, -1.0]), [0.0, 0.0])


def test_quadratic_gradient_direct_formula():
    p = QuadraticPotential([1.0, 4.0])
    np.testing.assert_allclose(p.gradient([1.0, 1.0]), [1.0, 4.0])


def test_quadratic_gradient_matches_finite_differences():
    rng = np.random.default_rng(201)
    p = QuadraticPotential([0.5, 2.0, 7.0], center=[1.0, 0.0, -2.0])
    for _ in range(20):
        x = rng.standard_normal(3) * 3
        fd = _fd_gradient(p.value, x)
        np.testing.assert_allclose(p.gradient(x), fd, rtol=1e-8, atol=1e-8)


def test_quadratic_meta():
    p = QuadraticPotential([0.5, 2.0], center=0.0)
    assert p.meta.m == 0.5 and p.meta.M1 == 2.0 and p.meta.M2 == 0.0


def test_quadratic_scalar_curvature_needs_dimension():
    with pytest.raises(ValueError):
        QuadraticPotential(2.0)
    p = QuadraticPotential(2.0, d=3)
    assert p.meta.d == 3


@pytest.mark.parametrize(
    "curvatures, d, problem",
    [
        (1.0, 0, "dimension: must be at least 1"),
        (1.0, -2, "dimension: must be at least 1"),
        ([], None, "curvature: need a nonempty vector of curvatures"),
        ([[1.0, 2.0]], None, "curvature: need a nonempty vector of curvatures"),
        (0.0, 3, "curvature: must be positive"),
        ([1.0, float("nan")], None, "curvature: must be positive"),
    ],
)
def test_quadratic_rejects_empty_or_bad_curvatures(curvatures, d, problem):
    with pytest.raises(ValueError) as exc:
        QuadraticPotential(curvatures, d=d)
    assert str(exc.value) == problem


# ---------------------------------------------------------------------------
# logistic posterior


def test_logistic_gradient_single_row_hand_example():
    # one row x=(0), y=+1 at the origin: d f/d b = -sigma(0) = -0.5
    ds = LogisticDataset(np.zeros((1, 1)), np.array([1.0]), feature_variance=1.0)
    g = logistic_potential_gradient(ds, np.zeros(2))
    np.testing.assert_allclose(g, [0.0, -0.5], atol=1e-15)


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(202)
    ds = _random_dataset(rng)
    pot = LogisticPosterior(ds)
    for _ in range(100):
        x = rng.standard_normal(4) * rng.uniform(0.1, 3.0)
        fd = _fd_gradient(pot.value, x)
        g = pot.gradient(x)
        denom = np.maximum(1.0, np.abs(g))
        assert np.max(np.abs(g - fd) / denom) < 1e-6


def test_logistic_gradient_batched_matches_loop():
    rng = np.random.default_rng(203)
    ds = _random_dataset(rng)
    pts = rng.standard_normal((5, 7, 4))
    batched = logistic_potential_gradient(ds, pts)
    for i in range(5):
        for j in range(7):
            np.testing.assert_allclose(
                batched[i, j], logistic_potential_gradient(ds, pts[i, j])
            )


def test_logistic_gradient_finite_at_extreme_logits():
    rng = np.random.default_rng(204)
    ds = _random_dataset(rng)
    pot = LogisticPosterior(ds)
    with np.errstate(over="raise", invalid="raise"):
        for scale in (1e3, 1e6):
            g = pot.gradient(np.full(4, scale))
            assert np.all(np.isfinite(g))
            v = pot.value(np.full(4, scale))
            assert np.isfinite(v)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=2, max_value=30),
    d_feat=st.integers(min_value=1, max_value=5),
    batch=st.one_of(
        st.just(()), st.integers(min_value=1, max_value=64).map(lambda b: (b,)), st.just((5, 7))
    ),
    log_scale=st.floats(min_value=-3.0, max_value=6.0),
)
def test_logistic_gradient_matches_softplus_oracle(seed, rows, d_feat, batch, log_scale):
    rng = np.random.default_rng(seed)
    ds = _random_dataset(rng, rows=rows, d_feat=d_feat)
    params = rng.uniform(-1.0, 1.0, (*batch, d_feat + 1)) * 10.0**log_scale
    with np.errstate(over="raise", invalid="raise"):
        g = logistic_potential_gradient(ds, params)
        want = _softplus_gradient(ds, params)
    assert g.shape == want.shape
    scale = np.maximum(1.0, np.max(np.abs(want), axis=-1, keepdims=True))
    assert np.all(np.abs(g - want) <= 1e-12 * scale)


def _full_design_gradient(dataset, params):
    """The gradient as written on the full signed design: logits halved in place."""
    z = params @ dataset.signed_design.T
    z *= 0.5
    np.tanh(z, out=z)
    z *= -0.5
    z += 0.5
    return params * dataset.prior_precision - z @ dataset.signed_design


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.sampled_from([2, 7, 40, 200, 600]),
    d_feat=st.integers(min_value=1, max_value=6),
    batch=st.sampled_from([(), (1,), (64,), (130,), (3, 7)]),
    log_scale=st.floats(min_value=-3.0, max_value=6.0),
)
def test_halved_design_gradient_is_bitwise_the_full_design_formula(seed, rows, d_feat, batch, log_scale):
    # halving is exact, so moving both halvings onto the design changes no bit
    rng = np.random.default_rng(seed)
    ds = _random_dataset(rng, rows=rows, d_feat=d_feat)
    params = rng.uniform(-1.0, 1.0, (*batch, d_feat + 1)) * 10.0**log_scale
    np.testing.assert_array_equal(
        logistic_potential_gradient(ds, params), _full_design_gradient(ds, params)
    )


def test_logistic_posterior_delegates_to_gradient_function():
    ds = _random_dataset(np.random.default_rng(209))
    pts = np.random.default_rng(210).standard_normal((3, 4))
    np.testing.assert_array_equal(
        LogisticPosterior(ds).gradient(pts), logistic_potential_gradient(ds, pts)
    )


def test_logistic_precomputed_design_is_read_only():
    ds = _random_dataset(np.random.default_rng(211))
    tilde = np.hstack([ds.features, np.ones((ds.n_rows, 1))])
    np.testing.assert_array_equal(ds.signed_design, ds.labels[:, None] * tilde)
    np.testing.assert_array_equal(ds.half_signed_design, 0.5 * ds.signed_design)
    for arr in (ds.signed_design, ds.half_signed_design, ds.prior_precision):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_entries_by_name(bad):
    feats = np.ones((3, 2)) * np.arange(3)[:, None]
    labels = np.array([1.0, -1.0, 1.0])
    broken = feats.copy()
    broken[2, 1] = bad
    with pytest.raises(ValueError, match=r"features must be finite.*\[2\]"):
        LogisticDataset(broken, labels)
    broken_labels = labels.copy()
    broken_labels[1] = bad
    with pytest.raises(ValueError, match=r"labels must be finite.*\[1\]"):
        LogisticDataset(feats, broken_labels)


def test_load_dataset_reports_nan_feature(tmp_path):
    f = tmp_path / "nan.csv"
    f.write_text("1,0.5,2.0\n0,nan,1.0\n1,0.3,0.2\n")
    with pytest.raises(ValueError, match="features must be finite"):
        load_dataset(f)


def test_logistic_prior_gradient_vanishes_at_origin():
    rng = np.random.default_rng(205)
    ds = _random_dataset(rng)
    g = logistic_potential_gradient(ds, np.zeros(4))
    # at the origin only the likelihood contributes: -1/2 sum y_i (x_i, 1)
    tilde = np.hstack([ds.features, np.ones((ds.n_rows, 1))])
    expect = -0.5 * ds.labels @ tilde
    np.testing.assert_allclose(g, expect, atol=1e-12)


def test_logistic_dimension_mismatch():
    ds = LogisticDataset(np.arange(6.0).reshape(2, 3), np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        logistic_potential_gradient(ds, np.zeros(3))


def test_strong_convexity_from_prior():
    rng = np.random.default_rng(206)
    ds = _random_dataset(rng, rows=30)
    pot = LogisticPosterior(ds)
    m = pot.meta.m
    assert m == min(1.0 / (2.0 * ds.feature_variance), 1.0)
    for _ in range(100):
        x = rng.standard_normal(4) * rng.uniform(0.1, 5.0)
        y = rng.standard_normal(4) * rng.uniform(0.1, 5.0)
        lhs = np.dot(pot.gradient(x) - pot.gradient(y), x - y)
        assert lhs >= m * np.sum((x - y) ** 2) * (1.0 - 1e-10)


def test_gradient_lipschitz_bound():
    rng = np.random.default_rng(207)
    ds = _random_dataset(rng, rows=30)
    pot = LogisticPosterior(ds)
    for _ in range(200):
        x = rng.standard_normal(4) * rng.uniform(0.01, 5.0)
        y = x + rng.standard_normal(4) * rng.uniform(1e-3, 1.0)
        lhs = np.linalg.norm(pot.gradient(x) - pot.gradient(y))
        assert lhs <= pot.meta.M1 * np.linalg.norm(x - y) * (1.0 + 1e-10)


def test_meta_validation():
    with pytest.raises(ValueError):
        PotentialMeta(d=1, m=2.0, M1=1.0)
    with pytest.raises(ValueError):
        PotentialMeta(d=0, m=0.0, M1=1.0)
    with pytest.raises(ValueError):
        PotentialMeta(d=1, m=0.0, M1=0.0)


# ---------------------------------------------------------------------------
# dataset loading


def test_load_dataset_two_row_example(tmp_path):
    f = tmp_path / "toy.csv"
    f.write_text("0,1.0\n1,3.0\n")
    ds = load_dataset(f)
    np.testing.assert_array_equal(ds.labels, [-1.0, 1.0])
    np.testing.assert_array_equal(ds.features, [[1.0], [3.0]])
    assert ds.feature_variance == 1.0  # population variance of {1, 3}


def test_load_dataset_whitespace_and_signed_labels(tmp_path):
    f = tmp_path / "toy.txt"
    f.write_text("1 2.0 0.5\n-1 1.0 0.25\n")
    ds = load_dataset(f)
    np.testing.assert_array_equal(ds.labels, [1.0, -1.0])
    assert ds.features.shape == (2, 2)


def test_load_dataset_label_column_choice(tmp_path):
    f = tmp_path / "toy.csv"
    f.write_text("2.0,0\n3.0,1\n")
    ds = load_dataset(f, label_col=-1)
    np.testing.assert_array_equal(ds.labels, [-1.0, 1.0])
    np.testing.assert_array_equal(ds.features.ravel(), [2.0, 3.0])


def test_load_dataset_skip_header(tmp_path):
    f = tmp_path / "toy.csv"
    f.write_text("label,x\n0,1.0\n1,3.0\n")
    ds = load_dataset(f, skip_header=1)
    assert ds.n_rows == 2


def test_load_dataset_standardize(tmp_path):
    f = tmp_path / "toy.csv"
    f.write_text("0,1.0,5.0\n1,3.0,9.0\n0,2.0,7.0\n")
    ds = load_dataset(f, standardize=True)
    np.testing.assert_allclose(ds.features.mean(axis=0), 0.0, atol=1e-14)
    np.testing.assert_allclose(ds.features.std(axis=0), 1.0)
    np.testing.assert_allclose(ds.feature_variance, 1.0)


def test_load_dataset_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "absent.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_dataset(empty)
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1.0\n2,3.0\n")
    with pytest.raises(ValueError, match="labels"):
        load_dataset(bad)
    const = tmp_path / "const.csv"
    const.write_text("0,1.0,2.0\n1,1.0,3.0\n")
    with pytest.raises(ValueError, match="column"):
        load_dataset(const, standardize=True)
    garbled = tmp_path / "garbled.csv"
    garbled.write_text("0,one\n1,two\n")
    with pytest.raises(ValueError, match="parse"):
        load_dataset(garbled)


# ---------------------------------------------------------------------------
# prior sampling and helpers


def test_sample_prior_variances():
    feats = np.array([[1.0], [2.0]])  # any matrix; variance forced below
    ds = LogisticDataset(feats, np.array([-1.0, 1.0]), feature_variance=0.5)
    rng = np.random.default_rng(208)
    draws = sample_prior(ds, rng, shape=(1_000_000,))
    # theta variance 1/(2*0.5) = 1, intercept variance 1
    assert abs(np.var(draws[:, 0]) - 1.0) < 0.02
    assert abs(np.var(draws[:, 1]) - 1.0) < 0.02


def test_sample_prior_reproducible():
    ds = LogisticDataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([-1.0, 1.0]), feature_variance=1.0)
    a = sample_prior(ds, np.random.default_rng(9), shape=(3,))
    b = sample_prior(ds, np.random.default_rng(9), shape=(3,))
    np.testing.assert_array_equal(a, b)


def test_gradient_counter():
    pot = QuadraticPotential([1.0, 1.0])
    counted = GradientCounter(pot)
    assert counted.calls == 0
    counted.gradient(np.zeros((10, 2)))
    counted.gradient(np.zeros(2))
    assert counted.calls == 2
    assert counted.meta.M1 == 1.0


def test_gradient_counter_exact_under_threads():
    counted = GradientCounter(QuadraticPotential([1.0]))
    n_threads, per_thread = 4 * (os.cpu_count() or 1), 2000
    x = np.zeros(1)
    start = threading.Barrier(n_threads)

    def work():
        start.wait(timeout=10)
        for _ in range(per_thread):
            counted.gradient(x)

    workers = [threading.Thread(target=work, daemon=True) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert counted.calls == n_threads * per_thread


def test_synthetic_dataset_deterministic_and_valid():
    a = synthetic_dataset(50, 3, seed=7, margin=0.8)
    b = synthetic_dataset(50, 3, seed=7, margin=0.8)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.n_rows == 50 and a.d_feat == 3
    assert set(np.unique(a.labels)) <= {-1.0, 1.0}
    c = synthetic_dataset(50, 3, seed=8, margin=0.8)
    assert not np.array_equal(a.features, c.features)
