"""Tests for interval coefficients: sampling laws, composition, refinement.

The refinement bridge is checked against a brute-force oracle that assembles
the joint Gaussian covariance of interval functionals by trapezoid quadrature
of the Brownian kernel min(r, t) on a fine grid, then conditions by a Schur
complement.  Composition is checked against direct quadrature of a piecewise
linear reconstruction of the same path.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ulmc import brownian as bm

_EPS = np.finfo(float).eps


def _zero_increment(dt, d, shape=()):
    """Increment of a path that is identically zero on the interval."""
    z = np.zeros((*shape, d))
    return bm.BrownianIncrement(dt, z, z.copy(), z.copy())


# ---------------------------------------------------------------------------
# oracles


def _kernel_cov(ratio, n_grid):
    """Covariance of (w_L, i1_L, i2_L, w, i1, i2) for a unit parent interval.

    Functionals of the path are written as weight vectors against the grid
    values of W, so every covariance is weightsᵀ min(r,t) weights.
    """
    s = 1.0
    a = ratio * s
    t = np.linspace(0.0, s, n_grid + 1)[1:]
    kern = np.minimum.outer(t, t)

    def point(x):
        v = np.zeros(len(t))
        v[np.argmin(np.abs(t - x))] = 1.0
        return v

    def trap(lo, hi):
        w = np.zeros(len(t))
        idx = np.nonzero((t >= lo - 1e-15) & (t <= hi + 1e-15))[0]
        dts = np.diff(t[idx])
        inner = np.zeros(len(idx))
        inner[:-1] += dts / 2
        inner[1:] += dts / 2
        w[idx] = inner
        return w

    w_i1l = trap(0.0, a)
    w_i2l = w_i1l * np.clip(a - t, 0.0, None)  # i2 = int (a-r) W_r dr
    w_i1 = trap(0.0, s)
    w_i2 = w_i1 * (s - t)
    funcs = np.stack([point(a), w_i1l, w_i2l, point(s), w_i1, w_i2])
    return funcs @ kern @ funcs.T


def _conditional_from_kernel(ratio, n_grid=4000):
    """Oracle conditional law (mean map, covariance) of the left part."""
    cov = _kernel_cov(ratio, n_grid)
    spp = cov[3:, 3:]
    slp = cov[:3, 3:]
    sll = cov[:3, :3]
    gain = slp @ np.linalg.inv(spp)
    return gain, sll - gain @ slp.T


def _reconstruction_integrals(leaves, pts_per_leaf=64):
    """(W, I1, I2) of the union interval by quadrature of the reconstruction.

    Each leaf contributes a linear segment: a jump of h+6k at its left end,
    slope (w-12k)/dt, and a jump of 6k-h at its right end.  Segment values
    are tabulated on pts_per_leaf sub-cells and integrated by the trapezoid
    rule; the running integral needed for I2 is accumulated the same way.
    """
    dt = leaves[0].dt
    w = np.stack([lf.w for lf in leaves])
    h = np.stack([lf.h for lf in leaves])
    k = np.stack([lf.k for lf in leaves])
    n = w.shape[0]
    dx = dt / pts_per_leaf
    tau = np.linspace(0.0, dt, pts_per_leaf + 1)

    start = np.concatenate([np.zeros_like(w[:1]), np.cumsum(w, axis=0)[:-1]])
    slope = (w - 12.0 * k) / dt
    vals = (
        (start + h + 6.0 * k)[:, None, :]
        + slope[:, None, :] * tau[None, :, None]
    )

    i1_leaf = np.trapezoid(vals, dx=dx, axis=1)
    c_start = np.concatenate(
        [np.zeros_like(i1_leaf[:1]), np.cumsum(i1_leaf, axis=0)[:-1]]
    )
    steps = 0.5 * dx * (vals[:, :-1, :] + vals[:, 1:, :])
    running = np.concatenate(
        [np.zeros((n, 1, w.shape[-1])), np.cumsum(steps, axis=1)], axis=1
    )
    running += c_start[:, None, :]
    i2_leaf = np.trapezoid(running, dx=dx, axis=1)
    return w.sum(axis=0), i1_leaf.sum(axis=0), i2_leaf.sum(axis=0)


def _two_stage_refine(inc, rng):
    """Reference midpoint refinement in time-integral form.

    Draws the left half's normalized (w, i1, i2) from the bridge, then fixes
    the right half by the composition rule, converting through
    :class:`TimeIntegrals` at each end.  Consumes ``rng`` exactly as
    :func:`refine` does.
    """
    a_mat, l_mat = bm.bridge_matrices()
    s = inc.dt
    dt_l = 0.5 * s
    dt_r = s - dt_l
    ti = bm.to_time_integrals(inc)
    xp = np.stack([ti.w / s**0.5, ti.i1 / s**1.5, ti.i2 / s**2.5])
    z = rng.standard_normal(xp.shape)
    xl = np.tensordot(a_mat, xp, axes=1) + np.tensordot(l_mat, z, axes=1)
    w_l = xl[0] * dt_l**0.5
    i1_l = xl[1] * dt_l**1.5
    i2_l = xl[2] * dt_l**2.5
    left = bm.from_time_integrals(bm.TimeIntegrals(dt_l, w_l, i1_l, i2_l))
    w_r = ti.w - w_l
    i1_r = ti.i1 - i1_l - dt_r * w_l
    i2_r = ti.i2 - i2_l - dt_r * i1_l - 0.5 * dt_r * dt_r * w_l
    right = bm.from_time_integrals(bm.TimeIntegrals(dt_r, w_r, i1_r, i2_r))
    return left, right


def _split_to_depth(inc, rng, depth):
    level = [inc]
    for _ in range(depth):
        nxt = []
        for node in level:
            nxt.extend(bm.refine(node, rng))
        level = nxt
    return level


# ---------------------------------------------------------------------------
# sampling laws


def test_coefficient_variances_unit_interval():
    rng = np.random.default_rng(101)
    inc = bm.sample_increment(rng, 1.0, 2, shape=(1_000_000,))
    assert abs(np.var(inc.w) - 1.0) < 0.02
    assert abs(np.var(inc.h) - 1.0 / 12.0) < 0.02 / 12.0
    assert abs(np.var(inc.k) - 1.0 / 720.0) < 0.02 / 720.0


def test_coefficient_variances_scale_with_dt():
    rng = np.random.default_rng(102)
    inc = bm.sample_increment(rng, 0.25, 1, shape=(1_000_000,))
    assert abs(np.var(inc.k) - 0.25 / 720.0) < 0.02 * 0.25 / 720.0
    assert abs(np.var(inc.w) - 0.25) < 0.02 * 0.25


def test_coefficients_uncorrelated():
    rng = np.random.default_rng(103)
    inc = bm.sample_increment(rng, 1.0, 1, shape=(1_000_000,))
    cols = np.stack([inc.w.ravel(), inc.h.ravel(), inc.k.ravel()])
    corr = np.corrcoef(cols)
    off = corr - np.eye(3)
    assert np.max(np.abs(off)) < 4.0 / np.sqrt(cols.shape[1])


def test_sample_increment_rejects_bad_args():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        bm.sample_increment(rng, 0.0, 3)
    with pytest.raises(ValueError):
        bm.sample_increment(rng, -1.0, 3)
    with pytest.raises(ValueError):
        bm.sample_increment(rng, 1.0, 0)


# ---------------------------------------------------------------------------
# time-integral maps


def test_time_integrals_of_plain_increment():
    inc = bm.BrownianIncrement(1.0, [1.0], [0.0], [0.0])
    ti = bm.to_time_integrals(inc)
    np.testing.assert_allclose(ti.i1, [0.5])
    np.testing.assert_allclose(ti.i2, [1.0 / 6.0])


def test_time_integrals_zero_path():
    ti = bm.to_time_integrals(_zero_increment(2.0, 3))
    assert not ti.i1.any() and not ti.i2.any()


def test_time_integral_roundtrip():
    rng = np.random.default_rng(104)
    inc = bm.sample_increment(rng, 0.37, 4, shape=(50,))
    back = bm.from_time_integrals(bm.to_time_integrals(inc))
    np.testing.assert_allclose(back.h, inc.h, rtol=1e-14, atol=1e-16)
    np.testing.assert_allclose(back.k, inc.k, rtol=1e-14, atol=1e-16)


def test_from_time_integrals_hand_example():
    # dt=2, w=0, h0=1, k0=0 gives i1 = 2*h0 = 2 and i2 = dt^2*h0/2 = 2
    ti = bm.TimeIntegrals(2.0, [0.0], [2.0], [2.0])
    inc = bm.from_time_integrals(ti)
    np.testing.assert_allclose(inc.h, [1.0], atol=1e-15)
    np.testing.assert_allclose(inc.k, [0.0], atol=1e-15)


@pytest.mark.parametrize(
    "w, h, k, problem",
    [(1.0, 0.0, 0.0, "trailing coordinate axis"), ([1.0, 2.0], [0.0], [0.0], "shapes disagree")],
)
def test_increment_rejects_malformed_coefficients(w, h, k, problem):
    with pytest.raises(ValueError, match=problem):
        bm.BrownianIncrement(1.0, w, h, k)


def test_time_integrals_require_positive_dt():
    with pytest.raises(ValueError):
        bm.TimeIntegrals(0.0, [1.0], [0.0], [0.0])


# ---------------------------------------------------------------------------
# composition


def test_combine_zero_paths():
    out = bm.combine(_zero_increment(0.5, 2), _zero_increment(0.5, 2))
    assert out.dt == 1.0
    assert not out.w.any() and not out.h.any() and not out.k.any()


def test_combine_associative():
    rng = np.random.default_rng(105)
    a = bm.sample_increment(rng, 0.3, 3)
    b = bm.sample_increment(rng, 0.5, 3)
    c = bm.sample_increment(rng, 0.2, 3)
    left = bm.combine(bm.combine(a, b), c)
    right = bm.combine(a, bm.combine(b, c))
    np.testing.assert_allclose(left.w, right.w, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(left.h, right.h, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(left.k, right.k, rtol=1e-13, atol=1e-15)


def test_combine_dimension_mismatch():
    with pytest.raises(ValueError):
        bm.combine(_zero_increment(0.5, 2), _zero_increment(0.5, 3))


def test_combine_matches_reconstruction_quadrature():
    # Split [0, 0.5] and [0.5, 1] into 512 consistent leaves each and
    # integrate the piecewise-linear reconstruction on 2^16 grid cells.
    rng = np.random.default_rng(106)
    a = bm.sample_increment(rng, 0.5, 3)
    b = bm.sample_increment(rng, 0.5, 3)
    leaves = _split_to_depth(a, rng, 9) + _split_to_depth(b, rng, 9)
    w_q, i1_q, i2_q = _reconstruction_integrals(leaves, pts_per_leaf=64)

    ti = bm.to_time_integrals(bm.combine(a, b))
    np.testing.assert_allclose(ti.w, w_q, atol=1e-10, rtol=0)
    np.testing.assert_allclose(ti.i1, i1_q, atol=1e-10, rtol=0)
    np.testing.assert_allclose(ti.i2, i2_q, atol=1e-10, rtol=0)


# ---------------------------------------------------------------------------
# refinement


def test_refine_combine_roundtrip():
    rng = np.random.default_rng(107)
    inc = bm.sample_increment(rng, 0.8, 3, shape=(20,))
    l, r = bm.refine(inc, rng)
    assert l.dt == r.dt == 0.4
    back = bm.combine(l, r)
    np.testing.assert_allclose(back.w, inc.w, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(back.h, inc.h, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(back.k, inc.k, rtol=1e-13, atol=1e-15)


_DTS = st.floats(min_value=1e-6, max_value=1e3)
_BATCHES = st.sampled_from([(), (3,), (2, 5)])
_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@given(dt=_DTS, batch=_BATCHES, seed=_SEEDS)
def test_refine_recombines_for_any_dt(dt, batch, seed):
    rng = np.random.default_rng(seed)
    inc = bm.sample_increment(rng, dt, 2, shape=batch)
    left, right = bm.refine(inc, rng)
    assert left.dt == right.dt and left.dt + right.dt == dt
    back = bm.combine(left, right)
    tol = 64 * _EPS * np.sqrt(dt)
    for got, want in ((back.w, inc.w), (back.h, inc.h), (back.k, inc.k)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)


@given(dt=_DTS, batch=_BATCHES, seed=_SEEDS)
def test_refine_matches_two_stage_oracle(dt, batch, seed):
    inc = bm.sample_increment(np.random.default_rng(seed), dt, 2, shape=batch)
    fused = bm.refine(inc, np.random.default_rng(seed + 1))
    oracle = _two_stage_refine(inc, np.random.default_rng(seed + 1))
    # the right half divides by its length squared, which amplifies rounding
    tol = 64 * _EPS * np.sqrt(dt) / 0.5**2
    for got, want in zip(fused, oracle):
        assert got.dt == want.dt
        for name in ("w", "h", "k"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0.0, atol=tol)


def test_bridge_matrices_match_conditioning_oracle():
    gain_o, cond_o = _conditional_from_kernel(0.5)
    a_hat, l_hat = bm.bridge_matrices()
    d_left = np.diag([0.5**0.5, 0.5**1.5, 0.5**2.5])
    gain = d_left @ a_hat  # parent scales are 1 on the unit interval
    cond = d_left @ (l_hat @ l_hat.T) @ d_left
    np.testing.assert_allclose(gain, gain_o, atol=1e-5 * np.max(np.abs(gain)))
    np.testing.assert_allclose(cond, cond_o, atol=1e-5 * np.max(np.abs(cond)))


def test_refine_left_marginal_zero_parent():
    # Conditional variance of the left coefficients given a parent pinned at
    # zero, against the kernel-quadrature oracle; 1e6 draws, 4 sigma for the
    # six simultaneous statistics.
    n = 1_000_000
    _, cond_o = _conditional_from_kernel(0.5)
    parent = _zero_increment(1.0, 1, shape=(n,))
    left, _ = bm.refine(parent, np.random.default_rng(108))
    lt = bm.to_time_integrals(left)
    for comp, var_o in zip((lt.w, lt.i1, lt.i2), np.diag(cond_o)):
        flat = comp.ravel()
        assert abs(np.mean(flat)) < 4.0 * np.sqrt(var_o / n)
        assert abs(np.var(flat) - var_o) < 4.0 * var_o * np.sqrt(2.0 / n)


def test_refine_left_mean_nonzero_parent():
    n = 400_000
    gain_o, cond_o = _conditional_from_kernel(0.5)
    xp = np.array([1.3, 0.4, 0.1])
    mean_o = gain_o @ xp
    parent = bm.from_time_integrals(
        bm.TimeIntegrals(
            1.0,
            np.full((n, 1), xp[0]),
            np.full((n, 1), xp[1]),
            np.full((n, 1), xp[2]),
        )
    )
    left, _ = bm.refine(parent, np.random.default_rng(109))
    lt = bm.to_time_integrals(left)
    for comp, mu, var in zip((lt.w, lt.i1, lt.i2), mean_o, np.diag(cond_o)):
        assert abs(np.mean(comp) - mu) < 4.0 * np.sqrt(var / n)


def test_refine_halfsplit_leftw_variance_frozen():
    # For an even split of a unit parent the conditional variance of the
    # left increment is exactly 1/16 (cross-checked by the oracle above).
    _, l_hat = bm.bridge_matrices()
    cond = l_hat @ l_hat.T
    assert abs(0.5 * cond[0, 0] - 1.0 / 16.0) < 1e-12


def test_refine_deterministic_under_identical_state():
    inc = bm.sample_increment(np.random.default_rng(110), 1.0, 3)
    l1, r1 = bm.refine(inc, np.random.default_rng(7))
    l2, r2 = bm.refine(inc, np.random.default_rng(7))
    assert np.array_equal(l1.w, l2.w) and np.array_equal(r1.k, r2.k)


# ---------------------------------------------------------------------------
# seed-addressed paths and trees


def test_tree_leaf_fold_reconstructs_root():
    tree = bm.DyadicBrownianTree(seed=42, d=3, horizon=2.0)
    root = tree.root()

    def leaves(inc, index, depth):
        if depth == 0:
            return [inc]
        l, r = tree.split(inc, index)
        return leaves(l, 2 * index, depth - 1) + leaves(r, 2 * index + 1, depth - 1)

    parts = leaves(root, 1, 6)
    assert len(parts) == 64
    fold = parts[0]
    for p in parts[1:]:
        fold = bm.combine(fold, p)
    np.testing.assert_allclose(fold.w, root.w, atol=1e-12, rtol=1e-12)
    np.testing.assert_allclose(fold.h, root.h, atol=1e-12, rtol=1e-12)
    np.testing.assert_allclose(fold.k, root.k, atol=1e-12, rtol=1e-12)


def test_tree_walk_splits_each_node_before_yielding_it_left_child_first():
    tree = bm.DyadicBrownianTree(seed=42, d=3, horizon=2.0, shape=(4,))

    def recursive(inc, index, level):
        halves = tree.split(inc, index) if level < 3 else None
        yield level, inc, halves
        if halves is not None:
            yield from recursive(halves[0], 2 * index, level + 1)
            yield from recursive(halves[1], 2 * index + 1, level + 1)

    got, want = list(tree.walk(3)), list(recursive(tree.root(), 1, 0))
    assert [lvl for lvl, _, _ in got] == [0, 1, 2, 3, 3, 2, 3, 3, 1, 2, 3, 3, 2, 3, 3]
    for (lvl, inc, halves), (_, inc_ref, halves_ref) in zip(got, want, strict=True):
        assert (halves is None) == (halves_ref is None) == (lvl == 3)
        for a, b in zip((inc, *(halves or ())), (inc_ref, *(halves_ref or ()))):
            for name in ("w", "h", "k"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_tree_split_is_order_independent():
    tree = bm.DyadicBrownianTree(seed=5, d=2, horizon=1.0)
    root = tree.root()
    l, r = tree.split(root, 1)
    ll1, lr1 = tree.split(l, 2)
    rl1, rr1 = tree.split(r, 3)
    # same splits, opposite order
    rl2, rr2 = tree.split(r, 3)
    ll2, lr2 = tree.split(l, 2)
    for x, y in ((ll1, ll2), (lr1, lr2), (rl1, rl2), (rr1, rr2)):
        assert np.array_equal(x.w, y.w)
        assert np.array_equal(x.k, y.k)


def test_path_increments_reproducible():
    path = bm.BrownianPath(seed=9, d=4, shape=(6,))
    a = path.increment(3, 0.1)
    b = path.increment(3, 0.1)
    assert np.array_equal(a.w, b.w)
    c = path.increment(4, 0.1)
    assert not np.array_equal(a.w, c.w)


def test_path_halves_leave_root_unchanged():
    path = bm.BrownianPath(seed=9, d=4)
    plain = path.increment(2, 0.5)
    rich = path.increment(2, 0.5, with_halves=True)
    assert np.array_equal(plain.w, rich.w)
    assert np.array_equal(plain.k, rich.k)
    back = bm.combine(*rich.halves)
    np.testing.assert_allclose(back.w, rich.w, rtol=1e-13, atol=1e-15)


# ---------------------------------------------------------------------------
# keyed noise: the ulmc-csv v2 layout
#
# A path's or tree's seed is its Philox key, and each draw starts Philox at
# counter words (0, 0, index, stream); keyed_generator keys by (seed mod 2**64,
# tag, chunk) packed into the two key words, with a zero counter.  The oracle
# is a fresh Philox built from those integers, packed here by hand.

_KEY_SEEDS = st.sampled_from([0, 1, 2**64 - 1, -1, -(2**40)]) | st.integers(-(2**70), 2**70)
_KEY_WORDS = st.sampled_from([0, 8, 2**32 - 1]) | st.integers(0, 2**32 - 1)
_KEY_INDICES = st.sampled_from([0, 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1)


def _philox(key, stream=0, index=0):
    counter = index * 2**128 + stream * 2**192
    return np.random.Generator(np.random.Philox(key=key % 2**128, counter=counter))


def _packed(seed, tag, chunk):
    return seed % 2**64 + tag * 2**64 + chunk * 2**96


def _assert_same_increment(got, want):
    assert got.dt == want.dt
    for name in ("w", "h", "k"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.halves is None) == (want.halves is None)
    for a, b in zip(got.halves or (), want.halves or ()):
        _assert_same_increment(a, b)


@settings(max_examples=60)
@given(
    seed=_KEY_SEEDS, tag=_KEY_WORDS, chunk=_KEY_WORDS, index=_KEY_INDICES, batch=_BATCHES,
    with_halves=st.booleans(),
)
def test_path_increment_equals_philox_oracle(seed, tag, chunk, index, batch, with_halves):
    key = _packed(seed, tag, chunk)
    got = bm.BrownianPath(bm.chunk_key(seed, tag, chunk), 3, shape=batch).increment(
        index, 0.1, with_halves=with_halves
    )
    want = bm.sample_increment(_philox(key, 0, index), 0.1, 3, shape=batch)
    if with_halves:
        want = want.with_halves(bm.refine(want, _philox(key, 1, index)))
    _assert_same_increment(got, want)


@settings(max_examples=60)
@given(seed=_KEY_SEEDS, tag=_KEY_WORDS, chunk=_KEY_WORDS, index=_KEY_INDICES, batch=_BATCHES)
def test_tree_root_and_split_equal_philox_oracle(seed, tag, chunk, index, batch):
    key = _packed(seed, tag, chunk)
    tree = bm.DyadicBrownianTree(bm.chunk_key(seed, tag, chunk), 2, 4.0, shape=batch)
    root = tree.root()
    _assert_same_increment(root, bm.sample_increment(_philox(key, 2, 1), 4.0, 2, shape=batch))
    for a, b in zip(tree.split(root, index), bm.refine(root, _philox(key, 3, index))):
        _assert_same_increment(a, b)


@settings(max_examples=60)
@given(seed=_KEY_SEEDS, tag=_KEY_WORDS, chunk=_KEY_WORDS)
def test_keyed_generator_equals_philox_oracle(seed, tag, chunk):
    got = bm.keyed_generator(seed, tag, chunk).standard_normal(9)
    assert np.array_equal(got, _philox(_packed(seed, tag, chunk)).standard_normal(9))


def test_path_and_tree_take_their_key_modulo_2_128():
    for seed in (-1, -(2**70), 2**128 + 5):
        got = bm.BrownianPath(seed, 2).increment(7, 0.5)
        _assert_same_increment(got, bm.sample_increment(_philox(seed, 0, 7), 0.5, 2))
        root = bm.DyadicBrownianTree(seed, 2, 1.0).root()
        _assert_same_increment(root, bm.sample_increment(_philox(seed, 2, 1), 1.0, 2))


def test_v2_layout_is_pinned():
    # float.hex of a few draws, so any change of key or counter layout shows
    from ulmc import cli

    inc = bm.BrownianPath(seed=1, d=2).increment(0, 1.0)
    assert [x.hex() for x in inc.w] == [
        "0x1.053197c7442ddp+0",
        "0x1.84f9208f01294p-1",
    ]
    tree = bm.DyadicBrownianTree(seed=1, d=2, horizon=1.0)
    left, _ = tree.split(tree.root(), 1)
    assert [x.hex() for x in left.w] == [
        "-0x1.9692d0a8e73a1p-5",
        "0x1.9970d799ea16cp-2",
    ]
    assert [x.hex() for x in bm.keyed_generator(1, 8, 0).standard_normal(2)] == [
        "0x1.73af52cea5a43p+0",
        "-0x1.4d0b4b051959ep+0",
    ]
    assert cli._CSV_VERSION == "ulmc-csv v2"


def test_keyed_draws_reject_negative_index_like_keyed_generator():
    with pytest.raises(ValueError):
        bm.keyed_generator(1, 0, -1)
    with pytest.raises(ValueError):
        bm.BrownianPath(1, 2).increment(-1, 0.1)
    # an index must fit its 64-bit counter word, tags and chunks their 32-bit halves
    path, tree = bm.BrownianPath(1, 2), bm.DyadicBrownianTree(1, 2, 1.0)
    for index in (-1, 2**64, 2**70):
        with pytest.raises(ValueError, match="noise index"):
            path.increment(index, 0.1, with_halves=True)
        with pytest.raises(ValueError, match="noise index"):
            tree.split(tree.root(), index)
    for tag, chunk in ((-1, 0), (2**32, 0), (0, 2**32)):
        with pytest.raises(ValueError, match="tag and chunk"):
            bm.keyed_generator(1, tag, chunk)


def test_one_path_and_tree_shared_by_threads_match_serial_use():
    path = bm.BrownianPath(seed=77, d=3, shape=(4,))
    tree = bm.DyadicBrownianTree(seed=78, d=3, horizon=1.0, shape=(4,))
    root = tree.root()
    indices = list(range(300))
    serial = [path.increment(i, 0.05, with_halves=True) for i in indices]
    serial_splits = [tree.split(root, i + 1) for i in indices]
    orders = [
        indices,
        indices[::-1],
        indices[1::2] + indices[::2],
        indices[2::3] + indices[::3] + indices[1::3],
    ]
    start = threading.Barrier(len(orders), timeout=60)

    def work(order):
        start.wait()
        return {
            i: (path.increment(i, 0.05, with_halves=True), tree.split(root, i + 1))
            for i in order
        }

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
    try:
        with ThreadPoolExecutor(max_workers=len(orders)) as pool:
            results = list(pool.map(work, orders, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == len(orders)
    for result in results:
        for i in indices:
            inc, children = result[i]
            _assert_same_increment(inc, serial[i])
            for a, b in zip(children, serial_splits[i]):
                _assert_same_increment(a, b)


def test_with_halves_shares_coefficients():
    inc = bm.sample_increment(np.random.default_rng(4), 0.2, 3)
    halves = bm.refine(inc, np.random.default_rng(5))
    rich = inc.with_halves(halves)
    assert inc.halves is None and rich.halves is halves
    assert rich.w is inc.w and rich.h is inc.h and rich.k is inc.k and rich.dt == inc.dt
