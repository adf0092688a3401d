"""Distances between empirical distributions, and moment statistics.

Energy distance with the negative-distance kernel and exact-assignment
2-Wasserstein, plus the velocity/gradient moment summaries used to check
stationary tail bounds.  Everything here is a pure function of its inputs
with a deterministic summation order, so repeated runs reproduce results to
the bit.

SciPy is imported on the first distance computed, not with this module, so
runs that compute no distance start without paying for its import.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EmpiricalDistribution",
    "MomentStats",
    "distance_kernels",
    "energy_distance_sq",
    "wasserstein2",
    "moment_stats",
    "subsample",
]

_BLOCK_ROWS = 2048
_MAX_ASSIGNMENT = 4096


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Weighted point cloud; weights are normalized to sum to one."""

    samples: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        pts = np.asarray(self.samples, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("samples must be a nonempty (n, d) matrix")
        object.__setattr__(self, "samples", pts)
        if self.weights is None:
            w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (pts.shape[0],):
                raise ValueError("need one weight per sample")
            if np.any(w < 0) or w.sum() <= 0:
                raise ValueError("weights must be nonnegative with positive total")
            w = w / w.sum()
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]

    @functools.cached_property
    def mean_pairwise_distance(self) -> float:
        """Weighted mean distance between two independent draws from the cloud.

        Computed on first use and kept, so a reference cloud measured
        against many others pays for its own pairs once.
        """
        return _weighted_mean_distance(self.samples, self.weights, self.samples, self.weights)

    def is_uniform(self) -> bool:
        return bool(np.allclose(self.weights, 1.0 / self.n, rtol=0, atol=1e-12))


def _as_dist(obj) -> EmpiricalDistribution:
    if isinstance(obj, EmpiricalDistribution):
        return obj
    return EmpiricalDistribution(np.asarray(obj, dtype=float))


@functools.cache
def distance_kernels():
    """SciPy's ``(cdist, linear_sum_assignment)``, imported on the first call.

    Raises ImportError when SciPy cannot be imported; a failed import is not
    cached, so a later call tries again.
    """
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    return cdist, linear_sum_assignment


def _weighted_mean_distance(xs, wx, ys, wy) -> float:
    """sum_ij wx_i wy_j ||x_i - y_j||, accumulated over fixed row blocks."""
    cdist, _ = distance_kernels()
    total = 0.0
    for start in range(0, xs.shape[0], _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        block = cdist(xs[start:stop], ys)
        total += float(wx[start:stop] @ block @ wy)
    return total


def energy_distance_sq(mu, nu, *, unbiased: bool = False) -> float:
    """Squared energy distance 2A - B - C between two point clouds.

    A, B, C are the weighted mean distances between, within mu, and within
    nu.  The default V-statistic keeps all pairs (its value is nonnegative
    by construction and is clamped at zero against rounding).  With
    ``unbiased`` the within-cloud terms are renormalized to exclude the
    diagonal, which removes the O(1/n) bias at the price of admitting small
    negative outputs.
    """
    mu = _as_dist(mu)
    nu = _as_dist(nu)
    if mu.d != nu.d:
        raise ValueError(f"dimension mismatch: {mu.d} vs {nu.d}")
    a = _weighted_mean_distance(mu.samples, mu.weights, nu.samples, nu.weights)
    b = mu.mean_pairwise_distance
    c = nu.mean_pairwise_distance
    if unbiased:
        for dist in (mu, nu):
            excess = 1.0 - float(dist.weights @ dist.weights)
            if excess <= 0:
                raise ValueError("unbiased estimator needs at least two distinct samples")
        b /= 1.0 - float(mu.weights @ mu.weights)
        c /= 1.0 - float(nu.weights @ nu.weights)
        return 2.0 * a - b - c
    return max(2.0 * a - b - c, 0.0)


def wasserstein2(mu, nu) -> float:
    """2-Wasserstein distance between equally sized uniform point clouds.

    Solved as an exact assignment problem on squared Euclidean costs; in one
    dimension this reduces to matching sorted coordinates.  Clouds larger
    than 4096 points are refused; reduce them with :func:`subsample` first.
    """
    mu = _as_dist(mu)
    nu = _as_dist(nu)
    if mu.d != nu.d:
        raise ValueError(f"dimension mismatch: {mu.d} vs {nu.d}")
    if mu.n != nu.n:
        raise ValueError(
            f"need equal sample counts, got {mu.n} and {nu.n}; subsample first"
        )
    if not (mu.is_uniform() and nu.is_uniform()):
        raise ValueError("exact matching requires uniform weights")
    if mu.n > _MAX_ASSIGNMENT:
        raise ValueError(
            f"clouds of {mu.n} points exceed the exact-assignment cap of "
            f"{_MAX_ASSIGNMENT}; subsample first"
        )
    if mu.d == 1:
        diff = np.sort(mu.samples[:, 0]) - np.sort(nu.samples[:, 0])
        return float(np.sqrt(np.mean(diff**2)))
    cdist, linear_sum_assignment = distance_kernels()
    cost = cdist(mu.samples, nu.samples, metric="sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def subsample(dist, n: int, rng: np.random.Generator) -> EmpiricalDistribution:
    """Uniform-weight subsample of ``n`` points (without replacement).

    Non-uniform input weights are honoured as selection probabilities.
    """
    dist = _as_dist(dist)
    if not 1 <= n <= dist.n:
        raise ValueError(f"cannot take {n} of {dist.n} samples")
    p = None if dist.is_uniform() else dist.weights
    idx = rng.choice(dist.n, size=n, replace=False, p=p)
    return EmpiricalDistribution(dist.samples[idx])


@dataclass(frozen=True)
class MomentStats:
    """L2/L4/L6 statistics of velocities and of gradients at positions.

    Norms follow the exchangeable-coordinate convention: the order-2p
    statistic is sqrt(d) times the 2p-th root of the pooled per-coordinate
    moment, which for an isotropic Gaussian N(0, u I_d) gives exactly
    sqrt(ud), 3^(1/4) sqrt(ud) and 15^(1/6) sqrt(ud) at p = 1, 2, 3 in any
    dimension.  Gradient fields are None when no potential was supplied.
    """

    mean_v_sq: float | None
    v_l2: float | None
    v_l4: float | None
    v_l6: float | None
    mean_grad_sq: float | None = None
    grad_l2: float | None = None
    grad_l4: float | None = None
    grad_l6: float | None = None


def _pooled_norms(values: np.ndarray, weights: np.ndarray) -> tuple[float, float, float, float]:
    d = values.shape[1]
    mom = lambda p: float(weights @ np.mean(values**p, axis=1))
    m2, m4, m6 = mom(2), mom(4), mom(6)
    root = np.sqrt(d)
    return d * m2, root * m2**0.5, root * m4**0.25, root * m6 ** (1.0 / 6.0)


def moment_stats(dist, pot=None) -> MomentStats:
    """Moment summary of a sample cloud.

    Without ``pot`` the samples are velocities.  With ``pot`` (dimension d
    from ``pot.meta.d``) the cloud may hold phase samples of width 2d laid
    out as (position, velocity), yielding both summaries, or width d, which
    is read as positions only.
    """
    dist = _as_dist(dist)
    if pot is None:
        stats = _pooled_norms(dist.samples, dist.weights)
        return MomentStats(*stats)
    d = pot.meta.d
    if dist.d == 2 * d:
        positions, velocities = dist.samples[:, :d], dist.samples[:, d:]
    elif dist.d == d:
        positions, velocities = dist.samples, None
    else:
        raise ValueError(
            f"sample width {dist.d} fits neither phase (2d = {2 * d}) nor "
            f"position (d = {d}) layout"
        )
    grads = pot.gradient(positions)
    g = _pooled_norms(grads, dist.weights)
    if velocities is None:
        return MomentStats(None, None, None, None, *g)
    v = _pooled_norms(velocities, dist.weights)
    return MomentStats(*v, *g)
