"""Distances between uniform empirical distributions.

Energy distance with the negative-distance kernel and exact-assignment
2-Wasserstein between point clouds.  Everything here is a pure function of
its inputs with a deterministic summation order, so repeated runs reproduce
results to the bit.

SciPy is loaded on the first distance computed, not with this module, so
runs that compute no distance start without paying for it.  Even then only
the two compiled modules behind ``cdist`` and ``linear_sum_assignment`` are
loaded, not ``scipy.optimize`` and ``scipy.spatial`` around them (see
:func:`distance_kernels`).
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

__all__ = [
    "EmpiricalDistribution",
    "distance_kernels",
    "energy_distance_sq",
    "wasserstein2",
    "subsample",
]

_BLOCK_ROWS = 2048
_MAX_ASSIGNMENT = 4096
_LOADING = threading.Lock()  # two threads' first distances load each module once


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Uniform point cloud of finite ``samples``, each of weight 1/n; ``==`` is identity."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.samples, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("samples must be a nonempty (n, d) matrix")
        if not np.isfinite(pts).all():
            raise ValueError("samples must be finite, found NaN or inf")
        object.__setattr__(self, "samples", pts)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]

    @functools.cached_property
    def mean_pairwise_distance(self) -> float:
        """Mean distance between two independent draws from the cloud.

        Computed on first use and kept, so a reference cloud measured
        against many others pays for its own pairs once.
        """
        return _mean_distance(self.samples, self.samples)


def _as_dist(obj) -> EmpiricalDistribution:
    if isinstance(obj, EmpiricalDistribution):
        return obj
    return EmpiricalDistribution(np.asarray(obj, dtype=float))


def _compiled_module(name: str):
    """SciPy's extension module ``name``, loaded from its own file, or None.

    Only the compiled file runs, not the ``__init__`` of the packages above
    it: those of ``scipy.optimize`` and ``scipy.spatial`` import
    ``scipy.linalg``, ``scipy.special`` and more, which cost far more than the
    kernels.  The module goes into ``sys.modules`` under its own name, so a
    later import of its package reuses it.  None when SciPy is not installed
    or ``name`` is not an extension module there.
    """
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")  # locates the package without running it
    if scipy is None or not scipy.submodule_search_locations:
        return None
    folder = os.path.join(scipy.submodule_search_locations[0], *name.split(".")[1:-1])
    spec = FileFinder(folder, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None or not isinstance(spec.loader, ExtensionFileLoader):
        return None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


@functools.cache
def distance_kernels():
    """SciPy's ``(cdist_euclidean, cdist_sqeuclidean, linear_sum_assignment)``.

    Loaded on the first call, straight from the compiled modules that the
    public ``scipy.spatial.distance.cdist`` and
    ``scipy.optimize.linear_sum_assignment`` call, so distances keep their
    bits.  An installed SciPy laid out otherwise gets the public functions,
    and only then is the full ``scipy.optimize`` imported.  Raises
    ImportError when SciPy cannot be imported; a failed import is not
    cached, so a later call tries again.
    """
    with _LOADING:
        pybind = _compiled_module("scipy.spatial._distance_pybind")
        lsap = _compiled_module("scipy.optimize._lsap")
    try:
        return pybind.cdist_euclidean, pybind.cdist_sqeuclidean, lsap.linear_sum_assignment
    except AttributeError:  # a module not found (None) or without these names
        from scipy.optimize import linear_sum_assignment
        from scipy.spatial.distance import cdist

        return (
            functools.partial(cdist, metric="euclidean"),
            functools.partial(cdist, metric="sqeuclidean"),
            linear_sum_assignment,
        )


def _mean_distance(xs, ys) -> float:
    """sum_ij wx_i wy_j ||x_i - y_j|| with wx_i = 1/n_x, wy_j = 1/n_y, over fixed row blocks."""
    cdist_euclidean, _, _ = distance_kernels()
    wx = np.full(xs.shape[0], 1.0 / xs.shape[0])
    wy = np.full(ys.shape[0], 1.0 / ys.shape[0])
    total = 0.0
    for start in range(0, xs.shape[0], _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        block = cdist_euclidean(xs[start:stop], ys)
        total += float(wx[start:stop] @ block @ wy)
    return total


def energy_distance_sq(mu, nu) -> float:
    """Squared energy distance 2A - B - C between two point clouds.

    A, B, C are the mean distances between, within mu, and within nu.  This
    V-statistic keeps all pairs; its value is nonnegative by construction
    and is clamped at zero against rounding.  Distances that overflow are
    infinite, and the result is inf when any of A, B and C is.
    """
    mu = _as_dist(mu)
    nu = _as_dist(nu)
    if mu.d != nu.d:
        raise ValueError(f"dimension mismatch: {mu.d} vs {nu.d}")
    a = _mean_distance(mu.samples, nu.samples)
    b, c = mu.mean_pairwise_distance, nu.mean_pairwise_distance
    return np.inf if np.inf in (a, b, c) else max(2.0 * a - b - c, 0.0)


def wasserstein2(mu, nu) -> float:
    """2-Wasserstein distance between equally sized point clouds.

    Solved as an exact assignment problem on squared Euclidean costs; in one
    dimension this reduces to matching sorted coordinates.  Squared
    distances that overflow are infinite, so the distance is inf when every
    assignment needs one.  Clouds larger than 4096 points are refused;
    reduce them with :func:`subsample` first.
    """
    mu = _as_dist(mu)
    nu = _as_dist(nu)
    if mu.d != nu.d:
        raise ValueError(f"dimension mismatch: {mu.d} vs {nu.d}")
    if mu.n != nu.n:
        raise ValueError(
            f"need equal sample counts, got {mu.n} and {nu.n}; subsample first"
        )
    if mu.n > _MAX_ASSIGNMENT:
        raise ValueError(
            f"clouds of {mu.n} points exceed the exact-assignment cap of "
            f"{_MAX_ASSIGNMENT}; subsample first"
        )
    if mu.d == 1:
        diff = np.sort(mu.samples[:, 0]) - np.sort(nu.samples[:, 0])
        with np.errstate(over="ignore"):  # squares that overflow are inf, as in the 2-D branch
            return float(np.sqrt(np.mean(diff**2)))
    _, cdist_sqeuclidean, linear_sum_assignment = distance_kernels()
    cost = cdist_sqeuclidean(mu.samples, nu.samples)
    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError:  # SciPy raises when every assignment needs an inf cost
        if np.isfinite(cost).all():
            raise
        return np.inf
    return float(np.sqrt(cost[rows, cols].mean()))


def subsample(dist, n: int, rng: np.random.Generator) -> EmpiricalDistribution:
    """Subsample of ``n`` points, drawn without replacement."""
    dist = _as_dist(dist)
    if not 1 <= n <= dist.n:
        raise ValueError(f"cannot take {n} of {dist.n} samples")
    return EmpiricalDistribution(dist.samples[rng.choice(dist.n, size=n, replace=False)])
